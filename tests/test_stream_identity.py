"""The random stream is frozen: a sha256 of each call's output and the counter after it.

Output k of ``RandomSource`` depends only on (seed, k), so how the work is cut
up -- the slice size, the number of worker threads -- must not change a bit.
The digests below were taken from the serial construction; every case is run
with the worker count forced to 1, 2 and 3, whatever the machine has.  The
posterior draws are frozen the same way: they were taken from the sampler that
made all normals first and transformed them with one product, and must not
change when the draws are made and transformed one block of rows at a time.
"""

import hashlib
import sys
from pathlib import Path

import pytest

import twinreg as T
from twinreg import kernels

S = 1 << 15  # _SLICE: sizes on both sides of a slice boundary
SIZES = (1, S, S + 1, 8 * S + 3, 1_000_003)
SEEDS = (0, 42, 2**64 - 1)


def _normals(n, moved):
    def draw(rs):
        if moved:
            rs.uniforms(3)  # an odd counter: u1 sits on even outputs from here
        return rs.normals(n)

    return draw


def _inverse_gammas(shape):
    return lambda rs: rs.inverse_gammas(200_003, shape, 2.0)


CALLS = {}
for _n in SIZES:
    CALLS[f"normals-{_n}"] = _normals(_n, False)
    CALLS[f"normals-{_n}-moved"] = _normals(_n, True)
for _shape in (0.3, 1.0, 19.5):
    CALLS[f"inverse_gammas-{_shape}"] = _inverse_gammas(_shape)

# (seed, call): (sha256 of the float64 output bytes, counter after the call)
DIGESTS = {
    (0, "normals-1"): ("dea25d5a9fc8b51e731b5369cad0af258f9bfde3966bcf0bf18ec5a3927ce05a", 2),
    (0, "normals-1-moved"): ("8f6aa7489e7fd8e353a38cae1ea85c16614c854b924dbd488589ff769f015a56", 5),
    (0, "normals-32768"): ("300bb1a4e13b1feae6e1421f7037597c85d2dcc94425e0935fdec8d9a57d9f10", 65536),
    (0, "normals-32768-moved"): ("0f54b3871309b1a44bb67b443f1377ff425549c02b770f934157d827556e2674", 65539),
    (0, "normals-32769"): ("5848035f5bcf0a15f47177e6f23275f6442e1b517d52f65efc0618abc33cd8eb", 65538),
    (0, "normals-32769-moved"): ("08b6f24d3f9e86b443cd0a8b8aafc9c5dff7d21f633171c66a5be6f8e3c4fe88", 65541),
    (0, "normals-262147"): ("ab620f1a017e413525aa9a82952ea8ddbcfd5449f2743bd7a9d68e3edb9fc870", 524294),
    (0, "normals-262147-moved"): ("2068a5aaaa7a3db76ef5ffab02df465b0cc3e23141560f028ac7096e7f5abf65", 524297),
    (0, "normals-1000003"): ("c5cb6a0b4b0d03aa46074e3c30b9b4e40ea16bde3b88d0c4519d5bd728b3e02e", 2000006),
    (0, "normals-1000003-moved"): ("f580d29096acbf60b276e602e3f3c2cadd15da3a32a17b97c4d73651a1c5b776", 2000009),
    (0, "inverse_gammas-0.3"): ("c5e44a77c822d8f557a9318668f196d49bfbd61ec062fefc362ecbf5ce85e286", 820004),
    (0, "inverse_gammas-1.0"): ("6024a04706b15a055e0f487e29ea22941e036ac631edff85719d0efad77df22c", 630105),
    (0, "inverse_gammas-19.5"): ("e0277584779f422b0e19d4d5c2c8fa311f19471e590617d7e35681f4b115bb5d", 600855),
    (42, "normals-1"): ("bafe76fe7392715f61bb820c33253609d0d7dc597d5cb8ba811ff89e6b79c789", 2),
    (42, "normals-1-moved"): ("d0e613b5cca567ce1e4ed428efad57f56b8bf6eb3abef9251b10d7aee7a7a0a9", 5),
    (42, "normals-32768"): ("b3c382b0e17e24e78017780c75b979578575afd306e6a4da3741884f1f391822", 65536),
    (42, "normals-32768-moved"): ("90a9bafaadfd3b534e79ae324fa6460fefc02c4025f3895386669ecc1252031d", 65539),
    (42, "normals-32769"): ("eacf598dfb2811192badfdfd2615f69bcc8a10dd535ed62af067f61c8746b76b", 65538),
    (42, "normals-32769-moved"): ("5ee9d92577489ba7ed76ed578700c3ab62e703bfe8531793352dc47609d6ac98", 65541),
    (42, "normals-262147"): ("e9cf15f343b2e3151e46113376573b7e3121dbe711a218cae94e9980b43df898", 524294),
    (42, "normals-262147-moved"): ("8d6f04ab09d65fd931eb02370026398a04cecb4cb66443eec711a62f46b76287", 524297),
    (42, "normals-1000003"): ("3bf9fff2611e2328082388bb628d02bff1c8f8d1958baf0e3fa1ad2535b23a74", 2000006),
    (42, "normals-1000003-moved"): ("a57dff05cbb2d96d94aa22ce943fc8fb89e43b09f3ffcf2707bc5117bb0b8d01", 2000009),
    (42, "inverse_gammas-0.3"): ("5691577553ac9fbe65ad5068b9a6e627e0c7a6b92f20a8baf218a9c895f92ae2", 820784),
    (42, "inverse_gammas-1.0"): ("b06b5418469689d11e464c3258290f52c861c45a085fc27d158192ca3c1ca48e", 630987),
    (42, "inverse_gammas-19.5"): ("019dfba94fa126165c67807540df5286464c1b01a2066e4aa66dceff47fc0517", 600987),
    (18446744073709551615, "normals-1"): ("21ed560a3b07ba1b022f781e856e1668be0320abaf9cfd1857b1597ccc74e48e", 2),
    (18446744073709551615, "normals-1-moved"): ("6f3cc603933db67f196b460a5a4fb8a22bf0d8166c87a0de3abdf4c756e56e35", 5),
    (18446744073709551615, "normals-32768"): ("196c475b8932bc296d81d9c2e09faacd7d03edf88ea2f8ba546a9cbe9e081c5a", 65536),
    (18446744073709551615, "normals-32768-moved"): ("1455dcabd99c8ba7b6e2db3de3cd0a1fe689ad8f87703ce09008aae560cbd190", 65539),
    (18446744073709551615, "normals-32769"): ("942b073795a822a4dffef96c22302a71917a5e7c0db516c1d883f2a42fb0c036", 65538),
    (18446744073709551615, "normals-32769-moved"): ("ad0b1f44983a944a8cee77d711d0efa07b1faa07fefb3c193af80db7cea86864", 65541),
    (18446744073709551615, "normals-262147"): ("31c26b7383fcba2f12bea11505aefba1e8f604aceae64d8ca62948c58863cef2", 524294),
    (18446744073709551615, "normals-262147-moved"): ("1ea0c703c2b50fcbd0288c8bd7d0d00a03b4fb17dab2988e3d152995111a8691", 524297),
    (18446744073709551615, "normals-1000003"): ("29dca368376664b8b59ff03baa114bf6ca9c8f8186aaf207e50cf2f0f51ce515", 2000006),
    (18446744073709551615, "normals-1000003-moved"): ("df4ca9f23b735c9416bb72f7cfdd0d140aff949d6005f4053bd0aa3546114652", 2000009),
    (18446744073709551615, "inverse_gammas-0.3"): ("0cf9a9931a15c8374233a6410912fa3c2baf2a7e8881e5ba3a05a61cc94432d2", 820118),
    (18446744073709551615, "inverse_gammas-1.0"): ("3c68e372b532d95dfdd3e757af57e4108fa7c2c652420d64ddf4b4507917ad95", 630057),
    (18446744073709551615, "inverse_gammas-19.5"): ("ea173486f7245ca6c023a71f822fe65c6b2d74933a113afd99e56bba8608f1e2", 600855),
}


def _digest(seed, call):
    rs = kernels.RandomSource(seed)
    out = CALLS[call](rs)
    return hashlib.sha256(out.tobytes()).hexdigest(), rs._count


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("call", list(CALLS))
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_digest(seed, call, workers, monkeypatch):
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    assert _digest(seed, call) == DIGESTS[seed, call]


@pytest.mark.parametrize("slice_", [1000, 3 * S])
def test_slice_size_does_not_change_the_stream(slice_, monkeypatch):
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    monkeypatch.setattr(kernels, "_SLICE", slice_)
    for call in CALLS:
        assert _digest(42, call) == DIGESTS[42, call], call


FIXTURE = Path(__file__).resolve().parent.parent / "data" / "loanloss_quarterly.csv"

# (seed, p, draws): (sha256 of beta's bytes, sha256 of sigma2's bytes, counter
# after the call); the design is the first p columns of the fixture's, so p = 7
# gives blocks whose normals do not fill a slice
SAMPLER_DIGESTS = {
    (7, 4, 1000): ("9acf03c775742b61ab081f0c0f954c4b5c8166ee2804ec5deefa3bf9e7ca58e7", "9f6c911b6b83d8c7e33ef2d836a6085db7f0ab3d2ee97abc2ebf2cab3660b1b9", 11000),
    (7, 4, 10000): ("103f6a17aaa391ac8a15f483ee4400c87eac50637f4a6797de3ee38d6923591f", "535ea5ddc310458aa97cda2348d0d942f95c3fe022132415c5a96c7b2c096f9e", 110033),
    (7, 4, 131073): ("e457866801565e65899763b37370dcca341d6fded3841229d5f825d057df8cdf", "553ea434b15fb3d7fb6d6bce2eb6e651c05e05274ac49aea08c9b54a17ad4310", 1442499),
    (7, 4, 1000003): ("c5192a3b5b5137e573520c09626d3cae8013178a2f6ebaa09bf31033a3348edd", "d5729e375148866b53b0abca8c3b7b4fe35673293011a5895feeb699f33297d3", 11004395),
    (7, 7, 1000): ("957537b2fa664fa08b7219b13af6be5cc9a7b9c171e3ddaa45d7ccc044f6ddef", "b490b2dc6450c72342fc23f3f8641072b909da350efa6a7b5c91c7d4fca85e12", 17000),
    (7, 7, 10000): ("7eb417edae920bd0afa72dba4c95b15982f8b99eed1387d047199c85fd8433df", "d958d7235c963b1bc9da4da6d77fcbc47d3e46213119c3b87671da997283f36a", 170033),
    (7, 7, 131073): ("bbf453a29e5d16e90fae87bb45f02478e7d8e7da5548dd12f2e333f409e2a359", "4da21be6a0c30ea04de6cfde668381e57a1373ae94a8de35a961b827b3b737b4", 2228937),
    (7, 7, 1000003): ("48b3445ad37d38f110834566133f3c9b3f11a77efd0daf9cfc1867ed723c9929", "7793fd82246ba32744536b8e68f578ff0fb1d55e3a1a977e7ea52b06938f0606", 17004413),
    (7, 8, 1000): ("2bca76ce0d7c059390e1015976e4292ebdd17d86034b9a89b39160663c9b38c2", "aea0809fdeeaf703db23d71f786c5b8a4ef060ef57665d70f27d7a2a2d2b73f8", 19000),
    (7, 8, 10000): ("a8bc956018d6eaac6d0c01ecf16d5f1d84e85e267e526f021738dab11b39aac6", "d4a5899774edead0e00828ec4fcadc28ae483873c44b149b91352572c5dc1c8e", 190033),
    (7, 8, 131073): ("600217f9db05993a3e158e03d8fcaf366dd9a70fefe1a63f8b455075981af68e", "11c592f915873b27d52ea46f5859e04ac838abb8e9916059d0742650db030f13", 2491083),
    (7, 8, 1000003): ("567ea3e2b5a77f1cabd43fe8c2cb4158666f78b131d44d4cece2facd268a4d8c", "37e4c45f023bc76af3572d3e9654661bdd0fcc346fca38f2a77896729f1f798c", 19004419),
    (42, 4, 1000): ("8b576611654df0b58fa5e8ea8dd33dfd1150cfc94054c05452a5977056ec97c9", "a7c7b00dd2444413415a7b3bc7cab2dbd7c2ea4326b7eb57b72b16e72df9db5c", 11009),
    (42, 4, 10000): ("a8d7288f7ee12e3a2c52f1a23fae43bfad4a5b0138b9e4e4790d6b0d550a7493", "b6642401ae0e8fc1f2771e30e80ea0550fd9979226e6d16fe4c9cedb935e1d5f", 110048),
    (42, 4, 131073): ("c773ebe26323c89c9262fe1a5b72be2333dbe212f38d7a10fee7a5c9c0c3a2e7", "6e63d8ca64bbc6419556743e731e1c48b9bfbac9b4fbdd9c6e178cd29533c3d9", 1442457),
    (42, 4, 1000003): ("a26513ac185ddc22ad7bb855c2b038f93001c726b5644b762f5f6aa8222032a1", "46bbbefaf7eea8a959ea3cd884c0a30135263ef444f881dc91363d8ff797a149", 11004401),
    (42, 7, 1000): ("d96664d7fe4a3dd826747afbdd163845933f629e764e82a7f6547456195c23b2", "359956c84f0c82cb510c3e3b141fae3f9b6ef9827a38dd385f643b1ba06231e0", 17009),
    (42, 7, 10000): ("9d4ce70bdf48ee014dcd9b5b73c2182ae757ab5b7840cc2395e7058ca637ce9c", "372f58698edd6a1b9911657aad542bf123a49baed15a13f39d5ccf4b3e9e847e", 170048),
    (42, 7, 131073): ("4bc7d966ce3d3bb642b3cfdf208e4bf866f132fc8c13402cb281cc59479bd19f", "025758d727fa8f3ab41802f9787d8a847070693a7dadfa14c6f6de2dd78454c9", 2228895),
    (42, 7, 1000003): ("0cc06fa7f86b8a88296cac599ea732712ce985e57ffbf6e7d0bcfb02d40519ca", "b9c807fe899dd4831d21ae76d7d8fd126770fdaf7a0bd26efe3dfa3d92f4985c", 17004419),
    (42, 8, 1000): ("e0512803559660f4fb9f686920de6cae87fa1306459ddd83d906849c4320c4af", "432d7554bb6b635ad5fedbe43e65f82b86b6ffdd36f58b67fddec8489bfe4a40", 19009),
    (42, 8, 10000): ("2fc4f4d19b265ffdf6ac0952a04e226b1e0d14571ba8bfe193762620bb0b8a56", "04c92de5941f44de6e051720a16aa785b245d31098f41216fccc71af2c3e164f", 190048),
    (42, 8, 131073): ("c8f4bf8ac7ad2db7d18914c1dd6ee1f8353f7ab0506281ac8d8967952cacce32", "fcbe7c273b2292bb4dfaa796b05d40b96b88b79c7a8b27cee9c85d5e1357676d", 2491041),
    (42, 8, 1000003): ("26f28144a0c9476299006029d6fd743871b4bbec4c80144bc775580d0c631df3", "d611fcba2357453aeeed568410e11cabf0bca9cfbc3b9f98fed9c2bd7655e1db", 19004425),
}


@pytest.fixture(scope="module")
def designs():
    d = T.build_design(T.apply_transforms(T.parse_csv(FIXTURE.read_bytes())))
    return {
        p: T.DesignMatrix(X=d.X[:, :p].copy(), y=d.y, names=d.names[:p])
        for p in (4, 7, 8)
    }


def _sampler_digest(seed, p, draws, designs):
    d = designs[p]
    rs = kernels.RandomSource(seed)
    post = T.sample_posterior(d, T.fit_ols(d), T.default_prior(d), draws, rs)
    return (
        hashlib.sha256(post.beta.tobytes()).hexdigest(),
        hashlib.sha256(post.sigma2.tobytes()).hexdigest(),
        rs._count,
    )


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("seed, p, draws", list(SAMPLER_DIGESTS))
def test_sampler_digest(seed, p, draws, workers, designs, monkeypatch):
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    assert _sampler_digest(seed, p, draws, designs) == SAMPLER_DIGESTS[seed, p, draws]


@pytest.mark.parametrize("seed, p, draws", list(SAMPLER_DIGESTS))
def test_sampler_block_edges_do_not_change_the_draws(seed, p, draws, designs, monkeypatch):
    # 1000-normal slices put block edges at 250, 142 and 125 rows for p = 4, 7, 8
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    monkeypatch.setattr(kernels, "_SLICE", 1000)
    assert _sampler_digest(seed, p, draws, designs) == SAMPLER_DIGESTS[seed, p, draws]


def test_more_workers_than_cores_with_fast_thread_switching(designs, monkeypatch):
    # workers write disjoint slices of one output; a lost or misplaced slice
    # under heavy interleaving would change the digest
    monkeypatch.setattr(kernels, "_WORKERS", 8)
    monkeypatch.setattr(kernels, "_SLICE", 4096)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        n = 8 * S + 3
        for call in (f"normals-{n}", f"normals-{n}-moved", "inverse_gammas-1.0"):
            assert _digest(42, call) == DIGESTS[42, call], call
        # 512-row blocks of draws, transformed on the workers into one beta
        assert _sampler_digest(42, 8, 131073, designs) == SAMPLER_DIGESTS[42, 8, 131073]
    finally:
        sys.setswitchinterval(interval)
