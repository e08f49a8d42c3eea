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

import streams
import twinreg as T
from twinreg import kernels
from twinreg.cli import main

S = 1 << 15  # _SLICE: sizes on both sides of a slice boundary
SIZES = (1, S, S + 1, 8 * S + 3, 1_000_003)
SEEDS = (0, 42, 2**64 - 1)


def _normals(n, moved):
    def draw(rs):
        if moved:
            streams.uniforms(rs, 3)  # an odd counter: u1 sits on even outputs from here
        return streams.normals(rs, n)

    return draw


def _inverse_gammas(shape):
    return lambda rs: rs.inverse_gammas(200_003, shape, 2.0)


CALLS = {}
for _n in SIZES:
    CALLS[f"normals-{_n}"] = _normals(_n, False)
    CALLS[f"normals-{_n}-moved"] = _normals(_n, True)
for _shape in (1.0, 19.5):
    CALLS[f"inverse_gammas-{_shape}"] = _inverse_gammas(_shape)

# (seed, call): (sha256 of the float64 output bytes, counter after the call)
DIGESTS = {
    (0, "normals-1"): ("e5006e522af48f3c58aa731ee987b0282d269c0ff794a6150b352fb4e8118f8f", 2),
    (0, "normals-1-moved"): ("8f6aa7489e7fd8e353a38cae1ea85c16614c854b924dbd488589ff769f015a56", 5),
    (0, "normals-32768"): ("c0196f1fa7a996ff50b034a9ee1a31daa0666470fbe6a8ea8c36d665d850ff33", 65536),
    (0, "normals-32768-moved"): ("ea0da47e887d3c8a40b9ce44655c601b355b5ccefa1a0fe9ad7d6b0c58d6a5be", 65539),
    (0, "normals-32769"): ("964c663a1b2fb3bf2480c02d523b527f2bd7da3795f6d23cdb13f3061c86a0d8", 65538),
    (0, "normals-32769-moved"): ("8d1aacb966c625443aebddc4a6d4db1ebf93fb24a1998561961f30a632d04aa0", 65541),
    (0, "normals-262147"): ("e81c312d2f0df8ed71ebd84ab843241f2a3c7966a1cac363ae21bcf3ead188ad", 524294),
    (0, "normals-262147-moved"): ("e28bcecf5dbee4462a8d276cb7a29d6bca98f5324bcbe486cc5aa01c6dcd21e5", 524297),
    (0, "normals-1000003"): ("efa222e3b36ec6de47a990ee2f5be164e4e12b11af41c5ae1dfef962f541f798", 2000006),
    (0, "normals-1000003-moved"): ("39679ae20d0c07a691c805bfbb3cf733d20612c4af13176a398578017e3f62fe", 2000009),
    (0, "inverse_gammas-1.0"): ("1b153884768429623042cf7832c28b71c94b495f7ee9fb23f365502d7bc11afd", 630105),
    (0, "inverse_gammas-19.5"): ("d6b12bd8bde44cb22c722958e52c688582d7c7ef4b7b11af8a64e952a749eca4", 600855),
    (42, "normals-1"): ("bafe76fe7392715f61bb820c33253609d0d7dc597d5cb8ba811ff89e6b79c789", 2),
    (42, "normals-1-moved"): ("7536330af7fc849c19afceb247ccb5cf80807fd2ba3b41217fa768540aeac557", 5),
    (42, "normals-32768"): ("b745bb66238060f4d3fb1f2db1f6b422145dc2de36cb349c1ce7aa923fbd00c6", 65536),
    (42, "normals-32768-moved"): ("e2eaa027d13bc2fc61c692c70aaf2f6c707b48f0d92f88d0c947e333766f4fc5", 65539),
    (42, "normals-32769"): ("b24d3e424afe7948fe918649d537df39eda57f3722929809e07ba5da21e87b92", 65538),
    (42, "normals-32769-moved"): ("27c54b2429fae0db516e6bc326fe3174f6d4bf46ff86d1906a26c1fa1d08a4d5", 65541),
    (42, "normals-262147"): ("8e8c54453afd59084f98ae19818fd4f493bbd17c5a86239f0c671d6ee5c4176e", 524294),
    (42, "normals-262147-moved"): ("f2cce82e1f1485e04086edb15dcf5b5fbadd05942c9dbdf716db5ad6632220f8", 524297),
    (42, "normals-1000003"): ("3a312cc7cf19c4a82a670ced70ba12196448c91cb1f2c0d7998efd476d281402", 2000006),
    (42, "normals-1000003-moved"): ("b52ebb106742a1aee59625e3b23a811fb9f0ef1ca6a11d6435436560ea99d676", 2000009),
    (42, "inverse_gammas-1.0"): ("ac31e01b553fd8443710d099dfc7a2ef1ac13b3a20737d8e3f4a1223583761c2", 630987),
    (42, "inverse_gammas-19.5"): ("2a9e9b54545b137ea9e4c0fe306c7a1b013794f13059e44b4d4d42a4a60a411e", 600987),
    (18446744073709551615, "normals-1"): ("21ed560a3b07ba1b022f781e856e1668be0320abaf9cfd1857b1597ccc74e48e", 2),
    (18446744073709551615, "normals-1-moved"): ("6f3cc603933db67f196b460a5a4fb8a22bf0d8166c87a0de3abdf4c756e56e35", 5),
    (18446744073709551615, "normals-32768"): ("137459ac0c7d956f976733d2b4c424a41464d6b559c44bfe10da9c546fcee558", 65536),
    (18446744073709551615, "normals-32768-moved"): ("a1fe43fa8a143dbad43519a00f76617aeca5126a25c90d0fc91b82f8152e4651", 65539),
    (18446744073709551615, "normals-32769"): ("b1dfd85e09ab47f7abe62ac81af06dfbdc38cb404c5d3ed5ab81914c2fa5cb9b", 65538),
    (18446744073709551615, "normals-32769-moved"): ("83bb46ceb4633b45c8c335ad1b2912e41582230b5b031ad09f0280e606d59841", 65541),
    (18446744073709551615, "normals-262147"): ("190282b9824925e433c82fa5d2d1974ee41f07996ba07df7fe32b1b55e224462", 524294),
    (18446744073709551615, "normals-262147-moved"): ("6b1d517a61ca7fa3372bbb2db14e28aa04553f1cd628115710a66d498ac2d243", 524297),
    (18446744073709551615, "normals-1000003"): ("e1797f716b3d752f369d43e64ac124414ba46cd6517ed0ed45c0fa1badc700ca", 2000006),
    (18446744073709551615, "normals-1000003-moved"): ("250b5071a8ad99d411896b20959c93c6be7144135b240652f6a4973882cba926", 2000009),
    (18446744073709551615, "inverse_gammas-1.0"): ("569640c92634c99a635c129081bb43bf397bee83d2e596917c8938697f62cbfd", 630057),
    (18446744073709551615, "inverse_gammas-19.5"): ("6599bb6c36c8f00b4df1b200959f769ba041371500df0d4e952aadd9af8ba654", 600855),
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
    (7, 4, 1000): ("3fc9215e824f2e5eadb316439d252d92441671c151f818643d6a30624a04d673", "178021c96e5b2f8dc920070115bc6d16c4961b90fab8ec20493af87589d0d91e", 11000),
    (7, 4, 10000): ("73b17f9a89f776978c93907b56ed4a02cfa9f10b9931d4eae89e3544373c1e3f", "7d48eca393d1f9f8dec225fdb365c67985135ed408e03fde6dff0847f0c93278", 110033),
    (7, 4, 131073): ("d0a51e86d6dcbc4587043767c97267849d7c80b2d1db1eece3b41411c189e294", "b04cc84fb2ca7d7a00377d094cdeb20194ea1cb31a6f5136ee8a2fcf6f0fc37d", 1442499),
    (7, 4, 1000003): ("87aaeb593ce21d557ba2cc2631a4a0ccfe6cad87a9ad9ef6dd7d507c8c0c2495", "3aff16dd6cda930f79838ca5e89fd4f684d4db9294e9f7e3bdc5d78c956dad84", 11004395),
    (7, 7, 1000): ("0052aedf36ae59aa3ac4d60ba9aa8bc3690a90f265e7549c5f63aa6f78746974", "8abde3c36f8c684f282ece506810395116ac2e60ba246c3099b19f1f4f45c19b", 17000),
    (7, 7, 10000): ("ff839fb60dc76a1419796baa19953e34cd7a9072b5f24a4b0cd95f325030fb45", "3adea39b76ee5f5a774857efa98ce805a241e3e13f0bafd86319e9569040cbda", 170033),
    (7, 7, 131073): ("a36af3d84739dccfa5e8a529a3987be7da4a42e77fa9be366b88747fe1b2c8c4", "b0affa86e505f6dfe1dd26d71b5cb67381d833e4ee0b88570e142d97c1c55c19", 2228937),
    (7, 7, 1000003): ("cee734ff288feb98dd38e33ac0f15436e26f6f7f5fbbd65f6beaab8d9a398f21", "84ac7c0e5241083ececbb38d320f44dda2eda5b9d6ca283d9d8f455847f30d1e", 17004413),
    (7, 8, 1000): ("20cba9b59606a97b3bae9a88dd0fad7692376ebd439e2adee846e713f47c7567", "e3f755c3c843006fd7cb26a70d06d5a5e461df3893512bd498a2c120379e21b9", 19000),
    (7, 8, 10000): ("029302556240ecc9a923a5918722746b54795f5ad53b0f5a88d864aba8909254", "bf87a759027d59cff769a42524df12cc8edad4d69524819ba227ffdd5a32f065", 190033),
    (7, 8, 131073): ("0103a23117068ad055d56fd21a1431e5d2b44954f1cfc1493ee36ea48f6ac037", "448c1a1e9ace1ef70e0b1cf416109dc8f2d2f8dc93c3227fefa60cb6dfb2d8c7", 2491083),
    (7, 8, 1000003): ("589b5c93ee7f30f17c80d76d0447b5436dfe09ec194207c7ada7a69900462eef", "ab1de86e11e627b320d11ec863bd292bebf15b5eea161b45f6c397795fcda27b", 19004419),
    (42, 4, 1000): ("20e655ef7e2edb7c17d87048d22e765f573822f9e85ffc8aacf2e2a231791661", "f416cd4dad13a651ef9cb49e2a4ac7a5c59168997f4575b31e1b6f4e42563b60", 11009),
    (42, 4, 10000): ("a2aa2852ea89d1219c0966e37b4704c992847062387fc3d2a71cecb5f2eea4f0", "a026aeddabf7edf822cc53f8a6c261444551f1d389d2a089f465bc3d3fde03c6", 110048),
    (42, 4, 131073): ("25b183041a29c81bfea6ec5c30c2ef59c531ef446ff2fa5326cb1b62de332ee2", "534fbdbaca8069977c194f9f2fc7454e9280b92e9a468fe0e4aafe1160cb31f2", 1442457),
    (42, 4, 1000003): ("efa15d54a6728f11b881e978baeb574b16f835588da12b067de2210d0e1cf16e", "5b6f7683ed293293ba23d01827720f33246680ca8793e4184a29d2c3dd6670a1", 11004401),
    (42, 7, 1000): ("6f7600846d0da2485a907a9f5e27f35e4223c322444f36eabaa577124a302d8e", "84b801268cb6248903cb6450af2c2dad10327f904db67f72bf181cf4e92b0f6a", 17009),
    (42, 7, 10000): ("c4bb73cf02cbca4494a23f80a760d24adf62bb69c54ba73b63b8180b82a4b8a7", "69221a86609629d006b1dc1edf2c3e8be9ee99e926898012166065244c3bad0b", 170048),
    (42, 7, 131073): ("224c71b062fe2485b388bdf93e495078491bd950e35dc6d608208cb084e7fc06", "11a294aa021cb7c4bd30c48ea26276113038bba00758a81f88993da5c75b6a5e", 2228895),
    (42, 7, 1000003): ("99c9b237f979f1b911dad9b84be19cae7aa4cf53f689f247b31ee3f5d9708934", "73e00c756e9cb7b58dc2d9e947930b0d8a5742a878e291baade2d217b7a502f0", 17004419),
    (42, 8, 1000): ("a04cdc27c35b990de035fcdef97f2426d6ddbceaeb76fe85c24526d43bb2b1d5", "832b14c3208f3c2cb934f3c6b78217778625b8621b00ab0a52ac630c3aa3e837", 19009),
    (42, 8, 10000): ("87675750f2e2d348741ad8476c1af8c148c9c63ef78030fad09e123ab93e822b", "3a96205587617c25ec9bb3279f401a367674b69d1b4ba8cef3c59f1992bd5353", 190048),
    (42, 8, 131073): ("73b01b8c47bc67586c15badb50b2f966f80b41033d3b1da5465dd20baafa00ac", "b9fe83a6376e61fdf891f609379a696d88c94499e3446e2a0f2886c6199bbfe1", 2491041),
    (42, 8, 1000003): ("0e5d1b392fde923af9d44434f874616906c97f5dc779183599181bd1a0cc9676", "9f9b6e750d8078edc98cf5b684b98fa5e83dcfefb12d67bc27886be5fe8fa575", 19004425),
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


# (seed, --hdi): sha256 of `bayes --format json --draws 1000000` stdout on the
# fixture, taken before the draws were stored column-major and the column
# sorts were spread over threads
BAYES_JSON_DIGESTS = {
    (1, False): "f1a79563c4452b934f97c23dcfc061780ee329f28a93f37036dd2d6c78d8fc57",
    (1, True): "b4b819438a9e5ff7b005c840907bca51c723925afca5d2fbd02591ff25f61863",
    (2, False): "50726ef04de2091ed21d7dd8f7b671323bdca95d594a111dd60cce94d8591d4c",
    (2, True): "a73aaebedb5ac7f7255204ad070c7c786b697d92208759556cd9ba2c6492b395",
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("seed, hdi", list(BAYES_JSON_DIGESTS))
def test_million_draw_bayes_json(seed, hdi, workers, monkeypatch, capfdbinary):
    # 3 workers: three threads make the sigma2 draws' first round and the
    # draws, and sort 2, 3 and 3 columns in place
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    argv = ["bayes", "--input", str(FIXTURE), "--format", "json", "--draws", "1000000"]
    code = main([*argv, "--seed", str(seed), *(["--hdi"] if hdi else [])])
    cap = capfdbinary.readouterr()
    assert (code, cap.err) == (0, b"")
    assert hashlib.sha256(cap.out).hexdigest() == BAYES_JSON_DIGESTS[seed, hdi]


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
