"""The random stream is frozen: a sha256 of each call's output and the counter after it.

Output k of ``RandomSource`` depends only on (seed, k), so how the work is cut
up -- the slice size, the number of worker threads -- must not change a bit.
The digests below were taken from the serial construction; every case is run
with the worker count forced to 1, 2 and 3, whatever the machine has.  The
posterior draws are frozen the same way: they were taken from the sampler that
forms b_n as a sum of squares and folds the raw intercept into mu_n and U_inv,
and must not change with the block of rows each transform gets.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
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
# gives blocks whose normals do not fill a slice, and 131,073 draws end in a
# block of one row for p = 4 and 8
SAMPLER_DIGESTS = {
    (7, 4, 1000): ("ead165e1b38d046687a02578076b2012763b6c76d85141d26a8cb71f0b1f48cb", "1d71aef88d107c6b8def0f5f6c7670aab3e9932190896a27f2d7d4550ca30473", 11000),
    (7, 4, 10000): ("9ea4686b0bed212686a2c1d41ac36da988252432f32355abac39e44ae3ec322d", "02410d2e94a3df6b5fcbf6c057fc7f57d5f68357e06a05af8edec189f05085f6", 110033),
    (7, 4, 131073): ("89c018c1a45bd5b25f1c3ba758a5fd344b84e84da2c623e2b70285dc3c1f7369", "c2118ee112832beff9f516ed85bd9de23ba9569acbb9e9e0c2f328e503ce74f1", 1442499),
    (7, 4, 1000003): ("9a405fea0fe9a36341e7db21a144ffe76ef1d0a3676eb5e90fe7fee08261e992", "613022db61be330bb50e1efa51dfdd4cd47ce19b834a9f41a30b47f217a3c88c", 11004395),
    (7, 7, 1000): ("bbf0ed951f05e391cd4d2242f03e01907cd7206e6115d93a0fd5d9361203b259", "803675b339eb32fcbec74004ddc4d3c3e3313a42785ed50596b5e9d0ff51bf20", 17000),
    (7, 7, 10000): ("408085aae7ed52218bb387e07c1d4a69884ce5ca57ac0a0a139546844a56e18f", "cfc777089c25daf2e818ec549726c67cde151d4d2e05473a4eb0b0176c227d5f", 170033),
    (7, 7, 131073): ("fd1f90896319fc973d1cef0ba818367235b9b1f0f3e75de424d644d28b0e8a3d", "b93cd5c4190ba4873af506fdfe35fd78f8592a2a65131f72b1c8e7674ec72635", 2228937),
    (7, 7, 1000003): ("49b1236593a44ec43a0dd868ab5b8e150e9f56995303d59faaba3df191930f81", "2a1c1bf3461f15308352e66bb739f5781eef5fe95b56a9deb62b3110473711f2", 17004413),
    (7, 8, 1000): ("cd52707e88fc9863205c7620e7d60cc94a9158459b4ebef714d1c89c4e27b6fd", "076a01eb5e1410a1f165850c4f4c599e3e29e4a449878b90a79e29a88a702ec3", 19000),
    (7, 8, 10000): ("116bedb83632051153f7f44f7891aa8fcc597f817d523f789340d8fb42b6a11c", "699caa39354e0d177b483c8edacb7f3638d7a1c284d7c6e3e8c306e1f83600e8", 190033),
    (7, 8, 131073): ("4658205550cdb02279e16ed92b05456ad38d0430bd76e630f424a984a5354885", "e8607fa1d51344534b367892954eab411cbaa12c6212b23526b28d4c974119d6", 2491083),
    (7, 8, 1000003): ("f1ea93f5e0eccb8e11aba6a5db4d181c6fcb75c754f912949acaa2611d09ed7b", "05aba14a50bbb13a34f2b172cdfbe3542c1a0c9cb36c32cf32fb04ca56255d1d", 19004419),
    (42, 4, 1000): ("570a1527a191336d841e3e9d49146636bcf4690645e45fc54b82c4a3c72ec69b", "f801266c6e8bd135aeb01eb7367818fa20a1ebb28f5a08aeadfcb23fac940810", 11009),
    (42, 4, 10000): ("b745b12b1c97b2cf3ebe7ef018164c87acd2c55c3bea8217c7ad61fe19aaa049", "e628e2dc50173a7fd0c2a610be390dd2091b128418be423796d9d83dff1bfe9e", 110048),
    (42, 4, 131073): ("e515af61c758421a8d2428078e2519864e82d11c0c0b8b4bc8def9c5de62bbf0", "e18bd7e0698e290079bb11170b2e1ec30f64878b191191dcd605b8c87fab3dd0", 1442457),
    (42, 4, 1000003): ("bfab2941a13046fe5140c91559294e445f61968ad24c545412e297f32b870b28", "851138d2caaf4d03511b0412683315c0be6ba2402b516107f2672a0fb6de3ca2", 11004401),
    (42, 7, 1000): ("1c2c3ee4cd2e6e7237bfec59467ddfff323c0c0289ea8de2d9e91f0fd599a47f", "ad4a2c94c0fbb6e0be7e3e2b1382221f2edc81a06b28a8ae010328119937a1c7", 17009),
    (42, 7, 10000): ("bcdb834534bd7c18ebcd2402bbfeb37d955b0a8626023a124eeb6744b0d9bce8", "3d318ac16fad4feae034d6efe9ef06361faf9cc8838eafb7d587763dcd8b9d48", 170048),
    (42, 7, 131073): ("b56e21e8ae3e8150871dbe8ca98cfa922606b53d6b5da10cdd8346b9c979038e", "4b7401f73a19507606495175249be70cd6aacd07aaac5f9e794562631507a948", 2228895),
    (42, 7, 1000003): ("a8972807e948238b6f6465132ca34a61b26484b2a83d182a76dc6594b638afc6", "929a31d9d1c27b7e746a17ec9b0bb320de68d396ff7b251c4ada578147f1c03b", 17004419),
    (42, 8, 1000): ("9a1a531e3f95ae50ee4201a3d1cdb17d7611c805ee0ce7fe62f96200a5872a29", "579e3dc3c303cb0d467cfe819d6716a133d7d6dde21b4370f2f8b087d18b6ba7", 19009),
    (42, 8, 10000): ("3f4dc92a410e2ece3f23408d3838b0a339e92daae18af3f947b6b814a2c66f6d", "2c925a0df8007a1d1cea2ce3c7889061301670bd6c9c9ffdb410bd8b495706b8", 190048),
    (42, 8, 131073): ("b0114eac151a7d744e22f68a1e6f4aaee986a61e78e9ca268e3cd5f62848d286", "4aa5a80ec0325c312ae936d83ec6d79277d1fa10069b7edc887f9a46046f5da4", 2491041),
    (42, 8, 1000003): ("f59f6567db2b41b731b268c515fc5a02c6d4cfbd36c00d65a5d11d1ae1ed62bd", "9dd9b5124895f1c923e9e57b3d88c667476746311083d9b5602b7f3dff6332de", 19004425),
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


@pytest.mark.parametrize("p", [9, 11, 12, 13])
def test_wide_design_draws_do_not_depend_on_the_slice(p, monkeypatch):
    # wider than the fixture, in blocks of 76 to 3,640 rows (_SLICE // p): each
    # block's GEMM runs on whole groups of 8 rows, so no bit of a draw depends
    # on where its row falls in its block
    rng = np.random.default_rng(p)
    n = 40
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    d = T.DesignMatrix(X=X, y=X @ rng.normal(size=p) + rng.normal(size=n),
                       names=tuple(f"x{j}" for j in range(p)))
    fit, prior = T.fit_ols(d), T.default_prior(d)
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    digests = set()
    for slice_ in (1000, 4096, kernels._SLICE):
        monkeypatch.setattr(kernels, "_SLICE", slice_)
        post = T.sample_posterior(d, fit, prior, 131073, kernels.RandomSource(p))
        digests.add(hashlib.sha256(post.beta.tobytes()).hexdigest())
    assert len(digests) == 1


@pytest.mark.parametrize("draws", [10000, 131073])
@pytest.mark.parametrize("p", [4, 7, 8])
def test_fixture_draws_do_not_depend_on_the_slice_or_workers(p, draws, designs, monkeypatch):
    # pins no digest, so it holds under any BLAS kernel: blocks of 125 to
    # 8,192 rows (_SLICE // p), and 131,073 draws end in a block of 1 to 73 rows
    d = designs[p]
    fit, prior = T.fit_ols(d), T.default_prior(d)
    digests = set()
    for slice_ in (1000, 4096, kernels._SLICE):
        for workers in (1, 3):
            monkeypatch.setattr(kernels, "_SLICE", slice_)
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            post = T.sample_posterior(d, fit, prior, draws, kernels.RandomSource(p))
            digests.add(hashlib.sha256(post.beta.tobytes()).hexdigest())
    assert len(digests) == 1


# (seed, --hdi): sha256 of `bayes --format json --draws 1000000` stdout on the
# fixture, taken from the same sampler as SAMPLER_DIGESTS; the columns are
# sorted in place, spread over the workers
BAYES_JSON_DIGESTS = {
    (1, False): "df8b3b8441e5cc6e049ba46c99fa8ab85a82d377679bbb3798ac1a3b4e3ae18a",
    (1, True): "9cd28bd5a3b4ffe2b48b2f1dc399df7c2151e89af2c4d32d947a4de2a4017df8",
    (2, False): "4d365c495a90f7875b9933cb6cdff87c88e4ff8d8f853764d3a1fc4f20ed66ca",
    (2, True): "beb2c2e412cfc22b25c3e1b413d1da5bb4194634e68954096bff877a0bf87d95",
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
