"""The random stream is frozen: a sha256 of each call's output and the counter after it.

Output k of ``RandomSource`` depends only on (seed, k), so how the work is cut
up -- the slice size, the number of worker threads -- must not change a bit.
The digests below were taken from the serial construction; every case is run
with the worker count forced to 1, 2 and 3, whatever the machine has.
"""

import hashlib
import sys

import pytest

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


def test_more_workers_than_cores_with_fast_thread_switching(monkeypatch):
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
    finally:
        sys.setswitchinterval(interval)
