"""Readers of a ``RandomSource`` stream at its counter, for the tests.

Output k of the stream depends only on (seed, k), so a test reads any run
of counters from the generator's own pieces instead of a draw method:
``_splitmix`` on a ``_ramp`` for raw words, ``_as_uniforms`` for their
doubles, and ``normal_rows`` with a copy transform for normals.  Each
reader takes the next counters and advances ``rs._count`` as a draw would.
"""

import numpy as np

from twinreg import kernels


def raw_block(rs, n):
    """Outputs c+1 .. c+n as uint64, c the counter before the call."""
    z, t = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
    kernels._splitmix(z, t, kernels._ramp(n, 1), rs.seed, rs._count + 1)
    rs._count += n
    return z


def uniforms(rs, n):
    """The uniforms of outputs c+1 .. c+n: their top 53 bits times 2**-53."""
    return kernels._as_uniforms(raw_block(rs, n))


def normals(rs, n):
    """n standard normals, normal i from outputs c+2i+1 and c+2i+2."""
    out = np.empty(n)
    rs.normal_rows(out.reshape(n, 1), lambda z, dst, rows: np.copyto(dst, z))
    return out
