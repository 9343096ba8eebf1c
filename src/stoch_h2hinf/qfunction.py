"""Q-matrix algebra over the stacked vector z = [x; u; v].

Two half-vectorizations connect quadratic forms to regression rows:

    vecs(H) stacks the upper triangle of H row-major,
    vech(Z) does the same but doubles the off-diagonal entries,

so that vech(Z) . vecs(H) = Tr(Z H) exactly, and in particular
z'Hz = vech(zz') . vecs(H).  H1/H2 are built from value matrices by
h_from_values, and gains/values are read back out of H by gains_from_q
and values_from_q.
"""

import functools
import math

import numpy as np

from .model import (
    GainPair,
    GainExtractionError,
    QPair,
    ValuePair,
    _trusted,
    require_symmetric,
    symmetrize,
)

# symmetry tolerance of vecs and vech, relative to max(1, largest |entry|)
_SYM_RTOL = 1e-9


def block_slices(n, m1, m2):
    """Index ranges of the x, u, v blocks inside a p x p Q-matrix."""
    return slice(0, n), slice(n, n + m1), slice(n + m1, n + m1 + m2)


@functools.cache
def _triangle(p):
    """Read-only (rows, cols, weights, where) of the p x p upper triangle, row-major.

    weights is 1 on the diagonal and 2 off it, vech's doubling; where[i, j]
    is the position of entry (min(i, j), max(i, j)) in the triangle stack.
    """
    rows, cols = np.triu_indices(p)
    weights = np.where(rows == cols, 1.0, 2.0)
    where = np.empty((p, p), dtype=np.intp)
    where[rows, cols] = where[cols, rows] = np.arange(rows.size)
    for a in (rows, cols, weights, where):
        a.flags.writeable = False
    return rows, cols, weights, where


def vecs(H):
    """Upper-triangular row-major stack [H11, H12, ..., H1p, H22, ..., Hpp]."""
    H = np.asarray(H, dtype=float)
    require_symmetric(H, "H", tol=_SYM_RTOL * max(1.0, float(np.abs(H).max() or 1.0)))
    rows, cols = _triangle(H.shape[0])[:2]
    return H[rows, cols]


def vech(Z):
    """Like vecs but off-diagonal entries doubled, so vech(Z).vecs(H) = Tr(ZH).

    A stack Z of shape (..., p, p) gives one row per matrix, shape (..., p(p+1)/2).
    """
    Z = np.asarray(Z, dtype=float)
    require_symmetric(Z, "Z", tol=_SYM_RTOL * max(1.0, float(np.abs(Z).max() or 1.0)))
    rows, cols, weights, _ = _triangle(Z.shape[-1])
    # doubling is exact, so weighting the triangle equals weighting all of Z
    return Z[..., rows, cols] * weights


def _outer_vech(Z):
    """vech(z z') of each row z of Z, shape (N, p(p+1)/2), with the bits of
    vech(Z[:, :, None] * Z[:, None, :]) but without its symmetry pass: an
    outer product is symmetric by construction, and each triangle entry is
    the same product z_i z_j, weighted."""
    rows, cols, weights, _ = _triangle(Z.shape[-1])
    return (Z[:, rows] * Z[:, cols]) * weights


def mat_from_vecs(s):
    """Inverse of vecs: rebuild the symmetric matrix from its triangle stack.

    A stack s of shape (..., p(p+1)/2) gives one matrix per row, shape
    (..., p, p).  One gather of s + 0.0 gives the bits of scattering the
    triangle into zeros and adding its strict upper part transposed, whose
    every entry is a stack value plus +0.0: that turns -0.0 into +0.0 and
    keeps every other value.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    size = s.shape[-1]
    p = (math.isqrt(8 * size + 1) - 1) // 2
    if p * (p + 1) // 2 != size:
        raise ValueError(f"length {size} is not a triangular number")
    return (s + 0.0)[..., _triangle(p)[3]]


def q_value(H, z):
    """Quadratic form z'Hz."""
    z = np.asarray(z, dtype=float)
    H = np.asarray(H, dtype=float)
    if H.shape != (z.size, z.size):
        raise ValueError(f"H {H.shape} incompatible with z of length {z.size}")
    return float(z @ H @ z)


def h_from_values(sys, cost, vals):
    """Assemble (H1, H2) from (P1, P2).

    With L = [A1 B1 C1] and G = [A2 0 C2],

        H1 = blkdiag(-Q, -I, g^2 I) + L'P1 L + G'P1 G,
        H2 = blkdiag( Q,  I,   0  ) + L'P2 L + G'P2 G.
    """
    n, m1, m2 = sys.dims
    L = np.hstack([sys.A1, sys.B1, sys.C1])
    G = np.hstack([sys.A2, np.zeros((n, m1)), sys.C2])
    g2 = cost.gamma**2
    base1 = np.zeros((sys.p, sys.p))
    base2 = np.zeros((sys.p, sys.p))
    sx, su, sv = block_slices(n, m1, m2)
    base1[sx, sx] = -cost.Q
    base1[su, su] = -np.eye(m1)
    base1[sv, sv] = g2 * np.eye(m2)
    base2[sx, sx] = cost.Q
    base2[su, su] = np.eye(m1)
    H1 = base1 + L.T @ vals.P1 @ L + G.T @ vals.P1 @ G
    H2 = base2 + L.T @ vals.P2 @ L + G.T @ vals.P2 @ G
    return _trusted(QPair, symmetrize(np.array((H1, H2))), n, m1, m2)


def gains_from_q(q):
    """Extract (K1, K2) from (H1, H2) by the coupled block solve.

    Stationarity of z'H1z in v and of z'H2z in u gives

        [[H1vv, H1uv'], [H2uv, H2uu]] [K1; K2] = -[H1xv'; H2xu'].
    """
    n, m1, m2 = q.dims
    sx, su, sv = block_slices(n, m1, m2)
    blk = np.empty((m2 + m1, m2 + m1))
    blk[:m2, :m2] = q.H1[sv, sv]
    blk[:m2, m2:] = q.H1[su, sv].T
    blk[m2:, :m2] = q.H2[su, sv]
    blk[m2:, m2:] = q.H2[su, su]
    rhs = np.vstack([q.H1[sx, sv].T, q.H2[sx, su].T])
    try:
        KK = -np.linalg.solve(blk, rhs)
    except np.linalg.LinAlgError as exc:
        raise GainExtractionError(f"gain block is singular: {exc}") from exc
    if not np.isfinite(KK).all():
        raise GainExtractionError("gain block solve produced non-finite entries")
    return _trusted(GainPair, (KK[:m2], KK[m2:]))


def values_from_q(q, gains):
    """Collapse H back to P via the sandwich P = [I; K2; K1]' H [I; K2; K1].

    One stacked sandwich over (H1, H2): a stacked matmul runs the 2-D
    call's gemm on each member, so each P keeps its bits.
    """
    n = q.n
    T = np.vstack([np.eye(n), gains.K2, gains.K1])
    if T.shape[0] != q.p:
        raise ValueError(f"gains {gains.K1.shape}/{gains.K2.shape} do not match q")
    return _trusted(ValuePair, symmetrize(T.T @ np.array((q.H1, q.H2)) @ T))
