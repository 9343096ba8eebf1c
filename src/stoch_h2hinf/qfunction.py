"""Q-matrix algebra over the stacked vector z = [x; u; v].

Two half-vectorizations connect quadratic forms to regression rows:

    vecs(H) stacks the upper triangle of H row-major,
    vech(Z) does the same but doubles the off-diagonal entries,

so that vech(Z) . vecs(H) = Tr(Z H) exactly, and in particular
z'Hz = vech(zz') . vecs(H).  H1/H2 are built from value matrices by
h_from_values, and gains/values are read back out of H by gains_from_q
and values_from_q, wrappers over the raw-stack core (_h_stack, _gain_solve,
_sandwich) on which the coupled-Riccati solver sweeps too.  The learner's
loop runs the same core on the stacks it holds; its gain solve is
_q_gains, the body of gains_from_q, so it raises the same errors.
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


def _q_form(sys, cost):
    """A solve's constants: LG = (L, G), L = [A1 B1 C1], G = [A2 0 C2], and
    base = (blkdiag(-Q, -I, g^2 I), blkdiag(Q, I, 0)), stacks."""
    n, m1, m2 = sys.dims
    LG = np.stack([np.hstack([sys.A1, sys.B1, sys.C1]),
                   np.hstack([sys.A2, np.zeros((n, m1)), sys.C2])])
    base = np.zeros((2, sys.p, sys.p))
    sx, su, sv = block_slices(n, m1, m2)
    base[0, sx, sx] = -cost.Q
    base[0, su, su] = -np.eye(m1)
    base[0, sv, sv] = cost.gamma**2 * np.eye(m2)
    base[1, sx, sx] = cost.Q
    base[1, su, su] = np.eye(m1)
    return LG, base


def _h_stack(form, PP):
    """(H1, H2) = base + L'PP L + G'PP G from PP = (P1, P2), the four X'P X
    one (2, 2, p, p) stacked product with each item's 2-D bits."""
    LG, base = form
    X = LG[:, None]
    M = X.swapaxes(-1, -2) @ PP @ X
    return symmetrize(base + M[0] + M[1])


@functools.cache
def _gain_index(n, m1, m2):
    """Read-only positions, in a flattened stack (H1, H2), of the augmented
    gain system [[H1vv, H1uv', H1xv'], [H2uv, H2uu, H2xu']]: the entries
    the block assembly reads, one gather."""
    p = n + m1 + m2
    H1, H2 = np.arange(2 * p * p).reshape(2, p, p)
    sx, su, sv = block_slices(n, m1, m2)
    index = np.block([[H1[sv, sv], H1[su, sv].T, H1[sx, sv].T],
                      [H2[su, sv], H2[su, su], H2[sx, su].T]])
    index.flags.writeable = False
    return index


def _gain_solve(A):
    """[K1; K2] from the augmented gain system A = [blk | rhs] gathered at
    _gain_index.  Stationarity of z'H1z in v and of z'H2z in u gives

        [[H1vv, H1uv'], [H2uv, H2uu]] [K1; K2] = -[H1xv'; H2xu'].

    A singular block raises np.linalg.LinAlgError, for the caller to name.
    """
    m = len(A)
    return -np.linalg.solve(A[:, :m], A[:, m:])


def _sandwich(HH, T):
    """T'HH T symmetrized, one stacked product: with T = [I; K2; K1] the
    values of H under the gains."""
    return symmetrize(T.T @ HH @ T)


def h_from_values(sys, cost, vals):
    """Assemble (H1, H2) from (P1, P2).

    With L = [A1 B1 C1] and G = [A2 0 C2],

        H1 = blkdiag(-Q, -I, g^2 I) + L'P1 L + G'P1 G,
        H2 = blkdiag( Q,  I,   0  ) + L'P2 L + G'P2 G.
    """
    HH = _h_stack(_q_form(sys, cost), np.array((vals.P1, vals.P2)))
    return _trusted(QPair, HH, *sys.dims)


def _q_gains(HH, dims):
    """[K1; K2] from the stack HH = (H1, H2) with block partition dims by the
    coupled block solve (_gain_solve); a singular or non-finite solve raises
    GainExtractionError."""
    try:
        KK = _gain_solve(HH.take(_gain_index(*dims)))
    except np.linalg.LinAlgError as exc:
        raise GainExtractionError(f"gain block is singular: {exc}") from exc
    if not np.isfinite(KK).all():
        raise GainExtractionError("gain block solve produced non-finite entries")
    return KK


def gains_from_q(q):
    """Extract (K1, K2) from (H1, H2) by the coupled block solve (_q_gains)."""
    KK = _q_gains(np.array((q.H1, q.H2)), q.dims)
    return _trusted(GainPair, (KK[:q.m2], KK[q.m2:]))


def values_from_q(q, gains):
    """Collapse H back to P via the sandwich P = [I; K2; K1]' H [I; K2; K1]."""
    T = np.vstack([np.eye(q.n), gains.K2, gains.K1])
    if T.shape[0] != q.p:
        raise ValueError(f"gains {gains.K1.shape}/{gains.K2.shape} do not match q")
    return _trusted(ValuePair, _sandwich(np.array((q.H1, q.H2)), T))
