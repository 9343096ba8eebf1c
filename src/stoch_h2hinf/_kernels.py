"""Sequential closed-loop trajectory kernel.

The per-step recursion u = K2 x + e_u, v = K1 x + e_v cannot be vectorized
over time, so it is one plain loop.  Empirical attenuation batches its
replicates in `sim` instead.

Noise is pre-drawn by the caller so the kernel stays deterministic and
RNG-free.  A `bad` return of -1 means the path stayed inside the divergence
guard; otherwise it is the index of the first offending state, and every
later state and every input from step `bad` on is zero.

The loop writes each step straight into the output rows and checks the
guard once per block of steps.  A block runs on past a trip, with the
overflow warnings that may bring silenced, and its later steps are then
zeroed, so the result equals a loop that checks every state and stops at
the first offending one, bit for bit.

A path that decays without additive noise can underflow into an exact fixed
point: with every later probe +0.0 and every later omega finite, a state x
whose step gives s = A2 x + C2 v = 0 in every entry and mu + s = mu - s = x,
bit for bit, repeats itself for the rest of the path, since w s is s or -s
(signed zeros included) for every finite w.  At a block start whose state
equals the one before (the caller's prev for x0), the loop runs that one
exact test and, when it passes, fills the rest of the path with that
step's rows; a path run in pieces is so tested where one pass is.

When both players have one column (B1, C1 of shape (n, 1), n >= 2, such as
F-16's) and A1, A2 and the gains are C-ordered, each step makes three BLAS
products and does the rest on Python floats, with the general loop's bits.
K2 x and K1 x are numpy's vector dot, an FMA chain, fma(k2, x2, fma(k1, x1,
k0 x0)) at n = 3, the same for a gain row as for the (1, n) gain.  [A1; A2] x
is one 2n x n gemv whose rows each round as those of A1 x and A2 x do,
fma(a2, x2, fma(a0, x0, a1 x1)) at n = 3; a stacked [K2; K1] would take
that gemv order instead of the dot's, which is why it moves bits and
[A1; A2] does not (a Fortran-ordered A runs yet another gemv).  Each column
product c f is an axpy into zeros: +0.0 for f = 0, else fma(c, f, +0.0),
which is c f except that an exact zero is +0.0 while an underflow keeps its
sign.  Those and the sums, in the loop's order ((A1 x + B1 u) + C1 v) +
w (A2 x + C2 v), are single IEEE operations that Python floats reproduce.
For n = 1 numpy's (1, 1) . (1,) product is the plain product, -0.0 kept,
and multi-column products are FMA gemvs, so both run the general loop.
tests/test_sim.py pins each of these numpy rules.
"""

import numpy as np

GUARD = 1e12
_BLOCK = 256  # steps between guard checks

# HAVE_NUMBA and active_backend are read only by perfbench's environment line
HAVE_NUMBA = False


def active_backend():
    return "numpy"


def _settled_step(A1, B1, C1, A2, C2, K1, K2, x, omegas, eu, ev):
    """(u, v) of the step from x when x is an exact fixed point of every step
    left (omegas, eu, ev are the rest of the path), else None."""
    # the step exactly as the loop writes it, under the next probe rows
    u = np.add(K2.dot(x), eu[0])
    v = np.add(K1.dot(x), ev[0])
    mu = A1.dot(x) + B1.dot(u) + C1.dot(v)
    s = A2.dot(x) + C2.dot(v)
    if s.any() or (mu + s).tobytes() != x.tobytes() or (mu - s).tobytes() != x.tobytes():
        return None
    # every probe left is +0.0, so each later step repeats this one, and a
    # finite w makes w s equal to s or -s
    for e in (eu, ev):
        if e.any() or np.signbit(e).any():
            return None
    if not np.isfinite(omegas).all():
        return None
    return u, v


def _steps(ops, xs, us, vs, omegas, eu, ev, a, b):
    """Steps a..b of the general loop, written into the output rows."""
    A1, B1, C1, A2, C2, K1, K2 = ops
    x = xs[a]
    for x_next, u, v, e_u, e_v, w in zip(xs[a + 1:b + 1], us[a:b], vs[a:b],
                                         eu[a:b], ev[a:b], omegas[a:b].tolist()):
        # .dot, not @: the same products at about half the dispatch
        # cost; one .dot per gain, as a stacked [K2; K1] gemv would
        # move the last bits
        np.add(K2.dot(x), e_u, out=u)
        np.add(K1.dot(x), e_v, out=v)
        mu = A1.dot(x) + B1.dot(u) + C1.dot(v)
        np.add(mu, w * (A2.dot(x) + C2.dot(v)), out=x_next)
        x = x_next


def _column(c):
    """(c_i, z_i) per entry of an (n, 1) column, n >= 2, such that
    c_i f + z_i has the bits of numpy's c.dot([f]) for every f != 0.  That
    product is an axpy into zeros, fma(c_i, f, +0.0), which is c_i f except
    that an exact zero (c_i = 0) is +0.0, while an underflow keeps its
    sign; adding -0.0 changes no value and adding +0.0 changes only -0.0.
    For f = 0 the axpy is skipped and every entry is +0.0, as 0.0 f + 0.0 is."""
    return [(p, -0.0 if p else 0.0) for p in c[:, 0].tolist()]


def _single_input_ops(A1, B1, C1, A2, C2, K1, K2):
    """The single-input loop's operands: [A1; A2], the gain rows, the
    (c_i, z_i) of B1, C1 and C2, and the (0.0, 0.0) rows that stand in for
    a column when its factor is zero."""
    b1, c1, c2 = _column(B1), _column(C1), _column(C2)
    return (np.concatenate((A1, A2)), K1[0], K2[0], A1.shape[0], b1, c1, c2,
            [(0.0, 0.0)] * len(b1))


def _single_input_steps(ops, xs, us, vs, omegas, eu, ev, a, b):
    """Steps a..b of the loop for one-column players: three BLAS products
    per step, the rest on Python floats, the general loop's bits."""
    AA, k1, k2, n, b1, c1, c2, off = ops
    x = xs[a]
    ul, vl = [], []
    for x_next, w, e_u, e_v in zip(xs[a + 1:b + 1], omegas[a:b].tolist(),
                                   eu[a:b, 0].tolist(), ev[a:b, 0].tolist()):
        u = float(k2.dot(x)) + e_u
        v = float(k1.dot(x)) + e_v
        ax = AA.dot(x).tolist()  # A1 x, then A2 x
        # ((A1 x + B1 u) + C1 v) + w (A2 x + C2 v), entry by entry
        x_next[:] = [((m + (p * u + zp)) + (q * v + zq)) + w * (s + (r * v + zr))
                     for (p, zp), (q, zq), (r, zr), m, s in zip(
                         b1 if u else off, c1 if v else off, c2 if v else off, ax, ax[n:])]
        ul.append(u)
        vl.append(v)
        x = x_next
    us[a:b, 0] = ul
    vs[a:b, 0] = vl


def closed_loop_path(A1, B1, C1, A2, C2, K1, K2, x0, omegas, eu, ev, prev=None):
    """(xs, us, vs, bad) of the len(omegas) steps from x0; prev is the
    state before x0 when the path continues an earlier call's."""
    T = omegas.shape[0]
    xs = np.zeros((T + 1, A1.shape[0]))
    us = np.zeros((T, B1.shape[1]))
    vs = np.zeros((T, C1.shape[1]))
    xs[0] = x0
    bad = -1
    ops, steps = (A1, B1, C1, A2, C2, K1, K2), _steps
    if (A1.shape[0] > 1 and B1.shape[1] == C1.shape[1] == 1
            and all(m.flags.c_contiguous for m in (A1, A2, K1, K2))):
        ops, steps = _single_input_ops(*ops), _single_input_steps
    with np.errstate(all="ignore"):
        for a in range(0, T, _BLOCK):
            before = xs[a - 1] if a else prev
            if before is not None and (xs[a] == before).all():
                settled = _settled_step(A1, B1, C1, A2, C2, K1, K2, xs[a],
                                        omegas[a:], eu[a:], ev[a:])
                if settled is not None:
                    xs[a + 1:] = xs[a]
                    us[a:], vs[a:] = settled
                    break
            b = min(a + _BLOCK, T)
            steps(ops, xs, us, vs, omegas, eu, ev, a, b)
            # NaN compares false, so it trips the guard like an infinity does
            ok = (np.abs(xs[a + 1:b + 1]) <= GUARD).all(axis=1)
            if not ok.all():
                bad = a + 1 + int(np.argmin(ok))
                xs[bad + 1:] = 0.0
                us[bad:] = 0.0
                vs[bad:] = 0.0
                break
    return xs, us, vs, bad
