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
"""

import numpy as np

GUARD = 1e12
_BLOCK = 256  # steps between guard checks

# HAVE_NUMBA and active_backend are read only by perfbench's environment line
HAVE_NUMBA = False


def active_backend():
    return "numpy"


def closed_loop_path(A1, B1, C1, A2, C2, K1, K2, x0, omegas, eu, ev):
    T = omegas.shape[0]
    xs = np.zeros((T + 1, A1.shape[0]))
    us = np.zeros((T, B1.shape[1]))
    vs = np.zeros((T, C1.shape[1]))
    xs[0] = x0
    x = xs[0]
    bad = -1
    with np.errstate(all="ignore"):
        for a in range(0, T, _BLOCK):
            b = min(a + _BLOCK, T)
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
            # NaN compares false, so it trips the guard like an infinity does
            ok = (np.abs(xs[a + 1:b + 1]) <= GUARD).all(axis=1)
            if not ok.all():
                bad = a + 1 + int(np.argmin(ok))
                xs[bad + 1:] = 0.0
                us[bad:] = 0.0
                vs[bad:] = 0.0
                break
    return xs, us, vs, bad
