"""Sequential closed-loop trajectory kernel.

The per-step recursion u = K2 x + e_u, v = K1 x + e_v cannot be vectorized
over time, so it is one plain loop.  Empirical attenuation batches its
replicates in `sim` instead.

Noise is pre-drawn by the caller so the kernel stays deterministic and
RNG-free.  A `bad` return of -1 means the path stayed inside the divergence
guard; otherwise it is the index of the first offending state.
"""

import math

import numpy as np

GUARD = 1e12

# HAVE_NUMBA and active_backend are read only by perfbench's environment line
HAVE_NUMBA = False


def active_backend():
    return "numpy"


def closed_loop_path(A1, B1, C1, A2, C2, K1, K2, x0, omegas, eu, ev):
    T = omegas.shape[0]
    n = A1.shape[0]
    xs = np.zeros((T + 1, n))
    us = np.zeros((T, B1.shape[1]))
    vs = np.zeros((T, C1.shape[1]))
    xs[0] = x0
    x = x0.copy()
    bad = -1
    for t in range(T):
        # .dot, not @: the same products at about half the dispatch cost
        u = K2.dot(x) + eu[t]
        v = K1.dot(x) + ev[t]
        mu = A1.dot(x) + B1.dot(u) + C1.dot(v)
        s = A2.dot(x) + C2.dot(v)
        x = mu + omegas[t] * s
        us[t] = u
        vs[t] = v
        xs[t + 1] = x
        ok = True
        for j in range(n):
            if not math.isfinite(x[j]) or abs(x[j]) > GUARD:
                ok = False
        if not ok:
            bad = t + 1
            break
    return xs, us, vs, bad
