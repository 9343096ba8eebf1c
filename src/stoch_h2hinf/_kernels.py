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
(signed zeros included) for every finite w.  At a block end whose state
equals the one before, the loop runs that one exact test and, when it
passes, fills the rest of the path with that step's rows.
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
            if b < T and (xs[b] == xs[b - 1]).all():
                settled = _settled_step(A1, B1, C1, A2, C2, K1, K2, xs[b],
                                        omegas[b:], eu[b:], ev[b:])
                if settled is not None:
                    xs[b + 1:] = xs[b]
                    us[b:], vs[b:] = settled
                    break
    return xs, us, vs, bad
