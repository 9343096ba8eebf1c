"""Sequential trajectory kernel, jitted when numba is present.

The per-step state recursion cannot be vectorized over time, so this loop
is the only compute-bound path in the package.  It has a single source of
truth: the plain-Python body below, optionally compiled by numba.  The
closed loop u = K2 x + e_u, v = K1 x + e_v runs it directly; the forced
path of an exogenous disturbance is the same loop with K1 = 0, e_u = 0 and
e_v = the disturbance.  Backend selection honors the STOCH_H2HINF_BACKEND
env var (auto, numba, numpy); auto means numba when importable.

Noise is pre-drawn by the caller so the kernel stays deterministic and
RNG-free.  A `bad` return of -1 means the path stayed inside the divergence
guard; otherwise it is the index of the first offending state.
"""

import math
import os

import numpy as np

from .model import ConfigError

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only when numba is missing
    numba = None
    HAVE_NUMBA = False

GUARD = 1e12


def _closed_loop_path(A1, B1, C1, A2, C2, K1, K2, x0, omegas, eu, ev):
    T = omegas.shape[0]
    n = A1.shape[0]
    xs = np.zeros((T + 1, n))
    us = np.zeros((T, B1.shape[1]))
    vs = np.zeros((T, C1.shape[1]))
    xs[0] = x0
    x = x0.copy()
    bad = -1
    for t in range(T):
        u = K2 @ x + eu[t]
        v = K1 @ x + ev[t]
        mu = A1 @ x + B1 @ u + C1 @ v
        s = A2 @ x + C2 @ v
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


if HAVE_NUMBA:
    _closed_loop_path_nb = numba.njit(cache=True)(_closed_loop_path)


def active_backend():
    """Resolve the kernel backend from env and availability."""
    choice = os.environ.get("STOCH_H2HINF_BACKEND", "auto").strip().lower()
    if choice not in ("auto", "numba", "numpy"):
        raise ConfigError(f"STOCH_H2HINF_BACKEND must be auto|numba|numpy, got {choice!r}")
    if choice == "numba":
        if not HAVE_NUMBA:
            raise ConfigError("STOCH_H2HINF_BACKEND=numba but numba is not installed")
        return "numba"
    if choice == "numpy":
        return "numpy"
    return "numba" if HAVE_NUMBA else "numpy"


def closed_loop_path(A1, B1, C1, A2, C2, K1, K2, x0, omegas, eu, ev):
    if active_backend() == "numba":
        return _closed_loop_path_nb(A1, B1, C1, A2, C2, K1, K2, x0, omegas, eu, ev)
    return _closed_loop_path(A1, B1, C1, A2, C2, K1, K2, x0, omegas, eu, ev)


def forced_path(A1, B1, C1, A2, C2, K2, x0, vseq, omegas):
    """u = K2 x against the exogenous v = vseq[t]: the closed loop with K1 = 0."""
    K1 = np.zeros((C1.shape[1], A1.shape[0]))
    eu = np.zeros((omegas.shape[0], B1.shape[1]))
    xs, us, _, bad = closed_loop_path(A1, B1, C1, A2, C2, K1, K2, x0, omegas, eu, vseq)
    return xs, us, bad
