"""A fixed unit of work, independent of the package, that prices the host's current speed.

On a shared 2-vCPU VM the host's speed drifts by tens of percent over tens
of seconds: the same operation took 0.23 s in one minute and 0.45 s in the
next. Running this pass after each operation, for a fifth of the
operation's own time, samples the host's speed over the same stretches of
time as the operations. The median operation time over the median pass time
cancels most of the drift.

The pass mixes what the package spends its time on: 3x3 numpy products,
solves and eigenvalues, a validated frozen dataclass, and float formatting.
It calls nothing in the package, so a change to the package moves the ratio
and leaves the pass alone.
"""

import time
from dataclasses import dataclass

import numpy as np

ITERATIONS = 100
SHARE = 0.2
_M = np.array([[0.5, 0.1, 0.0], [0.05, 0.4, 0.1], [0.0, 0.2, 0.3]])


@dataclass(frozen=True)
class _Pair:
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if np.abs(self.a - self.a.T).max() > 1e-9:
            raise ValueError("asymmetric")


def calibration_pass():
    """One pass: a small value-iteration-like loop. Returns a checksum."""
    P = np.zeros((3, 3))
    eye = np.eye(3)
    b = np.ones((3, 1))
    chars = 0
    for _ in range(ITERATIONS):
        P = _M.T @ P @ _M + eye
        P = (P + P.T) / 2
        K = np.linalg.solve(P + eye, b)
        lo = float(np.linalg.eigvalsh(P).min())
        pair = _Pair(P, np.block([[P, K], [K.T, np.eye(1)]]))
        chars += len(",".join(f"{v:.12g}" for v in pair.b[0]) + f"{lo:.6g}")
    return chars


def time_passes(at_least):
    """Wall times of back-to-back passes over at least `at_least` seconds (one pass minimum)."""
    times = []
    t_end = time.perf_counter() + at_least
    while True:
        t0 = time.perf_counter()
        calibration_pass()
        times.append(time.perf_counter() - t0)
        if time.perf_counter() >= t_end:
            return times
