"""Seeded simulation of the multiplicative-noise plant.

Everything downstream of a seed is deterministic: the main noise stream is
keyed by (seed, stream tag), per-step branch draws by (seed, tag, step), and
per-run draws by (seed, tag, run), so results never depend on evaluation
order.  Branch draw j at step k is the j-th element of the (seed, k) stream,
which realizes the (run seed, step index, branch index) derivation rule.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .model import ConfigError, DivergenceError, require_symmetric

_TAG_MAIN = 0x51B1
_TAG_BRANCH = 0x51B2
_TAG_RUN = 0x51B3

DISTRIBUTIONS = ("gaussian", "rademacher")
_CSV_BLOCK = 4096  # trajectory rows formatted and written per write call


@dataclass
class NoiseSource:
    """Deterministic scalar white-noise stream, E(w)=0, E(w^2)=1.

    Single-owner mutable: draw() advances the stream position.  Branch and
    run draws use derived sub-seeds and leave the main stream untouched.
    """

    seed: int
    distribution: str = "gaussian"
    position: int = 0

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
        self._rng = np.random.default_rng(
            np.random.SeedSequence((int(self.seed), _TAG_MAIN))
        )
        if self.position:
            self._sample(self._rng, self.position)

    def _sample(self, rng, count):
        if self.distribution == "gaussian":
            return rng.standard_normal(count)
        return rng.integers(0, 2, size=count).astype(float) * 2.0 - 1.0

    def draw(self, count=1):
        """Next `count` draws of the main stream."""
        self.position += int(count)
        return self._sample(self._rng, int(count))

    def branch_draws(self, step, count):
        """Draws j=0..count-1 for branches at time `step`; pure in (seed, step)."""
        rng = np.random.default_rng(
            np.random.SeedSequence((int(self.seed), _TAG_BRANCH, int(step)))
        )
        return self._sample(rng, int(count))

    def run_draws(self, run, count):
        """Noise for an independent replicate `run`; pure in (seed, run)."""
        rng = np.random.default_rng(
            np.random.SeedSequence((int(self.seed), _TAG_RUN, int(run)))
        )
        return self._sample(rng, int(count))


def _drift_and_noise(sys, x, u, v):
    """(mu, s) = (A1 x + B1 u + C1 v, A2 x + C2 v); the successor is mu + omega s."""
    return sys.A1 @ x + sys.B1 @ u + sys.C1 @ v, sys.A2 @ x + sys.C2 @ v


def step(sys, x, u, v, omega):
    """One transition: A1 x + B1 u + C1 v + (A2 x + C2 v) omega."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if (x.size, u.size, v.size) != (sys.n, sys.m1, sys.m2):
        raise ValueError(
            f"input dims ({x.size},{u.size},{v.size}) do not match {sys.dims}"
        )
    mu, s = _drift_and_noise(sys, x, u, v)
    return mu + float(omega) * s


def stage_costs(cost, x, u, v):
    """(r1, r2) with r2 = x'Qx + u'u and r1 = g^2 v'v - r2."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if x.size != cost.Q.shape[0]:
        raise ValueError(f"x of length {x.size} does not match Q {cost.Q.shape}")
    r2 = float(x @ cost.Q @ x + u @ u)
    r1 = float(cost.gamma**2 * (v @ v) - r2)
    return r1, r2


def expected_next_quadratic(sys, P, x, u, v):
    """Exact E(x+' P x+) given (x, u, v): mu'P mu + s'P s."""
    P = np.asarray(P, dtype=float)
    require_symmetric(P, "P", tol=1e-9 * max(1.0, float(np.abs(P).max() or 1.0)))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    mu, s = _drift_and_noise(sys, x, u, v)
    return float(mu @ P @ mu + s @ P @ s)


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop record: one more state than inputs, costs per step."""

    states: np.ndarray
    inputs_u: np.ndarray
    inputs_v: np.ndarray
    noises: np.ndarray
    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self):
        T = self.noises.shape[0]
        if not (
            self.states.shape[0] == T + 1
            and self.inputs_u.shape[0] == T
            and self.inputs_v.shape[0] == T
            and self.r1.shape[0] == T
            and self.r2.shape[0] == T
        ):
            raise ValueError("trajectory arrays disagree on step count")

    @property
    def steps(self):
        return self.noises.shape[0]

    def to_csv(self, path):
        dims = (("x", self.states), ("u", self.inputs_u), ("v", self.inputs_v))
        header = ["k", *(f"{c}{i+1}" for c, a in dims for i in range(a.shape[1]))]
        header += ["omega", "r1", "r2"]
        # k is an exact float in the block; "%.12g" prints like f"{x:.12g}"
        row = "%d," + ",".join(["%.12g"] * (len(header) - 1)) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for a in range(0, self.steps, _CSV_BLOCK):
                b = min(a + _CSV_BLOCK, self.steps)
                block = np.column_stack((
                    np.arange(a, b), self.states[a:b], self.inputs_u[a:b],
                    self.inputs_v[a:b], self.noises[a:b], self.r1[a:b], self.r2[a:b],
                ))
                fh.write((row * (b - a)) % tuple(block.ravel().tolist()))
            # terminal state row, inputs blank
            tail = [str(self.steps)] + [f"{x:.12g}" for x in self.states[-1]]
            fh.write(",".join(tail + [""] * (len(header) - len(tail))) + "\n")


def _probe_arrays(probe, k0, steps, m1, m2):
    eu = np.zeros((steps, m1))
    ev = np.zeros((steps, m2))
    if probe is not None and getattr(probe, "active", True):
        for t in range(steps):
            e_u, e_v = probe.evaluate(k0 + t, m1, m2)
            eu[t] = e_u
            ev[t] = e_v
    return eu, ev


def simulate_closed_loop(sys, cost, gains, x0, steps, noise, probe=None, k0=0):
    """Run u = K2 x + e_u, v = K1 x + e_v for `steps` transitions.

    The probe object only needs an evaluate(k, m1, m2) method and an
    `active` flag; pass None for the plain closed loop.  Raises
    DivergenceError when a state leaves the guard region.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    omegas = noise.draw(steps)
    eu, ev = _probe_arrays(probe, k0, steps, sys.m1, sys.m2)
    xs, us, vs, bad = _kernels.closed_loop_path(
        sys.A1, sys.B1, sys.C1, sys.A2, sys.C2,
        gains.K1, gains.K2, x0, omegas, eu, ev,
    )
    if bad >= 0:
        raise DivergenceError(bad)
    xQx = np.einsum("ij,jk,ik->i", xs[:-1], cost.Q, xs[:-1])
    uu = np.einsum("ij,ij->i", us, us)
    vv = np.einsum("ij,ij->i", vs, vs)
    r2 = xQx + uu
    r1 = cost.gamma**2 * vv - r2
    return Trajectory(xs, us, vs, omegas, r1, r2)


def empirical_attenuation(sys, cost, K2, disturbance, horizon, runs, seed):
    """Energy ratio (sum x'Qx + u'u) / (sum v'v) under an exogenous v.

    x0 = 0 is enforced; the numerator is averaged over `runs` seeded noise
    realizations.  The caller compares the result against gamma^2.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    K2 = np.asarray(K2, dtype=float)
    disturbance = np.asarray(disturbance, dtype=float)
    if disturbance.ndim == 1:
        disturbance = disturbance.reshape(-1, 1)
    if disturbance.shape != (horizon, sys.m2):
        raise ValueError(
            f"disturbance must be {horizon}x{sys.m2}, got {disturbance.shape}"
        )
    denom = float(np.einsum("ij,ij->", disturbance, disturbance))
    if denom == 0.0:
        raise ValueError("zero disturbance energy")
    noise = NoiseSource(seed)
    W = np.array([noise.run_draws(r, horizon) for r in range(runs)]).reshape(runs, horizon)
    W = W.T[:, :, None]
    CV1, CV2 = disturbance @ sys.C1.T, disturbance @ sys.C2.T
    # all replicates at once; one that leaves the guard counts its states up
    # to the offending one and its inputs before it, then stays frozen at 0
    X = np.zeros((runs, sys.n))
    live = np.ones(runs, dtype=bool)
    energy = np.zeros(runs)
    with np.errstate(all="ignore"):
        for t in range(horizon):
            U = X @ K2.T
            energy += np.einsum("ij,jk,ik->i", X, cost.Q, X) + np.einsum("ij,ij->i", U, U)
            X = X @ sys.A1.T + U @ sys.B1.T + CV1[t] + W[t] * (X @ sys.A2.T + CV2[t])
            bad = live & ~(np.isfinite(X) & (np.abs(X) <= _kernels.GUARD)).all(axis=1)
            if bad.any() and t + 1 < horizon:
                energy[bad] += np.einsum("ij,jk,ik->i", X[bad], cost.Q, X[bad])
            live &= ~bad
            X[~live] = 0.0
    return float(energy.sum()) / runs / denom
