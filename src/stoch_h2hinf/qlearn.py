"""Model-free Q-learning for the mixed H2/Hinf game, plus its VI mirror.

Each iteration drives the plant with probed inputs u = K2 x + e_u,
v = K1 x + e_v, collects N tuples, and solves a least-squares problem for
the next (H1, H2): the row for a tuple is vech(zz') with z = [x; u; v], the
target is the stage cost plus the averaged continuation value of the
UNPROBED policy at the successor state.  The per-tuple loop only reads the
state, queries the continuation value and applies the inputs; the rows of
all N tuples come from one stacked vech call, and one SVD of the (N, p(p+1)/2)
regression matrix gives the excitation check and both solutions.  Gains
come out of H by a block solve, and the run stops on the three-part rule
(both H changes below eps plus a Lyapunov-flavored admissibility margin at
a designated probe state).

The engine touches the plant only through a TrajectoryOracle, never through
system matrices; model knowledge lives on the simulator side of that
interface.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import (
    AttenuationInfeasibleError,
    ConvergenceError,
    DivergenceError,
    ExcitationError,
    GainPair,
    QPair,
    ValuePair,
)
from .gare import gains_from_values, vi_value_update
from .qfunction import (
    block_slices,
    gains_from_q,
    h_from_values,
    mat_from_vecs,
    q_value,
    values_from_q,
    vech,
)
from ._kernels import GUARD
from .sim import _drift_and_noise, stage_costs, step

_FUNCS = ("sin", "cos", "sin2", "cos2")


@dataclass(frozen=True)
class ProbingSchedule:
    """Persistent-excitation schedule: sums of (squared) sinusoids of k.

    Constants and white noise are rejected at construction; their sample
    mean would act as a constant regression column and break excitation.
    Custom terms are (channel, func, freq, amplitude) with channel in
    {"u", "v"} and func in {"sin", "cos", "sin2", "cos2"}.
    """

    case: str
    active: bool = True
    terms: tuple = ()

    def __post_init__(self):
        if self.case not in ("case1", "case2", "case3", "custom"):
            raise ValueError(f"unknown probing case {self.case!r}")
        if self.case == "custom":
            if not self.terms:
                raise ValueError("custom schedule needs at least one term")
            for term in self.terms:
                channel, func, freq, amp = term
                if channel not in ("u", "v"):
                    raise ValueError(f"term channel must be u or v, got {channel!r}")
                if func not in _FUNCS:
                    raise ValueError(f"term function must be one of {_FUNCS}")
                if not np.isfinite(freq) or freq == 0.0:
                    raise ValueError("term frequency must be finite and nonzero")
                if not np.isfinite(amp):
                    raise ValueError("term amplitude must be finite")
        elif self.terms:
            raise ValueError("terms are only allowed with case='custom'")
        object.__setattr__(self, "terms", tuple(self.terms))

    def _scalars(self, t):
        if self.case == "case1":
            return (
                np.sin(1.009 * t) + np.cos(0.538 * t) ** 2,
                np.sin(9.7 * t) + np.cos(10.2 * t) ** 2,
            )
        if self.case == "case2":
            return (
                np.sin(0.9 * t) + np.cos(100.0 * t),
                np.sin(10.0 * t) + np.cos(10.0 * t),
            )
        if self.case == "case3":
            u1, v1 = ProbingSchedule("case1")._scalars(t)
            u2, v2 = ProbingSchedule("case2")._scalars(t)
            return u1 + u2, v1 + v2
        eu = ev = 0.0
        for channel, func, freq, amp in self.terms:
            w = freq * t
            val = {
                "sin": np.sin(w),
                "cos": np.cos(w),
                "sin2": np.sin(w) ** 2,
                "cos2": np.cos(w) ** 2,
            }[func] * amp
            if channel == "u":
                eu += val
            else:
                ev += val
        return eu, ev

    def evaluate(self, k, m1=1, m2=1):
        """Probe vectors at time k; components phase-shifted by their index."""
        if not self.active:
            return np.zeros(m1), np.zeros(m2)
        eu = np.array([self._scalars(k + i)[0] for i in range(m1)])
        ev = np.array([self._scalars(k + i)[1] for i in range(m2)])
        return eu, ev


def probing_noise(schedule, k, m1=1, m2=1):
    """(e_u, e_v) at time k; zeros when the schedule is absent or inactive."""
    if schedule is None:
        return np.zeros(m1), np.zeros(m2)
    return schedule.evaluate(k, m1, m2)


class TrajectoryOracle(ABC):
    """Black-box plant interface; the learner sees states, never matrices."""

    @property
    @abstractmethod
    def state(self):
        """Current state vector."""

    @abstractmethod
    def apply(self, u, v):
        """Advance one step with the given inputs; returns the next state."""

    @abstractmethod
    def branch(self, u, v, count):
        """`count` independent one-step successors from the current state,
        without advancing."""

    @abstractmethod
    def reset(self, x):
        """Move the plant to state x."""

    def expected_quadratic(self, P, u, v):
        """Exact E(x+' P x+) given the current state; testing-only privilege."""
        raise NotImplementedError("this oracle cannot take exact expectations")


class SystemOracle(TrajectoryOracle):
    """Simulator-backed oracle with seeded, order-independent branch noise."""

    def __init__(self, sys, noise, x0):
        self._sys = sys
        self._noise = noise
        self._x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
        self._k = 0

    @property
    def state(self):
        return self._x.copy()

    @property
    def step_index(self):
        return self._k

    def _check(self, x, where):
        if not np.isfinite(x).all() or np.abs(x).max() > GUARD:
            raise DivergenceError(where)

    def apply(self, u, v):
        omega = self._noise.draw(1)[0]
        x = step(self._sys, self._x, u, v, omega)
        self._k += 1
        self._check(x, self._k)
        self._x = x
        return x.copy()

    def branch(self, u, v, count):
        omegas = self._noise.branch_draws(self._k, count)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        mu, s = _drift_and_noise(self._sys, self._x, u, v)
        out = mu[None, :] + omegas[:, None] * s[None, :]
        self._check(out, self._k)
        return out

    def expected_quadratic(self, P, u, v):
        # P is a member of a validated ValuePair: no symmetry check per call
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        mu, s = _drift_and_noise(self._sys, self._x, u, v)
        return float(mu @ P @ mu + s @ P @ s)

    def reset(self, x):
        self._x = np.atleast_1d(np.asarray(x, dtype=float)).copy()


def least_squares_h(X, Y1, Y2, dims):
    """Solve both regressions with one SVD of X; returns (q, svmin).

    q is the QPair (H1, H2) and svmin X's smallest singular value.  Raises ValueError when X has
    fewer rows than unknowns, and ExcitationError when X is numerically rank
    deficient, which is what inactive or constant probing produces.
    """
    n, m1, m2 = dims
    rows, unknowns = X.shape
    if rows < unknowns:
        raise ValueError(f"{rows} tuples cannot identify {unknowns} unknowns")
    U, sv, Vt = np.linalg.svd(X, full_matrices=False)
    if sv[-1] < 1e-10 * sv[0]:
        raise ExcitationError(
            f"insufficient excitation: singular values span {sv[0]:.3e}..{sv[-1]:.3e}"
        )
    W = Vt.T @ ((U.T @ np.column_stack([Y1, Y2])) / sv[:, None])
    q = QPair(mat_from_vecs(W[:, 0]), mat_from_vecs(W[:, 1]), n, m1, m2)
    return q, float(sv[-1])


def probed_inputs(gains, x, e):
    """(u, v) = (K2 x + e_u, K1 x + e_v)."""
    eu, ev = e
    return gains.K2 @ x + eu, gains.K1 @ x + ev


def write_matrix_txt(M, path):
    """Plain-text matrix export: one row per line, %.12e entries."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w") as fh:
        for row in M:
            fh.write(" ".join(f"{x:.12e}" for x in row) + "\n")


def bellman_targets(oracle, cost, cont, x, u, v, branches, mode):
    """One tuple's targets (d1, d2) at state x under the executed inputs (u, v).

    The executed inputs carry the probe; the continuation value inside the
    targets is E[x+' P x+] for the unprobed policy's value pair cont =
    (P1, P2) at the successor state.  Monte-Carlo mode averages x+' P x+
    over `branches` one-step successors; analytic mode asks the oracle for
    the exact conditional expectation.
    """
    r1, r2 = stage_costs(cost, x, u, v)
    if mode == "analytic":
        c1 = oracle.expected_quadratic(cont.P1, u, v)
        c2 = oracle.expected_quadratic(cont.P2, u, v)
    elif mode == "mc":
        succ = oracle.branch(u, v, branches)
        if not np.isfinite(succ).all():
            raise DivergenceError(None, "non-finite branched successor")
        c1 = float(np.einsum("ij,jk,ik->i", succ, cont.P1, succ).mean())
        c2 = float(np.einsum("ij,jk,ik->i", succ, cont.P2, succ).mean())
    else:
        raise ValueError(f"mode must be analytic or mc, got {mode!r}")
    return r1 + c1, r2 + c2


def termination(q_prev, q_next, gains_prev, gains_next, x_probe, cost, tol):
    """Three-part stop rule; returns (stop, reason).

    Conditions: both Frobenius H changes below tol, and at the designated
    probe state the new Q2 under the new policy has dropped by more than the
    new stage cost relative to the previous iterate's Q2 value.  It must be
    the previous Q2: subtracting the previous Q1 leaves a gap of about
    x'(P2 - P1)x, far above the stage cost, so that reading never fires at
    the fixed point.
    """
    dh1 = float(np.linalg.norm(q_next.H1 - q_prev.H1))
    dh2 = float(np.linalg.norm(q_next.H2 - q_prev.H2))
    if dh1 >= tol or dh2 >= tol:
        return False, None
    x = np.atleast_1d(np.asarray(x_probe, dtype=float))
    u_next = gains_next.K2 @ x
    v_next = gains_next.K1 @ x
    z_next = np.concatenate([x, u_next, v_next])
    z_prev = np.concatenate([x, gains_prev.K2 @ x, gains_prev.K1 @ x])
    lead = q_value(q_next.H2, z_next)
    sub = q_value(q_prev.H2, z_prev)
    r2 = stage_costs(cost, x, u_next, v_next)[1]
    if lead - sub < r2:
        return True, (
            f"H changes ({dh1:.3e}, {dh2:.3e}) below {tol:g} "
            f"with admissibility margin {r2 - (lead - sub):.3e}"
        )
    return False, None


class Iterate(NamedTuple):
    """One iteration's record: H changes, the extracted pair, the stop flag.

    svmin is the smallest singular value of the regression matrix; None for
    the VI mirror, which runs no regression.
    """

    dH1: float
    dH2: float
    gains: GainPair
    values: ValuePair
    stop: bool
    svmin: Optional[float] = None


@dataclass(frozen=True)
class QLearnReport:
    """Learning-run record; shaped identically for the VI mirror.

    history holds one Iterate per iteration; the final gains and values and
    the iteration count are read from it.
    """

    q: QPair
    history: tuple
    termination: str
    seed: Optional[int]
    final_trajectory: Optional[np.ndarray]

    @property
    def gains(self):
        return self.history[-1].gains

    @property
    def values(self):
        return self.history[-1].values

    @property
    def iterations(self):
        return len(self.history)

    def to_csv(self, path, reference=None):
        """Per-iteration CSV; with reference = (values, gains) the err columns
        hold each iterate's Frobenius distance to it, else they are blank."""
        if reference is not None:
            rvals, rgains = reference
            ref = (rgains.K1, rgains.K2, rvals.P1, rvals.P2)
        lines = ["iter,dH1_fro,dH2_fro,errK1,errK2,errP1,errP2,term_flag"]
        for i, it in enumerate(self.history, start=1):
            errs = [""] * 4 if reference is None else [
                f"{np.linalg.norm(a - b):.12g}" for a, b in
                zip((it.gains.K1, it.gains.K2, it.values.P1, it.values.P2), ref)
            ]
            cells = [str(i), f"{it.dH1:.12g}", f"{it.dH2:.12g}", *errs, str(int(it.stop))]
            lines.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def run_q_learning(oracle, cost, config, initial_gains, x0, schedule=None):
    """Algorithm-style learning loop against a black-box oracle.

    On stop (or on an exhausted iteration budget, which is reported rather
    than raised) probing is deactivated and a final unprobed closed-loop
    trajectory of 100 steps is recorded through the oracle.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.size
    m1, m2 = initial_gains.K2.shape[0], initial_gains.K1.shape[0]
    p = n + m1 + m2
    config.validate_for(p)
    if schedule is None:
        if config.noise_case == "custom":
            raise ValueError("custom probing requires an explicit schedule")
        schedule = ProbingSchedule(config.noise_case)

    q = QPair.zeros(n, m1, m2)
    gains = initial_gains
    vals = ValuePair.zeros(n)
    oracle.reset(x0)
    k = 0
    history = []
    reason = None
    sx, su, sv = block_slices(n, m1, m2)

    N = config.tuples_per_iter
    for i in range(config.max_iters):
        Z = np.empty((N, p))
        Y = np.empty((N, 2))
        for t in range(N):
            x = oracle.state
            u, v = probed_inputs(gains, x, probing_noise(schedule, k, m1, m2))
            Y[t] = bellman_targets(
                oracle, cost, vals, x, u, v, config.branches,
                config.expectation_mode,
            )
            Z[t] = np.concatenate([x, u, v])
            oracle.apply(u, v)
            k += 1
        X = vech(Z[:, :, None] * Z[:, None, :])
        q_next, svmin = least_squares_h(X, Y[:, 0], Y[:, 1], (n, m1, m2))
        if config.expectation_mode == "analytic":
            # exact estimates expose the Delta1 block of the stacked solve;
            # losing its definiteness means gamma is infeasible
            if float(np.linalg.eigvalsh(q_next.H1[sv, sv]).min()) <= 0.0:
                raise AttenuationInfeasibleError(
                    f"H1 vv-block lost definiteness at iteration {i + 1}"
                )
        gains_next = gains_from_q(q_next)
        vals_next = values_from_q(q_next, gains_next)
        dh1 = float(np.linalg.norm(q_next.H1 - q.H1))
        dh2 = float(np.linalg.norm(q_next.H2 - q.H2))
        stop, why = termination(q, q_next, gains, gains_next, x0, cost, config.tol)
        history.append(Iterate(dh1, dh2, gains_next, vals_next, stop, svmin))
        q, gains, vals = q_next, gains_next, vals_next
        if stop:
            reason = f"stopped at iteration {i + 1}: {why}"
            break
    if reason is None:
        reason = f"max_iters {config.max_iters} reached without stop"

    final_states = [oracle.state]
    try:
        for _ in range(100):
            x = oracle.state
            oracle.apply(gains.K2 @ x, gains.K1 @ x)
            final_states.append(oracle.state)
    except DivergenceError as exc:
        reason += f"; unprobed tail diverged at step {exc.step}"

    return QLearnReport(
        q, tuple(history), reason, getattr(config, "seed", None),
        np.vstack(final_states),
    )


def run_value_iteration(sys, cost, config):
    """Model-based mirror of the learning loop, aligned iterate for iterate.

    Iteration i records H(i+1) = h_from_values(P(i)) and the updated values,
    exactly what an unbiased estimator would produce, so reports from the
    two routes are directly comparable.  Stops when both value differences
    fall below tol; raises ConvergenceError (report attached) at max_iters.
    """
    vals = ValuePair.zeros(sys.n)
    q = QPair.zeros(sys.n, sys.m1, sys.m2)
    history = []
    reason = f"max_iters {config.max_iters} reached without stop"
    for i in range(config.max_iters):
        q_next = h_from_values(sys, cost, vals)
        gains_next = gains_from_values(sys, cost, vals)
        vals_next = vi_value_update(sys, cost, vals, gains_next)
        dh1 = float(np.linalg.norm(q_next.H1 - q.H1))
        dh2 = float(np.linalg.norm(q_next.H2 - q.H2))
        dp1 = float(np.linalg.norm(vals_next.P1 - vals.P1))
        dp2 = float(np.linalg.norm(vals_next.P2 - vals.P2))
        stop = dp1 < config.tol and dp2 < config.tol
        history.append(Iterate(dh1, dh2, gains_next, vals_next, stop))
        q, vals = q_next, vals_next
        if stop:
            reason = (
                f"stopped at iteration {i + 1}: value changes "
                f"({dp1:.3e}, {dp2:.3e}) below {config.tol:g}"
            )
            break
    report = QLearnReport(
        q, tuple(history), reason, getattr(config, "seed", None), None
    )
    if history[-1].stop:
        return report
    err = ConvergenceError(
        f"value iteration did not converge in {config.max_iters} iterations"
    )
    err.report = report
    raise err
