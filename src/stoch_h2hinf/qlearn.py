"""Model-free Q-learning for the mixed H2/Hinf game, plus its VI mirror.

Each iteration drives the plant with probed inputs u = K2 x + e_u,
v = K1 x + e_v, collects N tuples, and solves a least-squares problem for
the next (H1, H2): the row for a tuple is vech(zz') with z = [x; u; v], the
target is the stage cost plus the averaged continuation value of the
UNPROBED policy at the successor state.  One oracle call per iteration,
TrajectoryOracle.rollout, returns the window's N rows z and targets; the
regression rows of all N tuples come from one stacked vech call, and one SVD
of the (N, p(p+1)/2) regression matrix gives the excitation check and both
solutions.  Gains come out of H by a block solve, and the run stops on the
three-part rule (both H changes below eps plus a Lyapunov-flavored
admissibility margin at a designated probe state).

The engine touches the plant only through a TrajectoryOracle (state,
apply, branch, rollout and the optional expected_quadratic), never through
system matrices.  The learner asks ProbingSchedule.window for each
window's probes at once.  rollout's base default reads the state, forms the
targets and applies the inputs tuple by tuple; SystemOracle overrides it
with one noise draw and one trajectory-kernel pass per window, and forms
the window's drifts, stage costs and continuation values as stacked
products over all N rows, still bit-identical to the default.  Model
knowledge lives on the simulator side of that interface and in the VI
mirror, which runs gare's value-iteration loop.
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
    NOISE_CASES,
    QPair,
    ValuePair,
)
from .gare import _value_iteration
from .qfunction import (
    block_slices,
    gains_from_q,
    h_from_values,
    mat_from_vecs,
    q_value,
    values_from_q,
    vech,
)
from ._kernels import GUARD, closed_loop_path
from .sim import _drift_and_noise, stage_costs, step


@dataclass(frozen=True)
class ProbingSchedule:
    """Persistent-excitation schedule: one of the three probing cases.

    Each case sums sinusoids and squared sinusoids of k; case3 is case1 +
    case2.  None of them has a constant or white-noise part, whose sample
    mean would act as a constant regression column and break excitation.
    """

    case: str

    def __post_init__(self):
        if self.case not in NOISE_CASES:
            raise ValueError(f"unknown probing case {self.case!r}")

    def _terms(self, t):
        # float_power squares with C pow, as np.float64 ** 2 does; an array's
        # ** 2 is c * c, which differs from it in the last bit
        if self.case == "case1":
            return (
                np.sin(1.009 * t) + np.float_power(np.cos(0.538 * t), 2.0),
                np.sin(9.7 * t) + np.float_power(np.cos(10.2 * t), 2.0),
            )
        if self.case == "case2":
            return (
                np.sin(0.9 * t) + np.cos(100.0 * t),
                np.sin(10.0 * t) + np.cos(10.0 * t),
            )
        u1, v1 = ProbingSchedule("case1")._terms(t)
        u2, v2 = ProbingSchedule("case2")._terms(t)
        return u1 + u2, v1 + v2

    def window(self, k, N, m1=1, m2=1):
        """Probe rows of steps k..k+N-1 as (EU (N, m1), EV (N, m2)).

        Row t is the probe at time k + t; component i is phase-shifted by its
        index, so it reads the schedule at time k + t + i.
        """
        t = k + np.add.outer(np.arange(N), np.arange(max(m1, m2)))
        eu, ev = self._terms(t)
        return eu[:, :m1], ev[:, :m2]


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

    def expected_quadratic(self, vals, u, v):
        """Exact (E(x+' P1 x+), E(x+' P2 x+)) for the value pair vals given the
        current state; testing-only privilege."""
        raise NotImplementedError("this oracle cannot take exact expectations")

    def rollout(self, gains, probes, cost, cont, branches, mode):
        """Advance N steps under u = K2 x + e_u, v = K1 x + e_v.

        probes is the window's (EU (N, m1), EV (N, m2)) pair, one row per
        step.  Returns the (N, p) rows z = [x; u; v] and the (N, 2) Bellman
        targets of each step, in order.  This default asks the oracle tuple
        by tuple through state, bellman_targets and apply; an oracle that can
        step a whole window at once may override it with the same values.
        """
        EU, EV = probes
        N = len(EU)
        Z = np.empty((N, gains.K1.shape[1] + EU.shape[1] + EV.shape[1]))
        Y = np.empty((N, 2))
        for t, e in enumerate(zip(EU, EV)):
            x = self.state
            u, v = probed_inputs(gains, x, e)
            Y[t] = bellman_targets(self, cost, cont, x, u, v, branches, mode)
            Z[t] = np.concatenate([x, u, v])
            self.apply(u, v)
        return Z, Y


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

    def _check(self, x, where):
        # NaN compares false, so it trips the guard like an infinity does
        if not (np.abs(x) <= GUARD).all():
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

    def expected_quadratic(self, vals, u, v):
        # mu'P mu + s'P s for each member; one (mu, s) serves both, and the
        # members of a validated ValuePair need no symmetry check per call
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        mu, s = _drift_and_noise(self._sys, self._x, u, v)
        return tuple(float(mu.dot(P).dot(mu) + s.dot(P).dot(s))
                     for P in (vals.P1, vals.P2))

    def reset(self, x):
        self._x = np.atleast_1d(np.asarray(x, dtype=float)).copy()

    def rollout(self, gains, probes, cost, cont, branches, mode):
        # One draw(N) gives the values of N draw(1) calls, and the kernel's
        # states equal step()'s bit for bit.  The targets are stacked
        # products that run, row by row, the BLAS call of the per-tuple .dot
        # (gemv for A x and x'P, ddot for inner products), and the branch
        # means share _branch_mean with bellman_targets, so the window equals
        # the default's tuple-by-tuple result exactly.  X @ Q (a gemm) or
        # einsum row sums would move the last bits.
        if mode not in ("analytic", "mc"):
            raise ValueError(f"mode must be analytic or mc, got {mode!r}")
        sys_, k = self._sys, self._k
        EU, EV = probes
        N = len(EU)
        xs, us, vs, bad = closed_loop_path(
            sys_.A1, sys_.B1, sys_.C1, sys_.A2, sys_.C2,
            gains.K1, gains.K2, self._x, self._noise.draw(N), EU, EV,
        )
        rows = N if bad < 0 else bad
        X, U, V = xs[:rows], us[:rows], vs[:rows]
        MU = _rows_times(sys_.A1, X) + _rows_times(sys_.B1, U) + _rows_times(sys_.C1, V)
        S = _rows_times(sys_.A2, X) + _rows_times(sys_.C2, V)
        if mode == "mc":
            W = self._noise.branch_window(k, rows, branches)
            # successor coordinates first: (n, rows, branches)
            succ = MU.T[:, :, None] + W * S.T[:, :, None]
            # rows before a state-guard trip still count, so a branch guard
            # tripping on an earlier row raises first, as it does step by step
            ok = (np.abs(succ) <= GUARD).all(axis=(0, 2))
            if not ok.all():
                raise DivergenceError(k + int(np.argmin(ok)))
        if bad >= 0:
            self._x, self._k = xs[bad - 1].copy(), k + bad
            raise DivergenceError(k + bad)
        if mode == "analytic":
            c1 = _quad_rows(MU, cont.P1) + _quad_rows(S, cont.P1)
            c2 = _quad_rows(MU, cont.P2) + _quad_rows(S, cont.P2)
        else:
            c1, c2 = _branch_mean(succ, cont.P1), _branch_mean(succ, cont.P2)
        r2 = _quad_rows(X, cost.Q) + _dot_rows(U, U)
        r1 = cost.gamma**2 * _dot_rows(V, V) - r2
        self._x, self._k = xs[N].copy(), k + N
        return np.hstack([xs[:-1], us, vs]), np.column_stack([r1 + c1, r2 + c2])


def _rows_times(A, X):
    """A x for each row x of X: one gemv per row, as A.dot(x)."""
    return np.matmul(A, X[:, :, None])[:, :, 0]


def _dot_rows(X, Y):
    """x'y for each row pair: one ddot per row, as x.dot(y)."""
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


def _quad_rows(X, P):
    """x'P x for each row x of X, with the products of x.dot(P).dot(x)."""
    return _dot_rows(np.matmul(X[:, None, :], P)[:, 0, :], X)


def _branch_mean(succ, P):
    """Mean of x'P x over the last axis of succ, successor coordinates first.

    succ is (n, ..., branches).  The terms (x_j P_jk) x_k are summed from
    zero in one fixed j-major order, which is the order
    einsum("ij,jk,ik->i") takes on the F-16 runs' shapes, so their targets
    keep their bits.  einsum picks its order by array shape (a 2-state plant
    with one or two branches sums in another), so one einsum over a window
    would not match a single tuple's.
    """
    n = succ.shape[0]
    acc = np.zeros(succ.shape[1:])
    for j in range(n):
        for k in range(n):
            acc += (succ[j] * P[j, k]) * succ[k]
    return acc.mean(axis=-1)


def least_squares_h(X, Y1, Y2, dims):
    """Solve both regressions with one SVD of X; returns (q, svmin).

    q is the QPair (H1, H2) and svmin X's smallest singular value.  Raises ValueError when X has
    fewer rows than unknowns, and ExcitationError when X is numerically rank
    deficient, which is what absent or constant probing produces.
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
        c1, c2 = oracle.expected_quadratic(cont, u, v)
    elif mode == "mc":
        succ = oracle.branch(u, v, branches)
        if not np.isfinite(succ).all():
            raise DivergenceError(None, "non-finite branched successor")
        c1 = float(_branch_mean(succ.T, cont.P1))
        c2 = float(_branch_mean(succ.T, cont.P2))
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


def run_q_learning(oracle, cost, config, initial_gains, x0):
    """Algorithm-style learning loop against a black-box oracle.

    Runs until the stop rule fires or the iteration budget is exhausted,
    which is reported rather than raised, and returns the learned pair.  It
    runs no closing trajectory: the paper's final unprobed run under the
    learned gains is the caller's, e.g. the qlearn command's trajectory.csv
    from simulate_closed_loop.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.size
    m1, m2 = initial_gains.K2.shape[0], initial_gains.K1.shape[0]
    p = n + m1 + m2
    config.validate_for(p)
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
        probes = schedule.window(k, N, m1, m2)
        Z, Y = oracle.rollout(gains, probes, cost, vals, config.branches,
                              config.expectation_mode)
        k += N
        X = vech(Z[:, :, None] * Z[:, None, :])
        try:
            q_next, svmin = least_squares_h(X, Y[:, 0], Y[:, 1], (n, m1, m2))
        except ExcitationError as exc:
            # a rank loss late in a run follows a destabilized loop: say
            # where, how far the window's state had grown and how small the
            # probes had become beside it
            first, last = np.linalg.norm(Z[[0, -1], :n], axis=1)
            cols = np.linalg.norm(X, axis=0)
            e_max = max(float(np.abs(e).max()) for e in probes)
            x_max = float(np.abs(Z[:, :n]).max())
            ratio = e_max / x_max if x_max > 0.0 else float("inf")
            raise ExcitationError(
                f"{exc} at iteration {i + 1}, window |x| {first:.3e} -> {last:.3e}, "
                f"X column norms {cols.max():.3e}..{cols.min():.3e}, "
                f"probe-to-state ratio {ratio:.3e}"
            ) from exc
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
    return QLearnReport(q, tuple(history), reason)


def run_value_iteration(sys, cost, config):
    """Model-based mirror of the learning loop, aligned iterate for iterate.

    Consumes the solver's value-iteration loop, stop and divergence rules
    included, and records per iteration H(i) = h_from_values(P(i-1)), exactly
    what an unbiased estimator would produce, so reports from the two routes
    are directly comparable.  A ConvergenceError from the loop carries the
    report up to the last finite iterate.
    """
    vals = ValuePair.zeros(sys.n)
    q = QPair.zeros(sys.n, sys.m1, sys.m2)
    history = []
    sweeps = _value_iteration(sys, cost, config.tol, config.max_iters)
    try:
        for K1, K2, P1, P2, (dp1, dp2), stop in sweeps:
            # H(P(i-1)) is built only once sweep i came back finite
            q_next = h_from_values(sys, cost, vals)
            # dH's squared norm overflows long before a diverging iterate does
            with np.errstate(over="ignore"):
                dh1 = float(np.linalg.norm(q_next.H1 - q.H1))
                dh2 = float(np.linalg.norm(q_next.H2 - q.H2))
            q, vals = q_next, ValuePair(P1, P2)
            history.append(Iterate(dh1, dh2, GainPair(K1, K2), vals, stop))
    except ConvergenceError as err:
        err.report = QLearnReport(q, tuple(history), str(err))
        raise
    reason = (f"stopped at iteration {len(history)}: value changes "
              f"({dp1:.3e}, {dp2:.3e}) below {config.tol:g}")
    return QLearnReport(q, tuple(history), reason)
