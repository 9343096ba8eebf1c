"""Model-free Q-learning for the mixed H2/Hinf game, plus its VI mirror.

Each iteration drives the plant with probed inputs u = K2 x + e_u,
v = K1 x + e_v, collects N tuples, and solves a least-squares problem for
the next (H1, H2): the row for a tuple is vech(zz') with z = [x; u; v], the
target is the stage cost plus the averaged continuation value of the
UNPROBED policy at the successor state.  One oracle call per iteration,
TrajectoryOracle.rollout, returns the window's N rows z and their (N, n, B)
successor samples, B branch draws in mc mode and the exact Rademacher pair
mu +- s in analytic mode.  The learner checks their shapes and forms the
targets itself (_targets): stage costs from z's x, u and v columns, and the
continuations <P, S S'> / B of its own value pair from one stacked matmul of
each row's second moment S S' and one (N, n^2)·(n^2, 2) product.  The
regression rows of all N tuples come from one stacked product of z's
upper-triangle entries, vech(zz') without vech's symmetry check (zz' is
symmetric by construction), and one SVD of the (N, p(p+1)/2) regression
matrix gives the excitation check and both solutions, rebuilt as one
(2, p, p) stack (H1, H2).  Gains come out of H by a block solve, the value
pair by one stacked sandwich, and the run stops on the three-part rule (both
H changes below eps plus a Lyapunov-flavored admissibility margin at a
designated probe state), which takes the H changes the loop has already
normed.

Containers are validated where they enter from outside: the caller's gains,
and the QPair, ValuePair and GainPair any public construction makes.  The
pairs the loop builds from its own arithmetic (symmetric by construction or
symmetrized, gains finite-checked by the block solve) go through
model._trusted, which marks them read-only and checks only the finiteness
no arithmetic guarantees, with the validated constructor's error.

The engine calls the two methods of a TrajectoryOracle, reset and rollout,
and never reads system matrices; no oracle method takes the learner's cost
or value pair.  The learner asks ProbingSchedule.window for the probes of a
block of 64 windows at once and hands each window its slice.  SystemOracle
steps a window with one noise draw and one trajectory-kernel pass and forms
its drifts and noise directions as stacked products over all N rows, with
(A1, A2) and (C1, C2) stacked.  Model knowledge lives on the simulator side
of that interface and in the VI mirror, which runs gare's value-iteration
loop.
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
    _fro_norms,
    _least_eigenvalue,
    _trusted,
)
from .gare import _value_iteration
from .qfunction import (
    _outer_vech,
    block_slices,
    gains_from_q,
    mat_from_vecs,
    q_value,
    values_from_q,
)
from ._kernels import GUARD, closed_loop_path
from .sim import stage_costs

_PROBE_BLOCK = 64  # learner windows whose probes come from one schedule call
# analytic mode's w: over x+ = mu +- s the mean of x+x+' is mu mu' + s s' = E[x+x+']
_PAIR = np.array([[1.0, -1.0]])


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
    """Black-box plant interface; the learner sees window data, never matrices."""

    @abstractmethod
    def reset(self, x):
        """Move the plant to state x."""

    @abstractmethod
    def rollout(self, gains, probes, branches, mode):
        """Advance N steps under u = K2 x + e_u, v = K1 x + e_v.

        probes is the window's (EU (N, m1), EV (N, m2)) pair, one row per
        step.  Returns the (N, p) rows z = [x; u; v] of each step, in order,
        and their (N, n, B) successor samples, rows first: B successors
        x+ = mu + w s of each row, for a zero-mean, unit-variance scalar w.
        The learner averages x+'P x+ over them, so in mc mode they are the
        B = branches draws, and in analytic mode the exact pair w = +1, -1
        (B = 2), whose average is mu'P mu + s'P s.
        """


class SystemOracle(TrajectoryOracle):
    """Simulator-backed oracle with seeded, order-independent branch noise."""

    def __init__(self, sys, noise, x0):
        self._sys = sys
        self._noise = noise
        self._x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
        self._k = 0
        # (A1, A2) and (C1, C2): the drift's and the noise direction's
        # products with one window are one stacked matmul each
        self._AA = np.stack((sys.A1, sys.A2))
        self._CC = np.stack((sys.C1, sys.C2))

    def reset(self, x):
        self._x = np.atleast_1d(np.asarray(x, dtype=float)).copy()

    def rollout(self, gains, probes, branches, mode):
        # One draw(N) gives the values of N per-step draws, and the kernel's
        # states equal sim.step's bit for bit.  (MU, S) are stacked products
        # that run, row by row, the gemv of A.dot(x); stacking (A1, A2) or
        # (C1, C2) adds outer items to a matmul, each running the same BLAS
        # call, and the additions keep their order.
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
        # (MU, S) = (A1 X + B1 U + C1 V, A2 X + C2 V), summed in that order
        MS = _rows_times(self._AA, X)
        MS[0] += _rows_times(sys_.B1, U)
        MS += _rows_times(self._CC, V)
        MU, S = MS
        # successors x+ = mu + w s, rows first: (rows, n, B)
        W = self._noise.branch_window(k, rows, branches) if mode == "mc" else _PAIR
        succ = MU[:, :, None] + W[:, None, :] * S[:, :, None]
        if mode == "mc":
            # rows before a state-guard trip still count, so a branch guard
            # tripping on an earlier row raises first, as it does step by
            # step; analytic mode guards the realized path only
            ok = (np.abs(succ) <= GUARD).all(axis=(1, 2))
            if not ok.all():
                raise DivergenceError(k + int(np.argmin(ok)))
        if bad >= 0:
            self._x, self._k = xs[bad - 1].copy(), k + bad
            raise DivergenceError(k + bad)
        self._x, self._k = xs[N].copy(), k + N
        return np.hstack([xs[:-1], us, vs]), succ


def _rows_times(A, X):
    """A x for each row x of X: one gemv per row, as A.dot(x); a stack A
    (..., n, k) gives (..., rows, n)."""
    return np.matmul(A[..., None, :, :], X[:, :, None])[..., 0]


def _dot_rows(X, Y):
    """x'y for each row pair of the last axis: one ddot per row, as x.dot(y)."""
    return np.matmul(X[..., None, :], Y[..., :, None])[..., 0, 0]


def _quad_rows(X, P):
    """x'P x for each row x of X, with the products of x.dot(P).dot(x)."""
    return _dot_rows(np.matmul(X[:, None, :], P)[:, 0, :], X)


def _continuations(succ, cont):
    """(N, 2) mean of x+'P x+ over each row's successor samples S (n, B), for
    P1 and P2 of the value pair cont: <P, S S'> / B.

    The moments S S' are one stacked matmul, which runs per row the BLAS
    call of a 2-D S @ S.T, and both members are one (N, n^2)·(n^2, 2)
    product."""
    N, n, B = succ.shape
    M = np.matmul(succ, succ.transpose(0, 2, 1))
    C = M.reshape(N, n * n) @ np.array((cont.P1, cont.P2)).reshape(2, n * n).T
    C /= B
    return C


def _targets(Z, succ, cost, cont, slices):
    """The window's (N, 2) Bellman targets: the stage cost of each row
    z = [x; u; v] plus its continuation E[x+'P x+] for the value pair cont.
    The stage costs run, row by row, the BLAS call of a per-tuple .dot;
    X @ Q (a gemm) or einsum row sums would move their last bits."""
    sx, su, sv = slices
    Y = _continuations(succ, cont)
    X, U, V = Z[:, sx], Z[:, su], Z[:, sv]
    r2 = _quad_rows(X, cost.Q) + _dot_rows(U, U)
    Y[:, 0] += cost.gamma**2 * _dot_rows(V, V) - r2
    Y[:, 1] += r2
    return Y


def least_squares_h(X, Y, dims):
    """Solve both regressions with one SVD of X; returns (q, svmin).

    Y is the (N, 2) target block, one column per member of the pair.  q is
    the QPair (H1, H2) and svmin X's smallest singular value.  Raises
    ValueError when X has fewer rows than unknowns, and ExcitationError when
    X is numerically rank deficient, which is what absent or constant
    probing produces.
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
    W = Vt.T @ ((U.T @ Y) / sv[:, None])
    # both H in one (2, p, p) rebuild, symmetric by construction
    q = _trusted(QPair, mat_from_vecs(W.T), n, m1, m2)
    return q, float(sv[-1])


def write_matrix_txt(M, path):
    """Plain-text matrix export: one row per line, %.12e entries."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w") as fh:
        for row in M:
            fh.write(" ".join(f"{x:.12e}" for x in row) + "\n")


def _stop_rule(dh1, dh2, q_prev, q_next, gains_prev, gains_next, x_probe, cost, tol):
    """Three-part stop rule given the Frobenius H changes (dh1, dh2); returns
    (stop, reason).

    Conditions: both H changes below tol, and at the designated probe state
    the new Q2 under the new policy has dropped by more than the new stage
    cost relative to the previous iterate's Q2 value.  It must be the
    previous Q2: subtracting the previous Q1 leaves a gap of about
    x'(P2 - P1)x, far above the stage cost, so that reading never fires at
    the fixed point.
    """
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
        rows = [[""] * 4] * len(self.history)
        if reference is not None and self.history:
            rvals, rgains = reference
            ref = (rgains.K1, rgains.K2, rvals.P1, rvals.P2)
            got = [(it.gains.K1, it.gains.K2, it.values.P1, it.values.P2)
                   for it in self.history]
            # one column's distances over all iterates in one call
            cols = [_fro_norms(np.stack(col) - r).tolist() for col, r in zip(zip(*got), ref)]
            rows = [[f"{x:.12g}" for x in row] for row in zip(*cols)]
        lines = ["iter,dH1_fro,dH2_fro,errK1,errK2,errP1,errP2,term_flag"]
        for i, (it, errs) in enumerate(zip(self.history, rows), start=1):
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
    from simulate_to_csv.
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

    N, mode = config.tuples_per_iter, config.expectation_mode
    for i in range(config.max_iters):
        t = (i % _PROBE_BLOCK) * N
        if t == 0:
            # the probes of the next block of windows (at most the budget's),
            # each window a slice: rows carry the bits of their own window
            EU, EV = schedule.window(k, N * min(_PROBE_BLOCK, config.max_iters - i),
                                     m1, m2)
        probes = EU[t:t + N], EV[t:t + N]
        Z, succ = oracle.rollout(gains, probes, config.branches, mode)
        # the oracle is outside input: a window of another shape is named
        # here, not left to fail or broadcast inside the targets
        shape = np.shape(succ)
        if np.shape(Z) != (N, p) or len(shape) != 3 or shape[:2] != (N, n) or not shape[2]:
            raise ValueError(
                f"{mode} rollout returned rows {np.shape(Z)} and successors {shape}, "
                f"expected {(N, p)} and ({N}, {n}, B) with B >= 1"
            )
        Y = _targets(Z, succ, cost, vals, (sx, su, sv))
        k += N
        X = _outer_vech(Z)
        try:
            q_next, svmin = least_squares_h(X, Y, (n, m1, m2))
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
        if mode == "analytic":
            # exact estimates expose the Delta1 block of the stacked solve;
            # losing its definiteness means gamma is infeasible
            if _least_eigenvalue(q_next.H1[sv, sv]) <= 0.0:
                raise AttenuationInfeasibleError(
                    f"H1 vv-block lost definiteness at iteration {i + 1}"
                )
        gains_next = gains_from_q(q_next)
        vals_next = values_from_q(q_next, gains_next)
        dh1 = float(np.linalg.norm(q_next.H1 - q.H1))
        dh2 = float(np.linalg.norm(q_next.H2 - q.H2))
        stop, why = _stop_rule(dh1, dh2, q, q_next, gains, gains_next, x0, cost,
                               config.tol)
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
    included, and records per iteration the loop's own H(i), which is
    h_from_values(P(i-1)) bit for bit: exactly what an unbiased estimator
    would produce, so reports from the two routes are directly comparable.
    A ConvergenceError from the loop carries the report up to the last
    finite iterate.
    """
    q = QPair.zeros(sys.n, sys.m1, sys.m2)
    history = []
    sweeps = _value_iteration(sys, cost, config.tol, config.max_iters)
    try:
        # the loop's float-error context; dH's squared norm overflows long
        # before a diverging iterate does
        with np.errstate(over="ignore", invalid="ignore"):
            for HH, K1, K2, PP, (dp1, dp2), stop in sweeps:
                q_next = _trusted(QPair, HH, *sys.dims)
                dh1 = float(np.linalg.norm(q_next.H1 - q.H1))
                dh2 = float(np.linalg.norm(q_next.H2 - q.H2))
                # the sweep's P pair is finite and symmetrized, and its gains
                # finite, or the loop would have raised
                q = q_next
                history.append(Iterate(dh1, dh2, _trusted(GainPair, (K1, K2)),
                                       _trusted(ValuePair, PP), stop))
    except ConvergenceError as err:
        err.report = QLearnReport(q, tuple(history), str(err))
        raise
    reason = (f"stopped at iteration {len(history)}: value changes "
              f"({dp1:.3e}, {dp2:.3e}) below {config.tol:g}")
    return QLearnReport(q, tuple(history), reason)
