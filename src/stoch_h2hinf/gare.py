"""Coupled generalized Riccati machinery for the mixed H2/Hinf game.

The solution of the two-player problem is a pair (P1, P2) of symmetric
matrices satisfying coupled fixed-point equations whose gains come from one
stacked linear solve.  The value recursion from (0, 0),

    P1+ = A(P1, K1, K2) - Q - K2'K2 + g^2 K1'K1,
    P2+ = A(P2, K1, K2) + Q + K2'K2,

with A(X, Y1, Y2) the closed-loop quadratic map, converges monotonically
(P1 nonincreasing, P2 nondecreasing) for feasible gamma.  Mean-square
stability of a realized closed loop is certified through the spectral
radius of the Kronecker second-moment map.

The recursion runs in Q-form, the learner's update with exact H (Bradtke,
Ydstie & Barto 1994; Al-Tamimi, Lewis & Abu-Khalaf 2007).  With
L = [A1 B1 C1], G = [A2 0 C2] and T = [I; K2; K1], Ad = L T and An = G T,
so P+ = T'H T with H = base + L'P L + G'P G, base = (blkdiag(-Q, -I, g^2 I),
blkdiag(Q, I, 0)).  One sweep of `_value_iteration` builds HH = (H1, H2) as
one stacked product, checks Delta1 = H1vv and Delta2 = H2uu for
definiteness (a 1x1 block read directly), gathers the stacked gain system
[[H1vv, H1uv'], [H2uv, H2uu]] [K1; K2] = -[H1xv'; H2xu'] from HH and solves
it, and collapses HH on T in one stacked sandwich: qfunction's core, which
h_from_values, gains_from_q and values_from_q wrap, so the package has one
gain extraction and the learner gets the loop's bits.  L, G, base, the
gather positions and T are built once per solve; a stacked matmul runs the
2-D call's gemm on each item, so each member keeps its 2-D bits.

The recursion never reads the residuals of the coupled equations, so the
sweep does not compute them.  The solvers' one report body, _solve, writes
each sweep's gains and values into two block stacks allocated once per
solve and computes a block's residuals in one pass over views of them
through the classic Delta blocks and closed-loop matrices, with the helpers
the 2-D call uses (gare_residuals).  The bits stay: a stacked matmul runs
the 2-D call's gemm, gemv or syrk on each item, a stacked solve the same
gesv.  A stacked solve fails as a whole, so a singular Delta is named by
walking the block in sweep order, and a pending block is computed before
any error from the loop propagates.  The loop enters no float-error
context; each consumer (_solve, the vi mirror, random_feasible_system)
holds one np.errstate around it, entered once per solve.
On 2-D operands a product of two matrices is ndarray.dot, at about half
matmul's dispatch cost (_mm picks), with matmul's bits save one case
tests/test_gare.py pins: an outer product whose entry underflows (a factor
below 1.6e-162) is -0.0 from dot and +0.0 from matmul.

Policy iteration (solve_coupled_gare_pi; Kleinman 1968, Hewer 1971) meets
the same fixed point in a handful of sweeps (8 on F-16 at tol 1e-9, where
the recursion sweeps 652 times).  It is the same loop and report with
another step, _policy_step: the values of the gains in T, both generalized
Lyapunov equations in one n^2 x n^2 solve with stage weights T' base T,
from zero gains (the extraction at (0, 0)).  The step raises when the gains
are not mean-square stabilizing, so the report's gains, the last evaluated,
are, and its stable flag is that verdict; the recursion needs no such
start.  simulate solves by policy iteration and falls back on the
recursion; solve, vi, the learner's mirror and random_feasible_system use
the recursion.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    AttenuationInfeasibleError,
    ConfigError,
    ConvergenceError,
    CostSpec,
    GainExtractionError,
    GainPair,
    SdltiSystem,
    ValuePair,
    _fro_norms,
    _least_eigenvalue,
    symmetrize,
)
from .qfunction import (
    _gain_index,
    _gain_solve,
    _h_stack,
    _q_form,
    _sandwich,
    h_from_values,
    values_from_q,
)

_PD_TOL = 1e-12


def _mm(a, b):
    """a @ b, through ndarray.dot when neither is a stack."""
    return a.dot(b) if a.ndim == b.ndim == 2 else a @ b


def _closed_loop(sys, K1, K2):
    """Au = A1 + B1K2, Ad = Au + C1K1, An = A2 + C2K1 and Av = A1 + C1K1."""
    C1K1 = _mm(sys.C1, K1)
    Au = sys.A1 + _mm(sys.B1, K2)
    return Au, Au + C1K1, sys.A2 + _mm(sys.C2, K1), sys.A1 + C1K1


def _gains(sys, cost, HH):
    """(K1, K2) read from the stack HH = (H1, H2) at the current values.

    The stacked system's Delta1 = H1vv and Delta2 = H2uu must be positive
    definite; losing that signals the attenuation level is infeasible.
    """
    n, m1, m2 = sys.dims
    A = HH.take(_gain_index(n, m1, m2))
    # Delta1 = A[:m2, :m2] and Delta2 = A[m2:, m2:m2 + m1]; a 1x1 block is its entry
    for name, i, m in (("Delta1", 0, m2), ("Delta2", m2, m1)):
        least = A.item(i, i) if m == 1 else _least_eigenvalue(A[i:i + m, i:i + m])
        if least <= _PD_TOL:
            raise AttenuationInfeasibleError(
                f"{name} is not positive definite; gamma={cost.gamma} too small"
            )
    try:
        KK = _gain_solve(A)
    except np.linalg.LinAlgError as exc:
        raise GainExtractionError(f"stacked gain system is singular: {exc}") from exc
    return KK[:m2], KK[m2:]


def _residuals(sys, cost, P1, P2, K1, K2):
    """Left-hand sides of the coupled equations at (P1, P2, K1, K2), through
    the classic Delta blocks and closed-loop matrices.  Every operand may be
    a stack (..., n, n) of sweeps; a stacked solve fails as a whole when any
    of its blocks is singular."""
    D1 = (cost.gamma**2 * np.eye(sys.m2) + _mm(_mm(sys.C2.T, P1), sys.C2)
          + _mm(_mm(sys.C1.T, P1), sys.C1))
    D2 = np.eye(sys.m1) + _mm(_mm(sys.B1.T, P2), sys.B1)
    K2tK2 = _mm(np.swapaxes(K2, -1, -2), K2)
    Au, _, An, Av = _closed_loop(sys, K1, K2)
    AuP1, A2P1 = np.swapaxes(Au, -1, -2) @ P1, sys.A2.T @ P1
    M1 = AuP1 @ sys.C1 + A2P1 @ sys.C2
    try:
        S1 = M1 @ np.linalg.solve(D1, np.swapaxes(M1, -1, -2))
    except np.linalg.LinAlgError as exc:
        raise AttenuationInfeasibleError(f"Delta1 is singular: {exc}") from exc
    R1 = -P1 + AuP1 @ Au - cost.Q + A2P1 @ sys.A2 - K2tK2 - S1

    AvP2 = np.swapaxes(Av, -1, -2) @ P2
    M2 = AvP2 @ sys.B1
    try:
        S2 = M2 @ np.linalg.solve(D2, np.swapaxes(M2, -1, -2))
    except np.linalg.LinAlgError as exc:
        raise AttenuationInfeasibleError(f"Delta2 is singular: {exc}") from exc
    R2 = -P2 + AvP2 @ Av + cost.Q + np.swapaxes(An, -1, -2) @ P2 @ An - S2
    return symmetrize(R1), symmetrize(R2)


def gains_from_values(sys, cost, vals):
    """Solve the stacked system for (K1, K2) at the current (P1, P2), read
    from h_from_values; Delta1 and Delta2 must be positive definite, or the
    attenuation level is infeasible."""
    HH = _h_stack(_q_form(sys, cost), np.array((vals.P1, vals.P2)))
    return GainPair(*_gains(sys, cost, HH))


def vi_value_update(sys, cost, vals, gains):
    """One value-iteration sweep using the supplied (current) gains."""
    return values_from_q(h_from_values(sys, cost, vals), gains)


def gare_residuals(sys, cost, vals, gains):
    """Left-hand sides of the two coupled equations at (P1, P2, K1, K2).

    Both come back as symmetric matrices; zero at an exact solution.
    """
    return _residuals(sys, cost, vals.P1, vals.P2, gains.K1, gains.K2)


def _second_moment_map(Ad, An):
    """Ad'(x)Ad' + An'(x)An' (n^2 x n^2): the map X -> Ad'X Ad + An'X An
    acting on X flattened row by row."""
    n2 = Ad.size
    T = Ad.T[:, None, :, None] * Ad.T[None, :, None, :]
    T += An.T[:, None, :, None] * An.T[None, :, None, :]
    return T.reshape(n2, n2)


def ms_radius(Abar1, Abar2):
    """Spectral radius of the second-moment map X -> Abar1'XAbar1 + Abar2'XAbar2."""
    Abar1 = np.asarray(Abar1, dtype=float)
    Abar2 = np.asarray(Abar2, dtype=float)
    if Abar1.shape != Abar2.shape or Abar1.shape[0] != Abar1.shape[1]:
        raise ValueError("Abar1 and Abar2 must be square and same-shaped")
    return _spectral_radius(_second_moment_map(Abar1.T, Abar2.T))


def _spectral_radius(T):
    return float(np.abs(np.linalg.eigvals(T)).max())


def ms_stable(Abar1, Abar2):
    """True iff the closed loop is asymptotically stable in the mean square."""
    return ms_radius(Abar1, Abar2) < 1.0


def closed_loop_pair(sys, gains):
    """Drift and noise matrices of the loop u = K2 x, v = K1 x."""
    return _closed_loop(sys, gains.K1, gains.K2)[1:3]


@dataclass(frozen=True)
class SolveReport:
    """Fixed-point solve outcome with per-iteration diagnostics.

    history rows are (dP1_fro, dP2_fro, res1_fro, res2_fro), one per
    iteration; the iteration count and the final residual norms are read
    from it.
    """

    values: ValuePair
    gains: GainPair
    history: tuple
    stable: bool

    @property
    def iterations(self):
        return len(self.history)

    @property
    def residual_norms(self):
        return self.history[-1][2:]

    def to_csv(self, path):
        # "%.12g" prints like f"{x:.12g}", inf, nan and -0.0 included
        cells = [c for i, row in enumerate(self.history, start=1) for c in (i, *row)]
        with open(path, "w") as fh:
            fh.write("iter,dP1_fro,dP2_fro,res1_fro,res2_fro\n")
            fh.write(("%d,%.12g,%.12g,%.12g,%.12g\n" * len(self.history)) % tuple(cells))


def _value_step(form, HH, T):
    """Value iteration's next values: HH collapsed on the gains in T."""
    return _sandwich(HH, T)


def _value_iteration(sys, cost, tol, max_iters, step=_value_step):
    """The coupled-Riccati loop from (0, 0) in Q-form, one item per sweep;
    step maps (_q_form, HH, T) to the next values (_value_step or
    _policy_step), HH being H at the current values and T = [I; K2; K1]
    holding the gains read from it.

    Yields (HH, K1, K2, PP, (dP1, dP2), stop): H at the previous values,
    the gains extracted from it, the updated values PP = (P1, P2) stacked,
    the Frobenius norms of the value changes, and whether both fell below
    tol, which ends the iteration.  Raises ConvergenceError when max_iters
    runs out, an iterate leaves the finite range (that sweep is not yielded)
    or step raises one (the sweep appended).  Overflow and inf - inf only
    occur once the iteration diverges, which those checks report: each
    consumer runs the loop under np.errstate(over="ignore", invalid="ignore"),
    as a context entered here would be held across the yield.
    """
    if not 0 < tol < math.inf:
        raise ConfigError("tol must be a positive finite number")
    if max_iters < 1:
        raise ConfigError("max_iters must be a positive integer")
    n, m1 = sys.n, sys.m1
    form = _q_form(sys, cost)
    T = np.eye(sys.p, n)
    PP = np.zeros((2, n, n))
    for sweep in range(1, max_iters + 1):
        HH = _h_stack(form, PP)
        K1, K2 = _gains(sys, cost, HH)
        T[n:n + m1], T[n + m1:] = K2, K1
        try:
            PPn = step(form, HH, T)
        except ConvergenceError as exc:
            raise ConvergenceError(f"{exc} at sweep {sweep}") from None
        # both stacks C-ordered, so each norm has np.linalg.norm's bits
        d1, d2 = _fro_norms(PPn - PP).tolist()
        # dP overflows well before the entries do: only then are they read
        if not math.isfinite(d1 + d2) and not np.isfinite(PPn).all():
            raise ConvergenceError(f"no fixed point: the iterate left the "
                                   f"finite range at sweep {sweep}")
        stop = d1 < tol and d2 < tol
        yield HH, K1, K2, PPn, (d1, d2), stop
        if stop:
            return
        PP = PPn
    raise ConvergenceError(
        f"no fixed point within {max_iters} iterations (tol={tol:g}); "
        f"last dP=({d1:.3e}, {d2:.3e})"
    )


_RES_BLOCK = 64  # sweeps per stacked residual pass: bounds the sweeps held


def _residual_rows(sys, cost, KK, PP):
    """(res1, res2) Frobenius norms of a block of sweeps, computed in one
    stacked pass over views of its gains KK = [K1; K2] (S, m2 + m1, n) and
    values PP = (P1, P2) (S, 2, n, n), with the bits of one pass per sweep.

    A stacked solve fails as a whole, so a singular Delta block is named by
    walking the sweeps in order, Delta1 before Delta2 within a sweep: the
    error each sweep's own residuals raised when the loop computed them.
    """
    m2 = sys.m2
    P1, P2, K1, K2 = PP[:, 0], PP[:, 1], KK[:, :m2], KK[:, m2:]
    try:
        R1, R2 = _residuals(sys, cost, P1, P2, K1, K2)
    except AttenuationInfeasibleError:
        for sweep in zip(P1, P2, K1, K2):
            _residuals(sys, cost, *sweep)
        raise
    return list(zip(_fro_norms(R1).tolist(), _fro_norms(R2).tolist()))


def _solve(sys, cost, tol, max_iters, step):
    """_value_iteration with step and its SolveReport, whose rows hold each
    sweep's residuals at its values and the gains it evaluated.  A
    ConvergenceError carries the report, save one at sweep 1 (none to make)."""
    n, m1, m2 = sys.dims
    # a block's gains and values, written in place sweep by sweep
    KK, PP = np.empty((_RES_BLOCK, m2 + m1, n)), np.empty((_RES_BLOCK, 2, n, n))
    dps, res, held, err = [], [], 0, None
    try:
        # the loop's float-error context: a diverging iterate overflows in
        # the sweep and the residual pass before the loop's checks report it
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for _, K1, K2, PPn, dP, _ in _value_iteration(sys, cost, tol, max_iters, step):
                    dps.append(dP)
                    KK[held, :m2], KK[held, m2:], PP[held] = K1, K2, PPn
                    held += 1
                    if held == _RES_BLOCK:
                        # emptied first, so a pass that raises is not run again below
                        held = 0
                        res += _residual_rows(sys, cost, KK, PP)
            finally:
                # on every exit: a singular Delta in an earlier sweep is raised
                # in place of whatever ended the loop, as it was when each
                # sweep computed its own residuals
                if held:
                    res += _residual_rows(sys, cost, KK[:held], PP[:held])
    except ConvergenceError as exc:
        if not dps:
            raise
        # K1, K2, PPn hold the last finite sweep
        err = exc
    gains = GainPair(K1, K2)
    # _policy_step refused every pair at or above ms radius 1, the last too
    stable = step is _policy_step or ms_stable(*closed_loop_pair(sys, gains))
    report = SolveReport(ValuePair(*PPn), gains,
                         tuple(dP + r for dP, r in zip(dps, res)), stable)
    if err is None:
        return report
    err.report = report
    raise err


def solve_coupled_gare(sys, cost, tol=1e-9, max_iters=5000):
    """Iterate the coupled value recursion from (0, 0) to its fixed point.

    Stops when both Frobenius iterate differences fall below tol.  That
    bounds the last sweep's step, not the distance to the fixed point: on
    F-16 at tol 1e-9 (652 sweeps) P1 and P2 end 5.7e-9 and 1.6e-8 (largest
    entry) from a tol 1e-12 policy-iteration solve, the gains 9.8e-11.
    Raises ConvergenceError (report attached) if max_iters is exhausted
    first, or if an iterate leaves the finite range (the report then ends at
    the last finite one).
    """
    return _solve(sys, cost, tol, max_iters, _value_step)


def _policy_values(W, M):
    """The values (P1, P2), stacked (2, n, n), of fixed gains whose stage
    weights are the stack W = (W1, W2) and whose _second_moment_map is M.

    Both generalized Lyapunov equations P = Ad'P Ad + An'P An + W, with
    W1 = -Q - K2'K2 + g^2 K1'K1 and W2 = Q + K2'K2, are one n^2 x n^2 solve
    (I - M) vec P = vec W with two right-hand sides.  The values are the
    gains' costs only when M's spectral radius is below 1.
    """
    n2 = len(M)
    vecP = np.linalg.solve(np.eye(n2) - M, W.reshape(2, n2).T)
    # C-ordered, so P1 and P2 feed the next sweep as a ValuePair's copies do
    return symmetrize(np.ascontiguousarray(vecP.T).reshape(W.shape))


def _policy_step(form, HH, T):
    """The exact values of the gains in T = [I; K2; K1] (HH is not read);
    raises ConvergenceError when the gains are not mean-square stabilizing,
    as their values are then not their costs.

    With L and G of the Q-form, (Ad, An) = (L T, G T), and the stage
    weights are the base blocks collapsed on the gains, W = T' base T.
    """
    LG, base = form
    M = _second_moment_map(*(LG @ T))
    if not np.isfinite(M).all():
        raise ConvergenceError("no fixed point: the gains left the finite range")
    # M is the transpose of ms_radius's map: the same spectrum, not built twice
    rho = _spectral_radius(M)
    if not rho < 1.0:
        raise ConvergenceError(f"the gains are not mean-square stabilizing "
                               f"(ms radius {rho:.4g})")
    return _policy_values(_sandwich(base, T), M)


def solve_coupled_gare_pi(sys, cost, tol=1e-9, max_iters=5000):
    """Solve the coupled equations by policy iteration from zero gains:
    _value_iteration with _policy_step, which evaluates each sweep's gains.

    Report and errors are solve_coupled_gare's.  The report's gains are the
    last pair evaluated, mean-square stabilizing by the step's check, and its
    values their exact costs.  Unstabilizing zero gains raise at sweep 1,
    with no report attached.
    """
    return _solve(sys, cost, tol, max_iters, _policy_step)


def random_feasible_system(rng, n=3, m1=1, m2=1, gamma=5.0, max_tries=200):
    """Draw a random system the solver provably handles; rejection-sampled.

    A1 is scaled to spectral radius 0.9, A2 so the open-loop second-moment
    radius stays below 0.95, and the input/disturbance columns are kept
    small.  Retries until the value recursion converges feasibly.
    """
    for _ in range(max_tries):
        A1 = rng.standard_normal((n, n))
        A1 *= 0.9 / max(np.abs(np.linalg.eigvals(A1)).max(), 1e-12)
        A2 = 0.3 * rng.standard_normal((n, n))
        for _ in range(30):
            if ms_radius(A1, A2) < 0.95:
                break
            A2 *= 0.7
        else:
            continue
        B1 = 0.1 * rng.standard_normal((n, m1))
        C1 = 0.1 * rng.standard_normal((n, m2))
        C2 = 0.1 * rng.standard_normal((n, m2))
        sys = SdltiSystem(A1, A2, B1, C1, C2)
        cost = CostSpec(gamma, np.eye(n))
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in _value_iteration(sys, cost, 1e-9, 3000):
                    pass
        except (AttenuationInfeasibleError, ConvergenceError, GainExtractionError):
            continue
        return sys, cost
    raise RuntimeError(f"no feasible random system found in {max_tries} tries")
