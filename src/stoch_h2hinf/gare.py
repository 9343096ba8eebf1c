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

One sweep of the recursion (`_value_iteration`) does no work twice, and
gives the same bits as the expressions above written one product at a time:

- Python evaluates X'P Y as (X'P) Y, so a left factor computed once gives
  the bits of every product it starts.  C1'P1, C2'P1 and B1'P2 serve both
  the Delta blocks and the next sweep's gain system; Au'P1, A2'P1 and
  Av'P2 serve both M and R of the residuals; C1K1 serves Ad and Av.
- The pair A(P1), A(P2) is one stacked product on PP = (P1, P2) of shape
  (2, n, n), symmetrized through swapaxes.  A stacked matmul runs the same
  gemm as the 2-D one on each item, so each item keeps its bits.
- g^2 I and I of the Delta blocks are built once per solve.
- A 1x1 Delta block is read directly in the positive-definiteness check:
  eigvalsh of a 1x1 matrix returns its entry, inf and NaN included.
  Larger blocks go through eigvalsh.

The recursion never reads the residuals of the coupled equations, so the
sweep does not compute them.  solve_coupled_gare, whose report has a
residual column pair, keeps each sweep's gains and values and computes the
residuals of a block of sweeps in one pass over (S, n, n) stacks, with the
same helpers the 2-D call uses.  The bits stay: a stacked matmul runs the
2-D call's gemm, gemv or syrk on each item, a stacked solve the same gesv,
and elementwise operations are elementwise.  A stacked solve fails as a
whole, so a singular Delta is named by walking the block in sweep order,
and a pending block is computed before any error from the loop propagates:
a solve fails with the error and at the sweep it did when each sweep
computed its own residuals.

Policy iteration (solve_coupled_gare_pi; Kleinman 1968, Hewer 1971) meets
the same fixed point in a handful of sweeps (8 on F-16 at tol 1e-9, where
the recursion sweeps 652 times).  It is the same loop with another step,
_policy_step: the extracted gains' exact values, both generalized Lyapunov
equations in one n^2 x n^2 solve, from zero gains (the extraction at
(0, 0)).  The step raises when the gains are not mean-square stabilizing;
the recursion needs no such start.  simulate solves by policy iteration
and falls back on the recursion; solve, vi, the learner's mirror and
random_feasible_system use the recursion.
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
    symmetrize,
)

_PD_TOL = 1e-12


def _closed_loop(sys, K1, K2):
    """Au = A1 + B1K2, Ad = Au + C1K1, An = A2 + C2K1 and Av = A1 + C1K1."""
    C1K1 = sys.C1 @ K1
    Au = sys.A1 + sys.B1 @ K2
    return Au, Au + C1K1, sys.A2 + sys.C2 @ K1, sys.A1 + C1K1


def _policy_terms(sys, K1, K2):
    """What the value update and the residuals share: K1, K2'K2, Au, Ad, An, Av,
    for one gain pair or a stack (..., m, n) of them."""
    return (K1, np.swapaxes(K2, -1, -2) @ K2) + _closed_loop(sys, K1, K2)


def _delta_constants(sys, cost):
    """The constant terms g^2 I (m2-square) and I (m1-square) of the Delta blocks."""
    return cost.gamma**2 * np.eye(sys.m2), np.eye(sys.m1)


def _delta_blocks(sys, P1, P2, consts):
    """Delta1 = g^2 I + C2'P1C2 + C1'P1C1, Delta2 = I + B1'P2B1 and the left
    factors C1'P1, C2'P1, B1'P2, which the stacked gain system reuses; P1 and
    P2 may be stacks (..., n, n)."""
    g2I, I1 = consts
    C1P1, C2P1, B1P2 = sys.C1.T @ P1, sys.C2.T @ P1, sys.B1.T @ P2
    D1 = g2I + C2P1 @ sys.C2 + C1P1 @ sys.C1
    D2 = I1 + B1P2 @ sys.B1
    return D1, D2, C1P1, C2P1, B1P2


def _extract_gains(sys, cost, blocks, blk):
    """(K1, K2) from the stacked system, assembled in the (m2+m1)-square blk.

    blocks is what _delta_blocks returns.  Delta1 and Delta2 must be
    positive definite; losing that signals the attenuation level is
    infeasible.
    """
    D1, D2, C1P1, C2P1, B1P2 = blocks
    for name, D in (("Delta1", D1), ("Delta2", D2)):
        # eigvalsh of a 1x1 block returns its entry, inf and NaN included
        low = D[0, 0] if len(D) == 1 else np.linalg.eigvalsh(symmetrize(D)).min()
        if float(low) <= _PD_TOL:
            raise AttenuationInfeasibleError(
                f"{name} is not positive definite; gamma={cost.gamma} too small"
            )
    m2 = sys.m2
    blk[:m2, :m2] = D1
    blk[:m2, m2:] = C1P1 @ sys.B1
    blk[m2:, :m2] = B1P2 @ sys.C1
    blk[m2:, m2:] = D2
    rhs = -np.concatenate((C1P1 @ sys.A1 + C2P1 @ sys.A2, B1P2 @ sys.A1))
    try:
        KK = np.linalg.solve(blk, rhs)
    except np.linalg.LinAlgError as exc:
        raise GainExtractionError(f"stacked gain system is singular: {exc}") from exc
    return KK[:m2], KK[m2:]


def _value_update(cost, PP, policy):
    """The stack (P1+, P2+) from the stack PP = (P1, P2), shape (2, n, n).

    Both members share the quadratic map A(X) = An'X An + Ad'X Ad.
    """
    K1, K2tK2, _, Ad, An, _ = policy
    PPn = symmetrize(An.T @ PP @ An + Ad.T @ PP @ Ad)
    P1n, P2n = PPn
    P1n -= cost.Q
    P1n -= K2tK2
    P1n += cost.gamma**2 * (K1.T @ K1)
    P2n += cost.Q
    P2n += K2tK2
    return symmetrize(PPn)


def _residuals(sys, cost, P1, P2, blocks, policy):
    """Left-hand sides of the coupled equations; blocks is _delta_blocks at P
    and policy is _policy_terms of the gains.  Every operand may be a stack
    (..., n, n) of sweeps; a stacked solve fails as a whole when any of its
    blocks is singular."""
    D1, D2 = blocks[:2]
    _, K2tK2, Au, _, An, Av = policy
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


def _fro(M):
    """Frobenius norm, summed in the order np.linalg.norm sums it."""
    v = M.ravel(order="K")
    return math.sqrt(v.dot(v))


def gains_from_values(sys, cost, vals):
    """Solve the stacked system for (K1, K2) at the current (P1, P2).

    The stack is [[Delta1, C1'P1B1], [B1'P2C1, Delta2]] against
    -[C1'P1A1 + C2'P1A2; B1'P2A1].  Delta1 and Delta2 must be positive
    definite; losing that signals the attenuation level is infeasible.
    """
    blocks = _delta_blocks(sys, vals.P1, vals.P2, _delta_constants(sys, cost))
    m = sys.m1 + sys.m2
    return GainPair(*_extract_gains(sys, cost, blocks, np.empty((m, m))))


def vi_value_update(sys, cost, vals, gains):
    """One value-iteration sweep using the supplied (current) gains."""
    policy = _policy_terms(sys, gains.K1, gains.K2)
    return ValuePair(*_value_update(cost, np.stack((vals.P1, vals.P2)), policy))


def gare_residuals(sys, cost, vals, gains):
    """Left-hand sides of the two coupled equations at (P1, P2, K1, K2).

    Both come back as symmetric matrices; zero at an exact solution.
    """
    blocks = _delta_blocks(sys, vals.P1, vals.P2, _delta_constants(sys, cost))
    policy = _policy_terms(sys, gains.K1, gains.K2)
    return _residuals(sys, cost, vals.P1, vals.P2, blocks, policy)


def ms_radius(Abar1, Abar2):
    """Spectral radius of the second-moment map X -> Abar1'XAbar1 + Abar2'XAbar2."""
    Abar1 = np.asarray(Abar1, dtype=float)
    Abar2 = np.asarray(Abar2, dtype=float)
    if Abar1.shape != Abar2.shape or Abar1.shape[0] != Abar1.shape[1]:
        raise ValueError("Abar1 and Abar2 must be square and same-shaped")
    return _spectral_radius(np.kron(Abar1, Abar1) + np.kron(Abar2, Abar2))


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


def _value_iteration(sys, cost, tol, max_iters, step=_value_update):
    """The coupled-Riccati loop from (0, 0), one item per sweep; step maps
    (values, policy terms) to the next values (_value_update or _policy_step).

    Yields (K1, K2, P1, P2, (dP1, dP2), stop): the gains extracted at the
    previous values, the updated values, the Frobenius norms of the value
    changes, and whether both fell below tol, which ends the iteration.
    Raises ConvergenceError when max_iters runs out, an iterate leaves the
    finite range (that sweep is not yielded) or step raises one (the sweep
    appended).  The Delta blocks and left factors at the updated values are
    the next sweep's gain system.
    """
    if not 0 < tol < math.inf:
        raise ConfigError("tol must be a positive finite number")
    if max_iters < 1:
        raise ConfigError("max_iters must be a positive integer")
    consts = _delta_constants(sys, cost)
    PP = np.zeros((2, sys.n, sys.n))
    P1, P2 = PP
    blocks = _delta_blocks(sys, P1, P2, consts)
    blk = np.empty((sys.m2 + sys.m1,) * 2)
    for sweep in range(1, max_iters + 1):
        # overflow and inf - inf only occur once the iteration diverges, which
        # the step's checks or the finiteness check below report
        with np.errstate(over="ignore", invalid="ignore"):
            K1, K2 = _extract_gains(sys, cost, blocks, blk)
            try:
                PPn = step(cost, PP, _policy_terms(sys, K1, K2))
            except ConvergenceError as exc:
                raise ConvergenceError(f"{exc} at sweep {sweep}") from None
            P1n, P2n = PPn
            d1, d2 = _fro(P1n - P1), _fro(P2n - P2)
            # dP overflows well before the entries do: only then are they read
            if not math.isfinite(d1 + d2) and not np.isfinite(PPn).all():
                raise ConvergenceError(f"no fixed point: the iterate left the "
                                       f"finite range at sweep {sweep}")
            blocks = _delta_blocks(sys, P1n, P2n, consts)
        stop = d1 < tol and d2 < tol
        yield K1, K2, P1n, P2n, (d1, d2), stop
        if stop:
            return
        PP, P1, P2 = PPn, P1n, P2n
    raise ConvergenceError(
        f"no fixed point within {max_iters} iterations (tol={tol:g}); "
        f"last dP=({d1:.3e}, {d2:.3e})"
    )


_RES_BLOCK = 64  # sweeps per stacked residual pass: bounds the sweeps held


def _residual_rows(sys, cost, consts, sweeps):
    """(res1, res2) Frobenius norms of a block of sweeps (K1, K2, P1, P2),
    computed in one stacked pass with the bits of one pass per sweep.

    A stacked solve fails as a whole, so a singular Delta block is named by
    walking the sweeps in order, Delta1 before Delta2 within a sweep: the
    error each sweep's own residuals raised when the loop computed them.
    """
    K1, K2, P1, P2 = (np.stack(a) for a in zip(*sweeps))
    # a diverging iterate overflows here as it does in the sweep
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            R1, R2 = _residuals(sys, cost, P1, P2, _delta_blocks(sys, P1, P2, consts),
                                _policy_terms(sys, K1, K2))
        except AttenuationInfeasibleError:
            for k1, k2, p1, p2 in sweeps:
                _residuals(sys, cost, p1, p2, _delta_blocks(sys, p1, p2, consts),
                           _policy_terms(sys, k1, k2))
            raise
        return list(zip(_fro_norms(R1).tolist(), _fro_norms(R2).tolist()))


def solve_coupled_gare(sys, cost, tol=1e-9, max_iters=5000):
    """Iterate the coupled value recursion from (0, 0) to its fixed point.

    Stops when both Frobenius iterate differences fall below tol.  That
    bounds the last sweep's step, not the distance to the fixed point: on
    F-16 at tol 1e-9 (652 sweeps) P1 and P2 end 5.7e-9 and 1.6e-8 (largest
    entry) from a tol 1e-12 policy-iteration solve, the gains 9.8e-11.
    Raises ConvergenceError(report attached) if max_iters is exhausted
    first, or if an iterate leaves the finite range (the report then ends
    at the last finite one).  The report's residual columns come from one stacked pass
    per block of sweeps, with the bits of one residual per sweep.
    """
    consts = _delta_constants(sys, cost)
    dps, res, block, err = [], [], [], None
    try:
        try:
            for K1, K2, P1, P2, dP, _ in _value_iteration(sys, cost, tol, max_iters):
                dps.append(dP)
                block.append((K1, K2, P1, P2))
                if len(block) == _RES_BLOCK:
                    # emptied first, so a pass that raises is not run again below
                    block, full = [], block
                    res += _residual_rows(sys, cost, consts, full)
        finally:
            # on every exit: a singular Delta in an earlier sweep is raised
            # in place of whatever ended the loop, as it was when each sweep
            # computed its own residuals
            if block:
                res += _residual_rows(sys, cost, consts, block)
    except ConvergenceError as exc:
        # never before sweep 1 is yielded (its P = (-Q, Q) is finite), so
        # K1, K2, P1, P2 hold the last finite sweep
        err = exc
    gains = GainPair(K1, K2)
    report = SolveReport(ValuePair(P1, P2), gains,
                         tuple(dP + r for dP, r in zip(dps, res)),
                         ms_stable(*closed_loop_pair(sys, gains)))
    if err is None:
        return report
    err.report = report
    raise err


def _second_moment_map(Ad, An):
    """Ad'(x)Ad' + An'(x)An' (n^2 x n^2): the map X -> Ad'X Ad + An'X An
    acting on X flattened row by row."""
    n2 = Ad.size
    T = Ad.T[:, None, :, None] * Ad.T[None, :, None, :]
    T += An.T[:, None, :, None] * An.T[None, :, None, :]
    return T.reshape(n2, n2)


def _policy_values(cost, policy, T):
    """The values (P1, P2), stacked (2, n, n), of the fixed gains in policy
    (_policy_terms); T is their _second_moment_map.

    Both generalized Lyapunov equations P = Ad'P Ad + An'P An + W, with
    W1 = -Q - K2'K2 + g^2 K1'K1 and W2 = Q + K2'K2, are one n^2 x n^2 solve
    (I - T) vec P = vec W with two right-hand sides.  The values are the
    gains' costs only when T's spectral radius is below 1.
    """
    K1, K2tK2 = policy[:2]
    W2 = cost.Q + K2tK2
    W1 = cost.gamma**2 * (K1.T @ K1) - W2
    vecP = np.linalg.solve(np.eye(len(T)) - T, np.stack((W1.ravel(), W2.ravel()), axis=1))
    # C-ordered, so P1 and P2 feed the gain system as a ValuePair's copies do
    return symmetrize(np.ascontiguousarray(vecP.T).reshape(2, *W1.shape))


def _policy_step(cost, PP, policy):
    """The exact values of the gains in policy (PP is not read); raises
    ConvergenceError when the gains are not mean-square stabilizing, as
    their values are then not their costs."""
    Ad, An = policy[3:5]
    T = _second_moment_map(Ad, An)
    if not np.isfinite(T).all():
        raise ConvergenceError("no fixed point: the gains left the finite range")
    # T is the transpose of ms_radius's map: the same spectrum, not built twice
    rho = _spectral_radius(T)
    if not rho < 1.0:
        raise ConvergenceError(f"the gains are not mean-square stabilizing "
                               f"(ms radius {rho:.4g})")
    return _policy_values(cost, policy, T)


def solve_coupled_gare_pi(sys, cost, tol=1e-9, max_iters=5000):
    """Solve the coupled equations by policy iteration from zero gains:
    _value_iteration with _policy_step, which evaluates each sweep's gains.

    The report has the shape of solve_coupled_gare's, one history row per
    sweep, its residuals at the sweep's values and the gains extracted from
    them; the report's gains are those extracted from the last values.
    Raises as _value_iteration does (no report attached), unstabilizing
    gains included, the zero start at sweep 1; AttenuationInfeasibleError
    and GainExtractionError as gains_from_values does.
    """
    sweeps = list(_value_iteration(sys, cost, tol, max_iters, _policy_step))
    values = ValuePair(*sweeps[-1][2:4])
    gains = gains_from_values(sys, cost, values)
    # the gains extracted from sweep s's values are those sweep s + 1 evaluates
    extracted = [s[:2] for s in sweeps[1:]] + [(gains.K1, gains.K2)]
    rows = _residual_rows(sys, cost, _delta_constants(sys, cost),
                          [(*K, *s[2:4]) for K, s in zip(extracted, sweeps)])
    return SolveReport(values, gains, tuple(s[4] + r for s, r in zip(sweeps, rows)),
                       ms_stable(*closed_loop_pair(sys, gains)))


def random_feasible_system(rng, n=3, m1=1, m2=1, gamma=5.0, max_tries=200):
    """Draw a random system the solver provably handles; rejection-sampled.

    A1 is scaled to spectral radius 0.9, A2 so the open-loop second-moment
    radius stays below 0.95, and the input/disturbance columns are kept
    small.  Retries until solve_coupled_gare converges feasibly.
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
            solve_coupled_gare(sys, cost, tol=1e-9, max_iters=3000)
        except (AttenuationInfeasibleError, ConvergenceError, GainExtractionError):
            continue
        return sys, cost
    raise RuntimeError(f"no feasible random system found in {max_tries} tries")
