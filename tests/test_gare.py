"""Coupled-equation algebra, the solver, and the comparison-sequence bounds."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stoch_h2hinf import (
    AlgoConfig,
    AttenuationInfeasibleError,
    ConfigError,
    ConvergenceError,
    CostSpec,
    GainPair,
    SdltiSystem,
    ValuePair,
    closed_loop_pair,
    f16_initial_gains,
    f16_reference,
    gains_from_values,
    gare_residuals,
    ms_radius,
    ms_stable,
    random_feasible_system,
    run_value_iteration,
    solve_coupled_gare,
    solve_coupled_gare_pi,
    vi_value_update,
)
from stoch_h2hinf import gare, qfunction
from stoch_h2hinf.cli import main


def test_quadratic_map_scalar(scalar_sys, scalar_cost):
    # A2+C2*0.1 = 0.105, A1+B1*(-0.2)+C1*0.1 = 0.72,
    # map = X*(0.105^2 + 0.72^2): 1.05885 at X = 2, -0.529425 at X = -1.
    # The update adds -Q - K2'K2 + g^2 K1'K1 to the first and Q + K2'K2 to the second.
    vals = ValuePair(np.array([[-1.0]]), np.array([[2.0]]))
    gains = GainPair(np.array([[0.1]]), np.array([[-0.2]]))
    out = vi_value_update(scalar_sys, scalar_cost, vals, gains)
    assert out.P1[0, 0] - (-1.0 - 0.04 + 4.0 * 0.01) == pytest.approx(-0.529425, abs=1e-14)
    assert out.P2[0, 0] - (1.0 + 0.04) == pytest.approx(1.05885, abs=1e-14)


def test_quadratic_map_open_loop(f16):
    # with zero gains the update is (-Q, Q) plus A(X) = A2'XA2 + A1'XA1
    sys_, cost = f16
    rng = np.random.default_rng(2)
    M = rng.standard_normal((3, 3))
    X = M + M.T
    out = vi_value_update(sys_, cost, ValuePair(X, X), GainPair.zeros(3))
    expect = sys_.A2.T @ X @ sys_.A2 + sys_.A1.T @ X @ sys_.A1
    np.testing.assert_allclose(out.P1, expect - cost.Q, atol=1e-13)
    np.testing.assert_allclose(out.P2, expect + cost.Q, atol=1e-13)


def test_gains_from_values_zero(f16):
    sys_, cost = f16
    g = gains_from_values(sys_, cost, ValuePair.zeros(3))
    assert not g.K1.any() and not g.K2.any()


def test_gains_from_values_scalar_elimination(scalar_sys, scalar_cost):
    vals = ValuePair(np.array([[-1.0]]), np.array([[2.0]]))
    g = gains_from_values(scalar_sys, scalar_cost, vals)
    assert g.K1[0, 0] == pytest.approx(0.1675 / 5.95625, abs=1e-14)
    assert g.K2[0, 0] == pytest.approx(-3.199 / 5.95625, abs=1e-14)


def test_gains_from_reference_values(f16):
    # The bundled 4-decimal reference values are internally inconsistent
    # at the 1e-2 level; gains extracted from them land near the
    # reference gains but outside the nominal 1e-3 print precision.
    sys_, cost = f16
    ref_vals, ref_gains = f16_reference()
    g = gains_from_values(sys_, cost, ref_vals)
    assert np.abs(g.K1 - ref_gains.K1).max() < 5e-3
    assert np.abs(g.K2 - ref_gains.K2).max() < 5e-3


def test_gains_from_values_rejects_infeasible_gamma():
    sys_ = SdltiSystem([[0.5]], [[0.0]], [[1.0]], [[1.0]], [[0.5]])
    cost = CostSpec(0.3, [[1.0]])
    vals = ValuePair([[-2.0]], [[1.0]])
    with pytest.raises(AttenuationInfeasibleError):
        gains_from_values(sys_, cost, vals)


def test_vi_update_from_zero(f16):
    sys_, cost = f16
    vals = vi_value_update(sys_, cost, ValuePair.zeros(3), GainPair.zeros(3))
    np.testing.assert_allclose(vals.P1, -np.eye(3), atol=1e-15)
    np.testing.assert_allclose(vals.P2, np.eye(3), atol=1e-15)


def test_vi_update_scalar_oracle(scalar_sys, scalar_cost):
    vals = ValuePair(np.array([[-1.0]]), np.array([[2.0]]))
    gains = GainPair(np.array([[0.1]]), np.array([[-0.2]]))
    out = vi_value_update(scalar_sys, scalar_cost, vals, gains)
    assert out.P1[0, 0] == pytest.approx(-1.529425, abs=1e-14)
    assert out.P2[0, 0] == pytest.approx(2.09885, abs=1e-14)


def test_qlearn_update_fixed_point_own_solution(f16, f16_solution):
    sys_, cost = f16
    vals = f16_solution.values
    out = vi_value_update(sys_, cost, vals, gains_from_values(sys_, cost, vals))
    assert np.linalg.norm(out.P1 - vals.P1) < 1e-8
    assert np.linalg.norm(out.P2 - vals.P2) < 1e-8


def test_qlearn_update_near_reference_values(f16):
    # The 4-decimal reference pair moves by ~1e-2 under one update, an
    # order of magnitude more than rounding alone would explain; the
    # exact fixed point nearby is the one the solver converges to.
    sys_, cost = f16
    ref_vals, _ = f16_reference()
    out = vi_value_update(sys_, cost, ref_vals, gains_from_values(sys_, cost, ref_vals))
    move = max(
        np.linalg.norm(out.P1 - ref_vals.P1), np.linalg.norm(out.P2 - ref_vals.P2)
    )
    assert 1e-3 < move < 5e-2


def test_residuals_at_zero(f16):
    sys_, cost = f16
    r1, r2 = gare_residuals(sys_, cost, ValuePair.zeros(3), GainPair.zeros(3))
    np.testing.assert_allclose(r1, -np.eye(3), atol=1e-15)
    np.testing.assert_allclose(r2, np.eye(3), atol=1e-15)


def test_residuals_at_own_solution(f16, f16_solution):
    sys_, cost = f16
    r1, r2 = gare_residuals(sys_, cost, f16_solution.values, f16_solution.gains)
    assert np.linalg.norm(r1) < 1e-10
    assert np.linalg.norm(r2) < 1e-10


def test_residuals_at_reference_values(f16):
    # Documented: the bundled reference values do not satisfy the coupled
    # equations to print precision; residual norms sit near 1.7e-2.
    sys_, cost = f16
    ref_vals, ref_gains = f16_reference()
    r1, r2 = gare_residuals(sys_, cost, ref_vals, ref_gains)
    assert 5e-3 < np.linalg.norm(r1) < 5e-2
    assert 5e-3 < np.linalg.norm(r2) < 5e-2


def test_solve_f16_properties(f16, f16_solution):
    sys_, cost = f16
    rep = f16_solution
    assert rep.stable
    assert np.linalg.eigvalsh(rep.values.P1).max() <= 1e-9
    assert np.linalg.eigvalsh(rep.values.P2).min() >= -1e-9
    d1 = cost.gamma**2 * np.eye(1) + sys_.C2.T @ rep.values.P1 @ sys_.C2
    d1 += sys_.C1.T @ rep.values.P1 @ sys_.C1
    d2 = np.eye(1) + sys_.B1.T @ rep.values.P2 @ sys_.B1
    assert np.linalg.eigvalsh(d1).min() > 0
    assert np.linalg.eigvalsh(d2).min() > 0


def test_solve_one_step_dead():
    z = np.zeros((3, 3))
    c = 0.1 * np.ones((3, 1))
    sys_ = SdltiSystem(z, z, np.ones((3, 1)), c, c)
    cost = CostSpec(2.0, np.diag([1.0, 2.0, 3.0]))
    rep = solve_coupled_gare(sys_, cost, tol=1e-12, max_iters=10)
    assert rep.iterations <= 2
    np.testing.assert_allclose(rep.values.P1, -cost.Q, atol=1e-14)
    np.testing.assert_allclose(rep.values.P2, cost.Q, atol=1e-14)
    assert not rep.gains.K1.any() and not rep.gains.K2.any()


def test_solve_nonconvergence_carries_report(f16):
    sys_, cost = f16
    with pytest.raises(ConvergenceError) as exc:
        solve_coupled_gare(sys_, cost, tol=1e-9, max_iters=3)
    assert exc.value.report.iterations == 3


def test_solve_history_schema(f16_solution):
    hist = np.asarray(f16_solution.history)
    assert hist.shape == (f16_solution.iterations, 4)
    assert (hist[:, :2] >= 0).all()
    # Final residual columns agree with the reported terminal residuals.
    np.testing.assert_allclose(hist[-1, 2:], f16_solution.residual_norms, rtol=1e-9)


def test_solve_report_csv(tmp_path, f16_solution):
    path = tmp_path / "solve.csv"
    f16_solution.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,dP1_fro,dP2_fro,res1_fro,res2_fro"
    assert len(lines) == f16_solution.iterations + 1
    last = lines[-1].split(",")
    assert int(last[0]) == f16_solution.iterations
    assert float(last[3]) == pytest.approx(f16_solution.residual_norms[0], rel=1e-6)


def _csv_per_cell(history):
    """solve.csv as one f-string per cell: SolveReport.to_csv's byte reference."""
    lines = ["iter,dP1_fro,dP2_fro,res1_fro,res2_fro"]
    for i, row in enumerate(history, start=1):
        lines.append(f"{i}," + ",".join(f"{x:.12g}" for x in row))
    return "\n".join(lines) + "\n"


def test_solve_report_csv_bytes(tmp_path, f16_solution):
    sys_ = SdltiSystem([[1.5]], [[0.0]], [[0.0]], [[0.0]], [[0.0]])
    with pytest.raises(ConvergenceError) as exc:
        solve_coupled_gare(sys_, CostSpec(1.0, [[1.0]]), tol=1e-9, max_iters=5000)
    # the diverged report's last rows are inf in every column
    diverged = exc.value.report
    odd = ((float("inf"), float("nan"), -0.0, 0.0),
           (-float("inf"), 5e-324, 1.0 / 3.0, -1e300))
    reports = [f16_solution, diverged,
               dataclasses.replace(f16_solution, history=odd),
               dataclasses.replace(diverged, history=())]
    for k, report in enumerate(reports):
        path = tmp_path / f"solve{k}.csv"
        report.to_csv(path)
        assert path.read_bytes() == _csv_per_cell(report.history).encode()
    assert (tmp_path / "solve3.csv").read_text() == "iter,dP1_fro,dP2_fro,res1_fro,res2_fro\n"


def test_ms_radius_examples(f16, f16_solution):
    assert ms_radius(0.5 * np.eye(2), np.zeros((2, 2))) == pytest.approx(0.25)
    assert not ms_stable(np.eye(2), np.zeros((2, 2)))
    a1, a2 = closed_loop_pair(f16[0], f16_solution.gains)
    assert ms_stable(a1, a2)
    assert ms_radius(a1, a2) == pytest.approx(0.967, abs=2e-3)


def _frozen_policy_values(sys_, cost, eta1, eta2, iters):
    """Values of the frozen policy (eta1, eta2) from (0, 0): the list
    [(0, 0), sweep 1, ..., sweep iters] that the comparison arguments
    sandwich the optimal recursion with."""
    gains = GainPair(eta1, eta2)
    seq = [ValuePair.zeros(sys_.n)]
    for _ in range(iters):
        seq.append(vi_value_update(sys_, cost, seq[-1], gains))
    return seq


def test_fixed_policy_monotone_bounded_without_disturbance(f16, f16_solution):
    sys_, cost = f16
    for eta2 in (f16_solution.gains.K2, f16_initial_gains().K2):
        seq = _frozen_policy_values(sys_, cost, np.zeros((1, 3)), eta2, 700)
        for a, b in zip(seq, seq[1:]):
            assert np.linalg.eigvalsh(b.P2 - a.P2).min() >= -1e-9
        assert np.linalg.norm(seq[-1].P2 - seq[-2].P2) < 1e-8
        assert np.isfinite(seq[-1].P2).all()


def test_fixed_policy_dominates_value_iteration_at_saddle(f16, f16_solution):
    # The comparison inequality Psi2 >= V2 holds when the frozen policy
    # is the saddle point; its limit is then exactly P2*, which bounds
    # the monotone value-iteration sequence from above.
    sys_, cost = f16
    g = f16_solution.gains
    seq = _frozen_policy_values(sys_, cost, g.K1, g.K2, 250)
    vals = ValuePair.zeros(3)
    for psi in seq[1:]:
        vals = vi_value_update(sys_, cost, vals, gains_from_values(sys_, cost, vals))
        assert np.linalg.eigvalsh(psi.P2 - vals.P2).min() >= -1e-9
        assert np.linalg.eigvalsh(f16_solution.values.P2 - vals.P2).min() >= -1e-8


def test_fixed_policy_comparison_fails_off_saddle(f16, f16_solution):
    # Counterexample kept on purpose: freezing eta1 = 0 (no adversary)
    # produces Psi2 iterates strictly below the value-iteration run, so
    # the comparison cannot hold for arbitrary admissible policies.
    sys_, cost = f16
    seq = _frozen_policy_values(
        sys_, cost, np.zeros((1, 3)), f16_solution.gains.K2, 250
    )
    vals = ValuePair.zeros(3)
    worst = 0.0
    for psi in seq[1:]:
        vals = vi_value_update(sys_, cost, vals, gains_from_values(sys_, cost, vals))
        worst = min(worst, np.linalg.eigvalsh(psi.P2 - vals.P2).min())
    assert worst < -1.0


def test_random_population_feasible(random_population):
    assert len(random_population) == 20
    for sys_, cost in random_population:
        rep = solve_coupled_gare(sys_, cost, tol=1e-9, max_iters=5000)
        assert rep.stable
        a1, a2 = closed_loop_pair(sys_, rep.gains)
        assert ms_radius(a1, a2) < 1.0


def _public_solve(sys_, cost, tol, max_iters, history):
    """The value recursion written on the public helpers, one ValuePair and
    one GainPair per sweep; fills history and returns (values, gains, converged).

    gains_from_values and vi_value_update read the gains and the next values
    from h_from_values, as the learner does; solve_coupled_gare runs the
    same recursion on raw stacks and must match it bit for bit.
    """
    vals = ValuePair.zeros(sys_.n)
    gains = GainPair.zeros(sys_.n, sys_.m1, sys_.m2)
    for _ in range(max_iters):
        gains = gains_from_values(sys_, cost, vals)
        nxt = vi_value_update(sys_, cost, vals, gains)
        d1 = float(np.linalg.norm(nxt.P1 - vals.P1))
        d2 = float(np.linalg.norm(nxt.P2 - vals.P2))
        R1, R2 = gare_residuals(sys_, cost, nxt, gains)
        history.append((d1, d2, float(np.linalg.norm(R1)), float(np.linalg.norm(R2))))
        vals = nxt
        if d1 < tol and d2 < tol:
            return vals, gains, True
    return vals, gains, False


def _sym(M):
    return (M + M.T) / 2.0


def _plain_q_form(sys_, cost):
    """L = [A1 B1 C1], G = [A2 0 C2] and the constant blocks of H1 and H2."""
    n, m1, m2 = sys_.dims
    L = np.hstack([sys_.A1, sys_.B1, sys_.C1])
    G = np.hstack([sys_.A2, np.zeros((n, m1)), sys_.C2])
    base1, base2 = np.zeros((sys_.p, sys_.p)), np.zeros((sys_.p, sys_.p))
    base1[:n, :n], base2[:n, :n] = -cost.Q, cost.Q
    base1[n:n + m1, n:n + m1], base2[n:n + m1, n:n + m1] = -np.eye(m1), np.eye(m1)
    base1[n + m1:, n + m1:] = cost.gamma**2 * np.eye(m2)
    return L, G, base1, base2


def _plain_q_gains(sys_, cost, P1, P2):
    """H1 and H2 at (P1, P2), one member at a time, and T = [I; K2; K1] with
    the gains solved from their blocks after the solver's Delta check."""
    n, m1, m2 = sys_.dims
    x, u, v = slice(0, n), slice(n, n + m1), slice(n + m1, None)
    L, G, base1, base2 = _plain_q_form(sys_, cost)
    H1 = _sym(base1 + L.T @ P1 @ L + G.T @ P1 @ G)
    H2 = _sym(base2 + L.T @ P2 @ L + G.T @ P2 @ G)
    for name, D in (("Delta1", H1[v, v]), ("Delta2", H2[u, u])):
        if float(np.linalg.eigvalsh(_sym(D)).min()) <= 1e-12:
            raise AttenuationInfeasibleError(
                f"{name} is not positive definite; gamma={cost.gamma} too small")
    blk = np.block([[H1[v, v], H1[u, v].T], [H2[u, v], H2[u, u]]])
    KK = -np.linalg.solve(blk, np.vstack([H1[x, v].T, H2[x, u].T]))
    return H1, H2, np.vstack([np.eye(n), KK[m2:], KK[:m2]])


def _plain_residuals(sys_, cost, P1, P2, K1, K2):
    """Frobenius norms of the coupled equations' left-hand sides, one product at a time."""
    A1, A2, B1, C1, C2 = sys_.A1, sys_.A2, sys_.B1, sys_.C1, sys_.C2
    Q, g2 = cost.Q, cost.gamma**2
    Au = A1 + B1 @ K2
    An = A2 + C2 @ K1
    Av = A1 + C1 @ K1
    D1 = g2 * np.eye(sys_.m2) + C2.T @ P1 @ C2 + C1.T @ P1 @ C1
    D2 = np.eye(sys_.m1) + B1.T @ P2 @ B1
    M1 = Au.T @ P1 @ C1 + A2.T @ P1 @ C2
    R1 = (-P1 + Au.T @ P1 @ Au - Q + A2.T @ P1 @ A2 - K2.T @ K2
          - M1 @ np.linalg.solve(D1, M1.T))
    M2 = Av.T @ P2 @ B1
    R2 = -P2 + Av.T @ P2 @ Av + Q + An.T @ P2 @ An - M2 @ np.linalg.solve(D2, M2.T)
    return float(np.linalg.norm(_sym(R1))), float(np.linalg.norm(_sym(R2)))


def _plain_loop(sweep, sys_, cost, tol, max_iters, history):
    """sweep(sys_, cost, P1, P2) -> (K1, K2, P1+, P2+) from (0, 0) to the
    recursion's stop rule, with _public_solve's contract: history gets
    (dP1, dP2, res1, res2) per sweep, the residuals at its values and gains."""
    P1 = P2 = np.zeros((sys_.n, sys_.n))
    for _ in range(max_iters):
        K1, K2, P1n, P2n = sweep(sys_, cost, P1, P2)
        d1 = float(np.linalg.norm(P1n - P1))
        d2 = float(np.linalg.norm(P2n - P2))
        history.append((d1, d2) + _plain_residuals(sys_, cost, P1n, P2n, K1, K2))
        P1, P2 = P1n, P2n
        if d1 < tol and d2 < tol:
            return ValuePair(P1, P2), GainPair(K1, K2), True
    return ValuePair(P1, P2), GainPair(K1, K2), False


def _plain_q_sweep(sys_, cost, P1, P2):
    """One sweep in Q-form: the next values are the sandwich T'H T."""
    H1, H2, T = _plain_q_gains(sys_, cost, P1, P2)
    n, m1 = sys_.n, sys_.m1
    return T[n + m1:], T[n:n + m1], _sym(T.T @ H1 @ T), _sym(T.T @ H2 @ T)


def _plain_solve(sys_, cost, tol, max_iters, history):
    """The value recursion in Q-form spelled out one product at a time, as a
    plain loop on numpy alone: H1 and H2 at the values, the gains solved
    from their blocks, the next values as the sandwich [I; K2; K1]'H[I; K2; K1],
    each written where it is used, nothing shared between sweeps or members.
    Same contract as _public_solve, and independent of the package's helpers,
    which the public wrappers call too.
    """
    return _plain_loop(_plain_q_sweep, sys_, cost, tol, max_iters, history)


def _classic_sweep(sys_, cost, P1, P2):
    """One sweep of the value recursion in its classic form, one product at a
    time: (K1, K2) from the Delta blocks and the stacked gain system at P1
    and P2, then P1+ = A(P1) - Q - K2'K2 + g^2 K1'K1 and P2+ = A(P2) + Q + K2'K2
    with A(X) = An'X An + Ad'X Ad.  The same recursion as the Q-form in
    another order of rounding: an independent cross-check, equal to rounding.
    """
    A1, A2, B1, C1, C2 = sys_.A1, sys_.A2, sys_.B1, sys_.C1, sys_.C2
    Q, g2, m2 = cost.Q, cost.gamma**2, sys_.m2
    D1 = g2 * np.eye(m2) + C2.T @ P1 @ C2 + C1.T @ P1 @ C1
    D2 = np.eye(sys_.m1) + B1.T @ P2 @ B1
    for name, D in (("Delta1", D1), ("Delta2", D2)):
        if float(np.linalg.eigvalsh(_sym(D)).min()) <= 1e-12:
            raise AttenuationInfeasibleError(
                f"{name} is not positive definite; gamma={cost.gamma} too small")
    blk = np.block([[D1, C1.T @ P1 @ B1], [B1.T @ P2 @ C1, D2]])
    rhs = -np.vstack([C1.T @ P1 @ A1 + C2.T @ P1 @ A2, B1.T @ P2 @ A1])
    KK = np.linalg.solve(blk, rhs)
    K1, K2 = KK[:m2], KK[m2:]
    Ad = A1 + B1 @ K2 + C1 @ K1
    An = A2 + C2 @ K1
    K2tK2 = K2.T @ K2
    P1n = _sym(_sym(An.T @ P1 @ An + Ad.T @ P1 @ Ad) - Q - K2tK2 + g2 * (K1.T @ K1))
    P2n = _sym(_sym(An.T @ P2 @ An + Ad.T @ P2 @ Ad) + Q + K2tK2)
    return K1, K2, P1n, P2n


def _classic_solve(sys_, cost, tol, max_iters, history):
    """_classic_sweep from (0, 0), with _plain_solve's contract."""
    return _plain_loop(_classic_sweep, sys_, cost, tol, max_iters, history)


def _assert_same_report(report, vals, gains, history):
    assert report.history == tuple(history)
    np.testing.assert_array_equal(report.values.P1, vals.P1)
    np.testing.assert_array_equal(report.values.P2, vals.P2)
    np.testing.assert_array_equal(report.gains.K1, gains.K1)
    np.testing.assert_array_equal(report.gains.K2, gains.K2)


def _assert_bit_identical(sys_, cost, tol):
    report = solve_coupled_gare(sys_, cost, tol=tol, max_iters=10000)
    for recursion in (_public_solve, _plain_solve):
        history = []
        vals, gains, converged = recursion(sys_, cost, tol, 10000, history)
        assert converged
        _assert_same_report(report, vals, gains, history)


def test_solver_bit_identical_f16(f16, f16_solution):
    for recursion in (_public_solve, _plain_solve):
        history = []
        vals, gains, _ = recursion(*f16, 1e-12, 10000, history)
        assert len(history) == 865
        _assert_same_report(f16_solution, vals, gains, history)


def test_solver_bit_identical_population(random_population):
    for sys_, cost in random_population:
        _assert_bit_identical(sys_, cost, 1e-9)


@pytest.mark.parametrize("n,m1,m2", [(3, 2, 2), (3, 1, 2), (3, 2, 1), (4, 3, 1)])
def test_solver_bit_identical_two_inputs_each(n, m1, m2):
    # beyond m1 = m2 = 1 the stacked gain system has blocks larger than 1x1;
    # with m1 != m2 one Delta block is read directly and the other goes
    # through eigvalsh, and the shared left products are not square
    sys_, cost = random_feasible_system(np.random.default_rng(3), n=n, m1=m1, m2=m2)
    assert sys_.dims == (n, m1, m2)
    _assert_bit_identical(sys_, cost, 1e-12)


def _assert_near(a, b, rtol):
    """Every entry of a - b within rtol times the largest entry of b."""
    assert np.abs(a - b).max() <= rtol * np.abs(b).max()


def _assert_near_classic(sys_, cost, tol, rtol):
    """The solver against the classic recursion: the same sweep count, and
    values and gains within rtol, relative to each matrix's largest entry."""
    report = solve_coupled_gare(sys_, cost, tol=tol, max_iters=10000)
    history = []
    vals, gains, converged = _classic_solve(sys_, cost, tol, 10000, history)
    assert converged and report.iterations == len(history)
    for a, b in ((report.values.P1, vals.P1), (report.values.P2, vals.P2),
                 (report.gains.K1, gains.K1), (report.gains.K2, gains.K2)):
        _assert_near(a, b, rtol)


def test_solver_matches_classic_recursion(f16, random_population):
    # the Q-form reorders the recursion's rounding only: F-16 still sweeps
    # 865 times at tol 1e-12
    _assert_near_classic(*f16, 1e-12, 1e-12)
    for sys_, cost in random_population:
        _assert_near_classic(sys_, cost, 1e-9, 1e-12)
    for n, m1, m2 in ((3, 2, 2), (3, 1, 2), (3, 2, 1), (4, 3, 1)):
        sys_, cost = random_feasible_system(np.random.default_rng(3), n=n, m1=m1, m2=m2)
        _assert_near_classic(sys_, cost, 1e-12, 1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), m1=st.integers(1, 2),
       m2=st.integers(1, 2))
def test_solver_fixed_point_matches_classic_property(seed, n, m1, m2):
    # both recursions meet the same fixed point, whatever their sweep counts
    sys_, cost = random_feasible_system(np.random.default_rng(seed), n=n, m1=m1, m2=m2)
    report = solve_coupled_gare(sys_, cost, tol=1e-12, max_iters=10000)
    vals, gains, converged = _classic_solve(sys_, cost, 1e-12, 10000, [])
    assert converged
    for a, b in ((report.values.P1, vals.P1), (report.values.P2, vals.P2),
                 (report.gains.K1, gains.K1), (report.gains.K2, gains.K2)):
        _assert_near(a, b, 1e-10)


# Delta1 is 1x1 on the first plant and 2x2 on the second, whose least
# eigenvalue crosses zero while its (0, 0) entry is still positive
INFEASIBLE = [
    (SdltiSystem([[0.5]], [[0.0]], [[1.0]], [[1.0]], [[0.5]]), 0.9),
    (SdltiSystem([[0.5]], [[0.0]], [[1.0]], [[0.3, 1.0]], [[0.2, 0.5]]), 0.9),
]


def test_solver_infeasible_gamma_same_error_same_sweep(monkeypatch):
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        seen.append(a.shape)
        return eigvalsh(a)

    for sys_, gamma in INFEASIBLE:
        cost = CostSpec(gamma, [[1.0]])
        failing = set()
        for recursion in (_classic_solve, _public_solve, _plain_solve):
            history = []
            with pytest.raises(AttenuationInfeasibleError) as ref:
                recursion(sys_, cost, 1e-12, 10000, history)
            failing.add((len(history) + 1, str(ref.value)))
        ((sweep, message),) = failing
        assert sweep > 1 and message.startswith("Delta1 is not positive definite")
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", recording)
            with pytest.raises(AttenuationInfeasibleError) as got:
                solve_coupled_gare(sys_, cost, tol=1e-12, max_iters=sweep)
        assert str(got.value) == message
        # only blocks larger than 1x1 reach eigvalsh, once per sweep
        assert seen == [(sys_.m2, sys_.m2)] * (sweep if sys_.m2 > 1 else 0)
        # the sweeps before the failing one complete as in the plain recursion
        with pytest.raises(ConvergenceError) as short:
            solve_coupled_gare(sys_, cost, tol=1e-12, max_iters=sweep - 1)
        assert short.value.report.history == tuple(history)
        if sys_.m2 > 1:
            # Delta1 at the last finite values: its (0, 0) entry alone would pass
            P1 = short.value.report.values.P1
            D1 = gamma**2 * np.eye(2) + sys_.C2.T @ P1 @ sys_.C2 + sys_.C1.T @ P1 @ sys_.C1
            assert D1[0, 0] > 0 > np.linalg.eigvalsh(D1).min()


# Delta1 = g^2 + P1 is exactly 0 at the values of sweep 3: that sweep's
# residual meets a singular block, and sweep 4's definiteness check fails
SINGULAR_AT_3 = (SdltiSystem([[0.4]], [[0.0]], [[1.0]], [[1.0]], [[0.0]]),
                 CostSpec(1.076086424236219, [[1.0]]))


def test_solver_residual_blocks_bit_identical(f16, random_population, monkeypatch):
    # the residual columns come from stacked passes over blocks of sweeps; any
    # block length gives the bits of one residual per sweep, on every exit
    plain = []
    for sys_, cost in [f16] + random_population:
        history = []
        vals, gains, converged = _plain_solve(sys_, cost, 1e-9, 10000, history)
        assert converged
        plain.append((sys_, cost, vals, gains, history))
    short = []
    short_vals, short_gains, _ = _plain_solve(*f16, 1e-9, 10, short)
    sys_, cost = SINGULAR_AT_3
    before = []
    with pytest.raises(AttenuationInfeasibleError) as ref:
        _public_solve(sys_, cost, 1e-12, 10000, before)
    assert len(before) == 2 and str(ref.value) == "Delta1 is singular: Singular matrix"
    plain_pi = []
    for sys_, cost in [f16] + random_population:
        history = []
        vals, gains, converged = _plain_pi(sys_, cost, 1e-12, 100, history)
        assert converged
        plain_pi.append((sys_, cost, vals, gains, history))
    for block in (1, 2, 7):
        monkeypatch.setattr(gare, "_RES_BLOCK", block)
        for sys_, cost, vals, gains, history in plain:
            report = solve_coupled_gare(sys_, cost, tol=1e-9, max_iters=10000)
            _assert_same_report(report, vals, gains, history)
        for sys_, cost, vals, gains, history in plain_pi:
            report = solve_coupled_gare_pi(sys_, cost, tol=1e-12)
            _assert_same_report(report, vals, gains, history)
        with pytest.raises(ConvergenceError) as exc:
            solve_coupled_gare(*f16, tol=1e-9, max_iters=10)
        _assert_same_report(exc.value.report, short_vals, short_gains, short)
        sys_, cost = SINGULAR_AT_3
        for max_iters in (3, 10000):
            with pytest.raises(AttenuationInfeasibleError) as got:
                solve_coupled_gare(sys_, cost, tol=1e-12, max_iters=max_iters)
            assert str(got.value) == str(ref.value)
        with pytest.raises(ConvergenceError) as exc:
            solve_coupled_gare(sys_, cost, tol=1e-12, max_iters=2)
        assert exc.value.report.history == tuple(before)


def test_residual_pass_names_first_singular_block():
    # b1 = c1 = 1, c2 = 0 and gamma = 1: Delta1 = 1 + P1 and Delta2 = 1 + P2
    sys_ = SdltiSystem([[0.5]], [[0.0]], [[1.0]], [[1.0]], [[0.0]])
    cost = CostSpec(1.0, [[1.0]])
    K = np.zeros((1, 1))

    def sweep(p1, p2):
        return K, K, np.array([[p1]]), np.array([[p2]])

    ok, d1, d2, both = sweep(-0.5, 1.0), sweep(-1.0, 1.0), sweep(-0.5, -1.0), sweep(-1.0, -1.0)
    # the stacked Delta1 solve fails first in [ok, d2, d1], but sweep d2 comes first
    for block, name in (([ok, d2, d1], "Delta2"), ([ok, d1, d2], "Delta1"),
                        ([ok, both], "Delta1")):
        # the solver's stacks: [K1; K2] (S, 2, 1) and (P1, P2) (S, 2, 1, 1)
        stacks = np.array(block)
        with pytest.raises(AttenuationInfeasibleError, match=f"^{name} is singular"):
            gare._residual_rows(sys_, cost, stacks[:, :2, 0], stacks[:, 2:])


def test_residuals_once_per_block(f16, monkeypatch):
    stacks = []
    residuals = gare._residuals

    def spy(sys_, cost, P1, *rest):
        stacks.append(len(P1))
        return residuals(sys_, cost, P1, *rest)

    monkeypatch.setattr(gare, "_residuals", spy)
    assert solve_coupled_gare(*f16, tol=1e-12, max_iters=10000).iterations == 865
    assert len(stacks) == math.ceil(865 / gare._RES_BLOCK) and sum(stacks) == 865
    stacks.clear()
    run_value_iteration(*f16, AlgoConfig(tol=1e-9, max_iters=10000))
    assert stacks == []
    # gamma 0.4214 sits just above the F-16 attenuation level, where policy
    # iteration takes hundreds of sweeps: their residuals come in blocks too
    sys_, cost = f16
    report = solve_coupled_gare_pi(sys_, CostSpec(0.4214, cost.Q))
    assert report.iterations == 522 and report.stable
    assert max(stacks) <= gare._RES_BLOCK and sum(stacks) == 522


def test_solver_max_iters_report_equal(f16):
    sys_, cost = f16
    history = []
    vals, gains, converged = _public_solve(sys_, cost, 1e-9, 3, history)
    assert not converged
    with pytest.raises(ConvergenceError, match="no fixed point within 3 iterations") as exc:
        solve_coupled_gare(sys_, cost, tol=1e-9, max_iters=3)
    _assert_same_report(exc.value.report, vals, gains, history)
    assert exc.value.report.stable == ms_stable(*closed_loop_pair(sys_, gains))


def test_solver_divergence_is_convergence_error():
    # P1 and P2 grow by a1^2 = 2.25 per sweep until they overflow
    sys_ = SdltiSystem([[1.5]], [[0.0]], [[0.0]], [[0.0]], [[0.0]])
    cost = CostSpec(1.0, [[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as exc:
            solve_coupled_gare(sys_, cost, tol=1e-9, max_iters=5000)
    message = str(exc.value)
    assert message == "no fixed point: the iterate left the finite range at sweep 875"
    report = exc.value.report
    assert report.iterations == 874
    assert np.isfinite(report.values.P1).all() and np.isfinite(report.values.P2).all()
    assert report.values.P2[0, 0] > 1e307


def test_solver_builds_value_and_gain_pairs_once(f16, monkeypatch):
    # the loop runs on raw arrays: the number of validated model objects a
    # solve builds must not grow with its sweep count
    built = []
    for cls in (ValuePair, GainPair):
        original = cls.__post_init__

        def counting(self, _original=original, _name=cls.__name__):
            built.append(_name)
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    counts = {}
    for tol in (1e-6, 1e-12):
        built.clear()
        report = solve_coupled_gare(*f16, tol=tol, max_iters=10000)
        counts[report.iterations] = sorted(built)
    assert 865 in counts and len(counts) == 2
    assert all(c == ["GainPair", "ValuePair"] for c in counts.values())


_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300,
             np.inf, -np.inf, np.nan)


def _draw(rng, shape, special):
    """Normal draws; with special, about 40% of the entries replaced by signed
    zeros, subnormals, huge values, infinities and NaN."""
    a = rng.standard_normal(shape)
    if special:
        hit = rng.random(shape) < 0.4
        a[hit] = rng.choice(_SPECIALS, size=int(hit.sum()))
    return a


def _sweep_forms(rng, n, m, special):
    """(form, a, b) for each shape of product of two matrices a sweep makes,
    a player having m columns; the sweep's instance of each in the comment."""
    def draw(*shape):
        return _draw(rng, shape, special)

    K = draw(m, n)
    return [("row . matrix", draw(m, n), draw(n, n)),            # C1'P1 . A1
            ("matrix . column", draw(n, n), draw(n, m)),         # Au'P1 . C1, residuals
            ("row . column", draw(m, n), draw(n, m)),            # C1'P1 . B1
            ("column . row", draw(n, m), draw(m, n)),            # C1 . K1
            ("transposed view . matrix", draw(n, m).T, draw(n, n)),  # C1' . P1
            ("K' . K on one buffer", K.T, K)]                    # K2'K2: syrk


class TestProductRules:
    """The sweep's products of two matrices run on ndarray.dot; their bits
    against matmul's are pinned here, so a numpy or BLAS upgrade that routes
    one form to another call fails in this class rather than as a moved
    solve."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dot_has_matmuls_bits(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        for special in (False, True):
            for _ in range(1000):
                for form, a, b in _sweep_forms(rng, n, m, special):
                    with np.errstate(all="ignore"):
                        got, expect = a.dot(b), a @ b
                        if a.shape[1] == 1:
                            # an outer product: matmul is a b + 0.0, dot an
                            # fma into +0.0, which keeps an underflow's sign
                            prod = a * b
                            assert expect.tobytes() == (prod + 0.0).tobytes(), \
                                f"rule: matmul's {form} with one column is a b + 0.0"
                            expect = np.where((prod == 0) & (a != 0) & (b != 0), prod, expect)
                    assert got.tobytes() == expect.tobytes(), \
                        f"rule: dot's {form} has matmul's bits"

    def test_outer_products_part_only_on_an_underflow(self):
        a, b = np.array([[5e-324], [1.0]]), np.array([[-0.1, 1.0]])
        assert np.signbit(a.dot(b)[0, 0]) and not np.signbit((a @ b)[0, 0])
        assert (a.dot(b)[1:] == (a @ b)[1:]).all()
        assert gare._mm(a, b).tobytes() == a.dot(b).tobytes()

    def test_mm_is_matmul_on_stacks(self):
        rng = np.random.default_rng(7)
        for S, n, m in ((1, 2, 1), (3, 3, 2), (64, 5, 1)):
            P, K = _draw(rng, (S, n, n), True), _draw(rng, (S, m, n), True)
            C = _draw(rng, (n, m), True)
            # the residual pass's C1'P1, C1K1 and K2'K2 on (S, ., .) stacks
            for a, b in ((C.T, P), (C, K), (np.swapaxes(K, -1, -2), K)):
                with np.errstate(all="ignore"):
                    got, expect = gare._mm(a, b), a @ b
                assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def _assert_same_solution(a, b, atol):
    for x, y in ((a.values.P1, b.values.P1), (a.values.P2, b.values.P2),
                 (a.gains.K1, b.gains.K1), (a.gains.K2, b.gains.K2)):
        np.testing.assert_allclose(x, y, rtol=0, atol=atol)


def test_second_moment_map_is_the_kronecker_sum(f16, f16_solution):
    Ad, An = closed_loop_pair(f16[0], f16_solution.gains)
    np.testing.assert_array_equal(gare._second_moment_map(Ad, An),
                                  np.kron(Ad.T, Ad.T) + np.kron(An.T, An.T))


def test_policy_values_solve_both_lyapunov_equations(f16, f16_solution):
    # at gains halfway to the solution's, each value solves its own
    # generalized Lyapunov equation P = Ad'P Ad + An'P An + W
    sys_, cost = f16
    K1, K2 = 0.5 * f16_solution.gains.K1, 0.5 * f16_solution.gains.K2
    Ad, An = closed_loop_pair(sys_, GainPair(K1, K2))
    W2 = cost.Q + K2.T @ K2
    W1 = cost.gamma**2 * (K1.T @ K1) - W2
    P1, P2 = gare._policy_values(np.stack((W1, W2)), gare._second_moment_map(Ad, An))
    for P, W in ((P1, W1), (P2, W2)):
        np.testing.assert_array_equal(P, P.T)
        R = P - Ad.T @ P @ Ad - An.T @ P @ An - W
        assert np.abs(R).max() < 1e-12 * np.abs(P).max()


def test_policy_iteration_f16(f16, f16_solution):
    # 8 Lyapunov solves where value iteration sweeps 652 times at tol 1e-9;
    # at tol 1e-12 both meet the same fixed point
    sys_, cost = f16
    report = solve_coupled_gare_pi(sys_, cost)
    assert report.iterations == 8 and report.stable
    assert max(report.residual_norms) < 1e-13
    _assert_same_solution(solve_coupled_gare_pi(sys_, cost, tol=1e-12), f16_solution, 1e-10)


def test_policy_iteration_matches_value_iteration_population(random_population):
    for sys_, cost in random_population:
        report = solve_coupled_gare_pi(sys_, cost, tol=1e-12)
        assert report.iterations <= 20
        _assert_same_solution(report,
                              solve_coupled_gare(sys_, cost, tol=1e-12, max_iters=10000), 1e-10)


def test_policy_iteration_report_rows(f16):
    # one row per iteration; the residual columns are gare_residuals at the
    # iteration's values and the gains it evaluated, and the report's values
    # are the exact values of its gains, bit for bit
    sys_, cost = f16
    report = solve_coupled_gare_pi(sys_, cost)
    last = gare_residuals(sys_, cost, report.values, report.gains)
    assert report.residual_norms == tuple(float(np.linalg.norm(R)) for R in last)
    T = np.vstack([np.eye(sys_.n), report.gains.K2, report.gains.K1])
    P1, P2 = gare._policy_step(qfunction._q_form(sys_, cost), None, T)
    np.testing.assert_array_equal(report.values.P1, P1)
    np.testing.assert_array_equal(report.values.P2, P2)
    assert all(len(row) == 4 for row in report.history)


def test_policy_iteration_counts_its_own_stability(f16, monkeypatch):
    # the step's ms radius certifies the gains it evaluated, the reported
    # pair too: one eigvals per sweep and none for the report's stable flag
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    report = solve_coupled_gare_pi(*f16)
    assert report.iterations == 8 and report.stable
    assert calls == [(9, 9)] * 8


def _plain_pi_sweep(sys_, cost, P1, P2):
    """One policy-iteration sweep in Q-form: the gains read from H, refused
    unless mean-square stabilizing (Ad = L T, An = G T), and their values
    from both generalized Lyapunov equations, W = T' base T, as one
    n^2 x n^2 system."""
    n, m1 = sys_.n, sys_.m1
    L, G, base1, base2 = _plain_q_form(sys_, cost)
    T = _plain_q_gains(sys_, cost, P1, P2)[2]
    Ad, An = L @ T, G @ T
    M = np.kron(Ad.T, Ad.T) + np.kron(An.T, An.T)
    if not np.abs(np.linalg.eigvals(M)).max() < 1.0:
        raise ConvergenceError("the gains are not mean-square stabilizing")
    W = np.stack((_sym(T.T @ base1 @ T).ravel(), _sym(T.T @ base2 @ T).ravel()), axis=1)
    vecP = np.linalg.solve(np.eye(n * n) - M, W)
    return (T[n + m1:], T[n:n + m1]) + tuple(_sym(vecP[:, k].reshape(n, n)) for k in (0, 1))


def _plain_pi(sys_, cost, tol, max_iters, history):
    """Policy iteration in Q-form written out on numpy alone (_plain_pi_sweep),
    from zero values to the recursion's stop rule; same contract as
    _public_solve, with the gains each iteration evaluated.
    solve_coupled_gare_pi runs policy iteration as a step of the value
    recursion's loop and must match it bit for bit.
    """
    return _plain_loop(_plain_pi_sweep, sys_, cost, tol, max_iters, history)


def _assert_pi_bit_identical(sys_, cost, tol):
    history = []
    vals, gains, converged = _plain_pi(sys_, cost, tol, 100, history)
    assert converged
    report = solve_coupled_gare_pi(sys_, cost, tol=tol)
    _assert_same_report(report, vals, gains, history)
    assert report.iterations == len(history)


def test_policy_iteration_bit_identical_f16(f16):
    for tol in (1e-9, 1e-12):
        _assert_pi_bit_identical(*f16, tol)


def test_policy_iteration_bit_identical_population(random_population):
    for sys_, cost in random_population:
        for tol in (1e-9, 1e-12):
            _assert_pi_bit_identical(sys_, cost, tol)


@pytest.mark.parametrize("n,m1,m2", [(3, 2, 2), (3, 1, 2), (3, 2, 1), (4, 3, 1)])
def test_policy_iteration_bit_identical_two_inputs_each(n, m1, m2):
    sys_, cost = random_feasible_system(np.random.default_rng(3), n=n, m1=m1, m2=m2)
    for tol in (1e-9, 1e-12):
        _assert_pi_bit_identical(sys_, cost, tol)


def test_policy_iteration_rejects_unstable_start(unstable_population):
    # zero gains leave each of these plants mean-square unstable, so policy
    # iteration has no first policy to evaluate
    for sys_, cost in unstable_population:
        rho = ms_radius(sys_.A1, sys_.A2)
        with pytest.raises(ConvergenceError) as exc:
            solve_coupled_gare_pi(sys_, cost)
        assert str(exc.value) == (f"the gains are not mean-square stabilizing "
                                  f"(ms radius {rho:.4g}) at sweep 1")


def test_policy_iteration_budget_and_settings(f16):
    sys_, cost = f16
    with pytest.raises(ConvergenceError, match=r"^no fixed point within 3 iterations"):
        solve_coupled_gare_pi(sys_, cost, max_iters=3)
    for tol, max_iters in ((0.0, 10), (math.inf, 10), (math.nan, 10), (1e-9, 0)):
        with pytest.raises(ConfigError) as pi_exc:
            solve_coupled_gare_pi(sys_, cost, tol, max_iters)
        with pytest.raises(ConfigError) as vi_exc:
            solve_coupled_gare(sys_, cost, tol, max_iters)
        assert str(pi_exc.value) == str(vi_exc.value)


def test_policy_iteration_budget_error_carries_report(f16):
    # the report holds the three sweeps run, as value iteration's does
    sys_, cost = f16
    with pytest.raises(ConvergenceError) as exc:
        solve_coupled_gare_pi(sys_, cost, max_iters=3)
    history = []
    vals, gains, converged = _plain_pi(sys_, cost, 1e-9, 3, history)
    assert not converged and len(history) == 3
    _assert_same_report(exc.value.report, vals, gains, history)


def test_policy_iteration_unstable_start_has_no_report(unstable_population):
    # zero gains fail at sweep 1, before any sweep there is to report
    for sys_, cost in unstable_population:
        with pytest.raises(ConvergenceError, match=r" at sweep 1$") as exc:
            solve_coupled_gare_pi(sys_, cost)
        assert not hasattr(exc.value, "report")


def test_simulate_unstable_plant_writes_value_iteration_solution(tmp_path, capsys,
                                                                 unstable_population):
    # policy iteration cannot start on an open-loop unstable plant, so
    # simulate solves it by value iteration: gains and values are solve's
    sys_, cost = unstable_population[0]
    args = ["--system", "custom", "--gamma", "5"]
    for name in ("a1", "a2", "b1", "c1", "c2"):
        np.savetxt(tmp_path / f"{name}.txt", getattr(sys_, name.upper()), fmt="%.17g")
        args += [f"--{name}", str(tmp_path / f"{name}.txt")]
    assert main(["solve", *args, "--out", str(tmp_path / "solve")]) == 0
    capsys.readouterr()
    assert main(["simulate", *args, "--steps", "50", "--out", str(tmp_path / "sim")]) == 0
    rho = ms_radius(sys_.A1, sys_.A2)
    vi = solve_coupled_gare(sys_, cost)
    assert capsys.readouterr().out == (
        f"simulated 50 steps under the gains solved by value iteration in "
        f"{vi.iterations} iterations (policy iteration failed: the gains are "
        f"not mean-square stabilizing (ms radius {rho:.4g}) at sweep 1)\n")
    for name in ("gains.txt", "p1.txt", "p2.txt"):
        assert ((tmp_path / "sim" / name).read_bytes()
                == (tmp_path / "solve" / name).read_bytes())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), m1=st.integers(1, 2),
       m2=st.integers(1, 2), gamma=st.sampled_from([1.0, 2.0, 5.0]))
def test_policy_iteration_fixed_point_property(seed, n, m1, m2, gamma):
    # at its stop the coupled equations hold to rounding and the gains are
    # mean-square stabilizing
    sys_, cost = random_feasible_system(np.random.default_rng(seed), n=n, m1=m1, m2=m2,
                                        gamma=gamma)
    report = solve_coupled_gare_pi(sys_, cost)
    R1, R2 = gare_residuals(sys_, cost, report.values, report.gains)
    assert max(np.linalg.norm(R1), np.linalg.norm(R2)) < 1e-9
    assert ms_stable(*closed_loop_pair(sys_, report.gains))
