"""Coupled-equation algebra, the solver, and the comparison-sequence bounds."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from stoch_h2hinf import (
    AlgoConfig,
    AttenuationInfeasibleError,
    ConvergenceError,
    CostSpec,
    GainPair,
    SdltiSystem,
    ValuePair,
    closed_loop_pair,
    closed_loop_quadratic_map,
    f16_initial_gains,
    f16_reference,
    fixed_policy_value_sequence,
    gains_from_values,
    gare_residuals,
    ms_radius,
    ms_stable,
    qlearn_value_update,
    random_feasible_system,
    run_value_iteration,
    solve_coupled_gare,
    vi_value_update,
)
from stoch_h2hinf import gare


def test_quadratic_map_scalar(scalar_sys):
    # A2+C2*0.1 = 0.105, A1+B1*(-0.2)+C1*0.1 = 0.72,
    # map = 2*(0.105^2 + 0.72^2) = 1.05885.
    X = np.array([[2.0]])
    out = closed_loop_quadratic_map(
        scalar_sys, X, np.array([[0.1]]), np.array([[-0.2]])
    )
    assert out[0, 0] == pytest.approx(1.05885, abs=1e-14)


def test_quadratic_map_open_loop(f16):
    sys_, _ = f16
    rng = np.random.default_rng(2)
    M = rng.standard_normal((3, 3))
    X = M + M.T
    Z = np.zeros((1, 3))
    out = closed_loop_quadratic_map(sys_, X, Z, Z)
    expect = sys_.A2.T @ X @ sys_.A2 + sys_.A1.T @ X @ sys_.A1
    np.testing.assert_allclose(out, expect, atol=1e-13)


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


def test_qlearn_update_from_zero(f16):
    sys_, cost = f16
    vals, gains = qlearn_value_update(sys_, cost, ValuePair.zeros(3))
    assert not gains.K1.any() and not gains.K2.any()
    np.testing.assert_allclose(vals.P1, -np.eye(3), atol=1e-15)
    np.testing.assert_allclose(vals.P2, np.eye(3), atol=1e-15)


def test_qlearn_update_fixed_point_own_solution(f16, f16_solution):
    sys_, cost = f16
    vals = f16_solution.values
    out, _ = qlearn_value_update(sys_, cost, vals)
    assert np.linalg.norm(out.P1 - vals.P1) < 1e-8
    assert np.linalg.norm(out.P2 - vals.P2) < 1e-8


def test_qlearn_update_near_reference_values(f16):
    # The 4-decimal reference pair moves by ~1e-2 under one update, an
    # order of magnitude more than rounding alone would explain; the
    # exact fixed point nearby is the one the solver converges to.
    sys_, cost = f16
    ref_vals, _ = f16_reference()
    out, _ = qlearn_value_update(sys_, cost, ref_vals)
    move = max(
        np.linalg.norm(out.P1 - ref_vals.P1), np.linalg.norm(out.P2 - ref_vals.P2)
    )
    assert 1e-3 < move < 5e-2


def test_vi_equals_qlearn_update(f16, random_population):
    for sys_, cost in [f16] + random_population:
        vals = ValuePair.zeros(sys_.n)
        for _ in range(4):
            gains = gains_from_values(sys_, cost, vals)
            via_vi = vi_value_update(sys_, cost, vals, gains)
            via_q, _ = qlearn_value_update(sys_, cost, vals)
            np.testing.assert_allclose(via_vi.P1, via_q.P1, atol=1e-12)
            np.testing.assert_allclose(via_vi.P2, via_q.P2, atol=1e-12)
            vals = via_q


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


def test_fixed_policy_frozen_gain_coincidence(f16, f16_solution):
    sys_, cost = f16
    g = f16_solution.gains
    seq = fixed_policy_value_sequence(sys_, cost, g.K1, g.K2, 10)
    vals = ValuePair.zeros(3)
    for psi in seq[1:]:
        vals = vi_value_update(sys_, cost, vals, g)
        np.testing.assert_allclose(psi.P1, vals.P1, atol=1e-13)
        np.testing.assert_allclose(psi.P2, vals.P2, atol=1e-13)


def test_fixed_policy_monotone_bounded_without_disturbance(f16, f16_solution):
    sys_, cost = f16
    for eta2 in (f16_solution.gains.K2, f16_initial_gains().K2):
        seq = fixed_policy_value_sequence(sys_, cost, np.zeros((1, 3)), eta2, 700)
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
    seq = fixed_policy_value_sequence(sys_, cost, g.K1, g.K2, 250)
    vals = ValuePair.zeros(3)
    for psi in seq[1:]:
        vals, _ = qlearn_value_update(sys_, cost, vals)
        assert np.linalg.eigvalsh(psi.P2 - vals.P2).min() >= -1e-9
        assert np.linalg.eigvalsh(f16_solution.values.P2 - vals.P2).min() >= -1e-8


def test_fixed_policy_comparison_fails_off_saddle(f16, f16_solution):
    # Counterexample kept on purpose: freezing eta1 = 0 (no adversary)
    # produces Psi2 iterates strictly below the value-iteration run, so
    # the comparison cannot hold for arbitrary admissible policies.
    sys_, cost = f16
    seq = fixed_policy_value_sequence(
        sys_, cost, np.zeros((1, 3)), f16_solution.gains.K2, 250
    )
    vals = ValuePair.zeros(3)
    worst = 0.0
    for psi in seq[1:]:
        vals, _ = qlearn_value_update(sys_, cost, vals)
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

    solve_coupled_gare runs the same recursion on raw arrays and must match
    it bit for bit.
    """
    vals = ValuePair.zeros(sys_.n)
    gains = GainPair.zeros(sys_.n, sys_.m1, sys_.m2)
    for _ in range(max_iters):
        nxt, gains = qlearn_value_update(sys_, cost, vals)
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


def _plain_solve(sys_, cost, tol, max_iters, history):
    """The value recursion spelled out one product at a time, as a plain loop
    on numpy alone: every X'PY, symmetrization, eigvalsh and solve of a sweep
    written where it is used, nothing shared between sweeps or terms.  Same
    contract as _public_solve, and independent of the solver's helpers, which
    the public wrappers call too.
    """
    A1, A2, B1, C1, C2 = sys_.A1, sys_.A2, sys_.B1, sys_.C1, sys_.C2
    Q, g2, m2 = cost.Q, cost.gamma**2, sys_.m2
    P1 = P2 = np.zeros((sys_.n, sys_.n))
    for _ in range(max_iters):
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
        Au = A1 + B1 @ K2
        Ad = Au + C1 @ K1
        An = A2 + C2 @ K1
        Av = A1 + C1 @ K1
        K2tK2 = K2.T @ K2
        P1n = _sym(_sym(An.T @ P1 @ An + Ad.T @ P1 @ Ad) - Q - K2tK2 + g2 * (K1.T @ K1))
        P2n = _sym(_sym(An.T @ P2 @ An + Ad.T @ P2 @ Ad) + Q + K2tK2)
        d1 = float(np.linalg.norm(P1n - P1))
        d2 = float(np.linalg.norm(P2n - P2))
        D1 = g2 * np.eye(m2) + C2.T @ P1n @ C2 + C1.T @ P1n @ C1
        D2 = np.eye(sys_.m1) + B1.T @ P2n @ B1
        M1 = Au.T @ P1n @ C1 + A2.T @ P1n @ C2
        R1 = (-P1n + Au.T @ P1n @ Au - Q + A2.T @ P1n @ A2 - K2tK2
              - M1 @ np.linalg.solve(D1, M1.T))
        M2 = Av.T @ P2n @ B1
        R2 = -P2n + Av.T @ P2n @ Av + Q + An.T @ P2n @ An - M2 @ np.linalg.solve(D2, M2.T)
        history.append((d1, d2, float(np.linalg.norm(_sym(R1))),
                        float(np.linalg.norm(_sym(R2)))))
        P1, P2 = P1n, P2n
        if d1 < tol and d2 < tol:
            return ValuePair(P1, P2), GainPair(K1, K2), True
    return ValuePair(P1, P2), GainPair(K1, K2), False


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
        for recursion in (_public_solve, _plain_solve):
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
    for block in (1, 2, 7):
        monkeypatch.setattr(gare, "_RES_BLOCK", block)
        for sys_, cost, vals, gains, history in plain:
            report = solve_coupled_gare(sys_, cost, tol=1e-9, max_iters=10000)
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
    consts = gare._delta_constants(sys_, cost)
    K = np.zeros((1, 1))

    def sweep(p1, p2):
        return K, K, np.array([[p1]]), np.array([[p2]])

    ok, d1, d2, both = sweep(-0.5, 1.0), sweep(-1.0, 1.0), sweep(-0.5, -1.0), sweep(-1.0, -1.0)
    # the stacked Delta1 solve fails first in [ok, d2, d1], but sweep d2 comes first
    for block, name in (([ok, d2, d1], "Delta2"), ([ok, d1, d2], "Delta1"),
                        ([ok, both], "Delta1")):
        with pytest.raises(AttenuationInfeasibleError, match=f"^{name} is singular"):
            gare._residual_rows(sys_, cost, consts, block)


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
