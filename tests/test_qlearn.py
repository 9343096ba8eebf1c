"""Probing schedules, Bellman targets, regression, and the learning loops."""

import numpy as np
import pytest

from stoch_h2hinf import (
    AlgoConfig,
    AttenuationInfeasibleError,
    ConvergenceError,
    CostSpec,
    DataBatch,
    ExcitationError,
    GainPair,
    NoiseSource,
    ProbingSchedule,
    QPair,
    SdltiSystem,
    SystemOracle,
    TrajectoryOracle,
    ValuePair,
    assemble_regression,
    bellman_targets,
    f16_initial_gains,
    gains_from_q,
    h_from_values,
    least_squares_h,
    probed_inputs,
    probing_noise,
    q_value,
    qlearn_value_update,
    run_q_learning,
    run_value_iteration,
    solve_coupled_gare,
    stage_costs,
    termination,
    values_from_q,
    vecs,
    write_matrix_txt,
)
from stoch_h2hinf.f16 import X0


class TestProbingSchedule:
    def test_case_values_at_zero(self):
        for case, expect in (("case1", 1.0), ("case2", 1.0), ("case3", 2.0)):
            e_u, e_v = ProbingSchedule(case).evaluate(0)
            assert e_u[0] == pytest.approx(expect)
            assert e_v[0] == pytest.approx(expect)

    def test_case1_formula(self):
        e_u, e_v = ProbingSchedule("case1").evaluate(3)
        assert e_u[0] == pytest.approx(np.sin(3.027) + np.cos(1.614) ** 2)
        assert e_v[0] == pytest.approx(np.sin(29.1) + np.cos(30.6) ** 2)

    def test_inactive_and_absent(self):
        e_u, e_v = probing_noise(ProbingSchedule("case1", active=False), 5)
        assert e_u[0] == 0.0 and e_v[0] == 0.0
        e_u, e_v = probing_noise(None, 5, m1=2, m2=1)
        assert e_u.shape == (2,) and not e_u.any()

    def test_vector_broadcast_phase_shift(self):
        sched = ProbingSchedule("case1")
        e_u, _ = sched.evaluate(4, m1=3, m2=1)
        for i in range(3):
            assert e_u[i] == pytest.approx(sched.evaluate(4 + i)[0][0])

    def test_custom_terms(self):
        sched = ProbingSchedule(
            "custom", terms=[("u", "sin", 2.0, 1.5), ("v", "cos2", 0.7, 1.0)]
        )
        e_u, e_v = sched.evaluate(1)
        assert e_u[0] == pytest.approx(1.5 * np.sin(2.0))
        assert e_v[0] == pytest.approx(np.cos(0.7) ** 2)

    def test_custom_validation(self):
        with pytest.raises(ValueError, match="at least one term"):
            ProbingSchedule("custom")
        with pytest.raises(ValueError, match="frequency"):
            ProbingSchedule("custom", terms=[("u", "sin", 0.0, 1.0)])
        with pytest.raises(ValueError, match="function"):
            ProbingSchedule("custom", terms=[("u", "noise", 1.0, 1.0)])
        with pytest.raises(ValueError, match="channel"):
            ProbingSchedule("custom", terms=[("w", "sin", 1.0, 1.0)])
        with pytest.raises(ValueError, match="unknown probing case"):
            ProbingSchedule("case7")
        with pytest.raises(ValueError, match="only allowed"):
            ProbingSchedule("case1", terms=[("u", "sin", 1.0, 1.0)])


class TestBellmanTargets:
    def test_zero_h_gives_stage_costs(self, f16):
        sys_, cost = f16
        for mode in ("analytic", "mc"):
            oracle = SystemOracle(sys_, NoiseSource(0), np.zeros(3))
            e = ProbingSchedule("case1").evaluate(0)
            d1, d2, row = bellman_targets(
                oracle, cost, ValuePair.zeros(3), GainPair.zeros(3),
                np.zeros(3), e, 50, mode,
            )
            assert d1 == 0.0
            assert d2 == 1.0
            assert row.shape == (15,)

    def test_analytic_matches_q_identity(self, f16, random_population):
        # d must equal z' h_from_values(P~) z at the probed input, where
        # P~ is the continuation value pair extracted from (q, gains).
        rng = np.random.default_rng(17)
        for sys_, cost in [f16, random_population[1]]:
            vals = ValuePair.zeros(sys_.n)
            for _ in range(3):
                vals, _ = qlearn_value_update(sys_, cost, vals)
            q = h_from_values(sys_, cost, vals)
            gains = gains_from_q(q)
            x = rng.standard_normal(sys_.n)
            oracle = SystemOracle(sys_, NoiseSource(1), x)
            e = (rng.standard_normal(sys_.m1), rng.standard_normal(sys_.m2))
            cont = values_from_q(q, gains)
            d1, d2, row = bellman_targets(oracle, cost, cont, gains, x, e, 1, "analytic")
            h_next = h_from_values(sys_, cost, cont)
            z = np.concatenate([x, *probed_inputs(gains, x, e)])
            assert d1 == pytest.approx(q_value(h_next.H1, z), rel=1e-12, abs=1e-12)
            assert d2 == pytest.approx(q_value(h_next.H2, z), rel=1e-12, abs=1e-12)
            # the regression row against vecs(h_next) reproduces the target
            assert row @ vecs(h_next.H1) == pytest.approx(d1, rel=1e-12, abs=1e-12)

    def test_mc_continuation_matches_q_form(self, f16, random_population):
        # averaging x+'P x+ with P = T'HT equals averaging z'Hz over the
        # successors mapped through T = [I; K2; K1]
        rng = np.random.default_rng(23)
        for sys_, cost in [f16, random_population[1]]:
            vals = ValuePair.zeros(sys_.n)
            for _ in range(3):
                vals, _ = qlearn_value_update(sys_, cost, vals)
            q = h_from_values(sys_, cost, vals)
            gains = gains_from_q(q)
            x = rng.standard_normal(sys_.n)
            e = (rng.standard_normal(sys_.m1), rng.standard_normal(sys_.m2))
            oracle = SystemOracle(sys_, NoiseSource(3), x)
            d1, d2, _ = bellman_targets(
                oracle, cost, values_from_q(q, gains), gains, x, e, 64, "mc"
            )
            u_hat, v_hat = probed_inputs(gains, x, e)
            T = np.vstack([np.eye(sys_.n), gains.K2, gains.K1])
            Z = oracle.branch(u_hat, v_hat, 64) @ T.T
            r1, r2 = stage_costs(cost, x, u_hat, v_hat)
            ref1 = r1 + np.einsum("ij,jk,ik->i", Z, q.H1, Z).mean()
            ref2 = r2 + np.einsum("ij,jk,ik->i", Z, q.H2, Z).mean()
            assert d1 == pytest.approx(ref1, rel=1e-12)
            assert d2 == pytest.approx(ref2, rel=1e-12)

    def test_mc_approaches_analytic(self, f16, f16_solution):
        sys_, cost = f16
        gains = f16_solution.gains
        cont = values_from_q(h_from_values(sys_, cost, f16_solution.values), gains)
        x = np.array([2.0, -1.0, 0.5])
        e = ProbingSchedule("case1").evaluate(7)
        oracle = SystemOracle(sys_, NoiseSource(2), x)
        d1_exact, d2_exact, _ = bellman_targets(
            oracle, cost, cont, gains, x, e, 1, "analytic"
        )
        d1_mc, d2_mc, _ = bellman_targets(
            oracle, cost, cont, gains, x, e, 200_000, "mc"
        )
        assert d1_mc == pytest.approx(d1_exact, abs=0.05)
        assert d2_mc == pytest.approx(d2_exact, abs=0.05)

    def test_rejects_unknown_mode(self, f16):
        sys_, cost = f16
        oracle = SystemOracle(sys_, NoiseSource(0), np.zeros(3))
        with pytest.raises(ValueError, match="mode"):
            bellman_targets(
                oracle, cost, ValuePair.zeros(3), GainPair.zeros(3),
                np.zeros(3), (np.zeros(1), np.zeros(1)), 10, "exact",
            )


def _collect_batch(sys_, cost, schedule, tuples=20):
    oracle = SystemOracle(sys_, NoiseSource(0), X0)
    gains = f16_initial_gains()
    batch = DataBatch()
    for k in range(tuples):
        x = oracle.state
        e = probing_noise(schedule, k)
        d1, d2, row = bellman_targets(
            oracle, cost, ValuePair.zeros(3), gains, x, e, 5, "mc"
        )
        batch.append(row, d1, d2, k)
        oracle.apply(*probed_inputs(gains, x, e))
    return batch


class TestRegression:
    def test_full_rank_with_case1(self, f16):
        sys_, cost = f16
        X, Y1, Y2, svmin = assemble_regression(
            _collect_batch(sys_, cost, ProbingSchedule("case1"))
        )
        assert X.shape == (20, 15)
        assert svmin > 0
        assert Y1.shape == Y2.shape == (20,)

    def test_inactive_probe_rank_deficient(self, f16):
        sys_, cost = f16
        batch = _collect_batch(sys_, cost, ProbingSchedule("case1", active=False))
        with pytest.raises(ExcitationError):
            assemble_regression(batch)

    def test_duplicate_rows_rejected(self):
        batch = DataBatch()
        row = np.arange(1.0, 16.0)
        for k in range(20):
            batch.append(row, 1.0, 2.0, k)
        with pytest.raises(ExcitationError):
            assemble_regression(batch)

    def test_too_few_rows_rejected(self, f16):
        sys_, cost = f16
        batch = _collect_batch(sys_, cost, ProbingSchedule("case1"), tuples=14)
        with pytest.raises(ValueError, match="15"):
            assemble_regression(batch)

    def test_least_squares_recovers_synthetic(self):
        rng = np.random.default_rng(23)
        M1 = rng.standard_normal((5, 5))
        M2 = rng.standard_normal((5, 5))
        H1t, H2t = M1 + M1.T, M2 + M2.T
        X = rng.standard_normal((40, 15))
        q = least_squares_h(X, X @ vecs(H1t), X @ vecs(H2t), (3, 1, 1))
        np.testing.assert_allclose(q.H1, H1t, atol=1e-10)
        np.testing.assert_allclose(q.H2, H2t, atol=1e-10)

    def test_least_squares_zero_targets(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 15))
        q = least_squares_h(X, np.zeros(30), np.zeros(30), (3, 1, 1))
        assert not q.H1.any() and not q.H2.any()


class TestTermination:
    def test_zero_change_stops(self, f16, f16_solution):
        _, cost = f16
        q = h_from_values(*f16, f16_solution.values)
        g = f16_solution.gains
        stop, reason = termination(q, q, g, g, X0, cost, 1e-3)
        assert stop
        assert "below 0.001" in reason

    def test_large_change_continues(self, f16, f16_solution):
        _, cost = f16
        q = h_from_values(*f16, f16_solution.values)
        shifted = QPair(q.H1 + 10 * 1e-3 / np.sqrt(25), q.H2, 3, 1, 1)
        g = f16_solution.gains
        stop, reason = termination(q, shifted, g, g, X0, cost, 1e-3)
        assert not stop and reason is None

    def test_q1_variant_differs_at_fixed_point(self, f16, f16_solution):
        # Subtracting the previous Q1 instead of Q2 leaves a gap of about
        # x'(P2-P1)x, far above the stage cost, so that variant does not
        # fire at the fixed point; the default does.
        _, cost = f16
        q = h_from_values(*f16, f16_solution.values)
        g = f16_solution.gains
        assert termination(q, q, g, g, X0, cost, 1e-3, "q2")[0]
        assert not termination(q, q, g, g, X0, cost, 1e-3, "q1")[0]

    def test_rejects_unknown_variant(self, f16, f16_solution):
        q = h_from_values(*f16, f16_solution.values)
        g = f16_solution.gains
        with pytest.raises(ValueError, match="variant"):
            termination(q, q, g, g, X0, f16[1], 1e-3, "q3")


def _analytic_config(**kw):
    base = dict(
        tol=1e-3, max_iters=500, tuples_per_iter=20, branches=1,
        seed=0, noise_case="case1", expectation_mode="analytic",
    )
    base.update(kw)
    return AlgoConfig(**base)


class TestRunQLearning:
    def test_first_estimates_from_zero(self, f16):
        # Estimate 1 is the pure-cost block diagonal; estimate 2 is
        # h_from_values(-Q, Q).  Both land within regression precision.
        sys_, cost = f16
        for iters, target in (
            (1, h_from_values(sys_, cost, ValuePair.zeros(3))),
            (2, h_from_values(sys_, cost, ValuePair(-np.eye(3), np.eye(3)))),
        ):
            oracle = SystemOracle(sys_, NoiseSource(0), X0)
            rep = run_q_learning(
                oracle, cost, _analytic_config(max_iters=iters),
                GainPair.zeros(3), X0,
            )
            np.testing.assert_allclose(rep.q.H1, target.H1, atol=1e-8)
            np.testing.assert_allclose(rep.q.H2, target.H2, atol=1e-8)

    def test_analytic_run_matches_value_iteration(self, f16, f16_solution):
        sys_, cost = f16
        oracle = SystemOracle(sys_, NoiseSource(0), X0)
        rep = run_q_learning(
            oracle, cost, _analytic_config(), f16_initial_gains(), X0
        )
        assert "stopped" in rep.termination
        vi = run_value_iteration(sys_, cost, _analytic_config())
        for li, mi in zip(rep.history, vi.history):
            assert np.linalg.norm(li.values.P1 - mi.values.P1) < 1e-6
            assert np.linalg.norm(li.values.P2 - mi.values.P2) < 1e-6
        assert abs(rep.iterations - vi.iterations) <= 5
        # terminal gains near the true fixed point
        assert np.linalg.norm(rep.gains.K1 - f16_solution.gains.K1) < 2e-3
        assert np.linalg.norm(rep.gains.K2 - f16_solution.gains.K2) < 2e-3
        assert len(rep.history) == rep.iterations
        assert rep.final_trajectory is not None
        # unprobed tail decays
        head = np.linalg.norm(rep.final_trajectory[0])
        tail = np.linalg.norm(rep.final_trajectory[-1])
        assert tail < head

    def test_unbiasedness_each_iteration(self, f16):
        # Ops-level loop: with exact targets, the regression returns
        # h_from_values of the continuation pair at every iteration.
        sys_, cost = f16
        oracle = SystemOracle(sys_, NoiseSource(5), X0)
        schedule = ProbingSchedule("case1")
        q = QPair.zeros(3)
        gains = f16_initial_gains()
        k = 0
        for i in range(40):
            cont = values_from_q(q, gains)
            expected = h_from_values(sys_, cost, cont)
            batch = DataBatch()
            for _ in range(20):
                x = oracle.state
                e = probing_noise(schedule, k)
                d1, d2, row = bellman_targets(
                    oracle, cost, cont, gains, x, e, 1, "analytic"
                )
                batch.append(row, d1, d2, k)
                oracle.apply(*probed_inputs(gains, x, e))
                k += 1
            X, Y1, Y2, _ = assemble_regression(batch)
            q = least_squares_h(X, Y1, Y2, (3, 1, 1))
            assert np.abs(q.H1 - expected.H1).max() < 1e-8
            assert np.abs(q.H2 - expected.H2).max() < 1e-8
            gains = gains_from_q(q)

    def test_model_free_replay(self, f16):
        # The engine only touches the oracle interface: a replay double
        # fed from recorded transitions reproduces the run bit for bit.
        sys_, cost = f16

        class RecordingOracle(TrajectoryOracle):
            def __init__(self, inner):
                self.inner = inner
                self.states, self.applies, self.branches, self.resets = [], [], [], []

            @property
            def state(self):
                x = self.inner.state
                self.states.append(x)
                return x

            def apply(self, u, v):
                x = self.inner.apply(u, v)
                self.applies.append(x)
                return x

            def branch(self, u, v, count):
                out = self.inner.branch(u, v, count)
                self.branches.append(out)
                return out

            def reset(self, x):
                self.resets.append(np.asarray(x, dtype=float))
                self.inner.reset(x)

        class ReplayOracle(TrajectoryOracle):
            def __init__(self, tape):
                self._states = iter(tape.states)
                self._applies = iter(tape.applies)
                self._branches = iter(tape.branches)

            @property
            def state(self):
                return next(self._states)

            def apply(self, u, v):
                return next(self._applies)

            def branch(self, u, v, count):
                out = next(self._branches)
                assert out.shape[0] == count
                return out

            def reset(self, x):
                pass

        cfg = AlgoConfig(
            tol=1e-3, max_iters=4, tuples_per_iter=20, branches=10,
            seed=3, noise_case="case1", expectation_mode="mc",
        )
        tape = RecordingOracle(SystemOracle(sys_, NoiseSource(3), X0))
        first = run_q_learning(tape, cost, cfg, f16_initial_gains(), X0)
        second = run_q_learning(ReplayOracle(tape), cost, cfg, f16_initial_gains(), X0)
        np.testing.assert_array_equal(first.q.H1, second.q.H1)
        np.testing.assert_array_equal(first.gains.K1, second.gains.K1)
        np.testing.assert_array_equal(first.gains.K2, second.gains.K2)
        for a, b in zip(first.history, second.history):
            np.testing.assert_array_equal(a.values.P1, b.values.P1)
            np.testing.assert_array_equal(a.values.P2, b.values.P2)
        assert first.termination == second.termination

    def test_mc_consistency_in_branches(self, f16):
        # Median deviation from the exact-expectation run shrinks as the
        # branch count grows.
        sys_, cost = f16
        ref = {}
        for iters in (2,):
            oracle = SystemOracle(sys_, NoiseSource(0), X0)
            ref[iters] = run_q_learning(
                oracle, cost, _analytic_config(max_iters=iters),
                f16_initial_gains(), X0,
            )
        devs = {10: [], 100: [], 1000: []}
        for seed in range(20):
            for nu in devs:
                cfg = AlgoConfig(
                    tol=1e-3, max_iters=2, tuples_per_iter=20, branches=nu,
                    seed=seed, noise_case="case1", expectation_mode="mc",
                )
                oracle = SystemOracle(sys_, NoiseSource(seed), X0)
                rep = run_q_learning(oracle, cost, cfg, f16_initial_gains(), X0)
                devs[nu].append(
                    max(
                        np.linalg.norm(rep.q.H1 - ref[2].q.H1),
                        np.linalg.norm(rep.q.H2 - ref[2].q.H2),
                    )
                )
        med = {nu: float(np.median(d)) for nu, d in devs.items()}
        assert med[10] > med[100] > med[1000]

    def test_infeasible_gamma_surfaces(self):
        sys_ = SdltiSystem([[0.5]], [[0.0]], [[1.0]], [[1.0]], [[0.5]])
        cost = CostSpec(0.3, [[1.0]])
        with pytest.raises(AttenuationInfeasibleError):
            solve_coupled_gare(sys_, cost, tol=1e-9, max_iters=100)
        oracle = SystemOracle(sys_, NoiseSource(0), np.ones(1))
        with pytest.raises(AttenuationInfeasibleError, match="definiteness"):
            run_q_learning(
                oracle, cost,
                _analytic_config(tuples_per_iter=10, max_iters=10),
                GainPair.zeros(1), np.ones(1),
            )

    def test_inactive_probe_raises_excitation(self, f16):
        sys_, cost = f16
        oracle = SystemOracle(sys_, NoiseSource(0), X0)
        with pytest.raises(ExcitationError):
            run_q_learning(
                oracle, cost, _analytic_config(max_iters=3),
                f16_initial_gains(), X0,
                schedule=ProbingSchedule("case1", active=False),
            )

    def test_custom_case_requires_schedule(self, f16):
        sys_, cost = f16
        oracle = SystemOracle(sys_, NoiseSource(0), X0)
        with pytest.raises(ValueError, match="custom"):
            run_q_learning(
                oracle, cost, _analytic_config(noise_case="custom"),
                f16_initial_gains(), X0,
            )

    def test_oracle_without_expectations_rejects_analytic(self, f16):
        sys_, cost = f16

        class BlindOracle(TrajectoryOracle):
            def __init__(self, inner):
                self.inner = inner

            @property
            def state(self):
                return self.inner.state

            def apply(self, u, v):
                return self.inner.apply(u, v)

            def branch(self, u, v, count):
                return self.inner.branch(u, v, count)

            def reset(self, x):
                self.inner.reset(x)

        oracle = BlindOracle(SystemOracle(sys_, NoiseSource(0), X0))
        with pytest.raises(NotImplementedError, match="exact expectations"):
            run_q_learning(
                oracle, cost, _analytic_config(max_iters=1),
                f16_initial_gains(), X0,
            )

    def test_mc_run_smoke(self, f16):
        sys_, cost = f16
        cfg = AlgoConfig(
            tol=1e-3, max_iters=8, tuples_per_iter=20, branches=100,
            seed=0, noise_case="case1", expectation_mode="mc",
        )
        oracle = SystemOracle(sys_, NoiseSource(0), X0)
        rep = run_q_learning(oracle, cost, cfg, f16_initial_gains(), X0)
        assert rep.iterations == len(rep.history)
        assert all(it.svmin > 0 for it in rep.history)
        hist = np.array([row[:2] for row in rep.history], dtype=float)
        assert np.isfinite(hist).all()


class TestRunValueIteration:
    def test_f16_converges_near_solution(self, f16, f16_solution):
        sys_, cost = f16
        rep = run_value_iteration(sys_, cost, _analytic_config())
        assert "stopped" in rep.termination
        assert np.linalg.norm(rep.gains.K1 - f16_solution.gains.K1) < 2e-3
        assert np.linalg.norm(rep.gains.K2 - f16_solution.gains.K2) < 2e-3
        assert np.linalg.norm(rep.values.P2 - f16_solution.values.P2) < 0.05

    def test_zero_dynamics_two_iterations(self):
        z = np.zeros((2, 2))
        c = 0.1 * np.ones((2, 1))
        sys_ = SdltiSystem(z, z, np.ones((2, 1)), c, c)
        cost = CostSpec(2.0, np.eye(2))
        rep = run_value_iteration(sys_, cost, _analytic_config(tol=1e-12))
        assert rep.iterations == 2
        assert [it.svmin for it in rep.history] == [None, None]
        assert rep.values is rep.history[-1].values
        np.testing.assert_allclose(rep.values.P1, -np.eye(2), atol=1e-14)
        np.testing.assert_allclose(rep.values.P2, np.eye(2), atol=1e-14)

    def test_scalar_matches_solver(self, scalar_sys, scalar_cost):
        rep = run_value_iteration(
            scalar_sys, scalar_cost, _analytic_config(tol=1e-11, max_iters=2000)
        )
        direct = solve_coupled_gare(scalar_sys, scalar_cost, tol=1e-11, max_iters=2000)
        assert abs(rep.values.P1[0, 0] - direct.values.P1[0, 0]) < 1e-9
        assert abs(rep.values.P2[0, 0] - direct.values.P2[0, 0]) < 1e-9

    def test_nonconvergence_attaches_report(self, f16):
        sys_, cost = f16
        with pytest.raises(ConvergenceError) as exc:
            run_value_iteration(sys_, cost, _analytic_config(max_iters=5))
        assert exc.value.report.iterations == 5


class TestReportExport:
    def test_csv_blank_err_cells_without_reference(self, tmp_path, f16):
        sys_, cost = f16
        oracle = SystemOracle(sys_, NoiseSource(0), X0)
        rep = run_q_learning(
            oracle, cost, _analytic_config(max_iters=3), f16_initial_gains(), X0
        )
        path = tmp_path / "conv.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,dH1_fro,dH2_fro,errK1,errK2,errP1,errP2,term_flag"
        assert len(lines) == 4
        cells = lines[1].split(",")
        assert cells[3:7] == ["", "", "", ""]
        assert cells[7] in ("0", "1")

    def test_csv_err_cells_with_reference(self, tmp_path, f16, f16_solution):
        sys_, cost = f16
        oracle = SystemOracle(sys_, NoiseSource(0), X0)
        ref = (f16_solution.values, f16_solution.gains)
        rep = run_q_learning(
            oracle, cost, _analytic_config(max_iters=3), f16_initial_gains(), X0
        )
        path = tmp_path / "conv.csv"
        rep.to_csv(path, ref)
        cells = path.read_text().splitlines()[1].split(",")
        errs = [float(c) for c in cells[3:7]]
        assert all(np.isfinite(errs)) and min(errs) > 0

    def test_write_matrix_txt(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix_txt(np.array([[1.5, -2.0], [0.25, 3.0]]), path)
        rows = [line.split() for line in path.read_text().splitlines()]
        back = np.array([[float(c) for c in row] for row in rows])
        np.testing.assert_array_equal(back, [[1.5, -2.0], [0.25, 3.0]])
        assert rows[0][0] == "1.500000000000e+00"
