"""Noise streams, single transitions, trajectory plumbing, attenuation."""

import numpy as np
import pytest

from stoch_h2hinf import (
    CostSpec,
    DivergenceError,
    GainPair,
    NoiseSource,
    ProbingSchedule,
    SdltiSystem,
    Trajectory,
    empirical_attenuation,
    expected_next_quadratic,
    simulate_closed_loop,
    stage_costs,
    step,
)
from stoch_h2hinf._kernels import HAVE_NUMBA, active_backend, forced_path


class TestNoiseSource:
    def test_same_seed_same_sequence(self):
        a = NoiseSource(42).draw(100)
        b = NoiseSource(42).draw(100)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, NoiseSource(43).draw(100))

    def test_position_replay(self):
        full = NoiseSource(5).draw(10)
        resumed = NoiseSource(5, position=4)
        np.testing.assert_array_equal(resumed.draw(6), full[4:])
        assert resumed.position == 10

    def test_rademacher_support(self):
        draws = NoiseSource(1, distribution="rademacher").draw(1000)
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            NoiseSource(0, distribution="uniform")

    @pytest.mark.parametrize("dist", ["gaussian", "rademacher"])
    def test_moments(self, dist):
        n = 1_000_000
        draws = NoiseSource(7, distribution=dist).draw(n)
        # 5 sigma on the mean and on the variance estimator.
        assert abs(draws.mean()) < 5.0 / np.sqrt(n)
        kurt = 3.0 if dist == "gaussian" else 1.0
        assert abs(draws.var() - 1.0) < 5.0 * np.sqrt((kurt - 1.0) / n) + 1e-6

    def test_branch_draws_pure(self):
        ns = NoiseSource(9)
        first = ns.branch_draws(3, 5)
        ns.draw(17)
        np.testing.assert_array_equal(ns.branch_draws(3, 5), first)
        assert not np.array_equal(ns.branch_draws(4, 5), first)
        # prefix property: a longer call extends the same stream
        np.testing.assert_array_equal(ns.branch_draws(3, 8)[:5], first)

    def test_run_draws_pure(self):
        ns = NoiseSource(9)
        np.testing.assert_array_equal(ns.run_draws(2, 6), ns.run_draws(2, 6))
        assert not np.array_equal(ns.run_draws(1, 6), ns.run_draws(2, 6))


class TestStepAndCosts:
    def test_step_linear_when_noise_free(self):
        sys_ = SdltiSystem(
            0.5 * np.eye(2), np.zeros((2, 2)), np.eye(2)[:, :1],
            np.eye(2)[:, 1:], np.zeros((2, 1)),
        )
        x = np.array([1.0, 2.0])
        out = step(sys_, x, [3.0], [4.0], 17.3)
        np.testing.assert_allclose(out, 0.5 * x + np.array([3.0, 4.0]))

    def test_step_zero_fixed_point(self, scalar_sys):
        assert step(scalar_sys, [0.0], [0.0], [0.0], 2.5) == pytest.approx(0.0)

    def test_step_scalar_oracle(self, scalar_sys):
        out = step(scalar_sys, [1.0], [1.0], [1.0], 1.0)
        assert out[0] == pytest.approx(1.65, abs=1e-15)

    def test_step_rejects_bad_dims(self, scalar_sys):
        with pytest.raises(ValueError, match="dims"):
            step(scalar_sys, [1.0, 2.0], [1.0], [1.0], 0.0)

    def test_stage_costs_examples(self, scalar_cost):
        assert stage_costs(scalar_cost, [0.0], [0.0], [0.0]) == (0.0, 0.0)
        e1 = np.array([1.0, 0.0])
        r1, r2 = stage_costs(CostSpec(1.0, np.eye(2)), e1, [0.0], e1[:1] + 0)
        assert (r1, r2) == (0.0, 1.0)
        assert stage_costs(scalar_cost, [1.0], [1.0], [1.0]) == (2.0, 2.0)

    def test_cost_identity_exact(self, scalar_cost):
        rng = np.random.default_rng(13)
        for _ in range(200):
            x, u, v = rng.standard_normal(3) * 10
            r1, r2 = stage_costs(scalar_cost, [x], [u], [v])
            lhs = r1 + r2
            rhs = scalar_cost.gamma**2 * v * v
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(r2))

    def test_expected_next_quadratic_examples(self, scalar_sys):
        ident = SdltiSystem(
            np.eye(2), np.zeros((2, 2)), np.zeros((2, 1)),
            np.zeros((2, 1)), np.zeros((2, 1)),
        )
        x = np.array([3.0, 4.0])
        assert expected_next_quadratic(ident, np.eye(2), x, [0.0], [0.0]) == 25.0
        assert expected_next_quadratic(ident, np.zeros((2, 2)), x, [0.0], [0.0]) == 0.0
        out = expected_next_quadratic(scalar_sys, [[1.0]], [1.0], [0.0], [0.0])
        assert out == pytest.approx(0.65, abs=1e-15)

    def test_expected_next_quadratic_matches_sampling(self, random_population):
        sys_, _ = random_population[0]
        rng = np.random.default_rng(21)
        M = rng.standard_normal((sys_.n, sys_.n))
        P = M + M.T
        x = rng.standard_normal(sys_.n)
        u = rng.standard_normal(sys_.m1)
        v = rng.standard_normal(sys_.m2)
        exact = expected_next_quadratic(sys_, P, x, u, v)
        mu = sys_.A1 @ x + sys_.B1 @ u + sys_.C1 @ v
        s = sys_.A2 @ x + sys_.C2 @ v
        N = 40_000
        omegas = NoiseSource(3).branch_draws(0, N)
        succ = mu[None, :] + omegas[:, None] * s[None, :]
        sample = np.einsum("ij,jk,ik->i", succ, P, succ).mean()
        std = np.sqrt(4 * (mu @ P @ s) ** 2 + 2 * (s @ P @ s) ** 2)
        assert abs(sample - exact) < 5.0 * std / np.sqrt(N) + 1e-12


class TestSimulate:
    def test_zero_fixed_point(self, scalar_sys, scalar_cost):
        traj = simulate_closed_loop(
            scalar_sys, scalar_cost, GainPair.zeros(1), [0.0], 20, NoiseSource(0)
        )
        assert not traj.states.any() and not traj.r2.any()
        assert traj.steps == 20 and traj.states.shape == (21, 1)

    def test_replay_consistency(self, f16, f16_solution):
        sys_, cost = f16
        traj = simulate_closed_loop(
            sys_, cost, f16_solution.gains, [10.0, 5.0, -2.0], 50, NoiseSource(11)
        )
        for k in range(traj.steps):
            expect = step(
                sys_, traj.states[k], traj.inputs_u[k], traj.inputs_v[k],
                traj.noises[k],
            )
            np.testing.assert_array_equal(traj.states[k + 1], expect)

    def test_inputs_follow_policy_and_probe(self, f16, f16_solution):
        sys_, cost = f16
        g = f16_solution.gains
        sched = ProbingSchedule("case1")
        traj = simulate_closed_loop(
            sys_, cost, g, [10.0, 5.0, -2.0], 10, NoiseSource(3), probe=sched
        )
        for k in range(traj.steps):
            e_u, e_v = sched.evaluate(k, 1, 1)
            np.testing.assert_allclose(
                traj.inputs_u[k], g.K2 @ traj.states[k] + e_u, atol=1e-13
            )
            np.testing.assert_allclose(
                traj.inputs_v[k], g.K1 @ traj.states[k] + e_v, atol=1e-13
            )

    def test_bit_determinism(self, f16, f16_solution):
        sys_, cost = f16
        runs = [
            simulate_closed_loop(
                sys_, cost, f16_solution.gains, [10.0, 5.0, -2.0], 200, NoiseSource(4)
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].states, runs[1].states)
        np.testing.assert_array_equal(runs[0].r1, runs[1].r1)

    def test_f16_decay(self, f16, f16_solution):
        sys_, cost = f16
        x0 = np.array([10.0, 5.0, -2.0])
        sq = np.zeros(301)
        for r in range(100):
            traj = simulate_closed_loop(
                sys_, cost, f16_solution.gains, x0, 300, NoiseSource(r)
            )
            sq += np.einsum("ij,ij->i", traj.states, traj.states)
        sq /= 100
        assert sq[300] < sq[150] < sq[0]
        assert sq[300] < 0.01 * sq[0]

    def test_divergence_reports_step(self):
        sys_ = SdltiSystem([[1.5]], [[0.0]], [[1.0]], [[1.0]], [[0.0]])
        cost = CostSpec(1.0, [[1.0]])
        with pytest.raises(DivergenceError) as exc:
            simulate_closed_loop(
                sys_, cost, GainPair.zeros(1), [1.0], 200, NoiseSource(0)
            )
        assert 0 < exc.value.step <= 100
        assert "step" in str(exc.value)

    def test_trajectory_validates_lengths(self):
        with pytest.raises(ValueError, match="step count"):
            Trajectory(
                np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((2, 1)),
                np.zeros(2), np.zeros(2), np.zeros(2),
            )

    def test_trajectory_csv(self, tmp_path, scalar_sys, scalar_cost):
        traj = simulate_closed_loop(
            scalar_sys, scalar_cost, GainPair.zeros(1), [1.0], 3, NoiseSource(2)
        )
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,x1,u1,v1,omega,r1,r2"
        assert len(lines) == 5
        row = lines[2].split(",")
        assert int(row[0]) == 1
        assert float(row[1]) == pytest.approx(traj.states[1, 0], rel=1e-11)
        assert float(row[4]) == pytest.approx(traj.noises[1], rel=1e-11)
        tail = lines[-1].split(",")
        assert int(tail[0]) == 3
        assert tail[2:] == [""] * 5


class TestBackends:
    def test_active_backend_env(self, monkeypatch):
        monkeypatch.setenv("STOCH_H2HINF_BACKEND", "numpy")
        assert active_backend() == "numpy"
        monkeypatch.setenv("STOCH_H2HINF_BACKEND", "bogus")
        with pytest.raises(ValueError):
            active_backend()

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_backends_agree(self, f16, f16_solution, monkeypatch):
        sys_, cost = f16
        out = {}
        for backend in ("numpy", "numba"):
            monkeypatch.setenv("STOCH_H2HINF_BACKEND", backend)
            out[backend] = simulate_closed_loop(
                sys_, cost, f16_solution.gains, [10.0, 5.0, -2.0], 300, NoiseSource(8)
            )
        np.testing.assert_allclose(
            out["numpy"].states, out["numba"].states, rtol=1e-12, atol=1e-15
        )


class TestAttenuation:
    def test_forced_path_replay(self, f16, f16_solution):
        # the attenuation path is the closed-loop kernel with K1 = 0 and v
        # given: each state equals a step() replay with u = K2 x and v the
        # disturbance row, bit for bit
        sys_, cost = f16
        K2 = f16_solution.gains.K2
        v = np.random.default_rng(12).standard_normal((50, 1))
        omegas = NoiseSource(13).run_draws(0, 50)
        xs, us, bad = forced_path(
            sys_.A1, sys_.B1, sys_.C1, sys_.A2, sys_.C2, K2,
            np.array([10.0, 5.0, -2.0]), v, omegas,
        )
        assert bad == -1
        for k in range(50):
            u = K2 @ xs[k]
            np.testing.assert_array_equal(us[k], u)
            np.testing.assert_array_equal(
                xs[k + 1], step(sys_, xs[k], u, v[k], omegas[k])
            )

    def test_zero_disturbance_rejected(self, f16, f16_solution):
        sys_, cost = f16
        with pytest.raises(ValueError, match="zero disturbance energy"):
            empirical_attenuation(
                sys_, cost, f16_solution.gains.K2, np.zeros((10, 1)), 10, 5, 0
            )

    def test_optimal_gain_attenuates(self, f16, f16_solution):
        sys_, cost = f16
        rng = np.random.default_rng(31)
        for trial in range(5):
            v = rng.standard_normal((120, 1)) * np.exp(-0.05 * np.arange(120))[:, None]
            ratio = empirical_attenuation(
                sys_, cost, f16_solution.gains.K2, v, 120, 20, trial
            )
            assert ratio < cost.gamma**2

    def test_unstable_loop_exceeds_gamma(self):
        sys_ = SdltiSystem([[1.3]], [[0.0]], [[0.0]], [[1.0]], [[0.0]])
        cost = CostSpec(1.0, [[1.0]])
        rng = np.random.default_rng(1)
        v = rng.standard_normal((80, 1))
        ratio = empirical_attenuation(sys_, cost, np.zeros((1, 1)), v, 80, 3, 0)
        assert ratio > cost.gamma**2
