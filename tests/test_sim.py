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
    solve_coupled_gare,
    stage_costs,
    step,
)
from stoch_h2hinf._kernels import closed_loop_path
from stoch_h2hinf.sim import _CSV_BLOCK


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

    def test_replay_consistency(self, f16, f16_solution, random_population):
        # the kernel's states equal a step() replay bit for bit: F-16 under
        # its solved gains, then every population member and a two-input,
        # two-disturbance plant under random gains with probing
        sys_, cost = f16
        cases = [(sys_, cost, f16_solution.gains, [10.0, 5.0, -2.0], None)]
        rng = np.random.default_rng(17)
        wide = SdltiSystem(
            0.3 * rng.standard_normal((3, 3)), 0.1 * rng.standard_normal((3, 3)),
            rng.standard_normal((3, 2)), rng.standard_normal((3, 2)),
            0.1 * rng.standard_normal((3, 2)),
        )
        for s, c in random_population + [(wide, CostSpec(5.0, np.eye(3)))]:
            gains = GainPair(
                0.1 * rng.standard_normal((s.m2, s.n)),
                0.1 * rng.standard_normal((s.m1, s.n)),
            )
            cases.append((s, c, gains, rng.standard_normal(s.n), ProbingSchedule("case1")))
        assert (wide.m1, wide.m2) == (2, 2)
        for s, c, gains, x0, probe in cases:
            traj = simulate_closed_loop(s, c, gains, x0, 50, NoiseSource(11), probe=probe)
            for k in range(traj.steps):
                expect = step(
                    s, traj.states[k], traj.inputs_u[k], traj.inputs_v[k],
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

    @pytest.mark.parametrize("steps", [1, _CSV_BLOCK, _CSV_BLOCK + 1])
    def test_trajectory_csv_matches_per_cell_writer(self, tmp_path, steps):
        # the block writer against the per-cell f"{x:.12g}" writer it
        # replaced, byte for byte, on m1 = m2 = 2 and awkward floats
        rng = np.random.default_rng(steps)
        special = [-0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300, -1e-300, 0.1]

        def column(shape):
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
            flat = a.reshape(-1)
            flat[: len(special)] = special[: flat.size]
            return a

        traj = Trajectory(
            column((steps + 1, 3)), column((steps, 2)), column((steps, 2)),
            column(steps), column(steps), column(steps),
        )
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = ["k,x1,x2,x3,u1,u2,v1,v2,omega,r1,r2"]
        for k in range(steps):
            cells = [*traj.states[k], *traj.inputs_u[k], *traj.inputs_v[k],
                     traj.noises[k], traj.r1[k], traj.r2[k]]
            lines.append(",".join([str(k)] + [f"{x:.12g}" for x in cells]))
        tail = [str(steps)] + [f"{x:.12g}" for x in traj.states[-1]]
        lines.append(",".join(tail + [""] * 7))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestAttenuation:
    def test_zero_disturbance_rejected(self, f16, f16_solution):
        sys_, cost = f16
        with pytest.raises(ValueError, match="zero disturbance energy"):
            empirical_attenuation(
                sys_, cost, f16_solution.gains.K2, np.zeros((10, 1)), 10, 5, 0
            )

    def test_runs_below_one_rejected(self, f16, f16_solution):
        sys_, cost = f16
        for runs in (0, -2):
            with pytest.raises(ValueError, match="runs must be >= 1"):
                empirical_attenuation(
                    sys_, cost, f16_solution.gains.K2, np.ones((10, 1)), 10, runs, 0
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

    @staticmethod
    def _sequential(sys_, cost, K2, v, horizon, runs, seed):
        # one closed-loop kernel run per replicate, with K1 = 0, e_u = 0 and
        # e_v = the disturbance; also returns each replicate's trip index
        noise = NoiseSource(seed)
        K1 = np.zeros((sys_.m2, sys_.n))
        eu = np.zeros((horizon, sys_.m1))
        total, trips = 0.0, []
        for r in range(runs):
            xs, us, _, bad = closed_loop_path(
                sys_.A1, sys_.B1, sys_.C1, sys_.A2, sys_.C2, K1, K2,
                np.zeros(sys_.n), noise.run_draws(r, horizon), eu, v,
            )
            total += float(
                np.einsum("ij,jk,ik->", xs[:-1], cost.Q, xs[:-1])
                + np.einsum("ij,ij->", us, us)
            )
            trips.append(bad)
        return total / runs / float(np.sum(v * v)), trips

    def test_batched_matches_sequential(self, f16, f16_solution, random_population):
        sys_, cost = f16
        member, member_cost = random_population[3]
        member_K2 = solve_coupled_gare(member, member_cost, tol=1e-10).gains.K2
        for s, c, K2, seed in [
            (sys_, cost, f16_solution.gains.K2, 0),
            (member, member_cost, member_K2, 1),
        ]:
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD157)))
            v = rng.standard_normal((200, s.m2)) * np.exp(-0.03 * np.arange(200))[:, None]
            ratio = empirical_attenuation(s, c, K2, v, 200, 100, seed)
            expect, trips = self._sequential(s, c, K2, v, 200, 100, seed)
            assert trips == [-1] * 100
            assert ratio == pytest.approx(expect, rel=1e-13)

    def test_batched_tripped_guard(self):
        # replicates leave the guard at different steps: each counts its
        # states up to and including the offending one and its inputs
        # before it; a trip at the last step leaves that state uncounted
        sys_ = SdltiSystem([[1.3]], [[0.2]], [[0.0]], [[1.0]], [[0.1]])
        cost = CostSpec(1.0, [[1.0]])
        K2 = np.zeros((1, 1))
        v = np.random.default_rng(1).standard_normal((150, 1))
        expect, trips = self._sequential(sys_, cost, K2, v, 150, 5, 0)
        assert all(0 < t < 150 for t in trips) and len(set(trips)) > 1
        assert empirical_attenuation(sys_, cost, K2, v, 150, 5, 0) == pytest.approx(
            expect, rel=1e-13
        )
        horizon = min(trips)
        expect, trips = self._sequential(sys_, cost, K2, v[:horizon], horizon, 5, 0)
        assert horizon in trips
        assert empirical_attenuation(
            sys_, cost, K2, v[:horizon], horizon, 5, 0
        ) == pytest.approx(expect, rel=1e-13)
