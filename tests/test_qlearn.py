"""Probing schedules, oracle windows, Bellman targets, regression, and the learning loops."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stoch_h2hinf import (
    AlgoConfig,
    AttenuationInfeasibleError,
    ConvergenceError,
    CostSpec,
    DivergenceError,
    ExcitationError,
    GainPair,
    NoiseSource,
    ProbingSchedule,
    QPair,
    SdltiSystem,
    SystemOracle,
    TrajectoryOracle,
    ValuePair,
    closed_loop_pair,
    f16_initial_gains,
    gains_from_q,
    gains_from_values,
    h_from_values,
    least_squares_h,
    ms_stable,
    q_value,
    random_feasible_system,
    run_q_learning,
    run_value_iteration,
    simulate_closed_loop,
    solve_coupled_gare,
    stage_costs,
    values_from_q,
    vech,
    vecs,
    vi_value_update,
    write_matrix_txt,
)
from stoch_h2hinf import model, qfunction
from stoch_h2hinf import qlearn as qlearn_module
from stoch_h2hinf.f16 import X0


def _scalar_probe(case, t):
    """The schedule's (e_u, e_v) scalars at integer time t, one np.float64 at a
    time; the reference the seeded artifacts were made with."""
    if case == "case1":
        return (np.sin(1.009 * t) + np.cos(0.538 * t) ** 2,
                np.sin(9.7 * t) + np.cos(10.2 * t) ** 2)
    if case == "case2":
        return (np.sin(0.9 * t) + np.cos(100.0 * t),
                np.sin(10.0 * t) + np.cos(10.0 * t))
    u1, v1 = _scalar_probe("case1", t)
    u2, v2 = _scalar_probe("case2", t)
    return u1 + u2, v1 + v2


class TestProbingSchedule:
    def test_case_values_at_zero(self):
        for case, expect in (("case1", 1.0), ("case2", 1.0), ("case3", 2.0)):
            e_u, e_v = ProbingSchedule(case).window(0, 1)
            assert e_u[0, 0] == pytest.approx(expect)
            assert e_v[0, 0] == pytest.approx(expect)
        for case in ("case7", "custom"):
            with pytest.raises(ValueError, match="unknown probing case"):
                ProbingSchedule(case)

    def test_case1_formula(self):
        e_u, e_v = ProbingSchedule("case1").window(3, 1)
        assert e_u[0, 0] == pytest.approx(np.sin(3.027) + np.cos(1.614) ** 2)
        assert e_v[0, 0] == pytest.approx(np.sin(29.1) + np.cos(30.6) ** 2)

    def test_vector_broadcast_phase_shift(self):
        for case in ("case1", "case3"):
            sched = ProbingSchedule(case)
            e_u, _ = sched.window(4, 1, m1=3, m2=1)
            _, e_v = sched.window(4, 1, m1=1, m2=2)
            for i in range(3):
                assert e_u[0, i] == sched.window(4 + i, 1)[0][0, 0]
            for i in range(2):
                assert e_v[0, i] == sched.window(4 + i, 1)[1][0, 0]
        # case3 is case1 + case2, summed in that order
        u1, v1 = ProbingSchedule("case1").window(9, 1)
        u2, v2 = ProbingSchedule("case2").window(9, 1)
        u3, v3 = ProbingSchedule("case3").window(9, 1)
        assert (u3[0, 0], v3[0, 0]) == (u1[0, 0] + u2[0, 0], v1[0, 0] + v2[0, 0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=st.sampled_from(["case1", "case2", "case3"]),
           k=st.integers(0, 10**7), N=st.integers(1, 200),
           m1=st.integers(1, 3), m2=st.integers(1, 3))
    def test_window_equals_stacked_evaluate(self, case, k, N, m1, m2):
        # a window is its one-step windows stacked, and carries the bits of
        # the per-step scalars; an array's c ** 2 (c * c) would differ from
        # them in the last bit
        sched = ProbingSchedule(case)
        EU, EV = sched.window(k, N, m1, m2)
        assert EU.shape == (N, m1) and EV.shape == (N, m2)
        steps = [sched.window(k + t, 1, m1, m2) for t in range(N)]
        assert EU.tobytes() == np.vstack([e[0] for e in steps]).tobytes()
        assert EV.tobytes() == np.vstack([e[1] for e in steps]).tobytes()
        ref = [[_scalar_probe(case, k + t + i) for i in range(max(m1, m2))]
               for t in range(N)]
        assert EU.tobytes() == np.array([[r[0] for r in row[:m1]] for row in ref]).tobytes()
        assert EV.tobytes() == np.array([[r[1] for r in row[:m2]] for row in ref]).tobytes()


def _window(oracle, gains, probes, cost, cont, branches, mode):
    """One rollout window and the learner's targets for it: (Z, succ, Y)."""
    Z, succ = oracle.rollout(gains, probes, branches, mode)
    slices = qfunction.block_slices(gains.K1.shape[1], len(gains.K2), len(gains.K1))
    return Z, succ, qlearn_module._targets(Z, succ, cost, cont, slices)


def _one_tuple(sys_, seed, x, e, gains, cost, cont, branches, mode):
    """The window of one tuple at state x with probe e = (e_u, e_v):
    (z, succ[0], (d1, d2))."""
    oracle = SystemOracle(sys_, NoiseSource(seed), x)
    probes = tuple(np.atleast_1d(np.asarray(p, dtype=float))[None] for p in e)
    Z, succ, Y = _window(oracle, gains, probes, cost, cont, branches, mode)
    return Z[0], succ[0], tuple(Y[0].tolist())


class TestBellmanTargets:
    def test_zero_h_gives_stage_costs(self, f16):
        sys_, cost = f16
        e = [row[0] for row in ProbingSchedule("case1").window(0, 1)]
        for mode in ("analytic", "mc"):
            _, _, (d1, d2) = _one_tuple(sys_, 0, np.zeros(3), e, GainPair.zeros(3), cost,
                                        ValuePair.zeros(3), 50, mode)
            assert d1 == 0.0
            assert d2 == 1.0

    def test_analytic_matches_q_identity(self, f16, random_population):
        # d must equal z' h_from_values(P~) z at the probed input, where
        # P~ is the continuation value pair extracted from (q, gains).
        rng = np.random.default_rng(17)
        for sys_, cost in [f16, random_population[1]]:
            vals = ValuePair.zeros(sys_.n)
            for _ in range(3):
                vals = vi_value_update(sys_, cost, vals, gains_from_values(sys_, cost, vals))
            q = h_from_values(sys_, cost, vals)
            gains = gains_from_q(q)
            x = rng.standard_normal(sys_.n)
            e = (rng.standard_normal(sys_.m1), rng.standard_normal(sys_.m2))
            cont = values_from_q(q, gains)
            z, _, (d1, d2) = _one_tuple(sys_, 1, x, e, gains, cost, cont, 1, "analytic")
            assert z.tobytes() == np.concatenate([x, gains.K2 @ x + e[0],
                                                  gains.K1 @ x + e[1]]).tobytes()
            h_next = h_from_values(sys_, cost, cont)
            row = vech(np.outer(z, z))
            assert d1 == pytest.approx(q_value(h_next.H1, z), rel=1e-12, abs=1e-12)
            assert d2 == pytest.approx(q_value(h_next.H2, z), rel=1e-12, abs=1e-12)
            # the regression row against vecs(h_next) reproduces the target
            assert row @ vecs(h_next.H1) == pytest.approx(d1, rel=1e-12, abs=1e-12)

    def test_mc_continuation_matches_q_form(self, f16, random_population):
        # averaging x+'P x+ with P = T'HT equals averaging z'Hz over the
        # successors mapped through T = [I; K2; K1]
        rng = np.random.default_rng(23)
        for sys_, cost in [f16, random_population[1]]:
            n, m1, _ = sys_.dims
            vals = ValuePair.zeros(sys_.n)
            for _ in range(3):
                vals = vi_value_update(sys_, cost, vals, gains_from_values(sys_, cost, vals))
            q = h_from_values(sys_, cost, vals)
            gains = gains_from_q(q)
            x = rng.standard_normal(sys_.n)
            e = (rng.standard_normal(sys_.m1), rng.standard_normal(sys_.m2))
            z, succ, (d1, d2) = _one_tuple(sys_, 3, x, e, gains, cost,
                                           values_from_q(q, gains), 64, "mc")
            assert succ.shape == (n, 64)
            T = np.vstack([np.eye(sys_.n), gains.K2, gains.K1])
            Z = succ.T @ T.T
            r1, r2 = stage_costs(cost, x, z[n:n + m1], z[n + m1:])
            ref1 = r1 + np.einsum("ij,jk,ik->i", Z, q.H1, Z).mean()
            ref2 = r2 + np.einsum("ij,jk,ik->i", Z, q.H2, Z).mean()
            assert d1 == pytest.approx(ref1, rel=1e-12)
            assert d2 == pytest.approx(ref2, rel=1e-12)

    def test_mc_approaches_analytic(self, f16, f16_solution):
        sys_, cost = f16
        gains = f16_solution.gains
        cont = values_from_q(h_from_values(sys_, cost, f16_solution.values), gains)
        x = np.array([2.0, -1.0, 0.5])
        e = [row[0] for row in ProbingSchedule("case1").window(7, 1)]
        _, _, (d1_exact, d2_exact) = _one_tuple(sys_, 2, x, e, gains, cost, cont, 1,
                                                "analytic")
        _, _, (d1_mc, d2_mc) = _one_tuple(sys_, 2, x, e, gains, cost, cont, 200_000, "mc")
        assert d1_mc == pytest.approx(d1_exact, abs=0.05)
        assert d2_mc == pytest.approx(d2_exact, abs=0.05)

    def test_rejects_unknown_mode(self, f16):
        sys_, cost = f16
        oracle = SystemOracle(sys_, NoiseSource(0), np.zeros(3))
        with pytest.raises(ValueError, match="mode"):
            oracle.rollout(GainPair.zeros(3), (np.zeros((1, 1)), np.zeros((1, 1))), 10,
                           "exact")


def _sampled_window(sys_, seed, N, branches, mode):
    """A rollout window at a random state under random gains and case-3
    probes, with a sign-definite value pair: (Z, succ, cont)."""
    rng = np.random.default_rng(seed)
    n, m1, m2 = sys_.dims
    gains = GainPair(0.3 * rng.standard_normal((m2, n)), 0.3 * rng.standard_normal((m1, n)))
    oracle = SystemOracle(sys_, NoiseSource(seed), rng.standard_normal(n))
    Z, succ = oracle.rollout(gains, ProbingSchedule("case3").window(seed, N, m1, m2),
                             branches, mode)
    G1, G2 = rng.standard_normal((2, n, n))
    cont = ValuePair(-(G1 @ G1.T + np.eye(n)), G2 @ G2.T + np.eye(n))
    return Z, succ, cont


class TestMomentContraction:
    """The continuation <P, S S'> / B from each row's successor samples."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(member=st.integers(-1, 19), branches=st.sampled_from([1, 2, 30, 100]),
           seed=st.integers(0, 2**16), N=st.integers(1, 25))
    def test_equals_plain_branch_mean(self, f16, random_population, member, branches,
                                      seed, N):
        # the mean of x+'P x+ over a row's branches, one branch at a time
        sys_, _ = f16 if member < 0 else random_population[member]
        _, succ, cont = _sampled_window(sys_, seed, N, branches, "mc")
        assert succ.shape == (N, sys_.n, branches)
        got = qlearn_module._continuations(succ, cont)
        for row, S in zip(got, succ):
            for c, P in zip(row, (cont.P1, cont.P2)):
                assert c == pytest.approx(np.mean([x @ P @ x for x in S.T]), rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(member=st.integers(-1, 19), seed=st.integers(0, 2**16), N=st.integers(1, 25))
    def test_pair_equals_exact_expectation(self, f16, random_population, member, seed, N):
        # analytic mode's successors are mu + s and mu - s, bit for bit, and
        # their mean of x+'P x+ is mu'P mu + s'P s
        sys_, _ = f16 if member < 0 else random_population[member]
        n, m1, _ = sys_.dims
        Z, succ, cont = _sampled_window(sys_, seed, N, 1, "analytic")
        assert succ.shape == (N, n, 2)
        got = qlearn_module._continuations(succ, cont)
        for z, pair, row in zip(Z, succ, got):
            x, u, v = z[:n], z[n:n + m1], z[n + m1:]
            mu = sys_.A1 @ x + sys_.B1 @ u + sys_.C1 @ v
            s = sys_.A2 @ x + sys_.C2 @ v
            assert pair.T.tobytes() == np.array([mu + s, mu - s]).tobytes()
            for c, P in zip(row, (cont.P1, cont.P2)):
                assert c == pytest.approx(mu @ P @ mu + s @ P @ s, rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(plant=st.sampled_from(["f16", "population", "wide", "wide5"]),
           member=st.integers(0, 19), branches=st.sampled_from([1, 2, 30, 100]),
           mode=st.sampled_from(["analytic", "mc"]), seed=st.integers(0, 2**16),
           N=st.integers(1, 25))
    def test_stacked_moments_keep_per_row_bits(self, f16, random_population, plant,
                                               member, branches, mode, seed, N):
        # the one stacked matmul gives each row's moment with the bits of a
        # 2-D S @ S.T, so the continuations equal the per-row reference's
        sys_ = {"f16": f16, "population": random_population[member],
                "wide": _wide_plant(3), "wide5": _wide_plant(5)}[plant][0]
        _, succ, cont = _sampled_window(sys_, seed, N, branches, mode)
        moments = np.matmul(succ, succ.transpose(0, 2, 1))
        assert moments.tobytes() == np.array([S @ S.T for S in succ]).tobytes()
        got = qlearn_module._continuations(succ, cont)
        assert got.tobytes() == _plain_continuations(succ, cont).tobytes()

    @pytest.mark.parametrize("branches", [10, 30, 100])
    def test_f16_targets_keep_per_row_bits(self, f16, branches):
        # the F-16 Monte-Carlo targets are the stage cost plus the per-row
        # reference continuation, bit for bit, at states over six decades
        sys_, cost = f16
        rng = np.random.default_rng(branches)
        for _ in range(20):
            x = rng.standard_normal(3) * 10.0 ** rng.integers(-2, 4)
            e = rng.standard_normal((2, 1))
            M1, M2 = rng.standard_normal((2, 3, 3))
            cont = ValuePair(M1 + M1.T, M2 + M2.T)
            z, succ, (d1, d2) = _one_tuple(sys_, int(rng.integers(1000)), x, e,
                                           GainPair.zeros(3), cost, cont, branches, "mc")
            assert succ.shape == (3, branches)
            c1, c2 = _plain_continuations(succ[None], cont)[0]
            r1, r2 = stage_costs(cost, x, z[3:4], z[4:])
            assert d1 == r1 + c1
            assert d2 == r2 + c2


def _collect(oracle, cost, cont, gains, probes, branches, mode):
    """One window's per-tuple rows vech(zz') and its (N, 2) targets."""
    Z, _, Y = _window(oracle, gains, probes, cost, cont, branches, mode)
    return np.array([vech(np.outer(z, z)) for z in Z]), Y


def _collect_mc(sys_, cost, case, tuples=20):
    """F-16 tuples under the initial gains; case None leaves probing off."""
    if case is None:
        probes = np.zeros((tuples, 1)), np.zeros((tuples, 1))
    else:
        probes = ProbingSchedule(case).window(0, tuples)
    oracle = SystemOracle(sys_, NoiseSource(0), X0)
    return _collect(oracle, cost, ValuePair.zeros(3), f16_initial_gains(), probes, 5, "mc")


class TestRegression:
    def test_full_rank_with_case1(self, f16):
        sys_, cost = f16
        X, Y = _collect_mc(sys_, cost, "case1")
        assert X.shape == (20, 15)
        q, svmin = least_squares_h(X, Y, (3, 1, 1))
        assert svmin > 0
        assert svmin == pytest.approx(np.linalg.svd(X, compute_uv=False)[-1], rel=1e-12)
        assert q.dims == (3, 1, 1)

    def test_inactive_probe_rank_deficient(self, f16):
        sys_, cost = f16
        X, Y = _collect_mc(sys_, cost, None)
        with pytest.raises(ExcitationError, match="insufficient excitation"):
            least_squares_h(X, Y, (3, 1, 1))

    def test_duplicate_rows_rejected(self):
        X = np.tile(np.arange(1.0, 16.0), (20, 1))
        with pytest.raises(ExcitationError, match="insufficient excitation"):
            least_squares_h(X, np.tile([1.0, 2.0], (20, 1)), (3, 1, 1))

    def test_too_few_rows_rejected(self, f16):
        sys_, cost = f16
        X, Y = _collect_mc(sys_, cost, "case1", tuples=14)
        with pytest.raises(ValueError, match="15"):
            least_squares_h(X, Y, (3, 1, 1))

    def test_least_squares_recovers_synthetic(self):
        rng = np.random.default_rng(23)
        M1 = rng.standard_normal((5, 5))
        M2 = rng.standard_normal((5, 5))
        H1t, H2t = M1 + M1.T, M2 + M2.T
        X = rng.standard_normal((40, 15))
        q, svmin = least_squares_h(X, X @ np.column_stack([vecs(H1t), vecs(H2t)]), (3, 1, 1))
        np.testing.assert_allclose(q.H1, H1t, atol=1e-10)
        np.testing.assert_allclose(q.H2, H2t, atol=1e-10)
        assert svmin == pytest.approx(np.linalg.svd(X, compute_uv=False)[-1], rel=1e-12)

    def test_least_squares_zero_targets(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 15))
        q, _ = least_squares_h(X, np.zeros((30, 2)), (3, 1, 1))
        assert not q.H1.any() and not q.H2.any()


class TestTermination:
    def test_zero_change_stops(self, f16, f16_solution):
        _, cost = f16
        q = h_from_values(*f16, f16_solution.values)
        g = f16_solution.gains
        stop, reason = qlearn_module._stop_rule(0.0, 0.0, q, q, g, g, X0, cost, 1e-3)
        assert stop
        assert "below 0.001" in reason

    def test_large_change_continues(self, f16, f16_solution):
        _, cost = f16
        q = h_from_values(*f16, f16_solution.values)
        shifted = QPair(q.H1 + 10 * 1e-3 / np.sqrt(25), q.H2, 3, 1, 1)
        g = f16_solution.gains
        dh1 = float(np.linalg.norm(shifted.H1 - q.H1))
        assert dh1 > 1e-3
        stop, reason = qlearn_module._stop_rule(dh1, 0.0, q, shifted, g, g, X0, cost, 1e-3)
        assert not stop and reason is None


def _analytic_config(**kw):
    base = dict(
        tol=1e-3, max_iters=500, tuples_per_iter=20, branches=1,
        noise_case="case1", expectation_mode="analytic",
    )
    base.update(kw)
    return AlgoConfig(**base)


class _Reshaped(TrajectoryOracle):
    """SystemOracle windows in a fixed mode, whatever mode the learner asks
    for, with their rows z cut to the first `rows` and their successor
    samples passed through `succ`."""

    def __init__(self, inner, mode, rows=None, succ=lambda S: S):
        self.inner, self.mode, self.rows, self.succ = inner, mode, rows, succ

    def rollout(self, gains, probes, branches, mode):
        Z, succ = self.inner.rollout(gains, probes, branches, self.mode)
        return Z[:self.rows], self.succ(succ)

    def reset(self, x):
        self.inner.reset(x)


def _rejection(sys_, cost, mode, oracle_mode, rows=None, succ=lambda S: S):
    """The ValueError message of a learner in `mode` fed _Reshaped windows."""
    oracle = _Reshaped(SystemOracle(sys_, NoiseSource(0), X0), oracle_mode, rows, succ)
    cfg = _analytic_config(max_iters=1, branches=3, expectation_mode=mode)
    with pytest.raises(ValueError) as exc:
        run_q_learning(oracle, cost, cfg, f16_initial_gains(), X0)
    return str(exc.value)


class TestRunQLearning:
    def test_dh_sums_each_member_in_row_order(self, f16, monkeypatch):
        # qlearn --mode analytic --case 1 --seed 3: dH is np.linalg.norm of
        # one member's difference, which is C-ordered.  The stack of both
        # members that mat_from_vecs(W.T) returns is not, and _fro_norms of
        # the stacked difference reads each item as a strided view, one bit
        # off at iteration 2: stacking the learner's dH norms would move
        # convergence.csv
        stacks = []

        def spy(s):
            stacks.append(qfunction.mat_from_vecs(s))
            return stacks[-1]

        monkeypatch.setattr(qlearn_module, "mat_from_vecs", spy)
        sys_, cost = f16
        rep = run_q_learning(SystemOracle(sys_, NoiseSource(3), X0), cost,
                             _analytic_config(), f16_initial_gains(), X0)
        assert rep.iterations == 221
        assert rep.history[1].dH2 == 1.414882918947035
        assert stacks[1].strides == (8, 80, 16)
        assert model._fro_norms(stacks[1] - stacks[0])[1] == 1.4148829189470349

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

    @pytest.mark.parametrize("mode, branches", [("analytic", 1), ("mc", 10)])
    @pytest.mark.parametrize("case", ["case1", "case2", "case3"])
    def test_iterations_match_tuple_by_tuple(self, f16, case, mode, branches):
        # The batched rows and the one-SVD solve give exactly the q of the
        # per-tuple rows vech(zz') and the targets of the same windows; the
        # second iteration has a nonzero continuation value.
        sys_, cost = f16
        cfg = _analytic_config(max_iters=2, noise_case=case,
                               expectation_mode=mode, branches=branches)
        rep = run_q_learning(SystemOracle(sys_, NoiseSource(4), X0), cost, cfg,
                             f16_initial_gains(), X0)
        oracle = SystemOracle(sys_, NoiseSource(4), X0)
        gains, cont = f16_initial_gains(), ValuePair.zeros(3)
        for i, it in enumerate(rep.history):
            X, Y = _collect(oracle, cost, cont, gains,
                            ProbingSchedule(case).window(20 * i, 20), branches, mode)
            q, svmin = least_squares_h(X, Y, (3, 1, 1))
            gains = gains_from_q(q)
            cont = values_from_q(q, gains)
            assert it.svmin == svmin
            np.testing.assert_array_equal(it.values.P1, cont.P1)
            np.testing.assert_array_equal(it.values.P2, cont.P2)
        assert len(rep.history) == 2
        np.testing.assert_array_equal(rep.q.H1, q.H1)
        np.testing.assert_array_equal(rep.q.H2, q.H2)

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
        # the learned gains' unprobed closed loop decays
        traj = simulate_closed_loop(sys_, cost, rep.gains, X0, 100, NoiseSource(1))
        assert np.linalg.norm(traj.states[-1]) < np.linalg.norm(traj.states[0])

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
            X, Y = _collect(
                oracle, cost, cont, gains, schedule.window(k, 20), 1, "analytic"
            )
            k += 20
            q, _ = least_squares_h(X, Y, (3, 1, 1))
            assert np.abs(q.H1 - expected.H1).max() < 1e-8
            assert np.abs(q.H2 - expected.H2).max() < 1e-8
            gains = gains_from_q(q)

    def test_model_free_replay(self, f16):
        # The engine only touches the oracle interface: a replay double
        # fed from recorded windows reproduces the run bit for bit.
        sys_, cost = f16

        class RecordingOracle(TrajectoryOracle):
            def __init__(self, inner):
                self.inner = inner
                self.windows, self.resets = [], []

            def rollout(self, gains, probes, branches, mode):
                out = self.inner.rollout(gains, probes, branches, mode)
                self.windows.append(out)
                return out

            def reset(self, x):
                self.resets.append(np.asarray(x, dtype=float))
                self.inner.reset(x)

        class ReplayOracle(TrajectoryOracle):
            def __init__(self, tape):
                self._windows = iter(tape.windows)

            def rollout(self, gains, probes, branches, mode):
                Z, succ = next(self._windows)
                assert len(Z) == len(probes[0]) and succ.shape[-1] == branches
                return Z, succ

            def reset(self, x):
                pass

        cfg = AlgoConfig(
            tol=1e-3, max_iters=4, tuples_per_iter=20, branches=10,
            noise_case="case1", expectation_mode="mc",
        )
        tape = RecordingOracle(SystemOracle(sys_, NoiseSource(3), X0))
        first = run_q_learning(tape, cost, cfg, f16_initial_gains(), X0)
        assert len(tape.windows) == 4 and len(tape.resets) == 1
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
                    noise_case="case1", expectation_mode="mc",
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

    def test_unexcitable_plant_raises_excitation(self):
        # with A1 = A2 = B1 = C1 = C2 = 0 every state after the first is 0,
        # so the probed inputs cannot excite the x-block of the regression
        z = [[0.0]]
        oracle = SystemOracle(SdltiSystem(z, z, z, z, z), NoiseSource(0), np.ones(1))
        with pytest.raises(ExcitationError, match="insufficient excitation"):
            run_q_learning(
                oracle, CostSpec(1.0, [[1.0]]), _analytic_config(max_iters=3),
                GainPair.zeros(1), np.ones(1),
            )

    def test_one_expectation_query_per_tuple(self, f16, monkeypatch):
        # one rollout per iteration returns one exact pair mu +- s per tuple,
        # from one trajectory-kernel pass, and the learner runs no closing
        # trajectory that would make another pass
        sys_, cost = f16
        kernel, windows = [], []

        def counted(*args):
            kernel.append(1)
            return path(*args)

        def recorded(self, *args):
            windows.append(rollout(self, *args))
            return windows[-1]

        path, rollout = qlearn_module.closed_loop_path, SystemOracle.rollout
        monkeypatch.setattr(qlearn_module, "closed_loop_path", counted)
        monkeypatch.setattr(SystemOracle, "rollout", recorded)
        rep = run_q_learning(SystemOracle(sys_, NoiseSource(0), X0), cost,
                             _analytic_config(max_iters=3), f16_initial_gains(), X0)
        assert rep.iterations == 3
        assert len(kernel) == 3
        assert [(Z.shape, succ.shape) for Z, succ in windows] == [((20, 5), (20, 3, 2))] * 3

    def test_oracle_coordinates_first_rejected(self, f16):
        # successors coordinates first, (n, N, B), are named by the
        # learner, not left to fail inside the contraction
        assert _rejection(*f16, "mc", "mc", succ=lambda S: S.transpose(1, 0, 2)) == (
            "mc rollout returned rows (20, 5) and successors (3, 20, 3), "
            "expected (20, 5) and (20, 3, B) with B >= 1")

    def test_oracle_mean_and_direction_rejected(self, f16):
        # a (2, N, n) stack of two vectors per row, such as (mu, s), is not
        # a set of successor samples
        assert _rejection(*f16, "analytic", "analytic",
                          succ=lambda S: S.transpose(2, 0, 1)) == (
            "analytic rollout returned rows (20, 5) and successors (2, 20, 3), "
            "expected (20, 5) and (20, 3, B) with B >= 1")

    def test_oracle_rows_of_another_shape_rejected(self, f16):
        assert _rejection(*f16, "analytic", "analytic", rows=19) == (
            "analytic rollout returned rows (19, 5) and successors (20, 3, 2), "
            "expected (20, 5) and (20, 3, B) with B >= 1")
        assert _rejection(*f16, "mc", "mc", succ=lambda S: S[:, :, :0]) == (
            "mc rollout returned rows (20, 5) and successors (20, 3, 0), "
            "expected (20, 5) and (20, 3, B) with B >= 1")

    def test_one_target_path_for_both_modes(self, f16):
        # the learner reads successor samples, whatever mode made them: in
        # mc mode, fed the exact pair, it learns analytic mode's iterates
        sys_, cost = f16
        runs = []
        for mode in ("analytic", "mc"):
            oracle = _Reshaped(SystemOracle(sys_, NoiseSource(0), X0), "analytic")
            cfg = _analytic_config(max_iters=5, branches=100, expectation_mode=mode)
            runs.append(run_q_learning(oracle, cost, cfg, f16_initial_gains(), X0))
        _assert_same_run(runs[1], [tuple(it) for it in runs[0].history],
                         runs[0].termination, runs[0].q)

    def test_mc_run_smoke(self, f16):
        sys_, cost = f16
        cfg = AlgoConfig(
            tol=1e-3, max_iters=8, tuples_per_iter=20, branches=100,
            noise_case="case1", expectation_mode="mc",
        )
        oracle = SystemOracle(sys_, NoiseSource(0), X0)
        rep = run_q_learning(oracle, cost, cfg, f16_initial_gains(), X0)
        assert rep.iterations == len(rep.history)
        assert all(it.svmin > 0 for it in rep.history)
        hist = np.array([row[:2] for row in rep.history], dtype=float)
        assert np.isfinite(hist).all()


def _wide_plant(n=3):
    """A two-input, two-disturbance plant (m1 = m2 = 2) with n states."""
    rng = np.random.default_rng(17)
    sys_ = SdltiSystem(
        0.3 * rng.standard_normal((n, n)), 0.1 * rng.standard_normal((n, n)),
        rng.standard_normal((n, 2)), rng.standard_normal((n, 2)),
        0.1 * rng.standard_normal((n, 2)),
    )
    return sys_, CostSpec(5.0, np.eye(n))


def _rollout_both(sys_, cost, gains, cont, x0, lead, N, case, branches, mode, seed):
    """One window from SystemOracle.rollout with the learner's targets, and
    one from _plain_window.

    Each runs on its own noise stream, after a `lead`-step window under zero
    gains and probes.  A path gives (Z, Y, state) bits, the step counter and
    the next main-stream draw, or the (step, message) of the DivergenceError
    it raised.
    """
    n, m1, m2 = sys_.dims
    still = GainPair.zeros(n, m1, m2)
    lead_probes = np.zeros((lead, m1)), np.zeros((lead, m2))
    probes = ProbingSchedule(case).window(lead, N, m1, m2)

    def fast(noise):
        oracle = SystemOracle(sys_, noise, x0)
        if lead:
            oracle.rollout(still, lead_probes, branches, "analytic")
        Z, _, Y = _window(oracle, gains, probes, cost, cont, branches, mode)
        return Z, Y, oracle._x, oracle._k

    def plain(noise):
        x = x0
        if lead:
            x, _, _ = _plain_window(sys_, noise, x0, 0, still, lead_probes, cost, cont,
                                    branches, "analytic")
        x, Z, Y = _plain_window(sys_, noise, x, lead, gains, probes, cost, cont,
                                branches, mode)
        return Z, Y, x, lead + N

    out = []
    for path in (fast, plain):
        noise = NoiseSource(seed)
        try:
            Z, Y, x, k = path(noise)
        except DivergenceError as exc:
            out.append((exc.step, str(exc)))
        else:
            out.append((_bits(Z, Y, x), k, noise.draw(1).tobytes()))
    return out


class TestRollout:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=st.sampled_from(["case1", "case2", "case3"]),
           member=st.integers(0, 19), seed=st.integers(0, 2**16),
           lead=st.integers(0, 3), N=st.integers(1, 25))
    @pytest.mark.parametrize("mode", ["analytic", "mc"])
    @pytest.mark.parametrize("plant", ["f16", "population", "wide", "wide4", "wide5"])
    def test_window_equals_per_tuple_default(self, f16, random_population, plant,
                                             mode, case, member, seed, lead, N):
        # the oracle's stacked window with the learner's targets and the
        # plain reference, every product per member and per term, give the
        # same rows, targets, next state, step counter and next noise draw;
        # from n = 4 on, a gemm (X @ Q) no longer matches the per-row gemv bits
        sys_, cost = {"f16": f16, "population": random_population[member],
                      "wide": _wide_plant(3), "wide4": _wide_plant(4),
                      "wide5": _wide_plant(5)}[plant]
        rng = np.random.default_rng(seed)
        n, m1, m2 = sys_.dims
        gains = GainPair(0.3 * rng.standard_normal((m2, n)),
                         0.3 * rng.standard_normal((m1, n)))
        M1, M2 = rng.standard_normal((2, n, n))
        cont = ValuePair(M1 + M1.T, M2 + M2.T)
        fast, plain = _rollout_both(
            sys_, cost, gains, cont, rng.standard_normal(n), lead, N, case,
            1 + seed % 40, mode, seed,
        )
        assert fast == plain

    def test_divergence_step_and_message_agree(self):
        # x grows about twofold per step, so the state guard trips inside the
        # window; with 100 branches the widest successor crosses the guard
        # at an earlier row, and that branch guard raises first
        sys_ = SdltiSystem([[2.0]], [[0.5]], [[0.0]], [[0.0]], [[0.0]])
        steps = {}
        for mode in ("analytic", "mc"):
            fast, plain = _rollout_both(
                sys_, CostSpec(1.0, [[1.0]]), GainPair.zeros(1),
                ValuePair.zeros(1), np.ones(1), 20, 40, "case1", 100, mode, 9,
            )
            assert fast == plain
            steps[mode] = fast[0]
            assert fast[1] == f"state exceeded divergence guard at step {fast[0]}"
        assert 20 < steps["mc"] < steps["analytic"] < 60


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

    def test_scalar_matches_solver(self, scalar_sys, scalar_cost, f16,
                                   random_population):
        # the mirror runs the solver's own loop: the same sweeps, bit for bit
        for sys_, cost in [(scalar_sys, scalar_cost), f16, *random_population]:
            rep = run_value_iteration(
                sys_, cost, _analytic_config(tol=1e-9, max_iters=5000)
            )
            direct = solve_coupled_gare(sys_, cost, tol=1e-9)
            assert rep.iterations == direct.iterations
            np.testing.assert_array_equal(rep.values.P1, direct.values.P1)
            np.testing.assert_array_equal(rep.values.P2, direct.values.P2)
            np.testing.assert_array_equal(rep.gains.K1, direct.gains.K1)
            np.testing.assert_array_equal(rep.gains.K2, direct.gains.K2)
            prev = [ValuePair.zeros(sys_.n)] + [it.values for it in rep.history]
            dP = [(np.linalg.norm(b.P1 - a.P1), np.linalg.norm(b.P2 - a.P2))
                  for a, b in zip(prev, prev[1:])]
            assert dP == [row[:2] for row in direct.history]

    def test_h_is_h_from_values_of_the_previous_values(self, f16, random_population):
        # the mirror records the loop's own H(i), which is h_from_values of
        # P(i-1) bit for bit: every dH and the final q pin it
        for sys_, cost in [f16, *random_population[:4]]:
            rep = run_value_iteration(sys_, cost, _analytic_config(tol=1e-9, max_iters=5000))
            prev = [ValuePair.zeros(sys_.n)] + [it.values for it in rep.history]
            qs = [QPair.zeros(*sys_.dims)] + [h_from_values(sys_, cost, v) for v in prev[:-1]]
            dH = [(np.linalg.norm(b.H1 - a.H1), np.linalg.norm(b.H2 - a.H2))
                  for a, b in zip(qs, qs[1:])]
            assert dH == [(it.dH1, it.dH2) for it in rep.history]
            np.testing.assert_array_equal(rep.q.H1, qs[-1].H1)
            np.testing.assert_array_equal(rep.q.H2, qs[-1].H2)

    def test_nonconvergence_attaches_report(self, f16):
        sys_, cost = f16
        with pytest.raises(ConvergenceError, match="no fixed point within 5 iter") as exc:
            run_value_iteration(sys_, cost, _analytic_config(max_iters=5))
        assert exc.value.report.iterations == 5
        assert exc.value.report.termination == str(exc.value)

    def test_divergence_report_ends_at_last_finite_sweep(self):
        # P1 and P2 grow by a1^2 = 2.25 per sweep until they overflow; the
        # mirror stops where the solver does, without a warning
        sys_ = SdltiSystem([[1.5]], [[0.0]], [[0.0]], [[0.0]], [[0.0]])
        cost = CostSpec(1.0, [[1.0]])
        reports = []
        for run in (
            lambda: run_value_iteration(sys_, cost, _analytic_config(max_iters=5000)),
            lambda: solve_coupled_gare(sys_, cost, max_iters=5000),
        ):
            with pytest.raises(ConvergenceError) as exc:
                run()
            assert str(exc.value) == (
                "no fixed point: the iterate left the finite range at sweep 875"
            )
            reports.append(exc.value.report)
        vi, direct = reports
        assert vi.iterations == direct.iterations == 874
        assert np.isfinite(vi.q.H2).all()
        np.testing.assert_array_equal(vi.values.P1, direct.values.P1)
        np.testing.assert_array_equal(vi.values.P2, direct.values.P2)


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

    def test_csv_err_cells_equal_per_cell_norms(self, tmp_path, f16, f16_solution):
        # the err columns come from one stacked norm per column; each cell
        # prints np.linalg.norm of its own difference
        sys_, cost = f16
        rvals, rgains = f16_solution.values, f16_solution.gains
        rep = run_q_learning(SystemOracle(sys_, NoiseSource(2), X0), cost,
                             _analytic_config(max_iters=12), f16_initial_gains(), X0)
        path = tmp_path / "conv.csv"
        rep.to_csv(path, (rvals, rgains))
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 12
        for line, it in zip(lines, rep.history):
            pairs = ((it.gains.K1, rgains.K1), (it.gains.K2, rgains.K2),
                     (it.values.P1, rvals.P1), (it.values.P2, rvals.P2))
            assert line.split(",")[3:7] == [f"{np.linalg.norm(a - b):.12g}" for a, b in pairs]

    def test_write_matrix_txt(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix_txt(np.array([[1.5, -2.0], [0.25, 3.0]]), path)
        rows = [line.split() for line in path.read_text().splitlines()]
        back = np.array([[float(c) for c in row] for row in rows])
        np.testing.assert_array_equal(back, [[1.5, -2.0], [0.25, 3.0]])
        assert rows[0][0] == "1.500000000000e+00"


def _plain_sym(M):
    return (M + M.T) / 2.0


def _plain_rows_times(A, X):
    return np.matmul(A, X[:, :, None])[:, :, 0]


def _plain_dot_rows(X, Y):
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


def _plain_quad_rows(X, P):
    return _plain_dot_rows(np.matmul(X[:, None, :], P)[:, 0, :], X)


def _plain_continuations(succ, cont):
    """<P, S S'> / B of each row's samples S for P1 and P2, with each row's
    moment a 2-D S @ S.T and one (N, n^2)·(n^2, 2) product."""
    N, n, B = succ.shape
    M = np.array([S @ S.T for S in succ]).reshape(N, n * n)
    return M @ np.array([cont.P1.ravel(), cont.P2.ravel()]).T / B


def _plain_mat(s, p):
    H = np.zeros((p, p))
    H[np.triu_indices(p)] = s
    return H + np.triu(H, 1).T


def _plain_window(sys_, noise, x, k, gains, probes, cost, cont, branches, mode):
    """One probed window and its targets, every product per member and per
    term; returns (next state, Z, Y) or raises the window's DivergenceError."""
    EU, EV = probes
    N = len(EU)
    xs, us, vs, bad = qlearn_module.closed_loop_path(
        sys_.A1, sys_.B1, sys_.C1, sys_.A2, sys_.C2, gains.K1, gains.K2, x,
        noise.draw(N), EU, EV)
    rows = N if bad < 0 else bad
    X, U, V = xs[:rows], us[:rows], vs[:rows]
    MU = (_plain_rows_times(sys_.A1, X) + _plain_rows_times(sys_.B1, U)
          + _plain_rows_times(sys_.C1, V))
    S = _plain_rows_times(sys_.A2, X) + _plain_rows_times(sys_.C2, V)
    if mode == "mc":
        W = noise.branch_window(k, rows, branches)
        succ = np.stack([MU + W[:, [b]] * S for b in range(branches)], axis=-1)
        ok = (np.abs(succ) <= qlearn_module.GUARD).all(axis=(1, 2))
        if not ok.all():
            raise DivergenceError(k + int(np.argmin(ok)))
    else:
        succ = np.stack([MU + S, MU - S], axis=-1)
    if bad >= 0:
        raise DivergenceError(k + bad)
    c1, c2 = _plain_continuations(succ, cont).T
    r2 = _plain_quad_rows(X, cost.Q) + _plain_dot_rows(U, U)
    r1 = cost.gamma**2 * _plain_dot_rows(V, V) - r2
    return xs[N], np.hstack([xs[:-1], us, vs]), np.column_stack([r1 + c1, r2 + c2])


def _plain_learn(sys_, cost, config, gains, x0, seed):
    """The learning loop on numpy alone, one member and one product at a time.

    Every iteration builds validated QPair, ValuePair and GainPair objects,
    rebuilds H1 and H2 one column at a time, runs each T'HT sandwich per
    member and each successor moment per row, and asks
    ProbingSchedule.window for each window on its own.  The trajectory kernel, the noise streams and the
    probe formula are the package's; tests/test_sim.py and
    TestProbingSchedule pin them.  Returns (error, history, termination, q):
    error is None, or the (type, message) of the error the run ends with,
    and history holds the iterations completed before it.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n, m1, m2 = sys_.dims
    p = n + m1 + m2
    sx, su, sv = slice(0, n), slice(n, n + m1), slice(n + m1, p)
    rows, cols = np.triu_indices(p)
    weights = np.where(rows == cols, 1.0, 2.0)
    schedule = ProbingSchedule(config.noise_case)
    noise = NoiseSource(seed)
    q = QPair(np.zeros((p, p)), np.zeros((p, p)), n, m1, m2)
    vals = ValuePair(np.zeros((n, n)), np.zeros((n, n)))
    x, k, history = x0.copy(), 0, []
    N, tol = config.tuples_per_iter, config.tol
    try:
        for i in range(config.max_iters):
            probes = schedule.window(k, N, m1, m2)
            x, Z, Y = _plain_window(sys_, noise, x, k, gains, probes, cost, vals,
                                    config.branches, config.expectation_mode)
            k += N
            X = (Z[:, :, None] * Z[:, None, :])[:, rows, cols] * weights
            U, s, Vt = np.linalg.svd(X, full_matrices=False)
            if s[-1] < 1e-10 * s[0]:
                first, last = np.linalg.norm(Z[[0, -1], :n], axis=1)
                cn = np.linalg.norm(X, axis=0)
                e_max = max(float(np.abs(e).max()) for e in probes)
                x_max = float(np.abs(Z[:, :n]).max())
                ratio = e_max / x_max if x_max > 0.0 else float("inf")
                raise ExcitationError(
                    f"insufficient excitation: singular values span {s[0]:.3e}..{s[-1]:.3e}"
                    f" at iteration {i + 1}, window |x| {first:.3e} -> {last:.3e}, "
                    f"X column norms {cn.max():.3e}..{cn.min():.3e}, "
                    f"probe-to-state ratio {ratio:.3e}")
            W = Vt.T @ ((U.T @ np.column_stack([Y[:, 0], Y[:, 1]])) / s[:, None])
            q_next = QPair(_plain_mat(W[:, 0], p), _plain_mat(W[:, 1], p), n, m1, m2)
            if config.expectation_mode == "analytic":
                if float(np.linalg.eigvalsh(q_next.H1[sv, sv]).min()) <= 0.0:
                    raise AttenuationInfeasibleError(
                        f"H1 vv-block lost definiteness at iteration {i + 1}")
            H1, H2 = q_next.H1, q_next.H2
            blk = np.block([[H1[sv, sv], H1[su, sv].T], [H2[su, sv], H2[su, su]]])
            KK = -np.linalg.solve(blk, np.vstack([H1[sx, sv].T, H2[sx, su].T]))
            gains_next = GainPair(KK[:m2], KK[m2:])
            T = np.vstack([np.eye(n), gains_next.K2, gains_next.K1])
            vals_next = ValuePair(_plain_sym(T.T @ H1 @ T), _plain_sym(T.T @ H2 @ T))
            dh1 = float(np.linalg.norm(H1 - q.H1))
            dh2 = float(np.linalg.norm(H2 - q.H2))
            stop, why = False, None
            if dh1 < tol and dh2 < tol:
                u_next, v_next = gains_next.K2 @ x0, gains_next.K1 @ x0
                z_next = np.concatenate([x0, u_next, v_next])
                z_prev = np.concatenate([x0, gains.K2 @ x0, gains.K1 @ x0])
                lead = float(z_next @ H2 @ z_next)
                sub = float(z_prev @ q.H2 @ z_prev)
                r2 = float(x0.dot(cost.Q).dot(x0) + u_next.dot(u_next))
                if lead - sub < r2:
                    stop = True
                    why = (f"H changes ({dh1:.3e}, {dh2:.3e}) below {tol:g} "
                           f"with admissibility margin {r2 - (lead - sub):.3e}")
            history.append((dh1, dh2, gains_next, vals_next, stop, float(s[-1])))
            q, gains, vals = q_next, gains_next, vals_next
            if stop:
                return None, history, f"stopped at iteration {i + 1}: {why}", q
    except (DivergenceError, ExcitationError, AttenuationInfeasibleError) as exc:
        return (type(exc), str(exc)), history, None, q
    return None, history, f"max_iters {config.max_iters} reached without stop", q


def _bits(*arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


def _assert_same_run(rep, history, reason, q):
    assert rep.termination == reason
    assert len(rep.history) == len(history)
    for it, (dh1, dh2, g, v, stop, svmin) in zip(rep.history, history):
        assert (it.dH1, it.dH2, it.stop, it.svmin) == (dh1, dh2, stop, svmin)
        assert _bits(it.gains.K1, it.gains.K2, it.values.P1, it.values.P2) == \
            _bits(g.K1, g.K2, v.P1, v.P2)
    assert _bits(rep.q.H1, rep.q.H2) == _bits(q.H1, q.H2)
    assert rep.q.dims == q.dims


def _assert_learns_plain_bits(sys_, cost, config, gains, x0, seed):
    """run_q_learning against _plain_learn: every Iterate field, the stop
    reason and the final q bit for bit, or the same error and message, with
    the iterations before the error compared on a run whose budget ends
    there.  Returns the run's report, or the type of its error."""
    error, history, reason, q = _plain_learn(sys_, cost, config, gains, x0, seed)

    def run(cfg):
        return run_q_learning(SystemOracle(sys_, NoiseSource(seed), x0), cost, cfg, gains, x0)

    if error is None:
        rep = run(config)
        _assert_same_run(rep, history, reason, q)
        return rep
    with pytest.raises(error[0]) as exc:
        run(config)
    assert str(exc.value) == error[1]
    if history:
        budget = len(history)
        _assert_same_run(run(dataclasses.replace(config, max_iters=budget)), history,
                         f"max_iters {budget} reached without stop", q)
    return error[0]


class TestPlainReference:
    """The learner against its plain numpy spelling, bit for bit."""

    @pytest.mark.parametrize("case, budget", [("case1", 500), ("case2", 70), ("case3", 70)])
    def test_f16_analytic(self, f16, case, budget):
        # case 1 runs to its stop at iteration 221 through four blocks of
        # probe windows; a budget of 70 ends in a short second block
        rep = _assert_learns_plain_bits(*f16, _analytic_config(noise_case=case,
                                                               max_iters=budget),
                                        f16_initial_gains(), X0, 3)
        assert rep.iterations > qlearn_module._PROBE_BLOCK

    @pytest.mark.parametrize("case, seed, outcome", [
        ("case1", 0, DivergenceError), ("case1", 1, None), ("case1", 2, ExcitationError),
        ("case2", 1, None), ("case3", 1, ExcitationError),
    ])
    def test_f16_monte_carlo(self, f16, case, seed, outcome):
        # the learn_mc settings; seeds 0 and 2 abort, as the benchmark counts
        cfg = AlgoConfig(tol=1e-3, max_iters=60, tuples_per_iter=20, branches=100,
                         noise_case=case, expectation_mode="mc")
        got = _assert_learns_plain_bits(*f16, cfg, f16_initial_gains(), X0, seed)
        if outcome is None:
            assert got.iterations == 60
        else:
            assert got is outcome

    @pytest.mark.parametrize("mode", ["analytic", "mc"])
    @pytest.mark.parametrize("n, m1, m2", [(3, 2, 2), (4, 1, 3), (2, 3, 1)])
    def test_random_plants(self, n, m1, m2, mode):
        # several inputs and disturbances: larger H1vv blocks through
        # eigvalsh, non-square gain blocks, wider branch means
        sys_, cost = random_feasible_system(np.random.default_rng(5), n=n, m1=m1, m2=m2)
        p = n + m1 + m2
        cfg = _analytic_config(max_iters=40, tuples_per_iter=p * (p + 1) // 2 + 3,
                               expectation_mode=mode, branches=20, noise_case="case3")
        _assert_learns_plain_bits(sys_, cost, cfg, GainPair.zeros(n, m1, m2), np.ones(n), 7)


def _admissible(sys_, gains):
    return ms_stable(*closed_loop_pair(sys_, gains))


def test_unstable_population_admissible_from_vi_iteration(unstable_population):
    # PAPER.md: the policy is admissible after finitely many iterations.  On
    # open-loop unstable plants from zero gains it is not admissible at
    # first; value iteration becomes admissible at sweep i* and stays so,
    # and the analytic learner's iterates become admissible at the same
    # iteration, or the run aborts on lost excitation (two plants, whose
    # state grows by orders of magnitude within a window)
    cfg = _analytic_config(max_iters=2000)
    i_stars, aborted = [], []
    for index, (sys_, cost) in enumerate(unstable_population):
        vi = run_value_iteration(sys_, cost, AlgoConfig(tol=1e-10, max_iters=5000))
        ok = [_admissible(sys_, it.gains) for it in vi.history]
        i_star = ok.index(True) + 1
        assert all(ok[i_star - 1:])
        i_stars.append(i_star)
        got = _assert_learns_plain_bits(sys_, cost, cfg, GainPair.zeros(3), np.ones(3), 1)
        if isinstance(got, type):
            assert got is ExcitationError
            aborted.append(index)
            continue
        assert "stopped" in got.termination
        ok = [_admissible(sys_, it.gains) for it in got.history]
        assert ok.index(True) + 1 == i_star and all(ok[i_star - 1:])
    assert i_stars == [2, 2, 3, 4, 5, 4, 2, 2, 2, 3, 2, 2]
    assert aborted == [2, 3]


def test_learner_builds_validated_containers_a_fixed_number_of_times(f16, monkeypatch):
    # the loop's own QPair, ValuePair and GainPair skip __post_init__: the
    # validated constructions of a run must not grow with its iterations
    built = []
    for cls in (QPair, ValuePair, GainPair):
        def counting(self, _original=cls.__post_init__, _name=cls.__name__):
            built.append(_name)
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    counts = {}
    for mode, branches in (("analytic", 1), ("mc", 100)):
        for iters in (2, 9):
            gains = f16_initial_gains()
            built.clear()
            rep = run_q_learning(SystemOracle(f16[0], NoiseSource(1), X0), f16[1],
                                 _analytic_config(max_iters=iters, expectation_mode=mode,
                                                  branches=branches), gains, X0)
            assert rep.iterations == iters
            counts[mode, iters] = sorted(built)
    assert all(c == ["QPair", "ValuePair"] for c in counts.values())
    # the VI mirror: its zero start QPair only, whatever its sweep count
    for tol in (1e-1, 1e-3):
        built.clear()
        rep = run_value_iteration(*f16, AlgoConfig(tol=tol, max_iters=500))
        counts["vi", rep.iterations] = sorted(built)
    assert ("vi", 221) in counts and len(counts) == 6
    assert all(c == ["QPair"] for (route, _), c in counts.items() if route == "vi")


def test_learner_iteration_checks_no_symmetry(f16, monkeypatch):
    # the regression rows skip vech's symmetry pass and the loop's pairs
    # skip __post_init__'s: require_symmetric calls do not grow with the
    # iterations
    calls = []
    original = model.require_symmetric

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for module in (model, qfunction):
        monkeypatch.setattr(module, "require_symmetric", counting)
    counts = {}
    for mode, branches in (("analytic", 1), ("mc", 100)):
        for iters in (2, 9):
            calls.clear()
            rep = run_q_learning(SystemOracle(f16[0], NoiseSource(1), X0), f16[1],
                                 _analytic_config(max_iters=iters, expectation_mode=mode,
                                                  branches=branches),
                                 f16_initial_gains(), X0)
            assert rep.iterations == iters
            counts[mode, iters] = sorted(calls)
    assert all(c == counts["analytic", 2] for c in counts.values())
    assert "Z" not in counts["analytic", 2]


class TestNonFiniteEstimates:
    """A non-finite estimate raises the validated constructor's ValueError."""

    @pytest.mark.parametrize("column, bad", [(0, np.inf), (1, np.nan)])
    def test_regression_solution(self, column, bad):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 15))
        Y = rng.standard_normal((30, 2))
        Y[4, column] = bad
        member = f"H{column + 1}"
        H = [np.eye(5), np.eye(5)]
        H[column] = np.full((5, 5), bad)
        with pytest.raises(ValueError) as expected:
            QPair(*H, 3, 1, 1)
        with pytest.raises(ValueError, match=f"^{member} has non-finite entries$") as exc:
            with np.errstate(invalid="ignore"):
                least_squares_h(X, Y, (3, 1, 1))
        assert str(exc.value) == str(expected.value)

    @pytest.mark.parametrize("member", [0, 1])
    def test_value_pair(self, member):
        # a finite H whose sandwich overflows
        H = [np.eye(5), np.eye(5)]
        H[member] = 1e300 * np.eye(5)
        gains = GainPair(np.full((1, 3), 1e10), np.full((1, 3), -1e10))
        T = np.vstack([np.eye(3), gains.K2, gains.K1])
        with pytest.raises(ValueError) as expected, np.errstate(all="ignore"):
            ValuePair(*(T.T @ h @ T for h in H))
        with pytest.raises(ValueError, match=f"^P{member + 1} has non-finite") as exc, \
                np.errstate(all="ignore"):
            values_from_q(QPair(*H, 3, 1, 1), gains)
        assert str(exc.value) == str(expected.value)

    def test_inconsistent_dims_rejected_as_before(self):
        X = np.random.default_rng(3).standard_normal((30, 15))
        with pytest.raises(ValueError, match="inconsistent with partition"):
            least_squares_h(X, np.ones((30, 2)), (2, 1, 1))
