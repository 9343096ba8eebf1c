"""Noise streams, single transitions, trajectory plumbing, attenuation."""

import contextlib
import errno
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stoch_h2hinf import (
    AlgoConfig,
    CostSpec,
    DivergenceError,
    GainPair,
    NoiseSource,
    ProbingSchedule,
    SdltiSystem,
    SystemOracle,
    Trajectory,
    ValuePair,
    empirical_attenuation,
    f16_initial_gains,
    run_q_learning,
    simulate_closed_loop,
    simulate_to_csv,
    solve_coupled_gare,
    solve_coupled_gare_pi,
    stage_costs,
    step,
)
from stoch_h2hinf import _kernels
from stoch_h2hinf import sim as sim_module
from stoch_h2hinf._kernels import _BLOCK, GUARD, closed_loop_path
from stoch_h2hinf.cli import main
from stoch_h2hinf.f16 import X0
from stoch_h2hinf.sim import _CHUNK, _TAG_BRANCH, _TAG_RUN


def _numpy_rows(seed, tag, key, rows, count):
    """Row t: the first `count` draws of default_rng(SeedSequence((seed, tag, key + t)))."""
    out = np.empty((rows, count))
    for t in range(rows):
        rng = np.random.default_rng(np.random.SeedSequence((seed, tag, key + t)))
        out[t] = rng.standard_normal(count)
    return out


class TestNoiseSource:
    def test_same_seed_same_sequence(self):
        a = NoiseSource(42).draw(100)
        b = NoiseSource(42).draw(100)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, NoiseSource(43).draw(100))

    def test_moments(self):
        n = 1_000_000
        draws = NoiseSource(7).draw(n)
        # 5 sigma on the mean and on the variance estimator (Gaussian
        # kurtosis 3)
        assert abs(draws.mean()) < 5.0 / np.sqrt(n)
        assert abs(draws.var() - 1.0) < 5.0 * np.sqrt(2.0 / n) + 1e-6

    def test_branch_draws_pure(self):
        ns = NoiseSource(9)
        first = ns.branch_window(3, 1, 5)[0]
        ns.draw(17)
        np.testing.assert_array_equal(ns.branch_window(3, 1, 5)[0], first)
        assert not np.array_equal(ns.branch_window(4, 1, 5)[0], first)
        # prefix property: a longer call extends the same stream
        np.testing.assert_array_equal(ns.branch_window(3, 1, 8)[0, :5], first)

    def test_run_draws_pure(self):
        ns = NoiseSource(9)
        first = ns._window(_TAG_RUN, 2, 1, 6)
        np.testing.assert_array_equal(ns._window(_TAG_RUN, 2, 1, 6), first)
        assert not np.array_equal(ns._window(_TAG_RUN, 1, 1, 6), first)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                          st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**140)),
           key=st.one_of(st.integers(0, 3000), st.integers(2**32 - 40, 2**32 + 2),
                         st.integers(2**64 - 40, 2**64 + 2)),
           rows=st.integers(1, 45), count=st.integers(1, 9))
    def test_derived_streams_are_numpys(self, seed, key, rows, count):
        # the block-hashed seeding reproduces SeedSequence and PCG64 bit for
        # bit: seeds of one to five words, and windows across 2^32 and 2^64
        # (a key's word count changes there) and across hashing blocks
        ns = NoiseSource(seed)
        window = ns.branch_window(key, rows, count)
        expect = _numpy_rows(seed, _TAG_BRANCH, key, rows, count)
        assert window.tobytes() == expect.tobytes()
        t = rows // 2
        assert ns._window(_TAG_RUN, key + t, 1, count).tobytes() == _numpy_rows(
            seed, _TAG_RUN, key + t, 1, count).tobytes()
        assert ns.branch_window(key + t, 1, count).tobytes() == expect[t].tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_windows_across_and_onto_block_edges(self, seed):
        # keys 500..1599 span three hashing blocks, one more than the cache
        # holds; the other windows end exactly on a block's last key, or
        # start on a block's first
        block = sim_module._SEED_BLOCK
        ns = NoiseSource(seed)
        for key, rows in ((500, 1100), (2 * block - 24, 24), (2 * block, 5),
                          (3 * block - 1, 1), (0, block)):
            got = ns.branch_window(key, rows, 3)
            assert got.tobytes() == _numpy_rows(seed, _TAG_BRANCH, key, rows, 3).tobytes()
        # an evicted block hashes again to the same seeds
        assert ns.branch_window(600, 2, 3).tobytes() == _numpy_rows(
            seed, _TAG_BRANCH, 600, 2, 3).tobytes()

    def test_seeding_step_on_limbs_is_pythons(self):
        # PCG64's seeding step (s + inc) * MULT + inc mod 2^128 on uint64
        # (hi, lo) limbs, against Python ints: all zeros, all ones, a carry
        # out of the low limb of the sum and of the products' halves
        mult, top = 0x2360ED051FC65DA44385DF649FCCF645, 2**128 - 1
        edges = [0, 1, top, 2**64 - 1, 2**64, top - (2**64 - 1), 2**127,
                 2**64 + 2**32 - 1, 0xFFFFFFFF00000000FFFFFFFF00000000]
        rng = np.random.default_rng(35)
        edges += [int.from_bytes(rng.bytes(16), "little") for _ in range(20)]
        pairs = [(s, inc) for s in edges for inc in edges]

        def limbs(values):
            return (np.array([v >> 64 for v in values], dtype=np.uint64),
                    np.array([v & (2**64 - 1) for v in values], dtype=np.uint64))

        s, inc = (limbs(v) for v in zip(*pairs))
        hi, lo = sim_module._pcg_step(sim_module._add128(s, inc), inc)
        got = [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]
        assert got == [((s + inc) * mult + inc) & top for s, inc in pairs]

    def test_negative_seed_or_key_rejected_like_seedsequence(self):
        for entropy in ((-1, 0), (3, _TAG_BRANCH, -1)):
            with pytest.raises(ValueError):
                np.random.SeedSequence(entropy)
        with pytest.raises(ValueError):
            NoiseSource(-1)
        ns = NoiseSource(3)
        with pytest.raises(ValueError):
            ns.branch_window(-1, 1, 4)
        with pytest.raises(ValueError):
            ns.branch_window(-3, 5, 4)
        ns.seed = -2**70
        for call in (lambda: ns.branch_window(0, 1, 4),
                     lambda: ns._window(_TAG_RUN, 7, 1, 4)):
            with pytest.raises(ValueError):
                call()


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

    def test_dot_products_equal_matmul_formulas(self, f16, random_population):
        # step and stage_costs take their products with .dot; each value
        # equals the @ formula bit for bit, on rows of a window as well
        rng = np.random.default_rng(29)
        wide = SdltiSystem(*(rng.standard_normal((3, k)) for k in (3, 3, 2, 2, 2)))
        for sys_, cost in [f16, *random_population, (wide, CostSpec(5.0, np.eye(3)))]:
            for x, u, v, w in zip(rng.standard_normal((20, sys_.n)),
                                  rng.standard_normal((20, sys_.m1)),
                                  rng.standard_normal((20, sys_.m2)),
                                  rng.standard_normal(20)):
                mu = sys_.A1 @ x + sys_.B1 @ u + sys_.C1 @ v
                s = sys_.A2 @ x + sys_.C2 @ v
                assert step(sys_, x, u, v, w).tobytes() == (mu + w * s).tobytes()
                r2 = float(x @ cost.Q @ x + u @ u)
                assert stage_costs(cost, x, u, v) == (
                    float(cost.gamma**2 * (v @ v) - r2), r2)

    def test_expected_next_quadratic_examples(self, scalar_sys):
        # SystemOracle.rollout gives each row's pair x+ = mu + s, mu - s in
        # analytic mode, so E(x+' P x+) = mu'P mu + s'P s is the pair's mean
        # for both members of the value pair
        ident = SdltiSystem(
            np.eye(2), np.zeros((2, 2)), np.zeros((2, 1)),
            np.zeros((2, 1)), np.zeros((2, 1)),
        )
        pair = _pair(ident, [3.0, 4.0], [0.0], [0.0])
        assert pair.tolist() == [[3.0, 4.0], [3.0, 4.0]]
        assert _expected_quadratics(pair, ValuePair(np.eye(2), np.zeros((2, 2)))) == [25.0, 0.0]
        pair = _pair(scalar_sys, [1.0], [0.0], [0.0])
        assert pair.tolist() == [[0.8 + 0.1], [0.8 - 0.1]]
        c1, c2 = _expected_quadratics(pair, ValuePair([[1.0]], [[2.0]]))
        assert c1 == pytest.approx(0.65, abs=1e-15)
        assert c2 == pytest.approx(1.3, abs=1e-15)

    def test_expected_next_quadratic_matches_sampling(self, random_population):
        sys_, _ = random_population[0]
        rng = np.random.default_rng(21)
        M1 = rng.standard_normal((sys_.n, sys_.n))
        M2 = rng.standard_normal((sys_.n, sys_.n))
        vals = ValuePair(M1 + M1.T, M2 @ M2.T)
        x = rng.standard_normal(sys_.n)
        u = rng.standard_normal(sys_.m1)
        v = rng.standard_normal(sys_.m2)
        pair = _pair(sys_, x, u, v)
        # the drift plus and minus the noise direction, bit for bit
        mu = sys_.A1 @ x + sys_.B1 @ u + sys_.C1 @ v
        s = sys_.A2 @ x + sys_.C2 @ v
        assert pair.tobytes() == np.array([mu + s, mu - s]).tobytes()
        exact = _expected_quadratics(pair, vals)
        N = 40_000
        omegas = NoiseSource(3).branch_window(0, 1, N)[0]
        succ = mu[None, :] + omegas[:, None] * s[None, :]
        for P, c in zip((vals.P1, vals.P2), exact):
            sample = np.einsum("ij,jk,ik->i", succ, P, succ).mean()
            std = np.sqrt(4 * (mu @ P @ s) ** 2 + 2 * (s @ P @ s) ** 2)
            assert abs(sample - c) < 5.0 * std / np.sqrt(N) + 1e-12


def _pair(sys_, x, u, v):
    """The successor pair (mu + s, mu - s) of the one-row analytic window at
    x with executed inputs (u, v): zero gains, the probe row (u, v)."""
    oracle = SystemOracle(sys_, NoiseSource(0), x)
    probes = (np.atleast_1d(np.asarray(u, dtype=float))[None],
              np.atleast_1d(np.asarray(v, dtype=float))[None])
    Z, succ = oracle.rollout(GainPair.zeros(*sys_.dims), probes, 1, "analytic")
    assert succ.shape == (1, sys_.n, 2)
    return succ[0].T


def _expected_quadratics(pair, vals):
    """The mean of x'P x over the pair's two successors, for P1 and P2."""
    return [float(np.mean([x @ P @ x for x in pair])) for P in (vals.P1, vals.P2)]


class TestSimulate:
    def test_zero_fixed_point(self, scalar_sys, scalar_cost):
        traj = simulate_closed_loop(
            scalar_sys, scalar_cost, GainPair.zeros(1), [0.0], 20, NoiseSource(0)
        )
        assert not traj.states.any() and not traj.r2.any()
        assert traj.steps == 20 and traj.states.shape == (21, 1)

    def test_replay_consistency(self, f16, f16_solution, random_population):
        # the kernel's states equal a step() replay bit for bit: F-16's plain
        # closed loop under its solved gains, then every population member
        # and a two-input, two-disturbance plant under random gains with
        # window probes
        sys_, cost = f16
        traj = simulate_closed_loop(
            sys_, cost, f16_solution.gains, [10.0, 5.0, -2.0], 50, NoiseSource(11)
        )
        paths = [(sys_, traj.states, traj.inputs_u, traj.inputs_v, traj.noises)]
        rng = np.random.default_rng(17)
        wide = SdltiSystem(
            0.3 * rng.standard_normal((3, 3)), 0.1 * rng.standard_normal((3, 3)),
            rng.standard_normal((3, 2)), rng.standard_normal((3, 2)),
            0.1 * rng.standard_normal((3, 2)),
        )
        for s in [member for member, _ in random_population] + [wide]:
            gains = GainPair(
                0.1 * rng.standard_normal((s.m2, s.n)),
                0.1 * rng.standard_normal((s.m1, s.n)),
            )
            omegas = NoiseSource(11).draw(50)
            xs, us, vs, bad = closed_loop_path(
                s.A1, s.B1, s.C1, s.A2, s.C2, gains.K1, gains.K2,
                rng.standard_normal(s.n), omegas,
                *ProbingSchedule("case1").window(0, 50, s.m1, s.m2),
            )
            assert bad == -1
            paths.append((s, xs, us, vs, omegas))
        assert (wide.m1, wide.m2) == (2, 2)
        for s, xs, us, vs, omegas in paths:
            for k in range(50):
                expect = step(s, xs[k], us[k], vs[k], omegas[k])
                np.testing.assert_array_equal(xs[k + 1], expect)

    def test_inputs_follow_policy_and_probe(self, f16, f16_solution):
        sys_, _ = f16
        g = f16_solution.gains
        sched = ProbingSchedule("case1")
        xs, us, vs, _ = closed_loop_path(
            sys_.A1, sys_.B1, sys_.C1, sys_.A2, sys_.C2, g.K1, g.K2,
            np.array([10.0, 5.0, -2.0]), NoiseSource(3).draw(10), *sched.window(0, 10),
        )
        for k in range(10):
            e_u, e_v = sched.window(k, 1)
            np.testing.assert_allclose(us[k], g.K2 @ xs[k] + e_u[0], atol=1e-13)
            np.testing.assert_allclose(vs[k], g.K1 @ xs[k] + e_v[0], atol=1e-13)

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

    @pytest.mark.parametrize("steps", [1, _CHUNK, _CHUNK + 1])
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


def _plain_csv(traj, path):
    """The block writer trajectory.csv had before its constant tail: every row formatted."""
    dims = (("x", traj.states), ("u", traj.inputs_u), ("v", traj.inputs_v))
    header = ["k", *(f"{c}{i+1}" for c, a in dims for i in range(a.shape[1]))]
    header += ["omega", "r1", "r2"]
    row = "%d," + ",".join(["%.12g"] * (len(header) - 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, traj.steps, _CHUNK):
            b = min(a + _CHUNK, traj.steps)
            block = np.column_stack((
                np.arange(a, b), traj.states[a:b], traj.inputs_u[a:b],
                traj.inputs_v[a:b], traj.noises[a:b], traj.r1[a:b], traj.r2[a:b],
            ))
            fh.write((row * (b - a)) % tuple(block.ravel().tolist()))
        tail = [str(traj.steps)] + [f"{x:.12g}" for x in traj.states[-1]]
        fh.write(",".join(tail + [""] * (len(header) - len(tail))) + "\n")


def _tailed_trajectory(T, start, rng):
    """Random rows, with x, u, v, r1 and r2 repeated from row `start` on and
    awkward values (-0.0, NaN, inf, subnormal) in the repeated row."""
    cols = [rng.standard_normal((T + 1, 3)), rng.standard_normal((T, 2)),
            rng.standard_normal((T, 1)), rng.standard_normal(T), rng.standard_normal(T)]
    const = [np.array([-0.0, 5e-324, np.nan]), np.array([np.inf, 0.1]),
             np.array([-np.inf]), 1e300, -1e-310]
    for a, c in zip(cols, const):
        a[start:T] = c
    return Trajectory(cols[0], cols[1], cols[2], rng.standard_normal(T), cols[3], cols[4])


class TestTrajectoryCsv:
    @pytest.mark.parametrize("T, start", [
        (1, 0), (2, 0), (7, 3), (7, 6), (_CHUNK + 9, 4),
        (2 * _CHUNK + 3, _CHUNK + 5), (_CHUNK, _CHUNK - 1)])
    def test_repeated_tail_matches_plain_writer(self, tmp_path, T, start):
        # a tail where only omega (and k) varies, starting in the first or
        # a later block; start = T - 1 repeats no row but the last, and
        # T = 1 is all tail
        traj = _tailed_trajectory(T, start, np.random.default_rng(T + start))
        traj.to_csv(tmp_path / "new.csv")
        _plain_csv(traj, tmp_path / "plain.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    @pytest.mark.parametrize("column", ["x", "u", "v", "r1", "r2"])
    def test_signed_zero_breaks_the_tail(self, tmp_path, column):
        # rows that differ from the last only in the sign of a zero print
        # "-0" where the last prints "0", so they are not merged into it
        T = 50
        traj = Trajectory(np.zeros((T + 1, 2)), np.zeros((T, 1)), np.zeros((T, 2)),
                          np.random.default_rng(1).standard_normal(T), np.zeros(T),
                          np.zeros(T))
        a = {"x": traj.states, "u": traj.inputs_u, "v": traj.inputs_v,
             "r1": traj.r1, "r2": traj.r2}[column]
        a[10:40:3] = -0.0
        traj.to_csv(tmp_path / "new.csv")
        _plain_csv(traj, tmp_path / "plain.csv")
        text = (tmp_path / "new.csv").read_text()
        assert text.encode() == (tmp_path / "plain.csv").read_bytes()
        assert text.count(",-0,") + text.count(",-0\n") >= 10

    def test_cli_simulate_custom_matches_reference(self, tmp_path):
        # simulate on a custom plant that underflows to 0 within a few
        # blocks: the kernel fills the settled tail, and trajectory.csv is
        # the plain writer's output of the per-step reference path under
        # the gains simulate solves, by policy iteration at its default tol
        mats = {"a1": [[0.2, 0.05], [0.0, 0.1]], "a2": 0.05 * np.eye(2),
                "b1": [[1.0], [0.5]], "c1": [[0.1], [0.2]], "c2": [[0.01], [0.02]]}
        args = ["simulate", "--system", "custom", "--steps", "2000", "--seed", "7",
                "--out", str(tmp_path / "out")]
        for name, m in mats.items():
            np.savetxt(tmp_path / f"{name}.txt", m)
            args += [f"--{name}", str(tmp_path / f"{name}.txt")]
        with _settle_spy(2000) as taken:
            assert main(args) == 0
        assert len(taken) == 1
        sys_ = SdltiSystem(*(np.array(mats[k], dtype=float)
                             for k in ("a1", "a2", "b1", "c1", "c2")))
        cost = CostSpec(1.0, np.eye(2))
        g = solve_coupled_gare_pi(sys_, cost, 1e-9, 5000).gains
        traj, bad = _reference_trajectory(sys_, cost, g, np.ones(2), NoiseSource(7).draw(2000))
        assert bad == -1
        _plain_csv(traj, tmp_path / "plain.csv")
        assert ((tmp_path / "out" / "trajectory.csv").read_bytes()
                == (tmp_path / "plain.csv").read_bytes())


def _reference_trajectory(sys_, cost, gains, x0, omegas):
    """(Trajectory, bad) of the unprobed closed loop on these omegas: the
    per-step reference path, its stage costs formed over the whole path."""
    T = omegas.shape[0]
    xs, us, vs, bad = _reference_path(
        sys_.A1, sys_.B1, sys_.C1, sys_.A2, sys_.C2, gains.K1, gains.K2,
        np.asarray(x0, dtype=float), omegas, np.zeros((T, sys_.m1)), np.zeros((T, sys_.m2)))
    r2 = (np.einsum("ij,jk,ik->i", xs[:-1], cost.Q, xs[:-1])
          + np.einsum("ij,ij->i", us, us))
    r1 = cost.gamma**2 * np.einsum("ij,ij->i", vs, vs) - r2
    return Trajectory(xs, us, vs, omegas, r1, r2), bad


def _reference_path(A1, B1, C1, A2, C2, K1, K2, x0, omegas, eu, ev):
    """The per-step kernel loop: the guard checked after every state, stop at the first trip."""
    T = omegas.shape[0]
    n = A1.shape[0]
    xs = np.zeros((T + 1, n))
    us = np.zeros((T, B1.shape[1]))
    vs = np.zeros((T, C1.shape[1]))
    xs[0] = x0
    x = x0.copy()
    bad = -1
    for t in range(T):
        u = K2.dot(x) + eu[t]
        v = K1.dot(x) + ev[t]
        mu = A1.dot(x) + B1.dot(u) + C1.dot(v)
        s = A2.dot(x) + C2.dot(v)
        x = mu + omegas[t] * s
        us[t] = u
        vs[t] = v
        xs[t + 1] = x
        ok = True
        for j in range(n):
            if not math.isfinite(x[j]) or abs(x[j]) > GUARD:
                ok = False
        if not ok:
            bad = t + 1
            break
    return xs, us, vs, bad


class TestKernel:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.integers(1, 5), m1=st.integers(1, 3), m2=st.integers(1, 3),
           T=st.one_of(st.integers(1, 30), st.integers(_BLOCK - 2, _BLOCK + 2),
                       st.integers(2 * _BLOCK - 2, 2 * _BLOCK + 2)),
           rho=st.sampled_from([0.5, 0.9, 1.06, 1.1, 1e3, 1e200]), seed=st.integers(0, 2**16))
    def test_blocked_loop_equals_per_step_reference(self, n, m1, m2, T, rho, seed):
        # probed paths of lengths around the guard-check blocks; rho = 1.06
        # and 1.1 trip the guard late in the first block or in the second,
        # 1e3 within a few steps, and 1e200 by overflow, which runs on to
        # inf and NaN within the block yet warns of nothing
        rng = np.random.default_rng(seed)
        A1 = rho * np.eye(n) + 0.05 * rng.standard_normal((n, n))
        B1, C1 = rng.standard_normal((n, m1)), rng.standard_normal((n, m2))
        A2, C2 = 0.1 * rng.standard_normal((n, n)), rng.standard_normal((n, m2))
        K1, K2 = 0.01 * rng.standard_normal((m2, n)), 0.01 * rng.standard_normal((m1, n))
        args = (A1, B1, C1, A2, C2, K1, K2, rng.standard_normal(n),
                rng.standard_normal(T), rng.standard_normal((T, m1)),
                rng.standard_normal((T, m2)))
        with np.errstate(all="ignore"):
            expect = _reference_path(*args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = closed_loop_path(*args)
        _assert_same_path(got, expect)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 5), m1=st.integers(1, 3), m2=st.integers(1, 3),
           blocks=st.integers(1, 5), offset=st.integers(-1, 1),
           plant=st.sampled_from([(0.02, 1.0), (0.1, 1.0), (0.3, 1.0), (0.9, 1e-300)]),
           seed=st.integers(0, 2**16))
    def test_settling_path_equals_per_step_reference(self, n, m1, m2, blocks, offset,
                                                     plant, seed):
        # unprobed plants that underflow to an exact fixed point within a
        # few blocks: 0 for the fast ones, a subnormal state for rho 0.9
        # started near underflow; lengths just below, at and above a block
        # multiple, so the last block end may or may not leave steps to fill
        T = blocks * _BLOCK + offset
        args = _settling_args(n, m1, m2, T, *plant, seed)
        with _settle_spy(T) as taken:
            got = closed_loop_path(*args)
        _assert_same_path(got, _reference_path(*args))
        assert got[3] == -1
        assert all(0 < b < T for b in taken)

    def test_settled_tail_is_filled(self):
        # the shortcut fires on a settling plant, once, at a block end
        # whose state repeats the one before, and leaves the reference's
        # path; a regression that never fires would still pass the
        # equality tests above
        T = 6 * _BLOCK
        args = _settling_args(3, 2, 1, T, 0.1, 1.0, 1)
        with _settle_spy(T) as taken:
            got = closed_loop_path(*args)
        _assert_same_path(got, _reference_path(*args))
        assert len(taken) == 1 and taken[0] % _BLOCK == 0 and taken[0] < T
        b = taken[0]
        assert (got[0][b:] == got[0][b]).all()
        assert (got[0][b - 1] == got[0][b]).all()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), m1=st.integers(1, 2), m2=st.integers(1, 2),
           plant=st.sampled_from([(0.02, 1.0), (0.3, 1.0), (0.9, 1e-300)]),
           seed=st.integers(0, 2**16), at=st.floats(0.0, 1.0),
           channel=st.sampled_from(["u", "v", "both"]),
           value=st.sampled_from([1.0, -0.5, 1e-320, -0.0]))
    def test_probe_after_settling_defers_shortcut(self, n, m1, m2, plant, seed, at,
                                                  channel, value):
        # one nonzero (or -0.0) probe row anywhere, settled state or not:
        # no shortcut is taken at or before it, and the path is the
        # reference's
        T = 4 * _BLOCK + 1
        args = _settling_args(n, m1, m2, T, *plant, seed)
        p = min(int(at * T), T - 1)
        if channel in ("u", "both"):
            args[9][p] = value
        if channel in ("v", "both"):
            args[10][p] = value
        with _settle_spy(T) as taken:
            got = closed_loop_path(*args)
        _assert_same_path(got, _reference_path(*args))
        assert all(b > p for b in taken)

    def test_negative_zero_probe_defers_shortcut(self):
        # at x = +0.0 with negative gains, K2 x and K1 x are -0.0, so a
        # -0.0 probe gives u = v = -0.0 where +0.0 probes give +0.0: the
        # state is settled, yet the rows it would fill differ at the probe
        T = 3 * _BLOCK
        one = np.ones((1, 1))
        eu, ev = np.zeros((T, 1)), np.zeros((T, 1))
        eu[600] = ev[600] = -0.0
        args = (0.5 * one, one, one, one, one, -0.1 * one, -0.1 * one, np.array([0.0]),
                np.random.default_rng(7).standard_normal(T), eu, ev)
        with _settle_spy(T) as taken:
            got = closed_loop_path(*args)
        _assert_same_path(got, _reference_path(*args))
        assert np.signbit(got[1][600]).all() and np.signbit(got[2][600]).all()
        assert taken == []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), plant=st.sampled_from([(0.02, 1.0), (0.9, 1e-300)]),
           seed=st.integers(0, 2**16), at=st.floats(0.0, 1.0),
           omega=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_nonfinite_omega_after_settling_trips_like_reference(self, n, plant, seed,
                                                                 at, omega):
        # w s is NaN for an infinite or NaN w even when s is 0, so the path
        # trips at the same step as the reference's, settled or not
        T = 5 * _BLOCK + 1
        args = _settling_args(n, 1, 1, T, *plant, seed)
        q = min(int(at * T), T - 1)
        args[8][q] = omega
        with np.errstate(all="ignore"):
            expect = _reference_path(*args)
        with _settle_spy(T) as taken:
            got = closed_loop_path(*args)
        _assert_same_path(got, expect)
        assert got[3] == q + 1
        assert all(b > q for b in taken)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("flip", [400, None])
    def test_signed_zero_state_is_not_settled(self, flip, sign):
        # x = -0.0 with A1 = 0.5, B1 = C1 = -1 and A2 = 1 gives mu = -0.0,
        # and s = A2 x + C2 v is +0.0 for C2 = 1 and -0.0 for C2 = -1; so
        # x+ keeps its -0.0 only while w has the sign opposite to C2's,
        # and one w of the other sign sets +0.0, an exact fixed point.  The
        # state equals the one before at every block end, yet only the test
        # of both mu + s and mu - s sees that a later w decides the next
        T = 3 * _BLOCK
        omegas = -sign * np.abs(np.random.default_rng(5).standard_normal(T))
        if flip is not None:
            omegas[flip] = sign
        one = np.ones((1, 1))
        args = (0.5 * one, -one, -one, one, sign * one, 0.1 * one, 0.1 * one,
                np.array([-0.0]), omegas, np.zeros((T, 1)), np.zeros((T, 1)))
        with _settle_spy(T) as taken:
            got = closed_loop_path(*args)
        _assert_same_path(got, _reference_path(*args))
        if flip is None:
            assert taken == [] and np.signbit(got[0]).all()
        else:
            assert taken == [2 * _BLOCK]
            assert np.signbit(got[0][:flip + 1]).all()
            assert not np.signbit(got[0][flip + 1:]).any()

    def test_noise_term_rounded_away_is_not_settled(self):
        # x = 1 with A1 = 1 and A2 = 1e-20: mu + s and mu - s both round to
        # x, but s is not 0, so a large enough w still moves the state
        T = 3 * _BLOCK
        omegas = np.random.default_rng(6).standard_normal(T)
        omegas[600] = 1e12
        one, zero = np.ones((1, 1)), np.zeros((1, 1))
        args = (one, zero, zero, 1e-20 * one, zero, zero, zero, np.array([1.0]),
                omegas, np.zeros((T, 1)), np.zeros((T, 1)))
        with _settle_spy(T) as taken:
            got = closed_loop_path(*args)
        _assert_same_path(got, _reference_path(*args))
        assert taken == [] and got[0][600, 0] == 1.0 and got[0][601, 0] > 1.0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.integers(2, 5),
           T=st.one_of(st.integers(1, 30), st.integers(_BLOCK - 2, _BLOCK + 2),
                       st.integers(2 * _BLOCK - 2, 2 * _BLOCK + 2)),
           rho=st.sampled_from([0.5, 0.9, 1.06, 1.1, 1e3, 1e200]), seed=st.integers(0, 2**16),
           zero=st.sampled_from([None, 0.0, -0.0]))
    def test_single_input_loop_equals_per_step_reference(self, n, T, rho, seed, zero):
        # the blocked-loop property above at m1 = m2 = 1, where every path
        # runs on Python floats; a zero column entry is where numpy's
        # product is +0.0 rather than the plain product
        rng = np.random.default_rng(seed)
        A1 = rho * np.eye(n) + 0.05 * rng.standard_normal((n, n))
        B1, C1, C2 = (rng.standard_normal((n, 1)) for _ in range(3))
        if zero is not None:
            for col in (B1, C1, C2):
                col[rng.integers(n), 0] = zero
        A2 = 0.1 * rng.standard_normal((n, n))
        K1, K2 = 0.01 * rng.standard_normal((1, n)), 0.01 * rng.standard_normal((1, n))
        args = (A1, B1, C1, A2, C2, K1, K2, rng.standard_normal(n),
                rng.standard_normal(T), rng.standard_normal((T, 1)),
                rng.standard_normal((T, 1)))
        with np.errstate(all="ignore"):
            expect = _reference_path(*args)
        with warnings.catch_warnings(), _loop_spy() as loops:
            warnings.simplefilter("error")
            got = closed_loop_path(*args)
        _assert_same_path(got, expect)
        assert set(loops) == {"single_input"}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 5), blocks=st.integers(1, 5), offset=st.integers(-1, 1),
           plant=st.sampled_from([(0.02, 1.0), (0.1, 1.0), (0.3, 1.0), (0.9, 1e-300)]),
           seed=st.integers(0, 2**16))
    def test_single_input_settling_equals_per_step_reference(self, n, blocks, offset,
                                                             plant, seed):
        # the settling property above at m1 = m2 = 1: the underflow into
        # subnormals and signed zeros runs on Python floats
        T = blocks * _BLOCK + offset
        args = _settling_args(n, 1, 1, T, *plant, seed)
        with _settle_spy(T) as taken, _loop_spy() as loops:
            got = closed_loop_path(*args)
        _assert_same_path(got, _reference_path(*args))
        assert got[3] == -1
        assert all(0 < b < T for b in taken)
        assert set(loops) == {"single_input"}

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("flip", [400, None])
    def test_signed_zero_state_single_input(self, flip, sign):
        # the plant of the test above on two copies of its state.  At
        # n >= 2 a gemv row or a column product of exact zeros is +0.0, so
        # mu and s are +0.0 where the n = 1 loop keeps -0.0: no state after
        # x0 holds -0.0, whatever the signs of w, and the path settles at
        # the first block end
        T = 3 * _BLOCK
        omegas = -sign * np.abs(np.random.default_rng(5).standard_normal(T))
        if flip is not None:
            omegas[flip] = sign
        ones, col = np.eye(2), np.ones((2, 1))
        args = (0.5 * ones, -col, -col, ones, sign * col, np.full((1, 2), 0.1),
                np.full((1, 2), 0.1), np.array([-0.0, -0.0]), omegas,
                np.zeros((T, 1)), np.zeros((T, 1)))
        with _settle_spy(T) as taken, _loop_spy() as loops:
            got = closed_loop_path(*args)
        _assert_same_path(got, _reference_path(*args))
        assert loops == ["single_input"] and taken == [_BLOCK]
        assert np.signbit(got[0][0]).all() and not np.signbit(got[0][1:]).any()

    def test_underflowed_column_product_keeps_its_sign(self):
        # x = 5e-324 (1, ..., 1) at n = 5, where a gemv row of products
        # that underflow below zero is -0.0 (at n <= 4 it is +0.0).  u and
        # v are -5e-24, so every column product 5e-324 u underflows too:
        # numpy's fma keeps its -0.0, where b u + 0.0 would give +0.0, and
        # the next state is -0.0 in every entry
        n, T, tiny = 5, 4, 5e-324
        A, col = np.full((n, n), -0.1), np.full((n, 1), tiny)
        K = np.zeros((1, n))
        K[0, 0] = -1e300
        args = (A, col, col, A, col, K, K, np.full(n, tiny), np.ones(T),
                np.zeros((T, 1)), np.zeros((T, 1)))
        with _loop_spy() as loops:
            got = closed_loop_path(*args)
        _assert_same_path(got, _reference_path(*args))
        assert loops == ["single_input"]
        assert np.signbit(got[0][1]).all() and (got[1][0] < 0).all()

    def test_learner_builds_the_loop_once(self, f16):
        # every window of one learning run steps the same plant, so its
        # loop is generated at the first window and reused after
        sys_, cost = f16
        _kernels._single_input_loop.cache_clear()
        config = AlgoConfig(tol=1e-3, max_iters=30, expectation_mode="analytic")
        with _loop_spy() as loops:
            report = run_q_learning(SystemOracle(sys_, NoiseSource(0), X0), cost, config,
                                    f16_initial_gains(), X0)
        built = _kernels._single_input_loop.cache_info()
        assert report.iterations == 30 and loops == ["single_input"] * 30
        assert (built.misses, built.hits) == (1, 29)

    @pytest.mark.parametrize("column, name", [(1, "b1"), (2, "c1"), (4, "r1")])
    def test_signed_zero_columns_get_their_own_loops(self, column, name):
        # plants whose B1, C1 or C2 differ only in the sign of a zero entry
        # are keyed by their bytes, so neither runs the other's loop
        T = 2 * _BLOCK + 7
        args = _settling_args(3, 1, 1, T, 0.9, 1.0, 17)
        rng = np.random.default_rng(column)
        args[9:] = rng.standard_normal((T, 1)), rng.standard_normal((T, 1))
        loops = []
        for zero in (0.0, -0.0):
            plant = list(args)
            plant[column] = args[column].copy()
            plant[column][1, 0] = zero
            loops.append(_kernels._single_input_ops(*plant[:7])[-1])
            with _loop_spy() as ran:
                got = closed_loop_path(*plant)
            _assert_same_path(got, _reference_path(*plant))
            assert set(ran) == {"single_input"}
        assert loops[0] is not loops[1]
        assert [math.copysign(1.0, loop.__kwdefaults__[name]) for loop in loops] == [1.0, -1.0]

    @pytest.mark.parametrize("dims, order, loop", [
        ((3, 1, 1), "C", "single_input"),
        ((3, 2, 1), "C", "general"),
        ((3, 1, 2), "C", "general"),
        ((1, 1, 1), "C", "general"),
        # a Fortran-ordered A1 runs another gemv kernel, with other bits
        ((3, 1, 1), "F", "general"),
    ])
    def test_loop_taken(self, f16, f16_solution, dims, order, loop):
        # which loop a path runs, so no bit test above can pass without
        # running the loop it is meant to check; (3, 1, 1) is F-16's
        n, m1, m2 = dims
        T = 2 * _BLOCK + 5
        if dims == (3, 1, 1):
            sys_, gains = f16[0], f16_solution.gains
            rng = np.random.default_rng(11)
            args = [sys_.A1, sys_.B1, sys_.C1, sys_.A2, sys_.C2, gains.K1, gains.K2,
                    X0, rng.standard_normal(T), 0.1 * rng.standard_normal((T, m1)),
                    0.1 * rng.standard_normal((T, m2))]
        else:
            args = _settling_args(n, m1, m2, T, 0.3, 1.0, 11)
        args[0] = np.asarray(args[0], order=order)
        with _loop_spy() as loops:
            got = closed_loop_path(*args)
        _assert_same_path(got, _reference_path(*args))
        assert loops == [loop] * 3


_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308,
             np.inf, -np.inf, np.nan)


def _special_draw(rng, shape):
    """Normal draws with about 40% of the entries replaced by signed zeros,
    subnormals, huge values, infinities and NaN."""
    a = rng.standard_normal(shape)
    hit = rng.random(shape) < 0.4
    a[hit] = rng.choice(_SPECIALS, size=int(hit.sum()))
    return a


class TestProductRules:
    """The numpy products whose bits the single-input kernel loop
    reproduces, pinned here: a numpy or BLAS upgrade that changes one fails
    in this class rather than as a changed artifact."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_stacked_rows_are_each_gemv(self, n):
        rng = np.random.default_rng(n)
        for _ in range(2000):
            A1, A2, x = (_special_draw(rng, shape) for shape in ((n, n), (n, n), n))
            with np.errstate(all="ignore"):
                got = np.concatenate((A1, A2)).dot(x)
                expect = np.concatenate((A1.dot(x), A2.dot(x)))
            if np.isnan(np.concatenate((A1, A2, x[None]))).any():
                # where a NaN meets a NaN made of infinities, the two calls
                # may keep different NaN payloads; the kernel's matrices are
                # finite and each row it keeps is a step from a finite state
                got = np.where(np.isnan(got), np.nan, got)
                expect = np.where(np.isnan(expect), np.nan, expect)
            assert got.tobytes() == expect.tobytes(), \
                "rule: each row of [A1; A2] . x has the bits of A1 . x or A2 . x"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_column_product_is_axpy_into_zeros(self, n):
        rng = np.random.default_rng(10 + n)
        rule = "rule: (n, 1) . (1,) is +0.0 for u = 0, else fma(b, u, +0.0), b u but +0.0 for b = 0"
        for _ in range(2000):
            B, (u,) = _special_draw(rng, (n, 1)), _special_draw(rng, 1).tolist()
            with np.errstate(all="ignore"):
                got = B.dot(np.array([u]))
            expect = [0.0 if u == 0 else b * u + (-0.0 if b else 0.0) for b in B[:, 0].tolist()]
            assert got.tobytes() == np.array(expect).tobytes(), rule
            # so do the generated loop's terms, b bound to the term's name,
            # in the branch on u the loop takes
            table = [eval(_kernels._product("b", b, "u", bool(u)), {"b": b, "u": u})
                     for b in B[:, 0].tolist()]
            assert np.array(table).tobytes() == got.tobytes(), rule
        # an fma, not b u + 0.0: a product that underflows keeps its sign
        assert np.signbit(np.full((n, 1), 5e-324).dot([-0.1])).all(), rule

    def test_one_entry_product_is_plain(self):
        # why n = 1 runs the general loop: no axpy, no +0.0
        rng = np.random.default_rng(1)
        for _ in range(2000):
            b, u = _special_draw(rng, 2).tolist()
            with np.errstate(all="ignore"):
                got = np.array([[b]]).dot(np.array([u]))
            assert got.tobytes() == np.array([b * u]).tobytes(), "rule: (1, 1) . (1,) is b u"
        assert np.signbit(np.array([[-1.0]]).dot([0.0])).all(), "rule: (1, 1) . (1,) is b u"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gain_row_dot_is_the_matrix_dot(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(2000):
            K, x = _special_draw(rng, (1, n)), _special_draw(rng, n)
            with np.errstate(all="ignore"):
                got, expect = np.array([K[0].dot(x)]), K.dot(x)
            assert got.tobytes() == expect.tobytes(), "rule: K[0] . x has the bits of K . x"


def _assert_same_path(got, expect):
    assert got[3] == expect[3]
    for a, b in zip(got[:3], expect[:3]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _settling_args(n, m1, m2, T, rho, scale, seed):
    """Kernel arguments of an unprobed plant with A1 near rho I and x0 of size scale."""
    rng = np.random.default_rng(seed)
    A1 = rho * np.eye(n) + 0.05 * rng.standard_normal((n, n))
    B1, C1 = rng.standard_normal((n, m1)), rng.standard_normal((n, m2))
    A2, C2 = 0.1 * rng.standard_normal((n, n)), rng.standard_normal((n, m2))
    K1, K2 = 0.01 * rng.standard_normal((m2, n)), 0.01 * rng.standard_normal((m1, n))
    return [A1, B1, C1, A2, C2, K1, K2, scale * rng.standard_normal(n),
            rng.standard_normal(T), np.zeros((T, m1)), np.zeros((T, m2))]


@contextlib.contextmanager
def _settle_spy(T):
    """Collects the block end of every settled-tail shortcut a T-step kernel run takes."""
    taken = []
    real = _kernels._settled_step

    def spy(*args):
        out = real(*args)
        if out is not None:
            taken.append(T - args[8].shape[0])  # args[8]: the omegas left
        return out

    with mock.patch.object(_kernels, "_settled_step", spy):
        yield taken


@contextlib.contextmanager
def _loop_spy():
    """Names the loop, single_input or general, that runs each block of steps."""
    ran = []
    real = {"single_input": _kernels._single_input_steps, "general": _kernels._steps}

    def wrap(name):
        def steps(*args):
            ran.append(name)
            return real[name](*args)
        return steps

    with mock.patch.object(_kernels, "_single_input_steps", wrap("single_input")), \
            mock.patch.object(_kernels, "_steps", wrap("general")):
        yield ran


@contextlib.contextmanager
def _kernel_steps():
    """Collects the steps each closed_loop_path call computes: its length, or
    the block end where it takes the settled-tail shortcut."""
    counted = []
    real_path, real_settled = _kernels.closed_loop_path, _kernels._settled_step

    def path(*args):
        cut = []

        def settled(*a):
            out = real_settled(*a)
            if out is not None:
                cut.append(args[8].shape[0] - a[8].shape[0])  # [8]: the omegas
            return out

        with mock.patch.object(_kernels, "_settled_step", settled):
            out = real_path(*args)
        counted.append(cut[0] if cut else args[8].shape[0])
        return out

    with mock.patch.object(_kernels, "closed_loop_path", path):
        yield counted


@contextlib.contextmanager
def _writer_children(second_cpu=True):
    """Maps the pid of every child forked inside to its exit code when
    reaped (minus the signal number when killed); on leaving, checks that
    each has been reaped: waitpid finds no such child.  With second_cpu,
    simulate_to_csv sees a second CPU, whatever the machine has."""
    children, fork, waitpid = {}, os.fork, os.waitpid

    def spy_fork():
        pid = fork()
        if pid:
            children[pid] = None
        return pid

    def spy_waitpid(pid, options):
        out = waitpid(pid, options)
        if pid in children:
            children[pid] = os.waitstatus_to_exitcode(out[1])
        return out

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(os, "fork", spy_fork))
        stack.enter_context(mock.patch.object(os, "waitpid", spy_waitpid))
        if second_cpu:
            stack.enter_context(mock.patch.object(sim_module, "_writer_beside", lambda: True))
        yield children
    for pid in children:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _slow_plant(n, m1, m2, seed):
    """A plant with A1 near 0.99 I, small gains and small multiplicative
    noise: its path decays by about 1e-54 over 12k steps, far from the guard
    and from underflow."""
    rng = np.random.default_rng(seed)
    sys_ = SdltiSystem(0.99 * np.eye(n) + 1e-3 * rng.standard_normal((n, n)),
                       0.01 * rng.standard_normal((n, n)), rng.standard_normal((n, m1)),
                       rng.standard_normal((n, m2)), 0.01 * rng.standard_normal((n, m2)))
    gains = GainPair(1e-3 * rng.standard_normal((m2, n)), 1e-3 * rng.standard_normal((m1, n)))
    return sys_, CostSpec(2.0, np.eye(n)), gains, rng.standard_normal(n)


def _spiked_noise(monkeypatch, seed, at):
    """Make NoiseSource(seed)'s main stream carry 1e300 at draw `at`, however
    its draws are split; other seeds' streams are left as they are."""
    real = NoiseSource.draw

    def draw(self, count=1):
        out = real(self, count)
        if self.seed == seed:
            start = getattr(self, "_drawn", 0)
            if start <= at < start + out.size:
                out[at - start] = 1e300
            self._drawn = start + out.size
        return out

    monkeypatch.setattr(NoiseSource, "draw", draw)


class TestStream:
    """simulate_to_csv against the per-step reference run in one pass."""

    def _assert_streams_reference(self, tmp_path, sys_, cost, gains, x0, steps, seed):
        expect, bad = _reference_trajectory(sys_, cost, gains, x0, NoiseSource(seed).draw(steps))
        assert bad == -1
        _plain_csv(expect, tmp_path / "plain.csv")
        with _kernel_steps() as streamed:
            simulate_to_csv(sys_, cost, gains, x0, steps, NoiseSource(seed),
                            tmp_path / "trajectory.csv")
        assert ((tmp_path / "trajectory.csv").read_bytes()
                == (tmp_path / "plain.csv").read_bytes())
        assert not list(tmp_path.glob("*.tmp"))
        got = simulate_closed_loop(sys_, cost, gains, x0, steps, NoiseSource(seed))
        for name in ("states", "inputs_u", "inputs_v", "noises", "r1", "r2"):
            a, b = getattr(got, name), getattr(expect, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        # the kernel computes the steps one pass over the whole path does
        with _kernel_steps() as one_pass:
            T = expect.steps
            _kernels.closed_loop_path(sys_.A1, sys_.B1, sys_.C1, sys_.A2, sys_.C2,
                                      gains.K1, gains.K2, np.asarray(x0, dtype=float),
                                      expect.noises, np.zeros((T, sys_.m1)),
                                      np.zeros((T, sys_.m2)))
        assert sum(streamed) == sum(one_pass)
        return streamed

    @pytest.mark.parametrize("dims", [(3, 2, 2), (4, 1, 3), (2, 3, 1)])
    @pytest.mark.parametrize("steps", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17])
    def test_chunked_path_equals_one_pass(self, tmp_path, dims, steps):
        # a run of more than one chunk forks one writer child, reaped by return
        sys_, cost, gains, x0 = _slow_plant(*dims, seed=sum(dims))
        with _writer_children() as forked:
            streamed = self._assert_streams_reference(tmp_path, sys_, cost, gains, x0,
                                                      steps, 5)
        assert list(forked.values()) == [0] * (steps > _CHUNK)
        assert streamed == [_CHUNK] * (steps // _CHUNK) + [steps % _CHUNK] * (steps % _CHUNK > 0)

    @pytest.mark.parametrize("dims", [(3, 2, 2), (4, 1, 3), (2, 3, 1)])
    @pytest.mark.parametrize("where", ["boundary", "inside"])
    def test_settled_chunks_are_filled(self, tmp_path, monkeypatch, dims, where):
        # a plant that settles at block end b in one pass: with chunks of b
        # steps it settles exactly at the first chunk boundary, with chunks
        # of b + _BLOCK inside the first chunk; either way each later chunk
        # is a kernel call that computes no step, and the bytes are the
        # reference's
        args = _settling_args(*dims, 8 * _BLOCK, 0.1, 1.0, sum(dims))
        sys_ = SdltiSystem(*(args[i] for i in (0, 3, 1, 2, 4)))
        gains, x0 = GainPair(args[5], args[6]), args[7]
        with _settle_spy(8 * _BLOCK) as taken:
            _kernels.closed_loop_path(*args[:8], NoiseSource(3).draw(8 * _BLOCK),
                                      *args[9:])
        b = taken[0]
        chunk = b if where == "boundary" else b + _BLOCK
        monkeypatch.setattr(sim_module, "_CHUNK", chunk)
        cost = CostSpec(1.0, np.eye(dims[0]))
        streamed = self._assert_streams_reference(tmp_path, sys_, cost, gains, x0,
                                                  3 * chunk + 17, 3)
        assert streamed == [b, 0, 0, 0]

    def test_divergence_in_a_later_chunk(self, tmp_path):
        # x grows by 1.003 a step and trips the guard in the third chunk: the
        # error names the absolute step, the writer child is reaped, and no
        # file is left behind
        sys_ = SdltiSystem([[1.003]], [[0.0]], [[1.0]], [[1.0]], [[0.0]])
        cost, gains = CostSpec(1.0, [[1.0]]), GainPair.zeros(1)
        steps = 4 * _CHUNK
        _, bad = _reference_trajectory(sys_, cost, gains, [1.0], NoiseSource(0).draw(steps))
        assert 2 * _CHUNK < bad < 3 * _CHUNK
        path = tmp_path / "trajectory.csv"
        with warnings.catch_warnings(), _writer_children() as forked:
            warnings.simplefilter("error")
            for run in (lambda: simulate_to_csv(sys_, cost, gains, [1.0], steps,
                                                NoiseSource(0), path),
                        lambda: simulate_closed_loop(sys_, cost, gains, [1.0], steps,
                                                     NoiseSource(0))):
                with pytest.raises(DivergenceError) as exc:
                    run()
                assert exc.value.step == bad
        assert list(forked.values()) == [-signal.SIGKILL]
        assert list(tmp_path.iterdir()) == []

    def test_cli_simulate_divergence_in_a_later_chunk(self, tmp_path, monkeypatch, f16,
                                                      capsys):
        # an omega of 1e300 at step 5000 of seed 4's stream throws the F-16
        # path past the guard in the second chunk; simulate exits 2 naming the
        # step a one-pass kernel run trips at under the gains it solves, and
        # writes only its manifest
        sys_, cost = f16
        _spiked_noise(monkeypatch, 4, 5000)
        g = solve_coupled_gare_pi(sys_, cost).gains
        steps = 3 * _CHUNK
        bad = _kernels.closed_loop_path(sys_.A1, sys_.B1, sys_.C1, sys_.A2, sys_.C2, g.K1,
                                        g.K2, X0, NoiseSource(4).draw(steps),
                                        np.zeros((steps, 1)), np.zeros((steps, 1)))[3]
        assert bad == 5001
        out = tmp_path / "out"
        with warnings.catch_warnings(), _writer_children() as forked:
            warnings.simplefilter("error")
            assert main(["simulate", "--steps", str(steps), "--seed", "4",
                         "--out", str(out)]) == 2
        assert list(forked.values()) == [-signal.SIGKILL]
        message = f"run failed: state exceeded divergence guard at step {bad}"
        assert capsys.readouterr().out == message + "\n"
        assert sorted(os.listdir(out)) == ["manifest.txt"]

    def test_cli_qlearn_divergence_in_a_later_chunk(self, tmp_path, monkeypatch, f16,
                                                    capsys):
        # the closing run (noise seed --seed + 1) diverges in its second
        # chunk: the learning artifacts stay, the reason names the absolute
        # step, and neither trajectory.csv nor its temporary file is left
        sys_, cost = f16
        _spiked_noise(monkeypatch, 1, 5000)
        config = AlgoConfig(tol=1e-3, max_iters=3, expectation_mode="analytic")
        report = run_q_learning(SystemOracle(sys_, NoiseSource(0), X0), cost, config,
                                f16_initial_gains(), X0)
        steps = 3 * _CHUNK
        g = report.gains
        bad = _kernels.closed_loop_path(sys_.A1, sys_.B1, sys_.C1, sys_.A2, sys_.C2, g.K1,
                                        g.K2, X0, NoiseSource(1).draw(steps),
                                        np.zeros((steps, 1)), np.zeros((steps, 1)))[3]
        assert _CHUNK < bad <= 2 * _CHUNK
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["qlearn", "--mode", "analytic", "--max-iters", "3", "--steps",
                         str(steps), "--seed", "0", "--out", str(out)]) == 0
        reason = f"{report.termination}; learned-gain trajectory diverged at step {bad}"
        assert capsys.readouterr().out == reason + "\n"
        assert sorted(os.listdir(out)) == ["convergence.csv", "gains.txt", "manifest.txt",
                                           "p1.txt", "p2.txt"]

    class _TwoArgError(Exception):
        # pickles, but unpickling calls it with its one message argument
        def __init__(self, what, why):
            super().__init__(f"{what}: {why}")

    @pytest.mark.parametrize("raised, expect", [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
         (OSError, f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}")),
        (_TwoArgError("disk", "gone"), (ChildProcessError, "_TwoArgError: disk: gone")),
    ])
    def test_writer_failure_reaches_the_caller(self, tmp_path, monkeypatch, raised, expect):
        # the child's exception is raised in the caller, or, when it does not
        # unpickle, a ChildProcessError with its text; the child is reaped
        # and neither the file nor its temporary is left
        def failing(fh, chunks):
            next(chunks)
            fh.write("k,x1\n")
            raise raised

        monkeypatch.setattr(sim_module, "_write_csv", failing)
        sys_, cost, gains, x0 = _slow_plant(3, 1, 1, seed=5)
        with _writer_children() as forked, pytest.raises(expect[0]) as exc:
            simulate_to_csv(sys_, cost, gains, x0, 3 * _CHUNK, NoiseSource(0),
                            tmp_path / "trajectory.csv")
        assert type(exc.value) is expect[0] and str(exc.value) == expect[1]
        assert list(forked.values()) == [1]
        assert list(tmp_path.iterdir()) == []

    def test_writer_killed_reaches_the_caller(self, tmp_path, monkeypatch):
        # a child that dies without a word is named by its exit status
        def killed(fh, chunks):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(sim_module, "_write_csv", killed)
        sys_, cost, gains, x0 = _slow_plant(3, 1, 1, seed=5)
        with _writer_children() as forked, pytest.raises(ChildProcessError,
                                                         match="status -9"):
            simulate_to_csv(sys_, cost, gains, x0, 3 * _CHUNK, NoiseSource(0),
                            tmp_path / "trajectory.csv")
        assert list(forked.values()) == [-signal.SIGKILL]
        assert list(tmp_path.iterdir()) == []

    def test_fork_failure_reaches_the_caller(self, tmp_path, monkeypatch):
        # a fork that fails (no process slot, say) raises to the caller and
        # leaves SIGINT unblocked, no descriptor open and no file behind
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(sim_module, "_writer_beside", lambda: True)
        monkeypatch.setattr(os, "fork", no_fork)
        sys_, cost, gains, x0 = _slow_plant(3, 1, 1, seed=5)
        fds = os.listdir("/dev/fd")
        with pytest.raises(BlockingIOError):
            simulate_to_csv(sys_, cost, gains, x0, 3 * _CHUNK, NoiseSource(0),
                            tmp_path / "trajectory.csv")
        assert len(os.listdir("/dev/fd")) == len(fds)
        assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
        assert list(tmp_path.iterdir()) == []

    def test_interrupt_in_the_chunk_stream(self, tmp_path, monkeypatch):
        # a KeyboardInterrupt while the second chunk is stepped: the child is
        # killed and reaped, the interrupt reaches the caller, no file is left
        real = sim_module._closed_loop_chunks

        def interrupted(*args):
            for k, chunk in real(*args):
                if k:
                    raise KeyboardInterrupt
                yield k, chunk

        monkeypatch.setattr(sim_module, "_closed_loop_chunks", interrupted)
        sys_, cost, gains, x0 = _slow_plant(3, 1, 1, seed=5)
        with _writer_children() as forked, pytest.raises(KeyboardInterrupt):
            simulate_to_csv(sys_, cost, gains, x0, 3 * _CHUNK, NoiseSource(0),
                            tmp_path / "trajectory.csv")
        assert list(forked.values()) == [-signal.SIGKILL]
        assert list(tmp_path.iterdir()) == []

    def test_writer_child_leaves_by_os_exit(self, tmp_path):
        # a process whose block-buffered stdout holds text and which has an
        # atexit handler: the text and the handler's line appear once, so
        # the child flushed no inherited buffer and ran no exit handler
        script = (
            "import atexit, os, sys\n"
            "from stoch_h2hinf import CostSpec, GainPair, NoiseSource, SdltiSystem, "
            "simulate_to_csv\n"
            "from stoch_h2hinf import sim\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "sim._writer_beside = lambda: True\n"
            "atexit.register(print, 'atexit')\n"
            "print('unflushed')\n"
            "sys_ = SdltiSystem([[0.9]], [[0.1]], [[1.0]], [[1.0]], [[0.1]])\n"
            "simulate_to_csv(sys_, CostSpec(1.0, [[1.0]]), GainPair.zeros(1), [1.0],\n"
            "                2 * sim._CHUNK + 1, NoiseSource(0), sys.argv[1])\n"
            "print('forks', len(forks))\n"
        )
        paths = [os.path.dirname(os.path.dirname(sim_module.__file__))]
        paths += os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        path = tmp_path / "trajectory.csv"
        run = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == "unflushed\nforks 1\natexit\n"
        assert len(path.read_text().splitlines()) == 2 * _CHUNK + 3

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}, {2, 5, 7}])
    def test_writer_forks_only_beside_a_second_cpu(self, tmp_path, monkeypatch, cpus):
        # pinned to one CPU, where the child would only take turns with the
        # kernel, a multi-chunk run writes in-process; the bytes are the same
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        sys_, cost, gains, x0 = _slow_plant(3, 1, 1, seed=5)
        steps = 2 * _CHUNK + 1
        with _writer_children(second_cpu=False) as forked:
            simulate_to_csv(sys_, cost, gains, x0, steps, NoiseSource(0),
                            tmp_path / "trajectory.csv")
        assert list(forked.values()) == [0] * (len(cpus) > 1)
        traj = simulate_closed_loop(sys_, cost, gains, x0, steps, NoiseSource(0))
        traj.to_csv(tmp_path / "one.csv")
        assert ((tmp_path / "trajectory.csv").read_bytes()
                == (tmp_path / "one.csv").read_bytes())

    def test_memory_does_not_grow_with_steps(self, tmp_path):
        # the stream holds one chunk at a time: 200k steps peak within 1 MiB
        # of 20k, both in this process, which steps the chunks and pipes
        # them to the writer child, and in _write_csv run here over the same
        # chunks, which the child runs.  The plant settles within a few
        # blocks, which keeps the kernel's share of the traced run small
        args = _settling_args(3, 1, 1, 1, 0.3, 1.0, 1)
        sys_ = SdltiSystem(*(args[i] for i in (0, 3, 1, 2, 4)))
        cost, gains = CostSpec(1.0, np.eye(3)), GainPair(args[5], args[6])

        def streamed(steps):
            with _writer_children():
                simulate_to_csv(sys_, cost, gains, args[7], steps, NoiseSource(0),
                                tmp_path / f"{steps}.csv")

        def formatted(steps):
            with open(tmp_path / f"{steps}.here.csv", "w") as fh:
                sim_module._write_csv(fh, sim_module._closed_loop_chunks(
                    sys_, cost, gains, args[7], steps, NoiseSource(0)))

        for run in (streamed, formatted):
            peaks = []
            for steps in (20_000, 200_000):
                tracemalloc.start()
                try:
                    run(steps)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert abs(peaks[1] - peaks[0]) < 2**20, run.__name__
        assert ((tmp_path / "200000.csv").read_bytes()
                == (tmp_path / "200000.here.csv").read_bytes())


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
                np.zeros(sys_.n), noise._window(_TAG_RUN, r, 1, horizon)[0], eu, v,
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
