"""Benchmark constants and the command-line workflow."""

import importlib
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ImportError:  # Python < 3.11
    import tomli as tomllib

import stoch_h2hinf
from stoch_h2hinf import (
    AlgoConfig,
    NoiseSource,
    f16_initial_gains,
    f16_reference,
    f16_system,
    run_value_iteration,
    simulate_to_csv,
    solve_coupled_gare,
)
from stoch_h2hinf import gare
from stoch_h2hinf.cli import (
    ConfigError,
    ExperimentConfig,
    build_system,
    main,
    parse_config_file,
)
from stoch_h2hinf.f16 import X0

# Exact fixed point of the bundled benchmark, frozen from an independent
# high-precision solve (tol 1e-12); the 4-decimal bundled reference sits
# a few 1e-3 away from it.
SOLVED_K1 = np.array([0.156494232, 0.137510934, 0.000121645])
SOLVED_K2 = np.array([0.09403944, 0.10425079, -0.06621421])


class TestBenchmarkConstants:
    def test_spot_values(self):
        sys_, cost = f16_system()
        assert sys_.A1[0, 0] == 0.906488
        assert sys_.A1[2, 2] == 0.132655
        assert sys_.B1[2, 0] == 0.867345
        np.testing.assert_array_equal(sys_.C2.ravel(), [0.00156, 0.00037, 0.0])
        assert cost.gamma == 1.0
        np.testing.assert_array_equal(cost.Q, np.eye(3))
        assert sys_.dims == (3, 1, 1) and sys_.p == 5

    def test_reference_spot_values(self):
        vals, gains = f16_reference()
        assert vals.P1[0, 0] == -16.3448
        assert vals.P1[0, 1] == -13.4481
        assert vals.P2[0, 0] == 16.9864
        assert vals.P2[2, 2] == 1.0101
        np.testing.assert_array_equal(gains.K1.ravel(), [0.1559, 0.1353, 0.0])
        np.testing.assert_array_equal(gains.K2.ravel(), [0.0949, 0.1097, -0.0661])

    def test_initial_gains(self):
        g0 = f16_initial_gains()
        np.testing.assert_array_equal(g0.K1.ravel(), [0.6305, 1.6421, -1.0436])
        np.testing.assert_array_equal(g0.K2.ravel(), [2.7695, 0.1328, -0.1702])

    def test_checksum(self):
        sys_, cost = f16_system()
        vals, gains = f16_reference()
        g0 = f16_initial_gains()
        parts = [sys_.A1, sys_.A2, sys_.B1, sys_.C1, sys_.C2, cost.Q,
                 vals.P1, vals.P2, gains.K1, gains.K2, g0.K1, g0.K2]
        total = sum(float(np.abs(p).sum()) for p in parts)
        assert total == pytest.approx(138.702883213, abs=1e-9)


# the flags of each command, in the order its help and its manifest list them
_MATRIX_FLAGS = ["--a1", "--a2", "--b1", "--c1", "--c2", "--q"]
FLAGS = {
    "solve": ["--system", "--tol", "--max-iters", "--gamma", "--out", *_MATRIX_FLAGS],
    "vi": ["--system", "--tol", "--max-iters", "--gamma", "--out", "--no-reference",
           *_MATRIX_FLAGS],
    "qlearn": ["--system", "--case", "--seed", "--tol", "--max-iters", "--tuples",
               "--branches", "--mode", "--steps", "--gamma", "--out", "--no-reference",
               *_MATRIX_FLAGS],
    "simulate": ["--system", "--seed", "--tol", "--max-iters", "--steps", "--gamma",
                 "--out", *_MATRIX_FLAGS],
    "bench-f16": ["--system", "--seed", "--tol", "--max-iters", "--tuples", "--branches",
                  "--mode", "--steps", "--gamma", "--out", "--no-reference",
                  *_MATRIX_FLAGS],
}
UNREAD = [(command, flag) for command in FLAGS for flag in FLAGS["qlearn"]
          if flag not in FLAGS[command]]


def _manifest_key(flag):
    return flag.removeprefix("--no-").removeprefix("--").replace("-", "_")


def _read_matrix(path):
    return np.loadtxt(path, ndmin=2)


def _assert_config_manifest_only(out, message):
    """out holds only manifest.txt, whose exit reason is a config error naming message."""
    assert os.listdir(out) == ["manifest.txt"]
    reason = (out / "manifest.txt").read_text().splitlines()[-1]
    assert reason.startswith("exit_reason = config error: ") and message in reason


class TestSolveCommand:
    def test_writes_artifacts(self, tmp_path):
        out = str(tmp_path)
        assert main(["solve", "--out", out]) == 0
        for name in ("solve.csv", "gains.txt", "p1.txt", "p2.txt", "manifest.txt"):
            assert os.path.exists(os.path.join(out, name)), name
        gains = _read_matrix(os.path.join(out, "gains.txt"))
        np.testing.assert_allclose(gains[0], SOLVED_K1, atol=1e-6)
        np.testing.assert_allclose(gains[1], SOLVED_K2, atol=1e-6)
        # near, but measurably off, the 4-decimal bundled reference
        _, ref = f16_reference()
        assert 1e-4 < np.abs(gains[0] - ref.K1.ravel()).max() < 7e-3
        assert 1e-4 < np.abs(gains[1] - ref.K2.ravel()).max() < 7e-3
        p1 = _read_matrix(os.path.join(out, "p1.txt"))
        assert np.linalg.eigvalsh(p1).max() <= 1e-9
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "exit_reason = converged" in manifest
        # the solve's own defaults, as numbers
        assert {"tol = 1e-09", "max_iters = 5000"} <= set(manifest.splitlines())

    def test_nonconvergence_exit_2(self, tmp_path):
        assert main(["solve", "--out", str(tmp_path), "--max-iters", "3"]) == 2
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "run failed" in manifest

    def test_custom_system_roundtrip(self, tmp_path, scalar_sys, scalar_cost):
        mats = {
            "a1": scalar_sys.A1, "a2": scalar_sys.A2, "b1": scalar_sys.B1,
            "c1": scalar_sys.C1, "c2": scalar_sys.C2, "q": scalar_cost.Q,
        }
        args = ["solve", "--system", "custom", "--gamma", "2.0",
                "--out", str(tmp_path)]
        for name, m in mats.items():
            path = tmp_path / f"{name}.txt"
            np.savetxt(path, m)
            args += [f"--{name}", str(path)]
        assert main(args) == 0
        from stoch_h2hinf import solve_coupled_gare

        direct = solve_coupled_gare(scalar_sys, scalar_cost, tol=1e-9, max_iters=5000)
        gains = _read_matrix(tmp_path / "gains.txt")
        assert gains[0, 0] == pytest.approx(direct.gains.K1[0, 0], abs=1e-9)
        assert gains[1, 0] == pytest.approx(direct.gains.K2[0, 0], abs=1e-9)

    def test_missing_matrix_file_exit_1(self, tmp_path, capsys):
        code = main(["solve", "--system", "custom", "--a1", "/nope/a1.txt",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "not found" in capsys.readouterr().out

    def test_infeasible_gamma_exit_3(self, tmp_path):
        for name, m in (("a1", [[0.5]]), ("a2", [[0.0]]), ("b1", [[1.0]]),
                        ("c1", [[1.0]]), ("c2", [[0.5]])):
            np.savetxt(tmp_path / f"{name}.txt", np.array(m))
        args = ["solve", "--system", "custom", "--gamma", "0.3",
                "--out", str(tmp_path)]
        for name in ("a1", "a2", "b1", "c1", "c2"):
            args += [f"--{name}", str(tmp_path / f"{name}.txt")]
        assert main(args) == 3


    @pytest.mark.parametrize("command, budget, message", [
        *[pytest.param(command, ["--max-iters", "5000"], "run failed: no fixed point: "
                       "the iterate left the finite range at sweep 875", id=command)
          for command in ("solve", "simulate", "vi")],
        # at vi's default budget the iterates are still finite; only the
        # Frobenius norms of their changes have overflowed
        pytest.param("vi", [], "run failed: no fixed point within 500 iterations "
                     "(tol=0.001); last dP=(inf, inf)", id="vi-default-budget"),
    ])
    def test_diverging_iteration_exit_2(self, tmp_path, capsys, command, budget, message):
        # a1 = 1.5 with no inputs: the value iterates grow by 2.25 per sweep
        # until they overflow at sweep 875
        args = [command, "--system", "custom", *budget, "--out", str(tmp_path / "out")]
        for name, value in (("a1", 1.5), ("a2", 0.0), ("b1", 0.0), ("c1", 0.0),
                            ("c2", 0.0)):
            np.savetxt(tmp_path / f"{name}.txt", [[value]])
            args += [f"--{name}", str(tmp_path / f"{name}.txt")]
        assert main(args) == 2
        assert capsys.readouterr().out == message + "\n"
        assert os.listdir(tmp_path / "out") == ["manifest.txt"]
        reason = (tmp_path / "out" / "manifest.txt").read_text().splitlines()[-1]
        assert reason == "exit_reason = " + message

    @pytest.mark.parametrize("command, message", [
        ("solve", "Delta1 is singular: Singular matrix"),
        ("simulate", "Delta1 is singular: Singular matrix"),
        # vi computes no residuals: sweep 2's definiteness check meets the
        # same Delta1 = g^2 + P1 = 0 that sweep 1's residual could not solve
        ("vi", "Delta1 is not positive definite; gamma=1.0 too small"),
    ])
    def test_singular_delta_exit_3(self, tmp_path, capsys, command, message):
        args = [command, "--system", "custom", "--gamma", "1",
                "--out", str(tmp_path / "out")]
        for name, value in (("a1", 0.5), ("a2", 0.0), ("b1", 1.0), ("c1", 1.0),
                            ("c2", 0.0)):
            np.savetxt(tmp_path / f"{name}.txt", [[value]])
            args += [f"--{name}", str(tmp_path / f"{name}.txt")]
        assert main(args) == 3
        assert capsys.readouterr().out == f"attenuation infeasible: {message}\n"
        assert os.listdir(tmp_path / "out") == ["manifest.txt"]


class TestLearningCommands:
    def test_excitation_failure_exit_2(self, tmp_path, capsys):
        # a plant with A1 = A2 = B1 = C1 = C2 = 0 keeps every state after the
        # first at 0, so no probe excites the regression
        args = ["qlearn", "--system", "custom", "--out", str(tmp_path / "out")]
        for name in ("a1", "a2", "b1", "c1", "c2"):
            np.savetxt(tmp_path / f"{name}.txt", np.zeros((1, 1)))
            args += [f"--{name}", str(tmp_path / f"{name}.txt")]
        assert main(args) == 2
        assert "insufficient excitation" in capsys.readouterr().out
        reason = (tmp_path / "out" / "manifest.txt").read_text().splitlines()[-1]
        assert reason.startswith("exit_reason = run failed: insufficient excitation")

    def test_mc_rank_loss_names_iteration_and_state_growth(self, tmp_path, capsys):
        # seed 2 of the benchmark's Monte-Carlo pool loses rank after its
        # learned policy let the state grow; the reason keeps the excitation
        # prefix and says at which iteration, how far |x| had grown and how
        # small the probes were beside it (max|e| / max|x| over the window)
        out = tmp_path / "out"
        assert main(["qlearn", "--mode", "mc", "--branches", "100", "--tuples", "20",
                     "--max-iters", "60", "--seed", "2", "--out", str(out)]) == 2
        message = ("run failed: insufficient excitation: singular values span "
                   "1.879e+08..1.814e-04 at iteration 58, window |x| 3.100e+02 -> 5.361e+03, "
                   "X column norms 1.273e+08..7.178e+01, probe-to-state ratio 3.547e-04")
        assert capsys.readouterr().out == message + "\n"
        reason = (out / "manifest.txt").read_text().splitlines()[-1]
        assert reason == "exit_reason = " + message

    def test_mc_rank_loss_names_column_norm_span(self, tmp_path, capsys):
        # seed 5 of the pool loses rank in its last iteration, with |x| grown
        # to 7.7e6: X's column norms then span 9.8e14..2.3e10, so the rank
        # loss is the scale of a destabilized loop, not a missing probe
        out = tmp_path / "out"
        assert main(["qlearn", "--mode", "mc", "--branches", "100", "--tuples", "20",
                     "--max-iters", "60", "--seed", "5", "--out", str(out)]) == 2
        message = ("run failed: insufficient excitation: singular values span "
                   "1.431e+15..1.496e-03 at iteration 60, window |x| 2.371e+01 -> 7.678e+06, "
                   "X column norms 9.832e+14..2.320e+10, probe-to-state ratio 2.585e-07")
        assert capsys.readouterr().out == message + "\n"
        reason = (out / "manifest.txt").read_text().splitlines()[-1]
        assert reason == "exit_reason = " + message

    @pytest.mark.parametrize("seed, step", [(0, 948), (14, 1096), (15, 739)])
    def test_mc_divergence_names_step(self, tmp_path, capsys, seed, step):
        # seeds 0, 14 and 15 of the benchmark's Monte-Carlo pool learn a
        # policy that drives the state past the divergence guard; the branch
        # draws and the kernel's trip index both decide the step
        out = tmp_path / "out"
        assert main(["qlearn", "--mode", "mc", "--branches", "100", "--tuples", "20",
                     "--max-iters", "60", "--seed", str(seed), "--out", str(out)]) == 2
        message = f"run failed: state exceeded divergence guard at step {step}"
        assert capsys.readouterr().out == message + "\n"
        reason = (out / "manifest.txt").read_text().splitlines()[-1]
        assert reason == "exit_reason = " + message

    def test_mc_pool_outcomes(self, tmp_path, capsys):
        # the benchmark's learn_mc pool, seeds 0-19: which seeds abort, with
        # which error and at which step or iteration, so that a change of
        # summation order cannot move its fail_frac unseen
        outcomes = {}
        for seed in range(20):
            out = tmp_path / str(seed)
            code = main(["qlearn", "--mode", "mc", "--branches", "100", "--tuples", "20",
                         "--max-iters", "60", "--seed", str(seed), "--out", str(out)])
            reason = (out / "manifest.txt").read_text().splitlines()[-1]
            diverged = re.search(r"divergence guard at step (\d+)$", reason)
            lost = re.search(r"insufficient excitation: .* at iteration (\d+),", reason)
            if diverged:
                outcomes[seed] = (code, "DivergenceError", int(diverged.group(1)))
            elif lost:
                outcomes[seed] = (code, "ExcitationError", int(lost.group(1)))
            else:
                assert reason == "exit_reason = max_iters 60 reached without stop"
                outcomes[seed] = (code, None, 60)
        capsys.readouterr()
        aborts = {0: ("DivergenceError", 948), 14: ("DivergenceError", 1096),
                  15: ("DivergenceError", 739), 2: ("ExcitationError", 58),
                  5: ("ExcitationError", 60), 7: ("ExcitationError", 58),
                  8: ("ExcitationError", 55), 13: ("ExcitationError", 32)}
        assert outcomes == {seed: (2, *aborts[seed]) if seed in aborts else (0, None, 60)
                            for seed in range(20)}

    def test_qlearn_artifact_contract(self, tmp_path):
        out = str(tmp_path)
        code = main(["qlearn", "--mode", "analytic", "--max-iters", "3",
                     "--steps", "20", "--out", out])
        assert code == 0
        for name in ("convergence.csv", "trajectory.csv", "gains.txt",
                     "p1.txt", "p2.txt", "manifest.txt"):
            assert os.path.exists(os.path.join(out, name)), name
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "iter,dH1_fro,dH2_fro,errK1,errK2,errP1,errP2,term_flag"
        assert len(lines) == 4
        # reference errors present by default on the builtin benchmark
        cells = lines[1].split(",")
        assert all(c != "" for c in cells[3:7])
        traj = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(traj) == 22
        # the closing run is the learned loop with probing off: it starts at
        # X0, and every row has u = K2 x and v = K1 x to print precision
        K1, K2 = np.loadtxt(tmp_path / "gains.txt")
        rows = np.array([line.split(",") for line in traj[1:-1]], dtype=float)
        x, u, v = rows[:, 1:4], rows[:, 4], rows[:, 5]
        np.testing.assert_array_equal(x[0], X0)
        for got, K in ((u, K2), (v, K1)):
            assert (np.abs(got - x @ K) <= 1e-10 * (np.abs(x) @ np.abs(K))).all()

    def test_no_reference_blanks(self, tmp_path):
        code = main(["qlearn", "--mode", "analytic", "--max-iters", "2",
                     "--steps", "5", "--no-reference", "--out", str(tmp_path)])
        assert code == 0
        cells = (tmp_path / "convergence.csv").read_text().splitlines()[1].split(",")
        assert cells[3:7] == ["", "", "", ""]

    def test_same_seed_byte_identical(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            out.mkdir()
            code = main(["qlearn", "--max-iters", "2", "--steps", "5",
                         "--seed", "11", "--out", str(out)])
            assert code == 0
            texts.append((out / "convergence.csv").read_bytes())
        assert texts[0] == texts[1]
        out = tmp_path / "c"
        out.mkdir()
        main(["qlearn", "--max-iters", "2", "--steps", "5", "--seed", "12",
              "--out", str(out)])
        assert (out / "convergence.csv").read_bytes() != texts[0]

    def test_vi_command(self, tmp_path):
        assert main(["vi", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert len(lines) > 100
        assert lines[-1].split(",")[-1] == "1"
        assert main(["vi", "--out", str(tmp_path), "--max-iters", "5"]) == 2

    def test_vi_reference_errors_from_history(self, tmp_path):
        # the err columns are the distances of each recorded iterate to the
        # bundled reference, and blank without one
        sys_, cost = f16_system()
        report = run_value_iteration(sys_, cost, AlgoConfig(tol=1e-6))
        rvals, rgains = f16_reference()
        expected = np.array([
            [np.linalg.norm(it.gains.K1 - rgains.K1),
             np.linalg.norm(it.gains.K2 - rgains.K2),
             np.linalg.norm(it.values.P1 - rvals.P1),
             np.linalg.norm(it.values.P2 - rvals.P2)]
            for it in report.history
        ])
        for sub, flags in (("ref", []), ("noref", ["--no-reference"])):
            out = tmp_path / sub
            assert main(["vi", "--tol", "1e-6", "--out", str(out)] + flags) == 0
            rows = [line.split(",")[3:7] for line in
                    (out / "convergence.csv").read_text().splitlines()[1:]]
            assert len(rows) == report.iterations
            if flags:
                assert all(cells == ["", "", "", ""] for cells in rows)
            else:
                got = np.array(rows, dtype=float)
                np.testing.assert_allclose(got, expected, rtol=1e-11, atol=0)

    def test_simulate_command(self, tmp_path):
        assert main(["simulate", "--steps", "50", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 52

    def test_simulate_honours_solver_flags(self, tmp_path):
        # simulate's solve runs at the --tol/--max-iters it echoes, as solve does
        assert main(["simulate", "--max-iters", "1", "--out", str(tmp_path)]) == 2
        reason = (tmp_path / "manifest.txt").read_text().splitlines()[-1]
        assert reason.startswith("exit_reason = run failed: no fixed point within 1 iterations")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_simulate_budget_counts_policy_iterations(self, tmp_path, capsys):
        # --max-iters bounds the solver simulate runs: policy iteration meets
        # F-16's fixed point in 8 iterations, so a budget of 8 runs where
        # value iteration's 652 sweeps would not fit; at 7 policy iteration
        # runs out, and so does value iteration, with solve's message
        assert main(["simulate", "--max-iters", "8", "--steps", "5",
                     "--out", str(tmp_path / "8")]) == 0
        assert capsys.readouterr().out == ("simulated 5 steps under the gains solved by "
                                           "policy iteration in 8 iterations\n")
        assert main(["solve", "--max-iters", "7", "--out", str(tmp_path / "solve")]) == 2
        message = capsys.readouterr().out
        assert message.startswith("run failed: no fixed point within 7 iterations")
        assert main(["simulate", "--max-iters", "7", "--out", str(tmp_path / "7")]) == 2
        assert capsys.readouterr().out == message
        assert os.listdir(tmp_path / "7") == ["manifest.txt"]

    def test_simulate_policy_iteration_failure_falls_back(self, tmp_path, capsys,
                                                          monkeypatch):
        # policy iteration made to fail mid-run (its third policy read as
        # not mean-square stabilizing): simulate then writes what value
        # iteration at the same --tol/--max-iters gives, and says why
        real, calls = gare.ms_radius, []

        def failing_third(Abar1, Abar2):
            calls.append(None)
            return 1.5 if len(calls) == 3 else real(Abar1, Abar2)

        monkeypatch.setattr(gare, "ms_radius", failing_third)
        out = tmp_path / "sim"
        assert main(["simulate", "--steps", "300", "--seed", "5", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        monkeypatch.undo()
        sys_, cost = f16_system()
        vi = solve_coupled_gare(sys_, cost, 1e-9, 5000)
        assert printed == (f"simulated 300 steps under the gains solved by value iteration "
                           f"in {vi.iterations} iterations (policy iteration failed: the "
                           f"gains are not mean-square stabilizing (ms radius 1.5) at "
                           f"sweep 3)\n")
        reason = (out / "manifest.txt").read_text().splitlines()[-1]
        assert reason == "exit_reason = " + printed[:-1]
        assert main(["solve", "--out", str(tmp_path / "solve")]) == 0
        for name in ("gains.txt", "p1.txt", "p2.txt"):
            assert (out / name).read_bytes() == (tmp_path / "solve" / name).read_bytes()
        simulate_to_csv(sys_, cost, vi.gains, X0, 300, NoiseSource(5), tmp_path / "vi.csv")
        assert (out / "trajectory.csv").read_bytes() == (tmp_path / "vi.csv").read_bytes()

    def test_backend_variable_ignored(self, tmp_path, monkeypatch):
        # STOCH_H2HINF_BACKEND once chose a second kernel; any value now
        # leaves the run and its trajectory unchanged
        argv = ["simulate", "--steps", "200", "--seed", "4", "--out"]
        assert main(argv + [str(tmp_path / "plain")]) == 0
        expect = (tmp_path / "plain" / "trajectory.csv").read_bytes()
        for value in ("bogus", "numba"):
            monkeypatch.setenv("STOCH_H2HINF_BACKEND", value)
            assert main(argv + [str(tmp_path / value)]) == 0
            assert (tmp_path / value / "trajectory.csv").read_bytes() == expect

    def test_bench_command(self, tmp_path):
        code = main(["bench-f16", "--mode", "analytic", "--max-iters", "2",
                     "--steps", "5", "--out", str(tmp_path)])
        assert code == 0
        summary = (tmp_path / "bench_summary.txt").read_text().splitlines()
        assert len(summary) == 3
        for case in (1, 2, 3):
            assert f"case{case}: exit 0" in summary[case - 1]
            assert (tmp_path / f"case{case}" / "convergence.csv").exists()


class TestConfigHandling:
    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "seed = 5\n"
            "case = 2\n"
            "mode = analytic\n"
            "max-iters = 2\n"
            "steps = 5\n"
        )
        out = tmp_path / "out"
        code = main(["qlearn", "--config", str(cfg), "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "seed = 7" in manifest
        assert "case = 2" in manifest
        assert "mode = analytic" in manifest

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tuples_per_run = 9\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "unknown key" in capsys.readouterr().out

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = seven\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(cfg)

    @pytest.mark.parametrize("line, message", [
        ("command = vi", "command line"),
        ("command = bogus", "command line"),
        ("reference = maybe", "bad value for reference"),
    ])
    def test_misread_key_rejected(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 1\n" + line + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}:2: ") + ".*" + message):
            parse_config_file(cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"{cfg}:2: " in capsys.readouterr().out
        _assert_config_manifest_only(out, f"{cfg}:2: ")

    def test_missing_config_file_writes_manifest(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        out = tmp_path / "out"
        assert main(["solve", "--config", str(missing), "--out", str(out)]) == 1
        assert "cannot read config file" in capsys.readouterr().out
        _assert_config_manifest_only(out, "cannot read config file")

    def test_bad_config_manifest_goes_to_file_out(self, tmp_path, monkeypatch):
        # the file parsed, so its out names the directory; a bad env seed
        # is then the error
        out = tmp_path / "from_file"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {out}\n")
        monkeypatch.setenv("STOCH_H2HINF_SEED", "abc")
        assert main(["simulate", "--config", str(cfg)]) == 1
        _assert_config_manifest_only(out, "STOCH_H2HINF_SEED='abc' is not an integer")

    def test_reference_words(self, tmp_path):
        cfg = tmp_path / "ref.cfg"
        for word, expect in (("1", True), ("Yes", True), ("on", True), ("TRUE", True),
                             ("0", False), ("no", False), ("Off", False), ("false", False)):
            cfg.write_text(f"reference = {word}\n")
            assert parse_config_file(cfg) == {"reference": expect}

    def test_not_key_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(cfg)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STOCH_H2HINF_SEED", "9")
        out = tmp_path / "env"
        assert main(["qlearn", "--mode", "analytic", "--max-iters", "1",
                     "--steps", "5", "--out", str(out)]) == 0
        assert "seed = 9" in (out / "manifest.txt").read_text()
        # explicit flag wins over the environment
        out2 = tmp_path / "flag"
        assert main(["qlearn", "--mode", "analytic", "--max-iters", "1",
                     "--steps", "5", "--seed", "4", "--out", str(out2)]) == 0
        assert "seed = 4" in (out2 / "manifest.txt").read_text()

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STOCH_H2HINF_SEED", "nine")
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out)]) == 1
        assert "not an integer" in capsys.readouterr().out
        _assert_config_manifest_only(out, "not an integer")
        assert "seed = nine" in (out / "manifest.txt").read_text().splitlines()

    @pytest.mark.parametrize("command", ["solve", "vi"])
    def test_env_seed_ignored_without_seed(self, tmp_path, monkeypatch, command):
        # solve and vi draw no noise, so they read no seed, not even a bad one
        monkeypatch.setenv("STOCH_H2HINF_SEED", "nine")
        out = tmp_path / "out"
        assert main([command, "--tol", "1e-3", "--out", str(out)]) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert not any(line.startswith("seed = ") for line in lines)

    def test_rejected_flag_value_echoed(self, tmp_path):
        assert main(["simulate", "--steps", "abc", "--out", str(tmp_path)]) == 1
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "steps = abc" in lines and "steps = 100" not in lines
        assert lines[-1] == "exit_reason = config error: bad value for --steps: 'abc'"

    def test_first_declared_bad_flag_named(self, tmp_path):
        # flags are read in the order they are declared, not as typed, and
        # every rejected value is echoed
        assert main(["simulate", "--steps", "abc", "--max-iters", "many",
                     "--out", str(tmp_path)]) == 1
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert {"steps = abc", "max_iters = many"} <= set(lines)
        assert lines[-1] == "exit_reason = config error: bad value for --max-iters: 'many'"

    def test_rejected_config_value_echoed(self, tmp_path):
        # a bad line keeps the file's other keys and shows the rejected text
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nsteps = abc\ntol = 1e-5\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        lines = (out / "manifest.txt").read_text().splitlines()
        assert {"seed = 5", "steps = abc", "tol = 1e-05"} <= set(lines)
        assert "steps = 100" not in lines
        assert lines[-1] == f"exit_reason = config error: {cfg}:2: bad value for steps: 'abc'"
        _assert_config_manifest_only(out, f"{cfg}:2: ")

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_command_help_lists_every_flag(self, capsys, command):
        flags = ["--config", *FLAGS[command]]
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        usage, options = re.split(r"\n(?:options|optional arguments):\n", text)
        assert usage.startswith(f"usage: stoch-h2hinf {command} [-h] [--config CONFIG]")
        assert re.findall(r"\[(-[\w-]+)", usage) == ["-h"] + flags
        listed = [line.split()[0].rstrip(",") for line in options.splitlines()
                  if line.startswith("  -")]
        assert listed == ["-h"] + flags

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["explode"])

    def test_build_system_rejects_unknown(self):
        with pytest.raises(ConfigError, match="f16 or custom"):
            build_system(ExperimentConfig(system="lunar"))

    @pytest.mark.parametrize("argv, message", [
        (["qlearn", "--mode", "analytic", "--tuples", "5"], "unknowns"),
        (["simulate", "--steps", "0"], "steps"),
        (["vi", "--tol", "-1"], "tol"),
        (["solve", "--tol", "-1"], "tol"),
        (["solve", "--max-iters", "0"], "max_iters"),
        (["qlearn", "--mode", "analytic", "--steps", "0"], "steps"),
        (["qlearn", "--case", "4"], "case"),
        (["qlearn", "--mode", "exact"], "mode"),
        (["simulate", "--steps", "abc"], "steps"),
        (["simulate", "--seed", "x"], "seed"),
        (["solve", "--system", "custom", "--a1", os.devnull],
         "matrix file for A1 is empty"),
        # checked once for all three cases, before any is run
        (["bench-f16", "--steps", "0"], "steps"),
        # an infinite tol would stop every loop at its first sweep
        (["solve", "--tol", "inf"], "tol must be a positive finite number"),
        (["vi", "--tol", "inf"], "tol must be a positive finite number"),
        (["qlearn", "--mode", "analytic", "--tol", "inf"], "tol must be a positive finite"),
        (["simulate", "--tol", "inf"], "tol must be a positive finite number"),
    ])
    def test_bad_number_exit_1_with_manifest(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        printed = capsys.readouterr().out
        assert printed.startswith("config error: ") and message in printed
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "exit_reason = config error: " in manifest
        # rejected before any work: nothing but the manifest is written
        assert os.listdir(tmp_path) == ["manifest.txt"]

    @pytest.mark.parametrize("command, argv, flag", [
        *[(command, [flag, "1"], flag) for command, flag in UNREAD],
        *[(command, ["--bogus", "1"], "--bogus") for command in FLAGS],
        ("simulate", ["--tuples=7"], "--tuples"),
        # a prefix is not expanded to the one flag of this command it fits
        ("simulate", ["--t", "1e-6", "--steps", "5"], "--t"),
        ("solve", ["--s", "x"], "--s"),
    ])
    def test_unread_flag_exit_1_with_manifest(self, tmp_path, capsys, command, argv, flag):
        assert main([command, *argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out == f"config error: {command} does not read {flag}\n"
        _assert_config_manifest_only(tmp_path, f"{command} does not read {flag}")

    def test_flag_without_value_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--tol"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, unused", [
        ("solve", "case, mode, steps"),
        ("vi", "case, mode, steps"),
        ("qlearn", None),
        ("simulate", "case, mode"),
        ("bench-f16", "case"),
    ])
    def test_manifest_keys_are_read_settings(self, tmp_path, command, unused):
        # one config file shared by every command: a key the command does
        # not read is listed as unused, not applied and not an error
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("case = 2\nmode = analytic\nsteps = 5\nmax_iters = 2\n")
        out = tmp_path / "out"
        main([command, "--config", str(cfg), "--out", str(out)])
        lines = (out / "manifest.txt").read_text().splitlines()
        assert all(" = " in line for line in lines)
        keys = [line.split(" = ", 1)[0] for line in lines]
        assert keys == ["version", "command", *map(_manifest_key, FLAGS[command]),
                        *(["unused"] if unused else []), "wall_time_s", "exit_reason"]
        # the version line names the numpy and the Python that made the artifacts
        assert lines[0] == (f"version = {stoch_h2hinf.__version__} "
                            f"(numpy {np.__version__}, python {platform.python_version()})")
        if unused:
            assert f"unused = {unused}" in lines
        tol = "1e-09" if command in ("solve", "simulate") else "0.001"
        assert {f"tol = {tol}", "max_iters = 2"} <= set(lines)

    @pytest.mark.parametrize("argv, env, message", [
        (["qlearn", "--mode", "analytic", "--seed", "-1"], {}, "seed"),
        (["simulate", "--seed", "-3"], {}, "seed"),
        (["simulate"], {"STOCH_H2HINF_SEED": "-2"}, "seed"),
    ])
    def test_bad_seed_or_backend_exit_1_with_manifest(
        self, tmp_path, capsys, monkeypatch, argv, env, message
    ):
        for key, val in env.items():
            monkeypatch.setenv(key, val)
        assert main(argv + ["--out", str(tmp_path)]) == 1
        printed = capsys.readouterr().out
        assert printed.startswith("config error: ") and message in printed
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "exit_reason = config error: " in manifest
        assert os.listdir(tmp_path) == ["manifest.txt"]

    def test_gamma_rejected_for_f16(self, tmp_path, capsys):
        assert main(["solve", "--gamma", "0.01", "--out", str(tmp_path)]) == 1
        assert "config error: " in capsys.readouterr().out
        assert "exit_reason = config error: " in (tmp_path / "manifest.txt").read_text()
        assert main(["solve", "--gamma", "1", "--out", str(tmp_path / "g1")]) == 0


def test_console_script(tmp_path):
    # the declared entry point is cli.main, and the package runs as a module
    # with the same code the tests import
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["stoch-h2hinf"] == "stoch_h2hinf.cli:main"
    module, func = scripts["stoch-h2hinf"].split(":")
    assert getattr(importlib.import_module(module), func) is main
    env = dict(os.environ)
    src = str(Path(stoch_h2hinf.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stoch_h2hinf", "solve", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert "ms-stable: True" in proc.stdout
    assert (tmp_path / "gains.txt").exists()
