"""Command-line front end: solve / vi / qlearn / simulate / bench-f16.

Configuration comes from defaults, then a flat key=value config file, then
CLI flags, in increasing precedence.  Every run writes a manifest echoing
the effective configuration so it can be reproduced exactly; CSV artifacts
are deterministic given the seed.  Exit codes: 0 success, 1 configuration
error, 2 non-convergence or failed run, 3 attenuation infeasibility.
"""

import argparse
import os
import time
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from . import __version__
from .f16 import X0, f16_initial_gains, f16_reference, f16_system
from .gare import solve_coupled_gare
from .model import (
    AlgoConfig,
    AttenuationInfeasibleError,
    ConfigError,
    ConvergenceError,
    CostSpec,
    DivergenceError,
    EXPECTATION_MODES,
    ExcitationError,
    GainExtractionError,
    GainPair,
    NOISE_CASES,
    SdltiSystem,
    validate_system,
)
from .qlearn import (
    SystemOracle,
    run_q_learning,
    run_value_iteration,
    write_matrix_txt,
)
from .sim import NoiseSource, simulate_to_csv

SEED_ENV = "STOCH_H2HINF_SEED"

_COMMANDS = ("solve", "vi", "qlearn", "simulate", "bench-f16")


@dataclass
class ExperimentConfig:
    """Effective run settings; tol and max_iters default per command
    (solve and simulate: 1e-9 / 5000; vi, qlearn and bench-f16: 1e-3 / 500)."""

    command: str = "solve"
    system: str = "f16"
    a1: str = ""
    a2: str = ""
    b1: str = ""
    c1: str = ""
    c2: str = ""
    q: str = ""
    gamma: float = 1.0
    case: int = 1
    seed: int = 0
    tol: Optional[float] = None
    max_iters: Optional[int] = None
    tuples: int = 20
    branches: int = 100
    mode: str = "mc"
    steps: int = 100
    out: str = "."
    reference: bool = True


def _parse_bool(text):
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError("expected 1/true/yes/on or 0/false/no/off")
    return word in ("1", "true", "yes", "on")


_FIELD_TYPES = {
    "case": int,
    "seed": int,
    "max_iters": int,
    "tuples": int,
    "branches": int,
    "steps": int,
    "gamma": float,
    "tol": float,
    "reference": _parse_bool,
}


def parse_config_file(path):
    """Flat key = value lines; '#' starts a comment.

    Every line is read before a bad one raises ConfigError; the error's
    values then hold the keys that were read, a rejected value as its text,
    so the manifest echoes what the file asked for.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values, problems = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{path}:{lineno}: expected key = value, got {raw!r}")
            continue
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in ExperimentConfig.__dataclass_fields__:
            problems.append(f"{path}:{lineno}: unknown key {key!r}")
        elif key == "command":
            problems.append(f"{path}:{lineno}: the command is set on the command line only")
        else:
            try:
                values[key] = _FIELD_TYPES.get(key, str)(val)
            except ValueError:
                values[key] = val
                problems.append(f"{path}:{lineno}: bad value for {key}: {val!r}")
    if problems:
        err = ConfigError(problems[0])
        err.values = values
        raise err
    return values


def _load_matrix(path, name):
    if not path:
        raise ConfigError(f"system=custom requires a file for {name}")
    if not os.path.exists(path):
        raise ConfigError(f"matrix file for {name} not found: {path}")
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        # loadtxt only warns about a file without data, then returns (0, 1)
        if any(line.split("#", 1)[0].strip() for line in lines):
            return np.loadtxt(lines, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse matrix file {path}: {exc}") from exc
    raise ConfigError(f"matrix file for {name} is empty: {path}")


def build_system(cfg):
    """Materialize (system, cost) from the config."""
    if cfg.system == "f16":
        sys_, cost = f16_system()
        if cfg.gamma != cost.gamma:
            raise ConfigError(
                f"system f16 fixes gamma = {cost.gamma:g}; --gamma {cfg.gamma:g} "
                "applies to system=custom only"
            )
        return sys_, cost
    if cfg.system != "custom":
        raise ConfigError(f"system must be f16 or custom, got {cfg.system!r}")
    mats = {name: _load_matrix(getattr(cfg, name), name.upper())
            for name in ("a1", "a2", "b1", "c1", "c2")}
    try:
        sys_ = SdltiSystem(mats["a1"], mats["a2"], mats["b1"], mats["c1"], mats["c2"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    Q = _load_matrix(cfg.q, "Q") if cfg.q else np.eye(sys_.n)
    try:
        cost = CostSpec(cfg.gamma, Q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = validate_system(sys_, cost)
    if not report.ok:
        raise ConfigError("; ".join(report.violations))
    return sys_, cost


def _write_manifest(cfg, outdir, wall, reason):
    lines = [f"version = {__version__}"]
    for key, val in asdict(cfg).items():
        lines.append(f"{key} = {val}")
    lines.append(f"wall_time_s = {wall:.3f}")
    lines.append(f"exit_reason = {reason}")
    with open(os.path.join(outdir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_gains_values(outdir, gains, vals):
    write_matrix_txt(np.vstack([gains.K1, gains.K2]), os.path.join(outdir, "gains.txt"))
    write_matrix_txt(vals.P1, os.path.join(outdir, "p1.txt"))
    write_matrix_txt(vals.P2, os.path.join(outdir, "p2.txt"))


def _solve_settings(cfg):
    """(tol, max_iters) of a fixed-point solve: the flags, else 1e-9 / 5000."""
    return (cfg.tol if cfg.tol is not None else 1e-9,
            cfg.max_iters if cfg.max_iters is not None else 5000)


def _algo_config(cfg):
    return AlgoConfig(
        tol=cfg.tol if cfg.tol is not None else 1e-3,
        max_iters=cfg.max_iters if cfg.max_iters is not None else 500,
        tuples_per_iter=cfg.tuples,
        branches=cfg.branches,
        noise_case=f"case{cfg.case}",
        expectation_mode=cfg.mode,
    )


def _reference_for(cfg):
    if cfg.reference and cfg.system == "f16":
        return f16_reference()
    return None


def _x0_for(sys_, cfg):
    return X0.copy() if cfg.system == "f16" else np.ones(sys_.n)


def _check_trajectory_settings(cfg):
    """Settings of the closing trajectory, checked before any work is done."""
    if cfg.steps < 1:
        raise ConfigError("steps must be >= 1")


def _cmd_solve(cfg, outdir):
    sys_, cost = build_system(cfg)
    report = solve_coupled_gare(sys_, cost, *_solve_settings(cfg))
    report.to_csv(os.path.join(outdir, "solve.csv"))
    _write_gains_values(outdir, report.gains, report.values)
    print(
        f"solved in {report.iterations} iterations; residuals "
        f"({report.residual_norms[0]:.3e}, {report.residual_norms[1]:.3e}); "
        f"ms-stable: {report.stable}"
    )
    return 0, f"converged in {report.iterations} iterations"


def _cmd_vi(cfg, outdir):
    sys_, cost = build_system(cfg)
    report = run_value_iteration(sys_, cost, _algo_config(cfg))
    report.to_csv(os.path.join(outdir, "convergence.csv"), _reference_for(cfg))
    _write_gains_values(outdir, report.gains, report.values)
    print(report.termination)
    return 0, report.termination


def _cmd_qlearn(cfg, outdir):
    _check_trajectory_settings(cfg)
    sys_, cost = build_system(cfg)
    algo = _algo_config(cfg)
    x0 = _x0_for(sys_, cfg)
    if cfg.system == "f16":
        gains0 = f16_initial_gains()
    else:
        gains0 = GainPair.zeros(sys_.n, sys_.m1, sys_.m2)
    oracle = SystemOracle(sys_, NoiseSource(cfg.seed), x0)
    report = run_q_learning(oracle, cost, algo, gains0, x0)
    report.to_csv(os.path.join(outdir, "convergence.csv"), _reference_for(cfg))
    _write_gains_values(outdir, report.gains, report.values)
    reason = report.termination
    # the paper's final unprobed run: the learned controller, probe off,
    # from the benchmark x0
    try:
        simulate_to_csv(sys_, cost, report.gains, x0, cfg.steps, NoiseSource(cfg.seed + 1),
                        os.path.join(outdir, "trajectory.csv"))
    except DivergenceError as exc:
        reason += f"; learned-gain trajectory diverged at step {exc.step}"
    print(reason)
    return 0, reason


def _cmd_simulate(cfg, outdir):
    _check_trajectory_settings(cfg)
    sys_, cost = build_system(cfg)
    solved = solve_coupled_gare(sys_, cost, *_solve_settings(cfg))
    simulate_to_csv(sys_, cost, solved.gains, _x0_for(sys_, cfg), cfg.steps,
                    NoiseSource(cfg.seed), os.path.join(outdir, "trajectory.csv"))
    _write_gains_values(outdir, solved.gains, solved.values)
    reason = f"simulated {cfg.steps} steps under the solved gains"
    print(reason)
    return 0, reason


def _cmd_bench(cfg, outdir):
    codes = []
    summary = os.path.join(outdir, "bench_summary.txt")
    open(summary, "w").close()
    for case in (1, 2, 3):
        sub = os.path.join(outdir, f"case{case}")
        os.makedirs(sub, exist_ok=True)
        case_cfg = ExperimentConfig(**{**asdict(cfg), "case": case, "command": "qlearn"})
        code, reason = _run_in(case_cfg, sub)
        codes.append(code)
        with open(summary, "a") as fh:
            fh.write(f"case{case}: exit {code}; {reason}\n")
    return max(codes), f"three probing cases finished with exit codes {codes}"


def _run_in(cfg, outdir, error=None):
    """Dispatch a command into outdir; returns (code, reason).

    error is a ConfigError met while reading the settings: the run then
    writes only the manifest, with that error as its exit reason.
    """
    start = time.perf_counter()
    handler = {
        "solve": _cmd_solve,
        "vi": _cmd_vi,
        "qlearn": _cmd_qlearn,
        "simulate": _cmd_simulate,
        "bench-f16": _cmd_bench,
    }[cfg.command]
    try:
        if error is not None:
            raise error
        if cfg.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
        if f"case{cfg.case}" not in NOISE_CASES:
            raise ConfigError(f"case must be 1, 2 or 3, got {cfg.case}")
        if cfg.mode not in EXPECTATION_MODES:
            raise ConfigError(f"mode must be analytic or mc, got {cfg.mode!r}")
        code, reason = handler(cfg, outdir)
    except ConfigError as exc:
        code, reason = 1, f"config error: {exc}"
        print(reason)
    except AttenuationInfeasibleError as exc:
        code, reason = 3, f"attenuation infeasible: {exc}"
        print(reason)
    except (ConvergenceError, ExcitationError, DivergenceError, GainExtractionError) as exc:
        code, reason = 2, f"run failed: {exc}"
        print(reason)
    _write_manifest(cfg, outdir, time.perf_counter() - start, reason)
    return code, reason


def run_experiment(cfg, error=None):
    """Execute one experiment; returns the process exit code.

    With a ConfigError as error, only the manifest is written (exit 1).
    """
    if cfg.command not in _COMMANDS:
        print(f"unknown command {cfg.command!r}")
        return 1
    try:
        outdir = cfg.out or "."
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory {cfg.out!r}: {exc}")
        return 1
    code, _ = _run_in(cfg, outdir, error)
    return code


def _build_parser():
    # every command takes the same flags, built once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="flat key=value config file")
    common.add_argument("--system", default=None, help="f16 or custom")
    # values stay strings here and are converted like the config file's,
    # so a bad one is a configuration error (exit 1 with a manifest)
    common.add_argument("--case", default=None, help="probing case 1, 2 or 3")
    common.add_argument("--seed", default=None)
    common.add_argument("--tol", default=None)
    common.add_argument("--max-iters", default=None)
    common.add_argument("--tuples", default=None)
    common.add_argument("--branches", default=None)
    common.add_argument("--mode", default=None, help="analytic or mc")
    common.add_argument("--steps", default=None)
    common.add_argument("--gamma", default=None)
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--no-reference", action="store_true",
                        help="omit reference-error columns from the CSV")
    for mat in ("a1", "a2", "b1", "c1", "c2", "q"):
        common.add_argument(f"--{mat}", default=None, help=f"{mat.upper()} matrix file")
    parser = argparse.ArgumentParser(
        prog="stoch-h2hinf",
        description="Mixed H2/Hinf control with multiplicative noise: "
                    "model-based solver and model-free Q-learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    values = {"command": args.command}
    error = None
    if args.config:
        try:
            values.update(parse_config_file(args.config))
        except ConfigError as exc:
            values.update(getattr(exc, "values", {}))
            error = exc
    # the flags in the order they are declared, so the first bad one is named
    for key, val in vars(args).items():
        if key in ("command", "config", "no_reference") or val is None:
            continue
        try:
            values[key] = _FIELD_TYPES.get(key, str)(val)
        except ValueError:
            values[key] = val
            flag = "--" + key.replace("_", "-")
            error = error or ConfigError(f"bad value for {flag}: {val!r}")
    if args.no_reference:
        values["reference"] = False
    env_seed = os.environ.get(SEED_ENV)
    if "seed" not in values and env_seed is not None and error is None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            values["seed"] = env_seed
            error = ConfigError(f"{SEED_ENV}={env_seed!r} is not an integer")
    # every key in values is a field, so this cannot fail; a rejected value
    # stays in values as the text given, and a settings error still gets a
    # manifest, in the output directory known so far: --out, else the config
    # file's out, else "."
    return run_experiment(ExperimentConfig(**values), error)


if __name__ == "__main__":
    raise SystemExit(main())
