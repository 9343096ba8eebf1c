"""Command-line front end: solve / vi / qlearn / simulate / bench-f16.

Each command reads only the settings _COMMANDS lists for it, from its own
defaults, then a flat key=value config file, then CLI flags, in increasing
precedence.  A flag it does not read is a configuration error; a config-file
key it does not read is listed as unused.  Every run writes a manifest of the
values it used, so it can be reproduced exactly; CSV artifacts are
deterministic given the seed.  Exit codes: 0 success, 1 configuration error,
2 non-convergence or failed run, 3 attenuation infeasibility.
"""

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import __version__
from .f16 import X0, f16_initial_gains, f16_reference, f16_system
from .gare import solve_coupled_gare, solve_coupled_gare_pi
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


@dataclass
class ExperimentConfig:
    """Run settings, in the order of the flags and the manifest lines.

    A command reads only the fields _COMMANDS lists for it; main sets its own
    tol / max_iters defaults (the ones here are solve's)."""

    command: str = "solve"
    system: str = "f16"
    case: int = 1
    seed: int = 0
    tol: float = 1e-9
    max_iters: int = 5000
    tuples: int = 20
    branches: int = 100
    mode: str = "mc"
    steps: int = 100
    gamma: float = 1.0
    out: str = "."
    reference: bool = True
    a1: str = ""
    a2: str = ""
    b1: str = ""
    c1: str = ""
    c2: str = ""
    q: str = ""


_HELP = {"system": "f16 or custom", "case": "probing case 1, 2 or 3",
         "mode": "analytic or mc", "out": "output directory",
         "reference": "omit reference-error columns from the CSV",
         **{mat: f"{mat.upper()} matrix file" for mat in ("a1", "a2", "b1", "c1", "c2", "q")}}


def _parse_bool(text):
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError("expected 1/true/yes/on or 0/false/no/off")
    return word in ("1", "true", "yes", "on")


def _convert(key, text):
    """A setting's text as its field's type; ValueError when it does not parse."""
    kind = ExperimentConfig.__dataclass_fields__[key].type
    return _parse_bool(text) if kind is bool else kind(text)


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
                values[key] = _convert(key, val)
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
    violations = validate_system(sys_, cost)
    if violations:
        raise ConfigError("; ".join(violations))
    return sys_, cost


def _write_manifest(cfg, outdir, wall, reason, unused=()):
    reads = _COMMANDS[cfg.command][1]
    # artifacts carry the last bits of numpy's BLAS calls: name numpy and Python
    version = f"{__version__} (numpy {np.__version__}, python {sys.version.split()[0]})"
    lines = [f"version = {version}", f"command = {cfg.command}"]
    lines += [f"{key} = {val}" for key, val in asdict(cfg).items() if key in reads]
    if unused:
        lines.append("unused = " + ", ".join(unused))
    lines.append(f"wall_time_s = {wall:.3f}")
    lines.append(f"exit_reason = {reason}")
    with open(os.path.join(outdir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_gains_values(outdir, gains, vals):
    write_matrix_txt(np.vstack([gains.K1, gains.K2]), os.path.join(outdir, "gains.txt"))
    write_matrix_txt(vals.P1, os.path.join(outdir, "p1.txt"))
    write_matrix_txt(vals.P2, os.path.join(outdir, "p2.txt"))


def _algo_config(cfg):
    return AlgoConfig(
        tol=cfg.tol,
        max_iters=cfg.max_iters,
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


def _learn_setup(cfg):
    """(system, cost, algo) of a learning run, checked before any work is done."""
    _check_trajectory_settings(cfg)
    sys_, cost = build_system(cfg)
    algo = _algo_config(cfg)
    algo.validate_for(sys_.p)
    return sys_, cost, algo


def _cmd_solve(cfg, outdir):
    sys_, cost = build_system(cfg)
    report = solve_coupled_gare(sys_, cost, cfg.tol, cfg.max_iters)
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
    sys_, cost, algo = _learn_setup(cfg)
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
    try:
        solved = solve_coupled_gare_pi(sys_, cost, cfg.tol, cfg.max_iters)
        how = f"policy iteration in {solved.iterations} iterations"
    except (ConvergenceError, AttenuationInfeasibleError, GainExtractionError) as exc:
        # value iteration needs no stabilizing start; its failures are the
        # ones solve reports for the same settings
        solved = solve_coupled_gare(sys_, cost, cfg.tol, cfg.max_iters)
        how = (f"value iteration in {solved.iterations} iterations "
               f"(policy iteration failed: {exc})")
    simulate_to_csv(sys_, cost, solved.gains, _x0_for(sys_, cfg), cfg.steps,
                    NoiseSource(cfg.seed), os.path.join(outdir, "trajectory.csv"))
    _write_gains_values(outdir, solved.gains, solved.values)
    reason = f"simulated {cfg.steps} steps under the gains solved by {how}"
    print(reason)
    return 0, reason


def _cmd_bench(cfg, outdir):
    # the cases differ only in their probing, so one check covers all three
    _learn_setup(cfg)
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


_SYSTEM = frozenset({"system", "gamma", "out", "a1", "a2", "b1", "c1", "c2", "q"})
_LEARN = _SYSTEM | {"seed", "tol", "max_iters", "tuples", "branches", "mode", "steps",
                    "reference"}

# command -> (its handler, the settings it reads, its (tol, max_iters) defaults)
_COMMANDS = {
    "solve": (_cmd_solve, _SYSTEM | {"tol", "max_iters"}, (1e-9, 5000)),
    "vi": (_cmd_vi, _SYSTEM | {"tol", "max_iters", "reference"}, (1e-3, 500)),
    "qlearn": (_cmd_qlearn, _LEARN | {"case"}, (1e-3, 500)),
    "simulate": (_cmd_simulate, _SYSTEM | {"seed", "tol", "max_iters", "steps"},
                 (1e-9, 5000)),
    # the three probing cases are the command's own
    "bench-f16": (_cmd_bench, _LEARN, (1e-3, 500)),
}


def _run_in(cfg, outdir, error=None, unused=()):
    """Dispatch a command into outdir; returns (code, reason).

    error is a ConfigError met while reading the settings: the run then
    writes only the manifest, with that error as its exit reason.  unused
    names the config-file keys the command does not read.
    """
    start = time.perf_counter()
    handler, reads, _ = _COMMANDS[cfg.command]
    try:
        if error is not None:
            raise error
        if "seed" in reads and cfg.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
        if "case" in reads and f"case{cfg.case}" not in NOISE_CASES:
            raise ConfigError(f"case must be 1, 2 or 3, got {cfg.case}")
        if "mode" in reads and cfg.mode not in EXPECTATION_MODES:
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
    _write_manifest(cfg, outdir, time.perf_counter() - start, reason, unused)
    return code, reason


def run_experiment(cfg, error=None, unused=()):
    """Execute one experiment; returns the process exit code.

    With a ConfigError as error, only the manifest is written (exit 1).
    unused names config-file keys the command does not read, for the manifest.
    """
    try:
        outdir = cfg.out or "."
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory {cfg.out!r}: {exc}")
        return 1
    code, _ = _run_in(cfg, outdir, error, unused)
    return code


@functools.cache  # built once: main may run many times in one process
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stoch-h2hinf",
        description="Mixed H2/Hinf control with multiplicative noise: "
                    "model-based solver and model-free Q-learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads, _) in _COMMANDS.items():
        # no prefix matching: a prefix is a flag the command does not read,
        # not one of its own flags picked by whatever else it declares
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.add_argument("--config", help="flat key=value config file")
        # values stay strings here and are converted like the config file's,
        # so a bad one is a configuration error (exit 1 with a manifest)
        for key in ExperimentConfig.__dataclass_fields__:
            if key == "reference" and key in reads:
                cmd.add_argument("--no-reference", dest=key, action="store_const",
                                 const="off", help=_HELP[key])
            elif key in reads:
                cmd.add_argument("--" + key.replace("_", "-"), help=_HELP.get(key))
    return parser


def main(argv=None):
    parser = _build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread and not unread[0].startswith("-"):
        parser.error("unrecognized arguments: " + " ".join(unread))
    _, reads, (tol, max_iters) = _COMMANDS[args.command]
    values = {"command": args.command, "tol": tol, "max_iters": max_iters}
    error, unused = None, ()
    if args.config:
        try:
            given = parse_config_file(args.config)
        except ConfigError as exc:
            given, error = getattr(exc, "values", {}), exc
        values.update((key, val) for key, val in given.items() if key in reads)
        unused = tuple(key for key in given if key not in reads)
    if unread:
        # a flag of another command, or of none
        flag = unread[0].split("=", 1)[0]
        error = error or ConfigError(f"{args.command} does not read {flag}")
    # the flags in the order they are declared, so the first bad one is named
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        try:
            values[key] = _convert(key, val)
        except ValueError:
            values[key] = val
            flag = "--" + key.replace("_", "-")
            error = error or ConfigError(f"bad value for {flag}: {val!r}")
    env_seed = os.environ.get(SEED_ENV)
    if "seed" in reads and "seed" not in values and env_seed is not None and error is None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            values["seed"] = env_seed
            error = ConfigError(f"{SEED_ENV}={env_seed!r} is not an integer")
    # every key in values is a field, so this cannot fail; a rejected value
    # stays in values as the text given, and a settings error still gets a
    # manifest, in the output directory known so far: --out, else the config
    # file's out, else "."
    return run_experiment(ExperimentConfig(**values), error, unused)


if __name__ == "__main__":
    raise SystemExit(main())
