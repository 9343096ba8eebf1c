"""Benchmark of the stoch_h2hinf command line tool and library.

Run from the repository root:

    python3 perfbench/run.py --workload learn_mc --seed 0 --seconds 20 --trace 0

One process, one thread. The workload's inputs are made from --seed; the
operations then run back to back (a closed loop with one client) for
--seconds seconds, each checked against the reference before the next.

--trace 0 prints the end-to-end metrics; --trace 1 runs every operation
twice, untraced and then with the package's functions wrapped from outside,
checks that both runs wrote byte-identical artifacts, and prints the
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. The exit
code is 0 when every check held, 1 when a check failed or the package source
is missing (then no result is printed), and 2 when the arguments are bad.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("solve_population", "learn_analytic", "learn_mc", "simulate_certify")
SETUP_REPEATS = 3
# BLAS and OpenMP pools are pinned to one thread before numpy is imported:
# the package's matrices are at most 5x5, so a pool would only add wake-ups.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p50_norm": "passes",
                    "op_tail_s": "s", "ops_per_s": "1/s",
                    "fail_frac": "ratio", "gain_err_max": "-", "peak_rss_mb": "MiB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import stoch_h2hinf from this checkout's src/, never from elsewhere."""
    if not (SRC / "stoch_h2hinf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'stoch_h2hinf'}")
    sys.path.insert(0, str(SRC))
    import stoch_h2hinf

    if Path(stoch_h2hinf.__file__).resolve().parent != (SRC / "stoch_h2hinf").resolve():
        sys.exit(f"perfbench: imported stoch_h2hinf from {stoch_h2hinf.__file__}, not {SRC}")
    return stoch_h2hinf


def git_commit():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(np, pkg, kernels, args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "package": pkg.__version__,
        "backend": kernels.active_backend(),
        "numba": kernels.HAVE_NUMBA,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
    }


def tail_percentile(durations):
    """(value, percentile) of the highest percentile with at least ten samples above it."""
    n = len(durations)
    if n < 11:
        return None, None
    rank = n - 10
    return sorted(durations)[rank - 1], 100.0 * rank / n


def median_per_input(keys, values):
    """Median over distinct inputs of each input's median value.

    Every input of a pool weighs the same, however many times the run reached
    it, so the inputs a run's last, partial cycle happened to cover do not
    move the result.
    """
    by_input = {}
    for key, value in zip(keys, values):
        by_input.setdefault(key, []).append(value)
    return statistics.median(statistics.median(v) for v in by_input.values())


def artifact_files(folder):
    """Relative path -> bytes of every file under folder; the manifest's wall time dropped."""
    files = {}
    for path in sorted(Path(folder).rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.txt":
                data = b"\n".join(line for line in data.split(b"\n")
                                  if not line.startswith(b"wall_time_s = "))
            files[str(path.relative_to(folder))] = data
    return files


def folder_bytes(folder):
    return sum(p.stat().st_size for p in Path(folder).rglob("*") if p.is_file())


class Run:
    """One benchmark process: set-up, the timed loop, checks and the report."""

    def __init__(self, workload, args, tmp):
        self.w = workload
        self.args = args
        self.tmp = tmp
        self.durations = []
        self.pass_times = []
        self.keys = []
        self.traced_durations = []
        self.outcomes = []
        self.broken = []

    def setup(self):
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.w.setup(self.args.seed, str(self.tmp))
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def attempt(self, i, out, tracer=None):
        """Run operation i into out, traced when a tracer is given, then check it.

        Returns (seconds, Outcome), or (seconds, None) after recording how the
        operation broke the program's contract.
        """
        from workloads import CheckFailed

        if tracer is not None:
            tracer.install(i)
        t0 = time.perf_counter()
        try:
            result, error = self.w.op(i, str(out)), None
        except Exception as exc:  # a traceback from the program breaks its contract
            result, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            self.broken.append(f"op {i}: raised {type(error).__name__}: {error}")
            return dt, None
        try:
            return dt, self.w.check(i, str(out), result)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.broken.append(f"op {i}: {type(exc).__name__}: {exc}")
            return dt, None

    def loop(self, tracer):
        from calibration import SHARE, time_passes

        out, ref = self.tmp / "op", self.tmp / "op_untraced"
        t_end = time.perf_counter() + self.args.seconds
        self.pass_times += time_passes(0.3)
        i = 0
        while time.perf_counter() < t_end and not self.broken:
            dt, outcome = self.attempt(i, out)
            self.pass_times += time_passes(SHARE * dt)
            self.durations.append(dt)
            self.keys.append(self.w.key(i))
            self.outcomes.append(outcome)
            if tracer is not None and outcome is not None:
                os.replace(out, ref)
                tdt, toutcome = self.attempt(i, out, tracer)
                tracer.artifact_bytes += folder_bytes(out)
                self.traced_durations.append(tdt)
                if artifact_files(ref) != artifact_files(out):
                    self.broken.append(f"op {i}: traced artifacts differ from untraced")
                if toutcome != outcome:
                    self.broken.append(f"op {i}: traced outcome {toutcome} != {outcome}")
                shutil.rmtree(ref)
            shutil.rmtree(out, ignore_errors=True)
            # each CLI call stands for a fresh process: start the next with no garbage
            gc.collect()
            i += 1

    def end_to_end(self, setup_s):
        n = len(self.durations)
        ok = [o for o in self.outcomes if o is not None and o.code == 0]
        failed = n - len(ok)
        tail, pct = tail_percentile(self.durations)
        errs = [o.gain_err for o in ok if o.gain_err is not None]
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(self.durations),
            "op_p50_norm": (median_per_input(self.keys, self.durations)
                            / statistics.median(self.pass_times)),
            "op_tail_s": tail,
            "ops_per_s": len(ok) / sum(self.durations),
            "fail_frac": failed / n,
            "gain_err_max": max(errs) if errs else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {
            "op_p50_s": f"median of {n} operations",
            "op_p50_norm": (f"median over {len(set(self.keys))} inputs of each input's "
                            f"median time, over the median of {len(self.pass_times)} "
                            "calibration passes"),
            "op_tail_s": (f"p{pct:.1f} of {n} operations, 10 slower" if tail is not None
                          else f"undefined: {n} operations, fewer than 11"),
            "ops_per_s": f"{len(ok)} completed with exit 0 in {sum(self.durations):.3f} s",
            "fail_frac": f"{failed} of {n} exited nonzero",
            "gain_err_max": (f"over {len(errs)} completed operations" if errs
                             else "undefined: no operation completed"),
            "peak_rss_mb": "getrusage ru_maxrss of this process",
        }
        return metrics, notes


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    pkg = import_package()
    import numpy as np
    from stoch_h2hinf import _kernels

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    imports_s = time.perf_counter() - _T_START
    env = environment(np, pkg, _kernels, args)
    print("env " + json.dumps(env, sort_keys=True))

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        run = Run(workloads.WORKLOADS[args.workload](), args, tmp)
        setup_s = imports_s + run.setup()
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        run.loop(tracer)
        notes_extra = []
        if args.workload == "simulate_certify":
            try:
                notes_extra.append(run.w.backend_check())
            except workloads.CheckFailed as exc:
                run.broken.append(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass

    metrics, notes = run.end_to_end(setup_s)
    notes["setup_s"] = (f"imports {imports_s:.3f} s + median of {SETUP_REPEATS} input "
                        "builds and reference solves")
    n = len(run.durations)
    print(f"workload {args.workload} seed {args.seed}: {n} operations in "
          f"{sum(run.durations):.3f} s timed")
    for name, unit in END_TO_END_UNITS.items():
        val = metrics[name]
        shown = "n/a" if val is None else f"{val:.6g}"
        print(f"  {name} = {shown} {unit}  ({notes[name]})")
    kinds = {}
    for o in run.outcomes:
        if o is not None and o.error_type:
            kinds[o.error_type] = kinds.get(o.error_type, 0) + 1
    if kinds:
        print("  nonzero exits by documented error: "
              + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items())))
    for line in notes_extra:
        print("  " + line)

    if args.trace:
        layer = tracer.layer_metrics()
        # no traced operation ran only when the first operation broke a check
        traced_p50 = (statistics.median(run.traced_durations) if run.traced_durations
                      else metrics["op_p50_s"])
        layer["trace.overhead_s"] = traced_p50 - metrics["op_p50_s"]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans_{args.workload}.npz")
        print(f"  traced op_p50_s = {traced_p50:.6g} s; overhead "
              f"{layer['trace.overhead_s']:.6g} s; spans in .perfbench_out/")
        for name, val in layer.items():
            print(f"  {name} = {val:.6g}")
        reported = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer"]}
    else:
        reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["end_to_end"]}
    for msg in run.broken:
        print("CHECK FAILED " + msg)
    correct = not run.broken
    result = {
        "correct": correct,
        "attempted": n,
        "failed": sum(o is None for o in run.outcomes),
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
