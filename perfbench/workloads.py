"""The benchmark's four workloads: inputs made from a seed, one timed operation, checks.

Every operation is one in-process call to ``stoch_h2hinf.cli.main(argv)``
writing into a fresh output directory (``simulate_certify`` adds a library
call to ``empirical_attenuation``, which has no CLI command). A workload's
``setup`` makes all inputs from the seed and the reference solution the
checks compare against; ``op`` is the timed part; ``check`` reads the
operation's artifacts back and returns an ``Outcome``.
"""

import contextlib
import io
import os
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from stoch_h2hinf import _kernels, cli, f16, gare, model, sim

REF_TOL = 1e-12
RESIDUAL_TOL = 1e-8
ANALYTIC_GAIN_TOL = 1e-3
BACKEND_RTOL, BACKEND_ATOL = 1e-12, 1e-13

# exit-2 reasons the CLI prints for each error it documents (cli._run_in)
DOCUMENTED_FAILURES = {
    "DivergenceError": re.compile(r"state exceeded divergence guard|non-finite branched successor"),
    "ExcitationError": re.compile(r"insufficient excitation|normal equations singular"),
    "GainExtractionError": re.compile(r"gain block|stacked gain system"),
    "ConvergenceError": re.compile(r"did not converge|no fixed point"),
}


class CheckFailed(AssertionError):
    """An operation's output broke the program's contract."""


@dataclass
class Outcome:
    """What one operation did, as read back from its exit code and artifacts."""

    code: int
    reason: str
    gain_err: Optional[float] = None
    error_type: Optional[str] = None
    extra: Optional[float] = None


def call_cli(argv):
    """Run the CLI in-process; returns (exit code, captured standard output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def read_manifest(out):
    with open(os.path.join(out, "manifest.txt")) as fh:
        return dict(line.split(" = ", 1) for line in fh.read().splitlines())


def read_gains(out, m1, m2):
    KK = np.loadtxt(os.path.join(out, "gains.txt"), ndmin=2)
    return KK[:m2], KK[m2:m2 + m1]


def gain_error(K1, K2, ref_gains):
    return max(float(np.linalg.norm(K1 - ref_gains.K1)),
               float(np.linalg.norm(K2 - ref_gains.K2)))


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def f16_reference():
    sys_, cost = f16.f16_system()
    return sys_, cost, gare.solve_coupled_gare(sys_, cost, tol=REF_TOL)


class SolvePopulation:
    """``solve --system custom --tol 1e-12`` over F-16 plus random feasible systems.

    The population is drawn once, from a fixed generator seed, so every run
    solves the same mix; ``--seed`` sets the order in which a run cycles
    through it. Drawn afresh from each seed, the population's median system
    moved op_p50_s by about 25% (IQR over median, 5 seeds), more than any
    bound allows.
    """

    name = "solve_population"
    POPULATION_SEED = 231114992
    PER_N = 3
    DIMS = (2, 3, 4, 5)

    def setup(self, seed, tmp):
        rng = np.random.default_rng(self.POPULATION_SEED)
        population = [("f16",) + f16.f16_system()]
        for n in self.DIMS:
            for j in range(self.PER_N):
                population.append((f"n{n}_{j}",) + gare.random_feasible_system(rng, n=n))
        self.cases = []
        for label, sys_, cost in population:
            folder = os.path.join(tmp, "inputs", label)
            os.makedirs(folder, exist_ok=True)
            argv = ["solve", "--system", "custom", "--tol", repr(REF_TOL),
                    "--gamma", repr(cost.gamma)]
            mats = {"a1": sys_.A1, "a2": sys_.A2, "b1": sys_.B1, "c1": sys_.C1,
                    "c2": sys_.C2, "q": cost.Q}
            for key, M in mats.items():
                path = os.path.join(folder, f"{key}.txt")
                np.savetxt(path, M, fmt="%.17g")
                argv += [f"--{key}", path]
            # the reference sees exactly the matrices the CLI will load
            loaded = {k: np.loadtxt(os.path.join(folder, f"{k}.txt"), ndmin=2) for k in mats}
            sys_l = model.SdltiSystem(loaded["a1"], loaded["a2"], loaded["b1"],
                                      loaded["c1"], loaded["c2"])
            cost_l = model.CostSpec(cost.gamma, loaded["q"])
            ref = gare.solve_coupled_gare(sys_l, cost_l, tol=REF_TOL)
            self.cases.append((argv, sys_l, cost_l, ref))
        self.order = np.random.default_rng(seed).permutation(len(self.cases))

    def key(self, i):
        return int(self.order[i % len(self.cases)])

    def case(self, i):
        return self.cases[self.key(i)]

    def op(self, i, out):
        return call_cli(self.case(i)[0] + ["--out", out])

    def check(self, i, out, result):
        code, text = result
        _, sys_, cost, ref = self.case(i)
        require(code == 0, f"solve exited {code}: {text.strip()}")
        K1, K2 = read_gains(out, sys_.m1, sys_.m2)
        P1 = np.loadtxt(os.path.join(out, "p1.txt"), ndmin=2)
        P2 = np.loadtxt(os.path.join(out, "p2.txt"), ndmin=2)
        vals, gains = model.ValuePair(P1, P2), model.GainPair(K1, K2)
        R1, R2 = gare.gare_residuals(sys_, cost, vals, gains)
        worst = max(float(np.linalg.norm(R1)), float(np.linalg.norm(R2)))
        require(worst <= RESIDUAL_TOL, f"GARE residual {worst:.3e} > {RESIDUAL_TOL:g}")
        require(gare.ms_stable(*gare.closed_loop_pair(sys_, gains)),
                "solved gains are not mean-square stable")
        return Outcome(code, read_manifest(out)["exit_reason"], gain_error(K1, K2, ref.gains))


class LearnAnalytic:
    """``qlearn --mode analytic --case {1,2,3} --seed s`` on F-16."""

    name = "learn_analytic"

    def setup(self, seed, tmp):
        self.base = seed * 1000
        self.sys, _, self.ref = f16_reference()

    def key(self, i):
        return i

    def argv(self, i):
        return ["qlearn", "--mode", "analytic", "--case", str(i % 3 + 1),
                "--seed", str(self.base + i)]

    def op(self, i, out):
        return call_cli(self.argv(i) + ["--out", out])

    def check(self, i, out, result):
        code, text = result
        reason = read_manifest(out)["exit_reason"]
        require(code == 0, f"analytic learning exited {code}: {reason}")
        require(reason.startswith("stopped at iteration"), f"no stop fired: {reason}")
        err = gain_error(*read_gains(out, self.sys.m1, self.sys.m2), self.ref.gains)
        require(err <= ANALYTIC_GAIN_TOL, f"gain error {err:.3e} > {ANALYTIC_GAIN_TOL:g}")
        return Outcome(code, reason, err)


class LearnMC:
    """``qlearn --mode mc --branches 100 --tuples 20 --max-iters 60 --seed s`` on F-16.

    The learner seeds are the fixed pool 0..19, in an order set by ``--seed``;
    a run cycles through them. The learner aborts on 8 of them (exit 2 with a
    documented error); those runs count in fail_frac and are never skipped.
    Drawn afresh from each seed, the pool's mix of aborts and their timing
    would move op_p50_s from run to run.
    """

    name = "learn_mc"
    POOL = 20

    def setup(self, seed, tmp):
        self.order = np.random.default_rng(seed).permutation(self.POOL)
        self.sys, _, self.ref = f16_reference()

    def key(self, i):
        return int(self.order[i % self.POOL])

    def argv(self, i):
        return ["qlearn", "--mode", "mc", "--branches", "100", "--tuples", "20",
                "--max-iters", "60", "--seed", str(self.key(i))]

    def op(self, i, out):
        return call_cli(self.argv(i) + ["--out", out])

    def check(self, i, out, result):
        code, text = result
        reason = read_manifest(out)["exit_reason"]
        if code == 2:
            kinds = [k for k, pat in DOCUMENTED_FAILURES.items() if pat.search(reason)]
            require(reason.startswith("run failed: ") and len(kinds) == 1,
                    f"exit 2 without a documented error: {reason}")
            return Outcome(code, reason, error_type=kinds[0])
        require(code == 0, f"Monte-Carlo learning exited {code}: {reason}")
        K1, K2 = read_gains(out, self.sys.m1, self.sys.m2)
        require(np.isfinite(K1).all() and np.isfinite(K2).all(), "non-finite learned gains")
        return Outcome(code, reason, gain_error(K1, K2, self.ref.gains))


class SimulateCertify:
    """``simulate --steps 100000 --seed s``, then ``empirical_attenuation`` on its K2."""

    name = "simulate_certify"
    STEPS = 100_000
    HORIZON, RUNS = 200, 100

    def setup(self, seed, tmp):
        self.base = seed * 1000
        self.sys, self.cost, self.ref = f16_reference()

    def key(self, i):
        return i

    def disturbance(self, i):
        rng = np.random.default_rng(np.random.SeedSequence((self.base + i, 0xD157)))
        v = rng.standard_normal((self.HORIZON, self.sys.m2))
        return v * np.exp(-0.03 * np.arange(self.HORIZON))[:, None]

    def op(self, i, out):
        code, text = call_cli(["simulate", "--steps", str(self.STEPS),
                               "--seed", str(self.base + i), "--out", out])
        if code != 0:
            return code, text, None
        _, K2 = read_gains(out, self.sys.m1, self.sys.m2)
        ratio = sim.empirical_attenuation(self.sys, self.cost, K2, self.disturbance(i),
                                          self.HORIZON, self.RUNS, self.base + i)
        return code, text, ratio

    def check(self, i, out, result):
        code, text, ratio = result
        reason = read_manifest(out)["exit_reason"]
        require(code == 0, f"simulate exited {code}: {reason}")
        count, last = 0, ""
        with open(os.path.join(out, "trajectory.csv")) as fh:
            for last in fh:
                count += 1
        require(count == self.STEPS + 2, f"trajectory has {count} lines")
        terminal = np.array([float(x) for x in last.split(",")[1:1 + self.sys.n]])
        require(np.isfinite(terminal).all(), "non-finite terminal state")
        gamma2 = self.cost.gamma ** 2
        require(ratio < gamma2, f"attenuation ratio {ratio:.4g} not below gamma^2 {gamma2:g}")
        err = gain_error(*read_gains(out, self.sys.m1, self.sys.m2), self.ref.gains)
        return Outcome(code, reason, err, extra=ratio)

    def backend_check(self):
        """numba against numpy on both kernels, to bench_backends.py's tolerance.

        Returns a line for the report; raises CheckFailed when the backends disagree.
        """
        if not _kernels.HAVE_NUMBA:
            return "numba: not installed; numpy backend only, no numba figure quoted"
        s, K = self.sys, self.ref.gains
        omegas = sim.NoiseSource(self.base).draw(2000)
        eu, ev = np.zeros((2000, s.m1)), np.zeros((2000, s.m2))
        vseq = self.disturbance(0)
        paths = {}
        saved = os.environ.get("STOCH_H2HINF_BACKEND")
        try:
            for backend in ("numpy", "numba"):
                os.environ["STOCH_H2HINF_BACKEND"] = backend
                paths[backend] = (
                    _kernels.closed_loop_path(s.A1, s.B1, s.C1, s.A2, s.C2, K.K1, K.K2,
                                              f16.X0, omegas, eu, ev)[0],
                    _kernels.forced_path(s.A1, s.B1, s.C1, s.A2, s.C2, K.K2,
                                         np.zeros(s.n), vseq, omegas[:self.HORIZON])[0],
                )
        finally:
            if saved is None:
                os.environ.pop("STOCH_H2HINF_BACKEND", None)
            else:
                os.environ["STOCH_H2HINF_BACKEND"] = saved
        worst = 0.0
        for a, b in zip(paths["numpy"], paths["numba"]):
            require(np.allclose(a, b, rtol=BACKEND_RTOL, atol=BACKEND_ATOL),
                    "numba and numpy kernels disagree")
            worst = max(worst, float(np.max(np.abs(a - b))))
        return f"numba: backends agree (max state gap {worst:.1e})"


WORKLOADS = {w.name: w for w in (SolvePopulation, LearnAnalytic, LearnMC, SimulateCertify)}
