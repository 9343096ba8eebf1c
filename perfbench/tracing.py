"""Out-of-package tracing: wrap the package's functions, record spans, derive layer metrics.

The tracer never edits the package source. For each layer module it wraps
the public functions and the public methods of the classes defined there
(plus the dataclass validators and the CLI's manifest writer), and installs
each wrapper under every name the original is bound to: the defining module,
every package module that imported it by name, and the class for methods.
Wrappers are installed only around traced operations, so untraced operations
run the original code with no added call.

Spans are kept in memory as one flat int64 array with FIELDS entries each:
name id, parent span index, start ns, end ns, ok flag, operation index and a
work count (steps, runs or rows, where the span's arguments state one).
"""

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

FIELDS = 7
NAME, PARENT, T0, T1, OK, OP, WORK = range(FIELDS)

PACKAGE = "stoch_h2hinf"
LAYERS = {
    "cli": "stoch_h2hinf.cli",
    "gare": "stoch_h2hinf.gare",
    "model": "stoch_h2hinf.model",
    "qfunction": "stoch_h2hinf.qfunction",
    "qlearn": "stoch_h2hinf.qlearn",
    "sim": "stoch_h2hinf.sim",
    "kernels": "stoch_h2hinf._kernels",
}
# private names that a layer metric needs
EXTRA = {"stoch_h2hinf.cli": ("_write_manifest",)}
MODEL_OBJECTS = ("ValuePair.__post_init__", "GainPair.__post_init__",
                 "QPair.__post_init__")
ARTIFACT_WRITERS = ("Trajectory.to_csv", "SolveReport.to_csv", "QLearnReport.to_csv",
                    "write_matrix_txt", "emit_convergence_report", "_write_manifest")
COLLECT = ("bellman_targets", "SystemOracle.apply", "probing_noise",
           "probed_inputs", "DataBatch.append")


def _argument(fn, name):
    """Reader of the named argument of a call to fn, whatever its position."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


def matvec_flops(rows, cols):
    """Multiplies plus adds of a dense (rows x cols) matrix-vector product."""
    return rows * (2 * cols - 1)


def closed_loop_cost(n, m1, m2):
    """(flops, bytes) of one closed_loop_path step, computed from the dimensions.

    Flops: u = K2 x + eu, v = K1 x + ev, mu = A1 x + B1 u + C1 v,
    s = A2 x + C2 v, x+ = mu + omega s. Bytes: the per-step trajectory traffic
    (omega, eu, ev read; u, v, x+ written); the matrices stay in cache.
    """
    flops = (matvec_flops(m1, n) + m1 + matvec_flops(m2, n) + m2
             + matvec_flops(n, n) + matvec_flops(n, m1) + matvec_flops(n, m2) + 2 * n
             + matvec_flops(n, n) + matvec_flops(n, m2) + n
             + 2 * n)
    return flops, 8 * (1 + 2 * m1 + 2 * m2 + n)


def forced_cost(n, m1, m2):
    """(flops, bytes) of one forced_path step: closed_loop_path with K1 = 0, v given."""
    flops = (matvec_flops(m1, n)
             + matvec_flops(n, n) + matvec_flops(n, m1) + matvec_flops(n, m2) + 2 * n
             + matvec_flops(n, n) + matvec_flops(n, m2) + n
             + 2 * n)
    return flops, 8 * (1 + m1 + m2 + n)


class Tracer:
    """Span recorder for the package's layer boundaries."""

    def __init__(self):
        self.names = []
        self.layers = []
        self.buf = array("q")
        self.stack = []
        self.op = -1
        self.ops = 0
        self.batches = []
        self.kernel_dims = {}
        self.artifact_bytes = 0
        self._patches = []
        self._build()

    # -- wrapping -------------------------------------------------------
    def _work_fn(self, fn, qualname):
        """Extractor of the span's work count from its call arguments."""
        if qualname == "simulate_closed_loop":
            steps = _argument(fn, "steps")
            return lambda a, k: int(steps(a, k))
        if qualname == "empirical_attenuation":
            runs = _argument(fn, "runs")
            return lambda a, k: int(runs(a, k))
        if qualname in ("closed_loop_path", "forced_path"):
            readers = [_argument(fn, name) for name in ("A1", "B1", "C1", "omegas")]

            def kernel_steps(a, k):
                A1, B1, C1, omegas = (read(a, k) for read in readers)
                self.kernel_dims[qualname] = (A1.shape[0], B1.shape[1], C1.shape[1])
                return int(omegas.shape[0])
            return kernel_steps
        if qualname == "assemble_regression":
            batch_of = _argument(fn, "batch")

            def keep_batch(a, k):
                batch = batch_of(a, k)
                self.batches.append(batch)
                return len(batch)
            return keep_batch
        return None

    def _wrap(self, fn, qualname, layer):
        nid = len(self.names)
        self.names.append(qualname)
        self.layers.append(layer)
        buf, stack, clock = self.buf, self.stack, time.perf_counter_ns
        work = self._work_fn(fn, qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(buf) // FIELDS
            buf.extend((nid, stack[-1] if stack else -1, 0, 0, 0, tracer.op, 0))
            stack.append(idx)
            ok = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = 1
                return result
            finally:
                t1 = clock()
                stack.pop()
                base = idx * FIELDS
                buf[base + T0] = t0
                buf[base + T1] = t1
                buf[base + OK] = ok
                if work is not None:
                    buf[base + WORK] = work(args, kwargs)

        return wrapper

    def _build(self):
        """Plan every (owner, attribute, original, wrapper) replacement."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            extra = EXTRA.get(modname, ())
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == modname and (
                        not name.startswith("_") or name in extra):
                    wrapped = self._wrap(obj, name, layer)
                    for owner in modules:
                        for attr, val in list(vars(owner).items()):
                            if val is obj:
                                self._patches.append((owner, attr, obj, wrapped))
                elif (inspect.isclass(obj) and obj.__module__ == modname
                      and not inspect.isabstract(obj)):
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (
                                not mname.startswith("_") or mname == "__post_init__"):
                            wrapped = self._wrap(meth, f"{name}.{mname}", layer)
                            self._patches.append((obj, mname, meth, wrapped))

    def install(self, op):
        self.op = op
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)
        self.ops += 1

    def spans(self):
        return np.frombuffer(self.buf, dtype=np.int64).reshape(-1, FIELDS)

    def save(self, path):
        """Write the spans and their names (np.savez, uncompressed)."""
        np.savez(path, spans=self.spans(), names=np.array(self.names),
                 layers=np.array(self.layers))

    # -- layer metrics --------------------------------------------------
    def layer_metrics(self):
        """Every per-layer metric, averaged over the traced operations.

        A time per call is 0 where the workload never makes that call.
        """
        S = self.spans()
        ops = max(self.ops, 1)
        names = np.array(self.names)
        nid = S[:, NAME]
        dur = (S[:, T1] - S[:, T0]).astype(float)
        parent = S[:, PARENT]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(S)) if len(S) else np.zeros(0)
        self_ns = dur - child
        calls = np.bincount(nid, minlength=len(names)).astype(float)
        total = np.bincount(nid, weights=dur, minlength=len(names))
        work = np.bincount(nid, weights=S[:, WORK].astype(float), minlength=len(names))
        index = {n: i for i, n in enumerate(names)}
        parent_name = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

        def ids(*qualnames):
            return [index[q] for q in qualnames if q in index]

        def count(*q):
            return float(calls[ids(*q)].sum())

        def ns(*q):
            return float(total[ids(*q)].sum())

        def work_of(q):
            return float(work[ids(q)].sum())

        def mean_us(*q):
            c = count(*q)
            return ns(*q) / c / 1e3 if c else 0.0

        def ns_under(q, parents):
            mask = np.isin(nid, ids(*q)) & np.isin(parent_name, ids(*parents))
            return float(dur[mask].sum())

        m = {}
        artifact_mask = np.isin(nid, ids(*ARTIFACT_WRITERS)) & ~np.isin(
            parent_name, ids(*ARTIFACT_WRITERS))
        m["cli.artifact_s_per_op"] = float(dur[artifact_mask].sum()) / 1e9 / ops
        m["cli.artifact_bytes_per_op"] = self.artifact_bytes / ops

        sweeps = count("qlearn_value_update")
        solve_ns = ns("solve_coupled_gare")
        m["gare.sweeps_per_op"] = sweeps / ops
        m["gare.sweep_us"] = solve_ns / sweeps / 1e3 if sweeps else 0.0
        m["gare.gains_from_values_us"] = mean_us("gains_from_values")
        m["gare.vi_value_update_us"] = mean_us("vi_value_update")
        m["gare.residuals_us"] = mean_us("gare_residuals")
        m["gare.residual_share"] = ns("gare_residuals") / solve_ns if solve_ns else 0.0
        m["gare.ms_radius_us"] = mean_us("ms_radius")

        m["model.objects_per_op"] = count(*MODEL_OBJECTS) / ops
        m["model.validate_us"] = mean_us(*MODEL_OBJECTS)
        m["model.require_symmetric_calls"] = count("require_symmetric") / ops

        m["qfunction.vech_calls"] = count("vech") / ops
        m["qfunction.vech_us"] = mean_us("vech")
        m["qfunction.values_from_q_calls"] = count("values_from_q") / ops
        m["qfunction.values_from_q_us"] = mean_us("values_from_q")
        m["qfunction.gains_from_q_us"] = mean_us("gains_from_q")

        iters = count("assemble_regression")
        tuples = count("bellman_targets")
        learn_ns = ns("run_q_learning")
        m["qlearn.iterations_per_op"] = iters / ops
        m["qlearn.tuples_per_op"] = tuples / ops
        m["qlearn.tuple_us"] = mean_us("bellman_targets")
        m["qlearn.regress_us"] = (
            ns("assemble_regression", "least_squares_h") / iters / 1e3 if iters else 0.0)
        extract = ns_under(("gains_from_q", "values_from_q"), ("run_q_learning",))
        extract += ns("termination")
        m["qlearn.extract_us"] = extract / iters / 1e3 if iters else 0.0
        m["qlearn.collect_share"] = (
            ns_under(COLLECT, ("run_q_learning",)) / learn_ns if learn_ns else 0.0)
        bt = np.isin(nid, ids("bellman_targets"))
        in_completed = bt & (S[np.maximum(parent, 0), OK] == 1) & has_parent
        m["qlearn.useful_tuple_frac"] = (
            float(in_completed.sum()) / tuples if tuples else 0.0)
        m["qlearn.cond_x_max"] = self._cond_x_max()

        m["sim.oracle_apply_us"] = mean_us("SystemOracle.apply")
        m["sim.oracle_branch_us"] = mean_us("SystemOracle.branch")
        m["sim.branch_draw_us"] = mean_us("NoiseSource.branch_draws")
        m["sim.expected_quadratic_us"] = mean_us("expected_next_quadratic")
        sim_steps = work_of("simulate_closed_loop")
        m["sim.simulate_step_ns"] = ns("simulate_closed_loop") / sim_steps if sim_steps else 0.0
        runs = work_of("empirical_attenuation")
        m["sim.attenuation_run_us"] = ns("empirical_attenuation") / runs / 1e3 if runs else 0.0
        cl_steps = work_of("closed_loop_path")
        f_steps = work_of("forced_path")
        m["sim.steps_per_op"] = (cl_steps + f_steps) / ops

        cl_ns, f_ns = ns("closed_loop_path"), ns("forced_path")
        m["kernels.closed_loop_step_ns"] = cl_ns / cl_steps if cl_steps else 0.0
        m["kernels.forced_step_ns"] = f_ns / f_steps if f_steps else 0.0
        cl_cost = closed_loop_cost(*self.kernel_dims.get("closed_loop_path", (0, 0, 0)))
        f_cost = forced_cost(*self.kernel_dims.get("forced_path", (0, 0, 0)))
        m["kernels.flops_per_step"] = float(cl_cost[0]) if cl_steps else 0.0
        m["kernels.bytes_per_step"] = float(cl_cost[1]) if cl_steps else 0.0
        kernel_ns = cl_ns + f_ns
        flops = cl_cost[0] * cl_steps + f_cost[0] * f_steps
        m["kernels.mflops"] = flops / kernel_ns * 1e3 if kernel_ns else 0.0

        layer_of = np.array([list(LAYERS).index(layer) for layer in self.layers])
        by_layer = np.bincount(layer_of[nid], weights=self_ns, minlength=len(LAYERS)) \
            if len(S) else np.zeros(len(LAYERS))
        for i, layer in enumerate(LAYERS):
            m[f"{layer}.self_s_per_op"] = float(by_layer[i]) / 1e9 / ops
        m["trace.spans_per_op"] = len(S) / ops
        return m

    def _cond_x_max(self):
        """Largest 2-norm condition number of any regression matrix X assembled."""
        worst = 0.0
        for batch in self.batches:
            X = np.vstack([r[0] for r in batch.rows])
            sv = np.linalg.svd(X, compute_uv=False)
            cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
            worst = max(worst, cond)
        # JSON has no infinity; an exactly singular X reports the largest double
        return min(worst, sys.float_info.max)
