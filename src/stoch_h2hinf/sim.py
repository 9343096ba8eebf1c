"""Seeded simulation of the multiplicative-noise plant.

Everything downstream of a seed is deterministic: the main noise stream is
keyed by (seed, stream tag), per-step branch draws by (seed, tag, step), and
per-run draws by (seed, tag, run), so results never depend on evaluation
order.  Branch draw j at step k is the j-th element of the (seed, k) stream,
which realizes the (run seed, step index, branch index) derivation rule.

A derived stream is pinned to numpy: its draws are those of
default_rng(SeedSequence((seed, tag, key))).  Rather than build a
SeedSequence per key, NoiseSource hashes a block of _SEED_BLOCK keys at
once with SeedSequence's pool hash (numpy/random/bit_generator.pyx): the
seed and tag words, and the key's high words, which every key of a block
shares, enter as one-element arrays broadcast against the keys' low words.
The hash yields each key's generate_state(4, uint64) words, and PCG64
seeds itself from them (O'Neill, PCG, HMC-CS-2014-0905): a row's generator
is built on an ISeedSequence that hands PCG64 the row's four words.  A
window walks its keys block by block, one word-array lookup per block.

simulate_to_csv steps the closed loop one chunk of _CHUNK steps at a time,
one kernel call each, given the state before the chunk's first so that a
settled chunk is a call that computes no step.
A run of more than one chunk, in a process that may use a second CPU, forks
one writer child that formats the rows while this process steps the next
chunk: the child runs _write_csv, the one row writer, over the chunks
pickled down a pipe, so the file has the bytes an in-process write gives,
and the kernel stays here.  A one-chunk run, or one pinned to one CPU,
writes in-process.  The child is safe after fork: it calls no BLAS,
takes no lock another thread may hold, runs without the cyclic garbage
collector, keeps SIGINT blocked and leaves by os._exit, so it flushes no
inherited buffer and runs no atexit handler.  Python 3.12 and later warn
when a process with more than one thread forks (a multi-threaded BLAS
counts).
"""

import functools
import gc
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .model import ConfigError, DivergenceError

_TAG_MAIN = 0x51B1
_TAG_BRANCH = 0x51B2
_TAG_RUN = 0x51B3

_CHUNK = 16 * _kernels._BLOCK  # steps simulated, and rows formatted, per pass

# SeedSequence's hash constants (default pool of four words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_MASK32 = (1 << 32) - 1
_SEED_BLOCK = 512  # derived-stream keys hashed per vectorized pass


def _words(n):
    """n as SeedSequence reads an int: little-endian uint32 words, at least one."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash(value, h, mult):
    """SeedSequence's multiply-xorshift of uint32 words; h is the running constant."""
    value = value ^ np.uint32(h)
    h = h * mult & _MASK32
    value = value * np.uint32(h)
    return value ^ value >> 16, h


def _mix(x, y):
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> 16


def _seed_words(entropy):
    """SeedSequence(e).generate_state(4, uint64) for each row e, as one
    C-ordered (rows, 4) uint64 array.

    entropy holds one uint32 array per entropy word, one entry per row or
    one entry that every row shares: the rows' assembled entropy, broadcast.
    All rows are hashed at once.
    """
    h = _INIT_A
    pool = []
    for i in range(_POOL):
        word = entropy[i] if i < len(entropy) else np.zeros(1, dtype=np.uint32)
        word, h = _hash(word, h, _MULT_A)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, h = _hash(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[_POOL:]:
        for dst in range(_POOL):
            word, h = _hash(extra, h, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    # eight words cycled from the pool, paired little-endian into uint64s
    h, words = _INIT_B, []
    for i in range(8):
        word, h = _hash(pool[i % _POOL], h, _MULT_B)
        words.append(word.astype(np.uint64))
    return np.stack([words[i] | words[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


@functools.cache
def _hashed():
    """The ISeedSequence whose generate_state returns the words it holds:
    PCG64 seeds itself from a SeedSequence's words hashed beforehand.  Made
    on first use, so that importing the package loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class Hashed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Hashed


@dataclass
class NoiseSource:
    """Deterministic scalar Gaussian white-noise stream, E(w)=0, E(w^2)=1.

    The seed is its one setting.  Single-owner mutable: draw() advances the
    main stream.  Branch and run draws use derived sub-seeds and leave the
    main stream untouched.
    """

    seed: int

    def __post_init__(self):
        self._rng = np.random.default_rng(
            np.random.SeedSequence((int(self.seed), _TAG_MAIN))
        )
        # the generate_state words of the last two derived-key blocks hashed
        self._blocks = {}

    def draw(self, count=1):
        """Next `count` draws of the main stream."""
        return self._rng.standard_normal(int(count))

    def _block_seeds(self, tag, block):
        """generate_state(4, uint64) words, one row per key, of keys
        block * _SEED_BLOCK onward, hashed once."""
        cache_key = (int(self.seed), tag, block)
        if cache_key not in self._blocks:
            first = block * _SEED_BLOCK
            # _SEED_BLOCK divides 2^32, so every key of a block has as many
            # words as its first, and only the lowest differs: the other
            # words are one entry each, shared by the block's rows
            low, *high = _words(first)
            entropy = [np.array([w], dtype=np.uint32) for w in _words(self.seed) + _words(tag)]
            entropy.append(np.arange(low, low + _SEED_BLOCK, dtype=np.uint32))
            entropy += [np.array([w], dtype=np.uint32) for w in high]
            if len(self._blocks) >= 2:
                del self._blocks[next(iter(self._blocks))]
            self._blocks[cache_key] = _seed_words(entropy)
        return self._blocks[cache_key]

    def _window(self, tag, key, rows, count):
        """(rows, count) draws; row t is default_rng(SeedSequence((seed, tag, key + t)))'s,
        drawn by a PCG64 seeded from the key's hashed words."""
        key, rows, count = int(key), int(rows), int(count)
        out = np.empty((rows, count))
        hashed, generator, pcg64 = _hashed(), np.random.Generator, np.random.PCG64
        t = 0
        while t < rows:
            block, i = divmod(key + t, _SEED_BLOCK)
            take = min(rows - t, _SEED_BLOCK - i)
            words = self._block_seeds(tag, block)[i:i + take]
            for row, w in zip(out[t:t + take], words):
                generator(pcg64(hashed(w))).standard_normal(out=row)
            t += take
        return out

    def branch_window(self, step, rows, count):
        """Branch draws at steps step..step+rows-1, count per step, as a (rows, count)
        array; row t is pure in (seed, step + t)."""
        return self._window(_TAG_BRANCH, step, rows, count)


def step(sys, x, u, v, omega):
    """One transition: A1 x + B1 u + C1 v + (A2 x + C2 v) omega."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if (x.size, u.size, v.size) != (sys.n, sys.m1, sys.m2):
        raise ValueError(
            f"input dims ({x.size},{u.size},{v.size}) do not match {sys.dims}"
        )
    # .dot, not @: the same products at about half the dispatch cost
    mu = sys.A1.dot(x) + sys.B1.dot(u) + sys.C1.dot(v)
    return mu + float(omega) * (sys.A2.dot(x) + sys.C2.dot(v))


def stage_costs(cost, x, u, v):
    """(r1, r2) with r2 = x'Qx + u'u and r1 = g^2 v'v - r2."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if x.size != cost.Q.shape[0]:
        raise ValueError(f"x of length {x.size} does not match Q {cost.Q.shape}")
    r2 = float(x.dot(cost.Q).dot(x) + u.dot(u))
    r1 = float(cost.gamma**2 * v.dot(v) - r2)
    return r1, r2


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop record: one more state than inputs, costs per step."""

    states: np.ndarray
    inputs_u: np.ndarray
    inputs_v: np.ndarray
    noises: np.ndarray
    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self):
        T = self.noises.shape[0]
        if not (
            self.states.shape[0] == T + 1
            and self.inputs_u.shape[0] == T
            and self.inputs_v.shape[0] == T
            and self.r1.shape[0] == T
            and self.r2.shape[0] == T
        ):
            raise ValueError("trajectory arrays disagree on step count")

    @property
    def steps(self):
        return self.noises.shape[0]

    def _repeated(self):
        """x, u, v, r1 and r2 of every step, one array each."""
        return self.states[:-1], self.inputs_u, self.inputs_v, self.r1, self.r2

    def _constant_tail(self):
        """First row from which x, u, v, r1 and r2 repeat the last row's bits."""
        start = 0
        for a in self._repeated():
            # bit patterns, so -0.0 and 0.0 differ; one array at a time keeps
            # the comparison small
            bits = np.ascontiguousarray(a, dtype=np.float64).reshape(self.steps, -1)
            bits = bits.view(np.uint64)
            differ = np.flatnonzero((bits != bits[-1]).any(axis=1))
            if differ.size:
                start = max(start, int(differ[-1]) + 1)
        return start

    def _write_rows(self, fh, k0):
        """The rows of trajectory.csv for this record's steps, numbered from k0,
        formatted and written _CHUNK rows at a time."""
        width = 4 + sum(a.shape[1] for a in (self.states, self.inputs_u, self.inputs_v))
        # k is an exact float in the block; "%.12g" prints like f"{x:.12g}"
        row = "%d," + ",".join(["%.12g"] * (width - 1)) + "\n"
        start = self._constant_tail() if self.steps else 0
        for a in range(0, start, _CHUNK):
            b = min(a + _CHUNK, start)
            block = np.column_stack((
                np.arange(k0 + a, k0 + b), self.states[a:b], self.inputs_u[a:b],
                self.inputs_v[a:b], self.noises[a:b], self.r1[a:b], self.r2[a:b],
            ))
            fh.write((row * (b - a)) % tuple(block.ravel().tolist()))
        if start < self.steps:
            # the repeated rows differ only in k and omega: their other
            # cells are formatted once into the row template
            last = np.concatenate([np.ravel(a[-1]) for a in self._repeated()])
            cells = ["%.12g" % x for x in last.tolist()]
            n_xuv = width - 4
            const = ("%d," + ",".join(cells[:n_xuv]) + ",%.12g,"
                     + ",".join(cells[n_xuv:]) + "\n")
            for a in range(start, self.steps, _CHUNK):
                b = min(a + _CHUNK, self.steps)
                args = [0] * (2 * (b - a))
                args[::2] = range(k0 + a, k0 + b)
                args[1::2] = self.noises[a:b].tolist()
                fh.write((const * (b - a)) % tuple(args))

    def to_csv(self, path):
        with open(path, "w") as fh:
            _write_csv(fh, [(0, self)])


def _write_csv(fh, chunks):
    """trajectory.csv of a path given as (first k, Trajectory) chunks in order,
    each starting at the state the one before ended in: the header, one row
    per step, then the terminal state's row."""
    for k, chunk in chunks:
        if k == 0:
            dims = (("x", chunk.states), ("u", chunk.inputs_u), ("v", chunk.inputs_v))
            header = ["k", *(f"{c}{i+1}" for c, a in dims for i in range(a.shape[1]))]
            header += ["omega", "r1", "r2"]
            fh.write(",".join(header) + "\n")
        chunk._write_rows(fh, k)
    # terminal state row, inputs blank
    tail = [str(k + chunk.steps)] + [f"{x:.12g}" for x in chunk.states[-1]]
    fh.write(",".join(tail + [""] * (len(header) - len(tail))) + "\n")


def _closed_loop_chunks(sys, cost, gains, x0, steps, noise):
    """The plain closed loop u = K2 x, v = K1 x as (first k, Trajectory)
    chunks of _CHUNK steps, each starting at the last one's final state.

    Each chunk draws its omegas, takes one kernel pass and forms its stage
    costs, with the bits and the computed steps of the whole path run at
    once: the kernel is given the state before the chunk's first.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    mats = (sys.A1, sys.B1, sys.C1, sys.A2, sys.C2, gains.K1, gains.K2)
    eu, ev = np.zeros((min(steps, _CHUNK), sys.m1)), np.zeros((min(steps, _CHUNK), sys.m2))
    prev = None
    for k in range(0, steps, _CHUNK):
        T = min(_CHUNK, steps - k)
        omegas = noise.draw(T)
        xs, us, vs, bad = _kernels.closed_loop_path(*mats, x, omegas, eu[:T], ev[:T], prev)
        if bad >= 0:
            raise DivergenceError(k + bad)
        prev, x = xs[-2], xs[-1]
        xQx = np.einsum("ij,jk,ik->i", xs[:-1], cost.Q, xs[:-1])
        r2 = xQx + np.einsum("ij,ij->i", us, us)
        r1 = cost.gamma**2 * np.einsum("ij,ij->i", vs, vs) - r2
        yield k, Trajectory(xs, us, vs, omegas, r1, r2)


def simulate_closed_loop(sys, cost, gains, x0, steps, noise):
    """Run the plain closed loop u = K2 x, v = K1 x for `steps` transitions.

    No probe is added.  Raises DivergenceError when a state leaves the guard
    region.
    """
    chunks = [chunk for _, chunk in _closed_loop_chunks(sys, cost, gains, x0, steps, noise)]
    states = np.concatenate([c.states[:-1] for c in chunks] + [chunks[-1].states[-1:]])
    rest = (np.concatenate([getattr(c, name) for c in chunks])
            for name in ("inputs_u", "inputs_v", "noises", "r1", "r2"))
    return Trajectory(states, *rest)


def _writer_beside():
    """Whether a forked writer child can run beside this process: fork
    exists and the process may run on a second CPU.  On one CPU the child
    only takes turns with the kernel, and the pipe makes the run slower."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _send(pipe, obj):
    """Pickle obj down the raw pipe, looping over partial writes."""
    view = memoryview(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
    while view:
        view = view[pipe.write(view):]


def _writer_child(fh, data_r, err_w, parent_ends):
    """The writer child's whole life; never returns.

    It closes the parent's pipe ends, runs _write_csv into fh over the
    chunks read from data_r up to a None, and leaves by os._exit: status 0,
    or 1 with the exception pickled down err_w.
    """
    code = 1
    try:
        gc.disable()  # no copied garbage is collected, so no finalizer of it runs
        for fd in parent_ends:
            os.close(fd)
        with open(data_r, "rb") as src:
            _write_csv(fh, iter(lambda: pickle.load(src), None))
        fh.close()
        code = 0
    except BaseException as exc:
        try:
            error = pickle.dumps(exc)
            pickle.loads(error)
        except Exception:
            error = pickle.dumps(ChildProcessError(f"{type(exc).__name__}: {exc}"))
        os.write(err_w, error)
    finally:
        os._exit(code)


def _write_csv_forked(fh, chunks):
    """_write_csv(fh, chunks), with the rows formatted by a forked child
    while this process computes the next chunk.

    The child is reaped on every path: after its last row, or killed when
    the chunk stream raises.  An exception in the child is raised here.
    """
    data_r, data_w = os.pipe()
    err_r, err_w = os.pipe()
    # SIGINT stays blocked in the child, and reaches this process only
    # inside the try below, which kills and reaps the child
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
    try:
        pid = os.fork()
    except OSError:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in (data_r, data_w, err_r, err_w):
            os.close(fd)
        raise
    if pid == 0:
        _writer_child(fh, data_r, err_w, (data_w, err_r))
    os.close(data_r)
    os.close(err_w)
    with open(data_w, "wb", buffering=0) as pipe, open(err_r, "rb") as err:
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            try:
                for chunk in chunks:
                    _send(pipe, chunk)
                _send(pipe, None)
            except BrokenPipeError:
                pass  # the child has failed: its error follows
            error = err.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            pipe.close()  # a child left running reads EOF, and stops
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if error:
        raise pickle.loads(error)
    if status:
        raise ChildProcessError(f"trajectory writer exited with status {status}")


def simulate_to_csv(sys, cost, gains, x0, steps, noise, path):
    """Write simulate_closed_loop's trajectory.csv to path, byte for byte,
    holding one chunk of _CHUNK steps at a time, so memory does not grow
    with steps.

    A run of more than one chunk, in a process that may use a second CPU,
    formats its rows in a forked writer child while this process steps the
    next chunk; any other run writes them itself.  The file is written
    under a temporary name beside path and moved into place once complete:
    a run that raises, on a DivergenceError say, leaves path as it was and
    no temporary file.
    """
    tmp = f"{path}.tmp"
    chunks = _closed_loop_chunks(sys, cost, gains, x0, steps, noise)
    try:
        with open(tmp, "w") as fh:
            if steps > _CHUNK and _writer_beside():
                _write_csv_forked(fh, chunks)
            else:
                _write_csv(fh, chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def empirical_attenuation(sys, cost, K2, disturbance, horizon, runs, seed):
    """Energy ratio (sum x'Qx + u'u) / (sum v'v) under an exogenous v.

    x0 = 0 is enforced; the numerator is averaged over `runs` seeded noise
    realizations.  The caller compares the result against gamma^2.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    K2 = np.asarray(K2, dtype=float)
    disturbance = np.asarray(disturbance, dtype=float)
    if disturbance.ndim == 1:
        disturbance = disturbance.reshape(-1, 1)
    if disturbance.shape != (horizon, sys.m2):
        raise ValueError(
            f"disturbance must be {horizon}x{sys.m2}, got {disturbance.shape}"
        )
    denom = float(np.einsum("ij,ij->", disturbance, disturbance))
    if denom == 0.0:
        raise ValueError("zero disturbance energy")
    W = NoiseSource(seed)._window(_TAG_RUN, 0, runs, horizon).T[:, :, None]
    CV1, CV2 = disturbance @ sys.C1.T, disturbance @ sys.C2.T
    # all replicates at once; one that leaves the guard counts its states up
    # to the offending one and its inputs before it, then stays frozen at 0
    X = np.zeros((runs, sys.n))
    live = np.ones(runs, dtype=bool)
    energy = np.zeros(runs)
    with np.errstate(all="ignore"):
        for t in range(horizon):
            U = X @ K2.T
            energy += np.einsum("ij,jk,ik->i", X, cost.Q, X) + np.einsum("ij,ij->i", U, U)
            X = X @ sys.A1.T + U @ sys.B1.T + CV1[t] + W[t] * (X @ sys.A2.T + CV2[t])
            bad = live & ~(np.isfinite(X) & (np.abs(X) <= _kernels.GUARD)).all(axis=1)
            if bad.any() and t + 1 < horizon:
                energy[bad] += np.einsum("ij,jk,ik->i", X[bad], cost.Q, X[bad])
            live &= ~bad
            X[~live] = 0.0
    return float(energy.sum()) / runs / denom
