"""Sequential closed-loop trajectory kernel.

The per-step recursion u = K2 x + e_u, v = K1 x + e_v cannot be vectorized
over time, so it is one plain loop.  Empirical attenuation batches its
replicates in `sim` instead.

Noise is pre-drawn by the caller so the kernel stays deterministic and
RNG-free.  A `bad` return of -1 means the path stayed inside the divergence
guard; otherwise it is the index of the first offending state, and every
later state and every input from step `bad` on is zero.

The loop writes each step straight into the output rows and checks the
guard once per block of steps.  A block runs on past a trip, with the
overflow warnings that may bring silenced, and its later steps are then
zeroed, so the result equals a loop that checks every state and stops at
the first offending one, bit for bit.

A path that decays without additive noise can underflow into an exact fixed
point: with every later probe +0.0 and every later omega finite, a state x
whose step gives s = A2 x + C2 v = 0 in every entry and mu + s = mu - s = x,
bit for bit, repeats itself for the rest of the path, since w s is s or -s
(signed zeros included) for every finite w.  At a block start whose state
equals the one before (the caller's prev for x0), the loop runs that one
exact test and, when it passes, fills the rest of the path with that
step's rows; a path run in pieces is so tested where one pass is.

When both players have one column (B1, C1 of shape (n, 1), n >= 2, such as
F-16's) and A1, A2 and the gains are C-ordered, each step makes three BLAS
products and does the rest on Python floats, with the general loop's bits.
K2 x and K1 x are numpy's vector dot, an FMA chain, fma(k2, x2, fma(k1, x1,
k0 x0)) at n = 3, the same for a gain row as for the (1, n) gain.  [A1; A2] x
is one 2n x n gemv whose rows each round as those of A1 x and A2 x do,
fma(a2, x2, fma(a0, x0, a1 x1)) at n = 3; a stacked [K2; K1] would take
that gemv order instead of the dot's, which is why it moves bits and
[A1; A2] does not (a Fortran-ordered A runs yet another gemv).  Each column
product c f is an axpy into zeros: +0.0 for f = 0, else fma(c, f, +0.0),
which is c f except that an exact zero is +0.0 while an underflow keeps its
sign.  Those and the sums, in the loop's order ((A1 x + B1 u) + C1 v) +
w (A2 x + C2 v), are single IEEE operations that Python floats reproduce.
For n = 1 numpy's (1, 1) . (1,) product is the plain product, -0.0 kept,
and multi-column products are FMA gemvs, so both run the general loop.
tests/test_sim.py pins each of these numpy rules.

That step is generated once per plant, at its first path, and cached by
the bytes of B1, C1 and C2, so a -0.0 entry never shares a +0.0 entry's
loop.  The loop writes the n entries out as straight-line code, in four
branches on u and v being nonzero.  A column product whose factor is zero
is written 0.0, one whose coefficient is zero c*f + 0.0 (+0.0 for a finite
f, NaN otherwise, as the fma gives), and any other c*f.  With c and f
nonzero the fma has no exact zero to turn into +0.0, so it is c*f + -0.0,
and that added -0.0 is dropped: x + -0.0 is x bit for bit for every x,
signed zeros and NaN payloads included.  The coefficients are bound to the
loop as keyword defaults, so it reads them as fast locals.  They are never
formatted into its source, which is built from this module's template and
names alone: no value takes a repr round trip, and nothing from the caller
is compiled.
"""

import functools

import numpy as np

GUARD = 1e12
_BLOCK = 256  # steps between guard checks

# HAVE_NUMBA and active_backend are read only by perfbench's environment line
HAVE_NUMBA = False


def active_backend():
    return "numpy"


def _settled_step(A1, B1, C1, A2, C2, K1, K2, x, omegas, eu, ev):
    """(u, v) of the step from x when x is an exact fixed point of every step
    left (omegas, eu, ev are the rest of the path), else None."""
    # the step exactly as the loop writes it, under the next probe rows
    u = np.add(K2.dot(x), eu[0])
    v = np.add(K1.dot(x), ev[0])
    mu = A1.dot(x) + B1.dot(u) + C1.dot(v)
    s = A2.dot(x) + C2.dot(v)
    if s.any() or (mu + s).tobytes() != x.tobytes() or (mu - s).tobytes() != x.tobytes():
        return None
    # every probe left is +0.0, so each later step repeats this one, and a
    # finite w makes w s equal to s or -s
    for e in (eu, ev):
        if e.any() or np.signbit(e).any():
            return None
    if not np.isfinite(omegas).all():
        return None
    return u, v


def _steps(ops, xs, us, vs, omegas, eu, ev, a, b):
    """Steps a..b of the general loop, written into the output rows."""
    A1, B1, C1, A2, C2, K1, K2 = ops
    x = xs[a]
    for x_next, u, v, e_u, e_v, w in zip(xs[a + 1:b + 1], us[a:b], vs[a:b],
                                         eu[a:b], ev[a:b], omegas[a:b].tolist()):
        # .dot, not @: the same products at about half the dispatch
        # cost; one .dot per gain, as a stacked [K2; K1] gemv would
        # move the last bits
        np.add(K2.dot(x), e_u, out=u)
        np.add(K1.dot(x), e_v, out=v)
        mu = A1.dot(x) + B1.dot(u) + C1.dot(v)
        np.add(mu, w * (A2.dot(x) + C2.dot(v)), out=x_next)
        x = x_next


_SINGLE_INPUT_LOOP = """\
def loop(AA, k1, k2, xs, us, vs, omegas, eu, ev, a, b, *, {coefs}):
    x = xs[a]
    ul, vl = [], []
    for x_next, w, e_u, e_v in zip(xs[a + 1:b + 1], omegas[a:b].tolist(),
                                   eu[a:b, 0].tolist(), ev[a:b, 0].tolist()):
        u = float(k2.dot(x)) + e_u
        v = float(k1.dot(x)) + e_v
        {ms} = AA.dot(x).tolist()
        if u:
            if v:
                x_next[:] = [{uv}]
            else:
                x_next[:] = [{u0}]
        elif v:
            x_next[:] = [{v0}]
        else:
            x_next[:] = [{zero}]
        ul.append(u)
        vl.append(v)
        x = x_next
    us[a:b, 0] = ul
    vs[a:b, 0] = vl
"""


def _product(name, c, f, live):
    """Source of numpy's column product entry c f, c bound to name: the axpy
    into zeros is +0.0 when the factor is zero, else c f, plus +0.0 where c
    is zero."""
    if not live:
        return "0.0"
    return f"{name}*{f}" if c else f"({name}*{f} + 0.0)"


def _single_input_source(b1, c1, c2):
    """Source of the single-input loop of the columns b1, c1, c2 (lists of
    floats); coefficient i of each is the keyword b{i}, c{i} or r{i}."""
    n = len(b1)

    def entries(u, v):
        return ", ".join(
            f"((m{i} + {_product(f'b{i}', b1[i], 'u', u)}) + {_product(f'c{i}', c1[i], 'v', v)})"
            f" + w*(s{i} + {_product(f'r{i}', c2[i], 'v', v)})" for i in range(n))

    return _SINGLE_INPUT_LOOP.format(
        coefs=", ".join(f"{p}{i}" for p in "bcr" for i in range(n)),
        ms=", ".join([f"m{i}" for i in range(n)] + [f"s{i}" for i in range(n)]),
        uv=entries(True, True), u0=entries(True, False),
        v0=entries(False, True), zero=entries(False, False))


@functools.lru_cache(maxsize=32)
def _single_input_loop(n, *columns):
    """The step loop of the plant whose float64 (n, 1) columns B1, C1, C2
    have the bytes in columns, compiled once and bound to its coefficients."""
    coefs = np.frombuffer(b"".join(columns)).tolist()
    b1, c1, c2 = coefs[:n], coefs[n:2 * n], coefs[2 * n:]
    namespace = {}
    exec(compile(_single_input_source(b1, c1, c2), f"<single-input loop n={n}>", "exec"),
         namespace)
    loop = namespace["loop"]
    loop.__kwdefaults__ = {f"{p}{i}": c for p, col in zip("bcr", (b1, c1, c2))
                           for i, c in enumerate(col)}
    return loop


def _single_input_ops(A1, B1, C1, A2, C2, K1, K2):
    """The single-input loop's operands: [A1; A2], the gain rows and the
    plant's generated loop."""
    return (np.concatenate((A1, A2)), K1[0], K2[0],
            _single_input_loop(A1.shape[0], B1.tobytes(), C1.tobytes(), C2.tobytes()))


def _single_input_steps(ops, xs, us, vs, omegas, eu, ev, a, b):
    """Steps a..b of the loop for one-column players: three BLAS products
    per step, the rest on Python floats, the general loop's bits."""
    AA, k1, k2, loop = ops
    loop(AA, k1, k2, xs, us, vs, omegas, eu, ev, a, b)


def closed_loop_path(A1, B1, C1, A2, C2, K1, K2, x0, omegas, eu, ev, prev=None):
    """(xs, us, vs, bad) of the len(omegas) steps from x0; prev is the
    state before x0 when the path continues an earlier call's."""
    T = omegas.shape[0]
    xs = np.zeros((T + 1, A1.shape[0]))
    us = np.zeros((T, B1.shape[1]))
    vs = np.zeros((T, C1.shape[1]))
    xs[0] = x0
    bad = -1
    ops, steps = (A1, B1, C1, A2, C2, K1, K2), _steps
    if (A1.shape[0] > 1 and B1.shape[1] == C1.shape[1] == 1
            and all(m.flags.c_contiguous for m in (A1, A2, K1, K2))):
        ops, steps = _single_input_ops(*ops), _single_input_steps
    with np.errstate(all="ignore"):
        for a in range(0, T, _BLOCK):
            before = xs[a - 1] if a else prev
            if before is not None and (xs[a] == before).all():
                settled = _settled_step(A1, B1, C1, A2, C2, K1, K2, xs[a],
                                        omegas[a:], eu[a:], ev[a:])
                if settled is not None:
                    xs[a + 1:] = xs[a]
                    us[a:], vs[a:] = settled
                    break
            b = min(a + _BLOCK, T)
            steps(ops, xs, us, vs, omegas, eu, ev, a, b)
            # NaN compares false, and a block holding one has a NaN max, so
            # it trips the guard like an infinity does; rows are read only then
            size = np.abs(xs[a + 1:b + 1])
            if not size.max() <= GUARD:
                bad = a + 1 + int(np.argmin((size <= GUARD).all(axis=1)))
                xs[bad + 1:] = 0.0
                us[bad:] = 0.0
                vs[bad:] = 0.0
                break
    return xs, us, vs, bad
