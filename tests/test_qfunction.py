"""Quadratic-form parameterization and the value/gain extraction maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stoch_h2hinf import (
    CostSpec,
    GainPair,
    SdltiSystem,
    ValuePair,
    gains_from_q,
    h_from_values,
    mat_from_vecs,
    q_value,
    values_from_q,
    vech,
    vecs,
)
from stoch_h2hinf.qfunction import _gain_index, _outer_vech
from test_gare import _classic_sweep

# Hand-worked scalar case: a1=0.8, a2=0.1, b1=0.5, c1=0.2, c2=0.05,
# gamma=2, Q=1, P1=-1, P2=2.
SCALAR_H1 = np.array(
    [
        [-1.65, -0.4, -0.165],
        [-0.4, -1.25, -0.1],
        [-0.165, -0.1, 3.9575],
    ]
)
SCALAR_H2 = np.array(
    [
        [2.3, 0.8, 0.33],
        [0.8, 1.5, 0.2],
        [0.33, 0.2, 0.085],
    ]
)


def test_vecs_definition():
    H = np.array([[1.0, 2.0], [2.0, 5.0]])
    np.testing.assert_array_equal(vecs(H), [1.0, 2.0, 5.0])
    np.testing.assert_array_equal(vecs(np.eye(3)), [1, 0, 0, 1, 0, 1])


def test_vecs_rejects_asymmetric():
    with pytest.raises(ValueError, match="asymmetry"):
        vecs(np.array([[1.0, 2.0], [0.0, 5.0]]))


def test_vech_doubles_off_diagonal():
    z = np.array([1.0, 3.0])
    np.testing.assert_array_equal(vech(np.outer(z, z)), [1.0, 6.0, 9.0])


def test_vech_stack_matches_per_matrix():
    rng = np.random.default_rng(31)
    Z = rng.standard_normal((25, 5))
    rows = vech(Z[:, :, None] * Z[:, None, :])
    assert rows.shape == (25, 15)
    np.testing.assert_array_equal(rows, np.array([vech(np.outer(z, z)) for z in Z]))


@pytest.mark.parametrize("p", [1, 3, 5, 8])
def test_outer_vech_bits_equal_stacked_vech(p):
    # the learner's regression rows skip vech's symmetry pass; each entry is
    # the same product z_i z_j, weighted, so the bits are vech's, signed
    # zeros, subnormals, infinities and products that underflow included
    rng = np.random.default_rng(p)
    Z = rng.standard_normal((40, p)) * 10.0 ** rng.integers(-170, 170, (40, p))
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e-160, -1e-170, 1e300, np.inf, -np.inf]
    Z.reshape(-1)[: len(special)] = special[: Z.size]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = _outer_vech(Z)
        expect = vech(Z[:, :, None] * Z[:, None, :])
    assert got.shape == expect.shape == (40, p * (p + 1) // 2)
    assert got.tobytes() == expect.tobytes()


def test_vech_stack_rejects_one_asymmetric_member():
    stack = np.stack([np.eye(3)] * 4)
    stack[2, 0, 1] = 0.5
    with pytest.raises(ValueError, match="asymmetry"):
        vech(stack)


def test_vecs_round_trip():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((4, 4))
    H = M + M.T
    np.testing.assert_array_equal(mat_from_vecs(vecs(H)), H)


def test_mat_from_vecs_rejects_bad_length():
    with pytest.raises(ValueError, match="triangular"):
        mat_from_vecs(np.arange(4.0))


def test_trace_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M = rng.standard_normal((5, 5))
        H = M + M.T
        z = rng.standard_normal(5)
        Z = np.outer(z, z)
        assert abs(vech(Z) @ vecs(H) - np.trace(Z @ H)) < 1e-12 * max(
            1.0, abs(np.trace(Z @ H))
        )


_ENTRIES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _symmetric_and_vector(draw):
    """A symmetric p x p matrix (p = 1..6) and a vector of length p."""
    p = draw(st.integers(1, 6))
    A = draw(arrays(float, (p, p), elements=_ENTRIES))
    z = draw(arrays(float, p, elements=_ENTRIES))
    return (A + A.T) / 2.0, z


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_symmetric_and_vector())
def test_vech_vecs_identity_property(pair):
    H, z = pair
    lhs = float(vech(np.outer(z, z)) @ vecs(H))
    scale = float(np.abs(z) @ np.abs(H) @ np.abs(z))
    # rounding error of a sum of products, plus an additive underflow term:
    # with subnormal entries the two multiplication orders differ in the last
    # subnormal digit, which no relative bound covers
    tol = 1e-12 * scale + 1e-300
    assert lhs == pytest.approx(q_value(H, z), rel=1e-12, abs=tol)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_symmetric_and_vector())
def test_mat_from_vecs_inverts_vecs_property(pair):
    H, _ = pair
    np.testing.assert_array_equal(mat_from_vecs(vecs(H)), H)


def test_q_value_is_quadratic_form():
    H = np.diag([1.0, 2.0, 3.0])
    assert q_value(H, np.array([1.0, 1.0, 1.0])) == pytest.approx(6.0)
    rng = np.random.default_rng(3)
    M = rng.standard_normal((5, 5))
    H = M + M.T
    z = rng.standard_normal(5)
    assert q_value(H, z) == pytest.approx(z @ H @ z)


def test_h_from_values_zero_gives_cost_blocks(scalar_sys, scalar_cost):
    q = h_from_values(scalar_sys, scalar_cost, ValuePair.zeros(1))
    np.testing.assert_allclose(q.H1, np.diag([-1.0, -1.0, 4.0]))
    np.testing.assert_allclose(q.H2, np.diag([1.0, 1.0, 0.0]))


def test_h_from_values_scalar_oracle(scalar_sys, scalar_cost):
    vals = ValuePair(np.array([[-1.0]]), np.array([[2.0]]))
    q = h_from_values(scalar_sys, scalar_cost, vals)
    np.testing.assert_allclose(q.H1, SCALAR_H1, atol=1e-14)
    np.testing.assert_allclose(q.H2, SCALAR_H2, atol=1e-14)


def test_gains_from_q_zero_values(scalar_sys, scalar_cost):
    q = h_from_values(scalar_sys, scalar_cost, ValuePair.zeros(1))
    g = gains_from_q(q)
    assert g.K1 == pytest.approx(0.0)
    assert g.K2 == pytest.approx(0.0)


def test_gains_from_q_scalar_oracle(scalar_sys, scalar_cost):
    # 2x2 elimination by hand: det = 3.9575*1.5 - 0.02 = 5.95625,
    # k1 = 0.1675/det, k2 = -3.199/det.
    vals = ValuePair(np.array([[-1.0]]), np.array([[2.0]]))
    q = h_from_values(scalar_sys, scalar_cost, vals)
    g = gains_from_q(q)
    assert g.K1[0, 0] == pytest.approx(0.1675 / 5.95625, abs=1e-14)
    assert g.K2[0, 0] == pytest.approx(-3.199 / 5.95625, abs=1e-14)


def test_gain_routes_agree(f16, f16_solution):
    # H's blocks against the classic stacked system of Delta blocks
    sys_, cost = f16
    vals = f16_solution.values
    g_q = gains_from_q(h_from_values(sys_, cost, vals))
    K1, K2 = _classic_sweep(sys_, cost, vals.P1, vals.P2)[:2]
    np.testing.assert_allclose(g_q.K1, K1, atol=1e-12)
    np.testing.assert_allclose(g_q.K2, K2, atol=1e-12)


def test_values_from_q_zero_values(scalar_sys, scalar_cost):
    q = h_from_values(scalar_sys, scalar_cost, ValuePair.zeros(1))
    vals = values_from_q(q, gains_from_q(q))
    # One exact update from zero lands on (-Q, Q).
    np.testing.assert_allclose(vals.P1, [[-1.0]], atol=1e-14)
    np.testing.assert_allclose(vals.P2, [[1.0]], atol=1e-14)


def test_composition_matches_value_update(f16, random_population):
    # values_from_q(h_from_values(P), gains_from_q(...)) is one exact
    # policy-improvement step, the classic model-based update to rounding
    for sys_, cost in [f16] + random_population[:6]:
        vals = ValuePair.zeros(sys_.n)
        for _ in range(5):
            q = h_from_values(sys_, cost, vals)
            via_q = values_from_q(q, gains_from_q(q))
            direct = ValuePair(*_classic_sweep(sys_, cost, vals.P1, vals.P2)[2:])
            np.testing.assert_allclose(via_q.P1, direct.P1, atol=1e-10)
            np.testing.assert_allclose(via_q.P2, direct.P2, atol=1e-10)
            vals = direct


def test_extracted_gains_are_stationary(f16, f16_solution):
    # Central differences of the two quadratic forms at the extracted
    # saddle point vanish in v for H1 and in u for H2.
    sys_, cost = f16
    q = h_from_values(sys_, cost, f16_solution.values)
    g = gains_from_q(q)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(3)
        u = (g.K2 @ x).ravel()
        v = (g.K1 @ x).ravel()
        eps = 1e-6
        for H, chan in ((q.H1, "v"), (q.H2, "u")):
            def val(du, dv):
                z = np.concatenate([x, u + du, v + dv])
                return q_value(H, z)

            if chan == "v":
                grad = (val(0.0, eps) - val(0.0, -eps)) / (2 * eps)
            else:
                grad = (val(eps, 0.0) - val(-eps, 0.0)) / (2 * eps)
            assert abs(grad) < 1e-8


def test_gains_from_q_singular_block():
    from stoch_h2hinf import GainExtractionError, QPair

    q = QPair(np.zeros((3, 3)), np.zeros((3, 3)), 1, 1, 1)
    with pytest.raises(GainExtractionError):
        gains_from_q(q)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_cached_triangle_matches_the_direct_formulas():
    # vech, mat_from_vecs and gains_from_q read a cached index table; their
    # results equal the formulas that rebuild it per call, bit for bit and
    # signed zeros included
    from stoch_h2hinf import QPair
    from stoch_h2hinf.qfunction import _triangle

    def vech_formula(Z):
        p = Z.shape[-1]
        W = np.full((p, p), 2.0)
        np.fill_diagonal(W, 1.0)
        rows, cols = np.triu_indices(p)
        return (Z * W)[..., rows, cols]

    def mat_formula(s):
        p = (int(np.sqrt(8 * s.size + 1)) - 1) // 2
        H = np.zeros((p, p))
        H[np.triu_indices(p)] = s
        return H + np.triu(H, 1).T

    def gains_formula(H1, H2, n, m1, m2):
        x, u, v = slice(0, n), slice(n, n + m1), slice(n + m1, None)
        blk = np.block([[H1[v, v], H1[u, v].T], [H2[u, v], H2[u, u]]])
        KK = -np.linalg.solve(blk, np.vstack([H1[x, v].T, H2[x, u].T]))
        return KK[:m2], KK[m2:]

    rng = np.random.default_rng(41)
    for n, m1, m2 in ((3, 1, 1), (2, 2, 2), (4, 1, 2)):
        p = n + m1 + m2
        z = rng.standard_normal((30, p))
        z[0, 1] = -0.0
        stack = z[:, :, None] * z[:, None, :]
        assert _same_bits(vech(stack), vech_formula(stack))
        assert _same_bits(vech(stack[0]), vech_formula(stack[0]))
        H1, H2 = (M + M.T + 8.0 * np.eye(p) for M in rng.standard_normal((2, p, p)))
        H1[0, p - 1] = H1[p - 1, 0] = -0.0
        s = vecs(H1)
        s[0] = -0.0
        assert _same_bits(mat_from_vecs(s), mat_formula(s))
        q = QPair(H1, H2, n, m1, m2)
        K1, K2 = gains_formula(q.H1, q.H2, n, m1, m2)
        g = gains_from_q(q)
        assert _same_bits(g.K1, K1) and _same_bits(g.K2, K2)
        for a in _triangle(p):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]


def _plain_q_maps(sys_, cost, vals):
    """h_from_values, gains_from_q and values_from_q written per member, one
    2-D product at a time: (H1, H2), (K1, K2) and the values of H under them."""
    n, m1, m2 = sys_.dims
    x, u, v = slice(0, n), slice(n, n + m1), slice(n + m1, None)
    L = np.hstack([sys_.A1, sys_.B1, sys_.C1])
    G = np.hstack([sys_.A2, np.zeros((n, m1)), sys_.C2])
    base1, base2 = np.zeros((sys_.p, sys_.p)), np.zeros((sys_.p, sys_.p))
    base1[x, x], base2[x, x] = -cost.Q, cost.Q
    base1[u, u], base2[u, u] = -np.eye(m1), np.eye(m1)
    base1[v, v] = cost.gamma**2 * np.eye(m2)
    H1, H2 = ((B + L.T @ P @ L + G.T @ P @ G) for B, P in ((base1, vals.P1), (base2, vals.P2)))
    H1, H2 = (H1 + H1.T) / 2.0, (H2 + H2.T) / 2.0
    blk = np.block([[H1[v, v], H1[u, v].T], [H2[u, v], H2[u, u]]])
    KK = -np.linalg.solve(blk, np.vstack([H1[x, v].T, H2[x, u].T]))
    K1, K2 = KK[:m2], KK[m2:]
    T = np.vstack([np.eye(n), K2, K1])
    P1, P2 = T.T @ H1 @ T, T.T @ H2 @ T
    return (H1, H2), (K1, K2), ((P1 + P1.T) / 2.0, (P2 + P2.T) / 2.0)


@pytest.mark.parametrize("n,m1,m2", [(1, 1, 1), (3, 1, 1), (2, 2, 2), (4, 1, 2), (5, 2, 1)])
def test_q_maps_match_plain_per_member_reference(n, m1, m2):
    # the learner's maps run on (2, p, p) stacks through the solver's core;
    # each member keeps the bits of its own 2-D expression
    rng = np.random.default_rng(10 * n + m1 + m2)
    for _ in range(50):
        A1, A2 = rng.standard_normal((2, n, n))
        B1, C1, C2 = (rng.standard_normal((n, m)) for m in (m1, m2, m2))
        M = rng.standard_normal((n, n))
        sys_ = SdltiSystem(A1, A2, B1, C1, C2)
        cost = CostSpec(rng.uniform(0.5, 5.0), M @ M.T)
        P1, P2 = (S + S.T for S in rng.standard_normal((2, n, n)))
        vals = ValuePair(P1, P2)
        (H1, H2), (K1, K2), (V1, V2) = _plain_q_maps(sys_, cost, vals)
        q = h_from_values(sys_, cost, vals)
        g = gains_from_q(q)
        got = values_from_q(q, g)
        assert _same_bits(q.H1, H1) and _same_bits(q.H2, H2)
        assert _same_bits(g.K1, K1) and _same_bits(g.K2, K2)
        assert _same_bits(got.P1, V1) and _same_bits(got.P2, V2)
    assert not _gain_index(n, m1, m2).flags.writeable


def test_each_caller_names_a_failed_gain_solve(scalar_sys, scalar_cost):
    # one core solves the gain system; the solver and the learner each keep
    # their own message for a singular block, and the learner its check of
    # an overflowing solve
    from stoch_h2hinf import GainExtractionError, QPair
    from stoch_h2hinf.gare import _gains

    H = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(GainExtractionError, match="^gain block is singular: Singular matrix$"):
        gains_from_q(QPair(H, H, 1, 1, 1))
    with pytest.raises(GainExtractionError,
                       match="^stacked gain system is singular: Singular matrix$"):
        _gains(scalar_sys, scalar_cost, np.array((H, H)))
    H = np.array([[1.0, 0.0, 1e300], [0.0, 1.0, 0.0], [1e300, 0.0, 1e-300]])
    with pytest.raises(GainExtractionError,
                       match="^gain block solve produced non-finite entries$"):
        gains_from_q(QPair(H, H, 1, 1, 1))
