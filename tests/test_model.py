"""Domain-type construction, validation, and immutability."""

import numpy as np
import pytest

from stoch_h2hinf import (
    AlgoConfig,
    CostSpec,
    GainPair,
    QPair,
    SdltiSystem,
    ValuePair,
    validate_system,
)


def test_system_dims_derived(f16):
    sys_, _ = f16
    assert sys_.dims == (3, 1, 1)
    assert sys_.p == 5


def test_system_rejects_inconsistent_shapes():
    eye = np.eye(3)
    with pytest.raises(ValueError, match="A2"):
        SdltiSystem(eye, np.eye(2), np.ones((3, 1)), np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(ValueError, match="B1"):
        SdltiSystem(eye, eye, np.ones((4, 1)), np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(ValueError, match="C2"):
        SdltiSystem(eye, eye, np.ones((3, 1)), np.ones((3, 1)), np.ones((3, 2)))
    with pytest.raises(ValueError, match="square"):
        SdltiSystem(np.ones((3, 2)), eye, np.ones((3, 1)), np.ones((3, 1)), np.ones((3, 1)))


def test_system_rejects_nonfinite():
    bad = np.eye(3)
    bad = bad.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        SdltiSystem(bad, np.eye(3), np.ones((3, 1)), np.ones((3, 1)), np.ones((3, 1)))


def test_system_arrays_read_only(f16):
    sys_, _ = f16
    with pytest.raises(ValueError):
        sys_.A1[0, 0] = 5.0


def test_cost_validation():
    with pytest.raises(ValueError, match="gamma"):
        CostSpec(0.0, np.eye(2))
    with pytest.raises(ValueError, match="gamma"):
        CostSpec(-1.0, np.eye(2))
    with pytest.raises(ValueError, match="asymmetry"):
        CostSpec(1.0, [[1.0, 0.5], [0.0, 1.0]])


def test_cost_observability_flags():
    assert CostSpec(1.0, np.eye(2)).q_psd
    assert CostSpec(1.0, np.diag([1.0, 0.0])).q_psd
    indef = CostSpec(1.0, np.diag([1.0, -0.5]))
    assert not indef.q_psd


def test_validate_system_f16(f16):
    assert validate_system(*f16) == ()


def test_validate_system_violations(f16):
    sys_, _ = f16
    violations = validate_system(sys_, CostSpec(1.0, np.diag([1.0, 1.0, -1.0])))
    assert violations == ("Q not PSD",)
    violations = validate_system(sys_, CostSpec(1.0, np.eye(2)))
    assert any("dimension mismatch" in v for v in violations)


def test_value_pair_symmetry():
    with pytest.raises(ValueError, match="asymmetry"):
        ValuePair([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)))
    vp = ValuePair.zeros(3)
    assert vp.P1.shape == vp.P2.shape == (3, 3) and not vp.P1.any()


def test_gain_pair_dims():
    with pytest.raises(ValueError, match="state dimension"):
        GainPair(np.zeros((1, 3)), np.zeros((1, 2)))
    gp = GainPair.zeros(3)
    assert gp.K1.shape == (1, 3) and gp.K2.shape == (1, 3)


def test_qpair_partition():
    with pytest.raises(ValueError, match="partition"):
        QPair(np.eye(4), np.eye(4), 3, 1, 1)
    q = QPair.zeros(3)
    assert q.p == 5 and q.dims == (3, 1, 1)


def test_algo_config_validation():
    for tol in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            AlgoConfig(tol=tol)
    with pytest.raises(ValueError):
        AlgoConfig(max_iters=0)
    for case in ("case9", "custom"):
        with pytest.raises(ValueError):
            AlgoConfig(noise_case=case)
    with pytest.raises(ValueError):
        AlgoConfig(expectation_mode="exact")
    cfg = AlgoConfig(tuples_per_iter=14)
    with pytest.raises(ValueError, match="unknowns"):
        cfg.validate_for(5)
    AlgoConfig(tuples_per_iter=15).validate_for(5)


def _sym_stack(rng, p):
    M = rng.standard_normal((2, p, p))
    return M + M.swapaxes(1, 2)


@pytest.mark.parametrize("big", [False, True])
def test_trusted_wrap_equals_validated_construction(big):
    # the learner's wrap and the public constructor give the same arrays,
    # read-only flags and dims; an entry beyond half the largest double
    # (whose doubling overflows in symmetrize) takes the validated path
    from stoch_h2hinf.model import _trusted

    rng = np.random.default_rng(8)
    for n, m1, m2 in ((3, 1, 1), (2, 3, 2)):
        p = n + m1 + m2
        HH, PP = _sym_stack(rng, p), _sym_stack(rng, n)
        HH[0, 1, 2] = HH[0, 2, 1] = -0.0
        if big:
            HH[1, 0, 0] = PP[0, n - 1, n - 1] = 1e308
        KK = rng.standard_normal((m1 + m2, n))
        with np.errstate(over="ignore"):
            pairs = [
                (_trusted(QPair, HH.copy(), n, m1, m2), QPair(*HH, n, m1, m2), ("H1", "H2")),
                (_trusted(ValuePair, PP.copy()), ValuePair(*PP), ("P1", "P2")),
                (_trusted(GainPair, (KK[:m2].copy(), KK[m2:].copy())),
                 GainPair(KK[:m2], KK[m2:]), ("K1", "K2")),
            ]
        for fast, checked, names in pairs:
            assert type(fast) is type(checked)
            for name in names:
                a, b = getattr(fast, name), getattr(checked, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not a.flags.writeable and not b.flags.writeable
            if isinstance(fast, QPair):
                assert fast.dims == checked.dims and fast.p == checked.p
        if big:
            assert np.isinf(pairs[0][0].H2[0, 0]) and np.isinf(pairs[1][0].P1[n - 1, n - 1])


def test_fro_norms_have_linalg_norm_bits():
    # one matmul dot per item and sqrt equal np.linalg.norm's ravel, dot and
    # sqrt, through inf, NaN, signed zeros, subnormals and near-overflow
    from stoch_h2hinf.model import _fro_norms

    rng = np.random.default_rng(12)
    for shape in ((7, 5, 5), (6, 1, 3), (6, 1, 1), (64, 3, 3), (6, 2, 4)):
        M = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        flat = M.reshape(len(M), -1)
        flat[0, 0] = np.inf
        flat[1, -1] = np.nan
        flat[2] = -0.0
        flat[3] = rng.choice([5e-324, -2.2e-308, 1e-160, -0.0], flat.shape[1])
        flat[4] = rng.choice([1e154, -3e153, 1.0], flat.shape[1])
        if flat.shape[1] > 1:
            flat[1, 0] = -np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            got = _fro_norms(M)
            want = np.array([np.linalg.norm(m) for m in M])
        assert got.shape == (len(M),)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got[2:]).sum() >= len(M) - 3
