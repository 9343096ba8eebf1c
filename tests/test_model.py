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
    assert CostSpec(1.0, np.eye(2)).observability_certified
    semi = CostSpec(1.0, np.diag([1.0, 0.0]))
    assert semi.q_psd and not semi.observability_certified
    indef = CostSpec(1.0, np.diag([1.0, -0.5]))
    assert not indef.q_psd


def test_validate_system_f16(f16):
    report = validate_system(*f16)
    assert report.ok
    assert report.observability_certified


def test_validate_system_violations(f16):
    sys_, _ = f16
    report = validate_system(sys_, CostSpec(1.0, np.diag([1.0, 1.0, -1.0])))
    assert "Q not PSD" in report.violations
    assert not report.observability_certified
    report = validate_system(sys_, CostSpec(1.0, np.eye(2)))
    assert any("dimension mismatch" in v for v in report.violations)


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
    with pytest.raises(ValueError):
        AlgoConfig(tol=0.0)
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
