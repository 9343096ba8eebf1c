"""Shared fixtures: benchmark system, scalar toy, random feasible population."""

import numpy as np
import pytest

from stoch_h2hinf import (
    AttenuationInfeasibleError,
    CostSpec,
    SdltiSystem,
    f16_system,
    ms_radius,
    random_feasible_system,
    solve_coupled_gare,
)


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in RESULTS:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def f16():
    return f16_system()


@pytest.fixture(scope="session")
def f16_solution(f16):
    sys_, cost = f16
    return solve_coupled_gare(sys_, cost, tol=1e-12, max_iters=10000)


@pytest.fixture(scope="session")
def scalar_sys():
    """Hand-checkable scalar plant: a1=0.8, a2=0.1, b1=0.5, c1=0.2, c2=0.05."""
    return SdltiSystem([[0.8]], [[0.1]], [[0.5]], [[0.2]], [[0.05]])


@pytest.fixture(scope="session")
def scalar_cost():
    """gamma=2, Q=1."""
    return CostSpec(2.0, [[1.0]])


@pytest.fixture(scope="session")
def random_population():
    """20 random feasible systems, n <= 3, fixed generator seed."""
    rng = np.random.default_rng(20240817)
    out = []
    for i in range(20):
        n = 2 + (i % 2)
        out.append(random_feasible_system(rng, n=n))
    return out


@pytest.fixture(scope="session")
def unstable_population():
    """12 open-loop mean-square-unstable plants whose game is solvable.

    3 states, one input, one disturbance: A1 Gaussian scaled to a spectral
    radius drawn from U(1.02, 1.25), A2 = 0.15 x Gaussian, B1 Gaussian,
    C1 and C2 = 0.1 x Gaussian, gamma = 5, Q = I, all from default_rng(11).
    A draw is kept when its open-loop ms radius exceeds 1 and value
    iteration at 1e-10 ends mean-square stable: 12 of the first 14 draws
    (the other two are gamma-infeasible), with open-loop radii 1.12-1.41.
    Test data, fixed: two of the plants make the analytic learner abort.
    """
    rng = np.random.default_rng(11)
    kept = []
    while len(kept) < 12:
        A1 = rng.standard_normal((3, 3))
        A1 *= rng.uniform(1.02, 1.25) / np.abs(np.linalg.eigvals(A1)).max()
        A2 = 0.15 * rng.standard_normal((3, 3))
        B1 = rng.standard_normal((3, 1))
        C1 = 0.1 * rng.standard_normal((3, 1))
        C2 = 0.1 * rng.standard_normal((3, 1))
        sys_, cost = SdltiSystem(A1, A2, B1, C1, C2), CostSpec(5.0, np.eye(3))
        if ms_radius(A1, A2) <= 1.0:
            continue
        try:
            if solve_coupled_gare(sys_, cost, tol=1e-10, max_iters=5000).stable:
                kept.append((sys_, cost))
        except AttenuationInfeasibleError:
            continue
    return kept
