"""Acceptance gate: one test per criterion, one printed line per criterion.

Each test appends a [PASS]/[FAIL] line to RESULTS (echoed by the terminal
summary hook) and then asserts the criterion at its stated tolerance.
Criteria 1 and 4 state targets the bundled 4-decimal reference values and
the benchmark's slow closed-loop mode cannot meet; the measured numbers are
reported instead of being fudged.
"""

import math
import random
import time

import numpy as np
import pytest

from stoch_h2hinf import (
    AlgoConfig,
    AttenuationInfeasibleError,
    CostSpec,
    DivergenceError,
    ExcitationError,
    GainExtractionError,
    NoiseSource,
    ProbingSchedule,
    QPair,
    SdltiSystem,
    SystemOracle,
    ValuePair,
    closed_loop_pair,
    empirical_attenuation,
    f16_initial_gains,
    f16_reference,
    gains_from_q,
    gains_from_values,
    h_from_values,
    least_squares_h,
    mat_from_vecs,
    ms_radius,
    ms_stable,
    run_q_learning,
    run_value_iteration,
    simulate_closed_loop,
    solve_coupled_gare,
    values_from_q,
    vech,
    vecs,
    vi_value_update,
)
from stoch_h2hinf.f16 import X0
from stoch_h2hinf.qfunction import block_slices
from stoch_h2hinf.qlearn import _targets
from test_gare import _classic_sweep

RESULTS = []

_cache = {}


def _record(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    RESULTS.append(line)
    assert ok, line


def _analytic_learning_run(f16):
    if "qlearn" not in _cache:
        sys_, cost = f16
        cfg = AlgoConfig(
            tol=1e-3, max_iters=500, tuples_per_iter=20, branches=1,
            noise_case="case1", expectation_mode="analytic",
        )
        oracle = SystemOracle(sys_, NoiseSource(0), X0)
        _cache["qlearn"] = run_q_learning(oracle, cost, cfg, f16_initial_gains(), X0)
    return _cache["qlearn"]


def _vi_run(f16):
    if "vi" not in _cache:
        sys_, cost = f16
        cfg = AlgoConfig(
            tol=1e-3, max_iters=500, tuples_per_iter=20, branches=1,
            noise_case="case1", expectation_mode="analytic",
        )
        _cache["vi"] = run_value_iteration(sys_, cost, cfg)
    return _cache["vi"]


def test_criterion_1_reference_reproduction(f16):
    """Model-based solve vs the bundled reference, 5e-3 / 1e-3, under 1 s."""
    sys_, cost = f16
    start = time.perf_counter()
    rep = solve_coupled_gare(sys_, cost, tol=1e-9, max_iters=5000)
    wall = time.perf_counter() - start
    ref_vals, ref_gains = f16_reference()
    ep1 = np.abs(rep.values.P1 - ref_vals.P1).max()
    ep2 = np.abs(rep.values.P2 - ref_vals.P2).max()
    ek1 = np.abs(rep.gains.K1 - ref_gains.K1).max()
    ek2 = np.abs(rep.gains.K2 - ref_gains.K2).max()
    ok = ep1 <= 5e-3 and ep2 <= 5e-3 and ek1 <= 1e-3 and ek2 <= 1e-3 and wall < 1.0
    _record(
        1, ok,
        f"elementwise errors vs bundled reference P1 {ep1:.4f}, P2 {ep2:.4f} "
        f"(tol 5e-3), K1 {ek1:.4f}, K2 {ek2:.4f} (tol 1e-3), solve {wall*1e3:.0f} ms; "
        "the reference values do not satisfy the coupled equations "
        "(residuals 1.7e-2), so the exact fixed point cannot match them",
    )


def test_criterion_2_update_route_equivalence(f16, random_population):
    """H-mediated update equals the direct value update, 1e-10, every iteration."""
    worst = 0.0
    for sys_, cost in [f16] + random_population:
        vals = ValuePair.zeros(sys_.n)
        for _ in range(300):
            q = h_from_values(sys_, cost, vals)
            g = gains_from_q(q)
            via_q = values_from_q(q, g)
            # the classic update: gains from the Delta blocks, values through
            # the closed-loop matrices, none of it read from H
            direct = ValuePair(*_classic_sweep(sys_, cost, vals.P1, vals.P2)[2:])
            worst = max(
                worst,
                np.linalg.norm(via_q.P1 - direct.P1),
                np.linalg.norm(via_q.P2 - direct.P2),
            )
            moved = max(
                np.linalg.norm(direct.P1 - vals.P1),
                np.linalg.norm(direct.P2 - vals.P2),
            )
            vals = direct
            if moved < 1e-11:
                break
    _record(
        2, worst <= 1e-10,
        f"21 systems iterated to convergence, worst route deviation {worst:.3e} "
        "(tol 1e-10)",
    )


def test_criterion_3_analytic_learning(f16, f16_solution):
    """Three-part stop, gains within 2e-3 of the fixed point, VI match 1e-6."""
    rep = _analytic_learning_run(f16)
    vi = _vi_run(f16)
    stopped = "stopped" in rep.termination
    ek1 = float(np.linalg.norm(rep.gains.K1 - f16_solution.gains.K1))
    ek2 = float(np.linalg.norm(rep.gains.K2 - f16_solution.gains.K2))
    worst = 0.0
    for li, mi in zip(rep.history, vi.history):
        worst = max(
            worst,
            np.linalg.norm(li.values.P1 - mi.values.P1),
            np.linalg.norm(li.values.P2 - mi.values.P2),
        )
    ok = stopped and ek1 <= 2e-3 and ek2 <= 2e-3 and worst <= 1e-6
    _record(
        3, ok,
        f"stopped at iteration {rep.iterations} ({stopped}), gain errors vs "
        f"model-based fixed point K1 {ek1:.2e}, K2 {ek2:.2e} (tol 2e-3), "
        f"per-iteration value gap vs VI {worst:.2e} (tol 1e-6)",
    )


def test_criterion_4_monte_carlo_learning(f16, f16_solution):
    """MC runs, 5 seeds: terminal gain error <= 0.05 and 1% decay in 100 steps."""
    sys_, cost = f16
    gain_errs = []
    aborted = []
    decays = []

    def decay_curve(gains):
        acc = np.zeros(101)
        for r in range(50):
            try:
                traj = simulate_closed_loop(
                    sys_, cost, gains, X0, 100, NoiseSource(1000 + r)
                )
                acc += np.einsum("ij,ij->i", traj.states, traj.states)
            except DivergenceError:
                return math.inf
        acc /= 50
        return float((acc / acc[0]).min())

    for seed in range(5):
        cfg = AlgoConfig(
            tol=1e-3, max_iters=60, tuples_per_iter=20, branches=100,
            noise_case="case1", expectation_mode="mc",
        )
        oracle = SystemOracle(sys_, NoiseSource(seed), X0)
        try:
            rep = run_q_learning(oracle, cost, cfg, f16_initial_gains(), X0)
        except (DivergenceError, ExcitationError, GainExtractionError,
                AttenuationInfeasibleError) as exc:
            aborted.append(f"seed {seed}: {type(exc).__name__}")
            continue
        gain_errs.append(max(
            np.linalg.norm(rep.gains.K1 - f16_solution.gains.K1),
            np.linalg.norm(rep.gains.K2 - f16_solution.gains.K2),
        ))
        decays.append(decay_curve(rep.gains))
    optimal_decay = decay_curve(f16_solution.gains)
    ok = (
        not aborted
        and len(gain_errs) == 5
        and max(gain_errs) <= 0.05
        and max(decays) < 0.01
    )
    worst_err = max(gain_errs) if gain_errs else math.nan
    _record(
        4, ok,
        f"N_u=100, N=20, 60 iterations: {len(aborted)}/5 seeds aborted "
        f"({'; '.join(aborted) or 'none'}), worst terminal gain error "
        f"{worst_err:.2f} (tol 0.05), no stop fired; mean-square decay at "
        f"100 steps spans {min(decays):.2e}..{max(decays):.2f} and is "
        f"{optimal_decay:.4f} even under the exact optimal gains (target 0.01): "
        "the estimator noise floor and the 0.967 closed-loop spectral radius "
        "put both clauses out of reach",
    )


def test_criterion_5_monotonicity_suite(f16, random_population):
    """P1 nonincreasing, P2 nondecreasing, P1+P2 PSD along every VI run."""
    worst = math.inf
    for sys_, cost in [f16] + random_population:
        vals = ValuePair.zeros(sys_.n)
        for _ in range(500):
            nxt = vi_value_update(sys_, cost, vals, gains_from_values(sys_, cost, vals))
            worst = min(
                worst,
                np.linalg.eigvalsh(vals.P1 - nxt.P1).min(),
                np.linalg.eigvalsh(nxt.P2 - vals.P2).min(),
                np.linalg.eigvalsh(nxt.P1 + nxt.P2).min(),
            )
            moved = max(
                np.linalg.norm(nxt.P1 - vals.P1),
                np.linalg.norm(nxt.P2 - vals.P2),
            )
            vals = nxt
            if moved < 1e-11:
                break
    _record(
        5, worst >= -1e-9,
        f"21 systems, worst monotonicity/positivity margin {worst:.2e} "
        "(floor -1e-9)",
    )


def test_criterion_6_unbiased_regression(f16):
    """Analytic-mode estimates equal h_from_values of the continuation pair."""
    sys_, cost = f16
    worst = 0.0
    for case in ("case1", "case2", "case3"):
        schedule = ProbingSchedule(case)
        oracle = SystemOracle(sys_, NoiseSource(6), X0)
        q = QPair.zeros(3)
        gains = f16_initial_gains()
        k = 0
        for _ in range(60):
            cont = values_from_q(q, gains)
            expected = h_from_values(sys_, cost, cont)
            Z, succ = oracle.rollout(gains, schedule.window(k, 20), 1, "analytic")
            k += 20
            Y = _targets(Z, succ, cost, cont, block_slices(3, 1, 1))
            rows = [vech(np.outer(z, z)) for z in Z]
            q, _ = least_squares_h(np.array(rows), Y, (3, 1, 1))
            worst = max(
                worst,
                np.abs(q.H1 - expected.H1).max(),
                np.abs(q.H2 - expected.H2).max(),
            )
            gains = gains_from_q(q)
    _record(
        6, worst <= 1e-8,
        f"cases 1-3, 60 iterations each, worst estimate deviation {worst:.2e} "
        "(tol 1e-8)",
    )


def test_criterion_7_vectorization_identities():
    """Trace identity at 1e-12 on 1000 pairs, p <= 6; exact round trip."""
    rng = np.random.default_rng(70)
    worst = 0.0
    exact_roundtrips = 0
    for _ in range(1000):
        p = rng.integers(2, 7)
        M = rng.standard_normal((p, p))
        H = M + M.T
        N = rng.standard_normal((p, p))
        Z = N + N.T
        tr = float(np.trace(Z @ H))
        worst = max(worst, abs(vech(Z) @ vecs(H) - tr) / max(1.0, abs(tr)))
        if np.array_equal(mat_from_vecs(vecs(H)), H):
            exact_roundtrips += 1
    ok = worst <= 1e-12 and exact_roundtrips == 1000
    _record(
        7, ok,
        f"1000 pairs, worst relative trace defect {worst:.2e} (tol 1e-12), "
        f"{exact_roundtrips}/1000 exact round trips",
    )


def test_criterion_8_stability_certification(f16, f16_solution, random_population):
    """Every converged run's terminal gains are mean-square stabilizing."""
    sys_, _ = f16
    closed = [(sys_, f16_solution.gains)]
    rep = _analytic_learning_run(f16)
    assert "stopped" in rep.termination
    closed.append((sys_, rep.gains))
    vi = _vi_run(f16)
    closed.append((sys_, vi.gains))
    for rsys, rcost in random_population:
        solved = solve_coupled_gare(rsys, rcost, tol=1e-9, max_iters=5000)
        closed.append((rsys, solved.gains))
    radii = [ms_radius(*closed_loop_pair(s, g)) for s, g in closed]
    ok = all(ms_stable(*closed_loop_pair(s, g)) for s, g in closed)
    _record(
        8, ok,
        f"{len(closed)} converged runs (solver, analytic learner, VI, 20 random "
        f"solves), Kronecker radii {min(radii):.3f}..{max(radii):.4f}, all < 1",
    )


def test_criterion_9_empirical_attenuation(f16, f16_solution):
    """Energy ratio below gamma^2 = 1 for 50 square-summable disturbances."""
    sys_, cost = f16
    rng = np.random.default_rng(90)
    horizon = 150
    ratios = []
    for d in range(50):
        v = rng.standard_normal((horizon, 1))
        v *= np.exp(-0.03 * np.arange(horizon))[:, None]
        ratios.append(
            empirical_attenuation(
                sys_, cost, f16_solution.gains.K2, v, horizon, 20, d
            )
        )
    worst = max(ratios)
    _record(
        9, worst < 1.0,
        f"50 disturbances, energy ratios {min(ratios):.4f}..{worst:.4f}, "
        "all below gamma^2 = 1",
    )


def test_criterion_10_scalar_desk_oracle():
    """Independent plain-float scalar iteration agrees with the solver, 1e-9."""

    def desk_solve(a1, a2, b1, c1, c2, gamma, q):
        # plain floats only: explicit 2x2 elimination and fixed point
        p1 = p2 = 0.0
        for _ in range(20000):
            d1 = gamma * gamma + (c1 * c1 + c2 * c2) * p1
            d2 = 1.0 + b1 * b1 * p2
            if d1 <= 0.0 or d2 <= 0.0:
                return None
            off1 = c1 * p1 * b1
            off2 = b1 * p2 * c1
            rhs1 = -(c1 * p1 * a1 + c2 * p1 * a2)
            rhs2 = -(b1 * p2 * a1)
            det = d1 * d2 - off1 * off2
            if det == 0.0:
                return None
            k1 = (rhs1 * d2 - off1 * rhs2) / det
            k2 = (d1 * rhs2 - off2 * rhs1) / det
            abar = a1 + b1 * k2 + c1 * k1
            sbar = a2 + c2 * k1
            rho = abar * abar + sbar * sbar
            p1n = p1 * rho - q - k2 * k2 + gamma * gamma * k1 * k1
            p2n = p2 * rho + q + k2 * k2
            if not (math.isfinite(p1n) and math.isfinite(p2n)):
                return None
            if abs(p1n - p1) < 1e-14 and abs(p2n - p2) < 1e-14:
                return p1n, p2n
            p1, p2 = p1n, p2n
        return None

    draws = random.Random(42)
    worst = 0.0
    solved = 0
    attempts = 0
    while solved < 10 and attempts < 100:
        attempts += 1
        a1 = draws.uniform(-0.85, 0.85)
        a2 = draws.uniform(-0.25, 0.25)
        b1 = draws.uniform(-0.5, 0.5)
        c1 = draws.uniform(-0.35, 0.35)
        c2 = draws.uniform(-0.35, 0.35)
        gamma = draws.uniform(3.0, 6.0)
        q = draws.uniform(0.5, 2.0)
        desk = desk_solve(a1, a2, b1, c1, c2, gamma, q)
        if desk is None:
            continue
        rep = solve_coupled_gare(
            SdltiSystem([[a1]], [[a2]], [[b1]], [[c1]], [[c2]]),
            CostSpec(gamma, [[q]]),
            tol=1e-13, max_iters=30000,
        )
        worst = max(
            worst,
            abs(rep.values.P1[0, 0] - desk[0]),
            abs(rep.values.P2[0, 0] - desk[1]),
        )
        solved += 1
    ok = solved == 10 and worst <= 1e-9
    _record(
        10, ok,
        f"{solved}/10 randomized scalar instances, worst value disagreement "
        f"{worst:.2e} (tol 1e-9)",
    )
