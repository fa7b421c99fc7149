"""Acceptance suite.

Each test below implements one acceptance criterion at its stated tolerance
and prints a single pass/fail line (visible even under pytest capture).
"""
import math
import time

import numpy as np
import pytest

from tipcrit import (
    boundary_arrival,
    classify,
    cost,
    critical_rate,
    first_passage_time,
    make_bang_bang,
    make_piecewise_linear_ramp,
    make_tanh_ramp,
    optimal_bang_bang,
    prototype_critical_rate_smooth,
    sample_cost_curve,
    threshold_bracket,
    verify_lower_bound,
)
from tipcrit.harness import ramp_family, run_sweep, run_verification
from conftest import integrate_profile, pulse_profile

PROTOTYPE_AMPLITUDES = (2.5, 3.0, 4.0, 6.0, 10.0)


@pytest.fixture
def announce(capsys):
    def _announce(name: str, passed: bool, elapsed: float, detail: str = ""):
        with capsys.disabled():
            status = "PASS" if passed else "FAIL"
            suffix = f"  [{detail}]" if detail else ""
            print(f"[{status}] {name} ({elapsed:.1f}s){suffix}")
    return _announce


def implicit_slope_oracle(lambda_inf: float) -> float:
    """Independent bisection of 2m/sqrt(m-1)*atan(1/sqrt(m-1)) = lambda_inf."""
    def fuel(m):
        s = math.sqrt(m - 1.0)
        return 2.0 * m / s * math.atan(1.0 / s)
    lo, hi = 1.0 + 1e-13, 2.0
    while fuel(hi) >= lambda_inf:
        hi *= 2.0
    while fuel(lo) <= lambda_inf:
        lo = 1.0 + (lo - 1.0) / 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if fuel(mid) > lambda_inf:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_smooth_prototype_threshold(quad_field, quad_geometry,
                                                announce):
    """Sigmoid-family tipping threshold matches the closed form to 0.1%."""
    started = time.perf_counter()
    failures = []
    for lam in PROTOTYPE_AMPLITUDES:
        r_c = prototype_critical_rate_smooth(lam)
        bracket = threshold_bracket(quad_field, quad_geometry,
                                    lambda r, _lam=lam: make_tanh_ramp(_lam, r),
                                    (0.4 * r_c, 2.5 * r_c))
        if abs(bracket.param_critical - r_c) > 1e-3 * r_c:
            failures.append((lam, bracket.param_critical, r_c))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    announce("criterion 1: sigmoid prototype threshold (0.1%)", ok, elapsed)
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_2_linear_prototype_slope(quad_field, quad_geometry,
                                            announce):
    """General critical rate matches the implicit-equation solve to 1e-6."""
    started = time.perf_counter()
    failures = []
    for lam in np.geomspace(2.1, 50.0, 20):
        lam = float(lam)
        general = critical_rate(quad_geometry, quad_field, lam).m_c
        oracle = implicit_slope_oracle(lam)
        if abs(general - oracle) > 1e-6:
            failures.append((lam, general, oracle))
    exact = critical_rate(quad_geometry, quad_field, math.pi).m_c
    spot_ok = abs(exact - 2.0) <= 1e-8
    elapsed = time.perf_counter() - started
    ok = not failures and spot_ok and elapsed < 5.0
    announce("criterion 2: linear prototype slope (1e-6; spot 1e-8)", ok,
             elapsed)
    assert not failures, failures
    assert spot_ok, exact
    assert elapsed < 5.0


def test_criterion_3_cost_curve_shape(quad_field, quad_geometry, cubic_field,
                                      cubic_geometry, announce):
    """Cost strictly decreasing on a 200-point grid; both limits honored."""
    started = time.perf_counter()
    problems = []
    for name, field, geometry in (("quadratic", quad_field, quad_geometry),
                                  ("cubic", cubic_field, cubic_geometry)):
        grid = np.geomspace(geometry.mu * (1 + 1e-3), 1e3, 200)
        js = [row[3] for row in sample_cost_curve(geometry, field,
                                                  grid).samples]
        if not all(b < a for a, b in zip(js, js[1:])):
            problems.append(f"{name}: not strictly decreasing")
        j_near = cost(geometry, field, geometry.mu * (1 + 1e-6))[2]
        if not j_near > 1e3:
            problems.append(f"{name}: J near depth = {j_near}")
    j_far = cost(quad_geometry, quad_field, 1e6)[2]
    if abs(j_far - 2.0) > 1e-3:
        problems.append(f"quadratic: J(1e6) = {j_far}")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 10.0
    announce("criterion 3: cost curve monotone + limits", ok, elapsed)
    assert not problems, problems
    assert elapsed < 10.0


def test_criterion_4_necessity_monte_carlo(announce):
    """Random forcings capped at 0.95 * m_c never tip (200 per cell)."""
    started = time.perf_counter()
    violations = []
    cells = []
    for field_text, attractor, radius in (("x^2-1", -1.0, 2.0),
                                          ("x*(x-1)*(x+2)", 0.0, 1.0)):
        for L in np.geomspace(1.1 * radius, 5.0 * radius, 5):
            cells.append((field_text, attractor, float(L)))
    for field_text, attractor, L in cells:
        report = run_verification(field_text, attractor, L, n_samples=200,
                                  seed=42, margin=0.95)
        if report.n_tips or report.violating_seeds:
            violations.append((field_text, L, report.violating_seeds))
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 300.0
    announce("criterion 4: necessity Monte-Carlo (2000 forcings)", ok,
             elapsed, f"{len(cells)} cells")
    assert not violations, violations
    assert elapsed < 300.0


def test_criterion_5_tightness(quad_field, quad_geometry, cubic_field,
                               cubic_geometry, announce):
    """Ramps at 1.001/0.999 * m_c tip/track; brackets localize m_c to 1e-3."""
    started = time.perf_counter()
    problems = []
    for name, field, geometry in (("quadratic", quad_field, quad_geometry),
                                  ("cubic", cubic_field, cubic_geometry)):
        for factor in (1.5, 2.5, 5.0):
            L = factor * geometry.radius
            rate = critical_rate(geometry, field, L)
            family = ramp_family(rate.side, L)
            upper = classify(field, geometry, family(1.001 * rate.m_c))
            lower = classify(field, geometry, family(0.999 * rate.m_c))
            if upper.variant != "tips":
                problems.append(f"{name} L={L}: 1.001*m_c gave {upper.variant}")
            if lower.variant != "tracks":
                problems.append(f"{name} L={L}: 0.999*m_c gave {lower.variant}")
            bracket = threshold_bracket(field, geometry, family,
                                        (0.9 * rate.m_c, 1.1 * rate.m_c))
            if abs(bracket.param_critical - rate.m_c) > 1e-3 * max(1.0,
                                                                   rate.m_c):
                problems.append(
                    f"{name} L={L}: bracket {bracket.param_critical} "
                    f"vs m_c {rate.m_c}")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 60.0
    announce("criterion 5: tightness of the critical slope", ok, elapsed)
    assert not problems, problems
    assert elapsed < 60.0


def test_criterion_6_fuel_bound_cases(quad_field, quad_geometry, announce):
    """Optimal pulse meets its bound with equality; a split pulse exceeds it."""
    started = time.perf_counter()
    pulse, _ = optimal_bang_bang(quad_geometry, quad_field, math.pi)
    u_opt = make_bang_bang(pulse.height, 0.0, pulse.width, pulse.sign)
    report_opt = verify_lower_bound(quad_geometry, quad_field, u_opt)
    equality_ok = (report_opt.satisfied
                   and abs(report_opt.integral - report_opt.bound) <= 1e-8)

    w1, gap = 0.4, 3.0
    lo, hi = 0.1, math.pi / 2.0

    def split_control(w2):
        return pulse_profile((0.0, w1, 2.0), (w1 + gap, w1 + gap + w2, 2.0))

    for _ in range(45):
        mid = 0.5 * (lo + hi)
        if boundary_arrival(quad_field, quad_geometry, split_control(mid)):
            hi = mid
        else:
            lo = mid
    report_split = verify_lower_bound(quad_geometry, quad_field,
                                      split_control(hi))
    excess_ok = (report_split.satisfied
                 and report_split.integral - report_split.bound >= 1e-3)
    elapsed = time.perf_counter() - started
    ok = equality_ok and excess_ok and elapsed < 10.0
    announce("criterion 6: fuel bound equality / strict excess", ok, elapsed)
    assert equality_ok, report_opt
    assert excess_ok, report_split
    assert elapsed < 10.0


def test_criterion_7_quadrature_vs_ode(quad_field, quad_geometry, cubic_field,
                                       cubic_geometry, announce):
    """Quadrature passage times agree with ODE event times to 1e-6."""
    started = time.perf_counter()
    rng = np.random.default_rng(1618033)
    cases = [(quad_field, quad_geometry), (cubic_field, cubic_geometry)]
    failures = []
    for k in range(20):
        field, geometry = cases[k % 2]
        side = 1 if not geometry.has_side(-1) else int(rng.choice((-1, 1)))
        drive = geometry.side_mu(side) * (1.0 + 10.0 ** rng.uniform(-2.0, 2.0))
        T_quad = first_passage_time(field, side * drive, geometry.attractor,
                                    geometry.endpoint(side))
        u = make_bang_bang(drive, 0.0, 2.0 * T_quad, side)
        edge = geometry.endpoint(side)
        box = (-math.inf, edge) if side > 0 else (edge, math.inf)
        traj = integrate_profile(field, u, geometry.attractor, 0.0,
                                 2.0 * T_quad, box=box)
        if traj.reason != "event":
            failures.append((k, traj.reason))
        elif abs(traj.final_time - T_quad) > 1e-6 * T_quad:
            failures.append((k, traj.final_time, T_quad))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    announce("criterion 7: quadrature vs ODE passage times (1e-6)", ok,
             elapsed)
    assert not failures, failures
    assert elapsed < 10.0


def test_criterion_8_rate_limits_in_budget(announce):
    """m_c(L) decreasing; near mu at L = 50R and above 5*mu at L = 1.05R."""
    started = time.perf_counter()
    problems = []
    for field_text, attractor, radius, mu in (
            ("x^2-1", -1.0, 2.0, 1.0),
            ("x*(x-1)*(x+2)", 0.0, 1.0, (14 * math.sqrt(7) - 20) / 27)):
        rows = run_sweep(field_text, attractor, 1.05 * radius, 50.0 * radius,
                         12)
        rates = [r.m_c for r in rows]
        if not all(b < a for a, b in zip(rates, rates[1:])):
            problems.append(f"{field_text}: m_c not strictly decreasing")
        if not rates[0] > 5.0 * mu:
            problems.append(f"{field_text}: m_c({rows[0].arclength}) = "
                            f"{rates[0]} not above 5*mu")
        if not abs(rates[-1] - mu) <= 0.1 * mu:
            problems.append(f"{field_text}: m_c({rows[-1].arclength}) = "
                            f"{rates[-1]} not within 10% of mu = {mu}")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 30.0
    announce("criterion 8: critical-rate limits over the budget range", ok,
             elapsed)
    assert not problems, problems
    assert elapsed < 30.0
