"""Escape times, the cost curve, critical rates, and the fuel lower bound."""
import dataclasses
import math
import re
import time
import warnings
from decimal import Decimal

import numpy as np
import pytest

from tipcrit import (
    InfeasibleBudgetError,
    InfeasibleSideError,
    boundary_arrival,
    cost,
    critical_rate,
    escape_time,
    make_bang_bang,
    optimal_bang_bang,
    prototype_critical_rate_smooth,
    prototype_critical_slope,
    sample_cost_curve,
    verify_lower_bound,
)
from tipcrit import QuadratureFault, ScalarField, analyze_basin
import tipcrit.control as control_module
import tipcrit.integrate as integrate_module
from tipcrit.harness import run_sweep
from tipcrit.control import _bracketed_root, _quadratic_cost
from tipcrit.integrate import (_gauss_kronrod, _gk15_panel, _passage_batch,
                               _slope, first_passage_time)
from conftest import pulse_profile

MC_LAMBDA_3 = 2.1620322634033124  # root of 2m/sqrt(m-1)*atan(1/sqrt(m-1)) = 3
CUBIC_ESCAPE_DRIVE_1 = 1.8911073354918675  # integral of 1/(f+1) on [0, 1]


def implicit_slope_oracle(lambda_inf: float) -> float:
    """Independent bisection of the quadratic-prototype cost equation."""
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


def cubic_rate_oracle(arclength: float) -> float:
    """scipy-based root of M * integral(1/(f+M), 0..1) = arclength."""
    import warnings

    from scipy.integrate import IntegrationWarning, quad as scipy_quad
    from scipy.optimize import brentq

    def fuel(m):
        with warnings.catch_warnings():
            # brentq probes near-singular m values on its way to the root
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = scipy_quad(lambda y: m / (y * (y - 1) * (y + 2) + m),
                                0.0, 1.0, epsabs=1e-13, epsrel=1e-13,
                                limit=500)
        return val

    mu_plus = (14.0 * math.sqrt(7.0) - 20.0) / 27.0
    return brentq(lambda m: fuel(m) - arclength, mu_plus * (1 + 1e-9), 1e7,
                  xtol=1e-12, rtol=8.9e-16)


# --------------------------------------------------------------------------
# escape times
# --------------------------------------------------------------------------

def test_escape_time_quadratic(quad_field, quad_geometry):
    T = escape_time(quad_geometry, quad_field, 1, 2.0)
    assert T == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_escape_time_infeasible_unbounded_side(quad_field, quad_geometry):
    with pytest.raises(InfeasibleSideError):
        escape_time(quad_geometry, quad_field, -1, 5.0)


def test_escape_time_below_depth_is_infeasible(quad_field, quad_geometry):
    with pytest.raises(InfeasibleSideError):
        escape_time(quad_geometry, quad_field, 1, 0.9)


def test_escape_time_cubic_pinned_by_oracle(cubic_field, cubic_geometry):
    T = escape_time(cubic_geometry, cubic_field, 1, 1.0)
    assert T == pytest.approx(CUBIC_ESCAPE_DRIVE_1, rel=1e-9)


# --------------------------------------------------------------------------
# cost
# --------------------------------------------------------------------------

def test_cost_quadratic_at_two(quad_field, quad_geometry):
    j_plus, j_minus, j = cost(quad_geometry, quad_field, 2.0)
    assert j_plus == pytest.approx(math.pi, abs=1e-9)
    assert j_minus == math.inf
    assert j == j_plus


def test_cost_limit_large_drive(quad_field, quad_geometry):
    j = cost(quad_geometry, quad_field, 1e6)[2]
    assert abs(j - 2.0) <= 1e-3


def test_cost_diverges_near_depth(quad_field, quad_geometry):
    assert cost(quad_geometry, quad_field, 1.0001)[2] > 100.0


def test_cost_below_depth_raises(quad_field, quad_geometry):
    with pytest.raises(InfeasibleSideError):
        cost(quad_geometry, quad_field, 0.5)


def test_cost_curve_csv_marks_infeasible_sides(tmp_path, quad_field,
                                               quad_geometry):
    curve = sample_cost_curve(quad_geometry, quad_field, [0.5, 2.0])
    path = tmp_path / "curve.csv"
    curve.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "M,J_plus,J_minus,J"
    assert lines[1].split(",")[1:] == ["inf", "inf", "inf"]
    assert lines[2].split(",")[2] == "inf"


def test_cost_strictly_decreasing_small_grid(quad_field, quad_geometry,
                                             cubic_field, cubic_geometry):
    for field, geometry in ((quad_field, quad_geometry),
                            (cubic_field, cubic_geometry)):
        grid = np.geomspace(geometry.mu * (1 + 1e-3), 1e3, 40)
        js = [row[3] for row in sample_cost_curve(geometry, field,
                                                  grid).samples]
        assert all(b < a for a, b in zip(js, js[1:]))


def test_cost_limits_per_side_cubic(cubic_field, cubic_geometry):
    j_plus, j_minus, _ = cost(cubic_geometry, cubic_field, 1e6)
    assert abs(j_plus - 1.0) <= 1e-3
    assert abs(j_minus - 2.0) <= 1e-3


# --------------------------------------------------------------------------
# critical rate
# --------------------------------------------------------------------------

def test_critical_rate_exact_at_pi(quad_field, quad_geometry):
    rate = critical_rate(quad_geometry, quad_field, math.pi)
    assert rate.m_c == pytest.approx(2.0, abs=1e-8)
    assert rate.side == 1


def test_critical_rate_lambda_three(quad_field, quad_geometry):
    rate = critical_rate(quad_geometry, quad_field, 3.0)
    assert rate.m_c == pytest.approx(MC_LAMBDA_3, abs=1e-6)
    assert rate.m_c == pytest.approx(implicit_slope_oracle(3.0), abs=1e-6)


def test_budget_below_radius_is_infeasible(quad_field, quad_geometry):
    with pytest.raises(InfeasibleBudgetError):
        critical_rate(quad_geometry, quad_field, 1.5)
    with pytest.raises(InfeasibleBudgetError):
        critical_rate(quad_geometry, quad_field, 2.0)  # budget == radius


@pytest.mark.parametrize("budget", [math.nan, math.inf])
def test_critical_rate_rejects_non_finite_budget(quad_field, quad_geometry,
                                                 budget):
    with pytest.raises(ValueError, match="finite"):
        critical_rate(quad_geometry, quad_field, budget)


@pytest.mark.parametrize("text,attractor,budget", [
    ("x^2-1", -1.0, 1e17), ("x*(x-1)*(x+2)", 0.0, 1e17),
    ("x^2-4", -2.0, 1e308)], ids=["quad", "cubic", "overflow"])
def test_budget_whose_fuel_bound_rounds_onto_mu_is_a_quadrature_fault(
        text, attractor, budget):
    # L mu_s / (L - d_s) rounds onto mu_s, or L mu_s overflows
    field = ScalarField.from_text(text)
    geometry = analyze_basin(field, attractor)
    with pytest.raises(QuadratureFault, match=re.escape(f"arclength {budget!r}")):
        critical_rate(geometry, field, budget)


def test_critical_rate_bracket_invariants(quad_field, quad_geometry):
    rate = critical_rate(quad_geometry, quad_field, 3.0)
    lo, hi = rate.bracket
    assert lo <= rate.m_c <= hi
    assert hi - lo <= 1e-8 * max(1.0, rate.m_c)
    assert rate.m_c > quad_geometry.mu
    j = cost(quad_geometry, quad_field, rate.m_c)[2]
    assert abs(j - 3.0) <= 1e-8 * 3.0


@pytest.mark.parametrize("arclength,expected", [
    (1.5, 1.3548283718988352),
    (2.0, 0.9517209871293442),
    (3.0, 0.7620893344187007),
    (50.0, 0.6317045640937642),
])
def test_cubic_critical_rates_pinned_by_oracle(cubic_field, cubic_geometry,
                                               arclength, expected):
    # frozen values recomputed here via the scipy oracle
    assert cubic_rate_oracle(arclength) == pytest.approx(expected, abs=1e-9)
    rate = critical_rate(cubic_geometry, cubic_field, arclength)
    assert rate.m_c == pytest.approx(expected, abs=1e-6)
    assert rate.side == 1


def test_root_consistency_random_budgets(quad_field, quad_geometry,
                                         cubic_field, cubic_geometry):
    rng = np.random.default_rng(99)
    for field, geometry in ((quad_field, quad_geometry),
                            (cubic_field, cubic_geometry)):
        for _ in range(25):
            L = geometry.radius * float(10.0 ** rng.uniform(0.01, 2.0))
            rate = critical_rate(geometry, field, L)
            j = cost(geometry, field, rate.m_c)[2]
            assert abs(j - L) <= 1e-8 * L


def test_rate_decreases_continuously_in_budget(quad_field, quad_geometry):
    grid = np.geomspace(2.1, 60.0, 25)
    rates = [critical_rate(quad_geometry, quad_field, float(L)).m_c
             for L in grid]
    ratio = grid[1] / grid[0]
    for a, b in zip(rates, rates[1:]):
        assert b < a
        assert (a - b) / a <= 10.0 * (ratio - 1.0)


def _budget_grid(geometry, count=25):
    return [float(L) for L in np.geomspace(1.05 * geometry.radius,
                                           50.0 * geometry.radius, count)]


def _recorded_evaluations(monkeypatch):
    """Logs every cost evaluation of the critical-rate solves, one ``(M,
    J_plus, J_minus)`` per call of ``_Solve.record``."""
    log = []
    real_record = control_module._Solve.record

    def logged(self, j_plus, j_minus, slope):
        log.append((self.m, j_plus, j_minus))
        return real_record(self, j_plus, j_minus, slope)

    monkeypatch.setattr(control_module._Solve, "record", logged)
    return log


def _evaluations_per_root(evaluations, geometry, field, budgets):
    """The number of cost evaluations of each budget's critical rate."""
    counts = []
    for L in budgets:
        evaluations.clear()
        critical_rate(geometry, field, float(L))
        counts.append(len(evaluations))
    return counts


def test_critical_rate_cost_call_budget(monkeypatch, quad_field,
                                        quad_geometry, cubic_field,
                                        cubic_geometry):
    evaluations = _recorded_evaluations(monkeypatch)
    counts = []
    for field, geometry in ((quad_field, quad_geometry),
                            (cubic_field, cubic_geometry)):
        counts += _evaluations_per_root(evaluations, geometry, field,
                                        _budget_grid(geometry))
    assert min(counts) >= 1
    assert sum(counts) / len(counts) <= 16.0


def test_critical_rate_bracket_contract(quad_field, quad_geometry,
                                        cubic_field, cubic_geometry):
    for field, geometry, extra in (
            (quad_field, quad_geometry, [math.pi]),
            (cubic_field, cubic_geometry, [])):
        R = geometry.radius
        for L in _budget_grid(geometry) + extra + [1.01 * R, 100.0 * R]:
            rate = critical_rate(geometry, field, L)
            lo, hi = rate.bracket
            assert lo <= rate.m_c <= hi
            assert hi - lo <= 1e-8 * max(1.0, rate.m_c)
            assert abs(cost(geometry, field, rate.m_c)[2] - L) <= 1e-8 * L


# m_c of the former 200-step bisection, which met the same bracket and
# residual tolerances
BISECTION_RATES = [
    ("quad", 2.02, 67.46734981890768),
    ("quad", 2.5, 3.482272172346711),
    ("quad", 5.0, 1.3101353542879224),
    ("quad", 12.0, 1.0555194412590936),
    ("quad", 40.0, 1.0056564594588053),
    ("quad", 200.0, 1.000241994666803),
    ("cubic", 1.01, 42.169967740447134),
    ("cubic", 1.05, 8.838374444259081),
    ("cubic", 2.5, 0.8232439303127403),
    ("cubic", 7.0, 0.6565594443498135),
    ("cubic", 20.0, 0.6345623052427686),
    ("cubic", 100.0, 0.6312762925792262),
]


@pytest.mark.parametrize("name,arclength,m_bisection", BISECTION_RATES)
def test_critical_rate_agrees_with_bisection(request, name, arclength,
                                             m_bisection):
    field = request.getfixturevalue(f"{name}_field")
    geometry = request.getfixturevalue(f"{name}_geometry")
    rate = critical_rate(geometry, field, arclength)
    assert rate.m_c == pytest.approx(m_bisection, rel=1e-8)


FOUR_FIELDS = [("x^2-1", -1.0), ("x*(x-1)*(x+2)", 0.0),
               ("sin(x)", math.pi), ("(x^2-1)*exp(x/4)", -1.0)]


@pytest.mark.parametrize("text,attractor", FOUR_FIELDS,
                         ids=[row[0] for row in FOUR_FIELDS])
def test_fuel_bound_on_each_side(text, attractor):
    # |f| <= mu_s on a path of length d_s, so J_s(M) <= d_s M / (M - mu_s)
    field = ScalarField.from_text(text)
    geometry = analyze_basin(field, attractor)
    for side in (1, -1):
        if not geometry.has_side(side):
            continue
        mu_s, d_s = geometry.side_mu(side), geometry.side_length(side)
        for m in mu_s * (1.0 + np.geomspace(1e-3, 1e3, 20)):
            j_s = m * escape_time(geometry, field, side, float(m))
            assert j_s <= d_s * m / (m - mu_s)


@pytest.mark.parametrize("text,attractor", FOUR_FIELDS,
                         ids=[row[0] for row in FOUR_FIELDS])
def test_cost_does_not_depend_on_earlier_calls(text, attractor):
    # a field keeps the quadrature meshes of its latest passage paths; they
    # depend on the field and the path alone, never on earlier drives
    used = ScalarField.from_text(text)
    geometry = analyze_basin(used, attractor)
    for L in _budget_grid(geometry, 5):
        critical_rate(geometry, used, L)
    assert used._paths
    for m in geometry.mu * (1.0 + np.geomspace(1e-6, 99.0, 12)):
        fresh = ScalarField.from_text(text)
        assert cost(geometry, fresh, float(m)) == cost(geometry, used, float(m))


@pytest.mark.parametrize("text,attractor", FOUR_FIELDS,
                         ids=[row[0] for row in FOUR_FIELDS])
def test_first_passage_agrees_with_single_panel_quadrature(text, attractor):
    field = ScalarField.from_text(text)
    geometry = analyze_basin(field, attractor)
    for side in (1, -1):
        if not geometry.has_side(side):
            continue
        a, b = geometry.attractor, geometry.endpoint(side)
        for m in geometry.side_mu(side) * (1.0 + np.geomspace(1e-4, 1e2, 7)):
            drive = side * float(m)
            single = _gauss_kronrod(field.f, drive, a, b,
                                    [_gk15_panel(field.f, drive, a, b)])
            assert first_passage_time(field, drive, a, b) == pytest.approx(
                single, rel=1e-12)


def _fuel_bound(geometry, L):
    return min(L * geometry.side_mu(s) / (L - geometry.side_length(s))
               for s in (1, -1) if L > geometry.side_length(s))


@pytest.mark.parametrize("low,high,count,per_root", [
    (1.05, 50.0, 25, 10.0),
    (50.0, 1e4, 10, 16.0),
])
def test_critical_rate_cost_calls_per_root(monkeypatch, quad_field,
                                           quad_geometry, cubic_field,
                                           cubic_geometry, low, high, count,
                                           per_root):
    evaluations = _recorded_evaluations(monkeypatch)
    counts = []
    for field, geometry in ((quad_field, quad_geometry),
                            (cubic_field, cubic_geometry)):
        R = geometry.radius
        counts += _evaluations_per_root(
            evaluations, geometry, field,
            np.geomspace(low * R, high * R, count))
    assert min(counts) >= 1
    assert sum(counts) / len(counts) <= per_root


def test_critical_rate_starts_at_the_fuel_bound(monkeypatch, quad_field,
                                                quad_geometry, cubic_field,
                                                cubic_geometry):
    evaluations = _recorded_evaluations(monkeypatch)
    for field, geometry in ((quad_field, quad_geometry),
                            (cubic_field, cubic_geometry)):
        R = geometry.radius
        for L in (1.01 * R, 1.5 * R, 10.0 * R, 1e3 * R):
            evaluations.clear()
            critical_rate(geometry, field, L)
            drives = [m for m, _, _ in evaluations]
            bound = _fuel_bound(geometry, L)
            assert drives[0] == bound
            assert geometry.mu < min(drives)
            assert max(drives) <= bound


def test_critical_rate_residual_is_the_cost_at_the_root(cubic_field,
                                                        cubic_geometry):
    for L in (1.01, 1.5, 10.0, 1e3):
        rate = critical_rate(cubic_geometry, cubic_field, L)
        assert rate.residual == cost(cubic_geometry, cubic_field,
                                     rate.m_c)[2] - L
        assert abs(rate.residual) <= 1e-8 * L


def test_first_passage_evaluation_budget(monkeypatch, quad_field,
                                         quad_geometry, cubic_field,
                                         cubic_geometry):
    # scalar f evaluations per cost evaluation of the solves
    evals = [0]
    evaluations = _recorded_evaluations(monkeypatch)
    counts = []
    for field, geometry in ((quad_field, quad_geometry),
                            (cubic_field, cubic_geometry)):
        raw = field.f

        def counted_f(y, _raw=raw):
            evals[0] += 1
            return _raw(y)

        counted_field = dataclasses.replace(field, f=counted_f)
        counts += _evaluations_per_root(evaluations, geometry, counted_field,
                                        _budget_grid(geometry))
    assert min(counts) >= 1
    assert evals[0] / sum(counts) <= 300.0


def test_critical_rate_scalar_f_calls_per_root(quad_field, quad_geometry,
                                               cubic_field, cubic_geometry):
    # drives are evaluated on each path's cached mesh through numpy; the
    # scalar f only locates the mesh's minimizer
    evals = [0]
    n_roots = 0
    for field, geometry in ((quad_field, quad_geometry),
                            (cubic_field, cubic_geometry)):
        raw = field.f

        def counted_f(y, _raw=raw):
            evals[0] += 1
            return _raw(y)

        counted_field = dataclasses.replace(field, f=counted_f)
        for L in _budget_grid(geometry):
            critical_rate(geometry, counted_field, L)
            n_roots += 1
    assert evals[0] / n_roots <= 50.0


# Roots of J(M) = L for x*(x-1)*(x+2) (attractor 0, R = 1), with dJ/dM at
# the root: 40-digit mpmath quadrature of M / (f + M) on [0, 1], split at
# the minimizer (sqrt(7) - 1) / 3.  Near the root J(m) - L is
# dJ/dM (m - M); for any m within the contract the neglected quadratic term
# is about 1e-16 L.  m - M is taken in decimal: near mu one ulp of M moves J
# by more than the contract allows.
CUBIC_ROOTS = {
    1.05: ("8.838374468567287774", -0.0060015421875),
    10.0: ("0.64407000526336226618", -406.990492863),
    100.0: ("0.63127629258018544101", -345475.597589),
    1e3: ("0.63113179264248675915", -337414061.319),
    1e4: ("0.63113032429716711893", -336588903228.0),
    1e5: ("0.63113030958948585103", -3.3650619765e14),
    1e6: ("0.63113030944238471932", -3.36497925194e17),
}


@pytest.mark.parametrize("name", ["quad", "cubic"])
def test_near_mu_roots_meet_contract_or_raise(request, name):
    field = request.getfixturevalue(f"{name}_field")
    geometry = request.getfixturevalue(f"{name}_geometry")
    R = geometry.radius
    for budget in (1.05, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
        L = budget * R
        start = time.perf_counter()
        try:
            m_c = critical_rate(geometry, field, L).m_c
        except QuadratureFault:
            m_c = None
        assert time.perf_counter() - start < 1.0
        if m_c is None:
            assert budget > 1e4
            continue
        if name == "quad":
            excess = _quadratic_cost(m_c) - L
        else:
            root, slope = CUBIC_ROOTS[budget]
            excess = slope * float(Decimal(m_c) - Decimal(root))
        assert abs(excess) <= 1e-8 * L
    # the former silent wrong root and the former hang
    with pytest.raises(QuadratureFault):
        critical_rate(geometry, field, (1e6 if name == "quad" else 1e5) * R)


# m_c of the adaptive-Simpson quadrature this one replaced, at 40 budgets
# np.geomspace(1.01 R, 100 R, 40) per field
SIMPSON_RATES = [
    ("x^2-1", -1.0, (
        67.4673496809212, 5.70007462194568, 3.21191442329757,
        2.34685438406373, 1.91276304513137, 1.65533383420851,
        1.48741056124809, 1.37101745427675, 1.28694311162301,
        1.22441393606302, 1.17691213701388, 1.14025790591362,
        1.11164410081919, 1.08911383593908, 1.07126074037842,
        1.05704847394927, 1.0456975273016, 1.03661166780806, 1.02932863428955,
        1.02348614928866, 1.01879788819071, 1.01503609109294,
        1.01201871477215, 1.0095997593123, 1.00766186356131, 1.00611055698395,
        1.00486974356577, 1.00387812059609, 1.00308631726166,
        1.00245459615344, 1.00195099950667, 1.00154985077598,
        1.00123054158651, 1.00097654924152, 1.000774641311, 1.00061423173271,
        1.00048686043377, 1.00038577309208, 1.00030558228795,
        1.00024199466259,
    )),
    ("x*(x-1)*(x+2)", 0.0, (
        42.1699677216162, 3.56562241380653, 2.01072652072999, 1.4702691181257,
        1.19916637105322, 1.03847496137038, 0.933720567861832,
        0.861166692645752, 0.808804683509597, 0.76989968160846,
        0.740376914730115, 0.717623076327062, 0.699883039262054,
        0.685933353385743, 0.674894894771986, 0.666120054883868,
        0.659121957986711, 0.653528459955102, 0.649051294139854,
        0.645464789656172, 0.642590814402447, 0.640287872308433,
        0.638443043275983, 0.636965912405147, 0.635783923087532,
        0.634838770592415, 0.63408357104954, 0.633480618747001,
        0.632999596922885, 0.632616142913184, 0.632310693297235,
        0.632067552239851, 0.631874138930816, 0.631720379408718,
        0.631598215139784, 0.631501206174347, 0.631424210967754,
        0.631363128346418, 0.631314689811705, 0.631276292580188,
    )),
    ("sin(x)", 3.141592653589793, (
        64.4481547811022, 5.4662702526357, 3.09178526702657, 2.26724870713962,
        1.85424566739993, 1.60991787899593, 1.45102422889497,
        1.34128814994676, 1.26235286477772, 1.20392058704703,
        1.15975931823356, 1.1258716249751, 1.09957296809559, 1.07899279984752,
        1.06278823522316, 1.04997151379034, 1.03980164852735,
        1.03171389512623, 1.02527236058462, 1.02013724394892, 1.0160416046307,
        1.01277451315173, 1.01016857475242, 1.00809053233392,
        1.00643407941555, 1.0051142950496, 1.00406329035275, 1.00322677670862,
        1.00256134257756, 1.0020322842774, 1.00161187223776, 1.00127796195334,
        1.00101288061518, 1.000802533767, 1.00063568856891, 1.00050339896429,
        1.00039854489905, 1.00031546323624, 1.00024965235857,
        1.00019753598401,
    )),
    ("(x^2-1)*exp(x/4)", -1.0, (
        67.8942933314737, 5.74041809561062, 3.2369844394492, 2.36681982083631,
        1.93032274687379, 1.67159104516047, 1.50291994736111,
        1.38609325098503, 1.30177682848005, 1.23912744849182,
        1.19158466818815, 1.15494100812847, 1.12637065893449,
        1.10390380642098, 1.08612499525758, 1.07199150121299,
        1.06071938005613, 1.05170940040462, 1.04449737447173,
        1.03871989570129, 1.03409009864776, 1.03038010672383, 1.0274080563381,
        1.02502832337903, 1.02312404181839, 1.02160129726021,
        1.02038456869541, 1.0194131173154, 1.01863810538908, 1.01802028561484,
        1.01752814127247, 1.01713638574421, 1.01682475041896,
        1.01657700510029, 1.01638016643798, 1.01622385867817,
        1.01609979788761, 1.01600137627729, 1.01592332760384,
        1.01586145819361,
    )),
]


@pytest.mark.parametrize("text,attractor,rates", SIMPSON_RATES,
                         ids=[row[0] for row in SIMPSON_RATES])
def test_critical_rate_drift_from_simpson(text, attractor, rates):
    field = ScalarField.from_text(text)
    geometry = analyze_basin(field, attractor)
    budgets = np.geomspace(1.01 * geometry.radius, 100.0 * geometry.radius,
                           len(rates))
    for L, m_simpson in zip(budgets, rates):
        m_c = critical_rate(geometry, field, float(L)).m_c
        assert m_c == pytest.approx(m_simpson, rel=1e-8)


def test_side_ties_report_plus_one(cubic_field, cubic_geometry):
    # sin(x) at pi is symmetric: J_plus and J_minus agree to rounding
    field = ScalarField.from_text("sin(x)")
    for f, geometry in ((field, analyze_basin(field, math.pi)),
                        (cubic_field, cubic_geometry)):
        R = geometry.radius
        for L in np.geomspace(1.01 * R, 100.0 * R, 27):
            assert critical_rate(geometry, f, float(L)).side == 1


def _quadratic_time_slope(m):
    # d/dM of T(M) = 2 atan(1/s) / s, s = sqrt(M - 1), on x^2-1 from -1 to 1
    s = math.sqrt(m - 1.0)
    return -(1.0 / (s * s + 1.0) + math.atan(1.0 / s) / s) / (s * s)


def _passage_slope(field, drive, y_from, y_to):
    """``dT / d(drive)`` from the slope terms of the batch pass."""
    return _slope(_passage_batch(field, np.array([drive]), y_from, y_to,
                                 slopes=True)[1][0])


def test_passage_slope_matches_the_closed_form(quad_field, quad_geometry):
    a, b = quad_geometry.attractor, quad_geometry.endpoint(1)
    for m in 1.0 + np.geomspace(1e-4, 1e2, 9):
        m = float(m)
        assert _passage_slope(quad_field, m, a, b) == pytest.approx(
            _quadratic_time_slope(m), rel=1e-6)


@pytest.mark.parametrize("text,attractor", FOUR_FIELDS,
                         ids=[row[0] for row in FOUR_FIELDS])
def test_passage_slope_matches_a_central_difference(text, attractor):
    field = ScalarField.from_text(text)
    geometry = analyze_basin(field, attractor)
    for side in (1, -1):
        if not geometry.has_side(side):
            continue
        a, b = geometry.attractor, geometry.endpoint(side)
        mu_s = geometry.side_mu(side)
        for m in mu_s * (1.0 + np.geomspace(1e-3, 1e2, 6)):
            drive, h = side * float(m), 1e-3 * (float(m) - mu_s)
            difference = (first_passage_time(field, drive + h, a, b)
                          - first_passage_time(field, drive - h, a, b)) / (
                              2.0 * h)
            assert _passage_slope(field, drive, a, b) == pytest.approx(
                difference, rel=1e-5)


@pytest.mark.parametrize("low,high", [(1.05, 50.0), (50.0, 1e4)])
def test_newton_critical_rate_cost_calls_per_root(monkeypatch, low, high):
    evaluations = _recorded_evaluations(monkeypatch)
    for text, attractor in FOUR_FIELDS:
        field = ScalarField.from_text(text)
        geometry = analyze_basin(field, attractor)
        R = geometry.radius
        counts = _evaluations_per_root(evaluations, geometry, field,
                                       np.geomspace(low * R, high * R, 25))
        assert min(counts) >= 1, text
        assert sum(counts) / 25 <= 6.0, text


@pytest.mark.parametrize("low,high,most,mean", [
    (1.7, 1.9, 8, 8.0),
    # the cheaper side of J = min(J+, J-) switches at M = 3.058, where
    # J+ = J- = 2.1573 R and J' jumps; a Brent solve from the same fuel
    # bound takes 10.7 calls per root here, and up to 17
    (2.05, 2.25, 12, 8.0),
], ids=["1.7R-1.9R", "across-the-switch"])
def test_critical_rate_on_a_field_whose_cheaper_side_switches(
        monkeypatch, low, high, most, mean):
    field = ScalarField.from_text("x*(x-1)*(x+2)*exp(2*x)")
    geometry = analyze_basin(field, 0.0)
    R = geometry.radius
    evaluations = _recorded_evaluations(monkeypatch)
    counts, sides = [], set()
    for L in np.geomspace(low * R, high * R, 60):
        L = float(L)
        evaluations.clear()
        rate = critical_rate(geometry, field, L)
        counts.append(len(evaluations))
        lo, hi = rate.bracket
        assert lo <= rate.m_c <= hi
        assert hi - lo <= 1e-8 * max(1.0, rate.m_c)
        j_plus, j_minus, j = cost(geometry, field, rate.m_c)
        assert rate.residual == j - L
        assert abs(rate.residual) <= 1e-8 * L
        # sides within the quadrature tolerance tie, and a tie is +1
        cheaper = 1 if j_plus <= j_minus * (1.0 + 1e-10) else -1
        assert rate.side == cheaper
        sides.add(rate.side)
    assert min(counts) >= 1
    assert max(counts) <= most
    assert sum(counts) / len(counts) <= mean
    if low < 2.1573 < high:
        assert sides == {1, -1}


def test_critical_rate_safeguards_when_every_newton_step_is_nan(
        monkeypatch, quad_field, quad_geometry):
    # with a zero passage slope, J' = J / M > 0 and every Newton step is
    # nan, so each move is the bracket's midpoint or, once lo is past mu
    # and the bracket is wider than lo - mu, its geometric mean about mu
    L = 100.0
    exact = critical_rate(quad_geometry, quad_field, L)
    slope_calls = [0]

    def zero_slope(*args):
        slope_calls[0] += 1
        return 0.0

    monkeypatch.setattr(control_module, "_slope", zero_slope)
    evaluations = _recorded_evaluations(monkeypatch)
    rate = critical_rate(quad_geometry, quad_field, L)
    drives = [(m, min(j_plus, j_minus)) for m, j_plus, j_minus in evaluations]
    mu = quad_geometry.mu
    lo, hi = mu, drives[0][0]
    midpoints = geometric_means = 0
    for (m, j), (m_next, _) in zip(drives, drives[1:]):
        if j > L:
            lo = m
        else:
            hi = m
        if m_next == 0.5 * (lo + hi):
            midpoints += 1
        else:
            assert m_next == mu + math.sqrt((lo - mu) * (hi - mu))
            geometric_means += 1
    assert slope_calls[0] == len(drives) - 1
    assert midpoints >= 1 and geometric_means >= 1
    lo, hi = rate.bracket
    assert lo <= rate.m_c <= hi
    assert hi - lo <= 1e-8 * max(1.0, rate.m_c)
    assert rate.residual == cost(quad_geometry, quad_field, rate.m_c)[2] - L
    assert abs(rate.residual) <= 1e-8 * L
    assert rate.m_c == pytest.approx(exact.m_c, rel=1e-8)


def test_solve_stops_at_float_resolution(quad_geometry):
    # a cost curve that jumps across L between two adjacent floats, with a
    # zero slope, so that no Newton step is defined: the bracket closes onto
    # the two floats, whose midpoint rounds onto one of them
    L, jump = 10.0, 1.125  # the solve runs over (mu, bound] = (1, 1.25]
    above = math.nextafter(jump, math.inf)
    solve = control_module._Solve(quad_geometry, L)
    excesses = {}
    while True:
        excesses[solve.m] = 1.0 if solve.m <= jump else -0.5
        if solve.record(L + excesses[solve.m], math.inf, lambda side: 0.0):
            break
    assert solve.evaluations < 200
    rate = solve.result()
    assert rate.bracket == (jump, above)
    assert excesses[jump] == 1.0 and excesses[above] == -0.5
    assert rate.m_c == above  # the end with the smaller |J - L|
    assert rate.residual == -0.5


# --------------------------------------------------------------------------
# batched critical rates
# --------------------------------------------------------------------------

SWITCH_FIELD = ("x*(x-1)*(x+2)*exp(2*x)", 0.0)
BENCH_SWEEP_FIELDS = (("x^2-1", -1.0, 2.0), ("x*(x-1)*(x+2)", 0.0, 1.0))


def bench_sweep_calls(seed):
    """The ``run_sweep`` calls of the sweep benchmark's pass 0 at ``seed``:
    per field, a geometric grid of 100 budgets over 1.05R-50R shifted by up
    to half a step, swept as 4 interleaved 25-budget sub-grids."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 2)))
    step = (50.0 / 1.05) ** (1.0 / 99)
    for text, attractor, radius in BENCH_SWEEP_FIELDS:
        shift = step ** rng.uniform(-0.5, 0.5)
        grid = np.geomspace(1.05 * radius * shift, 50.0 * radius * shift, 100)
        for k in range(4):
            sub = grid[k::4]
            yield text, attractor, float(sub[0]), float(sub[-1]), len(sub)


def per_budget_rates(text, attractor, budgets):
    field = ScalarField.from_text(text)
    geometry = analyze_basin(field, attractor)
    return [critical_rate(geometry, field, L) for L in budgets]


@pytest.mark.parametrize("text,attractor,low,high", [
    *((text, attractor, low, high) for text, attractor in FOUR_FIELDS
      for low, high in ((1.05, 50.0), (50.0, 1e4))),
    (*SWITCH_FIELD, 1.7, 1.9), (*SWITCH_FIELD, 2.05, 2.25)])
def test_batch_equals_critical_rate_to_the_bit(monkeypatch, text, attractor,
                                              low, high):
    # cost stays the per-drive reference: every (J+, J-) that the solve
    # records is cost's at that drive; and a batch's rows are its
    # one-budget solves
    field = ScalarField.from_text(text)
    geometry = analyze_basin(field, attractor)
    budgets = [float(L) for L in np.geomspace(low * geometry.radius,
                                              high * geometry.radius, 25)]
    expected = per_budget_rates(text, attractor, budgets)
    evaluations = _recorded_evaluations(monkeypatch)
    assert control_module._critical_rates(geometry, field,
                                          budgets) == expected
    assert len(evaluations) >= len(budgets)
    for m, j_plus, j_minus in evaluations:
        assert (j_plus, j_minus) == cost(geometry, field, m)[:2]


@pytest.mark.parametrize("seed", [41, 97])
def test_sweep_rows_equal_critical_rate_on_the_bench_grids(seed):
    for text, attractor, l_min, l_max, steps in bench_sweep_calls(seed):
        rows = run_sweep(text, attractor, l_min, l_max, steps)
        rates = per_budget_rates(text, attractor,
                                 [row.arclength for row in rows])
        assert [(row.m_c, row.side, row.j_residual) for row in rows] == [
            (rate.m_c, rate.side, abs(rate.residual)) for rate in rates]


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called inside the batch solve")
    return refused


def test_batch_solve_never_calls_the_scalar_cost(monkeypatch, cubic_field,
                                                 cubic_geometry):
    budgets = [float(L) for L in np.geomspace(1.05, 50.0, 25)]
    expected = per_budget_rates("x*(x-1)*(x+2)", 0.0, budgets)
    for name in ("cost", "first_passage_time"):
        monkeypatch.setattr(control_module, name, _refuse(name))
    assert control_module._critical_rates(cubic_geometry, cubic_field,
                                          budgets) == expected


def test_batch_lanes_whose_mesh_misses_the_tolerance_refine_from_their_rows(
        monkeypatch):
    # the quartic's flat minimum on the path is too wide for the mesh's
    # panels near mu, so those lanes go on by QAG from their rows of the pass
    budgets = [float(L) for L in np.geomspace(2.1, 100.0, 25)]
    expected = per_budget_rates("x^4-1", -1.0, budgets)
    field = ScalarField.from_text("x^4-1")
    geometry = analyze_basin(field, -1.0)
    mesh = integrate_module._path_mesh(field, -1.0, 1.0, 1)
    seeded, real = [], integrate_module._gauss_kronrod

    def spy(f, drive, a, b, panels):
        seeded.append([p[1:3] for p in panels])
        return real(f, drive, a, b, panels)

    monkeypatch.setattr(integrate_module, "_gauss_kronrod", spy)
    monkeypatch.setattr(control_module, "cost", _refuse("cost"))
    assert control_module._critical_rates(geometry, field,
                                          budgets) == expected
    assert len(seeded) >= 10
    cuts = mesh.cuts.tolist()
    assert all(ends == list(zip(cuts[:-1], cuts[1:])) for ends in seeded)


def _logged_passes(monkeypatch):
    """Logs each side's drives of every mesh pass made through control."""
    real_batch, passes = control_module._passage_batch, []

    def logged(field, drives, y_from, y_to, *rest):
        passes.append((1 if y_to > y_from else -1, drives.tolist()))
        return real_batch(field, drives, y_from, y_to, *rest)

    monkeypatch.setattr(control_module, "_passage_batch", logged)
    return passes


def test_each_side_passes_only_the_drives_above_its_depth(monkeypatch):
    passes = _logged_passes(monkeypatch)
    text, attractor, _ = BENCH_SWEEP_FIELDS[1]
    geometry = analyze_basin(ScalarField.from_text(text), attractor)
    for seed in (41, 97):
        for _, _, l_min, l_max, steps in bench_sweep_calls(seed):
            run_sweep(text, attractor, l_min, l_max, steps)
    drives = {1: [], -1: []}
    for side, row in passes:
        drives[side] += [side * m for m in row]
    assert drives[1] and drives[-1]
    for side in (1, -1):
        assert min(drives[side]) > geometry.side_mu(side)
    # the deeper side's depth leaves some of the grids' drives out
    assert len(drives[-1]) < len(drives[1])


def test_cost_curve_makes_one_pass_per_side_with_the_rows_of_cost(
        monkeypatch, cubic_field, cubic_geometry):
    ms = [0.1, 0.5, 1.0, 2.0, 5.0, 1e3]
    expected = []
    for m in ms:
        try:
            expected.append((m, *cost(cubic_geometry, cubic_field, m)))
        except InfeasibleSideError:
            expected.append((m, math.inf, math.inf, math.inf))
    assert expected[0][1:] == (math.inf,) * 3
    passes = _logged_passes(monkeypatch)
    curve = sample_cost_curve(cubic_geometry, cubic_field, ms)
    assert sorted(side for side, _ in passes) == [-1, 1]
    assert curve.samples == expected


def test_passes_of_a_few_drives_give_the_same_rows(monkeypatch, cubic_field,
                                                  cubic_geometry):
    # a pass takes at most _PASS_DRIVES drives, which bounds its memory
    ms = [float(m) for m in np.geomspace(0.5, 50.0, 11)]
    curve = sample_cost_curve(cubic_geometry, cubic_field, ms)
    budgets = [float(L) for L in np.geomspace(1.05, 50.0, 25)]
    expected = per_budget_rates("x*(x-1)*(x+2)", 0.0, budgets)
    monkeypatch.setattr(control_module, "_PASS_DRIVES", 3)
    passes = _logged_passes(monkeypatch)
    assert sample_cost_curve(cubic_geometry, cubic_field, ms) == curve
    for side in (1, -1):
        above = [m for m in ms if m > cubic_geometry.side_mu(side)]
        sizes = [len(row) for s, row in passes if s == side]
        assert sizes == [3] * (len(above) // 3) + (
            [len(above) % 3] if len(above) % 3 else [])
    assert control_module._critical_rates(cubic_geometry, cubic_field,
                                          budgets) == expected


def test_cost_curve_raises_the_first_failing_rows_fault(quad_field,
                                                       quad_geometry):
    near = quad_geometry.mu * (1.0 + 1e-12)  # the roundoff floor swamps it
    with pytest.raises(QuadratureFault) as alone:
        cost(quad_geometry, quad_field, near)
    with pytest.raises(QuadratureFault) as caught:
        sample_cost_curve(quad_geometry, quad_field, [2.0, near, -1.0])
    assert str(caught.value) == str(alone.value)
    with pytest.raises(ValueError, match="positive and finite"):
        sample_cost_curve(quad_geometry, quad_field, [2.0, -1.0, near])


@pytest.mark.parametrize("call", [
    lambda g, f: cost(g, f, math.inf),
    lambda g, f: cost(g, f, math.nan),
    lambda g, f: sample_cost_curve(g, f, [math.inf]),
    lambda g, f: sample_cost_curve(g, f, [2.0, -1.0])],
    ids=["cost-inf", "cost-nan", "curve-inf", "curve-negative"])
def test_non_finite_or_negative_drive_is_refused(call):
    field = ScalarField.from_text("x^2-1")
    geometry = analyze_basin(field, -1.0)
    cost(geometry, field, 2.0)
    kept = list(field._paths.items())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive and finite"):
            call(geometry, field)
    assert list(field._paths) == [key for key, _ in kept]
    assert all(field._paths[key] is mesh for key, mesh in kept)


@pytest.mark.parametrize("text,attractor", [row[:2]
                                            for row in BENCH_SWEEP_FIELDS])
def test_batch_raises_the_first_failing_budgets_fault(text, attractor):
    field = ScalarField.from_text(text)
    geometry = analyze_basin(field, attractor)
    R = geometry.radius
    budgets = [float(L) for L in np.geomspace(1e3 * R, 3e4 * R, 25)]
    messages = []
    for L in budgets + [1e17]:
        try:
            critical_rate(geometry, field, L)
        except QuadratureFault as exc:
            messages.append(str(exc))
    # the grid's last two budgets fail in the quadrature, each with its own
    # message, and 1e17 fails at its fuel bound
    assert len(set(messages)) == len(messages) == 3
    with pytest.raises(QuadratureFault) as caught:
        run_sweep(text, attractor, budgets[0], budgets[-1], 25)
    assert str(caught.value) == messages[0]
    with pytest.raises(QuadratureFault) as caught:
        control_module._critical_rates(geometry, field, budgets + [1e17])
    assert str(caught.value) == messages[0]


def test_batch_mesh_passes_per_side(monkeypatch):
    real_batch = control_module._passage_batch
    passes = {}

    def counted(field, drives, y_from, y_to, *rest):
        side = 1 if y_to > y_from else -1
        passes[side] = passes.get(side, 0) + 1
        return real_batch(field, drives, y_from, y_to, *rest)

    monkeypatch.setattr(control_module, "_passage_batch", counted)
    for text, attractor, l_min, l_max, steps in bench_sweep_calls(41):
        passes.clear()
        run_sweep(text, attractor, l_min, l_max, steps)
        assert set(passes) == ({1} if text == "x^2-1" else {1, -1})
        assert max(passes.values()) <= 8, text


def test_bracketed_root_exact_zero_gives_point_bracket():
    assert _bracketed_root(lambda x: 2.0 - x, 0.0, 4.0, 2.0, -2.0,
                           1e-12) == (2.0, 2.0, 2.0)


def test_bracketed_root_bisects_away_from_infinite_end():
    # +inf at the left end, as the cost curve reads near mu
    def fn(x):
        return math.inf if x < 0.5 else 1.0 / x - 1.5

    x, lo, hi = _bracketed_root(fn, 0.0, 4.0, math.inf, fn(4.0), 1e-12)
    assert lo <= x <= hi
    assert hi - lo <= 1e-12
    assert x == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_bracketed_root_predicted_stop_saves_the_closing_evaluation():
    calls = [0]

    def fn(x):
        calls[0] += 1
        return x ** 3 - 2.0

    root = 2.0 ** (1.0 / 3.0)
    evaluations = []
    for predicted_stop in (False, True):
        calls[0] = 0
        x, lo, hi = _bracketed_root(fn, 1.0, 2.0, -1.0, 6.0, 1e-6,
                                    predicted_stop=predicted_stop)
        assert lo <= root <= hi
        assert abs(x - root) <= 1e-6 * root
        evaluations.append(calls[0])
    assert evaluations[1] <= evaluations[0] - 1


# --------------------------------------------------------------------------
# optimal bang-bang
# --------------------------------------------------------------------------

def test_optimal_pulse_at_pi_budget(quad_field, quad_geometry):
    pulse, ramp = optimal_bang_bang(quad_geometry, quad_field, math.pi)
    assert pulse.height == pytest.approx(2.0, abs=1e-8)
    assert pulse.width == pytest.approx(math.pi / 2.0, abs=1e-8)
    assert pulse.sign == 1
    assert pulse.cost == pytest.approx(math.pi, abs=1e-8)
    assert ramp.sup_speed() == pytest.approx(pulse.height, rel=1e-12)
    assert ramp.final_value() == pytest.approx(math.pi, abs=1e-7)


def test_optimal_pulse_ramp_is_the_bang_bang_ramp(cubic_field, cubic_geometry):
    rate = critical_rate(cubic_geometry, cubic_field, 2.0)
    _, ramp = optimal_bang_bang(cubic_geometry, cubic_field, 2.0)
    width = (rate.arclength + rate.residual) / rate.m_c
    expected = make_bang_bang(rate.m_c, 0.0, width, rate.side)
    assert ramp.knots == expected.knots
    assert ramp.knots == ((0.0, 0.0), (width, rate.side * rate.m_c * width))


def test_optimal_pulse_height_decreases_with_budget(quad_field, quad_geometry):
    pulse3, _ = optimal_bang_bang(quad_geometry, quad_field, 3.0)
    pulse4, _ = optimal_bang_bang(quad_geometry, quad_field, 4.0)
    assert pulse4.height < pulse3.height
    assert pulse4.cost == pytest.approx(4.0, abs=1e-7)


def test_optimal_pulse_reuses_the_solve(monkeypatch, cubic_field,
                                        cubic_geometry):
    # the solve evaluates through its mesh passes, and the pulse reads its
    # fuel off the solve, so the scalar passage is never called
    evaluations = _recorded_evaluations(monkeypatch)
    scalar_calls = [0]
    real = control_module.first_passage_time

    def counted(*args, **kwargs):
        scalar_calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(control_module, "first_passage_time", counted)
    pulse, ramp = optimal_bang_bang(cubic_geometry, cubic_field, 2.0)
    assert 1 <= len(evaluations) <= 6
    assert scalar_calls[0] == 0
    width = first_passage_time(cubic_field, pulse.sign * pulse.height,
                               cubic_geometry.attractor,
                               cubic_geometry.endpoint(pulse.sign))
    assert pulse.width == pytest.approx(width, rel=1e-12)
    assert pulse.cost == pytest.approx(2.0, rel=1e-8)
    assert ramp.final_value() == pytest.approx(pulse.cost, rel=1e-12)


def test_optimal_pulse_uses_shallow_side_cubic(cubic_field, cubic_geometry):
    pulse, ramp = optimal_bang_bang(cubic_geometry, cubic_field, 50.0)
    assert pulse.sign == 1
    assert ramp.final_value() > 0


# --------------------------------------------------------------------------
# prototype closed forms
# --------------------------------------------------------------------------

def test_smooth_prototype_rate_values():
    assert prototype_critical_rate_smooth(3.0) == pytest.approx(4.0 / 3.0,
                                                                rel=1e-15)
    assert prototype_critical_rate_smooth(4.0) == pytest.approx(0.5, rel=1e-15)


def test_smooth_prototype_rate_decreases():
    values = [prototype_critical_rate_smooth(lam)
              for lam in (2.5, 3.0, 5.0, 10.0, 100.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_smooth_prototype_rejects_small_amplitude():
    with pytest.raises(ValueError):
        prototype_critical_rate_smooth(2.0)


def test_prototype_slope_exact_at_pi():
    assert prototype_critical_slope(math.pi) == pytest.approx(2.0, abs=1e-10)


def test_prototype_slope_at_three():
    assert prototype_critical_slope(3.0) == pytest.approx(MC_LAMBDA_3,
                                                          abs=1e-10)


def test_prototype_slope_decreases_with_amplitude():
    assert prototype_critical_slope(10.0) < prototype_critical_slope(5.0)


def test_prototype_slope_rejects_small_amplitude():
    with pytest.raises(ValueError):
        prototype_critical_slope(1.9)


def test_prototype_slope_agrees_with_general_solver(quad_field, quad_geometry):
    for lam in (2.5, 3.0, 6.0, 20.0, 45.0):
        general = critical_rate(quad_geometry, quad_field, lam).m_c
        assert general == pytest.approx(prototype_critical_slope(lam),
                                        abs=1e-6)


# --------------------------------------------------------------------------
# fuel lower bound
# --------------------------------------------------------------------------

def test_lower_bound_equality_for_optimal_pulse(quad_field, quad_geometry):
    pulse, _ = optimal_bang_bang(quad_geometry, quad_field, math.pi)
    u = make_bang_bang(pulse.height, 0.0, pulse.width, pulse.sign)
    report = verify_lower_bound(quad_geometry, quad_field, u)
    assert report.satisfied
    assert report.integral == pytest.approx(math.pi, abs=1e-8)
    assert report.integral == pytest.approx(report.bound, abs=1e-8)


def test_lower_bound_equality_for_own_height(quad_field, quad_geometry):
    # a taller pulse cut exactly at its own passage time is optimal for
    # its own height, with fuel strictly below the pi budget
    width = escape_time(quad_geometry, quad_field, 1, 3.0)
    u = make_bang_bang(3.0, 0.0, width, +1)
    report = verify_lower_bound(quad_geometry, quad_field, u)
    assert report.satisfied
    assert report.integral < math.pi
    assert report.integral == pytest.approx(report.bound, abs=1e-8)


def test_lower_bound_strict_excess_for_split_pulse(quad_field, quad_geometry):
    # two pulses of height 2 separated by a relaxation gap waste fuel
    w1, gap = 0.4, 3.0
    lo, hi = 0.1, math.pi / 2.0

    def control(w2):
        return pulse_profile((0.0, w1, 2.0), (w1 + gap, w1 + gap + w2, 2.0))

    assert not boundary_arrival(quad_field, quad_geometry, control(lo))
    assert boundary_arrival(quad_field, quad_geometry, control(hi))
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        if boundary_arrival(quad_field, quad_geometry, control(mid)):
            hi = mid
        else:
            lo = mid
    report = verify_lower_bound(quad_geometry, quad_field, control(hi))
    assert report.satisfied
    assert report.integral - report.bound >= 1e-3


def test_lower_bound_rejects_non_arriving_control(quad_field, quad_geometry):
    u = make_bang_bang(2.0, 0.0, 0.3, +1)
    with pytest.raises(ValueError, match="arrival"):
        verify_lower_bound(quad_geometry, quad_field, u)
