"""Expression parsing, symbolic derivatives, equilibria, and basin geometry."""
import dataclasses
import math
import pickle

import numpy as np
import pytest

from tipcrit import (
    EmptyBasinError,
    FieldAnalysisError,
    NoEquilibriaError,
    NonHyperbolicError,
    ParseError,
    ScalarField,
    analyze_basin,
    differentiate,
    find_equilibria,
    make_tanh_ramp,
    parse_field,
)
import tipcrit.field as field_module
from tipcrit.integrate import _drive_pieces
from conftest import evaluate

# closed-form basin depths of x(x-1)(x+2): interior critical points are
# (-1 +/- sqrt(7)) / 3, giving extrema (2 -/+ 14*sqrt(7)) / 27
MU_PLUS_CUBIC = (14.0 * math.sqrt(7.0) - 20.0) / 27.0
MU_MINUS_CUBIC = (20.0 + 14.0 * math.sqrt(7.0)) / 27.0


# --------------------------------------------------------------------------
# parsing and evaluation
# --------------------------------------------------------------------------

def test_parse_and_evaluate_quadratic():
    expr = parse_field("x^2-1")
    assert evaluate(expr, 2.0) == 3.0


def test_parse_and_evaluate_cubic_product():
    expr = parse_field("x*(x-1)*(x+2)")
    assert evaluate(expr, -1.0) == 2.0


def test_double_caret_is_syntax_error_at_offset_two():
    with pytest.raises(ParseError) as excinfo:
        parse_field("x^^2")
    assert excinfo.value.position == 2


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_field("x + q")


def test_mixed_variable_names_rejected():
    with pytest.raises(ParseError, match="mixed variable"):
        parse_field("x + y")


def test_variable_may_be_named_y():
    expr = parse_field("y^2 - 1")
    assert evaluate(expr, 3.0) == 8.0


def test_whitespace_insensitive():
    a = parse_field("x^2-1")
    b = parse_field("  x ^ 2   -   1 ")
    for x in (-2.0, 0.3, 1.7):
        assert evaluate(a, x) == evaluate(b, x)


def test_function_calls_and_precedence():
    expr = parse_field("2*tanh(x) + sin(x)*cos(x) - exp(-x^2)")
    x = 0.7
    expected = (2 * math.tanh(x) + math.sin(x) * math.cos(x)
                - math.exp(-x ** 2))
    assert evaluate(expr, x) == pytest.approx(expected, rel=1e-15)


def test_unary_minus_binds_looser_than_power():
    assert evaluate(parse_field("-x^2"), 3.0) == -9.0


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError, match="integer"):
        parse_field("x^2.5")


def test_function_without_parens_rejected():
    with pytest.raises(ParseError):
        parse_field("sin x")


def test_division_by_zero_reports_fault():
    expr = parse_field("1/x")
    with pytest.raises(FieldAnalysisError, match="undefined at x = 0.0"):
        evaluate(expr, 0.0)


@pytest.mark.parametrize("text, expected", [
    ("2-exp(x^2)", -math.inf), ("exp(x^2)", math.inf)])
def test_overflow_evaluates_to_the_signed_inf(text, expected):
    assert evaluate(parse_field(text), 100.0) == expected


def test_compiled_callable_matches_tree_walk():
    text = "x^3 - 2*x + sin(x)/(x^2+1)"
    expr = parse_field(text)
    fn = ScalarField.from_text(text).f
    for x in np.linspace(-3, 3, 41):
        assert fn(float(x)) == pytest.approx(evaluate(expr, float(x)), rel=1e-15)


# --------------------------------------------------------------------------
# differentiation
# --------------------------------------------------------------------------

def test_power_rule():
    deriv = differentiate(parse_field("x^2-1"))
    assert evaluate(deriv, -1.0) == -2.0


def test_product_rule_on_cubic():
    deriv = differentiate(parse_field("x*(x-1)*(x+2)"))
    assert evaluate(deriv, 0.0) == -2.0


def test_tanh_derivative_at_origin():
    deriv = differentiate(parse_field("tanh(x)"))
    assert evaluate(deriv, 0.0) == 1.0


@pytest.mark.parametrize("text", [
    "x^2-1",
    "x*(x-1)*(x+2)",
    "tanh(x) - 0.5*x",
    "sin(x)*exp(-x^2) + cos(2*x)",
    "(x^3 - x)/(x^2 + 1)",
    "-x + x^5/120",
])
def test_symbolic_derivative_matches_finite_differences(text):
    field = ScalarField.from_text(text)
    xs = np.linspace(-3.0, 3.0, 1000)
    for x in xs:
        x = float(x)
        h = 1e-6 * max(1.0, abs(x))
        fd = (field.f(x + h) - field.f(x - h)) / (2.0 * h)
        exact = field.df(x)
        scale = max(abs(exact), abs(fd), 1e-3)
        assert abs(exact - fd) <= 1e-6 * scale


# the Python sources that f and f' are compiled from, over every operator,
# unary minus, negative and zero integer powers and each function; every
# recorded output is computed from these texts
_COMPILED_SOURCES = {
    "x^2-1": ("((x ** (2)) - 1.0)", "(2.0 * x)"),
    "x*(x-1)*(x+2)": ("((x * (x - 1.0)) * (x + 2.0))",
                      "((((x - 1.0) + x) * (x + 2.0)) + (x * (x - 1.0)))"),
    "(x^2-1)/(1+x^2)": (
        "(((x ** (2)) - 1.0) / (1.0 + (x ** (2))))",
        "((((2.0 * x) * (1.0 + (x ** (2)))) - (((x ** (2)) - 1.0) * "
        "(2.0 * x))) / ((1.0 + (x ** (2))) ** (2)))"),
    "(x^2-1)*exp(x/4)": (
        "(((x ** (2)) - 1.0) * exp((x / 4.0)))",
        "(((2.0 * x) * exp((x / 4.0))) + (((x ** (2)) - 1.0) * "
        "(exp((x / 4.0)) * (4.0 / (4.0 ** (2))))))"),
    "sin(x)-0.3": ("(sin(x) - 0.3)", "cos(x)"),
    "x-2*tanh(x)": ("(x - (2.0 * tanh(x)))",
                    "(1.0 - (2.0 * (1.0 - (tanh(x) ** (2)))))"),
    "-x^-2+3/x": ("((-(x ** (-2))) + (3.0 / x))",
                  "((-((-2.0) * (x ** (-3)))) + ((-3.0) / (x ** (2))))"),
    "cos(-x)^3": ("(cos((-x)) ** (3))",
                  "((3.0 * (cos((-x)) ** (2))) * (-(sin((-x)) * (-1.0))))"),
    "2-3-4*5/6/7": ("((2.0 - 3.0) - (((4.0 * 5.0) / 6.0) / 7.0))", "0.0"),
    "x^0+x/2-0*x": ("(((x ** (0)) + (x / 2.0)) - (0.0 * x))",
                    "(2.0 / (2.0 ** (2)))"),
}


@pytest.mark.parametrize("text", list(_COMPILED_SOURCES))
def test_compiled_sources_are_pinned(text):
    field = ScalarField.from_text(text)
    assert (field_module.to_source(field.expr),
            field_module.to_source(field.deriv)) == _COMPILED_SOURCES[text]


# --------------------------------------------------------------------------
# equilibria
# --------------------------------------------------------------------------

def test_find_equilibria_quadratic(quad_field):
    points = find_equilibria(quad_field, (-5.0, 5.0))
    assert len(points) == 2
    assert points[0].location == pytest.approx(-1.0, abs=1e-12)
    assert points[0].stability == "attracting"
    assert points[1].location == pytest.approx(1.0, abs=1e-12)
    assert points[1].stability == "repelling"


def test_find_equilibria_cubic(cubic_field):
    points = find_equilibria(cubic_field, (-5.0, 5.0))
    locations = [p.location for p in points]
    stabilities = [p.stability for p in points]
    assert locations == pytest.approx([-2.0, 0.0, 1.0], abs=1e-11)
    assert stabilities == ["repelling", "attracting", "repelling"]


def test_tangential_root_raises_non_hyperbolic():
    field = ScalarField.from_text("x^2")
    with pytest.raises(NonHyperbolicError):
        find_equilibria(field, (-1.0, 1.0))


def test_no_equilibria():
    field = ScalarField.from_text("x^2+1")
    with pytest.raises(NoEquilibriaError):
        find_equilibria(field, (-3.0, 3.0))


@pytest.mark.parametrize("interval", [(-3.0, math.inf), (-math.inf, 1e2),
                                      (math.nan, 3.0)])
def test_non_finite_interval_is_refused(quad_field, interval):
    with pytest.raises(ValueError, match="is not finite"):
        find_equilibria(quad_field, interval)
    with pytest.raises(ValueError, match="is not finite"):
        analyze_basin(quad_field, -1.0, interval)


def test_root_residual_bound(cubic_field):
    for p in find_equilibria(cubic_field, (-5.0, 5.0)):
        assert abs(cubic_field.f(p.location)) <= 1e-10 * max(
            1.0, abs(cubic_field.f(p.location)))


# --------------------------------------------------------------------------
# basin geometry
# --------------------------------------------------------------------------

def test_quadratic_basin(quad_geometry):
    g = quad_geometry
    assert g.alpha == -math.inf
    assert g.beta == pytest.approx(1.0, abs=1e-12)
    assert g.radius == pytest.approx(2.0, abs=1e-12)
    assert g.mu_plus == pytest.approx(1.0, abs=1e-12)
    assert g.mu_minus == math.inf
    assert g.mu == pytest.approx(1.0, abs=1e-12)


def test_quadratic_basin_is_half_infinite(quad_geometry):
    # the one-sided setting: basin (-inf, 1), escape only over the right side
    assert not quad_geometry.has_side(-1)
    assert quad_geometry.has_side(1)


def test_cubic_basin_against_closed_forms(cubic_geometry):
    g = cubic_geometry
    assert g.alpha == pytest.approx(-2.0, abs=1e-11)
    assert g.beta == pytest.approx(1.0, abs=1e-11)
    assert g.radius == pytest.approx(1.0, abs=1e-11)
    assert g.mu_plus == pytest.approx(MU_PLUS_CUBIC, abs=1e-12)
    assert g.mu_minus == pytest.approx(MU_MINUS_CUBIC, abs=1e-12)
    assert g.mu == pytest.approx(MU_PLUS_CUBIC, abs=1e-12)


def test_cubic_depths_against_dense_grid_oracle(cubic_field, cubic_geometry):
    xs = np.linspace(0.0, 1.0, 2_000_001)
    vals = xs * (xs - 1.0) * (xs + 2.0)
    assert cubic_geometry.mu_plus == pytest.approx(-float(vals.min()), abs=1e-10)
    xs = np.linspace(-2.0, 0.0, 2_000_001)
    vals = xs * (xs - 1.0) * (xs + 2.0)
    assert cubic_geometry.mu_minus == pytest.approx(float(vals.max()), abs=1e-10)


def test_linear_field_has_empty_boundary():
    field = ScalarField.from_text("-x")
    with pytest.raises(EmptyBasinError):
        analyze_basin(field, 0.0, (-5.0, 5.0))


def test_non_attracting_designation_rejected(quad_field):
    with pytest.raises(FieldAnalysisError):
        analyze_basin(quad_field, 1.0)  # repeller designated


def test_attractor_taken_from_the_equilibrium_scan(quad_field):
    geometry = analyze_basin(quad_field, -1.0004)
    assert abs(geometry.attractor + 1.0) <= 1e-15


def test_point_far_from_any_rest_point_rejected(quad_field):
    with pytest.raises(FieldAnalysisError):
        analyze_basin(quad_field, -0.5)


def test_field_pickles_as_its_text():
    field = ScalarField.from_text("x*(x-1)*(x+2)")
    copy = pickle.loads(pickle.dumps(field))
    assert copy.text == field.text
    for x in (-2.5, -0.3, 0.0, 1.7):
        assert copy.f(x) == field.f(x)
        assert copy.df(x) == field.df(x)


def test_degenerate_attractor_reports_non_hyperbolic():
    field = ScalarField.from_text("x^2")
    with pytest.raises(NonHyperbolicError):
        analyze_basin(field, 0.0, (-1.0, 1.0))


def test_field_huge_far_from_basin_is_not_flagged_non_hyperbolic():
    # |f| reaches ~7e14 at the edge of the default +/-100 search window; the
    # flat stretch near x = -8 is far from any root and must not be flagged
    field = ScalarField.from_text("(x^2-1)*exp(x/4)")
    geometry = analyze_basin(field, -1.0)
    assert geometry.beta == pytest.approx(1.0, abs=1e-12)
    assert geometry.alpha == -math.inf


def test_degenerate_root_beyond_the_basin_is_not_analysed():
    # (x-50)^2 is a tangential root far right of the basin (-2, 1); only
    # find_equilibria, which checks every root of the window, still flags it
    field = ScalarField.from_text("x*(x-1)*(x+2)*(x-50)^2")
    geometry = analyze_basin(field, 0.0)
    assert (geometry.alpha, geometry.attractor, geometry.beta) == (-2.0, 0.0,
                                                                   1.0)
    with pytest.raises(NonHyperbolicError, match="x = 50.0"):
        find_equilibria(field, (-100.0, 100.0))


def test_degenerate_neighbour_of_the_attractor_raises():
    # -60 is a tangential root with no sign change: the basin's left end
    with pytest.raises(NonHyperbolicError, match="x = -60.0"):
        analyze_basin(ScalarField.from_text("(x^2-1)*(x+60)^2"), -1.0)


def test_depth_positive_for_test_fields(quad_geometry, cubic_geometry):
    assert quad_geometry.mu > 0.0
    assert cubic_geometry.mu > 0.0


def test_extremum_grid_refinement_invariance(cubic_field, monkeypatch):
    coarse = analyze_basin(cubic_field, 0.0)
    monkeypatch.setattr(field_module, "_EXTREMUM_POINTS", 20_001)
    fine = analyze_basin(cubic_field, 0.0)
    assert abs(coarse.mu_plus - fine.mu_plus) <= 1e-8
    assert abs(coarse.mu_minus - fine.mu_minus) <= 1e-8


def test_critical_point_at_exactly_zero_is_refined():
    # f' vanishes at exactly x = 0; a root solve whose bracket width may
    # shrink to 0 creeps toward it in ever smaller steps and never stops
    c2 = 1.84655
    field = ScalarField.from_text(f"(x^2-{c2})/(1+x^2)")
    geometry = analyze_basin(field, -math.sqrt(c2))
    assert geometry.beta == pytest.approx(math.sqrt(c2), rel=1e-12)
    assert geometry.mu_plus == pytest.approx(c2, rel=1e-12)


def test_basin_analysis_evaluation_budget():
    # the grids alone take 48,006 calls, which leaves about 15 per refined
    # root for the 63 roots of f and 64 of f' in the search window (bisection
    # to float resolution needs about 53 each)
    calls = [0]

    def counted(fn):
        def call(x):
            calls[0] += 1
            return fn(x)
        return call

    field = ScalarField.from_text("sin(x)")
    field = dataclasses.replace(field, f=counted(field.f), df=counted(field.df))
    geometry = analyze_basin(field, math.pi)
    assert geometry.beta == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert calls[0] <= 50_000


@pytest.mark.parametrize("text, attractor", [
    ("sin(x)", math.pi), ("x^2-1", -1.0), ("x*(x-1)*(x+2)", 0.0),
    ("(x^2-1)*exp(x/4)", -1.0)])
def test_grid_scans_leave_the_scalar_field_to_the_root_solves(text, attractor):
    # the grids are evaluated through the numpy binding, so the scalar f and
    # df only refine and check the roots
    calls = [0]

    def counted(fn):
        def call(x):
            calls[0] += 1
            return fn(x)
        return call

    field = ScalarField.from_text(text)
    field = dataclasses.replace(field, f=counted(field.f), df=counted(field.df))
    analyze_basin(field, attractor)
    assert calls[0] <= 1_000


def test_only_the_basin_roots_are_refined():
    # the attractor's cell and one neighbour on each side; sin has 63 roots
    # and 64 critical points in the window, 704 scalar calls when all are
    # refined and checked
    calls = [0]

    def counted(fn):
        def call(x):
            calls[0] += 1
            return fn(x)
        return call

    field = ScalarField.from_text("sin(x)")
    field = dataclasses.replace(field, f=counted(field.f), df=counted(field.df))
    analyze_basin(field, math.pi)
    assert calls[0] <= 60


def test_nan_on_the_grid_is_not_a_root():
    # exp(x^2) - exp(x^2) is inf - inf = nan for |x| above about 26.6
    field = ScalarField.from_text("exp(x^2) - exp(x^2) + x - 1")
    points = find_equilibria(field, (-100.0, 100.0))
    assert [p.location for p in points] == [1.0]


@pytest.mark.parametrize("text", ["(x^2-1)/(x^2-8)", "(x^2-1)/(x-3.01)"])
def test_sign_change_through_a_pole_raises(text):
    # f changes sign through the pole at 2.83 (3.01) right of the attractor,
    # so the basin has no repeller there and must not be reported unbounded
    with pytest.raises(FieldAnalysisError, match="pole"):
        analyze_basin(ScalarField.from_text(text), 1.0)


def test_overflow_at_a_refined_root_raises():
    # a df that overflows near the rest points of x^2-1 only: the refined
    # root x = -1 is checked through it
    field = ScalarField.from_text("x^2-1")

    def df(x):
        return math.exp(1e3) if abs(abs(x) - 1.0) < 0.1 else 2.0 * x
    with pytest.raises(FieldAnalysisError,
                       match="overflows at the refined root x = -1.0"):
        find_equilibria(dataclasses.replace(field, df=df), (-3.0, 3.0))


# --------------------------------------------------------------------------
# forced-phase right-hand sides
# --------------------------------------------------------------------------

# a field of each query family, and the two campaign fields
RHS_FIELDS = ("x^2-1.3", "(x+1.2)*(x-0.1)*(x-1.5)", "sin(x)-0.3",
              "x-2.5*tanh(x)", "(x^2-1.7)/(1+x^2)", "(x^2-0.64)*(x^2-3.61)",
              "(x^2-1.1)*exp(x/4)", "x^2-1", "x*(x-1)*(x+2)")


def _tanh_pulse(ramp):
    """``amp sech^2(k t)`` on ``[-T, T)``, 0 outside, as the composed
    closure over the ramp's constants that forced phases once called."""
    k = 0.5 * ramp.lambda_inf * ramp.rate
    amp = (0.5 * ramp.lambda_inf) ** 2 * ramp.rate
    T = ramp.truncation_time

    def pulse(t):
        if t < -T or t >= T:
            return 0.0
        sech = 1.0 / math.cosh(k * t)
        return amp * sech * sech
    return pulse


def _outcome(rhs, t, y):
    """``rhs(t, y)`` as its float's hex, or the class of what it raised."""
    try:
        return rhs(t, y).hex()
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


def _rhs_pairs(field, ramp):
    """``(compiled, composed)`` right-hand sides of the forced phases: the
    constant drives and the ramp's pulse, forward and in reverse, the
    pulses taken from the pieces of ``_drive_pieces``."""
    f = field.f
    pairs = []
    for c in (0.0, -0.0, 1.5, -2.3125, 1e-300, 7.0e5):
        pairs.append((field._rhs("drive", c), lambda t, y, c=c: f(y) + c))
        pairs.append((field._rhs("reverse drive", c),
                      lambda s, y, c=c: -(f(y) + c)))
    u, T = _tanh_pulse(ramp), ramp.truncation_time
    for reverse, composed in ((False, lambda t, y: f(y) + u(t)),
                              (True, lambda s, y: -(f(y) + u(-s)))):
        pieces = _drive_pieces(field, ramp, -2.0 * T, 2.0 * T, reverse)
        assert len(pieces) == 3
        pairs += [(rhs, composed) for _, _, rhs in pieces]
    return pairs


@pytest.mark.parametrize("text", RHS_FIELDS)
def test_compiled_right_hand_sides_equal_the_composed_ones(text):
    field = ScalarField.from_text(text)
    for ramp in (make_tanh_ramp(3.0, 0.7), make_tanh_ramp(10.0, 0.02)):
        T = ramp.truncation_time
        times = [0.0, 0.3 * T, -0.71 * T, 3.0 * T, -3.0 * T]
        for edge in (-T, T):  # each edge exactly, and its float neighbours
            times += [edge, math.nextafter(edge, -math.inf),
                      math.nextafter(edge, math.inf)]
        states = [-3.7, -1.0, -0.25, 0.0, 0.6, 1.0, 2.9, 41.0, -1e3]
        for compiled, composed in _rhs_pairs(field, ramp):
            for t in times:
                for y in states:
                    assert (_outcome(compiled, t, y)
                            == _outcome(composed, t, y)), (t, y)


@pytest.mark.parametrize("text, y, fault", [
    ("exp(x)", 800.0, OverflowError),
    ("x^2-1", 1e200, OverflowError),
    ("1/(x-1)", 1.0, ZeroDivisionError)])
def test_compiled_right_hand_sides_raise_as_the_field_does(text, y, fault):
    field = ScalarField.from_text(text)
    with pytest.raises(fault):
        field.f(y)
    ramp = make_tanh_ramp(3.0, 0.7)
    for compiled, composed in _rhs_pairs(field, ramp):
        for t in (0.0, ramp.truncation_time, 5.0 * ramp.truncation_time):
            assert _outcome(compiled, t, y) is fault
            assert _outcome(composed, t, y) is fault


def test_right_hand_side_kinds_compile_on_first_use():
    field = ScalarField.from_text("x^2-1")
    assert field._makers == {}
    assert field._rhs("drive", 2.0)(0.0, 3.0) == 10.0
    assert list(field._makers) == ["drive"]
    assert field._rhs("drive", -1.0)(0.0, 3.0) == 7.0
    assert list(field._makers) == ["drive"]
    field._rhs("reverse pulse", 1.0, 2.0, 3.0)
    assert sorted(field._makers) == ["drive", "reverse pulse"]
