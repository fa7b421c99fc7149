"""Pullback starts, outcome classification, frames, threshold bracketing."""
import dataclasses
import importlib
import math

import numpy as np
import pytest

import tipcrit.integrate as integrate_module
from tipcrit import (
    IntegrationError,
    IntegrationSettings,
    PiecewiseLinear,
    ScalarField,
    StraddleError,
    ThresholdBracket,
    analyze_basin,
    boundary_arrival,
    classify,
    critical_rate,
    first_passage_time,
    integrate_pieces,
    make_piecewise_linear_ramp,
    make_tanh_ramp,
    prototype_critical_rate_smooth,
    prototype_critical_slope,
    pullback_start,
    sample_random_forcing,
    threshold_bracket,
    verify_lower_bound,
)
from tipcrit.harness import ramp_family, random_forcing_for_sample
from tipcrit.integrate import Trajectory
from conftest import integrate_profile, pulse_profile

MC_LAMBDA_3 = 2.1620322634033124


# --------------------------------------------------------------------------
# pullback start
# --------------------------------------------------------------------------

def test_pullback_start_for_ramp(quad_field, quad_geometry):
    t0, y0 = pullback_start(quad_field, quad_geometry,
                            make_piecewise_linear_ramp(3.0, 2.0))
    assert t0 == 0.0
    assert y0 == quad_geometry.attractor


def test_pullback_start_for_truncated_tanh(quad_field, quad_geometry):
    tail = 1e-10
    ramp = make_tanh_ramp(3.0, 1.0)
    t0, y0 = pullback_start(quad_field, quad_geometry, ramp)
    assert t0 == -ramp.truncation_time
    assert y0 == quad_geometry.attractor
    untruncated = 1.5 * (1.0 + math.tanh(1.5 * t0))
    assert untruncated <= 3.0 * tail * (1 + 1e-12)


def test_pullback_start_shifted_ramp(quad_field, quad_geometry):
    ramp = PiecewiseLinear(((5.0, 0.0), (6.5, 3.0)))
    t0, y0 = pullback_start(quad_field, quad_geometry, ramp)
    assert t0 == 5.0
    assert y0 == quad_geometry.attractor


# --------------------------------------------------------------------------
# classification of the prototype ramps
# --------------------------------------------------------------------------

def test_subcritical_ramp_tracks(quad_field, quad_geometry):
    out = classify(quad_field, quad_geometry,
                   make_piecewise_linear_ramp(3.0, 2.0))
    assert out.variant == "tracks"
    assert out.final_distance_to_attractor <= 1e-6 * quad_geometry.radius


def test_supercritical_ramp_tips(quad_field, quad_geometry):
    out = classify(quad_field, quad_geometry,
                   make_piecewise_linear_ramp(3.0, 2.3))
    assert out.variant == "tips"
    assert out.exit_side == 1
    assert out.exit_time is not None


def test_near_critical_ramp_grazes_boundary(quad_field, quad_geometry):
    rate = critical_rate(quad_geometry, quad_field, 3.0)
    for slope in (rate.m_c * (1 + 1e-8), rate.m_c * (1 - 1e-8)):
        out = classify(quad_field, quad_geometry,
                       make_piecewise_linear_ramp(3.0, slope))
        assert out.min_boundary_distance <= 1e-4
        assert abs(out.y_at_forcing_end - quad_geometry.beta) <= 1e-4


def test_subcritical_tanh_tracks(quad_field, quad_geometry):
    out = classify(quad_field, quad_geometry, make_tanh_ramp(3.0, 1.0))
    assert out.variant == "tracks"


def test_supercritical_tanh_tips(quad_field, quad_geometry):
    out = classify(quad_field, quad_geometry, make_tanh_ramp(3.0, 1.5))
    assert out.variant == "tips"
    assert out.exit_side == 1


def test_small_amplitude_never_tips(quad_field, quad_geometry):
    # displacement below the basin radius cannot reach the boundary
    for slope in (0.5, 5.0, 500.0):
        out = classify(quad_field, quad_geometry,
                       make_piecewise_linear_ramp(1.5, slope))
        assert out.variant == "tracks"


def test_time_translation_does_not_change_outcome(quad_field, quad_geometry):
    for slope in (2.0, 2.3):
        base = classify(quad_field, quad_geometry,
                        make_piecewise_linear_ramp(3.0, slope))
        shifted = classify(quad_field, quad_geometry, PiecewiseLinear(
            ((7.0, 0.0), (7.0 + 3.0 / slope, 3.0))))
        assert base.variant == shifted.variant


def test_down_ramp_on_two_sided_basin(cubic_field, cubic_geometry):
    # pushing toward the deep side: displacement -3 exceeds the left path
    # length 2 and a slope of 10 spends less than 3 in fuel, so the
    # trajectory escapes low
    from tipcrit import PiecewiseLinear
    down_profile = PiecewiseLinear(((0.0, 0.0), (0.3, -3.0)))
    out = classify(cubic_field, cubic_geometry, down_profile)
    assert out.variant == "tips"
    assert out.exit_side == -1


def test_outcome_json_shape(quad_field, quad_geometry):
    out = classify(quad_field, quad_geometry,
                   make_piecewise_linear_ramp(3.0, 2.3))
    payload = out.to_json_dict()
    assert payload["variant"] == "tips"
    assert {"exit_side", "exit_time", "y_at_forcing_end",
            "min_boundary_distance"} <= payload.keys()


# --------------------------------------------------------------------------
# non-monotone forcings: the end state decides
# --------------------------------------------------------------------------

# up at slope 10 past beta, then back down at slope -10 to 0
OUT_AND_BACK = PiecewiseLinear(((0.0, 0.0), (0.24, 2.4), (0.48, 0.0)))


def test_tail_passage_builds_no_mesh(quad_field, quad_geometry):
    # just past the threshold 2.162, the ramp ends between beta and the exit
    # threshold, and the bare field carries the state out along a one-off
    # tail path, whose quadrature starts from a single panel
    profile = make_piecewise_linear_ramp(3.0, 2.1621)
    first_passage_time(quad_field, 0.0, 0.5, -0.5)  # one path in the memo
    kept = list(quad_field._paths.items())
    out = classify(quad_field, quad_geometry, profile)
    assert out.variant == "tips"
    assert list(quad_field._paths) == [key for key, _ in kept]
    assert all(quad_field._paths[key] is mesh for key, mesh in kept)
    y, exit_threshold = out.y_at_forcing_end, out.final_value
    assert quad_geometry.beta < y < exit_threshold
    passage = first_passage_time(quad_field, 0.0, y, exit_threshold)
    assert out.exit_time - profile.end_time() == pytest.approx(passage,
                                                               rel=1e-10)


def test_excursion_past_boundary_that_returns_tracks(quad_field,
                                                     quad_geometry):
    out = classify(quad_field, quad_geometry, OUT_AND_BACK)
    assert out.variant == "tracks"
    assert out.min_boundary_distance == 0.0
    f = quad_field.f
    free = integrate_pieces([(0.0, 0.24, lambda t, y: f(y) + 10.0),
                             (0.24, 0.48, lambda t, y: f(y) - 10.0)],
                            quad_geometry.attractor)
    assert free.reason == "reached_t_end"
    assert out.y_at_forcing_end == pytest.approx(free.final_state, abs=1e-6)


def test_excursion_control_arrives_at_boundary(quad_field, quad_geometry):
    control = pulse_profile((0.0, 0.24, 10.0), (0.24, 0.48, -10.0))
    assert boundary_arrival(quad_field, quad_geometry, control)
    assert verify_lower_bound(quad_geometry, quad_field, control).satisfied


# up at slope 3 until the state passes beta by less than the exit margin
# (about 7.8e-5, so no exit event fires), then back down at slope -3
GRAZE_T = 0.8704458643676509
GRAZE = PiecewiseLinear(((0.0, 0.0), (GRAZE_T, 2.6113375931029528),
                         (1.7408917287353018, 0.0)))


def test_crossing_within_the_exit_margin_has_zero_boundary_distance(
        quad_field, quad_geometry):
    out = classify(quad_field, quad_geometry, GRAZE)
    assert out.variant == "tracks"
    assert out.min_boundary_distance == 0.0


def test_control_crossing_within_the_exit_margin_arrives(quad_field,
                                                         quad_geometry):
    control = pulse_profile((0.0, GRAZE_T, 3.0),
                            (GRAZE_T, 1.7408917287353018, -3.0))
    assert boundary_arrival(quad_field, quad_geometry, control) is True
    assert verify_lower_bound(quad_geometry, quad_field, control).satisfied


@pytest.mark.parametrize("short_by,arrives", [(0.5e-5, True), (2e-5, False)])
def test_boundary_arrival_grazes_within_one_hundred_thousandth_radius(
        quad_field, quad_geometry, short_by, arrives):
    # a pulse that stops short_by * R below beta, then relaxes back
    target = quad_geometry.beta - short_by * quad_geometry.radius
    width = first_passage_time(quad_field, 2.0, quad_geometry.attractor,
                               target)
    control = pulse_profile((0.0, width, 2.0))
    assert boundary_arrival(quad_field, quad_geometry, control) is arrives


@pytest.mark.parametrize("text,attractor", [("x^2-1", -1.0),
                                            ("x*(x-1)*(x+2)", 0.0)])
def test_random_forcings_match_event_free_end_state(text, attractor):
    # oracle: integrate the whole forcing without events; the 1-D basin
    # holds no other rest point, so an end state inside (alpha, beta) tracks
    field = ScalarField.from_text(text)
    geometry = analyze_basin(field, attractor)
    arclength = 3.0 * geometry.radius
    cap = 3.0 * critical_rate(geometry, field, arclength).m_c
    for seed in range(200):
        profile = sample_random_forcing(arclength, cap, 1 + seed % 8, seed)
        free = integrate_profile(field, profile, attractor,
                                 profile.start_time(), profile.end_time())
        inside = (free.reason == "reached_t_end"
                  and geometry.alpha < free.final_state < geometry.beta)
        expected = "tracks" if inside else "tips"
        assert classify(field, geometry, profile).variant == expected, seed


@pytest.mark.parametrize("index", [16, 40, 55])
def test_step_underflow_past_the_threshold_tips(cubic_field, cubic_geometry,
                                                index):
    # these forcings blow up faster than quadratically, and the step size
    # underflows short of y_blowup
    m_c = critical_rate(cubic_geometry, cubic_field, 5.0).m_c
    profile = random_forcing_for_sample(5.0, 2.0 * m_c, 7, index)
    out = classify(cubic_field, cubic_geometry, profile)
    assert out.variant == "tips"
    assert out.exit_side == 1


def test_step_faults_inside_the_thresholds_or_at_the_limit_raise(
        monkeypatch, quad_field, quad_geometry):
    profile = make_piecewise_linear_ramp(3.0, 2.3)
    for reason, y_last, message in (
            ("step_failure", 0.0, "step size underflow"),
            ("step_limit", quad_geometry.beta + 1.0, "step limit")):
        def stopped(pieces, y0, events, settings, _stop=None, _reason=reason,
                    _y=y_last):
            return Trajectory([pieces[0][0], pieces[0][0] + 0.5], [y0, _y],
                              _reason)

        # the package's ``classify`` function shadows the module's name
        monkeypatch.setattr(importlib.import_module("tipcrit.classify"),
                            "integrate_pieces", stopped)
        with pytest.raises(IntegrationError, match=message):
            classify(quad_field, quad_geometry, profile)


def test_blow_up_inside_the_basin_raises(quad_field, quad_geometry):
    # a drive of -2e13 for 1e-7 carries the state past -1e6, on the side
    # where alpha = -inf and f > 0 returns it to the attractor: the stop at
    # |y| >= 1e6 is the integrator's cap, not an escape
    assert quad_geometry.alpha == -math.inf
    profile = PiecewiseLinear(((0.0, 0.0), (1e-7, -2e6)))
    with pytest.raises(IntegrationError, match="blow-up"):
        classify(quad_field, quad_geometry, profile)


def test_end_state_on_a_boundary_point_is_critical(monkeypatch, quad_field,
                                                   quad_geometry):
    beta = quad_geometry.beta

    def ends_on_beta(pieces, y0, events, settings, _stop=None):
        return Trajectory([pieces[0][0], pieces[-1][1]], [y0, beta],
                          "reached_t_end")

    monkeypatch.setattr(CLASSIFY_MODULE, "integrate_pieces", ends_on_beta)
    out = classify(quad_field, quad_geometry,
                   make_piecewise_linear_ramp(3.0, 2.3))
    assert out.variant == "critical"
    assert out.boundary_distance == 0.0
    assert out.exit_time is None
    assert out.exit_side is None
    assert (out.final_value, out.min_boundary_distance) == (beta, 0.0)
    assert list(out.to_json_dict()) == [
        "variant", "boundary_distance", "y_at_forcing_end",
        "min_boundary_distance", "final_time", "final_value"]


# --------------------------------------------------------------------------
# original-frame reporting
# --------------------------------------------------------------------------

def _x_frame(out, profile):
    """``(final_value, y_at_forcing_end)`` of a co-moving outcome in the
    original (shifting) frame: each position less the forcing value at its
    own time."""
    return (out.final_value - profile.value(out.final_time),
            out.y_at_forcing_end - profile.value(profile.end_time()))


def test_x_frame_tracking_limit(quad_field, quad_geometry):
    profile = make_piecewise_linear_ramp(3.0, 2.0)
    out = classify(quad_field, quad_geometry, profile)
    assert out.variant == "tracks"
    # the attractor seen in the shifting frame ends at a - lambda_inf = -4
    assert _x_frame(out, profile)[0] == pytest.approx(-4.0, abs=1e-5)


def test_x_frame_near_critical_boundary_limit(quad_field, quad_geometry):
    rate = critical_rate(quad_geometry, quad_field, 3.0)
    profile = make_piecewise_linear_ramp(3.0, rate.m_c)
    out = classify(quad_field, quad_geometry, profile)
    # balanced on the moving boundary: beta - lambda_inf = -2
    assert _x_frame(out, profile)[1] == pytest.approx(-2.0, abs=1e-4)


def test_frame_variants_agree_on_random_forcings(quad_field, quad_geometry,
                                                 cubic_field, cubic_geometry):
    # the variant from the shifting frame, x' = f(x + lam(t)) integrated
    # knot to knot from the attractor: a blow-up or an end state
    # x + lam outside the basin tips
    rng = np.random.default_rng(5150)
    cases = ((quad_field, quad_geometry), (cubic_field, cubic_geometry))
    for i in range(100):
        field, geometry = cases[i % 2]
        arclength = float(rng.uniform(0.5, 4.0))
        cap = float(rng.uniform(0.3, 4.0))
        n = int(rng.integers(1, 8))
        profile = sample_random_forcing(arclength, cap, n,
                                        int(rng.integers(0, 2**62)))
        lam, f = profile.value, field.f
        pieces = [(t0, t1, lambda t, x: f(x + lam(t)))
                  for (t0, _), (t1, _) in zip(profile.knots,
                                               profile.knots[1:])]
        traj = integrate_pieces(pieces, geometry.attractor)
        y = traj.final_state + profile.final_value()
        shifted = ("tracks" if traj.reason == "reached_t_end"
                   and geometry.alpha < y < geometry.beta else "tips")
        assert classify(field, geometry, profile).variant == shifted


def test_x_frame_matches_direct_shifting_integration(quad_field,
                                                     quad_geometry):
    # independent route: integrate x' = f(x + lam(t)) directly and compare
    # the forced-phase endpoint through the coordinate change
    profile = make_tanh_ramp(3.0, 1.0)
    f = quad_field.f
    lam = profile.value
    t0, t1 = profile.start_time(), profile.end_time()
    traj = integrate_pieces([(t0, t1, lambda t, x: f(x + lam(t)))],
                            quad_geometry.attractor)
    assert traj.reason == "reached_t_end"
    out = classify(quad_field, quad_geometry, profile)
    assert traj.final_state + lam(t1) == pytest.approx(out.y_at_forcing_end,
                                                       abs=1e-6)


# --------------------------------------------------------------------------
# threshold bracketing
# --------------------------------------------------------------------------

def test_linear_family_threshold_matches_implicit_equation(quad_field,
                                                           quad_geometry):
    bracket = threshold_bracket(
        quad_field, quad_geometry,
        lambda m: make_piecewise_linear_ramp(3.0, m), (1.8, 2.6))
    assert abs(bracket.param_critical - MC_LAMBDA_3) <= 1e-3
    assert abs(bracket.param_critical
               - prototype_critical_slope(3.0)) <= 1e-3
    assert bracket.bracket_width <= 1e-5 * bracket.param_critical


def test_tanh_family_threshold_matches_closed_form(quad_field, quad_geometry):
    bracket = threshold_bracket(
        quad_field, quad_geometry,
        lambda r: make_tanh_ramp(3.0, r), (0.8, 2.2))
    r_c = prototype_critical_rate_smooth(3.0)
    assert abs(bracket.param_critical - r_c) <= 1e-3 * r_c


@pytest.mark.parametrize("amplitude,family,param_range", [
    (10.0, make_tanh_ramp, (0.01, 0.2)),
    (3.0, make_piecewise_linear_ramp, (1.8, 2.6)),
], ids=["tanh", "linear"])
def test_threshold_bracket_width_is_one_millionth(quad_field, quad_geometry,
                                                  amplitude, family,
                                                  param_range):
    # bisection stops at the first bracket within 1e-6 of its larger end,
    # so the bracket is also wider than half that
    bracket = threshold_bracket(quad_field, quad_geometry,
                                lambda p: family(amplitude, p), param_range)
    hi = bracket.param_critical + 0.5 * bracket.bracket_width
    assert 0.5e-6 * hi < bracket.bracket_width <= 1e-6 * hi
    if family is make_tanh_ramp:
        assert bracket.param_critical == pytest.approx(0.05, rel=1e-5)


def test_no_threshold_when_amplitude_below_radius(quad_field, quad_geometry):
    with pytest.raises(StraddleError):
        threshold_bracket(quad_field, quad_geometry,
                          lambda m: make_piecewise_linear_ramp(1.5, m),
                          (0.5, 400.0))


def test_family_outcomes_do_not_interleave(quad_field, quad_geometry):
    bracket = threshold_bracket(
        quad_field, quad_geometry,
        lambda m: make_piecewise_linear_ramp(3.0, m), (1.8, 2.6))
    m_star = bracket.param_critical
    for frac in (0.90, 0.97, 0.999):
        out = classify(quad_field, quad_geometry,
                       make_piecewise_linear_ramp(3.0, frac * m_star))
        assert out.variant == "tracks"
    for frac in (1.001, 1.03, 1.10):
        out = classify(quad_field, quad_geometry,
                       make_piecewise_linear_ramp(3.0, frac * m_star))
        assert out.variant == "tips"


def test_exit_event_located_in_few_evaluations(quad_field, quad_geometry):
    # the exit crossing is a root in time inside one accepted step; halving
    # the step down to 1e-10 costs about 30 sub-steps of 5 calls each.  Every
    # right-hand-side evaluation calls the field's scalar f once
    calls = [0]

    def counted(y):
        calls[0] += 1
        return quad_field.f(y)

    field = dataclasses.replace(quad_field, f=counted)
    out = classify(field, quad_geometry, make_piecewise_linear_ramp(3.0, 2.3))
    assert calls[0] <= 220
    assert out.variant == "tips"
    assert out.exit_time == pytest.approx(1.2630407015408316, abs=1e-9)
    assert out.y_at_forcing_end == pytest.approx(1.0002, abs=1e-9)


# --------------------------------------------------------------------------
# threshold bracketing: shooting, certification and the bisection fallback
# --------------------------------------------------------------------------

CLASSIFY_MODULE = importlib.import_module("tipcrit.classify")


def _bisected_threshold(field, geometry, family, lo, hi):
    """Reference: the tips/tracks bisection from the range ends alone."""
    def tips(param):
        return classify(field, geometry, family(param)).variant != "tracks"

    assert not tips(lo) and tips(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if tips(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-6 * max(abs(lo), abs(hi)):
            return ThresholdBracket(0.5 * (lo + hi), hi - lo)


def _counted_bracket(monkeypatch, field, geometry, family, param_range):
    """threshold_bracket, with its classify calls and the half-solves of its
    shots (integrations outside classify) counted, the accepted steps of the
    half-solves summed, the settings of every integration recorded with
    whether it ran inside classify, and each classify call's variant
    recorded with its accepted steps."""
    counts = {"classify": 0, "half_solves": 0, "shot_steps": 0,
              "settings": [], "certify": []}
    inside = [False]
    certify_steps = [0]
    real_classify = CLASSIFY_MODULE.classify
    real_pieces = CLASSIFY_MODULE.integrate_pieces

    def counted_classify(*args, **kwargs):
        counts["classify"] += 1
        inside[0] = True
        certify_steps[0] = 0
        try:
            out = real_classify(*args, **kwargs)
        finally:
            inside[0] = False
        counts["certify"].append((out.variant, certify_steps[0]))
        return out

    def counted_pieces(pieces, y0, events=(), settings=None, **kwargs):
        counts["settings"].append((inside[0], settings))
        traj = real_pieces(pieces, y0, events, settings, **kwargs)
        if inside[0]:
            certify_steps[0] += len(traj.times) - 1
        else:
            counts["half_solves"] += 1
            counts["shot_steps"] += len(traj.times) - 1
        return traj

    monkeypatch.setattr(CLASSIFY_MODULE, "classify", counted_classify)
    monkeypatch.setattr(CLASSIFY_MODULE, "integrate_pieces", counted_pieces)
    bracket = threshold_bracket(field, geometry, family, param_range)
    monkeypatch.undo()
    return bracket, counts


@pytest.mark.parametrize("kind,amplitude", [
    ("tanh", 2.5), ("tanh", 10.0), ("tanh", 18.0),
    ("linear", 3.0), ("linear", 10.0)])
def test_shot_threshold_is_certified_in_few_classify_calls(
        monkeypatch, quad_field, quad_geometry, kind, amplitude):
    # the prototype families over the fixed ranges of _prototype_family;
    # bisection alone takes 22-24 classify calls
    if kind == "tanh":
        def family(r):
            return make_tanh_ramp(amplitude, r)
        ref = prototype_critical_rate_smooth(amplitude)
        param_range = (0.4 * ref, 2.5 * ref)
    else:
        def family(m):
            return make_piecewise_linear_ramp(amplitude, m)
        ref = prototype_critical_slope(amplitude)
        param_range = (0.7 * ref, 1.4 * ref)
    bracket, counts = _counted_bracket(monkeypatch, quad_field, quad_geometry,
                                       family, param_range)
    assert counts["classify"] <= 4
    assert counts["half_solves"] <= 24
    half = 0.5 * bracket.bracket_width
    below = classify(quad_field, quad_geometry,
                     family(bracket.param_critical - half))
    above = classify(quad_field, quad_geometry,
                     family(bracket.param_critical + half))
    assert below.variant == "tracks"
    assert above.variant == "tips"
    assert abs(bracket.param_critical - ref) <= 1e-3 * ref


def _prototype_family(kind, amplitude):
    """A prototype family and a fixed range for it: ``(0.4, 2.5) r_c`` for
    the sigmoid, and prototype_table's ``(0.7, 1.4) m_c`` for the ramp."""
    if kind == "tanh":
        ref = prototype_critical_rate_smooth(amplitude)
        return (lambda r: make_tanh_ramp(amplitude, r)), (0.4 * ref, 2.5 * ref)
    ref = prototype_critical_slope(amplitude)
    return ((lambda m: make_piecewise_linear_ramp(amplitude, m)),
            (0.7 * ref, 1.4 * ref))


@pytest.mark.parametrize("kind,amplitude", [
    ("tanh", 2.5), ("tanh", 10.0), ("tanh", 18.0),
    ("linear", 3.0), ("linear", 10.0)])
def test_certification_stays_at_the_default_settings(
        monkeypatch, quad_field, quad_geometry, kind, amplitude):
    # loose shots only place the guess: every classify integration runs at
    # the default settings, so the bracket matches bisection's
    family, param_range = _prototype_family(kind, amplitude)
    bracket, counts = _counted_bracket(monkeypatch, quad_field, quad_geometry,
                                       family, param_range)
    shots = CLASSIFY_MODULE._SHOOTING
    assert shots != IntegrationSettings()
    if kind == "tanh":
        assert counts["half_solves"] > 0
    else:  # a one-segment ramp's residual is a quadrature: no shots
        assert counts["half_solves"] == 0
        assert counts["classify"] == 2
    for inside, settings in counts["settings"]:
        assert settings == (IntegrationSettings() if inside else shots)
    reference = _bisected_threshold(quad_field, quad_geometry, family,
                                    *param_range)
    assert (abs(bracket.param_critical - reference.param_critical)
            <= bracket.bracket_width)


def test_shot_steps_of_one_tanh_bracket(monkeypatch, quad_field,
                                        quad_geometry):
    # a work guard: the half-solves of this bracket take 1020 accepted
    # steps at the shot tolerance, and 2563 at the default settings
    family, param_range = _prototype_family("tanh", 10.0)
    _, counts = _counted_bracket(monkeypatch, quad_field, quad_geometry,
                                 family, param_range)
    assert counts["shot_steps"] <= 1100


def test_tracking_certify_steps_of_one_tanh_bracket(monkeypatch, quad_field,
                                                    quad_geometry):
    # a work guard: the certifying classify calls of this bracket that
    # track take 346 accepted steps to the end of the forcing, and 211 once
    # the remaining-arclength rule stops them
    family, param_range = _prototype_family("tanh", 10.0)
    _, counts = _counted_bracket(monkeypatch, quad_field, quad_geometry,
                                 family, param_range)
    tracking = [n for variant, n in counts["certify"] if variant == "tracks"]
    assert len(tracking) == 1
    assert tracking[0] <= 225


def _variant_only_agrees(field, geometry, profile):
    """Whether the remaining-arclength stop decides as ``classify`` does,
    and whether it ended the forced phase before the forcing did."""
    fast = classify(field, geometry, profile, _variant_only=True)
    full = classify(field, geometry, profile)
    return ((fast.variant != "tracks") == (full.variant != "tracks"),
            fast.y_at_forcing_end != full.y_at_forcing_end)


@pytest.mark.parametrize("kind", ["tanh", "linear"])
@pytest.mark.parametrize("amplitude", [2.3, 4.0, 7.0, 12.0, 19.0])
def test_remaining_arclength_stop_decides_as_classify(quad_field,
                                                      quad_geometry, kind,
                                                      amplitude):
    if kind == "tanh":
        ref = prototype_critical_rate_smooth(amplitude)
        family = lambda r: make_tanh_ramp(amplitude, r)
    else:
        ref = prototype_critical_slope(amplitude)
        family = lambda m: make_piecewise_linear_ramp(amplitude, m)
    stopped = 0
    for rel in (3.75e-7, 1e-3, 1e-1):
        for sign in (-1.0, 1.0):
            agrees, early = _variant_only_agrees(
                quad_field, quad_geometry, family(ref * (1.0 + sign * rel)))
            assert agrees
            stopped += early
    if amplitude >= 4.0:  # at 2.3 the rule holds only near the forcing's end
        assert stopped > 0


def test_remaining_arclength_stop_through_alpha(cubic_field, cubic_geometry):
    # downward ramps toward the cubic's alpha = -2: the rule's mirrored half
    family = ramp_family(-1, 2.5)
    ref = threshold_bracket(cubic_field, cubic_geometry, family,
                            (4.0, 10.0)).param_critical
    stopped = 0
    for rel in (1e-5, 1e-3, 1e-1):
        for sign in (-1.0, 1.0):
            agrees, early = _variant_only_agrees(
                cubic_field, cubic_geometry, family(ref * (1.0 + sign * rel)))
            assert agrees
            stopped += early
    assert stopped > 0


@pytest.mark.parametrize("profile,integrable", [
    (make_tanh_ramp(0.5, 1.0), True), (make_tanh_ramp(1e-3, 1e-3), False),
    (make_piecewise_linear_ramp(1.9, 0.5), True)],
    ids=["tanh", "slow-tanh", "ramp"])
def test_forcing_shorter_than_the_boundary_distance_decides_at_t0(
        monkeypatch, quad_field, quad_geometry, profile, integrable):
    # an arclength below beta - g - a = 1.98 tracks without a step; the
    # slow tanh takes tens of seconds to integrate in full
    def no_steps(*args, **kwargs):
        raise AssertionError("integrated a forcing decided at t0")

    monkeypatch.setattr(CLASSIFY_MODULE, "integrate_pieces", no_steps)
    out = classify(quad_field, quad_geometry, profile, _variant_only=True)
    monkeypatch.undo()
    assert out.variant == "tracks"
    assert out.y_at_forcing_end == quad_geometry.attractor
    if integrable:
        assert classify(quad_field, quad_geometry, profile).variant == "tracks"


def _prototype_table_ranges(monkeypatch, amplitude):
    """The sigmoid and ramp ranges that prototype_table brackets over."""
    ranges = []
    harness = importlib.import_module("tipcrit.harness")
    real_bracket = harness.threshold_bracket

    def recorded(field, geometry, family, param_range):
        ranges.append(param_range)
        return real_bracket(field, geometry, family, param_range)

    monkeypatch.setattr(harness, "threshold_bracket", recorded)
    harness.prototype_table([amplitude])
    monkeypatch.undo()
    return ranges


@pytest.mark.parametrize("amplitude", [2.2, 6.0, 20.0])
def test_sigmoid_below_the_paper_safe_rate_tracks(quad_field, quad_geometry,
                                                  amplitude):
    # a sigmoid peaks at speed (amplitude / 2)^2 r, so below this rate its
    # speed stays under m_c of its arclength, and it cannot tip
    m_c = critical_rate(quad_geometry, quad_field, amplitude).m_c
    r_safe = 4.0 * m_c / amplitude ** 2
    r_c = prototype_critical_rate_smooth(amplitude)
    assert 0.4 * r_c <= r_safe < r_c
    out = classify(quad_field, quad_geometry, make_tanh_ramp(amplitude, r_safe))
    assert out.variant == "tracks"


def test_prototype_sigmoid_range_starts_at_the_safe_rate(monkeypatch,
                                                         quad_field,
                                                         quad_geometry):
    # a work guard: over (0.4, 2.5) r_c the half-solves of this bracket take
    # 1020 accepted steps at the shot tolerance, and 837 from the safe rate
    (lo, hi), _ = _prototype_table_ranges(monkeypatch, 10.0)
    m_c = critical_rate(quad_geometry, quad_field, 10.0).m_c
    r_c = prototype_critical_rate_smooth(10.0)
    assert lo == (1.0 - 1e-6) * 4.0 * m_c / 10.0 ** 2
    assert lo > 0.4 * r_c
    assert hi == 2.5 * r_c
    family, _ = _prototype_family("tanh", 10.0)
    bracket, counts = _counted_bracket(monkeypatch, quad_field, quad_geometry,
                                       family, (lo, hi))
    assert counts["shot_steps"] <= 900
    assert counts["classify"] == 2
    assert abs(bracket.param_critical - r_c) <= 1e-3 * r_c


@pytest.mark.parametrize("amplitude", [2.3, 4.0, 7.0, 12.0, 19.0])
def test_tanh_guess_is_certified_in_two_classify_calls(
        monkeypatch, quad_field, quad_geometry, amplitude):
    # the solve stops on its predicted root, which lands inside the
    # certifying step across the bench's amplitude range
    family, param_range = _prototype_family("tanh", amplitude)
    _, counts = _counted_bracket(monkeypatch, quad_field, quad_geometry,
                                 family, param_range)
    assert counts["classify"] == 2


def test_ramp_range_reaching_below_the_depth(monkeypatch, quad_field,
                                             quad_geometry):
    # slopes below mu = 1 never reach the boundary: the quadrature finds a
    # root of f + m on the path, and the residual reads -inf there
    def family(m):
        return make_piecewise_linear_ramp(3.0, m)
    assert CLASSIFY_MODULE._ramp_residual(quad_field, quad_geometry,
                                          family(0.5), 1) == -math.inf
    bracket, counts = _counted_bracket(monkeypatch, quad_field, quad_geometry,
                                       family, (0.5, 3.0))
    assert counts["classify"] == 2
    assert counts["half_solves"] == 0
    reference = _bisected_threshold(quad_field, quad_geometry, family,
                                    0.5, 3.0)
    assert (abs(bracket.param_critical - reference.param_critical)
            <= bracket.bracket_width)


def test_ramp_quadrature_fault_falls_back_to_the_shots(monkeypatch, quad_field,
                                                       quad_geometry):
    def family(m):
        return make_piecewise_linear_ramp(3.0, m)

    def faulting(*args):
        raise integrate_module.QuadratureFault("near the depth")

    monkeypatch.setattr(CLASSIFY_MODULE, "first_passage_time", faulting)
    bracket, counts = _counted_bracket(monkeypatch, quad_field, quad_geometry,
                                       family, (1.8, 3.0))
    assert counts["half_solves"] > 0
    assert counts["classify"] == 2
    reference = _bisected_threshold(quad_field, quad_geometry, family,
                                    1.8, 3.0)
    assert (abs(bracket.param_critical - reference.param_critical)
            <= bracket.bracket_width)


def test_shooting_exits_through_alpha(monkeypatch, cubic_field,
                                      cubic_geometry):
    # downward ramps of displacement 2.5 leave the cubic's basin at alpha = -2
    family = ramp_family(-1, 2.5)
    bracket, counts = _counted_bracket(monkeypatch, cubic_field,
                                       cubic_geometry, family, (4.0, 10.0))
    assert counts["classify"] <= 4
    reference = _bisected_threshold(cubic_field, cubic_geometry, family,
                                    4.0, 10.0)
    assert bracket.param_critical == pytest.approx(reference.param_critical,
                                                   rel=1e-6)
    tipped = classify(cubic_field, cubic_geometry,
                      family(bracket.param_critical + bracket.bracket_width))
    assert tipped.exit_side == -1


def test_non_monotone_family_falls_back_to_bisection(monkeypatch, quad_field,
                                                     quad_geometry):
    # up by 3, then back down by 0.5, at the same slope
    def family(m):
        return PiecewiseLinear(((0.0, 0.0), (3.0 / m, 3.0), (3.5 / m, 2.5)))
    bracket, counts = _counted_bracket(monkeypatch, quad_field, quad_geometry,
                                       family, (1.8, 3.0))
    assert counts["half_solves"] == 0
    assert bracket == _bisected_threshold(quad_field, quad_geometry, family,
                                          1.8, 3.0)


@pytest.mark.parametrize("bias", [3e-6, -3e-6])
def test_certification_doubles_its_step_outward(monkeypatch, quad_field,
                                                quad_geometry, bias):
    # a guess 8 certifying steps off the threshold: the failing end walks
    # outward with a doubling step until the ends straddle
    def family(m):
        return make_piecewise_linear_ramp(3.0, m)
    shot = threshold_bracket(quad_field, quad_geometry, family, (1.8, 2.6))
    monkeypatch.setattr(CLASSIFY_MODULE, "_shooting_guess",
                        lambda *args: shot.param_critical * (1.0 + bias))
    walked = threshold_bracket(quad_field, quad_geometry, family, (1.8, 2.6))
    hi = walked.param_critical + 0.5 * walked.bracket_width
    assert 0.5e-6 * hi < walked.bracket_width <= 1e-6 * hi
    assert walked.param_critical == pytest.approx(shot.param_critical,
                                                  abs=shot.bracket_width)


def test_family_already_tipping_at_the_low_end_raises(quad_field,
                                                      quad_geometry):
    # the threshold 2.162 lies below the range
    with pytest.raises(StraddleError, match="already tips at the low end"):
        threshold_bracket(quad_field, quad_geometry,
                          lambda m: make_piecewise_linear_ramp(3.0, m),
                          (2.3, 3.0))


@pytest.mark.parametrize("param_range,guess,message", [
    ((2.3, 3.0), lambda lo, hi: lo * (1.0 + 1e-8), "already tips at the low end"),
    ((1.8, 2.0), lambda lo, hi: hi * (1.0 - 1e-8), "does not tip at the high end"),
], ids=["low", "high"])
def test_certifying_classify_on_a_range_end_decides_the_straddle(
        monkeypatch, quad_field, quad_geometry, param_range, guess, message):
    # a guess next to a range end that classify contradicts there: the
    # certifying classify is clamped onto the end and raises
    monkeypatch.setattr(CLASSIFY_MODULE, "_shooting_guess",
                        lambda *args: guess(*param_range))
    with pytest.raises(StraddleError, match=message):
        threshold_bracket(quad_field, quad_geometry,
                          lambda m: make_piecewise_linear_ramp(3.0, m),
                          param_range)
