"""Pullback starts, outcome classification, frames, threshold bracketing."""
import importlib
import math

import numpy as np
import pytest

import tipcrit.integrate as integrate_module
from tipcrit import (
    ControlSegment,
    ControlSignal,
    IntegrationError,
    PiecewiseLinear,
    ScalarField,
    StraddleError,
    analyze_basin,
    boundary_arrival,
    classify,
    classify_x_frame,
    critical_rate,
    derivative_signal,
    first_passage_time,
    integrate_controlled,
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
from tipcrit.harness import random_forcing_for_sample
from tipcrit.integrate import Trajectory

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
    ramp = make_tanh_ramp(3.0, 1.0, tail_tol=tail)
    t0, y0 = pullback_start(quad_field, quad_geometry, ramp)
    assert t0 == -ramp.truncation_time
    assert y0 == quad_geometry.attractor
    untruncated = 1.5 * (1.0 + math.tanh(1.5 * t0))
    assert untruncated <= 3.0 * tail * (1 + 1e-12)


def test_pullback_start_shifted_ramp(quad_field, quad_geometry):
    ramp = make_piecewise_linear_ramp(3.0, 2.0).shifted(5.0)
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
        shifted = classify(quad_field, quad_geometry,
                           make_piecewise_linear_ramp(3.0, slope).shifted(7.0))
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
    control = ControlSignal((ControlSegment(0.0, 0.24, 10.0),
                             ControlSegment(0.24, 0.48, -10.0)))
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
    control = ControlSignal((ControlSegment(0.0, GRAZE_T, 3.0),
                             ControlSegment(GRAZE_T, 1.7408917287353018,
                                            -3.0)))
    assert boundary_arrival(quad_field, quad_geometry, control) is True
    assert verify_lower_bound(quad_geometry, quad_field, control).satisfied


@pytest.mark.parametrize("short_by,arrives", [(0.5e-5, True), (2e-5, False)])
def test_boundary_arrival_grazes_within_one_hundred_thousandth_radius(
        quad_field, quad_geometry, short_by, arrives):
    # a pulse that stops short_by * R below beta, then relaxes back
    target = quad_geometry.beta - short_by * quad_geometry.radius
    width = first_passage_time(quad_field, 2.0, quad_geometry.attractor,
                               target)
    control = ControlSignal((ControlSegment(0.0, width, 2.0),))
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
        free = integrate_controlled(field, derivative_signal(profile),
                                    attractor, profile.start_time(),
                                    profile.end_time())
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
        def stopped(pieces, y0, events, settings, _reason=reason,
                    _y=y_last):
            return Trajectory([pieces[0][0], pieces[0][0] + 0.5], [y0, _y],
                              _reason)

        # the package's ``classify`` function shadows the module's name
        monkeypatch.setattr(importlib.import_module("tipcrit.classify"),
                            "integrate_pieces", stopped)
        with pytest.raises(IntegrationError, match=message):
            classify(quad_field, quad_geometry, profile)


# --------------------------------------------------------------------------
# original-frame reporting
# --------------------------------------------------------------------------

def test_x_frame_tracking_limit(quad_field, quad_geometry):
    out = classify_x_frame(quad_field, quad_geometry,
                           make_piecewise_linear_ramp(3.0, 2.0))
    assert out.variant == "tracks"
    # the attractor seen in the shifting frame ends at a - lambda_inf = -4
    assert out.final_value == pytest.approx(-4.0, abs=1e-5)


def test_x_frame_near_critical_boundary_limit(quad_field, quad_geometry):
    rate = critical_rate(quad_geometry, quad_field, 3.0)
    out = classify_x_frame(quad_field, quad_geometry,
                           make_piecewise_linear_ramp(3.0, rate.m_c))
    # balanced on the moving boundary: beta - lambda_inf = -2
    assert out.y_at_forcing_end == pytest.approx(-2.0, abs=1e-4)


def test_frame_variants_agree_on_random_forcings(quad_field, quad_geometry,
                                                 cubic_field, cubic_geometry):
    rng = np.random.default_rng(5150)
    cases = ((quad_field, quad_geometry), (cubic_field, cubic_geometry))
    for i in range(100):
        field, geometry = cases[i % 2]
        arclength = float(rng.uniform(0.5, 4.0))
        cap = float(rng.uniform(0.3, 4.0))
        n = int(rng.integers(1, 8))
        profile = sample_random_forcing(arclength, cap, n,
                                        int(rng.integers(0, 2**62)))
        a = classify(field, geometry, profile)
        b = classify_x_frame(field, geometry, profile)
        assert a.variant == b.variant


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


def test_exit_event_located_in_few_evaluations(monkeypatch, quad_field,
                                               quad_geometry):
    # the exit crossing is a root in time inside one accepted step; halving
    # the step down to 1e-10 costs about 30 sub-steps of 5 calls each
    calls = [0]
    real_call = integrate_module._call

    def counted(rhs, t, y):
        calls[0] += 1
        return real_call(rhs, t, y)

    monkeypatch.setattr(integrate_module, "_call", counted)
    out = classify(quad_field, quad_geometry, make_piecewise_linear_ramp(3.0, 2.3))
    assert calls[0] <= 220
    assert out.variant == "tips"
    assert out.exit_time == pytest.approx(1.2630407015408316, abs=1e-9)
    assert out.y_at_forcing_end == pytest.approx(1.0002, abs=1e-9)
