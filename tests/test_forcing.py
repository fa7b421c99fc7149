"""Forcing profiles, derivative signals, arclength reports, random forcings."""
import math

import numpy as np
import pytest

from tipcrit import (
    PiecewiseLinear,
    arclength_report,
    derivative_signal,
    make_bang_bang,
    make_piecewise_linear_ramp,
    make_tanh_ramp,
    parse_forcing_spec,
    sample_random_forcing,
)


# --------------------------------------------------------------------------
# linear ramps
# --------------------------------------------------------------------------

def test_ramp_knots():
    ramp = make_piecewise_linear_ramp(3.0, 2.0)
    assert ramp.knots == ((0.0, 0.0), (1.5, 3.0))


def test_ramp_reaches_amplitude_at_ratio():
    ramp = make_piecewise_linear_ramp(3.0, 3.0)
    assert ramp.end_time() == 1.0
    assert ramp.value(1.0) == 3.0
    assert ramp.value(-1.0) == 0.0
    assert ramp.value(5.0) == 3.0


def test_ramp_report():
    report = arclength_report(make_piecewise_linear_ramp(3.0, 2.0))
    assert report.arclength == 3.0
    assert report.sup_speed == 2.0
    assert report.final_value == 3.0
    assert report.monotone


@pytest.mark.parametrize("lam,slope", [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0)])
def test_ramp_rejects_non_positive_arguments(lam, slope):
    with pytest.raises(ValueError):
        make_piecewise_linear_ramp(lam, slope)


def test_first_knot_must_be_zero():
    with pytest.raises(ValueError):
        PiecewiseLinear(((0.0, 1.0), (1.0, 2.0)))


# --------------------------------------------------------------------------
# tanh ramps
# --------------------------------------------------------------------------

def test_tanh_pulse_height_at_center():
    ramp = make_tanh_ramp(3.0, 1.0)
    assert ramp.speed(0.0) == pytest.approx(2.25, rel=1e-15)
    assert ramp.sup_speed() == pytest.approx(2.25, rel=1e-15)


def test_tanh_arclength_equals_amplitude():
    report = arclength_report(make_tanh_ramp(3.0, 1.0))
    assert report.arclength == 3.0
    assert report.monotone


def test_tanh_critical_steepness_speed():
    # at rate 4/3 the peak speed is 2.25 * 4/3 = 3
    ramp = make_tanh_ramp(3.0, 4.0 / 3.0)
    assert ramp.sup_speed() == pytest.approx(3.0, rel=1e-15)


def test_tanh_truncation_tail_bound():
    tail = 1e-10
    ramp = make_tanh_ramp(3.0, 1.0, tail_tol=tail)
    t_star = ramp.truncation_time
    untruncated = 1.5 * (1.0 + math.tanh(1.5 * -t_star))
    assert untruncated <= tail * 3.0 * (1 + 1e-12)
    assert ramp.value(-t_star) == 0.0
    assert ramp.value(t_star) == 3.0


def test_tanh_rejects_bad_tail_tol():
    with pytest.raises(ValueError):
        make_tanh_ramp(3.0, 1.0, tail_tol=1e-3)


# --------------------------------------------------------------------------
# bang-bang signals
# --------------------------------------------------------------------------

def test_bang_bang_area():
    u = make_bang_bang(2.0, 0.0, math.pi / 2.0, +1)
    assert u.integral() == pytest.approx(math.pi, rel=1e-15)
    assert u.ess_sup() == 2.0


def test_bang_bang_rectangle():
    u = make_bang_bang(1.0, 0.0, 3.0, +1)
    assert u.integral() == 3.0


def test_bang_bang_signed():
    u = make_bang_bang(2.0, 5.0, 1.0, -1)
    assert u.abs_integral() == 2.0
    assert u.integral() == -2.0
    assert u.start_time() == 5.0


def test_bang_bang_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_bang_bang(0.0, 0.0, 1.0, +1)
    with pytest.raises(ValueError):
        make_bang_bang(1.0, 0.0, 0.0, +1)


# --------------------------------------------------------------------------
# derivative signals
# --------------------------------------------------------------------------

def test_ramp_derivative_is_step():
    sig = derivative_signal(make_piecewise_linear_ramp(3.0, 2.0))
    assert len(sig.segments) == 1
    seg = sig.segments[0]
    assert (seg.start, seg.end, seg.value) == (0.0, 1.5, 2.0)


def test_constant_profile_has_empty_signal():
    sig = derivative_signal(PiecewiseLinear(((0.0, 0.0),)))
    assert sig.segments == ()
    assert sig.integral() == 0.0


def test_up_down_pulse_signal():
    profile = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
    sig = derivative_signal(profile)
    assert [s.value for s in sig.segments] == [1.0, -1.0]
    assert sig.abs_integral() == 2.0
    assert profile.final_value() == 0.0


def test_up_down_pulse_report():
    profile = PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (2.0, 0.0)))
    report = arclength_report(profile)
    assert report.arclength == 4.0
    assert report.final_value == 0.0
    assert not report.monotone


@pytest.mark.parametrize("knots", [
    ((0.0, 0.0), (1.0, 1.5)),
    ((0.0, 0.0), (0.5, 1.0), (2.0, -0.5), (3.0, -0.5), (4.0, 0.25)),
    ((-2.0, 0.0), (1.0, 4.0), (1.5, 2.0)),
])
def test_signal_mass_equals_arclength(knots):
    profile = PiecewiseLinear(tuple(knots))
    sig = derivative_signal(profile)
    assert sig.abs_integral() == pytest.approx(profile.arclength(), abs=1e-12)


def test_tanh_sampled_signal_recovers_amplitude():
    tail = 1e-10
    ramp = make_tanh_ramp(3.0, 1.0, tail_tol=tail)
    sig = derivative_signal(ramp)
    assert len(sig.segments) == 2048
    assert sig.integral() == pytest.approx(3.0, abs=2 * tail * 3.0 + 1e-12)


def test_signal_shift():
    u = make_bang_bang(2.0, 0.0, 1.0, +1).shifted(5.0)
    assert u.segments[0].start == 5.0
    assert u.segments[0].end == 6.0


# --------------------------------------------------------------------------
# random forcings
# --------------------------------------------------------------------------

def test_single_segment_forcing_is_monotone_ramp():
    profile = sample_random_forcing(3.0, 2.0, 1, seed=1)
    report = arclength_report(profile)
    assert report.monotone
    assert report.arclength == pytest.approx(3.0, abs=1e-12)
    assert report.sup_speed <= 2.0


def test_random_forcing_exact_arclength():
    profile = sample_random_forcing(3.0, 2.0, 8, seed=42)
    assert arclength_report(profile).arclength == pytest.approx(3.0, abs=1e-12)


def test_random_forcing_deterministic():
    a = sample_random_forcing(3.0, 2.0, 8, seed=42)
    b = sample_random_forcing(3.0, 2.0, 8, seed=42)
    assert a.knots == b.knots


def test_random_forcing_seed_sensitivity():
    a = sample_random_forcing(3.0, 2.0, 8, seed=42)
    b = sample_random_forcing(3.0, 2.0, 8, seed=43)
    assert a.knots != b.knots


def test_random_forcing_never_violates_cap():
    rng = np.random.default_rng(20240817)
    for _ in range(10_000):
        arclength = float(rng.uniform(0.2, 8.0))
        cap = float(rng.uniform(0.1, 5.0))
        n = int(rng.integers(1, 13))
        seed = int(rng.integers(0, 2**63 - 1))
        profile = sample_random_forcing(arclength, cap, n, seed)
        report = arclength_report(profile)
        assert report.sup_speed <= cap * (1 + 1e-12)
        assert report.arclength == pytest.approx(arclength, abs=1e-12)


def test_monotone_implies_arclength_equals_displacement():
    for seed in range(30):
        profile = sample_random_forcing(2.5, 1.5, 1, seed=seed)
        report = arclength_report(profile)
        assert report.monotone
        assert report.arclength == pytest.approx(abs(report.final_value),
                                                 abs=1e-12)


# --------------------------------------------------------------------------
# forcing mini-language
# --------------------------------------------------------------------------

def test_parse_pl_spec():
    profile = parse_forcing_spec("pl:3:2.0")
    assert profile.knots == ((0.0, 0.0), (1.5, 3.0))


def test_parse_tanh_spec():
    profile = parse_forcing_spec("tanh:3:1.5")
    assert profile.lambda_inf == 3.0
    assert profile.rate == 1.5


def test_parse_knots_spec():
    profile = parse_forcing_spec("knots:0,0;1,2;3,1")
    assert profile.knots == ((0.0, 0.0), (1.0, 2.0), (3.0, 1.0))


def test_parse_random_spec():
    profile = parse_forcing_spec("random:3:2:8:42")
    assert arclength_report(profile).arclength == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("spec", ["", "pl:3", "nope:1:2", "tanh:3", "pl:3:x"])
def test_bad_specs_rejected(spec):
    with pytest.raises(ValueError):
        parse_forcing_spec(spec)


@pytest.mark.parametrize("spec", ["pl:abc:2", "pl:forcing spec:2"])
def test_bad_spec_error_names_the_spec(spec):
    with pytest.raises(ValueError) as exc:
        parse_forcing_spec(spec)
    assert str(exc.value).startswith(f"bad forcing spec {spec!r}: ")
