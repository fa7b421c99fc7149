"""Forcing profiles, bang-bang pulse ramps, random forcings, and the forcing
mini-language."""
import math

import numpy as np
import pytest

from tipcrit import (
    PiecewiseLinear,
    ScalarField,
    make_bang_bang,
    make_piecewise_linear_ramp,
    make_tanh_ramp,
    parse_forcing_spec,
    sample_random_forcing,
)
from tipcrit.integrate import _drive_pieces


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
    ramp = make_piecewise_linear_ramp(3.0, 2.0)
    assert ramp.arclength() == 3.0
    assert ramp.sup_speed() == 2.0
    assert ramp.final_value() == 3.0
    assert ramp.monotone()


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
    (_, _, pulse), = _drive_pieces(ScalarField.from_text("0"), ramp, -1.0, 1.0)
    assert pulse(0.0, 0.0) == pytest.approx(2.25, rel=1e-15)
    assert ramp.sup_speed() == pytest.approx(2.25, rel=1e-15)


def test_tanh_arclength_equals_amplitude():
    ramp = make_tanh_ramp(3.0, 1.0)
    assert ramp.arclength() == 3.0
    assert ramp.monotone()


def test_tanh_critical_steepness_speed():
    # at rate 4/3 the peak speed is 2.25 * 4/3 = 3
    ramp = make_tanh_ramp(3.0, 4.0 / 3.0)
    assert ramp.sup_speed() == pytest.approx(3.0, rel=1e-15)


def test_tanh_truncation_tail_bound():
    tail = 1e-10
    ramp = make_tanh_ramp(3.0, 1.0)
    t_star = ramp.truncation_time
    untruncated = 1.5 * (1.0 + math.tanh(1.5 * -t_star))
    assert untruncated <= tail * 3.0 * (1 + 1e-12)
    assert ramp.value(-t_star) == 0.0
    assert ramp.value(t_star) == 3.0


# --------------------------------------------------------------------------
# bang-bang pulse ramps
# --------------------------------------------------------------------------

def test_bang_bang_area():
    u = make_bang_bang(2.0, 0.0, math.pi / 2.0, +1)
    assert u.final_value() == pytest.approx(math.pi, rel=1e-15)
    assert u.sup_speed() == 2.0


def test_bang_bang_rectangle():
    u = make_bang_bang(1.0, 0.0, 3.0, +1)
    assert u.final_value() == 3.0


def test_bang_bang_signed():
    u = make_bang_bang(2.0, 5.0, 1.0, -1)
    assert u.arclength() == 2.0
    assert u.final_value() == -2.0
    assert u.start_time() == 5.0


def test_bang_bang_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_bang_bang(0.0, 0.0, 1.0, +1)
    with pytest.raises(ValueError):
        make_bang_bang(1.0, 0.0, 0.0, +1)


# --------------------------------------------------------------------------
# speeds
# --------------------------------------------------------------------------

def _drives(profile, t0, t_end):
    """``(start, end, drive)`` of each piece that ``_drive_pieces`` cuts
    from ``[t0, t_end]``, under the zero field."""
    return [(a, b, rhs(a, 0.0))
            for a, b, rhs in _drive_pieces(ScalarField.from_text("0"), profile,
                                           t0, t_end)]


def test_ramp_derivative_is_step():
    ramp = make_piecewise_linear_ramp(3.0, 2.0)
    assert _drives(ramp, 0.0, 3.0) == [(0.0, 1.5, 2.0), (1.5, 3.0, 0.0)]


def test_constant_profile_has_empty_signal():
    profile = PiecewiseLinear(((0.0, 0.0),))
    assert _drives(profile, profile.start_time(), profile.end_time()) == []
    assert profile.final_value() == 0.0


def test_up_down_pulse_signal():
    profile = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
    assert [u for _, _, u in _drives(profile, 0.0, 2.0)] == [1.0, -1.0]
    assert profile.arclength() == 2.0
    assert profile.final_value() == 0.0


def test_up_down_pulse_report():
    profile = PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (2.0, 0.0)))
    assert profile.arclength() == 4.0
    assert profile.final_value() == 0.0
    assert not profile.monotone()


def test_signal_shift():
    u = make_bang_bang(2.0, 0.0, 1.0, +1)
    shifted = PiecewiseLinear(tuple((t + 5.0, v) for t, v in u.knots))
    assert make_bang_bang(2.0, 5.0, 1.0, +1) == shifted
    assert shifted.knots[0][0] == 5.0
    assert shifted.knots[1][0] == 6.0


# --------------------------------------------------------------------------
# random forcings
# --------------------------------------------------------------------------

def test_single_segment_forcing_is_monotone_ramp():
    profile = sample_random_forcing(3.0, 2.0, 1, seed=1)
    assert profile.monotone()
    assert profile.arclength() == pytest.approx(3.0, abs=1e-12)
    assert profile.sup_speed() <= 2.0


def test_random_forcing_exact_arclength():
    profile = sample_random_forcing(3.0, 2.0, 8, seed=42)
    assert profile.arclength() == pytest.approx(3.0, abs=1e-12)


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
        assert profile.sup_speed() <= cap * (1 + 1e-12)
        assert profile.arclength() == pytest.approx(arclength, abs=1e-12)


def test_monotone_implies_arclength_equals_displacement():
    for seed in range(30):
        profile = sample_random_forcing(2.5, 1.5, 1, seed=seed)
        assert profile.monotone()
        assert profile.arclength() == pytest.approx(abs(profile.final_value()),
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
    assert profile.arclength() == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("spec,fault", [
    pytest.param(spec, fault, id=spec) for spec, fault in (
        ("", "expected pl:, tanh:, knots: or random:"),
        ("nope:1:2", "expected pl:, tanh:, knots: or random:"),
        ("pl:3:x", "could not convert"),
        ("pl:abc:2", "could not convert"),
        ("pl:forcing spec:2", "could not convert"),
        # lambda_inf * rate underflows to 0 / overflows to inf
        ("tanh:1e-200:1e-200", "no positive finite truncation time"),
        ("tanh:1e200:1e200", "no positive finite truncation time"),
        ("tanh:3:inf", "rate must be positive and finite"),
        # the peak speed (lambda_inf / 2)^2 * rate overflows
        ("tanh:1e200:1", "peak speed"),
        # the first segment's duration overflows
        ("random:1e300:1e-300:3:1", "knots must be finite"),
        # the wrong number of fields names the expected form
        ("pl:3", "expected pl:LAMBDA_INF:SLOPE"),
        ("tanh:3", "expected tanh:LAMBDA_INF:R"),
        ("tanh:1:2:3", "expected tanh:LAMBDA_INF:R"),
        ("knots:0,0;1", "expected knots:t0,v0;t1,v1;..."),
        ("knots:0,0;1,2,3", "expected knots:t0,v0;t1,v1;..."),
        ("random:3:2:8", "expected random:L:CAP:N:SEED"))])
def test_bad_spec_error_names_the_spec(spec, fault):
    with pytest.raises(ValueError) as exc:
        parse_forcing_spec(spec)
    assert str(exc.value).startswith(f"bad forcing spec {spec!r}: ")
    assert fault in str(exc.value)
