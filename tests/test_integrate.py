"""Adaptive integration, event location, and first-passage quadrature."""
import math

import numpy as np
import pytest

from tipcrit import (
    ControlSignal,
    Event,
    IntegrationSettings,
    ScalarField,
    SignChangeFault,
    first_passage_time,
    integrate_autonomous,
    integrate_controlled,
    make_bang_bang,
)


def quad_passage_closed_form(drive: float) -> float:
    # antiderivative of 1/(y^2 + drive - 1) on [-1, 1]
    s = math.sqrt(drive - 1.0)
    return 2.0 / s * math.atan(1.0 / s)


# --------------------------------------------------------------------------
# controlled integration
# --------------------------------------------------------------------------

def test_rest_point_is_stationary(quad_field):
    u = ControlSignal(())
    traj = integrate_controlled(quad_field, u, -1.0, 0.0, 5.0)
    assert traj.reason == "reached_t_end"
    assert all(abs(y + 1.0) <= 1e-12 for y in traj.states)


def test_bang_bang_reaches_boundary_at_closed_form_time(quad_field):
    u = make_bang_bang(2.0, 0.0, math.pi / 2.0, +1)
    traj = integrate_controlled(quad_field, u, -1.0, 0.0, math.pi / 2.0)
    assert traj.reason == "reached_t_end"
    assert traj.final_state == pytest.approx(1.0, abs=1e-6)


def test_beyond_repeller_blows_up(quad_field):
    u = ControlSignal(())
    traj = integrate_controlled(quad_field, u, 1.1, 0.0, 100.0)
    assert traj.reason == "blowup"
    assert traj.final_state >= 1e6


def test_samples_strictly_increasing_in_time(quad_field):
    u = make_bang_bang(2.0, 0.5, 1.0, +1)
    traj = integrate_controlled(quad_field, u, -1.0, 0.0, 3.0)
    assert all(t1 > t0 for t0, t1 in zip(traj.times, traj.times[1:]))


# --------------------------------------------------------------------------
# autonomous integration
# --------------------------------------------------------------------------

def test_quadratic_relaxation_matches_tanh_solution(quad_field):
    traj = integrate_autonomous(quad_field, 0.0, 0.0, 10.0)
    assert traj.reason == "reached_t_end"
    assert traj.final_state == pytest.approx(-1.0, abs=1e-6)
    # closed-form solution is -tanh(t)
    for t, y in zip(traj.times, traj.states):
        assert y == pytest.approx(-math.tanh(t), abs=1e-6)


def test_cubic_interior_start_converges_to_attractor(cubic_field):
    traj = integrate_autonomous(cubic_field, 0.5, 0.0, 30.0)
    assert traj.reason == "reached_t_end"
    assert traj.final_state == pytest.approx(0.0, abs=1e-8)


def test_cubic_beyond_repeller_blows_up(cubic_field):
    traj = integrate_autonomous(cubic_field, 1.01, 0.0, 100.0)
    assert traj.reason == "blowup"


def test_event_location(quad_field):
    u = make_bang_bang(2.0, 0.0, 10.0, +1)
    traj = integrate_controlled(quad_field, u, -1.0, 0.0, 10.0,
                                events=[Event("arrive", 1.0, +1)])
    assert traj.reason == "event"
    assert traj.event_label == "arrive"
    assert traj.event_time == pytest.approx(math.pi / 2.0, abs=1e-7)
    assert traj.event_state == pytest.approx(1.0, abs=1e-7)


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegrationSettings(rtol=0.0)


# --------------------------------------------------------------------------
# first passage quadrature
# --------------------------------------------------------------------------

def test_first_passage_quadratic(quad_field):
    T = first_passage_time(quad_field, 2.0, -1.0, 1.0)
    assert T == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_first_passage_sign_change_fault(quad_field):
    # drive exactly at the depth constant: integrand vanishes at y = 0
    with pytest.raises(SignChangeFault):
        first_passage_time(quad_field, 1.0, -1.0, 1.0)


def test_sign_change_fault_names_the_first_smallest_point(quad_field):
    # f vanishes at the grid points -1 and 1; the message names the first
    with pytest.raises(SignChangeFault, match=r"near y = -1\.0;"):
        first_passage_time(quad_field, 0.0, -2.0, 2.0)


@pytest.mark.parametrize("y_to,message", [
    (1.0, r"undefined at x = 0\.0"), (1.1, "changes sign")],
    ids=["on-grid", "off-grid"])
def test_pole_on_the_passage_path_is_a_sign_change_fault(y_to, message):
    # with y_to = 1.0 the pole at 0 is a point of the sign-check grid
    with pytest.raises(SignChangeFault, match=message):
        first_passage_time(ScalarField.from_text("1/x"), 5.0, -1.0, y_to)


def test_first_passage_large_drive(quad_field):
    T = first_passage_time(quad_field, 1e6, -1.0, 1.0)
    assert T == pytest.approx(quad_passage_closed_form(1e6), rel=1e-9)
    assert T == pytest.approx(2e-6, rel=2.1e-6)


def test_first_passage_cubic_frozen_oracle(cubic_field):
    # scipy.integrate.quad oracle for the same integral, frozen value below
    from scipy.integrate import quad as scipy_quad
    oracle, err = scipy_quad(lambda y: 1.0 / (y * (y - 1) * (y + 2) + 1.0),
                             0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    assert oracle == pytest.approx(1.8911073354918675, abs=1e-12)
    T = first_passage_time(cubic_field, 1.0, 0.0, 1.0)
    assert T == pytest.approx(1.8911073354918675, rel=1e-9)


def test_first_passage_downward(cubic_field):
    # drive -3 dominates on [-2, 0] (max f there is ~2.11)
    T = first_passage_time(cubic_field, -3.0, 0.0, -2.0)
    from scipy.integrate import quad as scipy_quad
    oracle, _ = scipy_quad(lambda y: 1.0 / (3.0 - y * (y - 1) * (y + 2)),
                           -2.0, 0.0, epsabs=1e-13, epsrel=1e-13)
    assert T == pytest.approx(oracle, rel=1e-9)


def test_quadrature_consistent_with_ode_events(quad_field, cubic_field,
                                               quad_geometry, cubic_geometry):
    rng = np.random.default_rng(2718281)
    cases = [(quad_field, quad_geometry), (cubic_field, cubic_geometry)]
    for k in range(8):
        field, geometry = cases[k % 2]
        side = 1 if not geometry.has_side(-1) else int(rng.choice((-1, 1)))
        mu_side = geometry.side_mu(side)
        drive = mu_side * (1.0 + 10.0 ** rng.uniform(-1.5, 1.5))
        T_quad = first_passage_time(field, side * drive, geometry.attractor,
                                    geometry.endpoint(side))
        u = make_bang_bang(drive, 0.0, 2.0 * T_quad, side)
        traj = integrate_controlled(
            field, u, geometry.attractor, 0.0, 2.0 * T_quad,
            events=[Event("arrive", geometry.endpoint(side), side)])
        assert traj.reason == "event"
        assert traj.event_time == pytest.approx(T_quad, rel=1e-6)


def test_event_time_stable_under_tolerance_refinement(quad_field):
    u = make_bang_bang(2.0, 0.0, 10.0, +1)
    event = Event("arrive", 1.0, +1)
    base = IntegrationSettings(rtol=1e-8, atol=1e-10)
    tight = IntegrationSettings(rtol=5e-9, atol=5e-11)
    t_base = integrate_controlled(quad_field, u, -1.0, 0.0, 10.0,
                                  events=[event], settings=base).event_time
    t_tight = integrate_controlled(quad_field, u, -1.0, 0.0, 10.0,
                                   events=[event], settings=tight).event_time
    assert abs(t_base - t_tight) <= 10.0 * tight.rtol * max(1.0, t_base)


def test_basin_is_forward_invariant(quad_field, cubic_field, quad_geometry,
                                    cubic_geometry):
    rng = np.random.default_rng(31415)
    for field, geometry in ((quad_field, quad_geometry),
                            (cubic_field, cubic_geometry)):
        lo = geometry.alpha if geometry.has_side(-1) else geometry.attractor - 3.0
        hi = geometry.beta
        events = []
        if geometry.has_side(1):
            events.append(Event("cross_high", geometry.beta, +1))
        if geometry.has_side(-1):
            events.append(Event("cross_low", geometry.alpha, -1))
        for _ in range(100):
            y0 = float(rng.uniform(lo + 1e-3, hi - 1e-3))
            traj = integrate_autonomous(field, y0, 0.0, 50.0, events=events)
            assert traj.reason == "reached_t_end"


def test_time_translation_equivariance(quad_field):
    event = Event("arrive", 1.0, +1)
    u0 = make_bang_bang(2.0, 0.0, 10.0, +1)
    u1 = u0.shifted(0.5)
    t0 = integrate_controlled(quad_field, u0, -1.0, 0.0, 10.0,
                              events=[event]).event_time
    t1 = integrate_controlled(quad_field, u1, -1.0, 0.5, 10.5,
                              events=[event]).event_time
    assert abs((t1 - t0) - 0.5) <= 1e-10


def test_trajectory_csv_round_trip(tmp_path, quad_field):
    traj = integrate_autonomous(quad_field, 0.0, 0.0, 2.0)
    path = tmp_path / "traj.csv"
    traj.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,y"
    assert len(lines) == len(traj.times) + 1
    t_text, y_text = lines[-1].split(",")
    assert float(t_text) == traj.times[-1]
    assert float(y_text) == traj.states[-1]
