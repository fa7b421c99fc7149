"""Adaptive integration, event location, and first-passage quadrature."""
import hashlib
import importlib
import math
import warnings

import numpy as np
import pytest

from tipcrit import (
    IntegrationSettings,
    PiecewiseLinear,
    ScalarField,
    SignChangeFault,
    first_passage_time,
    integrate_pieces,
    make_bang_bang,
    parse_forcing_spec,
)
import tipcrit.integrate as integrate_module
from conftest import integrate_profile, pulse_profile

CLASSIFY_MODULE = importlib.import_module("tipcrit.classify")


def quad_passage_closed_form(drive: float) -> float:
    # antiderivative of 1/(y^2 + drive - 1) on [-1, 1]
    s = math.sqrt(drive - 1.0)
    return 2.0 / s * math.atan(1.0 / s)


# --------------------------------------------------------------------------
# controlled integration
# --------------------------------------------------------------------------

def test_rest_point_is_stationary(quad_field):
    u = pulse_profile()
    traj = integrate_profile(quad_field, u, -1.0, 0.0, 5.0)
    assert traj.reason == "reached_t_end"
    assert all(abs(y + 1.0) <= 1e-12 for y in traj.states)


def test_bang_bang_reaches_boundary_at_closed_form_time(quad_field):
    u = make_bang_bang(2.0, 0.0, math.pi / 2.0, +1)
    traj = integrate_profile(quad_field, u, -1.0, 0.0, math.pi / 2.0)
    assert traj.reason == "reached_t_end"
    assert traj.final_state == pytest.approx(1.0, abs=1e-6)


def test_beyond_repeller_blows_up(quad_field):
    u = pulse_profile()
    traj = integrate_profile(quad_field, u, 1.1, 0.0, 100.0)
    assert traj.reason == "blowup"
    assert traj.final_state >= 1e6


def test_samples_strictly_increasing_in_time(quad_field):
    u = make_bang_bang(2.0, 0.5, 1.0, +1)
    traj = integrate_profile(quad_field, u, -1.0, 0.0, 3.0)
    assert all(t1 > t0 for t0, t1 in zip(traj.times, traj.times[1:]))


# --------------------------------------------------------------------------
# autonomous integration
# --------------------------------------------------------------------------

def test_quadratic_relaxation_matches_tanh_solution(quad_field):
    traj = integrate_profile(quad_field, pulse_profile(), 0.0, 0.0, 10.0)
    assert traj.reason == "reached_t_end"
    assert traj.final_state == pytest.approx(-1.0, abs=1e-6)
    # closed-form solution is -tanh(t)
    for t, y in zip(traj.times, traj.states):
        assert y == pytest.approx(-math.tanh(t), abs=1e-6)


def test_cubic_interior_start_converges_to_attractor(cubic_field):
    traj = integrate_profile(cubic_field, pulse_profile(), 0.5, 0.0, 30.0)
    assert traj.reason == "reached_t_end"
    assert traj.final_state == pytest.approx(0.0, abs=1e-8)


def test_cubic_beyond_repeller_blows_up(cubic_field):
    traj = integrate_profile(cubic_field, pulse_profile(), 1.01, 0.0, 100.0)
    assert traj.reason == "blowup"


def test_event_location(quad_field):
    u = make_bang_bang(2.0, 0.0, 10.0, +1)
    traj = integrate_profile(quad_field, u, -1.0, 0.0, 10.0,
                             box=(-math.inf, 1.0))
    assert traj.reason == "event"
    assert traj.final_time == pytest.approx(math.pi / 2.0, abs=1e-7)
    assert traj.final_state == pytest.approx(1.0, abs=1e-7)


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegrationSettings(rtol=0.0)


@pytest.mark.parametrize("box", [(1.0, 1.0), (2.0, -2.0), (math.nan, 1.0),
                                 (-1.0, math.nan)])
def test_exit_box_must_be_increasing(box):
    calls = []

    def rhs(t, y):
        calls.append(t)
        return 1.0

    with pytest.raises(ValueError, match="exit box"):
        integrate_pieces([(0.0, 1.0, rhs)], 0.0, box)
    assert not calls


@pytest.mark.parametrize("drive,edge", [(1.0, 0.5), (-1.0, -0.25)])
def test_exit_through_either_edge_of_the_box(drive, edge):
    traj = integrate_pieces([(0.0, 2.0, lambda t, y: drive)], 0.0,
                            (-0.25, 0.5))
    assert traj.reason == "event"
    assert traj.final_time == pytest.approx(abs(edge), abs=1e-10)
    # the crossing's state lies on the far side of the edge it left by
    assert drive * (traj.final_state - edge) >= 0.0
    assert traj.final_state == pytest.approx(edge, abs=1e-9)


@pytest.mark.parametrize("drive,y0", [(1.0, 0.5), (-1.0, -0.25)])
def test_start_on_an_edge_has_departed_it(drive, y0):
    # moving away from the edge it starts on, the state never crosses it
    traj = integrate_pieces([(0.0, 2.0, lambda t, y: drive)], y0,
                            (-0.25, 0.5))
    assert traj.reason == "reached_t_end"
    assert traj.final_state == pytest.approx(y0 + 2.0 * drive, abs=1e-12)


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


def test_drive_against_the_path_is_a_non_positive_passage_time(quad_field):
    # f + 5 > 0 on [-0.5, 0.5]: the flow runs upward, against the path
    with pytest.raises(SignChangeFault, match="non-positive passage time"):
        first_passage_time(quad_field, 5.0, 0.5, -0.5)
    times, _ = integrate_module._passage_batch(
        quad_field, np.array([5.0, -5.0]), 0.5, -0.5)
    assert isinstance(times[0], SignChangeFault)
    assert "non-positive passage time" in str(times[0])
    assert times[1] == first_passage_time(quad_field, -5.0, 0.5, -0.5)


@pytest.mark.parametrize("text,path,drives,splits,message", [
    ("x^2-1", (0.5, -0.5), [5.0, -5.0], 2000, "non-positive passage time"),
    ("1/x", (-1.0, 1.1), [5.0, -5.0], 2000, "changes sign or vanishes"),
    ("x^2-1", (-1.0, 1.0), [2.0, 1.0 + 1e-10, 3.0], 2000,
     "drive is too close to the depth"),
    # the quartic's flat minimum makes the mesh miss the tolerance at 1.01
    ("x^4-1", (-1.0, 1.0), [1.01, 100.0], 2, "did not converge within 2"),
], ids=["against-the-path", "pole", "roundoff-floor", "out-of-splits"])
def test_batch_lane_holds_its_drives_fault(monkeypatch, text, path, drives,
                                           splits, message):
    # a lane holds the exception that first_passage_time raises at its
    # drive, and the other lanes are their one-drive times to the bit
    monkeypatch.setattr(integrate_module, "_QUAD_MAX_SPLITS", splits)
    times, terms = integrate_module._passage_batch(
        ScalarField.from_text(text), np.array(drives), *path)
    assert terms is None
    faults = 0
    for drive, lane in zip(drives, times):
        try:
            alone = first_passage_time(ScalarField.from_text(text), drive,
                                       *path)
        except (SignChangeFault, integrate_module.QuadratureFault) as exc:
            faults += 1
            assert type(lane) is type(exc)
            assert str(lane) == str(exc) and message in str(exc)
        else:
            assert lane == alone
    assert faults >= 1


def test_sign_changing_drive_is_left_out_of_the_pass(monkeypatch):
    # f + 0.5 changes sign on [-1, 1]; its neighbours pass, and only they
    # reach the numpy pass
    field = ScalarField.from_text("x^2-1")
    passed = []
    real = integrate_module._mesh_panels

    def logged(mesh, drives):
        passed.append(drives.tolist())
        return real(mesh, drives)
    monkeypatch.setattr(integrate_module, "_mesh_panels", logged)
    drives = [2.0, 0.5, 3.0]
    times, terms = integrate_module._passage_batch(
        field, np.array(drives), -1.0, 1.0, slopes=True)
    assert passed == [[2.0, 3.0]]
    assert isinstance(times[1], SignChangeFault) and terms[1] is None
    for k in (0, 2):
        alone, alone_terms = integrate_module._passage_batch(
            field, np.array(drives[k:k + 1]), -1.0, 1.0, slopes=True)
        assert times[k] == alone[0]
        assert terms[k].tolist() == alone_terms[0].tolist()
    with pytest.raises(SignChangeFault) as excinfo:
        first_passage_time(field, 0.5, -1.0, 1.0)
    assert str(times[1]) == str(excinfo.value)


@pytest.mark.parametrize("drive,y_from,y_to", [
    (2.0, -1.0, math.inf), (2.0, math.nan, 1.0), (math.inf, -1.0, 1.0),
    (math.nan, -1.0, 1.0)])
def test_non_finite_passage_input_is_refused_before_the_memo(drive, y_from,
                                                             y_to):
    field = ScalarField.from_text("x^2-1")
    first_passage_time(field, 2.0, -1.0, 1.0)
    kept = list(field._paths.items())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            first_passage_time(field, drive, y_from, y_to)
    assert list(field._paths) == [key for key, _ in kept]
    assert all(field._paths[key] is mesh for key, mesh in kept)


def test_zero_length_path_takes_no_time(quad_field):
    assert first_passage_time(quad_field, 5.0, 0.3, 0.3) == 0.0


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


def test_tail_path_passage_within_the_rounding_limit(cubic_field):
    # a classify tail path 2e-8 past beta = 1: near the root the rounding of
    # the nodes limits the integrand to about eps |y| / |y - 1| relative, so
    # both quadratures land about 3e-10 off the exact partial-fraction
    # integral of 1 / (y (y - 1) (y + 2)), short of their 1e-10
    y_from, y_to = 1.0 + 2e-8, 1.0 + 1e-4
    u, v = y_from - 1.0, y_to - 1.0  # exact
    exact = (math.log(v / u) / 3.0 - (math.log1p(v) - math.log1p(u)) / 2.0
             + (math.log1p(v / 3.0) - math.log1p(u / 3.0)) / 6.0)
    assert exact == pytest.approx(2.839019962315476, rel=1e-15)
    meshed = first_passage_time(cubic_field, 0.0, y_from, y_to)
    unmeshed = integrate_module._unmeshed_passage_time(cubic_field.f, 0.0,
                                                       y_from, y_to)
    assert meshed == pytest.approx(exact, rel=1e-9)
    assert unmeshed == pytest.approx(exact, rel=1e-9)


def test_unmeshed_passage_certifies_its_ends(quad_field):
    # f = y^2 - 1 points downward on [0.5, 0.6], against the path
    with pytest.raises(SignChangeFault, match="both ends"):
        integrate_module._unmeshed_passage_time(quad_field.f, 0.0, 0.5, 0.6)


@pytest.mark.parametrize("y_from,y_to", [(1.0 + 2.0**-30, 1.5),
                                         (1.0 - 2.0**-30, 0.5)],
                         ids=["upward", "downward"])
def test_quadrature_refines_past_the_mesh(monkeypatch, y_from, y_to):
    # 1 / (y - 1) from 2^-30 off its pole: the log singularity lies deep
    # inside the mesh's finest panel, so the adaptive quadrature bisects on
    # from the mesh
    seeded = []
    real = integrate_module._gauss_kronrod

    def spy(f, drive, a, b, panels):
        seeded.append(len(panels))
        return real(f, drive, a, b, panels)

    monkeypatch.setattr(integrate_module, "_gauss_kronrod", spy)
    T = first_passage_time(ScalarField.from_text("x-1"), 0.0, y_from, y_to)
    assert len(seeded) == 1 and seeded[0] > 1
    assert T == pytest.approx(29.0 * math.log(2.0), rel=1e-10)


def test_passage_meshes_kept_for_the_latest_paths_only():
    field = ScalarField.from_text("x^2-1")
    for k in range(100):
        first_passage_time(field, 0.0, 1.5 + 0.01 * k, 3.0)
    assert 0 < len(field._paths) <= 4


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
        edge = geometry.endpoint(side)
        box = (-math.inf, edge) if side > 0 else (edge, math.inf)
        traj = integrate_profile(field, u, geometry.attractor, 0.0,
                                 2.0 * T_quad, box=box)
        assert traj.reason == "event"
        assert traj.final_time == pytest.approx(T_quad, rel=1e-6)


def test_event_time_stable_under_tolerance_refinement(quad_field):
    u = make_bang_bang(2.0, 0.0, 10.0, +1)
    box = (-math.inf, 1.0)
    base = IntegrationSettings(rtol=1e-8, atol=1e-10)
    tight = IntegrationSettings(rtol=5e-9, atol=5e-11)
    t_base = integrate_profile(quad_field, u, -1.0, 0.0, 10.0,
                               box=box, settings=base).final_time
    t_tight = integrate_profile(quad_field, u, -1.0, 0.0, 10.0,
                                box=box, settings=tight).final_time
    assert abs(t_base - t_tight) <= 10.0 * tight.rtol * max(1.0, t_base)


def test_basin_is_forward_invariant(quad_field, cubic_field, quad_geometry,
                                    cubic_geometry):
    rng = np.random.default_rng(31415)
    for field, geometry in ((quad_field, quad_geometry),
                            (cubic_field, cubic_geometry)):
        lo = geometry.alpha if geometry.has_side(-1) else geometry.attractor - 3.0
        hi = geometry.beta
        for _ in range(100):
            y0 = float(rng.uniform(lo + 1e-3, hi - 1e-3))
            traj = integrate_profile(field, pulse_profile(), y0, 0.0, 50.0,
                                     box=(geometry.alpha, geometry.beta))
            assert traj.reason == "reached_t_end"


def test_time_translation_equivariance(quad_field):
    box = (-math.inf, 1.0)
    u0 = make_bang_bang(2.0, 0.0, 10.0, +1)
    u1 = PiecewiseLinear(tuple((t + 0.5, v) for t, v in u0.knots))
    t0 = integrate_profile(quad_field, u0, -1.0, 0.0, 10.0,
                           box=box).final_time
    t1 = integrate_profile(quad_field, u1, -1.0, 0.5, 10.5,
                           box=box).final_time
    assert abs((t1 - t0) - 0.5) <= 1e-10


# --------------------------------------------------------------------------
# the step loop, pinned to the bit
# --------------------------------------------------------------------------

def _fingerprint(traj):
    """Step count, SHA-256 of the exact times and states, stop reason and,
    for an exit, the edge crossed with the exit's time and state."""
    text = " ".join(map(float.hex, traj.times + traj.states))
    event = None
    if traj.reason == "event":
        edge = "exit_high" if traj.final_state > traj.states[0] else "exit_low"
        event = (edge, traj.final_time.hex(), traj.final_state.hex())
    return (len(traj.times), hashlib.sha256(text.encode()).hexdigest(),
            traj.reason, event)


def _forced_phase(field, profile, settings=None):
    """The forced phase of ``profile`` from the attractor -1 of x^2 - 1,
    in the exit box ``(-3, 1.0002)``, whose low edge is never reached."""
    pieces = integrate_module._drive_pieces(
        field, profile, profile.start_time(), profile.end_time())
    return integrate_pieces(pieces, -1.0, (-3.0, 1.0002), settings)


@pytest.mark.parametrize("spec,shots,expected", [
    ("tanh:10:0.02", True,
     (245, "9733674f10d0bd71a2a5aea55bb5ad3dcfcb0b813d5932f714bceca4c27badde",
      "reached_t_end", None)),
    ("tanh:10:0.02", False,
     (495, "565a7027605fe0f3788ec37ed21c292b7b1c04b49148958d0bfcc754271172e6",
      "reached_t_end", None)),
    ("random:3:1.2:12:5", False,
     (129, "ab6ec834e8da764d0cb1fb6b992d3d8205c704c66c1f852593e149aea4b384a8",
      "reached_t_end", None)),
    ("tanh:10:0.08", False,
     (113, "ec08376fa91072facd10b07232484a8981af81002a1cd35a03e2af5669988435",
      "event", ("exit_high", "-0x1.20b77686daf42p-3",
                "0x1.000d1b71e23f6p+0"))),
])
def test_forced_phases_keep_their_recorded_steps(quad_field, spec, shots,
                                                 expected):
    # recorded before the step loop called its stages directly: every step
    # time and state, and the event's, must stay the same to the bit
    profile = parse_forcing_spec(spec)
    if spec.startswith("random:"):
        assert len(profile.knots) == 13  # 12 segments
    settings = CLASSIFY_MODULE._SHOOTING if shots else None
    assert _fingerprint(_forced_phase(quad_field, profile, settings)) == expected


def _window_field(y: float) -> float:
    # 1 away from (758, 842), saturating to 2 across it; exp overflows on
    # (783, 817), and at +-inf the field reads 1 again
    return 1.0 + math.tanh(math.exp(1000.0 - (y - 800.0) ** 2))


def test_raising_stage_reads_inf_as_through_a_wrapper():
    calls = []

    def wrapped(t, y):
        try:
            value = _window_field(y)
        except OverflowError:
            value = math.inf
        calls.append((t, y, value))
        return value

    raising = integrate_pieces([(0.0, 2000.0, lambda t, y: _window_field(y))],
                               646.0)
    guarded = integrate_pieces([(0.0, 2000.0, wrapped)], 646.0)
    assert raising.times == guarded.times
    assert raising.states == guarded.states
    # no step jumps the window: the state stalls short of it
    assert _fingerprint(raising) == (
        57, "8a1008b761175e24f74b8d17b42683eeb76f657d568181db9e568147368a008a",
        "step_failure", None)
    assert 758.0 < raising.final_state < 783.0
    # after k1 and the initial step's probe, each try makes 6 calls, the
    # last at the step's end; stage 2 carries no weight in the solution,
    # but its zero term in the error sum reads an inf as nan, so no try
    # whose stage read inf is accepted
    tries = [calls[i:i + 6] for i in range(2, len(calls), 6)]
    accepted = set(zip(guarded.times[1:], guarded.states[1:]))
    raised = [tr for tr in tries if any(v == math.inf for _, _, v in tr)]
    assert len(raised) == 57
    assert sum(tr[-1][:2] in accepted for tr in raised) == 0


def test_overflow_edge_ends_as_a_step_failure():
    # stage 2 of every step past y = 709.78 overflows exp and reads inf,
    # while the later stages saturate to a finite value: the step must be
    # rejected, not accepted with t creeping by 1e-12 a step
    def rhs(t, y):
        return math.tanh(math.exp(y)) - math.tanh(math.exp(-y))

    traj = integrate_pieces([(0.0, 30.0, rhs)], 700.0)
    assert traj.reason == "step_failure"
    assert len(traj.times) - 1 <= 100
    assert traj.final_state == pytest.approx(709.7827, abs=1e-4)
