"""Lockstep batch of the necessity campaign: the lane stepper, the settle
rule, and the scalar fallback."""
import importlib
import math

import numpy as np
import pytest

from tipcrit.classify import (_EXIT_MARGIN, _INTEGRATION, _SETTLE_GUARD,
                              _SHOOTING, _lockstep_tracks, classify,
                              threshold_bracket)
from tipcrit.control import critical_rate
from tipcrit.field import ScalarField
from tipcrit.forcing import PiecewiseLinear, make_piecewise_linear_ramp
from tipcrit.harness import (_sample_variants, build_field,
                             random_forcing_for_sample)
from tipcrit.integrate import _integrate_lanes, integrate_pieces
from conftest import integrate_profile, lanes, pulse_profile

CLASSIFY_MODULE = importlib.import_module("tipcrit.classify")
HARNESS_MODULE = importlib.import_module("tipcrit.harness")
INTEGRATE_MODULE = importlib.import_module("tipcrit.integrate")


def criterion_4_cells():
    for field_text, attractor, radius in (("x^2-1", -1.0, 2.0),
                                          ("x*(x-1)*(x+2)", 0.0, 1.0)):
        for L in np.geomspace(1.1 * radius, 5.0 * radius, 5):
            yield field_text, attractor, float(L)


def scalar_outcomes(field, geometry, L, cap, seed, n):
    return [classify(field, geometry,
                     random_forcing_for_sample(L, cap, seed, i))
            for i in range(n)]


@pytest.fixture(scope="module")
def overdriven_cell():
    """x^2-1 at L = 5R, capped at 1.2 m_c, and its root seed: at root 33
    some lanes tip, and one non-monotone lane, 158, leaves the basin and
    comes back."""
    field, geometry = build_field("x^2-1", -1.0)
    cap = 1.2 * critical_rate(geometry, field, 10.0).m_c
    return field, geometry, 10.0, cap, 33


def test_lanes_follow_the_scalar_stepper(quad_field, quad_geometry):
    # three lanes of 3, 1 and 1 pieces; the last is driven out of the basin
    cuts = np.array([[0.0, 0.7, 1.5, 2.6], [0.0, 3.0, 0.0, 0.0],
                     [0.0, 2.0, 0.0, 0.0]])
    drives = np.array([[1.2, -0.5, 0.8], [0.5, 0.0, 0.0], [3.0, 0.0, 0.0]])
    n_pieces = np.array([3, 1, 1])
    margin = _EXIT_MARGIN * quad_geometry.radius
    y_end = _integrate_lanes(quad_field._grid[0], cuts, drives, n_pieces,
                             -1.0, (-np.inf, quad_geometry.beta + margin),
                             _INTEGRATION)
    for lane in range(2):
        n = n_pieces[lane]
        control = pulse_profile(*(
            (cuts[lane, p], cuts[lane, p + 1], drives[lane, p])
            for p in range(n)))
        traj = integrate_profile(quad_field, control, -1.0, 0.0,
                                 cuts[lane, n])
        assert traj.reason == "reached_t_end"
        assert y_end[lane] == pytest.approx(traj.final_state, abs=1e-9)
    assert np.isnan(y_end[2])


def test_lanes_and_the_scalar_stepper_read_the_exit_box_alike():
    # overdriven, so many lanes leave the box; a lane that grazes an edge
    # may end on either side of it within rounding, and is skipped
    field, geometry = build_field("x*(x-1)*(x+2)", 0.0)
    cap = 1.5 * critical_rate(geometry, field, 10.0).m_c
    profiles = [random_forcing_for_sample(10.0, cap, 42, i)
                for i in range(200)]
    n_pieces, knots = lanes(profiles)
    cuts = knots[:, :, 0]
    dt, dv = np.diff(cuts), np.diff(knots[:, :, 1])
    drives = np.divide(dv, dt, out=np.zeros_like(dv), where=dt > 0.0)
    box = lo, hi = CLASSIFY_MODULE._exit_box(geometry)
    ends = _integrate_lanes(field._grid[0], cuts, drives, n_pieces, 0.0, box,
                            _SHOOTING)
    clear = 1e-3 * geometry.radius
    exits = inside = 0
    for end, profile in zip(ends, profiles):
        pieces = INTEGRATE_MODULE._drive_pieces(
            field, profile, profile.start_time(), profile.end_time())
        traj = integrate_pieces(pieces, 0.0, box, _SHOOTING)
        if traj.reason == "event":
            assert math.isnan(end)
            exits += 1
        elif lo + clear <= min(traj.states) and max(traj.states) <= hi - clear:
            assert end == pytest.approx(traj.final_state, abs=1e-6)
            inside += 1
    assert exits >= 20 and inside >= 100


def test_lane_that_fails_its_step_reads_nan():
    # f is undefined past -0.5, so every step there is rejected until h
    # underflows: the scalar stepper's step failure
    def fv(y):
        return np.where(y > -0.5, np.nan, y * y - 1.0)

    def f(y):
        return math.nan if y > -0.5 else y * y - 1.0

    failing = integrate_pieces([(0.0, 2.0, lambda t, y: f(y) + 1.5)], -1.0)
    settling = integrate_pieces([(0.0, 2.0, lambda t, y: f(y) + 0.1)], -1.0)
    assert failing.reason == "step_failure"
    y_end = _integrate_lanes(fv, np.array([[0.0, 2.0], [0.0, 2.0]]),
                             np.array([[1.5], [0.1]]), np.array([1, 1]),
                             -1.0, (-np.inf, np.inf), _INTEGRATION)
    assert np.isnan(y_end[0])
    assert y_end[1] == pytest.approx(settling.final_state, abs=1e-9)


def test_rejected_steps_end_where_the_scalar_stepper_ends(monkeypatch):
    # f is undefined past -0.5; the first piece holds the state on its rest
    # point while the step grows, so the step carried into the second piece
    # is far too long: tries there are rejected, some on a large error and
    # some on a non-finite stage, and retried until the lanes go on
    def fv(y):
        return np.where(y > -0.5, np.nan, y * y - 1.0)

    def f(y):
        return math.nan if y > -0.5 else y * y - 1.0

    cuts = np.array([[0.0, 20.0, 30.0], [0.0, 20.0, 30.0]])
    drives = np.array([[0.0, 0.5], [0.0, 0.7]])

    def run(rows):
        calls = []

        def counted_fv(y):
            calls.append(y.size)
            return fv(y)

        y_end = _integrate_lanes(counted_fv, cuts[rows], drives[rows],
                                 np.array([2] * len(rows)), -1.0,
                                 (-np.inf, np.inf), _INTEGRATION)
        # a lane that ends its last piece turns to no next one
        assert min(calls) > 0
        return y_end, sum(calls)

    together, _ = run([0, 1])
    tries = []
    real = INTEGRATE_MODULE._propagate

    def spy(*args):
        tries.append(real(*args))
        return tries[-1]

    monkeypatch.setattr(INTEGRATE_MODULE, "_propagate", spy)
    for lane in range(2):
        tries.clear()
        traj = integrate_pieces(
            [(a, b, lambda t, y, c=c: f(y) + c)
             for a, b, c in zip(cuts[lane], cuts[lane, 1:], drives[lane])],
            -1.0)
        assert traj.reason == "reached_t_end"
        rejected = len(tries) - (len(traj.times) - 1)
        non_finite = sum(not (math.isfinite(y) and math.isfinite(err))
                         for y, err in tries)
        assert 0 < non_finite < rejected
        assert together[lane] == pytest.approx(traj.final_state, abs=1e-9)
        # alone, the lane makes the scalar stepper's tries: 6 evaluations
        # each, besides k1 on both pieces and the initial step's probe
        _, evals = run([lane])
        assert evals == 6 * len(tries) + 3


def test_lanes_drive_the_slopes_of_classify_pieces(monkeypatch, cubic_field,
                                                   cubic_geometry):
    # the screen and classify read one drive per knot segment, bit for bit
    cap = 0.95 * critical_rate(cubic_geometry, cubic_field, 10.0).m_c
    profiles = [random_forcing_for_sample(10.0, cap, 42, i)
                for i in range(200)]
    batches = []

    def recorded(fv, cuts, slopes, n_pieces, *args):
        batches.append((cuts, slopes, n_pieces))
        return INTEGRATE_MODULE._integrate_lanes(fv, cuts, slopes, n_pieces,
                                                 *args)

    monkeypatch.setattr(CLASSIFY_MODULE, "_integrate_lanes", recorded)
    _lockstep_tracks(cubic_field, cubic_geometry, *lanes(profiles))
    (cuts, slopes, n_pieces), = batches
    # a lane settles at t0 only if it rises below 0.99 and falls below 1.99,
    # so no lane of arclength 10 does
    assert len(n_pieces) == 200
    for profile, row, n in zip(profiles, slopes, n_pieces):
        pieces = INTEGRATE_MODULE._drive_pieces(
            ScalarField.from_text("0"), profile, profile.start_time(),
            profile.end_time())
        assert ([rhs(a, 0.0).hex() for a, _, rhs in pieces]
                == [float(c).hex() for c in row[:n]])


def test_batch_equals_classify_on_criterion_4():
    for field_text, attractor, L in criterion_4_cells():
        field, geometry = build_field(field_text, attractor)
        cap = 0.95 * critical_rate(geometry, field, L).m_c
        outcomes = scalar_outcomes(field, geometry, L, cap, 42, 200)
        profiles = [random_forcing_for_sample(L, cap, 42, i)
                    for i in range(200)]
        assert _lockstep_tracks(field, geometry, *lanes(profiles)).any()
        assert (_sample_variants(field, geometry, L, cap, 42, range(200))
                == [o.variant for o in outcomes]), (field_text, L)


def test_tipping_and_returning_lanes_fall_back_to_classify(overdriven_cell):
    field, geometry, L, cap, root = overdriven_cell
    profiles = [random_forcing_for_sample(L, cap, root, i)
                for i in range(200)]
    outcomes = [classify(field, geometry, p) for p in profiles]
    settled = _lockstep_tracks(field, geometry, *lanes(profiles))
    assert all(outcomes[i].variant == "tracks"
               for i in np.flatnonzero(settled))
    fallback = np.flatnonzero(~settled)
    assert any(outcomes[i].variant == "tips" for i in fallback)
    returned = [i for i in fallback if outcomes[i].variant == "tracks"]
    assert returned
    for i in returned:
        assert not profiles[i].monotone()
        assert outcomes[i].min_boundary_distance == 0.0
    assert (_sample_variants(field, geometry, L, cap, root, range(200))
            == [o.variant for o in outcomes])


def test_variants_do_not_depend_on_the_chunking(overdriven_cell):
    field, geometry, L, cap, root = overdriven_cell
    whole = _sample_variants(field, geometry, L, cap, root, range(200))
    chunked = []
    for start in range(0, 200, 7):
        chunked += _sample_variants(field, geometry, L, cap, root,
                                    range(start, min(start + 7, 200)))
    assert chunked == whole
    assert "tips" in whole


def test_lane_ending_within_the_guard_goes_to_classify(quad_field,
                                                       quad_geometry):
    def family(m):
        return make_piecewise_linear_ramp(3.0, m)

    bracket = threshold_bracket(quad_field, quad_geometry, family, (1.5, 4.0))
    below = bracket.param_critical - 0.5 * bracket.bracket_width
    edge = classify(quad_field, quad_geometry, family(below))
    guard = _SETTLE_GUARD * quad_geometry.radius
    assert edge.variant == "tracks"
    assert 0.0 < quad_geometry.beta - edge.y_at_forcing_end < guard
    settled = _lockstep_tracks(quad_field, quad_geometry, *lanes(
        [family(below), family(2.0)]))
    assert settled.tolist() == [False, True]


def _screened_ends(monkeypatch, field, geometry, profiles):
    """The lanes' states at the end of their forcings, each stepped as
    ``_lockstep_tracks`` steps it but without its settle rule, and the
    number of numpy ``f`` evaluations that ``_lockstep_tracks`` makes."""
    record = {"evals": 0}
    real = CLASSIFY_MODULE._integrate_lanes

    def spy(fv, *args):
        def counted_fv(y):
            record["evals"] += 1
            return fv(y)

        return real(counted_fv, *args)

    monkeypatch.setattr(CLASSIFY_MODULE, "_integrate_lanes", spy)
    _lockstep_tracks(field, geometry, *lanes(profiles))
    monkeypatch.undo()
    n_pieces = np.array([len(p.knots) - 1 for p in profiles])
    cuts = np.zeros((len(profiles), n_pieces.max() + 1))
    drives = np.zeros((len(profiles), n_pieces.max()))
    for row, profile in enumerate(profiles):
        t, v = np.array(profile.knots).T
        cuts[row, :t.size] = t
        drives[row, :t.size - 1] = np.diff(v) / np.diff(t)
    margin = _EXIT_MARGIN * geometry.radius
    ends = real(field._grid[0], cuts, drives, n_pieces, geometry.attractor,
                (geometry.alpha - margin, geometry.beta + margin), _SHOOTING)
    return ends, record["evals"]


def test_screen_drift_lies_far_inside_the_guard(monkeypatch, overdriven_cell):
    # the lanes run at the shot tolerance; their end states drift from
    # classify's by at most 1.8e-5 R over 40,000 lanes at caps up to 1.5 m_c
    cells = []
    for field_text, attractor, L in criterion_4_cells():
        field, geometry = build_field(field_text, attractor)
        cells.append((field, geometry, L,
                      0.95 * critical_rate(geometry, field, L).m_c, 42))
    cells.append(overdriven_cell)
    for field, geometry, L, cap, root in cells:
        profiles = [random_forcing_for_sample(L, cap, root, i)
                    for i in range(200)]
        ends, _ = _screened_ends(monkeypatch, field, geometry, profiles)
        drift = [abs(end - outcome.y_at_forcing_end)
                 for end, outcome in zip(ends, (classify(field, geometry, p)
                                                for p in profiles))
                 if math.isfinite(end) and outcome.variant == "tracks"]
        assert drift
        assert max(drift) <= _SETTLE_GUARD * geometry.radius / 100


def test_lane_ending_inside_the_wide_guard_goes_to_classify(
        monkeypatch, quad_field, quad_geometry):
    # a ramp that ends a few 1e-3 R short of beta: clear of a 1e-6 R guard,
    # inside the screen's guard, so classify decides it
    def family(m):
        return make_piecewise_linear_ramp(3.0, m)

    edge = classify(quad_field, quad_geometry, family(2.15))
    gap = (quad_geometry.beta - edge.y_at_forcing_end) / quad_geometry.radius
    assert edge.variant == "tracks"
    assert 1e-6 < gap < _SETTLE_GUARD
    settled = _lockstep_tracks(quad_field, quad_geometry, *lanes(
        [family(2.15), family(2.0)]))
    assert settled.tolist() == [False, True]

    classified = []
    real_classify = HARNESS_MODULE.classify

    def counted_classify(field, geometry, profile):
        classified.append(profile)
        return real_classify(field, geometry, profile)

    monkeypatch.setattr(HARNESS_MODULE, "_random_forcings",
                        lambda L, cap, seed, indices: lanes(
                            [family(2.15) for _ in indices]))
    monkeypatch.setattr(HARNESS_MODULE, "classify", counted_classify)
    variants = _sample_variants(quad_field, quad_geometry, 3.0, 2.15, 0,
                                range(1))
    assert variants == [edge.variant]
    assert classified == [family(2.15)]


def test_screen_f_evaluations_of_one_cell(monkeypatch, quad_field,
                                          quad_geometry):
    # a work guard: the batch of x^2-1's L = 10 cell evaluates f 949 times
    # at the shot tolerance (1217 when every lane steps to its forcing's
    # end), and 2553 at the default settings
    cap = 0.95 * critical_rate(quad_geometry, quad_field, 10.0).m_c
    profiles = [random_forcing_for_sample(10.0, cap, 42, i)
                for i in range(200)]
    ends, evals = _screened_ends(monkeypatch, quad_field, quad_geometry,
                                 profiles)
    assert np.isfinite(ends).all()
    assert evals <= 1500


# --------------------------------------------------------------------------
# the remaining-arclength settle rule
# --------------------------------------------------------------------------

def _one_signed_arclength(profile):
    """The profile's total upward and downward displacement."""
    dv = np.diff(np.array(profile.knots)[:, 1])
    return dv[dv > 0.0].sum(), -dv[dv < 0.0].sum()


def _entering_lanes(monkeypatch, field, geometry, profiles):
    """``_lockstep_tracks``' answer, and the number of lanes it passes to
    ``_integrate_lanes`` (None when it makes no call)."""
    entered = []
    real = CLASSIFY_MODULE._integrate_lanes

    def spy(fv, cuts, *args):
        entered.append(len(cuts))
        return real(fv, cuts, *args)

    monkeypatch.setattr(CLASSIFY_MODULE, "_integrate_lanes", spy)
    settled = _lockstep_tracks(field, geometry, *lanes(profiles))
    monkeypatch.undo()
    return settled, entered[0] if entered else None


def test_lane_that_passes_at_the_start_is_never_integrated(
        monkeypatch, cubic_field, cubic_geometry):
    # the cubic's basin is (-2, 1) around 0, so g = 0.01: up 0.5 then down
    # 1.2 stays inside whatever the field does, up 1.2 does not
    inside = PiecewiseLinear(((0.0, 0.0), (1.0, 0.5), (2.0, -0.7)))
    beyond = PiecewiseLinear(((0.0, 0.0), (40.0, 1.2)))
    assert classify(cubic_field, cubic_geometry, inside).variant == "tracks"
    settled, entered = _entering_lanes(monkeypatch, cubic_field,
                                       cubic_geometry, [inside])
    assert settled.tolist() == [True] and entered is None
    settled, entered = _entering_lanes(monkeypatch, cubic_field,
                                       cubic_geometry, [inside, beyond])
    assert entered == 1
    assert settled[0]


def test_two_piece_lane_leaves_the_batch_before_its_last_piece(quad_field,
                                                                quad_geometry):
    # x^2-1 from -1, beta = 1, g = 0.02: a slow rise of 2.5 holds the state
    # near its quasi-rest point -sqrt(0.9), so the test passes once less
    # than about 1.93 of it is left, well before the second piece's fall
    fv = quad_field._grid[0]
    cuts = np.array([[0.0, 25.0, 26.0]])
    drives = np.array([[0.1, -1.0]])
    rise = np.array([[2.5, 0.0, 0.0]])
    fall = np.array([[1.0, 1.0, 0.0]])
    guard = _SETTLE_GUARD * quad_geometry.radius
    hi = quad_geometry.beta + _EXIT_MARGIN * quad_geometry.radius
    box = (quad_geometry.alpha + guard, quad_geometry.beta - guard)
    assert not -1.0 + rise[0, 0] < box[1]  # fails the test at the start

    def run(cuts, drives, n_pieces, settle=None):
        evals = []

        def counted_fv(y):
            evals.append(y.size)
            return fv(y)

        y = _integrate_lanes(counted_fv, cuts, drives, n_pieces, -1.0,
                             (-np.inf, hi), _SHOOTING, settle)
        return y[0], len(evals)

    left, settled_evals = run(cuts, drives, np.array([2]),
                              (rise, fall, *box))
    end, _ = run(cuts, drives, np.array([2]))
    _, first_piece_evals = run(cuts[:, :2], drives[:, :1], np.array([1]))
    # it left during the first piece, near the quasi-rest point; stepped to
    # its end, the lane falls well below it
    assert settled_evals < first_piece_evals
    assert left == pytest.approx(-math.sqrt(0.9), abs=1e-3)
    assert end < -1.2
    profile = PiecewiseLinear(((0.0, 0.0), (25.0, 2.5), (26.0, 1.5)))
    settled = _lockstep_tracks(quad_field, quad_geometry,
                               *lanes([profile]))
    assert settled.tolist() == [True]
    assert classify(quad_field, quad_geometry, profile).variant == "tracks"


@pytest.mark.parametrize("field_text,attractor,L", [
    ("x^2-1", -1.0, 4.0), ("x*(x-1)*(x+2)", 0.0, 2.0)])
def test_every_lane_settled_at_1p5_m_c_tracks(field_text, attractor, L):
    field, geometry = build_field(field_text, attractor)
    cap = 1.5 * critical_rate(geometry, field, L).m_c
    profiles = [random_forcing_for_sample(L, cap, 7, i) for i in range(200)]
    settled = _lockstep_tracks(field, geometry, *lanes(profiles))
    variants = [classify(field, geometry, p).variant for p in profiles]
    assert all(variants[i] == "tracks" for i in np.flatnonzero(settled))
    assert any(variants[i] == "tips" for i in np.flatnonzero(~settled))
    guard = _SETTLE_GUARD * geometry.radius
    at_start = [
        attractor + up < geometry.beta - guard
        and attractor - down > geometry.alpha + guard
        for up, down in map(_one_signed_arclength, profiles)]
    # some lanes pass at the start, and more inside the batch
    assert 0 < sum(at_start) < settled.sum()
    assert all(settled[at_start])
