"""Lockstep batch of the necessity campaign: the lane stepper, the settle
rule, and the scalar fallback."""
import importlib
import math

import numpy as np
import pytest

from tipcrit import ControlSegment, ControlSignal, integrate_controlled
from tipcrit.classify import (_EXIT_MARGIN, _INTEGRATION, _SETTLE_GUARD,
                              _lockstep_tracks, classify, threshold_bracket)
from tipcrit.control import critical_rate
from tipcrit.forcing import make_piecewise_linear_ramp
from tipcrit.harness import (_sample_variants, build_field,
                             random_forcing_for_sample)
from tipcrit.integrate import _integrate_lanes, integrate_pieces

CLASSIFY_MODULE = importlib.import_module("tipcrit.classify")
HARNESS_MODULE = importlib.import_module("tipcrit.harness")


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
    """x^2-1 at L = 5R, capped at 1.2 m_c: some lanes tip, and one
    non-monotone lane leaves the basin and comes back."""
    field, geometry = build_field("x^2-1", -1.0)
    cap = 1.2 * critical_rate(geometry, field, 10.0).m_c
    return field, geometry, 10.0, cap


def test_lanes_follow_the_scalar_stepper(quad_field, quad_geometry):
    # three lanes of 3, 1 and 1 pieces; the last is driven out of the basin
    cuts = np.array([[0.0, 0.7, 1.5, 2.6], [0.0, 3.0, 0.0, 0.0],
                     [0.0, 2.0, 0.0, 0.0]])
    drives = np.array([[1.2, -0.5, 0.8], [0.5, 0.0, 0.0], [3.0, 0.0, 0.0]])
    n_pieces = np.array([3, 1, 1])
    margin = _EXIT_MARGIN * quad_geometry.radius
    y_end = _integrate_lanes(quad_field._grid[0], cuts, drives, n_pieces,
                             -1.0, -np.inf, quad_geometry.beta + margin,
                             _INTEGRATION)
    for lane in range(2):
        n = n_pieces[lane]
        control = ControlSignal(tuple(
            ControlSegment(cuts[lane, p], cuts[lane, p + 1], drives[lane, p])
            for p in range(n)))
        traj = integrate_controlled(quad_field, control, -1.0, 0.0,
                                    cuts[lane, n])
        assert traj.reason == "reached_t_end"
        assert y_end[lane] == pytest.approx(traj.final_state, abs=1e-9)
    assert np.isnan(y_end[2])


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
                             -1.0, -np.inf, np.inf, _INTEGRATION)
    assert np.isnan(y_end[0])
    assert y_end[1] == pytest.approx(settling.final_state, abs=1e-9)


def test_batch_equals_classify_on_criterion_4():
    for field_text, attractor, L in criterion_4_cells():
        field, geometry = build_field(field_text, attractor)
        cap = 0.95 * critical_rate(geometry, field, L).m_c
        outcomes = scalar_outcomes(field, geometry, L, cap, 42, 200)
        profiles = [random_forcing_for_sample(L, cap, 42, i)
                    for i in range(200)]
        assert _lockstep_tracks(field, geometry, profiles).any()
        assert (_sample_variants(field, geometry, L, cap, 42, range(200))
                == [o.variant for o in outcomes]), (field_text, L)


def test_tipping_and_returning_lanes_fall_back_to_classify(overdriven_cell):
    field, geometry, L, cap = overdriven_cell
    profiles = [random_forcing_for_sample(L, cap, 42, i) for i in range(200)]
    outcomes = [classify(field, geometry, p) for p in profiles]
    settled = _lockstep_tracks(field, geometry, profiles)
    assert all(outcomes[i].variant == "tracks"
               for i in np.flatnonzero(settled))
    fallback = np.flatnonzero(~settled)
    assert any(outcomes[i].variant == "tips" for i in fallback)
    returned = [i for i in fallback if outcomes[i].variant == "tracks"]
    assert returned
    for i in returned:
        assert not profiles[i].monotone()
        assert outcomes[i].min_boundary_distance == 0.0
    assert (_sample_variants(field, geometry, L, cap, 42, range(200))
            == [o.variant for o in outcomes])


def test_variants_do_not_depend_on_the_chunking(overdriven_cell):
    field, geometry, L, cap = overdriven_cell
    whole = _sample_variants(field, geometry, L, cap, 42, range(200))
    chunked = []
    for start in range(0, 200, 7):
        chunked += _sample_variants(field, geometry, L, cap, 42,
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
    settled = _lockstep_tracks(quad_field, quad_geometry,
                               [family(below), family(2.0)])
    assert settled.tolist() == [False, True]


def _screened_ends(monkeypatch, field, geometry, profiles):
    """The lanes' end states in ``_lockstep_tracks`` and the number of its
    numpy ``f`` evaluations."""
    record = {"evals": 0}
    real = CLASSIFY_MODULE._integrate_lanes

    def spy(fv, *args):
        def counted_fv(y):
            record["evals"] += 1
            return fv(y)

        record["ends"] = real(counted_fv, *args)
        return record["ends"]

    monkeypatch.setattr(CLASSIFY_MODULE, "_integrate_lanes", spy)
    _lockstep_tracks(field, geometry, profiles)
    monkeypatch.undo()
    return record["ends"], record["evals"]


def test_screen_drift_lies_far_inside_the_guard(monkeypatch, overdriven_cell):
    # the lanes run at the shot tolerance; their end states drift from
    # classify's by at most 2.5e-5 R over 40,000 lanes at caps up to 1.5 m_c
    cells = []
    for field_text, attractor, L in criterion_4_cells():
        field, geometry = build_field(field_text, attractor)
        cells.append((field, geometry, L,
                      0.95 * critical_rate(geometry, field, L).m_c))
    cells.append(overdriven_cell)
    for field, geometry, L, cap in cells:
        profiles = [random_forcing_for_sample(L, cap, 42, i)
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
    settled = _lockstep_tracks(quad_field, quad_geometry,
                               [family(2.15), family(2.0)])
    assert settled.tolist() == [False, True]

    classified = []
    real_classify = HARNESS_MODULE.classify

    def counted_classify(field, geometry, profile):
        classified.append(profile)
        return real_classify(field, geometry, profile)

    monkeypatch.setattr(HARNESS_MODULE, "random_forcing_for_sample",
                        lambda L, cap, seed, i: family(2.15))
    monkeypatch.setattr(HARNESS_MODULE, "classify", counted_classify)
    variants = _sample_variants(quad_field, quad_geometry, 3.0, 2.15, 0,
                                range(1))
    assert variants == [edge.variant]
    assert classified == [family(2.15)]


def test_screen_f_evaluations_of_one_cell(monkeypatch, quad_field,
                                          quad_geometry):
    # a work guard: the batch of x^2-1's L = 10 cell evaluates f 1127 times
    # at the shot tolerance, and 2365 at the default settings
    cap = 0.95 * critical_rate(quad_geometry, quad_field, 10.0).m_c
    profiles = [random_forcing_for_sample(10.0, cap, 42, i)
                for i in range(200)]
    ends, evals = _screened_ends(monkeypatch, quad_field, quad_geometry,
                                 profiles)
    assert np.isfinite(ends).all()
    assert evals <= 1500
