"""Pullback trajectory classification: tracking, tipping, or balanced on the
basin boundary.

The forced trajectory starts exactly at the attractor at the time the forcing
switches on (the unique solution converging to the attractor backward in time
is constant before that), and is integrated through the forcing support in
co-moving coordinates.  Once the forcing stops, the basin ``(alpha, beta)``
holds no rest point but the attractor, so the end state alone decides the
outcome: strictly inside the basin the trajectory tracks, outside it tips,
and exactly on a boundary point it stays balanced (critical).  When the state
leaves the basin after the forcing, its exit time comes from one first-passage
quadrature.

A monotone forcing can never push the state back across a boundary it has
crossed (beyond ``beta`` the field pushes outward and the drive is ``>= 0``;
mirrored at ``alpha``), so the forced phase stops at the first exit.  Any
other forcing is integrated to its end, since it may bring the state back.
Parameter studies localize the knife-edge case with :func:`threshold_bracket`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable

from .field import BasinGeometry, ScalarField
from .forcing import Composite, ControlSignal, ForcingProfile, PiecewiseLinear
from .integrate import (Event, IntegrationError, IntegrationSettings,
                        _drive_pieces, first_passage_time, integrate_pieces)

__all__ = [
    "ClassificationSettings",
    "TippingOutcome",
    "ThresholdBracket",
    "StraddleError",
    "pullback_start",
    "classify",
    "classify_control",
    "classify_x_frame",
    "threshold_bracket",
    "boundary_arrival",
]

TRACKS = "tracks"
TIPS = "tips"
CRITICAL = "critical"
_STEP_FAULTS = {"step_failure": "step size underflow",
                "step_limit": "step limit reached"}
# largest forcing value, relative to max(1, |final value|), that still counts
# as vanishing at the pullback start
_PULLBACK_TOL = 1e-10


class StraddleError(ValueError):
    """The family endpoints do not bracket a tipping threshold."""


@dataclass
class ClassificationSettings:
    """Tolerances for outcome decisions; a ``None`` exit margin is resolved
    from the basin geometry (a fraction of the radius)."""

    exit_margin: float | None = None        # default 1e-4 * radius
    integration: IntegrationSettings = dataclass_field(
        default_factory=IntegrationSettings)


@dataclass(frozen=True)
class TippingOutcome:
    """Variant plus diagnostics; positions are in the frame the
    classification was reported in.

    ``y_at_forcing_end`` is the state where the forced phase stopped: the end
    of the forcing support, or the exit state when a monotone forcing left
    the basin.  ``min_boundary_distance`` is 0 once the trajectory has
    crossed a boundary point.  ``final_time`` / ``final_value`` are where the
    trajectory's fate is known: ``(inf, attractor)`` when it tracks (with
    ``final_distance_to_attractor`` 0), the exit point when it tips, and the
    boundary point it rests on when critical.  ``exit_time`` is the last
    crossing of the exit threshold ``boundary +/- exit_margin``, on the
    ``exit_side`` (+1 high, -1 low) where the trajectory left.
    """

    variant: str
    y_at_forcing_end: float
    min_boundary_distance: float
    final_time: float
    final_value: float
    final_distance_to_attractor: float | None = None
    exit_side: int | None = None
    exit_time: float | None = None
    boundary_distance: float | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"variant": self.variant}
        if self.exit_side is not None:
            out["exit_side"] = self.exit_side
        if self.exit_time is not None:
            out["exit_time"] = self.exit_time
        if self.boundary_distance is not None:
            out["boundary_distance"] = self.boundary_distance
        out["y_at_forcing_end"] = self.y_at_forcing_end
        out["min_boundary_distance"] = self.min_boundary_distance
        out["final_time"] = self.final_time
        out["final_value"] = self.final_value
        return out


# --------------------------------------------------------------------------
# pullback start
# --------------------------------------------------------------------------

def pullback_start(field: ScalarField, geometry: BasinGeometry,
                   profile: ForcingProfile) -> tuple[float, float]:
    """Start of the unique trajectory converging to the attractor backward in
    time: the forcing vanishes before ``t0``, so the trajectory sits exactly
    at the attractor there."""
    t0 = profile.start_time()
    scale = max(1.0, abs(profile.final_value()))
    if abs(profile.value(t0)) > _PULLBACK_TOL * scale:
        raise ValueError(
            "profile does not vanish before its support; pullback start undefined")
    return t0, geometry.attractor


# --------------------------------------------------------------------------
# forced-phase integration
# --------------------------------------------------------------------------

def _exit_events(geometry: BasinGeometry, margin: float) -> list[Event]:
    events = []
    if math.isfinite(geometry.beta):
        events.append(Event("exit_high", geometry.beta + margin, +1))
    if math.isfinite(geometry.alpha):
        events.append(Event("exit_low", geometry.alpha - margin, -1))
    return events


def _is_piecewise_linear(profile: ForcingProfile) -> bool:
    if isinstance(profile, PiecewiseLinear):
        return True
    if isinstance(profile, Composite):
        return all(_is_piecewise_linear(p) for p in profile.parts)
    return False


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

def _classify_core(field: ScalarField, geometry: BasinGeometry, pieces,
                   monotone: bool, settings: ClassificationSettings | None
                   ) -> TippingOutcome:
    settings = settings or ClassificationSettings()
    margin = settings.exit_margin
    if margin is None:
        margin = 1e-4 * geometry.radius
    a, alpha, beta = geometry.attractor, geometry.alpha, geometry.beta
    events = _exit_events(geometry, margin)
    y, t, reason = a, math.inf, "reached_t_end"
    y_lo = y_hi = a  # range of the visited states
    exit_time = None
    while pieces:
        traj = integrate_pieces(pieces, y, events, settings.integration)
        y_lo = min(y_lo, min(traj.states))
        y_hi = max(y_hi, max(traj.states))
        y, t, reason = traj.final_state, traj.final_time, traj.reason
        if reason == "step_failure" and not alpha - margin <= y <= beta + margin:
            # past the exit threshold the field points outward and is smooth
            # but at poles: the state escapes in finite time, a blow-up
            reason = "blowup"
        elif reason in _STEP_FAULTS:
            raise IntegrationError(
                f"{_STEP_FAULTS[reason]} while integrating the forced phase")
        if reason != "event":
            break
        exit_time = t
        if monotone:
            break
        # the forcing may still bring the state back: resume past the exit
        pieces = [(max(p0, t), p1, rhs) for p0, p1, rhs in pieces
                  if p1 - t > 1e-12 * max(1.0, abs(p1))]

    # the step states span the visited range: under a constant drive the 1-D
    # flow is monotone within a step, and a tanh pulse is monotone and stops
    # at its first exit.  So this is 0 once the state crossed a boundary point
    min_dist = max(0.0, min(beta - y_hi, y_lo - alpha))
    side = 1 if y > a else -1
    final_time, final_value = t, y
    if reason != "blowup" and alpha < y < beta:
        variant, final_time, final_value = TRACKS, math.inf, a
        exit_time = None
    elif y == alpha or y == beta:
        variant, exit_time = CRITICAL, None
    else:
        variant = TIPS
        threshold = beta + margin if side > 0 else alpha - margin
        if reason == "reached_t_end" and side * (y - threshold) < 0.0:
            # left the basin but not yet the margin: the bare field finishes.
            # f has the outward sign on this path unless a second rest point
            # sits within the margin, so its two ends stand in for the grid
            # sign check when they agree
            outward = (side * field.f(y) > 0.0
                       and side * field.f(threshold) > 0.0)
            exit_time = t + first_passage_time(field, 0.0, y, threshold,
                                               skip_sign_check=outward)
            final_time, final_value = exit_time, threshold
        elif exit_time is None:  # blew up on an unbounded side
            exit_time = t
    return TippingOutcome(
        variant=variant, y_at_forcing_end=y, min_boundary_distance=min_dist,
        final_time=final_time, final_value=final_value,
        final_distance_to_attractor=0.0 if variant == TRACKS else None,
        exit_side=side if variant == TIPS else None, exit_time=exit_time,
        boundary_distance=0.0 if variant == CRITICAL else None)


def classify(field: ScalarField, geometry: BasinGeometry,
             profile: ForcingProfile,
             settings: ClassificationSettings | None = None) -> TippingOutcome:
    """Classify the pullback trajectory of a forcing profile in co-moving
    coordinates."""
    t0, _ = pullback_start(field, geometry, profile)
    t_end = profile.end_time()
    pieces = []
    if t_end > t0:
        # piecewise-linear profiles have a constant speed between knots
        pieces = _drive_pieces(field, profile.speed,
                               profile.speed_breakpoints(), t0, t_end,
                               _is_piecewise_linear(profile))
    return _classify_core(field, geometry, pieces, profile.monotone(),
                          settings)


def classify_control(field: ScalarField, geometry: BasinGeometry,
                     control: ControlSignal,
                     settings: ClassificationSettings | None = None
                     ) -> TippingOutcome:
    """Classify a piecewise-constant control signal directly."""
    t0 = control.start_time()
    t_end = control.end_time()
    pieces = []
    if t_end > t0:
        pieces = _drive_pieces(field, control.value, control.boundaries(), t0,
                               t_end, True)
    values = [seg.value for seg in control.segments]
    monotone = all(v >= 0.0 for v in values) or all(v <= 0.0 for v in values)
    return _classify_core(field, geometry, pieces, monotone, settings)


def classify_x_frame(field: ScalarField, geometry: BasinGeometry,
                     profile: ForcingProfile,
                     settings: ClassificationSettings | None = None
                     ) -> TippingOutcome:
    """Classification reported in the original (shifting) frame.

    The co-moving substitution is a bijection on trajectories, so the variant
    is identical; reported positions are shifted by the forcing value at
    their own times."""
    out = classify(field, geometry, profile, settings)
    return replace(
        out,
        final_value=out.final_value - profile.value(out.final_time),
        y_at_forcing_end=out.y_at_forcing_end - profile.value(profile.end_time()),
    )


def boundary_arrival(field: ScalarField, geometry: BasinGeometry,
                     control: ControlSignal,
                     settings: ClassificationSettings | None = None,
                     arrival_tol: float | None = None) -> bool:
    """True when the controlled trajectory reaches the basin boundary, either
    crossing it or grazing it within ``arrival_tol`` (1e-5 * radius by
    default)."""
    tol = arrival_tol if arrival_tol is not None else 1e-5 * geometry.radius
    outcome = classify_control(field, geometry, control, settings)
    if outcome.variant == TIPS:
        return True
    return outcome.min_boundary_distance <= tol


# --------------------------------------------------------------------------
# threshold bracketing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdBracket:
    param_critical: float
    bracket_width: float


def threshold_bracket(field: ScalarField, geometry: BasinGeometry,
                      family: Callable[[float], ForcingProfile],
                      param_range: tuple[float, float],
                      settings: ClassificationSettings | None = None,
                      rel_width: float = 1e-6) -> ThresholdBracket:
    """Bisect a monotone forcing family for its tipping threshold.

    The low end of ``param_range`` must track and the high end must tip;
    otherwise no threshold is bracketed and :class:`StraddleError` is raised.
    """
    lo, hi = float(param_range[0]), float(param_range[1])
    if not lo < hi:
        raise ValueError("param_range must be increasing")

    def tips(param: float) -> bool:
        outcome = classify(field, geometry, family(param), settings)
        return outcome.variant != TRACKS

    if tips(lo):
        raise StraddleError(f"family already tips at the low end {lo!r}")
    if not tips(hi):
        raise StraddleError(f"family does not tip at the high end {hi!r}")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if tips(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_width * max(abs(lo), abs(hi)):
            break
    return ThresholdBracket(param_critical=0.5 * (lo + hi),
                            bracket_width=hi - lo)
