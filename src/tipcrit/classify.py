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
quadrature, started from a single panel that checks the field's outward sign
at both ends of the short tail path.

A monotone forcing can never push the state back across a boundary it has
crossed (beyond ``beta`` the field pushes outward and the drive is ``>= 0``;
mirrored at ``alpha``), so the forced phase stops at the first exit.  Any
other forcing is integrated to its end, since it may bring the state back.

The necessity campaign screens its random forcings first: one lockstep
batch at the shots' tolerance (below) settles those that certainly stay
well inside the basin, ``g = 1e-2 R`` clear of both boundary points, and
``classify`` decides every other one.  Inside the basin ``f`` points back
to the attractor ``a``, so from time ``t`` on ``max(y, a)`` rises by at
most the drive's upward arclength still ahead, ``P+(t)``, and
``min(y, a)`` falls by at most its downward one, ``P-(t)``: a lane settles
as soon as ``max(y, a) + P+(t) < beta - g`` and
``min(y, a) - P-(t) > alpha + g``, at the latest when its forcing ends.
:func:`threshold_bracket` reads only the variant of its certifying
``classify`` calls, so their forced phase, on a forcing monotone toward
``side``, ends by the same rule's half on that side (a drive monotone
toward it has no arclength away from it): as soon as
``max(y, a) + P+(t) < beta - g`` (mirrored at ``alpha``), it tracks.  The
rule is tested only from the earliest time it can hold, where
``a + P+(t) < beta - g``.

Parameter studies localize the knife-edge case with :func:`threshold_bracket`.
Solutions of a 1-D equation keep their order, so a forcing monotone toward a
boundary point tips exactly when its pullback trajectory lies above (beyond)
the solution that ends on that point when the forcing stops.  Comparing the
two half-solves at the middle of the support gives a continuous, signed
residual, whose root the Brent solve finds (shooting, as for a connecting
orbit).  A one-segment ramp of displacement ``D`` at slope ``m`` needs no
shots: it drives ``y' = f(y) + m`` toward its boundary point for ``D / m``,
so it tips exactly when its fuel cost ``m T(m)`` is at most ``D``, and its
residual ``D - m T(m)`` is one first-passage quadrature on the path's
cached mesh.  The guess only has to land within the certifying step, so the
shots' half-solves run at a fixed tolerance of their own (``rtol = 1e-6``,
``atol = 1e-8``), and the Brent solve stops once its bracket lies inside
that step or its interpolated correction falls below half of it (the
predicted root, left unevaluated).  ``classify``, at the default
:class:`IntegrationSettings`, then certifies a bracket around the guess,
and tips/tracks bisection finishes it; bisection alone serves other
families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .field import BasinGeometry, ScalarField, _bracketed_root
from .forcing import ForcingProfile, PiecewiseLinear, _direction
from .integrate import (Event, IntegrationError, IntegrationSettings,
                        QuadratureFault, SignChangeFault, _drive_pieces,
                        _integrate_lanes, _unmeshed_passage_time,
                        first_passage_time, integrate_pieces)

__all__ = [
    "TippingOutcome",
    "ThresholdBracket",
    "StraddleError",
    "pullback_start",
    "classify",
    "threshold_bracket",
    "boundary_arrival",
]

TRACKS = "tracks"
TIPS = "tips"
CRITICAL = "critical"
_FAULTS = {"step_failure": "step size underflow",
           "step_limit": "step limit reached",
           "blowup": "a blow-up to |y| >= 1e6 inside the basin"}
# largest forcing value, relative to max(1, |final value|), that still counts
# as vanishing at the pullback start
_PULLBACK_TOL = 1e-10
_EXIT_MARGIN = 1e-4        # exit thresholds lie this fraction of R outside
_ARRIVAL_TOL = 1e-5        # a graze this close, relative to R, arrives
_SETTLE_GUARD = 1e-2       # a batch lane settles this far inside, relative to R
_BRACKET_REL_WIDTH = 1e-6  # threshold_bracket's width relative to its ends
_CERTIFY_STEP = 0.375e-6   # first certifying classify, relative to the guess
_INTEGRATION = IntegrationSettings()
# the two screens that classify at _INTEGRATION backs up: the shooting
# half-solves only place a guess within the certify step (at rtol 2e-6 some
# tanh guesses already miss it and cost a third classify), and the campaign
# batch only settles lanes that stay _SETTLE_GUARD inside the basin (their
# states drift from classify's by at most 2.5e-5 R)
_SHOOTING = IntegrationSettings(rtol=1e-6, atol=1e-8)


class StraddleError(ValueError):
    """The family endpoints do not bracket a tipping threshold."""


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
    crossing of the exit threshold ``boundary +/- 1e-4 radius``, on the
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


def _integrate(geometry: BasinGeometry, pieces, y0: float,
               events: list[Event],
               settings: IntegrationSettings = _INTEGRATION, stop=None):
    """``integrate_pieces`` at ``settings`` and its stop reason under the
    forced phase's fault rules: a step underflow or a stop at ``|y| >= 1e6``
    past the exit thresholds is a blow-up (the field points outward there
    and is smooth but at poles, so the state escapes in finite time).
    Inside them either one raises, as does a step limit: an unbounded side
    holds no rest point, so the field there points back toward the
    attractor, and ``|y| >= 1e6`` is only the integrator's cap.  ``stop``
    is ``integrate_pieces``'s private ``_stop``."""
    traj = integrate_pieces(pieces, y0, events, settings, _stop=stop)
    reason, y = traj.reason, traj.final_state
    margin = _EXIT_MARGIN * geometry.radius
    if (reason in ("step_failure", "blowup")
            and not geometry.alpha - margin <= y <= geometry.beta + margin):
        return traj, "blowup"
    if reason in _FAULTS:
        raise IntegrationError(
            f"{_FAULTS[reason]} while integrating the forced phase")
    return traj, reason


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

def _settle_stop(geometry: BasinGeometry, profile: ForcingProfile,
                 t0: float, t_end: float):
    """``integrate_pieces``'s ``_stop``, ``(t_from, settled)``, for a
    forcing monotone toward a side ``s``: ``settled(t, y)`` holds once
    ``max(s y, s a) + s (final - value(t)) < s boundary - g``, with
    ``g = 1e-2 * radius`` (the module's remaining-arclength rule), and
    ``t_from`` is a time before which it cannot hold, since
    ``settled(t, a)`` does not.  None for any other forcing."""
    side = _direction(profile)
    if side == 0 or not profile.monotone():
        return None
    a, final, value = geometry.attractor, profile.final_value(), profile.value
    reach = (side * geometry.endpoint(side)
             - _SETTLE_GUARD * geometry.radius)

    def settled(t: float, y: float) -> bool:
        return max(side * y, side * a) + side * (final - value(t)) < reach

    # settled(t, a) is monotone in t: ten halvings place t_from within a
    # thousandth of the support of the time the rule can first hold
    lo, hi = t0, t_end
    if not settled(t0, a):
        while hi - lo > 1e-3 * (t_end - t0):
            mid = 0.5 * (lo + hi)
            if settled(mid, a):
                hi = mid
            else:
                lo = mid
    return lo, settled


def classify(field: ScalarField, geometry: BasinGeometry,
             profile: ForcingProfile, *,
             _variant_only: bool = False) -> TippingOutcome:
    """Classify the pullback trajectory of a forcing profile in co-moving
    coordinates, with exit thresholds ``1e-4 * radius`` outside the basin
    and the default :class:`IntegrationSettings`.

    ``_variant_only`` is private to :func:`threshold_bracket`, which reads
    only the variant: the forced phase of a monotone forcing then ends as
    soon as the remaining-arclength rule proves that it tracks (at ``t0``,
    without a step, when it holds there), and the diagnostics describe the
    phase up to that stop."""
    t0, _ = pullback_start(field, geometry, profile)
    t_end = profile.end_time()
    pieces = _drive_pieces(field.f, profile, t0, t_end) if t_end > t0 else []
    margin = _EXIT_MARGIN * geometry.radius
    a, alpha, beta = geometry.attractor, geometry.alpha, geometry.beta
    events = _exit_events(geometry, margin)
    stop = None
    if _variant_only and pieces:
        stop = _settle_stop(geometry, profile, t0, t_end)
        if stop is not None and stop[1](t0, a):
            pieces = []
    y, t, reason = a, math.inf, "reached_t_end"
    y_lo = y_hi = a  # range of the visited states
    exit_time = None
    while pieces:
        traj, reason = _integrate(geometry, pieces, y, events, stop=stop)
        y_lo = min(y_lo, min(traj.states))
        y_hi = max(y_hi, max(traj.states))
        y, t = traj.final_state, traj.final_time
        if reason != "event":
            break
        exit_time = t
        if profile.monotone():
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
    if alpha < y < beta:
        variant, final_time, final_value = TRACKS, math.inf, a
        exit_time = None
    elif y == alpha or y == beta:
        variant, exit_time = CRITICAL, None
    else:
        variant = TIPS
        threshold = geometry.endpoint(side) + side * margin
        if reason == "reached_t_end" and side * (y - threshold) < 0.0:
            # left the basin but not yet the margin: the bare field finishes.
            # f has the outward sign on this path unless a second rest point
            # sits within the margin, and the path is one-off and at most
            # 1e-4 R long: a single panel, which checks its two ends, starts
            # its quadrature
            exit_time = t + _unmeshed_passage_time(field.f, 0.0, y, threshold)
            final_time, final_value = exit_time, threshold
    return TippingOutcome(
        variant=variant, y_at_forcing_end=y, min_boundary_distance=min_dist,
        final_time=final_time, final_value=final_value,
        final_distance_to_attractor=0.0 if variant == TRACKS else None,
        exit_side=side if variant == TIPS else None, exit_time=exit_time,
        boundary_distance=0.0 if variant == CRITICAL else None)


def _lockstep_tracks(field: ScalarField, geometry: BasinGeometry,
                     profiles: Sequence[PiecewiseLinear]) -> np.ndarray:
    """Which of the piecewise-linear profiles, each of at least one segment,
    certainly track, from one lockstep batch of their forced phases.

    A lane settles at time ``t`` once ``max(y, a) + P+(t) < beta - g`` and
    ``min(y, a) - P-(t) > alpha + g``, with ``g = 1e-2 * radius`` and
    ``P+`` (``P-``) the drive's upward (downward) arclength still ahead:
    ``f < 0`` on ``(a, beta)`` and ``f > 0`` on ``(alpha, a)``, so above
    ``a`` the state rises no faster than the drive's positive part, and
    below it falls no faster than its negative part.  A settled state thus
    stays strictly inside the basin to the forcing's end, and tracks.  At
    ``t0``, where ``y = a``, the test is arithmetic on the knots, and a
    lane that passes it never enters the batch; the others are tested
    after each step, and at the forcing's end (``P+ = P- = 0``) the test
    is the end state's ``alpha + g < y < beta - g``.  An unbounded side
    passes its half.

    The batch is a screen, so it integrates at the shots' settings
    (``rtol = 1e-6``, ``atol = 1e-8``), and a lane that crosses an exit
    threshold, blows up or fails a step does not settle.  The guard is
    hundreds of times wider than the drift between a lane's states and
    ``classify``'s (at most 2.5e-5 R over 40,000 lanes at caps from 0.95
    to 1.5 ``m_c``), so no lane that ``classify`` finds anything but
    tracking settles; every lane that does not settle goes to ``classify``
    at the default settings.
    """
    n_pieces = np.array([len(p.knots) - 1 for p in profiles])
    knots = np.zeros((len(profiles), n_pieces.max() + 1, 2))
    for row, profile, n in zip(knots, profiles, n_pieces):
        row[:n + 1] = profile.knots
    cuts = knots[:, :, 0]
    dt, dv = np.diff(cuts), np.diff(knots[:, :, 1])
    dv[dt <= 0.0] = 0.0  # the padding past a profile's last knot
    slopes = np.divide(dv, dt, out=np.zeros_like(dv), where=dt > 0.0)
    # the drive's upward and downward arclength from each knot on
    rise, fall = np.zeros_like(cuts), np.zeros_like(cuts)
    rise[:, :-1] = np.cumsum(np.maximum(dv, 0.0)[:, ::-1], axis=1)[:, ::-1]
    fall[:, :-1] = np.cumsum(np.maximum(-dv, 0.0)[:, ::-1], axis=1)[:, ::-1]
    a = geometry.attractor
    margin = _EXIT_MARGIN * geometry.radius
    guard = _SETTLE_GUARD * geometry.radius
    inner_lo, inner_hi = geometry.alpha + guard, geometry.beta - guard
    settled = (a + rise[:, 0] < inner_hi) & (a - fall[:, 0] > inner_lo)
    rows = np.flatnonzero(~settled)
    if rows.size:
        y = _integrate_lanes(field._grid[0], cuts[rows], slopes[rows],
                             n_pieces[rows], a, geometry.alpha - margin,
                             geometry.beta + margin, _SHOOTING,
                             (rise[rows], fall[rows], inner_lo, inner_hi))
        settled[rows] = (inner_lo < y) & (y < inner_hi)
    return settled


def boundary_arrival(field: ScalarField, geometry: BasinGeometry,
                     profile: ForcingProfile) -> bool:
    """True when the pullback trajectory of the profile reaches the basin
    boundary, either crossing it or grazing it within ``1e-5 * radius``."""
    outcome = classify(field, geometry, profile)
    if outcome.variant == TIPS:
        return True
    return outcome.min_boundary_distance <= _ARRIVAL_TOL * geometry.radius


# --------------------------------------------------------------------------
# threshold bracketing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdBracket:
    param_critical: float
    bracket_width: float


def _shooting_residual(field: ScalarField, geometry: BasinGeometry,
                       profile: ForcingProfile, side: int) -> float:
    """``side * (y(t_m) - z(t_m))`` at the middle ``t_m`` of the support:
    ``y`` is the pullback trajectory, and ``z`` the solution that ends on
    the boundary point on ``side`` when the forcing stops, integrated
    backward.  Solutions of a 1-D equation keep their order, so a forcing
    monotone toward ``side`` tips exactly when this is ``>= 0``.  It reads
    ``+inf`` once ``y`` passes the exit threshold or ``z`` passes the
    attractor (``y`` never does) before ``t_m``, and on a blow-up.

    Both half-solves run at the fixed ``rtol = 1e-6``, ``atol = 1e-8``: the
    root only has to land within the certifying step (``3.75e-7``
    relative), and ``classify`` decides the bracket."""
    t0, a = pullback_start(field, geometry, profile)
    t_end = profile.end_time()
    t_m = 0.5 * (t0 + t_end)
    boundary = geometry.endpoint(side)
    exit_threshold = boundary + side * _EXIT_MARGIN * geometry.radius
    forward, reason = _integrate(
        geometry, _drive_pieces(field.f, profile, t0, t_m), a,
        [Event("exit", exit_threshold, side)], _SHOOTING)
    if reason != "reached_t_end":
        return math.inf
    # z' = f(z) + drive(t) backward from t_end, as z' = -(f(z) + drive(-s))
    # forward in s = -t: the boundary point repels, so it attracts backward
    backward, reason = _integrate(
        geometry, _drive_pieces(field.f, profile, t_m, t_end, True),
        boundary, [Event("attractor", a, -side)], _SHOOTING)
    if reason != "reached_t_end":
        return math.inf
    return side * (forward.final_state - backward.final_state)


def _ramp_residual(field: ScalarField, geometry: BasinGeometry,
                   profile: PiecewiseLinear, side: int) -> float:
    """``D - m T(m)`` for a one-segment ramp of displacement ``D`` at slope
    ``m`` toward ``side``, with ``T(m)`` the passage time from the attractor
    to the boundary point under the constant drive ``side * m``, by
    quadrature.  The ramp drives for ``D / m``, so it tips exactly when its
    fuel cost ``m T(m)`` is at most ``D``: when this is ``>= 0``.  It reads
    ``-inf`` when ``f + side * m`` has a root on the path (the state never
    reaches the boundary).  ``m`` is read from the knots as the drive that
    ``classify`` freezes on the segment."""
    (t0, v0), (t1, v1) = profile.knots
    m = abs(v1 - v0) / (t1 - t0)
    boundary = geometry.endpoint(side)
    try:
        t = first_passage_time(field, side * m, geometry.attractor, boundary)
    except SignChangeFault:
        return -math.inf
    return abs(v1) - m * t


def _shooting_guess(field: ScalarField, geometry: BasinGeometry,
                    family: Callable[[float], ForcingProfile], lo: float,
                    hi: float) -> float | None:
    """Root of the residual over ``[lo, hi]``, or None when the family is
    not monotone toward a finite boundary point at ``hi``, or the residual
    does not change sign from ``lo`` (tracks) to ``hi`` (tips).  A family of
    one-segment ramps takes :func:`_ramp_residual`, unless its quadrature
    faults (a slope near the side's depth), and any other family
    :func:`_shooting_residual`.  The Brent solve stops on its predicted
    root, which the certifying ``classify`` calls check."""
    top = family(hi)
    side = _direction(top)
    boundary = geometry.endpoint(side)
    if not (lo > 0.0 and side != 0 and top.monotone()
            and math.isfinite(boundary)):
        return None

    def root(shot) -> float | None:
        # in units of lo, so the solve's width tolerance is relative to the
        # root
        def residual(x: float) -> float:
            return shot(field, geometry, family(x * lo), side)

        r_lo = residual(1.0)
        if not r_lo < 0.0:
            return None
        r_hi = shot(field, geometry, top, side)
        if not r_hi >= 0.0:
            return None
        return lo * _bracketed_root(residual, 1.0, hi / lo, r_lo, r_hi,
                                    _CERTIFY_STEP, predicted_stop=True)[0]

    if isinstance(top, PiecewiseLinear) and len(top.knots) == 2:
        try:
            return root(_ramp_residual)
        except QuadratureFault:
            pass  # the shots decide this bracket
    return root(_shooting_residual)


def threshold_bracket(field: ScalarField, geometry: BasinGeometry,
                      family: Callable[[float], ForcingProfile],
                      param_range: tuple[float, float]) -> ThresholdBracket:
    """Bracket the tipping threshold of a monotone forcing family to a width
    no wider than ``1e-6`` of the larger end's magnitude; ``classify``
    decides both ends.

    When the profile at the high end is monotone toward a finite boundary
    point (and the range is positive), the threshold is first found as the
    root of a residual by the Brent solve, which stops once its bracket is
    no wider than ``3.75e-7`` of the root or on an interpolated root whose
    correction is below half that.  For one-segment ramps the residual is
    the fuel margin ``D - m T(m)`` by quadrature (see
    :func:`_ramp_residual`), unless the quadrature faults near the side's
    depth; otherwise it is the shooting residual (see
    :func:`_shooting_residual`), whose half-solves run at ``rtol = 1e-6``,
    ``atol = 1e-8``.  ``classify``, at the default
    :class:`IntegrationSettings`, then certifies ``guess * (1 +- 3.75e-7)``,
    clamped to the range; where the two do not straddle, the step doubles
    outward from the end that failed.
    Any other family, and a residual whose signs at the range ends do not
    straddle, starts from the range ends instead.  Bisection on the
    tips/tracks answer finishes the bracket, so it is wider than half the
    width bound unless a certifying ``classify`` was clamped onto a range
    end.  Each certifying call reads only the variant, so on a monotone
    forcing its forced phase stops once the remaining-arclength rule (see
    the module docstring) proves that it tracks.

    The low end of ``param_range`` must track and the high end must tip;
    otherwise no threshold is bracketed and :class:`StraddleError` is raised.
    """
    lo, hi = float(param_range[0]), float(param_range[1])
    if not lo < hi:
        raise ValueError("param_range must be increasing")

    def tips(param: float) -> bool:
        outcome = classify(field, geometry, family(param), _variant_only=True)
        return outcome.variant != TRACKS

    guess = _shooting_guess(field, geometry, family, lo, hi)
    if guess is None:  # the ends themselves: a walk raises at once
        below, above, step = lo, hi, 0.0
    else:
        step = _CERTIFY_STEP * guess
        below, above = max(lo, guess - step), min(hi, guess + step)
    if tips(below):
        while True:
            if below == lo:
                raise StraddleError(f"family already tips at the low end {lo!r}")
            step *= 2.0
            below, above = max(lo, below - step), below
            if not tips(below):
                break
    else:
        while not tips(above):
            if above == hi:
                raise StraddleError(
                    f"family does not tip at the high end {hi!r}")
            step *= 2.0
            below, above = above, min(hi, above + step)

    while above - below > _BRACKET_REL_WIDTH * max(abs(below), abs(above)):
        mid = 0.5 * (below + above)
        if mid == below or mid == above:
            break
        if tips(mid):
            above = mid
        else:
            below = mid
    return ThresholdBracket(param_critical=0.5 * (below + above),
                            bracket_width=above - below)
