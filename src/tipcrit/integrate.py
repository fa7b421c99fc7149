"""Controlled scalar ODE integration and first-passage quadrature.

The solver is an explicit Dormand-Prince 5(4) embedded pair with PI step-size
control.  Control discontinuities are handled by integrating each smooth
piece separately, so the stepper never evaluates the right-hand side across a
jump; an exit from the open box ``(lo, hi)`` is located within an accepted
step by a bracketed root solve on fifth-order sub-steps.  A forced phase
steps right-hand sides compiled from the field's source with the forcing's
speed written in, one call a stage (:func:`_drive_pieces`).  A stage whose
right-hand side raises ``OverflowError`` or ``ZeroDivisionError`` reads
``inf``: the step that raised is redone with every stage so guarded.  A step
with a non-finite stage is rejected, so a state at an overflow edge ends as
a step failure.

First-passage times are globally adaptive Gauss-Kronrod 7-15 quadratures of
``1 / (f + drive)`` with bounded work, started from a mesh of the path that
each field keeps for its latest paths; each panel's error estimate is
reduced by the integrand's own roundoff floor, and a result that roundoff
swamps raises :class:`QuadratureFault`.
"""
from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import partial
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .field import (FieldAnalysisError, ScalarField, _bracketed_root,
                    _grid_values, _interval_extremum)
from .forcing import ForcingProfile, PiecewiseLinear

__all__ = [
    "IntegrationSettings",
    "Trajectory",
    "IntegrationError",
    "SignChangeFault",
    "QuadratureFault",
    "integrate_pieces",
    "first_passage_time",
]


class IntegrationError(RuntimeError):
    """Step size underflow or an otherwise unrecoverable integration state."""


class SignChangeFault(ValueError):
    """The first-passage integrand changes sign or vanishes on the path."""


class QuadratureFault(RuntimeError):
    """First-passage quadrature cannot be trusted: it ran out of panel
    splits, or the integrand's roundoff swamps the result (drive too close
    to the depth of the path)."""


@dataclass
class IntegrationSettings:
    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        for name in ("rtol", "atol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class Trajectory:
    """Accepted step times and states, and why the integration ended:
    ``"reached_t_end"``, ``"event"`` (it left the box), ``"blowup"`` (at
    ``|y| >= 1e6``), ``"step_failure"`` (step size underflow),
    ``"step_limit"`` (5,000,000 steps) or ``"settled"`` (``_stop``)."""

    times: list[float]
    states: list[float]
    reason: str

    @property
    def final_time(self) -> float:
        return self.times[-1]

    @property
    def final_state(self) -> float:
        return self.states[-1]


# --------------------------------------------------------------------------
# Dormand-Prince 5(4) tableau
# --------------------------------------------------------------------------

_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# fifth-order minus fourth-order weights, applied to k1..k7
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

# the tableau's rows over the stacked stages k1..k7, for the lanes
_STAGE_ROWS = tuple(np.array(row) for row in (
    (_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65)))
_B_ROW = np.array((_B1, 0.0, _B3, _B4, _B5, _B6))
_E_ROW = np.array((_E1, 0.0, _E3, _E4, _E5, _E6, _E7))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_MAX_STEPS = 5_000_000
_Y_BLOWUP = 1e6  # a state this large ends the integration as a blow-up


def _call(rhs: Callable[[float, float], float], t: float, y: float) -> float:
    try:
        return rhs(t, y)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _propagate(rhs, t: float, y: float, h: float,
               k1: float) -> tuple[float, float]:
    """Fifth-order solution one step of size ``h`` ahead, and the error
    estimate's sum ``E1 k1 + E3 k3 + ... + E6 k6``, which lacks ``E7 k7``.
    The sum also holds ``0 k2``: stage 2 has no weight, but a non-finite one
    makes the error ``nan`` and rejects the step, where a saturating later
    stage would otherwise hide it (a finite ``k2`` adds a zero)."""
    k2 = rhs(t + _C2 * h, y + h * (_A21 * k1))
    k3 = rhs(t + _C3 * h, y + h * (_A31 * k1 + _A32 * k2))
    k4 = rhs(t + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = rhs(t + _C5 * h,
             y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = rhs(t + h,
             y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                      + _A65 * k5))
    return (y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6),
            _E1 * k1 + 0.0 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6)


def _crossing(rhs, t0: float, y0: float, y1: float, k1: float, h: float,
              threshold: float) -> tuple[float, float]:
    """Root of ``y(s) - threshold`` on ``[0, h]``, bracketed to width 1e-10,
    where ``y(s)`` is the fifth-order sub-step from the step start (a cubic
    interpolant is not accurate enough for the passage-time tolerances
    downstream), with every stage of ``rhs`` guarded.  Returns the bracket
    end past the threshold, with its state.  Kept apart from the step loop
    so that the closure's cells are built only for steps that cross."""
    states = {0.0: y0, h: y1}
    guarded = partial(_call, rhs)

    def gap(s: float) -> float:
        states[s] = _propagate(guarded, t0, y0, s, k1)[0]
        return states[s] - threshold

    _, lo, hi = _bracketed_root(gap, 0.0, h, y0 - threshold, y1 - threshold,
                                1e-10)
    past = hi if (states[hi] > threshold) != (y0 > threshold) else lo
    return t0 + past, states[past]


def _initial_step(rhs, t0: float, y0: float, f0: float, span: float,
                  settings: IntegrationSettings) -> float:
    scale = settings.atol + settings.rtol * abs(y0)
    d0 = abs(y0) / scale
    d1 = abs(f0) / scale
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = _call(rhs, t0 + h0, y0 + h0 * f0)
    d2 = abs(f1 - f0) / scale / h0 if h0 > 0 else 0.0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def integrate_pieces(pieces: Sequence[tuple[float, float, Callable[[float, float], float]]],
                     y0: float,
                     box: tuple[float, float] = (-math.inf, math.inf),
                     settings: IntegrationSettings | None = None, *,
                     _stop: tuple[float, Callable[[float, float], bool]]
                     | None = None) -> Trajectory:
    """Integrate a chain of smooth pieces ``(t_start, t_end, rhs)``.

    Steps are restarted at every piece boundary so each step sees a smooth
    right-hand side.  With ``box = (lo, hi)``, ``lo < hi``, it ends with
    reason ``"event"`` at the first accepted step that reaches ``hi`` from
    below or ``lo`` from above (a start on an edge has departed it), on the
    crossing, located to time tolerance 1e-10 inside the step.

    ``_stop = (t_from, stop)`` is private to ``classify``: after each
    accepted step that ends at ``t >= t_from`` (and leaves no edge), the
    integration ends with reason ``"settled"`` once ``stop(t, y)`` holds.
    """
    lo, hi = box
    if not lo < hi:
        raise ValueError(f"exit box ({lo!r}, {hi!r}) must be increasing")
    if settings is None:
        settings = IntegrationSettings()
    if not pieces:
        raise ValueError("no pieces to integrate")
    atol, rtol = settings.atol, settings.rtol
    times = [pieces[0][0]]
    states = [float(y0)]
    y = float(y0)
    y_abs = abs(y)
    h: float | None = None
    err_old = 1e-4
    steps = 0
    stop_from, stop = (math.inf, None) if _stop is None else _stop

    # min, max and abs on the step path are written as comparisons that
    # give the same floats
    for t_start, t_end, rhs in pieces:
        if not t_start < t_end:
            raise ValueError("piece must have positive duration")
        t = t_start
        k1 = _call(rhs, t, y)
        if h is None:
            h = _initial_step(rhs, t, y, k1, t_end - t_start, settings)
        end_tol = 1e-14 * max(1.0, abs(t_end))
        # no step of the piece fails at or above h_floor
        h_floor = 1e-14 * max(1.0, abs(t_start), abs(t_end))
        while t < t_end:
            steps += 1
            if steps > _MAX_STEPS:
                return Trajectory(times, states, "step_limit")
            if t_end - t < h:
                h = t_end - t
            if h < h_floor and h < 1e-14 * max(1.0, abs(t)):
                return Trajectory(times, states, "step_failure")

            try:
                y_new, err_part = _propagate(rhs, t, y, h, k1)
                k7 = rhs(t + h, y_new)
            except (OverflowError, ZeroDivisionError):
                guarded = partial(_call, rhs)
                y_new, err_part = _propagate(guarded, t, y, h, k1)
                k7 = guarded(t + h, y_new)
            err_raw = h * (err_part + _E7 * k7)
            y_new_abs = y_new if y_new >= 0.0 else -y_new
            err = (err_raw if err_raw >= 0.0 else -err_raw) / (
                atol + rtol * (y_new_abs if y_new_abs > y_abs else y_abs))

            if not (err <= 1.0 and y_new - y_new == 0.0):
                # rejected; a non-finite error or state takes the smallest
                # factor
                factor = _SAFETY * err ** -0.2 if y_new - y_new == 0.0 else 0.0
                h *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
                continue

            t_new = t + h
            if t_end - t_new <= end_tol:
                t_new = t_end

            # lo < hi, so a step reaches at most one edge
            if y < hi <= y_new or y > lo >= y_new:
                t_x, y_x = _crossing(rhs, t, y, y_new, k1, h,
                                     hi if y_new >= hi else lo)
                times.append(t_x)
                states.append(y_x)
                return Trajectory(times, states, "event")

            times.append(t_new)
            states.append(y_new)
            if y_new_abs >= _Y_BLOWUP:
                return Trajectory(times, states, "blowup")
            if t_new >= stop_from and stop(t_new, y_new):
                return Trajectory(times, states, "settled")

            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_PI_ALPHA) * err_old ** _PI_BETA
            if factor > _MAX_FACTOR:
                factor = _MAX_FACTOR
            elif not factor > _MIN_FACTOR:
                factor = _MIN_FACTOR
            h *= factor
            err_old = 1e-4 if err < 1e-4 else err
            t, y, y_abs, k1 = t_new, y_new, y_new_abs, k7

    return Trajectory(times, states, "reached_t_end")


def _integrate_lanes(fv: Callable, cuts: np.ndarray, drives: np.ndarray,
                     n_pieces: np.ndarray, y0: float,
                     box: tuple[float, float], settings: IntegrationSettings,
                     settle: tuple | None = None) -> np.ndarray:
    """End states of N lanes ``y' = f(y) + drives[i, p]`` on the pieces
    ``[cuts[i, p], cuts[i, p + 1])``, ``p < n_pieces[i]``, all from ``y0``
    in the exit box ``(lo, hi)``, stepped in lockstep with ``f`` evaluated
    by its numpy binding ``fv``.

    Each lane runs :func:`integrate_pieces`'s rules elementwise: the same
    tableau, error norm, PI controller and initial step, a restart at every
    piece boundary with ``h`` carried over and ``k1`` recomputed, and the
    same step-failure rule and step limit.  A lane that steps out of the
    box, to ``lo`` or below or to ``hi`` or above, or to ``|y| >= 1e6``, or
    fails a step, stops and reads ``nan``; so does every lane left at the
    step limit.  The stages are stacked, and each stage sum is one product
    of a tableau row with them, so the sums round in another order than the
    scalar stepper's, and numpy's vector ``pow`` moves the step sizes by
    ulps: a lane ends where :func:`integrate_pieces` ends within rounding,
    not to the bit.

    ``settle = (rise, fall, inner_lo, inner_hi)`` ends lanes early:
    ``rise[i, p]`` and ``fall[i, p]`` are lane ``i``'s upward and downward
    drive arclength from ``cuts[i, p]`` on.  After each step, a lane whose
    ``max(y, y0)`` plus the rise still ahead lies below ``inner_hi``, and
    whose ``min(y, y0)`` less the fall ahead lies above ``inner_lo``,
    leaves the batch and reads the state where it left, which lies inside
    ``(inner_lo, inner_hi)``.
    """
    lo, hi = max(box[0], -_Y_BLOWUP), min(box[1], _Y_BLOWUP)
    h_floor = 1e-14 * max(1.0, float(np.abs(cuts).max()))  # no lane fails above
    if settle is None:  # a box that no lane settles in
        settle = (np.zeros_like(cuts),) * 2 + (math.inf, -math.inf)
    rise, fall, inner_lo, inner_hi = settle
    # a column per (lane, piece), piece p of lane i at i * width + p: the
    # piece's end, its drive and the drive's two signed parts, the box
    # narrowed by the drive of the pieces after it, and its end tolerance
    n, width = drives.shape
    ends = cuts[:, 1:]
    table = np.stack((
        ends, drives, np.maximum(drives, 0.0), np.minimum(drives, 0.0),
        inner_hi - rise[:, 1:], inner_lo + fall[:, 1:],
        1e-14 * np.maximum(1.0, np.abs(ends)))).reshape(7, -1)
    final = (np.arange(width) == n_pieces[:, None] - 1).ravel()
    # the running lanes: their columns in the table, the columns themselves,
    # their time, state and step, and the stages k1..k7 stacked in rows
    cur = np.arange(0, n * width, width)
    pc = table[:, cur]
    t = cuts[:, 0].copy()
    y = np.full(n, float(y0))
    y_end = np.full(n, np.nan)
    stages = np.empty((7, n))
    with np.errstate(all="ignore"):
        t_end, c = pc[0], pc[1]
        k1 = np.add(fv(y), c, out=stages[0])
        # _initial_step, elementwise
        scale = settings.atol + settings.rtol * np.abs(y)
        d0, d1 = np.abs(y) / scale, np.abs(k1) / scale
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_end - t)
        d2 = np.abs(fv(y + h0 * k1) + c - k1) / scale / h0
        d12 = np.maximum(d1, d2)
        h1 = np.where(d12 <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / d12) ** 0.2)
        h = np.minimum(np.minimum(100 * h0, h1), t_end - t)
        # the PI controller's max(err_old, 1e-4) ** beta of the last
        # accepted step
        memory = np.full(n, 1e-4) ** _PI_BETA

        for _ in range(_MAX_STEPS):
            if not y.size:
                break
            t_end, c, c_up, c_down, room_hi, room_lo, t_tol = pc
            np.minimum(h, t_end - t, out=h)
            stop = np.zeros(y.size, dtype=bool)
            if h.min() < h_floor:
                stop = h < 1e-14 * np.maximum(1.0, np.abs(t))
            for s, row in enumerate(_STAGE_ROWS, 1):
                np.add(fv(y + h * np.dot(row, stages[:s])), c,
                       out=stages[s])
            y_new = y + h * np.dot(_B_ROW, stages[:6])
            np.add(fv(y_new), c, out=stages[6])
            # stage 2's zero weight reads a non-finite k2 as nan
            err = np.abs(h * np.dot(_E_ROW, stages))
            err /= settings.atol + settings.rtol * np.maximum(np.abs(y),
                                                              np.abs(y_new))
            ok = err <= 1.0
            ok &= np.isfinite(y_new)

            factor = err ** -_PI_ALPHA
            factor *= _SAFETY
            factor *= memory
            np.copyto(memory, np.maximum(err, 1e-4) ** _PI_BETA, where=ok)
            if not ok.all():
                # a non-finite error or state takes the smallest factor
                rejected = err[~ok]
                rejected[~(np.isfinite(rejected)
                           & np.isfinite(y_new[~ok]))] = np.inf
                factor[~ok] = _SAFETY * rejected ** -0.2
            t_new = t + h
            np.copyto(t_new, t_end, where=t_end - t_new <= t_tol)
            np.copyto(t, t_new, where=ok)
            np.copyto(y, y_new, where=ok)
            np.copyto(stages[0], stages[6], where=ok)
            # an infinite err goes to the smallest factor and a zero one to
            # the largest, as in integrate_pieces
            h *= np.minimum(np.maximum(factor, _MIN_FACTOR, out=factor),
                            _MAX_FACTOR, out=factor)

            stop |= y <= lo
            stop |= y >= hi
            # a lane that finished a piece ends, or restarts on the next
            # one at t = t_end, the next piece's start
            turn = t >= t_end
            turn &= ~stop
            done = turn & final[cur]
            turn &= ~done
            if turn.any():
                cur[turn] += 1
                pc[:, turn] = table[:, cur[turn]]
                stages[0, turn] = fv(y[turn]) + c[turn]

            ahead = t_end - t
            out = np.maximum(y, y0) + c_up * ahead < room_hi
            out &= np.minimum(y, y0) + c_down * ahead > room_lo
            out &= ~stop
            out |= done
            stop |= out
            if stop.any():
                y_end[cur[out] // width] = y[out]
                keep = ~stop
                cur, t, y, h, memory = (a[keep]
                                        for a in (cur, t, y, h, memory))
                pc, stages = pc[:, keep], stages[:, keep]
    return y_end


def _drive_pieces(field: ScalarField, profile: ForcingProfile,
                  t0: float, t_end: float, reverse: bool = False):
    """The pieces of ``y' = f(y) + u(t)`` on ``[t0, t_end]``, ``u`` the
    profile's speed, each right-hand side one call compiled with the field
    (:meth:`ScalarField._rhs`): a piecewise-linear profile's knot segments,
    clipped to the interval, each driving its slope (so the integrand is
    exactly smooth within a piece), with 0 outside its knots; or a tanh
    ramp's pulse ``amp sech^2(k t)``, ``amp`` its peak speed and ``k = 0.5
    lambda_inf rate``, split at ``+-T`` inside the interval.  ``reverse``
    gives the pieces of ``y' = -(f(y) + u(-s))`` on ``[-t_end, -t0]``, the
    same equation backward in ``s = -t``."""
    if isinstance(profile, PiecewiseLinear):
        knots = profile.knots
        cuts = [-math.inf, *(k[0] for k in knots), math.inf]
        constants = [(0.0,), *(((v1 - v0) / (k1 - k0),) for (k0, v0), (k1, v1)
                               in zip(knots, knots[1:])), (0.0,)]
        kind = "drive"
    else:
        T = profile.truncation_time
        cuts = [-math.inf, -T, T, math.inf]
        constants = [(profile.sup_speed(),
                      0.5 * profile.lambda_inf * profile.rate, T)] * 3
        kind = "pulse"
    if reverse:
        kind = "reverse " + kind
    pieces = []
    for a, b, c in zip(cuts, cuts[1:], constants):
        a, b = max(a, t0), min(b, t_end)
        if a < b:
            pieces.append((a, b, field._rhs(kind, *c)))
    if reverse:
        return [(-b, -a, g) for a, b, g in reversed(pieces)]
    return pieces


# --------------------------------------------------------------------------
# first-passage quadrature
# --------------------------------------------------------------------------

_QUAD_SIGN_GRID = 2048
# Gauss-Kronrod 7-15 pair on [-1, 1] (QUADPACK's qk15; Piessens et al.,
# *QUADPACK*, 1983), built from the positive half.  The abscissae ascend;
# the 7 Gauss nodes are the odd positions.
_GK_X_HALF = (0.991455371120812639206854697526329,
              0.949107912342758524526189684047851,
              0.864864423359769072789712788640926,
              0.741531185599394439863864773280788,
              0.586087235467691130294144845693013,
              0.405845151377397166906606412076961,
              0.207784955007898467600689403773245)
_GK_WK_HALF = (0.022935322010529224963732008058970,
               0.063092092629978553290700663189204,
               0.104790010322250183839876322541518,
               0.140653259715525918745189590510238,
               0.169004726639267902826583426598550,
               0.190350578064785409913256402421014,
               0.204432940075298892414161999234649)
_GK_WG_HALF = (0.129484966168869693270611432679082,
               0.279705391489276667901467771423780,
               0.381830050505118944950369775488975)
_GK_X = tuple(-x for x in _GK_X_HALF) + (0.0,) + _GK_X_HALF[::-1]
_GK_WK = (_GK_WK_HALF + (0.209482141084727828012999174891714,)
          + _GK_WK_HALF[::-1])
_GK_WG = (_GK_WG_HALF + (0.417959183673469387755102040816327,)
          + _GK_WG_HALF[::-1])
# tolerance on the summed panel error estimates, relative above |I| = 1
_QUAD_REL_TOL = 1e-10
# bisections before the quadrature gives up (15 evaluations per panel)
_QUAD_MAX_SPLITS = 2000
# Roundoff of g = 1 / (f + drive): f + drive cancels near the path's
# minimizer, and rounds with about eps (|f| + |drive|) <= eps (1/|g| +
# 2 |drive|) on a one-signed path, so each node of g carries a relative
# noise of about eps (1 + 2 |drive| |g|).  A panel's error estimate is
# reduced by this floor, times a safety factor, so refinement stops
# chasing noise; when the floors of the final panels sum to more than
# _QUAD_NOISE_LIMIT of the integral, the result cannot be trusted and
# the quadrature raises.
_QUAD_NOISE_FACTOR = 50.0 * sys.float_info.epsilon
_QUAD_NOISE_LIMIT = 3e-6


# The quadrature mesh of a passage path: _MESH_UNIFORM equal panels, with
# breakpoints added at y* +- D 2^-k, k = 1.._MESH_LEVELS, where y* is the
# minimizer of |f + drive| on the path and D its longer distance to an end;
# the latest _MESH_MEMO paths are kept on each field
_MESH_UNIFORM = 8
_MESH_LEVELS = 25
_MESH_MEMO = 4
_GK_X_COLUMN = np.array(_GK_X)[:, None]
# the K15 weights and the K15 minus G7 weights, each over the nodes of a
# (nodes, drives, panels) array
_GK_WEIGHTS = np.array((_GK_WK, _GK_WK))[:, :, None, None]
_GK_WEIGHTS[1, 1::2] -= np.array(_GK_WG)[:, None, None]


def _gk15_panel(f, drive: float, a: float, b: float):
    """Heap entry ``(-err, a, b, K15, floor)`` for the panel ``[a, b]`` of
    ``1 / (f + drive)``: the Kronrod estimate, its error ``|K15 - G7|``
    less the roundoff floor (clamped at 0), and that floor."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    gs = [1.0 / (f(c + h * x) + drive) for x in _GK_X]
    kronrod = h * sum(map(mul, _GK_WK, gs))
    gauss = h * sum(map(mul, _GK_WG, gs[1::2]))
    floor = (_QUAD_NOISE_FACTOR * (1.0 + 2.0 * abs(drive) * max(map(abs, gs)))
             * abs(kronrod))
    err = abs(kronrod - gauss) - floor
    return (-err if err > 0.0 else 0.0, a, b, kronrod, floor)


def _trusted(result: float, noise: float, a: float, b: float) -> float:
    """``result``, unless the roundoff floors of its panels, summed to
    ``noise``, reach ``_QUAD_NOISE_LIMIT`` of it."""
    if noise > _QUAD_NOISE_LIMIT * abs(result):
        raise QuadratureFault(
            f"roundoff in 1 / (f + drive) may reach {noise / abs(result):.1e} "
            f"of the passage time on [{a!r}, {b!r}]; the drive is too close "
            "to the depth of the path")
    return result


def _gauss_kronrod(f, drive: float, a: float, b: float,
                   panels: list) -> float:
    """Globally adaptive Gauss-Kronrod 7-15 quadrature of ``1 / (f + drive)``
    from ``a`` to ``b`` (QUADPACK's QAG), started from ``panels``, the
    :func:`_gk15_panel` entries of a mesh of ``[a, b]``: the panels of
    :func:`first_passage_time`'s cached mesh, or the single panel
    ``[a, b]``.  Bisect the panel with the largest error estimate until the
    estimates sum to at most ``_QUAD_REL_TOL * max(1, |I|)``.  Heap ties
    break on the panel ends, and the panels are summed with ``math.fsum``,
    so the result is deterministic to the bit."""
    heapq.heapify(panels)
    total = math.fsum(p[3] for p in panels)
    err_sum = -math.fsum(p[0] for p in panels)
    for _ in range(_QUAD_MAX_SPLITS):
        if err_sum <= _QUAD_REL_TOL * max(1.0, abs(total)):
            break
        worst = heapq.heappop(panels)
        _, lo, hi, kronrod, _ = worst
        mid = 0.5 * (lo + hi)
        left = _gk15_panel(f, drive, lo, mid)
        right = _gk15_panel(f, drive, mid, hi)
        heapq.heappush(panels, left)
        heapq.heappush(panels, right)
        total += left[3] + right[3] - kronrod
        err_sum += worst[0] - left[0] - right[0]
    else:
        raise QuadratureFault(
            f"quadrature did not converge within {_QUAD_MAX_SPLITS} panel "
            f"splits on [{a!r}, {b!r}]; the integrand is near-singular")
    return _trusted(math.fsum(p[3] for p in panels),
                    math.fsum(p[4] for p in panels), a, b)


@dataclass(frozen=True)
class _PathMesh:
    """A passage path's quadrature mesh, its panels oriented along the
    passage: panel ``i`` runs from ``cuts[i]`` to ``cuts[i + 1]``, with
    half-width ``half[i]`` (negative downward) and ``f`` at its 15
    Gauss-Kronrod nodes in column ``f[:, i]``; ``f_min`` and ``f_max`` are
    the extremes of ``f`` on the path's 2049-point sign-check grid."""

    cuts: np.ndarray
    half: np.ndarray
    f: np.ndarray
    f_min: float
    f_max: float


def _build_mesh(field: ScalarField, lo: float, hi: float,
                sign: int) -> _PathMesh:
    """The mesh of the path ``[lo, hi]`` travelled upward (``sign`` +1) or
    downward (-1).  ``f + drive`` has that sign on the path, so ``|f +
    drive|`` is smallest at the minimizer ``y*`` of ``sign * f``, which
    :func:`_interval_extremum` locates from the sign-check grid."""
    fv = field._grid[0]
    xs = np.linspace(lo, hi, _QUAD_SIGN_GRID + 1)
    try:
        grid_f = _grid_values(fv, field.f, xs)
        y_star = _interval_extremum(field, xs, grid_f,
                                    "min" if sign > 0 else "max")[1]
        reach = max(y_star - lo, hi - y_star)
        cuts = {y_star, *np.linspace(lo, hi, _MESH_UNIFORM + 1).tolist()}
        for k in range(1, _MESH_LEVELS + 1):
            cuts.update((y_star - reach / 2**k, y_star + reach / 2**k))
        # a sorted set, since np.unique would import numpy.ma (about 1 MB)
        cuts = np.array(sorted(c for c in cuts if lo <= c <= hi))[::sign]
        half = 0.5 * (cuts[1:] - cuts[:-1])
        nodes = 0.5 * (cuts[:-1] + cuts[1:]) + half * _GK_X_COLUMN
        f_nodes = _grid_values(fv, field.f, nodes.ravel()).reshape(
            nodes.shape)
    except FieldAnalysisError as exc:
        raise SignChangeFault(f"{exc} on the passage path") from None
    return _PathMesh(cuts, half, f_nodes, float(grid_f.min()),
                     float(grid_f.max()))


def _path_mesh(field: ScalarField, lo: float, hi: float,
               sign: int) -> _PathMesh:
    """:func:`_build_mesh`, kept in the field's memo of its latest
    ``_MESH_MEMO`` paths."""
    memo = field._paths
    key = (lo, hi, sign)
    mesh = memo.pop(key, None)
    if mesh is None:
        mesh = _build_mesh(field, lo, hi, sign)
        if len(memo) >= _MESH_MEMO:
            del memo[next(iter(memo))]
    memo[key] = mesh
    return mesh


def first_passage_time(field: ScalarField, drive: float, y_from: float,
                       y_to: float) -> float:
    """Time for ``y' = f(y) + drive`` to move from ``y_from`` to ``y_to``,
    computed as the Gauss-Kronrod quadrature of ``1 / (f + drive)`` along
    the path, to ``1e-10 max(1, |T|)`` of the computed integrand.  Near a
    root ``r`` of ``f + drive`` the rounding of the node positions limits
    the integrand to a relative accuracy of about ``eps |y| / |y - r|``:
    a path that starts ``2e-8`` past a simple root ends up a few ``1e-10``
    relative off the exact time.

    The quadrature starts from a mesh of the path that depends on the field
    and the path alone, built once and kept on the field for its latest 4
    paths: 8 equal panels, graded geometrically toward the minimizer ``y*``
    of ``|f + drive|`` down to ``2^-25`` of the path, with ``f`` at every
    node evaluated through numpy: this is :func:`_passage_batch` at one drive.

    Raises :class:`ValueError` for a non-finite argument before the field's
    mesh memo is touched.  Requires ``f + drive`` of a single nonzero sign
    on the closed interval, checked on the mesh's 2049-point grid, where
    overflow reads as ``+-inf``; a pole of ``f`` on the grid or at a node
    raises :class:`SignChangeFault` too.  Raises :class:`QuadratureFault`
    when the quadrature exhausts its 2000 panel splits, or when the
    roundoff of ``f + drive`` near its smallest value on the path may
    exceed 3e-6 of the result.
    """
    if not all(map(math.isfinite, (drive, y_from, y_to))):
        raise ValueError(f"drive {drive!r}, y_from {y_from!r} and y_to "
                         f"{y_to!r} must be finite")
    if y_from == y_to:
        return 0.0
    time = _passage_batch(field, np.array([drive]), y_from, y_to)[0][0]
    if isinstance(time, Exception):
        raise time
    return time


def _mesh_panels(mesh: _PathMesh, drives: np.ndarray):
    """:func:`_gk15_panel` on every panel of the mesh for each of the
    ``drives`` at once: ``1 / (f + drive)`` at the nodes, nodes first, then
    a row per drive of the Kronrod estimates, their errors ``|K15 - G7|``
    less the roundoff floors (clamped at 0), and those floors.  The sums
    over the 15 nodes run in node order and a row's sum over its panels is
    a row reduction, so a drive's row is the same to the bit whatever the
    other drives."""
    with np.errstate(all="ignore"):
        gs = mesh.f[:, None, :] + drives[:, None]
        np.divide(1.0, gs, out=gs)
        # one (nodes, drives, panels) temporary at a time
        kronrod = mesh.half * (gs * _GK_WEIGHTS[0]).sum(axis=0)
        excess = mesh.half * (gs * _GK_WEIGHTS[1]).sum(axis=0)
        floor = (_QUAD_NOISE_FACTOR
                 * (1.0 + 2.0 * np.abs(drives)[:, None]
                    * np.abs(gs).max(axis=0))
                 * np.abs(kronrod))
        err = np.abs(excess) - floor
    return gs, kronrod, np.where(err > 0.0, err, 0.0), floor


def _slope(terms: np.ndarray) -> float:
    """``dT / d(drive)`` from one drive's row of :func:`_passage_batch`'s
    slope terms, summed by ``math.fsum`` rather than BLAS, so the result
    does not depend on the CPU."""
    return -math.fsum(terms.tolist())


def _passage_batch(field: ScalarField, drives: np.ndarray, y_from: float,
                   y_to: float, slopes: bool = False):
    """:func:`first_passage_time` at each of ``drives`` from one numpy pass
    over the path's cached mesh: each drive's time, or the exception raised
    at that drive in its place, read off the drive's own row of the pass
    alone.  Rounding is monotone, so ``f + drive`` keeps its sign on the
    grid exactly when it does at the extremes of ``f`` there, which the
    mesh keeps; a drive that fails this check is left out of the pass.  A
    drive whose error estimates miss the tolerance goes on by the adaptive
    quadrature from its row.  A fault of the path raises.  With ``slopes``,
    also a row per drive (None if left out) of the Kronrod panel terms of
    ``integral 1 / (f + drive)^2``, summed over the nodes in node order,
    for :func:`_slope` (the mesh is not refined for them); else None."""
    lo, hi = (y_from, y_to) if y_from < y_to else (y_to, y_from)
    mesh = _path_mesh(field, lo, hi, 1 if y_to > y_from else -1)
    crossed = (mesh.f_min + drives <= 0.0) & (0.0 <= mesh.f_max + drives)
    gs, kronrod, err, floor = _mesh_panels(mesh, drives[~crossed])
    rows = enumerate(zip(kronrod.tolist(), err.sum(axis=1).tolist(),
                         floor.sum(axis=1).tolist()))
    times = []
    for drive, cross in zip(drives.tolist(), crossed.tolist()):
        try:
            if cross:
                # the grid again, only to name the point in the message
                grid = np.linspace(lo, hi, _QUAD_SIGN_GRID + 1)
                vals = _grid_values(field._grid[0], field.f, grid) + drive
                raise SignChangeFault(
                    "f + drive changes sign or vanishes near y = "
                    f"{float(grid[np.argmin(np.abs(vals))])!r}; the control "
                    "does not dominate the field on this path")
            k, (panels, err_sum, noise) = next(rows)
            result = math.fsum(panels)
            if err_sum <= _QUAD_REL_TOL * max(1.0, abs(result)):
                # the floors are not negative, so their numpy sum is within
                # a few ulps of their math.fsum; only a sum near the limit
                # needs the exact one
                if not noise < 0.5 * _QUAD_NOISE_LIMIT * abs(result):
                    noise = math.fsum(floor[k].tolist())
                result = _trusted(result, noise, y_from, y_to)
            else:  # QAG goes on from the drive's row of the pass
                result = _gauss_kronrod(field.f, drive, y_from, y_to, list(
                    zip((-err[k]).tolist(), mesh.cuts[:-1].tolist(),
                        mesh.cuts[1:].tolist(), panels, floor[k].tolist())))
            times.append(_positive(result))
        except Exception as exc:  # noqa: BLE001 - the drive's result
            times.append(exc.with_traceback(None))  # holds no frame alive
    if not slopes:
        return times, None
    with np.errstate(all="ignore"):  # gs is not needed past this point
        np.square(gs, out=gs)
        gs *= _GK_WEIGHTS[0]
        terms = iter(mesh.half * gs.sum(axis=0))
        return times, [None if c else next(terms) for c in crossed.tolist()]


def _positive(result: float) -> float:
    """A passage time, which a drive against the path makes non-positive."""
    if not result > 0.0:
        raise SignChangeFault(
            f"non-positive passage time {result!r}; drive direction is "
            "inconsistent with the requested path")
    return result


def _unmeshed_passage_time(f, drive: float, y_from: float,
                           y_to: float) -> float:
    """:func:`first_passage_time` on a short one-off path, by the adaptive
    quadrature from the single panel ``[y_from, y_to]``.  It builds no mesh
    and leaves the field's memo as it is, since a mesh would not repay
    itself on such a path.  The panel certifies its own ends: unless ``f +
    drive`` points along the path at both of them it raises
    :class:`SignChangeFault`; a pair of roots between two such ends is the
    caller's to rule out.  The same rounding limit holds near a root of
    ``f + drive``: a relative accuracy of about ``eps |y| / |y - r|`` in
    the integrand."""
    side = 1.0 if y_to > y_from else -1.0
    if not (side * (f(y_from) + drive) > 0.0
            and side * (f(y_to) + drive) > 0.0):
        raise SignChangeFault(
            f"f + drive does not point from {y_from!r} toward {y_to!r} at "
            "both ends of the path")
    return _positive(_gauss_kronrod(
        f, drive, y_from, y_to, [_gk15_panel(f, drive, y_from, y_to)]))
