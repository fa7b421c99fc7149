"""Controlled scalar ODE integration and first-passage quadrature.

The solver is an explicit Dormand-Prince 5(4) embedded pair with PI step-size
control.  Control discontinuities are handled by integrating each smooth
piece separately, so the stepper never evaluates the right-hand side across a
jump; events are located within an accepted step by a bracketed root solve
on fifth-order sub-steps.

First-passage times are globally adaptive Gauss-Kronrod 7-15 quadratures of
``1 / (f + drive)`` with bounded work; each panel's error estimate is
reduced by the integrand's own roundoff floor, and a result that roundoff
swamps raises :class:`QuadratureFault`.
"""
from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .field import (EvaluationFault, FieldAnalysisError, ScalarField,
                    _bracketed_root, _grid_values)
from .forcing import ControlSignal

__all__ = [
    "IntegrationSettings",
    "Event",
    "Trajectory",
    "IntegrationError",
    "SignChangeFault",
    "QuadratureFault",
    "integrate_pieces",
    "integrate_controlled",
    "integrate_autonomous",
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


@dataclass(frozen=True)
class Event:
    """Terminal threshold crossing; ``direction`` +1 fires on upward
    crossings, -1 downward, 0 on either."""

    label: str
    threshold: float
    direction: int = 0


@dataclass
class Trajectory:
    times: list[float]
    states: list[float]
    # "reached_t_end" | "event" | "blowup" | "step_failure" | "step_limit"
    reason: str
    event_label: str | None = None
    event_time: float | None = None
    event_state: float | None = None

    @property
    def final_time(self) -> float:
        return self.times[-1]

    @property
    def final_state(self) -> float:
        return self.states[-1]

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,y\n")
            for t, y in zip(self.times, self.states):
                fh.write(f"{t:.17g},{y:.17g}\n")


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

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_MAX_STEPS = 5_000_000
_Y_BLOWUP = 1e6  # a state this large ends the integration as a blow-up


def _call(rhs: Callable[[float, float], float], t: float, y: float) -> float:
    try:
        v = rhs(t, y)
    except (OverflowError, ZeroDivisionError, EvaluationFault):
        return math.inf
    return v


def _propagate(rhs, t: float, y: float, h: float,
               k1: float) -> tuple[float, float]:
    """Fifth-order solution one step of size ``h`` ahead, and the error
    estimate's sum ``E1 k1 + E3 k3 + ... + E6 k6``, which lacks ``E7 k7``."""
    k2 = _call(rhs, t + _C2 * h, y + h * (_A21 * k1))
    k3 = _call(rhs, t + _C3 * h, y + h * (_A31 * k1 + _A32 * k2))
    k4 = _call(rhs, t + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = _call(rhs, t + _C5 * h,
               y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = _call(rhs, t + h,
               y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                        + _A65 * k5))
    return (y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6),
            _E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6)


def _locate_event(event: Event, rhs, t0: float, y0: float, y1: float,
                  k1: float, h: float) -> tuple[float, float] | None:
    """Crossing time and state within an accepted step, or None when the
    step does not cross the threshold in the event's direction."""
    d0 = y0 - event.threshold
    d1 = y1 - event.threshold
    if d0 == 0.0:
        return None  # starting on the threshold counts as already departed
    if d0 < 0.0 <= d1:
        crossing = 1
    elif d0 > 0.0 >= d1:
        crossing = -1
    else:
        return None
    if event.direction != 0 and event.direction != crossing:
        return None
    return _crossing(rhs, t0, y0, y1, k1, h, event.threshold)


def _crossing(rhs, t0: float, y0: float, y1: float, k1: float, h: float,
              threshold: float) -> tuple[float, float]:
    """Root of ``y(s) - threshold`` on ``[0, h]``, bracketed to width 1e-10,
    where ``y(s)`` is the fifth-order sub-step from the step start (a cubic
    interpolant is not accurate enough for the passage-time tolerances
    downstream).  Returns the bracket end past the threshold, with its
    state.  Kept apart from :func:`_locate_event` so that the closure's
    cells are built only for steps that cross."""
    states = {0.0: y0, h: y1}

    def gap(s: float) -> float:
        states[s] = _propagate(rhs, t0, y0, s, k1)[0]
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
                     y0: float, events: Sequence[Event] = (),
                     settings: IntegrationSettings | None = None) -> Trajectory:
    """Integrate a chain of smooth pieces ``(t_start, t_end, rhs)``.

    Steps are restarted at every piece boundary so each step sees a smooth
    right-hand side.  Terminal events are located to time tolerance 1e-10 by
    a bracketed root solve inside the accepted step.
    """
    if settings is None:
        settings = IntegrationSettings()
    if not pieces:
        raise ValueError("no pieces to integrate")
    times = [pieces[0][0]]
    states = [float(y0)]
    y = float(y0)
    h: float | None = None
    err_old = 1e-4
    steps = 0

    for t_start, t_end, rhs in pieces:
        if not t_start < t_end:
            raise ValueError("piece must have positive duration")
        t = t_start
        k1 = _call(rhs, t, y)
        if h is None:
            h = _initial_step(rhs, t, y, k1, t_end - t_start, settings)
        while t < t_end:
            steps += 1
            if steps > _MAX_STEPS:
                return Trajectory(times, states, "step_limit")
            h = min(h, t_end - t)
            if h < 1e-14 * max(1.0, abs(t)):
                return Trajectory(times, states, "step_failure")

            y_new, err_part = _propagate(rhs, t, y, h, k1)
            k7 = _call(rhs, t + h, y_new)
            err_raw = h * (err_part + _E7 * k7)
            scale = settings.atol + settings.rtol * max(abs(y), abs(y_new))
            err = abs(err_raw) / scale
            if not math.isfinite(err) or not math.isfinite(y_new):
                err = math.inf

            if err > 1.0:
                factor = _MIN_FACTOR if math.isinf(err) else max(
                    _MIN_FACTOR, _SAFETY * err ** -0.2)
                h *= factor
                continue

            t_new = t + h
            if t_end - t_new <= 1e-14 * max(1.0, abs(t_end)):
                t_new = t_end

            hit: tuple[float, float, str] | None = None
            for event in events:
                located = _locate_event(event, rhs, t, y, y_new, k1, h)
                if located is not None and (hit is None or located[0] < hit[0]):
                    hit = (located[0], located[1], event.label)
            if hit is not None:
                times.append(hit[0])
                states.append(hit[1])
                return Trajectory(times, states, "event", event_label=hit[2],
                                  event_time=hit[0], event_state=hit[1])

            times.append(t_new)
            states.append(y_new)
            if abs(y_new) >= _Y_BLOWUP:
                return Trajectory(times, states, "blowup")

            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_PI_ALPHA) * err_old ** _PI_BETA
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_old = max(err, 1e-4)
            t, y, k1 = t_new, y_new, k7

    return Trajectory(times, states, "reached_t_end")


def _drive_pieces(field: ScalarField, drive: Callable[[float], float],
                  breakpoints: Sequence[float], t0: float, t_end: float,
                  frozen: bool):
    """Split [t0, t_end] at the sorted breakpoints into pieces of
    ``y' = f(y) + drive(t)``.  A ``frozen`` drive is constant on each piece
    and is read once at its midpoint, so the integrand is exactly smooth
    within it."""
    cuts = [t0]
    for b in sorted(breakpoints):
        if t0 < b < t_end and b > cuts[-1]:
            cuts.append(b)
    cuts.append(t_end)
    f = field.f
    if not frozen:
        rhs = lambda t, y: f(y) + drive(t)
        return [(a, b, rhs) for a, b in zip(cuts, cuts[1:])]
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        c = drive(0.5 * (a + b))
        if c == 0.0:
            pieces.append((a, b, lambda t, y, _f=f: _f(y)))
        else:
            pieces.append((a, b, lambda t, y, _f=f, _c=c: _f(y) + _c))
    return pieces


def integrate_controlled(field: ScalarField, control: ControlSignal, y0: float,
                         t0: float, t_end: float, events: Sequence[Event] = (),
                         settings: IntegrationSettings | None = None) -> Trajectory:
    """Solve ``y' = f(y) + u(t)`` for a piecewise-constant control ``u``."""
    if not t0 < t_end:
        raise ValueError("t0 must precede t_end")
    if not math.isfinite(y0):
        raise ValueError("y0 must be finite")
    pieces = _drive_pieces(field, control.value, control.boundaries(), t0,
                           t_end, True)
    return integrate_pieces(pieces, y0, events, settings)


def integrate_autonomous(field: ScalarField, y0: float, t0: float, t_end: float,
                         events: Sequence[Event] = (),
                         settings: IntegrationSettings | None = None) -> Trajectory:
    """Solve the unforced flow ``y' = f(y)``."""
    if not t0 < t_end:
        raise ValueError("t0 must precede t_end")
    f = field.f
    return integrate_pieces([(t0, t_end, lambda t, y: f(y))], y0, events, settings)


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


def _gauss_kronrod(f, drive: float, a: float, b: float) -> float:
    """Globally adaptive Gauss-Kronrod 7-15 quadrature of ``1 / (f + drive)``
    from ``a`` to ``b`` (QUADPACK's QAG): bisect the panel with the largest
    error estimate until the estimates sum to at most
    ``_QUAD_REL_TOL * max(1, |I|)``.  Heap ties break on the panel ends,
    and the panels are summed with ``math.fsum``, so the result is
    deterministic to the bit."""
    panels = [_gk15_panel(f, drive, a, b)]
    total, err_sum = panels[0][3], -panels[0][0]
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
    result = math.fsum(p[3] for p in panels)
    noise = math.fsum(p[4] for p in panels)
    if noise > _QUAD_NOISE_LIMIT * abs(result):
        raise QuadratureFault(
            f"roundoff in 1 / (f + drive) may reach {noise / abs(result):.1e} "
            f"of the passage time on [{a!r}, {b!r}]; the drive is too close "
            "to the depth of the path")
    return result


def first_passage_time(field: ScalarField, drive: float, y_from: float,
                       y_to: float, *, skip_sign_check: bool = False) -> float:
    """Time for ``y' = f(y) + drive`` to move from ``y_from`` to ``y_to``,
    computed as the Gauss-Kronrod quadrature of ``1 / (f + drive)`` along
    the path, to ``1e-10 max(1, |T|)``.

    Requires ``f + drive`` to keep a single nonzero sign on the closed
    interval (checked on a dense grid unless the caller has already
    established it from the basin geometry; a pole of ``f`` on that grid
    raises :class:`SignChangeFault` too).  Raises
    :class:`QuadratureFault` when the quadrature exhausts its 2000 panel
    splits, or when the roundoff of ``f + drive`` near its smallest value on
    the path may exceed 3e-6 of the result.
    """
    if y_from == y_to:
        return 0.0
    lo, hi = (y_from, y_to) if y_from < y_to else (y_to, y_from)

    f = field.f
    if not skip_sign_check:
        grid = np.linspace(lo, hi, _QUAD_SIGN_GRID + 1)
        try:
            vals = [v + drive for v in _grid_values(f, grid)]
        except FieldAnalysisError as exc:
            raise SignChangeFault(f"{exc} on the passage path") from None
        vmin, vmax = min(vals), max(vals)
        if vmin <= 0.0 <= vmax:
            worst = grid[min(range(len(vals)), key=lambda i: abs(vals[i]))]
            raise SignChangeFault(
                f"f + drive changes sign or vanishes near y = {float(worst)!r}; "
                "the control does not dominate the field on this path")

    result = _gauss_kronrod(f, drive, y_from, y_to)
    if not result > 0.0:
        raise SignChangeFault(
            f"non-positive passage time {result!r}; drive direction is "
            "inconsistent with the requested path")
    return result
