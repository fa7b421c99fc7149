"""External forcing profiles.

A forcing is a function of time that starts at 0, settles to a finite limit,
and drives the dynamics through its time derivative once the problem is moved
to co-moving coordinates.  Two representations are supported: piecewise
linear (exact slopes) and truncated tanh ramps (analytic pulse).  A
piecewise-constant speed ``u = lambda'``, such as a bang-bang pulse, is the
piecewise-linear ramp it drives.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ForcingProfile",
    "PiecewiseLinear",
    "TanhRamp",
    "make_piecewise_linear_ramp",
    "make_tanh_ramp",
    "make_bang_bang",
    "sample_random_forcing",
    "parse_forcing_spec",
]

TANH_TAIL_TOL = 1e-10


# --------------------------------------------------------------------------
# forcing profiles
# --------------------------------------------------------------------------

class ForcingProfile:
    """Common interface for forcing representations."""

    def value(self, t: float) -> float:
        raise NotImplementedError

    def speed_function(self) -> Callable[[float], float]:
        """The speed ``lambda'`` as a plain function of time, for the
        integrator's right-hand side."""
        raise NotImplementedError

    def start_time(self) -> float:
        raise NotImplementedError

    def end_time(self) -> float:
        raise NotImplementedError

    def final_value(self) -> float:
        raise NotImplementedError

    def arclength(self) -> float:
        raise NotImplementedError

    def sup_speed(self) -> float:
        raise NotImplementedError

    def monotone(self) -> bool:
        raise NotImplementedError

    def speed_breakpoints(self) -> list[float]:
        """Times where the derivative may be discontinuous or non-smooth."""
        raise NotImplementedError


@dataclass(frozen=True)
class PiecewiseLinear(ForcingProfile):
    """Knot list ``(t, value)``; constant before the first and after the last
    knot.  The first knot value must be 0 so the profile vanishes backward in
    time."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.knots:
            raise ValueError("at least one knot required")
        times = [k[0] for k in self.knots]
        for t, v in self.knots:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ValueError("knots must be finite")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("knot times must be strictly increasing")
        if self.knots[0][1] != 0.0:
            raise ValueError("first knot value must be 0")

    def _times(self) -> list[float]:
        return [k[0] for k in self.knots]

    def value(self, t: float) -> float:
        knots = self.knots
        if t <= knots[0][0]:
            return knots[0][1]
        if t >= knots[-1][0]:
            return knots[-1][1]
        i = bisect_right(self._times(), t) - 1
        t0, v0 = knots[i]
        t1, v1 = knots[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def speed_function(self) -> Callable[[float], float]:
        knots = self.knots
        times = self._times()

        def speed(t: float) -> float:
            if t < knots[0][0] or t >= knots[-1][0]:
                return 0.0
            i = bisect_right(times, t) - 1
            t0, v0 = knots[i]
            t1, v1 = knots[i + 1]
            return (v1 - v0) / (t1 - t0)
        return speed

    def start_time(self) -> float:
        return self.knots[0][0]

    def end_time(self) -> float:
        return self.knots[-1][0]

    def final_value(self) -> float:
        return self.knots[-1][1]

    def arclength(self) -> float:
        return sum(abs(v1 - v0) for (_, v0), (_, v1)
                   in zip(self.knots, self.knots[1:]))

    def sup_speed(self) -> float:
        return max((abs((v1 - v0) / (t1 - t0)) for (t0, v0), (t1, v1)
                    in zip(self.knots, self.knots[1:])), default=0.0)

    def monotone(self) -> bool:
        diffs = [v1 - v0 for (_, v0), (_, v1) in zip(self.knots, self.knots[1:])]
        return all(d >= 0.0 for d in diffs) or all(d <= 0.0 for d in diffs)

    def speed_breakpoints(self) -> list[float]:
        return [k[0] for k in self.knots]


@dataclass(frozen=True)
class TanhRamp(ForcingProfile):
    """Sigmoid ramp from 0 to ``lambda_inf``, truncated to a finite support.

    Outside ``[-truncation_time, truncation_time]`` the profile is treated as
    exactly 0 / exactly ``lambda_inf``, which makes the pullback start exact;
    the derivative mass dropped in each tail is below the truncation
    tolerance used at construction.
    """

    lambda_inf: float
    rate: float
    truncation_time: float

    def __post_init__(self):
        if not (0.0 < self.lambda_inf < math.inf and 0.0 < self.rate < math.inf
                and 0.0 < self.truncation_time < math.inf):
            raise ValueError(
                "lambda_inf, rate, truncation_time must be positive and finite")
        half = 0.5 * self.lambda_inf
        if not math.isfinite(half * half * self.rate):
            raise ValueError(
                f"the peak speed (lambda_inf / 2)^2 * rate of lambda_inf = "
                f"{self.lambda_inf!r}, rate = {self.rate!r} overflows")

    def value(self, t: float) -> float:
        if t <= -self.truncation_time:
            return 0.0
        if t >= self.truncation_time:
            return self.lambda_inf
        return 0.5 * self.lambda_inf * (
            1.0 + math.tanh(0.5 * self.lambda_inf * self.rate * t))

    def speed_function(self) -> Callable[[float], float]:
        """The pulse ``amp sech^2(k t)`` on ``[-T, T)``, 0 outside, as a
        closure over its constants: the integrator calls it at every stage,
        and attribute lookups would dominate its cost."""
        k = 0.5 * self.lambda_inf * self.rate
        amp = (0.5 * self.lambda_inf) ** 2 * self.rate
        T = self.truncation_time
        cosh = math.cosh

        def pulse(t: float) -> float:
            if t < -T or t >= T:
                return 0.0
            sech = 1.0 / cosh(k * t)
            return amp * sech * sech
        return pulse

    def start_time(self) -> float:
        return -self.truncation_time

    def end_time(self) -> float:
        return self.truncation_time

    def final_value(self) -> float:
        return self.lambda_inf

    def arclength(self) -> float:
        return self.lambda_inf

    def sup_speed(self) -> float:
        return (0.5 * self.lambda_inf) ** 2 * self.rate

    def monotone(self) -> bool:
        return True

    def speed_breakpoints(self) -> list[float]:
        return [-self.truncation_time, self.truncation_time]


def _direction(profile: ForcingProfile) -> int:
    f = profile.final_value()
    return 0 if f == 0.0 else (1 if f > 0.0 else -1)


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def make_piecewise_linear_ramp(lambda_inf: float, slope: float) -> PiecewiseLinear:
    """Linear ramp from 0 to ``lambda_inf`` at constant ``slope``."""
    if not (lambda_inf > 0.0 and math.isfinite(lambda_inf)):
        raise ValueError("lambda_inf must be positive and finite")
    if not (slope > 0.0 and math.isfinite(slope)):
        raise ValueError("slope must be positive and finite")
    return PiecewiseLinear(((0.0, 0.0), (lambda_inf / slope, lambda_inf)))


def make_bang_bang(height: float, onset: float, width: float,
                   sign: int) -> PiecewiseLinear:
    """The ramp driven by one rectangular speed pulse of magnitude
    ``height`` and the given sign on ``[onset, onset + width]``."""
    if not height > 0.0:
        raise ValueError("pulse height must be positive")
    if not width > 0.0:
        raise ValueError("pulse width must be positive")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    return PiecewiseLinear(((onset, 0.0), (onset + width, sign * height * width)))


def make_tanh_ramp(lambda_inf: float, rate: float) -> TanhRamp:
    """Tanh ramp truncated where both tails are within ``TANH_TAIL_TOL`` of
    their limits (relative to ``lambda_inf``)."""
    if not 0.0 < lambda_inf < math.inf:
        raise ValueError("lambda_inf must be positive and finite")
    if not 0.0 < rate < math.inf:
        raise ValueError("rate must be positive and finite")
    # target slightly inside the tolerance: evaluating the tail involves a
    # 1 - tanh cancellation whose roundoff would otherwise graze the bound
    target = 0.999 * TANH_TAIL_TOL
    steepness = lambda_inf * rate
    truncation = (math.log((1.0 - target) / target) / steepness
                  if steepness > 0.0 else math.inf)
    if not 0.0 < truncation < math.inf:
        raise ValueError(f"lambda_inf * rate = {steepness!r} leaves no "
                         "positive finite truncation time")
    return TanhRamp(lambda_inf=lambda_inf, rate=rate, truncation_time=truncation)


# --------------------------------------------------------------------------
# random forcings for verification sweeps
# --------------------------------------------------------------------------

_SIGNS = np.array((-1.0, 1.0))


def sample_random_forcing(arclength: float, speed_cap: float,
                          n_segments: int, seed: int) -> PiecewiseLinear:
    """Random piecewise-linear forcing with the exact requested arclength and
    every slope magnitude in ``[0.2, 1.0] * speed_cap``.

    The signed displacements partition ``arclength``; segment durations
    follow from the drawn slopes, so the total duration is emergent.
    Deterministic for a given non-negative seed.
    """
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return _draw_random_forcing(
        np.random.default_rng(np.random.SeedSequence(seed)), arclength,
        speed_cap, n_segments)


def _draw_random_forcing(rng: np.random.Generator, arclength: float,
                         speed_cap: float, n_segments: int
                         ) -> PiecewiseLinear:
    """:func:`sample_random_forcing`'s draw from the generator ``rng``."""
    if not arclength > 0.0:
        raise ValueError("arclength must be positive")
    if not speed_cap > 0.0:
        raise ValueError("speed_cap must be positive")
    if n_segments < 1:
        raise ValueError("n_segments must be at least 1")
    weights = rng.uniform(0.05, 1.0, size=n_segments)
    magnitudes = weights * (arclength / weights.sum())
    # what rng.choice((-1.0, 1.0), size=n) draws, without its overhead
    signs = _SIGNS[rng.integers(0, 2, size=n_segments)]
    speeds = rng.uniform(0.2, 1.0, size=n_segments) * speed_cap

    knots = [(0.0, 0.0)]
    t, v = 0.0, 0.0
    # Python floats: the same IEEE operations, but an overflow is inf, not a
    # numpy warning, and reaches the knots' finiteness check
    for mag, sign, speed in zip(magnitudes.tolist(), signs.tolist(),
                                speeds.tolist()):
        t += mag / speed
        v += sign * mag
        knots.append((t, v))
    return PiecewiseLinear(tuple(knots))


# --------------------------------------------------------------------------
# CLI mini-language
# --------------------------------------------------------------------------

def parse_forcing_spec(spec: str) -> ForcingProfile:
    """Parse a forcing specification string.

    Formats: ``pl:LAMBDA_INF:SLOPE``, ``tanh:LAMBDA_INF:R``,
    ``knots:t0,v0;t1,v1;...``, ``random:L:CAP:N:SEED``.
    """
    head, _, rest = spec.partition(":")
    try:
        if head == "pl":
            lam, slope = rest.split(":")
            return make_piecewise_linear_ramp(float(lam), float(slope))
        if head == "tanh":
            lam, rate = rest.split(":")
            return make_tanh_ramp(float(lam), float(rate))
        if head == "knots":
            knots = []
            for pair in rest.split(";"):
                t_text, v_text = pair.split(",")
                knots.append((float(t_text), float(v_text)))
            return PiecewiseLinear(tuple(knots))
        if head == "random":
            l_text, cap_text, n_text, seed_text = rest.split(":")
            return sample_random_forcing(float(l_text), float(cap_text),
                                         int(n_text), int(seed_text))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad forcing spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"bad forcing spec {spec!r}: expected pl:, tanh:, knots: or random:")
