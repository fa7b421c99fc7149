"""Experiment harness: Monte-Carlo necessity verification, tightness checks,
critical-rate sweeps, and the prototype comparison table.

A campaign draws its forcings from one ``PCG64(seed)`` stream: sample ``i``
reads a fixed block of its raw words, the ``i``-th, so a sample depends on
``(seed, i)`` alone and re-runs are byte-reproducible.  The words map
straight into the lockstep batch's lane arrays; only the lanes left to
``classify`` become ``PiecewiseLinear`` profiles.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .classify import TRACKS, _lockstep_tracks, classify, threshold_bracket
from .control import (_critical_rates, critical_rate,
                      prototype_critical_rate_smooth, prototype_critical_slope)
from .field import BasinGeometry, ScalarField, analyze_basin
from .forcing import (PiecewiseLinear, _check_random_draw, _piecewise_linear,
                      _random_knots, _word_count, make_piecewise_linear_ramp,
                      make_tanh_ramp)

__all__ = [
    "VerificationReport",
    "SweepRow",
    "PrototypeRow",
    "VerificationFailure",
    "build_field",
    "random_forcing_for_sample",
    "run_verification",
    "run_sweep",
    "prototype_table",
    "prototype_failures",
]

PROTOTYPE_AMPLITUDES = (2.5, 3.0, 4.0, 6.0, 10.0)
MAX_RANDOM_SEGMENTS = 12


class VerificationFailure(RuntimeError):
    """A verification campaign observed a result the theory forbids."""


def build_field(field_text: str, attractor: float,
                search_interval: tuple[float, float] | None = None
                ) -> tuple[ScalarField, BasinGeometry]:
    """The parsed field and the basin of ``attractor`` that
    :func:`analyze_basin` finds in ``search_interval``."""
    field = ScalarField.from_text(field_text)
    return field, analyze_basin(field, attractor, search_interval)


# --------------------------------------------------------------------------
# necessity campaign
# --------------------------------------------------------------------------

def random_forcing_for_sample(arclength: float, speed_cap: float,
                              root_seed: int, index: int) -> PiecewiseLinear:
    """Sample ``index`` of the campaign at ``root_seed``: row ``index`` of
    :func:`_random_forcings`, both non-negative."""
    n_segments, knots = _random_forcings(arclength, speed_cap, root_seed,
                                         range(index, index + 1))
    return _piecewise_linear(knots[0, :n_segments[0] + 1])


# raw words per sample: the segment count, then the most knots can read
_SAMPLE_WORDS = 1 + _word_count(MAX_RANDOM_SEGMENTS)


def _random_forcings(arclength: float, speed_cap: float, root_seed: int,
                     indices: range) -> tuple[np.ndarray, np.ndarray]:
    """The forcings of the samples ``indices``, a range of step 1, as lane
    arrays: the segment counts ``n`` and the knots
    ``[samples, max n + 1, 2]``, zero past each sample's last knot.

    Sample ``i`` reads the raw words ``[i W, (i + 1) W)`` of one
    ``PCG64(root_seed)``, ``W = 1 + _word_count(MAX_RANDOM_SEGMENTS)``, so
    its forcing depends on ``(root_seed, i)`` alone.  Its segment count is
    ``1 + floor(12 w / 2**64)`` of word 0 ``w``, a multiply-shift taken in
    two 32-bit halves, whose bias is below ``12 / 2**64``; the next
    ``_word_count(n)`` words are its knots, mapped by
    ``forcing._random_knots`` one segment count at a time."""
    _check_random_draw(arclength, speed_cap)
    if root_seed < 0 or indices.start < 0:
        raise ValueError("seed must be a non-negative integer")
    bit_generator = np.random.PCG64(root_seed)
    bit_generator.advance(indices.start * _SAMPLE_WORDS)
    words = bit_generator.random_raw((len(indices), _SAMPLE_WORDS))
    w = words[:, 0]
    scaled = ((w >> 32) * MAX_RANDOM_SEGMENTS
              + ((w & 0xFFFFFFFF) * MAX_RANDOM_SEGMENTS >> 32))
    counts = 1 + (scaled >> 32).astype(np.int64)
    n_max = int(counts.max())
    knots = np.zeros((len(counts), n_max + 1, 2))
    for n in set(counts.tolist()):
        group = counts == n
        knots[group, :n + 1] = _random_knots(
            words[group, 1:1 + _word_count(n)], n, arclength, speed_cap)
    return counts, knots


def _sample_variants(field: ScalarField, geometry: BasinGeometry,
                     arclength: float, speed_cap: float, root_seed: int,
                     indices: range) -> list[str]:
    """Variants of the samples ``indices``: one lockstep batch of their
    lane arrays settles the forcings that certainly track, and ``classify``
    decides the rest, the only lanes built as :class:`PiecewiseLinear`
    profiles."""
    n_segments, knots = _random_forcings(arclength, speed_cap, root_seed,
                                         indices)
    settled = _lockstep_tracks(field, geometry, n_segments, knots)
    return [TRACKS if done else
            classify(field, geometry, _piecewise_linear(row[:n + 1])).variant
            for row, n, done in zip(knots, n_segments.tolist(), settled)]


@dataclass
class VerificationReport:
    field_text: str
    attractor: float
    arclength: float
    m_c: float
    side: int
    margin: float
    speed_cap: float
    n_samples: int
    n_tracks: int
    n_tips: int
    violating_seeds: list[int]
    tightness_upper_tips: bool
    tightness_lower_tracks: bool
    threshold_estimate: float
    wall_time: float

    @property
    def passed(self) -> bool:
        return (self.n_tips == 0 and not self.violating_seeds
                and self.tightness_upper_tips and self.tightness_lower_tracks)


def ramp_family(side: int, arclength: float):
    """Linear ramps of displacement ``side * arclength`` parameterized by
    slope magnitude."""
    def make(slope: float) -> PiecewiseLinear:
        return PiecewiseLinear(((0.0, 0.0),
                                (arclength / slope, side * arclength)))
    return make


def run_verification(field_text: str, attractor: float, arclength: float,
                     n_samples: int = 200, seed: int = 42,
                     margin: float = 0.95,
                     workers: int | None = None) -> VerificationReport:
    """Necessity campaign: random forcings of the given arclength, capped at
    ``margin * m_c``, must all track; the ramp pair at slopes just above and
    below ``m_c`` must tip and track respectively.

    The forcings run as one lockstep batch, a screen at ``rtol = 1e-6``,
    ``atol = 1e-8``.  Inside the basin ``f`` points back to the attractor
    ``a``, so from time ``t`` on ``max(y, a)`` rises by at most the drive's
    upward arclength still ahead, ``P+(t)``, and ``min(y, a)`` falls by at
    most its downward one, ``P-(t)``.  A forcing tracks, and leaves the
    batch, once ``max(y, a) + P+(t) < beta - g`` and
    ``min(y, a) - P-(t) > alpha + g``, with ``g = 1e-2 R`` (at the start,
    from its knots alone; at its end, when its state lies ``g`` inside the
    basin); ``classify`` decides every other one at the default settings.
    ``workers`` is accepted and ignored: the campaign runs as one batch in
    one process.  ``seed`` must be a non-negative integer; sample ``i``
    is the forcing that block ``i`` of the raw words of ``PCG64(seed)``
    draws (:func:`random_forcing_for_sample`), mapped into the batch's lane
    arrays, and only the lanes left to ``classify`` become
    ``PiecewiseLinear`` profiles."""
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie in (0, 1)")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    started = time.perf_counter()
    field, geometry = build_field(field_text, attractor)
    rate = critical_rate(geometry, field, arclength)
    cap = margin * rate.m_c

    variants = _sample_variants(field, geometry, arclength, cap, seed,
                                range(n_samples))

    violating = [i for i, variant in enumerate(variants) if variant != "tracks"]
    n_tracks = variants.count("tracks")
    n_tips = variants.count("tips")

    family = ramp_family(rate.side, arclength)
    upper = classify(field, geometry, family(1.001 * rate.m_c))
    lower = classify(field, geometry, family(0.999 * rate.m_c))
    bracket = threshold_bracket(field, geometry, family,
                                (0.9 * rate.m_c, 1.1 * rate.m_c))

    return VerificationReport(
        field_text=field_text, attractor=geometry.attractor,
        arclength=arclength, m_c=rate.m_c, side=rate.side, margin=margin,
        speed_cap=cap, n_samples=n_samples, n_tracks=n_tracks, n_tips=n_tips,
        violating_seeds=violating,
        tightness_upper_tips=(upper.variant == "tips"),
        tightness_lower_tracks=(lower.variant == "tracks"),
        threshold_estimate=bracket.param_critical,
        wall_time=time.perf_counter() - started,
    )


# --------------------------------------------------------------------------
# critical-rate sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    arclength: float
    m_c: float
    side: int
    j_residual: float


def run_sweep(field_text: str, attractor: float, l_min: float, l_max: float,
              steps: int) -> list[SweepRow]:
    """Critical rate over an ascending geometric grid of arclength budgets,
    solved as one batch: each row is :func:`critical_rate`'s at its budget
    to the bit, and a grid with a failing budget raises what the first
    such budget's :func:`critical_rate` raises."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not (math.isfinite(l_min) and math.isfinite(l_max)):
        raise ValueError("l_min and l_max must be finite")
    if steps > 1 and not l_min < l_max:
        raise ValueError("l_min must be below l_max when steps > 1")
    field, geometry = build_field(field_text, attractor)
    if steps == 1:
        grid = [float(l_min)]
    else:
        grid = [float(v) for v in np.geomspace(l_min, l_max, steps)]
    return [SweepRow(arclength=L, m_c=rate.m_c, side=rate.side,
                     j_residual=abs(rate.residual))
            for L, rate in zip(grid, _critical_rates(geometry, field, grid))]


# --------------------------------------------------------------------------
# prototype comparison
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PrototypeRow:
    lambda_inf: float
    r_c_closed_form: float
    r_star_bracket: float
    m_c_implicit: float
    m_star_bracket: float
    m_c_general: float


def prototype_table(amplitudes=PROTOTYPE_AMPLITUDES) -> list[PrototypeRow]:
    """Cross-validate the quadratic-prototype critical values three ways:
    closed forms, the general critical-rate solver, and direct simulation
    bracketing of the sigmoid and linear ramp families.  A sigmoid bracket
    starts at the larger of ``0.4 r_c`` and the paper's safe rate
    ``4 m_c / lambda^2``, shaded down by ``1e-6``.  The general solver
    runs once, as one batch over all the amplitudes, each ``m_c`` equal to
    :func:`critical_rate`'s at its amplitude to the bit; the brackets'
    certifying ``classify`` calls stop a tracking forced phase once the
    remaining-arclength rule holds."""
    field, geometry = build_field("x^2-1", -1.0)
    amplitudes = list(amplitudes)
    general = [rate.m_c
               for rate in _critical_rates(geometry, field, amplitudes)]
    rows = []
    for lam, m_c_general in zip(amplitudes, general):
        r_c = prototype_critical_rate_smooth(lam)
        m_c = prototype_critical_slope(lam)

        tanh_family = lambda r, _lam=lam: make_tanh_ramp(_lam, r)
        # the sigmoid peaks at speed (lam / 2)^2 r, and a forcing of
        # arclength at most lam tips only if its speed reaches m_c(lam):
        # every rate below r_safe tracks
        r_safe = (1.0 - 1e-6) * 4.0 * m_c_general / lam ** 2
        r_star = threshold_bracket(field, geometry, tanh_family,
                                   (max(0.4 * r_c, r_safe), 2.5 * r_c)
                                   ).param_critical
        pl_family = lambda m, _lam=lam: make_piecewise_linear_ramp(_lam, m)
        m_star = threshold_bracket(field, geometry, pl_family,
                                   (0.7 * m_c, 1.4 * m_c)).param_critical

        rows.append(PrototypeRow(
            lambda_inf=lam, r_c_closed_form=r_c, r_star_bracket=r_star,
            m_c_implicit=m_c, m_star_bracket=m_star, m_c_general=m_c_general))
    return rows


def prototype_failures(rows: list[PrototypeRow]) -> list[str]:
    """One message per disagreement in the prototype table: a bracketed
    threshold more than ``1e-3`` relative from its closed form or implicit
    solve, or the general solver more than ``1e-6`` from the implicit
    solve.  Empty when the three ways agree."""
    problems = []
    for r in rows:
        if abs(r.r_c_closed_form - r.r_star_bracket) > 1e-3 * r.r_c_closed_form:
            problems.append(
                f"lambda_inf={r.lambda_inf}: sigmoid threshold "
                f"{r.r_star_bracket!r} vs closed form {r.r_c_closed_form!r}")
        if abs(r.m_c_implicit - r.m_star_bracket) > 1e-3 * r.m_c_implicit:
            problems.append(
                f"lambda_inf={r.lambda_inf}: ramp threshold "
                f"{r.m_star_bracket!r} vs implicit solve {r.m_c_implicit!r}")
        if abs(r.m_c_implicit - r.m_c_general) > 1e-6:
            problems.append(
                f"lambda_inf={r.lambda_inf}: general solver {r.m_c_general!r} "
                f"vs implicit solve {r.m_c_implicit!r}")
    return problems
