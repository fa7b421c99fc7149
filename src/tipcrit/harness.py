"""Experiment harness: Monte-Carlo necessity verification, tightness checks,
critical-rate sweeps, and the prototype comparison table.

Campaign randomness is derived per sample from ``(root_seed, index)`` through
a seed sequence, so results are identical whether samples run serially or on
a process pool, and re-runs are byte-reproducible.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .classify import classify, threshold_bracket
from .control import critical_rate, prototype_critical_rate_smooth, \
    prototype_critical_slope
from .field import BasinGeometry, ScalarField, analyze_basin
from .forcing import (PiecewiseLinear, make_piecewise_linear_ramp,
                      make_tanh_ramp, sample_random_forcing)

__all__ = [
    "VerificationReport",
    "SweepRow",
    "PrototypeRow",
    "VerificationFailure",
    "build_field",
    "random_forcing_for_sample",
    "run_verification",
    "run_sweep",
    "sweep_rows_to_csv",
    "prototype_table",
    "prototype_rows_to_csv",
    "resolve_workers",
]

THREADS_ENV_VAR = "TIPCRIT_THREADS"
PROTOTYPE_AMPLITUDES = (2.5, 3.0, 4.0, 6.0, 10.0)
MAX_RANDOM_SEGMENTS = 12


class VerificationFailure(RuntimeError):
    """A verification campaign observed a result the theory forbids."""


def build_field(field_text: str, attractor: float,
                search_interval: tuple[float, float] | None = None
                ) -> tuple[ScalarField, BasinGeometry]:
    field = ScalarField.from_text(field_text)
    geometry = analyze_basin(field, attractor, search_interval)
    return field, geometry


def resolve_workers(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


# --------------------------------------------------------------------------
# necessity campaign
# --------------------------------------------------------------------------

def random_forcing_for_sample(arclength: float, speed_cap: float,
                              root_seed: int, index: int) -> PiecewiseLinear:
    """Per-sample forcing: segment count and profile seed are both derived
    from ``(root_seed, index)``."""
    rng = np.random.default_rng(np.random.SeedSequence((root_seed, index)))
    n_segments = int(rng.integers(1, MAX_RANDOM_SEGMENTS + 1))
    profile_seed = int(rng.integers(0, 2**63 - 1))
    return sample_random_forcing(arclength, speed_cap, n_segments, profile_seed)


def _sample_variant(field: ScalarField, geometry: BasinGeometry,
                    arclength: float, speed_cap: float, root_seed: int,
                    index: int) -> str:
    profile = random_forcing_for_sample(arclength, speed_cap, root_seed, index)
    return classify(field, geometry, profile).variant


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
    below ``m_c`` must tip and track respectively."""
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie in (0, 1)")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    started = time.perf_counter()
    field, geometry = build_field(field_text, attractor)
    rate = critical_rate(geometry, field, arclength)
    cap = margin * rate.m_c

    # the field pickles as its text, so each pool task ships it with the
    # geometry; map keeps the sample order
    task = partial(_sample_variant, field, geometry, arclength, cap, seed)
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or n_samples < 4:
        variants = list(map(task, range(n_samples)))
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            variants = list(pool.map(
                task, range(n_samples),
                chunksize=math.ceil(n_samples / (2 * n_workers))))

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
    """Critical rate over an ascending geometric grid of arclength budgets."""
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
    rows = []
    for L in grid:
        rate = critical_rate(geometry, field, L)
        rows.append(SweepRow(arclength=L, m_c=rate.m_c, side=rate.side,
                             j_residual=abs(rate.residual)))
    return rows


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    lines = ["L,m_c,side,j_residual"]
    for r in rows:
        lines.append(f"{r.arclength:.17g},{r.m_c:.17g},{r.side:d},"
                     f"{r.j_residual:.17g}")
    return "\n".join(lines) + "\n"


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
    bracketing of the sigmoid and linear ramp families."""
    field, geometry = build_field("x^2-1", -1.0)
    rows = []
    for lam in amplitudes:
        r_c = prototype_critical_rate_smooth(lam)
        m_c = prototype_critical_slope(lam)
        m_c_general = critical_rate(geometry, field, lam).m_c

        tanh_family = lambda r, _lam=lam: make_tanh_ramp(_lam, r)
        r_star = threshold_bracket(field, geometry, tanh_family,
                                   (0.4 * r_c, 2.5 * r_c)).param_critical
        pl_family = lambda m, _lam=lam: make_piecewise_linear_ramp(_lam, m)
        m_star = threshold_bracket(field, geometry, pl_family,
                                   (0.7 * m_c, 1.4 * m_c)).param_critical

        rows.append(PrototypeRow(
            lambda_inf=lam, r_c_closed_form=r_c, r_star_bracket=r_star,
            m_c_implicit=m_c, m_star_bracket=m_star, m_c_general=m_c_general))
    return rows


def prototype_failures(rows: list[PrototypeRow]) -> list[str]:
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


def prototype_rows_to_csv(rows: list[PrototypeRow]) -> str:
    lines = ["lambda_inf,r_c_closed_form,r_star_bracket,m_c_implicit,"
             "m_star_bracket,m_c_general"]
    for r in rows:
        lines.append(
            f"{r.lambda_inf:.17g},{r.r_c_closed_form:.17g},"
            f"{r.r_star_bracket:.17g},{r.m_c_implicit:.17g},"
            f"{r.m_star_bracket:.17g},{r.m_c_general:.17g}")
    return "\n".join(lines) + "\n"
