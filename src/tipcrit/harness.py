"""Experiment harness: Monte-Carlo necessity verification, tightness checks,
critical-rate sweeps, and the prototype comparison table.

Campaign randomness is derived per sample from ``(root_seed, index)`` through
a seed sequence, so re-runs are byte-reproducible.  The campaign seeds its
per-sample generators in one vectorised pass, bit-identical to numpy's
``SeedSequence`` -> ``PCG64``, and reads their draws from raw ``PCG64``
words, mapped exactly as numpy's ``Generator.uniform`` and
``Generator.integers`` map them, straight into the lockstep batch's lane
arrays; only the lanes left to ``classify`` become ``PiecewiseLinear``
profiles.
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
    """Per-sample forcing: segment count and profile seed are both derived
    from ``(root_seed, index)``, both non-negative."""
    n_segments, knots = _random_forcings(arclength, speed_cap, root_seed,
                                         [index])
    return _piecewise_linear(knots[0, :n_segments[0] + 1])


# numpy's SeedSequence hash (O'Neill's seed_seq design) and PCG64's 128-bit
# multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _seed_words(entropy) -> list[int]:
    """The 32-bit words, least significant first, that ``SeedSequence``
    reads from an int or a sequence of ints (``0`` is one word)."""
    if not isinstance(entropy, (int, np.integer)):
        return [w for value in entropy for w in _seed_words(value)]
    entropy = int(entropy)
    if entropy < 0:
        raise ValueError("seed must be a non-negative integer")
    words = [entropy & _MASK32]
    while entropy > _MASK32:
        entropy >>= 32
        words.append(entropy & _MASK32)
    return words


def _hashmix(values: np.ndarray, const: int, mult: int = _MULT_A
             ) -> tuple[np.ndarray, int]:
    """``SeedSequence``'s hashmix of a ``uint32`` column, and the hash
    constant that follows ``const``; with ``mult = _MULT_B`` it is one word
    of ``generate_state``."""
    values = values ^ np.uint32(const)
    const = const * mult & _MASK32
    values = values * np.uint32(const)
    return values ^ (values >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> np.uint32(16))


def _pcg64_states(entropies) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence(e))`` for each entropy
    ``e`` of ``entropies``, hashed together: entropies of up to four words
    are zero-padded to the pool (``SeedSequence`` hashes a missing word as
    0), and longer ones are grouped by word count for the pool-overflow
    mixing."""
    rows = [_seed_words(e) for e in entropies]
    groups: dict[int, list[int]] = {}
    for i, words in enumerate(rows):
        groups.setdefault(max(len(words), _POOL_SIZE), []).append(i)
    states = [None] * len(rows)
    for width, members in groups.items():
        entropy = np.zeros((len(members), width), dtype=np.uint32)
        for row, i in enumerate(members):
            entropy[row, :len(rows[i])] = rows[i]
        # SeedSequence.mix_entropy: hash the words into the pool, mix every
        # pool word into every other, then mix in the words past the pool
        const = _INIT_A
        pool = []
        for column in entropy.T[:_POOL_SIZE]:
            hashed, const = _hashmix(column, const)
            pool.append(hashed)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    hashed, const = _hashmix(pool[src], const)
                    pool[dst] = _mix(pool[dst], hashed)
        for column in entropy.T[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                hashed, const = _hashmix(column, const)
                pool[dst] = _mix(pool[dst], hashed)
        # SeedSequence.generate_state(4, np.uint64): eight words cycled
        # from the pool, paired little-endian into (seed_hi, seed_lo,
        # inc_hi, inc_lo)
        const = _INIT_B
        words = []
        for k in range(8):
            hashed, const = _hashmix(pool[k % _POOL_SIZE], const, _MULT_B)
            words.append(hashed.astype(np.uint64))
        halves = np.stack([words[k] | words[k + 1] << np.uint64(32)
                           for k in range(0, 8, 2)], axis=1).tolist()
        # PCG64's srandom: inc = 2 initseq + 1, then step, add the seed, step
        for i, (s_hi, s_lo, i_hi, i_lo) in zip(members, halves):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            states[i] = (state, inc)
    return states


def _load_state(bit_generator: np.random.PCG64, state: tuple[int, int]
                ) -> None:
    """Set ``bit_generator`` to a fresh PCG64 at ``(state, inc)``."""
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": state[0], "inc": state[1]},
                           "has_uint32": 0, "uinteger": 0}


def _raw_words(bit_generator: np.random.PCG64, states, n_words: int
               ) -> np.ndarray:
    """The first ``n_words`` raw words of a fresh PCG64 at each of
    ``states``, one row each."""
    words = np.empty((len(states), n_words), dtype=np.uint64)
    for row, state in zip(words, states):
        _load_state(bit_generator, state)
        row[:] = bit_generator.random_raw(n_words)
    return words


def _counts_and_seeds(bit_generator: np.random.PCG64, states
                      ) -> tuple[np.ndarray, list[int]]:
    """What ``integers(1, MAX_RANDOM_SEGMENTS + 1)`` and then
    ``integers(0, 2**63 - 1)`` draw on a fresh ``Generator`` at each of
    ``states``, read from its raw words by Lemire's method as numpy reads
    them.  The count is ``1 + ((u * 12) >> 32)`` of the first 32-bit half
    ``u``, low half first, with ``(u * 12) mod 2**32`` at least
    ``2**32 mod 12 = 4``.  The seed is the high 64 bits of
    ``w * (2**63 - 1)`` of the first whole word ``w`` past those halves
    whose low 64 bits are at least ``2**64 mod (2**63 - 1) = 2``.  A row
    whose words run out is read again with twice as many."""
    counts = np.empty(len(states), dtype=np.int64)
    seeds = np.empty(len(states), dtype=np.uint64)
    rows, n_words = np.arange(len(states)), 2
    while rows.size:
        words = _raw_words(bit_generator, [states[i] for i in rows], n_words)
        halves = words.astype("<u8", copy=False).view("<u4").astype(
            np.uint64) * MAX_RANDOM_SEGMENTS
        count_ok = (halves & _MASK32) >= 4
        at = count_ok.argmax(axis=1)
        # w (2**63 - 1) = (w >> 1) 2**64 + (w & 1) 2**63 - w
        odd = (words & 1) << 63
        low = odd - words
        seed_ok = (low >= 2) & (np.arange(n_words) > at[:, None] // 2)
        seed_at = seed_ok.argmax(axis=1)
        k = np.arange(rows.size)
        done = count_ok[k, at] & seed_ok[k, seed_at]
        counts[rows[done]] = 1 + (halves[k, at] >> 32)[done]
        high = (words >> 1) - (odd < words)
        seeds[rows[done]] = high[k, seed_at][done]
        rows, n_words = rows[~done], 2 * n_words
    return counts, seeds.tolist()


def _random_forcings(arclength: float, speed_cap: float, root_seed: int,
                     indices) -> tuple[np.ndarray, np.ndarray]:
    """:func:`random_forcing_for_sample` at each of ``indices``, bit for
    bit, as lane arrays: the segment counts ``n`` and the knots
    ``[samples, max n + 1, 2]``, zero past each sample's last knot.  The
    per-sample and per-profile ``SeedSequence`` -> ``PCG64`` states are
    hashed in two vectorised passes, and the profiles are mapped from their
    raw words one segment count at a time."""
    _check_random_draw(arclength, speed_cap)
    bit_generator = np.random.PCG64(0)
    counts, profile_seeds = _counts_and_seeds(
        bit_generator, _pcg64_states([(root_seed, i) for i in indices]))
    n_max = int(counts.max())
    words = _raw_words(bit_generator, _pcg64_states(profile_seeds),
                       _word_count(n_max))
    knots = np.zeros((len(counts), n_max + 1, 2))
    for n in set(counts.tolist()):
        group = counts == n
        knots[group, :n + 1] = _random_knots(words[group, :_word_count(n)],
                                             n, arclength, speed_cap)
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
    one process.  ``seed`` must be a non-negative integer; each sample's
    generators are seeded from ``(seed, index)`` in one vectorised pass,
    bit-identical to numpy's ``SeedSequence`` -> ``PCG64``.  Their draws
    are raw ``PCG64`` words, mapped exactly as numpy's ``Generator.uniform``
    and ``Generator.integers`` map them, into the batch's lane arrays, and
    only the lanes left to ``classify`` become ``PiecewiseLinear``
    profiles."""
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
