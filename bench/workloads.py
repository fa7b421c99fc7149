"""The four benchmark workloads: seeded inputs, calls through the public API,
and output checks.

``make_inputs(seed, pass_index)`` builds the inputs of one pass from the
benchmark seed alone; ``run_pass(inputs, tally, workdir)`` drives them
closed-loop (one client, one process, ``workers=1``) and records the time of
every public call, items attempted and items failed in the tally.  Only the
public calls are timed (see ``hostspeed.py``); input generation and output
checks are not.

Every module is looked up in ``sys.modules`` at call time, so the tracer's
hooks are seen and the re-exported functions on the ``tipcrit`` package
(``tipcrit.classify`` is a function there) are never mistaken for modules.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import hostspeed


def mod(name: str):
    return sys.modules[f"tipcrit.{name}"]


@dataclass
class Tally:
    """What one closed-loop client saw."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0               # items whose returned output failed a check
    # [wall s, wall s scaled to the nominal host speed, completed] per call
    calls: list = field(default_factory=list)
    # context for output checks that call tipcrit; the tracer pauses in it
    checking: object = contextlib.nullcontext
    failures: Counter = field(default_factory=Counter)

    def fail(self, n: int, reason: str, wrong: bool = False) -> None:
        self.failed += n
        if wrong:
            self.wrong += n
        self.failures[reason] += n

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def _timed(tally: Tally, fn, *args, **kwargs):
    """Run one public call; returns (result, error message or None)."""
    result, exc, wall, scaled = hostspeed.timed(fn, *args, **kwargs)
    tally.calls.append([wall, scaled, exc is None])
    if exc is not None:
        return None, f"{type(exc).__name__}: {exc}"
    return result, None


def _reason(label: str, message: str) -> str:
    """Failure key with the numbers blanked, so equal faults group together."""
    return f"{label}: " + re.sub(r"[-+]?\d[\d.eE+-]*", "#", message.strip())


def _rng(seed: int, pass_index: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, pass_index, tag)))


# --------------------------------------------------------------------------
# query: one-shot CLI sessions
# --------------------------------------------------------------------------

QUERY_SESSIONS = 100
QUERY_FAMILIES = ("quadratic", "cubic", "sine", "tanh", "rational", "quartic",
                  "exp")


@dataclass(frozen=True)
class Session:
    family: str
    text: str
    attractor: float
    radius: float        # closed-form basin radius of the generated field
    arclength: float
    cap_fraction: float  # k < 1: the classify forcing is capped at k * m_c
    segments: int
    forcing_seed: int


def _num(v: float) -> str:
    return f"{v:.6g}"


def _shift(root: float) -> str:
    return f"(x-{_num(root)})" if root >= 0 else f"(x+{_num(-root)})"


def _tanh_root(k: float) -> float:
    """Positive root of ``x = k * tanh(x)`` for ``k > 1``."""
    lo, hi = 1e-9, k
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid - k * math.tanh(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _field_family(family: str, rng: np.random.Generator):
    """(text, attractor, radius); parameters are rounded to the printed
    digits first, so the closed-form radius belongs to the printed field."""
    u = rng.uniform
    if family in ("quadratic", "rational", "exp"):
        c2 = float(_num(u(0.5, 2.0) ** 2))
        c = math.sqrt(c2)
        text = {"quadratic": f"x^2-{_num(c2)}",
                "rational": f"(x^2-{_num(c2)})/(1+x^2)",
                "exp": f"(x^2-{_num(c2)})*exp(x/4)"}[family]
        return text, -c, 2.0 * c
    if family == "cubic":
        r2 = float(_num(u(-1.0, 1.0)))
        r1 = float(_num(r2 - u(0.5, 2.0)))
        r3 = float(_num(r2 + u(0.5, 2.0)))
        text = "*".join(_shift(r) for r in (r1, r2, r3))
        return text, r2, min(r2 - r1, r3 - r2)
    if family == "sine":
        s = float(_num(u(-0.6, 0.6)))
        text = f"sin(x)+{_num(s)}" if s >= 0 else f"sin(x)-{_num(-s)}"
        return text, math.pi + math.asin(s), math.pi - 2.0 * abs(math.asin(s))
    if family == "tanh":
        k = float(_num(u(1.5, 4.0)))
        return f"x-{_num(k)}*tanh(x)", 0.0, _tanh_root(k)
    if family == "quartic":
        a = float(_num(u(0.5, 1.5)))
        b = float(_num(a + u(0.5, 1.5)))
        text = f"(x^2-{_num(a * a)})*(x^2-{_num(b * b)})"
        a, b = math.sqrt(float(_num(a * a))), math.sqrt(float(_num(b * b)))
        return text, a, min(2.0 * a, b - a)
    raise ValueError(f"unknown field family {family!r}")


def query_inputs(seed: int, pass_index: int) -> list[Session]:
    rng = _rng(seed, pass_index, 1)
    sessions = []
    for i in range(QUERY_SESSIONS):
        family = QUERY_FAMILIES[i % len(QUERY_FAMILIES)]
        text, attractor, radius = _field_family(family, rng)
        scale = math.exp(rng.uniform(math.log(1.1), math.log(20.0)))
        sessions.append(Session(
            family=family, text=text, attractor=attractor, radius=radius,
            arclength=radius * scale, cap_fraction=float(rng.uniform(0.5, 0.95)),
            segments=int(rng.integers(1, 13)),
            forcing_seed=int(rng.integers(0, 2**31))))
    return sessions


def _command(tally: Tally, family: str, argv: list[str], out: str):
    """One in-process ``tipcrit.cli.main`` command writing its record to
    ``out``; returns the parsed record, or None on failure."""
    tally.attempted += 1
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code, error = _timed(tally, mod("cli").main, argv + ["--out", out])
    if error is None and code != 0:
        tally.calls[-1][2] = False
        error = f"exit {code}: {stderr.getvalue().strip()}"
    if error is not None:
        tally.fail(1, _reason(f"{family} {argv[0]}", error))
        return None
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_query(sessions: list[Session], tally: Tally, workdir: str) -> None:
    out = os.path.join(workdir, "out.json")
    for s in sessions:
        run_session(s, tally, out)


def _geometry(record: dict):
    """BasinGeometry rebuilt from an ``analyze`` record: 17 digits round-trip
    exactly, and ``float`` reads the quoted infinities."""
    return mod("field").BasinGeometry(
        attractor=float(record["a"]), alpha=float(record["alpha"]),
        beta=float(record["beta"]), radius=float(record["R"]),
        mu_minus=float(record["mu_minus"]), mu_plus=float(record["mu_plus"]),
        mu=float(record["mu"]))


def run_session(s: Session, tally: Tally, out: str) -> None:
    """analyze, then critical-rate, then classify with a forcing capped
    below the session's own checked ``m_c``."""
    base = ["--field", s.text, "--attractor", repr(s.attractor)]
    analyzed = _command(tally, s.family, ["analyze"] + base, out)
    if analyzed is not None and not (
            abs(float(analyzed["R"]) - s.radius) <= 1e-8 * s.radius):
        tally.fail(1, f"{s.family} analyze: radius differs from closed form",
                   wrong=True)
        analyzed = None

    rate = _command(tally, s.family,
                    ["critical-rate"] + base + ["--arclength", repr(s.arclength)],
                    out)
    m_c = None
    if rate is not None:
        if analyzed is None:
            tally.fail(1, f"{s.family} critical-rate: no analyze record to check")
        else:
            with tally.checking():
                field = mod("field").ScalarField.from_text(s.text)
                j = mod("control").cost(_geometry(analyzed), field,
                                        rate["m_c"])[2]
            if abs(j - s.arclength) <= 1e-8 * s.arclength:
                m_c = rate["m_c"]
            else:
                tally.fail(1, f"{s.family} critical-rate: |J(m_c) - L| > 1e-8 L",
                           wrong=True)

    if m_c is None:
        tally.attempted += 1
        tally.fail(1, f"{s.family} classify: no checked m_c to cap the forcing")
        return
    spec = (f"random:{s.arclength!r}:{s.cap_fraction * m_c!r}:"
            f"{s.segments}:{s.forcing_seed}")
    outcome = _command(tally, s.family, ["classify"] + base + ["--forcing", spec],
                       out)
    if outcome is not None and outcome["variant"] != "tracks":
        tally.fail(1, f"{s.family} classify: capped forcing gave "
                      f"{outcome['variant']}", wrong=True)


# --------------------------------------------------------------------------
# sweep: critical rate over criterion 8's budget range
# --------------------------------------------------------------------------

SWEEP_FIELDS = (("x^2-1", -1.0, 2.0), ("x*(x-1)*(x+2)", 0.0, 1.0))
SWEEP_STEPS = 100
SWEEP_CALLS = 4              # run_sweep calls per field, 25 budgets each
SWEEP_RANGE = (1.05, 50.0)   # in units of the basin radius


def sweep_inputs(seed: int, pass_index: int
                 ) -> list[tuple[str, float, list[float]]]:
    """(field, attractor, budget grid) per field.  The seed shifts each
    geometric grid by up to half a grid step either way."""
    rng = _rng(seed, pass_index, 2)
    lo, hi = SWEEP_RANGE
    step = (hi / lo) ** (1.0 / (SWEEP_STEPS - 1))
    fields = []
    for text, attractor, radius in SWEEP_FIELDS:
        shift = step ** rng.uniform(-0.5, 0.5)
        grid = np.geomspace(lo * radius * shift, hi * radius * shift, SWEEP_STEPS)
        fields.append((text, attractor, [float(v) for v in grid]))
    return fields


def run_sweep(fields, tally: Tally, _workdir: str) -> None:
    """Each grid is swept as SWEEP_CALLS interleaved sub-grids (every
    SWEEP_CALLS-th budget, itself a geometric grid over the whole range), so
    per-call latency has samples of like cost; field analysis stays a few
    percent of the work."""
    for text, attractor, grid in fields:
        rows = []
        for k in range(SWEEP_CALLS):
            sub = grid[k::SWEEP_CALLS]
            tally.attempted += len(sub)
            got, error = _timed(tally, mod("harness").run_sweep, text, attractor,
                                sub[0], sub[-1], len(sub))
            if error is not None:
                tally.fail(len(sub), _reason(f"sweep {text}", error))
                continue
            rows.extend(got)
        rows.sort(key=lambda r: r.arclength)
        bad = sum(1 for r in rows if not r.j_residual <= 1e-8 * r.arclength)
        bad += sum(1 for a, b in zip(rows, rows[1:]) if not b.m_c < a.m_c)
        if len(rows) == len(grid):
            bad += sum(1 for r, L in zip(rows, grid)
                       if not abs(r.arclength - L) <= 1e-12 * L)
        if bad:
            tally.fail(min(bad, len(rows)),
                       f"sweep {text}: residual, order or budget grid",
                       wrong=True)


# --------------------------------------------------------------------------
# campaign: criterion 4's necessity cells, serial
# --------------------------------------------------------------------------

CAMPAIGN_FIELDS = (("x^2-1", -1.0, 2.0), ("x*(x-1)*(x+2)", 0.0, 1.0))
CAMPAIGN_SAMPLES = 200
CAMPAIGN_MARGIN = 0.95


def campaign_inputs(seed: int, pass_index: int
                    ) -> list[tuple[str, float, float, int]]:
    """(field, attractor, arclength, campaign seed) for the ten cells."""
    rng = _rng(seed, pass_index, 3)
    cells = []
    for text, attractor, radius in CAMPAIGN_FIELDS:
        for L in np.geomspace(1.1 * radius, 5.0 * radius, 5):
            cells.append((text, attractor, float(L), int(rng.integers(0, 2**31))))
    return cells


def run_campaign(cells, tally: Tally, _workdir: str) -> None:
    for text, attractor, L, cell_seed in cells:
        tally.attempted += CAMPAIGN_SAMPLES
        report, error = _timed(tally, mod("harness").run_verification, text,
                               attractor, L, n_samples=CAMPAIGN_SAMPLES,
                               seed=cell_seed, margin=CAMPAIGN_MARGIN, workers=1)
        if error is not None:
            tally.fail(CAMPAIGN_SAMPLES, _reason(f"campaign {text}", error))
        elif not report.passed:
            tally.fail(max(1, len(report.violating_seeds)),
                       f"campaign {text}: report did not pass", wrong=True)


# --------------------------------------------------------------------------
# bracket: simulation-bracketed prototype thresholds
# --------------------------------------------------------------------------

BRACKET_AMPLITUDES = 40
BRACKET_CHUNK = 4            # amplitudes per prototype_table call
BRACKET_RANGE = (2.2, 20.0)


def bracket_inputs(seed: int, pass_index: int) -> list[float]:
    """One amplitude drawn uniformly from each of BRACKET_AMPLITUDES equal
    strata of the range, in ascending order.  Bracket cost varies with the
    amplitude, so stratifying keeps the work per pass alike across seeds."""
    rng = _rng(seed, pass_index, 4)
    lo, hi = BRACKET_RANGE
    width = (hi - lo) / BRACKET_AMPLITUDES
    return [lo + (i + float(rng.uniform())) * width
            for i in range(BRACKET_AMPLITUDES)]


def run_bracket(amplitudes, tally: Tally, _workdir: str) -> None:
    """prototype_table in calls of BRACKET_CHUNK amplitudes; each amplitude
    is two items, its sigmoid and its linear-ramp bracket."""
    harness = mod("harness")
    for i in range(0, len(amplitudes), BRACKET_CHUNK):
        chunk = amplitudes[i:i + BRACKET_CHUNK]
        items = 2 * len(chunk)
        tally.attempted += items
        rows, error = _timed(tally, harness.prototype_table, chunk)
        if error is not None:
            tally.fail(items, _reason("bracket", error))
            continue
        problems = harness.prototype_failures(rows)
        if problems:
            tally.fail(min(len(problems), items), "bracket: prototype_failures",
                       wrong=True)


WORKLOADS = {
    "query": (query_inputs, run_query),
    "sweep": (sweep_inputs, run_sweep),
    "campaign": (campaign_inputs, run_campaign),
    "bracket": (bracket_inputs, run_bracket),
}
