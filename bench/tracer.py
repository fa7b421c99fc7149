"""Outside-in tracing of the tipcrit layers.

Spans are recorded from the benchmark's own files: each hooked public
function is replaced, for the duration of a traced pass, at the module
attribute its callers look up (``classify.integrate_pieces``,
``control.first_passage_time``, ``cli.critical_rate`` and so on).  Nothing in
``src/`` is edited.  Field evaluations are counted by wrapping ``f`` and
``df`` of every :class:`ScalarField` built through ``ScalarField.from_text``.

A span's self time (and self evaluation count) is its own total minus what
its traced children took.  A hook whose target no longer exists is skipped,
so its metrics read zero calls instead of failing the run.  Inside
:meth:`Tracer.paused` the hooks pass calls straight through, so the
benchmark's own output checks are not counted as program work.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

# Modules whose attribute lookups are intercepted: the callers of the layers.
CALLING_MODULES = ("harness", "classify", "control", "cli")

# (home module, function) of each span; the span is named ``<module>.<function>``.
SPAN_HOOKS = (
    ("field", "analyze_basin"),
    ("forcing", "sample_random_forcing"),
    ("forcing", "parse_forcing_spec"),
    ("integrate", "first_passage_time"),
    ("integrate", "integrate_pieces"),
    ("integrate", "integrate_autonomous"),
    ("control", "cost"),
    ("control", "critical_rate"),
    ("classify", "classify"),
    ("classify", "threshold_bracket"),
    ("harness", "run_verification"),
    ("harness", "run_sweep"),
    ("harness", "prototype_table"),
    ("cli", "main"),
)
FROM_TEXT = "field.from_text"
TANH_SPEED = "forcing.TanhRamp.speed"

# Per-layer metric names, in the order they are reported; see BENCHMARK.json.
COUNT_METRICS = (
    [f"{m}.{f}.calls" for m, f in SPAN_HOOKS] + [
        f"{FROM_TEXT}.calls",
        f"{TANH_SPEED}.calls",
        "field.analyze_basin.f_evals",
        "integrate.first_passage_time.f_evals",
        "integrate.integrate_pieces.f_evals",
        "integrate.integrate_pieces.accepted_steps",
        "integrate.integrate_autonomous.f_evals",
        "control.critical_rate.cost_calls",
        "classify.classify.tail_calls",
        "classify.classify.tracks",
        "classify.classify.tips",
        "classify.classify.critical",
        "classify.threshold_bracket.classify_calls",
        "harness.run_verification.analyze_calls",
    ])
TIME_METRICS = [f"{m}.{f}.self_s" for m, f in SPAN_HOOKS] + [f"{FROM_TEXT}.self_s"]
# ratio name -> (numerator count, denominator count)
RATIO_METRICS = {
    "control.critical_rate.cost_per_call": (
        "control.critical_rate.cost_calls", "control.critical_rate.calls"),
    "classify.threshold_bracket.classify_per_call": (
        "classify.threshold_bracket.classify_calls",
        "classify.threshold_bracket.calls"),
    "classify.classify.tail_share": (
        "classify.classify.tail_calls", "classify.classify.calls"),
    "integrate.integrate_pieces.evals_per_step": (
        "integrate.integrate_pieces.f_evals",
        "integrate.integrate_pieces.accepted_steps"),
    "harness.run_verification.analyze_per_call": (
        "harness.run_verification.analyze_calls",
        "harness.run_verification.calls"),
}
# child span counted under its direct parent span: (parent, child) -> count name
CHILD_COUNTS = {
    ("control.critical_rate", "control.cost"): "control.critical_rate.cost_calls",
    ("classify.threshold_bracket", "classify.classify"):
        "classify.threshold_bracket.classify_calls",
    ("harness.run_verification", "field.analyze_basin"):
        "harness.run_verification.analyze_calls",
}
EVAL_SPANS = ("field.analyze_basin", "integrate.first_passage_time",
              "integrate.integrate_pieces", "integrate.integrate_autonomous")


def _module(name: str):
    return sys.modules.get(f"tipcrit.{name}")


class _Span:
    __slots__ = ("name", "start", "evals0", "child_s", "child_evals", "kids")

    def __init__(self, name: str, evals0: int):
        self.name = name
        self.evals0 = evals0
        self.child_s = 0.0
        self.child_evals = 0
        self.kids: set[str] = set()
        self.start = time.perf_counter()


class Tracer:
    """Installs the hooks on entry and restores every attribute on exit."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.evals = 0
        self._paused = False
        self._stack: list[_Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- hooks --------------------------------------------------------------

    def _enter(self, name: str) -> _Span:
        span = _Span(name, self.evals)
        if self._stack:
            parent = self._stack[-1]
            parent.kids.add(name)
            child_count = CHILD_COUNTS.get((parent.name, name))
            if child_count:
                self.counts[child_count] += 1
        self._stack.append(span)
        return span

    def _exit(self, span: _Span, result) -> None:
        elapsed = time.perf_counter() - span.start
        evals = self.evals - span.evals0
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += elapsed
            parent.child_evals += evals
        name = span.name
        self.counts[f"{name}.calls"] += 1
        self.self_s[f"{name}.self_s"] += elapsed - span.child_s
        if name in EVAL_SPANS:
            self.counts[f"{name}.f_evals"] += evals - span.child_evals
        if result is None:
            return
        if name == "integrate.integrate_pieces":
            self.counts[f"{name}.accepted_steps"] += len(result.times) - 1
        elif name == "classify.classify":
            self.counts[f"{name}.{result.variant}"] += 1
            if "integrate.integrate_autonomous" in span.kids:
                self.counts[f"{name}.tail_calls"] += 1

    def _span_hook(self, name: str, fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(span, None)
                raise
            self._exit(span, result)
            return result
        return hooked

    def _counted(self, fn):
        def counted(x):
            self.evals += 1
            return fn(x)
        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        for module_name, func_name in SPAN_HOOKS:
            home = _module(module_name)
            target = getattr(home, func_name, None) if home else None
            if target is None:
                continue
            hooked = self._span_hook(f"{module_name}.{func_name}", target)
            for caller_name in CALLING_MODULES:
                caller = _module(caller_name)
                if caller is None:
                    continue
                for attr, value in list(vars(caller).items()):
                    if value is target:
                        self._patch(caller, attr, hooked)

        field_cls = getattr(_module("field"), "ScalarField", None)
        if field_cls is not None and "from_text" in vars(field_cls):
            build = vars(field_cls)["from_text"].__func__
            span_build = self._span_hook(FROM_TEXT, build)

            def from_text(cls, text):
                if self._paused:
                    return build(cls, text)
                built = span_build(cls, text)
                return dataclasses.replace(built, f=self._counted(built.f),
                                           df=self._counted(built.df))
            self._patch(field_cls, "from_text", classmethod(from_text))

        ramp_cls = getattr(_module("forcing"), "TanhRamp", None)
        if ramp_cls is not None and "speed" in vars(ramp_cls):
            speed = vars(ramp_cls)["speed"]

            def counted_speed(ramp, t):
                if not self._paused:
                    self.counts[f"{TANH_SPEED}.calls"] += 1
                return speed(ramp, t)
            self._patch(ramp_cls, "speed", counted_speed)
        return self

    @contextlib.contextmanager
    def paused(self):
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def snapshot(self) -> tuple[dict[str, int], dict[str, float]]:
        """Counts (exact, repeatable) and self times of everything recorded."""
        counts = {name: int(self.counts[name]) for name in COUNT_METRICS}
        times = {name: float(self.self_s[name]) for name in TIME_METRICS}
        return counts, times


def ratios(counts: dict[str, int]) -> dict[str, float]:
    """Derived ratios; a ratio whose base is zero reads 0."""
    out = {}
    for name, (num, den) in RATIO_METRICS.items():
        out[name] = counts[num] / counts[den] if counts[den] else 0.0
    return out
