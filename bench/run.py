"""tipcrit benchmark: four seeded, closed-loop workloads through the public API.

Run from the repository root:

    python3 bench/run.py --workload query --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (throughput, per-call latency,
set-up time, peak memory), with every time scaled to a nominal host speed
(see ``hostspeed.py``) and the wall-clock figures on a line before them.
``--trace 1`` prints the per-layer metrics of a traced run (see
``tracer.py``).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed / attempted`` is the
workload's fail ratio; ``correct`` is false when any returned output failed
its check, as opposed to a call that raised or exited non-zero.

The package is imported from ``src/`` of this checkout (as the test suite
runs it with ``PYTHONPATH=src``); the run stops with an error if ``tipcrit``
would come from anywhere else.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import hostspeed
import tracer
from workloads import WORKLOADS, Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
SETUP_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import tipcrit, tipcrit.cli; "
               "print(time.perf_counter() - t)")


def import_tipcrit() -> None:
    if not (SRC / "tipcrit" / "__init__.py").is_file():
        sys.exit(f"bench: no tipcrit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tipcrit
    import tipcrit.cli  # noqa: F401 - the one module the package does not load
    if not Path(tipcrit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: tipcrit imported from {tipcrit.__file__}, not {SRC}")


def measure_setup_s() -> tuple[float, float]:
    """Median time to import tipcrit and its CLI in a fresh interpreter, as
    (scaled to the nominal host speed, wall).  One untimed import first
    writes the bytecode caches, a cost users pay once."""
    scaled, wall = [], []
    for i in range(SETUP_RUNS + 1):
        before = hostspeed.kernel_s()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        reference = 0.5 * (before + hostspeed.kernel_s())
        if i:
            wall.append(float(done.stdout))
            scaled.append(wall[-1] * hostspeed.NOMINAL_S / reference)
    return statistics.median(scaled), statistics.median(wall)


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def merged(passes) -> Tally:
    """One tally holding every pass's items and calls."""
    total = Tally()
    for p in passes:
        total.attempted += p.attempted
        total.failed += p.failed
        total.wrong += p.wrong
        total.calls.extend(p.calls)
        total.failures.update(p.failures)
    return total


def throughput(tally: Tally, column: int = 1) -> float:
    """Completed items per second of call time; column 1 is scaled time,
    column 0 wall time."""
    busy = sum(call[column] for call in tally.calls)
    return tally.completed / busy if busy > 0 else 0.0


def latencies_ms(tally: Tally, column: int = 1) -> list[float]:
    return [1e3 * call[column] for call in tally.calls if call[2]]


def report_tally(tally: Tally, n_passes: int) -> None:
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"bench: passes={n_passes} attempted={tally.attempted} "
          f"failed={tally.failed} fail_ratio={ratio:.4f} "
          f"wrong_outputs={tally.wrong}")
    for reason, n in sorted(tally.failures.items()):
        print(f"bench: failed x{n}: {reason}")


def end_to_end(workload: str, seed: int, seconds: float, workdir: str):
    """Passes with fresh inputs each, until ``seconds`` have passed."""
    make_inputs, run_pass = WORKLOADS[workload]
    setup_s, setup_wall_s = measure_setup_s()
    started = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - started < seconds:
        passes.append(Tally())
        run_pass(make_inputs(seed, len(passes) - 1), passes[-1], workdir)
    total = merged(passes)
    report_tally(total, len(passes))
    lat, wall_lat = latencies_ms(total), latencies_ms(total, 0)
    print(f"bench: latency over {len(lat)} completed calls; wall-clock "
          f"throughput {throughput(total, 0):.6g} items/s, p50 "
          f"{percentile(wall_lat, 50):.6g} ms, p95 {percentile(wall_lat, 95):.6g}"
          f" ms, setup {setup_wall_s:.6g} s")
    metrics = {
        "throughput": (throughput(total), "items/s"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_p95_ms": (percentile(lat, 95), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return total, metrics


def traced(workload: str, seed: int, seconds: float, workdir: str):
    """Untraced and traced passes of pass 0's inputs alternate, at least two
    of each, until ``seconds`` have passed.  Counts come from the first
    traced pass and must repeat exactly in the others; self times are
    medians over the traced passes, scaled to the nominal host speed."""
    make_inputs, run_pass = WORKLOADS[workload]
    inputs = make_inputs(seed, 0)
    started = time.perf_counter()
    plain, traced_passes, snapshots = [], [], []
    while (len(traced_passes) < 2
           or time.perf_counter() - started < seconds):
        plain.append(Tally())
        run_pass(inputs, plain[-1], workdir)
        with tracer.Tracer() as t:
            traced_passes.append(Tally(checking=t.paused))
            run_pass(inputs, traced_passes[-1], workdir)
        snapshots.append(t.snapshot())
    total = merged(plain + traced_passes)
    report_tally(total, len(plain) + len(traced_passes))

    counts = snapshots[0][0]
    mismatched = [name for name in counts
                  if any(c[name] != counts[name] for c, _ in snapshots[1:])]
    for name in mismatched:
        print(f"bench: count differs between traced passes: {name} "
              f"{[c[name] for c, _ in snapshots]}")
    base = throughput(merged(plain))
    ratio = throughput(merged(traced_passes)) / base if base else 0.0
    print(f"bench: {len(traced_passes)} traced passes; traced/untraced "
          f"throughput = {ratio:.4f}")

    metrics = {name: (value, "count") for name, value in counts.items()}
    for name, (num, den) in tracer.RATIO_METRICS.items():
        print(f"bench: {name} = {counts[num]} / {counts[den]}")
    metrics.update((name, (value, "ratio"))
                   for name, value in tracer.ratios(counts).items())
    # self times are wall times, scaled like the calls that contain them
    calls = merged(traced_passes).calls
    scale = sum(c[1] for c in calls) / sum(c[0] for c in calls) if calls else 1.0
    for name in snapshots[0][1]:
        metrics[name] = (scale * statistics.median(t[name] for _, t in snapshots),
                         "s")
    metrics["trace.throughput_ratio"] = (ratio, "ratio")
    metrics["trace.count_mismatches"] = (len(mismatched), "count")
    return total, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_tipcrit()
    print(f"bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={numpy.__version__}")
    run = traced if args.trace else end_to_end
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        tally, metrics = run(args.workload, args.seed, args.seconds, workdir)
    for name, (value, unit) in metrics.items():
        print(f"bench: {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
