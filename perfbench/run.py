#!/usr/bin/env python3
"""Seeded, closed-loop benchmark of the verlinde package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lines-small --seed 0 --seconds 40 --trace 0

One client runs items one at a time through the package's public API,
first for about a second untimed, then in whole rounds for about
--seconds.  Every answer is checked right after its item, outside the
item's timed interval (see workloads.py).  The last line of stdout is one
JSON object with keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is a summary with every end-to-end metric, the same
metrics in unscaled wall time, the failure fraction, the tail percentile
used and the environment record.

The end-to-end times are scaled to a fixed machine speed: a fixed loop
(probe) is timed before the first item and after each item, and each
item's time is multiplied by PROBE_REF_S over the mean of the two probe
times around it.  Set-up times are scaled the same way.

With --trace 1 the run first times whole rounds untraced for half the
budget, then replays the same rounds with every layer entry point
wrapped (tracer.py); trace.overhead_frac compares the two.  Spans go to
.bench_results/ in the checkout.

The exit code is 0 when every item passed its checks, 1 when any failed,
and 2 when the package cannot be loaded from src/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected_seed0.json"
RESULTS = ROOT / ".bench_results"
DEFAULT_SEED = 0
SETUPS = 15
WARM_S = 1.0

# The probe's time at the reference speed: about its median on the 2-vCPU
# Xeon VM the baseline was measured on.  That VM's speed changes by up to
# half within minutes, and item and probe times move together: over seven
# minutes of jumping-class, the median item of 40 s windows spread by 32%
# (quartile distance over median) unscaled and by 3% scaled.
PROBE_REF_S = 1.6e-3

# Tail percentile per workload, fixed so that it means the same on every
# run: the highest whole percentile with at least ten items beyond it at
# the item count of a 40 s run on a 2-vCPU Xeon VM (40-85, 4000-6000 and
# 91-200 items).  For jumping-class it falls inside the (3,4) pairs, the
# second dearest of a round, whatever the run's round count.
TAIL_PCT = {
    "split-generic": 75,
    "lines-small": 99,
    "jumping-class": 89,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class PackageMissing(Exception):
    pass


def load_package():
    """Import verlinde afresh from the checkout's src/ and return its modules.

    Earlier imports are dropped first, so each call pays the full module
    execution cost and starts with empty caches.
    """
    if not (SRC / "verlinde" / "__init__.py").is_file():
        raise PackageMissing(f"no package at {SRC / 'verlinde'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "verlinde" or k.startswith("verlinde.")]:
        del sys.modules[key]
    pkg = importlib.import_module("verlinde")
    if Path(pkg.__file__).resolve().parent != SRC / "verlinde":
        raise PackageMissing(f"verlinde imported from {pkg.__file__}, not from {SRC}")
    names = ("family", "jumping", "linalg", "pencils", "polynomials", "schubert")
    return argparse.Namespace(**{n: sys.modules[f"verlinde.{n}"] for n in names})


def environment(api):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "python": platform.python_version(),
        "int_backend": "int" if api.linalg.mpz is int else "gmpy2",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "VERLINDE_THREADS": os.environ.get("VERLINDE_THREADS"),
    }


@dataclass
class Result:
    """One item's outcome: its time, what failed, and its output digest."""

    item_id: str
    cell: str
    seconds: float
    problems: list
    digest: str | None


def run_item(api, wl, spec, item_id, want, tracer=None):
    """Time one item, then check its output outside the timed interval
    and against the recorded digest `want`, when there is one."""
    t0 = perf_counter()
    try:
        if tracer is None:
            out = wl.item(api, spec)
        else:
            out = tracer.run_item(item_id, wl.item, api, spec)
    except Exception:  # an item that raises counts as failed; the run goes on
        return Result(item_id, spec.cell, perf_counter() - t0,
                      [traceback.format_exc(limit=4)], None)
    seconds = perf_counter() - t0
    try:
        problems, digest = wl.check(api, spec, out)
    except Exception:  # a check that raises is a failed item too
        return Result(item_id, spec.cell, seconds, [traceback.format_exc(limit=4)], None)
    if want is not None and want != digest:
        problems.append("digest")
    return Result(item_id, spec.cell, seconds, problems, digest)


def probe():
    """Seconds one pass of a fixed loop takes: the machine's current speed,
    for scaling the times measured around it.  Like the package, the loop
    does Fraction arithmetic on growing integers and fills a dict keyed by
    tuples; a loop of small-integer arithmetic alone tracked the package's
    speed less well (8% where this one gives 3%)."""
    t0 = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i * 7919, i + 3)
        table[(i, i * i)] = acc.numerator % 97
    return perf_counter() - t0


def scaled(seconds, probes):
    """Each of `seconds` at the reference speed; probes[k] and probes[k + 1]
    were taken right before and right after seconds[k]."""
    return [t * 2.0 * PROBE_REF_S / (a + b) for t, a, b in zip(seconds, probes, probes[1:])]


def warm_up(api, wl, seed):
    """Run items of round -1, which the timed rounds never draw, for about
    WARM_S, so that the first timed items do not pay the interpreter's
    warm-up.  Their results are checked but not timed into any metric."""
    results = []
    start = perf_counter()
    for i, spec in enumerate(wl.round_specs(seed, -1)):
        results.append(run_item(api, wl, spec, f"warm:{i}", None))
        if perf_counter() - start >= WARM_S:
            break
    return results


def run_rounds(api, wl, seed, expected, seconds=None, rounds=None, tracer=None):
    """Run whole rounds for about `seconds`, or exactly `rounds`.

    Whole rounds keep the cell mix of every run the same, so rates do
    not depend on where the clock stopped.  `expected` holds recorded
    digests by round, or is None.  Returns the item results, the seconds
    each round took, and the probe times taken before the first item and
    after each item.
    """
    results = []
    round_s = []
    probes = [probe()]
    start = perf_counter()
    while True:
        r = len(round_s)
        round_start = perf_counter()
        wants = expected[r] if expected is not None and r < len(expected) else ()
        for i, spec in enumerate(wl.round_specs(seed, r)):
            want = wants[i] if i < len(wants) else None
            results.append(run_item(api, wl, spec, f"{r}:{i}", want, tracer))
            probes.append(probe())
        round_s.append(perf_counter() - round_start)
        elapsed = perf_counter() - start
        if rounds is not None:
            if len(round_s) >= rounds:
                break
        elif elapsed + elapsed / len(round_s) / 2 >= seconds:
            break  # the next round would end more than half a round late
    return results, round_s, probes


def end_to_end(wl, item_s, setup_s):
    """One client in a closed loop: throughput is items over the time spent
    in items, so check, probe and bookkeeping time between items is left
    out.  `item_s` are the item times and `setup_s` the set-up time."""
    times_ms = [t * 1e3 for t in item_s]
    return {
        "setup_s": setup_s,
        "items_per_s": len(times_ms) / (sum(times_ms) / 1e3),
        "item_p50_ms": statistics.median(times_ms),
        "item_tail_ms": statistics.quantiles(times_ms, n=100, method="inclusive")[
            TAIL_PCT[wl.name] - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help=f"write this run's digests as the expected ones (seed {DEFAULT_SEED} only)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.record and args.seed != DEFAULT_SEED:
        ap.error(f"--record needs --seed {DEFAULT_SEED}")

    setup_times = []
    setup_probes = [probe()]
    try:
        for _ in range(SETUPS):
            gc.collect()  # the modules dropped by the last set-up are garbage
            t0 = perf_counter()
            api = load_package()
            wl.warm(api)
            setup_times.append(perf_counter() - t0)
            setup_probes.append(probe())
    except (PackageMissing, ImportError) as exc:
        print(f"perfbench: cannot load the package: {exc}", file=sys.stderr)
        return 2

    expected = None
    if args.seed == DEFAULT_SEED and not args.record:
        expected = json.loads(EXPECTED.read_text())[wl.name]

    warm = warm_up(api, wl, args.seed)
    if args.trace:
        results, round_s, probes = run_rounds(api, wl, args.seed, expected,
                                              seconds=args.seconds / 2)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced, traced_round_s, traced_probes = run_rounds(
                api, wl, args.seed, expected, rounds=len(round_s), tracer=tr)
        finally:
            tr.uninstall()
        metrics = tracing.layer_metrics(tr, len(traced),
                                        sum(traced_round_s) - sum(traced_probes[1:]))
        # both halves at the reference speed, so the machine's drift between
        # them does not read as tracing overhead
        metrics["trace.overhead_frac"] = (
            sum(scaled([r.seconds for r in traced], traced_probes))
            / sum(scaled([r.seconds for r in results], probes)) - 1.0)
        RESULTS.mkdir(exist_ok=True)
        tr.write(RESULTS / f"spans-{wl.name}-seed{args.seed}.jsonl")
        all_results = warm + results + traced
    else:
        results, round_s, probes = run_rounds(api, wl, args.seed, expected,
                                              seconds=args.seconds)
        all_results = warm + results

    failures = [{"item": r.item_id, "cell": r.cell, "problems": r.problems}
                for r in all_results if r.problems]
    if args.record:
        recorded = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        per_round = len(wl.round_specs(args.seed, 0))
        digests = [r.digest for r in results]
        recorded[wl.name] = [digests[i:i + per_round] for i in range(0, len(digests), per_round)]
        EXPECTED.write_text(json.dumps(recorded, separators=(",", ":"), sort_keys=True) + "\n")

    item_s = [r.seconds for r in results]
    e2e = end_to_end(wl, scaled(item_s, probes),
                     statistics.median(scaled(setup_times, setup_probes)))
    wall = end_to_end(wl, item_s, statistics.median(setup_times))
    attempted = len(all_results)
    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(round_s),
        "round_s": round_s,
        "items": len(results),
        "warm_items": len(warm),
        "item_tail_pct": TAIL_PCT[wl.name],
        "items_beyond_tail": sum(1 for r in results if r.seconds * 1e3 > wall["item_tail_ms"]),
        "failed_frac": len(failures) / attempted,
        "digests_checked": 0 if expected is None else sum(
            len(ds) for ds in expected[:len(round_s)]) * (2 if args.trace else 1),
        "setup_samples_s": setup_times,
        "probe_median_s": statistics.median(probes),
        "setup_probe_median_s": statistics.median(setup_probes),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "wall_metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in wall.items()},
        "env": environment(api),
    }
    for f in failures[:20]:
        print(json.dumps(f), file=sys.stderr)
    print(json.dumps(summary))
    if args.trace:
        out = {k: {"value": v, "unit": tracing.unit(k)} for k, v in metrics.items()}
    else:
        out = summary["metrics"]
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
