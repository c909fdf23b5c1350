"""Benchmark for the richwords package.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` records spans around every public call and prints the
per-layer metrics instead. Every output is checked against the independent
references in ``oracle.py``. Human-readable report lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record goes to
``perfbench/out/``. See ``perfbench/README.md`` for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
GATED = ("setup_s", "items_per_s", "item_p50_ms", "item_p90_ms", "decided_frac", "peak_rss_mb")
CALIBRATION_S = 1.5


def _quantile(sorted_values, p: float):
    """Nearest-rank quantile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(round(p * len(sorted_values) + 0.5)) - 1))
    return sorted_values[k]


def _hist_quantile(hist: dict, p: float):
    total = sum(hist.values())
    rank = max(1, int(round(p * total + 0.5)))
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= rank:
            return value
    raise ValueError("empty histogram")


class Loop:
    """Passes over the pool, at least one, until the time is up.

    Each item's time is divided by the speed factor measured around it (see
    ``speed.py``); streaming workloads get the same for the gap before every
    word. Every later run of an input must reproduce its first output.
    """

    def __init__(self, wl, L, pool, seconds, speed, tracer=None):
        n = len(pool)
        self.outputs = [None] * n
        self.runs = [0] * n
        self.scaled: list[float] = []  # ns per item at nominal speed
        self.gaps = Gaps(speed) if wl.streams else None
        self.repeats_differing = 0
        i = 0
        start = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        # A streaming workload ends on a whole pass, so that its runs weigh
        # the same in every run of the benchmark.
        while i < n or perf_counter_ns() < deadline or (wl.streams and i % n):
            k = i % n
            if tracer is not None:
                tracer.item = i
            since = speed.tick()
            t0 = perf_counter_ns()
            out = wl.run(L, pool[k], self.gaps)
            t1 = perf_counter_ns()
            speed.tick()
            if tracer is not None:
                tracer.item_span(t0, t1)
            self.scaled.append((t1 - t0) / speed.since(since))
            if i < n:
                self.outputs[k] = out
            elif out != self.outputs[k]:
                self.repeats_differing += 1
            self.runs[k] += 1
            i += 1
        self.wall_ns = perf_counter_ns() - start
        self.items = i


class Gaps:
    """Histogram of the ns between consecutive words at nominal speed."""

    def __init__(self, speed):
        self.speed = speed
        self.scaled: dict[int, int] = {}


def _load():
    return list(os.getloadavg())


def _commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setup(wl_cls, seed, smoke, L, speed):
    """Build the workload and its pool, verify the inputs, warm up; returns
    the time at nominal speed."""
    speed.measure()
    since = speed.tick()
    t0 = perf_counter()
    wl = wl_cls()
    pool = wl.build(seed, smoke)
    for item in wl.warmup(pool):
        wl.run(L, item)
    elapsed = perf_counter() - t0
    speed.measure()
    return elapsed / speed.since(since), wl, pool


def _check(wl, pool, loop):
    verdicts = [wl.check(item, out) for item, out in zip(pool, loop.outputs)]
    counts: dict[str, int] = {}
    for v in verdicts:
        for key, value in v.counts.items():
            counts[key] = counts.get(key, 0) + value
    return verdicts, counts


def _units(wl, loop, verdicts):
    """(attempted, failed) in the workload's own items: emitted words for
    enumerate, one input otherwise; every run counts."""
    per = [v.counts["words"] if wl.streams else 1 for v in verdicts]
    attempted = sum(k * w for k, w in zip(loop.runs, per))
    failed = sum(k * w for k, w, v in zip(loop.runs, per, verdicts) if v.failed)
    return attempted, failed + loop.repeats_differing


def end_to_end(wl, pool, loop, verdicts, setup_s):
    """Rows (name, value, unit, samples): the gated metrics, times at nominal
    speed, then the report-only ones."""
    n = len(pool)
    attempted, failed = _units(wl, loop, verdicts)
    if wl.streams:
        samples = sum(loop.gaps.scaled.values())
        p50, p90 = (_hist_quantile(loop.gaps.scaled, p) / 1e6 for p in (0.5, 0.9))
    else:
        samples = len(loop.scaled)
        p50, p90 = (_quantile(sorted(loop.scaled), p) / 1e6 for p in (0.5, 0.9))
    residual_items = sum(1 for v in verdicts if v.residuals and not v.failed)
    failed_items = sum(1 for v in verdicts if v.failed)
    return [
        ("setup_s", setup_s, "s", SETUP_REPEATS),
        ("items_per_s", attempted / (sum(loop.scaled) / 1e9), "1/s", attempted),
        ("item_p50_ms", p50, "ms", samples),
        ("item_p90_ms", p90, "ms", samples),
        ("decided_frac", sum(v.decided for v in verdicts) / n, "frac", n),
        ("peak_rss_mb", _peak_rss_mb(), "MB", 1),
        ("failed_frac", (failed_items + residual_items) / n, "frac", n),
        ("raw.items_per_s", attempted / (loop.wall_ns / 1e9), "1/s", attempted),
    ], attempted, failed


def per_layer(main, comp, loop_wall_ns, probes, residuals, factor):
    """Per-layer metrics from the main workload's spans, falling back to the
    mini-runs of the other workloads for entry points it never calls. Times
    and rates are brought to nominal speed with the run's median ``factor``."""
    from spans import MODULES

    rows = []

    def agg(name):
        return main if main.calls.get(name) else comp

    def per_call(metric, name):
        a = agg(name)
        calls = a.calls.get(name, 0)
        rows.append((metric, a.busy.get(name, 0) / 1e3 / max(calls, 1), "us", calls))

    def frac(metric, name, test):
        a = agg(name)
        extras = a.extras.get(name, [])
        rows.append((metric, sum(1 for e in extras if test(e)) / max(len(extras), 1), "frac", len(extras)))

    a = agg("words.word")
    letters = sum(a.extras.get("words.word", []))
    rows.append(("words.word.ns_per_letter", a.busy.get("words.word", 0) / max(letters, 1), "ns", letters))
    per_call("palindromes.is_rich.us_per_call", "palindromes.is_rich")
    rows.append(("palindromes.PalIndex.append_pop.ns_per_letter", *probes["replay"][:1], "ns", probes["replay"][1]))
    per_call("extensions.std_ext.us_per_call", "extensions.std_ext")
    per_call("extensions.rich_extensions.us_per_call", "extensions.rich_extensions")
    per_call("reduction.flexed_palindromes.us_per_call", "reduction.flexed_palindromes")
    per_call("reduction.check_reducible.us_per_call", "reduction.check_reducible")
    frac("reduction.check_reducible.accept_frac", "reduction.check_reducible", lambda e: e == 1)
    for case in ("return", "closure"):
        ns, calls = (main if case in main.case_busy else comp).case_busy.get(case, (0, 0))
        rows.append((f"reduction.reduced_word.{case}.us_per_call", ns / 1e3 / max(calls, 1), "us", calls))
        rows.append((f"reduction.reduced_word.{case}.count", calls, "count", calls))
    per_call("eliminate.shortest_marked_factor.us_per_call", "eliminate.shortest_marked_factor")
    frac("eliminate.shortest_marked_factor.undefined_frac", "eliminate.shortest_marked_factor",
         lambda e: e == "raised")
    per_call("eliminate.eliminate.us_per_call", "eliminate.eliminate")
    a = agg("eliminate.eliminate")
    passes = a.extras.get("eliminate.eliminate", [])
    calls = len(passes)
    rows.append(("eliminate.eliminate.passes", sum(passes) / max(calls, 1), "count", calls))
    rows.append(("eliminate.eliminate.us_per_pass",
                 a.busy.get("eliminate.eliminate", 0) / 1e3 / max(sum(passes), 1), "us", sum(passes)))
    trim = "eliminate.shortest_marked_factor"
    rows.append((f"{trim}.busy_frac", main.busy.get(trim, 0) / loop_wall_ns, "frac",
                 main.calls.get(trim, 0)))
    rows.append(("eliminate.residual_flexed.count", residuals, "count", 1))
    per_call("bounds.superword_length_bound.us_per_call", "bounds.superword_length_bound")
    a = agg("search.enumerate_rich")
    streams = a.extras.get("search.enumerate_rich", [])
    words = sum(w for w, _ in streams)
    rows.append(("search.enumerate_rich.words_per_s",
                 words / max(sum(ns for _, ns in streams), 1) * 1e9, "1/s", words))
    rows.append(("search.enumerate_rich.workers2.speedup", probes["workers2"][0], "x", probes["workers2"][1]))
    a = agg("search.find_common_superword")
    nodes = a.extras.get("search.find_common_superword", [])
    busy = a.busy.get("search.find_common_superword", 0)
    rows.append(("search.find_common_superword.nodes", sum(nodes) / max(len(nodes), 1), "count", len(nodes)))
    rows.append(("search.find_common_superword.nodes_per_s", sum(nodes) / max(busy, 1) * 1e9, "1/s", sum(nodes)))
    rows.append(("search.find_common_superword.us_per_query", busy / 1e3 / max(len(nodes), 1), "us", len(nodes)))
    per_call("search.pal_complexity_profile.us_per_call", "search.pal_complexity_profile")
    rows.append(("cli.cold_start_ms", probes["cold_start"][0], "ms", probes["cold_start"][1]))
    rows.append(("cli.check_file.words_per_s", probes["check_file"][0], "1/s", probes["check_file"][1]))
    busy_total = 0
    for module in MODULES:
        ns = main.module_busy(module)
        busy_total += ns
        rows.append((f"{module}.busy_frac", ns / loop_wall_ns, "frac", main.module_calls(module)))
    rows.append(("bench.self_frac", (loop_wall_ns - busy_total) / loop_wall_ns, "frac", 1))
    rows.append(("trace.overhead_frac", probes["overhead"][0], "frac", probes["overhead"][1]))
    scale = {"ns": 1 / factor, "us": 1 / factor, "ms": 1 / factor, "1/s": factor}
    return [(name, value * scale.get(unit, 1), unit, n) for name, value, unit, n in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="richwords benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "richwords", "__init__.py")):
        print(f"error: no src/richwords under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    load_before = _load()
    from speed import Speed

    speed = Speed()
    since = speed.tick()
    t0 = perf_counter()
    import richwords  # noqa: F401  (timed: import is part of set-up)

    import_s = perf_counter() - t0
    speed.measure()
    import_s /= speed.since(since)
    import spans
    from workloads import WORKLOADS, sha256

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl_cls = WORKLOADS[args.workload]
    plain = spans.facade(None)

    setups, pool = [], None
    for _ in range(SETUP_REPEATS):
        elapsed, wl, built = _setup(wl_cls, args.seed, args.smoke, plain, speed)
        if pool is not None and built != pool:
            raise RuntimeError("the same seed built different inputs")
        setups.append(elapsed)
        pool = built
    setup_s = import_s + statistics.median(setups)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_before": load_before,
        "commit": _commit(root),
        "pool": len(pool),
        "inputs_sha256": sha256(pool),
    }

    if args.trace == 0:
        loop = Loop(wl, plain, pool, args.seconds, speed)
        verdicts, counts = _check(wl, pool, loop)
        rows, attempted, failed = end_to_end(wl, pool, loop, verdicts, setup_s)
        gated = set(GATED)
    else:
        tracer = spans.Tracer()
        traced = spans.facade(tracer)
        overhead = _calibrate(wl, pool, plain, traced, speed, args.smoke)
        tracer.spans.clear()
        first_factor = len(speed.factors)
        loop = Loop(wl, traced, pool, args.seconds, speed, tracer)
        main_agg = spans.Aggregate(tracer.spans)
        verdicts, counts = _check(wl, pool, loop)
        attempted, failed = _units(wl, loop, verdicts)
        comp_tracer = spans.Tracer()
        comp_traced = spans.facade(comp_tracer)
        for name, other in WORKLOADS.items():
            if name == wl.name:
                continue
            o = other()
            opool = o.build(args.seed, True)
            oloop = Loop(o, comp_traced, opool, 0, speed, comp_tracer)
            attempted += oloop.items
            failed += sum(o.check(item, out).failed for item, out in zip(opool, oloop.outputs))
        comp_agg = spans.Aggregate(comp_tracer.spans)
        import probes

        words = wl.words(pool, loop.outputs)
        probe_values = {
            "overhead": overhead,
            "replay": probes.replay(words),
            "check_file": probes.check_file(
                words, os.path.join(out_dir, f"check-{wl.name}-{args.seed}.txt")),
            "cold_start": probes.cold_start(root, words[0][0]),
            "workers2": probes.workers2(
                WORKLOADS["enumerate"]().reference, 12 if args.smoke else 18),
        }
        speed.measure()
        scale = statistics.median(speed.factors[first_factor:])
        record["speed_factor"] = scale
        rows = per_layer(main_agg, comp_agg, loop.wall_ns, probe_values,
                         counts.get("residuals", 0), scale)
        gated = {name for name, *_ in rows}
        tracer.write(os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.tsv.gz"))
        record["spans"] = len(tracer.spans)

    record.update({
        "outputs_sha256": sha256(loop.outputs),
        "exact_counts": counts,
        "items_run": loop.items,
        "repeats_differing": loop.repeats_differing,
        "failed_notes": sorted({n for v in verdicts for n in v.notes})[:20],
        "metrics": {name: {"value": value, "unit": unit, "samples": n} for name, value, unit, n in rows},
        "load_after": _load(),
    })
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {record['pool']} inputs, "
          f"{loop.items} items run, python {record['python']}, nproc {record['nproc']}")
    print(f"why: {wl.why}")
    print(f"inputs_sha256 {record['inputs_sha256']}")
    print(f"outputs_sha256 {record['outputs_sha256']}")
    print("exact counts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    for name, value, unit, n in rows:
        print(f"  {name:<52} {value:>16.6f} {unit:<6} n={n}")
    for note in record["failed_notes"]:
        print(f"  check failed: {note}")
    path = os.path.join(out_dir, f"record-{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows if name in gated},
    }
    print(json.dumps(result))
    return 0


def _calibrate(wl, pool, plain, traced, speed, smoke):
    """Share of extra time the spans add: the same items run untraced and
    traced, twice over, each block at nominal speed."""
    calib = wl.calibration(pool)
    if calib is None:
        calib, start = [], perf_counter()
        for item in pool:
            wl.run(plain, item)
            calib.append(item)
            if perf_counter() - start > (0.2 if smoke else CALIBRATION_S):
                break
    times = {id(plain): 0.0, id(traced): 0.0}
    for _ in range(2):
        for facade in (plain, traced):
            since = speed.tick()
            start = perf_counter_ns()
            for item in calib:
                wl.run(facade, item)
                speed.tick()
            elapsed = perf_counter_ns() - start
            speed.measure()
            times[id(facade)] += elapsed / speed.since(since)
    return times[id(traced)] / times[id(plain)] - 1, len(calib)


if __name__ == "__main__":
    sys.exit(main())
