"""stlab benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload incidence --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program under test is the stlab
source tree at src/stlab; the benchmark calls only its public
functions and checks every exact answer.  The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate traced run reports per-layer self times, work counts,
microsampled per-call costs and the tracing overhead, and writes its
spans to perfbench/out/.  Workloads, metrics and seeds are described
in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys

from harness import (
    MIN_ROUNDS,
    NullTracer,
    SpanTracer,
    clock,
    environment,
    host_speed,
    p90,
    peak_rss_mb,
    run_round,
    should_continue,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("incidence", "cover", "squeeze")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; times are self time per round (s) or per call (us)
PER_LAYER = {
    "exact.incident_us": "us",
    "exact.key_eval_us": "us",
    "exact.line_through_us": "us",
    "exact.flat_intersect_us": "us",
    "directions.apply_mobius_us": "us",
    "directions.compose_us": "us",
    "directions.gamma_arg_us": "us",
    "incidence.count_naive_s": "s",
    "incidence.count_indexed_s": "s",
    "incidence.rich_lines_s": "s",
    "incidence.pairs_swept": "count",
    "incidence.key_evals": "count",
    "incidence.rich_pairs": "count",
    "incidence.rich_distinct": "count",
    "incidence.rich_distinct_ratio": "ratio",
    "covering.normalize_points_s": "s",
    "covering.run_covering_s": "s",
    "covering.verify_cover_s": "s",
    "covering.build_shift_graph_s": "s",
    "covering.phases": "count",
    "covering.cells_processed": "count",
    "covering.selected": "count",
    "covering.green": "count",
    "covering.selected_ratio": "ratio",
    "covering.shift_edges": "count",
    "regions.combine_s": "s",
    "regions.verify_regions_s": "s",
    "regions.cover_k": "count",
    "regions.kept": "count",
    "regions.crossing_tests": "count",
    "fileio.load_points_s": "s",
    "fileio.dump_cover_s": "s",
    "fileio.load_cover_s": "s",
    "fileio.bytes": "count",
    "diagnostics.build_s": "s",
    "diagnostics.hemisphere_split_s": "s",
    "diagnostics.classify_points_s": "s",
    "diagnostics.balance_lambda_s": "s",
    "diagnostics.gamma_count_s": "s",
    "diagnostics.separate_to_orthogonal_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# ratio -> (numerator count, base count)
RATIOS = {
    "incidence.rich_distinct_ratio": ("incidence.rich_distinct", "incidence.rich_pairs"),
    "covering.selected_ratio": ("covering.selected", "covering.green"),
}


def load_reference(workload: str, seed: int) -> dict:
    """Expected answers for this seed plus the seed-independent ones."""
    with open(REFERENCE) as fh:
        table = json.load(fh)
    wl = table["workloads"].get(workload, {})
    ref = dict(wl.get("any_seed", {}))
    ref.update(wl.get("seeds", {}).get(str(seed), {}))
    return ref


def round_time(by_job: dict, which: int) -> float:
    """Seconds of one round: every job at its median over the rounds."""
    return sum(statistics.median(t[which] for t in v) for v in by_job.values()) / 1000.0


def measure(mod, seed: int, seconds: float, trace: bool, reference: dict, import_s: float, tiny: bool = False):
    """Set up, run rounds until the deadline, and reduce to metrics.

    Returns the result dict, the span tracer (None untraced), the
    failure messages and a summary of the run.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        jobs = mod.make_jobs(seed, tiny)
        run_round(mod.make_jobs(seed, tiny=True), NullTracer(), None)  # warm-up
        setups.append(clock() - t0)
    setup_s = import_s + statistics.median(setups)

    plain = NullTracer()
    walls, lat, raw_lat, cals, failures = [], [], [], [], []
    spans = SpanTracer() if trace else None
    overheads, first_counts = [], None
    by_kind, by_job = {}, {}
    done, last = 0, 0.0
    t_start = clock()
    while should_continue(done, 1 if trace else MIN_ROUNDS, clock() - t_start, last, seconds):
        t_pair = clock()
        rr = run_round(jobs, plain, reference)
        walls.append(rr.wall_s)
        speed = host_speed(rr.cals)
        cals += rr.cals
        raw_lat += rr.latencies_ms
        for job, ms in zip(jobs, rr.latencies_ms):
            lat.append(ms * speed)
            by_kind.setdefault(job.kind, []).append(ms * speed)
            by_job.setdefault(job.key, []).append((ms * speed, ms))
        failures += rr.failures
        if trace:
            # the same round again with spans, so traced minus untraced
            # wall time is the tracing overhead on identical inputs
            tr = run_round(jobs, spans, reference)
            traced_speed = host_speed(tr.cals)
            overheads.append(tr.wall_s * traced_speed - rr.wall_s * speed)
            lat += [ms * traced_speed for ms in tr.latencies_ms]
            failures += tr.failures
            if first_counts is None:
                first_counts = tr.counts
        done += 1
        last = clock() - t_pair

    attempted, failed = len(lat), len(failures)
    raw = {"setup_s": setup_s, "wall_s": round_time(by_job, 1),
           "job_p50_ms": statistics.median(raw_lat), "job_p90_ms": p90(raw_lat)}
    if not trace:
        metrics = {
            # set-up runs just before the rounds, at about their speed
            "setup_s": setup_s * host_speed(cals),
            "wall_s": round_time(by_job, 0),
            "job_p50_ms": statistics.median(lat),
            "job_p90_ms": p90(lat),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    else:
        values = {name: 0.0 for name in PER_LAYER}
        for name, total in spans.self_times().items():
            if name + "_s" in values:
                values[name + "_s"] = total / done
        values.update(first_counts)
        for ratio, (num, base) in RATIOS.items():
            values[ratio] = values[num] / values[base] if values[base] else 0.0
        values.update(mod.microsamples(jobs))
        values["trace.overhead_s"] = statistics.median(overheads)
        values["trace.spans"] = len(spans.spans) / done
        metrics = {k: values[k] for k in PER_LAYER}
        units = PER_LAYER
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    cut = p90(lat)
    summary = {
        "rounds": done,
        "jobs": attempted,
        "beyond_p90": sum(1 for x in lat if x > cut),
        "fail_frac": failed / attempted,
        "round_walls_s": walls,
        "raw": raw,  # the times as the clock read them
        "import_s": import_s,
        "setup_reps_s": setups,
        "kinds": {k: {"jobs": len(v), "p50_ms": statistics.median(v), "max_ms": max(v)} for k, v in by_kind.items()},
    }
    return result, spans, failures, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stlab", "__init__.py")):
        print("perfbench: no stlab source tree at %s" % SRC, file=sys.stderr)
        return 2
    # the benchmark measures the default serial path
    workers_set = os.environ.pop("STLAB_WORKERS", None) is not None
    sys.path.insert(0, SRC)

    t0 = clock()
    mod = importlib.import_module("wl_" + args.workload)  # imports numpy and stlab
    import_s = clock() - t0

    env = environment(ROOT, args.seed, workers_set)
    print("env " + json.dumps(env, sort_keys=True))
    reference = load_reference(args.workload, args.seed)
    result, spans, failures, summary = measure(
        mod, args.seed, args.seconds, bool(args.trace), reference, import_s
    )
    for msg in failures[:20]:
        print("FAIL " + msg)
    print("summary " + json.dumps(summary))
    if spans is not None:
        path = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
        spans.dump(path, env)
        print("spans written to " + os.path.relpath(path, ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
