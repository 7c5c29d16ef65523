"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks, for every workload:
* the untraced run reports exactly the end-to-end metrics of
  BENCHMARK.json and the traced run exactly its per-layer metrics, with
  their units, and both pass on clean answers;
* a corrupted reference entry is counted as a failed job (failed >= 1,
  ok_frac < 1) without aborting the run;
and that run.py exits nonzero, printing no result, when the stlab
source tree is missing.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

from harness import NullTracer, run_round
from run import HERE, OUT, ROOT, SRC, WORKLOADS, measure


def check(cond: bool, what: str, errors: list) -> None:
    if not cond:
        errors.append(what)


def main() -> int:
    sys.path.insert(0, SRC)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors: list = []
    for name in WORKLOADS:
        mod = importlib.import_module("wl_" + name)
        for trace in (0, 1):
            result, _, failures, _ = measure(mod, 1, 0.0, bool(trace), {}, 0.0, tiny=True)
            json.dumps(result)  # the printed line must serialize
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want[trace], "%s trace %d: metrics %s" % (name, trace, sorted(set(got) ^ set(want[trace]))), errors)
            check(result["correct"] and not failures, "%s trace %d: clean run failed: %s" % (name, trace, failures[:3]), errors)
            check(result["attempted"] >= 1, "%s: nothing attempted" % name, errors)

        # record clean answers, corrupt one, and expect exactly that job to fail
        jobs = mod.make_jobs(1, tiny=True)
        answers = run_round(jobs, NullTracer(), None).answers
        key = next(k for k, v in answers.items() if v is not None)
        reference = dict(answers)
        reference[key] = {"corrupted": reference[key]}
        result, _, failures, _ = measure(mod, 1, 0.0, False, reference, 0.0, tiny=True)
        ok_frac = result["metrics"]["ok_frac"]["value"]
        check(result["failed"] >= 1 and not result["correct"] and ok_frac < 1.0,
              "%s: corrupted reference entry %s went unnoticed" % (name, key), errors)
        check(all("reference mismatch" in f for f in failures),
              "%s: unexpected failures %s" % (name, failures[:3]), errors)
        print("%s: metrics complete, corrupted entry %s counted as %d failed of %d"
              % (name, key, result["failed"], result["attempted"]))

    # a tree with only the benchmark must fail cleanly
    bare = os.path.join(OUT, "bare-tree")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "incidence", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout, "bare tree: exit %d" % proc.returncode, errors)

    for e in errors:
        print("SELFTEST FAIL " + e)
    print("selftest: %s" % ("ok" if not errors else "%d problems" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
