"""Rebuild perfbench/reference.json, the exact expected answers.

    python3 perfbench/make_reference.py

Runs every job once, for the default seed and the
held-out seed, and stores each job's exact answer: incidence counts,
rich-line counts per t, cover digests, region point ids and certified
lambdas.  Answers that do not depend on the seed (the grid jobs) go to
"any_seed".  It writes nothing if any job fails its invariants, so run
it only on a commit whose answers are trusted.
"""

from __future__ import annotations

import importlib
import json
import sys

from harness import NullTracer, run_round
from run import REFERENCE, SRC, WORKLOADS

DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def answers_for(mod, seed: int):
    seeded, shared = {}, {}
    jobs = mod.make_jobs(seed)
    rr = run_round(jobs, NullTracer(), None)
    for job in jobs:
        answer = rr.answers.get(job.ref)
        if answer is not None:
            (seeded if job.ref == job.key else shared)[job.ref] = answer
    return seeded, shared, rr.failures


def main() -> int:
    sys.path.insert(0, SRC)
    table = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for name in WORKLOADS:
        mod = importlib.import_module("wl_" + name)
        entry = {"any_seed": {}, "seeds": {}}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            seeded, shared, failures = answers_for(mod, seed)
            if failures:
                print("%s seed %d: %d jobs failed, nothing written" % (name, seed, len(failures)))
                for msg in failures[:10]:
                    print("  " + msg)
                return 1
            for key, ans in shared.items():
                if entry["any_seed"].setdefault(key, ans) != ans:
                    print("%s: seed-independent answer %s differs between seeds" % (name, key))
                    return 1
            entry["seeds"][str(seed)] = seeded
            print("%s seed %d: %d answers" % (name, seed, len(seeded)))
        table["workloads"][name] = entry
    with open(REFERENCE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
