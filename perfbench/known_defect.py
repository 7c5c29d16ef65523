"""Reproduce the covering defect that keeps d = 2 out of the cover workload.

    python3 perfbench/known_defect.py

On the inputs below `run_covering` returns a cover whose shift graph
has in-degree above one, which `verify_cover` rejects.  The first is
the d = 2 input (n = 1400, r = 4) on which a cover run of seed
448085359 failed while d = 2 covering was part of the workload; the
second meets the cube-count precondition r <= n / (4 rho^(2d)) and
fails all the same.  Exits 0 when every cover verifies, 1 otherwise, so
a fix of the program can be checked here before d = 2 inputs return to
the workload.
"""

from __future__ import annotations

import io
import random
import sys

from run import SRC

sys.path.insert(0, SRC)

from stlab import fileio  # noqa: E402
from stlab.covering import normalize_points, run_covering, verify_cover  # noqa: E402

from wl_cover import points_text  # noqa: E402


def refused_run_input() -> str:
    # the covering inputs of that run were drawn in this order; the last is n=1400, d=2
    rng = random.Random("cover:448085359:0")
    for n in (600, 800, 1000, 1200, 1400):
        for d in (1, 2):
            for _ in (1, 2, 4):
                text = points_text(n, d, rng)
    return text


CASES = [
    ("seed 448085359, n=1400 d=2 r=4", refused_run_input, 4),
    ("n=5000 d=2 r=2, precondition met", lambda: points_text(5000, 2, random.Random("sweep:16:5000:2:2")), 2),
]


def main() -> int:
    bad = 0
    for name, make, r in CASES:
        pts, dim = fileio.load_points(io.StringIO(make()))
        norm, _ = normalize_points(pts)
        rep = verify_cover(norm, run_covering(norm, dim, 1, r), 1, r)
        print("%s: K=%d edges=%d max_in_degree=%d precondition_met=%s all_ok=%s"
              % (name, rep.k_count, rep.edges, rep.max_in_degree, rep.precondition_met, rep.all_ok))
        bad += not rep.all_ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
