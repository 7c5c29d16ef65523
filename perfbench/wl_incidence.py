"""Workload `incidence`: the `verify --system`, `rich` and `beck` traffic.

Two job classes exercise the exact kernel in two different ways:

* dyadic jobs (about 80% of a round) count the incidences of a random
  system with dyadic coordinates through both engines, the line sweep
  `count_naive` and the slope-keyed `count_indexed`, whose counts must
  agree.  Nearly every line has its own slope, so `count_indexed`
  evaluates about n*e keys on the Fraction path.  They set job_p50_ms.
* grid jobs (about 20%) take a seeded integral affine image of the
  tight grid gen_erdos(k) and enumerate its rich lines at several t
  (pair enumeration over few slopes, integer coordinates), plus a
  `count_naive` sweep of the grid lines.  They set job_p90_ms.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Tuple

from stlab.exact import ComplexLine, ComplexPoint, GaussianRational, incident, line_through
from stlab.incidence import count_indexed, count_naive, rich_lines

from harness import Job, batch, interleave, key_eval, microsample

GR = GaussianRational

# (n, e) of the dyadic jobs of one round, and (k, t values) of its grid jobs
FULL = {
    "dyadic": [(30, 30), (40, 50), (50, 40), (60, 60), (45, 75), (75, 45),
               (70, 70), (35, 90), (90, 35), (55, 65), (65, 55)] * 3,
    "grid": [(3, (2, 3))] * 7 + [(4, (3,))],
}
TINY = {"dyadic": [(6, 6), (8, 5)], "grid": [(2, (2,)), (3, (3,))]}


def _dyadic(rng: random.Random, span: int, counter: int) -> Fraction:
    # distinct odd numerators keep every generated coordinate distinct
    return Fraction(rng.randint(-span, span) * 2**20 + 2 * counter + 1, 2**20)


def dyadic_system(n: int, e: int, rng: random.Random):
    """Random points; half the lines through a point pair, the rest free
    (one in ten of those vertical)."""
    span = 3 * max(n, e, 4)
    counter = 0
    points = []
    for _ in range(n):
        c = [_dyadic(rng, span, counter + i) for i in range(4)]
        counter += 4
        points.append(ComplexPoint(GR(c[0], c[1]), GR(c[2], c[3])))
    lines, seen = [], set()
    while len(lines) < e:
        if rng.random() < 0.5:
            p, q = rng.sample(points, 2)
            if p.z1 == q.z1:
                cand = ComplexLine.vertical(p.z1)
            else:
                a = (q.z2 - p.z2) / (q.z1 - p.z1)
                cand = ComplexLine.slanted(a, p.z2 - a * p.z1)
        elif rng.random() < 0.1:
            cand = ComplexLine.vertical(GR(_dyadic(rng, span, counter), _dyadic(rng, span, counter + 1)))
            counter += 2
        else:
            c = [_dyadic(rng, span, counter + i) for i in range(4)]
            counter += 4
            cand = ComplexLine.slanted(GR(c[0], c[1]), GR(c[2], c[3]))
        if cand not in seen:
            seen.add(cand)
            lines.append(cand)
    return points, lines


_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _mul(x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _add(*xs: Tuple[int, int]) -> Tuple[int, int]:
    return (sum(x[0] for x in xs), sum(x[1] for x in xs))


def grid_image(k: int, rng: random.Random):
    """gen_erdos(k) under a seeded integral affine map of C^2.

    (z1, z2) -> (u z1 + s, v z2 + w z1 + c) with units u, v and Gaussian
    integers w, s, c sends lines to lines and keeps coordinates
    integral, so every incidence and rich-line count of the grid is
    preserved.  Gaussian integers are (re, im) int pairs here.
    """
    u, v = rng.choice(_UNITS), rng.choice(_UNITS)
    w, s, c = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)]
    points = [
        ComplexPoint(GR(*_add(_mul(u, (i, 0)), s)), GR(*_add(_mul(v, (j, 0)), _mul(w, (i, 0)), c)))
        for i in range(1, k + 1)
        for j in range(1, 2 * k * k + 1)
    ]
    rng.shuffle(points)
    u_inv = (u[0], -u[1])  # units are inverted by conjugation
    lines = []
    for m in range(1, k + 1):
        # y = m x + b maps to y' = a' x' + b' with a' = (v m + w) / u
        a2 = _mul(_add(_mul(v, (m, 0)), w), u_inv)
        a2s = _mul(a2, s)
        for b in range(1, k * k + 1):
            b2 = _add(_mul(v, (b, 0)), c, (-a2s[0], -a2s[1]))
            lines.append(ComplexLine.slanted(GR(*a2), GR(*b2)))
    return points, lines


def rich_counts_by_bucketing(k: int) -> Dict[int, int]:
    """Lines with exactly j points of gen_erdos(k), by per-point slope
    bucketing in integer arithmetic (independent of stlab's rich_lines).

    A line with j points shows up at each of its points with j-1
    partners, so (entries with count j-1) / j is the number of lines.
    """
    pts = [(i, j) for i in range(1, k + 1) for j in range(1, 2 * k * k + 1)]
    entries: Dict[int, int] = {}
    for x0, y0 in pts:
        buckets: Dict[Tuple[int, int], int] = {}
        for x1, y1 in pts:
            if (x1, y1) == (x0, y0):
                continue
            dx, dy = x1 - x0, y1 - y0
            if dx == 0:
                key = (0, 1)
            else:
                g = math.gcd(dx, dy)
                dx, dy = dx // g, dy // g
                key = (dx, dy) if dx > 0 else (-dx, -dy)
            buckets[key] = buckets.get(key, 0) + 1
        for cnt in buckets.values():
            entries[cnt + 1] = entries.get(cnt + 1, 0) + 1
    return {j: c // j for j, c in entries.items()}


def _distinct_slopes(lines) -> int:
    slopes = {l.a for l in lines if not l.is_vertical}
    return len(slopes) + (1 if any(l.is_vertical for l in lines) else 0)


def _dyadic_job(key: str, points, lines) -> Job:
    def run(tr):
        return (
            tr.call("incidence.count_naive", count_naive, points, lines),
            tr.call("incidence.count_indexed", count_indexed, points, lines),
        )

    def judge(raw):
        naive, indexed = raw
        problems = [] if naive == indexed else ["naive %d != indexed %d" % (naive, indexed)]
        n = len(points)
        counts = {
            "incidence.pairs_swept": n * len(lines),
            "incidence.key_evals": n * _distinct_slopes(lines),
        }
        return indexed, problems, counts

    return Job(key, "dyadic", run, judge, inputs=(points, lines))


def _grid_job(key: str, k: int, ts, points, lines, lines_by_size: Dict[int, int]) -> Job:
    def run(tr):
        rich = [tr.call("incidence.rich_lines", rich_lines, points, t) for t in ts]
        return rich, tr.call("incidence.count_naive", count_naive, points, lines)

    def judge(raw):
        rich, naive = raw
        problems = []
        if naive != k**4:
            problems.append("I=%d, expected k^4=%d" % (naive, k**4))
        answer = {}
        for t, found in zip(ts, rich):
            expected = sum(c for j, c in lines_by_size.items() if j >= t)
            if len(found) != expected:
                problems.append("t=%d: %d rich lines, bucketing finds %d" % (t, len(found), expected))
            if any(r.count < t for r in found):
                problems.append("t=%d: a reported line has fewer than t points" % t)
            answer["t%d" % t] = len(found)
        n = len(points)
        distinct = sum(lines_by_size.values())
        counts = {
            "incidence.pairs_swept": n * len(lines),
            "incidence.rich_pairs": len(ts) * n * (n - 1) // 2,
            "incidence.rich_distinct": len(ts) * distinct,
        }
        return answer, problems, counts

    return Job(key, "grid", run, judge, inputs=(points, lines))


def make_jobs(seed: int, tiny: bool = False) -> List[Job]:
    sizes = TINY if tiny else FULL
    buckets = {k: rich_counts_by_bucketing(k) for k in {k for k, _ in sizes["grid"]}}
    rng = random.Random("incidence:%d" % seed)
    dyadic = [
        _dyadic_job("dyadic.%02d" % i, *dyadic_system(n, e, rng))
        for i, (n, e) in enumerate(sizes["dyadic"])
    ]
    grid = []
    for i, (k, ts) in enumerate(sizes["grid"]):
        pts, lines = grid_image(k, rng)
        # rich-line counts do not depend on the seeded map, so grid
        # references are shared by every seed
        job = _grid_job("grid.%02d" % i, k, ts, pts, lines, buckets[k])
        job.ref = "grid.k%d.t%s" % (k, "-".join(map(str, ts)))
        grid.append(job)
    return interleave(dyadic, grid)



def microsamples(jobs: List[Job]) -> Dict[str, float]:
    """Per-call exact-kernel costs on this workload's own operands."""
    systems = [j.inputs for j in jobs if j.kind == "dyadic"][:6]
    grid = next(j.inputs for j in jobs if j.kind == "grid")
    on_line = [(p, l) for pts, lines in systems for p in pts[:30] for l in lines[:10]]
    keyed = [(p, l.a) for pts, lines in systems for p in pts[:30] for l in lines[:10] if not l.is_vertical]
    gpts = grid[0]
    pairs = [(gpts[i], gpts[j]) for i in range(len(gpts)) for j in range(i + 1, len(gpts))][:2000]
    return {
        "exact.incident_us": microsample(batch(incident, on_line)),
        "exact.key_eval_us": microsample(batch(key_eval, keyed)),
        "exact.line_through_us": microsample(batch(line_through, pairs)),
    }
