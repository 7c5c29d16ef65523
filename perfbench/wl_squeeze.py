"""Workload `squeeze`: the criterion-10 and direction traffic.

The only workload where `directions` and `diagnostics` do the work.
It drives the exact kernel through Moebius division and map
composition with growing denominators, where `incidence` drives it
through subtraction keys.

* balance jobs (about 85% of a round) build a two-cluster system, split
  its lines across the unit circle, classify its points, and bisect the
  squeeze parameter with `balance_lambda`; two `gamma_count` calls then
  certify the result (quota met at lambda, missed one grid step below).
  They set job_p50_ms.
* separate jobs (about 15%) squeeze two jittered direction clusters to
  an antipodal pair with `separate_to_orthogonal`.  They set job_p90_ms.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Sequence

import numpy as np

from stlab.diagnostics import (
    ARC_A1,
    DiagnosticParams,
    SystemView,
    balance_lambda,
    classify_points,
    gamma_count,
    hemisphere_split,
    separate_to_orthogonal,
)
from stlab.directions import (
    DIR_ONE,
    ComplexLinearMap,
    Direction,
    apply_mobius,
    direction_of,
    gamma_arg,
    pi_lambda,
    to_sphere,
    unit_direction_from_angle,
)
from stlab.exact import ComplexLine, ComplexPoint, GaussianRational, incident, line_through

from harness import Job, batch, interleave, key_eval, microsample

GR = GaussianRational
PRECISION = 30  # bisection grid 2^-30, as in acceptance criterion 10
STEP = Fraction(1, 2**PRECISION)

FULL = {"balance": 30, "separate": 5, "cluster": 5}
TINY = {"balance": 2, "separate": 1, "cluster": 2}


def two_cluster_system(g1: Fraction, g2: Fraction, per: int = 3):
    """Points of two clusters, each on three lines of slope near -g."""
    pts, lines = [], []
    for j, g in enumerate((g1, g2)):
        for i in range(per):
            p = ComplexPoint(GR(Fraction(10 * j + i)), GR(Fraction(i - j, 7)))
            pts.append(p)
            for t in range(3):
                a = GR(-g - Fraction(t, 10**6))
                lines.append(ComplexLine.slanted(a, p.z2 - a * p.z1))
    return pts, lines


def _balance_job(key: str, pts, lines, target: int) -> Job:
    def run(tr):
        sys_ = tr.call("diagnostics.build", SystemView.build, pts, lines)
        split = tr.call("diagnostics.hemisphere_split", hemisphere_split, sys_)
        params = DiagnosticParams(sys_.average_point_degree())
        classes = tr.call("diagnostics.classify_points", classify_points, sys_, split[0], split[1], params)
        lam, _ = tr.call("diagnostics.balance_lambda", balance_lambda, sys_, target, DIR_ONE, PRECISION)
        at = tr.call("diagnostics.gamma_count", gamma_count, sys_, ARC_A1, pi_lambda(DIR_ONE, lam))
        below = None
        if lam > 0:
            below = tr.call("diagnostics.gamma_count", gamma_count, sys_, ARC_A1, pi_lambda(DIR_ONE, lam - STEP))
        return sys_, split, classes, lam, at, below

    def judge(raw):
        sys_, (e1, e2, transform), classes, lam, at, below = raw
        problems = []
        if at < target or (below is not None and below >= target):
            problems.append("certificate: %d at lambda, %r one step below, target %d" % (at, below, target))
        if len(e1) != len(lines) // 2 or e1 & e2 or len(e1 | e2) != len(lines):
            problems.append("hemisphere split is not a floor/ceil partition")
        for i in range(len(lines)):
            d = apply_mobius(transform, direction_of(lines[i]))
            m2 = None if d.is_infinite else d.a.abs2()
            if (i in e1 and (m2 is None or m2 > 1)) or (i in e2 and m2 is not None and m2 < 1):
                problems.append("line %d on the wrong side of the unit circle" % i)
                break
        p0, p1, p2 = classes
        if p0 | p1 | p2 != set(range(len(pts))) or len(p0) + len(p1) + len(p2) != len(pts):
            problems.append("classify_points is not a partition")
        answer = {"lambda": "%d/%d" % (lam.numerator, lam.denominator), "at": at, "below": below}
        return answer, problems, {}

    return Job(key, "balance", run, judge, inputs=(pts, lines))


def cluster_stats(dirs: Sequence[Direction], m):
    """Unit mean vector and angular diameter (degrees) of mapped directions."""
    arr = np.array([to_sphere(apply_mobius(m, d)).v for d in dirs])
    center = arr.mean(axis=0)
    center = center / np.linalg.norm(center)
    worst = 0.0
    for a in range(len(arr)):
        for b in range(a + 1, len(arr)):
            worst = max(worst, _angle(arr[a], arr[b]))
    return center, worst


def _angle(u, w) -> float:
    return math.degrees(2 * math.atan2(float(np.linalg.norm(u - w)), float(np.linalg.norm(u + w))))


def jittered_clusters(rng: random.Random, size: int):
    a1 = rng.uniform(-170, 170)
    a2 = a1 + rng.uniform(40, 140)
    base1 = unit_direction_from_angle(a1).a * GR(Fraction(rng.randint(2, 5), 3))
    base2 = unit_direction_from_angle(a2).a * GR(Fraction(rng.randint(2, 5), 4))
    jit = Fraction(1, 2000)
    ks = range(-(size // 2), size - size // 2)
    d1 = [Direction.finite(base1 + GR(jit * k, jit * (k % 2))) for k in ks]
    d2 = [Direction.finite(base2 + GR(jit * k, jit * (k % 2))) for k in ks]
    return d1, d2


def _separate_job(key: str, d1, d2) -> Job:
    def run(tr):
        return tr.call("diagnostics.separate_to_orthogonal", separate_to_orthogonal, d1, d2)

    def judge(m):
        c1, diam1 = cluster_stats(d1, m)
        c2, diam2 = cluster_stats(d2, m)
        problems = []
        if _angle(c1, c2) < 179.0 or diam1 > 1.0 or diam2 > 1.0:
            problems.append("centers %.4f deg apart, diameters %.4f, %.4f" % (_angle(c1, c2), diam1, diam2))
        # the map depends on float tuning steps, so only its invariants are checked
        return None, problems, {}

    return Job(key, "separate", run, judge, inputs=(d1, d2))


def make_jobs(seed: int, tiny: bool = False) -> List[Job]:
    sizes = TINY if tiny else FULL
    rng = random.Random("squeeze:%d" % seed)
    balance = []
    for i in range(sizes["balance"]):
        g1 = Fraction(rng.randint(10, 55), 100)
        g2 = Fraction(rng.randint(60, 95), 100)
        pts, lines = two_cluster_system(g1, g2)
        balance.append(_balance_job("balance.%02d" % i, pts, lines, rng.choice((3, 4, 6))))
    separate = [_separate_job("separate.%02d" % i, *jittered_clusters(rng, sizes["cluster"]))
                for i in range(sizes["separate"])]
    return interleave(balance, separate)


def microsamples(jobs: List[Job]) -> Dict[str, float]:
    """Per-call kernel and direction costs on this workload's systems and clusters."""
    systems = [j.inputs for j in jobs if j.kind == "balance"]
    on_line = [(p, l) for pts, lines in systems for p in pts for l in lines][:2000]
    keyed = [(p, l.a) for pts, lines in systems for p in pts for l in lines][:2000]
    pairs = [(p, q) for pts, _ in systems for p in pts for q in pts if p != q][:2000]
    # squeezes at bisection midpoints, as balance_lambda builds them
    lams = [Fraction(k, 2**PRECISION) * (2**PRECISION // 97) for k in range(1, 97)]
    maps = [pi_lambda(DIR_ONE, lam) for lam in lams]
    dirs = [direction_of(l) for _, lines in systems[:12] for l in lines]
    moved = [(m, d) for m in maps[:10] for d in dirs][:2000]
    images = [apply_mobius(m, d) for m, d in moved]
    projectable = [(d,) for d in images if not d.is_infinite and not d.a.is_zero()]
    composed = [(maps[i], maps[(i * 5 + 3) % len(maps)]) for i in range(len(maps))]
    return {
        "exact.incident_us": microsample(batch(incident, on_line)),
        "exact.key_eval_us": microsample(batch(key_eval, keyed)),
        "exact.line_through_us": microsample(batch(line_through, pairs)),
        "directions.apply_mobius_us": microsample(batch(apply_mobius, moved)),
        "directions.compose_us": microsample(batch(ComplexLinearMap.compose, composed)),
        "directions.gamma_arg_us": microsample(batch(gamma_arg, projectable)),
    }
