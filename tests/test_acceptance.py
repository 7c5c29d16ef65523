"""Acceptance gate: every numbered criterion runs at its stated
tolerance and prints one pass/fail line.  Run with `pytest -s` to see
the lines as they complete."""

import itertools
import math
import random
import time
from fractions import Fraction

from _oracles import (
    oracle_cluster_stats,
    oracle_shift_graph,
    random_disjoint_cubes,
    random_rational_points,
)

from stlab.covering import build_shift_graph, normalize_points, run_covering, verify_cover
from stlab.diagnostics import (
    ARC_A1,
    balance_lambda,
    gamma_count,
    separate_to_orthogonal,
    SystemView,
)
from stlab.directions import (
    DIR_INF,
    DIR_ONE,
    DIR_ZERO,
    ComplexLinearMap,
    Direction,
    _angle_deg,
    apply_mobius,
    dist_deg,
    gr_dist_deg,
    pi_lambda,
    tau_hat,
    unit_direction_from_angle,
)
from stlab.exact import ComplexLine, ComplexPoint, GaussianRational, flat_intersect, incident
from stlab.generators import gen_bundle_fixture, gen_erdos, gen_random_system
from stlab.incidence import count_indexed, count_naive, rich_lines, similar_copies, sum_product
from stlab.regions import (
    CombineDetail,
    FlatBundle,
    TooFewPoints,
    canonical_flat,
    combine,
    verify_regions,
)

GR = GaussianRational
F = Fraction


def report(num, ok, detail):
    print("criterion %2d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_01_erdos_tightness():
    start = time.time()
    ok = True
    for k in range(1, 11):
        pts, lines = gen_erdos(k)
        ok &= len(pts) == 2 * k**3 and len(lines) == k**3
        ok &= count_indexed(pts, lines) == k**4
        # per-line point counts by evaluation-key grouping, all exact
        tables = {}
        for l in lines:
            if l.a not in tables:
                tab = {}
                for p in pts:
                    key = p.z2 - l.a * p.z1
                    tab[key] = tab.get(key, 0) + 1
                tables[l.a] = tab
        ok &= all(tables[l.a].get(l.b, 0) == k for l in lines)
    pts, lines = gen_erdos(10)
    ok &= count_naive(pts, lines) == 10**4  # the 2e6-pair brute sweep
    elapsed = time.time() - start
    report(1, ok and elapsed < 30, "I=k^4, n=2k^3, e=k^3 for k=1..10, %.1fs" % elapsed)


def test_criterion_02_engine_equivalence():
    start = time.time()
    rng = random.Random(2024)
    ok = True
    for trial in range(100):
        n = rng.randint(20, 200)
        e = rng.randint(20, 200)
        pts, lines = gen_random_system(n, e, seed=trial)
        ok &= count_naive(pts, lines) == count_indexed(pts, lines)
    elapsed = time.time() - start
    report(2, ok and elapsed < 60, "100 systems, naive == indexed, %.1fs" % elapsed)


def test_criterion_03_rich_line_bound():
    start = time.time()
    pts, _ = gen_erdos(6)
    n = len(pts)
    ok = True
    detail = []
    for t in range(2, 7):
        rich = len(rich_lines(pts, t))
        bound = 8 * (n * n / t**3 + n / t)
        detail.append("t=%d:%d<=%d" % (t, rich, int(bound)))
        ok &= rich <= bound
    elapsed = time.time() - start
    report(3, ok and elapsed < 60, " ".join(detail) + ", %.1fs" % elapsed)


def test_criterion_04_covering_guarantees():
    start = time.time()
    ok = True
    details = []
    cases = [
        (d, n, r, 0)
        for d in (1, 2)
        for n in (10**3, 10**4, 10**5)
        for r in (1, 2, 4)
    ]
    cases += [(2, 10**3, 1, 1), (2, 10**3, 2, 1)]  # two extra seeds
    assert len(cases) == 20
    for d, n, r, seed_shift in cases:
        span = 3 * n if d == 1 else int(3 * n ** (1 / d))
        pts = random_rational_points(n, d, span, seed=n + 13 * r + d + 1000 * seed_shift)
        norm, _ = normalize_points(pts)
        res = run_covering(norm, d, 1, r)
        rep = verify_cover(norm, res, 1, r)
        good = rep.non_overlap_ok and rep.bott_ok and rep.count_ok
        good &= rep.edges_ok and rep.in_degree_ok
        ok &= good
        if not good:
            details.append("FAIL d=%d n=%d r=%d" % (d, n, r))
    # d = 4 smoke run: count precondition is unmet and must be reported so
    pts4 = random_rational_points(10**4, 4, 30, seed=44)
    norm4, _ = normalize_points(pts4)
    res4 = run_covering(norm4, 4, 1, 1)
    rep4 = verify_cover(norm4, res4, 1, 1)
    ok &= not rep4.precondition_met
    ok &= rep4.non_overlap_ok and rep4.bott_ok and rep4.edges_ok and rep4.in_degree_ok
    elapsed = time.time() - start
    report(
        4,
        ok and elapsed < 300,
        "20 covers + d=4 smoke (precondition_met=%s), %.0fs%s"
        % (rep4.precondition_met, elapsed, " " + ";".join(details) if details else ""),
    )


def test_criterion_05_shift_graph_oracle():
    start = time.time()
    ok = True
    count = 0
    for d in (2, 3, 4):
        seeds = 17 if d == 2 else 17 if d == 3 else 16
        for seed in range(seeds):
            rng = random.Random(9000 * d + seed)
            cubes = random_disjoint_cubes(rng, d, rng.randint(2, 12 if d < 4 else 8))
            got = sorted(build_shift_graph(cubes, kappa=1).edges)
            ok &= got == oracle_shift_graph(cubes, 1)
            count += 1
    elapsed = time.time() - start
    report(5, ok and count == 50 and elapsed < 60, "%d cube sets, exact match, %.1fs" % (count, elapsed))


def test_criterion_06_combination_structure():
    start = time.time()
    ok = True
    details = []
    for spread, m, per_point, r in itertools.product(
        (0.0, 5.0), (54, 200), (2, 4), (2, 3)
    ):
        seed = int(spread) * 811 + m * 7 + per_point * 3 + r
        if 27 * r > m:
            # the construction needs 27r anchors per cube; the unmet
            # precondition must be rejected, not fudged
            try:
                anchors, bundle = gen_bundle_fixture(m, per_point, spread, seed)
                combine(anchors, bundle, r)
                ok = False
                details.append("FAIL no-error m=%d r=%d" % (m, r))
            except TooFewPoints:
                pass
            continue
        anchors, bundle = gen_bundle_fixture(m, per_point, spread, seed)
        asg = combine(anchors, bundle, r)
        margin = F(0) if spread == 0 else F(1, 10**9)
        rep = verify_regions(asg, bundle, r, margin)
        good = rep.all_ok and len(asg) >= 1
        ok &= good
        if not good:
            details.append("FAIL m=%d pp=%d s=%s r=%d" % (m, per_point, spread, r))
    elapsed = time.time() - start
    report(6, ok and elapsed < 300, "16 parameter combos, %.0fs%s" % (elapsed, " " + ";".join(details) if details else ""))


def test_criterion_07_thales_and_perturbation():
    start = time.time()
    rng = random.Random(7)
    ok = True
    done = 0
    while done < 100:
        p = tuple(F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(4))
        q = tuple(F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(4))
        if p == q:
            continue
        x = flat_intersect(canonical_flat(p, 0), canonical_flat(q, 1)).point
        y = flat_intersect(canonical_flat(q, 0), canonical_flat(p, 1)).point
        mid = tuple((a + b) / 2 for a, b in zip(p, q))
        d2 = sum((a - b) ** 2 for a, b in zip(p, q))
        for z in (x, y):
            ok &= sum((a - b) ** 2 for a, b in zip(z.as_tuple(), mid)) == d2 / 4
        ok &= tuple(a + b for a, b in zip(x.as_tuple(), y.as_tuple())) == tuple(
            2 * v for v in mid
        )
        done += 1
    checked = 0
    for seed in range(8):
        anchors, bundle = gen_bundle_fixture(m=30, per_point=1, spread_deg=9.9, seed=seed)
        for i in range(0, 28, 2):
            p, q = anchors[i], anchors[i + 1]
            x = flat_intersect(canonical_flat(p, 0), canonical_flat(q, 1)).point
            z = flat_intersect(bundle.family1[i][0], bundle.family2[i + 1][0]).point
            d = math.sqrt(float(sum((a - b) ** 2 for a, b in zip(p, q))))
            dz = math.sqrt(
                float(sum((a - b) ** 2 for a, b in zip(x.as_tuple(), z.as_tuple())))
            )
            ok &= dz <= d / 10 + 1e-9
            checked += 1
    elapsed = time.time() - start
    report(7, ok and checked >= 100 and elapsed < 60,
           "100 exact antipodal fixtures, %d displacement samples, %.1fs" % (checked, elapsed))


def _random_direction(rng):
    if rng.random() < 0.05:
        return DIR_INF
    return Direction.finite(
        GR(F(rng.randint(-40, 40), rng.randint(1, 9)), F(rng.randint(-40, 40), rng.randint(1, 9)))
    )


def test_criterion_08_direction_suite():
    start = time.time()
    ok = abs(dist_deg(DIR_ZERO, DIR_INF) - 180.0) <= 1e-9
    rng = random.Random(88)
    for _ in range(1000):
        a, b, c = (_random_direction(rng) for _ in range(3))
        ok &= abs(dist_deg(a, b) - dist_deg(b, a)) < 1e-9
        ok &= dist_deg(a, c) <= dist_deg(a, b) + dist_deg(b, c) + 1e-9
    minus_one = Direction.finite(GR(-1))
    for k in range(1, 16):
        m = pi_lambda(DIR_ONE, F(k, 16))
        ok &= apply_mobius(m, DIR_ONE) == DIR_ONE
        ok &= apply_mobius(m, minus_one) == minus_one
        a = unit_direction_from_angle(rng.uniform(-179, 179))
        img = apply_mobius(m, a)
        ok &= (not img.is_infinite) and img.a.abs2() == 1
    pairs = 0
    while pairs < 1000:
        d = _random_direction(rng)
        if d.is_infinite:
            continue
        eps = F(rng.randint(1, 60), 10000)
        d2 = Direction.finite(d.a + GR(eps, eps * F(rng.randint(-2, 2), 3)))
        if dist_deg(d, d2) > 1.0:
            continue
        ok &= gr_dist_deg(tau_hat(d), tau_hat(d2)) <= 10.0 + 1e-6
        pairs += 1
    elapsed = time.time() - start
    report(8, ok and elapsed < 60, "metric axioms, squeeze fixpoints, 1->10 containment, %.1fs" % elapsed)


def test_criterion_09_applications():
    start = time.time()
    ok = True
    for n in range(1, 51):
        vals = [GR(F(k)) for k in range(1, n + 1)]
        s, p = sum_product(vals)
        brute_s = len({a + b for a in range(1, n + 1) for b in range(1, n + 1)})
        brute_p = len({a * b for a in range(1, n + 1) for b in range(1, n + 1)})
        ok &= s == 2 * n - 1 == brute_s and p == brute_p
    # no equilateral triangle fits the rational grid: exact identity sweep
    grid = [GR(F(x), F(y)) for x in range(3) for y in range(3)]
    equilateral = sum(
        1
        for a, b, c in itertools.combinations(grid, 3)
        if a * a + b * b + c * c == a * b + b * c + c * a
    )
    ok &= equilateral == 0
    rng = random.Random(99)
    for size in (2, 7, 16, 30):
        ground = []
        seen = set()
        while len(ground) < size:
            z = GR(F(rng.randint(-20, 20)), F(rng.randint(-20, 20)))
            if z not in seen:
                seen.add(z)
                ground.append(z)
        got = similar_copies([GR(F(0)), GR(F(1))], ground)
        brute = sum(1 for _ in itertools.combinations(ground, 2))
        ok &= got == brute == size * (size - 1) // 2
    elapsed = time.time() - start
    report(9, ok and elapsed < 60, "sum/product n<=50, equilateral=0, segment copies, %.1fs" % elapsed)


def _two_cluster_system(g1, g2, per=3):
    pts, lns = [], []
    for j, g in enumerate((g1, g2)):
        for i in range(per):
            p = ComplexPoint(GR(F(10 * j + i)), GR(F(i - j, 7)))
            pts.append(p)
            for t in range(3):
                a = GR(-g - F(t, 10**6))
                lns.append(ComplexLine.slanted(a, p.z2 - a * p.z1))
    return SystemView.build(pts, lns)


def test_criterion_10_separation_diagnostics():
    start = time.time()
    rng = random.Random(1010)
    ok = True
    step = F(1, 2**30)
    for trial in range(20):
        g1 = F(rng.randint(10, 55), 100)
        g2 = F(rng.randint(60, 95), 100)
        sys = _two_cluster_system(g1, g2)
        target = rng.choice((3, 4, 6))
        lam, _ = balance_lambda(sys, target, DIR_ONE, precision=30)
        at = gamma_count(sys, ARC_A1, pi_lambda(DIR_ONE, lam))
        below = gamma_count(sys, ARC_A1, pi_lambda(DIR_ONE, lam - step)) if lam > 0 else None
        ok &= at >= target and (below is None or below < target)
    for trial in range(20):
        a1 = rng.uniform(-170, 170)
        a2 = a1 + rng.uniform(40, 140)
        base1 = unit_direction_from_angle(a1).a * GR(F(rng.randint(2, 5), 3))
        base2 = unit_direction_from_angle(a2).a * GR(F(rng.randint(2, 5), 4))
        jit = F(1, 2000)
        d1 = [Direction.finite(base1 + GR(jit * k, jit * (k % 2))) for k in range(-2, 3)]
        d2 = [Direction.finite(base2 + GR(jit * k, jit * (k % 2))) for k in range(-2, 3)]
        m = separate_to_orthogonal(d1, d2)
        c1, diam1 = oracle_cluster_stats(d1, m)
        c2, diam2 = oracle_cluster_stats(d2, m)
        ok &= _angle_deg(c1, c2) >= 179.0 and diam1 <= 1.0 and diam2 <= 1.0
    elapsed = time.time() - start
    report(10, ok and elapsed < 60, "20 bisection certificates, 20 squeezes, %.1fs" % elapsed)
