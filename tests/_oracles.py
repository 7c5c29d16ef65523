"""Brute-force reference implementations shared by the test modules.

These deliberately avoid the production code paths: the shift-graph
oracle decides the corridor condition by exhaustive rational box
subdivision, independently of the sweep in the library, and the
cluster oracle maps directions by ``oracle_mobius``, GaussianRational
arithmetic independent both of the float search in
``separate_to_orthogonal`` and of the integer route of ``apply_mobius``.
The principal-angle and cover-gap oracles are the numpy routes that the
library's plain-float closed forms replaced.
Hand-built fixtures that more than one module checks live here too.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from stlab.covering import FreeCube, boxes_overlap_interior
from stlab.directions import DIR_INF, Direction, _angle_deg, to_sphere
from stlab.regions import crossing_points

F = Fraction


def shift_cube(q):
    """q translated by -(side/10) along the first axis."""
    return FreeCube((q.corner[0] - q.side / 10,) + q.corner[1:], q.side)


def apply_point(amap, p):
    """The image of point p under the signed permutation amap, in Fractions."""
    return tuple(amap.signs[i] * F(p[amap.perm[i]]) for i in range(len(amap.perm)))


def count_crossings(f1s, f2s):
    """Number of pairs of flats meeting in exactly one point, exact."""
    return len(crossing_points(f1s, f2s))


def point_in_box_closed(p, box):
    return all(lo <= x <= hi for x, (lo, hi) in zip(p, box))


def oracle_bott(q, kappa):
    """The bottom kappa-side-cube of q in Fractions: side/(2 kappa + 1),
    on the face x0 = corner[0], centred laterally."""
    h = q.side / (2 * kappa + 1)
    return FreeCube((q.corner[0],) + tuple(c + (q.side - h) / 2 for c in q.corner[1:]), h)


def oracle_corridor_open(base, blockers):
    """Exhaustive subtraction: refine the base box by every blocker
    boundary and test one representative per refinement cell."""
    if not base:
        return not blockers
    cuts = [set([c[0], c[1]]) for c in base]
    for b in blockers:
        for ax in range(len(base)):
            for v in b[ax]:
                if base[ax][0] < v < base[ax][1]:
                    cuts[ax].add(v)
    axes_vals = []
    for ax in range(len(base)):
        vals = sorted(cuts[ax])
        cands = list(vals)
        cands += [(u + w) / 2 for u, w in zip(vals, vals[1:])]
        axes_vals.append(cands)
    for p in itertools.product(*axes_vals):
        if not any(
            all(b[ax][0] <= x <= b[ax][1] for ax, x in enumerate(p)) for b in blockers
        ):
            return True
    return False


def oracle_shift_graph(cubes, kappa):
    edges = []
    for i, q1 in enumerate(cubes):
        for j, q2 in enumerate(cubes):
            if i == j:
                continue
            a = shift_cube(oracle_bott(q1, kappa)).box()
            bb = oracle_bott(q1, kappa).box()
            s2 = shift_cube(q2).box()
            inter = tuple(
                (max(la, lb), min(ha, hb)) for (la, ha), (lb, hb) in zip(a, s2)
            )
            if any(lo >= hi for lo, hi in inter):
                continue
            if all(bl <= lo and hi <= bh for (lo, hi), (bl, bh) in zip(inter, bb)):
                continue
            base = []
            ok = True
            for ax in range(1, len(a)):
                lo = max(bb[ax][0], q2.box()[ax][0])
                hi = min(bb[ax][1], q2.box()[ax][1])
                if lo > hi:
                    ok = False
                    break
                base.append((lo, hi))
            if not ok:
                continue
            seg_lo = min(bb[0][0], q2.box()[0][1])
            seg_hi = max(bb[0][0], q2.box()[0][1])
            blockers = []
            for t, c in enumerate(cubes):
                if t in (i, j):
                    continue
                cb = c.box()
                if cb[0][1] < seg_lo or cb[0][0] > seg_hi:
                    continue
                lat = [cb[ax] for ax in range(1, len(cb))]
                if any(l[0] > b[1] or l[1] < b[0] for l, b in zip(lat, base)):
                    continue
                blockers.append(lat)
            if oracle_corridor_open(base, blockers):
                edges.append((i, j))
    return sorted(edges)


def random_disjoint_cubes(rng, d, count, tries=400):
    cubes = []
    attempt = 0
    while len(cubes) < count and attempt < tries:
        attempt += 1
        side = F(rng.randint(1, 6), rng.randint(1, 3))
        corner = tuple(F(rng.randint(-12, 12), 2) for _ in range(d))
        cand = FreeCube(corner, side)
        if all(not boxes_overlap_interior(cand.box(), c.box()) for c in cubes):
            cubes.append(cand)
    return cubes


MIXED_DENOMINATORS = (3, 7, 9, 2, 4, 8, 16, 32)


def random_mixed_cubes(rng, d, count, kappa, tries=400):
    """Disjoint cubes whose corners and sides mix the denominators 3, 7,
    9 and 2^k.  Every other cube tries to perch just below the bottom
    side-cube of an earlier one, close enough for a shift-graph edge at
    this kappa (some touch it, some sit past the reach of the shift)."""
    cubes = []
    attempt = 0
    while len(cubes) < count and attempt < tries:
        attempt += 1
        if cubes and rng.random() < 0.5:
            q = rng.choice(cubes)
            h = q.side / (2 * kappa + 1)
            side = h * F(rng.randint(1, 6), rng.choice(MIXED_DENOMINATORS[:3]))
            gap = (h - side) / 10 * F(rng.randint(0, 12), 9)
            lat = tuple(
                c + kappa * h - side / 2 + h * F(rng.randint(0, 8), 8) for c in q.corner[1:]
            )
            cand = FreeCube((q.corner[0] - gap - side,) + lat, side)
        else:
            den = rng.choice(MIXED_DENOMINATORS)
            side = F(rng.randint(1, 6 * den), rng.choice(MIXED_DENOMINATORS))
            cand = FreeCube(tuple(F(rng.randint(-12 * den, 12 * den), den) for _ in range(d)), side)
        if all(not boxes_overlap_interior(cand.box(), c.box()) for c in cubes):
            cubes.append(cand)
    return cubes


# two small cubes hang just below the bottom face of a big one, so the
# big cube's shift swallows both below-spills: in-degree 2 at cube 0.
# The points put one in each bottom side-cube, so at r = 1 only the
# degree bound fails.
IN_DEGREE_TWO = [
    FreeCube((F(0), F(0)), F(3)),
    FreeCube((F(-1, 20), F(1, 2)), F(1, 20)),
    FreeCube((F(-1, 20), F(2)), F(1, 20)),
]
IN_DEGREE_TWO_POINTS = [(F(1, 2), F(3, 2)), (F(-1, 25), F(21, 40)), (F(-1, 25), F(81, 40))]


def random_rational_points(n, d, span, seed, denom=2**20):
    rng = random.Random(seed)
    pts, seen, t = [], set(), 0
    while len(pts) < n:
        p = tuple(F(rng.randint(0, span)) + F(2 * (t + i) + 1, denom) for i in range(d))
        t += d
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def clustered_cover_input(seed):
    """(points, d, kappa, r) of a seeded clustered covering input: n
    points around 2 to 6 integer centres in [0, 400]^d, each offset by
    up to the drawn spread per axis plus the usual 2^-20 tie-breaker.
    Such clusters make covers whose placements give a cube two
    shift-graph sources."""
    rng = random.Random("sweep2:%d" % seed)
    d = rng.choice((2, 2, 3, 4))
    kappa = rng.choice((1, 1, 2))
    r = rng.choice((1, 2, 4, 8))
    n = rng.choice((400, 800, 1500))
    centres = [[rng.randint(0, 400) for _ in range(d)] for _ in range(rng.randint(2, 6))]
    spread = rng.choice((1, 3, 10, 40))
    pts, seen, t = [], set(), 0
    while len(pts) < n:
        c = rng.choice(centres)
        p = tuple(F(c[i] + rng.randint(0, spread)) + F(2 * (t + i) + 1, 2**20) for i in range(d))
        t += d
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts, d, kappa, r


def random_clustered_points(rng, d, n):
    """n distinct points in one to three clusters.  A cluster centre has
    coordinates up to 10^400 in size over 1, 3 or 7; its points sit up
    to 20 steps of 1/(q e) away on each axis, q in 1, 10^3, 10^9 per
    cluster and e in 1, 2, 3, 7 per point, so denominators mix."""
    clusters = []
    for _ in range(rng.randint(1, 3)):
        e = rng.choice((0, 3, 17, 400))
        centre = tuple(F(rng.randint(-(10**e), 10**e), rng.choice((1, 3, 7))) for _ in range(d))
        clusters.append((centre, rng.choice((1, 10**3, 10**9))))
    pts, seen = [], set()
    while len(pts) < n:
        centre, q = rng.choice(clusters)
        den = q * rng.choice((1, 2, 3, 7))
        p = tuple(x + F(rng.randint(-20, 20), den) for x in centre)
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def oracle_separating_scale(points):
    """The least integer k with k^2 |p - q|^2 > d for every pair of the
    distinct points, from all pairs in Fractions: doubling, then
    bisection on that predicate."""
    d = len(points[0])
    m = min(sum((a - b) ** 2 for a, b in zip(p, q)) for p, q in itertools.combinations(points, 2))
    hi = 1
    while hi * hi * m <= d:
        hi *= 2
    lo = hi // 2  # fails, or is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * mid * m > d:
            hi = mid
        else:
            lo = mid
    return hi


def oracle_mobius(m, d):
    """The image direction of d under m in GaussianRational arithmetic:
    (m21 + m22 a) / (m11 + m12 a), m22 / m12 at infinity, and infinity
    when the denominator vanishes."""
    if d.is_infinite:
        num, den = m.m22, m.m12
    else:
        num, den = m.m21 + m.m22 * d.a, m.m11 + m.m12 * d.a
    return DIR_INF if den.is_zero() else Direction(num / den)


def oracle_cluster_stats(dirs, m):
    """Unit mean center and angular diameter (degrees) of the images of
    ``dirs`` under ``m``, each image taken by the exact Moebius action
    (``oracle_mobius``) before it lands on the sphere."""
    arr = np.array([to_sphere(oracle_mobius(m, d)).v for d in dirs])
    center = arr.mean(axis=0)
    nrm = np.linalg.norm(center)
    center = center / nrm if nrm >= 1e-12 else arr[0]
    diam = max((_angle_deg(u, w) for u, w in itertools.combinations(arr, 2)), default=0.0)
    return center, diam


def oracle_principal_angles(s1, s2):
    """The two principal angles in degrees by numpy SVDs: cosines are
    the singular values of B1^T B2, sines those of the residual
    B2 - B1 (B1^T B2), the smaller sine paired with the larger cosine."""
    b1 = np.array([s1.b1, s1.b2], dtype=float).T  # 4x2
    b2 = np.array([s2.b1, s2.b2], dtype=float).T
    m = b1.T @ b2
    cos = np.linalg.svd(m, compute_uv=False)
    cos = np.clip(cos, -1.0, 1.0)
    resid = b2 - b1 @ m
    sin = np.linalg.svd(resid, compute_uv=False)
    sin = np.clip(np.sort(sin), 0.0, 1.0)  # ascending pairs with descending cos
    angles = [
        math.degrees(math.atan2(float(s), float(c)))
        for s, c in zip(sin, sorted(cos, reverse=True))
    ]
    return (angles[0], angles[1])


def oracle_cover_gap(centers, samples, seed=0):
    """Worst angle (degrees) from a sample to its nearest center, every
    center scanned in numpy.  The samples are the normalised
    ``random.Random(seed).gauss`` triples that ``max_cover_gap_deg``
    draws, and each dot product is summed in the same order, so the two
    agree exactly when both find each sample's nearest center."""
    gauss = random.Random(seed).gauss
    x = []
    for _ in range(samples):
        v = (gauss(0.0, 1.0), gauss(0.0, 1.0), gauss(0.0, 1.0))
        nrm = math.hypot(*v)
        x.append([c / nrm for c in v])
    x = np.array(x)
    c = np.array([p.v for p in centers])
    worst = 0.0
    chunk = max(1, 10**6 // len(c))
    for i in range(0, samples, chunk):
        xs = x[i : i + chunk]
        dots = xs[:, :1] * c[:, 0] + xs[:, 1:2] * c[:, 1] + xs[:, 2:] * c[:, 2]
        best = np.clip(dots.max(axis=1), -1.0, 1.0)
        worst = max(worst, float(np.degrees(np.arccos(best)).max()))
    return worst


# the cubes behind the two in-degree witnesses that perfbench/known_defect.py
# rebuilds, in the covers' work frame (both axis maps are the identity):
# the sources first, the target last.  No other cube of either cover
# blocks a corridor between them, so these alone keep the defect.
KNOWN_DEFECT_WITNESSES = [
    # n = 1400, r = 4: cube 10 from cubes 7, 8 and 9 (K = 11)
    [
        FreeCube((F(8593861), F(781350)), F(1171875)),
        FreeCube((F(8593861), F(2734475)), F(1171875)),
        FreeCube((F(8593861), F(8593850)), F(1171875)),
        FreeCube((F(9765736), F(-9374900)), F(29296875)),
    ],
    # n = 5000, r = 2: cube 40 from cubes 4 and 8 (K = 65)
    [
        FreeCube((F(6554410), F(1835072)), F(1875)),
        FreeCube((F(6553160), F(2159447)), F(9375)),
        FreeCube((F(6640660), F(1406322)), F(1171875)),
    ],
]
