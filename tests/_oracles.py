"""Brute-force reference implementations shared by the test modules.

These deliberately avoid the production code paths: the shift-graph
oracle decides the corridor condition by exhaustive rational box
subdivision, independently of the sweep in the library, and the
cluster oracle maps directions by ``oracle_mobius``, GaussianRational
arithmetic independent both of the float search in
``separate_to_orthogonal`` and of the integer route of ``apply_mobius``.
The principal-angle and cover-gap oracles are the numpy routes that the
library's plain-float closed forms replaced.
Hand-built fixtures that more than one module checks live here too, and
the exact routes that only tests call: the meet of two complex lines,
tau (the identification of C^2 with R^4, on points and on lines) and
the image of a system under a linear map.
The per-record loaders are the text layer's loops before the bulk row
parse: every "p" and "cube" token through ``fileio._ratio`` in its
record's turn.
The flat meet is the R^4 kernel's route before fraction-free
elimination: Fraction Gauss-Jordan on the augmented system, which the
crossing counts and the kernel's cross-checks use.
The witness oracle is the verifiers' reading before the reports named
their own first failure: the CLI's two witness functions and the two
all_ok conjunctions, kept word for word.
The covering oracle is the run's phase loop before labelled cells were
int columns settled in bulk: every labelled parent but a light lone
carrier visited through process_cell, kept word for word.
"""

import collections
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from stlab.covering import (
    Cell,
    CoverResult,
    CoverStats,
    CoveringError,
    CubeSet,
    CubeState,
    FreeCube,
    IntBox,
    InvalidParams,
    PhaseStats,
    PointSet,
    SignedPermutation,
    VerificationReport,
    _CARRIER_STATES,
    _CellInfo,
    _CoverRun,
    _YELLOW_STATES,
    _complement_cubes,
    _keys,
    _unpack,
    boxes_overlap_interior,
)
from stlab.diagnostics import SystemView
from stlab.directions import DIR_INF, Direction, _angle_deg, to_sphere
from stlab.exact import (
    ComplexPoint,
    Flat2,
    FlatMeet,
    GaussianRational,
    GeometryError,
    RVector4,
    _int_columns,
    line_through,
)
from stlab.fileio import CoverFile, FormatError, _int_record, _once, _parse_header, _parse_int, _ratio
F = Fraction


def box(q):
    """The closed intervals of the cube q per axis, in Fractions."""
    return tuple((c, c + q.side) for c in q.corner)


def shift_cube(q):
    """q translated by -(side/10) along the first axis."""
    return FreeCube((q.corner[0] - q.side / 10,) + q.corner[1:], q.side)


def apply_point(amap, p):
    """The image of point p under the signed permutation amap, in Fractions."""
    return tuple(amap.signs[i] * F(p[amap.perm[i]]) for i in range(len(amap.perm)))


def count_crossings(f1s, f2s):
    """Number of pairs of flats meeting in exactly one point, exact."""
    return sum(oracle_flat_intersect(f1, f2).kind == FlatMeet.POINT for f1 in f1s for f2 in f2s)


class IdenticalLines(GeometryError):
    pass


def intersect_lines(l1, l2):
    """Common point of two distinct complex lines, or None when parallel.

    Raises IdenticalLines when the canonical forms coincide.
    """
    if l1 == l2:
        raise IdenticalLines("lines coincide")
    if l1.is_vertical and l2.is_vertical:
        return None  # distinct verticals are parallel
    if l1.is_vertical:
        return ComplexPoint(l1.b, l2.a * l1.b + l2.b)
    if l2.is_vertical:
        return ComplexPoint(l2.b, l1.a * l2.b + l1.b)
    if l1.a == l2.a:
        return None  # equal slopes, distinct intercepts
    z1 = (l2.b - l1.b) / (l1.a - l2.a)
    return ComplexPoint(z1, l1.a * z1 + l1.b)


def embed_r4(p):
    """tau: (z1, z2) -> (Re z1, Im z1, Re z2, Im z2)."""
    return RVector4(p.z1.re, p.z1.im, p.z2.re, p.z2.im)


def embed_flat(l):
    """Image of a complex line under the identification with R^4.

    A point lies on the flat iff the corresponding complex point is
    incident to the line.
    """
    if l.is_vertical:
        return Flat2(
            RVector4(l.b.re, l.b.im, Fraction(0), Fraction(0)),
            RVector4(0, 0, 1, 0),
            RVector4(0, 0, 0, 1),
        )
    a = l.a
    return Flat2(
        RVector4(Fraction(0), Fraction(0), l.b.re, l.b.im),
        RVector4(Fraction(1), Fraction(0), a.re, a.im),
        RVector4(Fraction(0), Fraction(1), -a.im, a.re),
    )


def apply_map_system(sys, m):
    """Image system under an invertible linear map; incidences are
    preserved, so the index carries over unchanged."""

    def image(z1, z2):
        return ComplexPoint(m.m11 * z1 + m.m12 * z2, m.m21 * z1 + m.m22 * z2)

    pts = [image(p.z1, p.z2) for p in sys.points]
    lines = []
    for l in sys.lines:
        if l.is_vertical:
            p0, p1 = ComplexPoint(l.b, GaussianRational(0)), ComplexPoint(l.b, GaussianRational(1))
        else:
            p0 = ComplexPoint(GaussianRational(0), l.b)
            p1 = ComplexPoint(GaussianRational(1), l.a + l.b)
        lines.append(line_through(image(p0.z1, p0.z2), image(p1.z1, p1.z2)))
    return SystemView(pts, lines, [list(ls) for ls in sys.incident_lines])


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
            a = box(shift_cube(oracle_bott(q1, kappa)))
            bb = box(oracle_bott(q1, kappa))
            s2 = box(shift_cube(q2))
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
                lo = max(bb[ax][0], box(q2)[ax][0])
                hi = min(bb[ax][1], box(q2)[ax][1])
                if lo > hi:
                    ok = False
                    break
                base.append((lo, hi))
            if not ok:
                continue
            seg_lo = min(bb[0][0], box(q2)[0][1])
            seg_hi = max(bb[0][0], box(q2)[0][1])
            blockers = []
            for t, c in enumerate(cubes):
                if t in (i, j):
                    continue
                cb = box(c)
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
        if all(not boxes_overlap_interior(box(cand), box(c)) for c in cubes):
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
        if all(not boxes_overlap_interior(box(cand), box(c)) for c in cubes):
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


def _union_size(boxes):
    """The number of points in the union of product sets, each a list of
    per-axis sets: per value on the first axis, the union of the rest of
    the sets that hold it, with the values grouped by those sets."""
    if not boxes[0]:
        return 1
    values = set().union(*(b[0] for b in boxes))
    holders = collections.Counter(tuple(i for i, b in enumerate(boxes) if x in b[0]) for x in values)
    return sum(k * _union_size([boxes[i][1:] for i in ids]) for ids, k in holders.items())


def random_clustered_points(rng, d, n):
    """n distinct points in one to three clusters.  A cluster centre has
    coordinates up to 10^400 in size over 1, 3 or 7; its points sit up
    to 20 steps of 1/(q e) away on each axis, q in 1, 10^3, 10^9 per
    cluster and e in 1, 2, 3, 7 per point, so denominators mix.  Raises
    ValueError when the clusters hold fewer than n distinct points."""
    clusters = []
    for _ in range(rng.randint(1, 3)):
        e = rng.choice((0, 3, 17, 400))
        centre = tuple(F(rng.randint(-(10**e), 10**e), rng.choice((1, 3, 7))) for _ in range(d))
        clusters.append((centre, rng.choice((1, 10**3, 10**9))))
    if n > 41**d:  # a cluster holds 41^d points of step 1/q on its own
        grids = [[{x + F(j, q * e) for j in range(-20, 21)} for x in centre]
                 for centre, q in clusters for e in (1, 2, 3, 7)]
        if n > _union_size(grids):
            raise ValueError("the clusters hold fewer than %d distinct points" % n)
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


# -- the per-record loaders ------------------------------------------------------


def _records(stream, kind):
    """The records of a <kind> file, comments stripped, after its header
    line is checked; the only code that reads the stream."""
    try:
        _parse_header(stream.readline(), kind)
        for raw in stream:
            rec = raw.partition("#")[0].split()
            if rec:
                yield rec
    except UnicodeDecodeError as exc:
        raise FormatError("input is not valid text: %s" % exc) from exc


def _row(rec, width, name="point"):
    """The tokens of a "p" or "cube" record, width of them; no width, no dim yet."""
    if width is None or len(rec) != width + 1:
        raise FormatError("%s record before dim or wrong arity" % name)
    return rec[1:]


def _rows(cls, ratios, width):
    """The (numerator, denominator) pairs, width to a row, as the rows of
    a cls (PointSet or CubeSet) over their least common denominator."""
    nums, dens = zip(*ratios) if ratios else ((), ())
    return cls.over(*_int_columns(nums, dens, width))


def oracle_load_points(stream):
    d = None
    ratios = []
    for rec in _records(stream, "points"):
        if rec[0] == "dim":
            _once(rec, d)
            d = _int_record(rec)
        elif rec[0] == "p":
            ratios += map(_ratio, _row(rec, d))
        else:
            raise FormatError("bad points record %r" % " ".join(rec))
    if d is None:
        raise FormatError("missing dim record")
    return _rows(PointSet, ratios, d), d


def oracle_load_cover(stream):
    head = dict.fromkeys(("dim", "kappa", "r"))
    amap = None
    points = []  # the "p" records' rationals
    cubes = []  # the "cube" records' rationals
    for rec in _records(stream, "cover"):
        d = head["dim"]
        if rec[0] in head:
            _once(rec, head[rec[0]])
            head[rec[0]] = _int_record(rec)
        elif rec[0] == "axismap":
            _once(rec, amap)
            if d is None or len(rec) != 2 * d + 1:
                raise FormatError("axismap before dim or wrong arity")
            perm = tuple(_parse_int(t) for t in rec[1 : d + 1])
            signs = tuple(_parse_int(t) for t in rec[d + 1 :])
            if sorted(perm) != list(range(d)) or any(s not in (1, -1) for s in signs):
                raise FormatError("axismap is not a signed permutation")
            amap = SignedPermutation(perm, signs)
        elif rec[0] == "p":
            points += map(_ratio, _row(rec, d))
        elif rec[0] == "cube":
            cubes += map(_ratio, _row(rec, d and d + 1, "cube"))
            if cubes[-1][0] * cubes[-1][1] <= 0:
                raise InvalidParams("cube side must be positive")
        else:
            raise FormatError("bad cover record %r" % " ".join(rec))
    if None in head.values() or amap is None:
        raise FormatError("incomplete cover file")
    pts = _rows(PointSet, points, head["dim"])
    K = _rows(CubeSet, cubes, head["dim"] + 1)
    return CoverFile(pts, CoverResult(K, amap, CoverStats()), *head.values())


# -- the Fraction flat meet --------------------------------------------------------


def _row_reduce(rows, ncols: int):
    """Fraction-exact Gauss-Jordan elimination on the first ``ncols``
    columns; returns the rows, each pivot row left unscaled, and the
    pivot columns, whose count is the rank."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        for piv in range(rank, len(m)):
            if m[piv][col] != 0:
                break
        else:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


def oracle_rank(rows) -> int:
    return len(_row_reduce(rows, len(rows[0]))[1])


def oracle_flat_intersect(f1, f2):
    """Exact classification of the intersection of two 2-flats in R^4.

    Solves base1 + s*d1 + t*d2 = base2 + u*e1 + v*e2 by rational
    elimination and classifies by rank and consistency.
    """
    d1, d2 = f1.dir1.as_tuple(), f1.dir2.as_tuple()
    e1, e2 = f2.dir1.as_tuple(), f2.dir2.as_tuple()
    rhs = (f2.base - f1.base).as_tuple()
    # augmented system rows: [d1 d2 -e1 -e2 | rhs]
    aug = [
        [d1[i], d2[i], -e1[i], -e2[i], rhs[i]]
        for i in range(4)
    ]
    m, pivots = _row_reduce(aug, 4)
    rank = len(pivots)
    for r in range(rank, 4):
        if m[r][4] != 0:
            return FlatMeet(FlatMeet.EMPTY)
    if rank == 4:
        sol = [Fraction(0)] * 4
        for r, col in enumerate(pivots):
            sol[col] = m[r][4] / m[r][col]
        s, t = sol[0], sol[1]
        pt = f1.base + f1.dir1.scale(s) + f1.dir2.scale(t)
        return FlatMeet(FlatMeet.POINT, pt)
    if rank == 3:
        return FlatMeet(FlatMeet.LINE)
    # rank 2 and consistent: identical direction spaces and shared point
    return FlatMeet(FlatMeet.COINCIDE)


# -- the witness lines ----------------------------------------------------------


def _cover_witness(rep) -> str:
    """One line naming the first failed cover guarantee and its witness."""
    if rep.overlap_pair is not None:
        return "cubes %d and %d overlap" % rep.overlap_pair
    if not rep.in_degree_ok:  # more edges than cubes forces this too
        return "cube %d has in-degree %d from cubes %s" % (
            rep.max_in_target,
            rep.max_in_degree,
            " ".join(map(str, rep.max_in_sources)),
        )
    if rep.bott_failures:
        return "bottom side-cube of cube %d holds fewer than r points" % rep.bott_failures[0]
    return "K=%d does not exceed the count bound %.6g" % (rep.k_count, rep.count_bound)


def _regions_witness(rep) -> str:
    """One line naming the first failed region guarantee and its witness."""
    if rep.overlap_witness is not None:
        return "regions %d and %d overlap" % rep.overlap_witness
    chk = next(c for c in rep.checks if not (c.size_ok and c.interior_ok and not c.pair_failures))
    if chk.repeated_anchor is not None:
        return "region %d names anchor %d twice" % (chk.region_index, chk.repeated_anchor)
    if not chk.size_ok:
        return "region %d does not hold exactly r=%d anchors" % (chk.region_index, rep.r)
    if not chk.interior_ok:
        return "region %d: anchor %d lies outside its interior" % (
            chk.region_index, chk.outside_anchor
        )
    return "region %d: no mixed crossing family of anchors %d and %d lies inside" % (
        (chk.region_index,) + chk.pair_failures[0]
    )


def _cover_all_ok(self) -> bool:
    return (
        self.non_overlap_ok
        and self.bott_ok
        and self.count_ok
        and self.edges_ok
        and self.in_degree_ok
    )


def _regions_all_ok(self) -> bool:
    return self.disjoint_ok and all(
        c.size_ok and c.interior_ok and not c.pair_failures for c in self.checks
    )


def oracle_report_witness(rep):
    """(all_ok, witness) of a VerificationReport or RegionsReport as the
    conjunctions and the CLI's witness functions above read it."""
    if isinstance(rep, VerificationReport):
        ok = _cover_all_ok(rep)
        return ok, None if ok else _cover_witness(rep)
    ok = _regions_all_ok(rep)
    return ok, None if ok else _regions_witness(rep)


# -- the covering phase loop ----------------------------------------------------


class OracleCoverRun(_CoverRun):
    """The covering run with the phase loop it had before labelled cells
    were int columns: the last phase's labelled cells are (cell, info)
    pairs in states, every parent with a labelled subcell but a light lone
    carrier gets a process_cell visit, and each parent's cell is lifted by
    up().  run, run_phase, process_cell and _place_selected are kept word
    for word; the rest is the library's."""

    def __init__(self, points, d, kappa, r):
        super().__init__(points, d, kappa, r)
        self.states = []

    def run(self) -> None:
        # keep going past the single-cube point while a yellow is still
        # pending: its green deserves the selection phase it would get in
        # a larger input (a yellow phase deletes points, so this ends).
        # Termination watches the input points, not the surviving ones:
        # deletions silence counting but pending labels must still ripen
        while True:
            done = self.lo == self.hi
            pending = any(info.state in _YELLOW_STATES for _, info in self.states)
            if done and not pending:
                break
            self.level += 1
            self.run_phase(self.level)

    def run_phase(self, level: int) -> None:
        ps = PhaseStats(level=level)
        rho, shift, r = self.rho, self.shift, self.r
        self.below = self.origin
        self.origin = tuple(o + t * rho ** (level - 1) for o, t in zip(self.origin, shift))

        # exact: floor((x - t*s) / (rho*s)) == floor((floor(x/s) - t) / rho)
        def up(c: Cell) -> Cell:
            return tuple([(ci - t) // rho for ci, t in zip(c, shift)])

        # a yellow is central for the one offset (c - 2 kappa) mod rho
        def offset(c: Cell) -> Cell:
            return tuple([(x - 2 * self.kappa) % rho for x in c])

        self.lo, self.hi = up(self.lo), up(self.hi)
        keys = _keys(self.cells, self.origin, rho**level, self.lo, self.hi)
        subcells = [[c[i] for c, _ in self.states] for i in range(self.d)]
        labelled = _keys(subcells, shift, rho, self.lo, self.hi)
        counts = Counter(keys)
        # the labelled subcells of each parent, with the parent's cell
        parents: Dict[int, Tuple[Cell, List[Tuple[Cell, _CellInfo]]]] = {}
        for key, special in zip(labelled, self.states):
            entry = parents.get(key)
            if entry is None:
                entry = parents[key] = (up(special[0]), [])
            entry[1].append(special)
        # settled from the counts: a cell with fewer than r points and no
        # labelled subcell is A1 and changes nothing, one with r or more is
        # A2, and a lone carrier with too few points for a green is A4
        a2 = [key for key, n in counts.items() if n >= r and key not in parents]
        lone = {
            key
            for key, (_, specials) in parents.items()
            if len(specials) == 1 and specials[0][1].state in _CARRIER_STATES
        }
        a4 = [key for key in lone if counts[key] < (3**self.d - 1) * r]
        a2_info, a4_info = _CellInfo(CubeState.A2), _CellInfo(CubeState.A4)  # frozen, so shared
        ps.processed = len(counts) + sum(1 for key in parents if key not in counts)
        quiet = ps.processed - len(a2) - len(parents)
        assigned = {CubeState.A1: quiet, CubeState.A2: len(a2), CubeState.A4: len(a4)}
        self._assert_state(a2_info, [counts[key] for key in a2])
        self._assert_state(a4_info, [counts[key] for key in a4])
        self.stats.g += len(a2)
        # the other lone carriers search complement cubes, so read the
        # positions of their points
        members: Dict[int, List[int]] = {key: [] for key in lone.difference(a4)}
        if members:
            for i, key in [(i, k) for i, k in enumerate(keys) if k in members]:
                members[key].append(i)
        # the rest may build boxes, so they are visited in key order
        visited: List[Tuple[int, Cell, _CellInfo]] = []
        for key in sorted(parents.keys() - a4):
            cell, specials = parents[key]
            info = self.process_cell(cell, level, specials, members.get(key, []))
            assigned[info.state] = assigned.get(info.state, 0) + 1
            self._assert_state(info, [counts[key]])
            visited.append((key, cell, info))
        ps.assigned = {state: n for state, n in assigned.items() if n}
        # step 3: next-level offset by the central-position pigeonhole
        cols = _unpack(a2, self.lo, self.hi)
        offsets = list(zip(*[[(c - 2 * self.kappa) % rho for c in col] for col in cols]))
        offsets += [offset(c) for _, c, info in visited if info.state == CubeState.A3]
        t = self.shift = self.choose_offset(offsets)
        ps.yellows, ps.central = len(offsets), offsets.count(t)
        # step 4: permanent deletion inside yellow and newly blue cells, that
        # is in every visited cell but the A4 ones
        dead = set(a2).union(k for k, _, info in visited if info.state != CubeState.A4)
        ps.deleted = sum(counts[key] for key in dead)
        if ps.deleted:
            alive = [k not in dead for k in keys]
            self.cells = [list(itertools.compress(col, alive)) for col in self.cells]
        # step 5: unlabel yellows that did not land in central position: an
        # A2 cell goes, an A3 cell turns A4 and the enclosed blue stays
        self.states = [(c, a2_info) for c, o in zip(zip(*cols), offsets) if o == t]
        self.states += [
            (c, a4_info if info.state == CubeState.A3 and offset(c) != t else info)
            for _, c, info in visited
        ]
        self.states += [(parents[key][0], a4_info) for key in a4]
        self.stats.phases.append(ps)

    def process_cell(
        self,
        cell: Cell,
        level: int,
        specials: List[Tuple[Cell, _CellInfo]],
        pts: List[int],
    ) -> _CellInfo:
        """Label a cell that has labelled subcells, specials, each with its
        info; pts, the positions of its points in cells, is read only
        around a lone carrier.  Boxes are built only in the branches that
        read them."""
        yellow = [(c, i) for c, i in specials if i.state in _YELLOW_STATES]
        carriers = [c for c, i in specials if i.state in _CARRIER_STATES]
        if len(yellow) > 1:
            raise CoveringError("two yellow subcells in one cell; offsets broken")
        if len(carriers) > 1 or (carriers and yellow and yellow[0][1].state == CubeState.A3):
            self.stats.b += 1
            return _CellInfo(CubeState.A6)
        qbox = self.cell_box(cell, level, self.origin)
        dbox = self.cell_box(carriers[0], level - 1, self.below) if carriers else None
        if yellow:
            ychild, yinfo = yellow[0]
            if yinfo.state == CubeState.A3:  # no carrier beside it
                self._place_selected(qbox, yinfo.green, avoid=yinfo.avoid)
                self.stats.b += 2
                self.stats.s += 1
                return _CellInfo(CubeState.A6)
            # A5 around the yellow, or A6 around it and the one carrier
            self._place_selected(qbox, self.cell_box(ychild, level - 1, self.below), avoid=dbox)
            self.stats.b += 1 if dbox is None else 2
            self.stats.s += 1
            return _CellInfo(CubeState.A5 if dbox is None else CubeState.A6)
        # a lone carrier and at least (3^d - 1) r points:
        # lo <= cell < hi iff lo <= x rho < hi, for int lo and hi
        cells = list(zip(*[[col[i] for i in pts] for col in self.cells]))
        for cand in _complement_cubes(qbox, dbox):
            cnt = sum(1 for c in cells if all(lo <= x < hi for x, (lo, hi) in zip(c, cand)))
            if cnt >= self.r:
                self.stats.g += 1
                return _CellInfo(CubeState.A3, green=cand, avoid=dbox)
        # no complement cube is r-heavy (points hide in the carrier): fall
        # back to the unlabeled state
        return _CellInfo(CubeState.A4)

    def _place_selected(self, qbox: IntBox, gbox: IntBox, avoid: Optional[IntBox]) -> None:
        """Select the cube inside qbox whose kappa-side-cube is the green
        gbox: of the 2d orientations that fit in qbox clear of avoid, the
        one leaving the widest margin in qbox past the cube's face away
        from gbox, then the least (axis, sign)."""
        gside = gbox[0][1] - gbox[0][0]
        big = (2 * self.kappa + 1) * gside
        options = []
        for axis in range(self.d):
            for sign in (-1, 1):
                corner = [lo - self.kappa * gside for lo, _ in gbox]
                corner[axis] = gbox[axis][0] if sign < 0 else gbox[axis][1] - big
                cand = tuple((c, c + big) for c in corner)
                if any(c < ql or c + big > qh for c, (ql, qh) in zip(corner, qbox)):
                    continue
                if avoid is not None and boxes_overlap_interior(cand, avoid):
                    continue
                (ql, qh), (lo, hi) = qbox[axis], cand[axis]
                options.append(((-(qh - hi if sign < 0 else lo - ql), axis, sign), cand))
        if not options:
            raise CoveringError("no room for a selected cube; geometry broken")
        (_, axis, sign), cand = min(options)
        self.selected.append((cand, (axis, sign)))


def oracle_run_covering(points, d, kappa, r):
    """run_covering through OracleCoverRun's phase loop."""
    run = OracleCoverRun(points, d, kappa, r)
    run.run()
    return run.result()
