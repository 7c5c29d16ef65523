"""Exact incidence counting and the counting applications built on it.

Every incidence route runs on one exact integer form (``_scaled``):
points become Gaussian integers over one common denominator L, and
each line becomes an integer slope key and an integer intercept, so the
predicate is a pure-int equality.  Over that form the engine keeps two
routes to the same number: the full point-by-line sweep
``count_naive``, and ``incident_lines``, which groups lines by slope
and intercept and makes one pass over the points per distinct slope.
The sweep is the baseline the keyed route is checked against; both are
checked against the Fraction predicate ``exact.incident`` in the tests.
Rich lines come from the same form: ``_rich_pairs`` buckets points by
reduced integer slope key, and ``rich_lines`` builds each line once
from its key and sorts float-first with exact tie-breaks.  The scaled
integers grow with the bit length of L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .exact import ComplexLine, ComplexPoint, GaussianRational, GeometryError


class DuplicateInput(GeometryError):
    pass


class ZeroElement(GeometryError):
    pass


class TooSmallPattern(GeometryError):
    pass


@dataclass(frozen=True)
class IncidenceReport:
    I: int
    n: int
    e: int
    st_bound: float  # C * n^(2/3) e^(2/3) + 3n + 3e
    ratio: float  # I / st_bound, 0 when the bound degenerates
    violated: bool


@dataclass(frozen=True)
class RichLine:
    line: ComplexLine
    count: int


def _check_unique(items: Iterable, what: str) -> None:
    seen = set()
    for it in items:
        if it in seen:
            raise DuplicateInput("duplicate %s: %r" % (what, it))
        seen.add(it)


# Slope key of a vertical line x = c: with D = 0 and A = -1 the slanted
# test D*X2 == A*X1 + B reads X1 == B, so verticals need no own branch.
_VERTICAL = (0, -1, 0)

_LineKey = Tuple[Tuple[int, int, int], Tuple[int, int]]
_Scaled = Tuple[int, int, int, int]
_SlopeKey = Optional[Tuple[int, int, int]]  # reduced (nr, ni, den); None is vertical


def _scaled_points(points: Sequence[ComplexPoint]) -> Tuple[List[_Scaled], int]:
    """The points as Gaussian integers over their common denominator L."""
    L = math.lcm(
        *{f.denominator for p in points for f in (p.z1.re, p.z1.im, p.z2.re, p.z2.im)}
    )
    pts = [
        (
            p.z1.re.numerator * (L // p.z1.re.denominator),
            p.z1.im.numerator * (L // p.z1.im.denominator),
            p.z2.re.numerator * (L // p.z2.re.denominator),
            p.z2.im.numerator * (L // p.z2.im.denominator),
        )
        for p in points
    ]
    return pts, L


def _scaled(
    points: Sequence[ComplexPoint], lines: Sequence[ComplexLine]
) -> Tuple[List[_Scaled], List[Optional[_LineKey]]]:
    """The exact integer form shared by every incidence route.

    Points are scaled by L, the lcm of all point coordinate
    denominators, to Gaussian integers (X1.re, X1.im, X2.re, X2.im).  A
    slanted line y = a*x + b gets the slope key (D, A.re, A.im), D the
    lcm of a's denominators and A = D*a, and the intercept B = D*L*b; a
    vertical line x = c gets ``_VERTICAL`` and B = L*c.  A point lies on
    the line iff D*X2 == A*X1 + B.  When B is not integral no scaled
    point can satisfy that, and the line's entry is None.
    """
    pts, L = _scaled_points(points)
    keys: List[Optional[_LineKey]] = []
    for l in lines:
        if l.is_vertical:
            slope, scale = _VERTICAL, L
        else:
            ar, ai = l.a.re, l.a.im
            d = math.lcm(ar.denominator, ai.denominator)
            slope = (d, ar.numerator * (d // ar.denominator), ai.numerator * (d // ai.denominator))
            scale = d * L
        br, rr = divmod(scale * l.b.re.numerator, l.b.re.denominator)
        bi, ri = divmod(scale * l.b.im.numerator, l.b.im.denominator)
        keys.append(None if rr or ri else (slope, (br, bi)))
    return pts, keys


def count_naive(points: Sequence[ComplexPoint], lines: Sequence[ComplexLine]) -> int:
    """Full n*e sweep of the incidence predicate, exact."""
    pts, keys = _scaled(points, lines)
    total = 0
    for key in keys:
        if key is None:
            continue
        (d, ar, ai), (br, bi) = key
        for x1r, x1i, x2r, x2i in pts:
            if d * x2r == ar * x1r - ai * x1i + br and d * x2i == ar * x1i + ai * x1r + bi:
                total += 1
    return total


def incident_lines(
    points: Sequence[ComplexPoint], lines: Sequence[ComplexLine]
) -> List[List[int]]:
    """For each point, the ascending ids of the lines through it.

    Lines are grouped by slope key, then by intercept.  For slope
    (D, A) the key of a point is D*X2 - A*X1, and a line carries
    exactly the points whose key equals its intercept, so the cost is
    one pass over the points per distinct slope: O(n * #slopes + e)
    instead of O(n * e).
    """
    pts, keys = _scaled(points, lines)
    by_slope: Dict[Tuple[int, int, int], Dict[Tuple[int, int], List[int]]] = {}
    for li, key in enumerate(keys):
        if key is not None:
            by_slope.setdefault(key[0], {}).setdefault(key[1], []).append(li)
    index: List[List[int]] = [[] for _ in pts]
    for (d, ar, ai), table in by_slope.items():
        for mine, (x1r, x1i, x2r, x2i) in zip(index, pts):
            ids = table.get((d * x2r - ar * x1r + ai * x1i, d * x2i - ar * x1i - ai * x1r))
            if ids:
                mine.extend(ids)
    for mine in index:
        mine.sort()
    return index


def count_indexed(points: Sequence[ComplexPoint], lines: Sequence[ComplexLine]) -> int:
    """Incidence count through the keyed route of ``incident_lines``."""
    return sum(map(len, incident_lines(points, lines)))


def count_incidences(
    points: Sequence[ComplexPoint],
    lines: Sequence[ComplexLine],
    C: float = 1e70,
) -> IncidenceReport:
    """Exact incidence count of a duplicate-free system, plus the bound."""
    if not 0 <= C < math.inf:  # also rejects nan
        raise GeometryError("C must be finite and non-negative, got %r" % C)
    _check_unique(points, "point")
    _check_unique(lines, "line")
    count = count_indexed(points, lines)
    n, e = len(points), len(lines)
    bound = C * (n ** (2.0 / 3.0)) * (e ** (2.0 / 3.0)) + 3.0 * n + 3.0 * e
    ratio = count / bound if bound > 0 else 0.0
    return IncidenceReport(count, n, e, bound, ratio, violated=count > bound)


def _rich_pairs(
    points: Sequence[ComplexPoint], t: int
) -> Tuple[List[_Scaled], int, List[Tuple[int, _SlopeKey, int]]]:
    """The lines through at least t input points, t >= 2, in integer form.

    Returns the scaled points, their common denominator L and one row
    (i, key, count) per line.  Per-point slope bucketing over the scaled
    integers: for each point i, every other point is bucketed by the
    reduced slope key (nr, ni, den) of the line joining them, slope
    (nr + i*ni)/den, or None for a vertical line, so a bucket of size
    c is a line with c + 1 points.  Each line is listed once, from its
    lowest-index point i.
    """
    if t < 2:
        raise GeometryError("t must be at least 2")
    _check_unique(points, "point")
    pts, L = _scaled_points(points)
    gcd = math.gcd
    rows: List[Tuple[int, _SlopeKey, int]] = []
    for i, (x1r, x1i, x2r, x2i) in enumerate(pts):
        first: Dict[_SlopeKey, int] = {}
        size: Dict[_SlopeKey, int] = {}
        for j, (y1r, y1i, y2r, y2i) in enumerate(pts):
            if j == i:
                continue
            dr, di = y1r - x1r, y1i - x1i
            if dr == 0 and di == 0:
                key = None  # vertical
            else:
                # slope (y2 - x2) / (y1 - x1) = (er + i*ei) * conj(dr + i*di) / den
                er, ei = y2r - x2r, y2i - x2i
                nr, ni, den = er * dr + ei * di, ei * dr - er * di, dr * dr + di * di
                g = gcd(nr, ni, den)
                key = (nr // g, ni // g, den // g)
            if key in size:
                size[key] += 1
            else:
                size[key] = 1
                first[key] = j
        for key, c in size.items():
            if first[key] > i and c + 1 >= t:
                rows.append((i, key, c + 1))
    return pts, L, rows


def _float(num: int, den: int) -> float:
    """num/den (den > 0) correctly rounded, and +-inf beyond float range.

    Int/int true division rounds correctly, so this is monotone: it
    orders any two rationals as they are ordered, or ties them.
    """
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _exact_key(xr: int, xi: int, den: int, z: GaussianRational) -> tuple:
    """Orders z = (xr + i*xi)/den like ``z.sort_key()``, but compares
    its Fractions only where the floats tie."""
    return (_float(xr, den), z.re, _float(xi, den), z.im)


def rich_lines(points: Sequence[ComplexPoint], t: int) -> List[RichLine]:
    """Every complex line incident to at least t input points, t >= 2.

    Output is sorted by ``ComplexLine.sort_key``, so it is
    deterministic.  Each line is built from its integer slope key and
    its lowest-index point's scaled coordinates X: the slope is
    a = (nr + i*ni)/den and the intercept is
    (den*X2 - (nr + i*ni)*X1) / (den*L).  Each Fraction is made once
    from ints, and all lines with one slope share its GaussianRational
    and its sort key.  The sort puts a float before each exact
    coordinate, so Fractions are compared only where the floats tie.
    """
    pts, L, rows = _rich_pairs(points, t)
    slopes: Dict[Tuple[int, int, int], Tuple[GaussianRational, tuple]] = {}
    keyed = []
    for i, key, c in rows:
        x1r, x1i, x2r, x2i = pts[i]
        if key is None:
            line = ComplexLine(None, points[i].z1)
            sort_key = (1,) + _exact_key(x1r, x1i, L, line.b)
        else:
            nr, ni, den = key
            if key not in slopes:
                a = GaussianRational(Fraction(nr, den), Fraction(ni, den))
                slopes[key] = a, _exact_key(nr, ni, den, a)
            a, a_key = slopes[key]
            dl = den * L
            br = den * x2r - nr * x1r + ni * x1i
            bi = den * x2i - nr * x1i - ni * x1r
            b = GaussianRational(Fraction(br, dl), Fraction(bi, dl))
            line = ComplexLine(a, b)
            sort_key = (0, a_key) + _exact_key(br, bi, dl, b)
        keyed.append((sort_key, RichLine(line, c)))
    keyed.sort(key=itemgetter(0))
    return [r for _, r in keyed]


@dataclass(frozen=True)
class RichBoundReport:
    t: int
    n: int
    rich_count: int
    bound: float  # c * (n^2/t^3 + n/t)
    violated: bool


def check_rich_bound(points: Sequence[ComplexPoint], t: int, c: float) -> RichBoundReport:
    if not 0 <= c < math.inf:  # also rejects nan
        raise GeometryError("c must be finite and non-negative, got %r" % c)
    rich_count = len(_rich_pairs(points, t)[2])
    n = len(points)
    bound = c * (n * n / t**3 + n / t)
    return RichBoundReport(t, n, rich_count, bound, violated=rich_count > bound)


def beck_stats(points: Sequence[ComplexPoint]) -> Tuple[int, int]:
    """(number of connecting lines, max point count on one of them)."""
    if len(points) < 2:
        raise GeometryError("need at least 2 points")
    counts = [c for _, _, c in _rich_pairs(points, 2)[2]]
    return len(counts), max(counts)


def sum_product(
    values: Iterable[GaussianRational], allow_zero: bool = False
) -> Tuple[int, int]:
    """Exact |A+A| and |A*A| over all ordered pairs (x + x included).

    Strict mode rejects 0 in A; the relaxed variant tolerates it, which
    only matters for the product set.
    """
    a = list(values)
    _check_unique(a, "element")
    if not allow_zero and any(x.is_zero() for x in a):
        raise ZeroElement("0 is not allowed in strict mode")
    sums = set()
    prods = set()
    for i, x in enumerate(a):
        for y in a[i:]:
            sums.add(x + y)
            prods.add(x * y)
    return len(sums), len(prods)


def similar_copies(
    pattern: Sequence[GaussianRational], ground: Sequence[GaussianRational]
) -> int:
    """Number of subsets of ``ground`` similar to ``pattern``.

    Planar points are read as complex numbers; a similarity is
    z -> u*z + v with u != 0 (translation, rotation, scaling, no
    reflection).  Fix two pattern points; every ordered pair of ground
    points determines the candidate map, whose image is then tested
    against the ground set by exact hashed membership.  Copies are
    counted as unordered subsets.
    """
    if len(pattern) < 2:
        raise TooSmallPattern("pattern needs at least 2 points")
    _check_unique(pattern, "pattern point")
    _check_unique(ground, "ground point")
    a1, a2 = pattern[0], pattern[1]
    ground_set = set(ground)
    found: Set[frozenset] = set()
    for b1 in ground:
        for b2 in ground:
            if b1 == b2:
                continue
            u = (b2 - b1) / (a2 - a1)
            v = b1 - u * a1
            image = [u * x + v for x in pattern]
            if all(z in ground_set for z in image):
                found.add(frozenset(image))
    return len(found)
