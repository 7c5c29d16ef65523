"""Exact incidence counting and the counting applications built on it.

Every incidence route runs on one exact integer form (``_scaled``):
points become Gaussian integers over one common denominator L (by
``exact._int_columns``, the codec of the point sets too), and each
line becomes an integer slope key and an integer intercept, so the
predicate is a pure-int equality.  Over that form the engine keeps two
routes to the same number: the full point-by-line sweep
``count_naive``, and ``incident_lines``, which groups lines by slope
and intercept and makes one pass over the points per distinct slope,
probing the real part of a point's key before the full keyed lookup.
The sweep is the baseline the keyed route is checked against; both are
checked against the Fraction predicate ``exact.incident`` in the tests.
Rich lines come from the same form: ``_rich_pairs`` buckets each
unordered point pair once by reduced integer slope key, and
``rich_lines`` orders the lines on ints within a slope, compares floats
(with exact tie-breaks) only between slopes, and builds each line once
after the sort.  The scaled integers grow with the bit length of L.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .exact import ComplexLine, ComplexPoint, GaussianRational, GeometryError, _int_columns


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
    st_bound: float  # C * n^(2/3) e^(2/3) + 3n + 3e, for display
    ratio: float  # I / st_bound, 0 when the bound degenerates
    violated: bool  # decided exactly, by _exceeds_st_bound


@dataclass(frozen=True)
class RichLine:
    line: ComplexLine
    count: int


def _check_unique(items: Iterable, what: str) -> None:
    seen = set()
    for k, it in enumerate(items, 1):
        seen.add(it)  # hashes each item once: a repeat leaves the size short
        if len(seen) < k:
            raise DuplicateInput("duplicate %s: %r" % (what, it))


# Slope key of a vertical line x = c: with D = 0 and A = -1 the slanted
# test D*X2 == A*X1 + B reads X1 == B, so verticals need no own branch.
_VERTICAL = (0, -1, 0)

_LineKey = Tuple[Tuple[int, int, int], Tuple[int, int]]
_Scaled = Tuple[int, int, int, int]
_SlopeKey = Optional[Tuple[int, int, int]]  # reduced (nr, ni, den); None is vertical
_RichRow = Tuple[int, _SlopeKey, int, int, int]  # (i, key, count, br, bi)


def _scaled_points(points: Sequence[ComplexPoint]) -> Tuple[List[_Scaled], int]:
    """The points as Gaussian integers over their common denominator L."""
    coords = [f for p in points for f in (p.z1.re, p.z1.im, p.z2.re, p.z2.im)]
    L, cols = _int_columns([f.numerator for f in coords], [f.denominator for f in coords], 4)
    return list(zip(*cols)), L


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
    instead of O(n * e).  The real part of the key is probed first,
    against the set of that slope's real intercepts; the imaginary part
    and the keyed lookup are computed only when it hits.
    """
    pts, keys = _scaled(points, lines)
    by_slope: Dict[Tuple[int, int, int], Dict[Tuple[int, int], List[int]]] = {}
    for li, key in enumerate(keys):
        if key is not None:
            by_slope.setdefault(key[0], {}).setdefault(key[1], []).append(li)
    index: List[List[int]] = [[] for _ in pts]
    for (d, ar, ai), table in by_slope.items():
        real = {br for br, _ in table}
        for mine, (x1r, x1i, x2r, x2i) in zip(index, pts):
            kr = d * x2r - ar * x1r + ai * x1i
            if kr in real:
                ids = table.get((kr, d * x2i - ar * x1i - ai * x1r))
                if ids:
                    mine.extend(ids)
    for mine in index:
        mine.sort()
    return index


def count_indexed(points: Sequence[ComplexPoint], lines: Sequence[ComplexLine]) -> int:
    """Incidence count through the keyed route of ``incident_lines``."""
    return sum(map(len, incident_lines(points, lines)))


def _exceeds_st_bound(count: int, n: int, e: int, C: Fraction) -> bool:
    """count > C n^(2/3) e^(2/3) + 3n + 3e, exactly: the excess over
    3n + 3e is positive and its cube exceeds C^3 n^2 e^2."""
    excess = count - 3 * n - 3 * e
    return excess > 0 and excess**3 > C**3 * (n * e) ** 2


def count_incidences(
    points: Sequence[ComplexPoint],
    lines: Sequence[ComplexLine],
    C: float | Fraction = 10**70,
) -> IncidenceReport:
    """Exact incidence count of a duplicate-free system, plus the bound."""
    if not 0 <= C <= sys.float_info.max:  # also rejects nan; st_bound is a float
        raise GeometryError("C must be finite and non-negative, got %s" % C)
    _check_unique(points, "point")
    _check_unique(lines, "line")
    count = count_indexed(points, lines)
    n, e = len(points), len(lines)
    bound = float(C) * (n ** (2.0 / 3.0)) * (e ** (2.0 / 3.0)) + 3.0 * n + 3.0 * e
    ratio = count / bound if bound > 0 else 0.0
    return IncidenceReport(count, n, e, bound, ratio, _exceeds_st_bound(count, n, e, Fraction(C)))


def _rich_pairs(points: Sequence[ComplexPoint], t: int) -> Tuple[int, List[_RichRow]]:
    """The lines through at least t input points, t >= 2, in integer form.

    Returns the common denominator L of the scaled points and one row
    (i, key, count, br, bi) per line.  Each point i buckets only the
    points j > i, by the reduced slope key (nr, ni, den) of the line
    joining them, slope (nr + i*ni)/den, or None for a vertical line,
    so each unordered pair is reduced once and a bucket of size c is a
    line with c + 1 points from i on.  A line is reported from its
    lowest-index point i, the only one that sees all its other points.
    Its exact identity is the key and the intercept ints
    br + i*bi = den*X2 - (nr + i*ni)*X1 of i (the intercept times
    den*L), or X1 = L*z1 for a vertical; a later point of a line that
    was reported with more than t points finds it in ``reported``.
    """
    if t < 2:
        raise GeometryError("t must be at least 2")
    _check_unique(points, "point")
    pts, L = _scaled_points(points)
    gcd = math.gcd
    rows: List[_RichRow] = []
    reported: Set[Tuple[_SlopeKey, int, int]] = set()
    for i, (x1r, x1i, x2r, x2i) in enumerate(pts):
        size: Dict[_SlopeKey, int] = {}
        for y1r, y1i, y2r, y2i in pts[i + 1 :]:
            dr, di = y1r - x1r, y1i - x1i
            if dr or di:
                # slope (y2 - x2) / (y1 - x1) = (er + i*ei) * conj(dr + i*di) / den
                er, ei = y2r - x2r, y2i - x2i
                nr, ni, den = er * dr + ei * di, ei * dr - er * di, dr * dr + di * di
                g = gcd(nr, ni, den)
                key = (nr // g, ni // g, den // g)
            else:
                key = None  # vertical
            size[key] = size.get(key, 0) + 1
        for key, c in size.items():
            if c + 1 < t:
                continue
            if key is None:
                br, bi = x1r, x1i
            else:
                nr, ni, den = key
                br, bi = den * x2r - nr * x1r + ni * x1i, den * x2i - nr * x1i - ni * x1r
            line = (key, br, bi)
            if line not in reported:
                if c >= t:  # a later point of the line can still show t - 1 partners
                    reported.add(line)
                rows.append((i, key, c + 1, br, bi))
    return L, rows


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
    deterministic, and the rows of ``_rich_pairs`` are sorted on ints
    before any line is built.  Only the distinct slopes are compared
    as numbers: each gets its GaussianRational once and they are ranked
    by the float-first sort key, which compares Fractions only where
    the floats tie; the verticals rank after them.  All lines of one
    slope a = (nr + i*ni)/den share the intercept denominator den*L,
    and all verticals share L, so (rank, br, bi) orders the lines.
    Each intercept's Fractions are made once from its ints.
    """
    L, rows = _rich_pairs(points, t)
    slopes = []
    for nr, ni, den in {key for _, key, _, _, _ in rows} - {None}:
        a = GaussianRational(Fraction(nr, den), Fraction(ni, den))
        slopes.append((_exact_key(nr, ni, den, a), (nr, ni, den), a, den * L))
    slopes.sort()  # distinct slopes differ in the sort key, so a is never compared
    rank: Dict[_SlopeKey, int] = {key: r for r, (_, key, _, _) in enumerate(slopes)}
    rank[None] = len(slopes)  # verticals sort after every slanted line
    out = []
    for r, br, bi, c, i in sorted((rank[key], br, bi, c, i) for i, key, c, br, bi in rows):
        if r == len(slopes):
            line = ComplexLine(None, points[i].z1)
        else:
            _, _, a, dl = slopes[r]
            line = ComplexLine(a, GaussianRational(Fraction(br, dl), Fraction(bi, dl)))
        out.append(RichLine(line, c))
    return out


@dataclass(frozen=True)
class RichBoundReport:
    t: int
    n: int
    rich_count: int
    bound: float  # c * (n^2/t^3 + n/t), for display
    violated: bool  # decided exactly, in Fractions


def check_rich_bound(points: Sequence[ComplexPoint], t: int, c: float | Fraction) -> RichBoundReport:
    if not 0 <= c <= sys.float_info.max:  # also rejects nan; bound is a float
        raise GeometryError("c must be finite and non-negative, got %s" % c)
    rich_count = len(_rich_pairs(points, t)[1])
    n = len(points)
    bound = Fraction(c) * (Fraction(n * n, t**3) + Fraction(n, t))
    return RichBoundReport(t, n, rich_count, float(bound), violated=rich_count > bound)


def beck_stats(points: Sequence[ComplexPoint]) -> Tuple[int, int]:
    """(number of connecting lines, max point count on one of them)."""
    if len(points) < 2:
        raise GeometryError("need at least 2 points")
    counts = [row[2] for row in _rich_pairs(points, 2)[1]]
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
