"""Measurable direction-space diagnostics over point-line systems.

These operations probe how the directions of a system's lines sit on
the direction sphere: splitting the line set across the two closed
hemispheres bounded by the unit-modulus circle, classifying points by
how their incident lines distribute over the split, testing whether a
point's incident directions concentrate in a small disk around a
boundary direction, squeezing direction clusters along meridians until
arc quotas balance, one round of the bisecting-plane refinement, and
the final squeeze that carries two separated clusters onto a pair of
orthogonal directions.

They are diagnostics over arbitrary systems; no global minimality
assumptions are made or used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from .exact import (
    ComplexLine,
    ComplexPoint,
    GaussianRational,
    GeometryError,
)
from .directions import (
    DIR_ONE,
    ComplexLinearMap,
    Direction,
    PoleDirection,
    _angle_deg,
    _ints,
    apply_mobius,
    direction_of,
    dist_deg,
    pi_lambda,
    scaling_map,
    shear_map,
    to_sphere,
    unit_direction_from_angle,
)
from .incidence import incident_lines


class Unbalanceable(GeometryError):
    pass


class EmptySelection(GeometryError):
    pass


class TooClose(GeometryError):
    pass


class SplitFailed(GeometryError):
    pass


# -- systems -----------------------------------------------------------------


@dataclass
class SystemView:
    """A point set, a line set, and the incidence index between them."""

    points: List[ComplexPoint]
    lines: List[ComplexLine]
    incident_lines: List[List[int]]  # per point, ascending line ids

    @classmethod
    def build(cls, points: Sequence[ComplexPoint], lines: Sequence[ComplexLine]) -> "SystemView":
        return cls(list(points), list(lines), incident_lines(points, lines))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def e(self) -> int:
        return len(self.lines)

    def incidence_count(self) -> int:
        return sum(len(ls) for ls in self.incident_lines)

    def average_point_degree(self) -> Fraction:
        if not self.points:
            return Fraction(0)
        return Fraction(self.incidence_count(), self.n)

    def directions(self) -> List[Direction]:
        return [direction_of(l) for l in self.lines]


# -- parameters and arcs -------------------------------------------------------


# The paper's big constant M; it enters the concentration allowance
# d_a / (_NA_DENOM * M) and the per-round decay of the sparse invariant.
_BIG_M = 10**10
_NA_DENOM = 200
_NEIGHBORHOOD_DEG = 10.0  # radius of the concentration disks
_NA_STEP_DEG = 2.0  # angle grid of the concentration-center search
_P0_DENOM = 100  # P0 points meet at least d_a / 100 lines on each side


@dataclass(frozen=True)
class DiagnosticParams:
    """The host system's average point degree d_a = I/n, which scales
    the thresholds of the point classifiers."""

    d_a: Fraction

    def __post_init__(self) -> None:
        if self.d_a < 0:
            raise ValueError("d_a must be nonnegative")


def _position(x: int, y: int) -> int:
    """Where a nonzero (x, y) points, in steps of 22.5 degrees: 2k on the
    ray at 45k degrees, 2k + 1 strictly inside the octant after it.

    Folding (x, y) by a half turn into the upper half plane and by a
    quarter turn into the first quadrant leaves one comparison of x with
    y; together these read off the signs of x, y, x + y and x - y with
    integer comparisons only.  ``ArcSpec.contains`` reads a slope through
    it, and ``balance_lambda``'s count the quadratic w of each squeezed
    slope (``_squeeze_counter``).
    """
    pos = 0
    if y < 0 or (y == 0 and x < 0):
        x, y, pos = -x, -y, 8
    if x <= 0:
        x, y, pos = y, -x, pos + 4
    if y == 0:
        return pos
    if y < x:
        return pos + 1
    return pos + 2 if y == x else pos + 3


def _circle_position(a: GaussianRational) -> int:
    """``_position`` of a nonzero a."""
    if a.is_zero():
        raise PoleDirection("the meridian projection is undefined at 0")
    x, y, _ = _ints(a)
    return _position(x, y)


@dataclass(frozen=True)
class ArcSpec:
    """A closed arc of the unit-modulus circle, by angles in degrees.

    May wrap through 180: ArcSpec(135, -135) is the short arc around
    the negative real axis.  Both endpoints must be multiples of 45
    degrees, which is what makes membership exact: ``contains`` decides
    it from signs of the slope's coordinates, never from an angle.
    ``length`` and ``midpoint_deg`` are float geometry for the
    refinement planes and grids only.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo % 45 != 0 or self.hi % 45 != 0:
            raise ValueError("arc endpoints must be multiples of 45 degrees")

    def length(self) -> float:
        span = (self.hi - self.lo) % 360.0
        return 360.0 if span == 0 else span

    def contains(self, a: GaussianRational) -> bool:
        """Does the meridian projection a/|a| of a nonzero a lie on the arc?"""
        return self._covers(_circle_position(a))

    def _covers(self, pos: int) -> bool:
        """Is the circle position ``pos`` (see ``_position``) on the arc?"""
        return (pos - int(self.lo) // 45 * 2) % 16 <= int(self.length()) // 45 * 2

    def midpoint_deg(self) -> float:
        mid = self.lo + self.length() / 2.0
        mid = (mid + 180.0) % 360.0 - 180.0
        return 180.0 if mid == -180.0 else mid


ARC_A1 = ArcSpec(-90.0, 90.0)
ARC_A2 = ArcSpec(-180.0, -90.0)
ARC_A3 = ArcSpec(90.0, 180.0)
ARC_B1 = ArcSpec(135.0, -135.0)
ARC_B2 = ArcSpec(-135.0, 0.0)
ARC_B3 = ArcSpec(0.0, 135.0)
ARCS_A = (ARC_A1, ARC_A2, ARC_A3)
ARCS_B = (ARC_B1, ARC_B2, ARC_B3)


# -- hemisphere split ----------------------------------------------------------


def _cut(
    slopes: List[Optional[GaussianRational]], mods: List[Optional[Fraction]], k: int
) -> Optional[Tuple[ComplexLinearMap, Fraction]]:
    """A slope scaling that puts k of the moduli |a|^2 on or inside the
    unit circle and the rest on or outside, with at most one slope on it.

    Returns the scaling and the modulus t it carries onto the circle, or
    None when no scaling fits.  lo and hi are the k-th and (k+1)-th
    smallest moduli, infinity (None) above every finite one; the cut
    keeps the frame when it can, else carries a lone slope of modulus
    lo or hi onto the circle, else puts the circle strictly between them.
    """

    def slopes_at(v: Fraction) -> Set[GaussianRational]:
        return {a for a, m in zip(slopes, mods) if m == v}

    finite = sorted(m for m in mods if m is not None)
    lo, hi = (finite[i] if i < len(finite) else None for i in (k - 1, k))
    if sum(m < 1 for m in finite) <= k <= sum(m <= 1 for m in finite) and len(slopes_at(1)) <= 1:
        return ComplexLinearMap.identity(), Fraction(1)
    for v in (lo, hi):
        if v:  # finite and nonzero
            at_v = slopes_at(v)
            if len(at_v) == 1:
                return scaling_map(next(iter(at_v))), v
    if lo is not None and (hi is None or lo < hi):
        c = _rational_sqrt_between(lo, lo + 1 if hi is None else hi)
        return scaling_map(c), c * c
    return None


def _rational_sqrt_between(lo: Fraction, hi: Fraction) -> Fraction:
    """A rational c with c*c strictly inside (lo, hi); bisection on c."""
    c_lo = Fraction(0)
    c_hi = max(Fraction(1), hi)
    while c_hi * c_hi < hi:
        c_hi *= 2
    for _ in range(20000):
        c = (c_lo + c_hi) / 2
        c2 = c * c
        if c2 <= lo:
            c_lo = c
        elif c2 >= hi:
            c_hi = c
        else:
            return c
    raise SplitFailed("no rational threshold found in (%s, %s)" % (lo, hi))


_FIX_MAPS = [
    ComplexLinearMap(1, Fraction(1, 2), Fraction(1, 2), 1),
    shear_map(1),
    shear_map(GaussianRational(0, 1)),
    ComplexLinearMap(1, Fraction(1, 3), Fraction(1, 3), 1),
    shear_map(2),
    shear_map(GaussianRational(0, 2)),
    shear_map(GaussianRational(1, 1)),
    shear_map(GaussianRational(1, 2)),
    shear_map(GaussianRational(2, 1)),
    shear_map(3),
    shear_map(GaussianRational(0, 3)),
    shear_map(GaussianRational(1, 3)),
    shear_map(GaussianRational(3, 1)),
]


def hemisphere_split(
    sys: SystemView,
) -> Tuple[Set[int], Set[int], ComplexLinearMap]:
    """Split the lines half and half across the unit-modulus circle.

    Finds a linear transformation after which floor(e/2) line
    directions have modulus at most 1 and the rest at least 1, with at
    most one parallel class landing exactly on the circle.  One cut on
    the exact moduli (``_cut``) picks a slope scaling; only when the
    moduli tie around the median does a small deterministic pool of
    shears and squeezes move them first.  E1 takes the lines inside the
    circle and then, in index order, lines on it until it holds
    floor(e/2); the choice of the cut guarantees enough of them.
    """
    if sys.e < 2:
        raise ValueError("need at least two lines")
    k = sys.e // 2
    transform = ComplexLinearMap.identity()
    base = sys.directions()
    dirs = base
    for attempt in range(len(_FIX_MAPS) + 1):
        if attempt:
            transform = _FIX_MAPS[attempt - 1].compose(transform)
            dirs = [apply_mobius(transform, d) for d in base]
        slopes = [None if d.is_infinite else d.a for d in dirs]
        mods = [None if a is None else a.abs2() for a in slopes]
        cut = _cut(slopes, mods, k)
        if cut is None:
            continue
        scale, t = cut
        e1 = {i for i, m in enumerate(mods) if m is not None and m < t}
        for i, m in enumerate(mods):
            if len(e1) == k:
                break
            if m == t:
                e1.add(i)
        return e1, set(range(sys.e)) - e1, scale.compose(transform)
    raise SplitFailed("no transform in the candidate pool balanced the split")


# -- point classification ---------------------------------------------------------


def classify_points(
    sys: SystemView,
    e1: Set[int],
    e2: Set[int],
    params: DiagnosticParams,
) -> Tuple[Set[int], Set[int], Set[int]]:
    """Partition points by their incident-line profile across a split.

    P0 holds points meeting at least d_a / 100 lines on both sides;
    the rest go to P1 when the first side dominates strictly, else P2.
    """
    p0: Set[int] = set()
    p1: Set[int] = set()
    p2: Set[int] = set()
    thr = params.d_a / _P0_DENOM
    for pi, ls in enumerate(sys.incident_lines):
        c1 = sum(1 for li in ls if li in e1)
        c2 = sum(1 for li in ls if li in e2)
        if c1 >= thr and c2 >= thr:
            p0.add(pi)
        elif c1 > c2:
            p1.add(pi)
        else:
            p2.add(pi)
    return p0, p1, p2


def is_na_point(
    p: int,
    sys: SystemView,
    e1: Set[int],
    e2: Set[int],
    center: Direction,
    params: DiagnosticParams,
) -> bool:
    """Does the point's incidence concentrate near one boundary direction?

    True when, on each side of the split, all incident lines except an
    allowance of d_a / (200 M) have their directions inside the open
    10-degree disk around the center.
    """
    allowance = params.d_a / (_NA_DENOM * _BIG_M)
    for side in (e1, e2):
        mine = [li for li in sys.incident_lines[p] if li in side]
        close = sum(
            1 for li in mine if dist_deg(direction_of(sys.lines[li]), center) < _NEIGHBORHOOD_DEG
        )
        if Fraction(close) < len(mine) - allowance:
            return False
    return True


def _meets_quota(dirs: Sequence[Direction], arc: ArcSpec) -> bool:
    """Do a third of a point's incident directions project into the arc?

    The meridian projection is undefined at 0 and infinity; lines with
    those directions never count toward the quota but stay in the
    denominator.  Points of degree zero fail by convention.
    """
    if not dirs:
        return False
    hits = sum(1 for d in dirs if not d.is_infinite and not d.a.is_zero() and arc.contains(d.a))
    return 3 * hits >= len(dirs)


def is_gamma_point(p: int, sys: SystemView, arc: ArcSpec) -> bool:
    """Does a third of the point's incident directions project into the arc?"""
    return _meets_quota([direction_of(sys.lines[li]) for li in sys.incident_lines[p]], arc)


def gamma_count(sys: SystemView, arc: ArcSpec, transform: Optional[ComplexLinearMap] = None) -> int:
    """Number of points whose transformed directions meet the arc quota."""
    dirs = sys.directions()
    if transform is not None:
        dirs = [apply_mobius(transform, d) for d in dirs]
    return sum(_meets_quota([dirs[li] for li in ls], arc) for ls in sys.incident_lines)


# -- meridian balancing -----------------------------------------------------------


def _squeeze_counter(sys: SystemView, center: Direction) -> Callable[[Fraction], int]:
    """The quota count on ARC_A1 after pi_lambda(center, lam), as a
    function of lam, in ints only.

    For |c| = 1, pi_lambda(c, lam) sends a slope s to num/den with
    num = lam conj(c) + s and den = 1 + lam c s.  The image points where
    w = num conj(den) = s + lam conj(c) (1 + |s|^2) + lam^2 conj(c)^2 conj(s)
    points, since |den|^2 > 0; a vertical direction has w = lam conj(c).
    w = 0 exactly when the image is 0 or infinity, which the quota skips.
    With c = (p + iq)/e and s = (u + iv)/n, scaling w by e^2 n^2 > 0 makes
    its three coefficients Gaussian integers w0, w1, w2, once per call; at
    lam = k/m, w0 m^2 + w1 k m + w2 k^2 points where the image does.
    """
    pi_lambda(center, 0)  # raises UnitModulusRequired for a bad center
    p, q, e = _ints(center.a)
    c2re, c2im = p * p - q * q, -2 * p * q  # conj(c)^2 e^2
    table = []  # per line: re and im of w0, w1, w2
    for d in sys.directions():
        if d.is_infinite:
            table.append((0, 0, p, -q, 0, 0))
            continue
        u, v, n = _ints(d.a)
        r = n * n + u * u + v * v
        table.append((
            e * e * n * u, e * e * n * v,
            e * p * r, -e * q * r,
            n * (c2re * u + c2im * v), n * (c2im * u - c2re * v),
        ))

    def count_at(lam: Fraction) -> int:
        k, m = lam.numerator, lam.denominator
        mm = m * m
        hit = []
        for x0, y0, x1, y1, x2, y2 in table:
            x = (x2 * k + x1 * m) * k + x0 * mm
            y = (y2 * k + y1 * m) * k + y0 * mm
            hit.append((x != 0 or y != 0) and ARC_A1._covers(_position(x, y)))
        return sum(1 for ls in sys.incident_lines if ls and 3 * sum(hit[li] for li in ls) >= len(ls))

    return count_at


def balance_lambda(
    sys: SystemView,
    target_k: int,
    axis_center: Direction,
    precision: int = 64,
) -> Tuple[Fraction, ComplexLinearMap]:
    """Squeeze parameter at which the quota count on ARC_A1 reaches target_k.

    Bisects lambda in [0, 1 - 2^-precision] until the bracket is
    narrower than 2^-precision and returns its upper end with the
    squeeze toward axis_center; lambda = 0 when the unsqueezed system
    already meets the target.  By construction at least target_k points
    meet the one-third arc quota at lambda and fewer do at the bracket's
    lower end.  The midpoints are dyadic but off the 2^-precision grid.
    Only if the count is monotone in lambda, which is not checked, is
    lambda within a grid step of the least parameter meeting the target
    and does the count miss it one grid step below lambda.

    A step builds no map: the image of a slope s points where the
    quadratic w = s + lambda conj(c) (1 + |s|^2) + lambda^2 conj(c)^2
    conj(s) does, c the center, and ``_squeeze_counter`` evaluates it
    from Gaussian-integer coefficients made once per call.
    ``gamma_count`` with pi_lambda(axis_center, lambda) maps the
    directions on the Moebius route instead, so it checks the
    certificate independently.
    """
    if target_k > sys.n:
        raise Unbalanceable("target exceeds the number of points")
    count_at = _squeeze_counter(sys, axis_center)
    if count_at(Fraction(0)) >= target_k:
        return Fraction(0), ComplexLinearMap.identity()
    step = Fraction(1, 2**precision)
    hi = 1 - step
    if count_at(hi) < target_k:
        raise Unbalanceable("quota unreachable even at the largest squeeze")
    lo = Fraction(0)
    while hi - lo > step:  # invariant: count_at(lo) < target_k <= count_at(hi)
        mid = (lo + hi) / 2
        if count_at(mid) >= target_k:
            hi = mid
        else:
            lo = mid
    return hi, pi_lambda(axis_center, hi)


# -- one refinement round ----------------------------------------------------------


@dataclass(frozen=True)
class SparseInvariant:
    """The bookkeeping tuple carried across refinement rounds."""

    j: int
    n_j: Fraction
    e_j: Fraction
    t_j: Fraction

    @classmethod
    def initial(cls, n: int, e: int, d_a: Fraction) -> "SparseInvariant":
        return cls(0, Fraction(n, 10), Fraction(e), d_a / 200)

    def advance(self, d_a: Fraction) -> "SparseInvariant":
        j = self.j + 1
        return SparseInvariant(
            j,
            self.n_j * (1 - Fraction(3, _BIG_M)) / 3,
            self.e_j / 2,
            d_a / 200 * (1 - Fraction(j, _BIG_M)),
        )


@dataclass
class RefineResult:
    o_new: Set[int]
    u_new: Set[int]
    v_new: Set[int]
    case: str  # "plane-avoids-arc" or "largest-b-class"
    arc_index: int
    invariant: SparseInvariant


def _na_arc_point(
    p: int,
    sys: SystemView,
    e1: Set[int],
    e2: Set[int],
    arc: ArcSpec,
    params: DiagnosticParams,
) -> bool:
    """Concentration near some boundary direction within 10 degrees of
    the arc, decided over a deterministic angle grid."""
    lo = arc.lo - _NEIGHBORHOOD_DEG
    span = arc.length() + 2 * _NEIGHBORHOOD_DEG
    steps = int(span / _NA_STEP_DEG) + 1
    for k in range(steps + 1):
        theta = lo + min(k * _NA_STEP_DEG, span)
        center = unit_direction_from_angle(theta)
        if is_na_point(p, sys, e1, e2, center, params):
            return True
    return False


Vec3 = Tuple[float, float, float]


def _project(v: Vec3, nrm: Vec3) -> float:
    return v[0] * nrm[0] + v[1] * nrm[1] + v[2] * nrm[2]


def _bisecting_constant(dirs: Sequence[Vec3], normal: Vec3) -> Tuple[float, Vec3]:
    """Median projection of the direction multiset onto the normal; the
    normal is nudged deterministically, at most 63 times, until the
    directions on the plane are copies of at most one vector.  Copies of
    one vector stay on the plane under every rotation, so they end the
    nudging at once."""
    for attempt in range(64):
        c, s = math.cos(attempt * 1e-9), math.sin(attempt * 1e-9)
        nrm = (c * normal[0] - s * normal[1], s * normal[0] + c * normal[1], normal[2])
        xs = [_project(v, nrm) for v in dirs]
        proj = sorted(xs)
        k = len(proj)
        cval = proj[k // 2] if k % 2 else (proj[k // 2 - 1] + proj[k // 2]) / 2
        if len({v for v, x in zip(dirs, xs) if abs(x - cval) < 1e-12}) <= 1:
            return cval, nrm
    return cval, nrm


def refine_step(
    o: Set[int],
    u: Set[int],
    v: Set[int],
    sys: SystemView,
    params: DiagnosticParams,
    invariant: SparseInvariant,
) -> RefineResult:
    """One refinement round over a system slice.

    For each of the three arcs, a plane normal to the arc midpoint
    bisects the multiset of line directions of u and v.  If some plane
    misses the 10-degree neighborhood of its arc, the concentrated
    points of that arc and the lines on the arc's side survive; if
    every plane cuts its neighborhood, the richest complementary-arc
    class is selected instead.
    """
    if not u or not v:
        raise ValueError("u and v must be nonempty")
    vec = {li: to_sphere(direction_of(sys.lines[li])).v for li in sorted(u) + sorted(v)}

    def side_filter(ids: Iterable[int], nrm: Vec3, cval: float, want_positive: bool) -> Set[int]:
        xs = {li: _project(vec[li], nrm) for li in ids}
        return {li for li, x in xs.items() if (x > cval) == want_positive and x != cval}

    planes = []
    for arc in ARCS_A:
        normal = to_sphere(unit_direction_from_angle(arc.midpoint_deg())).v
        cval, nrm = _bisecting_constant(list(vec.values()), normal)
        threshold = math.cos(math.radians(arc.length() / 2 + _NEIGHBORHOOD_DEG))
        planes.append((arc, cval, nrm, cval >= threshold))

    nxt = invariant.advance(params.d_a)
    for k, (arc, cval, nrm, intersects) in enumerate(planes):
        if intersects:
            continue
        o_new = {
            p for p in o if _na_arc_point(p, sys, u, v, arc, params)
        }
        if not o_new:
            raise EmptySelection("no concentrated points for arc %d" % (k + 1))
        u_new = side_filter(u, nrm, cval, want_positive=True)
        v_new = side_filter(v, nrm, cval, want_positive=True)
        return RefineResult(o_new, u_new, v_new, "plane-avoids-arc", k, nxt)

    best_m, best_pts = None, None
    for m, arc_b in enumerate(ARCS_B):
        pts = {p for p in o if _na_arc_point(p, sys, u, v, arc_b, params)}
        if best_pts is None or len(pts) > len(best_pts):
            best_m, best_pts = m, pts
    if not best_pts:
        raise EmptySelection("no concentrated points for any complementary arc")
    arc_b = ARCS_B[best_m]
    _, cval, nrm, _ = planes[best_m]
    mid_b = to_sphere(unit_direction_from_angle(arc_b.midpoint_deg())).v
    want_positive = _project(mid_b, nrm) > cval
    u_new = side_filter(u, nrm, cval, want_positive)
    v_new = side_filter(v, nrm, cval, want_positive)
    return RefineResult(best_pts, u_new, v_new, "largest-b-class", best_m, nxt)


# -- squeeze to orthogonal ----------------------------------------------------------


def _rotation_taking_one_to(target: Tuple[float, float, float]) -> ComplexLinearMap:
    """A rational sphere rotation taking the direction 1 to the target
    vector (approximately; rotations here are exact maps, the target
    is matched to float accuracy)."""
    tx, ty, tz = target
    beta = math.degrees(math.atan2(ty, tx))
    gamma = math.degrees(math.atan2(tz, math.hypot(tx, ty)))
    # the Moebius matrix (cos a, sin a) turns the sphere by 2a about the
    # +-i axis, so the unit direction at angle gamma/2 realizes the tilt
    t = unit_direction_from_angle(gamma / 2).a
    tilt = ComplexLinearMap(t.re, -t.im, t.im, t.re)
    spin = ComplexLinearMap(1, 0, 0, unit_direction_from_angle(beta).a)  # about 0-infinity
    return spin.compose(tilt)


def _float_pair(d: Direction) -> Tuple[complex, complex]:
    """d as a float vector (p, q) of slope q/p: (1, a), infinity as (0, 1),
    and a slope with |a|^2 >= 2^1020 as (1/a, 1), the same line; below
    that bound |q|^2 < 2^1024 under map entries of modulus at most 2."""
    if d.is_infinite:
        return 0j, 1 + 0j
    x, y, n = _ints(d.a)
    r = x * x + y * y
    if r >= n * n << 1020:
        return complex(n * x / r, -n * y / r), 1 + 0j
    return 1 + 0j, complex(x / n, y / n)


def _unit_mean(pqs: Sequence[Tuple[complex, complex]], m: Tuple[complex, ...]) -> Tuple[float, ...]:
    """Unit mean of the sphere images of the float pairs under the 2x2
    matrix m = (m11, m12, m21, m22), or the first image if the mean is
    shorter than 1e-12.  An image (p, q) lands at (2 q conj(p), |q|^2 -
    |p|^2) / (|p|^2 + |q|^2), which needs no branch at infinity."""
    m11, m12, m21, m22 = m
    vecs = []
    for p0, q0 in pqs:
        p, q = m11 * p0 + m12 * q0, m21 * p0 + m22 * q0
        w = 2 * q * p.conjugate()
        p2, q2 = abs(p) ** 2, abs(q) ** 2
        vecs.append((w.real / (p2 + q2), w.imag / (p2 + q2), (q2 - p2) / (p2 + q2)))
    x, y, z = (sum(c) / len(vecs) for c in zip(*vecs))
    norm = math.sqrt(x * x + y * y + z * z)
    return (x / norm, y / norm, z / norm) if norm >= 1e-12 else vecs[0]


def separate_to_orthogonal(
    d1: Sequence[Direction], d2: Sequence[Direction]
) -> ComplexLinearMap:
    """Squeeze two separated direction clusters toward an antipodal pair.

    The squeeze axis points away from the midpoint of the two cluster
    centers, so the clusters straddle the repelling pole and drift
    apart along meridians; the parameter is tuned until the image
    centers are antipodal.  Representatives closer than 5 degrees are
    rejected.

    The search for lam runs on Python complex floats, over float pairs
    made once per direction (``_float_pair``); only the returned map
    rot . pi_lambda(1, lam) . rot^-1 is exact, with a rational rotation
    and lam.  ``rot`` is unitary up to a scalar, so it moves the sphere
    by an isometry that keeps the angle between the image centers: the
    search maps by pi_lambda . rot^-1 alone.
    """
    if not d1 or not d2:
        raise ValueError("need nonempty direction samples")
    pq1, pq2 = [_float_pair(d) for d in d1], [_float_pair(d) for d in d2]
    c1, c2 = _unit_mean(pq1, (1, 0, 0, 1)), _unit_mean(pq2, (1, 0, 0, 1))
    sep = _angle_deg(c1, c2)
    if sep < 5.0:
        raise TooClose("cluster centers only %.3f degrees apart" % sep)
    if sep >= 179.0:
        return ComplexLinearMap.identity()
    ax, ay, az = -(c1[0] + c2[0]), -(c1[1] + c2[1]), -(c1[2] + c2[2])
    norm = math.sqrt(ax * ax + ay * ay + az * az)
    rot = _rotation_taking_one_to((ax / norm, ay / norm, az / norm))
    rot_inv = rot.inverse()
    r11, r12, r21, r22 = map(complex, (rot_inv.m11, rot_inv.m12, rot_inv.m21, rot_inv.m22))

    def quality(lam: float) -> float:
        m = (r11 + lam * r21, r12 + lam * r22, lam * r11 + r21, lam * r12 + r22)
        return _angle_deg(_unit_mean(pq1, m), _unit_mean(pq2, m))

    # coarse scan, then ternary refinement around the best parameter
    best = max((k / 256 for k in range(256)), key=quality)
    lo, hi = max(0.0, best - 1 / 256), min(255 / 256, best + 1 / 256)
    for _ in range(64):
        m1 = lo + (hi - lo) / 4
        m2 = hi - (hi - lo) / 4
        if quality(m1) < quality(m2):
            lo = m1
        else:
            hi = m2
    lam = Fraction((lo + hi) / 2).limit_denominator(2**30)
    return rot.compose(pi_lambda(DIR_ONE, lam)).compose(rot_inv)
