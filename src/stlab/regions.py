"""Region builder for near-orthogonal bundles of 2-flats in R^4.

Input: anchor points, and per anchor two families of 2-flats whose
directions stay within 10 degrees of a fixed orthogonal pair of
2-subspaces.  Output: pairwise non-overlapping compact regions, each
with an r-point subset of anchors, such that for any two chosen
anchors p, q at least one of the two mixed crossing families (flats of
p from the first family against flats of q from the second, or the
swap) lands entirely in the region's interior.

Construction: cover the anchors with cubes at parameter 27r and
kappa = 1, keep the cubes of shift-graph out-degree at most one, and
attach to each a region that is a union of boxes: its shifted copy
(out-degree zero), or the core it shares with that copy plus either a
prism below the cube over the chosen lateral cell (case (a)) or the
shifted copy cut at a coordinate plane between that cell and the
successor's footprint (case (b)).  The anchors never leave their
frame: the cover's boxes go back through the inverse axis map to count
them, and each region is built straight in the anchor coordinates.
The two crossings of a pair p, q with exactly orthogonal flats are
antipodal on the sphere with diameter pq, which pins at least one of
them deep inside the cube; small direction tilts displace a crossing
by a fraction of dist(p, q).  verify_regions checks the guarantees,
and its report's witness names the first failed one in one line.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .covering import (
    CoveringError,
    IntBox,
    InvalidParams,
    PointSet,
    _face_cells,
    _on_grid,
    _shift_graph,
    box_intersection,
    boxes_overlap_interior,
    normalize_points,
    points_in_boxes,
    run_covering,
)
from .directions import Subspace2, gr_dist_deg
from .exact import Flat2, FlatMeet, GeometryError, RVector4, Rational, _frac, flat_intersect

Point4 = Tuple[Fraction, Fraction, Fraction, Fraction]
Box = Tuple[Tuple[Fraction, Fraction], ...]  # per-axis closed [lo, hi]


class TooFewPoints(CoveringError):
    pass


CANONICAL_SPANS = (
    ((0, 1, 1, 1), (1, 0, -1, 1)),
    ((1, 1, 0, -1), (1, -1, 1, 0)),
)


def canonical_frame() -> Tuple[Subspace2, Subspace2]:
    """The fixed orthogonal pair of 2-subspaces all bundles refer to."""
    (u1, u2), (v1, v2) = CANONICAL_SPANS
    return Subspace2.from_span(u1, u2), Subspace2.from_span(v1, v2)


def canonical_flat(anchor: Sequence[Rational], family: int) -> Flat2:
    """A flat of exactly canonical direction through the anchor."""
    s1, s2 = CANONICAL_SPANS[family]
    return Flat2(RVector4.of(anchor), RVector4.of(s1), RVector4.of(s2))


def _interior(boxes: Sequence[Box], margin: Rational) -> Callable[[Sequence[Rational]], bool]:
    """Region(boxes).contains_interior at margin, with the shrunk boxes put
    over one int denominator Q once: a point x is tested by comparing its
    numerators times Q with the int bounds times its denominators."""
    m = _frac(margin)
    L = math.lcm(*[x.denominator for box in boxes for side in box for x in side])
    Q = L * m.denominator
    shrunk = []
    for box in boxes:
        ends = [[x.numerator * (L // x.denominator) for x in side] for side in box]
        cut = m.numerator * (ends[0][1] - ends[0][0])
        shrunk.append([(lo * m.denominator + cut, hi * m.denominator - cut) for lo, hi in ends])

    def inside(p: Sequence[Rational]) -> bool:
        q = [_frac(x) for x in p]
        reach = []
        for box in shrunk:
            ends = [(lo * x.denominator, x.numerator * Q, hi * x.denominator) for x, (lo, hi) in zip(q, box)]
            if all(lo < x < hi for lo, x, hi in ends):
                return True
            if all(lo <= x <= hi for lo, x, hi in ends):
                reach.append([(lo < x, x < hi) for lo, x, hi in ends])
        # q may sit on a face shared by two boxes: it is interior to the
        # union iff every closed orthant at q lies in one box holding q,
        # a box holding q reaching into an orthant when it extends past q
        # on each axis in that orthant's direction
        return all(
            any(all(s[o] for s, o in zip(sides, orthant)) for sides in reach)
            for orthant in itertools.product((0, 1), repeat=len(q))
        )

    return inside


@dataclass(frozen=True)
class Region:
    """A union of axis-aligned boxes."""

    boxes: Tuple[Box, ...]

    def contains_interior(self, p: Sequence[Rational], margin: Rational = Fraction(0)) -> bool:
        """Strict interior membership in the union of the boxes, each shrunk by margin times its side."""
        return _interior(self.boxes, margin)(p)

    def overlaps(self, other: "Region") -> bool:
        return any(
            boxes_overlap_interior(b1, b2) for b1 in self.boxes for b2 in other.boxes
        )


@dataclass(frozen=True)
class RegionAssignment:
    region: Region
    point_ids: Tuple[int, ...]  # indices into the anchor list, exactly r


@dataclass
class FlatBundle:
    """Anchors plus the two per-anchor flat families."""

    anchors: List[Point4]
    family1: List[List[Flat2]]
    family2: List[List[Flat2]]

    def __post_init__(self) -> None:
        if not (len(self.anchors) == len(self.family1) == len(self.family2)):
            raise InvalidParams("bundle lists must align with anchors")

    def check_alignment(self) -> float:
        """Worst Grassmann distance of any flat direction to its pole."""
        l1, l2 = canonical_frame()
        worst = 0.0
        for flats, pole in ((self.family1, l1), (self.family2, l2)):
            for fl in flats:
                for f in fl:
                    s = Subspace2.from_span(f.dir1.as_tuple(), f.dir2.as_tuple())
                    worst = max(worst, gr_dist_deg(s, pole))
        return worst


@dataclass
class CombineDetail:
    cover_k: int = 0
    kept: int = 0
    out_degree0: int = 0
    out_degree1: int = 0
    waived_precondition: bool = False


def _clip_shift(shifted: IntBox, cell: IntBox, lat_q2: IntBox) -> IntBox:
    """Cut shifted at the coordinate plane in the middle of the gap
    between the lateral cell and the successor footprint, keeping the
    cell's side.  The lateral axis with the widest gap wins, ties go to
    the lower axis.  Faces are grid ints whose sums are even (cube faces
    are multiples of 10 steps), so the midpoint // 2 is exact."""
    best = None
    for ax, ((clo, chi), (blo, bhi)) in enumerate(zip(cell, lat_q2)):
        lo, hi = shifted[ax + 1]
        if clo >= bhi:  # cell above the footprint on this axis
            cand = (clo - bhi, ax, (max(lo, (clo + bhi) // 2), hi))
        elif chi <= blo:
            cand = (blo - chi, ax, (lo, min(hi, (chi + blo) // 2)))
        else:
            continue
        if best is None or cand[0] > best[0]:
            best = cand
    if best is None:
        raise CoveringError("no coordinate plane separates the cell")
    _, ax, side = best
    return shifted[: ax + 1] + (side,) + shifted[ax + 2 :]


def combine(
    anchors: Sequence[Sequence[Rational]],
    bundle: FlatBundle,
    r: int,
    detail: Optional[CombineDetail] = None,
) -> List[RegionAssignment]:
    """Build region assignments for a near-orthogonal bundle.

    Runs the covering at parameter 27r with kappa 1 on the normalized
    anchors and builds each region straight in the anchor coordinates,
    exact rational geometry.  A signed permutation and a positive
    scaling take open boxes to open boxes, so counting the anchors there
    gives what counting the moved points in the cover's frame would.
    The formal hypothesis r <= 1e-8 * n is waived at desk scale (27r <= n
    is what the construction needs); the detail record notes the waiver.
    """
    if r < 1:
        raise InvalidParams("r must be at least 1")
    pts = PointSet.of(anchors)
    n = len(pts)
    if 27 * r > n:
        raise TooFewPoints("need at least 27*r anchors, got %d" % n)
    normalized, tr = normalize_points(pts)
    cover = run_covering(normalized, 4, 1, 27 * r)
    if not cover.K:
        raise TooFewPoints("covering produced no usable cube")
    back = cover.axis_map.inverse()
    grid = _on_grid(cover.K, 1)
    graph = _shift_graph(grid)
    out_deg = graph.out_degrees()
    succ: Dict[int, int] = {a: b for a, b in graph.edges}

    def to_anchors(box: IntBox) -> Box:
        corners = zip(*back.apply_box(box))  # the lower one, then the upper
        return tuple(zip(*[tr.invert([Fraction(x, grid.scale) for x in c]) for c in corners]))

    assignments: List[RegionAssignment] = []
    n0 = n1 = 0
    bott_pts = points_in_boxes(normalized, [back.apply_box(b) for b in grid.botts], grid.scale)
    for qi, (qbox, shifted) in enumerate(zip(grid.boxes, grid.shifts)):
        if out_deg[qi] > 1:
            continue
        inside = bott_pts[qi]
        if out_deg[qi] == 0:
            boxes: Tuple[IntBox, ...] = (shifted,)
            pool = inside
            n0 += 1
        else:
            q2box = grid.boxes[succ[qi]]
            lat_q2 = q2box[1:]
            cells = _face_cells(qbox[1:], lat_q2)
            columns = [back.apply_box(qbox[:1] + cell) for cell in cells]
            bott = [[col[i] for i in inside] for col in normalized.cols]
            hits = points_in_boxes(PointSet.over(normalized.den, bott), columns, grid.scale)
            best_cell = None
            best_ids: List[int] = []
            for cell, ks in zip(cells, hits):
                if len(ks) >= r and len(ks) > len(best_ids):
                    best_cell, best_ids = cell, [inside[k] for k in ks]
            if best_cell is None:
                raise CoveringError("pigeonhole failed: no lateral cell holds r points")
            core = box_intersection(qbox, shifted)
            if best_cell == lat_q2:
                # case (a): prism below Q1 over the chosen cell, one tenth
                # of the successor side deep
                depth = (q2box[0][1] - q2box[0][0]) // 10
                boxes = (core, ((qbox[0][0] - depth, qbox[0][0]),) + best_cell)
            else:
                # case (b): shift(Q1) cut at a coordinate plane between
                # the chosen cell and the successor footprint
                boxes = (core, _clip_shift(shifted, best_cell, lat_q2))
            pool = best_ids
            n1 += 1
        # every pooled anchor lies in the open region: normalized coordinates
        # are never integers, and cube faces are
        assignments.append(RegionAssignment(Region(tuple(map(to_anchors, boxes))), tuple(pool[:r])))

    if detail is not None:
        detail.cover_k = len(cover.K)
        detail.kept = len(assignments)
        detail.out_degree0 = n0
        detail.out_degree1 = n1
        detail.waived_precondition = Fraction(r) > Fraction(n, 10**8)
    return assignments


# -- verification ------------------------------------------------------------


@dataclass
class RegionCheck:
    region_index: int
    size_ok: bool  # exactly r distinct anchor ids
    outside_anchor: Optional[int]  # first anchor id outside the interior
    pair_failures: List[Tuple[int, int]] = field(default_factory=list)
    repeated_anchor: Optional[int] = None  # first anchor id named twice

    @property
    def interior_ok(self) -> bool:
        return self.outside_anchor is None


@dataclass
class RegionsReport:
    disjoint_ok: bool
    overlap_witness: Optional[Tuple[int, int]]
    checks: List[RegionCheck]
    r: int

    @property
    def witness(self) -> Optional[str]:
        """One line naming the first failed guarantee and its witness, or
        None when all hold: an overlap, then per region in order a repeated
        anchor, the size, an anchor outside, a pair with no inner family."""
        if self.overlap_witness is not None:
            return "regions %d and %d overlap" % self.overlap_witness
        for c in self.checks:
            if c.repeated_anchor is not None:
                return "region %d names anchor %d twice" % (c.region_index, c.repeated_anchor)
            if not c.size_ok:
                return "region %d does not hold exactly r=%d anchors" % (c.region_index, self.r)
            if not c.interior_ok:
                return "region %d: anchor %d lies outside its interior" % (
                    c.region_index, c.outside_anchor)
            if c.pair_failures:
                return "region %d: no mixed crossing family of anchors %d and %d lies inside" % (
                    (c.region_index,) + c.pair_failures[0])
        return None

    @property
    def all_ok(self) -> bool:
        return self.witness is None


def crossing_points(f1s: Sequence[Flat2], f2s: Sequence[Flat2]) -> List[RVector4]:
    """All single-point intersections between the two flat lists."""
    out = []
    for f1 in f1s:
        for f2 in f2s:
            meet = flat_intersect(f1, f2)
            if meet.kind == FlatMeet.POINT:
                out.append(meet.point)
    return out


def verify_regions(
    assignments: Sequence[RegionAssignment],
    bundle: FlatBundle,
    r: int,
    margin: Fraction = Fraction(0),
) -> RegionsReport:
    """Exact check of the structural region guarantees.

    Regions must be pairwise non-overlapping and carry exactly r
    distinct anchors in their interiors, and for every anchor pair p, q
    of a region all crossings of at least one of the two mixed families
    must lie in the open region (margin relative to box side, and
    non-negative).  An anchor id outside the bundle is bad input.
    """
    if _frac(margin) < 0:
        raise GeometryError("margin must be non-negative, got %s" % margin)
    n = len(bundle.anchors)
    for idx, asg in enumerate(assignments):
        for i in asg.point_ids:
            if not 0 <= i < n:
                raise GeometryError("region %d names anchor %d of %d" % (idx, i, n))
    pairs = itertools.combinations(enumerate(assignments), 2)
    overlap_witness = next(((i, j) for (i, a), (j, b) in pairs if a.region.overlaps(b.region)), None)

    checks: List[RegionCheck] = []
    for idx, asg in enumerate(assignments):
        inside = _interior(asg.region.boxes, margin)
        ids = asg.point_ids
        repeated = next((i for k, i in enumerate(ids) if i in ids[:k]), None)
        chk = RegionCheck(
            idx,
            size_ok=len(ids) == r and repeated is None,
            outside_anchor=next((i for i in ids if not inside(bundle.anchors[i])), None),
            repeated_anchor=repeated,
        )
        for p, q in itertools.combinations(ids, 2):
            # the second mixed family is built only when the first has a crossing outside
            mixed = (crossing_points(bundle.family1[s], bundle.family2[t]) for s, t in ((p, q), (q, p)))
            if not any(all(inside(z.as_tuple()) for z in fam) for fam in mixed):
                chk.pair_failures.append((p, q))
        checks.append(chk)
    return RegionsReport(
        disjoint_ok=overlap_witness is None,
        overlap_witness=overlap_witness,
        checks=checks,
        r=r,
    )
