"""Hierarchical cube covers of point sets in R^d.

Given n points, an integer kappa and a target r, the covering
algorithm selects non-overlapping axis-aligned cubes such that the
bottom side-cube of every selected cube holds at least r of the
original points, the number of selected cubes is proportional to n/r,
and the directed "shift graph" on the selection has in-degree at most
one everywhere.  Here it departs from the paper: the placements can leave
a cube with two sources, so the run ends by reading the in-degrees of
its own shift graph and dropping every cube of in-degree 2 or more until
none is left (CoverStats.dropped).

The algorithm runs over a hierarchy of lattice subdivisions whose side
ratio is rho = 4*kappa + 1 per axis (each parent cell consists of
rho^d child cells).  Cubes are processed bottom-up through six states;
the labels green, yellow, blue and selected drive the bookkeeping, and
points inside blue or yellow cubes are deleted permanently at the end
of each phase.  Only occupied or label-carrying cells are ever
materialized, so dimension 4 stays affordable.  The run keeps each
surviving point as its level-0 cell.  A phase keys every point at once
by its cell, one floor of the level-0 cell packed into one int over the
per-axis hull of all input points' cells, and counts the cells, so it
costs O(surviving points) in C-level passes, and settles from the counts
alone every cell that builds no box: A1 (fewer than r points, no labelled
subcell: it changes nothing), A2, and A4 around a lone carrier with too
few points for a green.  The rest get a Python visit in key order, and a
point is read only where a lone carrier searches for a green.

Everything geometric is exact and works in Python ints.  Points are one
PointSet, int columns over their least common denominator, from the
loaders through normalize_points (which finds the exact nearest pair by
one sort at d = 1, else on a sampled grid keyed on the four axes with
the most distinct cells) to the run, the verifier and the dumps; cubes
are one CubeSet, its rows (corner, side) as int columns the same way.
Fraction tuples and FreeCubes exist only at the public edge.  The run
places a point by its cell floor(x rho) on the grid of level-0 side
1/rho and emits the selected cubes as a CubeSet over 1/rho, pruned on
its own shift graph.  The shift graph and the verifier scale a CubeSet
onto the grid of step 1/D, D = 10 (2 kappa + 1) times its denominator,
and compare int boxes there.  One sweep over first-axis faces shortlists
the box pairs that meet, and a point enters it by its cell floor(x0 D).
The same sweep, over the corridor prisms against the cubes, finds every
shift-graph corridor's blockers at once; _face_cells cuts a box by the
faces of another, for the A3 complement cubes and combine's lateral
cells.  The one float is VerificationReport.count_bound.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .exact import Rational, _frac, _int_columns

Point = Tuple[Fraction, ...]
IntBox = Tuple[Tuple[int, int], ...]  # per-axis closed [lo, hi] on an integer grid
Cell = Tuple[int, ...]  # per-axis index of a grid cell


class CoveringError(ValueError):
    pass


class InvalidParams(CoveringError):
    pass


class DuplicatePoints(CoveringError):
    pass


class OverlappingInput(CoveringError):
    def __init__(self, pair: Tuple[int, int]):
        super().__init__("cubes %d and %d overlap" % pair)
        self.pair = pair


# -- point sets --------------------------------------------------------------


@dataclass(frozen=True)
class PointSet(Sequence[Point]):
    """n points of R^d as d int columns over one denominator, the least, so
    equal sets compare equal: point i is (cols[0][i], ..., cols[d-1][i]) /
    den.  A set without points has no columns.  Items are Fraction tuples."""

    den: int
    cols: Tuple[Tuple[int, ...], ...]

    @classmethod
    def of(cls, points: Sequence[Sequence[Rational]], d: Optional[int] = None) -> "PointSet":
        """points as a PointSet (a PointSet comes back as it is).  Raises
        TypeError for a non-rational, then InvalidParams for a dimension."""
        if not isinstance(points, PointSet):
            types = {type(x) for p in points for x in p}
            if not all(issubclass(t, (int, Fraction)) for t in types):
                [_frac(x) for p in points for x in p]  # raises its TypeError
            if len(dims := {len(p) for p in points}) > 1 or 0 in dims:
                msg = "point dimension mismatch" if d else "points need one dimension d >= 1"
                raise InvalidParams(msg)
            coords = [x for p in points for x in p]
            nums, dens = [x.numerator for x in coords], [x.denominator for x in coords]
            points = cls.over(*_int_columns(nums, dens, dims.pop() if dims else 0))
        if d is not None and len(points.cols) not in (0, d):
            raise InvalidParams("point dimension mismatch")
        return points

    @classmethod
    def over(cls, den: int, cols: Sequence[Sequence[int]]) -> "PointSet":
        """The int columns cols over den > 0, reduced to the least denominator."""
        g = math.gcd(den, *(math.gcd(*col) for col in cols))
        if g > 1:
            den, cols = den // g, [[a // g for a in col] for col in cols]
        return cls(den, tuple(map(tuple, cols)) if cols and cols[0] else ())

    def __len__(self) -> int:
        return len(self.cols[0]) if self.cols else 0

    def __getitem__(self, i: int) -> Point:
        return tuple(Fraction(col[i], self.den) for col in self.cols)

    def __iter__(self) -> Iterator[Point]:
        return (tuple(Fraction(a, self.den) for a in row) for row in zip(*self.cols))


# -- basic box algebra -------------------------------------------------------


def boxes_overlap_interior(a: IntBox, b: IntBox) -> bool:
    """Do the open boxes meet?  Any ordered coordinates will do."""
    return all(max(la, lb) < min(ha, hb) for (la, ha), (lb, hb) in zip(a, b))


def box_intersection(a: IntBox, b: IntBox) -> IntBox:
    """Per-axis overlap of a and b; some axis has lo >= hi when the
    interiors are disjoint."""
    return tuple((max(la, lb), min(ha, hb)) for (la, ha), (lb, hb) in zip(a, b))


@dataclass(frozen=True)
class FreeCube:
    """An axis-aligned cube with exact rational corner and side."""

    corner: Tuple[Fraction, ...]
    side: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "corner", tuple(_frac(c) for c in self.corner))
        object.__setattr__(self, "side", _frac(self.side))
        if self.side <= 0:
            raise InvalidParams("cube side must be positive")


class CubeSet(PointSet):
    """Cubes of R^d as PointSet rows (corner_1, ..., corner_d, side), d + 1
    int columns over the least denominator.  Items are FreeCubes."""

    @classmethod
    def of(cls, cubes: Sequence[FreeCube]) -> "CubeSet":
        """cubes as a CubeSet (a CubeSet comes back equal)."""
        ps = cubes if isinstance(cubes, cls) else PointSet.of([(*c.corner, c.side) for c in cubes])
        return cls(ps.den, ps.cols)

    def __getitem__(self, i: int) -> FreeCube:
        *corner, side = super().__getitem__(i)
        return FreeCube(tuple(corner), side)

    def __iter__(self) -> Iterator[FreeCube]:
        return (FreeCube(row[:-1], row[-1]) for row in super().__iter__())


# -- complement covers (cube minus nested cube) ------------------------------


def _face_cells(q: IntBox, b: IntBox) -> List[IntBox]:
    """Partition of box q by the face planes of b that cut its interior:
    at most 3^d full-dimensional boxes, in lexicographic order."""
    segs = []
    for (ql, qh), (bl, bh) in zip(q, b):
        cuts = sorted({ql, qh, *(x for x in (bl, bh) if ql < x < qh)})
        segs.append(list(zip(cuts, cuts[1:])))
    return [tuple(combo) for combo in itertools.product(*segs)]


def _encapsulate(r: IntBox, qbox: IntBox, mid_axes: Set[int]) -> IntBox:
    """Grow a dissection box to a cube inside qbox avoiding the middle.

    The longest edge of r is always achieved on a non-middle axis
    because the gaps around a nested grid cube are multiples of its
    side; the cube keeps r's interval there (so it stays on one side of
    the removed cube) and stretches the other axes within qbox.
    """
    lens = [hi - lo for lo, hi in r]
    q = max(lens)
    axis = next((i for i, ln in enumerate(lens) if i not in mid_axes and ln == q), None)
    if axis is None:
        raise CoveringError("dissection box has no extreme non-middle axis")
    starts = [max(ql, min(lo, qh - q)) for (lo, _), (ql, qh) in zip(r, qbox)]
    cube = [(x, x + q) for x in starts]
    cube[axis] = r[axis]
    return tuple(cube)


def _complement_cubes(qbox: IntBox, bbox: IntBox) -> List[IntBox]:
    """Cover qbox minus bbox, a finer grid cube inside it, by at most
    3^d - 1 cubes inside qbox avoiding the interior of bbox."""
    return [
        _encapsulate(r, qbox, {i for i, side in enumerate(r) if side == bbox[i]})
        for r in _face_cells(qbox, bbox)
        if r != bbox
    ]


# -- normalization -----------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True)
class NormalizeTransform:
    scale: Fraction
    offset: Fraction  # same shift on every axis

    def invert(self, p: Sequence[Rational]) -> Point:
        return tuple((_frac(x) - self.offset) / self.scale for x in p)


def _least_square_distance(cols: Sequence[Sequence[int]]) -> int:
    """The exact least squared distance among n >= 2 int points, given
    per axis as cols; a repeated point raises DuplicatePoints.

    At d = 1 the nearest pair is adjacent in sorted order, so one sort
    of the column finds it.  For d >= 2, Rabin's sampled grid: the least
    m over n seeded random pairs bounds it, and any closer pair lies in
    the same or adjacent cells of side ceil(sqrt(m)).  The sample sets
    the running time, never the answer.  The grid keys on the four axes
    with the most distinct cells (all of them when d <= 4), so a cell
    has at most 80 neighbours; a closer pair is adjacent on every axis,
    so also on those four.
    """
    def squares(I: Sequence[int], J: Sequence[int]) -> List[int]:
        total = [0] * len(I)
        for col in cols:
            diff = list(map(operator.sub, map(col.__getitem__, I), map(col.__getitem__, J)))
            total = list(map(operator.add, total, map(operator.mul, diff, diff)))
        return total

    if len(cols) == 1:
        # on a line the nearest pair is adjacent in sorted order
        xs = sorted(cols[0])
        m = min(map(operator.sub, itertools.islice(xs, 1, None), xs)) ** 2
    else:
        n = len(cols[0])
        # each point against a random other one, 1 to n - 1 places ahead
        ahead = random.Random(0).choices(range(1, n), k=n)
        m = min(squares(range(n), [(i + t) % n for i, t in enumerate(ahead)]))
        if m:
            s = math.isqrt(m - 1) + 1
            # cell c has the key sum c_i w^i; digits stay below w/2 in size, so
            # c + e, e in {-1, 0, 1}^d, has key c + key e; forward e have key e > 0
            grid = cols
            if len(cols) > 4:
                busiest = sorted(range(len(cols)), key=lambda i: len({a // s for a in cols[i]}))[-4:]
                grid = [cols[i] for i in sorted(busiest)]
            w = 2 * max([max(map(abs, col)) // s for col in grid]) + 5
            keys = [0] * n
            for col in reversed(grid):
                keys = [key * w + a // s for key, a in zip(keys, col)]
            cells: Dict[int, List[int]] = {}
            for i, key in enumerate(keys):
                cells.setdefault(key, []).append(i)
            axes = [(-(w**i), 0, w**i) for i in range(len(grid))]
            steps = [t for t in map(sum, itertools.product(*axes)) if t > 0]
            I, J = [], []
            for key, ids in cells.items():
                near = ids + [j for t in steps for j in cells.get(key + t, ())]
                for a in range(len(ids)):
                    I += [ids[a]] * (len(near) - a - 1)
                    J += near[a + 1 :]
            m = min(squares(I, J) + [m])
    if m == 0:
        raise DuplicatePoints("points must be pairwise distinct")
    return m


def normalize_points(points: Sequence[Sequence[Rational]]) -> Tuple[PointSet, NormalizeTransform]:
    """Similarity making the minimal distance exceed the unit-cube diameter.

    Works on the int columns over the points' denominator L, ints that grow
    with the bit length of L.  With m > 0 their least squared distance, it
    scales by k = isqrt(d L^2 // m) + 1, the least integer with
    k^2 |p - q|^2 > d for every pair, then shifts by 1/p for the first
    prime p that leaves no coordinate an integer: ints k p a + L over p L.
    """
    ps = PointSet.of(points)
    L, cols = ps.den, ps.cols
    k = math.isqrt(len(cols) * L * L // _least_square_distance(cols)) + 1 if len(ps) > 1 else 1
    for prime in _PRIMES:
        # k x + 1/p = (k p a + L) / (p L) is an integer iff p L divides its numerator
        step, den = k * prime, prime * L
        shifted = [[step * a + L for a in col] for col in cols]
        if all(all(map(den.__rmod__, col)) for col in shifted):
            return PointSet.over(den, shifted), NormalizeTransform(Fraction(k), Fraction(1, prime))
    raise CoveringError("no shift candidate avoided the integer lattice")


# -- signed axis permutations -------------------------------------------------


@dataclass(frozen=True)
class SignedPermutation:
    """y_i = signs[i] * x[perm[i]]; an orthogonal map taking boxes to boxes."""

    perm: Tuple[int, ...]
    signs: Tuple[int, ...]

    def apply_box(self, b: IntBox) -> IntBox:
        """The image box; any ordered coordinates will do."""
        out = []
        for i in range(len(self.perm)):
            lo, hi = b[self.perm[i]]
            out.append((lo, hi) if self.signs[i] > 0 else (-hi, -lo))
        return tuple(out)

    def inverse(self) -> "SignedPermutation":
        where = [self.perm.index(j) for j in range(len(self.perm))]
        return SignedPermutation(tuple(where), tuple(self.signs[i] for i in where))

    @classmethod
    def sending_to_bottom(cls, orientation: Tuple[int, int], d: int) -> "SignedPermutation":
        """Map whose image of the orientation vector is -e1."""
        axis, sign = orientation
        perm = [axis] + [i for i in range(d) if i != axis]
        signs = [-sign] + [1] * (d - 1)
        return cls(tuple(perm), tuple(signs))


# -- algorithm state ----------------------------------------------------------


class CubeState:
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"
    A5 = "A5"
    A6 = "A6"


_YELLOW_STATES = (CubeState.A2, CubeState.A3)
_CARRIER_STATES = (CubeState.A4, CubeState.A5, CubeState.A6)


@dataclass(frozen=True)
class _CellInfo:
    state: str
    green: Optional[IntBox] = None  # A3: the green cube inside
    avoid: Optional[IntBox] = None  # A3: the carrier subcell it was built around


@dataclass
class PhaseStats:
    level: int
    processed: int = 0
    assigned: Dict[str, int] = field(default_factory=dict)
    yellows: int = 0
    central: int = 0
    deleted: int = 0


@dataclass
class CoverStats:
    phases: List[PhaseStats] = field(default_factory=list)
    s: int = 0
    b: int = 0
    g: int = 0
    dropped: int = 0  # cubes pruned for shift-graph in-degree >= 2


@dataclass
class ShiftGraph:
    nodes: int
    edges: List[Tuple[int, int]]

    def in_degrees(self) -> List[int]:
        deg = [0] * self.nodes
        for _, j in self.edges:
            deg[j] += 1
        return deg

    def out_degrees(self) -> List[int]:
        deg = [0] * self.nodes
        for i, _ in self.edges:
            deg[i] += 1
        return deg


@dataclass
class CoverResult:
    K: Sequence[FreeCube]  # a CubeSet from the run; uniform orientation: bott at the bottom
    axis_map: SignedPermutation
    stats: CoverStats


def _keys(cols: Sequence[Sequence[int]], origin: Cell, side: int, lo: Cell, hi: Cell) -> List[int]:
    """The keys of the cells floor((c - origin) / side) of the cells c,
    given per axis as cols, over those cells' hull (lo, hi): the axis-0
    coordinate, then the digits c - lo of the other axes in mixed radix,
    so sorted keys, negative ones too, run in lexicographic cell order."""
    keys = [(c - origin[0]) // side for c in cols[0]]
    for col, o, low, high in zip(cols[1:], origin[1:], lo[1:], hi[1:]):
        a, w = o + low * side, high - low + 1
        keys = [k * w + (c - a) // side for k, c in zip(keys, col)]
    return keys


def _unpack(keys: List[int], lo: Cell, hi: Cell) -> List[List[int]]:
    """Per axis, the coordinates of the cells with the given keys over
    the hull (lo, hi); the inverse of _keys."""
    cols = []
    for low, high in zip(lo[:0:-1], hi[:0:-1]):
        w = high - low + 1
        cols.append([low + k % w for k in keys])
        keys = [k // w for k in keys]
    return [keys] + cols[::-1]


class _CoverRun:
    """One covering run.  Lengths are ints in units of 1/rho, so a
    level-L cell has side rho^L; a point enters only by its level-0 cell
    floor(x rho), kept per axis in cells for the surviving points.

    Nested floors compose, so a point's level-L cell is one floor of its
    level-0 cell c, floor((c - origin) / rho^L); a phase keys the points
    by their cells at once with _keys.  The run keeps the last phase's
    labelled cells as (cell, label) pairs: a parent takes its tuple from
    a labelled subcell, and an A2 cell's is decoded from its key
    (_unpack)."""

    def __init__(self, points: Sequence[Sequence[Rational]], d: int, kappa: int, r: int):
        self.d = d
        self.kappa = kappa
        self.r = r
        self.rho = rho = 4 * kappa + 1
        self.m = rho**d
        # types and dimension, level-0 cells, then duplicates and integers
        points = PointSet.of(points, d)
        den, coords = points.den, points.cols
        self.cells = cols = [[a * rho // den for a in col] for col in coords] or [[]] * d
        # corners of the current grid and of the one below it
        self.origin = self.below = (0,) * d
        # per-axis least and greatest cell of all input points; lifting is
        # monotone per axis, so the hull lifts by the same formula as a cell
        self.lo: Cell = tuple([min(col, default=0) for col in cols])
        self.hi: Cell = tuple([max(col, default=0) for col in cols])
        # equal points share a cell, so only points of shared cells can repeat
        keys = _keys(cols, self.origin, 1, self.lo, self.hi)
        counts = Counter(keys)
        if len(counts) < len(points):
            shared = [i for i, key in enumerate(keys) if counts[key] > 1]
            if len({tuple([c[i] for c in coords]) for i in shared}) < len(shared):
                raise DuplicatePoints("points must be distinct")
        if not all(all(map(den.__rmod__, col)) for col in coords):
            raise InvalidParams("integer coordinate: input is not normalized")
        # offset of the next level's blocks in current-level cell units
        self.shift: Cell = (0,) * d
        self.states: List[Tuple[Cell, _CellInfo]] = []  # non-A1 cells of the last phase
        self.selected: List[Tuple[IntBox, Tuple[int, int]]] = []
        self.stats = CoverStats()
        self.level = 0

    # cell geometry ---------------------------------------------------------

    def cell_box(self, idx: Cell, level: int, origin: Cell) -> IntBox:
        side = self.rho**level
        return tuple((o + k * side, o + (k + 1) * side) for k, o in zip(idx, origin))

    # phase machinery ---------------------------------------------------------

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

    def choose_offset(self, offsets: List[Cell]) -> Cell:
        if offsets:
            # each yellow is central for exactly one offset; some offset
            # therefore meets the 1/rho^d quota, pick the smallest such
            return min(t for t, v in Counter(offsets).items() if v * self.m >= len(offsets))
        # unconstrained phase: align the blocks to the occupied range so
        # the levels keep coalescing (any fixed offset could leave a grid
        # plane between two point clusters forever)
        return tuple(c % self.rho for c in self.lo)

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

    def _assert_state(self, info: _CellInfo, counts: List[int]) -> None:
        """The bounds of info's state on the point counts of its cells."""
        m, r, state = self.m, self.r, info.state
        low = r if state == CubeState.A2 else 0
        high = {CubeState.A2: m, CubeState.A5: m, CubeState.A6: 2 * m * m}.get(state, 2 * m) * r
        assert low <= min(counts, default=low) and max(counts, default=low) < high
        assert info.state != CubeState.A3 or info.green is not None

    def result(self) -> CoverResult:
        counts = Counter(orientation for _, orientation in self.selected)
        assert self.stats.b <= 2 * max(self.stats.s, 1)
        # without a selection, -e0 already faces the bottom: the identity map
        best = max(sorted(counts), key=counts.__getitem__, default=(0, -1))
        amap = SignedPermutation.sending_to_bottom(best, self.d)
        boxes = [amap.apply_box(box) for box, o in self.selected if o == best]
        rows = [[lo for lo, _ in box] + [box[0][1] - box[0][0]] for box in boxes]
        # drop every cube of in-degree >= 2 until none is left, since a drop
        # can open a corridor
        while True:
            K = CubeSet.over(self.rho, list(zip(*rows)))
            in_deg = _shift_graph(_on_grid(K, self.kappa)).in_degrees()
            full = {j for j, deg in enumerate(in_deg) if deg > 1}
            if not full:
                return CoverResult(K, amap, self.stats)
            self.stats.dropped += len(full)
            rows = [row for t, row in enumerate(rows) if t not in full]


def run_covering(
    points: Sequence[Sequence[Rational]],
    d: int,
    kappa: int,
    r: int,
) -> CoverResult:
    """Run the covering algorithm on normalized points.

    Points must already be normalized (no integer coordinate, minimal
    distance above the unit-cube diameter); see normalize_points.
    Deterministic for a fixed input order.
    """
    if r < 1 or kappa < 1 or d < 1:
        raise InvalidParams("need r >= 1, kappa >= 1, d >= 1")
    run = _CoverRun(points, d, kappa, r)
    run.run()
    return run.result()


# -- shift graph --------------------------------------------------------------


class _Grid(NamedTuple):
    """Per cube its box, bott, shifted bott and shifted box on the grid of step 1/scale."""

    scale: int
    boxes: List[IntBox]
    botts: List[IntBox]
    shifted_botts: List[IntBox]
    shifts: List[IntBox]


def _on_grid(cubes: Sequence[FreeCube], kappa: int) -> _Grid:
    """The cubes on the grid of step 1/scale, scale = 10 (2 kappa + 1) den
    for den their CubeSet's denominator.  There every side is a multiple
    of 10 (2 kappa + 1), so side/10, the bott side h = side/(2 kappa + 1),
    kappa*h and h/10 are whole steps, and box and bott faces, all a
    corridor test sees, are multiples of 10."""
    K = CubeSet.of(cubes)
    w = 2 * kappa + 1
    grid = _Grid(10 * w * K.den, [], [], [], [])
    for *lo, s in zip(*K.cols):
        box = tuple([(10 * w * x, 10 * w * (x + s)) for x in lo])
        x0, h = box[0][0], 10 * s
        lat = tuple([(x + kappa * h, x + (kappa + 1) * h) for x, _ in box[1:]])
        grid.boxes.append(box)
        grid.botts.append(((x0, x0 + h),) + lat)
        grid.shifted_botts.append(((x0 - s, x0 + h - s),) + lat)
        grid.shifts.append(((x0 - w * s, box[0][1] - w * s),) + box[1:])
    return grid


def _sweep(a: Sequence[IntBox], lo0: List[int], hi0: List[int]) -> List[Tuple[int, int]]:
    """Index pairs (i, j) whose closed first-axis intervals, a[i]'s and
    [lo0[j], hi0[j]], meet: i ascending and, per i, j in the stable order
    of lo0.  A row's window is the bisect range of the sorted lower faces
    in [lo - widest, hi]."""
    order = sorted(range(len(lo0)), key=lo0.__getitem__)
    sorted_lo0 = [lo0[j] for j in order]
    widest = max(map(operator.sub, hi0, lo0), default=0)
    pairs: List[Tuple[int, int]] = []
    for i, box in enumerate(a):
        lo, hi = box[0]
        window = order[bisect_left(sorted_lo0, lo - widest) : bisect_right(sorted_lo0, hi)]
        pairs += [(i, j) for j in window if hi0[j] >= lo]
    return pairs


def _overlap_candidates(a: Sequence[IntBox], b: Sequence[IntBox]) -> List[Tuple[int, int]]:
    """Index pairs (i, j) whose closed boxes a[i] and b[j] meet, in the
    order of _sweep on the first axis."""
    return [
        (i, j)
        for i, j in _sweep(a, [box[0][0] for box in b], [box[0][1] for box in b])
        if all(l <= h2 and l2 <= h for (l, h), (l2, h2) in zip(a[i][1:], b[j][1:]))
    ]


def points_in_boxes(
    points: Sequence[Sequence[Rational]], boxes: Sequence[IntBox], scale: int
) -> List[List[int]]:
    """For each box on the grid of step 1/scale, the ascending ids of the
    points in it (closed).

    A point enters the sweep as the degenerate interval of its cell
    k = floor(x0 scale), which lies in [lo, hi] whenever x0 scale does;
    each candidate x = a/den is then checked exactly, lo*den <= a*scale
    <= hi*den on every axis.
    """
    ps = PointSet.of(points)
    den, cols = ps.den, ps.cols
    keys = [a * scale // den for a in cols[0]] if cols else []
    inside: List[List[int]] = [[] for _ in boxes]
    for i, j in _sweep(boxes, keys, keys):
        if all(lo * den <= col[j] * scale <= hi * den for col, (lo, hi) in zip(cols, boxes[i])):
            inside[i].append(j)
    for ids in inside:
        ids.sort()
    return inside


def _corridor_open(base: IntBox, blockers: List[IntBox]) -> bool:
    """Is any lateral point of base outside every (closed) blocker box?

    Exact decision by coordinate compression: the uncovered set changes
    only at blocker boundaries, so testing the critical coordinates and
    the midpoints between consecutive ones decides emptiness.  The
    coordinates are grid ints, multiples of 10 steps, so the midpoints
    are exact.
    """
    if not base:  # one-dimensional ambient space: the corridor is a point
        return not blockers
    axes_cands: List[List[int]] = []
    for ax, (lo, hi) in enumerate(base):
        crit = {lo, hi}
        for bl in blockers:
            bl_lo, bl_hi = bl[ax]
            if lo <= bl_lo <= hi:
                crit.add(bl_lo)
            if lo <= bl_hi <= hi:
                crit.add(bl_hi)
        vals = sorted(crit)
        cands = list(vals)
        for a, b in zip(vals, vals[1:]):
            cands.append((a + b) // 2)
        axes_cands.append(sorted(cands))
    for combo in itertools.product(*axes_cands):
        if not any(
            all(bl[ax][0] <= x <= bl[ax][1] for ax, x in enumerate(combo))
            for bl in blockers
        ):
            return True
    return False


def _shift_graph(grid: _Grid) -> ShiftGraph:
    """The shift graph of the cubes behind grid; see build_shift_graph.
    An edge (i, j), i != j, needs the shifted bott(K[i]) to meet shift(K[j])
    in an open set that spills outside bott(K[i]), and then an open
    corridor: the closed prism from the bottom of bott(K[i]) to the top of
    K[j] over their lateral overlap, blocked by every other cube that meets
    it.  One overlap sweep finds the blockers of all the prisms."""
    for i, j in _overlap_candidates(grid.boxes, grid.boxes):
        if i < j and boxes_overlap_interior(grid.boxes[i], grid.boxes[j]):
            raise OverlappingInput((i, j))
    pairs, prisms = [], []
    for i, j in _overlap_candidates(grid.shifted_botts, grid.shifts):
        inter = box_intersection(grid.shifted_botts[i], grid.shifts[j])
        if i == j or any(lo >= hi for lo, hi in inter):
            continue
        bi, bj = grid.botts[i], grid.boxes[j]
        if all(bl <= lo and hi <= bh for (lo, hi), (bl, bh) in zip(inter, bi)):
            continue
        base = box_intersection(bi[1:], bj[1:])
        if all(lo <= hi for lo, hi in base):
            pairs.append((i, j))
            prisms.append((tuple(sorted((bi[0][0], bj[0][1]))),) + base)
    blockers: List[List[IntBox]] = [[] for _ in pairs]
    for k, t in _overlap_candidates(prisms, grid.boxes):
        if t not in pairs[k]:
            blockers[k].append(grid.boxes[t][1:])
    edges = [ij for ij, prism, bl in zip(pairs, prisms, blockers) if _corridor_open(prism[1:], bl)]
    return ShiftGraph(len(grid.boxes), sorted(edges))


def build_shift_graph(k: Sequence[FreeCube], kappa: int = 1) -> ShiftGraph:
    """Exact shift graph of a family of non-overlapping cubes.

    Edge (Q1, Q2) iff the below-spill of the shifted bottom side-cube
    of Q1 meets shift(Q2) in a common interior point and an unblocked
    vertical segment joins bott(Q1) to the top of Q2.
    """
    return _shift_graph(_on_grid(k, kappa))


# -- verification --------------------------------------------------------------


@dataclass
class VerificationReport:
    n: int
    k_count: int
    non_overlap_ok: bool
    bott_ok: bool
    bott_failures: List[int]
    precondition_met: bool
    count_bound: float
    count_ok: bool
    edges: int
    edges_ok: bool
    max_in_degree: int
    in_degree_ok: bool
    # witnesses: a cube of largest in-degree (the lowest index; None
    # without edges) with its ascending sources, and the first
    # overlapping pair found (None when the cubes are disjoint)
    max_in_target: Optional[int] = None
    max_in_sources: List[int] = field(default_factory=list)
    overlap_pair: Optional[Tuple[int, int]] = None

    @property
    def all_ok(self) -> bool:
        return (
            self.non_overlap_ok
            and self.bott_ok
            and self.count_ok
            and self.edges_ok
            and self.in_degree_ok
        )


def verify_cover(
    points: Sequence[Sequence[Rational]],
    result: CoverResult,
    kappa: int,
    r: int,
) -> VerificationReport:
    """Check the three cover guarantees plus the shift-graph degree bound.

    Points are the ones handed to run_covering; the verifier maps the
    bottom side-cubes back through the inverse of the result's axis map
    and counts the points there.  The cube-count bound is only asserted
    when its precondition r <= n / (4 rho^(2d)) holds; the report
    records whether it did.
    """
    n = len(points)
    K = CubeSet.of(result.K)
    d = len(points[0]) if points else (len(K.cols) - 1 if K else 1)
    rho = 4 * kappa + 1

    grid = _on_grid(K, kappa)
    back = result.axis_map.inverse()
    inside = points_in_boxes(points, [back.apply_box(b) for b in grid.botts], grid.scale)
    bott_failures = [i for i, ids in enumerate(inside) if len(ids) < r]
    bott_ok = not bott_failures

    precondition_met = Fraction(r) <= Fraction(n, 4 * rho ** (2 * d)) if n else False
    bound = Fraction(n, 32 * d * rho ** (2 * d) * r)
    count_ok = (len(K) > bound) if precondition_met else True

    try:
        graph, overlap_pair = _shift_graph(grid), None
    except OverlappingInput as exc:
        graph, overlap_pair = ShiftGraph(len(K), []), exc.pair
    in_deg = graph.in_degrees()
    max_in = max(in_deg) if in_deg else 0
    target = in_deg.index(max_in) if max_in else None

    return VerificationReport(
        n=n,
        k_count=len(K),
        non_overlap_ok=overlap_pair is None,
        bott_ok=bott_ok,
        bott_failures=bott_failures,
        precondition_met=precondition_met,
        count_bound=float(bound),
        count_ok=count_ok,
        edges=len(graph.edges),
        edges_ok=len(graph.edges) <= len(K),
        max_in_degree=max_in,
        in_degree_ok=max_in <= 1,
        max_in_target=target,
        max_in_sources=[i for i, j in graph.edges if j == target],
        overlap_pair=overlap_pair,
    )
