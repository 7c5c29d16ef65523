"""Exact geometric kernel.

Points and lines of the complex plane with Gaussian-rational
coordinates and their incidence predicate, and the affine 2-flats of
real 4-space with their exact intersection.

Every predicate here is exact and nothing in this module touches floating
point: incidence is an equality test on Fractions, so rounding anywhere would
silently corrupt downstream counts, and the flats of R^4 eliminate on ints.

The one codec from rationals to ints, ``_int_columns``, lives here too:
point sets, cube sets, the text loaders and the incidence engines all
put their coordinates over one common denominator through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

Rational = Fraction

RationalLike = Union[Fraction, int]


class GeometryError(ValueError):
    """Contract violation in the exact kernel."""


class EqualPoints(GeometryError):
    pass


class DegenerateFlat(GeometryError):
    pass


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %s" % type(x).__name__)


def _int_columns(
    nums: Sequence[int], dens: Sequence[int], width: int
) -> Tuple[int, List[List[int]]]:
    """The lcm L of the nonzero denominators dens, which may be negative,
    and the rationals nums[k] / dens[k], width to a row, as width int
    columns of their multiples by L.  No rationals give L = 1."""
    L = math.lcm(*set(dens))  # math.lcm is never negative
    scaled = [a * (L // q) for a, q in zip(nums, dens)]  # L // q has the sign of q
    return L, [scaled[axis::width] for axis in range(width)]


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "GaussianRational":
        other = as_gaussian(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = as_gaussian(other)
        q = other.abs2()
        if q == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / q,
            (self.im * other.re - self.re * other.im) / q,
        )

    def __rtruediv__(self, other) -> "GaussianRational":
        return as_gaussian(other).__truediv__(self)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def sort_key(self) -> Tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return "GaussianRational(%s, %s)" % (self.re, self.im)


def as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError("cannot interpret %r as GaussianRational" % (x,))


@dataclass(frozen=True)
class ComplexPoint:
    z1: GaussianRational
    z2: GaussianRational

    def __post_init__(self) -> None:
        object.__setattr__(self, "z1", as_gaussian(self.z1))
        object.__setattr__(self, "z2", as_gaussian(self.z2))


@dataclass(frozen=True)
class ComplexLine:
    """A complex line, either y = a*x + b (slope a) or vertical x = c.

    The canonical parametrization keeps equality structural: a slanted
    line is never representable as a vertical one and vice versa, so
    dicts and sets can hash lines directly.
    """

    a: Optional[GaussianRational]  # None marks the vertical case
    b: GaussianRational  # intercept, or the abscissa c when vertical

    def __post_init__(self) -> None:
        if self.a is not None:
            object.__setattr__(self, "a", as_gaussian(self.a))
        object.__setattr__(self, "b", as_gaussian(self.b))

    @classmethod
    def slanted(cls, a, b) -> "ComplexLine":
        return cls(as_gaussian(a), b)

    @classmethod
    def vertical(cls, c) -> "ComplexLine":
        return cls(None, c)

    @property
    def is_vertical(self) -> bool:
        return self.a is None

    def sort_key(self):
        if self.is_vertical:
            return (1,) + self.b.sort_key() + (Fraction(0), Fraction(0))
        return (0,) + self.a.sort_key() + self.b.sort_key()


def incident(p: ComplexPoint, l: ComplexLine) -> bool:
    """Exact membership of a point on a complex line."""
    if l.is_vertical:
        return p.z1 == l.b
    return p.z2 == l.a * p.z1 + l.b


def line_through(p: ComplexPoint, q: ComplexPoint) -> ComplexLine:
    """The unique complex line incident to two distinct points."""
    if p == q:
        raise EqualPoints("points coincide")
    if p.z1 == q.z1:
        return ComplexLine.vertical(p.z1)
    a = (q.z2 - p.z2) / (q.z1 - p.z1)
    return ComplexLine.slanted(a, p.z2 - a * p.z1)


# -- real 4-space ----------------------------------------------------------


@dataclass(frozen=True)
class RVector4:
    x1: Fraction
    x2: Fraction
    x3: Fraction
    x4: Fraction

    def __post_init__(self) -> None:
        for name in ("x1", "x2", "x3", "x4"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    @classmethod
    def of(cls, coords: Sequence[RationalLike]) -> "RVector4":
        if len(coords) != 4:
            raise ValueError("RVector4 needs 4 coordinates")
        return cls(*coords)

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.x1, self.x2, self.x3, self.x4)

    def __add__(self, o: "RVector4") -> "RVector4":
        return RVector4(self.x1 + o.x1, self.x2 + o.x2, self.x3 + o.x3, self.x4 + o.x4)

    def __sub__(self, o: "RVector4") -> "RVector4":
        return RVector4(self.x1 - o.x1, self.x2 - o.x2, self.x3 - o.x3, self.x4 - o.x4)

    def scale(self, k: RationalLike) -> "RVector4":
        k = _frac(k)
        return RVector4(self.x1 * k, self.x2 * k, self.x3 * k, self.x4 * k)


def _ints(v: RVector4) -> Tuple[int, List[int]]:
    """The lcm L of v's denominators and v's coordinates times L."""
    L = math.lcm(*[x.denominator for x in v.as_tuple()])
    return L, [x.numerator * (L // x.denominator) for x in v.as_tuple()]


def _bareiss(rows: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan elimination of int rows on their first four
    columns (Bareiss, Math. Comp. 22, 1968): the rows and the pivot columns,
    whose count is the rank.  After k pivots each entry is a minor of order
    k + 1 (Sylvester's identity; Cramer's rule in a pivot row), so each
    division is exact; at full rank every pivot is the determinant D and a
    fifth entry is D times its unknown."""
    m = [list(r) for r in rows]
    pivots: List[int] = []
    prev = 1
    for col in range(4):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r, row in enumerate(m):
            if r != rank:
                f = row[col]
                m[r] = [(pv * x - f * y) // prev for x, y in zip(row, m[rank])]
        prev = pv
        pivots.append(col)
    return m, pivots


@dataclass(frozen=True)
class Flat2:
    """An affine 2-flat of R^4 given by a base point and two directions.

    Two Flat2 values compare equal iff they describe the same affine
    flat, irrespective of the chosen base and spanning vectors.
    """

    base: RVector4
    dir1: RVector4
    dir2: RVector4

    def __post_init__(self) -> None:
        if len(_bareiss(self._directions())[1]) != 2:
            raise DegenerateFlat("spanning directions are dependent")

    def _directions(self) -> List[List[int]]:
        """The two directions as int rows, each scaled by its own denominators' lcm."""
        return [_ints(self.dir1)[1], _ints(self.dir2)[1]]

    def contains(self, v: RVector4) -> bool:
        L, base = _ints(self.base)
        M, w = _ints(v)
        w = [L * x - M * b for x, b in zip(w, base)]  # v - base, times L*M
        return len(_bareiss(self._directions() + [w])[1]) == 2

    def same_direction(self, other: "Flat2") -> bool:
        return len(_bareiss(self._directions() + other._directions())[1]) == 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Flat2):
            return NotImplemented
        return self.same_direction(other) and self.contains(other.base)

    __hash__ = None  # geometric equality is incompatible with field hashing


@dataclass(frozen=True)
class FlatMeet:
    """Classification of the intersection of two affine 2-flats."""

    kind: str  # "point" | "empty" | "line" | "coincide"
    point: Optional[RVector4] = None

    POINT = "point"
    EMPTY = "empty"
    LINE = "line"
    COINCIDE = "coincide"


def flat_intersect(f1: Flat2, f2: Flat2) -> FlatMeet:
    """Exact classification of the intersection of two 2-flats in R^4.

    Solves base1 + s*d1 + t*d2 = base2 + u*e1 + v*e2, times the bases'
    denominators L1 and L2, by fraction-free elimination and classifies by
    rank and consistency: a crossing is four ints over D*L1*L2, D the determinant.
    """
    L1, b1 = _ints(f1.base)
    L2, b2 = _ints(f2.base)
    (d1, d2), (e1, e2) = f1._directions(), f2._directions()
    m, pivots = _bareiss([[d1[i], d2[i], -e1[i], -e2[i], b2[i] * L1 - b1[i] * L2] for i in range(4)])
    rank = len(pivots)
    if any(m[r][4] for r in range(rank, 4)):
        return FlatMeet(FlatMeet.EMPTY)
    if rank == 4:
        D, s, t = m[0][0], m[0][4], m[1][4]  # s and t times D*L1*L2
        pt = [Fraction(b * D * L2 + s * x + t * y, D * L1 * L2) for b, x, y in zip(b1, d1, d2)]
        return FlatMeet(FlatMeet.POINT, RVector4(*pt))
    if rank == 3:
        return FlatMeet(FlatMeet.LINE)
    # rank 2 and consistent: identical direction spaces and shared point
    return FlatMeet(FlatMeet.COINCIDE)
