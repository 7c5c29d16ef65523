"""Direction space of complex lines.

A complex line y = a*x + b has direction a (the vertical lines get the
direction "infinity").  The direction space is a 2-sphere: stereographic
projection lifts the finite directions onto the unit sphere of R^3, with
0 at (0, 0, -1), infinity at (0, 0, 1) and the unit circle |a| = 1 on
the equator H0.  Distances are central angles in degrees, so antipodal
directions sit at 180.

The module also carries the induced Moebius action of invertible
complex 2x2 matrices on directions (exact rational arithmetic) and the
map into the Grassmannian of 2-subspaces of R^4, whose metric is the
sum of the two principal angles; every measurement is on plain floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .exact import (
    ComplexLine,
    GaussianRational,
    GeometryError,
    Rational,
    as_gaussian,
)


class SingularMap(GeometryError):
    pass


class LambdaOutOfRange(GeometryError):
    pass


class PoleDirection(GeometryError):
    pass


class UnitModulusRequired(GeometryError):
    pass


@dataclass(frozen=True)
class Direction:
    """A point of the direction sphere: a finite slope or infinity."""

    a: Optional[GaussianRational]  # None encodes the infinite direction

    @classmethod
    def finite(cls, a) -> "Direction":
        return cls(as_gaussian(a))

    @classmethod
    def infinity(cls) -> "Direction":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.a is None

    def __repr__(self) -> str:
        return "Direction(inf)" if self.is_infinite else "Direction(%r)" % (self.a,)


DIR_ZERO = Direction.finite(0)
DIR_ONE = Direction.finite(1)
DIR_INF = Direction.infinity()
_UNIT_MAX_DEN = 10**6  # denominator bound of unit_direction_from_angle
_MAX_COVER_CENTERS = 10**6  # sphere_disk_cover's limit, about 0.4 GB of centers


def direction_of(l: ComplexLine) -> Direction:
    return DIR_INF if l.is_vertical else Direction(l.a)


@dataclass(frozen=True)
class SpherePoint:
    """Image of a direction on the unit sphere."""

    v: Tuple[float, float, float]

    def __post_init__(self) -> None:
        if abs(math.hypot(*self.v) - 1.0) > 1e-12:
            raise GeometryError("sphere point not unit norm: %r" % (self.v,))


def to_sphere(d: Direction) -> SpherePoint:
    """Stereographic image of a direction.

    v = (2 Re a, 2 Im a, |a|^2 - 1) / (1 + |a|^2), exact until each
    coordinate is rounded once to a float.  The unit-modulus circle
    |a| = 1 lands on the great circle H0; infinity lands at the north pole.
    """
    if d.is_infinite:
        return SpherePoint((0.0, 0.0, 1.0))
    a = d.a
    rho2 = a.abs2()
    den = 1 + rho2
    return SpherePoint((float(2 * a.re / den), float(2 * a.im / den), float((rho2 - 1) / den)))


def _angle_deg(u: Tuple[float, float, float], w: Tuple[float, float, float]) -> float:
    # 2*atan2(|u-w|, |u+w|) is stable near 0 and near 180, unlike acos.
    du = math.sqrt(sum((a - b) ** 2 for a, b in zip(u, w)))
    su = math.sqrt(sum((a + b) ** 2 for a, b in zip(u, w)))
    return math.degrees(2.0 * math.atan2(du, su))


def dist_deg(d1: Direction, d2: Direction) -> float:
    """Central angle between sphere images, in degrees in [0, 180]."""
    return _angle_deg(to_sphere(d1).v, to_sphere(d2).v)


def is_orthogonal(d1: Direction, d2: Direction) -> bool:
    """Exact antipodality test.

    Finite directions are orthogonal when a1 * conj(a2) = -1; the pair
    {0, infinity} is orthogonal as well.  Orthogonal directions are
    exactly the antipodal pairs on the sphere.
    """
    if d1.is_infinite and d2.is_infinite:
        return False
    if d1.is_infinite:
        return d2.a.is_zero()
    if d2.is_infinite:
        return d1.a.is_zero()
    prod = d1.a * d2.a.conjugate()
    return prod.re == -1 and prod.im == 0


@dataclass(frozen=True)
class ComplexLinearMap:
    """Invertible 2x2 complex-rational matrix acting on C^2.

    The action on directions is the induced Moebius map; overall scalar
    factors are irrelevant there, which is what keeps the arithmetic
    rational (no normalizing square roots).
    """

    m11: GaussianRational
    m12: GaussianRational
    m21: GaussianRational
    m22: GaussianRational

    def __post_init__(self) -> None:
        for name in ("m11", "m12", "m21", "m22"):
            object.__setattr__(self, name, as_gaussian(getattr(self, name)))
        if self.det().is_zero():
            raise SingularMap("zero determinant")

    @classmethod
    def identity(cls) -> "ComplexLinearMap":
        return cls(1, 0, 0, 1)

    def det(self) -> GaussianRational:
        return self.m11 * self.m22 - self.m12 * self.m21

    def compose(self, inner: "ComplexLinearMap") -> "ComplexLinearMap":
        """self after inner: apply(compose(self, inner), x) = self(inner(x))."""
        return ComplexLinearMap(
            self.m11 * inner.m11 + self.m12 * inner.m21,
            self.m11 * inner.m12 + self.m12 * inner.m22,
            self.m21 * inner.m11 + self.m22 * inner.m21,
            self.m21 * inner.m12 + self.m22 * inner.m22,
        )

    def inverse(self) -> "ComplexLinearMap":
        # adjugate; determinant scalar is irrelevant to the direction action
        return ComplexLinearMap(self.m22, -self.m12, -self.m21, self.m11)


def _ints(a: GaussianRational) -> Tuple[int, int, int]:
    """a as (x + iy) / n with ints x, y and n = re.den * im.den > 0."""
    (xn, xd), (yn, yd) = a.re.as_integer_ratio(), a.im.as_integer_ratio()
    return xn * yd, yn * xd, xd * yd


def apply_mobius(m: ComplexLinearMap, d: Direction) -> Direction:
    """Direction of the image line: the induced action on the sphere.

    A line of slope a has direction vector (1, a); the image direction
    vector is (m11 + m12*a, m21 + m22*a), hence the Moebius formula
    with the usual conventions at infinity.  With a = (u + iv)/n
    (infinity as 1/0) and each entry over its own denominator, N = num n
    d21 d22 and M = den n d11 d12 are Gaussian integers, and one division
    gives the image N conj(M) d11 d12 / (|M|^2 d21 d22), or infinity if M = 0.
    """
    u, v, n = (1, 0, 0) if d.is_infinite else _ints(d.a)
    (x11, y11, d11), (x12, y12, d12), (x21, y21, d21), (x22, y22, d22) = map(
        _ints, (m.m11, m.m12, m.m21, m.m22)
    )
    nx = (x22 * u - y22 * v) * d21 + x21 * n * d22
    ny = (x22 * v + y22 * u) * d21 + y21 * n * d22
    mx = (x12 * u - y12 * v) * d11 + x11 * n * d12
    my = (x12 * v + y12 * u) * d11 + y11 * n * d12
    q = (mx * mx + my * my) * d21 * d22
    if q == 0:
        return DIR_INF
    s = d11 * d12
    return Direction(GaussianRational(
        Fraction((nx * mx + ny * my) * s, q), Fraction((ny * mx - nx * my) * s, q)
    ))


def scaling_map(c) -> ComplexLinearMap:
    """(z1, z2) -> (z1, z2 / c); divides every slope by c."""
    c = as_gaussian(c)
    if c.is_zero():
        raise SingularMap("scaling by zero")
    return ComplexLinearMap(GaussianRational(1), GaussianRational(0), GaussianRational(0), 1 / c)


def shear_map(mu) -> ComplexLinearMap:
    """(z1, z2) -> (z1, z2 + mu*z1); adds mu to every finite slope."""
    return ComplexLinearMap(GaussianRational(1), GaussianRational(0), as_gaussian(mu), GaussianRational(1))


def pi_lambda(center: Direction, lam: Rational) -> ComplexLinearMap:
    """The one-parameter squeeze fixing ``center`` and its antipode.

    For center 1 this is [[1, lam], [lam, 1]] (the 1/sqrt(1 - lam^2)
    normalization is dropped: scalars do not move directions, and
    dropping it keeps the matrix rational).  General unit-modulus
    centers conjugate that matrix by the slope scaling onto the center.
    Directions flow toward the center along the meridian half-circles
    through the two fixed points as lam grows from 0 toward 1.
    """
    lam = Fraction(lam)
    if not (0 <= lam < 1):
        raise LambdaOutOfRange("lambda must lie in [0, 1), got %s" % lam)
    if center.is_infinite:
        raise UnitModulusRequired("center must be a finite unit-modulus direction")
    a = center.a
    if a.abs2() != 1:
        raise UnitModulusRequired("center must have |a| = 1 exactly; got |a|^2 = %s" % a.abs2())
    one = GaussianRational(1)
    return ComplexLinearMap(one, as_gaussian(lam) * a, as_gaussian(lam) / a, one)


def gamma_arg(d: Direction) -> float:
    """Meridian projection to H0, reported as an angle in (-180, 180].

    Defined for neither pole: the meridians through 0 and infinity are
    the constant-argument rays, so the projection of a is a/|a|.  The
    angle is a float for display only; arc quotas are decided exactly
    by ``diagnostics.ArcSpec.contains``, whose arcs end on multiples of
    45 degrees.
    """
    if d.is_infinite or d.a.is_zero():
        raise PoleDirection("gamma undefined at 0 and infinity")
    re, im = d.a.re, d.a.im
    if im == 0:
        return 0.0 if re > 0 else 180.0
    if re == 0:
        return 90.0 if im > 0 else -90.0
    return math.degrees(math.atan2(float(im), float(re)))


def unit_direction_from_angle(theta_deg: float) -> Direction:
    """A Gaussian-rational direction of exactly unit modulus near theta.

    Uses the tangent half-angle parametrization, so |a| = 1 holds as an
    exact rational identity while the argument lands within roughly
    1/_UNIT_MAX_DEN of the requested angle.
    """
    theta = math.radians(theta_deg)
    if abs(math.cos(theta / 2)) < 1e-9:
        return Direction.finite(GaussianRational(-1, 0))
    t = Fraction(math.tan(theta / 2)).limit_denominator(_UNIT_MAX_DEN)
    den = 1 + t * t
    return Direction.finite(GaussianRational((1 - t * t) / den, 2 * t / den))


# -- Grassmannian of 2-subspaces of R^4 -------------------------------------


def _dot(u: Tuple[float, ...], w: Tuple[float, ...]) -> float:
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2] + u[3] * w[3]


def _qr2(v1, v2) -> Tuple[Tuple[float, ...], Tuple[float, ...], float, float, float]:
    """Thin QR (q1, q2, r11, r12, r22) of the 4-vector columns v1, v2 by
    Gram-Schmidt with one re-orthogonalisation; a zero column gets q = 0."""
    r11 = math.hypot(*v1)
    q1 = tuple(x / r11 for x in v1) if r11 else tuple(v1)
    r12 = _dot(q1, v2)
    w = tuple(b - r12 * a for a, b in zip(q1, v2))
    c = _dot(q1, w)
    w = tuple(b - c * a for a, b in zip(q1, w))
    r22 = math.hypot(*w)
    return q1, tuple(x / r22 for x in w) if r22 else w, r11, r12 + c, r22


def _singular_values(a: float, b: float, c: float, d: float) -> Tuple[float, float]:
    """Singular values (largest first) of [[a, b], [c, d]] in closed form."""
    h1, h2 = math.hypot(a + d, c - b), math.hypot(a - d, b + c)
    return (h1 + h2) / 2, abs(h1 - h2) / 2


@dataclass(frozen=True)
class Subspace2:
    """A 2-subspace of R^4 by an orthonormal basis of plain floats."""

    b1: Tuple[float, float, float, float]
    b2: Tuple[float, float, float, float]

    def __post_init__(self) -> None:
        n1, n2, dot = math.hypot(*self.b1), math.hypot(*self.b2), _dot(self.b1, self.b2)
        if abs(n1 - 1) > 1e-12 or abs(n2 - 1) > 1e-12 or abs(dot) > 1e-12:
            raise GeometryError("basis not orthonormal within 1e-12")

    @classmethod
    def from_span(cls, v1, v2) -> "Subspace2":
        q1, q2, r11, r12, r22 = _qr2([float(x) for x in v1], [float(x) for x in v2])
        if abs(r11 * r22) < 1e-300 or r22 < 1e-12 * abs(r12):  # v2's angle to v1 below 1e-12
            raise GeometryError("spanning vectors are dependent")
        return cls(q1, q2)


def tau_hat(d: Direction) -> Subspace2:
    """Direction subspace of the embedded line, as a point of Gr(2,2).

    The complex line of slope a through the origin spans (1, 0, Re a,
    Im a) and (0, 1, -Im a, Re a) in R^4; those are orthogonal with
    equal norms, so normalization is the only float step.
    """
    if d.is_infinite:
        return Subspace2((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
    a = d.a
    n = math.sqrt(float(1 + a.abs2()))
    ar, ai = float(a.re), float(a.im)
    return Subspace2(
        (1.0 / n, 0.0, ar / n, ai / n),
        (0.0, 1.0 / n, -ai / n, ar / n),
    )


def principal_angles_deg(s1: Subspace2, s2: Subspace2) -> Tuple[float, float]:
    """The two canonical angles between 2-subspaces, each in [0, 90].

    Cosines are the singular values of M = B1^T B2, sines those of the
    R factor of the residual B2 - B1 M, which keeps small angles accurate
    where arccos alone loses half the digits.
    """
    (p1, p2), (q1, q2) = (s1.b1, s1.b2), (s2.b1, s2.b2)
    a, b, c, d = _dot(p1, q1), _dot(p1, q2), _dot(p2, q1), _dot(p2, q2)
    r1 = tuple(x - a * u - c * w for x, u, w in zip(q1, p1, p2))
    r2 = tuple(x - b * u - d * w for x, u, w in zip(q2, p1, p2))
    _, _, t11, t12, t22 = _qr2(r1, r2)
    cos_big, cos_small = _singular_values(a, b, c, d)
    sin_big, sin_small = _singular_values(t11, t12, 0.0, t22)
    return (
        math.degrees(math.atan2(min(sin_small, 1.0), min(cos_big, 1.0))),
        math.degrees(math.atan2(min(sin_big, 1.0), min(cos_small, 1.0))),
    )


def gr_dist_deg(s1: Subspace2, s2: Subspace2) -> float:
    """Sum of the two principal angles, in degrees in [0, 180]."""
    return sum(principal_angles_deg(s1, s2))


# -- disk covers of the sphere ----------------------------------------------


def sphere_disk_cover(delta_deg: float) -> List[SpherePoint]:
    """Deterministic centers whose delta-diameter caps cover the sphere.

    A Fibonacci spiral of ceil(12 / r^2) points (r the cap radius in
    radians) has covering radius comfortably below r; the constant 12
    leaves about a 20 percent margin over the measured covering radius
    of the spiral.  Only an existence count is needed downstream, not
    optimality.  A delta needing more than _MAX_COVER_CENTERS centers
    (below about 0.4 degrees) is rejected before any is built.
    """
    if not delta_deg >= 0.01:  # also rejects nan
        raise GeometryError("delta below the supported resolution 0.01 degrees")
    r = math.radians(delta_deg / 2.0)
    n = max(2, math.ceil(12.0 / (r * r)))
    if n > _MAX_COVER_CENTERS:
        raise GeometryError(
            "delta %g degrees needs %d cover centers, above the limit %d"
            % (delta_deg, n, _MAX_COVER_CENTERS)
        )
    pts = []
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        rad = math.sqrt(max(0.0, 1.0 - z * z))
        th = golden * i
        pts.append(SpherePoint((rad * math.cos(th), rad * math.sin(th), z)))
    return pts


def max_cover_gap_deg(
    centers: List[SpherePoint], samples: int, seed: int = 0
) -> float:
    """Sampling oracle: worst angular distance from a sample to the cover.

    The samples are normalised ``random.Random(seed).gauss`` triples.
    Centers are bucketed on a grid of chord side s, about twice their
    spacing.  Any center within chord 0.99 s of a sample lies in the 27
    cells around it, so a best dot product there of at least 1 - 0.49 s^2
    is the exact nearest; below that, every center is scanned.
    """
    if samples < 1 or not centers:
        raise GeometryError("samples must be at least 1, over at least one center")
    side = 2.0 * math.sqrt(4.0 * math.pi / len(centers))
    every = [p.v for p in centers]
    cells, blocks = {}, {}
    for v in every:
        key = (math.floor(v[0] / side), math.floor(v[1] / side), math.floor(v[2] / side))
        cells.setdefault(key, []).append(v)
    gauss, worst = random.Random(seed).gauss, 1.0
    for _ in range(samples):
        x, y, z = gauss(0.0, 1.0), gauss(0.0, 1.0), gauss(0.0, 1.0)
        nrm = math.hypot(x, y, z)
        x, y, z = x / nrm, y / nrm, z / nrm
        key = (math.floor(x / side), math.floor(y / side), math.floor(z / side))
        if key not in blocks:
            i, j, k = key
            blocks[key] = [v for a in (i - 1, i, i + 1) for b in (j - 1, j, j + 1)
                           for c in (k - 1, k, k + 1) for v in cells.get((a, b, c), ())]
        best = max([x * cx + y * cy + z * cz for cx, cy, cz in blocks[key]], default=-2.0)
        if best < 1.0 - 0.49 * side * side:
            best = max([x * cx + y * cy + z * cz for cx, cy, cz in every])
        worst = min(worst, best)
    return math.degrees(math.acos(max(-1.0, worst)))
