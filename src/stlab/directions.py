"""Direction space of complex lines.

A complex line y = a*x + b has direction a (the vertical lines get the
direction "infinity").  The direction space is a 2-sphere: the finite
directions embed into the plane z = 0 of R^3 and stereographic
projection lifts them onto the sphere x^2 + y^2 + (z - 1/2)^2 = 1/4,
with infinity at (0, 0, 1).  Distances are central angles in degrees,
so antipodal directions sit at 180.

The module also carries the induced Moebius action of invertible
complex 2x2 matrices on directions (exact rational arithmetic) and the
map into the Grassmannian of 2-subspaces of R^4, whose metric is the
sum of the two principal angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

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
DIR_I = Direction.finite(GaussianRational(0, 1))
DIR_INF = Direction.infinity()
_UNIT_MAX_DEN = 10**6  # denominator bound of unit_direction_from_angle
_MAX_COVER_CENTERS = 10**6  # sphere_disk_cover's limit, about 0.4 GB of centers


def direction_of(l: ComplexLine) -> Direction:
    return DIR_INF if l.is_vertical else Direction(l.a)


@dataclass(frozen=True)
class SpherePoint:
    """Image of a direction on the sphere.

    ``raw`` is the exact point of the radius-1/2 sphere touching the
    plane at the origin; ``v`` is the same point recentred to the
    origin and rescaled to unit norm, which is what the metric uses.
    """

    raw: Tuple[float, float, float]
    v: Tuple[float, float, float]

    def __post_init__(self) -> None:
        n = math.sqrt(sum(c * c for c in self.v))
        if abs(n - 1.0) > 1e-12:
            raise GeometryError("sphere point not unit norm: %r" % (self.v,))


def to_sphere(d: Direction) -> SpherePoint:
    """Stereographic image of a direction.

    The unit-modulus circle |a| = 1 lands on the great circle H0 of the
    recentred sphere; infinity lands at the north pole.
    """
    if d.is_infinite:
        return SpherePoint((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    a = d.a
    rho2 = a.abs2()
    den = 1 + rho2
    raw = (a.re / den, a.im / den, rho2 / den)
    v = (2 * raw[0], 2 * raw[1], Fraction(2) * raw[2] - 1)
    return SpherePoint(
        (float(raw[0]), float(raw[1]), float(raw[2])),
        (float(v[0]), float(v[1]), float(v[2])),
    )


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

    def apply_vector(
        self, z1: GaussianRational, z2: GaussianRational
    ) -> Tuple[GaussianRational, GaussianRational]:
        return (
            self.m11 * z1 + self.m12 * z2,
            self.m21 * z1 + self.m22 * z2,
        )


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


@dataclass(frozen=True)
class Subspace2:
    """A 2-subspace of R^4 by an orthonormal basis (floating point)."""

    b1: Tuple[float, float, float, float]
    b2: Tuple[float, float, float, float]

    def __post_init__(self) -> None:
        n1 = math.sqrt(sum(c * c for c in self.b1))
        n2 = math.sqrt(sum(c * c for c in self.b2))
        dot = sum(x * y for x, y in zip(self.b1, self.b2))
        if abs(n1 - 1) > 1e-12 or abs(n2 - 1) > 1e-12 or abs(dot) > 1e-12:
            raise GeometryError("basis not orthonormal within 1e-12")

    @classmethod
    def from_span(cls, v1, v2) -> "Subspace2":
        a = np.array([[float(x) for x in v1], [float(x) for x in v2]], dtype=float)
        q, r = np.linalg.qr(a.T)
        if abs(r[0, 0] * r[1, 1]) < 1e-300:
            raise GeometryError("spanning vectors are dependent")
        return cls(tuple(q[:, 0]), tuple(q[:, 1]))

    def matrix(self) -> np.ndarray:
        return np.array([self.b1, self.b2], dtype=float).T  # 4x2


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

    Cosines come from the singular values of B1^T B2; sines from the
    residual B2 - B1 (B1^T B2), which keeps small angles accurate where
    arccos alone loses half the digits.
    """
    b1 = s1.matrix()
    b2 = s2.matrix()
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


def gr_dist_deg(s1: Subspace2, s2: Subspace2) -> float:
    """Sum of the two principal angles, in degrees in [0, 180]."""
    t1, t2 = principal_angles_deg(s1, s2)
    return t1 + t2


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
        v = (rad * math.cos(th), rad * math.sin(th), z)
        raw = (v[0] / 2.0, v[1] / 2.0, (v[2] + 1.0) / 2.0)
        pts.append(SpherePoint(raw, v))
    return pts


def max_cover_gap_deg(
    centers: List[SpherePoint], samples: int, seed: int = 0
) -> float:
    """Sampling oracle: worst angular distance from a sample to the cover."""
    if samples < 1:
        raise GeometryError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(samples, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    c = np.array([p.v for p in centers])
    worst = 0.0
    chunk = max(1, 10**7 // max(1, len(centers)))
    for i in range(0, samples, chunk):
        dots = x[i : i + chunk] @ c.T
        best = np.clip(dots.max(axis=1), -1.0, 1.0)
        gap = float(np.degrees(np.arccos(best)).max())
        worst = max(worst, gap)
    return worst
