"""Deterministic fixture generators.

Everything here is reproducible from a seed.  Random coordinates are
drawn from a bounded integer lattice and then perturbed by distinct
odd dyadic offsets, so no two generated values collide and accidental
incidences cannot be lattice artifacts.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, List, Tuple

from .exact import (
    ComplexLine,
    ComplexPoint,
    Flat2,
    GaussianRational,
    GeometryError,
    RVector4,
    line_through,
)
from .incidence import count_indexed
from .regions import CANONICAL_SPANS, FlatBundle, canonical_flat, canonical_frame
from .directions import Subspace2, gr_dist_deg


class SpreadTooLarge(GeometryError):
    pass


def gen_erdos(k: int) -> Tuple[List[ComplexPoint], List[ComplexLine]]:
    """The classical tight grid family, read as complex points and lines.

    Points (i, j) for 1 <= i <= k, 1 <= j <= 2k^2; lines y = m*x + b
    for 1 <= m <= k, 1 <= b <= k^2.  Every line meets exactly k points
    and the incidence count is exactly k^4; both identities are
    re-checked on every call before the system is returned.
    """
    if k < 1:
        raise GeometryError("k must be at least 1")
    points = [
        ComplexPoint(GaussianRational(i), GaussianRational(j))
        for i in range(1, k + 1)
        for j in range(1, 2 * k * k + 1)
    ]
    lines = [
        ComplexLine.slanted(GaussianRational(m), GaussianRational(b))
        for m in range(1, k + 1)
        for b in range(1, k * k + 1)
    ]
    if count_indexed(points, lines) != k**4:
        raise AssertionError("incidence identity failed for k=%d" % k)
    for l in lines:
        on = sum(1 for x in range(1, k + 1) if 1 <= l.a.re * x + l.b.re <= 2 * k * k)
        if on != k:
            raise AssertionError("line count identity failed for k=%d" % k)
    return points, lines


def _coordinates(rng: random.Random, span: int) -> Callable[[], Fraction]:
    """Draws of an integer in [-span, span] plus the next odd multiple of
    2^-20; the distinct offsets keep all drawn coordinates distinct."""
    odd = itertools.count(1, 2)
    return lambda: rng.randint(-span, span) + Fraction(next(odd), 2**20)


def gen_random_system(
    n: int, e: int, seed: int
) -> Tuple[List[ComplexPoint], List[ComplexLine]]:
    """Seeded random system with a planted share of incidences.

    Half of the lines pass through sampled point pairs so incidence
    counts are nontrivial; the rest are uniform.  Coordinates carry
    distinct odd dyadic offsets, so points and lines are duplicate-free
    by construction.
    """
    if n < 0 or e < 0:
        raise GeometryError("n and e must be non-negative")
    rng = random.Random(seed)
    draw = _coordinates(rng, 3 * max(n, e, 4))
    points = [
        ComplexPoint(GaussianRational(draw(), draw()), GaussianRational(draw(), draw()))
        for _ in range(n)
    ]
    lines: List[ComplexLine] = []
    seen = set()
    while len(lines) < e:
        if len(points) >= 2 and rng.random() < 0.5:
            i, j = rng.sample(range(len(points)), 2)
            cand = line_through(points[i], points[j])
        elif rng.random() < 0.1:
            cand = ComplexLine.vertical(GaussianRational(draw(), draw()))
        else:
            cand = ComplexLine.slanted(
                GaussianRational(draw(), draw()), GaussianRational(draw(), draw())
            )
        if cand not in seen:
            seen.add(cand)
            lines.append(cand)
    return points, lines


def gen_bundle_fixture(
    m: int, per_point: int, spread_deg: float, seed: int
) -> Tuple[List[Tuple[Fraction, Fraction, Fraction, Fraction]], FlatBundle]:
    """Anchors plus two flat families tilted at most spread_deg from the
    canonical orthogonal pair.

    Spread 0 produces exactly-canonical rational flats.  Positive
    spreads perturb the spanning vectors inside the complementary
    subspace by rational amounts and rescale until the measured
    Grassmann distance drops under the requested spread.
    """
    if not (0 <= spread_deg < 10):
        raise SpreadTooLarge("spread must lie in [0, 10), got %s" % spread_deg)
    if m < 1 or per_point < 1:
        raise GeometryError("m and per_point must be positive")
    rng = random.Random(seed)
    draw = _coordinates(rng, max(4, round(2.2 * m**0.25) + 1))
    anchors: List[Tuple[Fraction, Fraction, Fraction, Fraction]] = []
    seen = set()
    while len(anchors) < m:
        t = (draw(), draw(), draw(), draw())
        if t not in seen:
            seen.add(t)
            anchors.append(t)

    poles = canonical_frame()

    def perturbed_flat(anchor, family: int) -> Flat2:
        if spread_deg == 0:
            return canonical_flat(anchor, family)
        u1, u2 = (RVector4.of(v) for v in CANONICAL_SPANS[family])
        w1, w2 = (RVector4.of(v) for v in CANONICAL_SPANS[1 - family])
        target = rng.uniform(0.15, 0.92) * spread_deg
        eps = Fraction(target / 120).limit_denominator(10**4)
        deltas = [
            Fraction(rng.uniform(-1, 1)).limit_denominator(10**4) * eps for _ in range(4)
        ]
        for _ in range(32):
            d1 = u1 + w1.scale(deltas[0]) + w2.scale(deltas[1])
            d2 = u2 + w1.scale(deltas[2]) + w2.scale(deltas[3])
            sub = Subspace2.from_span(d1.as_tuple(), d2.as_tuple())
            if gr_dist_deg(sub, poles[family]) <= spread_deg * 0.999:
                return Flat2(RVector4.of(anchor), d1, d2)
            deltas = [x / 2 for x in deltas]
        return canonical_flat(anchor, family)

    family1 = [[perturbed_flat(a, 0) for _ in range(per_point)] for a in anchors]
    family2 = [[perturbed_flat(a, 1) for _ in range(per_point)] for a in anchors]
    return anchors, FlatBundle(list(anchors), family1, family2)
