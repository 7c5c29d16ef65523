"""Pins of the R^4 kernel in ``exact``.

The kind and exact crossing point of ``flat_intersect`` on seeded flat
pairs of every ``FlatMeet`` kind, and ``contains``, ``same_direction``,
``==`` and ``DegenerateFlat`` on seeded inputs.  The flats are
canonical, tilted as in the cover benchmark's regions bundles, drawn by
``gen_bundle_fixture``'s perturbation, or random with negative entries
and denominators up to 2^60.  Degenerate pairs are built on purpose: a
flat re-based and re-spanned (coincide), translated off itself
(parallel), or sharing one direction with it (a line, or empty).
The Hypothesis tests cross-check the kernel against the Fraction
Gauss-Jordan route in ``_oracles``.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from stlab.exact import DegenerateFlat, Flat2, FlatMeet, RVector4, flat_intersect
from stlab.generators import gen_bundle_fixture
from stlab.regions import CANONICAL_SPANS, canonical_flat

from _oracles import oracle_flat_intersect, oracle_rank

F = Fraction
BIG = 2**60


def rand_q(rng, span=BIG, den=BIG):
    return F(rng.randint(-span, span), rng.randint(1, den))


def rand_vec(rng, span=BIG, den=BIG):
    return RVector4.of([rand_q(rng, span, den) for _ in range(4)])


def rand_flat(rng, span=BIG, den=BIG):
    while True:
        d1, d2 = rand_vec(rng, span, den), rand_vec(rng, span, den)
        if oracle_rank([d1.as_tuple(), d2.as_tuple()]) == 2:
            return Flat2(rand_vec(rng, span, den), d1, d2)


def tilted_flat(rng, anchor, family):
    """A flat as the cover benchmark's tilted bundles build it: a canonical
    span vector plus at most 1/100 of each complementary span vector."""
    (u1, u2), (w1, w2) = CANONICAL_SPANS[family], CANONICAL_SPANS[1 - family]
    t = [rng.randint(-100, 100) for _ in range(4)]
    d1 = [F(10**4 * a + t[0] * b + t[1] * c, 10**4) for a, b, c in zip(u1, w1, w2)]
    d2 = [F(10**4 * a + t[2] * b + t[3] * c, 10**4) for a, b, c in zip(u2, w1, w2)]
    return Flat2(RVector4.of(anchor), RVector4.of(d1), RVector4.of(d2))


def rebased(rng, f, span=50):
    """The flat f again, through another base point of it and spanned by
    an invertible combination of its directions."""
    while True:
        a, b, c, e = (F(rng.randint(-span, span), rng.randint(1, span)) for _ in range(4))
        if a * e != b * c:
            break
    s, t = (F(rng.randint(-span, span), rng.randint(1, span)) for _ in range(2))
    base = f.base + f.dir1.scale(s) + f.dir2.scale(t)
    return Flat2(base, f.dir1.scale(a) + f.dir2.scale(b), f.dir1.scale(c) + f.dir2.scale(e))


def parallel(rng, f):
    """A translate of f off f: same directions, no common point."""
    g = rebased(rng, f)
    while True:
        w = rand_vec(rng, 100, 100)
        if not f.contains(f.base + w):
            return Flat2(g.base + w, g.dir1, g.dir2)


def sharing_line(rng, f, meet):
    """A flat with one direction in f's and one out of it, through a point
    of f when meet, else through a point off f and off the span of both."""
    g = rebased(rng, f)
    while True:
        e2 = rand_vec(rng, 100, 100)
        if oracle_rank([f.dir1.as_tuple(), f.dir2.as_tuple(), e2.as_tuple()]) == 3:
            break
    if meet:
        return Flat2(g.base, g.dir1, e2)
    rows = [f.dir1.as_tuple(), f.dir2.as_tuple(), e2.as_tuple()]
    while True:
        w = rand_vec(rng, 100, 100)
        if oracle_rank(rows + [w.as_tuple()]) == 4:
            return Flat2(g.base + w, g.dir1, e2)


def canonical_pairs(seed, count=12):
    rng = random.Random("canonical:%d" % seed)
    out = []
    for _ in range(count):
        p = [rand_q(rng) for _ in range(4)]
        q = [rand_q(rng, 10**6, 2**20) for _ in range(4)]
        out.append((canonical_flat(p, 0), canonical_flat(q, 1)))
    return out


def tilted_pairs(seed, count=12):
    rng = random.Random("tilted:%d" % seed)
    out = []
    for _ in range(count):
        p, q = (
            [F((1000 * rng.randint(-5, 5) + rng.randint(0, 6)) * 2**20 + 2 * rng.randint(0, 99) + 1, 2**20)
             for _ in range(4)]
            for _ in range(2)
        )
        out.append((tilted_flat(rng, p, 0), tilted_flat(rng, q, 1)))
    return out


def perturbed_pairs(seed):
    _, bundle = gen_bundle_fixture(m=12, per_point=1, spread_deg=9.9, seed=seed)
    n = len(bundle.anchors)
    return [(bundle.family1[i][0], bundle.family2[(i + 1) % n][0]) for i in range(n)]


def random_pairs(seed, count=12):
    rng = random.Random("random:%d" % seed)
    return [(rand_flat(rng), rand_flat(rng)) for _ in range(count)]


def degenerate_pairs(seed, count=6):
    """count pairs each of coincide, parallel, line and rank-3 empty kinds,
    around random, canonical and tilted flats."""
    rng = random.Random("degenerate:%d" % seed)
    out = []
    for k in range(count):
        anchor = [rand_q(rng) for _ in range(4)]
        f = (rand_flat(rng), canonical_flat(anchor, k % 2), tilted_flat(rng, anchor, k % 2))[k % 3]
        out += [
            (f, rebased(rng, f)),
            (f, parallel(rng, f)),
            (sharing_line(rng, f, True), f),
            (f, sharing_line(rng, f, False)),
        ]
    return out


FAMILIES = {
    "canonical": canonical_pairs,
    "tilted": tilted_pairs,
    "perturbed": perturbed_pairs,
    "random": random_pairs,
    "degenerate": degenerate_pairs,
}


def _digest(meets):
    text = "\n".join(
        m.kind if m.point is None else "%s %s" % (m.kind, " ".join(map(str, m.point.as_tuple())))
        for m in meets
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "family, seed, kinds, digest",
    [
        ("canonical", 1, {"point": 12}, "8ef5a9c1fbb8b48c"),
        ("canonical", 2, {"point": 12}, "2d6d74c9e1a7b208"),
        ("tilted", 1, {"point": 12}, "4d2b8ca8af2d0917"),
        ("tilted", 2, {"point": 12}, "cec1cf40e26f5e26"),
        ("perturbed", 1, {"point": 12}, "68214ca0f4a7aefa"),
        ("perturbed", 2, {"point": 12}, "e1d3160deeb41b36"),
        ("random", 1, {"point": 12}, "2c6b912841b7f702"),
        ("random", 2, {"point": 12}, "abfaeb8cb85ecb75"),
        ("degenerate", 1, {"coincide": 6, "empty": 12, "line": 6}, "eec307084f603837"),
        ("degenerate", 2, {"coincide": 6, "empty": 12, "line": 6}, "eec307084f603837"),
    ],
)
def test_flat_intersect_pinned(family, seed, kinds, digest):
    meets = [flat_intersect(f1, f2) for f1, f2 in FAMILIES[family](seed)]
    tally = {}
    for m in meets:
        tally[m.kind] = tally.get(m.kind, 0) + 1
    assert tally == kinds
    assert _digest(meets) == digest
    # a crossing lies on both flats
    for (f1, f2), m in zip(FAMILIES[family](seed), meets):
        if m.kind == FlatMeet.POINT:
            assert f1.contains(m.point) and f2.contains(m.point)


def test_flat_intersect_points_pinned():
    # the canonical pair of the thales identity, and a tilted pair with
    # a negative, 2^60-denominator anchor
    p, q = (F(0),) * 4, (F(2), F(0), F(0), F(0))
    assert flat_intersect(canonical_flat(p, 0), canonical_flat(q, 1)).point.as_tuple() == (
        F(2, 3), F(0), F(-2, 3), F(2, 3))
    rng = random.Random(5)
    a = (F(-3, BIG - 1), F(7, 3), F(-(2**61) + 1, BIG), F(5))
    b = (F(1, 2), F(-1, 2), F(1, 7), F(-11, 13))
    meet = flat_intersect(tilted_flat(rng, a, 0), tilted_flat(rng, b, 1))
    assert meet == FlatMeet(FlatMeet.POINT, RVector4(
        F(-11158509368742180453063655660198387028852956288201, 4395165331293014043076870275711423545215654297600),
        F(46410388348829533207156290674543843253413321879, 527419839755161685169224433085370825425878515712),
        F(-77375524715827647954668616746431797207317115215777, 46149235978576647452307137894969947224764370124800),
        F(7427634349248625479194669019660669957012724477601, 23074617989288323726153568947484973612382185062400),
    ))


def test_flat_predicates_pinned():
    rng = random.Random("predicates")
    flats = [rand_flat(rng) for _ in range(4)] + [
        canonical_flat([rand_q(rng) for _ in range(4)], 0) for _ in range(2)
    ] + [tilted_flat(rng, [rand_q(rng) for _ in range(4)], k) for k in (0, 1)]
    for f in flats:
        g = rebased(rng, f)
        s, t = rand_q(rng, 1000, 1000), rand_q(rng, 1000, 1000)
        assert f.contains(f.base) and f.contains(g.base)
        assert f.contains(f.base + f.dir1.scale(s) + f.dir2.scale(t))
        assert not f.contains(parallel(rng, f).base)
        assert f.same_direction(g) and f == g and g == f
        h = parallel(rng, f)
        assert f.same_direction(h) and f != h
        line = sharing_line(rng, f, True)
        assert not f.same_direction(line) and f != line
        assert f.contains(line.base) and not f.contains(line.base + line.dir2)
    # distinct random flats: no containment, no shared direction
    pattern = [(f.contains(g.base), f.same_direction(g), f == g) for f in flats for g in flats if f is not g]
    assert pattern.count((False, False, False)) == len(pattern) - 2
    # the two canonical flats share their direction space
    assert pattern.count((False, True, False)) == 2
    assert Flat2.__eq__(flats[0], "flat") is NotImplemented


@pytest.mark.parametrize(
    "d1, d2",
    [
        ((1, 0, 0, 0), (2, 0, 0, 0)),
        ((0, 0, 0, 0), (1, 2, 3, 4)),
        ((1, 2, 3, 4), (0, 0, 0, 0)),
        ((F(-3, BIG), F(5, 7), 0, F(BIG, 3)), (F(9, BIG), F(-15, 7), 0, -BIG)),
        ((F(1, BIG - 1), F(-1, BIG + 1), F(2, 3), F(-5)), (F(-1, 3 * (BIG - 1)), F(1, 3 * (BIG + 1)), F(-2, 9), F(5, 3))),
    ],
)
def test_degenerate_flat_pinned(d1, d2):
    with pytest.raises(DegenerateFlat, match="spanning directions are dependent"):
        Flat2(RVector4(0, 0, 0, 0), RVector4.of(d1), RVector4.of(d2))


def test_independent_directions_make_a_flat():
    # one entry off the dependent pair above is enough
    Flat2(RVector4(0, 0, 0, 0), RVector4(F(-3, BIG), F(5, 7), 0, F(BIG, 3)),
          RVector4(F(9, BIG), F(-15, 7), F(1, BIG), -BIG))
    Flat2(RVector4(0, 0, 0, 0), RVector4(0, 0, 0, 1), RVector4(0, 0, 1, 0))


# -- cross-check against the Fraction route ---------------------------------------------

rationals = st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)) | st.integers(-5, 5).map(F)
vectors = st.lists(rationals, min_size=4, max_size=4).map(RVector4.of)
small = st.builds(F, st.integers(-50, 50), st.integers(1, 50))


@st.composite
def flats(draw):
    base, d1, d2 = draw(vectors), draw(vectors), draw(vectors)
    assume(oracle_rank([d1.as_tuple(), d2.as_tuple()]) == 2)
    return Flat2(base, d1, d2)


@st.composite
def flat_pairs(draw):
    """A random pair, or one built to coincide, be parallel or share a
    direction with a common point or none."""
    f = draw(flats())
    kind = draw(st.sampled_from(["random", "coincide", "parallel", "line", "skew"]))
    if kind == "random":
        return f, draw(flats())
    a, b, c, e, s, t = (draw(small) for _ in range(6))
    assume(a * e != b * c)
    base = f.base + f.dir1.scale(s) + f.dir2.scale(t)
    u, w = f.dir1.scale(a) + f.dir2.scale(b), f.dir1.scale(c) + f.dir2.scale(e)
    if kind == "coincide":
        return f, Flat2(base, u, w)
    off = draw(vectors)
    if kind == "parallel":
        return f, Flat2(base + off, u, w)
    e2 = draw(vectors)
    assume(oracle_rank([f.dir1.as_tuple(), f.dir2.as_tuple(), e2.as_tuple()]) == 3)
    return Flat2(base if kind == "line" else base + off, u, e2), f


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(flat_pairs())
def test_flat_intersect_matches_fraction_route(pair):
    f1, f2 = pair
    assert flat_intersect(f1, f2) == oracle_flat_intersect(f1, f2)
    assert flat_intersect(f2, f1).kind == oracle_flat_intersect(f2, f1).kind


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(flat_pairs(), small, small)
def test_flat_predicates_match_fraction_route(pair, s, t):
    f1, f2 = pair
    rows = lambda f: [f.dir1.as_tuple(), f.dir2.as_tuple()]
    assert f1.same_direction(f2) == (oracle_rank(rows(f1) + rows(f2)) == 2)
    for v in (f2.base, f2.base + f2.dir1.scale(s) + f2.dir2.scale(t)):
        assert f1.contains(v) == (oracle_rank(rows(f1) + [(v - f1.base).as_tuple()]) == 2)
    assert (f1 == f2) == (oracle_flat_intersect(f1, f2).kind == FlatMeet.COINCIDE)


@settings(max_examples=200, deadline=None)
@given(vectors, vectors)
def test_degenerate_flat_matches_fraction_route(d1, d2):
    if oracle_rank([d1.as_tuple(), d2.as_tuple()]) == 2:
        Flat2(d1, d1, d2)
    else:
        with pytest.raises(DegenerateFlat):
            Flat2(d1, d1, d2)
