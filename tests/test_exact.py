import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlab.exact import (
    ComplexLine,
    ComplexPoint,
    DegenerateFlat,
    EqualPoints,
    Flat2,
    FlatMeet,
    GaussianRational,
    RVector4,
    _int_columns,
    as_gaussian,
    flat_intersect,
    incident,
    line_through,
)

from _oracles import IdenticalLines, embed_flat, embed_r4, intersect_lines

GR = GaussianRational
I = GR(0, 1)


def pt(a, b, c=0, d=0):
    return ComplexPoint(GR(Fraction(a), Fraction(b)), GR(Fraction(c), Fraction(d)))


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
gaussians = st.builds(GR, small_fracs, small_fracs)
points = st.builds(ComplexPoint, gaussians, gaussians)


def test_as_gaussian_refuses_tuples():
    assert as_gaussian(3) == GR(3) and as_gaussian(Fraction(1, 2)) == GR(Fraction(1, 2))
    with pytest.raises(TypeError, match="cannot interpret"):
        as_gaussian((1, 2))
    with pytest.raises(TypeError, match="cannot interpret"):
        GR(1) + (1, 2)


def test_incident_examples():
    # p=(1,2) on y = x + 1
    assert incident(pt(1, 0, 2, 0), ComplexLine.slanted(GR(1), GR(1)))
    # p=(i,0) on x = i
    assert incident(pt(0, 1, 0, 0), ComplexLine.vertical(I))
    # p=(1,1) not on y = i*x
    assert not incident(pt(1, 0, 1, 0), ComplexLine.slanted(I, GR(0)))


def test_intersect_examples():
    # y = ix meets y = 0x + 1 at (-i, 1)
    p = intersect_lines(ComplexLine.slanted(I, GR(0)), ComplexLine.slanted(GR(0), GR(1)))
    assert p == ComplexPoint(GR(0, -1), GR(1))
    # parallel distinct
    assert intersect_lines(ComplexLine.slanted(GR(1), GR(0)), ComplexLine.slanted(GR(1), GR(1))) is None
    # vertical meets slanted
    p = intersect_lines(ComplexLine.vertical(GR(0)), ComplexLine.slanted(GR(5), GR(2)))
    assert p == ComplexPoint(GR(0), GR(2))
    with pytest.raises(IdenticalLines):
        intersect_lines(ComplexLine.slanted(GR(1), GR(0)), ComplexLine.slanted(GR(1), GR(0)))


def test_line_through_examples():
    assert line_through(pt(0, 0), pt(1, 0, 1, 0)) == ComplexLine.slanted(GR(1), GR(0))
    assert line_through(pt(2, 0, 0, 0), pt(2, 0, 5, 0)) == ComplexLine.vertical(GR(2))
    # (0,1),(1,1+i): slope computed from the incidences themselves
    l = line_through(pt(0, 0, 1, 0), ComplexPoint(GR(1), GR(1, 1)))
    assert incident(pt(0, 0, 1, 0), l)
    assert incident(ComplexPoint(GR(1), GR(1, 1)), l)
    assert l == ComplexLine.slanted(I, GR(1))
    with pytest.raises(EqualPoints):
        line_through(pt(1, 1), pt(1, 1))


@given(points, points)
@settings(max_examples=150, deadline=None)
def test_line_through_incidence_roundtrip(p, q):
    if p == q:
        return
    l = line_through(p, q)
    assert incident(p, l) and incident(q, l)


@given(points, gaussians, gaussians, gaussians)
@settings(max_examples=150, deadline=None)
def test_intersection_is_incident(p, a1, a2, b2):
    l1 = line_through(p, ComplexPoint(p.z1 + GR(1), p.z2 + a1))
    l2 = ComplexLine.slanted(a2, b2)
    if l1 == l2:
        return
    x = intersect_lines(l1, l2)
    if x is not None:
        assert incident(x, l1) and incident(x, l2)


def test_embed_examples():
    assert embed_r4(ComplexPoint(GR(1, 2), GR(3))) == RVector4(1, 2, 3, 0)
    f = embed_flat(ComplexLine.slanted(GR(1), GR(0)))
    assert f.contains(RVector4(1, 0, 1, 0))
    assert f.contains(RVector4(0, 1, 0, 1))
    assert f.contains(RVector4(0, 0, 0, 0))


def test_embed_membership_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        a = GR(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), Fraction(rng.randint(-9, 9), 7))
        b = GR(Fraction(rng.randint(-9, 9), 3), Fraction(rng.randint(-9, 9), 2))
        if rng.random() < 0.2:
            l = ComplexLine.vertical(b)
            z1 = b
        else:
            l = ComplexLine.slanted(a, b)
            z1 = GR(Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-9, 9), 6))
        z2 = a * z1 + b if not l.is_vertical else GR(Fraction(rng.randint(-9, 9)), 0)
        p = ComplexPoint(z1, z2)
        assert incident(p, l)
        assert embed_flat(l).contains(embed_r4(p))


def test_flat_intersect_classification():
    f1 = embed_flat(ComplexLine.slanted(I, GR(0)))
    f2 = embed_flat(ComplexLine.slanted(GR(0), GR(1)))
    meet = flat_intersect(f1, f2)
    assert meet.kind == FlatMeet.POINT
    assert meet.point == embed_r4(ComplexPoint(GR(0, -1), GR(1)))
    # parallel translates
    g1 = embed_flat(ComplexLine.slanted(GR(1), GR(0)))
    g2 = embed_flat(ComplexLine.slanted(GR(1), GR(1)))
    assert flat_intersect(g1, g2).kind == FlatMeet.EMPTY
    # coincide
    assert flat_intersect(g1, embed_flat(ComplexLine.slanted(GR(1), GR(0)))).kind == FlatMeet.COINCIDE
    # sharing one direction line
    h1 = Flat2(RVector4(0, 0, 0, 0), RVector4(1, 0, 0, 0), RVector4(0, 1, 0, 0))
    h2 = Flat2(RVector4(0, 0, 0, 0), RVector4(1, 0, 0, 0), RVector4(0, 0, 1, 0))
    assert flat_intersect(h1, h2).kind == FlatMeet.LINE


def test_flat_equality_and_degenerate():
    f1 = Flat2(RVector4(0, 0, 0, 0), RVector4(1, 0, 0, 0), RVector4(0, 1, 0, 0))
    f2 = Flat2(RVector4(1, 1, 0, 0), RVector4(1, 1, 0, 0), RVector4(1, -1, 0, 0))
    assert f1 == f2
    with pytest.raises(DegenerateFlat):
        Flat2(RVector4(0, 0, 0, 0), RVector4(1, 0, 0, 0), RVector4(2, 0, 0, 0))


@given(points, points, gaussians, gaussians)
@settings(max_examples=100, deadline=None)
def test_embed_commutes_with_intersection(p, q, a, b):
    l1 = ComplexLine.slanted(a, b)
    if p == q:
        return
    l2 = line_through(p, q)
    if l1 == l2:
        return
    x = intersect_lines(l1, l2)
    meet = flat_intersect(embed_flat(l1), embed_flat(l2))
    if x is None:
        assert meet.kind == FlatMeet.EMPTY
    else:
        assert meet.kind == FlatMeet.POINT
        assert meet.point == embed_r4(x)


def test_gaussian_field_ops():
    z = GR(Fraction(3, 4), Fraction(-2, 5))
    w = GR(Fraction(1, 2), Fraction(7, 3))
    assert (z / w) * w == z
    assert z.conjugate().conjugate() == z
    assert z.abs2() == Fraction(9, 16) + Fraction(4, 25)
    assert (z * w).abs2() == z.abs2() * w.abs2()


def test_int_columns_codec():
    # no rationals: L = 1 and width empty columns
    assert _int_columns([], [], 3) == (1, [[], [], []])
    # 1/-2, -3/-4, 0/-5 and 5/6, two to a row, over L = lcm(2, 4, 5, 6) = 60
    assert _int_columns([1, -3, 0, 5], [-2, -4, -5, 6], 2) == (60, [[-30, 0], [45, 50]])
