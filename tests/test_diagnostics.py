import hashlib
import random
from fractions import Fraction

import pytest
from _oracles import apply_map_system, oracle_cluster_stats

from stlab.diagnostics import (
    _FIX_MAPS,
    ARC_A1,
    ARC_A2,
    ARC_A3,
    ARC_B3,
    ARCS_A,
    ARCS_B,
    ArcSpec,
    DiagnosticParams,
    EmptySelection,
    SparseInvariant,
    SplitFailed,
    SystemView,
    TooClose,
    Unbalanceable,
    _bisecting_constant,
    _project,
    balance_lambda,
    classify_points,
    hemisphere_split,
    is_gamma_point,
    is_na_point,
    refine_step,
    separate_to_orthogonal,
)
from stlab.directions import (
    DIR_INF,
    ComplexLinearMap,
    Direction,
    PoleDirection,
    _angle_deg,
    apply_mobius,
    direction_of,
    dist_deg,
    gamma_arg,
    to_sphere,
    unit_direction_from_angle,
)
from stlab.exact import ComplexLine, ComplexPoint, GaussianRational, incident

GR = GaussianRational
F = Fraction


def line(a, b):
    ga = a if isinstance(a, GR) else GR(a)
    gb = b if isinstance(b, GR) else GR(b)
    return ComplexLine.slanted(ga, gb)


def point_with_slopes(pts, lns, z1, z2, slopes):
    p = ComplexPoint(GR(z1), GR(z2))
    pts.append(p)
    for a in slopes:
        g = GR(a) if not isinstance(a, GR) else a
        lns.append(ComplexLine.slanted(g, p.z2 - g * p.z1))
    return p


# -- SystemView --------------------------------------------------------------


def test_system_view_index_matches_incident():
    rng = random.Random(3)
    from stlab.generators import gen_random_system

    pts, lns = gen_random_system(25, 25, 17)
    sys = SystemView.build(pts, lns)
    for pi, p in enumerate(pts):
        expect = sorted(li for li, l in enumerate(lns) if incident(p, l))
        assert sys.incident_lines[pi] == expect
    assert sys.incidence_count() == sum(len(x) for x in sys.incident_lines)


def test_apply_map_preserves_incidence():
    from stlab.generators import gen_random_system

    pts, lns = gen_random_system(15, 15, 5)
    sys = SystemView.build(pts, lns)
    m = ComplexLinearMap(GR(1), GR(F(1, 2)), GR(F(1, 3)), GR(1, 1))
    mapped = apply_map_system(sys, m)
    rebuilt = SystemView.build(mapped.points, mapped.lines)
    assert rebuilt.incident_lines == sys.incident_lines


# -- hemisphere split ----------------------------------------------------------


def split_is_valid(sys, e1, e2, tr):
    assert e1 | e2 == set(range(sys.e)) and not (e1 & e2)
    assert len(e1) == sys.e // 2
    dirs = [apply_mobius(tr, direction_of(l)) for l in sys.lines]
    on_circle = set()
    for i in e1:
        assert not dirs[i].is_infinite and dirs[i].a.abs2() <= 1
        if dirs[i].a.abs2() == 1:
            on_circle.add(dirs[i].a)
    for i in e2:
        assert dirs[i].is_infinite or dirs[i].a.abs2() >= 1
        if not dirs[i].is_infinite and dirs[i].a.abs2() == 1:
            on_circle.add(dirs[i].a)
    assert len(on_circle) <= 1


def test_split_identity_case():
    lns = [line(F(1, 2), 0), line(F(1, 3), 1), line(2, 0), line(3, 1)]
    sys = SystemView.build([], lns)
    e1, e2, tr = hemisphere_split(sys)
    assert tr == ComplexLinearMap.identity()
    assert e1 == {0, 1} and e2 == {2, 3}
    split_is_valid(sys, e1, e2, tr)


def test_split_single_class():
    lns = [line(5, b) for b in range(4)]
    sys = SystemView.build([], lns)
    e1, e2, tr = hemisphere_split(sys)
    split_is_valid(sys, e1, e2, tr)
    # the class lands exactly on the circle and splits 2/2
    dirs = [apply_mobius(tr, direction_of(l)) for l in sys.lines]
    assert all(d.a.abs2() == 1 for d in dirs)
    assert len(e1) == len(e2) == 2


def test_split_zero_and_vertical():
    lns = [line(0, 0), ComplexLine.vertical(GR(0))]
    sys = SystemView.build([], lns)
    e1, e2, tr = hemisphere_split(sys)
    split_is_valid(sys, e1, e2, tr)
    assert len(e1) == len(e2) == 1


def test_split_conjugate_tie():
    # conjugate slopes share their modulus under every real scaling
    lns = [
        line(GR(F(1), F(1)), 0),
        line(GR(F(1), F(-1)), 0),
        line(GR(F(1), F(1)), 1),
        line(GR(F(1), F(-1)), 1),
    ]
    sys = SystemView.build([], lns)
    e1, e2, tr = hemisphere_split(sys)
    split_is_valid(sys, e1, e2, tr)


def test_split_all_vertical():
    lns = [ComplexLine.vertical(GR(c)) for c in range(4)]
    sys = SystemView.build([], lns)
    e1, e2, tr = hemisphere_split(sys)
    split_is_valid(sys, e1, e2, tr)


@pytest.mark.parametrize(
    "slopes, e1, m",
    [
        # identity: 1/2 inside, the class of i tops e1 up in index order
        ([(0, 1), (3, 0), (F(1, 2), 0), (0, 1)], {0, 2}, ComplexLinearMap.identity()),
        # onto at lo: moduli 4 9 25 49, both 3 and 5 are lone slopes
        ([(2, 0), (3, 0), (5, 0), (7, 0)], {0, 1}, ComplexLinearMap(1, 0, 0, F(1, 3))),
        # onto at hi: 2 and -2 share the modulus lo
        ([(2, 0), (-2, 0), (3, 0), (4, 0)], {0, 1}, ComplexLinearMap(1, 0, 0, F(1, 3))),
        # between: two slopes at lo and at hi
        ([(2, 0), (-2, 0), (3, 0), (-3, 0)], {0, 1}, ComplexLinearMap(1, 0, 0, F(4, 9))),
        # between with hi infinite: lo + 1 stands in for hi
        ([(2, 0), (-2, 0), None, (None, 1)], {0, 1}, ComplexLinearMap(1, 0, 0, F(16, 35))),
        # fix pool: four slopes of one modulus
        (
            [(2, 0), (-2, 0), (0, 2), (0, -2)],
            {0, 3},
            ComplexLinearMap(1, F(1, 2), GR(F(70, 97), F(12, 97)), GR(F(62, 97), F(-6, 97))),
        ),
    ],
    ids=["identity", "onto-lo", "onto-hi", "between", "between-inf-hi", "fix-pool"],
)
def test_split_branches_pinned(slopes, e1, m):
    # (a, b) is the line z2 = a*z1 + b of slope a; None and (None, c) are
    # the verticals z1 = 0 and z1 = c
    lns = []
    for i, s in enumerate(slopes):
        if s is None or s[0] is None:
            lns.append(ComplexLine.vertical(GR(0 if s is None else s[1])))
        else:
            lns.append(line(GR(*s), i))
    sys = SystemView.build([], lns)
    got1, got2, tr = hemisphere_split(sys)
    assert (got1, tr) == (e1, m)
    split_is_valid(sys, got1, got2, tr)


def test_split_fails_when_every_pool_map_ties_the_median():
    # 15 verticals hold both median positions; each pool transform takes
    # them to one slope v and a second line to -v, of the same modulus,
    # so no cut keeps a single slope on the circle
    lns = [ComplexLine.vertical(GR(c)) for c in range(15)]
    t = ComplexLinearMap.identity()
    for fix in _FIX_MAPS:
        t = fix.compose(t)
        v = apply_mobius(t, DIR_INF).a
        lns.append(line(apply_mobius(t.inverse(), Direction(-v)).a, len(lns)))
    with pytest.raises(SplitFailed):
        hemisphere_split(SystemView.build([], lns))


def test_split_random_systems():
    from stlab.generators import gen_random_system

    for seed in range(10):
        _, lns = gen_random_system(5, 30 + seed, seed)
        sys = SystemView.build([], lns)
        e1, e2, tr = hemisphere_split(sys)
        split_is_valid(sys, e1, e2, tr)


# -- classification ---------------------------------------------------------------


def test_classify_points_examples():
    pts, lns = [], []
    # point on 4 lines each side, average degree taken as 8
    point_with_slopes(pts, lns, 0, 0, [F(1, 2), F(1, 3), F(1, 4), F(1, 5), 2, 3, 4, 5])
    # point with a single low-slope line
    point_with_slopes(pts, lns, 100, 7, [F(1, 2)])
    # bare point
    pts.append(ComplexPoint(GR(1000), GR(-3)))
    sys = SystemView.build(pts, lns)
    e1 = {i for i, l in enumerate(sys.lines) if l.a.abs2() < 1}
    e2 = set(range(sys.e)) - e1
    params = DiagnosticParams(d_a=F(8))
    p0, p1, p2 = classify_points(sys, e1, e2, params)
    assert p0 == {0} and p1 == {1} and p2 == {2}
    assert p0 | p1 | p2 == set(range(sys.n))


def test_is_na_point():
    pts, lns = [], []
    point_with_slopes(pts, lns, 0, 0, [GR(F(9, 10)), GR(F(11, 10))])
    point_with_slopes(pts, lns, 50, 1, [GR(F(9, 10)), GR(F(-11, 10))])
    sys = SystemView.build(pts, lns)
    e1 = {i for i, l in enumerate(sys.lines) if l.a.abs2() < 1}
    e2 = set(range(sys.e)) - e1
    params = DiagnosticParams(d_a=F(2))
    one = Direction.finite(1)
    assert is_na_point(0, sys, e1, e2, one, params)
    # a slope near -1.1 sits far outside the 10-degree disk at 1
    assert not is_na_point(1, sys, e1, e2, one, params)
    # allowance monotonicity: a huge allowance forgives the outlier
    loose = DiagnosticParams(d_a=F(10**13))
    assert is_na_point(1, sys, e1, e2, one, loose)


def test_is_gamma_point():
    pts, lns = [], []
    point_with_slopes(pts, lns, 0, 0, [F(1, 2), F(3, 2), 2])
    sys = SystemView.build(pts, lns)
    assert is_gamma_point(0, sys, ARC_A1)  # all arguments are 0
    assert not is_gamma_point(0, sys, ARC_A2)
    # three spread arguments: one in the arc out of three meets the third
    pts2, lns2 = [], []
    point_with_slopes(
        pts2, lns2, 0, 0,
        [GR(F(1)), GR(F(-1), F(17, 10)), GR(F(-1), F(-17, 10))],
    )
    sys2 = SystemView.build(pts2, lns2)
    assert is_gamma_point(0, sys2, ARC_A1)
    # degree-zero points fail by convention
    sys3 = SystemView.build([ComplexPoint(GR(5), GR(5))], [])
    assert not is_gamma_point(0, sys3, ARC_A1)


def test_arc_spec_wrapping():
    arc = ArcSpec(135.0, -135.0)
    assert arc.contains(GR(-1)) and arc.contains(GR(-2, -1))  # 180 and about -153
    assert arc.contains(GR(-1, 1)) and arc.contains(GR(-1, -1))  # both endpoints
    assert not arc.contains(GR(1)) and not arc.contains(GR(-1, 2))
    assert arc.length() == 90.0
    assert arc.midpoint_deg() == 180.0
    with pytest.raises(PoleDirection):
        arc.contains(GR(0))


def test_arc_spec_rejects_off_grid_endpoints():
    with pytest.raises(ValueError):
        ArcSpec(10, 50)
    with pytest.raises(ValueError):
        ArcSpec(0, 100)
    assert ArcSpec(-45, 45).length() == 90.0


# slopes whose arguments sit within 1e-20 of an arc endpoint, on the
# side the float atan2 route rounds across: just above -180, outside
# ARC_A3 = [90, 180]; just above 135, outside ARC_B3 = [0, 135]
NEAR_ENDPOINTS = [
    (GR(-1, -F(1, 10**20)), ARC_A3),
    (GR(-1, 1 - F(1, 10**20)), ARC_B3),
]


@pytest.mark.parametrize("slope, arc", NEAR_ENDPOINTS, ids=["below-180", "above-135"])
def test_arc_membership_is_exact_near_endpoints(slope, arc):
    assert not arc.contains(slope)
    pts, lns = [], []
    point_with_slopes(pts, lns, 0, 0, [slope])
    assert not is_gamma_point(0, SystemView.build(pts, lns), arc)


def float_contains(arc, a):
    """Float reference: the atan2 angle of gamma_arg, reduced modulo 360."""
    return (gamma_arg(Direction(a)) - arc.lo) % 360.0 <= arc.length()


def test_arc_membership_matches_float_route_on_small_slopes():
    rng = random.Random(45)
    small = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5000)]
    slopes = [GR(x, y) for x, y in zip(small, small[1:])]
    slopes += [GR(x, s * x) for x in small[:2500] for s in (1, -1)]  # on 45-degree rays
    slopes += [GR(x, 0) for x in small[:200]] + [GR(0, x) for x in small[:200]]
    slopes = [a for a in slopes if not a.is_zero()]
    assert len(slopes) > 10**4
    for arc in ARCS_A + ARCS_B:
        for a in slopes:
            assert arc.contains(a) == float_contains(arc, a), (arc, a)


# -- balancing ----------------------------------------------------------------------


def two_cluster_system(g1, g2, per=3):
    pts, lns = [], []
    for j, g in enumerate((g1, g2)):
        for i in range(per):
            z1 = F(10 * j + i)
            z2 = F(i - j, 7)
            p = ComplexPoint(GR(z1), GR(z2))
            pts.append(p)
            for t in range(3):
                a = GR(-g - F(t, 10**6))
                lns.append(ComplexLine.slanted(a, p.z2 - a * p.z1))
    return SystemView.build(pts, lns)


def test_balance_lambda_certificate():
    sys = two_cluster_system(F(3, 10), F(3, 5))
    one = Direction.finite(1)
    # already satisfied at lambda = 0 for target 0
    lam, m = balance_lambda(sys, 0, one)
    assert lam == 0 and m == ComplexLinearMap.identity()
    lam, _ = balance_lambda(sys, 3, one, precision=30)
    # negative real slopes -g enter the right half circle exactly past g
    assert abs(float(lam) - 0.3) < 1e-6
    from stlab.diagnostics import gamma_count
    from stlab.directions import pi_lambda

    step = F(1, 2**30)
    assert gamma_count(sys, ARC_A1, pi_lambda(one, lam)) >= 3
    assert gamma_count(sys, ARC_A1, pi_lambda(one, lam - step)) < 3
    lam6, _ = balance_lambda(sys, 6, one, precision=30)
    assert abs(float(lam6) - 0.6) < 1e-6
    with pytest.raises(Unbalanceable):
        balance_lambda(sys, 7, one)


def test_balance_lambda_matches_coarse_scan():
    from stlab.diagnostics import gamma_count
    from stlab.directions import pi_lambda

    rng = random.Random(12)
    for _ in range(5):
        g1 = F(rng.randint(1, 6), 10)
        g2 = F(rng.randint(7, 9), 10)
        sys = two_cluster_system(g1, g2)
        target = 3
        lam, _ = balance_lambda(sys, target, Direction.finite(1), precision=24)
        # coarse oracle: first grid lambda reaching the target
        grid = [F(k, 512) for k in range(512)]
        first = next(
            l for l in grid if gamma_count(sys, ARC_A1, pi_lambda(Direction.finite(1), l)) >= target
        )
        assert first - F(1, 512) <= lam <= first


CENTERS = [
    Direction.finite(1),
    Direction.finite(-1),
    Direction.finite(GR(0, 1)),
    Direction.finite(GR(F(3, 5), F(4, 5))),
]


def squeeze_fixture(rng, center):
    """Points on lines of slopes from a pool: vertical, 0, the octant
    rays and one slope inside each octant, -2 conj(c) (a pole of
    pi_lambda(c, 1/2)), and random slopes."""
    c = center.a
    compass = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1)]
    compass += [(-x, -y) for x, y in compass]
    pool = [None, GR(0), GR(-2) * c.conjugate()]
    pool += [GR(r * x, r * y) for r in (F(1, 3), F(5, 4)) for x, y in compass]
    pool += [GR(F(rng.randint(-9, 9), rng.randint(1, 6)), F(rng.randint(-9, 9), rng.randint(1, 6)))
             for _ in range(10)]
    # a point of degree 1 for each slope, then points of degree 2 to 5
    lists = [[a] for a in pool] + [rng.sample(pool, rng.randint(2, 5)) for _ in range(12)]
    pts, lns = [], []
    for i, slopes in enumerate(lists):
        p = ComplexPoint(GR(F(i), F(rng.randint(-3, 3), 5)), GR(F(rng.randint(-9, 9), 7)))
        pts.append(p)
        for a in slopes:
            l = ComplexLine.vertical(p.z1) if a is None else ComplexLine.slanted(a, p.z2 - a * p.z1)
            if l not in lns:
                lns.append(l)
    return SystemView.build(pts, lns)


@pytest.mark.parametrize("seed", range(4))
def test_squeeze_counter_matches_moebius_route(seed):
    from stlab.diagnostics import _circle_position, _squeeze_counter, gamma_count
    from stlab.directions import pi_lambda

    rng = random.Random(seed)
    lams = [F(0), F(1, 2), 1 - F(1, 2**30), 1 - F(1, 2**64)]
    lams += [F(rng.randrange(2**p), 2**p) for p in (3, 30, 64, 128) for _ in range(4)]
    for center in CENTERS:
        sys = squeeze_fixture(rng, center)
        # at lambda = 0 the images are the slopes: every circle position occurs
        slopes = [l.a for l in sys.lines if not l.is_vertical and not l.a.is_zero()]
        assert {_circle_position(a) for a in slopes} == set(range(16))
        pole = Direction(GR(-2) * center.a.conjugate())
        assert apply_mobius(pi_lambda(center, F(1, 2)), pole) == DIR_INF
        count_at = _squeeze_counter(sys, center)
        for lam in lams:
            assert count_at(lam) == gamma_count(sys, ARC_A1, pi_lambda(center, lam)), (center, lam)


def vertical_system():
    pts, lns = [], []
    for i in range(4):
        p = ComplexPoint(GR(F(i)), GR(F(i, 7)))
        pts.append(p)
        lns.append(ComplexLine.vertical(p.z1))
        for t in range(3):
            a = GR(-F(i + 2, 10) - F(t, 10**6))
            lns.append(ComplexLine.slanted(a, p.z2 - a * p.z1))
    return SystemView.build(pts, lns)


# (system, target, center, precision) -> numerator and log2 denominator of
# lambda, and a digest of repr((lambda, map)); recorded before the search
# moved onto integer quadratics
PINNED_BALANCE = [
    ((F(3, 10), F(3, 5)), 3, 1, 30, 86469112979731251, 58, "a02b4e25d27d9d8d"),
    ((F(1, 4), F(7, 10)), 4, 1, 30, 403522526880831897, 59, "195c551869192f75"),
    ((F(11, 20), F(19, 20)), 6, 1, 30, 547637714822470041, 59, "72c294045546a8d8"),
    ((F(3, 10), F(3, 5)), 4, 1, 64, 204169420152563078092782159718028568165, 128, "11765efc1ce7fccc"),
    ((F(2, 5), F(4, 5)), 3, GR(F(3, 5), F(4, 5)), 24, 149063994994005, 48, "5c508c751b231eac"),
    (None, 3, 1, 30, 461168602916480613, 60, "1d5f0f84676f9bb1"),
]


@pytest.mark.parametrize("case", PINNED_BALANCE, ids=["t3", "t4", "t6", "t4-p64", "c345", "vertical"])
def test_balance_lambda_pinned(case):
    gs, target, center, precision, num, log_den, digest = case
    sys = vertical_system() if gs is None else two_cluster_system(*gs)
    lam, m = balance_lambda(sys, target, Direction.finite(center), precision)
    assert (lam.numerator, lam.denominator) == (num, 2**log_den)
    assert hashlib.sha256(repr((lam, m)).encode()).hexdigest()[:16] == digest


def test_balance_lambda_errors():
    from stlab.directions import UnitModulusRequired

    sys = two_cluster_system(F(3, 10), F(3, 5))
    one = Direction.finite(1)
    with pytest.raises(Unbalanceable, match="exceeds"):
        balance_lambda(sys, 7, one)
    # the target is checked before the center
    with pytest.raises(Unbalanceable, match="exceeds"):
        balance_lambda(sys, 7, DIR_INF)
    for bad in (DIR_INF, Direction.finite(2), Direction.finite(GR(F(3, 5), F(3, 5)))):
        for target in (0, 3):
            with pytest.raises(UnitModulusRequired):
                balance_lambda(sys, target, bad)
    # negative real slopes squeezed toward i reach the arc only at i itself
    with pytest.raises(Unbalanceable, match="unreachable"):
        balance_lambda(sys, 4, Direction.finite(GR(0, 1)), precision=30)


# -- refinement round ------------------------------------------------------------------


def refine_fixture():
    pts, lns = [], []
    minority_u = [GR(F(9, 10) + F(k, 1000)) for k in range(3)]
    minority_v = [GR(F(11, 10) + F(k, 1000)) for k in range(3)]
    majority_u = [GR(F(-9, 10) - F(k, 1000)) for k in range(3)]
    majority_v = [GR(F(-11, 10) - F(k, 1000)) for k in range(3)]
    for i in range(2):
        point_with_slopes(pts, lns, F(i), F(i, 3), minority_u + minority_v)
    for i in range(5):
        point_with_slopes(pts, lns, F(10 + i), F(i, 7), majority_u + majority_v)
    sys = SystemView.build(pts, lns)
    u = {i for i, l in enumerate(sys.lines) if l.a.abs2() < 1}
    v = set(range(sys.e)) - u
    return sys, u, v


def test_refine_step_case_one():
    sys, u, v = refine_fixture()
    params = DiagnosticParams(d_a=sys.average_point_degree())
    inv = SparseInvariant.initial(sys.n, sys.e, params.d_a)
    res = refine_step(set(range(sys.n)), u, v, sys, params, inv)
    assert res.case == "plane-avoids-arc" and res.arc_index == 0
    assert res.o_new == {0, 1}  # exactly the concentrated minority
    assert res.u_new == {0, 1, 2, 6, 7, 8, 12, 18, 24, 30, 36}
    assert res.v_new == {3, 4, 5, 9, 10, 11}
    assert res.invariant.j == 1
    assert res.invariant.e_j == inv.e_j / 2
    # selected lines keep the hemisphere invariant sides
    for li in res.u_new:
        assert sys.lines[li].a.abs2() < 1
    for li in res.v_new:
        assert sys.lines[li].a.abs2() > 1


def test_bisecting_constant_keeps_normal_on_repeated_median():
    # refine_fixture gives each slope to five lines, so the directions on
    # every arc's bisecting plane are copies of one vector, which no
    # rotation of the normal moves apart: the first normal is kept
    sys, u, v = refine_fixture()
    dirs = [to_sphere(direction_of(sys.lines[li])).v for li in sorted(u) + sorted(v)]
    for arc in ARCS_A:
        normal = to_sphere(unit_direction_from_angle(arc.midpoint_deg())).v
        cval, nrm = _bisecting_constant(dirs, normal)
        assert nrm == normal
        on_plane = [w for w in dirs if abs(_project(w, nrm) - cval) < 1e-12]
        assert len(on_plane) == 5 and len(set(on_plane)) == 1


def test_refine_step_empty_selection():
    pts, lns = [], []
    spread = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]
    for i, (re, im) in enumerate(spread):
        a_in = GR(F(re, 2), F(im, 2))
        a_out = GR(F(3 * re, 2), F(3 * im, 2))
        point_with_slopes(pts, lns, F(i), F(i, 5), [a_in, a_out])
    sys = SystemView.build(pts, lns)
    u = {i for i, l in enumerate(sys.lines) if l.a.abs2() < 1}
    v = set(range(sys.e)) - u
    params = DiagnosticParams(d_a=sys.average_point_degree())
    inv = SparseInvariant.initial(sys.n, sys.e, params.d_a)
    with pytest.raises(EmptySelection):
        refine_step(set(range(sys.n)), u, v, sys, params, inv)


def random_refine_system(seed):
    """A few points, each on lines of slope modulus just inside and just
    outside 1 around a unit direction; a third of the seeds plant the
    directions i, -i and -1, where every bisecting plane cuts its arc's
    neighborhood, and elsewhere some points take spread directions."""
    rng = random.Random(seed)
    pts, lns = [], []
    planted = seed % 3 == 0
    centers = [90, -90, 180] if planted else [
        rng.choice((90, -90, 180, 45 * rng.randint(-3, 4), rng.uniform(-180, 180)))
        for _ in range(3)
    ]
    for i in range(rng.randint(3, 8)):
        if planted:
            theta = centers[i % 3]
        else:
            theta = rng.choice(centers) + rng.choice((0, 0, rng.uniform(-30, 30)))
        base = unit_direction_from_angle(theta).a
        slopes = []
        spread = not planted and rng.random() < 0.4
        for _ in range(rng.randint(1, 4)):
            if spread:
                base = unit_direction_from_angle(rng.uniform(-180, 180)).a
            jit = GR(F(rng.randint(-5, 5), 1000), F(rng.randint(-5, 5), 1000))
            for mod in (F(rng.randint(90, 97), 100), F(rng.randint(103, 110), 100)):
                slopes.append(base * GR(mod) + jit)
        if rng.random() < 0.5:
            slopes.pop()  # an odd count puts the median line on the plane
        point_with_slopes(pts, lns, F(i), F(rng.randint(-9, 9), 7), dict.fromkeys(slopes))
    sys = SystemView.build(pts, lns)
    u = {i for i, l in enumerate(sys.lines) if l.a.abs2() < 1}
    return sys, u, set(range(sys.e)) - u


def refine_outcome(sys, u, v):
    params = DiagnosticParams(d_a=sys.average_point_degree())
    inv = SparseInvariant.initial(sys.n, sys.e, params.d_a)
    try:
        res = refine_step(set(range(sys.n)), u, v, sys, params, inv)
    except EmptySelection:
        return "EmptySelection"
    return (res.case, res.arc_index, sorted(res.o_new), sorted(res.u_new), sorted(res.v_new), res.invariant)


def test_refine_step_pinned():
    # 50 seeded systems: 10 end in EmptySelection, 29 in the first case
    # and 11 in the second, and 21 have an odd line count
    outcomes = []
    for seed in range(1, 51):
        sys, u, v = random_refine_system(seed)
        out = refine_outcome(sys, u, v)
        if out != "EmptySelection":
            # the survivors lie strictly on one side of a plane through the
            # median projection, so at most half of the lines survive; the
            # median line of an odd count sits on the plane and drops out
            assert len(out[3]) + len(out[4]) <= (len(u) + len(v)) // 2, seed
        outcomes.append(out)
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16] == "8fa64b49f0d7d5ed"


# -- separation to orthogonal --------------------------------------------------------


def tight_cluster(center_arg_deg, modulus, count, jitter=F(1, 2000)):
    base = unit_direction_from_angle(center_arg_deg).a * GR(modulus)
    return [
        Direction.finite(base + GR(jitter * k, jitter * (k % 2)))
        for k in range(-count // 2, count // 2 + 1)
    ]


def test_separate_examples():
    assert separate_to_orthogonal(
        [Direction.finite(0)], [Direction.infinity()]
    ) == ComplexLinearMap.identity()
    with pytest.raises(TooClose):
        separate_to_orthogonal([Direction.finite(1)], [Direction.finite(1)])


def assert_squeezed(d1, d2):
    """The returned map is rational and, judged on the exact route,
    carries the clusters to antipodal centers with small diameters."""
    m = separate_to_orthogonal(d1, d2)
    assert isinstance(m, ComplexLinearMap)  # exact by construction: Fraction entries only
    c1, diam1 = oracle_cluster_stats(d1, m)
    c2, diam2 = oracle_cluster_stats(d2, m)
    assert _angle_deg(c1, c2) >= 179.0
    assert diam1 <= 1.0 and diam2 <= 1.0


def test_separate_one_vs_i():
    assert_squeezed(tight_cluster(0.0, F(1), 5), tight_cluster(90.0, F(1), 5))


def test_separate_cluster_at_infinity():
    far = [Direction.finite(GR(2000 + k, k % 2)) for k in range(3)]
    assert_squeezed([DIR_INF] + far, tight_cluster(10.0, F(1), 4))


def test_separate_cluster_at_zero():
    near = [Direction.finite(GR(F(k, 2000), F(k % 2, 2000))) for k in range(4)]
    assert_squeezed(near, tight_cluster(60.0, F(1), 4))


def random_cluster_pairs():
    rng = random.Random(41)
    for trial in range(6):
        a1 = rng.uniform(-170, 170)
        a2 = a1 + rng.uniform(40, 140)
        d1 = tight_cluster(a1, F(rng.randint(2, 5), 3), 4)
        yield d1, tight_cluster(a2, F(rng.randint(2, 5), 4), 4)


def test_separate_random_clusters():
    for d1, d2 in random_cluster_pairs():
        assert_squeezed(d1, d2)


def criterion_10_pairs():
    """The 20 jittered cluster pairs of acceptance criterion 10, drawn
    after its 20 balance trials from the same seeded stream."""
    rng = random.Random(1010)
    for _ in range(20):
        rng.randint(10, 55), rng.randint(60, 95), rng.choice((3, 4, 6))
    jit = F(1, 2000)
    for _ in range(20):
        a1 = rng.uniform(-170, 170)
        a2 = a1 + rng.uniform(40, 140)
        base1 = unit_direction_from_angle(a1).a * GR(F(rng.randint(2, 5), 3))
        base2 = unit_direction_from_angle(a2).a * GR(F(rng.randint(2, 5), 4))
        yield tuple(
            [Direction.finite(base + GR(jit * k, jit * (k % 2))) for k in range(-2, 3)]
            for base in (base1, base2)
        )


def near_zero_mean_pairs():
    """A first cluster whose sphere images cancel (2 and -1/2 are
    antipodal; 0 and infinity are the poles), exactly or to 1e-14, so
    its unit mean falls back to the first image."""
    yield [Direction.finite(2), Direction.finite(F(-1, 2))], tight_cluster(90.0, F(1), 4)
    near = Direction.finite(F(-1, 2) + F(1, 10**14))
    yield [Direction.finite(2), near], tight_cluster(90.0, F(1), 4)
    yield [Direction.finite(0), DIR_INF], tight_cluster(30.0, F(1), 4)


def big_slope_pairs():
    """Clusters at 2^509 + k, whose float pairs (1, a) stay in range."""
    yield [Direction.finite(GR(2**509 + k, k % 2)) for k in range(3)], tight_cluster(10.0, F(1), 4)


# digest of repr of the list of maps per family; recorded before the
# search moved from numpy arrays onto Python complex floats
PINNED_SEPARATE = [
    (criterion_10_pairs, "cd43a151d260c8bd"),
    (random_cluster_pairs, "39586963f63a0969"),
    (near_zero_mean_pairs, "4aa7bc711c4f5e84"),
    (big_slope_pairs, "06a5d0c62fe821a7"),
]


@pytest.mark.parametrize(
    "case", PINNED_SEPARATE, ids=["criterion-10", "clusters", "zero-mean", "big-slope"]
)
def test_separate_maps_pinned(case):
    pairs, digest = case
    maps = [separate_to_orthogonal(d1, d2) for d1, d2 in pairs()]
    assert hashlib.sha256(repr(maps).encode()).hexdigest()[:16] == digest


def test_separate_slope_beyond_float_range():
    # 10^400 + k overflows a float; carried as (1/a, 1) it sits at the pole
    huge = [Direction.finite(GR(10**400 + k, k % 2)) for k in range(3)]
    for other in (tight_cluster(10.0, F(1), 4), tight_cluster(-120.0, F(3, 2), 2)):
        assert_squeezed(huge, other)
        assert_squeezed(other, huge)
    with pytest.raises(TooClose):
        separate_to_orthogonal(huge, [Direction.finite(GR(10**300, 1))])
