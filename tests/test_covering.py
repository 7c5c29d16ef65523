import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from stlab.covering import (
    DuplicatePoints,
    FreeCube,
    InvalidParams,
    OverlappingInput,
    SignedPermutation,
    _complement_cubes,
    bott,
    boxes_overlap_interior,
    build_shift_graph,
    normalize_points,
    point_in_box_closed,
    points_in_boxes,
    run_covering,
    shift_cube,
    side_cube,
    verify_cover,
)

from _oracles import (
    IN_DEGREE_TWO,
    IN_DEGREE_TWO_POINTS,
    oracle_shift_graph,
    random_disjoint_cubes,
    random_rational_points,
)

F = Fraction


# -- cube primitives ----------------------------------------------------------


def test_side_cube_examples():
    unit = FreeCube((F(0), F(0), F(0)), F(1))
    b = side_cube(unit, (0, -1), 1)
    assert b.side == F(1, 3)
    assert b.corner == (F(0), F(1, 3), F(1, 3))
    assert side_cube(b, (0, -1), 1).side == F(1, 9)
    s = shift_cube(unit)
    assert s.corner == (F(-1, 10), F(0), F(0))
    top = side_cube(unit, (0, 1), 1)
    assert top.corner[0] == F(2, 3)


def test_complement_cover_1d():
    qbox, bbox = ((F(0), F(5)),), ((F(2), F(3)),)
    assert sorted(_complement_cubes(qbox, bbox)) == [((F(0), F(2)),), ((F(3), F(5)),)]
    assert _complement_cubes(qbox, qbox) == []


def test_complement_cover_2d_sampling_oracle():
    qbox = ((F(0), F(25)),) * 2
    bbox = ((F(10), F(15)), (F(15), F(20)))
    cubes = _complement_cubes(qbox, bbox)
    assert len(cubes) <= 3**2 - 1
    for cb in cubes:
        assert len({hi - lo for lo, hi in cb}) == 1
        assert all(lo >= ql and hi <= qh for (lo, hi), (ql, qh) in zip(cb, qbox))
        assert not boxes_overlap_interior(cb, bbox)
    rng = random.Random(0)
    for _ in range(10**4):
        p = tuple(F(rng.randint(0, 25 * 64 - 1), 64) + F(1, 128) for _ in range(2))
        inside_q = point_in_box_closed(p, qbox)
        inside_b = all(lo < x < hi for x, (lo, hi) in zip(p, bbox))
        if inside_q and not inside_b:
            assert any(point_in_box_closed(p, cb) for cb in cubes)


def test_normalize_points():
    pts, tr = normalize_points([(F(0), F(0)), (F(3), F(0))])
    d = 2
    assert len(pts) == 2
    diff2 = sum((a - b) ** 2 for a, b in zip(pts[0], pts[1]))
    assert diff2 > d
    assert all(x.denominator != 1 for p in pts for x in p)
    # transform is invertible
    back = [tr.invert(p) for p in pts]
    assert back == [(F(0), F(0)), (F(3), F(0))]
    with pytest.raises(DuplicatePoints):
        normalize_points([(F(1),), (F(1),)])
    single, _ = normalize_points([(F(7), F(2))])
    assert all(x.denominator != 1 for x in single[0])


# exact outputs, so a wrong reduction or prime choice cannot pass: 1/2 and
# 1/3 both put a coordinate of "half_third" on the lattice, and 1/2, 1/3
# and 1/5 one of "seven"; "mixed" has mixed denominators and scale 3
PINNED_NORMALIZE = {
    "half_third": (
        [(F(1, 2), F(2, 3)), (F(21, 2), F(32, 3))],
        [(F(7, 10), F(13, 15)), (F(107, 10), F(163, 15))],
        (F(1), F(1, 5)),
    ),
    "seven": (
        [(F(1, 2),), (F(32, 3),), (F(104, 5),)],
        [(F(9, 14),), (F(227, 21),), (F(733, 35),)],
        (F(1), F(1, 7)),
    ),
    "mixed": (
        [(F(1, 7), F(2, 5), F(3)), (F(4, 9), F(-1, 6), F(11, 4)), (F(0), F(5, 3), F(-7, 2))],
        [(F(16, 21), F(23, 15), F(28, 3)), (F(5, 3), F(-1, 6), F(103, 12)),
         (F(1, 3), F(16, 3), F(-61, 6))],
        (F(3), F(1, 3)),
    ),
    "close": (
        [(F(1, 10), F(0)), (F(0), F(1, 10)), (F(-3, 4), F(5, 6))],
        [(F(8, 5), F(1, 2)), (F(1, 2), F(8, 5)), (F(-31, 4), F(29, 3))],
        (F(11), F(1, 2)),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_NORMALIZE))
def test_normalize_points_pinned(name):
    pts, want, (scale, offset) = PINNED_NORMALIZE[name]
    got, tr = normalize_points(pts)
    assert got == want
    assert (tr.scale, tr.offset) == (scale, offset)
    assert [tr.invert(p) for p in got] == pts


# -- the covering algorithm ----------------------------------------------------


def test_run_covering_rejects_bad_params():
    with pytest.raises(InvalidParams):
        run_covering([(F(1, 2),)], 1, 1, 0)
    with pytest.raises(InvalidParams):
        run_covering([(F(1, 2),)], 1, 0, 1)
    with pytest.raises(InvalidParams):
        run_covering([(F(1),)], 1, 1, 1)  # integer coordinate


def test_two_point_cluster_d1():
    norm, _ = normalize_points([(F(0),), (F(3),)])
    res = run_covering(norm, 1, 1, 1)
    assert res.K, "selection must not be empty"
    rep = verify_cover(norm, res, 1, 1)
    assert rep.non_overlap_ok and rep.bott_ok and rep.edges_ok and rep.in_degree_ok
    for cube in res.K:
        inside = sum(
            1 for p in norm if point_in_box_closed(
                tuple(res.axis_map.apply_point(p)), bott(cube, 1).box())
        )
        assert inside >= 1


@pytest.mark.parametrize("seed,n,d,r", [(1, 300, 1, 1), (2, 400, 2, 1), (3, 500, 2, 2)])
def test_covering_guarantees_small(seed, n, d, r):
    pts = random_rational_points(n, d, 4 * n if d == 1 else int(4 * n**0.5), seed)
    norm, _ = normalize_points(pts)
    res = run_covering(norm, d, 1, r)
    rep = verify_cover(norm, res, 1, r)
    assert rep.non_overlap_ok
    assert rep.bott_ok
    assert rep.count_ok
    assert rep.edges_ok and rep.in_degree_ok


def test_covering_r_exceeding_n():
    pts = random_rational_points(10, 2, 40, 9)
    norm, _ = normalize_points(pts)
    res = run_covering(norm, 2, 1, 100)
    rep = verify_cover(norm, res, 1, 100)
    assert not rep.precondition_met
    assert rep.count_ok  # vacuous, reported as precondition unmet
    assert res.K == []


def _cover_digest(res):
    text = repr((
        res.axis_map.perm,
        res.axis_map.signs,
        [(c.corner, c.side) for c in res.K],
        [
            (p.level, p.processed, sorted(p.assigned.items()), p.yellows, p.central, p.deleted)
            for p in res.stats.phases
        ],
        res.stats.s,
        res.stats.b,
        res.stats.g,
    ))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# digests of covers that are known to satisfy every guarantee; any change
# to the covering's cell bookkeeping must reproduce them exactly.  The
# rows marked True reach A3 (the first of them every branch of
# _place_selected); ids leave kappa out so the first six keep their names.
PINNED_COVERS = [
    (21, 2000, 1, 1, 1, "116281126c0a1f5a", False),
    (22, 1500, 2, 2, 1, "7f4d95984945e0c4", False),
    (23, 1000, 2, 4, 1, "7f5fd2b4a8ebfec2", False),
    (24, 2000, 3, 1, 1, "d4aa4ce30ab5a495", False),
    (25, 600, 3, 2, 1, "8848af46cd470d66", False),
    (26, 2000, 4, 1, 1, "e1eb7ac573b54708", False),
    (0, 800, 1, 2, 1, "e5aa3876e9b98ce0", True),
    (1, 800, 2, 2, 2, "57d6a5623faa2120", True),
    (2, 800, 3, 2, 2, "6c5ffb0f826dcab3", True),
    # most cells hold fewer than r points and no label, so these pin the
    # A1 count of cells a phase never visits
    (27, 3000, 1, 4, 1, "520aa2903ff41239", True),
    (28, 4000, 2, 4, 1, "f53be949626cef2b", False),
    (30, 3000, 1, 8, 2, "582c3bb1bf28dcc0", False),
]


@pytest.mark.parametrize(
    "seed,n,d,r,kappa,digest,reaches_a3",
    PINNED_COVERS,
    ids=["%d-%d-%d-%d-%s" % (s, n, d, r, g) for s, n, d, r, _, g, _ in PINNED_COVERS],
)
def test_cover_output_pinned(seed, n, d, r, kappa, digest, reaches_a3):
    pts = random_rational_points(n, d, int(3 * n ** (1 / d)), seed)
    norm, _ = normalize_points(pts)
    res = run_covering(norm, d, kappa, r)
    assert _cover_digest(res) == digest
    assert any("A3" in p.assigned for p in res.stats.phases) == reaches_a3


def test_covering_deterministic():
    pts = random_rational_points(200, 2, 60, 4)
    norm, _ = normalize_points(pts)
    r1 = run_covering(norm, 2, 1, 2)
    r2 = run_covering(norm, 2, 1, 2)
    assert r1.K == r2.K and r1.axis_map == r2.axis_map


# -- shift graphs ----------------------------------------------------------------


def fc(corner, side):
    return FreeCube(tuple(F(x) for x in corner), F(side))


def test_shift_graph_two_cube_stack():
    # big cube above, smaller cube flush below its bottom side-cube
    q1 = fc((0, 0), 3)
    q2 = fc((F(-1, 2), F(5, 4)), F(1, 2))
    g = build_shift_graph([q1, q2], kappa=1)
    assert g.edges == [(0, 1)]
    assert max(g.in_degrees()) == 1


def test_shift_graph_side_by_side():
    q1 = fc((0, 0), 1)
    q2 = fc((0, 2), 1)
    g = build_shift_graph([q1, q2], kappa=1)
    assert g.edges == []
    assert build_shift_graph([q1], kappa=1).edges == []


def test_shift_graph_blocked_corridor():
    # a small cube hangs slightly below q1's bottom plane; three slim cubes
    # tile the corridor between them and must kill the edge exactly
    q1 = fc((0, 0), 3)
    q2 = FreeCube((F(-7, 100), F(59, 40)), F(1, 20))
    blockers = [
        FreeCube((F(-1, 50), F(59, 40) + k * F(1, 50)), F(1, 50)) for k in range(3)
    ]
    g_without = build_shift_graph([q1, q2], kappa=1)
    assert (0, 1) in g_without.edges
    g_with = build_shift_graph([q1, q2] + blockers, kappa=1)
    assert (0, 1) not in g_with.edges
    # removing the middle tile reopens a corridor
    g_gap = build_shift_graph([q1, q2, blockers[0], blockers[2]], kappa=1)
    assert (0, 1) in g_gap.edges


def test_shift_graph_rejects_overlap():
    with pytest.raises(OverlappingInput):
        build_shift_graph([fc((0, 0), 2), fc((1, 1), 2)], kappa=1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_shift_graph_matches_oracle(d):
    for seed in range(16):
        rng = random.Random(1000 * d + seed)
        cubes = random_disjoint_cubes(rng, d, rng.randint(2, 8 if d < 4 else 6))
        got = build_shift_graph(cubes, kappa=1)
        assert sorted(got.edges) == oracle_shift_graph(cubes, 1)
        assert len(got.edges) <= len(cubes)


def test_verify_cover_flags_bad_inputs():
    # hand-built overlap
    from stlab.covering import CoverResult, CoverStats

    k_overlap = [fc((0, 0), 2), fc((1, 1), 2)]
    res = CoverResult(k_overlap, SignedPermutation.identity(2), CoverStats())
    rep = verify_cover([(F(1, 2), F(1, 2))], res, 1, 1)
    assert not rep.non_overlap_ok
    # bott holding fewer than r points
    k_sparse = [fc((0, 0), 3)]
    res = CoverResult(k_sparse, SignedPermutation.identity(2), CoverStats())
    rep = verify_cover([(F(1, 2), F(5, 2))], res, 1, 1)
    assert not rep.bott_ok and rep.bott_failures == [0]
    # a non-identity axis map: y = (-x1, x0), so bott(K[0]) = [0,1]x[1,2]
    # in the work frame; the first point maps to (1, 3/2) on its face,
    # the second to (1 + 1/1000, 3/2) just outside
    amap = SignedPermutation.sending_to_bottom((1, 1), 2)
    assert amap == SignedPermutation((1, 0), (-1, 1))
    on_face, outside = (F(3, 2), F(-1)), (F(3, 2), F(-1001, 1000))
    assert amap.apply_point(on_face) == (F(1), F(3, 2))
    res = CoverResult([fc((0, 0), 3)], amap, CoverStats())
    rep = verify_cover([outside, on_face], res, 1, 1)
    assert rep.bott_ok
    rep = verify_cover([outside, on_face], res, 1, 2)
    assert rep.bott_failures == [0]



def test_verify_cover_names_witnesses():
    from stlab.covering import CoverResult, CoverStats

    assert oracle_shift_graph(IN_DEGREE_TWO, 1) == [(1, 0), (2, 0)]
    res = CoverResult(IN_DEGREE_TWO, SignedPermutation.identity(2), CoverStats())
    rep = verify_cover(IN_DEGREE_TWO_POINTS, res, 1, 1)
    assert rep.bott_ok and rep.non_overlap_ok and not rep.in_degree_ok
    assert (rep.max_in_degree, rep.max_in_target, rep.max_in_sources) == (2, 0, [1, 2])
    assert rep.overlap_pair is None
    # cubes 0 and 2 overlap, 1 is apart from both
    k_overlap = [fc((0, 0), 2), fc((5, 5), 1), fc((1, 1), 2)]
    with pytest.raises(OverlappingInput) as err:
        build_shift_graph(k_overlap, kappa=1)
    assert err.value.pair == (0, 2)
    res = CoverResult(k_overlap, SignedPermutation.identity(2), CoverStats())
    rep = verify_cover([(F(1, 2), F(1, 2))], res, 1, 1)
    assert not rep.non_overlap_ok and rep.overlap_pair == (0, 2)
    assert rep.max_in_target is None and rep.max_in_sources == []
    # a sound cover carries no overlap witness
    norm, _ = normalize_points([(F(0),), (F(3),)])
    rep = verify_cover(norm, run_covering(norm, 1, 1, 1), 1, 1)
    assert rep.all_ok and rep.overlap_pair is None


def test_points_in_boxes_matches_brute_force():
    # coordinates on a grid of quarters, so many points sit on box faces
    rng = random.Random(5)
    for d in (1, 2, 3):
        pts = [tuple(F(rng.randint(-8, 8), 4) for _ in range(d)) for _ in range(60)]
        boxes = []
        for _ in range(12):
            lo = [F(rng.randint(-8, 6), 4) for _ in range(d)]
            boxes.append(tuple((a, a + F(rng.randint(0, 4), 4)) for a in lo))
        want = [[i for i, p in enumerate(pts) if point_in_box_closed(p, b)] for b in boxes]
        assert points_in_boxes(pts, boxes) == want
    assert points_in_boxes([], boxes) == [[]] * len(boxes)


def test_signed_permutation_inverse_round_trip():
    for d in (1, 2, 3):
        p = tuple(F(k + 1, k + 2) for k in range(d))
        box = tuple((F(-k - 1), F(k, 3)) for k in range(d))
        for perm in itertools.permutations(range(d)):
            for signs in itertools.product((-1, 1), repeat=d):
                sp = SignedPermutation(perm, signs)
                inv = sp.inverse()
                assert inv.apply_point(sp.apply_point(p)) == p
                assert sp.apply_point(inv.apply_point(p)) == p
                assert inv.apply_box(sp.apply_box(box)) == box
                assert inv.inverse() == sp


def test_shift_graph_perched_family_oracle():
    # twenty big cubes, each with a small cube hanging just below its
    # bottom face: one edge per pair
    cubes = []
    for k in range(20):
        y = F(10 * k)
        cubes.append(fc((0, y), 3))
        cubes.append(FreeCube((F(-1, 2), y + F(5, 4)), F(1, 2)))
    graph = build_shift_graph(cubes, kappa=1)
    assert graph.edges == oracle_shift_graph(cubes, 1)
    assert len(graph.edges) == 20
