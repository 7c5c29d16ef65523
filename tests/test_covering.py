import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlab.covering import (
    CoverResult,
    CoverStats,
    CubeState,
    DuplicatePoints,
    FreeCube,
    InvalidParams,
    NormalizeTransform,
    OverlappingInput,
    PointSet,
    ShiftGraph,
    SignedPermutation,
    _CellInfo,
    _CoverRun,
    _complement_cubes,
    _keys,
    _on_grid,
    _overlap_candidates,
    _unpack,
    boxes_overlap_interior,
    build_shift_graph,
    normalize_points,
    points_in_boxes,
    run_covering,
    verify_cover,
)

from _oracles import (
    IN_DEGREE_TWO,
    IN_DEGREE_TWO_POINTS,
    KNOWN_DEFECT_WITNESSES,
    apply_point,
    box,
    clustered_cover_input,
    oracle_bott,
    oracle_separating_scale,
    oracle_shift_graph,
    point_in_box_closed,
    random_disjoint_cubes,
    random_clustered_points,
    random_mixed_cubes,
    random_rational_points,
    shift_cube,
)

F = Fraction


# -- cube primitives ----------------------------------------------------------


def test_grid_boxes_examples():
    # the unit cube at kappa 1: bott is the middle third of the bottom
    # face, shifted down by a tenth of its own side; the grid step is 1/30
    unit = FreeCube((F(0), F(0), F(0)), F(1))
    grid = _on_grid([unit], 1)
    assert grid.scale == 30
    assert grid.boxes == [((0, 30),) * 3]
    assert grid.botts == [((0, 10), (10, 20), (10, 20))]
    assert grid.shifted_botts == [((-1, 9), (10, 20), (10, 20))]
    assert grid.shifts == [((-3, 27), (0, 30), (0, 30))]
    assert shift_cube(unit).corner == (F(-1, 10), F(0), F(0))
    # mixed denominators and kappa 2: every box is the Fraction one,
    # scaled, and the faces a corridor test sees are multiples of 10 steps
    cubes = [FreeCube((F(1, 3), F(-2, 7)), F(5, 9)), FreeCube((F(3, 8), F(1)), F(1, 2))]
    grid = _on_grid(cubes, 2)
    assert grid.scale == 10 * 5 * 504
    for k, c in enumerate(cubes):
        b = oracle_bott(c, 2)
        want = (box(c), box(b), box(shift_cube(b)), box(shift_cube(c)))
        got = (grid.boxes[k], grid.botts[k], grid.shifted_botts[k], grid.shifts[k])
        for w, g in zip(want, got):
            assert tuple((F(lo, grid.scale), F(hi, grid.scale)) for lo, hi in g) == w
        assert all(v % 10 == 0 for g in got[:2] for ax in g for v in ax)


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


def test_a3_count_is_half_open():
    # d = 1, rho = 5, r = 1: the level-1 cell [0, 5) has a carrier at
    # [2, 3), so its complement cubes are [0, 2] and [3, 5].  The point
    # at 5x = 5/2 lies in level-0 cell 2, inside the carrier, and the
    # half-open count keeps it out of [0, 2]; the point at 5x = 7/2 makes
    # [3, 5] the green.
    run = _CoverRun([(F(1, 2),), (F(7, 10),)], 1, 1, 1)
    info = run.process_cell((0,), 1, [((2,), _CellInfo(CubeState.A4))], [0, 1])
    assert (info.state, info.green, info.avoid) == (CubeState.A3, ((3, 5),), ((2, 3),))


def test_result_maps_selected_boxes_through_the_axis_map():
    # two of three selected cubes face +x1, so the result keeps those two,
    # sends +x1 to -x0 and emits each as a FreeCube in units of 1/rho
    run = _CoverRun([], 2, 1, 1)
    run.selected = [
        (((0, 15), (10, 25)), (1, 1)),
        (((30, 45), (0, 15)), (0, -1)),
        (((-5, 0), (-20, -15)), (1, 1)),
    ]
    res = run.result()
    amap = SignedPermutation.sending_to_bottom((1, 1), 2)
    assert res.axis_map == amap
    want = []
    for box, _ in run.selected[::2]:
        image = amap.apply_box(tuple((F(lo, 5), F(hi, 5)) for lo, hi in box))
        want.append(FreeCube(tuple(lo for lo, _ in image), image[0][1] - image[0][0]))
    assert list(res.K) == want and res.K[0] == FreeCube((F(-5), F(0)), F(3))


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
    # a repeat, on the line (not adjacent in input order) and in the plane
    for dup in (
        [(F(1),), (F(1),)],
        [(F(1, 3),), (F(-5),), (F(7, 2),), (F(1, 3),)],
        [(F(1), F(2)), (F(3), F(4)), (F(1), F(2))],
    ):
        with pytest.raises(DuplicatePoints, match="pairwise distinct"):
            normalize_points(dup)
    # the type comes first, then the dimension: zip would cut (1, 2) to (1,)
    with pytest.raises(TypeError):
        normalize_points([(F(1), 0.5), (F(1),)])
    with pytest.raises(InvalidParams, match="dimension"):
        normalize_points([(F(1), F(2)), (F(1),)])
    with pytest.raises(InvalidParams, match="dimension"):
        normalize_points([()])
    single, _ = normalize_points([(F(7), F(2))])
    assert all(x.denominator != 1 for x in single[0])
    # points spread beyond float range normalise exactly
    far = [(F(10**400, 3),), (F(1, 7),)]
    got, tr = normalize_points(far)
    assert tr == NormalizeTransform(F(1), F(1, 2))
    assert list(got) == [(F(10**400, 3) + F(1, 2),), (F(9, 14),)]
    assert [tr.invert(p) for p in got] == far
    # a close pair far from 0
    got, _ = normalize_points([(F(10**400) + F(1, 2),), (F(10**400) + F(3, 2),)])
    assert (got[0][0] - got[1][0]) ** 2 > 1
    # a squared distance that no float holds: scale 1 already separates
    _, tr = normalize_points([(F(0),), (F(10**200),)])
    assert tr == NormalizeTransform(F(1), F(1, 2))
    # close pairs far from 0 and a gap of 10^-200, each also behind a far
    # point at -1
    for pair in (
        [(F(10**9),), (F(10**9) + F(1, 10**7),)],
        [(F(2**40) + F(1, 2),), (F(2**40) + F(1, 2) + F(3, 2**14),)],
        [(F(10**17),), (F(10**17) + F(1, 2),)],
        [(F(0),), (F(1, 10**200),)],
    ):
        for pts in (pair, [(F(-1),)] + pair[::-1]):
            got, tr = normalize_points(pts)
            assert min((a[0] - b[0]) ** 2 for a, b in itertools.combinations(got, 2)) > 1
            assert [tr.invert(p) for p in got] == pts


def test_normalize_points_dense_cluster_far_away():
    # 1000 points 10^-6 apart near 10^17 and one at 0: linear, not
    # quadratic in the cluster
    pts = [(F(0),)] + [(F(10**17) + F(j, 10**6),) for j in range(1000)]
    start = time.perf_counter()
    got, tr = normalize_points(pts)
    assert time.perf_counter() - start < 1
    assert tr == NormalizeTransform(F(10**6 + 1), F(1, 2))
    assert (got[2][0] - got[1][0]) ** 2 > 1


def test_normalize_points_keys_the_widest_axes():
    # 2,000 points that agree on the first four of five axes: the grid
    # keys on the spread fifth axis, so they are not compared all against all
    h = F(1, 2)
    pts = [(h, h, h, h, i + h) for i in range(2000)]
    start = time.perf_counter()
    got, tr = normalize_points(pts)
    assert time.perf_counter() - start < 0.5
    # the brute-force oracle needs about 45 s for all 2,000 points; every
    # prefix of two or more has the same least squared distance, 1
    assert tr.scale == oracle_separating_scale(pts[:300])
    assert list(got) == [tuple(tr.scale * x + tr.offset for x in p) for p in pts]


def test_normalize_points_keys_the_axes_with_most_cells():
    # two far clusters on axes 1-4, spread only along a narrow fifth axis:
    # the four widest axes hold two cells each, the fifth about n / 2
    n = 4000
    pts = [(F(1000 * (i % 2)),) * 4 + (F(i, 1000),) for i in range(n)]
    start = time.perf_counter()
    got, tr = normalize_points(pts)
    assert time.perf_counter() - start < 1
    # least squared distance (2/1000)^2, from i to i + 2 on the fifth axis
    assert tr.scale == math.isqrt(5 * 1000**2 // 4) + 1 == oracle_separating_scale(pts[:200])
    assert list(got) == [tuple(tr.scale * x + tr.offset for x in p) for p in pts]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 8))  # the grid keys on four axes
def test_normalize_points_least_scale_matches_oracle(seed, d):
    rng = random.Random(seed)
    pts = random_clustered_points(rng, d, rng.randint(2, 40))
    if d == 1:
        # the sorted route: up to five clustered draws, at most 200 points, shuffled
        pts = list(dict.fromkeys(pts + [p for _ in range(rng.randint(0, 4))
                                        for p in random_clustered_points(rng, 1, 40)]))
        rng.shuffle(pts)
    got, tr = normalize_points(pts)
    assert tr.scale == oracle_separating_scale(pts)
    assert list(got) == [tuple(tr.scale * x + tr.offset for x in p) for p in pts]
    assert all(x.denominator != 1 for p in got for x in p)
    # the same point again, once as ints where it has them
    twin = tuple(int(x) if x.denominator == 1 else x for x in rng.choice(pts))
    with pytest.raises(DuplicatePoints):
        normalize_points(pts + [twin])


def test_random_clustered_points_runs_out():
    # on a line a cluster holds 125 distinct points, so 200 points need
    # two clusters that do not coincide; the draw fails cleanly otherwise
    outcomes = []
    for seed in range(12):
        try:
            pts = random_clustered_points(random.Random(seed), 1, 200)
        except ValueError:
            outcomes.append(False)
        else:
            assert len(set(pts)) == 200
            outcomes.append(True)
    assert any(outcomes) and not all(outcomes)
    with pytest.raises(ValueError):
        random_clustered_points(random.Random(0), 1, 376)  # three clusters hold 375


def test_covering_high_dimension_is_fast():
    # a grid on all 20 axes would probe (3^20 - 1)/2 neighbour cells
    pts = random_clustered_points(random.Random(7), 20, 3)
    start = time.perf_counter()
    norm, _ = normalize_points(pts)
    assert verify_cover(norm, run_covering(norm, 20, 1, 1), 1, 1).all_ok
    assert time.perf_counter() - start < 1


def test_covering_runs_without_scipy():
    code = (
        "import sys\n"
        "from stlab.covering import normalize_points, run_covering, verify_cover\n"
        "from _oracles import random_rational_points\n"
        "norm, _ = normalize_points(random_rational_points(300, 2, 30, 5))\n"
        "assert verify_cover(norm, run_covering(norm, 2, 1, 1), 1, 1).all_ok\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(here, os.pardir, "src"), here]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


coordinates = st.one_of(st.integers(-(10**30), 10**30), st.fractions(max_denominator=10**12))


@given(st.integers(1, 3).flatmap(lambda d: st.lists(st.tuples(*[coordinates] * d), max_size=6)))
def test_point_set_holds_the_points_over_the_least_denominator(pts):
    ps = PointSet.of(pts)
    assert list(ps) == [tuple(map(Fraction, p)) for p in pts]
    assert len(ps) == len(pts) and PointSet.of(ps) is ps
    assert math.gcd(ps.den, *(a for col in ps.cols for a in col)) == 1
    assert ps == PointSet.over(6 * ps.den, [[6 * a for a in col] for col in ps.cols])
    assert (ps.cols == ()) == (not pts)


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
    assert list(got) == want
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
    half, third = F(1, 2), F(1, 3)
    with pytest.raises(DuplicatePoints):
        run_covering([(half, third), (F(7, 2), third), (half, third)], 2, 1, 1)
    with pytest.raises(InvalidParams, match="dimension"):
        run_covering([(half, third), (half,)], 2, 1, 1)
    with pytest.raises(InvalidParams, match="dimension"):
        run_covering([(half,), (half,)], 2, 1, 1)
    # several faults: the type comes first, then the dimension, then a
    # duplicate, then an integer coordinate
    with pytest.raises(TypeError):
        run_covering([(half, third, half), (0.5, third)], 2, 1, 1)
    with pytest.raises(InvalidParams, match="dimension"):
        run_covering([(F(1), third), (half,), (half,)], 2, 1, 1)
    with pytest.raises(DuplicatePoints):
        run_covering([(F(1), third), (half, third), (half, third)], 2, 1, 1)


def test_verifier_beyond_float_range():
    # one cube 10^400 up the first axis: its float bounds overflow, and the
    # verifier must still answer exactly
    big = 10**400
    cubes = [fc((big, 0), 1), fc((0, 0), 1)]
    pts = [(big + F(1, 6), F(1, 2)), (F(1, 6), F(1, 2)), (big + F(1, 3), F(2, 3)),
           (big - F(1, 10**9), F(1, 2)), (-big, F(1, 2))]
    res = CoverResult(cubes, SignedPermutation((0, 1), (1, 1)), CoverStats())
    assert build_shift_graph(cubes, 1).edges == []
    rep = verify_cover(pts, res, 1, 1)
    assert rep.all_ok and rep.bott_failures == []
    assert verify_cover(pts, res, 1, 2).bott_failures == [1]
    # a small cube just below the far one: the far cube's shift swallows its spill
    perched = cubes + [fc((big - F(1, 20), F(1, 2)), F(1, 100))]
    assert build_shift_graph(perched, 1).edges == oracle_shift_graph(perched, 1) == [(2, 0)]
    with pytest.raises(OverlappingInput) as err:
        build_shift_graph(cubes + [fc((big + F(1, 2), F(1, 2)), 1)], 1)
    assert err.value.pair == (0, 2)
    # the negative side, on a grid of step 1/10: boxes reaching past float
    # range, and two that end a tenth before -10^400 or start on it
    boxes = [((-20 * big, 10 * big), (0, 30 * big)), ((-10 * big - 10, -10 * big - 1), (0, 10)),
             ((-10 * big, -10 * big + 1), (0, 10))]
    assert points_in_boxes([(-big, F(1, 2)), (F(1, 2), F(1, 2))], boxes, 10) == [[0, 1], [], [0]]


def test_int_sweep_matches_brute_force():
    # faces on a coarse lattice, so many boxes touch; negative coordinates
    # and some boxes and points 10^400 out
    rng = random.Random(17)
    big = 10**400
    for d in (1, 2, 3):
        for _ in range(20):
            boxes = []
            for _ in range(rng.randint(0, 14)):
                far = rng.choice((-big, 0, 0, big))
                box = []
                for ax in range(d):
                    lo = 3 * rng.randint(-4, 3) + (0 if ax else far)
                    box.append((lo, lo + 3 * rng.randint(0, 3) + (abs(far) if ax else 0)))
                boxes.append(tuple(box))
            other = boxes[::-1] + [tuple((hi, hi + 3) for _, hi in b) for b in boxes[:3]]
            pairs = _overlap_candidates(boxes, other)
            want = {(i, j) for i, a in enumerate(boxes) for j, b in enumerate(other)
                    if all(max(la, lb) <= min(ha, hb) for (la, ha), (lb, hb) in zip(a, b))}
            assert set(pairs) == want and len(pairs) == len(want)
            # i ascending, then j in the stable order of other's lower faces
            assert pairs == sorted(pairs, key=lambda ij: (ij[0], other[ij[1]][0][0], ij[1]))
            # points on faces, one step of 1/scale off them, and between
            scale = rng.choice((1, 3, 10))
            pts = set()
            for b in boxes:
                for _ in range(4):
                    pts.add(tuple(
                        F(2 * rng.choice((lo, hi)) + rng.choice((-2, 0, 2, 1)), 2 * scale)
                        for lo, hi in b
                    ))
            pts = sorted(pts)
            got = points_in_boxes(pts, boxes, scale)
            frac = [[(F(lo, scale), F(hi, scale)) for lo, hi in b] for b in boxes]
            want = [[k for k, p in enumerate(pts) if point_in_box_closed(p, q)] for q in frac]
            assert got == want


def test_two_point_cluster_d1():
    norm, _ = normalize_points([(F(0),), (F(3),)])
    res = run_covering(norm, 1, 1, 1)
    assert res.K, "selection must not be empty"
    rep = verify_cover(norm, res, 1, 1)
    assert rep.non_overlap_ok and rep.bott_ok and rep.edges_ok and rep.in_degree_ok
    for cube in res.K:
        inside = sum(
            1 for p in norm if point_in_box_closed(
                tuple(apply_point(res.axis_map, p)), box(oracle_bott(cube, 1)))
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
    assert list(res.K) == []


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
# The last field names the input: "grid" points are random_rational_points
# over a span of 3 n^(1/d), "wide" ones over a span of 10^6, and
# "clustered" ones are clustered_cover_input(seed), whose n, d, r and
# kappa the row repeats, and "anchors" ones are _anchor_clusters(seed, n).
PINNED_COVERS = [
    (21, 2000, 1, 1, 1, "116281126c0a1f5a", False, "grid"),
    (22, 1500, 2, 2, 1, "7f4d95984945e0c4", False, "grid"),
    (23, 1000, 2, 4, 1, "7f5fd2b4a8ebfec2", False, "grid"),
    (24, 2000, 3, 1, 1, "d4aa4ce30ab5a495", False, "grid"),
    (25, 600, 3, 2, 1, "8848af46cd470d66", False, "grid"),
    (26, 2000, 4, 1, 1, "e1eb7ac573b54708", False, "grid"),
    (0, 800, 1, 2, 1, "e5aa3876e9b98ce0", True, "grid"),
    (1, 800, 2, 2, 2, "57d6a5623faa2120", True, "grid"),
    (2, 800, 3, 2, 2, "6c5ffb0f826dcab3", True, "grid"),
    # most cells hold fewer than r points and no label, so these pin the
    # A1 count of cells a phase never visits
    (27, 3000, 1, 4, 1, "520aa2903ff41239", True, "grid"),
    (28, 4000, 2, 4, 1, "f53be949626cef2b", False, "grid"),
    (30, 3000, 1, 8, 2, "582c3bb1bf28dcc0", False, "grid"),
    # far apart points at r = 1: carriers climb up to 11 levels as lone
    # carriers with fewer than (3^d - 1) r points, so A4 without a box
    (0, 300, 1, 1, 1, "9abd9fa3dd4bd35f", False, "wide"),
    (1, 300, 2, 1, 1, "e66bc9a11402c9d9", False, "wide"),
    # lone carriers with at least (3^d - 1) r points: three find a green
    # at d = 2; at d = 1 six find one and two search every complement
    # cube in vain and fall back to A4
    (3, 800, 2, 2, 2, "2d7b14f3de9b2f0b", True, "grid"),
    (6, 800, 1, 2, 1, "f08825690ace9554", True, "grid"),
    # r = 8 in six tight clusters: hundreds of quiet cells hold 2 to 7 points
    (71, 1500, 2, 8, 2, "783663bff4cf43b9", False, "clustered"),
    # combine's d = 4 covers at r = 27 * 2 and 27 * 3: the late phases hold
    # a few hundred points in a handful of cells
    (2, 170, 4, 54, 1, "17dcd9e473290835", False, "anchors"),
    (5, 170, 4, 81, 1, "012329d5b1f65f2e", False, "anchors"),
    (1, 255, 4, 54, 1, "839eca9645f7b28b", False, "anchors"),
    (6, 255, 4, 81, 1, "ca289c96ba4d5598", False, "anchors"),
]


def _anchor_clusters(seed, n):
    """n // 85 clusters of 85 points in R^4, shaped like the anchors of
    combine's covers: each coordinate an integer centre, a multiple of
    1000, plus 0 to 6 plus a distinct 2^-20 tie-breaker."""
    rng = random.Random(seed)
    centres = set()
    while len(centres) < n // 85:
        centres.add(tuple(1000 * rng.randint(-5, 5) for _ in range(4)))
    ties = itertools.count(1, 2)
    return [
        tuple(c + rng.randint(0, 6) + F(next(ties), 2**20) for c in centre)
        for centre in sorted(centres)
        for _ in range(85)
    ]


def _pinned_points(seed, n, d, source):
    if source == "clustered":
        pts, *_ = clustered_cover_input(seed)
        return pts
    if source == "anchors":
        return _anchor_clusters(seed, n)
    return random_rational_points(n, d, 10**6 if source == "wide" else int(3 * n ** (1 / d)), seed)


@pytest.mark.parametrize(
    "seed,n,d,r,kappa,digest,reaches_a3,source",
    PINNED_COVERS,
    ids=[
        "%s%d-%d-%d-%d-%s" % ("" if src == "grid" else src + "-", s, n, d, r, g)
        for s, n, d, r, _, g, _, src in PINNED_COVERS
    ],
)
def test_cover_output_pinned(seed, n, d, r, kappa, digest, reaches_a3, source):
    if source == "clustered":
        assert clustered_cover_input(seed)[1:] == (d, kappa, r)
    pts = _pinned_points(seed, n, d, source)
    assert len(pts) == n
    norm, _ = normalize_points(pts)
    res = run_covering(norm, d, kappa, r)
    assert _cover_digest(res) == digest
    assert any("A3" in p.assigned for p in res.stats.phases) == reaches_a3


# the same kind of inputs moved off the origin, digests recorded before
# cells were keyed by hull-relative ints: mirrored through 0, shifted by
# -10^6, or shifted by half their span so that the hull straddles 0
OFF_ORIGIN_COVERS = [
    (41, 800, 1, 1, 1, "mirror", "bfca727c61e0f904", False),
    (42, 1200, 1, 4, 1, "shift", "09d0e26a758f8ba7", False),
    (0, 800, 1, 2, 1, "shift", "f5c4e7c415a92503", True),
    (43, 800, 2, 2, 1, "straddle", "1f61829c5b82d7d4", False),
    (44, 1000, 2, 1, 2, "mirror", "3c34872b5b849548", False),
    (1, 800, 2, 2, 2, "mirror", "5e8f68c69aa192e3", True),
    (45, 600, 3, 1, 1, "shift", "5910a6c8daa4d93b", False),
    (46, 800, 3, 4, 2, "mirror", "50a288ea358ab0f7", False),
    (47, 800, 4, 2, 1, "shift", "d81976254d4ba14e", False),
    (48, 1000, 4, 4, 1, "straddle", "db00726d31767842", False),
    # r = 1, so every occupied cell of the first phase is A2, decoded
    # from its key on a hull with negative corners
    (49, 1500, 3, 1, 2, "straddle", "10415e45dc5851c7", False),
    (50, 2000, 4, 1, 1, "mirror", "4a0119960b38f707", False),
]


@pytest.mark.parametrize(
    "seed,n,d,r,kappa,move,digest,reaches_a3",
    OFF_ORIGIN_COVERS,
    ids=["%d-%d-%d-%d-%s" % (s, n, d, r, m) for s, n, d, r, _, m, _, _ in OFF_ORIGIN_COVERS],
)
def test_cover_output_pinned_off_origin(seed, n, d, r, kappa, move, digest, reaches_a3):
    span = int(3 * n ** (1 / d))
    pts = random_rational_points(n, d, span, seed)
    if move == "mirror":
        pts = [tuple(-x for x in p) for p in pts]
    else:
        off = -(10**6) if move == "shift" else -(span // 2)
        pts = [tuple(x + off for x in p) for p in pts]
    norm, _ = normalize_points(pts)
    # the hull's low corner is negative; only the straddling hull reaches past 0
    assert all(x < 0 for x in map(min, zip(*norm)))
    assert all(x > 0 for x in map(max, zip(*norm))) == (move == "straddle")
    res = run_covering(norm, d, kappa, r)
    assert _cover_digest(res) == digest
    assert any("A3" in p.assigned for p in res.stats.phases) == reaches_a3


def test_cell_keys_round_trip_in_lexicographic_order():
    # random hulls with negative corners: _keys at origin 0 and side 1 keys
    # the level-0 cells, _unpack gives them back one axis at a time, sorted
    # keys (negative ones too: axis 0 has no offset) run in lexicographic
    # cell order, and one floor of the level-0 cells keys the cells of
    # every level as lifting them level by level with (c - t) // rho does
    rng = random.Random(7)
    for _ in range(300):
        d, kappa = rng.randint(1, 4), rng.choice((1, 2))
        rho = 4 * kappa + 1
        lo = tuple(rng.randint(-(10 ** rng.randint(1, 12)), 3) for _ in range(d))
        hi = tuple(x + rng.randint(0, 10 ** rng.randint(0, 4)) for x in lo)
        cells = {tuple(rng.randint(a, b) for a, b in zip(lo, hi)) for _ in range(40)}
        cells = sorted(cells | {lo, hi})
        rng.shuffle(cells)
        run = _CoverRun([tuple(F(2 * x + 1, 2 * rho) for x in c) for c in cells], d, kappa, 1)
        assert (run.lo, run.hi) == (lo, hi)
        assert list(zip(*run.cells)) == cells
        keys = _keys(run.cells, (0,) * d, 1, lo, hi)
        assert [k < 0 for k in keys] == [c[0] < 0 for c in cells]
        assert list(zip(*_unpack(keys, lo, hi))) == cells
        assert list(zip(*_unpack(sorted(keys), lo, hi))) == sorted(cells)
        # level by level: shifts t in [0, rho) move the origin by t rho^(L-1)
        origin, lifted, low, high = (0,) * d, cells, lo, hi
        for level in range(1, 5):
            t = tuple(rng.randrange(rho) for _ in range(d))

            def up(c):
                return tuple((x - s) // rho for x, s in zip(c, t))

            origin = tuple(o + s * rho ** (level - 1) for o, s in zip(origin, t))
            lifted, low, high = [up(c) for c in lifted], up(low), up(high)
            keys = _keys(run.cells, origin, rho**level, low, high)
            assert keys == _keys(list(zip(*lifted)), (0,) * d, 1, low, high)


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


def test_shift_graph_d1_admits_two_sources():
    # at d = 1 a target can have a source above it, whose bottom side-cube
    # is longer than the target, and a small one within side/10 below it
    cubes = [fc((0,), 10), FreeCube((F(21, 2),), F(60)), FreeCube((F(-3, 5),), F(1, 2))]
    edges = build_shift_graph(cubes, kappa=1).edges
    assert edges == oracle_shift_graph(cubes, 1) == [(0, 2), (1, 0), (2, 0)]


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


@pytest.mark.parametrize("d", [2, 3])
def test_shift_graph_corridor_touching_cases(d):
    # q1 = [0, 1]^d; the big q2 above it reaches down into bott(q1) after
    # its shift, so the corridor runs from the bottom of bott(q1), x0 = 0,
    # to the top of q2, x0 = 32, over bott(q1)'s lateral [1/3, 2/3]^(d-1).
    # A cube whose closed box touches the corridor is a blocker; touching
    # it at an end covers the whole base, along an edge only its boundary
    def cube(x0, lat, side):
        return FreeCube((F(x0),) + (F(lat),) * (d - 1), F(side))

    q1, q2 = cube(0, 0, 1), cube(2, -10, 30)
    families = [
        # a first-axis face exactly at either end of the segment
        ([cube(32, 0, 1)], False),
        ([cube(-1, 0, 1)], False),
        ([cube(F(321, 10), 0, 1)], True),
        ([cube(F(-11, 10), 0, 1)], True),
        # meeting the corridor only along a lateral edge
        ([cube(1, F(2, 3), F(1, 3))], True),
        ([cube(1, 0, F(1, 3))], True),
        # two tiles meeting on the plane lateral = 1/2 close it at d = 2 (at
        # d = 3 they cover two of the base's four quarters); an edge touch
        # beside one tile leaves the slab between them open
        ([cube(F(3, 2), 0, F(1, 2)), cube(1, F(1, 2), F(1, 3))], d > 2),
        ([cube(F(3, 2), 0, F(1, 2)), cube(1, F(2, 3), F(1, 3))], True),
    ]
    assert build_shift_graph([q1, q2], kappa=1).edges == [(0, 1)]
    for blockers, open_ in families:
        cubes = [q1, q2] + blockers
        edges = build_shift_graph(cubes, kappa=1).edges
        assert edges == oracle_shift_graph(cubes, 1)
        assert ((0, 1) in edges) == open_


def test_shift_graph_rejects_overlap():
    with pytest.raises(OverlappingInput):
        build_shift_graph([fc((0, 0), 2), fc((1, 1), 2)], kappa=1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_shift_graph_matches_oracle(d):
    # half-integer families, then families mixing the denominators 3, 7, 9
    # and 2^k with cubes perched in reach of a shift, so the grid's lcm
    # and its 2 kappa + 1 factor both matter
    edges = 0
    for seed in range(16):
        rng = random.Random(1000 * d + seed)
        cubes = random_disjoint_cubes(rng, d, rng.randint(2, 8 if d < 4 else 6))
        got = build_shift_graph(cubes, kappa=1)
        assert sorted(got.edges) == oracle_shift_graph(cubes, 1)
        assert len(got.edges) <= len(cubes)
        for kappa in (1, 2):
            assert build_shift_graph(cubes, kappa).edges == oracle_shift_graph(cubes, kappa)
            mixed = random_mixed_cubes(rng, d, rng.randint(2, 8 if d < 4 else 6), kappa)
            got = build_shift_graph(mixed, kappa)
            assert got.edges == oracle_shift_graph(mixed, kappa)
            edges += len(got.edges)
    assert edges >= 30


def test_verify_cover_flags_bad_inputs():
    # hand-built overlap
    k_overlap = [fc((0, 0), 2), fc((1, 1), 2)]
    res = CoverResult(k_overlap, SignedPermutation((0, 1), (1, 1)), CoverStats())
    rep = verify_cover([(F(1, 2), F(1, 2))], res, 1, 1)
    assert not rep.non_overlap_ok
    # bott holding fewer than r points
    k_sparse = [fc((0, 0), 3)]
    res = CoverResult(k_sparse, SignedPermutation((0, 1), (1, 1)), CoverStats())
    rep = verify_cover([(F(1, 2), F(5, 2))], res, 1, 1)
    assert not rep.bott_ok and rep.bott_failures == [0]
    # a non-identity axis map: y = (-x1, x0), so bott(K[0]) = [0,1]x[1,2]
    # in the work frame; the first point maps to (1, 3/2) on its face,
    # the second to (1 + 1/1000, 3/2) just outside
    amap = SignedPermutation.sending_to_bottom((1, 1), 2)
    assert amap == SignedPermutation((1, 0), (-1, 1))
    on_face, outside = (F(3, 2), F(-1)), (F(3, 2), F(-1001, 1000))
    assert apply_point(amap, on_face) == (F(1), F(3, 2))
    res = CoverResult([fc((0, 0), 3)], amap, CoverStats())
    rep = verify_cover([outside, on_face], res, 1, 1)
    assert rep.bott_ok
    rep = verify_cover([outside, on_face], res, 1, 2)
    assert rep.bott_failures == [0]



def test_verify_cover_names_witnesses():
    assert oracle_shift_graph(IN_DEGREE_TWO, 1) == [(1, 0), (2, 0)]
    res = CoverResult(IN_DEGREE_TWO, SignedPermutation((0, 1), (1, 1)), CoverStats())
    rep = verify_cover(IN_DEGREE_TWO_POINTS, res, 1, 1)
    assert rep.bott_ok and rep.non_overlap_ok and not rep.in_degree_ok
    assert (rep.max_in_degree, rep.max_in_target, rep.max_in_sources) == (2, 0, [1, 2])
    assert rep.overlap_pair is None
    # cubes 0 and 2 overlap, 1 is apart from both
    k_overlap = [fc((0, 0), 2), fc((5, 5), 1), fc((1, 1), 2)]
    with pytest.raises(OverlappingInput) as err:
        build_shift_graph(k_overlap, kappa=1)
    assert err.value.pair == (0, 2)
    res = CoverResult(k_overlap, SignedPermutation((0, 1), (1, 1)), CoverStats())
    rep = verify_cover([(F(1, 2), F(1, 2))], res, 1, 1)
    assert not rep.non_overlap_ok and rep.overlap_pair == (0, 2)
    assert rep.max_in_target is None and rep.max_in_sources == []
    # a sound cover carries no overlap witness
    norm, _ = normalize_points([(F(0),), (F(3),)])
    rep = verify_cover(norm, run_covering(norm, 1, 1, 1), 1, 1)
    assert rep.all_ok and rep.overlap_pair is None


def test_verify_cover_bott_failures_match_brute_force():
    # kappa 2 under every signed axis map but the identity; many points sit
    # on a face of a bottom side-cube or a millionth past it
    rng = random.Random(12)
    tiny = F(1, 10**6)
    for d in (2, 3):
        maps = [
            SignedPermutation(perm, signs)
            for perm in itertools.permutations(range(d))
            for signs in itertools.product((-1, 1), repeat=d)
        ][1:]
        for amap in maps:
            cubes = random_mixed_cubes(rng, d, 6, 2)
            botts = [box(oracle_bott(c, 2)) for c in cubes]
            back = amap.inverse()
            pts = set()
            for b in botts:
                for _ in range(rng.randint(0, 4)):
                    y = tuple(
                        rng.choice((lo, hi, (lo + hi) / 2, lo - tiny, hi + tiny)) for lo, hi in b
                    )
                    pts.add(apply_point(back, y))
            pts = sorted(pts)
            res = CoverResult(cubes, amap, CoverStats())
            counts = [
                sum(point_in_box_closed(apply_point(amap, p), b) for p in pts) for b in botts
            ]
            for r in (1, 2, 3):
                rep = verify_cover(pts, res, 2, r)
                assert rep.bott_failures == [i for i, c in enumerate(counts) if c < r]


def test_verify_cover_names_known_defect_witnesses():
    # each fixture lists the sources first and the over-full target last
    for cubes in KNOWN_DEFECT_WITNESSES:
        target = len(cubes) - 1
        sources = list(range(target))
        pts = [
            tuple(x + b.side / 2 for x in b.corner) for b in (oracle_bott(c, 1) for c in cubes)
        ]
        res = CoverResult(cubes, SignedPermutation((0, 1), (1, 1)), CoverStats())
        rep = verify_cover(pts, res, 1, 1)
        assert rep.non_overlap_ok and rep.bott_ok and not rep.in_degree_ok
        assert (rep.max_in_degree, rep.max_in_target, rep.max_in_sources) == (
            target, target, sources)
        edges = oracle_shift_graph(cubes, 1)
        assert [i for i, j in edges if j == target] == sources
        assert build_shift_graph(cubes, 1).edges == edges


# clustered inputs whose placements gave a cube two shift-graph sources
# before run_covering pruned them (d = 2 to 4, kappa = 1 and 2), each with
# the pruned cover's exact dropped count and _cover_digest
CLUSTERED_IN_DEGREE_TWO = {
    16: (1, "8a5ed49ca50f1e6f"),
    270: (1, "fc1ed70c029b6116"),
    307: (1, "419db68db87435f4"),
    361: (1, "ba7b18d9565e3596"),
    982: (1, "7d78546c8ebfc9ea"),
    1093: (1, "82089f9bc6d611aa"),
    1258: (1, "00bf46136aa894ac"),
    1386: (1, "bd77d8f7487ae07e"),
}


@pytest.mark.parametrize("seed", sorted(CLUSTERED_IN_DEGREE_TWO))
def test_covering_prunes_in_degree_two(seed):
    pts, d, kappa, r = clustered_cover_input(seed)
    norm, _ = normalize_points(pts)
    res = run_covering(norm, d, kappa, r)
    assert verify_cover(norm, res, kappa, r).all_ok
    assert (res.stats.dropped, _cover_digest(res)) == CLUSTERED_IN_DEGREE_TWO[seed]
    # run_covering prunes on build_shift_graph's own route; the oracle is
    # the independent one
    edges = oracle_shift_graph(res.K, kappa)
    assert build_shift_graph(res.K, kappa).edges == edges
    assert max(ShiftGraph(len(res.K), edges).in_degrees()) <= 1


def test_covering_clustered_sweep():
    # every cover holds its guarantees, and all 200 are pinned at once by
    # one sha256 of their (dropped, _cover_digest) pairs
    covers = []
    for seed in range(200):
        pts, d, kappa, r = clustered_cover_input(seed)
        norm, _ = normalize_points(pts)
        res = run_covering(norm, d, kappa, r)
        rep = verify_cover(norm, res, kappa, r)
        assert rep.all_ok, (seed, rep)
        covers.append((res.stats.dropped, _cover_digest(res)))
    assert hashlib.sha256(repr(covers).encode()).hexdigest()[:16] == "7c46996b92be1620"


def test_points_in_boxes_matches_brute_force():
    # coordinates on a grid of quarters, so many points sit on box faces
    rng = random.Random(5)
    for d in (1, 2, 3):
        pts = [tuple(F(rng.randint(-8, 8), 4) for _ in range(d)) for _ in range(60)]
        boxes = []
        for _ in range(12):
            lo = [rng.randint(-8, 6) for _ in range(d)]
            boxes.append(tuple((a, a + rng.randint(0, 4)) for a in lo))
        quarters = [[(F(lo, 4), F(hi, 4)) for lo, hi in b] for b in boxes]
        want = [[i for i, p in enumerate(pts) if point_in_box_closed(p, q)] for q in quarters]
        assert points_in_boxes(pts, boxes, 4) == want
    assert points_in_boxes([], boxes, 4) == [[]] * len(boxes)


def test_signed_permutation_inverse_round_trip():
    for d in (1, 2, 3):
        p = tuple(F(k + 1, k + 2) for k in range(d))
        box = tuple((F(-k - 1), F(k, 3)) for k in range(d))
        for perm in itertools.permutations(range(d)):
            for signs in itertools.product((-1, 1), repeat=d):
                sp = SignedPermutation(perm, signs)
                inv = sp.inverse()
                assert apply_point(inv, apply_point(sp, p)) == p
                assert apply_point(sp, apply_point(inv, p)) == p
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
