import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from stlab.directions import gr_dist_deg
from stlab.covering import (
    CoveringError,
    FreeCube,
    NormalizeTransform,
    SignedPermutation,
    _face_cells,
    boxes_overlap_interior,
    points_in_boxes,
)
from stlab.exact import Flat2, FlatMeet, GeometryError, RVector4, flat_intersect
from stlab.fileio import dump_regions
from stlab.generators import gen_bundle_fixture
from stlab.regions import (
    CANONICAL_SPANS,
    CombineDetail,
    FlatBundle,
    Region,
    RegionAssignment,
    TooFewPoints,
    _clip_shift,
    canonical_flat,
    canonical_frame,
    combine,
    verify_regions,
)

from _oracles import apply_point, count_crossings, shift_cube

F = Fraction


def test_canonical_frame_exact():
    (u1, u2), (v1, v2) = CANONICAL_SPANS
    # all four cross products vanish exactly
    for a in (u1, u2):
        for b in (v1, v2):
            assert sum(x * y for x, y in zip(a, b)) == 0
    # within each flat the printed spans are orthogonal too
    assert sum(x * y for x, y in zip(u1, u2)) == 0
    assert sum(x * y for x, y in zip(v1, v2)) == 0
    l1, l2 = canonical_frame()
    assert abs(gr_dist_deg(l1, l2) - 180.0) < 1e-9
    f = canonical_flat((F(1), F(2), F(3), F(4)), 0)
    assert f.contains(RVector4.of((F(1), F(2), F(3), F(4))))


def rand_anchor(rng, span=20):
    return tuple(F(rng.randint(-span, span), rng.randint(1, 7)) for _ in range(4))


def test_thales_antipodal_identity_exact():
    rng = random.Random(77)
    done = 0
    while done < 100:
        p, q = rand_anchor(rng), rand_anchor(rng)
        if p == q:
            continue
        x = flat_intersect(canonical_flat(p, 0), canonical_flat(q, 1))
        y = flat_intersect(canonical_flat(q, 0), canonical_flat(p, 1))
        assert x.kind == FlatMeet.POINT and y.kind == FlatMeet.POINT
        mid = tuple((a + b) / 2 for a, b in zip(p, q))
        d2 = sum((a - b) ** 2 for a, b in zip(p, q))
        for z in (x.point, y.point):
            r2 = sum((a - b) ** 2 for a, b in zip(z.as_tuple(), mid))
            assert r2 == d2 / 4  # exactly on the sphere over pq
        # antipodal: x + y = 2 * mid, exactly
        s = tuple(a + b for a, b in zip(x.point.as_tuple(), y.point.as_tuple()))
        assert s == tuple(2 * m for m in mid)
        done += 1


def test_perturbed_crossing_displacement():
    # tilted crossings stay within dist(p, q)/10 of the exact ones
    checked = 0
    for seed in range(8):
        anchors, bundle = gen_bundle_fixture(m=30, per_point=1, spread_deg=9.9, seed=seed)
        for i in range(0, 28, 2):
            p, q = anchors[i], anchors[i + 1]
            x = flat_intersect(canonical_flat(p, 0), canonical_flat(q, 1)).point
            z = flat_intersect(bundle.family1[i][0], bundle.family2[i + 1][0]).point
            d = math.sqrt(float(sum((a - b) ** 2 for a, b in zip(p, q))))
            dz = math.sqrt(
                float(sum((a - b) ** 2 for a, b in zip(x.as_tuple(), z.as_tuple())))
            )
            assert dz <= d / 10 + 1e-9
            checked += 1
    assert checked >= 100


def test_count_crossings():
    f1 = canonical_flat((F(0),) * 4, 0)
    f2 = canonical_flat((F(0),) * 4, 1)
    assert count_crossings([f1], [f2]) == 1
    assert count_crossings([f1], []) == 0
    # parallel translates inside one family never cross each other
    f1b = canonical_flat((F(5), F(0), F(0), F(0)), 0)
    assert count_crossings([f1], [f1b]) == 0
    lefts = [canonical_flat((F(k), F(0), F(0), F(0)), 0) for k in range(3)]
    rights = [canonical_flat((F(0), F(k), F(0), F(0)), 1) for k in range(4)]
    assert count_crossings(lefts, rights) == 12


def cluster_bundle(r, spread, seed):
    anchors, bundle = gen_bundle_fixture(27 * r, 2, spread, seed)
    return anchors, bundle


def test_combine_single_cluster():
    anchors, bundle = cluster_bundle(2, 0.0, 5)
    detail = CombineDetail()
    asg = combine(anchors, bundle, 2, detail)
    assert len(asg) >= 1
    rep = verify_regions(asg, bundle, 2)
    assert rep.all_ok
    assert detail.waived_precondition  # desk scale: r > 1e-8 n
    # spread-out single cluster gives pure shifted-box regions
    assert all(len(a.region.boxes) == 1 for a in asg)


def test_combine_rejects_bad_r():
    anchors, bundle = cluster_bundle(1, 0.0, 6)
    with pytest.raises(Exception):
        combine(anchors, bundle, 0)
    with pytest.raises(TooFewPoints):
        combine(anchors, bundle, 5)  # 27*5 > 27 anchors


def stacked_anchors(r, seed, dx1=40):
    rng = random.Random(seed)
    pts, seen, t = [], set(), 0

    def cluster(center, count, spread):
        nonlocal t
        got = 0
        while got < count:
            p = tuple(
                F(center[i] + rng.randint(-spread, spread)) + F(2 * (t + i) + 1, 2**20)
                for i in range(4)
            )
            t += 4
            if p not in seen:
                seen.add(p)
                pts.append(p)
                got += 1

    cluster((0, 0, 0, 0), 27 * r, 6)
    cluster((dx1, 0, 0, 0), 27 * r, 6)
    return pts


def exact_bundle(anchors):
    return FlatBundle(
        list(anchors),
        [[canonical_flat(a, 0)] for a in anchors],
        [[canonical_flat(a, 1)] for a in anchors],
    )


def test_combine_out_degree_one_case():
    anchors = stacked_anchors(2, seed=1)
    bundle = exact_bundle(anchors)
    detail = CombineDetail()
    asg = combine(anchors, bundle, 2, detail)
    assert detail.out_degree1 >= 1
    rep = verify_regions(asg, bundle, 2)
    assert rep.all_ok


@pytest.mark.parametrize(
    "r, seed, digest", [(2, 1, "7efa7fcd58389d3d"), (1, 2, "93e179b4c3669049")]
)
def test_combine_output_pinned(r, seed, digest):
    # one out-degree-one cube each, so the lateral cell choice and the
    # case (a) prism are part of the pinned text
    anchors = stacked_anchors(r, seed=seed)
    detail = CombineDetail()
    text = dump_regions(combine(anchors, exact_bundle(anchors), r, detail), r)
    assert detail.out_degree1 == 1
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_verify_regions_catches_boundary_crossing():
    # a crossing exactly on the region boundary is rejected
    p = (F(0), F(0), F(0), F(0))
    q = (F(2), F(0), F(0), F(0))
    bundle = exact_bundle([p, q])
    x = flat_intersect(canonical_flat(p, 0), canonical_flat(q, 1)).point
    y = flat_intersect(canonical_flat(q, 0), canonical_flat(p, 1)).point
    hi = x.as_tuple()[0]
    # box whose top face passes through the first crossing and clips y out
    box = tuple((v - F(3), hi) if ax == 0 else (v - F(3), v + F(3)) for ax, v in enumerate(x.as_tuple()))
    bad = RegionAssignment(Region((box,)), (0, 1))
    rep = verify_regions([bad], bundle, 2)
    chk = rep.checks[0]
    assert chk.pair_failures == [(0, 1)] or not chk.interior_ok


def test_verify_regions_catches_overlap():
    b1 = tuple((F(0), F(2)) for _ in range(4))
    b2 = tuple((F(1), F(3)) for _ in range(4))
    a1 = RegionAssignment(Region((b1,)), (0,))
    a2 = RegionAssignment(Region((b2,)), (1,))
    bundle = exact_bundle([(F(1),) * 4, (F(3, 2),) * 4])
    rep = verify_regions([a1, a2], bundle, 1)
    assert not rep.disjoint_ok and rep.overlap_witness == (0, 1)
    # r = 1 regions with a single point vacuously satisfy the pair condition
    a3 = RegionAssignment(Region((tuple((F(10), F(12)) for _ in range(4)),)), (1,))
    rep2 = verify_regions([a3], bundle, 1)
    assert rep2.checks[0].pair_failures == []


def test_region_membership_and_margin():
    box = tuple((F(0), F(1)) for _ in range(4))
    region = Region((box,))
    assert region.contains_interior((F(1, 2),) * 4)
    assert not region.contains_interior((F(0), F(1, 2), F(1, 2), F(1, 2)))
    m = F(1, 10)
    assert not region.contains_interior((F(1, 20),) * 4, m)


def test_region_interior_of_a_union_across_a_shared_face():
    unit = tuple((F(0), F(1)) for _ in range(4))
    right = ((F(1), F(2)),) + unit[1:]
    region = Region((unit, right))
    face = (F(1), F(1, 2), F(1, 2), F(1, 2))
    assert region.contains_interior(face)
    # on the outer boundary of the union, or past a face no box continues
    assert not region.contains_interior((F(1), F(0), F(1, 2), F(1, 2)))
    assert not region.contains_interior((F(2), F(1, 2), F(1, 2), F(1, 2)))
    assert not Region((unit,)).contains_interior(face)
    # an L-shaped union misses one orthant at its inner corner
    corner = (F(1), F(1), F(1, 2), F(1, 2))
    up = (unit[0], (F(1), F(2))) + unit[2:]
    assert not Region((unit, right, up)).contains_interior(corner)
    diag = ((F(1), F(2)), (F(1), F(2))) + unit[2:]
    assert Region((unit, right, up, diag)).contains_interior(corner)
    # the margin shrinks each box by its own side before the union is taken
    assert not region.contains_interior(face, F(1, 10))
    assert region.contains_interior((F(1, 2),) * 4, F(1, 10))


def test_region_overlap_of_touching_boxes():
    box = tuple((F(0), F(2)) for _ in range(4))
    upper = Region((((F(1), F(2)),) + box[1:],))
    lower = Region((((F(0), F(1)),) + box[1:],))
    assert not upper.overlaps(lower)
    assert upper.overlaps(Region((box,)))
    # a second box that meets the other region's interior makes them overlap
    assert Region(lower.boxes + (((F(3, 2), F(3)),) * 4,)).overlaps(upper)


def test_verify_regions_rejects_negative_margin():
    p, q = (F(0),) * 4, (F(20),) * 4
    far = RegionAssignment(Region((((F(9), F(11)),) * 4,)), (0,))
    with pytest.raises(GeometryError):
        verify_regions([far], exact_bundle([p, q]), 1, F(-20))


def test_verify_regions_needs_distinct_anchor_ids():
    bundle = exact_bundle([(F(0),) * 4, (F(20),) * 4, (F(40),) * 4])
    box = ((F(-1), F(1)),) * 4
    rep = verify_regions([RegionAssignment(Region((box,)), (0, 0))], bundle, 2)
    chk = rep.checks[0]
    assert not rep.all_ok and not chk.size_ok and chk.repeated_anchor == 0
    assert chk.interior_ok and chk.pair_failures == []
    # the first id named a second time is the witness
    rep = verify_regions([RegionAssignment(Region((box,)), (0, 1, 2, 1, 0))], bundle, 5)
    assert rep.checks[0].repeated_anchor == 1
    rep = verify_regions([RegionAssignment(Region((box,)), (0,))], bundle, 1)
    assert rep.all_ok and rep.checks[0].repeated_anchor is None


@pytest.mark.parametrize("bad", [3, 999, -1])
def test_verify_regions_rejects_unknown_anchor_ids(bad):
    bundle = exact_bundle([(F(0),) * 4, (F(20),) * 4, (F(40),) * 4])
    box = ((F(-1), F(1)),) * 4
    asg = [RegionAssignment(Region((box,)), (0,)), RegionAssignment(Region((box,)), (bad,))]
    with pytest.raises(GeometryError, match="region 1 names anchor %d of 3" % bad):
        verify_regions(asg, bundle, 1)


def test_boxes_moved_back_match_points_moved_forward():
    # combine relies on this: counting points in boxes moved back through
    # the inverse axis map, and testing anchors against regions built
    # through it and the inverse scaling, answers as moving every point
    # into the cover's frame would, for all 384 signed permutations of
    # R^4, boundary points and points on a face two boxes share included
    rng = random.Random(20)
    scale = 6
    on_face = shared_face = 0
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((-1, 1), repeat=4):
            amap = SignedPermutation(perm, signs)
            back = amap.inverse()
            tr = NormalizeTransform(F(rng.randint(1, 9)), F(1, rng.choice((2, 3, 5))))
            b1 = tuple(tuple(sorted(rng.sample(range(-12, 13), 2))) for _ in range(4))
            ax = rng.randrange(4)
            b2 = tuple(
                (hi, hi + rng.randint(1, 6)) if i == ax else (lo + rng.randint(-2, 2), hi)
                for i, (lo, hi) in enumerate(b1)
            )
            b2 = tuple((min(lo, hi - 1), hi) for lo, hi in b2)

            def coord(i):
                (lo, hi), (lo2, hi2) = b1[i], b2[i]
                if rng.random() < 0.5:  # a face of either box
                    return F(rng.choice((lo, hi, lo2, hi2)), scale)
                return F(rng.randint(7 * lo - 7, 7 * max(hi, hi2) + 7), 7 * scale)

            work = [tuple(map(coord, range(4))) for _ in range(24)]
            pts = [apply_point(back, w) for w in work]
            moved = [apply_point(amap, p) for p in pts]
            want = points_in_boxes(moved, [b1], scale)
            assert points_in_boxes(pts, [back.apply_box(b1)], scale) == want
            on_face += sum(
                1 for i in want[0] if any(x * scale in side for x, side in zip(moved[i], b1))
            )

            def in_anchors(box):
                lo, hi = zip(*back.apply_box(box))
                return tuple(zip(*[tr.invert([F(x, scale) for x in xs]) for xs in (lo, hi)]))

            union = Region(
                tuple(tuple((F(lo, scale), F(hi, scale)) for lo, hi in b) for b in (b1, b2))
            )
            anchored = Region((in_anchors(b1), in_anchors(b2)))
            for p, w in zip(pts, moved):
                inside = union.contains_interior(w)
                assert anchored.contains_interior(tr.invert(p)) == inside
                if inside and w[ax] == F(b1[ax][1], scale):
                    shared_face += 1
    assert on_face >= 1000 and shared_face >= 20


# -- case (b): shift(Q1) cut at a coordinate plane ------------------------------

# on the grid of step 1/40: faces are multiples of 10 steps, as on the
# cube grid, and every gap midpoint is a whole step
SHIFTED = ((-4, 36),) + ((0, 40),) * 3  # shift of [0,1]^4
UNIT = (0, 40)


@pytest.mark.parametrize(
    "cell, lat_q2, want",
    [
        # gap above the footprint on the first lateral axis, cut at 5/8
        (((30, 40), UNIT, UNIT), ((-40, 20), UNIT, UNIT), (1, (25, 40))),
        # gap below the footprint on the last lateral axis, cut at 3/8
        ((UNIT, UNIT, (0, 10)), (UNIT, UNIT, (20, 80)), (3, (0, 15))),
        # faces touching: the cut is the shared face
        (((20, 40), UNIT, UNIT), ((0, 20), UNIT, UNIT), (1, (20, 40))),
        # gap 1/4 above on axis 0 loses to gap 1/2 below on axis 1
        (((30, 40), (0, 10), UNIT), ((-40, 20), (30, 80), UNIT), (2, (0, 20))),
        # equal gaps of 1/4 on axes 1 and 2: the lower axis wins
        ((UNIT, (30, 40), (0, 10)), (UNIT, (-40, 20), (20, 80)), (2, (25, 40))),
    ],
    ids=["above", "below", "touching", "widest-gap", "tie-lower-axis"],
)
def test_clip_shift_cuts_at_gap_midpoint(cell, lat_q2, want):
    axis, side = want
    expect = SHIFTED[:axis] + (side,) + SHIFTED[axis + 1 :]
    assert _clip_shift(SHIFTED, cell, lat_q2) == expect


def test_clip_shift_needs_a_separating_plane():
    inner = ((10, 30),) * 3
    with pytest.raises(CoveringError):
        _clip_shift(SHIFTED, inner, ((0, 80),) * 3)


def test_clip_shift_property_on_lateral_cells():
    # quarters on the grid of step 1/40, where a tenth of a side is whole
    def on_grid(box):
        return tuple((int(40 * lo), int(40 * hi)) for lo, hi in box)

    rng = random.Random(11)
    clipped = 0
    for _ in range(200):
        q1 = FreeCube(tuple(F(rng.randint(-8, 8), 4) for _ in range(4)), F(rng.randint(4, 12), 4))
        q2 = FreeCube(tuple(F(rng.randint(-8, 12), 4) for _ in range(4)), F(rng.randint(1, 12), 4))
        shifted = on_grid(shift_cube(q1).box())
        lat_q1, lat_q2 = on_grid(q1.box()[1:]), on_grid(q2.box()[1:])
        for cell in _face_cells(lat_q1, lat_q2):
            if boxes_overlap_interior(cell, lat_q2):
                continue
            got = _clip_shift(shifted, cell, lat_q2)
            assert got[0] == shifted[0]
            # the clipped box keeps the prism over the cell ...
            assert all(lo <= cl and ch <= hi for (lo, hi), (cl, ch) in zip(got[1:], cell))
            # ... and its interior misses the successor's footprint
            assert not boxes_overlap_interior(got[1:], lat_q2)
            clipped += 1
    assert clipped >= 500


def test_bundle_alignment_measure():
    anchors, bundle = gen_bundle_fixture(10, 2, 5.0, seed=3)
    worst = bundle.check_alignment()
    assert worst <= 5.0 + 1e-6
    anchors0, bundle0 = gen_bundle_fixture(10, 1, 0.0, seed=3)
    assert bundle0.check_alignment() < 1e-9
    from stlab.generators import SpreadTooLarge

    with pytest.raises(SpreadTooLarge):
        gen_bundle_fixture(10, 1, 15.0, seed=1)


def test_crossings_distinct_across_regions():
    # disjoint interiors force the per-region crossing sets apart
    from stlab.regions import crossing_points

    anchors = stacked_anchors(2, seed=1)
    bundle = exact_bundle(anchors)
    asg = combine(anchors, bundle, 2)
    assert len(asg) >= 2
    seen = {}
    for ridx, a in enumerate(asg):
        for p in a.point_ids:
            for q in a.point_ids:
                if p == q:
                    continue
                for z in crossing_points(bundle.family1[p], bundle.family2[q]):
                    if a.region.contains_interior(z.as_tuple()):
                        key = z.as_tuple()
                        assert seen.setdefault(key, ridx) == ridx
