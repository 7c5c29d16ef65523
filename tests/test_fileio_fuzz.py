"""Property tests for the text loaders.

Every dump -> load round trip must reproduce its input exactly, and
any record text may make a loader raise only the errors that
``cli.main`` turns into one stderr line and exit code 2.
"""

import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlab import fileio
from stlab.covering import CoverResult, CoveringError, CoverStats, FreeCube, SignedPermutation
from stlab.exact import ComplexLine, ComplexPoint, GaussianRational, GeometryError
from stlab.regions import FlatBundle, Region, RegionAssignment

from _oracles import embed_flat

GR = GaussianRational
F = Fraction
EXIT_2 = (fileio.FormatError, GeometryError, CoveringError, OSError)  # as in cli.main

rationals = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12))
positive = st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12))
gaussians = st.builds(GaussianRational, rationals, rationals)
points = st.builds(ComplexPoint, gaussians, gaussians)
lines = st.one_of(
    st.builds(ComplexLine.slanted, gaussians, gaussians),
    st.builds(ComplexLine.vertical, gaussians),
)


def real_points(d, max_size=8):
    return st.lists(st.tuples(*[rationals] * d), max_size=max_size)


@given(st.lists(points, max_size=8), st.lists(lines, max_size=8))
def test_system_roundtrip_exact(pts, lns):
    assert fileio.load_system(io.StringIO(fileio.dump_system(pts, lns))) == (pts, lns)


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), real_points(d))))
def test_points_roundtrip_exact(case):
    d, pts = case
    loaded, dim = fileio.load_points(io.StringIO(fileio.dump_points(pts, d)))
    assert (list(loaded), dim) == (pts, d)


@st.composite
def covers(draw):
    d = draw(st.integers(1, 4))
    perm = tuple(draw(st.permutations(range(d))))
    signs = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d)))
    cube = st.builds(FreeCube, st.tuples(*[rationals] * d), positive)
    result = CoverResult(draw(st.lists(cube, max_size=6)), SignedPermutation(perm, signs), CoverStats())
    return draw(real_points(d)), result, d, draw(st.integers(1, 9)), draw(st.integers(1, 9))


@given(covers())
def test_cover_roundtrip_exact(case):
    pts, result, d, kappa, r = case
    cf = fileio.load_cover(io.StringIO(fileio.dump_cover(pts, result, d, kappa, r)))
    assert (list(cf.points), cf.d, cf.kappa, cf.r) == (pts, d, kappa, r)
    assert list(cf.result.K) == result.K and cf.result.axis_map == result.axis_map


def flat_fields(families):
    return [[[(f.base, f.dir1, f.dir2) for f in flats] for flats in fam] for fam in families]


@st.composite
def bundles(draw):
    n = draw(st.integers(0, 4))
    anchors = draw(st.lists(st.tuples(*[rationals] * 4), min_size=n, max_size=n))
    flats = st.lists(lines.map(embed_flat), max_size=2)
    fam1 = draw(st.lists(flats, min_size=n, max_size=n))
    fam2 = draw(st.lists(flats, min_size=n, max_size=n))
    return FlatBundle(anchors, fam1, fam2)


@given(bundles())
def test_bundle_roundtrip_exact(bundle):
    got = fileio.load_bundle(io.StringIO(fileio.dump_bundle(bundle)))
    assert got.anchors == bundle.anchors
    assert flat_fields((got.family1, got.family2)) == flat_fields((bundle.family1, bundle.family2))


boxes = st.tuples(*[st.tuples(rationals, rationals)] * 4)
assignments = st.builds(
    RegionAssignment,
    st.builds(Region, st.lists(boxes, max_size=3).map(tuple)),
    st.lists(st.integers(0, 10**6), max_size=5).map(tuple),
)


@given(st.lists(assignments, max_size=4), st.integers(1, 9))
def test_regions_roundtrip_exact(asgs, r):
    assert fileio.load_regions(io.StringIO(fileio.dump_regions(asgs, r))) == (asgs, r)


# -- arbitrary record text ----------------------------------------------------

LOADERS = {
    "system": fileio.load_system,
    "points": fileio.load_points,
    "cover": fileio.load_cover,
    "bundle": fileio.load_bundle,
    "regions": fileio.load_regions,
}
# one small valid file per kind; random records are spliced into it, so
# they reach the loader with dim, anchors and open region blocks in place
SEEDS = {
    "system": fileio.dump_system(
        [ComplexPoint(GR(F(1, 2)), GR(3, -1))],
        [ComplexLine.slanted(GR(1), GR(0, 1)), ComplexLine.vertical(GR(F(-2, 3)))],
    ),
    "points": fileio.dump_points([(F(1, 2), F(1, 3)), (F(5), F(-7, 2))], 2),
    "cover": fileio.dump_cover(
        [(F(1, 2), F(1, 3))],
        CoverResult([FreeCube((F(0), F(0)), F(1))], SignedPermutation((1, 0), (1, -1)), CoverStats()),
        2, 1, 1,
    ),
    "bundle": fileio.dump_bundle(
        FlatBundle(
            [(F(1, 2), F(1, 3), F(1, 5), F(1, 7))],
            [[embed_flat(ComplexLine.slanted(GR(1), GR(2)))]],
            [[embed_flat(ComplexLine.vertical(GR(0, 1)))]],
        )
    ),
    "regions": fileio.dump_regions(
        [RegionAssignment(Region((((F(0), F(1)),) * 4, ((F(1), F(3, 2)),) * 4)), (0,))],
        1,
    ),
}
KEYWORDS = "stlab p l S V dim kappa r axismap cube anchor flat region box halfspace points".split()
values = st.one_of(
    st.integers(-3, 30).map(str),
    st.sampled_from("1/2 -3/4 1/0 0/5 x 1.5 1/2/3 # system cover".split()),
    st.text(max_size=4),
)
# a keyword with up to 15 values reaches every arity the grammar has
records = st.tuples(st.sampled_from(KEYWORDS + ["l S", "l V"]), st.lists(values, max_size=15)).map(
    lambda rec: " ".join([rec[0]] + rec[1])
)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=300, deadline=None)
@given(inserts=st.lists(st.tuples(st.integers(0, 20), records), max_size=3), drop=st.integers(-1, 20))
def test_loader_errors_map_to_exit_2(kind, inserts, drop):
    lines = SEEDS[kind].splitlines()
    if 0 <= drop < len(lines):
        del lines[drop]
    for pos, rec in inserts:
        lines.insert(pos % (len(lines) + 1), rec)
    try:
        LOADERS[kind](io.StringIO("\n".join(lines) + "\n"))
    except EXIT_2:
        pass
