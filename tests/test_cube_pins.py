"""Pins of the covering cube layer: the shift graph and the verifier
report read from cover files, and one seeded combine.  A change of the
cube form must leave every digest unchanged.

The cover files mix the denominators 3, 7, 9 and 2^k in their corners
and sides (random_mixed_cubes), or carry numerators above 2^200 (the
COVER fixture of test_fileio_pins)."""

import dataclasses
import hashlib
import io
import itertools
import random
from fractions import Fraction as F

import pytest

from stlab import fileio
from stlab.covering import (
    CoverResult,
    CoverStats,
    FreeCube,
    SignedPermutation,
    build_shift_graph,
    normalize_points,
    run_covering,
    verify_cover,
)
from stlab.regions import CombineDetail, FlatBundle, canonical_flat, combine

from _oracles import apply_point, clustered_cover_input, oracle_bott, random_mixed_cubes
from test_fileio_pins import COVER


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def mixed_cover_text(seed, d, kappa):
    """A cover file of mixed-denominator cubes under a seeded signed axis
    map, at r = 2 for odd seeds.  Each bottom side-cube holds its centre,
    and every other one its lower corner as well, moved back through the
    map; at r = 2 the verifier fails the cubes with one point."""
    rng = random.Random("cube-pins:%d" % seed)
    cubes = random_mixed_cubes(rng, d, 8 if d < 4 else 6, kappa)
    maps = [
        SignedPermutation(perm, signs)
        for perm in itertools.permutations(range(d))
        for signs in itertools.product((-1, 1), repeat=d)
    ]
    amap = rng.choice(maps)
    back = amap.inverse()
    pts = set()
    for k, c in enumerate(cubes):
        b = oracle_bott(c, kappa)
        pts.add(apply_point(back, tuple(x + b.side / 2 for x in b.corner)))
        if k % 2:
            pts.add(apply_point(back, b.corner))
    result = CoverResult(cubes, amap, CoverStats())
    return fileio.dump_cover(sorted(pts), result, d, kappa, 1 + seed % 2)


# (seed, d, kappa): sha256 prefixes of the cover file, of the shift-graph
# edges and of dataclasses.asdict of the verifier report
MIXED = [
    (1, 1, 1, "526f5ce6820df629", "fbce462c4ebada68", "ab2e921fb40f594e"),
    (2, 2, 1, "b63d6e62a3ae0645", "3d5a8507b24c0b2e", "8f2c2298693f0701"),
    (3, 2, 2, "a59d7482464e9a7f", "5b802b9a78310b2d", "0d5941da9a58c1cc"),
    (4, 3, 1, "0208fa433a7a6daf", "73dc1a8d3ba6f68f", "b78ecd82131df371"),
    (5, 3, 2, "c5608f188a37e3e9", "89fc1547d05c8029", "c6f1cc937f09bbaa"),
    (6, 4, 1, "ede8f6b35debb74c", "506e77c7db3cda13", "9c4231005fd7a91f"),
]


@pytest.mark.parametrize(
    "seed,d,kappa,text_sha,edges_sha,report_sha", MIXED, ids=["%d-%d-%d" % row[:3] for row in MIXED]
)
def test_mixed_cover_file_pinned(seed, d, kappa, text_sha, edges_sha, report_sha):
    text = mixed_cover_text(seed, d, kappa)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == text_sha
    cf = fileio.load_cover(io.StringIO(text))
    assert _sha(build_shift_graph(cf.result.K, cf.kappa).edges) == edges_sha
    assert _sha(dataclasses.asdict(verify_cover(cf.points, cf.result, cf.kappa, cf.r))) == report_sha


def test_big_cover_file_pinned():
    cf = fileio.load_cover(io.StringIO(COVER))
    assert build_shift_graph(cf.result.K, cf.kappa).edges == []
    report = dataclasses.asdict(verify_cover(cf.points, cf.result, cf.kappa, cf.r))
    assert _sha(report) == "c911afe4a142cd12"


def stacked_clusters(seed):
    """27 anchors around each of five centres in R^4, two pairs of them
    stacked 40 and 45 apart on the first axis: offsets up to 6 per axis
    plus a distinct odd multiple of 2^-20, 3^-13 or 7^-7."""
    rng = random.Random("combine-pin:%d" % seed)
    centres = [(0, 0, 0, 0), (40, 0, 0, 0), (0, 0, 3000, 0), (45, 0, 3000, 0), (0, 5000, 0, 0)]
    pts, seen, t = [], set(), 0
    for centre in centres:
        got = 0
        while got < 27:
            den = rng.choice((2**20, 3**13, 7**7))
            p = tuple(F(c + rng.randint(-6, 6)) + F(2 * (t + i) + 1, den) for i, c in enumerate(centre))
            t += 4
            if p not in seen:
                seen.add(p)
                pts.append(p)
                got += 1
    return pts


def test_combine_detail_pinned():
    # four cubes: three of out-degree 0 and one of out-degree 1
    anchors = stacked_clusters(1)
    bundle = FlatBundle(anchors, [[canonical_flat(a, 0)] for a in anchors],
                        [[canonical_flat(a, 1)] for a in anchors])
    detail = CombineDetail()
    text = fileio.dump_regions(combine(anchors, bundle, 1, detail), 1)
    assert dataclasses.asdict(detail) == {
        "cover_k": 4, "kept": 4, "out_degree0": 3, "out_degree1": 1, "waived_precondition": True}
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "f764e0050b3db4bc"


def test_no_free_cube_between_the_run_and_the_text(monkeypatch):
    # the run, its prune, the text layer, the checks and combine read the
    # CubeSet's int rows; a FreeCube is made only at the public edge
    pts, d, kappa, r = clustered_cover_input(16)  # the prune drops a cube here
    norm, _ = normalize_points(pts)
    mixed = mixed_cover_text(5, 3, 2)
    anchors = stacked_clusters(1)
    bundle = FlatBundle(anchors, [[canonical_flat(a, 0)] for a in anchors],
                        [[canonical_flat(a, 1)] for a in anchors])

    def refuse(cube):
        raise AssertionError("a FreeCube was built")

    monkeypatch.setattr(FreeCube, "__post_init__", refuse)
    res = run_covering(norm, d, kappa, r)
    assert res.stats.dropped == 1
    cf = fileio.load_cover(io.StringIO(fileio.dump_cover(norm, res, d, kappa, r)))
    assert cf.result.K == res.K
    assert verify_cover(cf.points, cf.result, kappa, r).all_ok
    cf = fileio.load_cover(io.StringIO(mixed))
    assert len(build_shift_graph(cf.result.K, cf.kappa).edges) == 8
    assert verify_cover(cf.points, cf.result, cf.kappa, cf.r).bott_failures == [0, 2, 4, 6]
    assert len(combine(anchors, bundle, 1)) == 4
