"""Pins of the covering point layer: the exact bytes of dump_points and
dump_cover, and the exact normalize_points output, on seeded pipelines
points -> normalize_points -> run_covering.  A change of the point form
must leave all three unchanged.

The inputs mix denominators (so most coordinates reduce below the common
one), put coordinates on both sides of 0 and on integers (the points file
only: normalized points have none), and carry numerators above 2^200."""

import hashlib
import io
import random
from fractions import Fraction as F

import pytest

from stlab import fileio
from stlab.covering import PointSet, normalize_points, run_covering

BIG = 2**200 + 7


def pipeline_points(seed, n, d):
    """n distinct points: coordinates j/q over q in {1, 2, 3, 4, 6, 9, 10},
    |j| <= 3 q n^(1/d), plus one point with a coordinate BIG/3 and one
    with a coordinate BIG/(BIG + 2)."""
    rng = random.Random("point-pins:%d" % seed)
    span = int(3 * n ** (1 / d))
    pts, seen = [], set()
    while len(pts) < n - 2:
        p = []
        for _ in range(d):
            q = rng.choice((1, 2, 3, 4, 6, 9, 10))
            p.append(F(rng.randint(-span * q, span * q), q))
        if tuple(p) not in seen:
            seen.add(tuple(p))
            pts.append(tuple(p))
    pts.insert(n // 3, (F(BIG, 3),) + pts[0][1:])
    pts.insert(2 * n // 3, (F(-1, 2),) * (d - 1) + (F(BIG, BIG + 2),))
    return pts


# (seed, n, d, r): sha256 prefixes of the points file, of the normalized
# points as (numerator, denominator) rows with the transform, and of the
# cover file
PINNED = [
    (1, 60, 1, 1, "1997049ae87e0437", "dbc378211ea011e0", "dd83965a68c2a190"),
    (2, 200, 1, 2, "f9c22714a717e9b0", "b0c3754b31498158", "86dc51c84d33b133"),
    (3, 300, 2, 1, "0d8d29ff44577ce5", "8cd25a3418644932", "daa292167d418e3d"),
    (4, 600, 2, 2, "63f59905699dee7d", "5ba4580f03a7763c", "0db37803c6980e47"),
    (5, 400, 3, 1, "d0873b6f79d19ee5", "53103349b1d71107", "cada56ea9a33b761"),
    (6, 800, 3, 1, "496d33e7dc3eba42", "2976a28822959e96", "c882a2cf77fffc99"),
]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rows(points):
    return [tuple((x.numerator, x.denominator) for x in p) for p in points]


@pytest.mark.parametrize(
    "seed,n,d,r,points_sha,norm_sha,cover_sha",
    PINNED,
    ids=["%d-%d-%d-%d" % row[:4] for row in PINNED],
)
def test_point_layer_pinned(seed, n, d, r, points_sha, norm_sha, cover_sha):
    pts = pipeline_points(seed, n, d)
    assert any(x.denominator == 1 for p in pts for x in p)
    assert any(x < 0 for p in pts for x in p)
    text = fileio.dump_points(pts, d)
    assert _sha(text) == points_sha
    loaded, dim = fileio.load_points(io.StringIO(text))
    assert (list(loaded), dim) == (pts, d)
    norm, tr = normalize_points(loaded)
    assert _sha(repr((_rows(norm), tr.scale, tr.offset))) == norm_sha
    res = run_covering(norm, d, 1, r)
    assert _sha(fileio.dump_cover(norm, res, d, 1, r)) == cover_sha


@pytest.mark.parametrize(
    "seed,n,d,r", [row[:4] for row in PINNED], ids=["%d-%d-%d-%d" % row[:4] for row in PINNED]
)
def test_cover_file_round_trips_the_point_set(seed, n, d, r):
    # the cover benchmark's round-trip check compares point sets with ==
    pts = pipeline_points(seed, n, d)
    assert list(PointSet.of(pts)) == [tuple(map(F, p)) for p in pts]
    norm, _ = normalize_points(pts)
    text = fileio.dump_cover(norm, run_covering(norm, d, 1, r), d, 1, r)
    assert fileio.load_cover(io.StringIO(text)).points == norm
    assert fileio.load_points(io.StringIO(fileio.dump_points(pts, d)))[0] == PointSet.of(pts)
