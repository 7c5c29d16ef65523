"""Pins of the text layer: the exact bytes every writer produces on
fixed fixtures, and the exact message of every FormatError the loaders
raise.  A refactor of fileio must leave both unchanged."""

import hashlib
import io
from fractions import Fraction as F

import pytest

from stlab import fileio
from stlab.cli import main
from stlab.covering import (
    CoverResult,
    CoverStats,
    CubeSet,
    FreeCube,
    InvalidParams,
    PointSet,
    SignedPermutation,
)
from stlab.exact import ComplexLine, ComplexPoint, GaussianRational as GR
from stlab.regions import FlatBundle, Region, RegionAssignment

from _oracles import embed_flat

BIG = 2**200 + 7  # numerators and denominators above 2^200

SYSTEM = fileio.dump_system(
    [
        ComplexPoint(GR(F(-BIG, 3), 5), GR(0, F(-7, BIG + 2))),
        ComplexPoint(GR(1, -1), GR(F(1, 2), F(-BIG))),
    ],
    [
        ComplexLine.vertical(GR(F(-2, 3), F(BIG, 5))),
        ComplexLine.slanted(GR(3, F(-1, 4)), GR(-BIG, 0)),
        ComplexLine.slanted(GR(0), GR(F(5, 7), 1)),
    ],
)
POINTS = fileio.dump_points([(F(-BIG, 3), F(1, 2)), (F(0), F(-7)), (F(BIG, BIG - 2), F(3, 5))], 2)
BUNDLE = fileio.dump_bundle(
    FlatBundle(
        [(F(1, 2), F(-BIG), F(0), F(7, 3)), (F(-1), F(2), F(-3, 4), F(BIG, 9))],
        [
            [
                embed_flat(ComplexLine.slanted(GR(1, F(-1, 3)), GR(F(BIG, 5), 2))),
                embed_flat(ComplexLine.vertical(GR(0, -1))),
            ],
            [],
        ],
        [[], [embed_flat(ComplexLine.slanted(GR(F(-2, 7)), GR(0, F(1, BIG))))]],
    )
)
COVER = fileio.dump_cover(
    [(F(-BIG, 3), F(1, 2), F(0)), (F(4), F(-5, 6), F(BIG, 11))],
    CoverResult(
        [FreeCube((F(-BIG, 3), F(1, 2), F(0)), F(BIG, 7)), FreeCube((F(1), F(-2), F(3, 4)), F(1, 2))],
        SignedPermutation((2, 0, 1), (-1, 1, -1)),
        CoverStats(),
    ),
    3, 2, 5,
)
REGIONS = fileio.dump_regions(
    [
        RegionAssignment(
            Region((((F(0), F(1)), (F(-BIG), F(1, 3)), (F(2), F(5, 2)), (F(-1, 2), F(0))),
                    ((F(1), F(3, 2)),) * 4)),
            (0, 3),
        ),
        RegionAssignment(Region((((F(-7), F(BIG, 3)),) * 4,)), ()),  # a region with no ids
    ],
    2,
)

DUMPS = {
    "system": (SYSTEM, "e8b5857e6b8edfc63752a74d7528b81b2eb6a811d25844e5b6a4fc5cfd6e4fa8"),
    "points": (POINTS, "dca36eac0c8c9cbd10f5d6dd62c6947b8aa7a305f2bbf9469baa07c2561b4af0"),
    "bundle": (BUNDLE, "2c0e3148b8939156beb6d1c3e5cdda1e0f34dce6532ce1ecb0725c6b4e30e7b6"),
    "cover": (COVER, "ee5ad00cd8a0cf8f61a4cafcb6146cd6fe976d4982d4552dbfd1e2933bb7617a"),
    "regions": (REGIONS, "4ce2640f29268eaa809a581a98afe46a9ed5e405f354713941120e16985fd807"),
}


@pytest.mark.parametrize("kind", sorted(DUMPS))
def test_dump_text_pinned(kind):
    text, digest = DUMPS[kind]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_dump_fixtures_cover_every_record():
    assert "l V " in SYSTEM and "l S " in SYSTEM
    assert "flat 1 0 " in BUNDLE and "flat 2 1 " in BUNDLE
    assert "axismap 2 0 1 -1 1 -1\n" in COVER
    assert "\npoints \n" in REGIONS
    assert all(str(BIG) in text for text in (SYSTEM, POINTS, BUNDLE, COVER, REGIONS))


LOAD = {
    "system": fileio.load_system,
    "points": fileio.load_points,
    "bundle": fileio.load_bundle,
    "cover": fileio.load_cover,
    "regions": fileio.load_regions,
}
COVER_HEAD = "stlab cover 1\ndim 2\nkappa 1\nr 1\naxismap 0 1 1 1\n"
REGIONS_HEAD = "stlab regions 1\nr 1\n"

# one row per distinct FormatError message of fileio
ERRORS = [
    ("points", "stlab points 1\ndim 1\np 1/0\n", "bad rational '1/0'"),
    ("bundle", "stlab bundle 1\nflat x 0 %s\n" % ("0 " * 12), "bad integer 'x'"),
    ("points", "stlab points 1\ndim 1 2\n", "bad dim record 'dim 1 2'"),
    ("cover", "stlab cover 1\nkappa 0\n", "kappa must be at least 1, got 0"),
    ("regions", REGIONS_HEAD + "r 3\n", "repeated r record"),
    ("system", "stlab system 2\n", "bad header 'stlab system 2\\n'"),
    ("system", "stlab points 1\n", "expected kind 'system', found 'points'"),
    ("system", "stlab system 1\nl V 1\n", "bad system record 'l V 1'"),
    ("points", "stlab points 1\np 1\ndim 1\n", "point record before dim or wrong arity"),
    ("points", "stlab points 1\ndim 1\nq 1\n", "bad points record 'q 1'"),
    ("points", "stlab points 1\n# nothing\n", "missing dim record"),
    ("bundle", "stlab bundle 1\nflat 3 0 %s\n" % ("0 " * 12),
     "bad flat family or point id in 'flat 3 0 %s'" % " ".join("0" * 12)),
    ("bundle", "stlab bundle 1\nanchor 1 2 3\n", "bad bundle record 'anchor 1 2 3'"),
    ("bundle", "stlab bundle 1\nflat 1 0 0 0 0 0 1 0 0 0 0 1 0 0\n",
     "flat point id outside the 0 anchors"),
    ("cover", "stlab cover 1\naxismap 0 1\n", "axismap before dim or wrong arity"),
    ("cover", "stlab cover 1\ndim 2\naxismap 0 0 1 1\n", "axismap is not a signed permutation"),
    ("cover", COVER_HEAD + "p 1\n", "point record before dim or wrong arity"),
    ("cover", COVER_HEAD + "cube 0 0\n", "cube record before dim or wrong arity"),
    ("cover", COVER_HEAD + "box 0 1\n", "bad cover record 'box 0 1'"),
    ("cover", "stlab cover 1\ndim 2\nkappa 1\naxismap 0 1 1 1\n", "incomplete cover file"),
    ("regions", REGIONS_HEAD + "region\nbox %s\n" % ("0 1 " * 4), "region block missing points record"),
    ("regions", REGIONS_HEAD + "region\npoints 1 -2\n", "negative anchor id in 'points 1 -2'"),
    ("regions", REGIONS_HEAD + "region\nbox 0 1\npoints 0\n", "bad regions record 'box 0 1'"),
    ("regions", "stlab regions 1\nregion\npoints 0\n", "missing r record"),
]


@pytest.mark.parametrize("kind,text,message", ERRORS, ids=[m for _, _, m in ERRORS])
def test_format_error_message_pinned(kind, text, message):
    with pytest.raises(fileio.FormatError) as info:
        LOAD[kind](io.StringIO(text))
    assert type(info.value) is fileio.FormatError and str(info.value) == message


# files with two faults: the first in file order decides the message
TWO_FAULTS = [
    (COVER_HEAD + "cube 0 x 1\np 1/0 1\n", "bad rational 'x'"),
    (COVER_HEAD + "p 1/0 1\ncube 0 x 1\n", "bad rational '1/0'"),
    (COVER_HEAD + "cube 0 x 1\nbox 0 1\n", "bad rational 'x'"),
    # a bad point token comes before the end of a file with no axismap
    ("stlab cover 1\ndim 2\nkappa 1\nr 1\np x 1\n", "bad rational 'x'"),
]


@pytest.mark.parametrize(
    "text,message", TWO_FAULTS, ids=["cube-p", "p-cube", "cube-record", "p-incomplete"]
)
def test_cover_first_fault_pinned(text, message):
    with pytest.raises(fileio.FormatError) as info:
        fileio.load_cover(io.StringIO(text))
    assert type(info.value) is fileio.FormatError and str(info.value) == message


def test_negative_denominator_tokens_load_canonical():
    # a token's sign may sit on its denominator; the sets loaded are those
    # of the Fractions, and they are written back in canonical form
    rows = "p 1/-2 -3/-4 0/-5\np -1/-6 5 7/-3\n"
    pts = PointSet.of([(F(-1, 2), F(3, 4), F(0)), (F(1, 6), F(5), F(-7, 3))])
    loaded, d = fileio.load_points(io.StringIO("stlab points 1\ndim 3\n" + rows))
    assert (loaded, d) == (pts, 3)
    assert fileio.dump_points(loaded, 3) == "stlab points 1\ndim 3\np -1/2 3/4 0\np 1/6 5 -7/3\n"
    head = "stlab cover 1\ndim 3\nkappa 1\nr 1\naxismap 0 1 2 1 1 1\n"
    cover = fileio.load_cover(io.StringIO(head + rows + "cube 1/-2 -3/-4 0/-5 -1/-4\n"))
    assert cover.points == pts
    assert cover.result.K == CubeSet.of([FreeCube((F(-1, 2), F(3, 4), F(0)), F(1, 4))])


# a cube side must be positive, and the first fault in file order decides
SIDE = "cube side must be positive"
SIDE_FAULTS = [
    (COVER_HEAD + "cube 0 0 0\n", InvalidParams, SIDE),
    (COVER_HEAD + "cube 0 0 1/-2\n", InvalidParams, SIDE),
    (COVER_HEAD + "cube 0 0 0\np x 1\n", InvalidParams, SIDE),
    (COVER_HEAD + "p x 1\ncube 0 0 1/-2\n", fileio.FormatError, "bad rational 'x'"),
]


@pytest.mark.parametrize(
    "text,exc_type,message", SIDE_FAULTS, ids=["side-0", "side-negative", "side-then-p", "p-then-side"]
)
def test_cube_side_fault_pinned(text, exc_type, message):
    with pytest.raises(exc_type) as info:
        fileio.load_cover(io.StringIO(text))
    assert type(info.value) is exc_type and str(info.value) == message


@pytest.mark.parametrize("side", ["0", "1/-2"])
def test_cli_verify_cover_nonpositive_side_exits_2(tmp_path, capsys, side):
    path = tmp_path / "cover.txt"
    path.write_text(COVER_HEAD + "cube 0 0 %s\n" % side)
    assert main(["verify", "--cover", str(path)]) == 2
    assert capsys.readouterr().err == "stlab: error: %s\n" % SIDE


def _load_bytes(data):
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with pytest.raises(fileio.FormatError) as info:
        fileio.load_points(stream)
    return str(info.value)


BAD_BYTE = "input is not valid text: 'utf-8' codec can't decode byte 0xff in position %d: invalid start byte"


def test_non_utf8_after_a_bad_token_pinned():
    # bad bytes chunks after a bad token: the token decides, as it did
    # when the reader took one line at a time
    rows = b"p 1/3\n" * (2 * fileio.CHUNK // 6)
    assert _load_bytes(b"stlab points 1\ndim 1\np x\n" + rows + b"p \xff\n") == "bad rational 'x'"
    # bad bytes first decide too
    assert _load_bytes(b"stlab points 1\ndim 1\np \xff\n" + rows + b"p x\n") == BAD_BYTE % 23
    # bad bytes in the chunk of a bad token: the chunk is decoded before
    # any of its lines is parsed, so the bytes decide
    rows = b"p 1/3\n" * 4000
    assert _load_bytes(b"stlab points 1\ndim 1\np x\n" + rows + b"p \xff\n") == BAD_BYTE % 7643
