import io
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from _oracles import clustered_cover_input

from stlab import fileio
from stlab.cli import main
from stlab.covering import normalize_points, run_covering
from stlab.exact import ComplexLine, ComplexPoint, GaussianRational
from stlab.generators import gen_bundle_fixture, gen_erdos, gen_random_system
from stlab.regions import CombineDetail, combine

GR = GaussianRational
F = Fraction


def test_rational_format_roundtrip():
    for x in (F(0), F(3), F(-7, 2), F(22, 7)):
        assert fileio.parse_rational(fileio.format_rational(x)) == x
    assert fileio.format_rational(F(4, 2)) == "2"


def test_system_roundtrip():
    pts, lines = gen_random_system(12, 15, 3)
    text = fileio.dump_system(pts, lines)
    pts2, lines2 = fileio.load_system(io.StringIO(text))
    assert pts2 == pts and lines2 == lines
    assert text.startswith("stlab system 1\n")


def test_points_roundtrip():
    pts = [(F(1, 3), F(-2)), (F(5), F(7, 11))]
    text = fileio.dump_points(pts, 2)
    pts2, d = fileio.load_points(io.StringIO(text))
    assert list(pts2) == pts and d == 2


def test_bundle_roundtrip():
    _, bundle = gen_bundle_fixture(5, 2, 4.0, seed=9)
    text = fileio.dump_bundle(bundle)
    b2 = fileio.load_bundle(io.StringIO(text))
    assert b2.anchors == bundle.anchors
    assert b2.family1 == bundle.family1 and b2.family2 == bundle.family2


def test_cover_roundtrip(tmp_path):
    pts = [(F(k) + F(1, 2), F(2 * k) + F(1, 3)) for k in range(6)]
    norm, _ = normalize_points(pts)
    res = run_covering(norm, 2, 1, 1)
    text = fileio.dump_cover(norm, res, 2, 1, 1)
    cf = fileio.load_cover(io.StringIO(text))
    assert cf.points == norm
    assert cf.result.K == res.K
    assert cf.result.axis_map == res.axis_map
    assert (cf.d, cf.kappa, cf.r) == (2, 1, 1)


def test_regions_roundtrip():
    anchors, bundle = gen_bundle_fixture(27, 1, 0.0, seed=2)
    asg = combine(anchors, bundle, 1)
    text = fileio.dump_regions(asg, 1)
    asg2, r = fileio.load_regions(io.StringIO(text))
    assert r == 1 and len(asg2) == len(asg)
    for a, b in zip(asg, asg2):
        assert a.region == b.region and a.point_ids == b.point_ids


def test_atomic_write(tmp_path):
    path = tmp_path / "out.txt"
    fileio.write_atomic(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    fileio.write_atomic(str(path), "again\n")
    assert path.read_text() == "again\n"


def test_atomic_write_mode_follows_umask(tmp_path):
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    old.write_text("old\n")
    old.chmod(0o644)
    umask = os.umask(0o022)
    try:
        fileio.write_atomic(str(new), "new\n")
        fileio.write_atomic(str(old), "again\n")
    finally:
        os.umask(umask)
    assert new.stat().st_mode & 0o777 == 0o644
    assert old.stat().st_mode & 0o777 == 0o644 and old.read_text() == "again\n"


# -- CLI ---------------------------------------------------------------------


def test_cli_gen_incidences_pipeline(tmp_path, capsys):
    sysfile = tmp_path / "erdos.txt"
    assert main(["gen", "erdos", "--k", "3", "--out", str(sysfile)]) == 0
    assert main(["incidences", "--in", str(sysfile)]) == 0
    out = capsys.readouterr().out
    assert "I=81 n=54 e=27" in out


def test_cli_pipe_via_subprocess():
    # run from src/ so that "-m" finds this tree's stlab without an install
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    gen = subprocess.run(
        [sys.executable, "-m", "stlab.cli", "gen", "erdos", "--k", "3"],
        capture_output=True,
        text=True,
        cwd=src,
    )
    assert gen.returncode == 0
    cnt = subprocess.run(
        [sys.executable, "-m", "stlab.cli", "incidences"],
        input=gen.stdout,
        capture_output=True,
        text=True,
        cwd=src,
    )
    assert cnt.returncode == 0
    assert "I=81 n=54 e=27" in cnt.stdout


def test_cli_dirs(capsys):
    assert main(["dirs", "dist", "0", "inf"]) == 0
    assert abs(float(capsys.readouterr().out) - 180.0) < 1e-9
    assert main(["dirs", "orth", "1", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["dirs", "cover-sphere", "--delta", "90", "--check-samples", "20000"]) == 0
    assert "centers=" in capsys.readouterr().out


def test_cli_cover_verify_cycle(tmp_path, capsys):
    pts = [(F(k), F((7 * k) % 23)) for k in range(40)]
    ptsfile = tmp_path / "pts.txt"
    fileio.write_atomic(str(ptsfile), fileio.dump_points(pts, 2))
    coverfile = tmp_path / "cover.txt"
    assert (
        main(["cover", "--dim", "2", "--kappa", "1", "--r", "1",
              "--in", str(ptsfile), "--out", str(coverfile)]) == 0
    )
    assert main(["verify", "--cover", str(coverfile)]) == 0
    out = capsys.readouterr().out
    assert "non_overlap=True" in out and "bott=True" in out
    assert "witness" not in out and len(out.splitlines()) == 1
    assert main(["shiftgraph", "--in", str(coverfile)]) == 0


def test_cli_cover_reports_dropped(tmp_path, capsys):
    # a clustered input whose placements gave a cube two shift-graph
    # sources; the prune drops one cube and the count reaches stderr
    pts, d, kappa, r = clustered_cover_input(270)
    ptsfile = tmp_path / "pts.txt"
    fileio.write_atomic(str(ptsfile), fileio.dump_points(pts, d))
    coverfile = tmp_path / "cover.txt"
    assert main(["cover", "--dim", str(d), "--kappa", str(kappa), "--r", str(r),
                 "--in", str(ptsfile), "--out", str(coverfile)]) == 0
    assert capsys.readouterr().err == "selected=8 dropped=1\n"
    with open(coverfile) as fh:
        assert len(fileio.load_cover(fh).result.K) == 8


def test_cli_cover_separates_points_floats_merge(tmp_path):
    ptsfile = tmp_path / "pts.txt"
    ptsfile.write_text("stlab points 1\ndim 1\np 100000000000000000\np 200000000000000001/2\n")
    coverfile = tmp_path / "cover.txt"
    assert main(["cover", "--dim", "1", "--kappa", "1", "--r", "1",
                 "--in", str(ptsfile), "--out", str(coverfile)]) == 0
    assert main(["verify", "--cover", str(coverfile)]) == 0


def test_cli_cover_points_beyond_float_range(tmp_path):
    ptsfile = tmp_path / "pts.txt"
    ptsfile.write_text("stlab points 1\ndim 1\np %d/3\np 1/7\n" % 10**400)
    coverfile = tmp_path / "cover.txt"
    assert main(["cover", "--dim", "1", "--in", str(ptsfile), "--out", str(coverfile)]) == 0
    assert main(["verify", "--cover", str(coverfile)]) == 0


def test_cli_verify_cover_prints_witness(tmp_path, capsys):
    from stlab.covering import CoverResult, CoverStats, FreeCube, SignedPermutation
    from _oracles import IN_DEGREE_TWO, IN_DEGREE_TWO_POINTS

    def verify(cubes, points):
        path = tmp_path / "cover.txt"
        res = CoverResult(cubes, SignedPermutation((0, 1), (1, 1)), CoverStats())
        fileio.write_atomic(str(path), fileio.dump_cover(points, res, 2, 1, 1))
        code = main(["verify", "--cover", str(path)])
        return code, capsys.readouterr().out.splitlines()

    code, lines = verify(IN_DEGREE_TWO, IN_DEGREE_TWO_POINTS)
    assert code == 1
    assert lines == [
        "cover: non_overlap=True bott=True count=True (precondition_met=False) "
        "edges=2<=K=3 in_degree<=1=False",
        "cover witness: cube 0 has in-degree 2 from cubes 1 2",
    ]
    overlap = [FreeCube((F(0), F(0)), F(2)), FreeCube((F(1), F(1)), F(2))]
    code, lines = verify(overlap, [(F(1, 2), F(1, 2))])
    assert code == 1 and lines[1:] == ["cover witness: cubes 0 and 1 overlap"]


def test_cli_verify_regions_prints_witness(tmp_path, capsys):
    from stlab.regions import FlatBundle, Region, RegionAssignment, canonical_flat

    # the crossings of p and q lie 2/3 from each anchor along the first
    # axis, so boxes of half side 1/2 around the anchors miss both
    anchors = [(F(0),) * 4, (F(2), F(0), F(0), F(0)), (F(10),) * 4]
    bundle = FlatBundle(
        anchors,
        [[canonical_flat(a, 0)] for a in anchors],
        [[canonical_flat(a, 1)] for a in anchors],
    )
    (tmp_path / "bundle.txt").write_text(fileio.dump_bundle(bundle))

    def around(a, half=F(1, 2)):
        return tuple((x - half, x + half) for x in a)

    def verify(regions, ids, r):
        asg = [RegionAssignment(Region(boxes), i) for boxes, i in zip(regions, ids)]
        path = tmp_path / "regions.txt"
        path.write_text(fileio.dump_regions(asg, r))
        code = main(["verify", "--regions", str(path), "--bundle", str(tmp_path / "bundle.txt")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 2
        return lines[1]

    far = (around(anchors[2]),)
    both = (around(anchors[0]), around(anchors[1]))
    assert verify([both, far, both], [(0, 1), (2,), (0, 1)], 2) == (
        "regions witness: regions 0 and 2 overlap")
    assert verify([far, both], [(2,), (0, 1)], 1) == (
        "regions witness: region 1 does not hold exactly r=1 anchors")
    assert verify([both, far], [(0, 0), (2,)], 2) == (
        "regions witness: region 0 names anchor 0 twice")
    assert verify([far, both], [(2,), (2,)], 1) == (
        "regions witness: region 1: anchor 2 lies outside its interior")
    assert verify([both, far], [(0, 1), (2, 1)], 2) == (
        "regions witness: region 0: no mixed crossing family of anchors 0 and 1 lies inside")


def test_cli_verify_regions_margin_is_exact(tmp_path, capsys):
    from stlab.regions import FlatBundle, Region, RegionAssignment, canonical_flat, verify_regions

    # an anchor 5e-14 below the top face of the unit box: a margin of
    # 1e-13 of the side puts it outside
    anchor = (1 - F(5, 10**14), F(1, 2), F(1, 2), F(1, 2))
    bundle = FlatBundle([anchor], [[canonical_flat(anchor, 0)]], [[canonical_flat(anchor, 1)]])
    asg = [RegionAssignment(Region((((F(0), F(1)),) * 4,)), (0,))]
    assert not verify_regions(asg, bundle, 1, F(1, 10**13)).all_ok
    (tmp_path / "bundle.txt").write_text(fileio.dump_bundle(bundle))
    (tmp_path / "regions.txt").write_text(fileio.dump_regions(asg, 1))
    argv = ["verify", "--regions", str(tmp_path / "regions.txt"),
            "--bundle", str(tmp_path / "bundle.txt")]
    assert main(argv) == 0
    assert main(argv + ["--margin", "1e-13"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "regions witness: region 0: anchor 0 lies outside its interior")


def test_cli_cover_beyond_float_range(tmp_path, capsys):
    # a cube 10^400 up the first axis, written out in full, next to a unit
    # cube; one point in each bottom side-cube
    big = 10**400
    path = tmp_path / "cover.txt"
    path.write_text(
        "stlab cover 1\ndim 2\nkappa 1\nr 1\naxismap 0 1 1 1\n"
        "p %d/6 1/2\np 1/6 1/2\ncube %d 0 1\ncube 0 0 1\n" % (6 * big + 1, big)
    )
    assert main(["shiftgraph", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "nodes=2 edges=0\n"
    assert main(["verify", "--cover", str(path)]) == 0
    assert capsys.readouterr().out == (
        "cover: non_overlap=True bott=True count=True (precondition_met=False) "
        "edges=0<=K=2 in_degree<=1=True\n"
    )


def test_cli_combine_and_verify(tmp_path, capsys):
    bundlefile = tmp_path / "bundle.txt"
    assert (
        main(["gen", "bundle", "--m", "27", "--per-point", "1", "--spread", "0",
              "--seed", "4", "--out", str(bundlefile)]) == 0
    )
    regfile = tmp_path / "regions.txt"
    assert main(["combine", "--bundle", str(bundlefile), "--r", "1", "--out", str(regfile)]) == 0
    assert main(["verify", "--regions", str(regfile), "--bundle", str(bundlefile)]) == 0
    assert "disjoint=True" in capsys.readouterr().out


def test_cli_verify_selfcheck(capsys):
    assert main(["verify"]) == 0
    assert "self-check failures: 0" in capsys.readouterr().out


def test_cli_sumprod_similar_mobius(capsys):
    assert main(["sumprod", "--ints", "1;2;3"]) == 0
    assert "sums=5 products=6" in capsys.readouterr().out
    assert main(["similar", "--pattern", "0;1", "--ground", "0;1;2"]) == 0
    assert "copies=3" in capsys.readouterr().out
    assert main(["dirs", "mobius", "0", "--center", "1", "--lam", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "1/2,0"


@pytest.mark.parametrize(
    "argv",
    [["dirs", "dist", "1,2,3", "1"], ["sumprod", "--ints", "1;2,3,4"]],
    ids=["direction", "gaussian"],
)
def test_cli_bad_gaussian_exits_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("stlab: error: ") and err.count("\n") == 1


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "nonsense"])
    assert exc.value.code == 2


def test_cli_beck_and_bounds(tmp_path, capsys):
    pts = [ComplexPoint(GR(x), GR(y)) for x in range(3) for y in range(3)]
    sysfile = tmp_path / "grid.txt"
    fileio.write_atomic(str(sysfile), fileio.dump_system(pts, []))
    assert main(["beck", "--in", str(sysfile)]) == 0
    assert "connecting=20 max_rich=3" in capsys.readouterr().out
    erd = tmp_path / "erd.txt"
    main(["gen", "erdos", "--k", "2", "--out", str(erd)])
    assert main(["bounds", "--C", "1e70", "--in", str(erd)]) == 0


COVER_HEAD = "dim 2\nkappa 1\nr 1\naxismap 0 1 1 1\n"
# a valid 27-anchor bundle without its header, so combine --r 1 runs
BOX = "box 0 1 0 1 0 1 0 1\n"
BUNDLE_27 = fileio.dump_bundle(gen_bundle_fixture(27, 1, 0.0, seed=2)[1]).split("\n", 1)[1]
UNIT_FLAT = " 0 0 0 0 0 0 1 0 0 0 0 1\n"  # the (x3, x4)-plane


@pytest.mark.parametrize(
    "kind, body",
    [
        ("system", "p 1/x 0 0 0\n"),  # malformed rational
        ("system", "p 0 0 0 0\nl\n"),  # bare line record
        ("points", "dim\np 1 2\n"),  # bare dim record
        ("points", "dim two\np 1 2\n"),  # non-integer dim record
        ("system", "p 1 2 3 4\np 1 2 3 4\n"),  # duplicate point
        ("system", None),  # missing file
        ("cover", "dim 2\nkappa 1\nr 1\naxismap 5 0 1 1\n"),  # not a permutation
        ("bundle", "flat 1 x" + " 0" * 12 + "\n"),  # non-integer point id
        ("cover", COVER_HEAD + "cube\n"),  # bare cube record
        ("cover", COVER_HEAD + "cube 0 1\n"),  # cube short of a coordinate
        ("cover", COVER_HEAD + "p 1/2\ncube 0 0 1\n"),  # point arity differs from dim
        ("cover", "dim 1\nkappa 1\nr 1\naxismap 0 1\np 1/2\ndim 2\ncube 0 0 1\n"),  # dim changes
        ("bundle", BUNDLE_27 + "flat 7 0" + UNIT_FLAT),  # no family 7
        ("bundle", BUNDLE_27 + "flat 1 27" + UNIT_FLAT),  # point id past the anchors
        ("cover", "dim 2\nkappa 1\nr 0\naxismap 0 1 1 1\np 1/2 1/2\ncube 0 0 1\n"),
        ("cover", "dim 2\nkappa 0\nr 1\naxismap 0 1 1 1\np 1/2 1/2\ncube 0 0 1\n"),
        ("cover", "dim 0\nkappa 1\nr 1\naxismap\n"),
    ],
    ids=[
        "bad-rational", "bare-l", "bare-dim", "word-dim", "duplicate-point",
        "missing-file", "bad-axismap", "word-point-id", "bare-cube", "short-cube",
        "point-arity", "repeated-dim", "flat-family-7", "flat-id-past-anchors",
        "r-zero", "kappa-zero", "dim-zero",
    ],
)
def test_cli_bad_input_exits_2(tmp_path, capsys, kind, body):
    path = tmp_path / "in.txt"
    if body is not None:
        path.write_text("stlab %s 1\n%s" % (kind, body))
    argv = {
        "system": ["incidences", "--in", str(path)],
        "points": ["cover", "--dim", "2", "--in", str(path)],
        "cover": ["verify", "--cover", str(path)],
        "bundle": ["combine", "--bundle", str(path), "--r", "1"],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("stlab: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("tok", ["1e999999999", "1e-999999999"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--C", "TOK", "--in", "-"],
        ["bounds", "--t", "2", "--c-rich", "TOK", "--in", "-"],
        ["verify", "--margin", "TOK"],
    ],
    ids=["C", "c-rich", "margin"],
)
def test_cli_huge_exponent_exits_2_at_once(capsys, argv, tok):
    # Fraction would compute 10^999999999 before any range check
    flag = argv[argv.index("TOK") - 1]
    assert main([tok if a == "TOK" else a for a in argv]) == 2
    assert capsys.readouterr().err == "stlab: error: bad %s value '%s'\n" % (flag, tok)


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["bounds", "--C", "abc", "--in", "SYS"], "--C"),
        (["bounds", "--t", "2", "--c-rich", "zz", "--in", "SYS"], "--c-rich"),
        (["verify", "--regions", "REG"], "--bundle"),
        (["verify", "--regions", "REG", "--bundle", "BUN", "--margin", "abc"], "--margin"),
        (["dirs", "cover-sphere", "--delta", "nan"], "delta"),
        (["gen", "erdos", "--k", "0"], "k must"),
        (["rich", "--t", "1", "--in", "SYS"], "t must"),
        (["gen", "bundle", "--m", "0"], "m and per_point"),
        (["beck", "--in", "ONE"], "at least 2 points"),
        (["dirs", "cover-sphere", "--check-samples", "-5"], "samples must"),
        (["gen", "random", "--n", "-3"], "n and e must"),
        (["gen", "random", "--e", "-2"], "n and e must"),
        (["bounds", "--C", "nan", "--in", "SYS"], "C must"),
        (["bounds", "--C", "-1", "--in", "SYS"], "C must"),
        (["bounds", "--C", "inf", "--in", "SYS"], "C must"),
        (["bounds", "--t", "2", "--c-rich", "nan", "--in", "SYS"], "c must"),
        (["verify", "--margin", "1/0"], "--margin"),
        (["verify", "--regions", "REG", "--bundle", "BUN", "--margin", "-1"], "margin must"),
        (["verify", "--regions", "HALF", "--bundle", "BUN"], "halfspace"),
        (["dirs", "cover-sphere", "--delta", "0.01"], "cover centers"),
        (["cover", "--dim", "2", "--in", "BIG"], "does not match --dim 2"),
        (["verify", "--regions", "RZERO", "--bundle", "BUN"], "r must"),
        (["cover", "--dim", "2", "--in", "PDIM"], "repeated dim record"),
        (["verify", "--cover", "CKAPPA"], "repeated kappa record"),
        (["verify", "--cover", "CR"], "repeated r record"),
        (["verify", "--cover", "CAXIS"], "repeated axismap record"),
        (["verify", "--regions", "RR", "--bundle", "BUN"], "repeated r record"),
        (["verify", "--regions", "RNEG", "--bundle", "BUN"], "negative anchor id"),
        (["verify", "--regions", "RFAR", "--bundle", "BUN"], "names anchor 999 of 27"),
        (["verify", "--regions", "-", "--bundle", "-"], "--regions and --bundle"),
        (["verify", "--cover", "-", "--system", "-"], "--cover and --system"),
        (["cover", "--dim", "1", "--in", "LATIN"], "not valid text"),
        (["verify", "--regions", "RPTS", "--bundle", "BUN"], "repeated points record"),
        (["verify", "--regions", "RTOK", "--bundle", "BUN"], "bad regions record 'region 5'"),
    ],
    ids=[
        "C-word", "c-rich-word", "regions-without-bundle", "margin-word", "delta-nan",
        "erdos-k0", "rich-t1", "bundle-m0", "beck-one-point", "check-samples-negative",
        "random-n-negative", "random-e-negative", "C-nan", "C-negative", "C-inf",
        "c-rich-nan", "margin-zero-denominator", "margin-negative",
        "halfspace-record", "delta-too-many-centers", "cover-dim-mismatch",
        "regions-r-zero", "points-repeated-dim", "cover-repeated-kappa", "cover-repeated-r",
        "cover-repeated-axismap", "regions-repeated-r", "regions-negative-id",
        "regions-id-past-anchors", "two-stdin-inputs", "two-stdin-cover-system",
        "not-utf8", "regions-repeated-points", "regions-record-tokens",
    ],
)
def test_cli_bad_argument_exits_2(tmp_path, capsys, argv, needle):
    files = {
        "SYS": fileio.dump_system(*gen_erdos(2)),
        "ONE": fileio.dump_system([ComplexPoint(GR(0), GR(1))], []),
        "REG": fileio.dump_regions([], 1),
        "RZERO": fileio.dump_regions([], 0),
        # regions are unions of boxes, so a halfspace record is bad input
        "HALF": fileio.dump_regions([], 1) + "region\nhalfspace 1 0 0 0 1/2\npoints 0\n",
        "BUN": "stlab bundle 1\n" + BUNDLE_27,
        "BIG": "stlab points 1\ndim 1\np %d/3\np 1/7\n" % 10**400,
        # a second header record would silently replace the first
        "PDIM": "stlab points 1\ndim 1\np 1/3\ndim 2\np 1/3 1/5\n",
        "CKAPPA": "stlab cover 1\n" + COVER_HEAD + "kappa 2\n",
        "CR": "stlab cover 1\n" + COVER_HEAD + "r 2\n",
        "CAXIS": "stlab cover 1\n" + COVER_HEAD + "axismap 1 0 1 1\n",
        "RR": fileio.dump_regions([], 1) + "r 2\n",
        "RNEG": fileio.dump_regions([], 1) + "region\npoints -1\n",
        "RFAR": fileio.dump_regions([], 1) + "region\npoints 999\n",
        # the byte 0xff, which no UTF-8 text holds
        "LATIN": "stlab points 1\ndim 1\np \udcff\n",
        # a second points record would merge two blocks' boxes into one region
        "RPTS": fileio.dump_regions([], 1) + "region\n%spoints 0\n%spoints 1\n" % (BOX, BOX),
        "RTOK": fileio.dump_regions([], 1) + "region 5\n%spoints 0\n" % BOX,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8", errors="surrogateescape")
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("stlab: error: ") and err.count("\n") == 1
    assert needle in err
