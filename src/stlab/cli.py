"""Command-line front end.

Subcommands cover the generators, the counting engines, the covering
and region builders, the direction-space utilities, and a verifier
that exits nonzero when any checked property fails.  Exit codes:
0 success, 1 verification failure, 2 usage error or bad input (one
line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import fileio
from .covering import CoveringError, build_shift_graph, normalize_points, run_covering, verify_cover
from .directions import (
    DIR_INF,
    Direction,
    apply_mobius,
    dist_deg,
    is_orthogonal,
    max_cover_gap_deg,
    pi_lambda,
    sphere_disk_cover,
)
from .exact import GaussianRational, GeometryError
from .generators import gen_bundle_fixture, gen_erdos, gen_random_system
from .incidence import (
    beck_stats,
    check_rich_bound,
    count_incidences,
    count_naive,
    rich_lines,
    similar_copies,
    sum_product,
)
from .regions import CombineDetail, combine, verify_regions


def _number(tok: str, flag: str, kinds=(Fraction, float)):
    # exact where it can be; nan and inf stay floats for the range checks to
    # name.  Fraction would build 10^|e|, so an exponent e of 5+ digits is bad
    if re.search(r"e[-+]?\d(_?\d){4}", tok, re.IGNORECASE):
        kinds = ()
    for kind in kinds:
        try:
            return kind(tok)
        except (ValueError, ZeroDivisionError):
            pass
    raise fileio.FormatError("bad %s value %r" % (flag, tok))


def _parse_direction(tok: str) -> Direction:
    if tok in ("inf", "infinity", "oo"):
        return DIR_INF
    return Direction.finite(_parse_gaussian(tok))


def _emit(text: str, path) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        fileio.write_atomic(path, text)


def _load(path, loader):
    """loader applied to stdin for None or "-", else to the opened file."""
    if path in (None, "-"):
        return loader(sys.stdin)
    with open(path) as fh:
        return loader(fh)


def cmd_gen(args) -> int:
    if args.what == "erdos":
        pts, lines = gen_erdos(args.k)
        _emit(fileio.dump_system(pts, lines), args.out)
    elif args.what == "random":
        pts, lines = gen_random_system(args.n, args.e, args.seed)
        _emit(fileio.dump_system(pts, lines), args.out)
    else:
        anchors, bundle = gen_bundle_fixture(args.m, args.per_point, args.spread, args.seed)
        _emit(fileio.dump_bundle(bundle), args.out)
    return 0


def cmd_incidences(args) -> int:
    pts, lines = _load(args.infile, fileio.load_system)
    rep = count_incidences(pts, lines)
    print("I=%d n=%d e=%d" % (rep.I, rep.n, rep.e))
    return 0


def cmd_rich(args) -> int:
    pts, lines = _load(args.infile, fileio.load_system)
    rich = rich_lines(pts, args.t)
    print("rich=%d t=%d n=%d" % (len(rich), args.t, len(pts)))
    for rl in rich:
        tag = "V" if rl.line.is_vertical else "S"
        print("# count=%d %s" % (rl.count, tag))
    return 0


def cmd_bounds(args) -> int:
    C = _number(args.C, "--C")
    c_rich = _number(args.c_rich, "--c-rich")
    pts, lines = _load(args.infile, fileio.load_system)
    rep = count_incidences(pts, lines, C=C)
    rb = check_rich_bound(pts, args.t, c_rich) if args.t is not None else None
    print(
        "I=%d bound=%.6g ratio=%.6g violated=%s"
        % (rep.I, rep.st_bound, rep.ratio, rep.violated)
    )
    if rb is not None:
        print(
            "rich=%d t=%d bound=%.6g violated=%s"
            % (rb.rich_count, rb.t, rb.bound, rb.violated)
        )
    return 1 if rep.violated else 0


def cmd_beck(args) -> int:
    pts, lines = _load(args.infile, fileio.load_system)
    connecting, richest = beck_stats(pts)
    print("connecting=%d max_rich=%d n=%d" % (connecting, richest, len(pts)))
    return 0


def _parse_gaussian(tok: str) -> GaussianRational:
    parts = tok.split(",")
    if len(parts) > 2:
        raise fileio.FormatError("bad Gaussian rational %r" % tok)
    im = fileio.parse_rational(parts[1]) if len(parts) == 2 else Fraction(0)
    return GaussianRational(fileio.parse_rational(parts[0]), im)


def cmd_sumprod(args) -> int:
    values = [_parse_gaussian(tok) for tok in args.ints.split(";")]
    s, p = sum_product(values, allow_zero=args.allow_zero)
    print("sums=%d products=%d n=%d" % (s, p, len(values)))
    return 0


def cmd_similar(args) -> int:
    pattern = [_parse_gaussian(tok) for tok in args.pattern.split(";")]
    ground = [_parse_gaussian(tok) for tok in args.ground.split(";")]
    print("copies=%d" % similar_copies(pattern, ground))
    return 0


def cmd_cover(args) -> int:
    pts, d = _load(args.infile, fileio.load_points)
    if d != args.dim:
        raise fileio.FormatError("input dimension %d does not match --dim %d" % (d, args.dim))
    normalized, _ = normalize_points(pts)
    result = run_covering(normalized, args.dim, args.kappa, args.r)
    _emit(fileio.dump_cover(normalized, result, args.dim, args.kappa, args.r), args.out)
    print("selected=%d dropped=%d" % (len(result.K), result.stats.dropped), file=sys.stderr)
    return 0


def cmd_shiftgraph(args) -> int:
    cf = _load(args.infile, fileio.load_cover)
    graph = build_shift_graph(cf.result.K, cf.kappa)
    print("nodes=%d edges=%d" % (graph.nodes, len(graph.edges)))
    for a, b in graph.edges:
        print("edge %d %d" % (a, b))
    return 0


def cmd_combine(args) -> int:
    bundle = _load(args.bundle, fileio.load_bundle)
    detail = CombineDetail()
    assignments = combine(bundle.anchors, bundle, args.r, detail)
    _emit(fileio.dump_regions(assignments, args.r), args.out)
    print(
        "regions=%d cover_k=%d out0=%d out1=%d waived=%s"
        % (detail.kept, detail.cover_k, detail.out_degree0, detail.out_degree1, detail.waived_precondition),
        file=sys.stderr,
    )
    return 0


def cmd_dirs(args) -> int:
    if args.op == "dist":
        print("%.9f" % dist_deg(_parse_direction(args.a), _parse_direction(args.b)))
    elif args.op == "orth":
        print(str(is_orthogonal(_parse_direction(args.a), _parse_direction(args.b))).lower())
    elif args.op == "mobius":
        center = _parse_direction(args.center)
        lam = fileio.parse_rational(args.lam)
        img = apply_mobius(pi_lambda(center, lam), _parse_direction(args.a))
        if img.is_infinite:
            print("inf")
        else:
            print(
                "%s,%s"
                % (fileio.format_rational(img.a.re), fileio.format_rational(img.a.im))
            )
    else:  # cover-sphere
        centers = sphere_disk_cover(args.delta)
        gap = max_cover_gap_deg(centers, args.check_samples, seed=0) if args.check_samples else None
        print("centers=%d" % len(centers))
        if gap is not None:
            print("max_gap=%.6f radius=%.6f" % (gap, args.delta / 2))
            return 0 if gap <= args.delta / 2 else 1
    return 0


def _cover_witness(rep) -> str:
    """One line naming the first failed cover guarantee and its witness."""
    if rep.overlap_pair is not None:
        return "cubes %d and %d overlap" % rep.overlap_pair
    if not rep.in_degree_ok:  # more edges than cubes forces this too
        return "cube %d has in-degree %d from cubes %s" % (
            rep.max_in_target,
            rep.max_in_degree,
            " ".join(map(str, rep.max_in_sources)),
        )
    if rep.bott_failures:
        return "bottom side-cube of cube %d holds fewer than r points" % rep.bott_failures[0]
    return "K=%d does not exceed the count bound %.6g" % (rep.k_count, rep.count_bound)


def _regions_witness(rep) -> str:
    """One line naming the first failed region guarantee and its witness."""
    if rep.overlap_witness is not None:
        return "regions %d and %d overlap" % rep.overlap_witness
    chk = next(c for c in rep.checks if not (c.size_ok and c.interior_ok and not c.pair_failures))
    if chk.repeated_anchor is not None:
        return "region %d names anchor %d twice" % (chk.region_index, chk.repeated_anchor)
    if not chk.size_ok:
        return "region %d does not hold exactly r=%d anchors" % (chk.region_index, rep.r)
    if not chk.interior_ok:
        return "region %d: anchor %d lies outside its interior" % (
            chk.region_index, chk.outside_anchor
        )
    return "region %d: no mixed crossing family of anchors %d and %d lies inside" % (
        (chk.region_index,) + chk.pair_failures[0]
    )


def cmd_verify(args) -> int:
    if args.regions and not args.bundle:
        raise fileio.FormatError("--regions needs --bundle")
    stdin = ["--" + f for f in ("cover", "regions", "bundle", "system") if getattr(args, f) == "-"]
    if len(stdin) > 1:
        raise fileio.FormatError("%s cannot both read stdin" % " and ".join(stdin))
    margin = _number(args.margin, "--margin", (Fraction,))
    failures = 0
    if args.cover:
        cf = _load(args.cover, fileio.load_cover)
        rep = verify_cover(cf.points, cf.result, cf.kappa, cf.r)
        print(
            "cover: non_overlap=%s bott=%s count=%s (precondition_met=%s) "
            "edges=%d<=K=%d in_degree<=1=%s"
            % (
                rep.non_overlap_ok,
                rep.bott_ok,
                rep.count_ok,
                rep.precondition_met,
                rep.edges,
                rep.k_count,
                rep.in_degree_ok,
            )
        )
        if not rep.all_ok:
            print("cover witness: %s" % _cover_witness(rep))
            failures += 1
    if args.regions:
        assignments, r = _load(args.regions, fileio.load_regions)
        bundle = _load(args.bundle, fileio.load_bundle)
        rep = verify_regions(assignments, bundle, r, margin)
        print(
            "regions: disjoint=%s all_ok=%s checked=%d"
            % (rep.disjoint_ok, rep.all_ok, len(rep.checks))
        )
        if not rep.all_ok:
            print("regions witness: %s" % _regions_witness(rep))
            failures += 1
    if args.system:
        pts, lines = _load(args.system, fileio.load_system)
        indexed = count_incidences(pts, lines).I
        match = count_naive(pts, lines) == indexed
        print("system: I=%d match=%s" % (indexed, match))
        if not match:
            failures += 1
    if not (args.cover or args.regions or args.system):
        failures += _self_check()
    return 1 if failures else 0


def _self_check() -> int:
    """Quick built-in property sweep; returns the number of failures."""
    bad = 0
    pts, lines = gen_erdos(3)
    if count_incidences(pts, lines).I != 81:
        bad += 1
    if abs(dist_deg(Direction.finite(0), DIR_INF) - 180.0) > 1e-9:
        bad += 1
    if not is_orthogonal(Direction.finite(1), Direction.finite(-1)):
        bad += 1
    centers = sphere_disk_cover(90.0)
    if len(centers) > 50 or max_cover_gap_deg(centers, 20000, seed=1) > 45.0:
        bad += 1
    print("self-check failures: %d" % bad)
    return bad


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stlab", description=__doc__, allow_abbrev=False)
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate fixture systems")
    g.add_argument("what", choices=["erdos", "random", "bundle"])
    g.add_argument("--k", type=int, default=3)
    g.add_argument("--n", type=int, default=50)
    g.add_argument("--e", type=int, default=50)
    g.add_argument("--m", type=int, default=54)
    g.add_argument("--per-point", dest="per_point", type=int, default=2)
    g.add_argument("--spread", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("incidences", help="count point-line incidences")
    c.add_argument("--in", dest="infile", default=None)
    c.set_defaults(func=cmd_incidences)

    c = sub.add_parser("rich", help="lines incident to at least t points")
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--in", dest="infile", default=None)
    c.set_defaults(func=cmd_rich)

    c = sub.add_parser("bounds", help="compare counts against the bound shape")
    c.add_argument("--C", default="1e70")
    c.add_argument("--t", type=int, default=None)
    c.add_argument("--c-rich", dest="c_rich", default="8")
    c.add_argument("--in", dest="infile", default=None)
    c.set_defaults(func=cmd_bounds)

    c = sub.add_parser("beck", help="connecting-line statistics")
    c.add_argument("--in", dest="infile", default=None)
    c.set_defaults(func=cmd_beck)

    c = sub.add_parser("sumprod", help="sum-set and product-set sizes")
    c.add_argument("--ints", required=True, help="semicolon-separated complex rationals re[,im]")
    c.add_argument("--allow-zero", action="store_true")
    c.set_defaults(func=cmd_sumprod)

    c = sub.add_parser("similar", help="count subsets similar to a pattern")
    c.add_argument("--pattern", required=True, help="semicolon-separated complex rationals")
    c.add_argument("--ground", required=True, help="semicolon-separated complex rationals")
    c.set_defaults(func=cmd_similar)

    c = sub.add_parser("cover", help="run the cube covering")
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("--kappa", type=int, default=1)
    c.add_argument("--r", type=int, default=1)
    c.add_argument("--in", dest="infile", default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_cover)

    c = sub.add_parser("shiftgraph", help="shift graph of a cover file")
    c.add_argument("--in", dest="infile", required=True)
    c.set_defaults(func=cmd_shiftgraph)

    c = sub.add_parser("combine", help="build regions from a bundle")
    c.add_argument("--bundle", required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_combine)

    c = sub.add_parser("dirs", help="direction-space utilities")
    c.add_argument("op", choices=["dist", "orth", "mobius", "cover-sphere"])
    c.add_argument("a", nargs="?", default="0")
    c.add_argument("b", nargs="?", default="inf")
    c.add_argument("--center", default="1")
    c.add_argument("--lam", default="0")
    c.add_argument("--delta", type=float, default=90.0)
    c.add_argument("--check-samples", dest="check_samples", type=int, default=0)
    c.set_defaults(func=cmd_dirs)

    c = sub.add_parser("verify", help="verify artifacts or run the self-check")
    c.add_argument("--cover", default=None)
    c.add_argument("--regions", default=None)
    c.add_argument("--bundle", default=None)
    c.add_argument("--margin", default="0")
    c.add_argument("--system", default=None)
    c.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (fileio.FormatError, GeometryError, CoveringError, OSError) as exc:
        print("stlab: error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
