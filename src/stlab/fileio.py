"""Text serialization of the workbench objects.

Everything is exact: rationals print as "p/q" (the "/q" dropped for
integers), complex values as two rationals, one record per line, "#"
starts a comment.  Every file opens with the header line

    stlab <kind> 1

with kind one of system, points, bundle, cover, regions.  Files are
written atomically (temp file then rename).
"""

from __future__ import annotations

import io
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from .covering import CoverResult, CoverStats, FreeCube, SignedPermutation
from .exact import ComplexLine, ComplexPoint, Flat2, GaussianRational, RVector4
from .regions import FlatBundle, Region, RegionAssignment

FORMAT_VERSION = 1


class FormatError(ValueError):
    pass


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rational(tok: str) -> Fraction:
    try:
        if "/" in tok:
            num, den = tok.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError("bad rational %r" % tok) from exc


def _parse_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise FormatError("bad integer %r" % tok) from exc


def _int_record(rec: List[str]) -> int:
    """The value of a "<name> <int>" record such as "dim 2"; dim, kappa
    and r must all be at least 1."""
    if len(rec) != 2:
        raise FormatError("bad %s record %r" % (rec[0], " ".join(rec)))
    value = _parse_int(rec[1])
    if value < 1:
        raise FormatError("%s must be at least 1, got %d" % (rec[0], value))
    return value


def _once(rec: List[str], value) -> None:
    """Reject a second record of rec's name: value is what the first set."""
    if value is not None:
        raise FormatError("repeated %s record" % rec[0])


def _header(kind: str) -> str:
    return "stlab %s %d" % (kind, FORMAT_VERSION)


def _parse_header(line: str, expect: Optional[str] = None) -> str:
    parts = line.split()
    if len(parts) != 3 or parts[0] != "stlab" or parts[2] != str(FORMAT_VERSION):
        raise FormatError("bad header %r" % line)
    if expect is not None and parts[1] != expect:
        raise FormatError("expected kind %r, found %r" % (expect, parts[1]))
    return parts[1]


def _records(stream: TextIO) -> Iterable[List[str]]:
    for raw in stream:
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line.split()


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".stlab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- complex systems -----------------------------------------------------------


def dump_system(points: Sequence[ComplexPoint], lines: Sequence[ComplexLine]) -> str:
    out = [_header("system")]
    for p in points:
        out.append(
            "p %s %s %s %s"
            % tuple(format_rational(v) for v in (p.z1.re, p.z1.im, p.z2.re, p.z2.im))
        )
    for l in lines:
        if l.is_vertical:
            out.append(
                "l V %s %s" % (format_rational(l.b.re), format_rational(l.b.im))
            )
        else:
            out.append(
                "l S %s %s %s %s"
                % tuple(format_rational(v) for v in (l.a.re, l.a.im, l.b.re, l.b.im))
            )
    return "\n".join(out) + "\n"


def load_system(stream: TextIO) -> Tuple[List[ComplexPoint], List[ComplexLine]]:
    first = stream.readline()
    _parse_header(first, "system")
    points: List[ComplexPoint] = []
    lines: List[ComplexLine] = []
    for rec in _records(stream):
        if rec[0] == "p" and len(rec) == 5:
            vals = [parse_rational(t) for t in rec[1:]]
            points.append(
                ComplexPoint(GaussianRational(vals[0], vals[1]), GaussianRational(vals[2], vals[3]))
            )
        elif rec[:2] == ["l", "V"] and len(rec) == 4:
            vals = [parse_rational(t) for t in rec[2:]]
            lines.append(ComplexLine.vertical(GaussianRational(vals[0], vals[1])))
        elif rec[:2] == ["l", "S"] and len(rec) == 6:
            vals = [parse_rational(t) for t in rec[2:]]
            lines.append(
                ComplexLine.slanted(GaussianRational(vals[0], vals[1]), GaussianRational(vals[2], vals[3]))
            )
        else:
            raise FormatError("bad system record %r" % " ".join(rec))
    return points, lines


# -- real point sets -------------------------------------------------------------


def dump_points(points: Sequence[Sequence[Fraction]], d: int) -> str:
    out = [_header("points"), "dim %d" % d]
    for p in points:
        out.append("p " + " ".join(format_rational(x) for x in p))
    return "\n".join(out) + "\n"


def load_points(stream: TextIO) -> Tuple[List[Tuple[Fraction, ...]], int]:
    _parse_header(stream.readline(), "points")
    d = None
    pts: List[Tuple[Fraction, ...]] = []
    for rec in _records(stream):
        if rec[0] == "dim":
            _once(rec, d)
            d = _int_record(rec)
        elif rec[0] == "p":
            if d is None or len(rec) != d + 1:
                raise FormatError("point record before dim or wrong arity")
            pts.append(tuple(parse_rational(t) for t in rec[1:]))
        else:
            raise FormatError("bad points record %r" % " ".join(rec))
    if d is None:
        raise FormatError("missing dim record")
    return pts, d


# -- flat bundles ------------------------------------------------------------------


def dump_bundle(bundle: FlatBundle) -> str:
    out = [_header("bundle")]
    for a in bundle.anchors:
        out.append("anchor " + " ".join(format_rational(x) for x in a))
    for fam, groups in ((1, bundle.family1), (2, bundle.family2)):
        for pid, flats in enumerate(groups):
            for f in flats:
                coords = f.base.as_tuple() + f.dir1.as_tuple() + f.dir2.as_tuple()
                out.append(
                    "flat %d %d " % (fam, pid)
                    + " ".join(format_rational(x) for x in coords)
                )
    return "\n".join(out) + "\n"


def load_bundle(stream: TextIO) -> FlatBundle:
    _parse_header(stream.readline(), "bundle")
    anchors: List[Tuple[Fraction, ...]] = []
    fam1: Dict[int, List[Flat2]] = {}
    fam2: Dict[int, List[Flat2]] = {}
    for rec in _records(stream):
        if rec[0] == "anchor" and len(rec) == 5:
            anchors.append(tuple(parse_rational(t) for t in rec[1:]))
        elif rec[0] == "flat" and len(rec) == 15:
            fam, pid = _parse_int(rec[1]), _parse_int(rec[2])
            if fam not in (1, 2) or pid < 0:
                raise FormatError("bad flat family or point id in %r" % " ".join(rec))
            vals = [parse_rational(t) for t in rec[3:]]
            flat = Flat2(
                RVector4.of(vals[0:4]), RVector4.of(vals[4:8]), RVector4.of(vals[8:12])
            )
            (fam1 if fam == 1 else fam2).setdefault(pid, []).append(flat)
        else:
            raise FormatError("bad bundle record %r" % " ".join(rec))
    n = len(anchors)
    if any(pid >= n for fam in (fam1, fam2) for pid in fam):
        raise FormatError("flat point id outside the %d anchors" % n)
    return FlatBundle(
        anchors,
        [fam1.get(i, []) for i in range(n)],
        [fam2.get(i, []) for i in range(n)],
    )


# -- cover results ------------------------------------------------------------------


def dump_cover(
    points: Sequence[Sequence[Fraction]],
    result: CoverResult,
    d: int,
    kappa: int,
    r: int,
) -> str:
    out = [_header("cover"), "dim %d" % d, "kappa %d" % kappa, "r %d" % r]
    out.append(
        "axismap "
        + " ".join(str(i) for i in result.axis_map.perm)
        + " "
        + " ".join(str(s) for s in result.axis_map.signs)
    )
    for p in points:
        out.append("p " + " ".join(format_rational(x) for x in p))
    for c in result.K:
        out.append(
            "cube "
            + " ".join(format_rational(x) for x in c.corner)
            + " "
            + format_rational(c.side)
        )
    return "\n".join(out) + "\n"


@dataclass
class CoverFile:
    points: List[Tuple[Fraction, ...]]
    result: CoverResult
    d: int
    kappa: int
    r: int


def load_cover(stream: TextIO) -> CoverFile:
    _parse_header(stream.readline(), "cover")
    d = kappa = r = None
    amap: Optional[SignedPermutation] = None
    pts: List[Tuple[Fraction, ...]] = []
    cubes: List[FreeCube] = []
    for rec in _records(stream):
        if rec[0] == "dim":
            _once(rec, d)
            d = _int_record(rec)
        elif rec[0] == "kappa":
            _once(rec, kappa)
            kappa = _int_record(rec)
        elif rec[0] == "r":
            _once(rec, r)
            r = _int_record(rec)
        elif rec[0] == "axismap":
            _once(rec, amap)
            if d is None or len(rec) != 2 * d + 1:
                raise FormatError("axismap before dim or wrong arity")
            perm = tuple(_parse_int(t) for t in rec[1 : d + 1])
            signs = tuple(_parse_int(t) for t in rec[d + 1 :])
            if sorted(perm) != list(range(d)) or any(s not in (1, -1) for s in signs):
                raise FormatError("axismap is not a signed permutation")
            amap = SignedPermutation(perm, signs)
        elif rec[0] == "p":
            if d is None or len(rec) != d + 1:
                raise FormatError("point record before dim or wrong arity")
            pts.append(tuple(parse_rational(t) for t in rec[1:]))
        elif rec[0] == "cube":
            if d is None or len(rec) != d + 2:
                raise FormatError("cube record before dim or wrong arity")
            vals = [parse_rational(t) for t in rec[1:]]
            cubes.append(FreeCube(tuple(vals[:-1]), vals[-1]))
        else:
            raise FormatError("bad cover record %r" % " ".join(rec))
    if d is None or kappa is None or r is None or amap is None:
        raise FormatError("incomplete cover file")
    return CoverFile(pts, CoverResult(cubes, amap, CoverStats()), d, kappa, r)


# -- regions ------------------------------------------------------------------------


def dump_regions(assignments: Sequence[RegionAssignment], r: int) -> str:
    """Records "r <int>", then per region a "region" line, one "box"
    line per box (lo hi for each of the four axes) and a "points" line
    of anchor ids.  A region is a union of boxes, so "box" is its only
    geometry record."""
    out = [_header("regions"), "r %d" % r]
    for asg in assignments:
        out.append("region")
        for box in asg.region.boxes:
            flat = [v for lo_hi in box for v in lo_hi]
            out.append("box " + " ".join(format_rational(x) for x in flat))
        out.append("points " + " ".join(str(i) for i in asg.point_ids))
    return "\n".join(out) + "\n"


def load_regions(stream: TextIO) -> Tuple[List[RegionAssignment], int]:
    _parse_header(stream.readline(), "regions")
    r = None
    out: List[RegionAssignment] = []
    boxes: List = []
    ids: Optional[Tuple[int, ...]] = None

    def flush():
        nonlocal boxes, ids
        if boxes or ids is not None:
            if ids is None:
                raise FormatError("region block missing points record")
            out.append(RegionAssignment(Region(tuple(boxes)), ids))
        boxes, ids = [], None

    for rec in _records(stream):
        if rec[0] == "r":
            _once(rec, r)
            r = _int_record(rec)
        elif rec[0] == "region":
            flush()
        elif rec[0] == "box" and len(rec) == 9:
            vals = [parse_rational(t) for t in rec[1:]]
            boxes.append(tuple((vals[2 * i], vals[2 * i + 1]) for i in range(4)))
        elif rec[0] == "points":
            ids = tuple(_parse_int(t) for t in rec[1:])
            if any(i < 0 for i in ids):
                raise FormatError("negative anchor id in %r" % " ".join(rec))
        else:
            raise FormatError("bad regions record %r" % " ".join(rec))
    flush()
    if r is None:
        raise FormatError("missing r record")
    return out, r


def loads(text: str, loader):
    return loader(io.StringIO(text))
