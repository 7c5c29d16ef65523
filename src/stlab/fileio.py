"""Text serialization of the workbench objects.

Everything is exact: rationals print as "p/q" (the "/q" dropped for
integers), complex values as two rationals, one record per line, "#"
starts a comment.  Every file opens with the header line

    stlab <kind> 1

with kind one of system, points, bundle, cover, regions.  One reader,
``_records``, checks that header and the "<name> <int>" records such as
"dim 2" and yields the others; ``_line`` prints every record of
rationals but "p" and "cube", the rows of a covering.PointSet or
CubeSet, which one row codec reads and writes as int columns with no
Fraction per coordinate, put over one denominator by
``exact._int_columns``.  The reader parses a run of rows in bulk, and
record by record only a run with a fault in it, so the first fault in
file order decides the message.  Files are written atomically (temp
file then rename) with the mode a plain open would give them.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter, mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

from .covering import CoverResult, CoverStats, CubeSet, InvalidParams, PointSet, SignedPermutation
from .exact import ComplexLine, ComplexPoint, Flat2, GaussianRational, RVector4, _int_columns
from .regions import FlatBundle, Region, RegionAssignment

FORMAT_VERSION = 1
CHUNK = 1 << 16  # characters of whole lines the reader takes at a time


class FormatError(ValueError):
    pass


def format_rational(x: Fraction) -> str:
    return _ratio_text(x.numerator, x.denominator)


def _ratio_text(a: int, den: int) -> str:
    """a/den in lowest terms, the "/1" of an integer dropped."""
    g = math.gcd(a, den)
    return str(a // g) if g == den else "%d/%d" % (a // g, den // g)


def _ratio(tok: str) -> Tuple[int, int]:
    """The numerator and the nonzero denominator of a rational token."""
    num, slash, den = tok.partition("/")
    try:
        q = int(den) if slash else 1
        if q:
            return int(num), q
    except ValueError:
        pass
    raise FormatError("bad rational %r" % tok)


def parse_rational(tok: str) -> Fraction:
    return Fraction(*_ratio(tok))


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


def _parse_header(line: str, kind: str) -> None:
    parts = line.split()
    if len(parts) != 3 or parts[0] != "stlab" or parts[2] != str(FORMAT_VERSION):
        raise FormatError("bad header %r" % line)
    if parts[1] != kind:
        raise FormatError("expected kind %r, found %r" % (kind, parts[1]))


def _add_row(rec: List[str], d: Optional[int], nums: List[int], dens: List[int]) -> None:
    """Parse a "p" or "cube" record of d or d + 1 rationals onto their
    numerators nums and denominators dens, each token in its turn."""
    cube = rec[0] == "cube"
    if d is None or len(rec) != d + cube + 1:
        raise FormatError("%s record before dim or wrong arity" % ("cube" if cube else "point"))
    for a, q in map(_ratio, rec[1:]):
        nums.append(a)
        dens.append(q)
    if cube and a * q <= 0:
        raise InvalidParams("cube side must be positive")


def _bulk(run: List[str], d: Optional[int], rows: Dict[str, tuple]) -> bool:
    """_add_row on each line of run at once, if each is a "p" or "cube" record
    named in rows with every token of at most one "/": one split, one int
    pass over the numerator texts and one over the distinct denominators.  A name or
    a comment off its place leaves a token int rejects.  False, rows
    untouched, for any other run, a zero denominator or a side <= 0."""
    text = "".join(run)
    toks = text.split()
    name = toks[0] if toks else ""
    if d is None or name not in rows:
        return False
    w, n = d + (name == "cube"), len(run)
    if ("\n" + text).count("\n%s " % name) != n or len(toks) != n * (w + 1):
        return False
    del toks[:: w + 1]
    parts = " ".join([t if "/" in t else t + "/1" for t in toks]).replace("/", " ").split(" ")
    if len(parts) != 2 * len(toks):
        return False
    try:
        nums, dens = list(map(int, parts[::2])), parts[1::2]
        dens = list(map({t: int(t) for t in set(dens)}.__getitem__, dens))  # rows share few denominators
    except ValueError:
        return False
    if 0 in dens or name == "cube" and min(map(mul, nums[d::w], dens[d::w])) <= 0:  # cube sides
        return False
    rows[name][0].extend(nums)
    rows[name][1].extend(dens)
    return True


def _records(
    stream: TextIO, kind: str, head: Dict[str, Optional[int]], rows: Dict[str, tuple]
) -> Iterator[List[str]]:
    """The records of a <kind> file, comments stripped, after its header
    line is checked; the only code that reads the stream, CHUNK characters
    of lines at a time.  A record named in head, "<name> <int>", sets
    head[name] once; a "p" or "cube" record named in rows goes onto the
    lists rows[name] = (numerators, denominators), a run of lines with one
    first character through _bulk if it can."""
    try:
        _parse_header(stream.readline(), kind)
        while lines := stream.readlines(CHUNK):
            for run in (list(g) for _, g in groupby(lines, itemgetter(0))):
                if rows and _bulk(run, head["dim"], rows):
                    continue
                for rec in filter(None, (raw.partition("#")[0].split() for raw in run)):
                    if rec[0] in head:
                        _once(rec, head[rec[0]])
                        head[rec[0]] = _int_record(rec)
                    elif rec[0] in rows:
                        _add_row(rec, head["dim"], *rows[rec[0]])
                    else:
                        yield rec
    except UnicodeDecodeError as exc:
        raise FormatError("input is not valid text: %s" % exc) from exc


def _line(name: str, values: Iterable[Fraction]) -> str:
    """The record "<name> <v1> <v2> ..." of rationals."""
    return " ".join([name, *map(format_rational, values)])


def _row_lines(name: str, rows: PointSet) -> List[str]:
    """The "<name>" records of the rows of a PointSet or CubeSet."""
    texts = [[_ratio_text(a, rows.den) for a in col] for col in rows.cols]
    return [" ".join((name,) + row) for row in zip(*texts)]


def write_atomic(path: str, text: str) -> None:
    """Write text to path through a temp file and a rename; the file
    gets the mode open(path, "w") would give it."""
    umask = os.umask(0)
    os.umask(umask)
    mode = os.stat(path).st_mode & 0o777 if os.path.exists(path) else 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".stlab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            os.fchmod(fh.fileno(), mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- complex systems -----------------------------------------------------------


def dump_system(points: Sequence[ComplexPoint], lines: Sequence[ComplexLine]) -> str:
    out = [_header("system")]
    out.extend(_line("p", (p.z1.re, p.z1.im, p.z2.re, p.z2.im)) for p in points)
    for l in lines:
        if l.is_vertical:
            out.append(_line("l V", (l.b.re, l.b.im)))
        else:
            out.append(_line("l S", (l.a.re, l.a.im, l.b.re, l.b.im)))
    return "\n".join(out) + "\n"


def _gaussians(tokens: List[str]) -> List[GaussianRational]:
    """The Gaussian rationals of consecutive (re, im) token pairs."""
    vals = [parse_rational(t) for t in tokens]
    return [GaussianRational(re, im) for re, im in zip(vals[::2], vals[1::2])]


def load_system(stream: TextIO) -> Tuple[List[ComplexPoint], List[ComplexLine]]:
    points: List[ComplexPoint] = []
    lines: List[ComplexLine] = []
    for rec in _records(stream, "system", {}, {}):
        if rec[0] == "p" and len(rec) == 5:
            points.append(ComplexPoint(*_gaussians(rec[1:])))
        elif rec[:2] == ["l", "V"] and len(rec) == 4:
            lines.append(ComplexLine.vertical(*_gaussians(rec[2:])))
        elif rec[:2] == ["l", "S"] and len(rec) == 6:
            lines.append(ComplexLine.slanted(*_gaussians(rec[2:])))
        else:
            raise FormatError("bad system record %r" % " ".join(rec))
    return points, lines


# -- real point sets -------------------------------------------------------------


def dump_points(points: Sequence[Sequence[Fraction]], d: int) -> str:
    lines = [_header("points"), "dim %d" % d, *_row_lines("p", PointSet.of(points))]
    return "\n".join(lines) + "\n"


def load_points(stream: TextIO) -> Tuple[PointSet, int]:
    head: Dict[str, Optional[int]] = {"dim": None}
    points = ([], [])  # numerators, denominators
    for rec in _records(stream, "points", head, {"p": points}):
        raise FormatError("bad points record %r" % " ".join(rec))
    if head["dim"] is None:
        raise FormatError("missing dim record")
    return PointSet.over(*_int_columns(*points, head["dim"])), head["dim"]


# -- flat bundles ------------------------------------------------------------------


def dump_bundle(bundle: FlatBundle) -> str:
    out = [_header("bundle")]
    out.extend(_line("anchor", a) for a in bundle.anchors)
    for fam, groups in ((1, bundle.family1), (2, bundle.family2)):
        for pid, flats in enumerate(groups):
            for f in flats:
                coords = f.base.as_tuple() + f.dir1.as_tuple() + f.dir2.as_tuple()
                out.append(_line("flat %d %d" % (fam, pid), coords))
    return "\n".join(out) + "\n"


def load_bundle(stream: TextIO) -> FlatBundle:
    anchors: List[Tuple[Fraction, ...]] = []
    families: Dict[int, Dict[int, List[Flat2]]] = {1: {}, 2: {}}
    for rec in _records(stream, "bundle", {}, {}):
        if rec[0] == "anchor" and len(rec) == 5:
            anchors.append(tuple(map(parse_rational, rec[1:])))
        elif rec[0] == "flat" and len(rec) == 15:
            fam, pid = _parse_int(rec[1]), _parse_int(rec[2])
            if fam not in families or pid < 0:
                raise FormatError("bad flat family or point id in %r" % " ".join(rec))
            vals = [parse_rational(t) for t in rec[3:]]
            flat = Flat2(*(RVector4.of(vals[i : i + 4]) for i in (0, 4, 8)))
            families[fam].setdefault(pid, []).append(flat)
        else:
            raise FormatError("bad bundle record %r" % " ".join(rec))
    n = len(anchors)
    if any(pid >= n for fam in families.values() for pid in fam):
        raise FormatError("flat point id outside the %d anchors" % n)
    return FlatBundle(anchors, *([fam.get(i, []) for i in range(n)] for fam in families.values()))


# -- cover results ------------------------------------------------------------------


def dump_cover(
    points: Sequence[Sequence[Fraction]],
    result: CoverResult,
    d: int,
    kappa: int,
    r: int,
) -> str:
    out = [_header("cover"), "dim %d" % d, "kappa %d" % kappa, "r %d" % r]
    amap = result.axis_map
    out.append(" ".join(["axismap", *map(str, (*amap.perm, *amap.signs))]))
    out.extend(_row_lines("p", PointSet.of(points)))
    out.extend(_row_lines("cube", CubeSet.of(result.K)))
    return "\n".join(out) + "\n"


@dataclass
class CoverFile:
    points: PointSet
    result: CoverResult
    d: int
    kappa: int
    r: int


def load_cover(stream: TextIO) -> CoverFile:
    head: Dict[str, Optional[int]] = dict.fromkeys(("dim", "kappa", "r"))
    amap: Optional[SignedPermutation] = None
    points, cubes = ([], []), ([], [])  # numerators, denominators
    for rec in _records(stream, "cover", head, {"p": points, "cube": cubes}):
        d = head["dim"]
        if rec[0] == "axismap":
            _once(rec, amap)
            if d is None or len(rec) != 2 * d + 1:
                raise FormatError("axismap before dim or wrong arity")
            perm = tuple(_parse_int(t) for t in rec[1 : d + 1])
            signs = tuple(_parse_int(t) for t in rec[d + 1 :])
            if sorted(perm) != list(range(d)) or any(s not in (1, -1) for s in signs):
                raise FormatError("axismap is not a signed permutation")
            amap = SignedPermutation(perm, signs)
        else:
            raise FormatError("bad cover record %r" % " ".join(rec))
    if None in head.values() or amap is None:
        raise FormatError("incomplete cover file")
    pts = PointSet.over(*_int_columns(*points, head["dim"]))
    K = CubeSet.over(*_int_columns(*cubes, head["dim"] + 1))
    return CoverFile(pts, CoverResult(K, amap, CoverStats()), *head.values())


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
            out.append(_line("box", [v for lo_hi in box for v in lo_hi]))
        out.append("points " + " ".join(str(i) for i in asg.point_ids))
    return "\n".join(out) + "\n"


def load_regions(stream: TextIO) -> Tuple[List[RegionAssignment], int]:
    head: Dict[str, Optional[int]] = {"r": None}
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

    for rec in _records(stream, "regions", head, {}):
        if rec == ["region"]:
            flush()
        elif rec[0] == "box" and len(rec) == 9:
            vals = [parse_rational(t) for t in rec[1:]]
            boxes.append(tuple(zip(vals[::2], vals[1::2])))
        elif rec[0] == "points":
            _once(rec, ids)
            ids = tuple(_parse_int(t) for t in rec[1:])
            if any(i < 0 for i in ids):
                raise FormatError("negative anchor id in %r" % " ".join(rec))
        else:
            raise FormatError("bad regions record %r" % " ".join(rec))
    flush()
    if head["r"] is None:
        raise FormatError("missing r record")
    return out, head["r"]
