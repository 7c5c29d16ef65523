"""Workload `cover`: the `stlab cover` -> `verify --cover` -> `shiftgraph`
and `combine` -> `verify --regions` pipelines.

`covering`, `regions` and `fileio` do the work here; `incidence` does
none.  Job classes of one round:

* cover jobs run the whole covering pipeline on point-file text, in
  memory: load_points, normalize_points, run_covering, dump_cover,
  load_cover, verify_cover and build_shift_graph.  Many small inputs
  (n 600..1400, where per-call overhead dominates) over r = 1, 2, 4,
  and one large input (n = 30000, where per-point cost dominates).
  The points are one-dimensional: on random d = 2 inputs `run_covering`
  breaks its in-degree guarantee now and then (see README.md, "Known
  program defect"), and a benchmark run must not fail.
* perched jobs load a cover file of large cubes, each with a small cube
  perched just below its bottom face, and build its shift graph.
  Covering outputs leave few pairs past the shift-graph prefilter;
  these families make every perched pair an exact corridor check.
* regions jobs run combine and verify_regions on clustered d = 4
  bundles of tilted flats.
"""

from __future__ import annotations

import hashlib
import io
import random
from fractions import Fraction
from typing import Dict, List

from stlab import fileio
from stlab.covering import FreeCube, build_shift_graph, normalize_points, run_covering, verify_cover
from stlab.exact import Flat2, RVector4, flat_intersect
from stlab.regions import CANONICAL_SPANS, CombineDetail, FlatBundle, canonical_flat, combine, verify_regions

from harness import Job, batch, interleave, microsample

FULL = {
    "cover": [(n, 1, r) for n in (600, 800, 1000, 1200, 1400) for r in (1, 2, 4)]
    + [(700, 1, 1), (900, 1, 2), (1100, 1, 4), (1300, 1, 1), (700, 1, 2), (900, 1, 4), (1100, 1, 1)],
    "large": [(30000, 1, 4)],
    "perched": [(2, 40), (3, 30), (4, 25), (2, 30), (3, 40), (4, 30)],
    # (clusters, anchors per cluster, tilted); each bundle is combined at r = 2 and 3
    "regions": [(2, 85, True), (3, 85, False), (3, 85, True)],
    "r": (2, 3),
}
TINY = {
    "cover": [(40, 1, 1), (40, 1, 2)],
    "large": [(80, 1, 1)],
    "perched": [(2, 3)],
    "regions": [(2, 27, True)],
    "r": (1,),
}


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def points_text(n: int, d: int, rng: random.Random) -> str:
    """A points file of n distinct dyadic points in a box of side ~3n^(1/d).

    Coordinates are an integer plus a distinct odd multiple of 2^-20,
    written straight from integers as "p/1048576".
    """
    span = 3 * n if d == 1 else int(3 * n ** (1 / d))
    rows, seen, t = [], set(), 0
    while len(rows) < n:
        p = tuple(rng.randint(0, span) * 2**20 + 2 * (t + i) + 1 for i in range(d))
        t += d
        if p not in seen:
            seen.add(p)
            rows.append("p " + " ".join("%d/1048576" % x for x in p))
    return "\n".join(["stlab points 1", "dim %d" % d] + rows) + "\n"


def cubes_digest(cubes, amap) -> str:
    """Digest of a cover's cube list and axis map, independent of any file format."""
    h = hashlib.sha256(repr((amap.perm, amap.signs)).encode())
    for c in cubes:
        h.update(repr((tuple((x.numerator, x.denominator) for x in c.corner),
                       (c.side.numerator, c.side.denominator))).encode())
    return h.hexdigest()[:16]


def _cover_job(key: str, text: str, n: int, d: int, r: int) -> Job:
    def run(tr):
        pts, dim = tr.call("fileio.load_points", fileio.load_points, io.StringIO(text))
        norm, _ = tr.call("covering.normalize_points", normalize_points, pts)
        res = tr.call("covering.run_covering", run_covering, norm, dim, 1, r)
        out = tr.call("fileio.dump_cover", fileio.dump_cover, norm, res, dim, 1, r)
        cf = tr.call("fileio.load_cover", fileio.load_cover, io.StringIO(out))
        rep = tr.call("covering.verify_cover", verify_cover, cf.points, cf.result, cf.kappa, cf.r)
        graph = tr.call("covering.build_shift_graph", build_shift_graph, cf.result.K, cf.kappa)
        return pts, norm, res, out, cf, rep, graph

    def judge(raw):
        pts, norm, res, out, cf, rep, graph = raw
        problems = []
        if len(pts) != n:
            problems.append("loaded %d of %d points" % (len(pts), n))
        if not rep.all_ok:
            problems.append("verify_cover failed: %r" % (rep,))
        if cf.result.K != res.K or cf.points != norm or cf.result.axis_map != res.axis_map:
            problems.append("dump_cover/load_cover round trip changed the cover")
        if len(graph.edges) != rep.edges:
            problems.append("shift graph has %d edges, verifier saw %d" % (len(graph.edges), rep.edges))
        if max(graph.in_degrees(), default=0) > 1:
            problems.append("shift-graph in-degree above one")
        st = res.stats
        counts = {
            "covering.phases": len(st.phases),
            "covering.cells_processed": sum(ps.processed for ps in st.phases),
            "covering.selected": st.s,
            "covering.green": st.g,
            "covering.shift_edges": len(graph.edges),
            "fileio.bytes": len(text) + 2 * len(out),  # points read, cover written and read
        }
        answer = {"k": len(res.K), "edges": len(graph.edges), "digest": cubes_digest(res.K, res.axis_map)}
        return answer, problems, counts

    return Job(key, "cover", run, judge)


def perched_family(d: int, pairs: int, rng: random.Random):
    """Non-overlapping cubes whose shift graph is exactly {big_i -> small_i}.

    A big cube of side 30 sits on a jittered lattice (lateral pitch 40,
    vertical pitch 100).  bott(big) is its middle third on the bottom
    face; shifted down by 1 it spills below the face.  The small cube
    (side h in 5..9) hangs at gap g < 1 - h/10 under the face, inside
    the footprint of bott(big), so its shifted copy meets the spill and
    the corridor between them is empty.  With h >= 5 the small cube's
    own spill cannot reach its big cube, and the pitches keep distinct
    pairs apart.
    """
    side = Fraction(30)
    cubes, expect = [], []
    per_row = 4
    for i in range(pairs):
        x, lat = i, []
        for _ in range(1, d):
            lat.append(Fraction(40 * (x % per_row) + rng.randint(0, 4)))
            x //= per_row
        c0 = Fraction(100 * x + rng.randint(0, 9))
        h = Fraction(rng.randint(5, 9))
        gap = (1 - h / 10) * Fraction(rng.randint(1, 9), 10)
        small_lat = tuple(l + 10 + Fraction(rng.randint(0, 10), 10) * (10 - h) for l in lat)
        cubes.append(FreeCube((c0,) + tuple(lat), side))
        cubes.append(FreeCube((c0 - gap - h,) + small_lat, h))
        expect.append((2 * i, 2 * i + 1))
    order = list(range(len(cubes)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    cubes = [cubes[old] for old in order]
    edges = sorted((where[a], where[b]) for a, b in expect)
    return cubes, edges


def cover_text(cubes, d: int) -> str:
    head = ["stlab cover 1", "dim %d" % d, "kappa 1", "r 1",
            "axismap " + " ".join(map(str, range(d))) + " " + " ".join("1" * d)]
    body = ["cube " + " ".join(_fmt(x) for x in c.corner) + " " + _fmt(c.side) for c in cubes]
    return "\n".join(head + body) + "\n"


def _perched_job(key: str, text: str, expect) -> Job:
    def run(tr):
        cf = tr.call("fileio.load_cover", fileio.load_cover, io.StringIO(text))
        return tr.call("covering.build_shift_graph", build_shift_graph, cf.result.K, cf.kappa)

    def judge(graph):
        problems = [] if graph.edges == expect else [
            "edges %r differ from the perched pairs %r" % (graph.edges[:4], expect[:4])
        ]
        counts = {"covering.shift_edges": len(graph.edges), "fileio.bytes": len(text)}
        h = hashlib.sha256(repr(graph.edges).encode()).hexdigest()[:16]
        return {"edges": len(graph.edges), "digest": h}, problems, counts

    return Job(key, "perched", run, judge)


def clustered_bundle(clusters: int, per: int, tilt: bool, rng: random.Random):
    """Anchors in well separated clusters, two flats per anchor and family.

    Untilted flats are exactly canonical.  A tilted flat direction is a
    canonical span vector plus at most 1/100 of each complementary span
    vector, about a degree off, well inside the 10 degrees `combine`
    allows.
    """
    anchors, seen, counter = [], set(), 0
    centers = set()
    while len(centers) < clusters:
        centers.add(tuple(1000 * rng.randint(-5, 5) for _ in range(4)))
    for center in sorted(centers):
        got = 0
        while got < per:
            p = tuple(Fraction((c + rng.randint(0, 6)) * 2**20 + 2 * (counter + i) + 1, 2**20)
                      for i, c in enumerate(center))
            counter += 4
            if p not in seen:
                seen.add(p)
                anchors.append(p)
                got += 1

    def flat(anchor, family: int) -> Flat2:
        if not tilt:
            return canonical_flat(anchor, family)
        (u1, u2), (w1, w2) = CANONICAL_SPANS[family], CANONICAL_SPANS[1 - family]
        t = [rng.randint(-100, 100) for _ in range(4)]
        d1 = [Fraction(10**4 * a + t[0] * b + t[1] * c, 10**4) for a, b, c in zip(u1, w1, w2)]
        d2 = [Fraction(10**4 * a + t[2] * b + t[3] * c, 10**4) for a, b, c in zip(u2, w1, w2)]
        return Flat2(RVector4.of(anchor), RVector4.of(d1), RVector4.of(d2))

    fam1 = [[flat(a, 0) for _ in range(2)] for a in anchors]
    fam2 = [[flat(a, 1) for _ in range(2)] for a in anchors]
    return anchors, FlatBundle(list(anchors), fam1, fam2)


MARGIN = Fraction(1, 10**9)  # relative margin for tilted flats, as in the acceptance gate


def _regions_job(key: str, anchors, bundle, r: int, margin: Fraction) -> Job:
    def run(tr):
        detail = CombineDetail()
        asg = tr.call("regions.combine", combine, anchors, bundle, r, detail)
        rep = tr.call("regions.verify_regions", verify_regions, asg, bundle, r, margin)
        return detail, asg, rep

    def judge(raw):
        detail, asg, rep = raw
        problems = []
        if not rep.all_ok:
            problems.append("verify_regions failed")
        if not asg or detail.kept != len(asg):
            problems.append("kept=%d for %d assignments" % (detail.kept, len(asg)))
        tests = 0
        for a in asg:
            ids = a.point_ids
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    p, q = ids[i], ids[j]
                    tests += len(bundle.family1[p]) * len(bundle.family2[q])
                    tests += len(bundle.family1[q]) * len(bundle.family2[p])
        counts = {"regions.cover_k": detail.cover_k, "regions.kept": detail.kept,
                  "regions.crossing_tests": tests}
        return sorted(list(a.point_ids) for a in asg), problems, counts

    return Job(key, "regions", run, judge, inputs=bundle)


def make_jobs(seed: int, tiny: bool = False) -> List[Job]:
    sizes = TINY if tiny else FULL
    rng = random.Random("cover:%d" % seed)
    small = [_cover_job("cover.%02d" % i, points_text(n, d, rng), n, d, r)
             for i, (n, d, r) in enumerate(sizes["cover"])]
    others = [_cover_job("large.%02d" % i, points_text(n, d, rng), n, d, r)
              for i, (n, d, r) in enumerate(sizes["large"])]
    for i, (d, pairs) in enumerate(sizes["perched"]):
        cubes, expect = perched_family(d, pairs, rng)
        others.append(_perched_job("perched.%02d" % i, cover_text(cubes, d), expect))
    for i, (clusters, per, tilt) in enumerate(sizes["regions"]):
        anchors, bundle = clustered_bundle(clusters, per, tilt, rng)
        margin = MARGIN if tilt else Fraction(0)
        others += [_regions_job("regions.%02d.r%d" % (i, r), anchors, bundle, r, margin)
                   for r in sizes["r"]]
    rng.shuffle(others)
    return interleave(small, others)


def microsamples(jobs: List[Job]) -> Dict[str, float]:
    """Per-call flat intersection cost on this workload's bundles."""
    pairs = []
    for job in jobs:
        if job.kind == "regions":
            b = job.inputs
            n = len(b.anchors)
            pairs += [(b.family1[i][0], b.family2[(i * 7 + 1) % n][0]) for i in range(n)]
    return {"exact.flat_intersect_us": microsample(batch(flat_intersect, pairs[:200]))}
