import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from stlab import fileio
from stlab.cli import main
from stlab.exact import ComplexLine, ComplexPoint, GaussianRational, incident, line_through
from stlab.generators import gen_erdos, gen_random_system
from stlab.incidence import (
    DuplicateInput,
    RichLine,
    TooSmallPattern,
    ZeroElement,
    _exceeds_st_bound,
    _scaled,
    beck_stats,
    check_rich_bound,
    count_incidences,
    count_indexed,
    count_naive,
    rich_lines,
    similar_copies,
    sum_product,
)

GR = GaussianRational


def grid_points(w, h):
    return [
        ComplexPoint(GR(x), GR(y)) for x in range(1, w + 1) for y in range(1, h + 1)
    ]


def oracle_count(points, lines):
    # dumb reference loop, kept separate from the engine's own sweep
    return sum(1 for l in lines for p in points if incident(p, l))


def oracle_pair_lines(points):
    lines = set()
    for p, q in itertools.combinations(points, 2):
        lines.add(line_through(p, q))
    counts = {}
    for l in lines:
        counts[l] = sum(1 for p in points if incident(p, l))
    return counts


def test_count_examples():
    p = ComplexPoint(GR(0), GR(1))
    l = ComplexLine.slanted(GR(2), GR(1))
    assert count_incidences([p], [l]).I == 1
    pts, lines = gen_erdos(2)
    assert count_incidences(pts, lines).I == oracle_count(pts, lines) == 16
    assert count_incidences(pts, []).I == 0
    # non-integral system: halves and thirds (common denominator L = 6),
    # slopes from Gaussian division
    F = Fraction
    pts = [
        ComplexPoint(GR(F(1, 2), F(1, 3)), GR(F(-2, 3), 1)),
        ComplexPoint(GR(F(3, 2), F(-1, 3)), GR(F(1, 6), F(5, 2))),
        ComplexPoint(GR(F(-1, 3), 2), GR(F(7, 2), F(-4, 3))),
        ComplexPoint(GR(F(1, 2), F(1, 3)), GR(3, F(1, 6))),
        ComplexPoint(GR(5), GR(F(1, 2))),
    ]
    lines = [line_through(pts[i], pts[j]) for i, j in ((0, 1), (1, 2), (0, 2), (2, 4))]
    lines.append(line_through(pts[0], pts[3]))  # vertical through two points
    assert lines[-1].is_vertical and lines[0].a.im != 0 and lines[0].a.re.denominator > 1
    lines.append(ComplexLine.vertical(GR(F(1, 7), 0)))  # L*c = 6/7 is unreachable
    lines.append(ComplexLine.slanted(GR(1), GR(F(1, 5))))  # D*L*b = 6/5 is not integral
    lines.append(ComplexLine.slanted(GR(F(2, 3), F(-1, 4)), GR(0)))  # D = 12
    assert _scaled(pts, lines)[1][5:7] == [None, None]
    expect = oracle_count(pts, lines)
    assert expect == 10
    assert count_naive(pts, lines) == count_indexed(pts, lines) == expect
    assert count_incidences(pts, lines).I == expect


def test_duplicate_input_rejected():
    p = ComplexPoint(GR(1), GR(1))
    with pytest.raises(DuplicateInput):
        count_incidences([p, p], [])
    l = ComplexLine.vertical(GR(1))
    with pytest.raises(DuplicateInput):
        count_incidences([], [l, l])


def test_indexed_equals_naive_on_random_systems():
    for seed in range(30):
        n = 20 + (seed * 13) % 60
        e = 20 + (seed * 7) % 60
        pts, lines = gen_random_system(n, e, seed)
        expect = oracle_count(pts, lines)
        assert count_naive(pts, lines) == count_indexed(pts, lines) == expect


def test_rich_lines_grid():
    pts = grid_points(3, 3)
    counts = oracle_pair_lines(pts)
    expect3 = {l for l, c in counts.items() if c >= 3}
    got3 = rich_lines(pts, 3)
    assert {r.line for r in got3} == expect3
    assert len(got3) == 8  # 3 rows, 3 columns, 2 diagonals
    assert all(r.count == 3 for r in got3)
    # monotone in t, counts independent of t
    got2 = rich_lines(pts, 2)
    assert {r.line for r in got3} <= {r.line for r in got2}
    by_line = {r.line: r.count for r in got2}
    for r in got3:
        assert by_line[r.line] == r.count


def similarity_image_of_grid():
    # (z1, z2) -> (u z1 + v, w z2 + s) maps lines to lines, so the 3x3 grid's
    # rich lines carry over to Gaussian-rational coordinates and slopes
    u, v = GR(Fraction(1, 2), Fraction(1, 3)), GR(Fraction(-3), Fraction(5, 7))
    w, s = GR(Fraction(-2, 5), 1), GR(Fraction(1, 4), Fraction(-1, 2))
    return [ComplexPoint(u * p.z1 + v, w * p.z2 + s) for p in grid_points(3, 3)]


def test_rich_lines_similarity_image_of_grid():
    pts = similarity_image_of_grid()
    counts = oracle_pair_lines(pts)
    for t, size in ((2, 20), (3, 8)):
        got = rich_lines(pts, t)
        assert {r.line: r.count for r in got} == {l: c for l, c in counts.items() if c >= t}
        assert len(got) == size


def test_rich_lines_examples():
    collinear = [ComplexPoint(GR(k), GR(2 * k)) for k in range(3)]
    rich = rich_lines(collinear, 2)
    assert len(rich) == 1 and rich[0].count == 3
    general = [ComplexPoint(GR(0), GR(0)), ComplexPoint(GR(1), GR(0)), ComplexPoint(GR(0), GR(1))]
    assert rich_lines(general, 3) == []
    # a complex line meets its points at complex parameters: z1 = 0, 1, i, 1+i
    a, b = GR(Fraction(1, 3), Fraction(2, 3)), GR(Fraction(-1, 2), 1)
    params = [GR(0), GR(1), GR(0, 1), GR(1, 1)]
    pts = [ComplexPoint(z, a * z + b) for z in params] + [ComplexPoint(GR(2), GR(0, 1))]
    rich = rich_lines(pts, 3)
    assert [(r.line, r.count) for r in rich] == [(ComplexLine.slanted(a, b), 4)]
    counts = oracle_pair_lines(pts)
    assert {r.line: r.count for r in rich_lines(pts, 2)} == counts


def oracle_rich_lines(points, t):
    # the Fraction route: join every pair, collect the points per line, and
    # sort by the canonical key
    on = {}
    for p, q in itertools.combinations(points, 2):
        on.setdefault(line_through(p, q), set()).update((p, q))
    rich = [RichLine(l, len(s)) for l, s in on.items() if len(s) >= t]
    return sorted(rich, key=lambda r: r.line.sort_key())


def collinear_runs(seed, coordinate, n):
    # collinear runs on slanted lines and on verticals, then free points
    rng = random.Random(seed)

    def g():
        return GR(coordinate(rng), coordinate(rng))

    pts = {}
    for _ in range(3):
        a, b = g(), g()
        for _ in range(rng.randint(3, 6)):
            z = g()
            pts[ComplexPoint(z, a * z + b)] = None
    for _ in range(2):
        z = g()
        for _ in range(rng.randint(3, 5)):
            pts[ComplexPoint(z, g())] = None
    while len(pts) < n:
        pts[ComplexPoint(g(), g())] = None
    return list(pts)


def mixed_system(seed):
    return collinear_runs(seed, lambda rng: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7))), 40)


@pytest.mark.parametrize("seed", range(6))
def test_rich_lines_order_matches_line_through_route(seed):
    pts = mixed_system(seed)
    shuffled = random.Random(seed).sample(pts, len(pts))
    for t in (2, 3, 4):
        expect = oracle_rich_lines(pts, t)
        assert rich_lines(pts, t) == expect
        assert rich_lines(shuffled, t) == expect
    assert any(r.line.is_vertical and r.count >= 3 for r in expect)


EPS = Fraction(1, 2**60)


def float_tie_points():
    # slopes, intercepts and vertical abscissae that tie in float but
    # differ exactly, in both the real and the imaginary part
    near = [GR(1), GR(1 + EPS), GR(1, 1), GR(1, 1 + EPS), GR(-1 - EPS, -1)]
    pts = {}
    for a in near:
        for b in near + [GR(EPS), GR(0, -EPS)]:
            for x in (GR(0), GR(2), GR(0, 3)):
                pts[ComplexPoint(x, a * x + b)] = None
    for c in near:
        for y in (GR(5), GR(7, 1)):
            pts[ComplexPoint(c, y)] = None
    return list(pts)


def extreme_points(scale, seed):
    # coordinates mostly a few units of scale: 10**400 overflows float, and
    # 10**-400 underflows to 0.0
    def coordinate(rng):
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) * (scale if rng.random() < 0.7 else 1)

    return collinear_runs(seed, coordinate, 30)


def coordinates(rich):
    for r in rich:
        yield from (r.line.b.re, r.line.b.im)
        if not r.line.is_vertical:
            yield from (r.line.a.re, r.line.a.im)


def overflows(x):
    try:
        float(x)
    except OverflowError:
        return True
    return False


HARD_CASES = {
    "float-ties": float_tie_points,
    "huge": lambda: extreme_points(10**400, 1),
    "tiny": lambda: extreme_points(Fraction(1, 10**400), 2),
}


@pytest.mark.parametrize("case", sorted(HARD_CASES))
def test_rich_lines_float_first_order_hard_cases(case):
    pts = HARD_CASES[case]()
    for t in (2, 3, 4):
        assert rich_lines(pts, t) == oracle_rich_lines(pts, t)
    rich = rich_lines(pts, 2)
    # the inputs really reach the float ties, the overflow and the underflow
    xs = list(coordinates(rich))
    if case == "float-ties":
        slanted = [r.line for r in rich if not r.line.is_vertical]
        for part in (lambda l: l.a.re, lambda l: l.a.im, lambda l: l.b.re, lambda l: l.b.im):
            assert len({float(part(l)) for l in slanted}) < len({part(l) for l in slanted})
        verticals = [r.line.b for r in rich if r.line.is_vertical]
        assert len({complex(b) for b in verticals}) < len(verticals)
    elif case == "huge":
        assert any(overflows(x) and x > 0 for x in xs) and any(overflows(x) and x < 0 for x in xs)
    else:
        assert any(x != 0 and not overflows(x) and float(x) == 0.0 for x in xs)


# (case, t) -> sha256 prefix of ``stlab rich`` output, recorded before rich
# lines were built from integer slope keys
PINNED_RICH_CLI = {
    ("float-ties", 2): "616eae8dd69c72c7",
    ("float-ties", 3): "143a442620dae430",
    ("huge", 2): "374b630ce588949c",
    ("huge", 3): "c38abd72a0b3adab",
    ("tiny", 2): "9a3834a9a3d3375d",
    ("tiny", 3): "e10809cf4012445d",
}


@pytest.mark.parametrize("case,t", sorted(PINNED_RICH_CLI))
def test_cli_rich_hard_cases(case, t, tmp_path, capsys):
    pts = HARD_CASES[case]()
    sysfile = tmp_path / "sys.txt"
    fileio.write_atomic(str(sysfile), fileio.dump_system(pts, []))
    assert main(["rich", "--t", str(t), "--in", str(sysfile)]) == 0
    out = capsys.readouterr().out
    expect = oracle_rich_lines(pts, t)
    assert out.splitlines() == ["rich=%d t=%d n=%d" % (len(expect), t, len(pts))] + [
        "# count=%d %s" % (r.count, "V" if r.line.is_vertical else "S") for r in expect
    ]
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == PINNED_RICH_CLI[case, t]


# (system, t) -> number of rich lines and sha256 prefix of repr([(line, count)]),
# recorded before rich lines were built from integer slope keys
PINNED_RICH = {
    ("erdos4", 2): (3758, "9172bc72b7566908"),
    ("erdos4", 3): (686, "4df910bceaed2095"),
    ("similarity-image", 2): (20, "142cb19b5c67f1ed"),
    ("similarity-image", 3): (8, "8a68bd4eb623a676"),
}


@pytest.mark.parametrize("which,t", sorted(PINNED_RICH))
def test_rich_lines_pinned(which, t):
    pts = gen_erdos(4)[0] if which == "erdos4" else similarity_image_of_grid()
    rich = [(r.line, r.count) for r in rich_lines(pts, t)]
    assert (len(rich), hashlib.sha256(repr(rich).encode()).hexdigest()[:16]) == PINNED_RICH[which, t]


def test_beck_stats():
    pts = grid_points(3, 3)
    counts = oracle_pair_lines(pts)
    assert beck_stats(pts) == (len(counts), max(counts.values()))
    assert beck_stats(pts) == (20, 3)
    collinear = [ComplexPoint(GR(k), GR(k)) for k in range(5)]
    assert beck_stats(collinear) == (1, 5)
    assert beck_stats(collinear[:2]) == (1, 2)


@pytest.mark.parametrize("which", ["erdos4", "similarity-image"])
def test_beck_and_rich_bound_count_like_rich_lines(which):
    pts = gen_erdos(4)[0] if which == "erdos4" else similarity_image_of_grid()
    rich = rich_lines(pts, 2)
    assert beck_stats(pts) == (len(rich), max(r.count for r in rich))
    for t in range(2, 7):
        rep = check_rich_bound(pts, t, 8.0)
        assert rep.rich_count == len(rich_lines(pts, t))
        assert rep.violated == (rep.rich_count > rep.bound)


def test_check_bounds_erdos():
    pts, lines = gen_erdos(4)
    rep = count_incidences(pts, lines, C=1.0)
    assert rep.I == 4**4
    # I / (n^(2/3) e^(2/3)) is exactly 2^(-2/3)
    n, e = len(pts), len(lines)
    assert abs(rep.I / (n ** (2 / 3) * e ** (2 / 3)) - 2 ** (-2 / 3)) < 1e-12
    assert not count_incidences(pts, lines, C=1e70).violated
    one = count_incidences(
        [ComplexPoint(GR(0), GR(0))], [ComplexLine.slanted(GR(1), GR(0))], C=1e70
    )
    assert one.I == 1 and not one.violated


def st_tie_system():
    """8 x 162 grid points and the 972 lines y = s x + t, s < 12, t < 81,
    each through 8 of them: n = 1296, e = 972, I = 7776 and n e = 108^3,
    so C = 1/12 puts the ST bound exactly at I."""
    pts = [ComplexPoint(GR(x), GR(y)) for x in range(8) for y in range(162)]
    return pts, [ComplexLine.slanted(GR(s), GR(t)) for s in range(12) for t in range(81)]


def test_st_bound_tie_is_not_violated():
    # C = 1, n = e = 27: the bound is exactly 243, which floats read as
    # 242.99999999999997
    assert 27 ** (2 / 3) * 27 ** (2 / 3) + 162 < 243
    assert not _exceeds_st_bound(243, 27, 27, Fraction(1))
    assert _exceeds_st_bound(244, 27, 27, Fraction(1))
    # count_incidences decides through the same helper; here the float
    # bound reads 7775.999999999999
    pts, lines = st_tie_system()
    rep = count_incidences(pts, lines, C=Fraction(1, 12))
    assert (rep.I, rep.violated) == (7776, False) and rep.st_bound < 7776
    assert count_incidences(pts, lines, C=Fraction(1, 12) - Fraction(1, 10**30)).violated


def test_rich_bound_tie_is_not_violated():
    pts = grid_points(6, 6)
    n = len(pts)
    for t in (2, 3, 6):
        count = check_rich_bound(pts, t, 1).rich_count
        c = count / (Fraction(n * n, t**3) + Fraction(n, t))
        rep = check_rich_bound(pts, t, c)
        assert (rep.violated, rep.bound) == (False, float(count))
        assert check_rich_bound(pts, t, c - Fraction(1, 10**30)).violated


def test_cli_bounds_reads_constants_exactly(tmp_path, capsys):
    path = tmp_path / "tie.txt"
    path.write_text(fileio.dump_system(*st_tie_system()))
    assert main(["bounds", "--in", str(path), "--C", "1/12"]) == 0
    assert "I=7776 bound=7776 ratio=1 violated=False" in capsys.readouterr().out
    assert main(["bounds", "--in", str(path), "--C", "0.0833"]) == 1
    assert "violated=True" in capsys.readouterr().out


def test_rich_bound_shape():
    pts, _ = gen_erdos(3)
    rep = check_rich_bound(pts, 3, 8.0)
    assert rep.rich_count <= rep.bound


def g(x, y=0):
    return GR(Fraction(x), Fraction(y))


def brute_sum_product(vals):
    return (
        len({x + y for x in vals for y in vals}),
        len({x * y for x in vals for y in vals}),
    )


def test_sum_product_examples():
    s, p = sum_product([g(1), g(2), g(3)])
    assert (s, p) == brute_sum_product([g(1), g(2), g(3)]) == (5, 6)
    # geometric progression: products collapse to 2n-1
    s, p = sum_product([g(1), g(2), g(4)])
    assert (s, p) == brute_sum_product([g(1), g(2), g(4)]) == (6, 5)
    assert sum_product([g(1)]) == (1, 1)
    with pytest.raises(ZeroElement):
        sum_product([g(0), g(1)])
    s, p = sum_product([g(0), g(1)], allow_zero=True)
    assert s == 3


def test_sum_progression_property():
    rng = random.Random(2)
    for trial in range(20):
        n = rng.randint(2, 12)
        start = rng.randint(1, 9)
        step = rng.randint(1, 5)
        prog = [g(start + k * step) for k in range(n)]
        s, _ = sum_product(prog)
        assert s == 2 * n - 1
        scattered = sorted({rng.randint(1, 500) for _ in range(n)})
        s2, _ = sum_product([g(v) for v in scattered])
        assert s2 >= 2 * len(scattered) - 1


def brute_similar_triangles(pattern_dists, ground):
    # every 3-subset, compared by squared-distance ratios
    hits = 0
    for s in itertools.combinations(ground, 3):
        d = sorted(
            ((a - b).abs2() for a, b in itertools.combinations(s, 2))
        )
        base = sorted(pattern_dists)
        # similar iff d is a common rational multiple of the pattern
        if all(d[i] * base[0] == d[0] * base[i] for i in range(3)):
            hits += 1
    return hits


def is_equilateral(a, b, c):
    # exact characterization: (a + wb + w^2 c)(a + w^2 b + wc) = 0 for the
    # primitive cube root w, which expands to a rational identity
    return a * a + b * b + c * c == a * b + b * c + c * a


def test_no_equilateral_in_grid():
    # an equilateral triangle has no Gaussian-rational coordinates, so the
    # zero count is certified by the exact subset sweep
    grid = [g(x, y) for x in range(3) for y in range(3)]
    assert sum(1 for s in itertools.combinations(grid, 3) if is_equilateral(*s)) == 0


def test_similar_copies_examples():
    grid = [g(x, y) for x in range(3) for y in range(3)]
    # segment pattern: every 2-subset is a copy
    for n in (2, 5, 9):
        ground = grid[:n]
        assert similar_copies([g(0), g(1)], ground) == n * (n - 1) // 2
    # identity copy always counted
    tri = [g(0), g(1), g(0, 1)]
    assert similar_copies(tri, tri) >= 1
    with pytest.raises(TooSmallPattern):
        similar_copies([g(0)], grid)


def test_similar_copies_right_triangle_grid_oracle():
    grid = [g(x, y) for x in range(3) for y in range(3)]
    tri = [g(0), g(1), g(0, 1)]  # isoceles right triangle
    pattern_dists = sorted((a - b).abs2() for a, b in itertools.combinations(tri, 2))
    assert similar_copies(tri, grid) == brute_similar_triangles(pattern_dists, grid)


def test_similar_invariance_under_common_similarity():
    rng = random.Random(7)
    pattern = [g(0), g(2), g(1, 1)]
    ground = [g(x, y) for x in range(4) for y in range(2)]
    base = similar_copies(pattern, ground)
    u = GR(Fraction(1, 2), Fraction(1, 3))
    v = GR(Fraction(-3), Fraction(5, 7))
    assert base == similar_copies([u * z + v for z in pattern], [u * z + v for z in ground])
    assert base > 0
