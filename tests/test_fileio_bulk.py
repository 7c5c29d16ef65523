"""The bulk row parse of fileio.load_points and load_cover.

Differential tests: on spliced and mutated files, odd tokens, odd
whitespace, comments and files of many chunks, the loaders return what
the per-record loaders in _oracles return, or raise the same exception
type with the same message.  And valid files never leave the bulk path:
with ``fileio._ratio`` made to raise, loading them still succeeds.
"""

import io
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlab import fileio
from stlab.covering import CoverResult, CoverStats, FreeCube, SignedPermutation

from _oracles import oracle_load_cover, oracle_load_points

LOADERS = {
    "points": (fileio.load_points, oracle_load_points),
    "cover": (fileio.load_cover, oracle_load_cover),
}

rationals = st.one_of(
    st.integers(-10**6, 10**6).map(F),
    st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**12)),
)
positive = st.builds(F, st.integers(1, 10**12), st.integers(1, 10**12))
# tokens int() accepts or rejects around a "/"
ODD_TOKENS = [
    "+1", "1_0", "-0", "0/-5", "1/", "/2", "1/2/3", "\u0661\u0662", "\u0663/-\u0664", "1/0",
    "0", "-3/4", "x", "p", "cube", "1__0", "_1", "1e3", "1.5", "\u00bd", "", "/", "+-1",
]
SEPARATORS = [" ", "  ", "\t", "\x0c", "\r", "\u2028", " \u00a0 ", "\x85"]
MUTATIONS = ["token", "separators", "insert", "delete", "char", "blank"]


def outcome(load, text, chunk=None):
    """What load returns on text, or the type and message of what it
    raises; chunk, if given, stands in for fileio.CHUNK."""
    try:
        if chunk is None:
            return load(io.StringIO(text))
        with mock.patch.object(fileio, "CHUNK", chunk):
            return load(io.StringIO(text))
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def valid_lines(draw, kind):
    """The lines of a valid <kind> file of dimension 1..4, each with its "\\n"."""
    d = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[rationals] * d), max_size=12))
    if kind == "points":
        text = fileio.dump_points(pts, d)
    else:
        cubes = draw(st.lists(st.builds(FreeCube, st.tuples(*[rationals] * d), positive), max_size=12))
        perm = tuple(draw(st.permutations(range(d))))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
        amap = SignedPermutation(perm, tuple(signs))
        text = fileio.dump_cover(pts, CoverResult(cubes, amap, CoverStats()), d, 1, 2)
    return d, text.splitlines(keepends=True)


@st.composite
def mutated(draw, kind):
    """A valid <kind> file, then a few splices and mutations of its lines."""
    d, lines = draw(valid_lines(kind))
    value = st.one_of(rationals.map(fileio.format_rational), st.sampled_from(ODD_TOKENS))
    sep = st.sampled_from(SEPARATORS)
    for op in draw(st.lists(st.sampled_from(MUTATIONS), max_size=4)):
        at = draw(st.integers(0, len(lines)))
        if op == "insert":
            name = draw(st.sampled_from(["p", "cube", "dim", "kappa", "r", "axismap", "box"]))
            vals = draw(st.lists(value, min_size=max(d - 1, 0), max_size=d + 2))
            lines.insert(at, " ".join([name] + vals) + "\n")
        elif op == "blank":
            lines.insert(at, draw(st.sampled_from(["\n", "  \n", "\t\n", "# note\n", "\u2028\n", " p 1\n"])))
        elif lines[1:] and op in ("token", "separators", "delete"):
            i = 1 + at % (len(lines) - 1)  # not the header
            toks = lines[i].split()
            if op == "delete":
                del lines[i]
            elif op == "token" and toks:
                toks[draw(st.integers(0, len(toks) - 1))] = draw(value)
                lines[i] = " ".join(toks) + "\n"
            elif toks:
                lines[i] = draw(sep).join(toks) + draw(st.sampled_from(["\n", "\r\n", " \n", " # c\n"]))
        elif op == "char":
            text = "".join(lines)
            pos = draw(st.integers(0, len(text)))
            ch = draw(st.sampled_from("0123456789/-+_ \t\n#px\u2028\x0c\r"))
            lines = (text[:pos] + ch + text[pos:]).splitlines(keepends=True)
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\n")  # a last line with no newline
    return text


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_bulk_loaders_match_per_record_loaders(kind, data):
    text = data.draw(mutated(kind))
    chunk = data.draw(st.sampled_from([1, 16, 64, 200, fileio.CHUNK]))
    load, oracle = LOADERS[kind]
    assert outcome(load, text, chunk) == outcome(oracle, text)


BASE = {
    "points": fileio.dump_points([(F(1, 2), F(-3)), (F(5), F(7, 4)), (F(0), F(1, 3))], 2),
    "cover": fileio.dump_cover(
        [(F(1, 2), F(-3)), (F(5), F(7, 4))],
        CoverResult(
            [FreeCube((F(0), F(1, 2)), F(1)), FreeCube((F(3), F(4)), F(1, 3))],
            SignedPermutation((1, 0), (1, -1)),
            CoverStats(),
        ),
        2, 1, 1,
    ),
}


def variants(kind, change):
    """BASE[kind] with one line at a time replaced by change(its tokens)."""
    lines = BASE[kind].splitlines(keepends=True)
    for i in range(1, len(lines)):
        yield "".join(lines[:i] + [change(lines[i].split())] + lines[i + 1 :])


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("tok", ODD_TOKENS)
def test_each_odd_token_in_each_record(kind, tok):
    load, oracle = LOADERS[kind]
    for j in (1, 2, 3):
        for text in variants(kind, lambda toks: " ".join(toks[:j] + [tok] + toks[j + 1 :]) + "\n"):
            assert outcome(load, text) == outcome(oracle, text)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("sep", SEPARATORS)
def test_each_separator_in_each_record(kind, sep):
    load, oracle = LOADERS[kind]
    for change in (
        lambda toks: sep.join(toks) + "\n",
        lambda toks: sep + " ".join(toks) + "\n",
        lambda toks: " ".join(toks) + sep + "\n",
    ):
        for text in variants(kind, change):
            assert outcome(load, text) == outcome(oracle, text)


# runs whose tokens fall on the stride of good rows though their lines do not
@pytest.mark.parametrize(
    "body",
    [
        " p 1 2 p 3 4\n \n",
        " p 1 2 p 3 4\n\t\n p 5 6\n",
        "p 1 2 p 3 4\n\n",
        "p 1 2 p\np 3 4\n",
        "p 1 2\np\x0c3 4\n",
        "p 1 2 # 3\np 4 5\n",
        "p 1 2 #\np 4\n",
        " p 1 2\n p 3 4\n",
        "p 1 2\rp 3 4\n",
        "p 1 2\u2028p 3 4\n",
    ],
)
def test_rows_off_their_lines(body):
    text = "stlab points 1\ndim 2\n" + body
    assert outcome(fileio.load_points, text) == outcome(oracle_load_points, text)


def long_text(kind, n, fault=None, at=None):
    """A valid <kind> file of n "p a/1048576" rows (and, for a cover, n
    cube rows after them), more than one chunk long; fault, if given,
    replaces row at."""
    rng = random.Random(n)
    rows = ["p %d/1048576" % (rng.randint(0, 3 * n) * 2**20 + 2 * t + 1) for t in range(n)]
    if kind == "points":
        head = ["stlab points 1", "dim 1"]
    else:
        head = ["stlab cover 1", "dim 1", "kappa 1", "r 1", "axismap 0 1"]
        rows += ["cube %d %d/%d" % (3 * t, rng.randint(1, 9), rng.randint(1, 4)) for t in range(n)]
    if fault is not None:
        rows[at] = fault
    return "\n".join(head + rows) + "\n"


@pytest.mark.parametrize(
    "kind,fault,at,message",
    [
        ("points", "p 1/0", 4000, "bad rational '1/0'"),
        ("points", "p 1 2", 3500, "point record before dim or wrong arity"),
        ("points", "q 1", 4999, "bad points record 'q 1'"),
        ("cover", "p x", 4500, "bad rational 'x'"),
        ("cover", "cube 0", 7000, "cube record before dim or wrong arity"),
        ("cover", "cube 0 1/-2", 9000, "cube side must be positive"),
        ("cover", "cube 0 0", 9999, "cube side must be positive"),
    ],
)
def test_fault_in_a_later_chunk(kind, fault, at, message):
    text = long_text(kind, 5000, fault, at)
    assert text.index(fault) > fileio.CHUNK
    load, oracle = LOADERS[kind]
    got = outcome(load, text)
    assert got == outcome(oracle, text) and got[1] == message


def no_ratio(tok):
    raise AssertionError("token %r left the bulk path" % tok)


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), st.lists(st.tuples(*[rationals] * d)))))
def test_valid_points_take_the_bulk_path(case):
    d, pts = case
    text = fileio.dump_points(pts, d)
    with mock.patch.object(fileio, "_ratio", no_ratio):
        loaded, dim = fileio.load_points(io.StringIO(text))
    assert (list(loaded), dim) == (pts, d)


@given(valid_lines("cover"))
def test_valid_covers_take_the_bulk_path(case):
    _, lines = case
    text = "".join(lines)
    with mock.patch.object(fileio, "_ratio", no_ratio):
        got = fileio.load_cover(io.StringIO(text))
    assert got == oracle_load_cover(io.StringIO(text))


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_benchmark_shaped_files_take_the_bulk_path(kind):
    text = long_text(kind, 5000)
    load, oracle = LOADERS[kind]
    with mock.patch.object(fileio, "_ratio", no_ratio):
        got = load(io.StringIO(text))
    assert got == oracle(io.StringIO(text))
