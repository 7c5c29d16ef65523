"""Argv fuzz for the CLI exit-code contract.

Argument lists are built from ``cli.build_parser()``'s own option table
and run in-process through ``cli.main``.  Whatever the tokens, the exit
code is 0, 1 or 2; only argparse's own ``SystemExit(2)`` may escape;
and an exit 2 that ``main`` returns prints exactly one stderr line.
Regions files with fuzzed anchor ids keep the same contract.
"""

import argparse
import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlab import cli, fileio
from stlab.covering import normalize_points, run_covering
from stlab.generators import gen_bundle_fixture, gen_erdos
from stlab.regions import RegionAssignment, combine

F = Fraction
FILE_DESTS = {"infile", "bundle", "regions", "cover", "system"}
# small integers keep every generator and engine call cheap
INTS = st.integers(-5, 12).map(str)
FLOATS = st.sampled_from("-1 0 0.5 5 9.5 45 90 1e9 nan inf -inf x".split())
WORDS = st.sampled_from(
    ["0", "1", "-1", "2", "1/2", "-3/4", "1/0", "1e-9", "1e70", "nan", "inf", "x", "",
     "1,2", "3/4,-1/2", "1,2,3", "1;2;3", "0;1", "1;2,3,4", "0;1;2;3,1"]
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One small file of every kind, a malformed one and a missing path."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    pts = [(F(k), F((7 * k) % 23)) for k in range(12)]
    norm, _ = normalize_points(pts)
    anchors, bundle = gen_bundle_fixture(27, 1, 0.0, seed=2)
    texts = {
        "system.txt": fileio.dump_system(*gen_erdos(2)),
        "points.txt": fileio.dump_points(pts, 2),
        "bundle.txt": fileio.dump_bundle(bundle),
        "cover.txt": fileio.dump_cover(norm, run_covering(norm, 2, 1, 1), 2, 1, 1),
        "regions.txt": fileio.dump_regions(combine(anchors, bundle, 1), 1),
        "bad.txt": "stlab points 1\ndim 2\np 1/x 0\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    return root, sorted(str(root / name) for name in texts) + [str(root / "missing.txt")]


def _subcommands():
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(sub.choices.items())


def _token(action, paths, out):
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.dest in FILE_DESTS:
        return st.sampled_from(paths)
    if action.dest == "out":
        return st.just(out)
    if action.type is int:
        return INTS
    if action.type is float:
        return FLOATS
    return WORDS


@st.composite
def argvs(draw, paths, out):
    name, parser = draw(st.sampled_from(_subcommands()))
    argv = [name]
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:  # positional: optional ones may stop the list
            if action.nargs == "?" and not draw(st.booleans()):
                break
            argv.append(draw(_token(action, paths, out)))
            continue
        # "--in" is always given: left out, it would read stdin
        if not (action.required or action.dest == "infile" or draw(st.booleans())):
            continue
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(draw(_token(action, paths, out)))
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_argv_fuzz_exit_contract(files, data):
    root, paths = files
    argv = data.draw(argvs(paths, str(root / "out.txt")), label="argv")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the argv
            assert exc.code == 2
            return
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().count("\n") == 1, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.lists(st.integers(-3, 30), max_size=4), min_size=1, max_size=4))
def test_cli_verify_regions_anchor_id_fuzz(files, ids):
    # negative, past the 27 anchors and repeated ids: a verdict or one
    # error line, never a traceback
    root, _ = files
    asgs, r = fileio.load_regions(io.StringIO((root / "regions.txt").read_text()))
    fuzzed = [RegionAssignment(asgs[k % len(asgs)].region, tuple(i)) for k, i in enumerate(ids)]
    path = root / "fuzzed-regions.txt"
    path.write_text(fileio.dump_regions(fuzzed, r))
    argv = ["verify", "--regions", str(path), "--bundle", str(root / "bundle.txt")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().count("\n") == 1, err.getvalue()
    if any(i < 0 for row in ids for i in row):
        assert code == 2 and "negative anchor id" in err.getvalue()
