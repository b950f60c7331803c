"""Whole-CLI totality: ``cli.main`` run in process over argv drawn from the parser.

Every subcommand is drawn with its positionals and a random subset of its
options, over small generated input files, files that are broken on
purpose (missing, a directory, not UTF-8, a mutated grammar) and mutated
values; a quarter of the argvs then lose, repeat or gain a token (a stray
``--cap-cells`` is an unknown flag). The work cap ``GG_CAP_CELLS`` is always
small, so no example does real work. Whatever the argv, the command must
exit 0, 1 or 2 without a traceback; exit 1 says why in one stderr line
(``access`` in one line per ``ERR`` it printed); and ``access`` prints one
stdout line per coordinate, each a code or ``ERR``.
"""

import contextlib
import io
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gridgram import Horiz, Slg1, Slg2, cli, dump_matrix, dump_slg1, dump_slg2
from gridgram.gen import random_matrix, random_slg1, random_slg2, random_slp1, random_slp2
from gridgram.reductions import OvInstance, dump_ov

_TEXTS = {
    "slp1": dump_slg1(random_slp1(3, 12, sigma=3, max_len=48)),
    "slg1": dump_slg1(random_slg1(4, 10, sigma=3, max_arity=4, max_len=48)),
    "slp2": dump_slg2(random_slp2(3, 12, sigma=3, max_cells=48)),
    "slg2": dump_slg2(random_slg2(4, 10, sigma=3, max_arity=4, max_cells=48)),
    "ov": dump_ov(OvInstance(((1, 0, 1), (0, 1, 0), (1, 1, 0)))),
    "mat": dump_matrix(random_matrix(5, 3, 4)),
    # valid grammars with a code no 64-bit cell holds: expanding them is refused
    "wide1": dump_slg1(Slg1([(1, 2), 1 << 64, 1], (1 << 64) + 1, 0)),
    "wide2": dump_slg2(Slg2([Horiz(1, 2), 1 << 64, 1], (1 << 64) + 1, 0)),
    "junk": "hello\n",
    "empty": "",
}
# every file the argvs name, as @name: the texts above, one that is not
# UTF-8, the mutated text of each example, one that does not exist, and
# the directory itself
_FILES = sorted(_TEXTS) + ["binary", "mut", "missing", "dir"]
_MUT_TOKENS = ["0", "1", "-1", "7", "x", ":", "N", "T", "H", "V", "L", "START",
               "SLG1", "SLG2", "\n", str(1 << 62), "1.5"]

PATH = st.sampled_from(_FILES).map(lambda f: ["@" + f])
OUT = st.sampled_from(["-", "@out", "@nodir/out", "@dir"])
INT = st.integers(-2, 12).map(str) | st.sampled_from(
    ["0", "64", "4096", "1e3", "1.5", "x", "", str(10 ** 20)])
FLOAT = st.sampled_from(["1", "0.5", "2", "0", "-1", "nan", "inf", "1e400", "x"])
COORDS = st.lists(st.sampled_from(["1", "2", "5", "3,2", "2,3", "1,1", "1,1,1", "0", "-1",
                                   "a", "2,x", "1.5", "99999", ","]), min_size=1, max_size=4)
QARG = st.integers(-1, 9).map(str) | st.sampled_from(["x", "1.5", "10,2", "1023", "99999"])
VIA = st.sampled_from(sorted({via for *_, chains in cli._QUERIES.values() for via in chains}
                             | {"bogus"}))
TAUS = st.lists(st.sampled_from(["2", "3", "8", "1", "0", "x", str(10 ** 9)]),
                min_size=1, max_size=3).map(",".join)
FLAG = None     # a store_true option


def _query(name):
    want = len(cli._QUERIES[name][0].split())
    return st.lists(QARG, min_size=want, max_size=want).map(lambda a: [name, *a]) \
        | st.lists(QARG, min_size=1, max_size=6).map(lambda a: [name, *a])


# subcommand -> (its positionals, each a strategy for a list of tokens;
#                its options -> strategy for the value, FLAG for none)
_COMMANDS = {
    "validate": ([PATH], {}),
    "expand": ([PATH], {"-o": OUT}),
    "access": ([PATH, COORDS], {"--tau": INT, "--epsilon": FLOAT, "--verify": FLAG}),
    "ov gen": ([INT.map(lambda v: [v]), INT.map(lambda v: [v])], {"--seed": INT, "-o": OUT}),
    "ov uniform": ([PATH], {"-o": OUT}),
    "ov reduce": ([PATH], {"-p": OUT, "-g": OUT}),
    "ov solve": ([PATH], {}),
    "query": ([PATH, st.sampled_from(sorted(cli._QUERIES)).flatmap(_query)], {"--via": VIA}),
    "reduce": ([st.sampled_from(["mark", "extmark", "pad"]).map(lambda v: [v]), PATH,
                OUT.map(lambda v: [v])], {"--sigma": INT}),
    "bench": ([PATH], {"--tau-list": TAUS, "--reps": INT, "--seed": INT}),
    "gen": ([st.sampled_from(sorted(cli._GEN)).map(lambda v: [v])],
            {"--rules": INT, "--sigma": INT, "--seed": INT, "--max-len": INT,
             "--max-cells": INT, "-o": OUT}),
}
_STRAY = ["--bogus", "-", "--", "-o", "--tau", "--cap-cells", "x", "1", "@slp1"]


@st.composite
def invocations(draw):
    """(argv with @name placeholders, the mutated file's text, GG_CAP_CELLS)."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    positionals, options = _COMMANDS[name]
    argv = name.split()
    for part in positionals:
        argv += draw(part)
    for opt, value in options.items():
        if draw(st.integers(0, 2)) == 0:
            argv += [opt] if value is FLAG else [opt, draw(value)]
    if draw(st.integers(0, 3)) == 0:
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, len(argv)))
            op = draw(st.sampled_from(["drop", "repeat", "insert"]))
            if op == "insert" or at == len(argv):
                argv.insert(at, draw(st.sampled_from(_STRAY)))
            elif op == "drop":
                del argv[at]
            else:
                argv.insert(at, argv[at])
    tokens = re.split(r"(\s+)", _TEXTS[draw(st.sampled_from(["slp1", "slg1", "slp2",
                                                             "slg2", "ov"]))])
    for _ in range(draw(st.integers(0, 3))):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_MUT_TOKENS))
    env = draw(st.integers(1, 4096).map(str) | st.sampled_from(["0", "-5", "x"]))
    return argv, "".join(tokens), env


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_total")
    for name, text in _TEXTS.items():
        (root / name).write_text(text)
    (root / "binary").write_bytes(b"SLG1 \xff\xfe\n")
    return root


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:     # argparse refuses the argv
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=2000)
@given(inv=invocations())
def test_every_argv_exits_0_1_or_2_without_a_traceback(files, inv):
    argv, mutated, env = inv
    (files / "mut").write_text(mutated)
    places = {"@dir": str(files), "@nodir/out": str(files / "nodir" / "out")}
    argv = [places.get(a) or (str(files / a[1:]) if a.startswith("@") else a) for a in argv]
    with mock.patch.dict(os.environ, {"GG_CAP_CELLS": env}):
        code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out and "Traceback" not in err
    lines = out.splitlines()
    if code == 2:
        assert out == ""
    if code == 1:
        assert err.endswith("\n") and err.count("\n") == max(1, lines.count("ERR")), (argv, err)
    if argv[:1] == ["access"] and code != 2 and lines:
        coords = cli._build_parser().parse_args(argv).coords
        assert len(lines) == len(coords), (argv, out)
        assert all(re.fullmatch(r"\d+|ERR", line) for line in lines), (argv, out)


@pytest.mark.parametrize("name", ["wide1", "wide2"])
def test_expand_refuses_a_code_past_64_bits_in_one_line(files, name):
    """The expansion stores each code in at most 64 bits: ``expand`` of a
    valid grammar with the code 2**64 exits 1 with one stderr line and
    writes nothing."""
    code, out, err = _run(["expand", str(files / name)])
    assert (code, out) == (1, "")
    assert err == f"RangeError: code {1 << 64} does not fit in 64 bits\n"
