"""Command-line surface: validation, expansion, point queries, reductions,
corpus generation, and benchmarking.

Conventions: stdout carries only data (one value per query line, CSV for
bench, grammar/matrix files); diagnostics go to stderr. Exit codes: 0 on
success, 1 on a domain error, 2 on a usage error. A command's output
depends on its flags, its seed and GG_CAP_CELLS alone (bench timing columns
excepted). GG_CAP_CELLS, a positive integer defaulting to 2**26, is the one
work cap: every command that would otherwise run unbounded refuses work over it.
Most refuse before doing the work; the index builds of access and bench count
their own slots and refuse as they allocate, before the command prints anything.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import access1d, access2d, gen, oracle, reductions
from .errors import (ExpansionTooLarge, GrammarError, ParseError, PositionOutOfRange,
                     PreconditionViolated, RangeError)
from .slg import (
    DEFAULT_CAP,
    Slg1,
    dump_slg1,
    exp_len,
    expand1,
    grammar_size1,
    parse_slg1,
    slg_to_slp,
    validate_slg1,
)
from .slg2d import (
    dims,
    dump_matrix,
    dump_slg2,
    expand2,
    grammar_size2,
    parse_slg2,
    slg2_to_slp2,
    validate_slg2,
)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e.reason}") from None


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e.strerror}") from None


def _load_grammar(path):
    """Load either grammar format by peeking the header token."""
    text = _read(path)
    head = text.lstrip().split(None, 1)
    kind = head[0] if head else ""
    if kind == "SLG1":
        return parse_slg1(text)
    if kind == "SLG2":
        return parse_slg2(text)
    raise ParseError(f"{path}: expected an SLG1 or SLG2 file, found {kind!r}")


def _cap():
    """The work cap: GG_CAP_CELLS, else DEFAULT_CAP."""
    raw = os.environ.get("GG_CAP_CELLS")
    if not raw:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise RangeError(f"GG_CAP_CELLS must be a positive integer, got {raw!r}")
    return cap


def _reference1(slp, cap):
    text = expand1(slp, cap=cap)
    return lambda i: text[i - 1]


def _reference2(slp, cap):
    return expand2(slp, cap=cap).get


@dataclass
class _Dim:
    """What the access and bench commands need to know about one dimension.
    The build takes the work cap and counts its own slots against it."""

    to_slp: Callable      # parsed grammar -> validated SLP
    shape: Callable       # SLP -> (n,) or (rows, cols); its length is the coordinate arity
    tau: Callable         # (max(shape), epsilon) -> the tau preset
    build: Callable       # (SLP, tau, cap) -> index, or ExpansionTooLarge past the cap
    access: Callable      # (index, *position) -> code
    traced: Callable      # (index, *position) -> (code, steps), the fast walk with every
                          #   read checked; steps: levels + 1 in 1D, in 2D the reads plus
                          #   one for a finish by descent
    descend: Callable     # (index, variable, *position, side or corner) -> code, by descent
    reference: Callable   # (SLP, cap) -> (*position -> code), from the full expansion
    check: Callable       # index -> None, or PreconditionViolated on an index that is not
                          #   laid out as its build lays it out


_DIM1 = _Dim(slg_to_slp, lambda slp: (exp_len(slp, slp.start),), access1d.optimal_tau,
             access1d.build_index1, access1d.access1, access1d.access1_traced,
             access1d.descend1, _reference1, access1d.check_index1)
_DIM2 = _Dim(slg2_to_slp2, lambda slp: dims(slp, slp.start), access2d.optimal_tau2,
             access2d.build_index2, access2d.access2, access2d.access2_traced,
             access2d.descend2, _reference2, access2d.check_index2)


def _held_bytes(ix):
    """The memory an index holds beside its grammar: 8 B per entry of its
    slot lists and of the chain lists it keeps (one pointer each) plus each
    distinct slot object once, as sys.getsizeof counts it; equal slots are
    one shared object.

    An index of either dimension holds one slot list per kept state, the
    last item of its ``ix.states`` entry at the id ``ix.ids`` gives it; its
    state directory, ``ids`` and ``keys``, grows with the kept states
    alone, and the sentinel at the other ids is one small shared entry, so
    neither is counted, nor are the code pairs 2D slots share.
    ``ix.chains`` is the two sides' chain lists of a run finish, or None."""
    slots, steps = 0, {}
    for j in ix.ids.values():
        table = ix.states[j][-1]
        slots += len(table)
        steps.update((id(v), v) for v in table)
    for chain in ix.chains or ():
        slots += sum(map(len, chain))
    return 8 * slots + sum(sys.getsizeof(v) for v in steps.values())


def _check_work(what, amount, unit, cap):
    """Refuse, before doing it, work of ``amount`` units over the expansion cap."""
    if amount > cap:
        raise ExpansionTooLarge(f"{what} {amount} {unit}, over the expansion cap of {cap}")


def _dim(g):
    return _DIM1 if isinstance(g, Slg1) else _DIM2


# -- commands -----------------------------------------------------------------

def cmd_validate(args):
    g = _load_grammar(args.path)
    if isinstance(g, Slg1):
        g = validate_slg1(g)
        print(f"ok n={g._lens[g.start]}")
    else:
        g = validate_slg2(g)
        print(f"ok rows={g._rows[g.start]} cols={g._cols[g.start]}")
    return 0


def cmd_expand(args):
    g = _load_grammar(args.path)
    cap = _cap()
    if isinstance(g, Slg1):
        text = expand1(validate_slg1(g), cap=cap)
        _write(args.out, " ".join(str(v) for v in text) + "\n")
    else:
        m = expand2(validate_slg2(g), cap=cap)
        _write(args.out, dump_matrix(m))
    return 0


def cmd_access(args):
    cap = _cap()
    g = _load_grammar(args.path)
    dim = _dim(g)
    slp = dim.to_slp(g)
    shape = dim.shape(slp)
    preset = dim.tau(max(shape), args.epsilon)     # checks --epsilon even under --tau
    tau = preset if args.tau is None else args.tau
    ix = dim.build(slp, tau, cap)
    reference = None
    if args.verify:         # the index's layout, once, before the first query
        dim.check(ix)
        reference = dim.reference(slp, cap)
    failed = False
    for q in args.coords:
        try:
            pos = _ints("coordinates", q.replace(",", " ").split())
            if len(pos) != len(shape):
                raise RangeError(f"expected {len(shape)} coordinate(s), got {len(pos)}")
            code = dim.access(ix, *pos)
        except (PositionOutOfRange, RangeError) as e:
            print("ERR")
            print(f"query {q!r}: {e}", file=sys.stderr)
            failed = True
            continue
        if reference is not None:
            want = reference(*pos)
            try:        # the traced walk checks every stored step it reads
                traced = dim.traced(ix, *pos)[0]
            except PreconditionViolated as e:
                raise GrammarError(f"verify mismatch at {q!r}: the traced walk refuses "
                                   f"the tables: {e}") from None
            if not want == code == traced:
                raise GrammarError(f"verify mismatch at {q!r}: index gives {code}, traced "
                                   f"walk gives {traced}, expansion gives {want}")
        print(code)
    return 1 if failed else 0


def cmd_ov(args):
    if args.ov_cmd == "gen":
        if args.n < 1 or args.d < 1:
            raise RangeError(f"ov gen needs n >= 1 and d >= 1, got {args.n} and {args.d}")
        _check_work(f"{args.n} vectors of dimension {args.d} are", args.n * args.d, "cells",
                    _cap())
        m = gen.random_matrix(args.seed, args.n, args.d, 2)
        _write(args.out, reductions.dump_ov(reductions.OvInstance(m.to_rows())))
        return 0
    inst = reductions.parse_ov(_read(args.path))
    n, d = inst.n, inst.d
    if args.ov_cmd == "uniform":         # 2n vectors of dimension 3d
        _check_work("the uniform instance has", 6 * n * d, "cells", _cap())
        _write(args.out, reductions.dump_ov(reductions.uniform_ov(inst)))
        return 0
    if args.ov_cmd == "solve":           # every ordered pair, d products each
        _check_work("brute force over the pairs takes", n * n * d, "products", _cap())
        print(oracle.ov_brute(inst.vectors))
        return 0
    # reduce
    pm = reductions.ov_to_pm(inst)
    _write(args.pattern_out, "".join(str(b) for b in pm.pattern.cells) + "\n")
    _write(args.grammar_out, dump_slg2(pm.grammar))
    print(f"n={pm.n} d={pm.d} l={pm.l} size={grammar_size2(pm.grammar)}", file=sys.stderr)
    return 0


def _ints(what, fields):
    """Integer command-line fields; a non-integer one is a RangeError naming
    ``what`` and quoting that field."""
    out = []
    for f in fields:
        try:
            out.append(int(f))
        except ValueError:
            raise RangeError(f"{what} must be integers, got {f!r}") from None
    return out


def _rank_via_line_sum(g, cap, j, c):
    # the adapter answers 0 for an absent code without a provider call, and
    # the marking matrix bounds j in its own terms: check j as oracle.rank does
    n = exp_len(g, g.start)
    if not 0 <= j <= n:
        raise RangeError(f"rank prefix {j} outside [0, {n}]")
    reduced, amap = reductions.alphabet_reduce(g)
    marking = expand2(reductions.mark_grammar(reduced, len(amap)), cap=cap)
    return reductions.rank_via_line_sum(partial(oracle.line_sum, marking), amap, j, c)


def _occurs_via_square_all_zero(g, cap, b, e, c):
    reduced, amap = reductions.alphabet_reduce(g)
    marking = expand2(reductions.ext_mark_grammar(reduced, len(amap)), cap=cap)
    return reductions.occurs_via_square_all_zero(
        partial(oracle.square_all_zero, marking), amap, b, e, c, reduced._lens[reduced.start])


def _square_all_zero_via_square_lce(g, cap, *qargs):
    padded, make_adapter = reductions.square_all_zero_via_square_lce(g)
    return make_adapter(partial(oracle.square_lce, expand2(padded, cap=cap)))(*qargs)


def _square_lce_via_line_lce(g, cap, *qargs):
    m = expand2(g, cap=cap)
    return reductions.square_lce_via_line_lce(
        partial(oracle.line_lce, m), m.rows, m.cols, *qargs)


def _line_lce_via_equality(g, cap, *qargs):
    m = expand2(g, cap=cap)
    return reductions.line_lce_via_equality(
        partial(oracle.equal_rect, m), m.rows, m.cols, *qargs)


# name -> (arguments in order, input dimension, oracle over the expansion,
#          {--via name: chain answering from the validated grammar and the cap})
_QUERIES = {
    "rank": ("j c", 1, oracle.rank, {"line-sum": _rank_via_line_sum}),
    "occurs": ("b e c", 1, oracle.occurs, {"square-all-zero": _occurs_via_square_all_zero}),
    "sum": ("b_r b_c e_r e_c", 2, oracle.sum_rect, {}),
    "line-sum": ("e_r e_c l", 2, oracle.line_sum, {}),
    "all-zero": ("b_r b_c e_r e_c", 2, oracle.all_zero, {}),
    "square-all-zero": ("e_r e_c l", 2, oracle.square_all_zero,
                        {"square-lce": _square_all_zero_via_square_lce}),
    "equal": ("b_r b_c b2_r b2_c h w", 2, oracle.equal_rect, {}),
    "square-lce": ("b_r b_c b2_r b2_c", 2, oracle.square_lce,
                   {"line-lce": _square_lce_via_line_lce}),
    "line-lce": ("b_r b_c b2_r b2_c l", 2, oracle.line_lce,
                 {"equality": _line_lce_via_equality}),
    "row-pattern": ("pattern", 2, oracle.row_pattern_occurs, {}),
}


def _query_args(name, want, fields):
    """Check ``fields`` against the argument names ``want`` of ``name``; parse the integers.

    row-pattern takes one pattern: comma-separated codes (``10,2,3``) or,
    without a comma, one code per digit (``1023``).
    """
    if len(fields) != len(want):
        raise RangeError(f"{name} takes {len(want)} argument(s) ({' '.join(want)}), "
                         f"got {len(fields)}")
    if name == "row-pattern":
        raw = fields[0]
        return [_ints("row-pattern codes", raw.split(",") if "," in raw else list(raw))]
    return _ints(f"{name} arguments", fields)


def cmd_query(args):
    cap = _cap()
    arguments, dim, answer, chains = _QUERIES[args.query]
    qargs = _query_args(args.query, arguments.split(), args.args)
    g = _load_grammar(args.path)
    if isinstance(g, Slg1) != (dim == 1):
        raise ParseError(f"{args.query} needs an SLG{dim} input")
    if args.via is not None and args.via not in chains:
        takes = f"--via {' or '.join(chains)}" if chains else "no --via"
        raise RangeError(f"{args.query} takes {takes}, not {args.via!r}")
    g = slg_to_slp(g) if dim == 1 else validate_slg2(g)
    if args.query == "row-pattern":     # the fallback scan: every cell against every code
        rows, cols = dims(g, g.start)
        _check_work(f"row-pattern over {rows}x{cols} cells takes",
                    rows * cols * len(qargs[0]), "comparisons", cap)
    if args.via is not None:
        print(chains[args.via](g, cap, *qargs))
    else:
        print(answer((expand1 if dim == 1 else expand2)(g, cap=cap), *qargs))
    return 0


def cmd_reduce(args):
    g = _load_grammar(args.path)
    if args.kind in ("mark", "extmark"):
        if not isinstance(g, Slg1):
            raise ParseError("mark/extmark need an SLG1 input")
        slp = slg_to_slp(g)
        sigma = slp.alphabet_size if args.sigma is None else args.sigma
        _check_work(f"a marking grammar over sigma {sigma} adds about", 2 * sigma, "rules",
                    _cap())
        build = reductions.mark_grammar if args.kind == "mark" else reductions.ext_mark_grammar
        out = build(slp, sigma)
        _write(args.out, dump_slg2(out))
        in_size, out_size = grammar_size1(slp), grammar_size2(out)
        print(f"size={out_size} input={in_size} sigma={sigma} "
              f"ratio={out_size / (in_size + sigma):.2f}", file=sys.stderr)
        return 0
    # pad
    if isinstance(g, Slg1):
        raise ParseError("pad needs an SLG2 input")
    _write(args.out, dump_slg2(reductions.pad_with_zero_block(validate_slg2(g))))
    return 0


def cmd_bench(args):
    cap = _cap()
    g = _load_grammar(args.path)
    rng = gen._rng(args.seed)
    taus = _ints("--tau-list entries", args.tau_list.split(","))
    if min(taus) < 2:
        raise RangeError(f"--tau-list entries must be >= 2, got {args.tau_list!r}")
    if args.reps < 1:
        raise RangeError(f"--reps must be >= 1, got {args.reps}")
    _check_work("--reps over --tau-list asks for", args.reps * len(taus), "queries", cap)
    rows = ["tau,entries,bytes,build_ms,mean_query_ns,descent_ns,loop_iterations_mean"]
    dim = _dim(g)
    slp = dim.to_slp(g)
    shape = dim.shape(slp)
    queries = [tuple(rng.randint(1, s) for s in shape) for _ in range(args.reps)]
    for tau in taus:
        t0 = time.perf_counter()
        ix = dim.build(slp, tau, cap)
        build_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        for q in queries:
            dim.access(ix, *q)
        query_ns = (time.perf_counter() - t0) * 1e9 / max(1, len(queries))
        t0 = time.perf_counter()
        for q in queries:
            dim.descend(ix, slp.start, *q, 0)
        descent_ns = (time.perf_counter() - t0) * 1e9 / max(1, len(queries))
        total_steps = sum(dim.traced(ix, *q)[1] for q in queries)
        rows.append(f"{tau},{ix.entry_count()},{_held_bytes(ix)},{build_ms:.3f},"
                    f"{query_ns:.0f},{descent_ns:.0f},"
                    f"{total_steps / max(1, len(queries)):.2f}")
    print("\n".join(rows))
    return 0


# gen kind -> (generator, its size-bound keyword, which is also the flag's dest, dump)
_GEN = {
    "slp1": (gen.random_slp1, "max_len", dump_slg1),
    "slg1": (gen.random_slg1, "max_len", dump_slg1),
    "slp2": (gen.random_slp2, "max_cells", dump_slg2),
    "slg2": (gen.random_slg2, "max_cells", dump_slg2),
}


def cmd_gen(args):
    make, bound, dump = _GEN[args.kind]
    other = "max_cells" if bound == "max_len" else "max_len"
    if getattr(args, other) is not None:
        raise RangeError(f"gen {args.kind} takes --{bound.replace('_', '-')}, "
                         f"not --{other.replace('_', '-')}")
    # each new rule reads the earlier rules that can join it: all of them
    # in 1D, and in 2D those sharing the joined side, at worst all of them
    _check_work(f"gen {args.kind} with {args.rules} rules reads",
                max(args.rules, 0) ** 2, "pool entries", _cap())
    size = getattr(args, bound)     # unset, the generator's own default applies
    g = make(args.seed, args.rules, sigma=args.sigma, **({} if size is None else {bound: size}))
    _write(args.out, dump(g))
    return 0


# -- argument wiring ----------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="gridgram",
        description="grammar-compressed 1D/2D strings: access indexes and reductions")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check a grammar file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("expand", help="decompress a grammar file")
    p.add_argument("path")
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("access", help="point queries through the bookmark index")
    p.add_argument("path")
    p.add_argument("coords", nargs="+", metavar="COORD",
                   help="position i (1D) or i,j (2D), one result line each")
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--verify", action="store_true",
                   help="check the index's layout before the first query, then "
                        "cross-check each answer against full expansion (under the cap)")
    p.set_defaults(fn=cmd_access)

    p = sub.add_parser("ov", help="orthogonal-vectors pipelines")
    ovsub = p.add_subparsers(dest="ov_cmd", required=True)
    q = ovsub.add_parser("gen", help="random instance")
    q.add_argument("n", type=int)
    q.add_argument("d", type=int)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("-o", "--out", default="-")
    q = ovsub.add_parser("uniform", help="equalize ones counts")
    q.add_argument("path")
    q.add_argument("-o", "--out", default="-")
    q = ovsub.add_parser("reduce", help="emit pattern + grammar instance")
    q.add_argument("path")
    q.add_argument("-p", "--pattern-out", required=True)
    q.add_argument("-g", "--grammar-out", required=True)
    q = ovsub.add_parser("solve", help="brute-force answer")
    q.add_argument("path")
    p.set_defaults(fn=cmd_ov)

    p = sub.add_parser("query", help="run a query (oracle, or --via an adapter chain)")
    p.add_argument("path")
    p.add_argument("query", choices=list(_QUERIES))
    p.add_argument("args", nargs="+")
    p.add_argument("--via", default=None,
                   help="adapter chain: " + ", ".join(
                       f"{name} --via {via}"
                       for name, (_, _, _, chains) in _QUERIES.items() for via in chains))
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("reduce", help="write a constructed grammar")
    p.add_argument("kind", choices=["mark", "extmark", "pad"])
    p.add_argument("path")
    p.add_argument("out")
    p.add_argument("--sigma", type=int, default=None)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("bench", help="index build/query measurements as CSV")
    p.add_argument("path")
    p.add_argument("--tau-list", default="2,3,8")
    p.add_argument("--reps", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gen", help="seeded random grammar files")
    p.add_argument("kind", choices=list(_GEN))
    p.add_argument("--rules", type=int, required=True)
    p.add_argument("--sigma", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, help="1D kinds only")
    p.add_argument("--max-cells", type=int, help="2D kinds only")
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(fn=cmd_gen)

    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GrammarError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
