"""Command-line front end: instance/realization file formats, the analyze
pipeline, sampling, enumeration and the verification suite.

Exit codes: 0 success, 1 parse error, 2 infeasible instance, 3 verification
failure, 4 instance too large, 64 usage error, 141 (128 + SIGPIPE) when
the reader of stdout closed it before all the output was written.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import chains, oracle
from .analysis import analyze
from .core import (
    FORCED_EDGE,
    FORCED_NON_EDGE,
    FREE,
    DegreeSequence,
    FixedSet,
    Infeasible,
    Instance,
    MoveSet,
    NoUsableBound,
    NotRealizable,
    Realization,
    TooLarge,
    mask_digits,
)
from .realizability import (
    gale_ryser_realizable,
    initial_realization,
    partition_fixed_set,
    static_set,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAIL = 3
EXIT_TOO_LARGE = 4
EXIT_USAGE = 64
EXIT_PIPE = 141

_MASK_CHARS = {"0": FORCED_NON_EDGE, "1": FORCED_EDGE, "*": FREE}
# The mask characters, and the maps between them, as bytes, and their cell
# values, one per direction.
_MASK_DIGITS = "".join(_MASK_CHARS)
_MASK_TABLE = bytes.maketrans(_MASK_DIGITS.encode(), bytes(_MASK_CHARS.values()))
_MASK_TEXT = bytes.maketrans(bytes(_MASK_CHARS.values()), _MASK_DIGITS.encode())


class ParseError(ValueError):
    """File-format error with position information."""

    def __init__(self, message: str, line: int, col: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def location(self) -> str:
        if self.col is not None:
            return f"{self.line}:{self.col}"
        return str(self.line)


def _content_lines(text: str):
    """(line_number, stripped_text) for non-blank non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped


def _parse_int_list(body: str, lineno: int, what: str) -> list[int]:
    out = []
    for token in body.split():
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"bad {what} value {token!r}", lineno) from None
        if value < 0:
            raise ParseError(f"{what} must be nonnegative, got {value}", lineno)
        out.append(value)
    if not out:
        raise ParseError(f"empty {what} list", lineno)
    return out


def _parse_one_int(body: str, lineno: int, what: str) -> int:
    values = _parse_int_list(body, lineno, what)
    if len(values) != 1:
        raise ParseError(f"{what} takes one value, got {len(values)}", lineno)
    return values[0]


def parse_instance(text: str) -> Instance:
    """Parse the instance file format.

    Header lines ``rows:``, ``cols:``, ``row_degrees:``, ``col_degrees:``
    in order, then ``mask:`` followed by one line per row with characters
    0 (forced non-edge), 1 (forced edge) and * (free).  ``#`` starts a
    comment line; blank lines are ignored.
    """
    lines = list(_content_lines(text))
    pos = 0

    def take(key: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError(f"missing {key!r} line", last)
        lineno, content = lines[pos]
        if not content.startswith(key):
            raise ParseError(f"expected {key!r} line, got {content!r}", lineno)
        pos += 1
        return lineno, content[len(key):].strip()

    lineno, body = take("rows:")
    n = _parse_one_int(body, lineno, "rows")
    lineno, body = take("cols:")
    nc = _parse_one_int(body, lineno, "cols")
    if n < 1 or nc < 1:
        raise ParseError("rows and cols must be positive", lineno)
    lineno, body = take("row_degrees:")
    row_degrees = _parse_int_list(body, lineno, "row degree")
    if len(row_degrees) != n:
        raise ParseError(
            f"expected {n} row degrees, got {len(row_degrees)}", lineno
        )
    lineno, body = take("col_degrees:")
    col_degrees = _parse_int_list(body, lineno, "col degree")
    if len(col_degrees) != nc:
        raise ParseError(
            f"expected {nc} col degrees, got {len(col_degrees)}", lineno
        )
    lineno, body = take("mask:")
    if body:
        raise ParseError("mask: line takes no inline value", lineno)

    grid = []
    for _ in range(n):
        if pos >= len(lines):
            raise ParseError(f"expected {n} mask lines, got {len(grid)}", lineno)
        lineno, content = lines[pos]
        pos += 1
        if len(content) != nc:
            raise ParseError(
                f"mask line has {len(content)} cells, expected {nc}",
                lineno,
                len(content) + 1 if len(content) < nc else nc + 1,
            )
        if content.strip(_MASK_DIGITS):  # a character outside 0, 1, *
            for col, ch in enumerate(content, start=1):
                if ch not in _MASK_CHARS:
                    raise ParseError(f"bad mask character {ch!r}", lineno, col)
        grid.append(content.encode().translate(_MASK_TABLE))
    if pos < len(lines):
        lineno, content = lines[pos]
        raise ParseError(f"unexpected content {content!r}", lineno)
    return Instance(DegreeSequence(row_degrees, col_degrees), FixedSet(grid))


def format_instance(inst: Instance) -> str:
    mask = b"\n".join(map(bytes, inst.fixed.mask)).translate(_MASK_TEXT).decode()
    return "\n".join([
        f"rows: {inst.n}",
        f"cols: {inst.n_cols}",
        "row_degrees: " + " ".join(map(str, inst.degrees.row_degrees)),
        "col_degrees: " + " ".join(map(str, inst.degrees.col_degrees)),
        "mask:",
        mask,
    ]) + "\n"


def parse_realization(text: str, inst: Instance) -> Realization:
    """Parse a realization file (0/1 grid) against its instance."""
    lines = list(_content_lines(text))
    if len(lines) != inst.n:
        lineno = lines[-1][0] if lines else 1
        raise ParseError(f"expected {inst.n} lines, got {len(lines)}", lineno)
    masks = []
    for lineno, content in lines:
        if len(content) != inst.n_cols:
            raise ParseError(
                f"line has {len(content)} cells, expected {inst.n_cols}", lineno
            )
        if content.strip("01"):  # a character outside 0, 1
            for col, ch in enumerate(content, start=1):
                if ch not in "01":
                    raise ParseError(f"bad cell character {ch!r}", lineno, col)
        masks.append(int(content[::-1], 2))  # column 0 is the mask's bit 0
    return Realization.from_masks(inst, masks)


def format_realization(g: Realization) -> str:
    return "\n".join(mask_digits(g.masks, g.instance.n_cols)) + "\n"


# The chain names ``--chain`` reads besides auto and cycle:L.  The first
# name of a move set is the one ``analyze`` and ``sample`` print; a later
# one is an alias.
_CHAIN_NAMES = {
    "swap": MoveSet.swaps4(),
    "trades": MoveSet.trades(),
    "trades+circle": MoveSet.trades_plus_circle(),
    "curveball": MoveSet.trades(),
    "circle": MoveSet.trades_plus_circle(),
}
# Every spec ``--chain`` takes, as its help and its usage error name them.
_CHAIN_SPECS = ", ".join(("auto", *_CHAIN_NAMES)) + " or cycle:L"


def _chain_label(move_set: MoveSet) -> str:
    return next(
        (name for name, named in _CHAIN_NAMES.items() if named == move_set),
        f"cycle:{move_set.limit}",
    )


def _pipeline(inst: Instance, reduce_static: bool, g: Realization | None = None):
    """Shared analyze/sample pipeline.

    ``g`` is a realization of ``inst`` for the static-cell pass to orient;
    without it ``static_set`` builds one.  Returns (f_prime, working_fixed,
    redundant_cells, report_or_None, move_set).  The report is None when no
    bounded move set is usable; the move set is then cycle:2*min(n, m).
    """
    if reduce_static:
        f_prime = static_set(inst.degrees, g)
        working, redundant = partition_fixed_set(inst, f_prime)
    else:
        f_prime = None
        working, redundant = inst.fixed, frozenset()
    try:
        report = analyze(working, inst.n, inst.n_cols)
        move_set = report.recommended
    except NoUsableBound:
        report = None
        move_set = MoveSet.swaps_up_to(2 * min(inst.n, inst.n_cols))
    return f_prime, working, redundant, report, move_set


def _load_instance(path: str) -> Instance | None:
    """The instance in the file ``path``, or None after one line on stderr
    naming the path and why it cannot be read or parsed."""
    try:
        # utf-8-sig drops a leading byte-order mark, as some editors write.
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_instance(fh.read())
    except ParseError as exc:
        print(f"{path}:{exc.location()}: {exc.message}", file=sys.stderr)
    except OSError as exc:
        print(f"{path}: cannot read: {exc.strerror or exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"{path}: cannot read: byte {exc.start} is not UTF-8", file=sys.stderr)
    return None


def _out_error(path: str, exc: OSError) -> int:
    print(f"bipsample: error: cannot write --out {path}: {exc.strerror or exc}",
          file=sys.stderr)
    return EXIT_USAGE


def cmd_analyze(args) -> int:
    inst = _load_instance(args.path)
    if inst is None:
        return EXIT_PARSE

    realizable = gale_ryser_realizable(inst.degrees)
    print(f"realizable: {'yes' if realizable else 'no'}")
    if not realizable:
        print("feasible: no")
        return EXIT_INFEASIBLE
    try:
        g = initial_realization(inst)
    except Infeasible as exc:
        print("feasible: no")
        print(f"reason: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print("feasible: yes")

    f_prime, working, redundant, report, move_set = _pipeline(
        inst, not args.no_reduce, g
    )
    if f_prime is None:
        print("static cells: skipped (--no-reduce)")
    else:
        print(
            f"static cells: {f_prime.size()} "
            f"(edges={len(f_prime.forced_edges)}, "
            f"non-edges={len(f_prime.forced_non_edges)})"
        )
    n_working = sum(m.bit_count() for m in working.fixed_masks)
    print(f"|F|: {n_working}")
    print(f"|F*|: {len(redundant)}")
    if n_working == 0:
        print("|F| = 0; plain Curveball applies")
    if report is not None:
        print(f"has 3-matching: {'yes' if report.has_3_matching else 'no'}")
        print(f"has 8-cycle: {'yes' if report.has_8_cycle else 'no'}")
        print(f"forest: {'yes' if report.is_forest else 'no'}")
        ell = report.min_excluded_ell
        print(f"min excluded ell: {ell if ell is not None else 'none'}")
        print(f"recommended: {_chain_label(report.recommended)}")
    else:
        print(
            f"recommended: {_chain_label(move_set)} "
            "(fallback: every shorter cycle length occurs in the fixed set)"
        )
    return EXIT_OK


def cmd_sample(args) -> int:
    inst = _load_instance(args.path)
    if inst is None:
        return EXIT_PARSE
    # The start is built first so that --chain auto can reuse it for the
    # static cells.  An unrealizable sequence or a polarity conflict is
    # reported before the chain line, a mask with no realization after it.
    try:
        start, no_start = initial_realization(inst), None
    except Infeasible as exc:
        start, no_start = None, exc
    move_set = args.chain
    if move_set is None:
        try:
            move_set = _pipeline(inst, not args.no_reduce, start)[-1]
        except (Infeasible, NotRealizable) as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
    if args.out:
        # Made before the chain line, so that an unusable --out is the only
        # line on stderr and no chain runs for it.
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            return _out_error(args.out, exc)
    print(f"chain: {_chain_label(move_set)}", file=sys.stderr)
    if start is None:
        print(f"infeasible: {no_start}", file=sys.stderr)
        return EXIT_INFEASIBLE
    # One chain, restarted in place for each sample c with seed + c: the
    # stream of a new chain per sample.  Only the state at the last kept
    # step is checked and turned into text on its row masks, and written
    # before the next chain runs.
    last_kept = args.steps - args.steps % args.gap
    chain = chains.Chain(start, chains.ChainConfig(
        move_set=move_set,
        steps=args.steps,
        seed=args.seed,
        sample_gap=args.gap,
        mh_correction=args.mh == "on",
    ))
    for c in range(args.count):
        if c:
            chain.restart(args.seed + c)
        chain.advance(last_kept)
        text = "\n".join(chain.digit_rows()) + "\n"
        if not args.out:
            # A blank line between samples.
            sys.stdout.write("\n" + text if c else text)
            continue
        try:
            with open(
                os.path.join(args.out, f"sample_{c:04d}.txt"), "w", encoding="utf-8"
            ) as fh:
                fh.write(text)
        except OSError as exc:
            return _out_error(args.out, exc)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    inst = _load_instance(args.path)
    if inst is None:
        return EXIT_PARSE
    try:
        states = oracle._instance_bits(inst)
    except TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    print(len(states))
    if args.list:
        # A state int holds cell (i, j) at bit i*nc + j, so its bit string
        # reversed is the grid's digits, row-major: each is cut into rows
        # and written, with a blank line between two states.
        nc, size = inst.n_cols, inst.n * inst.n_cols
        fmt, cuts = f"0{size}b", range(0, size, nc)
        for s, x in enumerate(states):
            cells = format(x, fmt)[::-1]
            text = "\n".join([cells[k:k + nc] for k in cuts]) + "\n"
            sys.stdout.write("\n" + text if s else text)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        result = oracle.run_verification(
            max_rows=args.max_rows,
            max_cols=args.max_cols,
            random_count=args.random,
            seed=args.seed,
            emit=None if args.json else print,
            quiet=args.quiet or args.json,
        )
    except TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    if args.json:
        import json  # here, not at the top: every command's start pays for it

        print(json.dumps({
            "checks_run": result.checks_run,
            "counts": result.counts,
            "seconds": result.seconds,
            "info_lines": result.info_lines,
            "failures": result.failures,
            "passed": result.passed,
            "elapsed": result.elapsed,
        }))
    else:
        print(f"checks run: {result.checks_run}")
        for name in sorted(result.counts):
            print(f"  {name}: {result.counts[name]}")
        print(f"informational findings: {len(result.info_lines)}")
        print(f"failures: {len(result.failures)}")
        print(f"elapsed: {result.elapsed:.1f}s")
        if result.passed:
            print("result: PASS")
        else:
            print(f"result: FAIL ({result.witness_check})")
    if not result.passed:
        if result.witness is not None:
            print("witness instance:", file=sys.stderr)
            sys.stderr.write(format_instance(result.witness))
        return EXIT_VERIFY_FAIL
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"value must be >= {low}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _chain_spec(text: str) -> MoveSet | None:
    """The move set a ``--chain`` spec names; None for ``auto``, which
    ``cmd_sample`` resolves from the instance."""
    if text == "auto":
        return None
    if text in _CHAIN_NAMES:
        return _CHAIN_NAMES[text]
    if text.startswith("cycle:"):
        digits = text[len("cycle:"):]
        # ASCII digits only: int() would also take "1_0", " 8", "+8" and "８".
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError("cycle:L needs an integer L")
        limit = int(digits)
        if limit % 2 or limit < 4:
            raise argparse.ArgumentTypeError("cycle:L needs an even L >= 4")
        return MoveSet.swaps_up_to(limit)
    raise argparse.ArgumentTypeError(f"chain must be {_CHAIN_SPECS}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bipsample",
        description="Sample bipartite 0/1 matrices with prescribed margins "
        "and pinned cells.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report feasibility and the recommended chain")
    p.add_argument("path")
    p.add_argument("--no-reduce", action="store_true",
                   help="skip the static-cell reduction")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sample", help="draw samples with a Markov chain")
    p.add_argument("path")
    p.add_argument("--chain", type=_chain_spec, default="auto",
                   help=f"the chain: {_CHAIN_SPECS} (cycle swaps of length "
                   "at most L); auto takes the one analyze recommends "
                   "(default: auto)")
    p.add_argument("--steps", type=_positive_int, default=10000,
                   help="chain steps per sample (default: 10000)")
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="seed of the first sample, >= 0; sample c uses "
                   "seed + c (default: 0)")
    p.add_argument("--count", type=_positive_int, default=1,
                   help="number of samples, each from its own chain (default: 1)")
    p.add_argument("--gap", type=_positive_int, default=1,
                   help="write the state at the last multiple of GAP steps "
                   "(default: 1)")
    p.add_argument("--mh", choices=("on", "off"), default="on",
                   help="Metropolis correction of circle trades (default: on)")
    p.add_argument("--out", help="write samples to this directory instead of stdout")
    p.add_argument("--no-reduce", action="store_true",
                   help="skip the static-cell reduction when --chain is auto")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("enumerate", help="count (and list) all realizations")
    p.add_argument("path")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run the brute-force verification suite")
    p.add_argument("--max-rows", type=_positive_int, default=5,
                   help="rows of the largest pool grid; the exhaustive part "
                   "stops at 3 (default: 5)")
    p.add_argument("--max-cols", type=_positive_int, default=5,
                   help="columns of the largest pool grid; the exhaustive part "
                   "stops at 4 (default: 5)")
    p.add_argument("--random", type=_non_negative_int, default=200,
                   help="random instances to draw for the pool (default: 200)")
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="seed of the random instances, >= 0 (default: 0)")
    p.add_argument("--quiet", action="store_true",
                   help="only print failures and the summary")
    p.add_argument("--json", action="store_true",
                   help="print only the result, as one JSON object")
    p.set_defaults(func=cmd_verify)
    return parser


# Built by the first ``main`` call, not at import, and kept for the life of
# the process: building it costs more than parsing a small command.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command == "sample" and args.gap > args.steps:
        print("bipsample: error: --gap must not exceed --steps", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.func(args)
        # A reader that left after the last write is met here too, not in
        # the interpreter's final flush.
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_PIPE
    return code


def _drop_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the
    interpreter's final flush of what is still buffered for a closed pipe
    writes nowhere instead of printing "Exception ignored"."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file: nothing flushes it at exit
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
