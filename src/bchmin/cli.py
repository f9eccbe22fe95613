"""Command-line interface: generate verified minimum-weight supports,
re-verify serialized supports, and reproduce the bundled golden tables.

Exit codes: 0 success / verified, 1 stdout closed by its reader before
the output was written, 2 verification failure (also a generated support
that fails its self-verification), 3 uncovered parameter combination (also
a command that runs out of memory), 4 solver retries exhausted, 5 parse
error (also a command line the parser refuses).  Commands and the parser
report a refusal by raising; `_REFUSALS` maps each refusal, or a subclass
of it, to its exit code and message prefix, and `main` is the one place
that applies it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from . import construct, verify
from .construct import CodewordSupport, UnverifiedSupport
from .files import SPEC_VERSION, ParseError, _echo, parse_support_file  # noqa: F401 (SPEC_VERSION)
from .files import render_bits, render_json, render_logsupport
from .fixtures import BCH23_FIXTURE, BCH27_FIXTURES
from .gf2m import UnsupportedDegree, _quote, default_field, parse_poly
from .solvers import RetriesExhausted, UncoveredCase

SEED_ENV_VAR = "BCHMIN_SEED"

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_VERIFY_FAIL = 2
EXIT_UNCOVERED = 3
EXIT_EXHAUSTED = 4
EXIT_PARSE = 5


# -- subcommands -------------------------------------------------------------


def _field(m: int, poly: str | None):
    """GF(2^m), under the --poly modulus if one is given.  An m outside
    2..32 raises UncoveredCase, a bad modulus ParseError."""
    try:
        return default_field(m, parse_poly(poly) if poly is not None else None)
    except UnsupportedDegree as exc:
        raise UncoveredCase(str(exc)) from exc
    except ValueError as exc:  # unparsable, wrong degree, not primitive
        raise ParseError(f"bad --poly {_echo(poly)}: {exc}") from exc


def _cmd_generate(args) -> int:
    if args.retries is not None and args.retries < 0:
        raise ParseError(f"--retries must be >= 0, got {args.retries}")
    ctx = _field(args.m, args.poly)
    cw, meta, spec = construct.generate(ctx, args.i, args.s, args.seed, args.method, args.retries)
    write = sys.stdout.write  # in pieces of at most _CHUNK entries
    if args.format == "json":
        render_json(ctx, cw, meta, write, spec)
        write("\n")
    elif args.format == "logsupport":
        render_logsupport(ctx, cw, write)
    else:
        render_bits(ctx, cw, write)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.input, "rb") as fh:
            cw = parse_support_file(fh.read())  # the bytes go before the verifier runs
    except OSError as exc:
        raise ParseError(f"cannot read {args.input}: {exc}") from exc
    except UnicodeDecodeError as exc:  # text mode would have refused the file on reading
        raise ParseError(f"{args.input} is not UTF-8 text: {exc}") from exc
    try:
        verdict = verify.is_min_weight(cw)
    except ValueError as exc:
        raise ParseError(f"malformed claim: {exc}") from exc
    print(json.dumps(vars(verdict), indent=2))  # the six fields, without asdict's deep copy
    return EXIT_OK if verdict.is_min_weight else EXIT_VERIFY_FAIL


def _cmd_table(args) -> int:
    ok = True
    seed = args.seed
    if args.which == "t27":
        rows = [(m, poly, exps, 3, m - 6) for m, (poly, exps) in sorted(BCH27_FIXTURES.items())]
    else:
        m, poly, exps = BCH23_FIXTURE
        rows = [(m, poly, exps, 2, 10)]
    for m, poly, exps, i, s in rows:
        ctx = default_field(m, poly)
        fix = CodewordSupport(ctx, [ctx.exp(e) for e in exps], len(exps), extended=False)
        v_fix = verify.is_min_weight(fix)
        try:
            cw, _, _ = construct.generate(default_field(m), i, s, seed)
        except UnverifiedSupport as exc:
            fresh_ok, fresh_text = False, f"verified=False ({exc})"
        else:
            fresh = construct.puncture(cw, int(cw.elems[0]))
            v_fresh = verify.is_min_weight(fresh)
            same = np.array_equal(fresh.elems, fix.elems)
            match = "set-equal" if same else "different-but-valid"
            fresh_ok = v_fresh.is_min_weight
            fresh_text = f"weight={v_fresh.weight} verified={fresh_ok} match={match}"
        print(
            f"m={m} fixture: weight={v_fix.weight} verified={v_fix.is_min_weight} | "
            f"fresh: {fresh_text}"
        )
        ok = ok and v_fix.is_min_weight and fresh_ok
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# An optional "-" and ASCII digits; int() also takes spaces, "_", "+" and
# non-ASCII digits, which a command line would then repair silently.
_INT = re.compile(r"-?[0-9]+")


def _int(text: str, source: str = "") -> int:
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value{source}: {_echo(text)}")
    return int(text)


def _seed(text: str) -> int:
    """--seed value; the default stands for $BCHMIN_SEED (else 0), read
    when the command line is parsed, so a parser built once stays current."""
    if text is _SEED_FROM_ENV:
        return _int(os.environ.get(SEED_ENV_VAR, "0"), f" in ${SEED_ENV_VAR}")
    return _int(text)


_SEED_FROM_ENV = f"${SEED_ENV_VAR}"


# A value argparse quotes in a usage error: an invalid choice or int
_QUOTED = re.compile(r"""(['"])((?:(?!\1)[^\\]|\\.)*)\1""")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ParseError (exit 5, one line) instead of
    printing the usage and exiting 2, the code of a verification failure.
    Each value it echoes, quoted or an unrecognized argument, is cut by
    `_quote`."""

    def error(self, message):
        head, sep, extra = message.partition("unrecognized arguments: ")
        head = _QUOTED.sub(lambda v: v[1] + _quote(v[2]) + v[1], head)
        raise ParseError(f"{self.prog}: {head}{sep}{' '.join(map(_quote, extra.split(' ')))}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bchmin",
        description=(
            "Construct and verify supports of minimum-weight codewords of "
            "(extended) binary BCH codes of designed distance "
            "2^(m-1-s) - 2^(m-1-i-s)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="construct one verified support")
    g.add_argument("--m", type=_int, required=True, help="extension degree")
    g.add_argument("--i", type=_int, required=True, help="distance family index")
    g.add_argument("--s", type=_int, default=0, help="down-conversion level (default 0)")
    g.add_argument("--seed", type=_seed, default=_SEED_FROM_ENV)
    g.add_argument("--poly", type=str, default=None, help="primitive polynomial override")
    g.add_argument("--method", choices=["auto", *construct.METHODS], default="auto")
    g.add_argument("--retries", type=_int, default=None, help="solver retry cap override")
    g.add_argument("--format", choices=["json", "logsupport", "bits"], default="json")
    g.set_defaults(func=_cmd_generate)

    v = sub.add_parser("verify", help="verify a serialized support file")
    v.add_argument("input", help="path to a JSON or log-support file")
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("table", help="verify a golden table and regenerate it")
    t.add_argument("which", choices=["t27", "t23"])
    t.add_argument("--seed", type=_seed, default=_SEED_FROM_ENV)
    t.set_defaults(func=_cmd_table)
    parser._commands = {"generate": g, "verify": v, "table": t}  # for `_parse`
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs ~10x what parsing does."""
    return build_parser()


# Each refusal a command raises: its exit code and the prefix of its message.
_REFUSALS = {
    UncoveredCase: (EXIT_UNCOVERED, "uncovered case: "),
    RetriesExhausted: (EXIT_EXHAUSTED, "solver exhausted: "),
    UnverifiedSupport: (EXIT_VERIFY_FAIL, ""),
    ParseError: (EXIT_PARSE, ""),
    MemoryError: (EXIT_UNCOVERED, "out of memory: "),  # numpy's _ArrayMemoryError too
}


def _parse(argv: list) -> argparse.Namespace:
    """build_parser().parse_args(argv), with the subcommand's parse done
    directly when argv[0] names one, as the full parser would hand argv[1:]
    on to it; extras it leaves are refused by the full parser, so the
    message starts "bchmin:" either way.  Anything else takes the full
    parser."""
    parser = _parser()
    command = parser._commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except tuple(_REFUSALS) as exc:
        code, prefix = next(v for kind, v in _REFUSALS.items() if isinstance(exc, kind))
        print(f"{prefix}{exc}", file=sys.stderr)
        return code
    except BrokenPipeError:  # the reader closed stdout early
        # what is left in the buffer goes to devnull when Python flushes it at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
