"""Command-line interface: generate verified minimum-weight supports,
re-verify serialized supports, and reproduce the bundled golden tables.

Exit codes: 0 success / verified, 2 verification failure (also a generated
support that fails its self-verification), 3 uncovered parameter
combination, 4 solver retries exhausted, 5 parse error (also a command line
the parser refuses).  Commands and the parser report a refusal by raising;
`_REFUSALS` maps each refusal to its exit code and message prefix, and
`main` is the one place that applies it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
from collections import Counter
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import construct, verify
from .construct import CodewordSupport, UnverifiedSupport
from .fixtures import BCH23_FIXTURE, BCH27_FIXTURES
from .gf2m import UnsupportedDegree, default_field, parse_poly
from .solvers import RetriesExhausted, UncoveredCase

SPEC_VERSION = 1
SEED_ENV_VAR = "BCHMIN_SEED"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_UNCOVERED = 3
EXIT_EXHAUSTED = 4
EXIT_PARSE = 5


class ParseError(ValueError):
    """Unreadable support file, field modulus or command line."""


# -- serialization -----------------------------------------------------------


def _sorted_out(ctx, elems: np.ndarray) -> list:
    """The sorted uint64 elements as written out, sorted: discrete logs
    from one gather, with -1 for the zero element (first in elems) first,
    when the field has log tables; hex otherwise."""
    if not ctx.has_logs:
        return list(map(hex, elems.tolist()))
    zero = int(len(elems) > 0 and elems[0] == 0)
    return [-1] * zero + np.sort(ctx.log_array()[elems[zero:]]).tolist()


def _json_doc(doc: dict) -> str:
    """json.dumps(doc, indent=2) of a nonempty flat document whose lists
    each hold ints or strings, written directly: the stdlib's indenting
    encoder runs in pure Python, one call per value.  An int is written by
    str(), a string by json's own ASCII encoder, as json.dumps does, and
    anything else by json.dumps."""
    fields = []
    for key, value in doc.items():
        items = value if isinstance(value, list) and value else None
        kind = type(items[0] if items else value)
        write = str if kind is int else _json_str if kind is str else json.dumps
        value = "[\n    " + ",\n    ".join(map(write, items)) + "\n  ]" if items else write(value)
        fields.append(f"{_json_str(key)}: {value}")
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def render_json(ctx, cw: CodewordSupport, meta: dict) -> str:
    doc = {
        "spec_version": SPEC_VERSION,
        "m": ctx.m,
        "poly": hex(ctx.poly),
        "d": cw.claimed_distance,
        "extended": cw.extended,
        "support": _sorted_out(ctx, cw.elems),
        "verified": True,
    }
    doc.update(meta)
    return _json_doc(doc)


def _text_doc(ctx, cw: CodewordSupport, body: str) -> str:
    """The header line of the two text formats, then `body`."""
    return (
        f"m={ctx.m} poly={hex(ctx.poly)} d={cw.claimed_distance} "
        f"extended={1 if cw.extended else 0}\n{body}\n"
    )


def render_logsupport(ctx, cw: CodewordSupport) -> str:
    # falls back to hex element values when the field has no log tables
    return _text_doc(ctx, cw, ",".join(map(str, _sorted_out(ctx, cw.elems))))


def render_bits(ctx, cw: CodewordSupport) -> str:
    return _text_doc(ctx, cw, "\n".join(map(hex, cw.elems.tolist())))


# The two forms of support entries, each matched once against all of a
# file's entries with a comma after each: element values, "0x" and hex
# digits (JSON strings), and discrete logs, decimal digits or -1 (JSON
# integers).  Joining fails on a JSON value that is not a string, and a
# JSON string holding a comma passes the match but fails int().
_HEX_ENTRIES = re.compile(r"(?:0x[0-9a-fA-F]+,)*")
_LOG_ENTRIES = re.compile(r"(?:[0-9]+,|-1,)*")


def _elements(ctx, entries: list, logs: bool):
    """Decode support entries: discrete logs (ints, -1 for zero) if `logs`,
    else hex element values ("0x" and hex digits, anything else refused),
    in their order.  Values outside the field are refused, not repaired;
    so are repeated entries, by CodewordSupport."""
    n = ctx.n
    if logs:
        if not -1 <= min(entries) <= max(entries) < n:
            bad = next(v for v in entries if not -1 <= v < n)
            raise ParseError(f"discrete log {bad} is outside -1..{n - 1}")
        if ctx.has_logs:
            logs = np.array(entries, dtype=np.int64)
            elems = np.where(logs < 0, 0, ctx.exp_array()[logs])
        else:
            elems = [0 if v == -1 else ctx.exp(v) for v in entries]
    else:
        if entries and not _HEX_ENTRIES.fullmatch(",".join(entries) + ","):
            raise ParseError("support entries must be all 0x-hex values or all decimal logs")
        elems = list(map(int, entries, repeat(16)))
        if elems and not 0 <= min(elems) <= max(elems) <= n:
            bad = next(x for x in elems if not 0 <= x <= n)
            raise ParseError(f"element {hex(bad)} is outside GF(2^{ctx.m})")
    return elems


def _json_int(doc: dict, key: str) -> int:
    """A JSON integer field; floats, strings and booleans are refused."""
    value = doc[key]
    if type(value) is not int:
        raise ParseError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _text_int(fields: dict, key: str) -> int:
    """A header field of decimal digits; signs, spaces and the rest are
    refused."""
    value = fields[key]
    if not (value.isascii() and value.isdigit()):
        raise ParseError(f"{key} must be decimal digits, got {value!r}")
    return int(value)


def _unique_names(pairs: list) -> dict:
    """The dict of (name, value) pairs of a JSON object or a text header; a
    repeated name is refused, not resolved to its last value."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        counts = Counter(k for k, _ in pairs)
        raise ParseError(f"repeated names {sorted(k for k, c in counts.items() if c > 1)}")
    return doc


def parse_support_file(text: str) -> CodewordSupport:
    """Accept the JSON document or the two-line log-support / bits format;
    raise ParseError on anything malformed."""
    text = text.strip()
    if not text:
        raise ParseError("empty input")
    if text.startswith("{"):
        try:
            doc = json.loads(text, object_pairs_hook=_unique_names)
            if doc.get("spec_version") != SPEC_VERSION:
                raise ParseError(f"unsupported spec_version {doc.get('spec_version')!r}")
            if not isinstance(doc["support"], list) or not isinstance(doc["extended"], bool):
                raise ParseError("support must be a list and extended a boolean")
            if type(doc["poly"]) not in (int, str):
                raise ParseError(f"poly must be a string or an integer, got {doc['poly']!r}")
            ctx = default_field(_json_int(doc, "m"), parse_poly(doc["poly"]))
            support = doc["support"]
            elems = _elements(ctx, support, bool(support) and all(type(v) is int for v in support))
            return CodewordSupport(ctx, elems, _json_int(doc, "d"), doc["extended"])
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise ParseError(f"bad JSON support file: {exc}") from exc
    try:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        fields = _unique_names([part.split("=", 1) for part in lines[0].split()])
        ctx = default_field(_text_int(fields, "m"), parse_poly(fields["poly"]))
        body = [e for ln in lines[1:] for v in ln.split(",") if (e := v.strip())]
        if not body or fields["extended"] not in ("0", "1"):
            raise ParseError("need support entries and extended=0 or 1")
        logs = _LOG_ENTRIES.fullmatch(",".join(body) + ",") is not None
        elems = _elements(ctx, list(map(int, body)) if logs else body, logs)
        return CodewordSupport(ctx, elems, _text_int(fields, "d"), fields["extended"] == "1")
    except (KeyError, ValueError, IndexError) as exc:
        raise ParseError(f"bad log-support file: {exc}") from exc


# -- subcommands -------------------------------------------------------------


def _field(m: int, poly: str | None):
    """GF(2^m), under the --poly modulus if one is given.  An m outside
    2..32 raises UncoveredCase, a bad modulus ParseError."""
    try:
        return default_field(m, parse_poly(poly) if poly is not None else None)
    except UnsupportedDegree as exc:
        raise UncoveredCase(str(exc)) from exc
    except ValueError as exc:  # unparsable, wrong degree, not primitive
        raise ParseError(f"bad --poly {poly!r}: {exc}") from exc


def _cmd_generate(args) -> int:
    if args.retries is not None and args.retries < 0:
        raise ParseError(f"--retries must be >= 0, got {args.retries}")
    ctx = _field(args.m, args.poly)
    cw, meta, spec = construct.generate(ctx, args.i, args.s, args.seed, args.method, args.retries)
    if args.format == "json":
        meta["X"] = _sorted_out(ctx, np.array(sorted(spec.x_set), dtype=np.uint64))
        meta["B"] = [ctx.log(x) if ctx.has_logs else hex(x) for x in spec.basis]  # all nonzero
        print(render_json(ctx, cw, meta))
    elif args.format == "logsupport":
        print(render_logsupport(ctx, cw), end="")
    else:
        print(render_bits(ctx, cw), end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {args.input}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.input} is not UTF-8 text: {exc}") from exc
    cw = parse_support_file(text)
    try:
        verdict = verify.is_min_weight(cw)
    except ValueError as exc:
        raise ParseError(f"malformed claim: {exc}") from exc
    print(json.dumps(dataclasses.asdict(verdict), indent=2))
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
        fix = CodewordSupport(ctx, _elements(ctx, list(exps), True), len(exps), extended=False)
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
        raise argparse.ArgumentTypeError(f"invalid int value{source}: {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """--seed value; the default stands for $BCHMIN_SEED (else 0), read
    when the command line is parsed, so a parser built once stays current."""
    if text is _SEED_FROM_ENV:
        return _int(os.environ.get(SEED_ENV_VAR, "0"), f" in ${SEED_ENV_VAR}")
    return _int(text)


_SEED_FROM_ENV = f"${SEED_ENV_VAR}"


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ParseError (exit 5, one line) instead of
    printing the usage and exiting 2, the code of a verification failure."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


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
    g.add_argument(
        "--method",
        choices=["auto", *construct.METHODS],
        default="auto",
    )
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
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except tuple(_REFUSALS) as exc:
        code, prefix = _REFUSALS[type(exc)]
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
