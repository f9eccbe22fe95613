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
import itertools
import json
import os
import re
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import construct, verify
from .construct import CodewordSupport, UnverifiedSupport
from .fixtures import BCH23_FIXTURE, BCH27_FIXTURES
from .gf2m import UnsupportedDegree, _quote, default_field, parse_poly
from .solvers import RetriesExhausted, UncoveredCase

SPEC_VERSION = 1
SEED_ENV_VAR = "BCHMIN_SEED"

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_VERIFY_FAIL = 2
EXIT_UNCOVERED = 3
EXIT_EXHAUSTED = 4
EXIT_PARSE = 5


class ParseError(ValueError):
    """Unreadable support file, field modulus or command line."""


# -- serialization -----------------------------------------------------------

# Entry lists this long or longer are written as byte records by numpy; a
# shorter one by str() and join.  numpy's fixed cost, about 20 us per run of
# equal digit count, is repaid near 450 entries of the grid's supports.
_VECTOR_MIN = 512
_CHUNK = 1 << 16  # entries per piece written, which bounds the memory of a large support
_CHARS = np.frombuffer(b"0123456789abcdef", np.uint8)
# the least value of each digit count past 1: decimal int32 logs, hex uint64 elements
_LIMITS = {10: 10 ** np.arange(1, 10, dtype=np.int32), 16: 16 ** np.arange(1, 16, dtype=np.uint64)}


def _entries(ctx, elems: np.ndarray) -> np.ndarray:
    """The entries written for the ascending elements elems, in their
    order: int32 discrete logs (`GF2m.logs`), -1 for the zero element
    (first in elems), when the field has logs; otherwise elems itself,
    written in hex."""
    if not ctx.has_logs:
        return elems
    zero = int(len(elems) > 0 and elems[0] == 0)
    logs = np.empty(len(elems), np.int32)
    logs[:zero] = -1
    logs[zero:] = ctx.logs(elems[zero:])
    return logs


def _ascending(entries: np.ndarray) -> np.ndarray:
    """`_entries` as written, ascending: logs sorted in place (the -1
    first); hex entries ascend already."""
    if entries.dtype == np.int32:
        entries.sort()
    return entries


def _write_entries(write, values: np.ndarray, sep: str, quoted: bool = False) -> None:
    """write(sep.join(...)) of the ascending entries `values`: int32 ones in
    decimal (a -1 only first), uint64 ones as hex(v), a JSON string if
    `quoted`.  A long list goes as fixed-width byte records, one run of equal
    digit count at a time (the list is sorted, so each run is contiguous),
    with its digits by scalar divide and remainder, in pieces of at most
    _CHUNK entries."""
    base = 10 if values.dtype == np.int32 else 16
    quote = '"' if quoted and base == 16 else ""
    if len(values) < _VECTOR_MIN:
        write(sep.join(map(str if base == 10 else f"{quote}{{:#x}}{quote}".format, values.tolist())))
        return
    drop = len(sep)  # no separator before the first entry
    if values[0] < 0:
        write("-1")
        values, drop = values[1:], 0
    head = np.frombuffer((sep + quote + "0x" * (base == 16)).encode(), np.uint8)
    tail = np.frombuffer(quote.encode(), np.uint8)
    h = len(head)
    for start in range(0, len(values), _CHUNK):
        block = values[start:start + _CHUNK]
        cuts = [0, *np.searchsorted(block, _LIMITS[base]).tolist(), len(block)]
        for digits, (lo, hi) in enumerate(itertools.pairwise(cuts), 1):
            if lo == hi:
                continue
            rec = np.empty((hi - lo, h + digits + len(tail)), np.uint8)
            rec[:, :h] = head
            rec[:, h + digits:] = tail
            x = block[lo:hi]
            for col in range(h + digits - 1, h - 1, -1):
                q = x // base
                rec[:, col] = _CHARS[x - q * base]
                x = q
            write(str(rec.reshape(-1)[drop:], "ascii"))
            drop = 0


def _written(write, body, *args):
    """body(*args, write): through `write` if given, else the pieces joined
    into the str returned."""
    if write is not None:
        return body(*args, write)
    pieces = []
    body(*args, pieces.append)
    return "".join(pieces)


def _json_doc(doc: dict, write) -> None:
    """json.dumps(doc, indent=2) of a nonempty flat document whose lists
    each hold ints or strings, written piece by piece: the stdlib's
    indenting encoder runs in pure Python, one call per value.  An int is
    written by str(), a string by json's own ASCII encoder, as json.dumps
    does, a nonempty array by `_write_entries` as a list of ints or hex
    strings, and anything else by json.dumps."""
    write("{\n  ")
    for n, (key, value) in enumerate(doc.items()):
        write(",\n  " * (n > 0) + _json_str(key) + ": ")
        if isinstance(value, np.ndarray):
            write("[\n    ")
            _write_entries(write, value, ",\n    ", quoted=True)
            write("\n  ]")
        else:
            items = value if isinstance(value, list) and value else None
            kind = type(items[0] if items else value)
            put = str if kind is int else _json_str if kind is str else json.dumps
            write("[\n    " + ",\n    ".join(map(put, items)) + "\n  ]" if items else put(value))
    write("\n}")


def render_json(ctx, cw: CodewordSupport, meta: dict, write=None, spec=None) -> str | None:
    """The JSON document of a support: written piece by piece through
    write(str) if given, else returned.  Given the SupportSpec the support
    was expanded from, X and B follow meta; X, a subset of the support,
    takes its entries from the support's, logged once."""
    entries = _entries(ctx, cw.elems)
    parts = {}
    if spec is not None:
        parts["X"] = _ascending(entries[np.searchsorted(cw.elems, spec.x_set)])
        basis = np.array(spec.basis, dtype=np.uint64)  # all nonzero
        parts["B"] = ctx.logs(basis).tolist() if ctx.has_logs else list(map(hex, spec.basis))
    doc = {
        "spec_version": SPEC_VERSION,
        "m": ctx.m,
        "poly": hex(ctx.poly),
        "d": cw.claimed_distance,
        "extended": cw.extended,
        "support": _ascending(entries),
        "verified": True,
    }
    doc.update(meta)
    doc.update(parts)
    return _written(write, _json_doc, doc)


def _text_doc(ctx, cw: CodewordSupport, values: np.ndarray, sep: str, write) -> None:
    """The header line of the two text formats, then the entries."""
    write(f"m={ctx.m} poly={hex(ctx.poly)} d={cw.claimed_distance} extended={int(cw.extended)}\n")
    _write_entries(write, values, sep)
    write("\n")


def render_logsupport(ctx, cw: CodewordSupport, write=None) -> str | None:
    """The log-support text of a support, written or returned as by
    `render_json`; hex element values when the field has no log tables."""
    return _written(write, _text_doc, ctx, cw, _ascending(_entries(ctx, cw.elems)), ",")


def render_bits(ctx, cw: CodewordSupport, write=None) -> str | None:
    """The bits text of a support, written or returned as by `render_json`."""
    return _written(write, _text_doc, ctx, cw, cw.elems, "\n")


# Byte classes 0-4: separators, blanks, entry bytes, hex letters, all other bytes.
_GROUPS = (b",\n\r\v\f\x1c\x1d\x1e", b" \t\x1f", b"-x0123456789", b"abcdefABCDEF")
_TEXT_BYTES = bytes(next((k for k, g in enumerate(_GROUPS) if c in g), 4) for c in range(256))
_JSON_BYTES = bytes(4 if k < 2 and c != ord(",") else k for c, k in enumerate(_TEXT_BYTES))
_DIGITS = bytes(int(c, 16) if c in "0123456789abcdefABCDEF" else 0 for c in map(chr, range(256)))
_SPACES = {c: " \n"[c in (0x85, 0x2028, 0x2029)] for c in range(0x80, 0x3001) if chr(c).isspace()}
_BREAK = re.compile("[\n\r\v\f\x1c-\x1e][,\n\r\v\f\x1c-\x1e \t\x1f]*")  # and the separators after


def _decode(ctx, data: bytes, start: int, classes: bytes = _TEXT_BYTES, count=None):
    """Field elements of the support data[start:] ("?" for a non-ASCII character): entries
    all hex (`count` of them if given) or all logs.  data and data[:start] (16 bytes or more)
    end in a separator."""
    raw = np.frombuffer(data, dtype=np.uint8, offset=start)
    cls = np.frombuffer(data.translate(classes), dtype=np.uint8, offset=start - 1)
    edges = np.flatnonzero(np.diff(cls >= 2))
    starts, ends = edges[::2], edges[1::2]  # of the entries
    lengths, neg = ends - starts, raw[starts] == ord("-")  # "-" only in the entry -1
    if logs := not (cls == 3).any() and data.find(b"x", start) < 0:
        form = (lengths[neg] == 2).all() and (raw[ends[neg] - 1] == ord("1")).all()
    else:  # "0x" and hex digits
        form = (lengths > 2).all() and data.count(b"x", start) == len(starts)
        form = form and (raw[starts] == ord("0")).all() and (raw[1:][starts] == ord("x")).all()
    gap = (cls == 1).any() and not np.logical_or.reduceat(cls[1:] == 0, edges[1:-1])[::2].all()
    bad = gap or (cls == 4).any() or count not in (None, len(starts) * (not logs))  # blanks only
    if bad or not form or data.count(b"-", start) != np.count_nonzero(neg) * logs:
        raise ParseError("support entries must be all 0x-hex values or all decimal logs")
    if logs and (long := lengths > 4300).any():  # beyond int()'s default limit: always refused
        j = start + int(starts[np.argmax(long)])
        raise ParseError(f"discrete log {data[j:j + 12].decode()}... has over 4300 digits")
    base, skip, width = (10, 0, 16 if lengths.max(initial=0) > 8 else 8) if logs else (16, 2, 8)
    del cls  # an entry's last `width` bytes as digits, by weights; the mod drops bytes before it
    win = np.ndarray((len(data) - width + 1,), f"V{width}", data.translate(_DIGITS), 0, (1,))
    win = win[ends + start - width].view(np.uint8).reshape(-1, width)
    values = np.einsum("ij,j->i", win, base ** np.arange(width - 1, -1, -1))
    values %= np.array([base**k for k in range(width + 1)])[np.minimum(lengths - skip, width)]
    if len(long := np.flatnonzero(lengths - skip > width)):  # digits before the window: zeros
        cuts = np.stack([starts[long] + skip, ends[long] - width], axis=1).ravel()
        values[long[np.logical_or.reduceat(raw > ord("0"), cuts)[::2]]] = ctx.n + 1  # out of range
    values[neg] = -1
    return _elements(ctx, values, logs, lambda j: int(raw[starts[j]:ends[j]].tobytes(), base))


def _elements(ctx, values: np.ndarray, logs: bool, entry):
    """Field elements of decoded entries: discrete logs (-1 for zero) if `logs`,
    else element values; the first outside the field is refused, entry(j) cut by `_quote`."""
    if (bad := (values < -logs) | (values > ctx.n - logs)).any():
        bad = entry(int(np.argmax(bad)))
        raise ParseError(f"discrete log {_quote(str(bad))} is outside -1..{ctx.n - 1}" if logs else
                         f"element {_quote(hex(bad))} is outside GF(2^{ctx.m})")
    if logs and ctx.has_logs:
        zero = values < 0
        values[zero] = 0  # in place: values is this parse's own array
        elems = ctx.elems(values)
        elems[zero] = 0
        return elems
    return [0 if v == -1 else ctx.exp(v) for v in values.tolist()] if logs else values


def _echo(value) -> str:
    """The repr of a refused value, cut by `_quote`: a string before it is
    quoted, anything else after."""
    return repr(_quote(value)) if isinstance(value, str) else _quote(repr(value))


def _json_int(doc: dict, key: str) -> int:
    """A JSON integer field; floats, strings and booleans are refused."""
    value = doc[key]
    if type(value) is not int:
        raise ParseError(f"{key} must be a JSON integer, got {_echo(value)}")
    return value


def _text_int(fields: dict, key: str) -> int:
    """A header field of decimal digits; signs, spaces and the rest are refused."""
    value = fields[key]
    if not (value.isascii() and value.isdigit()):
        raise ParseError(f"{key} must be decimal digits, got {_echo(value)}")
    if len(value) > 4300:  # beyond int()'s default limit: always refused
        raise ParseError(f"{key}={_quote(value)} has over 4300 digits")
    return int(value)


def _unique_names(pairs: list) -> dict:
    """The dict of (name, value) pairs of a JSON object or a text header; a
    repeated name is refused, not resolved to its last value; three at most are quoted."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        names = sorted(_quote(k) for k, c in Counter(k for k, _ in pairs).items() if c > 1)
        raise ParseError(f"repeated names {names[:3]}" + "..." * (len(names) > 3))
    return doc


def parse_support_file(text: str) -> CodewordSupport:
    """Accept the JSON document or the two-line log-support / bits format;
    raise ParseError on anything malformed."""
    text = text.strip()
    if not text:
        raise ParseError("empty input")
    if text.startswith("{"):
        try:
            try:
                doc = json.loads(text, object_pairs_hook=_unique_names)
            except ValueError as exc:  # not a JSONDecodeError: an int past int()'s digit limit
                if type(exc) is ValueError and (long := re.search(r"\d{4301,}", text)):
                    raise ParseError(f"number {long[0][:12]}... has over 4300 digits") from exc
                raise
            if doc.get("spec_version") != SPEC_VERSION:
                raise ParseError(f"unsupported spec_version {_echo(doc.get('spec_version'))}")
            if not isinstance(doc["support"], list) or not isinstance(doc["extended"], bool):
                raise ParseError("support must be a list and extended a boolean")
            if type(doc["poly"]) not in (int, str):
                raise ParseError(f"poly must be a string or an integer, got {_echo(doc['poly'])}")
            ctx = default_field(_json_int(doc, "m"), parse_poly(doc["poly"]))
            if (kinds := set(map(type, support := doc["support"]))) == {int}:  # logs, or hex
                elems = _elements(ctx, np.array(support), True, support.__getitem__)
            elif kinds <= {str}:
                data = ("," * 16 + ",".join(support) + ",").encode("ascii", "replace")
                elems = _decode(ctx, data, 16, _JSON_BYTES, len(support))
            else:
                bad = next(v for v in support if type(v) not in {int, str} & {type(support[0])})
                raise ParseError(f"support entries must be ints or 0x-hex strings, got {_echo(bad)}")
            return CodewordSupport(ctx, elems, _json_int(doc, "d"), doc["extended"])
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            missing = "missing field " * isinstance(exc, KeyError)
            raise ParseError(f"bad JSON support file: {missing}{exc}") from exc
    try:
        text = (text if text.isascii() else text.translate(_SPACES)) + "\n"
        head, start = text[:(brk := _BREAK.search(text)).start()], brk.end()
        fields = [part.split("=", 1) for part in head.split()]
        if bad := next((name for name, *value in fields if not value), None):
            raise ParseError(f"header entry {_echo(bad)} is not name=value")
        fields = _unique_names(fields)
        ctx = default_field(_text_int(fields, "m"), parse_poly(fields["poly"]))
        if start == len(text) or fields["extended"] not in ("0", "1"):
            raise ParseError("need support entries and extended=0 or 1")
        elems = _decode(ctx, (text := text.encode("ascii", "replace")), start)  # the str goes
        return CodewordSupport(ctx, elems, _text_int(fields, "d"), fields["extended"] == "1")
    except (KeyError, ValueError, IndexError) as exc:
        missing = "missing field " * isinstance(exc, KeyError)
        raise ParseError(f"bad log-support file: {missing}{exc}") from exc


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
