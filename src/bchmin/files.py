"""Support files: the JSON document and the log-support and bits texts that
`bchmin generate` writes and `bchmin verify` reads, both in pieces of at
most `_CHUNK` entries."""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .construct import CodewordSupport
from .gf2m import _quote, default_field, parse_poly

SPEC_VERSION = 1


class ParseError(ValueError):
    """Unreadable support file, field modulus or command line."""


# -- serialization -----------------------------------------------------------

# Entry lists this long or longer are written as byte records by numpy; a
# shorter one by str() and join.  numpy's fixed cost, about 20 us per run of
# equal digit count, is repaid near 450 entries of the grid's supports.
_VECTOR_MIN = 512
_CHUNK = 1 << 16  # entries per piece written or read, which bounds the memory of a large support
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
    pieces = []
    body(*args, pieces.append if write is None else write)
    return "".join(pieces) if write is None else None


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
_BLANKS = re.compile(rb"[ \t\n\r\v\f\x1c-\x1f]*")  # the ASCII whitespace str.strip drops
_BREAK = re.compile(rb"[\n\r\v\f\x1c-\x1e][,\n\r\v\f\x1c-\x1e \t\x1f]*")  # and the separators after
_PIECE = 2 * _CHUNK  # bytes read at a time: at most _CHUNK entries, as each is followed by a byte


def _decode(ctx, data: bytes, start: int, classes: bytes = _TEXT_BYTES, count=None):
    """Field elements of the support data[start:] ("?" for a non-ASCII character): entries
    all hex (`count` of them if given) or all logs.  data[:start] (16 bytes or more) ends
    in a separator or a blank.  The entries are decoded in pieces of at most _CHUNK into one
    array, and refused as the whole body is: a form error in any piece outranks the first
    entry of over 4300 digits, which outranks the first entry outside the field."""
    values = np.empty((len(data) - start + 1) // 2, np.int64)  # pages past the entries stay untouched
    filled, kinds, late = 0, set(), {}  # kinds: logs or not, of each piece with entries
    while start < len(data):  # a piece ends at its last separator, or at the end with one put after
        cls = data[start - 1:start + _PIECE].translate(classes)
        if start + _PIECE < len(data) and (cut := cls.rfind(b"\0")) > 0:
            stop, cls = start + cut, np.frombuffer(cls, np.uint8, cut + 1)
        else:  # the last piece, or one with no separator: the rest of data
            stop, cls = len(data), np.frombuffer(data[start - 1:].translate(classes) + b"\0", np.uint8)
        raw = np.frombuffer(data, np.uint8, stop - start, start)
        edges = np.flatnonzero(np.diff(cls >= 2))
        starts, ends = edges[::2], edges[1::2]  # of the entries
        lengths, neg = ends - starts, raw[starts] == ord("-")  # "-" only in the entry -1
        if logs := not (cls == 3).any() and data.find(b"x", start, stop) < 0:
            form = (lengths[neg] == 2).all() and (raw[ends[neg] - 1] == ord("1")).all()
        else:  # "0x" and hex digits
            form = (lengths > 2).all() and data.count(b"x", start, stop) == len(starts)
            form = form and (raw[starts] == ord("0")).all() and (raw[1:][starts] == ord("x")).all()
        gap = (cls == 1).any() and not np.logical_or.reduceat(cls[1:] == 0, edges[1:-1])[::2].all()
        kinds.update([logs] * (len(starts) > 0))
        bad = gap or (cls == 4).any() or len(kinds) > 1  # blanks only, other bytes, mixed forms
        if bad or not form or data.count(b"-", start, stop) != np.count_nonzero(neg) * logs:
            raise ParseError("support entries must be all 0x-hex values or all decimal logs")
        if logs and (long := lengths > 4300).any():  # beyond int()'s default limit: always refused
            j = start + int(starts[np.argmax(long)])
            late.setdefault("long", f"discrete log {data[j:j + 12].decode()}... has over 4300 digits")
        base, skip, width = (10, 0, 16 if lengths.max(initial=0) > 8 else 8) if logs else (16, 2, 8)
        del cls  # an entry's last `width` bytes as digits, by weights; the mod drops bytes before it
        digits = data[start - 16:stop].translate(_DIGITS)
        win = np.ndarray((len(digits) - width + 1,), f"V{width}", digits, 0, (1,))
        win = win[ends + 16 - width].view(np.uint8).reshape(-1, width)
        out = values[filled:filled + len(starts)]
        np.einsum("ij,j->i", win, base ** np.arange(width - 1, -1, -1), out=out)
        out %= np.array([base**k for k in range(width + 1)])[np.minimum(lengths - skip, width)]
        if len(long := np.flatnonzero(lengths - skip > width)):  # digits before the window: zeros
            cuts = np.stack([starts[long] + skip, ends[long] - width], axis=1).ravel()
            out[long[np.logical_or.reduceat(raw > ord("0"), cuts)[::2]]] = ctx.n + 1  # out of range
        out[neg] = -1
        entry = lambda j: int(raw[starts[j]:ends[j]].tobytes(), base)  # noqa: E731
        if not late and (outside := _outside(ctx, out, logs, entry)):
            late["outside"] = outside
        filled, start = filled + len(starts), stop
    logs = False not in kinds
    if count not in (None, filled * (not logs)):
        raise ParseError("support entries must be all 0x-hex values or all decimal logs")
    if late:
        raise ParseError(late.get("long", late.get("outside")))
    return _elements(ctx, values[:filled], logs)


def _outside(ctx, values: np.ndarray, logs: bool, entry) -> str | None:
    """The refusal of the first decoded entry outside the field, entry(j) cut by
    `_quote`, if there is one: discrete logs (-1 for zero) if `logs`, else element values."""
    if (bad := (values < -logs) | (values > ctx.n - logs)).any():
        bad = entry(int(np.argmax(bad)))
        return (f"discrete log {_quote(str(bad))} is outside -1..{ctx.n - 1}" if logs else
                f"element {_quote(hex(bad))} is outside GF(2^{ctx.m})")
    return None


def _elements(ctx, values: np.ndarray, logs: bool):
    """Field elements of decoded entries inside the field: discrete logs (-1 for
    zero) if `logs`, converted over the whole array at once, else element values."""
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


def parse_support_file(data: bytes | str) -> CodewordSupport:
    """Accept the JSON document or the two-line log-support / bits format, as
    a str or as the bytes of a file, read as text mode reads them: UTF-8 (a
    UnicodeDecodeError is the caller's to report) with universal newlines.
    Raise ParseError on anything malformed.  An ASCII text body goes from the
    bytes to `_decode`; only non-ASCII input is decoded to a str."""
    if isinstance(data, bytes) and (not data.isascii() or data.startswith(b"{", _BLANKS.match(data).end())):
        data = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")  # as text mode reads it
    text = data.strip() if isinstance(data, str) else None
    if text is not None and text.startswith("{"):
        del data  # so json.loads runs with one copy of the document
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
                if outside := _outside(ctx, values := np.array(support), True, support.__getitem__):
                    raise ParseError(outside)
                elems = _elements(ctx, values, True)
            elif kinds <= {str}:
                data = ("," * 16 + ",".join(support)).encode("ascii", "replace")
                elems = _decode(ctx, data, 16, _JSON_BYTES, len(support))
            else:
                bad = next(v for v in support if type(v) not in {int, str} & {type(support[0])})
                raise ParseError(f"support entries must be ints or 0x-hex strings, got {_echo(bad)}")
            return CodewordSupport(ctx, elems, _json_int(doc, "d"), doc["extended"])
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            missing = "missing field " * isinstance(exc, KeyError)
            raise ParseError(f"bad JSON support file: {missing}{exc}") from exc
    if text is not None:  # one byte per character: non-ASCII whitespace as blanks and breaks
        text = text if text.isascii() else text.translate(_SPACES)
        data = text.encode("ascii", "replace")
    if (lo := _BLANKS.match(data).end()) == len(data):
        raise ParseError("empty input")
    try:
        brk = _BREAK.search(data, lo)
        cut, start = brk.span() if brk else (len(data), len(data))
        head = data[lo:cut].decode("ascii") if text is None else text[lo:cut]
        fields = [part.split("=", 1) for part in head.split()]
        if bad := next((name for name, *value in fields if not value), None):
            raise ParseError(f"header entry {_echo(bad)} is not name=value")
        fields = _unique_names(fields)
        ctx = default_field(_text_int(fields, "m"), parse_poly(fields["poly"]))
        if start == len(data) or fields["extended"] not in ("0", "1"):
            raise ParseError("need support entries and extended=0 or 1")
        elems = _decode(ctx, data, start)
        return CodewordSupport(ctx, elems, _text_int(fields, "d"), fields["extended"] == "1")
    except (KeyError, ValueError, IndexError) as exc:
        missing = "missing field " * isinstance(exc, KeyError)
        raise ParseError(f"bad log-support file: {missing}{exc}") from exc
