"""A frozen copy of the support-file parser as it stood before text bodies
were validated and decoded as whole arrays: the oracle of the differential
test in test_cli.py.  Only the imports differ from that parser, and the
docstrings are dropped; keep it as it is."""

from __future__ import annotations

import json
import re
from collections import Counter
from itertools import repeat

import numpy as np

from bchmin.cli import SPEC_VERSION, ParseError
from bchmin.construct import CodewordSupport
from bchmin.gf2m import default_field, parse_poly

_HEX_ENTRIES = re.compile(r"(?:0x[0-9a-fA-F]+,)*")
_LOG_ENTRIES = re.compile(r"(?:[0-9]+,|-1,)*")


def _elements(ctx, entries: list, logs: bool):
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
    value = doc[key]
    if type(value) is not int:
        raise ParseError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _text_int(fields: dict, key: str) -> int:
    value = fields[key]
    if not (value.isascii() and value.isdigit()):
        raise ParseError(f"{key} must be decimal digits, got {value!r}")
    return int(value)


def _unique_names(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        counts = Counter(k for k, _ in pairs)
        raise ParseError(f"repeated names {sorted(k for k, c in counts.items() if c > 1)}")
    return doc


def parse_support_file(text: str) -> CodewordSupport:
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
