"""The four benchmark workloads as lists of `bchmin` CLI operations.

Every operation is one in-process call of `bchmin.cli.main(argv)`.  A
workload is run in whole passes over its operation list, so every run does
the same mix of work whatever its speed.  Nothing here imports `bchmin` at
module level: importing the package is part of the timed set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Expected exit code of each operation kind.  `malformed` files are the
# trust-boundary inputs that should be refused as parse errors (exit 5).
EXPECTED_EXIT = {"generate": 0, "valid": 0, "corrupt": 2, "malformed": 5}

# The kind of malformed copy made from a valid file of each format.
MALFORMED_BY_FORMAT = {
    "bits": "hex_out_of_range",
    "json": "duplicate_entry",
    "logsupport": "exponent_ge_n",
}

CORRUPT_COPIES = 3
FORMATS = ("json", "logsupport", "bits")

# m = 17..24 pay for lazy log tables; three of them (17, 20, 24) keep the
# triple set-up inside the run budget while still showing the largest table.
LARGE_M_TABLED = (17, 20, 24)
LARGE_M_TABLE_FREE = tuple(range(25, 33))

# Supports re-verified by `verify_files`: acceptance costs 2..60 ms each.
VERIFY_CELLS = (
    (10, 2, 0),
    (12, 4, 0),
    (13, 3, 3),
    (14, 3, 4),
    (16, 2, 4),
    (16, 4, 4),
    (16, 3, 3),
)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str
    cell: tuple[int, int, int] | None = None  # (m, i, s) of a generate op

    @property
    def expect(self) -> int:
        return EXPECTED_EXIT[self.kind]


def gen_op(m: int, i: int, s: int, seed: int, method: str = "auto") -> Op:
    argv = ["generate", "--m", str(m), "--i", str(i), "--s", str(s), "--seed", str(seed)]
    if method != "auto":
        argv += ["--method", method]
    return Op(tuple(argv), "generate", (m, i, s))


def grid_cells() -> list[tuple[int, int, int, str]]:
    """The 187 acceptance cells: every covered (m, i, s) for m = 4..16."""
    cells = []
    for m in range(4, 17):
        cells += [(m, 2, s, "auto") for s in range(m - 3)]
    for m in (6, 15):
        cells += [(m, 2, s, "i2composite") for s in range(m - 3)]
    for m in range(6, 17):
        cells += [(m, 3, s, "auto") for s in range(m - 5)]
    for m in (8, 12, 16):
        cells += [(m, 4, s, "auto") for s in range(m - 7)]
    return cells


def small_d_cells() -> list[tuple[int, int, int, str]]:
    """Every route at the smallest distance d(m, m - 2i, i), m = 5..16; the
    gold, gk and i2composite overrides also one s below native."""
    cells = []
    for m in range(5, 17):
        cells.append((m, 2, m - 4, "auto"))
        if m >= 6:
            cells.append((m, 3, m - 6, "auto"))
        if m % 4 == 0:
            cells.append((m, 4, m - 8, "auto"))
        for i in (2, 3, 4):
            if m % (2 * i) == 0:
                cells += [(m, i, s, "gold") for s in (m - 2 * i, m - 2 * i - 1) if s >= 0]
        cells += [(m, 2, m - 4, "gk"), (m, 2, m - 5, "gk")]
        if m in (6, 10, 12, 14, 15):
            cells += [(m, 2, m - 4, "i2composite"), (m, 2, m - 5, "i2composite")]
    return cells


def large_m_cells() -> list[tuple[int, int, int, str]]:
    """Smallest-d routed cells.  The m <= 24 cells take milliseconds, the
    others 60..800 ms; the cheap ones stay under half of the list so the
    median latency falls inside the table-free cluster, not between the two."""
    cells = []
    for m in LARGE_M_TABLED + LARGE_M_TABLE_FREE:
        cells += [(m, i, m - 2 * i, "auto") for i in (2, 3, 4) if i < 4 or m % 4 == 0]
    return cells


def field_degrees(name: str) -> list[int]:
    """The distinct m a workload touches; set-up warms each of them."""
    if name == "grid":
        return list(range(4, 17))
    if name == "small_d":
        return list(range(5, 17))
    if name == "large_m":
        return list(LARGE_M_TABLED + LARGE_M_TABLE_FREE)
    if name == "verify_files":
        return sorted({m for m, _, _ in VERIFY_CELLS})
    raise KeyError(name)


def generate_pass(name: str, seed: int, pass_index: int) -> list[Op]:
    """Operations of one pass of a generating workload.  small_d draws a new
    solver seed every pass; grid and large_m repeat the run's seed."""
    if name == "grid":
        return [gen_op(m, i, s, seed, meth) for m, i, s, meth in grid_cells()]
    if name == "small_d":
        pass_seed = seed * 100_003 + pass_index
        return [gen_op(m, i, s, pass_seed, meth) for m, i, s, meth in small_d_cells()]
    if name == "large_m":
        return [gen_op(m, i, s, seed, meth) for m, i, s, meth in large_m_cells()]
    raise KeyError(name)


# -- support files -------------------------------------------------------------


@dataclass(frozen=True)
class SupportText:
    """A serialized support split into its header and entry list.  Entries
    are discrete logs (-1 for zero) in json and logsupport, element values in
    bits."""

    fmt: str
    m: int
    head: object  # json document or header line
    entries: tuple[int, ...]

    def render(self) -> str:
        if self.fmt == "json":
            doc = dict(self.head)
            doc["support"] = list(self.entries)
            return json.dumps(doc, indent=2)
        if self.fmt == "logsupport":
            return f"{self.head}\n{','.join(str(e) for e in self.entries)}\n"
        return self.head + "\n" + "\n".join(hex(e) for e in self.entries) + "\n"

    def with_entries(self, entries) -> "SupportText":
        return SupportText(self.fmt, self.m, self.head, tuple(entries))


def split_support(fmt: str, m: int, text: str) -> SupportText:
    if fmt == "json":
        doc = json.loads(text)
        return SupportText(fmt, m, doc, tuple(int(v) for v in doc["support"]))
    head, body = text.strip().split("\n", 1)
    if fmt == "logsupport":
        return SupportText(fmt, m, head, tuple(int(v) for v in body.split(",")))
    return SupportText(fmt, m, head, tuple(int(v, 16) for v in body.split()))


def corrupt(sup: SupportText, rng: random.Random) -> SupportText:
    """Replace one entry by an in-range value not yet present.  The file
    stays well formed, but p_1 changes by a nonzero element, so the claim
    must be rejected (exit 2)."""
    n = (1 << sup.m) - 1
    present = set(sup.entries)
    lo = 0 if sup.fmt != "bits" else 1  # logs 0..n-1, element values 1..n
    while True:
        v = rng.randint(lo, n - 1 + lo)
        if v not in present:
            break
    k = rng.randrange(len(sup.entries))
    entries = list(sup.entries)
    entries[k] = v
    return sup.with_entries(entries)


def malform(sup: SupportText, rng: random.Random) -> SupportText:
    """A copy that a strict parser must refuse (exit 5): an out-of-range hex
    element (bits), a duplicated entry (json) or an exponent >= n that
    aliases an entry mod n (logsupport)."""
    kind = MALFORMED_BY_FORMAT[sup.fmt]
    entries = list(sup.entries)
    n = (1 << sup.m) - 1
    if kind == "hex_out_of_range":
        k = rng.randrange(len(entries))
        entries[k] = (1 << sup.m) | rng.getrandbits(sup.m)
    elif kind == "duplicate_entry":
        entries.append(entries[rng.randrange(len(entries))])
    else:
        k = rng.choice([j for j, e in enumerate(entries) if e >= 0])
        entries[k] += n
    return sup.with_entries(entries)


def write_verify_files(cli, seed: int, workdir: Path):
    """Generate each valid support in every format (untimed) and write it
    with its corrupted and malformed copies.  Returns the verify operations
    of one pass and the valid texts, keyed by (m, i, s, format)."""
    ops: list[Op] = []
    valid: dict[tuple[int, int, int, str], str] = {}
    for m, i, s in VERIFY_CELLS:
        for fmt in FORMATS:
            text = run_quiet(cli, gen_op(m, i, s, seed).argv + ("--format", fmt))
            valid[(m, i, s, fmt)] = text
            sup = split_support(fmt, m, text)
            rng = random.Random(f"{seed}/{m}/{i}/{s}/{fmt}")
            copies = [("valid", sup)]
            copies += [("corrupt", corrupt(sup, rng)) for _ in range(CORRUPT_COPIES)]
            copies.append(("malformed", malform(sup, rng)))
            for c, (kind, copy) in enumerate(copies):
                path = workdir / f"{m}-{i}-{s}-{c}-{kind}.{fmt}"
                text_out = text if kind == "valid" else copy.render()
                path.write_text(text_out, encoding="utf-8")
                ops.append(Op(("verify", str(path)), kind))
    return ops, valid


def run_quiet(cli, argv) -> str:
    """Run one CLI call for set-up purposes and return its stdout; raises if
    it does not exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()
