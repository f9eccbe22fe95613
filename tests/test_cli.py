import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bchmin
from bchmin import cli, construct, files, gflinalg, solvers, verify
from bchmin.cli import (
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNCOVERED,
    EXIT_VERIFY_FAIL,
    ParseError,
    UncoveredCase,
    parse_support_file,
    render_bits,
    render_json,
    render_logsupport,
)
from bchmin.fixtures import BCH27_FIXTURES
from bchmin.gf2m import GF2m, _quote, default_field

from _parser_oracle import parse_support_file as predecessor
from conftest import elem_set


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_generate_json_roundtrip(tmp_path, capsys):
    code, out = _run(capsys, ["generate", "--m", "8", "--i", "3", "--s", "2", "--seed", "3"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["d"] == 28 and doc["verified"] is True
    assert len(doc["support"]) == 28
    path = tmp_path / "w28.json"
    path.write_text(out)
    code, out = _run(capsys, ["verify", str(path)])
    assert code == EXIT_OK
    assert json.loads(out)["is_min_weight"] is True


def test_generate_logsupport_roundtrip(tmp_path, capsys):
    code, out = _run(
        capsys,
        ["generate", "--m", "10", "--i", "2", "--s", "3", "--format", "logsupport", "--seed", "1"],
    )
    assert code == EXIT_OK
    header = out.splitlines()[0]
    assert header.startswith("m=10 ") and "d=48" in header
    path = tmp_path / "w48.log"
    path.write_text(out)
    code, _ = _run(capsys, ["verify", str(path)])
    assert code == EXIT_OK


def test_generate_bits_roundtrip(tmp_path, capsys):
    code, out = _run(
        capsys,
        ["generate", "--m", "7", "--i", "3", "--s", "1", "--format", "bits", "--seed", "5"],
    )
    assert code == EXIT_OK
    path = tmp_path / "w.bits"
    path.write_text(out)
    code, _ = _run(capsys, ["verify", str(path)])
    assert code == EXIT_OK


def test_generate_gold_route(capsys):
    code, out = _run(capsys, ["generate", "--m", "8", "--i", "2", "--s", "4", "--method", "gold"])
    assert code == EXIT_OK
    assert json.loads(out)["d"] == 6


def test_generate_gold_upconverted(capsys):
    code, out = _run(capsys, ["generate", "--m", "8", "--i", "2", "--s", "1", "--method", "gold"])
    assert code == EXIT_OK
    assert json.loads(out)["d"] == 48


def test_generate_gold_records_no_seed(capsys):
    # the Gold support does not depend on the seed, so the output does not
    # name one
    argv = ["generate", "--m", "8", "--i", "2", "--s", "1", "--method", "gold", "--seed"]
    (code1, out1), (code7, out7) = (_run(capsys, argv + [seed]) for seed in ("1", "7"))
    assert code1 == code7 == EXIT_OK and out1 == out7
    assert json.loads(out1)["seed"] is None


# one covered (m, i, s) per method, and whether its support depends on the seed
SEED_CELLS = {
    "i2even": (8, 2, 1, False),
    "i2odd": (9, 2, 1, True),
    "i2composite": (6, 2, 1, False),
    "i3even": (8, 3, 1, True),
    "i3heuristic": (8, 3, 1, True),
    "i4": (8, 4, 0, False),
    "gold": (8, 2, 1, False),
    "gk": (8, 2, 1, True),
}


# the module attribute each method's call reaches for its support
SEED_CALLEES = {
    "i2even": (solvers, "solve_i2_even"),
    "i2odd": (solvers, "solve_i2_odd"),
    "i2composite": (solvers, "solve_i2_composite"),
    "i3even": (solvers, "solve_i3_even"),
    "i3heuristic": (solvers, "solve_i3_heuristic"),
    "i4": (solvers, "solve_i4"),
    "gold": (construct, "gold_support"),
    "gk": (construct, "gk_support"),
}


@pytest.mark.parametrize("method", sorted(SEED_CELLS))
def test_generate_records_the_seed_iff_it_is_used(monkeypatch, method):
    # each call looks its builder up on the module when it runs (a builder
    # bound at import would bypass perfbench's wrappers), and a solver
    # entry draws, passing the seed on, exactly when it claims to
    m, i, s, seeded = SEED_CELLS[method]
    entry = construct.METHODS[method]
    module, name = SEED_CALLEES[method]
    builder, calls = getattr(module, name), []

    def recording(ctx, *args, **kw):
        calls.append(args)
        return builder(ctx, *args, **kw)

    monkeypatch.setattr(module, name, recording)
    _, meta, _ = construct.generate(default_field(m), i, s, 5, method)
    assert calls
    assert meta["method"] == method
    assert meta["seed"] == (5 if seeded else None)
    if method not in ("i2composite", "gold", "gk"):
        assert calls == [(5,) if entry.seeded else ()]


def test_seed_cells_cover_the_registry():
    assert set(SEED_CELLS) == set(SEED_CALLEES) == set(construct.METHODS)


# per method, the cell at s = m - 2i and the SEED_CELLS one below it, if any,
# and one cell of a field without log tables, whose JSON holds hex strings
SPEC_CELLS = [
    (method, m, i, s)
    for method, (m, i, s_low, _) in sorted(SEED_CELLS.items())
    for s in sorted({s_low, m - 2 * i})
] + [("i2even", 28, 2, 20)]


@pytest.mark.parametrize("method,m,i,s", SPEC_CELLS)
def test_generate_json_support_is_x_plus_span_b(capsys, method, m, i, s):
    argv = ["generate", "--m", str(m), "--i", str(i), "--s", str(s), "--method", method]
    code, out = _run(capsys, argv + ["--seed", "5"])
    assert code == EXIT_OK
    doc = json.loads(out)
    ctx = default_field(m)

    def element(v):
        return int(v, 16) if isinstance(v, str) else 0 if v == -1 else ctx.exp(v)

    X, B, support = ([element(v) for v in doc[k]] for k in ("X", "B", "support"))
    assert len(X) == (1 << (2 * i - 1)) - (1 << (i - 1))
    assert len(B) == m - 2 * i - s
    assert len(support) == len(X) << len(B)
    assert {x ^ v for x in X for v in gflinalg.span(B)} == set(support)


def test_generate_gk_route(capsys):
    code, out = _run(capsys, ["generate", "--m", "8", "--i", "2", "--s", "4", "--method", "gk", "--seed", "2"])
    assert code == EXIT_OK
    assert json.loads(out)["d"] == 6


def test_generate_composite_route(capsys):
    code, out = _run(capsys, ["generate", "--m", "15", "--i", "2", "--s", "0", "--method", "i2composite"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["d"] == 2**14 - 2**12


def test_uncovered_case_exit_code(capsys):
    code, _ = _run(capsys, ["generate", "--m", "9", "--i", "4"])
    assert code == EXIT_UNCOVERED
    code, _ = _run(capsys, ["generate", "--m", "8", "--i", "5"])
    assert code == EXIT_UNCOVERED


def test_exhausted_exit_code(capsys):
    code, _ = _run(capsys, ["generate", "--m", "7", "--i", "3", "--retries", "0"])
    assert code == EXIT_EXHAUSTED


@pytest.mark.parametrize("method", sorted(construct.METHODS))
def test_retries_cap_every_seeded_method(capsys, method):
    # a seeded method draws only within --retries; the others draw nothing,
    # so a cap of 0 is met
    m, i, s, seeded = SEED_CELLS[method]
    argv = ["generate", "--m", str(m), "--i", str(i), "--s", str(s), "--method", method]
    code = cli.main(argv + ["--retries", "0"])
    captured = capsys.readouterr()
    if seeded:
        assert code == EXIT_EXHAUSTED and captured.out == ""
        assert captured.err.startswith("solver exhausted: ") and captured.err.count("\n") == 1
    else:
        assert code == EXIT_OK and captured.err == ""


def test_gk_redraws_a_degenerate_y(capsys):
    # the first 8-bit draw of seed 139 is y = 0, where the six elements collapse
    assert random.Random(139).getrandbits(8) == 0
    argv = ["generate", "--m", "8", "--i", "2", "--s", "4", "--method", "gk", "--seed", "139"]
    code, out = _run(capsys, argv)
    assert code == EXIT_OK
    assert _sha256(out) == "dccd0f4976d016a61d68b99ca6df1ce5effe45302ff20f2c54d204d1c44c6b9d"
    assert cli.main(argv + ["--retries", "1"]) == EXIT_EXHAUSTED
    assert capsys.readouterr().err == "solver exhausted: no nondegenerate y in 1 draws\n"


def test_verify_mutated_fixture(tmp_path, capsys):
    poly, exps = BCH27_FIXTURES[8]
    mutated = list(exps[:-1]) + [(exps[-1] + 1) % 255]
    text = "m=8 poly=0x11d d=27 extended=0\n" + ",".join(map(str, sorted(mutated)))
    path = tmp_path / "bad.log"
    path.write_text(text)
    code, out = _run(capsys, ["verify", str(path)])
    assert code == EXIT_VERIFY_FAIL
    doc = json.loads(out)
    assert doc["is_min_weight"] is False and doc["failing_syndrome"] is not None


VERDICT_STDOUT = {
    "member": (
        '{\n  "member": true,\n  "weight": 27,\n  "claimed_distance": 27,\n'
        '  "is_min_weight": true,\n  "failing_syndrome": null,\n  "route": "scan"\n}\n'
    ),
    "failing": (
        '{\n  "member": false,\n  "weight": 27,\n  "claimed_distance": 27,\n'
        '  "is_min_weight": false,\n  "failing_syndrome": [\n    1,\n    38\n  ],\n'
        '  "route": "scan"\n}\n'
    ),
}


def test_verify_stdout_is_pinned(tmp_path, capsys):
    # the verdict's six fields, in order, as json.dumps(dataclasses.asdict(
    # verdict), indent=2) renders them, byte for byte: the m = 8 fixture
    # and its copy with the last log moved by one
    poly, exps = BCH27_FIXTURES[8]
    moved = list(exps[:-1]) + [(exps[-1] + 1) % 255]
    for kind, logs, expect in (("member", exps, EXIT_OK), ("failing", moved, EXIT_VERIFY_FAIL)):
        path = tmp_path / f"{kind}.log"
        path.write_text("m=8 poly=0x11d d=27 extended=0\n" + ",".join(map(str, sorted(logs))))
        code, out = _run(capsys, ["verify", str(path)])
        assert (code, out) == (expect, VERDICT_STDOUT[kind])
        verdict = verify.is_min_weight(parse_support_file(path.read_text()))
        assert out == json.dumps(dataclasses.asdict(verdict), indent=2) + "\n"


def test_verify_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("not a support file")
    code, _ = _run(capsys, ["verify", str(path)])
    assert code == EXIT_PARSE


# SHA-256 of the stdout of `table`, per (which, seed)
TABLE_DIGESTS = {
    ("t27", "0"): "7f1c55bc23d7a2c87c0ce92e178397991c07a5edca250fe7dedcbb7266d4ec47",
    ("t23", "0"): "c39a9e85d351a5427cd9a4214585c0bd964c169f2006b565c1855321c8e1e2a2",
    ("t23", "1"): "c39a9e85d351a5427cd9a4214585c0bd964c169f2006b565c1855321c8e1e2a2",
}


def test_table_t23(capsys):
    for seed in ("0", "1"):
        code, out = _run(capsys, ["table", "t23", "--seed", seed])
        assert code == EXIT_OK
        assert "verified=True" in out and "m=16" in out
        assert _sha256(out) == TABLE_DIGESTS["t23", seed]


def test_table_t27(capsys):
    code, out = _run(capsys, ["table", "t27", "--seed", "0"])
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.startswith("m=")]
    assert len(lines) == 9
    for ln in lines:
        assert ln.count("verified=True") == 2  # fixture and fresh generation
        assert "match=" in ln
    assert _sha256(out) == TABLE_DIGESTS["t27", "0"]


def _entry(capsys, argv):
    """(exit code, stdout, stderr) of main(argv); a help request exits."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ENTRY_ROWS = [
    ([], EXIT_PARSE, "bchmin: the following arguments are required: command\n"),
    (["-h"], 0, ""),
    (["generate", "-h"], 0, ""),
    (["nosuch"], EXIT_PARSE, "bchmin: argument command: invalid choice: 'nosuch' (choose from "),
    (["verify"], EXIT_PARSE, "bchmin verify: the following arguments are required: input\n"),
    (["table", "t99"], EXIT_PARSE, "bchmin table: argument which: invalid choice: 't99' (choose from "),
    (["generate", "--m", "8", "--i", "2", "--form", "json"], EXIT_OK, ""),
    (["generate", "--m=8", "--i", "2"], EXIT_OK, ""),
    (["generate", "--m", "8", "--i", "2", "extra"], EXIT_PARSE, "bchmin: unrecognized arguments: extra\n"),
]


@pytest.mark.parametrize("argv, code, err", ENTRY_ROWS, ids=[" ".join(r[0]) or "none" for r in ENTRY_ROWS])
def test_entry_point_matches_the_full_parser(monkeypatch, capsys, argv, code, err):
    # main hands a command line that starts with a subcommand to that
    # subcommand's parser; exit code, stdout and stderr are the full
    # parser's, whose own usage errors keep the "bchmin:" prefix
    got = _entry(capsys, argv)
    assert got[0] == code and got[2].startswith(err) and (code != 0 or got[1])
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert _entry(capsys, argv) == got


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["bchmin", "generate", "--m", "8", "--i", "2", "extra"])
    assert _entry(capsys, None) == (EXIT_PARSE, "", "bchmin: unrecognized arguments: extra\n")
    monkeypatch.setattr(sys, "argv", ["bchmin", "generate", "--m", "8", "--i", "2"])
    code, out, err = _entry(capsys, None)
    assert code == EXIT_OK and json.loads(out)["m"] == 8 and err == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--help"])
    assert exc.value.code == 0 and "--retries" in capsys.readouterr().out


def test_seed_env_var(monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "777")
    parser = cli.build_parser()
    args = parser.parse_args(["generate", "--m", "8", "--i", "2"])
    assert args.seed == 777


def test_seed_env_var_read_per_command(monkeypatch, capsys):
    # main() keeps one parser; the variable is still read on every call
    argv = ["generate", "--m", "9", "--i", "2", "--s", "3"]
    monkeypatch.setenv(cli.SEED_ENV_VAR, "5")
    _, first = _run(capsys, argv)
    monkeypatch.setenv(cli.SEED_ENV_VAR, "6")
    _, second = _run(capsys, argv)
    assert json.loads(first)["seed"] == 5 and json.loads(second)["seed"] == 6
    monkeypatch.delenv(cli.SEED_ENV_VAR)
    _, third = _run(capsys, argv)
    assert json.loads(third)["seed"] == 0


def test_parse_support_file_accepts_generated_forms():
    cw, meta, _ = construct.generate(default_field(9), 2, 2, 4)
    ctx = cw.ctx
    # with and without the zero element, which is written as the log -1
    for shown in (cw, type(cw)(ctx, elem_set(cw) ^ {0}, cw.claimed_distance, cw.extended)):
        for text in (render_json(ctx, shown, meta), render_logsupport(ctx, shown)):
            back = parse_support_file(text)
            assert np.array_equal(back.elems, shown.elems)
            assert back.claimed_distance == cw.claimed_distance
            assert back.extended == cw.extended


def test_log_and_hex_files_agree_without_log_tables():
    # at m = 25 the field has no log tables, so logs are decoded one by one;
    # the twin lists alpha^e for the same e, worked out without ctx.exp
    ctx = default_field(25)
    assert not ctx.has_logs
    logs = [-1, 0, 1, 24, 25, ctx.n - 1]
    elems = [0, 1, 2, 1 << 24, ctx.poly ^ 1 << 25, (ctx.poly ^ 1) >> 1]
    head = f"m=25 poly={hex(ctx.poly)} d=6 extended=1\n"
    from_logs = parse_support_file(head + ",".join(map(str, logs)))
    from_hex = parse_support_file(head + ",".join(map(hex, elems)))
    assert elem_set(from_logs) == elem_set(from_hex) == frozenset(elems)


def test_generate_i3heuristic_needs_m6(capsys):
    for m in ("4", "5"):
        code = cli.main(["generate", "--m", m, "--i", "3", "--method", "i3heuristic"])
        captured = capsys.readouterr()
        assert code == EXIT_UNCOVERED and captured.out == ""
        assert captured.err.startswith("uncovered case")


def test_generate_gold_distance_one_uncovered(capsys):
    # d(8, 6, 1) = 1; one s lower the Gold route gives a verified d = 2 word
    code = cli.main(["generate", "--m", "8", "--i", "1", "--method", "gold", "--s", "6"])
    captured = capsys.readouterr()
    assert code == EXIT_UNCOVERED and captured.err.startswith("uncovered case")
    code, out = _run(capsys, ["generate", "--m", "8", "--i", "1", "--method", "gold", "--s", "5"])
    assert code == EXIT_OK and json.loads(out)["d"] == 2


def test_generate_unsupported_degree_uncovered(capsys):
    for m in ("40", "1"):
        code = cli.main(["generate", "--m", m, "--i", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_UNCOVERED and captured.out == ""
        assert captured.err.startswith("uncovered case")


def test_generate_bad_poly_refused(capsys):
    # not primitive, reducible, wrong degree, not a polynomial
    for poly in ("0x11b", "0x101", "0x13", "zz"):
        code = cli.main(["generate", "--m", "8", "--i", "2", "--poly", poly])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == "" and poly in captured.err


def test_generate_refuses_bad_s(capsys):
    code, _ = _run(capsys, ["generate", "--m", "8", "--i", "3", "--s", "9"])
    assert code == EXIT_UNCOVERED


def test_generate_checks_s_before_the_solver(capsys):
    # with no retries the solver would exhaust (exit 4); the bad s is seen first
    code, out = _run(capsys, ["generate", "--m", "7", "--i", "3", "--s", "9", "--retries", "0"])
    assert code == EXIT_UNCOVERED and out == ""


def _swap_one_expanded_element(monkeypatch):
    # one element of the expanded support swapped for an outsider
    expand = construct.expand

    def swapped(spec):
        cw = expand(spec)
        outsider = next(x for x in range(cw.ctx.n + 1) if x not in cw.elems)
        elems = elem_set(cw) - {max(cw.elems)} | {outsider}
        return construct.CodewordSupport(cw.ctx, elems, cw.claimed_distance, cw.extended)

    monkeypatch.setattr(construct, "expand", swapped)


def test_generate_refuses_unverified_support(monkeypatch, capsys):
    _swap_one_expanded_element(monkeypatch)
    code = cli.main(["generate", "--m", "8", "--i", "2", "--s", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFY_FAIL and captured.out == ""
    assert captured.err.startswith("refusing to emit unverified support")


def _move_one_x_out_of_its_coset(monkeypatch):
    # the i2even entry returns its spec with one x moved to a coset of
    # span(B) that no x is in
    entry = construct.METHODS["i2even"]

    def moved(ctx, i, s, seed, **kw):
        spec = entry.call(ctx, i, s, seed, **kw)
        support = construct.expand(spec).elems
        outsider = next(x for x in range(ctx.n + 1) if x not in support)
        x_set = np.sort(np.append(spec.x_set[:-1], np.uint64(outsider)))  # its max moved
        return construct.SupportSpec(ctx, x_set, spec.basis)

    monkeypatch.setitem(construct.METHODS, "i2even", entry._replace(call=moved))


def _translate_expanded_support(monkeypatch):
    # the expanded support moved by a constant: still a minimum-weight
    # codeword (the extended code is affine-invariant), but not X + span(B)
    expand = construct.expand

    def translated(spec):
        cw = expand(spec)
        shifts = ({x ^ c for x in elem_set(cw)} for c in range(1, cw.ctx.n + 1))
        elems = frozenset(next(e for e in shifts if e != elem_set(cw)))
        return construct.CodewordSupport(cw.ctx, elems, cw.claimed_distance, cw.extended)

    monkeypatch.setattr(construct, "expand", translated)


def _drop_one_expanded_element(monkeypatch):
    # the expanded support less its largest element
    expand = construct.expand

    def dropped(spec):
        cw = expand(spec)
        return construct.CodewordSupport(cw.ctx, cw.elems[:-1], cw.claimed_distance, cw.extended)

    monkeypatch.setattr(construct, "expand", dropped)


def _add_one_expanded_element(monkeypatch):
    # the expanded support and one outsider
    expand = construct.expand

    def added(spec):
        cw = expand(spec)
        outsider = next(x for x in range(cw.ctx.n + 1) if x not in cw.elems)
        elems = elem_set(cw) | {outsider}
        return construct.CodewordSupport(cw.ctx, elems, cw.claimed_distance, cw.extended)

    monkeypatch.setattr(construct, "expand", added)


@pytest.mark.parametrize("s", [0, 2, 4], ids=["affine", "B-dim-2", "B-empty"])
@pytest.mark.parametrize(
    "fault",
    [
        _swap_one_expanded_element, _move_one_x_out_of_its_coset, _translate_expanded_support,
        _drop_one_expanded_element, _add_one_expanded_element,
    ],
    ids=["swap", "move-x", "translate", "drop", "add"],
)
def test_gate_refuses_a_faulty_construction(monkeypatch, capsys, fault, s):
    # at (8, 2, s), each through Y = A_V(X): 96 points with B of dimension 4
    # (s = 0), 24 with B of dimension 2 (s = 2) and 6 with B empty (s = 4).
    # The library raises, the CLI exits 2 and emits nothing, also when the
    # emitted set verifies but is not the spec's X + span(B).  The route
    # refuses a swapped, translated, shortened or lengthened set before any
    # verdict, and names the verdict of Y when an x is moved out of its coset
    fault(monkeypatch)
    outside = fault is not _move_one_x_out_of_its_coset
    reason = "support is not X + span(B)" if outside else "Verdict("
    message = "refusing to emit unverified support: " + reason
    with pytest.raises(construct.UnverifiedSupport, match=re.escape(message)):
        construct.generate(default_field(8), 2, s)
    code = cli.main(["generate", "--m", "8", "--i", "2", "--s", str(s)])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFY_FAIL and captured.out == ""
    assert captured.err.startswith(message)


def test_verify_refuses_the_faulty_supports(tmp_path, capsys):
    # `bchmin verify` takes no X or B: it derives them from the support, so
    # a set that is not the spec's X + span(B) cannot be named as such.  A
    # moved, a dropped and an extra point each fail the claim (exit 2); the
    # translate is itself a minimum-weight codeword and passes
    code, out = _run(capsys, ["generate", "--m", "8", "--i", "2", "--s", "2", "--format", "bits"])
    head, body = out.split("\n", 1)
    elems = [int(v, 16) for v in body.split()]
    out_of = next(x for x in range(1, 256) if x not in elems)
    shift = next(c for c in range(1, 256) if {x ^ c for x in elems} != set(elems))
    for bad, expect in (
        (elems[:-1] + [out_of], EXIT_VERIFY_FAIL),
        (elems[:-1], EXIT_VERIFY_FAIL),
        (elems + [out_of], EXIT_VERIFY_FAIL),
        ([x ^ shift for x in elems], EXIT_OK),
    ):
        path = tmp_path / "bad.bits"
        path.write_text(head + "\n" + "\n".join(map(hex, sorted(bad))) + "\n")
        assert _run(capsys, ["verify", str(path)])[0] == expect


def test_table_reports_unverified_row(monkeypatch, capsys):
    # a fresh row the self-verification refuses is printed as such, not
    # raised
    _swap_one_expanded_element(monkeypatch)
    code, out = _run(capsys, ["table", "t23"])
    assert code == EXIT_VERIFY_FAIL
    assert "m=16 fixture: weight=23 verified=True | fresh: verified=False (refusing" in out


def test_method_must_match_i(capsys):
    # i2even builds a d(8, 0, 2) = 96 support, not the i = 3 distance 112
    code, out = _run(capsys, ["generate", "--m", "8", "--i", "3", "--method", "i2even"])
    assert code == EXIT_UNCOVERED and out == ""
    code, _ = _run(capsys, ["generate", "--m", "8", "--i", "2", "--method", "i3even"])
    assert code == EXIT_UNCOVERED


# -- one exit code and stderr prefix per refusal, all through main ---------

_ODD_EXTENDED_CLAIM = b"m=8 poly=0x11d d=25 extended=1\n0x1,0x2\n"
_HEAD = b"m=8 poly=0x11d d=4 extended=1\n"
_JSON_CLAIM = b'{"spec_version": 1, "m": 8, "poly": "0x11d", "d": 4, "extended": true, "support": [1, 2]}'


@pytest.mark.parametrize(
    "argv, files, swap, code, err",
    [
        pytest.param(
            ["generate", "--m", "9", "--i", "4"], {}, False,
            EXIT_UNCOVERED, "uncovered case: method auto does not build i=4 at m=9",
            id="generate-uncovered",
        ),
        pytest.param(
            ["generate", "--m", "8", "--i", "2", "--s", "9"], {}, False,
            EXIT_UNCOVERED, "uncovered case: need s in 0..4 and d(8, 9, 2) >= 2, got s=9",
            id="generate-bad-s",
        ),
        pytest.param(
            ["generate", "--m", "40", "--i", "2"], {}, False,
            EXIT_UNCOVERED, "uncovered case: m must be in 2..32, got 40",
            id="generate-bad-m",
        ),
        pytest.param(
            ["generate", "--m", "8", "--i", "2", "--poly", "0x11b"], {}, False,
            EXIT_PARSE, "bad --poly '0x11b': X has order < 2^8-1 modulo 0x11b",
            id="generate-bad-poly",
        ),
        pytest.param(
            ["generate", "--m", "7", "--i", "3", "--retries", "0"], {}, False,
            EXIT_EXHAUSTED, "solver exhausted: heuristic failed within 0 iterations",
            id="generate-retries-0",
        ),
        pytest.param(
            ["generate", "--m", "8", "--i", "2", "--retries", "-1"], {}, False,
            EXIT_PARSE, "--retries must be >= 0, got -1",
            id="generate-retries-negative",
        ),
        pytest.param(
            ["generate", "--m", "8", "--i", "2", "--s", "2"], {}, True,
            EXIT_VERIFY_FAIL, "refusing to emit unverified support: support is not X + span(B)",
            id="generate-refused",
        ),
        pytest.param(
            ["verify", "{dir}/missing.json"], {}, False,
            EXIT_PARSE, "cannot read {dir}/missing.json: [Errno 2]",
            id="verify-missing-file",
        ),
        pytest.param(
            ["verify", "{dir}/latin1.json"], {"latin1.json": b"\xff{"}, False,
            EXIT_PARSE, "{dir}/latin1.json is not UTF-8 text: 'utf-8' codec can't decode",
            id="verify-not-utf8",
        ),
        pytest.param(
            ["verify", "{dir}/claim.log"], {"claim.log": _ODD_EXTENDED_CLAIM}, False,
            EXIT_PARSE, "malformed claim: extended claim needs even d, got 25",
            id="verify-malformed-claim",
        ),
        pytest.param(
            ["verify", "{dir}/brace.json"], {"brace.json": b"{"}, False,
            EXIT_PARSE, "bad JSON support file: Expecting property name",
            id="verify-malformed-file",
        ),
        pytest.param(
            ["verify", "{dir}/blank.log"], {"blank.log": b" \n\t\n"}, False,
            EXIT_PARSE, "empty input",
            id="verify-blank-file",
        ),
        # each refusal names the field or the first bad entry, not a Python internal
        pytest.param(
            ["verify", "{dir}/float.json"], {"float.json": _JSON_CLAIM.replace(b"[1, 2]", b"[1.5, 2]")},
            False, EXIT_PARSE,
            "bad JSON support file: support entries must be ints or 0x-hex strings, got 1.5",
            id="verify-json-float-entry",
        ),
        pytest.param(
            ["verify", "{dir}/true.json"], {"true.json": _JSON_CLAIM.replace(b"[1, 2]", b"[true, 2]")},
            False, EXIT_PARSE,
            "bad JSON support file: support entries must be ints or 0x-hex strings, got True",
            id="verify-json-bool-entry",
        ),
        pytest.param(
            ["verify", "{dir}/token.log"], {"token.log": b"m=8 poly=0x11d d=4 extended=1 x\n0x1\n"},
            False, EXIT_PARSE, "bad log-support file: header entry 'x' is not name=value",
            id="verify-header-token-without-equals",
        ),
        pytest.param(
            ["verify", "{dir}/array.json"], {"array.json": b"[1,2]"}, False,
            EXIT_PARSE, "bad log-support file: header entry '[1,2]' is not name=value",
            id="verify-top-level-json-array",
        ),
        pytest.param(
            ["verify", "{dir}/bom.log"], {"bom.log": "\ufeffm=8 poly=0x11d d=4 extended=1\n1\n".encode()},
            False, EXIT_PARSE, "bad log-support file: missing field 'm'",
            id="verify-header-behind-bom",
        ),
        pytest.param(
            ["verify", "{dir}/nod.json"], {"nod.json": _JSON_CLAIM.replace(b'"d": 4, ', b"")}, False,
            EXIT_PARSE, "bad JSON support file: missing field 'd'",
            id="verify-json-missing-field",
        ),
        pytest.param(
            ["verify", "{dir}/poly.log"], {"poly.log": b"m=8 poly= d=4 extended=1\n1\n"}, False,
            EXIT_PARSE, "bad log-support file: the modulus is empty",
            id="verify-empty-poly",
        ),
        pytest.param(
            ["verify", "{dir}/long.log"], {"long.log": _HEAD + b"0" * 4999 + b"5\n"}, False,
            EXIT_PARSE, "bad log-support file: discrete log 000000000000... has over 4300 digits",
            id="verify-5000-digit-log",
        ),
        pytest.param(
            ["verify", "{dir}/m.log"], {"m.log": b"m=" + b"1" * 5000 + _HEAD[3:] + b"1,2\n"}, False,
            EXIT_PARSE, "bad log-support file: m=111111111111... has over 4300 digits",
            id="verify-5000-digit-header-m",
        ),
        pytest.param(
            ["verify", "{dir}/long.json"], {"long.json": _JSON_CLAIM.replace(b"[1,", b"[" + b"7" * 5000 + b",")},
            False, EXIT_PARSE, "bad JSON support file: number 777777777777... has over 4300 digits",
            id="verify-5000-digit-json-entry",
        ),
        pytest.param(
            ["verify", "{dir}/m.json"], {"m.json": _JSON_CLAIM.replace(b'"m": 8', b'"m": ' + b"8" * 5000)},
            False, EXIT_PARSE, "bad JSON support file: number 888888888888... has over 4300 digits",
            id="verify-5000-digit-json-m",
        ),
        pytest.param(
            ["verify", "{dir}/poly.log"], {"poly.log": _HEAD.replace(b"0x11d", b"7" * 5000) + b"1,2\n"},
            False, EXIT_PARSE, "bad log-support file: modulus 777777777777... has over 4300 digits",
            id="verify-5000-digit-header-poly",
        ),
        pytest.param(
            ["verify", "{dir}/poly.json"], {"poly.json": _JSON_CLAIM.replace(b"0x11d", b"7" * 5000)},
            False, EXIT_PARSE, "bad JSON support file: modulus 777777777777... has over 4300 digits",
            id="verify-5000-digit-json-poly",
        ),
        pytest.param(
            ["generate", "--m", "8", "--i", "2", "--poly", "7" * 5000], {}, False, EXIT_PARSE,
            "bad --poly '777777777777...': modulus 777777777777... has over 4300 digits\n",
            id="generate-5000-digit-poly",
        ),
        # a refused degree or modulus is quoted to at most 12 characters
        pytest.param(
            ["generate", "--m", "9" * 4000, "--i", "2"], {}, False, EXIT_UNCOVERED,
            "uncovered case: m must be in 2..32, got 999999999999...\n",
            id="generate-4000-digit-m",
        ),
        pytest.param(
            ["verify", "{dir}/m.log"], {"m.log": b"m=" + b"9" * 4000 + _HEAD[3:] + b"1,2\n"}, False,
            EXIT_PARSE, "bad log-support file: m must be in 2..32, got 999999999999...\n",
            id="verify-4000-digit-header-m",
        ),
        pytest.param(
            ["generate", "--m", "8", "--i", "2", "--poly", "0x" + "f" * 3000], {}, False, EXIT_PARSE,
            "bad --poly '0xffffffffff...': modulus 0xffffffffff... does not have degree 8\n",
            id="generate-3000-digit-hex-poly",
        ),
        pytest.param(
            ["verify", "{dir}/poly.log"], {"poly.log": _HEAD.replace(b"0x11d", b"0x" + b"f" * 3000) + b"1,2\n"},
            False, EXIT_PARSE, "bad log-support file: modulus 0xffffffffff... does not have degree 8\n",
            id="verify-3000-digit-header-hex-poly",
        ),
        # every other value a refusal echoes is cut the same way
        pytest.param(
            ["verify", "{dir}/m.log"], {"m.log": b"m=" + b"9" * 4000 + b"x" + _HEAD[3:] + b"1,2\n"},
            False, EXIT_PARSE, "bad log-support file: m must be decimal digits, got '999999999999...'\n",
            id="verify-4000-char-header-m",
        ),
        pytest.param(
            ["verify", "{dir}/d.log"], {"d.log": _HEAD.replace(b"d=4", b"d=" + b"4" * 4000 + b"x") + b"1,2\n"},
            False, EXIT_PARSE, "bad log-support file: d must be decimal digits, got '444444444444...'\n",
            id="verify-4000-char-header-d",
        ),
        pytest.param(
            ["verify", "{dir}/q.log"], {"q.log": b"q" * 4000 + b" " + _HEAD + b"1,2\n"}, False,
            EXIT_PARSE, "bad log-support file: header entry 'qqqqqqqqqqqq...' is not name=value\n",
            id="verify-4000-char-header-entry",
        ),
        pytest.param(
            ["verify", "{dir}/m.json"], {"m.json": _JSON_CLAIM.replace(b'"m": 8', b'"m": "' + b"9" * 4000 + b'"')},
            False, EXIT_PARSE, "bad JSON support file: m must be a JSON integer, got '999999999999...'\n",
            id="verify-4000-char-json-m",
        ),
        pytest.param(
            ["verify", "{dir}/v.json"],
            {"v.json": _JSON_CLAIM.replace(b'"spec_version": 1', b'"spec_version": "' + b"1" * 4000 + b'"')},
            False, EXIT_PARSE, "bad JSON support file: unsupported spec_version '111111111111...'\n",
            id="verify-4000-char-spec-version",
        ),
        pytest.param(
            ["verify", "{dir}/e.json"], {"e.json": _JSON_CLAIM.replace(b"[1, 2]", b'[1, "' + b"2" * 4000 + b'"]')},
            False, EXIT_PARSE,
            "bad JSON support file: support entries must be ints or 0x-hex strings, got '222222222222...'\n",
            id="verify-4000-char-json-entry",
        ),
        pytest.param(
            ["verify", "{dir}/p.json"], {"p.json": _JSON_CLAIM.replace(b'"0x11d"', b"[" + b"1, " * 1333 + b"1]")},
            False, EXIT_PARSE, "bad JSON support file: poly must be a string or an integer, got [1, 1, 1, 1,...\n",
            id="verify-4000-char-poly-list",
        ),
        pytest.param(
            ["verify", "{dir}/h.bits"], {"h.bits": _HEAD + b"0x1\n0x" + b"f" * 4000 + b"\n"}, False,
            EXIT_PARSE, "bad log-support file: element 0xffffffffff... is outside GF(2^8)\n",
            id="verify-4000-digit-hex-entry",
        ),
        pytest.param(
            ["verify", "{dir}/l.log"], {"l.log": _HEAD + b"1," + b"9" * 4000 + b"\n"}, False,
            EXIT_PARSE, "bad log-support file: discrete log 999999999999... is outside -1..254\n",
            id="verify-4000-digit-log-entry",
        ),
        pytest.param(
            ["verify", "{dir}/n.log"],
            {"n.log": _HEAD.replace(b"d=4", b"d=4 " + b"n" * 4000 + b"=1 " + b"n" * 4000 + b"=2") + b"1,2\n"},
            False, EXIT_PARSE, "bad log-support file: repeated names ['nnnnnnnnnnnn...']\n",
            id="verify-4000-char-repeated-name",
        ),
        pytest.param(
            ["verify", "{dir}/r.log"],
            {"r.log": _HEAD.replace(b"d=4", b"d=4 d=4 m=8 poly=0x11d extended=1 a=1 a=2") + b"1,2\n"},
            False, EXIT_PARSE, "bad log-support file: repeated names ['a', 'd', 'extended']...\n",
            id="verify-five-repeated-names",
        ),
        pytest.param(["table", "t23"], {}, True, EXIT_VERIFY_FAIL, "", id="table-row-refused"),
        # usage errors: exit 5, not argparse's 2, which means a failed verification
        pytest.param(
            ["generate", "--m", "abc", "--i", "2"], {}, False,
            EXIT_PARSE, "bchmin generate: argument --m: invalid int value: 'abc'",
            id="usage-bad-int",
        ),
        pytest.param(
            ["BCHMIN_SEED=abc", "generate", "--m", "9", "--i", "2"], {}, False,
            EXIT_PARSE, "bchmin generate: argument --seed: invalid int value in $BCHMIN_SEED: 'abc'",
            id="usage-bad-seed-variable",
        ),
        # ints are an optional "-" and ASCII digits: what int() would repair is refused
        pytest.param(
            ["generate", "--m", " 9", "--i", "2", "--s", "5"], {}, False,
            EXIT_PARSE, "bchmin generate: argument --m: invalid int value: ' 9'",
            id="usage-int-space",
        ),
        pytest.param(
            ["generate", "--m", "9", "--i", "1_0"], {}, False,
            EXIT_PARSE, "bchmin generate: argument --i: invalid int value: '1_0'",
            id="usage-int-underscore",
        ),
        pytest.param(
            ["generate", "--m", "9", "--i", "2", "--s", "+3"], {}, False,
            EXIT_PARSE, "bchmin generate: argument --s: invalid int value: '+3'",
            id="usage-int-plus",
        ),
        pytest.param(
            ["generate", "--m", "9", "--i", "2", "--seed", "\u0663"], {}, False,
            EXIT_PARSE, "bchmin generate: argument --seed: invalid int value: '\u0663'",
            id="usage-int-non-ascii-digit",
        ),
        pytest.param(
            ["generate", "--m", "9", "--i", "2", "--retries", "+3"], {}, False,
            EXIT_PARSE, "bchmin generate: argument --retries: invalid int value: '+3'",
            id="usage-retries-plus",
        ),
        pytest.param(
            ["BCHMIN_SEED= 1_0 ", "generate", "--m", "9", "--i", "2", "--s", "5"], {}, False,
            EXIT_PARSE, "bchmin generate: argument --seed: invalid int value in $BCHMIN_SEED: ' 1_0 '",
            id="usage-seed-variable-space-underscore",
        ),
        pytest.param(
            ["verify"], {}, False,
            EXIT_PARSE, "bchmin verify: the following arguments are required: input",
            id="usage-verify-no-file",
        ),
        # a value the parser echoes is cut to 12 characters and "..."
        pytest.param(
            ["generate", "--m", "8", "--i", "2", "--method", "a" * 4000], {}, False, EXIT_PARSE,
            "bchmin generate: argument --method: invalid choice: 'aaaaaaaaaaaa...' (choose from 'auto',",
            id="usage-4000-char-method",
        ),
        pytest.param(
            ["generate", "--m", "9" * 4000 + "x", "--i", "2"], {}, False, EXIT_PARSE,
            "bchmin generate: argument --m: invalid int value: '999999999999...'\n",
            id="usage-4000-char-int",
        ),
        pytest.param(
            ["BCHMIN_SEED=" + "7" * 4000 + "x", "generate", "--m", "9", "--i", "2"], {}, False, EXIT_PARSE,
            "bchmin generate: argument --seed: invalid int value in $BCHMIN_SEED: '777777777777...'\n",
            id="usage-4000-char-seed-variable",
        ),
        pytest.param(
            ["t" * 4000], {}, False, EXIT_PARSE,
            "bchmin: argument command: invalid choice: 'tttttttttttt...' (choose from 'generate',",
            id="usage-4000-char-command",
        ),
        pytest.param(
            ["generate", "--m", "8", "--i", "2", "b" * 4000], {}, False, EXIT_PARSE,
            "bchmin: unrecognized arguments: bbbbbbbbbbbb...\n",
            id="usage-4000-char-unrecognized",
        ),
    ],
)
def test_refusal_exit_code_and_message(tmp_path, monkeypatch, capsys, argv, files, swap, code, err):
    # a leading NAME=value sets an environment variable, as in a shell
    while "=" in argv[0]:
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    if swap:
        _swap_one_expanded_element(monkeypatch)
    assert cli.main([a.format(dir=tmp_path) for a in argv]) == code
    captured = capsys.readouterr()
    if argv[0] == "table":  # a refused row is printed as such and the table goes on
        assert captured.err == "" and "fresh: verified=False (refusing" in captured.out
    else:
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(err.format(dir=tmp_path))
        assert len(captured.err.replace(str(tmp_path), "").encode()) < 200  # no value echoed whole


# -- verify: malformed files are refused with exit 5 ------------------------


def _refused(tmp_path, capsys, text):
    with pytest.raises(ParseError):
        parse_support_file(text)
    path = tmp_path / "malformed"
    path.write_text(text)
    code = cli.main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE and captured.out == "" and captured.err.strip()


def _json_doc(m, i, s):
    cw, meta, _ = construct.generate(default_field(m), i, s)
    return json.loads(render_json(cw.ctx, cw, meta))


def test_verify_rejects_hex_element_out_of_range(tmp_path, capsys):
    doc = _json_doc(8, 2, 3)
    doc["support"][0] = "0x1ff"
    _refused(tmp_path, capsys, json.dumps(doc))
    cw, _, _ = construct.generate(default_field(8), 2, 3)
    bits = cli.render_bits(cw.ctx, cw).replace(hex(max(cw.elems)), "0x1ff")
    _refused(tmp_path, capsys, bits)


def test_verify_rejects_exponent_out_of_range(tmp_path, capsys):
    cw, _, _ = construct.generate(default_field(8), 2, 3)
    head, body = render_logsupport(cw.ctx, cw).split("\n", 1)
    logs = [int(v) for v in body.split(",")]
    for bad in (logs[-1] + 255, -2):
        text = head + "\n" + ",".join(map(str, logs[:-1] + [bad])) + "\n"
        _refused(tmp_path, capsys, text)
    doc = _json_doc(8, 2, 3)
    doc["support"][-1] = 255
    _refused(tmp_path, capsys, json.dumps(doc))


def test_verify_rejects_duplicate_entries(tmp_path, capsys):
    doc = _json_doc(10, 2, 3)
    assert doc["d"] == 48 and len(doc["support"]) == 48
    doc["support"].append(doc["support"][5])
    _refused(tmp_path, capsys, json.dumps(doc))


def test_verify_rejects_unknown_spec_version(tmp_path, capsys):
    doc = _json_doc(8, 2, 3)
    doc["spec_version"] = 99
    _refused(tmp_path, capsys, json.dumps(doc))


def test_verify_rejects_non_integer_fields(tmp_path, capsys):
    # d and m are refused, not coerced with int()
    doc = _json_doc(8, 2, 3)
    assert doc["d"] == 12
    for key, bad in (("d", 12.7), ("d", "12"), ("d", True), ("m", 8.0), ("m", "8")):
        _refused(tmp_path, capsys, json.dumps({**doc, key: bad}))
    cw, _, _ = construct.generate(default_field(8), 2, 3)
    text = render_logsupport(cw.ctx, cw)
    for bad in ("d=12.0", "d=+12", "d=1_2", "d=\u0661\u0662", "d=-12"):
        _refused(tmp_path, capsys, text.replace("d=12", bad))
    _refused(tmp_path, capsys, text.replace("m=8", "m=8.0"))


def test_verify_rejects_unreadable_inputs(tmp_path, capsys):
    doc = _json_doc(8, 2, 3)
    for bad_poly in (None, [285], True, "8,4,3,2,10000000000"):
        _refused(tmp_path, capsys, json.dumps({**doc, "poly": bad_poly}))
    _refused(tmp_path, capsys, "{" + '"a":' + "[" * 100_000)
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(doc).encode().replace(b'"m"', b'"\xe9"'))
    assert cli.main(["verify", str(path)]) == EXIT_PARSE
    # parses, but d > 2^m is no claim to verify (it once made verify hang)
    path.write_text(json.dumps({**doc, "d": 258}))
    assert cli.main(["verify", str(path)]) == EXIT_PARSE


def test_verify_rejects_mixed_and_foreign_entry_forms(tmp_path, capsys):
    # an entry is 0x-hex or decimal (a log, or -1), one form per file; these
    # were once read as {1, 3, 18}, as {3, 0x10}, as logs 3 and 5 and as 0x12
    head = "m=8 poly=0x11d d=4 extended=1\n"
    for body in ("0x3,12,0x1", "0x3,1_0", "3,+5"):
        _refused(tmp_path, capsys, head + body + "\n")
    _refused(tmp_path, capsys, json.dumps({**_json_doc(8, 2, 3), "support": ["12"]}))



def test_verify_rejects_repeated_header_names(tmp_path, capsys):
    # the last value of a repeated name used to win: d=99 ... d=24 read as d=24
    cw, _, _ = construct.generate(default_field(6), 2, 0)
    text = render_logsupport(cw.ctx, cw)
    assert text.startswith("m=6 poly=0x43 d=24 extended=1\n")
    assert parse_support_file(text).claimed_distance == 24
    for head in ("m=6 poly=0x43 d=99 d=24 extended=1", "m=6 poly=0x43 d=24 extended=1 m=6"):
        _refused(tmp_path, capsys, text.replace("m=6 poly=0x43 d=24 extended=1", head))


def test_verify_rejects_repeated_json_names(tmp_path, capsys):
    # json.loads keeps the last value of a repeated name
    text = json.dumps(_json_doc(8, 2, 3))
    assert parse_support_file(text).claimed_distance == 12
    for first in ('"d": 99, ', '"m": 9, ', '"d": 12, '):
        _refused(tmp_path, capsys, "{" + first + text[1:])


def test_repeated_modulus_exponent_refused(tmp_path, capsys):
    # X^8 + X^8 cancels over GF(2); the list was once OR-ed into 0x11d
    with pytest.raises(ValueError, match="repeated"):
        bchmin.parse_poly("8,8,4,3,2,0")
    code = cli.main(["generate", "--m", "8", "--i", "2", "--poly", "8,8,4,3,2,0"])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE and captured.out == "" and "repeated" in captured.err
    _refused(tmp_path, capsys, json.dumps({**_json_doc(8, 2, 3), "poly": "8,8,4,3,2,0"}))
    cw, _, _ = construct.generate(default_field(8), 2, 3)
    _refused(tmp_path, capsys, render_logsupport(cw.ctx, cw).replace("0x11d", "8,8,4,3,2,0"))

def test_verify_stream_of_moduli_pins_few_fields(tmp_path, capsys):
    # one file per primitive modulus of degree 8, each verified on the check
    # route (the whole field claimed at d = 256: every coset is a zero, so
    # h = X + 1); the caches keep the built-in field and at most two others
    polys = []
    for poly in range(0x101, 0x200, 2):
        try:
            GF2m(8, poly)
        except ValueError:  # reducible, or X not primitive
            continue
        polys.append(poly)
    assert len(polys) == 16
    path = tmp_path / "support.json"
    for poly in polys:
        cw, meta, _ = construct.generate(default_field(8, poly), 2, 0)
        whole = construct.CodewordSupport(cw.ctx, frozenset(range(256)), 256, True)
        path.write_text(render_json(cw.ctx, whole, meta))
        code, out = _run(capsys, ["verify", str(path)])
        assert code == EXIT_OK and json.loads(out)["route"] == "check"
    del cw, whole
    gc.collect()
    live = [obj for obj in gc.get_objects() if isinstance(obj, GF2m) and obj.m == 8]
    assert len(live) <= 3


_CLI_CHILD = "import sys; from bchmin.cli import main; sys.exit(main(sys.argv[1:]))"


def _cli_child(argv, timeout):
    """`bchmin argv` in a fresh interpreter, killed after timeout seconds."""
    env = dict(os.environ, PYTHONPATH=str(Path(bchmin.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", _CLI_CHILD, *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


# `bchmin argv` in a fresh interpreter that prints the exit code, the sha256
# of stdout and its own peak RSS in MB: VmHWM where /proc has it (ru_maxrss
# on Linux can also hold the parent's peak at exec), else ru_maxrss.
_CLI_PEAK_CHILD = """
import contextlib, hashlib, io, resource, sys
from bchmin.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as f:
        peak = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024
except OSError:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak = kib / 1024 if sys.platform != "darwin" else kib / 2**20
print(code, hashlib.sha256(out.getvalue().encode()).hexdigest(), peak)
"""


def test_fresh_m24_generate_builds_no_log_tables():
    # the 28-point (24, 3, 18) support takes subgroup logs and the power
    # walk, so the 2 x 64 MB log tables are never built: 31 MB peak, where
    # building them took 160 MB; stdout as when they were built
    env = dict(os.environ, PYTHONPATH=str(Path(bchmin.__file__).resolve().parents[1]))
    argv = ["generate", "--m", "24", "--i", "3", "--s", "18"]
    child = subprocess.run(
        [sys.executable, "-c", _CLI_PEAK_CHILD, *argv], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    code, digest, peak_mb = child.stdout.split()
    assert code == str(EXIT_OK)
    assert digest == "1d0471a54ce68194695f4695123fbdf84d7210635b8cfada16b4b3ca9aa2bca1"
    assert float(peak_mb) <= 80


def test_generate_into_closed_pipe_exits_quietly():
    # the reader takes 16 bytes of 4.7 MB and closes the pipe: exit 1 and
    # nothing on stderr, not a BrokenPipeError traceback
    env = dict(os.environ, PYTHONPATH=str(Path(bchmin.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", _CLI_CHILD, "generate", "--m", "20", "--i", "2", "--s", "0"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.read(16) == b'{\n  "spec_versio'
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == cli.EXIT_CLOSED
    assert "Traceback" not in err and err == ""


class _ArrayMemoryError(MemoryError):
    """A subclass, as numpy raises for an array it cannot allocate."""


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_out_of_memory_exits_3_with_one_line(tmp_path, monkeypatch, capsys, command):
    # a MemoryError subclass ends the command as a refusal: exit 3 and one
    # stderr line, no traceback
    message = "Unable to allocate 768. MiB for an array with shape (100663296,) and data type uint64"

    def allocate(*args):
        raise _ArrayMemoryError(message)

    code, out = _run(capsys, ["generate", "--m", "8", "--i", "2", "--s", "1"])
    path = tmp_path / "s.json"
    path.write_text(out)
    monkeypatch.setattr(construct, "generate", allocate)
    monkeypatch.setattr(verify, "is_min_weight", allocate)
    argv = ["generate", "--m", "8", "--i", "2"] if command == "generate" else ["verify", str(path)]
    assert cli.main(argv) == cli.EXIT_UNCOVERED
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"out of memory: {message}\n"


@pytest.mark.parametrize("m, poly", [(24, "0x100001B"), (26, "0x4000047"), (32, "0x1000000af")])
def test_verify_absurd_distance_stops_at_first_failing_syndrome(tmp_path, m, poly):
    # d = 2^m claims p_j = 0 for every j < 2^m - 1; the scan must stop at
    # p_3 != 0 without walking (or allocating for) the whole range
    path = tmp_path / "absurd.bits"
    path.write_text(f"m={m} poly={poly} d={1 << m} extended=1\n0x0\n0x1\n0x2\n0x3\n")
    t0 = time.perf_counter()
    child = _cli_child(["verify", str(path)], timeout=60)
    wall = time.perf_counter() - t0
    assert child.returncode == EXIT_VERIFY_FAIL, child.stderr
    assert json.loads(child.stdout)["failing_syndrome"][0] == 3
    assert wall < 5.0


@pytest.mark.parametrize("form", ["json-int", "json-str", "text", "flag"])
def test_negative_modulus_refused(tmp_path, form):
    # a negative modulus has the bit length of a degree-8 one, and once made
    # the field's irreducibility test loop forever
    path = tmp_path / "negative"
    if form.startswith("json"):
        doc = _json_doc(8, 2, 3)
        doc["poly"] = -285 if form == "json-int" else "-0x11d"
        path.write_text(json.dumps(doc))
    else:
        path.write_text("m=8 poly=-285 d=6 extended=1\n0x0\n0x1\n0x2\n0x3\n0x4\n0x5\n")
    argv = ["verify", str(path)]
    if form == "flag":
        argv = ["generate", "--m", "8", "--i", "2", "--poly=-285"]
    child = _cli_child(argv, timeout=30)
    assert child.returncode == EXIT_PARSE and child.stdout == ""
    assert "negative" in child.stderr


def test_verify_prints_the_route(tmp_path, capsys):
    # the route depends on (n, L, |S|) only, so repeated calls print the same
    code, out = _run(capsys, ["generate", "--m", "12", "--i", "4", "--s", "0"])
    path = tmp_path / "d1920.json"
    path.write_text(out)
    outs = [_run(capsys, ["verify", str(path)]) for _ in range(2)]
    assert outs[0] == outs[1] and outs[0][0] == EXIT_OK
    assert json.loads(outs[0][1])["route"] == "check"
    code, out = _run(capsys, ["generate", "--m", "12", "--i", "4", "--s", "4"])
    path.write_text(out)
    code, out = _run(capsys, ["verify", str(path)])
    assert code == EXIT_OK and json.loads(out)["route"] == "scan"
    # in between, the stabilizer search: stdout differs from the scan's and
    # the check's only in the route
    code, out = _run(capsys, ["generate", "--m", "12", "--i", "4", "--s", "2"])
    path.write_text(out)
    code, out = _run(capsys, ["verify", str(path)])
    assert code == EXIT_OK and json.loads(out)["route"] == "affine"
    for route in ("scan", "check"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_pick_route", lambda *args: route)
            forced = _run(capsys, ["verify", str(path)])
        assert forced == (code, out.replace('"affine"', f'"{route}"')), route


def test_verify_of_a_large_generated_file_is_fast(tmp_path):
    # the (25, 2, 6) support, 196,608 points on a field without log tables:
    # the scan walks about 98,000 array products of the whole support, and
    # took over 150 s; its stabilizer, of dimension 15, leaves 6 points
    path = tmp_path / "m25.bits"
    child = _cli_child(["generate", "--m", "25", "--i", "2", "--s", "6", "--format", "bits"], 60)
    assert child.returncode == EXIT_OK, child.stderr
    path.write_text(child.stdout)
    child = _cli_child(["verify", str(path)], timeout=10)
    assert child.returncode == EXIT_OK, child.stderr
    assert json.loads(child.stdout)["route"] == "affine"


# -- verify: fuzzed files ---------------------------------------------------------

FUZZ_POLYS = ["0x43", "0x61", "6,1,0", "0x11d", 67, True, None, [1], "zz", "1,99999999999"]
FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-2, 70), max_size=3),
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    cw, meta, _ = construct.generate(default_field(6), 2, 1)  # d = 12
    ctx = cw.ctx
    texts = [render_json(ctx, cw, meta), render_logsupport(ctx, cw), cli.render_bits(ctx, cw)]
    return texts, tmp_path_factory.mktemp("fuzz") / "support"


@st.composite
def _mutated(draw, texts):
    text = draw(st.sampled_from(texts))
    if text.startswith("{"):
        doc = json.loads(text)
        for _ in range(draw(st.integers(0, 2))):
            key = draw(st.sampled_from(["m", "poly", "d", "extended", "support", "spec_version"]))
            if key == "poly":
                doc[key] = draw(st.sampled_from(FUZZ_POLYS))
            elif key == "m":
                doc[key] = draw(st.integers(-1, 40))
            elif draw(st.booleans()) and isinstance(doc["support"], list) and doc["support"]:
                doc["support"][draw(st.integers(0, len(doc["support"]) - 1))] = draw(FUZZ_VALUES)
            else:
                doc[key] = draw(FUZZ_VALUES)
        text = json.dumps(doc)
    data = bytearray(text.encode())
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.sampled_from(b"0123456789abcdefx,-=.{}[]\" \n") | st.integers(0, 255))
        if op == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if op == "replace":
                data[pos] = byte
            else:
                del data[pos]
    return bytes(data)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_verify_fuzzed_files(fuzz_files, data):
    texts, path = fuzz_files
    path.write_bytes(data.draw(_mutated(texts)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", str(path)])
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_PARSE)


# -- verify: the parser against a frozen copy of its predecessor -------------

# The characters of drawn text bodies, and entries that each once took a
# path of their own: leading zeros, "-0", a blank inside an entry, 20 and
# 5,000 digits (int() refuses over 4,300 decimal digits, never hex ones).
_BODY_CHARS = list("0123456789abcdefABCDEFxX-+_, \t") + [
    "0x", "0X", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
    "\u2028",
]
_BODY_ENTRIES = [
    "0", "1", "-1", "-0", "007", "0x0", "0x1", "0x01", "0X1", "0x", "1 2", "0x1 0x2", "+1",
    "1_0",
    "9" * 20, "0" * 19 + "3", "0x" + "f" * 20, "0x" + "0" * 19 + "3",
    "0" * 4999 + "5", "7" * 5000, "0x" + "0" * 4999 + "5",
]
_FIELDS = [(8, "0x11d"), (16, "0x1100b"), (24, "0x100001b"), (25, "0x2000009")]


@st.composite
def _text_files(draw):
    m, poly = draw(st.sampled_from(_FIELDS))
    n = (1 << m) - 1
    logs = st.integers(-1, n).map(str) | st.integers(0, n + 1).map("{:012d}".format)
    hexes = st.integers(0, n + 1).map(hex) | st.integers(0, n).map("0x{:09x}".format)
    chars = st.lists(st.sampled_from(_BODY_CHARS), max_size=4).map("".join)
    special = st.sampled_from(_BODY_ENTRIES) | chars
    entry = draw(st.sampled_from([logs, hexes, logs | special, hexes | special, logs | hexes]))
    seps = list(",,, \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028")
    sep = st.lists(st.sampled_from(seps), min_size=1, max_size=3)
    parts = draw(st.lists(st.tuples(entry, sep.map("".join)), max_size=12))
    body = "".join(e + s for e, s in parts)
    valid = f"m={m} poly={poly} d={{d}} extended={{e}}"
    head = draw(st.sampled_from([valid] * 6 + [
        f"m={m}\xa0poly={poly}\x1fd={{d}} extended={{e}}",
        f"\ufeffm={m} poly={poly} d={{d}} extended={{e}}",
        f"m={m} poly= d={{d}} extended={{e}}",
        f"m={m} poly={poly} d={{d}} extended={{e}} x",
        f"m={m} poly={poly} extended={{e}}",
        "[1,2]",
    ]))
    head = head.format(d=draw(st.integers(1, 40)), e=draw(st.sampled_from(["0", "1", "1", "2"])))
    return head + draw(st.sampled_from(["\n", "\n", "\r\n", "\x85", "\u2028", " "])) + body


_JSON_VALUES = st.one_of(
    st.integers(-3, 300),
    st.integers(-(2**65), 2**65),
    st.sampled_from([2**63, 2**64, -(2**63) - 1]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.lists(st.integers(0, 9), max_size=2),
    st.integers(0, 300).map(hex),
    st.sampled_from(["12", " 0x1", "0x1,0x2", "", "0X1", "0x", "-1", "0x1\n"]),
)


@st.composite
def _json_files(draw):
    m, poly = draw(st.sampled_from(_FIELDS[:1] + _FIELDS[3:]))
    support = draw(
        st.lists(st.integers(-1, 254), max_size=8, unique=True)
        | st.lists(st.integers(0, 255).map(hex), max_size=8, unique=True)
        | st.lists(_JSON_VALUES, max_size=6)
    )
    doc = {"spec_version": 1, "m": m, "poly": poly, "d": draw(st.integers(1, 12)),
           "extended": draw(st.booleans()), "support": support}
    change = draw(st.sampled_from([None] * 6 + ["m", "poly", "d", "extended", "support", "", "  "]))
    if change in doc:
        del doc[change]
    elif change is not None:
        doc["poly"] = change
    return json.dumps(doc)


# Messages of the predecessor that were Python internals; every other
# refusal keeps its message, but for an echoed entry, now cut (`_cut`).
_INTERNAL = re.compile(
    r"sequence item|dictionary update sequence|Exceeds the limit|"
    r"invalid literal for int\(\) with base (0: ''|16: '0x[^']*,)|file: '[^']*'$"
)


def _cut(message):
    """A refusal of the predecessor with its echoed entry cut by `_quote`,
    as the parser cuts it now; a message echoing no entry stays as it is."""
    return re.sub(r"(discrete log|element) (\S+) is outside", lambda e: f"{e[1]} {_quote(e[2])} is outside",
                  message)


def _parse(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


@given(text=st.one_of(_text_files(), _json_files()))
@settings(max_examples=600, deadline=None)
def test_parser_matches_its_predecessor(text):
    # refused by both, or read alike; a refusal keeps its message, its
    # echoed entry cut, unless that was a Python internal
    old, new = _parse(predecessor, text), _parse(parse_support_file, text)
    if isinstance(old, str) or isinstance(new, str):
        assert isinstance(old, str) and isinstance(new, str), (old, new)
        assert _cut(old) == new or _INTERNAL.search(old), (old, new)
    else:
        assert np.array_equal(old.elems, new.elems) and old.ctx.poly == new.ctx.poly
        assert (old.claimed_distance, old.extended) == (new.claimed_distance, new.extended)



@given(text=st.one_of(_text_files(), _json_files()), piece=st.integers(1, 48))
@settings(max_examples=300, deadline=None)
def test_parser_in_small_pieces_matches_its_predecessor(text, piece):
    # a body read a few bytes at a time is refused, or read, as a whole
    with mock.patch.object(files, "_PIECE", piece):
        new = _parse(parse_support_file, text)
    old = _parse(predecessor, text)
    if isinstance(old, str) or isinstance(new, str):
        assert isinstance(old, str) and isinstance(new, str), (old, new)
        assert _cut(old) == new or _INTERNAL.search(old), (old, new)
    else:
        assert np.array_equal(old.elems, new.elems) and old.ctx.poly == new.ctx.poly


@given(text=st.one_of(_text_files(), _json_files()), newline=st.sampled_from(["\n", "\r\n", "\r"]))
@settings(max_examples=300, deadline=None)
def test_parser_reads_bytes_as_text_mode_reads_the_file(text, newline):
    # the bytes of a file parse as the str a text-mode read of it gives:
    # UTF-8 with universal newlines, so CRLF and lone CR as LF
    data = text.replace("\n", newline).encode()
    read = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    old, new = _parse(parse_support_file, read), _parse(parse_support_file, data)
    if isinstance(old, str) or isinstance(new, str):
        assert old == new
    else:
        assert np.array_equal(old.elems, new.elems) and old.ctx.poly == new.ctx.poly
        assert (old.claimed_distance, old.extended) == (new.claimed_distance, new.extended)


_FORM = "support entries must be all 0x-hex values or all decimal logs"


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_refusals_of_a_long_body_rank_across_pieces(tmp_path, capsys, newline):
    # 98,304 entries, read in several pieces: a refusal is the one the whole
    # body gets, with the parent's message; a form error anywhere outranks an
    # entry of over 4300 digits, which outranks an entry outside the field
    cw, _, _ = construct.generate(default_field(18), 2, 0)
    head, body = render_logsupport(cw.ctx, cw).split("\n", 1)
    logs = body.split(",")
    assert len(logs) > files._CHUNK and len(body) > 4 * files._PIECE
    first, middle, last = 5, len(logs) // 2, len(logs) - 5
    too_long, outside = "7" * 5000, "discrete log 262143 is outside -1..262142"
    cases = [
        ({first: "262143"}, outside),
        ({first: "262143", last: "0x1"}, _FORM),
        ({first: "262143", middle: too_long, last: "1 2"}, _FORM),
        ({first: "262143", middle: too_long}, "discrete log 777777777777... has over 4300 digits"),
        ({middle: "262143", last: "-2"}, _FORM),
        ({middle: "00000000000000000000262143"}, "discrete log 262143 is outside -1..262142"),
        ({first: logs[last]}, "1 repeated support entries"),
    ]
    path = tmp_path / "long.log"
    for changes, message in cases:
        text = head + "\n" + ",".join(changes.get(k, v) for k, v in enumerate(logs))
        message = f"bad log-support file: {message}"
        old = _parse(predecessor, text)
        assert _cut(old) == message or _INTERNAL.search(old), (old, message)
        path.write_bytes(text.replace("\n", newline).encode())
        code = cli.main(["verify", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_PARSE, "", message + "\n")
    # the bits file of the same support: hex entries, one per line
    lines = render_bits(cw.ctx, cw).split("\n")
    for changes, message in [({3: "0x40000"}, "element 0x40000 is outside GF(2^18)"),
                             ({3: "0x40000", len(lines) - 4: "17"}, _FORM)]:
        text = "\n".join(changes.get(k, v) for k, v in enumerate(lines))
        path.write_bytes(text.replace("\n", newline).encode())
        code = cli.main(["verify", str(path)])
        assert (code, capsys.readouterr().err) == (EXIT_PARSE, f"bad log-support file: {message}\n")


def test_verify_refuses_non_utf8_as_a_text_mode_read_does(tmp_path, capsys):
    path = tmp_path / "latin1.log"
    path.write_bytes(b"m=8 poly=0x11d d=4 extended=1\r\n1,2,\xe9,3\n")
    with pytest.raises(UnicodeDecodeError) as exc:
        path.read_text(encoding="utf-8")
    assert cli.main(["verify", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"{path} is not UTF-8 text: {exc.value}\n"


# -- the JSON writer ------------------------------------------------------------

# Support, X and B entries as emitted: sorted logs, -1 (the zero element)
# first, up to m = 24; hex element values above.
_LOG_ENTRIES = st.builds(
    lambda zero, logs: [-1] * zero + sorted(logs),
    st.booleans(),
    st.sets(st.integers(0, (1 << 24) - 2), max_size=40),
)
_HEX_ENTRIES = st.sets(st.integers(0, (1 << 32) - 1), max_size=40).map(
    lambda elems: [hex(x) for x in sorted(elems)]
)
_ENTRIES = _LOG_ENTRIES | _HEX_ENTRIES


@given(
    doc=st.fixed_dictionaries({
        "spec_version": st.just(cli.SPEC_VERSION),
        "m": st.integers(2, 32),
        "poly": st.integers(0, 1 << 33).map(hex),
        "d": st.integers(2, 1 << 32),
        "extended": st.booleans(),
        "support": _ENTRIES,
        "verified": st.just(True),
        "i": st.integers(1, 16),
        "s": st.integers(0, 30),
        "method": st.sampled_from(["auto", *construct.METHODS]),
        "seed": st.none() | st.integers(-(1 << 80), 1 << 80),
        "X": _ENTRIES,
        "B": _ENTRIES,
    })
)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(doc):
    pieces = []
    files._json_doc(doc, pieces.append)
    assert "".join(pieces) == json.dumps(doc, indent=2)


# Entries on both sides of every digit-count boundary: 9/10 up to the
# 8-digit logs of m = 24, and 0xf/0x10 up to 2^32 - 1.
_DIGIT_EDGES = {
    np.int32: [10**k + d for k in range(1, 8) for d in (-1, 0)],
    np.uint64: [16**k + d for k in range(1, 8) for d in (-1, 0)] + [(1 << 32) - 1],
}


@given(
    dtype=st.sampled_from([np.int32, np.uint64]),
    zero=st.booleans(),
    edges=st.lists(st.integers(0, 14)),
    fill=st.integers(0, 2 * files._VECTOR_MIN + 100),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 7, 64, files._CHUNK]),
    sep=st.sampled_from([",", "\n", ",\n    "]),
    quoted=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_entry_writer_matches_str_join(dtype, zero, edges, fill, seed, chunk, sep, quoted):
    # the writer against the join it replaced, on lists on both sides of
    # _VECTOR_MIN and across the piece size, patched small here
    rng = np.random.default_rng(seed)
    top = (1 << 24) - 1 if dtype is np.int32 else 1 << 32
    spread = rng.integers(0, top >> rng.integers(0, 24, fill), dtype=np.int64) if fill else []
    picked = [_DIGIT_EDGES[dtype][k] for k in edges if k < len(_DIGIT_EDGES[dtype])]
    values = np.unique(np.concatenate([picked, spread]).astype(dtype))
    if dtype is np.int32:
        values = np.concatenate([[-1] * zero, values]).astype(dtype)
        expected = sep.join(map(str, values.tolist()))
    else:
        expected = sep.join(f'"{x:#x}"' if quoted else hex(x) for x in values.tolist())
    pieces = []
    with mock.patch.object(files, "_CHUNK", chunk):
        files._write_entries(pieces.append, values, sep, quoted)
    assert "".join(pieces) == expected
    if len(values) >= files._VECTOR_MIN:  # bounded pieces: at most `chunk` entries each
        assert max(piece.count(sep) for piece in pieces) <= chunk


# -- pinned outputs and the solver registry -----------------------------------

# SHA-256 of stdout, recorded before the solver registry replaced the CLI's
# own routing: one cell per method, each format, and the hex path (m > 24).
# The gold cell was recorded again when its "seed" became null.  The cells
# from m = 28 on were recorded before the table-free arithmetic moved from
# bit-serial loops to windowed products and fold tables: one per method at
# m = 27..32, one with a non-default primitive modulus.  The gold and gk
# cells were recorded again when their JSON gained X and B.  The m = 16,
# 17 and 26 cells were recorded before supports became sorted arrays and
# JSON was written without json.dumps(indent=2): the affine gate at 24,576
# points in every format, a table-built field above 16, and the hex path
# with a nonempty B.  The m = 32 chain of 28 generators and the m = 30 gk
# lift were recorded before construction evaluated its subspace polynomials
# on values (now `linearized.annihilator`) in place of their coefficients.  The
# m = 18 cells (98,304 entries) and the m = 25 cell at s = 6 (196,608 quoted
# hex entries) were recorded before entries were written as numpy digit
# runs in pieces of 2^16 entries.  A test id is its argv alone, so
# recording a digest again keeps the test's name.
PINNED = [
    ("generate --m 10 --i 2 --s 3 --seed 1", "c5e8f7e1fcef6f3361087b5170b1dc3d6d0334b05ac41d78c725ac29817d4030"),
    ("generate --m 9 --i 3 --s 1 --seed 2", "90ad178483a5ec00d1a288d67199acbd032c25ebbaaf3383855b8f48deaaa557"),
    ("generate --m 12 --i 4 --s 2 --seed 0", "2a636e5b69da809edae95dafdd4db99b3d912369a4c58dbd181efb498a8120da"),
    ("generate --m 9 --i 2 --s 3 --seed 4 --method i2odd", "e3776ad14159990d1a48b79172e36fa7173ce728a4316f2f1da33e47c434538a"),
    ("generate --m 15 --i 2 --s 9 --seed 0 --method i2composite", "e5374fb3d27af8f0f783d35b0fdd6085355961b293bdf6d19ee6d023214df7e8"),
    ("generate --m 8 --i 2 --s 1 --seed 0 --method gold", "3f3651d1a0d1736cd6d1d250ae3b33d5ec9783401f8ce881af03138e47417402"),
    ("generate --m 8 --i 2 --s 3 --seed 2 --method gk", "d33868ada43b860b615cc1d5aa6e5b394421b0cdc75f9afb703e513c1d8abafc"),
    ("generate --m 8 --i 3 --s 2 --seed 3 --format json", "65b489fc9a4ad1f8ecf2f380bc5958d54f14766b2415f9838a24718b99609f8e"),
    ("generate --m 10 --i 2 --s 3 --seed 1 --format logsupport", "edd2bbd1d4b348ff9ae11b11d291672bf3a31df7994e3823c4b422703fe16b6e"),
    ("generate --m 7 --i 3 --s 1 --seed 5 --format bits", "76309d140982f74024810c15989281478c7d43a9be3ec46a5841e0ca3b0b9a6d"),
    ("generate --m 25 --i 2 --s 21 --seed 0", "de66e4f6046d14ea7bda5694844f69730b96d6054c1ab345cff33f8a2604ed9f"),
    ("generate --m 8 --i 1 --s 2 --seed 0 --method gold", "9d4a3bb6db3c18c9b20eb737bf334c67c8f73cd0469622395d6cfc4714cf8941"),
    ("generate --m 12 --i 3 --s 0 --seed 0 --method gold", "27fce9bcea1a0b969a073835ee4446ad0b002e682b7e58cb1c8215c139742ba6"),
    ("generate --m 16 --i 4 --s 0 --seed 0 --method gold", "333e2c3e1b31cedc5ad587e2f344ddaf08789ca1490095f44df3caa9288f2d97"),
    ("generate --m 16 --i 3 --s 4 --seed 1", "c8c5166666b1498dde57d8fa7c3163ddeac8b732d4d4efc7552f223967b569bc"),
    ("generate --m 16 --i 4 --s 3 --seed 0", "97fa677cac8d4cef8235c7f7d7154201ff86bf1e465b0378e3e0816a8622fa5c"),
    ("generate --m 28 --i 4 --s 20 --seed 0", "c23e25c4b103cec45c26d79c89e272e538dab7e32157674d99fac5060eb5496c"),
    ("generate --m 32 --i 3 --s 26 --seed 1", "b43e484bde95b625678ac9f8ff4f62162557920d9b6a1e35dddac9eda35208bd"),
    ("generate --m 31 --i 3 --s 25 --seed 2", "2be80bd673544d044d8547d9141559e879c3408a2b5336f7f859bf374b0dce6e"),
    ("generate --m 30 --i 2 --s 26 --seed 3 --method gk", "96e522632f12a998231d9cb8ce5d8e06dc59002d7ef7fe691914b9d35adb1a08"),
    ("generate --m 28 --i 2 --s 24 --method gold", "2400de2ac65450eec08bd2b2432cc243e521571d49394daa40263d5d18ba4e64"),
    ("generate --m 27 --i 2 --s 23 --seed 0 --poly 0x80000d1", "3406f852b07337af76a00a0c0381cb562fbd38bb64e2fd718e029c8fa7e16bc5"),
    ("generate --m 16 --i 2 --s 0 --seed 0", "802c6647fc310bce5aed3e3f6f15af4ad5e014a39467fdb2b33ce83bdaaffa56"),
    ("generate --m 16 --i 2 --s 0 --seed 0 --format logsupport", "cbdc1e04c6a4cca8e27e23190cab5969ea1e1abafc8291153f6a9d0603cf9428"),
    ("generate --m 16 --i 2 --s 0 --seed 0 --format bits", "5fade366b09b6fdd181184a4de817e175fb19d99f808d4d97978fa900dee29e4"),
    ("generate --m 17 --i 2 --s 5 --seed 0", "401725040823fe4511119f91367e9b992436e24ea770626e6d1531821c8c6687"),
    ("generate --m 26 --i 2 --s 18 --seed 0 --format logsupport", "b170cc56438bc61ef86232184ed27499844166d5177930c4870abba3cb829a9a"),
    ("generate --m 26 --i 2 --s 18 --seed 0 --format bits", "2618dc31abb9a503f4aa32bb78fc9e831c50045a547071e29038d98846c6f57e"),
    ("generate --m 32 --i 2 --s 28 --seed 0", "0077de5cc93987bb91ecb5468dec0feedccb00f585fa4a0b055cc982a37574e7"),
    ("generate --m 30 --i 2 --s 24 --seed 3 --method gk", "64249ccde6bab095973e43c689fe8574287f2695965d314299e1c136d2451a1d"),
    ("generate --m 18 --i 2 --s 0 --seed 0", "17ab493d7a8431e1506f085904bc8dccb5c854974e7fc066cefba1ecb3a1ccd2"),
    ("generate --m 18 --i 2 --s 0 --seed 0 --format logsupport", "5915b8fe6d155139f1c0fbb16f4a50e0329cc47c4446202deae8fafbb540452d"),
    ("generate --m 18 --i 2 --s 0 --seed 0 --format bits", "157b5de0d9a08568165d65871f0de7457ca90d800f2a2dc233e3a83027b33440"),
    ("generate --m 25 --i 2 --s 6 --seed 0", "473f9630eab436dba3b0e9afbefa2deaa542968d0950c1e54027d1dccb669064"),
]


@pytest.mark.parametrize("argv,digest", PINNED, ids=[argv for argv, _ in PINNED])
def test_pinned_output(capsys, argv, digest):
    code, out = _run(capsys, argv.split())
    assert code == EXIT_OK
    assert _sha256(out) == digest


def test_method_choices_are_the_registry():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    method = next(a for a in sub.choices["generate"]._actions if a.dest == "method")
    assert set(method.choices) == {"auto"} | set(construct.METHODS)


# auto route per (m, i) of the acceptance grid; None is uncovered
AUTO_ROUTES = {
    2: {m: "i2even" if m % 2 == 0 else "i2odd" for m in range(4, 17)},
    3: {m: "i3even" if m % 2 == 0 else "i3heuristic" for m in range(6, 17)},
    4: {8: "i4", 12: "i4", 16: "i4"},
}


@pytest.mark.parametrize("i", [2, 3, 4])
def test_auto_routes_grid(i):
    for m in range(4, 17):
        expected = AUTO_ROUTES[i].get(m)
        if expected is None:
            with pytest.raises(UncoveredCase):
                construct.generate(default_field(m), i, max(m - 2 * i, 0), 1)
            continue
        _, meta, _ = construct.generate(default_field(m), i, m - 2 * i, 1)
        assert meta["method"] == expected
