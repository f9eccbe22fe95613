import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bchmin
from bchmin import cli, construct
from bchmin.cli import (
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNCOVERED,
    EXIT_VERIFY_FAIL,
    ParseError,
    UncoveredCase,
    generate,
    parse_support_file,
    render_json,
    render_logsupport,
)
from bchmin.fixtures import BCH27_FIXTURES
from bchmin.gf2m import GF2m


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


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


def test_verify_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("not a support file")
    code, _ = _run(capsys, ["verify", str(path)])
    assert code == EXIT_PARSE


def test_table_t23(capsys):
    code, out = _run(capsys, ["table", "t23"])
    assert code == EXIT_OK
    assert "verified=True" in out and "m=16" in out


def test_table_t27(capsys):
    code, out = _run(capsys, ["table", "t27"])
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.startswith("m=")]
    assert len(lines) == 9
    for ln in lines:
        assert ln.count("verified=True") == 2  # fixture and fresh generation
        assert "match=" in ln


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
    cw, meta = generate(9, 2, 2, seed=4)
    ctx = cw.ctx
    # with and without the zero element, which is written as the log -1
    for shown in (cw, type(cw)(ctx, cw.elems ^ {0}, cw.claimed_distance, cw.extended)):
        for text in (render_json(ctx, shown, meta), render_logsupport(ctx, shown)):
            back = parse_support_file(text)
            assert back.elems == shown.elems
            assert back.claimed_distance == cw.claimed_distance
            assert back.extended == cw.extended


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
        elems = cw.elems - {max(cw.elems)} | {outsider}
        return construct.CodewordSupport(cw.ctx, elems, cw.claimed_distance, cw.extended)

    monkeypatch.setattr(construct, "expand", swapped)


def test_generate_refuses_unverified_support(monkeypatch, capsys):
    _swap_one_expanded_element(monkeypatch)
    code = cli.main(["generate", "--m", "8", "--i", "2", "--s", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFY_FAIL and captured.out == ""
    assert captured.err.startswith("refusing to emit unverified support")


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
            ["generate", "--m", "8", "--i", "2", "--s", "2"], {}, True,
            EXIT_VERIFY_FAIL, "refusing to emit unverified support: Verdict(",
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
        pytest.param(["table", "t23"], {}, True, EXIT_VERIFY_FAIL, "", id="table-row-refused"),
    ],
)
def test_refusal_exit_code_and_message(tmp_path, monkeypatch, capsys, argv, files, swap, code, err):
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
    cw, meta = generate(m, i, s, seed=0)
    return json.loads(render_json(cw.ctx, cw, meta))


def test_verify_rejects_hex_element_out_of_range(tmp_path, capsys):
    doc = _json_doc(8, 2, 3)
    doc["support"][0] = "0x1ff"
    _refused(tmp_path, capsys, json.dumps(doc))
    cw, _ = generate(8, 2, 3, seed=0)
    bits = cli.render_bits(cw.ctx, cw).replace(hex(max(cw.elems)), "0x1ff")
    _refused(tmp_path, capsys, bits)


def test_verify_rejects_exponent_out_of_range(tmp_path, capsys):
    cw, _ = generate(8, 2, 3, seed=0)
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
    cw, _ = generate(8, 2, 3, seed=0)
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
    cw, _ = generate(6, 2, 0, seed=0)
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
    cw, _ = generate(8, 2, 3, seed=0)
    _refused(tmp_path, capsys, render_logsupport(cw.ctx, cw).replace("0x11d", "8,8,4,3,2,0"))

def test_verify_stream_of_moduli_pins_few_fields(tmp_path, capsys):
    # one file per primitive modulus of degree 8, each verified on the check
    # route; the caches keep the built-in field and at most two others
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
        cw, meta = generate(8, 2, 0, seed=0, poly=poly)
        path.write_text(render_json(cw.ctx, cw, meta))
        code, out = _run(capsys, ["verify", str(path)])
        assert code == EXIT_OK and json.loads(out)["route"] == "check"
    del cw
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
    cw, meta = generate(6, 2, 1, seed=0)  # d = 12
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


# -- pinned outputs and the solver registry -----------------------------------

# SHA-256 of stdout, recorded before the solver registry replaced the CLI's
# own routing: one cell per method, each format, and the hex path (m > 24).
# The gold cell was recorded again when its "seed" became null.
PINNED = [
    ("generate --m 10 --i 2 --s 3 --seed 1", "c5e8f7e1fcef6f3361087b5170b1dc3d6d0334b05ac41d78c725ac29817d4030"),
    ("generate --m 9 --i 3 --s 1 --seed 2", "90ad178483a5ec00d1a288d67199acbd032c25ebbaaf3383855b8f48deaaa557"),
    ("generate --m 12 --i 4 --s 2 --seed 0", "2a636e5b69da809edae95dafdd4db99b3d912369a4c58dbd181efb498a8120da"),
    ("generate --m 9 --i 2 --s 3 --seed 4 --method i2odd", "e3776ad14159990d1a48b79172e36fa7173ce728a4316f2f1da33e47c434538a"),
    ("generate --m 15 --i 2 --s 9 --seed 0 --method i2composite", "e5374fb3d27af8f0f783d35b0fdd6085355961b293bdf6d19ee6d023214df7e8"),
    ("generate --m 8 --i 2 --s 1 --seed 0 --method gold", "c46cbcee5982d96d8e9ece12b192ad043f11168f41620a3194e0e403c0d164ce"),
    ("generate --m 8 --i 2 --s 3 --seed 2 --method gk", "b8d734b32b699d787239a290c8b065fc745716c5c4cf6afaccdfe4b9fa58a017"),
    ("generate --m 8 --i 3 --s 2 --seed 3 --format json", "65b489fc9a4ad1f8ecf2f380bc5958d54f14766b2415f9838a24718b99609f8e"),
    ("generate --m 10 --i 2 --s 3 --seed 1 --format logsupport", "edd2bbd1d4b348ff9ae11b11d291672bf3a31df7994e3823c4b422703fe16b6e"),
    ("generate --m 7 --i 3 --s 1 --seed 5 --format bits", "76309d140982f74024810c15989281478c7d43a9be3ec46a5841e0ca3b0b9a6d"),
    ("generate --m 25 --i 2 --s 21 --seed 0", "de66e4f6046d14ea7bda5694844f69730b96d6054c1ab345cff33f8a2604ed9f"),
    ("generate --m 8 --i 1 --s 2 --seed 0 --method gold", "967b9d2f2a843c086ad68b7a58986f8d0a4a0929f2bd711f3eba57352db3aace"),
    ("generate --m 12 --i 3 --s 0 --seed 0 --method gold", "54c522a5bb27101d7edd6b0895c97aa86c1d36abc4bf3a96903f7c38aa4dc5fb"),
    ("generate --m 16 --i 4 --s 0 --seed 0 --method gold", "5fa966ad8b27858b0b847ef805444044c6d17375165cf49850b45f71b132827d"),
    ("generate --m 16 --i 3 --s 4 --seed 1", "c8c5166666b1498dde57d8fa7c3163ddeac8b732d4d4efc7552f223967b569bc"),
    ("generate --m 16 --i 4 --s 3 --seed 0", "97fa677cac8d4cef8235c7f7d7154201ff86bf1e465b0378e3e0816a8622fa5c"),
]


@pytest.mark.parametrize("argv,digest", PINNED)
def test_pinned_output(capsys, argv, digest):
    code, out = _run(capsys, argv.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
                generate(m, i, max(m - 2 * i, 0), seed=1)
            continue
        _, meta = generate(m, i, m - 2 * i, seed=1)
        assert meta["method"] == expected
