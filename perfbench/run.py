"""Benchmark of the bchmin CLI: one workload per process, closed loop.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

Run from the root of a checkout; the package is imported from `src/`.
Each operation is an in-process `bchmin.cli.main(argv)` call with stdout
captured, issued only after the previous one returned.  The timed pass runs
whole passes over the workload's operation list, as many as fit in
--seconds, but at least 100 operations.  Outputs are checked after the
timed pass (the correctness gate).

--trace 0 prints the end-to-end metrics, with each latency scaled by the
host speed that a probe between operations measures (see host_probe); the
unscaled figures are printed too.  --trace 1 runs half the time
untraced and the same passes again with spans around every public function
(see spans.py), and prints the per-layer metrics.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import selfcheck
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("grid", "small_d", "large_m", "verify_files")
SETUP_REPEATS = 3  # set-up samples per run: 2 fresh processes + this one
PROBE_LOOPS = 400  # interpreted part of the host probe
PROBE_GATHERS = 30  # numpy part: gathers from a 2^16-entry table, as in verify
PROBE_REF_S = 0.00045  # the probe's median time in runs on the reference machine (README)
PROBE_TIMEOUT_S = 60
MIN_SAMPLES = 100  # so the p90 latency has at least ten samples beyond it
MODULES = ("cli", "construct", "gf2m", "gflinalg", "linearized", "solvers", "verify")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing package, failed set-up)."""


# -- host speed ---------------------------------------------------------------------


@functools.cache
def _probe_arrays():
    import numpy as np  # only after set-up: importing numpy is part of it

    return np, np.arange(1 << 16, dtype=np.int64) ^ 0x5A5A, np.arange(0, 33 * 977, 977)


def host_probe() -> float:
    """Seconds a fixed mix of the program's two kinds of work takes:
    interpreted code (int/str conversion, dict stores, a sort) and small
    numpy gathers and XOR reductions.  That is the host's speed right now.

    The host shifts between fast and slow regimes lasting seconds to
    minutes.  Operation latencies are scaled by PROBE_REF_S / (median
    probe time of their pass), so they read as on a host where the probe
    takes PROBE_REF_S.  The probe runs between operations, outside every
    timed interval."""
    np, table, idx = _probe_arrays()
    t0 = time.perf_counter()
    seen = {}
    for k in range(PROBE_LOOPS):
        text = str(k * 7919)
        seen[text] = int(text, 10) % 13
    sorted(seen.values())
    for j in range(1, PROBE_GATHERS + 1):
        int(np.bitwise_xor.reduce(table[(idx * j) % 65535]))
    return time.perf_counter() - t0


def host_scale(probes) -> float:
    return PROBE_REF_S / statistics.median(probes)


# -- set-up -------------------------------------------------------------------------


def import_bchmin():
    if not (SRC / "bchmin" / "__init__.py").is_file():
        raise BenchError(f"no bchmin package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"bchmin.{name}") for name in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "bchmin":
        raise BenchError(f"bchmin imported from {mods['cli'].__file__}, not from {SRC}")
    return mods


def warm_up(mods, name: str, seed: int) -> None:
    """Build every field the workload touches and run one untimed
    smallest-d generate per m, so lazy log tables exist before timing."""
    for m in workloads.field_degrees(name):
        # default_field is cached per argument tuple: (m, None) is the key
        # `generate` uses, (m, poly) the one the file parser uses.
        ctx = mods["gf2m"].default_field(m, None)
        if name == "verify_files":
            mods["gf2m"].default_field(m, ctx.poly)
        workloads.run_quiet(mods["cli"], workloads.gen_op(m, 2, m - 4, seed).argv)


def setup(name: str, seed: int, recorder=None):
    """Import the package and warm it up; returns (modules, seconds)."""
    t0 = time.perf_counter()
    mods = import_bchmin()
    if recorder is not None:
        recorder.install(mods)
    warm_up(mods, name, seed)
    return mods, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- the closed loop ------------------------------------------------------------------


class Record(NamedTuple):
    op: workloads.Op
    latency: float
    code: int | str  # exit code, or the name of what was raised
    out: str
    probe: float | None = None  # host probe taken right after the operation


def run_op(cli, op) -> Record:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse refusal
        code = f"SystemExit({exc.code})"
    except Exception as exc:  # a crash is a wrong verdict, not a benchmark error
        code = type(exc).__name__
    latency = time.perf_counter() - t0
    return Record(op, latency, code, out.getvalue())


def run_passes(cli, ops_for_pass, *, seconds=None, passes=None, recorder=None, probe=False):
    """Whole passes while another pass of average length still fits in
    `seconds`, but at least MIN_SAMPLES operations; or exactly `passes`
    passes.  With `probe`, a host probe follows every operation.  Returns
    (records of each pass, wall seconds)."""
    gc.collect()
    by_pass: list[list[Record]] = []
    # One copy of each distinct output, so that what the run keeps for the
    # gate does not grow peak RSS with the number of passes.
    kept: dict[tuple, str] = {}
    t0 = time.perf_counter()
    while True:
        records = []
        for op in ops_for_pass(len(by_pass)):
            if recorder is not None:
                recorder.tag = op.kind
            rec = run_op(cli, op)
            rec = rec._replace(out=kept.setdefault((op.argv, rec.out), rec.out))
            if probe:
                rec = rec._replace(probe=host_probe())
            if recorder is not None:
                recorder.counts["cli.bytes_out"] += len(rec.out.encode())
            records.append(rec)
        by_pass.append(records)
        p = len(by_pass)
        wall = time.perf_counter() - t0
        if passes is not None:
            if p >= passes:
                return by_pass, wall
        elif wall + wall / p > seconds and len(records) * p >= MIN_SAMPLES:
            return by_pass, wall


# -- correctness gate -------------------------------------------------------------------


def check_support_text(mods, text: str, cell) -> str | None:
    """None if the emitted support parses, has the designed weight (d - 1
    when punctured) and verifies again; otherwise the reason."""
    try:
        return _support_problem(mods, text, cell)
    except Exception as exc:  # the gate reports a crash, it does not stop on it
        return f"check raised {type(exc).__name__}: {exc}"


def _support_problem(mods, text: str, cell) -> str | None:
    m, i, s = cell
    d = mods["verify"].designed_distance(m, s, i)
    try:
        cw = mods["cli"].parse_support_file(text)
    except ValueError as exc:
        return f"does not parse: {exc}"
    weight = d if cw.extended else d - 1
    if text.lstrip().startswith("{"):
        entries = len(json.loads(text)["support"])
    else:
        entries = sum(len(ln.replace(",", " ").split()) for ln in text.strip().splitlines()[1:])
    if cw.ctx.m != m or cw.claimed_distance != weight or len(cw.elems) != weight:
        return f"weight {len(cw.elems)} / claim {cw.claimed_distance}, expected {weight}"
    if entries != weight:
        return f"{entries} entries for weight {weight}"
    # Verify on the field instance the timed pass used, so the gate builds
    # no second set of log tables (1.3 GB at m = 24).
    timed_ctx = mods["gf2m"].default_field(m, None)
    if timed_ctx.poly == cw.ctx.poly:
        cw = dataclasses.replace(cw, ctx=timed_ctx)
    if not mods["verify"].is_min_weight(cw).is_min_weight:
        return "does not verify"
    return None


def gate(mods, records) -> tuple[list[str], int]:
    """(problems that invalidate the run, count of wrong verdicts)."""
    problems = []
    failed = 0
    checked = {}
    for rec in records:
        op = rec.op
        if rec.code != op.expect:
            failed += 1
            if op.kind != "malformed":
                problems.append(f"{' '.join(op.argv)}: exit {rec.code}, expected {op.expect}")
            continue
        if op.kind == "generate":
            key = (op.argv, rec.out)
            if key not in checked:
                checked[key] = check_support_text(mods, rec.out, op.cell)
            if checked[key]:
                problems.append(f"{' '.join(op.argv)}: {checked[key]}")
    outs = {}
    for rec in records:  # same argv, same output: generation is deterministic in the seed
        if rec.op.kind == "generate" and outs.setdefault(rec.op.argv, rec.out) != rec.out:
            problems.append(f"{' '.join(rec.op.argv)}: output differs between passes")
    return problems, failed


# -- one workload ------------------------------------------------------------------------


def prepare(mods, name: str, seed: int, workdir: Path):
    """Untimed inputs: the per-pass operation function and gate problems
    found in the prepared inputs."""
    if name != "verify_files":
        return (lambda p: workloads.generate_pass(name, seed, p)), []
    workdir.mkdir(parents=True, exist_ok=True)
    ops, valid = workloads.write_verify_files(mods["cli"], seed, workdir)
    problems = []
    for (m, i, s, fmt), text in valid.items():
        why = check_support_text(mods, text, (m, i, s))
        if why:
            problems.append(f"generated {fmt} support m={m} i={i} s={s}: {why}")
    return (lambda p: ops), problems


def scaled_latencies(by_pass) -> list[float]:
    """Each latency scaled by the host speed of its own pass."""
    out = []
    for records in by_pass:
        scale = host_scale([r.probe for r in records])
        out += [r.latency * scale for r in records]
    return out


def percentile_ms(latencies, q: int) -> float:
    """q-th percentile (q in 10..90) of the latencies, in ms."""
    return statistics.quantiles(latencies, n=10, method="inclusive")[q // 10 - 1] * 1000


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORKDIR / f"{name}-{os.getpid()}"
    try:
        return _run_workload(name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()


def _run_workload(name, seed, seconds, trace, workdir) -> dict:
    print(f"workload={name} seed={seed} seconds={seconds} trace={int(trace)} nproc={os.cpu_count()}")
    if not trace:
        setups = [probe_setup(name, seed) for _ in range(SETUP_REPEATS - 1)]
        mods, own = setup(name, seed)
        setups.append(own)
        ops_for_pass, problems = prepare(mods, name, seed, workdir)
        by_pass, wall = run_passes(mods["cli"], ops_for_pass, seconds=seconds, probe=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"set-up samples (s): {', '.join(f'{x:.4f}' for x in setups)}")
    else:
        recorder = spans.Recorder()
        mods, setup_wall = setup(name, seed, recorder)
        recorder.uninstall()
        ops_for_pass, problems = prepare(mods, name, seed, workdir)
        plain, plain_wall = run_passes(mods["cli"], ops_for_pass, seconds=seconds / 2)
        recorder.phase = "ops"
        recorder.install(mods)
        try:
            traced, wall = run_passes(
                mods["cli"], ops_for_pass, passes=len(plain), recorder=recorder
            )
        finally:
            recorder.uninstall()
        by_pass = plain + traced

    records = [r for pass_records in by_pass for r in pass_records]
    gate_problems, failed = gate(mods, records)
    problems += gate_problems
    for line in problems[:20]:
        print(f"GATE: {line}")
    print(f"timed: {len(records)} operations in {len(by_pass)} passes, {wall:.3f} s per phase")
    print(f"fail_share = {failed / len(records):.6f} ({failed} of {len(records)} wrong verdicts)")

    if not trace:
        latencies = scaled_latencies(by_pass)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(records) / sum(latencies),
            "latency_p50_ms": percentile_ms(latencies, 50),
            "latency_p90_ms": percentile_ms(latencies, 90),
            "peak_rss_mb": peak_rss_mb,
            "ok_share": 1 - failed / len(records),
        }
        units = END_TO_END_UNITS
        raw = [r.latency for r in records]
        print(f"latency samples: {len(latencies)}")
        print(
            f"unscaled: ops_per_s {len(raw) / sum(raw):.6g}"
            f" latency_p50_ms {percentile_ms(raw, 50):.6g}"
            f" latency_p90_ms {percentile_ms(raw, 90):.6g}"
            f" host_scale {host_scale([r.probe for r in records]):.4f}"
        )
    else:
        layer = spans.layer_metrics(recorder, len(traced), setup_wall)
        layer["trace.overhead_share"] = (wall / plain_wall - 1, "ratio")
        metrics = {k: v for k, (v, _) in layer.items()}
        units = {k: u for k, (_, u) in layer.items()}
        print(f"set-up wall (traced): {setup_wall:.4f} s")
        for line in predictions(name, metrics):
            print(line)
    for k, v in metrics.items():
        print(f"  {k:34s} {v:14.6g} {units[k]}")
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def predictions(name: str, mt: dict) -> list[str]:
    """The split each workload was chosen to show, checked on the trace."""
    shares = {layer: mt[f"share.{layer}"] for layer in spans.LAYERS}
    top = max(shares, key=shares.get)
    if name == "grid":
        claim, held = "verify has the largest self time", top == "verify"
    elif name == "small_d":
        both = shares["construct"] + shares["solvers"]
        others = [v for k, v in shares.items() if k not in ("construct", "solvers")]
        claim, held = "construct + solvers have the largest self time", both > max(others)
    elif name == "large_m":
        claim, held = "lazy tables dominate set-up", mt["gf2m.setup_share"] > 0.5
    else:
        claim = "cli.parse_s >= verify.is_min_weight_s on rejected files"
        held = mt["cli.parse_rejected_s"] >= mt["verify.is_min_weight_rejected_s"]
    ranked = ", ".join(f"{k}={v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
    return [
        f"self-time shares: {ranked}",
        f"prediction ({claim}): {'holds' if held else 'does not hold'}",
    ]


def run_all(args) -> dict:
    """Each workload in its own fresh process, one after another."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=600,
            cwd=ROOT,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            raise BenchError(f"workload {name} failed: {proc.stderr.strip()[-500:]}")
        one = json.loads(proc.stdout.strip().splitlines()[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for k, v in one["metrics"].items():
            result["metrics"][f"{name}.{k}"] = v
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup(args.workload, args.seed)[1])
            return 0
        selfcheck.run()
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, AssertionError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
