"""Checks of the benchmark's own helpers; runs before every benchmark run.

    python3 perfbench/selfcheck.py

Needs no bchmin import, so it costs nothing in the timed set-up.
"""

from __future__ import annotations

import json
import random
import sys
from math import gcd

import spans
import workloads


def _necklaces(m: int) -> int:
    """Binary necklaces of length m: (1/m) * sum over d | m of phi(d) 2^(m/d)."""

    def phi(d):
        return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)

    return sum(phi(d) << (m // d) for d in range(1, m + 1) if m % d == 0) // m


def check_coset_reps() -> None:
    # n = 15: cosets {1,2,4,8} {3,6,12,9} {5,10} {7,14,13,11}
    assert spans.coset_reps(15, 14) == [1, 3, 5, 7]
    assert spans.coset_reps(15, 6) == [1, 3, 5]
    assert spans.coset_reps(63, 10) == [1, 3, 5, 7, 9]
    for m in range(2, 13):
        n = (1 << m) - 1
        # every nonzero coset; necklaces 0...0 and 1...1 both stand for 0 mod n
        assert len(spans.coset_reps(n, n - 1)) == _necklaces(m) - 2, m
    # a rep for each coset meeting [1, j_limit], never two from one coset
    n, j_limit = 255, 100
    reps = spans.coset_reps(n, j_limit)
    cosets = {min((j << k) % n for k in range(8)) for j in range(1, j_limit + 1)}
    assert len(reps) == len(cosets)
    assert spans.scan_ops([(15, 14, 6, None, True)]) == 6 * 4
    assert spans.scan_ops([(15, 14, 6, 5, False)]) == 6 * 3
    assert spans.scan_ops([(15, 14, 7, None, False)]) == 0


def check_self_time() -> None:
    assert spans.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert spans.covered_length([(0, 4), (6, 12)], 2, 10) == 6
    assert spans.covered_length([], 0, 1) == 0
    s = [
        ["cli.main", "cli", 0.0, 10.0, -1, "ops", ""],
        ["verify.is_min_weight", "verify", 1.0, 4.0, 0, "ops", ""],
        ["verify.is_min_weight", "verify", 2.0, 3.0, 1, "ops", ""],
        ["cli.render_json", "cli", 5.0, 9.0, 0, "ops", ""],
        ["gf2m.default_field", "gf2m", 6.0, 7.0, 3, "ops", ""],
    ]
    assert spans.self_times(s) == [3.0, 2.0, 1.0, 3.0, 1.0]
    # nested spans of one name count once
    assert spans.inclusive(s, ["verify.is_min_weight"], "ops") == 3.0
    rec = spans.Recorder()
    rec.spans = s
    m = spans.layer_metrics(rec, passes=2, setup_wall=1.0)
    assert m["cli.self_s"] == (3.0, "s/pass") and m["verify.is_min_weight_s"] == (1.5, "s/pass")
    assert abs(sum(m[f"share.{x}"][0] for x in spans.LAYERS) - 1) < 1e-12


def check_verdict_table() -> None:
    assert workloads.EXPECTED_EXIT == {"generate": 0, "valid": 0, "corrupt": 2, "malformed": 5}
    assert set(workloads.MALFORMED_BY_FORMAT) == set(workloads.FORMATS)
    m, n = 4, 15
    logs = workloads.SupportText("logsupport", m, "m=4 poly=0x13 d=6 extended=1", (-1, 0, 1, 4, 7, 9))
    bits = workloads.SupportText("bits", m, "m=4 poly=0x13 d=6 extended=1", (0, 1, 2, 3, 5, 14))
    doc = {"m": 4, "d": 6, "support": [-1, 0, 1, 4, 7, 9]}
    js = workloads.split_support("json", m, json.dumps(doc))
    assert js.entries == (-1, 0, 1, 4, 7, 9)
    assert workloads.split_support("json", m, js.render()) == js
    assert workloads.split_support("logsupport", m, logs.render()) == logs
    assert workloads.split_support("bits", m, bits.render()) == bits
    rng = random.Random(0)
    for sup in (logs, bits, js):
        lo, hi = (0, n) if sup.fmt == "bits" else (-1, n - 1)
        for _ in range(50):
            # corrupt: same length, distinct, in range, exactly one entry changed
            c = workloads.corrupt(sup, rng).entries
            assert len(c) == len(set(c)) == len(sup.entries)
            assert all(lo <= e <= hi for e in c)
            assert len(set(c) - set(sup.entries)) == 1
            bad = workloads.malform(sup, rng).entries
            kind = workloads.MALFORMED_BY_FORMAT[sup.fmt]
            if kind == "duplicate_entry":
                assert len(bad) == len(sup.entries) + 1 and len(set(bad)) == len(sup.entries)
            elif kind == "hex_out_of_range":
                assert sum(e >= 1 << m for e in bad) == 1
            else:
                assert sum(e >= n for e in bad) == 1
                assert sorted(e % n if e >= 0 else e for e in bad) == sorted(sup.entries)


def check_workload_sizes() -> None:
    assert len(workloads.grid_cells()) == 187
    assert len(set(workloads.small_d_cells())) == len(workloads.small_d_cells())
    for m, i, s, _ in workloads.small_d_cells() + workloads.large_m_cells():
        assert 0 <= s <= m - 2 * i


def run() -> None:
    check_coset_reps()
    check_self_time()
    check_verdict_table()
    check_workload_sizes()


if __name__ == "__main__":
    run()
    print("perfbench self-check: ok")
    sys.exit(0)
