"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report inline.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bchmin import construct, gflinalg, linearized, solvers
from bchmin.construct import (
    CodewordSupport,
    DegenerateY,
    build_support,
    down_convert,
    expand,
    gk_support,
    gold_support,
    up_convert,
)
from bchmin.fixtures import BCH23_FIXTURE, BCH27_FIXTURES
from bchmin.gf2m import default_field
from bchmin.verify import designed_distance, is_min_weight

import _linearized_oracle as oracle
from conftest import covered_cells, dot, invert, iter_i2_solutions, rank, transpose


@contextmanager
def report(num, desc):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num:2d} FAIL - {desc}")
        raise
    print(f"[acceptance] criterion {num:2d} PASS - {desc}")


def _solution_for(ctx, i, seed):
    if i == 2:
        if ctx.m % 2 == 0:
            return solvers.solve_i2_even(ctx).solution
        return solvers.solve_i2_odd(ctx, seed).solution
    if i == 3:
        if ctx.m % 2 == 0:
            return solvers.solve_i3_even(ctx, seed).solution
        return solvers.solve_i3_heuristic(ctx, seed).solution
    return solvers.solve_i4(ctx).solution


def test_criterion_01_golden_weight27_table():
    with report(1, "bundled weight-27 supports verify for m = 8..16"):
        t0 = time.time()
        for m, (poly, exps) in sorted(BCH27_FIXTURES.items()):
            ctx = default_field(m, poly)
            assert len(exps) == 27
            cw = CodewordSupport(ctx, frozenset(ctx.exp(e) for e in exps), 27, False)
            verdict = is_min_weight(cw)
            assert verdict.member and verdict.weight == 27 and verdict.is_min_weight, m
        assert time.time() - t0 < 1.0


def test_criterion_02_golden_weight23_support():
    with report(2, "bundled weight-23 support verifies for m = 16"):
        m, poly, exps = BCH23_FIXTURE
        ctx = default_field(m, poly)
        assert len(exps) == 23
        cw = CodewordSupport(ctx, frozenset(ctx.exp(e) for e in exps), 23, False)
        verdict = is_min_weight(cw)
        assert verdict.member and verdict.weight == 23 and verdict.is_min_weight


def test_criterion_03_generation_coverage():
    with report(3, "every covered (m, i, s) cell up to m = 16 generates and verifies"):
        t0 = time.time()
        cells = covered_cells()
        assert len(cells) == 187
        for m, i, s, method in cells:
            cw, _, _ = construct.generate(default_field(m), i, s, 1, method)
            d = designed_distance(m, s, i)
            assert cw.weight == d == cw.claimed_distance, (m, i, s)
            assert is_min_weight(cw).is_min_weight, (m, i, s)
        assert time.time() - t0 < 60.0


def test_criterion_04_probabilistic_bounds():
    with report(4, "empirical solver success rates meet the stated bounds"):
        for m in (5, 7, 9, 11):
            ctx = default_field(m)
            hits = sum(
                1 for seed in range(1000) if solvers.solve_i2_odd(ctx, seed).trials == 1
            )
            assert hits / 1000 >= 1 - 8 * 2**-m, (m, hits)
        for m in (6, 8, 10, 12):
            ctx = default_field(m)
            hits = sum(
                1 for seed in range(3000) if solvers.solve_i3_even(ctx, seed).trials == 1
            )
            bound = 1 / 3 - 2 * 2 ** (-m / 2) - 1 / (3 * 2**m)
            assert hits / 3000 >= bound - 0.03, (m, hits)


def test_criterion_05_heuristic_termination():
    with report(5, "heuristic i=3 solver terminates within 4096 for >= 99/100 seeds"):
        for m in range(7, 16, 2):
            ctx = default_field(m)
            ok = 0
            for seed in range(100):
                try:
                    solvers.solve_i3_heuristic(ctx, seed, max_retries=4096)
                    ok += 1
                except solvers.RetriesExhausted:
                    pass
            assert ok >= 99, (m, ok)


def test_criterion_06_gold_constructions():
    with report(6, "Gold supports have bent weight and verify for all listed (i, m)"):
        for i, m in ((2, 4), (2, 8), (2, 12), (3, 6), (3, 12), (4, 8), (4, 16)):
            ctx = default_field(m)
            cw = gold_support(ctx, i)
            assert cw.weight == (1 << (2 * i - 1)) - (1 << (i - 1)), (i, m)
            assert is_min_weight(cw).is_min_weight, (i, m)


def _span_basis(ctx, elems, target_dim=None):
    basis = []
    for x in sorted(elems):
        if x and rank(basis + [x]) > len(basis):
            basis.append(x)
    if target_dim is not None:
        for k in range(ctx.m):
            if len(basis) >= target_dim:
                break
            if rank(basis + [1 << k]) > len(basis):
                basis.append(1 << k)
    return basis


def test_criterion_07_conversion_roundtrips():
    with report(7, "up/down conversions are exact set-inverses with exact weight scaling"):
        for m in (8, 10, 12):
            ctx = default_field(m)
            r = random.Random(m)
            # need m - 2i >= 1 so a proper subspace exists to convert over
            options = [i for i in (2, 3, 4) if m - 2 * i >= 1 and (i != 4 or m % 4 == 0)]
            for case in range(50):
                i = r.choice(options)
                s = r.randrange(0, m - 2 * i)  # keep at least one basis vector
                sol = _solution_for(ctx, i, seed=case)
                spec = build_support(sol, s)
                cw = expand(spec)

                # down then up over the induced subspace pair
                rdim = r.randint(1, min(2, len(spec.basis)))
                v = list(spec.basis[:rdim])
                low = down_convert(cw, v)
                assert low.weight * (1 << rdim) == cw.weight  # exact halving per dim
                ann = oracle.annihilator(ctx, v)
                u = _span_basis(ctx, oracle.matrix_cols(ann))
                assert np.array_equal(up_convert(low, u).elems, cw.elems)

                # up then down over the same pair
                udim = r.randint(m - s, m)
                ub = _span_basis(ctx, cw.elems.tolist(), target_dim=udim)
                high = up_convert(cw, ub)
                assert high.weight == cw.weight * (1 << (m - len(ub)))
                kb = oracle.lin_kernel(oracle.image_poly(ctx, ub))
                assert np.array_equal(down_convert(high, kb).elems, cw.elems)


def _boolean_enum_check(ctx, sol, i, s, spec, cw):
    """Independent enumeration of the product-form Boolean function in the
    constructed basis; exact set comparison against the expanded support."""
    m = ctx.m
    if s == 0:
        # coordinates via trace functionals against the primal solution
        masks = []
        for b in sol.b:
            mask = 0
            for t in range(m):
                if ctx.trace(ctx.mul(b, 1 << t)):
                    mask |= 1 << t
            masks.append(mask)
        enumerated = set()
        for x in range(1 << m):
            acc = 0
            for k in range(i):
                acc ^= dot(masks[2 * k], x) & dot(masks[2 * k + 1], x)
            if acc:
                enumerated.add(x)
        assert enumerated == set(cw.elems)
        return
    # the 2i quadratic-form generators, by the steps of build_support
    dual = gflinalg.dual_basis(ctx, gflinalg.complete_to_basis(ctx, list(sol.b)))
    ann = oracle.annihilator(ctx, dual[2 * i : 2 * i + s])
    gens = [oracle.lin_eval(ann, bp) for bp in dual[: 2 * i]]
    tail = list(spec.basis)
    completion = gflinalg.complete_to_basis(ctx, gens + tail)[len(gens) + len(tail):]
    D = gens + completion + tail
    inv_t = transpose(invert(D, m), m)
    enumerated = set()
    for x in range(1 << m):
        coords = [dot(col, x) for col in inv_t]
        if any(coords[2 * i + t] for t in range(s)):
            continue
        acc = 0
        for k in range(i):
            acc ^= coords[2 * k] & coords[2 * k + 1]
        if acc:
            enumerated.add(x)
    assert enumerated == set(cw.elems)


def test_criterion_08_boolean_cross_check():
    with report(8, "enumerated Boolean product form equals every constructed support (m <= 14)"):
        for m, i, s, method in covered_cells(max_m=14):
            if method != "auto":
                continue
            ctx = default_field(m)
            sol = _solution_for(ctx, i, seed=1)
            spec = build_support(sol, s)
            cw = expand(spec)
            _boolean_enum_check(ctx, sol, i, s, spec, cw)


def test_criterion_09_gk_special_case():
    with report(9, "random-y six-element supports verify; degenerate y rejected"):
        for m in (8, 16):
            ctx = default_field(m)
            r = random.Random(m)
            ok = 0
            while ok < 100:
                y = r.getrandbits(m)
                powers = [1, y, ctx.mul(y, y), ctx.pow(y, 3), ctx.pow(y, 4)]
                if not gflinalg.independent(ctx, powers):
                    continue
                cw = gk_support(ctx, y)
                assert cw.weight == 6
                assert is_min_weight(cw).is_min_weight
                ok += 1
            _, c = linearized.subfield(ctx, 2)
            with pytest.raises(DegenerateY):
                gk_support(ctx, c)
            with pytest.raises(DegenerateY):
                gk_support(ctx, 0)


def test_criterion_10_brute_force_oracle():
    with report(10, "exhaustive tiny-scale scan agrees with the closed-form solvers"):
        t0 = time.time()
        for m in (4, 5, 6):
            ctx = default_field(m)
            all_solutions = set(iter_i2_solutions(ctx))
            assert all_solutions
            if m % 2 == 0:
                assert solvers.solve_i2_even(ctx).solution.b in all_solutions
            else:
                for seed in range(5):
                    assert solvers.solve_i2_odd(ctx, seed).solution.b in all_solutions
            if m == 6:
                assert solvers.solve_i2_composite(ctx, 2, 3).solution.b in all_solutions
        assert time.time() - t0 < 300.0


def test_criterion_11_weight_spectrum_m4():
    with report(11, "every constructible length-16 support has weight in {6, 8, 10, 16}"):
        spectrum = {6, 8, 10, 16}
        ctx = default_field(4)
        built = []

        built.append(expand(build_support(solvers.solve_i2_even(ctx).solution, 0)))
        sampled = 0
        for b in iter_i2_solutions(ctx):
            if sampled % 53 == 0:  # spread across the full solution set
                built.append(expand(build_support(solvers.SolutionVector(ctx, b), 0)))
            sampled += 1
        built.append(gold_support(ctx, 2))
        for y in range(16):
            try:
                built.append(gk_support(ctx, y))
            except DegenerateY:
                continue
        base = built[0]
        built.append(down_convert(base, []))
        built.append(up_convert(base, [1, 2, 4, 8]))

        assert len(built) > 40
        for cw in built:
            assert cw.weight in spectrum
            assert is_min_weight(cw).is_min_weight
