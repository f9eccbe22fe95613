import itertools

import numpy as np
import pytest

from bchmin import gflinalg, linearized, solvers, verify
from bchmin.construct import (
    METHODS,
    CodewordSupport,
    DegenerateY,
    SupportSpec,
    _lift,
    build_support,
    down_convert,
    expand,
    generate,
    gk_support,
    gold_support,
    puncture,
    quadform_rows,
    up_convert,
)
from bchmin.gf2m import GF2m, default_field
from bchmin.solvers import UncoveredCase, solve_i2_even, solve_i3_even

import _gold_oracle
import _linearized_oracle as oracle
from conftest import OTHER_MODULI, elem_set, rank, rng, trace_rel


def _row_tuple(row: int, width: int):
    return tuple((row >> j) & 1 for j in range(width))


# -- quadratic-form rows -------------------------------------------------------


def test_quadform_rows_i1():
    rows = quadform_rows(1)
    assert rows == (0b11,)
    assert _row_tuple(rows[0], 2) == (1, 1)


@pytest.mark.parametrize("i,count", [(1, 1), (2, 6), (3, 28), (4, 120)])
def test_quadform_row_counts(i, count):
    rows = quadform_rows(i)
    assert len(rows) == count
    for row in rows:
        assert row < 1 << (2 * i)
        bits = _row_tuple(row, 2 * i)
        acc = 0
        for k in range(i):
            acc ^= bits[2 * k] & bits[2 * k + 1]
        assert acc == 1


def test_quadform_rows_lexicographic():
    for i in range(1, 5):
        as_tuples = [_row_tuple(row, 2 * i) for row in quadform_rows(i)]
        assert as_tuples == sorted(as_tuples)


# -- support assembly ------------------------------------------------------------


def test_build_support_m4_weight6():
    ctx = default_field(4)
    spec = build_support(solve_i2_even(ctx).solution, 0)
    assert len(spec.x_set) == 6 and len(spec.basis) == 0
    cw = expand(spec)
    assert np.array_equal(cw.elems, spec.x_set)  # empty basis: expansion is X itself
    assert cw.weight == 6 and cw.extended
    assert verify.is_min_weight(cw).is_min_weight


def test_expand_detects_collisions():
    ctx = default_field(4)
    bogus = SupportSpec(
        ctx=ctx,
        x_set=np.array([1, 3], dtype=np.uint64),
        basis=(2,),  # 1 ^ 2 = 3 collides with the X part
    )
    with pytest.raises(ValueError, match="X \\+ span\\(B\\) is smaller than"):
        expand(bogus)


def test_support_elems_are_a_sorted_read_only_array():
    # any iterable of ints, or an integer array, becomes one sorted uint64
    # array; the caller's array is neither copied into nor frozen
    ctx = default_field(4)
    given = np.array([0, 3, 9], dtype=np.uint64)
    for elems in ([9, 0, 3], {3, 9, 0}, (x for x in (3, 0, 9)), np.array([9, 3, 0]), given):
        cw = CodewordSupport(ctx, elems, 4, extended=True)
        assert cw.elems.dtype == np.uint64 and cw.elems.tolist() == [0, 3, 9]
        assert not cw.elems.flags.writeable
    assert given.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cw.elems[0] = 1
    # supports compare by identity, so comparing two never raises
    assert cw == cw and cw != CodewordSupport(ctx, [0, 3, 9], 4, extended=True)
    assert len({cw, cw}) == 1
    too_big = np.array([1, (1 << 64) - 1], dtype=np.uint64)
    for bad in ([16], [-1, 2], [1 << 70], too_big):
        with pytest.raises(ValueError, match=r"must lie in GF\(2\^4\)"):
            CodewordSupport(ctx, bad, 4, extended=True)
    with pytest.raises(ValueError, match="2 repeated support entries"):
        CodewordSupport(ctx, [1, 2, 1, 1], 4, extended=True)


def test_build_support_m8_i3():
    ctx = default_field(8)
    spec = build_support(solve_i3_even(ctx, rng_seed=3).solution, 0)
    assert len(spec.x_set) == 28 and len(spec.basis) == 2
    cw = expand(spec)
    assert cw.weight == 112 == verify.designed_distance(8, 0, 3)
    assert verify.is_min_weight(cw).is_min_weight


def test_build_support_endpoint_s():
    ctx = default_field(8)
    spec = build_support(solve_i2_even(ctx).solution, 4)  # s = m - 2i
    assert len(spec.basis) == 0
    assert expand(spec).weight == 6


def test_build_support_bad_s():
    ctx = default_field(8)
    sol = solve_i2_even(ctx).solution
    with pytest.raises(UncoveredCase, match="s must be in 0..4, got 5"):
        build_support(sol, 5)
    with pytest.raises(UncoveredCase, match="s must be in 0..4, got -1"):
        build_support(sol, -1)


# -- the two routes of the dual-form annihilator --------------------------------


def _solution_bases(ctx, i):
    """The completed bases `build_support` starts from, for the solver that
    auto-routing picks at (m, i): seeds 1 and 2 for a seeded one."""
    m = ctx.m
    if i == 2:
        sols = [solvers.solve_i2_even(ctx)] if m % 2 == 0 else [
            solvers.solve_i2_odd(ctx, seed) for seed in (1, 2)]
    elif i == 3:
        solve = solvers.solve_i3_even if m % 2 == 0 else solvers.solve_i3_heuristic
        sols = [solve(ctx, seed) for seed in (1, 2)]
    else:
        sols = [solvers.solve_i4(ctx)]
    return [gflinalg.complete_to_basis(ctx, list(sol.solution.b)) for sol in sols]


def _covered(m):
    """The (i, s) that auto-routing covers at m, every s for m <= 16, the
    three smallest d above."""
    for i in (2, 3, 4):
        if m >= 2 * i + (i == 2) * (m % 2) and (i < 4 or m % 4 == 0):
            top = m - 2 * i
            yield from ((i, s) for s in range(top + 1) if m <= 16 or s >= top - 2)


def _routes_agree_with_the_oracle(ctx, monkeypatch):
    """Both routes of `linearized.annihilator`'s dual form, forced, give
    the oracle's A_V at the dual vectors outside the collapsed range."""
    for i, s in _covered(ctx.m):
        for basis in _solution_bases(ctx, i):
            collapsed = range(2 * i, 2 * i + s)
            dual = gflinalg.dual_basis(ctx, basis)
            ann = oracle.annihilator(ctx, [dual[c] for c in collapsed])
            expect = [oracle.lin_eval(ann, dual[k]) for k in range(ctx.m) if k not in collapsed]
            for route in ("direct", "complement"):
                monkeypatch.setattr(linearized, "_dual_route", lambda *args: route)
                got = linearized.annihilator(ctx, collapsed, basis=basis)
                assert got == expect, (ctx.m, i, s, route)


@pytest.mark.parametrize("m", range(4, 33))
def test_dual_annihilator_routes_match_the_oracle(m, monkeypatch):
    # m = 21..24 with the log tables unbuilt (array products) and built
    # (scalar products); m >= 25 have none
    ctx = GF2m(m) if 21 <= m <= 24 else default_field(m)
    _routes_agree_with_the_oracle(ctx, monkeypatch)
    if ctx.lazy_logs:
        ctx.log_array()
        _routes_agree_with_the_oracle(ctx, monkeypatch)


@pytest.mark.parametrize("m", [8, 25])  # with log tables and without
@pytest.mark.parametrize("route", ["direct", "complement"])
def test_dual_annihilator_rejects_a_dependent_primal_set(m, route, monkeypatch):
    # the primal vectors outside the collapsed range 0..m-4: a repeated
    # one, a zero one, and three whose sum is zero
    ctx = default_field(m)
    monkeypatch.setattr(linearized, "_dual_route", lambda *args: route)
    units = [1 << k for k in range(m - 3)]
    for rest in ([3, 5, 3], [3, 0, 5], [3, 5, 6]):
        with pytest.raises(ValueError, match="dependent|full basis"):
            linearized.annihilator(ctx, range(m - 3), basis=units + rest)


def test_expand_weight_ledger():
    # expanded size must equal the closed-form designed distance
    for m, i, s in ((6, 2, 1), (8, 2, 3), (10, 3, 2), (8, 4, 0)):
        ctx = default_field(m)
        if i == 2:
            sol = solve_i2_even(ctx).solution
        elif i == 3:
            sol = solve_i3_even(ctx, rng_seed=1).solution
        else:
            from bchmin.solvers import solve_i4

            sol = solve_i4(ctx).solution
        cw = expand(build_support(sol, s))
        assert cw.weight == verify.designed_distance(m, s, i)


# -- conversions -------------------------------------------------------------------


def test_down_convert_empty_v_is_identity():
    ctx = default_field(8)
    cw = expand(build_support(solve_i2_even(ctx).solution, 1))
    assert np.array_equal(down_convert(cw, []).elems, cw.elems)


def test_down_convert_one_dim():
    ctx = default_field(8)
    spec = build_support(solve_i3_even(ctx, rng_seed=9).solution, 0)
    cw = expand(spec)
    out = down_convert(cw, [spec.basis[0]])
    assert out.weight == 56 and out.claimed_distance == 56
    assert verify.is_min_weight(out).is_min_weight


def test_down_convert_chain_matches_direct():
    ctx = default_field(8)
    sol = solve_i3_even(ctx, rng_seed=9).solution
    spec0 = build_support(sol, 0)
    cw0 = expand(spec0)
    step1 = down_convert(cw0, [spec0.basis[0]])
    ann1 = oracle.annihilator(ctx, [spec0.basis[0]])
    step2 = down_convert(step1, [oracle.lin_eval(ann1, spec0.basis[1])])
    direct = expand(build_support(sol, 2))
    assert np.array_equal(step2.elems, direct.elems)


def test_down_convert_rejects_non_coset_union():
    ctx = default_field(8)
    cw = expand(build_support(solve_i2_even(ctx).solution, 0))
    with pytest.raises(ValueError, match="support is not a union of cosets"):
        down_convert(cw, [1])


def test_down_convert_rejects_odd_target():
    ctx = default_field(8)
    elems = gflinalg.span([1, 2])  # any coset union would do
    cw = CodewordSupport(ctx, elems, 6, extended=True)
    with pytest.raises(ValueError, match="ceil\\(d / 2\\^s\\) = 3 must be even"):
        down_convert(cw, [1])  # ceil(6/2) = 3 is odd


def test_up_convert_full_space_identity():
    ctx = default_field(8)
    cw = gold_support(ctx, 2)
    out = up_convert(cw, [1 << k for k in range(8)])
    assert np.array_equal(out.elems, cw.elems)


def test_up_then_down_roundtrip():
    ctx = default_field(10)
    spec = build_support(solve_i3_even(ctx, rng_seed=4).solution, 2)
    cw = expand(spec)
    ub = []
    for x in cw.elems.tolist():
        if x and rank(ub + [x]) > len(ub):
            ub.append(x)
    up = up_convert(cw, ub)
    assert up.weight == cw.weight * (1 << (10 - len(ub)))
    assert verify.is_min_weight(up).is_min_weight
    v = oracle.lin_kernel(oracle.image_poly(ctx, ub))
    assert np.array_equal(down_convert(up, v).elems, cw.elems)


def test_down_then_up_roundtrip():
    ctx = default_field(8)
    spec = build_support(solve_i3_even(ctx, rng_seed=4).solution, 0)
    cw = expand(spec)
    v = [spec.basis[0], spec.basis[1]]
    down = down_convert(cw, v)
    ann = oracle.annihilator(ctx, v)
    u = []
    for col in oracle.matrix_cols(ann):
        if rank(u + [col]) > len(u):
            u.append(col)
    back = up_convert(down, u)
    assert np.array_equal(back.elems, cw.elems)


def test_up_convert_gold_over_f16():
    ctx = default_field(8)
    f16, _ = linearized.subfield(ctx, 4)
    basis = []
    for x in f16.tolist():
        if x and rank(basis + [x]) > len(basis):
            basis.append(x)
    out = up_convert(gold_support(ctx, 2), basis)
    assert out.weight == 96 and out.claimed_distance == 96
    assert verify.is_min_weight(out).is_min_weight


def test_up_convert_rejects_outside_support():
    ctx = default_field(8)
    cw = gold_support(ctx, 2)
    with pytest.raises(ValueError, match="outside span\\(U\\)"):
        up_convert(cw, [1, 2])
    with pytest.raises(ValueError, match="annihilator generators are dependent"):
        up_convert(cw, [3, 5, 6])


@pytest.mark.parametrize("m,k", [(5, 2), (6, 4), (8, 3), (9, 6), (10, 5)])
def test_lift_is_the_brute_force_preimage(m, k):
    # {y : B(y) in S} by evaluating the image polynomial B at every element
    ctx = default_field(m)
    r = rng(m * 16 + k)
    U = []
    while len(U) < k:
        x = r.getrandbits(m)
        if rank(U + [x]) > len(U):
            U.append(x)
    S = frozenset(r.sample(gflinalg.span(U).tolist(), min(6, 1 << k)))
    bpoly = oracle.image_poly(ctx, U)
    image = {y: oracle.lin_eval(bpoly, y) for y in range(1 << m)}
    preimage = {y for y, b in image.items() if b in S}
    cw = CodewordSupport(ctx, S, 4, extended=True)
    up = up_convert(cw, U)
    assert elem_set(up) == preimage and up.claimed_distance == 4 << (m - k)
    spec = _lift(cw, U)
    assert sorted(image[x] for x in spec.x_set.tolist()) == sorted(S)  # one X element per point
    assert len(spec.basis) == m - k and all(image[v] == 0 for v in spec.basis)
    assert rank(list(spec.basis)) == m - k
    assert elem_set(expand(spec)) == preimage


# -- special supports -----------------------------------------------------------------


def test_gold_support_m4():
    ctx = default_field(4)
    cw = gold_support(ctx, 2)
    assert cw.weight == 6
    assert verify.is_min_weight(cw).is_min_weight


def test_gold_support_subfield_embedding():
    ctx = default_field(8)
    cw = gold_support(ctx, 2)
    assert cw.weight == 6
    f16, _ = linearized.subfield(ctx, 4)
    assert all(x in f16 for x in cw.elems)
    assert verify.is_min_weight(cw).is_min_weight


def _subfield_by_powers(ctx, ell: int) -> list[int]:
    """GF(2^ell), sorted: 0 and the powers of alpha^((2^m - 1) / (2^ell - 1))."""
    g = ctx.pow(ctx.alpha, ctx.n // ((1 << ell) - 1))
    return sorted({0} | {ctx.pow(g, k) for k in range(1 << ell)})


@pytest.mark.parametrize("m", range(2, 17, 2))
def test_gold_support_matches_enumeration(m):
    # zero set of Tr_{2i/1}(beta x^(2^i + 1)) on GF(2^2i), beta the first
    # element of GF(2^2i) outside GF(2^i), with the squaring trace oracle
    ctx = default_field(m)
    for i in (i for i in range(1, m // 2 + 1) if m % (2 * i) == 0):
        big, half = _subfield_by_powers(ctx, 2 * i), _subfield_by_powers(ctx, i)
        beta = next(x for x in big if x not in half)
        d = 1 << i
        expect = {x for x in big if trace_rel(ctx, ctx.mul(beta, ctx.pow(x, d + 1)), 1, 2 * i) == 0}
        cw = gold_support(ctx, i)
        assert elem_set(cw) == expect
        assert cw.weight == cw.claimed_distance == (1 << (2 * i - 1)) - (1 << (i - 1))
        assert cw.extended


@pytest.mark.parametrize("m", [*range(2, 19, 2), *(m for m in OTHER_MODULI if m % 2 == 0)])
def test_gold_support_matches_its_predecessor(m):
    # the whole-subfield construction against the frozen per-element one at
    # every i with 2i | m, under both moduli where there are two; above
    # m = 18, where fields have no log tables, up to i = 4
    for ctx in [default_field(m)] + ([GF2m(m, OTHER_MODULI[m])] if m in OTHER_MODULI else []):
        for i in (i for i in range(1, m // 2 + 1) if m % (2 * i) == 0 and (m <= 18 or i <= 4)):
            assert gold_support(ctx, i).elems.tolist() == _gold_oracle.gold_support(ctx, i)


@pytest.mark.parametrize("m", range(5, 17))
def test_every_spec_holds_x_as_a_sorted_read_only_array(m):
    # every method that covers a small_d cell of the benchmark, (m, i, s)
    # at s = m - 2i and one below, i = 2, 3, 4
    ctx, built = default_field(m), 0
    cells = [(i, s) for i in (2, 3, 4) for s in (m - 2 * i, m - 2 * i - 1)]
    for (i, s), method in itertools.product(cells, METHODS):
        try:
            _, _, spec = generate(ctx, i, s, 1, method)
        except UncoveredCase:
            continue
        built += 1
        x = spec.x_set
        assert isinstance(x, np.ndarray) and x.dtype == np.uint64, method
        assert (x[1:] > x[:-1]).all() and not x.flags.writeable, method
    assert built >= 4  # i2even or i2odd, and gk, each at two s for i = 2


def test_gold_support_bad_degree():
    with pytest.raises(UncoveredCase, match="2i = 6 must divide m = 9"):
        gold_support(default_field(9), 3)


def test_gk_support_valid_y():
    ctx = default_field(8)
    r = rng(71)
    ok = 0
    while ok < 20:
        y = r.getrandbits(8)
        powers = [1, y, ctx.mul(y, y), ctx.pow(y, 3), ctx.pow(y, 4)]
        if not gflinalg.independent(ctx, powers):
            continue
        cw = gk_support(ctx, y)
        assert cw.weight == 6
        assert verify.is_min_weight(cw).is_min_weight
        ok += 1


def test_gk_support_rejects_subfield_y():
    ctx = default_field(8)
    _, c = linearized.subfield(ctx, 2)
    with pytest.raises(DegenerateY):
        gk_support(ctx, c)
    with pytest.raises(DegenerateY):
        gk_support(ctx, 1)


def test_puncture_weight6():
    ctx = default_field(8)
    cw = gold_support(ctx, 2)
    x = min(cw.elems)
    out = puncture(cw, x)
    assert out.weight == 5 and out.claimed_distance == 5 and not out.extended
    assert verify.is_min_weight(out).is_min_weight


def test_puncture_weight28_to_27():
    ctx = default_field(8)
    cw = expand(build_support(solve_i3_even(ctx, rng_seed=2).solution, 2))
    out = puncture(cw, min(cw.elems))
    assert out.weight == 27
    assert verify.is_min_weight(out).is_min_weight


def test_puncture_requires_membership():
    ctx = default_field(8)
    cw = gold_support(ctx, 2)
    outsider = next(x for x in range(256) if x not in cw.elems)
    with pytest.raises(ValueError, match="is not in the support"):
        puncture(cw, outsider)
