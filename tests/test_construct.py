import pytest

from bchmin import gflinalg, linearized, verify
from bchmin.construct import (
    CodewordSupport,
    DegenerateY,
    SupportSpec,
    build_support,
    down_convert,
    expand,
    gk_support,
    gold_support,
    puncture,
    quadform_rows,
    up_convert,
)
from bchmin.gf2m import default_field
from bchmin.solvers import UncoveredCase, solve_i2_even, solve_i3_even

from conftest import rng, trace_rel


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
    assert cw.elems == spec.x_set  # empty basis: expansion is X itself
    assert cw.weight == 6 and cw.extended
    assert verify.is_min_weight(cw).is_min_weight


def test_expand_detects_collisions():
    ctx = default_field(4)
    bogus = SupportSpec(
        ctx=ctx,
        x_set=frozenset({1, 3}),
        basis=(2,),  # 1 ^ 2 = 3 collides with the X part
        i=1,
        s=0,
        solution=(),
        x_generators=(),
    )
    with pytest.raises(ValueError, match="X \\+ span\\(B\\) is smaller than"):
        expand(bogus)


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
    assert down_convert(cw, []).elems == cw.elems


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
    ann1 = linearized.annihilator(ctx, [spec0.basis[0]])
    step2 = down_convert(step1, [linearized.lin_eval(ann1, spec0.basis[1])])
    direct = expand(build_support(sol, 2))
    assert step2.elems == direct.elems


def test_down_convert_rejects_non_coset_union():
    ctx = default_field(8)
    cw = expand(build_support(solve_i2_even(ctx).solution, 0))
    with pytest.raises(ValueError, match="support is not a union of cosets"):
        down_convert(cw, [1])


def test_down_convert_rejects_odd_target():
    ctx = default_field(8)
    elems = frozenset(gflinalg.span([1, 2]))  # any coset union would do
    cw = CodewordSupport(ctx, elems, 6, extended=True)
    with pytest.raises(ValueError, match="ceil\\(d / 2\\^s\\) = 3 must be even"):
        down_convert(cw, [1])  # ceil(6/2) = 3 is odd


def test_up_convert_full_space_identity():
    ctx = default_field(8)
    cw = gold_support(ctx, 2)
    out = up_convert(cw, [1 << k for k in range(8)])
    assert out.elems == cw.elems


def test_up_then_down_roundtrip():
    ctx = default_field(10)
    spec = build_support(solve_i3_even(ctx, rng_seed=4).solution, 2)
    cw = expand(spec)
    ub = []
    for x in sorted(cw.elems):
        if x and gflinalg.rank(ub + [x], 10) > len(ub):
            ub.append(x)
    up = up_convert(cw, ub)
    assert up.weight == cw.weight * (1 << (10 - len(ub)))
    assert verify.is_min_weight(up).is_min_weight
    v = linearized.lin_kernel(linearized.image_poly(ctx, ub))
    assert down_convert(up, v).elems == cw.elems


def test_down_then_up_roundtrip():
    ctx = default_field(8)
    spec = build_support(solve_i3_even(ctx, rng_seed=4).solution, 0)
    cw = expand(spec)
    v = [spec.basis[0], spec.basis[1]]
    down = down_convert(cw, v)
    ann = linearized.annihilator(ctx, v)
    u = []
    for col in linearized.matrix_cols(ann):
        if gflinalg.rank(u + [col], 8) > len(u):
            u.append(col)
    back = up_convert(down, u)
    assert back.elems == cw.elems


def test_up_convert_gold_over_f16():
    ctx = default_field(8)
    f16, _ = linearized.subfield(ctx, 4)
    basis = []
    for x in sorted(f16):
        if x and gflinalg.rank(basis + [x], 8) > len(basis):
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
        assert cw.elems == expect
        assert cw.weight == cw.claimed_distance == (1 << (2 * i - 1)) - (1 << (i - 1))
        assert cw.extended


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
