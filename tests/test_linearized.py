from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchmin import gflinalg, linearized
from bchmin.construct import CodewordSupport, _lift, expand, up_convert
from bchmin.gf2m import GF2m, default_field
from bchmin.linearized import (
    affine_cubic_roots,
    annihilator,
    artin_schreier_solve,
    cube_roots,
    subfield,
)
from bchmin.solvers import f_j

import _linearized_oracle as oracle
from conftest import OTHER_MODULI, random_nonzero, rank, rng


def _random_independent(ctx, k, r):
    elems = []
    while len(elems) < k:
        x = random_nonzero(ctx, r)
        if gflinalg.independent(ctx, elems + [x]):
            elems.append(x)
    return elems


def _fields(m):
    """GF(2^m) under its built-in modulus, and under a second one where
    OTHER_MODULI has it."""
    return [default_field(m)] + ([GF2m(m, OTHER_MODULI[m])] if m in OTHER_MODULI else [])


# -- annihilators, on values ------------------------------------------------------


def test_annihilator_of_zero_space(gf256):
    assert annihilator(gf256, [], [0xA7, 0]) == [0xA7, 0]


def test_annihilator_of_prime_field(gf256):
    xs = list(range(256))
    assert annihilator(gf256, [1], xs) == [gf256.mul(x, x) ^ x for x in xs]  # X^2 + X


def test_annihilator_vanishes_exactly_on_span(gf256):
    r = rng(23)
    gens = _random_independent(gf256, 3, r)
    members = set(gflinalg.span(gens).tolist())
    values = annihilator(gf256, gens, range(256))
    assert {x for x, y in enumerate(values) if y == 0} == members


def test_annihilator_rejects_dependent(gf256):
    with pytest.raises(ValueError, match="annihilator generators are dependent"):
        annihilator(gf256, [3, 5, 6], [1])


def test_annihilator_injective_on_coset_transversal(gf256):
    # distinct values on distinct kernel cosets: |A(S)| = |S| / 2^s for a
    # union of cosets
    r = rng(29)
    gens = _random_independent(gf256, 2, r)
    reps = [r.getrandbits(8) for _ in range(10)]
    S = {rep ^ v for rep in reps for v in gflinalg.span(gens).tolist()}
    image = set(annihilator(gf256, gens, list(S)))
    assert len(image) == len(S) // 4


# -- the oracle's coefficient form against its definitions ------------------------
#
# The value form, the maps of the field equations and the subfield trace
# masks (in test_gf2m) are checked against the frozen coefficient form;
# here that form is checked against the definitions.


def test_lin_eval_additive(gf256):
    r = rng(31)
    poly = oracle.LinearizedPoly(gf256, (0x1D, 0, 0x03, 1))
    for _ in range(100):
        x, y = r.getrandbits(8), r.getrandbits(8)
        assert oracle.lin_eval(poly, x ^ y) == oracle.lin_eval(poly, x) ^ oracle.lin_eval(poly, y)


@pytest.mark.parametrize("m", [8, 29])  # m = 29 has no log tables
def test_lin_eval_matches_definition(m):
    # coefficients 0, 1 and others, leading 1 or not
    ctx = default_field(m)
    r = rng(37)
    for _ in range(50):
        coeffs = [r.choice([0, 1, r.getrandbits(m)]) for _ in range(r.randint(0, m))]
        coeffs.append(r.choice([1, random_nonzero(ctx, r)]))
        poly = oracle.LinearizedPoly(ctx, tuple(coeffs))
        x = r.getrandbits(m)
        expected = 0
        for j, a in enumerate(coeffs):
            expected ^= ctx.mul(a, ctx.pow(x, 1 << j))
        assert oracle.lin_eval(poly, x) == expected


def test_lin_kernel_prime_cases(gf256):
    assert oracle.lin_kernel(oracle.LinearizedPoly(gf256, (1,))) == []
    assert oracle.lin_kernel(oracle.LinearizedPoly(gf256, (1, 1))) == [1]


def test_lin_kernel_matches_span(gf256):
    r = rng(37)
    gens = _random_independent(gf256, 4, r)
    kern = oracle.lin_kernel(oracle.annihilator(gf256, gens))
    assert len(kern) == 4
    assert set(gflinalg.span(kern).tolist()) == set(gflinalg.span(gens).tolist())


# -- the image map B of the lift ------------------------------------------------------
#
# `_lift` reads B, the monic linearized polynomial whose image is span(U),
# off the values of A_U and of A_(image of A_U) at the unit vectors.


def test_image_map_full_space_is_identity(gf256):
    S = frozenset({0, 1, 0x35, 0xFF})
    spec = _lift(CodewordSupport(gf256, S, 2, extended=True), [1 << k for k in range(8)])
    assert spec.basis == () and spec.x_set.tolist() == sorted(S)


def test_image_map_rank_and_kernel(gf256):
    # the preimage of span(U) is the whole field: B maps onto span(U), and
    # its kernel is the oracle's
    r = rng(41)
    for k in (2, 4, 6):
        U = _random_independent(gf256, k, r)
        spec = _lift(CodewordSupport(gf256, gflinalg.span(U), 2, extended=True), U)
        assert len(spec.basis) == 8 - k
        assert sorted(expand(spec).elems.tolist()) == list(range(256))
        kernel = oracle.lin_kernel(oracle.image_poly(gf256, U))
        assert set(gflinalg.span(spec.basis).tolist()) == set(gflinalg.span(kernel).tolist())


def test_image_poly_is_canonical_annihilator_of_its_kernel(gf256):
    # B is monic of degree 2^(m-k) and vanishes on its (m-k)-dimensional
    # kernel, so it is that kernel's annihilator: A_ker(x) = B(x) at each
    # preimage the lift chose
    r = rng(43)
    U = _random_independent(gf256, 5, r)
    S = frozenset(gflinalg.span(U)[:9].tolist())
    spec = _lift(CodewordSupport(gf256, S, 2, extended=True), U)
    assert len(spec.basis) == 3
    assert set(annihilator(gf256, list(spec.basis), spec.x_set.tolist())) == S
    bpoly = oracle.image_poly(gf256, U)
    assert oracle.annihilator(gf256, oracle.lin_kernel(bpoly)).coeffs == bpoly.coeffs


def test_image_map_preimage_sizes(gf256):
    # preimages are taken by up_convert: one kernel coset per point
    r = rng(47)
    U = _random_independent(gf256, 3, r)
    bpoly = oracle.image_poly(gf256, U)
    for u in gflinalg.span(U).tolist():
        pre = up_convert(CodewordSupport(gf256, frozenset({u}), 2, extended=True), U).elems
        assert len(pre) == 1 << 5
        assert all(oracle.lin_eval(bpoly, x) == u for x in pre.tolist())


def test_image_map_preimage_of_image_identity(gf256):
    r = rng(53)
    U = _random_independent(gf256, 4, r)
    bpoly = oracle.image_poly(gf256, U)
    S = frozenset(gflinalg.span(U)[:7].tolist())
    pre = up_convert(CodewordSupport(gf256, S, 2, extended=True), U).elems
    assert {oracle.lin_eval(bpoly, x) for x in pre.tolist()} == S


def test_image_map_rejects_dependent(gf256):
    with pytest.raises(ValueError, match="annihilator generators are dependent"):
        up_convert(CodewordSupport(gf256, frozenset({0}), 2, extended=True), [3, 5, 6])


# -- defining properties, across field sizes ------------------------------------------


def _compose(ctx, a, b):
    """Coefficients of A(B(X)) = sum_i a_i * (sum_j b_j X^(2^j))^(2^i)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] ^= ctx.mul(ai, ctx.frobenius(bj, i))
    return out


@pytest.mark.parametrize("m", range(2, 33))
def test_array_subspace_images_match_annihilator(m):
    # the values against the oracle's coefficient form at every m, scalar
    # products up to m = 24 and array products above, under each modulus,
    # and the refusal of dependent gens
    r = rng(m)
    for ctx in _fields(m):
        for s in (0, 1, m // 2, m - 2, m):
            gens = _random_independent(ctx, s, r)
            points = [0, 1, 1 << (m - 1), ctx.n] + [r.getrandbits(m) for _ in range(8)] + gens
            images = annihilator(ctx, gens, points)
            assert all(type(y) is int for y in images)
            assert images == [oracle.lin_eval(oracle.annihilator(ctx, gens), x) for x in points]
        for dependent in ([*gens[:3], 0], [*gens[:3], gens[1]], [*gens[:3], gens[0] ^ gens[1]]):
            with pytest.raises(ValueError, match="annihilator generators are dependent"):
                annihilator(ctx, dependent, points)
    assert annihilator(ctx, [], []) == []


@pytest.mark.parametrize("m", [*range(2, 17), 29, 32])  # m = 29, 32 have no log tables
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_subspace_polynomials(m, data):
    ctx = default_field(m)
    r = rng(data.draw(st.integers(0, 2**32 - 1)))
    gens = _random_independent(ctx, data.draw(st.integers(0, m)), r)
    s = len(gens)

    # the values construction uses equal the coefficient form's, which is
    # monic of degree 2^s with an s-dimensional kernel; no generators is the
    # identity, a whole basis maps everything to 0
    ann = oracle.annihilator(ctx, gens)
    assert ann.coeffs[-1] == 1 and len(ann.coeffs) - 1 == s
    assert len(oracle.lin_kernel(ann)) == s
    points = [r.getrandbits(m) for _ in range(8)] + gens
    assert annihilator(ctx, gens, points) == [oracle.lin_eval(ann, x) for x in points]
    assert annihilator(ctx, gens, gens) == [0] * s
    assert annihilator(ctx, [], points) == points
    assert annihilator(ctx, [1 << k for k in range(m)], points) == [0] * len(points)

    bad = [0]
    if s >= 1:
        bad.append(r.choice(gens))  # repeated
    if s >= 2:
        bad.append(gens[0] ^ gens[-1] ^ r.choice(gens[1:-1] + [0]))  # summed
    for extra in bad:
        dependent = gens + [extra]
        r.shuffle(dependent)
        with pytest.raises(ValueError, match="annihilator generators are dependent"):
            annihilator(ctx, dependent, points)

    # the lift reads B's columns off the values of A_U and of B at the unit
    # vectors, never expanding either: they are the oracle's image
    # polynomial, with A_U(B(X)) = X^(2^m) + X, and its kernel and
    # preimages are B's
    bpoly = oracle.image_poly(ctx, gens)
    assert bpoly.coeffs[-1] == 1 and len(bpoly.coeffs) - 1 == m - s
    assert _compose(ctx, ann.coeffs, bpoly.coeffs) == [1] + [0] * (m - 1) + [1]
    units = [1 << k for k in range(m)]
    image = gflinalg.LinearMap(annihilator(ctx, gens, units)).image
    cols = annihilator(ctx, image, units)
    assert cols == oracle.matrix_cols(bpoly)
    assert rank(cols) == s and rank(cols + gens) == s  # they span span(gens)
    bmap = gflinalg.LinearMap(cols)
    in_span = {reduce(xor, [g for g in gens if r.getrandbits(1)], 0) for _ in range(4)}
    spec = _lift(CodewordSupport(ctx, in_span, 2, extended=True), gens)
    assert spec.basis == tuple(bmap.kernel)
    assert spec.x_set.tolist() == sorted(bmap.preimage(x) for x in in_span)


# -- maps read off field arithmetic, against the oracle -------------------------------


@pytest.mark.parametrize("m", range(2, 33))
def test_field_equation_maps_match_the_oracle(m):
    # the columns of X^2 + X (stepped by shifts) and of X^(2^ell) + X (by
    # Frobenius), through what the solvers take from them: every
    # Artin-Schreier preimage up to m = 10 (a sample above), and every
    # subfield with ell <= 16
    r = rng(m)
    for ctx in _fields(m):
        as_map = gflinalg.LinearMap(oracle.matrix_cols(oracle.LinearizedPoly(ctx, (1, 1))))
        for w in range(1 << m) if m <= 10 else (0, 1, *(r.getrandbits(m) for _ in range(64))):
            x0 = as_map.preimage(w)
            assert artin_schreier_solve(ctx, w) == (set() if x0 is None else {x0, x0 ^ 1})
        for ell in (e for e in range(1, 17) if m % e == 0):
            fixed = oracle.LinearizedPoly(ctx, (1,) + (0,) * (ell - 1) + (1,))  # X^(2^ell) + X
            expected = sorted(gflinalg.span(oracle.lin_kernel(fixed)).tolist())
            assert subfield(ctx, ell)[0].tolist() == expected


# -- affine cubics ------------------------------------------------------------------


def test_affine_cubic_roots_from_pair(gf256):
    # seeding with c1 = f_1(x1, x2), c2 = f_2(x1, x2) recovers {x1, x2, x1+x2}
    r = rng(59)
    found = 0
    while found < 50:
        x1, x2 = random_nonzero(gf256, r), random_nonzero(gf256, r)
        if x1 == x2:
            continue
        c1 = f_j(gf256, 1, x1, x2)
        c2 = f_j(gf256, 2, x1, x2)
        if c1 == 0:
            continue
        assert affine_cubic_roots(gf256, c1, c2) == {x1, x2, x1 ^ x2}
        found += 1


def test_affine_cubic_roots_satisfy_cubic(gf256):
    r = rng(61)
    for _ in range(100):
        c1, c2 = random_nonzero(gf256, r), r.getrandbits(8)
        for x in affine_cubic_roots(gf256, c1, c2):
            val = gf256.mul(c1, gf256.pow(x, 3)) ^ gf256.mul(c2, x) ^ gf256.mul(c1, c1)
            assert val == 0


@pytest.mark.parametrize("m", [4, 5])
def test_affine_cubic_census_exhaustive(m):
    # oracle: brute-force root scan of the cubic over the whole field
    ctx = default_field(m)
    q = 1 << m
    for c1 in range(1, q):
        for c2 in range(q):
            brute = {
                x
                for x in range(1, q)
                if ctx.mul(c1, ctx.pow(x, 3)) ^ ctx.mul(c2, x) ^ ctx.mul(c1, c1) == 0
            }
            assert affine_cubic_roots(ctx, c1, c2) == brute
            assert len(brute) in (0, 1, 3)


@pytest.mark.parametrize("m", range(4, 33))
def test_quartic_columns_are_its_matrix(m):
    # the stepped columns of c1*x^4 + c2*x^2 + c1^2*x against the oracle's
    ctx, r = default_field(m), rng(m)
    for c2 in (0, *(r.getrandbits(m) for _ in range(3))):
        c1 = random_nonzero(ctx, r)
        quartic = oracle.LinearizedPoly(ctx, (ctx.mul(c1, c1), c2, c1))
        assert linearized._quartic_cols(ctx, c1, c2) == oracle.matrix_cols(quartic)


def test_affine_cubic_rejects_zero_leading(gf256):
    with pytest.raises(ValueError, match="leading cubic coefficient is zero"):
        affine_cubic_roots(gf256, 0, 1)


# -- field equations, with and without log tables ------------------------------------


@pytest.mark.parametrize("m", [*range(2, 17), *range(25, 33)])  # m >= 25: no tables
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_field_equations(m, data):
    ctx = default_field(m)
    x = data.draw(st.integers(0, ctx.n))
    for z in (x, ctx.pow(x, 3)):
        roots = cube_roots(ctx, z)
        assert all(ctx.pow(r, 3) == z for r in roots)
        assert len(roots) in ((1,) if m % 2 or z == 0 else (0, 3))
    assert x in cube_roots(ctx, ctx.pow(x, 3))

    sols = artin_schreier_solve(ctx, x)
    assert len(sols) == (0 if ctx.trace(x) else 2)
    assert all(ctx.mul(y, y) ^ y == x for y in sols)

    ell = data.draw(st.sampled_from([e for e in range(1, 9) if m % e == 0]))
    elems, gen = subfield(ctx, ell)
    elems = elems.tolist()
    assert len(set(elems)) == 1 << ell
    assert all(ctx.frobenius(y, ell) == y for y in elems)
    # gen lies in no proper subfield of GF(2^ell)
    assert gen in elems
    assert not any(gen in subfield(ctx, d)[0] for d in range(1, ell) if ell % d == 0)
