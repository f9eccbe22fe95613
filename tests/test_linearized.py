from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchmin import gflinalg, linearized
from bchmin.construct import CodewordSupport, _lift, up_convert
from bchmin.gf2m import GF2m, default_field
from bchmin.linearized import (
    LinearizedPoly,
    affine_cubic_roots,
    annihilator,
    artin_schreier_solve,
    cube_roots,
    image_poly,
    lin_eval,
    lin_kernel,
    matrix_cols,
    subfield,
    subspace_images,
)
from bchmin.solvers import f_j

from conftest import OTHER_MODULI, random_nonzero, rank, rng


def _random_independent(ctx, k, r):
    elems = []
    while len(elems) < k:
        x = random_nonzero(ctx, r)
        if gflinalg.independent(ctx, elems + [x]):
            elems.append(x)
    return elems


# -- annihilators ---------------------------------------------------------------


def test_annihilator_of_zero_space(gf256):
    ann = annihilator(gf256, [])
    assert ann.coeffs == (1,)
    assert lin_eval(ann, 0xA7) == 0xA7


def test_annihilator_of_prime_field(gf256):
    ann = annihilator(gf256, [1])
    assert ann.coeffs == (1, 1)  # X^2 + X
    assert lin_eval(ann, 1) == 0


def test_annihilator_vanishes_exactly_on_span(gf256):
    r = rng(23)
    gens = _random_independent(gf256, 3, r)
    ann = annihilator(gf256, gens)
    assert ann.coeffs[-1] == 1 and len(ann.coeffs) - 1 == 3
    members = set(gflinalg.span(gens))
    for x in members:
        assert lin_eval(ann, x) == 0
    outside = 0
    while outside < 50:
        x = r.getrandbits(8)
        if x not in members:
            assert lin_eval(ann, x) != 0
            outside += 1


def test_annihilator_rejects_dependent(gf256):
    with pytest.raises(ValueError, match="annihilator generators are dependent"):
        annihilator(gf256, [3, 5, 6])


def test_annihilator_injective_on_coset_transversal(gf256):
    # distinct values on distinct kernel cosets: |A(S)| = |S| / 2^s for a
    # union of cosets
    r = rng(29)
    gens = _random_independent(gf256, 2, r)
    ann = annihilator(gf256, gens)
    cosets = set()
    reps = [r.getrandbits(8) for _ in range(10)]
    S = {rep ^ v for rep in reps for v in gflinalg.span(gens)}
    image = {lin_eval(ann, x) for x in S}
    assert len(image) == len(S) // 4


# -- evaluation and kernels ------------------------------------------------------


def test_lin_eval_additive(gf256):
    r = rng(31)
    poly = LinearizedPoly(gf256, (0x1D, 0, 0x03, 1))
    for _ in range(100):
        x, y = r.getrandbits(8), r.getrandbits(8)
        assert lin_eval(poly, x ^ y) == lin_eval(poly, x) ^ lin_eval(poly, y)


@pytest.mark.parametrize("m", [8, 29])  # m = 29 has no log tables
def test_lin_eval_matches_definition(m):
    # coefficients 0, 1 and others, leading 1 or not
    ctx = default_field(m)
    r = rng(37)
    for _ in range(50):
        coeffs = [r.choice([0, 1, r.getrandbits(m)]) for _ in range(r.randint(0, m))]
        coeffs.append(r.choice([1, random_nonzero(ctx, r)]))
        poly = LinearizedPoly(ctx, tuple(coeffs))
        x = r.getrandbits(m)
        expected = 0
        for j, a in enumerate(coeffs):
            expected ^= ctx.mul(a, ctx.pow(x, 1 << j))
        assert lin_eval(poly, x) == expected


def test_lin_kernel_prime_cases(gf256):
    assert lin_kernel(LinearizedPoly(gf256, (1,))) == []
    kern = lin_kernel(LinearizedPoly(gf256, (1, 1)))
    assert kern == [1]


def test_lin_kernel_matches_span(gf256):
    r = rng(37)
    gens = _random_independent(gf256, 4, r)
    kern = lin_kernel(annihilator(gf256, gens))
    assert len(kern) == 4
    assert set(gflinalg.span(kern)) == set(gflinalg.span(gens))


# -- image polynomials ------------------------------------------------------------


def test_image_map_full_space_is_identity(gf256):
    bpoly = image_poly(gf256, [1 << k for k in range(8)])
    assert bpoly.coeffs == (1,)
    for x in (0, 1, 0x35, 0xFF):
        assert lin_eval(bpoly, x) == x


def test_image_map_rank_and_kernel(gf256):
    r = rng(41)
    for k in (2, 4, 6):
        U = _random_independent(gf256, k, r)
        bpoly = image_poly(gf256, U)
        assert len(lin_kernel(bpoly)) == 8 - k
        image = {lin_eval(bpoly, x) for x in range(256)}
        assert image == set(gflinalg.span(U))


def test_image_poly_is_canonical_annihilator_of_its_kernel(gf256):
    r = rng(43)
    U = _random_independent(gf256, 5, r)
    bpoly = image_poly(gf256, U)
    assert bpoly.coeffs[-1] == 1 and len(bpoly.coeffs) - 1 == 3
    kern = lin_kernel(bpoly)
    assert annihilator(gf256, kern).coeffs == bpoly.coeffs


def test_image_map_preimage_sizes(gf256):
    # preimages are taken by up_convert: one kernel coset per point
    r = rng(47)
    U = _random_independent(gf256, 3, r)
    bpoly = image_poly(gf256, U)
    for u in gflinalg.span(U):
        pre = up_convert(CodewordSupport(gf256, frozenset({u}), 2, extended=True), U).elems
        assert len(pre) == 1 << 5
        assert all(lin_eval(bpoly, x) == u for x in pre)


def test_image_map_preimage_of_image_identity(gf256):
    r = rng(53)
    U = _random_independent(gf256, 4, r)
    bpoly = image_poly(gf256, U)
    S = frozenset(gflinalg.span(U)[:7])
    pre = up_convert(CodewordSupport(gf256, S, 2, extended=True), U).elems
    assert {lin_eval(bpoly, x) for x in pre} == S


def test_image_map_rejects_dependent(gf256):
    with pytest.raises(ValueError, match="annihilator generators are dependent"):
        image_poly(gf256, [3, 5, 6])


# -- defining properties, across field sizes ------------------------------------------


def _compose(ctx, a, b):
    """Coefficients of A(B(X)) = sum_i a_i * (sum_j b_j X^(2^j))^(2^i)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] ^= ctx.mul(ai, ctx.frobenius(bj, i))
    return out


@pytest.mark.parametrize("m", range(25, 33))
def test_array_subspace_images_match_annihilator(m):
    # the table-free fields' array recursion against the coefficient form,
    # with both moduli of each degree, and its refusal of dependent gens
    r = rng(m)
    for ctx in (default_field(m), GF2m(m, OTHER_MODULI[m])):
        for s in (0, 1, m // 2, m - 2, m):
            gens = _random_independent(ctx, s, r)
            points = [0, 1, 1 << (m - 1), ctx.n] + [r.getrandbits(m) for _ in range(8)] + gens
            images = subspace_images(ctx, gens, points)
            assert all(type(y) is int for y in images)
            assert images == [lin_eval(annihilator(ctx, gens), x) for x in points]
        for dependent in ([*gens[:3], 0], [*gens[:3], gens[1]], [*gens[:3], gens[0] ^ gens[2]]):
            with pytest.raises(ValueError, match="annihilator generators are dependent"):
                subspace_images(ctx, dependent, points)
    assert subspace_images(ctx, [], []) == []


@pytest.mark.parametrize("m", [*range(2, 17), 29, 32])  # m = 29, 32 have no log tables
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_subspace_polynomials(m, data):
    ctx = default_field(m)
    r = rng(data.draw(st.integers(0, 2**32 - 1)))
    gens = _random_independent(ctx, data.draw(st.integers(0, m)), r)
    s = len(gens)

    ann = annihilator(ctx, gens)
    assert ann.coeffs[-1] == 1 and len(ann.coeffs) - 1 == s
    assert all(lin_eval(ann, g) == 0 for g in gens)
    assert len(lin_kernel(ann)) == s

    # the values construction uses equal the coefficient form's; no
    # generators is the identity, a whole basis maps everything to 0
    points = [r.getrandbits(m) for _ in range(8)] + gens
    assert subspace_images(ctx, gens, points) == [lin_eval(ann, x) for x in points]
    assert subspace_images(ctx, [], points) == points
    assert subspace_images(ctx, [1 << k for k in range(m)], points) == [0] * len(points)

    bad = [0]
    if s >= 1:
        bad.append(r.choice(gens))  # repeated
    if s >= 2:
        bad.append(gens[0] ^ gens[-1] ^ r.choice(gens[1:-1] + [0]))  # summed
    for extra in bad:
        dependent = gens + [extra]
        r.shuffle(dependent)
        with pytest.raises(ValueError, match="annihilator generators are dependent"):
            annihilator(ctx, dependent)
        with pytest.raises(ValueError, match="annihilator generators are dependent"):
            subspace_images(ctx, dependent, points)

    bpoly = image_poly(ctx, gens)
    assert bpoly.coeffs[-1] == 1 and len(bpoly.coeffs) - 1 == m - s
    cols = matrix_cols(bpoly)  # they span the image of B, which is span(gens)
    assert rank(cols) == s and rank(cols + gens) == s
    # A_U(B(X)) = X^(2^m) + X
    assert _compose(ctx, ann.coeffs, bpoly.coeffs) == [1] + [0] * (m - 1) + [1]

    # the lift reads B's columns off the values of A_U and of B at the unit
    # vectors, never expanding either: its kernel and preimages are B's
    units = [1 << k for k in range(m)]
    image = gflinalg.LinearMap(subspace_images(ctx, gens, units)).image
    assert subspace_images(ctx, image, units) == cols
    bmap = gflinalg.LinearMap(cols)
    in_span = {reduce(xor, [g for g in gens if r.getrandbits(1)], 0) for _ in range(4)}
    spec = _lift(CodewordSupport(ctx, in_span, 2, extended=True), gens)
    assert spec.basis == tuple(bmap.kernel)
    assert spec.x_set == {bmap.preimage(x) for x in in_span}


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
    # the stepped columns of c1*x^4 + c2*x^2 + c1^2*x against lin_eval's
    ctx, r = default_field(m), rng(m)
    for c2 in (0, *(r.getrandbits(m) for _ in range(3))):
        c1 = random_nonzero(ctx, r)
        quartic = LinearizedPoly(ctx, (ctx.mul(c1, c1), c2, c1))
        assert linearized._quartic_cols(ctx, c1, c2) == matrix_cols(quartic)


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
    assert len(set(elems)) == 1 << ell
    assert all(ctx.frobenius(y, ell) == y for y in elems)
    # gen lies in no proper subfield of GF(2^ell)
    assert gen in elems
    assert not any(gen in subfield(ctx, d)[0] for d in range(1, ell) if ell % d == 0)
