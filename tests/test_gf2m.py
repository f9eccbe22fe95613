import os
import subprocess
import sys
import threading
import time
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bchmin
from bchmin import gf2m, linearized
from bchmin.gf2m import (
    _DEFAULT_POLYS,
    GF2m,
    UnsupportedDegree,
    default_field,
    parse_poly,
)

import _linearized_oracle as oracle
from conftest import OTHER_MODULI, norm_rel, random_nonzero, ref_clmul, ref_mul, rng, trace_rel


# -- construction ------------------------------------------------------------


def test_make_field_standard_quartic():
    ctx = GF2m(4, 0x13)
    # alpha generates the full multiplicative group of order 15
    seen = set()
    x = 1
    for _ in range(15):
        seen.add(x)
        x = ctx.mul(x, ctx.alpha)
    assert x == 1 and len(seen) == 15


def test_make_field_default_degree8():
    ctx = default_field(8)
    assert ctx.poly == 0x11D
    assert ctx.n == 255


def test_make_field_rejects_reducible():
    with pytest.raises(ValueError, match="0x15 is reducible over GF"):
        GF2m(4, 0x15)  # X^4 + X^2 + 1 = (X^2 + X + 1)^2


def test_make_field_rejects_nonprimitive():
    # X^4 + X^3 + X^2 + X + 1 is irreducible but X has order 5
    with pytest.raises(ValueError, match="X has order < 2\\^4-1 modulo 0x1f"):
        GF2m(4, 0x1F)


def _x_order_walk(m, poly):
    """Bit-serial oracle: the powers X^1..X^n modulo poly, n = 2^m - 1,
    by `ref_mul`.  Returns the least k with X^k = 1 (None if there is none
    up to n) and whether X^n = 1."""
    ctx = SimpleNamespace(poly=poly)
    n = (1 << m) - 1
    x, order = 1, None
    for k in range(1, n + 1):
        x = ref_mul(ctx, x, 2)
        if x == 1 and order is None:
            order = k
    return order, x == 1


def test_accepts_exactly_primitive_moduli():
    # every modulus of degree m: accepted iff X has order 2^m - 1, and the
    # refusal says "reducible" iff X^(2^m - 1) != 1
    for m in range(2, 9):
        for poly in range(1 << m, 2 << m):
            order, x_n_is_one = _x_order_walk(m, poly)
            try:
                GF2m(m, poly)
            except ValueError as exc:
                assert order != (1 << m) - 1
                assert ("is reducible over GF(2)" in str(exc)) == (not x_n_is_one)
                assert x_n_is_one == ("X has order < 2^" in str(exc))
            else:
                assert order == (1 << m) - 1
    # beyond: as many accepted moduli as primitive polynomials, phi(n) / m
    for m in range(9, 13):
        n = (1 << m) - 1
        accepted = 0
        for poly in range(1 << m, 2 << m):
            try:
                GF2m(m, poly)
                accepted += 1
            except ValueError:
                pass
        assert accepted == sum(gcd(k, n) == 1 for k in range(1, n + 1)) // m


def test_make_field_rejects_bad_degree():
    with pytest.raises(UnsupportedDegree):
        GF2m(1, 0x3)
    with pytest.raises(UnsupportedDegree):
        GF2m(33, (1 << 33) | 1)
    with pytest.raises(ValueError):
        GF2m(5, 0x13)  # degree-4 modulus for m=5


def test_parse_poly_forms():
    assert parse_poly("0x11D") == 0x11D
    assert parse_poly("8,4,3,2,0") == 0x11D
    assert parse_poly(0x13) == 0x13
    with pytest.raises(ValueError):  # refused before 1 << 10^10 is formed
        parse_poly("8,4,3,2,10000000000")


def test_default_polys_all_valid():
    for m in range(2, 33):
        ctx = default_field(m)
        assert ctx.m == m


def test_default_field_one_object_per_field():
    # None names the built-in modulus, so both spellings share one set of tables
    assert default_field(8) is default_field(8, 0x11D)
    assert default_field(8, 0x12B) is not default_field(8)
    for m in (1, 33):
        with pytest.raises(UnsupportedDegree):
            default_field(m)


# -- arithmetic ---------------------------------------------------------------


def test_mul_identity_and_inverse(gf256):
    r = rng(7)
    for _ in range(100):
        x = random_nonzero(gf256, r)
        assert gf256.mul(x, 1) == x
        assert gf256.mul(x, gf256.pow(x, gf256.n - 1)) == 1
        assert gf256.mul(x, gf256.inv(x)) == 1


def test_mul_reduction_quartic(gf16):
    # alpha^3 * alpha = alpha^4 = alpha + 1 under X^4 + X + 1
    assert gf16.mul(0b1000, 0b0010) == 0b0011


def test_pow_edge_cases(gf256):
    assert gf256.pow(0, 0) == 1
    assert gf256.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        gf256.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        gf256.inv(0)
    x = 0xAB
    assert gf256.pow(x, -1) == gf256.inv(x)
    assert gf256.pow(x, gf256.n) == 1


def _ref_pow(ctx, a, e):
    r = 1
    for bit in bin(e)[2:]:
        r = ref_mul(ctx, r, r)
        if bit == "1":
            r = ref_mul(ctx, r, a)
    return r


def test_nontable_path_matches_table_path():
    # tables from construction up to m = 20, on first use at m = 21..24, never
    # above; the m = 21..24 fields compute without them until then
    assert GF2m(20).tables_built and not GF2m(20).lazy_logs
    assert GF2m(24).has_logs and GF2m(24).lazy_logs and not GF2m(24).tables_built
    big = GF2m(25)
    assert not big.has_logs
    for table_call in (lambda: big.log(3), big.exp_array, big.log_array):
        with pytest.raises(RuntimeError, match="log tables are not built for m=25 > 24"):
            table_call()
    small = GF2m(8)
    r = rng(3)
    for _ in range(200):
        a, b = r.getrandbits(8), r.getrandbits(8)
        assert small.mul(a, b) == ref_mul(small, a, b)
    # every table-free degree, with the built-in and one other modulus
    for m, other in OTHER_MODULI.items():
        for ctx in (default_field(m), GF2m(m, other)):
            edge = [0, 1, 1 << (m - 1), ctx.n]
            pairs = [(a, b) for a in edge for b in edge]
            pairs += [(r.getrandbits(m), r.getrandbits(m)) for _ in range(40)]
            for a, b in pairs:
                assert ctx.mul(a, b) == ref_mul(ctx, a, b)
                assert ctx.mul(a, a) == ref_mul(ctx, a, a)
                if a:
                    assert ctx.mul(a, ctx.inv(a)) == 1
                    assert ctx._pow_nontable(a, ctx.n) == 1
                    e = r.randrange(1, ctx.n)
                    assert ctx.pow(a, e) == _ref_pow(ctx, a, e)


@pytest.mark.parametrize("m", range(2, 33))
def test_mul_array_matches_table_free_product(m):
    # every degree: operands 0, 1, n, 2^(m-1) against each other and random
    # ones, at lengths 0, 1 and one block either side of _MUL_BLOCK; the
    # reference is the scalar windowed product, table-free at every m
    ctx, r, block = default_field(m), rng(100 + m), gf2m._MUL_BLOCK
    edge = [0, 1, ctx.n, 1 << (m - 1)]
    pairs = [(a, b) for a in edge for b in edge]
    for length in (0, 1, block - 1, block + 1):
        rand = [(r.getrandbits(m), r.getrandbits(m)) for _ in range(length)]
        cases = rand if length <= 1 else (pairs + rand)[:length]
        a = np.array([x for x, _ in cases], dtype=np.uint64)
        b = np.array([y for _, y in cases], dtype=np.uint64)
        got = ctx.mul_array(a, b)
        assert got.dtype == np.uint64 and len(got) == length
        assert got.tolist() == [ctx._mul_free(x, y) for x, y in cases], length


@pytest.mark.parametrize("m", [*range(2, 17), *range(25, 33)])
def test_mul_array_matches_field_mul(m):
    # with both moduli of a table-free degree; 5000 elements pass one
    # block of the product, so the blocks are stitched too
    r = rng(m)
    fields = [default_field(m)] + ([GF2m(m, OTHER_MODULI[m])] if m in OTHER_MODULI else [])
    for ctx in fields:
        edge = [0, 1, 1 << (m - 1), ctx.n]
        a = edge * 4 + [r.getrandbits(m) for _ in range(5000)]
        b = [x for x in edge for _ in edge] + [r.getrandbits(m) for _ in range(5000)]
        got = ctx.mul_array(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [ctx.mul(x, y) for x, y in zip(a, b)]
    assert ctx.mul_array(np.array([], dtype=np.uint64), np.array([], dtype=np.uint64)).tolist() == []


@pytest.mark.parametrize("m", [8, 25, 32])
def test_mul_array_block_edges(m):
    # lengths around the block of the product: one short of it, exactly
    # one, one past it, and three blocks and a partial fourth
    ctx, r, block = default_field(m), rng(m), gf2m._MUL_BLOCK
    for length in (block - 1, block, block + 1, 3 * block + 5):
        a = [r.getrandbits(m) for _ in range(length)]
        b = [r.getrandbits(m) for _ in range(length)]
        got = ctx.mul_array(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
        assert got.tolist() == [ctx.mul(x, y) for x, y in zip(a, b)], length


@pytest.mark.parametrize("m", range(25, 33))
def test_euclid_inverse_matches_power(m):
    # the table-free inverse is the extended Euclidean algorithm; a^(n-1)
    # is its reference, with both moduli of each degree
    r = rng(m)
    for ctx in (default_field(m), GF2m(m, OTHER_MODULI[m])):
        for a in [1, ctx.alpha, 1 << (m - 1), ctx.n] + [random_nonzero(ctx, r) for _ in range(40)]:
            inv = ctx.inv(a)
            assert type(inv) is int and inv == ctx._pow_nontable(a, ctx.n - 1)
        with pytest.raises(ZeroDivisionError, match="0 has no inverse"):
            ctx.inv(0)


def test_windowed_clmul_matches_bit_serial():
    from bchmin.gf2m import _clmul, _square

    # unequal lengths up to 2m bits, as in the irreducibility test
    r = rng(5)
    for _ in range(2000):
        a, b = r.getrandbits(r.randint(0, 64)), r.getrandbits(r.randint(0, 64))
        assert _clmul(a, b) == ref_clmul(a, b)
    for k in range(65):
        ones = (1 << k) - 1
        assert _clmul(ones, ones) == ref_clmul(ones, ones)
        assert _clmul(ones, 1 << (64 - k)) == ones << (64 - k)
        if k <= 32:
            assert _square(ones) == ref_clmul(ones, ones)
    for _ in range(500):
        a = r.getrandbits(32)
        assert _square(a) == ref_clmul(a, a)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_field_axioms_gf256(a, b, c):
    ctx = default_field(8)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


# -- Frobenius and trace -------------------------------------------------------


def test_frobenius_identities(gf256):
    r = rng(11)
    for _ in range(100):
        x = r.getrandbits(8)
        assert gf256.frobenius(x, 0) == x
        assert gf256.frobenius(x, 8) == x
        root = gf256.frobenius(x, -1)
        assert gf256.mul(root, root) == x


def test_frobenius_fixes_exactly_prime_field():
    ctx = default_field(6)
    fixed = [x for x in range(64) if ctx.frobenius(x, 1) == x]
    assert fixed == [0, 1]


@given(st.integers(0, 255), st.integers(0, 255))
def test_trace_linear_and_frobenius_invariant(x, y):
    ctx = default_field(8)
    assert ctx.trace(x) in (0, 1)
    assert ctx.trace(ctx.mul(x, x)) == ctx.trace(x)
    assert ctx.trace(x ^ y) == ctx.trace(x) ^ ctx.trace(y)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 10, 12])
def test_trace_balanced(m):
    ctx = default_field(m)
    ones = sum(ctx.trace(x) for x in range(1 << m))
    assert ones == 1 << (m - 1)


def _trace_poly(ctx, a: int, b: int) -> oracle.LinearizedPoly:
    """The relative trace from GF(2^b) onto GF(2^a): sum of X^(2^(a k)), k < b/a."""
    return oracle.LinearizedPoly(ctx, tuple(int(j % a == 0) for j in range(b - a + 1)))


def test_trace_rel_constants():
    for m in (4, 6, 9):
        ctx = default_field(m)
        tr = oracle.LinearizedPoly(ctx, (1,) * m)  # the sum of the m conjugates
        assert oracle.lin_eval(tr, 0) == 0
        assert oracle.lin_eval(tr, 1) == m % 2
        # absolute trace agrees with the masked-parity implementation
        r = rng(5)
        for _ in range(50):
            x = r.getrandbits(m)
            assert oracle.lin_eval(tr, x) == ctx.trace(x)


def test_trace_tower_transitivity():
    # Tr^c_a = Tr^b_a o Tr^c_b on random x, for every chain a | b | c | m;
    # each linearized trace agrees with the squaring oracle
    for m in (8, 12, 16):
        ctx = default_field(m)
        r = rng(m)
        divs = [d for d in range(1, m + 1) if m % d == 0]
        chains = [
            (a, b, c)
            for c in divs
            for b in divs
            for a in divs
            if c % b == 0 and b % a == 0
        ]
        for a, b, c in chains:
            for _ in range(10):
                # sample x inside GF(2^c)
                x = norm_rel(ctx, r.getrandbits(m), c, m) if c < m else r.getrandbits(m)
                t_ac = oracle.lin_eval(_trace_poly(ctx, a, c), x)
                t_bc = oracle.lin_eval(_trace_poly(ctx, b, c), x)
                assert oracle.lin_eval(_trace_poly(ctx, a, b), t_bc) == t_ac == trace_rel(ctx, x, a, c)


@pytest.mark.parametrize("m", range(2, 33))
def test_trace_mask_is_the_subfield_trace(m):
    # bit k of the mask is bit 0 of T(alpha^k), T = X + X^2 + ... +
    # X^(2^(ell-1)); on GF(2^ell), T is 0 or 1 and is the mask's parity
    r = rng(m)
    for ctx in [default_field(m)] + ([GF2m(m, OTHER_MODULI[m])] if m in OTHER_MODULI else []):
        for ell in (e for e in range(1, min(m, 16) + 1) if m % e == 0):
            tr = oracle.LinearizedPoly(ctx, (1,) * ell)
            mask = ctx.trace_mask(ell)
            assert mask == sum((oracle.lin_eval(tr, 1 << k) & 1) << k for k in range(m))
            elems = linearized.subfield(ctx, ell)[0].tolist()
            for y in elems if ell <= 8 else r.sample(elems, 256):
                assert oracle.lin_eval(tr, y) == (y & mask).bit_count() & 1


def test_norm_rel_basics(gf256):
    assert norm_rel(gf256, 0, 4, 8) == 0
    assert norm_rel(gf256, 1, 4, 8) == 1
    r = rng(9)
    for _ in range(100):
        x = r.getrandbits(8)
        nm = norm_rel(gf256, x, 4, 8)
        assert gf256.frobenius(nm, 4) == nm  # lands in GF(16)


def test_norm_rel_surjective_onto_subfield(gf256):
    f16, _ = linearized.subfield(gf256, 4)
    image = {norm_rel(gf256, x, 4, 8) for x in range(1, 256)}
    assert image == {x for x in f16 if x}


# -- cube roots and Artin-Schreier ---------------------------------------------


def test_cube_root_odd_m_roundtrip():
    ctx = default_field(5)
    r = rng(21)
    for _ in range(100):
        x = r.getrandbits(5)
        roots = linearized.cube_roots(ctx, ctx.pow(x, 3) if x else 0)
        assert roots == {x}


def test_cube_roots_of_unity_even_m(gf256):
    roots = linearized.cube_roots(gf256, 1)
    f4, c = linearized.subfield(gf256, 2)
    assert roots == {1, c, gf256.mul(c, c)}
    assert all(gf256.pow(x, 3) == 1 for x in roots)


def test_cube_root_census_gf16(gf16):
    # oracle: enumerate all cubes over GF(16) directly
    cubes = {gf16.pow(x, 3) for x in range(16) if x}
    assert len(cubes) == (16 - 1) // 3
    for z in range(1, 16):
        roots = linearized.cube_roots(gf16, z)
        assert all(gf16.pow(x, 3) == z for x in roots)
        if z in cubes:
            assert len(roots) == 3
        else:
            assert roots == set()


def test_artin_schreier_solutions(gf256):
    assert linearized.artin_schreier_solve(gf256, 0) == {0, 1}
    r = rng(13)
    for _ in range(100):
        w = r.getrandbits(8)
        sols = linearized.artin_schreier_solve(gf256, w)
        if gf256.trace(w):
            assert sols == set()
        else:
            assert len(sols) == 2
            for x in sols:
                assert gf256.mul(x, x) ^ x == w


def test_artin_schreier_conjugate_product_solvable():
    # x^2 + x = a^2 b + a b^2 with a generating GF(4), b generating GF(8)
    ctx = default_field(6)
    _, a = linearized.subfield(ctx, 2)
    _, b = linearized.subfield(ctx, 3)
    w = ctx.mul(ctx.mul(a, a), b) ^ ctx.mul(a, ctx.mul(b, b))
    sols = linearized.artin_schreier_solve(ctx, w)
    assert sols
    for x in sols:
        assert ctx.mul(x, x) ^ x == w


# -- subfields and logs ----------------------------------------------------------


def test_subfield_prime_field(gf256):
    elems, gen = linearized.subfield(gf256, 1)
    assert elems.tolist() == [0, 1] and elems.dtype == np.uint64
    assert not elems.flags.writeable  # cached, so shared by every caller
    assert gen == 1


def test_subfield_gf4_in_gf16(gf16):
    elems, gen = linearized.subfield(gf16, 2)
    assert len(elems) == 4
    for x in elems:
        if x:
            assert gf16.pow(x, 3) == 1
    assert gen in elems and gen not in linearized.subfield(gf16, 1)[0]


def test_subfield_bad_degree(gf256):
    with pytest.raises(ValueError, match="3 does not divide m=8"):
        linearized.subfield(gf256, 3)


def test_subfield_generator_generates():
    ctx = default_field(12)
    for ell in (2, 3, 4, 6):
        elems, gen = linearized.subfield(ctx, ell)
        assert len(elems) == 1 << ell
        # gen lies in no proper subfield of GF(2^ell)
        for d in range(1, ell):
            if ell % d == 0:
                assert gen not in linearized.subfield(ctx, d)[0]


def test_discrete_log_basics(gf256):
    assert gf256.log(1) == 0
    assert gf256.log(gf256.alpha) == 1
    assert gf256.log(gf256.exp(30)) == 30
    with pytest.raises(ValueError, match="discrete log of 0 requested"):
        gf256.log(0)


@pytest.mark.parametrize("m", [4, 8, 10, 12])
def test_log_exp_roundtrip_exhaustive(m):
    ctx = default_field(m)
    for x in range(1, 1 << m):
        assert ctx.exp(ctx.log(x)) == x


@pytest.mark.parametrize("m", [2, 9, 24, 25, 32])
def test_frobenius_array_matches_scalar_frobenius(m):
    ctx, r = default_field(m), rng(200 + m)
    x = [0, 1, ctx.n, 1 << (m - 1)] + [r.getrandbits(m) for _ in range(100)]
    for k in (*range(m), -1, m + 3):
        got = ctx.frobenius_array(np.array(x, dtype=np.uint64), k)
        assert got.tolist() == [ctx.frobenius(v, k) for v in x], k


@pytest.mark.parametrize("m", [21, 22, 23, 24])
def test_subgroup_logs_match_the_tables(m):
    # logs and elems before the tables exist, through the subgroups, against
    # the tables built afterwards: random elements and logs, the ends of
    # both ranges, round trips, and the refusal of log(0); the split n1 n2
    # is pinned, n2 the part with fewer set bits
    split = {21: (6223, 337), 22: (2047, 2049), 23: (178481, 47), 24: (4095, 4097)}
    assert gf2m._subgroup_split(m) == split[m]
    ctx, r = GF2m(m), np.random.default_rng(m)
    x = np.concatenate(([1, 2, ctx.n, 1 << (m - 1)], r.integers(1, ctx.n + 1, 3000))).astype(np.uint64)
    e = np.concatenate(([0, 1, ctx.n - 1], r.integers(0, ctx.n, 3000)))
    logs, elems, one = ctx.logs(x), ctx.elems(e), ctx.log(int(x[-1]))
    assert not ctx.tables_built
    assert logs.dtype == elems.dtype == np.uint32
    assert np.array_equal(ctx.elems(logs), x) and np.array_equal(ctx.logs(elems.astype(np.uint64)), e)
    for bad in ([0], [5, 0]):
        with pytest.raises(ValueError, match="discrete log of 0 requested"):
            ctx.logs(np.array(bad, dtype=np.uint64))
    with pytest.raises(ValueError, match="discrete log of 0 requested"):
        ctx.log(0)
    with pytest.raises(ValueError, match=f"must lie in GF\\(2\\^{m}\\)"):
        ctx.logs(np.array([1 << m], dtype=np.uint64))
    assert not ctx.tables_built
    assert np.array_equal(logs, ctx.log_array()[x]) and np.array_equal(elems, ctx.exp_array()[e])
    assert one == logs[-1] and ctx.tables_built
    # with the tables built, the same calls gather from them
    assert np.array_equal(ctx.logs(x), logs) and np.array_equal(ctx.elems(e), elems)


def test_subgroup_path_builds_the_tables_for_long_arrays():
    # up to 2^(m - _SUBGROUP_SHIFT) entries through the subgroups; one more
    # builds the tables, then gathers
    ctx = GF2m(21)
    limit = ctx.n >> gf2m._SUBGROUP_SHIFT
    e = np.arange(limit) * 3
    ctx.elems(e)
    assert not ctx.tables_built
    assert np.array_equal(ctx.elems(np.arange(limit + 1) * 3)[:limit], ctx.exp_array()[e])
    assert ctx.tables_built


def test_lazy_tables_built_on_first_use():
    # m = 21..24: no tables at construction; the first exp_array or
    # log_array call builds both, and later calls return those arrays
    for first in ("exp_array", "log_array"):
        ctx = GF2m(22)
        assert ctx.lazy_logs and not ctx.tables_built
        table = getattr(ctx, first)()
        assert ctx.tables_built
        exp, log = ctx.exp_array(), ctx.log_array()
        assert table is (exp if first == "exp_array" else log)
        assert ctx.exp_array() is exp and ctx.log_array() is log
        assert exp.dtype == log.dtype == np.uint32 and len(exp) == ctx.n and len(log) == ctx.n + 1
        assert exp[0] == 1 and exp[1] == 2 and log[2] == 1


def test_lazy_tables_built_once_under_threads(monkeypatch):
    # concurrent first calls build the tables once and share them
    ctx, builds = GF2m(21), []
    orig = GF2m._build_tables

    def counted(self):
        builds.append(self)
        orig(self)

    monkeypatch.setattr(GF2m, "_build_tables", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = []
        threads = [threading.Thread(target=lambda: results.append(ctx.log_array())) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1 and len(results) == 4 and all(r is results[0] for r in results)


@pytest.mark.parametrize("m", [21, 24])
def test_lazy_field_scalar_arithmetic_matches_tables(m):
    # mul, inv, pow and log without the tables, then with them
    ctx, r = GF2m(m), rng(m)
    cases = [(random_nonzero(ctx, r), r.getrandbits(m), r.randrange(-ctx.n, 2 * ctx.n)) for _ in range(50)]
    free = [(ctx.mul(a, b), ctx.inv(a), ctx.pow(a, e), ctx.log(a)) for a, b, e in cases]
    assert not ctx.tables_built
    ctx.log_array()
    assert free == [(ctx.mul(a, b), ctx.inv(a), ctx.pow(a, e), ctx.log(a)) for a, b, e in cases]


def test_log_unsupported_for_large_m():
    ctx = GF2m(25)
    for call in (lambda: ctx.log(3), lambda: ctx.logs(np.ones(1, np.uint64)),
                 lambda: ctx.elems(np.ones(1, np.int64))):
        with pytest.raises(RuntimeError, match="log tables are not built for m=25 > 24"):
            call()


# -- table layout ----------------------------------------------------------------


def _reference_tables(m: int, poly: int) -> tuple[list[int], list[int]]:
    """exp and log by the one-step walk cur -> cur * alpha."""
    n = (1 << m) - 1
    exp, log = [0] * n, [0] * (n + 1)
    cur = 1
    for k in range(n):
        exp[k], log[cur] = cur, k
        cur <<= 1
        if cur >> m:
            cur ^= poly
    return exp, log


@pytest.mark.parametrize(
    "m, poly",
    [(m, _DEFAULT_POLYS[m]) for m in range(2, 21)] + [(8, 0x12B), (13, 0x2027), (17, 0x2000F)],
)
def test_tables_match_reference_walk(m, poly):
    ctx = GF2m(m, poly)
    exp, log = _reference_tables(m, poly)
    assert ctx.exp_array().tolist() == exp
    assert ctx.log_array()[1:].tolist() == log[1:]


def _no_thread(self):
    raise AssertionError("a table build started a thread")


@pytest.mark.parametrize(
    "m, poly", [(m, _DEFAULT_POLYS[m]) for m in range(5, 13)] + [(8, 0x12B), (10, 0x481)]
)
def test_row_layout_matches_reference_walk(monkeypatch, m, poly):
    # small rows give a partial last row and more rows than one; no build
    # starts a thread
    exp, log = _reference_tables(m, poly)
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    for block in (16, 100, 128):
        monkeypatch.setattr(gf2m, "_BLOCK", block)
        ctx = GF2m(m, poly)
        assert ctx.exp_array().tolist() == exp
        assert ctx.log_array()[1:].tolist() == log[1:]


def test_table_builds_start_no_thread(monkeypatch):
    # the eager multi-row build at m = 17 and the lazy one at m = 21 run in
    # the calling thread
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    assert GF2m(17).tables_built
    ctx = GF2m(21)
    assert not ctx.tables_built
    assert len(ctx.log_array()) == ctx.n + 1


def test_m24_tables_whole():
    # the reference walk stops at m = 20: check the whole m = 24 tables by
    # the doubling step, alpha's order and log o exp, over all n entries
    ctx = default_field(24)
    exp, log, n = ctx.exp_array(), ctx.log_array(), ctx.n
    nxt = exp[:-1] << 1
    nxt ^= (nxt >> 24) * np.uint32(ctx.poly)
    assert np.array_equal(exp[1:], nxt)
    assert exp[0] == 1 and ref_mul(ctx, int(exp[-1]), 2) == 1
    for lo in range(0, n, 1 << 22):
        part = exp[lo:lo + (1 << 22)]
        assert np.array_equal(log[part], np.arange(lo, lo + len(part), dtype=np.uint32))


@pytest.mark.parametrize("m", [8, 17])
def test_table_arrays_are_stored_uint32(m):
    ctx = default_field(m)
    assert ctx.exp_array() is ctx.exp_array()
    assert ctx.log_array() is ctx.log_array()
    assert ctx.exp_array().dtype == np.uint32 and ctx.log_array().dtype == np.uint32
    assert len(ctx.exp_array()) == ctx.n and len(ctx.log_array()) == ctx.n + 1


@pytest.mark.parametrize("m", [8, 16, 17, 20])
def test_scalar_results_are_python_ints(m):
    ctx = default_field(m)
    x = ctx.exp(ctx.n // 3 + 5)
    for value in (ctx.log(x), ctx.mul(x, 3), ctx.inv(x), ctx.pow(x, 7), ctx.exp(11)):
        assert type(value) is int


@pytest.mark.parametrize("m", [8, 16, 17, 20])
def test_memoryview_path_matches_polynomial_arithmetic(m):
    ctx = default_field(m)
    r = rng(m)
    for _ in range(300):
        a, b = random_nonzero(ctx, r), r.getrandbits(m)
        e = r.randrange(-ctx.n, 2 * ctx.n)
        assert ctx.mul(a, b) == ref_mul(ctx, a, b)
        assert ctx.inv(a) == ctx._pow_nontable(a, ctx.n - 1)
        assert ref_mul(ctx, a, ctx.inv(a)) == 1
        assert ctx.pow(a, e) == ctx._pow_nontable(a, e % ctx.n)
        assert ctx.exp(ctx.log(a)) == a


# A fresh interpreter building the m = 24 tables: 2 x 64 MB of uint32 arrays,
# built and scattered in rows of 2^16 entries in the calling thread (~160 MB
# and 0.25-0.5 s on a 2-vCPU x86-64 machine, about 1.4x the time with the
# rows split over two threads).  The whole-array log scatter peaked at
# 252-254 MB (~0.9 s); the Python-list tables took 1.38 GB and ~8 s.
_M24_RSS_CEILING_MB = 250
_M24_WALL_CEILING_S = 10.0
# On Linux ru_maxrss also holds the parent's peak at exec, so the child reads
# the peak of its own address space, VmHWM, where /proc has it.
_M24_CHILD = """
import resource, sys
from bchmin.gf2m import GF2m
GF2m(24).log_array()
try:
    with open("/proc/self/status") as f:
        print(next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024)
except OSError:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(kib / 1024 if sys.platform != "darwin" else kib / 2**20)
"""


def test_m24_tables_memory_and_time_ceiling():
    env = dict(os.environ, PYTHONPATH=str(Path(bchmin.__file__).resolve().parents[1]))
    t0 = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", _M24_CHILD], env=env, capture_output=True, text=True, timeout=60
    )
    wall = time.perf_counter() - t0
    assert child.returncode == 0, child.stderr
    peak_mb = float(child.stdout)
    assert peak_mb < _M24_RSS_CEILING_MB
    assert wall < _M24_WALL_CEILING_S


@pytest.mark.parametrize("m", [8, 12, 16, 17])
def test_build_tables_refuses_a_non_bijective_exp(monkeypatch, m):
    # one flipped entry in each multiply-by-c table of the log build (the
    # only tables with m columns built with the field: the fold has m - 1;
    # at m = 17 also the row tables) makes exp miss some element of 1..n
    orig = gf2m._linear_tables

    def flipped(cols):
        tables = orig(cols)
        if len(cols) == m:
            tables[0][1] ^= 1
        return tables

    monkeypatch.setattr(gf2m, "_linear_tables", flipped)
    with pytest.raises(AssertionError):
        GF2m(m)
