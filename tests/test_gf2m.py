import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bchmin
from bchmin import linearized
from bchmin.gf2m import (
    _DEFAULT_POLYS,
    GF2m,
    UnsupportedDegree,
    default_field,
    parse_poly,
)
from bchmin.linearized import LinearizedPoly, lin_eval

from conftest import norm_rel, random_nonzero, rng, trace_rel


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


def test_nontable_path_matches_table_path():
    from bchmin.gf2m import _clmul, _polymod

    # the representation is fixed at construction: tables up to m = 24 only
    assert default_field(24).has_logs and len(default_field(24)._log) == 1 << 24
    big = GF2m(25)
    assert not big.has_logs
    for table_call in (lambda: big.log(3), big.exp_array, big.log_array):
        with pytest.raises(RuntimeError, match="log tables are not built for m=25 > 24"):
            table_call()
    small = GF2m(8)
    r = rng(3)
    for _ in range(200):
        a, b = r.getrandbits(8), r.getrandbits(8)
        assert small.mul(a, b) == _polymod(_clmul(a, b), small.poly)


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


def _trace_poly(ctx, a: int, b: int) -> LinearizedPoly:
    """The relative trace from GF(2^b) onto GF(2^a): sum of X^(2^(a k)), k < b/a."""
    return LinearizedPoly(ctx, tuple(int(j % a == 0) for j in range(b - a + 1)))


def test_trace_rel_constants():
    for m in (4, 6, 9):
        ctx = default_field(m)
        tr = LinearizedPoly(ctx, (1,) * m)  # the sum of the m conjugates
        assert lin_eval(tr, 0) == 0
        assert lin_eval(tr, 1) == m % 2
        # absolute trace agrees with the masked-parity implementation
        r = rng(5)
        for _ in range(50):
            x = r.getrandbits(m)
            assert lin_eval(tr, x) == ctx.trace(x)


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
                t_ac = lin_eval(_trace_poly(ctx, a, c), x)
                t_bc = lin_eval(_trace_poly(ctx, b, c), x)
                assert lin_eval(_trace_poly(ctx, a, b), t_bc) == t_ac == trace_rel(ctx, x, a, c)


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
    assert elems == [0, 1]
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


def test_log_unsupported_for_large_m():
    ctx = GF2m(25)
    with pytest.raises(RuntimeError, match="log tables are not built for m=25 > 24"):
        ctx.log(3)


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
    from bchmin.gf2m import _clmul, _polymod

    ctx = default_field(m)
    r = rng(m)
    for _ in range(300):
        a, b = random_nonzero(ctx, r), r.getrandbits(m)
        e = r.randrange(-ctx.n, 2 * ctx.n)
        assert ctx.mul(a, b) == _polymod(_clmul(a, b), ctx.poly)
        assert ctx.inv(a) == ctx._pow_nontable(a, ctx.n - 1)
        assert _polymod(_clmul(a, ctx.inv(a)), ctx.poly) == 1
        assert ctx.pow(a, e) == ctx._pow_nontable(a, e % ctx.n)
        assert ctx.exp(ctx.log(a)) == a


# A fresh interpreter building the m = 24 tables: 2 x 64 MB of uint32 arrays
# plus the temporaries of the log scatter and the bijection check (~333 MB
# and ~1.5 s measured).  The Python-list tables took 1.38 GB and ~8 s.
_M24_RSS_CEILING_MB = 600
_M24_WALL_CEILING_S = 10.0
_M24_CHILD = """
import resource, sys
from bchmin.gf2m import GF2m
GF2m(24).log(3)
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
