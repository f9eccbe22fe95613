import random
from functools import reduce
from itertools import count
from operator import xor

import numpy as np
import pytest

from bchmin import gflinalg
from bchmin.gf2m import default_field
from bchmin.solvers import RetriesExhausted, SolutionVector, SolverReport, f_j


@pytest.fixture
def gf16():
    return default_field(4)


@pytest.fixture
def gf256():
    return default_field(8)


# A second primitive modulus per table-free degree.  Each has an X^(m-1)
# term, so X^m mod poly has its top bit set and every doubling step of the
# fold tables wraps around the modulus.
OTHER_MODULI = {
    25: 0x3000043,
    26: 0x6000023,
    27: 0xC00000D,
    28: 0x18000031,
    29: 0x30000075,
    30: 0x60000073,
    31: 0xC000005B,
    32: 0x18000000B,
}


def rng(seed: int = 1234) -> random.Random:
    return random.Random(seed)


def elem_set(cw) -> frozenset:
    """The support of cw as a frozenset of ints, for set algebra in tests."""
    return frozenset(cw.elems.tolist())


def elem_array(elems) -> np.ndarray:
    """Distinct field elements as the sorted uint64 array the verifier takes."""
    return np.array(sorted(elems), dtype=np.uint64)


def random_nonzero(ctx, r: random.Random) -> int:
    while True:
        x = r.getrandbits(ctx.m)
        if x:
            return x


def _check_tower(ctx, x: int, a: int, b: int) -> None:
    """a | b | m, and x is fixed by b squarings, i.e. lies in GF(2^b)."""
    if a < 1 or b % a or ctx.m % b:
        raise ValueError(f"need a | b | m, got a={a}, b={b}, m={ctx.m}")
    if ctx.frobenius(x, b) != x:
        raise ValueError(f"element {x} is not in GF(2^{b})")


def trace_rel(ctx, x: int, a: int, b: int) -> int:
    """Reference relative trace from the 2^b-element subfield onto the 2^a
    one: the sum of the conjugates x^(2^(a k)), k < b/a, by repeated
    squaring with `ctx.mul`."""
    _check_tower(ctx, x, a, b)
    acc = 0
    cur = x
    for _ in range(b // a):
        acc ^= cur
        for _ in range(a):
            cur = ctx.mul(cur, cur)
    return acc


def norm_rel(ctx, x: int, a: int, b: int) -> int:
    """Relative norm from the 2^b-element subfield onto the 2^a one."""
    _check_tower(ctx, x, a, b)
    if x == 0:
        return 0
    return ctx.pow(x, ((1 << b) - 1) // ((1 << a) - 1))


# -- bit-serial GF(2)[X] reference ------------------------------------------------


def ref_clmul(a: int, b: int) -> int:
    """Reference carry-less product: one shift-and-add step per bit of b."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def ref_mod(a: int, poly: int) -> int:
    """Reference remainder of a modulo poly: one subtraction per bit of a
    at or above the degree of poly."""
    d = poly.bit_length()
    while a.bit_length() >= d:
        a ^= poly << (a.bit_length() - d)
    return a


def ref_mul(ctx, a: int, b: int) -> int:
    """Reference field product of `ctx`, from the bit-serial steps alone."""
    return ref_mod(ref_clmul(a, b), ctx.poly)


def min_poly(ctx, r: int) -> int:
    """Reference minimal polynomial over GF(2) of beta = alpha^r, packed
    (bit t is the coefficient of X^t): the first GF(2)-relation among 1,
    beta, beta^2, ... found by eliminating the powers as m-bit vectors."""
    rows = []  # (vector, combination of powers), leading bits distinct, descending
    for t in count():
        v, comb = ctx.exp(r * t), 1 << t
        for pv, pc in rows:
            if v ^ pv < v:  # the leading bit of pv is set in v
                v, comb = v ^ pv, comb ^ pc
        if v == 0:
            return comb
        rows.append((v, comb))
        rows.sort(reverse=True)


# -- scalar syndrome reference ----------------------------------------------------


def scalar_syndromes(ctx, nonzero, j_max):
    """Reference for `verify.power_sums` on fields without log tables: p_j,
    j = 1..j_max, as the XOR of one scalar `ctx.pow(x, j)` per support
    element."""
    return [reduce(xor, (ctx.pow(int(x), j) for x in nonzero), 0) for j in range(1, j_max + 1)]


# -- bit-matrix helpers for the test oracles -------------------------------------


def transpose(rows, ncols: int) -> list[int]:
    """Transpose a bit matrix given as rows; result has len(rows) columns."""
    out = []
    for c in range(ncols):
        v = 0
        for r, row in enumerate(rows):
            v |= ((row >> c) & 1) << r
        out.append(v)
    return out


def dot(row: int, vec: int) -> int:
    """GF(2) inner product of two bit vectors."""
    return (row & vec).bit_count() & 1


def rank(rows) -> int:
    """Rank over GF(2)."""
    return len(gflinalg.LinearMap(rows).image)


def invert(rows, n: int) -> list[int]:
    """Inverse of a square n x n bit matrix A (ValueError if singular):
    row j of A^(-1) is the preimage of e_j under f(e_r) = rows[r], i.e. A^T."""
    fmap = gflinalg.LinearMap(rows)
    if fmap.kernel or len(rows) != n:
        raise ValueError("matrix is singular over GF(2)")
    return [fmap.preimage(1 << j) for j in range(n)]


# -- exhaustive i = 2 oracle -------------------------------------------------------

class TooLarge(ValueError):
    """Brute force is limited to i = 2 and m <= 6."""


def iter_i2_solutions(ctx):
    """Exhaustively yield every independent ordered solution for i=2
    (intended for m <= 6: the scan is grouped by the common f_1 value)."""
    buckets: dict[int, list[tuple[int, int]]] = {}
    for x1 in range(1 << ctx.m):
        for x2 in range(1 << ctx.m):
            buckets.setdefault(f_j(ctx, 1, x1, x2), []).append((x1, x2))
    for pairs in buckets.values():
        for b1, b2 in pairs:
            for b3, b4 in pairs:
                b = (b1, b2, b3, b4)
                if gflinalg.independent(ctx, b):
                    yield b


def brute_force_solver(ctx, i: int) -> SolverReport:
    """Exhaustive-search oracle: first independent solution in scan order."""
    if i != 2 or ctx.m > 6:
        raise TooLarge("brute force supports i=2 and m <= 6 only")
    for b in iter_i2_solutions(ctx):
        return SolverReport(SolutionVector(ctx, b), 1)
    raise RetriesExhausted("no solution found by exhaustive scan")


def covered_cells(max_m=16):
    """The acceptance grid: every covered (m, i, s) cell up to max_m, with
    its method; 187 cells at max_m = 16."""
    cells = []
    for m in range(4, max_m + 1):
        for s in range(0, m - 3):
            cells.append((m, 2, s, "auto"))
    for m in (6, 15):
        for s in range(0, m - 3):
            cells.append((m, 2, s, "i2composite"))
    for m in range(6, max_m + 1):
        for s in range(0, m - 5):
            cells.append((m, 3, s, "auto"))
    for m in (8, 12, 16):
        for s in range(0, m - 7):
            cells.append((m, 4, s, "auto"))
    return cells
