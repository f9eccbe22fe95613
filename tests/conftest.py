import random

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


def rng(seed: int = 1234) -> random.Random:
    return random.Random(seed)


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


# -- scalar syndrome reference ----------------------------------------------------


def scalar_syndromes(ctx, nonzero, js):
    """Reference for `verify._syndromes` on fields without log tables: p_j
    as the XOR of one scalar `ctx.pow(x, j)` per support element."""
    for j in js:
        acc = 0
        for x in nonzero:
            acc ^= ctx.pow(int(x), j)
        yield acc


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


# -- exhaustive i = 2 oracle -------------------------------------------------------

BRUTE_FORCE = "bruteforce"


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
        return SolverReport(SolutionVector(ctx, b), 1, None, BRUTE_FORCE)
    raise RetriesExhausted("no solution found by exhaustive scan")
