import random

import pytest

from bchmin.gf2m import default_field


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
