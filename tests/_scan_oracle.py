"""Frozen leader-by-leader syndrome scan: the oracle of the block kernel of
`verify._first_failure`.  p_1 comes first, then each 2-cyclotomic coset
leader j in [3, L] in ascending order, one p_j at a time: one gather of
alpha^(j log x) with log tables, one scalar power per element without.
The first nonzero one is the first failure.  Leaders are found by brute
force, not by the module's enumeration.  Keep this file as it is: it pins
what the scan returned before leaders went in blocks."""

from __future__ import annotations

import numpy as np


def coset_leaders(m: int, j_limit: int) -> list[int]:
    """The odd j in [3, j_limit] no larger than any of their m rotations."""
    n = (1 << m) - 1
    return [
        j for j in range(3, min(j_limit, n - 1) + 1, 2)
        if all(((j << t) | (j >> (m - t))) & n >= j for t in range(1, m))
    ]


def first_failure(ctx, elems, j_limit: int) -> tuple[int, int] | None:
    """First (j, p_j) with p_j != 0 over j = 1 and the leaders in
    [3, j_limit], or None, for the field elements elems."""
    nonzero = [int(x) for x in elems if x]
    if not nonzero:
        return None
    if ctx.has_logs:
        logs = ctx.log_array()[np.array(nonzero, dtype=np.uint64)].astype(np.int64)
        exp = ctx.exp_array()

        def p(j):
            return int(np.bitwise_xor.reduce(exp[(logs * j) % ctx.n]))
    else:
        def p(j):
            acc = 0
            for x in nonzero:
                acc ^= ctx.pow(x, j)
            return acc
    for j in [1, *coset_leaders(ctx.m, j_limit)]:
        if pj := p(j):
            return j, pj
    return None
