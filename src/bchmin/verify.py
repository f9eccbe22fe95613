"""Independent certification of claimed codeword supports via power sums.

A support S certifies membership through its syndromes p_j = sum of x^j
over the nonzero support elements: an extended claim eBCH(d) (d even) needs
even |S| and p_j = 0 for j = 1..d-2; a punctured claim BCH(d) (d odd) needs
0 outside S and p_j = 0 for j = 1..d-1.  Since p_2j is always p_j squared,
only odd j are scanned.

This module deliberately shares nothing with the construction code beyond
field arithmetic: it consumes plain element sets (anything with ctx, elems,
claimed_distance, extended attributes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BadDistanceParity(ValueError):
    """Extended claims need even d, punctured claims odd d."""


class BadRange(ValueError):
    """Parameters outside m >= 2, 0 <= i <= m/2, 0 <= s <= m - 2i."""


@dataclass(frozen=True)
class Verdict:
    member: bool
    weight: int
    claimed_distance: int
    is_min_weight: bool
    failing_syndrome: tuple[int, int] | None


def designed_distance(m: int, s: int, i: int) -> int:
    """The designed-distance family 2^(m-1-s) - 2^(m-1-i-s)."""
    if m < 2 or not 0 <= i <= m // 2 or not 0 <= s <= m - 2 * i:
        raise BadRange(f"bad parameters m={m}, s={s}, i={i}")
    return (1 << (m - 1 - s)) - (1 << (m - 1 - i - s))


def _syndromes(ctx, elems, js):
    """Yield p_j over the nonzero elements elems for each j in js, lazily so
    a scan can stop at the first nonzero one."""
    if ctx.m <= 24:
        n, exp = ctx.n, ctx.exp_array()
        logs = np.array([ctx.log(x) for x in elems], dtype=np.int64)
        for j in js:
            yield int(np.bitwise_xor.reduce(exp[(logs * j) % n]))
        return
    for j in js:
        acc = 0
        for x in elems:
            acc ^= ctx.pow(x, j)
        yield acc


def power_sums(cw, j_max: int) -> list[int]:
    """[p_1, ..., p_j_max] with p_j the sum of x^j over nonzero x in the
    support."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    elems = [x for x in cw.elems if x]
    if not elems:
        return [0] * j_max
    return list(_syndromes(cw.ctx, elems, range(1, j_max + 1)))


def _coset_reps(n: int, j_limit: int) -> list[int]:
    """Smallest odd member <= j_limit of each 2-cyclotomic coset mod n that
    meets [1, j_limit]."""
    reps = []
    visited = bytearray(j_limit + 1)
    for j in range(1, j_limit + 1, 2):
        if visited[j]:
            continue
        reps.append(j)
        t = (j << 1) % n
        while t != j:
            if t <= j_limit and t & 1:
                visited[t] = 1
            t = (t << 1) % n
    return reps


def _first_failing_odd_syndrome(ctx, elems, j_limit: int) -> tuple[int, int] | None:
    """First (in class-reduced ascending scan) odd j <= j_limit with
    p_j != 0, or None.

    p_(2j mod n) = p_j^2, so the whole range vanishes iff one odd
    representative per 2-cyclotomic coset does.
    """
    elems = [x for x in elems if x]
    if not elems or j_limit < 1:
        return None
    reps = _coset_reps(ctx.n, j_limit)
    for j, pj in zip(reps, _syndromes(ctx, elems, reps)):
        if pj:
            return (j, pj)
    return None


def _membership(cw) -> tuple[bool, tuple[int, int] | None]:
    d = cw.claimed_distance
    if d < 2:
        raise ValueError(f"claimed distance must be >= 2, got {d}")
    if cw.extended:
        if d % 2:
            raise BadDistanceParity(f"extended claim needs even d, got {d}")
        if len(cw.elems) % 2:
            return False, None
        fail = _first_failing_odd_syndrome(cw.ctx, cw.elems, d - 2)
    else:
        if d % 2 == 0:
            raise BadDistanceParity(f"punctured claim needs odd d, got {d}")
        if 0 in cw.elems:
            return False, None
        fail = _first_failing_odd_syndrome(cw.ctx, cw.elems, d - 1)
    return fail is None, fail


def is_member(cw) -> bool:
    """True iff the support lies in the claimed (extended) BCH code."""
    member, _ = _membership(cw)
    return member


def is_min_weight(cw) -> Verdict:
    """Certify the support as a minimum-weight codeword: membership plus
    weight exactly equal to the claimed designed distance."""
    member, fail = _membership(cw)
    weight = len(cw.elems)
    return Verdict(
        member=member,
        weight=weight,
        claimed_distance=cw.claimed_distance,
        is_min_weight=member and weight == cw.claimed_distance,
        failing_syndrome=fail,
    )
