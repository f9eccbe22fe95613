"""Independent certification of claimed codeword supports via power sums.

A support S certifies membership through its syndromes p_j = sum of x^j
over the nonzero support elements: an extended claim eBCH(d) (d even) needs
even |S| and p_j = 0 for j = 1..L with L = d-2; a punctured claim BCH(d)
(d odd) needs 0 outside S and p_j = 0 for j = 1..L with L = d-1.  Since
p_2j is always p_j squared, only odd j are scanned.

Two routes reach the same verdict.  The scan evaluates p_j at the leader
(least member, always odd) of each 2-cyclotomic coset meeting [1, L], in
ascending order, so it stops at the first nonzero p_j whatever L is.  The
check route packs c(X) = sum of X^log(x) over the nonzero support and tests
c(X) h(X) = 0 mod X^n - 1, where h is the check polynomial of the cyclic
code with zeros alpha^j, j in [1, L], a product over the leaders in (L, n);
it wins when that code has small dimension k.  Both start with p_1, and the
cheaper one is picked from (n, L, |S|) alone, by counting the leaders in
[1, L] and their coset sizes.  The scan, the check polynomial and that count
share one enumeration of the leaders, `_coset_leaders`.  The check route
needs discrete logs, so it exists only on fields with log tables
(`GF2m.has_logs`); on the others the scan runs alone, stepping the powers
of the whole support as numpy uint64 products (`_power_walk`).

This module deliberately shares nothing with the construction code beyond
field arithmetic: it consumes plain element sets (anything with ctx, elems,
claimed_distance, extended attributes).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count, tee

import numpy as np

# Measured costs (medians over the larger m = 12..16 acceptance supports):
# one table gather of the scan, i.e. one support element at one
# representative, and one 64-bit word of one shift-XOR term of the check.
# Only their ratio matters; it puts the crossover of the acceptance grid
# between s = 2 and s = 3 for m >= 8.
_SCAN_NS_PER_GATHER = 7.2
_CHECK_NS_PER_WORD = 4.0


@dataclass(frozen=True)
class Verdict:
    member: bool
    weight: int
    claimed_distance: int
    is_min_weight: bool
    failing_syndrome: tuple[int, int] | None
    route: str  # "scan" or "check": the route the cost rule picks for the claim


def designed_distance(m: int, s: int, i: int) -> int:
    """The designed-distance family 2^(m-1-s) - 2^(m-1-i-s)."""
    if m < 2 or not 0 <= i <= m // 2 or not 0 <= s <= m - 2 * i:
        raise ValueError(f"bad parameters m={m}, s={s}, i={i}")
    return ((1 << (m - s)) - (1 << (m - i - s))) >> 1  # 0 at i = 0, s = m


def _nonzero(ctx, elems) -> np.ndarray:
    """The nonzero support in the form `_syndromes` takes: the discrete logs
    as int64 when the field has log tables, else the elements as uint64.
    The logs are taken once per claim, in one gather from the log table, and
    shared by both routes."""
    nonzero = [x for x in elems if x]
    if ctx.has_logs:
        return ctx.log_array()[nonzero].astype(np.int64)
    return np.array(nonzero, dtype=np.uint64)


def _syndromes(ctx, nonzero, js):
    """Yield p_j over the nonzero support (see `_nonzero`) for each j of the
    ascending js, lazily so a scan can stop at the first nonzero one.  With
    log tables p_j is one gather of alpha^(j log x); without, the powers x^j
    of the whole support are walked up by array products (`_power_walk`)."""
    if ctx.has_logs:
        n, exp = ctx.n, ctx.exp_array()
        for j in js:
            yield int(np.bitwise_xor.reduce(exp[(nonzero * j) % n]))
        return
    yield from _power_walk(ctx.m, ctx.poly, nonzero, js)


# Elements per block of an array product: its m x block transients stay
# under 1 MB whatever the support size.
_MUL_BLOCK = 4096


@lru_cache(maxsize=64)
def _fold_tables(m: int, poly: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constants of `_mul` in GF(2)[X] / poly, derived from (m, poly) alone:
    the bit shifts 0..m-1 as a column, the byte shifts 8k of the high half
    of a product as a column, and the flat table whose entry 256k + b is
    (b X^(m+8k)) mod poly, for the ceil((m-1)/8) bytes of that half."""
    rows = -(-(m - 1) // 8)
    table = np.zeros((rows, 256), dtype=np.uint64)
    img = poly ^ (1 << m)  # X^m mod poly
    for k in range(rows):
        tab = np.zeros(1, dtype=np.uint64)
        for _ in range(8):  # doubling: bit t of b adds X^(m+8k+t) mod poly
            tab = np.concatenate((tab, tab ^ np.uint64(img)))
            img <<= 1
            if img >> m:
                img ^= poly
        table[k] = tab
    bits = np.arange(m, dtype=np.uint64)[:, None]
    shifts = np.arange(0, 8 * rows, 8, dtype=np.uint64)[:, None]
    return bits, shifts, table.ravel()


def _mul(a: np.ndarray, b: np.ndarray, m: int, poly: int) -> np.ndarray:
    """Elementwise a * b mod poly for uint64 arrays of m-bit elements: the
    carry-less product is the XOR of b << t over the set bits t of a, which
    fits in 2m - 1 <= 63 bits; its high m - 1 bits are folded back with one
    table gather per byte (Lopez and Dahab, INDOCRYPT 2000)."""
    if len(a) > _MUL_BLOCK:
        return np.concatenate([
            _mul(a[lo:lo + _MUL_BLOCK], b[lo:lo + _MUL_BLOCK], m, poly)
            for lo in range(0, len(a), _MUL_BLOCK)
        ])
    bits, shifts, table = _fold_tables(m, poly)
    prod = np.bitwise_xor.reduce((b << bits) * ((a >> bits) & 1), axis=0)
    high = prod >> m
    folded = table[((high >> shifts) & 0xFF) | (shifts << 5)]  # 256k + byte k
    return (prod & ((1 << m) - 1)) ^ np.bitwise_xor.reduce(folded, axis=0)


def _power_walk(m: int, poly: int, x: np.ndarray, js):
    """Yield the XOR of x^j over the uint64 elements x for each j >= 1 of
    the ascending js.  y = x^j is kept for the whole array and stepped up by
    y * x^2 while j is two or more ahead, and by y * x for an odd gap, so
    the scan of odd leaders takes one product per odd j it passes, and
    power_sums one per j."""
    y, at, x2 = x, 1, None
    for j in js:
        while at < j:
            if j - at >= 2:
                if x2 is None:
                    x2 = _mul(x, x, m, poly)
                y, at = _mul(y, x2, m, poly), at + 2
            else:
                y, at = _mul(y, x, m, poly), at + 1
        yield int(np.bitwise_xor.reduce(y))


def power_sums(cw, j_max: int) -> list[int]:
    """[p_1, ..., p_j_max] with p_j the sum of x^j over nonzero x in the
    support."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    nonzero = _nonzero(cw.ctx, cw.elems)
    if not len(nonzero):
        return [0] * j_max
    return list(_syndromes(cw.ctx, nonzero, range(1, j_max + 1)))


def _coset_leaders(m: int, lo: int, hi: int):
    """Yield, as ascending int64 blocks, the leaders of the 2-cyclotomic
    cosets mod n = 2^m - 1 in [lo, hi): the j equal to the least of their m
    rotations, 2j mod n being j rotated left in m bits (int64 holds the
    shifted j for every m <= 32).  A leader is odd, since an even j has j / 2
    in its coset, and below 2^(m-1), since a larger j has 2j - n; a coset
    meets [1, L] iff its leader does.  Blocks grow from 32 odd j, so a scan
    that fails at p_3 builds one small block, up to 2048 odd j, whose m - 1
    rotations take under 0.5 MB (larger blocks measured slower)."""
    n, size, t = (1 << m) - 1, 32, np.arange(1, m)[:, None]
    lo, hi = lo | 1, min(hi, 1 << (m - 1))
    while lo < hi:
        j = np.arange(lo, min(lo + 2 * size, hi), 2, dtype=np.int64)
        rot = ((j << t) | (j >> (m - t))) & n  # row t - 1 holds 2^t j mod n
        yield j[(rot >= j).all(axis=0)]
        lo, size = lo + 2 * size, min(2 * size, 2048)


@lru_cache(maxsize=512)
def _coset_counts(n: int, j_limit: int) -> tuple[int, int]:
    """(number of coset leaders in [1, j_limit], code dimension k) for the
    cost rule: k is n less the sizes of the 2-cyclotomic cosets meeting
    [1, j_limit], the zeros of the code.  Two ints per key, so a stream of
    claims keeps the cache small."""
    m = n.bit_length()
    reps, k = 0, n
    for lead in _coset_leaders(m, 1, j_limit + 1):
        # a coset's size is the least t | m with j (2^t - 1) = 0 mod n
        size = np.full(len(lead), m)
        for t in range(m // 2, 0, -1):
            if m % t == 0:
                size[lead * ((1 << t) - 1) % n == 0] = t
        reps, k = reps + len(lead), k - int(size.sum())
    return reps, k


def _pick_route(ctx, j_limit: int, size: int) -> str:
    """The cheaper route past p_1, from (n, L, |S|) alone; with L < 3
    there is nothing past p_1, and without logs no check route."""
    if not ctx.has_logs or j_limit < 3:
        return "scan"
    reps, k = _coset_counts(ctx.n, j_limit)
    scan_ns = (reps - 1) * size * _SCAN_NS_PER_GATHER
    check_ns = k / 2 * -(-ctx.n // 64) * _CHECK_NS_PER_WORD
    return "check" if check_ns < scan_ns else "scan"


def _scan(ctx, nonzero, js) -> tuple[int, int] | None:
    """First (j, p_j) with p_j != 0 over the iterable js, or None."""
    js, ahead = tee(js)
    return next(((j, pj) for j, pj in zip(js, _syndromes(ctx, nonzero, ahead)) if pj), None)


def _min_poly(ctx, r: int) -> int:
    """Minimal polynomial over GF(2) of beta = alpha^r, packed (bit t is the
    coefficient of X^t): the first GF(2)-relation among 1, beta, beta^2, ...
    found by eliminating the powers as m-bit vectors."""
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


def _clmul(a: int, b: int) -> int:
    """Product of two GF(2) polynomials packed into ints (a local copy, so
    the verifier uses no field internals beyond the public GF2m methods)."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _check_poly(ctx, j_limit: int) -> int:
    """The check polynomial h(X) = (X + 1) * prod M_r(X) over the cosets
    whose minimum exceeds j_limit, packed; derived from the field and
    j_limit alone, and cached per (field, j_limit) under a weak reference,
    so the cache keeps no field alive."""
    return _check_poly_cached(weakref.ref(ctx), j_limit)


@lru_cache(maxsize=256)
def _check_poly_cached(field_ref, j_limit: int) -> int:
    ctx = field_ref()
    h = 0b11
    for lead in _coset_leaders(ctx.m, j_limit + 1, ctx.n):
        for r in lead.tolist():
            h = _clmul(h, _min_poly(ctx, r))
    return h


def _in_code(ctx, nonzero, j_limit: int) -> bool:
    """c(X) h(X) = 0 mod X^n - 1 for c(X) = sum of X^log(x)."""
    n = ctx.n
    bits = np.zeros(n, dtype=np.uint8)
    bits[nonzero] = 1
    c = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    acc = 0
    for t, bit in enumerate(bin(_check_poly(ctx, j_limit))[:1:-1]):
        if bit == "1":
            acc ^= c << t
    return acc & ((1 << n) - 1) == acc >> n


def _first_failure(ctx, nonzero, j_limit: int, route: str) -> tuple[int, int] | None:
    """First (j, p_j) with p_j != 0 over the coset leaders j in [1, j_limit],
    ascending, or None; p_(2j mod n) = p_j^2, so the range vanishes iff one
    leader per 2-cyclotomic coset does.  p_1 comes first.  The check route
    then tests the check polynomial; the scan (on the scan route, or after a
    check rejection to name its first failing syndrome) walks the leaders
    in [3, j_limit] block by block, so it stops early whatever j_limit is."""
    fail = _scan(ctx, nonzero, (1,))
    if fail is not None or (route == "check" and _in_code(ctx, nonzero, j_limit)):
        return fail
    blocks = _coset_leaders(ctx.m, 3, j_limit + 1)
    fail = _scan(ctx, nonzero, chain.from_iterable(b.tolist() for b in blocks))
    if fail is None and route == "check":
        raise RuntimeError("check polynomial and syndrome scan disagree")
    return fail


def is_min_weight(cw) -> Verdict:
    """Certify the support as a minimum-weight codeword: membership plus
    weight exactly equal to the claimed designed distance."""
    ctx, d = cw.ctx, cw.claimed_distance
    if not 2 <= d <= ctx.n + 1:
        raise ValueError(f"claimed distance must be in 2..{ctx.n + 1}, got {d}")
    if cw.extended:
        if d % 2:
            raise ValueError(f"extended claim needs even d, got {d}")
        refused = len(cw.elems) % 2 == 1
        j_limit = d - 2
    else:
        if d % 2 == 0:
            raise ValueError(f"punctured claim needs odd d, got {d}")
        refused = 0 in cw.elems
        j_limit = d - 1
    nonzero = _nonzero(ctx, cw.elems)
    route = _pick_route(ctx, j_limit, len(nonzero))
    fail = None
    if not refused and len(nonzero) and j_limit:
        fail = _first_failure(ctx, nonzero, j_limit, route)
    member = not refused and fail is None
    weight = len(cw.elems)
    return Verdict(
        member=member,
        weight=weight,
        claimed_distance=d,
        is_min_weight=member and weight == d,
        failing_syndrome=fail,
        route=route,
    )
