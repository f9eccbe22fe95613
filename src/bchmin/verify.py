"""Independent certification of claimed codeword supports via power sums.

A support S certifies membership through its syndromes p_j = sum of x^j
over the nonzero support elements: an extended claim eBCH(d) (d even) needs
even |S| and p_j = 0 for j = 1..L with L = d-2.  Since p_2j is always p_j
squared, only odd j are scanned.  `is_min_weight` decides a punctured claim
BCH(d) (d odd, 0 outside S) as the extended claim at d + 1 on S with 0
added when |S| is odd and on S otherwise, keeping its weight and d
(MacWilliams and Sloane, ch. 1, sec. 9); one that holds 0 is refused, with
no syndrome.

A claim is decided in one order: parity, then p_1 alone, the XOR of the
support, so a corrupted support is rejected there, and a claim decided by
either reports the route "scan"; only a claim that passes p_1 with L >= 3
has its route priced.  Two routes then reach the same verdict.  The scan
evaluates p_j at the leader (least member, always odd) of each
2-cyclotomic coset meeting [3, L], in ascending order, so it stops at the
first nonzero p_j whatever L is; with log tables, a block of leaders goes
in one 2-D gather of alpha^(j log x) of at most 2^14 (leader, element)
pairs (one leader at least), and the first nonzero p_j of the block, in
ascending leader order, is the first failure.  The leaders of [3, L] for
L < 4096 are kept per (m, L), at most 2048 of them.  The check route packs
c(X) = sum of X^log(x) over the nonzero support and tests c(X) h(X) = 0
mod X^n - 1, where h is the check polynomial of the cyclic code with zeros
alpha^j, j in [1, L], a product over the leaders in (L, n) of minimal
polynomials read off the log tables.  The product c h is a shift-XOR when
one operand has few terms and blocked float64 FFTs with a checked rounding
otherwise (`_polymul`), so the check wins when that code has small
dimension k, and also for dense h when |S| and L are both large.  The
cheaper route is picked from (n, L, |S|) alone, by counting the leaders in
[1, L] and their coset sizes; the check is charged for building h too.
The scan, the check polynomial and that count share one enumeration of the
leaders, `_coset_leaders`.  The gather scan and the check need discrete
logs, so they exist only on fields with log tables (`GF2m.has_logs`), and
at m = 21..24, where the tables are built on first use, each is charged
for building them, built or not.  Without tables the scan is the power
walk (`_walk`): the odd powers x^j of the whole support, as numpy uint64
products, in blocks of about sqrt(L / 2) exponents that the next block
steps by one product; it is the only route on fields with m > 24, and
competes with the other two at m = 21..24, where it reports the route
"scan" too.

A third route, `is_min_weight_affine`, certifies an extended claim given
as S = X + V, V = span(B) of dimension k and q = 2^k, without a syndrome
of S.  That the support it is handed is X + V is checked by building
X + V by XOR doubling (X, then each half so far XORed with the next basis
vector into the next half), sorting it and comparing it with the support,
itself sorted first unless it already ascends.  The subspace polynomial
A_V = prod over v in V of (T + v) is GF(2)-linear with kernel V and
coefficient a_0 != 0 of T (Ore 1933; Lidl and Niederreiter, Finite
Fields, ch. 3), and the logarithmic derivative
gives sum over s in S of 1/(T + s) = a_0 sum over y in Y of 1/(A_V(T) + y)
for Y = A_V(X).  Expanding both sides in 1/T: if E is the first e >= 0
with p_e(Y) != 0 (p_0 the parity of |Y|), the first nonzero power sum of S
is p_J(S) = a_0 p_E(Y) at J = q(E + 1) - 1.  So when |Y| = |X|, S lies in
eBCH(d) iff Y lies in eBCH(d / q), Kasami and Lin's down-conversion (IEEE
Trans. IT, 1972) as an iff, and a failure of Y maps back to S exactly.
For the paper's supports d / q = |X| is 6, 28 or 120.

`is_min_weight` takes that route for a plain support too, when the cost
rule prices it below the scan and the check: it searches the translation
stabilizer {v : S + v = S} of S, a subspace, for a basis B
(`_stabilizer`).  Every v in it lies in S + s_0; those candidates are kept
only if they move _PROBES elements of S into S, and a kept one, reduced by
the basis so far, is checked on one element x of each coset of span(B) in
S: x + v in S for all of them.  A failed check names an x with x + v
outside S, which filters the candidates again, and the search stops after
2m failed checks.  Successes halve the elements checked, so the search
makes at most (_PROBES + 2 + 4m) |S| lookups, and is priced at
(_PROBES + m) |S|.  A lookup asks whether an element lies in S: by one
gather from a table of 2^m booleans filled from S once per search, on
fields with m <= 16, and by a sorted search of S above (`_membership`).
With B found, X is the elements of S whose bits at the top bits of B are
0, and the affine route certifies (X, B, d, S), re-checking
S = X + span(B) itself; a claim whose search finds no B takes the scan or
the check, whichever is cheaper.  The affine route's own check of Y never
searches.

This module deliberately shares nothing with the construction code beyond
field arithmetic: it consumes plain element arrays (anything with ctx,
claimed_distance, extended attributes and elems, the sorted distinct
support elements as a np.uint64 array), or X as such an array and B as
plain ints, and applies its own A_V to X.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd, log2

import numpy as np

# Measured costs (medians over the larger m = 12..16 acceptance supports):
# one table gather of the scan, i.e. one support element at one
# representative; one 64-bit word of the denser operand per term of the
# sparser one in a shift-XOR product; one transform of the FFT product with
# its rounding, and one block pair's spectrum product; one coset leader of
# the check polynomial built.  Only their ratios matter.  The scan's
# 7.2 ns is the reference; the others were measured in the same runs (the
# FFT transform by a relative least-squares fit over those supports and
# random operands of 1..64 blocks, the pair product alone) and scaled by
# 7.2 ns over the scan's 14.5 ns there.
_SCAN_NS_PER_GATHER = 7.2
_SHIFT_XOR_NS_PER_WORD = 3.1
_FFT_NS_PER_TRANSFORM = 300e3
_FFT_NS_PER_PAIR = 24e3
_CHECK_POLY_NS_PER_LEADER = 13.4e3
# Measured later on a 2-vCPU Xeon, where the scan's gather took 7.8 ns, and
# scaled by 7.2 / 7.8: one lookup of the stabilizer search as a sorted
# search (a search, a gather and a compare per element; 35-55 ns at
# 256..10^6 points).  The table lookup (an XOR, a gather and a compress)
# takes 2-6 ns, and the whole search about 13 ns per priced lookup on the
# m = 10..16 acceptance supports, but the price stays the sorted one's: at
# 13 ns (10, 2, 0) would leave the check, 8x faster than the search once its
# check polynomial is cached, and (16, 2..3, 1) would leave a check 6-10x
# slower than the search; which to favour is a decision on the cached h.
_LOOKUP_NS = 40
# Measured on a 2-vCPU x86-64 host where the scan's gather took 4.7-5.5 ns
# (m = 16, 255..4,095 points), and scaled by 7.2 / 5.1.  One element and
# odd j of the blocked power walk (`_walk`, full walks of members at
# m = 24..32): 57-61 ns at 511 and 2,047 points, 81-94 ns at 127, so
# 82-134 scaled; 90 is kept, since any value in (89.2, 90] leaves every
# route at m > 24 as it was.  One entry of the log tables built at
# m = 21..24 in a fresh process, in one thread (`GF2m._build_tables`): 14-20
# ns (median 17 at m = 24; 24-30 in a slower spell of the same host), so
# 20-28 scaled; 22 is kept, so no route moves (a re-fit is direction 7 of
# the ROADMAP).
_WALK_NS_PER_ELEMENT = 90
_TABLE_NS_PER_ENTRY = 22

# The stabilizer search tries every candidate on this many elements of S
# before any full check.
_PROBES = 4
# It tests membership in S by one gather from a table of 2^m booleans when
# m is at most _TABLE_MAX_M (64 KiB, whose fill costs a few us even for a
# four-point S), and otherwise by a sorted search, the only test that fits
# a small claim at m = 32.
_TABLE_MAX_M = 16

# One gather of the scan takes at most this many (leader, element) pairs,
# so its int64 temporaries take 128 KB (at 2^16 pairs, the scan of 3,072
# points at m = 16 ran 36 ms, against 21 ms here and 25-30 ms one leader
# per gather); the leaders of [3, L] for L below _CACHED_LEADERS are kept
# per (m, L).
_GATHER_PAIRS = 1 << 14
_CACHED_LEADERS = 1 << 12
# One block of the power walk holds at most this many powers (64 KB).
_WALK_ELEMENTS = 1 << 13

# The FFT product cuts both operands into blocks of _BLOCK coefficients, so
# every block product has under _FFT_LEN coefficients and every transform
# that length; a rounded coefficient whose residue reaches _MAX_RESIDUE is
# not trusted, and its block is recomputed by shift-XOR.
_BLOCK = 1 << 14
_FFT_LEN = 2 * _BLOCK
_MAX_RESIDUE = 0.25


@dataclass(frozen=True)
class Verdict:
    member: bool
    weight: int
    claimed_distance: int
    is_min_weight: bool
    failing_syndrome: tuple[int, int] | None
    # the route that ran: "scan" (also for a claim decided by parity or p_1,
    # and for the power walk without log tables) or "check"; "affine": the
    # claim was X + span(B), certified through Y = A_V(X) (Kasami and Lin,
    # 1972; Lidl and Niederreiter, Finite Fields, ch. 3; see the module text)
    route: str


def designed_distance(m: int, s: int, i: int) -> int:
    """The designed-distance family 2^(m-1-s) - 2^(m-1-i-s)."""
    if m < 2 or not 0 <= i <= m // 2 or not 0 <= s <= m - 2 * i:
        raise ValueError(f"bad parameters m={m}, s={s}, i={i}")
    return ((1 << (m - s)) - (1 << (m - i - s))) >> 1  # 0 at i = 0, s = m


def _times(ctx, rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row of the 2-D uint64 array rows times y, elementwise."""
    ys = y if len(rows) == 1 else np.tile(y, len(rows))
    return ctx.mul_array(rows.ravel(), ys).reshape(rows.shape)


def _odd_power_sums(ctx, x: np.ndarray, j_limit: int):
    """Yield (lo, p) for consecutive blocks of odd exponents from lo = 1 on,
    with p[t] the XOR of x^(lo + 2t) over the uint64 elements x.  A block
    holds its powers as r rows, r a power of two near sqrt(L / 2), so about
    as many blocks as rows reach L, and r |x| <= _WALK_ELEMENTS (one row at
    least); the next block is this one times x^(2r), one array product.  The
    first block is built by doubling: rows x^(2t + 1), t < h, times x^(2h)
    are the rows t + h.  At r = 1, L < 6, this is the walk by x^2, one odd
    j per product."""
    rows = 1 << round(log2(max(1, j_limit // 2)) / 2)
    rows = min(rows, 1 << (max(1, _WALK_ELEMENTS // len(x)).bit_length() - 1))
    block, step = x[None, :], ctx.mul_array(x, x)  # step = x^(2 len(block))
    while len(block) < rows:
        block = np.concatenate((block, _times(ctx, block, step)))
        step = ctx.mul_array(step, step)
    lo = 1
    while True:
        yield lo, np.bitwise_xor.reduce(block, axis=1)
        block, lo = _times(ctx, block, step), lo + 2 * len(block)


def power_sums(cw, j_max: int) -> list[int]:
    """[p_1, ..., p_j_max] with p_j the sum of x^j over nonzero x in the
    support: the odd p_j from the blocked walk `_odd_power_sums`, on any
    field, and each even one p_(j/2) squared."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    ctx, nonzero = cw.ctx, cw.elems[cw.elems != 0]
    if not len(nonzero):
        return [0] * j_max
    p, odd = [0], []
    for _, block in _odd_power_sums(ctx, nonzero, j_max):
        odd += block.tolist()
        if 2 * len(odd) >= j_max:
            break
    for j in range(1, j_max + 1):
        p.append(odd[j // 2] if j % 2 else ctx.mul(p[j // 2], p[j // 2]))
    return p[1:]


def _coset_leaders(m: int, lo: int, hi: int):
    """Yield, as ascending int64 blocks, the leaders of the 2-cyclotomic
    cosets mod n = 2^m - 1 in [lo, hi): the j equal to the least of their m
    rotations, 2j mod n being j rotated left in m bits (int64 holds the
    shifted j for every m <= 32).  A leader is odd, since an even j has j / 2
    in its coset, and below 2^(m-1), since a larger j has 2j - n; a coset
    meets [1, L] iff its leader does.  Blocks grow from 64 odd j, so a scan
    to L >= _CACHED_LEADERS that fails early builds one small block; up to
    2048 odd j, whose m - 1 rotations take under 0.5 MB (larger blocks
    measured slower).  A scan to a smaller L reads its leaders from
    `_leaders` instead."""
    n, size, t = (1 << m) - 1, 64, np.arange(1, m)[:, None]
    lo, hi = lo | 1, min(hi, 1 << (m - 1))
    while lo < hi:
        j = np.arange(lo, min(lo + 2 * size, hi), 2, dtype=np.int64)
        rot = ((j << t) | (j >> (m - t))) & n  # row t - 1 holds 2^t j mod n
        yield j[rot.min(axis=0) >= j]
        lo, size = lo + 2 * size, min(2 * size, 2048)


def _coset_sizes(m: int, lead: np.ndarray) -> np.ndarray:
    """The size of the 2-cyclotomic coset of each j in lead: the least t | m
    with j (2^t - 1) = 0 mod n."""
    n, size = (1 << m) - 1, np.full(len(lead), m)
    for t in range(m // 2, 0, -1):
        if m % t == 0:
            size[lead * ((1 << t) - 1) % n == 0] = t
    return size


@lru_cache(maxsize=None)
def _necklaces(m: int) -> int:
    """Binary necklaces of length m: (1/m) sum over d | m of phi(d) 2^(m/d)."""
    phi = [sum(gcd(a, d) == 1 for a in range(d)) for d in range(m + 1)]
    return sum(phi[d] << (m // d) for d in range(1, m + 1) if m % d == 0) // m


@lru_cache(maxsize=512)
def _coset_counts(n: int, j_limit: int) -> tuple[int, int]:
    """(number of coset leaders in [1, j_limit], code dimension k) for the
    cost rule: k is n less the sizes of the 2-cyclotomic cosets meeting
    [1, j_limit], the zeros of the code.  Every leader lies below 2^(m-1),
    and every nonzero coset has one: one per binary necklace of length m
    but the all-0 and all-1 ones, which both stand for 0, leaving k = 1 with
    all of them zeros.  The leaders are enumerated on the shorter side of
    j_limit: [1, j_limit] below 2^(m-2), else (j_limit, 2^(m-1)), taken
    from all of them.  Two ints per key, so a stream of claims keeps the
    cache small."""
    m = n.bit_length()
    top = 1 << (m - 1)
    if j_limit < top >> 1:
        reps, k, sign, lo, hi = 0, n, 1, 1, j_limit + 1
    else:
        reps, k, sign, lo, hi = _necklaces(m) - 2, 1, -1, j_limit + 1, top
    for lead in _coset_leaders(m, lo, hi):
        reps, k = reps + sign * len(lead), k - sign * int(_coset_sizes(m, lead).sum())
    return reps, k


@lru_cache(maxsize=256)
def _leaders(m: int, j_limit: int) -> np.ndarray:
    """The coset leaders in [3, j_limit] as one read-only int64 array, for
    j_limit below _CACHED_LEADERS, so at most 2,048 of them: the scan past
    p_1 of every claim at (m, j_limit) after the first reads them here."""
    lead = np.concatenate([np.empty(0, np.int64), *_coset_leaders(m, 3, j_limit + 1)])
    lead.flags.writeable = False
    return lead


def _shift_xor_ns(terms: int, dense_len: int) -> float:
    """Estimated time of a shift-XOR product whose sparser operand has
    `terms` terms: one pass over the dense_len coefficients of the other
    operand each."""
    return terms * -(-dense_len // 64) * _SHIFT_XOR_NS_PER_WORD


def _fft_ns(len_a: int, len_b: int) -> float:
    """Estimated time of the FFT product of operands of len_a and len_b
    coefficients: per strip, one transform per block of each operand and
    one inverse per output block; one spectrum product per pair of
    blocks."""
    nb, na = sorted(max(1, -(-x // _BLOCK)) for x in (len_a, len_b))
    strips = -(-nb // _strip_width(na, nb))
    transforms = 2 * strips * na + 2 * nb - strips
    return transforms * _FFT_NS_PER_TRANSFORM + na * nb * _FFT_NS_PER_PAIR


def _pick_route(ctx, j_limit: int, size: int, searchable: bool) -> str:
    """The cheapest route for a claim that passed p_1 with L >= 3, from
    (n, L, |S|) alone.  The scan ("scan") is one gather per leader and
    element, and needs log tables; the power walk ("walk", the scan without
    them) one array product per odd j and element, on fields whose tables
    are not built with the field.  The check is priced as the cheaper
    product of c (|S| terms, n coefficients) and h (k + 1 coefficients,
    about half of them terms), plus building h from the leaders above L: h
    is cached per (field, L), but a route that depended on the cache would
    differ between two calls on one claim.  For the same reason the scan
    and the check at m = 21..24 are always charged for building the log
    tables, built or not.  The scan and the walk are priced to min(L, w)
    for the w = |S| nonzero points: w distinct nonzero points cannot give
    p_1 = ... = p_w = 0, since the matrix (x^j), j <= w, is a Vandermonde
    matrix times a diagonal one, both nonsingular, so a claim with w <= L
    fails at a leader j <= w.  A searchable claim may take "affine", the
    stabilizer search priced at (_PROBES + m) |S| lookups; ties go to the
    scan, then the check, then the walk."""
    costs, reach = {}, min(j_limit, size)
    if ctx.has_logs:
        n = ctx.n
        reps, k = _coset_counts(n, j_limit)
        tables_ns = n * _TABLE_NS_PER_ENTRY if ctx.lazy_logs else 0
        build_ns = (_necklaces(ctx.m) - 2 - reps) * _CHECK_POLY_NS_PER_LEADER
        if size <= k // 2 + 1:  # c is the sparser operand
            terms, dense_len = size, k + 1
        else:
            terms, dense_len = k // 2 + 1, n
        costs["scan"] = tables_ns + (_coset_counts(n, reach)[0] - 1) * size * _SCAN_NS_PER_GATHER
        costs["check"] = tables_ns + build_ns + min(_shift_xor_ns(terms, dense_len), _fft_ns(n, k + 1))
    if not ctx.has_logs or ctx.lazy_logs:
        costs["walk"] = reach // 2 * size * _WALK_NS_PER_ELEMENT
    if searchable:
        costs["affine"] = (_PROBES + ctx.m) * size * _LOOKUP_NS
    return min(costs, key=costs.get)


def _scan(ctx, logs, blocks) -> tuple[int, int] | None:
    """First (j, p_j) with p_j != 0 over the ascending j of the int64 arrays
    blocks, or None, for the support's nonzero discrete logs: up to
    _GATHER_PAIRS // |S| leaders (one at least) go in one 2-D gather of
    alpha^(j log x) and one XOR-reduce along its rows, and the first nonzero
    row is the first failure."""
    n, exp = ctx.n, ctx.exp_array()
    rows = max(1, _GATHER_PAIRS // len(logs))
    for block in blocks:
        for lo in range(0, len(block), rows):
            js = block[lo:lo + rows]
            p = np.bitwise_xor.reduce(exp[js[:, None] * logs % n], axis=1)
            if len(hit := np.flatnonzero(p)):
                return int(js[hit[0]]), int(p[hit[0]])
    return None


def _walk(ctx, x, blocks, j_limit: int) -> tuple[int, int] | None:
    """`_scan` without log tables, on the nonzero uint64 elements x: p_j of
    every odd j comes from `_odd_power_sums` block by block, and each block
    of leaders is read off them, so the walk stops at the block holding the
    first failure.  Its blocks are sized for min(L, |x|), the last leader
    it can reach (see `_pick_route`)."""
    sums = _odd_power_sums(ctx, x, min(j_limit, len(x)))
    lo, p = 1, np.empty(0, dtype=np.uint64)  # p[t] = p_(lo + 2t)
    for lead in blocks:
        while len(lead):
            while lead[0] >= lo + 2 * len(p):
                lo, p = next(sums)
            part = lead[lead < lo + 2 * len(p)]
            vals = p[(part - lo) // 2]
            if len(hit := np.flatnonzero(vals)):
                return int(part[hit[0]]), int(vals[hit[0]])
            lead = lead[len(part):]
    return None


# -- products in GF(2)[X], packed into ints (bit t is the coefficient of X^t) ----


def _shift_xor_mul(a: int, b: int) -> int:
    """a b as the XOR of the denser operand shifted to each term of the
    sparser one."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    bits, acc = bin(a)[:1:-1], 0
    t = bits.find("1")
    while t >= 0:
        acc ^= b << t
        t = bits.find("1", t + 1)
    return acc


def _coefficients(x: int, blocks: int) -> np.ndarray:
    """The coefficients of x as a blocks x _BLOCK array of 0/1 bytes."""
    raw = np.frombuffer(x.to_bytes(blocks * _BLOCK // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").reshape(blocks, _BLOCK)


def _strip_width(na: int, nb: int) -> int:
    """Blocks of the shorter operand per strip of the FFT product: at most
    (na + nb) / 4, so the spectra a strip holds (two per block) take no
    more memory than the product's coefficients as float64."""
    return max(1, (na + nb) // 4)


def _fft_mul(a: int, b: int) -> int:
    """a b by float64 FFTs of length _FFT_LEN (Brent, Gaudry, Thome and
    Zimmermann, "Faster multiplication in GF(2)[x]", ANTS 2008), with a
    the longer operand.  b is taken in strips of `_strip_width` blocks, which
    bounds the spectra held at once; a is transformed again for each strip.
    Within a strip, block i of a times block j of b lands in output block
    i + j: output block q sums those products as spectra, and is
    transformed back once complete, which is after block q of a.  Its
    integer coefficients are rounded; if any residue reaches _MAX_RESIDUE,
    the block is recomputed exactly by shift-XOR.  Each coefficient is then
    reduced mod 2, and the overlapping halves of adjacent output blocks are
    XORed."""
    if a.bit_length() < b.bit_length():
        a, b = b, a
    na, nb = (max(1, -(-x.bit_length() // _BLOCK)) for x in (a, b))
    a_blocks, b_blocks = _coefficients(a, na), _coefficients(b, nb)
    width = _strip_width(na, nb)
    padded, coef = np.zeros(_FFT_LEN), np.empty(_FFT_LEN)
    spectra = np.empty((min(width, nb), _FFT_LEN // 2 + 1), dtype=complex)
    acc = np.zeros_like(spectra)  # row q mod g collects output block lo + q
    out = np.zeros((na + nb) * _BLOCK, dtype=np.uint8)
    mask = (1 << _BLOCK) - 1
    for lo in range(0, nb, width):
        g = min(width, nb - lo)
        for j, block in enumerate(b_blocks[lo:lo + g]):
            padded[:_BLOCK] = block
            spectra[j] = np.fft.rfft(padded)
        for q in range(na + g - 1):
            if q < na:
                padded[:_BLOCK] = a_blocks[q]
                spectrum = np.fft.rfft(padded)
                for j in range(g):
                    acc[(q + j) % g] += spectrum * spectra[j]
                del spectrum  # hold at most one transform of a at a time
            value = np.fft.irfft(acc[q % g], _FFT_LEN)
            acc[q % g] = 0
            value -= np.rint(value, out=coef)
            if max(value.max(), -value.min()) < _MAX_RESIDUE:
                parity = coef.astype(np.uint32).astype(np.uint8) & 1  # coef <= 2^14 g
            else:
                exact = 0
                for i in range(max(0, q - g + 1), min(q, na - 1) + 1):
                    exact ^= _shift_xor_mul(
                        (a >> (i * _BLOCK)) & mask, (b >> ((lo + q - i) * _BLOCK)) & mask
                    )
                parity = _coefficients(exact, 2).ravel()
            out[(lo + q) * _BLOCK:(lo + q + 2) * _BLOCK] ^= parity
            del value, parity
    return int.from_bytes(np.packbits(out, bitorder="little").tobytes(), "little")


def _polymul(a: int, b: int) -> int:
    """a b in GF(2)[X]: by shift-XOR or by FFT, whichever is estimated
    cheaper."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    if _shift_xor_ns(a.bit_count(), b.bit_length()) <= _fft_ns(a.bit_length(), b.bit_length()):
        return _shift_xor_mul(a, b)
    return _fft_mul(a, b)


def _min_polys(ctx, lead: np.ndarray) -> np.ndarray:
    """Minimal polynomials over GF(2) of beta = alpha^r for the coset
    leaders r in lead, packed as int64: the product of (X + beta^(2^t))
    over the coset of r, computed in GF(2^m)[X] through the log and exp
    tables for all leaders with one coset size at once (one row per leader,
    one column per coefficient)."""
    n, exp, log = ctx.n, ctx.exp_array(), ctx.log_array()
    sizes, packed = _coset_sizes(ctx.m, lead), np.empty(len(lead), dtype=np.int64)
    for size in (t for t in range(1, ctx.m + 1) if ctx.m % t == 0):
        root = lead[sizes == size]  # log of beta^(2^t) at step t
        if not len(root):
            continue
        poly = np.zeros((len(root), size + 1), dtype=exp.dtype)
        poly[:, 0] = 1
        for t in range(size):  # poly (X + beta^(2^t)), poly of degree t
            low = poly[:, :t + 1]
            times_root = np.where(low != 0, exp[(log[low] + root[:, None]) % n], 0)
            poly[:, 1:t + 2] = low.copy()  # low is a view of these columns
            poly[:, 0] = 0
            poly[:, :t + 1] ^= times_root
            root = root * 2 % n
        assert ((poly >> 1) == 0).all(), "minimal polynomial outside GF(2)[X]"
        packed[sizes == size] = (poly.astype(np.int64) << np.arange(size + 1)).sum(axis=1)
    return packed


def _check_poly(ctx, j_limit: int) -> int:
    """The check polynomial h(X) = (X + 1) * prod M_r(X) over the cosets
    whose minimum exceeds j_limit, packed; derived from the field and
    j_limit alone, and cached per (field, j_limit) under a weak reference,
    so the cache keeps no field alive."""
    return _check_poly_cached(weakref.ref(ctx), j_limit)


@lru_cache(maxsize=256)
def _check_poly_cached(field_ref, j_limit: int) -> int:
    """The product of the minimal polynomials, by a product tree: each level
    multiplies neighbours, so the operands of a level have about equal
    degree and the large ones go to the FFT product."""
    ctx = field_ref()
    factors = [0b11]
    for lead in _coset_leaders(ctx.m, j_limit + 1, ctx.n):
        factors += _min_polys(ctx, lead).tolist()
    while len(factors) > 1:
        paired = [_polymul(a, b) for a, b in zip(factors[::2], factors[1::2])]
        factors = paired + factors[len(paired) * 2:]
    return factors[0]


def _in_code(ctx, nonzero, j_limit: int) -> bool:
    """c(X) h(X) = 0 mod X^n - 1 for c(X) = sum of X^log(x)."""
    n = ctx.n
    bits = np.zeros(n, dtype=np.uint8)
    bits[nonzero] = 1
    c = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    acc = _polymul(c, _check_poly(ctx, j_limit))
    return acc & ((1 << n) - 1) == acc >> n


def _first_failure(ctx, nonzero, j_limit: int, route: str) -> tuple[int, int] | None:
    """First (j, p_j) with p_j != 0 over the coset leaders j in [3, j_limit],
    ascending, or None, for the nonzero uint64 support elements of a claim
    whose p_1 is 0; p_(2j mod n) = p_j^2, so the range vanishes iff one
    leader per 2-cyclotomic coset does.  The walk route walks the powers;
    the others gather the discrete logs from the log tables, which they
    build at m = 21..24 as they are priced to: the check route tests the check
    polynomial, and the scan (on the scan route, or after a check rejection
    to name its first failing syndrome) walks the leaders block by block,
    so it stops early whatever j_limit is: one cached array below
    _CACHED_LEADERS, `_coset_leaders` blocks from there."""
    if j_limit < _CACHED_LEADERS:
        blocks = (_leaders(ctx.m, j_limit),)
    else:
        blocks = _coset_leaders(ctx.m, 3, j_limit + 1)
    if route == "walk":
        return _walk(ctx, nonzero, blocks, j_limit)
    logs = ctx.log_array()[nonzero].astype(np.int64)  # the tables the route is charged for
    if route == "check" and _in_code(ctx, logs, j_limit):
        return None
    fail = _scan(ctx, logs, blocks)
    if fail is None and route == "check":
        raise RuntimeError("check polynomial and syndrome scan disagree")
    return fail


def is_min_weight(cw) -> Verdict:
    """Certify the support as a minimum-weight codeword: membership plus
    weight exactly equal to the claimed designed distance.  The one place
    that maps a punctured claim to the extended one (see the module text);
    the verdict keeps the punctured weight and d.  Elements outside the
    field raise ValueError."""
    ctx, d, elems = cw.ctx, cw.claimed_distance, cw.elems
    if not 2 <= d <= ctx.n + 1:
        raise ValueError(f"claimed distance must be in 2..{ctx.n + 1}, got {d}")
    if len(elems) and int(elems.max()) >> ctx.m:
        raise ValueError(f"support elements must lie in GF(2^{ctx.m})")
    if cw.extended:
        if d % 2:
            raise ValueError(f"extended claim needs even d, got {d}")
        return _verdict(ctx, elems, d, search=True)
    if d % 2 == 0:
        raise ValueError(f"punctured claim needs odd d, got {d}")
    if 0 in elems:
        return Verdict(False, len(elems), d, False, None, "scan")
    extended = np.concatenate((np.zeros(1, np.uint64), elems)) if len(elems) % 2 else elems
    weight, verdict = len(elems), _verdict(ctx, extended, d + 1, search=True)
    is_min = verdict.member and weight == d
    return replace(verdict, weight=weight, claimed_distance=d, is_min_weight=is_min)


def _verdict(ctx, elems, d: int, search: bool) -> Verdict:
    """The verdict on the extended claim (elems, d), d even in 2..n + 1, in
    one order: parity, then p_1 alone, then, for a claim that passes with
    L = d - 2 >= 3, the route the cost rule picks, the stabilizer search
    among them only if search is set; the walk is reported as "scan"."""
    j_limit, nonzero, route, fail = d - 2, elems[elems != 0], "scan", None
    member = len(elems) % 2 == 0
    if member and j_limit and len(nonzero):
        if p_1 := int(np.bitwise_xor.reduce(nonzero)):
            fail = (1, p_1)
        elif j_limit >= 3:
            route = _pick_route(ctx, j_limit, len(nonzero), search)
            if route == "affine":
                basis, x_set = _stabilizer(elems, ctx.m)
                if basis:
                    return is_min_weight_affine(ctx, x_set, basis, d, elems)
                route = _pick_route(ctx, j_limit, len(nonzero), False)
            fail = _first_failure(ctx, nonzero, j_limit, route)
        member = fail is None
    route = "scan" if route == "walk" else route
    return Verdict(member, len(elems), d, member and len(elems) == d, fail, route)


def _membership(s: np.ndarray, m: int):
    """A test of whether each element of a uint64 array of GF(2^m) lies in
    the sorted distinct uint64 elements s of that field: one gather from a
    boolean table of 2^m entries filled from s, at m <= _TABLE_MAX_M; a
    sorted search of s above."""
    if m > _TABLE_MAX_M:
        return lambda y: s[np.minimum(np.searchsorted(s, y), len(s) - 1)] == y
    table = np.zeros(1 << m, dtype=bool)
    table[s.view(np.int64)] = True
    return lambda y: table[y.view(np.int64)]


def _witness(inside, x_set: np.ndarray, v):
    """The first x in x_set with x + v outside S, or None if there is none:
    the full check of a candidate v of the stabilizer search, with inside
    the membership test of S."""
    kept = inside(x_set ^ v)
    return None if kept.all() else x_set[np.argmin(kept)]


def _stabilizer(s: np.ndarray, m: int) -> tuple[list[int], np.ndarray]:
    """(B, X) for the sorted distinct uint64 elements s of GF(2^m), at least
    two: B a basis, with distinct top bits, of a subspace V of
    {v : S + v = S}, and X the elements of S whose bits at those top bits
    are 0, one per coset of V, so S = X + V.  V is the whole stabilizer
    unless 2m full checks failed first (see the module text)."""
    inside = _membership(s, m)
    cand = s[1:] ^ s[0]  # S + s_0, 0 left out
    for p in s[len(s) * np.arange(1, _PROBES + 1) // (_PROBES + 1)]:
        cand = cand[inside(cand ^ p)]
    basis, x_set, failed = [], s, 0
    while len(cand) and failed < 2 * m:
        v = cand[0]
        x = _witness(inside, x_set, v)
        if x is None:  # S + v lies in S, since S = X + span(basis)
            basis.append(int(v))
            top = np.uint64(1 << (int(v).bit_length() - 1))
            cand = np.where(cand & top, cand ^ v, cand)  # reduced by v: 0 when in the span
            cand = cand[cand != 0]
            x_set = x_set[(x_set & top) == 0]
        else:
            failed += 1
            cand = cand[inside(cand ^ x)]  # v goes, and every c with x + c outside S
    return basis, x_set


# -- the affine route: X + span(B) through the subspace polynomial of span(B) ---


def _subspace_image(ctx, x_set: np.ndarray, basis) -> tuple[np.ndarray, int]:
    """Y = A_V(X), sorted, for the uint64 array X = x_set, and the
    coefficient a_0 of T of A_V, the subspace polynomial of V = span(basis).
    From A = T, A <- A^2 + A(v) A = A (A + A(v)) for each basis vector v,
    on values, as `linearized.annihilator` does: the points of X and the
    basis vectors not yet used are kept as their images, so w = A(v) is
    read off and each kept c maps to c (c + w), a_0 to w a_0; w = 0 refuses
    v in the span so far, a dependent basis.  No basis leaves Y = X."""
    y, rest, a0 = x_set, list(basis), 1
    while rest:
        w = rest.pop(0)
        if not w:
            raise ValueError("the basis B is dependent")
        y = np.array([ctx.mul(c, c ^ w) for c in y.tolist()], dtype=np.uint64)
        rest = [ctx.mul(c, c ^ w) for c in rest]
        a0 = ctx.mul(a0, w)
    return np.sort(y), a0


def _spans(ctx, x_set: np.ndarray, basis, s: np.ndarray) -> bool:
    """Whether the distinct uint64 elements s are exactly X + span(B), for X
    with no two elements in one coset of span(B): X + span(B) is built by
    XOR doubling, one half at a time, sorted, and compared with s, sorted
    first unless it already ascends.  Elements outside the field raise
    ValueError."""
    if len(s) > 1 and not (s[1:] > s[:-1]).all():
        s = np.sort(s)
    if len(s) and s[-1] >> ctx.m:
        raise ValueError(f"support elements must lie in GF(2^{ctx.m})")
    if len(s) != len(x_set) << len(basis):
        return False
    sums, h = np.empty(len(s), dtype=np.uint64), len(x_set)
    sums[:h] = x_set
    for b in basis:
        np.bitwise_xor(sums[:h], np.uint64(b), out=sums[h:2 * h])
        h *= 2
    sums.sort()
    return bool((sums == s).all())


def is_min_weight_affine(ctx, x_set, basis, d: int, support) -> Verdict:
    """Certify the distinct elements `support` as S = X + span(B), for X =
    x_set, B = basis (ints), and support and X np.uint64 arrays, and as a
    minimum-weight codeword of eBCH(d) through Y = A_V(X) (see the module
    text): Y is checked by `is_min_weight` at the least even distance
    that covers ceil(d / q); at ceil(d / q) = 1 nothing is left to check.
    An empty B is q = 1: A_V = T, so Y = X, the support must be X itself,
    and Y is checked at d.  A failure of Y at (E, p_E) is reported as S's
    (q(E + 1) - 1, a_0 p_E), and odd |Y| as p_(q-1)(S) = a_0 when q > 1.
    A dependent B, two elements of X in one coset of span(B), elements
    outside the field and a support other than X + span(B) raise
    ValueError."""
    if d % 2 or not 2 <= d <= ctx.n + 1:
        raise ValueError(f"extended claim needs even d in 2..{ctx.n + 1}, got {d}")
    if (x_set >> ctx.m).any() or not all(0 <= b <= ctx.n for b in basis):
        raise ValueError(f"X and B must be elements of GF(2^{ctx.m})")
    y, a0 = _subspace_image(ctx, x_set, basis)
    if (y[1:] == y[:-1]).any():
        raise ValueError("two elements of X lie in one coset of span(B)")
    q = 1 << len(basis)
    if not _spans(ctx, x_set, basis, support):
        raise ValueError("support is not X + span(B)")
    member, fail, d_y = True, None, -(-d // q)
    if d_y >= 2:
        y_verdict = _verdict(ctx, y, d_y + d_y % 2, search=False)
        member = y_verdict.member
        if y_verdict.failing_syndrome is not None:
            e, p_e = y_verdict.failing_syndrome
            fail = (q * (e + 1) - 1, ctx.mul(a0, p_e))
        elif not member and q > 1:
            fail = (q - 1, a0)
    weight = len(x_set) * q
    return Verdict(
        member=member,
        weight=weight,
        claimed_distance=d,
        is_min_weight=member and weight == d,
        failing_syndrome=fail,
        route="affine",
    )
