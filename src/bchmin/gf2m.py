"""Arithmetic in GF(2^m): field construction, Frobenius, the absolute
trace and the trace masks of subfields, discrete logs.  Subfields and
equations over the field (cube roots, Artin-Schreier) are linearized
polynomials, in `linearized`.

Field elements are plain Python ints: bit k is the coefficient of alpha^k
in the polynomial basis {1, alpha, ..., alpha^(m-1)}, where alpha is the
residue class of X modulo the primitive polynomial.

Fields with m <= 20 build log/antilog tables at construction and multiply
through them.  At m = 21..24 the tables (2^m entries, 129 MB at m = 24) are
built on the first `exp_array` or `log_array` call, in the calling thread
(0.25-0.5 s at m = 24), and until then the field multiplies without them,
as every larger field does: a 4-bit windowed carry-less product, or for a
square one bit-spread lookup per byte, whose high m - 1 bits are folded
back with one lookup per byte into tables of (b X^(m+8k)) mod poly; the
inverse is the extended Euclidean algorithm on the polynomials themselves.
`mul_array` multiplies uint64 arrays elementwise for any m: a short array
by one shift-XOR per bit, a longer one by 16 integer products of
4-bit-spaced masks, then the same fold as one gather per byte.
`frobenius_array` and `linear_array` apply GF(2)-linear maps to such
arrays, one byte-table gather per byte.  Every byte table (the fold, the
multiplications by a constant that build the log tables, Frobenius and
`linear_array`) comes from `_linear_tables` of the map's columns.  `logs`
and `elems` take discrete logs and powers of alpha of whole arrays, from
the full tables once built, and for a small array at m = 21..24 through
two subgroups of about sqrt(2^m) elements each instead (Pohlig and
Hellman, IEEE Trans. IT, 1978).
"""

from __future__ import annotations

import threading
from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from math import prod
from typing import NamedTuple

import numpy as np


class UnsupportedDegree(ValueError):
    """Extension degree outside the supported range 2..32."""


# Built-in primitive polynomials, degree -> modulus (bit k = coeff of X^k).
_DEFAULT_POLYS = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
    17: 0x20009,
    18: 0x40081,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x4000047,
    27: 0x8000027,
    28: 0x10000009,
    29: 0x20000005,
    30: 0x40000053,
    31: 0x80000009,
    32: 0x1000000AF,
}

_LOG_TABLE_MAX_M = 24  # larger fields have no log tables: windowed arithmetic
_EAGER_TABLE_MAX_M = 20  # up to here tables come with the field (<= 25 ms, <= 8 MB)
_BLOCK = 1 << 16  # entries per row of the log tables; m <= 16 is one row
# Elements per block of `mul_array`: its largest transient, the 8 masked
# copies of b, takes 96 KB, under glibc's initial 128 KB mmap threshold, so
# no block pays fresh page faults.  In a fresh process over 2^16 random
# elements at m = 25, 28 and 32, the first call took 64-105 ns per element
# and the second 58-105; the shift-XOR kernel alone, in blocks of 1,024,
# took 219-530 and 100-226 ns.
_MUL_BLOCK = 1536
# `mul_array` shifts and XORs m rows up to this many elements in all (32 KB):
# fewer numpy calls than the 16 products, which are faster past it (in
# process at m = 17..32, the two met between 96 x 32 and 256 x 20).
_SHIFT_XOR_MAX = 4096
# The four 4-bit-spaced masks of `mul_array`, and the same four twice.
_MASKS = np.array([0x1111111111111111 << k for k in range(4)], dtype=np.uint64)[:, None]
_MASKS2 = np.concatenate((_MASKS, _MASKS))
# `logs` and `elems` take the subgroup path at m = 21..24 for arrays of up
# to 2^(m - _SUBGROUP_SHIFT) elements while the tables are unbuilt, and
# build the tables for longer ones: about where the two cost the same (the
# subgroup logs took 330-700 ns per element over 2^12..2^16 elements, the
# build 13-20 ns per table entry, in process on 2 vCPUs).
_SUBGROUP_SHIFT = 5

# _SPREAD[v] is the carry-less square of the byte v: its bits moved to the
# even positions, i.e. the binary digits of v read in base 4.
_SPREAD = tuple(int(bin(v)[2:], 4) for v in range(256))


def parse_poly(spec: int | str) -> int:
    """Parse a modulus given as an int, a hex string ("0x11D"), or a
    comma-separated exponent list ("8,4,3,2,0")."""
    if isinstance(spec, int):
        return spec
    s = spec.strip()
    if not s:
        raise ValueError("the modulus is empty")
    if s.lower().startswith("0x"):
        return int(s, 16)
    if "," in s:
        poly = 0
        for part in s.split(","):
            e = _int(part.strip(), 10, "exponent")
            if not 0 <= e <= 32:  # no supported modulus has a larger term
                raise ValueError(f"exponent {e} is outside 0..32")
            if poly >> e & 1:  # X^e + X^e cancels: no silent repair
                raise ValueError(f"exponent {e} is repeated")
            poly |= 1 << e
        return poly
    return _int(s, 0, "modulus")


def _quote(s: str) -> str:
    """s for a message, cut to its first 12 characters and "..." when
    longer: a refusal does not echo a value of unbounded length."""
    return s if len(s) <= 12 else s[:12] + "..."


def _int(s: str, base: int, what: str) -> int:
    """int(s, base), but a string of over 4300 digits (int()'s default limit
    in base 10) is refused by name: no modulus or exponent is that long."""
    if len(s) > 4300 and sum(map(str.isdigit, s)) > 4300:
        raise ValueError(f"{what} {s[:12]}... has over 4300 digits")
    return int(s, base)


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials packed into non-negative
    ints, by 4-bit windows: t[v] = a * v for the 16 polynomials v of degree
    below 4, then one shifted lookup per nibble of b (Lopez and Dahab,
    INDOCRYPT 2000)."""
    a2, a4, a8 = a << 1, a << 2, a << 3
    a3, a12 = a2 ^ a, a8 ^ a4
    t = (
        0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
        a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3,
    )
    acc = sh = 0
    while b:
        acc ^= t[b & 15] << sh
        b >>= 4
        sh += 4
    return acc


def _square(a: int) -> int:
    """Carry-less square of a polynomial of degree below 32: one spread
    lookup per byte, since squaring over GF(2) only spaces the bits out."""
    return (
        _SPREAD[a & 255]
        ^ _SPREAD[a >> 8 & 255] << 16
        ^ _SPREAD[a >> 16 & 255] << 32
        ^ _SPREAD[a >> 24] << 48
    )


# Row t holds bit t of each byte value 0..255, as 0/1 words.
_BYTE_BITS = (np.arange(256, dtype=np.uint64) >> np.arange(8, dtype=np.uint64)[:, None]) & 1


def _linear_tables(cols) -> np.ndarray:
    """Byte tables of the GF(2)-linear map with columns cols: row k, entry
    b, is the image of b << 8k, the XOR of the columns 8k + t over the set
    bits t of b."""
    padded = np.zeros(-(-len(cols) // 8) * 8, dtype=np.uint64)
    padded[:len(cols)] = cols
    return np.bitwise_xor.reduce(_BYTE_BITS * padded.reshape(-1, 8, 1), axis=1)


def _gather(tables: np.ndarray, idx, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The map of `_linear_tables` into out, on the elements whose byte k
    is idx[k] (an iterable, one index array per row): the XOR of the
    gathers, each after the first into tmp, of out's shape.  "wrap"
    gathers unbuffered; byte indices never wrap."""
    tables, idx = tables.astype(out.dtype, copy=False), iter(idx)
    np.take(tables[0], next(idx), out=out, mode="wrap")
    for tab, i in zip(tables[1:], idx):
        out ^= np.take(tab, i, out=tmp, mode="wrap")
    return out


def _apply_linear(tables: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The map of `_linear_tables` on the array x, into out (by default a
    new array like x): one gather per byte of x."""
    out = np.empty_like(x) if out is None else out
    idx = (x >> 8 * k & 0xFF for k in range(len(tables)))
    return _gather(tables, idx, out, np.empty_like(out))


def _factorize(x: int) -> list[int]:
    """Distinct prime factors by trial division; for 2^m - 1 with m <= 32
    any cofactor surviving division up to 2^16 + 1 is prime."""
    primes = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            primes.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        primes.append(x)
    return primes


def _subgroup_split(m: int) -> tuple[int, int]:
    """(n1, n2) with n1 n2 = n = 2^m - 1 and gcd(n1, n2) = 1: 2^(m/2) - 1
    and 2^(m/2) + 1 for even m, so that x^(n2) is x^(2^(m/2)) x; for odd m
    the most balanced split of the prime powers exactly dividing n, the
    larger part first, so x^(n2) has the smaller exponent.  (The lookups
    of `GF2m._subgroup_logs` need only n1 n2 = n.)"""
    n = (1 << m) - 1
    if m % 2 == 0:
        return (1 << m // 2) - 1, (1 << m // 2) + 1
    powers = []
    for p in _factorize(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        powers.append(q)
    splits = (prod(c) for r in range(len(powers) + 1) for c in combinations(powers, r))
    d = min(splits, key=lambda k: max(k, n // k))
    return max(d, n // d), min(d, n // d)


class _Subgroups(NamedTuple):
    """The tables of `GF2m._subgroup_logs` for n = n1 n2: alpha^j and
    alpha^(-j) for j < n1; the powers of g1 = alpha^(n2) sorted, and their
    exponents; the powers of g2 = alpha^(n1) in order and sorted, and the
    exponents of the sorted ones."""

    n1: int
    n2: int
    up: np.ndarray
    down: np.ndarray
    sorted1: np.ndarray
    log1: np.ndarray
    pow2: np.ndarray
    sorted2: np.ndarray
    log2: np.ndarray


class GF2m:
    """A concrete representation of GF(2^m) with a designated primitive
    element alpha (the class of X): arithmetic, Frobenius, the absolute
    trace, the trace masks of subfields and discrete logs.  `has_logs` is
    True iff m <= 24: the field then has log/antilog tables, from
    construction on for m <= 20, and at m = 21..24 (`lazy_logs`) from the
    first `exp_array` or `log_array` call on, which builds them once;
    `tables_built` says whether they exist yet.  For m > 24, `log`, `logs`,
    `elems`, `exp_array` and `log_array` raise RuntimeError.  Without
    built tables `mul` is a windowed carry-less product (a spread-table
    square when both operands are equal) reduced through the per-byte fold
    tables `_fold`, which every field builds from (m, poly), and `inv` is
    Euclid's.  `mul_array`, the elementwise product of uint64 arrays, folds
    through the same tables on every field.  Operands of `mul` are field
    elements, ints below 2^m; the CLI's parsers refuse anything else.

    Parameters
    ----------
    m : int
        Extension degree, 2 <= m <= 32.
    poly : int or str or None
        Primitive polynomial of degree m (see `parse_poly` for accepted
        forms).  Defaults to a built-in primitive polynomial for this m.
        It is accepted iff X has order exactly 2^m - 1 modulo poly, which
        one proof covers: X^(2^m - 1) = 1, and X^((2^m - 1)/p) != 1 for
        every prime p | 2^m - 1.  That order makes poly irreducible.

    Raises
    ------
    UnsupportedDegree
        m outside 2..32.
    ValueError
        poly does not parse, is negative or is not of degree m; or
        X^(2^m - 1) != 1, so poly is reducible; or X has order below
        2^m - 1.
    """

    def __init__(self, m: int, poly: int | str | None = None):
        if not 2 <= m <= 32:
            raise UnsupportedDegree(f"m must be in 2..32, got {_quote(str(m))}")
        if poly is None:
            poly = _DEFAULT_POLYS[m]
        else:
            poly = parse_poly(poly)
        if poly < 0:  # _clmul would never finish on a negative multiplier
            raise ValueError(f"modulus {_quote(hex(poly))} is negative")
        if poly.bit_length() != m + 1:
            raise ValueError(f"modulus {_quote(hex(poly))} does not have degree {m}")
        self.m = m
        self.poly = poly
        self.n = (1 << m) - 1
        self.alpha = 2
        # entry [k][b] is (b X^(m+8k)) mod poly, for the high m - 1 bits of
        # a product of two field elements; from (m, poly) alone
        self._fold = _linear_tables(self.alpha_steps(poly ^ (1 << m), 1, m - 1)).tolist()

        # poly is accepted iff X has order exactly n modulo it.  The n powers
        # of X are then n distinct units, so every nonzero residue is a unit
        # and poly is irreducible.  X^n = 1 modulo every irreducible poly.
        if self._pow_nontable(2, self.n) != 1:
            raise ValueError(f"{_quote(hex(poly))} is reducible over GF(2)")
        for p in _factorize(self.n):
            if self._pow_nontable(2, self.n // p) == 1:
                raise ValueError(f"X has order < 2^{m}-1 modulo {_quote(hex(poly))}")

        self._trace_mask = self.trace_mask(m)  # makes `trace` a masked parity

        self.has_logs = m <= _LOG_TABLE_MAX_M
        self.lazy_logs = _EAGER_TABLE_MAX_M < m <= _LOG_TABLE_MAX_M
        self._exp = self._log = None  # memoryviews of the tables once built
        self._tables_lock = threading.Lock()
        self._frobenius_tables: dict[int, np.ndarray] = {}  # k -> tables of x^(2^k)
        if self.has_logs and not self.lazy_logs:
            self._build_tables()

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, poly={hex(self.poly)})"

    # -- core arithmetic ----------------------------------------------------

    @property
    def tables_built(self) -> bool:
        """Whether the log/antilog tables exist (always for m <= 20)."""
        return self._log is not None

    def mul(self, a: int, b: int) -> int:
        """Field multiplication modulo the primitive polynomial; a and b are
        field elements, i.e. ints below 2^m."""
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            e = self._log[a] + self._log[b]
            if e >= self.n:
                e -= self.n
            return self._exp[e]
        return self._mul_free(a, b)

    def _mul_free(self, a: int, b: int) -> int:
        """a * b without log tables: the windowed product, or the spread
        square when a == b, then its high m - 1 bits folded back with one
        `_fold` lookup per byte."""
        p = _square(a) if a == b else _clmul(a, b)
        high = p >> self.m
        p &= self.n
        for tab in self._fold:
            p ^= tab[high & 255]
            high >>= 8
        return p

    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise a * b for 1-D uint64 arrays of field elements.  For
        short arrays, |a| m <= _SHIFT_XOR_MAX, the carry-less product is
        the XOR of b << t over the set bits t of a, in one m x |a| array
        (Lopez and Dahab, INDOCRYPT 2000).  Longer ones take 16 integer
        products, fewer operations per element: with a_i, b_i the bits of
        a, b at positions i mod 4 (`_MASKS`), the product a_i b_j has bits
        only at positions i + j mod 4, and each 4-bit group of it counts at
        most 8 pairs of bits for m <= 32, so no carry crosses a group; the
        XOR of the four products with i + j = c mod 4, kept at the
        positions c mod 4, is the carry-less product there (T. Pornin,
        BearSSL's bmul).  Either way the product's high m - 1 bits are
        folded back with one gather per byte from the `_fold` tables.
        Arrays past _MUL_BLOCK elements go in blocks of that many."""
        if len(a) > _MUL_BLOCK:
            return np.concatenate([
                self.mul_array(a[lo:lo + _MUL_BLOCK], b[lo:lo + _MUL_BLOCK])
                for lo in range(0, len(a), _MUL_BLOCK)
            ])
        bits, shifts, offsets, table = self._fold_arrays
        if len(a) * self.m <= _SHIFT_XOR_MAX:
            prod = np.bitwise_xor.reduce((b << bits) * ((a >> bits) & 1), axis=0)
        else:
            a_i, b_j = a & _MASKS, b & _MASKS2  # row j of b_j: b_(j mod 4)
            prod = a_i[0] * b_j[4:]  # row c collects a_i b_(c - i) for i = 0..3
            for i in (1, 2, 3):
                prod ^= a_i[i] * b_j[4 - i:8 - i]
            prod &= _MASKS
            prod = prod[0] | prod[1] | prod[2] | prod[3]
        high = prod >> self.m
        folded = table[((high >> shifts) & 0xFF) | offsets]  # entry 256k + byte k
        return (prod & self.n) ^ np.bitwise_xor.reduce(folded, axis=0)

    @cached_property
    def _fold_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Constants of `mul_array`: the bit shifts 0..m-1 and the byte
        shifts 8k of the high half of a product, as columns; the offsets
        256k; and the `_fold` tables as one flat array."""
        table = np.array(self._fold, dtype=np.uint64).ravel()
        shifts = np.arange(0, 8 * len(self._fold), 8, dtype=np.uint64)[:, None]
        return np.arange(self.m, dtype=np.uint64)[:, None], shifts, shifts << 5, table

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for 0.  With
        built log tables one lookup; without, the extended Euclidean algorithm
        in GF(2)[X] on u = a and v = poly (Hankerson, Menezes and
        Vanstone, Guide to Elliptic Curve Cryptography, Alg. 2.48): while
        u != 1, the one of higher degree loses its top term to the other
        shifted, and g1, g2 with g1 a = u, g2 a = v mod poly follow the
        same steps; their degrees stay below m, so g1 needs no reduction."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        if self._log is not None:
            return self.pow(a, -1)
        u, v, g1, g2 = a, self.poly, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def pow(self, a: int, e: int) -> int:
        """a^e with the exponent reduced mod 2^m - 1 for nonzero a."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 0
        e %= self.n
        if self._log is not None:
            return self._exp[(self._log[a] * e) % self.n]
        return self._pow_nontable(a, e)

    def _pow_nontable(self, a: int, e: int) -> int:
        """a^e for e >= 0, square-and-multiply from the top bit of e down:
        no product by 1 and no square past the last bit."""
        if e == 0:
            return 1
        r = a
        for bit in bin(e)[3:]:
            r = self._mul_free(r, r)
            if bit == "1":
                r = self._mul_free(r, a)
        return r

    # -- Frobenius, trace ---------------------------------------------------

    def frobenius(self, x: int, k: int = 1) -> int:
        """x^(2^(k mod m)); negative k inverts squaring."""
        k %= self.m
        for _ in range(k):
            x = self.mul(x, x)
        return x

    def frobenius_array(self, x: np.ndarray, k: int) -> np.ndarray:
        """x^(2^(k mod m)) elementwise for a uint64 array x of field
        elements: a GF(2)-linear map, one gather per byte of x from the
        `_linear_tables` kept per k.  Column t, the image of alpha^t, is
        g^t for g = alpha^(2^k): m - 1 scalar products."""
        k %= self.m
        tables = self._frobenius_tables.get(k)
        if tables is None:
            g = self.pow(self.alpha, 1 << k)
            cols = accumulate([g] * (self.m - 1), self.mul, initial=1)
            tables = self._frobenius_tables[k] = _linear_tables(list(cols))
        return _apply_linear(tables, x)

    def alpha_steps(self, v: int, t: int, count: int) -> list[int]:
        """v alpha^(t j) for j < count, each from the last by t shifts and
        reductions."""
        out = []
        for _ in range(count):
            out.append(v)
            for _ in range(t):
                v <<= 1
                if v >> self.m:
                    v ^= self.poly
        return out

    def linear_array(self, cols, x: np.ndarray) -> np.ndarray:
        """The GF(2)-linear map whose image of 2^t is cols[t] on the uint64
        array x of field elements, one gather per byte of x from byte
        tables built for this call."""
        return _apply_linear(_linear_tables(cols), x)

    def trace_mask(self, ell: int) -> int:
        """The mask whose parity with y is T(y) = y + y^2 + ... + y^(2^(ell-1))
        for y in the subfield GF(2^ell), ell | m, where T is the trace onto
        GF(2): bit k is bit 0 of T(alpha^k).  T is GF(2)-linear and takes
        only the values 0 and 1 there; ell = m gives the absolute trace."""
        mask = 0
        for k in range(self.m):
            t = cur = 1 << k
            for _ in range(ell - 1):
                cur = self._mul_free(cur, cur)
                t ^= cur
            mask |= (t & 1) << k
        return mask

    def trace(self, x: int) -> int:
        """Absolute trace GF(2^m) -> GF(2), as an int in {0, 1}."""
        return (x & self._trace_mask).bit_count() & 1

    # -- logs ---------------------------------------------------------------

    def _build_tables(self) -> None:
        """exp[k] = alpha^k for k < n and log[exp[k]] = k; log[0] is unused.
        Both are built in rows of w = min(n, _BLOCK) entries, one after
        another in the calling thread.  Row 0 of exp is `_powers` of alpha.
        Row q is alpha^(qw) times row 0, a GF(2)-linear map: one gather per
        byte of row 0 from the `_linear_tables` of the multiplication by
        alpha^(qw), into the row itself; the bytes of row 0 are indexed
        once, for rows 1.. only.
        Each row writes its own logs, log[row] = qw + j.  At m = 24 this
        takes 0.25-0.5 s in a fresh process on 2 vCPUs (0.16-0.5 s with the
        rows split over two threads, which no workload paid for).  Scalar
        arithmetic indexes zero-copy memoryviews of both tables."""
        n = self.n
        w = min(n, _BLOCK)
        exp = np.empty(n, dtype=np.uint32)
        log = np.zeros(n + 1, dtype=np.uint32)
        base = exp[:w] = self._powers(self.alpha, w, np.uint32)
        nbytes = -(-self.m // 8) if n > w else 0
        idx = [(base >> 8 * k & 0xFF).astype(np.intp) for k in range(nbytes)]
        tmp = np.empty(w, dtype=np.uint32)
        step = c = self._mul_free(int(base[-1]), 2)  # alpha^w
        for lo in range(0, n, w):
            row = exp[lo:lo + w]
            r = len(row)
            if lo:
                tables = _linear_tables(self.alpha_steps(c, 1, self.m))
                _gather(tables, [i[:r] for i in idx], row, tmp[:r])
                c = self._mul_free(c, step)
            log[row] = np.arange(lo, lo + r, dtype=np.uint32)
        # alpha has order n iff exp hits 1..n once each: an entry above n
        # raised in the scatter, and only k = 0 wrote a 0, to log[1]
        assert log[2:].all()
        self._exp_arr, self._log_arr = exp, log
        self._exp, self._log = memoryview(exp), memoryview(log)  # _log last: `mul` tests it

    def _powers(self, g: int, count: int, dtype=np.uint64) -> np.ndarray:
        """g^k for k < count, filled by doubling: x -> c x with c = g^size
        is GF(2)-linear, with columns c alpha^t, so each doubling is one
        gather per byte of x from the `_linear_tables` of that map."""
        out = np.empty(count, dtype=dtype)
        out[:1] = 1
        size = 1
        while size < count:
            top = min(size, count - size)
            c = self._mul_free(int(out[size - 1]), g)  # g^size
            tables = _linear_tables(self.alpha_steps(c, 1, self.m))
            _apply_linear(tables, out[:top], out[size:size + top])
            size += top
        return out

    def _require_tables(self) -> None:
        if not self.has_logs:
            raise RuntimeError(f"log tables are not built for m={self.m} > {_LOG_TABLE_MAX_M}")

    def _ensure_tables(self) -> None:
        """Build the tables on first use (m = 21..24), once: a second
        thread asking meanwhile waits for the first's."""
        self._require_tables()
        if self._log is None:
            with self._tables_lock:
                if self._log is None:
                    self._build_tables()

    def log(self, x: int) -> int:
        """Discrete log base alpha (m <= 24): one lookup once the tables
        are built, else `logs` of x alone, which builds nothing."""
        if x == 0:
            raise ValueError("discrete log of 0 requested")
        self._require_tables()
        if self._log is not None:
            return self._log[x]
        return int(self.logs(np.array([x], dtype=np.uint64))[0])

    def exp(self, e: int) -> int:
        """alpha^e."""
        return self.pow(self.alpha, e)

    def exp_array(self) -> np.ndarray:
        """Antilog table as a uint32 numpy array (m <= 24), built on the
        first call at m = 21..24; the stored table, not a copy."""
        self._ensure_tables()
        return self._exp_arr

    def log_array(self) -> np.ndarray:
        """Log table as a uint32 numpy array (m <= 24), built on the first
        call at m = 21..24; entry 0 is unused.  The stored table, not a
        copy."""
        self._ensure_tables()
        return self._log_arr

    def _subgroup_path(self, count: int) -> bool:
        """Whether `logs` or `elems` of count entries goes through the
        subgroups: the tables are unbuilt and count is at most
        2^(m - _SUBGROUP_SHIFT); a longer array builds the tables."""
        return self._log is None and count <= self.n >> _SUBGROUP_SHIFT

    def logs(self, elems: np.ndarray) -> np.ndarray:
        """Discrete logs base alpha of the array elems of nonzero field
        elements (m <= 24), as uint32: one gather from the log table, or
        `_subgroup_logs` (see `_subgroup_path`).  A 0 raises ValueError, as
        `log` does; an element past the field raises IndexError from the
        gather, or ValueError before the subgroup lookups."""
        self._require_tables()
        if not elems.all():
            raise ValueError("discrete log of 0 requested")
        if not self._subgroup_path(len(elems)):
            return self.log_array()[elems]
        if len(elems) and elems.max() > self.n:
            raise ValueError(f"elements must lie in GF(2^{self.m})")
        return self._subgroup_logs(elems.astype(np.uint64, copy=False))

    def elems(self, logs: np.ndarray) -> np.ndarray:
        """alpha^e for each e of the integer array logs, 0 <= e < n
        (m <= 24), as uint32: one gather from the antilog table, or two
        subgroup lookups and one product (see `_subgroup_path`)."""
        self._require_tables()
        if not self._subgroup_path(len(logs)):
            return self.exp_array()[logs]
        sub, logs = self._subgroups, logs.astype(np.int64, copy=False)
        return self.mul_array(sub.up[logs % sub.n1], sub.pow2[logs // sub.n1]).astype(np.uint32)

    def _subgroup_logs(self, x: np.ndarray) -> np.ndarray:
        """Logs of the nonzero uint64 elements x = alpha^e without the
        full tables.  For n = n1 n2 (`_subgroup_split`), x^(n2) = g1^e with
        g1 = alpha^(n2) of order n1, so its place among the sorted powers
        of g1 gives e1 = e mod n1; then x alpha^(-e1) = alpha^(n1 k) is the
        k-th power of g2 = alpha^(n1), of order n2, and e = e1 + n1 k."""
        sub = self._subgroups
        e1 = sub.log1[np.searchsorted(sub.sorted1, self._pow_array(x, sub.n2))]
        k = sub.log2[np.searchsorted(sub.sorted2, self.mul_array(x, sub.down[e1]))]
        return (e1 + sub.n1 * k).astype(np.uint32)

    @cached_property
    def _subgroups(self) -> _Subgroups:
        """The subgroup tables, of n1 or n2 entries each."""
        n1, n2 = _subgroup_split(self.m)
        pow1 = self._powers(self._pow_nontable(2, n2), n1)
        pow2 = self._powers(self._pow_nontable(2, n1), n2)
        log1, log2 = np.argsort(pow1), np.argsort(pow2)
        up, down = self._powers(2, n1), self._powers(self._pow_nontable(2, self.n - 1), n1)
        return _Subgroups(n1, n2, up, down, pow1[log1], log1, pow2, pow2[log2], log2)

    def _pow_array(self, x: np.ndarray, e: int) -> np.ndarray:
        """x^e elementwise for e >= 1, over the bits of e from the top:
        each run of squarings up to a set bit is one x -> x^(2^t) map by
        byte tables, then one product by x."""
        *runs, tail = bin(e)[3:].split("1")
        y = x
        for zeros in runs:
            y = self.mul_array(self.frobenius_array(y, len(zeros) + 1), x)
        return self.frobenius_array(y, len(tail)) if tail else y


def default_field(m: int, poly: int | None = None) -> GF2m:
    """Shared GF2m instances, one per (m, modulus); fields are immutable so
    caching is safe.  poly=None stands for the built-in modulus and shares
    its field.  The built-in fields are kept for good; of the other moduli
    only the most recently used few, since a stream of support files can
    name any of them and a field holds up to 128 MB of tables."""
    if poly is None or poly == _DEFAULT_POLYS.get(m):
        return _builtin_field(m)
    return _other_field(m, poly)


@lru_cache(maxsize=None)
def _builtin_field(m: int) -> GF2m:
    return GF2m(m)


@lru_cache(maxsize=2)
def _other_field(m: int, poly: int) -> GF2m:
    return GF2m(m, poly)
