"""Arithmetic in GF(2^m): field construction, Frobenius, the absolute
trace and the trace masks of subfields, discrete logs.  Subfields and
equations over the field (cube roots, Artin-Schreier) are linearized
polynomials, in `linearized`.

Field elements are plain Python ints: bit k is the coefficient of alpha^k
in the polynomial basis {1, alpha, ..., alpha^(m-1)}, where alpha is the
residue class of X modulo the primitive polynomial.

Fields with m <= 24 multiply through log/antilog tables.  Larger fields
multiply without them: a 4-bit windowed carry-less product, or for a square
one bit-spread lookup per byte, whose high m - 1 bits are folded back with
one lookup per byte into tables of (b X^(m+8k)) mod poly.  `mul_array`
multiplies uint64 arrays elementwise the same way, one shift-XOR per bit
and one gather per byte of the fold, for any m; and the inverse is the
extended Euclidean algorithm on the polynomials themselves.
"""

from __future__ import annotations

import os
import threading
from functools import cached_property, lru_cache

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
_BLOCK = 1 << 16  # entries per row of the log tables; m <= 16 is one row
# Elements per block of `mul_array`: its m x block transients stay within
# 256 KB whatever the array size (1 MB ones, at 4096, ran at half speed).
_MUL_BLOCK = 1024

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


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


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


def _byte_tables(img: int, m: int, poly: int, bits: int) -> list[list[int]]:
    """Doubling tables of img X^t mod poly, t < bits, one per 8 bits of t:
    entry b of table k is the sum of img X^(8k + t) mod poly over the set
    bits t of b."""
    tables = []
    for t in range(bits):
        if t % 8 == 0:
            tab = [0]
            tables.append(tab)
        tab += [v ^ img for v in tab]
        img <<= 1
        if img >> m:
            img ^= poly
    return tables


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


class GF2m:
    """A concrete representation of GF(2^m) with a designated primitive
    element alpha (the class of X): arithmetic, Frobenius, the absolute
    trace, the trace masks of subfields and discrete logs.  `has_logs` is
    True iff m <= 24: the field then holds log/antilog tables from
    construction on; otherwise `log`, `exp_array` and `log_array` raise
    RuntimeError, `mul` is a windowed carry-less product (a spread-table
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
        self._fold = _byte_tables(poly ^ (1 << m), m, poly, m - 1)

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
        if self.has_logs:
            self._build_tables()

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, poly={hex(self.poly)})"

    # -- core arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Field multiplication modulo the primitive polynomial; a and b are
        field elements, i.e. ints below 2^m."""
        if self.has_logs:
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
        """Elementwise a * b for uint64 arrays of field elements: the
        carry-less product is the XOR of b << t over the set bits t of a,
        which fits in 2m - 1 <= 63 bits; its high m - 1 bits are folded
        back with one gather per byte from the `_fold` tables (Lopez and
        Dahab, INDOCRYPT 2000).  Any m; arrays past _MUL_BLOCK elements
        go in blocks of that many."""
        if len(a) > _MUL_BLOCK:
            return np.concatenate([
                self.mul_array(a[lo:lo + _MUL_BLOCK], b[lo:lo + _MUL_BLOCK])
                for lo in range(0, len(a), _MUL_BLOCK)
            ])
        bits, shifts, offsets, table = self._fold_arrays
        prod = np.bitwise_xor.reduce((b << bits) * ((a >> bits) & 1), axis=0)
        high = prod >> self.m
        folded = table[((high >> shifts) & 0xFF) | offsets]  # entry 256k + byte k
        return (prod & self.n) ^ np.bitwise_xor.reduce(folded, axis=0)

    @cached_property
    def _fold_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Constants of `mul_array`: the bit shifts 0..m-1 and the byte
        shifts 8k of the high half of a product, as columns; the offsets
        256k; and the `_fold` tables as one flat array, each padded to 256
        entries."""
        table = np.zeros((len(self._fold), 256), dtype=np.uint64)
        for k, tab in enumerate(self._fold):
            table[k, :len(tab)] = tab
        shifts = np.arange(0, 8 * len(self._fold), 8, dtype=np.uint64)[:, None]
        return np.arange(self.m, dtype=np.uint64)[:, None], shifts, shifts << 5, table.ravel()

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for 0.  With
        log tables one lookup; without, the extended Euclidean algorithm
        in GF(2)[X] on u = a and v = poly (Hankerson, Menezes and
        Vanstone, Guide to Elliptic Curve Cryptography, Alg. 2.48): while
        u != 1, the one of higher degree loses its top term to the other
        shifted, and g1, g2 with g1 a = u, g2 a = v mod poly follow the
        same steps; their degrees stay below m, so g1 needs no reduction."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        if self.has_logs:
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
        if self.has_logs:
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
        Both are built in rows of w = min(n, _BLOCK) entries.  Row 0 of exp
        is filled by doubling: x -> c*x with c = alpha^size is GF(2)-linear,
        so each doubling XORs one gather per byte of x from a 256-entry
        table of c times that byte.  Row q is alpha^(qw) times row 0, the
        same kind of map: one gather per byte of row 0, whose bytes are
        indexed once.  Each row writes its own logs, log[row] = qw + j.
        The rows are split over the cores this process may run on, one
        thread each (numpy releases the GIL in the gathers and the
        scatter); a field of one row, any m <= 16, starts no thread.
        Scalar arithmetic indexes zero-copy memoryviews of both tables."""
        n, m = self.n, self.m
        w = min(n, _BLOCK)
        exp = np.empty(n, dtype=np.uint32)
        exp[0] = 1
        size = 1
        while size < w:
            top = min(size, w - size)
            src, out = exp[:top], exp[size:size + top]
            out.fill(0)
            c = self._mul_free(int(exp[size - 1]), 2)  # alpha^size
            for k, tab in enumerate(_byte_tables(c, m, self.poly, m)):
                # tab[v] = c * (v << 8k)
                byte = src >> 8 * k
                if 8 * k + 8 < m:
                    byte &= 0xFF
                out ^= np.array(tab, dtype=np.uint32)[byte]
            size += top
        log = np.zeros(n + 1, dtype=np.uint32)
        rows = -(-n // w)
        if rows == 1:
            log[exp] = np.arange(n, dtype=np.uint32)
        else:
            self._fill_rows(exp, log, w, rows)
        # alpha has order n iff exp hits 1..n once each: an entry above n
        # raised in the scatter, and only k = 0 wrote a 0, to log[1]
        assert log[2:].all()
        self._exp_arr, self._log_arr = exp, log
        self._exp, self._log = memoryview(exp), memoryview(log)

    def _fill_rows(self, exp: np.ndarray, log: np.ndarray, w: int, rows: int) -> None:
        """Rows 1.. of exp from row 0, and the logs of every row, in
        contiguous runs of rows, one per worker; the calling thread takes
        the first run.  A worker's exception is raised here."""
        base = exp[:w]
        idx = [(base >> 8 * k & 0xFF).astype(np.intp) for k in range(-(-self.m // 8))]
        step = self._mul_free(int(base[-1]), 2)  # alpha^w
        errors = []

        def fill(lo: int, hi: int) -> None:
            try:
                tmp = np.empty(w, dtype=np.uint32)
                c = self._pow_nontable(step, lo)  # alpha^(lo w)
                for q in range(lo, hi):
                    row = exp[q * w:(q + 1) * w]
                    r = len(row)
                    if q:  # "wrap" gathers unbuffered; byte indices never wrap
                        row.fill(0)
                        for k, tab in enumerate(_byte_tables(c, self.m, self.poly, self.m)):
                            tab = np.array(tab, dtype=np.uint32)
                            row ^= np.take(tab, idx[k][:r], out=tmp[:r], mode="wrap")
                    log[row] = np.arange(q * w, q * w + r, dtype=np.uint32)
                    c = self._mul_free(c, step)
            except BaseException as exc:  # raised again by the calling thread
                errors.append(exc)

        workers = min(rows, _cores())
        cuts = [rows * t // workers for t in range(workers + 1)]
        threads = [
            threading.Thread(target=fill, args=(cuts[t], cuts[t + 1])) for t in range(1, workers)
        ]
        for t in threads:
            t.start()
        fill(cuts[0], cuts[1])
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    def _require_tables(self) -> None:
        if not self.has_logs:
            raise RuntimeError(f"log tables are not built for m={self.m} > {_LOG_TABLE_MAX_M}")

    def log(self, x: int) -> int:
        """Discrete log base alpha (table-backed, m <= 24)."""
        if x == 0:
            raise ValueError("discrete log of 0 requested")
        self._require_tables()
        return self._log[x]

    def exp(self, e: int) -> int:
        """alpha^e."""
        return self.pow(self.alpha, e)

    def exp_array(self) -> np.ndarray:
        """Antilog table as a uint32 numpy array (m <= 24); the stored
        table, not a copy."""
        self._require_tables()
        return self._exp_arr

    def log_array(self) -> np.ndarray:
        """Log table as a uint32 numpy array (m <= 24); entry 0 is unused.
        The stored table, not a copy."""
        self._require_tables()
        return self._log_arr


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
