"""Arithmetic in GF(2^m): field construction, Frobenius, the absolute
trace, discrete logs.  Subfields, relative traces and equations over the
field (cube roots, Artin-Schreier) are linearized polynomials, in
`linearized`.

Field elements are plain Python ints: bit k is the coefficient of alpha^k
in the polynomial basis {1, alpha, ..., alpha^(m-1)}, where alpha is the
residue class of X modulo the primitive polynomial.
"""

from __future__ import annotations

from functools import lru_cache

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

_LOG_TABLE_MAX_M = 24  # larger fields have no tables: carry-less arithmetic


def parse_poly(spec: int | str) -> int:
    """Parse a modulus given as an int, a hex string ("0x11D"), or a
    comma-separated exponent list ("8,4,3,2,0")."""
    if isinstance(spec, int):
        return spec
    s = spec.strip()
    if s.lower().startswith("0x"):
        return int(s, 16)
    if "," in s:
        poly = 0
        for part in s.split(","):
            e = int(part.strip())
            if not 0 <= e <= 32:  # no supported modulus has a larger term
                raise ValueError(f"exponent {e} is outside 0..32")
            if poly >> e & 1:  # X^e + X^e cancels: no silent repair
                raise ValueError(f"exponent {e} is repeated")
            poly |= 1 << e
        return poly
    return int(s, 0)


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials packed into ints."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _polymod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _polygcd(a: int, b: int) -> int:
    while b:
        a, b = b, _polymod(a, b)
    return a


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


def _is_irreducible(poly: int, m: int) -> bool:
    """Ben-Or style test: X^(2^m) = X mod poly, and X^(2^(m/p)) - X is
    coprime to poly for every prime p | m."""
    checkpoints = {m // p for p in _factorize(m)}
    cur = 2  # the class of X
    for k in range(1, m + 1):
        cur = _polymod(_clmul(cur, cur), poly)
        if k < m and k in checkpoints and _polygcd(cur ^ 2, poly) != 1:
            return False
    return cur == 2


class GF2m:
    """A concrete representation of GF(2^m) with a designated primitive
    element alpha (the class of X): arithmetic, Frobenius, the absolute
    trace and discrete logs.  `has_logs` is True iff m <= 24: the field
    then holds log/antilog tables from construction on; otherwise `log`,
    `exp_array` and `log_array` raise RuntimeError and the arithmetic is
    carry-less.

    Parameters
    ----------
    m : int
        Extension degree, 2 <= m <= 32.
    poly : int or str or None
        Primitive polynomial of degree m (see `parse_poly` for accepted
        forms).  Defaults to a built-in primitive polynomial for this m.

    Raises
    ------
    UnsupportedDegree
        m outside 2..32.
    ValueError
        poly does not parse, is negative, is not of degree m, is reducible,
        or has X of order below 2^m - 1.
    """

    def __init__(self, m: int, poly: int | str | None = None):
        if not 2 <= m <= 32:
            raise UnsupportedDegree(f"m must be in 2..32, got {m}")
        if poly is None:
            poly = _DEFAULT_POLYS[m]
        else:
            poly = parse_poly(poly)
        if poly < 0:  # _clmul would never finish on a negative multiplier
            raise ValueError(f"modulus {hex(poly)} is negative")
        if poly.bit_length() != m + 1:
            raise ValueError(f"modulus {hex(poly)} does not have degree {m}")
        if not _is_irreducible(poly, m):
            raise ValueError(f"{hex(poly)} is reducible over GF(2)")

        self.m = m
        self.poly = poly
        self.n = (1 << m) - 1
        self.alpha = 2

        for p in _factorize(self.n):
            if self._pow_nontable(2, self.n // p) == 1:
                raise ValueError(f"X has order < 2^{m}-1 modulo {hex(poly)}")

        # bit k set iff Tr(alpha^k) = 1; makes trace a masked parity
        tmask = 0
        for k in range(m):
            if self._trace_direct(1 << k):
                tmask |= 1 << k
        self._trace_mask = tmask

        self.has_logs = m <= _LOG_TABLE_MAX_M
        if self.has_logs:
            self._build_tables()

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, poly={hex(self.poly)})"

    # -- core arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Field multiplication modulo the primitive polynomial."""
        if self.has_logs:
            if a == 0 or b == 0:
                return 0
            e = self._log[a] + self._log[b]
            if e >= self.n:
                e -= self.n
            return self._exp[e]
        return _polymod(_clmul(a, b), self.poly)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for 0."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        return self.pow(a, -1)

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
        r = 1
        base = a
        while e:
            if e & 1:
                r = _polymod(_clmul(r, base), self.poly)
            base = _polymod(_clmul(base, base), self.poly)
            e >>= 1
        return r

    # -- Frobenius, trace ---------------------------------------------------

    def frobenius(self, x: int, k: int = 1) -> int:
        """x^(2^(k mod m)); negative k inverts squaring."""
        k %= self.m
        for _ in range(k):
            x = self.mul(x, x)
        return x

    def _trace_direct(self, x: int) -> int:
        t = 0
        cur = x
        for _ in range(self.m):
            t ^= cur
            cur = _polymod(_clmul(cur, cur), self.poly)
        return t

    def trace(self, x: int) -> int:
        """Absolute trace GF(2^m) -> GF(2), as an int in {0, 1}."""
        return (x & self._trace_mask).bit_count() & 1

    # -- logs ---------------------------------------------------------------

    def _build_tables(self) -> None:
        """exp[k] = alpha^k for k < n, filled by doubling: x -> c*x with
        c = alpha^size is GF(2)-linear, so each doubling XORs one gather
        per byte of x from a 256-entry table of c times that byte.  Then
        log[exp] = arange(n); log[0] is unused.  Scalar arithmetic indexes
        zero-copy memoryviews of both."""
        n, m = self.n, self.m
        exp = np.empty(n, dtype=np.uint32)
        exp[0] = 1
        size = 1
        while size < n:
            top = min(size, n - size)
            src, out = exp[:top], exp[size:size + top]
            out.fill(0)
            img = _polymod(int(exp[size - 1]) << 1, self.poly)  # c = alpha^size
            for shift in range(0, m, 8):
                # tab[v] = c * (v << shift); img runs through c * alpha^k
                tab = np.zeros(1, dtype=np.uint32)
                for _ in range(shift, min(shift + 8, m)):
                    tab = np.concatenate((tab, tab ^ img))
                    img = _polymod(img << 1, self.poly)
                byte = src >> shift
                if shift + 8 < m:
                    byte &= 0xFF
                out ^= tab[byte]
            size += top
        log = np.zeros(n + 1, dtype=np.uint32)
        log[exp] = np.arange(n, dtype=np.uint32)
        # exp is a bijection onto 1..n, i.e. alpha has order n
        assert np.array_equal(exp[log[1:]], np.arange(1, n + 1, dtype=np.uint32))
        self._exp_arr, self._log_arr = exp, log
        self._exp, self._log = memoryview(exp), memoryview(log)

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
