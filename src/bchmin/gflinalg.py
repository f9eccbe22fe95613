"""GF(2) linear algebra over bit-packed ints.

A matrix is a list of row ints with bit k of each row holding the entry in
column k (column 0 is the leftmost pivot column).  Field elements in their
coordinate representation can be used directly as rows.

`LinearMap` is the one elimination: `rank`, `invert` and `dual_basis` read
its image, kernel and preimages; `complete_to_basis` needs one pass.
"""

from __future__ import annotations

from typing import Sequence


class LinearMap:
    """A GF(2)-linear map f given by the images f(e_k) of the unit vectors
    (ncols-bit ints; on GF(2^m), e_k = alpha^k), factorized by one RREF
    (leftmost column, lowest row first).  Each row carries the input-row
    combination producing it: those below the rank are preimages of the
    reduced image basis, those past it span the kernel."""

    def __init__(self, images: Sequence[int], ncols: int):
        work = list(images)
        trans = [1 << r for r in range(len(work))]
        pivots: list[int] = []
        for col in range(ncols):
            if len(pivots) == len(work):
                break
            top = len(pivots)
            piv = next((r for r in range(top, len(work)) if (work[r] >> col) & 1), None)
            if piv is None:
                continue
            work[top], work[piv] = work[piv], work[top]
            trans[top], trans[piv] = trans[piv], trans[top]
            for r in range(len(work)):
                if r != top and (work[r] >> col) & 1:
                    work[r] ^= work[top]
                    trans[r] ^= trans[top]
            pivots.append(col)
        top = len(pivots)
        self.image = work[:top]  # reduced basis of the image
        self.kernel = trans[top:]
        self._steps = list(zip(pivots, work, trans))

    def preimage(self, y: int) -> int | None:
        """One x with f(x) = y, or None when y lies outside the image."""
        x = 0
        for col, row, pre in self._steps:
            if (y >> col) & 1:
                y ^= row
                x ^= pre
        return None if y else x


def rank(rows: Sequence[int], ncols: int) -> int:
    """Rank over GF(2)."""
    return len(LinearMap(rows, ncols).image)


def invert(rows: Sequence[int], n: int) -> list[int]:
    """Inverse of a square n x n bit matrix A (ValueError if singular):
    row j of A^(-1) is the preimage of e_j under f(e_r) = rows[r], i.e. A^T."""
    fmap = LinearMap(rows, n)
    if fmap.kernel or len(rows) != n:
        raise ValueError("matrix is singular over GF(2)")
    return [fmap.preimage(1 << j) for j in range(n)]


def span(basis: Sequence[int]) -> list[int]:
    """All 2^k combinations of k basis vectors, in bitmask order: entry r
    is the sum of the basis[j] for the set bits j of r."""
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return out


# -- operations on field elements -------------------------------------------


def independent(ctx, elems: Sequence[int]) -> bool:
    """True iff the field elements are linearly independent over GF(2)."""
    return rank(elems, ctx.m) == len(elems)


def complete_to_basis(ctx, elems: Sequence[int]) -> list[int]:
    """Complete independent elements to a basis of GF(2^m)/GF(2) by the
    unit vectors alpha^k, ascending, that extend the rank: those whose k is
    not the top bit of any element of the span, found in one reduction."""
    tops: dict[int, int] = {}  # bit length -> reduced element
    for x in elems:
        while x and x.bit_length() in tops:
            x ^= tops[x.bit_length()]
        if not x:
            raise ValueError("cannot complete dependent elements to a basis")
        tops[x.bit_length()] = x
    return list(elems) + [1 << k for k in range(ctx.m) if k + 1 not in tops]


def dual_basis(ctx, basis: Sequence[int]) -> list[int]:
    """The trace-dual basis: the unique elements b'_j with
    Tr(b_i * b'_j) = 1 iff i = j.

    b'_j is the preimage of e_j under the map x -> sum of Tr(b_i x) 2^i,
    which is invertible iff the b_i form a basis."""
    m, poly = ctx.m, ctx.poly
    images = [0] * m  # bit i of images[k] is Tr(b_i alpha^k)
    for i, x in enumerate(basis):
        for k in range(m):
            images[k] |= ctx.trace(x) << i
            x <<= 1  # x * alpha: alpha is the class of X
            if x >> m:
                x ^= poly
    fmap = LinearMap(images, m)
    if len(basis) != m or fmap.kernel:
        raise ValueError("dual basis requires a full basis")
    return [fmap.preimage(1 << j) for j in range(m)]
