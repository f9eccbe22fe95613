"""GF(2) linear algebra over bit-packed ints.

A vector is an int whose bit k holds coordinate k; field elements in their
coordinate representation can be used directly as vectors.

`LinearMap` is the one elimination, a reduction by top bits: `independent`
and `dual_basis` read its kernel and preimages, and `complete_to_basis` the
top bits of its image.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class LinearMap:
    """A GF(2)-linear map f given by the images f(e_k) of the unit vectors
    (on GF(2^m), e_k = alpha^k), reduced by top bits.  Each image in turn
    is reduced against the kept rows, at most one per top bit, and carries
    its input combination along.  A nonzero remainder becomes a kept row,
    stored with its preimage; a zero one puts its combination in the
    kernel.  `image` lists the kept rows, an echelon basis of the image."""

    def __init__(self, images: Sequence[int]):
        self._rows: dict[int, tuple[int, int]] = {}  # bit length -> (row, preimage)
        self.kernel: list[int] = []
        for k, y in enumerate(images):
            y, x = self._reduce(y, 1 << k)
            if y:
                self._rows[y.bit_length()] = (y, x)
            else:
                self.kernel.append(x)
        self.image = [y for y, _ in self._rows.values()]

    def _reduce(self, y: int, x: int) -> tuple[int, int]:
        """y minus kept rows while its top bit is that of a kept row, and x
        plus their preimages."""
        while y and (step := self._rows.get(y.bit_length())):
            y ^= step[0]
            x ^= step[1]
        return y, x

    def preimage(self, y: int) -> int | None:
        """One x with f(x) = y, or None when y lies outside the image."""
        y, x = self._reduce(y, 0)
        return None if y else x


def span(basis: Sequence[int]) -> np.ndarray:
    """All 2^k combinations of k basis vectors as a uint64 array, in bitmask
    order: entry r is the sum of the basis[j] for the set bits j of r."""
    out = np.zeros(1 << len(basis), dtype=np.uint64)
    for j, b in enumerate(basis):  # entries 2^j.. are the first 2^j plus b
        np.bitwise_xor(out[:1 << j], b, out=out[1 << j:2 << j])
    return out


# -- operations on field elements -------------------------------------------


def independent(ctx, elems: Sequence[int]) -> bool:
    """True iff the field elements are linearly independent over GF(2)."""
    return not LinearMap(elems).kernel


def complete_to_basis(ctx, elems: Sequence[int]) -> list[int]:
    """Complete independent elements to a basis of GF(2^m)/GF(2) by the
    unit vectors alpha^k, ascending, that extend the rank: those whose k is
    not the top bit of any element of the span, i.e. of any kept row."""
    fmap = LinearMap(elems)
    if fmap.kernel:
        raise ValueError("cannot complete dependent elements to a basis")
    return list(elems) + [1 << k for k in range(ctx.m) if k + 1 not in fmap._rows]


def dual_basis(ctx, basis: Sequence[int]) -> list[int]:
    """The trace-dual basis: the unique elements b'_j with
    Tr(b_i * b'_j) = 1 iff i = j.

    b'_j is the preimage of e_j under the map x -> sum of Tr(b_i x) 2^i,
    which is invertible iff the b_i form a basis."""
    m = ctx.m
    if len(basis) != m:
        raise ValueError("dual basis requires a full basis")
    row = sum(ctx.trace(1 << t) << t for t in range(m))  # bit t: Tr(alpha^t), to t = 2m - 2
    for t in range(m, 2 * m - 1):  # alpha^t is alpha^(t - m) times the modulus' lower terms
        row |= ((row >> t - m & ctx.poly).bit_count() & 1) << t
    k = np.arange(m, dtype=np.uint64)
    # entry [k, i]: Tr(b_i alpha^k), the parity of b_i & (row >> k); linear in b_i
    traces = np.bitwise_count((np.uint64(row) >> k)[:, None] & np.array(basis, dtype=np.uint64)) & 1
    fmap = LinearMap(np.bitwise_or.reduce(traces.astype(np.uint64) << k, axis=1).tolist())
    if fmap.kernel:
        raise ValueError("dual basis requires a full basis")
    return [fmap.preimage(1 << j) for j in range(m)]
