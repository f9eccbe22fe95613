"""GF(2) linear algebra over bit-packed ints.

A matrix is a list of row ints with bit k of each row holding the entry in
column k (column 0 is the leftmost pivot column).  Field elements in their
coordinate representation can be used directly as rows.
"""

from __future__ import annotations

from typing import Sequence


class DependentInput(ValueError):
    """Linearly dependent elements where independence is required."""


def _eliminate(rows: list[int], ncols: int) -> tuple[list[int], list[int], list[int]]:
    """In-place RREF with deterministic pivoting (leftmost column, lowest
    row).  Returns (reduced rows, pivot column per reduced row, transform)
    where transform[r] records the input-row combination producing row r.
    """
    work = list(rows)
    trans = [1 << r for r in range(len(work))]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(work)):
            if (work[r] >> col) & 1:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        trans[rank], trans[piv] = trans[piv], trans[rank]
        for r in range(len(work)):
            if r != rank and ((work[r] >> col) & 1):
                work[r] ^= work[rank]
                trans[r] ^= trans[rank]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return work, pivots, trans


def rank(rows: Sequence[int], ncols: int) -> int:
    """Rank over GF(2)."""
    _, pivots, _ = _eliminate(list(rows), ncols)
    return len(pivots)


class LinearMap:
    """A GF(2)-linear map f given by the images f(e_k) of the unit vectors
    (ncols-bit ints; on GF(2^m), e_k = alpha^k), factorized by one
    elimination of those images.

    The transform rows below the rank are preimages of the reduced image
    basis, and the rows past the rank span the kernel, so preimages, the
    kernel and membership in the image all come from the same elimination.
    """

    def __init__(self, images: Sequence[int], ncols: int):
        red, pivots, trans = _eliminate(list(images), ncols)
        r = len(pivots)
        self.image = red[:r]  # reduced basis of the image
        self.kernel = trans[r:]
        self._steps = list(zip(pivots, red, trans))

    def preimage(self, y: int) -> int | None:
        """One x with f(x) = y, or None when y lies outside the image."""
        x = 0
        for col, row, pre in self._steps:
            if (y >> col) & 1:
                y ^= row
                x ^= pre
        return None if y else x


def invert(rows: Sequence[int], n: int) -> list[int]:
    """Inverse of a square n x n bit matrix; raises DependentInput if singular."""
    aug = [rows[r] | (1 << (n + r)) for r in range(n)]
    red, pivots, _ = _eliminate(aug, n)
    if len(pivots) != n:
        raise DependentInput("matrix is singular over GF(2)")
    return [red[r] >> n for r in range(n)]


def transpose(rows: Sequence[int], ncols: int) -> list[int]:
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


def span(basis: Sequence[int]) -> list[int]:
    """All 2^k combinations of k basis vectors (in subset-doubling order)."""
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return out


# -- operations on field elements -------------------------------------------


def independent(ctx, elems: Sequence[int]) -> bool:
    """True iff the field elements are linearly independent over GF(2)."""
    return rank(elems, ctx.m) == len(elems)


def complete_to_basis(ctx, elems: Sequence[int]) -> list[int]:
    """Complete independent elements to a basis of GF(2^m)/GF(2), greedily
    appending the unit vectors 1, alpha, ..., alpha^(m-1) that extend rank."""
    m = ctx.m
    basis = list(elems)
    red, pivots, _ = _eliminate(basis, m)
    if len(pivots) != len(elems):
        raise DependentInput("cannot complete dependent elements to a basis")
    work = [red[r] for r in range(len(pivots))]
    for k in range(m):
        if len(basis) == m:
            break
        cand = 1 << k
        rem = _reduce_against(cand, work, pivots)
        if rem:
            basis.append(cand)
            work, pivots, _ = _eliminate(work + [rem], m)
    assert len(basis) == m
    return basis


def _reduce_against(vec: int, rref_rows: list[int], pivots: list[int]) -> int:
    for r, col in enumerate(pivots):
        if (vec >> col) & 1:
            vec ^= rref_rows[r]
    return vec


def dual_basis(ctx, basis: Sequence[int]) -> list[int]:
    """The trace-dual basis: the unique elements b'_j with
    Tr(b_i * b'_j) = 1 iff i = j.

    Computed with one m x m inversion of the matrix G[i][k] = Tr(b_i * alpha^k):
    the coordinate vector of b'_j is column j of G^(-1).
    """
    m = ctx.m
    if len(basis) != m or rank(basis, m) != m:
        raise DependentInput("dual basis requires a full basis")
    G = []
    for b in basis:
        row = 0
        for k in range(m):
            if ctx.trace(ctx.mul(b, 1 << k)):
                row |= 1 << k
        G.append(row)
    ginv = invert(G, m)
    # coordinates w.r.t. the polynomial basis coincide with the bit packing,
    # so column j of G^(-1) *is* the element b'_j
    dual = []
    for j in range(m):
        e = 0
        for k in range(m):
            if (ginv[k] >> j) & 1:
                e |= 1 << k
        dual.append(e)
    return dual
