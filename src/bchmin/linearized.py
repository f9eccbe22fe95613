"""Linearized polynomials as GF(2)-linear maps on GF(2^m): annihilators of
subspaces by the recursion A <- A^2 + A(v) * A, image polynomials as
annihilators of images, and the field equations the solvers need, each a
kernel or a preimage of such a map: affine cubics and cube roots by the
quartic trick, Artin-Schreier x^2 + x = w, and subfields as the kernel of
X^(2^ell) + X.  The coefficient form is the public API; construction runs
the recursion on the values at the points it needs (`subspace_images`,
about m*s - s^2/2 products, not 2s^2; on a field without log tables, one
array product per generator), and `verify` keeps its own copy.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import gflinalg


@dataclass(frozen=True)
class LinearizedPoly:
    """sum_j coeffs[j] * X^(2^j); acts on GF(2^m) as a GF(2)-linear map."""

    ctx: object
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")


def lin_eval(poly: LinearizedPoly, x: int) -> int:
    """Evaluate sum_j a_j * x^(2^j): no product for a coefficient 0 or 1,
    and no squaring past the leading term."""
    ctx = poly.ctx
    *low, top = poly.coeffs
    acc = 0
    cur = x
    for a in low:
        if a:
            acc ^= cur if a == 1 else ctx.mul(a, cur)
        cur = ctx.mul(cur, cur)
    return acc ^ (cur if top == 1 else ctx.mul(top, cur))


def annihilator(ctx, gens: Sequence[int]) -> LinearizedPoly:
    """The monic linearized polynomial A(X) = X^(2^s) + a_{s-1} X^(2^(s-1))
    + ... + a_0 X vanishing exactly on span(gens), s = len(gens).

    Built one generator at a time from A = X: A_V^2 + A_V(v) * A_V vanishes
    on V and on V + v (Lidl & Niederreiter, Finite Fields, 3.4), so it is
    A_{V + <v>}.  A_V(v) = 0 exactly when v lies in V, which refuses
    dependent generators on the way.
    """
    coeffs = (1,)
    for v in gens:
        w = lin_eval(LinearizedPoly(ctx, coeffs), v)
        if w == 0:
            raise ValueError("annihilator generators are dependent")
        # a'_j = a_{j-1}^2 + w * a_j
        coeffs = tuple(
            ctx.mul(hi, hi) ^ ctx.mul(w, lo)
            for lo, hi in zip(coeffs + (0,), (0,) + coeffs)
        )
    return LinearizedPoly(ctx, coeffs)


def subspace_images(ctx, gens: Sequence[int], points: Sequence[int]) -> list[int]:
    """A_V(x) for each x in points, V = span(gens), by the recursion of
    `annihilator` on values: from A = X, each generator v maps every tracked
    value a (the points, the generators not yet used) to a * (a + A(v)).
    Without log tables the tracked values are one uint64 array and each
    generator one `mul_array`; with them, scalar products are cheaper."""
    vals = [*points, *reversed(gens)]
    arrays = not ctx.has_logs
    if arrays:
        vals = np.array(vals, dtype=np.uint64)
    for _ in gens:
        w, vals = vals[-1], vals[:-1]
        if not w:
            raise ValueError("annihilator generators are dependent")
        vals = ctx.mul_array(vals, vals ^ w) if arrays else [ctx.mul(a, a ^ w) for a in vals]
    return vals.tolist() if arrays else vals


def matrix_cols(poly: LinearizedPoly) -> list[int]:
    """Columns of the map's m x m matrix: column k is P(alpha^k)."""
    return [lin_eval(poly, 1 << k) for k in range(poly.ctx.m)]


def lin_kernel(poly: LinearizedPoly) -> list[int]:
    """Basis of {x : P(x) = 0}."""
    return gflinalg.LinearMap(matrix_cols(poly)).kernel


def image_poly(ctx, U_basis: Sequence[int]) -> LinearizedPoly:
    """The unique monic linearized polynomial B of degree 2^(m-k) whose
    image is span(U_basis), k = len(U_basis).

    B is the right factor in A_U(B(X)) = X^(2^m) + X, where A_U is the
    annihilator of span(U_basis).  X^(2^m) + X is central in the composition
    ring, which has no zero divisors, so also B(A_U(X)) = X^(2^m) + X: B is
    the annihilator of the (m-k)-dimensional image of A_U.
    """
    cols = matrix_cols(annihilator(ctx, U_basis))
    image = gflinalg.LinearMap(cols).image
    assert len(image) == ctx.m - len(U_basis)
    return annihilator(ctx, image)


def affine_cubic_roots(ctx, c1: int, c2: int) -> set[int]:
    """All nonzero roots of c1*X^3 + c2*X + c1^2: the nonzero kernel of the
    linearized map x -> c1*x^4 + c2*x^2 + c1^2*x = x * (c1*x^3 + c2*x +
    c1^2).  The root set has size 0, 1, or 3."""
    if c1 == 0:
        raise ValueError("leading cubic coefficient is zero")
    return set(gflinalg.span(gflinalg.LinearMap(_quartic_cols(ctx, c1, c2)).kernel)) - {0}


def _quartic_cols(ctx, c1: int, c2: int) -> list[int]:
    """matrix_cols of x -> c1*x^4 + c2*x^2 + c1^2*x with one product: column
    k is c1*alpha^(4k) + c2*alpha^(2k) + c1^2*alpha^k, and each of the three
    terms steps to the next column by shifts and reductions."""
    return [a ^ b ^ c for a, b, c in zip(
        _alpha_steps(ctx, c1, 4), _alpha_steps(ctx, c2, 2), _alpha_steps(ctx, ctx.mul(c1, c1), 1)
    )]


def _alpha_steps(ctx, v: int, t: int) -> list[int]:
    """v * alpha^(t*k) for k < m, each from the last by t times alpha."""
    out = []
    for _ in range(ctx.m):
        out.append(v)
        for _ in range(t):
            v <<= 1
            if v >> ctx.m:
                v ^= ctx.poly
    return out


def cube_roots(ctx, z: int) -> set[int]:
    """All cube roots of z: for z != 0 the roots of z*X^3 + z^2, since
    that is z * (X^3 + z).  One root for odd m; for even m three, or none
    when z is a cubic non-residue."""
    return affine_cubic_roots(ctx, z, 0) if z else {0}


def artin_schreier_solve(ctx, w: int) -> set[int]:
    """Solution set of x^2 + x = w, the preimage of w under X^2 + X: a
    coset of {0, 1}, empty when Tr(w) = 1."""
    x0 = gflinalg.LinearMap(matrix_cols(LinearizedPoly(ctx, (1, 1)))).preimage(w)
    return set() if x0 is None else {x0, x0 ^ 1}


def subfield(ctx, ell: int) -> tuple[tuple[int, ...], int]:
    """All 2^ell elements of the subfield GF(2^ell), the kernel of
    X^(2^ell) + X, sorted, plus the first generator: the first element
    not fixed by x -> x^(2^d) for any d < ell.  Derived from the field and
    ell alone, and cached per (field, ell) under a weak reference, so the
    cache keeps no field alive."""
    if ell < 1 or ctx.m % ell != 0:
        raise ValueError(f"{ell} does not divide m={ctx.m}")
    return _subfield_cached(weakref.ref(ctx), ell)


@lru_cache(maxsize=256)
def _subfield_cached(field_ref, ell: int) -> tuple[tuple[int, ...], int]:
    ctx = field_ref()
    fixed = LinearizedPoly(ctx, (1,) + (0,) * (ell - 1) + (1,))  # X^(2^ell) + X
    elems = tuple(sorted(gflinalg.span(lin_kernel(fixed))))
    gen = next(x for x in elems if x and all(ctx.frobenius(x, d) != x for d in range(1, ell)))
    return elems, gen
