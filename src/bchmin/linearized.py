"""Linearized polynomials as GF(2)-linear maps on GF(2^m): annihilators of
subspaces by the recursion A <- A^2 + A(v) * A, image polynomials as
annihilators of images, and the field equations the solvers need, each a
kernel or a preimage of such a map: affine cubics and cube roots by the
quartic trick, Artin-Schreier x^2 + x = w, and subfields as the kernel of
X^(2^ell) + X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import gflinalg
from .gf2m import BadTowerDegrees


class DependentGenerators(ValueError):
    """Generators of a subspace must be linearly independent."""


class ZeroLeadingCoefficient(ValueError):
    """The cubic c1*X^3 + c2*X + c1^2 needs c1 != 0."""


@dataclass(frozen=True)
class LinearizedPoly:
    """sum_j coeffs[j] * X^(2^j); acts on GF(2^m) as a GF(2)-linear map."""

    ctx: object
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")


def lin_eval(poly: LinearizedPoly, x: int) -> int:
    """Evaluate sum_j a_j * x^(2^j)."""
    ctx = poly.ctx
    acc = 0
    cur = x
    for a in poly.coeffs:
        if a:
            acc ^= ctx.mul(a, cur)
        cur = ctx.mul(cur, cur)
    return acc


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
            raise DependentGenerators("annihilator generators are dependent")
        # a'_j = a_{j-1}^2 + w * a_j
        coeffs = tuple(
            ctx.mul(hi, hi) ^ ctx.mul(w, lo)
            for lo, hi in zip(coeffs + (0,), (0,) + coeffs)
        )
    return LinearizedPoly(ctx, coeffs)


def matrix_cols(poly: LinearizedPoly) -> list[int]:
    """Columns of the map's m x m matrix: column k is P(alpha^k)."""
    return [lin_eval(poly, 1 << k) for k in range(poly.ctx.m)]


def lin_kernel(poly: LinearizedPoly) -> list[int]:
    """Basis of {x : P(x) = 0}."""
    return gflinalg.LinearMap(matrix_cols(poly), poly.ctx.m).kernel


def image_poly(ctx, U_basis: Sequence[int]) -> LinearizedPoly:
    """The unique monic linearized polynomial B of degree 2^(m-k) whose
    image is span(U_basis), k = len(U_basis).

    B is the right factor in A_U(B(X)) = X^(2^m) + X, where A_U is the
    annihilator of span(U_basis).  X^(2^m) + X is central in the composition
    ring, which has no zero divisors, so also B(A_U(X)) = X^(2^m) + X: B is
    the annihilator of the (m-k)-dimensional image of A_U.
    """
    cols = matrix_cols(annihilator(ctx, U_basis))
    image = gflinalg.LinearMap(cols, ctx.m).image
    assert len(image) == ctx.m - len(U_basis)
    return annihilator(ctx, image)


def affine_cubic_roots(ctx, c1: int, c2: int) -> set[int]:
    """All nonzero roots of c1*X^3 + c2*X + c1^2: the nonzero kernel of the
    linearized map x -> c1*x^4 + c2*x^2 + c1^2*x = x * (c1*x^3 + c2*x +
    c1^2).  The root set has size 0, 1, or 3."""
    if c1 == 0:
        raise ZeroLeadingCoefficient("leading cubic coefficient is zero")
    quartic = LinearizedPoly(ctx, (ctx.mul(c1, c1), c2, c1))
    return set(gflinalg.span(lin_kernel(quartic))) - {0}


def cube_roots(ctx, z: int) -> set[int]:
    """All cube roots of z: for z != 0 the roots of z*X^3 + z^2, since
    that is z * (X^3 + z).  One root for odd m; for even m three, or none
    when z is a cubic non-residue."""
    return affine_cubic_roots(ctx, z, 0) if z else {0}


def artin_schreier_solve(ctx, w: int) -> set[int]:
    """Solution set of x^2 + x = w, the preimage of w under X^2 + X: a
    coset of {0, 1}, empty when Tr(w) = 1."""
    x0 = gflinalg.LinearMap(matrix_cols(LinearizedPoly(ctx, (1, 1))), ctx.m).preimage(w)
    return set() if x0 is None else {x0, x0 ^ 1}


def subfield(ctx, ell: int) -> tuple[list[int], int]:
    """All 2^ell elements of the subfield GF(2^ell), the kernel of
    X^(2^ell) + X, sorted, plus the first generator: the first element
    not fixed by x -> x^(2^d) for any d < ell."""
    if ell < 1 or ctx.m % ell != 0:
        raise BadTowerDegrees(f"{ell} does not divide m={ctx.m}")
    fixed = LinearizedPoly(ctx, (1,) + (0,) * (ell - 1) + (1,))  # X^(2^ell) + X
    elems = sorted(gflinalg.span(lin_kernel(fixed)))
    gen = next(x for x in elems if x and all(ctx.frobenius(x, d) != x for d in range(1, ell)))
    return elems, gen
