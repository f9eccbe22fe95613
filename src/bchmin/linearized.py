"""Linearized polynomials as GF(2)-linear maps on GF(2^m): annihilators of
subspaces by the recursion A <- A^2 + A(v) * A, image polynomials as
annihilators of images, kernels, and the quartic trick for affine cubics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import gflinalg


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

    @property
    def q_degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1


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
    """All nonzero roots of c1*X^3 + c2*X + c1^2, read off the kernel of the
    linearized map x -> c1*x^4 + c2*x^2 + c1^2*x; the root set has size
    0, 1, or 3."""
    if c1 == 0:
        raise ZeroLeadingCoefficient("leading cubic coefficient is zero")
    quartic = LinearizedPoly(ctx, (ctx.mul(c1, c1), c2, c1))
    c1sq = ctx.mul(c1, c1)
    roots = set()
    for x in gflinalg.span(lin_kernel(quartic)):
        if x == 0:
            continue
        if ctx.mul(c1, ctx.pow(x, 3)) ^ ctx.mul(c2, x) ^ c1sq == 0:
            roots.add(x)
    return roots
