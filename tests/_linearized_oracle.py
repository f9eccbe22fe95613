"""A frozen copy of the coefficient form of linearized polynomials as it
stood before construction and the solvers read every linear map off field
arithmetic: the oracle the value form (`linearized.annihilator`), the
column builders and the Gold trace mask are tested against.  Only the
imports differ, and the docstrings are shortened; keep it as it is."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from bchmin import gflinalg


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
    *low, top = poly.coeffs
    acc = 0
    cur = x
    for a in low:
        if a:
            acc ^= cur if a == 1 else ctx.mul(a, cur)
        cur = ctx.mul(cur, cur)
    return acc ^ (cur if top == 1 else ctx.mul(top, cur))


def annihilator(ctx, gens: Sequence[int]) -> LinearizedPoly:
    """The monic A_V of V = span(gens), by A <- A^2 + A(v) * A from A = X;
    A(v) = 0 refuses a dependent generator."""
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


def matrix_cols(poly: LinearizedPoly) -> list[int]:
    """Columns of the map's m x m matrix: column k is P(alpha^k)."""
    return [lin_eval(poly, 1 << k) for k in range(poly.ctx.m)]


def lin_kernel(poly: LinearizedPoly) -> list[int]:
    """Basis of {x : P(x) = 0}."""
    return gflinalg.LinearMap(matrix_cols(poly)).kernel


def image_poly(ctx, U_basis: Sequence[int]) -> LinearizedPoly:
    """The monic B of degree 2^(m-k) whose image is span(U_basis): the
    annihilator of the image of A_U, since A_U(B(X)) = B(A_U(X)) = X^(2^m) + X."""
    cols = matrix_cols(annihilator(ctx, U_basis))
    image = gflinalg.LinearMap(cols).image
    assert len(image) == ctx.m - len(U_basis)
    return annihilator(ctx, image)
