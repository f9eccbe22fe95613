"""Linearized polynomials as GF(2)-linear maps on GF(2^m): annihilators of
subspaces via Moore systems, image polynomials via symbolic division,
kernels, and the quartic trick for affine cubics.
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


def _field_solve(ctx, matrix: list[list[int]], rhs: list[int]) -> list[int]:
    """Gaussian elimination for a square system over GF(2^m)."""
    s = len(matrix)
    aug = [matrix[r][:] + [rhs[r]] for r in range(s)]
    for col in range(s):
        piv = next((r for r in range(col, s) if aug[r][col]), None)
        if piv is None:
            raise DependentGenerators("singular Moore system")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = ctx.inv(aug[col][col])
        aug[col] = [ctx.mul(inv, v) for v in aug[col]]
        for r in range(s):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [aug[r][j] ^ ctx.mul(f, aug[col][j]) for j in range(s + 1)]
    return [aug[r][s] for r in range(s)]


def annihilator(ctx, gens: Sequence[int]) -> LinearizedPoly:
    """The monic linearized polynomial A(X) = X^(2^s) + a_{s-1} X^(2^(s-1))
    + ... + a_0 X vanishing exactly on span(gens), s = len(gens).

    The coefficients solve the Moore system whose rows are
    (g, g^2, ..., g^(2^(s-1))) with right-hand side g^(2^s); the Moore
    matrix is invertible exactly when the generators are independent.
    """
    gens = list(gens)
    if not gflinalg.independent(ctx, gens):
        raise DependentGenerators("annihilator generators are dependent")
    s = len(gens)
    if s == 0:
        return LinearizedPoly(ctx, (1,))
    matrix = [[ctx.pow(g, 1 << j) for j in range(s)] for g in gens]
    rhs = [ctx.pow(g, 1 << s) for g in gens]
    low = _field_solve(ctx, matrix, rhs)
    return LinearizedPoly(ctx, tuple(low) + (1,))


def matrix_cols(poly: LinearizedPoly) -> list[int]:
    """Columns of the map's m x m matrix: column k is P(alpha^k)."""
    return [lin_eval(poly, 1 << k) for k in range(poly.ctx.m)]


def lin_kernel(poly: LinearizedPoly) -> list[int]:
    """Basis of {x : P(x) = 0}."""
    return gflinalg.LinearMap(matrix_cols(poly), poly.ctx.m).kernel


def image_poly(ctx, U_basis: Sequence[int]) -> LinearizedPoly:
    """The unique monic linearized polynomial B of degree 2^(m-k) whose
    image is span(U_basis), k = len(U_basis).

    B is the right factor in the symbolic factorization
    A_U(B(X)) = X^(2^m) + X, where A_U is the annihilator of span(U_basis);
    the composition equations are triangular in B's coefficients and are
    solved by descending degree, each step taking one 2^(-k)-th root.
    """
    m = ctx.m
    k = len(U_basis)
    if k == 0:
        # the zero map: X^(2^m) + X kills everything
        return LinearizedPoly(ctx, (1,) + (0,) * (m - 1) + (1,))
    a = annihilator(ctx, U_basis).coeffs  # a[0..k], a[k] = 1
    r = m - k
    b = [0] * (r + 1)
    b[r] = 1
    for t in range(m - 1, k - 1, -1):
        acc = 0
        for i in range(k):
            j = t - i
            if 0 <= j <= r and a[i] and b[j]:
                acc ^= ctx.mul(a[i], ctx.pow(b[j], 1 << i))
        b[t - k] = ctx.frobenius(acc, -k)
    # the remaining composition coefficients must come out as X^(2^m) + X
    for t in range(k):
        acc = 0
        for i in range(k + 1):
            j = t - i
            if 0 <= j <= r and a[i] and b[j]:
                acc ^= ctx.mul(a[i], ctx.pow(b[j], 1 << i))
        assert acc == (1 if t == 0 else 0), "image polynomial division failed"
    return LinearizedPoly(ctx, tuple(b))


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
