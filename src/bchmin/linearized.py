"""Linearized polynomials as GF(2)-linear maps on GF(2^m), each evaluated
on values and never expanded into coefficients.  `annihilator` gives the
subspace polynomial A_V at the points asked for, by the recursion
A <- A^2 + A(v) * A (about m*s - s^2/2 products; on a field without log
tables, one array product per generator); `verify` keeps its own copy.
The field equations the solvers need are each a kernel or a preimage of a
map whose columns come from field arithmetic: affine cubics and cube roots
by the quartic trick, Artin-Schreier x^2 + x = w, and subfields as the
kernel of X^(2^ell) + X.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import gflinalg


def annihilator(ctx, gens: Sequence[int], points: Sequence[int]) -> list[int]:
    """A_V(x) for each x in points, where A_V is the monic linearized
    polynomial of degree 2^s vanishing exactly on V = span(gens), s =
    len(gens).  From A = X, A_V^2 + A_V(v) * A_V vanishes on V and on
    V + v (Lidl & Niederreiter, Finite Fields, 3.4), so it is A_{V + <v>}:
    on values, each generator v maps every tracked value a (the points, the
    generators not yet used) to a * (a + A(v)).  A(v) = 0 exactly when v
    lies in V, which refuses dependent generators on the way.  Without built
    log tables the tracked values are one uint64 array and each generator
    one `mul_array`; with them, scalar products are cheaper."""
    vals = [*points, *reversed(gens)]
    arrays = not ctx.tables_built
    if arrays:
        vals = np.array(vals, dtype=np.uint64)
    for _ in gens:
        w, vals = vals[-1], vals[:-1]
        if not w:
            raise ValueError("annihilator generators are dependent")
        vals = ctx.mul_array(vals, vals ^ w) if arrays else [ctx.mul(a, a ^ w) for a in vals]
    return vals.tolist() if arrays else vals


def affine_cubic_roots(ctx, c1: int, c2: int) -> set[int]:
    """All nonzero roots of c1*X^3 + c2*X + c1^2: the nonzero kernel of the
    linearized map x -> c1*x^4 + c2*x^2 + c1^2*x = x * (c1*x^3 + c2*x +
    c1^2).  The root set has size 0, 1, or 3."""
    if c1 == 0:
        raise ValueError("leading cubic coefficient is zero")
    kernel = gflinalg.LinearMap(_quartic_cols(ctx, c1, c2)).kernel  # at most 2 vectors: degree 4
    return {*kernel, *(kernel[0] ^ k for k in kernel[1:])}


def _quartic_cols(ctx, c1: int, c2: int) -> list[int]:
    """Columns of x -> c1*x^4 + c2*x^2 + c1^2*x with one product: column
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
    cols = [a ^ (1 << k) for k, a in enumerate(_alpha_steps(ctx, 1, 2))]  # X^2 + X
    x0 = gflinalg.LinearMap(cols).preimage(w)
    return set() if x0 is None else {x0, x0 ^ 1}


def subfield(ctx, ell: int) -> tuple[np.ndarray, int]:
    """All 2^ell elements of the subfield GF(2^ell), the kernel of
    X^(2^ell) + X, as a sorted, read-only np.uint64 array, plus the first
    generator: the first element not fixed by x -> x^(2^d) for any d < ell.
    Derived from the field and ell alone, and cached per (field, ell) under
    a weak reference, so the cache keeps no field alive."""
    if ell < 1 or ctx.m % ell != 0:
        raise ValueError(f"{ell} does not divide m={ctx.m}")
    return _subfield_cached(weakref.ref(ctx), ell)


@lru_cache(maxsize=256)
def _subfield_cached(field_ref, ell: int) -> tuple[np.ndarray, int]:
    ctx = field_ref()
    fixed = [ctx.frobenius(1 << k, ell) ^ (1 << k) for k in range(ctx.m)]  # X^(2^ell) + X
    elems = np.sort(gflinalg.span(gflinalg.LinearMap(fixed).kernel))
    elems.flags.writeable = False
    gen = next(x for x in map(int, elems[1:])  # elems[0] is 0
               if all(ctx.frobenius(x, d) != x for d in range(1, ell)))
    return elems, gen

