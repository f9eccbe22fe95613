"""Linearized polynomials as GF(2)-linear maps on GF(2^m), each evaluated
on values and never expanded into coefficients.  `annihilator` gives the
subspace polynomial A_V of an s-dimensional V at the points asked for, by
the recursion A <- A^2 + A(v) * A, one step per generator of V (on a field
without built log tables, one array product each); `verify` keeps its own
copy.  For a support, V is spanned by trace-dual vectors and asked for at
the other dual vectors; there the trace-orthogonal complement of V, of
dimension r = m - s, gives the same values in r - 1 steps of the
recursion and without the dual basis, which the cost rule prefers at
large s.
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

# The complement's extra cost without built tables, in array products of
# the direct route: its finish (one inversion, 2r scalar products, one
# Frobenius pass; 30 us at r = 4) and its steps over r(r + 1) values, not
# r + s.  The two routes took equal time at s = 14..20 for m = 24..32, in
# process, where r - 1 + 6 met s within one product.
_COMPLEMENT_EXTRA = 6


def annihilator(
    ctx, gens: Sequence[int], points: Sequence[int] | None = None, basis: Sequence[int] | None = None
) -> list[int]:
    """Values of the subspace polynomial A_V, the monic linearized
    polynomial of degree 2^s vanishing exactly on an s-dimensional V.

    Value form (basis None): A_V(x) for each x in points, V = span(gens),
    by `_recursion`; dependent gens raise ValueError.

    Dual form: basis is a basis b_1..b_m of GF(2^m) over GF(2), gens a
    range C of its indices, V = span(b'_c : c in C) of the trace-dual
    vectors, and the result is A_V(b'_k) for the r = m - s indices k
    outside C, ascending (points is unused).  Two routes give the same
    values.  "direct" takes the dual basis and runs `_recursion` over V,
    s steps; "complement" takes no dual basis: V is the trace-orthogonal
    complement of U = span(b_k : k outside C), and r - 1 steps over U give
    all r values (`_complement`).  `_dual_route` picks the cheaper; on
    either a dependent primal set raises ValueError."""
    if basis is None:
        return _recursion(ctx, gens, points)
    rest = [k for k in range(len(basis)) if k not in gens]
    if _dual_route(ctx, len(gens), len(rest)) == "direct":
        dual = gflinalg.dual_basis(ctx, basis)
        return _recursion(ctx, [dual[c] for c in gens], [dual[k] for k in rest])
    return _complement(ctx, [basis[k] for k in rest], len(gens))


def _recursion(ctx, gens: Sequence[int], points: Sequence[int]) -> list[int]:
    """A_V(x) for each x in points, V = span(gens), s = len(gens).  From
    A = X, A_V^2 + A_V(v) * A_V vanishes on V and on V + v (Lidl and
    Niederreiter, Finite Fields, 3.4), so it is A_{V + <v>}: on values,
    each generator v maps every tracked value a (the points, the generators
    not yet used) to a * (a + A(v)).  A(v) = 0 exactly when v lies in V,
    which refuses dependent generators on the way.  Without built log
    tables the tracked values are one uint64 array and each generator one
    `mul_array`; with them, scalar products are cheaper."""
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


def _complement(ctx, prim: Sequence[int], s: int) -> list[int]:
    """A_V(b'_k) for each primal vector b_k in prim, where V, of dimension
    s, is the trace-orthogonal complement of U = span(prim), r = len(prim)
    = m - s, and b'_k the dual vectors of any basis extending prim.

    A_V(x) = sum over k of Tr(b_k x) w_k with w_k = A_V(b'_k).  A_V is
    monic of 2-degree s, so its coefficients of x^(2^t), t = s..m-1, give
    the r x r Moore system sum over k of w_k b_k^(2^t) = [t = s], solved by
    w_k = (a_0(U_k) / A_{U_k}(b_k))^(2^s), U_k = span(prim but b_k), a_0
    the coefficient of x (Lidl and Niederreiter, Finite Fields, 2.3 and
    3.4).  Row k runs the recursion over U_k, tracking the primal vectors
    not yet used, b_k, and a_0, the product of the A(v) met: r - 1 steps,
    each one `mul_array` over all rows without built tables.  Every row
    ends at one c = a_0(U) = a_0(U_k) A_{U_k}(b_k), so the quotient is
    a_0(U_k)^2 / c, with one inversion; c = 0 or a zero A(v) means prim is
    dependent."""
    if not prim:
        return []
    r = len(prim)
    rows = [[*prim[:k], *prim[k + 1:], b, 1] for k, b in enumerate(prim)]
    arrays = not ctx.tables_built
    if arrays:
        rows = np.array(rows, dtype=np.uint64)
    for _ in range(r - 1):
        if arrays:
            w, rows = rows[:, :1], rows[:, 1:]
            if not w.all():
                raise ValueError("annihilator generators are dependent")
            by = rows ^ w
            by[:, -1:] = w  # a_0 times A(v)
            rows = ctx.mul_array(rows.ravel(), by.ravel()).reshape(r, -1)
        else:
            if not all(row[0] for row in rows):
                raise ValueError("annihilator generators are dependent")
            rows = [[ctx.mul(a, a ^ w) for a in rest] + [ctx.mul(a_0, w)]
                    for w, *rest, a_0 in rows]
    a_0s = [int(row[1]) for row in rows]  # each row ends at (A_{U_k}(b_k), a_0(U_k))
    c = ctx.mul(a_0s[0], int(rows[0][0]))
    if not c:
        raise ValueError("annihilator generators are dependent")
    c_inv = ctx.inv(c)
    quot = [ctx.mul(ctx.mul(a, a), c_inv) for a in a_0s]
    if ctx.tables_built:
        return [ctx.pow(q, 1 << s) for q in quot]
    return ctx.frobenius_array(np.array(quot, dtype=np.uint64), s).tolist()


def _dual_route(ctx, s: int, r: int) -> str:
    """The cheaper route of the dual form of `annihilator`, by counted
    products.  Without built log tables each step is one `mul_array`:
    "direct" takes s, "complement" r - 1 and a fixed extra of
    _COMPLEMENT_EXTRA.  With tables each product is a scalar lookup:
    "direct" takes s r + s (s - 1) / 2 (r points and the s - 1 - t
    generators left at step t), "complement" r (r - 1) (r + 2) / 2 for
    its steps (r rows of r + 1 - t values at step t) and 2 r to finish;
    ties go to "direct"."""
    if not ctx.tables_built:
        direct, complement = s, r - 1 + _COMPLEMENT_EXTRA
    else:
        direct, complement = s * r + s * (s - 1) // 2, r * (r - 1) * (r + 2) // 2 + 2 * r
    return "complement" if complement < direct else "direct"


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
    m = ctx.m
    return [a ^ b ^ c for a, b, c in zip(
        ctx.alpha_steps(c1, 4, m), ctx.alpha_steps(c2, 2, m), ctx.alpha_steps(ctx.mul(c1, c1), 1, m)
    )]


def cube_roots(ctx, z: int) -> set[int]:
    """All cube roots of z: for z != 0 the roots of z*X^3 + z^2, since
    that is z * (X^3 + z).  One root for odd m; for even m three, or none
    when z is a cubic non-residue."""
    return affine_cubic_roots(ctx, z, 0) if z else {0}


def artin_schreier_solve(ctx, w: int) -> set[int]:
    """Solution set of x^2 + x = w, the preimage of w under X^2 + X: a
    coset of {0, 1}, empty when Tr(w) = 1."""
    cols = [a ^ (1 << k) for k, a in enumerate(ctx.alpha_steps(1, 2, ctx.m))]  # X^2 + X
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

