"""A frozen copy of `construct.gold_support` as it stood when subfields were
tuples of ints and the zero set was collected one element at a time in
Python: the oracle of the differential test in test_construct.py.  It finds
its subfields by powers, as `test_construct._subfield_by_powers` does, not
as the kernel of X^(2^ell) + X, and returns the support as a sorted list of
ints.  Only the subfields and the return value differ from that function;
keep it as it is."""

from __future__ import annotations


def _subfield_by_powers(ctx, ell: int) -> list[int]:
    """GF(2^ell), sorted: 0 and the powers of alpha^((2^m - 1) / (2^ell - 1))."""
    g = ctx.pow(ctx.alpha, ctx.n // ((1 << ell) - 1))
    return sorted({0} | {ctx.pow(g, k) for k in range(1 << ell)})


def gold_support(ctx, i: int) -> list[int]:
    if i < 1 or ctx.m % (2 * i):
        raise ValueError(f"2i = {2 * i} must divide m = {ctx.m}")
    elems = _subfield_by_powers(ctx, 2 * i)
    half = _subfield_by_powers(ctx, i)
    beta = next(x for x in elems if x not in half)
    mask = ctx.trace_mask(2 * i)  # the trace of GF(2^2i) onto GF(2)
    d = 1 << i
    support = [x for x in elems if not (ctx.mul(beta, ctx.pow(x, d + 1)) & mask).bit_count() & 1]
    assert len(support) == (1 << (2 * i - 1)) - (1 << (i - 1))
    return support
