"""Assemble explicit codeword supports from equation solutions, convert them
between designed distances at the support level, and build the Gold-function
and Grigorescu-Kaufman special supports.  `METHODS` registers every way of
building a support, and `generate` runs one of them behind the range check
and the self-verification gate.

A support is kept compressed as X + span(B) (a small set plus a subspace
basis) until expanded to an explicit element set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import gflinalg, linearized, solvers, verify
from .solvers import SolutionVector, UncoveredCase


class UnverifiedSupport(RuntimeError):
    """Self-verification refused a generated support."""


class DegenerateY(ValueError):
    """The six Grigorescu-Kaufman elements collapse for this y."""


@dataclass(frozen=True)
class SupportSpec:
    """Compressed support X + span(B) of a distance-d(m, s, i) codeword.

    x_generators are the 2i independent elements whose bit-combinations
    listed by the quadratic-form rows make up x_set; solution is the
    equation solution the construction started from.
    """

    ctx: object
    x_set: frozenset
    basis: tuple[int, ...]
    i: int
    s: int
    solution: tuple[int, ...]
    x_generators: tuple[int, ...]

    @property
    def weight(self) -> int:
        return len(self.x_set) << len(self.basis)


@dataclass(frozen=True)
class CodewordSupport:
    """Explicit support of a claimed codeword of eBCH(d) (coordinates are
    all of GF(2^m)) or, punctured, of BCH(d) (coordinates are the nonzero
    elements)."""

    ctx: object
    elems: frozenset
    claimed_distance: int
    extended: bool

    @property
    def weight(self) -> int:
        return len(self.elems)


def quadform_rows(i: int) -> tuple[int, ...]:
    """Rows are all (x_1, ..., x_2i) with x_1 x_2 + ... + x_{2i-1} x_{2i} = 1,
    in lexicographic order; bit j-1 of a row int holds x_j."""
    if i < 1:
        raise ValueError("i must be >= 1")
    w = 2 * i
    pairs = int("01" * i, 2)  # bit 2k stands for the pair (x_2k+1, x_2k+2)
    # lexicographic on (x_1, ..., x_2i): x_1 is the MSB of v and bit 0 of row
    lex = (int(f"{v:0{w}b}"[::-1], 2) for v in range(1 << w))
    rows = tuple(row for row in lex if (row & row >> 1 & pairs).bit_count() & 1)
    assert len(rows) == (1 << (w - 1)) - (1 << (i - 1))
    return rows


def build_support(sol: SolutionVector, s: int) -> SupportSpec:
    """Support of the distance-d(m, s, i) codeword seeded by sol.

    The solution entries are completed to a basis, whose trace-dual basis
    b'_1..b'_m splits into quadratic-form generators (first 2i), the
    annihilated directions (next s), and the free subspace part.  With A
    the annihilator of span(b'_{2i+1}, ..., b'_{2i+s}), the support is
      { row-combinations of A(b'_1), ..., A(b'_2i) } + span of the A-images
    of the remaining dual vectors.
    """
    ctx = sol.ctx
    m, i = ctx.m, sol.i
    if not 0 <= s <= m - 2 * i:
        raise UncoveredCase(f"s must be in 0..{m - 2 * i}, got {s}")
    basis = gflinalg.complete_to_basis(ctx, list(sol.b))
    dual = gflinalg.dual_basis(ctx, basis)
    ann = linearized.annihilator(ctx, dual[2 * i : 2 * i + s])
    gens = tuple(linearized.lin_eval(ann, bp) for bp in dual[: 2 * i])
    tail = tuple(linearized.lin_eval(ann, bp) for bp in dual[2 * i + s :])
    assert gflinalg.independent(ctx, gens + tail)
    sums = gflinalg.span(gens)
    x_set = {sums[row] for row in quadform_rows(i)}
    assert len(x_set) == (1 << (2 * i - 1)) - (1 << (i - 1))
    return SupportSpec(
        ctx=ctx,
        x_set=frozenset(x_set),
        basis=tail,
        i=i,
        s=s,
        solution=sol.b,
        x_generators=gens,
    )


def expand(spec: SupportSpec) -> CodewordSupport:
    """Explicit element set X + span(B); collision-free by construction."""
    elems = set()
    for v in gflinalg.span(spec.basis):
        elems.update(x ^ v for x in spec.x_set)
    if len(elems) != spec.weight:
        raise ValueError("X + span(B) is smaller than |X| * 2^|B|")
    return CodewordSupport(spec.ctx, frozenset(elems), spec.weight, extended=True)


def down_convert(cw: CodewordSupport, V_basis) -> CodewordSupport:
    """Image A(S) of the support under the annihilator A of span(V_basis):
    collapses each coset of the subspace to a point and divides the
    distance by 2^s."""
    if not cw.extended:
        raise ValueError("down-conversion applies to extended supports")
    ctx = cw.ctx
    V_basis = list(V_basis)
    s = len(V_basis)
    new_d = (cw.claimed_distance + (1 << s) - 1) >> s
    if new_d % 2:
        raise ValueError(f"ceil(d / 2^s) = {new_d} must be even")
    for v in V_basis:
        for x in cw.elems:
            if x ^ v not in cw.elems:
                raise ValueError("support is not a union of cosets of span(V)")
    ann = linearized.annihilator(ctx, V_basis)
    image = {linearized.lin_eval(ann, x) for x in cw.elems}
    assert len(image) == len(cw.elems) >> s
    return CodewordSupport(ctx, frozenset(image), new_d, extended=True)


def up_convert(cw: CodewordSupport, U_basis) -> CodewordSupport:
    """Preimage of the support under the image polynomial of span(U_basis):
    blows each point up to a kernel coset and multiplies the distance by
    2^(m-k)."""
    if not cw.extended:
        raise ValueError("up-conversion applies to extended supports")
    ctx = cw.ctx
    U_basis = list(U_basis)
    bpoly = linearized.image_poly(ctx, U_basis)
    bmap = gflinalg.LinearMap(linearized.matrix_cols(bpoly), ctx.m)
    kernel = gflinalg.span(bmap.kernel)
    preimage = set()
    for x in cw.elems:
        # the image of B is exactly span(U)
        x0 = bmap.preimage(x)
        if x0 is None:
            raise ValueError(f"support element {x} outside span(U)")
        preimage.update(x0 ^ v for v in kernel)
    factor = 1 << (ctx.m - len(U_basis))
    assert len(preimage) == len(cw.elems) * factor
    return CodewordSupport(
        ctx, frozenset(preimage), cw.claimed_distance * factor, extended=True
    )


def gold_support(ctx, i: int) -> CodewordSupport:
    """Zero set of x -> Tr(beta * x^(2^i + 1)) on the subfield GF(2^2i),
    for the first subfield element beta outside GF(2^i); a weight
    2^(2i-1) - 2^(i-1) member of the matching extended BCH code whenever
    2i | m."""
    if i < 1 or ctx.m % (2 * i):
        raise UncoveredCase(f"2i = {2 * i} must divide m = {ctx.m}")
    elems, _ = linearized.subfield(ctx, 2 * i)
    half, _ = linearized.subfield(ctx, i)
    beta = next(x for x in elems if x not in half)
    tr = linearized.LinearizedPoly(ctx, (1,) * (2 * i))  # trace of GF(2^2i) onto GF(2)
    d = 1 << i
    support = frozenset(
        x for x in elems if linearized.lin_eval(tr, ctx.mul(beta, ctx.pow(x, d + 1))) == 0
    )
    weight = (1 << (2 * i - 1)) - (1 << (i - 1))
    assert len(support) == weight
    return CodewordSupport(ctx, support, weight, extended=True)


def gk_support(ctx, y: int) -> CodewordSupport:
    """The explicit six-element support {0, 1, 1+y^4, y+y^2+y^4,
    y^2+y^3+y^4, y+y^3+y^4} of a weight-6 word of eBCH(6)."""
    if ctx.m < 4:
        raise ValueError("m >= 4 required")
    y2 = ctx.mul(y, y)
    y3 = ctx.mul(y2, y)
    y4 = ctx.mul(y2, y2)
    elems = {0, 1, 1 ^ y4, y ^ y2 ^ y4, y2 ^ y3 ^ y4, y ^ y3 ^ y4}
    if len(elems) != 6:
        raise DegenerateY(f"six elements collapse for y={y}")
    return CodewordSupport(ctx, frozenset(elems), 6, extended=True)


def puncture(cw: CodewordSupport, x: int) -> CodewordSupport:
    """Translate the support by one of its own elements and drop the zero
    coordinate: an extended weight-d support becomes a weight-(d-1) support
    of the punctured code."""
    if not cw.extended:
        raise ValueError("puncturing applies to extended supports")
    if x not in cw.elems:
        raise ValueError(f"{x} is not in the support")
    elems = {x ^ e for e in cw.elems}
    elems.discard(0)
    return CodewordSupport(
        cw.ctx, frozenset(elems), cw.claimed_distance - 1, extended=False
    )


class Method(NamedTuple):
    """A `--method`: the i it builds (None: any i), whether `auto` routes m
    to it, and the call (ctx, i, s, seed, **retry cap) -> (support, whether
    the seed is recorded, the SupportSpec it was expanded from or None)."""

    i: int | None
    auto: Callable[[int], bool]
    call: Callable[..., tuple]


def _solved(report: solvers.SolverReport, s: int) -> tuple:
    """The support assembled at s from a solver's solution."""
    spec = build_support(report.solution, s)
    return expand(spec), report.rng_seed is not None, spec


def _lifted(cw: CodewordSupport, i: int, s: int, seeded: bool) -> tuple:
    """A support built at s = m - 2i, up-converted to s over its span
    completed by unit vectors to dimension 2i + s; the seed is recorded iff
    the support was drawn from it."""
    if s < cw.ctx.m - 2 * i:
        span = gflinalg.LinearMap(sorted(cw.elems), cw.ctx.m).image
        cw = up_convert(cw, gflinalg.complete_to_basis(cw.ctx, span)[: 2 * i + s])
    return cw, seeded, None


def _gk_drawn(ctx, seed: int) -> CodewordSupport:
    """`gk_support` at the first nondegenerate y drawn from the seed."""
    rng = random.Random(seed)
    while True:
        try:
            return gk_support(ctx, rng.getrandbits(ctx.m))
        except DegenerateY:
            continue


# In auto-routing order: `auto` takes the first method for i whose predicate
# holds, so i2even and i3even win on even m.  The calls look their steps up
# by name when they run, so wrappers installed on the modules are honoured.
METHODS: dict[str, Method] = {
    solvers.I2_EVEN: Method(
        2,
        lambda m: m >= 4 and m % 2 == 0,
        lambda ctx, i, s, seed, **kw: _solved(solvers.solve_i2_even(ctx), s),
    ),
    solvers.I2_ODD: Method(
        2,
        lambda m: m >= 5,
        lambda ctx, i, s, seed, **kw: _solved(solvers.solve_i2_odd(ctx, seed, **kw), s),
    ),
    solvers.I2_COMPOSITE: Method(
        2,
        lambda m: False,
        lambda ctx, i, s, seed, **kw: _solved(
            solvers.solve_i2_composite(ctx, *solvers.coprime_split(ctx.m)), s
        ),
    ),
    solvers.I3_EVEN: Method(
        3,
        lambda m: m >= 6 and m % 2 == 0,
        lambda ctx, i, s, seed, **kw: _solved(solvers.solve_i3_even(ctx, seed, **kw), s),
    ),
    solvers.I3_HEURISTIC: Method(
        3,
        lambda m: m >= 7,
        lambda ctx, i, s, seed, **kw: _solved(solvers.solve_i3_heuristic(ctx, seed, **kw), s),
    ),
    solvers.I4_DIV4: Method(
        4,
        lambda m: m >= 8 and m % 4 == 0,
        lambda ctx, i, s, seed, **kw: _solved(solvers.solve_i4(ctx), s),
    ),
    "gold": Method(
        None,
        lambda m: False,
        lambda ctx, i, s, seed, **kw: _lifted(gold_support(ctx, i), i, s, False),
    ),
    "gk": Method(
        2, lambda m: False, lambda ctx, i, s, seed, **kw: _lifted(_gk_drawn(ctx, seed), i, s, True)
    ),
}


def generate(
    ctx, i: int, s: int, seed: int = 0, method: str = "auto", max_retries: int | None = None
) -> tuple[CodewordSupport, dict, SupportSpec | None]:
    """A verified d(m, s, i) support built by `method` (`auto`: the first
    that covers (m, i)), its metadata and its SupportSpec (None for gold
    and gk).  Uncovered cases raise UncoveredCase before any method runs; a
    support the verifier refuses raises UnverifiedSupport."""
    m = ctx.m
    if method == "auto":
        method = next((k for k, e in METHODS.items() if e.i == i and e.auto(m)), method)
    entry = METHODS.get(method)
    if entry is None or entry.i not in (None, i):
        raise UncoveredCase(f"method {method} does not build i={i} at m={m}")
    if i < 0 or not 0 <= s <= m - 2 * i or verify.designed_distance(m, s, i) < 2:
        raise UncoveredCase(f"need s in 0..{m - 2 * i} and d({m}, {s}, {i}) >= 2, got s={s}")
    kw = {} if max_retries is None else {"max_retries": max_retries}
    cw, seeded, spec = entry.call(ctx, i, s, seed, **kw)
    verdict = verify.is_min_weight(cw)
    if not verdict.is_min_weight:
        raise UnverifiedSupport(f"refusing to emit unverified support: {verdict}")
    return cw, {"i": i, "s": s, "method": method, "seed": seed if seeded else None}, spec
