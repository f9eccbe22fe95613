"""Assemble explicit codeword supports from equation solutions, convert them
between designed distances at the support level, and build the Gold-function
and Grigorescu-Kaufman special supports.  `METHODS` registers every way of
building a support, and `generate` runs one of them behind the range check
and the self-verification gate.

Every method builds its support compressed as X + span(B) (a small set plus
a subspace basis); `generate` expands it to an explicit element set and
certifies that set through X + span(B) (`verify.is_min_weight_affine`).
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import gflinalg, linearized, solvers, verify
from .solvers import SolutionVector, UncoveredCase


class UnverifiedSupport(RuntimeError):
    """Self-verification refused a generated support."""


class DegenerateY(ValueError):
    """The six Grigorescu-Kaufman elements collapse for this y."""


@dataclass(frozen=True)
class SupportSpec:
    """Compressed support X + span(B) of a distance-d(m, s, i) codeword: X,
    2^(2i-1) - 2^(i-1) elements, one per coset of span(B), in a sorted,
    read-only np.uint64 array; B, an independent basis of m - 2i - s."""

    ctx: object
    x_set: np.ndarray
    basis: tuple[int, ...]

    @property
    def weight(self) -> int:
        return len(self.x_set) << len(self.basis)


@dataclass(frozen=True, eq=False)
class CodewordSupport:
    """Explicit support of a claimed codeword of eBCH(d) (coordinates are
    all of GF(2^m)) or, punctured, of BCH(d) (coordinates are the nonzero
    elements).  `elems` is given as any iterable of ints (or an integer
    array) and held as a sorted, duplicate-free, read-only np.uint64 array;
    repeated elements and elements outside GF(2^m) raise ValueError.
    Supports compare by identity: compare their `elems` with
    np.array_equal."""

    ctx: object
    elems: np.ndarray
    claimed_distance: int
    extended: bool

    def __post_init__(self):
        # ints beyond int64 make an object (or float) array, refused below
        elems = self.elems if isinstance(self.elems, np.ndarray) else np.array(list(self.elems))
        if np.count_nonzero(elems[1:] <= elems[:-1]):  # not sorted and distinct
            elems = np.sort(elems)
            if repeated := np.count_nonzero(elems[1:] == elems[:-1]):
                raise ValueError(f"{repeated} repeated support entries")
        if len(elems) and not 0 <= elems[0] <= elems[-1] <= self.ctx.n:
            raise ValueError(f"support elements must lie in GF(2^{self.ctx.m})")
        elems = elems.astype(np.uint64, copy=False).view()  # the caller's array stays writable
        elems.flags.writeable = False
        object.__setattr__(self, "elems", elems)

    @property
    def weight(self) -> int:
        return len(self.elems)


@functools.lru_cache(maxsize=None)
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

    The solution entries are completed to a basis b_1..b_m, whose
    trace-dual basis b'_1..b'_m splits into quadratic-form generators
    (first 2i), the annihilated directions (next s), and the free subspace
    part.  With A the annihilator of V = span(b'_{2i+1}, ..., b'_{2i+s}),
    evaluated only at the r = m - s other dual vectors, the support is
      { row-combinations of A(b'_1), ..., A(b'_2i) } + span of the A-images
    of the remaining dual vectors.
    `linearized.annihilator` takes the basis and the collapsed range and
    picks by counted products between s steps of the recursion over V, with
    the dual basis, and r - 1 steps over the r primal vectors outside that
    range, which span the trace-orthogonal complement of V, with no dual
    basis.
    """
    ctx = sol.ctx
    m, i = ctx.m, sol.i
    if not 0 <= s <= m - 2 * i:
        raise UncoveredCase(f"s must be in 0..{m - 2 * i}, got {s}")
    basis = gflinalg.complete_to_basis(ctx, list(sol.b))
    images = linearized.annihilator(ctx, range(2 * i, 2 * i + s), basis=basis)
    gens, tail = tuple(images[: 2 * i]), tuple(images[2 * i :])
    assert gflinalg.independent(ctx, gens + tail)
    x_set = np.sort(gflinalg.span(gens)[list(quadform_rows(i))])
    x_set.flags.writeable = False
    assert len(x_set) == (1 << (2 * i - 1)) - (1 << (i - 1))
    return SupportSpec(ctx, x_set, tail)


def expand(spec: SupportSpec) -> CodewordSupport:
    """Explicit element set X + span(B): one XOR of every x in X with every
    element of span(B), sorted.  Collision-free by construction; a spec
    whose sums collide raises ValueError."""
    elems = np.sort((spec.x_set[:, None] ^ gflinalg.span(spec.basis)).ravel())
    if np.count_nonzero(elems[1:] == elems[:-1]):
        raise ValueError("X + span(B) is smaller than |X| * 2^|B|")
    return CodewordSupport(spec.ctx, elems, spec.weight, extended=True)


def down_convert(cw: CodewordSupport, V_basis) -> CodewordSupport:
    """Image A(S) of the support under the annihilator A of span(V_basis),
    evaluated at its points only, s products each: collapses each coset of
    the subspace to a point and divides the distance by 2^s."""
    if not cw.extended:
        raise ValueError("down-conversion applies to extended supports")
    ctx = cw.ctx
    V_basis = list(V_basis)
    s = len(V_basis)
    new_d = (cw.claimed_distance + (1 << s) - 1) >> s
    if new_d % 2:
        raise ValueError(f"ceil(d / 2^s) = {new_d} must be even")
    for v in V_basis:  # S + v, sorted, is S again
        if not np.array_equal(np.sort(cw.elems ^ np.uint64(v)), cw.elems):
            raise ValueError("support is not a union of cosets of span(V)")
    image = set(linearized.annihilator(ctx, V_basis, cw.elems.tolist()))
    assert len(image) == len(cw.elems) >> s
    return CodewordSupport(ctx, image, new_d, extended=True)


def _lift(cw: CodewordSupport, U_basis) -> SupportSpec:
    """Preimage of the support under the image polynomial B of span(U_basis),
    k = len(U_basis), as X + span(B's m - k kernel vectors), one preimage
    per point in X; A_U and B are evaluated at the m unit vectors only."""
    if not cw.extended:
        raise ValueError("up-conversion applies to extended supports")
    units = [1 << k for k in range(cw.ctx.m)]
    image = gflinalg.LinearMap(linearized.annihilator(cw.ctx, list(U_basis), units)).image
    bmap = gflinalg.LinearMap(linearized.annihilator(cw.ctx, image, units))
    x_set = [bmap.preimage(x) for x in cw.elems.tolist()]  # the image of B is exactly span(U)
    if None in x_set:
        raise ValueError(f"support element {cw.elems[x_set.index(None)]} outside span(U)")
    x_set = np.sort(np.array(x_set, dtype=np.uint64))
    x_set.flags.writeable = False
    return SupportSpec(cw.ctx, x_set, tuple(bmap.kernel))


def up_convert(cw: CodewordSupport, U_basis) -> CodewordSupport:
    """Preimage of the support under the image polynomial of span(U_basis):
    blows each point up to a kernel coset and multiplies the distance by
    2^(m-k)."""
    spec = _lift(cw, U_basis)
    d = cw.claimed_distance << len(spec.basis)
    return CodewordSupport(cw.ctx, expand(spec).elems, d, extended=True)


def gold_support(ctx, i: int) -> CodewordSupport:
    """Zero set of x -> Tr(beta * x^(2^i + 1)) on the subfield GF(2^2i),
    for the first subfield element beta outside GF(2^i); a weight
    2^(2i-1) - 2^(i-1) member of the matching extended BCH code whenever
    2i | m, taken over the whole subfield at once."""
    if i < 1 or ctx.m % (2 * i):
        raise UncoveredCase(f"2i = {2 * i} must divide m = {ctx.m}")
    elems, _ = linearized.subfield(ctx, 2 * i)
    half, _ = linearized.subfield(ctx, i)
    beta = int(elems[np.argmax(np.append(elems[:len(half)] != half, True))])  # both sorted
    x = elems[1:]  # the units; 0, first in elems, is a zero of the map
    if ctx.has_logs:
        y = ((1 << i) + 1) * ctx.logs(x).astype(np.int64) + ctx.log(beta)
        y = ctx.elems(y % ctx.n)
    else:
        y = ctx.mul_array(ctx.mul_array(ctx.frobenius_array(x, i), x), np.full_like(x, beta))
    zeros = (np.bitwise_count(y & ctx.trace_mask(2 * i)) & 1) == 0
    support = np.concatenate((elems[:1], x[zeros]))
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
    return CodewordSupport(ctx, elems, 6, extended=True)


def puncture(cw: CodewordSupport, x: int) -> CodewordSupport:
    """Translate the support by one of its own elements and drop the zero
    coordinate: an extended weight-d support becomes a weight-(d-1) support
    of the punctured code."""
    if not cw.extended:
        raise ValueError("puncturing applies to extended supports")
    if x not in cw.elems:
        raise ValueError(f"{x} is not in the support")
    elems = cw.elems ^ np.uint64(x)
    return CodewordSupport(cw.ctx, elems[elems != 0], cw.claimed_distance - 1, extended=False)


class Method(NamedTuple):
    """A `--method`, named by its key in METHODS: the i it builds (None:
    any i), whether `auto` routes m to it, whether it draws from the seed
    (through `solvers.draws`, capped by the `max_retries` keyword of the call),
    and the call (ctx, i, s, seed, **max_retries) -> the support's SupportSpec."""

    i: int | None
    auto: Callable[[int], bool]
    seeded: bool
    call: Callable[..., SupportSpec]


def _lifted(cw: CodewordSupport, i: int, s: int) -> SupportSpec:
    """A support built at s = m - 2i, as X + span(B) at s: at that s it is X,
    with no basis; below it, it is lifted over its span completed by unit
    vectors to dimension 2i + s."""
    if s == cw.ctx.m - 2 * i:
        return SupportSpec(cw.ctx, cw.elems, ())
    span = gflinalg.LinearMap(cw.elems.tolist()).image
    return _lift(cw, gflinalg.complete_to_basis(cw.ctx, span)[: 2 * i + s])


def _gk_drawn(ctx, seed: int, max_retries: int = 64) -> CodewordSupport:
    """`gk_support` at the first nondegenerate y; at most 1/4 of y are degenerate."""
    for _, rng in solvers.draws(seed, max_retries, "no nondegenerate y in {} draws"):
        with contextlib.suppress(DegenerateY):
            return gk_support(ctx, rng.getrandbits(ctx.m))


def _fixed(i: int, auto: Callable[[int], bool], solver: str) -> Method:
    """The method that builds from `solvers.<solver>(ctx)`, which draws nothing."""
    return Method(i, auto, False, lambda ctx, i, s, seed, **kw: build_support(
        getattr(solvers, solver)(ctx).solution, s))


def _drawn(i: int, auto: Callable[[int], bool], solver: str) -> Method:
    """The method that builds from `solvers.<solver>(ctx, seed, **max_retries)`."""
    return Method(i, auto, True, lambda ctx, i, s, seed, **kw: build_support(
        getattr(solvers, solver)(ctx, seed, **kw).solution, s))


# In auto-routing order: `auto` takes the first method for i whose predicate
# holds, so i2even and i3even win on even m.  The calls look their steps up
# by name when they run, so wrappers installed on the modules are honoured.
METHODS: dict[str, Method] = {
    "i2even": _fixed(2, lambda m: m >= 4 and m % 2 == 0, "solve_i2_even"),
    "i2odd": _drawn(2, lambda m: m >= 5, "solve_i2_odd"),
    "i2composite": Method(
        2, lambda m: False, False,
        lambda ctx, i, s, seed, **kw: build_support(
            solvers.solve_i2_composite(ctx, *solvers.coprime_split(ctx.m)).solution, s),
    ),
    "i3even": _drawn(3, lambda m: m >= 6 and m % 2 == 0, "solve_i3_even"),
    "i3heuristic": _drawn(3, lambda m: m >= 7, "solve_i3_heuristic"),
    "i4": _fixed(4, lambda m: m >= 8 and m % 4 == 0, "solve_i4"),
    "gold": Method(
        None, lambda m: False, False,
        lambda ctx, i, s, seed, **kw: _lifted(gold_support(ctx, i), i, s),
    ),
    "gk": Method(
        2, lambda m: False, True,
        lambda ctx, i, s, seed, **kw: _lifted(_gk_drawn(ctx, seed, **kw), i, s),
    ),
}


def generate(
    ctx, i: int, s: int, seed: int = 0, method: str = "auto", max_retries: int | None = None
) -> tuple[CodewordSupport, dict, SupportSpec]:
    """A verified d(m, s, i) support built by `method` (`auto`: the first
    that covers (m, i)), its metadata and the SupportSpec it was expanded
    from.  The gate certifies the support, which must be exactly
    X + span(B), through Y = A_V(X) (`verify.is_min_weight_affine`).
    Uncovered cases raise UncoveredCase before any method runs; a spec or
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
    spec = entry.call(ctx, i, s, seed, **kw)
    try:
        cw = expand(spec)
        # what is emitted, the support and the spec, must be one set X + span(B)
        verdict = verify.is_min_weight_affine(
            ctx, spec.x_set, spec.basis, cw.claimed_distance, cw.elems
        )
    except ValueError as exc:  # a spec, an expansion or a support the verifier refuses
        raise UnverifiedSupport(f"refusing to emit unverified support: {exc}") from exc
    if not verdict.is_min_weight:
        raise UnverifiedSupport(f"refusing to emit unverified support: {verdict}")
    return cw, {"i": i, "s": s, "method": method, "seed": seed if entry.seeded else None}, spec
