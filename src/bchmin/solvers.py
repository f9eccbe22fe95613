"""Solvers for the bilinear equation system

    sum_{j odd, j < 2i} (b_j^(2^l) b_{j+1} + b_j b_{j+1}^(2^l)) = 0,
    l = 1, ..., i-1,

whose solutions with GF(2)-independent entries seed minimum-weight codeword
supports.  Deterministic closed forms exist for i=2 (even or coprime
composite m) and i=4 (4 | m); i=2 odd m and i=3 use seeded probabilistic
constructions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from . import gflinalg, linearized


class UncoveredCase(ValueError):
    """No construction covers this (m, i, s, method) combination."""


class RetriesExhausted(RuntimeError):
    """Probabilistic solver hit its retry cap."""


I2_EVEN = "i2even"
I2_ODD = "i2odd"
I2_COMPOSITE = "i2composite"
I3_EVEN = "i3even"
I3_HEURISTIC = "i3heuristic"
I4_DIV4 = "i4"


def f_j(ctx, j: int, x1: int, x2: int) -> int:
    """x1^(2^j) * x2 + x1 * x2^(2^j); homogeneous of degree 2^j + 1."""
    return ctx.mul(ctx.pow(x1, 1 << j), x2) ^ ctx.mul(x1, ctx.pow(x2, 1 << j))


def check_system(ctx, b) -> bool:
    """True iff the 2i-tuple satisfies all i-1 equations."""
    if len(b) % 2 or len(b) < 4:
        raise ValueError("need an even number >= 4 of entries")
    i = len(b) // 2
    if i > ctx.m // 2:
        raise ValueError(f"i={i} exceeds floor(m/2) for m={ctx.m}")
    for ell in range(1, i):
        acc = 0
        for j in range(0, 2 * i, 2):
            acc ^= f_j(ctx, ell, b[j], b[j + 1])
        if acc:
            return False
    return True


@dataclass(frozen=True)
class SolutionVector:
    """A checked solution: satisfies the equation system and has
    GF(2)-independent entries."""

    ctx: object
    b: tuple[int, ...]

    def __post_init__(self):
        if not check_system(self.ctx, self.b):
            raise ValueError("tuple does not satisfy the equation system")
        if not gflinalg.independent(self.ctx, self.b):
            raise ValueError("tuple entries are not GF(2)-independent")

    @property
    def i(self) -> int:
        return len(self.b) // 2


@dataclass(frozen=True)
class SolverReport:
    solution: SolutionVector | None
    trials: int
    rng_seed: int | None
    method: str


def solve_i2_even(ctx) -> SolverReport:
    """Deterministic i=2 solution (1, alpha, c, c*alpha) for even m >= 4,
    with c generating GF(4)*."""
    if ctx.m % 2 or ctx.m < 4:
        raise UncoveredCase(f"even m >= 4 required, got m={ctx.m}")
    _, c = linearized.subfield(ctx, 2)
    b = (1, ctx.alpha, c, ctx.mul(c, ctx.alpha))
    return SolverReport(SolutionVector(ctx, b), 1, None, I2_EVEN)


def solve_i2_odd(ctx, rng_seed: int, max_retries: int = 64) -> SolverReport:
    """Probabilistic i=2 solution for odd m >= 5.

    With v = 1 and v' = alpha fixed, a uniform c outside {0, v, v'} yields
    the cube-root tuple
      (cbrt(v^2/(c+v)), cbrt((c+v)^2/v), cbrt(v'^2/(c+v')), cbrt((c+v')^2/v')),
    which always satisfies the equation; only independence can fail, for at
    most a handful of bad c per field.
    """
    if ctx.m % 2 == 0 or ctx.m < 5:
        raise UncoveredCase(f"odd m >= 5 required, got m={ctx.m}")
    rng = random.Random(rng_seed)
    v, vp = 1, ctx.alpha
    inv3 = pow(3, -1, ctx.n)

    def cbrt(x):
        return ctx.pow(x, inv3)

    for attempt in range(1, max_retries + 1):
        while True:
            c = rng.getrandbits(ctx.m)
            if c not in (0, v, vp):
                break
        b = (
            cbrt(ctx.mul(ctx.mul(v, v), ctx.inv(c ^ v))),
            cbrt(ctx.mul(ctx.mul(c ^ v, c ^ v), ctx.inv(v))),
            cbrt(ctx.mul(ctx.mul(vp, vp), ctx.inv(c ^ vp))),
            cbrt(ctx.mul(ctx.mul(c ^ vp, c ^ vp), ctx.inv(vp))),
        )
        if gflinalg.independent(ctx, b):
            return SolverReport(SolutionVector(ctx, b), attempt, rng_seed, I2_ODD)
    raise RetriesExhausted(f"no independent i=2 solution in {max_retries} draws")


def solve_i2_composite(ctx, ell: int, t: int) -> SolverReport:
    """Deterministic i=2 solution (1, x, a, b) for m = ell * t with
    gcd(ell, t) = 1, min >= 2, max >= 3: a, b generate the two subfields and
    x solves x^2 + x = a^2 b + a b^2 (solvable since a^2 b and a b^2 are
    Galois conjugates)."""
    if (
        ell * t != ctx.m
        or min(ell, t) < 2
        or max(ell, t) < 3
        or gcd(ell, t) != 1
    ):
        raise UncoveredCase(
            f"need m = ell*t, gcd 1, min >= 2, max >= 3; got ell={ell}, t={t}, m={ctx.m}"
        )
    _, a = linearized.subfield(ctx, ell)
    _, b = linearized.subfield(ctx, t)
    w = ctx.mul(ctx.mul(a, a), b) ^ ctx.mul(a, ctx.mul(b, b))
    sols = linearized.artin_schreier_solve(ctx, w)
    assert sols, "trace obstruction cannot occur for conjugate products"
    x = min(sols)
    vec = (1, x, a, b)
    return SolverReport(SolutionVector(ctx, vec), 1, None, I2_COMPOSITE)


def solve_i3_even(ctx, rng_seed: int, max_retries: int = 256) -> SolverReport:
    """Probabilistic i=3 solution for even m >= 6.

    Draw y until z = c^2 y + c y^2 has a nonzero cube root 1/d (rejecting
    y in GF(4)); then (1, c, d, dy, dc, d c^2 y) solves both equations with
    independent entries.  Each draw is accepted with probability about 1/3.
    """
    if ctx.m % 2 or ctx.m < 6:
        raise UncoveredCase(f"even m >= 6 required, got m={ctx.m}")
    rng = random.Random(rng_seed)
    f4, c = linearized.subfield(ctx, 2)
    c2 = ctx.mul(c, c)
    for attempt in range(1, max_retries + 1):
        y = rng.getrandbits(ctx.m)
        if y in f4:
            continue
        z = ctx.mul(c2, y) ^ ctx.mul(c, ctx.mul(y, y))
        roots = sorted(linearized.cube_roots(ctx, z))  # z = c y (c + y) != 0
        if not roots:
            continue
        d = ctx.inv(roots[0])
        b = (
            1,
            c,
            d,
            ctx.mul(d, y),
            ctx.mul(d, c),
            ctx.mul(d, ctx.mul(c2, y)),
        )
        return SolverReport(SolutionVector(ctx, b), attempt, rng_seed, I3_EVEN)
    raise RetriesExhausted(f"no cube-root hit in {max_retries} draws")


def solve_i3_heuristic(ctx, rng_seed: int, max_retries: int = 4096) -> SolverReport:
    """Heuristic i=3 solver for m >= 6 of either parity (the general route
    for odd m).

    Repeatedly draw independent b1..b4, form
      c1 = f_1(b1,b2) + f_1(b3,b4),  c2 = f_2(b1,b2) + f_2(b3,b4),
    and look for three nonzero roots of c1*X^3 + c2*X + c1^2; any two
    distinct roots complete the tuple, since a pair (x1, x2) of roots
    satisfies f_1(x1,x2) = c1 and f_2(x1,x2) = c2.
    """
    if ctx.m < 6:
        raise UncoveredCase(f"m >= 6 required, got m={ctx.m}")
    rng = random.Random(rng_seed)
    for attempt in range(1, max_retries + 1):
        draw = []
        while len(draw) < 4:
            x = rng.getrandbits(ctx.m)
            if x and x not in draw:
                draw.append(x)
        if not gflinalg.independent(ctx, draw):
            continue
        b1, b2, b3, b4 = draw
        c1 = f_j(ctx, 1, b1, b2) ^ f_j(ctx, 1, b3, b4)
        if c1 == 0:
            continue
        c2 = f_j(ctx, 2, b1, b2) ^ f_j(ctx, 2, b3, b4)
        roots = sorted(linearized.affine_cubic_roots(ctx, c1, c2))
        if len(roots) < 3:
            continue
        b5, b6 = roots[0], roots[1]
        b = (b1, b2, b3, b4, b5, b6)
        if gflinalg.independent(ctx, b):
            return SolverReport(SolutionVector(ctx, b), attempt, rng_seed, I3_HEURISTIC)
    raise RetriesExhausted(f"heuristic failed within {max_retries} iterations")


def solve_i4(ctx) -> SolverReport:
    """Deterministic i=4 solution (1, y, c, cy, d, dy, dc, dcy) for m >= 8
    divisible by 4: c generates GF(4)*, d has order 5 in GF(16), and y is
    the first power basis vector outside GF(16)."""
    if ctx.m < 8 or ctx.m % 4:
        raise UncoveredCase(f"m >= 8 divisible by 4 required, got m={ctx.m}")
    _, c = linearized.subfield(ctx, 2)
    f16, _ = linearized.subfield(ctx, 4)
    d = next(x for x in f16 if x != 1 and ctx.pow(x, 5) == 1)
    y = next(1 << k for k in range(ctx.m) if 1 << k not in f16)
    b = (
        1,
        y,
        c,
        ctx.mul(c, y),
        d,
        ctx.mul(d, y),
        ctx.mul(d, c),
        ctx.mul(ctx.mul(d, c), y),
    )
    return SolverReport(SolutionVector(ctx, b), 1, None, I4_DIV4)


def coprime_split(m: int) -> tuple[int, int]:
    """The first m = ell * t with gcd(ell, t) = 1, min >= 2 and max >= 3."""
    for ell in range(2, m):
        t = m // ell
        if m % ell == 0 and min(ell, t) >= 2 and max(ell, t) >= 3 and gcd(ell, t) == 1:
            return ell, t
    raise UncoveredCase(f"m={m} has no coprime split with min >= 2, max >= 3")
