import random

import pytest

from bchmin import gflinalg, linearized
from bchmin.gf2m import default_field
from bchmin.solvers import (
    RetriesExhausted,
    SolutionVector,
    UncoveredCase,
    check_system,
    f_j,
    solve_i2_composite,
    solve_i2_even,
    solve_i2_odd,
    solve_i3_even,
    solve_i3_heuristic,
    solve_i4,
)

from conftest import TooLarge, brute_force_solver, iter_i2_solutions, random_nonzero, rng


# -- the bilinear form and the checker ---------------------------------------


def test_f_j_degenerate_inputs(gf256):
    r = rng(3)
    for _ in range(50):
        x = r.getrandbits(8)
        for j in (1, 2, 3):
            assert f_j(gf256, j, x, x) == 0
            assert f_j(gf256, j, x, 0) == 0
            assert f_j(gf256, j, 0, x) == 0


def test_f_1_expansion(gf256):
    a = gf256.alpha
    assert f_j(gf256, 1, 1, a) == gf256.mul(a, a) ^ a


def test_f_j_homogeneous(gf256):
    r = rng(5)
    for _ in range(50):
        c, x1, x2 = (random_nonzero(gf256, r) for _ in range(3))
        for j in (1, 2, 3):
            lhs = f_j(gf256, j, gf256.mul(c, x1), gf256.mul(c, x2))
            rhs = gf256.mul(gf256.pow(c, (1 << j) + 1), f_j(gf256, j, x1, x2))
            assert lhs == rhs


def test_check_system_trivial_cases(gf256):
    assert check_system(gf256, (0, 0, 0, 0))
    r = rng(7)
    x, y = random_nonzero(gf256, r), random_nonzero(gf256, r)
    assert check_system(gf256, (x, y, x, y))
    with pytest.raises(ValueError):
        check_system(gf256, (1, 2, 3))
    with pytest.raises(ValueError):
        check_system(default_field(4), (1, 2, 3, 4, 5, 6))  # i=3 > m/2


def test_solution_vector_validates(gf256):
    with pytest.raises(ValueError):
        SolutionVector(gf256, (0, 0, 0, 0))  # solves but dependent
    with pytest.raises(ValueError):
        SolutionVector(gf256, (1, 2, 4, 8))  # independent but not a solution


# -- i = 2 --------------------------------------------------------------------


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_solve_i2_even(m):
    ctx = default_field(m)
    rep = solve_i2_even(ctx)
    b = rep.solution.b
    _, c = linearized.subfield(ctx, 2)
    assert b == (1, ctx.alpha, c, ctx.mul(c, ctx.alpha))
    assert check_system(ctx, b)
    assert gflinalg.independent(ctx, b)


def test_solve_i2_even_matched_pairs_all_odd_j(gf256):
    # f_j(b1, b2) = f_j(b3, b4) for every odd j, not just j = 1
    b = solve_i2_even(gf256).solution.b
    for j in range(1, 9, 2):
        assert f_j(gf256, j, b[0], b[1]) == f_j(gf256, j, b[2], b[3])


def test_solve_i2_even_requires_even_m():
    with pytest.raises(UncoveredCase, match="even m >= 4 required, got m=5"):
        solve_i2_even(default_field(5))


@pytest.mark.parametrize("m", [5, 7, 9])
def test_solve_i2_odd_structure(m):
    ctx = default_field(m)
    rep = solve_i2_odd(ctx, rng_seed=2024)
    b = rep.solution.b
    v, vp = 1, ctx.alpha
    # the two cube-root pairs hit the fixed products, with a common c
    assert ctx.mul(ctx.mul(b[0], b[0]), b[1]) == v
    assert ctx.mul(ctx.mul(b[2], b[2]), b[3]) == vp
    c = ctx.mul(b[0], ctx.mul(b[1], b[1])) ^ v
    assert ctx.mul(b[2], ctx.mul(b[3], b[3])) == c ^ vp
    assert check_system(ctx, b)


def test_solve_i2_odd_deterministic_given_seed():
    ctx = default_field(7)
    assert solve_i2_odd(ctx, 99).solution.b == solve_i2_odd(ctx, 99).solution.b


def _four_root_i2_odd(ctx, seed: int):
    """(b, draws) of solve_i2_odd with all four cube roots of its tuple
    taken as roots, drawing c as it does."""
    v, vp, inv3, rand = 1, ctx.alpha, pow(3, -1, ctx.n), random.Random(seed)
    for attempt in range(1, 65):
        while (c := rand.getrandbits(ctx.m)) in (0, v, vp):
            pass
        pairs = ((v, c ^ v), (c ^ v, v), (vp, c ^ vp), (c ^ vp, vp))
        b = tuple(ctx.pow(ctx.mul(ctx.mul(a, a), ctx.inv(e)), inv3) for a, e in pairs)
        if gflinalg.independent(ctx, b):
            return b, attempt
    raise AssertionError("no independent draw")


@pytest.mark.parametrize("m", range(5, 32, 2))
def test_solve_i2_odd_matches_the_four_root_formula(m):
    # one cube root per pair: the second root of each pair is w / t^2
    ctx = default_field(m)
    for seed in range(1, 21):
        rep = solve_i2_odd(ctx, seed)
        assert (rep.solution.b, rep.trials) == _four_root_i2_odd(ctx, seed), seed


def test_solve_i2_odd_requires_odd_m():
    with pytest.raises(UncoveredCase, match="odd m >= 5 required, got m=6"):
        solve_i2_odd(default_field(6), 1)


def test_solve_i2_composite():
    for m, ell, t in ((6, 2, 3), (15, 3, 5)):
        ctx = default_field(m)
        rep = solve_i2_composite(ctx, ell, t)
        b = rep.solution.b
        assert b[0] == 1
        assert check_system(ctx, b)
        assert gflinalg.independent(ctx, b)


def test_solve_i2_composite_bad_factorizations():
    with pytest.raises(UncoveredCase, match="got ell=2, t=2, m=4"):
        solve_i2_composite(default_field(4), 2, 2)  # gcd = 2
    with pytest.raises(UncoveredCase, match="got ell=2, t=2, m=6"):
        solve_i2_composite(default_field(6), 2, 2)  # 2 * 2 != 6
    with pytest.raises(UncoveredCase, match="got ell=1, t=6, m=6"):
        solve_i2_composite(default_field(6), 1, 6)  # min < 2


# -- i = 3 --------------------------------------------------------------------


@pytest.mark.parametrize("m", [6, 8, 10])
def test_solve_i3_even(m):
    ctx = default_field(m)
    rep = solve_i3_even(ctx, rng_seed=5)
    b = rep.solution.b
    assert b[0] == 1 and len(b) == 6
    assert check_system(ctx, b)
    assert gflinalg.independent(ctx, b)


def test_solve_i3_even_requires_even_m():
    with pytest.raises(UncoveredCase, match="even m >= 6 required, got m=7"):
        solve_i3_even(default_field(7), 1)


def test_i3_pair_sum_identity(gf256):
    # with b' = (1, y, c, c^2 y): sum of f_j over the two pairs is 0 for
    # even j and c^2 y + c y^(2^j) for odd j
    r = rng(11)
    f4, c = linearized.subfield(gf256, 2)
    c2 = gf256.mul(c, c)
    for _ in range(30):
        y = r.getrandbits(8)
        if y in f4:
            continue
        for j in range(1, 7):
            total = f_j(gf256, j, 1, y) ^ f_j(gf256, j, c, gf256.mul(c2, y))
            if j % 2 == 0:
                assert total == 0
            else:
                expect = gf256.mul(c2, y) ^ gf256.mul(c, gf256.pow(y, 1 << j))
                assert total == expect


@pytest.mark.parametrize("m", [7, 9, 6, 8])
def test_solve_i3_heuristic(m):
    ctx = default_field(m)
    rep = solve_i3_heuristic(ctx, rng_seed=17)
    b = rep.solution.b
    assert len(b) == 6
    assert check_system(ctx, b)
    assert gflinalg.independent(ctx, b)


def test_solve_i3_heuristic_many_seeds_no_crash():
    # exercises the restart paths (dependent draws, c1 = 0, missing roots)
    ctx = default_field(6)
    for seed in range(100):
        rep = solve_i3_heuristic(ctx, rng_seed=seed)
        assert rep.solution is not None


def test_solve_i3_heuristic_exhausted():
    with pytest.raises(RetriesExhausted):
        solve_i3_heuristic(default_field(7), rng_seed=1, max_retries=0)


def test_solve_i3_heuristic_first_draw_rate():
    # the stated per-draw rate: a share of at least 0.12 of the seeds
    # succeed on their first draw (0.15-0.18 at these m, near the 1/6 of
    # cubics with three distinct roots)
    for m in (9, 11, 13):
        ctx = default_field(m)
        hits = sum(1 for seed in range(1000) if solve_i3_heuristic(ctx, seed).trials == 1)
        assert hits / 1000 >= 0.12, (m, hits)


# -- i = 4 --------------------------------------------------------------------


@pytest.mark.parametrize("m", [8, 12])
def test_solve_i4(m):
    ctx = default_field(m)
    rep = solve_i4(ctx)
    b = rep.solution.b
    assert len(b) == 8 and b[0] == 1
    assert check_system(ctx, b)
    assert gflinalg.independent(ctx, b)
    # d is a primitive 5th root of unity
    d = b[4]
    assert d != 1 and ctx.pow(d, 5) == 1


def test_solve_i4_requires_divisible_by_4():
    with pytest.raises(UncoveredCase, match="m >= 8 divisible by 4 required, got m=10"):
        solve_i4(default_field(10))


# -- brute force ----------------------------------------------------------------


def test_brute_force_finds_solutions():
    for m in (4, 5):
        ctx = default_field(m)
        rep = brute_force_solver(ctx, 2)
        assert check_system(ctx, rep.solution.b)


def test_brute_force_too_large():
    with pytest.raises(TooLarge):
        brute_force_solver(default_field(8), 2)
    with pytest.raises(TooLarge):
        brute_force_solver(default_field(4), 3)


def test_brute_force_contains_closed_form_m4():
    ctx = default_field(4)
    all_solutions = set(iter_i2_solutions(ctx))
    assert solve_i2_even(ctx).solution.b in all_solutions
