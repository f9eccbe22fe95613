import random
import tracemalloc
from dataclasses import astuple
from functools import reduce
from operator import xor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from bchmin import verify
from bchmin.construct import CodewordSupport, SupportSpec, expand, generate, puncture
from bchmin.fixtures import BCH23_FIXTURE, BCH27_FIXTURES
from bchmin.gf2m import GF2m, default_field
from bchmin.verify import (
    _BLOCK,
    _check_poly,
    _coset_counts,
    _coset_leaders,
    _fft_mul,
    _first_failure,
    _min_polys,
    _odd_power_sums,
    _pick_route,
    _shift_xor_mul,
    _witness,
    designed_distance,
    is_min_weight,
    is_min_weight_affine,
    power_sums,
)

import _scan_oracle as scan_oracle
from conftest import (
    covered_cells,
    elem_array,
    elem_set,
    min_poly,
    ref_clmul,
    rng,
    scalar_syndromes,
)


def _fixture(m):
    poly, exps = BCH27_FIXTURES[m]
    ctx = default_field(m, poly)
    return ctx, CodewordSupport(ctx, frozenset(ctx.exp(e) for e in exps), 27, False)


# -- power sums ---------------------------------------------------------------


def test_power_sums_empty_support(gf256):
    cw = CodewordSupport(gf256, frozenset(), 6, extended=True)
    assert power_sums(cw, 5) == [0] * 5


def test_power_sums_small_supports(gf256):
    x, y = 0x53, 0xC4
    single = CodewordSupport(gf256, frozenset({x}), 6, True)
    assert power_sums(single, 1) == [x]
    pair = CodewordSupport(gf256, frozenset({x, y}), 6, True)
    assert power_sums(pair, 1) == [x ^ y]


def test_power_sums_ignore_zero_element(gf256):
    cw0 = CodewordSupport(gf256, frozenset({0, 0x53}), 6, True)
    cw1 = CodewordSupport(gf256, frozenset({0x53}), 6, True)
    assert power_sums(cw0, 4) == power_sums(cw1, 4)


def test_power_sum_frobenius_conjugacy(gf256):
    # p_{2j} = p_j^2: internal consistency of the verifier itself
    r = rng(19)
    elems = frozenset(r.getrandbits(8) for _ in range(17))
    cw = CodewordSupport(gf256, elems, 6, True)
    p = power_sums(cw, 40)
    for j in range(1, 21):
        assert p[2 * j - 1] == gf256.mul(p[j - 1], p[j - 1])


def test_power_sums_match_direct_path():
    # the power walk on fields with log tables (m = 10, 20) and without
    # (m = 25) against a direct sum of powers, up to j = 5000 at m = 20
    # and every j to 12 at m = 10 and 25
    r = rng(23)
    cases = ((10, (1, 7, 25)), (20, (1, 4099, 5000)), (25, (1, 7, 25)))
    for m, js in (*cases, (10, range(1, 13)), (25, range(1, 13))):
        ctx = default_field(m)
        elems = {x for x in (r.getrandbits(m) for _ in range(30)) if x}
        p = power_sums(CodewordSupport(ctx, frozenset(elems), 6, True), max(js))
        for j in js:
            direct = 0
            for x in elems:
                direct ^= ctx.pow(x, j)
            assert p[j - 1] == direct


# -- the array kernel of fields without log tables --------------------------------


@pytest.mark.parametrize("m", [*range(2, 17), *range(25, 33)])
def test_array_product_matches_field_mul(m):
    # the power walk's array products (GF2m.mul_array, tested elementwise
    # in test_gf2m) against scalar powers: p_1, p_3, p_5, p_7 of the odd
    # power sums, one row a block, and 5000 elements pass one block of the
    # product
    ctx, r = default_field(m), rng(m)
    x = [r.getrandbits(m) for _ in range(5000)]
    sums = _odd_power_sums(ctx, np.array(x, dtype=np.uint64), 7)
    got = [int(next(sums)[1][0]) for _ in range(4)]
    assert got == [reduce(xor, (ctx.pow(v, j) for v in x)) for j in (1, 3, 5, 7)]


def _table_free_claims(ctx):
    """The large-m benchmark cells on the field ctx (smallest d for i = 2,
    3 and, when 4 | m, 4), two mutants of each that keep |S| and p_1 (a, b
    replaced by a + u, b + u), and the i = 3 support claimed at d = 120,
    whose first failure falls past the leader 3."""
    m, rand = ctx.m, rng(ctx.m)
    for i in (2, 3, 4) if m % 4 == 0 else (2, 3):
        cw, _, _ = generate(ctx, i, m - 2 * i, seed=0)
        yield "valid", cw
        for _ in range(2):
            bad = _mutate(ctx, elem_set(cw), "p1swap", rand)
            yield "p1", CodewordSupport(ctx, bad, cw.claimed_distance, cw.extended)
        if i == 3:
            yield "past3", CodewordSupport(ctx, cw.elems, 120, cw.extended)


@pytest.mark.parametrize("m", range(25, 33))
def test_table_free_kernel_matches_scalar_reference(m):
    # first failing (j, p_j) of the verdict against the frozen scan, one
    # scalar pow per element, and p_1..p_40 of the array kernel against
    # scalar syndromes
    for kind, cw in _table_free_claims(default_field(m)):
        verdict, sums = is_min_weight(cw), power_sums(cw, 40)
        j_limit = cw.claimed_distance + (not cw.extended) - 2
        assert verdict.failing_syndrome == scan_oracle.first_failure(cw.ctx, cw.elems, j_limit)
        assert sums == scalar_syndromes(cw.ctx, cw.elems[cw.elems != 0], 40), (m, kind)
        if kind == "valid":
            assert verdict.is_min_weight
        else:
            j, value = verdict.failing_syndrome
            assert value and j >= (3 if kind == "p1" else 5), (m, kind)


@pytest.mark.parametrize("m, i", [(25, 3), (32, 4)])
def test_table_free_verification_uses_no_scalar_arithmetic(m, i, monkeypatch):
    ctx = default_field(m)
    cw, _, _ = generate(ctx, i, m - 2 * i, seed=0)
    bad = _mutate(ctx, elem_set(cw), "p1swap", rng(m))
    bad = CodewordSupport(ctx, bad, cw.claimed_distance, cw.extended)

    def scalar(*args):
        raise AssertionError("scalar field arithmetic in table-free verification")

    monkeypatch.setattr(ctx, "pow", scalar)
    monkeypatch.setattr(ctx, "mul", scalar)
    assert is_min_weight(cw).is_min_weight
    verdict = is_min_weight(bad)
    assert not verdict.member and verdict.failing_syndrome[0] >= 3


# -- membership ---------------------------------------------------------------


def test_member_table_fixture_m8():
    _, cw = _fixture(8)
    verdict = is_min_weight(cw)
    assert verdict.member and verdict.weight == 27 and verdict.is_min_weight


def test_member_weight23_fixture():
    m, poly, exps = BCH23_FIXTURE
    ctx = default_field(m, poly)
    cw = CodewordSupport(ctx, frozenset(ctx.exp(e) for e in exps), 23, False)
    assert is_min_weight(cw).is_min_weight


def test_single_element_extended_fails_parity(gf256):
    cw = CodewordSupport(gf256, frozenset({7}), 4, extended=True)
    verdict = is_min_weight(cw)
    assert not verdict.member
    assert verdict.failing_syndrome is None  # parity, not a syndrome


def test_nonextended_rejects_zero_in_support(gf256):
    cw = CodewordSupport(gf256, frozenset({0, 1, 2}), 3, extended=False)
    assert not is_min_weight(cw).member


def test_distance_parity_validation(gf256):
    with pytest.raises(ValueError, match="extended claim needs even d, got 5"):
        is_min_weight(CodewordSupport(gf256, frozenset({1, 2}), 5, extended=True))
    with pytest.raises(ValueError, match="punctured claim needs odd d, got 6"):
        is_min_weight(CodewordSupport(gf256, frozenset({1, 2}), 6, extended=False))
    with pytest.raises(ValueError):
        is_min_weight(CodewordSupport(gf256, frozenset({1, 2}), 1, extended=False))


def test_mutated_fixture_fails_with_syndrome():
    ctx, cw = _fixture(8)
    r = rng(29)
    elems = sorted(cw.elems)
    dropped = elems[5]
    while True:
        swap = r.getrandbits(8)
        if swap and swap not in cw.elems:
            break
    bad = CodewordSupport(ctx, (elem_set(cw) - {dropped}) | {swap}, 27, False)
    verdict = is_min_weight(bad)
    assert not verdict.member and not verdict.is_min_weight
    assert verdict.failing_syndrome is not None
    j, value = verdict.failing_syndrome
    assert value != 0 and 1 <= j <= 26


@pytest.mark.parametrize("m", [8, 10, 12])
def test_mutation_sensitivity_exhaustive(m):
    # every single-element swap must break membership
    ctx, cw = _fixture(m)
    outsider = next(x for x in range(1, 1 << m) if x not in cw.elems)
    for x in elem_set(cw):
        bad = CodewordSupport(ctx, (elem_set(cw) - {x}) | {outsider}, 27, False)
        assert not is_min_weight(bad).member


# -- designed distance ----------------------------------------------------------


def test_designed_distance_values():
    assert designed_distance(4, 0, 2) == 6
    assert designed_distance(8, 0, 3) == 112
    assert designed_distance(12, 0, 4) == 1920
    for m in (8, 10, 13, 16):
        assert designed_distance(m, m - 6, 3) == 28


def test_designed_distance_zero_at_i0():
    # i = 0 allows s up to m, where 2^(m-1-s) - 2^(m-1-i-s) has negative shifts
    for m in range(2, 33):
        assert designed_distance(m, m, 0) == 0
        assert designed_distance(m, 0, 0) == 0
        assert designed_distance(m, m - 2, 1) == 1


def test_designed_distance_range_checks():
    with pytest.raises(ValueError, match="bad parameters m=1, s=0, i=0"):
        designed_distance(1, 0, 0)
    with pytest.raises(ValueError, match="bad parameters m=8, s=0, i=5"):
        designed_distance(8, 0, 5)  # i > m/2
    with pytest.raises(ValueError, match="bad parameters m=8, s=5, i=2"):
        designed_distance(8, 5, 2)  # s > m - 2i
    with pytest.raises(ValueError, match="bad parameters m=8, s=-1, i=2"):
        designed_distance(8, -1, 2)


# -- the two verifier routes ----------------------------------------------------

# Bounds on the work of one example, so that both routes run on every
# claim, including the route the cost rule would not pick.
MAX_SCAN_GATHERS = 4_000_000
MAX_CHECK_WORDS = 16_000_000


def _span(basis) -> list[int]:
    elems = [0]
    for b in basis:
        elems += [e ^ b for e in elems]
    return elems


def _subspace_basis(ctx, r: int, rand) -> list[int]:
    basis = []
    while len(basis) < r:
        x = rand.getrandbits(ctx.m)
        if x and len(set(_span(basis + [x]))) == 1 << (len(basis) + 1):
            basis.append(x)
    return basis


def _subspace_member(ctx, r: int, extended: bool, rand) -> frozenset:
    """A translate of a random r-dimensional GF(2)-subspace: a member of
    eBCH(2^r); without its 0 the subspace itself is a member of BCH(2^r - 1)."""
    space = _span(_subspace_basis(ctx, r, rand))
    if not extended:
        return frozenset(space[1:])
    a = rand.getrandbits(ctx.m)
    return frozenset(a ^ v for v in space)


def _outsider(ctx, elems, rand) -> int:
    while True:
        y = rand.getrandbits(ctx.m)
        if y not in elems:
            return y


def _mutate(ctx, elems: frozenset, kind: str, rand) -> frozenset:
    if kind == "swap":
        x = rand.choice(sorted(elems))
        return (elems - {x}) | {_outsider(ctx, elems, rand)}
    if kind == "add":
        return elems | {_outsider(ctx, elems, rand)}
    if kind == "remove":
        return elems - {rand.choice(sorted(elems))}
    if kind == "add0":
        return elems | {0}
    if kind == "p1swap":  # two swaps keeping p_1 = x + y, so p_1 alone passes
        while True:
            x, y = rand.sample(sorted(elems - {0}), 2)
            x2 = _outsider(ctx, elems, rand)
            y2 = x ^ y ^ x2
            if 0 not in (x2, y2) and x2 != y2 and y2 not in elems:
                return (elems - {x, y}) | {x2, y2}
    if kind == "random":
        return frozenset(rand.sample(range(1 << ctx.m), len(elems)))
    return elems


def _nonzero(elems):
    """The nonzero elements of elems as the sorted uint64 array the routes
    take."""
    elems = elem_array(elems)
    return elems[elems != 0]


def _p1_then(ctx, nonzero, j_limit, route):
    """p_1 alone, then, if it is 0, `_first_failure` on route, as `_verdict`
    runs them: the first failing (j, p_j) over the leaders in [1, j_limit]."""
    p1 = int(np.bitwise_xor.reduce(nonzero))
    return (1, p1) if p1 else _first_failure(ctx, nonzero, j_limit, route)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_routes_agree(data):
    # Both routes on the same claim, the check once with each product: same
    # member, same first failing syndrome; on members, on swap / add /
    # remove / add-0 mutants and on mutants that pass p_1, so the check
    # polynomial decides.
    m = data.draw(st.integers(4, 16), label="m")
    extended = data.draw(st.booleans(), label="extended")
    r = data.draw(st.integers(2, m - 1), label="r")
    kind = data.draw(st.sampled_from(["none", "swap", "add", "remove", "add0", "p1swap", "random"]))
    rand = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    ctx = default_field(m)
    j_limit = (1 << r) - 2
    reps, k = _coset_counts(ctx.n, j_limit)
    assume(reps << r <= MAX_SCAN_GATHERS and k * -(-ctx.n // 64) <= MAX_CHECK_WORDS)
    elems = _mutate(ctx, _subspace_member(ctx, r, extended, rand), kind, rand)
    nonzero = _nonzero(elems)
    event(_pick_route(ctx, j_limit, len(nonzero), extended and len(elems) % 2 == 0))
    scanned = _p1_then(ctx, nonzero, j_limit, "scan")
    for product in (_shift_xor_mul, _fft_mul):  # the check with each product
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_polymul", product)
            assert _p1_then(ctx, nonzero, j_limit, "check") == scanned, product
    if kind in ("none", "add0"):
        assert scanned is None


# -- the block kernel against the frozen leader-by-leader scan --------------------


def _oracle_agrees(ctx, elems, j_limit, routes=None):
    """The first failure of elems at j_limit on each route (by default the
    scan, or the walk on a field without log tables), asserted equal to the
    leader-by-leader scan's, which is returned."""
    routes = routes or (("scan",) if ctx.has_logs else ("walk",))
    expect = scan_oracle.first_failure(ctx, elems, j_limit)
    nonzero = _nonzero(elems)
    for route in routes:
        assert _p1_then(ctx, nonzero, j_limit, route) == expect, (ctx.m, j_limit, route)
    return expect


@pytest.mark.parametrize("m", range(4, 17))
def test_block_scan_matches_leader_by_leader_scan(m):
    # translates of r-dimensional subspaces, members of eBCH(2^r), claimed
    # at 2^r and at twice that, so the first failure falls past p_1; their
    # one-element mutants, mutants that keep p_1, and random sets of their
    # size; the check route too up to m = 12
    ctx, rand = default_field(m), rng(m)
    routes = ("scan", "check") if m <= 12 else ("scan",)
    seen = set()
    for r in range(2, min(m, 10)):
        space = _subspace_member(ctx, r, True, rand)
        for j_limit in ((1 << r) - 2, min((2 << r) - 2, ctx.n - 1)):
            for kind in ("none", "swap", "p1swap", "random"):
                fail = _oracle_agrees(ctx, _mutate(ctx, space, kind, rand), j_limit, routes)
                seen.add(None if fail is None else fail[0] > 1)
    assert seen == {None, False, True}


def _block_of(m, j_limit, j):
    """The leader array the scan walks that holds j, and j's place in it."""
    if j_limit < verify._CACHED_LEADERS:
        blocks = [verify._leaders(m, j_limit)]
    else:
        blocks = list(_coset_leaders(m, 3, j_limit + 1))
    block = next(b.tolist() for b in blocks if j in b)
    return block, block.index(j)


@pytest.mark.parametrize("m, r", [(14, 11), (16, 12), (16, 13)])
def test_block_scan_splits_large_supports(m, r, monkeypatch):
    # 2^r points, 2^11 to 2^13, so one gather takes a few leaders.  The
    # translate is a member at L = 2^r - 2 and first fails at the leader
    # 2^r - 1 when claimed at twice that.  With the gathers cut so that the
    # leader is the last of one and the first of the next, and to one
    # leader each, the kernel names the same failure.  L >= 4096 at
    # m = 16 takes the uncached leader blocks.
    ctx = default_field(m)
    elems = _subspace_member(ctx, r, True, rng(r))
    assert _oracle_agrees(ctx, elems, (1 << r) - 2) is None
    j_limit = min((2 << r) - 2, ctx.n - 1)
    expect = _oracle_agrees(ctx, elems, j_limit)
    assert expect is not None and expect[0] == (1 << r) - 1
    nonzero = _nonzero(elems)
    block, k = _block_of(m, j_limit, expect[0])
    assert k > 0
    for rows in (k + 1, k, 1):
        monkeypatch.setattr(verify, "_GATHER_PAIRS", rows * len(nonzero))
        assert _first_failure(ctx, nonzero, j_limit, "scan") == expect, rows


@pytest.mark.parametrize("m", [25, 29])
def test_table_free_scan_matches_leader_by_leader_scan(m):
    # the power walk, kept without log tables: valid claims, mutants that
    # keep p_1, and the i = 3 support claimed at d = 120
    for kind, cw in _table_free_claims(default_field(m)):
        _oracle_agrees(cw.ctx, cw.elems, cw.claimed_distance - 2)


@pytest.mark.parametrize("m", range(25, 33))
def test_blocked_walk_matches_leader_by_leader_scan(m, monkeypatch):
    # the walk in blocks of 1 to 8 rows against the frozen scan, with the
    # rows capped by _WALK_ELEMENTS too: translates of r-dimensional
    # subspaces, members at L = 2^r - 2 whose first failure is the leader
    # 2^r - 1 at twice that, and mutants of them that keep p_1
    ctx, rand = default_field(m), rng(m)
    seen = set()
    for r in (3, 5, 7):
        space = _subspace_member(ctx, r, True, rand)
        for j_limit in ((1 << r) - 2, (2 << r) - 2):
            for kind in ("none", "p1swap"):
                elems = _mutate(ctx, space, kind, rand)
                expect = scan_oracle.first_failure(ctx, elems, j_limit)
                for cap in (verify._WALK_ELEMENTS, 2 << r, 1):
                    monkeypatch.setattr(verify, "_WALK_ELEMENTS", cap)
                    assert _p1_then(ctx, _nonzero(elems), j_limit, "walk") == expect, (r, cap)
                seen.add(None if expect is None else expect[0] == (1 << r) - 1)
    assert seen == {None, True, False}


def _random_claim(ctx, size, d, rand):
    """An extended claim at d on size distinct nonzero elements with p_1 = 0,
    drawn at random, so that with no translation symmetry it fails at p_3."""
    while True:
        elems = rand.sample(range(1, ctx.n + 1), size - 1)
        last = reduce(xor, elems)
        if last and last not in elems:
            return CodewordSupport(ctx, frozenset([*elems, last]), d, True)


def test_lazy_table_scan_takes_its_logs_from_the_tables(monkeypatch):
    # at m = 22 a scan claim of 8,192 points is charged for building the log
    # tables, so it builds them and gathers its logs there, never through
    # the subgroup logs, which would be a second pass over the support
    ctx = GF2m(22)
    cw = _random_claim(ctx, 1 << 13, 1 << 10, rng(22))
    assert _pick_route(ctx, (1 << 10) - 2, len(cw.elems), False) == "scan"

    def subgroup_logs(x):
        raise AssertionError("subgroup logs on the scan route")

    monkeypatch.setattr(ctx, "_subgroup_logs", subgroup_logs)
    verdict = is_min_weight(cw)
    assert ctx.tables_built and verdict.route == "scan"
    assert verdict.failing_syndrome == scan_oracle.first_failure(ctx, cw.elems, (1 << 10) - 2)


def test_claim_of_fewer_points_than_its_leaders_takes_the_walk():
    # six distinct nonzero points with p_1 = 0, claimed at d = 2^24: p_1..p_6
    # cannot all vanish (a Vandermonde matrix), so the walk is priced to
    # j = 6, not L, and takes the claim at m = 24 without building the log
    # tables; its first failure is the frozen scan's, which the oracle finds
    # by j = 6 (so the scan to L finds it too)
    ctx, r = GF2m(24), rng(24)
    x = [r.getrandbits(24) for _ in range(5)]
    cw = CodewordSupport(ctx, [*x, reduce(xor, x)], 1 << 24, extended=True)
    assert 0 not in cw.elems and len(cw.elems) == 6
    assert _pick_route(ctx, (1 << 24) - 2, 6, True) == "walk"
    verdict = is_min_weight(cw)
    assert verdict.route == "scan" and not verdict.member and not ctx.tables_built
    expect = scan_oracle.first_failure(ctx, cw.elems, 6)
    assert expect is not None and verdict.failing_syndrome == expect


def test_lazy_table_routes_do_not_depend_on_the_tables_being_built():
    # at m = 22 the routes of the benchmark cells, their p_1-keeping mutants
    # and a past-p_3 claim are priced and decided the same before and after
    # the first log_array() builds the tables; they take the walk, whose
    # first failures on the mutants are the frozen scan's
    ctx = GF2m(22)
    claims = list(_table_free_claims(ctx))

    def decide():
        out = []
        for _, cw in claims:
            j_limit = cw.claimed_distance + (not cw.extended) - 2
            size = int(np.count_nonzero(cw.elems))
            routes = [_pick_route(ctx, j_limit, size, search) for search in (True, False)]
            out.append((routes, is_min_weight(cw)))
        return out

    before = decide()
    assert not ctx.tables_built
    ctx.log_array()
    assert decide() == before
    assert all(routes[1] == "walk" for routes, _ in before)
    for (kind, cw), (_, verdict) in zip(claims, before):
        if kind == "p1":
            expect = scan_oracle.first_failure(ctx, cw.elems, cw.claimed_distance - 2)
            assert verdict.failing_syndrome == expect and expect[0] >= 3


def test_coset_counts_match_brute_force():
    # every L at m = 2..10: the cosets meeting [1, L], and n less their sizes
    for m in range(2, 11):
        n = (1 << m) - 1
        cosets, zeros = set(), 0
        assert _coset_counts(n, 0) == (0, n)
        for j_limit in range(1, n):
            coset = frozenset((j_limit << t) % n for t in range(m))
            if coset not in cosets:
                cosets.add(coset)
                zeros += len(coset)
            assert _coset_counts(n, j_limit) == (len(cosets), n - zeros), (m, j_limit)


def test_coset_counts_every_coset_without_enumeration():
    # from L = 2^(m-1) - 1 on every nonzero coset is a zero, and the count
    # is read from the necklaces; at m = 20 against the enumeration
    m = 20
    n = (1 << m) - 1
    lead = np.concatenate(list(_coset_leaders(m, 1, n))).tolist()
    sizes = sum(len({(j << t) % n for t in range(m)}) for j in lead)
    assert sizes == n - 1
    top = lead[-1]
    assert top == (1 << (m - 1)) - 1
    for j_limit in (top, top + 1, n - 1):
        assert _coset_counts(n, j_limit) == (len(lead), 1)
    assert _coset_counts(n, top - 1) == (len(lead) - 1, 1 + m)


def _brute_leaders(m, lo, hi):
    n = (1 << m) - 1
    return [j for j in range(lo, hi) if j % 2 and all((j << t) % n >= j for t in range(1, m))]


def _leaders(m, lo, hi):
    return [j for block in _coset_leaders(m, lo, hi) for j in block.tolist()]


def test_coset_leaders_match_brute_force():
    # every range [lo, hi) at m = 2..8; at m = 9, 10 every prefix, every
    # suffix and ranges across the block boundaries
    for m in range(2, 11):
        n = (1 << m) - 1
        brute = _brute_leaders(m, 0, n)
        if m <= 8:
            ranges = [(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]
        else:
            edges = [1, 2, 63, 64, 65, 191, 192, 193, 447, 448, 449, n - 1, n]
            ranges = [(0, hi) for hi in range(n + 1)] + [(lo, n) for lo in range(n + 1)]
            ranges += [(lo, hi) for lo in edges for hi in edges if lo <= hi]
        for lo, hi in ranges:
            assert _leaders(m, lo, hi) == [j for j in brute if lo <= j < hi], (m, lo, hi)


@pytest.mark.parametrize("m", [17, 25, 32])
def test_coset_leaders_windows_match_brute_force(m):
    # windows at the bottom, the middle and the top of [0, n), each long
    # enough to reach the largest block; int64 holds the rotations up to
    # m = 32
    n, width = (1 << m) - 1, 10_000
    for lo in (0, n // 2 - width // 2, n - width):
        assert _leaders(m, lo, lo + width) == _brute_leaders(m, lo, lo + width), (m, lo)


def test_route_pick_follows_cost():
    # m = 16 extended claims of d(16, s, i): the check route below the
    # crossover at s = 2 / 3 for i = 2 and s = 3 / 4 for i = 3, 4, the scan
    # above it and for small d; a searchable claim takes the stabilizer
    # search from s = 2 to s = 6 (7 at i = 4), where (4 + 16) d lookups
    # undercut both
    ctx = default_field(16)
    for i, last_check, last_affine in ((2, 2, 6), (3, 3, 6), (4, 3, 7)):
        for s in range(17 - 2 * i):
            d = designed_distance(16, s, i)
            unsearched = _pick_route(ctx, d - 2, d, False)
            assert unsearched == ("check" if s <= last_check else "scan"), (i, s)
            expect = "affine" if 2 <= s <= last_affine else unsearched
            assert _pick_route(ctx, d - 2, d, True) == expect, (i, s)
    # no logs: the power walk, or the search when it is searchable
    assert _pick_route(default_field(25), (1 << 20) - 2, 1 << 20, False) == "walk"
    assert _pick_route(default_field(25), (1 << 20) - 2, 1 << 20, True) == "affine"
    assert _pick_route(default_field(25), 4, 6, True) == "walk"


def test_verdict_names_the_route():
    ctx = default_field(12)
    space = frozenset(_subspace_member(ctx, 10, True, rng(3)))
    big = is_min_weight(CodewordSupport(ctx, space, 1 << 10, True))
    assert big.is_min_weight and big.route == "check"
    small = is_min_weight(CodewordSupport(ctx, frozenset(_span([1, 2, 4])), 8, True))
    assert small.is_min_weight and small.route == "scan"
    # between them, an extended claim is certified through its stabilizer,
    # and with the search priced out it takes the cheaper of the other two
    cw, _, _ = generate(ctx, 4, 2, seed=0)
    assert is_min_weight(cw).is_min_weight and is_min_weight(cw).route == "affine"
    assert _forced(cw, "scan").route == "scan" and _forced(cw, "check").route == "check"
    assert _pick_route(ctx, cw.claimed_distance - 2, len(cw.elems), False) == "scan"
    # a rejection through the check route (of a mutant that passes p_1)
    # still names the first failing syndrome the scan finds; a mutant that
    # fails p_1 is decided there, before any route is priced
    bad = _mutate(ctx, space, "p1swap", rng(5))
    verdict = is_min_weight(CodewordSupport(ctx, bad, 1 << 10, True))
    assert verdict.route == "check" and not verdict.member
    assert verdict.failing_syndrome == _first_failure(
        ctx, _nonzero(bad), (1 << 10) - 2, "scan"
    )
    swapped = _mutate(ctx, space, "swap", rng(5))
    verdict = is_min_weight(CodewordSupport(ctx, swapped, 1 << 10, True))
    assert verdict.route == "scan" and verdict.failing_syndrome[0] == 1


def test_claimed_distance_beyond_length_refused(gf16):
    # j_limit >= n once made the coset walk loop forever
    with pytest.raises(ValueError):
        is_min_weight(CodewordSupport(gf16, frozenset({1, 2}), 18, extended=True))
    assert is_min_weight(CodewordSupport(gf16, frozenset(range(16)), 16, extended=True)).member


# -- the check polynomial and its products ------------------------------------


def test_min_polys_match_oracle():
    # every coset leader at m = 2..12 against one elimination per leader
    for m in range(2, 13):
        ctx = default_field(m)
        lead = np.concatenate(list(_coset_leaders(m, 1, ctx.n)))
        assert _min_polys(ctx, lead).tolist() == [min_poly(ctx, r) for r in lead.tolist()], m


def test_check_poly_matches_oracle_product():
    # every L at m <= 10: h against the bit-serial product of the oracle
    # minimal polynomials of the leaders above L, from the top down
    for m in range(2, 11):
        ctx = default_field(m)
        leaders = set(_leaders(m, 1, ctx.n))
        h = 0b11
        for j_limit in range(ctx.n - 1, -1, -1):
            if j_limit + 1 in leaders:
                h = ref_clmul(h, min_poly(ctx, j_limit + 1))
            assert _check_poly(ctx, j_limit) == h, (m, j_limit)


def _near_blocks(k: int):
    """Coefficient counts near 1..k blocks, and a few small or anywhere."""
    edges = [st.integers(q * _BLOCK - 2, q * _BLOCK + 2) for q in range(1, k + 1)]
    return st.one_of(st.integers(1, 64), st.integers(1, k * _BLOCK), *edges)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_fft_product_matches_shift_xor(data):
    # random 0/1 polynomials, dense or sparse, whose lengths straddle the
    # block size: the rounded FFT product against the shift-XOR one
    rand = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    a_len, b_len = data.draw(_near_blocks(3), label="a"), data.draw(_near_blocks(2), label="b")
    density = data.draw(st.sampled_from([0.5, 0.01]), label="density")
    a, b = (
        sum(1 << t for t in range(length - 1) if rand.random() < density) | 1 << (length - 1)
        for length in (a_len, b_len)
    )
    assert _fft_mul(a, b) == _shift_xor_mul(a, b)


def test_fft_products_of_zero_and_one():
    x = rng(7).getrandbits(3 * _BLOCK)
    assert _fft_mul(x, 0) == _fft_mul(0, x) == 0
    assert _fft_mul(x, 1) == _fft_mul(1, x) == x


def test_exact_fallback_keeps_verdicts(monkeypatch):
    # with the residue bound at 0 every rounded block is refused and
    # recomputed by shift-XOR: verdicts and first failing syndromes of
    # members and mutants on the FFT check route are unchanged.  The members
    # at s = 2 take the affine route by default, so the check is forced; the
    # swap mutants fail p_1, so they are decided before any route runs.
    ctx, rand = default_field(16), rng(11)
    claims = []
    for i, s in ((2, 1), (2, 2), (3, 2)):
        cw, _, _ = generate(ctx, i, s, seed=0)
        claims.append(cw)
        for kind in ("p1swap", "swap"):
            bad = _mutate(ctx, elem_set(cw), kind, rand)
            claims.append(CodewordSupport(ctx, bad, cw.claimed_distance, cw.extended))
    default = [is_min_weight(cw) for cw in claims]
    routes = ["check", "check", "scan"] + ["affine", "check", "scan"] * 2
    assert [v.route for v in default] == routes
    monkeypatch.setattr(verify, "_pick_route", lambda *args: "check")
    verdicts = [is_min_weight(cw) for cw in claims]
    assert [_outcome(v) for v in verdicts] == [_outcome(v) for v in default]
    assert [v.route for v in verdicts] == ["check", "check", "scan"] * 3
    assert [v.is_min_weight for v in verdicts] == [True, False, False] * 3
    exact_blocks = []

    def counted(a, b):
        exact_blocks.append(1)
        return _shift_xor_mul(a, b)

    monkeypatch.setattr(verify, "_MAX_RESIDUE", 0.0)
    monkeypatch.setattr(verify, "_shift_xor_mul", counted)
    fft_calls = []
    monkeypatch.setattr(verify, "_fft_mul", lambda a, b: fft_calls.append(1) or _fft_mul(a, b))
    assert [is_min_weight(cw) for cw in claims] == verdicts
    assert len(fft_calls) == 3 * 2 and exact_blocks  # the p1swap mutants reach the check too
    # strips of two blocks: each output block is recomputed from two pairs
    a, b = rand.getrandbits(6 * _BLOCK), rand.getrandbits(3 * _BLOCK)
    assert _fft_mul(a, b) == ref_clmul(a, b)


# -- the affine route -------------------------------------------------------------


def _outcome(verdict):
    return verdict.member, verdict.is_min_weight, verdict.failing_syndrome, verdict.weight


def _forced(cw, route):
    """is_min_weight(cw) with the route forced; "affine" forces the
    stabilizer search on every searchable claim, and the cost rule picks the
    route of a claim whose search finds nothing."""
    pick = verify._pick_route

    def forced(ctx, j_limit, size, searchable):
        if route != "affine":
            return route
        return "affine" if searchable else pick(ctx, j_limit, size, False)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_pick_route", forced)
        return is_min_weight(cw)


def _routes_agree(cw):
    """The default verdict of cw, asserted equal to the verdicts with the
    search, the scan and the check forced, but for the route."""
    default = is_min_weight(cw)
    for route in ("affine", "scan", "check"):
        assert _outcome(_forced(cw, route)) == _outcome(default), route
    return default


def _affine(spec, d):
    # the support is X + span(B) as a plain set, so that the route itself
    # refuses two x in one coset
    support = elem_array({x ^ v for v in _span(spec.basis) for x in spec.x_set.tolist()})
    return is_min_weight_affine(spec.ctx, spec.x_set, spec.basis, d, support)


def _agrees(spec, d):
    """The affine verdict of spec at d, asserted equal to the scan's and the
    check's on the expanded support, and to its default verdict and the
    one through the stabilizer search."""
    affine = _affine(spec, d)
    assert affine.route == "affine" and affine.weight == spec.weight
    cw = CodewordSupport(spec.ctx, expand(spec).elems, d, True)
    assert _outcome(_routes_agree(cw)) == _outcome(affine)
    return affine


def _mutants_agree(spec, d, rand):
    ctx, basis = spec.ctx, spec.basis
    x, *rest = spec.x_set.tolist()
    rest = frozenset(rest)
    # one x moved inside its coset: the same S and the same verdict
    inside = SupportSpec(ctx, elem_array(rest | {x ^ basis[-1]}), basis)
    assert np.array_equal(expand(inside).elems, expand(spec).elems)
    assert _outcome(_affine(inside, d)) == _outcome(_affine(spec, d))
    # one x moved to a coset no x is in: p_1(Y) becomes A(x) + A(y) != 0
    outside = SupportSpec(ctx, elem_array(rest | {_outsider(ctx, expand(spec).elems, rand)}), basis)
    assert not _agrees(outside, d).member
    # one basis vector replaced, redrawn until X + span(B) keeps its size
    while True:
        replaced = SupportSpec(ctx, spec.x_set, basis[:-1] + (rand.getrandbits(ctx.m),))
        try:
            expand(replaced)
        except ValueError:
            continue
        break
    _agrees(replaced, d)
    # two x in one coset, and a dependent B, are refused
    with pytest.raises(ValueError, match="one coset"):
        _affine(SupportSpec(ctx, elem_array(rest | {min(rest) ^ basis[0]}), basis), d)
    with pytest.raises(ValueError, match="dependent"):
        _affine(SupportSpec(ctx, spec.x_set, basis + (reduce(xor, basis),)), d)


@pytest.mark.parametrize("m", range(4, 17))
def test_affine_route_agrees_on_grid_specs(m):
    # the spec of every acceptance-grid cell at m, and its mutants up to
    # m = 14 where B is not empty: member, is_min_weight and the first
    # failing syndrome equal the scan's and the check's on X + span(B)
    rand = rng(m)
    for _, i, s, method in (cell for cell in covered_cells() if cell[0] == m):
        _, _, spec = generate(default_field(m), i, s, 1, method)
        d = designed_distance(m, s, i)
        assert _agrees(spec, d).is_min_weight, (i, s, method)
        if m <= 14 and spec.basis:  # their scans to 2q - 1 take seconds above
            _mutants_agree(spec, d, rand)


def test_affine_route_agrees_on_random_claims():
    # random X and B at random even d: odd |X| (failing at p_(q-1) = a_0
    # when q > 1) and ceil(d / q) = 1 (as at i = 1: nothing to check on Y)
    # both occur, among members and non-members
    rand, seen = rng(21), set()
    for _ in range(300):
        ctx = default_field(rand.randint(4, 9))
        k = rand.randint(0, ctx.m - 2)
        basis = tuple(_subspace_basis(ctx, k, rand))
        x_set = frozenset(rand.getrandbits(ctx.m) for _ in range(rand.randint(1, 7)))
        spec = SupportSpec(ctx, elem_array(x_set), basis)
        try:
            expand(spec)
        except ValueError:  # two x in one coset
            with pytest.raises(ValueError, match="one coset"):
                _affine(spec, 2)
            continue
        d = rand.randrange(2, min(ctx.n + 1, spec.weight * 2) + 1, 2)
        verdict = _agrees(spec, d)
        seen.add((len(x_set) % 2, -(-d // (1 << k)) == 1, verdict.member))
    assert seen >= {(1, False, False), (0, True, True), (1, True, True), (0, False, False)}


def test_affine_route_checks_the_support():
    # the route certifies only the set X + span(B) itself: a swapped, a
    # dropped and a translated element set (the last still a minimum-weight
    # codeword) are refused, and so are elements outside the field; at
    # s = 6, B is empty (q = 1) and the set must be X itself
    ctx = default_field(10)
    for s in (3, 6):
        cw, _, spec = generate(ctx, 2, s, 1)
        assert len(spec.basis) == 6 - s
        claim = (ctx, spec.x_set, spec.basis, cw.claimed_distance)
        assert is_min_weight_affine(*claim, cw.elems).is_min_weight
        support = elem_set(cw)
        shifts = (frozenset(x ^ c for x in support) for c in range(1, ctx.n + 1))
        translated = next(e for e in shifts if e != support)
        translated_cw = CodewordSupport(ctx, translated, cw.claimed_distance, True)
        assert is_min_weight(translated_cw).is_min_weight
        for bad in (_mutate(ctx, support, "swap", rng(1)), support - {max(support)}, translated):
            with pytest.raises(ValueError, match=r"support is not X \+ span\(B\)"):
                is_min_weight_affine(*claim, elem_array(bad))
        with pytest.raises(ValueError, match="must lie in GF"):
            is_min_weight_affine(*claim, elem_array(support - {max(support)} | {1 << 10}))
        with pytest.raises(ValueError, match="elements of GF"):
            is_min_weight_affine(
                ctx, elem_array({*spec.x_set.tolist(), 1 << 10}), spec.basis, cw.claimed_distance,
                cw.elems,
            )


@pytest.mark.parametrize("m, i, s", [(9, 2, 1), (12, 3, 2), (8, 2, 4)])
def test_affine_route_compares_the_support_with_the_expansion(m, i, s):
    # a moved, a dropped and an extra point, and two sets of the right size
    # that are not X + span(B) (a translate and a swap of two points that
    # keeps p_1), each refused in ascending and in shuffled order; a
    # shuffled support gets the verdict of its sorted copy
    ctx, rand = default_field(m), rng(m)
    cw, _, spec = generate(ctx, i, s, 1)
    claim = (ctx, spec.x_set, spec.basis, cw.claimed_distance)
    support = elem_set(cw)
    out = _outsider(ctx, support, rand)
    shift = next(c for c in range(1, ctx.n + 1) if {x ^ c for x in support} != support)

    def shuffled(elems):
        elems = sorted(elems)
        rand.shuffle(elems)
        return np.array(elems, dtype=np.uint64)

    verdict = is_min_weight_affine(*claim, cw.elems)
    assert verdict.is_min_weight
    assert is_min_weight_affine(*claim, shuffled(support)) == verdict
    for bad in (
        support - {max(support)} | {out},
        support - {max(support)},
        support | {out},
        frozenset(x ^ shift for x in support),
        _mutate(ctx, support, "p1swap", rand),
    ):
        for order in (elem_array, shuffled):
            with pytest.raises(ValueError, match=r"support is not X \+ span\(B\)"):
                is_min_weight_affine(*claim, order(bad))
    with pytest.raises(ValueError, match="must lie in GF"):
        is_min_weight_affine(*claim, shuffled(support | {1 << m}))


# -- the stabilizer search ------------------------------------------------------


def _stabilizer_dim(elems) -> int:
    """log2 of |{v : S + v = S}|, by trying every v in S + s_0."""
    s = elem_array(elems)
    count = sum(bool(np.array_equal(np.sort(s ^ v), s)) for v in (s ^ s[0]).tolist())
    return count.bit_length() - 1


@pytest.mark.parametrize("m", range(4, 14))
def test_default_verdict_agrees_on_mutants(m):
    # every grid support at m (its spec's moved-coset mutants are in
    # `_mutants_agree`), one p_1-preserving swap of it and its claim at
    # d + 2: the default verdict equals the forced search's, scan's and
    # check's; up to 512 points the search finds the whole stabilizer.  The
    # punctured claim is decided as the extended one on its support and 0,
    # route included, so it reaches the stabilizer search too.
    rand = rng(100 + m)
    for _, i, s, method in (cell for cell in covered_cells() if cell[0] == m):
        cw, _, _ = generate(default_field(m), i, s, 1, method)
        ctx, d, support = cw.ctx, cw.claimed_distance, elem_set(cw)
        swapped = _mutate(ctx, support, "p1swap", rand)
        for elems, claimed in ((support, d), (swapped, d), (support, d + 2)):
            verdict = _routes_agree(CodewordSupport(ctx, elems, claimed, True))
            assert verdict.is_min_weight == (elems is support and claimed == d), (i, s)
            if len(elems) <= 512:
                basis, _ = verify._stabilizer(elem_array(elems), m)
                assert len(basis) == _stabilizer_dim(elems), (i, s)
        punctured = puncture(cw, int(cw.elems[0]))
        verdict = _routes_agree(punctured)
        assert verdict.is_min_weight and verdict.weight == verdict.claimed_distance == d - 1
        extended = is_min_weight(CodewordSupport(ctx, elem_set(punctured) | {0}, d, True))
        assert extended.is_min_weight and verdict.route == extended.route, (i, s)


def _frozen_verdict(claim):
    """(member, weight, claimed_distance, is_min_weight, failing_syndrome)
    of claim from the frozen scan at L = d - 2 (extended) or d - 1
    (punctured); odd weight refuses an extended claim, and 0 in the support
    a punctured one, with no syndrome."""
    elems, d = claim.elems.tolist(), claim.claimed_distance
    refused = len(elems) % 2 == 1 if claim.extended else 0 in elems
    j_limit = d - 2 if claim.extended else d - 1
    fail = None if refused else scan_oracle.first_failure(claim.ctx, elems, j_limit)
    member = not refused and fail is None
    return member, len(elems), d, member and len(elems) == d, fail


@pytest.mark.parametrize("m", range(4, 14))
def test_punctured_claims_match_the_frozen_scan(m):
    # every covered support at m, punctured at its least element, and the
    # extended support itself; mutants of each: a moved element, 0 added,
    # one element dropped (parity flips) and the claim at d - 2 and d + 2.
    # Each verdict, on the default route and on each forced one, equals the
    # frozen scan's
    rand, seen = rng(200 + m), set()
    for _, i, s, method in (cell for cell in covered_cells() if cell[0] == m):
        cw, _, _ = generate(default_field(m), i, s, 1, method)
        for claim in (puncture(cw, int(cw.elems[0])), cw):
            ctx, d, support = claim.ctx, claim.claimed_distance, elem_set(claim)
            moved = _mutate(ctx, support, "swap", rand)
            dropped = _mutate(ctx, support, "remove", rand)
            for elems, claimed in (
                (support, d), (moved, d), (support | {0}, d), (dropped, d),
                (support, d - 2), (support, d + 2),
            ):
                mutant = CodewordSupport(ctx, elems, claimed, claim.extended)
                verdict = _routes_agree(mutant)
                where = (i, s, method, claim.extended, claimed)
                assert astuple(verdict)[:5] == _frozen_verdict(mutant), where
                seen.add((claim.extended, verdict.member, verdict.failing_syndrome is None))
    assert seen == {(e, False, False) for e in (False, True)} | {
        (e, member, True) for e in (False, True) for member in (False, True)
    }


def test_no_route_is_priced_before_p1(monkeypatch):
    # a claim decided by parity or p_1 reports the scan and prices no route:
    # an odd-weight extended claim, a corrupted (16, 2, 0) support and a
    # punctured claim that holds 0
    ctx = default_field(16)
    cw, _, _ = generate(ctx, 2, 0, seed=0)
    d = cw.claimed_distance
    claims = (
        CodewordSupport(ctx, cw.elems[1:], d, True),
        CodewordSupport(ctx, _mutate(ctx, elem_set(cw), "swap", rng(16)), d, True),
        CodewordSupport(ctx, elem_set(cw) | {0}, d - 1, False),
    )

    def priced(*args):
        raise AssertionError("a route was priced before p_1")

    monkeypatch.setattr(verify, "_coset_counts", priced)
    monkeypatch.setattr(verify, "_pick_route", priced)
    verdicts = [is_min_weight(claim) for claim in claims]
    assert [v.route for v in verdicts] == ["scan"] * 3
    assert [v.member for v in verdicts] == [False] * 3
    assert [v.failing_syndrome for v in verdicts[::2]] == [None, None]
    assert verdicts[1].failing_syndrome[0] == 1


def test_search_finds_a_stabilizer_larger_than_b():
    # a translate of an r-dimensional subspace, given as X + span(B) with
    # |X| = 2 and r - 1 basis vectors: the search finds all r dimensions,
    # so Y is one point, and the verdicts at d = 2^r (a member) and 2^r + 2
    # (failing at p_(2^r - 1)) agree with the scan's and the check's
    rand = rng(31)
    for m in (6, 9, 12):
        ctx = default_field(m)
        for r in (2, m // 2, m - 1):
            basis = _subspace_basis(ctx, r, rand)
            a = rand.getrandbits(m)
            spec = SupportSpec(ctx, elem_array({a, a ^ basis[-1]}), tuple(basis[:-1]))
            elems = expand(spec).elems
            assert len(verify._stabilizer(elems, m)[0]) == r
            for d in (1 << r, (1 << r) + 2):
                verdict = _routes_agree(CodewordSupport(ctx, elems, d, True))
                assert verdict.member == (d == 1 << r), (m, r, d)
                if d > 1 << r:
                    assert verdict.failing_syndrome[0] == (1 << r) - 1


def test_search_without_symmetry_falls_back():
    # Gold supports at their own s and gk supports have no translation
    # symmetry: the forced search finds none, and the claim, its
    # p_1-preserving swap and its claim at d + 2 take the scan or the check
    rand = rng(41)
    for m, i, s, method in (
        (8, 2, 4, "gold"), (12, 3, 6, "gold"), (16, 4, 8, "gold"),
        (8, 2, 4, "gk"), (12, 2, 8, "gk"), (16, 2, 12, "gk"),
    ):
        cw, _, spec = generate(default_field(m), i, s, 1, method)
        assert not spec.basis and _stabilizer_dim(elem_set(cw)) == 0
        assert verify._stabilizer(cw.elems, m)[0] == []
        ctx, d = cw.ctx, cw.claimed_distance
        swapped = _mutate(ctx, elem_set(cw), "p1swap", rand)
        for elems, claimed in ((cw.elems, d), (swapped, d), (cw.elems, d + 2)):
            claim = CodewordSupport(ctx, elems, claimed, True)
            _routes_agree(claim)
            searched = _forced(claim, "affine")
            size = len(_nonzero(claim.elems))
            assert searched.route == _pick_route(ctx, claimed - 2, size, False)


def _capped_search_support() -> set:
    """S = W + (h + W less e1, e2) + {z, z + e1 + e2}, with W the 256
    elements below 2^8, at m = 12: p_1 = 0 and |S| is even; every nonzero
    w in W but four passes the probes, and only e1 + e2 = 0xff, the last
    of them, stabilizes S."""
    e1, e2, h, z = 0x80, 0x7F, 0x100, 0x200
    low = set(range(256))
    return low | {h ^ w for w in low - {e1, e2}} | {z, z ^ e1 ^ e2}


def test_stabilizer_search_caps_failed_checks(monkeypatch):
    # the support of `_capped_search_support`: each failed check's witness
    # removes about two candidates, so the search gives up after 2m = 24
    # failed checks
    ctx, elems = default_field(12), _capped_search_support()
    assert reduce(xor, elems) == 0 and len(elems) % 2 == 0
    assert _stabilizer_dim(elems) == 1
    checks = []
    monkeypatch.setattr(verify, "_witness", lambda *args: checks.append(1) or _witness(*args))
    assert verify._stabilizer(elem_array(elems), 12)[0] == []
    assert len(checks) == 2 * 12
    checks.clear()
    verdict = _forced(CodewordSupport(ctx, elems, len(elems), True), "affine")
    assert len(checks) == 2 * 12 and verdict.route != "affine"
    _routes_agree(CodewordSupport(ctx, elems, len(elems), True))


def _coset_swap(spec, rand) -> frozenset:
    """X + span(B) with the coset of its least x replaced by one outside
    it: still a union of cosets of span(B), so the search finds B, and
    p_1 is kept when |B| >= 2."""
    support, span = elem_set(expand(spec)), _span(spec.basis)
    while True:
        y = _outsider(spec.ctx, support, rand)
        if not support & {y ^ v for v in span}:
            x = int(spec.x_set[0])
            return (support - {x ^ v for v in span}) | {y ^ v for v in span}


def _memberships_agree(claim):
    """The search's (B, X) on claim.elems and the default and forced-search
    Verdicts of claim, asserted equal with membership in S tested by the
    2^m-entry table and by the sorted search."""
    results = []
    for table_max_m in (claim.ctx.m, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_TABLE_MAX_M", table_max_m)
            basis, x_set = verify._stabilizer(claim.elems, claim.ctx.m)
            results.append((basis, x_set.tolist(), is_min_weight(claim), _forced(claim, "affine")))
    assert results[0] == results[1]
    return results[0]


@pytest.mark.parametrize(
    "m, i, s", [(10, 2, 0), (12, 4, 0), (13, 3, 3), (14, 3, 4), (16, 2, 4), (16, 4, 4), (16, 3, 3),
                (16, 2, 1), (16, 3, 1)],
)
def test_table_and_sorted_membership_agree(m, i, s):
    # the benchmark's verify_files cells and (16, 2..3, 1), extended and
    # punctured, a coset-swap mutant and one-element mutants of each
    # (moved, added, removed, and two moved keeping p_1): the search finds
    # the same (B, X) and the claims get the same Verdicts either way
    rand = rng(300 + m + i + s)
    cw, _, spec = generate(default_field(m), i, s, 1)
    ctx, d, support = cw.ctx, cw.claimed_distance, elem_set(cw)
    mutants = [_mutate(ctx, support, kind, rand) for kind in ("swap", "add", "remove", "p1swap")]
    if spec.basis:
        mutants.append(_coset_swap(spec, rand))
    basis, _, verdict, _ = _memberships_agree(cw)
    assert verdict.is_min_weight and len(basis) >= len(spec.basis)
    _memberships_agree(puncture(cw, int(cw.elems[0])))
    for elems in mutants:
        _memberships_agree(CodewordSupport(ctx, elems, d, True))
        _memberships_agree(CodewordSupport(ctx, elems - {0}, d - 1, False))


def test_table_and_sorted_membership_agree_on_the_capped_search():
    ctx, elems = default_field(12), _capped_search_support()
    basis, _, verdict, searched = _memberships_agree(CodewordSupport(ctx, elems, len(elems), True))
    assert basis == [] and searched.route != "affine"


def test_membership_table_only_up_to_m_16():
    # an 8-point translate of a 3-dimensional subspace: the search fills a
    # 2^m-entry table at m = 16 and none at m = 17, where it searches the
    # sorted support; numpy reports its buffers to tracemalloc
    for m, table in ((16, True), (17, False)):
        elems = elem_array(_subspace_member(default_field(m), 3, True, rng(m)))
        tracemalloc.start()
        try:
            basis, _ = verify._stabilizer(elems, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(basis) == 3 and (peak >= 1 << m) == table, (m, peak)


@pytest.mark.parametrize("m", [12, 16, 25])
def test_elements_outside_the_field_raise(m):
    # a duck-typed claim whose elements reach 2^m, extended and punctured:
    # one element at 2^m (odd weight), and two elements moved past 2^m
    # keeping parity and p_1, so that no later check would refuse it
    cw, _, _ = generate(default_field(m), 2, 0 if m < 25 else 21, 1)
    high = np.uint64(1 << m)
    moved = cw.elems.copy()
    moved[-2:] ^= high
    for elems in (np.append(cw.elems, high), np.sort(moved)):
        for extended, d in ((True, cw.claimed_distance), (False, cw.claimed_distance - 1)):
            claim = SimpleNamespace(ctx=cw.ctx, claimed_distance=d, extended=extended, elems=elems)
            with pytest.raises(ValueError, match="must lie in GF"):
                is_min_weight(claim)
