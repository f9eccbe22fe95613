import pytest

from bchmin.construct import CodewordSupport
from bchmin.fixtures import BCH23_FIXTURE, BCH27_FIXTURES
from bchmin.gf2m import default_field
from bchmin.verify import (
    BadDistanceParity,
    BadRange,
    designed_distance,
    is_member,
    is_min_weight,
    power_sums,
)

from conftest import rng


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
    # the numpy table path (m <= 24) and the scalar path (m > 24) against a
    # direct sum of powers
    r = rng(23)
    for m in (10, 25):
        ctx = default_field(m)
        elems = {x for x in (r.getrandbits(m) for _ in range(30)) if x}
        p = power_sums(CodewordSupport(ctx, frozenset(elems), 6, True), 25)
        for j in (1, 7, 25):
            direct = 0
            for x in elems:
                direct ^= ctx.pow(x, j)
            assert p[j - 1] == direct


# -- membership ---------------------------------------------------------------


def test_member_table_fixture_m8():
    _, cw = _fixture(8)
    assert is_member(cw)
    verdict = is_min_weight(cw)
    assert verdict.member and verdict.weight == 27 and verdict.is_min_weight


def test_member_weight23_fixture():
    m, poly, exps = BCH23_FIXTURE
    ctx = default_field(m, poly)
    cw = CodewordSupport(ctx, frozenset(ctx.exp(e) for e in exps), 23, False)
    assert is_min_weight(cw).is_min_weight


def test_single_element_extended_fails_parity(gf256):
    cw = CodewordSupport(gf256, frozenset({7}), 4, extended=True)
    assert not is_member(cw)
    assert is_min_weight(cw).failing_syndrome is None  # parity, not a syndrome


def test_nonextended_rejects_zero_in_support(gf256):
    cw = CodewordSupport(gf256, frozenset({0, 1, 2}), 3, extended=False)
    assert not is_member(cw)


def test_distance_parity_validation(gf256):
    with pytest.raises(BadDistanceParity):
        is_member(CodewordSupport(gf256, frozenset({1, 2}), 5, extended=True))
    with pytest.raises(BadDistanceParity):
        is_member(CodewordSupport(gf256, frozenset({1, 2}), 6, extended=False))
    with pytest.raises(ValueError):
        is_member(CodewordSupport(gf256, frozenset({1, 2}), 1, extended=False))


def test_mutated_fixture_fails_with_syndrome():
    ctx, cw = _fixture(8)
    r = rng(29)
    elems = sorted(cw.elems)
    dropped = elems[5]
    while True:
        swap = r.getrandbits(8)
        if swap and swap not in cw.elems:
            break
    bad = CodewordSupport(ctx, (cw.elems - {dropped}) | {swap}, 27, False)
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
    for x in cw.elems:
        bad = CodewordSupport(ctx, (cw.elems - {x}) | {outsider}, 27, False)
        assert not is_member(bad)


# -- designed distance ----------------------------------------------------------


def test_designed_distance_values():
    assert designed_distance(4, 0, 2) == 6
    assert designed_distance(8, 0, 3) == 112
    assert designed_distance(12, 0, 4) == 1920
    for m in (8, 10, 13, 16):
        assert designed_distance(m, m - 6, 3) == 28


def test_designed_distance_range_checks():
    with pytest.raises(BadRange):
        designed_distance(1, 0, 0)
    with pytest.raises(BadRange):
        designed_distance(8, 0, 5)  # i > m/2
    with pytest.raises(BadRange):
        designed_distance(8, 5, 2)  # s > m - 2i
    with pytest.raises(BadRange):
        designed_distance(8, -1, 2)
