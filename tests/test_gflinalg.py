import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchmin import gflinalg, linearized
from bchmin.gf2m import default_field
from bchmin.gflinalg import (
    LinearMap,
    complete_to_basis,
    dual_basis,
    independent,
    span,
)

from conftest import dot, invert, rank, rng, transpose


def _rank_oracle(rows, ncols):
    """Independent elimination for cross-checking (column-major scan)."""
    rows = [r for r in rows]
    used = [False] * len(rows)
    rk = 0
    for c in range(ncols):
        piv = None
        for i, row in enumerate(rows):
            if not used[i] and (row >> c) & 1:
                piv = i
                break
        if piv is None:
            continue
        used[piv] = True
        rk += 1
        for i, row in enumerate(rows):
            if i != piv and (row >> c) & 1:
                rows[i] ^= rows[piv]
    return rk


def _apply(images, x):
    """f(x) for the linear map with f(e_k) = images[k]."""
    acc = 0
    for k, img in enumerate(images):
        if (x >> k) & 1:
            acc ^= img
    return acc


def test_solve_identity():
    fmap = LinearMap([1, 2, 4, 8])
    assert fmap.preimage(0b1010) == 0b1010
    assert fmap.kernel == []
    assert fmap.image == [1, 2, 4, 8]


def test_solve_zero_matrix_inconsistent():
    fmap = LinearMap([0, 0, 0])
    assert fmap.preimage(0b010) is None
    assert fmap.preimage(0) == 0
    assert len(fmap.kernel) == 3  # homogeneous part still returned


def test_solve_random_systems():
    # n images of w bits: square, wide and tall, the non-square ones drawn
    # from a random subspace so that the rank also falls below min(n, w)
    r = rng(42)
    shapes = [(20, 20)] * 30 + [(n, w) for n in (1, 5, 13, 32) for w in (1, 6, 32) if n != w] * 4
    for n, w in shapes:
        if n == w:
            images = [r.getrandbits(w) for _ in range(n)]
        else:
            gens = [r.getrandbits(w) for _ in range(r.randint(1, w))]
            images = [_apply(gens, r.getrandbits(len(gens))) for _ in range(n)]
        rk = _rank_oracle(images, w)
        xtrue = r.getrandbits(n)
        y = _apply(images, xtrue)
        fmap = LinearMap(images)
        x = fmap.preimage(y)
        assert x is not None and _apply(images, x) == y
        assert len(fmap.kernel) == n - rk and len(fmap.image) == rk
        for k in fmap.kernel:
            assert _apply(images, x ^ k) == y
        # the image rows are a basis of the span of the images
        assert _rank_oracle(fmap.image, w) == rk
        for v in fmap.image + images:
            pre = fmap.preimage(v)
            assert pre is not None and _apply(images, pre) == v


def test_solve_outside_image():
    # images span only the even-weight vectors of GF(2)^6
    r = rng(44)
    images = [0] * 6
    while _rank_oracle(images, 6) < 5:
        images = [v ^ (v.bit_count() & 1) for v in (r.getrandbits(6) for _ in range(6))]
    fmap = LinearMap(images)
    for y in range(64):
        x = fmap.preimage(y)
        if y.bit_count() & 1:
            assert x is None
        else:
            assert x is not None and _apply(images, x) == y


def test_nullspace_vectors_annihilate():
    r = rng(5)
    images = [r.getrandbits(8) for _ in range(12)]
    kernel = LinearMap(images).kernel
    for v in kernel:
        assert _apply(images, v) == 0
    assert len(kernel) == 12 - _rank_oracle(images, 8)
    assert rank(kernel) == len(kernel)


def test_invert_roundtrip():
    r = rng(8)
    while True:
        rows = [r.getrandbits(10) for _ in range(10)]
        if _rank_oracle(rows, 10) == 10:
            break
    inv = invert(rows, 10)
    # (A^-1 A) x = x for unit vectors
    for k in range(10):
        col = 0
        for i in range(10):
            col |= dot(rows[i], 1 << k) << i
        back = 0
        for i in range(10):
            back |= dot(inv[i], col) << i
        assert back == 1 << k


def test_invert_singular_raises():
    with pytest.raises(ValueError, match="matrix is singular over GF"):
        invert([1, 1, 2], 3)


def test_transpose_involution():
    r = rng(77)
    rows = [r.getrandbits(9) for _ in range(5)]
    assert transpose(transpose(rows, 9), 5) == rows


def test_span_sizes():
    assert span([]) == [0]
    assert sorted(span([1, 2])) == [0, 1, 2, 3]


# -- element-level operations --------------------------------------------------


def test_independent_basics(gf16):
    assert independent(gf16, [1])
    assert not independent(gf16, [0])
    assert not independent(gf16, [5, 5])
    assert independent(gf16, [])


@pytest.mark.parametrize("m", [4, 6, 8])
def test_independent_f4_scaled_pair(m):
    # (1, alpha, c, c*alpha) with c generating GF(4)* is independent
    ctx = default_field(m)
    _, c = linearized.subfield(ctx, 2)
    assert independent(ctx, [1, ctx.alpha, c, ctx.mul(c, ctx.alpha)])


def test_complete_to_basis_empty_gives_polynomial_basis(gf256):
    assert complete_to_basis(gf256, []) == [1 << k for k in range(8)]


def test_complete_to_basis_full_set_unchanged(gf256):
    full = [3, 7, 11, 29, 64, 128, 35, 201]
    assert independent(gf256, full)
    assert complete_to_basis(gf256, full) == full


def test_complete_to_basis_preserves_prefix(gf256):
    r = rng(31)
    for _ in range(100):
        elems = []
        while len(elems) < 4:
            x = r.getrandbits(8)
            if x and independent(gf256, elems + [x]):
                elems.append(x)
        basis = complete_to_basis(gf256, elems)
        assert basis[:4] == elems
        assert len(basis) == 8
        assert independent(gf256, basis)


def test_complete_to_basis_rejects_dependent(gf256):
    with pytest.raises(ValueError, match="cannot complete dependent elements"):
        complete_to_basis(gf256, [3, 5, 6])  # 3 ^ 5 = 6


def test_dual_basis_constraints(gf16):
    basis = complete_to_basis(gf16, [])
    dual = dual_basis(gf16, basis)
    for i, b in enumerate(basis):
        for j, bp in enumerate(dual):
            assert gf16.trace(gf16.mul(b, bp)) == (1 if i == j else 0)


def test_dual_basis_involution(gf256):
    r = rng(17)
    for _ in range(10):
        elems = []
        while len(elems) < 8:
            x = r.getrandbits(8)
            if x and independent(gf256, elems + [x]):
                elems.append(x)
        assert dual_basis(gf256, dual_basis(gf256, elems)) == elems


def test_self_dual_basis_fixed():
    # {c, c^2} is trace-self-dual in GF(4)
    ctx = default_field(2)
    _, c = linearized.subfield(ctx, 2)
    basis = [c, ctx.mul(c, c)]
    assert dual_basis(ctx, basis) == basis


@given(st.lists(st.integers(1, 255), min_size=1, max_size=8))
@settings(max_examples=50)
def test_rank_matches_oracle(rows):
    assert rank(rows) == _rank_oracle(rows, 8)


def _greedy_completion(m, elems):
    """The first unit vectors 1, alpha, ... that extend the rank, in turn."""
    basis = list(elems)
    for k in range(m):
        if rank(basis + [1 << k]) > len(basis):
            basis.append(1 << k)
    return basis


def _matmul(a, b):
    """Product of bit matrices given as rows: row i is the XOR of the rows
    b[k] with bit k set in a[i]."""
    return [_apply(b, row) for row in a]


@pytest.mark.parametrize("m", range(2, 33))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_against_definitions(m, data):
    # complete_to_basis is the greedy completion, dual_basis the trace-dual,
    # invert a left inverse, and each refuses dependent input
    ctx = default_field(m)
    elem = st.integers(0, ctx.n)
    elems = data.draw(st.lists(elem, max_size=m), label="elems")
    if _rank_oracle(elems, m) < len(elems):
        with pytest.raises(ValueError, match="cannot complete dependent elements"):
            complete_to_basis(ctx, elems)
        return
    basis = complete_to_basis(ctx, elems)
    assert basis == _greedy_completion(m, elems) and len(basis) == m
    dual = dual_basis(ctx, basis)
    for i, b in enumerate(basis):
        for j, bp in enumerate(dual):
            assert ctx.trace(ctx.mul(b, bp)) == (i == j)
    assert _matmul(invert(basis, m), basis) == [1 << k for k in range(m)]
    # one element replaced by a combination of the others
    mask = data.draw(st.integers(0, (1 << (m - 1)) - 1), label="mask")
    dep = basis[1:] + [_apply(basis[1:], mask)]
    for call, message in (
        (lambda: complete_to_basis(ctx, dep), "cannot complete dependent elements"),
        (lambda: dual_basis(ctx, dep), "dual basis requires a full basis"),
        (lambda: invert(dep, m), "matrix is singular over GF"),
        (lambda: dual_basis(ctx, basis[1:]), "dual basis requires a full basis"),
    ):
        with pytest.raises(ValueError, match=message):
            call()
