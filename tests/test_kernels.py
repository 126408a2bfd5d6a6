"""Integer Laurent-polynomial kernel against sympy."""

import random

import pytest
import sympy

from covquant import kernels

V = sympy.Symbol("v")


def lp_to_sympy(a):
    off, coeffs = a
    return sum(c * V ** (off + k) for k, c in enumerate(coeffs) if c)


def sympy_equal(x, y):
    return sympy.simplify(sympy.expand(x - y)) == 0


def random_lp(rng, max_terms=4, max_coeff=9, max_off=3):
    n = rng.randrange(max_terms + 1)
    off = rng.randrange(-max_off, max_off + 1)
    coeffs = [rng.randrange(-max_coeff, max_coeff + 1) for _ in range(n)]
    return (off, tuple(coeffs))


# One parameter, named after kernels.IMPLEMENTATION, keeps the test ids.
@pytest.fixture(params=[kernels.IMPLEMENTATION])
def kern(request):
    return kernels


def test_trim_normalizes(kern):
    assert kern.lp_trim(2, (0, 0, 3, 0)) == (4, (3,))
    assert kern.lp_trim(-1, (0, 0)) == kern.LP_ZERO
    assert kern.lp_trim(0, ()) == kern.LP_ZERO


def test_basic_queries(kern):
    a = kern.lp_trim(-2, (1, 0, 5))
    assert not kern.lp_is_zero(a)
    assert kern.lp_is_zero(kern.LP_ZERO)


def test_arithmetic_matches_sympy(kern):
    rng = random.Random(11)
    for _ in range(120):
        a = kern.lp_trim(*random_lp(rng))
        b = kern.lp_trim(*random_lp(rng))
        sa, sb = lp_to_sympy(a), lp_to_sympy(b)
        assert sympy_equal(lp_to_sympy(kern.lp_add(a, b)), sa + sb)
        assert sympy_equal(lp_to_sympy(kern.lp_sub(a, b)), sa - sb)
        assert sympy_equal(lp_to_sympy(kern.lp_mul(a, b)), sympy.expand(sa * sb))
        assert sympy_equal(lp_to_sympy(kern.lp_neg(a)), -sa)
        assert sympy_equal(lp_to_sympy(kern.lp_scale(a, 7)), 7 * sa)
        assert sympy_equal(lp_to_sympy(kern.lp_shift(a, 3)), sa * V ** 3)


def test_divexact_roundtrip(kern):
    rng = random.Random(5)
    checked = 0
    while checked < 60:
        a = kern.lp_trim(*random_lp(rng))
        b = kern.lp_trim(*random_lp(rng))
        if kern.lp_is_zero(b):
            continue
        prod = kern.lp_mul(a, b)
        assert kern.lp_divexact(prod, b) == a
        checked += 1


def test_divexact_rejects_inexact(kern):
    two = kern.lp_const(2)
    three = kern.lp_const(3)
    with pytest.raises(ValueError):
        kern.lp_divexact(three, two)
    vplus1 = kern.lp_trim(0, (1, 1))
    vminus1 = kern.lp_trim(0, (-1, 1))
    with pytest.raises(ValueError):
        kern.lp_divexact(vplus1, vminus1)
    with pytest.raises(ZeroDivisionError):
        kern.lp_divexact(vplus1, kern.LP_ZERO)


def test_row_primitive_strips_content_and_power(kern):
    row = [kern.lp_trim(1, (2, 4)), kern.LP_ZERO, kern.lp_trim(3, (-6,))]
    out = kern.row_primitive(row)
    assert out[0] == (0, (1, 2))
    assert out[1] == kern.LP_ZERO
    assert out[2] == (2, (-3,))
    # sign rule: first nonzero entry gets positive leading coefficient
    row = [kern.lp_trim(0, (-2,)), kern.lp_trim(0, (4,))]
    assert kern.row_primitive(row) == [(0, (1,)), (0, (-2,))]


def random_matrix(kern, rng, nrows, ncols):
    return [[kern.lp_trim(*random_lp(rng, max_terms=3, max_coeff=4, max_off=2))
             for _ in range(ncols)] for _ in range(nrows)]


def to_sympy_matrix(m):
    return sympy.Matrix([[lp_to_sympy(a) for a in row] for row in m])


def test_det_bareiss_matches_sympy(kern):
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            m = random_matrix(kern, rng, n, n)
            got = lp_to_sympy(kern.det_bareiss(m))
            want = to_sympy_matrix(m).det()
            assert sympy_equal(got, want)


def test_det_bareiss_singular(kern):
    # duplicate rows force determinant zero regardless of entries
    rng = random.Random(3)
    row = [kern.lp_trim(*random_lp(rng)) for _ in range(3)]
    other = [kern.lp_trim(*random_lp(rng)) for _ in range(3)]
    m = [row, other, list(row)]
    assert kern.lp_is_zero(kern.det_bareiss(m))


def explicit_product(kern, a, b):
    return [[sum_lp(kern, [kern.lp_mul(x, b[j][c]) for j, x in enumerate(row)])
             for c in range(len(b[0]))] for row in a]


def sum_lp(kern, terms):
    acc = kern.LP_ZERO
    for t in terms:
        acc = kern.lp_add(acc, t)
    return acc


def big_lp(kern, rng):
    return kern.lp_trim(*random_lp(rng, max_terms=5, max_coeff=10 ** 15,
                                   max_off=6))


def test_product_is_zero_matches_explicit_product(kern):
    rng = random.Random(31)
    for _ in range(40):
        r, n, c = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 4)
        a = [[big_lp(kern, rng) for _ in range(n)] for _ in range(r)]
        b = [[big_lp(kern, rng) for _ in range(c)] for _ in range(n)]
        want = all(kern.lp_is_zero(x)
                   for row in explicit_product(kern, a, b) for x in row)
        assert kern.lp_product_is_zero(a, b) == want
    for _ in range(40):
        # rows (f x, f y) against columns (g y, -g x): a zero product, and
        # nonzero once one coefficient of b moves by 1
        x, y = big_lp(kern, rng), big_lp(kern, rng)
        fs = [big_lp(kern, rng) for _ in range(rng.randrange(1, 4))]
        gs = [big_lp(kern, rng) for _ in range(rng.randrange(1, 4))]
        a = [[kern.lp_mul(f, x), kern.lp_mul(f, y)] for f in fs]
        b = [[kern.lp_mul(g, y) for g in gs],
             [kern.lp_neg(kern.lp_mul(g, x)) for g in gs]]
        assert kern.lp_product_is_zero(a, b)
        j, col = rng.randrange(2), rng.randrange(len(gs))
        b[j][col] = kern.lp_add(b[j][col],
                                kern.lp_trim(rng.randrange(-6, 7), (1,)))
        want = all(kern.lp_is_zero(e)
                   for row in explicit_product(kern, a, b) for e in row)
        assert kern.lp_product_is_zero(a, b) == want


def test_product_is_zero_empty_and_zero_matrices(kern):
    z = kern.LP_ZERO
    assert kern.lp_product_is_zero([], [])
    assert kern.lp_product_is_zero([[z, z]], [[(0, (1,))], [(3, (2,))]])
    assert kern.lp_product_is_zero([[(0, (1,)), (0, (1,))]], [[], []])


@pytest.mark.parametrize("k", [1, 2, 7, 64, 200])
def test_product_is_zero_at_the_base_boundary(kern, k):
    # 1 * (2**k - v): every product coefficient is at most M = 2**k, so the
    # base is k + 1 bits; at k bits the packed value 2**k - 2**k would be a
    # false zero
    for off_a, off_b in ((0, 0), (-3, -5), (4, -2)):
        a = [[(off_a, (1,))]]
        b = [[(off_b, (2 ** k, -1))]]
        assert kern._packed(b[0][0], off_b, k) == 0
        assert not kern.lp_product_is_zero(a, b)
        b = [[(off_b, (-(2 ** k), 1))]]
        assert not kern.lp_product_is_zero(a, b)


def test_large_exponent_span_packs_by_terms(kern):
    # 1 + v**100000 and 1 + v**-100000 are tuples of 100001 coefficients,
    # two of them nonzero: the pack must cost what two terms cost
    one = (0, (1,))
    x = kern.lp_add(one, (100000, (1,)))
    y = kern.lp_add(one, (-100000, (1,)))
    for a, b in [([[x, y]], [[y], [kern.lp_neg(x)]]),     # x y - y x
                 ([[x, y]], [[y], [kern.lp_neg(y)]])]:    # x y - y y
        want = all(kern.lp_is_zero(e)
                   for row in explicit_product(kern, a, b) for e in row)
        assert kern.lp_product_is_zero(a, b) == want
    for m, singular in [([[x, y], [one, one]], False),
                        ([[x, y], [x, y]], True)]:
        det = sympy.Matrix([[lp_to_sympy(e) for e in row] for row in m]).det()
        assert sympy_equal(det, 0) is singular
        assert kern.lp_det_nonzero(m) is not singular


def lp_det_calls(kern, monkeypatch):
    calls = []
    symbolic = kern.det_bareiss

    def counted(m):
        calls.append(len(m))
        return symbolic(m)
    monkeypatch.setattr(kern, "det_bareiss", counted)
    return calls


V_MINUS_2 = (0, (-2, 1))


@pytest.mark.parametrize("m", [
    [[V_MINUS_2]],
    [[(1, (1,)), (0, (2,))], [(0, (2,)), (1, (1,))]],
    [[(-2, (1,)), (-1, (1,))], [(-2, (2,)), (0, (1,))]],
], ids=["v-2", "v^2-4", "v^-3(v-2)"])
def test_det_nonzero_root_at_two_falls_back(kern, monkeypatch, m):
    calls = lp_det_calls(kern, monkeypatch)
    assert kern.lp_det_nonzero(m)
    assert calls == [len(m)]


def test_det_nonzero_matches_det_bareiss(kern, monkeypatch):
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            m = random_matrix(kern, rng, n, n)
            want = not kern.lp_is_zero(kern.det_bareiss(m))
            assert kern.lp_det_nonzero(m) == want
    assert kern.lp_det_nonzero([])
    rng = random.Random(3)
    row = [kern.lp_trim(*random_lp(rng)) for _ in range(3)]
    other = [kern.lp_trim(*random_lp(rng)) for _ in range(3)]
    assert not kern.lp_det_nonzero([row, other, list(row)])
    z = kern.LP_ZERO
    calls = lp_det_calls(kern, monkeypatch)
    assert not kern.lp_det_nonzero([[V_MINUS_2, z], [z, z]])
    assert calls == []


def test_echelon_rank_matches_sympy(kern):
    rng = random.Random(77)
    for nrows, ncols in ((2, 3), (3, 3), (4, 3), (5, 4)):
        for _ in range(5):
            m = random_matrix(kern, rng, nrows, ncols)
            ech, pivots = kern.echelon([list(r) for r in m], ncols)
            assert len(ech) == len(pivots)
            assert pivots == sorted(pivots)
            assert len(pivots) == to_sympy_matrix(m).rank()
            # every original row reduces to zero against the echelon basis
            for row in m:
                res, _ = kern.vec_reduce(ech, pivots, row)
                assert all(kern.lp_is_zero(a) for a in res)


def test_vec_reduce_detects_membership(kern):
    rng = random.Random(41)
    m = random_matrix(kern, rng, 3, 4)
    ech, pivots = kern.echelon([list(r) for r in m], 4)
    # combination of rows scaled by polynomials is in the span
    comb = [kern.LP_ZERO] * 4
    for row in m:
        f = kern.lp_trim(*random_lp(rng, max_terms=2, max_coeff=3))
        comb = [kern.lp_add(comb[j], kern.lp_mul(f, row[j])) for j in range(4)]
    res, _ = kern.vec_reduce(ech, pivots, comb)
    assert all(kern.lp_is_zero(a) for a in res)
    # a vector outside the span must leave a residue (rank check first)
    if len(pivots) < 4:
        free_col = next(c for c in range(4) if c not in pivots)
        probe = [kern.lp_const(1) if j == free_col else kern.LP_ZERO
                 for j in range(4)]
        res, _ = kern.vec_reduce(ech, pivots, probe)
        assert any(not kern.lp_is_zero(a) for a in res)


def test_vec_reduce_scale(kern):
    rng = random.Random(43)
    for nrows, ncols in ((2, 4), (3, 4), (3, 5)):
        m = random_matrix(kern, rng, nrows, ncols)
        ech, pivots = kern.echelon([list(r) for r in m], ncols)
        for _ in range(5):
            vec = [kern.lp_trim(*random_lp(rng)) for _ in range(ncols)]
            res, scale = kern.vec_reduce(ech, pivots, vec)
            assert not kern.lp_is_zero(scale)
            assert all(kern.lp_is_zero(res[c]) for c in pivots)
            # scale*vec - residue lies in the row span
            diff = [kern.lp_sub(kern.lp_mul(scale, a), r)
                    for a, r in zip(vec, res)]
            left, _ = kern.vec_reduce(ech, pivots, diff)
            assert all(kern.lp_is_zero(a) for a in left)
        # nothing at the pivot columns: no row is used
        vec = [kern.LP_ZERO if c in pivots else kern.lp_trim(*random_lp(rng))
               for c in range(ncols)]
        res, scale = kern.vec_reduce(ech, pivots, vec)
        assert scale == kern.LP_ONE
        assert res == vec
