"""Fraction-free elimination on integer Laurent polynomials against
sympy."""

import random

import pytest
import sympy

from covquant import kernels
from covquant.scalars import LP_ONE, LP_ZERO, LaurentPoly

from oracles import laurent_to_sympy

V = sympy.Symbol("v")


def lp(off, coeffs):
    """The LaurentPoly sum_k coeffs[k] v**(off + k)."""
    return LaurentPoly.from_maps(
        {off + k: c for k, c in enumerate(coeffs) if c})


def sympy_equal(x, y):
    return sympy.simplify(sympy.expand(x - y)) == 0


def random_lp(rng, max_terms=4, max_coeff=9, max_off=3):
    n = rng.randrange(max_terms + 1)
    off = rng.randrange(-max_off, max_off + 1)
    coeffs = [rng.randrange(-max_coeff, max_coeff + 1) for _ in range(n)]
    return lp(off, coeffs)


def is_int_laurent(a):
    return not a.im and all(type(c) is int for c in a.re.values())


# One parameter, named after kernels.IMPLEMENTATION, keeps the test ids.
@pytest.fixture(params=[kernels.IMPLEMENTATION])
def kern(request):
    return kernels


def test_divexact_roundtrip(kern):
    rng = random.Random(5)
    checked = 0
    while checked < 60:
        a = random_lp(rng)
        b = random_lp(rng)
        if not b:
            continue
        q = kern.lp_divexact(a * b, b)
        assert q == a
        assert is_int_laurent(q)
        checked += 1


def test_divexact_rejects_inexact(kern):
    two = LaurentPoly.const(2)
    three = LaurentPoly.const(3)
    with pytest.raises(ValueError):
        kern.lp_divexact(three, two)
    vplus1 = lp(0, (1, 1))
    vminus1 = lp(0, (-1, 1))
    with pytest.raises(ValueError):
        kern.lp_divexact(vplus1, vminus1)
    with pytest.raises(ZeroDivisionError):
        kern.lp_divexact(vplus1, LP_ZERO)


def test_row_primitive_strips_content_and_power(kern):
    row = [lp(1, (2, 4)), LP_ZERO, lp(3, (-6,))]
    out = kern.row_primitive(row)
    assert out[0] == lp(0, (1, 2))
    assert out[1] == LP_ZERO
    assert out[2] == lp(2, (-3,))
    assert all(is_int_laurent(a) for a in out)
    # sign rule: first nonzero entry gets positive leading coefficient
    row = [lp(0, (-2,)), lp(0, (4,))]
    out = kern.row_primitive(row)
    assert out == [lp(0, (1,)), lp(0, (-2,))]
    assert all(is_int_laurent(a) for a in out)


def random_matrix(rng, nrows, ncols):
    return [[random_lp(rng, max_terms=3, max_coeff=4, max_off=2)
             for _ in range(ncols)] for _ in range(nrows)]


def to_sympy_matrix(m):
    return sympy.Matrix([[laurent_to_sympy(a) for a in row] for row in m])


def test_det_bareiss_matches_sympy(kern):
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            m = random_matrix(rng, n, n)
            det = kern.det_bareiss(m)
            assert is_int_laurent(det)
            got = laurent_to_sympy(det)
            want = to_sympy_matrix(m).det()
            assert sympy_equal(got, want)


def test_det_bareiss_singular(kern):
    # duplicate rows force determinant zero regardless of entries
    rng = random.Random(3)
    row = [random_lp(rng) for _ in range(3)]
    other = [random_lp(rng) for _ in range(3)]
    m = [row, other, list(row)]
    assert not kern.det_bareiss(m)


def explicit_product(a, b):
    return [[sum((x * b[j][c] for j, x in enumerate(row)), LP_ZERO)
             for c in range(len(b[0]))] for row in a]


def big_lp(rng):
    return random_lp(rng, max_terms=5, max_coeff=10 ** 15, max_off=6)


def test_product_is_zero_matches_explicit_product(kern):
    rng = random.Random(31)
    for _ in range(40):
        r, n, c = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 4)
        a = [[big_lp(rng) for _ in range(n)] for _ in range(r)]
        b = [[big_lp(rng) for _ in range(c)] for _ in range(n)]
        want = not any(x for row in explicit_product(a, b) for x in row)
        assert kern.lp_product_is_zero(a, b) == want
    for _ in range(40):
        # rows (f x, f y) against columns (g y, -g x): a zero product, and
        # nonzero once one coefficient of b moves by 1
        x, y = big_lp(rng), big_lp(rng)
        fs = [big_lp(rng) for _ in range(rng.randrange(1, 4))]
        gs = [big_lp(rng) for _ in range(rng.randrange(1, 4))]
        a = [[f * x, f * y] for f in fs]
        b = [[g * y for g in gs], [-(g * x) for g in gs]]
        assert kern.lp_product_is_zero(a, b)
        j, col = rng.randrange(2), rng.randrange(len(gs))
        b[j][col] = b[j][col] + lp(rng.randrange(-6, 7), (1,))
        want = not any(e for row in explicit_product(a, b) for e in row)
        assert kern.lp_product_is_zero(a, b) == want


def test_product_is_zero_empty_and_zero_matrices(kern):
    z = LP_ZERO
    assert kern.lp_product_is_zero([], [])
    assert kern.lp_product_is_zero([[z, z]], [[lp(0, (1,))], [lp(3, (2,))]])
    assert kern.lp_product_is_zero([[lp(0, (1,)), lp(0, (1,))]], [[], []])


@pytest.mark.parametrize("k", [1, 2, 7, 64, 200])
def test_product_is_zero_at_the_base_boundary(kern, k):
    # 1 * (2**k - v): every product coefficient is at most M = 2**k, so the
    # base is k + 1 bits; at k bits the packed value 2**k - 2**k would be a
    # false zero
    for off_a, off_b in ((0, 0), (-3, -5), (4, -2)):
        a = [[lp(off_a, (1,))]]
        b = [[lp(off_b, (2 ** k, -1))]]
        assert kern._packed(b[0][0], off_b, k) == 0
        assert not kern.lp_product_is_zero(a, b)
        b = [[lp(off_b, (-(2 ** k), 1))]]
        assert not kern.lp_product_is_zero(a, b)


def test_large_exponent_span_packs_by_terms(kern):
    # 1 + v**100000 and 1 + v**-100000 span 100001 exponents with two
    # terms each: the pack must cost what two terms cost
    one = LP_ONE
    x = one + lp(100000, (1,))
    y = one + lp(-100000, (1,))
    for a, b in [([[x, y]], [[y], [-x]]),     # x y - y x
                 ([[x, y]], [[y], [-y]])]:    # x y - y y
        want = not any(e for row in explicit_product(a, b) for e in row)
        assert kern.lp_product_is_zero(a, b) == want
    for m, singular in [([[x, y], [one, one]], False),
                        ([[x, y], [x, y]], True)]:
        det = to_sympy_matrix(m).det()
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


V_MINUS_2 = lp(0, (-2, 1))


@pytest.mark.parametrize("m", [
    [[V_MINUS_2]],
    [[lp(1, (1,)), lp(0, (2,))], [lp(0, (2,)), lp(1, (1,))]],
    [[lp(-2, (1,)), lp(-1, (1,))], [lp(-2, (2,)), lp(0, (1,))]],
], ids=["v-2", "v^2-4", "v^-3(v-2)"])
def test_det_nonzero_root_at_two_falls_back(kern, monkeypatch, m):
    calls = lp_det_calls(kern, monkeypatch)
    assert kern.lp_det_nonzero(m)
    assert calls == [len(m)]


def test_det_nonzero_matches_det_bareiss(kern, monkeypatch):
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            m = random_matrix(rng, n, n)
            want = bool(kern.det_bareiss(m))
            assert kern.lp_det_nonzero(m) == want
    assert kern.lp_det_nonzero([])
    rng = random.Random(3)
    row = [random_lp(rng) for _ in range(3)]
    other = [random_lp(rng) for _ in range(3)]
    assert not kern.lp_det_nonzero([row, other, list(row)])
    z = LP_ZERO
    calls = lp_det_calls(kern, monkeypatch)
    assert not kern.lp_det_nonzero([[V_MINUS_2, z], [z, z]])
    assert calls == []


def test_echelon_rank_matches_sympy(kern):
    rng = random.Random(77)
    for nrows, ncols in ((2, 3), (3, 3), (4, 3), (5, 4)):
        for _ in range(5):
            m = random_matrix(rng, nrows, ncols)
            ech, pivots = kern.echelon([list(r) for r in m], ncols)
            assert len(ech) == len(pivots)
            assert pivots == sorted(pivots)
            assert len(pivots) == to_sympy_matrix(m).rank()
            # every original row reduces to zero against the echelon basis
            for row in m:
                res, _ = kern.vec_reduce(ech, pivots, row)
                assert not any(res)


def test_vec_reduce_detects_membership(kern):
    rng = random.Random(41)
    m = random_matrix(rng, 3, 4)
    ech, pivots = kern.echelon([list(r) for r in m], 4)
    # combination of rows scaled by polynomials is in the span
    comb = [LP_ZERO] * 4
    for row in m:
        f = random_lp(rng, max_terms=2, max_coeff=3)
        comb = [comb[j] + f * row[j] for j in range(4)]
    res, _ = kern.vec_reduce(ech, pivots, comb)
    assert not any(res)
    # a vector outside the span must leave a residue (rank check first)
    if len(pivots) < 4:
        free_col = next(c for c in range(4) if c not in pivots)
        probe = [LP_ONE if j == free_col else LP_ZERO for j in range(4)]
        res, _ = kern.vec_reduce(ech, pivots, probe)
        assert any(res)


def test_vec_reduce_scale(kern):
    rng = random.Random(43)
    for nrows, ncols in ((2, 4), (3, 4), (3, 5)):
        m = random_matrix(rng, nrows, ncols)
        ech, pivots = kern.echelon([list(r) for r in m], ncols)
        for _ in range(5):
            vec = [random_lp(rng) for _ in range(ncols)]
            res, scale = kern.vec_reduce(ech, pivots, vec)
            assert scale
            assert not any(res[c] for c in pivots)
            # scale*vec - residue lies in the row span
            diff = [scale * a - r for a, r in zip(vec, res)]
            left, _ = kern.vec_reduce(ech, pivots, diff)
            assert not any(left)
        # nothing at the pivot columns: no row is used
        vec = [LP_ZERO if c in pivots else random_lp(rng)
               for c in range(ncols)]
        res, scale = kern.vec_reduce(ech, pivots, vec)
        assert scale == LP_ONE
        assert res == vec
