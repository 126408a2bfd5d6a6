"""linalg.rref over both scalar fields it takes, GaussianRational and
RationalFn, and linalg.kernel's reduction data, each read by an inline
reduction."""

from fractions import Fraction

import pytest

from covquant import linalg
from covquant.scalars import GaussianRational, LaurentPoly, RationalFn

G = GaussianRational
T = G(0, 1)
V = RationalFn(LaurentPoly.monomial(G(1), 1))
ONE = RationalFn(1)


def _reduce(rows, pivots, vec):
    """vec minus vec[c] times the row at each pivot column c, in order."""
    for row, c in zip(rows, pivots):
        f = vec[c]
        if f:
            vec = [a - f * b for a, b in zip(vec, row)]
    return vec


def _gaussian_case():
    zero = G(0)
    r1 = [G(1), T, zero, G(2)]
    r2 = [zero, G(Fraction(1, 2)), T + 1, zero]
    r3 = [x * (G(2) - T) + y * 3 for x, y in zip(r1, r2)]
    inside = [x * G(Fraction(1, 3)) - y * T for x, y in zip(r1, r2)]
    # a*r1 + b*r2 has last entry 2a and first entry a, so e_4 is outside
    outside = [zero, zero, zero, G(1)]
    return [r1, r2, r3], inside, outside


def _ratfn_case():
    zero = RationalFn(0)
    r1 = [ONE, V, ONE / (V + 1), zero]
    r2 = [V * V, zero, ONE, V - 1]
    r3 = [x * (V + 2) - y * V for x, y in zip(r1, r2)]
    a, b = V / (ONE - V), ONE / V
    inside = [x * a + y * b for x, y in zip(r1, r2)]
    # a*r1 + b*r2 = (0, 1, 0, 0) forces b = 0 (last entry), then a = 0
    outside = [zero, ONE, zero, zero]
    return [r1, r2, r3], inside, outside


@pytest.mark.parametrize("case", [_gaussian_case, _ratfn_case],
                         ids=["gaussian", "ratfn"])
def test_reduce_against_rref_detects_span(case):
    rows, inside, outside = case()
    ech, pivots = linalg.rref(rows, 4)
    assert len(ech) == len(pivots) == 2
    assert pivots == sorted(pivots)
    for row, c in zip(ech, pivots):
        assert row[c] == 1
    for row in rows:
        assert not any(_reduce(ech, pivots, list(row)))
    assert not any(_reduce(ech, pivots, inside))
    assert any(_reduce(ech, pivots, outside))


@pytest.mark.parametrize("vec", [[G(0), G(3), T], [RationalFn(0), V, ONE]],
                         ids=["gaussian", "ratfn"])
def test_reduce_against_empty_rref_is_identity(vec):
    ech, pivots = linalg.rref([], len(vec))
    assert (ech, pivots) == ([], [])
    assert _reduce(ech, pivots, list(vec)) == vec


def _ratfn(vec):
    return [x if isinstance(x, RationalFn) else RationalFn(x) for x in vec]


def _dot(row, vec):
    acc = RationalFn(0)
    for x, y in zip(row, vec):
        acc = acc + x * y
    return acc


@pytest.mark.parametrize("case", [_gaussian_case, _ratfn_case],
                         ids=["gaussian", "ratfn"])
def test_kernel_is_reduction_data(case):
    rows, inside, outside = case()
    a = [_ratfn(row) for row in rows]
    basis, leads, pivots = linalg.kernel(a, 4)
    assert sorted(leads + pivots) == [0, 1, 2, 3]
    assert len(basis) == len(leads) == 4 - 2
    for k, lead in zip(basis, leads):
        assert all(_dot(row, k) == 0 for row in a)
        assert [k[c] for c in leads] == [1 if c == lead else 0
                                         for c in leads]
    for vec in (inside, outside, [ONE, V, ONE, V]):
        vec = _ratfn(vec)
        red = _reduce(basis, leads, vec)
        assert not any(red[c] for c in leads)
        # v - red lies in the null space
        assert all(_dot(row, vec) == _dot(row, red) for row in a)


def test_kernel_of_no_rows_is_identity():
    basis, leads, pivots = linalg.kernel([], 3)
    assert basis == [[1 if r == c else 0 for c in range(3)] for r in range(3)]
    assert (leads, pivots) == ([0, 1, 2], [])
