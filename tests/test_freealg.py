"""Free algebra: products, derivation, pairing, rho/bar/twistor."""

import random

import pytest

from covquant.catalog import catalog_datum
from covquant.freealg import (
    FreeAlgebra,
    FreeElement,
    render_word,
    word_weight,
)
from covquant.scalars import PS_ONE, PS_ZERO, RF_ONE, RF_ZERO, PiScalar, \
    qfactorial

from oracles import lp_pair_matches_pi_expr, pair_words_oracle


@pytest.fixture(scope="module")
def osp14():
    datum, root, tf = catalog_datum("osp14")
    return datum, FreeAlgebra(datum, tf)


@pytest.fixture(scope="module")
def osp12():
    datum, root, tf = catalog_datum("osp12")
    return datum, FreeAlgebra(datum, tf)


def random_element(F, rng, height=3, nterms=2):
    terms = {}
    for _ in range(nterms):
        w = tuple(rng.randrange(F.rank) for _ in range(rng.randrange(height + 1)))
        c = PiScalar.v_power(rng.randrange(-2, 3)) * PiScalar.from_int(
            rng.choice([1, -1, 2]))
        if rng.random() < 0.3:
            c = c * PiScalar.pi_power(1)
        terms[w] = terms.get(w, PS_ZERO) + c
    return FreeElement(terms)


def random_word(F, rng, length):
    return tuple(rng.randrange(F.rank) for _ in range(length))


# --- constructors and structure ----------------------------------------------


def test_free_element_drops_zeros(osp14):
    _, F = osp14
    x = F.theta(0) - F.theta(0)
    assert x.is_zero()
    assert FreeElement({(0,): PS_ZERO}).is_zero()


# A coefficient may vanish at one sign of pi and not the other; a product
# of the two kinds is zero and must not be stored.
_ONLY_PLUS = PiScalar(RF_ONE, RF_ZERO)
_ONLY_MINUS = PiScalar(RF_ZERO, RF_ONE)


def _accumulate(pairs):
    """Sum the coefficients of repeated words and drop zeros, by hand: the
    oracle for FreeElement's own accumulation."""
    out = {}
    for w, c in pairs:
        s = out.get(w)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(w, None)
        else:
            out[w] = s
    return out


def test_mul_cancels_across_term_pairs(osp14):
    _, F = osp14
    t0, t1 = F.theta(0), F.theta(1)
    x = t0 + F.mul(t0, t1)
    y = F.mul(t1, t0) - t0
    # theta0 * theta1theta0 and theta0theta1 * (-theta0) cancel
    got = F.mul(x, y)
    assert (0, 1, 0) not in got.terms
    assert got.terms == {(0, 0): -PS_ONE, (0, 1, 1, 0): PS_ONE}


def _half_zero_element(F, rng):
    x = random_element(F, rng, nterms=4)
    return FreeElement({w: c * rng.choice([PS_ONE, _ONLY_PLUS, _ONLY_MINUS])
                        for w, c in x.terms.items()})


@pytest.mark.parametrize("seed", range(6))
def test_operations_store_no_zero_coefficient(osp14, seed):
    _, F = osp14
    rng = random.Random(seed)
    x, y = _half_zero_element(F, rng), _half_zero_element(F, rng)
    pairs = [(w1, c1, w2, c2) for w1, c1 in x.terms.items()
             for w2, c2 in y.terms.items()]
    cases = {
        "add": (x + y, [*x.terms.items(), *y.terms.items()]),
        "sub": (x - y, [*x.terms.items(),
                        *((w, -c) for w, c in y.terms.items())]),
        "scale": (x.scale(_ONLY_MINUS),
                  [(w, c * _ONLY_MINUS) for w, c in x.terms.items()]),
        "mul": (F.mul(x, y), [(w1 + w2, c1 * c2)
                              for w1, c1, w2, c2 in pairs]),
        "star_mul": (F.star_mul(x, y), [
            (w1 + w2, c1 * c2 * PiScalar.t_power(F.tf.phi(
                word_weight(w1, F.rank), word_weight(w2, F.rank))))
            for w1, c1, w2, c2 in pairs]),
        "e_prime": (F.e_prime(0, x), [
            (rest, c * s) for w, c in x.terms.items()
            for rest, s in F.eprime_word(0, w).items()]),
        "rho": (F.rho(x), [(w[::-1], c) for w, c in x.terms.items()]),
        "bar": (F.bar(x), [(w, c.bar()) for w, c in x.terms.items()]),
        "twistor": (F.twistor(x), [
            (w, c.twist() * PiScalar.t_power(F.word_twist_exponent(w)))
            for w, c in x.terms.items()]),
        "twistor_inv": (F.twistor_inv(x), [
            (w, c.twist_inv() * PiScalar.t_power(-F.word_twist_exponent(w)))
            for w, c in x.terms.items()]),
    }
    for name, (got, terms) in cases.items():
        assert got.terms == _accumulate(terms), name
        assert all(not c.is_zero() for c in got.terms.values()), name
    # a coefficient with one zero component is kept
    assert F.mul(x, F.one().scale(_ONLY_PLUS)).terms == _accumulate(
        (w, c * _ONLY_PLUS) for w, c in x.terms.items())
    assert FreeElement({(0,): _ONLY_PLUS}).terms == {(0,): _ONLY_PLUS}
    assert F.mul(FreeElement({(0,): _ONLY_PLUS}),
                 FreeElement({(1,): _ONLY_MINUS})).is_zero()


def test_homogeneous_weight(osp14):
    _, F = osp14
    x = F.mul(F.theta(0), F.theta(1))
    assert x.homogeneous_weight(F.rank) == (1, 1)
    mixed = x + F.theta(0)
    with pytest.raises(ValueError):
        mixed.homogeneous_weight(F.rank)
    assert word_weight((0, 1, 0), 2) == (2, 1)


# --- products ------------------------------------------------------------------


def test_mul_concatenates(osp14):
    _, F = osp14
    x = F.mul(F.theta(0), F.theta(1))
    assert x.words() == [(0, 1)]
    assert F.mul(F.one(), x) == x
    assert F.mul(x, F.one()) == x


def test_star_mul_examples(osp14):
    _, F = osp14
    t1, t2 = F.theta(0), F.theta(1)
    # phi(1,2) = 0: no twist
    assert F.star_mul(t1, t2) == F.mul(t1, t2)
    # phi(2,1) = -2: t^-2 = -1
    assert F.star_mul(t2, t1) == F.mul(t2, t1).scale(-PS_ONE)
    rng = random.Random(2)
    y = random_element(F, rng)
    assert F.star_mul(F.one(), y) == y
    assert F.star_mul(y, F.one()) == y


def test_star_mul_associative(osp14):
    _, F = osp14
    rng = random.Random(8)
    for _ in range(10):
        x = random_element(F, rng, height=2)
        y = random_element(F, rng, height=2)
        z = random_element(F, rng, height=2)
        assert F.star_mul(F.star_mul(x, y), z) == F.star_mul(x, F.star_mul(y, z))


# --- derivation ----------------------------------------------------------------


def test_eprime_examples(osp14):
    _, F = osp14
    t1, t2 = F.theta(0), F.theta(1)
    assert F.e_prime(0, F.mul(t1, t2)) == t2
    # 1.2 = -2 and p(1)p(2) = 0, so passing theta_2 costs v^2
    assert F.e_prime(0, F.mul(t2, t1)) == t2.scale(PiScalar.v_power(2))
    x0 = F.mul(t2, t1) - F.mul(t1, t2).scale(PiScalar.v_power(2))
    assert F.e_prime(0, x0).is_zero()
    assert F.e_prime(0, F.one()).is_zero()
    assert F.e_prime(1, t1).is_zero()


def test_eprime_divided_power(osp14):
    # e_i'(theta_i^(n)) = pi_i^(n-1) v_i^(1-n) theta_i^(n-1)
    _, F = osp14
    for k, d in ((0, 1), (1, 2)):
        for n in range(1, 5):
            got = F.e_prime(k, F.divided_power(k, n))
            factor = PiScalar.pi_power(d * (n - 1)) * PiScalar.v_power(
                d * (1 - n))
            want = F.divided_power(k, n - 1).scale(factor)
            assert got == want, (k, n)


def test_eprime_leibniz(osp14):
    # e_i'(xy) = e_i'(x) y + pi^{p(i)p(x)} v^{-i.|x|} x e_i'(y)
    datum, F = osp14
    rng = random.Random(5)
    for _ in range(20):
        wx = random_word(F, rng, rng.randrange(1, 4))
        wy = random_word(F, rng, rng.randrange(1, 4))
        x, y = F.monomial(wx), F.monomial(wy)
        for k in range(F.rank):
            lhs = F.e_prime(k, F.mul(x, y))
            dot = sum(datum.dot[k][l] for l in wx)
            par = datum.parity[k] * sum(datum.parity[l] for l in wx)
            coeff = PiScalar.pi_power(par) * PiScalar.v_power(-dot)
            rhs = F.mul(F.e_prime(k, x), y) + \
                F.mul(x, F.e_prime(k, y)).scale(coeff)
            assert lhs == rhs


# --- pairing ---------------------------------------------------------------------


def test_pairing_base_cases(osp14):
    _, F = osp14
    assert F.pairing(F.one(), F.one()) == PS_ONE
    for k in range(F.rank):
        assert F.pairing(F.theta(k), F.theta(k)) == PS_ONE
    assert F.pairing(F.theta(0), F.theta(1)).is_zero()
    # different heights pair to zero
    assert F.pairing(F.theta(0), F.mul(F.theta(0), F.theta(0))).is_zero()


def test_pairing_frozen_values(osp14):
    _, F = osp14
    t1, t2 = F.theta(0), F.theta(1)
    got = F.pairing(F.mul(t1, t2), F.mul(t2, t1))
    assert got == PiScalar.v_power(2)
    got = F.pairing(F.mul(t1, t1), F.mul(t1, t1))
    assert got == PS_ONE + PiScalar.pi_power(1) * PiScalar.v_power(-2)


@pytest.mark.parametrize("height", [1, 2, 3, 4])
def test_pairing_matches_oracle(osp14, height):
    datum, F = osp14
    rng = random.Random(height * 31)
    for _ in range(8):
        w1 = random_word(F, rng, height)
        w2 = random_word(F, rng, height)
        got = F.pair_words(w1, w2)
        want = pair_words_oracle(datum, w1, w2)
        assert lp_pair_matches_pi_expr(got, want), (w1, w2)


def test_pairing_symmetric(osp14):
    _, F = osp14
    words = F.words_of_weight((2, 1)) + F.words_of_weight((2, 2))
    memo = {}
    for w1 in words:
        for w2 in words:
            a = F.pair_words(w1, w2, memo)
            b = F.pair_words(w2, w1, memo)
            assert a == b, (w1, w2)


def test_pairing_adjoint(osp14):
    # (theta_i x, y) = (x, e_i'(y)) on random homogeneous pairs
    _, F = osp14
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randrange(1, 5)
        wx = random_word(F, rng, n - 1)
        wy = random_word(F, rng, n)
        k = rng.randrange(F.rank)
        x, y = F.monomial(wx), F.monomial(wy)
        lhs = F.pairing(F.mul(F.theta(k), x), y)
        rhs = F.pairing(x, F.e_prime(k, y))
        assert lhs == rhs


# --- rho, bar, twistor ------------------------------------------------------------


def test_rho(osp14):
    _, F = osp14
    t1, t2 = F.theta(0), F.theta(1)
    w121 = F.mul(F.mul(t1, t2), t1)
    assert F.rho(w121) == w121
    x = F.mul(t1, t2).scale(PiScalar.v_power(1))
    assert F.rho(x) == F.mul(t2, t1).scale(PiScalar.v_power(1))
    rng = random.Random(23)
    for _ in range(10):
        y = random_element(F, rng)
        assert F.rho(F.rho(y)) == y


def test_bar(osp14):
    _, F = osp14
    x = F.theta(0).scale(PiScalar.v_power(1))
    assert F.bar(x) == F.theta(0).scale(
        PiScalar.pi_power(1) * PiScalar.v_power(-1))
    rng = random.Random(29)
    for _ in range(10):
        y = random_element(F, rng)
        assert F.bar(F.bar(y)) == y


def test_bar_divided_powers(osp14):
    _, F = osp14
    for k in range(F.rank):
        for n in range(5):
            dp = F.divided_power(k, n)
            assert F.bar(dp) == dp


def test_twistor_examples(osp14):
    _, F = osp14
    t1, t2 = F.theta(0), F.theta(1)
    for k in range(F.rank):
        assert F.twistor(F.theta(k)) == F.theta(k)
    w121 = F.mul(F.mul(t1, t2), t1)
    assert F.twistor(w121) == w121.scale(PiScalar.t_power(-1))
    for k in range(F.rank):
        for n in range(5):
            dp = F.divided_power(k, n)
            assert F.twistor(dp) == dp


def test_twistor_multiplicative(osp14):
    # the twistor turns the plain product into the star product
    _, F = osp14
    rng = random.Random(31)
    for _ in range(15):
        x = random_element(F, rng, height=3)
        y = random_element(F, rng, height=3)
        assert F.twistor(F.mul(x, y)) == F.star_mul(F.twistor(x), F.twistor(y))


def test_twistor_inverse(osp14):
    _, F = osp14
    rng = random.Random(37)
    for _ in range(10):
        x = random_element(F, rng)
        assert F.twistor_inv(F.twistor(x)) == x
        assert F.twistor(F.twistor_inv(x)) == x


def test_twistor_eprime_commutation(osp14):
    # e_i'(twistor(x)) = t^{phi(i, |x| - i)} twistor(e_i'(x))
    datum, F = osp14
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(1, 5)
        w = random_word(F, rng, n)
        x = F.monomial(w)
        nu = word_weight(w, F.rank)
        for k in range(F.rank):
            if not nu[k]:
                continue
            shifted = tuple(c - (1 if t == k else 0)
                            for t, c in enumerate(nu))
            e = F.tf.phi(tuple(1 if t == k else 0 for t in range(F.rank)),
                         shifted)
            lhs = F.e_prime(k, F.twistor(x))
            rhs = F.twistor(F.e_prime(k, x)).scale(PiScalar.t_power(e))
            assert lhs == rhs, (w, k)


def test_twistor_bar_commutation(osp14):
    _, F = osp14
    rng = random.Random(43)
    for _ in range(15):
        x = random_element(F, rng)
        assert F.bar(F.twistor(x)) == F.twistor(F.bar(x))


def test_rho_star_twist(osp14):
    # rho(x*y) = t^{phi(|x|,|y|) - phi(|y|,|x|)} rho(y)*rho(x)
    _, F = osp14
    rng = random.Random(47)
    for _ in range(15):
        wx = random_word(F, rng, rng.randrange(1, 4))
        wy = random_word(F, rng, rng.randrange(1, 4))
        x, y = F.monomial(wx), F.monomial(wy)
        nux = word_weight(wx, F.rank)
        nuy = word_weight(wy, F.rank)
        e = F.tf.phi(nux, nuy) - F.tf.phi(nuy, nux)
        lhs = F.rho(F.star_mul(x, y))
        rhs = F.star_mul(F.rho(y), F.rho(x)).scale(PiScalar.t_power(e))
        assert lhs == rhs


# --- divided powers ---------------------------------------------------------------


def test_divided_power_basics(osp12):
    _, F = osp12
    assert F.divided_power(0, 0) == F.one()
    assert F.divided_power(0, 1) == F.theta(0)
    # <2>! = <2> = pi v + v^-1 for d = 1
    dp2 = F.divided_power(0, 2)
    assert dp2.scale(qfactorial(2, 1)) == F.monomial((0, 0))
    for n in range(5):
        assert F.divided_power(0, n).scale(qfactorial(n, 1)) == \
            F.monomial((0,) * n)


# --- rendering ---------------------------------------------------------------------


def test_render_word(osp14):
    datum, F = osp14
    assert render_word(datum, ()) == "1"
    assert render_word(datum, (0, 1, 0)) == "θ[1]θ[2]θ[1]"
