"""Scalar tower: frozen example values, oracle cross-checks, properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sympy

from covquant.scalars import (
    GaussianRational,
    LaurentPoly,
    PiScalar,
    RationalFn,
    PS_ONE,
    PS_PI,
    PS_T,
    PS_ZERO,
    _poly_divmod,
    _poly_gcd,
    int_laurent,
    parse_scalar,
    qbinomial,
    qfactorial,
    qinteger,
    qinteger_signed,
    render_scalar,
)

import oracles

V = oracles.V


def PS(plus, minus):
    """Shorthand: PiScalar from {exp: rational} component dicts."""
    return PiScalar(
        RationalFn(LaurentPoly({e: GaussianRational(c) for e, c in plus.items()})),
        RationalFn(LaurentPoly({e: GaussianRational(c) for e, c in minus.items()})),
    )


# --- quantum integers -------------------------------------------------------

def test_qinteger_trivial():
    assert qinteger(0, 1) == PS_ZERO
    assert qinteger(1, 1) == PS_ONE


def test_qinteger_2_frozen():
    # <2> = pi v + v^-1: components (v + v^-1, -v + v^-1)
    assert qinteger(2, 1) == PS({1: 1, -1: 1}, {1: -1, -1: 1})
    assert oracles.scalar_equals(qinteger(2, 1),
                                 oracles.qinteger_oracle(2, 1, 1),
                                 oracles.qinteger_oracle(2, 1, -1))


def test_qinteger_3_frozen():
    # <3> = v^2 + pi + v^-2
    assert qinteger(3, 1) == PS({2: 1, 0: 1, -2: 1}, {2: 1, 0: -1, -2: 1})
    assert oracles.scalar_equals(qinteger(3, 1),
                                 oracles.qinteger_oracle(3, 1, 1),
                                 oracles.qinteger_oracle(3, 1, -1))


@pytest.mark.parametrize("k,d", [(0, 1), (1, 2), (2, 2), (4, 1), (5, 3), (3, 2)])
def test_qinteger_matches_oracle(k, d):
    assert oracles.scalar_equals(qinteger(k, d),
                                 oracles.qinteger_oracle(k, d, 1),
                                 oracles.qinteger_oracle(k, d, -1))


def _qinteger_by_sums(k, d):
    """<k> as k PiScalar additions of (pi^d v^d)^(k-1-l) v^(-dl), extended
    to k < 0 by <-m> = -pi^(dm) <m>: the construction qinteger replaced."""
    if k < 0:
        return -(PiScalar.pi_power(-d * k) * _qinteger_by_sums(-k, d))
    out = PS_ZERO
    for l in range(k):
        e = d * (k - 1 - l)
        plus = RationalFn(LaurentPoly({e - d * l: 1}))
        minus = RationalFn(LaurentPoly({e - d * l: (-1) ** e}))
        out = out + PiScalar(plus, minus)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_qinteger_matches_sum_construction(d):
    for k in range(-30, 31):
        assert qinteger_signed(k, d) == _qinteger_by_sums(k, d), k
        if k >= 0:
            assert qinteger(k, d) == _qinteger_by_sums(k, d), k


def test_qinteger_signed():
    for k in range(1, 5):
        for d in (1, 2):
            # <-k> = -pi^(dk) <k>
            assert qinteger_signed(-k, d) == -(PiScalar.pi_power(d * k) * qinteger(k, d))
    assert qinteger_signed(3, 2) == qinteger(3, 2)


def test_qfactorial():
    assert qfactorial(2, 1) == qinteger(2, 1)
    assert oracles.scalar_equals(qfactorial(4, 1),
                                 oracles.qfactorial_oracle(4, 1, 1),
                                 oracles.qfactorial_oracle(4, 1, -1))


def test_qbinomial_trivial_and_frozen():
    assert qbinomial(5, 0, 1) == PS_ONE
    assert qbinomial(-3, 0, 2) == PS_ONE
    assert qbinomial(2, 1, 1) == qinteger(2, 1)


@pytest.mark.parametrize("n,k,d", [
    (2, 1, 1), (4, 2, 1), (3, 3, 2), (-1, 2, 1), (-3, 2, 1), (0, 2, 2),
    (-4, 3, 3), (6, 3, 1),
])
def test_qbinomial_matches_oracle(n, k, d):
    assert oracles.scalar_equals(qbinomial(n, k, d),
                                 oracles.qbinomial_oracle(n, k, d, 1),
                                 oracles.qbinomial_oracle(n, k, d, -1))


def test_qbinomial_denominator_free_sweep():
    # laurentness for |n| <= 8, k <= 8, d <= 3 is asserted inside qbinomial
    for d in (1, 2, 3):
        for n in range(-8, 9):
            for k in range(0, 9):
                qbinomial(n, k, d)


def test_int_laurent_reads_numerators_and_rejects_the_rest():
    # a q-binomial specialization is an integer Laurent polynomial
    for sign in (1, -1):
        r = qbinomial(4, 2, 2).specialize(sign)
        got = int_laurent(r)
        assert got is r.num
        assert got.re and not got.im
        assert all(type(c) is int for c in got.re.values())
    assert not int_laurent(RationalFn(0))
    # a Fraction coefficient, a t coefficient, a genuine denominator
    half = RationalFn(LaurentPoly({0: 1, 2: Fraction(1, 2)}))
    t_coeff = PS_T.plus * qbinomial(3, 1, 1).plus
    pole = qbinomial(2, 1, 1).plus / qbinomial(3, 1, 1).plus
    assert not pole.is_laurent()
    for r in (half, t_coeff, pole):
        with pytest.raises(ValueError):
            int_laurent(r)


def test_qbinomial_bar_invariant():
    for (n, k, d) in [(4, 2, 1), (-3, 2, 2), (5, 3, 1)]:
        b = qbinomial(n, k, d)
        assert b.bar() == b


# --- bar and twist ----------------------------------------------------------

def test_bar_of_v():
    v = PiScalar.v_power(1)
    assert v.bar() == PS({-1: 1}, {-1: -1})  # pi v^-1


def test_bar_fixes_qintegers():
    for n in range(0, 7):
        q = qinteger(n, 1)
        assert q.bar() == q


def test_twist_of_pi():
    assert PS_PI.twist() == -PS_PI


def test_twist_qinteger_t_power():
    for n in range(0, 7):
        assert qinteger(n, 1).twist() == PiScalar.t_power(n - 1) * qinteger(n, 1)


def test_twisted_qbinomial_identity():
    # [b k] at (t^-1 v, -pi) = t^(k(b-k)d) [b k] at (v, pi)
    for (b, k, d) in [(2, 1, 2), (3, 1, 1), (3, 2, 1), (4, 2, 2), (5, 3, 1)]:
        lhs = qbinomial(b, k, d).twist()
        rhs = PiScalar.t_power(k * (b - k) * d) * qbinomial(b, k, d)
        assert lhs == rhs


def test_twist_inverse():
    x = PS({2: Fraction(3, 2), -1: 1}, {0: 2})
    assert x.twist().twist_inv() == x
    assert x.twist_inv().twist() == x


# --- valuation and lattice --------------------------------------------------

def test_valuation_examples():
    x = PiScalar.v_power(2) + PS_PI  # v^2 + pi
    assert x.valuation() == (0, 0)
    assert not PiScalar.v_power(-1).in_lattice()
    one_minus_v = PS_ONE - PiScalar.v_power(1)
    assert (PS_ONE / one_minus_v).in_lattice()
    assert PS_ZERO.valuation() == (float("inf"), float("inf"))
    assert PS_ZERO.in_lattice()


def test_evaluate0():
    x = PS_ONE / (PS_ONE - PiScalar.v_power(1)) + PiScalar.v_power(1) * PS_PI
    p, m = x.evaluate0()
    assert p == GaussianRational(1) and m == GaussianRational(1)
    with pytest.raises(ZeroDivisionError):
        PiScalar.v_power(-1).evaluate0()


# --- randomized properties --------------------------------------------------

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def laurent_polys(draw):
    n = draw(st.integers(0, 3))
    d = {}
    for _ in range(n):
        e = draw(st.integers(-3, 3))
        re = draw(rationals)
        im = draw(rationals)
        if re or im:
            d[e] = GaussianRational(re, im)
    return LaurentPoly(d)


@st.composite
def pi_scalars(draw):
    nump = draw(laurent_polys())
    numm = draw(laurent_polys())
    denp = draw(laurent_polys())
    denm = draw(laurent_polys())
    if not denp:
        denp = LaurentPoly({0: GaussianRational(1)})
    if not denm:
        denm = LaurentPoly({0: GaussianRational(1)})
    return PiScalar(RationalFn(nump, denp), RationalFn(numm, denm))


@settings(max_examples=100, deadline=None)
@given(pi_scalars(), pi_scalars(), pi_scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=50, deadline=None)
@given(pi_scalars())
def test_bar_involution(a):
    assert a.bar().bar() == a


@settings(max_examples=50, deadline=None)
@given(pi_scalars())
def test_twist_order_four(a):
    assert a.twist().twist().twist().twist() == a


@settings(max_examples=100, deadline=None)
@given(pi_scalars())
def test_bar_twist_commute(a):
    assert a.bar().twist() == a.twist().bar()


@settings(max_examples=50, deadline=None)
@given(pi_scalars(), pi_scalars())
def test_bar_and_twist_are_ring_maps(a, b):
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).twist() == a.twist() * b.twist()
    assert (a + b).twist() == a.twist() + b.twist()


@settings(max_examples=60, deadline=None)
@given(pi_scalars(), pi_scalars())
def test_normalization_canonical(a, b):
    # equal values have identical stored representations
    if b.plus and b.minus:
        q = a / b
        r = q * b
        assert r == a
        assert (r.plus.num == a.plus.num and r.plus.den == a.plus.den
                and r.minus.num == a.minus.num and r.minus.den == a.minus.den)


@settings(max_examples=80, deadline=None)
@given(pi_scalars())
def test_render_parse_roundtrip(a):
    assert parse_scalar(render_scalar(a)) == a


def test_parse_rejects_malformed_imaginary_part():
    with pytest.raises(ValueError):
        parse_scalar({"plus": "(1+2t)", "minus": "0"})


def test_render_golden():
    x = PiScalar.v_power(-2) * PS_T * PiScalar.from_int(3) / 2 + PS_ONE
    assert render_scalar(x) == {"plus": "(3/2)*t*v^-2 + 1",
                                "minus": "(3/2)*t*v^-2 + 1"}


def test_specialize():
    q = qinteger(2, 1)
    plus = q.specialize(1)
    minus = q.specialize(-1)
    assert sympy.simplify(oracles.ratfn_to_sympy(plus) - (V + 1 / V)) == 0
    assert sympy.simplify(oracles.ratfn_to_sympy(minus) - (1 / V - V)) == 0


# --- integer-first normal form ------------------------------------------------


def _normal_component(q):
    """int exactly when integral, Fraction otherwise, never a float."""
    if type(q) is int:
        return True
    return type(q) is Fraction and q.denominator != 1


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_components_int_exactly_when_integral(a, b, c, d):
    x = GaussianRational(a, b)
    y = GaussianRational(c, d)
    results = [x, y, x + y, x - y, x * y, -x]
    if y:
        results.append(x / y)
    if x:
        results.append(x ** -1)
    for g in results:
        assert _normal_component(g.re) and _normal_component(g.im), g


def test_int_division_is_an_exact_fraction():
    q = GaussianRational(1) / 3
    assert q.re == Fraction(1, 3) and type(q.re) is Fraction
    assert q.im == 0 and type(q.im) is int
    assert type((GaussianRational(6, 4) / 2).im) is int


def test_integral_fraction_becomes_int():
    g = GaussianRational(Fraction(4, 2))
    assert g == GaussianRational(2)
    assert hash(g) == hash(GaussianRational(2))
    assert type(g.re) is int and type(g.im) is int


def _euclid_gcd(a, b):
    """_poly_gcd without its constant shortcut."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if a:
        a = a.scale(GaussianRational(1) / a.coeff(a.degree()))
    return a


def test_poly_gcd_constant_shortcut_matches_euclid():
    consts = [GaussianRational(1), GaussianRational(-3),
              GaussianRational(0, 2), GaussianRational(Fraction(2, 3), -1)]
    polys = [LaurentPoly(),
             LaurentPoly({0: GaussianRational(5)}),
             LaurentPoly({0: GaussianRational(1), 1: GaussianRational(1)}),
             LaurentPoly({0: GaussianRational(2), 2: GaussianRational(0, 1)}),
             LaurentPoly({0: GaussianRational(1), 4: GaussianRational(-1),
                          6: GaussianRational(Fraction(1, 2), 3)})]
    for c in consts:
        const = LaurentPoly({0: c})
        for p in polys:
            assert _poly_gcd(const, p) == _euclid_gcd(const, p)
            assert _poly_gcd(p, const) == _euclid_gcd(p, const)
            assert _poly_gcd(const, p) == LaurentPoly({0: GaussianRational(1)})


# --- component maps against sympy over QQ_I ----------------------------------


def _normal_poly(p):
    """Both component maps hold no zero, and int exactly when integral."""
    return all(x and _normal_component(x)
               for part in (p.re, p.im) for x in part.values())


def _qq_i(p):
    return sympy.Poly(oracles.laurent_to_sympy(p), V, domain="QQ_I")


def _same(p, expr):
    return _normal_poly(p) and sympy.expand(
        oracles.laurent_to_sympy(p) - expr) == 0


@st.composite
def component_polys(draw, low=-4, high=4):
    """LaurentPoly over Q(t) with Fraction and non-real coefficients,
    built from its component maps through the dict constructor."""
    d = {}
    for e in draw(st.lists(st.integers(low, high), max_size=6)):
        d[e] = GaussianRational(draw(rationals), draw(rationals))
    return LaurentPoly(d)


genuine_polys = component_polys(low=0, high=5)


@settings(max_examples=60, deadline=None)
@given(component_polys(), component_polys())
def test_component_ring_ops_match_sympy(a, b):
    sa, sb = oracles.laurent_to_sympy(a), oracles.laurent_to_sympy(b)
    assert _normal_poly(a) and _normal_poly(b)
    assert _same(a * b, sa * sb)
    assert _same(a + b, sa + sb)
    assert _same(a - b, sa - sb)
    assert _same(-a, -sa)
    for c in (GaussianRational(Fraction(2, 3)), GaussianRational(0, -2),
              GaussianRational(Fraction(1, 2), 3)):
        assert _same(a.scale(c), sa * (c.re + c.im * sympy.I))


@settings(max_examples=60, deadline=None)
@given(component_polys(), st.integers(-7, 7))
def test_substitutions_match_sympy(a, k):
    sa = oracles.laurent_to_sympy(a)
    for sign in (1, -1):
        assert _same(a.subs_v_inverse(sign), sa.subs(V, sign / V))
    assert _same(a.subs_v_t_scaled(k), sa.subs(V, sympy.I ** k * V))
    assert _same(a.shift(k), sa * V ** k)


@settings(max_examples=80, deadline=None)
@given(genuine_polys, genuine_polys)
def test_divmod_matches_sympy(a, b):
    if not b:
        return
    q, r = _poly_divmod(a, b)
    assert _normal_poly(q) and _normal_poly(r)
    assert (_qq_i(q), _qq_i(r)) == sympy.div(_qq_i(a), _qq_i(b))


@settings(max_examples=60, deadline=None)
@given(genuine_polys, genuine_polys, genuine_polys)
def test_gcd_matches_sympy(g, a, b):
    # a common factor g makes most gcds nontrivial
    a, b = a * g, b * g
    if not (a or b):
        return
    got = _poly_gcd(a, b)
    assert _normal_poly(got)
    assert _qq_i(got) == sympy.gcd(_qq_i(a), _qq_i(b))


def test_real_operands_keep_empty_imaginary_maps():
    a = LaurentPoly({0: Fraction(1, 2), 3: -2})
    b = LaurentPoly({-1: 3, 1: Fraction(2, 3)})
    for p in (a * b, a + b, a - b, a.subs_v_inverse(-1), _poly_divmod(a, a)[0],
              _poly_gcd(a, a * b.shift(1))):
        assert p.im == {} and _normal_poly(p)
    assert (a * b).re == {-1: Fraction(3, 2), 1: Fraction(1, 3), 2: -6,
                          4: Fraction(-4, 3)}


# --- the normal-form memo ----------------------------------------------------


def _exact_data(p):
    return tuple(sorted((e, type(x), x) for e, x in part.items())
                 for part in (p.re, p.im))


def test_memo_matches_fresh_normalization(tmp_path, monkeypatch):
    from covquant import cli, scalars
    argv = ["canonical", "--datum", "osp14", "--height", "4",
            "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0  # warms the memo
    seen = []
    init = RationalFn.__init__

    def recording(self, num, den=None):
        init(self, num, den)
        if den is not None and den != scalars.LP_ONE:
            seen.append((num, den, self.num, self.den))

    monkeypatch.setattr(RationalFn, "__init__", recording)
    assert cli.main(argv) == 0
    monkeypatch.undo()
    assert len(seen) > 1000
    assert len(scalars._NORMAL_FORMS) < scalars._NORMAL_FORM_CAP
    for num, den, warm_num, warm_den in seen:
        scalars._NORMAL_FORMS.clear()
        cold = RationalFn(num, den)
        assert _exact_data(cold.num) == _exact_data(warm_num)
        assert _exact_data(cold.den) == _exact_data(warm_den)


@pytest.mark.parametrize("first, second", [
    # the same real map, with and without an imaginary part
    (LaurentPoly({0: 1, 1: 2}),
     LaurentPoly({0: 1, 1: GaussianRational(2, 1)})),
    # the same coefficients, the second shifted by v
    (LaurentPoly({0: 1, 1: 2}), LaurentPoly({1: 1, 2: 2})),
])
def test_memo_key_separates_close_inputs(first, second):
    from covquant import scalars
    # a key made of the real coefficient values alone would merge them
    assert list(first.re.values()) == list(second.re.values())
    den = LaurentPoly({0: 1, 1: 2})
    scalars._NORMAL_FORMS.clear()
    cold = RationalFn(second, den)
    scalars._NORMAL_FORMS.clear()
    warm_first = RationalFn(first, den)
    warm_second = RationalFn(second, den)
    assert warm_first != warm_second
    assert _exact_data(warm_second.num) == _exact_data(cold.num)
    assert _exact_data(warm_second.den) == _exact_data(cold.den)
