"""Quotient context: Gram matrices, radical, Serre elements, twistor checks."""

import itertools
import random
from collections import Counter

import pytest
import sympy

from covquant import halfqg, kernels
from covquant.catalog import all_catalog_names, catalog_datum, finite_catalog_names
from covquant.freealg import FreeElement, render_word, serre_coefficient
from covquant.halfqg import QuotientContext
from covquant.scalars import LP_ONE, LP_ZERO, PS_ONE, PS_PI, LaurentPoly, \
    PiScalar, RationalFn, int_laurent, qbinomial, render_scalar

from oracles import (
    kostant_partition,
    laurent_to_sympy,
    lp_pair_matches_pi_expr,
    pair_words_oracle,
    ratfn_to_sympy,
)

V = sympy.Symbol("v")


@pytest.fixture(scope="module")
def osp14_ctx():
    datum, root, tf = catalog_datum("osp14")
    return QuotientContext(datum, root, tf)


def gram_sympy(ctx, nu, sign):
    return sympy.Matrix([[laurent_to_sympy(c) for c in row]
                         for row in ctx.gram(nu)[sign]])


# --- Gram matrices -----------------------------------------------------------


def test_gram_single_letter(osp14_ctx):
    for k in range(2):
        nu = tuple(1 if t == k else 0 for t in range(2))
        mat = osp14_ctx.gram(nu)
        for sign in (1, -1):
            assert mat[sign] == [[LP_ONE]]


def test_gram_two_letters(osp14_ctx):
    # words theta_1 theta_2, theta_2 theta_1; off-diagonal pi^{p1 p2} v^{-1.2}
    mat = osp14_ctx.gram((1, 1))
    off = LaurentPoly({2: 1})  # v^2: 1.2 = -2, p(1)p(2) = 0
    for sign in (1, -1):
        assert mat[sign] == [[LP_ONE, off], [off, LP_ONE]]


def test_gram_symmetric(osp14_ctx):
    for nu in [(2, 1), (3, 1), (2, 2)]:
        for sign in (1, -1):
            mat = osp14_ctx.gram(nu)[sign]
            n = len(mat)
            for a in range(n):
                for b in range(n):
                    assert mat[a][b] == mat[b][a]


@pytest.mark.parametrize("name,height", [("osp14", 4), ("osp16", 3)])
def test_gram_matches_pairing_oracle(name, height):
    # every cell against the sympy recursion at PI = +1 and PI = -1
    datum, root, tf = catalog_datum(name)
    ctx = QuotientContext(datum, root, tf)
    for nu in ctx.free.weights_up_to_height(height):
        words = ctx.free.words_of_weight(nu)
        mat = ctx.gram(nu)
        for a, w1 in enumerate(words):
            for b, w2 in enumerate(words):
                got = (mat[1][a][b], mat[-1][a][b])
                want = pair_words_oracle(datum, w1, w2)
                assert lp_pair_matches_pi_expr(got, want), (name, w1, w2)


def test_gram_rank_matches_sympy_oracle(osp14_ctx):
    # independent elimination (sympy) confirms the per-component ranks
    for nu in [(1, 1), (2, 1), (3, 1), (2, 2)]:
        dim = osp14_ctx.dimension(nu)
        for sign in (1, -1):
            assert gram_sympy(osp14_ctx, nu, sign).rank() == dim, (nu, sign)


def test_weight_31_kernel_is_serre_line(osp14_ctx):
    ctx = osp14_ctx
    nu = (3, 1)
    assert len(ctx.free.words_of_weight(nu)) == 4
    assert ctx.dimension(nu) == 3
    rad = ctx.radical(nu)
    for sign in (1, -1):
        rows, piv = rad[sign]
        assert len(rows) == 1
    assert ctx.radical_route(nu) == "serre"


# --- equality and reduction ---------------------------------------------------


def test_is_zero_examples(osp14_ctx):
    ctx = osp14_ctx
    F = ctx.free
    assert ctx.is_zero_in_f(ctx.serre_element(0, 1))
    assert ctx.is_zero_in_f(ctx.serre_element(1, 0))
    x = F.mul(F.theta(0), F.theta(1)) - F.mul(F.theta(1), F.theta(0))
    assert not ctx.is_zero_in_f(x)
    assert ctx.is_zero_in_f(F.zero())


def test_serre_ideal_in_radical(osp14_ctx):
    # left/right multiples of Serre elements stay zero (padding height <= 3)
    ctx = osp14_ctx
    F = ctx.free
    rng = random.Random(3)
    for i, j in ((0, 1), (1, 0)):
        s = ctx.serre_element(i, j)
        for _ in range(6):
            nl = rng.randrange(0, 3)
            nr = rng.randrange(0, 3 - nl + 1)
            u = tuple(rng.randrange(2) for _ in range(nl))
            w = tuple(rng.randrange(2) for _ in range(nr))
            padded = F.mul(F.mul(F.monomial(u), s), F.monomial(w))
            assert ctx.is_zero_in_f(padded), (i, j, u, w)


def test_equal_mod_serre(osp14_ctx):
    ctx = osp14_ctx
    F = ctx.free
    x = F.monomial((0, 1, 0, 0))
    shifted = x + ctx.serre_element(0, 1)
    assert ctx.equal_in_f(x, shifted)
    assert not ctx.equal_in_f(x, x + F.monomial((0, 0, 1, 0)))


def test_reduce_pivot_words_are_unit_vectors(osp14_ctx):
    ctx = osp14_ctx
    nu = (3, 1)
    pivots = ctx.pivots(nu)
    for t, w in enumerate(pivots):
        words, coords = ctx.reduce_at(ctx.free.monomial(w), nu)
        assert words == pivots
        for s, c in enumerate(coords):
            assert c == (PS_ONE if s == t else c) and (s == t or c.is_zero())


def test_reduce_consistent_with_gram(osp14_ctx):
    # dual route: x - reduce(x) must be annihilated by the literal Gram
    ctx = osp14_ctx
    F = ctx.free
    rng = random.Random(9)
    for _ in range(6):
        nu = rng.choice([(2, 1), (3, 1), (2, 2)])
        words = ctx.free.words_of_weight(nu)
        x = FreeElement({
            rng.choice(words): PiScalar.v_power(rng.randrange(-2, 3)),
            rng.choice(words): PS_ONE + PiScalar.pi_power(1),
        })
        diff = x - ctx.reduce_element(x)
        if diff.is_zero():
            continue
        for sign in (1, -1):
            g = gram_sympy(ctx, nu, sign)
            vec = sympy.zeros(len(words), 1)
            for t, w in enumerate(words):
                c = diff.coefficient(w)
                comp = c.plus if sign > 0 else c.minus
                vec[t] = ratfn_to_sympy(comp)
            res = sympy.simplify(g * vec)
            assert res == sympy.zeros(len(words), 1), (nu, sign)


def test_dimension_pi_independent():
    # computational shadow of the super/non-super dimension match
    for name in ("osp12", "osp14"):
        datum, root, tf = catalog_datum(name)
        ctx = QuotientContext(datum, root, tf)
        for nu in ctx.free.weights_up_to_height(4):
            dim = ctx.dimension(nu)
            for sign in (1, -1):
                assert gram_sympy(ctx, nu, sign).rank() == dim


@pytest.mark.parametrize("name,height", [("osp14", 6), ("osp16", 4)])
def test_dimension_matches_kostant_partition(name, height):
    # dim f_nu at both signs is the number of ways to write nu as a sum
    # of positive roots of the even type B_n
    datum, root, tf = catalog_datum(name)
    ctx = QuotientContext(datum, root, tf)
    for nu in ctx.free.weights_up_to_height(height):
        want = kostant_partition(datum.rank, nu)
        assert ctx.dimension(nu) == want, nu
        for sign in (1, -1):
            rows, _ = ctx.radical(nu)[sign]
            n = len(ctx.free.words_of_weight(nu))
            assert n - len(rows) == want, (nu, sign)


# --- class-coordinate table -----------------------------------------------------


def _gram_kills_residuals(ctx, nu, sign, table):
    """True iff the Gram matrix kills e_w - sum_k table[w][k] e_{p_k} for
    every word w, p_k the pivot words: the table holds classes in f.
    A plain product loop over exponent dicts, independent of kernels."""
    col = {w: t for t, w in enumerate(ctx.free.words_of_weight(nu))}
    pivots = ctx.pivots(nu)
    for w, coords in table.items():
        for row in ctx.gram(nu)[sign]:
            acc = Counter(row[col[w]].re)
            for p, a in zip(pivots, coords):
                for e1, x in a.re.items():
                    for e2, y in row[col[p]].re.items():
                        acc[e1 + e2] -= x * y
            if any(acc.values()):
                return False
    return True


def _bump(table):
    """A copy of table with 1 added to the first entry of its first word
    that has coordinates."""
    w = next(w for w, coords in table.items() if coords)
    coords = list(table[w])
    coords[0] = coords[0] + LP_ONE
    return {**table, w: tuple(coords)}


@pytest.mark.parametrize("name,height", [
    ("osp14", 6), ("osp16", 4), ("osp12_a1", 5), ("affine_b01", 5)])
def test_class_coords_match_reduce_at(name, height):
    # reduce_at reads this table, so the table is checked against the
    # Gram matrix: each word minus its class must lie in the radical
    ctx = QuotientContext(*catalog_datum(name))
    weights = ctx.free.weights_up_to_height(height)
    for nu in weights:
        for sign in (1, -1):
            den, table = ctx.class_coords(nu)[sign]
            assert den == LP_ONE, (nu, sign)
            assert _gram_kills_residuals(ctx, nu, sign, table), (nu, sign)
    # negative control: one entry off by 1 at the largest weight space
    nu = max((nu for nu in weights if ctx.dimension(nu)),
             key=lambda nu: len(ctx.free.words_of_weight(nu)))
    _, table = ctx.class_coords(nu)[1]
    assert not _gram_kills_residuals(ctx, nu, 1, _bump(table))


def _plant_radical(ctx, nu, rows, piv):
    """Replace the radical at nu by hand-built echelon rows per sign."""
    words = ctx.free.words_of_weight(nu)
    ctx._radical[nu] = {sign: (rows[sign], piv) for sign in (1, -1)}
    ctx._pivots[nu] = [w for t, w in enumerate(words) if t not in piv]


def test_class_coords_genuine_denominator():
    # leads 2 and 1 - v (plus), 1 + v^2 (minus) are not units of
    # Z[v, v^-1], so some coordinates are not Laurent polynomials
    ctx = QuotientContext(*catalog_datum("osp14"))
    nu = (2, 1)
    zero = LP_ZERO
    rows = {
        1: [[LaurentPoly({0: 2}), LaurentPoly({0: 1, 1: 1}),
             LaurentPoly({-1: 1})],
            [zero, LaurentPoly({0: 1, 1: -1}), LaurentPoly({0: 3})]],
        -1: [[LaurentPoly({2: -1}), LP_ONE, zero],
             [zero, LaurentPoly({0: 1, 2: 1}), LaurentPoly({1: 1})]],
    }
    _plant_radical(ctx, nu, rows, [0, 1])
    words, pivots = ctx.free.words_of_weight(nu), ctx.pivots(nu)

    def residuals_in_span(sign, den, table):
        # den e_w - sum_k table[w][k] e_{p_k} against the planted rows
        span = sympy.Matrix([[laurent_to_sympy(c) for c in r]
                             for r in rows[sign]])
        for w, coords in table.items():
            res = [laurent_to_sympy(den) if u == w else 0 for u in words]
            for p, a in zip(pivots, coords):
                res[words.index(p)] -= laurent_to_sympy(a)
            if span.col_join(sympy.Matrix([res])).rank() != span.rank():
                return False
        return True

    for sign in (1, -1):
        den, table = ctx.class_coords(nu)[sign]
        assert den != LP_ONE
        assert residuals_in_span(sign, den, table)
        assert not residuals_in_span(sign, den, _bump(table))
        # reduce_at sums the table rows, pivot words included, over den
        x = ctx.free.monomial(words[1]) + \
            ctx.free.monomial(pivots[0]).scale(PiScalar.v_power(1))
        _, coords = ctx.reduce_at(x, nu)
        got = coords[0].specialize(sign)
        assert not got.is_laurent()
        want = (laurent_to_sympy(table[words[1]][0]) / laurent_to_sympy(den)
                + V)
        assert sympy.simplify(ratfn_to_sympy(got) - want) == 0


def test_reduction_left_mass_raises_arithmetic_error():
    # the second row has mass in the first row's lead column, so these
    # rows are not in echelon form and reduction cannot clear it
    ctx = QuotientContext(*catalog_datum("osp14"))
    nu = (2, 1)
    zero = LP_ZERO
    rows = [[LP_ONE, zero, zero], [LP_ONE, LP_ONE, zero]]
    _plant_radical(ctx, nu, {1: rows, -1: rows}, [0, 1])
    with pytest.raises(ArithmeticError, match="outside the pivot words"):
        ctx.reduce_at(ctx.free.monomial(ctx.free.words_of_weight(nu)[1]), nu)
    with pytest.raises(ArithmeticError, match="outside the pivot words"):
        ctx.class_coords(nu)


# --- Serre elements ------------------------------------------------------------


def test_serre_element_disconnected_case():
    # a_ij = 0 gives theta_i theta_j - pi^{p(i)p(j)} theta_j theta_i
    datum, root, tf = catalog_datum("osp12_a1")
    ctx = QuotientContext(datum, root, tf)
    s = ctx.serre_element(0, 1)
    want = FreeElement({
        (0, 1): PS_ONE,
        (1, 0): -PiScalar.pi_power(datum.p(0) * datum.p(1)),
    })
    assert s == want
    assert ctx.is_zero_in_f(s)


def _render(datum, x):
    """(word, scalar) text pairs sorted by word."""
    return [[render_word(datum, w), render_scalar(x.terms[w])]
            for w in sorted(x.terms)]


def test_serre_element_frozen_osp14(osp14_ctx):
    datum = osp14_ctx.datum
    s21 = osp14_ctx.serre_element(1, 0)
    rendered = _render(datum, s21)
    assert rendered == [
        ["θ[1]θ[2]θ[2]", {"plus": "1", "minus": "1"}],
        ["θ[2]θ[1]θ[2]", {"plus": "-v^-2 - v^2", "minus": "-v^-2 - v^2"}],
        ["θ[2]θ[2]θ[1]", {"plus": "1", "minus": "1"}],
    ]
    s12 = osp14_ctx.serre_element(0, 1)
    rendered = _render(datum, s12)
    # b = 3: pi-powers pi^{C(k,2)} since p(1)=1, p(2)=0
    assert rendered == [
        ["θ[1]θ[1]θ[1]θ[2]", {"plus": "1", "minus": "1"}],
        ["θ[1]θ[1]θ[2]θ[1]",
         {"plus": "-v^-2 - 1 - v^2", "minus": "-v^-2 + 1 - v^2"}],
        ["θ[1]θ[2]θ[1]θ[1]",
         {"plus": "v^-2 + 1 + v^2", "minus": "-v^-2 + 1 - v^2"}],
        ["θ[2]θ[1]θ[1]θ[1]", {"plus": "-1", "minus": "1"}],
    ]


def test_serre_element_rejects_equal_indices(osp14_ctx):
    with pytest.raises(ValueError):
        osp14_ctx.serre_element(0, 0)


@pytest.mark.parametrize("name", all_catalog_names())
def test_twisted_serre_coefficient_matches_hand_twist(name):
    # the twisted relation's coefficient written out by hand:
    # (-1)^k (-pi)^{C(k,2)p(i)+k p(i)p(j)} twist([b,k]_{v_i})
    datum = catalog_datum(name)[0]
    for i in range(datum.rank):
        for j in range(datum.rank):
            if i == j:
                continue
            b = 1 - datum.a(i, j)
            for k in range(b + 1):
                e = k * (k - 1) // 2 * datum.p(i) + k * datum.p(i) * datum.p(j)
                want = qbinomial(b, k, datum.d(i)).twist() * (-PS_PI) ** e
                if k % 2:
                    want = -want
                got = serre_coefficient(datum, i, j, k)
                assert got.twist() == want, (name, i, j, k)


# --- twistor Serre and rho-psi ---------------------------------------------------


def test_twistor_serre_all_catalog_pairs():
    for name in finite_catalog_names():
        datum, root, tf = catalog_datum(name)
        ctx = QuotientContext(datum, root, tf)
        for i in range(datum.rank):
            for j in range(datum.rank):
                if i != j:
                    assert ctx.verify_twistor_serre(i, j), (name, i, j)


def test_twistor_serre_mutation_fails(osp14_ctx):
    for i, j in ((0, 1), (1, 0)):
        assert not osp14_ctx.verify_twistor_serre(i, j, mutate=True)


def test_rho_psi_monomials(osp14_ctx):
    ctx = osp14_ctx
    F = ctx.free
    rng = random.Random(21)
    assert ctx.verify_rho_psi(F.theta(0))
    assert ctx.verify_rho_psi(F.monomial((0, 1, 0)))
    for _ in range(12):
        n = rng.randrange(1, 6)
        w = tuple(rng.randrange(2) for _ in range(n))
        assert ctx.verify_rho_psi(F.monomial(w)), w


def test_rho_psi_sign_flip_fails(osp14_ctx, monkeypatch):
    # negative control: with the sign exponent off by one the identity
    # reads rho(x) = -rho(x), which fails exactly where x is nonzero in f
    ctx = osp14_ctx
    exact = halfqg.stats_p
    monkeypatch.setattr(halfqg, "stats_p", lambda d, nu: exact(d, nu) + 1)
    nonzero = 0
    for h in range(1, 4):
        for w in itertools.product(range(2), repeat=h):
            x = ctx.free.monomial(w)
            if not ctx.is_zero_in_f(x):
                nonzero += 1
                assert not ctx.verify_rho_psi(x), w
    assert nonzero > 6
    monkeypatch.undo()
    assert ctx.verify_rho_psi(ctx.free.monomial((0, 1, 0)))


# --- radical stability ------------------------------------------------------------


def test_radical_stable_under_maps(osp14_ctx):
    ctx = osp14_ctx
    F = ctx.free
    nu = (3, 1)
    words = ctx.free.words_of_weight(nu)
    rad = ctx.radical(nu)
    zero = RationalFn(LP_ZERO)
    for sign in (1, -1):
        rows, _ = rad[sign]
        for row in rows:
            terms = {}
            for t, a in enumerate(row):
                if a:
                    r = RationalFn(a)
                    terms[words[t]] = (PiScalar(r, zero) if sign > 0
                                       else PiScalar(zero, r))
            el = FreeElement(terms)
            assert ctx.is_zero_in_f(el)
            for img in (F.bar(el), F.rho(el), F.twistor(el)):
                assert ctx.is_zero_in_f(img)


# --- fallback elimination agrees with the certified route ---------------------------


def test_fallback_kernel_matches_serre_route(osp14_ctx):
    ctx = osp14_ctx
    for nu in [(3, 1), (2, 2)]:
        words = ctx.free.words_of_weight(nu)
        for sign in (1, -1):
            rows, piv = ctx.radical(nu)[sign]
            gm = ctx.gram(nu)[sign]
            frows, fpiv = ctx._kernel_direct(gm, len(words))
            assert fpiv == piv
            for r in frows:
                res, _ = kernels.vec_reduce(rows, piv, r)
                assert not any(res)
            for r in rows:
                res, _ = kernels.vec_reduce(frows, fpiv, r)
                assert not any(res)


# --- the certificate ---------------------------------------------------------------


def test_certify_rejects_rows_off_the_kernel_or_short(osp14_ctx):
    ctx = osp14_ctx
    nu = (3, 1)
    n = len(ctx.free.words_of_weight(nu))
    for sign in (1, -1):
        rows, piv = ctx.radical(nu)[sign]
        gm = ctx.gram(nu)[sign]
        assert ctx._certify(gm, rows, piv, n)
        # a unit added at a pivot word moves the row off the kernel
        free = next(c for c in range(n) if c not in piv)
        moved = [list(r) for r in rows]
        moved[0][free] = moved[0][free] + LP_ONE
        assert not ctx._certify(gm, moved, piv, n)
        # without its last row the span misses part of the radical, so the
        # complementary minor is singular
        assert not ctx._certify(gm, rows[:-1], piv[:-1], n)


@pytest.mark.parametrize("name,height", [
    ("osp12", 8), ("osp12_a1", 7), ("osp14", 8), ("osp16", 6),
    ("affine_b01", 6)])
def test_catalog_radical_takes_serre_route(name, height):
    ctx = QuotientContext(*catalog_datum(name))
    for nu in ctx.free.weights_up_to_height(height):
        assert ctx.radical_route(nu) == "serre", nu


# --- padded Serre rows ---------------------------------------------------------------


def _to_int_rows(el, index):
    """Element -> per-sign integer LP vectors over the word basis."""
    out = {}
    for sign in (1, -1):
        vec = [LP_ZERO] * len(index)
        for w, c in el.terms.items():
            vec[index[w]] = int_laurent(c.plus if sign > 0 else c.minus)
        out[sign] = vec
    return out


@pytest.mark.parametrize("nu", [(2, 1), (3, 1), (2, 2)])
def test_serre_rows_match_padded_products(osp14_ctx, nu):
    # reference: u S_ij w built with PiScalar products in the free algebra
    ctx = osp14_ctx
    F = ctx.free
    index = {w: t for t, w in enumerate(ctx.free.words_of_weight(nu))}
    want = []
    for i, j in ((0, 1), (1, 0)):
        s = ctx.serre_element(i, j)
        rest = tuple(a - b for a, b in zip(nu, s.homogeneous_weight(2)))
        if min(rest) < 0:
            continue
        for left in ctx._subweights(rest):
            right = tuple(a - b for a, b in zip(rest, left))
            for u in F.words_of_weight(left):
                for w in F.words_of_weight(right):
                    el = F.mul(F.mul(F.monomial(u), s), F.monomial(w))
                    want.append(_to_int_rows(el, index))
    assert ctx._serre_span_rows(nu) == want
