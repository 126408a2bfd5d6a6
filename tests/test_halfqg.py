"""Quotient context: Gram matrices, radical, Serre elements, twistor checks."""

import json
import random

import pytest
import sympy

from covquant import kernels
from covquant.catalog import all_catalog_names, catalog_datum, finite_catalog_names
from covquant.cli import main
from covquant.freealg import FreeElement, render_element
from covquant.halfqg import QuotientContext
from covquant.scalars import PS_ONE, PiScalar, lp_to_ratfn, ratfn_to_lp

from oracles import (
    kostant_partition,
    lp_pair_matches_pi_expr,
    lp_to_sympy,
    pair_words_oracle,
    ratfn_to_sympy,
)

V = sympy.Symbol("v")


@pytest.fixture(scope="module")
def osp14_ctx():
    datum, root, tf = catalog_datum("osp14")
    return QuotientContext(datum, root, tf)


LP_ONE = (0, (1,))


def gram_sympy(ctx, nu, sign):
    return sympy.Matrix([[lp_to_sympy(c) for c in row]
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
    off = (2, (1,))  # v^2: 1.2 = -2, p(1)p(2) = 0
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
        words = ctx.words(nu)
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
    assert len(ctx.words(nu)) == 4
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
        words, coords = ctx.reduce(ctx.free.monomial(w))
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
        words = ctx.words(nu)
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
            assert len(ctx.words(nu)) - len(rows) == want, (nu, sign)


# --- class-coordinate table -----------------------------------------------------


def _assert_table_matches_reduce_at(ctx, nu):
    table = ctx.class_coords(nu)
    for w in ctx.words(nu):
        pivots, coords = ctx.reduce_at(ctx.free.monomial(w), nu)
        assert pivots == ctx.pivots(nu)
        for sign in (1, -1):
            den, nums = table[sign]
            got = [lp_to_ratfn(a) / lp_to_ratfn(den) for a in nums[w]]
            assert got == [c.plus if sign > 0 else c.minus for c in coords], \
                (nu, w, sign)


@pytest.mark.parametrize("name,height", [
    ("osp14", 6), ("osp16", 4), ("osp12_a1", 5), ("affine_b01", 5)])
def test_class_coords_match_reduce_at(name, height):
    # the fraction-free table against the field-arithmetic reduction
    ctx = QuotientContext(*catalog_datum(name))
    for nu in ctx.free.weights_up_to_height(height):
        _assert_table_matches_reduce_at(ctx, nu)
        for sign in (1, -1):
            assert ctx.class_coords(nu)[sign][0] == LP_ONE, (nu, sign)


def _plant_radical(ctx, nu, rows, piv):
    """Replace the radical at nu by hand-built echelon rows per sign."""
    words = ctx.words(nu)
    ctx._radical[nu] = {sign: (rows[sign], piv) for sign in (1, -1)}
    ctx._pivots[nu] = [w for t, w in enumerate(words) if t not in piv]


def test_class_coords_genuine_denominator():
    # leads 2 and 1 - v (plus), 1 + v^2 (minus) are not units of
    # Z[v, v^-1], so some coordinates are not Laurent polynomials
    ctx = QuotientContext(*catalog_datum("osp14"))
    nu = (2, 1)
    zero = kernels.LP_ZERO
    rows = {
        1: [[(0, (2,)), (0, (1, 1)), (-1, (1,))],
            [zero, (0, (1, -1)), (0, (3,))]],
        -1: [[(2, (-1,)), LP_ONE, zero],
             [zero, (0, (1, 0, 1)), (1, (1,))]],
    }
    _plant_radical(ctx, nu, rows, [0, 1])
    _assert_table_matches_reduce_at(ctx, nu)
    for sign in (1, -1):
        assert ctx.class_coords(nu)[sign][0] != LP_ONE
        _, coords = ctx.reduce_at(ctx.free.monomial(ctx.words(nu)[1]), nu)
        assert not coords[0].specialize(sign).is_laurent()


def test_reduction_left_mass_raises_arithmetic_error():
    # the second row has mass in the first row's lead column, so these
    # rows are not in echelon form and reduction cannot clear it
    ctx = QuotientContext(*catalog_datum("osp14"))
    nu = (2, 1)
    zero = kernels.LP_ZERO
    rows = [[LP_ONE, zero, zero], [LP_ONE, LP_ONE, zero]]
    _plant_radical(ctx, nu, {1: rows, -1: rows}, [0, 1])
    with pytest.raises(ArithmeticError, match="outside the pivot words"):
        ctx.reduce_at(ctx.free.monomial(ctx.words(nu)[1]), nu)
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


def test_serre_element_frozen_osp14(osp14_ctx):
    datum = osp14_ctx.datum
    s21 = osp14_ctx.serre_element(1, 0)
    rendered = render_element(datum, s21)
    assert rendered == [
        ["θ[1]θ[2]θ[2]", {"plus": "1", "minus": "1"}],
        ["θ[2]θ[1]θ[2]", {"plus": "-v^-2 - v^2", "minus": "-v^-2 - v^2"}],
        ["θ[2]θ[2]θ[1]", {"plus": "1", "minus": "1"}],
    ]
    s12 = osp14_ctx.serre_element(0, 1)
    rendered = render_element(datum, s12)
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


# --- radical stability ------------------------------------------------------------


def test_radical_stable_under_maps(osp14_ctx):
    ctx = osp14_ctx
    F = ctx.free
    nu = (3, 1)
    words = ctx.words(nu)
    rad = ctx.radical(nu)
    from covquant.scalars import RationalFn, LaurentPoly
    zero = RationalFn(LaurentPoly())
    for sign in (1, -1):
        rows, _ = rad[sign]
        for row in rows:
            terms = {}
            for t, lp in enumerate(row):
                if lp[1]:
                    r = lp_to_ratfn(lp)
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
        words = ctx.words(nu)
        for sign in (1, -1):
            rows, piv = ctx.radical(nu)[sign]
            gm = ctx.gram_component(nu, sign)
            frows, fpiv = ctx._kernel_direct(gm, len(words))
            assert fpiv == piv
            for r in frows:
                res = kernels.vec_reduce(rows, piv, list(r))
                assert all(kernels.lp_is_zero(a) for a in res)
            for r in rows:
                res = kernels.vec_reduce(frows, fpiv, list(r))
                assert all(kernels.lp_is_zero(a) for a in res)


# --- padded Serre rows ---------------------------------------------------------------


def _to_int_rows(el, index):
    """Element -> per-sign integer LP vectors over the word basis."""
    out = {}
    for sign in (1, -1):
        vec = [kernels.LP_ZERO] * len(index)
        for w, c in el.terms.items():
            vec[index[w]] = ratfn_to_lp(c.plus if sign > 0 else c.minus)
        out[sign] = vec
    return out


@pytest.mark.parametrize("nu", [(2, 1), (3, 1), (2, 2)])
def test_serre_rows_match_padded_products(osp14_ctx, nu):
    # reference: u S_ij w built with PiScalar products in the free algebra
    ctx = osp14_ctx
    F = ctx.free
    index = {w: t for t, w in enumerate(ctx.words(nu))}
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


# --- disk cache ---------------------------------------------------------------------


def test_gram_disk_cache_roundtrip(tmp_path):
    datum, root, tf = catalog_datum("osp14")
    ctx = QuotientContext(datum, root, tf, cache_dir=str(tmp_path))
    nu = (2, 1)
    mat = ctx.gram(nu)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    blob = files[0].read_bytes()
    # a fresh context must load the identical matrix without recomputing
    ctx2 = QuotientContext(datum, root, tf, cache_dir=str(tmp_path))
    # loading must not touch the pairing, neither entry point nor recursion
    ctx2.free.pair_words = None
    ctx2.free._pair_words = None
    mat2 = ctx2.gram(nu)
    assert mat2 == mat
    # rewriting produces byte-identical content
    ctx3 = QuotientContext(datum, root, tf, cache_dir=str(tmp_path))
    files[0].unlink()
    ctx3.gram(nu)
    assert files[0].read_bytes() == blob
    data = json.loads(blob)
    assert data["weight"] == [2, 1]
    assert len(data["words"]) == 3
    for key in ("plus", "minus"):
        assert len(data["gram"][key]) == 3


def _halve(path):
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])


def _edit_json(change):
    def edit(path):
        data = json.loads(path.read_text(encoding="utf-8"))
        change(data)
        path.write_text(json.dumps(data), encoding="utf-8")
    return edit


def _text_format(path):
    # the earlier cache format: rendered scalars, no version, no hash
    path.write_text(json.dumps({
        "weight": [1, 1],
        "words": ["θ[1]θ[2]", "θ[2]θ[1]"],
        "gram": [[{"plus": "1", "minus": "1"}, {"plus": "v^2", "minus": "v^2"}],
                 [{"plus": "v^2", "minus": "v^2"}, {"plus": "1", "minus": "1"}]],
    }), encoding="utf-8")


@pytest.mark.parametrize("damage", [
    _halve,
    _edit_json(lambda d: d["gram"]["plus"][0].__setitem__(0, [0, [2]])),
    _edit_json(lambda d: d["words"].reverse()),
    _edit_json(lambda d: d["gram"]["minus"][0].__setitem__(1, [2, [1, 0]])),
    _edit_json(lambda d: d.__setitem__("format", 1)),
    _text_format,
    lambda path: path.write_bytes(b"\xff\xfe"),
], ids=["halved", "coefficient", "words", "untrimmed", "version",
        "text-format", "not-utf8"])
def test_damaged_cache_file_exits_2(capsys, tmp_path, damage):
    cache = tmp_path / "cache"
    argv = ["canonical", "--datum", "osp14", "--height", "2",
            "--cache", str(cache)]
    assert main(argv) == 0
    reference = capsys.readouterr().out
    target, = cache.glob("*_1-1.json")
    damage(target)
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert str(target) in payload["error"]
    target.unlink()
    assert main(argv) == 0
    assert capsys.readouterr().out == reference
