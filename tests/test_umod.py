"""Highest-weight module construction and the module-level twistor suites."""

import copy
import json
import re

import pytest

from covquant import linalg, umod
from covquant.cartan import height, unit_weight, weight_sub, weight_zero
from covquant.catalog import catalog_datum, finite_catalog_names
from covquant.freealg import FreeAlgebra
from covquant.halfqg import QuotientContext
from covquant.linalg import RF_ONE, RF_ZERO
from covquant.scalars import RationalFn
from covquant.umod import (
    ModifiedTwistData,
    TruncationBoundary,
    build_module,
    character,
    character_report,
    chi_suite,
    clubsuit_congruence,
    clubsuit_report,
    verify_chi_diagram,
    verify_hat_twistor,
    verify_modified_twistor,
    verify_module_relations,
)

from oracles import (
    b_module_depth,
    ratfn_to_sympy,
    rank1_dims_oracle,
    rank1_raising_scalar_oracle,
    weyl_dimension_b,
)
import sympy


@pytest.fixture(scope="module")
def ctx12():
    return QuotientContext(*catalog_datum("osp12"))


@pytest.fixture(scope="module")
def ctx14():
    return QuotientContext(*catalog_datum("osp14"))


@pytest.fixture(scope="module")
def mod14():
    ctx = QuotientContext(*catalog_datum("osp14"))
    return build_module(ctx, (1, 1), 5)


def dims_along_chain(module, sign):
    """Dimensions [depth 0..hmax] for a rank-1 module."""
    return [module.dimension((k,), sign) for k in range(module.hmax + 1)]


# --- rank 1 against the brute-force oracle ------------------------------


@pytest.mark.parametrize("n", range(4))
def test_rank1_dims_match_oracle(ctx12, n):
    m = build_module(ctx12, (n,), 5)
    for sign in (1, -1):
        assert dims_along_chain(m, sign) == rank1_dims_oracle(n, 5, sign)


def test_rank1_n2_dims_spelled_out(ctx12):
    m = build_module(ctx12, (2,), 5)
    assert dims_along_chain(m, 1) == [1, 1, 1, 0, 0, 0]
    assert dims_along_chain(m, -1) == [1, 1, 1, 0, 0, 0]


def test_rank1_raising_entries_match_oracle(ctx12):
    m = build_module(ctx12, (3,), 5)
    for sign in (1, -1):
        for k in range(1, 4):
            mat, texp, fin = m.word_operator(sign, (k,), (("E", 0),))
            assert texp == 0
            assert fin == (k - 1,)
            want = rank1_raising_scalar_oracle(3, k, sign)
            assert sympy.simplify(ratfn_to_sympy(mat[0][0]) - want) == 0


def test_trivial_highest_weight_is_one_dimensional(ctx12):
    m = build_module(ctx12, (0,), 4)
    for sign in (1, -1):
        assert dims_along_chain(m, sign) == [1, 0, 0, 0, 0]
        assert character(m, sign) == {(0,): 1}
    # the lone lowering operator is the zero map into the empty block below
    mat, _, _ = m.word_operator(1, (0,), (("F", 0),))
    assert mat == []


def test_non_dominant_weight_still_builds(ctx12):
    m = build_module(ctx12, (-1,), 4)
    for sign in (1, -1):
        assert dims_along_chain(m, sign) == rank1_dims_oracle(-1, 4, sign)
        assert dims_along_chain(m, sign) == [1] * 5
    assert verify_module_relations(m)["pass"]


# --- structural invariants ----------------------------------------------


@pytest.mark.parametrize("name,lam,hmax", [
    ("osp12", (2,), 4),
    ("osp12_a1", (1, 2), 4),
    ("osp14", (1, 1), 4),
    ("osp16", (1, 0, 0), 3),
])
def test_defining_relations_hold(name, lam, hmax):
    ctx = QuotientContext(*catalog_datum(name))
    m = build_module(ctx, lam, hmax)
    rep = verify_module_relations(m)
    assert rep["pass"], [e for e in rep["entries"] if e["status"] == "fail"]
    skipped = [e for e in rep["entries"] if e["status"] == "boundary-skipped"]
    assert skipped, "top blocks should be flagged, not silently checked"


def test_highest_space_and_diagonal_scalars(mod14):
    m = mod14
    zero = weight_zero(2)
    for sign in (1, -1):
        assert m.dimension(zero, sign) == 1
    # grouplikes act by the pairing against the block weight
    mu = unit_weight(m.root.rankY, 0)
    nu = (1, 1)
    wt = m.block_weight(nu)
    assert m.k_scalar(mu, nu) == umod.PiScalar.v_power(m.root.pair(mu, wt))
    assert m.j_scalar(mu, nu) == umod.PiScalar.pi_power(m.root.pair(mu, wt))


def test_spaces_are_words_of_weight(mod14):
    for sign in (1, -1):
        for nu in mod14.weights:
            words = mod14.space(nu, sign)
            assert len(words) == mod14.dimension(nu, sign)
            assert len(set(words)) == len(words)
            assert all(w in mod14.ctx.words(nu) for w in words)


def test_word_operator_boundary(mod14):
    top = next(nu for nu in mod14.weights if height(nu) == mod14.hmax)
    with pytest.raises(TruncationBoundary):
        mod14.word_operator(1, top, (("F", 0),))
    with pytest.raises(ValueError):
        mod14.dimension((9, 9), 1)


def test_characters_sign_independent_for_dominant(ctx14):
    for lam in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        m = build_module(ctx14, lam, 4)
        assert character(m, 1) == character(m, -1)


def test_fundamental_characters_close_up(ctx14):
    # the two fundamentals close below height 6: a 4-dimensional module
    # and the 5-dimensional vector module, with the familiar weight chains
    m = build_module(ctx14, (1, 0), 6)
    assert character(m, 1) == {
        (1, 0): 1, (-1, 1): 1, (1, -1): 1, (-1, 0): 1}
    blocks = [nu for nu in m.weights if m.dimension(nu, 1)]
    assert blocks == [(0, 0), (1, 0), (1, 1), (2, 1)]
    m = build_module(ctx14, (0, 1), 6)
    ch = character(m, 1)
    assert sum(ch.values()) == 5 and ch == character(m, -1)
    blocks = [nu for nu in m.weights if m.dimension(nu, 1)]
    assert blocks == [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]


@pytest.mark.parametrize("lam", [(1, 0), (0, 1), (2, 0), (1, 1)])
def test_full_window_dimension_matches_weyl_osp14(ctx14, lam):
    # a window down to the lowest weight holds the whole module, whose
    # dimension at both signs is the Weyl dimension of type B2
    m = build_module(ctx14, lam, b_module_depth(2, lam))
    for sign in (1, -1):
        assert sum(character(m, sign).values()) == weyl_dimension_b(2, lam)


def test_full_window_dimension_matches_weyl_osp16():
    lam = (1, 0, 0)
    ctx = QuotientContext(*catalog_datum("osp16"))
    m = build_module(ctx, lam, b_module_depth(3, lam))
    for sign in (1, -1):
        assert sum(character(m, sign).values()) == weyl_dimension_b(3, lam)


def test_character_report_schema(ctx14):
    m = build_module(ctx14, (0, 1), 4)
    rep = character_report(m, -1)
    assert rep["lambda"] == [0, 1] and rep["pi"] == "-1"
    assert all(set(e) == {"weight", "dim"} for e in rep["character"])
    assert json.loads(json.dumps(rep)) == rep
    assert rep["character"][0] == {"weight": [0, 1], "dim": 1}


# --- modified twistor -----------------------------------------------------


def test_modified_exponent_tables_shift(ctx14):
    data = ModifiedTwistData(ctx14)
    lam = (1, 1)
    for i in range(2):
        for j in range(2):
            shifted = weight_sub(lam, ctx14.root.weight_in_X(
                unit_weight(2, j)))
            u_i, u_j = unit_weight(2, i), unit_weight(2, j)
            assert data.f_exponent(i, shifted) \
                == data.f_exponent(i, lam) - ctx14.tf.phi(u_i, u_j)
    mutated = ModifiedTwistData(ctx14, mutate=True)
    assert mutated.f_exponent(0, lam) == data.f_exponent(0, lam) + 1
    assert mutated.e_exponent(0, lam) == data.e_exponent(0, lam)


def test_modified_twistor_passes(mod14):
    rep = verify_modified_twistor(mod14)
    assert rep["pass"] and not rep["mutated"]
    assert {e["relation"] for e in rep["entries"]} >= {
        "commutator", "serre-e", "serre-f", "order-4",
        "commutator-top-scalar", "divided-power-f"}
    for e in rep["entries"]:
        if e["relation"] == "divided-power-f":
            assert isinstance(e["exponent"], int)


def test_modified_twistor_mutation_detected(mod14):
    rep = verify_modified_twistor(mod14, mutate=True)
    assert rep["mutated"] and not rep["pass"]
    fails = [e for e in rep["entries"] if e["status"] == "fail"]
    assert fails and all(e["relation"] == "commutator" for e in fails)
    assert all(e["i"] == e["j"] for e in fails)


def test_modified_twistor_catalog():
    for name in finite_catalog_names():
        ctx = QuotientContext(*catalog_datum(name))
        lam = tuple([1] * ctx.root.rankX)
        m = build_module(ctx, lam, 3)
        assert verify_modified_twistor(m)["pass"], name
        assert not verify_modified_twistor(m, mutate=True)["pass"], name


# --- clubsuit congruence --------------------------------------------------


def test_clubsuit_exhaustive():
    from covquant.catalog import all_catalog_names
    for name in all_catalog_names():
        ctx = QuotientContext(*catalog_datum(name))
        rep = clubsuit_report(ctx)
        assert rep["pass"], (name, rep["entries"])


def test_clubsuit_rejects_bad_arguments(ctx14):
    with pytest.raises(ValueError):
        clubsuit_congruence(ctx14, 0, 0, 0)
    with pytest.raises(ValueError):
        clubsuit_congruence(ctx14, 0, 1, 99)


# --- extension by diagonal operators --------------------------------------


def test_hat_twistor_passes(mod14):
    rep = verify_hat_twistor(mod14)
    assert rep["pass"]
    assert {e["relation"] for e in rep["entries"]} >= {
        "t-additivity", "jk-image", "k-weight", "j-weight",
        "hat-dot-consistency", "commutator", "serre-e", "serre-f"}


def test_hat_twistor_mutation_detected(mod14):
    rep = verify_hat_twistor(mod14, mutate=True)
    assert not rep["pass"]
    bad = {e["relation"] for e in rep["entries"] if e["status"] == "fail"}
    assert "commutator" in bad and "hat-dot-consistency" in bad


def test_hat_twistor_catalog():
    for name in finite_catalog_names():
        ctx = QuotientContext(*catalog_datum(name))
        lam = tuple([1] * ctx.root.rankX)
        m = build_module(ctx, lam, 3)
        assert verify_hat_twistor(m)["pass"], name


# --- the intertwining square ----------------------------------------------


def test_chi_diagram_on_generators(mod14):
    fa = mod14.ctx.free
    for i in range(2):
        assert verify_chi_diagram(mod14, fa.theta(i))


def test_chi_diagram_shifted_lowering_exponent_fails(mod14, monkeypatch):
    # negative control: one extra t on every dressed lowering letter
    exact = umod._chi_lower_exponent

    def shifted(module):
        fn = exact(module)
        return lambda kind, i, mu: fn(kind, i, mu) + 1

    monkeypatch.setattr(umod, "_chi_lower_exponent", shifted)
    fa = mod14.ctx.free
    for i in range(2):
        assert not verify_chi_diagram(mod14, fa.theta(i))


def test_chi_diagram_monomials(mod14):
    rep = chi_suite(mod14, 3)
    assert rep["pass"]
    labels = {e["element"] for e in rep["entries"]}
    assert {"1", "2", "12", "121"} <= labels


def test_chi_diagram_star_products(mod14):
    # multiplicativity closure: the square still commutes on *-products,
    # whose coefficients pick up the crossing t-powers
    fa = mod14.ctx.free
    for w1 in [(0,), (1,), (0, 1)]:
        for w2 in [(0,), (1,), (1, 0)]:
            x = fa.star_mul(fa.monomial(w1), fa.monomial(w2))
            assert verify_chi_diagram(mod14, x)


def test_chi_diagram_zero_element(mod14):
    assert verify_chi_diagram(mod14, mod14.ctx.free.zero())


def _ratfn_column(row):
    """An integer Laurent row over the words as a sparse RationalFn
    column."""
    return {t: RationalFn(a) for t, a in enumerate(row) if a}


@pytest.mark.parametrize("name,lam,hmax", [
    ("osp14", (2, 0), 6),
    ("osp16", (1, 1, 1), 4),
    ("osp12_a1", (2, 1), 4),
    ("affine_b01", (1, 1, 0), 4),
])
def test_radical_rows_reduce_to_zero(name, lam, hmax):
    # the module is built on free words without the half algebra's
    # radical, which must still lie in the joint kernel of the raising
    # maps: every radical row reduces to zero on N(lam)_nu
    ctx = QuotientContext(*catalog_datum(name))
    module = build_module(ctx, lam, hmax)
    checked = 0
    for nu in module.weights:
        for sign in (1, -1):
            kern = module._kernels[(sign, nu)]
            rows = ctx.radical(nu)[sign][0]
            for row in rows:
                assert not any(umod._reduce(kern, _ratfn_column(row))), \
                    (nu, sign)
            checked += len(rows)
            # negative control: a unit at a quotient-pivot word survives
            if rows and kern[2]:
                col = _ratfn_column(rows[0])
                t = kern[2][0]
                col[t] = col[t] + RF_ONE if t in col else RF_ONE
                assert any(umod._reduce(kern, col)), (nu, sign)
    assert checked


@pytest.mark.parametrize("sign", [1, -1])
def test_lowering_check_rejects_images_off_the_kernel(sign, monkeypatch):
    # negative control for the lowering-escape check: the raising image of
    # theta_2 theta_1^3 at (3, 1) gains a unit at a quotient-pivot word of
    # (2, 1), so theta_1^3, in the kernel at (3, 0), no longer lowers into
    # the kernel at (3, 1)
    ctx = QuotientContext(*catalog_datum("osp14"))
    images = umod.WeightModule._raising_images

    def shifted(self, i, nu):
        imgs, tgt = images(self, i, nu)
        if (i, nu) == (0, (3, 1)):
            col = imgs[sign][self._index[nu][(1, 0, 0, 0)]]
            t = self._kernels[(sign, tgt)][2][0]
            col[t] = col[t] + RF_ONE if t in col else RF_ONE
        return imgs, tgt

    monkeypatch.setattr(umod.WeightModule, "_raising_images", shifted)
    with pytest.raises(ArithmeticError, match=re.escape(
            "lowering action escapes the raising kernel at weight (3, 0) "
            f"(generator 2, pi={sign:+d})")):
        build_module(ctx, (2, 0), 4)


def test_build_pairs_no_words(monkeypatch):
    # the module never forms the half algebra's Gram matrix
    calls = []
    pair = FreeAlgebra.pair_words

    def counting(self, *args, **kwargs):
        calls.append(args)
        return pair(self, *args, **kwargs)

    monkeypatch.setattr(FreeAlgebra, "pair_words", counting)
    ctx = QuotientContext(*catalog_datum("osp14"))
    module = build_module(ctx, (2, 0), 6)
    assert character_report(module, 1)["character"]
    assert calls == []


def test_build_eliminates_once_per_sign_and_weight(monkeypatch):
    # the kernel at each weight of positive height comes from a single
    # elimination per sign, which also names the quotient basis
    ctx = QuotientContext(*catalog_datum("osp14"))
    build_module(ctx, (1, 1), 4)
    calls = []
    eliminate = linalg._eliminate

    def counting(mat, ncols):
        calls.append(ncols)
        return eliminate(mat, ncols)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    m = build_module(ctx, (1, 1), 4)
    assert len(calls) == 2 * sum(height(nu) > 0 for nu in m.weights)


# --- memoized word products ---------------------------------------------


def _plain_mul(a, b, ncols):
    return [[sum((x * b[t][c] for t, x in enumerate(row) if x and b[t][c]),
                 RF_ZERO)
             for c in range(ncols)] for row in a]


def _fold(module, gens, sign, nu, word):
    """The bare product of word on the block at nu, letter by letter from
    the right, with the generator matrices in gens; None if the word
    passes through a negative depth."""
    rank = module.datum.rank
    n0 = module.dimension(nu, sign)
    mat = [[RF_ONE if r == c else RF_ZERO for c in range(n0)]
           for r in range(n0)]
    cur = nu
    for kind, i in reversed(word):
        step = unit_weight(rank, i)
        nxt = tuple(a + b if kind == "F" else a - b
                    for a, b in zip(cur, step))
        if min(nxt) < 0:
            return None
        mat = _plain_mul(gens[kind][(sign, i, cur)], mat, n0)
        cur = nxt
    return mat


def _snapshot(mats):
    return {k: copy.deepcopy(v) for k, v in mats.items()}


@pytest.mark.parametrize("name,lam,hmax", [
    ("osp14", (1, 1), 4),
    ("osp16", (1, 1, 1), 3),
])
def test_memoized_products_match_fold_and_stay_unmutated(name, lam, hmax):
    ctx = QuotientContext(*catalog_datum(name))
    m = build_module(ctx, lam, hmax)
    gens = {"E": _snapshot(m._eop), "F": _snapshot(m._fop)}
    requested = set()
    word_operator = m.word_operator

    def recording(sign, nu, word, exponent_fn=None):
        requested.add((sign, tuple(nu), tuple(word)))
        return word_operator(sign, nu, word, exponent_fn)

    m.word_operator = recording

    def run_suites():
        for mutate in (False, True):
            assert verify_modified_twistor(m, mutate=mutate)["pass"] \
                is not mutate
            assert verify_hat_twistor(m, mutate=mutate)["pass"] is not mutate
        assert chi_suite(m, min(hmax, 4))["pass"]

    run_suites()
    assert len(requested) > 100
    for sign, nu, word in requested:
        mat, _, _ = word_operator(sign, nu, word)
        assert mat == _fold(m, gens, sign, nu, word), (sign, nu, word)
    # the generator matrices and every shared product survive a second
    # full run unchanged
    products = {k: v[0] for k, v in m._products.items()}
    before = _snapshot(products)
    run_suites()
    assert m._eop == gens["E"] and m._fop == gens["F"]
    for key, mat in products.items():
        assert m._products[key][0] is mat
        assert mat == before[key], key
