"""Acceptance gate: the headline identities, one test per criterion.

Everything here is an exact symbolic equality (zero tolerance).  Each
test prints a single PASS line on success; run with -s to see them.
Shared fixtures keep the total under the five-minute desk budget.
"""

import random
from itertools import product

import pytest

from covquant import umod
from covquant.cartan import height, weight_zero
from covquant.catalog import all_catalog_names, catalog_datum
from covquant.crystal import Crystal, f_tilde
from covquant.halfqg import QuotientContext
from covquant.scalars import PS_ONE, PS_PI, PiScalar, qbinomial


@pytest.fixture(scope="module")
def ctxs():
    return {name: QuotientContext(*catalog_datum(name))
            for name in all_catalog_names()}


@pytest.fixture(scope="module")
def crystal14(ctxs):
    return Crystal(ctxs["osp14"], 6)


@pytest.fixture(scope="module")
def modules_h5(ctxs):
    return {name: umod.build_module(ctx, (1,) * ctx.root.rankX, 5)
            for name, ctx in ctxs.items()}


def test_a1_osp14_string_operator_example(ctxs):
    """Three lowering string operators applied to 1, the canonical
    element over the resulting crystal class, and its twistor image."""
    ctx = ctxs["osp14"]
    F = ctx.free
    x = f_tilde(ctx, 0, f_tilde(ctx, 1, f_tilde(ctx, 0, F.one())))
    v2 = PiScalar.v_power(2)
    expected = (F.monomial((0, 1, 0))
                - F.monomial((0, 0, 1)).scale(v2)
                + F.mul(F.divided_power(0, 2), F.theta(1)).scale(v2))
    assert ctx.equal_in_f(x, expected)

    crystal = Crystal(ctx, 3)
    el = next(e for e in crystal.canonical_basis((2, 1))
              if e.b.label_text(ctx.datum) == "121")
    assert el.G == F.monomial((0, 1, 0))
    assert el.ell % 4 == 3
    assert ctx.equal_in_f(F.twistor(el.G),
                          el.G.scale(PiScalar.t_power(-1)))
    print("PASS: a1 rank-2 string-operator example, exact")


def test_a2_twisted_serre_catalog(ctxs):
    """The twisted Serre combination vanishes for every ordered pair in
    every catalog datum, and stops vanishing under a planted
    single-exponent error."""
    for name, ctx in ctxs.items():
        n = ctx.datum.rank
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                assert ctx.verify_twistor_serre(i, j), (name, i, j)
                assert not ctx.verify_twistor_serre(i, j, mutate=True), \
                    (name, i, j)
    print("PASS: a2 twisted Serre relations, catalog + mutation control")


def test_a3_canonical_basis_triple(ctxs, crystal14):
    """Every canonical element through height 6: bar-invariant, congruent
    to its crystal class mod vL, and an exact t-power eigenvector of the
    twistor."""
    ctx = ctxs["osp14"]
    F = ctx.free
    count = 0
    for nu in crystal14.weights():
        for el in crystal14.canonical_basis(nu):
            assert ctx.equal_in_f(F.bar(el.G), el.G), (nu, el.ell)
            diff = crystal14.lattice_residues(el.G - el.b.rep, nu)
            assert diff is not None
            assert not any(g for side in diff for g in side)
            assert isinstance(el.ell, int)
            _, gc = ctx.reduce_at(el.G, nu)
            _, pc = ctx.reduce_at(F.twistor(el.G), nu)
            tp = PiScalar.t_power(el.ell)
            assert all((p - g * tp).is_zero() for p, g in zip(pc, gc))
            count += 1
    assert count >= 60
    print(f"PASS: a3 canonical basis triple through height 6 ({count} "
          "elements)")


def test_a4_lattice_stability(ctxs, crystal14):
    """Twistor stability of the crystal lattice and rho stability of L,
    on osp14 through height 6 and on osp16 and affine_b01 through height
    5, with the two base exponents spelled out."""
    psi = crystal14.verify_psi_lattice()
    rho = crystal14.verify_rho_lattice()
    assert psi["pass"] and rho["pass"]
    assert len(psi["entries"]) == len(rho["entries"]) >= 60
    for name in ("osp16", "affine_b01"):
        crystal = Crystal(ctxs[name], 5)
        assert crystal.verify_psi_lattice()["pass"], name
        assert crystal.verify_rho_lattice()["pass"], name
    top = next(e for e in crystal14.canonical_basis(weight_zero(2)))
    assert top.ell % 4 == 0
    assert PS_ONE.twist() == PS_ONE
    assert PS_PI.twist() == PiScalar.t_power(2) * PS_PI
    print("PASS: a4 lattice stability, osp14 through height 6, osp16 and "
          "affine_b01 through height 5, base exponents 0 and 2")


def test_a5_rho_twistor_sign_formula(ctxs):
    """Conjugating rho by the twistor is the sign (-1)^{N/2+p} on every
    catalog monomial of height <= 5."""
    count = 0
    for name, ctx in ctxs.items():
        n = ctx.datum.rank
        for h in range(1, 6):
            for word in product(range(n), repeat=h):
                assert ctx.verify_rho_psi(ctx.free.monomial(word)), \
                    (name, word)
                count += 1
    assert count == 5 + 62 * 3 + 363
    print(f"PASS: a5 rho-twistor sign formula on {count} monomials")


def test_a6_character_coincidence(ctxs):
    """Characters at pi = +1 and pi = -1 agree weightwise: full rank-1
    modules of each small dimension, and all truncated rank-2 modules
    with dominant coordinates <= 2."""
    ctx1 = ctxs["osp12"]
    for n in range(4):
        m = umod.build_module(ctx1, (n,), 6)
        plus = umod.character(m, 1)
        assert plus == umod.character(m, -1)
        assert sorted(plus.values()) == [1] * (n + 1)
    ctx2 = ctxs["osp14"]
    for lam in product(range(3), repeat=2):
        m = umod.build_module(ctx2, lam, 6)
        assert umod.character(m, 1) == umod.character(m, -1), lam
    print("PASS: a6 character coincidence, rank 1 dims 1..4 and nine "
          "rank-2 weights")


def test_a7_modified_and_extended_twistors(ctxs, modules_h5):
    """Dressed-generator relation suites at height 5 on the whole
    catalog, the mod-4 exponent congruence exhaustively, and both
    mutation controls."""
    for name, m in modules_h5.items():
        assert umod.verify_modified_twistor(m)["pass"], name
        assert umod.verify_hat_twistor(m)["pass"], name
        assert umod.clubsuit_report(ctxs[name])["pass"], name
    control = modules_h5["osp14"]
    assert not umod.verify_modified_twistor(control, mutate=True)["pass"]
    assert not umod.verify_hat_twistor(control, mutate=True)["pass"]
    print("PASS: a7 modified + extended twistor suites at height 5, "
          "exhaustive exponent congruence, mutation controls")


def test_a8_structural_properties(ctxs, modules_h5):
    """Per-sign graded dimensions agree, quantum binomials stay
    denominator-free, bar and twistor commute on random scalars, and the
    lowering-word diagram closes for all words of height <= 4."""
    for name, ctx in ctxs.items():
        for h in range(1, 7):
            for nu in ctx.free.weights_up_to_height(h):
                if height(nu) != h:
                    continue
                rad = ctx.radical(nu)
                n = len(ctx.words(nu))
                assert len(rad[1][0]) == len(rad[-1][0]), (name, nu)
                assert n - len(rad[1][0]) == len(ctx.pivots(nu))

    dvals = sorted({ctx.datum.d(i) for ctx in ctxs.values()
                    for i in range(ctx.datum.rank)} | {1, 2})
    for d in dvals:
        for n in range(-8, 9):
            for k in range(9):
                qbinomial(n, k, d)  # raises if any division survives

    rng = random.Random(20260819)
    for _ in range(100):
        s = sum((PiScalar.from_int(rng.randint(-9, 9))
                 * PiScalar.t_power(rng.randrange(4))
                 * PiScalar.pi_power(rng.randrange(2))
                 * PiScalar.v_power(rng.randint(-5, 5))
                 for _ in range(4)), PiScalar.from_int(0))
        assert s.bar().twist() == s.twist().bar()

    chi = umod.chi_suite(modules_h5["osp14"], 4)
    assert chi["pass"]
    assert len(chi["entries"]) == 2 + 4 + 8 + 16
    print("PASS: a8 structural properties (graded dims, binomials, "
          "bar-twistor commutation, lowering-word diagram)")
