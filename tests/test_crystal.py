"""Crystal lattice, string operators, canonical basis, twistor reports."""

from types import SimpleNamespace

import pytest
import sympy

from covquant.cartan import stats_p
from covquant.catalog import catalog_datum
from covquant.crystal import (
    _SIGN_UNITS,
    _TWIST_UNITS,
    Crystal,
    _unit_at,
    e_tilde,
    f_tilde,
    gamma_coefficient,
    string_decompose,
)
from covquant.halfqg import QuotientContext
from covquant.linalg import solve
from covquant.scalars import PS_ONE, PS_PI, GaussianRational, PiScalar

from oracles import (
    PI,
    V,
    echelon_crystal,
    echelon_lattice_reports,
    match_unit,
    pair_words_oracle,
    ratfn_to_sympy,
)


@pytest.fixture(scope="module")
def osp14_ctx():
    return QuotientContext(*catalog_datum("osp14"))


@pytest.fixture(scope="module")
def osp14_cr4(osp14_ctx):
    return Crystal(osp14_ctx, 4)


@pytest.fixture(scope="module")
def osp14_cr3(osp14_ctx):
    return Crystal(osp14_ctx, 3)


def v_pow(k):
    return PiScalar.v_power(k)


# --- string decomposition ----------------------------------------------------


def test_gamma_closed_form(osp14_ctx):
    # independent oracle: (e_i')^N applied symbolically to theta_i^(N)
    # must produce pi_i^C(N,2) v_i^-C(N,2)
    datum = osp14_ctx.datum
    for i in range(datum.rank):
        d_i = datum.dot[i][i] // 2
        p_i = datum.parity[i]
        for N in range(1, 5):
            c2 = N * (N - 1) // 2
            want = PiScalar.pi_power(c2 * p_i) * PiScalar.v_power(-c2 * d_i)
            assert gamma_coefficient(osp14_ctx, i, N) == want, (i, N)


def test_string_decompose_worked_example(osp14_ctx):
    ctx = osp14_ctx
    F = ctx.free
    t1, t2 = F.theta(0), F.theta(1)
    x = F.mul(t2, t1)
    dec = string_decompose(ctx, 0, x)
    assert [n for n, _ in dec.parts] == [0, 1]
    kernel_part = F.mul(t2, t1) - F.mul(t1, t2).scale(v_pow(2))
    assert ctx.equal_in_f(dec.part(0), kernel_part)
    assert ctx.equal_in_f(dec.part(1), t2.scale(v_pow(2)))


def test_string_parts_killed_by_e_prime(osp14_ctx, osp14_cr3):
    ctx = osp14_ctx
    for el in osp14_cr3.elements:
        for i in range(ctx.datum.rank):
            dec = string_decompose(ctx, i, el.rep)
            for n, x_n in dec.parts:
                assert ctx.is_zero_in_f(ctx.free.e_prime(i, x_n)), (
                    el.label, i, n)


def test_string_reassembles(osp14_ctx, osp14_cr3):
    ctx = osp14_ctx
    F = ctx.free
    for el in osp14_cr3.elements:
        for i in range(ctx.datum.rank):
            dec = string_decompose(ctx, i, el.rep)
            total = sum(
                (F.mul(F.divided_power(i, n), x_n) for n, x_n in dec.parts),
                start=F.one() - F.one())
            assert ctx.equal_in_f(total, el.rep), (el.label, i)


def test_e_tilde_inverts_f_tilde(osp14_ctx, osp14_cr3):
    ctx = osp14_ctx
    for el in osp14_cr3.elements:
        for i in range(ctx.datum.rank):
            img = f_tilde(ctx, i, el.rep)
            back = e_tilde(ctx, i, img)
            assert ctx.equal_in_f(back, el.rep), (el.label, i)


def test_f_tilde_chain_worked_example(osp14_ctx):
    # f1 f2 f1 . 1 lands on theta1(theta2 theta1 - v^2 theta1 theta2)
    #                + v^2 theta1^(2) theta2
    ctx = osp14_ctx
    F = ctx.free
    t1, t2 = F.theta(0), F.theta(1)
    chain = f_tilde(ctx, 0, f_tilde(ctx, 1, f_tilde(ctx, 0, F.one())))
    inner = F.mul(t2, t1) - F.mul(t1, t2).scale(v_pow(2))
    expected = F.mul(t1, inner) + F.mul(F.divided_power(0, 2), t2).scale(
        v_pow(2))
    assert ctx.equal_in_f(chain, expected)


# --- crystal generation ------------------------------------------------------


def test_height_one_crystal(osp14_ctx):
    cr = Crystal(osp14_ctx, 1)
    assert sorted(el.label for el in cr.elements) == [(), (0,), (1,)]


def test_counts_match_dimensions(osp14_ctx, osp14_cr4):
    assert len(osp14_cr4.elements) == 25
    assert len(osp14_cr4.weights()) == 15
    for nu in osp14_cr4.weights():
        assert len(osp14_cr4.by_weight[nu]) == osp14_ctx.dimension(nu), nu


def test_reps_live_in_lattice(osp14_cr4):
    for el in osp14_cr4.elements:
        for c in el.rep.terms.values():
            assert c.in_lattice(), el.label


def test_lattice_membership_controls(osp14_ctx, osp14_cr4):
    F = osp14_ctx.free
    t1 = F.theta(0)
    # v^-1 theta_1 escapes the lattice
    assert osp14_cr4.lattice_residues(t1.scale(v_pow(-1)), (1, 0)) is None
    assert osp14_cr4.lattice_residues(t1, (1, 0)) is not None
    # theta_1^(2) is a member even though its pivot coordinate v/(1+v^2)
    # is not a Laurent polynomial
    assert osp14_cr4.lattice_residues(
        F.divided_power(0, 2), (2, 0)) is not None


def _process(ctx, nu, xs):
    """Run generation's step at nu on the candidates xs."""
    return Crystal(ctx, 1)._process_weight(nu, [((), x) for x in xs])


def test_dependent_candidates_break_the_class_count(osp14_ctx, osp14_cr3):
    # negative controls: r_a + r_b is a unit at no single class, and r_a
    # alone leaves a rank-2 lattice one class short
    a, b = (el.rep for el in osp14_cr3.by_weight[(1, 1)])
    assert len(_process(osp14_ctx, (1, 1), [a, b])) == 2
    with pytest.raises(ArithmeticError, match="is no sign unit times one "
                       "crystal class"):
        _process(osp14_ctx, (1, 1), [a, b, a + b])
    with pytest.raises(ArithmeticError, match="class count 1 differs from "
                       "dim f_nu 2"):
        _process(osp14_ctx, (1, 1), [a])


def test_certificate_rejects_a_rep_off_the_lattice(osp14_ctx, osp14_cr3):
    # negative controls: v^-1 theta_1^(2) has pivot coordinate
    # 1/(1 + v^2), in A, so only its self-pairing, with a pole, shows it
    # is off L; r_a + v^-1 r_b already has a pole in pivot coordinates
    F = osp14_ctx.free
    assert len(_process(osp14_ctx, (2, 0), [F.divided_power(0, 2)])) == 1
    with pytest.raises(ArithmeticError, match=r"self-pairing at weight "
                       r"\(2, 0\), pi = 1, is not \+-1 mod v"):
        _process(osp14_ctx, (2, 0), [F.divided_power(0, 2).scale(v_pow(-1))])
    a, b = (el.rep for el in osp14_cr3.by_weight[(1, 1)])
    with pytest.raises(ArithmeticError, match="pole at v = 0 in pivot"):
        _process(osp14_ctx, (1, 1), [a + b.scale(v_pow(-1)), b])


def test_certificate_rejects_reps_off_the_diagonal(osp14_ctx, osp14_cr3):
    # negative controls: v r_a lies in vL, so its self-pairing is 0 mod v;
    # (3 r_a + 4 r_b)/5 pairs with r_a and r_b to 3/5 and 4/5 mod v, so
    # neither becomes a class and the count comes out short
    a, b = (el.rep for el in osp14_cr3.by_weight[(1, 1)])
    with pytest.raises(ArithmeticError, match=r"self-pairing at weight "
                       r"\(1, 1\), pi = 1, is not \+-1 mod v"):
        _process(osp14_ctx, (1, 1), [a.scale(v_pow(1)), b])
    c3, c4 = (PiScalar.from_int(k) / PiScalar.from_int(5) for k in (3, 4))
    with pytest.raises(ArithmeticError, match="class count 1 differs"):
        _process(osp14_ctx, (1, 1), [a.scale(c3) + b.scale(c4), a, b])


def test_psi_match_wants_one_residue_at_one_rep(osp14_ctx, monkeypatch):
    cr = Crystal(osp14_ctx, 2)
    one, zero = GaussianRational(1), GaussianRational(0)
    for res, matched in [(((one, zero), (one, zero)), True),
                         (((one, zero), (zero, one)), False),
                         (((one, one), (one, zero)), False)]:
        monkeypatch.setattr(cr, "lattice_residues", lambda x, nu, r=res: r)
        report = cr.verify_psi_lattice()
        (a, b) = (e for e in report["entries"] if e["weight"] == [1, 1])
        assert ("target" in a) is ("target" in b) is matched
        assert report["pass"] is matched


def test_residues_of_the_reps_are_unit_vectors(osp14_cr4):
    one, zero = GaussianRational(1), GaussianRational(0)
    for nu in osp14_cr4.weights():
        reps = osp14_cr4.by_weight[nu]
        for k, el in enumerate(reps):
            unit = tuple(one if j == k else zero for j in range(len(reps)))
            assert osp14_cr4.lattice_residues(el.rep, nu) == (unit, unit)


def _pairing_at_zero(datum, x, y, sign):
    """(x, y) at v = 0 and pi = sign, from pair_words_oracle; asserts
    that it has no pole there."""
    def terms(z):
        return [(w, ratfn_to_sympy(c.specialize(sign)))
                for w, c in z.terms.items()]
    total = sum(a * b * pair_words_oracle(datum, w, u).subs(PI, sign)
                for w, a in terms(x) for u, b in terms(y))
    num, den = sympy.fraction(sympy.cancel(sympy.together(total)))
    assert den.subs(V, 0) != 0
    return num.subs(V, 0) / den.subs(V, 0)


def _sign_rule_holds(cr, flip=1):
    """(r_b, r_b') and (G(b), G(b')) are in A and, at v = 0, 0 for
    b != b' and, for b = b', 1 at pi = +1 and (-1)^(p(nu) + ell(b)) at
    pi = -1; flip=-1 predicts the opposite sign at pi = -1."""
    datum = cr.ctx.datum
    for nu in cr.weights():
        cb = cr.canonical_basis(nu)
        for e in cb:
            want = {1: 1, -1: flip * (-1) ** (stats_p(datum, nu) + e.ell)}
            for f in cb:
                for x, y in ((e.b.rep, f.b.rep), (e.G, f.G)):
                    for sign in (1, -1):
                        got = _pairing_at_zero(datum, x, y, sign)
                        if got != (want[sign] if f is e else 0):
                            return False
    return True


@pytest.mark.parametrize("name, height", [("osp14", 4), ("osp16", 3),
                                          ("affine_b01", 3)])
def test_self_pairing_sign_rule(name, height):
    cr = Crystal(QuotientContext(*catalog_datum(name)), height)
    assert _sign_rule_holds(cr)
    assert not _sign_rule_holds(cr, flip=-1)


@pytest.mark.parametrize("name, height", [("osp14", 5), ("osp16", 4),
                                          ("affine_b01", 4)])
def test_lattice_reports_match_echelon_oracle(name, height):
    cr = Crystal(QuotientContext(*catalog_datum(name)), height)
    psi, rho = echelon_lattice_reports(cr)
    assert cr.verify_psi_lattice() == psi
    assert cr.verify_rho_lattice() == rho


def test_generation_is_deterministic(osp14_ctx):
    a = Crystal(osp14_ctx, 3)
    b = Crystal(osp14_ctx, 3)
    assert [el.label for el in a.elements] == [el.label for el in b.elements]
    assert [el.rep.terms for el in a.elements] == \
        [el.rep.terms for el in b.elements]


@pytest.mark.parametrize("name, height", [("osp14", 5), ("osp16", 4),
                                          ("affine_b01", 4)])
def test_generation_matches_echelon_oracle(name, height):
    ctx = QuotientContext(*catalog_datum(name))
    cr = Crystal(ctx, height)
    classes, up = echelon_crystal(ctx, height)
    assert {nu: [el.label for el in els]
            for nu, els in cr.by_weight.items()} == classes
    assert cr._up == up


def test_reps_are_f_tilde_chains(osp14_ctx):
    # r_b is f_tilde_{i1} ... f_tilde_{ik} 1 for b's label (i1, ..., ik),
    # unscaled; at osp14 h6 this fixes the sign of class 112221 too
    cr = Crystal(osp14_ctx, 6)
    chain = {(): osp14_ctx.free.one()}
    for el in cr.elements:
        if el.label:
            chain[el.label] = f_tilde(osp14_ctx, el.label[0],
                                      chain[el.label[1:]])
        assert osp14_ctx.equal_in_f(el.rep, chain[el.label]), el.label


# --- canonical basis ---------------------------------------------------------


def test_canonical_basis_weight_21(osp14_ctx, osp14_cr4):
    ctx = osp14_ctx
    F = ctx.free
    t1, t2 = F.theta(0), F.theta(1)
    cb = osp14_cr4.canonical_basis((2, 1))
    by_label = {e.b.label: e for e in cb}
    assert set(by_label) == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}
    assert ctx.equal_in_f(by_label[(0, 0, 1)].G,
                          F.mul(F.divided_power(0, 2), t2))
    assert ctx.equal_in_f(by_label[(0, 1, 0)].G, F.mul(F.mul(t1, t2), t1))
    assert ctx.equal_in_f(by_label[(1, 0, 0)].G,
                          F.mul(t2, F.divided_power(0, 2)))
    assert by_label[(0, 0, 1)].ell == 0
    assert by_label[(0, 1, 0)].ell == 3
    assert by_label[(1, 0, 0)].ell == 0


def test_canonical_basis_divided_power(osp14_ctx, osp14_cr4):
    cb = osp14_cr4.canonical_basis((2, 0))
    assert len(cb) == 1
    assert osp14_ctx.equal_in_f(cb[0].G, osp14_ctx.free.divided_power(0, 2))
    assert cb[0].ell == 0
    cb = osp14_cr4.canonical_basis((1, 0))
    assert osp14_ctx.equal_in_f(cb[0].G, osp14_ctx.free.theta(0))
    assert cb[0].ell == 0


def test_canonical_basis_all_weights_height_4(osp14_cr4):
    # the triple invariant (bar-invariance, lattice membership, residue)
    # is asserted inside canonical_basis; this drives it everywhere
    total = 0
    for nu in osp14_cr4.weights():
        total += len(osp14_cr4.canonical_basis(nu))
    assert total == len(osp14_cr4.elements)


def test_canonical_basis_public_invariants(osp14_ctx, osp14_cr4):
    ctx = osp14_ctx
    for e in osp14_cr4.canonical_basis((2, 1)):
        assert ctx.equal_in_f(ctx.free.bar(e.G), e.G)
        diff = osp14_cr4.lattice_residues(e.G - e.b.rep, (2, 1))
        assert diff is not None
        assert not any(g for side in diff for g in side)


def _coords_by_field_elimination(cr, elements_of):
    """The weights at which some element of elements_of(nu), listed in
    the order of the crystal reps, fails to have coordinates over the
    reps that are 1 + vA at its own rep and in vA at the others: per
    sign, linalg.solve on the pivot coordinates."""
    ctx = cr.ctx
    failing = []
    for nu in cr.weights():
        reps = [ctx.reduce_at(el.rep, nu)[1] for el in cr.by_weight[nu]]
        xs = [ctx.reduce_at(x, nu)[1] for x in elements_of(nu)]
        n = len(reps)
        for sign in (1, -1):
            a = [[r[w].specialize(sign) for r in reps] for w in range(n)]
            b = [[x[w].specialize(sign) for x in xs] for w in range(n)]
            coords = solve(a, b)
            if not all((coords[k][t] - int(k == t)).valuation() >= 1
                       for k in range(n) for t in range(n)):
                failing.append(nu)
                break
    return failing


@pytest.mark.parametrize("name, height, monomial_fails", [
    ("osp14", 5, [(2, 3), (3, 1), (3, 2), (4, 1)]),
    ("osp16", 4, [(0, 2, 1), (0, 3, 1), (1, 2, 1), (3, 1, 0)]),
    ("affine_b01", 4, [(2, 1), (2, 2), (3, 1)])])
def test_canonical_coords_by_field_elimination(name, height,
                                                monomial_fails):
    # independent of the form: G(b) = r_b mod vL, read off by a field
    # solve; negative control: the uncorrected adapted monomials
    cr = Crystal(QuotientContext(*catalog_datum(name)), height)
    assert _coords_by_field_elimination(
        cr, lambda nu: [e.G for e in cr.canonical_basis(nu)]) == []
    assert _coords_by_field_elimination(
        cr, lambda nu: [cr._monomial(cr._adapted_word(el.label))
                        for el in cr.by_weight[nu]]) == monomial_fails


@pytest.mark.parametrize("name, height", [("osp14", 5), ("osp16", 5)])
def test_correction_asks_only_for_the_answers_terms(name, height):
    # G(b) = u M_b - sum_j a_j G(b_j) with a unit u: the correction from
    # M_b must finish when only the G(b_j) with a_j != 0 are available,
    # the a_j read off by linalg.solve over the G(b_j).  Correcting the
    # whole pole-and-constant part of each pairing at once asks for a
    # G(b_j) outside that set at osp16 (1, 3, 1)
    ctx = QuotientContext(*catalog_datum(name))
    cr = Crystal(ctx, height)
    for nu in cr.weights():
        cb = cr.canonical_basis(nu)
        n = len(cb)
        gs = [ctx.reduce_at(e.G, nu)[1] for e in cb]
        for t, e in enumerate(cb):
            start = ctx.reduce_element(
                cr._monomial(cr._adapted_word(e.b.label)))
            m = ctx.reduce_at(start, nu)[1]
            needed = set()
            for sign in (1, -1):
                a = [[g[w].specialize(sign) for g in gs] for w in range(n)]
                coords = solve(a, [[m[w].specialize(sign)] for w in range(n)])
                needed |= {j for j in range(n) if j != t and coords[j][0]}
            given = [f.G if j in needed else None for j, f in enumerate(cb)]
            got = cr._correct(t, start, given, nu)
            assert got is not None and ctx.equal_in_f(got, e.G), (nu, t)


def test_adapted_word_regression_weight_32(osp14_ctx):
    # the breadth-first label (1,0,1,0,0) is not string-adapted; the
    # monomial built from it has a pole on its own class and cannot seed
    # the correction, while the adapted word (1,1,0,0,0) works
    cr = Crystal(osp14_ctx, 5)
    assert cr._adapted_word((1, 0, 1, 0, 0)) == (1, 1, 0, 0, 0)
    cb = cr.canonical_basis((3, 2))
    assert [e.b.label for e in cb] == [
        (0, 0, 0, 1, 1), (0, 0, 1, 1, 0), (0, 1, 0, 0, 1),
        (0, 1, 1, 0, 0), (1, 0, 1, 0, 0)]
    assert [e.ell for e in cb] == [0, 2, 0, 2, 0]


def test_rank_one_canonical_basis_is_divided_powers():
    ctx = QuotientContext(*catalog_datum("osp12"))
    cr = Crystal(ctx, 5)
    assert len(cr.elements) == 6
    for n in range(6):
        cb = cr.canonical_basis((n,))
        assert len(cb) == 1
        assert ctx.equal_in_f(cb[0].G, ctx.free.divided_power(0, n))


def test_orthogonal_pair_canonical_basis_is_monomials():
    # a_12 = 0 and even second node: divided powers multiply through
    ctx = QuotientContext(*catalog_datum("osp12_a1"))
    cr = Crystal(ctx, 4)
    F = ctx.free
    for nu in cr.weights():
        cb = cr.canonical_basis(nu)
        assert len(cb) == 1, nu
        want = F.mul(F.divided_power(0, nu[0]), F.divided_power(1, nu[1]))
        assert ctx.equal_in_f(cb[0].G, want), nu


# --- twistor reports ---------------------------------------------------------


def test_psi_lattice_report(osp14_cr4):
    report = osp14_cr4.verify_psi_lattice()
    assert report["pass"] is True
    assert report["height"] == 4
    assert len(report["entries"]) == len(osp14_cr4.elements)
    for entry in report["entries"]:
        assert entry["in_lattice"] is True
    root = next(e for e in report["entries"] if e["weight"] == [0, 0])
    assert root["ell_mod4"] == 0
    assert root["pi_power"] == 0


def test_rho_lattice_report(osp14_cr4):
    report = osp14_cr4.verify_rho_lattice()
    assert report["pass"] is True
    for entry in report["entries"]:
        assert entry["in_lattice"] is True


def test_twist_sends_pi_to_minus_pi():
    # the twistor multiplies pi.1 by t^2: twist(pi) = -pi = t^2 pi
    assert PS_PI.twist() == PS_PI * PiScalar.t_power(2)
    assert PS_ONE.twist() == PS_ONE


def test_twistor_string_exponent(osp14_ctx, osp14_cr3):
    # string parts of the twistor image pick up t^(phi(n.i, nu) - n^2 d_i)
    ctx = osp14_ctx
    datum = ctx.datum
    for el in osp14_cr3.elements:
        if not el.label:
            continue
        nu = el.weight
        for i in range(datum.rank):
            dec = string_decompose(ctx, i, el.rep)
            dec_img = string_decompose(ctx, i, ctx.free.twistor(el.rep))
            d_i = datum.dot[i][i] // 2
            for n, x_n in dec.parts:
                ni = tuple(n if k == i else 0 for k in range(datum.rank))
                e = (ctx.tf.phi(ni, nu) - n * n * d_i) % 4
                want = ctx.free.twistor(x_n).scale(PiScalar.t_power(e))
                assert ctx.equal_in_f(dec_img.part(n), want), (el.label, i, n)


# --- the unit matcher --------------------------------------------------------


def G(re, im=0):
    return GaussianRational(re, im)


def _proportional_unit_oracle(v0, w0):
    """(s_plus, s_minus) in {±1}^2 with v0 = s·w0, else None."""
    out = []
    for a, b in zip(v0, w0):
        s = None
        for x, y in zip(a, b):
            if bool(x) != bool(y):
                return None
            if x:
                r = x / y
                if r != G(1) and r != G(-1):
                    return None
                if s is None:
                    s = r
                elif r != s:
                    return None
        out.append(s if s is not None else G(1))
    return tuple(out)


def _twist_unit_oracle(v0, candidates):
    """(a, b, element) with v0 = t^a pi^b · element.v0, else None."""
    for target in candidates:
        for a in range(4):
            ta = G(0, 1) ** a
            for b in range(2):
                tb = ta * (-1 if b else 1)
                if (tuple(g * ta for g in target.v0[0]) == v0[0]
                        and tuple(g * tb for g in target.v0[1]) == v0[1]):
                    return a, b, target
    return None


def _at(n, k):
    """A rep's own residue pair over n reps: 1 at rep k, 0 elsewhere."""
    side = tuple(G(1 if j == k else 0) for j in range(n))
    return (side, side)


# residue pairs over 3 reps and over 1
_RESIDUES = [_at(3, 0), _at(3, 2), _at(1, 0)]


def _times(unit, w0):
    return tuple(tuple(g * u for g in side) for side, u in zip(w0, unit))


def _check_against_oracles(v0, n):
    """_unit_at on v0 over n reps against match_unit and both old
    searches; returns its match under the twist units."""
    reps = [SimpleNamespace(v0=_at(n, k)) for k in range(n)]
    for units in (_SIGN_UNITS, _TWIST_UNITS):
        want = match_unit(v0, reps, units)
        assert _unit_at(v0, units) == (
            None if want is None else (want[0], reps.index(want[1])))
    got = _unit_at(v0, _SIGN_UNITS)
    want = next(((s, k) for k, el in enumerate(reps)
                 for s in [_proportional_unit_oracle(v0, el.v0)]
                 if s is not None), None)
    if want is None:
        assert got is None
    else:
        assert got[1] == want[1]
        assert tuple(G(s) for s in got[0]) == want[0]
    got = _unit_at(v0, _TWIST_UNITS)
    want = _twist_unit_oracle(v0, reps)
    if want is None:
        assert got is None
    else:
        assert got[0] == want[:2] and reps[got[1]] is want[2]
    return got


@pytest.mark.parametrize("w0", _RESIDUES)
def test_match_unit_agrees_with_both_old_searches(w0):
    n = len(w0[0])
    k = w0[0].index(G(1))
    for s in (1, -1):
        for r in (1, -1):
            v0 = _times((G(s), G(r)), w0)
            assert _unit_at(v0, _SIGN_UNITS) == ((s, r), k)
            _check_against_oracles(v0, n)
    for a in range(4):
        for b in range(2):
            v0 = _times((G(0, 1) ** a, G(0, 1) ** a * (-1) ** b), w0)
            assert _check_against_oracles(v0, n) == ((a, b), k)
    # near misses: t on one component only, a non-unit multiple, two
    # nonzero residues, and an all-zero component
    misses = [_times(unit, w0)
              for unit in [(G(0, 1), G(1)), (G(1), G(0, 1)), (G(2), G(1)),
                           (G(1), G(0))]]
    if n > 1:
        other = _at(n, (k + 1) % n)
        misses.append(tuple(tuple(g + h for g, h in zip(side, more))
                            for side, more in zip(w0, other)))
    for v0 in misses:
        assert _check_against_oracles(v0, n) is None
        assert _unit_at(v0, _SIGN_UNITS) is None


def test_match_unit_tells_t_from_pi():
    w0 = _RESIDUES[0]
    t_w0 = _times((G(0, 1), G(0, 1)), w0)
    pi_w0 = _times((G(1), G(-1)), w0)
    assert _unit_at(t_w0, _TWIST_UNITS) == ((1, 0), 0)
    assert _unit_at(pi_w0, _TWIST_UNITS) == ((0, 1), 0)
    assert _unit_at(_times((G(0, 1), G(0, -1)), w0),
                    _TWIST_UNITS) == ((1, 1), 0)
    assert _unit_at(t_w0, _SIGN_UNITS) is None
    assert _unit_at(pi_w0, _SIGN_UNITS) == ((1, -1), 0)
    # t at pi = +1 with 1 at pi = -1 is no t^a pi^b
    assert _check_against_oracles(_times((G(0, 1), G(1)), w0), 3) is None
