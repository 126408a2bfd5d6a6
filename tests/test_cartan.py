"""Cartan data, root data, phi/phi_dot, transversal, and weight stats."""

import itertools
import random

import pytest
import sympy

from covquant.cartan import (
    RootDatum,
    SuperCartanDatum,
    TransversalError,
    TwistForm,
    datum_from_dict,
    datum_hash,
    height,
    normalized_datum_dict,
    stats_N,
    stats_p,
    unit_weight,
    weight_add,
    weight_sequence,
)
from covquant.catalog import CATALOG, all_catalog_names, catalog_datum
from covquant.kernels import int_det


@pytest.fixture(scope="module")
def osp14():
    return catalog_datum("osp14")


def test_catalog_all_valid():
    for name in all_catalog_names():
        datum, root, _ = catalog_datum(name)
        assert datum.validate() == [], name
        assert root.validate(datum) == [], name


def test_perturbed_catalog_rejected():
    base = CATALOG["osp14"]
    # (d): make the odd root long without changing parity
    bad = SuperCartanDatum(base["indices"], [[4, -2], [-2, 4]], base["parity"])
    assert any(f["condition"] == "d" for f in bad.validate())
    # (b): positive off-diagonal entry
    bad = SuperCartanDatum(base["indices"], [[2, 2], [2, 4]], base["parity"])
    assert any(f["condition"] == "b" for f in bad.validate())
    # evenness: odd dot entry (also breaks (b)/(c) integrality)
    bad = SuperCartanDatum(base["indices"], [[2, -1], [-1, 4]], base["parity"])
    assert any(f["condition"] == "evenness" for f in bad.validate())
    # symmetry
    bad = SuperCartanDatum(base["indices"], [[2, -2], [-4, 4]], base["parity"])
    assert any(f["condition"] == "symmetry" for f in bad.validate())
    # (c): odd index whose row has an odd Cartan integer (a_12 = -1)
    bad = SuperCartanDatum(["1", "2"], [[4, -2], [-2, 2]], [1, 0])
    assert any(f["condition"] == "c" for f in bad.validate())
    # (a): odd diagonal
    bad = SuperCartanDatum(["1"], [[3]], [1])
    assert any(f["condition"] == "a" for f in bad.validate())


def test_parity_mismatch_simple():
    # d_1 = 1 with p(1) = 0 violates bar-consistency
    bad = SuperCartanDatum(["1"], [[2]], [0])
    findings = bad.validate()
    assert [f["condition"] for f in findings] == ["d"]


def test_excluded_family_gets_specific_message():
    # path with two short end roots of opposite parity
    bad = SuperCartanDatum(["0", "1"], [[2, -2], [-2, 2]], [0, 1])
    findings = [f for f in bad.validate() if f["condition"] == "d"]
    assert findings
    assert any("A^(4)(0,2n)" in f["message"] for f in findings)
    # rank 3 version: short-long-short
    bad3 = SuperCartanDatum(
        ["0", "1", "2"], [[2, -2, 0], [-2, 4, -2], [0, -2, 2]], [0, 0, 1])
    findings = [f for f in bad3.validate() if f["condition"] == "d"]
    assert findings
    assert any("A^(4)(0,2n)" in f["message"] for f in findings)
    # a generic (d) failure should NOT carry the family message
    plain = SuperCartanDatum(["1"], [[2]], [0])
    msgs = [f["message"] for f in plain.validate()]
    assert not any("A^(4)" in m for m in msgs)


def test_degenerate_all_even_accepted_but_flagged():
    datum = SuperCartanDatum(["1", "2"], [[4, -2], [-2, 4]], [0, 0])
    assert datum.validate() == []
    assert datum.is_degenerate()
    datum2, _, _ = catalog_datum("osp14")
    assert not datum2.is_degenerate()


def test_phi_generator_table_osp14(osp14):
    _, _, tf = osp14
    e = [unit_weight(2, k) for k in range(2)]
    assert tf.phi(e[0], e[0]) == 1
    assert tf.phi(e[0], e[1]) == 0
    assert tf.phi(e[1], e[0]) == -2
    assert tf.phi(e[1], e[1]) == 2
    both = weight_add(e[0], e[1])
    assert tf.phi(both, both) == 1


def test_phi_bilinear(osp14):
    _, _, tf = osp14
    rng = random.Random(7)
    for _ in range(40):
        a = tuple(rng.randrange(-3, 4) for _ in range(2))
        b = tuple(rng.randrange(-3, 4) for _ in range(2))
        c = tuple(rng.randrange(-3, 4) for _ in range(2))
        assert tf.phi(weight_add(a, b), c) == tf.phi(a, c) + tf.phi(b, c)
        assert tf.phi(a, weight_add(b, c)) == tf.phi(a, b) + tf.phi(a, c)


def test_phi_skew_congruence_mod4():
    # phi(nu,mu) - phi(mu,nu) = nu.mu + 2 p(nu)p(mu) mod 4
    rng = random.Random(13)
    for name in all_catalog_names():
        datum, _, tf = catalog_datum(name)
        n = datum.rank
        for _ in range(60):
            nu = tuple(rng.randrange(0, 4) for _ in range(n))
            mu = tuple(rng.randrange(0, 4) for _ in range(n))
            dot = sum(nu[k] * mu[l] * datum.dot[k][l]
                      for k in range(n) for l in range(n))
            pnu = sum(nu[k] * datum.parity[k] for k in range(n))
            pmu = sum(mu[k] * datum.parity[k] for k in range(n))
            lhs = tf.phi(nu, mu) - tf.phi(mu, nu)
            assert (lhs - dot - 2 * pnu * pmu) % 4 == 0, (name, nu, mu)


def test_stats_osp14(osp14):
    datum, _, _ = osp14
    seq = [0, 1, 0]  # the word 1 2 1
    assert stats_N(datum, seq) == -2
    assert stats_p(datum, seq) == 1
    assert stats_N(datum, [0]) == 0
    assert stats_p(datum, [1]) == 0
    # weight form agrees with any ordering of the same multiset
    assert stats_N(datum, (2, 1)) == -2
    assert stats_p(datum, (2, 1)) == 1
    assert stats_N(datum, [1, 0, 0]) == -2


def test_stats_always_even():
    rng = random.Random(29)
    for name in all_catalog_names():
        datum, _, _ = catalog_datum(name)
        for _ in range(30):
            seq = [rng.randrange(datum.rank) for _ in range(rng.randrange(6))]
            assert stats_N(datum, seq) % 2 == 0


def test_height_and_sequences():
    assert height((2, 1)) == 3
    assert height((0, 0)) == 0
    assert weight_sequence((2, 1)) == [0, 0, 1]


def test_root_datum_pairing_matches_cartan():
    for name in all_catalog_names():
        datum, root, _ = catalog_datum(name)
        A = datum.cartan_matrix()
        for i in range(datum.rank):
            for j in range(datum.rank):
                assert root.pair_index(i, root.embX[j]) == A[i][j]


def test_affine_root_datum_gets_degree_coordinate():
    datum, root, _ = catalog_datum("affine_b01")
    assert root.rankX == datum.rank + 1
    # simple root images stay independent thanks to the extra coordinate
    assert root.validate(datum) == []
    finite, finite_root, _ = catalog_datum("osp14")
    assert finite_root.rankX == finite.rank


def test_decompose_roundtrip_and_canonical():
    rng = random.Random(55)
    for name in all_catalog_names():
        datum, root, tf = catalog_datum(name)
        M = sympy.Matrix([[root.embX[j][i] for j in range(datum.rank)]
                          for i in range(root.rankX)])
        for _ in range(40):
            lam = tuple(rng.randrange(-6, 7) for _ in range(root.rankX))
            mu, c = tf.decompose(lam)
            back = sympy.Matrix(list(c)) + M * sympy.Matrix(list(mu))
            assert tuple(back) == lam, (name, lam)
            # shifting by any root-lattice vector keeps the representative
            kappa = tuple(rng.randrange(-2, 3) for _ in range(datum.rank))
            shifted = tuple(
                lam[t] + sum(root.embX[k][t] * kappa[k]
                             for k in range(datum.rank))
                for t in range(root.rankX))
            mu2, c2 = tf.decompose(shifted)
            assert c2 == c, (name, lam, kappa)
            assert tuple(a - b for a, b in zip(mu2, mu)) == kappa


def test_phi_dot_properties(osp14):
    datum, root, tf = osp14
    e = [unit_weight(2, k) for k in range(2)]
    # on the image of Z[I] it restricts to phi
    for k in range(2):
        for nu in (e[0], e[1], weight_add(e[0], e[1])):
            assert tf.phi_dot(nu, root.weight_in_X(unit_weight(2, k))) == \
                tf.phi(nu, unit_weight(2, k))
    lam_sum = root.weight_in_X(weight_add(e[0], e[1]))
    assert tf.phi_dot(e[0], lam_sum) == 1
    # Z[I]-equivariance in the second slot
    rng = random.Random(3)
    for _ in range(30):
        lam = tuple(rng.randrange(-5, 6) for _ in range(2))
        kappa = tuple(rng.randrange(0, 3) for _ in range(2))
        shifted = tuple(
            lam[t] + sum(root.embX[k][t] * kappa[k] for k in range(2))
            for t in range(2))
        nu = tuple(rng.randrange(0, 3) for _ in range(2))
        assert tf.phi_dot(nu, shifted) == tf.phi_dot(nu, lam) + tf.phi(nu, kappa)


def test_user_transversal():
    data = dict(CATALOG["osp14"])
    # X/Z[I] has order det [[2,-1],[-2,2]] = 2; reps (0,0) and (1,0)
    data["transversal"] = [[0, 0], [1, 0]]
    datum, root, tf = datum_from_dict(data)
    for lam in [(0, 0), (1, 0), (3, -2), (-1, 5)]:
        mu, c = tf.decompose(lam)
        assert list(c) in data["transversal"]
        back = [c[t] + sum(root.embX[k][t] * mu[k] for k in range(2))
                for t in range(2)]
        assert tuple(back) == lam
    # inconsistent transversal: two reps in the same coset, none in the other
    data["transversal"] = [[0, 0], [2, 0]]
    with pytest.raises(ValueError):
        datum_from_dict(data)
    # X/Z[I] is infinite for the affine datum: a short list passes the
    # construction checks, and decompose fails on a weight it misses
    data = dict(CATALOG["affine_b01"])
    data["transversal"] = [[0, 0, 0]]
    _, _, tf_short = datum_from_dict(data)
    assert tf_short.decompose((2, -4, 1)) == ((1, 0), (0, 0, 0))
    with pytest.raises(TransversalError):
        tf_short.decompose((1, 0, 0))


def test_transversal_serialization_deterministic(osp14):
    _, _, tf = osp14
    td = tf.transversal_dict()
    assert td["hnf"] == [[2, 0], [0, 1]]
    assert td["representatives"] == [[0, 0], [1, 0]]


def test_datum_hash_stable_and_sensitive():
    d1 = catalog_datum("osp14")
    d2 = catalog_datum("osp14")
    assert datum_hash(*d1) == datum_hash(*d2)
    other = catalog_datum("osp16")
    assert datum_hash(*d1) != datum_hash(*other)
    blob = normalized_datum_dict(*d1)
    assert blob["datum"]["indices"] == ["1", "2"]
    assert blob["degenerate_all_even"] is False


def test_datum_from_dict_roundtrip():
    datum, root, tf = datum_from_dict(CATALOG["osp14"])
    assert datum.validate() == []
    assert datum == catalog_datum("osp14")[0]


def test_int_det_matches_sympy():
    rng = random.Random(19)
    for _ in range(400):
        n = rng.randrange(5)
        m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.3:
            # a repeated row or a row combination: singular
            a, b = rng.sample(range(n), 2)
            f = rng.randrange(-2, 3)
            m[a] = [f * c for c in m[b]]
        assert int_det(m) == sympy.Matrix(n, n, sum(m, [])).det()
    for name in all_catalog_names():
        A = catalog_datum(name)[0].cartan_matrix()
        assert int_det(A) == sympy.Matrix(A).det()


def _solve_by_hnf_loop(tf, vec):
    """The root-lattice solve as its own HNF loop, with an exactness test
    at every pivot: the oracle for TwistForm._solve_in_root_lattice."""
    vec = list(vec)
    q = [0] * tf.datum.rank
    for row, col in tf._pivots:
        h = tf._H[row][col]
        if vec[row] % h != 0:
            return None
        f = vec[row] // h
        q[col] = f
        for i in range(tf.root.rankX):
            vec[i] -= f * tf._H[i][col]
    if any(vec):
        return None
    return tf._mu_from_q(q)


@pytest.mark.parametrize("name", ["osp14", "affine_b01"])
def test_solve_in_root_lattice_matches_brute_force(name):
    # affine_b01 has an infinite X/Z[I]: most vectors are off the lattice
    datum, root, tf = catalog_datum(name)
    preimages = {}
    for mu in itertools.product(range(-12, 13), repeat=datum.rank):
        preimages.setdefault(root.weight_in_X(mu), []).append(mu)
    hits = 0
    for vec in itertools.product(range(-4, 5), repeat=root.rankX):
        got = tf._solve_in_root_lattice(vec)
        # Z[I] embeds injectively, so a lattice vector has one preimage
        want = preimages.get(vec, [None])
        assert len(want) == 1 and got == want[0], (name, vec)
        assert got == _solve_by_hnf_loop(tf, vec), (name, vec)
        hits += got is not None
    assert 0 < hits < 9 ** root.rankX
