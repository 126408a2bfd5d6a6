"""The half covering quantum group as free algebra modulo the radical of
the bilinear form.

Per weight we hold the Gram matrix of the form on words (integer Laurent
polynomials, one matrix per pi-component), a basis of its kernel (the
radical), and the complementary pivot words.  Equality and
reduction happen per pi-component; the two components must agree on
dimensions and pivot words, which is asserted.

The radical is found by echelonizing the span of padded Serre elements
and certifying completeness with a nonzero complementary Gram minor; if
the certificate fails we fall back to a direct kernel computation.

The class-coordinate table holds, per weight and component, the class of
every word in pivot-word coordinates as integer Laurent polynomials over
one common denominator, reduced fraction-free from the echelon rows.
"""

import hashlib
import json
import os
from math import comb

from . import kernels
from .cartan import stats_N, stats_p, weight_sub
from .freealg import FreeAlgebra, FreeElement, render_word
from .scalars import (
    LaurentPoly,
    PiScalar,
    RationalFn,
    lp_to_ratfn,
    qbinomial,
    ratfn_to_lp,
)

_SIGNS = (1, -1)
_SIGN_KEYS = {1: "plus", -1: "minus"}
_CACHE_FORMAT = 2
_LP_ONE = kernels.lp_const(1)
_LEFT_MASS = "reduction left mass outside the pivot words"


class GramCacheError(Exception):
    """An on-disk Gram cache file is unreadable or fails a check."""


def _canonical_json(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def _payload_hash(payload):
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def _lp_from_json(cell):
    """[offset, [coeffs]] -> kernel tuple; None unless trimmed integers."""
    if not (isinstance(cell, list) and len(cell) == 2
            and type(cell[0]) is int and isinstance(cell[1], list)
            and all(type(c) is int for c in cell[1])):
        return None
    off, coeffs = cell
    if coeffs and (coeffs[0] == 0 or coeffs[-1] == 0):
        return None
    if not coeffs and off != 0:
        return None
    return (off, tuple(coeffs))


class QuotientContext:
    """Caches Gram data per weight for one datum; write-once per key."""

    def __init__(self, datum, root, twist_form, cache_dir=None):
        self.datum = datum
        self.root = root
        self.tf = twist_form
        self.free = FreeAlgebra(datum, twist_form)
        self.cache_dir = cache_dir
        self._pair_memo = {}
        self._words = {}
        self._gram = {}      # nu -> {sign: integer Laurent rows}
        self._serre = {}     # (i, j) -> (weight, {sign: [(word, LP)]})
        self._radical = {}   # nu -> {sign: (rows, pivot_cols)}
        self._pivots = {}    # nu -> pivot word list
        self._coords = {}    # nu -> {sign: (den, {word: coordinates})}
        self._radical_route = {}  # nu -> "serre" | "fallback"
        if cache_dir:
            try:
                os.makedirs(cache_dir, exist_ok=True)
            except OSError as e:
                raise GramCacheError(
                    f"Gram cache directory {cache_dir}: cannot create "
                    f"({e})") from None

    # --- words and Gram matrices --------------------------------------------

    def words(self, nu):
        got = self._words.get(nu)
        if got is None:
            got = self.free.words_of_weight(nu)
            self._words[nu] = got
        return got

    def gram(self, nu):
        """Gram matrix at weight nu as {sign: rows of integer Laurent
        kernel tuples}, one matrix per pi-component."""
        got = self._gram.get(nu)
        if got is not None:
            return got
        got = self._load_gram(nu)
        if got is None:
            words = self.words(nu)
            pair = self.free.pair_words
            memo = self._pair_memo
            cells = [[pair(w1, w2, memo) for w2 in words] for w1 in words]
            got = {sign: [[c[t] for c in row] for row in cells]
                   for t, sign in enumerate(_SIGNS)}
            self._store_gram(nu, got)
        self._gram[nu] = got
        return got

    def gram_component(self, nu, sign):
        """Gram matrix of one component as integer Laurent rows."""
        return self.gram(nu)[sign]

    def _cache_path(self, nu):
        from .cartan import datum_hash
        name = datum_hash(self.datum, self.root, self.tf) + "_" + \
            "-".join(str(c) for c in nu) + ".json"
        return os.path.join(self.cache_dir, name)

    def _load_gram(self, nu):
        """The cached Gram matrix at nu, None if there is no file.

        A file is used only if it passes every check; otherwise
        GramCacheError names the file and the failed check.
        """
        if not self.cache_dir:
            return None
        path = self._cache_path(nu)
        if not os.path.exists(path):
            return None

        def bad(reason):
            return GramCacheError(f"Gram cache file {path}: {reason}")

        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise bad(f"unreadable ({e})") from None
        keys = {"format", "weight", "words", "gram", "sha256"}
        if not isinstance(data, dict) or set(data) != keys:
            raise bad(f"not a format-{_CACHE_FORMAT} cache file")
        if data["format"] != _CACHE_FORMAT:
            raise bad(f"format {data['format']!r}, expected {_CACHE_FORMAT}")
        if data["weight"] != list(nu):
            raise bad("holds the wrong weight")
        words = [render_word(self.datum, w) for w in self.words(nu)]
        if data["words"] != words:
            raise bad("word list does not match the weight's words")
        gram = data["gram"]
        n = len(words)
        if not isinstance(gram, dict) or set(gram) != set(_SIGN_KEYS.values()):
            raise bad("gram must map plus and minus to matrices")
        mat = {}
        for sign in _SIGNS:
            rows = gram[_SIGN_KEYS[sign]]
            if not (isinstance(rows, list) and len(rows) == n and all(
                    isinstance(r, list) and len(r) == n for r in rows)):
                raise bad(f"{_SIGN_KEYS[sign]} matrix is not {n}x{n}")
            cells = [[_lp_from_json(c) for c in r] for r in rows]
            if any(c is None for r in cells for c in r):
                raise bad("a cell is not a trimmed integer Laurent polynomial")
            if any(cells[a][b] != cells[b][a]
                   for a in range(n) for b in range(a)):
                raise bad(f"{_SIGN_KEYS[sign]} matrix is not symmetric")
            mat[sign] = cells
        sha = data.pop("sha256")
        if sha != _payload_hash(data):
            raise bad("content hash does not match")
        return mat

    def _store_gram(self, nu, mat):
        if not self.cache_dir:
            return
        data = {
            "format": _CACHE_FORMAT,
            "weight": list(nu),
            "words": [render_word(self.datum, w) for w in self.words(nu)],
            "gram": {_SIGN_KEYS[sign]: [[[a[0], list(a[1])] for a in row]
                                        for row in mat[sign]]
                     for sign in _SIGNS},
        }
        data["sha256"] = _payload_hash(data)
        path = self._cache_path(nu)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(_canonical_json(data))
            os.replace(tmp, path)
        except OSError as e:
            raise GramCacheError(
                f"Gram cache file {path}: cannot write ({e})") from None

    # --- radical -----------------------------------------------------------------

    def radical(self, nu):
        got = self._radical.get(nu)
        if got is None:
            got = self._compute_radical(nu)
        return got

    def pivots(self, nu):
        self.radical(nu)
        return self._pivots[nu]

    def dimension(self, nu):
        return len(self.pivots(nu))

    def radical_route(self, nu):
        self.radical(nu)
        return self._radical_route[nu]

    def _serre_terms(self, i, j):
        """serre_element(i, j) as (weight, {sign: [(word, LP)]}), with
        integer coefficients per pi-component; built once per context."""
        got = self._serre.get((i, j))
        if got is None:
            s = self.serre_element(i, j)
            got = (s.homogeneous_weight(self.datum.rank),
                   {sign: [(w, ratfn_to_lp(c.plus if sign > 0 else c.minus))
                           for w, c in sorted(s.terms.items())]
                    for sign in _SIGNS})
            self._serre[(i, j)] = got
        return got

    def _serre_span_rows(self, nu):
        """Per-sign integer vectors over words(nu) of the padded Serre
        elements u S_ij w, assembled by word concatenation."""
        words = self.words(nu)
        index = {w: t for t, w in enumerate(words)}
        rows = []
        n = self.datum.rank
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if not isinstance(self.datum.a(i, j), int):
                    continue
                s_wt, terms = self._serre_terms(i, j)
                rest = weight_sub(nu, s_wt)
                if any(c < 0 for c in rest):
                    continue
                for left in self._subweights(rest):
                    right = weight_sub(rest, left)
                    for u in self.words(left):
                        for w in self.words(right):
                            row = {}
                            for sign in _SIGNS:
                                vec = [kernels.LP_ZERO] * len(words)
                                for word, c in terms[sign]:
                                    vec[index[u + word + w]] = c
                                row[sign] = vec
                            rows.append(row)
        return rows

    @staticmethod
    def _subweights(nu):
        out = [()]
        for c in nu:
            out = [w + (k,) for w in out for k in range(c + 1)]
        return out

    def _compute_radical(self, nu):
        words = self.words(nu)
        ncols = len(words)
        serre_rows = self._serre_span_rows(nu)
        result = {}
        route = "serre"
        for sign in _SIGNS:
            rows = [r[sign] for r in serre_rows]
            ech, piv = kernels.echelon(rows, ncols)
            gm = self.gram_component(nu, sign)
            if self._certify(gm, ech, piv, ncols):
                result[sign] = (ech, piv)
            else:
                route = "fallback"
                result[sign] = self._kernel_direct(gm, ncols)
        lead_sets = {tuple(result[s][1]) for s in _SIGNS}
        if len(lead_sets) != 1:
            raise ArithmeticError(
                f"radical pivot words differ between pi-components at {nu}")
        lead = set(result[1][1])
        self._pivots[nu] = [w for t, w in enumerate(words) if t not in lead]
        self._radical_route[nu] = route
        self._radical[nu] = result
        return result

    def _certify(self, gram_rows, ech, piv, ncols):
        """The echelonized Serre span is the whole radical iff every row is
        in the kernel and the complementary Gram minor is nonsingular."""
        for row in ech:
            for i in range(ncols):
                acc = kernels.LP_ZERO
                for j in range(ncols):
                    acc = kernels.lp_add(
                        acc, kernels.lp_mul(gram_rows[i][j], row[j]))
                if not kernels.lp_is_zero(acc):
                    return False
        keep = [c for c in range(ncols) if c not in set(piv)]
        minor = [[gram_rows[i][j] for j in keep] for i in keep]
        return not kernels.lp_is_zero(kernels.det_bareiss(minor))

    @staticmethod
    def _kernel_direct(gram_rows, ncols):
        """Kernel basis by echelonizing [G^T | I] (G symmetric here)."""
        aug = []
        for i in range(ncols):
            row = list(gram_rows[i]) + [
                kernels.lp_const(1) if j == i else kernels.LP_ZERO
                for j in range(ncols)]
            aug.append(row)
        ech, piv = kernels.echelon(aug, 2 * ncols)
        kern_rows = [r[ncols:] for r, c in zip(ech, piv) if c >= ncols]
        return kernels.echelon(kern_rows, ncols)

    # --- reduction and equality ---------------------------------------------------

    def _component_vector(self, part, nu, sign):
        words = self.words(nu)
        index = {w: t for t, w in enumerate(words)}
        zero = RationalFn(LaurentPoly())
        vec = [zero] * len(words)
        for w, c in part.terms.items():
            vec[index[w]] = c.plus if sign > 0 else c.minus
        return vec

    def reduce(self, x):
        """Coordinates of x's class on the pivot words, as PiScalar.

        x must be homogeneous; returns (pivot_words, coords).
        """
        nu = x.homogeneous_weight(self.datum.rank) if x.terms else None
        if nu is None:
            raise ValueError("cannot infer the weight of the zero element; "
                             "use reduce_at")
        return self.reduce_at(x, nu)

    def reduce_at(self, x, nu):
        rad = self.radical(nu)
        words = self.words(nu)
        pivot_words = self._pivots[nu]
        pivot_pos = {w: t for t, w in enumerate(pivot_words)}
        comps = {}
        for sign in _SIGNS:
            vec = self._component_vector(x, nu, sign)
            rows, piv = rad[sign]
            for row, lead in zip(rows, piv):
                f = vec[lead]
                if f:
                    ratio = f / lp_to_ratfn(row[lead])
                    for j in range(len(words)):
                        if row[j][1]:
                            vec[j] = vec[j] - ratio * lp_to_ratfn(row[j])
            coords = [None] * len(pivot_words)
            for t, w in enumerate(words):
                if w in pivot_pos:
                    coords[pivot_pos[w]] = vec[t]
                elif vec[t]:
                    raise ArithmeticError(_LEFT_MASS)
            comps[sign] = coords
        coords = [PiScalar(p, m) for p, m in zip(comps[1], comps[-1])]
        return pivot_words, coords

    def class_coords(self, nu):
        """The class of every word of weight nu on the pivot words.

        Returns {sign: (den, table)}: table maps each word to a tuple of
        integer Laurent kernel tuples, one per pivot word, and the class
        coordinates are those entries divided by den.  den is 1 when
        every coordinate is a Laurent polynomial, as on the catalog data
        up to the heights the tests reach.  Built once per weight.
        """
        got = self._coords.get(nu)
        if got is None:
            got = {sign: self._coord_table(nu, sign) for sign in _SIGNS}
            self._coords[nu] = got
        return got

    def _coord_table(self, nu, sign):
        """Fraction-free reduction of every word against the echelon rows:
        the cross-multiplication of kernels.vec_reduce, with the product
        of the leads used divided out exactly at the end."""
        rows, piv = self.radical(nu)[sign]
        words = self.words(nu)
        lead_row = {col: k for k, col in enumerate(piv)}
        keep = [t for t in range(len(words)) if t not in lead_row]
        table = {}
        pending = {}     # word -> (vec, scale) with a genuine denominator
        for t, w in enumerate(words):
            k = lead_row.get(t)
            if k is None:
                table[w] = tuple(_LP_ONE if c == t else kernels.LP_ZERO
                                 for c in keep)
                continue
            # rows above k lead in columns left of t, where vec is zero
            vec = [kernels.LP_ZERO] * len(words)
            vec[t] = _LP_ONE
            scale = _LP_ONE
            for row, col in zip(rows[k:], piv[k:]):
                f = vec[col]
                if f[1]:
                    lead = row[col]
                    vec = [kernels.lp_sub(kernels.lp_mul(lead, a),
                                          kernels.lp_mul(f, b))
                           for a, b in zip(vec, row)]
                    scale = kernels.lp_mul(scale, lead)
            if any(vec[col][1] for col in piv):
                raise ArithmeticError(_LEFT_MASS)
            try:
                table[w] = tuple(kernels.lp_divexact(vec[c], scale)
                                 for c in keep)
            except ValueError:
                pending[w] = (vec, scale)
        den = _LP_ONE
        if pending:
            # each scale is a product of leads of distinct rows, so it
            # divides the product of all leads
            for row, col in zip(rows, piv):
                den = kernels.lp_mul(den, row[col])
            for w, coords in table.items():
                table[w] = tuple(kernels.lp_mul(c, den) for c in coords)
            for w, (vec, scale) in pending.items():
                table[w] = tuple(
                    kernels.lp_divexact(kernels.lp_mul(vec[c], den), scale)
                    for c in keep)
        return den, table

    def reduce_element(self, x):
        """The canonical pivot-word representative of x's class."""
        if x.is_zero():
            return FreeElement()
        out = FreeElement()
        for nu, part in x.graded(self.datum.rank).items():
            pivot_words, coords = self.reduce_at(part, nu)
            for w, c in zip(pivot_words, coords):
                if not c.is_zero():
                    out = out + FreeElement({w: c})
        return out

    def is_zero_in_f(self, x):
        if x.is_zero():
            return True
        for nu, part in x.graded(self.datum.rank).items():
            _, coords = self.reduce_at(part, nu)
            if any(not c.is_zero() for c in coords):
                return False
        return True

    def equal_in_f(self, x, y):
        return self.is_zero_in_f(x - y)

    # --- Serre elements and verifications -------------------------------------------

    def serre_element(self, i, j):
        """Sum_k (-1)^k pi^{C(k,2)p(i)+k p(i)p(j)} [b,k]_{v_i}
        theta_i^{b-k} theta_j theta_i^k with b = 1 - a_ij."""
        if i == j:
            raise ValueError("Serre elements need two distinct indices")
        datum = self.datum
        b = 1 - datum.a(i, j)
        di = datum.d(i)
        out = FreeElement()
        for k in range(b + 1):
            word = (i,) * (b - k) + (j,) + (i,) * k
            pi_exp = comb(k, 2) * datum.p(i) + k * datum.p(i) * datum.p(j)
            coeff = qbinomial(b, k, di) * PiScalar.pi_power(pi_exp)
            if k % 2:
                coeff = -coeff
            out = out + FreeElement({word: coeff})
        return out

    def serre_element_twisted(self, i, j, mutate=False):
        """The *-product Serre combination with twisted coefficients,
        expanded into plain products.  With mutate=True one term's
        t-exponent is deliberately off by one (negative control)."""
        if i == j:
            raise ValueError("Serre elements need two distinct indices")
        datum = self.datum
        F = self.free
        b = 1 - datum.a(i, j)
        di = datum.d(i)
        out = FreeElement()
        for k in range(b + 1):
            left = F.one()
            for _ in range(b - k):
                left = F.star_mul(left, F.theta(i))
            mid = F.star_mul(left, F.theta(j))
            term = mid
            for _ in range(k):
                term = F.star_mul(term, F.theta(i))
            pi_exp = comb(k, 2) * datum.p(i) + k * datum.p(i) * datum.p(j)
            coeff = qbinomial(b, k, di).twist() * \
                (-PiScalar.pi_power(1)) ** pi_exp
            if k % 2:
                coeff = -coeff
            if mutate and k == min(1, b):
                coeff = coeff * PiScalar.t_power(1)
            out = out + term.scale(coeff)
        return out

    def verify_twistor_serre(self, i, j, mutate=False):
        """The twisted Serre combination must vanish in f."""
        return self.is_zero_in_f(self.serre_element_twisted(i, j, mutate))

    def verify_rho_psi(self, x):
        """twistor(rho(twistor_inv(x))) = (-1)^{N(nu)/2 + p(nu)} rho(x) in f."""
        F = self.free
        nu = x.homogeneous_weight(self.datum.rank)
        n_half = stats_N(self.datum, nu) // 2
        sign_exp = n_half + stats_p(self.datum, nu)
        lhs = F.twistor(F.rho(F.twistor_inv(x)))
        rhs = F.rho(x)
        if sign_exp % 2:
            rhs = -rhs
        return self.equal_in_f(lhs, rhs)
