"""The half covering quantum group as free algebra modulo the radical of
the bilinear form.

Per weight we compute on first use, and hold in memory, the Gram matrix
of the form on words (LaurentPoly entries with int coefficients, one
matrix per pi-component, which kernels eliminates on as they are), a
basis of its kernel (the radical), and the complementary pivot words.
Equality and reduction happen per pi-component; the two components must
agree on dimensions and pivot words, which is asserted.

The radical is found by echelonizing the span of padded Serre elements
and certifying completeness: every echelon row times the Gram matrix is
zero, and the complementary Gram minor is nonsingular.  Both tests are
exact in int arithmetic (a Kronecker-packed product, and the minor's
determinant at v = 2 with the symbolic determinant only when that value
is 0).  If the certificate fails we fall back to a direct kernel
computation.

The class-coordinate table holds, per weight and component, the class of
every word in pivot-word coordinates as integer Laurent polynomials over
one common denominator, reduced fraction-free from the echelon rows.  It
is the only reduction onto the pivot words, and reduce_at, which reads an
element's class off it, is its only reader.  The truncated modules are
built on free words and read none of this.
"""

from . import kernels
from .cartan import stats_N, stats_p, weight_sub
from .freealg import FreeAlgebra, FreeElement, serre_coefficient
from .scalars import (
    LP_ONE,
    LP_ZERO,
    RF_ZERO,
    PiScalar,
    RationalFn,
    SIGNS,
    int_laurent,
)


class QuotientContext:
    """Caches Gram data per weight for one datum; write-once per key."""

    def __init__(self, datum, root, twist_form):
        self.datum = datum
        self.root = root
        self.tf = twist_form
        self.free = FreeAlgebra(datum, twist_form)
        self._pair_memo = {}
        self._gram = {}      # nu -> {sign: integer Laurent rows}
        self._serre = {}     # (i, j) -> (weight, {sign: [(word, LP)]})
        self._radical = {}   # nu -> {sign: (rows, pivot_cols)}
        self._pivots = {}    # nu -> pivot word list
        self._coords = {}    # nu -> {sign: (den, {word: coordinates})}
        self._radical_route = {}  # nu -> "serre" | "fallback"

    # --- Gram matrices -------------------------------------------------------

    def gram(self, nu):
        """Gram matrix at weight nu as {sign: rows of integer Laurent
        polynomials}, one matrix per pi-component."""
        got = self._gram.get(nu)
        if got is not None:
            return got
        words = self.free.words_of_weight(nu)
        pair = self.free.pair_words
        memo = self._pair_memo
        cells = [[pair(w1, w2, memo) for w2 in words] for w1 in words]
        got = {sign: [[c[t] for c in row] for row in cells]
               for t, sign in enumerate(SIGNS)}
        self._gram[nu] = got
        return got

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
                   {sign: [(w, int_laurent(c.specialize(sign)))
                           for w, c in sorted(s.terms.items())]
                    for sign in SIGNS})
            self._serre[(i, j)] = got
        return got

    def _serre_span_rows(self, nu):
        """Per-sign integer vectors over words(nu) of the padded Serre
        elements u S_ij w, assembled by word concatenation."""
        words = self.free.words_of_weight(nu)
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
                    for u in self.free.words_of_weight(left):
                        for w in self.free.words_of_weight(right):
                            row = {}
                            for sign in SIGNS:
                                vec = [LP_ZERO] * len(words)
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
        words = self.free.words_of_weight(nu)
        ncols = len(words)
        serre_rows = self._serre_span_rows(nu)
        gram = self.gram(nu)
        result = {}
        route = "serre"
        for sign in SIGNS:
            rows = [r[sign] for r in serre_rows]
            ech, piv = kernels.echelon(rows, ncols)
            gm = gram[sign]
            if self._certify(gm, ech, piv, ncols):
                result[sign] = (ech, piv)
            else:
                route = "fallback"
                result[sign] = self._kernel_direct(gm, ncols)
        lead_sets = {tuple(result[s][1]) for s in SIGNS}
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
        in the kernel and the complementary Gram minor is nonsingular.
        Both are decided exactly: the kernel test by a packed product
        (kernels.lp_product_is_zero), the minor by its value at v = 2 with
        a symbolic fallback (kernels.lp_det_nonzero)."""
        # entry (r, i) of ech . G^T pairs echelon row r with Gram row i
        if not kernels.lp_product_is_zero(ech, list(zip(*gram_rows))):
            return False
        lead = set(piv)
        keep = [c for c in range(ncols) if c not in lead]
        minor = [[gram_rows[i][j] for j in keep] for i in keep]
        return kernels.lp_det_nonzero(minor)

    @staticmethod
    def _kernel_direct(gram_rows, ncols):
        """Kernel basis by echelonizing [G^T | I] (G symmetric here)."""
        aug = []
        for i in range(ncols):
            row = list(gram_rows[i]) + [
                LP_ONE if j == i else LP_ZERO for j in range(ncols)]
            aug.append(row)
        ech, piv = kernels.echelon(aug, 2 * ncols)
        kern_rows = [r[ncols:] for r, c in zip(ech, piv) if c >= ncols]
        return kernels.echelon(kern_rows, ncols)

    # --- reduction and equality ---------------------------------------------------

    def reduce_at(self, x, nu):
        """x's class on the pivot words: per sign, the sum over x's words
        w of c_w times w's class-coordinate row, divided by the table's
        den.  An entry 1, as on a pivot word's own row, adds c_w as is."""
        pivot_words = self.pivots(nu)
        table = self.class_coords(nu)
        comps = {}
        for sign in SIGNS:
            den, rows = table[sign]
            coords = [RF_ZERO] * len(pivot_words)
            for w, c in x.terms.items():
                c = c.specialize(sign)
                if not c:
                    continue
                for t, a in enumerate(rows[w]):
                    if a:
                        c_a = c if a == LP_ONE else c * RationalFn(a)
                        coords[t] = coords[t] + c_a if coords[t] else c_a
            if den != LP_ONE:
                den = RationalFn(den)
                coords = [a / den for a in coords]
            comps[sign] = coords
        coords = [PiScalar(p, m) for p, m in zip(comps[1], comps[-1])]
        return pivot_words, coords

    def class_coords(self, nu):
        """The class of every word of weight nu on the pivot words.

        Returns {sign: (den, table)}: table maps each word to a tuple of
        integer Laurent polynomials, one per pivot word, and the class
        coordinates are those entries divided by den.  den is 1 when
        every coordinate is a Laurent polynomial, as on the catalog data
        up to the heights the tests reach.  Built once per weight.
        """
        got = self._coords.get(nu)
        if got is None:
            got = {sign: self._coord_table(nu, sign) for sign in SIGNS}
            self._coords[nu] = got
        return got

    def _coord_table(self, nu, sign):
        """Fraction-free reduction of every word against the echelon rows
        by kernels.vec_reduce, with the product of the leads used divided
        out exactly at the end."""
        rows, piv = self.radical(nu)[sign]
        words = self.free.words_of_weight(nu)
        lead_row = {col: k for k, col in enumerate(piv)}
        keep = [t for t in range(len(words)) if t not in lead_row]
        table = {}
        pending = {}     # word -> (vec, scale) with a genuine denominator
        for t, w in enumerate(words):
            k = lead_row.get(t)
            if k is None:
                table[w] = tuple(LP_ONE if c == t else LP_ZERO for c in keep)
                continue
            # rows above k lead in columns left of t, where vec is zero
            vec = [LP_ZERO] * len(words)
            vec[t] = LP_ONE
            vec, scale = kernels.vec_reduce(rows[k:], piv[k:], vec)
            if any(vec[col] for col in piv):
                raise ArithmeticError(
                    "reduction left mass outside the pivot words")
            try:
                table[w] = tuple(kernels.lp_divexact(vec[c], scale)
                                 for c in keep)
            except ValueError:
                pending[w] = (vec, scale)
        den = LP_ONE
        if pending:
            # each scale is a product of leads of distinct rows, so it
            # divides the product of all leads
            for row, col in zip(rows, piv):
                den = den * row[col]
            for w, coords in table.items():
                table[w] = tuple(c * den for c in coords)
            for w, (vec, scale) in pending.items():
                table[w] = tuple(kernels.lp_divexact(vec[c] * den, scale)
                                 for c in keep)
        return den, table

    def reduce_element(self, x):
        """The canonical pivot-word representative of x's class."""
        terms = []
        for nu, part in x.graded(self.datum.rank).items():
            pivot_words, coords = self.reduce_at(part, nu)
            terms += zip(pivot_words, coords)
        return FreeElement(terms)

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
        """Sum_k serre_coefficient(i, j, k) theta_i^{b-k} theta_j theta_i^k
        with b = 1 - a_ij."""
        if i == j:
            raise ValueError("Serre elements need two distinct indices")
        b = 1 - self.datum.a(i, j)
        return FreeElement(((i,) * (b - k) + (j,) + (i,) * k,
                            serre_coefficient(self.datum, i, j, k))
                           for k in range(b + 1))

    def serre_element_twisted(self, i, j, mutate=False):
        """The *-product Serre combination with twisted coefficients,
        expanded into plain products.  With mutate=True one term's
        t-exponent is deliberately off by one (negative control)."""
        if i == j:
            raise ValueError("Serre elements need two distinct indices")
        F = self.free
        b = 1 - self.datum.a(i, j)
        out = FreeElement()
        for k in range(b + 1):
            left = F.one()
            for _ in range(b - k):
                left = F.star_mul(left, F.theta(i))
            mid = F.star_mul(left, F.theta(j))
            term = mid
            for _ in range(k):
                term = F.star_mul(term, F.theta(i))
            coeff = serre_coefficient(self.datum, i, j, k).twist()
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
