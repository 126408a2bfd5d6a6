"""Weight-graded free algebra on the generators theta_i over the pi-ring.

Words are tuples of index positions (file order of the datum's index
list).  Elements map words to PiScalar coefficients; zero coefficients
are never stored.  All operations are pure; the pairing accepts an
external memo dict so a quotient context can own the cache, and works
per pi-component on integer Laurent polynomials (LaurentPoly values with
int coefficients, which kernels eliminates on as they are).
FreeAlgebra memoizes divided powers, single-word derivations and the word
lists of each weight, so the elements, dicts and lists they return are
shared: nothing may mutate them.
"""

from math import comb

from .cartan import weight_add
from .scalars import (
    LP_ONE,
    LP_ZERO,
    PS_ONE,
    PS_ZERO,
    PiScalar,
    RationalFn,
    qbinomial,
    qfactorial,
)

_PAIR_ZERO = (LP_ZERO, LP_ZERO)
_PAIR_ONE = (LP_ONE, LP_ONE)


class FreeElement:
    """Finite linear combination of words with PiScalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """terms: a dict or an iterable of (word, coefficient) pairs.
        Coefficients of a repeated word are summed and zeros dropped, so
        every operation builds its result through here."""
        clean = {}
        if terms:
            for w, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    acc = clean.get(w)
                    c = c if acc is None else acc + c
                    if c:
                        clean[w] = c
                    else:
                        clean.pop(w, None)
        self.terms = clean

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, FreeElement) and self.terms == other.terms

    def __add__(self, other):
        return FreeElement([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + other.scale(-PS_ONE)

    def __neg__(self):
        return self.scale(-PS_ONE)

    def scale(self, c):
        return FreeElement((w, s * c) for w, s in self.terms.items())

    def words(self):
        return sorted(self.terms)

    def coefficient(self, word):
        return self.terms.get(word, PS_ZERO)

    def homogeneous_weight(self, rank):
        """The common weight of all words; ValueError if mixed or zero."""
        weights = {word_weight(w, rank) for w in self.terms}
        if len(weights) != 1:
            raise ValueError("element is not homogeneous")
        return weights.pop()

    def graded(self, rank):
        """Split into weight -> homogeneous part."""
        parts = {}
        for w, c in self.terms.items():
            nu = word_weight(w, rank)
            parts.setdefault(nu, {})[w] = c
        out = {}
        for nu, terms in parts.items():
            el = FreeElement()
            el.terms = terms
            out[nu] = el
        return out

    def map_coefficients(self, f):
        return FreeElement((w, f(c)) for w, c in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "FreeElement(0)"
        bits = [f"{w}: {c!r}" for w, c in sorted(self.terms.items())]
        return "FreeElement({" + ", ".join(bits) + "})"


def serre_coefficient(datum, i, j, k):
    """(-1)^k pi^{C(k,2)p(i)+k p(i)p(j)} [b,k]_{v_i} with b = 1 - a_ij: the
    coefficient of theta_i^{b-k} theta_j theta_i^k in the Serre element.
    Its twist() is the coefficient of the twisted Serre relation."""
    b = 1 - datum.a(i, j)
    pi_exp = comb(k, 2) * datum.p(i) + k * datum.p(i) * datum.p(j)
    coeff = qbinomial(b, k, datum.d(i)) * PiScalar.pi_power(pi_exp)
    return -coeff if k % 2 else coeff


def word_weight(word, rank):
    counts = [0] * rank
    for k in word:
        counts[k] += 1
    return tuple(counts)


class FreeAlgebra:
    """Operation bundle for a fixed datum and twist form."""

    def __init__(self, datum, twist_form):
        self.datum = datum
        self.tf = twist_form
        self.rank = datum.rank
        self._divided_powers = {}
        self._eprime_words = {}
        self._words = {}

    # --- constructors ---------------------------------------------------

    def zero(self):
        return FreeElement()

    def one(self):
        return FreeElement({(): PS_ONE})

    def theta(self, k):
        return FreeElement({(k,): PS_ONE})

    def monomial(self, word, coeff=PS_ONE):
        return FreeElement({tuple(word): coeff})

    # --- products ---------------------------------------------------------

    def mul(self, x, y):
        return FreeElement((w1 + w2, c1 * c2)
                           for w1, c1 in x.terms.items()
                           for w2, c2 in y.terms.items())

    def star_mul(self, x, y):
        """Twisted product: t^{phi(|x|,|y|)} xy on homogeneous pieces."""
        rank, phi = self.rank, self.tf.phi
        return FreeElement(
            (w1 + w2, c1 * c2 * PiScalar.t_power(
                phi(word_weight(w1, rank), word_weight(w2, rank))))
            for w1, c1 in x.terms.items() for w2, c2 in y.terms.items())

    def divided_power(self, k, n):
        """theta_k^n / <n>!_{v_k, pi_k}."""
        hit = self._divided_powers.get((k, n))
        if hit is None:
            fact = qfactorial(n, self.datum.d(k))
            if not fact.plus or not fact.minus:
                raise ArithmeticError(
                    "quantum factorial has a zero component")
            hit = FreeElement({(k,) * n: PS_ONE / fact})
            self._divided_powers[k, n] = hit
        return hit

    # --- the derivation and the bilinear form ------------------------------

    def eprime_word(self, k, word):
        """e_k' of a single word as {word: PiScalar}; removes one
        occurrence of k with the accumulated commutation factor."""
        hit = self._eprime_words.get((k, word))
        if hit is not None:
            return hit
        dot = self.datum.dot
        par = self.datum.parity
        out = {}
        pi_exp = 0
        v_exp = 0
        for t, letter in enumerate(word):
            if letter == k:
                rest = word[:t] + word[t + 1:]
                c = PiScalar.pi_power(pi_exp) * PiScalar.v_power(v_exp)
                s = out.get(rest)
                out[rest] = c if s is None else s + c
            pi_exp += par[k] * par[letter]
            v_exp -= dot[k][letter]
        self._eprime_words[k, word] = out
        return out

    def e_prime(self, k, x):
        return FreeElement((rest, c * s) for w, c in x.terms.items()
                           for rest, s in self.eprime_word(k, w).items())

    def pair_words(self, w1, w2, memo=None):
        """The bilinear form on two words as a (plus, minus) pair of
        integer Laurent polynomials, one per pi-component."""
        if len(w1) != len(w2):
            return _PAIR_ZERO
        if memo is None:
            memo = {}
        return self._pair_words(w1, w2, memo)

    def _pair_words(self, w1, w2, memo):
        """Peel the first letter of w1 off w2: each e_k' factor is
        pi^a v^b, that is v^b at pi = +1 and (-1)^a v^b at pi = -1."""
        if not w1:
            return _PAIR_ONE
        key = (w1, w2)
        hit = memo.get(key)
        if hit is not None:
            return hit
        k = w1[0]
        tail = w1[1:]
        par = self.datum.parity
        par_k = par[k]
        dot_k = self.datum.dot[k]
        plus = minus = LP_ZERO
        pi_exp = 0
        v_exp = 0
        for t, letter in enumerate(w2):
            if letter == k:
                p, m = self._pair_words(tail, w2[:t] + w2[t + 1:], memo)
                plus = plus + p.shift(v_exp)
                m = m.shift(v_exp)
                minus = minus - m if pi_exp % 2 else minus + m
            pi_exp += par_k * par[letter]
            v_exp -= dot_k[letter]
        got = (plus, minus)
        memo[key] = got
        return got

    def pairing(self, x, y, memo=None):
        if memo is None:
            memo = {}
        acc = PS_ZERO
        for w1, c1 in x.terms.items():
            for w2, c2 in y.terms.items():
                if len(w1) != len(w2):
                    continue
                p, m = self._pair_words(w1, w2, memo)
                acc = acc + c1 * c2 * PiScalar(RationalFn(p), RationalFn(m))
        return acc

    # --- (anti)automorphisms ----------------------------------------------

    def rho(self, x):
        return FreeElement((w[::-1], c) for w, c in x.terms.items())

    def bar(self, x):
        return x.map_coefficients(lambda c: c.bar())

    def word_twist_exponent(self, word):
        """e(w) = sum over r < s of phi(w_r, w_s)."""
        table = self.tf._table
        e = 0
        for r in range(len(word)):
            row = table[word[r]]
            for s in range(r + 1, len(word)):
                e += row[word[s]]
        return e

    def twistor(self, x):
        """Diagonal twistor: c_w w -> twist(c_w) t^{e(w)} w."""
        return FreeElement(
            (w, c.twist() * PiScalar.t_power(self.word_twist_exponent(w)))
            for w, c in x.terms.items())

    def twistor_inv(self, x):
        return FreeElement(
            (w, c.twist_inv()
             * PiScalar.t_power(-self.word_twist_exponent(w)))
            for w, c in x.terms.items())

    # --- word enumeration ---------------------------------------------------

    def words_of_weight(self, nu):
        """All words of the given weight, lexicographic order; built once
        per weight."""
        got = self._words.get(nu)
        if got is not None:
            return got
        out = []

        def go(prefix, counts):
            if all(c == 0 for c in counts):
                out.append(tuple(prefix))
                return
            for k in range(self.rank):
                if counts[k]:
                    counts[k] -= 1
                    prefix.append(k)
                    go(prefix, counts)
                    prefix.pop()
                    counts[k] += 1

        go([], list(nu))
        self._words[nu] = out
        return out

    def weights_up_to_height(self, h):
        """All nonzero weights of height <= h, ordered by (height, lex)."""
        out = []
        level = [tuple([0] * self.rank)]
        for _ in range(h):
            nxt = set()
            for nu in level:
                for k in range(self.rank):
                    nxt.add(weight_add(nu, tuple(
                        1 if t == k else 0 for t in range(self.rank))))
            level = sorted(nxt)
            out.extend(level)
        return out


# --- rendering (golden-file contract) ----------------------------------------

def render_word(datum, word):
    if not word:
        return "1"
    return "".join(f"θ[{datum.indices[k]}]" for k in word)
