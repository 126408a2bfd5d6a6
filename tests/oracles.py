"""Independent oracles used to freeze derived test values.

Everything here is deliberately written against sympy, with direct
formulas and none of the package's own arithmetic, so that a bug in the
package cannot cancel against the same bug in a test.  The package must
never import this module.
"""

import sympy
from fractions import Fraction

V = sympy.Symbol("v")


def ratfn_to_sympy(r):
    """Convert a covquant RationalFn to a sympy expression (t -> I)."""

    def poly(p):
        return sum(
            (sympy.Rational(c.re.numerator, c.re.denominator)
             + sympy.Rational(c.im.numerator, c.im.denominator) * sympy.I)
            * V ** e
            for e, c in p.coeffs.items()
        )

    return sympy.cancel(poly(r.num) / poly(r.den))


def lp_to_sympy(a):
    """Convert an integer Laurent kernel tuple (offset, coeffs) to sympy."""
    off, coeffs = a
    return sum((sympy.Integer(c) * V ** (off + k)
                for k, c in enumerate(coeffs)), sympy.Integer(0))


def piscalar_to_sympy(s):
    return (ratfn_to_sympy(s.plus), ratfn_to_sympy(s.minus))


def scalar_equals(s, plus_expr, minus_expr):
    p, m = piscalar_to_sympy(s)
    return (sympy.simplify(p - plus_expr) == 0
            and sympy.simplify(m - minus_expr) == 0)


def qinteger_oracle(k, d, sign):
    """Geometric-sum definition, evaluated at pi = sign."""
    return sympy.expand(
        sum((sign ** d * V ** d) ** (k - 1 - l) * V ** (-d * l)
            for l in range(k))
    )


def qfactorial_oracle(k, d, sign):
    out = sympy.Integer(1)
    for m in range(1, k + 1):
        out = out * qinteger_oracle(m, d, sign)
    return sympy.expand(out)


def qbinomial_oracle(n, k, d, sign):
    """Product/quotient definition at pi = sign, cancelled by sympy."""
    num = sympy.Integer(1)
    den = sympy.Integer(1)
    for l in range(1, k + 1):
        m = n - l + 1
        num = num * ((sign ** d * V ** d) ** m - V ** (-d * m))
        den = den * ((sign ** d * V ** d) ** l - V ** (-d * l))
    return sympy.cancel(sympy.together(num / den))


def is_laurent_oracle(expr):
    """True iff a sympy expression is a Laurent polynomial in V."""
    expr = sympy.cancel(sympy.together(sympy.expand(expr)))
    num, den = sympy.fraction(expr)
    den = sympy.Poly(den, V)
    return den.is_monomial


def fraction(a, b):
    return Fraction(a, b)


# --- free-algebra pairing oracle ---------------------------------------------

PI = sympy.Symbol("pi")


def eprime_word_oracle(datum, k, word):
    """e_k' on a word, straight from the one-step peeling rule, as a dict
    word -> sympy expression in V and PI."""
    out = {}
    factor = sympy.Integer(1)
    for t, letter in enumerate(word):
        if letter == k:
            rest = word[:t] + word[t + 1:]
            out[rest] = out.get(rest, 0) + factor
        factor = factor * PI ** (datum.parity[k] * datum.parity[letter]) \
            * V ** (-datum.dot[k][letter])
    return out


def pair_words_oracle(datum, w1, w2):
    """The recursive bilinear form on words over Q(v)[pi]."""
    if len(w1) != len(w2):
        return sympy.Integer(0)
    if not w1:
        return sympy.Integer(1)
    acc = sympy.Integer(0)
    for rest, c in eprime_word_oracle(datum, w1[0], w2).items():
        acc += c * pair_words_oracle(datum, w1[1:], rest)
    return sympy.expand(acc)


def lp_pair_matches_pi_expr(pair, expr):
    """Compare a (plus, minus) pair of integer Laurent kernel tuples with
    a sympy expression in V and PI by specializing PI to +1 and -1."""
    plus, minus = (lp_to_sympy(a) for a in pair)
    return (sympy.expand(plus - expr.subs(PI, 1)) == 0
            and sympy.expand(minus - expr.subs(PI, -1)) == 0)


# --- rank-1 highest-weight module oracle --------------------------------------


def rank1_raising_scalar_oracle(n, k, sign):
    """E.F^k v = c_k F^(k-1) v on the rank-1 Verma with <1, lam> = n.

    Unrolled one commutator at a time: moving E past each of the k
    lowering factors costs a sign (the generator is odd) and leaves a
    bracket scalar whose argument drops by 2 per factor already passed.
    """
    def bra(m):
        if m < 0:
            return -(sign ** (-m)) * qinteger_oracle(-m, 1, sign)
        return qinteger_oracle(m, 1, sign)

    return sympy.expand(
        sum(sign ** (k - 1 - u) * bra(n - 2 * u) for u in range(k)))


def rank1_dims_oracle(n, hmax, sign):
    """Block dimensions [depth 0..hmax] of the simple quotient, brute
    force: the one-dimensional chain stays alive while every raising
    scalar above the current depth is nonzero, and can never revive."""
    dims = [1]
    alive = True
    for k in range(1, hmax + 1):
        if alive:
            alive = sympy.simplify(
                rank1_raising_scalar_oracle(n, k, sign)) != 0
        dims.append(1 if alive else 0)
    return dims
