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


# --- type B root combinatorics: Kostant counts and Weyl dimensions ---------------
#
# The finite catalog data osp(1|2n) share the even root combinatorics of
# so(2n+1), type B_n.  Realized in the basis e_1..e_n with the catalog's
# index order (the odd short simple root first): alpha_0 = e_n and
# alpha_k = e_{n-k} - e_{n-k+1} for k >= 1.


def _b_simple_coords(n, x):
    """e-basis vector -> simple-root coordinates: c_k = x_1 + ... + x_{n-k}."""
    return tuple(sum(x[:n - k]) for k in range(n))


def _b_positive_roots_e(n):
    """Positive roots of B_n in the e basis: e_i, e_i - e_j, e_i + e_j."""
    def unit(i):
        return [int(t == i) for t in range(n)]
    roots = [unit(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            roots.append([a - b for a, b in zip(unit(i), unit(j))])
            roots.append([a + b for a, b in zip(unit(i), unit(j))])
    return roots


def b_positive_roots(n):
    """Positive roots of B_n in simple-root coordinates, catalog order."""
    return [_b_simple_coords(n, r) for r in _b_positive_roots_e(n)]


def kostant_partition(n, nu):
    """Ways to write nu as an unordered sum of positive roots of B_n."""
    roots = b_positive_roots(n)

    def count(rest, start):
        if not any(rest):
            return 1
        total = 0
        for k in range(start, len(roots)):
            left = tuple(a - b for a, b in zip(rest, roots[k]))
            if min(left) >= 0:
                total += count(left, k)
        return total

    return count(tuple(nu), 0)


def _b_weight_e(n, lam):
    """Fundamental-weight coordinates (catalog order) -> e basis.

    The weight dual to alpha_0 is (e_1 + ... + e_n)/2, the one dual to
    alpha_k (k >= 1) is e_1 + ... + e_{n-k}."""
    x = [Fraction(lam[0], 2)] * n
    for k in range(1, n):
        for i in range(n - k):
            x[i] += lam[k]
    return x


def weyl_dimension_b(n, lam):
    """prod over positive roots alpha of (lam + rho, alpha) / (rho, alpha),
    with rho = (n - 1/2, n - 3/2, ..., 1/2) in the e basis."""
    rho = [Fraction(2 * (n - i) - 1, 2) for i in range(n)]
    shifted = [a + b for a, b in zip(_b_weight_e(n, lam), rho)]
    dim = Fraction(1)
    for r in _b_positive_roots_e(n):
        dim *= (sum(a * b for a, b in zip(shifted, r))
                / sum(a * b for a, b in zip(rho, r)))
    assert dim.denominator == 1, dim
    return int(dim)


def b_module_depth(n, lam):
    """Height of lam - w0 lam = 2 lam (w0 = -1 on B_n): the depth of the
    lowest weight, so a window of this height holds the whole module."""
    depth = sum(_b_simple_coords(n, [2 * a for a in _b_weight_e(n, lam)]))
    assert depth.denominator == 1, depth
    return int(depth)
