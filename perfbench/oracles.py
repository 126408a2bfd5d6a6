"""Independent oracles for the benchmark's output checks.

Nothing here imports covquant.  The root systems are built from the
symmetrized Cartan form of the even type behind each catalog datum, with
the odd short simple root first, which is the index order the CLI uses.
"""

from fractions import Fraction
from itertools import product

# (alpha_i, alpha_j) with the short root normalized to length 1.
FORMS = {
    "osp14": ((1, -1), (-1, 2)),                       # B2
    "osp16": ((1, -1, 0), (-1, 2, -1), (0, -1, 2)),    # B3
}


def _pair(form, a, b):
    n = len(form)
    return sum(a[i] * form[i][j] * b[j] for i in range(n) for j in range(n))


def positive_roots(form):
    """Positive roots in simple-root coordinates, by height then lexically.

    Grown height by height from the simple roots: beta + alpha_i is a root
    iff p > 0, where q is the length of the alpha_i-string below beta and
    p = q - <beta, alpha_i^vee>.
    """
    n = len(form)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        grown = []
        for beta in layer:
            for a in simple:
                if beta == a:
                    continue
                q = 0
                while tuple(b - (q + 1) * x for b, x in zip(beta, a)) in roots:
                    q += 1
                p = q - 2 * _pair(form, beta, a) // _pair(form, a, a)
                up = tuple(b + x for b, x in zip(beta, a))
                if p > 0 and up not in roots:
                    roots.add(up)
                    grown.append(up)
        layer = grown
    return sorted(roots, key=lambda r: (sum(r), r))


def kostant_table(form, height_bound):
    """Kostant partition function on every weight of height <= height_bound.

    Unbounded coin change over the positive roots on the box of weights;
    the dict has an entry for every nonnegative weight up to the height.
    """
    n = len(form)
    roots = positive_roots(form)
    box = list(product(range(height_bound + 1), repeat=n))
    ways = dict.fromkeys(box, 0)
    ways[(0,) * n] = 1
    for r in roots:
        for v in box:   # lexicographic order: v - r always comes first
            w = tuple(a - b for a, b in zip(v, r))
            if min(w) >= 0:
                ways[v] += ways[w]
    return {v: c for v, c in ways.items() if sum(v) <= height_bound}


def weyl_dimension(form, lam):
    """prod over positive roots of (lam + rho, alpha) / (rho, alpha).

    lam is in fundamental-weight coordinates, so (lam, alpha_i) equals
    lam_i (alpha_i, alpha_i) / 2.
    """
    half = [Fraction(form[i][i], 2) for i in range(len(form))]
    dim = Fraction(1)
    for r in positive_roots(form):
        num = sum(c * (l + 1) * s for c, l, s in zip(r, lam, half))
        den = sum(c * s for c, s in zip(r, half))
        dim *= num / den
    if dim.denominator != 1:
        raise ArithmeticError(f"Weyl dimension {dim} is not an integer")
    return int(dim)
