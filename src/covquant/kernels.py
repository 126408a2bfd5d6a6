"""Fraction-free elimination on integer Laurent polynomials.

Every entry is a scalars.LaurentPoly with int coefficients and an empty
im map, and is read through its re map (exponent -> nonzero int), so the
cost of every routine here follows the term count, not the exponent span.
"""

from math import gcd

from .scalars import LP_ONE, LP_ZERO, LaurentPoly, _poly_divmod

# Reported by perfbench/run.py with its results.
IMPLEMENTATION = "py"


def lp_divexact(a, b):
    """Exact quotient a/b in Z[v,v^-1]; raises ValueError if not exact.

    Both sides are shifted to valuation 0, where b does not vanish at
    v = 0: then a/b is a Laurent polynomial iff b divides a in Q[v], and
    it lies in Z[v,v^-1] iff the quotient's coefficients are ints."""
    if not b:
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if not a:
        return LP_ZERO
    va, vb = min(a.re), min(b.re)
    q, r = _poly_divmod(a.shift(-va), b.shift(-vb))
    if r or any(type(c) is not int for c in q.re.values()):
        raise ValueError("inexact Laurent division")
    return q.shift(va - vb)


def row_primitive(row):
    """Strip a row of LPs: divide by the gcd of contents and the common
    v-power, and normalize the first nonzero entry's leading int to be
    positive.  Returns a new row (list)."""
    g = 0
    m = None
    sign = 0
    for a in row:
        if a:
            for c in a.re.values():
                g = gcd(g, c)
            lo = min(a.re)
            m = lo if m is None else min(m, lo)
            if not sign:
                sign = 1 if a.re[max(a.re)] > 0 else -1
    g *= sign
    if g in (0, 1) and not m:
        return list(row)
    return [a if not a else
            LaurentPoly.from_maps({e - m: c // g for e, c in a.re.items()})
            for a in row]


def echelon(rows, ncols):
    """Fraction-free row echelon form by cross-multiplication.

    Returns (echelon_rows, pivot_cols): rows with strictly increasing
    leading columns, each primitive-stripped; pivot_cols lists the leading
    column of each returned row.  Row space is preserved up to per-row unit
    and content scaling.
    """
    work = [row_primitive(r) for r in rows if any(r)]
    out = []
    pivots = []
    for col in range(ncols):
        pick = None
        for idx, r in enumerate(work):
            if r[col]:
                pick = idx
                break
        if pick is None:
            continue
        piv = work.pop(pick)
        lead = piv[col]
        rest = []
        for r in work:
            f = r[col]
            if f:
                r = row_primitive([lead * a - f * b for a, b in zip(r, piv)])
                if not any(r):
                    continue
            rest.append(r)
        work = rest
        out.append(piv)
        pivots.append(col)
    return out, pivots


def vec_reduce(rows, pivot_cols, vec):
    """Reduce an LP vector against echelon rows by cross-multiplication.

    Returns (residue, scale): scale is the product of the leads of the
    rows used (LP_ONE if none was), and scale*vec - residue lies in the row
    span.  The residue is zero iff vec lies in the row span over the
    fraction field.
    """
    scale = LP_ONE
    for r, col in zip(rows, pivot_cols):
        f = vec[col]
        if f:
            lead = r[col]
            vec = [lead * a - f * b for a, b in zip(vec, r)]
            scale = scale * lead
    return list(vec), scale


def _packed(a, lo, base):
    """The int value at v = 2**base of v**-lo * a, for an LP a whose
    valuation is at least lo (Kronecker substitution)."""
    return sum(c << base * (e - lo) for e, c in a.re.items())


def lp_product_is_zero(a, b):
    """Whether the product of LP matrices a (r x n) and b (n x c) is zero.

    Exact, in int arithmetic.  With lo_a and lo_b the lowest exponents in
    a and b, every entry of v**-lo_a * a and of v**-lo_b * b is a
    polynomial, and every coefficient of a product entry sum_j a_rj b_jc
    is at most M = max_r sum_j |a_rj|_1 * max_jc |b_jc|_inf in absolute
    value.  Each entry is packed as one int, its value at v = X = 2**B
    with X > M.  A nonzero polynomial with coefficients below X in
    absolute value is nonzero at X: its top term c_d X**d is at least
    X**d in absolute value and the lower ones add up to at most
    (X - 1)(1 + X + ... + X**(d-1)) = X**d - 1.  So a packed sum is 0 iff
    the product entry is the zero polynomial.
    """
    nz_a = [x.re for row in a for x in row if x]
    nz_b = [x.re for row in b for x in row if x]
    if not nz_a or not nz_b:
        return True
    lo_a = min(min(x) for x in nz_a)
    lo_b = min(min(x) for x in nz_b)
    bound = (max(sum(sum(map(abs, x.re.values())) for x in row) for row in a)
             * max(max(map(abs, x.values())) for x in nz_b))
    base = bound.bit_length()
    packed_b = [[_packed(x, lo_b, base) for x in row] for row in b]
    for row in a:
        support = [(packed_b[j], _packed(x, lo_a, base))
                   for j, x in enumerate(row) if x]
        for col in range(len(packed_b[0])):
            if sum(bj[col] * x for bj, x in support):
                return False
    return True


def int_det(m):
    """Exact determinant of a square int matrix (Bareiss elimination)."""
    n = len(m)
    if n == 0:
        return 1
    m = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        row_k = m[k]
        fkk = row_k[k]
        for row_i in m[k + 1:]:
            fik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * fkk - fik * row_k[j]) // prev
        prev = fkk
    return sign * m[n - 1][n - 1]


def lp_det_nonzero(m):
    """Whether det m != 0, exactly, for a square LP matrix m.

    Row k times v**-lo_k, with lo_k its lowest exponent, is a polynomial
    row, and det m is v**(sum_k lo_k) times the determinant of the scaled
    matrix.  Evaluation at v = 2 is a ring homomorphism Z[v] -> Z, so it
    commutes with the determinant: a nonzero int_det of the scaled matrix
    at v = 2 proves det m != 0.  Only when that value is 0 (v = 2 is a
    root, or det m = 0) does the symbolic det_bareiss decide.
    """
    rows = []
    for row in m:
        if not any(row):
            return False
        lo = min(min(x.re) for x in row if x)
        rows.append([_packed(x, lo, 1) for x in row])
    return bool(int_det(rows)) or bool(det_bareiss(m))


def det_bareiss(m):
    """Exact determinant of a square LP matrix (Bareiss elimination)."""
    n = len(m)
    if n == 0:
        return LP_ONE
    m = [list(r) for r in m]
    sign = 1
    prev = LP_ONE
    for k in range(n - 1):
        if not m[k][k]:
            swap = None
            for i in range(k + 1, n):
                if m[i][k]:
                    swap = i
                    break
            if swap is None:
                return LP_ZERO
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            fik = row_i[k]
            fkk = row_k[k]
            for j in range(k + 1, n):
                row_i[j] = lp_divexact(row_i[j] * fkk - fik * row_k[j], prev)
            row_i[k] = LP_ZERO
        prev = m[k][k]
    return -m[n - 1][n - 1] if sign < 0 else m[n - 1][n - 1]
