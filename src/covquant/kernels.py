"""Integer Laurent polynomial arithmetic and fraction-free elimination.

A Laurent polynomial with integer coefficients is stored as a pair
``(offset, coeffs)`` where ``coeffs`` is a tuple of ints with nonzero first
and last entry (or the empty tuple for zero); the represented value is
``sum(coeffs[t] * v**(offset + t))``.
"""

from math import gcd

# Reported by perfbench/run.py with its results.
IMPLEMENTATION = "py"

LP_ZERO = (0, ())
LP_ONE = (0, (1,))


def lp_trim(offset, coeffs):
    """Normalize a raw (offset, mutable coeff list) pair into an LP."""
    lo = 0
    hi = len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        return LP_ZERO
    return (offset + lo, tuple(coeffs[lo:hi]))


def lp_const(c):
    if c == 0:
        return LP_ZERO
    return (0, (c,))


def lp_is_zero(a):
    return not a[1]


def lp_add(a, b):
    if not a[1]:
        return b
    if not b[1]:
        return a
    off = min(a[0], b[0])
    hi = max(a[0] + len(a[1]), b[0] + len(b[1]))
    out = [0] * (hi - off)
    for t, c in enumerate(a[1]):
        out[a[0] - off + t] += c
    for t, c in enumerate(b[1]):
        out[b[0] - off + t] += c
    return lp_trim(off, out)


def lp_neg(a):
    return (a[0], tuple(-c for c in a[1]))


def lp_sub(a, b):
    return lp_add(a, lp_neg(b))


def lp_mul(a, b):
    if not a[1] or not b[1]:
        return LP_ZERO
    out = [0] * (len(a[1]) + len(b[1]) - 1)
    for s, ca in enumerate(a[1]):
        if ca:
            for t, cb in enumerate(b[1]):
                out[s + t] += ca * cb
    return lp_trim(a[0] + b[0], out)


def lp_scale(a, c):
    if c == 0 or not a[1]:
        return LP_ZERO
    return (a[0], tuple(c * x for x in a[1]))


def lp_shift(a, k):
    if not a[1]:
        return LP_ZERO
    return (a[0] + k, a[1])


def lp_divexact(a, b):
    """Exact quotient a/b in Z[v,v^-1]; raises ValueError if not exact."""
    if not b[1]:
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if not a[1]:
        return LP_ZERO
    num = list(a[1])
    den = b[1]
    qlen = len(num) - len(den) + 1
    if qlen <= 0:
        raise ValueError("inexact Laurent division")
    lead = den[-1]
    quot = [0] * qlen
    for k in range(qlen - 1, -1, -1):
        top = num[k + len(den) - 1]
        if top % lead:
            raise ValueError("inexact Laurent division")
        q = top // lead
        quot[k] = q
        if q:
            for t, dc in enumerate(den):
                num[k + t] -= q * dc
    if any(num):
        raise ValueError("inexact Laurent division")
    return lp_trim(a[0] - b[0], quot)


def lp_content(a):
    g = 0
    for c in a[1]:
        g = gcd(g, c)
    return g


def row_primitive(row):
    """Strip a row of LPs: divide by the gcd of contents and the common
    v-power, and normalize the first nonzero entry's leading int to be
    positive.  Returns a new row (list)."""
    g = 0
    m = None
    for a in row:
        if a[1]:
            g = gcd(g, lp_content(a))
            m = a[0] if m is None else min(m, a[0])
    if g == 0:
        return list(row)
    sign = 1
    for a in row:
        if a[1]:
            if a[1][-1] < 0:
                sign = -1
            break
    g *= sign
    return [
        LP_ZERO if not a[1] else (a[0] - m, tuple(c // g for c in a[1]))
        for a in row
    ]


def echelon(rows, ncols):
    """Fraction-free row echelon form by cross-multiplication.

    Returns (echelon_rows, pivot_cols): rows with strictly increasing
    leading columns, each primitive-stripped; pivot_cols lists the leading
    column of each returned row.  Row space is preserved up to per-row unit
    and content scaling.
    """
    work = [row_primitive(r) for r in rows if any(a[1] for a in r)]
    out = []
    pivots = []
    for col in range(ncols):
        pick = None
        for idx, r in enumerate(work):
            if r[col][1]:
                pick = idx
                break
        if pick is None:
            continue
        piv = work.pop(pick)
        lead = piv[col]
        rest = []
        for r in work:
            if r[col][1]:
                f = r[col]
                r = [lp_sub(lp_mul(lead, r[j]), lp_mul(f, piv[j]))
                     for j in range(ncols)]
                r = row_primitive(r)
                if not any(a[1] for a in r):
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
        if f[1]:
            lead = r[col]
            vec = [lp_sub(lp_mul(lead, a), lp_mul(f, b))
                   for a, b in zip(vec, r)]
            scale = lp_mul(scale, lead)
    return list(vec), scale


def _packed(a, lo, base):
    """The int value at v = 2**base of v**-lo * a, for an LP a whose
    offset is at least lo (Kronecker substitution).  Only the nonzero
    coefficients are shifted, so the cost follows the term count, not
    the exponent span."""
    off, coeffs = a
    return sum(c << base * (off - lo + k) for k, c in enumerate(coeffs) if c)


def lp_product_is_zero(a, b):
    """Whether the product of LP matrices a (r x n) and b (n x c) is zero.

    Exact, in int arithmetic.  With lo_a and lo_b the lowest offsets in a
    and b, every entry of v**-lo_a * a and of v**-lo_b * b is a polynomial,
    and every coefficient of a product entry sum_j a_rj b_jc is at most
    M = max_r sum_j |a_rj|_1 * max_jc |b_jc|_inf in absolute value.  Each
    entry is packed as one int, its value at v = X = 2**B with X > M.  A
    nonzero polynomial with coefficients below X in absolute value is
    nonzero at X: its top term c_d X**d is at least X**d in absolute value
    and the lower ones add up to at most (X - 1)(1 + X + ... + X**(d-1))
    = X**d - 1.  So a packed sum is 0 iff the product entry is the zero
    polynomial.
    """
    nz_a = [x for row in a for x in row if x[1]]
    nz_b = [x for row in b for x in row if x[1]]
    if not nz_a or not nz_b:
        return True
    lo_a = min(x[0] for x in nz_a)
    lo_b = min(x[0] for x in nz_b)
    bound = (max(sum(sum(map(abs, x[1])) for x in row) for row in a)
             * max(max(map(abs, x[1])) for x in nz_b))
    base = bound.bit_length()
    packed_b = [[_packed(x, lo_b, base) for x in row] for row in b]
    for row in a:
        support = [(packed_b[j], _packed(x, lo_a, base))
                   for j, x in enumerate(row) if x[1]]
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

    Row k times v**-lo_k, with lo_k its lowest offset, is a polynomial
    row, and det m is v**(sum_k lo_k) times the determinant of the scaled
    matrix.  Evaluation at v = 2 is a ring homomorphism Z[v] -> Z, so it
    commutes with the determinant: a nonzero int_det of the scaled matrix
    at v = 2 proves det m != 0.  Only when that value is 0 (v = 2 is a
    root, or det m = 0) does the symbolic det_bareiss decide.
    """
    rows = []
    for row in m:
        offsets = [x[0] for x in row if x[1]]
        if not offsets:
            return False
        lo = min(offsets)
        rows.append([_packed(x, lo, 1) for x in row])
    return bool(int_det(rows)) or not lp_is_zero(det_bareiss(m))


def det_bareiss(m):
    """Exact determinant of a square LP matrix (Bareiss elimination)."""
    n = len(m)
    if n == 0:
        return LP_ONE
    m = [list(r) for r in m]
    sign = 1
    prev = LP_ONE
    for k in range(n - 1):
        if not m[k][k][1]:
            swap = None
            for i in range(k + 1, n):
                if m[i][k][1]:
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
                num = lp_sub(lp_mul(row_i[j], fkk), lp_mul(fik, row_k[j]))
                row_i[j] = lp_divexact(num, prev)
            row_i[k] = LP_ZERO
        prev = m[k][k]
    return lp_scale(m[n - 1][n - 1], sign)
