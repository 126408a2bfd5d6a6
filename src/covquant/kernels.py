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
