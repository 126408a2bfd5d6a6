"""Exact dense linear algebra over the per-component scalar field.

Matrices are lists of lists of RationalFn (one pi-component at a time);
rref also takes GaussianRational entries.  Sizes at desk scale are small,
so plain fraction-arithmetic Gaussian elimination with first-nonzero
pivoting is fine and keeps pivot choices deterministic.  The module
build calls kernel, whose reduction data it reads itself.  No package
code calls solve: the tests use it as the field-elimination reference
for the canonical basis, and the benchmark tracer wraps it by name.
"""

from .scalars import RF_ONE, RF_ZERO


def identity(n):
    return [[RF_ONE if i == j else RF_ZERO for j in range(n)]
            for i in range(n)]


def zeros(nrows, ncols):
    return [[RF_ZERO] * ncols for _ in range(nrows)]


def _eliminate(mat, ncols):
    """In-place forward elimination; returns list of (row, col) pivots."""
    pivots = []
    r = 0
    for c in range(ncols):
        pick = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pick = i
                break
        if pick is None:
            continue
        mat[r], mat[pick] = mat[pick], mat[r]
        lead = mat[r][c]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
    return pivots


def solve(a, rhs_cols):
    """Solve a square system A X = B exactly; raises on a singular A.

    rhs_cols is a matrix whose columns are the right-hand sides; the
    result has the same shape.  The reference by which the tests read
    canonical basis elements over the crystal reps, and a tracer target.
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("solve needs a square matrix")
    m = len(rhs_cols[0]) if rhs_cols else 0
    work = [list(ra) + list(rb) for ra, rb in zip(a, rhs_cols)]
    pivots = _eliminate(work, n)
    if len(pivots) != n:
        raise ArithmeticError("singular linear system")
    return [row[n:n + m] for row in work]


def rref(a, ncols):
    """Reduced row echelon form of a: (nonzero rows, pivot columns)."""
    work = [list(r) for r in a]
    pivots = _eliminate(work, ncols)
    return [work[r] for r, _ in pivots], [c for _, c in pivots]


def kernel(a, ncols):
    """Right null space of a as (basis, leads, pivots): pivots are a's pivot
    columns, leads the others, and each basis vector is 1 at its own lead
    and 0 at the other leads, so subtracting v[lead] times each lead's
    vector from v lands on the pivots."""
    rows, pivots = rref(a, ncols)
    hit = set(pivots)
    leads = [c for c in range(ncols) if c not in hit]
    basis = []
    for lead in leads:
        vec = [RF_ZERO] * ncols
        vec[lead] = RF_ONE
        for row, c in zip(rows, pivots):
            if row[lead]:
                vec[c] = -row[lead]
        basis.append(vec)
    return basis, leads, pivots
