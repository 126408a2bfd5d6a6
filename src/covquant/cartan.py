"""Super Cartan data, root data, the ordered bilinear form phi and its
extension phi_dot to the weight lattice via a fixed transversal.

Weights of the negative part live in Z[I] and are stored as tuples of
nonnegative coefficients in the file order of the index list; that order
is part of the datum's identity because phi depends on it.  Elements of X
are plain integer tuples in the root datum's basis.
"""

import json

try:
    # CPython's built-in module: hashlib would map OpenSSL's libcrypto,
    # several MB, to hash one short string per run
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256


def _as_int(c):
    """A datum entry: a JSON integer, never a bool, float or string."""
    if type(c) is not int:
        raise TypeError(f"datum entries must be integers, got {c!r}")
    return c


class SuperCartanDatum:
    """Index list (ordered), symmetric dot matrix, parity vector."""

    __slots__ = ("indices", "dot", "parity")

    def __init__(self, indices, dot, parity):
        if not isinstance(indices, (list, tuple)):
            raise TypeError(f"indices must be a list of names, got "
                            f"{indices!r}")
        self.indices = tuple(str(i) for i in indices)
        # labels and words are index names written side by side, so they
        # must read back one way: no name empty or a prefix of another
        names = sorted(self.indices)
        if not all(names) or any(b.startswith(a)
                                 for a, b in zip(names, names[1:])):
            raise ValueError(f"index names must be non-empty and none a "
                             f"prefix of another, got {list(self.indices)}")
        self.dot = tuple(tuple(_as_int(c) for c in row) for row in dot)
        self.parity = tuple(_as_int(p) for p in parity)
        n = len(self.indices)
        if not n:
            raise ValueError("a datum needs at least one index")
        if len(self.dot) != n or any(len(r) != n for r in self.dot):
            raise ValueError("dot matrix shape does not match index list")
        if len(self.parity) != n:
            raise ValueError("parity vector shape does not match index list")

    @property
    def rank(self):
        return len(self.indices)

    def d(self, k):
        """d_k = (k.k)/2 (may be a Fraction on invalid data)."""
        val = self.dot[k][k]
        if val % 2 == 0:
            return val // 2
        # only invalid data gets here, so valid runs never load fractions
        from fractions import Fraction
        return Fraction(val, 2)

    def a(self, k, l):
        """Cartan integer 2(k.l)/(k.k) (Fraction when not integral)."""
        num = 2 * self.dot[k][l]
        den = self.dot[k][k]
        if den and num % den == 0:
            return num // den
        from fractions import Fraction
        return Fraction(num, den or 1)

    def p(self, k):
        return self.parity[k]

    def cartan_matrix(self):
        n = self.rank
        return tuple(tuple(self.a(i, j) for j in range(n)) for i in range(n))

    def is_degenerate(self):
        """All-even parity: an ordinary Cartan datum, accepted but flagged."""
        return all(p == 0 for p in self.parity)

    def validate(self):
        """Check the defining conditions; returns a list of findings.

        Each finding is a dict {"condition": ..., "indices": [...],
        "message": ...}.  An empty list means the datum is valid.  This
        never raises.
        """
        out = []
        n = self.rank
        names = self.indices
        for i in range(n):
            for j in range(i + 1, n):
                if self.dot[i][j] != self.dot[j][i]:
                    out.append({
                        "condition": "symmetry",
                        "indices": [names[i], names[j]],
                        "message": "dot matrix is not symmetric",
                    })
        for i in range(n):
            if self.parity[i] not in (0, 1):
                out.append({
                    "condition": "parity",
                    "indices": [names[i]],
                    "message": "parity values must be 0 or 1",
                })
        for i in range(n):
            if self.dot[i][i] <= 0 or self.dot[i][i] % 2 != 0:
                out.append({
                    "condition": "a",
                    "indices": [names[i]],
                    "message": f"d_{names[i]} = ({names[i]}.{names[i]})/2 "
                               "must be a positive integer",
                })
        for i in range(n):
            if self.dot[i][i] <= 0:
                continue
            for j in range(n):
                if i == j:
                    continue
                aij = self.a(i, j)
                if not isinstance(aij, int) or aij > 0:
                    out.append({
                        "condition": "b",
                        "indices": [names[i], names[j]],
                        "message": "2(i.j)/(i.i) must be a nonpositive "
                                   "integer for i != j",
                    })
        for i in range(n):
            if self.parity[i] != 1 or self.dot[i][i] <= 0:
                continue
            for j in range(n):
                aij = self.a(i, j)
                if isinstance(aij, int) and aij % 2 != 0:
                    out.append({
                        "condition": "c",
                        "indices": [names[i], names[j]],
                        "message": "rows of odd indices must have even "
                                   "Cartan integers (anisotropic)",
                    })
        bar_violations = []
        for i in range(n):
            di = self.d(i)
            if isinstance(di, int) and self.parity[i] in (0, 1):
                if di % 2 != self.parity[i]:
                    bar_violations.append(i)
        if bar_violations:
            msg = "d_i ≡ p(i) mod 2 fails (not bar-consistent)"
            if self._matches_a4_family(bar_violations):
                msg += (": the datum has two short end roots of opposite "
                        "parity, the excluded A^(4)(0,2n) family")
            for i in bar_violations:
                out.append({
                    "condition": "d",
                    "indices": [names[i]],
                    "message": msg,
                })
        for i in range(n):
            for j in range(n):
                if self.dot[i][j] % 2 != 0:
                    out.append({
                        "condition": "evenness",
                        "indices": [names[i], names[j]],
                        "message": "i.j must be even for all i, j",
                    })
        # deduplicate (evenness may repeat symmetric pairs)
        seen = set()
        unique = []
        for f in out:
            key = (f["condition"], tuple(sorted(f["indices"])))
            if key not in seen:
                seen.add(key)
                unique.append(f)
        return unique

    def _matches_a4_family(self, _violating):
        """Heuristic signature of the excluded twisted-affine family: the
        Dynkin diagram is a path whose two end nodes are short and of
        opposite parity."""
        n = self.rank
        if n < 2:
            return False
        adj = [[j for j in range(n)
                if j != i and self.dot[i][j] != 0] for i in range(n)]
        if any(len(a) > 2 for a in adj):
            return False
        ends = [i for i in range(n) if len(adj[i]) == 1]
        if len(ends) != 2:
            return False
        dmin = min(self.dot[i][i] for i in range(n))
        e1, e2 = ends
        return (self.dot[e1][e1] == dmin and self.dot[e2][e2] == dmin
                and self.parity[e1] != self.parity[e2])

    def canonical_dict(self):
        return {
            "indices": list(self.indices),
            "dot": [list(r) for r in self.dot],
            "parity": list(self.parity),
        }

    def __eq__(self, other):
        return (isinstance(other, SuperCartanDatum)
                and self.indices == other.indices
                and self.dot == other.dot
                and self.parity == other.parity)

    def __hash__(self):
        return hash((self.indices, self.dot, self.parity))


# --- Z[I] weight helpers (tuples of coefficients, file order) ---------------

def weight_zero(rank):
    return (0,) * rank


def unit_weight(rank, k):
    return tuple(1 if t == k else 0 for t in range(rank))


def weight_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def weight_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def height(nu):
    return sum(nu)


def weight_sequence(nu):
    """Expand a weight to the ascending sequence of index positions."""
    seq = []
    for k, c in enumerate(nu):
        seq.extend([k] * c)
    return seq


def stats_N(datum, seq_or_weight):
    """Sum of i_r . i_s over r < s; 0 on single letters by convention."""
    seq = _as_sequence(seq_or_weight)
    total = 0
    for r in range(len(seq)):
        for s in range(r + 1, len(seq)):
            total += datum.dot[seq[r]][seq[s]]
    return total


def stats_p(datum, seq_or_weight):
    seq = _as_sequence(seq_or_weight)
    total = 0
    for r in range(len(seq)):
        for s in range(r + 1, len(seq)):
            total += datum.parity[seq[r]] * datum.parity[seq[s]]
    return total


def _as_sequence(x):
    # sequences are lists, weights are tuples of per-index counts
    if isinstance(x, tuple):
        return weight_sequence(x)
    return list(x)


# --- integer linear algebra for the root datum and the transversal ----------

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


def hnf_columns(mat, ncols):
    """Column-style Hermite normal form.

    mat is a list of rows (length ncols each).  Returns (H, U, pivots)
    with H = mat @ U (as column operations), U unimodular ncols x ncols,
    H in column echelon form: each nonzero column has a positive pivot
    (its first nonzero row), pivot rows strictly increase left to right,
    entries in a pivot row to the right of the pivot lie in [0, pivot).
    pivots is the list of (row, col) pairs.
    """
    nrows = len(mat)
    H = [list(r) for r in mat]
    U = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col(j):
        return [H[i][j] for i in range(nrows)]

    def addmul_col(dst, src, f):
        if f:
            for i in range(nrows):
                H[i][dst] += f * H[i][src]
            for i in range(ncols):
                U[i][dst] += f * U[i][src]

    def swap_col(a, b):
        for i in range(nrows):
            H[i][a], H[i][b] = H[i][b], H[i][a]
        for i in range(ncols):
            U[i][a], U[i][b] = U[i][b], U[i][a]

    def negate_col(a):
        for i in range(nrows):
            H[i][a] = -H[i][a]
        for i in range(ncols):
            U[i][a] = -U[i][a]

    pivots = []
    next_col = 0
    for row in range(nrows):
        # find a column (>= next_col) with nonzero entry in this row,
        # gcd-reduce all such columns into one
        active = [j for j in range(next_col, ncols) if H[row][j] != 0]
        if not active:
            continue
        # euclid across columns until one nonzero remains in this row
        while len(active) > 1:
            active.sort(key=lambda j: abs(H[row][j]))
            a = active[0]
            for b in active[1:]:
                q = H[row][b] // H[row][a]
                addmul_col(b, a, -q)
            active = [j for j in active if H[row][j] != 0]
        j = active[0]
        if j != next_col:
            swap_col(j, next_col)
        if H[row][next_col] < 0:
            negate_col(next_col)
        piv = H[row][next_col]
        # reduce this row's entries in earlier pivot columns? column HNF
        # reduces entries to the RIGHT of each pivot; here later columns
        # have zero in this row already, so reduce previous pivot rows of
        # the new column against nothing; instead reduce entries of this
        # row in columns after next_col (all zero now) and normalize the
        # entries of previous columns in this row into [0, piv):
        for jj in range(next_col):
            q = H[row][jj] // piv
            if q:
                addmul_col(jj, next_col, -q)
        pivots.append((row, next_col))
        next_col += 1
        if next_col == ncols:
            break
    return H, U, pivots


class RootDatum:
    """Perfect pairing Y x X -> Z with embeddings of the index set."""

    __slots__ = ("rankY", "rankX", "pairing", "embX", "embY")

    def __init__(self, rankY, rankX, pairing, embX, embY):
        self.rankY = _as_int(rankY)
        self.rankX = _as_int(rankX)
        self.pairing = tuple(tuple(_as_int(c) for c in row) for row in pairing)
        self.embX = tuple(tuple(_as_int(c) for c in v) for v in embX)
        self.embY = tuple(tuple(_as_int(c) for c in v) for v in embY)
        if len(self.pairing) != self.rankY or any(
                len(row) != self.rankX for row in self.pairing):
            raise ValueError(f"pairing must be {self.rankY} x {self.rankX}")
        if len(self.embX) != len(self.embY):
            raise ValueError("X and Y embeddings list different index counts")
        for emb, rank, name in ((self.embX, self.rankX, "X"),
                                (self.embY, self.rankY, "Y")):
            if any(len(v) != rank for v in emb):
                raise ValueError(f"{name} embedding rows must have length "
                                 f"{rank}")

    @staticmethod
    def simply_connected(datum):
        """Default root datum: identity pairing on Z^r, i' = i-th Cartan
        column; for a singular Cartan matrix (affine) one extra degree
        coordinate <d, alpha_j> = delta_{j,0} keeps the embedding regular.
        """
        n = datum.rank
        A = datum.cartan_matrix()
        if any(a.denominator != 1 for row in A for a in row):
            raise ValueError("Cartan integers 2(i.j)/(i.i) must be integers")
        A = [[int(a) for a in row] for row in A]
        if int_det(A) != 0:
            rank = n
            embX = [tuple(A[i][j] for i in range(n)) for j in range(n)]
            embY = [unit_weight(n, i) for i in range(n)]
        else:
            rank = n + 1
            embX = [tuple(A[i][j] for i in range(n)) + ((1,) if j == 0 else (0,))
                    for j in range(n)]
            embY = [unit_weight(rank, i) for i in range(n)]
        pairing = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
        return RootDatum(rank, rank, pairing, embX, embY)

    def pair(self, y, x):
        return sum(y[i] * self.pairing[i][j] * x[j]
                   for i in range(self.rankY) for j in range(self.rankX))

    def pair_index(self, k, lam):
        """<k, lam> for a simple index position k."""
        return self.pair(self.embY[k], lam)

    def validate(self, datum):
        """Root datum consistency findings (empty when consistent)."""
        out = []
        if self.rankY != self.rankX:
            out.append({"condition": "root-datum",
                        "message": "pairing must be square to be perfect"})
            return out
        det = int_det(self.pairing)
        if det not in (1, -1):
            out.append({"condition": "root-datum",
                        "message": f"pairing determinant {det} is not a unit"})
        n = datum.rank
        A = datum.cartan_matrix()
        for i in range(n):
            for j in range(n):
                got = self.pair_index(i, self.embX[j])
                if got != A[i][j]:
                    out.append({
                        "condition": "root-datum",
                        "message": f"<{datum.indices[i]}, {datum.indices[j]}'> = "
                                   f"{got} != Cartan integer {A[i][j]}",
                    })
        for emb, rk, name in ((self.embX, self.rankX, "X"),
                              (self.embY, self.rankY, "Y")):
            M = [[emb[j][i] for j in range(n)] for i in range(rk)]
            _, _, piv = hnf_columns(M, n)
            if len(piv) != n:
                out.append({"condition": "root-datum",
                            "message": f"index images in {name} are "
                                       "linearly dependent"})
        return out

    def weight_in_X(self, nu):
        """Image of nu in Z[I] under i -> i' as an X-vector."""
        out = [0] * self.rankX
        for k, c in enumerate(nu):
            if c:
                for t in range(self.rankX):
                    out[t] += c * self.embX[k][t]
        return tuple(out)

    def canonical_dict(self):
        return {
            "rankY": self.rankY,
            "rankX": self.rankX,
            "pairing": [list(r) for r in self.pairing],
            "embX": [list(v) for v in self.embX],
            "embY": [list(v) for v in self.embY],
        }


class TransversalError(ValueError):
    """A weight lies in no class of a user transversal of X/Z[I]."""


class TwistForm:
    """The ordering-dependent bilinear form phi on Z[I] and its extension
    phi_dot to X through a fixed transversal of X/Z[I]."""

    __slots__ = ("datum", "root", "_table", "_H", "_U", "_pivots",
                 "user_transversal", "_decomposed")

    def __init__(self, datum, root=None, user_transversal=None):
        self.datum = datum
        self.root = root or RootDatum.simply_connected(datum)
        n = datum.rank
        table = [[0] * n for _ in range(n)]
        for k in range(n):
            for l in range(n):
                if l < k:
                    # d_k * a_kl simplifies to the dot product k.l
                    table[k][l] = datum.dot[k][l]
                elif l == k:
                    table[k][l] = datum.d(k)
                else:
                    table[k][l] = -2 * datum.p(k) * datum.p(l)
        self._table = tuple(tuple(row) for row in table)
        M = [[self.root.embX[j][i] for j in range(n)]
             for i in range(self.root.rankX)]
        self._H, self._U, self._pivots = hnf_columns(M, n)
        self.user_transversal = None
        self._decomposed = {}
        if user_transversal is not None:
            if not (isinstance(user_transversal, (list, tuple)) and all(
                    isinstance(v, (list, tuple)) for v in user_transversal)):
                raise TypeError("transversal must be a list of integer "
                                f"vectors, got {user_transversal!r}")
            self.user_transversal = self._check_transversal(
                [tuple(_as_int(c) for c in v) for v in user_transversal])

    def _check_transversal(self, reps):
        """reps, if they are pairwise incongruent X-vectors modulo Z[I]' and,
        where X/Z[I]' is finite, one per class; ValueError otherwise."""
        rank = self.root.rankX
        if any(len(v) != rank for v in reps):
            raise ValueError(f"transversal vectors must have length {rank}")
        for a in range(len(reps)):
            for b in range(a):
                if self._solve_in_root_lattice(
                        weight_sub(reps[a], reps[b])) is not None:
                    raise ValueError(f"transversal vectors {list(reps[b])} "
                                     f"and {list(reps[a])} are congruent "
                                     "modulo Z[I]")
        index = self._quotient_order()
        if index is not None and len(reps) != index:
            raise ValueError(f"transversal lists {len(reps)} vectors; "
                             f"X/Z[I] has {index} classes")
        return reps

    def phi(self, nu, mu):
        """Bilinear extension of the generator table."""
        total = 0
        for k, ck in enumerate(nu):
            if not ck:
                continue
            row = self._table[k]
            for l, cl in enumerate(mu):
                if cl:
                    total += ck * cl * row[l]
        return total

    def reduce_to_transversal(self, lam):
        """Canonical representative of lam + Z[I]' (the computed transversal)."""
        lam = list(lam)
        q = [0] * self.datum.rank
        for row, col in self._pivots:
            h = self._H[row][col]
            f = lam[row] // h
            if f:
                q[col] += f
                for i in range(self.root.rankX):
                    lam[i] -= f * self._H[i][col]
        return tuple(lam), q

    def decompose(self, lam):
        """lam = mu' + c with mu in Z[I], c in the transversal; returns
        (mu, c), memoized per weight.  Raises TransversalError (a
        ValueError) if no stored representative works; that outcome is
        not memoized, so it raises on every call."""
        lam = tuple(lam)
        got = self._decomposed.get(lam)
        if got is None:
            got = self._decomposed[lam] = self._decompose(lam)
        return got

    def _decompose(self, lam):
        if self.user_transversal is not None:
            for c in self.user_transversal:
                mu = self._solve_in_root_lattice(weight_sub(lam, c))
                if mu is not None:
                    return mu, tuple(c)
            raise TransversalError(
                "no stored transversal representative is congruent to "
                f"{lam} modulo Z[I]")
        c, q = self.reduce_to_transversal(lam)
        mu = self._mu_from_q(q)
        return mu, c

    def _mu_from_q(self, q):
        n = self.datum.rank
        return tuple(sum(self._U[i][j] * q[j] for j in range(n))
                     for i in range(n))

    def _solve_in_root_lattice(self, vec):
        """Solve vec = mu' exactly; None if vec is not in the image."""
        residue, q = self.reduce_to_transversal(vec)
        return None if any(residue) else self._mu_from_q(q)

    def phi_dot(self, nu, lam):
        mu, _ = self.decompose(lam)
        return self.phi(nu, mu)

    def transversal_dict(self):
        """Serializable record of the fixed transversal choice."""
        out = {
            "hnf": [list(r) for r in self._H],
            "reduction": "fundamental-domain (pivot coordinates in [0, pivot))",
        }
        if self.user_transversal is not None:
            out["representatives"] = [list(v) for v in self.user_transversal]
            return out
        # list representatives explicitly when the quotient is small
        size = self._quotient_order()
        if size is not None and size <= 64:
            reps = [[0] * self.root.rankX]
            for row, col in self._pivots:
                h = self._H[row][col]
                reps = [[r[i] + (k if i == row else 0)
                         for i in range(self.root.rankX)]
                        for r in reps for k in range(h)]
            out["representatives"] = sorted(reps)
        return out

    def _quotient_order(self):
        """|X/Z[I]'|, or None when the quotient is infinite."""
        if len(self._pivots) != self.root.rankX:
            return None
        size = 1
        for row, col in self._pivots:
            size *= self._H[row][col]
        return size


# --- datum file handling -----------------------------------------------------

def datum_from_dict(data):
    """Build (datum, root, twistform) from the JSON dict format."""
    datum = SuperCartanDatum(data["indices"], data["dot"], data["parity"])
    if "X" in data or "Y" in data:
        x = data.get("X", {})
        y = data.get("Y", {})
        if not (isinstance(x, dict) and isinstance(y, dict)):
            raise TypeError("X and Y must be JSON objects")
        for name, side in (("X", x), ("Y", y)):
            if "emb" not in side:
                raise ValueError(f"{name}.emb is missing: X and Y each need "
                                 "an emb list, one row per index")
        rank_x = x.get("rank")
        rank_y = y.get("rank", rank_x)
        rank_x = rank_x if rank_x is not None else rank_y
        pairing = x.get("pairing")
        if pairing is None:
            pairing = y.get("pairing")
        if pairing is None:
            pairing = [[1 if i == j else 0 for j in range(rank_x)]
                       for i in range(rank_y)]
        root = RootDatum(rank_y, rank_x, pairing, x["emb"], y["emb"])
        if len(root.embX) != datum.rank:
            raise ValueError(f"X and Y embeddings need one row per index "
                             f"({datum.rank})")
    else:
        root = RootDatum.simply_connected(datum)
    tf = TwistForm(datum, root, data.get("transversal"))
    return datum, root, tf


def normalized_datum_dict(datum, root, tf):
    """The normalized datum echoed into every CLI output."""
    return {
        "datum": datum.canonical_dict(),
        "root_datum": root.canonical_dict(),
        "transversal": tf.transversal_dict(),
        "degenerate_all_even": datum.is_degenerate(),
    }


def datum_hash(datum, root, tf):
    """Hex hash identifying the normalized datum (stamped on CLI output)."""
    payload = json.dumps(normalized_datum_dict(datum, root, tf),
                         sort_keys=True, separators=(",", ":"))
    return sha256(payload.encode()).hexdigest()[:16]
