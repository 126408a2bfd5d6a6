"""Truncated highest-weight modules over the covering quantum group.

Weight spaces are indexed by depth vectors nu (nonnegative root-lattice
coordinates, height <= hmax); the space at nu sits at module weight
lam - nu' and is spanned by the pivot words of the half algebra, cut down
by the joint kernel of every raising word.  The raising action is unrolled
from the commutator recursion, lowering is left concatenation, and the
grouplike generators act diagonally.

Each pi-component is built separately.  The raising and lowering
matrices on pivot words are computed in integer Laurent arithmetic from
the quotient context's class-coordinate tables, and the raising images
are checked on the relation ideal there; they become RationalFn matrices
only for the field elimination of linalg that cuts out the kernels and
quotients.

On top of the bare module the suites here dress the generators with
t-power tables and check, block by block, that the dressed operators
satisfy the sign-twisted defining relations: once for the weight-table
form of the twistor and once via the diagonal extension operators, plus
the intertwining square that ties the half-algebra twistor to the latter.
"""

from math import comb

from . import kernels, linalg
from .cartan import height, unit_weight, weight_add, weight_sub, weight_zero
from .halfqg import _SIGNS
from .linalg import RF_ZERO
from .scalars import PS_ONE, PS_PI, PiScalar, lp_to_ratfn, qbinomial, \
    qfactorial, qinteger_signed, ratfn_to_lp


class TruncationBoundary(Exception):
    """A composite operator stepped outside the truncation window."""


def _sp(x, sign):
    return x.plus if sign > 0 else x.minus


def _removals(word, i, datum):
    """Ways the raising operator for i can strike a letter out of word.

    Yields (subword, parity, offset): the surviving word, the sign parity
    picked up moving past the prefix, and the pairing shift contributed by
    the suffix letters.
    """
    p_i = datum.p(i)
    out = []
    for t, letter in enumerate(word):
        if letter != i:
            continue
        parity = p_i * sum(datum.p(s) for s in word[:t]) % 2
        offset = sum(datum.a(i, s) for s in word[t + 1:])
        out.append((word[:t] + word[t + 1:], parity, offset))
    return out


_LP_ONE = kernels.lp_const(1)


def _field_matrix(den, rows):
    """Integer Laurent numerators over a common denominator -> RationalFn
    rows for the field elimination."""
    if den == _LP_ONE:
        return [[lp_to_ratfn(a) if a[1] else RF_ZERO for a in row]
                for row in rows]
    d = lp_to_ratfn(den)
    return [[lp_to_ratfn(a) / d if a[1] else RF_ZERO for a in row]
            for row in rows]


def _reduce_mod(rows, piv, vec):
    """Reduce vec against normalized echelon rows (leading entries 1)."""
    for row, c in zip(rows, piv):
        f = vec[c]
        if f:
            vec = [a - f * b for a, b in zip(vec, row)]
    return vec


def _mul(a, b, ncols):
    """Matrix product a.b where b has ncols columns (either side may have
    zero rows)."""
    out = []
    nb = len(b)
    for row in a:
        new = []
        for c in range(ncols):
            acc = RF_ZERO
            for t in range(nb):
                if row[t] and b[t][c]:
                    acc = acc + row[t] * b[t][c]
            new.append(acc)
        out.append(new)
    return out


def _scale(mat, c):
    return [[c * x for x in row] for row in mat]


def _add_into(acc, mat, c):
    for r, row in enumerate(mat):
        for s, x in enumerate(row):
            if c and x:
                acc[r][s] = acc[r][s] + c * x
    return acc


def _is_zero(mat):
    return all(not x for row in mat for x in row)


class WeightModule:
    """One truncated highest-weight module at a fixed highest weight.

    Everything is computed for both specializations of pi at once; the
    per-sign data (kernels, quotient bases, operator matrices) is keyed by
    sign internally and exposed through dimension/space/word_operator.
    """

    def __init__(self, ctx, lam, hmax):
        if hmax < 0:
            raise ValueError("the height cutoff must be nonnegative")
        self.ctx = ctx
        self.datum = ctx.datum
        self.root = ctx.root
        self.tf = ctx.tf
        self.lam = tuple(lam)
        if len(self.lam) != self.root.rankX:
            raise ValueError(
                f"highest weight needs {self.root.rankX} coordinates")
        self.hmax = hmax
        rank = self.datum.rank
        self._pair_lam = tuple(
            self.root.pair_index(i, self.lam) for i in range(rank))
        self.weights = [weight_zero(rank)]
        self.weights += ctx.free.weights_up_to_height(hmax)

        self._brackets = {}
        self._e_pivot = {}
        self._f_pivot = {}
        for nu in self.weights:
            self._build_pivot_ops(nu)

        self._nrows = {}
        self._npiv = {}
        self._free = {}
        self._basis = {}
        for sign in _SIGNS:
            for nu in self.weights:
                self._build_kernel(sign, nu)

        self._eop = {}
        self._fop = {}
        for sign in _SIGNS:
            for nu in self.weights:
                self._build_quotient_ops(sign, nu)

    # -- construction ------------------------------------------------

    def _build_pivot_ops(self, nu):
        """Raising and lowering matrices on the pivot words of nu, one
        RationalFn matrix per sign, from integer class coordinates."""
        ctx = self.ctx
        rank = self.datum.rank
        pw = ctx.pivots(nu)
        for i in range(rank):
            if nu[i]:
                imgs, tgt = self._raising_images(i, nu)
                self._check_raising_on_radical(i, nu, imgs, tgt)
                m = ctx.dimension(tgt)
                for sign in _SIGNS:
                    den = ctx.class_coords(tgt)[sign][0]
                    img = imgs[sign]
                    self._e_pivot[(sign, i, nu)] = _field_matrix(
                        den, [[img[w][r] for w in pw] for r in range(m)])
        if height(nu) < self.hmax:
            for i in range(rank):
                tgt = weight_add(nu, unit_weight(rank, i))
                m = ctx.dimension(tgt)
                for sign in _SIGNS:
                    den, table = ctx.class_coords(tgt)[sign]
                    self._f_pivot[(sign, i, nu)] = _field_matrix(
                        den, [[table[(i,) + w][r] for w in pw]
                              for r in range(m)])

    def _bracket(self, n, d):
        """qinteger_signed(n, d) per sign as integer Laurent kernel tuples,
        converted once per (n, d)."""
        got = self._brackets.get((n, d))
        if got is None:
            q = qinteger_signed(n, d)
            got = {sign: ratfn_to_lp(_sp(q, sign)) for sign in _SIGNS}
            self._brackets[(n, d)] = got
        return got

    def _raising_images(self, i, nu):
        """Raising image of every word of nu in pivot coordinates one
        level up: {sign: {word: numerators}} over the target's common
        denominator.  The word surgery is independent of the highest
        weight; only the bracket scalars see lam."""
        ctx = self.ctx
        datum = self.datum
        tgt = weight_sub(nu, unit_weight(datum.rank, i))
        coords = ctx.class_coords(tgt)
        m = ctx.dimension(tgt)
        d_i = datum.d(i)
        n_i = self._pair_lam[i]
        removals = [(w, _removals(w, i, datum)) for w in ctx.words(nu)]
        imgs = {}
        for sign in _SIGNS:
            table = coords[sign][1]
            out = {}
            for w, rems in removals:
                acc = [kernels.LP_ZERO] * m
                for sub, parity, offset in rems:
                    c = self._bracket(n_i - offset, d_i)[sign]
                    if not c[1]:
                        continue
                    if parity and sign < 0:
                        c = kernels.lp_neg(c)
                    for r, s in enumerate(table[sub]):
                        if s[1]:
                            acc[r] = kernels.lp_add(acc[r],
                                                    kernels.lp_mul(c, s))
                out[w] = acc
            imgs[sign] = out
        return imgs, tgt

    def _check_raising_on_radical(self, i, nu, imgs, tgt):
        # The unrolled recursion is only well defined on the quotient if
        # it sends the relation ideal into the relation ideal; that it
        # does is a theorem, so any residue here means an arithmetic bug.
        # The images share one nonzero denominator, so the numerators
        # must vanish.
        ctx = self.ctx
        words = ctx.words(nu)
        m = ctx.dimension(tgt)
        for sign in _SIGNS:
            rows, _ = ctx.radical(nu)[sign]
            img = imgs[sign]
            for row in rows:
                acc = [kernels.LP_ZERO] * m
                for a, w in zip(row, words):
                    if not a[1]:
                        continue
                    for r, s in enumerate(img[w]):
                        if s[1]:
                            acc[r] = kernels.lp_add(acc[r],
                                                    kernels.lp_mul(a, s))
                if any(x[1] for x in acc):
                    raise ArithmeticError(
                        "raising recursion is inconsistent on the relation "
                        f"ideal at weight {nu} (generator "
                        f"{self.datum.indices[i]}, pi={sign:+d})")

    def _build_kernel(self, sign, nu):
        ctx = self.ctx
        n = ctx.dimension(nu)
        key = (sign, nu)
        if height(nu) == 0:
            self._nrows[key], self._npiv[key] = [], []
            self._free[key] = list(range(n))
        else:
            stacked = []
            rank = self.datum.rank
            for i in range(rank):
                if not nu[i]:
                    continue
                tgt = weight_sub(nu, unit_weight(rank, i))
                trows = self._nrows[(sign, tgt)]
                tpiv = self._npiv[(sign, tgt)]
                mat = self._e_pivot[(sign, i, nu)]
                m = len(mat)
                cols = []
                for cidx in range(n):
                    col = [mat[r][cidx] for r in range(m)]
                    cols.append(_reduce_mod(trows, tpiv, col))
                stacked.extend(
                    [cols[cidx][r] for cidx in range(n)] for r in range(m))
            null = linalg.kernel(stacked, n)
            self._nrows[key], self._npiv[key] = linalg.rref(null, n)
            hit = set(self._npiv[key])
            self._free[key] = [c for c in range(n) if c not in hit]
        pw = ctx.pivots(nu)
        self._basis[key] = [pw[c] for c in self._free[key]]

    def _project_op(self, pivot_mat, sign, free_src, tgt):
        trows = self._nrows[(sign, tgt)]
        tpiv = self._npiv[(sign, tgt)]
        tfree = self._free[(sign, tgt)]
        m = len(pivot_mat)
        cols = []
        for c in free_src:
            col = [pivot_mat[r][c] for r in range(m)]
            col = _reduce_mod(trows, tpiv, col)
            cols.append([col[r] for r in tfree])
        return [[cols[ci][r] for ci in range(len(free_src))]
                for r in range(len(tfree))]

    def _build_quotient_ops(self, sign, nu):
        rank = self.datum.rank
        free_src = self._free[(sign, nu)]
        for i in range(rank):
            if nu[i]:
                tgt = weight_sub(nu, unit_weight(rank, i))
                self._eop[(sign, i, nu)] = self._project_op(
                    self._e_pivot[(sign, i, nu)], sign, free_src, tgt)
            if height(nu) < self.hmax:
                tgt = weight_add(nu, unit_weight(rank, i))
                mat = self._f_pivot[(sign, i, nu)]
                m = len(mat)
                trows = self._nrows[(sign, tgt)]
                tpiv = self._npiv[(sign, tgt)]
                for row in self._nrows[(sign, nu)]:
                    img = []
                    for r in range(m):
                        acc = RF_ZERO
                        for t, f in enumerate(row):
                            if f:
                                comp = mat[r][t]
                                if comp:
                                    acc = acc + f * comp
                        img.append(acc)
                    if any(_reduce_mod(trows, tpiv, img)):
                        raise ArithmeticError(
                            "lowering action escapes the raising kernel at "
                            f"weight {nu} (generator "
                            f"{self.datum.indices[i]}, pi={sign:+d})")
                self._fop[(sign, i, nu)] = self._project_op(
                    mat, sign, free_src, tgt)

    # -- basic queries -----------------------------------------------

    def dimension(self, nu, sign):
        key = (sign, tuple(nu))
        if key not in self._free:
            raise ValueError(f"weight {nu} is outside the truncation window")
        return len(self._free[key])

    def space(self, nu, sign):
        """Basis of the block at depth nu: surviving pivot words."""
        key = (sign, tuple(nu))
        if key not in self._basis:
            raise ValueError(f"weight {nu} is outside the truncation window")
        return list(self._basis[key])

    def block_weight(self, nu):
        return weight_sub(self.lam, self.root.weight_in_X(nu))

    def pairing_at(self, i, nu):
        """<i, lam - nu'> without leaving the root-lattice indexing."""
        datum = self.datum
        return self._pair_lam[i] - sum(
            c * datum.a(i, l) for l, c in enumerate(nu) if c)

    def k_scalar(self, mu, nu):
        """Diagonal action of the v-grouplike for mu on the block at nu."""
        return PiScalar.v_power(self.root.pair(mu, self.block_weight(nu)))

    def j_scalar(self, mu, nu):
        """Diagonal action of the pi-grouplike for mu on the block at nu."""
        return PiScalar.pi_power(self.root.pair(mu, self.block_weight(nu)))

    def word_operator(self, sign, nu, word, exponent_fn=None):
        """Matrix of a composite generator word on the block at nu.

        word is a sequence of ("E"|"F", index) pairs, leftmost factor
        applied last.  exponent_fn(kind, i, mu) contributes a t-power per
        factor, evaluated at the module weight mu the factor is applied
        to; None means the bare operators.  Returns (matrix, final_depth)
        with matrix None when some intermediate block is empty for weight
        reasons (the composite is then zero).  Raises TruncationBoundary
        when a lowering step would leave the window.
        """
        rank = self.datum.rank
        nu = tuple(nu)
        n0 = self.dimension(nu, sign)
        mat = linalg.identity(n0)
        texp = 0
        cur = nu
        broken = False
        for kind, i in reversed(tuple(word)):
            step = unit_weight(rank, i)
            nxt = (weight_add(cur, step) if kind == "F"
                   else weight_sub(cur, step))
            if not broken:
                if kind == "F" and height(nxt) > self.hmax:
                    raise TruncationBoundary(
                        f"lowering past height {self.hmax} from {cur}")
                if min(nxt) < 0:
                    broken = True
                else:
                    if exponent_fn is not None:
                        texp += exponent_fn(kind, i, self.block_weight(cur))
                    op = (self._fop[(sign, i, cur)] if kind == "F"
                          else self._eop[(sign, i, cur)])
                    mat = _mul(op, mat, n0)
            cur = nxt
        if broken or min(cur) < 0:
            return None, cur
        if exponent_fn is not None and texp:
            mat = _scale(mat, PiScalar.t_power(texp).specialize(sign))
        return mat, cur


def build_module(ctx, lam, hmax):
    """Build the truncated simple highest-weight module at lam."""
    return WeightModule(ctx, lam, hmax)


def character(module, sign):
    """Module weight -> block dimension, nonzero blocks only."""
    out = {}
    for nu in module.weights:
        d = module.dimension(nu, sign)
        if d:
            out[module.block_weight(nu)] = d
    return out


def character_report(module, sign):
    return {
        "lambda": list(module.lam),
        "pi": "+1" if sign > 0 else "-1",
        "character": [
            {"weight": list(w), "dim": d}
            for w, d in character(module, sign).items()
        ],
    }


# -- relation suites ----------------------------------------------------


def _serre_coeff(datum, i, j, k, twisted):
    """Coefficient of the k-th higher-order commutator term.

    The twisted flavor is the image of the straight one under the scalar
    twist, which is what the dressed generators must satisfy.
    """
    b = 1 - datum.a(i, j)
    pi_exp = comb(k, 2) * datum.p(i) + k * datum.p(i) * datum.p(j)
    if twisted:
        c = qbinomial(b, k, datum.d(i)).twist() * ((-PS_PI) ** pi_exp)
    else:
        c = qbinomial(b, k, datum.d(i)) * (PS_PI ** pi_exp)
    return -c if k % 2 else c


def _sgn_label(sign):
    return "+1" if sign > 0 else "-1"


def _commutator_entries(module, exponent_fn, twisted, entries):
    datum = module.datum
    rank = datum.rank
    labels = datum.indices
    pifac = {}
    for i in range(rank):
        for j in range(rank):
            base = (-PS_PI) if twisted else PS_PI
            pifac[(i, j)] = base ** (datum.p(i) * datum.p(j))
    for sign in _SIGNS:
        for nu in module.weights:
            n0 = module.dimension(nu, sign)
            interior = height(nu) + 1 <= module.hmax
            for i in range(rank):
                for j in range(rank):
                    ent = {"relation": "commutator", "i": labels[i],
                           "j": labels[j], "block": list(nu),
                           "pi": _sgn_label(sign)}
                    if not interior:
                        ent["status"] = "boundary-skipped"
                        entries.append(ent)
                        continue
                    ef, fin = module.word_operator(
                        sign, nu, (("E", i), ("F", j)), exponent_fn)
                    fe, _ = module.word_operator(
                        sign, nu, (("F", j), ("E", i)), exponent_fn)
                    if min(fin) < 0:
                        nt = 0
                    else:
                        nt = module.dimension(fin, sign)
                    lhs = ef if ef is not None else linalg.zeros(nt, n0)
                    if fe is not None:
                        lhs = _add_into(
                            [list(r) for r in lhs], fe,
                            -pifac[(i, j)].specialize(sign))
                    if i == j:
                        bra = qinteger_signed(
                            module.pairing_at(i, nu), datum.d(i))
                        if twisted:
                            bra = bra.twist()
                        c = bra.specialize(sign)
                        rhs = [[c if r == s else RF_ZERO
                                for s in range(n0)] for r in range(n0)]
                    else:
                        rhs = linalg.zeros(nt, n0)
                    same = len(lhs) == len(rhs) and all(
                        x == y for lr, rr in zip(lhs, rhs)
                        for x, y in zip(lr, rr))
                    ent["status"] = "pass" if same else "fail"
                    entries.append(ent)


def _serre_entries(module, exponent_fn, twisted, entries):
    datum = module.datum
    rank = datum.rank
    labels = datum.indices
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            b = 1 - datum.a(i, j)
            coeffs = [_serre_coeff(datum, i, j, k, twisted)
                      for k in range(b + 1)]
            for sign in _SIGNS:
                for nu in module.weights:
                    n0 = module.dimension(nu, sign)
                    for kind, relname in (("E", "serre-e"), ("F", "serre-f")):
                        ent = {"relation": relname, "i": labels[i],
                               "j": labels[j], "block": list(nu),
                               "pi": _sgn_label(sign)}
                        if (kind == "F"
                                and height(nu) + b + 1 > module.hmax):
                            ent["status"] = "boundary-skipped"
                            entries.append(ent)
                            continue
                        acc = None
                        fin_dim = 0
                        for k in range(b + 1):
                            word = ((kind, i),) * (b - k) + ((kind, j),) \
                                + ((kind, i),) * k
                            mat, fin = module.word_operator(
                                sign, nu, word, exponent_fn)
                            if acc is None:
                                if min(fin) < 0:
                                    fin_dim = 0
                                else:
                                    fin_dim = module.dimension(fin, sign)
                                acc = linalg.zeros(fin_dim, n0)
                            if mat is not None:
                                _add_into(acc, mat,
                                          coeffs[k].specialize(sign))
                        ent["status"] = "pass" if _is_zero(acc) else "fail"
                        entries.append(ent)


def _grouplike_entries(module, entries):
    """Diagonal generators: involution, additivity, and the conjugation
    of raising/lowering operators, on the bare module."""
    root = module.root
    datum = module.datum
    labels = datum.indices
    rank = datum.rank
    samples = [unit_weight(root.rankY, a) for a in range(root.rankY)]
    for nu in module.weights:
        wt = module.block_weight(nu)
        for a, mu in enumerate(samples):
            m = root.pair(mu, wt)
            ok = (PiScalar.pi_power(m) * PiScalar.pi_power(m) == PS_ONE)
            entries.append({"relation": "jk", "i": str(a), "block": list(nu),
                            "status": "pass" if ok else "fail"})
    for sign in _SIGNS:
        for nu in module.weights:
            if height(nu) + 1 > module.hmax:
                continue
            for i in range(rank):
                for a, mu in enumerate(samples):
                    fmat, fin = module.word_operator(sign, nu, (("F", i),))
                    lhs = _scale(fmat, _sp(module.k_scalar(mu, fin), sign))
                    c = PiScalar.v_power(
                        -root.pair(mu, root.weight_in_X(unit_weight(rank, i))))
                    rhs = _scale(fmat, _sp(c * module.k_scalar(mu, nu), sign))
                    ok = lhs == rhs
                    entries.append({
                        "relation": "k-weight", "i": labels[i], "j": str(a),
                        "block": list(nu), "pi": _sgn_label(sign),
                        "status": "pass" if ok else "fail"})
                    lhs = _scale(fmat, _sp(module.j_scalar(mu, fin), sign))
                    c = PiScalar.pi_power(
                        -root.pair(mu, root.weight_in_X(unit_weight(rank, i))))
                    rhs = _scale(fmat, _sp(c * module.j_scalar(mu, nu), sign))
                    ok = lhs == rhs
                    entries.append({
                        "relation": "j-weight", "i": labels[i], "j": str(a),
                        "block": list(nu), "pi": _sgn_label(sign),
                        "status": "pass" if ok else "fail"})


def verify_module_relations(module):
    """Check the defining relations as matrix identities on the module."""
    entries = []
    for sign in _SIGNS:
        d = module.dimension(weight_zero(module.datum.rank), sign)
        entries.append({"relation": "highest-space", "pi": _sgn_label(sign),
                        "status": "pass" if d == 1 else "fail"})
    _grouplike_entries(module, entries)
    _commutator_entries(module, None, False, entries)
    _serre_entries(module, None, False, entries)
    ok = all(e["status"] != "fail" for e in entries)
    return {"lambda": list(module.lam), "height": module.hmax,
            "pass": ok, "entries": entries}


# -- the modified twistor on weight blocks -------------------------------


class ModifiedTwistData:
    """t-exponent tables dressing the generators block by block.

    The lowering exponent is the twist-form pairing against the root part
    of the block weight; the raising exponent is its reflection.  mutate
    shifts every lowering exponent by one and serves as the negative
    control: the shift survives the raising/lowering bookkeeping
    separately but breaks the commutator relation wherever the bracket
    scalar is nonzero.
    """

    def __init__(self, ctx, mutate=False):
        self.datum = ctx.datum
        self.root = ctx.root
        self.tf = ctx.tf
        self.mutate = bool(mutate)

    def f_exponent(self, i, mu):
        e = self.tf.phi_dot(unit_weight(self.datum.rank, i), mu)
        return e + 1 if self.mutate else e

    def e_exponent(self, i, mu):
        d_i = self.datum.d(i)
        return d_i * self.root.pair_index(i, mu) \
            - self.tf.phi_dot(unit_weight(self.datum.rank, i), mu)

    def exponent(self, kind, i, mu):
        if kind == "F":
            return self.f_exponent(i, mu)
        return self.e_exponent(i, mu)


def _scalar_entries(module, data, entries):
    """Sign-free bookkeeping identities behind the dressed operators."""
    datum = module.datum
    labels = datum.indices
    for i in range(datum.rank):
        d_i = datum.d(i)
        n = module.pairing_at(i, weight_zero(datum.rank))
        bra = qinteger_signed(n, d_i)
        ok = bra.twist() == PiScalar.t_power(d_i * (n - 1)) * bra
        entries.append({"relation": "commutator-top-scalar", "i": labels[i],
                        "status": "pass" if ok else "fail"})
        e = data.e_exponent(i, module.lam)
        f = data.f_exponent(i, module.lam)
        ok = (PiScalar.t_power(4 * e) == PS_ONE
              and PiScalar.t_power(4 * f) == PS_ONE)
        x = bra
        for _ in range(4):
            x = x.twist()
        ok = ok and x == bra and PS_PI.twist().twist() == PS_PI
        entries.append({"relation": "order-4", "i": labels[i],
                        "status": "pass" if ok else "fail"})
        for n_div in range(2, min(module.hmax, 4) + 1):
            qf = qfactorial(n_div, d_i)
            ok = qf.twist() == PiScalar.t_power(
                d_i * comb(n_div, 2)) * qf
            # total lowering dressing of the n-th divided power, with the
            # factorial twist taken back out
            mu = module.lam
            total = 0
            for _ in range(n_div):
                total += data.f_exponent(i, mu)
                mu = weight_sub(
                    mu, module.root.weight_in_X(
                        unit_weight(datum.rank, i)))
            m = total - d_i * comb(n_div, 2)
            entries.append({"relation": "divided-power-f", "i": labels[i],
                            "j": str(n_div), "exponent": m,
                            "status": "pass" if ok else "fail"})


def verify_modified_twistor(module, mutate=False):
    """Blockwise check that the dressed generators satisfy the twisted
    defining relations on the module."""
    data = ModifiedTwistData(module.ctx, mutate=mutate)
    entries = []
    _scalar_entries(module, data, entries)
    _commutator_entries(module, data.exponent, True, entries)
    _serre_entries(module, data.exponent, True, entries)
    ok = all(e["status"] != "fail" for e in entries)
    return {"lambda": list(module.lam), "height": module.hmax,
            "mutated": bool(mutate), "pass": ok, "entries": entries}


# -- the clubsuit congruence ---------------------------------------------


def clubsuit_congruence(ctx, i, j, k):
    """Check the mod-4 exponent congruence behind the higher-order
    commutator terms of the dressed operators (i != j, 0 <= k <= b)."""
    datum = ctx.datum
    tf = ctx.tf
    if i == j:
        raise ValueError("the congruence needs two distinct indices")
    b = 1 - datum.a(i, j)
    if not 0 <= k <= b:
        raise ValueError(f"k must lie in [0, {b}]")
    rank = datum.rank
    u_i = unit_weight(rank, i)
    u_j = unit_weight(rank, j)
    club = (k * (b - k) * datum.d(i) + (b - k) * tf.phi(u_i, u_j)
            + k * tf.phi(u_j, u_i))
    pp = datum.p(i) * datum.p(j)
    if i < j:
        const = 2 * b * pp
    else:
        const = datum.a(i, j) * b * datum.d(i)
    target = 2 * comb(k, 2) * datum.d(i) + 2 * k * pp + const
    return (club - target) % 4 == 0


def clubsuit_report(ctx):
    datum = ctx.datum
    entries = []
    for i in range(datum.rank):
        for j in range(datum.rank):
            if i == j:
                continue
            b = 1 - datum.a(i, j)
            for k in range(b + 1):
                ok = clubsuit_congruence(ctx, i, j, k)
                entries.append({"relation": "clubsuit",
                                "i": datum.indices[i], "j": datum.indices[j],
                                "k": k, "status": "pass" if ok else "fail"})
    return {"pass": all(e["status"] == "pass" for e in entries),
            "entries": entries}


# -- the extension by diagonal grading operators -------------------------


class _HatDressing:
    """Per-factor t-exponents read off the diagonal extension operators.

    Lowering carries the grading diagonal at its source; raising carries
    the inverse grading diagonal and the coroot translation at its
    target, with one fixed t-power peeled off.
    """

    def __init__(self, module, mutate=False):
        self.module = module
        self.tf = module.tf
        self.root = module.root
        self.datum = module.datum
        self.shift = 1 if mutate else 0

    def upsilon(self, mu, wt):
        return self.tf.phi_dot(mu, wt)

    def f_exponent(self, i, wt):
        u_i = unit_weight(self.datum.rank, i)
        return self.upsilon(u_i, wt) + self.shift

    def e_exponent(self, i, wt_src):
        datum = self.datum
        u_i = unit_weight(datum.rank, i)
        wt_tgt = weight_add(wt_src, self.root.weight_in_X(u_i))
        return (-datum.d(i) - self.upsilon(u_i, wt_tgt)
                + datum.d(i) * self.root.pair_index(i, wt_tgt))

    def exponent(self, kind, i, mu):
        if kind == "F":
            return self.f_exponent(i, mu)
        return self.e_exponent(i, mu)


def verify_hat_twistor(module, mutate=False):
    """Check the diagonal-extension route to the twisted relations.

    The translation and grading operators act on each block by explicit
    t-powers; the images of the generators under the extended map are
    those operators composed with raising/lowering, and they must satisfy
    the same twisted relations, block by block, as the weight-table
    dressing (which the consistency entries compare against).
    """
    root = module.root
    tf = module.tf
    datum = module.datum
    labels = datum.indices
    rank = datum.rank
    dress = _HatDressing(module, mutate=mutate)
    table = ModifiedTwistData(module.ctx)
    entries = []

    y_samples = [unit_weight(root.rankY, a) for a in range(root.rankY)]
    ups_samples = [unit_weight(rank, i) for i in range(rank)]
    for nu in module.weights:
        wt = module.block_weight(nu)
        status = "pass"
        for mu1 in y_samples:
            for mu2 in y_samples:
                a, b = root.pair(mu1, wt), root.pair(mu2, wt)
                if PiScalar.t_power(a) * PiScalar.t_power(b) \
                        != PiScalar.t_power(root.pair(
                            weight_add(mu1, mu2), wt)):
                    status = "fail"
        for m1 in ups_samples:
            for m2 in ups_samples:
                if tf.phi_dot(weight_add(m1, m2), wt) \
                        != tf.phi_dot(m1, wt) + tf.phi_dot(m2, wt):
                    status = "fail"
        entries.append({"relation": "t-additivity", "block": list(nu),
                        "status": status})
        status = "pass"
        for mu in y_samples:
            m = root.pair(mu, wt)
            k_im = PiScalar.t_power(-m) * PiScalar.v_power(m)
            if k_im != PiScalar.v_power(m).twist():
                status = "fail"
            j_im = PiScalar.t_power(2 * m) * PiScalar.pi_power(m)
            if j_im != PiScalar.pi_power(m).twist():
                status = "fail"
            if j_im * j_im != PS_ONE or PiScalar.t_power(4 * m) != PS_ONE:
                status = "fail"
        entries.append({"relation": "jk-image", "block": list(nu),
                        "status": status})

    for sign in _SIGNS:
        for nu in module.weights:
            if height(nu) + 1 > module.hmax:
                continue
            wt = module.block_weight(nu)
            for i in range(rank):
                i_pr = root.weight_in_X(unit_weight(rank, i))
                fmat, fin = module.word_operator(
                    sign, nu, (("F", i),), dress.exponent)
                wt_f = module.block_weight(fin)
                status = "pass"
                for mu in y_samples:
                    lhs = _scale(fmat, _sp(
                        PiScalar.t_power(-root.pair(mu, wt_f))
                        * PiScalar.v_power(root.pair(mu, wt_f)), sign))
                    c = PiScalar.v_power(-root.pair(mu, i_pr)).twist() \
                        * PiScalar.t_power(-root.pair(mu, wt)) \
                        * PiScalar.v_power(root.pair(mu, wt))
                    if lhs != _scale(fmat, _sp(c, sign)):
                        status = "fail"
                entries.append({
                    "relation": "k-weight", "i": labels[i], "block": list(nu),
                    "pi": _sgn_label(sign), "status": status})
                status = "pass"
                for mu in y_samples:
                    lhs = _scale(fmat, _sp(
                        PiScalar.t_power(2 * root.pair(mu, wt_f))
                        * PiScalar.pi_power(root.pair(mu, wt_f)), sign))
                    c = PiScalar.pi_power(-root.pair(mu, i_pr)).twist() \
                        * PiScalar.t_power(2 * root.pair(mu, wt)) \
                        * PiScalar.pi_power(root.pair(mu, wt))
                    if lhs != _scale(fmat, _sp(c, sign)):
                        status = "fail"
                entries.append({
                    "relation": "j-weight", "i": labels[i], "block": list(nu),
                    "pi": _sgn_label(sign), "status": status})

    for nu in module.weights:
        wt = module.block_weight(nu)
        for i in range(rank):
            ok_e = dress.e_exponent(i, wt) == table.e_exponent(i, wt)
            ok_f = dress.f_exponent(i, wt) == table.f_exponent(i, wt)
            entries.append({"relation": "hat-dot-consistency",
                            "i": labels[i], "block": list(nu),
                            "status": "pass" if ok_e and ok_f else "fail"})

    _commutator_entries(module, dress.exponent, True, entries)
    _serre_entries(module, dress.exponent, True, entries)
    ok = all(e["status"] != "fail" for e in entries)
    return {"lambda": list(module.lam), "height": module.hmax,
            "mutated": bool(mutate), "pass": ok, "entries": entries}


# -- the intertwining square ---------------------------------------------


def _chi_lower_exponent(module):
    def fn(kind, i, mu):
        if kind != "F":
            raise ValueError("the square only involves lowering words")
        return -module.tf.phi_dot(
            unit_weight(module.datum.rank, i), mu)
    return fn


def verify_chi_diagram(module, x):
    """Both routes around the intertwining square agree on x.

    One way: push x through the half-algebra twistor, act by the lowering
    word, and correct by the grading diagonal at the source block.  Other
    way: twist the coefficients and act letter by letter with the
    diagonal-dressed lowering operators.  Checked as operators on every
    block the truncation can represent, for both specializations.
    """
    ctx = module.ctx
    rank = module.datum.rank
    if not x.terms:
        return True
    nu = x.homogeneous_weight(rank)
    psi_x = ctx.free.twistor(x)
    dressed = _chi_lower_exponent(module)
    for sign in _SIGNS:
        for delta in module.weights:
            if height(delta) + height(nu) > module.hmax:
                continue
            n0 = module.dimension(delta, sign)
            fin_dim = module.dimension(weight_add(delta, nu), sign)
            corr = PiScalar.t_power(
                -module.tf.phi_dot(nu, module.block_weight(delta)))
            lhs = linalg.zeros(fin_dim, n0)
            for w, c in psi_x.terms.items():
                mat, _ = module.word_operator(
                    sign, delta, tuple(("F", k) for k in w))
                _add_into(lhs, mat, (c * corr).specialize(sign))
            rhs = linalg.zeros(fin_dim, n0)
            for w, c in x.terms.items():
                mat, _ = module.word_operator(
                    sign, delta, tuple(("F", k) for k in w), dressed)
                _add_into(rhs, mat, c.twist().specialize(sign))
            if lhs != rhs:
                return False
    return True


def chi_suite(module, hmax_words):
    """Run the intertwining square over all generator monomials up to the
    requested length."""
    fa = module.ctx.free
    datum = module.datum
    entries = []
    words = [()]
    for _ in range(hmax_words):
        words = [w + (i,) for w in words for i in range(datum.rank)]
        for w in words:
            x = fa.monomial(w)
            ok = verify_chi_diagram(module, x)
            entries.append({
                "element": "".join(datum.indices[k] for k in w),
                "status": "pass" if ok else "fail"})
    return {"lambda": list(module.lam), "height": hmax_words,
            "pass": all(e["status"] == "pass" for e in entries),
            "entries": entries}
