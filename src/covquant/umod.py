"""Truncated highest-weight modules over the covering quantum group.

Weight spaces are indexed by depth vectors nu (nonnegative root-lattice
coordinates, height <= hmax); the space at nu sits at module weight
lam - nu' and is the span of the free words of weight nu modulo the
joint kernel of the raising maps.  The half algebra's radical lies in
that kernel, so the build never forms it.  The raising action is unrolled
from the commutator recursion, lowering is left concatenation, and the
grouplike generators act diagonally.

The module is built in one pass over the weights in height order.  The
raising image of a word is a sparse column over the words one level
down, bracket scalars at the subwords its letters leave, and the
lowering image is the unit column of the concatenated word.  Each column
is reduced once modulo the kernel at its target, by summing the classes
of its words; one linalg.kernel call on the stacked raising columns gives
the kernel at a weight, whose pivot columns name the quotient basis, and
the quotient operators are slices of the reduced columns.

On top of the bare module the suites here dress the generators with
t-power tables and check, block by block, that the dressed operators
satisfy the sign-twisted defining relations: once for the weight-table
form of the twistor and once via the diagonal extension operators, plus
the intertwining square that ties the half-algebra twistor to the latter.

Composite operators are memoized per module: the bare product of a word
is built once per (sign, block, word), as the generator matrix of its
first letter times the memoized product of the rest, and is shared by
every suite and caller, read-only.  A dressed word is t^texp times its
bare product, and the suites fold t^texp into the scalar coefficient
they already multiply by, so no matrix is scaled.  The commutator
brackets and Serre coefficients are built once per module as well.
"""

from math import comb

from . import linalg
from .cartan import height, unit_weight, weight_add, weight_sub, weight_zero
from .halfqg import serre_coefficient
from .scalars import PS_ONE, PS_PI, RF_ONE, RF_ZERO, GaussianRational, \
    PiScalar, RationalFn, SIGNS, qfactorial, qinteger_signed


class TruncationBoundary(Exception):
    """A composite operator stepped outside the truncation window."""


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


def _word_classes(kern):
    """The class of every word on the quotient pivots of kern, as (slot,
    entry) pairs: a pivot word is 1 at its own slot, and a lead word is
    minus its basis vector there, which is 1 at that lead and 0 at the
    other leads."""
    basis, leads, pivots = kern
    out = [None] * (len(leads) + len(pivots))
    for k, c in enumerate(pivots):
        out[c] = ((k, RF_ONE),)
    for vec, c in zip(basis, leads):
        out[c] = tuple((k, -vec[r]) for k, r in enumerate(pivots) if vec[r])
    return out


def _reduce(kern, col):
    """A sparse column {word index: scalar} modulo the kernel kern, read at
    its quotient pivots: the sum of each entry times its word's class."""
    _, _, pivots, classes = kern
    out = [RF_ZERO] * len(pivots)
    for t, c in col.items():
        for k, x in classes[t]:
            y = c if x is RF_ONE else x if c is RF_ONE else c * x
            out[k] = out[k] + y if out[k] else y
    return out


def _project(cols, src, nrows):
    """The quotient operator: the reduced columns at the source's quotient
    pivots src, as an nrows x len(src) matrix."""
    return [[cols[c][r] for c in src] for r in range(nrows)]


def _mul(a, b, ncols):
    """Matrix product a.b where b has ncols columns (either side may have
    zero rows)."""
    out = []
    for row in a:
        terms = [(x, b[t]) for t, x in enumerate(row) if x]
        new = []
        for c in range(ncols):
            acc = RF_ZERO
            for x, brow in terms:
                y = brow[c]
                if y:
                    acc = acc + x * y if acc else x * y
            new.append(acc)
        out.append(new)
    return out


def _add_into(acc, mat, c):
    """acc += c * mat in place; mat is only read."""
    if not c:
        return acc
    for arow, row in zip(acc, mat):
        for s, x in enumerate(row):
            if x:
                y = x if c is RF_ONE else c * x
                arow[s] = arow[s] + y if arow[s] else y
    return acc


# t^k for k mod 4 as a field scalar; t does not depend on pi
_T_POWER = tuple(RationalFn(GaussianRational.t_power(k)) for k in range(4))


def _dressed(c, texp):
    """The field scalar c * t^texp."""
    k = texp % 4
    return c * _T_POWER[k] if k else c


def _is_zero(mat):
    return all(not x for row in mat for x in row)


def _relation_holds(module, sign, nu, fin, terms, diag=None):
    """Whether the sum of c * mat over the (mat, c) pairs in terms, maps
    from the block at nu to the block at fin, equals diag times the
    identity (zero when diag is None).  A pair whose matrix is None (a
    zero composite) is skipped, so its scalar may be None too."""
    nrows = 0 if min(fin) < 0 else module.dimension(fin, sign)
    ncols = module.dimension(nu, sign)
    acc = linalg.zeros(nrows, ncols)
    for mat, c in terms:
        if mat is not None:
            _add_into(acc, mat, c)
    if diag is None:
        return _is_zero(acc)
    return nrows == ncols and all(
        x == (diag if r == s else RF_ZERO)
        for r, row in enumerate(acc) for s, x in enumerate(row))


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
        self._serre = {}
        self._products = {}
        self._index = {}
        self._kernels = {}
        self._eop = {}
        self._fop = {}
        for nu in self.weights:
            self._build_weight(nu)

    # -- construction ------------------------------------------------

    def _build_weight(self, nu):
        """N(lam)_nu, the quotient basis and every generator matrix between
        nu and a block nu - i, which height order has already built, for
        both signs.  The raising columns out of nu and the lowering
        columns into nu are each reduced once, modulo the target kernel;
        the lowering ones must kill N(lam)_(nu - i)."""
        words = self.ctx.words(nu)
        index = self._index[nu] = {w: t for t, w in enumerate(words)}
        down = {i: self._raising_images(i, nu)
                for i in range(self.datum.rank) if nu[i]}
        for sign in SIGNS:
            raising = {}
            stacked = []
            for i, (imgs, low) in down.items():
                lkern = self._kernels[(sign, low)]
                raising[i] = [_reduce(lkern, col) for col in imgs[sign]]
                stacked.extend(zip(*raising[i]))
            kern = linalg.kernel(stacked, len(words)) if down \
                else ([], [], list(range(len(words))))
            # (basis, leads, pivots, classes): _reduce's data at nu
            kern += (_word_classes(kern),)
            self._kernels[(sign, nu)] = kern
            piv = kern[2]
            for i, (_, low) in down.items():
                lbasis, _, lpiv, _ = self._kernels[(sign, low)]
                self._eop[(sign, i, nu)] = _project(raising[i], piv,
                                                    len(lpiv))
                lowering = [_reduce(kern, {index[(i,) + w]: RF_ONE})
                            for w in self.ctx.words(low)]
                if not _is_zero(_mul(lbasis, lowering, len(piv))):
                    raise ArithmeticError(
                        "lowering action escapes the raising kernel at "
                        f"weight {low} (generator "
                        f"{self.datum.indices[i]}, pi={sign:+d})")
                self._fop[(sign, i, low)] = _project(lowering, lpiv,
                                                     len(piv))

    def bracket(self, n, d, twisted=False):
        """The commutator scalar qinteger_signed(n, d), twisted when asked;
        built once per module and key."""
        key = (n, d, twisted)
        got = self._brackets.get(key)
        if got is None:
            got = self.bracket(n, d).twist() if twisted \
                else qinteger_signed(n, d)
            self._brackets[key] = got
        return got

    def serre_coefficients(self, i, j, twisted=False):
        """Coefficients of the Serre relation for (i, j), twisted when
        asked; built once per module and key."""
        key = (i, j, twisted)
        got = self._serre.get(key)
        if got is None:
            if twisted:
                got = [c.twist() for c in self.serre_coefficients(i, j)]
            else:
                b = 1 - self.datum.a(i, j)
                got = [serre_coefficient(self.datum, i, j, k)
                       for k in range(b + 1)]
            self._serre[key] = got
        return got

    def _raising_images(self, i, nu):
        """Raising image of every word of nu as a sparse column over the
        words one level down: {sign: [{word index: scalar}]} in the order
        of ctx.words(nu).  The word surgery is independent of the highest
        weight; only the bracket scalars see lam."""
        datum = self.datum
        tgt = weight_sub(nu, unit_weight(datum.rank, i))
        index = self._index[tgt]
        d_i = datum.d(i)
        n_i = self._pair_lam[i]
        removals = [[(index[sub], parity, self.bracket(n_i - offset, d_i))
                     for sub, parity, offset in _removals(w, i, datum)]
                    for w in self.ctx.words(nu)]
        imgs = {}
        for sign in SIGNS:
            cols = []
            for rems in removals:
                col = {}
                for t, parity, q in rems:
                    c = q.specialize(sign)
                    if not c:
                        continue
                    if parity and sign < 0:
                        c = -c
                    col[t] = col[t] + c if t in col else c
                cols.append(col)
            imgs[sign] = cols
        return imgs, tgt

    # -- basic queries -----------------------------------------------

    def _kernel(self, nu, sign):
        got = self._kernels.get((sign, tuple(nu)))
        if got is None:
            raise ValueError(f"weight {nu} is outside the truncation window")
        return got

    def dimension(self, nu, sign):
        return len(self._kernel(nu, sign)[2])

    def space(self, nu, sign):
        """Basis of the block at depth nu: the words at the pivot columns
        of the stacked raising matrix, i.e. those whose raising images are
        independent of the images of the words before them."""
        words = self.ctx.words(tuple(nu))
        return [words[c] for c in self._kernel(nu, sign)[2]]

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
        to; None means the bare operators.  Returns (matrix, texp,
        final_depth): the dressed operator is t^texp times the bare
        matrix, and matrix is None when some intermediate block is empty
        for weight reasons (the composite is then zero).  Raises
        TruncationBoundary when a lowering step would leave the window.

        The bare matrix is memoized per (sign, nu, word) and shared by
        every caller, so it must never be mutated.
        """
        nu = tuple(nu)
        word = tuple(word)
        mat, fin = self._product(sign, nu, word)
        texp = 0
        if exponent_fn is not None and mat is not None:
            cur = nu
            for kind, i in reversed(word):
                texp += exponent_fn(kind, i, self.block_weight(cur))
                cur = self._step(cur, kind, i)
        return mat, texp, fin

    def _step(self, cur, kind, i):
        step = unit_weight(self.datum.rank, i)
        return weight_add(cur, step) if kind == "F" else weight_sub(cur, step)

    def _product(self, sign, nu, word):
        """(bare matrix or None, final depth) of word on the block at nu:
        the generator matrix of word[0] times the memoized product of
        word[1:]."""
        key = (sign, nu, word)
        got = self._products.get(key)
        if got is not None:
            return got
        if not word:
            got = (linalg.identity(self.dimension(nu, sign)), nu)
        else:
            mat, cur = self._product(sign, nu, word[1:])
            kind, i = word[0]
            nxt = self._step(cur, kind, i)
            if mat is not None:
                if kind == "F" and height(nxt) > self.hmax:
                    raise TruncationBoundary(
                        f"lowering past height {self.hmax} from {cur}")
                if min(nxt) < 0:
                    mat = None
                else:
                    op = (self._fop[(sign, i, cur)] if kind == "F"
                          else self._eop[(sign, i, cur)])
                    mat = op if len(word) == 1 \
                        else _mul(op, mat, self.dimension(nu, sign))
            got = (mat, nxt)
        self._products[key] = got
        return got


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


def _sgn_label(sign):
    return "+1" if sign > 0 else "-1"


def character_report(module, sign):
    return {
        "lambda": list(module.lam),
        "pi": _sgn_label(sign),
        "character": [
            {"weight": list(w), "dim": d}
            for w, d in character(module, sign).items()
        ],
    }


# -- relation suites ----------------------------------------------------


def _commutator_entries(module, exponent_fn, twisted, entries):
    datum = module.datum
    rank = datum.rank
    labels = datum.indices
    pifac = {}
    for i in range(rank):
        for j in range(rank):
            base = (-PS_PI) if twisted else PS_PI
            pifac[(i, j)] = base ** (datum.p(i) * datum.p(j))
    for sign in SIGNS:
        for nu in module.weights:
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
                    ef, e_ef, fin = module.word_operator(
                        sign, nu, (("E", i), ("F", j)), exponent_fn)
                    fe, e_fe, _ = module.word_operator(
                        sign, nu, (("F", j), ("E", i)), exponent_fn)
                    # both sides divided by the unit t^e_ef, so EF stays bare
                    diag = None
                    if i == j:
                        diag = _dressed(module.bracket(
                            module.pairing_at(i, nu), datum.d(i),
                            twisted).specialize(sign), -e_ef)
                    same = _relation_holds(module, sign, nu, fin, (
                        (ef, RF_ONE),
                        (fe, None if fe is None else _dressed(
                            -pifac[(i, j)].specialize(sign), e_fe - e_ef))),
                        diag)
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
            words = {kind: [((kind, i),) * (b - k) + ((kind, j),)
                            + ((kind, i),) * k for k in range(b + 1)]
                     for kind in "EF"}
            # the dressed generators satisfy the twisted relation
            coeffs = module.serre_coefficients(i, j, twisted)
            for sign in SIGNS:
                for nu in module.weights:
                    for kind, relname in (("E", "serre-e"), ("F", "serre-f")):
                        ent = {"relation": relname, "i": labels[i],
                               "j": labels[j], "block": list(nu),
                               "pi": _sgn_label(sign)}
                        if (kind == "F"
                                and height(nu) + b + 1 > module.hmax):
                            ent["status"] = "boundary-skipped"
                            entries.append(ent)
                            continue
                        ops = [module.word_operator(sign, nu, w, exponent_fn)
                               for w in words[kind]]
                        ok = _relation_holds(module, sign, nu, ops[0][2], (
                            (mat, _dressed(coeffs[k].specialize(sign), texp))
                            for k, (mat, texp, _) in enumerate(ops)
                            if mat is not None))
                        ent["status"] = "pass" if ok else "fail"
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
    # K F = c F K on a block holds iff the two scalars agree or F is zero
    for sign in SIGNS:
        for nu in module.weights:
            if height(nu) + 1 > module.hmax:
                continue
            for i in range(rank):
                fmat, _, fin = module.word_operator(sign, nu, (("F", i),))
                f_zero = _is_zero(fmat)
                for a, mu in enumerate(samples):
                    m = -root.pair(mu, root.weight_in_X(unit_weight(rank, i)))
                    ok = f_zero or (
                        module.k_scalar(mu, fin).specialize(sign)
                        == (PiScalar.v_power(m)
                            * module.k_scalar(mu, nu)).specialize(sign))
                    entries.append({
                        "relation": "k-weight", "i": labels[i], "j": str(a),
                        "block": list(nu), "pi": _sgn_label(sign),
                        "status": "pass" if ok else "fail"})
                    ok = f_zero or (
                        module.j_scalar(mu, fin).specialize(sign)
                        == (PiScalar.pi_power(m)
                            * module.j_scalar(mu, nu)).specialize(sign))
                    entries.append({
                        "relation": "j-weight", "i": labels[i], "j": str(a),
                        "block": list(nu), "pi": _sgn_label(sign),
                        "status": "pass" if ok else "fail"})


def verify_module_relations(module):
    """Check the defining relations as matrix identities on the module."""
    entries = []
    for sign in SIGNS:
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
        bra = module.bracket(n, d_i)
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

    # The images of K_mu and J_mu commute past the dressed lowering
    # operator t^texp F up to a scalar.  Each side is a scalar times that
    # matrix, so an entry fails exactly when the two scalars differ at its
    # sign and F is nonzero (t^texp is a unit).  The scalars are
    # sign-free, so they are built once per (block, i, mu).
    weight_scalars = {}
    for nu in module.weights:
        if height(nu) + 1 > module.hmax:
            continue
        wt = module.block_weight(nu)
        for i in range(rank):
            i_pr = root.weight_in_X(unit_weight(rank, i))
            wt_f = module.block_weight(weight_add(nu, unit_weight(rank, i)))
            k_pairs, j_pairs = [], []
            for mu in y_samples:
                p, p_f = root.pair(mu, wt), root.pair(mu, wt_f)
                m = -root.pair(mu, i_pr)
                k_pairs.append((
                    PiScalar.t_power(-p_f) * PiScalar.v_power(p_f),
                    PiScalar.v_power(m).twist() * PiScalar.t_power(-p)
                    * PiScalar.v_power(p)))
                j_pairs.append((
                    PiScalar.t_power(2 * p_f) * PiScalar.pi_power(p_f),
                    PiScalar.pi_power(m).twist() * PiScalar.t_power(2 * p)
                    * PiScalar.pi_power(p)))
            weight_scalars[(nu, i)] = (("k-weight", k_pairs),
                                       ("j-weight", j_pairs))
    for sign in SIGNS:
        for nu in module.weights:
            if height(nu) + 1 > module.hmax:
                continue
            for i in range(rank):
                fmat, _, _ = module.word_operator(sign, nu, (("F", i),))
                f_zero = _is_zero(fmat)
                for relation, pairs in weight_scalars[(nu, i)]:
                    ok = f_zero or all(
                        lhs.specialize(sign) == rhs.specialize(sign)
                        for lhs, rhs in pairs)
                    entries.append({
                        "relation": relation, "i": labels[i],
                        "block": list(nu), "pi": _sgn_label(sign),
                        "status": "pass" if ok else "fail"})

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
    twisted = {w: c.twist() for w, c in x.terms.items()}
    dressed = _chi_lower_exponent(module)
    words = sorted(set(psi_x.terms) | set(x.terms))

    def terms(sign, delta, corr):
        # lhs - rhs, collected per word: both routes act by the same bare
        # lowering words, with the dressing folded into scalars
        for w in words:
            mat, texp, _ = module.word_operator(
                sign, delta, tuple(("F", k) for k in w), dressed)
            c = RF_ZERO
            if w in psi_x.terms:
                c = (psi_x.terms[w] * corr).specialize(sign)
            if w in twisted:
                c = c - _dressed(twisted[w].specialize(sign), texp)
            yield mat, c

    for sign in SIGNS:
        for delta in module.weights:
            if height(delta) + height(nu) > module.hmax:
                continue
            corr = PiScalar.t_power(
                -module.tf.phi_dot(nu, module.block_weight(delta)))
            if not _relation_holds(module, sign, delta, weight_add(delta, nu),
                                   terms(sign, delta, corr)):
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
