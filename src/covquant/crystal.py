"""i-string decompositions, Kashiwara operators, the crystal lattice and
its signed basis, the canonical basis with its twistor exponent, and the
lattice-level verification reports.

The lattice L at a weight is the A-span of that weight's f_tilde images,
where A is the ring of rational functions regular at v = 0 (one copy per
pi-component).  The form makes L self-dual (Kashiwara's polarization of
L(infinity)), so generation reads it through pairings and eliminates
nothing.  Pivot-word coordinates alone are not enough: a divided power
like theta^(2) has pivot coordinate v/(1 + v^2), so its class mod vL is
invisible there.

Per sign and weight, generation takes the images in order; one whose
pairings with the crystal reps found so far all vanish at v = 0 is a new
rep r_b, and its self-pairing must be sigma_b = +-1 mod v.  Every image
must pair into A with every rep, as a sign unit at exactly one rep, and
there must be dim f_nu reps: then the reps are an A-basis of L.  So x is
in L iff every (x, r_b) is in A, and then x = sum_b sigma_b (x, r_b)(0)
r_b mod vL: n pairings, no elimination.  The canonical basis reads its
candidates the same way: the lowest-order terms of their pairings with
the reps are those of their coordinates over the reps.
"""

from .freealg import FreeElement
from .scalars import (
    G_ONE,
    GaussianRational,
    LP_ONE,
    LaurentPoly,
    PS_ONE,
    PiScalar,
    RationalFn,
    SIGNS,
)


class StringDecomposition:
    """Parts (n, x_n) of x = sum theta_i^{(n)} x_n with e_i'(x_n) = 0."""

    __slots__ = ("i", "parts")

    def __init__(self, i, parts):
        self.i = i
        self.parts = parts

    def part(self, n):
        for m, x in self.parts:
            if m == n:
                return x
        return FreeElement()

    def top(self):
        return max((n for n, _ in self.parts), default=-1)


def gamma_coefficient(ctx, i, n):
    """The scalar with (e_i')^n(theta_i^{(n)}) = gamma * 1, computed by
    actually applying the derivation in the free algebra."""
    el = ctx.free.divided_power(i, n)
    for _ in range(n):
        el = ctx.free.e_prime(i, el)
    return el.coefficient(())


def string_decompose(ctx, i, x):
    """Downward string recursion; raises if it stops making progress."""
    parts = []
    cur = ctx.reduce_element(x)
    prev_top = None
    while not cur.is_zero():
        tower = [cur]
        while True:
            nxt = ctx.reduce_element(ctx.free.e_prime(i, tower[-1]))
            if nxt.is_zero():
                break
            tower.append(nxt)
        n = len(tower) - 1
        if prev_top is not None and n >= prev_top:
            raise ArithmeticError(
                f"string decomposition stalled at index {n}")
        prev_top = n
        gamma = gamma_coefficient(ctx, i, n)
        x_n = tower[n].scale(PS_ONE / gamma)
        parts.append((n, x_n))
        cur = ctx.reduce_element(
            cur - ctx.free.mul(ctx.free.divided_power(i, n), x_n))
    parts.sort(key=lambda p: p[0])
    return StringDecomposition(i, parts)


def _shift_string(ctx, i, x, step):
    """Move every string part of x by step: sum theta_i^{(n + step)} x_n,
    dropping the parts where n + step < 0."""
    dec = string_decompose(ctx, i, x)
    out = FreeElement()
    for n, x_n in dec.parts:
        if n + step >= 0:
            out = out + ctx.free.mul(ctx.free.divided_power(i, n + step), x_n)
    return ctx.reduce_element(out)


def f_tilde(ctx, i, x):
    return _shift_string(ctx, i, x, 1)


def e_tilde(ctx, i, x):
    return _shift_string(ctx, i, x, -1)


def _bar_complete(c, k, sign):
    """The bar-invariant Laurent polynomial whose only term of degree <= 0
    is c v^k.  On the plus component bar sends v to 1/v, so v^k pairs
    with v^-k; on the minus component bar sends v to -1/v, so v^k pairs
    with (-1)^k v^-k.  The constant term is its own partner either way.
    """
    if not k:
        return LaurentPoly.const(c)
    return LaurentPoly({k: c, -k: c if sign == 1 or k % 2 == 0 else -c})


def _one_den(vec):
    """RationalFn entries as LaurentPoly numerators over one denominator,
    the product of their distinct denominators; it does not vanish at
    v = 0, as no factor does."""
    nums, den, seen = [a.num for a in vec], LP_ONE, []
    for d in (a.den for a in vec):
        if d != LP_ONE and d not in seen:
            seen.append(d)
            den = den * d
            nums = [n if a.den == d else n * d for n, a in zip(nums, vec)]
    return nums, den


def _pairing(nums, image):
    """The numerator sum_w nums[w] image[w] of a pairing."""
    return sum((a * b for a, b in zip(nums, image) if a and b), LaurentPoly())


def _leading(nums, den, dual):
    """(k, terms) for x with numerators nums over den: k <= 0 is the
    lowest order of any sigma_b (x, r_b), or 0 if all are in A, and terms
    holds each one's coefficient of v^k, one per (image of r_b, sigma_b,
    r_b's denominator) in dual."""
    pairs = [(_pairing(nums, image), sigma, den_b)
             for image, sigma, den_b in dual]
    k = min([p.valuation() for p, _, _ in pairs] + [0])
    den0 = den.coeff(0)
    return k, tuple(p.coeff(k) * sigma / (den0 * den_b.coeff(0))
                    for p, sigma, den_b in pairs)


def _residues(nums, den, dual):
    """sigma_b (x, r_b)(0) for each rep in dual, as in _leading; None
    when some (x, r_b) has a pole at v = 0."""
    k, terms = _leading(nums, den, dual)
    return None if k < 0 else terms


# Unit pairs (at pi = +1, at pi = -1) by which a residue pair may differ
# from a rep's own, each with the key a match reports: a sign per
# pi-component, and t^a pi^b, which is t^a at pi = +1 and t^(a + 2b) at
# pi = -1.
_SIGN_UNITS = tuple(((s, r), (GaussianRational(s), GaussianRational(r)))
                    for s in (1, -1) for r in (1, -1))
_TWIST_UNITS = tuple(((a, b), (GaussianRational.t_power(a),
                               GaussianRational.t_power(a + 2 * b)))
                     for a in range(4) for b in range(2))


def _unit_at(res, units):
    """(key, k) when the residue pair res, per sign a tuple over the reps,
    is the unit pair of key at rep k and 0 at every other rep; None if it
    is not."""
    hit = [k for side in res for k, g in enumerate(side) if g]
    if len(hit) != 2:
        return None
    pair = (res[0][hit[0]], res[1][hit[0]])
    return next(((key, hit[0]) for key, u in units if u == pair), None)


class CrystalElement:
    """A crystal class b with its lattice representative r_b, the class's
    first f_tilde image f_tilde_{i1} ... f_tilde_{ik} 1 for the label
    (i1, ..., ik), unscaled."""

    __slots__ = ("label", "weight", "rep")

    def __init__(self, label, weight, rep):
        self.label = label
        self.weight = weight
        self.rep = rep          # pivot-word representative

    def label_text(self, datum):
        return "".join(datum.indices[k] for k in self.label)


class CanonicalBasisElement:
    __slots__ = ("b", "G", "ell")

    def __init__(self, b, G, ell):
        self.b = b
        self.G = G
        self.ell = ell


class Crystal:
    """Breadth-first closure of 1 under the f_tilde operators up to a
    height bound, deduplicated in L/vL up to the unit group {±1, ±pi}."""

    def __init__(self, ctx, height):
        self.ctx = ctx
        self.height = height
        self.by_weight = {}
        self.elements = []
        self._duals = {}
        self._canonical = {}
        self._up = {}
        self._generate()

    # --- generation ----------------------------------------------------

    def _generate(self):
        ctx = self.ctx
        rank = ctx.datum.rank
        zero_wt = (0,) * rank
        shell = {zero_wt: [((), ctx.free.one())]}
        for h in range(self.height + 1):
            accepted = []
            for nu in sorted(shell):
                accepted.extend(self._process_weight(nu, shell[nu]))
            if h == self.height or not accepted:
                break
            shell = {}
            for el in accepted:
                for i in range(rank):
                    img = f_tilde(ctx, i, el.rep)
                    if img.is_zero():
                        raise ArithmeticError(
                            "f_tilde annihilated a crystal representative")
                    nu = tuple(a + (1 if k == i else 0)
                               for k, a in enumerate(el.weight))
                    shell.setdefault(nu, []).append(((i,) + el.label, img))

    def _process_weight(self, nu, candidates):
        """The crystal classes at nu from its f_tilde images (label, x),
        through the form on the pivot words.  A candidate whose pairings
        with the reps so far all vanish at v = 0 is a new rep, and its
        self-pairing must be +-1 mod v over A.  Then every candidate must
        pair into A with every rep, as a sign unit at exactly one rep,
        where its f_tilde edge goes, and the reps must number dim f_nu.
        So their pairing matrix is in GL_n(A) and diag(+-1) mod v, and
        they are an A-basis of L: every candidate's coordinates over them
        are that matrix's inverse times its pairings, in A."""
        ctx = self.ctx
        index = {w: t for t, w in enumerate(ctx.words(nu))}
        piv = [index[w] for w in ctx.pivots(nu)]
        gram = ctx.gram(nu)
        grams = {s: [[gram[s][i][j] for j in piv] for i in piv]
                 for s in SIGNS}
        duals = {s: [] for s in SIGNS}

        def residues(sides, s, start):
            got = _residues(*sides[s], duals[s][start:])
            if got is None:
                raise ArithmeticError(
                    f"an f_tilde image at weight {nu}, pi = {s}, pairs "
                    "with a crystal rep outside A")
            return got

        bucket, seen = [], []
        for label, x in candidates:
            pivot_words, coords = ctx.reduce_at(x, nu)
            if not all(c.in_lattice() for c in coords):
                raise ArithmeticError(
                    "a crystal generator has a pole at v = 0 in pivot "
                    f"coordinates at weight {nu}")
            sides = {s: _one_den([c.specialize(s) for c in coords])
                     for s in SIGNS}
            res = {s: residues(sides, s, 0) for s in SIGNS}
            seen.append((label, sides, res))
            if any(any(r) for r in res.values()):
                continue
            for s in SIGNS:
                nums, den = sides[s]
                image = [_pairing(row, nums) for row in grams[s]]
                p = _pairing(nums, image)
                den0 = den.coeff(0)
                sigma = p.coeff(0) / (den0 * den0)
                if p.valuation() < 0 or sigma not in (G_ONE, -G_ONE):
                    raise ArithmeticError(
                        f"a crystal rep's self-pairing at weight {nu}, pi = "
                        f"{s}, is not +-1 mod v over A")
                duals[s].append((image, sigma, den))
            rep = FreeElement(dict(zip(pivot_words, coords)))
            bucket.append(CrystalElement(label, nu, rep))
        if len(bucket) != ctx.dimension(nu):
            raise ArithmeticError(
                f"crystal class count {len(bucket)} differs from dim f_nu "
                f"{ctx.dimension(nu)} at weight {nu}")
        for label, sides, res in seen:
            for s in SIGNS:
                res[s] += residues(sides, s, len(res[s]))
            hit = _unit_at((res[1], res[-1]), _SIGN_UNITS)
            if hit is None:
                raise ArithmeticError(
                    f"an f_tilde image at weight {nu} is no sign unit "
                    "times one crystal class")
            self._record_edge(label, bucket[hit[1]].label, nu)
        self.by_weight[nu] = bucket
        self.elements.extend(bucket)
        self._duals[nu] = duals
        return bucket

    def _record_edge(self, came_as, child, nu):
        """Store the crystal-graph edge f_tilde_i: parent -> child class.
        came_as is (i,) + parent label; f_tilde is injective on classes,
        so a second parent for the same (i, child) pair is an error."""
        if not came_as:
            return
        key = (came_as[0], child)
        parent = came_as[1:]
        if self._up.setdefault(key, parent) != parent:
            raise ArithmeticError(
                f"two crystal classes share an f_tilde image at weight {nu}")

    # --- accessors -------------------------------------------------------

    def weights(self):
        return sorted(self.by_weight)

    def lattice_residues(self, x, nu):
        """x's class in L/vL over the weight's crystal reps r_b, per sign
        the tuple of sigma_b (x, r_b)(0); None when x is outside L, that
        is when some (x, r_b) has a pole at v = 0."""
        nu = tuple(nu)
        _, coords = self.ctx.reduce_at(x, nu)
        out = []
        for s in SIGNS:
            got = _residues(*_one_den([c.specialize(s) for c in coords]),
                            self._duals[nu][s])
            if got is None:
                return None
            out.append(got)
        return tuple(out)

    # --- canonical basis -----------------------------------------------

    def canonical_basis(self, nu):
        """Canonical basis elements at one weight, with twistor exponents.

        Each G(b) starts from the divided-power monomial of b's
        string-adapted word and subtracts bar-invariant multiples of
        already-computed G(b') until its pairings with the crystal
        representatives have no pole and no constant term away from b
        itself; the +-1/+-pi unit the monomial carries relative to the
        stored representative is divided out at the end.  Bar-invariance
        is preserved at every step because the corrections and the unit
        are bar-invariant, so the result is a bar-invariant element of L
        congruent to b mod vL.  Those two properties alone do not make it
        unique: that also takes integrality, G(b) in the integral form
        spanned by divided-power monomials over Z[v, v^-1], which is not
        certified here (ROADMAP.md, item 14).  The pairings are Laurent
        numerators against the representatives' stored images, read at
        their lowest order, where they agree with the coordinates over
        the representatives; no coordinates are solved for.
        """
        nu = tuple(nu)
        got = self._canonical.get(nu)
        if got is not None:
            return got
        ctx = self.ctx
        elements = self.by_weight.get(nu, [])
        if len(elements) != ctx.dimension(nu):
            raise ArithmeticError(
                f"crystal count {len(elements)} differs from dim f_nu "
                f"{ctx.dimension(nu)} at weight {nu}")
        n = len(elements)
        starts = [ctx.reduce_element(
                      self._monomial(self._adapted_word(el.label)))
                  for el in elements]
        G_elems = [None] * n
        for _ in range(n + 1):
            progress = False
            for t in range(n):
                if G_elems[t] is None:
                    G_elems[t] = self._correct(t, starts[t], G_elems, nu)
                    progress = progress or G_elems[t] is not None
            if all(g is not None for g in G_elems):
                break
            if not progress:
                raise ArithmeticError(
                    f"canonical basis correction cycled at weight {nu}")
        else:
            raise ArithmeticError(
                f"canonical basis correction did not terminate at {nu}")
        out = []
        for t, el in enumerate(elements):
            self._assert_triple(el, G_elems[t], nu)
            out.append(CanonicalBasisElement(
                el, G_elems[t], self._twistor_exponent(G_elems[t], nu)))
        self._canonical[nu] = out
        return out

    def _adapted_word(self, label):
        """String-adapted word for the class with this label, read off the
        crystal graph: repeatedly pick an index with a nonempty e_tilde
        string and climb it to the top.  Each run then has maximal length,
        which is what makes the collected monomial land on the class."""
        word = []
        cur = label
        while cur:
            i = min(i for i in range(self.ctx.datum.rank)
                    if (i, cur) in self._up)
            while (i, cur) in self._up:
                word.append(i)
                cur = self._up[(i, cur)]
        return tuple(word)

    def _monomial(self, word):
        """Run-length collect an index word into a divided-power monomial."""
        F = self.ctx.free
        out = F.one()
        t = 0
        while t < len(word):
            s = t
            while t < len(word) and word[t] == word[s]:
                t += 1
            out = F.mul(out, F.divided_power(word[s], t - s))
        return out

    def _leading_terms(self, z, nu):
        """Per sign, _leading of z, which lies on the pivot words, against
        the crystal reps at nu."""
        return {s: _leading(*_one_den([z.coefficient(w).specialize(s)
                                       for w in self.ctx.pivots(nu)]),
                            self._duals[nu][s])
                for s in SIGNS}

    def _correct(self, t, z, G_elems, nu):
        """Run the bar-invariant correction for class t from z, on the
        pivot words; returns the element on success and None when a
        needed G(b') is not available yet.

        z is read through its pairings with the reps.  Over the reps z
        has coordinates c, and sigma_j (z, r_j) = c_j + v (an A-span of
        the c_k), as the reps' pairing matrix is diag(sigma) mod v over
        A.  So at the lowest order k <= 0 of any pairing, the pairings'
        terms are the c_j's own, and c_j's term there changes only by a
        multiple of G(b_j) itself: each round takes those terms off and
        lowers the deepest pole by one, and G(b_j) is asked for only
        when the result has a G(b_j) term.
        """
        lead = self._leading_terms(z, nu)
        depth = max(-k for k, _ in lead.values())
        for _ in range(depth + 3):
            defects = [j for j in range(len(G_elems)) if j != t
                       and any(terms[j] for _, terms in lead.values())]
            if not defects:
                break
            if any(G_elems[j] is None for j in defects):
                return None
            for j in defects:
                r = PiScalar(*(RationalFn(_bar_complete(
                    lead[s][1][j], lead[s][0], s)) for s in SIGNS))
                z = z - G_elems[j].scale(r)
            lead = self._leading_terms(z, nu)
        else:
            raise ArithmeticError(
                f"canonical basis correction did not flatten the poles "
                f"at weight {nu}")
        units = {}
        for s in SIGNS:
            k, terms = lead[s]
            if k < 0 or not terms[t]:
                raise ArithmeticError(
                    f"adapted monomial is not triangular at weight {nu}")
            if terms[t] != G_ONE and terms[t] != -G_ONE:
                raise ArithmeticError(
                    f"adapted monomial sits over its class with a non-unit "
                    f"coefficient at weight {nu}")
            units[s] = terms[t]
        if units[1] != G_ONE or units[-1] != G_ONE:
            z = z.scale(PiScalar(RationalFn(units[1]), RationalFn(units[-1])))
        return self.ctx.reduce_element(z)

    def _twistor_exponent(self, G, nu):
        ctx = self.ctx
        _, gc = ctx.reduce_at(G, nu)
        _, pc = ctx.reduce_at(ctx.free.twistor(G), nu)
        lead = next(t for t, c in enumerate(gc) if not c.is_zero())
        ratio = pc[lead] / gc[lead]
        for ell in range(4):
            if ratio == PiScalar.t_power(ell):
                if all((pc[t] - gc[t] * ratio).is_zero()
                       for t in range(len(gc))):
                    return ell
                break
        raise ArithmeticError(
            f"twistor image of a canonical basis element at {nu} is not a "
            "t-power multiple of it")

    def _assert_triple(self, el, G, nu):
        ctx = self.ctx
        if not ctx.equal_in_f(ctx.free.bar(G), G):
            raise ArithmeticError(
                f"canonical basis element at {nu} is not bar-invariant")
        diff = self.lattice_residues(G - el.rep, nu)
        if diff is None or any(g for side in diff for g in side):
            raise ArithmeticError(
                f"canonical basis element at {nu} does not lie over its "
                "crystal class (difference escapes vL)")

    # --- verification reports --------------------------------------------

    def verify_psi_lattice(self):
        """Twistor stability of the lattice: for every crystal rep x,
        twistor(x) stays in L and, mod vL, equals t^a pi^b times some
        crystal image.  Returns a report dict."""
        ctx = self.ctx
        entries = []
        ok = True
        for el in self.elements:
            res = self.lattice_residues(ctx.free.twistor(el.rep), el.weight)
            match = None if res is None else _unit_at(res, _TWIST_UNITS)
            if match is None:
                ok = False
                entries.append({
                    "label": el.label_text(ctx.datum),
                    "weight": list(el.weight),
                    "in_lattice": res is not None,
                    "match": None,
                })
            else:
                (a, b), k = match
                target = self.by_weight[el.weight][k]
                entries.append({
                    "label": el.label_text(ctx.datum),
                    "weight": list(el.weight),
                    "in_lattice": True,
                    "ell_mod4": a,
                    "pi_power": b,
                    "target": target.label_text(ctx.datum),
                })
        return {"height": self.height, "pass": ok, "entries": entries}

    def verify_rho_lattice(self):
        """rho stability: rho of every crystal rep stays in the lattice."""
        ctx = self.ctx
        entries = []
        ok = True
        for el in self.elements:
            img = ctx.free.rho(el.rep)
            good = self.lattice_residues(img, el.weight) is not None
            ok = ok and good
            entries.append({
                "label": el.label_text(ctx.datum),
                "weight": list(el.weight),
                "in_lattice": good,
            })
        return {"height": self.height, "pass": ok, "entries": entries}
