"""Exact arithmetic in the coefficient tower Q(t)(v)[pi]/(pi^2-1), t^2 = -1.

The sign parameter pi is handled by component splitting: a scalar a + b*pi
is stored as the pair (plus, minus) = (a+b, a-b), each component living in
the rational function field Q(t)(v).  Specializing pi to +1 or -1 is then a
projection, and each component is a field, so linear algebra works
componentwise.

No floating point is used anywhere.  A rational component is a Python int
when it is integral and a fractions.Fraction only when it is not, so the
Gaussian integers that make up almost every coefficient never touch Fraction.

A LaurentPoly holds two component maps, re and im: exponent -> the real
part and exponent -> the coefficient of t, in that normal form, with no
zero entries.  A real polynomial has an empty im map, and every routine
(sum, product, scaling, the substitutions, division and gcd) skips the
imaginary work for it; GaussianRational is only the type of single values.

RationalFn normalizes a genuine denominator once per distinct input: the
result is kept in the module-level memo _NORMAL_FORMS, keyed by the exact
component data (exponents and values, in map order) of num and den as
given.  The memo holds at most _NORMAL_FORM_CAP entries, is emptied when
it is full, and lives as long as the process.
"""

from fractions import Fraction
from math import inf


def _exact(q):
    """An int, Fraction or other exact rational in normal form: int when
    integral, Fraction otherwise."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _div(a, b):
    """Exact quotient of two components: int when b divides a, Fraction
    otherwise (int / int never yields a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(a / b)


class GaussianRational:
    """re + im*t with t a square root of -1; each component is an int when
    integral and a Fraction otherwise."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _exact(re)
        self.im = im if type(im) is int else _exact(im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational(other)
        a, b = self.re, self.im
        c, d = other.re, other.im
        if not b and not d:
            return GaussianRational(a * c)
        # (a + bt)(c + dt) = ac - bd + (ad + bc)t
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational(other)
        c, d = other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero GaussianRational")
            return GaussianRational(_div(self.re, c), _div(self.im, c))
        a, b = self.re, self.im
        n = c * c + d * d
        return GaussianRational(_div(a * c + b * d, n), _div(b * c - a * d, n))

    def __pow__(self, k):
        out = G_ONE
        base = self
        if k < 0:
            base = G_ONE / self
            k = -k
        for _ in range(k):
            out = out * base
        return out

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    @staticmethod
    def t_power(k):
        """t^k, folded with t^2 = -1."""
        return (G_ONE, G_T, -G_ONE, -G_T)[k % 4]


G_ZERO = GaussianRational(0)
G_ONE = GaussianRational(1)
G_T = GaussianRational(0, 1)


def _norm(d):
    """Component map d without its zeros and with integral Fractions as
    ints."""
    return {e: x if type(x) is int else _exact(x) for e, x in d.items() if x}


def _combine(a, b, sign):
    """a + sign*b for component maps in normal form (sign is +1 or -1).
    May return a or b itself: component maps are never mutated."""
    if not b:
        return a
    if not a and sign > 0:
        return b
    d = dict(a)
    _accumulate(d, b, sign)
    return d


def _convolve(out, a, b, sign=1):
    """out[e1 + e2] += sign * a[e1] * b[e2], leaving zeros and integral
    Fractions in out for _norm."""
    get = out.get
    for e1, x in a.items():
        if sign < 0:
            x = -x
        for e2, y in b.items():
            e = e1 + e2
            p = x * y
            s = get(e)
            out[e] = p if s is None else s + p


def _accumulate(d, src, c=1, k=0):
    """d[e + k] += c * src[e] in place, keeping d in normal form."""
    get = d.get
    unit = c == 1
    for e, x in src.items():
        e += k
        y = x if unit else c * x
        s = get(e)
        s = y if s is None else s + y
        if not s:
            del d[e]
        elif type(s) is int or s.denominator != 1:
            d[e] = s
        else:
            d[e] = s.numerator


class LaurentPoly:
    """Finite Laurent polynomial over Q(t), stored as two component maps:
    exponent -> real part and exponent -> imaginary part (the coefficient
    of t).  Values are ints when integral and Fractions otherwise, and no
    zero is stored, so a real polynomial has an empty im map.  The maps of
    an existing polynomial are never mutated and may be shared."""

    __slots__ = ("re", "im")

    def __init__(self, coeffs=None):
        """coeffs: a dict exponent -> GaussianRational, int or Fraction."""
        re, im = {}, {}
        if coeffs:
            for e, c in coeffs.items():
                if type(c) is not GaussianRational:
                    c = GaussianRational(c)
                if c.re:
                    re[e] = c.re
                if c.im:
                    im[e] = c.im
        self.re = re
        self.im = im

    @staticmethod
    def from_maps(re, im=None):
        """The polynomial with the given component maps, taken as they are:
        they must already be in normal form, and are not copied."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.re = re
        out.im = {} if im is None else im
        return out

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    @staticmethod
    def monomial(c, e):
        return LaurentPoly({e: c})

    def coeff(self, e):
        """The coefficient of v^e as a GaussianRational."""
        return GaussianRational(self.re.get(e, 0), self.im.get(e, 0))

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        return (type(other) is LaurentPoly and self.re == other.re
                and self.im == other.im)

    def __add__(self, other):
        return _lp(_combine(self.re, other.re, 1),
                   _combine(self.im, other.im, 1))

    def __sub__(self, other):
        return _lp(_combine(self.re, other.re, -1),
                   _combine(self.im, other.im, -1))

    def __neg__(self):
        return _lp({e: -x for e, x in self.re.items()},
                   {e: -x for e, x in self.im.items()})

    def __mul__(self, other):
        # (a + bt)(c + dt) = ac - bd + (ad + bc)t, skipping empty maps; a
        # zero factor is returned as it is
        a, b, c, d = self.re, self.im, other.re, other.im
        if not (a or b):
            return self
        if not (c or d):
            return other
        re = {}
        _convolve(re, a, c)
        if not (b or d):
            return _lp(_norm(re), {})
        im = {}
        _convolve(re, b, d, -1)
        _convolve(im, a, d)
        _convolve(im, b, c)
        return _lp(_norm(re), _norm(im))

    def scale(self, c):
        return self * LaurentPoly.const(c)

    def shift(self, k):
        if not k:
            return self
        return _lp({e + k: x for e, x in self.re.items()},
                   {e + k: x for e, x in self.im.items()})

    def valuation(self):
        v = min(self.re, default=inf)
        return min(v, min(self.im)) if self.im else v

    def degree(self):
        d = max(self.re, default=-inf)
        return max(d, max(self.im)) if self.im else d

    def subs_v_inverse(self, sign):
        """v -> sign * v^-1 (sign is +1 or -1)."""
        if sign == 1:
            return _lp({-e: x for e, x in self.re.items()},
                       {-e: x for e, x in self.im.items()})
        return _lp({-e: -x if e % 2 else x for e, x in self.re.items()},
                   {-e: -x if e % 2 else x for e, x in self.im.items()})

    def subs_v_t_scaled(self, k):
        """v -> t^k * v: multiplies the coefficient of v^e by t^(k*e).

        A value x of the map for t^j (j = 0 for re, 1 for im) becomes
        x t^m, m = k*e + j: +x or -x (m mod 4 >= 2) in the map for t^(m % 2).
        """
        maps = ({}, {})
        for j, part in enumerate((self.re, self.im)):
            for e, x in part.items():
                m = (k * e + j) % 4
                maps[m % 2][e] = -x if m >= 2 else x
        return _lp(*maps)

    def __repr__(self):
        return f"LaurentPoly.from_maps({self.re!r}, {self.im!r})"


_lp = LaurentPoly.from_maps


def _poly_divmod(a, b):
    """Division with remainder for genuine polynomials (valuation >= 0).

    Each quotient term q is taken off the remainder's component maps as
    q*b v^k.  For a real b each part of q scales b.re into one map, and a
    zero part is skipped; otherwise q*b is formed first, so that every
    remainder entry takes one subtraction."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rr, ri = dict(a.re), dict(a.im)
    br = b.re
    db = b.degree()
    lead = b.coeff(db)
    qr, qi = {}, {}
    while rr or ri:
        dr = max(rr) if not ri else max(max(rr, default=-inf), max(ri))
        if dr < db:
            break
        q = GaussianRational(rr.get(dr, 0), ri.get(dr, 0)) / lead
        k = dr - db
        if q.re:
            qr[k] = q.re
        if q.im:
            qi[k] = q.im
        if b.im:
            t = _lp({k: -q.re} if q.re else {}, {k: -q.im} if q.im else {}) * b
            _accumulate(rr, t.re)
            _accumulate(ri, t.im)
        else:
            if q.re:
                _accumulate(rr, br, -q.re, k)
            if q.im:
                _accumulate(ri, br, -q.im, k)
    return _lp(qr, qi), _lp(rr, ri)


def _poly_gcd(a, b):
    """Monic gcd of genuine polynomials over Q(t)."""
    if (a and a.degree() == 0) or (b and b.degree() == 0):
        return LP_ONE  # a nonzero constant is a unit
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        a = a.scale(G_ONE / a.coeff(a.degree()))
    return a


# (num, den) input with a genuine denominator -> its normal form; see the
# module docstring
_NORMAL_FORMS = {}
_NORMAL_FORM_CAP = 1024


class RationalFn:
    """num/den with den a monic genuine polynomial, den(0) != 0,
    gcd(num shifted to valuation 0, den) = 1.  num may be Laurent.

    The normalization makes the v-adic valuation O(1) (it is the valuation
    of num) and equality syntactic.  A genuine denominator is normalized
    once per distinct (num, den) input: later ones read _NORMAL_FORMS.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if type(num) is not LaurentPoly:
            num = LaurentPoly.const(num)
        if den is None:
            den = LP_ONE
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num = LaurentPoly()
            self.den = LP_ONE
            return
        if den is LP_ONE or den == LP_ONE:
            self.num = num
            self.den = LP_ONE
            return
        key = (tuple(num.re.items()), tuple(num.im.items()),
               tuple(den.re.items()), tuple(den.im.items()))
        hit = _NORMAL_FORMS.get(key)
        if hit is not None:
            self.num, self.den = hit
            return
        # pull the denominator's v-power into the numerator
        s = den.valuation()
        if s:
            den = den.shift(-s)
            num = num.shift(-s)
        vnum = num.valuation()
        g = _poly_gcd(num.shift(-vnum), den)
        if g != LP_ONE:
            num = _poly_divmod(num.shift(-vnum), g)[0].shift(vnum)
            den = _poly_divmod(den, g)[0]
        lead = den.coeff(den.degree())
        if lead != G_ONE:
            num = num.scale(G_ONE / lead)
            den = den.scale(G_ONE / lead)
        self.num = num
        self.den = LP_ONE if den == LP_ONE else den
        if len(_NORMAL_FORMS) >= _NORMAL_FORM_CAP:
            _NORMAL_FORMS.clear()
        _NORMAL_FORMS[key] = (self.num, self.den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if type(other) is not RationalFn:
            if not isinstance(other, (int, Fraction, GaussianRational)):
                return NotImplemented
            other = RationalFn(other)
        return self.num == other.num and self.den == other.den

    def __add__(self, other):
        if type(other) is not RationalFn:
            other = RationalFn(other)
        if self.den is other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __neg__(self):
        out = RationalFn(0)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        if type(other) is not RationalFn:
            other = RationalFn(other)
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not RationalFn:
            other = RationalFn(other)
        if self.den is LP_ONE and other.den is LP_ONE:
            return RationalFn(self.num * other.num)
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if type(other) is not RationalFn:
            other = RationalFn(other)
        n = other.num
        if not n:
            raise ZeroDivisionError("division by zero RationalFn")
        if other.den is LP_ONE and len(n.re) + len(n.im) == 1:
            (e,) = n.re or n.im
            inv = LaurentPoly.monomial(G_ONE / n.coeff(e), -e)
            return RationalFn(self.num * inv, self.den)
        return RationalFn(self.num * other.den, self.den * n)

    def valuation(self):
        return self.num.valuation()

    def is_laurent(self):
        return self.den == LP_ONE

    def evaluate0(self):
        """Value at v = 0; raises on a pole."""
        val = self.num.valuation()
        if val is inf or val > 0:
            return G_ZERO
        if val < 0:
            raise ZeroDivisionError("pole at v = 0")
        return self.num.coeff(0) / self.den.coeff(0)

    def substituted(self, f):
        """Apply a LaurentPoly -> LaurentPoly substitution to num and den."""
        return RationalFn(f(self.num), f(self.den))

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"


LP_ZERO = LaurentPoly()
LP_ONE = LaurentPoly({0: 1})
RF_ZERO = RationalFn(LP_ZERO)
RF_ONE = RationalFn(LP_ONE)


def int_laurent(r):
    """The numerator of a RationalFn in Z[v, v^-1]; ValueError if r is
    not an integer Laurent polynomial."""
    if r.den != LP_ONE:
        raise ValueError("scalar has a genuine denominator")
    num = r.num
    if num.im or any(type(c) is not int for c in num.re.values()):
        raise ValueError("scalar is not an integer Laurent polynomial")
    return num


# The values of pi, in the order of PiScalar's (plus, minus) components.
SIGNS = (1, -1)


class PiScalar:
    """Element of Q(t)(v)[pi]/(pi^2 - 1) as its (plus, minus) components."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus, minus):
        self.plus = plus
        self.minus = minus

    @staticmethod
    def from_int(n):
        r = RationalFn(n)
        return PiScalar(r, r)

    @staticmethod
    def v_power(k):
        r = RationalFn(LaurentPoly.monomial(G_ONE, k))
        return PiScalar(r, r)

    @staticmethod
    def pi_power(k):
        if k % 2 == 0:
            return PS_ONE
        return PS_PI

    @staticmethod
    def t_power(k):
        r = RationalFn(GaussianRational.t_power(k))
        return PiScalar(r, r)

    def __bool__(self):
        return bool(self.plus) or bool(self.minus)

    def is_zero(self):
        return not self

    def __eq__(self, other):
        if isinstance(other, int):
            other = PiScalar.from_int(other)
        if not isinstance(other, PiScalar):
            return NotImplemented
        return self.plus == other.plus and self.minus == other.minus

    def __add__(self, other):
        if isinstance(other, int):
            other = PiScalar.from_int(other)
        return PiScalar(self.plus + other.plus, self.minus + other.minus)

    def __neg__(self):
        return PiScalar(-self.plus, -self.minus)

    def __sub__(self, other):
        if isinstance(other, int):
            other = PiScalar.from_int(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = PiScalar.from_int(other)
        return PiScalar(self.plus * other.plus, self.minus * other.minus)

    def __truediv__(self, other):
        if isinstance(other, int):
            other = PiScalar.from_int(other)
        return PiScalar(self.plus / other.plus, self.minus / other.minus)

    def __pow__(self, k):
        if k < 0:
            return PS_ONE / self ** (-k)
        out = PS_ONE
        for _ in range(k):
            out = out * self
        return out

    def specialize(self, sign):
        """Project to the pi = sign component."""
        if sign == 1:
            return self.plus
        if sign == -1:
            return self.minus
        raise ValueError("sign must be +1 or -1")

    def valuation(self):
        return (self.plus.valuation(), self.minus.valuation())

    def in_lattice(self):
        return self.plus.valuation() >= 0 and self.minus.valuation() >= 0

    def evaluate0(self):
        """Pair of GaussianRational values at v = 0, per component."""
        return (self.plus.evaluate0(), self.minus.evaluate0())

    def bar(self):
        """v -> pi * v^-1, t fixed: componentwise v -> v^-1 resp. -v^-1."""
        return PiScalar(
            self.plus.substituted(lambda p: p.subs_v_inverse(1)),
            self.minus.substituted(lambda p: p.subs_v_inverse(-1)),
        )

    def twist(self):
        """pi -> -pi, v -> t^-1 v: component swap, then v -> t^-1 v."""
        return PiScalar(
            self.minus.substituted(lambda p: p.subs_v_t_scaled(-1)),
            self.plus.substituted(lambda p: p.subs_v_t_scaled(-1)),
        )

    def twist_inv(self):
        """Inverse of twist: component swap, then v -> t v."""
        return PiScalar(
            self.minus.substituted(lambda p: p.subs_v_t_scaled(1)),
            self.plus.substituted(lambda p: p.subs_v_t_scaled(1)),
        )

    def __repr__(self):
        return f"PiScalar({self.plus!r}, {self.minus!r})"


PS_ZERO = PiScalar(RationalFn(0), RationalFn(0))
PS_ONE = PiScalar(RationalFn(1), RationalFn(1))
PS_PI = PiScalar(RationalFn(1), RationalFn(-1))
PS_T = PiScalar(RationalFn(G_T), RationalFn(G_T))


def _pi_v_power(m, d):
    """(pi^d v^d)^m as a PiScalar."""
    plus = RationalFn(LaurentPoly.monomial(G_ONE, d * m))
    c = G_ONE if (d * m) % 2 == 0 else -G_ONE
    minus = RationalFn(LaurentPoly.monomial(c, d * m))
    return PiScalar(plus, minus)


def _v_power(m, d):
    return PiScalar.v_power(d * m)


def qinteger(k, d=1):
    """<k> at (v^d, pi^d): sum_{l=0}^{k-1} (pi^d v^d)^(k-1-l) * v^(-d l).

    The k terms have the distinct exponents d(k-1-2l), so each component
    is written down directly: coefficient 1 at pi = +1 and
    (-1)^(d(k-1-l)) at pi = -1.
    """
    if k < 0:
        raise ValueError("qinteger needs k >= 0; use qinteger_signed")
    plus = {}
    minus = {}
    for l in range(k):
        e = d * (k - 1 - 2 * l)
        plus[e] = 1
        minus[e] = -1 if d * (k - 1 - l) % 2 else 1
    return PiScalar(RationalFn(LaurentPoly.from_maps(plus)),
                    RationalFn(LaurentPoly.from_maps(minus)))


def qinteger_signed(k, d=1):
    """<k> extended to negative k by <-m> = -pi^(d m) <m>."""
    if k >= 0:
        return qinteger(k, d)
    m = -k
    return -(PiScalar.pi_power(d * m) * qinteger(m, d))


def qfactorial(k, d=1):
    out = PS_ONE
    for m in range(1, k + 1):
        out = out * qinteger(m, d)
    return out


def qbinomial(n, k, d=1):
    """Quantum binomial at (v^d, pi^d); n may be negative.

    The quotient must come out a Laurent polynomial (denominator 1 in both
    components); anything else signals an arithmetic bug and raises.
    """
    if k < 0:
        raise ValueError("qbinomial needs k >= 0")
    num = PS_ONE
    den = PS_ONE
    for l in range(1, k + 1):
        num = num * (_pi_v_power(n - l + 1, d) - _v_power(-(n - l + 1), d))
        den = den * (_pi_v_power(l, d) - _v_power(-l, d))
    out = num / den
    if not (out.plus.is_laurent() and out.minus.is_laurent()):
        raise ArithmeticError(
            f"qbinomial({n},{k},{d}) failed to reduce to a Laurent polynomial"
        )
    return out


# ---------------------------------------------------------------------------
# canonical text rendering (golden-file contract) and its parser


def _render_rational(q):
    return str(q)


def _render_coeff_atom(c):
    """Coefficient rendered for use in front of '*v^k' (never bare sign)."""
    if not c.im:
        return _render_rational(c.re)
    if not c.re:
        if c.im == 1:
            return "t"
        if c.im == -1:
            return "-t"
        return f"({_render_rational(c.im)})*t"
    im = c.im
    if im == 1:
        imtxt = "t"
    elif im == -1:
        imtxt = "-t"
    else:
        imtxt = f"{_render_rational(im)}*t"
    sep = "+" if not imtxt.startswith("-") else ""
    return f"({_render_rational(c.re)}{sep}{imtxt})"


def _render_term(e, c):
    if e == 0:
        return _render_coeff_atom(c)
    vtxt = "v" if e == 1 else f"v^{e}"
    if c == G_ONE:
        return vtxt
    if c == -G_ONE:
        return f"-{vtxt}"
    return f"{_render_coeff_atom(c)}*{vtxt}"


def render_poly(p):
    if not p:
        return "0"
    parts = []
    for e in sorted(p.re.keys() | p.im.keys()):
        t = _render_term(e, p.coeff(e))
        if not parts:
            parts.append(t)
        elif t.startswith("-"):
            parts.append(" - " + t[1:])
        else:
            parts.append(" + " + t)
    return "".join(parts)


def render_component(r):
    if r.is_laurent():
        return render_poly(r.num)
    return f"({render_poly(r.num)}) / ({render_poly(r.den)})"


def render_scalar(s):
    """The JSON form: components rendered in ascending exponent order."""
    return {"plus": render_component(s.plus), "minus": render_component(s.minus)}


def _split_top(s, sep):
    """Split on sep occurrences at paren depth 0."""
    parts = []
    depth = 0
    start = 0
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and s.startswith(sep, i):
            parts.append(s[start:i])
            start = i + len(sep)
            i += len(sep)
            continue
        i += 1
    parts.append(s[start:])
    return parts


def _parse_mixed(s):
    """Inside of a parenthesized coefficient: 'a', 'a+b*t', 'a-t', '(b)*t'..."""
    s = s.strip()
    # find the split between re and im parts: a sign after position 0
    for i in range(1, len(s)):
        if s[i] in "+-" and s[i - 1] not in "+-*/(" and "t" in s[i:]:
            re_part = s[:i]
            im_part = s[i:]
            break
    else:
        re_part = None
        im_part = s if "t" in s else None
        if im_part is None:
            return GaussianRational(Fraction(s))
    im_part = im_part.replace(" ", "")
    sign = 1
    if im_part.startswith("+"):
        im_part = im_part[1:]
    elif im_part.startswith("-"):
        sign = -1
        im_part = im_part[1:]
    if im_part == "t":
        im = Fraction(sign)
    elif im_part.endswith("*t"):
        im = sign * Fraction(im_part[:-2])
    else:
        raise ValueError(f"malformed imaginary part {im_part!r}")
    re = Fraction(re_part) if re_part else Fraction(0)
    return GaussianRational(re, im)


def _parse_term(s):
    s = s.strip()
    sign = G_ONE
    if s.startswith("-"):
        sign = -G_ONE
        s = s[1:]
    # coefficient and v-part
    coeff = G_ONE
    vexp = 0
    rest = s
    while rest:
        if rest.startswith("("):
            depth = 0
            for i, ch in enumerate(rest):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        break
            coeff = coeff * _parse_mixed(rest[1:i])
            rest = rest[i + 1:]
        elif rest.startswith("t"):
            coeff = coeff * G_T
            rest = rest[1:]
        elif rest.startswith("v"):
            rest = rest[1:]
            if rest.startswith("^"):
                j = 1
                while j < len(rest) and (rest[j] == "-" or rest[j].isdigit()):
                    j += 1
                vexp = int(rest[1:j])
                rest = rest[j:]
            else:
                vexp = 1
        elif rest.startswith("*"):
            rest = rest[1:]
        else:
            # bare rational
            j = 0
            while j < len(rest) and rest[j] not in "*":
                j += 1
            coeff = coeff * GaussianRational(Fraction(rest[:j]))
            rest = rest[j:]
    return vexp, sign * coeff


def parse_poly(s):
    s = s.strip()
    if s == "0":
        return LaurentPoly()
    normalized = s.replace(" - ", " + -")
    d = {}
    for term in _split_top(normalized, " + "):
        e, c = _parse_term(term)
        prev = d.get(e, G_ZERO) + c
        if prev:
            d[e] = prev
        else:
            d.pop(e, None)
    return LaurentPoly(d)


def parse_component(s):
    s = s.strip()
    if s.startswith("("):
        halves = _split_top(s, " / ")
        if len(halves) == 2:
            num = parse_poly(halves[0].strip()[1:-1])
            den = parse_poly(halves[1].strip()[1:-1])
            return RationalFn(num, den)
    return RationalFn(parse_poly(s))


def parse_scalar(d):
    return PiScalar(parse_component(d["plus"]), parse_component(d["minus"]))
