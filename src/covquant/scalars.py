"""Exact arithmetic in the coefficient tower Q(t)(v)[pi]/(pi^2-1), t^2 = -1.

The sign parameter pi is handled by component splitting: a scalar a + b*pi
is stored as the pair (plus, minus) = (a+b, a-b), each component living in
the rational function field Q(t)(v).  Specializing pi to +1 or -1 is then a
projection, and each component is a field, so linear algebra works
componentwise.

No floating point is used anywhere; rationals are fractions.Fraction.
"""

from fractions import Fraction
from math import inf


class GaussianRational:
    """re + im*t with t a square root of -1; components are Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        # (a + bt)(c + dt) = ac - bd + (ad + bc)t
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re / other, self.im / other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

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


class LaurentPoly:
    """Finite map exponent -> nonzero GaussianRational."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(c, GaussianRational):
                    c = GaussianRational(c)
                if c:
                    d[e] = c
        self.coeffs = d

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    @staticmethod
    def monomial(c, e):
        return LaurentPoly({e: c})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __add__(self, other):
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = d.get(e, G_ZERO) + c
            if s:
                d[e] = s
            else:
                d.pop(e, None)
        out = LaurentPoly()
        out.coeffs = d
        return out

    def __neg__(self):
        out = LaurentPoly()
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if len(self.coeffs) == 1:
            ((e, c),) = self.coeffs.items()
            return other.shift(e).scale(c)
        if len(other.coeffs) == 1:
            ((e, c),) = other.coeffs.items()
            return self.shift(e).scale(c)
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = d.get(e, G_ZERO) + c1 * c2
                if s:
                    d[e] = s
                else:
                    d.pop(e, None)
        out = LaurentPoly()
        out.coeffs = d
        return out

    def scale(self, c):
        if not c:
            return LaurentPoly()
        out = LaurentPoly()
        out.coeffs = {e: x * c for e, x in self.coeffs.items()}
        return out

    def shift(self, k):
        out = LaurentPoly()
        out.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return out

    def valuation(self):
        return min(self.coeffs) if self.coeffs else inf

    def degree(self):
        return max(self.coeffs) if self.coeffs else -inf

    def subs_v_inverse(self, sign):
        """v -> sign * v^-1 (sign is +1 or -1)."""
        out = LaurentPoly()
        if sign == 1:
            out.coeffs = {-e: c for e, c in self.coeffs.items()}
        else:
            out.coeffs = {
                -e: (c if e % 2 == 0 else -c) for e, c in self.coeffs.items()
            }
        return out

    def subs_v_t_scaled(self, k):
        """v -> t^k * v: multiplies the coefficient of v^e by t^(k*e)."""
        out = LaurentPoly()
        out.coeffs = {
            e: c * GaussianRational.t_power(k * e) for e, c in self.coeffs.items()
        }
        return out

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"


def _poly_divmod(a, b):
    """Division with remainder for genuine polynomials (valuation >= 0)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(a.coeffs)
    db = b.degree()
    lead = b.coeffs[db]
    quot = {}
    while rem:
        dr = max(rem)
        if dr < db:
            break
        q = rem[dr] / lead
        quot[dr - db] = q
        for e, c in b.coeffs.items():
            e2 = e + dr - db
            s = rem.get(e2, G_ZERO) - q * c
            if s:
                rem[e2] = s
            else:
                rem.pop(e2, None)
    r = LaurentPoly()
    r.coeffs = rem
    q = LaurentPoly()
    q.coeffs = quot
    return q, r


def _poly_gcd(a, b):
    """Monic gcd of genuine polynomials over Q(t)."""
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        a = a.scale(G_ONE / a.coeffs[a.degree()])
    return a


class RationalFn:
    """num/den with den a monic genuine polynomial, den(0) != 0,
    gcd(num shifted to valuation 0, den) = 1.  num may be Laurent.

    The normalization makes the v-adic valuation O(1) (it is the valuation
    of num) and equality syntactic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction, GaussianRational)):
            num = LaurentPoly.const(
                num if isinstance(num, GaussianRational) else GaussianRational(num)
            )
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
        # pull the denominator's v-power into the numerator
        s = den.valuation()
        if s:
            den = den.shift(-s)
            num = num.shift(-s)
        vnum = num.valuation()
        g = _poly_gcd(num.shift(-vnum), den)
        if g.coeffs != {0: G_ONE}:
            num = _poly_divmod(num.shift(-vnum), g)[0].shift(vnum)
            den = _poly_divmod(den, g)[0]
        lead = den.coeffs[den.degree()]
        if lead != G_ONE:
            num = num.scale(G_ONE / lead)
            den = den.scale(G_ONE / lead)
        self.num = num
        self.den = LP_ONE if den == LP_ONE else den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = RationalFn(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
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
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = RationalFn(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = RationalFn(other)
        if self.den is LP_ONE and other.den is LP_ONE:
            return RationalFn(self.num * other.num)
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = RationalFn(other)
        if not other.num:
            raise ZeroDivisionError("division by zero RationalFn")
        if other.den is LP_ONE and len(other.num.coeffs) == 1:
            ((e, c),) = other.num.coeffs.items()
            inv = LaurentPoly.monomial(G_ONE / c, -e)
            return RationalFn(self.num * inv, self.den)
        return RationalFn(self.num * other.den, self.den * other.num)

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
        return self.num.coeffs[0] / self.den.coeffs[0]

    def substituted(self, f):
        """Apply a LaurentPoly -> LaurentPoly substitution to num and den."""
        return RationalFn(f(self.num), f(self.den))

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"


LP_ONE = LaurentPoly({0: G_ONE})


def lp_to_ratfn(a):
    """Integer Laurent kernel tuple (offset, coeffs) -> RationalFn."""
    off, coeffs = a
    return RationalFn(LaurentPoly(
        {off + k: GaussianRational(c) for k, c in enumerate(coeffs) if c}))


def ratfn_to_lp(r):
    """RationalFn -> integer Laurent kernel tuple; ValueError if not one."""
    if r.den.coeffs != {0: G_ONE}:
        raise ValueError("scalar has a genuine denominator")
    if not r.num.coeffs:
        return (0, ())
    coeffs = {}
    for e, c in r.num.coeffs.items():
        if c.im != 0 or c.re.denominator != 1:
            raise ValueError("scalar is not an integer Laurent polynomial")
        coeffs[e] = int(c.re)
    lo = min(coeffs)
    return (lo, tuple(coeffs.get(e, 0) for e in range(lo, max(coeffs) + 1)))


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
    def from_rational(q):
        r = RationalFn(q)
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
    """<k> at (v^d, pi^d): sum_{l=0}^{k-1} (pi^d v^d)^(k-1-l) * v^(-d l)."""
    if k < 0:
        raise ValueError("qinteger needs k >= 0; use qinteger_signed")
    out = PS_ZERO
    for l in range(k):
        out = out + _pi_v_power(k - 1 - l, d) * _v_power(-l, d)
    return out


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


def bar(s):
    return s.bar()


def twist(s):
    return s.twist()


def valuation(s):
    return s.valuation()


def in_lattice(s):
    return s.in_lattice()


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
    for e in sorted(p.coeffs):
        t = _render_term(e, p.coeffs[e])
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
