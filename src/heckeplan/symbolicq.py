"""Exact arithmetic in the formal monomial family q^r (r rational) with
cyclotomic coefficients, plus the standard kernels built from it: rank-one
c-function factors, the Weyl denominator, and the inverse-square kernel.

A value of a character at a torus point is e^{2pi i u} q^r with u in Q/Z
and r in Q; sums and quotients of such values live in Q(zeta_N)(q^{1/D}),
represented here as Laurent dictionaries keyed by rational exponents with
``Cyclo`` coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import cos, pi, sin


# -- cyclotomic numbers -------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    # (x^n - 1) / prod_{d | n, d < n} Phi_d
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            phi_d = cyclotomic_poly(d)
            poly = _poly_div_exact(poly, list(phi_d))
    return tuple(poly)


def _poly_div_exact(num, den):
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        out[i] = c
        if c:
            for j, dc in enumerate(den):
                num[i + j] -= c * dc
    return out


def _poly_mod(poly, mod):
    poly = list(poly)
    dm = len(mod) - 1
    while len(poly) > dm:
        c = poly[-1] / mod[-1]
        if c:
            off = len(poly) - 1 - dm
            for j in range(dm + 1):
                poly[off + j] -= c * mod[j]
        poly.pop()
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


class Cyclo:
    """An element of Q(zeta_N), as a polynomial in zeta_N mod Phi_N."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        self.n = n
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_rational(cls, x) -> "Cyclo":
        return cls(1, [Fraction(x)])

    @classmethod
    def root_of_unity(cls, u: Fraction) -> "Cyclo":
        """e^{2 pi i u} for rational u."""
        u = Fraction(u) % 1
        n = u.denominator
        k = u.numerator
        poly = [Fraction(0)] * k + [Fraction(1)]
        return cls(n, _poly_mod(poly, list(cyclotomic_poly(n))))

    def lift(self, m: int) -> "Cyclo":
        if m == self.n:
            return self
        assert m % self.n == 0
        step = m // self.n
        poly = [Fraction(0)] * (len(self.coeffs) * step)
        for k, c in enumerate(self.coeffs):
            poly[k * step] += c
        return Cyclo(m, _poly_mod(poly, list(cyclotomic_poly(m))))

    def _pair(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.from_rational(other)
        m = self.n * other.n // _gcd(self.n, other.n)
        return self.lift(m), other.lift(m), m

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return Cyclo(self.n, [Fraction(other)])
            cs = list(self.coeffs)
            cs[0] += other
            return Cyclo(self.n, cs)
        a, b, m = self._pair(other)
        size = max(len(a.coeffs), len(b.coeffs))
        cs = [Fraction(0)] * size
        for i, c in enumerate(a.coeffs):
            cs[i] += c
        for i, c in enumerate(b.coeffs):
            cs[i] += c
        return Cyclo(m, cs)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Cyclo)
                       else Cyclo.from_rational(-Fraction(other)))

    def __rsub__(self, other):
        return Cyclo.from_rational(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclo(self.n, [c * other for c in self.coeffs])
        if self.n == other.n == 1:
            if not self.coeffs or not other.coeffs:
                return Cyclo(1, [])
            return Cyclo(1, [self.coeffs[0] * other.coeffs[0]])
        a, b, m = self._pair(other)
        if not a.coeffs or not b.coeffs:
            return Cyclo(m, [])
        prod = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    if cb:
                        prod[i + j] += ca * cb
        return Cyclo(m, _poly_mod(prod, list(cyclotomic_poly(m))))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic zero")
        mod = list(cyclotomic_poly(self.n))
        # extended Euclid: s * self + t * Phi = gcd (a unit)
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            r1 = _trim(r1)
            if len(r1) == 1:
                inv = [c / r1[0] for c in s1]
                return Cyclo(self.n, _poly_mod(inv, mod))
            q, r = _poly_divmod(r0, r1)
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r

    def conjugate(self) -> "Cyclo":
        """Complex conjugation zeta -> zeta^{-1}."""
        out = Cyclo(self.n, [])
        for k, c in enumerate(self.coeffs):
            if c:
                out = out + c * Cyclo.root_of_unity(Fraction(-k, self.n))
        return out if isinstance(out, Cyclo) else Cyclo.from_rational(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return len(self.coeffs) <= 1 or self.n == 1

    def rational_value(self) -> Fraction:
        if self.n == 1 or len(self.coeffs) <= 1:
            return self.coeffs[0] if self.coeffs else Fraction(0)
        raise ValueError("not rational")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b, _ = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.n, self.coeffs))

    def __complex__(self):
        z = complex(0)
        for k, c in enumerate(self.coeffs):
            ang = 2 * pi * k / self.n
            z += float(c) * complex(cos(ang), sin(ang))
        return z

    def __repr__(self):
        if self.is_rational():
            return str(self.rational_value())
        return " + ".join(f"{c}*z{self.n}^{k}"
                          for k, c in enumerate(self.coeffs) if c)


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p or [Fraction(0)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return out


def _poly_divmod(a, b):
    a = list(a)
    b = _trim(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(_trim(a)) >= len(b) and _trim(a) != [Fraction(0)]:
        a = _trim(a)
        if len(a) < len(b):
            break
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = c
        for j in range(len(b)):
            a[d + j] -= c * b[j]
        a.pop()
    return q, a


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# -- Laurent series in q^(1/D) ------------------------------------------------


ZERO_C = Cyclo(1, [])
ONE_C = Cyclo(1, [Fraction(1)])


class QLaurent:
    """Finite sum of terms c * q^e with e rational and c in some Q(zeta)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(c, Cyclo):
                    c = Cyclo.from_rational(c)
                if not c.is_zero():
                    self.terms[Fraction(e)] = c

    @classmethod
    def monomial(cls, exponent, coeff=1) -> "QLaurent":
        return cls({Fraction(exponent): coeff if isinstance(coeff, Cyclo)
                    else Cyclo.from_rational(coeff)})

    @classmethod
    def point_value(cls, u, r) -> "QLaurent":
        """The value e^{2 pi i u} q^r as a one-term Laurent sum."""
        return cls({Fraction(r): Cyclo.root_of_unity(u)})

    @classmethod
    def constant(cls, x) -> "QLaurent":
        return cls({Fraction(0): x if isinstance(x, Cyclo)
                    else Cyclo.from_rational(x)})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, ZERO_C) + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        res = QLaurent()
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = QLaurent()
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                p = c1 * c2
                s = out.get(e)
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        res = QLaurent()
        res.terms = out
        return res

    __rmul__ = __mul__

    @staticmethod
    def _coerce(x):
        if isinstance(x, QLaurent):
            return x
        if isinstance(x, (int, Fraction)):
            return QLaurent.constant(x)
        if isinstance(x, Cyclo):
            return QLaurent.constant(x)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        other = self._coerce(other)
        return (self - other).is_zero()

    def __hash__(self):
        return hash(tuple(sorted((e, c.coeffs) for e, c in self.terms.items())))

    def shift(self, e) -> "QLaurent":
        res = QLaurent()
        res.terms = {k + Fraction(e): c for k, c in self.terms.items()}
        return res

    def min_exponent(self):
        return min(self.terms) if self.terms else Fraction(0)

    def evaluate(self, qval):
        """Value at a numeric q > 0; exact Fraction when all exponents are
        realizable as exact rational powers and coefficients are rational."""
        total_exact = Fraction(0)
        exact = True
        total_float = complex(0)
        for e, c in sorted(self.terms.items()):
            powf = float(qval) ** float(e)
            total_float += complex(c) * powf
            if exact:
                p = _exact_power(qval, e)
                if p is None or not c.is_rational():
                    exact = False
                else:
                    total_exact += c.rational_value() * p
        if exact:
            return total_exact
        if abs(total_float.imag) < 1e-12 * max(1.0, abs(total_float.real)):
            return total_float.real
        return total_float

    def __str__(self):
        return self.to_text()

    __repr__ = __str__

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            cs = str(c) if c.is_rational() else f"({c!r})"
            if e == 0:
                parts.append(cs)
            elif e == 1:
                parts.append(f"{cs}*q" if cs != "1" else "q")
            else:
                parts.append(f"{cs}*q^{e}" if cs != "1" else f"q^{e}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_tex(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            cs = str(c) if c.is_rational() else f"({c!r})"
            if e == 0:
                parts.append(cs)
            else:
                exp = f"{{{e}}}" if (e != 1) else ""
                base = f"q^{exp}" if exp else "q"
                parts.append(base if cs == "1" else f"{cs}\\,{base}")
        return " + ".join(parts).replace("+ -", "- ")


def _exact_power(qval, e: Fraction):
    """q^e as an exact Fraction, or None."""
    if not isinstance(qval, Fraction):
        if isinstance(qval, int):
            qval = Fraction(qval)
        else:
            return None
    root = _exact_root(qval, e.denominator)
    if root is None:
        return None
    return root ** e.numerator


def _exact_root(x: Fraction, k: int):
    if k == 1:
        return x
    if x < 0:
        return None
    num = _int_root(x.numerator, k)
    den = _int_root(x.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_root(n: int, k: int):
    r = round(n ** (1.0 / k))
    for c in (r - 1, r, r + 1):
        if c >= 0 and c ** k == n:
            return c
    return None


ONE = QLaurent.constant(1)


class QRational:
    """Quotient of two QLaurent sums; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: QLaurent, den: QLaurent = ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def from_laurent(cls, x: QLaurent) -> "QRational":
        return cls(x, ONE)

    @classmethod
    def constant(cls, x) -> "QRational":
        return cls(QLaurent.constant(x), ONE)

    def __mul__(self, other):
        other = self._coerce(other)
        return QRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __add__(self, other):
        other = self._coerce(other)
        return QRational(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return QRational(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def inverse(self) -> "QRational":
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero")
        return QRational(self.den, self.num)

    @staticmethod
    def _coerce(x):
        if isinstance(x, QRational):
            return x
        if isinstance(x, QLaurent):
            return QRational.from_laurent(x)
        return QRational.constant(x)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        other = self._coerce(other)
        return (self.num * other.den - other.num * self.den).is_zero()

    __hash__ = None  # value equality via cross-multiplication; not hashable

    def evaluate(self, qval):
        n = self.num.evaluate(qval)
        d = self.den.evaluate(qval)
        if isinstance(n, Fraction) and isinstance(d, Fraction):
            return n / d
        return complex(n) / complex(d)

    def canonical(self) -> "QRational":
        """Reduced form: integer exponents via rescaling, common gcd
        removed, denominator monic in its leading coefficient.  Only
        attempted over rational coefficients; otherwise returns self."""
        if any(not c.is_rational() for c in self.num.terms.values()) or \
           any(not c.is_rational() for c in self.den.terms.values()):
            return self
        if self.num.is_zero():
            return QRational(QLaurent(), ONE)
        exps = list(self.num.terms) + list(self.den.terms)
        lcm = 1
        for e in exps:
            lcm = lcm * e.denominator // _gcd(lcm, e.denominator)
        shift = min(min(self.num.terms), min(self.den.terms))
        num = {int((e - shift) * lcm): c.rational_value()
               for e, c in self.num.terms.items()}
        den = {int((e - shift) * lcm): c.rational_value()
               for e, c in self.den.terms.items()}
        np = _dense(num)
        dp = _dense(den)
        g = _poly_gcd_q(np, dp)
        if len(g) > 1:
            np, _ = _poly_divmod(np, g)
            dp, _ = _poly_divmod(dp, g)
        np, dp = _trim(np), _trim(dp)
        lead = dp[-1]
        np = [c / lead for c in np]
        dp = [c / lead for c in dp]
        # strip common monomial factor q^k
        knum = next(i for i, c in enumerate(np) if c != 0)
        kden = next(i for i, c in enumerate(dp) if c != 0)
        k = min(knum, kden)
        np, dp = np[k:], dp[k:]
        back = Fraction(1, lcm)
        new_num = QLaurent({Fraction(i) * back: c
                            for i, c in enumerate(np) if c})
        new_den = QLaurent({Fraction(i) * back: c
                            for i, c in enumerate(dp) if c})
        return QRational(new_num, new_den)

    def __str__(self):
        c = self.canonical()
        if c.den == ONE:
            return c.num.to_text()
        return f"({c.num.to_text()}) / ({c.den.to_text()})"

    __repr__ = __str__

    def to_tex(self) -> str:
        c = self.canonical()
        if c.den == ONE:
            return c.num.to_tex()
        return f"\\frac{{{c.num.to_tex()}}}{{{c.den.to_tex()}}}"


def _dense(d: dict):
    size = max(d) + 1
    out = [Fraction(0)] * size
    for e, c in d.items():
        out[e] = c
    return out


def _poly_gcd_q(a, b):
    a, b = _trim(a), _trim(b)
    while b != [Fraction(0)]:
        _, r = _poly_divmod(a, b)
        a, b = b, _trim(r)
    # normalize monic
    if a[-1] != 0:
        a = [c / a[-1] for c in a]
    return a


# -- kernels built on the datum ----------------------------------------------


def character_value(vec, point) -> QLaurent:
    """Value of theta_x at a torus point, as a one-term Laurent sum."""
    return QLaurent.point_value(*point.value_of(vec))


def c_factor_descriptors(datum, labels, r1_root):
    """Numerator/denominator factors of c_alpha for a root of R1, with the
    denominator split into primitive halves on doubled directions and any
    exactly matching factors cancelled, so evaluation never meets 0/0.

    Each factor is (vec, u0, r0), standing for 1 - e^{2 pi i u0} q^{r0}
    theta_vec.
    """
    vec = r1_root.vec
    half = tuple(v // 2 for v in vec) if all(v % 2 == 0 for v in vec) else None
    if half is not None and half in datum.root_by_vec and datum.doubled[half]:
        beta = half
        a = labels.pole_exponent(beta)
        b = labels.minus_pole_exponent(beta)
        neg = tuple(-x for x in beta)
        num = [(neg, Fraction(1, 2), -b), (neg, Fraction(0), -a)]
        den = [(neg, Fraction(0), Fraction(0)), (neg, Fraction(1, 2), Fraction(0))]
    else:
        f0 = labels.f0(vec)
        neg = tuple(-x for x in vec)
        num = [(neg, Fraction(0), -f0)]
        den = [(neg, Fraction(0), Fraction(0))]
    return cancel_factor_lists(num, den)


def cancel_factor_lists(num, den):
    """Remove factors appearing in both multisets."""
    num = list(num)
    out_den = []
    for d in den:
        if d in num:
            num.remove(d)
        else:
            out_den.append(d)
    return num, out_den


def omega_factor_descriptors(datum, labels):
    """Net factor lists (numerator, denominator) of the kernel
    1/(c(t) c(t^{-1})), after exact cancellation.  The numerator factors
    come from the Weyl-denominator side, the denominator factors carry the
    label thresholds.  Factors are (vec, u0, r0) as above."""
    num, den = [], []
    for r in datum.r1_positive:
        c_num, c_den = c_factor_descriptors(datum, labels, r)
        for side_point_sign in (1, -1):
            for vec, u0, r0 in c_den:
                num.append((tuple(side_point_sign * v for v in vec), u0, r0))
            for vec, u0, r0 in c_num:
                den.append((tuple(side_point_sign * v for v in vec), u0, r0))
    return cancel_factor_lists(num, den)


def factor_value(desc, point) -> QLaurent:
    vec, u0, r0 = desc
    u, r = point.value_of(vec)
    return ONE - QLaurent.point_value((u0 + u) % 1, r0 + r)


def factor_vanishes(desc, point) -> bool:
    vec, u0, r0 = desc
    return point.takes(vec, -u0, -r0)


def c_alpha(datum, labels, r1_root, point):
    """Value of c_alpha at an exact torus point.

    Returns (value, pole_order): value is a QRational (or None at a
    genuine pole) and pole_order counts vanishing denominator minus
    vanishing numerator factors.
    """
    num_desc, den_desc = c_factor_descriptors(datum, labels, r1_root)
    num = ONE
    den = ONE
    num_zero = den_zero = 0
    for d in num_desc:
        v = factor_value(d, point)
        if v.is_zero():
            num_zero += 1
        num = num * v
    for d in den_desc:
        v = factor_value(d, point)
        if v.is_zero():
            den_zero += 1
        den = den * v
    order = den_zero - num_zero
    if den_zero > 0:
        return None, order
    return QRational(num, den), order


def weyl_denominator(datum, point) -> QLaurent:
    """Delta(t) = prod over R1,+ of (1 - theta_{-alpha}(t))."""
    out = ONE
    for r in datum.r1_positive:
        out = out * (ONE - character_value(tuple(-x for x in r.vec), point))
    return out


def omega_kernel(datum, labels, point):
    """1/(c(t) c(t^{-1})) at an exact point.

    Returns (value, pole_order): pole_order > 0 means the kernel has a
    pole at the point (value is None); pole_order < 0 means a zero of
    that order (value 0).  When distinct divisors cross with net order 0
    no continuous value exists and (None, 0) is returned.
    """
    num_desc, den_desc = omega_factor_descriptors(datum, labels)
    num = ONE
    den = ONE
    num_zero = den_zero = 0
    for d in num_desc:
        v = factor_value(d, point)
        if v.is_zero():
            num_zero += 1
        else:
            num = num * v
    for d in den_desc:
        v = factor_value(d, point)
        if v.is_zero():
            den_zero += 1
        else:
            den = den * v
    order = den_zero - num_zero
    if order > 0:
        return None, order
    if order < 0:
        return QRational(QLaurent(), ONE), order
    if den_zero > 0:  # balanced crossing: no continuous value
        return None, 0
    return QRational(num, den), 0
