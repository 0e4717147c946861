"""Exact arithmetic in the formal monomial family q^r (r rational) with
cyclotomic coefficients, plus the standard kernels built from it: rank-one
c-function factors, the Weyl denominator, and the inverse-square kernel.

A value of a character at a torus point is e^{2pi i u} q^r with u in Q/Z
and r in Q; sums and quotients of such values live in Q(zeta_N)(q^{1/D}),
represented here as Laurent dictionaries keyed by rational exponents with
``Cyclo`` coefficients.

A ``Cyclo`` is stored as its order N, a tuple of integer numerators over
the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1) and one positive
denominator, in lowest terms.  Phi_N is monic with integer coefficients,
so a product is an integer convolution (Kronecker substitution for long
operands) reduced by integer steps: first x^N = 1, then division by
Phi_N, kept in sparse form.  Fractions appear only in `Cyclo.coeffs`,
built on demand for text output and for rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from math import cos, gcd, lcm, pi, sin


# -- cyclotomic numbers -------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """The n-th cyclotomic polynomial as sparse (index, coefficient) pairs,
    low to high.  It is monic with integer coefficients."""
    # (x^n - 1) / prod_{d | n, d < n} Phi_d, by exact integer division
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            deg, low = _phi_low(d)
            out = [0] * (len(poly) - deg)
            for i in range(len(out) - 1, -1, -1):
                c = out[i] = poly[i + deg]
                if c:
                    for j, a in low:
                        poly[i + j] -= c * a
            poly = out
    return tuple((i, c) for i, c in enumerate(poly) if c)


@lru_cache(maxsize=None)
def _phi_low(n: int):
    """(deg Phi_n, the pairs of Phi_n below its leading term)."""
    pairs = cyclotomic_poly(n)
    return pairs[-1][0], pairs[:-1]


def _reduce(p: list, n: int) -> list:
    """The integer coefficient list p reduced mod Phi_n in place, trailing
    zeros trimmed."""
    if len(p) > n:  # x^n = 1 mod Phi_n
        for k in range(n, len(p)):
            p[k % n] += p[k]
        del p[n:]
    deg, low = _phi_low(n)
    for i in range(len(p) - 1, deg - 1, -1):
        c = p[i]
        if c:
            off = i - deg
            for j, a in low:
                p[off + j] -= c * a
    del p[deg:]
    while p and not p[-1]:
        p.pop()
    return p


# below this many coefficient products a convolution runs as a double loop:
# with small coefficients the two cost the same near 16 x 16 (CPython 3.11)
_KRONECKER_MIN = 256


def _conv(a, b) -> list:
    """Product of two integer coefficient sequences."""
    la, lb = len(a), len(b)
    if la * lb < _KRONECKER_MIN:
        return _poly_mul(a, b)
    # Kronecker substitution: evaluate both at 2^(8w), multiply the two
    # integers, read the signed base-2^(8w) digits back off the product
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(la, lb).bit_length())
    w = bits // 8 + 1  # bytes per digit, so that every |c| < 2^(8w-1)
    size = la + lb - 1
    prod = _pack(a, w) * _pack(b, w)
    half = 1 << (8 * w - 1)
    digits = (prod + int.from_bytes((b"\0" * (w - 1) + b"\x80") * size,
                                    "little")).to_bytes(size * w, "little")
    return [int.from_bytes(digits[i:i + w], "little") - half
            for i in range(0, size * w, w)]


def _pack(a, w: int) -> int:
    """sum of a[k] 2^(8wk) for integers |a[k]| < 2^(8w)."""
    pos = b"".join((c if c > 0 else 0).to_bytes(w, "little") for c in a)
    neg = b"".join((-c if c < 0 else 0).to_bytes(w, "little") for c in a)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _make(n: int, num, den: int) -> "Cyclo":
    """The element num/den of Q(zeta_n), num reduced and trimmed, den > 0."""
    out = object.__new__(Cyclo)
    out._set(n, num, den)
    return out


def _lift_num(num: tuple, n: int, m: int) -> tuple:
    """Numerators of an element of Q(zeta_n) in the power basis of
    Q(zeta_m), for n | m."""
    if len(num) <= 1 or m == n:
        return num
    step = m // n
    p = [0] * ((len(num) - 1) * step + 1)
    p[::step] = num
    return tuple(_reduce(p, m))


@lru_cache(maxsize=None)
def _trace_weights(n: int) -> tuple:
    """Normalized traces mu(d)/phi(d) over Q of zeta_n^k, d = n/gcd(n, k)
    its order: phi(d) is the degree of Phi_d and mu(d), the sum of the
    primitive d-th roots of unity, is minus its next coefficient."""
    out = []
    for k in range(_phi_low(n)[0]):
        deg, low = _phi_low(n // gcd(n, k))
        out.append(Fraction(-dict(low).get(deg - 1, 0), deg))
    return tuple(out)


class Cyclo:
    """An element of Q(zeta_N): integer numerators `num` of the power basis
    1, zeta_N, ..., zeta_N^(phi(N)-1), reduced mod Phi_N and with trailing
    zeros trimmed, over one positive denominator `den`, in lowest terms.
    This form is unique for a given N, so equal elements of one field have
    equal (num, den)."""

    __slots__ = ("n", "num", "den", "_coeffs")

    def __init__(self, n: int, coeffs):
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set(n, _reduce([c.numerator * (den // c.denominator)
                              for c in cs], n), den)

    def _set(self, n: int, num, den: int):
        """Store num/den (num reduced and trimmed) in lowest terms."""
        if not num:
            den = 1
        elif den > 1:
            g = gcd(den, *num)
            if g > 1:
                num = [c // g for c in num]
                den //= g
        self.n = n
        self.num = tuple(num)
        self.den = den
        self._coeffs = None

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as Fractions (built on first use)."""
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(c, self.den) for c in self.num)
        return self._coeffs

    @classmethod
    def from_rational(cls, x) -> "Cyclo":
        x = Fraction(x)
        return _make(1, [x.numerator] if x else [], x.denominator)

    @classmethod
    def root_of_unity(cls, u: Fraction) -> "Cyclo":
        """e^{2 pi i u} for rational u."""
        u = Fraction(u) % 1
        return _make(u.denominator, _root_num(u.numerator, u.denominator), 1)

    def lift(self, m: int) -> "Cyclo":
        if m == self.n:
            return self
        assert m % self.n == 0
        return _make(m, _lift_num(self.num, self.n, m), self.den)

    def _pair(self, other: "Cyclo"):
        """(self.num, other.num, m): numerators in Q(zeta_m), m the lcm of
        the two orders."""
        n1, n2 = self.n, other.n
        if n1 == n2:
            return self.num, other.num, n1
        m = n1 * n2 // gcd(n1, n2)
        return _lift_num(self.num, n1, m), _lift_num(other.num, n2, m), m

    # a rational operand is taken at order 1, so the result keeps the
    # order of the Cyclo operand

    def __add__(self, other):
        if other.__class__ is not Cyclo:
            other = Cyclo.from_rational(other)
        a, b, m = self._pair(other)
        da, db = self.den, other.den
        if da == db:
            num = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            num = [x * fa + y * fb for x, y in zip_longest(a, b, fillvalue=0)]
            da *= fa
        while num and not num[-1]:
            num.pop()
        return _make(m, num, da)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other):
        if other.__class__ is not Cyclo:
            other = Cyclo.from_rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return Cyclo.from_rational(other) - self

    def __mul__(self, other):
        if other.__class__ is not Cyclo:
            other = Cyclo.from_rational(other)
        a, b, m = self._pair(other)
        if not a or not b:
            return _make(m, [], 1)
        if len(a) == 1:
            num = [a[0] * y for y in b]
        elif len(b) == 1:
            num = [x * b[0] for x in a]
        else:
            num = _reduce(_conv(a, b), m)
        return _make(m, num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic zero")
        mod = _dense_phi(self.n)
        # extended Euclid: s * self + t * Phi = gcd (a unit)
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            r1 = _trim(r1)
            if len(r1) == 1:
                return Cyclo(self.n, [c / r1[0] for c in s1])
            q, r = _poly_divmod(r0, r1)
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r

    def conjugate(self) -> "Cyclo":
        """Complex conjugation zeta -> zeta^{-1}."""
        if len(self.num) <= 1:
            return self
        n = self.n
        p = [0] * n
        for k, c in enumerate(self.num):
            p[-k % n] = c
        return _make(n, _reduce(p, n), self.den)

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return len(self.num) <= 1

    def rational_value(self) -> Fraction:
        if len(self.num) <= 1:
            return Fraction(self.num[0], self.den) if self.num else Fraction(0)
        raise ValueError("not rational")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        # lifting keeps the denominator, and a rational is its constant
        # term at every order
        if self.den != other.den:
            return False
        if self.n == other.n or len(self.num) <= 1 or len(other.num) <= 1:
            return self.num == other.num
        a, b, _ = self._pair(other)
        return a == b

    def __hash__(self):
        # the normalized trace: it does not depend on the order N the value
        # is stored at, and it is the value itself for a rational
        weights = _trace_weights(self.n)
        return hash(sum((c * w for c, w in zip(self.num, weights)),
                        Fraction(0)) / self.den)

    def __complex__(self):
        z = complex(0)
        den = self.den
        for k, c in enumerate(self.num):
            ang = 2 * pi * k / self.n
            z += (c / den) * complex(cos(ang), sin(ang))
        return z

    def __repr__(self):
        if self.is_rational():
            return str(self.rational_value())
        return " + ".join(f"{c}*z{self.n}^{k}"
                          for k, c in enumerate(self.coeffs) if c)


@lru_cache(maxsize=None)
def _root_num(k: int, n: int) -> tuple:
    """Numerators of zeta_n^k, 0 <= k < n."""
    p = [0] * k + [1]
    return tuple(_reduce(p, n))


def _dense_phi(n: int) -> list:
    p = [Fraction(0)] * (_phi_low(n)[0] + 1)
    for i, c in cyclotomic_poly(n):
        p[i] = Fraction(c)
    return p


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p or [Fraction(0)]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
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


# -- Laurent series in q^(1/D) ------------------------------------------------


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
            s = out.get(e)
            s = c if s is None else s + c
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
        # exponents as integers over one common denominator while summing
        den = lcm(*(e.denominator for e in chain(self.terms, other.terms)))
        right = [(e.numerator * (den // e.denominator), c)
                 for e, c in other.terms.items()]
        out = {}
        for e1, c1 in self.terms.items():
            k1 = e1.numerator * (den // e1.denominator)
            for k2, c2 in right:
                k = k1 + k2
                p = c1 * c2
                s = out.get(k)
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        res = QLaurent()
        res.terms = {Fraction(k, den): c for k, c in out.items()}
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
        return hash(frozenset(self.terms.items()))

    def shift(self, e) -> "QLaurent":
        res = QLaurent()
        res.terms = {k + Fraction(e): c for k, c in self.terms.items()}
        return res

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
        scale = lcm(*(e.denominator for e in exps))
        shift = min(min(self.num.terms), min(self.den.terms))
        num = {int((e - shift) * scale): c.rational_value()
               for e, c in self.num.terms.items()}
        den = {int((e - shift) * scale): c.rational_value()
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
        back = Fraction(1, scale)
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


def character_values(vecs, point) -> list:
    """The values of theta_vec at a torus point, as one-term Laurent sums,
    from one `pairings` product."""
    return [QLaurent.point_value(u, r) for u, r in point.values_of(vecs)]


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


def nonzero_product(values):
    """(the product of the nonzero Laurent values, the number of zeros)."""
    out, zeros = ONE, 0
    for v in values:
        if v.is_zero():
            zeros += 1
        else:
            out = out * v
    return out, zeros


def factor_values(descs, point) -> list:
    """1 - d theta_vec(t) at a torus point for each factor (vec, u0, r0)."""
    return [ONE - QLaurent.point_value((u0 + u) % 1, r0 + r) for (_, u0, r0),
            (u, r) in zip(descs, point.values_of([d[0] for d in descs]))]


def c_alpha(datum, labels, r1_root, point):
    """Value of c_alpha at an exact torus point.

    Returns (value, pole_order): value is a QRational (or None at a
    genuine pole) and pole_order counts vanishing denominator minus
    vanishing numerator factors.
    """
    (num, num_zero), (den, den_zero) = (
        nonzero_product(factor_values(descs, point))
        for descs in c_factor_descriptors(datum, labels, r1_root))
    order = den_zero - num_zero
    if den_zero > 0:
        return None, order
    return QRational(QLaurent() if num_zero else num, den), order


def weyl_denominator(datum, point) -> QLaurent:
    """Delta(t) = prod over R1,+ of (1 - theta_{-alpha}(t))."""
    out = ONE
    for v in character_values([tuple(-x for x in r.vec)
                               for r in datum.r1_positive], point):
        out = out * (ONE - v)
    return out


def omega_kernel(datum, labels, point):
    """1/(c(t) c(t^{-1})) at an exact point.

    Returns (value, pole_order): pole_order > 0 means the kernel has a
    pole at the point (value is None); pole_order < 0 means a zero of
    that order (value 0).  When distinct divisors cross with net order 0
    no continuous value exists and (None, 0) is returned.
    """
    (num, num_zero), (den, den_zero) = (
        nonzero_product(factor_values(descs, point))
        for descs in omega_factor_descriptors(datum, labels))
    order = den_zero - num_zero
    if order > 0:
        return None, order
    if order < 0:
        return QRational(QLaurent(), ONE), order
    if den_zero > 0:  # balanced crossing: no continuous value
        return None, 0
    return QRational(num, den), 0
