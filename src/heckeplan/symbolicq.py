"""Exact arithmetic in the formal monomial family q^r (r rational) with
cyclotomic coefficients, and exact products of binomials in it.  Nothing
here takes a root datum or labels: the densities built on them are in
`plancherel`, and the kernel's divisors in `residue`.

A value of a character at a torus point is e^{2pi i u} q^r with u in Q/Z
and r in Q; sums and quotients of such values live in Q(zeta_N)(q^{1/D}),
represented here as Laurent dictionaries keyed by rational exponents with
``Cyclo`` coefficients.

A ``Cyclo`` is stored as its order N, a tuple of integer numerators over
the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1) and one positive
denominator, in lowest terms.  Fractions appear only in `Cyclo.coeffs`,
built on demand for text output and for rational coefficients.

The densities are products of binomials.  `nonzero_product` expands
such a product at once on integer rows, one per power of q, in
Z[x]/(x^N - 1), and reduces mod Phi_N once at the end, one pass per
binomial 1 - y^d of the Moebius product of Phi_N (Bosma, Canonical bases
for cyclotomic fields, 1990), as `Cyclo` does.  `QRational` decides
equality by expanding a d and c b, each as one such product, and
`QRational.canonical` reduces a quotient by the gcd of two integer
polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, zip_longest
from math import cos, gcd, isfinite, isqrt, lcm, pi, prod, sin

from .lattice import INT64_SAFE


# -- cyclotomic numbers -------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """The n-th cyclotomic polynomial as sparse (index, coefficient) pairs,
    low to high.  It is monic with integer coefficients."""
    # Phi_n(x) = Phi_r(x^(n/r)); at r = 1 the passes give 1 - x = -Phi_1
    import numpy as np
    r, deg = _radical(n)
    poly = np.eye(1, deg + 1, dtype=np.int64) * (-1 if r == 1 else 1)
    poly = _binomial_passes(poly, r, 1)[0].tolist()
    return tuple((i * (n // r), c) for i, c in enumerate(poly) if c)


def _radical(n: int) -> tuple:
    """(r, phi(r)): r the product of the primes of n."""
    primes = {p for _, p in _order_bits(n)}
    return prod(primes), prod(p - 1 for p in primes)


def _reduce(p: list, n: int) -> list:
    """The integer coefficient list p reduced mod Phi_n, trailing zeros
    trimmed: the one-row case of `_reduce_block`."""
    import numpy as np
    folds = -(-len(p) // n)  # x^n = 1 mod Phi_n
    row = np.zeros(folds * n, np.int64 if max(map(abs, p), default=0) * folds
                   < INT64_SAFE else object)
    row[:len(p)] = p
    num = _reduce_block(row.reshape(-1, n).sum(axis=0)[None], n)[0].tolist()
    while num and not num[-1]:
        num.pop()
    return num


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
    for k in range(cyclotomic_poly(n)[-1][0]):
        phi = dict(cyclotomic_poly(n // gcd(n, k)))
        deg = max(phi)
        out.append(Fraction(-phi.get(deg - 1, 0), deg))
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
            num = _reduce(_poly_mul(a, b), m)
        return _make(m, num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """1/x: the product y of the Galois conjugates of x other than x
        itself, over the norm x y, which is rational."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic zero")
        rest = _make(self.n, [1], 1)
        for a in range(2, self.n):
            if gcd(a, self.n) == 1:
                rest = rest * self._galois(a)
        return rest * (1 / (self * rest).rational_value())

    def conjugate(self) -> "Cyclo":
        """Complex conjugation zeta -> zeta^{-1}."""
        return self._galois(-1)

    def _galois(self, a: int) -> "Cyclo":
        """The image under zeta -> zeta^a, for a prime to the order."""
        if len(self.num) <= 1:
            return self
        n = self.n
        p = [0] * n
        for k, c in enumerate(self.num):
            p[a * k % n] += c
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


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


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
    def monomial(cls, exponent) -> "QLaurent":
        """q^exponent."""
        return cls({Fraction(exponent): Cyclo.from_rational(1)})

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

    def monomials(self) -> tuple:
        """The sum as a factor of `nonzero_product`: one term
        (c, j, n, k, d) per nonzero power-basis numerator, c zeta_n^j
        q^(k/d)."""
        return tuple((Fraction(a, c.den), j, c.n, e.numerator, e.denominator)
                     for e, c in self.terms.items()
                     for j, a in enumerate(c.num) if a)

    def __eq__(self, other):
        other = self._coerce(other)
        return (self - other).is_zero()

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, qval):
        """Value at a numeric q > 0; exact Fraction when all exponents are
        realizable as exact rational powers and coefficients are rational,
        else a float sum, in which a power of q past the float range is
        infinite."""
        terms = sorted(self.terms.items())
        total_exact = Fraction(0)
        for e, c in terms:
            p = _exact_power(qval, e)
            if p is None or not c.is_rational():
                break
            total_exact += c.rational_value() * p
        else:
            return total_exact
        total_float = complex(0)
        for e, c in terms:
            try:
                powf = float(qval) ** float(e)
            except OverflowError:
                powf = float("inf")
            total_float += complex(c) * powf
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
    """Quotient of two QLaurent sums; equality by cross-multiplication on
    integer rows."""

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
        """a/b == c/d when a d = c b, each side one `nonzero_product` of
        two factors, the monomials of its two sums."""
        other = self._coerce(other)
        if self.num.is_zero() or other.num.is_zero():
            return self.num.is_zero() and other.num.is_zero()
        left, right = (nonzero_product([x.monomials(), y.monomials()])[0]
                       for x, y in ((self.num, other.den),
                                    (other.num, self.den)))
        return left.terms == right.terms

    __hash__ = None  # value equality via cross-multiplication; not hashable

    def evaluate(self, qval):
        """Value at a numeric q > 0: exact when both sums are, else
        complex.  A complex quotient that is not finite, as when both
        float sums overflow, is taken again with both sums divided by q^E,
        E the largest exponent of the denominator."""
        n = self.num.evaluate(qval)
        d = self.den.evaluate(qval)
        if isinstance(n, Fraction) and isinstance(d, Fraction):
            return n / d
        out = complex(n) / complex(d)
        top = max(self.den.terms)
        if isfinite(out.real) and isfinite(out.imag) or not top:
            return out
        shift = QLaurent.monomial(-top)
        return QRational(self.num * shift, self.den * shift).evaluate(qval)

    def canonical(self) -> "QRational":
        """Reduced form: the exponents as integers over one denominator,
        the gcd of the two integer polynomials removed, the denominator
        monic.  Only attempted over rational coefficients; otherwise
        returns self."""
        terms = (self.num.terms, self.den.terms)
        if any(not c.is_rational() for t in terms for c in t.values()):
            return self
        if self.num.is_zero():
            return QRational(QLaurent(), ONE)
        scale = lcm(*(e.denominator for e in chain(*terms)))
        shift = min(chain(*terms))
        low = shift.numerator * (scale // shift.denominator)
        (num, num_c), (den, den_c) = (_primitive(t, scale, low)
                                      for t in terms)
        g = _poly_gcd(num, den)
        if len(g) > 1:
            num, den = _poly_quotient(num, g), _poly_quotient(den, g)
        lead = den[-1]
        return QRational(*(QLaurent({Fraction(i, scale): c * f
                                     for i, c in enumerate(p) if c})
                           for p, f in ((num, num_c / (den_c * lead)),
                                        (den, Fraction(1, lead)))))

    def __str__(self):
        c = self.canonical()
        if c.den == ONE:
            return c.num.to_text()
        return f"({c.num.to_text()}) / ({c.den.to_text()})"

    __repr__ = __str__


def _primitive(terms: dict, scale: int, low: int):
    """(p, c) for the rational terms of a nonzero Laurent sum x: p the
    primitive integer coefficients, low to high, of a polynomial with
    x = c q^(low/scale) p(q^(1/scale))."""
    ks = {e.numerator * (scale // e.denominator) - low: c
          for e, c in terms.items()}
    den = lcm(*(c.den for c in ks.values()))
    p = [0] * (max(ks) + 1)
    for k, c in ks.items():
        p[k] = c.num[0] * (den // c.den)
    g = gcd(*p)
    return [a // g for a in p], Fraction(g, den)


def _poly_gcd(a: list, b: list) -> list:
    """A gcd of two primitive integer polynomials (coefficients low to
    high, the top one nonzero), by the primitive remainder sequence:
    pseudo-remainders with their content removed."""
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return b
        g = gcd(*r)
        a, b = b, [c // g for c in r]
    return [1]


def _pseudo_remainder(a: list, b: list) -> list:
    """The remainder of lead(b)^k a by b, k the number of division steps,
    so that every step stays integral; trailing zeros trimmed."""
    r, lead, size = list(a), b[-1], len(b)
    while len(r) >= size:
        c = r.pop()
        at = len(r) + 1 - size
        r = [lead * v for v in r]
        for j in range(size - 1):
            r[at + j] -= c * b[j]
        while r and not r[-1]:
            r.pop()
    return r


def _poly_quotient(a: list, b: list) -> list:
    """a / b for integer polynomials where b divides a over Z."""
    a, size, lead = list(a), len(b), b[-1]
    out = [0] * (len(a) - size + 1)
    for i in range(len(out) - 1, -1, -1):
        c = out[i] = a[i + size - 1] // lead
        if c:
            for j in range(size):
                a[i + j] -= c * b[j]
    return out


# -- products of binomials --------------------------------------------------


def binomial(u, r, den, r0=0, c0=-1) -> tuple:
    """The factor e^{2 pi i u/den} q^(r0 + r/den) + c0, for integers u, r
    over den > 0 and a rational r0, in the term form of
    `nonzero_product`."""
    return ((1, u, den, r0.numerator * den + r * r0.denominator,
             r0.denominator * den), (c0, 0, 1, 0, 1))


def q_power(e) -> tuple:
    """The one-term factor q^e, in the term form of `nonzero_product`."""
    return ((1, 0, 1, e.numerator, e.denominator),)


def is_zero_factor(factor) -> bool:
    """Whether a factor of terms (c, j, n, k, d) is 0: it has no term, its
    one term has c = 0, or its two terms share the power of q and
    c1 zeta_n1^j1 = -c2 zeta_n2^j2.  A factor of three or more terms is
    taken as nonzero: `QLaurent.monomials` of a nonzero sum."""
    if len(factor) < 2:
        return not factor or not factor[0][0]
    if len(factor) > 2:
        return False
    (c1, j1, n1, k1, d1), (c2, j2, n2, k2, d2) = factor
    if k1 * d2 != k2 * d1 or abs(c1) != abs(c2):
        return False
    # the turn from the second root to the first, in units of 1/(n1 n2)
    turn = (j1 * n2 - j2 * n1) % (n1 * n2)
    return 2 * turn == n1 * n2 if c1 == c2 else turn == 0


def nonzero_product(factors):
    """(the product of the nonzero factors as a QLaurent, the number of
    zero factors).

    A factor is a tuple of terms (c, j, n, k, d), each the monomial
    c zeta_n^j q^(k/d) with c a nonzero integer or Fraction and n, d > 0;
    `binomial`, `q_power` and `QLaurent.monomials` build them, and
    `is_zero_factor` tells which are 0.  The product is one
    integer expansion (`_ring_product`), reduced mod the cyclotomic
    polynomials once.  Each coefficient is stored at the order that
    multiplying the factors one at a time in `QLaurent` arithmetic gives
    it: the lcm of the orders that reach it, where a sum that cancels to
    zero drops out with the orders it held."""
    import numpy as np
    block, tags, lo, (den, q_den), zeros = _ring_product(factors)
    n = block.shape[1]
    terms = {}
    for tag in sorted(set(tags.tolist()) - {-1}):
        order = _tag_order(n, tag)
        rows = np.flatnonzero(tags == tag)
        nums = _reduce_block(block[rows][:, ::n // order], order)
        for row, num in zip(rows.tolist(), nums.tolist()):
            while num and not num[-1]:
                num.pop()
            if num:
                terms[Fraction(lo + row, q_den)] = _make(order, num, den)
    out = QLaurent()
    out.terms = terms
    return out, zeros


# entries of the largest expansion block that `_ring_product` builds:
# 2^24 int64 is 128 MiB, and the largest block of a density table of rank
# <= 4 at q = 2 is 49 x 17017 = 833,833 (F4)
EXPANSION_CAP = 1 << 24


class ExpansionTooLarge(Exception):
    """A product whose expansion block would pass EXPANSION_CAP entries;
    not a ValueError, so no caller reads it as a singular value."""


def _ring_product(factors):
    """(block, tags, lo, (den, D), zeros) for the product of the
    nonzero factors of `nonzero_product`.

    Row i of the integer block holds the coefficient of q^((lo + i)/D),
    over the common denominator `den` of the rational coefficients, as the
    coefficients of x^0, ..., x^(N-1) in Z[x]/(x^N - 1), x standing for
    zeta_N.  A term c zeta_n^j q^(k/d) shifts the rows by k D/d, rotates
    the columns by j N/n and scales them by c, so a binomial costs two
    shifted adds.  Entries stay within `bound`, the product of the
    factors' coefficient 1-norms: the block is int64 below
    `lattice.INT64_SAFE` and Python integers above it.

    The order of row i is kept as tags[i], with bit b set when the prime
    power of bit b (`_order_bits`) divides it, so the lcm of two orders is
    the or of their tags; -1 marks a row that is 0.  A block of more than
    EXPANSION_CAP entries raises ExpansionTooLarge before it is
    allocated."""
    import numpy as np
    kept, zeros = [], 0
    for factor in factors:
        terms = [(c, j % n // g, n // g, k // h, d // h)
                 for c, j, n, k, d in factor
                 for g, h in ((gcd(j, n), gcd(k, d)),)]
        if is_zero_factor(terms):
            zeros += 1
        else:
            kept.append(terms)
    n = lcm(*{t[2] for terms in kept for t in terms})
    q_den = lcm(*{t[4] for terms in kept for t in terms})
    powers = [power for power, _ in _order_bits(n)]
    tag_of = {m: sum(1 << b for b, p in enumerate(powers) if m % p == 0)
              for m in {t[2] for terms in kept for t in terms}}
    steps, lo, den, bound = [], 0, 1, 1
    for terms in kept:
        scale = lcm(*(c.denominator for c, *_ in terms))
        den *= scale
        shifts = [k * (q_den // d) for *_, k, d in terms]
        low = min(shifts)
        lo += low
        step = [(int(c * scale), j * (n // m), k - low,
                 tag_of[m]) for (c, j, m, _, _), k in zip(terms, shifts)]
        bound *= sum(abs(t[0]) for t in step)
        steps.append((step, max(shifts) - low))
    rows = 1 + sum(span for _, span in steps)
    if rows * n > EXPANSION_CAP:
        raise ExpansionTooLarge(
            f"the expansion needs a block of {rows} x {n} integers, past "
            f"the cap of {EXPANSION_CAP} entries")
    dtype = np.dtype(np.int64 if bound < INT64_SAFE else object)
    block, tags = _expand(steps, n, dtype)
    return block, tags, lo, (den, q_den), zeros


def _expand(steps, n, dtype):
    """(block, tags): the expansion of `_ring_product`.  A row is 0 when
    its integer row is 0 or when its value at zeta_n is 0 (`_vanishing`);
    each step clears the rows of the second kind, so that they drop out
    with their orders like the rows of the first."""
    import numpy as np
    block = np.zeros((1, n), dtype)
    block[0, 0] = 1
    tags = np.zeros(1, np.int64)
    live = np.ones(1, bool)
    for terms, span in steps:
        size = len(block) + span
        new = np.zeros((size, n), dtype)
        new_tags = np.zeros(size, np.int64)
        for c, col, at, tag in terms:
            rows = new[at:at + len(block)]
            if col:
                _add(rows[:, col:], block[:, :n - col], c)
                _add(rows[:, :col], block[:, n - col:], c)
            else:
                _add(rows, block, c)
            if n > 1:  # at n = 1 every order is 1
                seg = new_tags[at:at + len(block)]
                np.bitwise_or(seg, tags | tag if tag else tags, out=seg,
                              where=live)
        live = new.any(axis=1)
        if n > 1:  # at n = 1 an integer row is its value
            at = np.flatnonzero(live)
            gone = at[_vanishing(new[at], n)]
            new[gone] = 0
            live[gone] = False
        block, tags = new, new_tags
    tags[~live] = -1
    return block, tags


def _add(rows, src, c):
    """rows += c * src, in place."""
    if c == 1:
        rows += src
    elif c == -1:
        rows -= src
    else:
        rows += c * src


@lru_cache(maxsize=None)
def _order_bits(n: int) -> tuple:
    """(p^a, p) for every prime power p^a > 1 dividing n: bit b of a tag
    is set when the order it tags is a multiple of entry b's p^a."""
    out, m, p = [], n, 2
    while m > 1:
        if p * p > m:
            p = m
        power = p
        while m % p == 0:
            out.append((power, p))
            power *= p
            m //= p
        p += 1
    return tuple(out)


def _tag_order(n: int, tag: int) -> int:
    """The order a tag stands for: the product of the primes of its
    bits."""
    return prod(p for b, (_, p) in enumerate(_order_bits(n)) if tag >> b & 1)


def _reduce_block(rows, n: int):
    """The integer rows (coefficients of x^0..x^(n-1)) reduced mod Phi_n.

    Phi_n(x) = Phi_r(y) for y = x^(n/r), r the product of the primes of n:
    each residue mod n/r of the columns is an f(y) = Q Phi_r + R.  As Phi_r
    is palindromic, reversed Q = reversed f / Phi_r mod y^(r - phi(r))
    (von zur Gathen-Gerhard 9.1), and R = f - Q Phi_r mod y^phi(r)."""
    import numpy as np
    r, deg = _radical(n)
    s = n // r
    f = rows.reshape(-1, r, s).transpose(0, 2, 1).reshape(-1, r)
    quot = _binomial_passes(f[:, :deg - 1:-1].copy(), r, -1)[:, ::-1]
    part = np.zeros((len(f), deg), quot.dtype)
    part[:, :r - deg] = quot[:, :deg]
    part = _binomial_passes(part, r, 1)
    out = _fit(f[:, :deg], 2) - _fit(part, 2)
    return out.reshape(-1, s, deg).transpose(0, 2, 1).reshape(-1, s * deg)


def _binomial_passes(rows, r: int, power: int):
    """The rows (polynomials in y) times prod_{d | r} (1 - y^d)^(power
    mu(r/d)) mod y^w, w their width, r squarefree: Phi_r at power 1, r > 1.
    A product by 1 - y^d is a shifted subtract, in place, and a quotient a
    cumulative sum per residue mod d; each multiplies the largest |entry|
    by at most its growth, 2 or the number of spans.  A pass runs on
    Python integers once that entry times its growth reaches INT64_SAFE,
    as `_fit` decides; a running bound on it, times each growth, is
    measured again only when it would reach INT64_SAFE."""
    import numpy as np
    primes = [p for _, p in _order_bits(r)]
    width, bound = rows.shape[1], INT64_SAFE
    for k in range(len(primes) + 1):
        divide = (-1) ** k != power
        for d in (r // prod(s) for s in combinations(primes, k)):
            if d >= width:
                continue
            spans = -(-width // d)
            growth = spans if divide else 2
            if rows.dtype != object and bound * growth >= INT64_SAFE:
                bound = int(np.abs(rows).max(initial=0))
                if bound * growth >= INT64_SAFE:
                    rows = rows.astype(object)
            bound *= growth
            if divide:
                pad = np.zeros((len(rows), spans * d - width), rows.dtype)
                rows = np.hstack((rows, pad)).reshape(-1, spans, d)
                rows = rows.cumsum(axis=1).reshape(-1, spans * d)[:, :width]
            else:
                rows[:, d:] -= rows[:, :-d]
    return rows


def _fit(rows, growth: int):
    """The integer rows, on Python integers once their largest |entry|
    times `growth` reaches INT64_SAFE."""
    import numpy as np
    if rows.dtype == object or not rows.size or \
            int(np.abs(rows).max()) * growth < INT64_SAFE:
        return rows
    return rows.astype(object)


def _vanishing(rows, n: int):
    """For integer rows of coefficients of x^0..x^(n-1), whether each
    takes the value 0 at zeta_n.  A row with a nonzero value at the
    n-th root of unity w modulo the prime p (`_evaluation_point`) is not
    0, since x -> w maps Phi_n to 0; the others are reduced mod Phi_n."""
    import numpy as np
    p, powers = _evaluation_point(n)
    values = (rows % p).astype(powers.dtype) @ powers % p
    out = values == 0
    at = np.flatnonzero(out)
    if len(at):
        out[at] = ~(_reduce_block(rows[at], n) != 0).any(axis=1)
    return out


@lru_cache(maxsize=None)
def _evaluation_point(n: int):
    """(p, powers): the least prime p = 1 mod n above 2^20, and w^j mod p
    for j < n, w of order n mod p, as an array of the dtype in which a sum
    of n products of two residues stays exact."""
    import numpy as np
    p = (2 ** 20 // n + 1) * n + 1
    while p % 2 == 0 or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        p += n
    primes = {q for _, q in _order_bits(n)}
    g = 2
    while True:
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in primes):
            break
        g += 1
    powers = [1] * n
    for j in range(1, n):
        powers[j] = powers[j - 1] * w % p
    return p, np.array(powers, dtype=np.int64 if n * p * p < INT64_SAFE
                       else object)
