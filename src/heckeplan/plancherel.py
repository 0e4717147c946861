"""Exact density formulas: point densities, coset densities, the
reciprocal-sum identity for the special point, and the closed-form
subregular family in type C.

All values are exact rational functions of q (QRational); the prime
convention drops factors that vanish identically on the coset at hand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from .lattice import INT64_SAFE, _int_width, solve_unique
from .residual import (
    ResidualCoset,
    TorusPoint,
    _point_rows,
    point_index,
    residual_points,  # noqa: F401 (benchmarks/test_harness.py traces it here)
    steinberg_point,
)
from .rootdata import (
    LabelFunction,
    RootDatum,
    _graded_dominant,
    _level_step,
    affine_generator_exponents,
)
from .symbolicq import (
    ONE,
    QLaurent,
    QRational,
    binomial,
    is_zero_factor,
    nonzero_product,
    q_power,
)

F = Fraction


# -- density factor model -------------------------------------------------------


def _density_values(datum, point):
    """The integer numerators (u, r) over point.den of theta_vec(t) at an
    exact point for every vec the density factors read, the roots of R1
    and the doubled roots, from one product."""
    vecs = [r.vec for r in datum.r1] + [r.vec for r in datum.roots
                                        if datum.doubled[r.vec]]
    return dict(zip(vecs, zip(*point.numerators_of(vecs)))), point.den


def _density_factor_lists(datum, labels, r1_root, values, den):
    """(numerator factors, denominator factors) of the density for one
    root of R1 from the `_density_values` at a point, in the combined
    no-square-root form and the term form of `nonzero_product`."""
    vec = r1_root.vec
    num = [binomial(*values[vec], den)]
    half = tuple(v // 2 for v in vec) if all(v % 2 == 0 for v in vec) else None
    if half is not None and half in datum.root_by_vec and datum.doubled[half]:
        a = labels.pole_exponent(half)
        b = labels.minus_pole_exponent(half)
        return num, [binomial(*values[half], den, r0=b, c0=1),
                     binomial(*values[half], den, r0=a)]
    return num, [binomial(*values[vec], den, r0=labels.f0(vec))]


def m_point(datum: RootDatum, labels: LabelFunction, point: TorusPoint,
            check_residual=True) -> QRational:
    """Density mass factor at a residual point: q(w0) times the product of
    (alpha(t) - 1) over the denominator thresholds, omitting factors that
    vanish at the point."""
    if check_residual and point_index(datum, labels, point) != datum.rank:
        raise ValueError("density is defined at residual points only")
    return _density_product(datum, labels, datum.r1, point,
                            labels.q_w0_exponent())


def _density_product(datum, labels, roots, point, w_exponent):
    """q^w_exponent times the quotient of the products of the nonzero
    numerator and denominator factors of the density over the given roots
    of R1 at an exact point."""
    values = _density_values(datum, point)
    sides = ([q_power(w_exponent)], [])
    for r in roots:
        for side, new in zip(sides, _density_factor_lists(datum, labels, r,
                                                          *values)):
            side.extend(new)
    num, den = (nonzero_product(side)[0] for side in sides)
    return QRational(num, den)


def m_on_coset(datum, labels, coset: ResidualCoset, t: TorusPoint) -> QRational:
    """Density of the coset at a point of its tempered form.  Factors that
    are identically zero on the coset (constant roots hitting the zero of
    their factor) are omitted; other factors may still vanish at special
    points of the tempered form, where the value is zero when the
    numerator order wins and no continuous value exists otherwise."""
    constant = datum.parabolics[coset.support].r1_vecs
    at_t, at_base = (_density_values(datum, p) for p in (t, coset.point))
    sides = ([q_power(labels.q_w0_exponent())], [])
    for r in datum.r1:
        vals = _density_factor_lists(datum, labels, r, *at_t)
        if r.vec in constant:
            vals = [[f for f0, f in zip(base, side) if not is_zero_factor(f0)]
                    for base, side in zip(_density_factor_lists(
                        datum, labels, r, *at_base), vals)]
        for side, new in zip(sides, vals):
            side.extend(new)
    (num, num_zero), (den, den_zero) = map(nonzero_product, sides)
    if den_zero > num_zero:
        raise ValueError("pole of the density at this point of the coset")
    if den_zero == num_zero and den_zero > 0:
        raise ValueError("point lies on a balanced crossing of the "
                         "singular set")
    if num_zero > den_zero:
        return QRational(QLaurent(), ONE)
    return QRational(num, den)


# -- reciprocal length sum -------------------------------------------------------


@dataclass
class PoincareResult:
    valid: bool
    product: QRational | None
    detail: str = ""


def poincare_product(datum: RootDatum, labels: LabelFunction) -> PoincareResult:
    """The reciprocal-sum identity: sum over W of q(w)^{-1} equals
    (-1)^n [X:Q] / m(r_st), valid when the special point lies in the open
    negative chamber (all combined simple exponents positive)."""
    for i in range(datum.n_simple):
        if labels.pole_exponent(datum.simple_roots[i]) <= 0:
            return PoincareResult(False, None,
                                  detail="special point not in the open "
                                         "negative chamber")
    st = steinberg_point(datum, labels)
    m = m_point(datum, labels, st)
    sign = 1 if datum.rank % 2 == 0 else -1
    index = datum.weight_index()
    return PoincareResult(True, QRational.constant(sign * index) * m.inverse())


def poincare_truncated(datum: RootDatum, labels: LabelFunction, qval,
                       lmax: int):
    """Direct sum of q(w)^{-1} over affine elements of length <= lmax,
    times the number of length-zero elements, with the number of elements
    of each length: (sum, [count at length 0, ..., count at lmax]).

    The affine Coxeter group is walked one length at a time
    (`_length_levels`).  An element is the augmented integer matrix
    [[w, x], [0, 1]], and its exponent is an integer over the common
    denominator of the generator exponents, in an array parallel to its
    level.  A generator changes the length by one, so level l + 1 is the
    products of level l with the n + 1 generators that are neither in
    level l - 1 nor repeated, and only those two levels are kept.

    The exponents are multiples of their gcd t, and every power q^{-e} is
    an exact Fraction exactly when s = q^{-t} is.  Then the sum is
    s^(low/t) sum_j count_j s^j, from one integer sum over the common
    denominator (`_power_sum`).  When some power is a float, the
    order of the additions fixes the rounding, so they are replayed one
    element at a time in walk order: level by level,
    and within a level in the order (element, generator) in which
    `rootdata._level_step` finds them.  That order does not depend on how
    a level is computed.

    Int bound: the translation x of a product of l generators is a sum of
    at most l Weyl images w(theta) of the highest root, one for each
    affine generator, so |x| <= B = lmax N max|theta|, with N the largest
    row 1-norm of the W0 matrices, which also bounds |w|.  A product with
    a generator has every partial sum within (N + 1) B.  That picks the
    narrowest integer dtype, and a cut with (N + 1) B >= INT64_SAFE is
    rejected with a ValueError."""
    import numpy as np
    qval = F(qval)
    gen_exp = affine_generator_exponents(datum, labels)
    den = lcm(*(F(e).denominator for e in gen_exp))
    steps = np.array([int(e * den) for e in gen_exp], dtype=np.int64)
    exps = [e for _, e in _length_levels(datum, steps, lmax)]
    walk = np.concatenate(exps)
    low = int(walk.min())
    counts = np.bincount(walk - low)
    present = (np.flatnonzero(counts) + low).tolist()
    step = gcd(*present) or 1
    base = _q_power(qval, F(-step, den))
    if isinstance(base, Fraction):
        total = base ** (low // step) * _power_sum(counts[::step], base)
    else:
        powers = {e: _q_power(qval, F(-e, den)) for e in present}
        first, *rest = walk.tolist()
        total = powers[first]
        for e in rest:
            total += powers[e]
    return datum.weight_index() * total, [len(e) for e in exps]


def _power_sum(counts, s):
    """sum_j counts[j] s^j, j = 0..m, for a Fraction s = a/b, over the
    common denominator b^m: the integer sum_j counts[j] a^j b^(m - j).
    Adjacent blocks (sum, a^len, b^len) are merged pairwise, level by
    level, so that the big products are few and balanced."""
    parts = [(c, s.numerator, s.denominator) for c in counts.tolist()]
    while len(parts) > 1:
        parts = [(lo * b_hi + hi * a_lo, a_lo * a_hi, b_lo * b_hi)
                 for (lo, a_lo, b_lo), (hi, a_hi, b_hi)
                 in zip(parts[::2], parts[1::2])] + parts[len(parts) & ~1:]
    total, _, scale = parts[0]
    return F(total, scale // s.denominator)


def _length_levels(datum, steps, lmax):
    """Yield (level, exps) for l = 0, ..., lmax: the affine elements of
    length l as an integer stack of augmented matrices [[w, x], [0, 1]],
    and their exponents, where generator i adds steps[i].  Level l + 1 is
    `rootdata._level_step` of level l against level l - 1; the dtype is
    the narrowest that holds the bound in `poincare_truncated`."""
    import numpy as np
    gens = _affine_generators(datum)
    n = datum.rank
    norm = int(abs(datum.weyl.mats).sum(axis=2).max())
    peak = (norm + 1) * lmax * norm * int(abs(gens[0, :n, n]).max())
    if peak >= INT64_SAFE:
        raise ValueError(f"length cut {lmax} exceeds the int64 bound of "
                         "the affine walk")
    gens = gens.astype(_int_width(peak))
    level = np.eye(n + 1, dtype=gens.dtype)[None]
    previous = level[:0]
    exps = np.zeros(1, dtype=np.int64)
    yield level, exps
    for _ in range(lmax):
        j, gi, new = _level_step(gens, level, previous)
        previous, level, exps = level, new, exps[j] + steps[gi]
        yield level, exps


def length_count(datum: RootDatum, lmax: int, cap: int) -> int:
    """The number of affine Weyl group elements of length <= lmax, which
    `poincare_truncated` walks, or cap + 1 when there are more.

    Bott's formula gives their series: sum_w t^l(w) = prod_i (1 + t + ...
    + t^e_i) / (1 - t^e_i) over the exponents e_i of W0, where as many e_i
    are >= k as there are positive roots of height k.  The count is at
    least the number of k >= 0 with sum_i e_i k_i <= lmax, which is at
    least lmax^n / (n! prod e_i), so past the cap by that bound the series
    is not expanded."""
    import numpy as np
    heights = Counter(r.height for r in datum.positive_roots)
    exps = [k for k in sorted(heights)
            for _ in range(heights[k] - heights[k + 1])]
    if lmax ** len(exps) > cap * factorial(len(exps)) * prod(exps):
        return cap + 1
    series = np.zeros(lmax + 1, dtype=np.int64)
    series[0] = 1
    for e in exps:
        # times (1 - t^(e+1)) / (1 - t), then over 1 - t^e: a cumulative
        # sum within each residue class mod e
        acc = np.cumsum(series)
        series = acc.copy()
        series[e + 1:] -= acc[:-e - 1]
        pad = np.zeros(-(-(lmax + 1) // e) * e, dtype=np.int64)
        pad[:lmax + 1] = series
        series = pad.reshape(-1, e).cumsum(axis=0).ravel()[:lmax + 1]
    return min(cap + 1, int(series.sum()))


def _affine_generators(datum):
    """The affine Coxeter generators, the affine node first and then F0,
    as an int64 stack of augmented matrices [[w, a], [0, 1]] acting by
    v -> w v + a: the reflection in <v, theta^vee> = 1, then the simple
    reflections."""
    import numpy as np
    comp = datum.components()
    if len(comp) != 1:
        raise ValueError("irreducible datum required")
    theta_vee = datum.highest_coroot(comp[0])
    theta = next(r for r in datum.positive_roots if r.coroot == theta_vee)
    n = datum.rank
    gens = np.zeros((datum.n_simple + 1, n + 1, n + 1), dtype=np.int64)
    gens[:, n, n] = 1
    gens[0, :n, :n] = np.eye(n, dtype=np.int64) - \
        np.outer(theta.vec, theta_vee)
    gens[0, :n, n] = theta.vec
    for i in range(datum.n_simple):
        gens[i + 1, :n, :n] = datum.simple_reflection_matrix(i)
    return gens


def _q_power(qval: Fraction, e: Fraction):
    from .symbolicq import _exact_power
    p = _exact_power(qval, e)
    if p is not None:
        return p
    return float(qval) ** float(e)


def poincare_tail_bound(datum, labels, qval, lmax: int,
                        layer_counts) -> float:
    """Bound on the dropped tail of the reciprocal-length sum: the layer
    sizes of the affine group grow like a polynomial of degree rank-1, so
    c_l <= c_L (l/L)^{rank+1} for l >= L majorizes them; the tail is then
    a convergent series in q^{-m} with m the smallest generator exponent.
    `layer_counts` are the layer sizes that `poincare_truncated` returns."""
    gen_exp = affine_generator_exponents(datum, labels)
    m = min(gen_exp)
    if m <= 0:
        return float("inf")
    c_last = max(layer_counts[-1], 1)
    n = datum.rank
    ratio = float(qval) ** (-float(m))
    total = 0.0
    term = 1.0
    j = 1
    while True:
        term = ((lmax + j) / lmax) ** (n + 1) * ratio ** (lmax + j)
        total += c_last * term
        if c_last * term < 1e-18 or j > 4000:
            break
        j += 1
    return total * datum.weight_index()


# -- special point masses ---------------------------------------------------------


def plancherel_point_mass(datum: RootDatum, labels: LabelFunction,
                          point: TorusPoint) -> QRational:
    """Total mass of the orbit of the special (regular, real, maximally
    negative) point: (-1)^n m(r_st) / [X:Q].  Rejects any other input,
    since the rational cycle constants are known only there.

    A point is in the orbit of st exactly when it is real, as st is, and
    its r walks to the dominant r of st under R0; st is regular exactly
    when no root vanishes on its r.  Both hold since every orbit meets
    the closed dominant chamber once, and the stabiliser of a point is
    generated by the reflections that fix it (Humphreys, Reflection
    Groups and Coxeter Groups, 1.12)."""
    n = datum.rank
    st = steinberg_point(datum, labels)
    walked = _graded_dominant(datum, datum.roots,
                              _point_rows([point, st], n)[0][:, n:]).tolist()
    if any(point.un) or walked[0] != walked[1]:
        raise ValueError("mass formula implemented for the special point "
                         "orbit only")
    if 0 in st.numerators_of([r.vec for r in datum.roots])[1]:
        raise ValueError("special point is not regular")
    m = m_point(datum, labels, st)
    sign = 1 if datum.rank % 2 == 0 else -1
    return QRational.constant(F(sign, datum.weight_index())) * m


# -- the subregular family in type C ----------------------------------------------


@dataclass
class FormalDimensionReport:
    n: int
    point_values: tuple
    density: QRational
    assembled: QRational
    reference: QRational
    sign: int
    matches: bool
    numeric_q: Fraction | None = None
    numeric_assembled: Fraction | None = None
    numeric_reference: Fraction | None = None


def subregular_c_reference(n: int) -> QRational:
    """Closed form for the subregular mass in type C_n:
    (1/4) q (q-1)^{n+2} (q^{n-2}-1) prod_{i=1}^{n-2}(q^{2i+1}-1)
    / ((q^2-1)(q^n-1) prod_{i=1}^{n-1}(q^{2i}-1))."""
    num = [q_power(1)] + [binomial(0, e, 1) for e in (
        [1] * (n + 2) + [n - 2] + [2 * i + 1 for i in range(1, n - 1)])]
    den = [binomial(0, e, 1) for e in [2, n] + [2 * i for i in range(1, n)]]
    (num, num_zero), (den, _) = map(nonzero_product, (num, den))
    return QRational(QLaurent() if num_zero else num, den) * \
        QRational.constant(F(1, 4))


def fdim_subregular_c(n: int, qval=None) -> FormalDimensionReport:
    """Solve for the real subregular point of the type-C_n datum with the
    full weight lattice from its dominant simple-root values (q, ..., q,
    1, q), check that it is residual, assemble its mass with the known
    rational constants, and compare exactly with the closed form (sign
    recorded)."""
    if n < 3:
        raise ValueError("the subregular family needs n >= 3")
    datum = RootDatum.from_type(f"C{n}", "P")
    labels = LabelFunction.equal(datum)
    target = tuple([F(1)] * (n - 2) + [F(0), F(1)])
    r = solve_unique([[F(c) for c in a] for a in datum.simple_roots],
                     list(target))
    found = TorusPoint([0] * n, r)
    if point_index(datum, labels, found) != n:
        raise RuntimeError("the subregular point is not residual")
    density = m_point(datum, labels, found, check_residual=False)
    sign_n = 1 if n % 2 == 0 else -1
    # |W0 r| kappa-bar = (-1)^n (n+2)/4 and the residual degree is 1/(n+2)
    assembled = QRational.constant(F(sign_n, 4)) * density
    reference = subregular_c_reference(n)
    if assembled == reference:
        sign, matches = 1, True
    elif assembled == -reference:
        sign, matches = -1, True
    else:
        sign, matches = 0, False
    report = FormalDimensionReport(
        n=n, point_values=target, density=density, assembled=assembled,
        reference=reference, sign=sign, matches=matches)
    if qval is not None:
        report.numeric_q = F(qval)
        report.numeric_assembled = assembled.evaluate(F(qval))
        report.numeric_reference = reference.evaluate(F(qval))
    return report


# -- table emitters ----------------------------------------------------------------


TWIST_PRIMES = (7, 11, 13, 17, 19)


def generic_tempered_point(datum, coset: ResidualCoset) -> TorusPoint:
    """A generic point of the tempered form: the base twisted by a unitary
    element of the free subtorus whose k-th basis vector is divided by the
    k-th of TWIST_PRIMES, taken cyclically."""
    from .lattice import integer_kernel
    if not coset.support_roots:
        low = []
    else:
        low = [[int(c) for c in r.vec] for r in coset.support_roots]
    basis = integer_kernel(low) if low else \
        [[int(i == j) for j in range(datum.rank)] for i in range(datum.rank)]
    u = list(coset.point.u)
    for k, vec in enumerate(basis):
        p = TWIST_PRIMES[k % len(TWIST_PRIMES)]
        for i in range(datum.rank):
            u[i] = (u[i] + F(vec[i], p)) % 1
    return TorusPoint(tuple(u), coset.point.r)


def density_table(datum, labels, qval):
    """Rows (orbit id, parabolic, point, index, symbolic mass, numeric
    mass) for every residual coset orbit; positive-dimensional orbits are
    evaluated at a generic point of their tempered form."""
    from .residual import residual_cosets
    rows = []
    for k, coset in enumerate(residual_cosets(datum, labels)):
        if coset.dim == 0:
            # residual_cosets has checked the index of every point
            sym = m_point(datum, labels, coset.point, check_residual=False)
        else:
            try:
                sym = m_on_coset(datum, labels, coset,
                                 generic_tempered_point(datum, coset))
            except ValueError:
                sym = None
        row = {
            "orbit": k,
            "parabolic": list(coset.support),
            "point_u": [str(x) for x in coset.point.u],
            "point_r": [str(x) for x in coset.point.r],
            "index": coset.index,
            "kL": coset.k_l,
            "mass_symbolic": str(sym) if sym is not None
            else "singular-base",
        }
        if sym is not None:
            val = sym.evaluate(F(qval))
            row["mass_at_q"] = str(val) if isinstance(val, Fraction) \
                else repr(val)
        rows.append(row)
    return rows
