import cmath
import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

import numpy as np
import pytest

from heckeplan.lattice import INT64_SAFE
from heckeplan.plancherel import m_on_coset
from heckeplan.residual import (
    TorusPoint,
    _point_rows,
    pairings,
    residual_cosets,
)
from heckeplan.residue import kernel_divisors, net_pole_orders
from heckeplan.rootdata import LabelFunction, RootDatum
from heckeplan.symbolicq import (
    Cyclo,
    QLaurent,
    QRational,
    _binomial_passes,
    _evaluation_point,
    _fit,
    _order_bits,
    _reduce_block,
    _ring_product,
    cyclotomic_poly,
    nonzero_product,
)
from test_kernels import root_of_unity

F = Fraction


def test_cyclo_basic():
    z3 = root_of_unity(F(1, 3))
    # 1 + z3 + z3^2 = 0
    total = Cyclo.from_rational(1) + z3 + z3 * z3
    assert total.is_zero()
    assert (z3 * z3 * z3) == 1
    assert z3.inverse() * z3 == 1
    z6 = root_of_unity(F(1, 6))
    assert z6 * z6 == z3
    assert z6.conjugate() * z6 == 1


def test_cyclo_mixed_orders():
    z4 = root_of_unity(F(1, 4))
    z3 = root_of_unity(F(1, 3))
    w = z4 * z3
    assert w == root_of_unity(F(7, 12))


def test_qlaurent_field_axioms_random():
    rng = random.Random(5)

    def rand_poly():
        return QLaurent({F(rng.randint(-4, 4), rng.choice([1, 2])):
                         F(rng.randint(-5, 5))
                         for _ in range(rng.randint(1, 4))})

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        if not a.is_zero() and not b.is_zero():
            r = QRational(a, b)
            assert r * r.inverse() == QRational.constant(1)


def test_qrational_canonical_idempotent():
    num = QLaurent({F(2): F(1), F(0): F(-1)})     # q^2 - 1
    den = QLaurent({F(1): F(1), F(0): F(-1)})     # q - 1
    r = QRational(num, den).canonical()
    # reduces to q + 1
    assert r == QRational.constant(1) + QLaurent.monomial(1)
    r2 = r.canonical()
    assert r2.num.terms == r.num.terms and r2.den.terms == r.den.terms


def test_qlaurent_evaluate_exact():
    x = QLaurent({F(1, 2): F(3), F(-1): F(1)})
    assert x.evaluate(F(4)) == 3 * 2 + F(1, 4)
    y = x.evaluate(F(2))          # sqrt(2) is not rational: float fallback
    assert abs(y - (3 * 2 ** 0.5 + 0.5)) < 1e-12
    # 2^2000 is no float: the exact sum is formed without the float one,
    # and a float sum with such a power is not finite instead of raising
    x = QLaurent({F(2000): F(1), F(0): F(-1)})
    assert x.evaluate(F(2)) == 2 ** 2000 - 1
    y = QLaurent({F(4001, 2): F(1), F(0): F(-1)}).evaluate(F(2))
    assert not cmath.isfinite(y)


def test_combined_numerator_identity():
    # (1 + c v)(1 - c v) == 1 - c^2 v^2 for c = q^{-f/2}: the two-factor
    # numerator equals the combined single factor identically
    for f in (F(1), F(3, 2), F(2)):
        c = QLaurent.monomial(-f / 2)
        v = QLaurent.monomial(F(1, 7))  # stand-in for theta_{-alpha/2}
        two = (QLaurent.constant(1) + c * v) * (QLaurent.constant(1) - c * v)
        one = QLaurent.constant(1) - QLaurent.monomial(-f) * v * v
        assert two == one


def _torus_coset(d, labels):
    """The residual coset that is the whole torus, on which `m_on_coset`
    is q(w0)^{-1} times the kernel 1/(c(t) c(t^{-1}))."""
    return next(c for c in residual_cosets(d, labels) if c.dim == d.rank)


def test_omega_kernel_pole_order_a1():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    torus = _torus_coset(d, labels)
    # the residual point alpha(t) = q is a pole of order 1, the identity a
    # zero of order 2 (both signs of alpha vanish), and a generic point is
    # regular
    pole, one = TorusPoint([0], [1]), TorusPoint.identity(1)
    generic = TorusPoint([0], [F(7, 3)])
    assert net_pole_orders(kernel_divisors(d, labels),
                           [pole, one, generic]) == [1, -2, 0]
    with pytest.raises(ValueError, match="pole"):
        m_on_coset(d, labels, torus, pole)
    assert m_on_coset(d, labels, torus, one).is_zero()
    assert not m_on_coset(d, labels, torus, generic).is_zero()


def test_cyclo_and_qlaurent_hash_agree_with_equality():
    # equal values stored at different orders hash alike
    z = root_of_unity(F(1, 6))
    w = z.lift(12)
    assert z == w and hash(z) == hash(w) and len({z, w}) == 1
    one = z + z.conjugate()  # 2 cos(pi/3) = 1, stored at order 6
    assert one.n == 6 and one == 1 and hash(one) == hash(1)
    assert len({one, Cyclo.from_rational(1), F(1)}) == 1
    a = QLaurent({F(1, 2): z, 0: 3})
    b = QLaurent({0: 3, F(1, 2): w})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert hash(QLaurent({1: one})) == hash(QLaurent.monomial(1))


def _transform(point, mat):
    """The image of a point under an integer matrix acting on its
    coordinate vectors, by Fraction sums."""
    return TorusPoint(*([sum(Fraction(a) * x for a, x in zip(row, xs))
                         for row in mat] for xs in (point.u, point.r)))


def test_omega_kernel_w0_invariance():
    # c(t) c(t^{-1}) is W0-invariant.  Full exact equality of the density
    # on the whole torus on a couple of points per type, plus the exact
    # factor-value multiset comparison of the kernel's divisors at 50
    # points (the kernel is the product of its factors, so equal multisets
    # force equal values).
    from heckeplan.residual import inverse_transpose_matrices
    rng = random.Random(19)
    for tag in ("A2", "B2", "B3", "G2"):
        d = RootDatum.from_type(tag, "Q")
        labels = LabelFunction.equal(d)
        mats = inverse_transpose_matrices(d)
        divisors = kernel_divisors(d, labels)
        torus = _torus_coset(d, labels)
        # every factor value (u0 + <vec,u> mod 1, r0 + <vec,r>) as integer
        # numerators over scale = lcm(divisor denominators, point den); an
        # image point's den divides its preimage's
        desc_den = lcm(*(x.denominator for dv in divisors
                         for x in (dv.u0, dv.r0)))
        num_i, den_i = ([(dv.vec, int(dv.u0 * desc_den),
                          int(dv.r0 * desc_den))
                         for dv in divisors if dv.sign == sign]
                        for sign in (-1, 1))

        def fingerprint(pt, scale):
            step, lift = scale // pt.den, scale // desc_den

            def vals(descs):
                out = []
                un, rn = (x[0].tolist() for x in pairings(
                    *_point_rows([pt], d.rank), [v for v, _, _ in descs]))
                for (_, u0, r0), x, y in zip(descs, un, rn):
                    out.append(((u0 * lift + x * step) % scale,
                                r0 * lift + y * step))
                return sorted(out)
            return vals(num_i), vals(den_i)

        for k in range(50):
            t = TorusPoint(
                [F(rng.randint(0, 5), 6) for _ in range(d.rank)],
                [F(rng.randint(-12, 12), 5) for _ in range(d.rank)])
            scale = lcm(desc_den, t.den)
            base_fp = fingerprint(t, scale)
            for m in mats:
                assert fingerprint(_transform(t, m), scale) == base_fp
            if k < 2 and d.rank <= 2:
                images = [_transform(t, m) for m in mats[:6]]
                order, *orders = net_pole_orders(divisors, [t, *images])
                assert orders == [order] * len(images)
                try:
                    base = m_on_coset(d, labels, torus, t)
                except ValueError:  # a pole or a balanced crossing
                    continue
                for img in images:
                    assert m_on_coset(d, labels, torus, img) == base


def test_omega_kernel_conjugation_on_unitary_torus():
    # on T_u the kernel equals |c(t)|^{-2}: real and nonnegative
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    torus = _torus_coset(d, labels)
    rng = random.Random(23)
    for _ in range(10):
        t = TorusPoint([F(rng.randint(0, 11), 12) for _ in range(2)],
                            [0, 0])
        try:
            val = m_on_coset(d, labels, torus, t)
        except ValueError:  # a pole or a balanced crossing
            continue
        num = val.evaluate(F(2))
        if isinstance(num, Fraction):
            assert num >= 0
        else:
            assert abs(complex(num).imag) < 1e-9
            assert complex(num).real >= -1e-12


def test_character_value():
    t = TorusPoint([F(1, 3), 0], [F(1, 2), F(2)])
    (u, r), = t.values_of([(1, 1)])
    (exp, coeff), = QLaurent({r: root_of_unity(u)}).terms.items()
    assert exp == F(5, 2)
    assert coeff == root_of_unity(F(1, 3))


def test_tex_output():
    r = QRational(QLaurent({F(2): F(1), F(0): F(-1)}),
                  QLaurent({F(1): F(1)}))
    assert "q" in str(r)


# -- the integer product kernel against the pairwise expansion it replaced ----


def _pairwise_product(factors):
    """The product of the nonzero factors one QLaurent at a time: the
    expansion `nonzero_product` replaced, kept here as its reference.
    Each factor term (c, j, n, k, d) is c zeta_n^j q^(k/d)."""
    out, zeros = QLaurent.constant(1), 0
    for factor in factors:
        value = QLaurent()
        for c, j, n, k, d in factor:
            value = value + QLaurent(
                {F(k, d): root_of_unity(F(j, n)) * F(c)})
        if value.is_zero():
            zeros += 1
        else:
            out = out * value
    return out, zeros


def _same_product(factors):
    (new, zeros), (ref, ref_zeros) = (nonzero_product(factors),
                                      _pairwise_product(factors))
    assert zeros == ref_zeros
    assert {e: (c.n, c.num, c.den) for e, c in new.terms.items()} == \
        {e: (c.n, c.num, c.den) for e, c in ref.terms.items()}
    assert str(new) == str(ref)


ORDERS = (1, 2, 3, 4, 6, 7, 11, 14, 77)


def _random_term(rng, k=None, d=None):
    n = rng.choice(ORDERS)
    c = rng.choice((1, -1, 1, -1, 2, -3, F(3, 2), F(-5, 7)))
    return (c, rng.randrange(-n, 2 * n), n,
            rng.randint(-4, 4) if k is None else k,
            rng.choice((1, 1, 2, 3)) if d is None else d)


def _random_factor(rng):
    kind = rng.random()
    if kind < 0.1:   # one term
        return (_random_term(rng),)
    if kind < 0.2:   # two terms on one power of q: a nonzero constant
        a = _random_term(rng)
        return (a, _random_term(rng, a[3], a[4]))
    if kind < 0.3:   # 0: c zeta^j = -(-c zeta^j), or -(c zeta^j) as zeta_2
        c, j, n, k, d = _random_term(rng)
        return ((c, j, n, k, d), (-c, j + n, n, k, d)) if rng.random() < .5 \
            else ((c, 2 * j, 2 * n, k, d), (c, 2 * j + n, 2 * n, k, d))
    return (_random_term(rng), _random_term(rng))


def test_nonzero_product_matches_the_pairwise_expansion_on_random_factors():
    rng = random.Random(41)
    for _ in range(100):
        factors = [_random_factor(rng) for _ in range(rng.randint(0, 9))]
        # repeat some factors with a sign or a root flipped, so that rows
        # cancel on the way, in Z[x]/(x^N - 1) or only at zeta_N
        for _ in range(rng.randint(0, 3)):
            (c, j, n, k, d), *rest = rng.choice(factors or [
                (_random_term(rng), _random_term(rng))])
            flip = rng.choice(((-c, j, n, k, d), (c, j + n, 2 * n, k, d),
                               (c, 2 * j + n, 2 * n, k, d)))
            factors.insert(rng.randint(0, len(factors)), (flip, *rest))
        _same_product(factors)


def test_nonzero_product_rows_that_cancel_drop_their_orders():
    # (1 + z7 q)(1 - z7 q) drops the q row; times (1 + z3 q) it holds z3
    # alone, at order 3.  Over zeta_2, (z2 q - 1)(q - 1) drops the q row
    # although its integer row x^(N/2) + 1 is not 0, and so does
    # (1 + z3 q)(1 + z3^2 q)(1 + q) through 1 + z3 + z3^2 = 0.
    z = [(1, 0, 1, 0, 1)]
    cases = [
        [(*z, (1, 1, 7, 1, 1)), (*z, (-1, 1, 7, 1, 1)), (*z, (1, 1, 3, 1, 1)),
         (*z, (1, 1, 11, 2, 1))],
        [((1, 1, 2, 1, 1), (-1, 0, 1, 0, 1)), ((1, 0, 1, 1, 1),
                                                (-1, 0, 1, 0, 1)),
         (*z, (1, 1, 7, 1, 1))],
        [(*z, (1, 1, 3, 1, 1)), (*z, (1, 2, 3, 1, 1)), (*z, (1, 0, 1, 1, 1)),
         (*z, (1, 1, 11, 1, 1)), (*z, (1, 1, 77, 1, 2))],
        [(*z, (1, 1, 14, 1, 2)), (*z, (1, 8, 14, 1, 2)), (*z, (-1, 3, 7, 1, 3))],
    ]
    for factors in cases:
        _same_product(factors)
    new, _ = nonzero_product(cases[0][:3])
    assert new.terms[F(1)].n == 3


def test_nonzero_product_counts_zero_factors_and_keeps_rational_terms():
    factors = [((1, 1, 2, 3, 2), (1, 0, 1, 3, 2)),       # z2 + 1 = 0
               ((F(3, 2), 0, 1, 1, 3), (F(-3, 2), 4, 4, 1, 3)),   # 0
               ((F(3, 2), 0, 1, 1, 3), (F(-1, 6), 0, 1, 0, 1)),
               ((2, 0, 1, 0, 1),), (), ((1, 0, 1, 5, 2),)]
    _same_product(factors)
    value, zeros = nonzero_product(factors)
    assert zeros == 3
    assert all(c.n == 1 for c in value.terms.values())
    assert nonzero_product([]) == (QLaurent.constant(1), 0)


def test_nonzero_product_leaves_int64_when_the_bound_requires():
    # the block is int64 while the product of the factors' coefficient
    # 1-norms stays below 2^62, and Python integers above it
    edge = 2 ** 62
    for big, wide in ((edge - 2, False), (edge - 1, True),
                      (10 ** 19 + 1, True)):
        factors = [((big, 0, 1, 1, 1), (1, 0, 1, 0, 1))]
        assert (_ring_product(factors)[0].dtype == object) == wide
        _same_product(factors)
    # two factors past the bound together, with roots of order 7 whose
    # x^j mod Phi_7 have 1-norm at most 6
    factors = [((2 ** 31, 1, 7, 1, 1), (-3, 0, 1, 0, 1)),
               ((2 ** 31 + 5, 3, 7, 1, 1), (1, 2, 7, 0, 1)),
               ((1, 1, 7, 1, 1), (-1, 0, 1, 0, 1))]
    assert _ring_product(factors)[0].dtype == object
    _same_product(factors)
    assert _ring_product(factors[:1] + factors[2:])[0].dtype == np.int64


def _sweep_reduce(p: list, n: int) -> list:
    """The reference reduction of an integer list mod Phi_n: x^n = 1, then
    the columns from the top down, each by x^i = -sum_j a_j x^(i-phi+j) for
    Phi_n = x^phi + sum_j a_j x^j; trailing zeros trimmed."""
    p = list(p)
    for k in range(n, len(p)):
        p[k % n] += p[k]
    del p[n:]
    *low, (deg, _) = cyclotomic_poly(n)
    for i in range(len(p) - 1, deg - 1, -1):
        c = p[i]
        if c:
            for j, a in low:
                p[i - deg + j] -= c * a
    del p[deg:]
    while p and not p[-1]:
        p.pop()
    return p


def _passes_scanning_each_pass(rows, r, power):
    """`_binomial_passes` with a `_fit` scan of the rows before every
    pass, as it ran before its running bound: (rows, the dtype each pass
    ran at, the growth of each pass)."""
    primes = [p for _, p in _order_bits(r)]
    width, dtypes, growths = rows.shape[1], [], []
    for k in range(len(primes) + 1):
        divide = (-1) ** k != power
        for d in (r // prod(s) for s in combinations(primes, k)):
            if d >= width:
                continue
            spans = -(-width // d)
            growths.append(spans if divide else 2)
            rows = _fit(rows, growths[-1])
            dtypes.append(rows.dtype)
            if divide:
                pad = np.zeros((len(rows), spans * d - width), rows.dtype)
                rows = np.hstack((rows, pad)).reshape(-1, spans, d)
                rows = rows.cumsum(axis=1).reshape(-1, spans * d)[:, :width]
            else:
                rows[:, d:] -= rows[:, :-d]
    return rows, dtypes, growths


def test_binomial_passes_leave_int64_where_a_scan_each_pass_would():
    # the running bound makes the dtype decisions of a scan before every
    # pass: rows whose largest |entry| sits at either side of the int64
    # edge of each pass's accumulated growth, on the product (power 1)
    # and the quotient (power -1) path, give the same rows at the same
    # dtype, and Python-integer rows stay on Python integers
    rng = random.Random(79)
    for r, width, power in ((6, 5, 1), (30, 9, 1), (30, 22, -1),
                            (105, 48, 1), (105, 57, -1), (1001, 280, -1)):
        _, _, growths = _passes_scanning_each_pass(
            np.zeros((1, width), np.int64), r, power)
        edges = {INT64_SAFE // prod(growths[:i + 1]) for i in
                 range(len(growths))}
        seen = set()
        for top in sorted({e + k for e in edges for k in (-1, 0, 1)}):
            rows = np.array([[rng.randint(-top, top) for _ in range(width)]
                             for _ in range(3)] + [[top] + [0] * (width - 1)],
                            dtype=np.int64)
            want, dtypes, _ = _passes_scanning_each_pass(rows.copy(), r,
                                                         power)
            got = _binomial_passes(rows.copy(), r, power)
            assert got.dtype == want.dtype == dtypes[-1]
            assert got.tolist() == want.tolist()
            seen.add(got.dtype)
            wide = _binomial_passes(rows.astype(object), r, power)
            assert wide.dtype == object and wide.tolist() == want.tolist()
        assert seen == {np.dtype(np.int64), np.dtype(object)}


def test_reduce_block_matches_the_row_reduction_on_both_paths():
    # on int64 rows and on Python-integer rows, every row reduces as the
    # column sweep reduces it, one list of Python integers at a time
    rng = random.Random(43)
    for n in (1, 2, 7, 12, 77, 105, 1001):
        deg = cyclotomic_poly(n)[-1][0]
        for bound in (2 ** 20, 2 ** 61, 10 ** 30):
            rows = []
            for _ in range(4):
                # entries of either sign whose absolute values sum to bound
                cols = rng.sample(range(n), min(n, rng.randint(1, 3)))
                cuts = sorted(rng.randint(0, bound) for _ in cols[1:])
                row = [0] * n
                for col, a, b in zip(cols, [0] + cuts, cuts + [bound]):
                    row[col] = rng.choice((1, -1)) * (b - a)
                rows.append(row)
            rows.append([0] * (n - 1) + [bound])
            block = np.array(rows, dtype=np.int64 if bound < INT64_SAFE
                             else object)
            out = _reduce_block(block, n)
            if bound == 2 ** 20:
                assert out.dtype == np.int64
            for row, got in zip(rows, out.tolist()):
                want = _sweep_reduce(row, n)
                assert got == want + [0] * (deg - len(want))
        # the block leaves int64 when a step's largest |entry| times its
        # growth reaches 2^62.  Rows already reduced (zero from phi(n) up)
        # have a zero quotient, so their one such step is the subtraction
        # of the remainder, of growth 2: the edge is at 2^61.
        for top, wide in ((2 ** 61 - 1, False), (2 ** 61, True)):
            rows = [[rng.randint(-top, top) for _ in range(deg)]
                    + [0] * (n - deg) for _ in range(3)]
            rows.append([-top] + [0] * (n - 1))
            out = _reduce_block(np.array(rows, np.int64), n)
            assert (out.dtype == object) == wide
            assert out.tolist() == [row[:deg] for row in rows]
    # at o = 17017, entries within 2^30 give 1-norms up to 2^44, past the
    # 2^41 that a static rule from the 1-norms of x^j mod Phi_o allowed,
    # and stay on int64; each reduced row takes its input's value at the
    # root w of order o modulo the prime p
    n = 17017
    p, powers = _evaluation_point(n)
    powers = powers.tolist()
    rows = [[rng.randint(-2 ** 30, 2 ** 30) for _ in range(n)]
            for _ in range(3)]
    rows.append([0] * (n - 1) + [2 ** 30])
    out = _reduce_block(np.array(rows, np.int64), n)
    assert out.dtype == np.int64
    assert out.shape == (4, cyclotomic_poly(n)[-1][0])
    for row, got in zip(rows, out.tolist()):
        assert (sum(a * w for a, w in zip(row, powers)) % p
                == sum(a * w for a, w in zip(got, powers)) % p)
