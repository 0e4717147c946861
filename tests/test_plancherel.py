from fractions import Fraction

import numpy as np
import pytest

from heckeplan.plancherel import (
    _length_levels,
    density_table,
    fdim_subregular_c,
    length_count,
    m_on_coset,
    m_point,
    m_upper,
    plancherel_point_mass,
    poincare_product,
    poincare_tail_bound,
    poincare_truncated,
    subregular_c_reference,
)
from heckeplan.residual import (
    TorusPoint,
    orbit_of_point,
    residual_cosets,
    steinberg_point,
)
from heckeplan.rootdata import (
    LabelFunction,
    RootDatum,
)
from heckeplan.symbolicq import ONE, QLaurent, QRational

F = Fraction


def _transform(point, mat):
    """The image of a point under an integer matrix acting on its
    coordinate vectors, by Fraction sums."""
    return TorusPoint(*([sum(Fraction(a) * x for a, x in zip(row, xs))
                         for row in mat] for xs in (point.u, point.r)))


def laurent(d):
    return QLaurent({F(k): F(v) for k, v in d.items()})


def test_m_point_a1_steinberg():
    # frozen by hand substitution: m(r_st) = -(q-1)/(q+1)
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    st = steinberg_point(d, labels)
    m = m_point(d, labels, st)
    expected = QRational(laurent({1: -1, 0: 1}), laurent({1: 1, 0: 1}))
    assert m == expected


def test_m_point_rejects_non_residual():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    with pytest.raises(ValueError):
        m_point(d, labels, TorusPoint([0], [F(7)]))


def test_m_point_orbit_equivariant():
    for tag in ("B2", "G2"):
        d = RootDatum.from_type(tag, "Q")
        labels = LabelFunction.equal(d)
        from heckeplan.residual import residual_points
        for p in residual_points(d, labels):
            base = m_point(d, labels, p)
            for img in orbit_of_point(d, p):
                assert m_point(d, labels, img) == base


def test_m_point_rationality_integer_labels():
    # with integer-even labels the point density lies in Q(q): clearing
    # exponents leaves integral powers
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d, 2)
    from heckeplan.residual import residual_points
    for p in residual_points(d, labels):
        m = m_point(d, labels, p)
        for e in list(m.num.terms) + list(m.den.terms):
            assert e.denominator == 1


def test_density_symmetry_under_label_inversion():
    # nu(t, q) = nu(t, q^{-1}): with f -> -f and the matched residual
    # point (split exponents negate), |m| is unchanged at numeric q
    for tag in ("A1", "B2"):
        d = RootDatum.from_type(tag, "Q")
        labels = LabelFunction.equal(d)
        from heckeplan.residual import residual_points
        pts = residual_points(d, labels)
        neg = labels.scaled(-1)
        pts_neg = residual_points(d, neg)
        vals = sorted(abs(m_point(d, labels, p).evaluate(F(2)))
                      for p in pts)
        vals_neg = sorted(abs(m_point(d, neg, p).evaluate(F(2)))
                          for p in pts_neg)
        assert vals == vals_neg


def test_poincare_a1():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    res = poincare_product(d, labels)
    assert res.valid
    # (q+1)/(q-1), equal to the exponent formula (q^2-1)/(q-1)^2
    expected = QRational(laurent({1: 1, 0: 1}), laurent({1: 1, 0: -1}))
    assert res.product == expected
    exp_formula = QRational(laurent({2: 1, 0: -1}),
                            laurent({2: 1, 1: -2, 0: 1}))
    assert res.product == exp_formula


def test_poincare_truncated_matches_product():
    # q = 2, X = Q: the truncated affine sum approaches the product value
    for tag, lmax in (("A1", 30), ("A2", 25), ("B2", 20)):
        d = RootDatum.from_type(tag, "Q")
        labels = LabelFunction.equal(d)
        res = poincare_product(d, labels)
        total, layers = poincare_truncated(d, labels, 2, lmax,
                                           with_layers=True)
        exact = res.product.evaluate(F(2))
        bound = poincare_tail_bound(d, labels, 2, lmax, layers)
        assert abs(float(exact) - float(total)) <= max(bound, 1e-6)


@pytest.mark.parametrize("q", [F(2), F(5, 2)])
def test_poincare_truncated_a1_is_the_geometric_sum(q):
    # A1/Q at equal labels has one element of length 0 and two of each
    # length e >= 1, each with q(w) = q^e
    d = RootDatum.from_type("A1", "Q")
    cut = 20000
    x = 1 / q
    geometric = x * (1 - x ** cut) / (1 - x)
    total = poincare_truncated(d, LabelFunction.equal(d), q, cut)
    assert isinstance(total, Fraction) and total == 1 + 2 * geometric


def test_power_sum_matches_fraction_sums():
    import random
    from heckeplan.plancherel import _power_sum
    rng = random.Random(5)
    for _ in range(60):
        counts = np.array([rng.randint(0, 9) for _ in range(rng.randint(1, 70))])
        s = F(rng.randint(1, 9), rng.randint(1, 9))
        assert _power_sum(counts, s) == sum(int(c) * s ** j
                                            for j, c in enumerate(counts))


BOTT_EXPONENTS = {"A1": (1,), "A2": (1, 2), "A3": (1, 2, 3),
                  "B2": (1, 3), "B3": (1, 3, 5), "C3": (1, 3, 5),
                  "G2": (1, 5)}


def _bott_coefficients(exponents, top):
    """Coefficients of t^0..t^top of Bott's series W0(t) / prod(1 - t^e)
    of the affine Weyl group, with W0(t) = prod (1 - t^{e+1}) / (1 - t)."""
    series = [1] + [0] * top

    def times(poly):
        out = [0] * (top + 1)
        for i, c in enumerate(series):
            for k, a in poly.items():
                if i + k <= top:
                    out[i + k] += c * a
        return out

    def over(e):    # 1 / (1 - t^e)
        out = list(series)
        for i in range(e, top + 1):
            out[i] += out[i - e]
        return out

    for e in exponents:
        series = times({0: 1, e + 1: -1})
        series = over(1)
        series = over(e)
    return series


@pytest.mark.parametrize("tag", sorted(BOTT_EXPONENTS))
def test_layer_counts_are_bott_series_coefficients(tag):
    d = RootDatum.from_type(tag, "Q")
    _, layers = poincare_truncated(d, LabelFunction.equal(d), 2, 25,
                                   with_layers=True)
    assert layers == _bott_coefficients(BOTT_EXPONENTS[tag], 25)


@pytest.mark.parametrize("tag", sorted(BOTT_EXPONENTS))
def test_length_count_sums_the_bott_series(tag):
    d = RootDatum.from_type(tag, "Q")
    series = _bott_coefficients(BOTT_EXPONENTS[tag], 60)
    for cut in (1, 7, 25, 60):
        total = sum(series[:cut + 1])
        assert length_count(d, cut, 1 << 40) == total
        assert length_count(d, cut, total) == total
        assert length_count(d, cut, total - 1) == total
    _, layers = poincare_truncated(d, LabelFunction.equal(d), 2, 25,
                                   with_layers=True)
    assert length_count(d, 25, 1 << 40) == sum(layers)


def test_length_count_stops_at_the_cap_without_expanding():
    # a cut of 10^17 would need a series of 10^17 terms
    d = RootDatum.from_type("A2", "Q")
    assert length_count(d, 10 ** 17, 1 << 20) == (1 << 20) + 1


def test_the_walk_cap_admits_the_default_cut_up_to_rank_4():
    from heckeplan.cli import WALK_CAP
    for tag in ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4",
                "D4", "F4"):
        d = RootDatum.from_type(tag, "Q")
        assert length_count(d, 40, WALK_CAP) <= WALK_CAP
    for tag in ("A5", "B5", "C5", "D5"):
        d = RootDatum.from_type(tag, "Q")
        assert length_count(d, 40, WALK_CAP) > WALK_CAP


def test_bott_series_of_a2():
    assert _bott_coefficients((1, 2), 5) == [1, 3, 6, 9, 12, 15]


def affine_length(datum, mat, x):
    """Length of v -> mat v + x in W = W0 x| X by the Iwahori-Matsumoto
    formula: over the roots beta with w(beta) = alpha positive, the sum of
    |<x, alpha^vee>| when beta is positive and |<x, alpha^vee> - 1| when
    it is negative."""
    total = 0
    for beta in datum.roots:
        alpha = datum.root_by_vec[tuple(
            sum(a * b for a, b in zip(row, beta.vec)) for row in mat)]
        if alpha.height > 0:
            pairing = sum(a * b for a, b in zip(x, alpha.coroot))
            total += abs(pairing if beta.height > 0 else pairing - 1)
    return total


@pytest.mark.parametrize("tag", ["B2", "G2"])
def test_level_elements_have_their_level_as_length(tag):
    # Iwahori-Matsumoto: every element the walk puts on level l has
    # length l, and with unit steps its exponent is l as well
    d = RootDatum.from_type(tag, "Q")
    n = d.rank
    steps = np.ones(n + 1, dtype=np.int64)
    for length, (level, exps) in enumerate(_length_levels(d, steps, 6)):
        assert exps.tolist() == [length] * len(level)
        assert (level[:, n] == [0] * n + [1]).all()
        for a in level.tolist():
            assert affine_length(d, [row[:n] for row in a[:n]],
                                 [row[n] for row in a[:n]]) == length


def test_poincare_divergence_flag():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d, 0)
    res = poincare_product(d, labels)
    assert not res.valid


def test_point_mass_a1():
    # mass of the special orbit = (q-1)/(q+1) = 1/P
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    st = steinberg_point(d, labels)
    mass = plancherel_point_mass(d, labels, st)
    expected = QRational(laurent({1: 1, 0: -1}), laurent({1: 1, 0: 1}))
    assert mass == expected
    assert mass.evaluate(F(2)) == F(1, 3)
    # reciprocal of the affine reciprocal-length sum (independent oracle)
    total = poincare_truncated(d, labels, 2, 45)
    assert abs(1 / float(total) - float(mass.evaluate(F(2)))) < 1e-9


def test_point_mass_a2_at_2():
    # frozen from the affine BFS oracle: sum q^{-l(w)} = 7 at q = 2 for
    # A2 with X = Q, so the special orbit mass is 1/7
    d = RootDatum.from_type("A2", "Q")
    labels = LabelFunction.equal(d)
    total = poincare_truncated(d, labels, 2, 40)
    assert abs(float(total) - 7.0) < 1e-6
    st = steinberg_point(d, labels)
    mass = plancherel_point_mass(d, labels, st)
    assert mass.evaluate(F(2)) == F(1, 7)


def test_point_mass_rejects_other_points():
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    from heckeplan.residual import residual_points
    other = next(p for p in residual_points(d, labels)
                 if any(x != 0 for x in p.u))
    with pytest.raises(ValueError):
        plancherel_point_mass(d, labels, other)


def test_m_on_coset_factorizes():
    # exact identity on the tempered form: m_L(t) = m_base * m^L(t), where
    # m_base is the point density within the support datum
    from heckeplan.plancherel import generic_tempered_point, \
        m_point_on_support
    for tag in ("B2", "A2"):
        d = RootDatum.from_type(tag, "Q")
        labels = LabelFunction.equal(d)
        for coset in residual_cosets(d, labels):
            if coset.dim == 0:
                continue
            t = generic_tempered_point(d, coset)
            val = m_on_coset(d, labels, coset, t)
            up, singular = m_upper(d, labels, coset, t)
            assert not singular
            base = m_point_on_support(d, labels, coset)
            assert val == base * up


def test_m_upper_empty_complement():
    # point cosets: the complement product is empty and the value is
    # q(w^L)^{-1} with W_L = W_0, i.e. exactly 1
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    full = [c for c in residual_cosets(d, labels) if c.dim == 0]
    for coset in full:
        up, singular = m_upper(d, labels, coset, coset.point)
        assert not singular
        assert up == QRational(QLaurent.monomial(0), ONE)


def test_m_upper_positive_on_tempered_samples():
    # numeric positivity of the complement density on tempered samples
    import random
    from heckeplan.lattice import integer_kernel
    rng = random.Random(41)
    for tag in ("A2", "B2"):
        d = RootDatum.from_type(tag, "Q")
        labels = LabelFunction.equal(d)
        for coset in residual_cosets(d, labels):
            if coset.dim == 0:
                continue
            low = [[int(c) for c in r.vec] for r in coset.support_roots]
            basis = integer_kernel(low) if low else \
                [[int(i == j) for j in range(d.rank)] for i in range(d.rank)]
            hits = 0
            for _ in range(60):
                u = list(coset.point.u)
                for vec in basis:
                    k = rng.randint(0, 30)
                    for i in range(d.rank):
                        u[i] = (u[i] + F(vec[i] * k, 31)) % 1
                t = TorusPoint(tuple(u), coset.point.r)
                up, singular = m_upper(d, labels, coset, t)
                if singular:
                    continue
                hits += 1
                val = up.evaluate(F(2))
                if isinstance(val, Fraction):
                    assert val > 0
                else:
                    assert abs(complex(val).imag) < 1e-9
                    assert complex(val).real > 0
            assert hits > 30


def test_m_upper_t_is_inverse_kernel():
    # for L = T the complement product is the full inverse kernel
    from heckeplan.symbolicq import omega_kernel
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    t_coset = next(c for c in residual_cosets(d, labels) if c.dim == 2)
    pt = TorusPoint([F(1, 5), F(1, 3)], [0, 0])
    up, singular = m_upper(d, labels, t_coset, pt)
    assert not singular
    kernel, order = omega_kernel(d, labels, pt)
    assert order == 0
    expected = QRational(QLaurent.monomial(-labels.q_w0_exponent()),
                         ONE) * kernel
    assert up == expected


def test_m_upper_stabilizer_invariance():
    # m^L(wt) = m^{wL}(wt): for w stabilizing the coset this is invariance
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    coset = next(c for c in residual_cosets(d, labels) if c.dim == 1)
    from heckeplan.residual import inverse_transpose_matrices
    pt = TorusPoint(
        [coset.point.u[0] + F(1, 5), coset.point.u[1]], coset.point.r)
    base, s0 = m_upper(d, labels, coset, pt)
    mats = inverse_transpose_matrices(d)
    support_vecs = frozenset(r.vec for r in coset.support_roots)
    for a, ait in zip(d.weyl.mats.tolist(), mats):
        img_support = frozenset(
            tuple(sum(a[i][j] * v[j] for j in range(2)) for i in range(2))
            for v in support_vecs)
        if img_support != support_vecs:
            continue
        img_pt = _transform(pt, ait)
        # same coset: compare values when the image point is on it
        val, sing = m_upper(d, labels, coset, img_pt)
        if not sing and not s0:
            assert val == base


def test_fdim_subregular_c3():
    rep = fdim_subregular_c(3, qval=4)
    assert rep.matches
    assert rep.numeric_assembled == rep.sign * rep.numeric_reference
    # reference at q=4 is an exact rational
    assert rep.numeric_reference == subregular_c_reference(3).evaluate(F(4))


def test_fdim_subregular_c4():
    rep = fdim_subregular_c(4)
    assert rep.matches


def test_density_table_b2():
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    rows = density_table(d, labels, qval=2)
    assert len(rows) == 5
    for row in rows:
        assert row["mass_symbolic"] != "singular-base"
        assert "inf" not in row.get("mass_at_q", "")
