"""Integer kernels of the enumeration: Bareiss determinants, the exact
graded candidate search, the inverse-transpose stack, the root
permutations, the integer torus-point encoding with its pairing, the
threshold hits and the graded reflection orbit, each against the plain
exact computation with Fractions."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import numpy as np
import pytest

from heckeplan.lattice import (
    mat_inverse,
    rational_det,
    solve_unique,
    transpose,
)
from heckeplan.residual import (
    TorusPoint,
    _bareiss_det,
    _candidate_gammas,
    _coset_orbit,
    _graded_action,
    _in_graded_system,
    _orbit_rows,
    _row_to_point,
    _weyl_action,
    canonical_point,
    graded_labels,
    inverse_transpose_matrices,
    orbit_of_point,
    point_index,
    residual_cosets,
    residual_points,
    scaling_check,
    threshold_hits,
    unitary_candidates,
)
from heckeplan.rootdata import (
    LabelFunction,
    RootDatum,
    parabolic_subsystem_roots,
    random_label_vector,
    root_permutations,
)


def _random_stack(rng, n, count, span):
    mats = []
    for _ in range(count):
        m = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        shape = rng.randrange(4)
        if shape == 1:                      # zero leading pivot
            for row in m:
                row[0] = 0
            m[-1][0] = rng.choice([-1, 1])
        elif shape == 2 and n > 1:          # repeated row: singular
            m[-1] = list(m[0])
        elif shape == 3 and n > 1:          # dependent row: singular
            m[-1] = [2 * a - b for a, b in zip(m[0], m[1 % n])]
        mats.append(m)
    return mats


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bareiss_matches_rational_det(n):
    rng = random.Random(100 + n)
    mats = _random_stack(rng, n, 200, 3)
    got = _bareiss_det(np.array(mats, dtype=np.int64))
    assert got.dtype == np.int64
    want = [rational_det(m) for m in mats]
    assert [Fraction(int(x)) for x in got] == want
    assert any(w == 0 for w in want) and any(w != 0 for w in want)


def test_bareiss_object_stack_is_exact_past_int64():
    rng = random.Random(7)
    mats = [[[rng.randint(10 ** 6 - 50, 10 ** 6 + 50) * rng.choice([-1, 1])
              for _ in range(5)] for _ in range(5)] for _ in range(40)]
    mats.append([[10 ** 6] * 5] * 5)       # singular
    got = _bareiss_det(np.array(mats, dtype=object))
    want = [rational_det(m) for m in mats]
    assert [Fraction(x) for x in got] == want
    assert max(abs(w) for w in want) > 2 ** 63


def _brute_gammas(positives, klabels, n):
    out = set()
    for combo in combinations(range(len(positives)), n):
        rows = [[Fraction(v) for v in positives[i].vec] for i in combo]
        sol = solve_unique(rows, [klabels[positives[i].vec] for i in combo])
        if sol is not None:
            out.add(tuple(sol))
    return sorted(out)


def _graded_problems(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(11)
    label_sets = [LabelFunction.equal(d)] + [
        LabelFunction.from_affine_nodes(d, random_label_vector(d, rng))
        for _ in range(2)]
    for labels in label_sets:
        for cand in unitary_candidates(d).points:
            positives = [r for r in cand.r_s0 if r.height > 0]
            yield d, positives, graded_labels(d, labels, cand)


@pytest.mark.parametrize("tag,lattice", [("A2", "Q"), ("G2", "Q"),
                                         ("B3", "P"), ("C3", "P"),
                                         ("D4", "P")])
def test_candidate_gammas_match_every_subset_solve(tag, lattice):
    problems = 0
    for d, positives, kl in _graded_problems(tag, lattice):
        if len(positives) < d.rank:
            continue
        got = _candidate_gammas(positives, kl, d.rank)
        assert got == _brute_gammas(positives, kl, d.rank)
        problems += 1
    assert problems >= 3


def test_candidate_gammas_past_int64_stay_exact():
    # labels near 10^18 push the Bareiss intermediates past int64, so the
    # search runs on Python integers and must still agree exactly
    d = RootDatum.from_type("B3", "P")
    cand = unitary_candidates(d).points[0]
    positives = [r for r in cand.r_s0 if r.height > 0]
    kl = {r.vec: Fraction(10 ** 18 + 7 * k, 10 ** 6 + 3)
          for k, r in enumerate(positives)}
    got = _candidate_gammas(positives, kl, d.rank)
    assert got and got == _brute_gammas(positives, kl, d.rank)


@pytest.mark.parametrize("tag,lattice", [("G2", "Q"), ("B3", "P"),
                                         ("D4", "P")])
def test_inverse_transposes_match_exact_inverse(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    got = inverse_transpose_matrices(d)
    want = [tuple(tuple(int(x) for x in row)
                  for row in transpose(mat_inverse([list(r) for r in a])))
            for a in d.weyl_matrices()]
    assert got == want


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("G2", "Q")])
def test_root_permutations_match_elementwise(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    perms = root_permutations(d)
    assert perms.shape == (len(d.weyl_elements()), len(d.roots))
    for g, w in enumerate(d.weyl_elements()):
        assert tuple(perms[g].tolist()) == w.root_permutation()


# -- the integer pairing primitive and what is built on it ----------------------


def _fraction_value(vec, u, r):
    """<vec, u> mod 1 and <vec, r> by Fraction sums, the pairing oracle."""
    return (sum(Fraction(v) * u[i] for i, v in enumerate(vec)) % 1,
            sum(Fraction(v) * r[i] for i, v in enumerate(vec)))


def _random_point_data(rng, n):
    """Rational coordinates with u past [0, 1), negative r, denominators
    up to 10^6 and numerators near 10^18."""
    def coordinate(u):
        den = rng.choice([1, 2, 3, 12, rng.randint(1, 10 ** 6)])
        num = rng.choice([rng.randint(-40, 40),
                          rng.randint(-10 ** 18, 10 ** 18) + rng.randint(
                              -5, 5)])
        return Fraction(num + (7 * den if u else 0), den)
    return ([coordinate(True) for _ in range(n)],
            [coordinate(False) for _ in range(n)])


def test_point_encoding_matches_fractions():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 5)
        u, r = _random_point_data(rng, n)
        pt = TorusPoint(u, r)
        assert pt.u == tuple(x % 1 for x in u)
        assert pt.r == tuple(r)
        assert pt.den == lcm(1, *(x.denominator for x in pt.u + pt.r))
        assert all(0 <= x < pt.den for x in pt.un)
        # the same point from scaled numerators has the same encoding
        k = rng.randint(2, 10 ** 6)
        same = TorusPoint.from_numerators(
            pt.den * k, [x * k + pt.den * k * rng.randint(-3, 3)
                         for x in pt.un], [x * k for x in pt.rn])
        assert same == pt and hash(same) == hash(pt) and same.key() == pt.key()
        other = TorusPoint(u, [x + Fraction(1, 10 ** 6 + 3) for x in r])
        assert other != pt


def test_pairing_matches_fraction_sums():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 5)
        u, r = _random_point_data(rng, n)
        pt = TorusPoint(u, r)
        for _ in range(5):
            vec = tuple(rng.randint(-4, 4) for _ in range(n))
            uval, rval = _fraction_value(vec, u, r)
            un, rn = pt.pairing(vec)
            assert 0 <= un < pt.den
            assert (Fraction(un, pt.den), Fraction(rn, pt.den)) == \
                (uval, rval) == pt.value_of(vec)
            # takes: the value itself, and values off by 1/2 or in r
            assert pt.takes(vec, uval + rng.randint(-2, 2), rval)
            assert not pt.takes(vec, uval + Fraction(1, 2), rval)
            assert not pt.takes(vec, uval, rval + Fraction(1, 10 ** 6 + 3))


def test_point_operations_match_fractions():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(1, 4)
        p = TorusPoint(*_random_point_data(rng, n))
        q = TorusPoint(*_random_point_data(rng, n))
        assert p.inverse() == TorusPoint([-a for a in p.u],
                                         [-a for a in p.r])
        assert p.star() == TorusPoint(p.u, [-a for a in p.r])
        assert p.split_part() == TorusPoint([0] * n, p.r)
        eps = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        assert p.scale_split(eps) == TorusPoint(p.u, [a * eps for a in p.r])
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert p.transform(m) == TorusPoint(
            [sum(m[i][j] * p.u[j] for j in range(n)) for i in range(n)],
            [sum(m[i][j] * p.r[j] for j in range(n)) for i in range(n)])
        vecs = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(3)]
        assert p.agrees_on(q, vecs) == all(
            _fraction_value(v, p.u, p.r) == _fraction_value(v, q.u, q.r)
            for v in vecs)
        assert p.agrees_on(TorusPoint(p.u, p.r), vecs)


def _fraction_threshold_hits(datum, labels, point, roots):
    """threshold_hits by Fraction sums, the oracle."""
    poles, zeros = [], []
    for root in roots:
        u, r = _fraction_value(root.vec, point.u, point.r)
        a = labels.pole_exponent(root.vec)
        b = labels.minus_pole_exponent(root.vec)
        if (u == 0 and r == a) or (u == Fraction(1, 2) and r == b):
            poles.append(root)
        if r == 0 and (u == 0 or u == Fraction(1, 2)):
            zeros.append(root)
    return poles, zeros


@pytest.mark.parametrize("tag,lattice", [("A2", "Q"), ("B3", "P"),
                                         ("C3", "P"), ("D4", "P"),
                                         ("G2", "Q")])
def test_threshold_hits_match_fraction_version(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(53)
    label_sets = [LabelFunction.equal(d)] + [
        LabelFunction.from_affine_nodes(d, random_label_vector(d, rng))
        for _ in range(2)]
    hits = 0
    for labels in label_sets:
        for p in residual_points(d, labels):
            for pt in list(orbit_of_point(d, p))[:12] + [p.star(), p.inverse()]:
                for roots in (d.roots, d.roots[::3]):
                    got = threshold_hits(d, labels, pt, roots=roots)
                    assert got == _fraction_threshold_hits(d, labels, pt, roots)
                    hits += len(got[0]) + len(got[1])
    assert hits > 0


def _tuple_closure_orbit(datum, roots, point):
    """The orbit of a point under the group generated by the reflections
    in `roots`, by closing tuple matrices under products and acting by
    Fraction sums: the oracle of the integer graded orbit."""
    n = datum.rank
    gens = {tuple(tuple(int(i == j) - r.vec[i] * r.coroot[j]
                        for j in range(n)) for i in range(n)) for r in roots}
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    group, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = tuple(tuple(sum(g[i][k] * m[k][j] for k in range(n))
                                   for j in range(n)) for i in range(n))
                if prod not in group:
                    group.add(prod)
                    nxt.append(prod)
        frontier = nxt
    out = set()
    for m in group:
        inv_t = transpose(mat_inverse([[Fraction(x) for x in row]
                                       for row in m]))
        out.add(TorusPoint(
            [sum(inv_t[i][j] * point.u[j] for j in range(n))
             for i in range(n)],
            [sum(inv_t[i][j] * point.r[j] for j in range(n))
             for i in range(n)]))
    return out, len(group)


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("G2", "Q"),
                                         ("D4", "P")])
def test_graded_orbit_matches_tuple_closure(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(59)
    label_sets = [LabelFunction.equal(d),
                  LabelFunction.from_affine_nodes(
                      d, random_label_vector(d, rng))]
    sizes = set()
    for labels in label_sets:
        for p in residual_points(d, labels):
            gens = [r for r in d.positive_roots
                    if _in_graded_system(d, r, p)]
            invts, norm = _graded_action(d, gens)
            rows = _orbit_rows(p, invts, norm)
            got = {_row_to_point(row, p.den) for row in rows.tolist()}
            want, order = _tuple_closure_orbit(d, gens, p)
            assert len(invts) == order
            assert got == want
            sizes.add(order)
    assert len(sizes) > 1


def test_orbit_rows_leave_int64_when_the_bound_requires():
    # an image entry is at most norm * max(den, |r numerators|)
    d = RootDatum.from_type("B3", "P")
    invts, norm = _weyl_action(d)
    edge = 2 ** 62 // norm
    for big, wide in ((edge - 1, False), (edge + 1, True),
                      (10 ** 19 + 1, True)):
        pt = TorusPoint.from_numerators(6, [2, 0, 3], [big, -big, 1])
        assert max(pt.den, *map(abs, pt.rn)) == big
        rows = _orbit_rows(pt, invts, norm)
        assert (rows.dtype == object) == wide
        assert [_row_to_point(row, pt.den) for row in rows.tolist()] == \
            [pt.transform(m) for m in inverse_transpose_matrices(d)]


@pytest.mark.parametrize("tag", ["B2", "G2"])
def test_scaling_check_at_labels_past_int64(tag):
    d = RootDatum.from_type(tag, "Q")
    assert scaling_check(d, LabelFunction.equal(d), 4 * 10 ** 18 + 1)


def test_residual_points_past_int64_are_residual():
    d = RootDatum.from_type("B2", "Q")
    rng = random.Random(61)
    big = 4 * 10 ** 18 + 1
    label_sets = [LabelFunction.from_affine_nodes(d, [Fraction(big)] * 3)]
    label_sets += [LabelFunction.from_affine_nodes(
        d, [Fraction(big * v) for v in random_label_vector(d, rng)])
        for _ in range(2)]
    for labels in label_sets:
        small = labels.scaled(Fraction(1, big))
        points = residual_points(d, labels)
        assert points and all(point_index(d, labels, p) == d.rank
                              for p in points)
        assert points == sorted({canonical_point(d, p.scale_split(big))
                                 for p in residual_points(d, small)},
                                key=TorusPoint.key)
        # coset base points are least K_L translates, and scaling the
        # split part by big > 0 keeps that order
        assert [(c.support, c.point, c.index, c.k_l, c.orbit_size)
                for c in residual_cosets(d, labels)] == \
            [(c.support, c.point.scale_split(big), c.index, c.k_l,
              c.orbit_size) for c in residual_cosets(d, small)]


def test_coset_orbit_translates_leave_int64_when_the_bound_requires():
    # K_L of the support (0, 1) of A3/P has denominator 3, so the translate
    # rows of a point with denominator 1 are its orbit rows times 3: an
    # orbit that fits int64 can leave it there
    d = RootDatum.from_type("A3", "P")
    _, norm = _weyl_action(d)
    roots = parabolic_subsystem_roots(d, (0, 1))
    big = 2 ** 62 // norm - 1

    def widest(r):
        return max(abs(x) for _, row, _ in _coset_orbit(
            d, roots, TorusPoint([0] * 3, r)) for x in row[3:])

    point = TorusPoint([0] * 3, max(product((-1, 0, 1), repeat=3),
                                    key=widest))
    assert widest(point.r) * big >= 2 ** 63
    small = _coset_orbit(d, roots, point)
    large = _coset_orbit(d, roots, point.scale_split(big))
    assert [(combo, _row_to_point(row, den)) for combo, row, den in large] \
        == [(combo, _row_to_point(row, den).scale_split(big))
            for combo, row, den in small]
