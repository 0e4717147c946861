import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from heckeplan.residual import (
    TheoremViolation,
    TorusPoint,
    _row_to_point,
    canonical_point,
    casselman_discrete,
    casselman_tempered,
    classification_suite,
    graded_labels,
    graded_residual_points,
    kl_real_point_check,
    point_index,
    residual_cosets,
    residual_points,
    scaling_check,
    steinberg_point,
    trivial_point,
    unitary_candidates,
)
from heckeplan.rootdata import (
    LabelFunction,
    RootDatum,
    parabolic_subsystem_roots,
    random_label_vector,
)

F = Fraction


def root_values(datum, point):
    """Values (u, r) of the simple roots at the point."""
    return tuple(point.value_of(datum.simple_roots[i])
                 for i in range(datum.n_simple))


def orbit_value_sets(datum, points):
    from test_kernels import orbit_of_point
    out = []
    for p in points:
        out.append({root_values(datum, q) for q in orbit_of_point(datum, p)})
    return out


# -- unitary candidates --------------------------------------------------------


def test_unitary_candidates_a1():
    d = RootDatum.from_type("A1", "Q")
    cands = unitary_candidates(d)
    vals = sorted(c.point.value_of(d.simple_roots[0])[0] for c in cands)
    assert vals == [0, F(1, 2)]  # s = 1 and s = -1 on the root


def test_unitary_candidates_b2_q():
    d = RootDatum.from_type("B2", "Q")
    cands = unitary_candidates(d)
    vals = sorted((c.point.value_of(d.simple_roots[0])[0],
                   c.point.value_of(d.simple_roots[1])[0])
                  for c in cands)
    # (1,1), (1,-1), (-1,1) in root values (u-parts 0 or 1/2)
    assert vals == [(0, 0), (0, F(1, 2)), (F(1, 2), 0)]


def test_unitary_candidates_b2_p():
    d = RootDatum.from_type("B2", "P")
    cands = unitary_candidates(d)
    assert len(cands) == 3


def test_unitary_candidates_are_empty_when_the_roots_do_not_span_x():
    # one root in a rank-2 lattice: no point has R1(s) of full rank
    d = RootDatum([(2, 0)], [(1, 0)])
    assert unitary_candidates(d) == []
    assert residual_points(d, LabelFunction.equal(d)) == []


# -- graded search -------------------------------------------------------------


def test_graded_points_a1():
    d = RootDatum.from_type("A1", "P")
    labels = LabelFunction.equal(d)
    cand = unitary_candidates(d)[0]
    kl = graded_labels(d, labels, cand)
    pts = graded_residual_points(cand.r_s0, kl, cand.subset_inverses)
    assert len(pts) == 1
    gamma, = pts
    alpha = d.simple_roots[0]
    assert sum(F(v) * gamma[i] for i, v in enumerate(alpha)) == 1


def test_graded_points_a2_equal():
    d = RootDatum.from_type("A2", "Q")
    labels = LabelFunction.equal(d)
    cand = next(c for c in unitary_candidates(d)
                if all(x == 0 for x in c.point.u))
    kl = graded_labels(d, labels, cand)
    pts = graded_residual_points(cand.r_s0, kl, cand.subset_inverses)
    # single orbit: alpha_1(g) = alpha_2(g) = 1 and its Weyl images
    doms = [g for g in pts
            if all(sum(F(v) * g[i] for i, v in enumerate(s)) >= 0
                   for s in d.simple_roots)]
    assert len(doms) == 1
    g = doms[0]
    assert all(sum(F(v) * g[i] for i, v in enumerate(s)) == 1
               for s in d.simple_roots)


def test_graded_points_b2_minus_plus_empty():
    # the candidate with alpha_1(s) = -1, alpha_2(s) = 1 has zero labels on
    # its graded system and carries no residual points
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    cand = next(c for c in unitary_candidates(d)
                if c.point.value_of(d.simple_roots[0])[0] == F(1, 2))
    kl = graded_labels(d, labels, cand)
    assert graded_residual_points(cand.r_s0, kl, cand.subset_inverses) == []


# -- residual points: the rank-2 worked example ---------------------------------


def test_residual_points_b2_q():
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    points = residual_points(d, labels)
    assert len(points) == 2
    value_sets = orbit_value_sets(d, points)
    # orbit representatives with simple values (q, q) and (q, -1)
    qq = ((F(0), F(1)), (F(0), F(1)))
    qm1 = ((F(0), F(1)), (F(1, 2), F(0)))
    assert any(qq in s for s in value_sets)
    assert any(qm1 in s for s in value_sets)


def test_residual_points_b2_p():
    d = RootDatum.from_type("B2", "P")
    labels = LabelFunction.equal(d)
    points = residual_points(d, labels)
    assert len(points) == 3
    # displayed in the paper's basis (alpha_1/2, alpha_2): the three orbits
    # carry values (q^{1/2}, q), (q^{1/2}, -1), (-q^{1/2}, q); on the roots
    # themselves: (q, q) twice (distinguished by the value on the half of
    # alpha_1, i.e. by the unitary part) and (q, -1)
    vsets = orbit_value_sets(d, points)
    qq = ((F(0), F(1)), (F(0), F(1)))
    qm1 = ((F(0), F(1)), (F(1, 2), F(0)))
    count_qq = sum(1 for s in vsets if qq in s)
    assert count_qq == 2
    assert sum(1 for s in vsets if qm1 in s) == 1
    # the two (q, q)-valued orbits differ in the unitary part
    reps = [p for p in points
            if any(root_values(d, q) == qq
                   for q in [p])]  # placeholder to keep points ordered
    us = {p.u for p in points}
    assert len(us) == 3


def test_steinberg_point_in_unique_a1_orbit():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    points = residual_points(d, labels)
    assert len(points) == 1
    st = steinberg_point(d, labels)
    assert st.value_of(d.simple_roots[0]) == (0, -1)
    assert canonical_point(d, st) == points[0]


def test_trivial_point_values():
    # alpha(r_triv) = q^{a(alpha)} on every simple root
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.from_affine_nodes(d, [F(3), F(2), F(1)])
    tr = trivial_point(d, labels)
    for i in range(2):
        vec = d.simple_roots[i]
        assert tr.value_of(vec) == (0, labels.pole_exponent(vec))


# -- index ----------------------------------------------------------------------


def test_point_index_a1():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    alpha = d.simple_roots[0]
    t = TorusPoint([0], [F(1) / alpha[0]])   # alpha(t) = q
    assert point_index(d, labels, t) == 1
    assert point_index(d, labels, TorusPoint.identity(1)) == -2
    assert point_index(d, labels, TorusPoint.identity(1),
                       parabolic_subsystem_roots(d, ())) == 0


def test_coset_index_t():
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    assert point_index(d, labels, TorusPoint.identity(2),
                       parabolic_subsystem_roots(d, ())) == 0


# -- residual cosets -------------------------------------------------------------


def test_residual_cosets_b2_q():
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    cosets = residual_cosets(d, labels)
    by_dim = {}
    for c in cosets:
        by_dim.setdefault(c.dim, []).append(c)
    assert len(by_dim.get(0, [])) == 2
    assert len(by_dim.get(1, [])) == 2
    assert len(by_dim.get(2, [])) == 1
    assert sorted(c.k_l for c in by_dim[1]) == [1, 2]
    t = by_dim[2][0]
    assert t.index == 0 and t.k_l == 1


def test_residual_cosets_b2_p():
    d = RootDatum.from_type("B2", "P")
    labels = LabelFunction.equal(d)
    cosets = residual_cosets(d, labels)
    by_dim = {}
    for c in cosets:
        by_dim.setdefault(c.dim, []).append(c)
    assert len(by_dim.get(0, [])) == 3
    assert len(by_dim.get(1, [])) == 3
    assert len(by_dim.get(2, [])) == 1
    assert sorted(c.k_l for c in by_dim[1]) == [1, 1, 2]


def test_trivial_labels_only_t():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d, 0)
    cosets = residual_cosets(d, labels)
    assert len(cosets) == 1
    assert cosets[0].support == ()


# -- suite, scaling, degenerate labels -------------------------------------------


@pytest.mark.parametrize("tag,lattice", [
    ("A1", "Q"), ("A2", "Q"), ("B2", "Q"), ("B2", "P"), ("G2", "Q")])
def test_classification_suite_passes(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    labels = LabelFunction.equal(d)
    report = classification_suite(d, labels)
    assert report.passed, report.to_json()


def test_classification_suite_unequal_labels():
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.from_affine_nodes(d, [F(5, 2), F(2), F(1)])
    report = classification_suite(d, labels)
    assert report.passed, report.to_json()


def test_scaling_invariance():
    for tag, lattice in (("A1", "Q"), ("B2", "Q"), ("B2", "P"), ("G2", "Q")):
        d = RootDatum.from_type(tag, lattice)
        labels = LabelFunction.equal(d)
        for eps in (F(1, 2), F(2), F(3)):
            assert scaling_check(d, labels, eps)


def test_g2_has_subregular_point():
    # G2 equal labels: real residual points include one with simple values
    # (q, 1) or (1, q) (the subregular distinguished diagram)
    d = RootDatum.from_type("G2", "Q")
    labels = LabelFunction.equal(d)
    ok, vectors = kl_real_point_check(d, labels)
    assert ok
    assert any(sorted(v) == [0, 1] for v in vectors)
    # and the regular one (q, q)
    assert any(v == (1, 1) for v in vectors)


def test_kl_check_a2():
    d = RootDatum.from_type("A2", "P")
    labels = LabelFunction.equal(d)
    ok, vectors = kl_real_point_check(d, labels)
    assert ok
    assert vectors == [(1, 1)]


def test_kl_check_c3_subregular():
    d = RootDatum.from_type("C3", "P")
    labels = LabelFunction.equal(d)
    ok, vectors = kl_real_point_check(d, labels)
    assert ok
    assert (1, 0, 1) in vectors


# -- Casselman ------------------------------------------------------------------


def test_casselman_steinberg_discrete():
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    st = steinberg_point(d, labels)
    assert casselman_discrete([st], d)
    assert casselman_tempered([st], d)


def test_casselman_trivial_not_tempered():
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    tr = trivial_point(d, labels)
    assert not casselman_tempered([tr], d)
    assert not casselman_discrete([tr], d)


def test_casselman_unitary_tempered_not_discrete():
    d = RootDatum.from_type("B2", "Q")
    w = TorusPoint([F(1, 3), F(1, 5)], [0, 0])
    assert casselman_tempered([w], d)
    assert not casselman_discrete([w], d)


# -- the nested-coset check ------------------------------------------------------


def _injected(members):
    """For each member (combo, row) with combo nonempty: the point of its
    row and the members with the coset through the same point with a
    proper sub-support added, which contains it and shares its center."""
    combos, rows, den, owners = members
    for i, combo in enumerate(combos):
        if combo:
            yield combo, _row_to_point(rows[i].tolist(), den), (
                combos + [combo[:-1]], np.concatenate([rows, rows[i:i + 1]]),
                den, np.append(owners, owners[i]))


@pytest.mark.parametrize("tag,lattice", [("B2", "P"), ("G2", "Q")])
def test_nested_coset_check_reports_contained_member(tag, lattice):
    from heckeplan.residual import _coset_members, _nested_coset_violations
    d = RootDatum.from_type(tag, lattice)
    labels = LabelFunction.equal(d)
    members = _coset_members(d, residual_cosets(d, labels))
    assert _nested_coset_violations(d, members) == []
    injected = 0
    for combo, pt, more in _injected(members):
        bigger = combo[:-1]
        bad = _nested_coset_violations(d, more)
        pairs = [{(c1, p1), (c2, p2)} for c1, p1, c2, p2 in bad]
        assert {(combo, pt), (bigger, pt)} in pairs
        assert all((bigger, pt) in pair for pair in pairs)
        injected += 1
    assert injected >= 3


def _pairwise_meets(datum, members):
    """The nested-coset check as pairwise loops over (combo, point) members
    with Fraction values, the reference of the row-based `_meeting_pairs`:
    nested pairs by center in order of first occurrence."""
    from itertools import combinations
    combos, rows, den, _ = members
    points = [_row_to_point(row, den) for row in rows.tolist()]

    def agree(p1, p2, vecs):
        return all((sum(F(v) * x for v, x in zip(vec, p1.u)) -
                    sum(F(v) * x for v, x in zip(vec, p2.u))) % 1 == 0 and
                   sum(F(v) * x for v, x in zip(vec, p1.r)) ==
                   sum(F(v) * x for v, x in zip(vec, p2.r)) for vec in vecs)

    def lattice(c):
        return datum.parabolics[c].lattice

    out, groups = [], {}
    for k, p in enumerate(points):
        groups.setdefault(p.r, []).append(k)
    for i, j in (pair for group in groups.values()
                 for pair in combinations(group, 2)):
        (c1, p1), (c2, p2) = (combos[i], points[i]), (combos[j], points[j])
        if (c1, p1) != (c2, p2) and (
                set(c2) <= set(c1) and agree(p1, p2, lattice(c2)) or
                set(c1) <= set(c2) and agree(p1, p2, lattice(c1))):
            out.append(((c1, p1), (c2, p2)))
    return out


@pytest.mark.parametrize("tag,lattice", [("B2", "P"), ("G2", "Q"),
                                         ("B3", "P")])
def test_meeting_pairs_match_the_pairwise_loops(tag, lattice):
    # two members i, k at a time, each injected twice: the coset through
    # its point with a smaller support, so that the check reports pairs
    # from two centers, and a copy in the next orbit, which equals it and
    # is not reported
    from heckeplan.residual import _coset_members, _meeting_pairs
    d = RootDatum.from_type(tag, lattice)
    cosets = residual_cosets(d, LabelFunction.equal(d))
    combos, rows, den, owners = _coset_members(d, cosets)
    rng = random.Random(67)
    found = 0
    for _ in range(12):
        i, k = rng.sample([i for i, c in enumerate(combos) if c], 2)
        more = (combos + [combos[i][:-1], combos[k][:-1], combos[i],
                          combos[k]],
                np.concatenate([rows, rows[[i, k, i, k]]]), den,
                np.append(owners, [owners[i], owners[k]] + [
                    (owners[x] + 1) % len(cosets) for x in (i, k)]))
        got = _meeting_pairs(d, more)
        assert got == _pairwise_meets(d, more)
        found += len(got)
    assert found


NESTED_WITNESSES = Path(__file__).with_name("nested_witnesses.json")


def _injected_witnesses(tag, lattice):
    """The violation list of the nested-coset check after each injection
    of test_nested_coset_check_reports_contained_member, as text."""
    from heckeplan.residual import _coset_members, _nested_coset_violations
    d = RootDatum.from_type(tag, lattice)
    members = _coset_members(d, residual_cosets(d,
                                               LabelFunction.equal(d)))
    return [[str(w) for w in _nested_coset_violations(d, more)]
            for _, _, more in _injected(members)]


@pytest.mark.parametrize("tag,lattice", [("B2", "P"), ("G2", "Q")])
def test_nested_coset_witnesses_match_the_frozen_text(tag, lattice):
    # every witness and its order, as the check reported them when frozen
    frozen = json.loads(NESTED_WITNESSES.read_text())[f"{tag}/{lattice}"]
    assert _injected_witnesses(tag, lattice) == frozen


@pytest.mark.parametrize("tag,lattice", [("B2", "P"), ("G2", "Q"),
                                         ("B3", "P"), ("C3", "P")])
def test_coset_members_are_each_orbit_expanded_afresh(tag, lattice):
    # the members are the orbits expanded from the seeds, one call per
    # support; as sets they are the orbits expanded again from each base
    # point, which is a member of its own orbit
    from heckeplan.residual import _coset_members, _coset_orbit
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(43)
    for labels in (LabelFunction.equal(d), LabelFunction.from_affine_nodes(
            d, random_label_vector(d, rng))):
        cosets = residual_cosets(d, labels)
        combos, rows, den, owners = _coset_members(d, cosets)
        seeded = [_coset_orbit(d, c.support, [c.seed]) for c in cosets]
        assert len(combos) == len(rows) == len(owners) == \
            sum(len(orbit[0]) for orbit in seeded)
        assert rows.dtype == np.int64 and all(
            den % seed_den == 0 for _, _, seed_den, _ in seeded)
        for k, (coset, (seed_combos, *_)) in enumerate(zip(cosets, seeded)):
            got = [(combos[i], _row_to_point(rows[i].tolist(), den))
                   for i in np.flatnonzero(owners == k)]
            want_combos, want_rows, want_den, _ = _coset_orbit(
                d, coset.support, [coset.point])
            want = {(combo, _row_to_point(row, want_den)) for combo, row in
                    zip(want_combos, want_rows.tolist())}
            assert len(got) == len(seed_combos) == len(set(got))
            assert set(got) == want
            assert (coset.support, coset.point) in want


def _assert_suite_passes(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    report = classification_suite(d, LabelFunction.equal(d))
    assert report.passed, report.to_json()
    assert [c.name for c in report.checks] == [
        "index-equals-codimension", "nested-cosets-distinct-centers",
        "conjugate-inverse-in-graded-orbit", "split-exponents-in-label-group",
        "order-two-on-doubled-summands"]


@pytest.mark.parametrize("tag,lattice", [("D4", "Q"), ("D4", "P"),
                                         ("D5", "Q"), ("D5", "P")])
def test_classification_suite_passes_type_d(tag, lattice):
    _assert_suite_passes(tag, lattice)


@pytest.mark.parametrize("tag,lattice", [("B5", "Q"), ("C5", "P")])
def test_classification_suite_passes_rank_five_b_and_c(tag, lattice):
    _assert_suite_passes(tag, lattice)


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("C3", "P"),
                                         ("G2", "Q"), ("D4", "Q"),
                                         ("F4", "Q"), ("A1", "P"),
                                         ("A2", "P"), ("B2", "Q"),
                                         ("C2", "P")])
def test_dim_zero_cosets_are_the_residual_points(tag, lattice):
    # classification_suite reads its residual points off the cosets
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(29)
    label_sets = [LabelFunction.equal(d)] + [
        LabelFunction.from_affine_nodes(d, random_label_vector(d, rng))
        for _ in range(2)]
    for labels in label_sets:
        cosets = residual_cosets(d, labels)
        points = [c.point for c in cosets if c.dim == 0]
        assert points and points == residual_points(d, labels)
        # so the residue engine keys its point orbits by them directly
        assert all(canonical_point(d, p) == p for p in points)


# -- the classification against closed forms from the literature ---------------


def _distinct_parts(total: int, parity: int) -> int:
    """The number of partitions of `total` into distinct parts of the given
    parity."""
    def count(rest, smallest):
        return int(rest == 0) + sum(count(rest - p, p + 2)
                                    for p in range(smallest, rest + 1, 2))
    return count(total, 2 - parity)


def _distinguished_orbits(tag: str) -> int:
    """The number of distinguished nilpotent orbits of the complex Lie
    algebra of type `tag` (Collingwood-McGovern, Nilpotent orbits in
    semisimple Lie algebras, 1993)."""
    family, n = tag[0], int(tag[1:])
    return {"A": lambda: 1,
            "B": lambda: _distinct_parts(2 * n + 1, 1),
            "C": lambda: _distinct_parts(2 * n, 0),
            "D": lambda: _distinct_parts(2 * n, 1),
            "G": lambda: 2,
            "F": lambda: 4}[family]()


LITERATURE_DATA = [(tag, lattice) for tag in (
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2", "C3", "C4",
    "C5", "D3", "D4", "D5", "G2", "F4") for lattice in "QP"
    if lattice == "Q" or tag not in ("G2", "F4")]


@pytest.mark.parametrize("tag,lattice", LITERATURE_DATA)
def test_real_residual_orbits_count_the_distinguished_nilpotent_orbits(
        tag, lattice):
    # at equal labels the real residual points (u = 0) up to W0 are the
    # q-powers of the distinguished nilpotent orbits, through the
    # Kazhdan-Lusztig classification (Invent. Math. 87, 1987)
    d = RootDatum.from_type(tag, lattice)
    real = [p for p in residual_points(d, LabelFunction.equal(d))
            if not any(p.u)]
    assert len(real) == _distinguished_orbits(tag)


def _partitions(n: int) -> int:
    """The number of partitions of n."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


@pytest.mark.parametrize("k", [F(3, 7), F(13, 11)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generic_labels_on_b_n_count_the_partitions_and_bipartitions(n, k):
    # affine-node labels 1, ..., 1, k on B_n/Q, with k generic: the real
    # residual points (u = 0) up to W0 are one per partition of n
    # (Heckman-Opdam, Yang's system of particles and Hecke algebras, Ann.
    # of Math. 145, 1997), and all residual point orbits are one per
    # bipartition of n: 5, 10, 20 and 36 for n = 2, ..., 5.  The non-real
    # orbits come from unitary candidates s != 1.
    d = RootDatum.from_type(f"B{n}", "Q")
    points = residual_points(d, LabelFunction.from_affine_nodes(
        d, [1] * n + [k]))
    assert sum(not any(p.u) for p in points) == _partitions(n)
    assert len(points) == sum(_partitions(a) * _partitions(n - a)
                              for a in range(n + 1))
