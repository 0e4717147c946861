import random
from fractions import Fraction

import pytest

from heckeplan.rootdata import (
    AffineElement,
    LabelFunction,
    RootDatum,
    affine_length,
    norm_n,
    parabolic_classes,
    q_of_w,
    restrict_labels,
    datum_labels_from_json,
    datum_labels_to_json,
)

WEYL_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "C3": 48,
               "G2": 12, "F4": 1152, "D4": 192}
POSITIVE_COUNTS = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "C3": 9,
                   "G2": 6, "F4": 24, "D4": 12}


@pytest.mark.parametrize("tag", sorted(WEYL_ORDERS))
def test_type_tables(tag):
    d = RootDatum.from_type(tag, "Q")
    assert len(d.positive_roots) == POSITIVE_COUNTS[tag]
    assert len(d.weyl_elements()) == WEYL_ORDERS[tag]


def test_b2_nonreduced_sets():
    d = RootDatum.from_type("B2", "Q")
    assert len(d.positive_roots) == 4
    # R1 = {±2e1, ±2e2, ±e1±e2}: the two short roots double
    doubled = [r for r in d.roots if d.doubled[r.vec]]
    assert len(doubled) == 4
    assert len(d.r1) == 8
    # with X = P nothing doubles and R1 = R0
    dp = RootDatum.from_type("B2", "P")
    assert not any(dp.doubled.values())
    assert len(dp.r1) == 8


def test_a1_q_is_doubled():
    # X = Q(A1): alpha^vee pairs evenly with X, so R_nr = {±a, ±2a}
    d = RootDatum.from_type("A1", "Q")
    assert all(d.doubled.values())
    dp = RootDatum.from_type("A1", "P")
    assert not any(dp.doubled.values())


def test_a2_simply_laced():
    d = RootDatum.from_type("A2", "Q")
    assert len(d.roots) == 6
    assert not any(d.doubled.values())
    assert len(d.r1) == 6


def test_g2():
    d = RootDatum.from_type("G2", "Q")
    assert len(d.positive_roots) == 6
    assert len(d.weyl_elements()) == 12
    assert d.weight_index() == 1


def test_weight_index():
    assert RootDatum.from_type("A2", "P").weight_index() == 3
    assert RootDatum.from_type("B2", "P").weight_index() == 2
    assert RootDatum.from_type("A1", "Q").weight_index() == 1


def test_weyl_element_order_and_longest():
    d = RootDatum.from_type("B2", "Q")
    els = d.weyl_elements()
    assert els[0].length == 0
    assert els[-1].length == 4
    d = RootDatum.from_type("A2", "Q")
    assert d.longest_element().length == 3


def test_intermediate_lattice_rejects_bad_basis():
    with pytest.raises(ValueError):
        # basis strictly bigger than P
        RootDatum.from_type("A2", [[Fraction(1, 3), 0], [0, 1]])


def test_q_of_w_multiplicative():
    for tag in ("A2", "B2", "B3"):
        d = RootDatum.from_type(tag, "Q")
        labels = LabelFunction.equal(d)
        els = d.weyl_elements()
        for w in els:
            assert q_of_w(labels, w) == w.length
        # unequal labels: q(w w') = q(w) q(w') whenever lengths add
        if tag == "B2":
            labels = LabelFunction.from_affine_nodes(d, [2, 1, Fraction(1, 2)])
            lookup = {e.matrix: e for e in els}
            for w in els:
                for i in range(d.n_simple):
                    s = lookup[d.simple_reflection_matrix(i)]
                    prod = tuple(tuple(
                        sum(s.matrix[r][k] * w.matrix[k][c] for k in range(2))
                        for c in range(2)) for r in range(2))
                    sw = lookup[prod]
                    if sw.length == w.length + 1:
                        assert q_of_w(labels, sw) == \
                            q_of_w(labels, s) + q_of_w(labels, w)


def test_b2_w0_equal_label_exponent():
    # inversion set of w0 covers R_nr,+; with f = 1 the exponent is l(w0) = 4
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    assert q_of_w(labels, d.longest_element()) == 4
    assert labels.q_w0_exponent() == 4


def test_affine_length_against_bfs():
    # BFS over the affine Coxeter generators must agree with the closed
    # length formula (A1 and B2, X = Q)
    for tag in ("A1", "B2"):
        d = RootDatum.from_type(tag, "Q")
        gens = _affine_generators(d)
        ident = AffineElement.from_weyl(d.weyl_elements()[0])
        depth = {ident: 0}
        frontier = [ident]
        for step in range(1, 6):
            nxt = []
            for e in frontier:
                for g in gens:
                    f = g * e
                    if f not in depth:
                        depth[f] = step
                        nxt.append(f)
            frontier = nxt
        for e, l in depth.items():
            assert affine_length(d, e) == l


def _affine_generators(d):
    gens = [AffineElement.from_weyl(w) for w in d.weyl_elements()
            if w.length == 1]
    # affine node: reflection in the hyperplane <v, theta^vee> = 1
    comp = d.components()[0]
    theta_vee = d.highest_coroot(comp)
    theta = next(r for r in d.positive_roots if r.coroot == theta_vee)
    mat = tuple(tuple(int(i == j) - theta.vec[i] * theta_vee[j]
                      for j in range(d.rank)) for i in range(d.rank))
    gens.append(AffineElement(mat, theta.vec))
    return gens


def test_norm_translation():
    # dominant translations: N(t_x) = l(t_x) = <x, 2 rho^vee>
    d = RootDatum.from_type("B2", "Q")
    two_rho_vee = [sum(r.coroot[i] for r in d.positive_roots)
                   for i in range(d.rank)]
    for x in [(1, 0), (1, 1), (2, 1)]:
        # make x dominant: <x, alpha_i^vee> >= 0
        if all(sum(a * b for a, b in zip(x, av)) >= 0
               for av in d.simple_coroots):
            t = AffineElement.translation_by(d, x)
            assert norm_n(d, t) == sum(a * b for a, b in zip(x, two_rho_vee))
    ident = AffineElement.translation_by(d, (0, 0))
    assert norm_n(d, ident) == 0


def test_norm_subadditive_random():
    d = RootDatum.from_type("B2", "Q")
    els = [e.matrix for e in d.weyl_elements()]
    rng = random.Random(3)
    for _ in range(200):
        a = AffineElement(random.Random(rng.random()).choice(els),
                          (rng.randint(-3, 3), rng.randint(-3, 3)))
        b = AffineElement(random.Random(rng.random()).choice(els),
                          (rng.randint(-3, 3), rng.randint(-3, 3)))
        assert norm_n(d, a * b) <= norm_n(d, a) + norm_n(d, b)


def test_parabolic_classes_counts():
    d = RootDatum.from_type("B2", "Q")
    classes = parabolic_classes(d)
    assert len(classes) == 4  # {}, {0}, {1}, {0,1} all distinct
    d = RootDatum.from_type("A2", "Q")
    classes = parabolic_classes(d)
    assert len(classes) == 3  # the two singletons merge
    d = RootDatum.from_type("A1", "Q")
    assert len(parabolic_classes(d)) == 2


def test_restrict_labels_b2_short_node():
    # P = {short root}: the restricted datum keeps both labels of the
    # doubled direction (a C1-aff datum)
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.from_affine_nodes(
        d, [Fraction(3), Fraction(2), Fraction(1)])
    classes = {pc.indices: pc for pc in parabolic_classes(d)}
    short_idx = next(i for i in range(2) if d.doubled[d.simple_roots[i]])
    pc = classes[(short_idx,)]
    sub_labels = restrict_labels(labels, pc)
    sub = pc.sub_datum
    assert all(sub.doubled.values())
    (f0, f1) = sub_labels.pairs[sub.roots[-1].vec]
    assert (f0, f1) == labels.pairs[d.simple_roots[short_idx]]
    # full and empty restrictions
    full = classes[(0, 1)]
    assert restrict_labels(labels, full).pairs.keys() == \
        {r.vec for r in full.sub_datum.roots}
    empty = classes[()]
    assert restrict_labels(labels, empty).pairs == {}


def test_label_conjugation_invariance():
    d = RootDatum.from_type("A2", "Q")
    # all affine A2 nodes are conjugate: mixed labels must be rejected
    with pytest.raises(ValueError):
        LabelFunction.from_affine_nodes(d, [1, 1, 2])
    lf = LabelFunction.from_affine_nodes(d, [2, 2, 2])
    assert all(p == (2, 2) for p in lf.pairs.values())


def test_serialization_roundtrip():
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.from_affine_nodes(d, [1, 2, 3])
    text = datum_labels_to_json(d, labels)
    d2, labels2 = datum_labels_from_json(text)
    assert d2.typename == d.typename
    assert labels2.pairs == labels.pairs


# the attributes RootDatum.__init__ sets; everything else it derives is a
# cached_property
DATUM_ATTRIBUTES = {"rank", "n_simple", "simple_roots", "simple_coroots",
                    "typename", "lattice", "basis_in_alpha", "roots",
                    "positive_roots", "root_by_vec", "coroot_by_vec",
                    "doubled", "r1", "r1_positive"}


def test_datum_holds_no_state_outside_cached_properties():
    from functools import cached_property

    from heckeplan.plancherel import density_table
    from heckeplan.residual import classification_suite, residual_points
    d = RootDatum.from_type("B2", "P")
    labels = LabelFunction.equal(d)
    assert classification_suite(d, labels).passed
    # the suite reads its points off the cosets, which are enumerated on
    # the quotient data; residual_points runs on the datum itself
    assert residual_points(d, labels)
    assert density_table(d, labels, qval=2)
    cached = {name for name, attr in vars(RootDatum).items()
              if isinstance(attr, cached_property)}
    assert {"weyl", "parabolics", "unitary_candidates"} <= set(vars(d))
    assert set(vars(d)) <= DATUM_ATTRIBUTES | cached


ORBIT_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2",
               "C3", "C4", "C5", "D3", "D4", "D5", "G2", "F4"]


def _coroot_orbits_by_loop(datum):
    """The W0-orbits of the coroots by Python mat-vecs with the transpose
    of every Weyl matrix, numbered as `roots` first meets them."""
    orbit_of = {}
    next_id = 0
    for r in datum.roots:
        if r.coroot in orbit_of:
            continue
        for m in [e.matrix for e in datum.weyl]:
            img = tuple(sum(m[j][i] * r.coroot[j] for j in range(datum.rank))
                        for i in range(datum.rank))
            orbit_of[img] = next_id
        next_id += 1
    return orbit_of


@pytest.mark.parametrize("lattice", ["Q", "P"])
@pytest.mark.parametrize("tag", ORBIT_TYPES)
def test_coroot_orbits_match_the_weyl_loop(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    assert d.coroot_orbits == _coroot_orbits_by_loop(d)
