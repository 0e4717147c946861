"""
Root data, Weyl groups, and label functions
===========================================

Build a root datum from a Cartan type and a lattice choice, walk through
its derived structure, and attach label functions.
"""

from fractions import Fraction

from heckeplan.rootdata import (
    LabelFunction,
    RootDatum,
    affine_node_class_keys,
    parabolic_classes,
)

# the rank-2 type with a doubled direction: X = Q makes the short coroots
# divisible by 2, so the non-reduced system picks up the doubled roots
datum = RootDatum.from_type("B2", "Q")
print("type:", datum.typename, "lattice:", datum.lattice)
print("positive roots:", [r.vec for r in datum.positive_roots])
print("doubled:", [r.vec for r in datum.roots if datum.doubled[r.vec]])
print("long-root system size:", len(datum.r1))

# the Weyl group, ordered by length then word: its last word is a
# reduced word of the longest element w0
weyl = datum.weyl_elements()
print("Weyl group order:", len(weyl))
print("longest element length:", len(weyl.words[-1]))

# labels: one exponent per affine Dynkin node, constant on conjugacy
# classes; B2 with X = Q has three independent nodes
print("affine node classes:", affine_node_class_keys(datum))
labels = LabelFunction.from_affine_nodes(
    datum, [Fraction(1), Fraction(2), Fraction(3)])
for r in datum.positive_roots:
    print("root", r.vec, "label exponents (f0, f1):", labels.pairs[r.vec])

# q(w) is length-multiplicative; w0 inverts every positive root, so
# q(w0) is the product of the labels over all of them
print("exponent of q(w0):", labels.q_w0_exponent())

# standard parabolic subsets up to conjugacy
for pc in parabolic_classes(datum):
    print("parabolic class", pc.indices,
          "-> quotient rank", pc.sub_datum.rank,
          "orbit size", pc.orbit_size)
