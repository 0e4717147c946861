"""
The subregular mass in type C
=============================

For the type-C datum with the full weight lattice and equal labels, the
real residual point with simple values (q, ..., q, 1, q) carries a mass
with a closed-form product expression.  Assembling the point density with
its rational constants reproduces it exactly.
"""

from heckeplan.plancherel import fdim_subregular_c
from heckeplan.residual import kl_real_point_check
from heckeplan.rootdata import LabelFunction, RootDatum

# all real residual points of C3 have dominant simple values in {1, q};
# the marks of a distinguished weighted diagram are 0 and 2
datum = RootDatum.from_type("C3", "P")
labels = LabelFunction.equal(datum)
ok, vectors = kl_real_point_check(datum, labels)
print("simple-value patterns of the real residual points of C3:")
for vec in vectors:
    print("  ", vec)
print("all in {0, 1}:", ok)

for n in (3, 4, 5):
    report = fdim_subregular_c(n, qval=4)
    print(f"\nn = {n}: simple values {report.point_values}")
    print("  assembled:", report.assembled)
    print("  reference:", report.reference)
    print("  exact match:", report.matches, " sign:", report.sign)
    print("  value at q=4:", report.numeric_assembled)
