"""
Point densities and the reciprocal length sum
=============================================

The density at a residual point is an exact rational function of q.  For
the maximally negative special point its reciprocal (up to sign and the
lattice index) is the sum of q(w)^{-1} over the whole affine group, which
we verify against a direct breadth-first sum.
"""

from fractions import Fraction

from heckeplan.plancherel import (
    m_point,
    plancherel_point_mass,
    poincare_product,
    poincare_truncated,
)
from heckeplan.residual import residual_points, steinberg_point
from heckeplan.rootdata import LabelFunction, RootDatum

datum = RootDatum.from_type("B2", "Q")
labels = LabelFunction.equal(datum)

print("densities at the residual points:")
for p in residual_points(datum, labels):
    print("  point u =", p.u, " r =", p.r)
    print("  m =", m_point(datum, labels, p))

st = steinberg_point(datum, labels)
print("\nspecial point split exponents:", st.r)
mass = plancherel_point_mass(datum, labels, st)
print("orbit mass:", mass)
print("orbit mass at q=2:", mass.evaluate(Fraction(2)))

res = poincare_product(datum, labels)
print("\nreciprocal-length product:", res.product)
for cut in (10, 20, 40):
    total, _ = poincare_truncated(datum, labels, 2, cut)
    print(f"direct sum up to length {cut}: {float(total):.10f}")
print("product value at q=2:", float(res.product.evaluate(Fraction(2))))
