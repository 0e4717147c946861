"""
Numeric contour shifts and local masses
=======================================

The trace integral of the kernel form over a deep contour equals 1; as
the contour shrinks to the unit torus it sheds residues along pole rings.
The engine tracks the exact crossing geometry, measures each shed piece
by bracketed quadrature, and attributes point jumps to residual orbits.
"""

from heckeplan.residue import shift_and_collect, vanishing_cycle_check
from heckeplan.residual import TorusPoint
from heckeplan.rootdata import LabelFunction, RootDatum
from fractions import Fraction

# rank 1: the mass decomposition is (q-1)/(q+1) on the special orbit plus
# 2/(q+1) spread over the unit circle
datum = RootDatum.from_type("A1", "Q")
labels = LabelFunction.equal(datum)
for q in (2, 3):
    report = shift_and_collect(datum, labels, q)
    print(f"A1 at q={q}: global = {report.global_mass:.12f}")
    print(f"  resolution = {report.resolution} nodes per circle, "
          f"error estimate = {report.error_estimate:.1e}")
    print(f"  continuous = {report.continuous:.12f}")
    for entry in report.point_masses:
        print(f"  {entry.label}: {entry.value:.12f}")

# rank 2: two point orbits, two one-dimensional orbits, and the unit
# torus share the unit mass
datum = RootDatum.from_type("B2", "Q")
labels = LabelFunction.equal(datum)
report = shift_and_collect(datum, labels, 2)
print(f"\nB2 at q=2: global = {report.global_mass:.10f}")
print(f"  resolution = {report.resolution} nodes per circle, "
      f"error estimate = {report.error_estimate:.1e}")
print(f"  continuous = {report.continuous:.10f}")
for entry in report.coset_masses + report.point_masses:
    print(f"  {entry.label}: {entry.value:.10f}")
print(f"  closure error = {report.closure_error:.2e}")

# a one-dimensional intersection with index 0 carries no local mass,
# while a residual coset does
quiet = TorusPoint([0, Fraction(1, 2)], [Fraction(7, 3), 0])
loud = TorusPoint([0, 0], [Fraction(7, 3), 1])
print("\ninner integral on the cancelled locus:",
      vanishing_cycle_check(datum, labels, 2, quiet, direction=(0, 1)))
print("inner integral on a residual coset:",
      vanishing_cycle_check(datum, labels, 2, loud, direction=(0, 1)))
