import random
from fractions import Fraction

import numpy as np
import pytest

from heckeplan.residue import (
    MAX_NODES,
    Integrand,
    ResidueEngine,
    global_unit_integral,
    shift_and_collect,
    start_log_radii,
    torus_integral,
    vanishing_cycle_check,
)
from heckeplan.residual import TorusPoint, steinberg_point
from heckeplan.rootdata import LabelFunction, RootDatum, random_label_vector

F = Fraction


def test_torus_integral_constant():
    val, _ = torus_integral(lambda z: np.ones_like(z), [1.0], 64)
    assert abs(val - 1) == 0
    val, _ = torus_integral(lambda a, b: np.ones_like(a * b), [1.0, 1.0], 32)
    assert abs(val - 1) < 1e-15


def test_torus_integral_character_orthogonality():
    # mean of z^k over the circle is 0 for k != 0
    for k in (1, -2, 5):
        val, _ = torus_integral(lambda z: z ** k, [1.0], 128)
        assert abs(val) < 1e-12


def test_torus_integral_nested_half_grid():
    # z^(N/2) averages to 0 on the N-node grid and to 1 on its half grid
    n = 64
    full, half = torus_integral(lambda z: z ** (n // 2), [1.0], n)
    assert abs(full) < 1e-12 and abs(half - 1) < 1e-12
    # 512 nodes per circle span several blocks of rows
    n = 512
    full, half = torus_integral(lambda a, b: a ** (n // 2) + b ** (n // 2),
                                [1.0, 1.0], n)
    assert abs(full) < 1e-12 and abs(half - 2) < 1e-12
    with pytest.raises(ValueError):
        torus_integral(lambda z: z, [1.0], 63)


def test_rank1_masses_q2_q3():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    for q in (2, 3):
        rep = shift_and_collect(d, labels, q)
        assert abs(rep.global_mass - 1) < 1e-8
        assert abs(rep.continuous - 2 / (q + 1)) < 1e-8
        assert len(rep.point_masses) == 1
        assert abs(rep.point_masses[0].value - (q - 1) / (q + 1)) < 1e-8
        assert rep.closure_error < 1e-8
        assert rep.max_imag < 1e-10


def test_rank1_start_contour_independence():
    # the extracted masses do not depend on the admissible start contour
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    values = []
    for margins in ([F(9, 8)], [F(7, 3)]):
        eng = ResidueEngine(d, labels, 2)
        ell0 = start_log_radii(d, labels, margins=margins)
        assert eng.integral(ell0) == pytest.approx(1.0, abs=1e-9)
        rep = eng.collect()
        values.append(rep.point_masses[0].value)
    assert abs(values[0] - values[1]) < 1e-9


def test_rank1_quadrature_convergence():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    eng = ResidueEngine(d, labels, 2)
    ell = (F(-1, 2),)
    coarse = eng.integral(ell, nodes=256)
    fine = eng.integral(ell, nodes=512)
    finest = eng.integral(ell, nodes=1024)
    assert abs(fine - finest) < 1e-12
    assert abs(coarse - finest) < 1e-7


def test_rank2_b2_total_and_positivity():
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    rep = shift_and_collect(d, labels, 2, nodes=512)
    assert abs(rep.global_mass - 1) < 1e-6
    assert abs(rep.total() - 1) < 1e-6
    assert len(rep.point_masses) == 2
    for e in rep.point_masses:
        assert e.value > 1e-3
    for e in rep.coset_masses:
        assert e.value > 1e-3
    assert rep.continuous > 0
    assert rep.max_imag < 1e-9


def test_rank2_b2_masses_match_symbolic_special_point():
    # the numeric special-orbit mass equals the exact rational value
    from heckeplan.plancherel import plancherel_point_mass
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    st = steinberg_point(d, labels)
    exact = plancherel_point_mass(d, labels, st).evaluate(F(2))
    rep = shift_and_collect(d, labels, 2, nodes=512)
    best = min(abs(e.value - float(exact)) for e in rep.point_masses)
    assert best < 1e-7
    assert exact == F(7, 45)


def test_unit_integral_positive():
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    val = global_unit_integral(d, labels, 2, nodes=512)
    assert val > 0


def test_vanishing_cycle_rank1():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    # alpha(t) = q^2: not a pole of the kernel
    quiet = vanishing_cycle_check(d, labels, 2, TorusPoint.make([0], [2]))
    assert abs(quiet) < 1e-12
    # control: the special point carries mass
    loud = vanishing_cycle_check(d, labels, 2,
                                 steinberg_point(d, labels))
    assert abs(loud) > 1e-3


def test_vanishing_cycle_rank2():
    from heckeplan.residual import coset_index
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    # the locus alpha_2(t) = -1 is a codimension-1 intersection component
    # with index 0 (pole and zero thresholds cancel): no local mass at a
    # generic sample point on it
    quiet_pt = TorusPoint.make([0, F(1, 2)], [F(7, 3), 0])
    assert coset_index(d, labels, (1,), quiet_pt) == 0
    quiet = vanishing_cycle_check(d, labels, 2, quiet_pt, direction=(0, 1))
    assert abs(quiet) < 1e-8
    # control: a generic point of the residual coset alpha_2(t) = q
    loud_pt = TorusPoint.make([0, 0], [F(7, 3), 1])
    assert coset_index(d, labels, (1,), loud_pt) == 1
    loud = vanishing_cycle_check(d, labels, 2, loud_pt, direction=(0, 1))
    assert abs(loud) > 1e-4


def test_report_json():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    rep = shift_and_collect(d, labels, 2)
    data = rep.to_json()
    assert set(data) >= {"global", "continuous", "masses", "tolerance",
                         "resolution"}
    assert len(data["masses"]) == 1


def test_integrand_matches_exact_kernel():
    # the compiled numeric kernel agrees with the exact symbolic kernel
    from heckeplan.symbolicq import omega_kernel
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    fn = Integrand(d, labels, F(2))
    pt = TorusPoint.make([F(1, 3), F(1, 5)], [F(1, 2), F(-3, 2)])
    z = [complex(np.exp(2j * np.pi * float(pt.u[i])) *
                 2.0 ** float(pt.r[i])) for i in range(2)]
    val = fn(np.array([[z[0]]]), np.array([[z[1]]]))[0][0]
    sym, order = omega_kernel(d, labels, pt)
    assert order == 0
    scale = 2.0 ** float(-labels.q_w0_exponent())
    expected = complex(sym.evaluate(2.0)) * scale
    assert abs(val - expected) < 1e-10 * abs(expected)


def test_report_resolution_and_error_estimate():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    rep = shift_and_collect(d, labels, 2)
    assert 0 < rep.resolution <= MAX_NODES
    assert 0 <= rep.error_estimate <= rep.tolerance == 1e-8
    data = rep.to_json()
    assert data["resolution"] == rep.resolution
    assert data["error_estimate"] == rep.error_estimate
    # a tighter tolerance is met by the reported estimate too
    tight = shift_and_collect(d, labels, 2, tolerance=1e-13)
    assert tight.error_estimate <= 1e-13
    assert tight.resolution >= rep.resolution
    # an explicit node count is used as given, without doubling
    fixed = shift_and_collect(d, labels, 2, nodes=48)
    assert fixed.resolution == 48


def test_node_cap_raises():
    # no grid reaches 1e-30: the engine names the contour and refuses
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    eng = ResidueEngine(d, labels, 2, tolerance=1e-30)
    with pytest.raises(ValueError, match="contour"):
        eng.integral((F(-1, 2),))
    with pytest.raises(ValueError, match=str(MAX_NODES)):
        eng.collect()


def _plain_kernel(fn, *zs):
    """prod (1 - d z^vec)^(-sign) over the kernel divisors, term by term."""
    out = fn.scale
    for div in fn.divisors:
        d = np.exp(2j * np.pi * float(div.u0)) * fn.qval ** float(div.r0)
        mono = 1
        for z, a in zip(zs, div.vec):
            mono = mono * z ** a
        factor = 1 - d * mono
        out = out / factor if div.sign > 0 else out * factor
    return out


KERNEL_CASES = [(tag, lattice, seed)
                for tag, lattice in (("A1", "Q"), ("A2", "P"), ("B2", "Q"),
                                     ("G2", "Q"))
                for seed in (None, 5, 17)]


@pytest.mark.parametrize("tag,lattice,seed", KERNEL_CASES)
def test_integrand_matches_plain_product(tag, lattice, seed):
    d = RootDatum.from_type(tag, lattice)
    labels = LabelFunction.equal(d) if seed is None else \
        LabelFunction.from_affine_nodes(
            d, random_label_vector(d, random.Random(seed)))
    fn = Integrand(d, labels, F(3))
    rng = np.random.default_rng(seed)

    def points(shape):
        radius = np.exp(rng.uniform(-1.5, 1.5, shape))
        return radius * np.exp(2j * np.pi * rng.uniform(0, 1, shape))

    if d.rank == 1:
        # the circle of torus_integral and the small circle around a point
        shapes = [[(64,)], [(7,)]]
    else:
        # vanishing_cycle_check's paired 1-D arrays, a single point, and
        # the broadcast row block of torus_integral
        shapes = [[(64,), (64,)], [(1, 1), (1, 1)], [(6, 1), (1, 40)]]
    for shape in shapes:
        zs = [points(s) for s in shape]
        got = fn(*zs)
        want = _plain_kernel(fn, *zs)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
