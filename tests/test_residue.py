import contextlib
import io
import json
import random
from fractions import Fraction
from math import log
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from heckeplan import residue
from heckeplan.cli import main
from heckeplan.plancherel import m_on_coset
from heckeplan.residue import (
    MAX_NODES,
    Divisor,
    Integrand,
    ResidueEngine,
    RingLines,
    divisors_through,
    kernel_divisors,
    net_pole_orders,
    ring_candidates,
    segment_crossings,
    shift_and_collect,
    start_log_radii,
    torus_integral,
    vanishing_cycle_check,
)
from heckeplan.residual import (
    TorusPoint,
    _point_rows,
    point_index,
    residual_cosets,
    residual_points,
    steinberg_point,
)
from heckeplan.rootdata import LabelFunction, RootDatum, random_label_vector

F = Fraction


class DirectionTables:
    """A rank-2 integrand in the form torus_integral reads: the product
    over primitive directions p of factor(p, z^p), times `scale`."""

    scale = 1.0

    def __init__(self, factors):
        self.directions = factors  # p -> function of the values of z^p

    def factor(self, p, w):
        return self.directions[p](w)


def test_torus_integral_constant():
    val, _ = torus_integral(lambda z: np.ones_like(z), [1.0], 64)
    assert abs(val - 1) == 0
    # on an axis, and on a skew direction read through its strided view
    for p in ((1, 0), (1, 1)):
        val, _ = torus_integral(DirectionTables({p: np.ones_like}),
                                [1.0, 1.0], 32)
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
    # (z^p)^(N/2) is (-1)^(p.k) on the grid, +1 on the half grid, for an
    # axis and skew directions; 512 nodes per circle span several blocks
    # of rows
    n = 512
    for p in ((1, 0), (0, 1), (1, 1), (1, -2), (2, -3)):
        mode = DirectionTables({p: lambda w: w ** (n // 2)})
        full, half = torus_integral(mode, [1.0, 1.0], n)
        assert abs(full) < 1e-12 and abs(half - 1) < 1e-12
    # an axis mode times a constant skew table goes through the blocks too
    mode = DirectionTables({(0, 1): lambda w: w ** (n // 2),
                            (1, 1): np.ones_like})
    full, half = torus_integral(mode, [1.0, 1.0], n)
    assert abs(full) < 1e-12 and abs(half - 1) < 1e-12
    with pytest.raises(ValueError):
        torus_integral(lambda z: z, [1.0], 63)


def _record_quadrature(monkeypatch):
    """The (fn, radii, nodes, full-grid value) of every torus_integral
    call from here on."""
    calls = []
    quadrature = residue.torus_integral

    def recorded(fn, radii, nodes):
        full, half = quadrature(fn, radii, nodes)
        calls.append((fn, radii, nodes, full))
        return full, half

    monkeypatch.setattr(residue, "torus_integral", recorded)
    return calls


def test_rank1_masses_q2_q3(monkeypatch):
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    calls = _record_quadrature(monkeypatch)
    for q in (2, 3):
        rep = shift_and_collect(d, labels, q)
        assert abs(rep.global_mass - 1) < 1e-8
        assert abs(rep.continuous - 2 / (q + 1)) < 1e-8
        assert len(rep.point_masses) == 1
        assert abs(rep.point_masses[0].value - (q - 1) / (q + 1)) < 1e-8
        assert rep.closure_error < 1e-8
    # the rank-1 circle sums are complex; their imaginary parts vanish
    assert max(abs(full.imag) for *_, full in calls) < 1e-10


def test_rank1_start_contour_independence(monkeypatch):
    # the extracted masses do not depend on the admissible start contour:
    # each run starts from its own, the default and one deeper
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    default = start_log_radii(d, labels)
    starts = []
    values = []
    for ell0 in (default, (default[0] - F(29, 24),)):
        def start(datum, labels, ell0=ell0):
            starts.append(ell0)
            return ell0
        monkeypatch.setattr(residue, "start_log_radii", start)
        eng = ResidueEngine(d, labels, 2)
        assert eng.integral(ell0) == pytest.approx(1.0, abs=1e-9)
        rep = eng.collect()
        values.append(rep.point_masses[0].value)
    assert starts == [default, (default[0] - F(29, 24),)]
    assert abs(values[0] - values[1]) < 1e-9


def test_rank1_quadrature_convergence():
    d = RootDatum.from_type("A1", "Q")
    fn = Integrand(d, LabelFunction.equal(d), F(2))
    radii = [2.0 ** -0.5]
    coarse, fine, finest = (torus_integral(fn, radii, n)[0].real
                            for n in (256, 512, 1024))
    assert abs(fine - finest) < 1e-12
    assert abs(coarse - finest) < 1e-7


def test_rank2_b2_total_and_positivity(monkeypatch):
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    calls = _record_quadrature(monkeypatch)
    rep = shift_and_collect(d, labels, 2)
    assert abs(rep.global_mass - 1) < 1e-6
    assert abs(rep.total() - 1) < 1e-6
    assert len(rep.point_masses) == 2
    for e in rep.point_masses:
        assert e.value > 1e-3
    for e in rep.coset_masses:
        assert e.value > 1e-3
    assert rep.continuous > 0
    # the folded rank-2 sums are real; the full grids they stand for have
    # vanishing imaginary parts (summed in bands of rows)
    for fn, radii, nodes, full in calls:
        assert isinstance(full, float)
        circle = np.exp(np.arange(nodes) * (2j * np.pi / nodes))
        cols = (radii[1] * circle)[None, :]
        imag = sum(fn((radii[0] * circle[k:k + 256])[:, None], cols).sum().imag
                   for k in range(0, nodes, 256))
        assert abs(imag / nodes ** 2) < 1e-9


def test_rank2_b2_masses_match_symbolic_special_point():
    # the numeric special-orbit mass equals the exact rational value
    from heckeplan.plancherel import plancherel_point_mass
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    st = steinberg_point(d, labels)
    exact = plancherel_point_mass(d, labels, st).evaluate(F(2))
    rep = shift_and_collect(d, labels, 2)
    best = min(abs(e.value - float(exact)) for e in rep.point_masses)
    assert best < 1e-7
    assert exact == F(7, 45)


def global_unit_integral(datum, labels, qval, nodes):
    """Integral of the kernel form over the unit torus on the grid of the
    given node count."""
    fn = Integrand(datum, labels, F(qval))
    return torus_integral(fn, [1.0] * datum.rank, nodes)[0].real


def test_unit_integral_positive():
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    val = global_unit_integral(d, labels, 2, nodes=512)
    assert val > 0


def test_vanishing_cycle_rank1():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    # alpha(t) = q^2: not a pole of the kernel
    quiet = vanishing_cycle_check(d, labels, 2, TorusPoint([0], [2]))
    assert abs(quiet) < 1e-12
    # control: the special point carries mass
    loud = vanishing_cycle_check(d, labels, 2,
                                 steinberg_point(d, labels))
    assert abs(loud) > 1e-3


def test_vanishing_cycle_rank2():
    from heckeplan.residual import point_index
    from heckeplan.rootdata import parabolic_subsystem_roots
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    # the locus alpha_2(t) = -1 is a codimension-1 intersection component
    # with index 0 (pole and zero thresholds cancel): no local mass at a
    # generic sample point on it
    quiet_pt = TorusPoint([0, F(1, 2)], [F(7, 3), 0])
    support = parabolic_subsystem_roots(d, (1,))
    assert point_index(d, labels, quiet_pt, support) == 0
    quiet = vanishing_cycle_check(d, labels, 2, quiet_pt, direction=(0, 1))
    assert abs(quiet) < 1e-8
    # control: a generic point of the residual coset alpha_2(t) = q
    loud_pt = TorusPoint([0, 0], [F(7, 3), 1])
    assert point_index(d, labels, loud_pt, support) == 1
    loud = vanishing_cycle_check(d, labels, 2, loud_pt, direction=(0, 1))
    assert abs(loud) > 1e-4


def test_small_circles_and_the_unit_integral_enumerate_no_cosets(
        monkeypatch):
    # the engine enumerates the residual cosets only when a mass is placed;
    # the values are those of engines whose coset data were built first
    enumerated = []
    real = residue.residual_cosets

    def counted(datum, labels):
        enumerated.append(datum.typename)
        return real(datum, labels)

    monkeypatch.setattr(residue, "residual_cosets", counted)
    b2 = RootDatum.from_type("B2", "Q")
    a1 = RootDatum.from_type("A1", "Q")
    lb2, la1 = LabelFunction.equal(b2), LabelFunction.equal(a1)
    loud_pt = TorusPoint([0, 0], [F(7, 3), 1])
    special = steinberg_point(a1, la1)
    circle = vanishing_cycle_check(b2, lb2, 2, loud_pt, direction=(0, 1))
    rank1 = vanishing_cycle_check(a1, la1, 2, special)
    unit = ResidueEngine(b2, lb2, 2).integral((F(0), F(0)))
    assert enumerated == []
    engines = [ResidueEngine(b2, lb2, 2), ResidueEngine(a1, la1, 2),
               ResidueEngine(b2, lb2, 2)]
    for eng in engines:
        assert eng._point_orbit and eng._ring_targets is not None
    assert enumerated == ["B2", "A1", "B2"]
    assert abs(engines[0]._small_circle(loud_pt, 1)[0]) == circle
    assert abs(engines[1].point_residue_rank1(special)) == rank1
    assert engines[2].integral((F(0), F(0))) == unit
    assert unit == global_unit_integral(b2, lb2, 2, engines[2].resolution)


def _labels(d, seed):
    """Equal labels at seed None, else seeded affine-node labels."""
    return LabelFunction.equal(d) if seed is None else \
        LabelFunction.from_affine_nodes(
            d, random_label_vector(d, random.Random(seed)))


def test_integrand_matches_exact_kernel():
    # the compiled numeric kernel agrees with the exact density on the
    # whole torus, q(w0)^{-1} / (c(t) c(t^{-1})), at a point off every
    # divisor
    for tag, lattice in (("A1", "Q"), ("A1", "P"), ("B2", "Q"), ("B2", "P"),
                         ("C2", "P"), ("G2", "Q")):
        d = RootDatum.from_type(tag, lattice)
        for seed in (None, 5):
            labels = _labels(d, seed)
            torus = next(c for c in residual_cosets(d, labels)
                         if c.dim == d.rank)
            fn = Integrand(d, labels, F(2))
            pt = TorusPoint([F(1, 3), F(1, 5)][:d.rank],
                            [F(1, 7), F(-3, 11)][:d.rank])
            assert not divisors_through(
                fn.divisors, *_point_rows([pt], d.rank))[0]
            z = [np.exp(2j * np.pi * float(u)) * 2.0 ** float(r)
                 for u, r in zip(pt.u, pt.r)]
            val = fn(*(np.array([[x]]) for x in z))[0][0]
            expected = complex(
                m_on_coset(d, labels, torus, pt).evaluate(2.0))
            assert abs(val - expected) < 1e-12 * abs(expected)


@pytest.mark.parametrize("tag,lattice", [
    (tag, lattice) for tag in ("A1", "A2", "A3", "A4", "B2", "B3", "B4",
                               "C2", "C3", "C4", "D4", "G2", "F4")
    for lattice in ("Q", "P")])
def test_kernel_pole_order_is_the_index(tag, lattice):
    # the kernel's divisors count, at every point, the poles minus the
    # zeros of the residual index: both read the label thresholds
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(7)
    for labels in (LabelFunction.equal(d), LabelFunction.equal(d, 0),
                   LabelFunction.equal(d, F(-3, 2)), _labels(d, 5)):
        seeded = [TorusPoint([rng.choice((F(0), F(1, 2), F(1, 4)))
                              for _ in range(d.rank)],
                             [F(rng.randint(-6, 6), 2)
                              for _ in range(d.rank)])
                  for _ in range(40)]
        points = residual_points(d, labels) + seeded
        assert net_pole_orders(kernel_divisors(d, labels), points) == \
            [point_index(d, labels, p) for p in points]


def test_report_resolution_and_error_estimate():
    d = RootDatum.from_type("A1", "Q")
    labels = LabelFunction.equal(d)
    rep = shift_and_collect(d, labels, 2)
    assert 0 < rep.resolution <= MAX_NODES
    assert 0 <= rep.error_estimate <= rep.tolerance == 1e-8
    # a tighter tolerance is met by the reported estimate too
    tight = shift_and_collect(d, labels, 2, tolerance=1e-13)
    assert tight.error_estimate <= 1e-13
    assert tight.resolution >= rep.resolution
    # B2 at q = 2 meets its default tolerance as well
    b2 = RootDatum.from_type("B2", "Q")
    rep = shift_and_collect(b2, LabelFunction.equal(b2), 2)
    assert 0 < rep.resolution <= MAX_NODES
    assert 0 <= rep.error_estimate <= rep.tolerance == 1e-6


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
        # a broadcast grid
        shapes = [[(64,), (64,)], [(1, 1), (1, 1)], [(6, 1), (1, 40)]]
    for shape in shapes:
        zs = [points(s) for s in shape]
        got = fn(*zs)
        want = _plain_kernel(fn, *zs)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _labels(d, seed):
    return LabelFunction.equal(d) if seed is None else \
        LabelFunction.from_affine_nodes(
            d, random_label_vector(d, random.Random(seed)))


ORACLE_CASES = [(tag, lattice, seed)
                for tag, lattice in (("A2", "Q"), ("A2", "P"), ("B2", "Q"),
                                     ("B2", "P"), ("C2", "P"), ("G2", "Q"),
                                     ("G2", "P"))
                for seed in (None, 7)]


@pytest.mark.parametrize("tag,lattice,seed", ORACLE_CASES)
def test_torus_integral_matches_the_broadcast_kernel(tag, lattice, seed):
    # the direction-table sum equals the mean of the kernel evaluated at
    # every grid point: skew directions with a negative entry, multiples
    # such as B2/P's 2(1,-1), a node count that is not a power of two,
    # and several blocks of rows
    d = RootDatum.from_type(tag, lattice)
    fn = Integrand(d, _labels(d, seed), F(3))
    radii = [3.0 ** -0.3141, 3.0 ** 0.2718]
    # 18 is 2 mod 4: row N/2 of the grid is not on the half grid
    for n in (16, 18, 48, 512):
        full, half = torus_integral(fn, radii, n)
        circle = np.exp(np.arange(n) * (2j * np.pi / n))
        grid = fn((radii[0] * circle)[:, None], (radii[1] * circle)[None, :])
        np.testing.assert_allclose(
            [full, half], [grid.mean(), grid[::2, ::2].mean()], rtol=1e-12)


def test_integrand_refuses_a_coefficient_that_is_not_real(monkeypatch):
    # the folded rank-2 sum needs d = e^{2 pi i u0} q^r0 real, u0 in Z/2
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    forged = [Divisor((1, 0), F(1, 3), F(1), +1)]
    monkeypatch.setattr(residue, "kernel_divisors",
                        lambda datum, labels: forged)
    with pytest.raises(ValueError, match="not real"):
        Integrand(d, labels, F(3))
    forged[0] = Divisor((1, 0), F(1, 2), F(1), +1)
    assert Integrand(d, labels, F(3)).directions == {(1, 0): {1: ([], [-3.0])}}


# the contour geometry on Fractions, as the engine computed it before its
# integer form: the reference of the integer routines


def _pair(p, ell):
    return sum((pi * x for pi, x in zip(p, ell)), F(0))


def _start_nodes_by_fractions(eng, ell):
    best = min((abs(float(_pair(p, ell) - rho)) /
                max(1.0, float(sum(abs(x) for x in p)))
                for p, rho in eng.rings), default=0)
    if best <= 0:
        raise ValueError("contour touches a pole ring")
    n = 2.0 * log(1.0 / eng.tolerance) / (best * log(float(eng.qval))) + 16
    size = 16
    while size < n:
        size *= 2
    return min(size, MAX_NODES)


def _crossings_by_fractions(keys, start, end):
    out = []
    delta = [e - s for s, e in zip(start, end)]
    for key in keys:
        p, rho = key
        denom = _pair(p, delta)
        base = _pair(p, start)
        if denom == 0:
            if base == rho:
                raise ValueError("segment lies on a pole ring")
            continue
        s = (rho - base) / denom
        if 0 <= s <= 1:
            out.append((s, key))
    return out


def _step_by_fractions(keys, key, axis, pos):
    step = F(1, 8)
    for p, rho in keys:
        if (p, rho) == key or p[axis] == 0:
            continue
        dist = abs((rho - _pair(p, pos)) / p[axis])
        if dist == 0:
            raise ValueError("bracket centered on a foreign ring")
        step = min(step, dist / 3)
    return step


def _outcome(fn, *args):
    """fn(*args), or the type of the error it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("tag,lattice,seed", ORACLE_CASES)
def test_integer_geometry_matches_the_fractions(tag, lattice, seed):
    # node counts, crossings and bracket steps on seeded contours: random
    # points, points on a ring line, the start contour and the origin
    d = RootDatum.from_type(tag, lattice)
    labels = _labels(d, seed)
    eng = ResidueEngine(d, labels, 3)
    keys = list(eng.rings)
    rng = random.Random(f"{tag}{lattice}{seed}")

    def rand():
        return F(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 7, 12)))

    def on_ring(p, rho):
        # a point with <p, x> = rho
        i = 1 if p[1] else 0
        x = [rand(), rand()]
        x[i] = (rho - p[1 - i] * x[1 - i]) / p[i]
        return tuple(x)

    points = [tuple(start_log_radii(d, labels)), (F(0), F(0))]
    points += [(rand(), rand()) for _ in range(30)]
    points += [on_ring(*rng.choice(keys)) for _ in range(15)]
    for ell in points:
        assert _outcome(lambda x: eng._chamber(x)[1], ell) == \
            _outcome(_start_nodes_by_fractions, eng, ell)
        for key in keys:
            for axis in (0, 1):
                assert _outcome(eng._slab_step, key, axis, ell) == \
                    _outcome(_step_by_fractions, keys, key, axis, ell)
    # segments between the points, along axes, and along a ring line
    segments = [(a, b) for a, b in zip(points, points[1:])]
    segments += [(a, (a[0], rand())) for a in points[:10]]
    for key in keys:
        segments.append((on_ring(*key), on_ring(*key)))
    for a, b in segments:
        assert _outcome(segment_crossings, eng.rings, a, b) == \
            _outcome(_crossings_by_fractions, keys, a, b)
        for key in keys:
            assert _outcome(segment_crossings, eng.rings, a, b, key) == \
                _outcome(_crossings_by_fractions,
                         [k for k in keys if k != key], a, b)


def _ring_candidates_by_solver(divisors, key1, key2):
    """The rank-2 ring candidates by one exact solve per right-hand side."""
    from heckeplan.lattice import solve_unique
    out = set()
    div1 = [d for d in divisors if d.sign > 0 and d.ring == key1]
    div2 = [d for d in divisors if d.sign > 0 and d.ring == key2]
    for d1 in div1:
        for d2 in div2:
            amat = [[F(x) for x in d1.vec], [F(x) for x in d2.vec]]
            det = d1.vec[0] * d2.vec[1] - d1.vec[1] * d2.vec[0]
            if det == 0:
                continue
            rsol = solve_unique(amat, [-d1.r0, -d2.r0])
            for k1 in range(abs(det)):
                for k2 in range(abs(det)):
                    usol = solve_unique(amat, [-d1.u0 + k1, -d2.u0 + k2])
                    out.add(TorusPoint(usol, rsol))
    return sorted(out, key=TorusPoint.key)


@pytest.mark.parametrize("tag,lattice,seed",
                         [(tag, lattice, seed)
                          for tag in ("A2", "B2", "C2", "G2")
                          for lattice in ("Q", "P") for seed in (None, 11)])
def test_ring_candidates_rank2_match_the_solver(tag, lattice, seed):
    d = RootDatum.from_type(tag, lattice)
    divisors = kernel_divisors(d, _labels(d, seed))
    rings = list(RingLines(divisors))
    found = 0
    for key1 in rings:
        for key2 in rings:
            if key1 != key2:
                got = ring_candidates(divisors, key1, key2)
                assert got == _ring_candidates_by_solver(divisors, key1, key2)
                found += len(got)
    assert found


@pytest.mark.parametrize("lattice,seed", [(lattice, seed)
                                          for lattice in ("Q", "P")
                                          for seed in (None, 11)])
def test_ring_candidates_rank1_are_the_roots_of_each_factor(lattice, seed):
    # on a rank-1 ring the candidates are the |a| solutions of
    # theta^a = 1/d of each pole factor 1 - d theta^a on it
    d = RootDatum.from_type("A1", lattice)
    divisors = kernel_divisors(d, _labels(d, seed))
    for key in RingLines(divisors):
        want = set()
        for div in divisors:
            if div.sign > 0 and div.ring == key:
                a = div.vec[0]
                want |= {TorusPoint([(k - div.u0) / a], [-div.r0 / a])
                         for k in range(abs(a))}
        got = ring_candidates(divisors, key)
        assert got == sorted(want, key=TorusPoint.key) and got


def _chamber(rings, ell):
    """The sign vector of the gaps from the contour at log-radii ell to
    the pole rings: the cell of the ring arrangement it lies in."""
    _, gaps = rings.gaps(ell)
    return tuple(g > 0 for (g,) in gaps)


def test_every_contour_goes_through_torus_integral(monkeypatch):
    # the benchmark times and counts the quadrature by wrapping
    # residue.torus_integral and reading its (fn, radii, nodes); the
    # engine runs it on the first contour of each chamber it visits
    calls = []
    contours = []
    quadrature = residue.torus_integral
    integral = ResidueEngine.integral

    def counted(fn, radii, nodes):
        calls.append((fn, tuple(radii), nodes))
        return quadrature(fn, radii, nodes)

    def traced_integral(self, ell):
        contours.append(ell)
        return integral(self, ell)

    monkeypatch.setattr(residue, "torus_integral", counted)
    monkeypatch.setattr(ResidueEngine, "integral", traced_integral)
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    rep = shift_and_collect(d, labels, 2)
    rings = RingLines(kernel_divisors(d, labels))
    firsts = {}
    for ell in contours:
        firsts.setdefault(_chamber(rings, ell),
                          tuple(2.0 ** float(x) for x in ell))
    assert len(contours) > len(firsts)
    assert list(dict.fromkeys(radii for _, radii, _ in calls)) == \
        list(firsts.values())
    for fn, radii, nodes in calls:
        assert isinstance(fn, Integrand) and len(radii) == 2
        assert nodes % 2 == 0 and nodes <= MAX_NODES
    assert max(nodes for _, _, nodes in calls) == rep.resolution


def _quadrature(eng, ell):
    """torus_integral on the contour at log-radii ell at twice the
    engine's starting node count, and its half-grid difference."""
    radii = [float(eng.qval) ** float(x) for x in ell]
    full, half = torus_integral(eng.fn, radii, 2 * eng._chamber(ell)[1])
    return full, abs(full - half)


@pytest.mark.parametrize("tag", ["A2", "B2"])
def test_torus_integral_is_constant_on_a_chamber(tag):
    # Cauchy's theorem, on which the engine's one quadrature per chamber
    # rests, checked without the engine's memo: distinct contours in one
    # chamber give one value, and contours on either side of one pole
    # ring differ by the bracket across it
    d = RootDatum.from_type(tag, "Q")
    eng = ResidueEngine(d, LabelFunction.equal(d), 3)
    tol = eng.tolerance
    ell0 = start_log_radii(d, LabelFunction.equal(d))
    pairs = [((F(0), F(0)), (F(-1, 5), F(1, 9))),
             (ell0, (ell0[0] + F(1, 3), ell0[1] - F(1, 2)))]
    for a, b in pairs:
        assert a != b and _chamber(eng.rings, a) == _chamber(eng.rings, b)
        (va, ea), (vb, eb) = _quadrature(eng, a), _quadrature(eng, b)
        assert max(ea, eb) <= tol and abs(va - vb) <= tol
    below, above = (F(-17, 8), F(-3, 2)), (F(-17, 8), F(-1, 2))
    [(s, key)] = segment_crossings(eng.rings, below, above)
    assert key == ((0, 1), F(-1))
    pos = (F(-17, 8), F(-1))
    jump = eng._bracket(pos, 1, 1, eng._slab_step(key, 1, pos))
    (va, ea), (vb, eb) = _quadrature(eng, below), _quadrature(eng, above)
    assert max(ea, eb) <= tol and abs(jump) > 1e-3
    assert abs((vb - va) - jump) <= 2 * tol


# -- frozen engine decisions ----------------------------------------------------

RESIDUE_REFERENCE = Path(__file__).with_name("residue_reference.json")

REFERENCE_DATA = [(tag, lattice, q)
                  for tag, lattice in (("A1", "Q"), ("A1", "P"), ("A2", "Q"),
                                       ("B2", "Q"), ("C2", "Q"))
                  for q in ("2", "3", "4", "5/2")]


def _run_residue_check(tag, lattice, q):
    """(exit code, stdout, stderr) of `check --suite residue`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", "--suite", "residue", "--type", tag,
                     "--lattice", lattice, "--q", q, "--format", "json"])
    return code, out.getvalue(), err.getvalue()


def record_engine_decisions(tag, lattice, q):
    """The decisions of one residue check: its exit code, every contour
    on which `ResidueEngine.integral` runs a quadrature, in order, as its
    exact log-radii and the node count it settled on ("-3/8,1/4 n=256"),
    and the printed parts and values."""
    contours = []
    counts = []
    quadrature = residue.torus_integral
    integral = ResidueEngine.integral

    def counted(fn, radii, nodes):
        counts.append(nodes)
        return quadrature(fn, radii, nodes)

    def traced(self, ell):
        run = len(counts)
        value = integral(self, ell)
        if len(counts) > run:
            contours.append(f"{','.join(map(str, ell))} n={counts[-1]}")
        return value

    with mock.patch.object(residue, "torus_integral", counted), \
            mock.patch.object(ResidueEngine, "integral", traced):
        code, out, _ = _run_residue_check(tag, lattice, q)
    rows = json.loads(out)["rows"]
    return {"code": code, "contours": contours,
            "parts": [r["part"] for r in rows],
            "values": [r["value"] for r in rows]}


def _chamber_first(tag, lattice, contours):
    """The frozen contours whose chamber of the pole rings has not
    appeared earlier in the list: the ones the engine integrates."""
    d = RootDatum.from_type(tag, lattice)
    rings = RingLines(kernel_divisors(d, LabelFunction.equal(d)))
    seen = set()
    out = []
    for c in contours:
        chamber = _chamber(rings, [F(x) for x in c.split(" ")[0].split(",")])
        if chamber not in seen:
            seen.add(chamber)
            out.append(c)
    return out


@pytest.mark.parametrize("tag,lattice,q", REFERENCE_DATA)
def test_engine_decisions_match_the_frozen_reference(tag, lattice, q):
    # frozen from the engine before its Weyl images, ring pairings and
    # contour routines moved onto the package kernels, and before it
    # integrated each chamber once: it now runs the quadratures of the
    # first frozen contour of each chamber, and of no other
    want = json.loads(RESIDUE_REFERENCE.read_text())[f"{tag}/{lattice} q={q}"]
    got = record_engine_decisions(tag, lattice, q)
    assert got["code"] == want["code"] == 0
    assert got["contours"] == _chamber_first(tag, lattice, want["contours"])
    assert got["parts"] == want["parts"]
    assert len(got["values"]) == len(want["values"])
    for a, b in zip(got["values"], want["values"]):
        assert abs(a - b) <= 1e-12, (a, b)


@pytest.mark.parametrize("tag,lattice,q", REFERENCE_DATA)
def test_residue_header_states_the_resolution_reached(tag, lattice, q):
    # the header's resolution is the largest node count of the frozen
    # contours the engine integrates, and the error estimate is within
    # the tolerance
    want = json.loads(RESIDUE_REFERENCE.read_text())[f"{tag}/{lattice} q={q}"]
    code, out, _ = _run_residue_check(tag, lattice, q)
    header = json.loads(out)["header"]
    assert code == 0
    assert header["resolution"] == max(
        int(c.rpartition("n=")[2])
        for c in _chamber_first(tag, lattice, want["contours"]))
    tol = 1e-8 if tag == "A1" else 1e-6
    assert 0 <= header["error_estimate"] <= tol


@pytest.mark.parametrize("q", ["2", "3"])
def test_residue_header_covers_the_small_circles(q):
    # A1/P separates two candidates on one ring by small circles; the
    # header's estimate covers the difference of each circle's mean on
    # all nodes and on the even ones
    circles = []
    small_circle = ResidueEngine._small_circle

    def traced(self, *args):
        full, half = small_circle(self, *args)
        circles.append(abs(full - half))
        return full, half

    with mock.patch.object(ResidueEngine, "_small_circle", traced):
        code, out, _ = _run_residue_check("A1", "P", q)
    header = json.loads(out)["header"]
    assert code == 0 and len(circles) == 2
    assert max(circles) <= header["error_estimate"] <= 1e-8


def test_a_coarse_small_circle_sets_the_error_estimate(monkeypatch):
    # eight nodes on a wide circle leave a visible difference between the
    # means on all nodes and on the even ones, and the engine reports it
    monkeypatch.setattr(residue, "SMALL_CIRCLE_RADIUS", 0.5)
    monkeypatch.setattr(residue, "SMALL_CIRCLE_NODES", 8)
    d = RootDatum.from_type("A1", "P")
    labels = LabelFunction.equal(d)
    eng = ResidueEngine(d, labels, 3)
    point = steinberg_point(d, labels)
    full, half = eng._small_circle(point, 0)
    assert abs(full - half) > 1e-6
    assert eng.point_residue_rank1(point) == -full.real
    assert eng.error_estimate == abs(full - half)


@pytest.mark.parametrize("tag,lattice,reason", [
    ("A2", "P", "several residual orbits at one crossing"),
    ("B2", "P", "several residual orbits at one crossing"),
    ("C2", "P", "several residual orbits at one crossing"),
    ("G2", "P", "could not find a clean axis path"),
])
def test_unsupported_data_fail_with_a_named_reason(tag, lattice, reason):
    code, out, err = _run_residue_check(tag, lattice, "3")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {reason}")


if __name__ == "__main__":
    # prints the reference of the current code; the committed file is
    # only ever replaced on purpose
    print(json.dumps({f"{t}/{lat} q={q}": record_engine_decisions(t, lat, q)
                      for t, lat, q in REFERENCE_DATA}, indent=1,
                     sort_keys=True))
