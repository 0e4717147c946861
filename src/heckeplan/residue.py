"""Numeric contour integration at rank 1 and 2: the global torus integral
of the inverse-square kernel, radial contour shifts with exact crossing
geometry, and extraction of the local masses sitting on residual cosets.

All contour geometry (ring positions, crossing points, candidate poles)
is exact rational data in log-radius coordinates; floating point enters
only through the trapezoidal quadrature, which is spectrally accurate for
these analytic integrands.  The pole rings <p, ell> = rho are kept as
their primitive directions p and the numerators of rho over one
denominator (`RingLines`); a contour is brought to one lcm with them, so
node counts, crossings and bracket steps compare integers, and a
`Fraction` is built only for a crossing parameter or a bracket step.

Resolution.  On a contour at natural-log distance d from the nearest pole
ring the N-node trapezoid error decays like e^{-N d} (Trefethen and
Weideman, SIAM Rev. 56, 2014).  Each torus integral therefore starts at
the power of two N >= 2 ln(1/tol)/d + 16 and evaluates the endpoint grid
theta_k = 2 pi k/N once, which yields both the N-node mean and the mean
over the nested N/2 grid (every other node).  Their difference is the
error of the N/2 grid; under geometric decay the N-node error is about
its square.  N is accepted once the difference is at most the tolerance,
doubled otherwise, and a contour that still misses the tolerance at 2^14
nodes raises ValueError; there is no other node rule.  A chamber of the
rings (a sign vector of the gaps) is convex and holds no pole, so its
contours are homologous cycles, as in the paper's shift of the cycle
onto local cycles: one quadrature per chamber is exact.  A small circle
around a point has the fixed radius SMALL_CIRCLE_RADIUS |z0| and
SMALL_CIRCLE_NODES nodes, and its mean on every other node is its
estimate.  A report's `resolution` is the largest N run and its
`error_estimate` the largest half-grid difference of a quadrature run or
of a small circle.

Evaluation.  The kernel is a product of factors 1 - d z^vec, and vec = c p
for a primitive direction p, so a factor depends on the grid point only
through w = z^p, which takes N values r^p omega^m on a rank-2 grid.  Each
direction's factor is therefore a table of N values, and `torus_integral`
sums their products over the grid in O(N) kernel evaluations.  Every
coefficient d is real, so the rank-2 sum folds row -k1 onto row k1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, log

import numpy as np

from .residual import (
    TorusPoint,
    _matches,
    _orbit_rows,
    _point_rows,
    canonical_point,
    pairings,
    residual_cosets,
)
from .rootdata import LabelFunction, RootDatum

F = Fraction


# -- divisor bookkeeping --------------------------------------------------------


def direction(vec):
    """(p, c) with vec = c p, p primitive and sign-canonical (its first
    nonzero entry positive)."""
    g = gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec), g


@dataclass(frozen=True)
class Divisor:
    """One factor (1 - d theta_vec) with d = e^{2 pi i u0} q^{r0}, for a
    root vec of R0: its locus is vec(t) = 1/d, a zero of the kernel at
    vec(t) = +-1 and a pole at a label threshold q^a or -q^b."""
    vec: tuple
    u0: Fraction
    r0: Fraction
    sign: int  # +1 denominator (pole of the kernel), -1 numerator (zero)

    @cached_property
    def ring(self):
        """(primitive direction, radius per primitive unit) of the radial
        projection of the vanishing locus theta_vec = 1/d, which satisfies
        <vec, log-radii> = -r0; the direction is sign-canonical."""
        p, c = direction(self.vec)
        return p, -self.r0 / c


def kernel_divisors(datum, labels):
    """Net pole/zero divisors of dt / (q(w0) c(t) c(t^{-1})), by the
    threshold rule of the index: each root alpha of R0 has zeros at
    alpha(t) = 1 and -1 and poles at alpha(t) = -q^b and q^a, (a, b) its
    `labels.thresholds`, and a zero and a pole on one locus (a = 0 or
    b = 0) cancel.  The roots come as -beta, then beta, for each beta of
    R1,+ (halved when doubled), and all zeros precede all poles."""
    half_turn = F(1, 2)
    zeros, poles = [], []
    for r in datum.r1_positive:
        half = tuple(v // 2 for v in r.vec)
        beta = half if not any(v % 2 for v in r.vec) and \
            datum.doubled.get(half) else r.vec
        a, b = labels.thresholds[beta]
        for vec in (tuple(-v for v in beta), beta):
            zeros += [Divisor(vec, u0, F(0), -1)
                      for u0, x in ((F(0), a), (half_turn, b)) if x]
            poles += [Divisor(vec, u0, -x, +1)
                      for u0, x in ((half_turn, b), (F(0), a)) if x]
    return zeros + poles


def divisors_through(divisors, rows, den):
    """The divisors vanishing at each point row over den, 1 = d theta_vec(t),
    from one `pairings` product."""
    un, rn = pairings(rows, den, [d.vec for d in divisors])
    hits = _matches(un, [-d.u0 % 1 for d in divisors], den) & \
        _matches(rn, [-d.r0 for d in divisors], den)
    return [[d for d, hit in zip(divisors, row) if hit]
            for row in hits.tolist()]


def net_pole_orders(divisors, points, exclude_ring=None):
    """Vanishing denominator minus numerator factors at each exact point,
    the ring `exclude_ring` left out; 0 everywhere without divisors."""
    if not divisors:
        return [0] * len(points)
    rows, den = _point_rows(points, len(divisors[0].vec))
    return [sum(d.sign for d in through if d.ring != exclude_ring)
            for through in divisors_through(divisors, rows, den)]


# -- quadrature -----------------------------------------------------------------


MAX_NODES = 1 << 14  # nodes per circle at which a contour must converge
# a small circle around z0 has radius SMALL_CIRCLE_RADIUS |z0|
SMALL_CIRCLE_RADIUS = 1e-2
SMALL_CIRCLE_NODES = 512
# grid points per block of the rank-2 sum: the block buffer takes 256 KiB,
# so it stays in a 2 MiB L2 cache next to the direction tables it reads
BLOCK_POINTS = 1 << 14


def torus_integral(fn, radii, nodes: int):
    """Means of fn over the product of circles of the given radii, on the
    endpoint grid theta_k = 2 pi k / nodes and on its nested half grid
    (every other node in each coordinate), from one evaluation; this is
    the integral against the normalized holomorphic extension of Haar
    measure.  Returns (mean on the full grid, mean on the half grid).

    At rank 1 fn is evaluated on the circle.  At rank 2 fn is a product
    over primitive directions p (an `Integrand`): at node (k1, k2) the
    character z^p is r^p omega^(p.k), omega = e^{2 pi i/nodes}, so each
    direction's factor is a table of `nodes` values on the circle, read
    at (p1 k1 + p2 k2) mod nodes.  Every factor has real coefficients, so
    row -k1 of the grid sums to the conjugate of row k1: the rank-2 means
    are real, the real parts of sums over the rows 0 <= k1 <= nodes/2,
    each row but 0 and nodes/2 weighted 2."""
    if nodes % 2:
        raise ValueError("the nested half grid needs an even node count")
    circle = np.exp(np.arange(nodes) * (2j * np.pi / nodes))
    if len(radii) == 1:
        vals = fn(radii[0] * circle)
        return complex(vals.mean()), complex(vals[::2].mean())
    tables = {p: fn.factor(p, radii[0] ** p[0] * radii[1] ** p[1] * circle)
              for p in fn.directions}
    ones = np.ones(nodes, dtype=complex)
    # rows 0..nodes/2 with the weights of the fold; the half grid's rows
    # are the even ones among them
    m = nodes // 2 + 1
    weights = np.full(m, 2.0)
    weights[[0, -1]] = 1
    rows_t = tables.pop((1, 0), ones)[:m] * weights
    cols_t = tables.pop((0, 1), ones)
    # a grid without a skew direction reads a constant one
    skews = [_skew_view(table, p) for p, table in tables.items()] or \
        [_skew_view(ones, (1, 1))]
    # an even number of rows per block keeps the half grid aligned
    rows = max(2, BLOCK_POINTS // nodes) & ~1
    buf = np.empty((rows, nodes), dtype=complex)
    total = half = 0j
    for start in range(0, m, rows):
        band = slice(start, min(start + rows, m))
        block = buf[:len(rows_t[band])]
        np.multiply(skews[0][band], cols_t, out=block)
        for view in skews[1:]:
            block *= view[band]
        # row sums first, then one product per row: no BLAS call, whose
        # threads can stall a small reduction
        total += (rows_t[band] * block.sum(axis=1)).sum()
        half += (rows_t[band][::2] * block[::2, ::2].sum(axis=1)).sum()
    return (float(fn.scale * total.real / nodes ** 2),
            float(fn.scale * 4 * half.real / nodes ** 2))


def _skew_view(table, p):
    """The read-only (N, N) view [k1, k2] -> table[(p1 k1 + p2 k2) mod N]
    of a direction's table, strided over the table tiled |p1| + |p2| + 1
    times: it starts on the tile where the least index p.k lands."""
    n = len(table)
    tiled = np.tile(table, abs(p[0]) + abs(p[1]) + 1)
    offset = n * (max(-p[0], 0) + max(-p[1], 0))
    step = tiled.strides[0]
    return np.lib.stride_tricks.as_strided(
        tiled[offset:], shape=(n, n), strides=(p[0] * step, p[1] * step),
        writeable=False)


def _power(powers, a):
    """w^a from the cache {1: w, ...} of powers of one array, built by
    repeated products."""
    if a not in powers:
        if a == -1:
            powers[a] = 1 / powers[1]
        else:
            step = 1 if a > 0 else -1
            powers[a] = _power(powers, a - step) * _power(powers, step)
    return powers[a]


class Integrand:
    """Compiled numeric kernel dt/(q(w0) c c-bar) for a fixed numeric q.

    A factor 1 - d z^vec depends on z only through the character w = z^p
    of the primitive direction p of vec = c p.  `directions` groups the
    factors by p, as {c: (numerator d values, denominator d values)}, and
    `factor(p, w)` is the product of one direction's factors at w."""

    def __init__(self, datum, labels, qval):
        self.rank = datum.rank
        self.qval = float(qval)
        self.divisors = kernel_divisors(datum, labels)
        self.scale = float(qval) ** (-float(labels.q_w0_exponent()))
        self.directions = {}
        for d in self.divisors:
            # d = e^{2 pi i u0} q^r0 is real, which the folded rank-2 sum
            # of torus_integral needs
            if d.u0 % F(1, 2):
                raise ValueError(f"divisor {d.vec} has a coefficient that "
                                 f"is not real (u0 = {d.u0})")
            p, c = direction(d.vec)
            num, den = self.directions.setdefault(p, {}).setdefault(
                c, ([], []))
            sign = -1.0 if d.u0 % 1 else 1.0
            (num if d.sign < 0 else den).append(
                sign * self.qval ** float(d.r0))

    def factor(self, p, w):
        """prod (1 - d w^c)^(-/+1) over the factors along direction p, at
        the array w of values of z^p."""
        num = np.ones(w.shape, dtype=complex)
        den = num.copy()
        powers = {1: w}
        for c, (nvals, dvals) in self.directions[p].items():
            wc = _power(powers, c)
            for acc, vals in ((num, nvals), (den, dvals)):
                for d in vals:
                    f = wc * -d
                    f += 1
                    acc *= f
        num /= den
        return num

    def __call__(self, *zs):
        """The kernel at the broadcast of the coordinate arrays zs."""
        zs = [np.asarray(z, dtype=complex) for z in zs]
        out = np.full(np.broadcast_shapes(*(z.shape for z in zs)),
                      self.scale, dtype=complex)
        powers = [{1: z} for z in zs]
        for p in self.directions:
            w = None
            for pw, a in zip(powers, p):
                if a:
                    za = _power(pw, a)
                    w = za if w is None else w * za
            out *= self.factor(p, w)
        return out


# -- exact contour geometry -------------------------------------------------------


def start_log_radii(datum, labels):
    """A deep-negative-chamber start contour: log_q alpha_i(t0) is pushed
    below every threshold magnitude by the generic margin 9/8 + i/7."""
    from .lattice import solve_unique
    rows = [[F(c) for c in datum.simple_roots[i]]
            for i in range(datum.n_simple)]
    rhs = []
    for i in range(datum.n_simple):
        vec = datum.simple_roots[i]
        a = labels.pole_exponent(vec)
        b = labels.minus_pole_exponent(vec)
        bound = max(abs(a), abs(b))
        rhs.append(-(bound + F(9, 8) + F(i, 7)))
    sol = solve_unique(rows, rhs)
    if sol is None:
        raise ValueError("semisimple datum required")
    return tuple(sol)


class RingLines:
    """The distinct pole rings of a kernel, iterated as their keys
    (primitive direction p, radius rho) in the order first met.  Each
    ring is kept as p and the numerator of rho over one common
    denominator `den`, so that `gaps` places points against every ring
    in integers."""

    def __init__(self, divisors):
        self.keys = list(dict.fromkeys(d.ring for d in divisors
                                       if d.sign > 0))
        self.den = lcm(*(rho.denominator for _, rho in self.keys))
        self.rows = [(p, rho.numerator * (self.den // rho.denominator))
                     for p, rho in self.keys]

    def __iter__(self):
        return iter(self.keys)

    def gaps(self, *points):
        """(L, gaps): L the lcm of `den` and the denominators of the
        points' exact log-radii, and gaps[j][i] = L (rho - <p, x_i>), an
        integer, for ring j and point x_i."""
        big = lcm(self.den, *(x.denominator for pt in points for x in pt))
        nums = [[x.numerator * (big // x.denominator) for x in pt]
                for pt in points]
        k = big // self.den
        return big, [[b * k - sum(pi * a for pi, a in zip(p, row))
                      for row in nums] for p, b in self.rows]


def segment_crossings(rings, start, end, skip=None):
    """Crossings of ring lines along the straight segment start -> end in
    log-radius space: list of (s in [0, 1], ring key), exact, the ring
    `skip` left out.  A ring at gaps g0 from start and g1 from end
    (`RingLines.gaps`) is crossed at s = g0 / (g0 - g1)."""
    out = []
    _, gaps = rings.gaps(start, end)
    for key, (g0, g1) in zip(rings, gaps):
        if key == skip:
            continue
        if g0 == g1:
            if g0 == 0:
                raise ValueError("segment lies on a pole ring; perturb "
                                 "the path")
            continue
        num, den = (g0, g0 - g1) if g0 > g1 else (-g0, g1 - g0)
        if 0 <= num <= den:
            out.append((F(num, den), key))
    return out


def _point_on_segment(start, end, s):
    return tuple(a + s * (b - a) for a, b in zip(start, end))


def ring_candidates(divisors, *keys):
    """Exact points where one divisor on each of the given pole rings
    vanishes: for each choice of divisors, A r = -r0 and A u = k - u0 for
    k in [0, |det A|)^n, A the n x n matrix of their monomials (n = 1, 2),
    solved once by its integer adjugate."""
    out = set()
    on_ring = [[d for d in divisors if d.sign > 0 and d.ring == key]
               for key in keys]
    for ds in product(*on_ring):
        if len(ds) == 1:
            det, adj = ds[0].vec[0], ((1,),)
        else:
            (a, b), (c, e) = ds[0].vec, ds[1].vec
            det, adj = a * e - b * c, ((e, -b), (-c, a))
        if det == 0:
            continue
        rsol = [sum(x * -d.r0 for x, d in zip(row, ds)) / det for row in adj]
        for ks in product(range(abs(det)), repeat=len(ds)):
            usol = [sum(x * (k - d.u0) for x, k, d in zip(row, ks, ds)) / det
                    for row in adj]
            out.add(TorusPoint(usol, rsol))
    return sorted(out, key=TorusPoint.key)


# -- the shift-and-collect engine ---------------------------------------------------


@dataclass
class MassEntry:
    label: str
    value: float


@dataclass
class LocalMassReport:
    tolerance: float
    resolution: int  # largest node count per circle run
    error_estimate: float  # largest half-grid difference
    global_mass: float
    continuous: float
    coset_masses: list
    point_masses: list
    closure_error: float = field(init=False)

    def __post_init__(self):
        self.closure_error = abs(self.global_mass - self.total())

    def total(self):
        return self.continuous + sum(e.value for e in self.coset_masses) + \
            sum(e.value for e in self.point_masses)


class ResidueEngine:
    """Radial contour-shift engine for rank 1 and 2."""

    def __init__(self, datum, labels, qval, tolerance=None):
        if datum.rank > 2:
            raise ValueError("the numeric engine is limited to rank <= 2")
        self.datum = datum
        self.labels = labels
        self.qval = F(qval)
        self.fn = Integrand(datum, labels, self.qval)
        self.divisors = self.fn.divisors
        self.rings = RingLines(self.divisors)
        self.tolerance = tolerance if tolerance is not None else \
            (1e-8 if datum.rank == 1 else 1e-6)
        if not self.tolerance > 0:
            raise ValueError("the quadrature tolerance must be positive")
        self.resolution = 0
        self.error_estimate = 0.0
        self._iq = float(self.qval)
        self._chambers = {}  # chamber -> integral

    # -- infrastructure ------------------------------------------------------

    @cached_property
    def _cosets(self):
        """The residual cosets, enumerated when a mass is first placed."""
        return residual_cosets(self.datum, self.labels)

    @cached_property
    def _point_orbit(self):
        """Canonical point -> index of its dim-0 residual coset; the base
        points of `residual_cosets` are canonical."""
        return {c.point: k for k, c in enumerate(self._cosets) if c.dim == 0}

    @cached_property
    def _ring_targets(self):
        """ring key -> (target log radii, orbit index) for every Weyl image
        of every codimension-one residual coset lying on a kernel divisor.
        Only divisors constant on the coset (direction parallel to the
        support) count."""
        targets = {}
        weyl, n = self.datum.weyl, self.datum.rank
        poles = [d for d in self.divisors if d.sign > 0]
        for k, coset in enumerate(self._cosets):
            if coset.dim != n - 1 or not coset.support_roots:
                continue
            dirs = weyl.mats @ np.array(coset.support_roots[0].vec)
            rows, den = _orbit_rows([coset.point], weyl.invts,
                                    weyl.invt_norm)
            for img_dir, row, through in zip(dirs.tolist(), rows.tolist(),
                                             divisors_through(poles, rows, den)):
                pdir = direction(img_dir)[0]
                for d in through:
                    if d.ring[0] == pdir:
                        targets.setdefault(d.ring, set()).add(
                            (tuple(F(x, den) for x in row[n:]), k))
        return targets

    def _orbit_of(self, point):
        """Index of the dim-0 residual coset whose orbit holds the point,
        or None."""
        return self._point_orbit.get(canonical_point(self.datum, point))

    def _mass(self, k, value):
        """The mass entry of residual orbit k, labelled by its dimension,
        parabolic and the values of the simple roots at its base point."""
        c = self._cosets[k]
        vals = [f"({u},{r})" for u, r in c.point.values_of(
            self.datum.simple_roots)]
        label = f"dim{c.dim} P={list(c.support)} " + " ".join(vals)
        return MassEntry(label, value)

    def _chamber(self, ell):
        """(sign vector of the ring gaps, starting node count) at log-radii
        ell.  The trapezoid error decays like e^{-N d} at natural-log
        distance d from the nearest pole ring, so the least power of two
        N >= 2 ln(1/tol)/d + 16 (at most MAX_NODES) puts the half grid's
        error near the tolerance and the full grid's near its square."""
        big, gaps = self.rings.gaps(ell)
        best = min((abs(g) / big / max(1.0, float(sum(map(abs, p))))
                    for (p, _), (g,) in zip(self.rings.rows, gaps)),
                   default=0)
        if best <= 0:
            raise ValueError("contour touches a pole ring")
        dist_nat = best * log(self._iq)
        n = 2.0 * log(1.0 / self.tolerance) / dist_nat + 16
        size = 16
        while size < n:
            size *= 2
        return tuple(g > 0 for (g,) in gaps), min(size, MAX_NODES)

    def integral(self, ell):
        """Real part of the torus integral on the contour at log-radii
        ell.  N doubles from the chamber's starting node count until the
        half-grid difference is within the tolerance.  Each chamber is
        integrated once."""
        chamber, n = self._chamber(ell)
        if chamber in self._chambers:
            return self._chambers[chamber]
        radii = [self._iq ** float(x) for x in ell]
        while True:
            val, half = torus_integral(self.fn, radii, n)
            est = abs(val - half)
            if est <= self.tolerance:
                break
            if n >= MAX_NODES:
                raise ValueError(
                    f"torus integral on the contour log_q|t| = "
                    f"{tuple(str(x) for x in ell)} has half-grid error "
                    f"{est:.3g} at {n} nodes, above the tolerance "
                    f"{self.tolerance:g}")
            n *= 2
        self.resolution = max(self.resolution, n)
        self.error_estimate = max(self.error_estimate, est)
        self._chambers[chamber] = val.real
        return val.real

    def _bracket(self, pos, axis, sign, step):
        """The integral on the contour moved by step past pos along the
        axis (the way sign points) minus the one moved back by step: the
        jump of the shifted integral across whatever lies at pos."""
        before = list(pos)
        after = list(pos)
        before[axis] -= sign * step
        after[axis] += sign * step
        return self.integral(tuple(after)) - self.integral(tuple(before))

    def _small_circle(self, point, axis):
        """Means of w fn(z) / z_axis over the circle z_axis = z0 + w,
        |w| = SMALL_CIRCLE_RADIUS |z0|, with every other coordinate at the
        point's: the local residue in that coordinate, up to sign.  Returns
        the means on all SMALL_CIRCLE_NODES nodes and on the even ones, a
        rotated rule on half as many."""
        z0 = [complex(np.exp(2j * np.pi * float(u)) * self._iq ** float(r))
              for u, r in zip(point.u, point.r)]
        nodes = SMALL_CIRCLE_NODES
        theta = (np.arange(nodes) + 0.5) * (2 * np.pi / nodes)
        w = abs(z0[axis]) * SMALL_CIRCLE_RADIUS * np.exp(1j * theta)
        zs = [np.full_like(w, z) for z in z0]
        zs[axis] = z0[axis] + w
        vals = w * self.fn(*zs) / zs[axis]
        return complex(vals.mean()), complex(vals[::2].mean())

    def _report(self, global_val, continuous, coset_masses, point_masses):
        return LocalMassReport(
            tolerance=self.tolerance,
            resolution=self.resolution, error_estimate=self.error_estimate,
            global_mass=global_val, continuous=continuous,
            coset_masses=_merge_entries(coset_masses),
            point_masses=_merge_entries(point_masses))

    # -- rank 1 ---------------------------------------------------------------

    def point_residue_rank1(self, point: TorusPoint):
        """Minus the residue of the kernel form at an isolated point,
        via a small circle (the mass the shift picks up there)."""
        full, half = self._small_circle(point, 0)
        self.error_estimate = max(self.error_estimate, abs(full - half))
        return -full.real

    def collect_rank1(self) -> LocalMassReport:
        ell0 = start_log_radii(self.datum, self.labels)
        crossings = sorted(segment_crossings(self.rings, ell0, (F(0),)))
        if any(s in (0, 1) for s, _ in crossings):
            raise ValueError("pole ring at a contour endpoint")
        global_val = self.integral(ell0)
        positions = sorted({_point_on_segment(ell0, (F(0),), s)[0]
                            for s, _ in crossings} | {ell0[0], F(0)})
        min_gap = min(b - a for a, b in zip(positions, positions[1:]))
        step = min(F(1, 8), min_gap / 3)
        point_masses = []
        for s, key in crossings:
            pos = _point_on_segment(ell0, (F(0),), s)
            # the shift moves upward from deep negative toward 0
            jump = self._bracket(pos, 0, 1, step)
            cands = ring_candidates(self.divisors, key)
            genuine = [c for c, order in zip(
                cands, net_pole_orders(self.divisors, cands)) if order > 0]
            orbits = [self._orbit_of(c) for c in genuine]
            if len(orbits) == 1 and orbits[0] is not None:
                point_masses.append(self._mass(orbits[0], -jump))
                continue
            # several candidates on one ring: separate by small circles
            for c, k in zip(genuine, orbits):
                val = self.point_residue_rank1(c)
                if k is not None:
                    point_masses.append(self._mass(k, val))
        continuous = self.integral((F(0),))
        return self._report(global_val, continuous, [], point_masses)

    # -- rank 2 ---------------------------------------------------------------

    def _main_path(self, ell0):
        """Axis-aligned waypoints from ell0 to the origin with all ring
        crossings separated, found by perturbing the middle level."""
        for num, den in ((1, 4), (1, 5), (2, 9), (3, 13), (1, 7), (5, 23),
                         (4, 19), (3, 11)):
            w = ell0[1] * F(num, den)
            path = [ell0, (ell0[0], w), (F(0), w), (F(0), F(0))]
            ok = True
            for a, b in zip(path, path[1:]):
                try:
                    crossings = segment_crossings(self.rings, a, b)
                except ValueError:
                    ok = False
                    break
                svals = [s for s, _ in crossings]
                if any(s in (0, 1) for s in svals) or \
                        len(svals) != len(set(svals)):
                    ok = False
                    break
            if ok:
                return path
        raise ValueError("could not find a clean axis path; centers are "
                         "not radially separated")

    def _slab_step(self, key, axis, pos):
        """The bracket half-width at pos along the axis: 1/8, or a third
        of the distance along the axis to the nearest pole ring other than
        `key`, whichever is less."""
        big, gaps = self.rings.gaps(pos)
        num, den = 1, 8
        for other, (p, _), (g,) in zip(self.rings, self.rings.rows, gaps):
            if other == key or p[axis] == 0:
                continue
            if g == 0:
                raise ValueError("bracket centered on a foreign ring")
            # a third of the distance |g| / (big |p_axis|)
            dist_num, dist_den = abs(g), 3 * big * abs(p[axis])
            if dist_num * den < num * dist_den:
                num, den = dist_num, dist_den
        return F(num, den)

    def _slab_value(self, slab, pos):
        """The bracket of the slab's ring at pos, along the slab's axis,
        with the largest half-width that keeps it clear of every other
        pole ring.  A slab is (ring key, the point where the main path
        crosses the ring, the axis of that path segment, its sign)."""
        key, _, axis, sign = slab
        return self._bracket(pos, axis, sign, self._slab_step(key, axis, pos))

    def collect_rank2(self) -> LocalMassReport:
        ell0 = start_log_radii(self.datum, self.labels)
        path = self._main_path(ell0)
        global_val = self.integral(ell0)
        slabs = []
        for a, b in zip(path, path[1:]):
            axis = next(i for i in range(2) if a[i] != b[i])
            sign = 1 if b[axis] > a[axis] else -1
            for s, key in sorted(segment_crossings(self.rings, a, b)):
                pos = _point_on_segment(a, b, s)
                slab = (key, pos, axis, sign)
                slabs.append((slab, self._slab_value(slab, pos)))
        continuous = self.integral(path[-1])

        coset_masses = []
        point_masses = []
        for slab, c_disc in slabs:
            c_temp, jumps = self._walk_slab(slab, c_disc)
            key = slab[0]
            orbit_ids = {k for _, k in self._ring_targets.get(key, ())}
            if orbit_ids:
                coset_masses.append(self._mass(next(iter(orbit_ids)),
                                               -c_temp))
            else:
                coset_masses.append(MassEntry(f"ring {key}", -c_temp))
            point_masses.extend(jumps)
        return self._report(global_val, continuous, coset_masses,
                            point_masses)

    def _walk_slab(self, slab, c_disc):
        """Move the slab contour along its ring line to the tempered
        position, measuring point jumps at genuine crossings."""
        key, start = slab[:2]
        targets = self._ring_targets.get(key)
        if not targets:
            # not a residual ring: its tempered value should vanish where
            # it stands; keep it at the discovery position
            return c_disc, []
        target_radii = {tuple(t) for t, _ in targets}
        if len(target_radii) > 1:
            raise ValueError("ring carries cosets with distinct tempered "
                             "radii; not radially separated")
        target = next(iter(target_radii))
        if start == target:
            return c_disc, []
        # crossings of other rings along the straight walk
        crossings = segment_crossings(self.rings, start, target, skip=key)
        grouped = {}
        for s, other in sorted(crossings):
            if s > 0:
                grouped.setdefault(s, []).append(other)
        events = sorted(grouped.items())
        bounds = sorted(set(grouped) | {F(0), F(1)})

        def c_at(s):
            return self._slab_value(slab, _point_on_segment(start, target, s))

        jumps = []
        for s, others in events:
            pos = _point_on_segment(start, target, s)
            on_here = set()
            for other in others:
                for c in ring_candidates(self.divisors, key, other):
                    if c.r == pos:
                        on_here.add(c)
            on_here = sorted(on_here, key=TorusPoint.key)
            genuine = [c for c, order in zip(on_here, net_pole_orders(
                self.divisors, on_here, exclude_ring=key)) if order > 0]
            if not genuine:
                continue
            if s == 1:
                raise ValueError("genuine pole crossing at the tempered "
                                 "position")
            idx = bounds.index(s)
            gap_lo = s - bounds[idx - 1]
            gap_hi = bounds[idx + 1] - s
            eps = min(gap_lo, gap_hi) / 3
            jump = c_at(s + eps) - c_at(s - eps)
            res_orbits = {self._orbit_of(c) for c in genuine} - {None}
            if len(res_orbits) > 1:
                raise ValueError("several residual orbits at one crossing")
            if res_orbits:
                jumps.append(self._mass(next(iter(res_orbits)), jump))
        # the tempered value: C is constant past the last interior
        # crossing, and a foreign ring may touch the exact tempered
        # position, so measure just inside the final stretch
        s_last = max((s for s, _ in events if s < 1), default=F(0))
        for frac in (F(2, 3), F(5, 8), F(7, 11), F(13, 19)):
            s_meas = s_last + (1 - s_last) * frac
            try:
                c_temp = c_at(s_meas)
                break
            except ValueError:
                continue
        else:
            raise ValueError("no clean tempered measurement position")
        return c_temp, jumps

    def collect(self) -> LocalMassReport:
        if self.datum.rank == 1:
            return self.collect_rank1()
        return self.collect_rank2()


def _merge_entries(entries):
    merged = {}
    for e in entries:
        if e.label in merged:
            merged[e.label].value += e.value
        else:
            merged[e.label] = MassEntry(e.label, e.value)
    return sorted(merged.values(), key=lambda e: e.label)


# -- public operations ---------------------------------------------------------


def shift_and_collect(datum: RootDatum, labels: LabelFunction, qval,
                      tolerance=None) -> LocalMassReport:
    """Decompose the global contour integral into the unit-torus part,
    codimension-one tempered contributions, and point masses."""
    return ResidueEngine(datum, labels, qval, tolerance=tolerance).collect()


def vanishing_cycle_check(datum, labels, qval, point: TorusPoint,
                          direction=None) -> float:
    """Numeric inner integral transverse to a coset through the given
    exact sample point: a small circle in one coordinate at the sample's
    exact position, picking up the local residue.  It vanishes (to
    quadrature accuracy) when the kernel has no pole along the coset, and
    is the local mass density otherwise."""
    eng = ResidueEngine(datum, labels, qval)
    if datum.rank == 1:
        return abs(eng.point_residue_rank1(point))
    if direction is None:
        direction = (0, 1)
    axis = next(i for i in range(datum.rank) if direction[i] != 0)
    return abs(eng._small_circle(point, axis)[0])
