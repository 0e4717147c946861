"""Enumeration and classification of residual points and residual cosets.

Torus points are exact: coordinate i holds (u_i in Q/Z, r_i in Q) with the
meaning x(t) = e^{2 pi i <x,u>} q^{<x,r>}, stored as one denominator D and
integer numerators (u mod D, r) in lowest terms.  Character values go
through one integer pairing, `TorusPoint.pairing`; Weyl images are integer
rows over D, on int64 stacks when a bound allows and on Python integers
otherwise.  A point is residual when its pole-minus-zero count against the
label thresholds equals the rank; cosets are lifted from residual points of
parabolic quotient data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import mul, sub

from .lattice import (
    INT64_SAFE,
    gauss_jordan,
    integer_kernel,
    solve_unique,
    subset_adjugates,
    transpose,
)
from .rootdata import (
    LabelFunction,
    RootDatum,
    _distinct_rows,
    _image_masks,
    parabolic_classes,
    parabolic_subsystem_roots,
    reflection_closure,
    restrict_labels,
)


class TheoremViolation(AssertionError):
    """A structural invariant asserted by the classification failed; the
    witness is attached so the finding is inspectable."""

    def __init__(self, name, witness):
        super().__init__(f"{name}: {witness}")
        self.name = name
        self.witness = witness


def _numerators(values):
    """(D, numerators) of a sequence of ints and Fractions over their
    least common denominator D."""
    den = lcm(1, *(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


class TorusPoint:
    """An exact torus point: `den` > 0 and the integer numerator tuples
    `un` (entries in [0, den)) and `rn`, in lowest terms.  `u` and `r`
    are the same coordinates as Fraction tuples, built on first use."""

    def __init__(self, u, r):
        """The point with rational coordinates u (taken mod 1) and r."""
        self.den, nums = _numerators([Fraction(x) for x in (*u, *r)])
        self.un = tuple(x % self.den for x in nums[:len(u)])
        self.rn = tuple(nums[len(u):])

    @classmethod
    def from_numerators(cls, den, un, rn) -> "TorusPoint":
        """The point (un mod den, rn) / den for integers den > 0, un, rn,
        brought to lowest terms."""
        g = gcd(den, *un, *rn)
        if g > 1:
            den //= g
            un = [x // g for x in un]
            rn = [x // g for x in rn]
        pt = cls.__new__(cls)
        pt.den = den
        pt.un = tuple(x % den for x in un)
        pt.rn = tuple(rn)
        return pt

    @classmethod
    def identity(cls, rank: int) -> "TorusPoint":
        return cls.from_numerators(1, (0,) * rank, (0,) * rank)

    @cached_property
    def u(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.un)

    @cached_property
    def r(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.rn)

    def __eq__(self, other):
        return isinstance(other, TorusPoint) and self.den == other.den \
            and self.un == other.un and self.rn == other.rn

    def __hash__(self):
        return hash((self.den, self.un, self.rn))

    def __repr__(self):
        return f"TorusPoint(u={self.u!r}, r={self.r!r})"

    def pairing(self, vec):
        """(<vec,u> mod 1, <vec,r>) as integer numerators over `den`: the
        character vec takes the value e^{2 pi i un/den} q^{rn/den}."""
        return (sum(map(mul, vec, self.un)) % self.den,
                sum(map(mul, vec, self.rn)))

    def takes(self, vec, u0, r0) -> bool:
        """Whether the character vec takes the value e^{2 pi i u0} q^{r0}
        at the point (u0, r0 rational)."""
        un, rn = self.pairing(vec)
        return rn * r0.denominator == r0.numerator * self.den and \
            (un * u0.denominator - u0.numerator * self.den) % \
            (self.den * u0.denominator) == 0

    def agrees_on(self, other: "TorusPoint", vecs) -> bool:
        """Whether every character in vecs takes the same value at both
        points."""
        d1, d2 = self.den, other.den
        for vec in vecs:
            u1, r1 = self.pairing(vec)
            u2, r2 = other.pairing(vec)
            if r1 * d2 != r2 * d1 or (u1 * d2 - u2 * d1) % (d1 * d2):
                return False
        return True

    def value_of(self, vec):
        """(u, r) of the character value x(t) = e^{2 pi i u} q^r, as
        Fractions."""
        un, rn = self.pairing(vec)
        return Fraction(un, self.den), Fraction(rn, self.den)

    def inverse(self) -> "TorusPoint":
        return TorusPoint.from_numerators(
            self.den, [-x for x in self.un], [-x for x in self.rn])

    def star(self) -> "TorusPoint":
        """The conjugate-inverse t* (split exponents negated)."""
        return TorusPoint.from_numerators(self.den, self.un,
                                          [-x for x in self.rn])

    def split_part(self) -> "TorusPoint":
        return TorusPoint.from_numerators(self.den, (0,) * len(self.un),
                                          self.rn)

    def transform(self, inv_t):
        """Image under the Weyl element whose inverse-transpose matrix on X
        is inv_t (rows act on the functional coordinates); a non-square
        inv_t maps to a torus of another rank."""
        return TorusPoint.from_numerators(
            self.den, [sum(map(mul, row, self.un)) for row in inv_t],
            [sum(map(mul, row, self.rn)) for row in inv_t])

    def scale_split(self, eps) -> "TorusPoint":
        eps = Fraction(eps)
        return TorusPoint.from_numerators(
            self.den * eps.denominator,
            [x * eps.denominator for x in self.un],
            [x * eps.numerator for x in self.rn])

    def key(self):
        return (self.u, self.r)


# -- Weyl action helpers ------------------------------------------------------


def inverse_transpose_matrices(datum: RootDatum):
    """(A^{-1})^T for every Weyl matrix A, as integer tuples; the point
    image of w with matrix A has functional vectors (A^{-1})^T u."""
    return [tuple(map(tuple, m)) for m in datum.weyl.invts.tolist()]


def _graded_action(datum, roots):
    """(inverse transposes, largest row 1-norm) of the subgroup generated
    by the reflections in the given roots, as `WeylGroup` has them; the
    datum's `graded_actions` keeps each one by its tuple of roots."""
    import numpy as np
    key = tuple(roots)
    memo = datum.graded_actions
    if key not in memo:
        n = datum.rank
        vecs, cors = (np.array(v, dtype=np.int64).reshape(-1, n) for v in (
            [r.vec for r in key], [r.coroot for r in key]))
        gens = np.eye(n, dtype=np.int64) - vecs[:, :, None] * cors[:, None, :]
        _, invts, _ = reflection_closure(gens, n)
        memo[key] = invts, int(np.abs(invts).sum(axis=2).max(initial=0))
    return memo[key]


def _orbit_rows(point, invts, norm):
    """The images of the point under a stack of inverse transposes whose
    largest row 1-norm is `norm`, as integer rows over point.den: the u
    numerators reduced mod den, then the r numerators.  The common
    denominator preserves lexicographic order.  An entry of an image is
    at most norm * max(den, |r numerators|), so the product runs on int64
    below 2^62 and on Python integers (dtype=object) above it."""
    import numpy as np
    if norm * max(point.den, *map(abs, point.rn)) >= INT64_SAFE:
        invts = invts.astype(object)
    vecs = np.array([point.un, point.rn], dtype=invts.dtype).T
    imgs = invts @ vecs
    return np.concatenate([imgs[:, :, 0] % point.den, imgs[:, :, 1]], axis=1)


def _row_to_point(row, den) -> TorusPoint:
    n = len(row) // 2
    return TorusPoint.from_numerators(den, row[:n], row[n:])


def orbit_of_point(datum: RootDatum, point: TorusPoint):
    rows = _orbit_rows(point, datum.weyl.invts, datum.weyl.invt_norm)
    return {_row_to_point(row, point.den)
            for row in rows[_distinct_rows(rows)].tolist()}


def canonical_point(datum: RootDatum, point: TorusPoint) -> TorusPoint:
    """Deterministic orbit representative: lexicographically minimal
    (u vector, then r vector)."""
    import numpy as np
    rows = _orbit_rows(point, datum.weyl.invts, datum.weyl.invt_norm)
    idx = np.lexsort(rows.T[::-1])
    return _row_to_point(rows[idx[0]].tolist(), point.den)


# orbit rows per block of `_canonical_points`; a D5 orbit (1920 rows) is
# a block of its own, as in `canonical_point`
ORBIT_BLOCK = 1 << 11


def _canonical_points(datum, points):
    """`canonical_point` of each point, in blocks of up to ORBIT_BLOCK orbit
    rows: one product per block over the common denominator D of its
    points, which keeps the order of each orbit, and one lexsort keyed by
    owner for the least members."""
    import numpy as np
    n, invts, norm = datum.rank, datum.weyl.invts, datum.weyl.invt_norm
    step = max(1, ORBIT_BLOCK // len(invts))
    out = []
    for at in range(0, len(points), step):
        block = points[at:at + step]
        den = lcm(*(p.den for p in block))
        nums = [[x * (den // p.den) for x in (*p.un, *p.rn)] for p in block]
        big = norm * max(den, *(abs(x) for row in nums for x in row[n:])) \
            >= INT64_SAFE
        vecs = np.array(nums, dtype=object if big else np.int64)
        # (point, Weyl element, coordinate, u or r): invts[w] @ vecs[p]
        imgs = invts.astype(vecs.dtype, copy=False)[None] @ \
            vecs.reshape(-1, 1, 2, n).transpose(0, 1, 3, 2)
        rows = np.concatenate([imgs[..., 0] % den, imgs[..., 1]],
                              axis=2).reshape(-1, 2 * n)
        owner = np.repeat(np.arange(len(block)), len(invts))
        least = np.lexsort((*rows.T[::-1], owner))[::len(invts)]
        out.extend(_row_to_point(row, den) for row in rows[least].tolist())
    return out


def dominant_split_representative(datum: RootDatum, point: TorusPoint):
    """Orbit member whose split exponent vector is dominant (all simple
    roots pair >= 0); ties broken by the lexicographically minimal u."""
    import numpy as np
    rows = _orbit_rows(point, datum.weyl.invts, datum.weyl.invt_norm)
    n = datum.rank
    simple = np.array([list(v) for v in datum.simple_roots], dtype=np.int64)
    pair = rows[:, n:] @ simple.T
    ok = np.all(pair >= 0, axis=1)
    good = rows[ok]
    idx = np.lexsort(good.T[::-1])
    return _row_to_point(good[idx[0]].tolist(), point.den)


# -- pole/zero thresholds and the index ---------------------------------------


def threshold_hits(datum: RootDatum, labels: LabelFunction, point: TorusPoint,
                   roots=None):
    """(pole_roots, zero_roots) among the given roots (default all of R0):
    a root alpha is a pole hit when alpha(t) equals q^a or -q^b for its
    label exponents, and a zero hit when alpha(t) = +-1.  In numerators
    over D = point.den: u is 0 or D/2, and r is 0 or a D, b D."""
    den = point.den
    poles, zeros = [], []
    for root in (roots if roots is not None else datum.roots):
        un, rn = point.pairing(root.vec)
        if un and 2 * un != den:
            continue
        a, b = labels.thresholds[root.vec]
        c = a if un == 0 else b
        if rn * c.denominator == c.numerator * den:
            poles.append(root)
        if rn == 0:
            zeros.append(root)
    return poles, zeros


def point_index(datum, labels, point, roots=None) -> int:
    poles, zeros = threshold_hits(datum, labels, point, roots)
    return len(poles) - len(zeros)


def coset_index(datum, labels, support_indices, point) -> int:
    """Index i_L of the coset through `point` with parabolic support given
    by simple-root indices (the roots constant on the coset)."""
    roots = parabolic_subsystem_roots(datum, support_indices)
    return point_index(datum, labels, point, roots)


# -- unitary parts ------------------------------------------------------------


@dataclass
class UnitaryCandidate:
    point: TorusPoint                # split part trivial
    r_s1: list                       # roots of R1 with alpha(s) = 1
    r_s0: list                       # roots of R0 supporting the graded system
    # the datum's `graded_inverses`, which all its candidates share
    inverses: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def subset_inverses(self) -> "SubsetInverses":
        """The inverses of the graded search's n-subsets of the positive
        roots of `r_s0`.  They depend on those roots only, so candidates
        with equal graded roots get one object."""
        positives = tuple(r for r in self.r_s0 if r.height > 0)
        if positives not in self.inverses:
            self.inverses[positives] = _subset_inverses(positives,
                                                        len(self.point.un))
        return self.inverses[positives]


@dataclass
class CandidateSet:
    points: list
    rank_deficient: bool = False


def _r1_simple_coords(datum: RootDatum):
    """(simples, coords): the simple roots of R1 (its indecomposable
    positives) and the simple-root coordinates of every positive root of
    R1.  In order of height, a positive root r is simple unless r - s is
    a positive root for a simple root s found before it; then r has the
    coordinates of r - s plus one at s."""
    simples, parts, by_vec = [], {}, {}
    for r in datum.r1_positive:
        for i, s in enumerate(simples):
            rest = by_vec.get(tuple(map(sub, r.vec, s.vec)))
            if rest is not None:
                parts[r] = parts[rest] + [i]
                break
        else:
            parts[r] = [len(simples)]
            simples.append(r)
        by_vec[r.vec] = r
    return simples, {r: [p.count(i) for i in range(len(simples))]
                     for r, p in parts.items()}


def _r1_components(datum, simples):
    def pair(a, b):
        return sum(x * y for x, y in zip(a.vec, b.coroot))
    comps, left = [], list(range(len(simples)))
    while left:
        comp, stack = set(), [left[0]]
        while stack:
            i = stack.pop()
            if i in comp:
                continue
            comp.add(i)
            stack.extend(j for j in left if j not in comp
                         and pair(simples[i], simples[j]) != 0)
        comps.append(sorted(comp))
        left = [i for i in left if i not in comp]
    return comps


def unitary_candidates(datum: RootDatum) -> CandidateSet:
    """W0-orbit representatives of unitary points s whose rank of
    {alpha in R1 : alpha(s) = 1} is full: the vertices of the fundamental
    alcove of the R1 affine arrangement, one per orbit.  They depend on
    the datum only; `RootDatum.unitary_candidates` holds them."""
    import numpy as np
    n = datum.rank
    # the simple roots are independent, so the roots span X over Q exactly
    # when there are rank of them
    if not datum.roots or datum.n_simple < n:
        return CandidateSet([], rank_deficient=True)
    simples, coords = _r1_simple_coords(datum)
    comps = _r1_components(datum, simples)
    per_component_vertices = []
    for comp in comps:
        # highest root of the component, in simple coordinates of R1
        best, marks = None, None
        for r, cs in coords.items():
            if any(cs[i] for i in comp) and all(
                    cs[i] == 0 for i in range(len(simples)) if i not in comp):
                if best is None or sum(cs) > sum(marks):
                    best, marks = r, cs
        per_component_vertices.append(
            [tuple(Fraction(0) for _ in range(n))] + _fundamental_covertices(
                datum, [simples[i] for i in comp], [marks[i] for i in comp]))
    # products over components
    candidates = set()
    from itertools import product
    for choice in product(*per_component_vertices):
        u = tuple(sum(v[i] for v in choice) % 1 for i in range(n))
        candidates.add(u)
    reps = {}
    for rep in _canonical_points(datum, [TorusPoint(u, (0,) * n)
                                         for u in sorted(candidates)]):
        if rep not in reps:
            reps[rep] = [r for r in datum.r1 if rep.pairing(r.vec)[0] == 0]
    # the ranks of every R1(s), padded with zero rows, from one stack
    stack = np.zeros((len(reps), max(map(len, reps.values())), n),
                     dtype=np.int64)
    for i, r_s1 in enumerate(reps.values()):
        stack[i, :len(r_s1)] = [r.vec for r in r_s1]
    full = gauss_jordan(stack, n)[2].all(axis=1).tolist()
    out = [UnitaryCandidate(rep, r_s1, [r for r in datum.roots
                                        if _in_graded_system(datum, r, rep)],
                            datum.graded_inverses)
           for (rep, r_s1), ok in zip(reps.items(), full) if ok]
    out.sort(key=lambda c: c.point.key())
    return CandidateSet(out)


def _fundamental_covertices(datum, comp_simples, marks):
    """omega_i^vee / m_i for each simple root i of the component: the
    vector v in the coroot span with <alpha_j, v> = delta_ij / m_i on the
    component simples.  One solve of the Cartan matrix C of the component
    against the identity gives C^{-1} = num / pivot, and v_i is the sum
    of num[j][i] coroot_j over pivot * m_i."""
    import numpy as np
    k = len(comp_simples)
    cartan = [[sum(map(mul, s.vec, t.coroot)) for t in comp_simples]
              for s in comp_simples]
    aug = np.array([row + [int(i == j) for j in range(k)]
                    for i, row in enumerate(cartan)], dtype=np.int64)
    red, pivot, _ = gauss_jordan(aug[None], k)
    num, pivot = red[0, :, k:].tolist(), int(pivot[0])
    return [tuple(Fraction(sum(num[j][i] * comp_simples[j].coroot[t]
                               for j in range(k)), pivot * marks[i])
                  for t in range(datum.rank)) for i in range(k)]


# -- graded residual points ----------------------------------------------------


def graded_labels(datum, labels, cand: UnitaryCandidate) -> dict:
    """Exponent k_alpha (of q) for each root of the graded system: the
    positive-pole exponent when alpha(s) = 1 and the negative-pole exponent
    when alpha(s) = -1."""
    pt = cand.point
    return {r.vec: labels.thresholds[r.vec][0 if pt.pairing(r.vec)[0] == 0
                                            else 1] for r in cand.r_s0}


def graded_residual_points(datum, subsystem, klabels, rank=None,
                           inverses=None):
    """Brute-force search: solve alpha(gamma) = k_alpha on all maximal
    independent subsets of positive subsystem roots, keep gamma whose
    pole-minus-zero count reaches the rank, and assert it never exceeds it.
    `inverses` are the subsets' `SubsetInverses` if already computed.

    Returns exact split-exponent vectors (tuples of Fractions), deduped.
    """
    import numpy as np
    n = rank if rank is not None else datum.rank
    gammas = _candidate_gammas([r for r in subsystem if r.height > 0],
                               klabels, n, inverses)
    if not len(gammas):
        return []
    # alpha(gamma) = k_alpha as integers, for every root and candidate at
    # once: vals / dg = knum / kden
    vecs = np.array([r.vec for r in subsystem], dtype=np.int64)
    kden, knum = _numerators([klabels[_abs_vec(r)] for r in subsystem])
    nums, dg = gammas[:, :n], gammas[:, n]
    peak = int(np.abs(vecs).sum(axis=1).max()) * \
        max(1, int(np.abs(nums).max()))
    if max(peak * kden, max(map(abs, knum)) * int(dg.max())) >= INT64_SAFE:
        vecs, nums, dg = (x.astype(object) for x in (vecs, nums, dg))
    knum = np.array(knum, dtype=vecs.dtype)
    vals = vecs @ nums.T
    index = (vals * kden == knum[:, None] * dg[None]).sum(axis=0) - \
        (vals == 0).sum(axis=0)
    over = index > n
    if over.any():
        gamma, i = min((_gamma(row, n), int(i)) for row, i in zip(
            gammas[over].tolist(), index[over].tolist()))
        raise TheoremViolation("index exceeds codimension",
                               {"gamma": gamma, "index": i, "rank": n})
    return sorted(_gamma(row, n) for row in gammas[index == n].tolist())


def _gamma(row, n):
    """The split exponents of an integer candidate row (num..., den)."""
    return tuple(Fraction(x, row[n]) for x in row[:n])


def _abs_vec(root):
    return root.vec if root.height > 0 else tuple(-v for v in root.vec)


# n-subsets per batch of the graded search, both in the minor gathers of
# `subset_adjugates` and in each label set's product: a block of 512 keeps
# every (count, n, n) int64 temporary near 100 kB at rank 5
GRADED_BLOCK = 1 << 9


@dataclass
class SubsetInverses:
    """The invertible n-subsets of a list of roots, each as the matrix A
    with the subset's roots as rows: A^{-1} = adj / det."""
    subsets: object         # (count, n) root indices, ascending in a row
    adj: object             # (count, n, n) adj(A) times the sign of det(A)
    det: object             # (count,) |det(A)|
    norm: int               # largest row 1-norm of adj
    det_max: int            # largest |det(A)|
    vec_sq: int             # largest squared norm of a root


def _int_width(bound):
    """The narrowest integer dtype that holds every integer of absolute
    value at most `bound`."""
    import numpy as np
    for bits in (8, 16, 32, 64):
        if bound < 1 << (bits - 1):
            return np.dtype(f"int{bits}")
    return np.dtype(object)


def _subset_inverses(positives, n) -> SubsetInverses:
    """Every invertible n-subset of the positive roots, in `combinations`
    order, with the adjugate and determinant of the matrix A of its roots
    from `subset_adjugates`: one table of (n - 1)-minors, gathered in
    blocks of GRADED_BLOCK subsets.  The labels enter only the right-hand
    side, so these depend on the roots alone.  Each array is stored at the
    narrowest width its bound allows: the number of roots, the row 1-norm
    of adj and det(A)."""
    import numpy as np
    vecs = np.array([p.vec for p in positives],
                    dtype=np.int64).reshape(len(positives), n)
    # an empty int8 part, which widens no dtype, for data without subsets
    parts = [(np.zeros((0, n), np.int8), np.zeros((0, n, n), np.int8),
              np.zeros(0, np.int8))]
    norm = det_max = 0
    for block, adj, det in subset_adjugates(vecs, GRADED_BLOCK):
        full = det != 0
        sign = np.where(det[full] < 0, -1, 1)
        adj = adj[full] * sign[:, None, None]
        det = det[full] * sign
        norm = max(norm, int(np.abs(adj).sum(axis=2).max(initial=0)))
        det_max = max(det_max, int(det.max(initial=0)))
        # each block at its own width; concatenating takes the widest
        parts.append((block[full].astype(_int_width(len(positives))),
                      adj.astype(_int_width(norm)),
                      det.astype(_int_width(det_max))))
    subsets, adj, det = (np.concatenate(a) for a in zip(*parts))
    return SubsetInverses(subsets, adj, det, norm, det_max, max(
        (sum(x * x for x in p.vec) for p in positives), default=0))


def _candidate_gammas(positives, klabels, n, inverses=None):
    """The solutions of n independent equations alpha(gamma) = k_alpha,
    over every n-subset of the positive roots, exactly: an array of the
    distinct integer rows (gamma * den..., den) in lowest terms with
    den > 0, in no particular order.

    With D the common denominator of the labels and k the integer vector
    D k_alpha, a subset solves to gamma = adj (k on the subset) / (det D):
    one integer product per label set.  It runs on int64 while its own
    bound and twice (max |alpha|^2 + max k^2)^n, which bounds the square
    of every minor of [A | k], are below 2^62, and on Python integers
    (dtype=object) otherwise.  The subsets' inverses are `inverses` when
    given, and computed here otherwise."""
    import numpy as np
    inv = inverses if inverses is not None else \
        _subset_inverses(positives, n)
    den, kint = _numerators([klabels[p.vec] for p in positives])
    if not len(inv.det):
        return np.zeros((0, n + 1), dtype=np.int64)
    top = max(map(abs, kint))
    small = max(2 * (inv.vec_sq + top * top) ** n, inv.norm * top,
                inv.det_max * den) < INT64_SAFE
    dtype = np.int64 if small else object
    kint = np.array(kint, dtype=dtype)
    found = []
    for at in range(0, len(inv.det), GRADED_BLOCK):
        block = slice(at, at + GRADED_BLOCK)
        frac = np.empty((len(inv.det[block]), n + 1), dtype=dtype)
        frac[:, :n] = (inv.adj[block] @
                       kint[inv.subsets[block]][:, :, None])[:, :, 0]
        frac[:, n] = inv.det[block].astype(dtype) * den
        frac //= np.gcd.reduce(frac, axis=1)[:, None]
        found.append(frac[_distinct_rows(frac)])
    if len(found) == 1:
        return found[0]
    found = np.concatenate(found)
    return found[_distinct_rows(found)]


def residual_points(datum: RootDatum, labels: LabelFunction):
    """All residual points up to W0, as canonical orbit representatives."""
    cands = datum.unitary_candidates
    if cands.rank_deficient:
        return []
    found = []
    for cand in cands.points:
        kl = graded_labels(datum, labels, cand)
        for gamma in graded_residual_points(datum, cand.r_s0, kl,
                                            inverses=cand.subset_inverses):
            pt = TorusPoint(cand.point.u, gamma)
            if point_index(datum, labels, pt) != datum.rank:
                raise TheoremViolation(
                    "graded/affine index mismatch",
                    {"point": pt, "index": point_index(datum, labels, pt)})
            found.append(pt)
    return sorted(set(_canonical_points(datum, found)), key=TorusPoint.key)


# -- residual cosets -----------------------------------------------------------


@dataclass
class ResidualCoset:
    support: tuple                # simple-root indices of the standard rep
    support_roots: list           # parent roots constant on the coset
    point: TorusPoint             # base point r_L (canonical K_L choice)
    index: int                    # i_L
    center: tuple                 # split exponents of r_L
    k_l: int                      # |K_L| = |T_L cap T^L|
    pole_roots: list = field(default_factory=list)
    zero_roots: list = field(default_factory=list)
    # the orbit's cosets as `_coset_orbit` gave them: [(combo, row, den)]
    forms: list = field(default_factory=list, compare=False, repr=False)

    @property
    def orbit_size(self):
        return len(self.forms)

    @property
    def dim(self):
        return len(self.point.u) - len(self.support)

    def to_json(self) -> dict:
        return {
            "parabolic": list(self.support),
            "point": {"u": [str(x) for x in self.point.u],
                      "r": [str(x) for x in self.point.r]},
            "index": self.index,
            "center": [str(x) for x in self.center],
            "kL": self.k_l,
            "Rp": [list(r.vec) for r in self.pole_roots],
            "Rz": [list(r.vec) for r in self.zero_roots],
        }


def residual_cosets(datum: RootDatum, labels: LabelFunction):
    """All residual cosets up to W0: lift residual points of each standard
    parabolic quotient datum and dedupe orbits canonically."""
    classes = parabolic_classes(datum)
    raw = []
    for pc in classes:
        if not pc.indices:
            raw.append((pc, TorusPoint.identity(datum.rank)))
            continue
        sub_labels = restrict_labels(labels, pc)
        # pull T_P points back to T along X -> X_P
        embed = transpose(pc.y_basis)
        raw.extend((pc, sub_pt.transform(embed))
                   for sub_pt in residual_points(pc.sub_datum, sub_labels))

    orbits = {}
    for pc, point in raw:
        forms = _coset_orbit(datum, pc.indices, point)
        sig_support, row, den = min(forms)
        base = _row_to_point(row, den)
        key = (sig_support, base)
        if key in orbits:
            continue
        std = datum.parabolics[sig_support]
        poles, zeros = threshold_hits(datum, labels, base, roots=std.roots)
        idx = len(poles) - len(zeros)
        codim = len(sig_support)
        if idx != codim:
            raise TheoremViolation(
                "coset index differs from codimension",
                {"support": sig_support, "point": base, "index": idx})
        coset = ResidualCoset(
            support=sig_support,
            support_roots=std.roots,
            point=base,
            index=idx,
            center=base.r,
            k_l=len(std.k_elems),
            pole_roots=poles,
            zero_roots=zeros,
            forms=forms,
        )
        orbits[key] = coset
    out = sorted(orbits.values(),
                 key=lambda c: (len(c.support), c.support, c.point.key()))
    return out


def _coset_orbit(datum, support, point):
    """The W0-orbit of the coset through `point` whose constant roots are
    R_support, for a standard parabolic subset `support`, in standard form
    and in the order of first occurrence over the Weyl elements.

    An image counts when its support is a standard parabolic subsystem
    `combo`; its standard form is its lexicographically least K_L
    translate.  Returns [(combo, row, den)]: each row is the integer tuple
    u + r over den (one den per combo), as _orbit_rows has it."""
    import numpy as np
    norm = datum.weyl.invt_norm
    rows = _orbit_rows(point, datum.weyl.invts, norm)
    n = datum.rank
    peak = norm * max(point.den, *map(abs, point.rn))
    found = []
    for combo, gs in _image_groups(datum, support).items():
        entry = datum.parabolics[combo]
        d = lcm(point.den, entry.k_den)
        scale = d // point.den
        own = rows[gs] * scale if peak * scale < INT64_SAFE else \
            rows[gs].astype(object) * scale
        k_rows = np.array(entry.k_elems, dtype=own.dtype) * (d // entry.k_den)
        translates = ((own[:, None, :n] + k_rows[None]) % d).reshape(-1, n)
        owner = np.repeat(np.arange(len(gs)), len(k_rows))
        least = np.lexsort((*translates.T[::-1], owner))[::len(k_rows)]
        forms = np.concatenate([translates[least], own[:, n:]], axis=1)
        firsts = _distinct_rows(forms)
        found.extend((g, combo, tuple(row), d) for g, row in zip(
            gs[firsts].tolist(), forms[firsts].tolist()))
    found.sort(key=lambda f: f[0])
    return [f[1:] for f in found]


def _image_groups(datum, support):
    """Standard parabolic subset combo -> the ascending indices of the
    Weyl elements that map R_support onto R_combo, each image looked up
    by its bit mask in `datum.parabolic_by_mask`.  The groups depend on
    the datum only; its `coset_images` keeps them by support."""
    import numpy as np
    memo = datum.coset_images
    if support not in memo:
        by_mask = datum.parabolic_by_mask
        groups = {}
        for g, mask in enumerate(_image_masks(datum,
                                              datum.parabolics[support].key)):
            image = by_mask.get(mask)
            if image is not None:
                groups.setdefault(image.indices, []).append(g)
        memo[support] = {combo: np.array(gs, dtype=np.intp)
                         for combo, gs in groups.items()}
    return memo[support]


# -- classification suite ------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str = ""
    witnesses: list = field(default_factory=list)


@dataclass
class SuiteReport:
    datum: str
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {"datum": self.datum,
                "passed": self.passed,
                "checks": [{"name": c.name, "passed": c.passed,
                            "details": c.details,
                            "witnesses": [str(w) for w in c.witnesses]}
                           for c in self.checks]}


def classification_suite(datum: RootDatum, labels: LabelFunction,
                         check_nonintersection=False) -> SuiteReport:
    """Run the structural checks on the full enumeration: index equals
    codimension, nested cosets have distinct centers, conjugate-inverse
    points stay in the graded orbit, split exponents lie in the label
    half-group, and order two on doubled summands."""
    import numpy as np
    checks = []
    try:
        cosets = residual_cosets(datum, labels)
        checks.append(CheckResult("index-equals-codimension", True,
                                  f"{len(cosets)} orbit(s) enumerated"))
    except TheoremViolation as exc:
        return SuiteReport(datum.typename, [CheckResult(
            "index-equals-codimension", False, str(exc), [exc.witness])])

    members = _coset_members(cosets)
    bad = _nested_coset_violations(datum, members)
    checks.append(CheckResult("nested-cosets-distinct-centers", not bad,
                              f"{len(members)} cosets compared",
                              bad[:3]))

    # the residual points are the dim-0 cosets, already canonical and sorted
    points = [c.point for c in cosets if c.dim == 0]

    # conjugate-inverse stays in the orbit of the graded reflection group
    bad = []
    for pt in points:
        gens = [r for r in datum.positive_roots
                if _in_graded_system(datum, r, pt)]
        rows = _orbit_rows(pt, *_graded_action(datum, gens))
        star = pt.star()
        if not (rows == np.array(star.un + star.rn, dtype=rows.dtype)
                ).all(axis=1).any():
            bad.append(pt)
    checks.append(CheckResult("conjugate-inverse-in-graded-orbit", not bad,
                              f"{len(points)} point orbit(s)", bad[:3]))

    # split exponents lie in the half-group g Z generated by the labels
    g = Fraction(0)
    for f0, f1 in labels.pairs.values():
        g = _frac_gcd(_frac_gcd(g, Fraction(f0, 2)), Fraction(f1, 2))
    bad = []
    for pt in points:
        for root in datum.roots:
            rn = pt.pairing(root.vec)[1]
            if rn and not (g and rn * g.denominator %
                           (pt.den * g.numerator) == 0):
                bad.append((pt, root.vec, Fraction(rn, pt.den)))
    checks.append(CheckResult("split-exponents-in-label-group", not bad,
                              "", bad[:3]))

    # unitary parts have order <= 2 on doubled components
    bad = []
    for pt in points:
        for comp in datum.components():
            comp_roots = [r for r in datum.roots
                          if any(r.alpha[i] for i in comp)]
            if not any(datum.doubled[r.vec] for r in comp_roots):
                continue
            for r in comp_roots:
                if 2 * pt.pairing(r.vec)[0] % pt.den:
                    bad.append((pt, r.vec))
    checks.append(CheckResult("order-two-on-doubled-summands", not bad,
                              "", bad[:3]))

    if check_nonintersection:
        bad = _tempered_intersections(datum, members)
        checks.append(CheckResult("tempered-cosets-disjoint", not bad,
                                  "advisory", bad[:3]))
    return SuiteReport(f"{datum.typename}/{datum.lattice}", checks)


def _coset_members(cosets):
    """Every coset of every orbit, in standard form: (combo, point,
    orbit representative), in the order in which `residual_cosets` met
    each orbit's cosets."""
    return [(combo, _row_to_point(row, den), coset)
            for coset in cosets for combo, row, den in coset.forms]


def _nested_coset_violations(datum, members):
    """Pairs (c1, p1, c2, p2) of distinct cosets among the members (combo,
    point, orbit) that share a center and of which one contains the
    other: nested cosets sharing a center must coincide."""
    bad = []
    by_center = {}
    for combo, pt, _ in members:
        by_center.setdefault(pt.split_part(), []).append((combo, pt))
    for group in by_center.values():
        for (c1, p1), (c2, p2) in combinations(group, 2):
            if (c1, p1) == (c2, p2):
                continue
            if _coset_contains(datum, c1, p1, c2, p2) or \
               _coset_contains(datum, c2, p2, c1, p1):
                bad.append((c1, p1, c2, p2))
    return bad


def _coset_contains(datum, combo_small, pt_small, combo_big, pt_big):
    """Whether the coset (combo_small, pt_small) is contained in the bigger
    one: R_big is inside R_small, which for standard parabolic subsets
    means combo_big is a subset of combo_small, and the two points agree
    on the saturated lattice spanned by R_big."""
    return set(combo_big) <= set(combo_small) and \
        pt_small.agrees_on(pt_big, datum.parabolics[combo_big].lattice)


def _in_graded_system(datum, root, point):
    """Whether alpha(s) = 1 for the unitary part s, or alpha(s) = -1 on a
    doubled root."""
    un = point.pairing(root.vec)[0]
    if datum.doubled[root.vec]:
        return 2 * un % point.den == 0
    return un == 0


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """The generator of aZ + bZ (non-negative)."""
    return Fraction(gcd(a.numerator * b.denominator,
                        b.numerator * a.denominator),
                    a.denominator * b.denominator)


def _tempered_intersections(datum, members):
    """Pairs of tempered cosets from different orbits that intersect."""
    bad = []
    for (c1, p1, rep1), (c2, p2, rep2) in combinations(members, 2):
        if rep1 is rep2:
            continue
        if _tempered_meet(datum, c1, p1, c2, p2):
            bad.append(((c1, p1), (c2, p2)))
    return bad


def _tempered_meet(datum, c1, p1, c2, p2):
    """Whether r1 T^{L1}_u meets r2 T^{L2}_u (exact)."""
    # every point of L^temp has the split exponent vector of the base
    if p1.split_part() != p2.split_part():
        return False
    # unitary parts: (u1 + U1) meets (u2 + U2) in (Q/Z)^n iff u1 - u2 lies
    # in U1 + U2, where U_i = Ann(_L_i X) is the unitary part of T^{L_i};
    # by Q/Z-duality U1 + U2 = Ann(_L_1 X cap _L_2 X).
    low1, low2 = datum.parabolics[c1].lattice, datum.parabolics[c2].lattice
    if not low1 or not low2:
        return True  # one annihilator is everything
    return p1.agrees_on(p2, _lattice_intersection(low1, low2, datum.rank))


def _lattice_intersection(rows1, rows2, n):
    """Basis of the intersection of two saturated sublattices of Z^n."""
    comp1 = integer_kernel(rows1)
    comp2 = integer_kernel(rows2)
    combined = comp1 + comp2
    if not combined:
        return [[int(i == j) for j in range(n)] for i in range(n)]
    return integer_kernel(combined)


# -- scaling -------------------------------------------------------------------


def scaling_check(datum, labels, eps) -> bool:
    """Enumeration with labels scaled by eps must equal the split-exponent
    scaling of the original enumeration, as orbit sets."""
    eps = Fraction(eps)
    base = residual_points(datum, labels)
    scaled = residual_points(datum, labels.scaled(eps))
    mapped = sorted({canonical_point(datum, p.scale_split(eps))
                     for p in base}, key=TorusPoint.key)
    return mapped == scaled


# -- distinguished-point (equal label) check -----------------------------------


def kl_real_point_check(datum: RootDatum, labels: LabelFunction):
    """For equal labels f: every real residual point has dominant
    simple-root values in {1, q^f} (the marks of a distinguished weighted
    diagram are 0 and 2), and all root values are integral powers of q^f.
    Returns (ok, vectors) with the simple-value exponent vectors in units
    of f."""
    fvals = {f0 for f0, f1 in labels.pairs.values()} | \
            {f1 for f0, f1 in labels.pairs.values()}
    if len(fvals) != 1:
        raise ValueError("check requires equal labels")
    f = fvals.pop()
    if f == 0:
        return True, []
    points = residual_points(datum, labels)
    real_points = [p for p in points if not any(p.un)]
    vectors = []
    ok = True
    for p in real_points:
        dom = dominant_split_representative(datum, p)
        vals = tuple(dom.value_of(a)[1] / f for a in datum.simple_roots)
        vectors.append(vals)
        if any(v not in (0, 1) for v in vals):
            ok = False
        # every root value is an integral power of q^f
        unit = dom.den * f.numerator
        if any(dom.pairing(root.vec)[1] * f.denominator % unit
               for root in datum.roots):
            ok = False
    return ok, sorted(vectors)


# -- Casselman criteria --------------------------------------------------------


def casselman_tempered(weights, datum: RootDatum) -> bool:
    """All weights satisfy |x(t)| <= 1 for x in X+ (label base q > 1):
    split exponents pair <= 0 with the dominant cone generators and are
    zero on the central directions."""
    rays = _integral_rays(datum)
    central = datum.central_lattice()
    for t in weights:
        if any(t.pairing(ray)[1] > 0 for ray in rays) or \
                any(t.pairing(z)[1] for z in central):
            return False
    return True


def casselman_discrete(weights, datum: RootDatum) -> bool:
    """All weights satisfy |x(t)| < 1 for 0 != x in X+: requires trivial
    central lattice and strictly negative pairings on the cone."""
    if datum.central_lattice():
        return False
    rays = _integral_rays(datum)
    return all(t.pairing(ray)[1] < 0 for t in weights for ray in rays)


def _integral_rays(datum):
    """The generating rays of the dominant cone, each scaled by a positive
    integer to an integer vector, so that pairings keep their signs."""
    return [_numerators(ray)[1] for ray in datum.fundamental_coweight_rays()]


# -- special points -------------------------------------------------------------


def steinberg_point(datum: RootDatum, labels: LabelFunction) -> TorusPoint:
    """The point with alpha(r) = q^{-a(alpha)} on every simple root (the
    inverse of the special point carrying the one-dimensional module with
    maximal growth)."""
    rows = [[Fraction(c) for c in datum.simple_roots[i]]
            for i in range(datum.n_simple)]
    rhs = [-labels.pole_exponent(datum.simple_roots[i])
           for i in range(datum.n_simple)]
    sol = solve_unique(rows, rhs)
    if sol is None:
        raise ValueError("datum is not semisimple")
    return TorusPoint([0] * datum.rank, sol)


def trivial_point(datum: RootDatum, labels: LabelFunction) -> TorusPoint:
    return steinberg_point(datum, labels).inverse()
