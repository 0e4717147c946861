"""Enumeration and classification of residual points and residual cosets.

Torus points are exact: coordinate i holds (u_i in Q/Z, r_i in Q) with the
meaning x(t) = e^{2 pi i <x,u>} q^{<x,r>}, stored as one denominator D and
integer numerators (u mod D, r) in lowest terms.  Blocks of points are
integer rows over one D: Weyl images come from one routine, `_orbit_rows`,
and character values from one product, `pairings`, each on int64 stacks
when a bound allows and on Python integers otherwise.  A point is residual
when its pole-minus-zero count against the label thresholds equals the
rank.  Of the points found at a unitary candidate s, one per
W(R_s0)-orbit is canonicalised: W(R_s0) fixes s, so conjugate found
points share a W0-orbit.  Every orbit question whose answer is not
printed is read off the walk of r to a dominant chamber
(`rootdata._graded_dominant`).  Cosets are lifted from the found points
of parabolic quotient data, with no pick in W(R_P), and keyed on the
normaliser of R_P, which holds W_P.  Only the classification suite
expands their W0-orbits, from seeds built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import groupby, product
from math import gcd, lcm

from .lattice import (
    INT64_SAFE,
    _int_width,
    _numerators,
    _product_dtype,
    solve_unique,
    subset_adjugates,
    transpose,
)
from .rootdata import (
    LabelFunction,
    RootDatum,
    _abs_vec,
    _distinct_rows,
    _graded_dominant,
    _in_graded_system,
    _inverse_numerators,
    _least_rows,
    _translates,
    parabolic_classes,
    restrict_labels,
)


class TheoremViolation(AssertionError):
    """A structural invariant asserted by the classification failed; the
    witness is attached so the finding is inspectable."""

    def __init__(self, name, witness):
        super().__init__(f"{name}: {witness}")
        self.name = name
        self.witness = witness


class TorusPoint:
    """An exact torus point: `den` > 0 and the integer numerator tuples
    `un` (entries in [0, den)) and `rn`, in lowest terms.  `u` and `r`
    are the same coordinates as Fraction tuples, built on first use."""

    def __init__(self, u, r):
        """The point with rational coordinates u (taken mod 1) and r; ints
        and Fractions are read as they are."""
        self.den, nums = _numerators([x if isinstance(x, (int, Fraction))
                                      else Fraction(x) for x in (*u, *r)])
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

    def value_of(self, vec):
        """(u, r) of the character value x(t) = e^{2 pi i u} q^r."""
        return self.values_of([vec])[0]

    def numerators_of(self, vecs):
        """The numerators over `den` of u mod 1 and of r in the value
        e^{2 pi i u} q^r of each vector, as two integer lists, from one
        `pairings` product."""
        return [x[0].tolist() for x in pairings(
            *_point_rows([self], len(self.un)), vecs)]

    def values_of(self, vecs):
        """`value_of` of each vector: the one conversion of character
        values to Fractions, for output."""
        un, rn = self.numerators_of(vecs)
        return [(Fraction(u, self.den), Fraction(r, self.den))
                for u, r in zip(un, rn)]

    def inverse(self) -> "TorusPoint":
        return TorusPoint.from_numerators(
            self.den, [-x for x in self.un], [-x for x in self.rn])

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


def _point_rows(points, n, den=1):
    """(rows, D): the points of rank n as a (k, 2n) array of Python
    integers over D, the lcm of den and theirs: u, then r numerators."""
    import numpy as np
    den = lcm(den, *(p.den for p in points))
    rows = [[x * (den // p.den) for x in (*p.un, *p.rn)] for p in points]
    return np.array(rows, dtype=object).reshape(len(points), 2 * n), den


def pairings(rows, den, vecs):
    """Character values at points: for a (k, 2n) block of point rows over
    den and m integer vectors, the (k, m) numerators over den of
    <vec, u> mod den and of <vec, r>, the value being e^{2 pi i u/den}
    q^{r/den}.  One product, at the width of `_product_dtype`."""
    import numpy as np
    n = rows.shape[1] // 2
    vecs = np.array(vecs, dtype=np.int64).reshape(-1, n)
    dtype = _product_dtype(int(np.abs(vecs).sum(axis=1).max(initial=0)),
                           den, rows)
    vals = (rows.reshape(-1, n).astype(dtype, copy=False) @
            vecs.T.astype(dtype)).reshape(len(rows), 2, len(vecs))
    return vals[:, 0] % den, vals[:, 1]


def _orbit_rows(points, invts, norm, den=1):
    """The images of the points under a stack of inverse transposes whose
    largest row 1-norm is `norm`: (rows, D) for D the lcm of `den` and the
    points' denominators.  The rows run over (point, Weyl element), each
    the integer u numerators over D reduced mod D, then the r numerators;
    one denominator keeps the lexicographic order of every orbit."""
    import numpy as np
    n = invts.shape[-1]
    vecs, den = _point_rows(points, n, den)
    vecs = vecs.reshape(-1, n)
    vecs = vecs.astype(_product_dtype(norm, den, vecs))
    # one product, indexed (Weyl element, coordinate, point, u or r)
    imgs = (invts.reshape(-1, n).astype(vecs.dtype, copy=False) @ vecs.T
            ).reshape(len(invts), -1, len(points), 2)
    imgs[..., 0] %= den
    return imgs.transpose(2, 0, 3, 1).reshape(-1, 2 * imgs.shape[1]), den


def _row_to_point(row, den) -> TorusPoint:
    n = len(row) // 2
    return TorusPoint.from_numerators(den, row[:n], row[n:])


def canonical_point(datum: RootDatum, point: TorusPoint) -> TorusPoint:
    """Deterministic orbit representative: lexicographically minimal
    (u vector, then r vector)."""
    return _canonical_points(datum, [point])[0]


# orbit rows per block of `_canonical_points` and `_coset_orbit`; a D5
# orbit (1920 rows) is a block of its own
ORBIT_BLOCK = 1 << 11


def _canonical_points(datum, points, support=(), y_basis=None):
    """`canonical_point` of each point; with the representative `support`
    of a class of standard parabolic subsets, the base point of the coset
    orbit through it whose constant roots are R_support: its least K_L
    translate over the Weyl elements that map R_support onto itself.
    With `y_basis`, the basis rows of Y_P, the points lie on the torus of
    the quotient datum and are keyed as pulled back to T.  Per block of
    up to ORBIT_BLOCK rows, one `_orbit_rows` product and one least-row
    pick keyed by owner."""
    import numpy as np
    invts, k_den, size = datum.weyl.invts, 1, 1
    norm = datum.weyl.invt_norm
    if support:
        entry = datum.parabolics[support]
        invts = invts[entry.images[support]]
        k_den, size = entry.k_den, len(entry.k_elems)
    if y_basis is not None:
        invts = invts @ np.array(y_basis, dtype=np.int64).T
        norm = int(np.abs(invts).sum(axis=2).max(initial=0))
    size *= len(invts)
    step = max(1, ORBIT_BLOCK // size)
    out = []
    for at in range(0, len(points), step):
        rows, den = _orbit_rows(points[at:at + step], invts, norm, k_den)
        if support:
            rows = _translates(rows, den, entry.k_rows(den))
        out.extend(_row_to_point(row, den) for row in
                   rows[_least_rows(rows, size)].tolist())
    return out


# -- pole/zero thresholds and the index ---------------------------------------


def _matches(vals, fracs, den):
    """Whether vals[i, j] == fracs[j] * den, for integers from `pairings`
    over den and rational fracs; int64 values lie below INT64_SAFE."""
    import numpy as np
    want = [f.numerator * (den // f.denominator) if den % f.denominator == 0
            else None for f in fracs]
    ok = [w is not None and (vals.dtype == object or abs(w) < INT64_SAFE)
          for w in want]
    return (vals == np.array([w if k else 0 for w, k in zip(want, ok)],
                             dtype=vals.dtype)) & np.array(ok, dtype=bool)


def _threshold_masks(labels, rows, den, roots):
    """`threshold_hits` at point rows over den as (k, m) booleans (poles,
    zeros): u is 0 or den/2, and r is 0 or a den, b den."""
    un, rn = pairings(rows, den, [r.vec for r in roots])
    unit, half = un == 0, 2 * un == den
    a, b = ([labels.thresholds[r.vec][i] for r in roots] for i in (0, 1))
    poles = unit & _matches(rn, a, den) | half & _matches(rn, b, den)
    return poles, (unit | half) & (rn == 0)


def threshold_hits(datum: RootDatum, labels: LabelFunction, point: TorusPoint,
                   roots=None):
    """(pole_roots, zero_roots) among the given roots (default all of R0):
    a root alpha is a pole hit when alpha(t) equals q^a or -q^b for its
    label exponents, and a zero hit when alpha(t) = +-1."""
    roots = datum.roots if roots is None else roots
    rows, den = _point_rows([point], len(point.un))
    return tuple([r for r, hit in zip(roots, m[0].tolist()) if hit]
                 for m in _threshold_masks(labels, rows, den, roots))


def point_index(datum, labels, point, roots=None) -> int:
    poles, zeros = threshold_hits(datum, labels, point, roots)
    return len(poles) - len(zeros)


# -- unitary parts ------------------------------------------------------------


@dataclass
class UnitaryCandidate:
    point: TorusPoint                # split part trivial
    r_s0: list                       # roots of R0 supporting the graded system
    minus: frozenset                 # vecs of the roots of r_s0 at -1
    # the inverses of the graded search's n-subsets of the positive roots
    # of r_s0: one object for all candidates with equal graded roots
    subset_inverses: SubsetInverses = field(compare=False, repr=False)


def unitary_candidates(datum: RootDatum) -> list:
    """The unitary points s whose roots R1(s) = {alpha in R1 : alpha(s) =
    1} have full rank, up to W0, as the distinct alcove vertex sums mod Y
    sorted by key; empty when the roots do not span X.  The vertices of
    the fundamental alcove of the R1 affine arrangement are, per
    component, zero or omega_i^vee / m_i, where R1(s) holds the affine
    diagram minus node i; each W_aff(R1)-orbit meets the closed alcove
    once (Bourbaki, Lie VI 2.2), so two sums are W0-conjugate only
    through the stabiliser of the alcove.  A few are (C_n/Q from n = 3,
    D5/Q); each such sum costs one more graded search, whose points
    `residual_points` canonicalises onto the same representatives.  R1's
    simple roots are R0's, each doubled one times 2, which halves its
    omega_i^vee and its mark m_i, the coordinate of R1's highest root.
    So vertex i is column i of the inverse of R0's simple-root matrix,
    from one solve, over the i-th coordinate of that root in R0's simple
    roots (`alpha`).  They depend on the datum only;
    `RootDatum.unitary_candidates` holds them."""
    n = datum.rank
    # the simple roots are independent, so the roots span X over Q exactly
    # when there are rank of them
    if not datum.roots or datum.n_simple < n:
        return []
    num, det = _inverse_numerators(datum.simple_roots)
    # from the top, the first root of R1 in each component is its highest
    # root: the first whose support misses the components found before
    vertices, seen = [], set()
    for r in reversed(datum.r1_positive):
        support = [i for i, a in enumerate(r.alpha) if a]
        if seen.isdisjoint(support):
            seen.update(support)
            vertices.append([(0,) * n] + [
                tuple(Fraction(row[i], det * r.alpha[i]) for row in num)
                for i in support])
    sums = sorted({TorusPoint([sum(x) for x in zip(*choice)], (0,) * n)
                   for choice in product(*vertices)}, key=TorusPoint.key)
    rows, den = _point_rows(sums, n)
    un = pairings(rows, den, [r.vec for r in datum.roots])[0]
    graded = _in_graded_system(datum, un, den, datum.roots).tolist()
    inverses, out = {}, []
    for point, in_s0, row in zip(sums, graded, un.tolist()):
        r_s0 = [r for r, g in zip(datum.roots, in_s0) if g]
        positives = tuple(r for r in r_s0 if r.height > 0)
        if positives not in inverses:
            inverses[positives] = _subset_inverses(positives, n)
        out.append(UnitaryCandidate(point, r_s0, frozenset(
            r.vec for r, g, u in zip(datum.roots, in_s0, row) if g and u),
            inverses[positives]))
    return out


# -- graded residual points ----------------------------------------------------


def graded_labels(datum, labels, cand: UnitaryCandidate) -> dict:
    """Exponent k_alpha (of q) for each root of the graded system: the
    positive-pole exponent when alpha(s) = 1 and the negative-pole exponent
    when alpha(s) = -1."""
    return {r.vec: labels.thresholds[r.vec][r.vec in cand.minus]
            for r in cand.r_s0}


def graded_residual_points(subsystem, klabels, inverses):
    """Brute-force search: solve alpha(gamma) = k_alpha on all maximal
    independent subsets of positive subsystem roots, keep gamma whose
    pole-minus-zero count reaches the rank, and assert it never exceeds it.
    `inverses` are the `SubsetInverses` of the positive roots of the
    subsystem, whose n-subsets give the rank n.

    Returns exact split-exponent vectors (tuples of Fractions), deduped.
    """
    import numpy as np
    n = inverses.subsets.shape[1]
    gammas = _candidate_gammas([r for r in subsystem if r.height > 0],
                               klabels, inverses)
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


def _candidate_gammas(positives, klabels, inv):
    """The solutions of n independent equations alpha(gamma) = k_alpha,
    over every n-subset of the positive roots, exactly: an array of the
    distinct integer rows (gamma * den..., den) in lowest terms with
    den > 0, in no particular order.

    With D the common denominator of the labels and k the integer vector
    D k_alpha, a subset solves to gamma = adj (k on the subset) / (det D):
    one integer product per label set.  It runs on int64 while its own
    bound and twice (max |alpha|^2 + max k^2)^n, which bounds the square
    of every minor of [A | k], are below 2^62, and on Python integers
    (dtype=object) otherwise.  `inv` holds the `SubsetInverses` of the
    positive roots, whose n-subsets give n."""
    import numpy as np
    n = inv.subsets.shape[1]
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
    """All residual points up to W0, as canonical orbit representatives:
    the `_found_points` canonicalised."""
    return sorted(set(_canonical_points(datum, _found_points(
        datum, labels))), key=TorusPoint.key)


def _found_points(datum, labels):
    """The residual points found at the unitary candidates, at least one
    per W0-orbit, with no W0 pick.  Candidates with equal graded roots
    and graded labels share one graded search.  W(R_s0) fixes s: alpha(s)
    = 1, or alpha(s) = -1 with alpha^vee in 2Y.  So of the points found
    at s whose r walk to one dominant r (`_graded_dominant`), only the
    first is kept.  Keeping the found points whose r is already dominant
    would lose orbits: the search solves alpha(r) = k_alpha on positive
    roots, which a dominant r cannot meet at a negative k_alpha."""
    solved, found, spans, n = {}, [], [], datum.rank
    for cand in datum.unitary_candidates:
        klabels = graded_labels(datum, labels, cand)
        # the keys of klabels are the vecs of r_s0, in order
        key = tuple(klabels.items())
        gammas = solved.get(key)
        if gammas is None:
            gammas = solved[key] = graded_residual_points(
                cand.r_s0, klabels, cand.subset_inverses)
        spans.append((cand, len(found), len(gammas)))
        found.extend(TorusPoint(cand.point.u, gamma) for gamma in gammas)
    # the index of every found point from one product
    rows, den = _point_rows(found, n)
    poles, zeros = _threshold_masks(labels, rows, den, datum.roots)
    for pt, idx in zip(found, (poles.sum(axis=1) - zeros.sum(axis=1)).tolist()):
        if idx != n:
            raise TheoremViolation("graded/affine index mismatch",
                                   {"point": pt, "index": idx})
    kept = []
    for cand, at, k in spans:
        # a candidate's points share u: keep the first of each dominant r
        first = _distinct_rows(_graded_dominant(
            datum, cand.r_s0, rows[at:at + k, n:])) if k > 1 else range(k)
        kept.extend(found[at + i] for i in first)
    return kept


# -- residual cosets -----------------------------------------------------------


@dataclass
class ResidualCoset:
    support: tuple                # simple-root indices of the standard rep
    support_roots: list           # parent roots constant on the coset
    point: TorusPoint             # base point r_L (canonical K_L choice)
    index: int                    # i_L
    center: tuple                 # split exponents of r_L
    k_l: int                      # |K_L| = |T_L cap T^L|
    pole_roots: list
    zero_roots: list
    # the class's `_class_seeds`, built on first call; None where each
    # base point is its own seed
    seeds: object = field(default=None, compare=False, repr=False)

    @property
    def seed(self) -> TorusPoint:
        """The point whose orbit `_coset_members` expands."""
        return self.seeds()[self.point] if self.seeds else self.point

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
    """All residual cosets up to W0: lift the found points of each
    standard parabolic quotient datum and dedupe orbits by their least
    (combo, row) form.  A raw point's combo `pc.indices` is the least of
    its W0-class, so that form is the least over the Weyl elements
    mapping R_P onto itself, the normaliser of W_P (`_canonical_points`),
    which holds W_P: no quotient datum builds its Weyl group.  No orbit
    is expanded; a class builds its seeds on first read."""
    orbits, seeds = {}, {}
    for pc in parabolic_classes(datum):
        # the identity, and canonical points with R_P = R0 and K_L
        # trivial, are their own keys
        if not pc.indices:
            keys = [TorusPoint.identity(datum.rank)]
        elif pc.sub_datum is datum:
            keys = residual_points(datum, labels)
        else:
            found = _found_points(pc.sub_datum, restrict_labels(labels, pc))
            keys = _canonical_points(datum, found, pc.indices, pc.y_basis)
            seeds[pc.indices] = cache(partial(_class_seeds, pc, found, keys))
        orbits.update(dict.fromkeys((pc.indices, base) for base in keys))
    # the threshold hits of every new base point from one product
    masks = _threshold_masks(labels, *_point_rows(
        [base for _, base in orbits], datum.rank), datum.roots)
    out = []
    for (support, base), *hits in zip(orbits, *(m.tolist() for m in masks)):
        std = datum.parabolics[support]
        poles, zeros = ([datum.roots[i] for i in std.key if row[i]]
                        for row in hits)
        idx = len(poles) - len(zeros)
        if idx != len(support):
            raise TheoremViolation(
                "coset index differs from codimension",
                {"support": support, "point": base, "index": idx})
        out.append(ResidualCoset(
            support=support, support_roots=std.roots, point=base, index=idx,
            center=base.r, k_l=len(std.k_elems), pole_roots=poles,
            zero_roots=zeros, seeds=seeds.get(support)))
    return sorted(out, key=lambda c: (len(c.support), c.support,
                                      c.point.key()))


def _class_seeds(pc, found, keys):
    """Base point -> seed, from the found points of a class and their
    keys: the least W(R_P)-canonical point of each orbit, from one
    `_canonical_points` call on the quotient datum, pulled back to T."""
    least = {}
    for point, base in zip(_canonical_points(pc.sub_datum, found), keys):
        if base not in least or point.key() < least[base].key():
            least[base] = point
    rows, den = _point_rows(list(least.values()), pc.sub_datum.rank)
    un, rn = pairings(rows, den, transpose(pc.y_basis))
    return {base: TorusPoint.from_numerators(den, u, r)
            for base, u, r in zip(least, un.tolist(), rn.tolist())}


def _coset_orbit(datum, support, points):
    """The W0-orbits of the cosets through `points` whose constant roots
    are R_support, for the representative `support` of a class of standard
    parabolic subsets, in standard form: by point, then in order of first
    occurrence over the Weyl elements.  An image counts when its support
    is a standard `combo`; its standard form is its least K_L translate.
    Returns (combos, rows, D, owners): each coset's combo, its row u + r
    over D, the lcm of the points' and every combo's K_L denominators, and
    its point's index.  Per block of up to ORBIT_BLOCK rows, one
    `_orbit_rows` product and one stack of translates keyed by owner."""
    import numpy as np
    n, groups = datum.rank, datum.parabolics[support].images
    combos, gs = list(groups), np.concatenate(list(groups.values()))
    order = np.argsort(gs)
    gs, which = gs[order], np.repeat(np.arange(len(combos)), [
        len(g) for g in groups.values()])[order]
    den = lcm(*(p.den for p in points),
              *(datum.parabolics[c].k_den for c in combos))
    k_rows = np.stack([datum.parabolics[c].k_rows(den) for c in combos])
    invts = datum.weyl.invts[gs]
    step = max(1, ORBIT_BLOCK // (len(gs) * k_rows.shape[1]))
    parts, owners, kept = [], [], []
    for at in range(0, len(points), step):
        rows = _orbit_rows(points[at:at + step], invts, datum.weyl.invt_norm,
                           den)[0]
        owner = np.repeat(np.arange(at, at + len(rows) // len(gs)), len(gs))
        keyed = np.tile(which, len(rows) // len(gs))
        rows = _translates(rows, den, k_rows[keyed])
        rows = rows[_least_rows(rows[:, :n], k_rows.shape[1])]
        first = _distinct_rows(np.concatenate(
            [owner[:, None], keyed[:, None], rows], axis=1))
        parts.append(rows[first])
        owners.append(owner[first])
        kept.extend(combos[i] for i in keyed[first].tolist())
    return kept, np.concatenate(parts), den, np.concatenate(owners)


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


def classification_suite(datum: RootDatum,
                         labels: LabelFunction) -> SuiteReport:
    """Run the structural checks on the full enumeration: index equals
    codimension, nested cosets have distinct centers, conjugate-inverse
    points stay in the graded orbit, split exponents lie in the label
    half-group, and order two on doubled summands."""
    checks = []
    try:
        cosets = residual_cosets(datum, labels)
        checks.append(CheckResult("index-equals-codimension", True,
                                  f"{len(cosets)} orbit(s) enumerated"))
    except TheoremViolation as exc:
        return SuiteReport(datum.typename, [CheckResult(
            "index-equals-codimension", False, str(exc), [exc.witness])])

    members = _coset_members(datum, cosets)
    bad = _nested_coset_violations(datum, members)
    checks.append(CheckResult("nested-cosets-distinct-centers", not bad,
                              f"{len(members[0])} cosets compared",
                              bad[:3]))

    # the residual points are the dim-0 cosets, already canonical and sorted
    points = [c.point for c in cosets if c.dim == 0]
    rows, den = _point_rows(points, datum.rank)
    un, rn = pairings(rows, den, [r.vec for r in datum.roots])

    # conjugate-inverse stays in the orbit of the graded reflection group
    bad = [pt for pt, ok in zip(points, _star_in_graded_orbit(
        datum, rows, den).tolist()) if not ok]
    checks.append(CheckResult("conjugate-inverse-in-graded-orbit", not bad,
                              f"{len(points)} point orbit(s)", bad[:3]))

    # split exponents lie in the half-group g Z generated by the labels
    den_g, halves = _numerators([Fraction(f, 2) for pair in
                                 labels.pairs.values() for f in pair])
    g = Fraction(gcd(*halves), den_g)
    bad = [(pt, root.vec, pt.value_of(root.vec)[1])
           for pt, row in zip(points, rn.tolist())
           for root, x in zip(datum.roots, row)
           if x and not (g and x * g.denominator % (den * g.numerator) == 0)]
    checks.append(CheckResult("split-exponents-in-label-group", not bad,
                              "", bad[:3]))

    # unitary parts have order <= 2 on doubled components
    comps = [[k for k, r in enumerate(datum.roots)
              if any(r.alpha[i] for i in comp)] for comp in datum.components()]
    comps = [c for c in comps if any(datum.doubled[datum.roots[k].vec]
                                     for k in c)]
    bad = [(pt, datum.roots[k].vec) for pt, row in zip(points, un.tolist())
           for c in comps for k in c if 2 * row[k] % den]
    checks.append(CheckResult("order-two-on-doubled-summands", not bad,
                              "", bad[:3]))
    return SuiteReport(f"{datum.typename}/{datum.lattice}", checks)


def _star_in_graded_orbit(datum, rows, den):
    """Whether t* = (u, -r) lies in W(R_s0) t, for each point row over den
    and R_s0 the graded system of its unitary part s.  W(R_s0) fixes s,
    so it does exactly when r and -r walk to one dominant row: one
    `_graded_dominant` walk per graded system, on the r numerators of its
    points stacked over their negatives."""
    import numpy as np
    graded = _in_graded_system(datum, pairings(
        rows, den, [r.vec for r in datum.roots])[0], den, datum.roots)
    split, same = rows[:, datum.rank:], np.ones(len(rows), dtype=bool)
    for key in set(map(tuple, graded.tolist())):
        at = np.flatnonzero((graded == key).all(axis=1))
        walked = _graded_dominant(
            datum, [r for r, g in zip(datum.roots, key) if g],
            np.concatenate([split[at], -split[at]]))
        same[at] = (walked[:len(at)] == walked[len(at):]).all(axis=1)
    return same


def _coset_members(datum, cosets):
    """The cosets of every orbit in standard form, each orbit expanded once
    from its seed: (combos, rows over one D, D, the orbit index of each),
    from one `_coset_orbit` per run of cosets with one support."""
    import numpy as np
    parts, at = [], 0
    for support, run in groupby(cosets, key=lambda c: c.support):
        seeds = [c.seed for c in run]
        combos, rows, den, owners = _coset_orbit(datum, support, seeds)
        parts.append((combos, rows, den, owners + at))
        at += len(seeds)
    den = lcm(*(d for _, _, d, _ in parts))
    return ([combo for combos, *_ in parts for combo in combos],
            np.concatenate([r.astype(_product_dtype(den // d, d, r)) *
                            (den // d) for _, r, d, _ in parts]),
            den, np.concatenate([owners for *_, owners in parts]))


def _meeting_pairs(datum, members):
    """Pairs ((c1, p1), (c2, p2)) of distinct member cosets with one
    center, one combo holding the other, whose points agree on the
    saturated lattice spanned by the smaller combo's roots, so that one
    coset holds the other; by center in order of first occurrence, then
    in member order.  One stable lexsort groups the members by center, one
    `pairings` product per pair of combos compares them, and points are
    built for the pairs found alone."""
    import numpy as np
    combos, rows, den, _ = members
    n, shift = datum.rank, datum.n_simple
    mask = {c: sum(1 << i for i in c) for c in set(combos)}
    lattice = {m: datum.parabolics[c].lattice for c, m in mask.items()}
    masks = np.array([mask[c] for c in combos], dtype=np.int64)
    order = np.lexsort(rows[:, n:].T[::-1])
    group = np.cumsum(np.r_[True, (rows[order[1:], n:] !=
                                   rows[order[:-1], n:]).any(axis=1)])
    lead = np.empty_like(order)
    lead[order] = order[np.searchsorted(group, group)]
    # the pairs in one group, by their distance in the order
    first, second = np.concatenate([np.zeros((2, 0), np.intp)] + [
        np.stack([order[:-t], order[t:]])[:, group[:-t] == group[t:]]
        for t in range(1, np.bincount(group).max())], axis=1)
    a, b = masks[first], masks[second]
    keep = (((a & b) == a) | ((a & b) == b)) & (
        (a != b) | (rows[first] != rows[second]).any(axis=1))
    first, second = first[keep], second[keep]
    keys = (masks[first] << shift) | masks[second]
    hit = np.zeros(len(keys), dtype=bool)
    for key in sorted(set(keys.tolist())):  # np.unique loads numpy.ma
        run = np.flatnonzero(keys == key)
        m1, m2 = divmod(key, 1 << shift)
        # a combo's lattice lies in the lattice of a combo holding it
        vecs = lattice[m1] if (m1 & m2) == m1 else lattice[m2]
        (u1, r1), (u2, r2) = (pairings(rows[side[run]], den, vecs)
                              for side in (first, second))
        hit[run] = ((u1 == u2) & (r1 == r2)).all(axis=1)
    first, second = first[hit], second[hit]
    by = np.lexsort((second, first, lead[first]))
    return [tuple((combos[i], _row_to_point(rows[i].tolist(), den))
                  for i in pair)
            for pair in zip(first[by].tolist(), second[by].tolist())]


def _nested_coset_violations(datum, members):
    """(c1, p1, c2, p2) for distinct member cosets sharing a center of
    which one contains the other: nested cosets sharing a center must
    coincide."""
    return [(*a, *b) for a, b in _meeting_pairs(datum, members)]


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
    fvals = {f for pair in labels.pairs.values() for f in pair}
    if len(fvals) != 1:
        raise ValueError("check requires equal labels")
    f = fvals.pop()
    if f == 0:
        return True, []
    # the dominant member of a real point is its r walked under R0
    n = datum.rank
    rows, den = _point_rows([p for p in residual_points(datum, labels)
                             if not any(p.un)], n)
    rows[:, n:] = _graded_dominant(datum, datum.roots, rows[:, n:])
    simple, rn = (pairings(rows, den, vecs)[1].tolist() for vecs in (
        datum.simple_roots, [r.vec for r in datum.roots]))
    vectors = [tuple(Fraction(x, den) / f for x in row) for row in simple]
    # every root value is an integral power of q^f
    ok = all(v in (0, 1) for vals in vectors for v in vals) and not any(
        x * f.denominator % (den * f.numerator) for row in rn for x in row)
    return ok, sorted(vectors)


# -- Casselman criteria --------------------------------------------------------


def casselman_tempered(weights, datum: RootDatum) -> bool:
    """All weights satisfy |x(t)| <= 1 for x in X+ (label base q > 1):
    split exponents pair <= 0 with the dominant cone generators and are
    zero on the central directions."""
    rays = _integral_rays(datum)
    rn = pairings(*_point_rows(weights, datum.rank),
                  rays + datum.central_lattice())[1]
    return bool((rn[:, :len(rays)] <= 0).all() and
                (rn[:, len(rays):] == 0).all())


def casselman_discrete(weights, datum: RootDatum) -> bool:
    """All weights satisfy |x(t)| < 1 for 0 != x in X+: requires trivial
    central lattice and strictly negative pairings on the cone."""
    if datum.central_lattice():
        return False
    rn = pairings(*_point_rows(weights, datum.rank), _integral_rays(datum))[1]
    return bool((rn < 0).all())


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
