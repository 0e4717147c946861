"""Enumeration and classification of residual points and residual cosets.

Torus points are exact: coordinate i holds (u_i in Q/Z, r_i in Q) with the
meaning x(t) = e^{2 pi i <x,u>} q^{<x,r>}.  A point is residual when its
pole-minus-zero count against the label thresholds equals the rank; cosets
are lifted from residual points of parabolic quotient data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from math import isqrt, lcm, prod

from .lattice import (
    int_rank,
    integer_kernel,
    quotient_dual_elements,
    saturate,
    solve_unique,
    transpose,
)
from .rootdata import (
    LabelFunction,
    RootDatum,
    _distinct_rows,
    parabolic_classes,
    restrict_labels,
    root_permutations,
)


class TheoremViolation(AssertionError):
    """A structural invariant asserted by the classification failed; the
    witness is attached so the finding is inspectable."""

    def __init__(self, name, witness):
        super().__init__(f"{name}: {witness}")
        self.name = name
        self.witness = witness


@dataclass(frozen=True)
class TorusPoint:
    u: tuple  # Fractions mod 1
    r: tuple  # Fractions

    @classmethod
    def make(cls, u, r) -> "TorusPoint":
        return cls(tuple(Fraction(x) % 1 for x in u),
                   tuple(Fraction(x) for x in r))

    @classmethod
    def identity(cls, rank: int) -> "TorusPoint":
        z = tuple(Fraction(0) for _ in range(rank))
        return cls(z, z)

    def value_of(self, vec):
        """(u, r) of the character value x(t) = e^{2 pi i u} q^r."""
        u = sum(Fraction(v) * self.u[i] for i, v in enumerate(vec)) % 1
        r = sum(Fraction(v) * self.r[i] for i, v in enumerate(vec))
        return u, r

    def inverse(self) -> "TorusPoint":
        return TorusPoint(tuple((-x) % 1 for x in self.u),
                          tuple(-x for x in self.r))

    def star(self) -> "TorusPoint":
        """The conjugate-inverse t* (split exponents negated)."""
        return TorusPoint(self.u, tuple(-x for x in self.r))

    def unitary_part(self) -> "TorusPoint":
        return TorusPoint(self.u, tuple(Fraction(0) for _ in self.r))

    def split_part(self) -> "TorusPoint":
        return TorusPoint(tuple(Fraction(0) for _ in self.u), self.r)

    def mul(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint(tuple((a + b) % 1 for a, b in zip(self.u, other.u)),
                          tuple(a + b for a, b in zip(self.r, other.r)))

    def transform(self, inv_t):
        """Image under the Weyl element whose inverse-transpose matrix on X
        is inv_t (rows act on the functional coordinates)."""
        n = len(self.u)
        u = tuple(sum(inv_t[i][j] * self.u[j] for j in range(n)) % 1
                  for i in range(n))
        r = tuple(sum(inv_t[i][j] * self.r[j] for j in range(n))
                  for i in range(n))
        return TorusPoint(u, r)

    def scale_split(self, eps) -> "TorusPoint":
        eps = Fraction(eps)
        return TorusPoint(self.u, tuple(x * eps for x in self.r))

    def key(self):
        return (self.u, self.r)


# -- Weyl action helpers ------------------------------------------------------


def inverse_transpose_matrices(datum: RootDatum):
    """(A^{-1})^T for every Weyl matrix A, as integer tuples; the point
    image of w with matrix A has functional vectors (A^{-1})^T u."""
    return [tuple(map(tuple, m)) for m in _np_invt(datum).tolist()]


def _np_invt(datum):
    """The int64 stack of inverse transposes, built with the Weyl group."""
    if datum._weyl_invt is None:
        datum.weyl_elements()
    return datum._weyl_invt


def _orbit_rows(datum, point):
    """All orbit images as integer rows (u scaled mod du, then r scaled),
    plus the scale factors; integer arithmetic keeps everything exact and
    the common scaling preserves lexicographic order."""
    import numpy as np
    n = datum.rank
    du = lcm(1, *(x.denominator for x in point.u)) if n else 1
    dr = lcm(1, *(x.denominator for x in point.r)) if n else 1
    u_int = np.array([x.numerator * (du // x.denominator) for x in point.u],
                     dtype=np.int64)
    r_int = np.array([x.numerator * (dr // x.denominator) for x in point.r],
                     dtype=np.int64)
    mats = _np_invt(datum)
    imgs_u = (mats @ u_int) % du if du > 1 else (mats @ u_int) * 0
    imgs_r = mats @ r_int
    return np.concatenate([imgs_u, imgs_r], axis=1), du, dr


def _row_to_point(row, n, du, dr) -> TorusPoint:
    u = tuple(Fraction(int(x), du) % 1 for x in row[:n])
    r = tuple(Fraction(int(x), dr) for x in row[n:])
    return TorusPoint(u, r)


def orbit_of_point(datum: RootDatum, point: TorusPoint):
    rows, du, dr = _orbit_rows(datum, point)
    return {_row_to_point(row, datum.rank, du, dr)
            for row in rows[_distinct_rows(rows)]}


def _support_tables(datum):
    """(table, root_index): table maps the sorted root-index tuple of a
    standard parabolic subsystem to its simple subset (cached)."""
    cached = getattr(datum, "_supidx_cache", None)
    if cached is not None:
        return cached
    from itertools import combinations as _comb
    from .rootdata import parabolic_subsystem_roots
    index = {r.vec: k for k, r in enumerate(datum.roots)}
    table = {}
    for size in range(datum.n_simple + 1):
        for combo in _comb(range(datum.n_simple), size):
            key = tuple(sorted(index[r.vec] for r in
                               parabolic_subsystem_roots(datum, combo)))
            table.setdefault(key, combo)
    datum._supidx_cache = (table, index)
    return datum._supidx_cache


def canonical_point(datum: RootDatum, point: TorusPoint) -> TorusPoint:
    """Deterministic orbit representative: lexicographically minimal
    (u vector, then r vector)."""
    import numpy as np
    rows, du, dr = _orbit_rows(datum, point)
    idx = np.lexsort(rows.T[::-1])
    return _row_to_point(rows[idx[0]], datum.rank, du, dr)


def dominant_split_representative(datum: RootDatum, point: TorusPoint):
    """Orbit member whose split exponent vector is dominant (all simple
    roots pair >= 0); ties broken by the lexicographically minimal u."""
    import numpy as np
    rows, du, dr = _orbit_rows(datum, point)
    n = datum.rank
    simple = np.array([list(v) for v in datum.simple_roots], dtype=np.int64)
    pair = rows[:, n:] @ simple.T
    ok = np.all(pair >= 0, axis=1)
    good = rows[ok]
    idx = np.lexsort(good.T[::-1])
    return _row_to_point(good[idx[0]], n, du, dr)


# -- pole/zero thresholds and the index ---------------------------------------


def threshold_hits(datum: RootDatum, labels: LabelFunction, point: TorusPoint,
                   roots=None):
    """(pole_roots, zero_roots) among the given roots (default all of R0):
    a root alpha is a pole hit when alpha(t) equals q^a or -q^b for its
    label exponents, and a zero hit when alpha(t) = +-1."""
    poles, zeros = [], []
    for root in (roots if roots is not None else datum.roots):
        u, r = point.value_of(root.vec)
        a = labels.pole_exponent(root.vec)
        b = labels.minus_pole_exponent(root.vec)
        if (u == 0 and r == a) or (u == Fraction(1, 2) and r == b):
            poles.append(root)
        if r == 0 and (u == 0 or u == Fraction(1, 2)):
            zeros.append(root)
    return poles, zeros


def point_index(datum, labels, point, roots=None) -> int:
    poles, zeros = threshold_hits(datum, labels, point, roots)
    return len(poles) - len(zeros)


def coset_index(datum, labels, support_indices, point) -> int:
    """Index i_L of the coset through `point` with parabolic support given
    by simple-root indices (the roots constant on the coset)."""
    from .rootdata import parabolic_subsystem_roots
    roots = parabolic_subsystem_roots(datum, support_indices)
    return point_index(datum, labels, point, roots)


# -- unitary parts ------------------------------------------------------------


@dataclass
class UnitaryCandidate:
    point: TorusPoint                # split part trivial
    r_s1: list                       # roots of R1 with alpha(s) = 1
    r_s0: list                       # roots of R0 supporting the graded system


@dataclass
class CandidateSet:
    points: list
    rank_deficient: bool = False


def _r1_simple_basis(datum: RootDatum):
    """Simple roots of R1 (indecomposable positives)."""
    pos = datum.r1_positive
    vecs = {r.vec for r in pos}
    simples = []
    for r in pos:
        decomposable = False
        for s in pos:
            diff = tuple(a - b for a, b in zip(r.vec, s.vec))
            if any(diff) and diff in vecs:
                decomposable = True
                break
        if not decomposable:
            simples.append(r)
    return simples


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
    alcove of the R1 affine arrangement, one per orbit."""
    n = datum.rank
    if not datum.roots or len(_span_basis(datum)) < n:
        return CandidateSet([], rank_deficient=True)
    simples = _r1_simple_basis(datum)
    comps = _r1_components(datum, simples)
    per_component_vertices = []
    for comp in comps:
        comp_simples = [simples[i] for i in comp]
        # highest root of the component, in simple coordinates of R1
        coords = _r1_root_coords(datum, simples)
        best, marks = None, None
        for r, cs in coords.items():
            if any(cs[i] for i in comp) and all(
                    cs[i] == 0 for i in range(len(simples)) if i not in comp):
                if best is None or sum(cs) > sum(marks):
                    best, marks = r, cs
        verts = [tuple(Fraction(0) for _ in range(n))]
        for i in comp:
            verts.append(_fundamental_covertex(datum, comp_simples,
                                               comp.index(i), marks[i]))
        per_component_vertices.append(verts)
    # products over components
    candidates = set()
    from itertools import product
    for choice in product(*per_component_vertices):
        u = tuple(sum(v[i] for v in choice) % 1 for i in range(n))
        candidates.add(u)
    out = []
    seen = set()
    for u in sorted(candidates):
        pt = TorusPoint.make(u, [0] * n)
        rep = canonical_point(datum, pt)
        if rep in seen:
            continue
        seen.add(rep)
        r_s1 = [r for r in datum.r1 if rep.value_of(r.vec)[0] == 0]
        if int_rank([r.vec for r in r_s1]) < n:
            continue
        r_s0 = []
        for r in datum.roots:
            uval = rep.value_of(r.vec)[0]
            if datum.doubled[r.vec]:
                if uval in (0, Fraction(1, 2)):
                    r_s0.append(r)
            elif uval == 0:
                r_s0.append(r)
        out.append(UnitaryCandidate(rep, r_s1, r_s0))
    out.sort(key=lambda c: c.point.key())
    return CandidateSet(out)


def _span_basis(datum):
    return _independent_subset([r.vec for r in datum.positive_roots])


def _independent_subset(vecs):
    chosen = []
    for v in vecs:
        if int_rank(chosen + [list(v)]) == len(chosen) + 1:
            chosen.append(list(v))
    return chosen


def _r1_root_coords(datum, simples):
    mat = transpose([[Fraction(c) for c in s.vec] for s in simples])
    out = {}
    for r in datum.r1_positive:
        sol = solve_unique(mat, [Fraction(c) for c in r.vec])
        out[r] = [int(c) for c in sol]
    return out


def _fundamental_covertex(datum, comp_simples, idx, mark):
    """omega_i^vee / m_i for the component: the vector v in the coroot span
    with <alpha_j, v> = delta_{ij}/m_i on the component simples."""
    k = len(comp_simples)
    span = [[Fraction(c) for c in s.coroot] for s in comp_simples]
    rows = [[sum(Fraction(s.vec[t]) * span[j][t] for t in range(datum.rank))
             for j in range(k)] for s in comp_simples]
    rhs = [Fraction(int(j == idx), mark) for j in range(k)]
    sol = solve_unique(rows, rhs)
    return tuple(sum(sol[j] * span[j][t] for j in range(k))
                 for t in range(datum.rank))


# -- graded residual points ----------------------------------------------------


def graded_labels(datum, labels, cand: UnitaryCandidate) -> dict:
    """Exponent k_alpha (of q) for each root of the graded system: the
    positive-pole exponent when alpha(s) = 1 and the negative-pole exponent
    when alpha(s) = -1."""
    out = {}
    for r in cand.r_s0:
        uval = cand.point.value_of(r.vec)[0]
        if uval == 0:
            out[r.vec] = labels.pole_exponent(r.vec)
        else:
            out[r.vec] = labels.minus_pole_exponent(r.vec)
    return out


def graded_residual_points(datum, subsystem, klabels, rank=None):
    """Brute-force search: solve alpha(gamma) = k_alpha on all maximal
    independent subsets of positive subsystem roots, keep gamma whose
    pole-minus-zero count reaches the rank, and assert it never exceeds it.

    Returns exact split-exponent vectors (tuples of Fractions), deduped.
    """
    import numpy as np
    n = rank if rank is not None else datum.rank
    positives = [r for r in subsystem if r.height > 0]
    if int_rank([r.vec for r in positives]) < n:
        return []
    candidates = _candidate_gammas(positives, klabels, n)
    # alpha(gamma) = k_alpha as integers: vals / dg = knum / kden, in
    # Python integers (dtype=object) so that no label size can wrap
    vecs = np.array([r.vec for r in subsystem], dtype=object)
    kvals = [klabels[_abs_vec(r)] for r in subsystem]
    kden = lcm(1, *(k.denominator for k in kvals))
    knum = np.array([k.numerator * (kden // k.denominator) for k in kvals],
                    dtype=object)
    kept = {}
    for gamma in candidates:
        dg = lcm(1, *(x.denominator for x in gamma))
        vals = vecs @ np.array([x.numerator * (dg // x.denominator)
                                for x in gamma], dtype=object)
        poles = int((vals * kden == knum * dg).sum())
        zeros = int((vals == 0).sum())
        i = poles - zeros
        if i >= n:
            if i > n:
                raise TheoremViolation(
                    "index exceeds codimension",
                    {"gamma": gamma, "index": i, "rank": n})
            kept[gamma] = i
    return sorted(kept)


def _abs_vec(root):
    return root.vec if root.height > 0 else tuple(-v for v in root.vec)


GRADED_BLOCK = 1 << 11      # n-subsets solved per batch of the graded search
INT64_SAFE = 1 << 62        # bound on every int64 intermediate


def _candidate_gammas(positives, klabels, n):
    """Solutions of n independent equations alpha(gamma) = k_alpha, over
    every n-subset of the positive roots, exactly: by Cramer's rule,
    gamma_j = det(A_j) / (det(A) * den) with A_j the matrix A whose column
    j is the labels times their common denominator den.  The subsets run
    in blocks of GRADED_BLOCK; each block drops its singular A first.

    Every minor of a Cramer matrix is at most H = the product of the n
    largest row norms (Hadamard), so Bareiss's intermediates stay below
    2 H^2.  When that could pass 2^62 the same elimination runs on Python
    integers (dtype=object)."""
    import numpy as np
    vecs = [list(p.vec) for p in positives]
    labels = [klabels[p.vec] for p in positives]
    den = lcm(1, *(k.denominator for k in labels))
    kint = [int(k * den) for k in labels]
    norms = sorted((sum(x * x for x in v) + k * k
                    for v, k in zip(vecs, kint)), reverse=True)
    h2 = prod(max(1, x) for x in norms[:n])
    exact = 2 * h2 < INT64_SAFE and (isqrt(h2) + 1) * den < INT64_SAFE
    dtype = np.int64 if exact else object
    rows = np.array(vecs, dtype=dtype)
    kcol = np.array(kint, dtype=dtype)
    found = set()
    subsets = combinations(range(len(positives)), n)
    while block := list(islice(subsets, GRADED_BLOCK)):
        block = np.array(block, dtype=np.intp)
        det = _bareiss_det(rows[block])
        block, det = block[det != 0], det[det != 0]
        mats, rhs = rows[block], kcol[block]
        sign = np.where(det < 0, -1, 1)
        frac = np.empty((len(det), n + 1), dtype=dtype)
        for j in range(n):
            cramer = mats.copy()
            cramer[:, :, j] = rhs
            frac[:, j] = _bareiss_det(cramer) * sign
        frac[:, n] = det * sign * den
        frac //= np.gcd.reduce(frac, axis=1)[:, None]
        found.update(map(tuple, frac[_distinct_rows(frac)].tolist()))
    return sorted(tuple(Fraction(x, row[-1]) for x in row[:-1])
                  for row in found)


def _bareiss_det(m):
    """Determinants of a stack (count, n, n) of integer matrices by
    Bareiss's fraction-free elimination with row pivoting, in place (the
    stack is overwritten).  Every division is exact; an int64 stack must
    keep its intermediates below 2^63 (see _candidate_gammas), a
    dtype=object stack is exact on any input."""
    import numpy as np
    count, n = m.shape[0], m.shape[1]
    at = np.arange(count)
    sign = np.ones(count, dtype=m.dtype)
    prev = np.ones(count, dtype=m.dtype)
    for k in range(n - 1):
        nonzero = m[:, k:, k] != 0
        piv = k + nonzero.argmax(axis=1)
        top = m[at, piv]
        m[at, piv] = m[at, k]
        m[at, k] = top
        sign[piv != k] *= -1
        p = m[:, k, k]
        block = m[:, k + 1:, k + 1:]
        block *= p[:, None, None]
        block -= m[:, k + 1:, k:k + 1] * m[:, k:k + 1, k + 1:]
        block //= prev[:, None, None]
        # a zero pivot left the trailing block zero; keep dividing by 1
        prev = np.where(p == 0, 1, p)
    return sign * m[:, n - 1, n - 1]


def residual_points(datum: RootDatum, labels: LabelFunction):
    """All residual points up to W0, as canonical orbit representatives."""
    cands = unitary_candidates(datum)
    if cands.rank_deficient:
        return []
    found = set()
    for cand in cands.points:
        kl = graded_labels(datum, labels, cand)
        for gamma in graded_residual_points(datum, cand.r_s0, kl):
            pt = TorusPoint(cand.point.u, gamma)
            if point_index(datum, labels, pt) != datum.rank:
                raise TheoremViolation(
                    "graded/affine index mismatch",
                    {"point": pt, "index": point_index(datum, labels, pt)})
            found.add(canonical_point(datum, pt))
    return sorted(found, key=TorusPoint.key)


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
    orbit_size: int = 1

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


def _k_group_elements(datum, combo):
    """Elements of K_L = T_L cap T^L (as u-vectors) for the standard
    parabolic subset `combo`; cached on the datum."""
    cache = getattr(datum, "_kgroup_cache", None)
    if cache is None:
        cache = datum._kgroup_cache = {}
    combo = tuple(sorted(combo))
    if combo in cache:
        return cache[combo]
    n = datum.rank
    if not combo:
        out = [tuple(Fraction(0) for _ in range(n))]
    else:
        low = saturate([list(datum.simple_roots[i]) for i in combo], n)
        up = integer_kernel([list(datum.simple_coroots[i]) for i in combo])
        cols = transpose(low + up)
        out = quotient_dual_elements(cols, n)
    cache[combo] = out
    return out


def residual_cosets(datum: RootDatum, labels: LabelFunction):
    """All residual cosets up to W0: lift residual points of each standard
    parabolic quotient datum and dedupe orbits canonically."""
    classes = parabolic_classes(datum)
    from .rootdata import parabolic_subsystem_roots

    raw = []
    for pc in classes:
        if not pc.indices:
            raw.append((pc, TorusPoint.identity(datum.rank)))
            continue
        sub_labels = restrict_labels(labels, pc)
        for sub_pt in residual_points(pc.sub_datum, sub_labels):
            u, r = pc.embed_point_vectors(sub_pt.u, sub_pt.r)
            raw.append((pc, TorusPoint.make(u, r)))

    orbits = {}
    for pc, point in raw:
        forms, dr = _coset_orbit(datum, pc.roots, point)
        sig_support, row, du = min(forms)
        base = _row_to_point(row, datum.rank, du, dr)
        key = (sig_support, base.key())
        if key in orbits:
            continue
        std_roots = parabolic_subsystem_roots(datum, sig_support)
        k_std = _k_group_elements(datum, sig_support)
        poles, zeros = threshold_hits(datum, labels, base, roots=std_roots)
        idx = len(poles) - len(zeros)
        codim = len(sig_support)
        if idx != codim:
            raise TheoremViolation(
                "coset index differs from codimension",
                {"support": sig_support, "point": base, "index": idx})
        coset = ResidualCoset(
            support=sig_support,
            support_roots=std_roots,
            point=base,
            index=idx,
            center=base.split_part().r,
            k_l=len(k_std),
            pole_roots=poles,
            zero_roots=zeros,
            orbit_size=len(forms),
        )
        orbits[key] = coset
    out = sorted(orbits.values(),
                 key=lambda c: (len(c.support), c.support, c.point.key()))
    return out


def _coset_orbit(datum, support_roots, point):
    """The W0-orbit of the coset through `point` whose constant roots are
    `support_roots`, in standard form and in the order of first occurrence
    over the Weyl elements.

    An image counts when its support is a standard parabolic subsystem
    `combo`; its standard form is its lexicographically least K_L
    translate.  Returns ([(combo, row, du)], dr): each row is the integer
    tuple u + r, with u in units of 1/du (one du per combo) and r in units
    of 1/dr, as _orbit_rows has it."""
    import numpy as np
    table, index = _support_tables(datum)
    rows, du, dr = _orbit_rows(datum, point)
    n = datum.rank
    sup = np.array([index[r.vec] for r in support_roots], dtype=np.intp)
    images = np.sort(root_permutations(datum)[:, sup], axis=1).tolist()
    groups = {}
    for g, img in enumerate(images):
        combo = table.get(tuple(img))
        if combo is not None:
            groups.setdefault(combo, []).append(g)
    found = []
    for combo, gs in groups.items():
        k_elems = _k_group_elements(datum, combo)
        d = lcm(du, *(x.denominator for ku in k_elems for x in ku))
        k_rows = np.array([[x.numerator * (d // x.denominator) for x in ku]
                           for ku in k_elems], dtype=np.int64)
        translates = ((rows[gs][:, None, :n] * (d // du) + k_rows[None]) % d
                      ).reshape(-1, n)
        owner = np.repeat(np.arange(len(gs)), len(k_rows))
        least = np.lexsort((*translates.T[::-1], owner))[::len(k_rows)]
        forms = np.concatenate([translates[least], rows[gs, n:]], axis=1)
        for first in _distinct_rows(forms).tolist():
            found.append((gs[first], combo, tuple(forms[first].tolist()), d))
    found.sort(key=lambda f: f[0])
    return [f[1:] for f in found], dr


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
    checks = []
    try:
        cosets = residual_cosets(datum, labels)
        checks.append(CheckResult("index-equals-codimension", True,
                                  f"{len(cosets)} orbit(s) enumerated"))
    except TheoremViolation as exc:
        return SuiteReport(datum.typename, [CheckResult(
            "index-equals-codimension", False, str(exc), [exc.witness])])

    # every coset of every orbit, in standard form
    members = []
    for coset in cosets:
        forms, dr = _coset_orbit(datum, coset.support_roots, coset.point)
        members.extend((combo, _row_to_point(row, datum.rank, du, dr), coset)
                       for combo, row, du in forms)

    # nested cosets sharing a center must coincide
    bad = []
    by_center = {}
    for combo, pt, _ in members:
        by_center.setdefault(pt.r, []).append((combo, pt))
    for center, group in by_center.items():
        for (c1, p1), (c2, p2) in combinations(group, 2):
            if (c1, p1.key()) == (c2, p2.key()):
                continue
            if _coset_contains(datum, c1, p1, c2, p2) or \
               _coset_contains(datum, c2, p2, c1, p1):
                bad.append((c1, p1, c2, p2))
    checks.append(CheckResult("nested-cosets-distinct-centers", not bad,
                              f"{len(members)} cosets compared",
                              bad[:3]))

    points = residual_points(datum, labels)

    # conjugate-inverse stays in the orbit of the graded reflection group
    bad = []
    for pt in points:
        sub = [r for r in datum.roots if _in_graded_system(datum, r, pt)]
        group = _reflection_subgroup_inv_t(datum, sub)
        orbit = {pt.transform(m) for m in group}
        if pt.star() not in orbit:
            bad.append(pt)
    checks.append(CheckResult("conjugate-inverse-in-graded-orbit", not bad,
                              f"{len(points)} point orbit(s)", bad[:3]))

    # split exponents lie in the half-group generated by the labels
    gens = set()
    for f0, f1 in labels.pairs.values():
        gens.add(Fraction(f0, 2))
        gens.add(Fraction(f1, 2))
    gens.discard(Fraction(0))
    bad = []
    for pt in points:
        for root in datum.roots:
            _, rexp = pt.value_of(root.vec)
            if not _in_fraction_group(rexp, gens):
                bad.append((pt, root.vec, rexp))
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
                uval = pt.value_of(r.vec)[0]
                if (2 * uval) % 1 != 0:
                    bad.append((pt, r.vec))
    checks.append(CheckResult("order-two-on-doubled-summands", not bad,
                              "", bad[:3]))

    if check_nonintersection:
        bad = _tempered_intersections(datum, members)
        checks.append(CheckResult("tempered-cosets-disjoint", not bad,
                                  "advisory", bad[:3]))
    return SuiteReport(f"{datum.typename}/{datum.lattice}", checks)


def _coset_contains(datum, combo_small, pt_small, combo_big, pt_big):
    """Whether the coset (combo_small, pt_small) is contained in the bigger
    one; requires the bigger support to sit inside the smaller."""
    from .rootdata import parabolic_subsystem_roots
    small_roots = {r.vec for r in parabolic_subsystem_roots(datum, combo_small)}
    big_roots = {r.vec for r in parabolic_subsystem_roots(datum, combo_big)}
    if not big_roots <= small_roots:
        return False
    if len(combo_big) > len(combo_small):
        return False
    low = saturate([list(datum.simple_roots[i]) for i in combo_big],
                   datum.rank) if combo_big else []
    for x in low:
        if pt_small.value_of(x) != pt_big.value_of(x):
            return False
    return True


def _in_graded_system(datum, root, point):
    uval = point.value_of(root.vec)[0]
    if datum.doubled[root.vec]:
        return uval in (0, Fraction(1, 2))
    return uval == 0


def _reflection_subgroup_inv_t(datum, roots):
    """Inverse-transpose matrices of the subgroup generated by the
    reflections in the given roots; inverses are tracked through the
    closure (generators are involutions), cached per root set."""
    cache = getattr(datum, "_refl_cache", None)
    if cache is None:
        cache = datum._refl_cache = {}
    key = frozenset(r.vec for r in roots)
    if key in cache:
        return cache[key]
    n = datum.rank
    gens = set()
    for r in roots:
        mat = tuple(tuple(int(i == j) - r.vec[i] * r.coroot[j]
                          for j in range(n)) for i in range(n))
        gens.add(mat)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    group = {ident: ident}  # element -> inverse
    frontier = [ident]

    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                           for j in range(n)) for i in range(n))

    while frontier:
        nxt = []
        for m in frontier:
            minv = group[m]
            for g in gens:
                prod = mul(g, m)
                if prod not in group:
                    group[prod] = mul(minv, g)  # (g m)^{-1} = m^{-1} g
                    nxt.append(prod)
        frontier = nxt
    out = [tuple(tuple(inv[j][i] for j in range(n)) for i in range(n))
           for inv in group.values()]
    cache[key] = out
    return out


def _in_fraction_group(x: Fraction, gens) -> bool:
    if x == 0:
        return True
    if not gens:
        return False
    g = Fraction(0)
    for v in gens:
        g = _frac_gcd(g, v)
    return (x / g).denominator == 1


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    from math import gcd
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    num = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    den = a.denominator * b.denominator
    return Fraction(num, den)


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
    n = datum.rank
    # every point of L^temp has the split exponent vector of the base
    if p1.r != p2.r:
        return False
    # unitary parts: (u1 + U1) meets (u2 + U2) in (Q/Z)^n iff u1 - u2 lies
    # in U1 + U2, where U_i = Ann(_L_i X) is the unitary part of T^{L_i};
    # by Q/Z-duality U1 + U2 = Ann(_L_1 X cap _L_2 X).
    low1 = saturate([list(datum.simple_roots[i]) for i in c1], n) if c1 else []
    low2 = saturate([list(datum.simple_roots[i]) for i in c2], n) if c2 else []
    target = [(a - b) % 1 for a, b in zip(p1.u, p2.u)]
    return _annihilator_sum_contains(datum, low1, low2, target)


def _annihilator_sum_contains(datum, low1, low2, target):
    """Whether target (in (Q/Z)^n) lies in Ann(low1) + Ann(low2), where
    Ann(S) = {u : <x,u> in Z for all x in S}."""
    # Ann(low1) + Ann(low2) = Ann(span_Z(low1) cap span_Z(low2)) for
    # saturated sublattices; compute the intersection lattice.
    n = datum.rank
    if not low1 or not low2:
        return True  # one annihilator is everything
    inter = _lattice_intersection(low1, low2, n)
    if not inter:
        return True
    for x in inter:
        val = sum(Fraction(v) * target[i] for i, v in enumerate(x)) % 1
        if val != 0:
            return False
    return True


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
    real_points = [p for p in points if all(x == 0 for x in p.u)]
    vectors = []
    ok = True
    for p in real_points:
        dom = dominant_split_representative(datum, p)
        vals = [sum(Fraction(v) * dom.r[i] for i, v in enumerate(
            datum.simple_roots[j])) / f for j in range(datum.n_simple)]
        vectors.append(tuple(vals))
        if any(v not in (0, 1) for v in vals):
            ok = False
        for root in datum.roots:
            if (dom.value_of(root.vec)[1] / f).denominator != 1:
                ok = False
    return ok, sorted(vectors)


# -- Casselman criteria --------------------------------------------------------


def casselman_tempered(weights, datum: RootDatum) -> bool:
    """All weights satisfy |x(t)| <= 1 for x in X+ (label base q > 1):
    split exponents pair <= 0 with the dominant cone generators and are
    zero on the central directions."""
    rays = datum.fundamental_coweight_rays()
    central = datum.central_lattice()
    for t in weights:
        for ray in rays:
            if sum(Fraction(c) * t.r[i] for i, c in enumerate(ray)) > 0:
                return False
        for z in central:
            if sum(Fraction(c) * t.r[i] for i, c in enumerate(z)) != 0:
                return False
    return True


def casselman_discrete(weights, datum: RootDatum) -> bool:
    """All weights satisfy |x(t)| < 1 for 0 != x in X+: requires trivial
    central lattice and strictly negative pairings on the cone."""
    if datum.central_lattice():
        return False
    rays = datum.fundamental_coweight_rays()
    for t in weights:
        for ray in rays:
            if sum(Fraction(c) * t.r[i] for i, c in enumerate(ray)) >= 0:
                return False
    return True


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
    return TorusPoint.make([0] * datum.rank, sol)


def trivial_point(datum: RootDatum, labels: LabelFunction) -> TorusPoint:
    return steinberg_point(datum, labels).inverse()
