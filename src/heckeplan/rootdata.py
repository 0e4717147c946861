"""Root data, Weyl groups, and label functions.

A root datum is stored relative to a fixed basis of the character lattice
``X``; root vectors are integer coordinate tuples with respect to that
basis and coroot vectors are integer tuples with respect to the dual
basis of ``Y``, so the canonical pairing is the dot product.  Everything
is generated from a Cartan matrix plus a lattice choice, which keeps all
coordinates integral for any lattice between the root lattice Q and the
weight lattice P.

Everything a datum derives from itself is a `functools.cached_property`
on `RootDatum`, computed on first use: the Weyl group with its int64
matrix stacks, the W0-orbits of the coroots, the root permutations, the
parabolic table, the parabolic classes, the unitary candidates with the
subset inverses of their graded search, and one memo filled on use: the
simple roots of graded root systems.  The parabolic table has one entry
per standard parabolic subset P of the simple roots (all 2^n), built in
one pass.  A root lies in R_P = span(P) cap R0 exactly when its
simple-root coordinates `alpha` are supported on P, so no rank is
computed; each entry also holds the sorted root-index key of R_P, the
saturated lattice of P, the group K_L of a coset with support R_P, and
the standard representative of the W0-class of P.  The pass that finds
the classes also groups the standard Weyl images of each representative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul

from .lattice import (
    INT64_SAFE,
    _product_dtype,
    gauss_jordan,
    integer_kernel,
    quotient_dual_numerators,
    saturate,
    solve_unique,
    transpose,
)

Vec = tuple[int, ...]


def cartan_matrix(family: str, n: int) -> list[list[int]]:
    """Cartan data with entries M[i][j] = <alpha_j, alpha_i^vee>."""
    def chain(size):
        m = [[0] * size for _ in range(size)]
        for i in range(size):
            m[i][i] = 2
            if i + 1 < size:
                m[i][i + 1] = m[i + 1][i] = -1
        return m

    if family == "A":
        return chain(n)
    if family == "B":
        if n < 2:
            raise ValueError("B_n needs n >= 2")
        m = chain(n)
        m[n - 1][n - 2] = -2
        return m
    if family == "C":
        if n < 2:
            raise ValueError("C_n needs n >= 2")
        m = chain(n)
        m[n - 2][n - 1] = -2
        return m
    if family == "D":
        if n < 3:
            raise ValueError("D_n needs n >= 3")
        m = chain(n - 1)
        for row in m:
            row.append(0)
        m.append([0] * n)
        m[n - 1][n - 1] = 2
        m[n - 3][n - 1] = m[n - 1][n - 3] = -1
        return m
    if family == "G" and n == 2:
        return [[2, -1], [-3, 2]]
    if family == "F" and n == 4:
        return [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    raise ValueError(f"unsupported type {family}{n}")


def parse_type(tag: str) -> tuple[str, int]:
    family = tag[0].upper()
    n = int(tag[1:])
    if n < 1:
        raise ValueError(f"rank of {tag} must be at least 1")
    if n > 5:
        raise ValueError("rank cap is 5")
    return family, n


def _integer_rows(rows):
    """(D, B): rational rows as integer rows B over one denominator D > 0."""
    den = lcm(1, *(Fraction(x).denominator for row in rows for x in row))
    return den, [[int(Fraction(x) * den) for x in row] for row in rows]


def _inverse_numerators(rows):
    """(num, det): the inverse of a square integer matrix is num / det,
    from one `gauss_jordan` solve against the identity."""
    import numpy as np
    n = len(rows)
    aug = np.array([list(row) + [int(i == j) for j in range(n)]
                    for i, row in enumerate(rows)],
                   dtype=object).reshape(1, n, 2 * n)
    red, pivot, pivots = gauss_jordan(aug, n)
    if not pivots.all():
        raise ValueError("matrix not invertible")
    return red[0, :, n:].tolist(), int(pivot[0])


@dataclass(frozen=True)
class Root:
    vec: Vec           # coordinates in the X basis
    coroot: Vec        # coordinates in the dual (Y) basis
    alpha: Vec         # coordinates in the simple-root basis

    @property
    def height(self):
        return sum(self.alpha)


class RootDatum:
    """Reduced root datum (X, Y, R0, R0^vee, F0) with derived data."""

    def __init__(self, simple_roots, simple_coroots, typename="custom",
                 lattice="custom", basis_in_alpha=None):
        self.rank = len(simple_roots[0]) if simple_roots else 0
        self.n_simple = len(simple_roots)
        self.simple_roots = [tuple(v) for v in simple_roots]
        self.simple_coroots = [tuple(v) for v in simple_coroots]
        self.typename = typename
        self.lattice = lattice
        # rows: basis of X written in simple-root coordinates (when known)
        self.basis_in_alpha = basis_in_alpha
        for a, av in zip(self.simple_roots, self.simple_coroots):
            if sum(x * y for x, y in zip(a, av)) != 2:
                raise ValueError("pairing <alpha, alpha^vee> must be 2")
        self._generate_roots()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_type(cls, tag: str, lattice="Q") -> "RootDatum":
        """Build a datum of the given Cartan type with X = Q, X = P, or an
        explicit intermediate lattice (basis rows in simple-root coords)."""
        family, n = parse_type(tag)
        m = cartan_matrix(family, n)
        if lattice == "Q":
            basis_rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        elif lattice == "P":
            # fundamental weight i in alpha coords solves <w_i, a_j^vee> =
            # d_ij: the basis rows are the columns of M^{-1}
            num, pivot = _inverse_numerators(m)
            basis_rows = [[Fraction(num[j][i], pivot) for j in range(n)]
                          for i in range(n)]
        else:
            basis_rows = [[Fraction(x) for x in row] for row in lattice]
        return cls._from_cartan(m, basis_rows, f"{family}{n}",
                                "Q" if lattice == "Q" else
                                "P" if lattice == "P" else "custom")

    @classmethod
    def _from_cartan(cls, m, basis_rows, typename, lattice_tag):
        """The datum whose X has the given basis rows in simple-root
        coordinates, B / D for an integer matrix B and D > 0: the simple
        roots are the rows of D B^{-1} and the simple coroot i has the
        coordinates (B M^T)[k][i] / D."""
        n = len(m)
        den, rows = _integer_rows(basis_rows)
        num, pivot = _inverse_numerators(rows)
        simple_roots = []
        for j in range(n):
            coords = [den * x for x in num[j]]
            if any(c % pivot for c in coords):
                raise ValueError("lattice does not contain the root lattice Q")
            simple_roots.append(tuple(c // pivot for c in coords))
        simple_coroots = []
        for i in range(n):
            coords = [sum(map(mul, rows[k], m[i])) for k in range(n)]
            if any(c % den for c in coords):
                raise ValueError("lattice is not contained in the weight lattice P")
            simple_coroots.append(tuple(c // den for c in coords))
        return cls(simple_roots, simple_coroots, typename=typename,
                   lattice=lattice_tag, basis_in_alpha=basis_rows)

    def _generate_roots(self):
        n = self.n_simple
        start = []
        for i in range(n):
            alpha = tuple(int(k == i) for k in range(n))
            start.append(Root(self.simple_roots[i], self.simple_coroots[i], alpha))
        seen = {r.vec: r for r in start}
        frontier = list(start)
        while frontier:
            nxt = []
            for r in frontier:
                for i in range(n):
                    p = sum(x * y for x, y in zip(r.vec, self.simple_coroots[i]))
                    vec = tuple(x - p * a for x, a in zip(r.vec, self.simple_roots[i]))
                    if vec in seen:
                        continue
                    pc = sum(x * y for x, y in zip(self.simple_roots[i], r.coroot))
                    cor = tuple(y - pc * c for y, c in
                                zip(r.coroot, self.simple_coroots[i]))
                    alpha = tuple(x - p * int(k == i) for k, x in enumerate(r.alpha))
                    nr = Root(vec, cor, alpha)
                    seen[vec] = nr
                    nxt.append(nr)
            frontier = nxt
        roots = sorted(seen.values(), key=lambda r: (r.height, r.alpha))
        self.roots = roots
        self.positive_roots = [r for r in roots if r.height > 0]
        self.root_by_vec = {r.vec: r for r in roots}
        self.coroot_by_vec = {r.vec: r.coroot for r in roots}
        # non-reduced system: alpha is doubled iff alpha^vee lies in 2Y
        self.doubled = {r.vec: all(c % 2 == 0 for c in r.coroot) for r in roots}
        self.r1 = [r for r in roots if not self.doubled[r.vec]] + \
                  [Root(tuple(2 * x for x in r.vec),
                        tuple(c // 2 for c in r.coroot),
                        tuple(2 * a for a in r.alpha))
                   for r in roots if self.doubled[r.vec]]
        self.r1.sort(key=lambda r: (r.height, r.alpha))
        self.r1_positive = [r for r in self.r1 if r.height > 0]

    # -- basic structure -------------------------------------------------

    def simple_reflection_matrix(self, i: int):
        """Matrix of s_i acting on X (rows act on column coordinate vectors)."""
        n = self.rank
        a, av = self.simple_roots[i], self.simple_coroots[i]
        return tuple(tuple(int(r == c) - a[r] * av[c] for c in range(n))
                     for r in range(n))

    def components(self) -> list[list[int]]:
        """Connected components of the Dynkin diagram: i and j are joined
        when <alpha_j, alpha_i^vee> != 0.  Sorted simple-index lists, in
        the order of their least index."""
        comps, left = [], list(range(self.n_simple))
        while left:
            comp, stack = set(), [left[0]]
            while stack:
                i = stack.pop()
                if i not in comp:
                    comp.add(i)
                    stack.extend(j for j in left if j not in comp and sum(map(
                        mul, self.simple_roots[j], self.simple_coroots[i])))
            comps.append(sorted(comp))
            left = [i for i in left if i not in comp]
        return comps

    def highest_coroot(self, comp: list[int]) -> Vec:
        """Highest coroot of an irreducible component: the first coroot of
        greatest height in simple-coroot coordinates, all heights from one
        solve."""
        import numpy as np
        cands = [r for r in self.positive_roots
                 if any(r.alpha[i] for i in comp) and
                 all(r.alpha[i] == 0 for i in range(self.n_simple)
                     if i not in comp)]
        k = self.n_simple
        aug = np.array([[c[t] for c in self.simple_coroots] +
                        [r.coroot[t] for r in cands]
                        for t in range(self.rank)], dtype=np.int64)
        red, pivot, _ = gauss_jordan(aug[None], k)
        # the heights are these sums over the pivot
        sums = red[0, :k, k:].sum(axis=0) * (1 if pivot[0] > 0 else -1)
        return cands[int(sums.argmax())].coroot

    def weight_index(self) -> int:
        """The index [X : Q], i.e. |Omega| for semisimple data."""
        if self.basis_in_alpha is None:
            raise ValueError("unknown lattice basis")
        # the basis rows B / D have determinant det(B) / D^n
        den, rows = _integer_rows(self.basis_in_alpha)
        try:
            det = _inverse_numerators(rows)[1]
        except ValueError:
            return 0
        return abs(int(Fraction(den ** len(rows), det)))

    def fundamental_coweight_rays(self):
        """Generating rays of the dominant cone X+ (rational vectors)."""
        a = [[Fraction(c) for c in av] for av in self.simple_coroots]
        rays = []
        for i in range(self.n_simple):
            rhs = [Fraction(int(k == i)) for k in range(self.n_simple)]
            sol = solve_unique(a, rhs)
            if sol is None:
                raise ValueError("semisimple datum required")
            rays.append(tuple(sol))
        return rays

    def central_lattice(self):
        """Basis of Z_X = {x in X : <x, alpha^vee> = 0 for all roots}."""
        rows = [list(av) for av in self.simple_coroots]
        return integer_kernel(rows)

    # -- Weyl group -------------------------------------------------------

    def weyl_elements(self) -> "WeylGroup":
        """Generate W0 by `reflection_closure` on the simple reflections,
        as its int64 stacks sorted by (length, word).  Each call generates
        the group anew; `weyl` holds it once generated."""
        import numpy as np
        if self.rank > 5:
            raise ValueError("rank cap exceeded for full Weyl enumeration")
        n = self.rank
        gens = np.array([self.simple_reflection_matrix(i)
                         for i in range(self.n_simple)],
                        dtype=np.int64).reshape(self.n_simple, n, n)
        mats, invts, words = reflection_closure(gens, n)
        return WeylGroup(mats, invts, words,
                         int(np.abs(invts).sum(axis=2).max(initial=0)))

    @cached_property
    def weyl(self) -> "WeylGroup":
        """W0, generated on first use by `weyl_elements`."""
        return self.weyl_elements()

    @cached_property
    def coroot_orbits(self) -> dict[tuple, int]:
        """Coroot vector -> id of its W0-orbit in Y, the ids numbered in
        the order in which `roots` first meets each orbit.  W0 acts on Y
        by the transposes A^T, which run over the inverse transposes."""
        import numpy as np
        orbit_of = {}
        orbits = 0
        for r in self.roots:
            if r.coroot not in orbit_of:
                images = np.array(r.coroot, dtype=np.int64) @ self.weyl.mats
                orbit_of.update(dict.fromkeys(map(tuple, images.tolist()),
                                              orbits))
                orbits += 1
        return orbit_of

    @cached_property
    def root_permutations(self):
        """For each Weyl element the permutation it induces on the sorted
        root list, as an int32 array (|W0|, |R0|).

        A root r is keyed by <radix, r>, radix the powers of 2b + 1 for b
        the largest root entry, so distinct roots get distinct keys; the
        keys of the images A r are (radix A) r, looked up among the sorted
        keys."""
        import numpy as np
        roots = np.array([r.vec for r in self.roots],
                         dtype=np.int64).reshape(-1, self.rank)
        base = 2 * int(np.abs(roots).max(initial=0)) + 1
        radix = base ** np.arange(self.rank, dtype=np.int64)
        keys = roots @ radix
        order = np.argsort(keys)
        image_keys = (radix @ self.weyl.mats) @ roots.T
        pos = np.searchsorted(keys[order], image_keys).clip(max=len(keys) - 1)
        if len(keys) and not (keys[order][pos] == image_keys).all():
            raise RuntimeError("a Weyl image of a root is not a root")
        return order[pos].astype(np.int32)

    # -- standard parabolic subsets ----------------------------------------

    @cached_property
    def parabolics(self) -> dict[tuple, "Parabolic"]:
        """The parabolic table: every standard parabolic subset P (a
        sorted tuple of simple-root indices, by size and then
        lexicographically) -> its Parabolic entry.  The first subset of
        each W0-class is its representative.  Looking up the bit mask of
        each Weyl image of its R_P among the masks of the standard R_Q
        finds the members of the class and groups the Weyl elements by the
        member they carry R_P onto, the representative's `images`."""
        import numpy as np
        n = self.n_simple
        subsets = [c for size in range(n + 1)
                   for c in combinations(range(n), size)]

        def supported(alpha, combo):
            return all(a == 0 for i, a in enumerate(alpha) if i not in combo)

        roots = {c: [r for r in self.roots if supported(r.alpha, c)]
                 for c in subsets}
        index = {r.vec: k for k, r in enumerate(self.roots)}
        keys = {c: tuple(sorted(index[r.vec] for r in roots[c]))
                for c in subsets}
        # W0-classes: the images of R_P that are some R_Q, Q standard
        subset_of_mask = {_root_mask(key): c for c, key in keys.items()}
        rep, images = {}, {}
        for combo in subsets:
            if combo in rep:
                continue
            groups = {}
            for g, mask in enumerate(_image_masks(self, keys[combo])):
                member = subset_of_mask.get(mask)
                if member is not None:
                    groups.setdefault(member, []).append(g)
            rep.update(dict.fromkeys(groups, combo))
            images[combo] = {member: np.array(gs, dtype=np.intp)
                             for member, gs in groups.items()}
        return {c: Parabolic(
            indices=c, roots=roots[c], key=keys[c],
            r1_vecs=frozenset(r.vec for r in self.r1 if supported(r.alpha, c)),
            rep=rep[c], images=images.get(c), **self._k_group(c))
            for c in subsets}

    def _k_group(self, combo):
        """The saturated lattice of the simple roots in `combo` and K_L =
        T_L cap T^L for a coset L with R_L = R_combo, as Parabolic fields."""
        n = self.rank
        if not combo:
            return {"lattice": [], "k_den": 1, "k_elems": [(0,) * n]}
        low = saturate([list(self.simple_roots[i]) for i in combo], n)
        up = integer_kernel([list(self.simple_coroots[i]) for i in combo])
        den, elems = quotient_dual_numerators(transpose(low + up), n)
        return {"lattice": low, "k_den": den, "k_elems": elems}

    @cached_property
    def parabolic_classes(self) -> list["ParabolicClass"]:
        """Standard parabolic subsets up to W0-conjugacy: the quotient
        datum of each class representative, including the empty set and
        all of F0, with the size of its class."""
        sizes = {}
        for p in self.parabolics.values():
            sizes[p.rep] = sizes.get(p.rep, 0) + 1
        classes = []
        for combo, size in sizes.items():
            pc = parabolic_quotient(self, combo)
            pc.orbit_size = size
            classes.append(pc)
        return classes

    @cached_property
    def unitary_candidates(self):
        """The unitary candidates of `residual.unitary_candidates`, which
        depend on the datum only."""
        from .residual import unitary_candidates
        return unitary_candidates(self)

    @cached_property
    def graded_simples(self) -> dict:
        """Tuple of roots -> the simple roots of their graded system, as
        `_graded_simples` returns them; filled on use."""
        return {}

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "type": self.typename,
            "lattice": self.lattice,
            "basis_in_alpha": [[str(x) for x in row]
                               for row in (self.basis_in_alpha or [])],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RootDatum":
        if data["lattice"] in ("Q", "P"):
            return cls.from_type(data["type"], data["lattice"])
        basis = [[Fraction(x) for x in row] for row in data["basis_in_alpha"]]
        return cls.from_type(data["type"], basis)


def _distinct_rows(rows):
    """Ascending indices of the first occurrence of each distinct row of
    an integer array (a stable lexsort: np.unique(axis=0) loads numpy.ma)."""
    import numpy as np
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return np.sort(order[first])


def _least_rows(rows, size):
    """The index of the lexicographically least row in each consecutive
    group of `size` rows."""
    import numpy as np
    owner = np.repeat(np.arange(len(rows) // size), size)
    return np.lexsort((*rows.T[::-1], owner))[::size]


def _root_mask(key):
    """The bit mask of a set of roots: the sum of 2^i over their indices
    i in `RootDatum.roots`."""
    return sum(1 << i for i in key)


def _image_masks(datum, key):
    """The bit mask of the image of the roots with indices `key` under
    each Weyl element, in the order of `datum.weyl`.  A mask fits int64:
    the Weyl group caps the rank at 5, and no datum of rank <= 5 has more
    than 50 roots."""
    import numpy as np
    images = datum.root_permutations[:, list(key)].astype(np.int64)
    return (1 << images).sum(axis=1).tolist()


def _abs_vec(root):
    return root.vec if root.height > 0 else tuple(-v for v in root.vec)


def _in_graded_system(datum, un, den, roots):
    """(k, m) booleans from the u numerators over den that
    `residual.pairings` gives: whether alpha(s) = 1 at the unitary part s,
    or alpha(s) = -1 on a doubled root."""
    import numpy as np
    doubled = np.array([datum.doubled[r.vec] for r in roots], dtype=bool)
    return np.where(doubled, 2 * un % den == 0, un == 0)


def _graded_simples(datum, roots):
    """(simple roots, their coroots, largest root 1-norm) of the graded
    system `roots`, roots of R0 closed under their own reflections: int64
    stacks (m, n) of its positive roots that are no sum of two of them.
    They do not depend on the labels; the datum's `graded_simples` keeps
    them by the tuple of roots."""
    import numpy as np
    key = tuple(roots)
    memo = datum.graded_simples
    if key not in memo:
        positives = [r for r in key if r.height > 0]
        vecs = {r.vec for r in positives}
        simple = [r for r in positives if not any(
            tuple(a - b for a, b in zip(r.vec, p.vec)) in vecs
            for p in positives)]
        memo[key] = (*(np.array(v, dtype=np.int64).reshape(-1, datum.rank)
                       for v in ([r.vec for r in simple],
                                 [r.coroot for r in simple])),
                     max((sum(map(abs, v)) for v in vecs), default=0))
    return memo[key]


def _graded_dominant(datum, roots, rows):
    """Integer split numerators (k, n) walked to the dominant chamber of
    the graded system `roots`, vectorised over rows: while a simple root
    pairs negatively with gamma, gamma <- gamma - alpha(gamma) alpha^vee
    for the most negative alpha(gamma).  Each step lowers the count of
    positive roots negative on gamma by one.  Every orbit of the graded
    Weyl group meets the closed chamber once (Humphreys, Reflection Groups
    and Coxeter Groups, 1.12), so the walked row is a complete invariant
    of the orbit.  Each step is a W0 image, bounded by the Weyl group's
    `invt_norm` times the first row, and alpha(gamma) is the value of a
    graded root at the first row; so the width is that of `_product_dtype`
    at the larger bound: Python integers past int64."""
    import numpy as np
    simple, cors, top = _graded_simples(datum, roots)
    rows = rows.astype(_product_dtype(max(datum.weyl.invt_norm, top), 1,
                                      rows))
    simple = simple.T.astype(rows.dtype)
    while simple.size:
        vals = rows @ simple
        step = np.minimum(vals.min(axis=1), 0)
        if not step.any():
            break
        rows -= step[:, None] * cors[vals.argmin(axis=1)].astype(rows.dtype)
    return rows


def _level_step(gens, level, previous):
    """One level of a breadth-first walk on a Coxeter group, in which a
    generator moves an element of length l to length l - 1 or l + 1.

    `gens` (k, m, m), `level` and `previous` (count, m, m) are integer
    stacks: the elements of length l and of length l - 1.  The products
    g @ a of the level with the generators are taken in the order
    (element a, generator g); a product is new when it is not in
    `previous` and no earlier product equals it.  Returns (j, gi, new):
    for each new product, ascending in that order, the index of its
    element and of its generator, and the new products (count, m, m)."""
    import numpy as np
    m = gens.shape[-1]
    prods = (gens[None] @ level[:, None]).reshape(-1, m * m)
    new = _distinct_rows(np.concatenate([previous.reshape(-1, m * m),
                                         prods]))
    new = new[new >= len(previous)] - len(previous)
    j, gi = np.divmod(new, len(gens))
    return j, gi, prods[new].reshape(-1, m, m)


def reflection_closure(gens, n):
    """The group generated by the reflections in the int64 stack `gens`
    (k, n, n), with the inverse transposes and a word for each element:
    (mats, invts, words), both stacks int64 (order, n, n), sorted by
    (length, word).

    Breadth-first, one length at a time by `_level_step`, which keeps the
    first product found of each new element; each level is then sorted
    by word, the word of g_i A being (i,) + the word of A.  Every
    generator has determinant -1, so a product of length l is of length
    l +- 1.  The inverse transposes come along, since (g A)^{-T} =
    g^T A^{-T} for the involution g."""
    import numpy as np
    gens_t = gens.transpose(0, 2, 1)
    mats = [np.eye(n, dtype=np.int64)[None]]
    invts = [mats[0]]
    words = [()]
    level_words = [()]
    previous = mats[0][:0]
    while level_words and len(gens):
        j, gi, new = _level_step(gens, mats[-1], previous)
        cand = [(i,) + level_words[k]
                for k, i in zip(j.tolist(), gi.tolist())]
        by_word = sorted(range(len(cand)), key=cand.__getitem__)
        level_words = [cand[t] for t in by_word]
        words.extend(level_words)
        j, gi = j[by_word], gi[by_word]
        previous = mats[-1]
        mats.append(new[by_word])
        invts.append(gens_t[gi] @ invts[-1][j])
    mats = np.concatenate(mats)
    invts = np.concatenate(invts)
    if not (mats @ invts.transpose(0, 2, 1) == np.eye(n)).all():
        raise RuntimeError("inverse transposes do not invert the group")
    return mats, invts, words


@dataclass(frozen=True, eq=False)
class WeylGroup:
    """W0 as int64 stacks (|W0|, rank, rank) sorted by (length, word): the
    matrices A and their inverse transposes A^{-T}, with a reduced word of
    each element and the largest row 1-norm of A^{-T}, which bounds
    |A^{-T} v| / max|v|."""
    mats: object
    invts: object
    words: list
    invt_norm: int

    def __len__(self):
        return len(self.words)


class LabelFunction:
    """Root labels q(s) = q^{f_s}, stored per positive root as the pair
    (f0, f1) of exponents of q_{alpha^vee} and q_{alpha^vee + 1}.  The two
    differ only on roots whose coroot lies in 2Y."""

    def __init__(self, datum: RootDatum, pairs: dict, node_values=None):
        self.datum = datum
        self.pairs = dict(pairs)  # root vec -> (Fraction f0, Fraction f1)
        for r in datum.roots:
            if r.vec not in self.pairs:
                raise ValueError("label missing for a root")
            f0, f1 = self.pairs[r.vec]
            if not datum.doubled[r.vec] and f0 != f1:
                raise ValueError("f1 must equal f0 on non-doubled roots")
        self.node_values = node_values
        # root vec -> (a, b): alpha(t) = q^a and -q^b are its pole values
        self.thresholds = {vec: ((f0 + f1) / 2, (f1 - f0) / 2)
                           for vec, (f0, f1) in self.pairs.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def equal(cls, datum, f=Fraction(1)) -> "LabelFunction":
        f = Fraction(f)
        return cls(datum, {r.vec: (f, f) for r in datum.roots},
                   node_values=None)

    @classmethod
    def from_affine_nodes(cls, datum, values) -> "LabelFunction":
        """Labels from one exponent per affine Dynkin node, the affine node
        first and then F0 in order.  Conjugation-invariance is enforced.

        The value at node a is q(s_a) = q_{a+1}, so a finite node with
        doubled coroot sets the odd-translation class of its direction and
        the affine node sets the even one.
        """
        if len(datum.components()) != 1:
            raise ValueError("affine-node labels need an irreducible datum")
        values = [Fraction(v) for v in values]
        if len(values) != datum.n_simple + 1:
            raise ValueError("expected one value per affine node")
        class_value = {}
        for key, value in zip(affine_node_class_keys(datum), values):
            if class_value.setdefault(key, value) != value:
                raise ValueError("labels must agree on conjugate reflections")
        orbits = datum.coroot_orbits
        pairs = {}
        for r in datum.roots:
            orb = orbits[r.coroot]
            f0 = class_value[(orb, 0)]
            if datum.doubled[r.vec]:
                f1 = class_value[(orb, 1)]
            else:
                f1 = f0
            pairs[r.vec] = (f0, f1)
        return cls(datum, pairs, node_values=[str(v) for v in values])

    # -- derived exponents --------------------------------------------------

    def f0(self, vec) -> Fraction:
        return self.pairs[vec][0]

    def f1(self, vec) -> Fraction:
        return self.pairs[vec][1]

    def pole_exponent(self, vec) -> Fraction:
        """a with alpha(L) = q^a the positive pole value, i.e. the exponent
        of q_{alpha^vee/2}^{1/2} q_{alpha^vee}."""
        return self.thresholds[vec][0]

    def minus_pole_exponent(self, vec) -> Fraction:
        """b with alpha(L) = -q^b the negative pole value, i.e. the exponent
        of q_{alpha^vee/2}^{1/2}."""
        return self.thresholds[vec][1]

    def q_exponent(self, roots) -> Fraction:
        """Exponent of the product of q_{alpha^vee} over the positive roots
        among `roots`: the sum of their f1, which is f0 off the doubled
        roots."""
        return sum((self.pairs[r.vec][1] for r in roots if r.height > 0),
                   Fraction(0))

    def q_w0_exponent(self) -> Fraction:
        """Exponent of q(w0) = prod over R_nr,+ of q_{alpha^vee}."""
        return self.q_exponent(self.datum.positive_roots)

    def scaled(self, eps: Fraction) -> "LabelFunction":
        eps = Fraction(eps)
        return LabelFunction(
            self.datum,
            {v: (f0 * eps, f1 * eps) for v, (f0, f1) in self.pairs.items()})

    def restrict(self, sub_datum, vec_map) -> "LabelFunction":
        """Restriction to a parabolic datum; vec_map sends sub-root vectors
        to parent root vectors."""
        pairs = {}
        for r in sub_datum.roots:
            pairs[r.vec] = self.pairs[vec_map[r.vec]]
        return LabelFunction(sub_datum, pairs)

    def to_json(self) -> dict:
        if self.node_values is not None:
            return {"node_labels": self.node_values}
        return {"root_labels": {",".join(map(str, v)): [str(f0), str(f1)]
                                for v, (f0, f1) in sorted(self.pairs.items())}}


def affine_node_class_keys(datum: RootDatum):
    """Conjugacy-class key of each affine Dynkin node (affine node first,
    then F0): nodes with equal keys must carry equal labels."""
    comps = datum.components()
    if len(comps) != 1:
        raise ValueError("irreducible datum required")
    orbits = datum.coroot_orbits
    theta_vee = datum.highest_coroot(comps[0])
    # affine node (m^vee, 1): q(s_0) = q_{(m^vee, 2)}, i.e. parity 0
    keys = [(orbits[theta_vee], 0)]
    for i in range(datum.n_simple):
        cor = datum.simple_coroots[i]
        parity = 1 if all(c % 2 == 0 for c in cor) else 0
        keys.append((orbits[cor], parity))
    return keys


RANDOM_LABEL_CHOICES = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
                        Fraction(3, 2), Fraction(5, 2))


def random_label_vector(datum: RootDatum, rng):
    """A valid random label vector (one value per affine node, constant on
    conjugacy classes), drawn from RANDOM_LABEL_CHOICES."""
    keys = affine_node_class_keys(datum)
    assignment = {}
    for k in keys:
        if k not in assignment:
            assignment[k] = rng.choice(RANDOM_LABEL_CHOICES)
    return [assignment[k] for k in keys]


def affine_generator_exponents(datum: RootDatum, labels: LabelFunction):
    """Exponents of q(s_a) for the affine Coxeter generators, affine node
    first then F0, matching the node order of from_affine_nodes."""
    comps = datum.components()
    if len(comps) != 1:
        raise ValueError("irreducible datum required")
    theta_vee = datum.highest_coroot(comps[0])
    theta_root = next(r for r in datum.positive_roots
                      if r.coroot == theta_vee)
    out = [labels.f0(theta_root.vec)]
    for i in range(datum.n_simple):
        out.append(labels.f1(datum.simple_roots[i]))
    return out


# -- parabolic subsystems ----------------------------------------------------


@dataclass(frozen=True)
class Parabolic:
    """One entry of the parabolic table: a standard parabolic subset P of
    the simple roots and what the cosets L with R_L = R_P are built from."""
    indices: tuple            # P, sorted simple-root indices
    roots: list               # R_P: the roots with alpha supported on P
    key: tuple                # sorted indices of R_P in datum.roots
    r1_vecs: frozenset        # the roots of R1 with alpha supported on P
    lattice: list             # basis rows of span(P) cap X
    k_den: int                # K_L = T_L cap T^L, as integer u-vectors
    k_elems: list             # over k_den
    rep: tuple                # the standard representative of P's W0-class
    # on a class representative: each standard Q conjugate to P -> the
    # ascending indices of the Weyl elements that map R_P onto R_Q; None
    # on the other entries
    images: dict = field(default=None, compare=False, repr=False)

    def k_rows(self, den):
        """K_L as (k, n) numerators over den, each below den."""
        import numpy as np
        return np.array(self.k_elems, dtype=np.int64 if den < INT64_SAFE
                        else object) * (den // self.k_den)


@dataclass
class ParabolicClass:
    indices: tuple            # subset of simple-root indices (standard rep)
    roots: list               # parent Root objects of R_P
    sub_datum: RootDatum      # the quotient datum R_P = (X_P, Y_P, ...)
    y_basis: list             # rows: basis of Y_P in Y coordinates
    vec_map: dict             # sub root vec -> parent root vec
    orbit_size: int           # number of standard subsets conjugate to this one


def parabolic_subsystem_roots(datum: RootDatum, indices) -> list:
    """R_P = QP intersected with R0 for a subset P of simple roots."""
    return datum.parabolics[tuple(sorted(indices))].roots


def parabolic_quotient(datum: RootDatum, indices) -> ParabolicClass:
    """The root datum R_P = (X_P, Y_P, R_P, R_P^vee, P) for a standard P.
    When the coroots of P span Y, that is the datum itself."""
    import numpy as np
    indices = tuple(sorted(indices))
    roots = parabolic_subsystem_roots(datum, indices)
    if not indices:
        sub = RootDatum([], [], typename="empty", lattice="sub")
        return ParabolicClass(indices, [], sub, [], {}, 1)
    if len(indices) == datum.rank:
        identity = [[int(i == j) for j in range(datum.rank)]
                    for i in range(datum.rank)]
        return ParabolicClass(indices, roots, datum, identity,
                              {r.vec: r.vec for r in roots}, 1)
    y_rows = saturate([list(datum.simple_coroots[i]) for i in indices],
                      datum.rank)
    k = len(y_rows)
    sub_simples = [tuple(sum(map(mul, datum.simple_roots[i], row))
                         for row in y_rows) for i in indices]
    # the coroots of P in the saturated basis, from one solve
    aug = np.array([[row[t] for row in y_rows] +
                    [datum.simple_coroots[i][t] for i in indices]
                    for t in range(datum.rank)], dtype=np.int64)
    red, pivot, pivots = gauss_jordan(aug[None], k)
    num, pivot = red[0], int(pivot[0])
    if not pivots.all() or num[k:, k:].any() or (num[:k, k:] % pivot).any():
        raise RuntimeError("coroot not integral in the saturated basis")
    sub_coroots = [tuple(c) for c in (num[:k, k:] // pivot).T.tolist()]
    sub = RootDatum(sub_simples, sub_coroots,
                    typename=f"{datum.typename}|{list(indices)}", lattice="sub")
    vec_map = {}
    for r in roots:
        sub_vec = tuple(sum(r.vec[t] * y_rows[j][t] for t in range(datum.rank))
                        for j in range(k))
        if sub_vec in sub.root_by_vec:
            vec_map[sub_vec] = r.vec
    if len(vec_map) != len(sub.roots):
        raise RuntimeError("parabolic quotient roots do not match")
    return ParabolicClass(indices, roots, sub, y_rows, vec_map, 1)


def parabolic_classes(datum: RootDatum) -> list[ParabolicClass]:
    """The standard parabolic subsets up to W0-conjugacy, as
    `RootDatum.parabolic_classes` holds them."""
    return datum.parabolic_classes


def restrict_labels(labels: LabelFunction, pc: ParabolicClass) -> LabelFunction:
    if not pc.indices:
        return LabelFunction(pc.sub_datum, {})
    return labels.restrict(pc.sub_datum, pc.vec_map)


# -- serialization helpers -----------------------------------------------


def datum_labels_to_json(datum: RootDatum, labels: LabelFunction) -> str:
    return json.dumps({"datum": datum.to_json(), "labels": labels.to_json()},
                      indent=1, sort_keys=True)


def datum_labels_from_json(text: str):
    data = json.loads(text)
    datum = RootDatum.from_json(data["datum"])
    lab = data["labels"]
    if "node_labels" in lab:
        labels = LabelFunction.from_affine_nodes(
            datum, [Fraction(v) for v in lab["node_labels"]])
    else:
        pairs = {}
        for key, (f0, f1) in lab["root_labels"].items():
            vec = tuple(int(x) for x in key.split(","))
            pairs[vec] = (Fraction(f0), Fraction(f1))
        labels = LabelFunction(datum, pairs)
    return datum, labels
