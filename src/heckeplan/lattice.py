"""Exact integer/rational linear algebra: Smith normal form, lattice
quotients, and affine solving over the rationals.

Matrices are plain lists of rows; integer matrices hold ints, rational
ones hold ``fractions.Fraction``.  Every linear system is solved by one
routine, `gauss_jordan`: fraction-free elimination of a numpy stack of
integer augmented matrices.  The Fraction-valued solvers scale their
rows to integers and call it.  The adjugates of every n-subset of a set
of rows (`subset_adjugates`) come from one table of minors instead.
Everything here is exact -- no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm, prod
from operator import mul

IntMatrix = list[list[int]]
RatMatrix = list[list[Fraction]]
RatVector = list[Fraction]

INFINITE = float("inf")


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Matrix product; works for int or Fraction entries."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (d, u, v) with u*m*v = d, d diagonal with d1 | d2 | ...,
    and u, v unimodular.

    >>> d, u, v = smith_normal_form([[2, 0], [0, 3]])
    >>> [d[0][0], d[1][1]]
    [1, 6]
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(r) for r in m]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in d:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # find smallest nonzero entry in the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if d[t][t] < 0:
            negate_row(t)
        # clear the edging; restart if a remainder appears
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t] != 0:
                add_row(t, i, -(d[i][t] // d[t][t]))
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j] != 0:
                add_col(t, j, -(d[t][j] // d[t][t]))
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by d[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    return d, u, v


def snf_diagonal(m: IntMatrix) -> list[int]:
    d, _, _ = smith_normal_form(m)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def torsion_order(sublattice_generators: IntMatrix, ambient_rank: int):
    """Order of the torsion part of Z^n / (column span of the generators).

    Returns INFINITE when the generators do not span full rank over Q
    (the quotient then has a free part).
    """
    if not sublattice_generators or not sublattice_generators[0]:
        return 1 if ambient_rank == 0 else INFINITE
    if len(sublattice_generators) != ambient_rank:
        raise ValueError("generator columns must live in Z^ambient_rank")
    diag = snf_diagonal(sublattice_generators)
    nonzero = [x for x in diag if x != 0]
    if len(nonzero) < ambient_rank:
        return INFINITE
    order = 1
    for x in nonzero:
        order *= abs(x)
    return order


def quotient_dual_numerators(generators: IntMatrix, ambient_rank: int):
    """The character group of Z^n / (column span of the generators), which
    must be finite, as integers: (den, elements) with den the lcm of the
    Smith diagonal and each element u in (Q/Z)^n given by the integer
    vector den * u with entries in [0, den).  Elements are sorted and
    start with 0."""
    n = ambient_rank
    if n == 0:
        return 1, [()]
    d, u, _ = smith_normal_form(generators)
    diag = [abs(d[i][i]) for i in range(min(len(d), len(d[0])))]
    if len([x for x in diag if x != 0]) < n:
        raise ValueError("quotient is infinite")
    den = lcm(*diag[:n])
    # u = U^T w for w_j = c_j / diag_j, c_j in [0, diag_j)
    scaled = [[x * (den // diag[j]) for j, x in enumerate(row)]
              for row in transpose(u)]
    out = {tuple(sum(map(mul, row, combo)) % den for row in scaled)
           for combo in product(*(range(x) for x in diag[:n]))}
    return den, sorted(out)


def quotient_dual_elements(generators: IntMatrix, ambient_rank: int):
    """All u in (Q/Z)^n pairing integrally with every generator column.

    This is the character group of Z^n / (column span); the quotient must
    be finite.  Elements are returned as tuples of Fractions in [0, 1),
    sorted, starting with 0.
    """
    den, elems = quotient_dual_numerators(generators, ambient_rank)
    return [tuple(Fraction(x, den) for x in e) for e in elems]


# -- the one exact solver: fraction-free Gauss-Jordan elimination ------------


INT64_SAFE = 1 << 62        # bound on every int64 intermediate


def _hadamard_square(aug):
    """A bound on the square of every minor of every matrix in the integer
    stack: the product of the largest squared row norms, as many as a
    minor has rows, taken position by position over the stack."""
    import numpy as np
    if aug.dtype != object and aug.shape[2] < 64 and \
            -(1 << 28) < aug.min(initial=0) and aug.max(initial=0) < 1 << 28:
        sq = np.einsum("ijk,ijk->ij", aug, aug)
    else:
        sq = (aug.astype(object) ** 2).sum(axis=2)
    top = np.sort(sq, axis=1)[:, ::-1].max(axis=0, initial=0)
    return prod(max(1, int(x)) for x in top[:min(aug.shape[1:])])


def gauss_jordan(aug, cols):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968)
    of a stack of integer augmented matrices [A | B], shape (count, rows,
    cols + k), pivoting in the first `cols` columns only.

    Returns (red, pivot, pivots).  `pivots` (count, cols) marks the pivot
    columns of A; the t-th pivot row of red holds its pivot in the t-th
    marked column, and every pivot of a matrix equals pivot[i].  So red /
    pivot is the reduced row echelon form of [A | B] over A's columns, and
    x = red[t, cols + j] / pivot on the pivot columns (zero elsewhere)
    solves A x = B_j unless a row past the rank has a nonzero entry in
    B_j.  Rows are swapped with a sign change, so a square invertible A
    ends with pivot det(A).

    Every entry is a minor of [A | B] at every step, so each division is
    exact and every intermediate is below twice the Hadamard bound
    squared: the stack runs on int64 while that is below 2^62 and on
    Python integers (dtype=object) above it.  The returned arrays have
    that dtype."""
    import numpy as np
    a = np.asarray(aug)
    count, rows = a.shape[:2]
    a = a.astype(np.int64 if 2 * _hadamard_square(a) < INT64_SAFE
                 else object)
    at = np.arange(count)
    row_index = np.arange(rows)
    pivot = np.ones(count, dtype=a.dtype)
    pivots = np.zeros((count, cols), dtype=bool)
    rank = np.zeros(count, dtype=np.intp)
    for c in range(cols):
        free = (a[:, :, c] != 0) & (row_index >= rank[:, None])
        has = free.any(axis=1)
        if not has.any():
            continue
        # swap the pivot row up to row r, negating the row moved down, so
        # that the pivots keep the sign of the determinant
        r = np.minimum(rank, rows - 1)
        src = np.where(has, free.argmax(axis=1), r)
        top = a[at, src]
        if (src != r).any():
            a[at, src] = -a[at, r]
            a[at, r] = top
        # every row: (p row - f top) / previous pivot, and the pivot row
        # put back; a matrix without a pivot in this column is left as it is
        p = np.where(has, top[:, c], 1)
        f = a[:, :, c] * has[:, None]
        a *= p[:, None, None]
        a -= f[:, :, None] * top[:, None, :]
        a //= np.where(has, pivot, 1)[:, None, None]
        a[at, r] = top
        pivot = np.where(has, p, pivot)
        pivots[:, c] = has
        rank += has
    return a, pivot, pivots


def subset_adjugates(rows, block):
    """Yield (subsets, adj, det) for the n-subsets S of the rows of an
    integer array (m, n), `block` subsets at a time in `combinations`
    order: adj(A_S) and det(A_S) for A_S the rows in S, singular or not.

    All come from one table of the (n - 1)-minors of `rows` by Laplace
    expansion: with s_0 < ... < s_{n-1} the rows of S, adj(A_S)[j][i] =
    (-1)^(i+j) minor(S minus s_i, columns minus j), and det(A_S) is the
    expansion along row 0.  Each minor is a cofactor of many subsets and
    is computed once.  A k-minor is at most N^k for N the largest row
    1-norm, so the work runs on int64 while N^n < INT64_SAFE and on Python
    integers (dtype=object) above it."""
    import numpy as np
    m, n = rows.shape
    if int(np.abs(rows).sum(axis=1).max(initial=0)) ** n >= INT64_SAFE:
        rows = rows.astype(object)
    # binom[x, k] = C(x, k): the colex ranks of the row subsets
    binom = np.array([[comb(x, k) for k in range(n + 1)]
                      for x in range(m + 1)], dtype=np.intp)
    minors = _minor_table(rows, n - 1, binom)
    sign = (-1) ** np.add.outer(np.arange(n), np.arange(n))
    for at in range(0, int(binom[m, n]), block):
        subsets = _combination_block(binom, n, at, at + block)
        # the colex rank of S minus s_i: the sum over l < i of
        # C(s_l, l + 1) and over l > i of C(s_l, l)
        up = binom[subsets, np.arange(1, n + 1)]
        down = binom[subsets, np.arange(n)]
        ranks = np.cumsum(up, axis=1) - up + \
            np.cumsum(down[:, ::-1], axis=1)[:, ::-1] - down
        # the minor without column j is column n - 1 - j of the table
        adj = (minors[ranks][:, :, ::-1] * sign).transpose(0, 2, 1)
        yield subsets, adj, (rows[subsets[:, 0]] * adj[:, :, 0]).sum(axis=1)


def _minor_table(rows, k, binom):
    """The k-minors of an integer array (m, n): row r of the table is the
    r-th k-subset T of the rows in colex order, column c the c-th k-subset
    C of the columns in `combinations` order.  Built level by level: the
    colex k-subsets with largest element t are the first C(t, k - 1)
    (k - 1)-subsets with t appended, and each minor is the expansion of
    the level below along that last row t."""
    import numpy as np
    m, n = rows.shape
    table = np.ones((1, 1), dtype=rows.dtype)
    for level in range(1, k + 1):
        counts = binom[:m, level - 1]
        last = np.repeat(np.arange(m), counts)
        head = np.arange(len(last)) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
        index = {c: i for i, c in enumerate(combinations(range(n),
                                                         level - 1))}
        cols = list(combinations(range(n), level))
        below, table = table, np.zeros((len(last), len(cols)),
                                       dtype=rows.dtype)
        for p in range(level):
            # column c[p] of each C: its entry in row t times the minor
            # of the rows below without that column
            term = rows[last[:, None], [c[p] for c in cols]] * \
                below[head[:, None], [index[c[:p] + c[p + 1:]] for c in cols]]
            if (level - 1 + p) % 2:
                table -= term
            else:
                table += term
    return table


def _combination_block(binom, n, start, stop):
    """The n-subsets of range(m) at positions start .. stop - 1 of
    `combinations` order, for binom the table C(x, k) over x <= m: the
    subset at position p is the image under x -> m - 1 - x of the subset
    of colex rank C(m, n) - 1 - p, unranked from its largest element."""
    import numpy as np
    m = len(binom) - 1
    rank = int(binom[m, n]) - 1 - np.arange(start, min(stop, binom[m, n]))
    out = np.empty((len(rank), n), dtype=np.intp)
    for k in range(n, 0, -1):
        t = np.searchsorted(binom[:, k], rank, side="right") - 1
        rank -= binom[t, k]
        out[:, n - k] = m - 1 - t
    return out


def _eliminate_rational(m, cols):
    """gauss_jordan on one rational augmented matrix, given as rows of ints
    or Fractions: each row is first scaled to integers by the lcm of its
    denominators, which changes neither the solutions nor the echelon
    form.  Returns (red rows as Python ints, pivot, pivot columns, the
    product of the row scales).  The Fraction-valued wrappers below are
    its only callers."""
    import numpy as np
    scale = 1
    rows = []
    for row in m:
        row = [Fraction(x) for x in row]
        s = lcm(1, *(x.denominator for x in row))
        scale *= s
        rows.append([x.numerator * (s // x.denominator) for x in row])
    width = len(rows[0]) if rows else cols
    aug = np.array(rows, dtype=object).reshape(1, len(rows), width)
    red, pivot, pivots = gauss_jordan(aug, cols)
    return (red[0].tolist(), int(pivot[0]),
            np.flatnonzero(pivots[0]).tolist(), scale)


@dataclass
class SolutionSet:
    """Result of solving A x = b over Q: empty, a unique point, or an
    affine subspace given by one point plus a kernel basis (from the
    reduced row echelon form, so the output is canonical)."""
    kind: str  # "empty" | "unique" | "affine"
    point: RatVector | None = None
    basis: list[RatVector] | None = None


def solve_affine(a: RatMatrix, b: RatVector) -> SolutionSet:
    """Exact solution set of A x = b over Q.

    >>> s = solve_affine([[1, 0], [0, 1]], [0, 0])
    >>> s.kind, s.point
    ('unique', [Fraction(0, 1), Fraction(0, 1)])
    """
    cols = len(a[0]) if a else 0
    red, pivot, pcols, _ = _eliminate_rational(
        [list(row) + [b[i]] for i, row in enumerate(a)], cols)
    if any(row[cols] for row in red[len(pcols):]):
        return SolutionSet("empty")
    point = [Fraction(0)] * cols
    for t, c in enumerate(pcols):
        point[c] = Fraction(red[t][cols], pivot)
    free = [c for c in range(cols) if c not in pcols]
    if not free:
        return SolutionSet("unique", point=point)
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for t, c in enumerate(pcols):
            vec[c] = Fraction(-red[t][f], pivot)
        basis.append(vec)
    return SolutionSet("affine", point=point, basis=basis)


def solve_unique(a: RatMatrix, b: RatVector) -> RatVector | None:
    """Shortcut: the unique solution of A x = b, or None."""
    s = solve_affine(a, b)
    return s.point if s.kind == "unique" else None


def int_rank(rows) -> int:
    """Rank over Q of integer rows.

    >>> int_rank([[1, 2], [2, 4], [0, 1]])
    2
    """
    import numpy as np
    if not rows:
        return 0
    m = np.array([[int(x) for x in row] for row in rows], dtype=object)
    return int(gauss_jordan(m[None], m.shape[1])[2].sum())


def mat_inverse(a: RatMatrix) -> RatMatrix:
    """The inverse of a square rational matrix, as Fractions.

    >>> mat_inverse([[2, 1], [1, 1]])
    [[Fraction(1, 1), Fraction(-1, 1)], [Fraction(-1, 1), Fraction(2, 1)]]
    """
    n = len(a)
    red, pivot, pcols, _ = _eliminate_rational(
        [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)], n)
    if len(pcols) != n:
        raise ValueError("matrix not invertible")
    return [[Fraction(x, pivot) for x in row[n:]] for row in red]


def integer_kernel(m: IntMatrix) -> list[list[int]]:
    """Basis of the saturated integer kernel {x in Z^cols : m x = 0}."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [[int(i == j) for j in range(cols)] for i in range(cols)]
    d, _, v = smith_normal_form(m)
    rank = len([i for i in range(min(rows, cols)) if d[i][i] != 0])
    vt = transpose(v)
    return [list(vt[j]) for j in range(rank, cols)]


def saturate(vectors: list[list[int]], ambient_rank: int) -> list[list[int]]:
    """Basis of (Q-span of the vectors) intersect Z^n."""
    if not vectors:
        return []
    # kernel of the kernel: saturation without Hermite bookkeeping
    ker = integer_kernel(vectors)  # rows = vectors acting on Z^n? careful:
    # `vectors` as rows define a map Z^n -> Z^k by pairing; its kernel is the
    # orthogonal complement; the saturation is the kernel of that complement.
    return integer_kernel(ker) if ker else [
        [int(i == j) for j in range(ambient_rank)] for i in range(ambient_rank)]


def lattice_index(sub_basis: list[list[int]], ambient_basis: list[list[int]]) -> int:
    """Index [L : M] of one full-rank lattice inside another, both given by
    basis rows in common coordinates.

    >>> lattice_index([[2, 0], [1, 3]], [[1, 0], [0, 1]])
    6
    """
    k = len(ambient_basis)
    red, pivot, pcols, _ = _eliminate_rational(
        [list(col) + list(v) for col, v in zip(transpose(ambient_basis),
                                                 transpose(sub_basis))], k)
    if len(pcols) != k or any(any(row[k:]) for row in red[k:]):
        raise ValueError("bases not compatible")
    # the coordinates of the sub basis are red[:k, k:] / pivot
    det = rational_det([row[k:] for row in red[:k]]) / pivot ** k
    if det == 0:
        raise ValueError("sublattice not full rank")
    if det.denominator != 1:
        raise ValueError("not a sublattice")
    return abs(int(det))


def rational_det(a: RatMatrix) -> Fraction:
    """The determinant of a square rational matrix.

    >>> rational_det([[1, 2], [3, 4]])
    Fraction(-2, 1)
    """
    n = len(a)
    _, pivot, pcols, scale = _eliminate_rational(a, n)
    return Fraction(pivot if len(pcols) == n else 0, scale)
