"""Exact integer/rational linear algebra: Smith normal form, lattice
quotients, and exact solving over the rationals.

Matrices are plain lists of rows of ints (or of Fractions, for
`solve_unique`) or numpy stacks of integers.  Every linear system is
solved by one routine, `gauss_jordan`: fraction-free elimination of a
numpy stack of integer augmented matrices.  `solve_unique`, the one
Fraction-valued solve, scales its rows to integers and calls it.  The
adjugates of every n-subset of a set of rows (`subset_adjugates`) come
from one table of minors instead.
Everything here is exact -- no floats.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm, prod
from operator import mul

IntMatrix = list[list[int]]
RatMatrix = list[list[Fraction]]
RatVector = list[Fraction]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


# -- the one exact solver: fraction-free Gauss-Jordan elimination ------------


INT64_SAFE = 1 << 62        # bound on every int64 intermediate


def _product_dtype(norm, den, rows):
    """int64 when integer rows over den and their product by a matrix of
    row 1-norm at most `norm` stay below INT64_SAFE; object otherwise."""
    import numpy as np
    top = max(1, norm) * max(den, int(np.abs(rows).max(initial=0)))
    return np.dtype(np.int64 if top < INT64_SAFE else object)


def _int_width(bound):
    """The narrowest integer dtype that holds every integer of absolute
    value at most `bound`."""
    import numpy as np
    for bits in (8, 16, 32, 64):
        if bound < 1 << (bits - 1):
            return np.dtype(f"int{bits}")
    return np.dtype(object)


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
    form.  Returns (red rows as Python ints, pivot, pivot columns)."""
    import numpy as np
    rows = []
    for row in m:
        row = [Fraction(x) for x in row]
        s = lcm(1, *(x.denominator for x in row))
        rows.append([x.numerator * (s // x.denominator) for x in row])
    width = len(rows[0]) if rows else cols
    aug = np.array(rows, dtype=object).reshape(1, len(rows), width)
    red, pivot, pivots = gauss_jordan(aug, cols)
    return red[0].tolist(), int(pivot[0]), np.flatnonzero(pivots[0]).tolist()


def solve_unique(a: RatMatrix, b: RatVector) -> RatVector | None:
    """The unique solution of A x = b over Q, as Fractions, or None when
    there is no solution or more than one.

    >>> solve_unique([[1, 0], [0, 1]], [0, 0])
    [Fraction(0, 1), Fraction(0, 1)]
    """
    cols = len(a[0]) if a else 0
    red, pivot, pcols = _eliminate_rational(
        [list(row) + [b[i]] for i, row in enumerate(a)], cols)
    if len(pcols) < cols or any(row[cols] for row in red[cols:]):
        return None
    return [Fraction(row[cols], pivot) for row in red[:cols]]


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


def _lattice_intersection(rows1, rows2, n):
    """Basis of the intersection of two saturated sublattices of Z^n."""
    comp1 = integer_kernel(rows1)
    comp2 = integer_kernel(rows2)
    combined = comp1 + comp2
    if not combined:
        return [[int(i == j) for j in range(n)] for i in range(n)]
    return integer_kernel(combined)


def saturate(vectors: list[list[int]], ambient_rank: int) -> list[list[int]]:
    """Basis of (Q-span of the vectors) intersect Z^n."""
    if not vectors:
        return []
    # kernel of the kernel, with no Hermite bookkeeping: the vectors as
    # rows map Z^n -> Z^k by pairing, the kernel of that map is their
    # orthogonal complement, and the integer kernel of the complement's
    # basis rows is the span of the vectors intersected with Z^n
    ker = integer_kernel(vectors)
    return integer_kernel(ker) if ker else [
        [int(i == j) for j in range(ambient_rank)] for i in range(ambient_rank)]
