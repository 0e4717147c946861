"""Exact integer/rational linear algebra: Smith normal form, lattice
quotients, and affine solving over the rationals.

Matrices are plain lists of rows; integer matrices hold ints, rational
ones hold ``fractions.Fraction``.  Everything here is exact -- no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

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


def quotient_dual_elements(generators: IntMatrix, ambient_rank: int):
    """All u in (Q/Z)^n pairing integrally with every generator column.

    This is the character group of Z^n / (column span); the quotient must
    be finite.  Elements are returned as tuples of Fractions in [0, 1),
    sorted, starting with 0.
    """
    n = ambient_rank
    if n == 0:
        return [()]
    d, u, _ = smith_normal_form(generators)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    if len([x for x in diag if x != 0]) < n:
        raise ValueError("quotient is infinite")
    ranges = [range(abs(x)) for x in diag[:n]]
    out = set()
    ut = transpose(u)
    for combo in product(*ranges):
        w = [Fraction(c, abs(diag[i])) for i, c in enumerate(combo)]
        vec = tuple((sum(Fraction(ut[i][j]) * w[j] for j in range(n))) % 1
                    for i in range(n))
        out.add(vec)
    return sorted(out)


@dataclass
class SolutionSet:
    """Result of solving A x = b over Q: empty, a unique point, or an
    affine subspace given by one point plus a kernel basis (from the
    reduced row echelon form, so the output is canonical)."""
    kind: str  # "empty" | "unique" | "affine"
    point: RatVector | None = None
    basis: list[RatVector] | None = None


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form over Q; returns (rref, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def solve_affine(a: RatMatrix, b: RatVector) -> SolutionSet:
    """Exact solution set of A x = b over Q.

    >>> s = solve_affine([[1, 0], [0, 1]], [0, 0])
    >>> s.kind, s.point
    ('unique', [Fraction(0, 1), Fraction(0, 1)])
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if cols in pivots:
        return SolutionSet("empty")
    point = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        point[c] = red[r][cols]
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return SolutionSet("unique", point=point)
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(vec)
    return SolutionSet("affine", point=point, basis=basis)


def solve_unique(a: RatMatrix, b: RatVector) -> RatVector | None:
    """Shortcut: the unique solution of A x = b, or None."""
    s = solve_affine(a, b)
    return s.point if s.kind == "unique" else None


def int_rank(rows) -> int:
    """Rank over Q of integer rows, by fraction-free elimination."""
    m = [[int(x) for x in row] for row in rows]
    if not m:
        return 0
    cols = len(m[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][c]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c]
                m[i] = [lead * x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def mat_inverse(a: RatMatrix) -> RatMatrix:
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red]


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
    basis rows in common coordinates."""
    amb = [[Fraction(x) for x in row] for row in ambient_basis]
    coords = []
    for v in sub_basis:
        sol = solve_unique(transpose(amb), [Fraction(x) for x in v])
        if sol is None:
            raise ValueError("bases not compatible")
        coords.append(sol)
    det = rational_det(coords)
    if det == 0:
        raise ValueError("sublattice not full rank")
    if det.denominator != 1:
        raise ValueError("not a sublattice")
    return abs(int(det))


def rational_det(a: RatMatrix) -> Fraction:
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det
