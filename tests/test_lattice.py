import doctest
import random
from fractions import Fraction
from types import SimpleNamespace

import heckeplan.lattice
import pytest

from heckeplan.lattice import (
    _eliminate_rational,
    identity_matrix,
    integer_kernel,
    quotient_dual_numerators,
    smith_normal_form,
    solve_unique,
)


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def det(m):
    """The determinant of a square integer matrix by Laplace expansion
    along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, x in enumerate(m[0]))


def is_unimodular(m):
    return abs(det(m)) == 1


def quotient_order(m, n):
    """The order of Z^n / (column span of m) as its number of characters."""
    return len(quotient_dual_numerators(m, n)[1])


def solve_affine(a, b):
    """The solution set of A x = b over Q read off the package's rational
    elimination: kind "empty", "unique" (with point) or "affine" (with
    point and a basis of the direction space)."""
    cols = len(a[0]) if a else 0
    red, pivot, pcols = _eliminate_rational(
        [list(row) + [b[i]] for i, row in enumerate(a)], cols)
    if any(row[cols] for row in red[len(pcols):]):
        return SimpleNamespace(kind="empty")
    point = [Fraction(0)] * cols
    for t, c in enumerate(pcols):
        point[c] = Fraction(red[t][cols], pivot)
    free = [c for c in range(cols) if c not in pcols]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for t, c in enumerate(pcols):
            vec[c] = Fraction(-red[t][f], pivot)
        basis.append(vec)
    return SimpleNamespace(kind="affine" if free else "unique",
                           point=point, basis=basis)


def test_snf_identity():
    d, u, v = smith_normal_form(identity_matrix(2))
    assert d == identity_matrix(2)
    assert u == identity_matrix(2)
    assert v == identity_matrix(2)


def test_snf_diag_2_3():
    # gcd of entries is 1 and d1*d2 = |det| = 6
    d, u, v = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    assert mat_mul(mat_mul(u, [[2, 0], [0, 3]]), v) == d


def test_snf_zero():
    d, _, _ = smith_normal_form([[0]])
    assert d == [[0]]


def test_snf_random():
    rng = random.Random(7)
    for _ in range(1000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert is_unimodular(u) and is_unimodular(v)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                assert d[i][j] == 0 or i == j
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_torsion_order_basic():
    assert quotient_order(identity_matrix(2), 2) == 1
    assert quotient_order([[2, 0], [0, 3]], 2) == 6
    with pytest.raises(ValueError, match="quotient is infinite"):
        quotient_order([[1], [0]], 2)


def test_torsion_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        d = det(m)
        if d == 0 or abs(d) > 64:
            continue
        order = quotient_order(m, n)
        # brute force: count residues of Z^n modulo the column lattice
        snf = smith_normal_form(m)[0]
        count = 1
        for i in range(n):
            count *= abs(snf[i][i])
        assert order == count == abs(d)


def test_quotient_dual_elements():
    # Z^2 / <(2,0),(0,1)> has character group of order 2
    den, nums = quotient_dual_numerators([[2, 0], [0, 1]], 2)
    elems = [tuple(Fraction(x, den) for x in u) for u in nums]
    assert len(elems) == 2
    assert (Fraction(0), Fraction(0)) in elems
    for u in elems:
        # pairing with each generator column is integral
        assert (2 * u[0]) % 1 == 0
        assert u[1] % 1 == 0


def test_solve_affine_unique():
    s = solve_affine([[1, 0], [0, 1]], [0, 0])
    assert s.kind == "unique"
    assert s.point == [0, 0]
    assert solve_unique([[1, 0], [0, 1]], [0, 0]) == s.point


def test_solve_affine_underdetermined():
    s = solve_affine([[1, 1]], [1])
    assert s.kind == "affine"
    assert len(s.basis) == 1
    x = s.point
    assert x[0] + x[1] == 1
    assert s.basis[0][0] + s.basis[0][1] == 0
    assert solve_unique([[1, 1]], [1]) is None


def test_solve_affine_empty():
    s = solve_affine([[1], [1]], [0, 1])
    assert s.kind == "empty"
    assert solve_unique([[1], [1]], [0, 1]) is None


def test_solve_unique():
    assert solve_unique([[1, 0], [0, 1]], [0, 0]) == [0, 0]
    assert solve_unique([[2, 1], [1, 1]], [1, Fraction(1, 2)]) == \
        [Fraction(1, 2), 0]
    # underdetermined and inconsistent systems have no unique solution
    assert solve_unique([[1, 1]], [1]) is None
    assert solve_unique([[1], [1]], [0, 1]) is None


def test_integer_kernel():
    ker = integer_kernel([[1, 2, 3]])
    assert len(ker) == 2
    for v in ker:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_lattice_docstring_examples():
    # the examples in the solver's docstrings are its API description
    result = doctest.testmod(heckeplan.lattice)
    assert result.failed == 0 and result.attempted >= 3
