import doctest
import random
from fractions import Fraction

import heckeplan.lattice
from heckeplan.lattice import (
    INFINITE,
    identity_matrix,
    integer_kernel,
    lattice_index,
    mat_mul,
    quotient_dual_elements,
    rational_det,
    smith_normal_form,
    snf_diagonal,
    solve_affine,
    torsion_order,
)


def is_unimodular(m):
    return abs(rational_det([[Fraction(x) for x in row] for row in m])) == 1


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
    assert torsion_order(identity_matrix(2), 2) == 1
    assert torsion_order([[2, 0], [0, 3]], 2) == 6
    assert torsion_order([[1], [0]], 2) == INFINITE


def test_torsion_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        det = rational_det([[Fraction(x) for x in row] for row in m])
        if det == 0 or abs(det) > 64:
            continue
        order = torsion_order(m, n)
        # brute force: count residues of Z^n modulo the column lattice
        diag = [abs(x) for x in snf_diagonal(m)]
        count = 1
        for x in diag:
            count *= x
        assert order == count == abs(int(det))


def test_quotient_dual_elements():
    # Z^2 / <(2,0),(0,1)> has character group of order 2
    elems = quotient_dual_elements([[2, 0], [0, 1]], 2)
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


def test_solve_affine_underdetermined():
    s = solve_affine([[1, 1]], [1])
    assert s.kind == "affine"
    assert len(s.basis) == 1
    x = s.point
    assert x[0] + x[1] == 1


def test_solve_affine_empty():
    s = solve_affine([[1], [1]], [0, 1])
    assert s.kind == "empty"


def test_integer_kernel():
    ker = integer_kernel([[1, 2, 3]])
    assert len(ker) == 2
    for v in ker:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_lattice_index():
    assert lattice_index([[2, 0], [0, 1]], identity_matrix(2)) == 2


def test_lattice_docstring_examples():
    # the examples in the solver's docstrings are its API description
    result = doctest.testmod(heckeplan.lattice)
    assert result.failed == 0 and result.attempted >= 8
