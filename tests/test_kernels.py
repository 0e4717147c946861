"""Integer kernels of the enumeration: Bareiss determinants, the exact
graded candidate search, the inverse-transpose stack and the root
permutations, each against the plain exact computation."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from heckeplan.lattice import (
    mat_inverse,
    rational_det,
    solve_unique,
    transpose,
)
from heckeplan.residual import (
    _bareiss_det,
    _candidate_gammas,
    graded_labels,
    inverse_transpose_matrices,
    unitary_candidates,
)
from heckeplan.rootdata import (
    LabelFunction,
    RootDatum,
    random_label_vector,
    root_permutations,
)


def _random_stack(rng, n, count, span):
    mats = []
    for _ in range(count):
        m = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        shape = rng.randrange(4)
        if shape == 1:                      # zero leading pivot
            for row in m:
                row[0] = 0
            m[-1][0] = rng.choice([-1, 1])
        elif shape == 2 and n > 1:          # repeated row: singular
            m[-1] = list(m[0])
        elif shape == 3 and n > 1:          # dependent row: singular
            m[-1] = [2 * a - b for a, b in zip(m[0], m[1 % n])]
        mats.append(m)
    return mats


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bareiss_matches_rational_det(n):
    rng = random.Random(100 + n)
    mats = _random_stack(rng, n, 200, 3)
    got = _bareiss_det(np.array(mats, dtype=np.int64))
    assert got.dtype == np.int64
    want = [rational_det(m) for m in mats]
    assert [Fraction(int(x)) for x in got] == want
    assert any(w == 0 for w in want) and any(w != 0 for w in want)


def test_bareiss_object_stack_is_exact_past_int64():
    rng = random.Random(7)
    mats = [[[rng.randint(10 ** 6 - 50, 10 ** 6 + 50) * rng.choice([-1, 1])
              for _ in range(5)] for _ in range(5)] for _ in range(40)]
    mats.append([[10 ** 6] * 5] * 5)       # singular
    got = _bareiss_det(np.array(mats, dtype=object))
    want = [rational_det(m) for m in mats]
    assert [Fraction(x) for x in got] == want
    assert max(abs(w) for w in want) > 2 ** 63


def _brute_gammas(positives, klabels, n):
    out = set()
    for combo in combinations(range(len(positives)), n):
        rows = [[Fraction(v) for v in positives[i].vec] for i in combo]
        sol = solve_unique(rows, [klabels[positives[i].vec] for i in combo])
        if sol is not None:
            out.add(tuple(sol))
    return sorted(out)


def _graded_problems(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(11)
    label_sets = [LabelFunction.equal(d)] + [
        LabelFunction.from_affine_nodes(d, random_label_vector(d, rng))
        for _ in range(2)]
    for labels in label_sets:
        for cand in unitary_candidates(d).points:
            positives = [r for r in cand.r_s0 if r.height > 0]
            yield d, positives, graded_labels(d, labels, cand)


@pytest.mark.parametrize("tag,lattice", [("A2", "Q"), ("G2", "Q"),
                                         ("B3", "P"), ("C3", "P"),
                                         ("D4", "P")])
def test_candidate_gammas_match_every_subset_solve(tag, lattice):
    problems = 0
    for d, positives, kl in _graded_problems(tag, lattice):
        if len(positives) < d.rank:
            continue
        got = _candidate_gammas(positives, kl, d.rank)
        assert got == _brute_gammas(positives, kl, d.rank)
        problems += 1
    assert problems >= 3


def test_candidate_gammas_past_int64_stay_exact():
    # labels near 10^18 push the Bareiss intermediates past int64, so the
    # search runs on Python integers and must still agree exactly
    d = RootDatum.from_type("B3", "P")
    cand = unitary_candidates(d).points[0]
    positives = [r for r in cand.r_s0 if r.height > 0]
    kl = {r.vec: Fraction(10 ** 18 + 7 * k, 10 ** 6 + 3)
          for k, r in enumerate(positives)}
    got = _candidate_gammas(positives, kl, d.rank)
    assert got and got == _brute_gammas(positives, kl, d.rank)


@pytest.mark.parametrize("tag,lattice", [("G2", "Q"), ("B3", "P"),
                                         ("D4", "P")])
def test_inverse_transposes_match_exact_inverse(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    got = inverse_transpose_matrices(d)
    want = [tuple(tuple(int(x) for x in row)
                  for row in transpose(mat_inverse([list(r) for r in a])))
            for a in d.weyl_matrices()]
    assert got == want


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("G2", "Q")])
def test_root_permutations_match_elementwise(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    perms = root_permutations(d)
    assert perms.shape == (len(d.weyl_elements()), len(d.roots))
    for g, w in enumerate(d.weyl_elements()):
        assert tuple(perms[g].tolist()) == w.root_permutation()
