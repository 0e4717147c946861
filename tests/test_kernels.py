"""Integer kernels of the enumeration: the fraction-free Gauss-Jordan
solver and the graded candidate search built on it, the inverse-transpose
stack, the root permutations, the integer torus-point encoding with its
pairing, the threshold hits and the graded reflection orbit, each against
the plain exact computation with Fractions."""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, product
from math import gcd, isqrt, lcm

import numpy as np
import pytest

from heckeplan import cli
from heckeplan.lattice import (
    _eliminate_rational,
    _int_width,
    gauss_jordan,
    integer_kernel,
    quotient_dual_numerators,
    saturate,
    solve_unique,
    transpose,
)
from heckeplan.residual import (
    GRADED_BLOCK,
    ORBIT_BLOCK,
    TheoremViolation,
    TorusPoint,
    _abs_vec,
    _candidate_gammas,
    _canonical_points,
    _coset_members,
    _coset_orbit,
    _in_graded_system,
    _matches,
    _orbit_rows,
    _point_rows,
    _row_to_point,
    _subset_inverses,
    _threshold_masks,
    canonical_point,
    graded_labels,
    graded_residual_points,
    inverse_transpose_matrices,
    orbit_of_point,
    pairings,
    point_index,
    residual_cosets,
    residual_points,
    scaling_check,
    threshold_hits,
    unitary_candidates,
)
from heckeplan.rootdata import (
    LabelFunction,
    Root,
    RootDatum,
    _distinct_rows,
    _graded_action,
    _graded_dominant,
    _graded_simples,
    _image_groups,
    parabolic_subsystem_roots,
    random_label_vector,
    reflection_closure,
    restrict_labels,
)
from heckeplan.symbolicq import Cyclo, cyclotomic_poly


# -- the Fraction elimination and the Cramer search that the integer solver
# replaced, kept here as oracles ---------------------------------------------


def _fraction_rref(m):
    """Reduced row echelon form over Q by Fraction row operations, pivoting
    in every column; returns (rows, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
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


def _fraction_solve(a, b):
    """(kind, point) of A x = b from the Fraction rref: kind "empty",
    "unique" or "affine", and the solution that is zero on the free
    columns."""
    cols = len(a[0]) if a else 0
    red, pivots = _fraction_rref([list(row) + [b[i]]
                                  for i, row in enumerate(a)])
    if cols in pivots:
        return "empty", None
    point = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        point[c] = red[r][cols]
    return ("unique" if len(pivots) == cols else "affine"), point


def _fraction_inverse(m):
    """The inverse of a square invertible matrix, from the Fraction rref
    of [m | I]."""
    n = len(m)
    red, _ = _fraction_rref([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(m)])
    return [row[n:] for row in red]


def _fraction_det(m):
    """Determinant by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _stack_dets(mats, dtype):
    """Determinants of a stack of square matrices from gauss_jordan."""
    n = len(mats[0])
    red, pivot, pivots = gauss_jordan(np.array(mats, dtype=dtype), n)
    return red, np.where(pivots.all(axis=1), pivot, 0)


def _bareiss_det(m):
    """Determinants of a stack of integer matrices by Bareiss's elimination
    with row pivoting, in place: the determinant kernel of the Cramer
    search."""
    count, n = m.shape[0], m.shape[1]
    at = np.arange(count)
    sign = np.ones(count, dtype=m.dtype)
    prev = np.ones(count, dtype=m.dtype)
    for k in range(n - 1):
        piv = k + (m[:, k:, k] != 0).argmax(axis=1)
        top = m[at, piv]
        m[at, piv] = m[at, k]
        m[at, k] = top
        sign[piv != k] *= -1
        p = m[:, k, k]
        block = m[:, k + 1:, k + 1:]
        block *= p[:, None, None]
        block -= m[:, k + 1:, k:k + 1] * m[:, k:k + 1, k + 1:]
        block //= prev[:, None, None]
        prev = np.where(p == 0, 1, p)
    return sign * m[:, n - 1, n - 1]


def _cramer_gammas(positives, klabels, n):
    """The graded candidates by Cramer's rule, gamma_j = det(A_j) / (det(A)
    den), on Bareiss determinants of blocks of n-subsets, on int64 below
    the Hadamard bound and on Python integers above it: sorted Fraction
    tuples."""
    vecs = [list(p.vec) for p in positives]
    den = lcm(1, *(klabels[p.vec].denominator for p in positives))
    kint = [int(klabels[p.vec] * den) for p in positives]
    norms = sorted((sum(x * x for x in v) + k * k
                    for v, k in zip(vecs, kint)), reverse=True)
    h2 = 1
    for x in norms[:n]:
        h2 *= max(1, x)
    exact = 2 * h2 < 2 ** 62 and (isqrt(h2) + 1) * den < 2 ** 62
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
        frac = np.empty((len(det), n + 1), dtype=dtype)
        for j in range(n):
            cramer = mats.copy()
            cramer[:, :, j] = rhs
            frac[:, j] = _bareiss_det(cramer)
        frac[:, n] = det * den
        found.update(map(tuple, frac.tolist()))
    return sorted({tuple(Fraction(x, row[-1]) for x in row[:-1])
                   for row in found})


def _cramer_graded_points(subsystem, klabels, n):
    """graded_residual_points as the per-candidate Fraction loop over the
    Cramer candidates, raising at the first candidate (in sorted order)
    whose index exceeds n."""
    positives = [r for r in subsystem if r.height > 0]
    kept = []
    for gamma in _cramer_gammas(positives, klabels, n):
        vals = [sum(Fraction(v) * g for v, g in zip(r.vec, gamma))
                for r in subsystem]
        poles = sum(v == klabels[_abs_vec(r)] for v, r in zip(vals, subsystem))
        i = poles - sum(v == 0 for v in vals)
        if i > n:
            raise TheoremViolation("index exceeds codimension",
                                   {"gamma": gamma, "index": i, "rank": n})
        if i == n:
            kept.append(gamma)
    return kept


def _rows_to_gammas(rows, n):
    """Sorted Fraction tuples of candidate rows (num..., den), checking that
    each row is distinct and in lowest terms with den > 0."""
    rows = rows.tolist()
    assert len(set(map(tuple, rows))) == len(rows)
    assert all(row[n] > 0 and gcd(*row) == 1 for row in rows)
    return sorted(tuple(Fraction(x, row[n]) for x in row[:n]) for row in rows)


# -- the fraction-free Gauss-Jordan solver ------------------------------------


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
    red, got = _stack_dets(mats, np.int64)
    assert got.dtype == red.dtype == np.int64
    want = [_fraction_det(m) for m in mats]
    assert [Fraction(int(x)) for x in got] == want
    assert any(w == 0 for w in want) and any(w != 0 for w in want)


def test_bareiss_object_stack_is_exact_past_int64():
    rng = random.Random(7)
    mats = [[[rng.randint(10 ** 6 - 50, 10 ** 6 + 50) * rng.choice([-1, 1])
              for _ in range(5)] for _ in range(5)] for _ in range(40)]
    mats.append([[10 ** 6] * 5] * 5)       # singular
    red, got = _stack_dets(mats, np.int64)
    assert red.dtype == object
    want = [_fraction_det(m) for m in mats]
    assert [Fraction(x) for x in got] == want
    assert max(abs(w) for w in want) > 2 ** 63


def _random_system(rng, rows, cols, k, span, kind):
    """An augmented matrix [A | B] of the given kind: square, consistent
    with more rows than columns, singular, or inconsistent."""
    a = [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]
    if kind in ("singular", "inconsistent") and rows > 1:
        a[-1] = [2 * x - y for x, y in zip(a[0], a[1 % rows])]
    b = [[rng.randint(-span, span) for _ in range(k)] for _ in range(rows)]
    if kind == "tall":
        # B = A X for an integer X, so every system is consistent
        x = [[rng.randint(-span, span) for _ in range(k)]
             for _ in range(cols)]
        b = [[sum(a[i][t] * x[t][j] for t in range(cols)) for j in range(k)]
             for i in range(rows)]
    if kind == "inconsistent":
        b[-1] = [2 * x - y + 1 for x, y in zip(b[0], b[1 % rows])]
    return [ra + rb for ra, rb in zip(a, b)]


SYSTEM_SHAPES = [("square", 3, 3, 1), ("square", 5, 5, 4),
                 ("tall", 6, 3, 2), ("tall", 5, 2, 3),
                 ("singular", 4, 4, 2), ("inconsistent", 4, 4, 2),
                 ("inconsistent", 5, 3, 1), ("square", 1, 1, 1)]


@pytest.mark.parametrize("kind,rows,cols,k", SYSTEM_SHAPES)
@pytest.mark.parametrize("span", [3, 10 ** 12, 2 ** 70])
def test_gauss_jordan_matches_fraction_rref(kind, rows, cols, k, span):
    rng = random.Random(hash((kind, rows, cols, k, span)) % 1000)
    # every kind in one stack, so that the ranks split inside a column
    kinds = [kind] * 30 + ["singular", "square"] * 5
    mats = [_random_system(rng, rows, cols, k, span,
                           kd if rows == cols or kd == kind else kind)
            for kd in kinds]
    width = cols + k
    for pivot_cols in (cols, width):
        red, pivot, pivots = gauss_jordan(
            np.array(mats, dtype=object), pivot_cols)
        assert red.dtype == (np.int64 if span == 3 else object)
        for m, rd, p, pv in zip(mats, red.tolist(), pivot.tolist(),
                                pivots.tolist()):
            pcols = [c for c in range(pivot_cols) if pv[c]]
            if pivot_cols == width:
                want, want_pivots = _fraction_rref(m)
                assert pcols == want_pivots
                assert [[Fraction(x, p) for x in row] for row in rd] == want
                continue
            rank = len(pcols)
            assert all(rd[t][c] == (p if c == pcols[t] else 0)
                       for t in range(rank) for c in pcols)
            assert not any(any(row[:cols]) for row in rd[rank:])
            for j in range(k):
                kind_j, point = _fraction_solve(
                    [row[:cols] for row in m], [row[cols + j] for row in m])
                consistent = not any(row[cols + j] for row in rd[rank:])
                assert consistent == (kind_j != "empty")
                if consistent:
                    got = [Fraction(0)] * cols
                    for t, c in enumerate(pcols):
                        got[c] = Fraction(rd[t][cols + j], p)
                    assert got == point
                assert solve_unique([row[:cols] for row in m],
                                    [row[cols + j] for row in m]) == \
                    (point if kind_j == "unique" else None)


def test_gauss_jordan_dtype_follows_the_hadamard_bound():
    # 2 x 2 with rows of norm^2 h: the bound is 2 h^2 against 2^62
    for big, wide in ((2 ** 14, False), (2 ** 31, True), (2 ** 70, True)):
        red, pivot, _ = gauss_jordan(
            np.array([[[big, 1, big], [1, big, 1]]], dtype=object), 2)
        assert (red.dtype == object) == wide
        assert int(pivot[0]) == big * big - 1


def test_fraction_wrappers_match_the_fraction_elimination():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
              for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3 and n > 1:
            m[-1] = [2 * x for x in m[0]]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
             for _ in range(n)]
        kind, point = _fraction_solve(m, b)
        assert solve_unique(m, b) == (point if kind == "unique" else None)


# -- the graded candidate search ----------------------------------------------


def _graded_problems(tag, lattice, seeded=2):
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(11)
    label_sets = [LabelFunction.equal(d)] + [
        LabelFunction.from_affine_nodes(d, random_label_vector(d, rng))
        for _ in range(seeded)]
    for labels in label_sets:
        for cand in unitary_candidates(d):
            yield d, cand, graded_labels(d, labels, cand)


def _brute_gammas(positives, klabels, n):
    """Every n-subset solved by the Fraction elimination."""
    out = set()
    for combo in combinations(range(len(positives)), n):
        rows = [list(positives[i].vec) for i in combo]
        kind, point = _fraction_solve(
            rows, [klabels[positives[i].vec] for i in combo])
        if kind == "unique":
            out.add(tuple(point))
    return sorted(out)


@pytest.mark.parametrize("tag,lattice", [("A2", "Q"), ("G2", "Q"),
                                         ("B3", "P"), ("C3", "P"),
                                         ("D4", "P")])
def test_candidate_gammas_match_every_subset_solve(tag, lattice):
    problems = 0
    for d, cand, kl in _graded_problems(tag, lattice):
        positives = [r for r in cand.r_s0 if r.height > 0]
        if len(positives) < d.rank:
            continue
        got = _candidate_gammas(positives, kl, d.rank)
        assert _rows_to_gammas(got, d.rank) == \
            _brute_gammas(positives, kl, d.rank)
        problems += 1
    assert problems >= 3


def test_candidate_gammas_past_int64_stay_exact():
    # labels near 10^18 push the elimination past int64, so the search runs
    # on Python integers and must still agree exactly
    d = RootDatum.from_type("B3", "P")
    cand = unitary_candidates(d)[0]
    positives = [r for r in cand.r_s0 if r.height > 0]
    kl = {r.vec: Fraction(10 ** 18 + 7 * k, 10 ** 6 + 3)
          for k, r in enumerate(positives)}
    got = _candidate_gammas(positives, kl, d.rank)
    assert got.dtype == object
    assert len(got) and _rows_to_gammas(got, d.rank) == \
        _brute_gammas(positives, kl, d.rank)


@pytest.mark.parametrize("tag,lattice,seeded", [
    ("A2", "Q", 2), ("G2", "Q", 2), ("B3", "P", 2), ("C3", "P", 2),
    ("D4", "P", 1), ("D5", "Q", 1)])
def test_candidate_search_matches_the_cramer_search(tag, lattice, seeded):
    problems = blocks = 0
    for d, cand, kl in _graded_problems(tag, lattice, seeded):
        n = d.rank
        positives = [r for r in cand.r_s0 if r.height > 0]
        if len(positives) < n:
            continue
        assert _rows_to_gammas(_candidate_gammas(positives, kl, n), n) == \
            _cramer_gammas(positives, kl, n)
        assert graded_residual_points(d, cand.r_s0, kl) == \
            _cramer_graded_points(cand.r_s0, kl, n)
        problems += 1
        blocks += len(list(combinations(positives, n))) > GRADED_BLOCK
    assert problems >= 3
    if tag == "D5":
        assert blocks        # D5 runs its search in several blocks
    # labels near 10^18 take every step onto Python integers
    big = {vec: k * (10 ** 18 + 3) / 7 for vec, k in kl.items()}
    got = _candidate_gammas(positives, big, n)
    assert got.dtype == object
    assert _rows_to_gammas(got, n) == _cramer_gammas(positives, big, n)
    assert graded_residual_points(d, cand.r_s0, big) == \
        _cramer_graded_points(cand.r_s0, big, n)


# -- the graded search's per-datum cache --------------------------------------

CACHE_DATA = [("B3", "P"), ("C3", "P"), ("D4", "P"), ("D5", "Q")]
WIDTHS = [np.int8, np.int16, np.int32, np.int64]


def _label_sets(d, seed, seeded=2):
    rng = random.Random(seed)
    return [LabelFunction.equal(d)] + [
        LabelFunction.from_affine_nodes(d, random_label_vector(d, rng))
        for _ in range(seeded)]


@pytest.mark.parametrize("tag,lattice", CACHE_DATA)
def test_cached_subset_inverses_solve_like_the_uncached_search(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    n = d.rank
    for labels in _label_sets(d, 23):
        for cand in d.unitary_candidates:
            positives = [r for r in cand.r_s0 if r.height > 0]
            kl = graded_labels(d, labels, cand)
            # labels near 10^18 take the product onto Python integers
            big = {vec: k * (10 ** 18 + 3) / 7 for vec, k in kl.items()}
            for klabels in (kl, big):
                got = _candidate_gammas(positives, klabels, n,
                                        cand.subset_inverses)
                want = _candidate_gammas(positives, klabels, n)
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()
            assert got.dtype == object or not len(got)
    # the cache holds every invertible subset with adj(A) A = det(A) I,
    # each array at the narrowest width that holds its bound
    for cand in d.unitary_candidates:
        inv = cand.subset_inverses
        vecs = np.array([r.vec for r in cand.r_s0 if r.height > 0],
                        dtype=np.int64).reshape(-1, n)
        every = np.array(list(combinations(range(len(vecs)), n)),
                         dtype=np.intp).reshape(-1, n)
        dets = _bareiss_det(vecs[every]) if len(every) else every[:, 0]
        assert inv.subsets.tolist() == every[dets != 0].tolist()
        assert (inv.det == np.abs(dets[dets != 0])).all()
        mats = vecs[inv.subsets.astype(np.intp)]
        assert (inv.adj.astype(np.int64) @ mats ==
                inv.det.astype(np.int64)[:, None, None] * np.eye(n,
                dtype=np.int64)).all()
        assert inv.norm == int(np.abs(inv.adj).sum(axis=2).max(initial=0))
        assert inv.det_max == int(inv.det.max(initial=0))
        for a, bound in ((inv.subsets, len(vecs)), (inv.adj, inv.norm),
                         (inv.det, inv.det_max)):
            i = WIDTHS.index(a.dtype.type)
            assert bound <= np.iinfo(WIDTHS[i]).max
            assert i == 0 or bound > np.iinfo(WIDTHS[i - 1]).max


def _elimination_subset_inverses(positives, n):
    """The subset inverses by blocks of GRADED_BLOCK n-subsets through one
    `gauss_jordan` pass on [A | I] each: an invertible A ends with pivot
    det(A) and the right half with adj(A)."""
    vecs = np.array([p.vec for p in positives],
                    dtype=np.int64).reshape(len(positives), n)
    parts = [(np.zeros((0, n), np.int8), np.zeros((0, n, n), np.int8),
              np.zeros(0, np.int8))]
    norm = det_max = 0
    combos = combinations(range(len(positives)), n)
    while block := list(islice(combos, GRADED_BLOCK)):
        block = np.array(block, dtype=np.intp)
        aug = np.empty((len(block), n, 2 * n), dtype=np.int64)
        aug[:, :, :n] = vecs[block]
        aug[:, :, n:] = np.eye(n, dtype=np.int64)
        red, pivot, pivots = gauss_jordan(aug, n)
        full = pivots.all(axis=1)
        sign = np.where(pivot[full] < 0, -1, 1)
        adj = red[full][:, :, n:] * sign[:, None, None]
        det = pivot[full] * sign
        norm = max(norm, int(np.abs(adj).sum(axis=2).max(initial=0)))
        det_max = max(det_max, int(det.max(initial=0)))
        parts.append((block[full].astype(_int_width(len(positives))),
                      adj.astype(_int_width(norm)),
                      det.astype(_int_width(det_max))))
    subsets, adj, det = (np.concatenate(a) for a in zip(*parts))
    return subsets, adj, det, norm, det_max, \
        max((sum(x * x for x in p.vec) for p in positives), default=0)


def _assert_same_inverses(inv, want):
    for got, ref in zip((inv.subsets, inv.adj, inv.det), want[:3]):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        if ref.dtype == object:
            assert got.tolist() == ref.tolist()
        else:
            assert got.tobytes() == ref.tobytes()
    assert (inv.norm, inv.det_max, inv.vec_sq) == want[3:]


# every type of rank <= 5 on Q and on P, where P differs from Q
RANK5_DATA = [(tag, lattice) for tag in (
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2", "C3", "C4",
    "C5", "D3", "D4", "D5", "G2", "F4") for lattice in "QP"
    if lattice == "Q" or tag not in ("G2", "F4")]


@pytest.mark.parametrize("tag,lattice", RANK5_DATA)
def test_minor_table_inverses_match_the_elimination(tag, lattice):
    # every graded root set of the datum and of its parabolic quotients
    d = RootDatum.from_type(tag, lattice)
    seen = set()
    for sub in [d] + [pc.sub_datum for pc in d.parabolic_classes
                      if pc.indices]:
        for cand in sub.unitary_candidates:
            positives = tuple(r for r in cand.r_s0 if r.height > 0)
            key = (sub.rank, tuple(r.vec for r in positives))
            if key not in seen:
                seen.add(key)
                _assert_same_inverses(
                    cand.subset_inverses,
                    _elimination_subset_inverses(positives, sub.rank))
    assert seen


@pytest.mark.parametrize("n,span", [(3, 1 << 21), (3, 1 << 40),
                                    (4, 1 << 16), (2, 1 << 40)])
def test_minor_table_inverses_past_int64_match_the_elimination(n, span):
    # (row 1-norm)^n reaches 2^62, so the table runs on Python integers
    rng = random.Random(n * 1009 + span.bit_length())
    roots = [Root(tuple(rng.randint(-span, span) for _ in range(n)),
                  (0,) * n, (1,)) for _ in range(n + 3)]
    roots.append(Root(roots[0].vec, (0,) * n, (1,)))      # a singular subset
    assert max(sum(map(abs, r.vec)) for r in roots) ** n >= 1 << 62
    inv = _subset_inverses(roots, n)
    assert len(inv.det) < len(list(combinations(roots, n)))
    assert inv.det_max >= 1 << 63 or span < 1 << 40
    _assert_same_inverses(inv, _elimination_subset_inverses(roots, n))


@pytest.mark.parametrize("n,count", [(1, 0), (2, 0), (2, 1), (3, 2)])
def test_minor_table_inverses_without_subsets_are_empty_int8(n, count):
    roots = [Root(tuple(range(i + 1, i + 1 + n)), (0,) * n, (1,))
             for i in range(count)]
    inv = _subset_inverses(roots, n)
    assert inv.adj.shape == (0, n, n) and inv.adj.dtype == np.int8
    _assert_same_inverses(inv, _elimination_subset_inverses(roots, n))


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("D4", "P"),
                                         ("A5", "P")])
def test_candidates_with_equal_graded_roots_share_their_inverses(
        monkeypatch, tag, lattice):
    import heckeplan.residual as residual
    calls = []
    real = residual._subset_inverses
    monkeypatch.setattr(residual, "_subset_inverses",
                        lambda *a: calls.append(a) or real(*a))
    d = RootDatum.from_type(tag, lattice)
    groups = {}
    for cand in d.unitary_candidates:
        groups.setdefault(tuple(r for r in cand.r_s0 if r.height > 0),
                          []).append(cand)
    assert any(len(g) > 1 for g in groups.values())
    shared = {key: {id(c.subset_inverses) for c in g}
              for key, g in groups.items()}
    assert all(len(ids) == 1 for ids in shared.values())
    assert len(set().union(*shared.values())) == len(groups) == len(calls)
    for g in groups.values():
        assert all(c.subset_inverses is g[0].subset_inverses for c in g)


def _residual_points_per_candidate(datum, labels):
    """`residual_points` with one graded search per unitary candidate, and
    the index of each found point by `point_index`."""
    found = [TorusPoint(cand.point.u, gamma)
             for cand in datum.unitary_candidates
             for gamma in graded_residual_points(
                 datum, cand.r_s0, graded_labels(datum, labels, cand),
                 inverses=cand.subset_inverses)]
    assert all(point_index(datum, labels, p) == datum.rank for p in found)
    return sorted(set(_canonical_points(datum, found)), key=TorusPoint.key)


@pytest.mark.parametrize("tag,lattice", [("A3", "P"), ("B3", "P"),
                                         ("C3", "P"), ("D4", "P"),
                                         ("C4", "P"), ("F4", "Q"),
                                         ("G2", "Q"), ("C2", "Q"),
                                         ("B3", "Q"), ("B4", "Q")])
def test_residual_points_run_each_graded_search_once(monkeypatch, tag,
                                                     lattice):
    # on the datum and every parabolic quotient datum, at seeded labels:
    # one search per distinct (graded roots, graded labels), in the order
    # of the candidates, and the points of one search per candidate.  On
    # B_n/Q and C2/Q some candidates share their graded roots but not the
    # roots at -1, so not their graded labels
    import heckeplan.residual as residual
    d = RootDatum.from_type(tag, lattice)
    real = residual.graded_residual_points
    shared = 0
    for labels in _label_sets(d, 59)[1:]:
        for pc in filter(lambda pc: pc.indices, d.parabolic_classes):
            sub, sub_labels = pc.sub_datum, restrict_labels(labels, pc)
            calls = []

            def recorded(datum, subsystem, klabels, **kwargs):
                calls.append((tuple(r.vec for r in subsystem),
                              tuple(klabels[r.vec] for r in subsystem)))
                return real(datum, subsystem, klabels, **kwargs)
            monkeypatch.setattr(residual, "graded_residual_points", recorded)
            got = residual_points(sub, sub_labels)
            monkeypatch.undo()
            pairs = [(tuple(r.vec for r in cand.r_s0),
                      tuple(graded_labels(sub, sub_labels, cand).values()))
                     for cand in sub.unitary_candidates]
            assert calls == list(dict.fromkeys(pairs))
            assert got == _residual_points_per_candidate(sub, sub_labels)
            shared += len(pairs) - len(calls)
    assert shared


# -- one canonicalised point per graded Weyl orbit ----------------------------


def _graded_orbit_dominant(datum, cand, rn):
    """The r numerators of the member of the W(R_s0)-orbit of (u = 0, r)
    on which every positive root of R_s0 is >= 0, from the whole orbit."""
    positives = [r for r in cand.r_s0 if r.height > 0]
    rows, den = _orbit_rows([TorusPoint.from_numerators(1, [0] * len(rn),
                                                        rn)],
                            *_graded_action(datum, positives))
    vecs = np.array([r.vec for r in positives], dtype=object)
    dominant = {tuple(rn) for rn in rows[:, datum.rank:].tolist()
                if min(vecs @ np.array(rn, dtype=object)) >= 0}
    assert len(dominant) == 1
    return list(dominant.pop())


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("C3", "Q"),
                                         ("G2", "Q"), ("D4", "P")])
def test_graded_walk_reaches_the_one_dominant_orbit_member(tag, lattice):
    # seeded integer r at every candidate, then the same r times a factor
    # that takes the walk onto Python integers
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(67)
    walks = 0
    norm = d.weyl.invt_norm
    for cand in d.unitary_candidates:
        rows = np.array([[rng.randint(-9, 9) for _ in range(d.rank)]
                         for _ in range(6)], dtype=np.int64)
        big = 2 ** 62 // max(norm, _graded_simples(d, cand.r_s0)[2]) + 1
        for scale, wide in ((1, False), (big, True)):
            walked = _graded_dominant(d, cand.r_s0, rows * scale)
            assert (walked.dtype == object) == wide
            for row, got in zip((rows * scale).tolist(), walked.tolist()):
                assert got == _graded_orbit_dominant(d, cand, row)
                walks += 1
    assert walks


def test_graded_simple_roots_are_the_indecomposable_positive_roots():
    # every positive root of R_s0 is a nonnegative integer combination of
    # its simple roots, and there are rank(R_s0) of them
    for tag, lattice in [("B3", "P"), ("C3", "P"), ("F4", "Q"), ("D5", "Q")]:
        d = RootDatum.from_type(tag, lattice)
        for cand in d.unitary_candidates:
            positives = [r for r in cand.r_s0 if r.height > 0]
            simple, cors, top = _graded_simples(d, cand.r_s0)
            assert _graded_simples(d, cand.r_s0) is \
                d.graded_simples[tuple(cand.r_s0)]
            assert top == max(sum(map(abs, r.vec)) for r in positives)
            assert cors.tolist() == [list(d.coroot_by_vec[v]) for v in map(
                tuple, simple.tolist())]
            basis = [[Fraction(x) for x in v] for v in simple.tolist()]
            assert len(basis) == len(_fraction_rref(basis)[1])
            for r in positives:
                coeffs = solve_unique(transpose(basis), list(r.vec))
                assert coeffs is not None and all(
                    c.denominator == 1 and c >= 0 for c in coeffs)


def _dedupe_label_sets(d):
    """Equal and seeded labels, the same negated, and labels near 10^18 /
    7 that take the graded search and the walk onto Python integers; on
    B_n/Q also the affine labels 1, ..., 1, 3/7, whose threshold at -1 is
    negative."""
    sets = _label_sets(d, 61)
    if d.typename[0] == "B" and d.lattice == "Q":
        sets.append(LabelFunction.from_affine_nodes(
            d, [1] * d.rank + [Fraction(3, 7)]))
    return sets + [labels.scaled(-1) for labels in sets] + [
        labels.scaled(Fraction(10 ** 18 + 3, 7)) for labels in sets[:2]]


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("C3", "P"),
                                         ("B3", "Q"), ("B4", "Q"),
                                         ("C3", "Q"), ("D4", "P"),
                                         ("G2", "Q"), ("A3", "P")])
def test_residual_points_match_canonicalising_every_found_point(
        monkeypatch, tag, lattice):
    # the first found point of each W(R_s0)-orbit stands for its W0-orbit:
    # the points equal those of canonicalising every found point, also
    # where a candidate with u != 0 finds conjugate points and where the
    # walk runs on Python integers
    import heckeplan.residual as residual
    d = RootDatum.from_type(tag, lattice)
    widths = set()
    real = residual._graded_dominant
    monkeypatch.setattr(residual, "_graded_dominant", lambda *a: (
        lambda out: widths.add(out.dtype == object) or out)(real(*a)))
    merged_u = 0
    for labels in _dedupe_label_sets(d):
        assert residual_points(d, labels) == \
            _residual_points_per_candidate(d, labels)
        for cand in d.unitary_candidates:
            if any(cand.point.un):
                found = [TorusPoint(cand.point.u, gamma)
                         for gamma in graded_residual_points(
                             d, cand.r_s0, graded_labels(d, labels, cand))]
                merged_u += len(found) - len(set(_canonical_points(d, found)))
    # on A3/P no candidate finds two points, so nothing is walked
    assert widths == (set() if tag == "A3" else {False, True})
    if tag in ("B3", "C3", "B4"):
        assert merged_u


@pytest.mark.parametrize("tag,lattice,seeded,want", [
    ("D5", "Q", False, 3), ("C3", "P", True, 10)])
def test_residual_points_canonicalise_one_point_per_graded_orbit(
        monkeypatch, tag, lattice, seeded, want):
    # D5/Q at equal labels finds 31 points in 3 orbits, C3/P at seeded
    # labels 32 points in 10 orbits: only one point per orbit is expanded
    import heckeplan.residual as residual
    d = RootDatum.from_type(tag, lattice)
    labels = LabelFunction.from_affine_nodes(
        d, random_label_vector(d, random.Random(59))) if seeded \
        else LabelFunction.equal(d)
    # the candidates canonicalise their own points: build them first
    d.unitary_candidates
    passed = []
    real = residual._canonical_points
    monkeypatch.setattr(residual, "_canonical_points",
                        lambda datum, points, *a: passed.append(len(points))
                        or real(datum, points, *a))
    assert len(residual_points(d, labels)) == want
    assert passed == [want]


@pytest.mark.parametrize("tag,lattice", RANK5_DATA)
def test_r1_simple_coords_match_the_indecomposables_and_a_solve(tag,
                                                                lattice):
    # the premises of `unitary_candidates`: R1's simple roots are R0's,
    # each doubled one times 2, so the doubling cancels in omega_i^vee /
    # m_i, and every alcove vertex is kept unfiltered.  A1, B2, B3 and C2
    # on Q have doubled roots, so R1 differs from R0.
    d = RootDatum.from_type(tag, lattice)
    for sub in [d] + [pc.sub_datum for pc in d.parabolic_classes
                      if pc.indices]:
        pos = sub.r1_positive
        vecs = {r.vec for r in pos}
        simples = [tuple((1 + sub.doubled[s]) * x for x in s)
                   for s in sub.simple_roots]
        # the simple roots of R1 are its indecomposable positive roots
        assert sorted(simples) == sorted(r.vec for r in pos if not any(
            s != r and tuple(a - b for a, b in zip(r.vec, s.vec)) in vecs
            for s in pos))
        # every positive root has nonnegative integer coordinates in them,
        # its `alpha` halved at the doubled simple roots (the marks)
        cols = [[s[t] for s in simples] for t in range(sub.rank)]
        for r in pos:
            kind, cs = _fraction_solve(cols, r.vec)
            assert kind == "unique"
            assert all(c >= 0 and c.denominator == 1 for c in cs)
            assert cs == [Fraction(a, 1 + sub.doubled[s])
                          for a, s in zip(r.alpha, sub.simple_roots)]
        # every candidate's R1(s) = {alpha in R1 : alpha(s) = 1} has full rank
        assert sub.unitary_candidates
        for cand in sub.unitary_candidates:
            un = cand.point.numerators_of([r.vec for r in sub.r1])[0]
            r_s1 = [r.vec for r, u in zip(sub.r1, un) if u == 0]
            assert len(_fraction_rref(r_s1)[1]) == sub.rank


def test_int_width_holds_the_bound():
    assert _int_width(127) == np.int8
    assert _int_width(128) == np.int16
    assert _int_width(1 << 20) == np.int32
    assert _int_width(1 << 40) == np.int64
    assert _int_width(1 << 70) == object
    assert _int_width(-128) == np.int8


@pytest.mark.parametrize("tag,lattice", CACHE_DATA[:3])
def test_graded_solve_does_not_depend_on_the_labels_solved_before(tag,
                                                                 lattice):
    rng = random.Random(37)
    warm = RootDatum.from_type(tag, lattice)
    first, second = (random_label_vector(warm, rng) for _ in range(2))
    residual_cosets(warm, LabelFunction.from_affine_nodes(warm, first))
    got = residual_cosets(warm, LabelFunction.from_affine_nodes(warm,
                                                                second))
    fresh = RootDatum.from_type(tag, lattice)
    want = residual_cosets(fresh, LabelFunction.from_affine_nodes(fresh,
                                                                  second))
    assert [c.to_json() for c in got] == [c.to_json() for c in want]
    assert _orbit_sizes(warm, got) == _orbit_sizes(fresh, want)


def _orbit_sizes(datum, cosets):
    """The number of cosets in each coset's W0-orbit, from the members
    that `_coset_members` expands."""
    return np.bincount(_coset_members(datum, cosets)[3],
                       minlength=len(cosets)).tolist()


def test_a_warm_suite_eliminates_nothing_and_expands_each_orbit_once(
        monkeypatch):
    import heckeplan.lattice as lattice
    import heckeplan.residual as residual
    import heckeplan.rootdata as rootdata
    from heckeplan.residual import classification_suite
    d = RootDatum.from_type("B3", "P")
    assert classification_suite(d, LabelFunction.equal(d)).passed
    labels = LabelFunction.from_affine_nodes(
        d, random_label_vector(d, random.Random(31)))
    calls = {"gauss_jordan": 0}
    expanded = []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    # the package's solves all reach `gauss_jordan` through these two
    for module in (lattice, rootdata):
        count(module, "gauss_jordan")
    real_orbit = residual._coset_orbit
    monkeypatch.setattr(residual, "_coset_orbit",
                        lambda datum, support, points: expanded.extend(
                            (support, p) for p in points) or
                        real_orbit(datum, support, points))
    # the enumerate path expands no orbit
    cosets = residual_cosets(d, labels)
    assert expanded == []
    assert classification_suite(d, labels).passed
    monkeypatch.undo()
    assert calls == {"gauss_jordan": 0}
    # the suite expands each distinct orbit once, from its seed
    assert expanded == [(c.support, c.seed) for c in cosets]
    assert len(cosets) < sum(
        len(residual_points(pc.sub_datum, restrict_labels(labels, pc)))
        if pc.indices else 1 for pc in d.parabolic_classes)


def _one_orbit_rows(datum, point):
    """The Weyl images of one point as integer rows over point.den (u mod
    den, then r), from its own product on Python integers."""
    imgs = datum.weyl.invts.astype(object) @ \
        np.array([point.un, point.rn], dtype=object).T
    return np.concatenate([imgs[:, :, 0] % point.den, imgs[:, :, 1]], axis=1)


def _single_orbit_canonical_point(datum, point):
    """The least Weyl image of one point by one np.lexsort over its own
    orbit rows: the per-point canonicaliser that the stacked
    `_canonical_points` replaced."""
    rows = _one_orbit_rows(datum, point)
    return _row_to_point(rows[np.lexsort(rows.T[::-1])[0]].tolist(),
                         point.den)


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("C3", "Q"),
                                         ("D4", "P"), ("G2", "Q"),
                                         ("F4", "Q")])
def test_canonical_unitary_points_match_canonical_point(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(41)
    us = sorted({tuple(Fraction(rng.randrange(12), rng.choice((1, 2, 3, 4,
                                                              6, 12)))
                       % 1 for _ in range(d.rank)) for _ in range(30)})
    points = [TorusPoint(u, [0] * d.rank) for u in us]
    want = [_single_orbit_canonical_point(d, p) for p in points]
    assert _canonical_points(d, points) == want
    assert [canonical_point(d, p) for p in points] == want


@pytest.mark.parametrize("tag,lattice", [("D5", "Q"), ("B3", "P"),
                                         ("A4", "Q")])
def test_stacked_canonical_points_match_canonical_point(tag, lattice):
    # Weyl images of the residual points, with mixed denominators and a
    # split part past int64, over more than one block of ORBIT_BLOCK rows
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(43)
    invts = inverse_transpose_matrices(d)
    base = residual_points(d, LabelFunction.equal(d)) + residual_points(
        d, LabelFunction.from_affine_nodes(d, random_label_vector(d, rng)))
    step = max(1, ORBIT_BLOCK // len(invts))
    points = [_transform(p, rng.choice(invts)) for p in base
              for _ in range(step // len(base) + 1)]
    points += [_transform(p.scale_split(Fraction(10 ** 19 + 1, 3)),
                          rng.choice(invts)) for p in base[:3]]
    assert len(points) > step
    assert _canonical_points(d, points) == \
        [_single_orbit_canonical_point(d, p) for p in points]


def test_index_violation_names_the_first_candidate_in_sorted_order():
    # rank 1: alpha, 2 alpha, 3 alpha and 6 alpha with labels 1, 2, 1, 2
    # put two poles at gamma = 1 (alpha, 2 alpha) and at gamma = 1/3
    # (3 alpha, 6 alpha): both exceed the rank, and 1/3 sorts first
    roots = [Root((m,), (2,), (m,)) for m in (1, 2, 3, 6)]
    subsystem = roots + [Root((-r.vec[0],), (-2,), (-r.alpha[0],))
                         for r in roots]
    kl = dict(zip([r.vec for r in roots], map(Fraction, (1, 2, 1, 2))))
    with pytest.raises(TheoremViolation) as want:
        _cramer_graded_points(subsystem, kl, 1)
    with pytest.raises(TheoremViolation) as got:
        graded_residual_points(None, subsystem, kl, rank=1)
    assert got.value.witness == want.value.witness == {
        "gamma": (Fraction(1, 3),), "index": 2, "rank": 1}
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("tag,lattice", [("D4", "P"), ("B3", "P")])
def test_enumeration_makes_no_fraction_solve(monkeypatch, tag, lattice):
    # the Fraction-valued solve, solve_unique, enters the integer solver
    # through lattice._eliminate_rational; the enumeration path must not
    calls = []

    def counted(m, cols):
        calls.append(len(m))
        return _eliminate_rational(m, cols)

    monkeypatch.setattr("heckeplan.lattice._eliminate_rational", counted)
    d = RootDatum.from_type(tag, lattice)
    labels = ",".join(map(str, random_label_vector(d, random.Random(5))))
    solve_unique([[1]], [1])
    assert calls == [1]
    calls.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["enumerate", "--type", tag, "--lattice", lattice,
                         "--labels", labels, "--format", "json"]) == 0
    assert out.getvalue() and calls == []


def test_density_table_makes_no_point_index_call(monkeypatch):
    # residual_cosets checks the index of every point it returns, so the
    # density table must not check it again; its output stays the golden one
    from pathlib import Path
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return point_index(*args, **kwargs)

    for module in ("plancherel", "residual"):
        monkeypatch.setattr(f"heckeplan.{module}.point_index", counted)
    argv = ["tables", "--which", "density", "--type", "B3", "--lattice",
            "P", "--q", "2", "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert calls == []
    golden = json.loads(Path(__file__).with_name("golden.json").read_text())
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        golden[" ".join(argv)]


@pytest.mark.parametrize("tag,lattice", [("G2", "Q"), ("B3", "P"),
                                         ("D4", "P")])
def test_inverse_transposes_match_exact_inverse(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    got = inverse_transpose_matrices(d)
    want = [tuple(tuple(int(x) for x in row) for row in
                  transpose(_fraction_inverse(m)))
            for m in d.weyl.mats.tolist()]
    assert got == want


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("G2", "Q")])
def test_root_permutations_match_elementwise(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    perms = d.root_permutations
    mats = d.weyl_elements().mats.tolist()
    assert perms.shape == (len(mats), len(d.roots))
    index = {r.vec: k for k, r in enumerate(d.roots)}
    for g, m in enumerate(mats):
        # the permutation of the sorted roots, one mat-vec per root
        want = tuple(index[tuple(sum(a * b for a, b in zip(row, r.vec))
                                 for row in m)] for r in d.roots)
        assert tuple(perms[g].tolist()) == want


# -- the parabolic table against the rank tests and lattices it replaced -------


TABLE_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2",
               "C3", "C4", "C5", "D3", "D4", "D5", "G2", "F4"]


def _in_span(rows, roots):
    """The roots in the rational span of the rows, by comparing ranks."""
    def rank(m):
        return len(_fraction_rref(m)[1])
    base = rank(rows)
    return [r for r in roots if rank(rows + [list(r.vec)]) == base]


@pytest.mark.parametrize("lattice", ["Q", "P"])
@pytest.mark.parametrize("tag", TABLE_TYPES)
def test_parabolic_table_matches_span_ranks_and_lattices(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    n = d.rank
    index = {r.vec: k for k, r in enumerate(d.roots)}
    assert len(d.parabolics) == 2 ** d.n_simple
    for combo, entry in d.parabolics.items():
        rows = [list(d.simple_roots[i]) for i in combo]
        assert entry.indices == combo
        assert parabolic_subsystem_roots(d, combo) == _in_span(rows, d.roots)
        assert entry.r1_vecs == {r.vec for r in _in_span(rows, d.r1)}
        assert entry.key == tuple(sorted(index[r.vec] for r in entry.roots))
        if combo:
            low = saturate(rows, n)
            up = integer_kernel([list(d.simple_coroots[i]) for i in combo])
            den, nums = quotient_dual_numerators(transpose(low + up), n)
            elems = [tuple(Fraction(x, den) for x in u) for u in nums]
        else:
            low, elems = [], [(Fraction(0),) * n]
        assert entry.lattice == low
        assert [tuple(Fraction(x, entry.k_den) for x in ku)
                for ku in entry.k_elems] == elems


def _sorted_lookup_reps(d):
    """The standard representative of each W0-class of standard parabolic
    subsets, found by sorting the root indices of every Weyl image of
    R_P and looking the sorted tuple up among the keys."""
    subset_of_key = {p.key: c for c, p in d.parabolics.items()}
    perms = d.root_permutations.tolist()
    rep = {}
    for combo, entry in d.parabolics.items():
        if combo in rep:
            continue
        for perm in perms:
            member = subset_of_key.get(tuple(sorted(perm[i]
                                                    for i in entry.key)))
            if member is not None:
                rep[member] = combo
    return rep


@pytest.mark.parametrize("lattice", ["Q", "P"])
@pytest.mark.parametrize("tag", TABLE_TYPES)
def test_parabolic_classes_match_the_sorted_image_lookup(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    assert {c: p.rep for c, p in d.parabolics.items()} == \
        _sorted_lookup_reps(d)


def test_parabolic_tables_are_frozen():
    # sha256 of (P, rep, key, k_den, k_elems) of every entry on every type
    # of TABLE_TYPES over Q and P, frozen from the sorted-tuple lookup
    h = hashlib.sha256()
    for tag in TABLE_TYPES:
        for lattice in ("Q", "P"):
            d = RootDatum.from_type(tag, lattice)
            table = [[list(c), list(p.rep), list(p.key), p.k_den,
                      [list(e) for e in p.k_elems]]
                     for c, p in d.parabolics.items()]
            h.update(json.dumps([tag, lattice, table]).encode())
    assert h.hexdigest() == ("71b292ad3bace9cbb5119fb43a280fe9"
                             "03dd19716cacf3ff90f1004e809b00a0")


# -- the shared level step against the closure it was factored out of ---------


def _reference_closure(gens, n):
    """The breadth-first reflection closure with its level step inline:
    (mats, invts, words), sorted by (length, word)."""
    gens_t = gens.transpose(0, 2, 1)
    mats = [np.eye(n, dtype=np.int64)[None]]
    invts = [mats[0]]
    words = [()]
    level_words = [()]
    previous = np.zeros((0, n * n), dtype=np.int64)
    while level_words and len(gens):
        prods = (gens[None] @ mats[-1][:, None]).reshape(-1, n * n)
        rows = np.concatenate([previous, prods])
        order = np.lexsort(rows.T[::-1])
        first = np.ones(len(order), dtype=bool)
        first[1:] = (rows[order][1:] != rows[order][:-1]).any(axis=1)
        new = np.sort(order[first])
        new = new[new >= len(previous)] - len(previous)
        j, gi = np.divmod(new, len(gens))
        cand = [(i,) + level_words[k]
                for k, i in zip(j.tolist(), gi.tolist())]
        by_word = sorted(range(len(cand)), key=cand.__getitem__)
        level_words = [cand[t] for t in by_word]
        words.extend(level_words)
        j, gi, pick = j[by_word], gi[by_word], new[by_word]
        previous = mats[-1].reshape(-1, n * n)
        mats.append(prods.reshape(-1, n, n)[pick])
        invts.append(gens_t[gi] @ invts[-1][j])
    return np.concatenate(mats), np.concatenate(invts), words


@pytest.mark.parametrize("lattice", ["Q", "P"])
@pytest.mark.parametrize("tag", TABLE_TYPES)
def test_reflection_closure_matches_the_inline_level_step(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    n = d.rank
    gens = np.array([d.simple_reflection_matrix(i)
                     for i in range(d.n_simple)],
                    dtype=np.int64).reshape(d.n_simple, n, n)
    mats, invts, words = reflection_closure(gens, n)
    want = _reference_closure(gens, n)
    assert mats.dtype == invts.dtype == np.int64
    assert np.array_equal(mats, want[0])
    assert np.array_equal(invts, want[1])
    assert words == want[2]


# -- the integer pairing primitive and what is built on it ----------------------


def _transform(point, mat):
    """The image of a point under an integer matrix acting on its
    coordinate vectors, by Fraction sums."""
    return TorusPoint(*([sum(Fraction(a) * x for a, x in zip(row, xs))
                         for row in mat] for xs in (point.u, point.r)))


def _fraction_value(vec, u, r):
    """<vec, u> mod 1 and <vec, r> by Fraction sums, the pairing oracle."""
    return (sum(Fraction(v) * u[i] for i, v in enumerate(vec)) % 1,
            sum(Fraction(v) * r[i] for i, v in enumerate(vec)))


def _random_point_data(rng, n):
    """Rational coordinates with u past [0, 1), negative r, denominators
    up to 10^6 and numerators near 10^18."""
    def coordinate(u):
        den = rng.choice([1, 2, 3, 12, rng.randint(1, 10 ** 6)])
        num = rng.choice([rng.randint(-40, 40),
                          rng.randint(-10 ** 18, 10 ** 18) + rng.randint(
                              -5, 5)])
        return Fraction(num + (7 * den if u else 0), den)
    return ([coordinate(True) for _ in range(n)],
            [coordinate(False) for _ in range(n)])


def test_point_encoding_matches_fractions():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 5)
        u, r = _random_point_data(rng, n)
        pt = TorusPoint(u, r)
        assert pt.u == tuple(x % 1 for x in u)
        assert pt.r == tuple(r)
        assert pt.den == lcm(1, *(x.denominator for x in pt.u + pt.r))
        assert all(0 <= x < pt.den for x in pt.un)
        # the same point from scaled numerators has the same encoding
        k = rng.randint(2, 10 ** 6)
        same = TorusPoint.from_numerators(
            pt.den * k, [x * k + pt.den * k * rng.randint(-3, 3)
                         for x in pt.un], [x * k for x in pt.rn])
        assert same == pt and hash(same) == hash(pt) and same.key() == pt.key()
        other = TorusPoint(u, [x + Fraction(1, 10 ** 6 + 3) for x in r])
        assert other != pt


def _takes(un, rn, den, u0, r0):
    """Whether a character value from `pairings` over den is
    e^{2 pi i u0} q^{r0}, by `_matches` as the residue engine asks it."""
    return bool(_matches(np.array([[un]], dtype=object), [u0 % 1], den)
                & _matches(np.array([[rn]], dtype=object), [r0], den))


def test_pairing_matches_fraction_sums():
    # batches of up to four random points over the lcm of their mixed
    # denominators, on int64 or past it; then empty vecs and empty rows
    rng = random.Random(43)
    wide = set()
    for _ in range(150):
        n = rng.randint(1, 5)
        data = [_random_point_data(rng, n) for _ in range(rng.randint(1, 4))]
        points = [TorusPoint(u, r) for u, r in data]
        vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(5)]
        rows, den = _point_rows(points, n)
        assert den == lcm(*(p.den for p in points))
        un, rn = pairings(rows, den, vecs)
        assert un.shape == rn.shape == (len(points), len(vecs))
        wide.add(un.dtype == object)
        for (u, r), pt, urow, rrow in zip(data, points, un.tolist(),
                                          rn.tolist()):
            for vec, x, y in zip(vecs, urow, rrow):
                uval, rval = _fraction_value(vec, u, r)
                assert 0 <= x < den
                assert (Fraction(x, den), Fraction(y, den)) == \
                    (uval, rval) == pt.value_of(vec)
                # the value itself, and values off by 1/2 or in r
                assert _takes(x, y, den, uval + rng.randint(-2, 2), rval)
                assert not _takes(x, y, den, uval + Fraction(1, 2), rval)
                assert not _takes(x, y, den, uval,
                                  rval + Fraction(1, 10 ** 6 + 3))
        for empty in ([], np.zeros((0, n), dtype=np.int64)):
            assert [x.shape for x in pairings(rows, den, empty)] == \
                [(len(points), 0)] * 2
        rows, den = _point_rows([], n)
        assert rows.shape == (0, 2 * n) and den == 1
        assert [x.shape for x in pairings(rows, den, vecs)] == \
            [(0, len(vecs))] * 2
    assert wide == {False, True}


def test_point_operations_match_fractions():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(1, 4)
        p = TorusPoint(*_random_point_data(rng, n))
        q = TorusPoint(*_random_point_data(rng, n))
        assert p.inverse() == TorusPoint([-a for a in p.u],
                                         [-a for a in p.r])
        assert p.star() == TorusPoint(p.u, [-a for a in p.r])
        eps = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        assert p.scale_split(eps) == TorusPoint(p.u, [a * eps for a in p.r])
        vecs = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(3)]
        # points agree on vecs when their rows over one denominator pair
        # to equal values
        un, rn = pairings(*_point_rows([p, q, TorusPoint(p.u, p.r)], n),
                          vecs)
        agree = ((un == un[0]) & (rn == rn[0])).all(axis=1).tolist()
        assert agree[1] == all(
            _fraction_value(v, p.u, p.r) == _fraction_value(v, q.u, q.r)
            for v in vecs)
        assert agree[2]


def _fraction_threshold_hits(datum, labels, point, roots):
    """threshold_hits by Fraction sums, the oracle."""
    poles, zeros = [], []
    for root in roots:
        u, r = _fraction_value(root.vec, point.u, point.r)
        a = labels.pole_exponent(root.vec)
        b = labels.minus_pole_exponent(root.vec)
        if (u == 0 and r == a) or (u == Fraction(1, 2) and r == b):
            poles.append(root)
        if r == 0 and (u == 0 or u == Fraction(1, 2)):
            zeros.append(root)
    return poles, zeros


@pytest.mark.parametrize("tag,lattice", [("A2", "Q"), ("B3", "P"),
                                         ("C3", "P"), ("D4", "P"),
                                         ("G2", "Q")])
def test_threshold_hits_match_fraction_version(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(53)
    label_sets = [LabelFunction.equal(d)] + [
        LabelFunction.from_affine_nodes(d, random_label_vector(d, rng))
        for _ in range(2)]
    hits = 0
    big = 4 * 10 ** 18 + 1
    for labels in label_sets:
        batch = []
        for p in residual_points(d, labels):
            for pt in list(orbit_of_point(d, p))[:12] + [p.star(), p.inverse()]:
                batch.append(pt)
                for roots in (d.roots, d.roots[::3]):
                    got = threshold_hits(d, labels, pt, roots=roots)
                    assert got == _fraction_threshold_hits(d, labels, pt, roots)
                    hits += len(got[0]) + len(got[1])
        # all points in one batch over mixed denominators, and scaled past
        # int64 with the labels; the support () has no roots
        for labs, pts, wide in (
                (labels, batch, False),
                (labels.scaled(big), [p.scale_split(big) for p in batch],
                 True)):
            rows, den = _point_rows(pts, d.rank)
            assert (pairings(rows, den, [r.vec for r in d.roots])[1].dtype
                    == object) == wide
            for roots in (d.roots, d.roots[::3], []):
                masks = _threshold_masks(labs, rows, den, roots)
                assert [m.shape for m in masks] == [(len(pts), len(roots))] * 2
                for pt, prow, zrow in zip(pts, *(m.tolist() for m in masks)):
                    assert tuple([r for r, hit in zip(roots, row) if hit]
                                 for row in (prow, zrow)) == \
                        _fraction_threshold_hits(d, labs, pt, roots)
    assert hits > 0


def _tuple_closure_orbit(datum, roots, point):
    """The orbit of a point under the group generated by the reflections
    in `roots`, by closing tuple matrices under products and acting by
    Fraction sums: the oracle of the integer graded orbit."""
    n = datum.rank
    gens = {tuple(tuple(int(i == j) - r.vec[i] * r.coroot[j]
                        for j in range(n)) for i in range(n)) for r in roots}
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    group, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = tuple(tuple(sum(g[i][k] * m[k][j] for k in range(n))
                                   for j in range(n)) for i in range(n))
                if prod not in group:
                    group.add(prod)
                    nxt.append(prod)
        frontier = nxt
    out = set()
    for m in group:
        inv_t = transpose(_fraction_inverse(m))
        out.add(TorusPoint(
            [sum(inv_t[i][j] * point.u[j] for j in range(n))
             for i in range(n)],
            [sum(inv_t[i][j] * point.r[j] for j in range(n))
             for i in range(n)]))
    return out, len(group)


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("G2", "Q"),
                                         ("D4", "P")])
def test_graded_orbit_matches_tuple_closure(tag, lattice):
    d = RootDatum.from_type(tag, lattice)
    rng = random.Random(59)
    label_sets = [LabelFunction.equal(d),
                  LabelFunction.from_affine_nodes(
                      d, random_label_vector(d, rng))]
    sizes = set()
    positive = d.positive_roots
    for labels in label_sets:
        points = residual_points(d, labels)
        rows, den = _point_rows(points, d.rank)
        graded = _in_graded_system(d, pairings(
            rows, den, [r.vec for r in positive])[0], den, positive)
        for p, in_system in zip(points, graded.tolist()):
            gens = [r for r, g in zip(positive, in_system) if g]
            invts, norm = _graded_action(d, gens)
            rows, den = _orbit_rows([p], invts, norm)
            assert den == p.den
            got = {_row_to_point(row, den) for row in rows.tolist()}
            want, order = _tuple_closure_orbit(d, gens, p)
            assert len(invts) == order
            assert got == want
            sizes.add(order)
    assert len(sizes) > 1


def test_orbit_rows_leave_int64_when_the_bound_requires():
    # an image entry is at most norm * max(den, |r numerators|)
    d = RootDatum.from_type("B3", "P")
    invts, norm = d.weyl.invts, d.weyl.invt_norm
    edge = 2 ** 62 // norm
    for big, wide in ((edge - 1, False), (edge + 1, True),
                      (10 ** 19 + 1, True)):
        pt = TorusPoint.from_numerators(6, [2, 0, 3], [big, -big, 1])
        assert max(pt.den, *map(abs, pt.rn)) == big
        rows, den = _orbit_rows([pt], invts, norm)
        assert den == pt.den
        assert (rows.dtype == object) == wide
        assert [_row_to_point(row, den) for row in rows.tolist()] == \
            [_transform(pt, m) for m in inverse_transpose_matrices(d)]


def test_orbit_rows_of_several_points_share_one_denominator():
    # mixed denominators and a floor: every point's rows are its own orbit
    # rows over its denominator, times D / den, in the order (point, w)
    d = RootDatum.from_type("B3", "P")
    invts, norm = d.weyl.invts, d.weyl.invt_norm
    mats = inverse_transpose_matrices(d)
    points = [TorusPoint.from_numerators(6, [2, 0, 3], [1, -5, 7]),
              TorusPoint([Fraction(1, 4), 0, Fraction(1, 2)],
                         [Fraction(3, 10), 0, -1]),
              TorusPoint([0, 0, 0], [Fraction(1, 3), 2, 0])]
    past = TorusPoint.from_numerators(5, [1, 2, 3], [10 ** 19 + 1, 0, -1])
    for block, floor, wide in ((points, 1, False), (points, 7, False),
                               (points + [past], 1, True)):
        rows, den = _orbit_rows(block, invts, norm, floor)
        assert den == lcm(floor, *(p.den for p in block))
        assert rows.shape == (len(block) * len(mats), 6)
        assert (rows.dtype == object) == wide
        assert ((0 <= rows[:, :3]) & (rows[:, :3] < den)).all()
        assert [_row_to_point(row, den) for row in rows.tolist()] == \
            [_transform(p, m) for p in block for m in mats]
        for k, p in enumerate(block):
            assert (rows[k * len(mats):(k + 1) * len(mats)] ==
                    _one_orbit_rows(d, p) * (den // p.den)).all()


@pytest.mark.parametrize("tag", ["B2", "G2"])
def test_scaling_check_at_labels_past_int64(tag):
    d = RootDatum.from_type(tag, "Q")
    assert scaling_check(d, LabelFunction.equal(d), 4 * 10 ** 18 + 1)


def test_residual_points_past_int64_are_residual():
    d = RootDatum.from_type("B2", "Q")
    rng = random.Random(61)
    big = 4 * 10 ** 18 + 1
    label_sets = [LabelFunction.from_affine_nodes(d, [Fraction(big)] * 3)]
    label_sets += [LabelFunction.from_affine_nodes(
        d, [Fraction(big * v) for v in random_label_vector(d, rng)])
        for _ in range(2)]
    for labels in label_sets:
        small = labels.scaled(Fraction(1, big))
        points = residual_points(d, labels)
        assert points and all(point_index(d, labels, p) == d.rank
                              for p in points)
        assert points == sorted({canonical_point(d, p.scale_split(big))
                                 for p in residual_points(d, small)},
                                key=TorusPoint.key)
        # coset base points are least K_L translates, and scaling the
        # split part by big > 0 keeps that order
        large_cosets, small_cosets = (residual_cosets(d, x)
                                      for x in (labels, small))
        assert [(c.support, c.point, c.index, c.k_l, size) for c, size in
                zip(large_cosets, _orbit_sizes(d, large_cosets))] == \
            [(c.support, c.point.scale_split(big), c.index, c.k_l, size)
             for c, size in zip(small_cosets, _orbit_sizes(d, small_cosets))]


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("D4", "Q"),
                                         ("G2", "Q"), ("F4", "Q")])
def test_image_groups_match_the_sorted_image_lookup(tag, lattice):
    # every Weyl element whose image of R_support is a standard R_combo,
    # found by sorting the image's root indices and looking the key up
    d = RootDatum.from_type(tag, lattice)
    perms = d.root_permutations.tolist()
    by_key = {p.key: p for p in d.parabolics.values()}
    for support, entry in d.parabolics.items():
        want = {}
        for g, perm in enumerate(perms):
            image = by_key.get(tuple(sorted(perm[i] for i in entry.key)))
            if image is not None:
                want.setdefault(image.indices, []).append(g)
        got = _image_groups(d, support)
        assert {c: gs.tolist() for c, gs in got.items()} == want
        assert _image_groups(d, support) is got


def _per_combo_coset_orbit(datum, support, point):
    """`_coset_orbit` with each group of Weyl images rescaled on its own to
    the lcm of point.den and the group's K_L denominator, on Python
    integers: the per-combo expansion that one orbit over a common
    denominator replaced."""
    n, rows = datum.rank, _one_orbit_rows(datum, point)
    found = []
    for combo, gs in _image_groups(datum, support).items():
        entry = datum.parabolics[combo]
        d = lcm(point.den, entry.k_den)
        own = rows[gs] * (d // point.den)
        k_rows = np.array(entry.k_elems, dtype=object) * (d // entry.k_den)
        translates = ((own[:, None, :n] + k_rows[None]) % d).reshape(-1, n)
        owner = np.repeat(np.arange(len(gs)), len(k_rows))
        least = np.lexsort((*translates.T[::-1], owner))[::len(k_rows)]
        forms = np.concatenate([translates[least], own[:, n:]], axis=1)
        firsts = _distinct_rows(forms)
        found.extend((g, combo, tuple(row), d) for g, row in zip(
            gs[firsts].tolist(), forms[firsts].tolist()))
    found.sort(key=lambda f: f[0])
    return [f[1:] for f in found]


def _form_points(forms):
    """(combo, point) of each coset held as `_coset_orbit` returns them:
    (combos, rows, D, owners)."""
    combos, rows, den, _ = forms
    assert rows.shape == (len(combos), 2 * (rows.shape[1] // 2))
    assert rows.dtype in (np.int64, object)
    return [(combo, _row_to_point(row, den))
            for combo, row in zip(combos, rows.tolist())]


def _per_combo_form_points(datum, support, point):
    return [(combo, _row_to_point(row, den)) for combo, row, den in
            _per_combo_coset_orbit(datum, support, point)]


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("C3", "P"),
                                         ("D4", "Q"), ("F4", "Q"),
                                         ("G2", "Q")])
def test_coset_orbit_over_one_denominator_matches_the_per_combo_one(
        tag, lattice):
    # the raw points of every parabolic class, as residual_cosets lifts
    # them, and the first coset of each orbit on each standard support;
    # each point alone, and all points of one support in one call
    d = RootDatum.from_type(tag, lattice)
    supports = set()
    for labels in _label_sets(d, 47, seeded=1):
        pairs = {(pc.indices, _transform(sub_pt, transpose(pc.y_basis))): None
                 for pc in d.parabolic_classes if pc.indices
                 for sub_pt in residual_points(pc.sub_datum,
                                               restrict_labels(labels, pc))}
        combos, rows, den, owners = _coset_members(
            d, residual_cosets(d, labels))
        firsts = {}
        for combo, row, owner in zip(combos, rows.tolist(), owners.tolist()):
            firsts.setdefault((owner, combo), (combo, _row_to_point(row,
                                                                   den)))
        pairs.update(dict.fromkeys(firsts.values()))
        by_support = {}
        for support, point in pairs:
            by_support.setdefault(support, []).append(point)
        for support, points in by_support.items():
            wants = [_per_combo_form_points(d, support, p) for p in points]
            assert [_form_points(_coset_orbit(d, support, [p]))
                    for p in points] == wants
            got = _coset_orbit(d, support, points)
            owners = got[3].tolist()
            assert owners == sorted(owners)
            assert _form_points(got) == [f for want in wants for f in want]
            assert owners == [k for k, want in enumerate(wants)
                              for _ in want]
            supports.add(support)
    assert supports == set(d.parabolics)


def _a3_wide_point():
    """(A3/P, the support (0, 1), a point with split part in {-1, 0, 1}^3
    and a factor big that takes its coset orbit past int64).  K_L of that
    support has denominator 3, so the translate rows of a point with
    denominator 1 are its orbit rows times 3: an orbit that fits int64 can
    leave it there."""
    d = RootDatum.from_type("A3", "P")
    support = (0, 1)
    big = 2 ** 62 // d.weyl.invt_norm - 1

    def widest(r):
        rows = _coset_orbit(d, support, [TorusPoint([0] * 3, r)])[1]
        return max(abs(x) for row in rows.tolist() for x in row[3:])

    point = TorusPoint([0] * 3, max(product((-1, 0, 1), repeat=3),
                                    key=widest))
    assert widest(point.r) * big >= 2 ** 63
    return d, support, point, big


def test_coset_orbit_translates_leave_int64_when_the_bound_requires():
    d, support, point, big = _a3_wide_point()
    small = _coset_orbit(d, support, [point])
    large = _coset_orbit(d, support, [point.scale_split(big)])
    assert small[1].dtype == np.int64 and large[1].dtype == object
    assert _form_points(large) == [(combo, point.scale_split(big))
                                   for combo, point in _form_points(small)]


def _reference_key(datum, support, point):
    """(least combo, least row among the forms on it) of the coset orbit
    through the point, from the test-local full orbit; the rows of one
    combo share one denominator."""
    forms = _per_combo_coset_orbit(datum, support, point)
    least = min(combo for combo, _, _ in forms)
    row, den = min((row, den) for combo, row, den in forms if combo == least)
    return least, _row_to_point(row, den)


def _raw_points(datum, labels, pc):
    """The raw points of a parabolic class, as residual_cosets lifts
    them."""
    if not pc.indices:
        return [TorusPoint.identity(datum.rank)]
    return [_transform(p, transpose(pc.y_basis)) for p in residual_points(
        pc.sub_datum, restrict_labels(labels, pc))]


@pytest.mark.parametrize("tag,lattice", [("B3", "P"), ("C3", "P"),
                                         ("D4", "Q"), ("F4", "Q"),
                                         ("G2", "Q")])
def test_stabiliser_keys_match_the_full_orbit_least_form(tag, lattice):
    # the least combo of each orbit is its class's support, and the least
    # form over the Weyl elements that fix R_P is the least over the orbit;
    # residual_cosets takes the identity and the residual points of the
    # datum, with R_P = R0, as their own keys
    d = RootDatum.from_type(tag, lattice)
    for labels in _label_sets(d, 53, seeded=1):
        for pc in d.parabolic_classes:
            raw = _raw_points(d, labels, pc)
            keys = _canonical_points(d, raw, pc.indices)
            assert raw and [(pc.indices, key) for key in keys] == \
                [_reference_key(d, pc.indices, p) for p in raw]
            if not pc.indices or pc.sub_datum is d:
                assert keys == raw


def test_stabiliser_keys_leave_int64_when_the_bound_requires():
    # the wide point alone and in one block with its unscaled self
    d, support, point, big = _a3_wide_point()
    large = point.scale_split(big)
    want = _reference_key(d, support, large)
    assert want[1] == _reference_key(d, support, point)[1].scale_split(big)
    assert [(support, key) for key in _canonical_points(d, [large], support)] \
        == [want]
    assert [(support, key) for key in
            _canonical_points(d, [point, large], support)] == \
        [_reference_key(d, support, point), want]


# -- the integer cyclotomic kernel against the Fraction class it replaced -------


@lru_cache(maxsize=None)
def _ref_cyclotomic_poly(n):
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    # x^n - 1 over every Phi_d, d | n, d < n; the largest d first keeps
    # the running quotient sparse
    for d in range(n - 1, 0, -1):
        if n % d == 0:
            poly = _ref_poly_div_exact(poly, _ref_cyclotomic_poly(d))
    return tuple(poly)


def _ref_poly_div_exact(num, den):
    num = list(num)
    # the nonzero terms of the divisor: a cyclotomic one is sparse
    terms = [(j, dc) for j, dc in enumerate(den) if dc]
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        out[i] = c
        if c:
            for j, dc in terms:
                num[i + j] -= c * dc
    return out


def _ref_poly_mod(poly, mod):
    poly = list(poly)
    dm = len(mod) - 1
    while len(poly) > dm:
        c = poly[-1] / mod[-1]
        if c:
            off = len(poly) - 1 - dm
            for j in range(dm + 1):
                poly[off + j] -= c * mod[j]
        poly.pop()
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


class _RefCyclo:
    """Q(zeta_N) as Fraction coefficients mod Phi_N, reduced by Fraction
    long division: the previous implementation of `Cyclo`."""

    def __init__(self, n, coeffs):
        self.n = n
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_rational(cls, x):
        return cls(1, [Fraction(x)])

    @classmethod
    def root_of_unity(cls, u):
        u = Fraction(u) % 1
        n, k = u.denominator, u.numerator
        poly = [Fraction(0)] * k + [Fraction(1)]
        return cls(n, _ref_poly_mod(poly, _ref_cyclotomic_poly(n)))

    def lift(self, m):
        if m == self.n:
            return self
        step = m // self.n
        poly = [Fraction(0)] * (len(self.coeffs) * step)
        for k, c in enumerate(self.coeffs):
            poly[k * step] += c
        return _RefCyclo(m, _ref_poly_mod(poly, _ref_cyclotomic_poly(m)))

    def _pair(self, other):
        if not isinstance(other, _RefCyclo):
            other = _RefCyclo.from_rational(other)
        m = lcm(self.n, other.n)
        return self.lift(m), other.lift(m), m

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return _RefCyclo(self.n, [Fraction(other)])
            cs = list(self.coeffs)
            cs[0] += other
            return _RefCyclo(self.n, cs)
        a, b, m = self._pair(other)
        cs = [Fraction(0)] * max(len(a.coeffs), len(b.coeffs))
        for i, c in enumerate(a.coeffs):
            cs[i] += c
        for i, c in enumerate(b.coeffs):
            cs[i] += c
        return _RefCyclo(m, cs)

    __radd__ = __add__

    def __neg__(self):
        return _RefCyclo(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, _RefCyclo)
                       else _RefCyclo.from_rational(-Fraction(other)))

    def __rsub__(self, other):
        return _RefCyclo.from_rational(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _RefCyclo(self.n, [c * other for c in self.coeffs])
        a, b, m = self._pair(other)
        if not a.coeffs or not b.coeffs:
            return _RefCyclo(m, [])
        prod = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    if cb:
                        prod[i + j] += ca * cb
        return _RefCyclo(m, _ref_poly_mod(prod, _ref_cyclotomic_poly(m)))

    __rmul__ = __mul__

    def conjugate(self):
        out = _RefCyclo(self.n, [])
        for k, c in enumerate(self.coeffs):
            if c:
                out = out + c * _RefCyclo.root_of_unity(Fraction(-k, self.n))
        return out

    def is_rational(self):
        return len(self.coeffs) <= 1 or self.n == 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _RefCyclo.from_rational(other)
        a, b, _ = self._pair(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        if self.is_rational():
            return str(self.coeffs[0] if self.coeffs else Fraction(0))
        return " + ".join(f"{c}*z{self.n}^{k}"
                          for k, c in enumerate(self.coeffs) if c)


CYCLO_ORDERS = (1, 2, 3, 4, 6, 7, 12, 14, 77, 1001)


def _same_cyclo(new, ref):
    assert new.n == ref.n
    assert new.coeffs == ref.coeffs
    assert repr(new) == repr(ref)
    # the encoding: integers reduced mod Phi_n and trimmed, in lowest terms
    deg = cyclotomic_poly(new.n)[-1][0]
    assert len(new.num) <= deg and all(type(c) is int for c in new.num)
    assert not new.num or new.num[-1] != 0
    assert new.den == 1 if not new.num else gcd(new.den, *new.num) == 1


def _random_cyclo_pair(rng, n, terms, top=None):
    """The same random sum of c * zeta_n^k in both classes, at order n."""
    new, ref = Cyclo(n, []), _RefCyclo(n, [])
    for _ in range(terms):
        u = Fraction(rng.randrange(top or n), n)
        c = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 35)))
        new = new + c * Cyclo.root_of_unity(u)
        ref = ref + c * _RefCyclo.root_of_unity(u)
    _same_cyclo(new, ref)
    return new, ref


@pytest.mark.parametrize("n", CYCLO_ORDERS)
def test_cyclo_matches_fraction_reference(n):
    rng = random.Random(n)
    # at 1001 the Fraction reference needs seconds per dense product, so
    # the exponents stay where a product overshoots phi(1001) = 720 by
    # a little more than 100
    terms, top = (3, 420) if n == 1001 else (6, None)
    for _ in range(4 if n == 1001 else 12):
        a, ra = _random_cyclo_pair(rng, n, rng.randint(0, terms), top)
        b, rb = _random_cyclo_pair(rng, n, rng.randint(1, terms), top)
        for new, ref in ((a + b, ra + rb), (a * b, ra * rb),
                         (a - b, ra - rb), (-a, -ra),
                         (a.conjugate(), ra.conjugate()),
                         (a * Fraction(-2, 3), ra * Fraction(-2, 3)),
                         (Fraction(5, 7) + a, Fraction(5, 7) + ra),
                         (3 - a, 3 - ra)):
            _same_cyclo(new, ref)
        assert (a == b) == (ra == rb)
        assert a * b == b * a and (a + b) - b == a and a - a == 0
        if n < 1001:
            for m in (2 * n, 3 * n):
                _same_cyclo(a.lift(m), ra.lift(m))
                assert a.lift(m) == a and hash(a.lift(m)) == hash(a)


@pytest.mark.parametrize("n1,n2", [(2, 3), (4, 6), (6, 14), (3, 7),
                                   (12, 14), (7, 77), (77, 13), (11, 91)])
def test_cyclo_mixed_orders_match_fraction_reference(n1, n2):
    rng = random.Random(n1 * n2)
    # the lcm is 1001 for the last two pairs: low exponents keep the
    # reference's products there below degree phi(1001)
    top1, top2 = (n1, n2) if lcm(n1, n2) < 1001 else (n1 // 3, n2 // 3)
    for _ in range(6):
        a, ra = _random_cyclo_pair(rng, n1, rng.randint(0, 4), top1)
        b, rb = _random_cyclo_pair(rng, n2, rng.randint(0, 4), top2)
        for new, ref in ((a + b, ra + rb), (a * b, ra * rb),
                         (b - a, rb - ra), (a.lift(lcm(n1, n2)),
                                            ra.lift(lcm(n1, n2)))):
            _same_cyclo(new, ref)
        assert (a == b) == (ra == rb)


def test_cyclotomic_poly_matches_the_division_reference_below_400():
    # the Moebius product against x^n - 1 divided by every Phi_d, d | n
    for n in range(1, 400):
        assert cyclotomic_poly(n) == tuple(
            (i, c) for i, c in enumerate(_ref_cyclotomic_poly(n)) if c)


def test_cyclo_cancellation_and_rationals_at_higher_order():
    # up to order 77: the reference sums all 1001 roots too slowly
    for n in CYCLO_ORDERS[1:-1]:
        z, rz = Cyclo.root_of_unity(Fraction(1, n)), \
            _RefCyclo.root_of_unity(Fraction(1, n))
        # the sum of all n-th roots of unity cancels to 0 at order n
        total, ref = Cyclo(n, []), _RefCyclo(n, [])
        power, rpower = Cyclo.from_rational(1), _RefCyclo.from_rational(1)
        for _ in range(n):
            total, ref = total + power, ref + rpower
            power, rpower = power * z, rpower * rz
        _same_cyclo(total, ref)
        assert total.is_zero() and total.n == n
        # z + z^-1 - z^-1 is z; 2 cos(2 pi / n) stored at order n
        w, rw = z + z.conjugate(), rz + rz.conjugate()
        _same_cyclo(w, rw)
        _same_cyclo(w - z.conjugate(), rw - rz.conjugate())
        assert w - z.conjugate() == z
        _same_cyclo(z * 0, rz * 0)
        assert (z * 0).n == n and (z - z).n == n
    # rational values stored at n > 1
    for n, value in ((6, 1), (4, 0), (3, -1), (2, -2)):
        z = Cyclo.root_of_unity(Fraction(1, n))
        rz = _RefCyclo.root_of_unity(Fraction(1, n))
        x, rx = z + z.conjugate(), rz + rz.conjugate()
        _same_cyclo(x, rx)
        assert x.n == n and x.is_rational() and x == value
        assert x.rational_value() == value and hash(x) == hash(value)
        half, rhalf = x * Fraction(1, 2) + 1, rx * Fraction(1, 2) + 1
        _same_cyclo(half, rhalf)
        assert half.n == n and half.den == (2 if value % 2 else 1)
