"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (visible with pytest -s or in the captured
output on failure)."""

import random
import time
from fractions import Fraction

import pytest

from heckeplan.rootdata import (
    LabelFunction,
    RootDatum,
    random_label_vector,
)

F = Fraction

RESULTS = []


def record(num, name, passed, detail=""):
    line = f"criterion {num} [{'PASS' if passed else 'FAIL'}] {name}" + \
        (f" ({detail})" if detail else "")
    RESULTS.append(line)
    print(line)
    assert passed, line


def orbit_root_value_sets(datum, points):
    from test_kernels import orbit_of_point
    out = []
    for p in points:
        out.append({
            tuple(q.value_of(datum.simple_roots[i])
                  for i in range(datum.n_simple))
            for q in orbit_of_point(datum, p)})
    return out


# -- criterion 1: rank-2 reproduction ------------------------------------------


def test_criterion_1_b2_reproduction():
    import json

    from heckeplan.cli import main as cli_main
    import io
    from contextlib import redirect_stdout

    t0 = time.time()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code_q = cli_main(["enumerate", "--type", "B2", "--lattice", "Q",
                           "--labels", "equal", "--format", "json"])
    data_q = json.loads(buf.getvalue())
    ok = code_q == 0
    rows = data_q["rows"]
    ok = ok and len(rows) == 5
    ok = ok and sorted(r["dim"] for r in rows) == [0, 0, 1, 1, 2]
    ok = ok and sorted(r["kL"] for r in rows if r["dim"] == 1) == [1, 2]

    # exact point values: orbits of (q, q) and (q, -1) in root values
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.equal(d)
    from heckeplan.residual import residual_points
    vsets = orbit_root_value_sets(d, residual_points(d, labels))
    qq = ((F(0), F(1)), (F(0), F(1)))
    qm1 = ((F(0), F(1)), (F(1, 2), F(0)))
    ok = ok and len(vsets) == 2
    ok = ok and any(qq in s for s in vsets) and any(qm1 in s for s in vsets)

    buf = io.StringIO()
    with redirect_stdout(buf):
        code_p = cli_main(["enumerate", "--type", "B2", "--lattice", "P",
                           "--labels", "equal", "--format", "json"])
    rows_p = json.loads(buf.getvalue())["rows"]
    ok = ok and code_p == 0 and len(rows_p) == 7
    ok = ok and sorted(r["dim"] for r in rows_p) == [0, 0, 0, 1, 1, 1, 2]

    dp = RootDatum.from_type("B2", "P")
    lp = LabelFunction.equal(dp)
    pts_p = residual_points(dp, lp)
    vsets_p = orbit_root_value_sets(dp, pts_p)
    # root-value orbits (q, q) twice (distinguished by the unitary part,
    # i.e. the value on the half-root basis vector) and (q, -1) once
    ok = ok and len(pts_p) == 3
    ok = ok and sum(1 for s in vsets_p if qq in s) == 2
    ok = ok and sum(1 for s in vsets_p if qm1 in s) == 1
    ok = ok and len({p.u for p in pts_p}) == 3
    elapsed = time.time() - t0
    record(1, "rank-2 reproduction (both lattices)", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")


# -- criterion 2: classification suite ------------------------------------------


def test_criterion_2_classification_suite():
    from heckeplan.residual import classification_suite
    types = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "B4", "C4", "F4"]
    rng = random.Random(2024)
    t0 = time.time()
    ok = True
    failures = []
    for tag in types:
        for lattice in ("Q", "P"):
            d = RootDatum.from_type(tag, lattice)
            if lattice == "P" and d.weight_index() == 1:
                continue
            label_sets = [LabelFunction.equal(d)]
            for _ in range(3):
                label_sets.append(LabelFunction.from_affine_nodes(
                    d, random_label_vector(d, rng)))
            for labels in label_sets:
                rep = classification_suite(d, labels)
                if not rep.passed:
                    ok = False
                    failures.append((tag, lattice, rep.to_json()))
    elapsed = time.time() - t0
    record(2, "classification suite, zero violations",
           ok and elapsed < 300, f"{elapsed:.0f}s, failures={failures[:1]}")


# -- criterion 3: reciprocal length sum -----------------------------------------


def test_criterion_3_poincare_identity():
    from heckeplan.plancherel import (
        poincare_product,
        poincare_tail_bound,
        poincare_truncated,
    )
    t0 = time.time()
    ok = True
    details = []
    for tag in ("A1", "A2", "B2", "G2"):
        d = RootDatum.from_type(tag, "Q")
        labels = LabelFunction.equal(d)
        res = poincare_product(d, labels)
        total, layers = poincare_truncated(d, labels, 2, 40)
        bound = poincare_tail_bound(d, labels, 2, 40, layers)
        exact = float(res.product.evaluate(F(2)))
        diff = abs(exact - float(total))
        good = res.valid and diff <= max(bound, 1e-9) and diff <= 1e-6
        ok = ok and good
        details.append(f"{tag}:{diff:.1e}")
    elapsed = time.time() - t0
    record(3, "reciprocal-sum identity at q=2",
           ok and elapsed < 30, f"{elapsed:.1f}s " + " ".join(details))


# -- criterion 4: subregular type-C closed form ---------------------------------


def test_criterion_4_subregular_fdim():
    from heckeplan.plancherel import fdim_subregular_c
    t0 = time.time()
    ok = True
    signs = []
    for n in (3, 4, 5):
        rep = fdim_subregular_c(n, qval=4)
        good = rep.matches and \
            rep.numeric_assembled == rep.sign * rep.numeric_reference
        ok = ok and good
        signs.append(rep.sign)
    elapsed = time.time() - t0
    record(4, "subregular type-C mass matches the closed form (n=3,4,5)",
           ok and elapsed < 10, f"{elapsed:.1f}s signs={signs}")


# -- criterion 5: numeric residue oracle ----------------------------------------


def test_criterion_5_residue_oracle():
    from heckeplan.residue import shift_and_collect
    t0 = time.time()
    ok = True
    details = []
    d1 = RootDatum.from_type("A1", "Q")
    l1 = LabelFunction.equal(d1)
    for q in (2, 3):
        rep = shift_and_collect(d1, l1, q)
        good = abs(rep.global_mass - 1) < 1e-8 and \
            abs(rep.point_masses[0].value - (q - 1) / (q + 1)) < 1e-8 and \
            abs(rep.continuous - 2 / (q + 1)) < 1e-8
        ok = ok and good
        details.append(f"A1q{q}:{rep.closure_error:.0e}")
    d2 = RootDatum.from_type("B2", "Q")
    l2 = LabelFunction.equal(d2)
    rep2 = shift_and_collect(d2, l2, 2)
    good2 = abs(rep2.global_mass - 1) < 1e-6 and \
        abs(rep2.total() - 1) < 1e-6 and \
        len(rep2.point_masses) == 2 and \
        all(e.value > 0 for e in rep2.point_masses)
    ok = ok and good2
    details.append(f"B2:{[round(e.value, 6) for e in rep2.point_masses]}")
    elapsed = time.time() - t0
    record(5, "residue masses (rank 1 at 1e-8, rank 2 at 1e-6)",
           ok and elapsed < 120, f"{elapsed:.0f}s " + " ".join(details))


# -- criterion 6: scaling invariance --------------------------------------------


def test_criterion_6_scaling():
    from heckeplan.residual import scaling_check
    t0 = time.time()
    ok = True
    for tag in ("A1", "A2", "A3", "B2", "C2", "B3", "C3", "G2"):
        for lattice in ("Q", "P"):
            d = RootDatum.from_type(tag, lattice)
            if lattice == "P" and d.weight_index() == 1:
                continue
            labels = LabelFunction.equal(d)
            for eps in (F(1, 2), F(2), F(3)):
                if not scaling_check(d, labels, eps):
                    ok = False
    record(6, "scaling invariance of the enumeration", ok,
           f"{time.time()-t0:.1f}s")


# -- criterion 7: distinguished-diagram values ----------------------------------


def test_criterion_7_kl_invariant():
    from heckeplan.residual import kl_real_point_check
    t0 = time.time()
    ok = True
    c3_subregular = False
    for tag in ("A1", "A2", "A3", "B2", "B3", "C3", "G2"):
        d = RootDatum.from_type(tag, "P")
        labels = LabelFunction.equal(d)
        good, vectors = kl_real_point_check(d, labels)
        ok = ok and good
        if tag == "C3" and (F(1), F(0), F(1)) in vectors:
            c3_subregular = True
    ok = ok and c3_subregular
    record(7, "real points have simple values in {1, q}; C3 has (q,1,q)",
           ok, f"{time.time()-t0:.1f}s")


# -- criterion 8: growth criteria -----------------------------------------------


def test_criterion_8_casselman():
    from heckeplan.residual import (
        casselman_discrete,
        casselman_tempered,
        steinberg_point,
        trivial_point,
    )
    from heckeplan.residual import TorusPoint
    ok = True
    for tag in ("A1", "B2", "C3"):
        d = RootDatum.from_type(tag, "Q")
        labels = LabelFunction.equal(d)
        st = steinberg_point(d, labels)
        tr = trivial_point(d, labels)
        unitary = TorusPoint(
            [F(1, 5 + i) for i in range(d.rank)], [0] * d.rank)
        ok = ok and casselman_discrete([st], d)
        ok = ok and casselman_tempered([st], d)
        ok = ok and not casselman_tempered([tr], d)
        ok = ok and casselman_tempered([unitary], d)
        ok = ok and not casselman_discrete([unitary], d)
    record(8, "growth criteria (discrete/tempered/neither)", ok)


def test_zzz_summary(capsys):
    with capsys.disabled():
        print("\n== acceptance summary ==")
        for line in RESULTS:
            print(line)
