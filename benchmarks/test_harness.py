"""Self-tests of the benchmark harness.

    python3 -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from stats import nearest_rank, samples_beyond, tail_percentile  # noqa: E402
from tracing import (  # noqa: E402
    Tracer,
    layer_summary,
    nested_time,
    outermost_time,
    self_times,
)
import workloads  # noqa: E402


# -- percentile rule -----------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (10, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
    (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_has_ten_samples_beyond(n, expected):
    pct = tail_percentile(n)
    assert pct == expected
    if pct is not None:
        assert samples_beyond(n, pct) >= 10


def test_tail_percentile_cap():
    assert tail_percentile(1000, cap=75.0) == 75.0
    assert tail_percentile(30, cap=75.0) == 50.0


def test_minimum_passes_give_every_workload_a_tail():
    for workload in workloads.WORKLOADS.values():
        n = workload.min_passes * len(workload.inputs(0))
        assert tail_percentile(n) is not None


def test_nearest_rank_is_an_observed_sample():
    values = list(range(1, 41))          # 1..40
    assert nearest_rank(values, 75.0) == 30
    assert samples_beyond(40, 75.0) == 10
    assert nearest_rank(values, 50.0) == 20
    assert nearest_rank([5.0], 99.9) == 5.0


# -- self-time arithmetic on synthetic spans ---------------------------------

def synthetic():
    # span 0: cli.main            [0, 10]
    # span 1:  residual_points    [1, 4]
    # span 2:   lattice.rref      [2, 3]
    # span 3:   residual_points   [3.2, 3.8]   (nested call of the same name)
    # span 4:  lattice.rref       [5, 9]
    names = ["cli.main", "residual.residual_points", "lattice.rref"]
    name_id = np.array([0, 1, 2, 1, 2], dtype=np.int32)
    parent = np.array([-1, 0, 1, 1, 0], dtype=np.int32)
    start = np.array([0.0, 1.0, 2.0, 3.2, 5.0])
    end = np.array([10.0, 4.0, 3.0, 3.8, 9.0])
    return names, name_id, parent, start, end


def test_self_times_subtract_direct_children():
    _, _, parent, start, end = synthetic()
    assert np.allclose(self_times(parent, start, end),
                       [10 - 3 - 4, 3 - 1 - 0.6, 1, 0.6, 4])


def test_layer_self_times_sum_to_root_time():
    names, name_id, parent, start, end = synthetic()
    self_s, calls, root_s = layer_summary(names, name_id, parent, start, end)
    assert self_s["cli"] == pytest.approx(3)
    assert self_s["residual"] == pytest.approx(1.4 + 0.6)
    assert self_s["lattice"] == pytest.approx(5)
    assert calls == {"lattice": 2, "rootdata": 0, "symbolicq": 0,
                     "residual": 2, "plancherel": 0, "residue": 0, "cli": 1}
    assert root_s == pytest.approx(sum(self_s.values()))


def test_outermost_and_nested_time():
    names, name_id, parent, start, end = synthetic()
    spans = (name_id, parent, start, end)
    assert outermost_time(names, *spans, "residual.residual_points") == \
        pytest.approx(3)
    assert outermost_time(names, *spans, "residual.absent") == 0.0
    # rref inside cli.main, not counting the one inside residual_points
    assert nested_time(names, *spans, "cli.main",
                       ["lattice.rref", "residual.residual_points"]) == \
        pytest.approx(3 + 4)


# -- tracer on the package -------------------------------------------------------


def run_op(op):
    return workloads.WORKLOADS["enumerate"].run(op, None)


def test_tracer_rebinds_imported_names_and_restores_them():
    from heckeplan import plancherel, residual, symbolicq
    original = residual.residual_points
    add = symbolicq.Cyclo.__add__
    tracer = Tracer()
    tracer.install()
    try:
        assert residual.residual_points is not original
        assert plancherel.residual_points is residual.residual_points
        assert symbolicq.Cyclo.__add__ is not add
    finally:
        tracer.uninstall()
    assert residual.residual_points is original
    assert plancherel.residual_points is original
    assert symbolicq.Cyclo.__add__ is add


def test_traced_and_untraced_outputs_are_identical():
    ops = [workloads._enumerate_op("B2", "P", "equal"),
           workloads._cli_op("density", ["tables", "--which", "density",
                                         "--type", "B2", "--lattice", "Q",
                                         "--q", "5/2", "--format", "json"])]
    untraced = [run_op(op) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_op(op) for op in ops]
    finally:
        tracer.uninstall()
    assert traced == untraced
    name_id, parent, start, end = tracer.arrays()
    assert len(name_id) > 0 and (end >= start).all()
    roots = [tracer.names[k] for k in name_id[parent < 0]]
    assert roots == ["cli.main", "cli.main"]
    layers_seen = {tracer.names[k].split(".")[0] for k in set(name_id)}
    assert {"cli", "rootdata", "residual", "lattice", "plancherel",
            "symbolicq"} <= layers_seen


def test_pair_key_identifies_the_full_parabolic_quotient():
    from heckeplan import rootdata
    from layers import pair_key
    datum = rootdata.RootDatum.from_type("B3", "P")
    labels = rootdata.LabelFunction.from_affine_nodes(
        datum, [2, 1, 1, 2])
    full = rootdata.parabolic_quotient(datum, range(datum.n_simple))
    key = pair_key(datum, labels)
    assert pair_key(full.sub_datum, rootdata.restrict_labels(labels, full)) \
        == key
    assert pair_key(datum, rootdata.LabelFunction.equal(datum)) != key
    root_lattice = rootdata.RootDatum.from_type("B3", "Q")
    assert pair_key(root_lattice,
                    rootdata.LabelFunction.equal(root_lattice)) != \
        pair_key(datum, rootdata.LabelFunction.equal(datum))


def test_layer_counts_add_up_over_the_operations_of_a_pass():
    from layers import LayerState
    state = LayerState()
    for nodes in (4, 8):
        state.start_operation()
        state._quadrature((None, [1.0, 1.0], nodes), None)
    assert state.quad_nodes == 4 ** 2 + 8 ** 2
    state.reset()
    assert state.quad_nodes == 0


# -- output checks -------------------------------------------------------------


def test_checker_rejects_wrong_outputs():
    op = workloads._enumerate_op("A2", "Q", "equal")
    rc, text = run_op(op)
    checker = workloads.Checker({op.key: workloads.digest(text)})
    assert checker.check(op, rc, text) is None
    assert checker.check(op, 1, text) == "exit code 1"
    doc = json.loads(text)
    doc["rows"][0]["index"] += 1
    broken = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert "reference" in workloads.Checker(
        {op.key: workloads.digest(text)}).check(op, 0, broken)
    assert "codimension" in workloads.Checker({}).check(op, 0, broken)
    assert "malformed" in workloads.Checker({}).check(op, 0, "not json")


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS.values():
        assert workload.inputs(3) == workload.inputs(3)
    assert workloads.WORKLOADS["enumerate"].inputs(1) != \
        workloads.WORKLOADS["enumerate"].inputs(2)


def test_residue_check_reads_the_special_point_mass_by_its_label():
    op = workloads._cli_op("residue", ["check", "--suite", "residue",
                                       "--type", "A1", "--q", "3",
                                       "--format", "json"])
    rc, text = run_op(op)
    checker = workloads.Checker({})
    assert checker.check(op, rc, text) is None
    label, exact = checker.special_mass("A1", 3)
    doc = json.loads(text)
    row = next(r for r in doc["rows"] if r["part"] == label)
    assert row["value"] == pytest.approx(exact, abs=1e-8)
    row["value"] += 1e-6
    assert "mass error" in checker.check(op, rc, json.dumps(doc))


def test_end_to_end_scales_every_time_to_the_reference_speed():
    import run
    workload = workloads.WORKLOADS["residue"]
    ops = workload.inputs(0)
    samples = [[1.0 + i, 2.0 + i, 4.0 + i] for i in range(len(ops))]
    as_measured, _ = run.end_to_end(workload, ops, samples, 0.5, 1.0)
    scaled, _ = run.end_to_end(workload, ops, samples, 0.5, 0.5)
    for name in ("setup_s", "op_p50_s", "op_tail_s"):
        assert scaled[name] == pytest.approx(as_measured[name] / 2)
    assert scaled["ops_per_s"] == pytest.approx(as_measured["ops_per_s"] * 2)
