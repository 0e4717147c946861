"""Per-layer metrics of a traced pass.

Each metric is named `<layer>.<what>`; the layers are the package modules.
Times named after a function are the summed duration of its outermost calls
(calls not nested inside another call of the same function).  The README
lists which end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

from fractions import Fraction

from heckeplan.symbolicq import Cyclo

from tracing import (
    LAYERS,
    layer_summary,
    nested_time,
    outermost_time,
)

FUNCTION_TIMES = {
    "rootdata.weyl_elements_s": "rootdata.RootDatum.weyl_elements",
    "rootdata.parabolic_classes_s": "rootdata.parabolic_classes",
    "residual.inverse_transpose_matrices_s":
        "residual.inverse_transpose_matrices",
    "residual.unitary_candidates_s": "residual.unitary_candidates",
    "residual.graded_residual_points_s": "residual.graded_residual_points",
    "residual.residual_points_s": "residual.residual_points",
    "residual.residual_cosets_s": "residual.residual_cosets",
    "plancherel.m_point_s": "plancherel.m_point",
    "plancherel.m_on_coset_s": "plancherel.m_on_coset",
    "plancherel.density_table_s": "plancherel.density_table",
    "plancherel.fdim_subregular_c_s": "plancherel.fdim_subregular_c",
    "plancherel.poincare_truncated_s": "plancherel.poincare_truncated",
    "residue.torus_integral_s": "residue.torus_integral",
    "residue.shift_and_collect_s": "residue.shift_and_collect",
}

CALL_COUNTS = {
    "residual.point_index_calls": "residual.point_index",
    "residual.canonical_point_calls": "residual.canonical_point",
    "lattice.saturate_calls": "lattice.saturate",
    "lattice.smith_normal_form_calls": "lattice.smith_normal_form",
    "residue.torus_integral_calls": "residue.torus_integral",
}

SUITE = "residual.classification_suite"
ENUMERATION = ("residual.residual_cosets", "residual.residual_points")

UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{name: "s" for name in FUNCTION_TIMES},
    **{name: "count" for name in CALL_COUNTS},
    "rootdata.weyl_order": "count",
    "residual.points_found": "count",
    "residual.cosets_found": "count",
    "residual.classification_suite_self_s": "s",
    "residual.residual_points_recompute_ratio": "ratio",
    "symbolicq.cyclo_order_max": "order",
    "residue.quad_nodes": "count",
    "residue.max_abs_err": "abs",
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.harness_s": "s",
    "trace.harness_share": "ratio",
    "trace.spans": "count",
}


def _det(rows):
    """Determinant of a square integer matrix by exact elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


def pair_key(datum, labels):
    """Identity of a (datum, labels) pair that does not depend on the basis:
    the Cartan matrix, the index of the root lattice in X and the labels
    of the simple roots.  The parabolic quotient on all simple roots, which
    `residual_cosets` builds, has the same key as its parent.  Reads
    attributes only, so that no traced call runs inside a hook."""
    simples = [tuple(r) for r in datum.simple_roots]
    cartan = tuple(tuple(sum(a * b for a, b in zip(root, coroot))
                         for coroot in datum.simple_coroots)
                   for root in simples)
    index = abs(_det(simples)) if all(len(r) == len(simples)
                                      for r in simples) else None
    return cartan, index, tuple(labels.pairs[r] for r in simples)


class LayerState:
    """Work counts gathered by post-call hooks during one traced pass.

    Data are held until `reset()`, so that `id()` values stay unique
    within a pass.  Pairs count as distinct within one operation, since
    every operation of `enumerate` builds its data afresh.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.fresh_data = {}
        self.weyl_order = 0
        self.points_calls = 0
        self.points_distinct = 0
        self.points_found = 0
        self.cosets_found = 0
        self.cyclo_order_max = 0
        self.quad_nodes = 0
        self.output_bytes = 0
        self.max_abs_err = 0.0
        self.start_operation()

    def start_operation(self):
        self.points_pairs = set()
        self.cosets_pairs = set()

    def hooks(self):
        hooks = {
            "rootdata.RootDatum.__init__": self._datum_built,
            "rootdata.RootDatum.weyl_elements": self._weyl_generated,
            "residual.residual_points": self._points,
            "residual.residual_cosets": self._cosets,
            "residue.torus_integral": self._quadrature,
        }
        for method in ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__neg__", "lift",
                       "inverse", "conjugate"):
            hooks[f"symbolicq.Cyclo.{method}"] = self._cyclo_inputs
        return hooks

    def _datum_built(self, args, _result):
        self.fresh_data[id(args[0])] = args[0]

    def _weyl_generated(self, args, result):
        # only a datum built while tracing generates its group here
        if self.fresh_data.pop(id(args[0]), None) is not None:
            self.weyl_order += len(result)

    def _points(self, args, result):
        self.points_calls += 1
        key = pair_key(*args[:2])
        if key not in self.points_pairs:
            self.points_pairs.add(key)
            self.points_distinct += 1
            self.points_found += len(result)

    def _cosets(self, args, result):
        key = pair_key(*args[:2])
        if key not in self.cosets_pairs:
            self.cosets_pairs.add(key)
            self.cosets_found += len(result)

    def _cyclo_inputs(self, args, _result):
        for a in args:
            if isinstance(a, Cyclo) and a.n > self.cyclo_order_max:
                self.cyclo_order_max = a.n

    def _quadrature(self, args, _result):
        _fn, radii, nodes = args[:3]
        self.quad_nodes += nodes ** len(radii)


def metrics(tracer, state: LayerState, traced_wall, untraced_wall):
    """Every per-layer metric of the pass just traced."""
    names = tracer.names
    spans = tracer.arrays()
    self_s, calls, root_s = layer_summary(names, *spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    for metric, target in FUNCTION_TIMES.items():
        out[metric] = outermost_time(names, *spans, target)
    name_id = spans[0]
    for metric, target in CALL_COUNTS.items():
        out[metric] = int((name_id == names.index(target)).sum()) \
            if target in names else 0
    out["rootdata.weyl_order"] = state.weyl_order
    out["residual.points_found"] = state.points_found
    out["residual.cosets_found"] = state.cosets_found
    out["residual.classification_suite_self_s"] = \
        outermost_time(names, *spans, SUITE) - \
        nested_time(names, *spans, SUITE, ENUMERATION)
    out["residual.residual_points_recompute_ratio"] = \
        state.points_calls / state.points_distinct \
        if state.points_distinct else 0.0
    out["symbolicq.cyclo_order_max"] = state.cyclo_order_max
    out["residue.quad_nodes"] = state.quad_nodes
    out["residue.max_abs_err"] = state.max_abs_err
    out["cli.output_bytes"] = state.output_bytes
    # the layer self times sum to root_s by construction, so the harness
    # time (gc, stdout capture, the loop) is what the root spans leave of
    # the traced wall time
    harness = traced_wall - root_s
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    out["trace.harness_s"] = harness
    out["trace.harness_share"] = harness / traced_wall
    out["trace.spans"] = len(name_id)
    return out
