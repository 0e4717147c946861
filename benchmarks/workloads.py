"""The four benchmark workloads: their inputs (made from the seed), their
set-up, how one operation runs, and how its output is checked.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  Nothing here runs
with more than one worker (`--jobs 1`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from heckeplan import cli, plancherel, residual, rootdata

# rational bases q drawn by the seed where a workload takes a numeric q
SEEDED_Q = (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3),
            Fraction(7, 2), Fraction(4), Fraction(5))

# groups whose outputs are compared with frozen reference digests
REFERENCED = ("enumerate", "density", "fdim", "poincare")

# criterion 5: rank-1 masses to 1e-8, rank-2 masses to 1e-6
RESIDUE_TOL = {1: 1e-8, 2: 1e-6}


@dataclass(frozen=True)
class Op:
    """One operation.  `key` names the input and nothing else; it keys the
    reference digests."""

    key: str
    group: str
    argv: tuple = ()
    datum: str = ""
    labels: tuple = ()


def _labels_text(values):
    return ",".join(str(v) for v in values)


def _seeded_labels(tag, lattice, rng):
    datum = rootdata.RootDatum.from_type(tag, lattice)
    return tuple(str(v) for v in rootdata.random_label_vector(datum, rng))


def _cli_op(group, argv):
    return Op(key=" ".join(argv), group=group, argv=tuple(argv))


def _enumerate_op(tag, lattice, labels):
    return _cli_op("enumerate", ["enumerate", "--type", tag, "--lattice",
                                 lattice, "--labels", labels,
                                 "--format", "json"])


@dataclass
class Workload:
    name: str
    min_passes: int          # passes that give the tail >= 10 samples
    inputs: object = field(repr=False)   # seed -> list[Op]
    build: object = field(repr=False)    # list[Op] -> context
    run: object = field(repr=False)      # (Op, context) -> (rc, text)


def run_cli(op: Op, _ctx):
    """Run one in-process CLI call; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(op.argv))
    return rc, buf.getvalue()


def build_nothing(_ops):
    return None


# -- enumerate: the cold path ------------------------------------------------

# (type, lattice, seeded label vectors besides equal labels).  A and D have
# one class of affine nodes, so their seeded labels are rescaled equal
# labels; B and C get two seeded vectors because their cost depends on them.
ENUM_DATA = [("A3", "Q", 1), ("A3", "P", 1), ("B3", "Q", 2), ("B3", "P", 2),
             ("C3", "Q", 2), ("C3", "P", 2), ("A4", "Q", 1), ("A4", "P", 0),
             ("D4", "Q", 1), ("D4", "P", 0), ("D5", "Q", 0)]


def enumerate_inputs(seed):
    rng = random.Random(seed)
    ops = []
    for tag, lattice, seeded in ENUM_DATA:
        ops.append(_enumerate_op(tag, lattice, "equal"))
        for _ in range(seeded):
            ops.append(_enumerate_op(tag, lattice, _labels_text(
                _seeded_labels(tag, lattice, rng))))
    return ops


# -- classify: the warm path -------------------------------------------------

# (type, lattice, label sets: equal labels and seeded ones).  Five seeded
# sets on each of B3/P and C3/P, whose suite cost depends on the labels,
# keep the cost of a pass and its percentiles close from one seed to the
# next.  D4 has one class of affine nodes, so a seeded set would only
# rescale its equal labels.
CLASSIFY_SETS = [("B3", "P", 6), ("C3", "P", 6), ("G2", "Q", 2),
                 ("D4", "Q", 1)]


def classify_inputs(seed):
    rng = random.Random(seed)
    ops = []
    for tag, lattice, count in CLASSIFY_SETS:
        sets = [()] + [_seeded_labels(tag, lattice, rng)
                       for _ in range(count - 1)]
        for values in sets:
            text = _labels_text(values) if values else "equal"
            ops.append(Op(key=f"classify {tag}/{lattice} {text}",
                          group="classify", datum=f"{tag}/{lattice}",
                          labels=values))
    return ops


def classify_build(ops):
    """Build every datum with its warm data, and the label functions of
    every operation.  The warm data are the Weyl group, the parabolic
    classes and the per-datum caches that one suite at equal labels fills
    (inverse transposes, K_L groups, reflection subgroups, support
    tables)."""
    data = {}
    for op in ops:
        if op.datum not in data:
            tag, lattice = op.datum.split("/")
            datum = rootdata.RootDatum.from_type(tag, lattice)
            datum.weyl_elements()
            rootdata.parabolic_classes(datum)
            residual.classification_suite(
                datum, rootdata.LabelFunction.equal(datum))
            data[op.datum] = datum
    labels = {}
    for op in ops:
        datum = data[op.datum]
        labels[op.key] = rootdata.LabelFunction.equal(datum) if not op.labels \
            else rootdata.LabelFunction.from_affine_nodes(
                datum, [Fraction(v) for v in op.labels])
    return {"data": data, "labels": labels}


def classify_run(op: Op, ctx):
    report = residual.classification_suite(ctx["data"][op.datum],
                                           ctx["labels"][op.key])
    return (0 if report.passed else 1,
            json.dumps(report.to_json(), sort_keys=True))


# -- density: exact cyclotomic arithmetic ----------------------------------

DENSITY_DATA = [("A2", "P"), ("B2", "Q"), ("B2", "P"), ("C2", "P"),
                ("G2", "Q")]
# fdim n=4 is left out: its C4/P enumeration took 1.3-2.2 s on identical
# input, half of a pass, and set the pass time (see README.md)
FDIM_N = (3,)
POINCARE_TYPES = ("A2", "B2", "G2")


def density_inputs(seed):
    rng = random.Random(seed)
    ops = []
    for tag, lattice in DENSITY_DATA:
        q = str(rng.choice(SEEDED_Q))
        ops.append(_cli_op("density", ["tables", "--which", "density",
                                       "--type", tag, "--lattice", lattice,
                                       "--q", q, "--format", "json"]))
    for n in FDIM_N:
        ops.append(_cli_op("fdim", ["tables", "--which", "fdim", "--n",
                                    str(n), "--format", "json"]))
    for tag in POINCARE_TYPES:
        q = str(rng.choice(SEEDED_Q))
        ops.append(_cli_op("poincare", ["tables", "--which", "poincare",
                                        "--type", tag, "--q", q,
                                        "--format", "json"]))
    return ops


# -- residue: numeric contour shifts -----------------------------------------

# q = 4 and 5 shorten the rank-2 contour integrals, so that a run holds
# enough operations for its percentiles; q = 2 at rank 2 is left out for
# run length (see README.md)
RESIDUE_CASES = [("A1", "2"), ("A1", "3"), ("A2", "3"), ("A2", "4"),
                 ("A2", "5"), ("B2", "3"), ("B2", "4"), ("B2", "5")]


def residue_inputs(_seed):
    return [_cli_op("residue", ["check", "--suite", "residue", "--type", tag,
                                "--q", q, "--format", "json"])
            for tag, q in RESIDUE_CASES]


WORKLOADS = {
    "enumerate": Workload(
        "enumerate",
        min_passes=2,
        inputs=enumerate_inputs, build=build_nothing, run=run_cli),
    "classify": Workload(
        "classify",
        min_passes=3,
        inputs=classify_inputs, build=classify_build, run=classify_run),
    "density": Workload(
        "density",
        min_passes=5,
        inputs=density_inputs, build=build_nothing, run=run_cli),
    "residue": Workload(
        "residue",
        min_passes=3,
        inputs=residue_inputs, build=build_nothing, run=run_cli),
}


# -- output checks -----------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Checks one operation's output: invariants on every seed, and the
    frozen reference digest wherever one is stored for the input."""

    def __init__(self, references: dict):
        self.references = references
        self._exact = {}
        self.max_abs_err = 0.0

    def check(self, op: Op, rc, text: str):
        """Returns None when the output is correct, else the reason."""
        if rc != 0:
            return f"exit code {rc}"
        if op.group in REFERENCED and op.key in self.references and \
                digest(text) != self.references[op.key]:
            return "output differs from the frozen reference"
        try:
            return self._check_content(op, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"malformed output ({type(exc).__name__}: {exc})"

    def _check_content(self, op: Op, text: str):
        if op.group == "classify":
            return None if json.loads(text)["passed"] else "suite failed"
        rows = json.loads(text)["rows"]
        if op.group == "enumerate":
            bad = [r["orbit"] for r in rows
                   if r["index"] != len(r["parabolic"])]
            return f"index != codimension at {bad}" if bad else None
        if op.group == "fdim":
            return None if rows[0]["match"] == "exact" else "fdim mismatch"
        if op.group == "poincare":
            return None if rows[0]["within_bound"] else "outside tail bound"
        if op.group == "residue":
            return self._check_residue(op, rows)
        return None

    def _check_residue(self, op: Op, rows):
        tag = op.argv[op.argv.index("--type") + 1]
        q = Fraction(op.argv[op.argv.index("--q") + 1])
        tol = RESIDUE_TOL[int(tag[1:])]
        values = {r["part"]: r["value"] for r in rows}
        masses = [v for k, v in values.items()
                  if k not in ("global", "closure_error")]
        label, exact = self.special_mass(tag, q)
        if label not in values:
            return f"no mass for the special point orbit {label!r}"
        err = max(abs(values["global"] - 1.0), abs(values[label] - exact))
        self.max_abs_err = max(self.max_abs_err, err)
        if err > tol:
            return f"mass error {err:.3g} above {tol:g}"
        if min(masses) < -tol:
            return f"negative mass {min(masses):.3g}"
        return None

    def special_mass(self, tag, q):
        """The output label of the special (Steinberg) point orbit and its
        exact mass at the numeric base q (equal labels, lattice Q)."""
        if (tag, q) not in self._exact:
            datum = rootdata.RootDatum.from_type(tag, "Q")
            labels = rootdata.LabelFunction.equal(datum)
            st = residual.steinberg_point(datum, labels)
            rep = residual.canonical_point(datum, st)
            coset = next(c for c in residual.residual_cosets(datum, labels)
                         if c.dim == 0 and
                         residual.canonical_point(datum, c.point) == rep)
            # the part label `check --suite residue` gives a coset
            label = f"dim0 P={list(coset.support)} " + " ".join(
                "({},{})".format(*coset.point.value_of(root))
                for root in datum.simple_roots)
            self._exact[tag, q] = (label, float(
                plancherel.plancherel_point_mass(datum, labels, st)
                .evaluate(q)))
        return self._exact[tag, q]
