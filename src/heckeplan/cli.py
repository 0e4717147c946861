"""Command-line frontend: enumeration tables, invariant suites, density
and reciprocal-sum tables, and the numeric residue checks.

Exit codes: 0 success, 1 invariant failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .rootdata import (
    LabelFunction,
    RootDatum,
    datum_labels_from_json,
    random_label_vector,
)
from .symbolicq import ExpansionTooLarge

F = Fraction

SUITE_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "B4", "C4", "F4"]

# the most affine elements `tables --which poincare` walks: every type of
# rank <= 4 at the default cut of 40 (A4 has 563,751, about 1.5 s), and A1
# up to a cut of 524,287
WALK_CAP = 1 << 20


def build_parser():
    p = argparse.ArgumentParser(
        prog="heckeplan",
        description="exact residual-coset enumeration and density tables "
                    "for affine Hecke algebra root data")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--type", help="Cartan type, e.g. B2 (rank <= 5)")
        sp.add_argument("--lattice", default="Q", choices=["Q", "P"],
                        help="character lattice: root (Q) or weight (P)")
        sp.add_argument("--labels", default="equal",
                        help="'equal', a single exponent, or one exponent "
                             "per affine node (affine node first), "
                             "comma-separated")
        sp.add_argument("--config", help="JSON file with datum and labels "
                                         "(overridden by explicit flags)")
        sp.add_argument("--q", default=None,
                        help="numeric base q (rational like 5/2 or decimal)")
        sp.add_argument("--format", default="text",
                        choices=["text", "json", "csv", "tex"])
        sp.add_argument("--out", help="output file (default stdout)")
        sp.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes for batch suites "
                             "(default 1)")
        sp.add_argument("--tol", type=float, default=None,
                        help="numeric tolerance override")

    e = sub.add_parser("enumerate", help="residual coset orbits")
    common(e)

    c = sub.add_parser("check", help="invariant suites")
    common(c)
    c.add_argument("--suite", required=True,
                   choices=["classification", "scaling", "kl", "density",
                            "residue"])
    c.add_argument("--max-rank", type=int, default=4)
    c.add_argument("--eps", default="2",
                   help="label scaling factor(s) for the scaling suite")
    c.add_argument("--seed", type=int, default=2024)

    t = sub.add_parser("tables", help="density and sum tables")
    common(t)
    t.add_argument("--which", required=True,
                   choices=["poincare", "density", "fdim"])
    t.add_argument("--truncate", type=int, default=40,
                   help="length cut for the direct affine sum")
    t.add_argument("--family", default="subregular-C",
                   help="closed-form family for fdim tables")
    t.add_argument("--n", type=int, default=3,
                   help="rank parameter for fdim tables")
    return p


@cache
def _parser():
    """The one parser `main` reads every argument list with."""
    return build_parser()


def parse_q(text, default=None):
    """The numeric base q given by --q, or `default` without the flag.
    The label base is q > 1: at q = 1 a density factor q^r - 1 vanishes,
    so a base q <= 1 is a usage error."""
    if text is None:
        return default
    try:
        q = F(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--q is not a number: {text}") from None
    if q <= 1:
        raise UsageError(f"--q must be greater than 1, got {text}")
    return q


def resolve_datum(args):
    datum = labels = None
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                datum, labels = datum_labels_from_json(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read --config: {exc}") from exc
        except KeyError as exc:
            raise UsageError(f"--config {args.config} has no key {exc}") \
                from exc
        except (TypeError, AttributeError, ZeroDivisionError) as exc:
            raise UsageError(f"--config {args.config} is malformed: {exc}") \
                from exc
    if args.type:
        datum = RootDatum.from_type(args.type, args.lattice)
        labels = None
    if datum is None:
        raise UsageError("--type or --config is required")
    if labels is None or args.labels != "equal":
        labels = parse_labels(datum, args.labels)
    return datum, labels


def parse_labels(datum, text):
    if text == "equal":
        return LabelFunction.equal(datum)
    parts = _fractions("--labels", text)
    if len(parts) == 1:
        return LabelFunction.equal(datum, parts[0])
    return LabelFunction.from_affine_nodes(datum, parts)


def _fractions(flag, text):
    """The comma-separated rationals of a flag's value; a zero
    denominator is a usage error."""
    try:
        return [F(x) for x in text.split(",")]
    except ZeroDivisionError:
        raise UsageError(f"{flag} has a zero denominator: {text}") from None


class UsageError(Exception):
    pass


# -- output ---------------------------------------------------------------------


def emit(rows, header, args):
    """Render rows (list of dicts with common keys) in the chosen format,
    preceded by a header block recording the configuration, straight to
    the --out file or to stdout."""
    if not args.out:
        _write_table(rows, header, args.format, sys.stdout)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_table(rows, header, args.format, fh)
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from exc


def _write_table(rows, header, fmt, out):
    """Write the header and then each row to the text stream `out`; the
    text format pads each cell to the widest of its column, found first."""
    keys = list(rows[0].keys()) if rows else []
    if fmt == "json":
        json.dump({"header": header, "rows": rows}, out, indent=1,
                  sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        for k, v in header.items():
            writer.writerow([f"# {k}", v])
        writer.writerow(keys)
        for r in rows:
            writer.writerow([r[k] for k in keys])
    elif fmt == "tex":
        for k, v in header.items():
            out.write(f"% {k}: {v}\n")
        out.write("\\begin{tabular}{" + "l" * len(keys) + "}\n")
        out.write(" & ".join(k.replace("_", "\\_") for k in keys) +
                  " \\\\\n\\hline\n")
        for r in rows:
            out.write(" & ".join(str(r[k]).replace("_", "\\_")
                                 for k in keys) + " \\\\\n")
        out.write("\\end{tabular}\n")
    else:
        for k, v in header.items():
            out.write(f"# {k}: {v}\n")
        if rows:
            widths = {k: max(len(str(k)),
                             max(len(str(r[k])) for r in rows))
                      for k in keys}
            out.write("  ".join(str(k).ljust(widths[k]) for k in keys)
                      + "\n")
            for r in rows:
                out.write("  ".join(str(r[k]).ljust(widths[k])
                                    for k in keys) + "\n")


def base_header(args, datum, labels, columns=None):
    h = {
        "tool": f"heckeplan {__version__}",
        "datum": f"{datum.typename} lattice={datum.lattice}",
        "labels": args.labels,
    }
    if columns:
        h["columns"] = "; ".join(f"{k}={v}" for k, v in columns.items())
    return h


# -- commands --------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    from .residual import residual_cosets
    datum, labels = resolve_datum(args)
    cosets = residual_cosets(datum, labels)
    rows = []
    for k, c in enumerate(cosets):
        data = c.to_json()
        rows.append({
            "orbit": k,
            "dim": c.dim,
            "parabolic": data["parabolic"],
            "point_u": ",".join(data["point"]["u"]),
            "point_r": ",".join(data["point"]["r"]),
            "index": data["index"],
            "center": ",".join(data["center"]),
            "kL": data["kL"],
            "Rp": len(data["Rp"]),
            "Rz": len(data["Rz"]),
        })
    header = base_header(args, datum, labels, {
        "point": "base point as (unitary, split) exponent vectors",
        "index": "pole-minus-zero count on the coset",
        "kL": "order of the finite intersection group",
    })
    emit(rows, header, args)
    return 0


def _suite_task(task):
    """The classification rows of one (type, lattice): the datum is built
    once and warm for each of its label sets ("equal" or node values)."""
    tag, lattice, label_sets = task
    from .residual import classification_suite
    datum = RootDatum.from_type(tag, lattice)
    rows = []
    for values in label_sets:
        if values == "equal":
            labels = LabelFunction.equal(datum)
        else:
            labels = LabelFunction.from_affine_nodes(
                datum, [F(v) for v in values])
        rep = classification_suite(datum, labels)
        rows.append({"type": tag, "lattice": lattice,
                     "labels": "equal" if values == "equal" else
                     ",".join(str(v) for v in values),
                     "passed": rep.passed,
                     "checks": "; ".join(
                         f"{c.name}={'ok' if c.passed else 'FAIL'}"
                         for c in rep.checks)})
    return rows


def cmd_check(args) -> int:
    if args.suite == "classification":
        return check_classification(args)
    if args.suite == "scaling":
        return check_scaling(args)
    if args.suite == "kl":
        return check_kl(args)
    if args.suite == "density":
        return check_density(args)
    return check_residue(args)


def check_classification(args) -> int:
    rng = random.Random(args.seed)
    tasks = []
    types = [args.type] if args.type else SUITE_TYPES
    for tag in types:
        rank = int(tag[1:])
        if rank > args.max_rank:
            continue
        for lattice in ("Q", "P"):
            datum = RootDatum.from_type(tag, lattice)
            if lattice == "P" and datum.weight_index() == 1:
                continue
            tasks.append((tag, lattice, ["equal"] + [
                [str(v) for v in random_label_vector(datum, rng)]
                for _ in range(3)]))
    if not tasks:
        raise UsageError(f"no suite type of rank at most {args.max_rank}")
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        # the fork start method forks every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) \
                as pool:
            batches = list(pool.map(_suite_task, tasks))
    else:
        batches = list(map(_suite_task, tasks))
    rows = [row for batch in batches for row in batch]
    header = base_header_plain(args, "classification invariants")
    emit(rows, header, args)
    return 0 if all(r["passed"] for r in rows) else 1


def base_header_plain(args, what):
    return {"tool": f"heckeplan {__version__}", "suite": what}


def check_scaling(args) -> int:
    from .residual import scaling_check
    datum, labels = resolve_datum(args)
    eps_list = _fractions("--eps", str(args.eps))
    if 0 in eps_list:
        raise UsageError("--eps must be nonzero: scaling by 0 collapses "
                         "every split part")
    rows = []
    ok = True
    for eps in eps_list:
        good = scaling_check(datum, labels, eps)
        ok = ok and good
        rows.append({"eps": str(eps), "passed": good})
    emit(rows, base_header(args, datum, labels), args)
    return 0 if ok else 1


def check_kl(args) -> int:
    from .residual import kl_real_point_check
    datum, labels = resolve_datum(args)
    ok, vectors = kl_real_point_check(datum, labels)
    rows = [{"real_point": i, "simple_values": ",".join(str(v) for v in vec),
             "in_01": all(v in (0, 1) for v in vec)}
            for i, vec in enumerate(vectors)]
    emit(rows, base_header(args, datum, labels, {
        "simple_values": "split exponents of the simple roots at the "
                         "dominant representative (units of the label)"}),
        args)
    return 0 if ok else 1


def check_density(args) -> int:
    from .plancherel import density_table
    datum, labels = resolve_datum(args)
    qval = parse_q(args.q, F(2))
    rows = density_table(datum, labels, qval=qval)
    ok = all(r["mass_symbolic"] != "singular-base" for r in rows)
    for r in rows:
        val = r.get("mass_at_q", "0")
        if "inf" in str(val) or "nan" in str(val):
            ok = False
    emit(rows, base_header(args, datum, labels, {
        "mass_symbolic": "density value (product formula)",
        "mass_at_q": "density value at the numeric base"}), args)
    return 0 if ok else 1


def check_residue(args) -> int:
    from .residue import shift_and_collect
    datum, labels = resolve_datum(args)
    qval = parse_q(args.q, F(2))
    rep = shift_and_collect(datum, labels, qval, tolerance=args.tol)
    tol = rep.tolerance
    rows = [{"part": "global", "value": rep.global_mass},
            {"part": "continuous", "value": rep.continuous}]
    ok = abs(rep.global_mass - 1.0) <= tol
    for e in rep.coset_masses + rep.point_masses:
        rows.append({"part": e.label, "value": e.value})
        if e.value < -tol:
            ok = False
    rows.append({"part": "closure_error", "value": rep.closure_error})
    if rep.closure_error > tol:
        ok = False
    header = base_header(args, datum, labels, {
        "value": "numeric contour mass at the given q"})
    header["resolution"] = rep.resolution
    header["error_estimate"] = rep.error_estimate
    emit(rows, header, args)
    return 0 if ok else 1


def cmd_tables(args) -> int:
    if args.which == "poincare":
        return table_poincare(args)
    if args.which == "density":
        return check_density(args)
    return table_fdim(args)


def table_poincare(args) -> int:
    from .plancherel import (
        length_count,
        poincare_product,
        poincare_tail_bound,
        poincare_truncated,
    )
    if args.truncate < 1:
        raise UsageError("--truncate must be at least 1")
    datum, labels = resolve_datum(args)
    qval = parse_q(args.q, F(2))
    if length_count(datum, args.truncate, WALK_CAP) > WALK_CAP:
        raise UsageError(f"--truncate {args.truncate} walks more than "
                         f"{WALK_CAP} affine elements of {datum.typename}")
    res = poincare_product(datum, labels)
    if not res.valid:
        emit([{"status": "divergent", "detail": res.detail}],
             base_header(args, datum, labels), args)
        return 1
    total, layers = poincare_truncated(datum, labels, qval, args.truncate)
    bound = poincare_tail_bound(datum, labels, qval, args.truncate, layers)
    exact = res.product.evaluate(qval)
    # exact is complex when an exponent of q has no exact root at qval
    diff = abs(complex(exact) - complex(total))
    rows = [{
        "product": str(res.product),
        "product_at_q": str(exact),
        "truncated_sum": float(total),
        "cut": args.truncate,
        "difference": diff,
        "tail_bound": bound,
        "within_bound": diff <= max(bound, 1e-9),
    }]
    emit(rows, base_header(args, datum, labels, {
        "product": "reciprocal of the special-point mass",
        "truncated_sum": "direct sum of q(w)^{-1} up to the length cut"}),
        args)
    return 0 if rows[0]["within_bound"] else 1


def table_fdim(args) -> int:
    if args.family != "subregular-C":
        raise UsageError("unknown fdim family")
    from .plancherel import fdim_subregular_c
    qval = parse_q(args.q)
    rep = fdim_subregular_c(args.n, qval=qval)
    row = {
        "n": rep.n,
        "simple_values": ",".join(str(v) for v in rep.point_values),
        "match": "exact" if rep.matches else "MISMATCH",
        "sign": rep.sign,
        "assembled": str(rep.assembled),
        "reference": str(rep.reference),
    }
    if qval is not None:
        row["assembled_at_q"] = str(rep.numeric_assembled)
        row["reference_at_q"] = str(rep.numeric_reference)
    emit([row], {"tool": f"heckeplan {__version__}",
                 "family": "subregular type-C mass",
                 "columns": "assembled=constant times point density; "
                            "reference=closed-form product"}, args)
    return 0 if rep.matches else 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if args.jobs < 1:
            raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
        if args.command == "enumerate":
            return cmd_enumerate(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_tables(args)
    except (UsageError, ExpansionTooLarge, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
