"""heckeplan benchmark.

    python3 benchmarks/run.py --workload enumerate --seed 0 --seconds 18 --trace 0

Runs one workload as a closed loop (one client, one process, `--jobs 1`)
for at least `--seconds` seconds and whole passes over the workload's input
list, checks every output, and prints each metric by name and unit.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are end to end, with every time scaled to a
reference speed (see REFERENCE_S); the wall-clock figures are printed
too.  With `--trace 1` the run
alternates an untraced and a traced pass over the same inputs and reports
per-layer metrics of the traced passes, the tracing overhead, and whether
traced and untraced outputs agree; its spans are written to
`benchmarks/out/`.

`--workload all` runs every workload in its own process and prints a table.
`--freeze-references SEEDS` (e.g. `0-10`) stores the output digests of the
referenced operations of those seeds in `benchmarks/references.json`.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from stats import nearest_rank, samples_beyond, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
OUT = HERE / "out"
SETUP_REPEATS = 3
DEFAULT_SEED = 0
# Times are reported at the machine speed at which reference_work() takes
# REFERENCE_S.  A 2-vCPU virtual machine ran identical runs up to 1.8x
# apart within minutes; the reference, timed before every operation in
# the same process, slows with it, while a change to the package does not
# move it.
REFERENCE_S = 0.015

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import heckeplan.cli, heckeplan.plancherel, heckeplan.residue\n"
    "print(time.perf_counter() - t)\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="enumerate")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--freeze-references", metavar="SEEDS")
    return p.parse_args(argv)


def import_seconds():
    """Median import time of the package in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             check=True, capture_output=True, text=True,
                             timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def reference_work():
    """A fixed computation in the package's idiom: exact fractions, tuple
    keys and dicts, in pure Python."""
    seen = {}
    total = Fraction(0)
    for i in range(4000):
        key = (i % 7, i % 11, i % 13)
        seen[key] = seen.get(key, 0) + 1
        total += Fraction(i % 5, i % 3 + 1)
    return total, len(seen)


def reference_seconds():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def setup(workload, ops, refs):
    """Build the inputs SETUP_REPEATS times from scratch, timing the
    reference before each build into `refs`; returns the last context and
    the wall-clock set-up time (import plus median build)."""
    builds = []
    ctx = None
    for _ in range(SETUP_REPEATS):
        refs.append(reference_seconds())
        t0 = time.perf_counter()
        ctx = workload.build(ops)
        builds.append(time.perf_counter() - t0)
    return ctx, import_seconds() + statistics.median(builds)


def load_references():
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def timed_call(workload, op, ctx):
    """Run one operation; an exception is a failed operation.  The garbage
    left by earlier operations is collected first, outside the timing, so
    that no operation pays for another's."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        rc, text = workload.run(op, ctx)
    except Exception:  # noqa: BLE001 - every failure is counted, not raised
        rc, text = None, traceback.format_exc()
    return time.perf_counter() - t0, rc, text


def failure(checker, op, rc, text):
    """None for a correct output, else the reason (the traceback when the
    operation raised)."""
    return checker.check(op, rc, text) if rc is not None else text


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {op.key}: {reason.strip()}", file=sys.stderr)


def pass_order(ops, rng):
    order = list(range(len(ops)))
    rng.shuffle(order)
    return order


def untimed_pass(workload, ops, ctx, checker, order_rng, tally):
    """One checked pass whose times are not kept."""
    for i in pass_order(ops, order_rng):
        _, rc, text = timed_call(workload, ops[i], ctx)
        tally.record(ops[i], failure(checker, ops[i], rc, text))


# -- end-to-end run ------------------------------------------------------------


def measure(workload, ops, ctx, checker, seconds, order_rng, refs):
    """Closed loop over whole passes until both `seconds` have elapsed and
    `workload.min_passes` passes are done, timing the reference into
    `refs` before each operation.  Returns per-input samples."""
    samples = [[] for _ in ops]
    tally = Tally()
    passes = 0
    t_start = time.perf_counter()
    while passes < workload.min_passes or \
            time.perf_counter() - t_start < seconds:
        for i in pass_order(ops, order_rng):
            refs.append(reference_seconds())
            dt, rc, text = timed_call(workload, ops[i], ctx)
            samples[i].append(dt)
            tally.record(ops[i], failure(checker, ops[i], rc, text))
        passes += 1
    return samples, tally, passes, time.perf_counter() - t_start


def end_to_end(workload, ops, samples, setup_s, scale):
    """The end-to-end metrics, every time multiplied by `scale`."""
    samples = [[t * scale for t in per_op] for per_op in samples]
    flat = [t for per_op in samples for t in per_op]
    # the percentile the minimum number of passes allows, so that a run
    # that makes more passes is still compared at the same percentile
    cap = tail_percentile(workload.min_passes * len(ops))
    if cap is None:
        raise RuntimeError(f"{workload.min_passes} passes over {len(ops)} "
                           "inputs leave no percentile with ten beyond it")
    pct = tail_percentile(len(flat), cap=cap)
    metrics = {
        "setup_s": setup_s * scale,
        "ops_per_s": len(ops) / sum(statistics.median(s) for s in samples),
        "op_p50_s": statistics.median(statistics.median(s) for s in samples),
        "op_tail_s": nearest_rank(flat, pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    tail_note = (f"p{pct:g} of {len(flat)} samples, "
                 f"{samples_beyond(len(flat), pct)} beyond")
    return metrics, tail_note


# -- traced run ----------------------------------------------------------------


def traced_run(workload, ops, ctx, checker, seconds, order_rng, seed):
    """After one untraced warm-up pass, alternate untraced and traced
    passes over the same order until `seconds` have elapsed (at least one
    pair); per-layer metrics are the medians over the traced passes."""
    import layers
    from tracing import Tracer
    tracer = Tracer()
    state = layers.LayerState()
    tracer.hooks.update(state.hooks())
    tally = Tally()
    per_pass = []
    t_start = time.perf_counter()
    untimed_pass(workload, ops, ctx, checker, order_rng, tally)
    while not per_pass or time.perf_counter() - t_start < seconds:
        order = pass_order(ops, order_rng)
        untraced = {}
        t0 = time.perf_counter()
        for i in order:
            untraced[i] = timed_call(workload, ops[i], ctx)[1:]
        untraced_wall = time.perf_counter() - t0
        tracer.clear()
        state.reset()
        traced = {}
        tracer.install()
        try:
            t0 = time.perf_counter()
            for i in order:
                state.start_operation()
                traced[i] = timed_call(workload, ops[i], ctx)[1:]
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        for i in order:
            for rc, text in (untraced[i], traced[i]):
                reason = failure(checker, ops[i], rc, text)
                if reason is None and untraced[i] != traced[i]:
                    reason = "traced output differs from untraced output"
                tally.record(ops[i], reason)
        state.output_bytes = sum(len(traced[i][1].encode("utf-8"))
                                 for i in order if ops[i].argv)
        state.max_abs_err = checker.max_abs_err
        per_pass.append(layers.metrics(tracer, state, traced_wall,
                                       untraced_wall))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}-seed{seed}.npz")
    merged = {k: statistics.median(p[k] for p in per_pass)
              for k in per_pass[0]}
    return merged, tally, len(per_pass), time.perf_counter() - t_start


# -- entry points --------------------------------------------------------------


def run_one(args):
    t_import = time.perf_counter()
    import workloads  # imports the package
    import_s = time.perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.inputs(args.seed)
    refs = []
    ctx, setup_s = setup(workload, ops, refs)
    checker = workloads.Checker(load_references())
    order_rng = random.Random(f"order-{args.seed}")
    print(f"workload {workload.name} (seed {args.seed}): closed loop, "
          f"1 client, 1 process, --jobs 1; {len(ops)} inputs; "
          f"package import {import_s:.3f} s")
    print("inputs: " + "; ".join(op.key for op in ops))
    if args.trace:
        metrics, tally, passes, wall = traced_run(
            workload, ops, ctx, checker, args.seconds, order_rng, args.seed)
        import layers
        units = layers.UNITS
        print(f"traced: {passes} untraced+traced pass pair(s) in "
              f"{wall:.1f} s; tracing overhead x"
              f"{metrics['trace.overhead_ratio']:.2f} (traced wall "
              f"{metrics['trace.wall_s']:.3f} s / untraced wall "
              f"{metrics['trace.untraced_wall_s']:.3f} s)")
    else:
        samples, tally, passes, wall = measure(
            workload, ops, ctx, checker, args.seconds, order_rng, refs)
        ref_s = statistics.median(refs)
        metrics, tail_note = end_to_end(workload, ops, samples, setup_s,
                                        REFERENCE_S / ref_s)
        wall_clock, _ = end_to_end(workload, ops, samples, setup_s, 1.0)
        units = END_TO_END_UNITS
        print(f"measured: {passes} passes, {tally.attempted} operations "
              f"in {wall:.1f} s ({tally.attempted / wall:.4f} completed/s)")
        print(f"op_tail_s is the {tail_note}")
        print(f"reference work: median {ref_s:.6f} s of {len(refs)}; times "
              f"below are scaled by {REFERENCE_S:g} / {ref_s:.6f}")
        print("wall clock: " + ", ".join(
            f"{k} {wall_clock[k]:.6g} {units[k]}"
            for k in ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s")))
    fail_ratio = tally.failed / tally.attempted
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {fail_ratio:.6g} ({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; prints one table."""
    import workloads
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
        for line in proc.stdout.strip().splitlines()[:-1]:
            print(f"[{name}] {line}")
    print()
    for name, result in rows:
        fail = result["failed"] / result["attempted"]
        cells = [f"{k}={v['value']:.4g} {v['unit']}"
                 for k, v in result["metrics"].items()]
        print(f"{name:10s} fail_ratio={fail:.4g} " + "  ".join(cells))
    print(json.dumps({name: result for name, result in rows}))
    return 0


def freeze_references(args):
    """Store the digests of every referenced operation of the given seeds,
    after checking the invariants of each output."""
    import workloads
    lo, _, hi = args.freeze_references.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    checker = workloads.Checker({})
    refs = {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            for op in workload.inputs(seed):
                if op.group not in workloads.REFERENCED or op.key in refs:
                    continue
                _, rc, text = timed_call(workload, op, None)
                reason = failure(checker, op, rc, text)
                if reason is not None:
                    print(f"not frozen, {op.key}: {reason}", file=sys.stderr)
                    return 1
                refs[op.key] = workloads.digest(text)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    print(f"{len(refs)} reference digests written to {REFERENCES.name}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "heckeplan" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.freeze_references:
        return freeze_references(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
