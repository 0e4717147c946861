"""Run the benchmark on several seeds and report, for each metric, the
median and the quartile spread as a share of the median.

    python3 benchmarks/spread.py --workload density --seeds 1-10 [--json FILE]

The spread is the distance between the first and third quartile of the
per-seed values, as `statistics.quantiles(values, n=4)` gives them; each
end-to-end spread is printed against its bound from BENCHMARK.json, and
the spread of the unscaled wall-clock times of the same runs below it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--json", help="write the per-seed values here")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lo, _, hi = args.seeds.partition("-")
    values = {}
    runs = []
    for seed in range(int(lo), int(hi or lo) + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        fields = next(line for line in lines
                      if line.startswith("wall clock: "))[12:].split(", ")
        wall_clock = {f.split()[0]: float(f.split()[1]) for f in fields}
        runs.append({"seed": seed, "wall_s": wall, "wall_clock": wall_clock,
                     **result})
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for name, value in wall_clock.items():
            values.setdefault(f"{name} (wall clock)", []).append(value)
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = quartile_spread(vals) if med and len(vals) > 1 else 0.0
        bound = bounds.get(name)
        note = "" if bound is None else \
            f"  bound {bound:g} ({spread / bound:.2f} of it)"
        print(f"{name:45s} median {med:.6g}  spread {spread:.4f}{note}")
        print("    " + " ".join(f"{v:.4g}" for v in vals))
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "runs": runs,
             "median": {k: statistics.median(v) for k, v in values.items()}},
            indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
