"""Importing the package does no numeric work: numpy is first imported by
the first call that needs it, and the cyclotomic polynomials and
evaluation points of the cyclotomic orders of the density products are
computed on first use.  Where numpy is first imported moves the start-up
time and the peak memory of a run.

Reducing mod Phi_N keeps no matrix: a small block at N = 17017 reduces in
a process whose peak memory stays far below the 483 MB that the dense
reduction matrix of that order took.

The exception is `heckeplan.residue`, which imports numpy at module level
and which the probe below leaves out.  Its every operation is numpy
quadrature, so a lazy import would only move numpy's import time from the
import of the module into its first residue operation."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import heckeplan.cli, heckeplan.plancherel, heckeplan.symbolicq
import heckeplan.residual, heckeplan.rootdata, heckeplan.lattice
from heckeplan import symbolicq
print("numpy" in sys.modules,
      symbolicq.cyclotomic_poly.cache_info().currsize,
      symbolicq._evaluation_point.cache_info().currsize)
"""


def _run(code: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_importing_the_package_loads_no_numpy_and_builds_no_matrix():
    assert _run(PROBE) == ["False", "0", "0"]


MEMORY_PROBE = """
import resource
import numpy as np
from heckeplan.symbolicq import _reduce_block, cyclotomic_poly
n = 17017
*low, (deg, _) = cyclotomic_poly(n)
rows = np.zeros((4, n), np.int64)
for i, j in enumerate((0, deg - 1, deg, n - 1)):
    rows[i, j] = 1
out = _reduce_block(rows, n)
top = [0] * deg
for i, c in low:
    top[i] = -c
print(out.shape == (4, deg), out[0].tolist() == [1] + [0] * (deg - 1),
      out[1].tolist() == [0] * (deg - 1) + [1], out[2].tolist() == top,
      bool(out[3].any()), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_reducing_a_block_at_a_large_order_keeps_memory_small():
    *checks, peak_kb = _run(MEMORY_PROBE)
    assert checks == ["True"] * 5
    assert int(peak_kb) < 150 * 1024


# bytes: with PYTHONDONTWRITEBYTECODE=1 every import compiles from source,
# and the largest source file sets the compile peak of a process's memory
SOURCE_CAP = 41_400


def test_every_package_source_file_stays_at_or_under_the_cap():
    sizes = {p.name: p.stat().st_size
             for p in (SRC / "heckeplan").glob("*.py")}
    assert sizes and max(sizes.values()) <= SOURCE_CAP, sizes
