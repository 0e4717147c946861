"""Importing the package does no numeric work: numpy is first imported by
the first call that needs it, and the cyclotomic reduction matrices of the
density products are built on first use.  Where numpy is first imported
moves the start-up time and the peak memory of a run.

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
      symbolicq._reduction_matrix.cache_info().currsize,
      symbolicq._evaluation_point.cache_info().currsize)
"""


def test_importing_the_package_loads_no_numpy_and_builds_no_matrix():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "0", "0"]
