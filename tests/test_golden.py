"""Golden CLI outputs: the sha256 of the stdout of a fixed corpus of CLI
calls, frozen in `golden.json`.  A change that moves any byte of these
outputs fails here.

`python tests/test_golden.py` prints the digests of the current code as
JSON on stdout; the frozen file is only ever replaced on purpose.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from heckeplan.cli import main
from heckeplan.rootdata import RootDatum, random_label_vector

GOLDEN = Path(__file__).with_name("golden.json")

SMALL_TYPES = ("A2", "B2", "G2", "A3", "B3", "C3", "D4")
LARGE_DATA = (("B4", "P"), ("C4", "P"), ("F4", "Q"), ("D5", "Q"))
DENSITY_DATA = (("B2", "Q"), ("B2", "P"), ("G2", "Q"))


def _enumerate(tag, lattice, labels):
    return ("enumerate", "--type", tag, "--lattice", lattice,
            "--labels", labels, "--format", "json")


def _seeded_labels(tag, lattice):
    datum = RootDatum.from_type(tag, lattice)
    values = random_label_vector(datum, random.Random(5))
    return ",".join(str(v) for v in values)


def cases():
    out = []
    for tag in SMALL_TYPES:
        for lattice in ("Q", "P"):
            out.append(_enumerate(tag, lattice, "equal"))
            out.append(_enumerate(tag, lattice, _seeded_labels(tag, lattice)))
    for tag, lattice in LARGE_DATA:
        out.append(_enumerate(tag, lattice, "equal"))
    for tag, lattice in DENSITY_DATA:
        out.append(("tables", "--which", "density", "--type", tag,
                    "--lattice", lattice, "--q", "2", "--format", "json"))
    for n in (3, 4):
        out.append(("tables", "--which", "fdim", "--n", str(n),
                    "--format", "json"))
    return out


def digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_golden_outputs():
    frozen = json.loads(GOLDEN.read_text())
    calls = cases()
    assert sorted(frozen) == sorted(" ".join(a) for a in calls)
    moved = []
    for argv in calls:
        code, sha = digest(argv)
        assert code == 0, argv
        if sha != frozen[" ".join(argv)]:
            moved.append(" ".join(argv))
    assert not moved, moved


if __name__ == "__main__":
    print(json.dumps({" ".join(a): digest(a)[1] for a in cases()},
                     indent=1, sort_keys=True))
