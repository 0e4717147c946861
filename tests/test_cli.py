import cmath
import json
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from heckeplan.cli import main


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_enumerate_b2_q_rows():
    code, out = run_cli("enumerate", "--type", "B2", "--lattice", "Q",
                        "--labels", "equal", "--format", "json")
    assert code == 0
    data = json.loads(out)
    rows = data["rows"]
    assert len(rows) == 5
    dims = sorted(r["dim"] for r in rows)
    assert dims == [0, 0, 1, 1, 2]
    assert sorted(r["kL"] for r in rows if r["dim"] == 1) == [1, 2]


def test_enumerate_b2_p_rows():
    code, out = run_cli("enumerate", "--type", "B2", "--lattice", "P",
                        "--labels", "equal", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 7
    assert sorted(r["dim"] for r in rows) == [0, 0, 0, 1, 1, 1, 2]


def test_enumerate_trivial_labels():
    code, out = run_cli("enumerate", "--type", "A1", "--labels", "0",
                        "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1
    assert rows[0]["parabolic"] == []


def test_usage_error_exit_2():
    code, _ = run_cli("enumerate", "--type", "Z9")
    assert code == 2
    code = main(["enumerate", "--type", "B2", "--lattice", "X"])
    assert code == 2


def test_classification_jobs_output_identical():
    # two worker processes must print exactly what one process prints
    argv = ("check", "--suite", "classification", "--type", "B2",
            "--format", "json")
    code1, out1 = run_cli(*argv, "--jobs", "1")
    code2, out2 = run_cli(*argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert len(json.loads(out1)["rows"]) == 8
    assert out2 == out1


def test_classification_batch_prints_the_frozen_rows():
    # frozen from the batch that ran one task per label set; one task per
    # type and lattice must print the same rows in the same order
    import hashlib
    code, out = run_cli("check", "--suite", "classification",
                        "--max-rank", "3", "--format", "json")
    assert code == 0 and len(json.loads(out)["rows"]) == 52
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e6df8e0c912d7e910f487b973a8c8a864f93742f36a0f33a0ed09f72f54374cf"


def test_jobs_reaches_the_pool(monkeypatch):
    # the parser is built once, and --jobs sets the worker count of the
    # pool, at most one per task, which runs only for more than one worker
    import concurrent.futures

    from heckeplan import cli
    argv = ("check", "--suite", "classification", "--type", "A1",
            "--format", "json")
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    code1, out1 = run_cli(*argv)
    assert workers == []

    def no_second_parser():
        raise AssertionError("main built its parser again")

    monkeypatch.setattr(cli, "build_parser", no_second_parser)
    code2, out2 = run_cli(*argv, "--jobs", "2")
    assert workers == [2]
    code3, out3 = run_cli(*argv, "--jobs", "1")
    assert workers == [2]
    # A1 gives two tasks (Q and P): a pool of 1000 workers would fork 1000
    # processes for them
    code4, out4 = run_cli(*argv, "--jobs", "1000")
    assert workers == [2, 2]
    assert code1 == code2 == code3 == code4 == 0
    assert out1 == out2 == out3 == out4


def test_check_scaling():
    code, out = run_cli("check", "--suite", "scaling", "--type", "B2",
                        "--eps", "2", "--format", "json")
    assert code == 0
    assert all(r["passed"] for r in json.loads(out)["rows"])


@pytest.mark.parametrize("argv", [
    ("--type", "B2", "--max-rank", "0"),
    ("--type", "B3", "--max-rank", "2"),
    ("--max-rank", "0")])
def test_a_classification_run_that_selects_nothing_is_a_usage_error(
        argv, capsys):
    code, out = run_cli("check", "--suite", "classification", *argv,
                        "--format", "json")
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(
        "error: no suite type of rank at most")


@pytest.mark.parametrize("eps", ["0", "2,0", "0/5"])
def test_scaling_by_zero_is_a_usage_error(eps, capsys):
    code, out = run_cli("check", "--suite", "scaling", "--type", "B2",
                        "--eps", eps, "--format", "json")
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: --eps must be nonzero")


def test_check_kl_c3():
    code, out = run_cli("check", "--suite", "kl", "--type", "C3",
                        "--lattice", "P", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert any(r["simple_values"] == "1,0,1" for r in rows)


def test_check_residue_a1():
    code, out = run_cli("check", "--suite", "residue", "--type", "A1",
                        "--q", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    mass = next(r["value"] for r in rows
                if r["part"].startswith("dim0"))
    assert abs(mass - 1 / 3) < 1e-8


def test_check_residue_tol_sizes_the_grid(monkeypatch):
    import heckeplan.residue as residue
    seen = []
    collect = residue.shift_and_collect

    def spy(*args, **kwargs):
        rep = collect(*args, **kwargs)
        seen.append(rep)
        return rep

    monkeypatch.setattr(residue, "shift_and_collect", spy)
    code, out = run_cli("check", "--suite", "residue", "--type", "A1",
                        "--q", "2", "--tol", "1e-10", "--format", "json")
    assert code == 0
    assert seen[0].tolerance == 1e-10
    assert seen[0].error_estimate <= 1e-10
    rows = json.loads(out)["rows"]
    mass = next(r["value"] for r in rows
                if r["part"].startswith("dim0"))
    assert abs(mass - 1 / 3) < 1e-10
    code, _ = run_cli("check", "--suite", "residue", "--type", "A1",
                      "--tol", "0")
    assert code == 2


def test_check_residue_global_mass_within_tol(monkeypatch):
    # a global mass 10 tolerances off fails the check
    import heckeplan.residue as residue
    collect = residue.shift_and_collect

    def shifted(*args, **kwargs):
        rep = collect(*args, **kwargs)
        rep.global_mass += 10 * rep.tolerance
        return rep

    monkeypatch.setattr(residue, "shift_and_collect", shifted)
    code, _ = run_cli("check", "--suite", "residue", "--type", "A1",
                      "--q", "2", "--tol", "1e-10", "--format", "json")
    assert code == 1


def test_tables_poincare_g2():
    code, out = run_cli("tables", "--which", "poincare", "--type", "G2",
                        "--q", "2", "--truncate", "40", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["within_bound"]
    assert row["product_at_q"] == "189/31"


def _seeded_b2_labels(seed):
    import random
    from heckeplan.rootdata import RootDatum, random_label_vector
    values = random_label_vector(RootDatum.from_type("B2", "Q"),
                                 random.Random(seed))
    return ",".join(str(v) for v in values)


@pytest.mark.parametrize("tag,labels", [("A1", "2,3/2"),
                                        ("B2", _seeded_b2_labels(1))])
def test_tables_poincare_at_q_without_exact_roots(tag, labels):
    # half-integer exponents of q = 5/2 have no exact rational value, so
    # the product is evaluated as a complex number
    code, out = run_cli("tables", "--which", "poincare", "--type", tag,
                        "--labels", labels, "--q", "5/2", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["within_bound"]


@pytest.mark.parametrize("cut", ["0", "-3", str(1 << 62), str(10 ** 17),
                                 "836"])
def test_tables_poincare_rejects_a_cut_it_cannot_walk(cut, capsys):
    # a cut below 1, or one past the cap of 2^20 elements walked: A2 has
    # 1,047,091 elements of length <= 835 and 1,049,599 up to 836
    code, out = run_cli("tables", "--which", "poincare", "--type", "A2",
                        "--truncate", cut, "--format", "json")
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_tables_poincare_caps_the_default_cut_past_rank_4(capsys):
    code, out = run_cli("tables", "--which", "poincare", "--type", "B5",
                        "--format", "json")
    assert code == 2 and out == ""
    assert "walks more than" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("tables", "--which", "density", "--type", "B2"),
    ("tables", "--which", "poincare", "--type", "A2"),
    ("check", "--suite", "residue", "--type", "A1")])
@pytest.mark.parametrize("q", ["1", "1/2", "0", "-3"])
def test_a_base_q_at_most_one_is_a_usage_error(argv, q, capsys):
    code, out = run_cli(*argv, "--q", q, "--format", "json")
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == \
        f"error: --q must be greater than 1, got {q}\n"


@pytest.mark.parametrize("q", ["two", "1/0"])
def test_a_base_q_that_is_no_number_is_a_usage_error(q, capsys):
    code, out = run_cli("tables", "--which", "density", "--type", "B2",
                        "--q", q, "--format", "json")
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: --q is not a number")


@pytest.mark.parametrize("tag", ["A0", "B-1"])
def test_a_rank_below_one_is_a_usage_error(tag, capsys):
    code, out = run_cli("enumerate", "--type", tag, "--format", "json")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == \
        f"error: rank of {tag} must be at least 1\n"


@pytest.mark.parametrize("argv,want", [
    (("tables", "--which", "density", "--labels", "100"), 0),
    (("tables", "--which", "poincare", "--labels", "1000"), 0),
    (("check", "--suite", "density", "--labels", "1000"), 0)])
def test_powers_of_q_past_the_float_range(argv, want):
    # at q = 2 these labels give powers of q past 2^1024: an exact value
    # is printed without a float sum, and a quotient of two float sums
    # that overflow is taken again with both divided by the top power of
    # q of the denominator, so every row is finite and the check passes
    code, out = run_cli(*argv, "--type", "B2", "--q", "2", "--format",
                        "json")
    assert code == want
    rows = json.loads(out)["rows"]
    if argv[2] == "poincare":
        assert rows[0]["within_bound"]
        assert Fraction(rows[0]["product_at_q"]) > 0
        return
    # the rows whose value is exact print it as a fraction
    assert [Fraction(r["mass_at_q"]) for r in rows
            if "j" not in str(r["mass_at_q"])]
    floats = [complex(r["mass_at_q"]) for r in rows
              if "j" in str(r["mass_at_q"])]
    assert all(cmath.isfinite(v) for v in floats)
    if argv[0] == "check":
        # the rows of positive dimension whose sums overflowed: orbits 0
        # and 1 lie below the float range, and orbit 2 is about -9.33e-302
        assert floats[:2] == [0, 0]
        assert abs(floats[2] + 9.332636185032189e-302) < 1e-310


def test_tables_fdim():
    code, out = run_cli("tables", "--which", "fdim", "--family",
                        "subregular-C", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["match"] == "exact"


def test_tables_density_b2():
    code, out = run_cli("tables", "--which", "density", "--type", "B2",
                        "--lattice", "Q", "--q", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    assert all(r["mass_symbolic"] != "singular-base" for r in rows)


def test_byte_identical_output():
    outs = set()
    for _ in range(2):
        _, out = run_cli("enumerate", "--type", "B3", "--lattice", "Q",
                         "--labels", "equal", "--format", "json")
        outs.add(out)
    assert len(outs) == 1


def test_csv_and_tex_formats():
    code, out = run_cli("enumerate", "--type", "A2", "--format", "csv")
    assert code == 0 and "orbit" in out
    code, out = run_cli("enumerate", "--type", "A2", "--format", "tex")
    assert code == 0 and "tabular" in out


def test_config_roundtrip(tmp_path):
    from heckeplan.rootdata import (LabelFunction, RootDatum,
                                    datum_labels_to_json)
    d = RootDatum.from_type("B2", "Q")
    labels = LabelFunction.from_affine_nodes(d, [1, 1, 1])
    path = tmp_path / "cfg.json"
    path.write_text(datum_labels_to_json(d, labels))
    code, out = run_cli("enumerate", "--config", str(path),
                        "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 5


def test_a_missing_config_is_a_usage_error(tmp_path, capsys):
    code, out = run_cli("enumerate", "--config", str(tmp_path / "none.json"))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: cannot read --config")


def test_a_config_without_a_datum_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"labels": {"node_labels": ["1", "1", "1"]}}))
    code, out = run_cli("enumerate", "--config", str(path))
    assert code == 2 and out == ""
    assert "has no key 'datum'" in capsys.readouterr().err


# a TypeError in RootDatum.from_json, an AttributeError in the labels
@pytest.mark.parametrize("config", [{"datum": 5, "labels": {}},
                                    {"datum": {"type": "B2", "lattice": "Q"},
                                     "labels": {"root_labels": []}}])
def test_a_config_of_the_wrong_shape_is_a_usage_error(tmp_path, capsys,
                                                      config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out = run_cli("enumerate", "--config", str(path))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(
        f"error: --config {path} is malformed: ")


@pytest.mark.parametrize("argv,flag", [
    (("enumerate", "--type", "B3", "--labels", "1/0,1,1,1"), "--labels"),
    (("tables", "--which", "density", "--type", "B2", "--labels", "1/0",
      "--q", "2"), "--labels"),
    (("check", "--suite", "scaling", "--type", "B2", "--eps", "1/0"),
     "--eps"),
    (("check", "--suite", "scaling", "--type", "B2", "--eps", "2,3/0"),
     "--eps")])
def test_a_zero_denominator_is_a_usage_error(argv, flag, capsys):
    code, out = run_cli(*argv, "--format", "json")
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(
        f"error: {flag} has a zero denominator: ")


@pytest.mark.parametrize("labels", [{"node_labels": ["1/0", "1", "1"]},
                                    {"root_labels": {"1,0": ["1", "2/0"]}}])
def test_a_config_label_with_a_zero_denominator_is_a_usage_error(
        tmp_path, capsys, labels):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"datum": {"type": "B2", "lattice": "Q"},
                                "labels": labels}))
    code, out = run_cli("enumerate", "--config", str(path))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(
        f"error: --config {path} is malformed: ")


def test_an_out_file_in_a_missing_directory_is_a_usage_error(tmp_path,
                                                             capsys):
    out_path = tmp_path / "absent" / "rows.json"
    code, out = run_cli("enumerate", "--type", "A1", "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert capsys.readouterr().err.startswith("error: cannot write --out")


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heckeplan.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_classification_batch_is_byte_identical_for_any_jobs():
    # the batch runs one task per type and lattice, in worker processes
    # when --jobs > 1
    argv = ("check", "--suite", "classification", "--max-rank", "2",
            "--format", "json", "--jobs")
    (code1, out1), (code2, out2) = run_cli(*argv, "1"), run_cli(*argv, "2")
    assert code1 == code2 == 0
    assert json.loads(out1)["rows"]
    assert out2 == out1


def test_an_expansion_block_past_the_cap_is_refused_before_allocation():
    # labels with denominator 10^6 make the density products sparse in q:
    # their blocks would need 1.7 GiB and more, and the address space of
    # the child is 3 GB, so only a refusal before allocating exits cleanly
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 10 ** 9, 3 * 10 ** 9))
    proc = subprocess.run(
        [sys.executable, "-m", "heckeplan.cli", "tables", "--which",
         "density", "--type", "B2", "--labels", "1000001/1000000", "--q",
         "2"], capture_output=True, text=True, preexec_fn=limit, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "error: the expansion needs a block of 8000009 x 77 integers, past "
        "the cap of 16777216 entries\n")
