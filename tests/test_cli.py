import json
import subprocess
import sys
from pathlib import Path

import pytest

from relclass.cli import load_corpus, main
from relclass.formats import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, CorpusEntry

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "relclass.cli", *args], capture_output=True, text=True, cwd=str(ROOT)
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_field_rational():
    code, out, err = run_cli(["field", "--n", "1"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["hF"] == 1 and data["dF"] == 1


def test_field_quadratic_and_rejection():
    code, out, _ = run_cli(["field", "--n", "2", "--m", "5"])
    assert code == EXIT_OK and json.loads(out)["dF"] == 5
    code, out, err = run_cli(["field", "--n", "2", "--m", "12"])
    assert code == EXIT_INPUT
    assert "NonSquarefree" in err


@pytest.mark.parametrize("m", [94, 151])
def test_field_with_a_large_unit(m):
    # eps = 2143295 + 221064 sqrt 94 and 1728148040 + 140634693 sqrt 151: the
    # cycle of reduced forms decides each principality test of the class
    # group, where a scan over a range growing with eps gave up (exit 3)
    code, out, err = run_cli(["field", "--n", "2", "--m", str(m)])
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["hF"] == 1


def test_classify_examples():
    code, out, _ = run_cli(["classify", "--n", "1", "--delta-a", "-5"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["weak_classes"] == 2 and data["h_K"] == 2 and data["bijection_ok"]
    code, out, _ = run_cli(["classify", "--n", "1", "--delta-a", "-1"])
    assert json.loads(out)["weak_classes"] == 1
    code, out, _ = run_cli(["classify", "--n", "1", "--delta-a", "-23"])
    data = json.loads(out)
    assert data["orbits"] == 2 and data["h_K"] == 3


def test_classify_error_after_field_construction_is_one_line():
    # Q(sqrt 10) has h_F = 2, and the form side needs a free basis (h_F = 1)
    code, out, err = run_cli(["classify", "--n", "2", "--m", "10", "--delta-a", "-7"])
    assert code == EXIT_INPUT and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("NontrivialBaseClassGroup: ")


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--n", "1", "--delta-a", "-4", "--delta-b", "7"],
        ["classify", "--n", "1", "--m", "5", "--delta-a", "-4"],
        ["field", "--n", "1", "--m", "5"],
    ],
)
def test_omega_coordinate_or_radicand_over_Q_is_an_input_error(args):
    # omega = 0 over Q, so delta_b would make a dual number, and m a second Q
    code, out, err = run_cli(args)
    assert code == EXIT_INPUT and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("InvalidArgument: ")


def test_corpus_parsing(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# comment\n1,-,-5,0,2,2\n\n2,5,-11,0\n")
    entries = load_corpus(str(p))
    assert len(entries) == 2
    assert entries[0].expected_hK == 2 and entries[0].expected_t == 2
    assert entries[1].m == 5 and entries[1].expected_hK is None


def test_verify_ok_and_violation(tmp_path):
    p = tmp_path / "good.txt"
    p.write_text("1,-,-5,0,2,2\n1,-,-23,0,3,1\n")
    code, out, _ = run_cli(["verify", "--corpus", str(p), "--checks", "regression,genus,vsum"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["summary"]["violations"] == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("1,-,-5,0,7,2\n")
    code, out, _ = run_cli(["verify", "--corpus", str(bad), "--checks", "regression"])
    assert code == EXIT_VIOLATION
    assert json.loads(out)["summary"]["violations"] == 1


def test_verify_over_nontrivial_base_class_groups(tmp_path):
    """Every check of verify on fields over Q(sqrt m) with h_F = 2."""
    p = tmp_path / "hf.txt"
    p.write_text("2,10,-7,0\n2,10,-11,0\n2,10,-13,0\n2,15,-7,0\n2,26,-6,0\n")
    code, out, _ = run_cli(["verify", "--corpus", str(p)])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["summary"]["violations"] == 0
    rows = data["rows"]
    assert all(r["status"] == "ok" for r in rows)
    assert (rows[1]["h_K"], rows[1]["orbits"], rows[1]["vsum"]) == (12, 7, "1<=6")
    assert (rows[2]["genus"], rows[2]["vsum"]) == ("2^2<=8", "2<=4")
    assert (rows[4]["orbits"], rows[4]["vsum"]) == (5, "0<=4")


def test_verify_empty_corpus(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# nothing\n")
    code, out, _ = run_cli(["verify", "--corpus", str(p)])
    assert code == EXIT_OK
    assert json.loads(out)["summary"]["entries"] == 0


def test_verify_missing_corpus():
    code, _, err = run_cli(["verify", "--corpus", "/nonexistent/file.txt"])
    assert code == EXIT_INPUT


def test_bound_rows(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("1,-,-5,0\n2,5,-11,0\n")
    code, out, _ = run_cli(
        ["bound", "--corpus", str(p), "--lambda-grid", "1e29,1e30", "--pmax", "400"]
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["bound"]) <= rows[0]["h_K"]
    assert rows[0]["rigor_G1"] == "heuristic"
    assert rows[0]["vsum_ok"] is True
    # the quartic base field has odd-s 37-splitting: flagged, not failed
    assert rows[1]["status"].startswith("ParityFails")


# bound rows over three base fields: Q(sqrt 5) fails the parity test,
# Q(sqrt 3) passes it and ends in NoFeasibleLambda on this grid
MIXED_BOUND_ROWS = {
    "2,5,-11,0": {
        "entry": "Q(sqrt5)(sqrt(-11+0w))",
        "status": "ParityFails: the 37-splitting parity condition fails for this base field",
    },
    "1,-,-5,0": {
        "C": "1e-29",
        "bound": "1.71328799888e-30",
        "branch_main": "1.71328799888e-30",
        "branch_split": "0.445714345042",
        "entry": "Q(sqrt(-5))",
        "genus_bound": 2,
        "h_K": 2,
        "lambda": "1e+29",
        "reldisc": 20,
        "rigor_G1": "heuristic",
        "slack": "2",
        "status": "ok",
        "t": 2,
        "vsum_ok": True,
    },
    "2,3,-5,0": {"entry": "Q(sqrt3)(sqrt(-5+0w))", "status": "NoFeasibleLambda: no grid point with E2 > 0"},
}


@pytest.mark.parametrize("order", [["2,5,-11,0", "1,-,-5,0", "2,3,-5,0"], ["2,3,-5,0", "1,-,-5,0", "2,5,-11,0"]])
def test_bound_report_does_not_depend_on_row_order(tmp_path, order):
    """Rows that reach the cascade and rows that stop at the parity test, in
    either order: every row's values and the report's bytes are fixed."""
    p = tmp_path / "c.txt"
    p.write_text("".join(line + "\n" for line in order))
    code, out, err = run_cli(["bound", "--corpus", str(p), "--lambda-grid", "1e29,1e30", "--pmax", "400"])
    rows = [dict(MIXED_BOUND_ROWS[line], line=i) for i, line in enumerate(order, start=1)]
    assert (code, err) == (EXIT_OK, "")
    assert out == json.dumps(rows, sort_keys=True, indent=1) + "\n"


def test_bound_injected(tmp_path):
    inj = tmp_path / "g.json"
    inj.write_text(json.dumps({"G1": 1e-12, "G2": 25.0, "G3": 1e6}))
    p = tmp_path / "c.txt"
    p.write_text("1,-,-23,0\n")
    code, out, _ = run_cli(
        [
            "bound",
            "--corpus",
            str(p),
            "--strategy",
            f"injected:{inj}",
            "--lambda-grid",
            "1e37,1e39",
            "--pmax",
            "300",
        ]
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0]["rigor_G1"] == "injected"
    assert rows[0]["status"] == "ok"


@pytest.mark.parametrize(
    "flags",
    [
        ["--lambda-grid", "abc"],
        ["--lambda-grid", ","],
        ["--lambda-grid", "nan"],
        ["--lambda-grid", "inf"],
        ["--strategy", "injected:missing.json"],
        ["--strategy", "injected:c.txt"],
        ["--strategy", "foo"],
    ],
)
def test_bound_rejects_bad_arguments_before_any_row(tmp_path, flags):
    """A grid must be a comma list of finite positive numbers, and the
    strategy heuristic or an injected readable JSON object; anything else
    ends the command with one line, before a row runs."""
    p = tmp_path / "c.txt"
    p.write_text("1,-,-5,0\n")
    flags = [f.replace(":", f":{tmp_path}/") for f in flags]
    code, out, err = run_cli(["bound", "--corpus", str(p), "--pmax", "100", *flags])
    assert code == EXIT_INPUT and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("InvalidArgument: ")


@pytest.mark.parametrize("value", ["NaN", "Infinity", '"1.0"'])
def test_bound_injected_must_be_finite_positive(tmp_path, value):
    inj = tmp_path / "g.json"
    inj.write_text('{"G1": 1, "G2": 1, "G3": %s}' % value)
    p = tmp_path / "c.txt"
    p.write_text("1,-,-1991,0\n")
    code, out, err = run_cli(
        ["bound", "--corpus", str(p), "--strategy", f"injected:{inj}", "--pmax", "40"]
    )
    assert code == EXIT_INPUT and "Traceback" not in err
    assert json.loads(out)[0]["status"].startswith("INPUT: StrategyUnavailable: ")


def test_csv_output(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("1,-,-5,0,2,\n")
    code, out, _ = run_cli(["verify", "--corpus", str(p), "--checks", "regression", "--csv"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2 and "entry" in lines[0]


@pytest.mark.parametrize("command", ["verify", "bound"])
@pytest.mark.parametrize(
    "line,error",
    [
        ("2,12,-1,0", "NonSquarefree"),
        ("1,,5,0", "NotTotallyNegative"),
        ("1,-,-4,3", "InvalidArgument"),
        ("1,5,-4,0", "InvalidArgument"),
        # Q(sqrt 5) fails the parity test: bound checks delta before parity
        ("2,5,3,0", "NotTotallyNegative"),
        ("2,5,-1,1", "NotTotallyNegative"),
    ],
)
def test_bad_row_becomes_input_status(tmp_path, command, line, error):
    p = tmp_path / "c.txt"
    p.write_text(line + "\n1,-,-5,0\n")
    code, out, err = run_cli([command, "--corpus", str(p)])
    assert code == EXIT_INPUT and "Traceback" not in err
    data = json.loads(out)
    rows = data["rows"] if command == "verify" else data
    assert rows[0]["status"].startswith(f"INPUT: {error}: ")
    assert len(rows) == 2


def test_malformed_rational_rows_have_their_own_labels():
    """A valid row over Q is labelled Q(sqrt(a)); a row over Q that carries
    a radicand or a delta_b shows it, so no two rows share a label."""
    lines = ["1,-,-4,0", "1,,-4,0", "1,5,-4,0", "1,-,-4,3", "1,5,-4,3"]
    labels = [CorpusEntry(line, 1).label() for line in lines]
    assert labels[:2] == ["Q(sqrt(-4))"] * 2
    assert labels[2:] == ["Q(sqrt(-4+0w))[m=5]", "Q(sqrt(-4+3w))[m=-]", "Q(sqrt(-4+3w))[m=5]"]


@pytest.mark.parametrize(
    "args",
    [
        ["field", "--n", "1", "--pmax", "5"],
        ["field", "--n", "1", "--json"],
        ["classify", "--n", "1", "--delta-a", "-5", "--budget", "5"],
        ["verify", "--corpus", "c.txt", "--X", "5"],
        ["verify", "--corpus", "c.txt", "--pmax", "5"],
        ["bound", "--corpus", "c.txt", "--seed", "1"],
        ["bound", "--corpus", "c.txt", "--budget", "5"],
        ["verify", "--corpus", "c.txt", "--budget", "5"],
    ],
)
def test_unread_flags_are_rejected(args):
    code, _, err = run_cli(args)
    assert code == EXIT_INPUT and "unrecognized arguments" in err
