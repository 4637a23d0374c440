import ast
import json
import pathlib
import subprocess
import sys

import pytest

import qwalk
from qwalk.cli import main
from qwalk.fixtures import coined
from qwalk.walkspec import serialize_walk_spec

from conftest import BAD_STATE_DOCUMENTS, BAD_WALK_DOCUMENTS


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qwalk.cli", *argv],
        capture_output=True,
        text=True,
    )


def run_json(*argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_analyze_grover4_report():
    doc = run_json("analyze", "grover4", "--grid", "256")
    assert doc["command"] == "analyze"
    assert doc["n"] == 4
    assert doc["monodromy"] == [1, 1, 1, 1]
    assert doc["realizable"] is False
    assert doc["det_winding"] == 0
    assert doc["homogeneity_broken"] is False
    assert sorted(b["winding"] for b in doc["bands"]) == [-1, 0, 0, 1]
    assert len(doc["decomposition"]["primes"]) == 2


def test_reports_are_deterministic():
    a = run_cli("analyze", "grover3", "--grid", "256")
    b = run_cli("analyze", "grover3", "--grid", "256")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_analyze_csv_bands():
    proc = run_cli("analyze", "grover3", "--grid", "128", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0].startswith("k,")
    assert len(lines) == 1 + 128


def test_decompose_cube_root():
    doc = run_json("decompose", "cube_root", "--grid", "256")
    assert doc["homogeneity_broken"] is True
    assert doc["constants"] == []
    (prime,) = doc["primes"]
    assert prime["rate"] == {"num": 2, "den": 3}
    assert prime["mult"] == 2


def test_decompose_has_no_csv():
    proc = run_cli("decompose", "grover3", "--grid", "128", "--format", "csv")
    assert proc.returncode == 2
    assert "csv" in proc.stderr


def test_realizable_reports_and_witness_csv():
    doc = run_json("realizable", "grover3", "--grid", "256")
    assert doc["realizable"] is True
    assert doc["det_winding"] == 0

    proc = run_cli("realizable", "grover3", "--grid", "128", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.split("\n", 1)[0] == "band,k,h"

    proc = run_cli("realizable", "grover4", "--grid", "128", "--format", "csv")
    assert proc.returncode == 2


def test_intertwine_finds_model_translations():
    doc = run_json("intertwine", "grover4", "grover4_subwalk", "--grid", "256")
    kinds = [p["kind"] for p in doc["pairs"]]
    assert kinds.count("model_translation") == 2
    assert doc["commutant_1"]["factor_count"] == 4

    proc = run_cli(
        "intertwine",
        "grover4",
        "grover4_subwalk",
        "--grid",
        "256",
        "--format",
        "csv",
        "--window",
        "32",
    )
    assert proc.returncode == 0
    assert proc.stdout.split("\n", 1)[0] == "row,col,re,im"


def test_simulate_free_walk_csv():
    proc = run_cli("simulate", "free", "--steps", "10", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines == ["t,x,x_over_t,mass", "10,10,1,1"]


def test_simulate_coined_stays_in_cone(tmp_path):
    csv_path = tmp_path / "dist.csv"
    doc = run_json(
        "simulate",
        "coined(0.5)",
        "--steps",
        "200",
        "--grid",
        "256",
        "--csv",
        str(csv_path),
        "--limit-law",
    )
    assert doc["total_mass"] == pytest.approx(1.0)
    assert set(doc["moment_table"]) == {"t=50", "t=100", "t=200"}
    assert set(doc["limit_law"]) == {"atoms", "bin_edges", "bin_masses", "moments"}

    inside = total = 0.0
    for line in csv_path.read_text().strip().split("\n")[1:]:
        t, x, _, mass = line.split(",")
        if int(t) != 200:
            continue
        total += float(mass)
        if abs(int(x)) <= 110:
            inside += float(mass)
    assert total == pytest.approx(1.0)
    assert inside >= 0.99


def test_simulate_builtin_basis_state():
    doc = run_json(
        "simulate", "grover3", "--steps", "8", "--grid", "128", "--builtin", "e1"
    )
    assert doc["steps"] == 8
    assert doc["total_mass"] == pytest.approx(1.0)

    proc = run_cli("simulate", "free", "--steps", "4", "--builtin", "e5")
    assert proc.returncode == 2
    assert "built-in" in proc.stderr


def test_out_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("analyze", "free", "--grid", "128", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(out.read_text())["n"] == 1


def test_walk_file_input(tmp_path):
    path = tmp_path / "walk.json"
    path.write_text(serialize_walk_spec(coined(0.3)))
    from_file = run_json("analyze", str(path), "--grid", "128")
    from_expr = run_json("analyze", "coined(0.3)", "--grid", "128")
    assert from_file["spec_digest"] == from_expr["spec_digest"]


def test_invalid_inputs_exit_2(tmp_path):
    assert run_cli("analyze", "missing.json").returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("analyze", str(bad)).returncode == 2
    assert run_cli("analyze", "grover3", "--grid", "100").returncode == 2
    assert run_cli("analyze", "no_such_walk").returncode == 2


@pytest.mark.parametrize(
    "expr",
    [
        "coined('x')",
        "grover4(1)",
        "coined(0.5, 2)",
        "coined(r=[1])",
        "constant(n=3, phase='a')",
        "constant(2.5)",
        "constant(True)",
    ],
)
def test_bad_fixture_arguments_exit_2(capsys, expr):
    assert main(["decompose", expr, "--grid", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert repr(expr) in captured.err


@pytest.mark.parametrize("name", sorted(BAD_WALK_DOCUMENTS))
def test_rejected_walk_files_exit_2(tmp_path, capsys, name):
    path = tmp_path / "walk.json"
    path.write_text(BAD_WALK_DOCUMENTS[name])
    assert main(["analyze", str(path), "--grid", "64"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", sorted(BAD_STATE_DOCUMENTS))
def test_rejected_state_files_exit_2(tmp_path, capsys, name):
    path = tmp_path / "state.json"
    path.write_text(BAD_STATE_DOCUMENTS[name])
    argv = ["simulate", "free", "--steps", "4", "--state", str(path), "--format", "csv"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("steps", ["0", "-4"])
def test_simulate_rejects_non_positive_steps(capsys, steps):
    assert main(["simulate", "free", "--steps", steps, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--steps" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "free", "--steps", "4", "--grid", "100", "--format", "csv"],
        ["analyze", "grover3", "--grid", "32"],
    ],
)
def test_grid_is_checked_before_any_work(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--grid" in captured.err


@pytest.mark.parametrize("window", ["-3", "0"])
def test_intertwine_rejects_non_positive_window(capsys, window):
    argv = ["intertwine", "grover4", "grover4_subwalk", "--grid", "256",
            "--window", window, "--format", "csv"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--window" in captured.err


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_bad_memory_cap_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("QWALK_MEM_CAP_MB", value)
    assert main(["simulate", "free", "--steps", "10", "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert "QWALK_MEM_CAP_MB" in err and repr(value) in err


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "free", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip()


# every subcommand once, in an interpreter where importing scipy fails
SCIPY_BLOCKED_RUN = """
import sys
sys.modules["scipy"] = None
from qwalk.cli import main
for argv in %r:
    code = main(argv)
    if code != 0:
        sys.exit("exit %%d from %%s" %% (code, argv))
"""


def test_cli_runs_without_scipy():
    commands = [
        ["analyze", "grover4"],
        ["decompose", "grover3"],
        ["realizable", "grover4"],
        ["intertwine", "grover4", "grover4_subwalk"],
        ["simulate", "coined", "--steps", "50", "--limit-law"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_RUN % (commands,)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_no_module_imports_scipy():
    # numpy is the one runtime dependency; scipy serves the tests only
    imported = []
    for path in sorted(pathlib.Path(qwalk.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported += [(path.name, node.module)]
                imported += [(path.name, node.module + "." + a.name) for a in node.names]
    assert imported
    assert [i for i in imported if i[1].split(".")[0] == "scipy"] == []
