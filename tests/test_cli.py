import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qwalk
from qwalk.cli import main
from qwalk.fixtures import coined, shift_coin_walk
from qwalk.walkspec import serialize_walk_spec

from conftest import BAD_STATE_DOCUMENTS, BAD_WALK_DOCUMENTS, random_walk
from ledger import walk_power


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


REPORT_RUNS = [
    ["analyze", "{w}"],
    ["decompose", "{w}"],
    ["realizable", "{w}"],
    ["intertwine", "{w}", "{w}"],
    ["simulate", "{w}", "--steps", "40", "--limit-law"],
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("walk", ["coined(0.5)", "grover4"])
@pytest.mark.parametrize("run", REPORT_RUNS, ids=lambda run: run[0])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, run, walk, fmt):
    argv = [a.format(w=walk) for a in run] + ["--grid", "256", "--format", fmt]
    code = main(argv)
    stdout = capsys.readouterr().out
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    if run[0] == "decompose" and fmt == "csv":
        assert code == 2
        assert captured.err.startswith("error: decompose has no csv form")
    if code != 0:
        # grover4 is not realizable, so it has no witness csv either
        assert (run[0], fmt) in {("decompose", "csv"), ("realizable", "csv")}
        assert stdout == ""
        assert not out.exists()
        return
    assert out.read_bytes() == stdout.encode("utf-8")
    assert stdout.endswith("\n") and not stdout.endswith("\n\n")


def test_simulate_csv_file_has_one_header_then_each_checkpoint(tmp_path, capsys):
    # --steps 40 checkpoints t = 10, 20, 40; each --format csv report is the
    # distribution at its own --steps
    dump = tmp_path / "dist.csv"
    argv = ["simulate", "coined(0.5)", "--grid", "256", "--format", "csv"]
    assert main(argv + ["--steps", "40", "--csv", str(dump)]) == 0
    capsys.readouterr()
    header = "t,x,x_over_t,mass\n"
    want = header
    for t in (10, 20, 40):
        assert main(argv + ["--steps", str(t)]) == 0
        report = capsys.readouterr().out
        assert report.startswith(header)
        want += report[len(header):]
    assert dump.read_text() == want


def test_a_refused_run_leaves_the_out_file_untouched(tmp_path, capsys):
    shift200 = tmp_path / "shift200.json"
    shift200.write_text('{"n": 1, "terms": [{"shift": 200, "matrix": [[[1.0, 0.0]]]}]}')
    cubed = tmp_path / "cubed.json"
    cubed.write_text(serialize_walk_spec(walk_power(random_walk(3, shift_max=2), 3)))
    out = tmp_path / "report.json"
    out.write_text("kept\n")
    for path, code in ((shift200, 2), (cubed, 3)):
        for cmd in ("analyze", "decompose", "simulate"):
            assert main([cmd, str(path), "--grid", "256", "--out", str(out)]) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert out.read_text() == "kept\n"


@pytest.mark.parametrize("name", ["e²", "e٠"])
def test_builtin_with_a_non_ascii_digit_is_an_unknown_state(capsys, name):
    # '²'.isdigit() holds, but int('²') raises; int('٠') reads an Arabic-Indic 0
    assert main(["simulate", "free", "--builtin", name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown built-in state '%s' (use 'uniform' or 'e0'..'e0')\n" % name


def test_walk_file_input(tmp_path):
    path = tmp_path / "walk.json"
    path.write_text(serialize_walk_spec(coined(0.3)))
    from_file = run_json("analyze", str(path), "--grid", "128")
    from_expr = run_json("analyze", "coined(0.3)", "--grid", "128")
    assert from_file["spec_digest"] == from_expr["spec_digest"]


def test_a_directory_does_not_shadow_a_fixture(tmp_path, monkeypatch, capsys):
    (tmp_path / "grover4").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["decompose", "grover4", "--grid", "256"]) == 0
    assert json.loads(capsys.readouterr().out)["primes"]


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_state_of_the_wrong_width_exits_2(tmp_path, capsys, fmt):
    # the json report reads the limit law before it evolves, the csv one only evolves
    path = tmp_path / "state.json"
    path.write_text('{"entries": [{"site": 0, "vector": [[0.6, 0.0], [0.8, 0.0]]}]}')
    argv = ["simulate", "grover3", "--steps", "4", "--grid", "64", "--state", str(path), "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state has 2 components per site, walk needs 3\n"


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


def test_grid_that_can_alias_a_winding_exits_2(tmp_path, capsys):
    # S^200 has speed bound L = 200 (up to rounding), so grids up to 256 are at most 2L
    path = tmp_path / "shift200.json"
    path.write_text('{"n": 1, "terms": [{"shift": 200, "matrix": [[[1.0, 0.0]]]}]}')
    assert main(["analyze", str(path), "--grid", "256"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: grid 256 does not exceed twice the speed bound")
    assert captured.err.endswith("first valid grid 512\n")
    # at 512 the windings are exact, but the band's one coefficient, at
    # frequency 200, sits in the top bins that set the noise floor
    assert main(["realizable", str(path), "--grid", "512"]) == 0
    assert json.loads(capsys.readouterr().out)["det_winding"] == 200
    assert main(["analyze", str(path), "--grid", "512"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: band sampled on grid 512 is not resolved: no Fourier")
    assert captured.err.endswith("such as 1024\n")
    assert main(["analyze", str(path), "--grid", "1024"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["det_winding"] == 200
    assert [b["winding"] for b in doc["bands"]] == [200]
    assert main(["decompose", str(path), "--grid", "1024"]) == 0
    (prime,) = json.loads(capsys.readouterr().out)["primes"]
    assert prime == {"rate": {"num": 200, "den": 1}, "mult": 200, "winding": 200}


def test_band_with_an_empty_support_exits_2(tmp_path, capsys):
    # the Hadamard walk with shifts (40, -1) at grid 128: no coefficient of
    # its one band of degree 2 clears the noise floor; at 256 it is a prime
    # of rate 1/2
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    path = tmp_path / "hadamard.json"
    path.write_text(serialize_walk_spec(shift_coin_walk((40, -1), hadamard)))
    for argv in (["decompose"], ["analyze"], ["simulate", "--steps", "20"]):
        assert main(argv[:1] + [str(path)] + argv[1:] + ["--grid", "128"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: band sampled on grid 128 is not resolved: no Fourier")
        assert captured.err.endswith("such as 256\n")
    assert main(["realizable", str(path), "--grid", "128"]) == 0
    assert json.loads(capsys.readouterr().out)["det_winding"] == 39
    assert main(["decompose", str(path), "--grid", "256"]) == 0
    (prime,) = json.loads(capsys.readouterr().out)["primes"]
    assert prime == {"rate": {"num": 1, "den": 2}, "mult": 1, "winding": 39}


def test_simulate_refuses_an_unresolved_band(tmp_path, monkeypatch, capsys):
    # coined(1 - 10^-6): at grid 256 a band velocity passes the commutator
    # bound; the band is refused before the walk takes a step
    def no_evolve(*args):
        raise AssertionError("evolve called before the band was refused")

    monkeypatch.setattr(qwalk.dynamics, "evolve", no_evolve)
    dump = tmp_path / "dist.csv"
    argv = ["simulate", "coined(0.999999)", "--steps", "200", "--grid", "256", "--csv", str(dump)]
    assert main(argv) == 2
    assert not dump.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: band sampled on grid 256 is not resolved: its velocity")
    assert captured.err.endswith("such as 512\n")


def test_wide_shifts_are_refused_by_the_grid_rule(tmp_path, capsys):
    # coined walk with shifts +-10^7: validation and the speed bound cost
    # nothing per span step, so the grid rule refuses it at once
    r = 0.5**0.5
    terms = [
        {"shift": 10**7, "matrix": [[[r, 0.0], [r, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
        {"shift": -(10**7), "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[r, 0.0], [-r, 0.0]]]},
    ]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 2, "terms": terms}))
    assert main(["analyze", str(path), "--grid", "256"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # L = 10^7 up to rounding, and 2^25 is the first power of two above 2L
    assert captured.err.endswith("first valid grid 33554432\n")


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


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 74.5 GiB for an array")


@pytest.mark.parametrize("stage", ["fixture", "eigensolve"])
def test_out_of_memory_exits_2(monkeypatch, capsys, stage):
    # numpy raises MemoryError for an allocation it cannot make, e.g. the
    # identity of constant(100000); simulated here, so nothing is allocated
    if stage == "fixture":
        monkeypatch.setitem(
            qwalk.fixtures.FIXTURES, "constant", lambda n=1, phase=0.0: _out_of_memory()
        )
    else:
        monkeypatch.setattr(qwalk.spectral, "_eig_grid", _out_of_memory)
    assert main(["decompose", "constant(3)", "--grid", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 74.5 GiB for an array\n"


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "free", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_state_and_builtin_are_exclusive(tmp_path, capsys):
    # each flag names the initial state, so a run given both is refused
    path = tmp_path / "st.json"
    path.write_text('{"entries": [{"site": 0, "vector": [[1.0, 0.0], [0.0, 0.0]]}]}')
    argv = ["simulate", "coined(0.5)", "--steps", "4", "--format", "csv"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--state", str(path), "--builtin", "e1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--state" in captured.err and "--builtin" in captured.err
    for flag in (["--state", str(path)], ["--builtin", "e1"]):
        assert main(argv + flag) == 0
        assert capsys.readouterr().out.startswith("t,x,x_over_t,mass\n")


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


NUMPY_MA_RUN = """
import contextlib, io, sys
from qwalk.cli import main
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0 or "numpy.ma" in sys.modules:
        sys.exit("exit %%d, numpy.ma imported: %%s, after %%s" %% (code, "numpy.ma" in sys.modules, argv))
"""


def test_cli_commands_do_not_import_numpy_ma():
    # np.unique without return_inverse and np.union1d import numpy.ma, about
    # 10 ms of every process; these are the benchmark's cli commands
    commands = [
        ["analyze", "grover4"],
        ["analyze", "grover3", "--format", "csv"],
        ["decompose", "cube_root"],
        ["realizable", "grover3", "--format", "csv"],
        ["intertwine", "grover4", "grover4_subwalk"],
        ["simulate", "coined(0.5)", "--steps", "400", "--limit-law"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_RUN % (commands,)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_memory_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("QWALK_MEM_CAP_MB", "1")
    assert main(["simulate", "grover4", "--steps", "5000", "--grid", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: evolution window needs about ")


def test_realizable_csv_of_a_walk_with_no_witness_exits_2(capsys):
    assert main(["realizable", "grover4", "--grid", "256", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: walk is not realizable; no witness generator exists\n"


HUGE_WINDOW_RUN = """
import sys
from qwalk.cli import main
code = main(["intertwine", "grover4", "grover4_subwalk", "--grid", "256",
             "--format", "csv", "--window", "1000000"])
print(code, sorted(m for m in sys.modules if m.startswith("qwalk.")))
"""


def test_a_huge_intertwiner_window_exits_2_without_dynamics():
    env = {k: v for k, v in os.environ.items() if k != "QWALK_MEM_CAP_MB"}
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_WINDOW_RUN], capture_output=True, text=True, env=env
    )
    mods = ["qwalk." + m for m in ("cli", "decompose", "fixtures", "intertwine", "spectral", "walkspec")]
    assert proc.stdout == "2 %r\n" % mods
    assert proc.stderr == (
        "error: intertwiner window 1000000 needs about %d MB, cap is 2048 MB\n"
        % (25 * 10**12 // 2**20 + 1)
    )


# the benchmark's cli commands, each with the qwalk modules beyond
# qwalk, cli, decompose, fixtures, spectral and walkspec that it may load;
# none may load numpy.ma (np.unique, np.union1d and np.intersect1d import
# it, about 15 ms)
SUBCOMMAND_MODULES = [
    (["analyze", "grover4"], {"realize"}),
    (["analyze", "grover3", "--format", "csv"], set()),
    (["decompose", "cube_root"], set()),
    (["realizable", "grover3", "--format", "csv"], {"realize"}),
    (["intertwine", "grover4", "grover4_subwalk"], {"intertwine"}),
    (["simulate", "coined(0.5)", "--steps", "400", "--limit-law"], {"dynamics"}),
]

LOADED_MODULES_RUN = """
import contextlib, io, sys, types
from qwalk.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(%r)
import qwalk
assert isinstance(qwalk.decompose, types.FunctionType), qwalk.decompose
print(code, "numpy.ma" in sys.modules, sorted(m for m in sys.modules if m.startswith("qwalk.")))
"""


@pytest.mark.parametrize(
    "argv,extra", SUBCOMMAND_MODULES, ids=[argv[0] + "-" + argv[-1] for argv, _ in SUBCOMMAND_MODULES]
)
def test_each_subcommand_loads_only_its_modules(argv, extra):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES_RUN % (argv,)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    base = {"cli", "decompose", "fixtures", "spectral", "walkspec"}
    want = ["qwalk." + m for m in sorted(base | extra)]
    assert proc.stdout == "0 False %r\n" % want


def test_decompose_is_the_function_after_any_import_order():
    # decompose names both a submodule and the function; importing a module
    # of the package first must not leave qwalk.decompose bound to the module
    for first in ("qwalk.cli", "qwalk.decompose", "qwalk.dynamics", "qwalk.intertwine", "qwalk.realize"):
        code = "import types, %s, qwalk; assert isinstance(qwalk.decompose, types.FunctionType)" % first
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, (first, proc.stderr)


# the package's public names before its exports were loaded lazily
PACKAGE_NAMES = [
    "Band", "BandSet", "CommutantReport", "ConstantSummand", "Decomposition",
    "DistributionSnapshot", "FIXTURES", "IntertwinerSpace", "LimitLaw",
    "MemoryCapExceeded", "PrimeModelWalk", "RealizabilityVerdict", "State",
    "TranslationMatch", "UnitarityError", "UnresolvedCrossing", "WalkSpec",
    "WalkSpecError", "adjoint_walk", "amplify", "assemble", "basis_state",
    "build_fixture", "build_intertwiner", "commutant_report", "commutator_norm",
    "cover_walk", "decompose", "derivative_symbol_on_grid", "det_winding",
    "direct_sum", "dynamics", "empirical_moment", "evolve", "find_translation",
    "fixture_names", "fixtures", "generator_coefficients", "intertwine",
    "intertwiner_residual", "intertwiner_space", "is_ct_realizable",
    "kolmogorov_distance", "limit_law", "model_walk_matrix", "monodromy",
    "parse_state", "parse_walk_spec", "position_distribution", "realize",
    "sample_bands", "serialize_walk_spec", "shift_coin_walk", "spec_digest",
    "spectral", "symbol_at", "symbol_on_grid", "uniform_coin_state", "walkspec",
    "witness_step", "write_band_csv", "write_distribution_csv",
    "write_intertwiner_csv", "write_witness_csv",
]

PACKAGE_NAMES_RUN = """
import qwalk
public = [n for n in dir(qwalk) if not n.startswith("_")]
names = {}
exec("from qwalk import *", names)
print(public, sorted(n for n in names if n != "__builtins__"), "__version__" in dir(qwalk))
"""


def test_star_import_and_dir_give_the_package_names():
    proc = subprocess.run([sys.executable, "-c", PACKAGE_NAMES_RUN], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "%r %r True\n" % (PACKAGE_NAMES, PACKAGE_NAMES)
    assert sorted(qwalk.__all__) == PACKAGE_NAMES
    for name in PACKAGE_NAMES:
        assert getattr(qwalk, name) is not None
    with pytest.raises(AttributeError):
        qwalk.no_such_name


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
