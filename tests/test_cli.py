"""End-to-end exercises of every subcommand through `main(args)`, in this
process unless a test needs a fresh interpreter.

Exit-code contract under test: 0 clean, 1 the model or its runs are
bad, 2 the invocation or input file is bad.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import ccskit
import ccskit.simulator
from ccskit import dsl
from ccskit.cli import main
from ccskit.errors import StuckState
from ccskit.simulator import STRATEGIES, batch_member, run, run_batch, write_trace_csv


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(capsys, *args) -> Result:
    """`ccs args` in this process; a return, or an exit with no code, is exit 0."""
    capsys.readouterr()
    try:
        main([str(a) for a in args])
        code = 0
    except SystemExit as e:
        code = 0 if e.code is None else e.code
    return Result(code, *capsys.readouterr())


def test_version(capsys):
    result = invoke(capsys, "--version")
    assert result.exit_code == 0
    assert "version" in result.stdout


def test_version_from_source_tree():
    """`--version` works when ccskit is imported from `src/`, not installed."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "ccskit.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == f"ccs, version {ccskit.__version__}\n"
    assert proc.stderr == ""


def test_closed_stdout_is_exit_1_with_empty_stderr(corpus_dir):
    """A reader that has closed the pipe ends the command with exit 1 and
    nothing on stderr, not a traceback."""
    src = Path(__file__).resolve().parent.parent / "src"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ccskit.cli", "obligations", corpus_dir / "two_tanks.ccs"],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_cli_import_leaves_dataclasses_unloaded():
    """Every `ccs` command pays for what importing the CLI loads; the
    records build on the AST's base, so `dataclasses` is not among it,
    and the command line is parsed by `argparse`, so every module it loads
    besides ccskit's own is from the standard library."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; before = set(sys.modules); import ccskit.cli; "
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
            "print('dataclasses' in sys.modules, sorted(new - sys.stdlib_module_names))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False ['ccskit']\n", "")


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "MODEL", "--strategy", "eager"],
        ["simulate", "MODEL", "--schedules", "x"],
        ["check", "MODEL", "--form", "text"],
        ["check", "MODEL", "--frobnicate"],
        ["compose", "MODEL"],
        ["check"],
        [],
    ],
    ids=[
        "unknown-strategy", "non-integer-schedules", "abbreviated-option",
        "unknown-option", "compose-without-output", "check-without-model",
        "no-subcommand",
    ],
)
def test_usage_error_is_exit_2_with_one_line(capsys, corpus_dir, args):
    model = corpus_dir / "watertank.ccs"
    result = invoke(capsys, *[model if a == "MODEL" else a for a in args])
    assert (result.exit_code, result.stdout) == (2, "")
    assert len(result.stderr.splitlines()) == 1


# -- check ------------------------------------------------------------------


def test_check_clean_model_json(capsys, corpus_dir):
    result = invoke(capsys, "check", corpus_dir / "watertank.ccs")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["system"] == "watertank"
    assert payload["status"] == "ok"
    assert payload["controllers"] == [{"name": "wlctrl", "reactivity": "0.05"}]
    assert payload["plant"] == {"name": "tank", "controllability": "0.2"}
    assert payload["scheduling"] == {"cost": "0.05", "bound": "0.2"}
    assert payload["warnings"] == []
    assert "variables" not in payload


def test_check_vars_flag(capsys, corpus_dir):
    result = invoke(capsys, "check", corpus_dir / "watertank.ccs", "--vars")
    payload = json.loads(result.stdout)
    tables = payload["variables"]
    assert set(tables) == {"system", "wlctrl", "tank"}
    assert tables["wlctrl"]["bv"] == ["fin", "tau_1", "wlm"]
    assert tables["tank"]["bv"] == ["t", "wl"]
    for triple in tables.values():
        assert set(triple) == {"fv", "bv", "mbv"}
        assert all(v == sorted(v) for v in triple.values())


def test_check_text_format(capsys, corpus_dir):
    result = invoke(
        capsys, "check", corpus_dir / "two_tanks.ccs", "--format", "text"
    )
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "ok two_tanks"
    assert any("wlctrl1" in line for line in lines)
    assert any("scheduling cost 0.07 <= bound 0.15" in line for line in lines)


def test_check_interference_is_exit_1(capsys, corpus_dir):
    result = invoke(capsys, "check", corpus_dir / "bad_shared_output.ccs")
    assert result.exit_code == 1
    assert "rejected (InterferenceError)" in result.stderr
    assert "fin" in result.stderr


def test_check_two_consts_of_one_name_is_exit_1(capsys, corpus_dir, tmp_path):
    model = tmp_path / "double.ccs"
    text = (corpus_dir / "watertank.ccs").read_text()
    model.write_text(text.replace("const fout = 0.75", "const fout = 0.75\nconst fout = 1"))
    result = invoke(capsys, "check", model)
    assert result.exit_code == 1
    assert result.stderr == f"{model}: rejected (CcsError): two const declarations for 'fout'\n"


def test_check_unschedulable_is_exit_1(capsys, corpus_dir):
    result = invoke(capsys, "check", corpus_dir / "two_tanks_slow.ccs")
    assert result.exit_code == 1
    assert "ReactivityExceedsControllability" in result.stderr


def test_check_missing_file_is_exit_2(capsys, tmp_path):
    for model in [tmp_path / "nope.ccs", tmp_path]:
        result = invoke(capsys, "check", model)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith(f"cannot read {model}: ")
        assert len(result.stderr.splitlines()) == 1


def test_check_parse_error_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.ccs"
    bad.write_text("controller oops {\n  program: ?(;\n}\n")
    result = invoke(capsys, "check", bad)
    assert result.exit_code == 2
    assert "parse error" in result.stderr


_TOO_DEEP = {
    "3000-term-sum": "wl" + " + 0" * 2999,
    "600-parentheses": "(" * 600 + "wl" + ")" * 600,
}


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("rhs", list(_TOO_DEEP.values()), ids=list(_TOO_DEEP))
def test_model_nested_too_deeply_is_exit_2(capsys, corpus_dir, tmp_path, command, rhs):
    model = tmp_path / "deep.ccs"
    text = (corpus_dir / "watertank.ccs").read_text()
    model.write_text(text.replace("wlm := wl;", f"wlm := {rhs};"))
    (tmp_path / "deep.init.json").write_text((corpus_dir / "watertank.init.json").read_text())
    result = invoke(capsys, command, model)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"{model}: input nests too deeply to process\n"


def test_simulate_guarantee_nested_too_deeply_is_one_line(capsys, corpus_dir, tmp_path):
    """A monitor Python will not compile fails the simulation with one
    line naming it, as a program nested too deeply does."""
    model = tmp_path / "deep.ccs"
    text = (corpus_dir / "watertank.ccs").read_text()
    model.write_text(text.replace("guarantee 3 <= wl", "guarantee " + "!" * 250 + "(3 <= wl)"))
    (tmp_path / "deep.init.json").write_text((corpus_dir / "watertank.init.json").read_text())
    result = invoke(capsys, "simulate", model, "--schedules", 1)
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == (
        "simulation failed (CcsError): formula nests too deeply to compile "
        "(SyntaxError): " + "!" * 80 + "\n"
    )


@pytest.mark.parametrize("nots", [250, 400])
def test_simulate_flow_domain_nested_too_deeply_is_one_line(capsys, corpus_dir, tmp_path, nots):
    """A plant domain that parses and checks but that Python will not
    compile fails the simulation with one line naming the flow domain:
    it is compiled when the first run scans the flow."""
    model = tmp_path / "deep.ccs"
    text = (corpus_dir / "watertank.ccs").read_text()
    plant = "wl' = fin - fout & wl >= 0"
    model.write_text(text.replace(plant, f"{plant} & {'!' * nots}(wl < -1)"))
    (tmp_path / "deep.init.json").write_text((corpus_dir / "watertank.init.json").read_text())
    assert invoke(capsys, "check", model).exit_code == 0
    result = invoke(capsys, "simulate", model, "--schedules", 1)
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == (
        "simulation failed (CcsError): flow domain nests too deeply to compile "
        "(SyntaxError): " + ("t >= 0 & wl >= 0 & " + "!" * nots)[:80] + "\n"
    )


def test_simulate_flow_right_hand_side_nested_too_deeply_is_one_line(
    capsys, corpus_dir, tmp_path
):
    """A right-hand side Python will not compile, on the RK4 path, fails
    the simulation with one line naming the ODE as a program."""
    deep = "wl"
    for _ in range(110):
        deep = f"(1 / {deep})"
    model = tmp_path / "deep.ccs"
    text = (corpus_dir / "watertank.ccs").read_text()
    model.write_text(text.replace("wl' = fin - fout &", f"wl' = fin - fout + 0 * {deep} &"))
    (tmp_path / "deep.init.json").write_text((corpus_dir / "watertank.init.json").read_text())
    result = invoke(capsys, "simulate", model, "--schedules", 1)
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == (
        "simulation failed (CcsError): program nests too deeply to compile "
        "(SyntaxError): " + ("{wl' = fin - fout + 0 * " + "(1 / " * 20)[:80] + "\n"
    )


def test_simulate_invariant_nested_too_deeply_is_one_line(capsys, corpus_dir, tmp_path):
    """An invariant equality Python will not compile, in the monitors or
    in the residual taken from its gaps, fails the simulation with one
    line naming it."""
    deep = "wlm"
    for _ in range(110):
        deep = f"(1 / {deep})"
    model = tmp_path / "deep.ccs"
    text = (corpus_dir / "watertank.ccs").read_text()
    model.write_text(text.replace("wl = (fin - fout) * (t - tau_1) + wlm", f"wl = {deep}"))
    (tmp_path / "deep.init.json").write_text((corpus_dir / "watertank.init.json").read_text())
    result = invoke(capsys, "simulate", model, "--schedules", 1)
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == (
        "simulation failed (CcsError): formula nests too deeply to compile "
        "(SyntaxError): " + ("wl = " + "1 / (" * 20)[:80] + "\n"
    )


def test_check_cost_model_file(capsys, corpus_dir, tmp_path):
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"wlctrl1": "ecu0", "wlctrl2": "ecu1"}))
    result = invoke(
        capsys, "check", corpus_dir / "two_tanks.ccs", "--cost-model", split
    )
    payload = json.loads(result.stdout)
    assert payload["scheduling"]["cost"] == "0.05"  # max, not sum


@pytest.mark.parametrize(
    "text, problem",
    [("{", "Expecting property name"), ("[" * 100000 + "]" * 100000, "recursion depth")],
    ids=["malformed", "too-deep"],
)
def test_check_bad_cost_model_is_exit_2(capsys, corpus_dir, tmp_path, text, problem):
    bad = tmp_path / "cost.json"
    bad.write_text(text)
    result = invoke(capsys, "check", corpus_dir / "watertank.ccs", "--cost-model", bad)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith(f"bad cost model {bad}: ")
    assert problem in result.stderr and len(result.stderr.splitlines()) == 1


# -- compose ----------------------------------------------------------------


def test_compose_matches_golden_and_reloads(capsys, corpus_dir, golden_dir, tmp_path):
    out = tmp_path / "flat.ccs"
    result = invoke(capsys, "compose", corpus_dir / "two_tanks.ccs", "-o", out)
    assert result.exit_code == 0
    assert out.read_text() == (golden_dir / "two_tanks_composed.ccs").read_text()
    flat = dsl.load_file(out)
    assert [rc.name for rc in flat.controller.choices] == ["wlctrl1", "wlctrl2"]
    assert "scheduling cost 0.07 <= bound 0.15" in result.stdout


def test_compose_rejects_bad_model(capsys, corpus_dir, tmp_path):
    out = tmp_path / "flat.ccs"
    result = invoke(
        capsys, "compose", corpus_dir / "bad_shared_output.ccs", "-o", out
    )
    assert result.exit_code == 1
    assert not out.exists()


# -- obligations ------------------------------------------------------------


def test_obligations_auto_single_pair(capsys, corpus_dir):
    result = invoke(capsys, "obligations", corpus_dir / "watertank.ccs")
    assert result.exit_code == 0
    entries = json.loads(result.stdout)
    assert len(entries) == 15
    assert all(e["id"].startswith("thm1.") for e in entries)
    assert sum(e["id"].startswith("thm1.step.") for e in entries) == 8


def test_obligations_auto_multi_atom(capsys, corpus_dir):
    result = invoke(capsys, "obligations", corpus_dir / "two_tanks.ccs")
    entries = json.loads(result.stdout)
    assert all(e["id"].startswith("thm4.") for e in entries)


def test_obligations_explicit_theorems(capsys, corpus_dir):
    ctrl = invoke(
        capsys, "obligations", corpus_dir / "two_tanks.ccs", "--theorem", "controllers"
    )
    assert len(json.loads(ctrl.stdout)) == 15
    assert all(e["id"].startswith("thm2.") for e in json.loads(ctrl.stdout))
    plants = invoke(
        capsys, "obligations", corpus_dir / "two_tanks.ccs", "--theorem", "plants"
    )
    assert len(json.loads(plants.stdout)) == 10
    assert all(e["id"].startswith("thm3.") for e in json.loads(plants.stdout))


def test_obligations_wrong_shape_is_exit_2(capsys, corpus_dir):
    result = invoke(
        capsys, "obligations", corpus_dir / "watertank.ccs", "--theorem", "controllers"
    )
    assert result.exit_code == 2
    assert "exactly two controllers" in result.stderr


def test_obligations_to_file(capsys, corpus_dir, tmp_path):
    out = tmp_path / "obs.json"
    result = invoke(capsys, "obligations", corpus_dir / "watertank.ccs", "-o", out)
    assert result.exit_code == 0
    assert "wrote 15 obligations to" in result.stdout
    assert len(json.loads(out.read_text())) == 15


def test_obligations_text_format(capsys, corpus_dir):
    result = invoke(
        capsys, "obligations", corpus_dir / "watertank.ccs", "--format", "text"
    )
    lines = result.stdout.splitlines()
    assert lines[-1] == "15 obligations"
    assert any("thm1.step.3" in line and "[fv-bv-separation]" in line for line in lines)


def test_obligations_parse_the_model_once(capsys, corpus_dir, monkeypatch):
    calls = []
    real_parse = dsl.parse

    def counting_parse(text):
        calls.append(text)
        return real_parse(text)

    monkeypatch.setattr(dsl, "parse", counting_parse)
    result = invoke(capsys, "obligations", corpus_dir / "watertank.ccs")
    assert result.exit_code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("theorem", ["auto", "ccs"])
def test_obligations_build_the_components_once(
    capsys, corpus_dir, monkeypatch, theorem
):
    calls = []
    real_build = dsl.build_components

    def counting_build(*args):
        calls.append(args)
        return real_build(*args)

    monkeypatch.setattr(dsl, "build_components", counting_build)
    result = invoke(
        capsys, "obligations", corpus_dir / "two_tanks.ccs", "--theorem", theorem
    )
    assert result.exit_code == 0
    assert len(calls) == 1


# -- export-kyx -------------------------------------------------------------


def test_export_kyx_writes_one_file_per_obligation(capsys, corpus_dir, tmp_path):
    obs_path = tmp_path / "obs.json"
    invoke(capsys, "obligations", corpus_dir / "watertank.ccs", "-o", obs_path)
    out_dir = tmp_path / "kyx"
    result = invoke(capsys, "export-kyx", obs_path, "-o", out_dir)
    assert result.exit_code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert len(files) == 15
    assert "thm1.step.4.kyx" in files
    body = (out_dir / "thm1.base.kyx").read_text()
    assert "Problem" in body and body.rstrip().endswith("End.")


def test_export_kyx_rejects_non_array(capsys, tmp_path):
    bad = tmp_path / "obs.json"
    bad.write_text('{"id": "thm1.base"}')
    result = invoke(capsys, "export-kyx", bad, "-o", tmp_path / "kyx")
    assert result.exit_code == 2
    assert "expected a JSON array" in result.stderr


def test_export_kyx_rejects_malformed_entry(capsys, tmp_path):
    bad = tmp_path / "obs.json"
    bad.write_text('[{"id": "thm1.base"}]')
    result = invoke(capsys, "export-kyx", bad, "-o", tmp_path / "kyx")
    assert result.exit_code == 2
    assert "bad obligation entry" in result.stderr


@pytest.mark.parametrize(
    "wrap",
    [lambda g: "(" * 600 + g + ")" * 600, lambda g: f"{g} & 0 <= 0" + " + 0" * 2999],
    ids=["600-parentheses", "3000-term-sum"],
)
def test_export_kyx_goal_nested_too_deeply_is_exit_2(capsys, corpus_dir, tmp_path, wrap):
    obs_path = tmp_path / "obs.json"
    invoke(capsys, "obligations", corpus_dir / "watertank.ccs", "-o", obs_path)
    obs = json.loads(obs_path.read_text())
    obs[0]["goal"] = wrap(obs[0]["goal"])
    obs_path.write_text(json.dumps(obs))
    out_dir = tmp_path / "kyx"
    result = invoke(capsys, "export-kyx", obs_path, "-o", out_dir)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"{obs_path}: input nests too deeply to process\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "bad_id, problem",
    [
        ("../../escaped", "the id is not a plain file name"),
        ("sub/dir/x", "the id is not a plain file name"),
        ("nul\0byte", "the id is not a plain file name"),
        ("", "the id is not a plain file name"),
        ("thm1.base", "the id repeats that of entry 0"),
    ],
    ids=["parent-path", "subdirectory", "nul-byte", "empty", "repeated"],
)
def test_export_kyx_rejects_an_id_that_is_no_file_name(
    capsys, corpus_dir, tmp_path, bad_id, problem
):
    """An id must name one file of its own inside the output directory;
    the check comes before anything is written."""
    obs_path = tmp_path / "obs.json"
    invoke(capsys, "obligations", corpus_dir / "watertank.ccs", "-o", obs_path)
    obs = json.loads(obs_path.read_text())
    assert obs[0]["id"] == "thm1.base"
    obs[2]["id"] = bad_id
    obs_path.write_text(json.dumps(obs))
    out_dir = tmp_path / "a" / "b" / "kyx"
    result = invoke(capsys, "export-kyx", obs_path, "-o", out_dir)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"{obs_path}: entry 2 (id {bad_id!r}): {problem}\n"
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["obligations", "MODEL", "-o", "BLOCKED/obs.json"],
        ["compose", "MODEL", "-o", "BLOCKED/composed.ccs"],
        ["simulate", "MODEL", "--out", "BLOCKED/run.csv"],
        ["simulate", "MODEL", "--out", "BLOCKED/summary.json"],
        ["export-kyx", "OBS", "-o", "BLOCKED/kyx"],
    ],
    ids=["obligations", "compose", "simulate-csv", "simulate-json", "export-kyx"],
)
def test_unwritable_output_path_is_exit_2(capsys, corpus_dir, tmp_path, args):
    """An output path under a regular file ends with one line naming it."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    obs_path = tmp_path / "obs.json"
    invoke(capsys, "obligations", corpus_dir / "watertank.ccs", "-o", obs_path)
    names = {"MODEL": corpus_dir / "watertank.ccs", "OBS": obs_path}
    args = [str(names.get(a, a)).replace("BLOCKED", str(blocker)) for a in args]
    result = invoke(capsys, *args)
    assert result.exit_code == 2
    assert result.stderr.startswith(f"cannot write {args[-1]}: ")
    assert result.stderr.count("\n") == 1


# -- simulate ---------------------------------------------------------------


def test_simulate_uses_init_convention(capsys, corpus_dir):
    result = invoke(
        capsys,
        "simulate", corpus_dir / "watertank.ccs",
        "--schedules", 5, "--seed", 3, "--horizon", 10,
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["runs"] == 5
    assert payload["runs_with_violations"] == 0
    assert all(v == 0 for v in payload["violations"].values())


def test_simulate_missing_init_is_exit_2(capsys, corpus_dir, tmp_path):
    model = tmp_path / "orphan.ccs"
    model.write_text((corpus_dir / "watertank.ccs").read_text())
    result = invoke(capsys, "simulate", model)
    assert result.exit_code == 2
    assert "orphan.init.json does not exist" in result.stderr


def test_simulate_violations_are_exit_1(capsys, corpus_dir):
    result = invoke(
        capsys,
        "simulate", corpus_dir / "watertank_late_ctrl.ccs",
        "--schedules", 5, "--seed", 3, "--horizon", 10,
    )
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["violations"]["G[tank]"] > 0


def test_simulate_output_files(capsys, corpus_dir, tmp_path):
    trace_path = tmp_path / "run0.csv"
    summary_path = tmp_path / "batch.json"
    result = invoke(
        capsys,
        "simulate", corpus_dir / "watertank.ccs",
        "--schedules", 3, "--seed", 1, "--horizon", 5,
        "--out", trace_path, "--out", summary_path,
    )
    assert result.exit_code == 0
    assert result.stdout == ""  # summary went to the file, not the console
    header = trace_path.read_text().splitlines()[0]
    assert header == "time,event,fin,fout,t,tau_1,wl,wlm"
    assert json.loads(summary_path.read_text())["runs"] == 3


def test_simulate_writes_every_csv_from_the_batch(
    capsys, corpus_dir, tmp_path, monkeypatch
):
    """Run 0's trace comes from the batch itself: `--out x.csv` adds no
    simulation, however many CSVs are asked for."""
    calls = []
    real_run = ccskit.simulator._run

    def counting_run(*args):
        calls.append(args)
        return real_run(*args)

    monkeypatch.setattr(ccskit.simulator, "_run", counting_run)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    result = invoke(
        capsys,
        "simulate", corpus_dir / "watertank.ccs",
        "--schedules", 3, "--seed", 1, "--horizon", 2,
        "--out", first, "--out", second,
    )
    assert result.exit_code == 0
    assert len(calls) == 3
    assert first.read_bytes() == second.read_bytes()
    expected = tmp_path / "expected.csv"
    system = dsl.load_file(corpus_dir / "watertank.ccs")
    box = json.loads((corpus_dir / "watertank.init.json").read_text())
    write_trace_csv(run(system, *batch_member(1, 0, box, "uniform-random", 2.0)), expected)
    assert first.read_bytes() == expected.read_bytes()


def test_simulate_csv_builds_no_trace_point(capsys, corpus_dir, tmp_path, monkeypatch):
    """Run 0's CSV is written from the run's record: `--out x.csv`
    builds no TracePoint, and so no dict, per point."""
    made = []
    real_point = ccskit.simulator.TracePoint

    def counting_point(*args):
        made.append(args)
        return real_point(*args)

    monkeypatch.setattr(ccskit.simulator, "TracePoint", counting_point)
    path = tmp_path / "run0.csv"
    result = invoke(
        capsys,
        "simulate", corpus_dir / "two_tanks.ccs",
        "--schedules", 2, "--seed", 1, "--horizon", 2, "--out", path,
    )
    assert result.exit_code == 0
    assert path.read_bytes().count(b"\r\n") > 100
    assert made == []


STUCK_MODEL = """
controller noop every 0.05 {
  ?(x < 0); y := 1;
}

plant wall within 0.2 {
  x' = 1 & x <= 0
}

contract noop {
  assume true
  guarantee true
  init true
}

contract wall {
  assume true
  guarantee true
  init true
}

system stuck = noop | wall
"""


def test_simulate_stuck_first_run_with_csv_is_exit_1(capsys, tmp_path):
    model = tmp_path / "stuck.ccs"
    model.write_text(STUCK_MODEL)
    box = {"x": 0, "y": 0, "t": 0, "tau_1": 0}
    (tmp_path / "stuck.init.json").write_text(json.dumps(box))
    with pytest.raises(StuckState):
        run(dsl.load(STUCK_MODEL), *batch_member(0, 0, box, "uniform-random", 1.0))
    trace_path = tmp_path / "run0.csv"
    result = invoke(
        capsys, "simulate", model, "--schedules", 2, "--horizon", 1,
        "--out", trace_path,
    )
    # The summary is the one printed without a CSV; only the trace is missing.
    summary = run_batch(dsl.load(STUCK_MODEL), 2, 0, box, horizon=1.0)
    assert result.exit_code == 1
    assert json.loads(result.stdout) == summary.to_json()
    assert summary.stuck_runs == 2
    assert result.stderr == f"run 0 is stuck: wrote no trace to {trace_path}\n"
    assert not trace_path.exists()


@pytest.mark.parametrize(
    "option, value",
    [
        ("--schedules", "-1"),
        ("--schedules", "0"),
        ("--horizon", "nan"),
        ("--horizon", "inf"),
        ("--horizon", "-5"),
        ("--horizon", "0"),
    ],
)
def test_simulate_bad_schedules_or_horizon_is_exit_2(capsys, corpus_dir, option, value):
    result = invoke(capsys, "simulate", corpus_dir / "watertank.ccs", option, value)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert option in result.stderr


@pytest.mark.parametrize(
    "box, entry",
    [
        ('{"wl": [1]}', "'wl'"),
        ('{"wl": ["a", "b"]}', "'wl'"),
        ('{"wl": null, "wlm": "=wl"}', "'wl'"),
        ("[1, 2]", "JSON object"),
        ('{"wl": true}', "'wl'"),
        ('{"wl": [6.4, 3.6]}', "'wl'"),
        ('{"wl": [3.6, Infinity]}', "'wl'"),
        ('{"wl": NaN}', "'wl'"),
        ('{"wl": 1' + "0" * 400 + "}", "'wl'"),
        ('{"wl": [0, 1' + "0" * 400 + "]}", "'wl'"),
        ('{"wl": [null, 1]}', "'wl'"),
        ('{"wl": [false, 1]}', "'wl'"),
        ('{"wl": 5, "fin": "1"}', "'fin'"),
        ('{"wl": 5, "wlm": "="}', "'wlm'"),
        ('{"wl": {"lo": 3}}', "'wl'"),
        ('{"wl": 5, "wlm": "=wl", "fin": 1, "t": 0, "tau_1": 0, "zzz": 5}', "'zzz'"),
        ('{"wl": 5, "wlm": "=wlx", "fin": 1, "t": 0, "tau_1": 0}', "'wlm'"),
        ('{"wl": 5, "wlm": "=fin", "fin": "=wlm", "t": 0, "tau_1": 0}', "'wlm'"),
        ("[" * 100000 + "]" * 100000, "recursion depth"),
    ],
    ids=[
        "short-pair", "string-pair", "null", "array", "bool", "reversed",
        "infinite", "nan", "huge-int", "huge-int-pair", "null-pair",
        "bool-pair", "bare-string", "empty-alias", "object",
        "unknown-name", "dangling-alias", "alias-cycle", "too-deep",
    ],
)
def test_simulate_malformed_init_is_exit_2(capsys, corpus_dir, tmp_path, box, entry):
    init = tmp_path / "box.init.json"
    init.write_text(box)
    result = invoke(
        capsys, "simulate", corpus_dir / "watertank.ccs", "--init", init
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert str(init) in result.stderr
    assert entry in result.stderr


def test_simulate_resolves_alias_chains_in_any_order(capsys, corpus_dir, tmp_path):
    init = tmp_path / "chain.init.json"
    init.write_text(
        '{"wlm": "=wl", "wl": [3.6, 6.4], "fin": "=tau_1", "tau_1": "=t", "t": 0}'
    )
    result = invoke(
        capsys, "simulate", corpus_dir / "watertank.ccs", "--init", init
    )
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.stdout)["variable_ranges"]["fin"][0] == 0.0


def test_simulate_odd_output_suffix_is_exit_2(capsys, corpus_dir, tmp_path):
    result = invoke(
        capsys,
        "simulate", corpus_dir / "watertank.ccs",
        "--out", tmp_path / "trace.txt",
    )
    assert result.exit_code == 2
    assert "cannot tell what to write to" in result.stderr



# -- output pin -------------------------------------------------------------


def _pinned_invocations(model: Path):
    """Each command line the output pin runs on `model`. OUT/ stands for a
    fresh directory of the invocation's own, OBS for the obligations file
    the `-o` run wrote; export-kyx runs only when that run wrote one."""
    yield ["check", model]
    yield ["check", model, "--format", "text"]
    yield ["check", model, "--vars"]
    yield ["check", model, "--vars", "--format", "text"]
    yield ["compose", model, "-o", "OUT/composed.ccs"]
    for theorem in ["auto", "ccs", "controllers", "plants"]:
        for fmt in ["json", "text"]:
            yield ["obligations", model, "--theorem", theorem, "--format", fmt]
    yield ["obligations", model, "-o", "OUT/obs.json"]
    yield ["export-kyx", "OBS", "-o", "OUT/kyx"]
    for strategy in STRATEGIES:
        args = ["simulate", model, "--schedules", 2, "--horizon", 3, "--strategy", strategy]
        yield args
        yield args + ["--out", "OUT/run.csv", "--out", "OUT/summary.json"]


# sha256 over the args, exit code, stdout, stderr and written files of every
# invocation above on every corpus model, with the corpus and the test's
# temporary directory written as CORPUS and TMP. Usage errors are left out:
# their text is not part of the contract.
OUTPUT_PIN = "6971ffdc6a055dbe198d5b2661c1141a99a6f39a8e5e009b19258833f265d910"


def test_command_outputs_are_pinned(capsys, corpus_dir, tmp_path):
    def plain(text: str) -> str:
        return text.replace(str(tmp_path), "TMP").replace(str(corpus_dir), "CORPUS")

    digest = hashlib.sha256()
    count = 0
    for model in sorted(corpus_dir.glob("*.ccs")):
        obs = None
        for args in _pinned_invocations(model):
            if args[0] == "export-kyx" and not obs.exists():
                continue
            outdir = tmp_path / str(count)
            outdir.mkdir()
            count += 1
            args = [obs if a == "OBS" else a for a in args]
            args = [str(a).replace("OUT/", f"{outdir}/") for a in args]
            if args[-1].endswith("obs.json"):
                obs = Path(args[-1])
            code, out, err = invoke(capsys, *args)
            files = [
                [plain(str(f.relative_to(outdir))), plain(f.read_text())]
                for f in sorted(outdir.rglob("*"))
                if f.is_file()
            ]
            record = [[plain(a) for a in args], code, plain(out), plain(err), files]
            digest.update(json.dumps(record).encode() + b"\n")
    assert count == 124
    assert digest.hexdigest() == OUTPUT_PIN
