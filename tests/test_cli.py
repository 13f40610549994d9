import json
import os
import subprocess
import sys
from pathlib import Path

import holmes_planner as hp
from helpers import full_scenario
from holmes_planner import cli


def _write(tmp_path, doc) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_valid_scenario_exits_ok(tmp_path, capsys):
    path = _write(tmp_path, full_scenario())
    assert cli.main(["validate", "--config", path]) == cli.EXIT_OK
    assert capsys.readouterr().out == "ok\n"
    assert cli.main(["simulate", "--config", path]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["report"]["iter_time_s"] > 0


def test_degree_product_diagnostic_exits_infeasible(tmp_path, capsys):
    doc = full_scenario()
    doc["parallel"]["d"] = 4  # 2 * 4 * 4 = 32 ranks on 16 devices
    path = _write(tmp_path, doc)
    assert cli.main(["validate", "--config", path]) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().out.startswith("DEGREE_PRODUCT: ")
    assert cli.main(["simulate", "--config", path]) == cli.EXIT_INFEASIBLE
    assert "DEGREE_PRODUCT" in capsys.readouterr().err


def test_unreadable_and_undecodable_files_exit_malformed(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    assert cli.main(["validate", "--config", str(absent)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {absent}: No such file or directory\n"
    )
    bad = tmp_path / "bad.json"
    bad.write_text("{\"topology\": ", encoding="utf-8")
    assert cli.main(["validate", "--config", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_import_needs_only_the_standard_library():
    # Site hooks may import third-party modules at interpreter start-up, so
    # the check covers the modules that importing the CLI adds.
    code = (
        "import sys; before = set(sys.modules); import holmes_planner.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hp.__file__).resolve().parent.parent))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    added = run.stdout.split()
    assert "holmes_planner.cli" in added
    allowed = sys.stdlib_module_names | {"holmes_planner"}
    assert [m for m in added if m.split(".")[0] not in allowed] == []


def test_trace_file_leaves_stdout_unchanged(tmp_path, capsys):
    path = _write(tmp_path, full_scenario())
    trace = tmp_path / "trace.json"
    for fmt in ("json", "table"):
        argv = ["simulate", "--config", path, "--format", fmt]
        assert cli.main(argv) == cli.EXIT_OK
        plain = capsys.readouterr().out
        assert cli.main([*argv, "--trace", str(trace)]) == cli.EXIT_OK
        assert capsys.readouterr().out == plain
        text = trace.read_text(encoding="utf-8")
        assert "\n" not in text and ", " not in text
        events = json.loads(text)["traceEvents"]
        # t=2 p=4 d=2, 64/(2*2) = 16 micro-batches: 2*4*16 pipeline events,
        # 4 dp_sync events and 4 thread names.
        assert sum(e["ph"] == "X" for e in events) == 2 * 4 * 16 + 4
        assert sum(e["ph"] == "M" for e in events) == 4


def test_unwritable_output_paths_exit_malformed(tmp_path, capsys):
    path = _write(tmp_path, full_scenario())
    absent = str(tmp_path / "absent" / "out")
    for argv in (
        ["simulate", "--config", path, "--csv", absent],
        ["simulate", "--config", path, "--trace", absent],
        ["compare", "--config", path, "holmes", "naive", "--csv", absent],
    ):
        assert cli.main(argv) == cli.EXIT_MALFORMED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {absent}: ")
        assert captured.err.count("\n") == 1
