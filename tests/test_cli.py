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
    assert cli.main(["validate", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
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
