"""Golden CLI outputs: exit code and stdout digest per scenario and command.

Refactors must keep every entry of ``golden_cli.json`` unchanged.  A change
that is meant to alter an output regenerates the manifest with

    PYTHONPATH=src python tests/test_golden_cli.py

and says which entries moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from holmes_planner import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
MANIFEST = Path(__file__).with_name("golden_cli.json")
STRATEGIES = (
    "holmes",
    "naive",
    "uniform-partition",
    "self-adapting-partition",
    "ib-only",
    "roce-only",
    "ethernet-only",
    "hybrid",
)
COMMANDS = {
    "validate": ("validate",),
    "plan": ("plan",),
    "plan --naive": ("plan", "--naive"),
    "plan --format table": ("plan", "--format", "table"),
    "partition": ("partition",),
    "simulate": ("simulate",),
    "simulate --naive": ("simulate", "--naive"),
    "compare": ("compare", "--format", "json", *STRATEGIES),
}


def _cases() -> list[str]:
    return [
        f"{path.name} {command}"
        for path in sorted(SCENARIOS.glob("*.json"))
        for command in COMMANDS
    ]


def _run(case: str) -> dict:
    name, command = case.split(" ", 1)
    head, *rest = COMMANDS[command]
    argv = [head, "--config", str(SCENARIOS / name), *rest]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "stdout_sha256": digest}


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_every_scenario_and_command():
    assert sorted(_manifest()) == sorted(_cases())


@pytest.mark.parametrize("case", _cases())
def test_cli_output_matches_golden(case):
    assert _run(case) == _manifest()[case]


if __name__ == "__main__":
    golden = {case: _run(case) for case in _cases()}
    MANIFEST.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} entries to {MANIFEST}", file=sys.stderr)
