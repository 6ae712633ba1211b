"""tools/time_layers.py: the timing tool builds every case and prints one JSON line."""

import importlib.util
import json
import sys
from pathlib import Path

import espalier

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("time_layers", ROOT / "tools" / "time_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_builds_and_two_table_cases_time(capsys, monkeypatch):
    tool = load_tool()
    assert set(tool.CASES) == {
        "chain30", "chain50", "chain100", "rung64", "alexander_table", "fold8_mixed",
        "fold8_positive", "mixed16", "mixed64", "positive64", "negative64", "staircase_table"}
    for case in tool.CASES:
        call, args = tool.build(espalier, case)
        assert callable(call) and args, case
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts --src in front
    tool.main(["--repeat", "1", "--case", "alexander_table", "--case", "staircase_table"])
    result = json.loads(capsys.readouterr().out)
    assert result["repeat"] == 1
    assert {"alexander_table", "alexander_table_first", "staircase_table",
            "staircase_table_first"} <= result.keys()
