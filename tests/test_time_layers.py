"""tools/time_layers.py: the timing tool builds every case and prints one JSON line."""

import json
import sys

import espalier
from oracles import load_tool


def test_every_case_builds_and_two_table_cases_time(capsys, monkeypatch):
    tool = load_tool("time_layers")
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
