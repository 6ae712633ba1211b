"""tools/time_layers.py: the timing tool builds every case and prints one JSON line."""

import json
import sys
from pathlib import Path

import pytest

import espalier
from oracles import load_tool


@pytest.fixture
def espalier_modules():
    """Put back the espalier modules that the tool's `load` swaps out."""
    saved = {name: module for name, module in sys.modules.items() if name.split(".")[0] == "espalier"}
    yield
    for name in [name for name in sys.modules if name.split(".")[0] == "espalier"]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_every_case_builds_and_two_table_cases_time(capsys, espalier_modules):
    tool = load_tool("time_layers")
    assert set(tool.CASES) == {
        "chain30", "chain50", "chain100", "rung8", "rung16", "rung32", "rung64", "alexander_table",
        "long4", "fold8_mixed", "fold8_positive", "mixed16", "mixed64", "positive64", "negative64",
        "staircase_table", "tword_chains"}
    for case in tool.CASES:
        call, args = tool.build(espalier, case)
        assert callable(call) and args, case
    for case, strands in (("rung8", 8), ("rung16", 16), ("rung32", 32), ("rung64", 64)):
        assert [w.strands for w in tool.build(espalier, case)[1]] == [strands], case
    # long4: 4-strand knot words on the pairs, past the packing cutoff
    long4 = tool.build(espalier, "long4")[1]
    assert len(long4) == 20 and len(set(long4)) == 20
    for word in long4:
        assert (word.strands, len(word.letters), word.components) == (4, 401, 1)
        assert {g.sign for g in word.letters} == {1, -1} and espalier.invariants._packing(word) is None
    # every chain's plain and shuffled sums are T-positive knots on its summed tree
    chains = tool.build(espalier, "tword_chains")[1]
    for vertices, edges, words in chains:
        tree = espalier.Espalier(vertices, edges)
        plain, shuffled = (espalier.BraidWord(*fields) for fields in words)
        assert sorted(plain.letters) == sorted(shuffled.letters)
        for word in (plain, shuffled):
            assert word.components == 1
            assert espalier.find_espalier(word) == (tree, espalier.classify(tree, word))
            assert espalier.classify(tree, word).kind is espalier.Kind.T_POSITIVE
    assert max(vertices for vertices, _, _ in chains) > 10
    tool.main(["--repeat", "1", "--case", "alexander_table", "--case", "staircase_table"])
    result = json.loads(capsys.readouterr().out)
    assert result["repeat"] == 1
    assert {"alexander_table", "alexander_table_first", "staircase_table",
            "staircase_table_first"} <= result.keys()
    assert result["alexander_table_packed"] == [34, 34] and "staircase_table_packed" not in result


def test_record_keeps_the_full_best_and_first_times(monkeypatch):
    tool = load_tool("time_layers")
    # a fake clock: each run reads two ticks, start and end
    ticks = iter([0.0, 0.00123456789, 1.0, 1.00012345678, 2.0, 2.000987654321])
    monkeypatch.setattr(tool.time, "perf_counter", lambda: next(ticks))
    calls = []
    result = {}
    tool.record(result, "case", calls.append, ["a", "b"], 3)
    assert calls == ["a", "b"] * 3
    assert result == {"case": 1.00012345678 - 1.0, "case_first": 0.00123456789}


def test_paired_mode_loads_two_trees_and_reports_both(capsys, espalier_modules):
    # the same tree on both sides: two module sets, two rounds alternating
    tool = load_tool("time_layers")
    src = str(Path(espalier.__file__).resolve().parent.parent)
    trees = [tool.load(src), tool.load(src)]
    assert trees[0] is not trees[1] and trees[0].BraidWord is not trees[1].BraidWord
    tool.main(["--against", src, "--rounds", "2", "--repeat", "1", "--case", "alexander_table"])
    result = json.loads(capsys.readouterr().out)
    assert result["rounds"] == 2 and result["repeat"] == 1
    case = result["alexander_table"]
    assert set(case) == {"src", "against", "ratio", "wins"}
    for side in ("src", "against"):
        q1, median, q3 = case[side]
        assert 0 < q1 <= median <= q3
    assert case["ratio"] == case["src"][1] / case["against"][1]
    assert case["wins"] in (0, 1, 2)
    assert result["alexander_table_packed"] == {"src": [34, 34], "against": [34, 34]}
