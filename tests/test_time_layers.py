"""tools/time_layers.py: the timing tool builds every case and prints one JSON line."""

import json
import sys

import espalier
from oracles import load_tool


def test_every_case_builds_and_two_table_cases_time(capsys, monkeypatch):
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
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts --src in front
    tool.main(["--repeat", "1", "--case", "alexander_table", "--case", "staircase_table"])
    result = json.loads(capsys.readouterr().out)
    assert result["repeat"] == 1
    assert {"alexander_table", "alexander_table_first", "staircase_table",
            "staircase_table_first"} <= result.keys()


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
