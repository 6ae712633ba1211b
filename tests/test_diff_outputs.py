"""tools/diff_outputs.py: the differential-output harness of the command line."""

import shutil
from pathlib import Path

from espalier import cli, trees
from espalier.errors import ToolkitError
from oracles import load_tool

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_reduced_corpus_on_the_same_tree_has_no_difference(tmp_path):
    tool = load_tool("diff_outputs")
    corpus = tool.build_corpus(tmp_path, words=12)
    # every command runs on inputs, and shows its --help
    assert {args[0] for args in corpus if args[1:2] not in ([], ["--help"])} == set(
        cli.main.commands)
    assert set(tool.COMMANDS) == set(cli.main.commands)
    assert tool.differences(SRC, SRC, corpus) == []
    # exit 1 only from a failed verification, and no exception escapes the command
    outcomes = tool.run_corpus(SRC, corpus, 0)
    assert {code for code, _, _ in outcomes} <= {0, 1, 2}
    assert not [args for args, (_, _, err) in zip(corpus, outcomes) if "<uncaught" in err]
    assert not [args for args, (code, out, _) in zip(corpus, outcomes)
                if code == 1 and "FAILED" not in out]
    # the fixed --espalier specs reach the parser: classify exits 2 exactly on
    # the specs that parse_espalier rejects
    specs = dict(tool.SPECS)
    exits = [(args[3], code) for args, (code, _, _) in zip(corpus, outcomes)
             if args[0] == "classify" and args[2:3] == ["--espalier"] and args[3] in specs]
    assert len(exits) == 2 * len(specs)
    assert {code for _, code in exits} == {0, 2}
    assert [spec for spec, code in exits if code == 2] == [
        spec for spec, _ in exits if rejects(spec)]


def rejects(spec):
    try:
        trees.parse_espalier(spec)
    except ToolkitError:
        return True
    return False


def test_a_planted_message_change_is_reported_for_exactly_its_invocation(tmp_path):
    tool = load_tool("diff_outputs")
    planted = tmp_path / "src"
    shutil.copytree(SRC, planted, ignore=shutil.ignore_patterns("__pycache__"))
    braid = planted / "espalier" / "braid.py"
    text = braid.read_text(encoding="utf-8")
    assert text.count('"strand indices are 1-based"') == 1
    braid.write_text(text.replace('"strand indices are 1-based"', '"indices start at 1"'),
                     encoding="utf-8")
    corpus = [["parse", "s1 s2"], ["parse", "s0"], ["genus", "s1^3"], ["parse", "s0", "--help"]]
    found = tool.differences(SRC, planted, corpus)
    assert [args for args, _ in found] == [["parse", "s0"]]
    report = tool.describe(*found[0])
    assert report.splitlines()[0] == "differs: espalier ['parse', 's0']"
    assert "+error: indices start at 1 (at position 0)" in report
