"""tools/diff_outputs.py: the differential-output harness of the command line."""

import importlib.util
import shutil
from pathlib import Path

from espalier import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_tool():
    spec = importlib.util.spec_from_file_location("diff_outputs", ROOT / "tools" / "diff_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reduced_corpus_on_the_same_tree_has_no_difference(tmp_path):
    tool = load_tool()
    corpus = tool.build_corpus(tmp_path, words=12)
    # every command runs on inputs, and shows its --help
    assert {args[0] for args in corpus if args[1:2] not in ([], ["--help"])} == set(
        cli.main.commands)
    assert set(tool.COMMANDS) == set(cli.main.commands)
    assert tool.differences(SRC, SRC, corpus) == []


def test_a_planted_message_change_is_reported_for_exactly_its_invocation(tmp_path):
    tool = load_tool()
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
