import copy
import json
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

import espalier
from espalier import braid, cabling, cli, garside, table
from espalier.braid import MAX_LETTERS, MAX_STRANDS, BraidWord, parse_braid
from espalier.cli import main
from espalier.garside import left_normal_form
from espalier.invariants import alexander_of_closure
from espalier.trees import enumerate_espaliers


def run(*args):
    return CliRunner().invoke(main, list(args))


class TestParse:
    def test_echo_canonical(self):
        result = run("parse", "s1^3")
        assert result.exit_code == 0
        assert result.output.strip() == "a(1,2)^3"

    def test_json(self):
        result = run("parse", "--json", "a(1,3) a(1,3)")
        payload = json.loads(result.output)
        assert payload == {"strands": 3, "length": 2, "word": "a(1,3)^2"}

    def test_syntax_error_exit_code(self):
        result = run("parse", "a(3,1)")
        assert result.exit_code == 2

    def test_svg(self, tmp_path):
        target = tmp_path / "fence.svg"
        result = run("parse", "a(1,3) s2^-1", "--svg", str(target))
        assert result.exit_code == 0
        body = target.read_text()
        assert body.startswith("<svg") and "stroke-dasharray" in body


class TestStaircase:
    def test_documented_output(self):
        result = run("staircase", "a1^3", "--json")
        payload = json.loads(result.output)
        assert payload["staircase"] is True
        assert payload["witness"] == "a(1,2) a(1,2)^2"
        assert payload["inf"] == 3

    def test_negative_result(self):
        result = run("staircase", "a(1,3)", "--json")
        payload = json.loads(result.output)
        assert payload == {"staircase": False, "inf": 0}
        assert result.exit_code == 0

    def test_staircase_found_by_cycling(self):
        result = run("staircase", "a(1,4) a(3,4)^3 a(2,3)")
        assert result.exit_code == 0
        assert result.output.startswith("staircase: yes (inf=1)")

    @pytest.mark.parametrize("word,witness,conjugator", [
        ("s1 a(1,3)", "a(1,2) a(2,3)", "a(1,2)"),
        ("a(1,4) a(3,4)^3 a(2,3)", "a(1,2) a(2,3) a(3,4) a(2,4)^2", "a(1,4) a(1,3) a(3,4)"),
        ("a(1,3)^-1 a(2,3) a(1,2) a(1,3)", "a(1,2) a(2,3)", "a(1,2)^2"),
        ("a(1,4) a(1,2)^2 a(1,4) a(3,4) a(1,4)^-1", "a(1,2) a(2,3) a(3,4) a(3,4)",
         "a(1,2) a(2,4) a(1,2) a(2,4)"),
        ("a(1,5) a(3,5) a(2,4) a(3,4) a(4,5)", "a(1,2) a(2,3) a(3,4) a(4,5) a(2,5)",
         "a(1,5) a(2,3) a(1,3) a(3,5) a(1,5) a(2,3) a(3,4)"),
        ("a(3,4) a(1,2) a(1,4) a(3,6) a(3,4) a(5,6)",
         "a(1,2) a(2,3) a(3,4) a(4,5) a(5,6) a(3,6)",
         "a(1,2) a(3,4) a(4,6) a(1,2) a(2,6) a(3,4) a(4,5) a(1,2) a(2,5) a(5,6) a(3,4)"
         " a(1,2) a(2,4) a(4,5) a(5,6)"),
    ])
    def test_witness_letters_after_cycling(self, word, witness, conjugator):
        # the exact letters, not only the braids they stand for
        result = run("staircase", word, "--json")
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "staircase": True, "witness": witness, "inf": 1, "conjugator": conjugator}

    def test_answers_negative_letters(self):
        result = run("staircase", "s1^-1")
        assert result.exit_code == 0
        assert result.output.startswith("staircase: no (inf=-1)")


class TestVersion:
    def test_version_without_install_metadata(self):
        result = run("--version")
        assert result.exit_code == 0, result.output
        assert result.output == f"espalier, version {espalier.__version__}\n"

    def test_pyproject_version_matches_the_package(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as handle:
            found = re.search(r'^version = "([^"]+)"$', handle.read(), re.MULTILINE)
        assert found and found.group(1) == espalier.__version__


class TestNormalForm:
    def test_text(self):
        assert run("normal-form", "s1^3").output.strip() == "delta^3"

    def test_json(self):
        payload = json.loads(run("normal-form", "--json", "a(1,3) a(1,3)").output)
        assert payload == {"inf": 0, "sup": 2, "factors": ["{1,3}", "{1,3}"]}

    @pytest.mark.parametrize("args, text, payload", [
        (["s1^-2 s2"], "delta^-2 | {1,2};{1,3};{2,3}",
         {"inf": -2, "sup": 1, "factors": ["{1,2}", "{1,3}", "{2,3}"]}),
        (["s2^-1 s1^-1 s2^-1 s1^-1"], "delta^-2", {"inf": -2, "sup": -2, "factors": []}),
        (["a(1,2) a(2,4) a(1,3)^2"], "delta^0 | {1,2,4};{1,3};{1,3}",
         {"inf": 0, "sup": 3, "factors": ["{1,2,4}", "{1,3}", "{1,3}"]}),
        (["a(1,2) a(2,3) a(3,4) a(1,4)^-1"], "delta^0 | {2,3,4}",
         {"inf": 0, "sup": 1, "factors": ["{2,3,4}"]}),
        (["a(1,4) a(2,3) a(5,6)^-1 a(1,6) a(3,7)^2"],
         "delta^-1 | {1,2,3,4,5,7};{1,4}{2,3};{1,6};{3,7};{3,7}",
         {"inf": -1, "sup": 4, "factors": ["{1,2,3,4,5,7}", "{1,4}{2,3}", "{1,6}", "{3,7}", "{3,7}"]}),
        (["a(2,5)^-1 a(1,3) s4 s5 s6^-2 a(1,6)"],
         "delta^-3 | {1,2,3,4}{5,6,7};{1,6,7}{2,3,4,5};{1,2,3,4}{5,6,7};{1,3}{4,5,6};{1,6}",
         {"inf": -3, "sup": 2, "factors": ["{1,2,3,4}{5,6,7}", "{1,6,7}{2,3,4,5}",
                                           "{1,2,3,4}{5,6,7}", "{1,3}{4,5,6}", "{1,6}"]}),
        (["a(1,3) a(4,6)^-1", "--strands", "9"], "delta^-1 | {1,2,3,4,7,8,9}{5,6};{1,3}",
         {"inf": -1, "sup": 1, "factors": ["{1,2,3,4,7,8,9}{5,6}", "{1,3}"]}),
    ])
    def test_pinned_outputs(self, args, text, payload):
        # literal text and JSON: negative inf, no factors, blocks of 3+ strands, n >= 7
        result = run("normal-form", *args)
        assert (result.exit_code, result.output) == (0, text + "\n")
        result = run("normal-form", *args, "--json")
        assert (result.exit_code, json.loads(result.output)) == (0, payload)


class TestClassify:
    def test_inferred_espalier(self):
        result = run("classify", "--json",
                     "a(1,3)^2 a(2,3)^2 a(4,5)^2 a(1,4)^-3 a(4,5)^2 a(2,3) a(1,3) a(4,5)")
        payload = json.loads(result.output)
        assert payload["kind"] == "THomogeneous"
        assert payload["espalier"] == "n=5; edges=(1,3),(1,4),(2,3),(4,5)"
        assert payload["signs"]["(1,4)"] == -1

    def test_explicit_espalier(self):
        result = run("classify", "s1 s2", "--espalier", "n=3; edges=(1,2),(2,3)")
        assert "TPositive" in result.output

    def test_crossing_support(self):
        result = run("classify", "--json", "a(1,3) a(2,4)")
        assert json.loads(result.output)["kind"] == "NotTWord"

    def test_reason_for_a_mixed_sign_edge(self):
        args = ("classify", "s1 s2 s1^-1", "--espalier", "n=3; edges=(1,2),(2,3)")
        reason = "letter #3: edge (1, 2) carries both signs"
        result = run(*args)
        assert result.exit_code == 0
        assert f"reason: {reason}" in result.output.splitlines()
        assert json.loads(run(*args, "--json").output)["reason"] == reason


class TestEspaliers:
    def test_count_only(self):
        assert run("espaliers", "--n", "5", "--count-only").output.strip() == "55"

    def test_count_only_closed_form_matches_the_enumeration(self):
        for n in range(1, 10):
            result = run("espaliers", "--n", str(n), "--count-only")
            assert result.exit_code == 0
            assert int(result.output) == len(enumerate_espaliers(n)), n
        for n in (0, 11):
            result = run("espaliers", "--n", str(n), "--count-only")
            assert result.exit_code == 2 and "error:" in result.output, n

    def test_listing(self):
        result = run("espaliers", "--n", "3")
        lines = result.output.strip().splitlines()
        assert len(lines) == 3
        assert "n=3; edges=(1,2),(2,3)" in lines


class TestHomogenize:
    def test_flip(self):
        result = run("homogenize", "s1^-1", "--espalier", "n=2; edges=(1,2)", "--verify")
        assert result.exit_code == 0
        assert result.output.strip() == "a(1,2)"

    def test_deep_negative_is_usage_error(self):
        result = run("homogenize", "s1^-3", "--espalier", "n=2; edges=(1,2)")
        assert result.exit_code == 2


class TestCable:
    def test_verified_cable(self):
        result = run("cable", "--p", "2", "--q", "3", "a1^3", "--verify", "--json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verified"] is True
        assert payload["strands"] == 4

    def test_cable_of_a_staircase_found_by_cycling(self):
        result = run("cable", "--p", "2", "--q", "5", "a(1,4) a(3,4)^3 a(2,3)",
                     "--verify", "--json")
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["verified"] is True
        assert payload["strands"] == 8

    def test_hypothesis_violation_exit_two(self):
        result = run("cable", "--p", "2", "--q", "1", "a1^3")
        assert result.exit_code == 2
        assert "q >= n" in result.output

    def test_verify_demands_the_literal_delta(self, monkeypatch):
        # the trefoil's (2,3)-cable rotated by 3 letters: still inf 1, a knot,
        # and the same Alexander polynomial, but no literal delta_4 in front
        out = parse_braid("a(1,2) a(2,3) a(3,4) a(1,3) a(2,4) a(1,3) a(2,4) a(1,3) a(1,2)", 4)
        assert cabling.cable_staircase(parse_braid("a1^3"), cabling.CableSpec(2, 3, 2)) == out
        rotated = BraidWord(4, out.letters[3:] + out.letters[:3])
        assert left_normal_form(rotated).inf == 1 and rotated.components == 1
        assert alexander_of_closure(rotated) == alexander_of_closure(out)
        monkeypatch.setattr("espalier.cabling.cable_staircase", lambda word, spec: rotated)
        result = run("cable", "--p", "2", "--q", "3", "a1^3", "--verify", "--json")
        assert result.exit_code == 1
        assert json.loads(result.output.splitlines()[0])["verified"] is False


class TestConnectSum:
    def test_plain(self):
        result = run("connect-sum", "--left", "s1^3", "--right", "s1^3")
        assert result.output.strip() == "a(1,2)^3 a(2,3)^3"

    def test_shuffle(self):
        result = run("connect-sum", "--left", "s1^3", "--right", "s1^3",
                     "--shuffle", "LRLRLR")
        assert result.exit_code == 0
        assert result.output.strip() == "a(1,2) a(2,3) a(1,2) a(2,3) a(1,2) a(2,3)"

    def test_bad_shuffle_pattern(self):
        result = run("connect-sum", "--left", "s1^3", "--right", "s1^3",
                     "--shuffle", "LRX")
        assert result.exit_code == 2

    def test_link_input_names_the_force_flag(self):
        result = run("connect-sum", "--left", "s1^2", "--right", "s1^3")
        assert_clean_usage_error(
            result, "left word closes to a 2-component link; connected sum is defined for "
            "knots (pass --force, or force=True, to experiment)")
        forced = run("connect-sum", "--left", "s1^2", "--right", "s1^3", "--force")
        assert forced.exit_code == 0 and forced.output.strip() == "a(1,2)^2 a(2,3)^3"

    def test_shuffle_count_error_speaks_of_picks(self):
        # the message fits the CLI's L/R picks and the library's 0/1 sequence alike
        result = run("connect-sum", "--left", "s1^3", "--right", "s1^3", "--shuffle", "LLLRRRR")
        assert_clean_usage_error(result, "pick the left word 3 times and the right word 3 times")
        assert "zeros" not in result.output


class TestInvariantCommands:
    def test_alexander(self):
        assert run("alexander", "s1^3").output.strip() == "t^-1 - 1 + t"

    def test_alexander_json(self):
        payload = json.loads(run("alexander", "--json", "s1^3").output)
        assert payload == {"min_deg": -1, "coeffs": [1, -1, 1], "text": "t^-1 - 1 + t"}

    def test_genus(self):
        assert run("genus", "s1^3").output.strip() == "chi = -1, genus = 1"

    def test_link_closure_is_usage_error(self):
        assert run("alexander", "s1^2").exit_code == 2


class TestPrimeScan:
    def test_hidden_composite(self):
        result = run("prime-scan", "--json", "a(1,2) a(2,3) a(1,2) a(2,3) a(2,4)^3")
        payload = json.loads(result.output)
        assert payload == {"regions": 15, "loops": []}

    def test_granny(self):
        result = run("prime-scan", "s1^3 s2^3")
        assert "3 / 3 crossings per side" in result.output

    def test_json_schema(self):
        payload = json.loads(run("prime-scan", "--json", "s1^3 s2^3").output)
        assert payload["regions"] == 8
        loop = payload["loops"][0]
        assert set(loop) == {"regions", "arcs", "crossings_side_A", "crossings_side_B"}
        assert loop["crossings_side_A"] + loop["crossings_side_B"] == 6

    # exact output of the face-traced diagram build: pins region and arc numbering
    GOLDEN = {
        "s1^3 s2^3": (
            '{"regions": 8, "loops": [{"regions": [4, 5], "arcs": [6, 9], '
            '"crossings_side_A": 3, "crossings_side_B": 3}]}',
            "regions: 8\n"
            "loop between regions 4,5 through arcs 6,9: 3 / 3 crossings per side",
        ),
        "a(1,2) a(2,3) a(1,2) a(2,3) a(2,4)^3": (
            '{"regions": 15, "loops": []}',
            "regions: 15\n"
            "no length-2 loop: the diagram admits no decomposition circle "
            "(says nothing about primeness of the link)",
        ),
        # trefoil # figure-eight # trefoil (the last drawn with bands)
        "s1^3 s2 s3^-1 s2 s3^-1 a(4,6) a(5,6) a(4,6) a(5,6)": (
            '{"regions": 17, "loops": [{"regions": [4, 5], "arcs": [6, 8], '
            '"crossings_side_A": 3, "crossings_side_B": 12}, {"regions": [7, 9], '
            '"arcs": [14, 18], "crossings_side_A": 7, "crossings_side_B": 8}]}',
            "regions: 17\n"
            "loop between regions 4,5 through arcs 6,8: 3 / 12 crossings per side\n"
            "loop between regions 7,9 through arcs 14,18: 7 / 8 crossings per side",
        ),
        # one loop on each inner strand whose gap sequence has two runs
        "a(1,2)^3 a(2,3) a(3,4)^3 a(4,5)^3": (
            '{"regions": 12, "loops": [{"regions": [4, 5], "arcs": [6, 7], '
            '"crossings_side_A": 3, "crossings_side_B": 7}, {"regions": [5, 6], '
            '"arcs": [8, 11], "crossings_side_A": 4, "crossings_side_B": 6}, '
            '{"regions": [6, 9], "arcs": [14, 17], "crossings_side_A": 3, '
            '"crossings_side_B": 7}]}',
            "regions: 12\n"
            "loop between regions 4,5 through arcs 6,7: 3 / 7 crossings per side\n"
            "loop between regions 5,6 through arcs 8,11: 4 / 6 crossings per side\n"
            "loop between regions 6,9 through arcs 14,17: 3 / 7 crossings per side",
        ),
        # connected_sum_words(parse_braid("a(2,4) a(1,4) a(3,4)"),
        #     parse_braid("a(1,2) a(1,2) a(2,3) a(3,4) a(1,2)"), shuffle=(1, 1, 0, 1, 1, 1, 0, 0))
        "a(4,5)^2 a(2,4) a(5,6) a(6,7) a(4,5) a(1,4) a(3,4)": (
            '{"regions": 16, "loops": [{"regions": [12, 14], "arcs": [23, 24], '
            '"crossings_side_A": 2, "crossings_side_B": 12}, {"regions": [14, 15], '
            '"arcs": [26, 27], "crossings_side_A": 1, "crossings_side_B": 13}]}',
            "regions: 16\n"
            "loop between regions 12,14 through arcs 23,24: 2 / 12 crossings per side\n"
            "loop between regions 14,15 through arcs 26,27: 1 / 13 crossings per side",
        ),
    }

    @pytest.mark.parametrize("word", sorted(GOLDEN))
    def test_golden_output(self, word):
        as_json, text = self.GOLDEN[word]
        assert run("prime-scan", "--json", word).output == as_json + "\n"
        assert run("prime-scan", word).output == text + "\n"

    def test_oversized_expansion_is_usage_error(self):
        # 1,000 letters, inside the parse caps, would draw 1,997,000 crossings
        result = run("prime-scan", "a(1,1000)^1000")
        assert result.exit_code == 2
        message = f"error: diagram would have 1997000 crossings; the cap is {MAX_LETTERS}"
        assert message in result.output
        assert "Traceback" not in result.output


class TestVerifyTable:
    def test_bundled_data_all_green(self):
        result = run("verify-table")
        assert result.exit_code == 0
        assert "34/34 word rows verified" in result.output
        assert "8 basket-only rows skipped" in result.output

    def test_json_row_detail(self):
        payload = json.loads(run("verify-table", "--json").output)
        assert payload["failures"] == 0
        by_name = {r["name"]: r for r in payload["rows"]}
        assert by_name["3_1"]["status"] == "ok"
        assert by_name["m(10_145)"]["status"] == "skipped"

    def test_rows_write_no_witness_letters(self, monkeypatch):
        # a row reads the staircase witness's inf and truth, never its letters
        rows = [r for r in json.loads(
            resources.files("espalier.data").joinpath("table1.json").read_text())
            if r["kind"] == "staircase"]
        expected = [cli.verify_row(r) for r in rows]
        assert len(rows) == 34 and all(r["ok"] for r in expected)

        def no_letters(blocks):
            raise AssertionError("witness letters written")

        monkeypatch.setattr(garside, "_chains", no_letters)
        assert [cli.verify_row(r) for r in rows] == expected

    def test_table_layer_imports_without_click(self):
        # the benchmark's `table` workload calls cli.verify_row
        assert cli.verify_row is table.verify_row
        src = os.path.dirname(os.path.dirname(table.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, espalier.table; sys.exit('click' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_malformed_data_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("verify-table", "--data", str(path)).exit_code == 2

    def test_wrong_reference_polynomial_fails_the_row(self, tmp_path):
        bad = [{"name": "fake", "source_row": "Table 1", "kind": "staircase",
                "braid": {"n": 2, "word": "a1^3"},
                "alexander": {"min_deg": 0, "coeffs": [7]},
                "alexander_provenance": "doctored"}]
        path = tmp_path / "table.json"
        path.write_text(json.dumps(bad))
        result = run("verify-table", "--data", str(path))
        assert result.exit_code == 1
        assert "FAILED" in result.output

    def test_failure_reasons(self, tmp_path):
        # each row fails one check before the Alexander polynomial is read
        cases = [("neg", 2, "a1^-3", "word is not BKL-positive"),
                 ("link", 2, "a1^2", "closure is not a knot"),
                 ("flat", 4, "a(2,3)^2 a(2,4) a(1,2) a(2,3)", "summit infimum is 0")]
        rows = [{"name": name, "kind": "staircase", "braid": {"n": n, "word": word},
                 "alexander": {"min_deg": 0, "coeffs": [1]}} for name, n, word, _ in cases]
        path = tmp_path / "table.json"
        path.write_text(json.dumps(rows))
        result = run("verify-table", "--data", str(path))
        assert result.exit_code == 1
        lines = result.output.splitlines()
        payload = run("verify-table", "--data", str(path), "--json")
        assert payload.exit_code == 1
        by_name = {r["name"]: r for r in json.loads(payload.output)["rows"]}
        for name, _, _, reason in cases:
            assert f"{name}: FAILED ({reason})" in lines
            assert by_name[name] == {"name": name, "status": "FAILED", "reason": reason}

    @pytest.mark.parametrize("data, message", [
        ({"a": 1}, "is not a list of rows"),
        ([{"kind": "staircase"}], "row 1 of the knot data has no string 'name'"),
    ])
    def test_data_that_is_no_list_of_named_rows_is_usage_error(self, tmp_path, data, message):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(data))
        result = run("verify-table", "--data", str(path))
        assert_clean_usage_error(result, message)
        assert len(result.output.splitlines()) == 1, result.output


class TestOneClosureWalkPerWord:
    """A word's closure permutation is walked once, however many checks read
    its component count.  garside binds its own _cycles, so the counter on
    braid._cycles sees closure walks only."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        walk = braid._cycles
        monkeypatch.setattr(braid, "_cycles", lambda images: calls.append(1) or walk(images))
        return calls

    def test_reading_twice_walks_once(self, walks):
        w = parse_braid("s1 s2 s1^-1", 3)
        assert w.components == w.components == 2
        assert len(walks) == 1

    def test_one_walk_per_table_row(self, walks):
        rows = [r for r in table.load_table() if r["kind"] == "staircase"]
        assert len(rows) == 34
        for row in rows:
            walks.clear()
            assert table.verify_row(row)["ok"], row["name"]
            assert len(walks) == 1, row["name"]

    @pytest.mark.parametrize("args", [
        ["cable", "a1^3 a2 a1^3 a2", "--p", "2", "--q", "5", "--verify"],
        ["homogenize", "s1^-1 s2^3", "--espalier", "n=3; edges=(1,2),(2,3)", "--verify"],
    ])
    def test_verify_walks_input_and_output_once_each(self, walks, args):
        result = run(*args)
        assert result.exit_code == 0, result.output
        assert len(walks) == 2


# --- bad input fails cleanly: exit 2, an error line, no traceback ------------------


def assert_clean_usage_error(result, *fragments):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.startswith("error: "), result.output
    assert "Traceback" not in result.output
    for fragment in fragments:
        assert fragment in result.output


WORD_COMMANDS = st.sampled_from(["parse", "normal-form", "staircase", "alexander", "genus"])


@st.composite
def over_cap_words(draw):
    """Braid text exceeding the letter or the strand cap of parse_braid."""
    kind = draw(st.sampled_from(["exponent", "split", "index", "band"]))
    if kind == "exponent":
        sign = draw(st.sampled_from(["", "-"]))
        return f"s1^{sign}{draw(st.integers(MAX_LETTERS + 1, 10**30))}"
    if kind == "split":  # every run under the cap, the total over it
        first = draw(st.integers(1, MAX_LETTERS))
        return f"a1^{first} a(1,3)^-{MAX_LETTERS + 1 - first}"
    if kind == "index":
        return f"a1 s{draw(st.integers(MAX_STRANDS, 10**30))}"
    return f"a(1,{draw(st.integers(MAX_STRANDS + 1, 10**30))})"


@settings(max_examples=40, deadline=None)
@given(WORD_COMMANDS, over_cap_words())
def test_word_over_a_cap_is_usage_error(command, word):
    assert_clean_usage_error(run(command, word))


@settings(max_examples=20, deadline=None)
@given(WORD_COMMANDS, st.integers(MAX_STRANDS + 1, 10**30))
def test_declared_strands_over_the_cap_is_usage_error(command, strands):
    assert_clean_usage_error(run(command, "s1", "--strands", str(strands)), "cap")


GOOD_ROW = {"name": "3_1", "source_row": "Table 1", "kind": "staircase",
            "braid": {"n": 2, "word": "a1^3"},
            "alexander": {"min_deg": -1, "coeffs": [1, -1, 1]}}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# every field verify-table reads, with what a well-formed row holds there
ROW_FIELDS = {
    ("name",): lambda v: isinstance(v, str),
    ("kind",): lambda v: v in ("staircase", "basket-only"),
    ("braid",): lambda v: False,
    ("braid", "word"): lambda v: isinstance(v, str),
    ("braid", "n"): _is_int,
    ("alexander",): lambda v: False,
    ("alexander", "min_deg"): _is_int,
    ("alexander", "coeffs"): lambda v: isinstance(v, list) and all(map(_is_int, v)),
}

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


def run_table(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
        return run("verify-table", "--data", path)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ROW_FIELDS)), st.booleans(), JUNK)
def test_malformed_table_row_is_usage_error_naming_the_row(path, delete, junk):
    row = copy.deepcopy(GOOD_ROW)
    *parents, key = path
    holder = row
    for parent in parents:
        holder = holder[parent]
    if delete:
        del holder[key]
    else:
        assume(not ROW_FIELDS[path](junk))
        holder[key] = junk
    assert_clean_usage_error(run_table([GOOD_ROW, row]), "row 2")


def test_table_row_missing_braid_names_the_row():
    row = {k: v for k, v in GOOD_ROW.items() if k != "braid"}
    row["name"] = "no_braid"
    assert_clean_usage_error(run_table([row]), "row 1 ('no_braid')", "braid.word")


def test_table_row_with_non_integer_n_names_the_row():
    row = copy.deepcopy(GOOD_ROW)
    row["braid"]["n"] = "two"
    assert_clean_usage_error(run_table([row]), "row 1 ('3_1')", "braid.n")


def test_table_row_with_unknown_kind_names_the_row():
    row = copy.deepcopy(GOOD_ROW)
    row["kind"] = "staircse"
    assert_clean_usage_error(run_table([GOOD_ROW, row]), "row 2 ('3_1')", "'kind'")


def test_table_row_with_bad_word_names_the_row():
    row = copy.deepcopy(GOOD_ROW)
    row["braid"]["word"] = "a(2,1)"
    assert_clean_usage_error(run_table([row]), "row 1 ('3_1')", "i < j")


def test_parse_of_a_huge_exponent_is_immediate_usage_error():
    assert_clean_usage_error(run("parse", "a1^100000000"), str(MAX_LETTERS))


def test_espalier_with_a_huge_vertex_count_is_usage_error():
    assert_clean_usage_error(run("classify", "s1", "--espalier", f"n={'9' * 5000}; edges=(1,2)"),
                             "too large")
    assert_clean_usage_error(run("classify", "s1", "--espalier",
                                 f"n={MAX_STRANDS + 1}; edges=(1,2)"), "cap")


def test_malformed_espalier_edge_lists_are_usage_errors():
    for spec, message in (("n=2;edges=(1,2)(1,2)", "single commas"),
                          ("n=2;edges=,(1,2),", "single commas"),
                          ("n=2;edges=(1,2),(2,1)", "edge (1,2) is listed twice")):
        assert_clean_usage_error(run("classify", "s1", "--espalier", spec), message)


def test_table_with_a_huge_coefficient_is_usage_error(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps([GOOD_ROW]).replace("[1, -1, 1]", f"[1, {'7' * 5000}, 1]"))
    assert_clean_usage_error(run("verify-table", "--data", str(path)), "cannot read knot data file")


def test_unwritable_svg_path_is_usage_error(tmp_path):
    target = tmp_path / "missing" / "fence.svg"
    assert_clean_usage_error(run("parse", "s1", "--svg", str(target)), "cannot write")


@pytest.mark.parametrize("p,q,fragment", [
    (2, MAX_LETTERS - 5, f"{MAX_LETTERS + 1} letters"),  # s1^3 cables to q + 6 letters
    (2, 300001, "300007 letters"),
    (1000000, 3, "2000000 strands"),
])
def test_cable_past_a_cap_is_usage_error(p, q, fragment):
    assert_clean_usage_error(run("cable", "s1^3", "--p", str(p), "--q", str(q)), fragment, "cap")


def test_cable_at_the_letter_cap_is_built():
    result = run("cable", "s1^3", "--p", "2", "--q", str(MAX_LETTERS - 7), "--json")
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["length"] == MAX_LETTERS - 1


# the 8_19 word cables to 3 * 8 + 2q letters under (3, q)
def test_p3_cable_past_the_letter_cap_is_usage_error():
    result = run("cable", "a1^3 a2 a1^3 a2", "--p", "3", "--q", "49990")
    assert_clean_usage_error(result, f"{MAX_LETTERS + 4} letters", "cap")


def test_p3_cable_at_the_letter_cap_is_built():
    result = run("cable", "a1^3 a2 a1^3 a2", "--p", "3", "--q", "49988", "--json")
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["length"] == MAX_LETTERS


@pytest.mark.parametrize("left,right,fragment", [
    ("a(1,1000)", "a(1,1000)", "1999 strands"),
    ("s1^60001", "s1^60001", "120002 letters"),
])
def test_connected_sum_past_a_cap_is_usage_error(left, right, fragment):
    result = run("connect-sum", "--left", left, "--right", right, "--force")
    assert_clean_usage_error(result, fragment, "cap")


# one library call per command, made to raise as if memory or the recursion limit ran out
EXHAUSTED_CALLS = [
    ("parse", "espalier.cli.parse_braid", MemoryError, "out of memory in parse"),
    ("normal-form", "espalier.garside.left_normal_form", RecursionError,
     "recursion limit in normal-form"),
    ("staircase", "espalier.garside.is_staircase", MemoryError, "out of memory in staircase"),
    ("classify", "espalier.trees.find_espalier", RecursionError, "recursion limit in classify"),
    ("espaliers", "espalier.trees.enumerate_espaliers", MemoryError, "out of memory in espaliers"),
    ("homogenize", "espalier.surface.homogenize", RecursionError,
     "recursion limit in homogenize"),
    ("cable", "espalier.cabling.cable_staircase", MemoryError, "out of memory in cable"),
    ("connect-sum", "espalier.compose.connected_sum_words", RecursionError,
     "recursion limit in connect-sum"),
    ("alexander", "espalier.invariants.alexander_of_closure", MemoryError,
     "out of memory in alexander"),
    ("genus", "espalier.surface.genus_of_knot_closure", RecursionError, "recursion limit in genus"),
    ("prime-scan", "espalier.diagram.visual_primeness_report", RecursionError,
     "recursion limit in prime-scan"),
    ("verify-table", "espalier.table.verify_row", MemoryError, "out of memory in verify-table"),
]
# what each command runs on, where that is not the one word s1^3
EXHAUSTED_ARGS = {
    "espaliers": ["--n", "3"],
    "homogenize": ["s1^-1", "--espalier", "n=2; edges=(1,2)"],
    "cable": ["s1^3", "--p", "2", "--q", "3"],
    "connect-sum": ["--left", "s1^3", "--right", "s1^3"],
    "verify-table": [],
}


@pytest.mark.parametrize("command,target,error,fragment", EXHAUSTED_CALLS)
def test_exhausted_resources_are_usage_errors(monkeypatch, command, target, error, fragment):
    # nothing is allocated or recursed for real
    def exhausted(*args, **kwargs):
        raise error()

    monkeypatch.setattr(target, exhausted)
    assert_clean_usage_error(run(command, *EXHAUSTED_ARGS.get(command, ["s1^3"])), fragment)


def test_exhausted_resource_calls_cover_every_command():
    assert {command for command, *_ in EXHAUSTED_CALLS} == set(main.commands)


# --- small random input to every subcommand: exit 0, 1 or 2, never a traceback ---

EXPONENTS = st.sampled_from(["", "", "^2", "^3", "^-1", "^-2", "^0"])
JUNK = st.sampled_from(["e", "x", "(", "^", "a(1,", "s1^", "^-", "a(3,1)", "s0", "a(2,9)"])
KNOTS = ["a1^3", "s1^5", "a1^3 a2 a1^3 a2", "a(1,4) a(3,4)^3 a(2,3)", "s1 s2^-1 s1 s2^-1"]
HOMOGENEOUS = [("s1^-1", "n=2; edges=(1,2)"), ("a(1,3)^-1 a(2,3)^3", "n=3; edges=(1,3),(2,3)"),
               ("s1^3 s2^-1", "n=3; edges=(1,2),(2,3)")]


@st.composite
def token_words(draw):
    """Up to 12 terms on at most 8 strands; one word in four carries junk."""
    junk = draw(st.integers(0, 3)) == 0
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        if junk and draw(st.booleans()):
            terms.append(draw(JUNK))
            continue
        i = draw(st.integers(1, 7))
        j = draw(st.integers(i + 1, 8))
        name = f"s{i}" if j == i + 1 and draw(st.booleans()) else f"a({i},{j})"
        terms.append(name + draw(EXPONENTS))
    return " ".join(terms)


def knot_words():
    return st.one_of(st.sampled_from(KNOTS), token_words())


VALID_ESPALIERS = [str(t) for n in range(1, 6) for t in enumerate_espaliers(n)]


@st.composite
def espalier_specs(draw):
    if draw(st.integers(0, 3)):
        return draw(st.sampled_from(VALID_ESPALIERS))
    edges = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=8))
    return f"n={draw(st.integers(0, 8))}; edges=" + ",".join(f"({i},{j})" for i, j in edges)


@st.composite
def invocations(draw):
    """One command line for a randomly chosen subcommand."""
    command = draw(st.sampled_from(
        ["parse", "normal-form", "staircase", "alexander", "genus", "prime-scan", "classify",
         "espaliers", "homogenize", "cable", "connect-sum", "verify-table"]))
    json_flag = ["--json"] if draw(st.booleans()) else []
    verify_flag = ["--verify"] if draw(st.booleans()) else []
    if command == "espaliers":
        return [command, "--n", str(draw(st.integers(-1, 7)))] + json_flag
    if command == "verify-table":
        return [command] + json_flag
    if command == "connect-sum":
        args = [command, "--left", draw(knot_words()), "--right", draw(knot_words())]
        if draw(st.booleans()):
            args += ["--shuffle", draw(st.text("LRLRLRlrX", max_size=24))]
        if draw(st.booleans()):
            args.append("--force")
        return args + json_flag
    if command == "homogenize" and draw(st.booleans()):
        word, spec = draw(st.sampled_from(HOMOGENEOUS))
    else:
        word, spec = draw(knot_words()), draw(espalier_specs())
    args = [command, word] + json_flag
    if draw(st.integers(0, 3)) == 0:
        args += ["--strands", str(draw(st.integers(0, 8)))]
    if command == "homogenize" or (command == "classify" and draw(st.booleans())):
        args += ["--espalier", spec]
    if command == "cable":
        args += ["--p", str(draw(st.integers(1, 4))), "--q", str(draw(st.integers(0, 12)))]
    if command in ("homogenize", "cable"):
        args += verify_flag
    return args


@st.composite
def table_rows(draw):
    """A one-row knot table: a random word and a random reference polynomial."""
    return [{"name": "fuzz", "source_row": "Table 1", "kind": "staircase",
             "braid": {"n": draw(st.integers(1, 8)), "word": draw(token_words())},
             "alexander": {"min_deg": draw(st.integers(-3, 3)),
                           "coeffs": draw(st.lists(st.integers(-3, 3), max_size=5))}}]


def assert_no_traceback(result):
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2), result.output
    assert "Traceback" not in result.output
    if result.exit_code == 1:
        assert "FAILED" in result.output or '"verified": false' in result.output, result.output


@settings(max_examples=300, deadline=None)
@given(invocations(), table_rows())
def test_small_random_input_never_escapes(args, rows):
    if args[0] == "verify-table":
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "table.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(rows, handle)
            assert_no_traceback(run(*args, "--data", path))
    else:
        assert_no_traceback(run(*args))
