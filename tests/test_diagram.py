import random

import pytest

from espalier.braid import MAX_LETTERS, parse_braid
from espalier.compose import connected_sum_words
from espalier.diagram import visual_primeness_report
from espalier.errors import ToolkitError
from oracles import (
    artin_letters,
    artin_word,
    component_sizes,
    cyclic_rotations,
    free_reduce,
    random_knot_word,
    random_word,
    reference_diagram,
    reference_two_loops,
)

HIDDEN_COMPOSITE = "a(1,2) a(2,3) a(1,2) a(2,3) a(2,4)^3"


class TestConstruction:
    def test_single_crossing(self):
        d = reference_diagram(parse_braid("s1", 2))
        assert len(d["signs"]) == 1
        assert len(d["arcs"]) == 2
        assert d["regions"] == 3
        rotation = {slot: idx for idx, ends in enumerate(d["arcs"]) for c, slot in ends if c == 0}
        assert sorted(rotation) == ["ne", "nw", "se", "sw"]
        assert d["signs"] == (1,)
        assert visual_primeness_report(parse_braid("s1", 2)).regions == 3

    def test_trefoil_regions(self):
        assert visual_primeness_report(parse_braid("s1^3", 2)).regions == 5

    def test_hidden_composite_has_fifteen_regions(self):
        word = parse_braid(HIDDEN_COMPOSITE, 4)
        assert len(artin_letters(word)) == 13  # band picture: each a(2,4) draws 3 crossings
        assert visual_primeness_report(word).regions == 15

    def test_free_reduced_expansion(self):
        w = parse_braid("a(1,3)^2", 3)
        literal = visual_primeness_report(w)
        reduced = visual_primeness_report(free_reduce(artin_word(w)))
        assert literal.regions == 6 + 2
        assert reduced.regions == 4 + 2

    def test_empty_rejected(self):
        with pytest.raises(ToolkitError, match="no crossings"):
            visual_primeness_report(parse_braid("", strands=2))

    def test_unused_strand_rejected(self):
        with pytest.raises(ToolkitError, match="cross nothing"):
            visual_primeness_report(parse_braid("s1", strands=3))

    def test_split_diagram_rejected(self):
        with pytest.raises(ToolkitError, match="split"):
            visual_primeness_report(parse_braid("s1 s3", 4))

    def test_crossing_cap_is_checked_before_expansion(self):
        # 1,000 letters expanding to 1,997,000 crossings; nothing is expanded
        word = parse_braid("a(1,1000)^1000")
        with pytest.raises(ToolkitError, match=f"1997000 crossings; the cap is {MAX_LETTERS}"):
            visual_primeness_report(word)

    def test_gap_criterion_matches_union_find(self):
        # with every strand touched, the crossing graph (consecutive crossings
        # along each strand) is connected exactly when every gap
        # 1..n-1 carries a crossing, and only then is the diagram accepted;
        # the union-find is the oracles', not the library's
        rng = random.Random(4405)
        outcomes = {True: 0, False: 0}
        while min(outcomes.values()) < 60:
            n = rng.randint(2, 8)
            word = random_word(rng, n, rng.randint(1, 6))
            letters = artin_letters(word)
            strands = [[] for _ in range(n + 1)]
            for k, (i, _) in enumerate(letters):
                strands[i].append(k)
                strands[i + 1].append(k)
            if not all(strands[1 : n + 1]):
                continue
            links = [pair for row in strands[1 : n + 1] for pair in zip(row, row[1:])]
            connected = len(component_sizes(len(letters), links)) == 1
            assert connected == all(any(i == gap for i, _ in letters) for gap in range(1, n))
            outcomes[connected] += 1
            if connected:
                visual_primeness_report(word)
            else:
                with pytest.raises(ToolkitError, match="split"):
                    visual_primeness_report(word)

    def test_euler_formula_on_random_words(self):
        rng = random.Random(41)
        tried = 0
        while tried < 40:
            n = rng.randint(2, 5)
            w = random_word(rng, n, rng.randint(1, 8))
            try:
                d = reference_diagram(w)
            except ToolkitError:
                continue
            tried += 1
            crossings = len(d["signs"])
            assert crossings - len(d["arcs"]) + d["regions"] == 2
            assert len(d["arcs"]) == 2 * crossings
            assert crossings == sum(2 * (g.j - g.i) - 1 for g in w.letters)
            assert visual_primeness_report(w).regions == d["regions"]


class TestTwoLoops:
    def test_hidden_composite_has_none(self):
        assert visual_primeness_report(parse_braid(HIDDEN_COMPOSITE, 4)).loops == ()

    def test_granny_braid_splits_three_three(self):
        loops = visual_primeness_report(parse_braid("s1^3 s2^3", 3)).loops
        assert loops
        assert any(l.crossings_side_a == 3 and l.crossings_side_b == 3 for l in loops)

    def test_trefoil_has_none(self):
        assert visual_primeness_report(parse_braid("s1^3", 2)).loops == ()

    def test_loop_count_rotation_stable(self):
        w = parse_braid("s1^3 s2^3", 3)
        counts = set()
        for rotated in cyclic_rotations(w):
            counts.add(len(visual_primeness_report(rotated).loops))
        assert len(counts) == 1


class TestReferenceScan:
    """The gap-sequence scan against the tuple-keyed diagram, its face trace
    and the per-pair union-find loop scan in tests/oracles.py."""

    REJECTED = [  # (word, strands, free-reduced first, message)
        ("", 2, False, "no crossings"),
        ("a(1,3) a(1,3)^-1", 3, True, "no crossings"),
        ("s1", 3, False, "cross nothing"),
        ("a(2,4)^2", 5, True, "cross nothing"),
        ("s1 s3", 4, False, "split"),
        ("a(1,2) a(3,5)^-1 a(1,2)", 5, True, "split"),
    ]

    @staticmethod
    def outcome(word):
        try:
            report = visual_primeness_report(word)
        except ToolkitError as exc:
            return "error", str(exc)
        assert len(report.loops) <= max(0, word.strands - 2)  # one per inner strand at most
        return report.regions, [(l.regions, l.arcs, l.crossings_side_a, l.crossings_side_b)
                                for l in report.loops]

    @staticmethod
    def reference(word):
        try:
            d = reference_diagram(word)
        except ToolkitError as exc:
            return "error", str(exc)
        return d["regions"], reference_two_loops(d)

    def test_matches_reference_on_seeded_words(self):
        rng = random.Random(4404)
        seen = {"no crossings": 0, "cross nothing": 0, "split": 0, "diagrams": 0, "loops": 0}
        for _ in range(2000):
            word = random_word(rng, rng.randint(2, 8), rng.randint(1, 20))
            # as written, then without the conjugator tails of the band expansion
            for variant in (word, free_reduce(artin_word(word))):
                got = self.outcome(variant)
                assert got == self.reference(variant), (str(word), str(variant))
                if got[0] == "error":
                    seen[next(key for key in seen if key in got[1])] += 1
                else:
                    seen["diagrams"] += 1
                    seen["loops"] += len(got[1])
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("text,n,reduced,message", REJECTED)
    def test_rejections_match_reference(self, text, n, reduced, message):
        word = parse_braid(text, n)
        if reduced:
            word = free_reduce(artin_word(word))
        got = self.outcome(word)
        assert got == self.reference(word)
        assert got[0] == "error" and message in got[1]

    def test_connected_sum_loop_separates_the_summands(self):
        # the shared strand of a plain sum meets the left word's crossings,
        # then the right word's: a loop with one summand on each side
        rng = random.Random(4406)
        for _ in range(300):
            a, b = random_knot_word(rng), random_knot_word(rng)
            report = visual_primeness_report(connected_sum_words(a, b))
            sides = sorted((len(artin_letters(a)), len(artin_letters(b))))
            assert any(
                [loop.crossings_side_a, loop.crossings_side_b] == sides for loop in report.loops
            ), (str(a), str(b))


class TestReport:
    def test_composite_but_visually_unreachable(self):
        # closure is a connected sum of trefoils, yet the scan finds nothing
        report = visual_primeness_report(parse_braid(HIDDEN_COMPOSITE, 4))
        assert report.regions == 15
        assert report.passes_quick_test
