import random

import pytest

from espalier.braid import BandGenerator, BraidWord, parse_braid
from espalier.errors import InvalidEspalier, StrandMismatch
from espalier.trees import (
    Kind,
    _crossing_pair,
    classify,
    enumerate_espaliers,
    find_espalier,
    format_espalier,
    new_espalier,
    parse_espalier,
)
from espalier.errors import ParseError
from oracles import brute_force_espaliers, crossing_pair, linear

SAMPLE_EDGES = [(1, 3), (1, 4), (2, 3), (4, 5)]
SAMPLE_WORD = "a(1,3)^2 a(2,3)^2 a(4,5)^2 a(1,4)^-3 a(4,5)^2 a(2,3) a(1,3) a(4,5)"


class TestValidation:
    def test_sample_espalier_is_valid(self):
        tree = new_espalier(5, SAMPLE_EDGES)
        assert tree.edges == ((1, 3), (1, 4), (2, 3), (4, 5))

    def test_crossing_pair_reported(self):
        with pytest.raises(InvalidEspalier, match=r"\(1, 3\) and \(2, 4\) cross"):
            new_espalier(4, [(1, 3), (2, 4), (1, 2)])

    def test_not_spanning(self):
        with pytest.raises(InvalidEspalier, match="exactly 2"):
            new_espalier(3, [(1, 2)])

    def test_cycle(self):
        with pytest.raises(InvalidEspalier, match="cycle"):
            new_espalier(4, [(1, 2), (2, 3), (1, 3)])

    def test_linear(self):
        for n in (1, 2, 7):
            assert new_espalier(n, [(k + 1, k) for k in range(n - 1, 0, -1)]) == linear(n)

    @pytest.mark.parametrize("n,edges,named", [
        (2, [(1, 2), (1, 2)], "(1,2)"),
        (2, [(1, 2), (2, 1)], "(1,2)"),
        (3, [(1, 2), (2, 3), (3, 2)], "(2,3)"),
    ])
    def test_repeated_edge_rejected(self, n, edges, named):
        with pytest.raises(InvalidEspalier) as info:
            new_espalier(n, edges)
        assert f"edge {named} is listed twice" in str(info.value)

    def test_crossing_pair_matches_every_pair_comparison(self):
        rng = random.Random(2611)
        crossed = 0
        for _ in range(3000):
            n = rng.randint(2, 12)
            # chords may share endpoints, nest, and repeat
            chords = [
                tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(rng.randint(0, n))
            ]
            found = _crossing_pair(chords)
            assert (found is None) == (crossing_pair(chords) is None), chords
            if found is not None:
                crossed += 1
                (i, j), (k, l) = found
                assert {(i, j), (k, l)} <= set(chords) and i < k < j < l, (chords, found)
        assert 300 < crossed < 2700


class TestClassify:
    def test_sample_word_is_t_homogeneous(self):
        outcome = classify(new_espalier(5, SAMPLE_EDGES), parse_braid(SAMPLE_WORD))
        assert outcome.kind is Kind.T_HOMOGENEOUS
        assert outcome.signs == {(1, 3): 1, (1, 4): -1, (2, 3): 1, (4, 5): 1}

    def test_strictly_positive_artin_word(self):
        w = parse_braid("s1 s2 s3 s1 s2", 4)
        assert classify(linear(4), w).kind is Kind.T_POSITIVE

    def test_positive_but_not_strict_is_not_t_word(self):
        outcome = classify(linear(3), parse_braid("s1^4", 3))
        assert outcome.kind is Kind.NOT_T_WORD
        assert "never appears" in outcome.reason

    def test_mixed_signs_on_one_edge(self):
        outcome = classify(linear(2), parse_braid("s1 s1^-1", 2))
        assert outcome.kind is Kind.NOT_T_WORD
        assert "both signs" in outcome.reason

    def test_foreign_letter(self):
        outcome = classify(linear(3), parse_braid("a(1,3)", 3))
        assert outcome.kind is Kind.NOT_T_WORD
        assert "not a generator" in outcome.reason

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatch):
            classify(linear(3), parse_braid("s1", 2))

    def test_linear_t_positive_means_strictly_positive(self):
        # TPositive against the path iff every Artin generator occurs, positively
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(2, 6)
            letters = [BandGenerator(k, k + 1) for k in range(1, n)]
            letters += [
                BandGenerator(i, i + 1) for i in (rng.randint(1, n - 1) for _ in range(rng.randint(0, 6)))
            ]
            rng.shuffle(letters)
            word = BraidWord(n, tuple(letters))
            outcome = classify(linear(n), word)
            assert outcome.kind is Kind.T_POSITIVE
            strictly_positive = word.is_positive and all(
                g.j == g.i + 1 for g in word.letters
            ) and {g.edge for g in word.letters} == set(linear(n).edges)
            assert strictly_positive

    def test_letter_order_irrelevant(self):
        rng = random.Random(7)
        tree = new_espalier(4, [(1, 2), (2, 4), (2, 3)])
        letters = [BandGenerator(*e, s) for e, s in
                   [((1, 2), 1), ((2, 4), -1), ((2, 3), 1), ((1, 2), 1), ((2, 4), -1)]]
        reference = classify(tree, BraidWord(4, tuple(letters)))
        for _ in range(10):
            rng.shuffle(letters)
            outcome = classify(tree, BraidWord(4, tuple(letters)))
            assert outcome.kind == reference.kind and outcome.signs == reference.signs


class TestEnumeration:
    def test_counts_match_brute_force(self):
        for n in range(1, 7):
            assert {t.edges for t in enumerate_espaliers(n)} == brute_force_espaliers(n)

    def test_known_counts(self):
        assert [len(enumerate_espaliers(n)) for n in range(1, 7)] == [1, 1, 3, 12, 55, 273]

    def test_closed_form_cross_check(self):
        # non-crossing trees are counted by binom(3n-3, n-1)/(2n-1)
        from math import comb

        for n in range(1, 8):
            assert len(enumerate_espaliers(n)) == comb(3 * n - 3, n - 1) // (2 * n - 1)

    def test_deterministic_and_duplicate_free(self):
        seq = [t.edges for t in enumerate_espaliers(5)]
        assert seq == [t.edges for t in enumerate_espaliers(5)]
        assert len(seq) == len(set(seq))

    def test_bound(self):
        with pytest.raises(InvalidEspalier, match="bound"):
            enumerate_espaliers(11)


class TestFindEspalier:
    def test_sample_word_support(self):
        found = find_espalier(parse_braid(SAMPLE_WORD))
        assert found is not None
        tree, outcome = found
        assert tree == new_espalier(5, SAMPLE_EDGES)
        assert outcome.kind is Kind.T_HOMOGENEOUS

    def test_positive_artin_power(self):
        tree, outcome = find_espalier(parse_braid("s1^3", 2))
        assert tree == linear(2)
        assert outcome.kind is Kind.T_POSITIVE

    def test_crossing_support(self):
        assert find_espalier(parse_braid("a(1,3) a(2,4)", 4)) is None

    def test_non_spanning_support(self):
        assert find_espalier(parse_braid("s1^4", 3)) is None

    def test_tree_support_with_mixed_signs(self):
        # support forces the espalier even when classification then fails
        tree, outcome = find_espalier(parse_braid("s1 s1^-1", 2))
        assert tree == linear(2)
        assert outcome.kind is Kind.NOT_T_WORD


class TestTextFormat:
    def test_round_trip(self):
        tree = new_espalier(5, SAMPLE_EDGES)
        assert parse_espalier(format_espalier(tree)) == tree

    def test_whitespace_insensitive(self):
        assert parse_espalier(" n = 3 ;  edges = ( 1 , 2 ) , (2,3) ") == linear(3)

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_espalier("n=3; edges=(1,2),(2,x)")

    # the grammar is ASCII: other Unicode decimal digits and spaces are rejected
    @pytest.mark.parametrize("text,message", [
        ("n=\u0663; edges=(1,2),(2,3)", "not an espalier spec"),
        ("n=3;\u00a0edges=(1,2),(2,3)", "not an espalier spec"),
        ("n=3; edges=(1,\u0662),(2,3)", "single commas"),
        ("n=3; edges=(1,2),\u2003(2,3)", "single commas"),
    ])
    def test_non_ascii_digits_and_spaces_are_rejected(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_espalier(text)

    @pytest.mark.parametrize(
        "edges", [",(1,2),(2,3)", "(1,2),(2,3),", "(1,2),,(2,3)", "(1,2)(2,3)"]
    )
    def test_edges_need_exactly_one_comma_between_them(self, edges):
        with pytest.raises(ParseError, match="single commas"):
            parse_espalier(f"n=3; edges={edges}")

    def test_repeated_edge_in_spec_rejected(self):
        with pytest.raises(InvalidEspalier, match=r"edge \(1,2\) is listed twice"):
            parse_espalier("n=3; edges=(1,2),(2,3),(2,1)")
