import itertools
import random

import pytest

from espalier.braid import BraidWord, format_braid, parse_braid
from espalier.compose import connected_sum_words, espalier_sum
from espalier.errors import MultiComponentClosure, ToolkitError
from espalier.invariants import alexander_of_closure
from espalier.surface import euler_characteristic, genus_of_knot_closure
from espalier.trees import Kind, classify, enumerate_espaliers, new_espalier
from oracles import linear, random_t_positive_word


class TestEmbeddings:
    # an empty word on the other side shows one embedding alone; its closure
    # is an unlink, hence force=True
    def test_left_keeps_indices(self):
        w = parse_braid("a(1,3) s1^-1", 3)
        out = connected_sum_words(w, BraidWord(4), force=True)
        assert out.strands == 6 and out.letters == w.letters

    def test_right_shifts_indices(self):
        out = connected_sum_words(BraidWord(2), parse_braid("s1", 2), force=True)
        assert out == parse_braid("a(2,3)", 3)

    def test_right_preserves_signs(self):
        out = connected_sum_words(BraidWord(4), parse_braid("a(1,3)^-1", 3), force=True)
        assert out.strands == 6
        assert out.letters[0].edge == (4, 6) and out.letters[0].sign == -1


class TestConnectedSum:
    def test_granny(self):
        out = connected_sum_words(parse_braid("s1^3", 2), parse_braid("s1^3", 2))
        assert format_braid(out) == "a(1,2)^3 a(2,3)^3"
        assert out.components == 1

    def test_alexander_multiplicative(self):
        a = parse_braid("s1^3", 2)
        b = parse_braid("a1^3 a2 a1^3 a2", 3)
        total = alexander_of_closure(connected_sum_words(a, b))
        assert total.equal_up_to_units(alexander_of_closure(a) * alexander_of_closure(b))

    def test_genus_addition(self):
        a = parse_braid("s1^3", 2)
        b = parse_braid("s1^5", 2)
        out = connected_sum_words(a, b)
        assert euler_characteristic(out) == euler_characteristic(a) + euler_characteristic(b) - 1
        assert genus_of_knot_closure(out) == genus_of_knot_closure(a) + genus_of_knot_closure(b)

    def test_link_inputs_soft_rejected(self):
        hopf = parse_braid("s1^2", 2)
        with pytest.raises(MultiComponentClosure):
            connected_sum_words(hopf, parse_braid("s1^3", 2))
        forced = connected_sum_words(hopf, parse_braid("s1^3", 2), force=True)
        assert forced.strands == 3

    def test_shuffle_same_letter_multiset(self):
        a = parse_braid("s1^3", 2)
        b = parse_braid("s1^3", 2)
        plain = connected_sum_words(a, b)
        shuffled = connected_sum_words(a, b, shuffle=[0, 1, 0, 1, 0, 1])
        assert sorted(shuffled.letters) == sorted(plain.letters)
        assert dict(shuffled.edge_tally) == dict(plain.edge_tally)
        assert euler_characteristic(shuffled) == euler_characteristic(plain)
        # component count is NOT an interleaving invariant: this shuffle gives
        # (s1 s2)^3, whose closure is the 3-component (3,3) torus link
        assert plain.components == 1
        assert shuffled.components == 3

    def test_bad_shuffle_rejected(self):
        with pytest.raises(ToolkitError, match="shuffle"):
            connected_sum_words(parse_braid("s1^3", 2), parse_braid("s1^3", 2), shuffle=[0, 1])


class TestEspalierSum:
    def test_linear_sums(self):
        assert espalier_sum(linear(2), linear(2)) == linear(3)
        assert espalier_sum(linear(4), linear(6)) == linear(9)

    def test_sample_espalier_extended(self):
        tree = new_espalier(5, [(1, 3), (1, 4), (2, 3), (4, 5)])
        out = espalier_sum(tree, linear(2))
        assert out.edges == ((1, 3), (1, 4), (2, 3), (4, 5), (5, 6))

    def test_result_always_valid(self):
        # espalier_sum skips validation; the validating constructor must
        # accept every sum unchanged (72 espaliers with n <= 5, 5,184 pairs)
        trees = [t for n in range(1, 6) for t in enumerate_espaliers(n)]
        assert len(trees) ** 2 == 5184
        for t1, t2 in itertools.product(trees, repeat=2):
            out = espalier_sum(t1, t2)
            assert out.vertices == t1.vertices + t2.vertices - 1
            assert new_espalier(out.vertices, out.edges) == out


class TestPositivityTransport:
    def test_t_positive_sum_classifies(self):
        rng = random.Random(52)
        for _ in range(30):
            t1, a = random_t_positive_word(rng)
            t2, b = random_t_positive_word(rng)
            word = connected_sum_words(a, b)
            outcome = classify(espalier_sum(t1, t2), word)
            assert outcome.kind is Kind.T_POSITIVE

    def test_t_homogeneous_sum_inherits_signs(self):
        t1 = linear(2)
        a = parse_braid("s1^-1", 2)
        t2 = linear(3)
        b = parse_braid("s1^2 s2^3", 3)
        word = connected_sum_words(a, b, force=True)
        outcome = classify(espalier_sum(t1, t2), word)
        assert outcome.kind is Kind.T_HOMOGENEOUS
        assert outcome.signs == {(1, 2): -1, (2, 3): 1, (3, 4): 1}
