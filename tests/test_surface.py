import random

import pytest

from espalier.braid import BraidWord, closure_components, parse_braid
from espalier.errors import HomogenizeError, MultiComponentClosure, ToolkitError
from espalier.invariants import alexander_of_closure
from espalier.surface import (
    euler_characteristic,
    genus_of_knot_closure,
    _leaf_peeling_order,
    homogenize,
    murasugi_decomposition,
)
from espalier.trees import Kind, classify, enumerate_espaliers, new_espalier
from oracles import concat, leaf_peeling_order, linear, random_t_homogeneous_word

SAMPLE_TREE = new_espalier(5, [(1, 3), (1, 4), (2, 3), (4, 5)])
# 14 letters: a(1,3)^2 a(2,3)^2 a(4,5)^2 a(1,4)^-3 a(4,5)^2 a(2,3) a(1,3) a(4,5)
SAMPLE_WORD = parse_braid("a(1,3)^2 a(2,3)^2 a(4,5)^2 a(1,4)^-3 a(4,5)^2 a(2,3) a(1,3) a(4,5)")


class TestEulerCharacteristic:
    def test_trefoil(self):
        w = parse_braid("s1^3", 2)
        assert euler_characteristic(w) == -1
        assert genus_of_knot_closure(w) == 1

    def test_band_picture_word(self):
        assert euler_characteristic(SAMPLE_WORD) == 5 - 14 == -9

    def test_empty_word(self):
        assert euler_characteristic(BraidWord(4)) == 4

    def test_genus_rejects_links(self):
        with pytest.raises(MultiComponentClosure):
            genus_of_knot_closure(parse_braid("s1^2", 2))

    def test_chi_additivity_under_concat(self):
        a = parse_braid("s1 s2", 3)
        b = parse_braid("a(1,3)^2", 3)
        assert euler_characteristic(concat(a, b)) == (
            euler_characteristic(a) + euler_characteristic(b) - 3
        )


class TestMurasugiDecomposition:
    def test_sample_summands(self):
        data = murasugi_decomposition(SAMPLE_TREE, SAMPLE_WORD)
        assert sorted(s.exponent_sum for s in data.summands) == [-3, 3, 3, 5]
        # canonical order peels the smallest available leaf edge first
        assert [s.edge for s in data.summands] == [(2, 3), (1, 3), (1, 4), (4, 5)]
        assert [s.exponent_sum for s in data.summands] == [3, 3, -3, 5]

    def test_two_bridge(self):
        data = murasugi_decomposition(linear(2), parse_braid("s1^3", 2))
        assert [(s.edge, s.exponent_sum) for s in data.summands] == [((1, 2), 3)]

    def test_exponent_counting(self):
        data = murasugi_decomposition(linear(3), parse_braid("s1^2 s2^4", 3))
        assert sorted(s.exponent_sum for s in data.summands) == [2, 4]

    def test_order_is_leaf_peeling(self):
        data = murasugi_decomposition(SAMPLE_TREE, SAMPLE_WORD)
        remaining = set(SAMPLE_TREE.edges)
        degree = {v: 0 for v in range(1, 6)}
        for i, j in remaining:
            degree[i] += 1
            degree[j] += 1
        for summand in data.summands:
            i, j = summand.edge
            assert degree[i] == 1 or degree[j] == 1
            remaining.remove(summand.edge)
            degree[i] -= 1
            degree[j] -= 1
        assert not remaining

    def test_peeling_order_matches_minimum_scan_on_every_small_espalier(self):
        for n in range(1, 9):
            for tree in enumerate_espaliers(n):
                assert _leaf_peeling_order(tree) == leaf_peeling_order(tree.edges, n), tree

    def test_peeling_order_matches_minimum_scan_on_large_espaliers(self):
        # edge (lo, m) plus non-crossing trees on lo..m-1 and m..hi
        def random_tree(rng, lo, hi, edges):
            if lo < hi:
                m = rng.randint(lo + 1, hi)
                edges.append((lo, m))
                random_tree(rng, lo, m - 1, edges)
                random_tree(rng, m, hi, edges)
            return edges

        rng = random.Random(4407)
        for _ in range(200):
            n = rng.randint(9, 40)
            tree = new_espalier(n, random_tree(rng, 1, n, []))
            assert _leaf_peeling_order(tree) == leaf_peeling_order(tree.edges, n), tree

    def test_summand_fields(self):
        data = murasugi_decomposition(linear(2), parse_braid("s1^3", 2))
        assert [(s.edge, s.exponent_sum) for s in data.summands] == [((1, 2), 3)]

    def test_rejects_non_t_words(self):
        with pytest.raises(ToolkitError):
            murasugi_decomposition(linear(3), parse_braid("a(1,3) s1 s2", 3))


class TestHomogenize:
    def test_single_negative_letter(self):
        out = homogenize(linear(2), parse_braid("s1^-1", 2))
        assert out == parse_braid("s1", 2)

    def test_mixed_word(self):
        # the closure here is a 2-component link, so the oracle compares the
        # component count and the raw Burau determinant up to units
        before = parse_braid("s1^-1 s2^2", 3)
        out = homogenize(linear(3), before)
        assert out == parse_braid("s1 s2^2", 3)
        assert closure_components(before) == closure_components(out) == 2
        with pytest.raises(MultiComponentClosure) as err_before:
            alexander_of_closure(before)
        with pytest.raises(MultiComponentClosure) as err_after:
            alexander_of_closure(out)
        assert err_before.value.determinant.equal_up_to_units(err_after.value.determinant)

    def test_deep_negative_rejected(self):
        with pytest.raises(HomogenizeError, match="-3"):
            homogenize(linear(2), parse_braid("s1^-3", 2))

    def test_preserves_shape_and_flips_only_lone_negatives(self):
        rng = random.Random(5)
        for _ in range(40):
            tree, word = random_t_homogeneous_word(rng)
            out = homogenize(tree, word)
            assert len(out.letters) == len(word.letters)
            assert out.strands == word.strands
            assert [g.edge for g in out.letters] == [g.edge for g in word.letters]
            assert classify(tree, out).kind is Kind.T_POSITIVE

    def test_closure_invariants_preserved(self):
        rng = random.Random(6)
        for _ in range(30):
            tree, word = random_t_homogeneous_word(rng, max_strands=5, max_length=10)
            out = homogenize(tree, word)
            assert closure_components(word) == closure_components(out)
            if closure_components(word) == 1:
                # a knot's permutation is an n-cycle: the length is n - 1 mod 2
                assert (len(word) - word.strands) % 2 == 1
                assert alexander_of_closure(word) == alexander_of_closure(out)
