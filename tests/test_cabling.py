import math
import random

import pytest

from espalier.braid import (
    BandGenerator,
    BraidWord,
    format_braid,
    parse_braid,
)
from espalier.cabling import CableSpec, cable_staircase
from espalier.errors import CableHypothesisError, NotBKLPositive
from espalier.garside import delta, is_staircase, words_equal
from espalier.invariants import alexander_of_closure, satellite_alexander, torus_alexander
from espalier.surface import genus_of_knot_closure
from oracles import (
    cable_delta,
    cable_generator,
    concat_all,
    fractional_twist,
    free_reduce,
    long_bands,
    random_t_positive_word,
    random_word,
)

TREFOIL = parse_braid("s1^3", 2)
CINQUEFOIL = parse_braid("s1^5", 2)
T34 = parse_braid("a1^3 a2 a1^3 a2", 3)  # 8_19


class TestCableGenerator:
    def test_width_two_band_tripled(self):
        got = cable_generator(BandGenerator(1, 3), 3, 3)
        assert got == parse_braid("a(3,9) a(2,8) a(1,7)", 9)

    def test_adjacent_band_doubled(self):
        got = cable_generator(BandGenerator(1, 2), 2, 2)
        assert got == parse_braid("a(2,4) a(1,3)", 4)

    def test_letter_sequence_structure(self):
        # p parallel wide bands in descending order, all of width p(j-i)
        word = cable_generator(BandGenerator(2, 4), 3, 4)
        assert [g.edge for g in word.letters] == [(6, 12), (5, 11), (4, 10)]
        assert all(g.j - g.i == 3 * 2 and g.sign == 1 for g in word.letters)


class TestCableDelta:
    def test_equals_letterwise_cabling_of_delta(self):
        # Both expansions of the cabled Garside element describe one braid.
        for n, p in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
            letterwise = concat_all(
                [cable_generator(g, p, n) for g in delta(n).letters], p * n
            )
            assert words_equal(cable_delta(n, p), letterwise), (n, p)

    def test_resolved_residual_block_count(self):
        # the index range as printed (n-1 blocks) breaks the exponent sum
        # against the letterwise cabling; one block per bundle fixes it
        n, p = 2, 2
        printed = BraidWord(p * n, cable_delta(n, p).letters[: -(p - 1)])  # no block on bundle n
        letterwise = concat_all(
            [cable_generator(g, p, n) for g in delta(n).letters], p * n
        )
        assert not words_equal(printed, letterwise)
        assert sum(g.sign for g in printed.letters) != sum(
            g.sign for g in letterwise.letters
        )

    def test_smallest_case_word(self):
        # resolved form: one residual negative block per bundle
        assert cable_delta(2, 2) == parse_braid("s1 s2 s3 a(1,3) s1^-1 s3^-1", 4)

    def test_shape_of_larger_case(self):
        # n=4, p=3 on 12 strands: delta_12 (11 letters), 6 long bands, 4 blocks of 2
        word = cable_delta(4, 3)
        assert word.strands == 12
        assert len(word.letters) == 11 + 6 + 8
        assert word.letters[:11] == delta(12).letters
        long_bands = word.letters[11:17]
        assert all(g.j - g.i == 3 and g.sign == 1 for g in long_bands)
        residual = word.letters[17:]
        assert all(g.j == g.i + 1 and g.sign == -1 for g in residual)

    def test_twists_cancel_residual_blocks_to_delta_and_long_bands(self):
        # the head cable_staircase writes directly: n positive fractional twists
        # after the cabled delta reduce freely to delta_{pn} . long bands
        for n in range(2, 7):
            for p in range(2, 6):
                strands = p * n
                twists = [fractional_twist(k, p, strands) for k in range(n, 0, -1)]
                head = free_reduce(concat_all([cable_delta(n, p)] + twists, strands))
                assert head == concat_all([delta(strands), long_bands(n, p)], strands), (n, p)


class TestCableStaircase:
    def test_trefoil_two_three(self):
        out = cable_staircase(TREFOIL, CableSpec(p=2, q=3, base_strands=2))
        assert out.strands == 4
        assert out.is_positive
        assert out.letters[:3] == delta(4).letters
        assert out.components == 1
        assert is_staircase(out)
        assert alexander_of_closure(out) == satellite_alexander(
            alexander_of_closure(TREFOIL), 2, 3
        )

    def test_example_counterexample_rejected(self):
        # the (2,1)-cable of the trefoil is genuinely not a staircase closure
        with pytest.raises(CableHypothesisError, match="q = 1 < n = 2"):
            cable_staircase(TREFOIL, CableSpec(p=2, q=1, base_strands=2))

    def test_p_one_rejected(self):
        with pytest.raises(CableHypothesisError, match="p >= 2"):
            CableSpec(p=1, q=3, base_strands=2)

    def test_non_coprime_rejected(self):
        with pytest.raises(CableHypothesisError, match="gcd"):
            cable_staircase(TREFOIL, CableSpec(p=2, q=4, base_strands=2))

    def test_non_staircase_rejected(self):
        # positive knot word with infimum 0 on every rotation
        word = parse_braid("a(1,2) a(1,3)^2 a(2,3)", 3)
        assert word.components == 1
        with pytest.raises(CableHypothesisError, match="staircase"):
            cable_staircase(word, CableSpec(p=2, q=3, base_strands=3))

    def test_link_closure_rejected(self):
        hopf = parse_braid("s1^2", 2)
        with pytest.raises(CableHypothesisError, match="knot"):
            cable_staircase(hopf, CableSpec(p=2, q=3, base_strands=2))

    def test_negative_letters_rejected(self):
        with pytest.raises(NotBKLPositive):
            cable_staircase(parse_braid("s1^-1 s1^4", 2), CableSpec(p=2, q=3, base_strands=2))

    def test_genus_bookkeeping(self):
        # g(K_{p,q}) = p g(K) + (p-1)(q-1)/2 read off the word length
        for base, p, q in [(TREFOIL, 2, 3), (CINQUEFOIL, 3, 4), (T34, 2, 5)]:
            out = cable_staircase(base, CableSpec(p=p, q=q, base_strands=base.strands))
            expected = p * genus_of_knot_closure(base) + (p - 1) * (q - 1) // 2
            assert genus_of_knot_closure(out) == expected

    def test_satellite_alexander_on_cinquefoil(self):
        out = cable_staircase(CINQUEFOIL, CableSpec(p=3, q=4, base_strands=2))
        assert is_staircase(out)
        assert alexander_of_closure(out) == satellite_alexander(
            alexander_of_closure(CINQUEFOIL), 3, 4
        )

    def test_cable_is_fibered_shaped(self):
        # span(Alexander)/2 equals the chi-genus on the cable words too
        from espalier.invariants import fibered_shape

        for base, p, q in [(TREFOIL, 2, 5), (T34, 3, 4)]:
            out = cable_staircase(base, CableSpec(p=p, q=q, base_strands=base.strands))
            assert fibered_shape(alexander_of_closure(out), genus_of_knot_closure(out))

    def test_iterated_cable_ladder_to_64_strands(self):
        # the trefoil, then its (2,3), (2,5), (2,9), (2,17) and (2,33) cables in
        # turn; each rung's polynomial must equal the satellite formula exactly
        word = TREFOIL
        expected = torus_alexander(2, 3)
        assert alexander_of_closure(word) == expected
        for q in (3, 5, 9, 17, 33):
            word = cable_staircase(word, CableSpec(p=2, q=q, base_strands=word.strands))
            expected = satellite_alexander(expected, 2, q)
            assert alexander_of_closure(word) == expected, (word.strands, q)
        assert word.strands == 64

    def test_rotation_witnessed_base(self):
        # a staircase base whose delta only appears after rotation still cables
        base = parse_braid("s2 a(1,3) s1 s1", 3)
        assert base.components == 1
        out = cable_staircase(base, CableSpec(p=2, q=3, base_strands=3))
        assert alexander_of_closure(out) == satellite_alexander(
            alexander_of_closure(base), 2, 3
        )


def oracle_cable(word, p, q):
    """The (p,q)-cable assembled from the paper's cabled delta: free reduction
    of cable_delta followed by n positive twists, then the cabled tail of the
    staircase witness, then the remaining q - n twists."""
    n = word.strands
    strands = p * n
    twists = [fractional_twist(k, p, strands) for k in range(n, 0, -1)]
    parts = [free_reduce(concat_all([cable_delta(n, p)] + twists, strands))]
    parts.extend(cable_generator(g, p, n) for g in is_staircase(word).tail.letters)
    parts.extend(fractional_twist(1, p, strands) for _ in range(q - n))
    return concat_all(parts, strands)


class TestDirectHeadMatchesOracle:
    """cable_staircase writes delta_{pn} and the long bands directly; it must
    return the oracle's assembly letter for letter."""

    def test_grid(self):
        rng = random.Random(1010)
        for n in range(2, 7):
            for p in range(2, 6):
                # a staircase knot on n strands, rotated so the delta is hidden
                while True:
                    tail = random_word(rng, n, rng.randint(0, 6), signed=False)
                    body = concat_all([delta(n), tail], n)
                    if body.components == 1:
                        break
                cut = rng.randint(0, len(body))
                base = BraidWord(n, body.letters[cut:] + body.letters[:cut])
                for q in (n, n + 1, n + 4):
                    if math.gcd(p, q) == 1:
                        out = cable_staircase(base, CableSpec(p=p, q=q, base_strands=n))
                        assert out == oracle_cable(base, p, q), (format_braid(base), p, q)

    def test_ladder_to_64_strands(self):
        word = TREFOIL
        for q in (3, 5, 9, 17, 33):
            out = cable_staircase(word, CableSpec(p=2, q=q, base_strands=word.strands))
            assert out == oracle_cable(word, 2, q), (word.strands, q)
            word = out
        assert word.strands == 64


class TestCableOutputCount:
    """cable_staircase does not recount its output: the entry checks (a knot
    base, gcd(p,q) = 1, a staircase witness) make the cable a knot of
    p.len(w) + (p-1).q letters, which this checks."""

    @staticmethod
    def check(base, p, q):
        out = cable_staircase(base, CableSpec(p=p, q=q, base_strands=base.strands))
        assert len(out) == p * len(base) + (p - 1) * q, (format_braid(base), p, q)
        assert out.components == 1, (format_braid(base), p, q)

    def test_acceptance_grid(self):
        cases = 0
        for base in (TREFOIL, CINQUEFOIL, T34):
            for p in (2, 3):
                for q in range(base.strands, 8):
                    if math.gcd(p, q) == 1:
                        self.check(base, p, q)
                        cases += 1
        assert cases == 20

    def test_seeded_t_positive_staircase_knots(self):
        rng = random.Random(1818)
        bases = 0
        while bases < 40:
            _, base = random_t_positive_word(rng, max_strands=5, max_extra=5)
            if not is_staircase(base):
                continue
            bases += 1
            for p in (2, 3, 4):
                for q in range(base.strands, base.strands + 5):
                    if math.gcd(p, q) == 1:
                        self.check(base, p, q)
