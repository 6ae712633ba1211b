import pytest
from hypothesis import given, strategies as st

from espalier.braid import (
    BandGenerator,
    BraidWord,
    format_braid,
    parse_braid,
    _cycles,
)
from espalier.errors import ParseError, ToolkitError
from oracles import (
    artin_word,
    concat,
    concat_all,
    conjugate,
    cyclic_rotations,
    free_reduce,
    underlying_permutation,
)

SAMPLE_WORD = "a(1,3)^2 a(2,3)^2 a(4,5)^2 a(1,4)^-3 a(4,5)^2 a(2,3) a(1,3) a(4,5)"


class TestParsing:
    def test_artin_shorthand(self):
        w = parse_braid("s1^3", strands=2)
        assert w.strands == 2
        assert w.letters == (BandGenerator(1, 2),) * 3

    def test_a_shorthand_matches_table_convention(self):
        assert parse_braid("a2", 3) == parse_braid("a(2,3)", 3)

    def test_band_word(self):
        w = parse_braid(SAMPLE_WORD)
        assert w.strands == 5
        assert len(w.letters) == 14
        assert w.letters[6] == BandGenerator(1, 4, -1)

    def test_reversed_indices_rejected(self):
        with pytest.raises(ParseError, match="i < j"):
            parse_braid("a(3,1)")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_braid("a(1,2) b3")
        assert err.value.position == 7

    def test_declared_strands_too_small(self):
        with pytest.raises(ParseError, match="strands"):
            parse_braid("a(2,5)", strands=3)

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError):
            parse_braid("s0")

    def test_empty_word(self):
        w = parse_braid("", strands=4)
        assert w.strands == 4 and w.letters == ()

    def test_exponent_zero_contributes_nothing(self):
        assert parse_braid("a(1,2)^0 s2", 3) == parse_braid("s2", 3)

    def test_round_trip(self):
        w = parse_braid(SAMPLE_WORD)
        assert parse_braid(format_braid(w), w.strands) == w

    @pytest.mark.parametrize("text,strands,message,position", [
        ("a(1,2", None, "unrecognized token 'a(1,2' (at position 0)", 0),
        ("s1^", None, "unrecognized token '^' (at position 2)", 2),
        ("s1 ^2", None, "unrecognized token '^2' (at position 3)", 3),
        ("s", None, "unrecognized token 's' (at position 0)", 0),
        ("s0", None, "strand indices are 1-based (at position 0)", 0),
        ("a(3,2)", None, "band generator needs i < j, got a(3,2) (at position 0)", 0),
        ("s1000", None, "strand 1001 exceeds the cap of 1000 strands (at position 0)", 0),
        ("s1234567890", None, "number 1234567890... is too large (at position 0)", 0),
        ("s1^1234567890", None, "number 1234567890... is too large (at position 2)", 2),
        ("s1^60000 s2^40001", None,
         "word expands to more than 100000 letters (at position 9)", 9),
        ("s1", 1001, "1001 strands declared; the cap is 1000", None),
        ("a(2,5)", 3, "word needs 5 strands but only 3 declared", None),
        ("a(1,3)^99999 a(2,3) a(3,1)", None,
         "band generator needs i < j, got a(3,1) (at position 20)", 20),
    ])
    def test_error_message_and_position(self, text, strands, message, position):
        with pytest.raises(ParseError) as info:
            parse_braid(text, strands)
        assert (str(info.value), info.value.position) == (message, position)

    # the grammar is ASCII: other Unicode decimal digits and spaces are stray characters
    @pytest.mark.parametrize("text,message,position", [
        ("s\u0661", "unrecognized token 's\u0661' (at position 0)", 0),
        ("a(\u0662,\u0663)", "unrecognized token 'a(\u0662,\u0663)' (at position 0)", 0),
        ("s1^\u0662", "unrecognized token '^\u0662' (at position 2)", 2),
        ("s1\u00a0s2", "unrecognized token '\\xa0s2' (at position 2)", 2),
        ("a(1,\u20032)", "unrecognized token 'a(1,\\u20032)' (at position 0)", 0),
    ])
    def test_non_ascii_digits_and_spaces_are_rejected(self, text, message, position):
        with pytest.raises(ParseError) as info:
            parse_braid(text)
        assert (str(info.value), info.value.position) == (message, position)


@st.composite
def words(draw, max_strands=6, max_len=12, signed=True):
    n = draw(st.integers(2, max_strands))
    length = draw(st.integers(0, max_len))
    letters = []
    for _ in range(length):
        i = draw(st.integers(1, n - 1))
        j = draw(st.integers(i + 1, n))
        sign = draw(st.sampled_from([1, -1])) if signed else 1
        letters.append(BandGenerator(i, j, sign))
    return BraidWord(n, tuple(letters))


@given(words())
def test_serializer_round_trips(w):
    assert parse_braid(format_braid(w), w.strands) == w


@given(words())
def test_free_reduce_idempotent_and_permutation_safe(w):
    reduced = free_reduce(w)
    assert free_reduce(reduced) == reduced
    assert underlying_permutation(reduced) == underlying_permutation(w)


@given(words())
def test_artin_word_preserves_permutation_and_exponent_sum(w):
    artin = artin_word(w)
    assert underlying_permutation(artin) == underlying_permutation(w)
    assert sum(g.sign for g in artin.letters) == sum(g.sign for g in w.letters)


class TestConstructors:
    @pytest.mark.parametrize("i,j,sign,message", [
        (0, 2, 1, "needs 1 <= i < j, got a(0,2)"),
        (2, 2, 1, "needs 1 <= i < j, got a(2,2)"),
        (1, 2, 0, "sign must be +1 or -1, got 0"),
        (1, 2, -2, "sign must be +1 or -1, got -2"),
    ])
    def test_band_generator_rejects(self, i, j, sign, message):
        with pytest.raises(ParseError) as info:
            BandGenerator(i, j, sign)
        assert message in str(info.value)

    @pytest.mark.parametrize("strands,letters,message", [
        (0, (), "strand count must be positive, got 0"),
        (-3, (), "strand count must be positive, got -3"),
        (2, (BandGenerator(1, 3),), "letter a(1,3) exceeds strand count 2"),
        (3, (BandGenerator(1, 2), BandGenerator(3, 4, -1)),
         "letter a(3,4)^-1 exceeds strand count 3"),
    ])
    def test_braid_word_rejects(self, strands, letters, message):
        with pytest.raises(ParseError) as info:
            BraidWord(strands, letters)
        assert message in str(info.value)


class TestArtinExpansion:
    """The band-expansion convention of tests/oracles.artin_letters, which
    reference_diagram and artin_burau build on."""

    def test_adjacent_band_is_itself(self):
        assert artin_word(parse_braid("a(2,3)", 3)).letters == (BandGenerator(2, 3),)

    def test_width_two_band(self):
        assert artin_word(parse_braid("a(1,3)", 3)) == parse_braid("s1 s2 s1^-1", 3)

    def test_width_three_band(self):
        assert artin_word(parse_braid("a(1,4)", 4)) == parse_braid("s1 s2 s3 s2^-1 s1^-1", 4)

    def test_overlapping_bands_of_both_signs(self):
        # s3^-1 is first a middle letter, then a conjugating one
        got = artin_word(parse_braid("a(1,4)^-1 a(2,4) a(2,5) a(1,3)", 5))
        assert got == parse_braid(
            "s1 s2 s3^-1 s2^-1 s1^-1 s2 s3 s2^-1 s2 s3 s4 s3^-1 s2^-1 s1 s2 s1^-1", 5
        )


class TestFreeReduce:
    """tests/oracles.free_reduce, the cancellation the cabling oracle runs."""

    def test_cancelling_pair(self):
        assert free_reduce(parse_braid("a(1,2) a(1,2)^-1", 2)).letters == ()

    def test_inner_cancellation(self):
        got = free_reduce(parse_braid("a(1,3) a(2,4) a(2,4)^-1", 4))
        assert got == parse_braid("a(1,3)", 4)

    def test_reduced_word_unchanged(self):
        w = parse_braid("a(1,3) a(2,4)", 4)
        assert free_reduce(w) == w


class TestExponentSums:
    """BraidWord.edge_tally: (letter count, exponent sum) per edge."""

    def test_sample_word(self):
        w = parse_braid(SAMPLE_WORD)
        assert dict(w.edge_tally) == {(1, 3): (3, 3), (2, 3): (3, 3), (4, 5): (5, 5),
                                      (1, 4): (3, -3)}
        assert list(w.edge_tally) == [(1, 3), (2, 3), (4, 5), (1, 4)]  # first appearance

    def test_empty(self):
        assert dict(BraidWord(3).edge_tally) == {}

    def test_power(self):
        assert dict(parse_braid("s1^3", 2).edge_tally) == {(1, 2): (3, 3)}


def then(p, q):
    """The composite 'apply p first, then q' of 1-based image tuples."""
    return tuple(q[v - 1] for v in p)


def transposition(n, i, j):
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return tuple(images)


def cycle_count(p):
    seen = set()
    cycles = 0
    for start in range(1, len(p) + 1):
        if start not in seen:
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = p[x - 1]
    return cycles


class TestPermutations:
    def test_identity_components(self):
        assert BraidWord(3).components == 3

    def test_trefoil_is_knot(self):
        w = parse_braid("s1^3", 2)
        assert underlying_permutation(w) == (2, 1)
        assert w.components == 1

    def test_granny_components_via_transposition_oracle(self):
        # direct transposition composition: (1 2) then (2 3) is a 3-cycle,
        # so the granny closed braid is a knot
        w = parse_braid("s1^3 s2^3", 3)
        perm = (1, 2, 3)
        for g in w.letters:
            perm = then(perm, transposition(3, g.i, g.j))
        assert underlying_permutation(w) == perm
        assert w.components == cycle_count(perm) == 1

    def test_components_depend_only_on_permutation_product(self):
        a = parse_braid("a(1,3) s2", 3)
        b = parse_braid("s1 s2 s1", 3)
        product = then(underlying_permutation(a), underlying_permutation(b))
        assert underlying_permutation(concat(a, b)) == product
        assert concat(a, b).components == cycle_count(product)

    @pytest.mark.parametrize("images", [(1, 1), (0, 0), (1, 2, 2), (2, 0, 0)])
    def test_cycles_rejects_a_non_permutation(self, images):
        # a walk that never returns to its start must fail, not spin
        with pytest.raises(ToolkitError, match="not a permutation"):
            _cycles(images)


class TestGroupOperations:
    def test_concat_identity(self):
        w = parse_braid("a(1,3) s2", 3)
        assert concat_all([BraidWord(3), w, BraidWord(3)], 3) == w

    def test_rotation_count(self):
        w = parse_braid("s1 s2 s1", 3)
        assert len(cyclic_rotations(w)) == 3
        assert {r.components for r in cyclic_rotations(w)} == {w.components}
        assert cyclic_rotations(BraidWord(3)) == [BraidWord(3)]

    def test_conjugate_preserves_closure_components(self):
        w = parse_braid("s1^3", 3)
        by = parse_braid("s2 a(1,3)^-1", 3)
        assert conjugate(w, by).components == w.components
