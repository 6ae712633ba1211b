import itertools
import json
import random
from importlib import resources

import pytest

from espalier import garside
from espalier.braid import (
    BandGenerator,
    BraidWord,
    _cycles,
    format_braid,
    parse_braid,
)
from espalier.cabling import CableSpec, cable_staircase
from espalier.errors import StrandMismatch, ToolkitError
from espalier.garside import (
    _CACHED_STRANDS,
    NormalForm,
    _atom,
    _complement,
    _meet,
    _normal_form,
    _product,
    _push_left,
    _quotient,
    _step,
    _tau,
    delta,
    is_staircase,
    left_normal_form,
    words_equal,
)
from espalier.invariants import alexander_of_closure
from oracles import (
    NonCrossingPartition,
    artin_word,
    best_conjugate_inf,
    braids_equal,
    concat,
    conjugate,
    cyclic_rotations,
    invert,
    normal_form_defect,
    partition_permutation,
    random_word,
    underlying_permutation,
)


class TestDelta:
    def test_small_cases(self):
        assert delta(2) == parse_braid("s1", 2)
        assert delta(3) == parse_braid("s1 s2", 3)
        assert delta(4) == parse_braid("s1 s2 s3", 4)

    def test_too_few_strands(self):
        with pytest.raises(ToolkitError):
            delta(1)


def _identity(n):
    return tuple(range(n))


def _top(n):
    return _complement(_identity(n))


def _divides(a, b):
    """Whether the simple a left-divides the simple b."""
    return _meet(a, b) == a


def _word(a):
    """The chain word of a simple, as a normal-form factor writes it."""
    return garside.NonCrossingPartition(a).to_word()


class TestSimples:
    def test_band_to_simple(self):
        assert _atom(2, BandGenerator(1, 2)) == _top(2)
        view = garside.NonCrossingPartition
        assert view(_atom(3, BandGenerator(1, 3))).blocks == ((1, 3), (2,))
        assert view(_atom(5, BandGenerator(2, 4))).blocks == ((1,), (2, 4), (3,), (5,))

    def test_simple_product_realizes_delta(self):
        # a(1,2) a(2,3) = delta_3 by the triangle relation
        a = _atom(3, BandGenerator(1, 2))
        b = _atom(3, BandGenerator(2, 3))
        assert _divides(b, _complement(a))
        assert _product(a, b) == _top(3)

    def test_simple_product_order_sensitive(self):
        # a(1,2) a(1,3) is not simple; a(1,3) a(1,2) = delta_3
        a = _atom(3, BandGenerator(1, 2))
        b = _atom(3, BandGenerator(1, 3))
        assert not _divides(b, _complement(a))
        assert _divides(a, _complement(b))
        assert _product(b, a) == _top(3)

    def test_complements(self):
        assert _complement(_top(4)) == _identity(4)
        assert _complement(_identity(4)) == _top(4)
        for n in range(2, 9):  # the engine's one spelling of delta's simple
            assert garside._delta_simple(n) == _top(n)
            assert _word(garside._delta_simple(n)) == delta(n)

    def test_complement_contract(self):
        # A . complement(A) = delta, as simples and as braid words, for every simple in B_4
        simples = _all_simples(4)
        assert len(simples) == 14
        for a in simples:
            comp = _complement(a)
            assert _product(a, comp) == _top(4)
            assert words_equal(concat(_word(a), _word(comp)), delta(4))

    def test_simple_product_matches_word_product(self):
        # a.b is simple exactly when b left-divides complement(a); then the
        # tuple product is the braid product
        simple_pairs = 0
        for a, b in itertools.product(_all_simples(4), repeat=2):
            if _divides(b, _complement(a)):
                simple_pairs += 1
                word = concat(_word(a), _word(b))
                assert words_equal(word, _word(_product(a, b)))
        assert simple_pairs > 14


def _all_partitions(n):
    # every simple of B_n: generate set partitions by brute force, keep the
    # non-crossing ones; blocks come out ascending, the constructor wants them in order
    def set_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for smaller in set_partitions(rest):
            for k in range(len(smaller)):
                yield smaller[:k] + [[first] + smaller[k]] + smaller[k + 1:]
            yield [[first]] + smaller

    out = []
    for blocks in set_partitions(list(range(1, n + 1))):
        try:
            out.append(NonCrossingPartition(n, tuple(sorted(map(tuple, blocks)))))
        except ToolkitError:
            pass
    return out


def _all_simples(n):
    return [partition_permutation(part) for part in _all_partitions(n)]


def test_noncrossing_partition_count_is_catalan():
    # Catalan numbers 1, 2, 5, 14, 42
    assert [len(_all_partitions(n)) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    # the engine's tuples and the reference partitions are inverse to each other
    for part in _all_partitions(5):
        assert garside.NonCrossingPartition(partition_permutation(part)).blocks == part.blocks


@pytest.mark.parametrize("n,blocks,message", [
    (3, ((1, 2),), "blocks do not partition 1..3"),
    (3, ((1, 2), (2, 3)), "blocks do not partition 1..3"),
    (3, ((3,), (1, 2)), "not sorted in canonical order"),
    (3, ((2, 1), (3,)), "not sorted in canonical order"),
    (4, ((1, 3), (2, 4)), "blocks interleave: chords (1, 3) and (2, 4) cross"),
])
def test_noncrossing_partition_rejects(n, blocks, message):
    with pytest.raises(ToolkitError) as info:
        NonCrossingPartition(n, blocks)
    assert message in str(info.value)


class TestNormalForm:
    def test_delta_power(self):
        nf = left_normal_form(parse_braid("s1^3", 2))
        assert (nf.inf, nf.factors) == (3, ())

    def test_triangle_relation_makes_delta(self):
        nf = left_normal_form(parse_braid("a(1,3) a(1,2)", 3))
        assert (nf.inf, nf.factors) == (1, ())

    def test_identity(self):
        nf = left_normal_form(BraidWord(3))
        assert (nf.inf, nf.factors) == (0, ())

    def test_single_band(self):
        nf = left_normal_form(parse_braid("a(1,3)", 3))
        assert nf.inf == 0 and len(nf.factors) == 1

    def test_negative_letter(self):
        nf = left_normal_form(parse_braid("s1^-1", 3))
        assert nf.inf == -1 and len(nf.factors) == 1

    def test_serialization(self):
        nf = left_normal_form(parse_braid("a(1,3) a(1,3)", 3))
        assert str(nf) == "delta^0 | {1,3};{1,3}"
        assert str(left_normal_form(parse_braid("s1^3", 2))) == "delta^3"

    def test_idempotent_on_random_words(self):
        rng = random.Random(11)
        for _ in range(150):
            w = random_word(rng, rng.randint(2, 6), rng.randint(0, 10))
            nf = left_normal_form(w)
            again = left_normal_form(nf.to_word())
            assert nf == again

    def test_round_trip_represents_same_element(self):
        rng = random.Random(12)
        for _ in range(60):
            w = random_word(rng, rng.randint(2, 5), rng.randint(0, 8))
            assert braids_equal(w, left_normal_form(w).to_word())

    def test_delta_prefix_raises_infimum(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 6)
            w = random_word(rng, n, rng.randint(0, 8), signed=False)
            assert left_normal_form(concat(delta(n), w)).inf >= 1


def re_tau_normal_form(word):
    """The engine loop as it read negative letters before the tau-shifted
    reading: X a^-1 = delta^-1 tau(X) (delta a^-1), so each negative letter
    re-taus every factor so far before it appends delta a^-1."""
    n = word.strands
    identity = tuple(range(n))
    top = _complement(identity)
    inf, factors = 0, []
    for g in word.letters:
        if g.sign > 0:
            factors.append(_atom(n, g))
        else:
            inf -= 1
            factors = [_tau(f, 1) for f in factors]
            factors.append(_product(top, _atom(n, g)))
        _push_left(factors, identity)
    while factors and factors[0] == top:
        inf += 1
        factors.pop(0)
    return NormalForm(n, inf, tuple(map(garside.NonCrossingPartition, factors)))


def test_tau_shifted_reading_matches_the_re_tau_loop():
    rng = random.Random(2612)
    negative = 0
    for _ in range(600):
        n = rng.randint(2, 9)
        w = random_word(rng, n, rng.randint(0, 24))
        negative += any(g.sign < 0 for g in w.letters)
        assert left_normal_form(w) == re_tau_normal_form(w), str(w)
    assert negative > 500


def cycle_keyed_meet(a, b):
    """The meet as it read before the one-pass block minima: label each
    element by the index of its cycle in a and in b, key the common
    refinement on the pair, and close each block's descending cycle."""
    def labels(p):
        out = [0] * len(p)
        for label, cycle in enumerate(_cycles(p)):
            for x in cycle:
                out[x] = label
        return out

    meet = list(range(len(a)))
    first, last = {}, {}
    for x, key in enumerate(zip(labels(a), labels(b))):
        if key in last:
            meet[x] = last[key]
        else:
            first[key] = x
        last[key] = x
    for key, x in first.items():
        meet[x] = last[key]
    return tuple(meet)


def _descends_to_block_minima(p):
    """The one-pass meet's precondition: x > p[x] unless x is its block's minimum."""
    assert sorted(p) == list(range(len(p))), p  # _cycles needs a permutation
    minimum = {x: min(c) for c in _cycles(p) for x in c}
    return all(p[x] < x or x == minimum[x] for x in range(len(p)))


class TestMeet:
    def test_every_pair_of_small_simples(self):
        for n in range(1, 7):
            simples = _all_simples(n)
            assert all(_descends_to_block_minima(a) for a in simples)
            for a, b in itertools.product(simples, repeat=2):
                assert _meet(a, b) == cycle_keyed_meet(a, b), (a, b)
        assert len(simples) == 132

    def test_seeded_pairs_from_normal_forms(self):
        # pools of normal-form factors, their complements and tau shifts;
        # half the pairs are (complement(A), tau^k(B)), the heads that
        # _push_left asks for when cycling appends a shifted factor
        rng = random.Random(2614)
        pairs = nontrivial = 0
        while pairs < 3000:
            n = rng.randint(8, 64)
            _, factors = _normal_form(random_word(rng, n, rng.randint(4, n)))
            if not factors:
                continue
            pool = factors + [_complement(f) for f in factors]
            pool += [_tau(f, rng.randrange(1, n)) for f in pool]
            assert all(_descends_to_block_minima(p) for p in pool)
            for _ in range(30):
                if rng.random() < 0.5:
                    a = _complement(rng.choice(factors))
                    b = _tau(rng.choice(factors), rng.randrange(n))
                else:
                    a, b = rng.choice(pool), rng.choice(pool)
                meet = _meet(a, b)
                assert meet == cycle_keyed_meet(a, b), (a, b)
                nontrivial += meet != tuple(range(n))
                pairs += 1
        assert nontrivial > 1200, nontrivial


def _direct_step(a, b):
    """The push step written out independently of garside._step."""
    head = _meet(_complement(a), b)
    if head == _identity(len(a)):
        return None
    return _product(a, head), _quotient(head, b)


class TestStepCache:
    def test_every_pair_of_small_simples(self):
        pairs = 0
        for n in range(1, _CACHED_STRANDS + 1):
            for a, b in itertools.product(_all_simples(n), repeat=2):
                assert _step(a, b, _identity(n)) == _direct_step(a, b), (a, b)
                pairs += 1
        assert pairs == 1990  # sum of Catalan(n)^2 for n <= 5: the cache's bound

    def test_cleared_warm_and_inline_steps_agree(self, monkeypatch):
        rng = random.Random(2615)
        words = [random_word(rng, rng.randint(2, 5), rng.randint(0, 24)) for _ in range(600)]

        def results():
            return [(_normal_form(w), is_staircase(w)) for w in words]

        cold = []
        for w in words:
            _step.cache_clear()
            cold.append((_normal_form(w), is_staircase(w)))
        warm = results()
        assert _step.cache_info().hits > 0
        monkeypatch.setattr(garside, "_CACHED_STRANDS", 0)  # every step uncached
        assert cold == warm == results()

    def test_large_strand_counts_bypass_the_cache(self):
        word = parse_braid("s1^3")
        for p, q in ((2, 3), (2, 5), (2, 9)):
            word = cable_staircase(word, CableSpec(p, q, word.strands))
        assert word.strands == 16
        _step.cache_clear()
        assert is_staircase(parse_braid("s1 a(1,3)", 3))
        small = _step.cache_info().currsize
        assert small > 0
        assert is_staircase(word)
        assert _step.cache_info().currsize == small  # no key on 16 strands


class TestIndependentChecker:
    def test_normal_forms_pass_the_permutation_checker(self):
        rng = random.Random(2605)
        for _ in range(400):
            n = rng.randint(2, 8)
            w = random_word(rng, n, rng.randint(0, 20))
            nf = left_normal_form(w)
            assert normal_form_defect(n, [f.to_word() for f in nf.factors]) is None, str(w)
            assert braids_equal(w, nf.to_word()), str(w)

    def test_factors_match_the_reference_partitions(self):
        # each factor's blocks build a validated reference partition whose
        # permutation is the factor's tuple and whose chains are its word
        rng = random.Random(2617)
        for _ in range(400):
            n = rng.randint(2, 9)
            w = random_word(rng, n, rng.randint(0, 24))
            for f in left_normal_form(w).factors:
                part = NonCrossingPartition(n, f.blocks)
                assert partition_permutation(part) == f.simple, str(w)
                chains = [(b[k], b[k + 1]) for b in part.blocks for k in range(len(b) - 1)]
                word = f.to_word()
                assert word.strands == n and word.is_positive, str(w)
                assert [g.edge for g in word.letters] == chains, str(w)
                assert str(f) == "".join(
                    "{" + ",".join(map(str, b)) + "}" for b in part.blocks if len(b) > 1)

    def test_checker_rejects_non_normal_forms(self):
        def defect(n, *texts):
            return normal_form_defect(n, [parse_braid(t, n) for t in texts])

        assert defect(3, "a(1,2)", "a(1,2)") is None
        assert defect(4, "a(1,3) a(3,4)", "a(2,3)") is None
        assert "left-weighted" in defect(3, "a(1,3)", "a(1,2)")  # a(1,3) a(1,2) = delta
        assert "not a simple" in defect(4, "a(1,3) a(2,4)")  # crossing chords
        assert "not a simple" in defect(3, "a(1,2) a(1,2)")
        assert "not a simple" in defect(3, "a(1,2)^-1")
        assert "proper" in defect(3, "a(1,2) a(2,3)")  # delta itself


class TestWordsEqual:
    def test_triangle_relation_triple(self):
        forms = [
            parse_braid("a(1,2) a(2,3)", 3),
            parse_braid("a(1,3) a(1,2)", 3),
            parse_braid("a(2,3) a(1,3)", 3),
        ]
        for a, b in itertools.combinations(forms, 2):
            assert words_equal(a, b)
        perms = {underlying_permutation(w) for w in forms}
        sums = {sum(g.sign for g in w.letters) for w in forms}
        assert len(perms) == 1 and sums == {2}

    def test_disjoint_commutation(self):
        assert words_equal(parse_braid("a(1,2) a(3,4)", 4), parse_braid("a(3,4) a(1,2)", 4))

    def test_nested_commutation(self):
        # (i-k)(i-l)(j-k)(j-l) > 0 with (1,4) vs (2,3)
        assert words_equal(parse_braid("a(1,4) a(2,3)", 4), parse_braid("a(2,3) a(1,4)", 4))

    def test_inverse_is_not_identity(self):
        assert not words_equal(parse_braid("s1", 2), parse_braid("s1^-1", 2))

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatch):
            words_equal(BraidWord(2), BraidWord(3))

    def test_agrees_with_free_group_oracle(self):
        rng = random.Random(21)
        for _ in range(150):
            n = rng.randint(2, 5)
            a = random_word(rng, n, rng.randint(0, 7))
            if rng.random() < 0.5:
                junk = random_word(rng, n, rng.randint(0, 3))
                b = concat(concat(junk, BraidWord(n, tuple(g.inverse() for g in reversed(junk.letters)))), a)
            else:
                b = random_word(rng, n, rng.randint(0, 7))
            assert words_equal(a, b) == braids_equal(a, b)


class TestTau:
    def test_shift_examples(self):
        # tau sends a(i,j) to a(i+1,j+1), indices cyclic in 1..n
        def shifted(i, j, n):
            return _tau(_atom(n, BandGenerator(i, j)), 1)

        assert shifted(1, 2, 3) == _atom(3, BandGenerator(2, 3))
        assert shifted(2, 3, 3) == _atom(3, BandGenerator(1, 3))
        assert shifted(1, 3, 3) == _atom(3, BandGenerator(1, 2))
        assert _tau(_atom(4, BandGenerator(1, 3)), 2) == _atom(4, BandGenerator(1, 3))
        assert _tau(_atom(4, BandGenerator(1, 3)), -1) == _atom(4, BandGenerator(2, 4))

    def test_order_n(self):
        for n in range(2, 7):
            for a in _all_simples(n):
                g = a
                for _ in range(n):
                    g = _tau(g, 1)
                assert g == a
                assert _tau(a, n) == a

    def test_conjugation_identity(self):
        # delta . g = tau(g) . delta for every simple g
        for n in range(2, 6):
            for a in _all_simples(n):
                g = _word(a)
                shifted = _word(_tau(a, 1))
                assert words_equal(concat(delta(n), g), concat(shifted, delta(n)))


class TestStaircase:
    def test_trefoil(self):
        res = is_staircase(parse_braid("a1^3", 2))
        assert res and res.inf == 3
        assert format_braid(res.head) == "a(1,2)"
        assert format_braid(res.tail) == "a(1,2)^2"

    def test_braid_index_three_example(self):
        w = parse_braid("a1^2 a(1,3) a2 a1^2 a2^2", 3)
        res = is_staircase(w)
        assert res
        assert words_equal(concat(res.head, res.tail), conjugate(w, invert(res.conjugator)))

    def test_single_band_is_not(self):
        res = is_staircase(parse_braid("a(1,3)", 3))
        assert not res and res.inf == 0
        assert res.conjugator is None and res.tail is None
        assert res.head is None

    def test_letters_are_written_once(self):
        res = is_staircase(parse_braid("s1 a(1,3)", 3))
        assert res.conjugator is res.conjugator and res.tail is res.tail

    def test_answers_mixed_sign_words(self):
        res = is_staircase(parse_braid("s1^-1", 2))
        assert not res and res.inf == -1
        res = is_staircase(parse_braid("s1^-1 s1^4", 2))
        assert res and res.inf == 3

    def test_delta_times_positive_always_staircase(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 6)
            w = concat(delta(n), random_word(rng, n, rng.randint(0, 8), signed=False))
            assert is_staircase(w)

    def test_three_strand_sandwich_shapes(self):
        # subwords s1^k s2^l s1^m (k,l,m > 0) force a delta
        for k, l, m in [(1, 1, 1), (2, 1, 3), (3, 2, 1)]:
            w = parse_braid(f"s1^{k} s2^{l} s1^{m}", 3)
            assert is_staircase(w)
        for k, l in [(1, 1), (3, 2)]:
            assert is_staircase(parse_braid(f"s1^{k} s2^{l}", 3))
        # the mirror sandwich s2^k s1^l s2^m needs a conjugation to show its delta
        for k, l, m in [(1, 1, 1), (2, 2, 1), (1, 3, 2)]:
            w = parse_braid(f"s2^{k} s1^{l} s2^{m}", 3)
            assert is_staircase(w)

    def test_rotation_needed_case(self):
        # delta split across the wrap-around: inf 0 as written, 1 after cycling
        w = parse_braid("s1 a(1,3)", 3)
        assert left_normal_form(w).inf == 0
        res = is_staircase(w)
        assert res and res.inf == 1
        assert len(res.conjugator.letters) > 0
        assert words_equal(concat(res.head, res.tail), conjugate(w, invert(res.conjugator)))


class TestStaircaseByCycling:
    def test_conjugate_that_no_rotation_shows(self):
        # a positive word closing to the trefoil whose delta no rotation shows
        w = parse_braid("a(1,4) a(3,4)^3 a(2,3)")
        assert all(left_normal_form(r).inf == 0 for r in cyclic_rotations(w))
        res = is_staircase(w)
        assert res and res.inf == 1
        assert words_equal(conjugate(w, invert(res.conjugator)), concat(res.head, res.tail))
        assert braids_equal(conjugate(w, invert(res.conjugator)), concat(res.head, res.tail))

    def test_cyclings_from_a_negative_infimum(self):
        # cycling delta^-1 A_1 ... moves tau^-1(A_1), not A_1, to the end
        for text in ["a(1,3)^-1 a(2,3) a(1,2) a(1,3)", "a(1,4) a(1,2)^2 a(1,4) a(3,4) a(1,4)^-1"]:
            w = parse_braid(text)
            assert left_normal_form(w).inf < 0
            res = is_staircase(w)
            assert res, text
            assert words_equal(conjugate(w, invert(res.conjugator)), concat(res.head, res.tail)), text

    def test_rises_that_take_several_cyclings(self):
        # inf rises only after 3 (n = 5) and 4 (n = 6) cyclings
        for text in ["a(1,5) a(3,5) a(2,4) a(3,4) a(4,5)",
                     "a(3,4) a(1,2) a(1,4) a(3,6) a(3,4) a(5,6)"]:
            w = parse_braid(text)
            assert left_normal_form(w).inf == 0
            res = is_staircase(w)
            assert res, text
            assert words_equal(conjugate(w, invert(res.conjugator)), concat(res.head, res.tail)), text

    def test_reported_inf_of_a_no_is_where_the_search_stopped(self):
        # two mixed-sign non-staircases drawn from random.Random(2612): the
        # search stops at sup < 1 with an inf below what a conjugate reaches
        def infimum(v):
            return left_normal_form(v).inf

        for text, bound in [("a(2,3)^-1 a(3,4)^-1", 2), ("a(2,3)^-1 a(1,3)^-2", 3)]:
            w = parse_braid(text)
            res = is_staircase(w)
            best, _ = best_conjugate_inf(w, bound, infimum)
            assert not res and res.inf <= best < 1, (text, res.inf, best)

    def test_agrees_with_brute_force_conjugation_and_rotations(self):
        # odd draws are positive words, even draws carry random signs
        def infimum(v):
            return left_normal_form(v).inf

        rng = random.Random(2611)
        found = cycled = 0
        for k in range(300):
            n = rng.randint(3, 4)
            w = random_word(rng, n, rng.randint(2, 8), signed=k % 2 == 0)
            res = is_staircase(w)
            best, c = best_conjugate_inf(w, 3 if n == 3 else 2, infimum)
            assert best < 1 or res, (str(w), format_braid(c))
            assert res or all(infimum(r) < 1 for r in cyclic_rotations(w)), str(w)
            if not res:
                continue
            found += 1
            cycled += len(res.conjugator.letters) > 0
            v = conjugate(w, invert(res.conjugator))  # c^-1 . w . c
            word = concat(res.head, res.tail)
            assert res.conjugator.is_positive and res.tail.is_positive, str(w)
            assert words_equal(v, word) and braids_equal(v, word), str(w)
            if w.components == 1:
                assert alexander_of_closure(word) == alexander_of_closure(w), str(w)
        assert found >= 100 and cycled >= 20, (found, cycled)


class TestWitnessLetters:
    """The tail is delta^(inf-1) times the normal form of c^-1 . w . c, read
    off its factors, and inf is that normal form's infimum."""

    @staticmethod
    def check(w):
        res = is_staircase(w)
        if res:
            nf = left_normal_form(conjugate(w, invert(res.conjugator)))  # c^-1 . w . c
            assert res.inf == nf.inf, str(w)
            assert res.tail == NormalForm(w.strands, nf.inf - 1, nf.factors).to_word(), str(w)
            assert res.head == delta(w.strands), str(w)
        return res

    def test_table_rows(self):
        rows = json.loads(resources.files("espalier.data").joinpath("table1.json").read_text())
        words = [parse_braid(r["braid"]["word"], r["braid"]["n"])
                 for r in rows if r["kind"] == "staircase"]
        assert len(words) == 34
        assert all(self.check(w) for w in words)

    def test_seeded_words(self):
        # odd draws are positive words, even draws carry random signs
        rng = random.Random(2613)
        found = cycled = 0
        for k in range(600):
            w = random_word(rng, rng.randint(3, 5), rng.randint(2, 10), signed=k % 2 == 0)
            res = self.check(w)
            found += bool(res)
            cycled += bool(res) and len(res.conjugator.letters) > 0
        assert found >= 100 and cycled >= 20, (found, cycled)


class TestRefinementOfOtherInvariants:
    def test_equal_words_share_permutation_and_alexander(self):
        from espalier.invariants import alexander_of_closure

        rng = random.Random(77)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 4)
            w = random_word(rng, n, rng.randint(1, 6))
            junk = random_word(rng, n, rng.randint(1, 3))
            v = concat(concat(junk, invert(junk)), w)
            assert words_equal(w, v)
            assert underlying_permutation(w) == underlying_permutation(v)
            if w.components == 1:
                assert alexander_of_closure(w) == alexander_of_closure(v)
            checked += 1

    def test_exponent_sum_preserved_by_normalization_round_trip(self):
        rng = random.Random(78)
        for _ in range(30):
            w = random_word(rng, rng.randint(2, 6), rng.randint(0, 9))
            out = left_normal_form(w).to_word()
            assert sum(g.sign for g in out.letters) == sum(g.sign for g in w.letters)

    def test_triangle_triple_in_artin_form(self):
        for i, j, k in [(1, 2, 3), (1, 3, 4), (2, 3, 5)]:
            n = k
            forms = [
                BraidWord(n, (BandGenerator(i, j), BandGenerator(j, k))),
                BraidWord(n, (BandGenerator(i, k), BandGenerator(i, j))),
                BraidWord(n, (BandGenerator(j, k), BandGenerator(i, k))),
            ]
            artins = [artin_word(w) for w in forms]
            for a, b in itertools.combinations(artins, 2):
                assert words_equal(a, b)


class TestRelationFuzzing:
    def test_single_relation_rewrites_preserve_the_element(self):
        rng = random.Random(99)
        done = 0
        while done < 200:
            n = rng.randint(2, 6)
            w = random_word(rng, n, rng.randint(2, 12), signed=False)
            rewrite = propose_relation_rewrite(rng, w)
            if rewrite is None:
                continue
            assert words_equal(w, rewrite), (format_braid(w), format_braid(rewrite))
            done += 1


def propose_relation_rewrite(rng, word):
    """One random application of the commutation or triangle relation."""
    options = []
    letters = word.letters
    for k in range(len(letters) - 1):
        x, y = letters[k], letters[k + 1]
        (i, j), (kk, ll) = x.edge, y.edge
        if (i - kk) * (i - ll) * (j - kk) * (j - ll) > 0:
            options.append((k, (y, x)))
        triple = _triangle_forms(x, y)
        for replacement in triple:
            options.append((k, replacement))
    if not options:
        return None
    k, (first, second) = rng.choice(options)
    new_letters = letters[:k] + (first, second) + letters[k + 2:]
    return BraidWord(word.strands, new_letters)


def _triangle_forms(x, y):
    """The other two forms of a(i,j)a(j,k) = a(i,k)a(i,j) = a(j,k)a(i,k)."""
    def forms(i, j, k):
        return [
            (BandGenerator(i, j), BandGenerator(j, k)),
            (BandGenerator(i, k), BandGenerator(i, j)),
            (BandGenerator(j, k), BandGenerator(i, k)),
        ]

    pair = (x, y)
    if x.j == y.i:
        all_forms = forms(x.i, x.j, y.j)
    elif x.i == y.i and y.j < x.j:
        all_forms = forms(y.i, y.j, x.j)
    elif x.j == y.j and y.i < x.i:
        all_forms = forms(y.i, x.i, x.j)
    else:
        return []
    return [f for f in all_forms if f != pair]
