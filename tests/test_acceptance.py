"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as they
complete.  Every tolerance and count is pinned here; nothing is calibrated
at runtime.
"""

import functools
import itertools
import json
import math
import random
import time
from importlib import resources

from espalier.braid import (
    BraidWord,
    format_braid,
    parse_braid,
)
from espalier.cabling import CableSpec, cable_staircase
from espalier.compose import connected_sum_words, espalier_sum
from espalier.errors import CableHypothesisError
from espalier.garside import left_normal_form, words_equal
from espalier.invariants import (
    alexander_of_closure,
    reduced_burau,
    satellite_alexander,
)
from espalier.surface import homogenize
from espalier.table import verify_row
from espalier.trees import Kind, classify, enumerate_espaliers
from espalier.diagram import visual_primeness_report
from oracles import (
    brute_force_espaliers,
    concat,
    conjugate,
    cyclic_rotations,
    random_knot_word,
    random_t_homogeneous_word,
    random_t_positive_word,
    random_word,
)
from test_garside import propose_relation_rewrite


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {number}: {description}")
                raise
            elapsed = time.perf_counter() - started
            print(f"\nPASS criterion {number}: {description} ({elapsed:.1f}s)")

        return wrapper

    return decorate


@criterion(1, "Table 1 verification: 34/34 explicit-word rows, < 30 s")
def test_table_verification():
    started = time.perf_counter()
    rows = json.loads(resources.files("espalier.data").joinpath("table1.json").read_text())
    word_rows = [r for r in rows if r["kind"] == "staircase"]
    assert len(word_rows) == 34
    assert len(rows) - len(word_rows) == 8  # basket-only rows carry no braid word
    failures = []
    for row in word_rows:
        outcome = verify_row(row)
        if not outcome["ok"]:
            failures.append((row["name"], outcome.get("reason")))
    assert failures == [], failures
    assert time.perf_counter() - started < 30.0


@criterion(2, "cabling oracle: satellite Alexander identity on all coprime (p,q), < 60 s")
def test_cabling_oracle():
    started = time.perf_counter()
    bases = [
        parse_braid("s1^3", 2),
        parse_braid("s1^5", 2),
        parse_braid("a1^3 a2 a1^3 a2", 3),  # the braid-positive word for 8_19
    ]
    cases = 0
    for base in bases:
        n = base.strands
        base_alexander = alexander_of_closure(base)
        for p in (2, 3):
            for q in range(n, 8):
                if math.gcd(p, q) != 1:
                    continue
                out = cable_staircase(base, CableSpec(p=p, q=q, base_strands=n))
                assert out.is_positive
                assert left_normal_form(out).inf >= 1
                assert out.components == 1
                expected = satellite_alexander(base_alexander, p, q)
                got = alexander_of_closure(out)
                assert got.equal_up_to_units(expected), (format_braid(base), p, q)
                cases += 1
    assert cases == 20
    # Example 4.2: the (2,1)-cable of the trefoil must be rejected, not built
    try:
        cable_staircase(parse_braid("s1^3", 2), CableSpec(p=2, q=1, base_strands=2))
    except CableHypothesisError:
        pass
    else:
        raise AssertionError("q < n was not rejected")
    assert time.perf_counter() - started < 60.0


@criterion(3, "espalier enumeration matches brute force: 1, 1, 3, 12, 55, 273, < 5 s")
def test_espalier_enumeration():
    started = time.perf_counter()
    expected_counts = [1, 1, 3, 12, 55, 273]
    for n, expected in zip(range(1, 7), expected_counts):
        enumerated = {t.edges for t in enumerate_espaliers(n)}
        assert len(enumerated) == expected
        assert enumerated == brute_force_espaliers(n)
    assert time.perf_counter() - started < 5.0


@criterion(4, "homogenization invariance on 200 seeded T-homogeneous words: 200/200")
def test_homogenization_invariance():
    rng = random.Random(0xE5)
    passed = 0
    for _ in range(200):
        tree, word = random_t_homogeneous_word(rng, max_strands=6, max_length=12)
        out = homogenize(tree, word)
        assert classify(tree, out).kind is Kind.T_POSITIVE
        assert out.components == word.components
        if word.components == 1:
            assert alexander_of_closure(out) == alexander_of_closure(word)
        passed += 1
    assert passed == 200


@criterion(5, "Garside soundness: 500 relation rewrites, normal-form idempotence, Burau relations")
def test_garside_soundness():
    rng = random.Random(0x6A)
    done = 0
    while done < 500:
        n = rng.randint(2, 6)
        length = rng.randint(2, 12)
        word = random_word(rng, n, length, signed=False)
        rewritten = propose_relation_rewrite(rng, word)
        if rewritten is None:
            continue
        assert words_equal(word, rewritten)
        nf = left_normal_form(word)
        assert left_normal_form(nf.to_word()) == nf
        done += 1
    for n in range(3, 7):
        for i in range(1, n - 1):
            assert reduced_burau(parse_braid(f"s{i} s{i+1} s{i}", n)) == reduced_burau(
                parse_braid(f"s{i+1} s{i} s{i+1}", n)
            )
        for i, j in itertools.combinations(range(1, n), 2):
            if j - i >= 2:
                assert reduced_burau(parse_braid(f"s{i} s{j}", n)) == reduced_burau(
                    parse_braid(f"s{j} s{i}", n)
                )


@criterion(6, "primeness scan: hidden composite has 15 regions and no loops; granny vs trefoil")
def test_primeness_scan():
    report = visual_primeness_report(parse_braid("a(1,2) a(2,3) a(1,2) a(2,3) a(2,4)^3", 4))
    assert report.regions == 15
    assert report.loops == ()
    granny = visual_primeness_report(parse_braid("s1^3 s2^3", 3))
    assert len(granny.loops) >= 1
    trefoil = visual_primeness_report(parse_braid("s1^3", 2))
    assert trefoil.loops == ()


@criterion(7, "connected-sum transport on 100 seeded T-positive pairs: 100/100")
def test_connected_sum_transport():
    rng = random.Random(0xC5)
    passed = 0
    for _ in range(100):
        t1, a = random_t_positive_word(rng)
        t2, b = random_t_positive_word(rng)
        word = connected_sum_words(a, b)
        assert classify(espalier_sum(t1, t2), word).kind is Kind.T_POSITIVE
        product = alexander_of_closure(a) * alexander_of_closure(b)
        assert alexander_of_closure(word).equal_up_to_units(product)
        passed += 1
    assert passed == 100


@criterion(8, "Markov/conjugation invariance of the Alexander oracle on 50 seeded words: 50/50")
def test_markov_and_conjugation_invariance():
    rng = random.Random(0x3A)
    passed = 0
    for _ in range(50):
        word = random_knot_word(rng, n_range=(2, 4), length_range=(1, 7))
        poly = alexander_of_closure(word)
        for rotated in cyclic_rotations(word):
            assert alexander_of_closure(rotated) == poly
        for _ in range(10):
            by = random_word(rng, word.strands, rng.randint(0, 3))
            assert alexander_of_closure(conjugate(word, by)) == poly
        stabilized = concat(
            BraidWord(word.strands + 1, word.letters),
            parse_braid(f"s{word.strands}", word.strands + 1),
        )
        assert alexander_of_closure(stabilized) == poly
        passed += 1
    assert passed == 50
