import copy
import inspect
import json
import math
import random
import sys
from collections import Counter
from importlib import resources

import pytest
from hypothesis import example, given, strategies as st

import espalier
from espalier import invariants
from espalier.braid import (
    BandGenerator,
    BraidWord,
    format_braid,
    parse_braid,
)
from espalier.cabling import CableSpec, cable_staircase
from espalier.compose import connected_sum_words
from espalier.errors import ExactDivisionError, MultiComponentClosure, ToolkitError
from espalier.invariants import (
    _determinant,
    alexander_of_closure,
    fibered_shape,
    reduced_burau,
    satellite_alexander,
    torus_alexander,
)
from espalier.laurent import (
    LaurentPolynomial,
    add_coeffs,
    divide_coeffs,
    is_unit,
    mul_coeffs,
)
from espalier.surface import genus_of_knot_closure
from oracles import (
    artin_burau,
    artin_letters,
    burau_determinant,
    concat,
    conjugate,
    cyclic_rotations,
    fox_alexander,
    from_degrees,
    invert,
    load_tool,
    pair_determinant,
    random_knot_word,
    random_word,
    table_builder,
)


def lp(min_deg, coeffs):
    return LaurentPolynomial.from_coefficients(min_deg, coeffs)


class TestLaurentArithmetic:
    def test_substitute_power(self):
        # the (p,1)-cable is the companion itself, so its formula is f(t^p)
        f = lp(-1, [1, -1, 1])  # t^-1 - 1 + t
        assert satellite_alexander(f, 2, 1) == lp(-2, [1, 0, -1, 0, 1])

    def test_equal_up_to_units(self):
        assert lp(0, [1, -1, 1]).equal_up_to_units(lp(-1, [1, -1, 1]))
        assert lp(0, [1, -1, 1]).equal_up_to_units(lp(3, [-1, 1, -1]))
        assert not lp(0, [1, -1, 1]).equal_up_to_units(lp(0, [1, 1, 1]))

    def test_symmetric_normalize(self):
        assert lp(0, [-1, 1, -1]).symmetric_normalize() == lp(-1, [1, -1, 1])
        assert lp(5, [1]).symmetric_normalize() == lp(0, [1])
        assert lp(3, [-1, -1, -1]).symmetric_normalize() == lp(-1, [1, 1, 1])  # f(1) = -3
        assert lp(0, []).symmetric_normalize() == lp(0, [])

    def test_symmetric_normalize_at_a_root_of_f(self):
        # f(1) = 0: the sign makes the lowest coefficient positive
        assert lp(0, [-1, 2, -1]).symmetric_normalize() == lp(-1, [1, -2, 1])
        assert lp(-4, [1, -2, 1]).symmetric_normalize() == lp(-1, [1, -2, 1])
        assert lp(2, [-1, 0, 2, 0, -1]).symmetric_normalize() == lp(-2, [1, 0, -2, 0, 1])

    def test_symmetric_normalize_rejects_npalindromes(self):
        for min_deg, coeffs, message in [
            (0, [1, 2], "no palindromic unit multiple"),
            (0, [1, -1], "anti-palindromic"),
            (3, [2, 0, -2], "anti-palindromic"),
            (-1, [1, 1], "odd degree span"),
            (0, [1, 2, 2, 1], "odd degree span"),
        ]:
            with pytest.raises(ToolkitError, match=message):
                lp(min_deg, coeffs).symmetric_normalize()

    def test_exact_division(self):
        product = mul_coeffs(lp(0, [1, -1]).pair, lp(-2, [2, 0, 5]).pair)
        quotient = divide_coeffs(product, lp(-2, [2, 0, 5]).pair)
        assert LaurentPolynomial.from_pair(quotient) == lp(0, [1, -1])
        with pytest.raises(ExactDivisionError):
            divide_coeffs(lp(0, [1, 1, 1]).pair, lp(0, [1, 1]).pair)

    def test_str(self):
        assert str(lp(-1, [1, -1, 1])) == "t^-1 - 1 + t"
        assert str(lp(0, [])) == "0"


small_ints = st.integers(-6, 6)


@st.composite
def polys(draw):
    return lp(draw(st.integers(-4, 4)), draw(st.lists(small_ints, max_size=6)))


@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    # on the pair kernels that the fold and the determinant run
    frozen = LaurentPolynomial.from_pair
    f, g, h = f.pair, g.pair, h.pair
    assert frozen(add_coeffs(f, g)) == frozen(add_coeffs(g, f))
    assert frozen(mul_coeffs(f, g)) == frozen(mul_coeffs(g, f))
    assert frozen(mul_coeffs(add_coeffs(f, g), h)) == frozen(
        add_coeffs(mul_coeffs(f, h), mul_coeffs(g, h)))
    assert frozen(add_coeffs(f, lp(0, []).pair)) == frozen(f)
    assert frozen(mul_coeffs(f, lp(0, [1]).pair)) == frozen(f)
    assert frozen(add_coeffs(f, f, -1)) == lp(0, [])


@given(polys(), polys())
def test_exact_division_undoes_multiplication(f, g):
    if not g.is_zero:
        assert LaurentPolynomial.from_pair(divide_coeffs(mul_coeffs(f.pair, g.pair), g.pair)) == f


@given(polys(), polys(), st.sampled_from((1, -1)))
@example(lp(0, [1, 2]), lp(0, [1, 2]), -1)  # the sum cancels to zero
@example(lp(2, [3, 0, -1]), lp(-1, [-1]), 1)  # a unit divisor
def test_kernels_leave_their_inputs_unchanged(f, g, sign):
    # the fold stores one coefficient list in many slots, so no kernel may
    # write into a list it was given
    a, b = (f.min_degree, list(f.coefficients)), (g.min_degree, list(g.coefficients))
    product = mul_coeffs(a, b)
    before = copy.deepcopy((a, b, product))
    add_coeffs(a, b, sign)
    add_coeffs(b, a, sign)
    mul_coeffs(a, b)
    if b[1]:
        divide_coeffs(product, b)
        try:
            divide_coeffs(a, b)
        except ExactDivisionError:
            pass
    assert (a, b, product) == before


@st.composite
def palindromes(draw):
    """Symmetric normalized polynomials: a palindrome centred at degree 0."""
    half = draw(st.lists(small_ints, max_size=3))
    return lp(-len(half), half + [draw(small_ints)] + half[::-1]).symmetric_normalize()


@given(palindromes(), st.integers(1, 4))
@example(lp(0, []), 3)
@example(lp(0, [5]), 1)
@example(lp(-1, [-2, 5, -2]), 4)
def test_substitution_is_multiplicative(f, p):
    # through the (p,1)-cable, whose torus factor is 1: f(t^p) and products
    g = lp(-1, [1, 1, 1])
    substituted = satellite_alexander(f, p, 1)
    assert satellite_alexander((f * g).symmetric_normalize(), p, 1) == (
        substituted * satellite_alexander(g, p, 1)).symmetric_normalize()
    terms = {p * (f.min_degree + k): c for k, c in enumerate(f.coefficients)}
    assert substituted == from_degrees(terms)


class TestBurau:
    def test_generator_convention(self):
        assert reduced_burau(parse_braid("s1", 2)) == ((lp(1, [-1]),),)

    def test_braid_relations_up_to_six_strands(self):
        for n in range(3, 7):
            for i in range(1, n - 1):
                lhs = reduced_burau(parse_braid(f"s{i} s{i+1} s{i}", n))
                rhs = reduced_burau(parse_braid(f"s{i+1} s{i} s{i+1}", n))
                assert lhs == rhs
            for i in range(1, n):
                for j in range(i + 2, n):
                    assert reduced_burau(parse_braid(f"s{i} s{j}", n)) == reduced_burau(
                        parse_braid(f"s{j} s{i}", n)
                    )

    def test_power(self):
        assert reduced_burau(parse_braid("s1^3", 2)) == ((lp(3, [-1]),),)

    def test_band_fold_matches_artin_reference(self):
        # 2-8 strands, 0-12 letters, random signs; the draws include many
        # long bands a(i,j), j - i >= 2, of both signs
        rng = random.Random(4101)
        long_bands = 0
        for _ in range(300):
            w = random_word(rng, rng.randint(2, 8), rng.randint(0, 12))
            long_bands += sum(g.j - g.i >= 2 for g in w.letters)
            assert reduced_burau(w) == artin_burau(w), format_braid(w)
        assert long_bands >= 500

    def test_inverse_long_bands_cancel(self):
        # words of inverse long bands, times their inverses: pins the
        # Sherman-Morrison update rho(a(i,j)^-1) = I + x y^T / t
        rng = random.Random(4102)
        for n in range(3, 9):
            identity = reduced_burau(BraidWord(n))
            for _ in range(10):
                letters = []
                for _ in range(rng.randint(1, 6)):
                    i = rng.randint(1, n - 2)
                    letters.append(BandGenerator(i, rng.randint(i + 2, n), -1))
                w = BraidWord(n, tuple(letters))
                assert reduced_burau(concat(w, invert(w))) == identity, format_braid(w)
                assert reduced_burau(concat(invert(w), w)) == identity, format_braid(w)

    def test_inverse_letters(self):
        n = 4
        rng = random.Random(3)
        for _ in range(20):
            w = random_knot_word(rng, (n, n), (1, 6))
            identity = reduced_burau(BraidWord(n))
            back = BraidWord(n, tuple(g.inverse() for g in reversed(w.letters)))
            assert reduced_burau(concat(w, back)) == identity


def wide_band_word(rng, n, length):
    """Mostly bands a(i,j) with j - i >= n/2, of both signs."""
    span = (n + 1) // 2
    letters = []
    for _ in range(length):
        if rng.random() < 0.8:
            i = rng.randint(1, n - span)
            j = rng.randint(i + span, n)
        else:
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
        letters.append(BandGenerator(i, j, rng.choice((1, -1))))
    return BraidWord(n, tuple(letters))


def blocked_word(rng, length):
    """A word whose bands stay inside blocks of strands, with at least two
    adjacent strands that no band touches.  Returns the word and the 0-based
    columns e_k between two untouched strands, which the fold never changes."""
    sizes = [rng.choice((1, 2, 3, 4)) for _ in range(rng.randint(1, 3))]
    sizes.insert(rng.randint(0, len(sizes)), 1)
    sizes.insert(rng.randint(0, len(sizes)), 1)
    blocks, start = [], 1
    for size in sizes:
        blocks.append((start, start + size - 1))
        start += size
    n = start - 1
    wide = [(lo, hi) for lo, hi in blocks if hi > lo]
    letters = []
    for _ in range(length if wide else 0):
        lo, hi = rng.choice(wide)
        i = rng.randint(lo, hi - 1)
        letters.append(BandGenerator(i, rng.randint(i + 1, hi), rng.choice((1, -1))))
    lone = {lo for lo, hi in blocks if lo == hi}
    untouched = [k - 1 for k in range(1, n) if k in lone and k + 1 in lone]
    return BraidWord(n, tuple(letters)), untouched


class TestColumnFold:
    # the fold builds each column from the last letter to the first and skips
    # a column when the four slots u_{i-1}, u_i, u_{j-1}, u_j are all zero

    def test_wide_bands_match_artin_reference(self):
        rng = random.Random(4106)
        wide = 0
        for _ in range(150):
            n = rng.randint(3, 10)
            w = wide_band_word(rng, n, rng.randint(0, 12))
            wide += sum(2 * (g.j - g.i) >= n for g in w.letters)
            assert reduced_burau(w) == artin_burau(w), format_braid(w)
        assert wide >= 600

    def test_untouched_strands_match_artin_reference(self):
        rng = random.Random(4107)
        skipped = 0
        for _ in range(150):
            w, untouched = blocked_word(rng, rng.randint(1, 12))
            entries = reduced_burau(w)
            assert entries == artin_burau(w), format_braid(w)
            for k in untouched:
                assert [row[k] for row in entries] == [
                    lp(0, [1]) if r == k else lp(0, []) for r in range(w.strands - 1)
                ], format_braid(w)
            skipped += len(untouched)
        assert skipped >= 150

    def test_parallel_band_pairs_match_artin_reference(self):
        # a cabled letter is a pair of parallel bands: the range update of the
        # second band often clears what the first one filled
        rng = random.Random(4109)
        seen = Counter()
        for _ in range(200):
            w = band_pair_word(rng, rng.randint(3, 10), rng.randint(1, 8))
            assert reduced_burau(w) == artin_burau(w), format_braid(w)
            seen.update(range_comparisons(w))
        # the clearing branch runs, and near misses with the same low degree
        # and leading coefficient are added, not cleared
        assert seen["cancel"] >= 100 and seen["length"] >= 100 and seen["last"] >= 10, seen

    def test_cable_words_and_inverses_match_artin_reference(self):
        # the inverse word runs the negative-letter range range(i, j - 1)
        words = []
        word = parse_braid("s1^3", 2)
        for q in (3, 5, 9):
            word = cable_staircase(word, CableSpec(p=2, q=q, base_strands=word.strands))
            words.append(word)
        rows = json.loads(resources.files("espalier.data").joinpath("table1.json").read_text())
        for row in rows[::5]:
            base = parse_braid(row["braid"]["word"], row["braid"]["n"])
            if row["kind"] == "staircase":
                for p in (2, 3, 4):
                    q = next(q for q in range(base.strands, 99) if math.gcd(p, q) == 1)
                    words.append(cable_staircase(base, CableSpec(p, q, base.strands)))
        assert max(w.strands for w in words) == 16 and len(words) >= 12
        seen = {1: Counter(), -1: Counter()}
        for w in words:
            for sign, v in ((1, w), (-1, invert(w))):
                assert reduced_burau(v) == artin_burau(v), format_braid(v)
                seen[sign].update(range_comparisons(v))
        assert seen[1]["cancel"] and seen[-1]["cancel"], seen


def band_pair_word(rng, n, pairs):
    """Pairs of parallel bands a(i+1,j+1) a(i,j), each pair of one random sign
    or, one time in five, of two."""
    letters = []
    for _ in range(pairs):
        i = rng.randint(1, n - 2)
        j = rng.randint(i + 1, n - 1)
        sign = rng.choice((1, -1))
        other = -sign if rng.random() < 0.2 else sign
        letters += [BandGenerator(i + 1, j + 1, sign), BandGenerator(i, j, other)]
    return BraidWord(n, tuple(letters))


def traced(function, needle, seen, *args):
    """function(*args), with seen(locals) called by a line tracer each time the
    line of its source that contains `needle` is about to run."""
    lines, first = inspect.getsourcelines(function)
    target = first + next(k for k, line in enumerate(lines) if needle in line)
    code = function.__code__

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            seen(frame.f_locals)
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return function(*args)
    finally:
        sys.settrace(None)


def range_comparisons(word):
    """How the fold's full comparisons of a range slot with -s came out:
    "cancel" (the slot is cleared), "length" (a different length) and "last"
    (same length, different last coefficient).  The slots compared all share
    the low degree and the leading coefficient of -s."""
    out = Counter()

    def compare(local):
        v, neg = local["v"][1], local["neg"]
        out["cancel" if v == neg else "length" if len(v) != len(neg)
            else "last" if v[-1] != neg[-1] else "other"] += 1

    traced(invariants._fold, "if v[1] == neg", compare, word)
    return out


def random_entry(rng, unit):
    """A nonzero pair: a unit +-t^k, or a non-unit (a constant of size 2-3 or
    a polynomial of 2-4 terms)."""
    low = rng.randint(-3, 3)
    if unit:
        return low, (rng.choice((1, -1)),)
    if rng.random() < 0.2:
        return low, (rng.choice((-3, -2, 2, 3)),)
    ends = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2)]
    return low, (ends[0], *(rng.randint(-3, 3) for _ in range(rng.randint(0, 2))), ends[1])


def random_matrix(rng, m, unit_share, density=0.45):
    return [
        [random_entry(rng, rng.random() < unit_share) if rng.random() < density else (0, ())
         for _ in range(m)]
        for _ in range(m)
    ]


def shuffled(rng, dense):
    rows = rng.sample(dense, len(dense))
    order = rng.sample(range(len(dense)), len(dense))
    return [[row[c] for c in order] for row in rows]


def unit_triangular(rng, m, zero_at=None):
    """A shuffled lower-triangular matrix with unit diagonal and off-diagonal
    entries with even coefficients.  A unit step keeps it triangular and its
    off-diagonal entries even, so every pivot is a diagonal unit and unit
    steps empty the matrix; with the diagonal entry at `zero_at` set to 0,
    they leave one zero entry instead."""
    dense = [[(0, ())] * m for _ in range(m)]
    for r in range(m):
        dense[r][r] = random_entry(rng, True)
        for c in range(r):
            if rng.random() < 0.6:
                low, coeffs = random_entry(rng, False)
                dense[r][c] = (low, tuple(2 * x for x in coeffs))
    if zero_at is not None:
        dense[zero_at][zero_at] = (0, ())
    return shuffled(rng, dense)


def proportional_rows(rng, m):
    """A unit-rich matrix with one row a unit multiple +-t^k of another: singular."""
    dense = random_matrix(rng, m, 0.7, density=0.6)
    a, b = rng.sample(range(m), 2)
    k, s = rng.randint(-2, 2), rng.choice((1, -1))
    dense[b] = [(low + k, tuple(s * x for x in coeffs)) if coeffs else (0, ())
                for low, coeffs in dense[a]]
    return dense


def exact(pair):
    return pair[0], tuple(pair[1])


def determinant_kinds():
    """(kind, dense matrix) pairs."""
    rng = random.Random(4108)
    out = [("empty", [])]
    for e in [(2, (1,)), (-1, (-1,)), (0, (2,)), (1, (1, 1)), (0, ())]:
        out.append(("1x1", [[e]]))
    # no unit entry, but a unit appears after a non-unit pivot: det 1 and t^2;
    # then det -t and -1, where the second pivot makes d the unit t^2 or -1
    # and a unit step follows
    out.append(("late unit", [[(0, (2,)), (0, (3,))], [(0, (3,)), (0, (5,))]]))
    out.append(("late unit", [[(1, (-2, 1)), (1, (-2, 2))], [(0, (1, -1)), (0, (1, -2))]]))
    out.append(("late unit", [[(1, (-3, 4)), (1, (-2, 2)), (1, (4, -6))],
                              [(1, (-4, 8)), (1, (-3, 4)), (1, (6, -12))],
                              [(-2, (-2, 2)), (-2, (-1, 1)), (-2, (2, -3))]]))
    out.append(("late unit", [[(1, (19,)), (0, (3,)), (0, (9,))],
                              [(0, (32,)), (-1, (5,)), (-1, (15,))],
                              [(1, (14,)), (0, (2,)), (0, (7,))]]))
    # det(rho - Id) with the columns as rows, as alexander_of_closure passes it:
    # a unit step brings a stale row up to date, and a later step uses it again
    word = parse_braid("a(4,5)^-1 a(1,3) a(4,7) a(2,6)^-1 a(6,7)^-1 a(5,7) a(6,7) a(4,5) a(3,7)^-1", 7)
    out.append(("late unit", [list(column) for column in zip(*burau_minus_identity(word))]))
    for k in range(46):  # sizes 2-7, then 8 and 9 three times each
        m = rng.randint(2, 7) if k < 40 else 8 + k % 2
        out.append(("units", random_matrix(rng, m, 0.5)))
        out.append(("no units", random_matrix(rng, m, 0.0)))
        out.append(("emptied", unit_triangular(rng, m)))
        out.append(("zero pivot", unit_triangular(rng, m, rng.randrange(m))))
        out.append(("proportional rows", proportional_rows(rng, m)))
    return out


def small_matrices():
    """Seeded dense matrices of sizes 1-3: zero entries, all-unit rows,
    triangular unit diagonals (one of them zeroed), proportional rows, and the
    "late unit" matrices of determinant_kinds."""
    rng = random.Random(2531)
    out = [dense for kind, dense in determinant_kinds() if kind == "late unit" and len(dense) <= 3]
    for _ in range(200):
        m = rng.randint(1, 3)
        out.append(random_matrix(rng, m, rng.random(), density=rng.choice((0.3, 0.6, 1.0))))
        unit_row = random_matrix(rng, m, 0.0, density=0.8)
        unit_row[rng.randrange(m)] = [random_entry(rng, True) for _ in range(m)]
        out.append(unit_row)
        out.append(unit_triangular(rng, m, rng.choice((None, rng.randrange(m)))))
        if m > 1:
            out.append(proportional_rows(rng, m))
    return out


def bareiss_then_units():
    """Matrices [[A, B], [C, S + C A^-1 B]] with A = [[2, 3], [3, 5]] and no
    unit entry.  Two Bareiss steps on A's columns leave d = det A = 1 and the
    Schur complement S, of units and zeros, in the lower rows, where unit steps
    follow.  In the last matrix C's first row is (2, 3), so the second step
    skips that row, and its units appear only when a unit step brings it up
    to date (scale 2 against d = 1)."""
    c = lambda x: (0, (x,)) if x else (0, ())  # noqa: E731
    top = [[c(2), c(3), c(2), c(0)], [c(3), c(5), c(0), c(2)]]
    return [
        # S = [[t, -1], [1, 0]], det 1
        top + [[c(2), c(0), (0, (20, 1)), c(-13)], [c(0), c(2), c(-11), c(8)]],
        # S = [[t, -1, 0], [1, 0, t^-1], [0, t^2, 1]], det 1 - t^2
        [top[0] + [c(4)], top[1] + [c(0)],
         [c(2), c(0), (0, (20, 1)), c(-13), c(40)],
         [c(0), c(2), c(-11), c(8), (-1, (1, -24))],
         [c(4), c(-2), c(52), (0, (-32, 0, 1)), c(105)]],
        # S = [[t, t], [1, 0]], det -t
        [[c(2), c(3), c(2), c(2)], [c(3), c(5), c(0), c(2)],
         [c(2), c(3), (0, (2, 1)), (0, (2, 1))], [c(0), c(2), c(-11), c(-4)]],
    ]


def checked_determinant(dense):
    """_determinant(dense), with its column holders and unit set compared with
    a rescan of the live entries before each pivot choice.  Returns the
    determinant and the number of steps checked."""
    steps, wrong = [], []

    def check(local):
        work, holders, units = local["work"], local["holders"], local["units"]
        rescan = {(k, c) for k, row in work.items() for c, e in row.items() if is_unit(e[1])}
        if units != rescan:
            wrong.append(("units", units, rescan))
        for c in local["columns"]:
            if holders[c] != {k for k, row in work.items() if c in row}:
                wrong.append(("holders", c, holders[c]))
        steps.append(len(work))

    det = traced(_determinant, "unit_step = ", check, dense)
    assert not wrong, wrong[0]
    return exact(det), len(steps)


def padded(dense):
    """The 4x4 block-diagonal matrix of `dense` and an identity: same det."""
    m = len(dense)
    zero, one = (0, ()), (0, (1,))
    return ([row + [zero] * (4 - m) for row in dense]
            + [[zero] * c + [one] + [zero] * (3 - c) for c in range(m, 4)])


def closure_rows(word):
    """det(rho - Id) with the columns as rows, as alexander_of_closure passes it."""
    return [list(column) for column in zip(*burau_minus_identity(word))]


def counting(calls, name, function):
    def counted(*args):
        calls.append(name)
        return function(*args)
    return counted


class TestDeterminant:
    # _determinant and the Fraction elimination of the oracle must agree
    # exactly: sign and low degree included

    def test_matches_the_fraction_oracle_on_sparse_laurent_matrices(self, monkeypatch):
        divisions = []

        def recording(a, b):
            divisions.append(b)
            return divide_coeffs(a, b)

        monkeypatch.setattr(invariants, "divide_coeffs", recording)
        kinds = set()
        for kind, dense in determinant_kinds():
            before = copy.deepcopy(dense)
            divisions.clear()
            got, _ = checked_determinant(dense)
            assert dense == before, kind
            assert got == pair_determinant(dense), (kind, dense)
            if kind == "emptied":  # unit pivots all the way: no division at all
                assert divisions == [], (kind, dense)
            if kind in ("zero pivot", "proportional rows"):
                assert got == (0, ()), kind
            kinds.add(kind)
        assert len(kinds) == 8

    def test_ladder_rungs_match_the_fraction_oracle(self):
        word = parse_braid("s1^3", 2)
        for q in (3, 5, 9, 17):
            word = cable_staircase(word, CableSpec(p=2, q=q, base_strands=word.strands))
            rows = burau_minus_identity(word)
            assert exact(_determinant(rows)) == burau_determinant(word), word.strands
        assert word.strands == 32

    def test_small_matrices_match_the_fraction_oracle_and_their_padding(self):
        # sizes 0-3 take the same elimination as the larger ones: the empty
        # matrix, 1x1 entries that are zero, units +-t^k and non-units, and the
        # seeded 1x1-3x3 matrices, each also as the 4x4 block diagonal with
        # an identity, which adds unit pivots
        matrices = [dense for kind, dense in determinant_kinds() if kind in ("empty", "1x1")]
        matrices += small_matrices()
        assert len(matrices) >= 600 and {len(dense) for dense in matrices} == {0, 1, 2, 3}
        dets = set()
        for dense in matrices:
            got, _ = checked_determinant(dense)
            assert got == pair_determinant(dense), dense
            assert exact(_determinant(padded(dense))) == got, dense
            dets.add(got)
        assert (0, ()) in dets and any(len(coeffs) > 1 for _, coeffs in dets)

    def test_late_units_in_the_elimination(self):
        # the "late unit" matrices padded to 4x4, and matrices where a Bareiss
        # step leaves d a unit and unit steps follow on units that Bareiss
        # steps and a stale row's update wrote
        late = [dense for kind, dense in determinant_kinds() if kind == "late unit"]
        assert len(late) == 5
        for dense in late + bareiss_then_units():
            got, steps = checked_determinant(padded(dense))
            assert steps >= 3 and got == pair_determinant(dense), dense

    def test_rung32_kernel_traffic(self, monkeypatch):
        # the benchmark ladder's top rung: the fold clears cancelled range
        # updates without a kernel call (5,651 add_coeffs calls when every
        # range slot took one), and the elimination tests only the entries it
        # writes for a unit (2,487 is_unit calls when every step tested every
        # live entry) on the same pivot sequence, so the same products and
        # divisions
        word = ladder_rung(32)
        rows = closure_rows(word)
        calls = []
        for name in ("add_coeffs", "mul_coeffs", "divide_coeffs", "is_unit"):
            monkeypatch.setattr(invariants, name, counting(calls, name, getattr(invariants, name)))
        invariants._fold(word)
        fold = Counter(calls)
        calls.clear()
        _determinant(rows)
        det = Counter(calls)
        assert word.strands == 32 and fold["add_coeffs"] <= 3200, fold
        assert det["is_unit"] <= 400, det
        assert (det["mul_coeffs"], det["divide_coeffs"]) == (174, 10), det

    def test_table_matrices_match_the_burau_oracle(self):
        # the pair matrices of the table rows, 1x1 to 3x3; their Alexander
        # polynomials take the packed path (TestPackedPath.test_selection)
        words = table_words()
        assert len(words) == 34 and max(w.strands for w in words) == 4
        for word in words:
            assert exact(_determinant(closure_rows(word))) == burau_determinant(word)


def table_words():
    rows = json.loads(resources.files("espalier.data").joinpath("table1.json").read_text())
    return [parse_braid(r["braid"]["word"], r["braid"]["n"]) for r in rows if r["kind"] == "staircase"]


def ladder_rung(strands):
    """The (2,q)-cable ladder from the trefoil up to this many strands."""
    word = parse_braid("s1^3", 2)
    for q in (3, 5, 9, 17, 33):
        if word.strands < strands:
            word = cable_staircase(word, CableSpec(p=2, q=q, base_strands=word.strands))
    return word


def pair_path_determinant(word):
    """det(rho - Id) from the pair fold, as alexander_of_closure's pair path takes it."""
    return exact(_determinant(closure_rows(word)))


def packed_determinant(word):
    """det(rho - Id) on the packed path, or None where the word's packed
    width passes PACKED_BITS."""
    bits = invariants._packing(word)
    return bits and exact(invariants._packed_determinant(word, bits))


def seeded_words(seed, count, signs=(1, -1)):
    """Words on 1-8 strands with 0-40 letters of the given signs: knots and links."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 8)
        letters = []
        for _ in range(rng.randint(0, 40) if n > 1 else 0):
            i = rng.randint(1, n - 1)
            letters.append(BandGenerator(i, rng.randint(i + 1, n), rng.choice(signs)))
        out.append(BraidWord(n, tuple(letters)))
    return out


def width_only_packing(word):
    """B where the packed width B * digits alone stays within 4,096 bits,
    else None: the selection before range slots widened it."""
    m = word.strands - 1
    power = m if m <= 3 else 1
    bits = power * (1 + sum((g.j - g.i + 1).bit_length() for g in word.letters)) + 2
    return bits if bits * (1 + power * len(word.letters)) <= 4096 else None


def letter_bound(word):
    """G, the product of j - i + 1 over the letters a(i,j)^+-1."""
    return math.prod(g.j - g.i + 1 for g in word.letters)


def one_norm(pairs):
    return sum(abs(x) for _, coeffs in pairs for x in coeffs)


def alexander_outcome(word):
    """alexander_of_closure(word), or what it raised: the type, the message,
    and for a link the component count and the determinant it carries."""
    try:
        return alexander_of_closure(word)
    except MultiComponentClosure as exc:
        return "link", str(exc), exc.components, exc.determinant
    except (ExactDivisionError, ToolkitError) as exc:
        return type(exc).__name__, str(exc)


class TestPackedPath:
    # the fold and the determinant on integers at t = 2^B must give the pair
    # path's determinant exactly, sign and power of t included

    def test_packed_determinant_equals_the_pair_determinant(self):
        packed = knots = links = negative = 0
        for word in seeded_words(3001, 2000):
            got = packed_determinant(word)
            if got is None:
                continue
            packed += 1
            knots += word.components == 1
            links += word.components > 1
            negative += any(g.sign < 0 for g in word.letters)
            assert got == pair_path_determinant(word), (word.strands, format_braid(word))
        assert packed >= 1500 and knots >= 400 and links >= 1000 and negative >= 1300

    def test_past_the_cutoff(self, monkeypatch):
        # with no cutoff every word is packed: long words on up to 4 strands
        # keep the cofactor expansion on wide integers, and from 5 strands on
        # the entries are decoded for the elimination
        rng = random.Random(3012)
        words = [w for w in seeded_words(3002, 400) if invariants._packing(w) is None]
        words += [random_word(rng, rng.randint(5, 8), rng.randint(120, 160)) for _ in range(12)]
        assert all(invariants._packing(w) is None for w in words)
        monkeypatch.setattr(invariants, "PACKED_BITS", 10**7)
        assert len(words) >= 60 and {w.strands for w in words} >= {3, 4, 5, 8}
        for word in words:
            assert packed_determinant(word) == pair_path_determinant(word), format_braid(word)

    def test_edge_cases(self):
        # n = 1: the empty matrix, determinant 1, the unknot
        assert packed_determinant(BraidWord(1, ())) == (0, (1,)) == pair_path_determinant(BraidWord(1, ()))
        assert alexander_of_closure(BraidWord(1, ())) == lp(0, [1])
        # the empty word on n >= 2 strands: rho - Id = 0
        for n in range(2, 6):
            assert packed_determinant(BraidWord(n, ())) == (0, ()) == pair_path_determinant(BraidWord(n, ()))
        # zero determinants of nonempty words
        zeros = [w for w in seeded_words(3003, 600) if w.letters and invariants._packing(w)
                 and pair_path_determinant(w) == (0, ())]
        assert len(zeros) >= 5
        for word in zeros:
            assert packed_determinant(word) == (0, ()), format_braid(word)
        # all-negative words: every division by t is a shift of a t^K-scaled entry
        knots = 0
        for word in seeded_words(3004, 300, signs=(-1,)):
            got = packed_determinant(word)
            if got is not None:
                assert got == pair_path_determinant(word), format_braid(word)
                if word.letters and word.components == 1 and len(artin_letters(word)) <= 24:
                    knots += 1
                    fox = fox_alexander(word)
                    mine = list(alexander_of_closure(word).coefficients)
                    assert mine == fox or mine == [-c for c in fox], format_braid(word)
        assert knots >= 10

    def test_alexander_and_its_errors_match_on_both_paths(self, monkeypatch):
        # links carry the same determinant.  A link passed off as a knot (its
        # cached component count set to 1) fails the |f(1)| = 1 check, and
        # with 1 + ... + t^n as the normalization's divisor in place of
        # 1 + ... + t^(n-1), knot words fail the exact division, with the
        # same message on both paths; the elimination's divisions stay exact
        words = [w for w in seeded_words(3005, 300) if w.letters]
        fakes = []
        for word in words:
            if word.components > 1:
                fake = BraidWord(word.strands, word.letters)
                vars(fake)["components"] = 1  # the cached property, read before any count
                fakes.append(fake)
        real = invariants.divide_coeffs

        def longer(a, b):
            if sys._getframe(1).f_code is alexander_of_closure.__code__:
                b = b[0], [1, *b[1]]
            return real(a, b)

        def outcomes():
            plain = [alexander_outcome(w) for w in words + fakes]
            with monkeypatch.context() as patch:
                patch.setattr(invariants, "divide_coeffs", longer)
                return plain, [alexander_outcome(w) for w in words]

        assert sum(bool(invariants._packing(w)) for w in words) >= 200
        packed = outcomes()
        monkeypatch.setattr(invariants, "PACKED_BITS", 0)
        assert not any(invariants._packing(w) for w in words)
        assert outcomes() == packed
        kinds = Counter(out[0] if isinstance(out, tuple) else "knot" for out in packed[0] + packed[1])
        assert kinds["knot"] >= 20 and kinds["link"] >= 100, kinds
        assert kinds["ToolkitError"] >= 100 and kinds["ExactDivisionError"] >= 20, kinds

    def test_fold_entries_stay_within_the_letter_bound(self):
        # each letter a(i,j)^+-1 multiplies a column's 1-norm by at most
        # j - i + 1, so every suffix's fold has columns of 1-norm at most G
        for word in seeded_words(3006, 60):
            for k in range(len(word.letters) + 1):
                suffix = BraidWord(word.strands, word.letters[k:])
                bound = letter_bound(suffix)
                for u in invariants._fold(suffix):
                    assert one_norm(u) <= bound, format_braid(suffix)
                    assert all(abs(x) <= bound for _, coeffs in u for x in coeffs)

    def test_small_determinants_stay_within_the_decode_bound(self, monkeypatch):
        # for m <= 3, ||det||_1 <= (G + 1)^m < 2^(B - 1), with B from _packing
        monkeypatch.setattr(invariants, "PACKED_BITS", 10**7)
        words = [w for w in seeded_words(3007, 1000) if 2 <= w.strands <= 4]
        assert len(words) >= 300
        for word in words:
            m = word.strands - 1
            limit = (letter_bound(word) + 1) ** m
            assert one_norm([pair_path_determinant(word)]) <= limit, format_braid(word)
            assert 2 ** (invariants._packing(word) - 1) > limit, format_braid(word)

    def test_selection(self, monkeypatch):
        # every table word takes the packed path: no kernel call in the fold
        # or the determinant.  The cable rungs, whose long bands have range
        # slots, take the packed fold; the chain knots (all Artin letters, no
        # range slots) and the long 4-strand words, whose packed width passes
        # the cutoff, take the pairs
        calls = []
        for name in ("add_coeffs", "mul_coeffs", "_fold", "_packed_fold"):
            monkeypatch.setattr(invariants, name, counting(calls, name, getattr(invariants, name)))
        words = table_words()
        assert len(words) == 34
        for word in words:
            alexander_of_closure(word)
        assert set(calls) == {"_packed_fold"}
        for strands in (8, 16, 32, 64):
            rung = ladder_rung(strands)
            assert rung.strands == strands and invariants._packing(rung), strands
            calls.clear()
            alexander_of_closure(rung)
            assert "_packed_fold" in calls and "_fold" not in calls, strands
        long4 = load_tool("time_layers").build(espalier, "long4")[1]
        assert len(long4) == 20
        for word in (chain_knot(30), chain_knot(50), chain_knot(100), *long4):
            assert invariants._packing(word) is None, word.strands
        calls.clear()
        alexander_of_closure(chain_knot(30))
        assert "_fold" in calls and "_packed_fold" not in calls

    def test_range_slots_only_widen_the_cutoff(self):
        # B is the width-only rule's B wherever that rule packed a word
        kept = 0
        for word in seeded_words(3013, 2000) + table_words() + [ladder_rung(8)]:
            bits = width_only_packing(word)
            if bits:
                kept += 1
                assert invariants._packing(word) == bits, format_braid(word)
        assert kept >= 1500

    @pytest.mark.parametrize("strands", [16, 32, 64])
    def test_wide_rungs_match_the_pair_determinant(self, strands):
        rung = ladder_rung(strands)
        assert packed_determinant(rung) == pair_path_determinant(rung)

    def test_unpack_round_trip(self):
        # signed base-2^B digits of size up to 2^(B-1) - 1 come back exactly,
        # zero digits inside the span and at both ends included
        rng = random.Random(3014)
        widths = [2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 57, 63, 64, 65, 157, 421, 1093, 1100]
        widths += [rng.randint(2, 1100) for _ in range(12)]
        spans = [1, 2, 15, 16, 17, 31, 32, 33, 48, 49, 400]
        for bits in widths:
            top = (1 << bits - 1) - 1
            for span in spans + [rng.randint(1, 400) for _ in range(3)]:
                digits = [rng.choice((top, -top, 0, rng.randint(-top, top))) for _ in range(span)]
                if rng.random() < 0.5:
                    digits[-1] = rng.choice((top, -top))
                below = rng.randint(0, 3)
                value = sum(d << (k + below) * bits for k, d in enumerate(digits))
                low = rng.randint(-60, 20)
                nonzero = [k for k, d in enumerate(digits) if d]
                if not nonzero:
                    assert invariants._unpack(value, bits, low) == invariants.ZERO_PAIR
                    continue
                kept = digits[nonzero[0]:nonzero[-1] + 1]
                start = low + below + nonzero[0]
                assert invariants._unpack(value, bits, low) == (start, kept), (bits, span)
                assert invariants._unpack(-value, bits, low) == (start, [-d for d in kept]), (bits, span)


def burau_minus_identity(word):
    return [[add_coeffs(e.pair, lp(0, [1]).pair, -1) if r == c else e.pair for c, e in enumerate(row)]
            for r, row in enumerate(reduced_burau(word))]


def polynomial_alexander(word):
    """The reference normalization: det (1 - t) / (1 - t^n) in frozen
    polynomials on the Fraction oracle's determinant, centred, with the sign
    read off f(1), the coefficient sum, and where f(1) = 0, off the lowest
    coefficient."""
    det = mul_coeffs(burau_determinant(word), (0, [1, -1]))
    poly = LaurentPolynomial.from_pair(
        divide_coeffs(det, (0, [1] + [0] * (word.strands - 1) + [-1])))
    coeffs = poly.coefficients
    at_one = sum(coeffs)
    if at_one < 0 or (at_one == 0 and coeffs[0] < 0):
        coeffs = tuple(-c for c in coeffs)
    return LaurentPolynomial(-poly.span // 2, coeffs)


class TestAlexander:
    def test_trefoil(self):
        assert alexander_of_closure(parse_braid("s1^3", 2)) == lp(-1, [1, -1, 1])

    def test_unknot(self):
        assert alexander_of_closure(parse_braid("s1", 2)) == lp(0, [1])

    def test_figure_eight(self):
        # s1 s2^-1 s1 s2^-1 closes to 4_1 with polynomial -t^-1 + 3 - t
        got = alexander_of_closure(parse_braid("s1 s2^-1 s1 s2^-1", 3))
        assert got == lp(-1, [-1, 3, -1])

    def test_reference_row_from_data_file(self):
        rows = json.loads(resources.files("espalier.data").joinpath("table1.json").read_text())
        rows = [r for r in rows if r["kind"] == "staircase"]
        assert len(rows) == 34 and any(r["name"] == "10_161" for r in rows)
        for row in rows:
            w = parse_braid(row["braid"]["word"], row["braid"]["n"])
            ref = lp(row["alexander"]["min_deg"], row["alexander"]["coeffs"])
            got = alexander_of_closure(w)
            assert got.equal_up_to_units(ref), row["name"]
            assert got == polynomial_alexander(w), row["name"]
            # the Fox oracle runs the code that computed the committed polynomials
            fox = table_builder.normalize(
                table_builder.wirtinger_alexander(w.strands, artin_letters(w)))
            assert fox == (row["alexander"]["min_deg"], row["alexander"]["coeffs"]), row["name"]
            assert fox_alexander(w) == fox[1], row["name"]

    def test_multi_component_rejected_with_determinant(self):
        with pytest.raises(MultiComponentClosure) as err:
            alexander_of_closure(parse_braid("s1^2", 2))
        assert err.value.components == 2
        assert err.value.determinant is not None

    def test_link_determinant_keeps_its_sign(self):
        # the carried determinant is det(rho - Id) exactly, power of t included
        rng = random.Random(4103)
        links = 0
        while links < 40:
            w = random_word(rng, rng.randint(2, 6), rng.randint(0, 10))
            if w.components == 1:
                continue
            links += 1
            with pytest.raises(MultiComponentClosure) as err:
                alexander_of_closure(w)
            assert err.value.determinant == lp(*burau_determinant(w)), format_braid(w)

    def test_markov_stabilization_invariance(self):
        rng = random.Random(17)
        for _ in range(20):
            w = random_knot_word(rng, (2, 4), (1, 7))
            stabilized = concat(
                BraidWord(w.strands + 1, w.letters),
                parse_braid(f"s{w.strands}", w.strands + 1),
            )
            assert alexander_of_closure(stabilized) == alexander_of_closure(w)

    def test_conjugation_and_rotation_invariance(self):
        rng = random.Random(18)
        for _ in range(15):
            w = random_knot_word(rng, (2, 4), (1, 6))
            poly = alexander_of_closure(w)
            for rotated in cyclic_rotations(w):
                assert alexander_of_closure(rotated) == poly
            for _ in range(3):
                by = random_knot_word(rng, (w.strands, w.strands), (0, 3))
                assert alexander_of_closure(conjugate(w, by)) == poly

    def test_symmetry_and_value_at_one(self):
        rng = random.Random(19)
        for _ in range(25):
            poly = alexander_of_closure(random_knot_word(rng, (2, 5), (1, 8)))
            assert poly.coefficients == tuple(reversed(poly.coefficients))
            assert sum(poly.coefficients) == 1

    def test_agrees_with_fox_calculus(self):
        rng = random.Random(20)
        for _ in range(40):
            w = random_knot_word(rng, (2, 4), (1, 8))
            mine = alexander_of_closure(w)
            fox = fox_alexander(w)
            assert list(mine.coefficients) == fox or list(mine.coefficients) == [-c for c in fox]
            assert mine == polynomial_alexander(w), format_braid(w)


def inverse_heavy_word(rng, n, length):
    """A random band word on n strands with at most a third of its letters positive."""
    signs = [-1] * length
    for k in rng.sample(range(length), rng.randint(0, length // 3)):
        signs[k] = 1
    letters = []
    for sign in signs:
        i = rng.randint(1, n - 1)
        letters.append(BandGenerator(i, rng.randint(i + 1, n), sign))
    return BraidWord(n, tuple(letters))


def chain_knot(n):
    """s1^3 s2^-1 s3^3 s4^-1 ... on n strands: one knot for every n."""
    return parse_braid(" ".join(f"s{k}^3" if k % 2 else f"s{k}^-1" for k in range(1, n)), n)


class TestInverseHeavyWords:
    # at least 2/3 of the letters negative, n 2-8: fold entries and Bareiss
    # minors reach far below degree 0, so every kernel moves the low degree

    def test_fold_and_link_determinant_match_artin_reference(self):
        rng = random.Random(4104)
        links = 0
        for _ in range(200):
            w = inverse_heavy_word(rng, rng.randint(2, 8), rng.randint(1, 14))
            assert 3 * sum(g.sign < 0 for g in w.letters) >= 2 * len(w.letters)
            assert reduced_burau(w) == artin_burau(w), format_braid(w)
            if w.components > 1:
                links += 1
                with pytest.raises(MultiComponentClosure) as err:
                    alexander_of_closure(w)
                assert err.value.determinant == lp(*burau_determinant(w)), format_braid(w)
        assert links >= 50

    def test_knot_closures_match_fox_calculus(self):
        rng = random.Random(4105)
        words = [chain_knot(n) for n in range(2, 9)]
        for n in range(2, 9):
            knots = 0
            while knots < 5:  # the Fox oracle is cubic in the Artin length; keep it short
                w = inverse_heavy_word(rng, n, rng.randint(n - 1, n + 4))
                if w.components == 1 and len(artin_letters(w)) <= 32:
                    words.append(w)
                    knots += 1
        for w in words:
            mine = list(alexander_of_closure(w).coefficients)
            fox = fox_alexander(w)
            assert mine == fox or mine == [-c for c in fox], format_braid(w)


class TestTorusAndSatellite:
    def test_small_torus_knots(self):
        assert torus_alexander(2, 3) == lp(-1, [1, -1, 1])
        for p, q in ((1, 1), (1, 2), (1, 9), (2, 1), (7, 1)):
            assert torus_alexander(p, q) == lp(0, [1]), (p, q)
        assert torus_alexander(3, 4) == alexander_of_closure(parse_braid("a1^3 a2 a1^3 a2", 3))

    def test_torus_rejects_non_coprime(self):
        with pytest.raises(ToolkitError):
            torus_alexander(2, 4)

    def test_satellite_formula(self):
        trefoil = torus_alexander(2, 3)
        got = satellite_alexander(trefoil, 2, 3)
        spread = from_degrees({2 * (trefoil.min_degree + k): c
                               for k, c in enumerate(trefoil.coefficients)})
        assert got == (spread * trefoil).symmetric_normalize()

    def test_satellite_rejects_bad_parameters_and_keeps_zero(self):
        # torus_alexander(p, q) rejects them, p, q < 1 before the base is
        # spread with stride p
        for base in (torus_alexander(2, 3), lp(0, [])):
            for p, q in ((0, 1), (-1, 2), (1, 0), (0, 3)):
                with pytest.raises(ToolkitError, match="torus parameters must be positive"):
                    satellite_alexander(base, p, q)
            for p, q in ((2, 4), (3, 6)):
                with pytest.raises(ToolkitError, match="torus knot needs coprime parameters"):
                    satellite_alexander(base, p, q)
        for p, q in ((1, 1), (2, 3), (3, 2)):
            assert satellite_alexander(lp(0, []), p, q) == lp(0, [])

    def test_multiplicativity_under_connected_sum(self):
        rng = random.Random(23)
        for _ in range(20):
            a = random_knot_word(rng, (2, 3), (1, 6))
            b = random_knot_word(rng, (2, 3), (1, 6))
            total = alexander_of_closure(connected_sum_words(a, b))
            assert total.equal_up_to_units(alexander_of_closure(a) * alexander_of_closure(b))


def has_fibered_shape(word):
    return fibered_shape(alexander_of_closure(word), genus_of_knot_closure(word))


class TestFiberedDegreeCheck:
    def test_torus_words(self):
        assert has_fibered_shape(parse_braid("s1^3", 2))
        assert has_fibered_shape(parse_braid("s1^5", 2))

    def test_inefficient_word_fails(self):
        # unknot written with three letters: the chi-genus overshoots the span
        assert not has_fibered_shape(parse_braid("s1^2 s1^-1", 2))

    def test_non_monic_extremes_fail(self):
        # a 4-strand closure with Alexander 4t^-1 - 7 + 4t
        w = parse_braid("a(3,4) a(2,4) a(2,3)^-1 a(3,4) a(2,3) a(1,2) a(1,3)", 4)
        assert alexander_of_closure(w) == lp(-1, [4, -7, 4])
        assert not has_fibered_shape(w)

    def test_zero_polynomial_is_not_fibered_shaped(self):
        # span 0 and genus 0 match, but the zero polynomial has no extremes
        assert not fibered_shape(lp(0, []), 0)
        assert fibered_shape(lp(0, [1]), 0)
