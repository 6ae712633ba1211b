import json
import random
from importlib import resources

import pytest
from hypothesis import example, given, strategies as st

from espalier import invariants
from espalier.braid import (
    BandGenerator,
    BraidWord,
    closure_components,
    format_braid,
    invert,
    parse_braid,
    to_artin,
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
from espalier.laurent import ONE, ZERO, LaurentPolynomial, add_coeffs, divide_coeffs, mul_coeffs
from espalier.surface import genus_of_knot_closure
from oracles import (
    artin_burau,
    burau_determinant,
    concat,
    conjugate,
    cyclic_rotations,
    fox_alexander,
    from_degrees,
    pair_determinant,
    random_knot_word,
    random_word,
)


def lp(min_deg, coeffs):
    return LaurentPolynomial.from_coefficients(min_deg, coeffs)


class TestLaurentArithmetic:
    def test_substitute_power(self):
        f = lp(-1, [1, -1, 1])  # t^-1 - 1 + t
        assert f.substitute_power(2) == lp(-2, [1, 0, -1, 0, 1])

    def test_equal_up_to_units(self):
        assert lp(0, [1, -1, 1]).equal_up_to_units(lp(-1, [1, -1, 1]))
        assert lp(0, [1, -1, 1]).equal_up_to_units(lp(3, [-1, 1, -1]))
        assert not lp(0, [1, -1, 1]).equal_up_to_units(lp(0, [1, 1, 1]))

    def test_symmetric_normalize(self):
        assert lp(0, [-1, 1, -1]).symmetric_normalize() == lp(-1, [1, -1, 1])
        assert lp(5, [1]).symmetric_normalize() == ONE
        assert lp(3, [-1, -1, -1]).symmetric_normalize() == lp(-1, [1, 1, 1])  # f(1) = -3
        assert ZERO.symmetric_normalize() == ZERO

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
        product = lp(0, [1, -1]) * lp(-2, [2, 0, 5])
        assert product.divide_exact(lp(-2, [2, 0, 5])) == lp(0, [1, -1])
        with pytest.raises(ExactDivisionError):
            lp(0, [1, 1, 1]).divide_exact(lp(0, [1, 1]))

    def test_str(self):
        assert str(lp(-1, [1, -1, 1])) == "t^-1 - 1 + t"
        assert str(ZERO) == "0"


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
    assert frozen(add_coeffs(f, ZERO.pair)) == frozen(f)
    assert frozen(mul_coeffs(f, ONE.pair)) == frozen(f)
    assert frozen(add_coeffs(f, f, -1)) == ZERO


@given(polys(), polys())
def test_exact_division_undoes_multiplication(f, g):
    if not g.is_zero:
        assert (f * g).divide_exact(g) == f


@given(polys(), st.integers(1, 4))
@example(ZERO, 3)
@example(lp(-2, [5]), 1)
@example(lp(3, [-1]), 4)
def test_substitution_is_multiplicative(f, p):
    g = lp(0, [1, 1])
    assert (f * g).substitute_power(p) == f.substitute_power(p) * g.substitute_power(p)
    terms = {p * (f.min_degree + k): c for k, c in enumerate(f.coefficients)}
    assert f.substitute_power(p) == from_degrees(terms)


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
                    ONE if r == k else ZERO for r in range(w.strands - 1)
                ], format_braid(w)
            skipped += len(untouched)
        assert skipped >= 150


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


def sparse(dense):
    return [{c: e for c, e in enumerate(row) if e[1]} for row in dense]


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
    for _ in range(40):
        m = rng.randint(2, 7)
        out.append(("units", random_matrix(rng, m, 0.5)))
        out.append(("no units", random_matrix(rng, m, 0.0)))
        out.append(("emptied", unit_triangular(rng, m)))
        out.append(("zero pivot", unit_triangular(rng, m, rng.randrange(m))))
        out.append(("proportional rows", proportional_rows(rng, m)))
    return out


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
            rows = sparse(dense)
            before = [dict(row) for row in rows]
            divisions.clear()
            got = exact(_determinant(rows))
            assert rows == before, kind
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
            rows = sparse(burau_minus_identity(word))
            assert exact(_determinant(rows)) == burau_determinant(word), word.strands
        assert word.strands == 32


def burau_minus_identity(word):
    return [[add_coeffs(e.pair, ONE.pair, -1) if r == c else e.pair for c, e in enumerate(row)]
            for r, row in enumerate(reduced_burau(word))]


def polynomial_alexander(word):
    """The reference normalization: det (1 - t) / (1 - t^n) in frozen
    polynomials on the Fraction oracle's determinant, centred, with the sign
    read off f(1), the coefficient sum, and where f(1) = 0, off the lowest
    coefficient."""
    det = lp(*burau_determinant(word))
    poly = (det * lp(0, [1, -1])).divide_exact(lp(0, [1] + [0] * (word.strands - 1) + [-1]))
    coeffs = poly.coefficients
    at_one = sum(coeffs)
    if at_one < 0 or (at_one == 0 and coeffs[0] < 0):
        coeffs = tuple(-c for c in coeffs)
    return LaurentPolynomial(-poly.span // 2, coeffs)


class TestAlexander:
    def test_trefoil(self):
        assert alexander_of_closure(parse_braid("s1^3", 2)) == lp(-1, [1, -1, 1])

    def test_unknot(self):
        assert alexander_of_closure(parse_braid("s1", 2)) == ONE

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
            if closure_components(w) == 1:
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
            if closure_components(w) > 1:
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
                if closure_components(w) == 1 and len(to_artin(w)) <= 32:
                    words.append(w)
                    knots += 1
        for w in words:
            mine = list(alexander_of_closure(w).coefficients)
            fox = fox_alexander(w)
            assert mine == fox or mine == [-c for c in fox], format_braid(w)


class TestTorusAndSatellite:
    def test_small_torus_knots(self):
        assert torus_alexander(2, 3) == lp(-1, [1, -1, 1])
        assert torus_alexander(1, 9) == ONE
        assert torus_alexander(3, 4) == alexander_of_closure(parse_braid("a1^3 a2 a1^3 a2", 3))

    def test_torus_rejects_non_coprime(self):
        with pytest.raises(ToolkitError):
            torus_alexander(2, 4)

    def test_satellite_formula(self):
        trefoil = torus_alexander(2, 3)
        got = satellite_alexander(trefoil, 2, 3)
        assert got == (trefoil.substitute_power(2) * trefoil).symmetric_normalize()

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
        assert not fibered_shape(ZERO, 0)
        assert fibered_shape(ONE, 0)
