"""Reduced Burau representation and the Alexander polynomial of braid closures.

This module is the toolkit's verification oracle, so the Burau convention is
fixed once and then *proved* consistent by relation tests rather than cited:
sigma_i sends e_{i-1} -> e_{i-1} + t e_i, e_i -> -t e_i, e_{i+1} -> e_i + e_{i+1}
on the basis e_1..e_{n-1} (missing vectors at the boundary are dropped).

A band is applied whole, without expanding it into Artin letters: with
x = e_i + ... + e_{j-1} and y = t e_{i-1} - e_i - t e_{j-1} + e_j (boundary
terms dropped),
    rho(a(i,j)) = I + x y^T,    rho(a(i,j)^-1) = I + x y^T / t,
the inverse by Sherman-Morrison since 1 + y^T x = -t (Birman, Ko and Lee
1998 for the band generators).  So one letter costs the column sum v = M x
and four monomial multiples of v added to columns; a multiple by t or 1/t
only moves the low degree of v.  The fold and the determinant run on the
(low, coefficients) pairs of `laurent` and its kernels, so the determinant
det(rho(beta) - Id) comes out exactly, power of t included.

For a knot closure of a word beta on n strands,
    Alexander(t)  =  det(rho(beta) - Id) (1 - t) / (1 - t^n)
up to units, normalized here to the symmetric representative with value +1
at t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .braid import BraidWord, _cycles, closure_components
from .errors import ExactDivisionError, MultiComponentClosure, ToolkitError
from .laurent import (
    ONE,
    ZERO_PAIR,
    LaurentPolynomial,
    Pair,
    T,
    add_coeffs,
    divide_coeffs,
    mul_coeffs,
)

__all__ = [
    "BurauMatrix",
    "reduced_burau",
    "alexander_of_closure",
    "torus_alexander",
    "satellite_alexander",
    "fibered_shape",
]


@dataclass(frozen=True)
class BurauMatrix:
    """An (n-1) x (n-1) matrix over the Laurent ring, rows of columns."""

    strands: int
    entries: tuple[tuple[LaurentPolynomial, ...], ...]


def _fold(word: BraidWord) -> list[list[Pair]]:
    """rho(word) as rows of (low, coefficients) pairs."""
    m = word.strands - 1
    one = ONE.pair
    rows = [[one if r == c else ZERO_PAIR for c in range(m)] for r in range(m)]
    for g in word.letters:
        lo, hi = g.i - 1, g.j - 2  # 0-based columns of e_i and e_{j-1}
        left, right = lo - 1, hi + 1  # columns of e_{i-1} and e_j, if in range
        for row in rows:
            v = row[lo]
            for e in row[lo + 1:hi + 1]:
                if e[1]:
                    v = add_coeffs(v, e)
            if not v[1]:
                continue
            if g.sign > 0:  # M += v (t e_{i-1} - e_i - t e_{j-1} + e_j)^T
                v_low, v_high = v, (v[0] + 1, v[1])
            else:  # M += v (e_{i-1} - e_i/t - e_{j-1} + e_j/t)^T
                v_low, v_high = (v[0] - 1, v[1]), v
            if left >= 0:
                row[left] = add_coeffs(row[left], v_high)
            row[lo] = add_coeffs(row[lo], v_low, -1)
            row[hi] = add_coeffs(row[hi], v_high, -1)
            if right < m:
                row[right] = add_coeffs(row[right], v_low)
    return rows


def reduced_burau(word: BraidWord) -> BurauMatrix:
    """Image of the word, one band at a time."""
    return BurauMatrix(
        word.strands,
        tuple(tuple(map(LaurentPolynomial.from_pair, row)) for row in _fold(word)),
    )


def _determinant(rows: list[list[Pair]]) -> Pair:
    """Fraction-free Bareiss elimination on (low, coefficients) pairs; every
    interior division is exact in the Laurent ring.

    Burau matrices of long words are sparse, so each row keeps only its
    nonzero entries, columns are eliminated from the lightest (fewest
    coefficients) to the heaviest, and each step pivots on the shortest entry
    of its column.  A row with a zero in the pivot column would only be scaled
    by pivot / prev; those scalings telescope, so the row is brought up to
    date by one product and one exact division when a later step uses it.
    """
    m = len(rows)
    weight = [sum(len(row[c][1]) for row in rows) for c in range(m)]
    order = sorted(range(m), key=weight.__getitem__)
    sign = -1 if (m - len(_cycles(tuple(order)))) % 2 else 1
    work = [{k: row[c] for k, c in enumerate(order) if row[c][1]} for row in rows]
    level = [0] * m  # row r holds its entries after step level[r]
    pivots = [ONE.pair]  # pivots[k] is the divisor of step k
    live = list(range(m))
    for k in range(m):
        hits = [r for r in live if k in work[r]]
        if not hits:
            return ZERO_PAIR
        top = min(hits, key=lambda r: len(work[r][k][1]))
        position = live.index(top)
        del live[position]
        if position % 2:
            sign = -sign
        prev = pivots[k]
        for r in hits:
            if level[r] < k:
                stale = pivots[level[r]]
                work[r] = {c: divide_coeffs(mul_coeffs(e, prev), stale) for c, e in work[r].items()}
        pivot_row = work[top]
        pivot = pivot_row.pop(k)
        for r in hits:
            if r == top:
                continue
            row = work[r]
            first = row.pop(k)
            for c in row.keys() | pivot_row.keys():
                num = add_coeffs(
                    mul_coeffs(row.get(c, ZERO_PAIR), pivot),
                    mul_coeffs(first, pivot_row.get(c, ZERO_PAIR)),
                    -1,
                )
                if num[1]:
                    row[c] = divide_coeffs(num, prev)
                else:
                    row.pop(c, None)
            level[r] = k + 1
        pivots.append(pivot)
    low, det = pivots[m]
    return (low, det) if sign > 0 else (low, [-c for c in det])


def alexander_of_closure(word: BraidWord) -> LaurentPolynomial:
    """Symmetric normalized Alexander polynomial of the closure knot.

    Raises MultiComponentClosure for links; the exception carries the
    determinant det(rho - Id), exactly, for callers that want it anyway.
    """
    n = word.strands
    components = closure_components(word)
    rows = _fold(word)
    for r, row in enumerate(rows):
        row[r] = add_coeffs(row[r], ONE.pair, -1)
    det = LaurentPolynomial.from_pair(_determinant(rows))
    if components != 1:
        raise MultiComponentClosure(
            f"closure has {components} components; Alexander normalization needs a knot",
            determinant=det,
            components=components,
        )
    one_minus_t = ONE - T
    one_minus_tn = ONE - LaurentPolynomial(n, (1,))
    try:
        poly = (det * one_minus_t).divide_exact(one_minus_tn)
    except ExactDivisionError as exc:
        raise ExactDivisionError(f"Burau determinant not divisible by 1 - t^{n}: {exc}") from exc
    normalized = poly.symmetric_normalize()
    if abs(normalized(1)) != 1:
        raise ToolkitError(f"knot Alexander polynomial must have |f(1)| = 1, got {normalized}")
    return normalized


def torus_alexander(p: int, q: int) -> LaurentPolynomial:
    """Alexander polynomial of the (p,q) torus knot, symmetric normalized."""
    if p < 1 or q < 1:
        raise ToolkitError(f"torus parameters must be positive, got ({p},{q})")
    if math.gcd(p, q) != 1:
        raise ToolkitError(f"torus knot needs coprime parameters, got ({p},{q})")
    if p == 1 or q == 1:
        return ONE

    def power_minus_one(k: int) -> LaurentPolynomial:
        return LaurentPolynomial.from_coefficients(0, [-1] + [0] * (k - 1) + [1])

    numerator = power_minus_one(p * q) * power_minus_one(1)
    poly = numerator.divide_exact(power_minus_one(p)).divide_exact(power_minus_one(q))
    return poly.symmetric_normalize()


def satellite_alexander(base: LaurentPolynomial, p: int, q: int) -> LaurentPolynomial:
    """Alexander polynomial of the (p,q)-cable with companion polynomial `base`."""
    if math.gcd(p, q) != 1:
        raise ToolkitError(f"cable knot needs coprime parameters, got ({p},{q})")
    return (base.substitute_power(p) * torus_alexander(p, q)).symmetric_normalize()


def fibered_shape(poly: LaurentPolynomial, genus: int) -> bool:
    """Whether span(Alexander)/2 matches the genus, with monic extremes.

    Both hold for fibered knots whose braided surface realizes the maximal
    Euler characteristic (e.g. staircase words, with the chi-genus of
    surface.genus_of_knot_closure); failure flags a bad word.
    """
    return poly.span == 2 * genus and abs(poly.coefficients[0]) == abs(poly.coefficients[-1]) == 1
