"""Reduced Burau representation and the Alexander polynomial of braid closures.

This module is the toolkit's verification oracle, so the Burau convention is
fixed once and then *proved* consistent by relation tests rather than cited:
sigma_i sends e_{i-1} -> e_{i-1} + t e_i, e_i -> -t e_i, e_{i+1} -> e_i + e_{i+1}
on the basis e_1..e_{n-1} (missing vectors at the boundary are dropped).

For a knot closure of a word beta on n strands,
    Alexander(t)  =  det(rho(beta) - Id) (1 - t) / (1 - t^n)
up to units, normalized here to the symmetric representative with value +1
at t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .braid import BraidWord, closure_components, to_artin
from .errors import ExactDivisionError, MultiComponentClosure, ToolkitError
from .laurent import ONE, ZERO, LaurentPolynomial, T
from .surface import genus_of_knot_closure

__all__ = [
    "BurauMatrix",
    "reduced_burau",
    "alexander_of_closure",
    "torus_alexander",
    "satellite_alexander",
    "fibered_degree_check",
    "fibered_shape",
]

_T_INV = LaurentPolynomial(-1, (1,))


@dataclass(frozen=True)
class BurauMatrix:
    """An (n-1) x (n-1) matrix over the Laurent ring, rows of columns."""

    strands: int
    entries: tuple[tuple[LaurentPolynomial, ...], ...]

    @property
    def size(self) -> int:
        return self.strands - 1


def reduced_burau(word: BraidWord) -> BurauMatrix:
    """Image of the word; bands expand through to_artin first."""
    n = word.strands
    m = n - 1
    rows = [[ONE if r == c else ZERO for c in range(m)] for r in range(m)]
    # fold one Artin letter at a time; rho(sigma_i) touches three columns only
    for g in to_artin(word).letters:
        i = g.i
        col = i - 1  # 0-based column of e_i
        if g.sign > 0:
            # e_{i-1} += t e_i ; e_i *= -t ; e_{i+1} += e_i   (as column updates)
            for r in range(m):
                ei = rows[r][col]
                if col > 0:
                    rows[r][col - 1] = rows[r][col - 1] + ei * T
                if col + 1 < m:
                    rows[r][col + 1] = rows[r][col + 1] + ei
                rows[r][col] = ei * -1 * T
        else:
            # inverse: e_{i-1} += e_i ; e_i *= -t^-1 ; e_{i+1} += t^-1 e_i
            for r in range(m):
                ei = rows[r][col]
                if col > 0:
                    rows[r][col - 1] = rows[r][col - 1] + ei
                if col + 1 < m:
                    rows[r][col + 1] = rows[r][col + 1] + ei * _T_INV
                rows[r][col] = ei * -1 * _T_INV
    return BurauMatrix(n, tuple(tuple(r) for r in rows))


def _determinant(rows: list[list[LaurentPolynomial]]) -> LaurentPolynomial:
    """Fraction-free Bareiss elimination; every interior division is exact."""
    m = len(rows)
    if m == 0:
        return ONE
    # shift each row to plain polynomials; the dropped unit t^k is irrelevant
    # because every caller compares up to units or divides exactly afterwards
    work = []
    for row in rows:
        low = min((e.min_degree for e in row if not e.is_zero), default=0)
        work.append([e.shifted(-low) for e in row])
    sign = 1
    prev = ONE
    for k in range(m - 1):
        if work[k][k].is_zero:
            pivot_row = next((r for r in range(k + 1, m) if not work[r][k].is_zero), None)
            if pivot_row is None:
                return ZERO
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        for r in range(k + 1, m):
            for c in range(k + 1, m):
                num = work[r][c] * work[k][k] - work[r][k] * work[k][c]
                work[r][c] = num.divide_exact(prev)
            work[r][k] = ZERO
        prev = work[k][k]
    return work[m - 1][m - 1] * sign


def alexander_of_closure(word: BraidWord) -> LaurentPolynomial:
    """Symmetric normalized Alexander polynomial of the closure knot.

    Raises MultiComponentClosure for links; the exception carries the raw
    determinant det(rho - Id) for callers that want it anyway.
    """
    n = word.strands
    components = closure_components(word)
    rho = reduced_burau(word)
    rows = [
        [e - ONE if r == c else e for c, e in enumerate(row)]
        for r, row in enumerate(rho.entries)
    ]
    det = _determinant(rows)
    if components != 1:
        raise MultiComponentClosure(
            f"closure has {components} components; Alexander normalization needs a knot",
            determinant=det,
            components=components,
        )
    one_minus_t = ONE - T
    one_minus_tn = ONE - LaurentPolynomial.from_coefficients(n, [1])
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


def fibered_degree_check(word: BraidWord) -> bool:
    """Whether span(Alexander)/2 matches the chi-genus with monic extremes.

    Both hold for fibered knots whose braided surface realizes the maximal
    Euler characteristic (e.g. staircase words); failure flags a bad word.
    """
    return fibered_shape(alexander_of_closure(word), genus_of_knot_closure(word))


def fibered_shape(poly: LaurentPolynomial, genus: int) -> bool:
    """fibered_degree_check on an Alexander polynomial and genus already computed."""
    return poly.span == 2 * genus and abs(poly.coefficients[0]) == abs(poly.coefficients[-1]) == 1
