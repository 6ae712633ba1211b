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
1998 for the band generators).  The fold builds each column u = rho(beta) e_c
from the last letter to the first by u <- u + x (y^T u).  The scalar y^T u
reads only the four slots u_{i-1}, u_i, u_{j-1}, u_j, and a zero sentinel at
each end of the column stands for the dropped boundary terms; a letter with
all four slots zero leaves the column alone, so a sparse column is cheap.
A multiple by t or 1/t only moves a low degree.

The determinant det(rho(beta) - Id) is one sparse fraction-free (Bareiss)
elimination; while its divisor is a unit, a unit pivot +-t^k costs no scaling
and no division.
Fold and determinant run on the (low, coefficients) pairs of `laurent` and its
kernels, so the determinant comes out exactly, sign and power of t included.

For a knot closure of a word beta on n strands,
    Alexander(t)  =  det(rho(beta) - Id) (1 - t) / (1 - t^n)
up to units, normalized here to the symmetric representative with value +1
at t = 1.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain

from .braid import BraidWord, closure_components
from .errors import ExactDivisionError, MultiComponentClosure, ToolkitError
from .laurent import (
    ONE,
    ZERO_PAIR,
    LaurentPolynomial,
    Pair,
    add_coeffs,
    divide_coeffs,
    is_unit,
    mul_coeffs,
)

__all__ = [
    "reduced_burau",
    "alexander_of_closure",
    "torus_alexander",
    "satellite_alexander",
    "fibered_shape",
]


def _fold(word: BraidWord) -> list[list[Pair]]:
    """The columns rho(word) e_c as (low, coefficients) pairs, each padded with
    a zero sentinel at both ends: slot k holds the coefficient of e_k."""
    m = word.strands - 1
    one = ONE.pair
    columns = [[ZERO_PAIR] * (m + 2) for _ in range(m)]
    for col, u in enumerate(columns):
        u[col + 1] = one
    for g in reversed(word.letters):
        i, j = g.i, g.j
        for u in columns:
            a, b, c, d = u[i - 1], u[i], u[j - 1], u[j]
            if not (a[1] or b[1] or c[1] or d[1]):
                continue
            # u += x s with s = y^T u: the band's first slot (its last, for an
            # inverse) drops out of its own new value, which is set directly
            if g.sign > 0:  # u_i + s = t (u_{i-1} - u_{j-1}) + u_j
                up = add_coeffs(a, c, -1)
                new = add_coeffs(d, (up[0] + 1, up[1]))
                k, old, rest = i, b, range(i + 1, j)
            else:  # u_{j-1} + s = u_{i-1} + (u_j - u_i) / t
                down = add_coeffs(d, b, -1)
                new = add_coeffs(a, (down[0] - 1, down[1]))
                k, old, rest = j - 1, c, range(i, j - 1)
            u[k] = new
            if rest:
                s = add_coeffs(new, old, -1)
                if s[1]:
                    for r in rest:
                        u[r] = add_coeffs(u[r], s)
    return columns


def reduced_burau(word: BraidWord) -> tuple[tuple[LaurentPolynomial, ...], ...]:
    """Image of the word, as rows: the fold's columns, transposed."""
    rows = list(zip(*_fold(word)))[1:-1]  # drop the sentinel slots
    return tuple(tuple(map(LaurentPolynomial.from_pair, row)) for row in rows)


def _determinant(rows: list[dict[int, Pair]]) -> Pair:
    """det of a square matrix given as sparse rows {column: nonzero pair},
    exactly, sign and power of t included.

    One fraction-free elimination (Bareiss 1968): the live rows hold d times
    their Schur complement, d = 1 at the start.  While d is a unit, a step
    pivots on the unit +-t^k of least Markowitz cost (row nnz - 1) * (column
    nnz - 1), if one is left: it subtracts (e / pivot) times the pivot row,
    keeps d, and puts pivot / d into the sign and power of t.  Otherwise it
    pivots on the shortest entry p of the column with the fewest coefficients
    and takes (p a - e g) / d, exact in the Laurent ring; p becomes d.  A row
    with a zero in the pivot column would only be scaled by p / d; those
    scalings telescope, so one product and one exact division bring it up to
    date when a later step uses it.  Each pivot also brings the sign of its
    row and column positions among the live ones.
    """
    work = {r: dict(row) for r, row in enumerate(rows)}
    columns = list(range(len(rows)))  # the live columns, in order
    d = ONE.pair
    scale = dict.fromkeys(work, d)  # row r holds scale[r] times its Schur complement
    sign, shift = 1, 0
    while work:
        units = []
        if is_unit(d[1]):  # over a non-unit d, a stored unit is no unit pivot
            count = Counter(chain.from_iterable(work.values()))
            units = [((len(row) - 1) * (count[c] - 1), r, c)
                     for r, row in work.items() for c, (_, e) in row.items() if is_unit(e)]
        if units:
            _, r, c = min(units)
        else:
            weight = dict.fromkeys(columns, 0)
            for row in work.values():
                for k, (_, e) in row.items():
                    weight[k] += len(e)
            c = min(columns, key=weight.__getitem__)
        hits = [k for k, row in work.items() if c in row]
        if not hits:
            return ZERO_PAIR
        if not units:
            r = min(hits, key=lambda k: len(work[k][c][1]))
        if (list(work).index(r) + columns.index(c)) % 2:
            sign = -sign
        columns.remove(c)
        for k in hits:
            if scale[k] != d:
                work[k] = {c2: divide_coeffs(mul_coeffs(e, d), scale[k]) for c2, e in work[k].items()}
                scale[k] = d
        hits.remove(r)
        pivot_row = work.pop(r)
        pivot = pivot_row.pop(c)
        if units:
            low, (unit,) = pivot
            sign *= unit * d[1][0]
            shift += low - d[0]
        for k in hits:
            row = work[k]
            e = row.pop(c)
            if units:
                factor = (e[0] - low, e[1])  # e / pivot, up to the sign `unit`
                for c2, g in pivot_row.items():
                    out = add_coeffs(row.get(c2, ZERO_PAIR), mul_coeffs(factor, g), -unit)
                    if out[1]:
                        row[c2] = out
                    else:
                        row.pop(c2, None)
                continue
            for c2 in row.keys() | pivot_row.keys():
                num = add_coeffs(mul_coeffs(row.get(c2, ZERO_PAIR), pivot),
                                 mul_coeffs(e, pivot_row.get(c2, ZERO_PAIR)), -1)
                if num[1]:
                    row[c2] = divide_coeffs(num, d)
                else:
                    row.pop(c2, None)
            scale[k] = pivot
        if not units:
            d = pivot
    return d[0] + shift, d[1] if sign > 0 else [-x for x in d[1]]


def alexander_of_closure(word: BraidWord) -> LaurentPolynomial:
    """Symmetric normalized Alexander polynomial of the closure knot.

    Raises MultiComponentClosure for links; the exception carries the
    determinant det(rho - Id), exactly, for callers that want it anyway.
    """
    n = word.strands
    components = closure_components(word)
    columns = _fold(word)
    for c, u in enumerate(columns):
        u[c + 1] = add_coeffs(u[c + 1], ONE.pair, -1)
    # det(rho - Id) with the columns as rows: a determinant is transpose-invariant
    det = _determinant([{k: e for k, e in enumerate(u[1:-1]) if e[1]} for u in columns])
    if components != 1:
        raise MultiComponentClosure(
            f"closure has {components} components; Alexander normalization needs a knot",
            determinant=LaurentPolynomial.from_pair(det),
            components=components,
        )
    try:  # det (1 - t) / (1 - t^n)
        poly = divide_coeffs(add_coeffs(det, (det[0] + 1, det[1]), -1),
                             (0, [1] + [0] * (n - 1) + [-1]))
    except ExactDivisionError as exc:
        raise ExactDivisionError(f"Burau determinant not divisible by 1 - t^{n}: {exc}") from exc
    normalized = LaurentPolynomial.from_pair(poly).symmetric_normalize()
    if abs(sum(normalized.coefficients)) != 1:  # |f(1)|
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
    return (not poly.is_zero and poly.span == 2 * genus
            and abs(poly.coefficients[0]) == abs(poly.coefficients[-1]) == 1)
