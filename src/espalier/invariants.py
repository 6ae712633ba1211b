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

The determinant det(rho(beta) - Id) eliminates unit pivots +-t^k first, with
no scaling, and hands the rest to a sparse fraction-free Bareiss.  Fold and
determinant run on the (low, coefficients) pairs of `laurent` and its
kernels, so the determinant comes out exactly, sign and power of t included.

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


def reduced_burau(word: BraidWord) -> BurauMatrix:
    """Image of the word: the fold's columns, transposed to rows."""
    rows = list(zip(*_fold(word)))[1:-1]  # drop the sentinel slots
    return BurauMatrix(
        word.strands, tuple(tuple(map(LaurentPolynomial.from_pair, row)) for row in rows)
    )


def _determinant(rows: list[dict[int, Pair]]) -> Pair:
    """det of a square matrix given as sparse rows {column: nonzero pair},
    exactly, sign and power of t included.

    Unit pivots +-t^k go first, in Markowitz order (least (row nnz - 1) *
    (column nnz - 1), the fill-in bound).  Dividing by a unit is exact, so each
    step is a plain Schur complement; it multiplies the result by the pivot and
    the sign of its position.  `_bareiss` finishes what is left.
    """
    work = {r: dict(row) for r, row in enumerate(rows)}
    columns = list(range(len(rows)))  # the live columns, in order
    sign, shift = 1, 0
    while True:
        count = dict.fromkeys(columns, 0)
        for row in work.values():
            for c in row:
                count[c] += 1
        units = [((len(row) - 1) * (count[c] - 1), r, c)
                 for r, row in work.items() for c, (_, e) in row.items()
                 if len(e) == 1 and abs(e[0]) == 1]
        if not units:
            break
        _, r, c = min(units)
        if (list(work).index(r) + columns.index(c)) % 2:
            sign = -sign
        columns.remove(c)
        pivot_row = work.pop(r)
        low, (unit,) = pivot_row.pop(c)
        sign *= unit
        shift += low
        for row in work.values():
            if c not in row:
                continue
            e = row.pop(c)
            factor = (e[0] - low, e[1])  # e / pivot, up to the sign `unit`
            for c2, g in pivot_row.items():
                out = add_coeffs(row.get(c2, ZERO_PAIR), mul_coeffs(factor, g), -unit)
                if out[1]:
                    row[c2] = out
                else:
                    row.pop(c2, None)
    low, det = _bareiss(list(work.values()))
    if not det:
        return ZERO_PAIR
    return low + shift, det if sign > 0 else [-x for x in det]


def _bareiss(rows: list[dict[int, Pair]]) -> Pair:
    """Fraction-free Bareiss elimination of a square matrix given as sparse
    rows; every interior division is exact in the Laurent ring.

    Columns are the keys in sorted order; a matrix whose rows use fewer columns
    than it has rows is singular.  Columns are eliminated from the lightest
    (fewest coefficients) to the heaviest, and each step pivots on the shortest
    entry of its column.  A row with a zero in the pivot column would only be
    scaled by pivot / prev; those scalings telescope, so the row is brought up
    to date by one product and one exact division when a later step uses it.
    """
    m = len(rows)
    columns = sorted(set().union(*rows))
    if len(columns) != m:
        return ZERO_PAIR
    weight = {c: sum(len(row[c][1]) for row in rows if c in row) for c in columns}
    order = sorted(range(m), key=lambda k: weight[columns[k]])
    sign = -1 if (m - len(_cycles(tuple(order)))) % 2 else 1
    rank = {columns[k]: step for step, k in enumerate(order)}
    work = [{rank[c]: e for c, e in row.items()} for row in rows]
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
    columns = _fold(word)
    for c, u in enumerate(columns):
        u[c + 1] = add_coeffs(u[c + 1], ONE.pair, -1)
    # det(rho - Id) with the columns as rows: a determinant is transpose-invariant
    det = LaurentPolynomial.from_pair(
        _determinant([{k: e for k, e in enumerate(u[1:-1]) if e[1]} for u in columns])
    )
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
