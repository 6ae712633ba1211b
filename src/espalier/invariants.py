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
Adding s to the band's range calls no kernel on an empty slot (it takes s)
or on a slot equal to -s (it is cleared), which is where the second band of
a cabled pair of parallel bands undoes the first.  A multiple by t or 1/t
only moves a low degree.

The determinant det(rho(beta) - Id) takes the fold's dense columns as rows.
At every size it is one sparse fraction-free (Bareiss) elimination with
Markowitz-ordered unit pivots; while its divisor is a unit, a unit pivot
+-t^k costs no scaling and no division.
The elimination keeps each column's live rows and the set of unit entries
current as it writes, so choosing a pivot tests no entry for a unit.
Fold, determinant and the torus and satellite formulas run on the (low,
coefficients) pairs of `laurent` and its kernels, so the determinant comes out
exactly, sign and power of t included; results leave as `LaurentPolynomial`.

A small word's Alexander determinant takes a packed path (Kronecker
substitution): the same column fold on Python ints at t = 2^B, each entry
scaled by t^K for the word's K negative letters, so that each division by t
is an exact shift.  Up to 3x3 the cofactor expansion runs on the ints, and
so does a knot's division by D = 1 + t + ... + t^(n-1): one divmod of
det(2^B) by D(2^B) = (2^(Bn) - 1) / (2^B - 1), and only the quotient is
decoded.  From 4x4 on the nonzero entries are decoded for the elimination.
As t -> 2^B is a ring homomorphism, only the decode needs a bound: signed
base-2^B digits are exact when 2^(B-1) exceeds every coefficient.  A letter
a(i,j)^+-1 adds a scalar of 1-norm at most the column's (the sum of
|coefficients| over its slots; the scalar reads four distinct slots, and
for j = i + 1 the one slot it changes takes a sum of three) to j - i slots,
so it multiplies the column's 1-norm by at most j - i + 1.  With G the
product of j - i + 1 over the letters, rho has coefficients of size at most
G, each column of rho - Id has 1-norm at most G + 1, and ||det||_1 <= the
product of the column 1-norms <= (G + 1)^m.  B comes from log2 of that
bound as a sum of bit lengths.  The quotient needs no wider digits, by two
facts.  As 1 / D = (1 - t) (1 + t^n + t^(2n) + ...), each quotient
coefficient is at most ||det||_1.  As t^k mod D has coefficients 0 and
+-1, so is each coefficient of the remainder R, of degree below n - 1;
then |R(2^B)| < D(2^B), and R(2^B) = 0 only for R = 0, so the integer
remainder is zero exactly when the polynomial remainder is.  The packed fold
gains on range slots: a letter a(i,j) adds the same scalar to the j - i - 1
slots strictly inside its range, one int addition each where the pairs call
a kernel.  So the packed path runs while B times the digit count stays
within PACKED_BITS * (1 + S / 32) = 4,096 + 128 S bits, S the word's range
slots: every table row (at most 2,414 bits) and the cable ladder (8,792
bits and S = 159 at 16 strands, 53,888 and 727 at 32, 314,784 and 3,127 at
64).  The chain knots (7,260 bits at n = 30, all Artin letters, S = 0)
measured slower packed, every entry as wide as the widest, so they stay on
the pairs, as do long words on few strands (up to 3.09 M bits against
S = 211 for 401 letters on 4 strands), `_fold` and `reduced_burau`, the
public Burau matrices.

For a knot closure of a word beta on n strands,
    Alexander(t)  =  det(rho(beta) - Id) / (1 + t + ... + t^(n-1))
up to units, normalized here to the symmetric representative with value +1
at t = 1.
"""

from __future__ import annotations

import math

from .braid import BraidWord
from .errors import ExactDivisionError, MultiComponentClosure, ToolkitError
from .laurent import (
    ONE_PAIR,
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
    a zero sentinel at both ends: slot k holds the coefficient of e_k.

    In a band's range an empty slot takes s itself, so slots share lists (no
    kernel writes into its inputs), and a slot equal to -s becomes ZERO_PAIR.
    Only a slot with the low degree and leading coefficient of -s is compared
    in full, against one -s built per letter and column.
    """
    m = word.strands - 1
    columns = [[ZERO_PAIR] * (m + 2) for _ in range(m)]
    for col, u in enumerate(columns):
        u[col + 1] = 0, [1]  # a list like the kernels' results, to compare with -s
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
                low, coeffs = s
                if coeffs:
                    lead, neg = -coeffs[0], None  # neg: -s, built on first use
                    for r in rest:
                        v = u[r]
                        if not v[1]:
                            u[r] = s
                            continue
                        if v[0] == low and v[1][0] == lead:
                            if neg is None:
                                neg = [-x for x in coeffs]
                            if v[1] == neg:
                                u[r] = ZERO_PAIR
                                continue
                        u[r] = add_coeffs(v, s)
    return columns


def reduced_burau(word: BraidWord) -> tuple[tuple[LaurentPolynomial, ...], ...]:
    """Image of the word, as rows: the fold's columns, transposed."""
    rows = list(zip(*_fold(word)))[1:-1]  # drop the sentinel slots
    return tuple(tuple(map(LaurentPolynomial.from_pair, row)) for row in rows)


def _determinant(rows: list[list[Pair]]) -> Pair:
    """det of a square matrix given as dense rows of pairs, exactly, sign and
    power of t included; the rows are left unchanged.

    At every size, 0x0 (det 1) included, it is one fraction-free elimination
    (Bareiss 1968) on sparse working rows {column: nonzero pair} built from
    the input.  The live rows hold d times their Schur complement, d = 1 at
    the start.  While d is a unit, a step pivots on the unit +-t^k of least
    Markowitz cost (row nnz - 1) * (column nnz - 1), if one is left: it
    subtracts (e / pivot) times the pivot row, keeps d, and puts pivot / d
    into the sign and power of t.  Otherwise it pivots on the shortest entry p
    of the column with the fewest coefficients and takes (p a - e g) / d,
    exact in the Laurent ring; p becomes d.  A row with a zero in the pivot
    column would only be scaled by p / d; those scalings telescope, so one
    product and one exact division bring it up to date when a later step uses
    it.  Each pivot also brings the sign of its row and column positions
    among the live ones.

    Every write, removal or rescaling of an entry, in unit and Bareiss steps
    alike, updates holders[c], the live rows with a nonzero in column c (its
    size is the column count), and `units`, the positions of the stored
    entries that are units.  The unit pivot is the least (cost, row, column)
    over `units`, and the pivot column's rows are holders[c].
    """
    work = {r: {c: e for c, e in enumerate(row) if e[1]} for r, row in enumerate(rows)}
    columns = list(range(len(rows)))  # the live columns, in order
    holders = [set() for _ in columns]  # holders[c]: the live rows with a nonzero in column c
    units = set()  # (r, c) of the stored entries that are units +-t^k

    def store(k, row, c, e):
        """row[c] = e, or drop the entry if e is zero, with holders and units kept."""
        if e[1]:
            row[c] = e
            holders[c].add(k)
            if is_unit(e[1]):
                units.add((k, c))
            else:
                units.discard((k, c))
        else:
            row.pop(c, None)
            holders[c].discard(k)
            units.discard((k, c))

    for r, row in work.items():
        for c, e in row.items():
            store(r, row, c, e)
    d = ONE_PAIR
    scale = dict.fromkeys(work, d)  # row r holds scale[r] times its Schur complement
    sign, shift = 1, 0
    while work:
        # over a non-unit d, a stored unit is no unit pivot
        unit_step = bool(units) and is_unit(d[1])
        if unit_step:
            _, r, c = min(((len(work[k]) - 1) * (len(holders[c]) - 1), k, c) for k, c in units)
        else:
            weight = dict.fromkeys(columns, 0)
            for row in work.values():
                for k, (_, e) in row.items():
                    weight[k] += len(e)
            c = min(columns, key=weight.__getitem__)
        hits = sorted(holders[c])
        if not hits:
            return ZERO_PAIR
        if not unit_step:
            r = min(hits, key=lambda k: len(work[k][c][1]))
        if (list(work).index(r) + columns.index(c)) % 2:
            sign = -sign
        columns.remove(c)
        for k in hits:
            if scale[k] != d:
                row = work[k]
                for c2, e in row.items():
                    store(k, row, c2, divide_coeffs(mul_coeffs(e, d), scale[k]))
                scale[k] = d
        hits.remove(r)
        pivot_row = work.pop(r)
        for c2 in pivot_row:
            holders[c2].discard(r)
            units.discard((r, c2))
        pivot = pivot_row.pop(c)
        if unit_step:
            low, (unit,) = pivot
            sign *= unit * d[1][0]
            shift += low - d[0]
        for k in hits:
            row = work[k]
            e = row.pop(c)
            units.discard((k, c))  # column c is dead: holders[c] is never read again
            if unit_step:
                factor = (e[0] - low, e[1])  # e / pivot, up to the sign `unit`
                for c2, g in pivot_row.items():
                    out = add_coeffs(row.get(c2, ZERO_PAIR), mul_coeffs(factor, g), -unit)
                    store(k, row, c2, out)
                continue
            for c2 in row.keys() | pivot_row.keys():
                num = add_coeffs(mul_coeffs(row.get(c2, ZERO_PAIR), pivot),
                                 mul_coeffs(e, pivot_row.get(c2, ZERO_PAIR)), -1)
                store(k, row, c2, divide_coeffs(num, d) if num[1] else num)
            scale[k] = pivot
        if not unit_step:
            d = pivot
    return d[0] + shift, d[1] if sign > 0 else [-x for x in d[1]]


PACKED_BITS = 4096
"""The widest packed integer the packed path may need for a word without
range slots, in bits; each range slot widens it by PACKED_BITS / 32 (see the
module docstring).  Any value from 3,189 (the 64-strand rung) to 7,259
(chain30) selects the same timed cases."""


def _packing(word: BraidWord) -> int | None:
    """B, the bits per coefficient of the packed path, or None where the
    packed width B * digits passes PACKED_BITS * (1 + S / 32), S the slots
    strictly inside the letters' ranges.  What is decoded is det(rho - Id)
    for m <= 3, each entry of rho - Id from 4x4 on, times t^(power K): a
    polynomial of at most `digits` coefficients, each of size at most
    (G + 1)^power < 2^(B - 1) by the bound in the module docstring."""
    m = word.strands - 1
    power = m if m <= 3 else 1
    log_bound = 1  # G + 1 <= 2^log_bound
    slots = 0
    for g in word.letters:
        log_bound += (g.j - g.i + 1).bit_length()
        slots += g.j - g.i - 1
    bits = power * log_bound + 2
    if 32 * bits * (1 + power * len(word.letters)) > PACKED_BITS * (32 + slots):
        return None
    return bits


def _packed_fold(word: BraidWord, bits: int, one: int) -> list[list[int]]:
    """_fold on integers: every entry times t^K (K the word's negative
    letters) at t = 2^bits, with `one` the image of t^K.  Each division by t
    is then exact, a shift."""
    m = word.strands - 1
    columns = [[0] * (m + 2) for _ in range(m)]
    for col, u in enumerate(columns):
        u[col + 1] = one
    for g in reversed(word.letters):
        i, j = g.i, g.j
        k, rest = (i, range(i + 1, j)) if g.sign > 0 else (j - 1, range(i, j - 1))
        for u in columns:
            a, b, c, d = u[i - 1], u[i], u[j - 1], u[j]
            if not (a or b or c or d):
                continue
            new = ((a - c) << bits) + d if g.sign > 0 else a + ((d - b) >> bits)
            s = new - u[k]
            u[k] = new
            for r in rest:
                u[r] += s
    return columns


def _unpack(value: int, bits: int, low: int) -> Pair:
    """The pair whose coefficients, from degree low up, are the signed base
    2^bits digits of value, each of size under 2^(bits - 1).  One shift skips
    the zero digits below the first nonzero one; what is left has exactly
    bit_length // bits + 1 digits.  Below its top 1-16 digits, the whole
    16-digit groups (2 * bits bytes each) are cut from one to_bytes string,
    so every digit costs a shift of its group or of the top, and the decode
    is linear in the digit count.  An unsigned digit of half or more stands
    for itself minus 2^bits and carries 1 into the next."""
    if not value:
        return ZERO_PAIR
    first = ((value & -value).bit_length() - 1) // bits
    value >>= first * bits
    mask, half, full = (1 << bits) - 1, 1 << bits - 1, 1 << bits
    coeffs = []
    groups = value.bit_length() // bits >> 4
    if groups:
        width = 16 * bits * groups
        data = (value & (1 << width) - 1).to_bytes(width >> 3, "little")
        carry = 0
        for k in range(0, width >> 3, 2 * bits):
            group = int.from_bytes(data[k:k + 2 * bits], "little")
            for _ in range(16):
                digit = (group & mask) + carry
                group >>= bits
                carry = digit >= half
                coeffs.append(digit - full if carry else digit)
        value = (value >> width) + carry
    while value:
        digit = value & mask
        value >>= bits
        if digit >= half:
            digit -= full
            value += 1
        coeffs.append(digit)
    return low + first, coeffs


def _normalizer(n: int) -> Pair:
    """D = 1 + t + ... + t^(n-1), which divides det(rho - Id) of a knot
    closure on n strands."""
    return 0, [1] * n


def _packed_quotient(value: int, bits: int, low: int, divisor: Pair) -> Pair:
    """value / divisor for a value packed at t = 2^bits from degree low up and
    a divisor 1 + t + ... + t^(N-1): one divmod by (2^(bits N) - 1) /
    (2^bits - 1), and the quotient decoded.  Exact while the value's 1-norm
    stays under 2^(bits - 1) (see the module docstring).  A nonzero remainder
    decodes the value for divide_coeffs, which raises ExactDivisionError."""
    quotient, remainder = divmod(value, ((1 << bits * len(divisor[1])) - 1) // ((1 << bits) - 1))
    if remainder:
        return divide_coeffs(_unpack(value, bits, low), divisor)
    return _unpack(quotient, bits, low)


def _packed_determinant(word: BraidWord, bits: int, divisor: Pair) -> Pair:
    """det(rho - Id) / divisor from _packed_fold, for a divisor as in
    _packed_quotient.  For m <= 3 the cofactor expansion and the division run
    on the integers and decode once; from 4x4 on the entries are decoded for
    _determinant and divide_coeffs."""
    negatives = sum(g.sign < 0 for g in word.letters)
    one = 1 << bits * negatives
    columns = _packed_fold(word, bits, one)
    for c, u in enumerate(columns):
        u[c + 1] -= one
    rows = [u[1:-1] for u in columns]
    if len(rows) > 3:
        det = _determinant([[_unpack(e, bits, -negatives) for e in row] for row in rows])
        return divide_coeffs(det, divisor)
    if len(rows) < 2:
        det = rows[0][0] if rows else 1
    elif len(rows) == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
    else:
        (a, b, c), (d, e, f), (g, h, i) = rows
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return _packed_quotient(det, bits, -len(rows) * negatives, divisor)


def alexander_of_closure(word: BraidWord) -> LaurentPolynomial:
    """Symmetric normalized Alexander polynomial of the closure knot.

    Raises MultiComponentClosure for links; the exception carries the
    determinant det(rho - Id), exactly, for callers that want it anyway.
    """
    n = word.strands
    components = word.components
    # det (1 - t) / (1 - t^n) = det / (1 + t + ... + t^(n-1)); a link's det is kept whole
    divisor = _normalizer(n) if components == 1 else ONE_PAIR
    bits = _packing(word)
    try:  # only the division by divisor raises it: the elimination's divisions are exact
        if bits:
            poly = _packed_determinant(word, bits, divisor)
        else:
            # det(rho - Id) with the columns as rows: a determinant is transpose-invariant
            columns = _fold(word)
            for c, u in enumerate(columns):
                u[c + 1] = add_coeffs(u[c + 1], ONE_PAIR, -1)
            poly = divide_coeffs(_determinant([u[1:-1] for u in columns]), divisor)
    except ExactDivisionError as exc:
        raise ExactDivisionError(f"Burau determinant not divisible by 1+...+t^{n-1}: {exc}") from exc
    if components != 1:
        raise MultiComponentClosure(
            f"closure has {components} components; Alexander normalization needs a knot",
            determinant=LaurentPolynomial.from_pair(poly),
            components=components,
        )
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

    def power_minus_one(k: int) -> Pair:
        return 0, [-1] + [0] * (k - 1) + [1]

    # (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))
    numerator = mul_coeffs(power_minus_one(p * q), power_minus_one(1))
    poly = divide_coeffs(divide_coeffs(numerator, power_minus_one(p)), power_minus_one(q))
    return LaurentPolynomial.from_pair(poly).symmetric_normalize()


def satellite_alexander(base: LaurentPolynomial, p: int, q: int) -> LaurentPolynomial:
    """Alexander polynomial base(t^p) * Alexander(T(p,q)) of the (p,q)-cable
    with companion polynomial `base` (Seifert 1950)."""
    torus = torus_alexander(p, q)  # rejects p, q < 1 before the stride p below, and gcd > 1
    if base.is_zero:
        return base
    spread = [0] * (p * base.span + 1)  # base(t^p)
    spread[::p] = base.coefficients
    product = mul_coeffs((p * base.min_degree, spread), torus.pair)
    return LaurentPolynomial.from_pair(product).symmetric_normalize()


def fibered_shape(poly: LaurentPolynomial, genus: int) -> bool:
    """Whether span(Alexander)/2 matches the genus, with monic extremes.

    Both hold for fibered knots whose braided surface realizes the maximal
    Euler characteristic (e.g. staircase words, with the chi-genus of
    surface.genus_of_knot_closure); failure flags a bad word.
    """
    return (not poly.is_zero and poly.span == 2 * genus
            and abs(poly.coefficients[0]) == abs(poly.coefficients[-1]) == 1)
