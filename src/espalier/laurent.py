"""Exact integer Laurent polynomials in one variable.

A Laurent polynomial is a pair (low, coefficients): the coefficients run
from degree low upward and are trimmed at both ends, so the zero polynomial
is (0, ()) and no coefficient list carries a power of t as leading zeros.

The arithmetic lives in three kernels on such pairs (`add_coeffs`,
`mul_coeffs`, `divide_coeffs`).  Sums align the two lows, products add them,
and exact quotients subtract them (t is a unit).  In `invariants` the Burau
fold, the determinant, the division by 1 + ... + t^(n-1) and the torus and
satellite formulas call them on bare pairs.  A small word's Alexander
determinant runs on packed integers instead; on at most 4 strands a knot's
division runs there too, and only the quotient is decoded into a pair.
`LaurentPolynomial` is the frozen pair in which a result leaves the library:
it has the symmetric normalization, equality up to units and printing, and
keeps a product for callers outside the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import add, sub
from typing import Iterable, Sequence

from .errors import ExactDivisionError, ToolkitError

__all__ = ["LaurentPolynomial"]

Pair = tuple[int, Sequence[int]]
"""(low, coefficients): the coefficient of t^(low + k) is coefficients[k]."""

ZERO_PAIR: Pair = (0, ())
ONE_PAIR: Pair = (0, (1,))


def is_unit(coeffs: Sequence[int]) -> bool:
    """Whether the coefficients are those of a unit +-t^k."""
    return len(coeffs) == 1 and abs(coeffs[0]) == 1


def _trimmed(low: int, out: list[int]) -> Pair:
    """(low, out) with out trimmed at both ends in place (the scans run in C)."""
    if out and not out[-1]:
        del out[next(compress(range(len(out), 0, -1), reversed(out)), 0):]
    if not out:
        return ZERO_PAIR
    if not out[0]:
        lead = next(compress(count(), out))
        del out[:lead]
        low += lead
    return low, out


def add_coeffs(a: Pair, b: Pair, sign: int = 1) -> Pair:
    """a + sign * b, for sign +-1."""
    (la, ca), (lb, cb) = a, b
    if not cb:
        return a
    if not ca:
        return b if sign > 0 else (lb, [-c for c in cb])
    if la <= lb:
        low, out = la, list(ca)
    else:
        low, out = lb, [0] * (la - lb)
        out.extend(ca)
    start = lb - low
    end = start + len(cb)
    if end > len(out):
        out.extend([0] * (end - len(out)))
    out[start:end] = map(add if sign > 0 else sub, out[start:end], cb)
    if out[0] and out[-1]:  # no cancellation at either end, the usual case
        return low, out
    return _trimmed(low, out)


def mul_coeffs(a: Pair, b: Pair) -> Pair:
    """The product a * b; both ends of a product of trimmed factors are nonzero."""
    (la, ca), (lb, cb) = a, b
    if not ca or not cb:
        return ZERO_PAIR
    if len(ca) < len(cb):
        ca, cb = cb, ca
    out = [0] * (len(ca) + len(cb) - 1)
    width = len(ca)
    for k, c in enumerate(cb):
        if c:
            out[k:k + width] = map(add, out[k:k + width], [c * x for x in ca])
    return la + lb, out


def divide_coeffs(a: Pair, b: Pair) -> Pair:
    """The exact quotient a / b; raises ExactDivisionError on any remainder.

    Both coefficient lists have a nonzero constant term, so a / b is a Laurent
    polynomial exactly when their polynomial quotient is one, with low degree
    la - lb.  Long division over the integers: exactness of the overall
    quotient guarantees every leading-coefficient division along the way is
    exact, and the quotient comes out trimmed.
    """
    (la, ca), (lb, cb) = a, b
    if not cb:
        raise ExactDivisionError("division by zero polynomial")
    if not ca:
        return ZERO_PAIR
    if is_unit(cb):  # a unit divisor +-t^k: no long division
        return la - lb, ca if cb[0] == 1 else [-c for c in ca]
    rem = list(ca)
    width = len(cb)
    if len(rem) < width:
        raise ExactDivisionError("quotient is not a polynomial (degree too small)")
    out = [0] * (len(rem) - width + 1)
    lead_div = cb[-1]
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(rem[k + width - 1], lead_div)
        if r:
            raise ExactDivisionError("leading coefficient does not divide: remainder nonzero")
        if q:
            out[k] = q
            rem[k:k + width] = map(sub, rem[k:k + width], [q * d for d in cb])
    if any(rem):
        raise ExactDivisionError("nonzero remainder in exact division")
    return la - lb, out


@dataclass(frozen=True)
class LaurentPolynomial:
    min_degree: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        c = self.coefficients
        if c and (c[0] == 0 or c[-1] == 0):
            raise ToolkitError("coefficients must be trimmed; use from_coefficients")
        if not c and self.min_degree != 0:
            raise ToolkitError("the zero polynomial is (0, ())")

    @staticmethod
    def from_coefficients(min_degree: int, coefficients: Iterable[int]) -> "LaurentPolynomial":
        return LaurentPolynomial.from_pair(_trimmed(min_degree, list(coefficients)))

    @staticmethod
    def from_pair(pair: Pair) -> "LaurentPolynomial":
        """Freeze a kernel result."""
        low, coeffs = pair
        return LaurentPolynomial(low, tuple(coeffs))

    @property
    def pair(self) -> Pair:
        return self.min_degree, self.coefficients

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def span(self) -> int:
        """Breadth: highest minus lowest degree (0 for monomials and zero)."""
        if self.is_zero:
            return 0
        return len(self.coefficients) - 1

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return LaurentPolynomial.from_pair(mul_coeffs(self.pair, other.pair))

    def equal_up_to_units(self, other: "LaurentPolynomial") -> bool:
        """Whether self = +- t^k . other."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.coefficients == other.coefficients or self.coefficients == tuple(
            -c for c in other.coefficients
        )

    def symmetric_normalize(self) -> "LaurentPolynomial":
        """The unit multiple with f(t) = f(1/t), sign fixed so f(1) = +1 when |f(1)| = 1.

        Raises when no palindromic unit multiple exists (odd span or
        anti-palindromic coefficients).
        """
        if self.is_zero:
            return self
        coeffs = self.coefficients
        if coeffs != coeffs[::-1]:
            if coeffs == tuple(-c for c in reversed(coeffs)):
                raise ToolkitError("anti-palindromic polynomial has no symmetric unit multiple")
            raise ToolkitError("polynomial has no palindromic unit multiple")
        if self.span % 2 != 0:
            raise ToolkitError("odd degree span cannot be centered at 0")
        at_one = sum(coeffs)  # f(1), which no power of t changes
        if at_one < 0 or (at_one == 0 and coeffs[0] < 0):
            coeffs = tuple(-c for c in coeffs)
        return LaurentPolynomial(-self.span // 2, coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for idx, c in enumerate(self.coefficients):
            if c == 0:
                continue
            d = self.min_degree + idx
            if d == 0:
                term = str(abs(c))
            else:
                base = "t" if d == 1 else f"t^{d}"
                term = base if abs(c) == 1 else f"{abs(c)}*{base}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

