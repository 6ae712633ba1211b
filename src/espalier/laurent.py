"""Exact integer Laurent polynomials in one variable.

Coefficients are stored lowest degree first, trimmed at both ends; the zero
polynomial has an empty coefficient tuple and min_degree 0.

The arithmetic lives in three kernels on plain coefficient sequences
(`add_coeffs`, `mul_coeffs`, `divide_coeffs`), which take and return them
with no trailing zeros.  `LaurentPolynomial` calls them, and so do the Burau
fold and the determinant in `invariants`, which work on lists rather than
build a frozen polynomial per entry update.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, sub
from typing import Iterable, Mapping, Sequence

from .errors import ExactDivisionError, ToolkitError

__all__ = ["LaurentPolynomial", "ZERO", "ONE", "T"]


def _trim(out: list[int]) -> list[int]:
    """Drop trailing zeros in place (the scan runs in C: sums often cancel)."""
    if out and not out[-1]:
        del out[next(compress(range(len(out), 0, -1), reversed(out)), 0):]
    return out


def add_coeffs(a: Sequence[int], b: Sequence[int], shift: int = 0, sign: int = 1) -> list[int]:
    """a + sign * t^shift * b, for shift >= 0 and sign +-1."""
    end = shift + len(b)
    out = list(a)
    if end > len(out):
        out.extend([0] * (end - len(out)))
    out[shift:end] = map(add if sign > 0 else sub, out[shift:end], b)
    return _trim(out)


def mul_coeffs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product a * b."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    width = len(a)
    for k, c in enumerate(b):
        if c:
            out[k:k + width] = map(add, out[k:k + width], [c * x for x in a])
    return _trim(out)


def divide_coeffs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The exact quotient a / b of polynomials; raises ExactDivisionError on any
    remainder.

    Long division over the integers: exactness of the overall quotient
    guarantees every leading-coefficient division along the way is exact.
    """
    if not b:
        raise ExactDivisionError("division by zero polynomial")
    if not a:
        return []
    rem = list(a)
    width = len(b)
    if len(rem) < width:
        raise ExactDivisionError("quotient is not a polynomial (degree too small)")
    out = [0] * (len(rem) - width + 1)
    lead_div = b[-1]
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(rem[k + width - 1], lead_div)
        if r:
            raise ExactDivisionError("leading coefficient does not divide: remainder nonzero")
        if q:
            out[k] = q
            rem[k:k + width] = map(sub, rem[k:k + width], [q * d for d in b])
    if any(rem):
        raise ExactDivisionError("nonzero remainder in exact division")
    return _trim(out)


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
        coeffs = _trim(list(coefficients))
        if not coeffs:
            return LaurentPolynomial(0, ())
        lead = 0
        while not coeffs[lead]:
            lead += 1
        return LaurentPolynomial(min_degree + lead, tuple(coeffs[lead:]))

    @staticmethod
    def from_terms(terms: Mapping[int, int]) -> "LaurentPolynomial":
        if not terms:
            return ZERO
        lo = min(terms)
        hi = max(terms)
        return LaurentPolynomial.from_coefficients(
            lo, [terms.get(d, 0) for d in range(lo, hi + 1)]
        )

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def span(self) -> int:
        """Breadth: highest minus lowest degree (0 for monomials and zero)."""
        if self.is_zero:
            return 0
        return len(self.coefficients) - 1

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        low, high = (self, other) if self.min_degree <= other.min_degree else (other, self)
        return LaurentPolynomial.from_coefficients(
            low.min_degree,
            add_coeffs(low.coefficients, high.coefficients, high.min_degree - low.min_degree),
        )

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.min_degree, tuple(-c for c in self.coefficients))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial.from_coefficients(
                self.min_degree, [c * other for c in self.coefficients]
            )
        return LaurentPolynomial.from_coefficients(
            self.min_degree + other.min_degree, mul_coeffs(self.coefficients, other.coefficients)
        )

    __rmul__ = __mul__

    def substitute_power(self, p: int) -> "LaurentPolynomial":
        """f(t) -> f(t^p) for p >= 1."""
        if p < 1:
            raise ToolkitError(f"substitution power must be >= 1, got {p}")
        terms = {}
        for idx, c in enumerate(self.coefficients):
            if c:
                terms[(self.min_degree + idx) * p] = c
        return LaurentPolynomial.from_terms(terms)

    def __call__(self, value: int) -> int:
        """Evaluate at an integer; only t = +-1 stays in the integers for Laurent input."""
        if value in (1, -1):
            return sum(c * value ** ((self.min_degree + i) % 2) for i, c in enumerate(self.coefficients))
        if self.min_degree < 0:
            raise ToolkitError("cannot evaluate negative powers at non-unit integers")
        return sum(c * value ** (self.min_degree + i) for i, c in enumerate(self.coefficients))

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
        if coeffs != tuple(reversed(coeffs)):
            if coeffs == tuple(-c for c in reversed(coeffs)):
                raise ToolkitError("anti-palindromic polynomial has no symmetric unit multiple")
            raise ToolkitError("polynomial has no palindromic unit multiple")
        if self.span % 2 != 0:
            raise ToolkitError("odd degree span cannot be centered at 0")
        centered = LaurentPolynomial(-self.span // 2, coeffs)
        at_one = centered(1)
        if at_one < 0:
            return -centered
        if at_one > 0:
            return centered
        return centered if centered.coefficients[0] > 0 else -centered

    def divide_exact(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact division; raises ExactDivisionError on any remainder."""
        return LaurentPolynomial.from_coefficients(
            self.min_degree - divisor.min_degree,
            divide_coeffs(self.coefficients, divisor.coefficients),
        )

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


ZERO = LaurentPolynomial(0, ())
ONE = LaurentPolynomial(0, (1,))
T = LaurentPolynomial(1, (1,))
