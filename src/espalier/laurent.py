"""Exact integer Laurent polynomials in one variable.

Coefficients are stored lowest degree first, trimmed at both ends; the zero
polynomial has an empty coefficient tuple and min_degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ExactDivisionError, ToolkitError

__all__ = ["LaurentPolynomial", "ZERO", "ONE", "T"]


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
        coeffs = list(coefficients)
        lead = 0
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            lead += 1
        if not coeffs:
            return LaurentPolynomial(0, ())
        return LaurentPolynomial(min_degree + lead, tuple(coeffs))

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
    def max_degree(self) -> int:
        if self.is_zero:
            return 0
        return self.min_degree + len(self.coefficients) - 1

    @property
    def span(self) -> int:
        """Breadth max_degree - min_degree (0 for monomials and zero)."""
        if self.is_zero:
            return 0
        return len(self.coefficients) - 1

    def coefficient(self, degree: int) -> int:
        idx = degree - self.min_degree
        if 0 <= idx < len(self.coefficients):
            return self.coefficients[idx]
        return 0

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_degree, other.min_degree)
        hi = max(self.max_degree, other.max_degree)
        return LaurentPolynomial.from_coefficients(
            lo, [self.coefficient(d) + other.coefficient(d) for d in range(lo, hi + 1)]
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
        if self.is_zero or other.is_zero:
            return ZERO
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return LaurentPolynomial.from_coefficients(self.min_degree + other.min_degree, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPolynomial":
        if k < 0:
            raise ToolkitError("negative powers only for monomials; use shifted()")
        result = ONE
        for _ in range(k):
            result = result * self
        return result

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiplication by t^k."""
        if self.is_zero:
            return self
        return LaurentPolynomial(self.min_degree + k, self.coefficients)

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
        """Exact division; raises ExactDivisionError on any remainder.

        Long division over the integers: exactness of the overall quotient
        guarantees every leading-coefficient division along the way is exact.
        """
        if divisor.is_zero:
            raise ExactDivisionError("division by zero polynomial")
        if self.is_zero:
            return ZERO
        rem = list(self.coefficients)
        div = list(divisor.coefficients)
        if len(rem) < len(div):
            raise ExactDivisionError("quotient is not a polynomial (degree too small)")
        out = [0] * (len(rem) - len(div) + 1)
        for k in range(len(out) - 1, -1, -1):
            lead = rem[k + len(div) - 1]
            if lead % div[-1] != 0:
                raise ExactDivisionError("leading coefficient does not divide: remainder nonzero")
            q = lead // div[-1]
            out[k] = q
            if q:
                for j, d in enumerate(div):
                    rem[k + j] -= q * d
        if any(rem):
            raise ExactDivisionError("nonzero remainder in exact division")
        return LaurentPolynomial.from_coefficients(self.min_degree - divisor.min_degree, out)

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
