"""Cabling staircase braids: from delta.P on n strands to a staircase word for
the (p,q)-cable on pn strands.

Strand i of the base becomes the bundle of strands p(i-1)+1 .. pi.  A positive
band a(i,j) cables to the p parallel wide bands

    a(pi, pj) a(pi-1, pj-1) ... a(p(i-1)+1, p(j-1)+1).

The cabled dual Garside element expands to delta_{pn}, then (n-1)(p-1)
positive long bands, then one residual negative fractional twist per bundle;
n of the q positive twists of the cable cancel those blocks letter by letter.
cable_staircase writes what is left directly: delta_{pn}, the long bands, the
cabled tail P and the q - n remaining twists, all positive, p.L + (p-1).q
letters for a base word of L letters.  The test suite checks the expansion and
the cancellation against that construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .braid import BandGenerator, BraidWord, check_caps
from .errors import CableHypothesisError, NotBKLPositive, ToolkitError
from .garside import delta, is_staircase

__all__ = ["CableSpec", "cable_staircase"]


@dataclass(frozen=True)
class CableSpec:
    """Cable parameters; p >= 2 always, q >= base_strands and gcd(p,q) = 1 are
    demanded where a staircase knot result is produced."""

    p: int
    q: int
    base_strands: int

    def __post_init__(self):
        if self.p < 2:
            raise CableHypothesisError(f"cabling needs p >= 2, got p={self.p}")
        if self.q < 1:
            raise CableHypothesisError(f"cabling needs q >= 1, got q={self.q}")
        if self.base_strands < 1:
            raise ToolkitError("base strand count must be positive")


def cable_staircase(word: BraidWord, spec: CableSpec) -> BraidWord:
    """A BKL-positive staircase word on p.n strands whose closure is the
    (p,q)-cable of the closure knot of `word`; the cabled word is the
    conjugate delta.P that is_staircase finds."""
    n = word.strands
    if spec.base_strands != n:
        raise ToolkitError(
            f"cable spec is for {spec.base_strands} strands, word has {n}"
        )
    if not word.is_positive:
        raise NotBKLPositive("cabling is defined for BKL-positive staircase words")
    components = word.components
    if components != 1:
        raise CableHypothesisError(f"cabling needs a knot closure, got {components} components")
    if spec.q < n:
        raise CableHypothesisError(
            f"q = {spec.q} < n = {n}: the staircase conclusion needs q >= n "
            "(the (2,1)-cable of the trefoil genuinely fails it)"
        )
    if math.gcd(spec.p, spec.q) != 1:
        raise CableHypothesisError(f"({spec.p},{spec.q})-cable of a knot needs gcd(p,q) = 1")
    p, q = spec.p, spec.q
    check_caps(f"the ({p},{q})-cable", p * n, p * len(word) + (p - 1) * q)
    witness = is_staircase(word)
    if not witness:
        raise CableHypothesisError("input word is not a staircase braid (summit infimum 0)")
    strands = p * n
    letters = list(delta(strands).letters)
    for k in range(1, n):  # the long bands a(m, m+p)
        letters.extend(BandGenerator(m, m + p) for m in range(k * p - 1, (k - 1) * p, -1))
    for g in witness.tail.letters:  # the p parallel wide bands of each tail letter
        letters.extend(BandGenerator(p * g.i - k, p * g.j - k) for k in range(p))
    twist = [BandGenerator(k, k + 1) for k in range(1, p)]  # s_1 ... s_{p-1} on bundle 1
    letters.extend(twist * (q - n))
    return BraidWord(strands, tuple(letters))
