"""Cabling staircase braids: from delta.P on n strands to a staircase word for
the (p,q)-cable on pn strands.

Strand i of the base becomes the bundle of strands p(i-1)+1 .. pi.  A positive
band a(i,j) cables to the p parallel wide bands

    a(pi, pj) a(pi-1, pj-1) ... a(p(i-1)+1, p(j-1)+1),

and the cabled dual Garside element expands to delta_{pn}, then (n-1)(p-1)
positive long bands, then residual negative fractional twists, one block per
bundle (n blocks).  The block count matters: with a block on
bundles 1..n-1 only, the expansion no longer matches the letter-wise cabling
of delta (the exponent sums disagree) and the assembled cable closure stops
being a knot; the test suite demonstrates both failures.

Each residual negative block is the exact letter-wise inverse of a positive
fractional twist on the same bundle, so q >= n of the inserted positive twists
cancel them freely and the assembled cable word is BKL-positive with a literal
delta_{pn} prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .braid import (
    BandGenerator,
    BraidWord,
    check_caps,
    closure_components,
    concat_all,
    format_braid,
    free_reduce,
)
from .errors import CableHypothesisError, NotBKLPositive, ToolkitError
from .garside import delta, is_staircase

__all__ = [
    "CableSpec",
    "cable_generator",
    "cable_delta",
    "fractional_twist",
    "cable_staircase",
]


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


def cable_generator(g: BandGenerator, p: int, base_strands: int) -> BraidWord:
    """The p parallel wide bands replacing one positive band under (p,0)-cabling."""
    if p < 2:
        raise CableHypothesisError(f"cabling needs p >= 2, got p={p}")
    if g.sign < 0:
        raise NotBKLPositive(f"only positive bands are cabled, got {g}")
    if g.j > base_strands:
        raise ToolkitError(f"{g} does not fit on {base_strands} strands")
    letters = tuple(
        BandGenerator(p * g.i - k, p * g.j - k) for k in range(p)
    )
    return BraidWord(p * base_strands, letters)


def fractional_twist(bundle: int, p: int, strands: int) -> BraidWord:
    """A positive (1/p)-twist on bundle `bundle`: s_{(b-1)p+1} ... s_{bp-1}."""
    lo = (bundle - 1) * p + 1
    letters = tuple(BandGenerator(k, k + 1) for k in range(lo, lo + p - 1))
    return BraidWord(strands, letters)


def _residual_negative_blocks(n: int, p: int) -> list[BraidWord]:
    out = []
    for k in range(1, n + 1):
        letters = tuple(
            BandGenerator(m, m + 1, -1) for m in range(k * p - 1, (k - 1) * p, -1)
        )
        out.append(BraidWord(p * n, letters))
    return out


def _long_bands(n: int, p: int) -> BraidWord:
    letters = []
    for k in range(1, n):
        for m in range(k * p - 1, (k - 1) * p, -1):
            letters.append(BandGenerator(m, m + p))
    return BraidWord(p * n, tuple(letters))


def cable_delta(n: int, p: int) -> BraidWord:
    """The cabled dual Garside element: delta_{pn}, the long bands, then the
    residual negative twist blocks, one per bundle."""
    if n < 2:
        raise ToolkitError(f"cabled delta needs n >= 2, got {n}")
    if p < 2:
        raise CableHypothesisError(f"cabling needs p >= 2, got p={p}")
    strands = p * n
    parts = [delta(strands), _long_bands(n, p)] + _residual_negative_blocks(n, p)
    return concat_all(parts, strands)


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
    components = closure_components(word)
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
    # delta_{pn}, the long bands, p letters per tail letter, the q - n twists
    length = (p * n - 1) + (n - 1) * (p - 1) + p * (len(word) - n + 1) + (q - n) * (p - 1)
    check_caps(f"the ({p},{q})-cable", p * n, length)
    witness = is_staircase(word)
    if not witness:
        raise CableHypothesisError("input word is not a staircase braid (summit infimum 0)")
    strands = p * n

    # n of the q positive twists sit right after the residual negative blocks;
    # each pair is letter-wise inverse, so free reduction leaves
    # delta_{pn} and the long bands (checked over a grid in the tests)
    canceling = [fractional_twist(k, p, strands) for k in range(n, 0, -1)]
    parts = [free_reduce(concat_all([cable_delta(n, p)] + canceling, strands))]
    parts.extend(cable_generator(g, p, n) for g in witness.tail.letters)
    parts.extend(fractional_twist(1, p, strands) for _ in range(q - n))
    out = concat_all(parts, strands)

    if not out.is_positive:
        raise ToolkitError("assembled cable word is not BKL-positive")
    components = closure_components(out)
    if components != 1:
        raise ToolkitError(
            f"assembled cable closure has {components} components, expected a knot; "
            f"base={format_braid(word)} cable={format_braid(out)}"
        )
    return out
