"""Combinatorial accounting of braided Seifert surfaces.

The surface of a word on n strands has one disk per strand and one
half-twisted band per letter, so chi = strands - length.  Genus and the
Murasugi summand data are read off the word; whether the formula genus is the
Seifert genus is the caller's hypothesis (true for BKL-positive and
T-homogeneous words).

The summands come in the espalier's leaf-peeling order,
Espalier.peeling_order: repeatedly the lexicographically smallest edge with a
leaf end.  Exponent sums come from the word's edge tally, BraidWord.edge_tally.
Both are computed once and cached on the tree and the word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BandGenerator, BraidWord
from .errors import HomogenizeError, MultiComponentClosure, ToolkitError
from .trees import Espalier, Kind, classify

__all__ = [
    "MurasugiSummand",
    "MurasugiData",
    "euler_characteristic",
    "genus_of_knot_closure",
    "murasugi_decomposition",
    "homogenize",
]


def euler_characteristic(word: BraidWord) -> int:
    return word.strands - len(word.letters)


def genus_of_knot_closure(word: BraidWord) -> int:
    """(1 - chi)/2 for a knot closure; rejects links.  1 - chi is even: bands act as
    transpositions and a knot's permutation is an n-cycle, so length = n - 1 mod 2."""
    components = word.components
    if components != 1:
        raise MultiComponentClosure(
            f"genus formula needs a knot closure, got {components} components",
            components=components,
        )
    chi = euler_characteristic(word)
    return (1 - chi) // 2


@dataclass(frozen=True)
class MurasugiSummand:
    edge: tuple[int, int]
    exponent_sum: int


@dataclass(frozen=True)
class MurasugiData:
    """Summands F_{2,t} in a leaf-peeling order of the tree's edges."""

    summands: tuple[MurasugiSummand, ...]


def _check_t_homogeneous(tree: Espalier, word: BraidWord) -> None:
    outcome = classify(tree, word)
    if outcome.kind is Kind.NOT_T_WORD:
        raise ToolkitError(f"word is not T-homogeneous for this espalier: {outcome.reason}")


def murasugi_decomposition(tree: Espalier, word: BraidWord) -> MurasugiData:
    """Summand data of the iterated Murasugi sum carried by a T-homogeneous word."""
    _check_t_homogeneous(tree, word)
    tally = word.edge_tally
    return MurasugiData(tuple(
        MurasugiSummand(edge, tally[edge][1]) for edge in tree.peeling_order
    ))


def homogenize(tree: Espalier, word: BraidWord) -> BraidWord:
    """Flip each lone negative letter positive; output is T-positive.

    Requires a T-homogeneous word whose edges all have exponent sum >= -1, so
    every negative edge carries exactly one letter.  The closure is unchanged
    (the single band disconnects the surface, and rotating the cut-off piece
    turns the band positive); callers verify that externally through the
    invariants oracle.
    """
    _check_t_homogeneous(tree, word)
    bad = sorted((e, total) for e, (_, total) in word.edge_tally.items() if total <= -2)
    if bad:
        edge, total = bad[0]
        raise HomogenizeError(
            f"homogenization hypothesis violated: edge {edge} has exponent sum {total}"
        )
    letters = tuple(
        BandGenerator(g.i, g.j, 1) if g.sign < 0 else g for g in word.letters
    )
    return BraidWord(word.strands, letters)
