"""Combinatorial accounting of braided Seifert surfaces.

The surface of a word on n strands has one disk per strand and one
half-twisted band per letter, so chi = strands - length.  Genus and the
Murasugi summand data are read off the word; whether the formula genus is the
Seifert genus is the caller's hypothesis (true for BKL-positive and
T-homogeneous words).

The summands come in leaf-peeling order: repeatedly the lexicographically
smallest edge with a leaf end.  A vertex keeps its degree and the sum of its
neighbours, so the last edge of a new leaf is read off in O(1); the order is
computed once per espalier and cached on it.  Exponent sums come from the
word's edge tally.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass

from .braid import BandGenerator, BraidWord, exponent_sum_by_edge
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


def _leaf_peeling_order(tree: Espalier) -> list[tuple[int, int]]:
    """Peel the lexicographically smallest leaf edge of what remains, until no
    edge is left.  Computed once per tree and cached in its __dict__, which
    equality and hashing (the dataclass fields) never read; callers share the
    cached list and must not change it."""
    order = tree.__dict__.get("_peeling_order")
    if order is not None:
        return order
    # per vertex: how many edges remain at it, and the sum of their other
    # ends, which is the last neighbour once one edge is left
    degree = [0] * (tree.vertices + 1)
    others = [0] * (tree.vertices + 1)
    for i, j in tree.edges:
        degree[i] += 1
        degree[j] += 1
        others[i] += j
        others[j] += i
    leaves = [_edge(v, others[v]) for v in range(1, tree.vertices + 1) if degree[v] == 1]
    # the heap holds every leaf edge; one queued from both ends pops twice
    heapq.heapify(leaves)
    order = []
    while leaves:
        edge = heapq.heappop(leaves)
        i, j = edge
        if degree[i] == 0 or degree[j] == 0:
            continue
        order.append(edge)
        for v, w in ((i, j), (j, i)):
            degree[v] -= 1
            others[v] -= w
            if degree[v] == 1:
                heapq.heappush(leaves, _edge(v, others[v]))
    tree.__dict__["_peeling_order"] = order
    return order


def _edge(v: int, w: int) -> tuple[int, int]:
    return (v, w) if v < w else (w, v)


def _t_homogeneous_sums(tree: Espalier, word: BraidWord) -> Mapping[tuple[int, int], int]:
    outcome = classify(tree, word)
    if outcome.kind is Kind.NOT_T_WORD:
        raise ToolkitError(f"word is not T-homogeneous for this espalier: {outcome.reason}")
    return exponent_sum_by_edge(word)


def murasugi_decomposition(tree: Espalier, word: BraidWord) -> MurasugiData:
    """Summand data of the iterated Murasugi sum carried by a T-homogeneous word."""
    sums = _t_homogeneous_sums(tree, word)
    summands = tuple(
        MurasugiSummand(edge, sums[edge]) for edge in _leaf_peeling_order(tree)
    )
    return MurasugiData(summands)


def homogenize(tree: Espalier, word: BraidWord) -> BraidWord:
    """Flip each lone negative letter positive; output is T-positive.

    Requires a T-homogeneous word whose edges all have exponent sum >= -1, so
    every negative edge carries exactly one letter.  The closure is unchanged
    (the single band disconnects the surface, and rotating the cut-off piece
    turns the band positive); callers verify that externally through the
    invariants oracle.
    """
    sums = _t_homogeneous_sums(tree, word)
    bad = sorted(e for e, t in sums.items() if t <= -2)
    if bad:
        raise HomogenizeError(
            f"homogenization hypothesis violated: edge {bad[0]} has exponent sum {sums[bad[0]]}"
        )
    letters = tuple(
        BandGenerator(g.i, g.j, 1) if g.sign < 0 else g for g in word.letters
    )
    return BraidWord(word.strands, letters)
