"""Espaliers: non-crossing spanning trees on {1..n} and the word classification.

An espalier is a tree whose vertices sit at 1..n on a line and whose edges can
be drawn below the line with disjoint interiors.  Combinatorially that is a
spanning tree with no two edges (i,j), (k,l) interleaved as i < k < j < l;
edges sharing an endpoint never cross.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .braid import MAX_STRANDS, BraidWord, _number
from .errors import InvalidEspalier, ParseError, StrandMismatch

__all__ = [
    "Espalier",
    "Kind",
    "Classification",
    "new_espalier",
    "classify",
    "enumerate_espaliers",
    "find_espalier",
    "parse_espalier",
    "format_espalier",
]

ENUMERATION_BOUND = 10

Edge = tuple[int, int]


@dataclass(frozen=True)
class Espalier:
    """A validated non-crossing spanning tree; edges are sorted (i,j) pairs with i < j."""

    vertices: int
    edges: tuple[Edge, ...]

    def __str__(self) -> str:
        return format_espalier(self)


class Kind(enum.Enum):
    T_POSITIVE = "TPositive"
    T_HOMOGENEOUS = "THomogeneous"
    NOT_T_WORD = "NotTWord"


@dataclass(frozen=True)
class Classification:
    """Outcome of matching a word against an espalier's generator set."""

    kind: Kind
    signs: Mapping[Edge, int] | None = None
    reason: str | None = None


class UnionFind:
    """Disjoint sets over 0..size-1, with path halving."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the sets of a and b; False when they were already one set."""
        ra, rb = self.find(a), self.find(b)
        self.parent[ra] = rb
        return ra != rb


def _crossing_pair(edges: Iterable[Edge]) -> tuple[Edge, Edge] | None:
    """Two chords (i,j), (k,l) with i < k < j < l, or None when none interleave.

    One sweep over the chords sorted by (i, -j): the stack holds the chords
    still open at the current left end, each nested in the one below it, so a
    new chord crosses one of them exactly when it reaches past the top."""
    stack: list[Edge] = []
    for edge in sorted(edges, key=lambda e: (e[0], -e[1])):
        while stack and stack[-1][1] <= edge[0]:
            stack.pop()
        if stack and stack[-1][1] < edge[1]:
            return stack[-1], edge
        stack.append(edge)
    return None


def new_espalier(n: int, edges: Iterable[Edge]) -> Espalier:
    """Validate and build; reports the failure (repeated edge, edge count,
    cycle, crossing pair)."""
    if n < 1:
        raise InvalidEspalier(f"vertex count must be positive, got {n}")
    seen: set[Edge] = set()
    for i, j in edges:
        if i > j:
            i, j = j, i
        if i == j or i < 1 or j > n:
            raise InvalidEspalier(f"edge ({i},{j}) is not a pair of distinct vertices in 1..{n}")
        if (i, j) in seen:
            raise InvalidEspalier(f"edge ({i},{j}) is listed twice")
        seen.add((i, j))
    normalized = sorted(seen)
    if len(normalized) != n - 1:
        raise InvalidEspalier(
            f"a tree on {n} vertices needs exactly {n - 1} edges, got {len(normalized)}"
        )
    sets = UnionFind(n + 1)
    for i, j in normalized:
        if not sets.union(i, j):
            raise InvalidEspalier(f"edges contain a cycle through ({i},{j})")
    crossing = _crossing_pair(normalized)
    if crossing is not None:
        raise InvalidEspalier(f"edges {crossing[0]} and {crossing[1]} cross")
    return Espalier(n, tuple(normalized))


def classify(tree: Espalier, word: BraidWord) -> Classification:
    """T-positive / T-homogeneous / not-a-T-word, with the first offense reported.

    T-positive: every letter is a positive generator of the tree and every
    tree edge occurs.  T-homogeneous: every letter lies on a tree edge, every
    edge occurs, and each edge carries one constant sign.
    """
    if word.strands != tree.vertices:
        raise StrandMismatch(
            f"word on {word.strands} strands against espalier on {tree.vertices} vertices"
        )
    tree_edges = set(tree.edges)
    signs: dict[Edge, int] = {}
    for k, g in enumerate(word.letters):
        if g.edge not in tree_edges:
            return Classification(
                Kind.NOT_T_WORD, reason=f"letter #{k + 1} {g} is not a generator of the espalier"
            )
        if signs.setdefault(g.edge, g.sign) != g.sign:
            return Classification(
                Kind.NOT_T_WORD,
                reason=f"letter #{k + 1}: edge {g.edge} carries both signs",
            )
    missing = tree_edges - signs.keys()
    if missing:
        e = min(missing)
        return Classification(Kind.NOT_T_WORD, reason=f"edge {e} never appears in the word")
    kind = Kind.T_POSITIVE if all(s > 0 for s in signs.values()) else Kind.T_HOMOGENEOUS
    return Classification(kind, signs=dict(sorted(signs.items())))


# --- enumeration -------------------------------------------------------------
#
# Interval decomposition: for a tree on {lo..hi}, let m be the largest
# neighbour of lo.  Every edge then lies inside [lo,m] or [m,hi], the part on
# [lo,m] is a tree containing the edge (lo,m), and deleting that edge splits
# [lo,m] into two complementary interval trees.  This generates each tree
# exactly once.


def _shift(edges: tuple[Edge, ...], offset: int) -> tuple[Edge, ...]:
    return tuple((i + offset, j + offset) for i, j in edges)


@functools.cache
def _trees_of_length(length: int) -> tuple[tuple[Edge, ...], ...]:
    """All non-crossing spanning trees on {1..length}, as sorted edge tuples."""
    if length == 1:
        return ((),)
    out: list[tuple[Edge, ...]] = []
    for m in range(2, length + 1):
        for s in range(1, m):
            for a in _trees_of_length(s):
                for b in _trees_of_length(m - s):
                    left = a + _shift(b, s) + ((1, m),)
                    for right in _trees_of_length(length - m + 1):
                        out.append(tuple(sorted(left + _shift(right, m - 1))))
    return tuple(out)


def enumerate_espaliers(n: int) -> list[Espalier]:
    """Every espalier on {1..n} exactly once, in a fixed deterministic order."""
    if n < 1:
        raise InvalidEspalier(f"vertex count must be positive, got {n}")
    if n > ENUMERATION_BOUND:
        raise InvalidEspalier(f"enumeration bound exceeded: n={n} > {ENUMERATION_BOUND}")
    return [Espalier(n, edges) for edges in _trees_of_length(n)]


def find_espalier(word: BraidWord) -> tuple[Espalier, Classification] | None:
    """The unique espalier a T-word can belong to, or None.

    A word using exactly the edges of some espalier determines it: the support
    must be a non-crossing spanning tree of {1..strands}.  The classification
    may still come back NOT_T_WORD when an edge carries both signs.
    """
    try:
        tree = new_espalier(word.strands, {g.edge for g in word.letters})
    except InvalidEspalier:
        return None
    return tree, classify(tree, word)


# --- text format -------------------------------------------------------------

_ESPALIER_RE = re.compile(r"^n=(\d+);edges=(.*)$", re.ASCII)
_EDGE_RE = re.compile(r"\((\d+),(\d+)\)", re.ASCII)
_EDGE_LIST_RE = re.compile(r"(?:\(\d+,\d+\)(?:,\(\d+,\d+\))*)?", re.ASCII)


def format_espalier(tree: Espalier) -> str:
    edges = ",".join(f"({i},{j})" for i, j in tree.edges)
    return f"n={tree.vertices}; edges={edges}"


def parse_espalier(text: str) -> Espalier:
    """Parse "n=<int>; edges=(i,j),(k,l),..." (whitespace-insensitive), with
    exactly one comma between edges.

    Numbers share the 9-digit cap of braid words, and n the strand cap, so
    huge numerals and the crossing test on huge trees never run.
    """
    squeezed = re.sub(r"\s+", "", text, flags=re.ASCII)
    m = _ESPALIER_RE.match(squeezed)
    if m is None:
        raise ParseError(f"not an espalier spec: {text!r}")
    n = _number(m.group(1), None)
    if n > MAX_STRANDS:
        raise ParseError(f"{n} vertices; the cap is {MAX_STRANDS}")
    body = m.group(2)
    if _EDGE_LIST_RE.fullmatch(body) is None:
        raise ParseError(f"edge list is not (i,j) pairs separated by single commas: {body!r}")
    edges = [(_number(a, None), _number(b, None)) for a, b in _EDGE_RE.findall(body)]
    return new_espalier(n, edges)
