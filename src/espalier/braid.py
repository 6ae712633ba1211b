"""Band-generator braid words: parsing, serialization and bookkeeping.

A word is stored exactly as written.  No free reduction or rewriting ever
happens, because the braided-surface accounting reads the literal letter
sequence (it is *not* invariant under the trivial group relations), and
bands are never expanded into Artin generators here: the primeness scan in
diagram.py reads a band's crossings straight off its ends.
Two facts about a word are counted once per word, on first read, and cached
on it: its closure's component count, BraidWord.components, and its per-edge
tally, BraidWord.edge_tally (letter count and exponent sum of each band edge,
in order of first appearance).  Classification, the espalier search and the
Murasugi sums all read the tally, so none of them walks the letters again.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .errors import ParseError, ToolkitError

__all__ = [
    "BandGenerator",
    "BraidWord",
    "parse_braid",
    "check_caps",
    "format_braid",
]


@dataclass(frozen=True, order=True)
class BandGenerator:
    """The band a(i,j) (1 <= i < j) taking strand i over to strand j, signed."""

    i: int
    j: int
    sign: int = 1

    def __post_init__(self):
        if not 1 <= self.i < self.j:
            raise ParseError(f"band generator needs 1 <= i < j, got a({self.i},{self.j})")
        if self.sign not in (1, -1):
            raise ParseError(f"band generator sign must be +1 or -1, got {self.sign}")

    @property
    def edge(self) -> tuple[int, int]:
        return (self.i, self.j)

    def inverse(self) -> "BandGenerator":
        return BandGenerator(self.i, self.j, -self.sign)

    def __str__(self) -> str:
        return f"a({self.i},{self.j})" + ("" if self.sign > 0 else "^-1")


@dataclass(frozen=True)
class BraidWord:
    """A sequence of band generators on a declared number of strands."""

    strands: int
    letters: tuple[BandGenerator, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ParseError(f"strand count must be positive, got {self.strands}")
        for g in self.letters:
            if g.j > self.strands:
                raise ParseError(f"letter {g} exceeds strand count {self.strands}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_braid(self)

    @property
    def is_positive(self) -> bool:
        """True when every letter is a positive band generator (BKL-positive)."""
        return all(g.sign > 0 for g in self.letters)

    @cached_property
    def components(self) -> int:
        """Number of link components of the closure: cycles of the permutation,
        counted on first read."""
        # t_L o ... o t_1, built right to left so each band swaps two positions
        images = list(range(self.strands))
        for g in reversed(self.letters):
            images[g.i - 1], images[g.j - 1] = images[g.j - 1], images[g.i - 1]
        return len(_cycles(images))

    @cached_property
    def edge_tally(self) -> Mapping[tuple[int, int], tuple[int, int]]:
        """(letter count, exponent sum) per band edge, edges in order of first
        appearance; counted on first read, read-only."""
        tally: dict[tuple[int, int], tuple[int, int]] = {}
        get = tally.get
        for g in self.letters:
            edge = (g.i, g.j)
            count, total = get(edge, (0, 0))
            tally[edge] = (count + 1, total + g.sign)
        return MappingProxyType(tally)


def _cycles(images: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles of a permutation of 0..n-1 (images[x] is the image of x), fixed
    points included, each starting at its minimum, ordered by minima.
    Raises ToolkitError, rather than looping forever, when images is not a
    permutation."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = images[start]
        while x != start:
            if seen[x]:
                raise ToolkitError(f"not a permutation: {x} has two preimages")
            cycle.append(x)
            seen[x] = True
            x = images[x]
        out.append(tuple(cycle))
    return out


# --- text format -----------------------------------------------------------
#
# word   := WS* (term WS*)*
# term   := gen power?
# gen    := 's' INT | 'a' INT | 'a' '(' INT ',' INT ')'
# power  := '^' '-'? INT
#
# 's1' and 'a1' are both shorthand for a(1,2).
#
# Input caps sit far above every bundled and benchmark word (the largest, the
# 64-strand rung of the (2,q)-cable ladder, has a few hundred letters).

MAX_LETTERS = 100_000
"""Most letters parse_braid builds, counted after exponents are expanded."""

MAX_STRANDS = 1_000
"""Largest strand count parse_braid accepts, declared or inferred."""

# one match per term, or one stray non-space character to report
_TERM_RE = re.compile(r"(?:[sa](\d+)|a\((\d+)\s*,\s*(\d+)\))(?:\^(-?\d+))?|\S", re.ASCII)


def check_caps(what: str, strands: int, letters: int) -> None:
    """Refuse to build a word past the parse caps, before any letter exists."""
    if strands > MAX_STRANDS:
        raise ToolkitError(f"{what} would need {strands} strands; the cap is {MAX_STRANDS}")
    if letters > MAX_LETTERS:
        raise ToolkitError(f"{what} would have {letters} letters; the cap is {MAX_LETTERS}")


def _number(digits: str, pos: int | None) -> int:
    # no cap needs ten digits; this also keeps int() away from huge numerals
    if len(digits) > 9 and len(digits.lstrip("-").lstrip("0")) > 9:
        raise ParseError(f"number {digits[:12]}... is too large", position=pos)
    return int(digits)


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse braid-word text; infer the strand count from indices when omitted.

    A term that would need more than MAX_STRANDS strands, or take the word
    past MAX_LETTERS letters, is rejected before it builds any letter.
    """
    if strands is not None and strands > MAX_STRANDS:
        raise ParseError(f"{strands} strands declared; the cap is {MAX_STRANDS}")
    letters: list[BandGenerator] = []
    needed = 1
    for m in _TERM_RE.finditer(text):
        pos = m.start()
        if m.lastindex is None:
            raise ParseError(f"unrecognized token {text[pos:pos + 8]!r}", position=pos)
        short, low, high, power = m.groups()
        if short is not None:
            i = _number(short, pos)
            j = i + 1
        else:
            i, j = _number(low, pos), _number(high, pos)
        if i < 1:
            raise ParseError("strand indices are 1-based", position=pos)
        if i >= j:
            raise ParseError(f"band generator needs i < j, got a({i},{j})", position=pos)
        if j > MAX_STRANDS:
            raise ParseError(f"strand {j} exceeds the cap of {MAX_STRANDS} strands", position=pos)
        exponent = 1 if power is None else _number(power, m.start(4) - 1)
        if len(letters) + abs(exponent) > MAX_LETTERS:
            raise ParseError(f"word expands to more than {MAX_LETTERS} letters", position=pos)
        letters += [BandGenerator(i, j, 1 if exponent >= 0 else -1)] * abs(exponent)
        needed = max(needed, j)
    if strands is None:
        strands = needed
    elif strands < needed:
        raise ParseError(f"word needs {needed} strands but only {strands} declared")
    return BraidWord(strands, tuple(letters))


def format_braid(word: BraidWord) -> str:
    """Canonical serialization: runs of equal letters become a(i,j)^k."""
    parts = []
    for (i, j, sign), group in itertools.groupby(word.letters, key=lambda g: (g.i, g.j, g.sign)):
        k = sum(1 for _ in group) * sign
        parts.append(f"a({i},{j})" if k == 1 else f"a({i},{j})^{k}")
    return " ".join(parts)
