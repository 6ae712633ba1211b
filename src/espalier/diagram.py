"""The visual-primeness quick test: regions and length-2 loops of the
closed-braid diagram, read from each strand's gap sequence.

The diagram of a word is its literal band picture: a band a(i,j)^e expands
into the adjacent generators s_i ... s_{j-2} s_{j-1}^e s_{j-2}^-1 ... s_i^-1,
and each of those is one crossing.  Strands run left to right at heights 1..n
(1 on top) and close up around the outside.  A band draws 2(j-i)-1
crossings; words whose diagram would have more than braid.MAX_LETTERS
crossings are refused before the expansion.  This module is the one place
that spells the expansion out.

Gap g is the space between strands g and g+1; its c_g crossings are the
letters s_g.  Strand r meets the crossings of gaps r-1 and r, and its gap
sequence lists which gap each one lies on, in expansion order; its arcs run
from each of those crossings to the next, cyclically, the closing arc last.
The sequences are filled a band at a time: a(i,j) with j > i + 1 adds (i, i)
to strand i, (k-1, k, k, k-1) to each inner strand k, (j-2, j-1, j-2) to
strand j-1 and (j-1) to strand j; a(i,i+1) adds (i) to strands i and i+1.
Once every strand is touched the crossing graph is connected exactly when
every gap 1..n-1 carries a crossing.  With V crossings and 2V arcs, Euler's
formula on the sphere gives V + 2 regions: one above strand 1 (region 0), c_g
inside gap g and one below strand n (region V + 1).  Gap g's regions lie
between its consecutive crossings, cyclically, and take ids from
1 + c_1 + ... + c_{g-1} in the order strand g's arcs meet them, from its
first arc on: the region after gap g's q-th crossing is number q - 1 (mod c_g)
when strand g's first crossing lies on gap g, number q otherwise.  These are
the ids a face trace gives when it takes the darts strand by strand.

A circle meeting the diagram in two points crosses two arcs that border the
same two regions, i.e. a length-2 loop in the dual graph.  An arc of strand r
borders a region of gap r-1 and one of gap r, so both arcs of a loop run
along one strand r.  They are the two places where strand r passes between
its run of gap r-1 crossings and its run of gap r crossings, so a loop exists
exactly when r's cyclic gap sequence has two runs, and deleting the two arcs
separates the crossings on gaps < r from the rest: the loop is non-trivial
exactly when r is an inner strand.  The test is one-directional: no loop
means no decomposition circle; a loop only names a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from operator import ne

from .braid import MAX_LETTERS, BraidWord
from .errors import ToolkitError

__all__ = ["TwoLoop", "PrimenessReport", "visual_primeness_report"]


@dataclass(frozen=True)
class TwoLoop:
    regions: tuple[int, int]
    arcs: tuple[int, int]
    crossings_side_a: int
    crossings_side_b: int


@dataclass(frozen=True)
class PrimenessReport:
    regions: int
    loops: tuple[TwoLoop, ...]

    @property
    def passes_quick_test(self) -> bool:
        """True when no non-trivial length-2 loop exists: no decomposition
        circle is possible, though nothing is implied about the link itself."""
        return not self.loops


def visual_primeness_report(word: BraidWord) -> PrimenessReport:
    """Run the quick test on the closed-braid diagram of the word's literal
    band picture, one crossing per letter of its band expansion.

    No loops: the diagram admits no decomposition circle (which says nothing
    about primeness of the link; composite links can hide, as the granny-braid
    relative a(1,2) a(2,3) a(1,2) a(2,3) a(2,4)^3 shows).  Loops: each is a
    candidate circle with its two regions (upper, lower), its two arcs and its
    crossing counts per side.  The conjugator tails of the expansion are
    scanned as drawn, never cancelled.

    Words whose diagram has a crossing-free or disconnected closed component
    are rejected: their region structure is not determined by the strands'
    gap sequences alone.  So are words whose expansion would exceed
    MAX_LETTERS crossings.
    """
    crossings = sum(2 * (g.j - g.i) - 1 for g in word.letters)
    if crossings > MAX_LETTERS:
        raise ToolkitError(
            f"diagram would have {crossings} crossings; the cap is {MAX_LETTERS}"
        )
    if not word.letters:
        raise ToolkitError("empty diagram: no crossings to analyze")
    n = word.strands
    rows: list[list[int]] = [[] for _ in range(n + 1)]  # [r]: strand r's gap sequence
    for g in word.letters:
        i, j = g.i, g.j
        if j == i + 1:
            rows[i].append(i)
            rows[j].append(i)
            continue
        rows[i] += (i, i)
        for k in range(i + 1, j - 1):
            rows[k] += (k - 1, k, k, k - 1)
        rows[j - 1] += (j - 2, j - 1, j - 2)
        rows[j].append(j - 1)
    free = [r for r in range(1, n + 1) if not rows[r]]
    if free:
        raise ToolkitError(
            f"strand(s) {free} cross nothing; crossing-free closed components "
            "are not supported by the region scan"
        )
    per_gap = [row.count(g) for g, row in enumerate(rows)]  # gaps 0 and n stay empty
    # every strand is touched, so an empty inner gap is the only way to split
    if 0 in per_gap[1:n]:
        raise ToolkitError(
            "split closed-braid diagram (disconnected crossing graph) is not supported"
        )

    first_region = list(accumulate(per_gap, initial=1))  # [g]: gap g's first region id
    first_arc = len(rows[1])
    loops = []
    for r in range(2, n):
        row = rows[r]
        turns = list(compress(range(len(row)), map(ne, row, row[1:] + row[:1])))
        if len(turns) == 2:
            # the arc after crossing t lies after the upper-th gap r-1 and the
            # lower-th gap r crossing
            t = turns[0]
            upper = row[: t + 1].count(r - 1)
            lower = t + 1 - upper
            side = first_region[r] - 1  # crossings on gaps < r
            loops.append(TwoLoop(
                (first_region[r - 1] + (upper - (rows[r - 1][0] == r - 1)) % per_gap[r - 1],
                 first_region[r] + (lower - (row[0] == r)) % per_gap[r]),
                (first_arc + t, first_arc + turns[1]),
                *sorted((side, crossings - side)),
            ))
        first_arc += len(row)
    return PrimenessReport(crossings + 2, tuple(loops))
