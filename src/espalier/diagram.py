"""Closed-braid diagrams as rotation systems and the length-2-loop quick test
for decomposition circles.

The diagram of a word is its literal band picture: every band expands into
adjacent generators as braid.to_artin spells it, and each of those becomes one
4-valent vertex.  Strands run left to right at heights 1..n (1 on top) and
close up around the outside, so the rotation at a crossing, counterclockwise,
reads NE, NW, SW, SE.  Inside the build an end is the integer 4*crossing + slot
(slots in that order) and a dart, an arc traversed toward one of its ends, is
2*arc + end; faces are orbits of next-dart tracing on flat lists, and Euler's
formula on the sphere is asserted.  A band a(i,j) draws 2(j-i)-1 crossings;
words whose diagram would have more than braid.MAX_LETTERS crossings are
refused before the expansion.

Gap g is the space between strands g and g+1; its crossings are the letters
s_g.  Strand r's arcs form one cycle through the crossings of gaps r-1 and r,
so once every strand is touched the crossing graph is connected exactly when
every gap 1..n-1 carries a crossing.

A circle meeting the diagram in two points crosses two arcs that border the
same two regions, i.e. a length-2 loop in the dual graph.  Every region lies
in one gap (or above strand 1, or below strand n) and an arc of strand r
borders a region of gap r-1 and one of gap r, so both arcs of a loop run
along one strand r.  They are the two places where strand r passes between
its run of gap r-1 crossings and its run of gap r crossings, so there is at
most one loop per strand, and deleting the two arcs separates the crossings
on gaps < r from the rest: the loop is non-trivial exactly when both counts
are nonzero, i.e. when r is an inner strand.  The test is one-directional: no
loop means no decomposition circle; a loop only names a candidate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations, product

from .braid import MAX_LETTERS, BraidWord, _artin_steps
from .errors import ToolkitError

__all__ = [
    "PlanarDiagram",
    "TwoLoop",
    "PrimenessReport",
    "closed_braid_diagram",
    "find_two_loops",
    "visual_primeness_report",
]

_SLOTS = ("ne", "nw", "sw", "se")  # counterclockwise rotation at every crossing

End = tuple[int, str]  # (crossing index, slot)


@dataclass(frozen=True)
class PlanarDiagram:
    """V crossings, E = 2V arcs, V + 2 regions from the rotation system (V - E + F = 2)."""

    signs: tuple[int, ...]
    crossings_above: tuple[int, ...]  # [r]: crossings on gaps < r, r = 0..n
    arcs: tuple[tuple[End, End], ...]  # strand by strand, left to right, closing arc last
    regions: int
    arc_faces: tuple[tuple[int, int], ...]  # per arc: faces on its two sides

    @property
    def crossings(self) -> int:
        return len(self.signs)


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


def closed_braid_diagram(word: BraidWord) -> PlanarDiagram:
    """The closed-braid diagram of the word's literal band picture, one
    crossing per letter of to_artin(word).

    The diagram without the conjugator tails bands introduce is
    closed_braid_diagram(free_reduce(to_artin(word))): an Artin word expands
    to itself.  Words whose diagram has a crossing-free or disconnected
    closed component are rejected: their region structure is not determined
    by the rotation system alone.  So are words whose expansion would exceed
    MAX_LETTERS crossings.
    """
    expanded = sum(2 * (g.j - g.i) - 1 for g in word.letters)
    if expanded > MAX_LETTERS:
        raise ToolkitError(
            f"diagram would have {expanded} crossings; the cap is {MAX_LETTERS}"
        )
    if not word.letters:
        raise ToolkitError("empty diagram: no crossings to analyze")
    n = word.strands
    gaps, signs = zip(*_artin_steps(word))
    per_gap = [0] * (n + 1)  # gaps 0 and n stay empty
    for i in gaps:
        per_gap[i] += 1
    free = [r for r in range(1, n + 1) if not (per_gap[r - 1] or per_gap[r])]
    if free:
        raise ToolkitError(
            f"strand(s) {free} cross nothing; crossing-free closed components "
            "are not supported by the region scan"
        )
    # every strand is touched, so an empty inner gap is the only way to split
    # (the embedding of a disconnected diagram is not pinned down by rotations)
    if 0 in per_gap[1:n]:
        raise ToolkitError(
            "split closed-braid diagram (disconnected crossing graph) is not supported"
        )

    # per strand, the right-hand end of each crossing it meets: NE (4k) on
    # the upper strand, SE (4k + 3) on the lower; the left-hand end is end ^ 1
    strands: list[list[int]] = [[] for _ in range(n + 1)]
    for k, i in enumerate(gaps):
        strands[i].append(4 * k)
        strands[i + 1].append(4 * k + 3)
    ends: list[int] = []  # dart 2*arc + s runs toward the arc's end s
    for row in strands[1 : n + 1]:
        for right, following in zip(row, row[1:] + row[:1]):
            ends += (right, following ^ 1)

    occupant: dict[int, int] = {}  # end -> dart
    for dart, end in enumerate(ends):
        if end in occupant:
            raise ToolkitError(f"slot {(end >> 2, _SLOTS[end & 3])} used twice; malformed diagram")
        occupant[end] = dart
    if len(occupant) != 4 * len(gaps):
        raise ToolkitError("rotation system incomplete")

    # face tracing: the next dart leaves through the counterclockwise-next
    # slot at the arrival crossing, along that arc away from the crossing
    face_of = [-1] * len(ends)
    regions = 0
    for start in range(len(ends)):
        if face_of[start] >= 0:
            continue
        dart = start
        while face_of[dart] < 0:
            face_of[dart] = regions
            end = ends[dart]
            dart = occupant[(end & -4) | ((end + 1) & 3)] ^ 1
        regions += 1

    euler = len(gaps) - len(ends) // 2 + regions
    if euler != 2:
        raise ToolkitError(f"rotation system is not spherical: V-E+F = {euler}")

    named = list(product(range(len(gaps)), _SLOTS))  # end -> (crossing, slot)
    return PlanarDiagram(
        signs=signs,
        crossings_above=tuple(accumulate(per_gap[:n], initial=0)),
        arcs=tuple(zip(map(named.__getitem__, ends[0::2]), map(named.__getitem__, ends[1::2]))),
        regions=regions,
        arc_faces=tuple(zip(face_of[0::2], face_of[1::2])),
    )


def find_two_loops(diagram: PlanarDiagram) -> list[TwoLoop]:
    """All non-trivial length-2 loops: pairs of arcs bordering the same two
    distinct regions, such that the induced circle has crossings on both sides.

    Both arcs of a pair run along one strand r, and the circle has the
    crossings on gaps < r on one side, the rest on the other."""
    by_pair: dict[tuple[int, int], list[int]] = {}
    for arc, (r1, r2) in enumerate(diagram.arc_faces):
        if r1 != r2:
            by_pair.setdefault((r1, r2) if r1 < r2 else (r2, r1), []).append(arc)
    above = diagram.crossings_above
    total = diagram.crossings
    # strand r has one arc per crossing on gaps r-1 and r, so its arcs start
    # at above[r-1] + above[r]
    first_arc = [above[r - 1] + above[r] for r in range(1, len(above))]
    loops = []
    for pair, arc_list in sorted(item for item in by_pair.items() if len(item[1]) > 1):
        for a, b in combinations(arc_list, 2):
            strand = bisect_right(first_arc, a)
            if bisect_right(first_arc, b) != strand:
                raise ToolkitError(
                    f"arcs {a},{b} border the same two regions but lie on different "
                    "strands; impossible for a closed-braid diagram"
                )
            side = above[strand]
            if 0 < side < total:
                loops.append(TwoLoop(pair, (a, b), *sorted((side, total - side))))
    return loops


def visual_primeness_report(word: BraidWord) -> PrimenessReport:
    """Run the quick test on the word's closed-braid diagram.

    No loops: the diagram admits no decomposition circle (which says nothing
    about primeness of the link; composite links can hide, as the granny-braid
    relative a(1,2) a(2,3) a(1,2) a(2,3) a(2,4)^3 shows).  Loops: each is a
    candidate circle with its crossing counts per side.
    """
    diagram = closed_braid_diagram(word)
    return PrimenessReport(diagram.regions, tuple(find_two_loops(diagram)))
