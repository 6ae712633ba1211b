"""Closed-braid diagrams as rotation systems, the region dual graph, and the
length-2-loop quick test for decomposition circles.

The diagram of a word is its literal band picture: every band expands through
to_artin and each adjacent generator becomes one 4-valent vertex.  Strands run
left to right at heights 1..n (1 on top) and close up around the outside, so
the rotation at a crossing, counterclockwise, reads NE, NW, SW, SE.  Faces are
orbits of next-dart tracing; Euler's formula on the sphere is asserted.

A circle meeting the diagram in two points crosses two arcs that border the
same two regions, i.e. a length-2 loop in the dual graph.  Deleting those two
arcs drops every crossing into one of the circle's two sides, so the loop is
non-trivial exactly when the remaining crossing graph splits in two nonempty
parts.  The test is one-directional: no loop means no decomposition circle;
a loop only names a candidate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .braid import BraidWord, free_reduce, to_artin
from .errors import ToolkitError
from .trees import UnionFind

__all__ = [
    "PlanarDiagram",
    "RegionGraph",
    "TwoLoop",
    "PrimenessReport",
    "closed_braid_diagram",
    "region_dual_graph",
    "find_two_loops",
    "visual_primeness_report",
]

_SLOTS = ("ne", "nw", "sw", "se")  # counterclockwise rotation at every crossing
_NEXT_CCW = {"ne": "nw", "nw": "sw", "sw": "se", "se": "ne"}

End = tuple[int, str]  # (crossing index, slot)


@dataclass(frozen=True)
class PlanarDiagram:
    """V crossings, E = 2V arcs, faces from the rotation system (V - E + F = 2)."""

    signs: tuple[int, ...]
    arcs: tuple[tuple[End, End], ...]
    faces: tuple[tuple[End, ...], ...]
    arc_faces: tuple[tuple[int, int], ...]  # per arc: faces on its two sides

    @property
    def crossings(self) -> int:
        return len(self.signs)

    @property
    def regions(self) -> int:
        return len(self.faces)

    def half_edges(self, crossing: int) -> tuple[tuple[int, str], ...]:
        """The four (arc, slot) incidences of one crossing in rotation order."""
        attached = {}
        for idx, ends in enumerate(self.arcs):
            for c, slot in ends:
                if c == crossing:
                    attached[slot] = idx
        return tuple((attached[slot], slot) for slot in _SLOTS)


@dataclass(frozen=True)
class RegionGraph:
    """One vertex per region, one edge per diagram arc (a multigraph)."""

    regions: int
    edges: tuple[tuple[int, int, int], ...]  # (region, region, arc index)


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "regions": self.regions,
                "loops": [
                    {
                        "regions": [r + 1 for r in loop.regions],
                        "arcs": [a + 1 for a in loop.arcs],
                        "crossings_side_A": loop.crossings_side_a,
                        "crossings_side_B": loop.crossings_side_b,
                    }
                    for loop in self.loops
                ],
            }
        )


def closed_braid_diagram(word: BraidWord, reduce_expansion: bool = False) -> PlanarDiagram:
    """The closed-braid diagram of the word's literal band picture.

    reduce_expansion free-reduces the Artin expansion first (cancelling the
    conjugator tails bands introduce); the default keeps every crossing.
    Words whose diagram has a crossing-free or disconnected closed component
    are rejected: their region structure is not determined by the rotation
    system alone.
    """
    artin = to_artin(word)
    if reduce_expansion:
        artin = free_reduce(artin)
    if not artin.letters:
        raise ToolkitError("empty diagram: no crossings to analyze")
    n = word.strands
    rows: list[list[int]] = [[] for _ in range(n + 1)]
    for k, g in enumerate(artin.letters):
        rows[g.i].append(k)
        rows[g.i + 1].append(k)
    if any(not rows[r] for r in range(1, n + 1)):
        free = [r for r in range(1, n + 1) if not rows[r]]
        raise ToolkitError(
            f"strand(s) {free} cross nothing; crossing-free closed components "
            "are not supported by the region scan"
        )

    def left_slot(crossing: int, row: int) -> End:
        return (crossing, "nw" if artin.letters[crossing].i == row else "sw")

    def right_slot(crossing: int, row: int) -> End:
        return (crossing, "ne" if artin.letters[crossing].i == row else "se")

    arcs: list[tuple[End, End]] = []
    for row in range(1, n + 1):
        touches = rows[row]
        for a, b in zip(touches, touches[1:]):
            arcs.append((right_slot(a, row), left_slot(b, row)))
        arcs.append((right_slot(touches[-1], row), left_slot(touches[0], row)))

    occupied: dict[End, tuple[int, int]] = {}
    for idx, (one, two) in enumerate(arcs):
        for side, end in enumerate((one, two)):
            if end in occupied:
                raise ToolkitError(f"slot {end} used twice; malformed diagram")
            occupied[end] = (idx, side)
    if len(occupied) != 4 * len(artin.letters):
        raise ToolkitError("rotation system incomplete")

    # connectivity of the crossing graph (the embedding of a disconnected
    # diagram is not pinned down by rotations)
    sets = UnionFind(len(artin.letters))
    for (c1, _), (c2, _) in arcs:
        sets.union(c1, c2)
    if len(sets.sizes()) != 1:
        raise ToolkitError(
            "split closed-braid diagram (disconnected crossing graph) is not supported"
        )

    # face tracing: a dart is an arc traversed toward one end; the next dart
    # leaves through the counterclockwise-next slot at the arrival crossing
    darts = [(idx, side) for idx in range(len(arcs)) for side in (0, 1)]
    face_of: dict[tuple[int, int], int] = {}
    faces: list[tuple[End, ...]] = []
    for start in darts:
        if start in face_of:
            continue
        boundary: list[End] = []
        dart = start
        while dart not in face_of:
            face_of[dart] = len(faces)
            arc_idx, side = dart
            crossing, slot = arcs[arc_idx][side]
            boundary.append((crossing, slot))
            out = (crossing, _NEXT_CCW[slot])
            next_arc, next_side = occupied[out]
            dart = (next_arc, 1 - next_side)
        faces.append(tuple(boundary))

    euler = len(artin.letters) - len(arcs) + len(faces)
    if euler != 2:
        raise ToolkitError(f"rotation system is not spherical: V-E+F = {euler}")

    arc_faces = tuple(
        (face_of[(idx, 0)], face_of[(idx, 1)]) for idx in range(len(arcs))
    )
    return PlanarDiagram(
        signs=tuple(g.sign for g in artin.letters),
        arcs=tuple(arcs),
        faces=tuple(faces),
        arc_faces=arc_faces,
    )


def region_dual_graph(diagram: PlanarDiagram) -> RegionGraph:
    edges = tuple(
        (min(pair), max(pair), idx) for idx, pair in enumerate(diagram.arc_faces)
    )
    return RegionGraph(diagram.regions, edges)


def find_two_loops(graph: RegionGraph, diagram: PlanarDiagram) -> list[TwoLoop]:
    """All non-trivial length-2 loops: pairs of arcs bordering the same two
    distinct regions, such that the induced circle has crossings on both sides."""
    by_pair: dict[tuple[int, int], list[int]] = {}
    for r1, r2, arc in graph.edges:
        if r1 != r2:
            by_pair.setdefault((r1, r2), []).append(arc)
    loops = []
    for (r1, r2), arc_list in sorted(by_pair.items()):
        if len(arc_list) < 2:
            continue
        for a in range(len(arc_list)):
            for b in range(a + 1, len(arc_list)):
                sides = _split_crossings(diagram, arc_list[a], arc_list[b])
                if sides is None:
                    continue
                loops.append(
                    TwoLoop((r1, r2), (arc_list[a], arc_list[b]), sides[0], sides[1])
                )
    return loops


def _split_crossings(diagram: PlanarDiagram, arc_a: int, arc_b: int) -> tuple[int, int] | None:
    """Crossing counts on the two sides of the circle through arcs a and b,
    or None when one side is empty of crossings (a trivial loop)."""
    sets = UnionFind(diagram.crossings)
    for idx, ((c1, _), (c2, _)) in enumerate(diagram.arcs):
        if idx not in (arc_a, arc_b):
            sets.union(c1, c2)
    sizes = sets.sizes()
    if len(sizes) == 1:
        return None
    if len(sizes) != 2:
        raise ToolkitError(
            f"deleting arcs {arc_a},{arc_b} left {len(sizes)} components; "
            "impossible for a circle on the sphere"
        )
    return sizes[0], sizes[1]


def visual_primeness_report(word: BraidWord) -> PrimenessReport:
    """Run the quick test on the word's closed-braid diagram.

    No loops: the diagram admits no decomposition circle (which says nothing
    about primeness of the link; composite links can hide, as the granny-braid
    relative a(1,2) a(2,3) a(1,2) a(2,3) a(2,4)^3 shows).  Loops: each is a
    candidate circle with its crossing counts per side.
    """
    diagram = closed_braid_diagram(word)
    graph = region_dual_graph(diagram)
    return PrimenessReport(diagram.regions, tuple(find_two_loops(graph, diagram)))
