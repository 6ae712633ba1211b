"""Connected sums of braid words and espaliers.

Two knot-closure words on n1 and n2 strands embed side by side into
B_{n1+n2-1}: the left word keeps its indices, the right word's indices shift
up by n1 - 1 so the two share exactly one strand.  The closure of the
concatenation is the connected sum, and any interleaving (shuffle) of the two
letter sequences closes to a braided Stallings plumbing of the same pieces.
"""

from __future__ import annotations

from typing import Sequence

from .braid import BandGenerator, BraidWord, check_caps
from .errors import MultiComponentClosure, ToolkitError
from .trees import Espalier

__all__ = [
    "connected_sum_words",
    "espalier_sum",
]


def connected_sum_words(
    a: BraidWord,
    b: BraidWord,
    shuffle: Sequence[int] | None = None,
    force: bool = False,
) -> BraidWord:
    """A word on n1+n2-1 strands whose closure is (closure a) # (closure b).

    The default letter order is plain concatenation; a shuffle is a 0/1
    sequence (0 = next letter from a, 1 = from b) giving any braided Stallings
    plumbing of the two surfaces.  Multi-component inputs are rejected unless
    force is set, since the # interpretation is stated for knots.
    """
    strands = a.strands + b.strands - 1
    check_caps("the connected sum", strands, len(a) + len(b))
    for name, w in (("left", a), ("right", b)):
        components = w.components
        if components != 1 and not force:
            raise MultiComponentClosure(
                f"{name} word closes to a {components}-component link; "
                "connected sum is defined for knots (pass --force, or force=True, to experiment)",
                components=components,
            )
    offset = a.strands - 1
    right = tuple(BandGenerator(g.i + offset, g.j + offset, g.sign) for g in b.letters)
    if shuffle is None:
        return BraidWord(strands, a.letters + right)
    if sorted(shuffle) != [0] * len(a.letters) + [1] * len(b.letters):
        raise ToolkitError(f"shuffle must pick the left word {len(a.letters)} times "
                           f"and the right word {len(b.letters)} times")
    army = iter(a.letters)
    bees = iter(right)
    letters = tuple(next(bees) if pick else next(army) for pick in shuffle)
    return BraidWord(strands, letters)


def espalier_sum(t1: Espalier, t2: Espalier) -> Espalier:
    """Vertex sum gluing the right-most vertex of t1 to the left-most of t2.

    Built without re-validation: the two trees share only the glued vertex and
    lie on either side of it, so the sum is a non-crossing spanning tree, and
    every t1 edge sorts before every shifted t2 edge."""
    offset = t1.vertices - 1
    edges = t1.edges + tuple((i + offset, j + offset) for i, j in t2.edges)
    return Espalier(t1.vertices + t2.vertices - 1, edges)
