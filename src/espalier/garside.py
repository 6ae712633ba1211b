"""Dual-Garside (band generator) left normal form and staircase detection.

Simple elements of the dual structure on n strands are the non-crossing
partitions of {1..n}.  The partition with one block {1..n} is the dual
Garside element delta = s_1 s_2 ... s_{n-1}; the discrete partition is the
identity.  A block {b_1 < ... < b_k} stands for the chain of bands
a(b_1,b_2) a(b_2,b_3) ... a(b_{k-1},b_k); distinct blocks of a non-crossing
partition commute, so the partition determines the product.

The engine works on the underlying permutation of a simple, a 0-based tuple p
with p[x] the image of x.  The chain of a block acts as the descending cycle
b_{i+1} -> b_i, b_1 -> b_k; the map partition -> permutation is injective,
left-divisibility between simples is refinement of their cycle partitions,
and the gcd (meet) of two simples is the common refinement.
NonCrossingPartition is the public view of a simple: it is validated when a
caller builds one, and left_normal_form reads one off each output factor.

Every braid word equals delta^inf A_1 ... A_l for a unique left-weighted
sequence of proper simples: for consecutive (A, B) the head
meet(complement(A), B) is trivial.  left_normal_form appends one simple per
letter and pushes it left pair by pair until a head is trivial (Birman, Ko and
Lee 1998).  A negative letter enters through X a^-1 = delta^-1 tau(X) (delta a^-1),
where delta a^-1 is simple and tau is conjugation by delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .braid import BandGenerator, BraidWord, _cycles, concat_all, cyclic_rotations
from .errors import NotBKLPositive, StrandMismatch, ToolkitError
from .trees import _crossing_pair

__all__ = [
    "NonCrossingPartition",
    "NormalForm",
    "StaircaseWitness",
    "delta",
    "band_to_simple",
    "simple_product",
    "left_complement",
    "left_normal_form",
    "words_equal",
    "tau_shift",
    "is_staircase",
]

Block = tuple[int, ...]
Simple = tuple[int, ...]


def delta(n: int) -> BraidWord:
    """The dual Garside element s_1 s_2 ... s_{n-1} as a word."""
    if n < 2:
        raise ToolkitError(f"delta needs at least 2 strands, got {n}")
    return BraidWord(n, tuple(BandGenerator(k, k + 1) for k in range(1, n)))


@dataclass(frozen=True)
class NonCrossingPartition:
    """A non-crossing partition of {1..n}; blocks sorted, singletons included."""

    n: int
    blocks: tuple[Block, ...]

    def __post_init__(self):
        elements = [x for block in self.blocks for x in block]
        if sorted(elements) != list(range(1, self.n + 1)):
            raise ToolkitError(f"blocks do not partition 1..{self.n}: {self.blocks}")
        if self.blocks != tuple(sorted(tuple(sorted(b)) for b in self.blocks)):
            raise ToolkitError(f"blocks {self.blocks} are not sorted in canonical order")
        # chords of one block never interleave, so any crossing is between blocks
        pair = _crossing_pair(
            (block[k], block[k + 1]) for block in self.blocks for k in range(len(block) - 1)
        )
        if pair is not None:
            raise ToolkitError(f"blocks interleave: chords {pair[0]} and {pair[1]} cross")

    @staticmethod
    def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> "NonCrossingPartition":
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks if b))
        return NonCrossingPartition(n, canon)

    @staticmethod
    def identity(n: int) -> "NonCrossingPartition":
        return NonCrossingPartition(n, tuple((k,) for k in range(1, n + 1)))

    @staticmethod
    def full(n: int) -> "NonCrossingPartition":
        return NonCrossingPartition(n, (tuple(range(1, n + 1)),))

    @property
    def is_identity(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    @property
    def is_delta(self) -> bool:
        return len(self.blocks) == 1 and self.n > 1

    def to_word(self) -> BraidWord:
        """The chain word of each block, blocks in canonical order."""
        letters = []
        for block in self.blocks:
            letters.extend(BandGenerator(block[k], block[k + 1]) for k in range(len(block) - 1))
        return BraidWord(self.n, tuple(letters))

    def __str__(self) -> str:
        parts = ["{" + ",".join(map(str, b)) + "}" for b in self.blocks if len(b) > 1]
        return "".join(parts) if parts else "e"


# --- the engine: simples as permutation tuples ---------------------------------


def _simple(part: NonCrossingPartition) -> Simple:
    p = list(range(part.n))
    for block in part.blocks:
        for k, x in enumerate(block):
            p[x - 1] = block[k - 1] - 1  # descending cycle; block[-1] closes it
    return tuple(p)


def _view(p: Simple) -> NonCrossingPartition:
    # cycles come ordered by their minima, so the sorted blocks are canonical
    return NonCrossingPartition(len(p), tuple(tuple(sorted(x + 1 for x in c)) for c in _cycles(p)))


def _atom(n: int, g: BandGenerator) -> Simple:
    p = list(range(n))
    p[g.i - 1], p[g.j - 1] = g.j - 1, g.i - 1
    return tuple(p)


def _product(a: Simple, b: Simple) -> Simple:
    """a.b as braids: apply a, then b."""
    return tuple(b[x] for x in a)


def _quotient(h: Simple, b: Simple) -> Simple:
    """h^-1 . b."""
    q = [0] * len(h)
    for x, y in enumerate(h):
        q[y] = b[x]
    return tuple(q)


def _complement(a: Simple) -> Simple:
    """The simple C with a . C = delta, i.e. a^-1 . delta."""
    n = len(a)
    c = [0] * n
    for x, y in enumerate(a):
        c[y] = (x - 1) % n
    return tuple(c)


def _tau(a: Simple) -> Simple:
    """Conjugation by delta: every index rotates up by one (mod n)."""
    n = len(a)
    t = [0] * n
    for x, y in enumerate(a):
        t[(x + 1) % n] = (y + 1) % n
    return tuple(t)


def _labels(p: Simple) -> list[int]:
    labels = [0] * len(p)
    for label, cycle in enumerate(_cycles(p)):
        for x in cycle:
            labels[x] = label
    return labels


def _meet(a: Simple, b: Simple) -> Simple:
    """The gcd of two simples: descending cycles on the common refinement."""
    meet = list(range(len(a)))
    first: dict[tuple[int, int], int] = {}
    last: dict[tuple[int, int], int] = {}
    for x, key in enumerate(zip(_labels(a), _labels(b))):
        if key in last:
            meet[x] = last[key]
        else:
            first[key] = x
        last[key] = x
    for key, x in first.items():
        meet[x] = last[key]
    return tuple(meet)


def _push_left(factors: list[Simple], identity: Simple) -> None:
    """Restore left-weightedness after one simple was appended to a
    left-weighted list; only the last factor can end up trivial."""
    for k in range(len(factors) - 1, 0, -1):
        a, b = factors[k - 1], factors[k]
        head = _meet(_complement(a), b)
        if head == identity:
            break
        factors[k - 1] = _product(a, head)
        factors[k] = _quotient(head, b)
    if factors[-1] == identity:
        factors.pop()


# --- public simples: thin conversions over the engine ---------------------------


def band_to_simple(g: BandGenerator, n: int) -> NonCrossingPartition:
    """The atom partition of a positive band: one block {i,j}, rest singletons."""
    if g.sign < 0:
        raise NotBKLPositive(f"{g} is negative; only positive bands are simple")
    if g.j > n:
        raise StrandMismatch(f"{g} does not fit on {n} strands")
    return _view(_atom(n, g))


def left_complement(a: NonCrossingPartition) -> NonCrossingPartition:
    """The unique simple C with a . C = delta."""
    return _view(_complement(_simple(a)))


def simple_product(a: NonCrossingPartition, b: NonCrossingPartition) -> NonCrossingPartition | None:
    """The partition of a.b when that product is still simple, else None.

    a.b is simple exactly when b left-divides the complement of a.
    """
    if a.n != b.n:
        raise StrandMismatch("partition sizes differ")
    pa, pb = _simple(a), _simple(b)
    if _meet(_complement(pa), pb) != pb:
        return None
    return _view(_product(pa, pb))


def tau_shift(g: BandGenerator, n: int) -> BandGenerator:
    """Conjugation by delta: a(i,j) -> a(i+1,j+1) with indices cyclic in 1..n."""
    i = g.i % n + 1
    j = g.j % n + 1
    if i > j:
        i, j = j, i
    return BandGenerator(i, j, g.sign)


@dataclass(frozen=True)
class NormalForm:
    """delta^inf . A_1 ... A_l with proper simple factors, left-weighted (unchecked)."""

    n: int
    inf: int
    factors: tuple[NonCrossingPartition, ...]

    @property
    def sup(self) -> int:
        return self.inf + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def to_word(self) -> BraidWord:
        parts = []
        if self.inf != 0 and self.n >= 2:
            d = delta(self.n)
            if self.inf > 0:
                parts.extend([d] * self.inf)
            else:
                inv = BraidWord(self.n, tuple(g.inverse() for g in reversed(d.letters)))
                parts.extend([inv] * (-self.inf))
        parts.extend(f.to_word() for f in self.factors)
        return concat_all(parts, self.n)

    def __str__(self) -> str:
        head = f"delta^{self.inf}"
        if not self.factors:
            return head
        return head + " | " + ";".join(str(f) for f in self.factors)


def left_normal_form(word: BraidWord) -> NormalForm:
    """The left-weighted dual normal form of the word's braid element."""
    n = word.strands
    if n == 1:
        return NormalForm(1, 0, ())
    identity = tuple(range(n))
    top = (n - 1,) + tuple(range(n - 1))  # delta sends 1 -> n and k -> k-1
    inf = 0
    factors: list[Simple] = []
    for g in word.letters:
        if g.sign > 0:
            factors.append(_atom(n, g))
        else:
            # X . a^-1  =  X . delta^-1 . (delta a^-1)  =  delta^-1 . tau(X) . (delta a^-1)
            inf -= 1
            factors = [_tau(f) for f in factors]
            factors.append(_product(top, _atom(n, g)))
        _push_left(factors, identity)
    lead = 0
    while lead < len(factors) and factors[lead] == top:
        lead += 1
    return NormalForm(n, inf + lead, tuple(_view(f) for f in factors[lead:]))


def words_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two words represent the same braid element (normal forms agree)."""
    if a.strands != b.strands:
        raise StrandMismatch(f"words on {a.strands} and {b.strands} strands are incomparable")
    return left_normal_form(a) == left_normal_form(b)


@dataclass(frozen=True)
class StaircaseWitness:
    """Outcome of the staircase test; truthy iff the infimum is positive.

    When found, head is the delta word, tail the BKL-positive remainder P, and
    head.tail equals the witnessing rotation of the input.
    """

    staircase: bool
    inf: int
    rotation: int | None = None
    head: BraidWord | None = None
    tail: BraidWord | None = None

    def __bool__(self) -> bool:
        return self.staircase

    @property
    def word(self) -> BraidWord | None:
        if self.head is None or self.tail is None:
            return None
        return concat_all([self.head, self.tail], self.head.strands)


def is_staircase(word: BraidWord, up_to_rotation: bool = False) -> StaircaseWitness:
    """Detect a positive power of delta in the dual normal form.

    A BKL-positive word is a staircase braid iff its infimum is at least 1.
    With up_to_rotation, every cyclic rotation is tried (a sufficient check
    for the closure, which is rotation-invariant); the witness records which
    rotation succeeded and rewrites it as delta . P with P BKL-positive.
    """
    if not word.is_positive:
        raise NotBKLPositive("staircase detection is defined for BKL-positive words")
    n = word.strands
    rotations = cyclic_rotations(word) if up_to_rotation else [word]
    first_inf: int | None = None
    for r, rotated in enumerate(rotations):
        nf = left_normal_form(rotated)
        if first_inf is None:
            first_inf = nf.inf
        if nf.inf >= 1 and n >= 2:
            head = delta(n)
            tail = NormalForm(n, nf.inf - 1, nf.factors).to_word()
            return StaircaseWitness(True, nf.inf, rotation=r, head=head, tail=tail)
    return StaircaseWitness(False, first_inf if first_inf is not None else 0)
