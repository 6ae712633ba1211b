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
and the gcd (meet) of two simples is the common refinement.  In a descending
cycle x > p[x] unless x is its block's minimum, so the meet reads every
element's block minimum off both tuples in one pass and keys on the pair.
left_normal_form wraps each output tuple in a NonCrossingPartition, a view
that reads blocks, string and word off the tuple's cycles and validates
nothing: the engine builds only non-crossing simples.  _blocks reads each
descending cycle as an ascending block, the one block-reading rule, and
_letters hands those blocks to _chains; factor strings, factor words and the
staircase witness's letters all go through them.  Delta's simple is spelled
once, in _delta_simple.

Every braid word equals delta^inf A_1 ... A_l for a unique left-weighted
sequence of proper simples: for consecutive (A, B) the head
meet(complement(A), B) is trivial.  The engine appends one simple per letter
and pushes it left pair by pair until a head is trivial (Birman, Ko and Lee
1998).  A negative letter a^-1 is delta^-1 (delta a^-1), where delta a^-1 is
simple, and X delta^-1 = delta^-1 tau(X) with tau conjugation by delta.  So a
word with m negative letters reads delta^-m tau^(c_1)(s_1) ... tau^(c_L)(s_L),
where s_k is the atom or delta a^-1 and c_k counts the negative letters after
letter k: each letter enters once, already shifted, and no letter re-shifts
the factors before it.

A push step is a pure function of the pair of simples.  On n <= 5 strands
there are only Catalan(n)^2 pairs, at most 1,990 over all such n, so the step
is cached there: short words revisit the same few pairs many times.  Larger
n call the same step uncached, since their pairs rarely repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

from .braid import BandGenerator, BraidWord, _cycles
from .errors import StrandMismatch, ToolkitError

__all__ = [
    "NormalForm",
    "StaircaseWitness",
    "delta",
    "left_normal_form",
    "words_equal",
    "is_staircase",
]

Block = tuple[int, ...]
Simple = tuple[int, ...]


def _chains(blocks: Iterable[Sequence[int]]) -> tuple[BandGenerator, ...]:
    """The chain a(b_1,b_2) a(b_2,b_3) ... a(b_{k-1},b_k) of each ascending
    block of 0-based strands (b_1 - 1, ..., b_k - 1), blocks in order."""
    bands: dict[tuple[int, int], BandGenerator] = {}  # one letter per distinct band
    letters = []
    for block in blocks:
        for band in zip(block, block[1:]):
            g = bands.get(band)
            if g is None:
                g = bands[band] = BandGenerator(band[0] + 1, band[1] + 1)
            letters.append(g)
    return tuple(letters)


def delta(n: int) -> BraidWord:
    """The dual Garside element s_1 s_2 ... s_{n-1} as a word."""
    if n < 2:
        raise ToolkitError(f"delta needs at least 2 strands, got {n}")
    return BraidWord(n, _chains([range(n)]))


# --- the engine: simples as permutation tuples ---------------------------------


def _delta_simple(n: int) -> Simple:
    """Delta as a simple, the one block {1..n}: 1 -> n and k -> k-1."""
    return (n - 1, *range(n - 1))


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


def _tau(a: Simple, k: int) -> Simple:
    """Conjugation by delta^k: every index rotates up by k (mod n)."""
    n = len(a)
    t = [0] * n
    for x, y in enumerate(a):
        t[(x + k) % n] = (y + k) % n
    return tuple(t)


def _meet(a: Simple, b: Simple) -> Simple:
    """The gcd of two simples: descending cycles on the common refinement,
    whose blocks are the x with equal block minima (la[x], lb[x]) in a and b."""
    n = len(a)
    la = list(range(n))
    lb, meet = la[:], la[:]
    first: dict[int, int] = {}
    for x in range(n):
        y, z = a[x], b[x]
        y = la[x] = la[y] if y < x else x
        z = lb[x] = lb[z] if z < x else x
        m = first.setdefault(y * n + z, x)
        if m != x:  # x is the block's largest so far: m -> x -> the previous one
            meet[x] = meet[m]
            meet[m] = x
    return tuple(meet)


_CACHED_STRANDS = 5  # the push step is cached on at most this many strands


@cache
def _step(a: Simple, b: Simple, identity: Simple) -> tuple[Simple, Simple] | None:
    """(a.h, h^-1.b) for the head h = meet(complement(a), b), or None when h
    is the identity and (a, b) is already left-weighted."""
    head = _meet(_complement(a), b)
    if head == identity:
        return None
    return _product(a, head), _quotient(head, b)


def _push_left(factors: list[Simple], identity: Simple) -> None:
    """Restore left-weightedness after one simple was appended to a
    left-weighted list; only the last factor can end up trivial."""
    step = _step if len(identity) <= _CACHED_STRANDS else _step.__wrapped__
    for k in range(len(factors) - 1, 0, -1):
        pair = step(factors[k - 1], factors[k], identity)
        if pair is None:
            break
        factors[k - 1], factors[k] = pair
    if factors[-1] == identity:
        factors.pop()


@dataclass(frozen=True)
class NonCrossingPartition:
    """A factor of a normal form: the engine's simple, read as the non-crossing
    partition of {1..n} that its cycles form."""

    simple: Simple

    @property
    def n(self) -> int:
        return len(self.simple)

    @property
    def blocks(self) -> tuple[Block, ...]:
        """Ascending blocks, singletons included, ordered by their minima."""
        return tuple(tuple(x + 1 for x in b) for b in _blocks(self.simple))

    def to_word(self) -> BraidWord:
        """The chain word of each block, blocks in order."""
        return _letters(self.n, [self.simple])

    def __str__(self) -> str:
        parts = ["{" + ",".join(map(str, b)) + "}" for b in self.blocks if len(b) > 1]
        return "".join(parts) if parts else "e"


@dataclass(frozen=True)
class NormalForm:
    """delta^inf . A_1 ... A_l with proper simple factors, left-weighted (unchecked)."""

    n: int
    inf: int
    factors: tuple[NonCrossingPartition, ...]

    @property
    def sup(self) -> int:
        return self.inf + len(self.factors)

    def to_word(self) -> BraidWord:
        d = _chains([range(self.n)])
        if self.inf < 0:
            d = tuple(g.inverse() for g in reversed(d))
        chains = _letters(self.n, (f.simple for f in self.factors)).letters
        return BraidWord(self.n, d * abs(self.inf) + chains)

    def __str__(self) -> str:
        head = f"delta^{self.inf}"
        if not self.factors:
            return head
        return head + " | " + ";".join(str(f) for f in self.factors)


def _normal_form(word: BraidWord) -> tuple[int, list[Simple]]:
    """inf and the proper factors of the left normal form, as tuples."""
    n = word.strands
    identity = tuple(range(n))
    top = _delta_simple(n)
    shift = sum(g.sign < 0 for g in word.letters)  # c_k: negative letters after letter k
    inf = -shift
    factors: list[Simple] = []
    for g in word.letters:
        s = _atom(n, g)
        if g.sign < 0:
            shift -= 1
            s = _product(top, s)
        factors.append(_tau(s, shift) if shift % n else s)
        _push_left(factors, identity)
    return _fold_deltas(inf, factors, top)


def left_normal_form(word: BraidWord) -> NormalForm:
    """The left-weighted dual normal form of the word's braid element."""
    inf, factors = _normal_form(word)
    return NormalForm(word.strands, inf, tuple(map(NonCrossingPartition, factors)))


def _fold_deltas(inf: int, factors: list[Simple], top: Simple) -> tuple[int, list[Simple]]:
    """Move the leading delta factors of a left-weighted list into inf."""
    lead = next((k for k, f in enumerate(factors) if f != top), len(factors))
    return inf + lead, factors[lead:]


def words_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two words represent the same braid element (normal forms agree)."""
    if a.strands != b.strands:
        raise StrandMismatch(f"words on {a.strands} and {b.strands} strands are incomparable")
    return _normal_form(a) == _normal_form(b)


def _blocks(simple: Simple) -> list[Block]:
    """The ascending 0-based blocks of a simple's cycles, singletons
    included, in the blocks' canonical order: by their minima."""
    # a descending cycle reads (b_1, b_k, ..., b_2); shorter ones read alike
    return [c if len(c) < 3 else (c[0], *c[:0:-1]) for c in _cycles(simple)]


def _letters(n: int, simples: Iterable[Simple]) -> BraidWord:
    """The chain letters of the simples' blocks, simple after simple."""
    return BraidWord(n, _chains(b for f in simples for b in _blocks(f) if len(b) > 1))


@dataclass(frozen=True)
class StaircaseWitness:
    """Outcome of is_staircase, truthy iff inf >= 1; then the positive
    conjugator c and the BKL-positive tail P give
    c^-1 . input . c = delta . P = head . tail.
    On a "no" the conjugator and the tail are None.

    inf is the infimum where the search stopped.  On a "no" that stopped at
    sup < 1 it can lie below the summit infimum of the conjugacy class (some
    conjugate may have a larger infimum, still below 1), so it is a lower
    bound there, not the class's best.

    The search keeps simples, not letters: `moved` are the simples cycled to
    the end, in order, and `factors` the proper factors A_1 ... A_l of the
    conjugate delta^inf A_1 ... A_l, all on `strands` strands.  The letters
    of the conjugator and the tail are written on first read."""

    inf: int
    strands: int
    moved: tuple[Simple, ...] = ()
    factors: tuple[Simple, ...] = ()

    def __bool__(self) -> bool:
        return self.inf >= 1

    @cached_property
    def conjugator(self) -> BraidWord | None:
        return _letters(self.strands, self.moved) if self else None

    @cached_property
    def tail(self) -> BraidWord | None:
        if not self:
            return None
        top = _delta_simple(self.strands)
        return _letters(self.strands, (top,) * (self.inf - 1) + self.factors)

    @property
    def head(self) -> BraidWord | None:
        return delta(self.strands) if self else None


def is_staircase(word: BraidWord) -> StaircaseWitness:
    """Whether the word is conjugate in B_n, for its own strand count n, to
    some delta . P with P BKL-positive, i.e. some conjugate has infimum >= 1.
    A "no" does not rule out a staircase closure on fewer strands.

    Cycling delta^inf A_1 ... A_l = tau^inf(A_1) . delta^inf A_2 ... A_l
    conjugates by tau^inf(A_1), moving it to the end.  While inf is below the
    summit infimum of the conjugacy class, n - 1 = ||delta|| cyclings raise
    it (Birman, Ko and Lee 1998; Birman, Gebhardt and Gonzalez-Meneses,
    Conjugacy in Garside groups I, 2007).  So cycling stops at inf >= 1, at
    sup < 1 (no conjugate then reaches inf 1), or after n - 1 cyclings without a rise.
    """
    n = word.strands
    inf, factors = _normal_form(word)
    identity = tuple(range(n))
    top = _delta_simple(n)
    moved: list[Simple] = []
    stalled = 0
    while inf < 1 <= inf + len(factors) and stalled < n - 1:
        first = _tau(factors.pop(0), inf % n)
        moved.append(first)
        factors.append(first)
        _push_left(factors, identity)
        before = inf
        inf, factors = _fold_deltas(inf, factors, top)
        stalled = 0 if inf > before else stalled + 1
    if inf < 1:
        return StaircaseWitness(inf, n)
    return StaircaseWitness(inf, n, tuple(moved), tuple(factors))
