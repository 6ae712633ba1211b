"""Seeded input generators for the benchmark workloads.

Everything here is plain data built with `random.Random` and this file's own
helpers; nothing calls into `espalier`, so a refactor of the library cannot
change which inputs a seed produces.  Pass `k` of a workload is a pure
function of (seed, k): two commits that run the same seed run identical
inputs on every pass they both reach.

A letter is an `(i, j, sign)` triple for the band a(i,j)^sign, 1 <= i < j.
"""

from __future__ import annotations

import hashlib
import json
import random

# The 34 word rows of the bundled table are fixed data; a seed only reorders them.
TABLE_ROWS = 34

# Iterated cable ladder: the trefoil, then the (2,q)-cables in turn (2 -> 32 strands).
# Rung None is the trefoil itself (its Alexander polynomial only).  It makes five
# items a pass, so p50 and p90 are the middle of one rung's samples (rungs 2 and 4);
# with four, p50 would be the fastest rung-3 item, which flips with host speed.
LADDER_BASE = "s1^3"
LADDER_RUNGS = (None, (2, 3), (2, 5), (2, 9), (2, 17))

# One normal-form pass: each length below once positive and once with mixed signs,
# 30 words.  The lengths give items of similar cost (tens to a few hundred ms at
# the seed commit), so no single word dominates a pass or its spread, and a run
# holds about ten passes.
NORMAL_FORM_LENGTHS = {
    4: (16, 24, 34, 48, 64),
    8: (14, 20, 28, 40, 54),
    16: (12, 18, 25, 34, 46),
}

# One plumbing pass: this many chains of 2, 3, 4, 2, 3, 4, ... summands.
PLUMBING_CHAINS = 30
PLUMBING_STRANDS = (3, 7)
PLUMBING_EXTRA_LETTERS = (0, 3)


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def permutation_cycles(strands: int, letters) -> int:
    """Cycle count of the word's image in the symmetric group (closure components)."""
    images = list(range(strands + 1))
    for i, j, _ in letters:
        images[i], images[j] = images[j], images[i]
    seen = [False] * (strands + 1)
    cycles = 0
    for start in range(1, strands + 1):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = images[x]
    return cycles


def word_text(letters) -> str:
    """Letter-by-letter text that `parse_braid` reads."""
    return " ".join(f"a({i},{j})" if s > 0 else f"a({i},{j})^-1" for i, j, s in letters)


# --- table -------------------------------------------------------------------


def table_pass(seed: int, k: int) -> list[int]:
    """Row indices in a seeded order."""
    order = list(range(TABLE_ROWS))
    _rng("table", seed, k).shuffle(order)
    return order


# --- normal-form ---------------------------------------------------------------


def random_letters(rng: random.Random, n: int, length: int, signed: bool) -> tuple:
    out = []
    for _ in range(length):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        out.append((i, j, rng.choice((1, -1)) if signed else 1))
    return tuple(out)


def normal_form_pass(seed: int, k: int) -> list[tuple[int, tuple]]:
    """(strands, letters) for every grid cell, in a seeded order."""
    rng = _rng("normal-form", seed, k)
    cells = [(n, length, signed) for n, lengths in NORMAL_FORM_LENGTHS.items()
             for length in lengths for signed in (False, True)]
    rng.shuffle(cells)
    return [(n, random_letters(rng, n, length, signed)) for n, length, signed in cells]


# --- plumbing ------------------------------------------------------------------


def _interval_tree(rng: random.Random, lo: int, hi: int) -> list[tuple[int, int]]:
    """A random non-crossing spanning tree on lo..hi.

    m is the largest neighbour of lo; the edge (lo, m) splits lo..m into two
    interval trees and m..hi carries the rest, so no two edges interleave.
    """
    if lo == hi:
        return []
    m = rng.randint(lo + 1, hi)
    s = rng.randint(lo, m - 1)
    return (
        [(lo, m)]
        + _interval_tree(rng, lo, s)
        + _interval_tree(rng, s + 1, m)
        + _interval_tree(rng, m, hi)
    )


def random_summand(rng: random.Random) -> tuple[int, tuple, tuple]:
    """(strands, sorted tree edges, letters) of a T-positive word with a knot closure."""
    n = rng.randint(*PLUMBING_STRANDS)
    edges = tuple(sorted(_interval_tree(rng, 1, n)))
    while True:
        letters = [(i, j, 1) for i, j in edges]
        letters += [(*rng.choice(edges), 1) for _ in range(rng.randint(*PLUMBING_EXTRA_LETTERS))]
        rng.shuffle(letters)
        if permutation_cycles(n, letters) == 1:
            return n, edges, tuple(letters)


def _knot_shuffle(rng: random.Random, left: tuple, right: tuple, strands: int) -> tuple:
    """A 0/1 interleaving of left and right letters whose closure is still a knot."""
    for _ in range(50):
        picks = [0] * len(left) + [1] * len(right)
        rng.shuffle(picks)
        a, b = iter(left), iter(right)
        merged = [next(b) if p else next(a) for p in picks]
        if permutation_cycles(strands, merged) == 1:
            return tuple(picks)
    return (0,) * len(left) + (1,) * len(right)  # plain order: always a knot


def random_chain(rng: random.Random, summands: int) -> dict:
    """Summand words and espaliers as text, shuffles for each fold, and the
    expected summed espalier, plain word and shuffled word (as letters)."""
    parts = [random_summand(rng) for _ in range(summands)]
    strands, edges, plain = parts[0]
    shuffled = plain
    shuffles = []
    for n, part_edges, letters in parts[1:]:
        offset = strands - 1
        strands += n - 1
        edges = edges + tuple((i + offset, j + offset) for i, j in part_edges)
        moved = tuple((i + offset, j + offset, s) for i, j, s in letters)
        picks = _knot_shuffle(rng, shuffled, moved, strands)
        a, b = iter(shuffled), iter(moved)
        shuffled = tuple(next(b) if p else next(a) for p in picks)
        shuffles.append(picks)
        plain = plain + moved
    return {
        "words": [word_text(letters) for _, _, letters in parts],
        "espaliers": [
            f"n={n}; edges=" + ",".join(f"({i},{j})" for i, j in e) for n, e, _ in parts
        ],
        "shuffles": shuffles,
        "strands": strands,
        "edges": tuple(sorted(edges)),
        "plain": plain,
        "shuffled": shuffled,
    }


def plumbing_pass(seed: int, k: int) -> list[dict]:
    rng = _rng("plumbing", seed, k)
    return [random_chain(rng, 2 + c % 3) for c in range(PLUMBING_CHAINS)]


# --- ladder ----------------------------------------------------------------------


def ladder_pass(seed: int, k: int) -> list[tuple[int, int] | None]:
    """The rungs; fixed data, the seed changes nothing."""
    return list(LADDER_RUNGS)


PASSES = {
    "table": table_pass,
    "ladder": ladder_pass,
    "normal-form": normal_form_pass,
    "plumbing": plumbing_pass,
}


def input_digest(workload: str, seed: int, passes: int) -> str:
    """sha256 over the first `passes` passes of generated inputs."""
    h = hashlib.sha256()
    for k in range(passes):
        h.update(json.dumps(PASSES[workload](seed, k), sort_keys=True).encode())
    return h.hexdigest()
