"""Independent oracles the test suite checks the library against.

Nothing here imports from the modules under test beyond plain data types:
Artin expansions, free reductions, products and permutations of words are
spelled out by hand (the tests also build their inputs with them; the library
writes neither an Artin word nor a freely reduced one), equality of braid
words is decided through the (faithful) action on the free group, Alexander
polynomials are recomputed by Fox calculus on the Wirtinger presentation and
determinants by its Fraction elimination, both run from the table builder
tools/build_table_data.py (loaded by path; it imports nothing from espalier,
and the bundled reference polynomials are its output), espaliers are recounted
by filtering all spanning trees, words are classified by one walk over their
letters, crossing chords are found by comparing every pair, dual normal forms
are checked through reflection length in the symmetric group and their factors
against a validated non-crossing partition, staircase closures are searched
over every short positive conjugator, the cabled delta and the cabling of a
word are spelled out letter by letter as the paper writes them, the reduced
Burau matrix is refolded one Artin letter at a time, closed-braid diagrams are
rebuilt from (crossing, slot) tuples with a union-find per candidate loop
(component_sizes, also the reference for the primeness scan's connectivity
rule), and Murasugi summands are peeled by a minimum over all edges.
"""

from __future__ import annotations

import importlib.util
import itertools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from espalier.braid import BandGenerator, BraidWord
from espalier.errors import StrandMismatch, ToolkitError
from espalier.laurent import LaurentPolynomial
from espalier.trees import Classification, Espalier, Kind

# --- words built by hand: Artin expansion, products, permutations -------------


def artin_letters(word: BraidWord) -> list[tuple[int, int]]:
    """(k, sign) for each s_k^sign of the word's Artin expansion, spelled out
    band by band: a(i,j)^e = s_i .. s_{j-2} s_{j-1}^e s_{j-2}^-1 .. s_i^-1."""
    out = []
    for g in word.letters:
        out += [(k, 1) for k in range(g.i, g.j - 1)]
        out.append((g.j - 1, g.sign))
        out += [(k, -1) for k in reversed(range(g.i, g.j - 1))]
    return out


def artin_word(word: BraidWord) -> BraidWord:
    return BraidWord(word.strands, tuple(
        BandGenerator(k, k + 1, s) for k, s in artin_letters(word)
    ))


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel adjacent a(i,j) a(i,j)^-1 pairs until none remain."""
    stack: list[BandGenerator] = []
    for g in word.letters:
        if stack and stack[-1].edge == g.edge and stack[-1].sign == -g.sign:
            stack.pop()
        else:
            stack.append(g)
    return BraidWord(word.strands, tuple(stack))


def concat_all(words, strands: int) -> BraidWord:
    letters = []
    for w in words:
        assert w.strands == strands, (w.strands, strands)
        letters.extend(w.letters)
    return BraidWord(strands, tuple(letters))


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    assert a.strands == b.strands, (a.strands, b.strands)
    return BraidWord(a.strands, a.letters + b.letters)


def invert(word: BraidWord) -> BraidWord:
    return BraidWord(word.strands, tuple(g.inverse() for g in reversed(word.letters)))


def conjugate(word: BraidWord, by: BraidWord) -> BraidWord:
    """The word  by . word . by^-1, whose closure is the closure of word."""
    return BraidWord(word.strands, by.letters + word.letters + invert(by).letters)


def cyclic_rotations(word: BraidWord) -> list[BraidWord]:
    """Every cyclic rotation of the letters (the word itself when empty)."""
    return [
        BraidWord(word.strands, word.letters[k:] + word.letters[:k])
        for k in range(max(1, len(word.letters)))
    ]


def underlying_permutation(word: BraidWord) -> tuple[int, ...]:
    """1-based images in the symmetric group, where a(i,j) acts as (i j):
    entry k-1 is the image of k under t_L o ... o t_1."""
    images = list(range(1, word.strands + 1))
    for g in reversed(word.letters):
        images[g.i - 1], images[g.j - 1] = images[g.j - 1], images[g.i - 1]
    return tuple(images)


def linear(n: int) -> Espalier:
    """The path espalier 1-2-...-n, whose generators are the Artin generators."""
    return Espalier(n, tuple((k, k + 1) for k in range(1, n)))


# --- free group action (faithful): braid word equality ----------------------


def _fg_mul(a, b):
    out = list(a)
    for x in b:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _fg_inv(a):
    return tuple(-x for x in reversed(a))


def free_group_action(word: BraidWord) -> tuple:
    """Images of the free generators under the word's Artin expansion."""
    images = [(k,) for k in range(1, word.strands + 1)]
    for i, sign in artin_letters(word):
        xi, xj = images[i - 1], images[i]
        if sign > 0:
            images[i - 1] = _fg_mul(_fg_mul(xi, xj), _fg_inv(xi))
            images[i] = xi
        else:
            images[i - 1] = xj
            images[i] = _fg_mul(_fg_mul(_fg_inv(xj), xi), xj)
    return tuple(images)


def braids_equal(a: BraidWord, b: BraidWord) -> bool:
    return free_group_action(a) == free_group_action(b)


# --- dual Garside normal forms, checked in the symmetric group ----------------
#
# A band a(i,j) maps to the transposition (i j).  Reflection length is
# l(x) = n - #cycles(x).  The simples of the dual structure are the positive
# words of length l(x) whose permutation x lies below c = perm(delta) in the
# absolute order, i.e. l(x) + l(x^-1 c) = l(c) (Bessis, "The dual braid
# monoid", 2003), and left divisibility of simples is that order.  So the
# checks below touch nothing but permutations of letter lists.


def partition_permutation(part) -> tuple[int, ...]:
    """The 0-based permutation of a non-crossing partition's chain words: each
    block {b_1 < ... < b_k} is the descending cycle b_{i+1} -> b_i, b_1 -> b_k."""
    p = list(range(part.n))
    for block in part.blocks:
        for k, x in enumerate(block):
            p[x - 1] = block[k - 1] - 1  # block[-1] closes the cycle
    return tuple(p)


def _perm(n: int, letters) -> tuple:
    images = list(range(n))
    for i, j in letters:
        images = [j - 1 if v == i - 1 else i - 1 if v == j - 1 else v for v in images]
    return tuple(images)


def _reflection_length(x: tuple) -> int:
    seen, cycles = set(), 0
    for start in range(len(x)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = x[start]
    return len(x) - cycles


def _below_delta(n: int, letters) -> bool:
    """perm(letters) <= perm(delta) in the absolute order, with letters reduced."""
    x = _perm(n, letters)
    c = _perm(n, [(k, k + 1) for k in range(1, n)])
    inverse = [0] * n
    for v, y in enumerate(x):
        inverse[y] = v
    rest = tuple(c[inverse[y]] for y in range(n))  # x^-1 then c
    length = _reflection_length(x)
    return len(letters) == length and length + _reflection_length(rest) == n - 1


def normal_form_defect(n: int, factors: list[BraidWord]) -> str | None:
    """Why delta^inf F_1 ... F_l is not a left normal form, or None.

    Each factor must be a proper simple (neither trivial nor delta) and no
    band t may have F_k . t simple while t left-divides F_{k+1}.
    """
    words = [[g.edge for g in f.letters] for f in factors]
    for k, letters in enumerate(words):
        if any(g.sign < 0 for g in factors[k].letters) or not _below_delta(n, letters):
            return f"factor {k + 1} is not a simple"
        if not 0 < len(letters) < n - 1:
            return f"factor {k + 1} is not a proper simple"
    for k in range(len(words) - 1):
        for t in itertools.combinations(range(1, n + 1), 2):
            divides = _reflection_length(_perm(n, words[k + 1] + [t])) < len(words[k + 1])
            if divides and _below_delta(n, words[k] + [t]):
                return f"factors {k + 1},{k + 2} are not left-weighted: a{t} moves left"
    return None


# --- reduced Burau through the Artin expansion --------------------------------


def _shift_add(a: dict, b: dict, shift: int) -> dict:
    out = dict(a)
    for d, c in b.items():
        out[d + shift] = out.get(d + shift, 0) + c
    return {d: c for d, c in out.items() if c}


def from_degrees(terms: dict) -> LaurentPolynomial:
    """The polynomial with the {degree: coefficient} terms, the empty dict giving 0."""
    low = min(terms, default=0)
    return LaurentPolynomial.from_coefficients(
        low, [terms.get(d, 0) for d in range(low, max(terms, default=-1) + 1)])


def artin_burau(word: BraidWord) -> tuple:
    """Entries of the reduced Burau matrix, folded one Artin letter of
    artin_letters(word) at a time (sigma_i: e_{i-1} += t e_i, e_{i+1} += e_i,
    e_i *= -t; sigma_i^-1: e_{i-1} += e_i, e_{i+1} += e_i / t, e_i *= -1/t,
    as column updates).  Entries are {degree: coefficient} dicts, so no library
    arithmetic runs; they become LaurentPolynomials only to be compared."""
    m = word.strands - 1
    rows = [[{0: 1} if r == c else {} for c in range(m)] for r in range(m)]
    for i, sign in artin_letters(word):
        col = i - 1
        up, down = (1, 0) if sign > 0 else (0, -1)  # degrees added at e_{i-1}, e_{i+1}
        for row in rows:
            ei = row[col]
            if col > 0:
                row[col - 1] = _shift_add(row[col - 1], ei, up)
            if col + 1 < m:
                row[col + 1] = _shift_add(row[col + 1], ei, down)
            row[col] = {d + up + down: -c for d, c in ei.items()}
    return tuple(tuple(map(from_degrees, row)) for row in rows)


# --- Fox calculus: the table builder's code, loaded by path -------------------


def load_tool(name: str):
    """The script tools/<name>.py, loaded by path as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


table_builder = load_tool("build_table_data")


def fox_alexander(word: BraidWord) -> list[int]:
    """Normalized coefficient list of the knot closure's Alexander polynomial.

    The table builder's Fox calculus on the Wirtinger presentation of the
    closed Artin diagram, the code that computed the bundled reference
    polynomials.  Returns trimmed integer coefficients with sum +1, lowest
    degree first.
    """
    strands, letters = word.strands, artin_letters(word)
    return table_builder.normalize(table_builder.wirtinger_alexander(strands, letters))[1]


def _fox_poly(low: int, coeffs):
    return table_builder.Poly({low + k: c for k, c in enumerate(coeffs)})


def _fox_determinant_pair(rows) -> tuple[int, tuple[int, ...]]:
    """The table builder's determinant, as the lowest degree and the integer
    coefficients from it up ((0, ()) for 0)."""
    terms = table_builder.determinant(rows).terms
    if not terms:
        return 0, ()
    low = min(terms)
    return low, tuple(int(terms.get(d, 0)) for d in range(low, max(terms) + 1))


def pair_determinant(rows) -> tuple[int, tuple[int, ...]]:
    """The determinant of a square matrix of (low, coefficients) pairs, by
    Fraction arithmetic."""
    return _fox_determinant_pair([[_fox_poly(*entry) for entry in row] for row in rows])


def burau_determinant(word: BraidWord) -> tuple[int, tuple[int, ...]]:
    """det(rho(word) - Id) from artin_burau, by Fraction arithmetic."""
    rows = [[_fox_poly(e.min_degree, e.coefficients) for e in row] for row in artin_burau(word)]
    for k, row in enumerate(rows):
        row[k] = row[k] - table_builder.Poly({0: 1})
    return _fox_determinant_pair(rows)


# --- brute-force non-crossing spanning trees ---------------------------------


def brute_force_espaliers(n: int) -> set[tuple[tuple[int, int], ...]]:
    """All spanning trees of K_n that pass the crossing filter."""
    if n == 1:
        return {()}
    all_edges = list(itertools.combinations(range(1, n + 1), 2))
    out = set()
    for subset in itertools.combinations(all_edges, n - 1):
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        is_tree = True
        for i, j in subset:
            ri, rj = find(i), find(j)
            if ri == rj:
                is_tree = False
                break
            parent[ri] = rj
        if not is_tree:
            continue
        if any(
            i < k < j < l or k < i < l < j
            for (i, j), (k, l) in itertools.combinations(subset, 2)
        ):
            continue
        out.add(tuple(sorted(subset)))
    return out


def reference_classify(tree: Espalier, word: BraidWord) -> Classification:
    """T-positive / T-homogeneous / not-a-T-word, with the first offense
    reported, decided by one walk over the letters."""
    if word.strands != tree.vertices:
        raise StrandMismatch(
            f"word on {word.strands} strands against espalier on {tree.vertices} vertices"
        )
    tree_edges = set(tree.edges)
    signs: dict[tuple[int, int], int] = {}
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


def crossing_pair(edges) -> tuple | None:
    """The first interleaved pair of chords, in sorted order, by comparing
    every pair; None when no two chords cross."""
    edges = sorted(edges)
    for a in range(len(edges)):
        i, j = edges[a]
        for b in range(a + 1, len(edges)):
            k, l = edges[b]
            if i < k < j < l or k < i < l < j:
                return edges[a], edges[b]
    return None


# --- the reference simple: a validated non-crossing partition ---------------


@dataclass(frozen=True)
class NonCrossingPartition:
    """The reference simple: a non-crossing partition of {1..n}, blocks sorted,
    singletons included, validated when built."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        elements = [x for block in self.blocks for x in block]
        if sorted(elements) != list(range(1, self.n + 1)):
            raise ToolkitError(f"blocks do not partition 1..{self.n}: {self.blocks}")
        if self.blocks != tuple(sorted(tuple(sorted(b)) for b in self.blocks)):
            raise ToolkitError(f"blocks {self.blocks} are not sorted in canonical order")
        # chords of one block never interleave, so any crossing is between blocks
        pair = crossing_pair(
            (block[k], block[k + 1]) for block in self.blocks for k in range(len(block) - 1)
        )
        if pair is not None:
            raise ToolkitError(f"blocks interleave: chords {pair[0]} and {pair[1]} cross")


# --- closed-braid diagrams: tuple-keyed ends, a union-find per loop ----------

_SLOTS = ("ne", "nw", "sw", "se")  # counterclockwise rotation at every crossing
_NEXT_CCW = {"ne": "nw", "nw": "sw", "sw": "se", "se": "ne"}


def component_sizes(size: int, links) -> list[int]:
    """Sizes of the components of 0..size-1 joined by the links, smallest first."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        parent[find(a)] = find(b)
    return sorted(Counter(find(x) for x in range(size)).values())


def reference_diagram(word: BraidWord) -> dict:
    """signs, arcs, regions and arc_faces of the closed-braid diagram, built
    the direct way: (crossing, slot) ends in dicts, connectivity by
    union-find, faces by tracing.  Rejections raise ToolkitError with the
    library's messages."""
    letters = artin_letters(word)
    if not letters:
        raise ToolkitError("empty diagram: no crossings to analyze")
    n = word.strands
    rows = [[] for _ in range(n + 1)]
    for k, (i, _) in enumerate(letters):
        rows[i].append(k)
        rows[i + 1].append(k)
    free = [r for r in range(1, n + 1) if not rows[r]]
    if free:
        raise ToolkitError(
            f"strand(s) {free} cross nothing; crossing-free closed components "
            "are not supported by the region scan"
        )
    arcs = []
    for row in range(1, n + 1):
        touches = rows[row]
        for a, b in zip(touches, touches[1:] + touches[:1]):
            arcs.append((
                (a, "ne" if letters[a][0] == row else "se"),
                (b, "nw" if letters[b][0] == row else "sw"),
            ))
    occupied = {}
    for idx, pair in enumerate(arcs):
        for side, end in enumerate(pair):
            if end in occupied:
                raise ToolkitError(f"slot {end} used twice; malformed diagram")
            occupied[end] = (idx, side)
    if len(occupied) != 4 * len(letters):
        raise ToolkitError("rotation system incomplete")
    if len(component_sizes(len(letters), ((c1, c2) for (c1, _), (c2, _) in arcs))) != 1:
        raise ToolkitError(
            "split closed-braid diagram (disconnected crossing graph) is not supported"
        )
    face_of = {}
    regions = 0
    for start in ((idx, side) for idx in range(len(arcs)) for side in (0, 1)):
        if start in face_of:
            continue
        dart = start
        while dart not in face_of:
            face_of[dart] = regions
            crossing, slot = arcs[dart[0]][dart[1]]
            next_arc, next_side = occupied[(crossing, _NEXT_CCW[slot])]
            dart = (next_arc, 1 - next_side)
        regions += 1
    euler = len(letters) - len(arcs) + regions
    if euler != 2:
        raise ToolkitError(f"rotation system is not spherical: V-E+F = {euler}")
    return {
        "signs": tuple(sign for _, sign in letters),
        "arcs": tuple(arcs),
        "regions": regions,
        "arc_faces": tuple((face_of[(idx, 0)], face_of[(idx, 1)]) for idx in range(len(arcs))),
    }


def reference_two_loops(diagram: dict) -> list[tuple]:
    """(regions, arcs, side_a, side_b) of each non-trivial length-2 loop of a
    reference diagram: every pair of arcs bordering the same two distinct
    regions, its sides counted by a fresh union-find without the two arcs."""
    by_pair = {}
    for idx, (f1, f2) in enumerate(diagram["arc_faces"]):
        if f1 != f2:
            by_pair.setdefault((min(f1, f2), max(f1, f2)), []).append(idx)
    crossings = len(diagram["signs"])
    loops = []
    for pair, arc_list in sorted(by_pair.items()):
        for a, b in itertools.combinations(arc_list, 2):
            links = (
                (c1, c2)
                for idx, ((c1, _), (c2, _)) in enumerate(diagram["arcs"])
                if idx not in (a, b)
            )
            sizes = component_sizes(crossings, links)
            if len(sizes) == 1:
                continue
            if len(sizes) != 2:
                raise ToolkitError(
                    f"deleting arcs {a},{b} left {len(sizes)} components; "
                    "impossible for a circle on the sphere"
                )
            loops.append((pair, (a, b), sizes[0], sizes[1]))
    return loops


# --- Murasugi summands: leaf peeling by a minimum over all edges --------------


def leaf_peeling_order(edges, vertices: int) -> list[tuple[int, int]]:
    """Peel the lexicographically smallest leaf edge of what remains, found
    by scanning every remaining edge."""
    remaining = set(edges)
    degree = {v: 0 for v in range(1, vertices + 1)}
    for i, j in remaining:
        degree[i] += 1
        degree[j] += 1
    order = []
    while remaining:
        edge = min(e for e in remaining if degree[e[0]] == 1 or degree[e[1]] == 1)
        order.append(edge)
        remaining.remove(edge)
        degree[edge[0]] -= 1
        degree[edge[1]] -= 1
    return order


# --- random word generators (all deterministic given the Random instance) ----


def random_word(rng, n: int, length: int, signed: bool = True) -> BraidWord:
    letters = []
    for _ in range(length):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        sign = rng.choice([1, -1]) if signed else 1
        letters.append(BandGenerator(i, j, sign))
    return BraidWord(n, tuple(letters))


def random_knot_word(rng, n_range=(2, 5), length_range=(1, 8), signed=True) -> BraidWord:
    while True:
        n = rng.randint(*n_range)
        word = random_word(rng, n, rng.randint(*length_range), signed=signed)
        if word.components == 1:
            return word


def random_t_homogeneous_word(rng, max_strands=6, max_length=12):
    """A T-homogeneous word with >= 1 edge at exponent sum -1, others positive."""
    from espalier.trees import enumerate_espaliers

    n = rng.randint(2, max_strands)
    tree = rng.choice(enumerate_espaliers(n))
    edges = list(tree.edges)
    negative_count = rng.randint(1, len(edges))
    rng.shuffle(edges)
    negative, positive = edges[:negative_count], edges[negative_count:]
    budget = max_length - negative_count - len(positive)
    letters = [BandGenerator(i, j, -1) for i, j in negative]
    for i, j in positive:
        extra = rng.randint(0, max(0, budget))
        budget -= extra
        letters.extend(BandGenerator(i, j, 1) for _ in range(1 + extra))
    rng.shuffle(letters)
    return tree, BraidWord(n, tuple(letters))


def random_t_positive_word(rng, max_strands=4, max_extra=4):
    """A T-positive word with a knot closure."""
    from espalier.trees import enumerate_espaliers

    while True:
        n = rng.randint(2, max_strands)
        tree = rng.choice(enumerate_espaliers(n))
        letters = [BandGenerator(i, j, 1) for i, j in tree.edges]
        for _ in range(rng.randint(0, max_extra)):
            i, j = rng.choice(tree.edges)
            letters.append(BandGenerator(i, j, 1))
        rng.shuffle(letters)
        word = BraidWord(n, tuple(letters))
        if word.components == 1:
            return tree, word


# --- the paper's cabled dual Garside element ------------------------------------


def cable_delta(n: int, p: int) -> BraidWord:
    """The cabled delta on pn strands as the paper writes it: delta_{pn}, the
    (n-1)(p-1) long bands a(m, m+p), then one residual negative fractional
    twist per bundle, s_{kp-1}^-1 ... s_{(k-1)p+1}^-1 for k = 1..n."""
    strands = p * n
    letters = [BandGenerator(k, k + 1) for k in range(1, strands)]
    for k in range(1, n):
        letters.extend(BandGenerator(m, m + p) for m in range(k * p - 1, (k - 1) * p, -1))
    for k in range(1, n + 1):
        letters.extend(BandGenerator(m, m + 1, -1) for m in range(k * p - 1, (k - 1) * p, -1))
    return BraidWord(strands, tuple(letters))


def cable_generator(g: BandGenerator, p: int, base_strands: int) -> BraidWord:
    """The p parallel wide bands a(pi-k, pj-k), k = 0..p-1, replacing one
    positive band a(i,j) under (p,0)-cabling."""
    letters = tuple(BandGenerator(p * g.i - k, p * g.j - k) for k in range(p))
    return BraidWord(p * base_strands, letters)


def fractional_twist(bundle: int, p: int, strands: int) -> BraidWord:
    """A positive (1/p)-twist on bundle `bundle`: s_{(b-1)p+1} ... s_{bp-1}."""
    lo = (bundle - 1) * p + 1
    return BraidWord(strands, tuple(BandGenerator(k, k + 1) for k in range(lo, lo + p - 1)))


def long_bands(n: int, p: int) -> BraidWord:
    """The (n-1)(p-1) positive long bands a(m, m+p) of the cabled delta."""
    letters = []
    for k in range(1, n):
        letters.extend(BandGenerator(m, m + p) for m in range(k * p - 1, (k - 1) * p, -1))
    return BraidWord(p * n, tuple(letters))


# --- staircase closures: brute force over positive conjugators ----------------


def best_conjugate_inf(word: BraidWord, max_length: int, inf) -> tuple[int, BraidWord]:
    """The largest inf(c^-1 . word . c) over positive band words c of at most
    max_length letters, with a c that reaches it.  `inf` maps a word to its
    infimum, so the search itself trusts nothing but that function."""
    n = word.strands
    bands = [BandGenerator(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)]
    best = None
    for length in range(max_length + 1):
        for c in itertools.product(bands, repeat=length):
            inverse = tuple(g.inverse() for g in reversed(c))
            value = inf(BraidWord(n, inverse + word.letters + c))
            if best is None or value > best[0]:
                best = (value, BraidWord(n, c))
    return best
