"""The four workloads: how a pass's inputs become program objects, the timed
item, and the output check that runs after the pass, outside the timing.

A check returns None when the output is right and a short reason otherwise.
Checks use the public API and this file's own arithmetic (permutations, free
group action evaluated in SL(2, p), Artin crossing counts).
"""

from __future__ import annotations

import json
import random
from importlib import resources

import gen

# Exact free-group comparison (images grow fast) only for words this small.
FREE_GROUP_MAX_LETTERS = 24
FREE_GROUP_MAX_STRANDS = 4
# Re-normalizing nf.to_word() costs another normal form; only for words this short.
RENORMALIZE_MAX_LETTERS = 24
# Items per plumbing run whose plain sum gets the (costly) Alexander product check.
PLUMBING_ALEXANDER_CHECKS = 30

_P = (1 << 61) - 1  # prime modulus for the SL(2, p) action


# --- arithmetic shared by the checks --------------------------------------------


def letters_of(word) -> tuple:
    return tuple((g.i, g.j, g.sign) for g in word.letters)


def crossing_count(letters) -> int:
    """Artin letters of the band expansion: a(i,j) is 2(j-i)-1 crossings."""
    return sum(2 * (j - i) - 1 for i, j, _ in letters)


def artin_expansion(letters):
    """(k, sign) for s_k^sign; a(i,j) = s_i..s_{j-2} s_{j-1} s_{j-2}^-1..s_i^-1."""
    for i, j, s in letters:
        for k in range(i, j - 1):
            yield k, 1
        yield j - 1, s
        for k in range(j - 2, i - 1, -1):
            yield k, -1


def _mat_mul(a, b):
    return (
        (a[0] * b[0] + a[1] * b[2]) % _P, (a[0] * b[1] + a[1] * b[3]) % _P,
        (a[2] * b[0] + a[3] * b[2]) % _P, (a[2] * b[1] + a[3] * b[3]) % _P,
    )


def _mat_inv(a):  # determinant 1
    return (a[3], -a[1] % _P, -a[2] % _P, a[0])


def _sl2_tuple(n: int):
    rng = random.Random(f"sl2:{n}")
    out = []
    for _ in range(n):
        a, b, c = (rng.randrange(1, _P) for _ in range(3))
        d = (1 + b * c) * pow(a, -1, _P) % _P
        out.append((a, b, c, d))
    return out


def sl2_action(strands: int, letters) -> tuple:
    """The braid's action on the free group (as in tests/oracles.py), with the
    free generators sent to fixed random elements of SL(2, p): equal braids give
    equal tuples, different ones differ with overwhelming probability."""
    x = _sl2_tuple(strands)
    for k, s in artin_expansion(letters):
        a, b = x[k - 1], x[k]
        if s > 0:
            x[k - 1], x[k] = _mat_mul(_mat_mul(a, b), _mat_inv(a)), a
        else:
            x[k - 1], x[k] = b, _mat_mul(_mat_mul(_mat_inv(b), a), b)
    return tuple(x)


def _fg_mul(a, b):
    out = list(a)
    for g in b:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def free_group_action(strands: int, letters) -> tuple:
    x = [(k,) for k in range(1, strands + 1)]
    for k, s in artin_expansion(letters):
        a, b = x[k - 1], x[k]
        inv_a = tuple(-g for g in reversed(a))
        inv_b = tuple(-g for g in reversed(b))
        if s > 0:
            x[k - 1], x[k] = _fg_mul(_fg_mul(a, b), inv_a), a
        else:
            x[k - 1], x[k] = b, _fg_mul(_fg_mul(inv_b, a), b)
    return tuple(x)


def permutation(strands: int, letters) -> tuple:
    """Image in the symmetric group, letters applied left to right (0-based)."""
    images = list(range(strands))
    for i, j, _ in letters:
        i, j = i - 1, j - 1
        images = [j if v == i else i if v == j else v for v in images]
    return tuple(images)


def _cycle_labels(perm) -> list[int]:
    label = [-1] * len(perm)
    for start in range(len(perm)):
        if label[start] < 0:
            x = start
            while label[x] < 0:
                label[x] = start
                x = perm[x]
    return label


def _crosses(blocks) -> bool:
    chords = [(b[k], b[k + 1], idx) for idx, b in enumerate(blocks) for k in range(len(b) - 1)]
    return any(
        (i < k < j < l or k < i < l < j) and one != two
        for i, j, one in chords for k, l, two in chords
    )


def simple_defect(strands: int, letters) -> str | None:
    """Why a positive word is not a proper simple element, or None.

    A positive word is simple iff its permutation's cycles form a non-crossing
    partition and its length is strands minus the number of cycles.
    """
    if any(s < 0 for _, _, s in letters):
        return "factor has a negative letter"
    perm = permutation(strands, letters)
    label = _cycle_labels(perm)
    blocks: dict[int, list[int]] = {}
    for x, root in enumerate(label):
        blocks.setdefault(root, []).append(x)
    if len(letters) != strands - len(blocks) or _crosses(list(blocks.values())):
        return "factor is not a simple element"
    if len(blocks) in (1, strands):
        return "factor is trivial or delta"
    return None


def left_weighted(strands: int, a_letters, b_letters) -> bool:
    """No atom left-divides b while a.atom is simple: the complement of a and b
    share no block of two or more elements."""
    delta = permutation(strands, [(k, k + 1, 1) for k in range(1, strands)])
    pa = permutation(strands, a_letters)
    inv_a = [0] * strands
    for x, y in enumerate(pa):
        inv_a[y] = x
    complement = tuple(delta[inv_a[x]] for x in range(strands))  # a then complement = delta
    pairs = set(zip(_cycle_labels(complement), _cycle_labels(permutation(strands, b_letters))))
    return len(pairs) == strands


# --- workloads -------------------------------------------------------------------


class Workload:
    name = ""
    # Statements a fresh interpreter runs to be ready for the first item.
    setup_code = "import espalier, espalier.cli"
    # Report the best pass (many short passes a run) or the mean over passes
    # (few long ones); see run.pass_statistic.
    best_pass = True

    def __init__(self, seed: int):
        self.seed = seed

    def load(self):
        """Read the program data the workload needs (part of set-up)."""

    def inputs(self, k: int) -> list:
        """Program objects for pass k, built outside the timing."""
        raise NotImplementedError

    def new_pass(self):
        """State carried from item to item within one pass."""
        return None

    def item(self, x, state):
        raise NotImplementedError

    def check(self, x, out) -> str | None:
        raise NotImplementedError


class Table(Workload):
    """cli.verify_row on each of the 34 word rows of the bundled table."""

    name = "table"
    setup_code = (
        "import espalier, espalier.cli, json; from importlib import resources; "
        "json.loads(resources.files('espalier.data').joinpath('table1.json').read_text())"
    )

    def load(self):
        from espalier import cli

        self.cli = cli
        rows = json.loads(resources.files("espalier.data").joinpath("table1.json").read_text())
        self.rows = [r for r in rows if r.get("kind") == "staircase"]
        if len(self.rows) != gen.TABLE_ROWS:
            raise RuntimeError(f"expected {gen.TABLE_ROWS} word rows, found {len(self.rows)}")

    def inputs(self, k):
        return [self.rows[i] for i in gen.table_pass(self.seed, k)]

    def item(self, row, state):
        return self.cli.verify_row(row)

    def check(self, row, out):
        if not isinstance(out, dict) or out.get("ok") is not True:
            return f"row {row['name']}: {out!r}"
        return None


class Ladder(Workload):
    """One rung: cable_staircase of the previous rung's word, then its Alexander
    (rung None: the trefoil base, Alexander only)."""

    name = "ladder"
    best_pass = False  # about 25 passes of 1.5 s in a run

    def load(self):
        import espalier as e

        self.e = e
        self.base = e.parse_braid(gen.LADDER_BASE)
        expected = e.torus_alexander(2, 3)
        strands = self.base.strands
        self.expected = {None: (strands, expected)}
        for rung in gen.LADDER_RUNGS[1:]:
            p, q = rung
            expected = e.satellite_alexander(expected, p, q)
            strands *= p
            self.expected[rung] = (strands, expected)

    def inputs(self, k):
        return gen.ladder_pass(self.seed, k)

    def new_pass(self):
        return {"word": self.base}

    def item(self, rung, state):
        out = state["word"]
        if rung is not None:
            p, q = rung
            out = self.e.cable_staircase(out, self.e.CableSpec(p, q, out.strands))
            state["word"] = out
        return out, self.e.alexander_of_closure(out)

    def check(self, rung, out):
        word, poly = out
        strands, expected = self.expected[rung]
        letters = letters_of(word)
        delta = tuple((k, k + 1, 1) for k in range(1, strands))
        if word.strands != strands:
            return f"rung {rung}: {word.strands} strands, expected {strands}"
        if any(s < 0 for _, _, s in letters):
            return f"rung {rung}: cable word is not positive"
        if gen.permutation_cycles(strands, letters) != 1:
            return f"rung {rung}: closure is not a knot"
        if letters[: len(delta)] != delta:
            return f"rung {rung}: word does not start with delta_{strands}"
        if poly != expected:
            return f"rung {rung}: Alexander {poly} != satellite formula {expected}"
        return None


class NormalForm(Workload):
    """left_normal_form of seeded random words (4, 8, 16 strands, mixed lengths and signs)."""

    name = "normal-form"
    best_pass = False  # about 10 passes of 2.5 s in a run

    def load(self):
        import espalier as e

        self.e = e

    def inputs(self, k):
        e = self.e
        return [
            e.BraidWord(n, tuple(e.BandGenerator(i, j, s) for i, j, s in letters))
            for n, letters in gen.normal_form_pass(self.seed, k)
        ]

    def item(self, word, state):
        return self.e.left_normal_form(word)

    def check(self, word, nf):
        n = word.strands
        factors = [letters_of(f.to_word()) for f in nf.factors]
        for a in factors:
            defect = simple_defect(n, a)
            if defect:
                return defect
        for a, b in zip(factors, factors[1:]):
            if not left_weighted(n, a, b):
                return "factors are not left-weighted"
        letters = letters_of(word)
        total = nf.inf * (n - 1) + sum(len(f) for f in factors)
        if total != sum(s for _, _, s in letters):
            return "exponent sum differs from the input's"
        out = letters_of(nf.to_word())
        if permutation(n, out) != permutation(n, letters):
            return "permutation differs from the input's"
        if sl2_action(n, out) != sl2_action(n, letters):
            return "braid differs from the input (SL(2,p) free-group action)"
        if n <= FREE_GROUP_MAX_STRANDS and len(letters) <= FREE_GROUP_MAX_LETTERS:
            if free_group_action(n, out) != free_group_action(n, letters):
                return "braid differs from the input (free-group action)"
        if len(out) <= RENORMALIZE_MAX_LETTERS:
            if self.e.left_normal_form(nf.to_word()) != nf:
                return "nf.to_word() does not re-normalize to the same form"
        return None


class Plumbing(Workload):
    """Connected sums (plain and shuffled) of 2-4 T-positive summands, then
    espalier search, classification, Murasugi data and the primeness scan."""

    name = "plumbing"

    def load(self):
        import espalier as e

        self.e = e
        self.alexander_checks = 0

    def inputs(self, k):
        return gen.plumbing_pass(self.seed, k)

    def item(self, chain, state):
        e = self.e
        words = [e.parse_braid(text) for text in chain["words"]]
        trees = [e.parse_espalier(spec) for spec in chain["espaliers"]]
        plain = shuffled = words[0]
        tree = trees[0]
        for word, part, picks in zip(words[1:], trees[1:], chain["shuffles"]):
            plain = e.connected_sum_words(plain, word)
            shuffled = e.connected_sum_words(shuffled, word, shuffle=picks)
            tree = e.espalier_sum(tree, part)
        results = []
        for word in (plain, shuffled):
            results.append((
                word,
                e.find_espalier(word),
                e.classify(tree, word),
                e.murasugi_decomposition(tree, word),
                e.visual_primeness_report(word),
            ))
        return words, tree, results

    def check(self, chain, out):
        e = self.e
        words, tree, results = out
        if tuple(tree.edges) != chain["edges"]:
            return "summed espalier differs from the vertex sum"
        for (word, found, cls, mur, report), expected in zip(
                results, (chain["plain"], chain["shuffled"])):
            letters = letters_of(word)
            if word.strands != chain["strands"] or letters != expected:
                return "connected-sum word differs from the expected letters"
            if found is None or tuple(found[0].edges) != chain["edges"]:
                return "find_espalier missed the summed espalier"
            if cls.kind is not e.Kind.T_POSITIVE or found[1].kind is not e.Kind.T_POSITIVE:
                return "word is not T-positive on the summed espalier"
            counts: dict = {}
            for i, j, _ in letters:
                counts[(i, j)] = counts.get((i, j), 0) + 1
            if {tuple(s.edge): s.exponent_sum for s in mur.summands} != counts:
                return "Murasugi summands do not match the edge exponent sums"
            if report.regions != crossing_count(letters) + 2:
                return f"regions {report.regions} != crossings + 2"
        if self.alexander_checks < PLUMBING_ALEXANDER_CHECKS:
            self.alexander_checks += 1
            product = e.LaurentPolynomial.from_coefficients(0, [1])
            for word in words:
                product = product * e.alexander_of_closure(word)
            if e.alexander_of_closure(results[0][0]) != product.symmetric_normalize():
                return "Alexander of the plain sum is not the product of the summands'"
        return None


WORKLOADS = {w.name: w for w in (Table, Ladder, NormalForm, Plumbing)}
