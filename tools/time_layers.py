#!/usr/bin/env python3
"""Best-of-k in-process timings of the library layers measured outside the
benchmark.  Only the library call is timed; words are built beforehand.

Alexander polynomial (`alexander_of_closure`): the chain knot at n=30/50/100,
the (2,q)-cable ladder at 8 and 16 strands (`rung8`, `rung16`), at 32 strands
(`rung32`, the top rung of the benchmark's `ladder` workload and its p90
item) and at its 64-strand top (`rung64`), the 34 staircase rows of the
bundled table (`alexander_table`), 40 seeded knot words of 6-16 letters of
both signs on 3 and 4 strands (seed 9, `knots4`), so each determinant is
scaled by t^K for its K negative letters, and 20 seeded 4-strand knot words
of 401 mixed-sign letters (seed 4, `long4`), past the packing cutoff, so on
the pairs.  The rungs, the table and `knots4` take the packed path, the
chain knots and `long4` the pairs; "<case>_packed" records [words packed,
words] for each Alexander case, so a change of selection shows next to its
times.  Burau fold (`reduced_burau`): one 8-strand word of 2,000 random
letters (seed 8), mixed signs and all positive.  Dual Garside normal form
(`left_normal_form`): 1,000 random letters (seed 5) on 16 and 64 strands
with mixed signs, and on 64 strands all positive and all negative.
Staircase test (`is_staircase`): the same 34 table rows
(`staircase_table`).  Plumbing questions (`find_espalier`, `classify`,
`murasugi_decomposition` and `visual_primeness_report`, the timed calls of the
benchmark's `plumbing` workload): the plain and the shuffled connected sum
(`connected_sum_words`) of 2-4 T-positive knot summands on 3-7 strands, 60
chains (seed 28, `tword_chains`).  Words and trees keep what they count on
first read, so each run rebuilds them from their fields inside the timing and
every run reads them cold, as the workload does.

Prints one JSON line of seconds: the best of k runs as "<case>" and the first
run as "<case>_first", since the best of k times warm caches (the push-step
cache on <= 5 strands among them).

With `--against OTHER_SRC` both trees load into one interpreter (every
`espalier` module is dropped from sys.modules between the two imports) and
each case runs `--rounds` rounds, each tree taking the best of k per round
and the tree that went second going first in the next.  "<case>" then holds
both trees' [first quartile, median, third quartile] ("src", "against"), the
ratio of the medians, src over against, and the rounds src won, and
"<case>_packed" holds both trees' shares.  One process on a shared host sees
the same slow and fast spells on both sides, which separate spawns do not.

Run from the repository root (stdlib only; `--src` times another checkout):

    python3 tools/time_layers.py --repeat 3
    python3 tools/time_layers.py --src ../other/src --case chain50 --case mixed16
    python3 tools/time_layers.py --against ../parent/src --rounds 30 --case rung32
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import random
import statistics
import sys
import time
from importlib import resources
from pathlib import Path

LADDER = ((2, 3), (2, 5), (2, 9), (2, 17), (2, 33))
# random word cases: (call name, strands, letters, signs, seed)
RANDOM = {
    "fold8_mixed": ("reduced_burau", 8, 2000, (1, -1), 8),
    "fold8_positive": ("reduced_burau", 8, 2000, (1,), 8),
    "mixed16": ("left_normal_form", 16, 1000, (1, -1), 5),
    "mixed64": ("left_normal_form", 64, 1000, (1, -1), 5),
    "positive64": ("left_normal_form", 64, 1000, (1,), 5),
    "negative64": ("left_normal_form", 64, 1000, (-1,), 5),
}
CASES = ("chain30", "chain50", "chain100", "rung8", "rung16", "rung32", "rung64",
         "alexander_table", "knots4", "long4", *RANDOM, "staircase_table", "tword_chains")


def random_word(e, n, length, signs, seed):
    rng = random.Random(seed)
    letters = []
    for _ in range(length):
        i = rng.randint(1, n - 1)
        letters.append(e.BandGenerator(i, rng.randint(i + 1, n), rng.choice(signs)))
    return e.BraidWord(n, tuple(letters))


def knot_words(e, n, length, count, seed):
    """`count` knot words of `length` mixed-sign letters on n strands.  A
    band permutes its two strands, so for even n the length must be odd."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        word = random_word(e, n, length, (1, -1), rng.random())
        if word.components == 1:
            out.append(word)
    return out


def packed_knots(e, count, seed):
    """`count` knot words of 6-16 letters of both signs on 3 or 4 strands,
    each one that the packed Alexander path admits."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        word = random_word(e, rng.randint(3, 4), rng.randint(6, 16), (1, -1), rng.random())
        signs = {g.sign for g in word.letters}
        if signs == {1, -1} and word.components == 1 and e.invariants._packing(word):
            out.append(word)
    return out


def tword_chains(e):
    """(vertices, edges, [(strands, letters) of the plain and the shuffled
    sum]) for 60 seeded connected sums of 2-4 T-positive knot summands."""
    rng = random.Random(28)
    trees = {n: e.enumerate_espaliers(n) for n in range(3, 8)}

    def summand():
        tree = rng.choice(trees[rng.randint(3, 7)])
        while True:
            letters = [e.BandGenerator(*edge) for edge in tree.edges]
            letters += [e.BandGenerator(*rng.choice(tree.edges)) for _ in range(rng.randint(0, 3))]
            rng.shuffle(letters)
            word = e.BraidWord(tree.vertices, tuple(letters))
            if word.components == 1:
                return tree, word

    out = []
    for c in range(60):
        tree, plain = summand()
        shuffled = plain
        for _ in range(1 + c % 3):
            part, word = summand()
            tree = e.espalier_sum(tree, part)
            plain = e.connected_sum_words(plain, word)
            picks = [0] * len(shuffled) + [1] * len(word)
            for _ in range(50):  # keep a knot, so the next sum takes it
                rng.shuffle(picks)
                candidate = e.connected_sum_words(shuffled, word, shuffle=picks)
                if candidate.components == 1:
                    break
            else:
                candidate = e.connected_sum_words(shuffled, word)
            shuffled = candidate
        out.append((tree.vertices, tree.edges,
                    [(w.strands, w.letters) for w in (plain, shuffled)]))
    return out


def plumbing_questions(e, chain):
    vertices, edges, words = chain
    tree = e.Espalier(vertices, edges)
    for fields in words:
        word = e.BraidWord(*fields)
        e.find_espalier(word)
        e.classify(tree, word)
        e.murasugi_decomposition(tree, word)
        e.visual_primeness_report(word)


def build(e, case):
    """(call, argument list) for one case."""
    if case == "tword_chains":
        return functools.partial(plumbing_questions, e), tword_chains(e)
    if case == "long4":
        return e.alexander_of_closure, knot_words(e, 4, 401, 20, 4)
    if case == "knots4":
        return e.alexander_of_closure, packed_knots(e, 40, 9)
    if case in RANDOM:
        name, n, length, signs, seed = RANDOM[case]
        return getattr(e, name), [random_word(e, n, length, signs, seed)]
    if case.endswith("table"):
        rows = json.loads(resources.files(e).joinpath("data").joinpath("table1.json").read_text())
        words = [e.parse_braid(r["braid"]["word"], r["braid"]["n"])
                 for r in rows if r["kind"] == "staircase"]
        return (e.is_staircase if case == "staircase_table" else e.alexander_of_closure), words
    if case.startswith("rung"):  # the ladder up to this many strands
        word = e.parse_braid("s1^3")
        for p, q in LADDER:
            if word.strands < int(case[4:]):
                word = e.cable_staircase(word, e.CableSpec(p, q, word.strands))
        return e.alexander_of_closure, [word]
    # the chain knot s1^3 s2^-1 s3^3 s4^-1 ... on n strands: one knot for every n
    n = int(case[5:])
    word = " ".join(f"s{k}^3" if k % 2 else f"s{k}^-1" for k in range(1, n))
    return e.alexander_of_closure, [e.parse_braid(word, n)]


def record(result, case, call, args, repeat):
    """Time `repeat` runs of `call` over the arguments: the fastest goes in
    result[case], the first in result[case + "_first"]."""
    times = [run(call, args) for _ in range(repeat)]
    result[case] = min(times)
    result[f"{case}_first"] = times[0]


def run(call, args):
    """Seconds for one call per argument."""
    start = time.perf_counter()
    for a in args:
        call(a)
    return time.perf_counter() - start


def packed(e, call, args):
    """[words the packed Alexander path admits, words] for an Alexander
    case, else None."""
    if call is e.alexander_of_closure:
        return [sum(bool(e.invariants._packing(a)) for a in args), len(args)]
    return None


def load(src):
    """The espalier package under `src`, imported afresh: every espalier
    module already loaded is dropped from sys.modules first, so two trees
    load side by side and each keeps its own modules."""
    for name in [n for n in sys.modules if n.split(".")[0] == "espalier"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return importlib.import_module("espalier")
    finally:
        sys.path.remove(src)


def quartiles(times):
    """[first quartile, median, third quartile]."""
    if len(times) < 2:
        return times * 3
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return [q1, q2, q3]


def paired(result, case, trees, rounds, repeat):
    """Alternate the two trees on one case for `rounds` rounds, each round
    taking the best of `repeat` runs per tree, the tree that ran second going
    first in the next round.  result[case] holds both trees' quartiles, the
    ratio of the medians (src over against) and the rounds src won."""
    built = [build(e, case) for e in trees]
    times = [[], []]
    for r in range(rounds):
        for k in ((0, 1), (1, 0))[r % 2]:
            times[k].append(min(run(*built[k]) for _ in range(repeat)))
    src, against = quartiles(times[0]), quartiles(times[1])
    result[case] = {"src": src, "against": against, "ratio": src[1] / against[1],
                    "wins": sum(a < b for a, b in zip(*times))}
    shares = [packed(e, *b) for e, b in zip(trees, built)]
    if shares[0]:
        result[f"{case}_packed"] = {"src": shares[0], "against": shares[1]}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Best-of-k timings of the library layers outside the benchmark.")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the espalier package (default: ./src)")
    parser.add_argument("--repeat", type=int, default=3, help="best of this many runs")
    parser.add_argument("--case", action="append", choices=CASES,
                        help="time only these cases (repeatable; default: all)")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="another espalier source directory, timed in the same process "
                             "in alternating rounds against --src")
    parser.add_argument("--rounds", type=int, default=10,
                        help="rounds of the paired mode (with --against)")
    opts = parser.parse_args(argv)
    result = {"repeat": opts.repeat, "python": sys.version.split()[0]}
    if opts.against:
        trees = [load(opts.src), load(opts.against)]
        result["rounds"] = opts.rounds
        for case in opts.case or CASES:
            paired(result, case, trees, opts.rounds, opts.repeat)
    else:
        e = load(opts.src)
        for case in opts.case or CASES:
            call, args = build(e, case)
            record(result, case, call, args, opts.repeat)
            share = packed(e, call, args)
            if share:
                result[f"{case}_packed"] = share
    print(json.dumps(result))


if __name__ == "__main__":
    main()
