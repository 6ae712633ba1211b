#!/usr/bin/env python3
"""Best-of-k in-process timings of the Alexander cases measured outside the
benchmark: the chain knot at n=30/50/100, the 64-strand (2,33) ladder rung,
the Burau fold of an 8-strand 2,000-letter word (mixed signs, and all
positive), and the 34 Alexander calls of the bundled table.  Only the library
call is timed; words are built beforehand.  Prints one JSON line of seconds:
the best of k runs as "<case>" and the first run as "<case>_first", since
the best of k times warm caches.

Run from the repository root (stdlib only; `--src` times another checkout):

    python3 tools/time_alexander.py --repeat 3
    python3 tools/time_alexander.py --src ../other/src --case chain50 --case rung64
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from importlib import resources
from pathlib import Path

CASES = ("chain30", "chain50", "chain100", "rung64", "fold8_mixed", "fold8_positive", "table")
LADDER = ((2, 3), (2, 5), (2, 9), (2, 17), (2, 33))


def chain_knot(e, n):
    """s1^3 s2^-1 s3^3 s4^-1 ... on n strands: one knot for every n."""
    return e.parse_braid(" ".join(f"s{k}^3" if k % 2 else f"s{k}^-1" for k in range(1, n)), n)


def ladder_top(e):
    word = e.parse_braid("s1^3")
    for p, q in LADDER:
        word = e.cable_staircase(word, e.CableSpec(p, q, word.strands))
    return word


def random_word(e, n, length, signs, seed=8):
    rng = random.Random(seed)
    letters = []
    for _ in range(length):
        i = rng.randint(1, n - 1)
        letters.append(e.BandGenerator(i, rng.randint(i + 1, n), rng.choice(signs)))
    return e.BraidWord(n, tuple(letters))


def table_words(e):
    rows = json.loads(resources.files("espalier.data").joinpath("table1.json").read_text())
    return [e.parse_braid(r["braid"]["word"], r["braid"]["n"])
            for r in rows if r["kind"] == "staircase"]


def build(e, case):
    """(call, argument list) for one case."""
    if case.startswith("chain"):
        return e.alexander_of_closure, [chain_knot(e, int(case[5:]))]
    if case == "rung64":
        return e.alexander_of_closure, [ladder_top(e)]
    if case.startswith("fold8"):
        signs = (1, -1) if case.endswith("mixed") else (1,)
        return e.reduced_burau, [random_word(e, 8, 2000, signs)]
    return e.alexander_of_closure, table_words(e)


def record(result, case, call, args, repeat):
    """Time `repeat` runs of `call` over the arguments: the fastest goes in
    result[case], the first in result[case + "_first"]."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for a in args:
            call(a)
        times.append(time.perf_counter() - start)
    result[case] = round(min(times), 4)
    result[f"{case}_first"] = round(times[0], 4)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Best-of-k timings of the Alexander cases outside the benchmark.")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the espalier package (default: ./src)")
    parser.add_argument("--repeat", type=int, default=3, help="best of this many runs")
    parser.add_argument("--case", action="append", choices=CASES,
                        help="time only these cases (repeatable; default: all)")
    opts = parser.parse_args(argv)
    sys.path.insert(0, opts.src)
    import espalier as e

    result = {"repeat": opts.repeat, "python": sys.version.split()[0]}
    for case in opts.case or CASES:
        record(result, case, *build(e, case), opts.repeat)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
