#!/usr/bin/env python3
"""Best-of-k in-process timings of the dual Garside engine: left_normal_form
of 1,000 random letters (seed 5) on 16 and 64 strands with mixed signs and on
64 strands all positive and all negative, and is_staircase on the 34 word
rows of the bundled table.  Only the library call is timed; words are built beforehand.  Prints
one JSON line of seconds: the best of k runs as "<case>" and the first run as
"<case>_first", since the best of k times a warm push-step cache on <= 5
strands.

Run from the repository root (stdlib only, helpers shared with
tools/time_alexander.py; `--src` times another checkout):

    python3 tools/time_garside.py --repeat 3
    python3 tools/time_garside.py --src ../other/src --case mixed16 --case table
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from time_alexander import random_word, record, table_words

RANDOM = {"mixed16": (16, (1, -1)), "mixed64": (64, (1, -1)), "positive64": (64, (1,)),
          "negative64": (64, (-1,))}
CASES = (*RANDOM, "table")


def build(e, case):
    """(call, argument list) for one case."""
    if case == "table":
        return e.is_staircase, table_words(e)
    n, signs = RANDOM[case]
    return e.left_normal_form, [random_word(e, n, 1000, signs, seed=5)]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Best-of-k timings of the dual Garside normal form and staircase test.")
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
