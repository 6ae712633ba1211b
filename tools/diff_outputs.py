#!/usr/bin/env python3
"""Differential outputs of the `espalier` command line: another revision's
`src/` against this checkout's.

`git archive` writes REV's `src/` into a temporary directory.  One seeded
corpus of invocations then runs through `espalier.cli.main` with click's
CliRunner, in one subprocess per tree and per PYTHONHASHSEED (0 and 1), so
output that hangs on set or dict order shows up as well.  Every invocation
whose exit code, stdout or stderr is not the same in all four runs is printed
with its arguments.  The last line is a one-line summary, and the exit status
is 1 when any invocation differs.

The corpus: seeded words, one in five with junk, through parse, normal-form,
staircase, classify, alexander, genus and prime-scan, in text and --json;
cable and homogenize with and without --verify; classify and homogenize on
fixed --espalier specs with reversed edges and on one malformed spec for
each of the parser's rejections; cable with --q 0; connect-sum with shuffles
(one with a letter other than L or R on valid words) and --force;
verify-table on the bundled table and on malformed --data files; espaliers
--n -1..8 and 11, past the enumeration bound; and --help of every command.

Run from anywhere in the repository (needs git and click):

    python3 tools/diff_outputs.py --against HEAD^
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = (0, 1)

# reads a JSON list of argument lists on stdin, writes [exit, stdout, stderr] per invocation
_RUNNER = r"""
import json, sys
import espalier.cli
from click.testing import CliRunner
if not espalier.cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"espalier.cli imported from {espalier.cli.__file__}, not from {sys.argv[1]}")
try:
    runner = CliRunner(mix_stderr=False)
except TypeError:  # click >= 8.2 always keeps stderr apart
    runner = CliRunner()
out = []
for args in json.load(sys.stdin):
    r = runner.invoke(espalier.cli.main, args, prog_name="espalier")
    err = r.stderr
    if r.exception is not None and not isinstance(r.exception, SystemExit):
        err += f"<uncaught {type(r.exception).__name__}: {r.exception}>"
    out.append([r.exit_code, r.stdout, err])
json.dump(out, sys.stdout)
"""

JUNK = ("x", "s0", "a(3,2)", "^2", "s1^", "a(1,", ")", "a(0,2)", "s1001", "s1234567890",
        "a(1,2)^-", "s1^99999999", "s\u0661", "a(\u0662,\u0663)", "s1\u00a0s2", "a(1,\u20032)")


def _tree(rng: random.Random, lo: int, hi: int) -> list[tuple[int, int]]:
    """A random non-crossing spanning tree on lo..hi: lo's largest neighbour m
    splits it into trees on lo..s, s+1..m and m..hi."""
    if lo == hi:
        return []
    m = rng.randint(lo + 1, hi)
    s = rng.randint(lo, m - 1)
    return [(lo, m)] + _tree(rng, lo, s) + _tree(rng, s + 1, m) + _tree(rng, m, hi)


def _spec(n: int, edges) -> str:
    return f"n={n}; edges=" + ",".join(f"({i},{j})" for i, j in sorted(edges))


def _term(rng: random.Random, i: int, j: int, exponent: int) -> str:
    gen = rng.choice(("s", "a")) + str(i) if j == i + 1 and rng.random() < 0.5 else f"a({i},{j})"
    return gen if exponent == 1 else f"{gen}^{exponent}"


def _tree_word(rng: random.Random, edges, negative: float) -> str:
    """Every edge of the tree with one sign each, shuffled: a positive edge
    carries 1 or 3 letters, a negative one mostly 1 and sometimes 2."""
    terms = []
    for i, j in edges:
        if rng.random() < negative:
            terms += [_term(rng, i, j, -1)] * rng.choice((1, 1, 1, 2))
        else:
            terms += [_term(rng, i, j, 1)] * rng.choice((1, 1, 3))
    rng.shuffle(terms)
    return " ".join(terms)


def _word(rng: random.Random) -> tuple[list[str], str, int]:
    """(arguments, word text, strands) of one seeded word: on a random
    espalier's edges or on random bands, one in five with a junk token."""
    n = rng.randint(2, 6)
    if rng.random() < 0.5:
        edges = _tree(rng, 1, n)
        text = _tree_word(rng, edges, negative=rng.choice((0.0, 0.3)))
    else:
        terms = []
        for _ in range(rng.randint(0, 10)):
            i = rng.randint(1, n - 1)
            terms.append(_term(rng, i, rng.randint(i + 1, n), rng.choice((1, 1, 2, -1, -2, 3))))
        text = " ".join(terms)
    if rng.random() < 0.2:
        terms = text.split()
        terms.insert(rng.randint(0, len(terms)), rng.choice(JUNK))
        text = " ".join(terms)
    extra = []
    if rng.random() < 0.2:
        extra = ["--strands", str(rng.choice((n, n + 1, n - 1, 0, 1001)))]
    return extra, text, n


def _data_files(folder: Path) -> list[str]:
    """Malformed --data files for verify-table, and a path that does not exist."""
    row = {"name": "3_1", "kind": "staircase", "braid": {"n": 2, "word": "a1^3"},
           "alexander": {"min_deg": -1, "coeffs": [1, -1, 1]}}

    def variant(**changes):
        return [dict(row, **changes)]

    contents = {
        "not-json": "[{",
        "not-a-list": json.dumps({"rows": []}),
        "empty": json.dumps([]),
        "good-row": json.dumps([row]),
        "no-name": json.dumps([{"kind": "staircase"}]),
        "bad-kind": json.dumps(variant(kind="sqp")),
        "basket-only": json.dumps(variant(kind="basket-only")),
        "word-not-string": json.dumps(variant(braid={"n": 2, "word": 3})),
        "coeffs-not-ints": json.dumps(variant(alexander={"min_deg": -1, "coeffs": [1, "x"]})),
        "wrong-alexander": json.dumps(variant(alexander={"min_deg": -1, "coeffs": [1, 1, 1]})),
        "negative-word": json.dumps(variant(braid={"n": 2, "word": "a1^-3"})),
        "link-word": json.dumps(variant(braid={"n": 2, "word": "a1^2"})),
        "junk-word": json.dumps(variant(braid={"n": 2, "word": "a1^"})),
        "huge-numeral": "[" + "9" * 5000 + "]",
    }
    paths = []
    for name, text in contents.items():
        path = folder / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths + [str(folder / "missing.json")]


def _letters(text: str) -> int:
    """The letter count of a word of plain terms and terms with exponents."""
    return sum(abs(int(term.partition("^")[2] or 1)) for term in text.split())


COMMANDS = ("alexander", "cable", "classify", "connect-sum", "espaliers", "genus",
            "homogenize", "normal-form", "parse", "prime-scan", "staircase", "verify-table")
BASES = ("s1^3", "s1^5", "a1^3 a2 a1^3 a2", "a(1,4) a(3,4)^3 a(2,3)", "s1 s2", "s1^-3",
         "s1^2", "a(2,3)^2 a(2,4) a(1,2) a(2,3)", "s1 s2^-1", "s1^")
# (--espalier spec, word on its vertex count): specs the seeded trees never
# give.  Reversed edges are valid once normalized; each spec after them hits
# one rejection of trees.parse_espalier or trees.new_espalier.
SPECS = (
    ("n=3; edges=(2,1),(3,2)", "s1 s2^-1"),
    ("n=4; edges=(4,1), (2,1),(3,1)", "a(1,4) a(1,2)^-1 a(1,3)"),
    ("n=3; edges=(1,2),(2,1)", "s1 s2"),  # listed twice
    ("n=3; edges=(1,2),(1,2)", "s1 s2"),
    ("n=3; edges=(1,1),(2,3)", "s1 s2"),  # not a pair of distinct vertices
    ("n=3; edges=(0,2),(2,3)", "s1 s2"),
    ("n=3; edges=(1,2),(2,4)", "s1 s2"),
    ("n=0; edges=", "s1"),  # vertex count
    ("n=3 edges=(1,2),(2,3)", "s1 s2"),  # format
    ("edges=(1,2)", "s1"),
    ("n=3; edges=(1,2);(2,3)", "s1 s2"),  # separator
    ("n=3; edges=(1,2),,(2,3)", "s1 s2"),
    ("n=3; edges=(1,2)(2,3)", "s1 s2"),
    ("n=1001; edges=(1,2)", "s1"),  # vertex cap
    ("n=1234567890; edges=", "s1"),  # numeral cap
    ("n=3; edges=(1,2)", "s1 s2"),  # edge count
    ("n=4; edges=(1,2),(2,3),(1,3)", "s1 s2 s3"),  # cycle
    ("n=4; edges=(1,3),(2,4),(1,2)", "a(1,3) a(2,4) s1"),  # crossing
)
KNOTS = ("s1^3", "s1^-3", "s1 s2", "s1^5", "s1 s2^-1 s1 s2^-1", "a(1,3) a(2,3)^3", "s1^2", "x")


def build_corpus(folder: Path, words: int = 150, seed: int = 2413) -> list[list[str]]:
    """The argument lists of one seeded corpus; --data files are written to `folder`."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(words):
        extra, text, n = _word(rng)
        for command in ("parse", "normal-form", "staircase", "classify", "alexander", "genus",
                        "prime-scan"):
            corpus += [[command, text, *extra], [command, text, *extra, "--json"]]
        if rng.random() < 0.5:
            spec = _spec(n, _tree(rng, 1, n))
            corpus += [["classify", text, "--espalier", spec, *json_flag]
                       for json_flag in ([], ["--json"])]
    for base in BASES:
        for _ in range(5):
            p, q = rng.choice((1, 2, 2, 2, 3)), rng.choice((1, 2, 3, 4, 5, 5, 7, 7, 8))
            for verify in ([], ["--verify"]):
                corpus.append(["cable", base, "--p", str(p), "--q", str(q), *verify])
    for _ in range(words // 6 + 2):
        n = rng.randint(2, 5)
        edges = _tree(rng, 1, n)
        text = _tree_word(rng, edges, negative=0.5)
        spec = _spec(n, edges if rng.random() < 0.8 else _tree(rng, 1, n))
        for verify in ([], ["--verify"]):
            corpus.append(["homogenize", text, "--espalier", spec, *verify])
    for spec, text in SPECS:
        tree = ["--espalier", spec]
        corpus += [["classify", text, *tree], ["classify", text, *tree, "--json"],
                   ["homogenize", text, *tree], ["homogenize", text, *tree, "--verify"]]
    for _ in range(words // 6 + 2):
        left, right = rng.choice(KNOTS), rng.choice(KNOTS)
        args = ["connect-sum", "--left", left, "--right", right]
        if rng.random() < 0.6:
            size = _letters(left) + _letters(right) + rng.choice((0, 0, 0, 1, -1, 3))
            args += ["--shuffle", "".join(rng.choice("LRlr" if size % 5 else "LRX")
                                          for _ in range(max(size, 0)))]
        if rng.random() < 0.3:
            args.append("--force")
        corpus += [args, args + ["--json"]]
    for base in ("s1^3", "a1^3 a2 a1^3 a2"):
        corpus += [["cable", base, "--p", "2", "--q", "0"],
                   ["cable", base, "--p", "2", "--q", "0", "--verify"]]
    for shuffle in ("LLLRRX", "lrlrl1", "LLL RRR"):
        corpus.append(["connect-sum", "--left", "s1^3", "--right", "s1^3", "--shuffle", shuffle])
    corpus += [["verify-table"], ["verify-table", "--json"]]
    for path in _data_files(folder):
        corpus += [["verify-table", "--data", path], ["verify-table", "--data", path, "--json"]]
    for n in (*range(-1, 9), 11):
        corpus += [["espaliers", "--n", str(n)], ["espaliers", "--n", str(n), "--count-only"],
                   ["espaliers", "--n", str(n), "--json"]]
    corpus += [["--help"], ["--version"]] + [[command, "--help"] for command in COMMANDS]
    return corpus


def run_corpus(src: Path, corpus: list[list[str]], hash_seed: int) -> list[list]:
    """[exit code, stdout, stderr] of each invocation, run on the espalier in `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(hash_seed),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:  # so '' on sys.path holds no other espalier
        done = subprocess.run([sys.executable, "-c", _RUNNER, str(src)], input=json.dumps(corpus),
                              capture_output=True, text=True, env=env, cwd=cwd)
    if done.returncode:
        raise RuntimeError(f"corpus run on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def differences(old_src: Path, new_src: Path, corpus: list[list[str]],
                names: tuple[str, str] = ("old", "new")):
    """(arguments, {run label: outcome}) of every invocation whose outcome is
    not the same in all four runs; the old tree under the first seed comes first."""
    runs = {f"{name} PYTHONHASHSEED={seed}": run_corpus(src, corpus, seed)
            for name, src in zip(names, (old_src, new_src)) for seed in HASH_SEEDS}
    return [(args, dict(zip(runs, outcomes)))
            for args, *outcomes in zip(corpus, *runs.values())
            if any(outcome != outcomes[0] for outcome in outcomes)]


def describe(args: list[str], outcomes: dict) -> str:
    """The arguments, then each outcome that differs from the first run's, with
    the runs that gave it and a diff of its streams."""
    (first, reference), *rest = outcomes.items()
    others: dict[tuple, list[str]] = {}
    for label, outcome in rest:
        if outcome != reference:
            others.setdefault(tuple(outcome), []).append(label)
    lines = [f"differs: espalier {ascii(args)}", f"  {first}: exit {reference[0]}"]
    for (code, *streams), labels in others.items():
        lines.append(f"  {', '.join(labels)}: exit {code}")
        for name, a, b in zip(("stdout", "stderr"), reference[1:], streams):
            diff = list(difflib.unified_diff(a.splitlines(), b.splitlines(), n=1, lineterm=""))[2:]
            lines += [f"    {name} {line}" for line in diff[:12]]
            if len(diff) > 12:
                lines.append(f"    {name} ... {len(diff) - 12} more diff lines")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare the espalier command line's outputs on a seeded corpus between "
                    "REV's src/ and this checkout's src/.")
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision whose src/ is the old side")
    opts = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", opts.against, "src"],
                                 capture_output=True)
        if archive.returncode:
            parser.error(f"cannot archive {opts.against}: {archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", str(folder)], input=archive.stdout, check=True)
        corpus = build_corpus(folder)
        found = differences(folder / "src", ROOT / "src", corpus, (opts.against, "working tree"))
    for args, outcomes in found:
        print(describe(args, outcomes))
    print(f"diff_outputs: {len(found)} of {len(corpus)} invocations differ between "
          f"{opts.against} and the working tree, PYTHONHASHSEED {' and '.join(map(str, HASH_SEEDS))}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
