#!/usr/bin/env python3
"""Build the bundled 12-crossing knot data file.

Standalone on purpose: the reference Alexander polynomials here come from Fox
calculus on the Wirtinger presentation of each closed-braid diagram, computed
before and independently of the package's Burau-based oracle so the two can
check each other.  This file imports nothing from espalier.  The test suite
loads it by path (tests/oracles.py) and runs its Fox calculus as the oracle for
the library's Alexander polynomials and determinants.  Run from the repository
root:

    python tools/build_table_data.py > src/espalier/data/table1.json
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

PROVENANCE = (
    "independent Fox-calculus (Wirtinger) computation from the quoted braid word; "
    "tools/build_table_data.py"
)

# (name, strands, word, kind) -- kind "staircase" rows carry a braid word,
# "basket-only" rows are documented by surface pictures and carry none.
ROWS = [
    ("3_1", 2, "a1^3", "staircase"),
    ("5_1", 2, "a1^5", "staircase"),
    ("7_1", 2, "a1^7", "staircase"),
    ("8_19", 3, "a1^3 a2 a1^3 a2", "staircase"),
    ("9_1", 2, "a1^9", "staircase"),
    ("10_124", 3, "a1^5 a2 a1^3 a2", "staircase"),
    ("10_139", 3, "a1^4 a2 a1^3 a2^2", "staircase"),
    ("m(10_145)", None, None, "basket-only"),
    ("10_152", 3, "a1^3 a2^2 a1^2 a2^3", "staircase"),
    ("10_154", 4, "a2 a(2,4) a1^2 a2 a3 a(2,4) a1 a2", "staircase"),
    ("10_161", 3, "a1^2 a(1,3) a2 a1^2 a2^2", "staircase"),
    ("11a_367", 2, "a1^11", "staircase"),
    ("11n_77", 4, "a1^2 a2^2 a1 a3 a2^3 a3^2", "staircase"),
    ("11n_183", None, None, "basket-only"),
    ("12n_91", 4, "a3 a1 a(1,3) a1 a2 a3^3 a(1,3) a2 a3", "staircase"),
    ("12n_105", 4, "a3^3 a2 a(2,4) a(1,3) a1 a2 a3 a1^2", "staircase"),
    ("12n_136", 4, "a1^2 a2 a3 a2^2 a(2,4) a3 a(1,3) a2 a3", "staircase"),
    ("m(12n_148)", None, None, "basket-only"),
    ("12n_187", 4, "a3 a2^3 a(2,4) a(1,3) a1 a2 a3 a1^2", "staircase"),
    ("12n_242", 3, "a1 a2^2 a1^2 a2^7", "staircase"),
    ("m(12n_276)", 4, "a(1,4) a(2,3)^2 a1 a2 a3 a(2,4) a(1,3)^2", "staircase"),
    ("12n_328", 4, "a3 a2 a1 a3 a1 a2^2 a(2,4) a1 a2 a3", "staircase"),
    ("m(12n_329)", None, None, "basket-only"),
    ("m(12n_366)", None, None, "basket-only"),
    ("m(12n_402)", None, None, "basket-only"),
    ("12n_417", 3, "a(1,3)^2 a2 a1^3 a2^2 a1^2", "staircase"),
    ("12n_426", 4, "a3 a2 a1 a3 a1 a2 a(2,4) a1 a2 a3 a2", "staircase"),
    ("m(12n_472)", 3, "a1 a2^4 a1^2 a2^5", "staircase"),
    ("12n_518", 4, "a(2,4)^2 a1^2 a2 a3 a2 a3^2 a(1,3) a2", "staircase"),
    ("m(12n_528)", None, None, "basket-only"),
    ("12n_574", 3, "a1 a2^6 a1^2 a2^3", "staircase"),
    ("12n_591", 4, "a3 a2 a1 a(1,3) a1 a2 a3^2 a2 a1 a(2,4)", "staircase"),
    ("12n_640", 3, "a(1,3)^2 a2 a1^4 a2^2 a1", "staircase"),
    ("m(12n_642)", None, None, "basket-only"),
    ("12n_647", 3, "a(1,3)^2 a2 a1^2 a2^2 a1^3", "staircase"),
    ("m(12n_660)", 4, "a2 a(2,4) a1^2 a2 a3 a(2,4) a1 a(1,3)", "staircase"),
    ("12n_679", 3, "a1^3 a2^2 a1^2 a2^5", "staircase"),
    ("12n_688", 3, "a1^3 a2^4 a1^2 a2^3", "staircase"),
    ("12n_694", 4, "a1 a2 a3^2 a2 a(2,4) a3 a(1,3) a2 a1 a2", "staircase"),
    ("12n_725", 3, "a1 a2^2 a1^4 a2^5", "staircase"),
    ("12n_850", 3, "a(1,3)^4 a2 a1^2 a2^2 a1", "staircase"),
    ("12n_888", 3, "a1^3 a2^3 a1^3 a2^3", "staircase"),
]

_TOKEN = re.compile(r"s(\d+)|a\((\d+),(\d+)\)|a(\d+)")
_POWER = re.compile(r"\^(-?\d+)")


def artin_letters(text):
    """Parse a band word and expand every band into (index, sign) Artin letters."""
    letters = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        assert m, f"bad token at {pos} in {text!r}"
        if m.group(1):
            i, j = int(m.group(1)), int(m.group(1)) + 1
        elif m.group(4):
            i, j = int(m.group(4)), int(m.group(4)) + 1
        else:
            i, j = int(m.group(2)), int(m.group(3))
        pos = m.end()
        exp = 1
        pm = _POWER.match(text, pos)
        if pm:
            exp = int(pm.group(1))
            pos = pm.end()
        sign = 1 if exp >= 0 else -1
        for _ in range(abs(exp)):
            if j == i + 1:
                letters.append((i, sign))
            else:
                conj = list(range(i, j - 1))
                letters.extend((k, 1) for k in conj)
                letters.append((j - 1, sign))
                letters.extend((k, -1) for k in reversed(conj))
    return letters


class Poly:
    """Laurent polynomial with Fraction coefficients, as {degree: coeff}."""

    def __init__(self, terms=None):
        self.terms = {d: Fraction(c) for d, c in (terms or {}).items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, 0) + c
        return Poly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, 0) - c
        return Poly(out)

    def __mul__(self, other):
        out = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        return Poly(out)

    def is_zero(self):
        return not self.terms

    def divide(self, other):
        """Exact division (long division over Fractions); asserts exactness."""
        rem = dict(self.terms)
        out = {}
        divisor_deg = max(other.terms)
        divisor_lead = other.terms[divisor_deg]
        floor = min(self.terms, default=0) - min(other.terms)
        while rem:
            deg = max(rem)
            assert deg - divisor_deg >= floor, "inexact polynomial division"
            q = rem[deg] / divisor_lead
            out[deg - divisor_deg] = q
            for d, c in other.terms.items():
                new = rem.get(deg - divisor_deg + d, 0) - q * c
                if new:
                    rem[deg - divisor_deg + d] = new
                else:
                    rem.pop(deg - divisor_deg + d, None)
        return Poly(out)


def wirtinger_alexander(strands, letters):
    """Alexander polynomial (up to units) of the braid closure via Fox calculus.

    Arcs of the closed diagram are tracked per strand position; each positive
    crossing with over-arc o, incoming under-arc u and outgoing w contributes
    the row  o: 1-t, u: t, w: -1  (t <-> t^-1 for negative crossings).  One
    row and one column of the matrix are dropped before the determinant.
    """
    m = len(letters)
    arcs = list(range(strands))
    fresh = strands
    rows = []
    for i, sign in letters:
        under_out = fresh
        fresh += 1
        if sign > 0:
            # strand at position i passes over and moves to position i+1
            over, under_in = arcs[i - 1], arcs[i]
            arcs[i - 1], arcs[i] = under_out, over
        else:
            # strand at position i+1 passes over and moves to position i
            over, under_in = arcs[i], arcs[i - 1]
            arcs[i - 1], arcs[i] = over, under_out
        rows.append((over, under_in, under_out, sign))

    parent = list(range(fresh))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pos in range(strands):
        a, b = find(arcs[pos]), find(pos)
        if a != b:
            parent[a] = b
    labels = sorted({find(x) for x in range(fresh)})
    index = {root: k for k, root in enumerate(labels)}
    assert len(labels) == m, f"{len(labels)} arcs for {m} crossings"

    t = Poly({1: 1})
    t_inv = Poly({-1: 1})
    one = Poly({0: 1})
    matrix = [[Poly() for _ in range(m)] for _ in range(m)]
    for r, (over, under_in, under_out, sign) in enumerate(rows):
        o, u, w = index[find(over)], index[find(under_in)], index[find(under_out)]
        if sign > 0:
            matrix[r][o] = matrix[r][o] + (one - t)
            matrix[r][u] = matrix[r][u] + t
        else:
            matrix[r][o] = matrix[r][o] + (one - t_inv)
            matrix[r][u] = matrix[r][u] + t_inv
        matrix[r][w] = matrix[r][w] - one

    size = m - 1
    minor = [[matrix[r][c] for c in range(size)] for r in range(size)]
    return determinant(minor)


def determinant(rows):
    """Fraction-free Bareiss elimination; interior divisions are exact."""
    size = len(rows)
    if size == 0:
        return Poly({0: 1})
    det_sign = 1
    prev = Poly({0: 1})
    for k in range(size - 1):
        if rows[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, size) if not rows[r][k].is_zero()), None)
            if pivot_row is None:
                return Poly()
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det_sign = -det_sign
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                num = rows[r][c] * rows[k][k] - rows[r][k] * rows[k][c]
                rows[r][c] = num.divide(prev) if not num.is_zero() else Poly()
            rows[r][k] = Poly()
        prev = rows[k][k]
    result = rows[size - 1][size - 1]
    if det_sign < 0:
        result = Poly() - result
    return result


def normalize(poly):
    """Symmetric integer representative with value +1 at t = 1."""
    degs = sorted(poly.terms)
    coeffs = [poly.terms.get(d, Fraction(0)) for d in range(degs[0], degs[-1] + 1)]
    denominator = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denominator) for c in coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    assert ints == ints[::-1], f"not palindromic: {ints}"
    span = len(ints) - 1
    assert span % 2 == 0
    if sum(ints) < 0:
        ints = [-c for c in ints]
    assert sum(ints) == 1, f"knot Alexander value at 1 must be +-1, got {sum(ints)}"
    return -span // 2, ints


def main():
    records = []
    for name, strands, word, kind in ROWS:
        record = {"name": name, "source_row": "Table 1", "kind": kind}
        if kind == "staircase":
            letters = artin_letters(word)
            det = wirtinger_alexander(strands, letters)
            min_deg, coeffs = normalize(det)
            record["braid"] = {"n": strands, "word": word}
            record["alexander"] = {"min_deg": min_deg, "coeffs": coeffs}
            record["alexander_provenance"] = PROVENANCE
        records.append(record)
    json.dump(records, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
