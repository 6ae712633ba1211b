"""Command-line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage or
domain-precondition errors and when a command runs out of memory or recursion
depth.  --json switches each command to its JSON schema.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import __version__, cabling, compose, diagram, garside, invariants, surface, table, trees
from .braid import BraidWord, format_braid, parse_braid
from .errors import ToolkitError
from .table import verify_row  # noqa: F401  (the benchmark calls cli.verify_row)

VERIFY_FAILED = 1
USAGE_ERROR = 2

strands_opt = click.option("--strands", type=int, default=None, help="declare the strand count")


@click.group()
@click.version_option(__version__, prog_name="espalier")
def main():
    """Band-generator braid calculus: espaliers, staircases, cables, Alexander."""


def command(name: str):
    """Register `name` with --json as its last option.  The function returns
    (payload, text, status): its JSON payload, its text output and its exit
    status (0 or VERIFY_FAILED).  A usage or domain error, or an input that
    exhausts memory or the recursion limit, exits 2 with one `error:` line,
    not a traceback."""

    def register(func):
        @functools.wraps(func)
        def run(as_json, **kwargs):
            try:
                payload, text, status = func(**kwargs)
            except ToolkitError as exc:
                message = str(exc)
            except MemoryError:
                message = f"out of memory in {name}"
            except RecursionError:
                message = f"recursion limit in {name}"
            else:
                click.echo(json.dumps(payload) if as_json else text)
                if status:
                    sys.exit(status)
                return
            click.echo(f"error: {message}", err=True)
            sys.exit(USAGE_ERROR)

        cmd = main.command(name)(run)
        cmd.params.append(click.Option(["--json", "as_json"], is_flag=True,
                                       help="emit JSON output"))
        return cmd

    return register


@command("parse")
@click.argument("word")
@strands_opt
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False), default=None,
              help="also write a fence diagram of the word")
def parse_cmd(word, strands, svg_path):
    """Echo the canonical serialization of WORD."""
    w = parse_braid(word, strands)
    if svg_path:
        _write_fence_svg(w, svg_path)
    text = format_braid(w)
    return {"strands": w.strands, "length": len(w.letters), "word": text}, text, 0


@command("normal-form")
@click.argument("word")
@strands_opt
def normal_form_cmd(word, strands):
    """Dual Garside left normal form: infimum and simple factors."""
    nf = garside.left_normal_form(parse_braid(word, strands))
    return {"inf": nf.inf, "sup": nf.sup, "factors": [str(f) for f in nf.factors]}, str(nf), 0


@command("staircase")
@click.argument("word")
@strands_opt
def staircase_cmd(word, strands):
    """Test whether WORD is conjugate in B_n, for its own strand count n, to
    some delta.P: raise the infimum by cycling; print the conjugator c and the
    delta.P witness, equal to c^-1 WORD c.  A "no" does not rule out a
    staircase closure: a braid on fewer strands with the same closure can be
    one.  On "no", inf is where the search stopped, which can be below the
    best infimum of any conjugate."""
    res = garside.is_staircase(parse_braid(word, strands))
    if not res:
        return {"staircase": False, "inf": res.inf}, f"staircase: no (inf={res.inf})", 0
    witness = f"{format_braid(res.head)} {format_braid(res.tail)}".strip()
    conjugator = format_braid(res.conjugator)
    return ({"staircase": True, "witness": witness, "inf": res.inf, "conjugator": conjugator},
            f"staircase: yes (inf={res.inf})\n"
            f"conjugator: {conjugator or 'e'}\nwitness: {witness}", 0)


@command("classify")
@click.argument("word")
@strands_opt
@click.option("--espalier", "espalier_spec", default=None,
              help='espalier as "n=5; edges=(1,3),(1,4),..." (default: infer from the word)')
def classify_cmd(word, strands, espalier_spec):
    """T-positive / T-homogeneous classification against an espalier."""
    if espalier_spec is not None:
        tree = trees.parse_espalier(espalier_spec)
        w = parse_braid(word, strands if strands is not None else tree.vertices)
        outcome = trees.classify(tree, w)
    else:
        w = parse_braid(word, strands)
        found = trees.find_espalier(w)
        if found is None:
            reason = "support is not a non-crossing spanning tree"
            return {"kind": "NotTWord", "reason": reason}, f"NotTWord: {reason}", 0
        tree, outcome = found
    payload = {"kind": outcome.kind.value, "espalier": str(tree)}
    text = f"{outcome.kind.value} for {tree}"
    if outcome.signs is not None:
        payload["signs"] = {f"({i},{j})": s for (i, j), s in outcome.signs.items()}
        text += "\nsigns: " + " ".join(
            f"({i},{j}):{'+' if s > 0 else '-'}" for (i, j), s in outcome.signs.items())
    if outcome.reason:
        payload["reason"] = outcome.reason
        text += f"\nreason: {outcome.reason}"
    return payload, text, 0


@command("espaliers")
@click.option("--n", "n", type=int, required=True)
@click.option("--count-only", is_flag=True)
def espaliers_cmd(n, count_only):
    """Enumerate every espalier on n vertices."""
    if count_only:
        count = trees.count_espaliers(n)
        return {"n": n, "count": count}, str(count), 0
    found = trees.enumerate_espaliers(n)
    listed = [str(t) for t in found]
    return {"n": n, "count": len(found), "espaliers": listed}, "\n".join(listed), 0


def _verdict(payload: dict, ok: bool):
    """The output of a --verify check on the word in `payload`."""
    payload["verified"] = ok
    if ok:
        return payload, payload["word"], 0
    return payload, f"verification FAILED\n{payload['word']}", VERIFY_FAILED


@command("homogenize")
@click.argument("word")
@click.option("--espalier", "espalier_spec", required=True)
@click.option("--verify", is_flag=True, help="check closure invariants before/after")
def homogenize_cmd(word, espalier_spec, verify):
    """Flip lone negative letters positive (T-homogeneous words, t >= -1)."""
    tree = trees.parse_espalier(espalier_spec)
    w = parse_braid(word, tree.vertices)
    out = surface.homogenize(tree, w)
    payload = {"word": format_braid(out)}
    if not verify:
        return payload, payload["word"], 0
    ok = w.components == out.components
    if ok and w.components == 1:
        ok = invariants.alexander_of_closure(w) == invariants.alexander_of_closure(out)
    return _verdict(payload, ok)


@command("cable")
@click.argument("word")
@strands_opt
@click.option("--p", "p", type=int, required=True)
@click.option("--q", "q", type=int, required=True)
@click.option("--verify", is_flag=True,
              help="check the output's literal delta, knot closure, and satellite Alexander")
def cable_cmd(word, strands, p, q, verify):
    """Staircase word for the (p,q)-cable of WORD's closure knot."""
    w = parse_braid(word, strands)
    spec = cabling.CableSpec(p=p, q=q, base_strands=w.strands)
    out = cabling.cable_staircase(w, spec)
    payload = {"strands": out.strands, "length": len(out.letters), "word": format_braid(out)}
    if not verify:
        return payload, payload["word"], 0
    head = garside.delta(out.strands).letters
    ok = out.letters[:len(head)] == head and out.is_positive and out.components == 1
    if ok:
        expected = invariants.satellite_alexander(invariants.alexander_of_closure(w), p, q)
        ok = invariants.alexander_of_closure(out) == expected
    return _verdict(payload, ok)


@command("connect-sum")
@click.option("--left", "left_text", required=True)
@click.option("--right", "right_text", required=True)
@click.option("--shuffle", "shuffle_text", default=None,
              help="letter interleaving as a string of L/R picks")
@click.option("--force", is_flag=True, help="allow multi-component inputs")
def connect_sum_cmd(left_text, right_text, shuffle_text, force):
    """Connected-sum word of two knot-closure words."""
    a = parse_braid(left_text)
    b = parse_braid(right_text)
    shuffle = None
    if shuffle_text is not None:
        picks = shuffle_text.upper()
        if set(picks) - {"L", "R"}:
            raise ToolkitError("shuffle pattern must use only L and R")
        shuffle = [0 if c == "L" else 1 for c in picks]
    out = compose.connected_sum_words(a, b, shuffle=shuffle, force=force)
    text = format_braid(out)
    return {"strands": out.strands, "word": text}, text, 0


@command("alexander")
@click.argument("word")
@strands_opt
def alexander_cmd(word, strands):
    """Alexander polynomial of the closure knot (symmetric, +1 at t=1)."""
    poly = invariants.alexander_of_closure(parse_braid(word, strands))
    return ({"min_deg": poly.min_degree, "coeffs": list(poly.coefficients), "text": str(poly)},
            str(poly), 0)


@command("genus")
@click.argument("word")
@strands_opt
def genus_cmd(word, strands):
    """Genus (1 - chi)/2 of the braided surface of a knot-closure word."""
    w = parse_braid(word, strands)
    chi = surface.euler_characteristic(w)
    g = surface.genus_of_knot_closure(w)
    return {"chi": chi, "genus": g}, f"chi = {chi}, genus = {g}", 0


@command("prime-scan")
@click.argument("word")
@strands_opt
def prime_scan_cmd(word, strands):
    """Region count and non-trivial length-2 loops of the closed-braid diagram."""
    report = diagram.visual_primeness_report(parse_braid(word, strands))
    payload = {"regions": report.regions, "loops": [
        {"regions": [r + 1 for r in loop.regions], "arcs": [a + 1 for a in loop.arcs],
         "crossings_side_A": loop.crossings_side_a, "crossings_side_B": loop.crossings_side_b}
        for loop in report.loops]}
    lines = [f"regions: {report.regions}"]
    if report.passes_quick_test:
        lines.append("no length-2 loop: the diagram admits no decomposition circle "
                     "(says nothing about primeness of the link)")
    for loop in payload["loops"]:
        (r1, r2), (a1, a2) = loop["regions"], loop["arcs"]
        lines.append(f"loop between regions {r1},{r2} through arcs {a1},{a2}: "
                     f"{loop['crossings_side_A']} / {loop['crossings_side_B']} crossings per side")
    return payload, "\n".join(lines), 0


@command("verify-table")
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="knot data file (default: the bundled table)")
def verify_table_cmd(data_path):
    """Run the 12-crossing table verification suite."""
    results, failures = table.verify_rows(table.load_table(data_path))
    checked = sum(1 for r in results if r["status"] != "skipped")
    skipped = len(results) - checked
    summary = (f"{checked - failures}/{checked} word rows verified; "
               f"{skipped} basket-only rows skipped (geometric evidence only)")
    lines = []
    for r in results:
        if r["status"] == "skipped":
            lines.append(f"{r['name']}: skipped ({r['reason']})")
        elif r["status"] == "ok":
            lines.append(f"{r['name']}: ok (inf={r['inf']}, genus={r['genus']})")
        else:
            lines.append(f"{r['name']}: FAILED ({r.get('reason', 'see data')})")
    lines.append(summary)
    return ({"rows": results, "summary": summary, "failures": failures}, "\n".join(lines),
            VERIFY_FAILED if failures else 0)


def _write_fence_svg(word: BraidWord, path: str):
    """Fence diagram: one horizontal line per strand, one vertical bar per band
    (dashed for negative letters)."""
    step, margin, gap = 28, 20, 24
    width = margin * 2 + step * max(1, len(word.letters))
    height = margin * 2 + gap * (word.strands - 1)

    def y(strand):
        return margin + gap * (strand - 1)

    lines = [
        f'<line x1="{margin - 10}" y1="{y(s)}" x2="{width - margin + 10}" y2="{y(s)}" '
        'stroke="black" stroke-width="1"/>'
        for s in range(1, word.strands + 1)
    ]
    for k, g in enumerate(word.letters):
        x = margin + step * k + step // 2
        dash = '' if g.sign > 0 else ' stroke-dasharray="4 3"'
        lines.append(
            f'<line x1="{x}" y1="{y(g.i)}" x2="{x}" y2="{y(g.j)}" '
            f'stroke="black" stroke-width="2"{dash}/>'
        )
    body = "\n".join(lines)
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">\n{body}\n</svg>\n')
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(svg)
    except OSError as exc:
        raise ToolkitError(f"cannot write {path!r}: {exc}") from exc


if __name__ == "__main__":
    main()
