"""Command-line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage or
domain-precondition errors and when a command runs out of memory or recursion
depth.  --json switches each command to its JSON schema.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from importlib import resources

import click

from . import cabling, compose, diagram, garside, invariants, surface, trees
from .braid import (
    BraidWord,
    closure_components,
    format_braid,
    parse_braid,
)
from .errors import ToolkitError
from .laurent import LaurentPolynomial

VERIFY_FAILED = 1
USAGE_ERROR = 2


def _domain_errors(func):
    """Exit 2 with one `error:` line, not a traceback, on a usage or domain
    error, or when the input exhausts memory or the recursion limit."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ToolkitError as exc:
            message = str(exc)
        except MemoryError:
            message = f"out of memory in {click.get_current_context().info_name}"
        except RecursionError:
            message = f"recursion limit in {click.get_current_context().info_name}"
        click.echo(f"error: {message}", err=True)
        sys.exit(USAGE_ERROR)

    return wrapper


def _emit(as_json: bool, payload: dict, text: str):
    click.echo(json.dumps(payload) if as_json else text)


json_flag = click.option("--json", "as_json", is_flag=True, help="emit JSON output")
strands_opt = click.option("--strands", type=int, default=None, help="declare the strand count")


@click.group()
@click.version_option(package_name="espalier")
def main():
    """Band-generator braid calculus: espaliers, staircases, cables, Alexander."""


@main.command("parse")
@click.argument("word")
@strands_opt
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False), default=None,
              help="also write a fence diagram of the word")
@json_flag
@_domain_errors
def parse_cmd(word, strands, svg_path, as_json):
    """Echo the canonical serialization of WORD."""
    w = parse_braid(word, strands)
    if svg_path:
        _write_fence_svg(w, svg_path)
    _emit(as_json, {"strands": w.strands, "length": len(w.letters), "word": format_braid(w)},
          format_braid(w))


@main.command("normal-form")
@click.argument("word")
@strands_opt
@json_flag
@_domain_errors
def normal_form_cmd(word, strands, as_json):
    """Dual Garside left normal form: infimum and simple factors."""
    nf = garside.left_normal_form(parse_braid(word, strands))
    _emit(as_json,
          {"inf": nf.inf, "sup": nf.sup, "factors": [str(f) for f in nf.factors]},
          str(nf))


@main.command("staircase")
@click.argument("word")
@strands_opt
@json_flag
@_domain_errors
def staircase_cmd(word, strands, as_json):
    """Test whether WORD's closure is a staircase closure: raise the infimum
    by cycling; print the conjugator c and the delta.P witness, equal to
    c^-1 WORD c.  On "no", inf is where the search stopped, which can be
    below the best infimum of any conjugate."""
    res = garside.is_staircase(parse_braid(word, strands))
    if res:
        witness = f"{format_braid(res.head)} {format_braid(res.tail)}".strip()
        conjugator = format_braid(res.conjugator)
        _emit(as_json,
              {"staircase": True, "witness": witness, "inf": res.inf, "conjugator": conjugator},
              f"staircase: yes (inf={res.inf})\n"
              f"conjugator: {conjugator or 'e'}\nwitness: {witness}")
    else:
        _emit(as_json, {"staircase": False, "inf": res.inf},
              f"staircase: no (inf={res.inf})")


@main.command("classify")
@click.argument("word")
@strands_opt
@click.option("--espalier", "espalier_spec", default=None,
              help='espalier as "n=5; edges=(1,3),(1,4),..." (default: infer from the word)')
@json_flag
@_domain_errors
def classify_cmd(word, strands, espalier_spec, as_json):
    """T-positive / T-homogeneous classification against an espalier."""
    if espalier_spec is not None:
        tree = trees.parse_espalier(espalier_spec)
        w = parse_braid(word, strands if strands is not None else tree.vertices)
        outcome = trees.classify(tree, w)
    else:
        w = parse_braid(word, strands)
        found = trees.find_espalier(w)
        if found is None:
            _emit(as_json, {"kind": "NotTWord", "reason": "support is not a non-crossing spanning tree"},
                  "NotTWord: support is not a non-crossing spanning tree")
            return
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
    _emit(as_json, payload, text)


@main.command("espaliers")
@click.option("--n", "n", type=int, required=True)
@click.option("--count-only", is_flag=True)
@json_flag
@_domain_errors
def espaliers_cmd(n, count_only, as_json):
    """Enumerate every espalier on n vertices."""
    found = trees.enumerate_espaliers(n)
    if count_only:
        _emit(as_json, {"n": n, "count": len(found)}, str(len(found)))
        return
    if as_json:
        click.echo(json.dumps({"n": n, "count": len(found),
                               "espaliers": [str(t) for t in found]}))
    else:
        for t in found:
            click.echo(str(t))


@main.command("homogenize")
@click.argument("word")
@click.option("--espalier", "espalier_spec", required=True)
@click.option("--verify", is_flag=True, help="check closure invariants before/after")
@json_flag
@_domain_errors
def homogenize_cmd(word, espalier_spec, verify, as_json):
    """Flip lone negative letters positive (T-homogeneous words, t >= -1)."""
    tree = trees.parse_espalier(espalier_spec)
    w = parse_braid(word, tree.vertices)
    out = surface.homogenize(tree, w)
    payload = {"word": format_braid(out)}
    if verify:
        ok = closure_components(w) == closure_components(out)
        if ok and closure_components(w) == 1:
            ok = invariants.alexander_of_closure(w) == invariants.alexander_of_closure(out)
        payload["verified"] = ok
        if not ok:
            _emit(as_json, payload, f"verification FAILED\n{format_braid(out)}")
            sys.exit(VERIFY_FAILED)
    _emit(as_json, payload, format_braid(out))


@main.command("cable")
@click.argument("word")
@strands_opt
@click.option("--p", "p", type=int, required=True)
@click.option("--q", "q", type=int, required=True)
@click.option("--verify", is_flag=True,
              help="check the output's literal delta, knot closure, and satellite Alexander")
@json_flag
@_domain_errors
def cable_cmd(word, strands, p, q, verify, as_json):
    """Staircase word for the (p,q)-cable of WORD's closure knot."""
    w = parse_braid(word, strands)
    spec = cabling.CableSpec(p=p, q=q, base_strands=w.strands)
    out = cabling.cable_staircase(w, spec)
    payload = {"strands": out.strands, "length": len(out.letters), "word": format_braid(out)}
    if verify:
        head = garside.delta(out.strands).letters
        ok = (out.letters[:len(head)] == head and out.is_positive
              and closure_components(out) == 1)
        if ok:
            expected = invariants.satellite_alexander(invariants.alexander_of_closure(w), p, q)
            ok = invariants.alexander_of_closure(out) == expected
        payload["verified"] = ok
        if not ok:
            _emit(as_json, payload, f"verification FAILED\n{format_braid(out)}")
            sys.exit(VERIFY_FAILED)
    _emit(as_json, payload, format_braid(out))


@main.command("connect-sum")
@click.option("--left", "left_text", required=True)
@click.option("--right", "right_text", required=True)
@click.option("--shuffle", "shuffle_text", default=None,
              help="letter interleaving as a string of L/R picks")
@click.option("--force", is_flag=True, help="allow multi-component inputs")
@json_flag
@_domain_errors
def connect_sum_cmd(left_text, right_text, shuffle_text, force, as_json):
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
    _emit(as_json, {"strands": out.strands, "word": format_braid(out)}, format_braid(out))


@main.command("alexander")
@click.argument("word")
@strands_opt
@json_flag
@_domain_errors
def alexander_cmd(word, strands, as_json):
    """Alexander polynomial of the closure knot (symmetric, +1 at t=1)."""
    poly = invariants.alexander_of_closure(parse_braid(word, strands))
    _emit(as_json,
          {"min_deg": poly.min_degree, "coeffs": list(poly.coefficients), "text": str(poly)},
          str(poly))


@main.command("genus")
@click.argument("word")
@strands_opt
@json_flag
@_domain_errors
def genus_cmd(word, strands, as_json):
    """Genus (1 - chi)/2 of the braided surface of a knot-closure word."""
    w = parse_braid(word, strands)
    chi = surface.euler_characteristic(w)
    g = surface.genus_of_knot_closure(w)
    _emit(as_json, {"chi": chi, "genus": g}, f"chi = {chi}, genus = {g}")


@main.command("prime-scan")
@click.argument("word")
@strands_opt
@json_flag
@_domain_errors
def prime_scan_cmd(word, strands, as_json):
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
    _emit(as_json, payload, "\n".join(lines))


@main.command("verify-table")
@click.option("--data", "data_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="knot data file (default: $ESPALIER_DATA or the bundled table)")
@json_flag
@_domain_errors
def verify_table_cmd(data_path, as_json):
    """Run the 12-crossing table verification suite."""
    rows = _load_table(data_path)
    results = []
    failures = 0
    for index, row in enumerate(rows):
        if row["kind"] != "staircase":
            results.append({"name": row["name"], "status": "skipped",
                            "reason": "geometric evidence only"})
            continue
        try:
            outcome = verify_row(row)
        except ToolkitError as exc:
            raise ToolkitError(f"row {index + 1} ({row['name']!r}): {exc}") from exc
        if not outcome["ok"]:
            failures += 1
        results.append({"name": row["name"], "status": "ok" if outcome["ok"] else "FAILED",
                        **{k: v for k, v in outcome.items() if k != "ok"}})
    checked = sum(1 for r in results if r["status"] != "skipped")
    skipped = len(results) - checked
    summary = (f"{checked - failures}/{checked} word rows verified; "
               f"{skipped} basket-only rows skipped (geometric evidence only)")
    if as_json:
        click.echo(json.dumps({"rows": results, "summary": summary, "failures": failures}))
    else:
        for r in results:
            if r["status"] == "skipped":
                click.echo(f"{r['name']}: skipped ({r['reason']})")
            elif r["status"] == "ok":
                click.echo(f"{r['name']}: ok (inf={r['inf']}, genus={r['genus']})")
            else:
                click.echo(f"{r['name']}: FAILED ({r.get('reason', 'see data')})")
        click.echo(summary)
    if failures:
        sys.exit(VERIFY_FAILED)


def verify_row(row: dict) -> dict:
    """Checks for one word row: parse, positivity, knot, staircase, genus, Alexander."""
    w = parse_braid(row["braid"]["word"], row["braid"]["n"])
    if not w.is_positive:
        return {"ok": False, "reason": "word is not BKL-positive"}
    if closure_components(w) != 1:
        return {"ok": False, "reason": "closure is not a knot"}
    res = garside.is_staircase(w)
    if not res:
        return {"ok": False, "reason": "summit infimum is 0"}
    poly = invariants.alexander_of_closure(w)
    genus = surface.genus_of_knot_closure(w)
    if not invariants.fibered_shape(poly, genus):
        return {"ok": False, "reason": "Alexander span does not match the genus"}
    reference = LaurentPolynomial.from_coefficients(
        row["alexander"]["min_deg"], row["alexander"]["coeffs"])
    if not poly.equal_up_to_units(reference):
        return {"ok": False, "reason": f"Alexander {poly} != reference {reference}"}
    return {"ok": True, "inf": res.inf, "genus": genus}


def _load_table(data_path: str | None) -> list[dict]:
    if data_path is None:
        data_path = os.environ.get("ESPALIER_DATA")
    try:
        if data_path is not None:
            with open(data_path, encoding="utf-8") as handle:
                rows = json.load(handle)
        else:
            rows = json.loads(
                resources.files("espalier.data").joinpath("table1.json").read_text()
            )
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or a numeral too long to convert
        raise ToolkitError(f"cannot read knot data file {data_path!r}: {exc}") from exc
    if not isinstance(rows, list):
        raise ToolkitError(f"knot data file {data_path!r} is not a list of rows")
    for index, row in enumerate(rows):
        _check_row(index, row)
    return rows


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# (group, key, description, test) for every field verify_row reads off a word row
_WORD_ROW_FIELDS = (
    ("braid", "word", "a string", lambda v: isinstance(v, str)),
    ("braid", "n", "an integer", _is_int),
    ("alexander", "min_deg", "an integer", _is_int),
    ("alexander", "coeffs", "a list of integers",
     lambda v: isinstance(v, list) and all(map(_is_int, v))),
)


def _check_row(index: int, row) -> None:
    """The schema of one table row; the error names the row."""
    if not isinstance(row, dict) or not isinstance(row.get("name"), str):
        raise ToolkitError(f"row {index + 1} of the knot data has no string 'name'")
    where = f"row {index + 1} ({row['name']!r})"
    if not isinstance(row.get("kind"), str):
        raise ToolkitError(f"{where}: 'kind' must be a string")
    if row["kind"] != "staircase":
        return
    for group, key, description, test in _WORD_ROW_FIELDS:
        fields = row.get(group)
        if not isinstance(fields, dict) or not test(fields.get(key)):
            raise ToolkitError(f"{where}: '{group}.{key}' must be {description}")


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
