"""The knot table: load and validate its rows, and verify each word row end
to end (parse, positivity, knot closure, staircase, genus, Alexander)."""

from __future__ import annotations

import json
from importlib import resources

from . import garside, invariants, surface
from .braid import parse_braid
from .errors import ToolkitError
from .laurent import LaurentPolynomial

__all__ = ["load_table", "verify_row", "verify_rows"]


def load_table(data_path: str | None = None) -> list[dict]:
    """The rows of `data_path`, else of the bundled table; a row missing a
    field that verify_row reads is an error naming it."""
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
    if row.get("kind") not in ("staircase", "basket-only"):
        raise ToolkitError(f"{where}: 'kind' must be 'staircase' or 'basket-only'")
    if row["kind"] != "staircase":
        return
    for group, key, description, test in _WORD_ROW_FIELDS:
        fields = row.get(group)
        if not isinstance(fields, dict) or not test(fields.get(key)):
            raise ToolkitError(f"{where}: '{group}.{key}' must be {description}")


def verify_row(row: dict) -> dict:
    """Checks for one word row: parse, positivity, knot, staircase, genus, Alexander."""
    w = parse_braid(row["braid"]["word"], row["braid"]["n"])
    if not w.is_positive:
        return {"ok": False, "reason": "word is not BKL-positive"}
    if w.components != 1:
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


def verify_rows(rows: list[dict]) -> tuple[list[dict], int]:
    """One result per row, each with its name and status ("ok", "FAILED" or
    "skipped" for a row without a word), and the number of failed rows."""
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
    return results, failures
