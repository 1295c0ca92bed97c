"""Compare one op's exit status and stdout with its reference.

Integers and strings must match exactly. Floats, which the program prints
at 12 significant digits, must agree with the reference within a relative
1e-10 (1e-9 for analyze statistics) or an absolute 1e-14, far below any
change of a single count. Analyze JSON is compared field by field over the
fields the reference states: `meta.timestamp` (which makes identical runs
differ) and `meta.version` are not compared.
"""

from __future__ import annotations

import json


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= max(1e-14, rel * abs(want))


def _same(got, want, rel: float) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and all(
            k in got and _same(got[k], v, rel) for k, v in want.items()
        )
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w, rel) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)):
        return not isinstance(got, bool) and _close(float(got), want, rel)
    return type(got) is type(want) and got == want


def _check_analyze(expect: dict, stdout: str) -> str | None:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    for key, want in expect["doc"].items():
        if not _same(doc.get(key), want, 1e-9):
            return f"field {key!r}: got {doc.get(key)!r}, want {want!r}"
    return None


def _check_rows(expect: dict, stdout: str) -> str | None:
    lines = stdout.splitlines()
    meta = {}
    while lines and lines[0].startswith("#"):
        key, _, value = lines.pop(0)[1:].strip().partition("=")
        meta[key] = value
    for key, want in expect["meta"].items():
        if meta.get(key) != want:
            return f"header {key}={meta.get(key)!r}, want {want!r}"
    if not lines or lines[0] != expect["header"]:
        return f"header line {lines[:1]!r}, want {expect['header']!r}"
    rows = lines[1:]
    if len(rows) != len(expect["rows"]):
        return f"{len(rows)} rows, want {len(expect['rows'])}"
    for line, want in zip(rows, expect["rows"]):
        cells = line.split(",")
        if len(cells) != len(want):
            return f"row {line!r}, want {want!r}"
        for cell, w in zip(cells, want):
            try:
                ok = int(cell) == w if isinstance(w, int) else _close(float(cell), w, 1e-10)
            except ValueError:
                ok = False
            if not ok:
                return f"row {line!r}, want {want!r}"
    return None


def check(expect: dict, exit_code: int, stdout: str) -> str | None:
    """None when the op's output matches, else the first difference."""
    if exit_code != expect["exit"]:
        return f"exit status {exit_code}, want {expect['exit']}"
    if expect["kind"] == "analyze":
        return _check_analyze(expect, stdout)
    return _check_rows(expect, stdout)
