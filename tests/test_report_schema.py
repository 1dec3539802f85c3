"""Emitted reports against the tables of docs/report-schema.md."""

from __future__ import annotations

import re
from pathlib import Path

from decorlogic.dsl import execute, parse_script

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "report-schema.md"


def _documented_keys(kind: str) -> tuple[set[str], set[str]]:
    """(required, optional) detail keys from the table under `### `kind``."""
    text = SCHEMA.read_text()
    section = text.split(f"### `{kind}`", 1)[1].split("\n#", 1)[0]
    required, optional = set(), set()
    for row in re.findall(r"^\|\s*`(\w+)`\s*\|(.*)$", section, re.M):
        key, rest = row
        (optional if "*optional*" in rest else required).add(key)
    return required, optional


def test_prove_reports_match_the_documented_keys():
    required, optional = _documented_keys("prove")
    src = ("theory S = states(x: 2, y: 2)\n"
           "prove in S : l[y] . (u[x] . l[x]) ~~ l[y]\n"
           "prove in S : l[x] . u[x] == id[V[x]]\n"
           "prove in S : l[y] . (u[x] . l[x]) ~~ l[y] budget 1\n")
    details = {o.detail["status"]: o.detail
               for o in execute(parse_script(src)).outcomes}
    assert set(details) == {"proven", "refuted", "unknown"}
    extra = {"proven": {"nodes", "tree"}, "refuted": {"witness"},
             "unknown": set()}
    for status, detail in details.items():
        assert extra[status] <= optional
        assert set(detail) == required | extra[status], status
