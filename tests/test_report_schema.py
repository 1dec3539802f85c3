"""Emitted reports against the tables of docs/report-schema.md."""

from __future__ import annotations

import json
import re
from pathlib import Path

from decorlogic.dsl import ExecConfig, execute, parse_script, report_json

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "report-schema.md"


def _documented_keys(kind: str) -> tuple[set[str], set[str], set[str]]:
    """(required, optional, states-only) detail keys from the table of the
    `###` section whose heading names `kind`."""
    text = SCHEMA.read_text()
    for section in text.split("\n### ")[1:]:
        heading, _, body = section.partition("\n")
        if f"`{kind}`" in heading:
            break
    else:
        raise AssertionError(f"no section documents {kind!r}")
    required, optional, states_only = set(), set(), set()
    for key, rest in re.findall(r"^\|\s*`(\w+)`\s*\|(.*)$",
                                body.split("\n## ", 1)[0], re.M):
        if "*states only*" in rest:
            states_only.add(key)
        (optional if "*optional*" in rest else required).add(key)
    return required, optional, states_only


def test_prove_reports_match_the_documented_keys():
    required, optional, _ = _documented_keys("prove")
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


def test_the_command_entry_example_is_what_bank_account_emits():
    """`decor verify docs/bank_account.dec --format json` emits the entry
    shown under "Command entries"."""
    section = SCHEMA.read_text().split("\n## Command entries\n", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    example = json.loads(block.replace("{ ... }", "null"))
    src = (SCHEMA.parent / "bank_account.dec").read_text()
    report = report_json(execute(parse_script(src), ExecConfig(mode="verify")))
    assert [(c["kind"], c["target"], c["ok"]) for c in report["commands"]] == [
        (example["kind"], example["target"], example["ok"])]


RUNS = """\
theory S = states(x: 2, y: 2)
theory Ex = exceptions(i: 2, j: 2)
proof p in S {
  s1: axiom(A1_x);
  s2: w-sym from s1;
}
proof h in S {
  s1: hyp(a) holds l[x] ~~ l[x];
  s2: w-sym from s1;
}
check proof p in S
check proof h in S
lemma annihilation(x) in S
verify states-seven in S
verify exceptions-laws in Ex
eval in S : l[x] on 0 state (1, 0)
eval in Ex : c[i] . t[i] on 1
eval in Ex : t[j] on throw(i: 0)
erase S
dualize Ex
expand S
expand Ex
"""


def test_every_command_kind_reports_the_documented_keys():
    outcomes = execute(parse_script(RUNS)).outcomes
    assert {o.kind for o in outcomes} == {
        "check", "lemma", "verify", "eval", "erase", "dualize", "expand"}
    seen_optional = set()
    for o in outcomes:
        required, optional, states_only = _documented_keys(o.kind)
        if o.kind == "eval" and o.target.startswith("eval in Ex"):
            required -= states_only
        keys = set(o.detail)
        assert o.ok, (o.target, o.detail)
        assert required <= keys <= required | optional, o.target
        seen_optional |= keys & optional
    assert "hypotheses" in seen_optional


FAILURES = """\
theory S = states(x: 2, y: 2)
theory Ex = exceptions(i: 2, j: 2)
theory C = exceptions(k: 2) with catchall
proof bad in S {
  s1: axiom(A1_x);
  s2: eq-sym from s1;
}
check proof bad in S
lemma annihilation(q) in S
verify exceptions-laws in S
eval in S : l[x] . l[x] on 0
eval in Ex : t[i] . c[j] on 0
prove in S : l[x] ~~ l[y]
dualize C
"""


def test_a_command_that_fails_before_it_runs_reports_only_the_error():
    """The error-only shape documented under "Command entries"."""
    outcomes = execute(parse_script(FAILURES)).outcomes
    assert [o.kind for o in outcomes] == [
        "check", "lemma", "verify", "eval", "eval", "prove", "dualize"]
    for o in outcomes:
        assert not o.ok
        assert list(o.detail) == ["error"], o.target
        assert isinstance(o.detail["error"], str) and o.detail["error"]


PROVES = """\
theory S = states(x: 2, y: 2)
prove in S : l[y] . (u[x] . l[x]) ~~ l[y]
prove in S : l[x] . u[x] == id[V[x]]
prove in S : l[y] . (u[x] . l[x]) ~~ l[y] budget 1
"""


def _listed(v):
    """`v` with its tuples as lists, as JSON writes them back."""
    if isinstance(v, dict):
        return {k: _listed(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_listed(x) for x in v]
    return v


def test_every_detail_is_json_as_the_runner_returns_it():
    """Reports write each detail as it stands, so a runner returns only
    JSON values: no term or type object, and no key but a string."""
    outcomes = [o for src in (RUNS, FAILURES, PROVES)
                for o in execute(parse_script(src)).outcomes]
    assert {o.kind for o in outcomes} == {
        "check", "lemma", "verify", "eval", "prove", "erase", "dualize",
        "expand"}
    for o in outcomes:
        assert json.loads(json.dumps(o.detail)) == _listed(o.detail), o.target
