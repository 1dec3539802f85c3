"""The term syntax table: every keyword has one row, and the parser, the
printers, the reserved words and README all follow it."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import strategies as strat
from decorlogic import terms, translators
from decorlogic.dsl import _RESERVED, parse_script
from decorlogic.exceptions import with_catch_all
from decorlogic.terms import SYNTAX, TERM_CLASSES, Comp, Gen, term_to_text
from decorlogic.types import EMPTY, UNIT, Coprod, Param, Prod, Value

ROOT = Path(__file__).resolve().parent.parent


def test_every_keyword_class_has_a_row_and_every_keyword_is_reserved():
    assert {s.cls for s in SYNTAX.values()} == set(TERM_CLASSES) - {Comp, Gen}
    assert set(SYNTAX) <= _RESERVED
    assert {s.shape for s in SYNTAX.values()} == {
        "index", "type", "types", "terms", "family", "none"}


def test_only_composites_and_names_write_themselves():
    """Every other term class, explicit ones included, is written by the
    writer its SYNTAX row gives it."""
    own = set()
    for module in (terms, translators):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        own |= {c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                and any(isinstance(f, ast.FunctionDef) and f.name == "__str__"
                        for f in c.body)}
    assert own == {"Comp", "Gen", "EComp", "EPair", "ECase", "EGen"}


@pytest.mark.parametrize("explicit, decorated", [
    (translators.EId(Value("x")), terms.Id(Value("x"))),
    (translators.ETerminal(Prod(UNIT, Value("x"))),
     terms.ToUnit(Prod(UNIT, Value("x")))),
    (translators.EInitial(Param("i")), terms.FromEmpty(Param("i"))),
    (translators.EProj1(Value("x"), UNIT), terms.Proj1(Value("x"), UNIT)),
    (translators.EProj2(Value("x"), UNIT), terms.Proj2(Value("x"), UNIT)),
    (translators.EInj1(Param("i"), EMPTY), terms.Inj1(Param("i"), EMPTY)),
    (translators.EInj2(Coprod(Param("i"), EMPTY), Param("j")),
     terms.Inj2(Coprod(Param("i"), EMPTY), Param("j"))),
])
def test_explicit_terms_share_the_decorated_spelling(explicit, decorated):
    assert str(explicit) == str(decorated)


# ------------------------------------------------------------ round trip

_STATES_GEN = Gen("g", Value("x"), Value("y"), 1)
_EXC_GEN = Gen("h", Param("i"), Param("j"), 0)
_SIDES = {
    "states": (strat.STATES2.with_gen(_STATES_GEN), _STATES_GEN,
               "theory S = states(x: 2, y: 2)\n"
               "accessor gen g : V[x] -> V[y] in S\n"),
    "exceptions": (with_catch_all(strat.EXC2).with_gen(_EXC_GEN), _EXC_GEN,
                   "theory E = exceptions(i: 2, j: 2) with catchall\n"
                   "pure gen h : P[i] -> P[j] in E\n"),
}


@pytest.mark.parametrize("side", sorted(_SIDES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_printed_terms_parse_back_equal(side, data):
    theory, gen, head = _SIDES[side]
    atoms = data.draw(strat.structured_atoms(theory, extra=[gen]))
    eq = data.draw(strat.equations(theory, atoms))
    for t in (data.draw(strat.composed_terms(atoms)), eq.lhs, eq.rhs):
        script = parse_script(
            f"{head}term q in {theory.name} = {term_to_text(t)}\n")
        assert script.decls[-1].term == t


# ---------------------------------------------------------------- README

def _usage(keyword: str) -> str:
    """A pattern for how README writes `keyword`, from its shape: each
    argument is a placeholder name, and a family's components are one
    `i: f` and an ellipsis."""
    s = SYNTAX[keyword]
    k, arg = re.escape(keyword), r"\w+"
    if s.shape == "none":
        return f"`{k}`"
    if s.shape == "family":
        return f"`{k}" + r"\(\w+: \w+, \.\.\.\)`"
    if s.shape == "terms":
        return f"`{k}" + r"\(" + ", ".join([arg] * len(s.fields)) + r"\)`"
    return f"`{k}" + r"\[" + ",".join([arg] * len(s.fields)) + r"\]`"


def test_readme_writes_every_keyword_as_the_parser_reads_it():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    syntax = readme[readme.index("Term syntax:"):]
    for keyword in SYNTAX:
        assert re.search(_usage(keyword), syntax), keyword
