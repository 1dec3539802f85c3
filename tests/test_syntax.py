"""The syntax tables: every term keyword and every declaration and command
form has one row, and the parser, the printers, the reserved words and
README all follow them."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import strategies as strat
from decorlogic import dsl, terms, translators
from decorlogic.dsl import _RESERVED, parse_script
from decorlogic.exceptions import with_catch_all
from decorlogic.terms import SYNTAX, TERM_CLASSES, Comp, Gen, term_to_text
from decorlogic.types import Param, Value

ROOT = Path(__file__).resolve().parent.parent


def test_every_keyword_class_has_a_row_and_every_keyword_is_reserved():
    assert {s.cls for s in SYNTAX.values()} == set(TERM_CLASSES) - {Comp, Gen}
    assert set(SYNTAX) <= _RESERVED
    assert {s.shape for s in SYNTAX.values()} == {
        "index", "type", "types", "terms", "family", "none"}


def test_only_composites_and_names_write_themselves():
    """Every other term class is written by the writer its SYNTAX row
    gives it; of the explicit terms, only the pairing and the copairing,
    which no keyword writes, write themselves."""
    own = set()
    for module in (terms, translators):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        own |= {c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                and any(isinstance(f, ast.FunctionDef) and f.name == "__str__"
                        for f in c.body)}
    assert own == {"Comp", "Gen", "EPair", "ECase"}


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


# ---------------------------------------------------------- script forms

# the words of the declaration and command forms
_FORM_WORDS = ({w for form in dsl._GRAMMAR for w in form.words}
               | {text for form in dsl._GRAMMAR
                  for _, kind, text, _ in form.steps if kind == "ident"})

# the form words a function may hold all the same: a proof step cites
# `gen(..)`, a theory body ends in `with catchall`, a lemma call looks
# ahead for its `in` clause, and a rule's undeclared key is of kind `term`
_ALLOWED = {"proof_step": {"gen"}, "theory_body": {"with"},
            "_theory_body_text": {"with"}, "lemma_call": {"in"},
            "_lemma_text": {"in"}, "_rule_kind": {"term"}}


def _reached(tree: ast.Module, roots: set[str]) -> list[ast.FunctionDef]:
    """The module's functions, and the methods of its classes, that
    `roots` name directly or through the module-level names they use."""
    defs = {}
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            defs[n.name] = n
        elif isinstance(n, (ast.Assign, ast.AnnAssign)):
            for target in getattr(n, "targets", [getattr(n, "target", None)]):
                if isinstance(target, ast.Name):
                    defs[target.id] = n
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        todo += [c.id for c in ast.walk(defs[name]) if isinstance(c, ast.Name)]
    return [f for name in seen for f in ast.walk(defs[name])
            if isinstance(f, ast.FunctionDef)]


def _written_words(f: ast.FunctionDef) -> set[str]:
    """The words of the strings `f` holds, leaving out its docstring and
    the messages it raises."""
    skip = set()
    if f.body and isinstance(f.body[0], ast.Expr):
        skip.add(id(f.body[0].value))
    for r in ast.walk(f):
        if isinstance(r, ast.Raise):
            skip |= {id(c) for c in ast.walk(r)}
    return {w for c in ast.walk(f) if isinstance(c, ast.Constant)
            and isinstance(c.value, str) and id(c) not in skip
            for w in re.findall(r"[A-Za-z_][\w-]*", c.value)}


def test_only_the_grammar_table_spells_the_forms():
    """No parser method and no printer function writes a word of a
    declaration or command form: they read it from the table."""
    tree = ast.parse(Path(dsl.__file__).read_text(encoding="utf-8"))
    funcs = _reached(tree, {"_Parser", "print_script", "derivation_to_proof"})
    names = {f.name for f in funcs}
    assert {"decl", "proof_step", "_decl_text", "_step_text",
            "_lemma_text"} <= names
    for f in funcs:
        allowed = _ALLOWED.get(f.name, set())
        assert not _written_words(f) & _FORM_WORDS - allowed, f.name


# how README writes each field kind: a placeholder or an example
_README_FIELDS = {
    "fresh": r"\w+", "name": r"\w+", "theory": r"\w+", "suite": r"[\w-]+",
    "type": r"\S+", "int": r"\w+", "term": r"[^\n]+?", "equation": r"[^\n]+?",
    "sizes": r"\([^\n]+?\)", "int tuple": r"\([^\n]+?\)",
    "int list": r"\[[^\n]+?\]", "input": r"\S+", "steps": r"\{[^\n]+?\}",
    "lemma call": r"[\w-]+(\([^\n]*?\))? in \w+",
    "theory body": r"(dual\(\w+\)|[\w-]+\([^\n]+?\)( with catchall)?)",
}


def _form_usage(form, word: str, clauses: bool) -> str:
    """A pattern for how README writes `form` opening with `word`, its
    trailing clause bracketed or not, and required when `clauses`."""
    out = []
    for optional, _, text, f in form.steps:
        piece = re.escape(word) if f and f.kind == "word" else ""
        if f and f.kind != "word":
            piece = _README_FIELDS[f.kind]
        if text is not None:
            piece = re.escape(text) + (" +" + piece if piece else "")
        if optional:
            piece = rf"(?: +\[?{piece}\]?)" + ("" if clauses else "?")
            out[-1] += piece
        else:
            out.append(piece)
    return " +".join(out)


def test_readme_writes_every_form_as_the_parser_reads_it():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme[readme.index("## Script language"):
                   readme.index("Term syntax:")]
    for form in dsl._GRAMMAR:
        assert re.search(_form_usage(form, form.words[0], True), block), \
            form.words
        for word in form.words:
            assert re.search(_form_usage(form, word, False), block), word
