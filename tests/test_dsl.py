"""The script front end: lexing, parsing, execution, reports, the CLI."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as strat
from decorlogic import dsl, errors as E
from decorlogic.cli import main
from decorlogic.dsl import (EquationDecl, ExecConfig, Script, SrcPos,
                            TermDecl, build_proof, derivation_json,
                            derivation_to_proof, emit_report, execute,
                            parse_script, print_script, report_json, _lex,
                            _tree_text)
from decorlogic.exceptions import CATALOGUE as EXC_CATALOGUE
from decorlogic.exceptions import build_exceptions_theory
from decorlogic.exceptions import derive_lemma as exc_lemma
from decorlogic.kernel import (RULES, ProveResult, axiom_node,
                               check_derivation, node, saturate_prove)
from decorlogic.models import FiniteStateModel, check_equation
from decorlogic.states import CATALOGUE as STATE_CATALOGUE
from decorlogic.states import build_states_theory
from decorlogic.states import builtin_proof as st_proof, derive_lemma as st_lemma
from decorlogic.terms import (Comp, Lookup, Update, normalize_assoc,
                              term_size, term_to_text)
from decorlogic.theory import STRONG, Equation, typecheck
from decorlogic.types import Prod, UNIT, Value


SRC = """\
theory S = states(x: 3, y: 2)
theory D = dual(S)
theory Ex = exceptions(i: 2, j: 2)
theory C = exceptions(k: 2) with catchall

pure gen bump : V[x] -> V[x] in S = [1, 2, 0]
term roundtrip in S = l[x] . u[x]
equation law in S : l[y] . u[x] ~~ l[y] . unit[V[x]]
model small for S (x: 2, y: 2)

proof p in S {
  s1: axiom(A1_x);
  s2: w-sym from s1;
}

check proof p in S
verify states-seven in S
lemma annihilation(x) in S
eval in S : l[x] on 0 state (2, 0)
eval in Ex : c[i] . t[i] on 1
eval in Ex : t[j] on throw(i: 0)
prove in S : l[y] . (u[x] . l[x]) ~~ l[y] budget 4
erase S
expand S
dualize Ex
"""


# ----------------------------------------------------------------- lexing


def _tokens(text):
    return _lex(text)[0]


def test_lexer_keeps_dashed_rule_names_whole():
    toks = _tokens("s1: 0-comp from s2  # trailing comment\n")
    texts = [t.text for t in toks if t.kind != "eof"]
    assert texts == ["s1", ":", "0-comp", "from", "s2"]
    kinds = [t.kind for t in toks if t.kind != "eof"]
    assert kinds == ["ident", "sym", "ident", "ident", "ident"]


def test_lexer_splits_two_char_symbols():
    toks = _tokens("a == b ~~ c => d -> e = f")
    syms = [t.text for t in toks if t.kind == "sym"]
    assert syms == ["==", "~~", "=>", "->", "="]


def test_lexer_rejects_stray_characters():
    with pytest.raises(E.LexError) as err:
        _lex("theory S ?= states(x: 2)")
    assert (err.value.line, err.value.col) == (1, 10)


def _positions(text):
    p = dsl._Parser(text)
    return [(t.text, *p.where(i)) for i, t in enumerate(p.toks)]


def test_lexer_positions_count_tabs_as_one_column():
    assert _positions("\ta\t=\tb \t\n\t \n c\t") == [
        ("a", 1, 2), ("=", 1, 4), ("b", 1, 6), ("c", 3, 2), ("", 4, 1)]


def test_lexer_positions_skip_comments():
    assert _positions("a # b ? c\n  # only a comment\n  d") == [
        ("a", 1, 1), ("d", 3, 3), ("", 4, 1)]


def test_lexer_positions_follow_splitlines():
    # \r\n is one break; \x0c, \x0b, \x1c and \u2028 break lines too
    assert _positions("a\r\n b\r\n") == [("a", 1, 1), ("b", 2, 2), ("", 3, 1)]
    assert _positions("a\x0cb\x0b c\x1cd\u2028  e") == [
        ("a", 1, 1), ("b", 2, 1), ("c", 3, 2), ("d", 4, 1), ("e", 5, 3),
        ("", 6, 1)]


def test_lexer_eof_token_sits_after_the_last_line():
    assert _positions("") == [("", 1, 1)]
    assert _positions("a\nb") == _positions("a\nb\n") == [
        ("a", 1, 1), ("b", 2, 1), ("", 3, 1)]
    assert _positions("a\n\n\n")[-1] == ("", 4, 1)
    assert _tokens("a\n")[-1].kind == "eof"


def test_lexer_reports_a_stray_character_on_a_later_line():
    src = "theory S = states(x: 2)\n\n  term q in S = l[x] @ u[x]\n"
    with pytest.raises(E.LexError) as err:
        _lex(src)
    assert (err.value.line, err.value.col) == (3, 22)
    assert str(err.value) == "line 3:22: stray character '@'"


def test_lexer_keeps_digit_led_rule_names_apart_from_ints():
    toks = _tokens("1-to-2 0-comp 1 0 12 1->0 3-x")
    assert [(t.kind, t.text) for t in toks[:-1]] == [
        ("ident", "1-to-2"), ("ident", "0-comp"), ("int", "1"), ("int", "0"),
        ("int", "12"), ("int", "1"), ("sym", "->"), ("int", "0"),
        ("ident", "3-x")]


# the lexer as it was written token by token, the reference for the one
# that lexes a line with one findall
_REFERENCE_RE = re.compile(r"""
    (?P<skip>[ \t]+|\#.*)
  | (?P<sym2>==|~~|=>|->)
  | (?P<numident>[0-9]+-[A-Za-z][A-Za-z0-9_-]*)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*)
  | (?P<sym>[=:;,.(){}\[\]*+|])
  | (?P<stray>.)
""", re.VERBOSE | re.DOTALL)
_REFERENCE_KIND = {"sym2": "sym", "numident": "ident", "int": "int",
                   "ident": "ident", "sym": "sym"}


def _reference_lex(text):
    """[(kind, text, line, col)], ending in eof, or a LexError."""
    out = []
    lines = text.splitlines()
    for ln, line in enumerate(lines, start=1):
        for m in _REFERENCE_RE.finditer(line):
            group = m.lastgroup
            if group == "stray":
                raise E.LexError(f"stray character {m.group()!r}", ln,
                                 m.start() + 1)
            if group != "skip":
                out.append((_REFERENCE_KIND[group], m.group(), ln,
                            m.start() + 1))
    return out + [("eof", "", len(lines) + 1, 1)]


# the token alphabet, blanks, comments, every line break splitlines knows,
# and stray characters
_PIECES = st.sampled_from([
    "a", "x1", "_", "foo_bar", "foo-bar", "a-", "0-comp", "1-to-2", "3-x",
    "0", "12", "V", "==", "~~", "=>", "->", *"=:;,.(){}[]*+|", "-", "~",
    " ", "\t", "  ", "# c ? @", "#",
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029",
    "?", "@", "$", "!", "\u00e9", "\u00b2", "\x00",
])


@given(st.lists(_PIECES, max_size=40).map("".join))
@example("a ? b\n@ c ?")
@example("ok\r\n  x @ y # ?\x85 $ ! @")
def test_lexer_matches_the_per_token_reference(text):
    try:
        want = _reference_lex(text)
    except E.LexError as exc:
        with pytest.raises(E.LexError) as err:
            _lex(text)
        assert str(err.value) == str(exc)
        assert (err.value.line, err.value.col) == (exc.line, exc.col)
        return
    p = dsl._Parser(text)
    assert [(t.kind, t.text, *p.where(i))
            for i, t in enumerate(p.toks)] == want


# ---------------------------------------------------------------- parsing


def test_parse_print_round_trip():
    script = parse_script(SRC)
    again = parse_script(print_script(script))
    assert again == script


# ------------------------------------------------------- the grammar table


def test_every_kind_of_the_table_is_used():
    """The kinds the forms, the rule instantiations and the lemma
    arguments are read as are the table's, so the generator below, which
    draws a text for each, draws every one."""
    used = {f.kind for form in dsl._GRAMMAR for *_, f in form.steps if f}
    used |= {spec.key_kind(k) for spec in RULES.values() for k in spec.keys}
    used |= {kind for entry in dsl._LEMMAS.values()
             for _, kind in entry.params}
    assert used == set(dsl._KINDS)
    # and no word picks two forms
    assert len(dsl._FORMS) == sum(len(f.words) for f in dsl._GRAMMAR)


@pytest.mark.parametrize("clauses", [True, False], ids=["clauses", "bare"])
@pytest.mark.parametrize("form", dsl._GRAMMAR, ids=lambda f: f.words[0])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_form_prints_back_as_written(form, clauses, data):
    text = strat.SCRIPT_HEAD + data.draw(strat.form_texts(form, clauses))
    assert print_script(parse_script(text + "\n")) == text + "\n"


@pytest.mark.parametrize("name", ["bank_account", "retry"])
def test_the_docs_scripts_parse_back_from_print(name):
    docs = Path(__file__).resolve().parent.parent / "docs"
    script = parse_script((docs / f"{name}.dec").read_text(encoding="utf-8"))
    assert parse_script(print_script(script)) == script


def test_parse_errors_carry_positions():
    with pytest.raises(E.ParseError) as err:
        parse_script("theory S = states(x: )\n")
    assert (err.value.line, err.value.col) == (1, 22)
    assert "line 1:22" in str(err.value)


# the message and position of each malformed form after `term q in S = `
@pytest.mark.parametrize("form, message, col", [
    ("l(x)", "unknown term or generator 'l'", 16),
    ("l[]", "expected 'ident', found ']'", 17),
    ("p1[V[x]]", "expected ',', found ']'", 22),
    ("foo[x]", "'foo' does not take [..] arguments", 18),
    ("lsemi(l[x])", "expected ',', found ')'", 25),
    ("tuple(l[x])", "expected ':', found '['", 22),
    ("catchall[x]", "'catchall' does not take [..] arguments", 23),
    ("coerce()", "expected a term, found ')'", 22),
])
def test_malformed_keyword_forms_keep_their_messages(form, message, col):
    with pytest.raises(E.ParseError) as err:
        parse_script(f"theory S = states(x: 2)\nterm q in S = {form}\n")
    assert str(err.value) == f"line 2:{col}: {message}"
    assert (err.value.line, err.value.col) == (2, col)


# a malformed variant of every declaration and command form, on line 3
# after two theories, with the message and position each one gets
_HEAD = ("theory S = states(x: 2, y: 2)\n"
         "theory E = exceptions(i: 2, j: 2)\n")


@pytest.mark.parametrize("line, message", [
    ('thoery T = states(x: 2)',
     "line 3:1: expected a declaration or command, found 'thoery'"),
    ('3',
     "line 3:1: expected a declaration or command, found '3'"),
    ('theory T states(x: 2)',
     "line 3:10: expected '=', found 'states'"),
    ('theory T = stats(x: 2)',
     "line 3:12: unknown theory kind 'stats'"),
    ('theory T = dual(Q)',
     "line 3:17: unknown theory 'Q'"),
    ('theory T = states(x: 2) with catchall',
     'line 4:1: only exceptions theories take catchall'),
    ('theory T = exceptions(i: 2) with all',
     "line 3:34: expected 'catchall', found 'all'"),
    ('theory T = dual(S) with catchall',
     "line 3:20: expected a declaration or command, found 'with'"),
    ('theory T = states(x 2)',
     "line 3:21: expected ':', found '2'"),
    ('theory S = states(x: 2)',
     "line 3:8: 'S' is already declared"),
    ('theory in = states(x: 2)',
     "line 3:8: 'in' is reserved"),
    ('theory T = states x: 2',
     "line 3:19: expected '(', found 'x'"),
    ('pure g : V[x] -> V[x] in S',
     "line 3:6: expected 'gen', found 'g'"),
    ('pure gen g V[x] -> V[x] in S',
     "line 3:12: expected ':', found 'V'"),
    ('pure gen g : V[x] V[x] in S',
     "line 3:19: expected '->', found 'V'"),
    ('pure gen g : V[x] -> V[x] on S',
     "line 3:27: expected 'in', found 'on'"),
    ('pure gen g : V[x] -> V[x] in Q',
     "line 3:30: unknown theory 'Q'"),
    ('pure gen g : V[x] -> V[x] in S = (1, 0)',
     "line 3:34: expected '[', found '('"),
    ('pure gen g : V[x] -> V[x] in S = [1, x]',
     "line 3:38: expected 'int', found 'x'"),
    ('pure gen g : -> V[x] in S',
     "line 3:14: expected a type, found '->'"),
    ('term q S = l[x]',
     "line 3:8: expected 'in', found 'S'"),
    ('term q in S l[x]',
     "line 3:13: expected '=', found 'l'"),
    ('term q in Q = l[x]',
     "line 3:11: unknown theory 'Q'"),
    ('equation e in S l[x] == l[x]',
     "line 3:17: expected ':', found 'l'"),
    ('equation e in S : l[x] = l[x]',
     'line 3:26: expected == or ~~'),
    ('equation e in S : l[x]',
     "line 4:1: expected 'sym', found 'end of input'"),
    ('model m in S (x: 2)',
     "line 3:9: expected 'for', found 'in'"),
    ('model m for S x: 2',
     "line 3:15: expected '(', found 'x'"),
    ('model m for S (x: two)',
     "line 3:19: expected 'int', found 'two'"),
    ('proof p in S { }',
     'line 4:1: empty proof block'),
    ('proof p in S s1: axiom(A1_x); }',
     "line 3:14: expected '{', found 's1'"),
    ('proof p in S {\n  s1: axiom(A1_x);\n  s1: w-sym from s1;\n}',
     "line 6:1: duplicate step label 's1'"),
    ('proof p in S {\n  s1: w-sym from s0;\n}',
     "line 5:1: step 's1' uses undefined label 's0'"),
    ('proof p in S { s1: no-such-rule; }',
     "line 3:20: unknown rule 'no-such-rule'"),
    ('proof p in S { s1: axiom A1_x; }',
     "line 3:26: expected '(', found 'A1_x'"),
    ('proof p in S { s1: hyp(h) holds l[x] = l[x]; }',
     'line 3:40: expected == or ~~'),
    ('proof p in S { s1: hyp(h) wf l[x] lvl 1; }',
     "line 3:35: expected 'level', found 'lvl'"),
    ('proof p in S { s1: hyp(h) wf l[x] level 3; }',
     'line 3:41: level 3 is not 0, 1 or 2'),
    ('proof p in S { s1: hyp(h) l[x]; }',
     "line 3:27: expected 'wf', found 'l'"),
    ('proof p in S {\n  s1: axiom(A1_y);\n  s2: axiom(A1_x) from s1;\n}',
     "line 5:19: expected ';', found 'from'"),
    ('proof p in S { s1: hyp(h) wf l[x] level 1 from s1; }',
     "line 3:43: expected ';', found 'from'"),
    ('proof p in S { s1: axiom(A1_x) }',
     "line 3:32: expected ';', found '}'"),
    ('proof p in S { s1: w-refl(f l[x]); }',
     "line 3:29: expected '=', found 'l'"),
    ('proof p in S { s1: axiom(A1_x);',
     "line 4:1: expected 'ident', found 'end of input'"),
    ('check p in S',
     "line 3:7: expected 'proof', found 'p'"),
    ('check proof p on S',
     "line 3:15: expected 'in', found 'on'"),
    ('check proof p in Q',
     "line 3:18: unknown theory 'Q'"),
    ('verify laws in S',
     "line 3:13: unknown suite 'laws'; one of states-seven, "
     'exceptions-laws, nesting-matrix, duality-semantic'),
    ('verify states-seven S',
     "line 3:21: expected 'in', found 'S'"),
    ('verify states-seven in S with',
     "line 4:1: expected 'ident', found 'end of input'"),
    ('lemma nope in S',
     "line 3:7: unknown lemma 'nope'; one of annihilation, catch-throw, "
     'commutation-6, final-uniqueness, handler-commute, '
     'handler-idempotent, initial-uniqueness, interaction-3, '
     'key-annihilation'),
    ('lemma annihilation(x, y) in S',
     'line 3:23: annihilation takes at most 1 arguments'),
    ('lemma commutation-6(x) in S',
     'line 3:24: commutation-6 needs 2 argument(s)'),
    ('lemma annihilation(x in S',
     'line 4:1: unterminated lemma arguments'),
    ('lemma annihilation(x) S',
     "line 3:23: expected 'in', found 'S'"),
    ('lemma annihilation(x) in Q',
     "line 3:26: unknown theory 'Q'"),
    ('eval in S l[x] on 0',
     "line 3:11: expected ':', found 'l'"),
    ('eval in S : l[x] 0',
     "line 3:18: expected 'on', found '0'"),
    ('eval in S : l[x] on x',
     'line 3:21: expected an input: INT or throw(i: INT)'),
    ('eval in E : t[i] on throw(i 0)',
     "line 3:29: expected ':', found '0'"),
    ('eval in S : l[x] on 0 state 1',
     "line 3:29: expected '(', found '1'"),
    ('eval in S : l[x] on (x: y)',
     'line 3:21: expected an input: INT or throw(i: INT)'),
    ('eval in S : id[V[x]] on (q: 3)',
     'line 3:25: expected an input: INT or throw(i: INT)'),
    ('eval S : l[x] on 0',
     "line 3:6: expected 'in', found 'S'"),
    ('prove in S : l[x] ~~ l[x] budget x',
     "line 3:34: expected 'int', found 'x'"),
    ('prove in S l[x] ~~ l[x]',
     "line 3:12: expected ':', found 'l'"),
    ('prove in S : l[x] -> l[x]',
     'line 3:22: expected == or ~~'),
    ('erase Q',
     "line 3:7: unknown theory 'Q'"),
    ('dualize',
     "line 4:1: expected 'ident', found 'end of input'"),
    ('expand 3',
     "line 3:8: expected 'ident', found '3'"),
])
def test_malformed_forms_keep_their_messages(line, message):
    with pytest.raises(E.ParseError) as err:
        parse_script(_HEAD + line + "\n")
    assert str(err.value) == message
    where = re.match(r"line (\d+):(\d+): ", message)
    assert (err.value.line, err.value.col) == tuple(map(int, where.groups()))


# the parent's reserved words: every keyword of the grammar, and no more
_RESERVED_WORDS = {
    "P", "V", "accessor", "axiom", "budget", "c", "case", "cases", "catch",
    "catchall", "catcher", "check", "coerce", "cotuple", "dual", "dualize",
    "empty", "equation", "erase", "eval", "exceptions", "expand", "for",
    "from", "gen", "handle", "holds", "hyp", "id", "in", "in1", "in2", "l",
    "lemma", "level", "lsemi", "lsum", "model", "modifier", "on", "p1", "p2",
    "proof", "propagator", "prove", "pure", "raise", "rsemi", "rsum",
    "state", "states", "t", "term", "theory", "throw", "try", "tuple", "u",
    "unit", "verify", "wf", "with"}


def test_the_reserved_words_are_the_grammar_keywords():
    assert dsl._RESERVED == _RESERVED_WORDS
    assert len(_RESERVED_WORDS) == 62
    # a theory kind other than states and exceptions is not a keyword
    script = parse_script("theory plain-states = plain-states(x: 2)\n"
                          "term plain-exceptions in plain-states = l[x]\n")
    assert [d.name for d in script.decls] == ["plain-states",
                                              "plain-exceptions"]


def test_reserved_names_are_refused():
    # 't' is the throw constructor, not a declarable name
    with pytest.raises(E.ParseError) as err:
        parse_script("theory S = states(x: 2)\nterm t in S = l[x]\n")
    assert "reserved" in str(err.value)


def test_duplicate_names_are_refused():
    with pytest.raises(E.ParseError) as err:
        parse_script("theory A = states(x: 2)\ntheory A = states(y: 2)\n")
    assert "already declared" in str(err.value)


def test_unknown_theory_reference_fails_at_parse_time():
    with pytest.raises(E.ParseError) as err:
        parse_script("term q in Nope = id[1]\n")
    assert "unknown theory" in str(err.value)


def test_handler_sugar_desugars_and_runs():
    src = ("theory Ex = exceptions(i: 2, j: 2)\n"
           "pure gen flip : P[i] -> P[i] in Ex = [1, 0]\n"
           "term guarded in Ex = handle(raise(i), i => flip)\n"
           "eval in Ex : guarded on 1\n")
    report = execute(parse_script(src))
    assert report.ok
    detail = report.outcomes[0].detail
    assert detail["result"] == ["val", 0]


# -------------------------------------------------------------- execution


def test_a_table_declared_between_two_evals_is_seen_by_the_second():
    # the first eval builds the theory's model; the declaration after it
    # must not leave the second eval on that model
    src = ("theory S = states(x: 3)\n"
           "eval in S : l[x] on 0 state (1)\n"
           "pure gen step : V[x] -> V[x] in S = [1, 2, 0]\n"
           "eval in S : step . l[x] on 0 state (1)\n")
    report = execute(parse_script(src))
    assert report.ok
    assert [o.detail["result"] for o in report.outcomes] == [1, 2]


def test_execute_runs_commands_in_order():
    report = execute(parse_script(SRC))
    assert report.ok
    assert [o.kind for o in report.outcomes] == [
        "check", "verify", "lemma", "eval", "eval", "eval",
        "prove", "erase", "expand", "dualize"]


def test_eval_details_are_frozen():
    report = execute(parse_script(SRC))
    ev = [o for o in report.outcomes if o.kind == "eval"]
    assert ev[0].detail["result"] == 2          # l[x] over state (2, 0)
    assert ev[0].detail["result_state"] == [2, 0]
    assert ev[1].detail["result"] == ["val", 1]  # c[i].t[i] restores 1
    assert ev[2].detail["result"] == ["exc", ["i", 0]]  # t[j] propagates


def test_mode_filter_selects_matching_commands():
    script = parse_script(SRC)
    picks = {
        "check": ["check", "prove"],
        "verify": ["verify", "lemma"],
        "eval": ["eval", "eval", "eval"],
        "erase": ["erase"],
        "expand": ["expand"],
        "dualize": ["dualize"],
    }
    for mode, kinds in picks.items():
        report = execute(script, ExecConfig(mode=mode))
        assert [o.kind for o in report.outcomes] == kinds, mode


@pytest.mark.parametrize("mode", ["bogus", "", "lemma"])
def test_a_mode_no_command_runs_in_is_refused(mode):
    script = parse_script("theory S = states(x: 2)\n"
                          "verify states-seven in S\nerase S\n")
    with pytest.raises(ValueError, match=f"unknown mode {mode!r}"):
        execute(script, ExecConfig(mode=mode))


def test_model_overrides_resize_known_indices():
    script = parse_script("theory S = states(x: 2, y: 2)\n"
                          "verify states-seven in S\n")
    report = execute(script, ExecConfig(model_overrides={"x": 3, "zz": 9}))
    sizes = report.outcomes[0].detail["model"]["sizes"]
    assert sizes == {"x": 3, "y": 2}


def test_named_model_wins_over_theory_sizes():
    script = parse_script("theory S = states(x: 3, y: 3)\n"
                          "model tiny for S (x: 2, y: 2)\n"
                          "verify states-seven in S with tiny\n")
    report = execute(script)
    assert report.outcomes[0].detail["model"]["sizes"] == {"x": 2, "y": 2}


def test_failing_commands_are_recorded_not_raised():
    src = ("theory S = states(x: 2, y: 2)\n"
           "proof bad in S {\n"
           "  s1: axiom(A1_x);\n"
           "  s2: w-to-s from s1;\n"
           "}\n"
           "check proof bad in S\n"
           "prove in S : l[x] . u[x] == id[V[x]]\n")
    report = execute(parse_script(src))
    assert not report.ok
    check, prove = report.outcomes
    assert not check.ok and "error" in check.detail
    assert not prove.ok and prove.detail["status"] == "refuted"
    assert prove.detail["witness"]


def test_prove_fails_when_the_kernel_rejects_the_tree(monkeypatch):
    def forged(th, goal, **kwargs):
        # a w-sym node claiming its premise unchanged
        a1 = axiom_node(th, "A1_x")
        d = dataclasses.replace(node(th, "w-sym", [a1]),
                                conclusion=a1.conclusion)
        return ProveResult("proven", d, "forged", 1, 1)

    monkeypatch.setattr(dsl, "saturate_prove", forged)
    report = execute(parse_script("theory S = states(x: 2, y: 2)\n"
                                  "prove in S : l[x] . u[x] ~~ id[V[x]]\n"))
    (prove,) = report.outcomes
    assert prove.detail["status"] == "proven"
    assert not prove.ok and "claims" in prove.detail["error"]


def test_fail_fast_stops_at_the_first_failure():
    src = ("theory S = states(x: 2, y: 2)\n"
           "prove in S : l[x] . u[x] == id[V[x]]\n"
           "verify states-seven in S\n")
    report = execute(parse_script(src), ExecConfig(fail_fast=True))
    assert len(report.outcomes) == 1
    report = execute(parse_script(src))
    assert len(report.outcomes) == 2


def test_script_problems_raise_instead_of_reporting():
    # an out-of-range input is a broken script, not a failed command
    src = ("theory S = states(x: 2, y: 2)\n"
           "eval in S : l[x] on 7\n")
    with pytest.raises(E.ExecError):
        execute(parse_script(src))
    with pytest.raises(E.ExecError):
        execute(parse_script("theory S = states(x: 2, y: 2)\n"
                             "eval in S : l[x] on 0 state (1)\n"))
    # an unknown proof name could still be a built-in, so it only fails
    report = execute(parse_script("theory S = states(x: 2, y: 2)\n"
                                  "check proof missing in S\n"))
    assert not report.ok
    assert "missing" in report.outcomes[0].detail["error"]


_ACCT = ("theory Acct = states(a: 12)\n"
         "pure gen add7 : V[a] -> V[a] in Acct = "
         "[7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 6]\n")
_EXC = "theory E = exceptions(i: 2, j: 3)\n"


@pytest.mark.parametrize("src, message", [
    (_ACCT + "eval in Acct : l[a] on 0 state (99)\n",
     "line 3:1: state entry 99 is out of range for V[a] (12 elements)"),
    (_ACCT + "eval in Acct : add7 . l[a] on 0 state (99)\n",
     "line 3:1: state entry 99 is out of range for V[a] (12 elements)"),
    (_EXC + "eval in E : c[i] on throw(i: 7)\n",
     "line 2:1: input 7 is out of range for P[i] (2 elements)"),
    (_EXC + "eval in E : c[i] on throw(zz: 1)\n",
     "line 2:1: unknown exception name 'zz'"),
], ids=["state", "state-into-gen", "throw-arg", "throw-name"])
def test_eval_checks_every_value_it_is_handed(tmp_path, capfd, src, message):
    assert main(["eval", _write(tmp_path, src)]) == 2
    assert capfd.readouterr().err == f"error: {message}\n"


_BAD_F = ("theory S = states(x: 3)\n"
          "pure gen f : V[x] -> V[x] in S = [5, 1, 2]\n")


@pytest.mark.parametrize("src, message", [
    (_BAD_F + "eval in S : f . f . l[x] on 0 state (0)\n",
     "table for 'f' has outputs outside V[x]"),
    (_BAD_F + "eval in S : f . l[x] on 0 state (0)\n",
     "table for 'f' has outputs outside V[x]"),
    ("theory S = states(x: 3)\n"
     "pure gen g : V[x] -> V[x] * V[x] in S = [0, 1, 2]\n"
     "eval in S : p1[V[x], V[x]] . g . l[x] on 0 state (0)\n",
     "table for 'g' has outputs outside (V[x] * V[x])"),
], ids=["twice", "once", "pair"])
def test_a_table_outside_its_codomain_fails_the_command(src, message):
    (out,) = execute(parse_script(src)).outcomes
    assert not out.ok and out.detail == {"error": message}


def test_a_table_outside_its_codomain_leaves_prove_to_the_search():
    (out,) = execute(parse_script(
        _BAD_F + "prove in S : f . f . l[x] ~~ l[x] budget 1\n")).outcomes
    assert out.detail["status"] == "unknown"
    assert out.detail["reason"] == "budget of 1 rounds exhausted"


# a `gen` declaration replaces its theory, so the term is checked again
@pytest.mark.parametrize("between, checks", [
    ("", 1), ("pure gen g : V[x] -> V[x] in S = [1, 0]\n", 2)])
def test_a_declared_term_is_typechecked_once_per_theory(monkeypatch, between,
                                                        checks):
    calls = []
    real = dsl.typecheck

    def counting(th, t):
        calls.append(t)
        return real(th, t)

    monkeypatch.setattr(dsl, "typecheck", counting)
    script = parse_script("theory S = states(x: 2)\n"
                          "term w in S = l[x] . u[x]\n" + between
                          + "eval in S : w on 0\n")
    assert execute(script, ExecConfig(mode="eval")).ok
    w = script.decls[1].term
    assert sum(t is w for t in calls) == checks


def test_ill_typed_eval_terms_keep_their_errors(tmp_path, capfd):
    path = tmp_path / "bad.dec"
    path.write_text("theory S = states(x: 2)\n"
                    "term w in S = l[x] . l[x]\n"
                    "eval in S : w on 0\n", encoding="utf-8")
    assert main(["eval", str(path)]) == 2
    assert capfd.readouterr().err == (
        "error: line 2:1: cannot compose: l[x] ends at V[x], "
        "l[x] starts at 1\n")
    # inline, the eval is a failed command, and the next one is checked
    # again
    report = execute(parse_script("theory S = states(x: 2)\n"
                                  "eval in S : l[x] . l[x] on 0\n"
                                  "eval in S : l[x] . l[x] on 0\n"))
    assert [o.detail for o in report.outcomes] == 2 * [
        {"error": "cannot compose: l[x] ends at V[x], l[x] starts at 1"}]


def test_declaration_errors_carry_one_position():
    # a Script built in code can name a theory the parser would refuse
    for decl in (TermDecl("q", "Nope", Lookup("x"), SrcPos(3, 1)),
                 EquationDecl("e", "Nope", Equation(Lookup("x"), Lookup("x"),
                                                    STRONG), SrcPos(3, 1))):
        with pytest.raises(E.ExecError) as err:
            execute(Script((decl,)))
        assert str(err.value) == "line 3:1: unknown theory 'Nope'"


@pytest.mark.parametrize("derive, lemma, params, message", [
    (st_lemma, "final-uniqueness", {"f": "x"},
     "final-uniqueness: 'f' must be a term"),
    (exc_lemma, "initial-uniqueness", {"f": None},
     "initial-uniqueness: 'f' must be a term"),
    (exc_lemma, "catch-throw", {"i": "i", "to": "P"},
     "catch-throw: 'to' must be a type"),
    (exc_lemma, "handler-commute", {"i": "i", "j": "j", "g": "x"},
     "handler-commute: 'g' must be a term"),
], ids=["term", "required-none", "type", "handler-clause"])
def test_library_lemma_parameters_of_the_wrong_kind_are_refused(
        states2, exc2, derive, lemma, params, message):
    theory = states2 if derive is st_lemma else exc2
    with pytest.raises(E.BadInstantiation) as err:
        derive(theory, lemma, params)
    assert str(err.value) == message


def test_library_lemmas_read_none_as_an_optional_parameter_left_out(exc2):
    for params in ({"i": "i", "to": None}, {"i": "i", "f": None}):
        lemma = "catch-throw" if "to" in params else "handler-idempotent"
        assert (exc_lemma(exc2, lemma, params).conclusion
                == exc_lemma(exc2, lemma, {"i": "i"}).conclusion)


def _catalogue_scripts():
    """(entry signature, script) for every lemma and built-in proof: each
    lemma with all its parameters, with only the required ones, and at its
    defaults through `check proof`; each built-in through `check proof`."""
    sides = ((STATE_CATALOGUE, "x", "y", "z", "V"),
             (EXC_CATALOGUE, "i", "j", "k", "P"))
    for cat, *ix, carrier in sides:
        head = (f"theory T = {cat.side.flavor}"
                f"({', '.join(f'{i}: 2' for i in ix)})\n")
        for name, entry in {**cat.lemmas, **cat.builtins}.items():
            sig = f"{name}({', '.join(key for key, _ in entry.params)})"
            yield sig, head + f"check proof {name} in T\n"
            if name in cat.builtins:
                continue
            args = [ix[k] if kind == "name"
                    else f"{carrier}[{ix[k]}]" if kind == "type"
                    else term_to_text(entry.example(ix[0]))
                    for k, (_, kind) in enumerate(entry.params)]
            for n in {len(args), entry.required}:
                yield sig, head + f"lemma {name}({', '.join(args[:n])}) in T\n"


def test_builtin_proofs_are_reachable_by_name():
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    for sig, src in _catalogue_scripts():
        assert sig in readme
        assert print_script(parse_script(src)) == src
        report = execute(parse_script(src))
        assert report.ok, (src, report.outcomes[0].detail)
        assert report.outcomes[0].detail["valid"]
    # the lemma scripts above wrote an argument of every kind
    assert {kind for cat in (STATE_CATALOGUE, EXC_CATALOGUE)
            for e in cat.lemmas.values()
            for _, kind in e.params} == {"name", "term", "type"}


def test_hypotheses_surface_in_check_details():
    src = ("theory S = states(x: 2, y: 2)\n"
           "proof cond in S {\n"
           "  h1: hyp(assume-swap) holds l[y] . (u[x] . l[x]) ~~ l[y];\n"
           "  s1: w-sym from h1;\n"
           "}\n"
           "check proof cond in S\n")
    report = execute(parse_script(src))
    assert report.ok
    assert report.outcomes[0].detail["hypotheses"] == ["assume-swap"]


@pytest.mark.parametrize("second", ["h1", "h2"])
def test_a_hypothesis_is_listed_once(second):
    """Each name once, whether a step cites one hypothesis twice or two
    steps assume under one name."""
    src = ("theory S = states(x: 2)\n"
           "proof p in S {\n"
           "  h1: hyp(h) holds l[x] == l[x];\n"
           "  h2: hyp(h) holds l[x] == l[x];\n"
           f"  s2: eq-trans from h1, {second};\n"
           "}\n"
           "check proof p in S\n")
    report = execute(parse_script(src))
    assert report.ok
    detail = report.outcomes[0].detail
    assert (detail["hypotheses"], detail["nodes"]) == (["h"], 3)


# ---------------------------------------------------------------- reports


def test_json_report_is_stable_and_elapsed_free():
    script = parse_script(SRC)
    first = emit_report(execute(script), "json")
    second = emit_report(execute(script), "json")
    assert first == second
    data = json.loads(first)
    assert data["schema"] == "decor-report/1"
    assert data["ok"] is True
    assert len(data["commands"]) == 10
    assert all(set(c) == {"kind", "target", "ok", "detail"}
               for c in data["commands"])
    assert b"elapsed" not in first


def test_text_report_shows_timing_and_trees():
    report = execute(parse_script(SRC))
    text = emit_report(report, "text").decode()
    assert "ms" in text
    assert text.endswith("all commands succeeded\n")
    # the prove outcome carries its derivation tree
    assert "w-subs" in text or "axiom" in text


def test_report_json_marks_failures():
    src = ("theory S = states(x: 2, y: 2)\n"
           "prove in S : l[x] . u[x] == id[V[x]]\n")
    data = report_json(execute(parse_script(src)))
    assert data["ok"] is False
    assert data["commands"][0]["ok"] is False


# ---------------------------------------- derivations as script fragments


def test_derivation_to_proof_round_trips(states2, exc2):
    cases = [
        (states2, "states(x: 2, y: 2)",
         st_lemma(states2, "annihilation", {"i": "x"})),
        (states2, "states(x: 2, y: 2)", st_proof(states2, "pr5")),
        (exc2, "exceptions(i: 2, j: 2)",
         exc_lemma(exc2, "key-annihilation", {"i": "i"})),
    ]
    for theory, decl, d in cases:
        src = f"theory {theory.name} = {decl}\n" + derivation_to_proof(
            "replayed", theory.name, d)
        script = parse_script(src)
        rebuilt = build_proof(theory, script.decls[1])
        assert rebuilt.conclusion == d.conclusion
        assert check_derivation(theory, rebuilt).valid


def test_a_citation_step_with_premises_is_refused(states2):
    """A citation takes no premises: `build_proof` refuses a step that
    carries some rather than dropping them."""
    steps = (dsl.ProofStep("s1", "axiom", "A1_y"),
             dsl.ProofStep("s2", "axiom", "A1_x", premises=("s1",)))
    with pytest.raises(E.KernelError) as err:
        build_proof(states2, dsl.ProofDecl("p", "S", steps))
    assert str(err.value) == "citation axiom(A1_x) cannot have premises"


_PROOFS = Path(__file__).resolve().parent / "golden" / "catalogue_proofs.json"


def _catalogue_proofs() -> dict[str, str]:
    """The proof block of every lemma (at its `check proof` parameters) and
    every built-in of both catalogues, over two and three indices; a
    built-in the theory has too few indices for gives its error."""
    out = {}
    for cat, build, names in (
            (STATE_CATALOGUE, build_states_theory, "xyz"),
            (EXC_CATALOGUE, build_exceptions_theory, "ijk")):
        for n in (2, 3):
            th = build(f"T{n}", names[:n])
            for lid in cat.lemmas:
                d = cat.derive_lemma(th, lid, cat.default_params(th, lid))
                out[f"{th.flavor}/{n}/{lid}"] = derivation_to_proof(
                    "p", th.name, d)
            for name in cat.builtins:
                try:
                    text = derivation_to_proof(
                        "p", th.name, cat.builtin_proof(th, name))
                except E.DecorError as exc:
                    text = f"{type(exc).__name__}: {exc}"
                out[f"{th.flavor}/{n}/{name}"] = text
    return out


def test_catalogue_proofs_match_the_golden_text():
    """Every packaged proof is built node for node as before."""
    golden = json.loads(_PROOFS.read_text(encoding="utf-8"))
    got = _catalogue_proofs()
    assert sorted(got) == sorted(golden)
    for key, text in got.items():
        assert text == golden[key], key


def test_derivation_json_shape(states2):
    d = st_lemma(states2, "annihilation", {"i": "x"})
    tree = derivation_json(d)
    assert set(tree) == {"rule", "inst", "conclusion", "premises"}
    assert tree["conclusion"] == str(d.conclusion)
    lines = _tree_text(tree, 0)
    assert lines[0].startswith(tree["rule"].split("(")[0][:4] or tree["rule"])
    assert len(lines) == check_derivation(states2, d).nodes


# -------------------------------------------------------------------- CLI


def _write(tmp_path, text):
    path = tmp_path / "script.dec"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_exit_zero_on_success(tmp_path, capfdbinary):
    path = _write(tmp_path, "theory S = states(x: 2, y: 2)\n"
                            "verify states-seven in S\n")
    assert main(["verify", path]) == 0
    out = capfdbinary.readouterr().out.decode()
    assert "all commands succeeded" in out


def test_cli_exit_one_on_failing_command(tmp_path):
    path = _write(tmp_path, "theory S = states(x: 2, y: 2)\n"
                            "prove in S : l[x] . u[x] == id[V[x]]\n")
    assert main(["check", path]) == 1


def test_cli_exit_two_on_broken_scripts(tmp_path, capfdbinary):
    path = _write(tmp_path, "theory S = states(x: )\n")
    assert main(["check", path]) == 2
    assert main(["check", str(tmp_path / "absent.dec")]) == 2
    err = capfdbinary.readouterr().err.decode()
    assert "error:" in err


def test_cli_json_format_and_model_override(tmp_path, capfdbinary):
    path = _write(tmp_path, "theory S = states(x: 2, y: 2)\n"
                            "verify states-seven in S\n")
    assert main(["verify", path, "--format", "json", "--model", "x=3"]) == 0
    data = json.loads(capfdbinary.readouterr().out)
    assert data["schema"] == "decor-report/1"
    assert data["commands"][0]["detail"]["model"]["sizes"] == {"x": 3,
                                                               "y": 2}


def test_cli_rejects_malformed_overrides(tmp_path):
    path = _write(tmp_path, "theory S = states(x: 2, y: 2)\n")
    assert main(["verify", path, "--model", "x=three"]) == 2


def test_cli_mode_filters_commands(tmp_path, capfdbinary):
    path = _write(tmp_path, SRC)
    assert main(["eval", path, "--format", "json"]) == 0
    data = json.loads(capfdbinary.readouterr().out)
    assert [c["kind"] for c in data["commands"]] == ["eval", "eval", "eval"]


# ------------------------------------------------------------- deep terms


def _deep_script(n):
    """n-atom composites on both sides, as the parser nests them (to the
    left), over generators that count up modulo 3."""
    return ("theory S = states(x: 3)\n"
            "pure gen step : V[x] -> V[x] in S = [1, 2, 0]\n"
            f"term climb in S = {' . '.join(['step'] * (n - 1))} . l[x]\n"
            "eval in S : climb on 0 state (1)\n"
            "theory Ex = exceptions(i: 3)\n"
            "pure gen bump : P[i] -> P[i] in Ex = [1, 2, 0]\n"
            f"term rise in Ex = c[i] . t[i] . {' . '.join(['bump'] * (n - 2))}\n"
            "eval in Ex : rise on 1\n")


def test_deep_composites_eval_and_check(tmp_path, capfdbinary):
    n = 3000
    path = _write(tmp_path, _deep_script(n))
    assert main(["eval", path, "--format", "json"]) == 0
    states, exc = json.loads(capfdbinary.readouterr().out)["commands"]
    # l[x] reads 1, then n - 1 steps; the throw is caught again
    assert states["detail"]["result"] == (1 + n - 1) % 3
    assert states["detail"]["result_state"] == [1]
    assert exc["detail"]["result"] == ["val", (1 + n - 2) % 3]
    assert main(["check", path]) == 0


def _deep_composite(n, nesting, first=Update("x")):
    """n atoms alternating u[x] and l[x], `first` the innermost one."""
    t = first
    for k in range(1, n):
        a = Lookup("x") if k % 2 else Update("x")
        t = Comp(t, a) if nesting == "left" else Comp(a, t)
    return t


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_deep_composites_through_the_term_core(states2, nesting):
    n = 5000
    t = _deep_composite(n, nesting)
    assert term_size(t) == 2 * n - 1
    assert typecheck(states2, t) == (t.dom, t.cod)
    norm = normalize_assoc(t)
    assert term_size(norm) == term_size(t) and normalize_assoc(norm) is norm
    text = str(t)
    assert text.count("l[x]") + text.count("u[x]") == n
    assert text.count("(") == n - 2


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_deep_composites_hash_compare_check_and_prove(states2, nesting):
    """Two equal but distinct composites of 1200 factors, past the
    recursion limit when hashed or compared one level per call."""
    t, twin = (_deep_composite(1200, nesting) for _ in range(2))
    assert t is not twin and t == twin and hash(t) == hash(twin)
    assert t != _deep_composite(1200, nesting, first=Update("y"))
    model = FiniteStateModel(states2, {"x": 2, "y": 1})
    assert check_equation(model, Equation(t, twin, STRONG)).holds
    res = saturate_prove(states2, Equation(t, twin, STRONG), model=model)
    assert res.status == "proven"
    assert check_derivation(states2, res.derivation).valid


def test_int_and_name_instantiations_round_trip():
    """The kinds the builtin proofs never use: an int (which=) and a bare
    name (at=), read from the kernel's rule table by parser and printer."""
    src = ("theory S = states(x: 2, y: 2)\n"
           "proof pj in S {\n"
           "  s1: binprod-proj(which=2, left=V[x], right=(V[y] * 1));\n"
           "}\n"
           "proof pt in S {\n"
           "  s1: loc-tuple(family=(x: l[x], y: l[y]), at=y);\n"
           "}\n"
           "check proof pj in S\n"
           "check proof pt in S\n")
    script = parse_script(src)
    assert print_script(script) == src
    assert parse_script(print_script(script)) == script
    assert [dict(d.steps[0].inst) for d in script.decls[1:3]] == [
        {"which": 2, "left": Value("x"), "right": Prod(Value("y"), UNIT)},
        {"family": (("x", Lookup("x")), ("y", Lookup("y"))), "at": "y"}]
    pj, pt = execute(script).outcomes
    assert pj.ok and pt.ok
    assert pj.detail["tree"]["inst"] == {
        "which": "2", "left": "V[x]", "right": "(V[y] * 1)"}
    assert pt.detail["tree"]["inst"] == {
        "at": "y", "family": "(x: l[x], y: l[y])"}
