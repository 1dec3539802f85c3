"""Script front end: a small text language for decorated theories.

A script is a sequence of declarations (theories, generators, terms,
equations, proof blocks, models) and command directives (check, verify,
lemma, eval, prove, erase, expand, dualize). `parse_script` turns text into
a `Script`, `execute` runs the directives against the kernel, the finite
models, and the translators, and `print_script` is the inverse of parsing:
parse(print_script(s)) == s for every constructible Script.

Proof blocks are flat labeled step lists; `build_proof` folds them into a
kernel derivation and `derivation_to_proof` serializes a derivation back
into a block, so proofs travel as text.
"""

from __future__ import annotations

import json
import re
import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Sequence, Union

from . import errors as E
from .exceptions import CATALOGUE as EXC_CATALOGUE
from .exceptions import build_exceptions_theory, handler_chain
from .exceptions import builtin_proof as _exc_builtin
from .exceptions import derive_lemma as _exc_lemma
from .exceptions import with_catch_all
from .kernel import (DEFAULT_BUDGET, Derivation, Holds, Judgment, RULES,
                     WellFormed, check_derivation, cite, node,
                     saturate_prove)
from .models import (FiniteExceptionModel, FiniteStateModel, SUITES,
                     Valuation, eval_exceptions, eval_states,
                     verify_law_suite)
from .states import CATALOGUE as STATE_CATALOGUE
from .states import build_states_theory
from .states import builtin_proof as _states_builtin
from .states import derive_lemma as _states_lemma
from .terms import (BRACKETS, SYNTAX, CaseSum, Coerce, Comp, FromEmpty, Gen,
                    Id, Spelling, Term, Throw, term_to_text)
from .theory import (Equation, STRONG, Theory, WEAK, typecheck,
                     typecheck_equation)
from .translators import (dualize_theory, erase_theory,
                          expand_exceptions_equation, expand_states_equation)
from .types import (Coprod, EMPTY, Named, Param, Prod, TypeExpr, UNIT, Value)

REPORT_SCHEMA = "decor-report/1"

_LEVEL_KEYWORDS = {"pure": 0, "accessor": 1, "modifier": 2,
                   "propagator": 1, "catcher": 2}

# ------------------------------------------------------------------ lexer

class Token:
    """A token's kind and text; one object stands for every occurrence of
    its text in a script, so where a token sits is `_where`'s to find."""

    __slots__ = ("kind", "text")

    def __init__(self, kind: str, text: str):
        self.kind = kind  # 'ident' | 'int' | 'sym' | 'eof'
        self.text = text


# each token kind's pattern, in match order: rule names like 0-comp and
# 1-to-2 start with a digit, so they are tried before plain integers
_TOKEN_KINDS = tuple((kind, re.compile(pattern)) for kind, pattern in (
    ("sym", r"==|~~|=>|->"),
    ("ident", r"[0-9]+-[A-Za-z][A-Za-z0-9_-]*"),
    ("int", r"[0-9]+"),
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*"),
    ("sym", r"[=:;,.(){}\[\]*+|]"),
))
# one pattern over a line: blanks and a `#` comment match with an empty
# group, so `findall` gives the texts of the tokens and of stray characters,
# and `''` for each skip; the same text always lexes as the same kind, the
# first whose pattern matches all of it, or is stray when none does
_TOKEN_RE = re.compile(r"[ \t]+|\#.*|("
                       + "|".join(p.pattern for _, p in _TOKEN_KINDS)
                       + "|.)", re.DOTALL)


def _kind(text: str) -> Optional[str]:
    """A token text's kind, or None for a stray character."""
    for kind, pattern in _TOKEN_KINDS:
        if pattern.fullmatch(text):
            return kind
    return None


def _lex(text: str) -> tuple[list[Token], list[int], list[str]]:
    """The tokens of `text`, ending in an `eof` token, with the line number
    of each, and the lines (as `str.splitlines` cuts them) they came from."""
    lines = text.splitlines()
    texts: list[str] = []
    line_of: list[int] = []
    findall = _TOKEN_RE.findall
    for ln, line in enumerate(lines, start=1):
        found = list(filter(None, findall(line)))
        if found:
            texts += found
            line_of += [ln] * len(found)
    table: dict[str, Token] = {}
    # dict order is first occurrence, so the first stray met is the first
    # one in the text
    for t in dict.fromkeys(texts):
        kind = _kind(t)
        if kind is None:
            raise E.LexError(f"stray character {t!r}",
                             *_where(lines, line_of, texts.index(t)))
        table[t] = Token(kind, t)
    toks = list(map(table.__getitem__, texts))
    toks.append(Token("eof", ""))
    line_of.append(len(lines) + 1)
    return toks, line_of, lines


def _where(lines: Sequence[str], line_of: Sequence[int],
           i: int) -> tuple[int, int]:
    """(line, column) of token i, found by lexing its line again."""
    ln = line_of[i]
    if ln > len(lines):
        return ln, 1  # the eof token
    k = i - bisect_left(line_of, ln)  # how many tokens precede it on its line
    for m in _TOKEN_RE.finditer(lines[ln - 1]):
        if m.group(1):
            if not k:
                return ln, m.start() + 1
            k -= 1


# ------------------------------------------------------------------- AST

@dataclass(frozen=True)
class SrcPos:
    line: int = 0
    col: int = 0


_NOPOS = SrcPos()


@dataclass(frozen=True)
class TheoryDecl:
    name: str
    kind: str  # states | exceptions | plain-states | plain-exceptions | dual
    indices: tuple[tuple[str, int], ...] = ()
    source: Optional[str] = None  # the other theory, for dual
    catch_all: bool = False
    pos: SrcPos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class GenDecl:
    name: str
    theory: str
    level_kw: str
    dom: TypeExpr
    cod: TypeExpr
    table: Optional[tuple[int, ...]] = None
    pos: SrcPos = field(default=_NOPOS, compare=False)

    @property
    def level(self) -> int:
        return _LEVEL_KEYWORDS[self.level_kw]


@dataclass(frozen=True)
class TermDecl:
    name: str
    theory: str
    term: Term
    pos: SrcPos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class EquationDecl:
    name: str
    theory: str
    eq: Equation
    pos: SrcPos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class ModelDecl:
    name: str
    theory: str
    sizes: tuple[tuple[str, int], ...]
    pos: SrcPos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class ProofStep:
    label: str
    kind: str  # 'rule' | 'axiom' | 'gen' | 'hyp'
    name: str  # rule id, or the cited axiom/gen/hypothesis name
    inst: tuple[tuple[str, Any], ...] = ()
    premises: tuple[str, ...] = ()
    claim: Optional[Judgment] = None  # hyp only


@dataclass(frozen=True)
class ProofDecl:
    name: str
    theory: str
    steps: tuple[ProofStep, ...]
    pos: SrcPos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class CheckProofCmd:
    proof: str
    theory: str
    pos: SrcPos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class VerifyCmd:
    suite: str
    theory: str
    model: Optional[str] = None
    pos: SrcPos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class LemmaCmd:
    lemma: str
    args: tuple[Any, ...]  # names, terms, or types, per the lemma signature
    theory: str
    pos: SrcPos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class EvalCmd:
    theory: str
    term: Term
    input_kind: str  # 'val' | 'exc'
    value: Union[int, tuple[str, int]]
    state: Optional[tuple[int, ...]] = None
    pos: SrcPos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class ProveCmd:
    theory: str
    eq: Equation
    budget: Optional[int] = None
    pos: SrcPos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class TranslateCmd:
    op: str  # 'erase' | 'expand' | 'dualize'
    theory: str
    pos: SrcPos = field(default=_NOPOS, compare=False)


Decl = Union[TheoryDecl, GenDecl, TermDecl, EquationDecl, ModelDecl,
             ProofDecl, CheckProofCmd, VerifyCmd, LemmaCmd, EvalCmd,
             ProveCmd, TranslateCmd]

@dataclass(frozen=True)
class Script:
    decls: tuple[Decl, ...]


# ----------------------------------------------------------------- parser

def _retarget_empty(body: Term, y: TypeExpr) -> Term:
    """Point a body ending in empty[..] at the handler's target type.

    `raise(i)` leaves its result type open (the sugar defaults it to P[i]);
    when such a body sits inside a handler, the empty[..] at the head of the
    composite is what fixes the codomain, so rewrite it to y.
    """
    befores = []
    while isinstance(body, Comp):
        befores.append(body.before)
        body = body.after
    if isinstance(body, FromEmpty):
        body = FromEmpty(y)
    for f in reversed(befores):
        body = Comp(body, f)
    return body


_THEORY_KINDS = ("states", "exceptions", "plain-states", "plain-exceptions")

# the lemmas a script may name, from both sides' catalogues
_LEMMAS = {**STATE_CATALOGUE.lemmas, **EXC_CATALOGUE.lemmas}


# how deeply term_expr and type_expr may nest (parentheses, bracketed and
# argument positions, the right operands of * and +); past it a script is
# refused with a ParseError instead of exhausting the Python stack
MAX_NESTING = 100

# how long a chain of premises a proof block may hold; past it a script is
# refused with a ParseError. Replay and the other walks of a derivation are
# flat in depth, but the report's tree is nested dicts, and the JSON
# encoder (and the text report) recurse once per level: json.dumps with
# indent=2 of a 500-deep tree raises RecursionError, and of a 300-deep one
# does not
MAX_PROOF_DEPTH = 100

# how many nodes a proof block's tree may hold, each step counting 1 plus
# its premises' trees; a step that cites one premise twice doubles it, and
# the report writes a shared subtree out at each place that cites it, so
# past it a script is refused with a ParseError instead of growing as
# 2^steps
MAX_PROOF_NODES = 256


class _Parser:
    def __init__(self, text: str):
        self.toks, self.line_of, self.lines = _lex(text)
        self.i = 0
        self.depth = 0  # open term_expr/type_expr calls
        self.theories: dict[str, str] = {}  # name -> kind
        self.theory: Optional[str] = None  # the last one a form referred to
        # declared terms and generators, by (theory, name)
        self.terms: dict[tuple[str, str], Term] = {}
        self.names: set[str] = set()  # all declared names, for collisions

    # ---- token plumbing

    def peek(self) -> Token:
        # next() never moves past the eof sentinel, so i is always in range
        return self.toks[self.i]

    def next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.toks[self.i]
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.toks[self.i]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise self.fail(
                f"expected {want!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def eat(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.toks[self.i]
        if tok.kind == kind and (text is None or tok.text == text):
            self.next()
            return True
        return False

    def where(self, i: int) -> tuple[int, int]:
        """(line, column) of token i."""
        return _where(self.lines, self.line_of, i)

    def pos(self) -> SrcPos:
        return SrcPos(*self.where(self.i))

    def fail(self, msg: str, at: Optional[int] = None) -> E.ParseError:
        """An error at token `at`, by default the next one."""
        return E.ParseError(msg, *self.where(self.i if at is None else at))

    def enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels")

    # ---- names and numbers

    def fresh_name(self) -> str:
        at = self.i
        tok = self.expect("ident")
        if tok.text in _RESERVED:
            raise self.fail(f"{tok.text!r} is reserved", at)
        if tok.text in self.names:
            raise self.fail(f"{tok.text!r} is already declared", at)
        self.names.add(tok.text)
        return tok.text

    def theory_ref(self) -> str:
        at = self.i
        tok = self.expect("ident")
        if tok.text not in self.theories:
            raise self.fail(f"unknown theory {tok.text!r}", at)
        self.theory = tok.text
        return tok.text

    def suite(self) -> str:
        suite = self.expect("ident").text
        if suite not in SUITES:
            raise self.fail(f"unknown suite {suite!r}; "
                            f"one of {', '.join(SUITES)}")
        return suite

    def integer(self) -> int:
        return int(self.expect("int").text)

    def ints(self, brackets: str) -> tuple[int, ...]:
        """One or more integers between `brackets`, comma-separated."""
        self.expect("sym", brackets[0])
        vals = [int(self.expect("int").text)]
        while self.eat("sym", ","):
            vals.append(int(self.expect("int").text))
        self.expect("sym", brackets[1])
        return tuple(vals)

    def pairs(self, read) -> tuple[tuple[str, Any], ...]:
        """`(i: v, ...)`, each v read by `read`."""
        self.expect("sym", "(")
        out = []
        while True:
            idx = self.expect("ident").text
            self.expect("sym", ":")
            out.append((idx, read()))
            if not self.eat("sym", ","):
                break
        self.expect("sym", ")")
        return tuple(out)

    # ---- types

    def type_atom(self) -> TypeExpr:
        tok = self.peek()
        if tok.kind == "int" and tok.text == "1":
            self.next()
            return UNIT
        if tok.kind == "int" and tok.text == "0":
            self.next()
            return EMPTY
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            ty = self.type_expr()
            self.expect("sym", ")")
            return ty
        if tok.kind == "ident":
            self.next()
            if tok.text in ("V", "P") and self.eat("sym", "["):
                idx = self.expect("ident").text
                self.expect("sym", "]")
                return Value(idx) if tok.text == "V" else Param(idx)
            return Named(tok.text)
        raise self.fail(f"expected a type, found {tok.text!r}")

    def type_expr(self) -> TypeExpr:
        try:
            self.enter()
            left = self.type_atom()
            if self.eat("sym", "*"):
                return Prod(left, self.type_expr())
            if self.eat("sym", "+"):
                return Coprod(left, self.type_expr())
            return left
        finally:
            self.depth -= 1

    # ---- terms

    def term_expr(self, theory: str) -> Term:
        try:
            self.enter()
            t = self.term_atom(theory)
            while self.eat("sym", "."):
                # `g . f` runs f first; keep the written association
                t = Comp(t, self.term_atom(theory))
            return t
        finally:
            self.depth -= 1

    def family(self, theory: str) -> tuple[tuple[str, Term], ...]:
        return self.pairs(lambda: self.term_expr(theory))

    def equation(self, theory: str) -> Equation:
        lhs = self.term_expr(theory)
        op = self.expect("sym").text
        if op not in ("==", "~~"):
            raise self.fail("expected == or ~~")
        return Equation(lhs, self.term_expr(theory),
                        STRONG if op == "==" else WEAK)

    def _keyword_args(self, theory: str, s: Spelling) -> Sequence:
        """A keyword's arguments in written order, read by its shape, from
        the bracket at hand to the closing one."""
        if s.shape == "family":
            return (self.family(theory),)
        read = self.type_expr  # type, types
        if s.shape == "index":
            read = lambda: self.expect("ident").text
        elif s.shape == "terms":
            read = lambda: self.term_expr(theory)
        self.next()
        out = [read()]
        while len(out) < len(s.fields):
            self.expect("sym", ",")
            out.append(read())
        self.expect("sym", BRACKETS[s.shape][1])
        return out

    def _handler_clauses(self, theory: str
                         ) -> tuple[list[tuple[str, Term]], Optional[Term]]:
        self.expect("sym", "(")
        out = self._handler_clauses_tail(theory)
        self.expect("sym", ")")
        return out

    def term_atom(self, theory: str) -> Term:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            t = self.term_expr(theory)
            self.expect("sym", ")")
            return t
        if tok.kind != "ident":
            raise self.fail(f"expected a term, found {tok.text!r}")
        name = tok.text
        self.next()
        nxt = self.peek()
        spelling = SYNTAX.get(name)
        if nxt.kind == "sym":
            if spelling and BRACKETS[spelling.shape][:1] == nxt.text:
                return spelling.build(*self._keyword_args(theory, spelling))
            if nxt.text == "[":
                raise self.fail(f"{name!r} does not take [..] arguments")
            if nxt.text == "(" and name == "raise":
                return self._raise()
            if nxt.text == "(" and name == "handle":
                self.next()
                body = self.term_expr(theory)
                self.expect("sym", ",")
                clauses, catch_all = self._handler_clauses_tail(theory)
                self.expect("sym", ")")
                return self._build_handler(body, clauses, catch_all)
        if name == "try":
            body = self.term_expr(theory)
            self.expect("ident", "catch")
            clauses, catch_all = self._handler_clauses(theory)
            return self._build_handler(body, clauses, catch_all)
        if spelling is not None and spelling.shape == "none":
            return spelling.build()
        t = self.terms.get((theory, name))
        if t is None:
            raise self.fail(f"unknown term or generator {name!r}")
        return t

    def _raise(self) -> Term:
        """`raise(i)` or `raise(i, Y)`: throw i, then empty[Y] (Y is P[i]
        when left out)."""
        self.next()
        idx = self.expect("ident").text
        to: TypeExpr = Param(idx)
        if self.eat("sym", ","):
            to = self.type_expr()
        self.expect("sym", ")")
        return Comp(FromEmpty(to), Throw(idx))

    def _handler_clauses_tail(self, theory: str
                              ) -> tuple[list[tuple[str, Term]], Optional[Term]]:
        clauses: list[tuple[str, Term]] = []
        catch_all: Optional[Term] = None
        while True:
            if self.at("ident", "_"):
                self.next()
                self.expect("sym", "=>")
                catch_all = self.term_expr(theory)
            else:
                idx = self.expect("ident").text
                self.expect("sym", "=>")
                clauses.append((idx, self.term_expr(theory)))
            if not self.eat("sym", ","):
                break
        return clauses, catch_all

    def _build_handler(self, body: Term, clauses: list[tuple[str, Term]],
                       catch_all: Optional[Term]) -> Term:
        # handle_term's chain, unchecked and as written, since no Theory
        # is at hand; the body runs into it, then coerce
        if not clauses and catch_all is None:
            raise self.fail("a handler needs at least one clause")
        y = (clauses[0][1] if clauses else catch_all).cod
        body = _retarget_empty(body, y)
        chain = handler_chain(clauses, catch_all)
        return Coerce(Comp(CaseSum(Id(y), chain), body))

    # ---- proof steps

    def proof_step(self, theory: str) -> ProofStep:
        label = self.expect("ident").text
        self.expect("sym", ":")
        at = self.i
        head = self.expect("ident")
        kind, name = "rule", head.text
        inst: tuple[tuple[str, Any], ...] = ()
        claim: Optional[Judgment] = None
        if head.text in ("axiom", "gen", "hyp"):
            kind = head.text
            self.expect("sym", "(")
            name = self.expect("ident").text
            self.expect("sym", ")")
        if kind == "hyp":
            if self.eat("ident", "holds"):
                claim = Holds(self.equation(theory))
            else:
                self.expect("ident", "wf")
                t = self.term_expr(theory)
                self.expect("ident", "level")
                at = self.i
                level = self.integer()
                if level > 2:
                    raise self.fail(f"level {level} is not 0, 1 or 2", at)
                claim = WellFormed(t, level)
        elif kind == "rule":
            if name not in RULES:
                raise self.fail(f"unknown rule {name!r}", at)
            if self.eat("sym", "("):
                pairs = []
                if not self.at("sym", ")"):
                    while True:
                        key = self.expect("ident").text
                        self.expect("sym", "=")
                        read = _KINDS[RULES[name].key_kind(key)][0]
                        pairs.append((key, read(self)))
                        if not self.eat("sym", ","):
                            break
                self.expect("sym", ")")
                inst = tuple(pairs)
        premises: tuple[str, ...] = ()
        if kind == "rule" and self.eat("ident", "from"):
            labels = [self.expect("ident").text]
            while self.eat("sym", ","):
                labels.append(self.expect("ident").text)
            premises = tuple(labels)
        self.expect("sym", ";")
        return ProofStep(label, kind, name, inst, premises, claim)

    def proof_steps(self, theory: str) -> tuple[ProofStep, ...]:
        self.expect("sym", "{")
        steps = []
        depth: dict[str, int] = {}  # label -> 1 + its deepest premise's
        size: dict[str, int] = {}  # label -> 1 + its premises' sizes
        while not self.at("sym", "}"):
            start = self.i
            step = self.proof_step(theory)
            if step.label in depth:
                raise self.fail(f"duplicate step label {step.label!r}")
            for p in step.premises:
                if p not in depth:
                    raise self.fail(f"step {step.label!r} uses undefined "
                                    f"label {p!r}")
            depth[step.label] = 1 + max(
                [depth[p] for p in step.premises], default=0)
            if depth[step.label] > MAX_PROOF_DEPTH:
                raise self.fail(f"proof deeper than {MAX_PROOF_DEPTH} "
                                f"steps", start)
            size[step.label] = 1 + sum(size[p] for p in step.premises)
            if size[step.label] > MAX_PROOF_NODES:
                raise self.fail(f"proof larger than {MAX_PROOF_NODES} "
                                f"nodes", start)
            steps.append(step)
        self.expect("sym", "}")
        if not steps:
            raise self.fail("empty proof block")
        return tuple(steps)

    # ---- the other field kinds with a grammar of their own

    def theory_body(self) -> tuple[str, tuple, Optional[str], bool]:
        """`dual(T)`, or a theory kind with its sized indices, then `with
        catchall` on an exceptions theory: (kind, indices, source,
        catch_all)."""
        at = self.i
        kind = self.expect("ident").text
        if kind == "dual":
            self.expect("sym", "(")
            src = self.theory_ref()
            self.expect("sym", ")")
            return kind, (), src, False
        if kind not in _THEORY_KINDS:
            raise self.fail(f"unknown theory kind {kind!r}", at)
        indices = self.pairs(self.integer)
        catch_all = self.eat("ident", "with")
        if catch_all:
            self.expect("ident", "catchall")
            if kind != "exceptions":
                raise self.fail("only exceptions theories take catchall")
        return kind, indices, None, catch_all

    def lemma_call(self) -> tuple[str, tuple[Any, ...], str]:
        """`NAME(args) in T`: (lemma, args, theory)."""
        at = self.i
        lemma = self.expect("ident").text
        if lemma not in _LEMMAS:
            raise self.fail(f"unknown lemma {lemma!r}; one of "
                            f"{', '.join(sorted(_LEMMAS))}", at)
        params = _LEMMAS[lemma].params
        args: list[Any] = []
        # the theory is parsed after the args, so term args resolve against
        # the `in` clause; peek ahead for it
        save = self.i
        if self.eat("sym", "("):
            depth = 1
            while depth:
                t = self.next()
                if t.kind == "eof":
                    raise self.fail("unterminated lemma arguments")
                if t.kind == "sym" and t.text == "(":
                    depth += 1
                if t.kind == "sym" and t.text == ")":
                    depth -= 1
        self.expect("ident", "in")
        th = self.theory_ref()
        end = self.i
        self.i = save
        if self.eat("sym", "("):
            while not self.at("sym", ")"):
                if len(args) >= len(params):
                    raise self.fail(
                        f"{lemma} takes at most {len(params)} arguments")
                args.append(_KINDS[params[len(args)][1]][0](self))
                if not self.eat("sym", ","):
                    break
            self.expect("sym", ")")
        need = _LEMMAS[lemma].required
        if len(args) < need:
            raise self.fail(f"{lemma} needs {need} argument(s)")
        self.i = end
        return lemma, tuple(args), th

    def eval_input(self) -> tuple[str, Union[int, tuple[str, int]]]:
        if self.at("int"):
            return "val", self.integer()
        if self.eat("ident", "throw"):
            self.expect("sym", "(")
            idx = self.expect("ident").text
            self.expect("sym", ":")
            arg = self.integer()
            self.expect("sym", ")")
            return "exc", (idx, arg)
        raise self.fail("expected an input: INT or throw(i: INT)")

    # ---- declarations and commands

    def decl(self) -> Decl:
        """One declaration or command, read by the form its first word
        picks."""
        tok = self.peek()
        form = _FORMS.get(tok.text)
        if form is None:
            raise self.fail(f"expected a declaration or command, "
                            f"found {tok.text or 'end of input'!r}")
        vals: dict[str, Any] = {"pos": self.pos()}
        self.theory = None
        toks = self.toks
        for optional, kind, text, f in form.steps:
            if text is not None:
                tok = toks[self.i]
                if tok.text == text and tok.kind == kind:
                    self.i += 1
                elif optional:
                    continue
                else:
                    self.expect(kind, text)  # fails, naming what it found
            if f is not None and f.name is not None:
                vals[f.name] = f.read(self)
            elif f is not None:
                vals.update(zip(f.names, f.read(self)))
        d = form.cls(**vals)
        self.declare(d)
        return d

    def declare(self, d: Decl) -> None:
        """Note what `d` declares, for the references after it."""
        if type(d) is TheoryDecl:
            self.theories[d.name] = d.kind
        elif type(d) is GenDecl:
            self.terms[d.theory, d.name] = Gen(d.name, d.dom, d.cod, d.level)
        elif type(d) is TermDecl:
            self.terms[d.theory, d.name] = d.term

    def script(self) -> Script:
        decls = []
        while not self.at("eof"):
            decls.append(self.decl())
        return Script(tuple(decls))


def parse_script(text: str) -> Script:
    """Parse script text; positions are kept on declarations for errors."""
    return _Parser(text).script()


# ---------------------------------------------------------------- printer

def _rule_kind(rule: Any, key: str) -> str:
    spec = RULES.get(rule)
    return spec.key_kind(key) if spec else "term"


def _written(kind: str, value: Any) -> str:
    """A field, rule instantiation or lemma argument of `kind`, as text."""
    return _KINDS[kind][1](value)


def _pairs_text(pairs) -> str:
    return "(" + ", ".join(f"{i}: {v}" for i, v in pairs) + ")"


def _ints_text(brackets: str, vals: Sequence[int]) -> str:
    return brackets[0] + ", ".join(map(str, vals)) + brackets[1]


def _eq_text(eq: Equation) -> str:
    op = "==" if eq.kind == STRONG else "~~"
    return f"{term_to_text(eq.lhs)} {op} {term_to_text(eq.rhs)}"


def _step_text(step: ProofStep) -> str:
    if step.kind == "rule":
        args = ", ".join(f"{k}={_written(_rule_kind(step.name, k), v)}"
                         for k, v in step.inst)
        head = f"{step.name}({args})" if step.inst else step.name
    else:
        head = f"{step.kind}({step.name})"
    if isinstance(step.claim, Holds):
        head += f" holds {_eq_text(step.claim.eq)}"
    elif step.claim is not None:
        head += f" wf {term_to_text(step.claim.term)} level {step.claim.level}"
    out = f"  {step.label}: {head}"
    if step.premises:
        out += " from " + ", ".join(step.premises)
    return out + ";"


def _steps_text(steps: Sequence[ProofStep]) -> str:
    return "\n".join(["{", *map(_step_text, steps), "}"])


def _theory_body_text(kind: str, indices: Sequence[tuple[str, int]],
                      source: Optional[str], catch_all: bool) -> str:
    if kind == "dual":
        return f"dual({source})"
    return kind + _pairs_text(indices) + (" with catchall" if catch_all
                                          else "")


def _lemma_text(lemma: str, args: Sequence[Any], theory: str) -> str:
    parts = [_written(kind, v)
             for (_, kind), v in zip(_LEMMAS[lemma].params, args)]
    call = f"{lemma}({', '.join(parts)})" if parts else lemma
    return f"{call} in {theory}"


def _input_text(kind: str, value: Union[int, tuple[str, int]]) -> str:
    return f"throw({value[0]}: {value[1]})" if kind == "exc" else str(value)


# ---------------------------------------------------------------- grammar

# each kind of field, rule instantiation and lemma argument: its reader,
# called with the parser, and its writer, called with the values it read;
# a term is read in the theory the form named last
_KINDS = {
    "word": (lambda p: p.next().text, str),
    "fresh": (_Parser.fresh_name, str),
    "name": (lambda p: p.expect("ident").text, str),
    "theory": (_Parser.theory_ref, str),
    "suite": (_Parser.suite, str),
    "type": (_Parser.type_expr, str),
    "int": (_Parser.integer, str),
    # term_to_text is looked up per call, as tracing rebinds it
    "term": (lambda p: p.term_expr(p.theory), lambda t: term_to_text(t)),
    "family": (lambda p: p.family(p.theory), lambda v: _pairs_text(
        (i, term_to_text(t)) for i, t in v)),
    "equation": (lambda p: p.equation(p.theory), _eq_text),
    "sizes": (lambda p: p.pairs(p.integer), _pairs_text),
    "int tuple": (lambda p: p.ints("()"), lambda v: _ints_text("()", v)),
    "int list": (lambda p: p.ints("[]"), lambda v: _ints_text("[]", v)),
    "input": (_Parser.eval_input, _input_text),
    "steps": (lambda p: p.proof_steps(p.theory), _steps_text),
    "lemma call": (_Parser.lemma_call, _lemma_text),
    "theory body": (_Parser.theory_body, _theory_body_text),
}


class Field:
    """A field of a form: the attributes `names` of the node it builds
    (by default the one named like its kind), read and written as `kind`.
    A field after a `word` is an optional trailing clause, `word FIELD`,
    written when the field's value is not None."""

    __slots__ = ("kind", "names", "name", "word", "read", "write")

    def __init__(self, kind: str, *names: str, word: Optional[str] = None):
        self.kind, self.names, self.word = kind, names or (kind,), word
        # the attribute, when the reader fills one
        self.name = self.names[0] if len(self.names) == 1 else None
        self.read, self.write = _KINDS[kind]


class Form:
    """How one declaration or command is written, and the node it builds.

    `pieces` are its literal tokens and `Field`s in written order. A form
    is picked by its first word: the literal it opens with, or else each
    of `words`, which its opening field keeps. `mode` is the CLI mode that
    runs the command, None for a declaration. `steps` are the pieces as
    the parser and the printer walk them: (optional, token kind, literal,
    field), with no literal for a field and no field for a literal.
    """

    __slots__ = ("cls", "mode", "words", "lead", "steps")

    def __init__(self, cls: type, mode: Optional[str], *pieces,
                 words: tuple[str, ...] = ()):
        self.cls, self.mode = cls, mode
        first = pieces[0]
        self.lead = first.names[0] if isinstance(first, Field) else None
        self.words = words or (first,)
        self.steps = [(False, _kind(p), p, None) if isinstance(p, str) else
                      (p.word is not None, p.word and _kind(p.word), p.word, p)
                      for p in pieces]


# every declaration and command form, one row each
_GRAMMAR = (
    Form(TheoryDecl, None, "theory", Field("fresh", "name"), "=",
         Field("theory body", "kind", "indices", "source", "catch_all")),
    Form(GenDecl, None, Field("word", "level_kw"), "gen",
         Field("fresh", "name"), ":", Field("type", "dom"), "->",
         Field("type", "cod"), "in", Field("theory"),
         Field("int list", "table", word="="), words=tuple(_LEVEL_KEYWORDS)),
    Form(TermDecl, None, "term", Field("fresh", "name"), "in",
         Field("theory"), "=", Field("term")),
    Form(EquationDecl, None, "equation", Field("fresh", "name"), "in",
         Field("theory"), ":", Field("equation", "eq")),
    Form(ModelDecl, None, "model", Field("fresh", "name"), "for",
         Field("theory"), Field("sizes")),
    Form(ProofDecl, None, "proof", Field("fresh", "name"), "in",
         Field("theory"), Field("steps")),
    Form(CheckProofCmd, "check", "check", "proof", Field("name", "proof"),
         "in", Field("theory")),
    Form(VerifyCmd, "verify", "verify", Field("suite"), "in",
         Field("theory"), Field("name", "model", word="with")),
    Form(LemmaCmd, "verify", "lemma",
         Field("lemma call", "lemma", "args", "theory")),
    Form(EvalCmd, "eval", "eval", "in", Field("theory"), ":", Field("term"),
         "on", Field("input", "input_kind", "value"),
         Field("int tuple", "state", word="state")),
    Form(ProveCmd, "check", "prove", "in", Field("theory"), ":",
         Field("equation", "eq"), Field("int", "budget", word="budget")),
    *(Form(TranslateCmd, op, Field("word", "op"), Field("theory"),
           words=(op,)) for op in ("erase", "expand", "dualize")),
)

# each form by the words that pick it, and by the class it builds
_FORMS = {w: form for form in _GRAMMAR for w in form.words}
_FORM_OF = {form.cls: form for form in _GRAMMAR}
# the modes a command runs in, one of which `ExecConfig.mode` picks
_MODES = frozenset(form.mode for form in _GRAMMAR) - {None}

# names the grammar claims for itself; declarations cannot reuse them: the
# words of the forms, of the terms, and of the field kinds and term sugar
_RESERVED = frozenset(_FORMS) | frozenset(
    text for form in _GRAMMAR for _, kind, text, _ in form.steps
    if kind == "ident") | frozenset(SYNTAX) | frozenset({
        "raise", "try", "catch", "handle", "throw", "from", "axiom", "hyp",
        "holds", "wf", "level", "states", "exceptions", "dual", "V", "P"})


def _form_of(d: Decl) -> Form:
    """The form `d` is written in; where one class has several, the value
    of the field a form opens with picks it."""
    form = _FORM_OF[type(d)]
    return _FORMS[getattr(d, form.lead)] if form.lead else form


def _decl_text(d: Decl) -> str:
    out = []
    for optional, _, text, f in _form_of(d).steps:
        vals = [getattr(d, n) for n in f.names] if f else ()
        if optional and vals[0] is None:
            continue
        if text is not None:
            out.append(text)
        if f is not None:
            out.append(f.write(*vals))
    return " ".join(out)


def print_script(script: Script) -> str:
    """Render a Script; parse_script inverts this exactly."""
    return "\n".join(_decl_text(d) for d in script.decls) + "\n"


# ------------------------------------------------- derivations as scripts

def derivation_to_proof(name: str, theory: str, d: Derivation) -> str:
    """Serialize a derivation as a proof block; equal subtrees get one label.

    A step is keyed on its rule, instantiation, conclusion and premise
    labels, so two subtrees get one label exactly when they are equal."""
    labels: dict[tuple, str] = {}  # step key -> label
    label_of: dict[int, str] = {}  # id of a node -> its label
    steps: list[ProofStep] = []
    for n, _, done in d.walk():
        if not done:
            continue
        prem = tuple(label_of[id(p)] for p in n.premises)
        key = (n.rule, n.inst, n.conclusion, prem)
        if key not in labels:
            label = labels[key] = f"s{len(labels) + 1}"
            kind, nm = ("rule", n.rule) if isinstance(n.rule, str) else n.rule
            claim = n.conclusion if kind == "hyp" else None
            steps.append(ProofStep(label, kind, nm, n.inst, prem, claim))
        label_of[id(n)] = labels[key]
    block = ProofDecl(name, theory, tuple(steps))
    return _decl_text(block) + "\n"


def build_proof(theory: Theory, decl: ProofDecl) -> Derivation:
    """Fold a parsed proof block into a kernel derivation (the last step)."""
    by_label: dict[str, Derivation] = {}
    for step in decl.steps:
        if step.kind == "rule":
            prem = [by_label[p] for p in step.premises]
            out = node(theory, step.name, prem, **dict(step.inst))
        elif step.premises:
            raise E.KernelError(f"citation {step.kind}({step.name}) "
                                f"cannot have premises")
        else:
            out = cite(theory, (step.kind, step.name), step.claim)
        by_label[step.label] = out
    return by_label[decl.steps[-1].label]


def derivation_json(d: Derivation) -> dict:
    """A nested-tree view of a derivation, for reports. Each distinct node's
    dict is built once, and a shared premise's dict is shared too; the
    encoder writes it out at each place that cites it."""
    out: dict[int, dict] = {}  # id of a node -> its dict
    for n, _, done in d.walk():
        if not done:
            continue
        if isinstance(n.rule, tuple):
            rule = f"{n.rule[0]}({n.rule[1]})"
        else:
            rule = n.rule
        out[id(n)] = {
            "rule": rule,
            "inst": {k: _written(_rule_kind(n.rule, k), v) for k, v in n.inst},
            "conclusion": str(n.conclusion),
            "premises": [out[id(p)] for p in n.premises],
        }
    return out[id(d)]


# --------------------------------------------------------------- executor

@dataclass(frozen=True)
class ExecConfig:
    mode: Optional[str] = None  # CLI subcommand filter; None runs everything
    model_overrides: Mapping[str, int] = field(default_factory=dict)
    budget: Optional[int] = None
    fail_fast: bool = False


@dataclass(frozen=True)
class Outcome:
    kind: str
    target: str
    ok: bool
    detail: Mapping[str, Any]
    elapsed_ms: float  # text reports only; JSON stays byte-stable


@dataclass(frozen=True)
class Report:
    outcomes: tuple[Outcome, ...]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)


class _Env:
    def __init__(self, config: ExecConfig):
        self.config = config
        self.theories: dict[str, Theory] = {}
        self.sizes: dict[str, dict[str, int]] = {}
        self.tables: dict[str, dict[str, tuple[int, ...]]] = {}
        self.proofs: dict[str, ProofDecl] = {}
        self.models: dict[str, tuple[str, dict[str, int]]] = {}
        # built models, by (theory, model name); a theory's are dropped when
        # a declaration for it changes its generators, sizes or models
        self.built: dict[tuple[str, Optional[str]], Any] = {}
        # typecheck's profiles, by the identities of the theory and the
        # term, which each entry keeps alive; a `gen` declaration replaces
        # its theory, so terms are checked again after one
        self.checked: dict[tuple[int, int], tuple[Theory, Term, Any]] = {}

    def forget_models(self, theory_name: str) -> None:
        for key in [k for k in self.built if k[0] == theory_name]:
            del self.built[key]

    def typecheck(self, th: Theory, t: Term) -> tuple[TypeExpr, TypeExpr]:
        """`typecheck(th, t)`, worked out once per theory and term object:
        an `eval` of a declared term gets the declaration's object."""
        key = (id(th), id(t))
        hit = self.checked.get(key)
        if hit is None:
            hit = self.checked[key] = (th, t, typecheck(th, t))
        return hit[2]

    def theory(self, name: str, pos: SrcPos) -> Theory:
        if name not in self.theories:
            raise E.ExecError(f"unknown theory {name!r}", pos.line, pos.col)
        return self.theories[name]

    def model_for(self, theory_name: str, model_name: Optional[str],
                  pos: SrcPos):
        th = self.theory(theory_name, pos)
        if model_name is not None:
            if model_name not in self.models:
                raise E.ExecError(f"unknown model {model_name!r}",
                                  pos.line, pos.col)
            mth, sizes = self.models[model_name]
            if mth != theory_name:
                raise E.ExecError(
                    f"model {model_name!r} is for theory {mth!r}",
                    pos.line, pos.col)
        else:
            sizes = self.sizes.get(theory_name, {})
        key = (theory_name, model_name)
        if key in self.built:
            return self.built[key]
        sizes = dict(sizes)
        for k, v in self.config.model_overrides.items():
            if k in sizes:
                sizes[k] = v
        val = Valuation(tables=dict(self.tables.get(theory_name, {})))
        if th.flavor == "states":
            model = FiniteStateModel(th, sizes, val)
        elif th.flavor == "exceptions":
            model = FiniteExceptionModel(th, sizes, val)
        else:
            raise E.ExecError(f"theory {theory_name!r} has no model flavor",
                              pos.line, pos.col)
        self.built[key] = model
        return model


def _declare_theory(env: _Env, d: TheoryDecl) -> None:
    if d.kind == "dual":
        src = env.theories[d.source]
        built = replace(dualize_theory(src), name=d.name)
        env.sizes[d.name] = dict(env.sizes.get(d.source, {}))
        env.tables[d.name] = dict(env.tables.get(d.source, {}))
    else:
        names = [i for i, _ in d.indices]
        if d.kind in ("states", "plain-states"):
            built = build_states_theory(d.name, names)
        else:
            built = build_exceptions_theory(d.name, names)
            if d.catch_all:
                built = with_catch_all(built)
        if d.kind.startswith("plain-"):
            built = replace(erase_theory(built), name=d.name)
        env.sizes[d.name] = dict(d.indices)
        env.tables[d.name] = {}
    env.theories[d.name] = built


def _library(th: Theory):
    """th's catalogue with its lemma and built-in derive functions, or None;
    the functions are looked up per call, as tracing rebinds them."""
    if th.flavor == "states":
        return STATE_CATALOGUE, _states_lemma, _states_builtin
    if th.flavor == "exceptions":
        return EXC_CATALOGUE, _exc_lemma, _exc_builtin
    return None


def _builtin_derivation(th: Theory, name: str) -> Derivation:
    """Resolve a named proof that ships with the library: a built-in, or a
    lemma at its default parameters."""
    lib = _library(th)
    if lib is not None:
        catalogue, lemma, builtin = lib
        if name in catalogue.builtins:
            return builtin(th, name)
        if name in catalogue.lemmas:
            return lemma(th, name, catalogue.default_params(th, name))
    raise E.UnknownLemma(f"no built-in proof {name!r} for theory {th.name!r}")


def _law_rows(results) -> list[dict]:
    return [{"name": r.name, "status": r.status,
             "witness": _jsonable(r.witness), "points": r.points}
            for r in results]


def _jsonable(v: Any) -> Any:
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return str(v)


def _theory_json(th: Theory, sizes: Mapping[str, int]) -> dict:
    out: dict[str, Any] = {"name": th.name, "flavor": th.flavor}
    if th.locations:
        out["locations"] = [{"name": i, "size": sizes.get(i)}
                            for i in th.locations]
    if th.constructors:
        out["constructors"] = [{"name": i, "size": sizes.get(i)}
                               for i in th.constructors]
    out["axioms"] = [{"name": a.name,
                      "lhs": term_to_text(a.eq.lhs),
                      "rhs": term_to_text(a.eq.rhs),
                      "kind": "strong" if a.eq.kind == STRONG else "weak"}
                     for a in th.axioms]
    if th.gens:
        out["gens"] = [{"name": g.name, "dom": str(g.dom),
                        "cod": str(g.cod), "level": g.dec} for g in th.gens]
    return out


# Each runner returns (ok, detail). A DecorError it raises is the
# command's failure, recorded in the report; a ScriptError is the script's.

def _run_check(env: _Env, cmd: CheckProofCmd) -> tuple[bool, dict]:
    th = env.theory(cmd.theory, cmd.pos)
    if cmd.proof in env.proofs:
        decl = env.proofs[cmd.proof]
        if decl.theory != cmd.theory:
            raise E.ExecError(f"proof {cmd.proof!r} is in theory "
                              f"{decl.theory!r}", cmd.pos.line, cmd.pos.col)
        d = build_proof(th, decl)
    else:
        d = _builtin_derivation(th, cmd.proof)
    res = check_derivation(th, d)
    detail: dict[str, Any] = {"valid": res.valid, "nodes": res.nodes,
                              "conclusion": str(d.conclusion)}
    if res.error:
        detail["error"] = res.error
    if res.hypotheses:
        detail["hypotheses"] = list(res.hypotheses)
    detail["tree"] = derivation_json(d)
    return res.valid, detail


def _run_verify(env: _Env, cmd: VerifyCmd) -> tuple[bool, dict]:
    model = env.model_for(cmd.theory, cmd.model, cmd.pos)
    rep = verify_law_suite(model, cmd.suite)
    return rep.ok, {"suite": cmd.suite, "model": model.describe(),
                    "laws": _law_rows(rep.results),
                    "holds": sum(r.holds for r in rep.results),
                    "total": len(rep.results)}


def _run_lemma(env: _Env, cmd: LemmaCmd) -> tuple[bool, dict]:
    th = env.theory(cmd.theory, cmd.pos)
    params = {key: v for (key, _), v in zip(_LEMMAS[cmd.lemma].params,
                                             cmd.args)}
    lib = _library(th)
    if lib is None:
        raise E.ExecError("lemmas need a states or exceptions theory",
                          cmd.pos.line, cmd.pos.col)
    _, lemma, _ = lib
    d = lemma(th, cmd.lemma, params)
    res = check_derivation(th, d)
    detail = {"valid": res.valid, "nodes": res.nodes,
              "conclusion": str(d.conclusion)}
    if res.error:
        detail["error"] = res.error
    return res.valid, detail


def _decode_input(model, dom_ty: TypeExpr, n: int, pos: SrcPos,
                  what: str = "input") -> Any:
    """An integer input names a carrier element by enumeration position."""
    size = model.carrier_size(dom_ty)
    if not 0 <= n < size:
        raise E.ExecError(f"{what} {n} is out of range for {dom_ty} "
                          f"({size} elements)", pos.line, pos.col)
    return model.element(dom_ty, n)


def _run_eval(env: _Env, cmd: EvalCmd) -> tuple[bool, dict]:
    th = env.theory(cmd.theory, cmd.pos)
    model = env.model_for(cmd.theory, None, cmd.pos)
    dom_ty, _ = env.typecheck(th, cmd.term)
    if th.flavor == "states":
        if cmd.input_kind != "val":
            raise E.ExecError("states terms take ordinary inputs, "
                              "not throw(..)", cmd.pos.line, cmd.pos.col)
        state = cmd.state
        if state is None:
            state = tuple(0 for _ in th.locations)
        if len(state) != len(th.locations):
            raise E.ExecError(f"state needs {len(th.locations)} entries",
                              cmd.pos.line, cmd.pos.col)
        state = tuple(_decode_input(model, Value(i), v, cmd.pos, "state entry")
                      for i, v in zip(th.locations, state))
        value = _decode_input(model, dom_ty, cmd.value, cmd.pos)
        out_val, out_state = eval_states(model, cmd.term, value, state)
        return True, {"term": term_to_text(cmd.term),
                      "input": _jsonable(value), "state": list(state),
                      "result": _jsonable(out_val),
                      "result_state": list(out_state)}
    if cmd.state is not None:
        raise E.ExecError("exceptions terms have no state",
                          cmd.pos.line, cmd.pos.col)
    if cmd.input_kind == "val":
        inp = ("val", _decode_input(model, dom_ty, cmd.value, cmd.pos))
    else:
        name, arg = cmd.value
        if name not in th.constructors:
            raise E.ExecError(f"unknown exception name {name!r}",
                              cmd.pos.line, cmd.pos.col)
        inp = ("exc", (name, _decode_input(model, Param(name), arg, cmd.pos)))
    res = eval_exceptions(model, cmd.term, inp)
    return True, {"term": term_to_text(cmd.term),
                  "input": _jsonable(inp), "result": _jsonable(res)}


def _run_prove(env: _Env, cmd: ProveCmd) -> tuple[bool, dict]:
    th = env.theory(cmd.theory, cmd.pos)
    budget = cmd.budget if cmd.budget is not None else env.config.budget
    if budget is None:
        budget = DEFAULT_BUDGET
    try:
        model = env.model_for(cmd.theory, None, cmd.pos)
    except E.DecorError:
        model = None  # the search runs without refuting first
    res = saturate_prove(th, cmd.eq, budget=budget, model=model)
    detail = {"status": res.status, "rounds": res.rounds,
              "facts": res.facts, "reason": res.reason, "budget": budget}
    if res.witness is not None:
        detail["witness"] = _jsonable(res.witness)
    ok = res.proven
    if res.derivation is not None:
        replay = check_derivation(th, res.derivation)
        detail["nodes"] = replay.nodes
        detail["tree"] = derivation_json(res.derivation)
        if not replay.valid:
            ok, detail["error"] = False, replay.error
    return ok, detail


def _run_translate(env: _Env, cmd: TranslateCmd) -> tuple[bool, dict]:
    th = env.theory(cmd.theory, cmd.pos)
    sizes = env.sizes.get(cmd.theory, {})
    if cmd.op == "expand":
        expand = {"states": expand_states_equation,
                  "exceptions": expand_exceptions_equation}.get(th.flavor)
        if expand is None:
            raise E.ExecError("expand needs a states or exceptions theory",
                              cmd.pos.line, cmd.pos.col)
        rows = []
        for ax in th.axioms:
            l, r = expand(th, ax.eq)
            rows.append({"axiom": ax.name, "lhs": str(l), "rhs": str(r),
                         "collapses": l == r})
        return True, {"axioms": rows}
    if cmd.op == "erase":
        out = erase_theory(th)
        kind = "plain-states" if out.locations else "plain-exceptions"
    else:
        out = dualize_theory(th)
        kind = out.flavor
    idx = out.locations or out.constructors
    decl = TheoryDecl(out.name, kind, tuple((i, sizes.get(i)) for i in idx))
    return True, {"dsl": _decl_text(decl), "theory": _theory_json(out, sizes)}


# each command's runner, and its target as the report names it; a
# target's first word is the command's kind
_COMMANDS = {
    CheckProofCmd: (_run_check,
                    lambda c: f"check proof {c.proof} in {c.theory}"),
    VerifyCmd: (_run_verify, lambda c: f"verify {c.suite} in {c.theory}"),
    LemmaCmd: (_run_lemma, lambda c: f"lemma {c.lemma} in {c.theory}"),
    EvalCmd: (_run_eval, lambda c: f"eval in {c.theory}"),
    ProveCmd: (_run_prove,
               lambda c: f"prove in {c.theory}: {_eq_text(c.eq)}"),
    TranslateCmd: (_run_translate, lambda c: f"{c.op} {c.theory}"),
}


def _declare(env: _Env, d: Decl) -> None:
    if isinstance(d, (TheoryDecl, GenDecl, ModelDecl)):
        env.forget_models(d.name if isinstance(d, TheoryDecl) else d.theory)
    if isinstance(d, TheoryDecl):
        _declare_theory(env, d)
    elif isinstance(d, GenDecl):
        th = env.theory(d.theory, d.pos)
        g = Gen(d.name, d.dom, d.cod, d.level)
        env.theories[d.theory] = th.with_gen(g)
        typecheck(env.theories[d.theory], g)
        if d.table is not None:
            env.tables[d.theory][d.name] = d.table
    elif isinstance(d, TermDecl):
        env.typecheck(env.theory(d.theory, d.pos), d.term)
    elif isinstance(d, EquationDecl):
        typecheck_equation(env.theory(d.theory, d.pos), d.eq)
    elif isinstance(d, ModelDecl):
        env.theory(d.theory, d.pos)
        env.models[d.name] = (d.theory, dict(d.sizes))
    else:
        env.theory(d.theory, d.pos)
        env.proofs[d.name] = d


def execute(script: Script, config: Optional[ExecConfig] = None) -> Report:
    """Process declarations in order and run the (mode-filtered) commands.

    Declaration problems (bad names, ill-typed terms) raise ScriptError;
    command failures are recorded in the report instead.
    """
    config = config or ExecConfig()
    if config.mode is not None and config.mode not in _MODES:
        raise ValueError(f"unknown mode {config.mode!r}")
    env = _Env(config)
    outcomes: list[Outcome] = []

    for d in script.decls:
        command = _COMMANDS.get(type(d))
        if command is None:
            try:
                _declare(env, d)
            except E.ScriptError:
                raise
            except E.DecorError as exc:
                raise E.ExecError(str(exc), d.pos.line, d.pos.col)
            continue
        if config.mode is not None and _form_of(d).mode != config.mode:
            continue
        t0 = time.perf_counter()
        run, target_of = command
        target = target_of(d)
        try:
            ok, detail = run(env, d)
        except E.ScriptError:
            raise
        except E.DecorError as exc:
            ok, detail = False, {"error": str(exc)}
        elapsed = (time.perf_counter() - t0) * 1000.0
        outcomes.append(Outcome(target.split(" ", 1)[0], target, ok, detail,
                                elapsed))
        if config.fail_fast and not ok:
            break
    return Report(tuple(outcomes))


# ---------------------------------------------------------------- reports

def report_json(report: Report) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "ok": report.ok,
        "commands": [{"kind": o.kind, "target": o.target, "ok": o.ok,
                      "detail": o.detail}
                     for o in report.outcomes],
    }


def _witness_text(w: Optional[dict]) -> str:
    if not w:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in w.items())
    return f"  [{inner}]"


def _outcome_text(o: Outcome) -> list[str]:
    mark = "ok  " if o.ok else "FAIL"
    lines = [f"{mark}  {o.target}  ({o.elapsed_ms:.1f} ms)"]
    if "error" in o.detail:
        lines.append(f"      {o.detail['error']}")
    if o.kind == "verify":
        for row in o.detail.get("laws", []):
            lines.append(f"      {row['status']:<6} {row['name']}"
                         f"{_witness_text(row.get('witness'))}")
    if o.kind == "eval" and o.ok:
        if "result_state" in o.detail:
            lines.append(f"      result {o.detail['result']} "
                         f"state {tuple(o.detail['result_state'])}")
        else:
            lines.append(f"      result {o.detail['result']}")
    if o.kind == "prove":
        lines.append(f"      status {o.detail.get('status')} "
                     f"rounds {o.detail.get('rounds')} "
                     f"facts {o.detail.get('facts')}"
                     f"{_witness_text(o.detail.get('witness'))}")
    if o.kind in ("erase", "dualize") and "dsl" in o.detail:
        lines.append(f"      {o.detail['dsl']}")
    if o.kind == "expand":
        for row in o.detail.get("axioms", []):
            op = "==" if row["collapses"] else "=?="
            lines.append(f"      {row['axiom']}: {row['lhs']} {op} {row['rhs']}")
    return lines


def emit_report(report: Report, format: str = "text") -> bytes:
    """Render a report; JSON output is byte-identical for equal inputs."""
    if format == "json":
        text = json.dumps(report_json(report), indent=2, sort_keys=True)
        return (text + "\n").encode("utf-8")
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    lines: list[str] = []
    for o in report.outcomes:
        lines += _outcome_text(o)
        if "tree" in o.detail:
            lines += _tree_text(o.detail["tree"], 3)
    lines.append("all commands succeeded" if report.ok
                 else "some commands failed")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _tree_text(tree: dict, indent: int) -> list[str]:
    pad = "  " * indent
    inst = tree.get("inst") or {}
    args = ", ".join(f"{k}={v}" for k, v in inst.items())
    head = tree["rule"] + (f"({args})" if args else "")
    lines = [f"{pad}{head}  |-  {tree['conclusion']}"]
    for p in tree["premises"]:
        lines += _tree_text(p, indent + 1)
    return lines
