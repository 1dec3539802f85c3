"""The exceptions theory: signature builder, try/catch as a derived form,
the dual law goals, and packaged kernel derivations.

An exceptions theory over names i has t[i]: P[i] -> 0 (level 1, raise) and
c[i]: 0 -> P[i] (level 2, catch), with two weak axiom families dual to the
states ones, `catalogue.signature` read on this side:

    B1_i:   c[i] . t[i]  ~~  id[P[i]]          catch what you just raised
    B2_i_j: c[i] . t[j]  ~~  empty[P[i]] . t[j]   (j != i)  wrong key passes

Handlers are built only by `handle_term`; the handler laws and lemmas
take theirs from it. The lemmas' cores are states proofs built on this
theory's twin and carried across by dualize_derivation (`_dual`), which
exercises the translation on every check, not just in its own tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

from . import errors as E
from .catalogue import (
    Catalogue, Entry, semi_pure, signature, unit_uniqueness,
)
from .kernel import Derivation, node
from .states import build_states_theory, mirror_interaction3
from .states import derive_lemma as _states_lemma
from .terms import (
    EXCEPTIONS, CaseSum, Catch, CatchAll, Coerce, Comp, FromEmpty, Id, Inj1,
    Inj2, PropCase, SemiCoprod, Term, Throw, ToUnit, comp, normalize_assoc,
)
from .theory import Axiom, Equation, Theory, eq_strong, eq_weak, typecheck
from .translators import dualize_derivation
from .types import EMPTY, Param, TypeExpr, UNIT


def build_exceptions_theory(name: str, constructors) -> Theory:
    return signature(EXCEPTIONS, name, constructors)


def with_catch_all(theory: Theory) -> Theory:
    """Extend with the untagged catcher and its axioms CA_i."""
    if theory.flavor != "exceptions":
        raise E.BadParams("catch-all lives on the exceptions side")
    return replace(theory, catch_all=True, axioms=theory.axioms + tuple(
        Axiom(f"CA_{i}", eq_weak(comp(CatchAll(), Throw(i)), ToUnit(Param(i))))
        for i in theory.constructors))


# case a pure map against an arbitrary one; typechecked against the theory
semi_pure_coproduct = partial(semi_pure, EXCEPTIONS)


def raise_term(theory: Theory, name: str, to: TypeExpr) -> Term:
    """Raise exception `name` at result type `to`: empty[to] . t[name]."""
    if name not in theory.constructors:
        raise E.UnknownIndex(f"unknown exception name {name!r}")
    t = comp(FromEmpty(to), Throw(name))
    typecheck(theory, t)
    return t


# ------------------------------------------------------------- handlers

@dataclass(frozen=True)
class HandlerParts:
    """A try/catch handler, with its intermediate stages exposed.

    chain:  the catcher built from the clauses, 0 -> Y, level 2
    handle: case(id, chain) . body, still level 2
    term:   the coerced result, the actual handler, level 1
    """

    body: Term
    clauses: tuple[tuple[str, Term], ...]
    catch_all: Optional[Term]
    chain: Term
    handle: Term
    term: Term


def handle_term(theory: Theory, body: Term,
                clauses: Sequence[tuple[str, Term]],
                catch_all: Optional[Term] = None) -> HandlerParts:
    """try body catch(i1 => g1, ..., _ => g_all) as a decorated term.

    Clauses are tried in order; duplicate names are allowed (later ones are
    unreachable). Every gi must be a propagator P[i] -> Y for the body's Y;
    the optional catch-all recovery takes no payload (1 -> Y).
    """
    body = normalize_assoc(body)
    typecheck(theory, body)
    if body.level > 1:
        raise E.NotAPropagator(f"handler body must be level <= 1: {body}")
    y = body.cod
    cl = tuple((i, normalize_assoc(g)) for i, g in clauses)
    if not cl and catch_all is None:
        raise E.EmptyHandler("a handler needs at least one clause")
    for i, g in cl:
        if i not in theory.constructors:
            raise E.UnknownIndex(f"unknown exception name {i!r}")
        typecheck(theory, g)
        if g.level > 1:
            raise E.NotAPropagator(f"clause for {i!r} must be level <= 1: {g}")
        if g.dom != Param(i):
            raise E.TypingError(f"clause for {i!r} must start at P[{i}]")
        if g.cod != y:
            raise E.CodomainMismatch(
                f"clause for {i!r} lands in {g.cod}, body in {y}")
    if catch_all is not None:
        catch_all = normalize_assoc(catch_all)
        typecheck(theory, catch_all)
        if catch_all.level > 1:
            raise E.NotAPropagator("the catch-all recovery must be level <= 1")
        if catch_all.dom != UNIT:
            raise E.TypingError("the catch-all recovery takes no payload (1 -> Y)")
        if catch_all.cod != y:
            raise E.CodomainMismatch("the catch-all recovery lands off target")
    acc = normalize_assoc(handler_chain(cl, catch_all))
    handle = comp(CaseSum(Id(y), acc), body)
    term = Coerce(handle)
    typecheck(theory, term)
    return HandlerParts(body, cl, catch_all, acc, handle, term)


def handler_chain(clauses: Sequence[tuple[str, Term]],
                  catch_all: Optional[Term]) -> Term:
    """The catcher 0 -> Y that clauses i1 => g1, ..., _ => g_all build,
    unchecked and unnormalized: g_all . catchall (or the last clause's
    g . c[i]), then each earlier clause wraps it as case(g, rest) . c[i]."""
    if catch_all is not None:
        chain, rest = Comp(catch_all, CatchAll()), clauses
    else:
        (i, g), rest = clauses[-1], clauses[:-1]
        chain = Comp(g, Catch(i))
    for i, g in reversed(rest):
        chain = Comp(CaseSum(g, chain), Catch(i))
    return chain


# ----------------------------------------------------------- law goals

def catch_equation(theory: Theory, i: str,
                   to: Optional[TypeExpr] = None) -> Equation:
    """Catching key i and re-raising it is the same as not catching."""
    to = Param(i) if to is None else to
    return eq_strong(comp(raise_term(theory, i, to), Catch(i)), FromEmpty(to))


def _default_clauses(theory: Theory, i: str, y: TypeExpr, f, g, h):
    """The handler body f and clauses g, h a law leaves out: raise i into
    y, raise it again, and the identity of y."""
    if f is None:
        f = raise_term(theory, i, y)
    if g is None:
        g = raise_term(theory, i, y)
    if h is None:
        h = Id(y)
    return f, g, h


def _commuted(theory: Theory, i: str, j: str, f=None, g=None,
              h=None) -> tuple[HandlerParts, HandlerParts]:
    """The handlers of f with the clauses i => g, j => h, in that order
    and swapped."""
    f, g, h = _default_clauses(theory, i, Param(j), f, g, h)
    return (handle_term(theory, f, [(i, g), (j, h)]),
            handle_term(theory, f, [(j, h), (i, g)]))


def _repeated(theory: Theory, i: str, f=None, g=None,
              h=None) -> tuple[HandlerParts, HandlerParts]:
    """The handlers of f with the clauses i => g, i => h, and i => g
    alone."""
    f, g, h = _default_clauses(theory, i, Param(i), f, g, h)
    return (handle_term(theory, f, [(i, g), (i, h)]),
            handle_term(theory, f, [(i, g)]))


def handler_commute_equation(theory: Theory, i: str, j: str,
                             f=None, g=None, h=None) -> Equation:
    """Clauses for two different keys can swap places."""
    p1, p2 = _commuted(theory, i, j, f, g, h)
    return eq_strong(p1.term, p2.term)


def handler_idempotent_equation(theory: Theory, i: str,
                                f=None, g=None, h=None) -> Equation:
    """A second clause for the same key is dead code."""
    p1, p2 = _repeated(theory, i, f, g, h)
    return eq_strong(p1.term, p2.term)


# ------------------------------------------------------ derivations

def _dual(theory: Theory, build, *args) -> Derivation:
    """`build(twin, *args)`, a states proof on the theory whose dual this
    one is, name for name, carried across the duality onto this theory."""
    twin = build_states_theory(theory.name + "-mirror", theory.constructors)
    return dualize_derivation(twin, build(twin, *args), target=theory)


def _key_annihilation(theory: Theory, i: str) -> Derivation:
    return _dual(theory, _states_lemma, "annihilation", {"i": i})


def _catch_throw(theory: Theory, i: str,
                 to: Optional[TypeExpr] = None) -> Derivation:
    ka = _key_annihilation(theory, i)
    return node(theory, "eq-repl", [ka],
                by=FromEmpty(Param(i) if to is None else to))


def _bridge(theory: Theory, i: str, j: str, g: Term, h: Term,
            left: bool = False) -> Derivation:
    """Right:  [g|h] . (id + c[j]) . in1  ==  case(g, h . c[j]) : P[i] -> Y.
    Left:   [g|h] . (c[i] + id) . in2  ==  case(h, g . c[i]) : P[j] -> Y."""
    kept, caught = (j, i) if left else (i, j)
    on_kept, on_caught = (h, g) if left else (g, h)
    pk = Param(kept)
    sc = SemiCoprod(Id(pk), Catch(caught), pure_on_left=not left)
    pc = PropCase(g, h)
    inj, other = ((Inj2(EMPTY, pk), Inj1(EMPTY, pk)) if left
                  else (Inj1(pk, EMPTY), Inj2(pk, EMPTY)))
    runs, skips = (("propcase-inr", "propcase-inl") if left
                   else ("propcase-inl", "propcase-inr"))
    b1 = node(theory, "semicoprod-P1", term=sc)
    b2 = node(theory, "w-repl", [b1], by=pc)
    b3 = node(theory, runs, term=pc)
    weak = node(theory, "w-trans", [b2, node(theory, "s-to-w", [b3])])
    a1 = unit_uniqueness(EXCEPTIONS, theory, comp(inj, FromEmpty(pk)))
    a2 = unit_uniqueness(EXCEPTIONS, theory, other)
    a3 = node(theory, "eq-trans", [a1, node(theory, "eq-sym", [a2])])
    a4 = node(theory, "eq-repl", [a3], by=sc)
    a5 = node(theory, "semicoprod-P2", term=sc)
    a6 = node(theory, "eq-trans", [a4, a5])
    a7 = node(theory, "eq-repl", [a6], by=pc)
    a8 = node(theory, skips, term=pc)
    a9 = node(theory, "eq-subs", [a8], by=Catch(caught))
    strong = node(theory, "eq-trans", [a7, a9])
    kt = CaseSum(on_kept, comp(on_caught, Catch(caught)))
    return node(theory, "sum-case-unique", [weak, strong],
                h=comp(pc, sc, inj), term=kt)


def _coerce_conclusion(theory: Theory, chains_eq: Derivation,
                       p1: HandlerParts, p2: HandlerParts) -> Derivation:
    """From chain1 == chain2 on the empty type (`chains_eq`) conclude the
    two handlers of one body, coerce(case(id, chain) . body), equal."""
    f = p1.body
    hc1, hc2 = CaseSum(Id(f.cod), p1.chain), CaseSum(Id(f.cod), p2.chain)
    weak = node(theory, "sum-case-weak", term=hc1)
    empty = node(theory, "eq-trans",
                 [node(theory, "sum-case-empty", term=hc1), chains_eq])
    cases_eq = node(theory, "sum-case-unique", [weak, empty], h=hc1, term=hc2)
    after_f = node(theory, "eq-subs", [cases_eq], by=f)
    cw = node(theory, "coerce-weak", term=p1.term)
    chain = node(theory, "w-trans", [cw, node(theory, "s-to-w", [after_f])])
    return node(theory, "coerce-unique", [chain], p=p1.term, term=p2.term)


def _handler_commute(theory: Theory, i: str, j: str, f=None, g=None,
                     h=None) -> Derivation:
    if i == j:
        raise E.BadParams("handler-commute needs two different keys")
    p1, p2 = _commuted(theory, i, j, f, g, h)
    (_, g), (_, h) = p1.clauses
    m1 = _dual(theory, _states_lemma, "commutation-6", {"i": i, "j": j})
    pc = PropCase(g, h)
    m2 = node(theory, "eq-repl", [m1], by=pc)
    m3 = node(theory, "eq-subs", [_bridge(theory, i, j, g, h, left=True)],
              by=Catch(j))
    m4 = node(theory, "eq-subs", [_bridge(theory, i, j, g, h)], by=Catch(i))
    m5 = node(theory, "eq-trans",
              [node(theory, "eq-trans",
                    [node(theory, "eq-sym", [m4]), node(theory, "eq-sym", [m2])]),
               m3])
    return _coerce_conclusion(theory, m5, p1, p2)


def _handler_idempotent(theory: Theory, i: str, f=None, g=None,
                        h=None) -> Derivation:
    p1, p2 = _repeated(theory, i, f, g, h)
    (_, g), (_, h) = p1.clauses
    m1 = _dual(theory, mirror_interaction3, i)
    pc = PropCase(g, h)
    n2 = node(theory, "eq-repl", [m1], by=pc)
    n3 = node(theory, "propcase-inl", term=pc)
    n4 = node(theory, "eq-subs", [n3], by=Catch(i))
    n5 = node(theory, "eq-trans", [n2, n4])
    n7 = node(theory, "eq-subs", [_bridge(theory, i, i, g, h)], by=Catch(i))
    n9 = node(theory, "eq-trans", [node(theory, "eq-sym", [n7]), n5])
    return _coerce_conclusion(theory, n9, p1, p2)


def _bridge_proof(theory: Theory, i: str, j: str, left: bool) -> Derivation:
    """A bridge as a built-in proof: g raises i into y = P[j], h is id[y]."""
    y = Param(j)
    return _bridge(theory, i, j, raise_term(theory, i, y), Id(y), left)


# ------------------------------------------------------------ catalogue

_IJ = (("i", "name"), ("j", "name"))
_FGH = ("f", "g", "h")  # a handler lemma's body and clauses, library only

# the dualized lemmas expect the standard axiom names (B1_i, B2_i_j)
LEMMAS = {
    # t[i] . c[i] == id[0], by dualizing the states proof
    "key-annihilation": Entry(_key_annihilation),
    # f == empty[Y] for a propagator f: 0 -> Y
    "initial-uniqueness": Entry(
        partial(unit_uniqueness, EXCEPTIONS), (("f", "term"),),
        example=lambda i: FromEmpty(Param(i))),
    # re-raising a caught key changes nothing
    "catch-throw": Entry(_catch_throw, (("i", "name"), ("to", "type")),
                         optional=1),
    # clause order is irrelevant across keys
    "handler-commute": Entry(_handler_commute, _IJ, extra=_FGH),
    # a repeated key's second clause is dead
    "handler-idempotent": Entry(_handler_idempotent, extra=_FGH),
}

# handler lemma pieces, at the theory's first names
_TWO = "{name} needs two exception names"
BUILTINS = {
    "bridge-r": Entry(partial(_bridge_proof, left=False), _IJ, too_few=_TWO),
    "bridge-l": Entry(partial(_bridge_proof, left=True), _IJ, too_few=_TWO),
}

CATALOGUE = Catalogue(EXCEPTIONS, LEMMAS, BUILTINS)
derive_lemma = CATALOGUE.derive_lemma
builtin_proof = CATALOGUE.builtin_proof
