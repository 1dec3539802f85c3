"""The exceptions theory: signature builder, try/catch as a derived form,
the dual law goals, and packaged kernel derivations.

An exceptions theory over names i has t[i]: P[i] -> 0 (level 1, raise) and
c[i]: 0 -> P[i] (level 2, catch), with two weak axiom families dual to the
states ones:

    B1_i:   c[i] . t[i]  ~~  id[P[i]]          catch what you just raised
    B2_i_j: c[i] . t[j]  ~~  empty[P[i]] . t[j]   (j != i)  wrong key passes

Several derivations below are not built directly: they are the duals of
states proofs, shipped through dualize_derivation and landed on this side.
That exercises the translation on every check, not just in its own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import errors as E
from .kernel import Derivation, derive_initial_uniqueness, node
from .states import build_states_theory, mirror_interaction3
from .states import derive_lemma as _states_lemma
from .terms import (
    CaseSum, Catch, CatchAll, Coerce, FromEmpty, Id, Inj1, Inj2,
    PropCase, SemiCoprod, Term, Throw, comp, normalize_assoc,
)
from .theory import Axiom, Equation, Theory, eq_strong, eq_weak, typecheck
from .translators import dualize_derivation
from .types import EMPTY, Param, TypeExpr, UNIT


def build_exceptions_theory(name: str, constructors) -> Theory:
    names = tuple(constructors)
    if len(set(names)) != len(names) or not names:
        raise E.BadParams("exception names must be non-empty and distinct")
    axioms = []
    for i in names:
        axioms.append(Axiom(
            f"B1_{i}", eq_weak(comp(Catch(i), Throw(i)), Id(Param(i)))))
    for i in names:
        for j in names:
            if j != i:
                axioms.append(Axiom(
                    f"B2_{i}_{j}",
                    eq_weak(comp(Catch(i), Throw(j)),
                            comp(FromEmpty(Param(i)), Throw(j)))))
    return Theory(name, "exceptions", constructors=names, axioms=tuple(axioms))


def with_catch_all(theory: Theory) -> Theory:
    """Extend with the untagged catcher and its axioms CA_i."""
    if theory.flavor != "exceptions":
        raise E.BadParams("catch-all lives on the exceptions side")
    from .terms import ToUnit
    axioms = list(theory.axioms)
    for i in theory.constructors:
        axioms.append(Axiom(
            f"CA_{i}",
            eq_weak(comp(CatchAll(), Throw(i)), ToUnit(Param(i)))))
    return Theory(theory.name, theory.flavor, theory.locations,
                  theory.constructors, theory.gens, tuple(axioms),
                  catch_all=True)


def semi_pure_coproduct(theory: Theory, pure: Term, eff: Term,
                        pure_on_left: bool = True) -> SemiCoprod:
    """Case a pure map against an arbitrary one; typechecked."""
    t = SemiCoprod(normalize_assoc(pure), normalize_assoc(eff), pure_on_left)
    typecheck(theory, t)
    return t


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
    y = _cod_of(theory, body)
    cl = tuple((i, normalize_assoc(g)) for i, g in clauses)
    if not cl and catch_all is None:
        raise E.EmptyHandler("a handler needs at least one clause")
    for i, g in cl:
        if i not in theory.constructors:
            raise E.UnknownIndex(f"unknown exception name {i!r}")
        typecheck(theory, g)
        if g.level > 1:
            raise E.NotAPropagator(f"clause for {i!r} must be level <= 1: {g}")
        if _dom_of(theory, g) != Param(i):
            raise E.TypingError(f"clause for {i!r} must start at P[{i}]")
        if _cod_of(theory, g) != y:
            raise E.CodomainMismatch(
                f"clause for {i!r} lands in {_cod_of(theory, g)}, body in {y}")
    acc: Optional[Term] = None
    if catch_all is not None:
        catch_all = normalize_assoc(catch_all)
        typecheck(theory, catch_all)
        if catch_all.level > 1:
            raise E.NotAPropagator("the catch-all recovery must be level <= 1")
        if _dom_of(theory, catch_all) != UNIT:
            raise E.TypingError("the catch-all recovery takes no payload (1 -> Y)")
        if _cod_of(theory, catch_all) != y:
            raise E.CodomainMismatch("the catch-all recovery lands off target")
        acc = comp(catch_all, CatchAll())
    for i, g in reversed(cl):
        if acc is None:
            acc = comp(g, Catch(i))
        else:
            acc = comp(CaseSum(g, acc), Catch(i))
    handle = comp(CaseSum(Id(y), acc), body)
    term = Coerce(handle)
    typecheck(theory, term)
    return HandlerParts(body, cl, catch_all, acc, handle, term)


def _dom_of(theory: Theory, t: Term) -> TypeExpr:
    return typecheck(theory, t)[0]


def _cod_of(theory: Theory, t: Term) -> TypeExpr:
    return typecheck(theory, t)[1]


# ----------------------------------------------------------- law goals

def key_annihilation_equation(theory: Theory, i: str) -> Equation:
    return eq_strong(comp(Throw(i), Catch(i)), Id(EMPTY))


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


def handler_commute_equation(theory: Theory, i: str, j: str,
                             f=None, g=None, h=None) -> Equation:
    """Clauses for two different keys can swap places."""
    f, g, h = _default_clauses(theory, i, Param(j), f, g, h)
    lhs = handle_term(theory, f, [(i, g), (j, h)]).term
    rhs = handle_term(theory, f, [(j, h), (i, g)]).term
    return eq_strong(lhs, rhs)


def handler_idempotent_equation(theory: Theory, i: str,
                                f=None, g=None, h=None) -> Equation:
    """A second clause for the same key is dead code."""
    f, g, h = _default_clauses(theory, i, Param(i), f, g, h)
    lhs = handle_term(theory, f, [(i, g), (i, h)]).term
    rhs = handle_term(theory, f, [(i, g)]).term
    return eq_strong(lhs, rhs)


# ------------------------------------------------------ derivations

def _twin(theory: Theory) -> Theory:
    """The states theory whose dual this one is, name for name."""
    return build_states_theory(theory.name + "-mirror", theory.constructors)


def _key_annihilation(theory: Theory, i: str) -> Derivation:
    twin = _twin(theory)
    d = _states_lemma(twin, "annihilation", {"i": i})
    return dualize_derivation(twin, d, target=theory)


def _catch_throw(theory: Theory, i: str, to: TypeExpr) -> Derivation:
    ka = _key_annihilation(theory, i)
    return node(theory, "eq-repl", [ka], by=FromEmpty(to))


def _check_clause(theory: Theory, g: Term, at: str, y: TypeExpr) -> Term:
    g = normalize_assoc(g)
    typecheck(theory, g)
    if g.level > 1:
        raise E.NotAPropagator(f"clause must be level <= 1: {g}")
    if _dom_of(theory, g) != Param(at) or _cod_of(theory, g) != y:
        raise E.TypingError(f"clause must map P[{at}] to {y}: {g}")
    return g


def _bridge_right(theory: Theory, i: str, j: str, g: Term, h: Term
                  ) -> Derivation:
    """[g|h] . (id + c[j]) . in1  ==  case(g, h . c[j]) : P[i] -> Y."""
    pi, pj = Param(i), Param(j)
    sc = SemiCoprod(Id(pi), Catch(j), pure_on_left=True)
    pc = PropCase(g, h)
    in1 = Inj1(pi, EMPTY)
    b1 = node(theory, "semicoprod-P1", term=sc)
    b2 = node(theory, "w-repl", [b1], by=pc)
    b3 = node(theory, "propcase-inl", term=pc)
    weak = node(theory, "w-trans", [b2, node(theory, "s-to-w", [b3])])
    a1 = derive_initial_uniqueness(theory, comp(in1, FromEmpty(pi)))
    a2 = derive_initial_uniqueness(theory, Inj2(pi, EMPTY))
    a3 = node(theory, "eq-trans", [a1, node(theory, "eq-sym", [a2])])
    a4 = node(theory, "eq-repl", [a3], by=sc)
    a5 = node(theory, "semicoprod-P2", term=sc)
    a6 = node(theory, "eq-trans", [a4, a5])
    a7 = node(theory, "eq-repl", [a6], by=pc)
    a8 = node(theory, "propcase-inr", term=pc)
    a9 = node(theory, "eq-subs", [a8], by=Catch(j))
    strong = node(theory, "eq-trans", [a7, a9])
    r = comp(pc, sc, in1)
    kt = CaseSum(g, comp(h, Catch(j)))
    return node(theory, "sum-case-unique", [weak, strong], h=r, term=kt)


def _bridge_left(theory: Theory, i: str, j: str, g: Term, h: Term
                 ) -> Derivation:
    """[g|h] . (c[i] + id) . in2  ==  case(h, g . c[i]) : P[j] -> Y."""
    pi, pj = Param(i), Param(j)
    sc = SemiCoprod(Id(pj), Catch(i), pure_on_left=False)
    pc = PropCase(g, h)
    in2 = Inj2(EMPTY, pj)
    b1 = node(theory, "semicoprod-P1", term=sc)
    b2 = node(theory, "w-repl", [b1], by=pc)
    b3 = node(theory, "propcase-inr", term=pc)
    weak = node(theory, "w-trans", [b2, node(theory, "s-to-w", [b3])])
    a1 = derive_initial_uniqueness(theory, comp(in2, FromEmpty(pj)))
    a2 = derive_initial_uniqueness(theory, Inj1(EMPTY, pj))
    a3 = node(theory, "eq-trans", [a1, node(theory, "eq-sym", [a2])])
    a4 = node(theory, "eq-repl", [a3], by=sc)
    a5 = node(theory, "semicoprod-P2", term=sc)
    a6 = node(theory, "eq-trans", [a4, a5])
    a7 = node(theory, "eq-repl", [a6], by=pc)
    a8 = node(theory, "propcase-inl", term=pc)
    a9 = node(theory, "eq-subs", [a8], by=Catch(i))
    strong = node(theory, "eq-trans", [a7, a9])
    l = comp(pc, sc, in2)
    kt = CaseSum(h, comp(g, Catch(i)))
    return node(theory, "sum-case-unique", [weak, strong], h=l, term=kt)


def _coerce_conclusion(theory: Theory, cases_eq: Derivation, f: Term,
                       h_case: Term, h1_case: Term) -> Derivation:
    """From case(id,K) == case(id,K') conclude the coerced handlers equal."""
    after_f = node(theory, "eq-subs", [cases_eq], by=f)
    k1 = comp(h_case, f)
    k2 = comp(h1_case, f)
    cw = node(theory, "coerce-weak", term=Coerce(k1))
    chain = node(theory, "w-trans", [cw, node(theory, "s-to-w", [after_f])])
    return node(theory, "coerce-unique", [chain], p=Coerce(k1), term=Coerce(k2))


def _handler_commute(theory: Theory, i: str, j: str, f: Term, g: Term,
                     h: Term) -> Derivation:
    if i == j:
        raise E.BadParams("handler-commute needs two different keys")
    f = normalize_assoc(f)
    typecheck(theory, f)
    if f.level > 1:
        raise E.NotAPropagator("the handled body must be level <= 1")
    y = _cod_of(theory, f)
    g = _check_clause(theory, g, i, y)
    h = _check_clause(theory, h, j, y)

    twin = _twin(theory)
    d6 = _states_lemma(twin, "commutation-6", {"i": i, "j": j})
    m1 = dualize_derivation(twin, d6, target=theory)
    pc = PropCase(g, h)
    m2 = node(theory, "eq-repl", [m1], by=pc)
    m3 = node(theory, "eq-subs", [_bridge_left(theory, i, j, g, h)],
              by=Catch(j))
    m4 = node(theory, "eq-subs", [_bridge_right(theory, i, j, g, h)],
              by=Catch(i))
    m5 = node(theory, "eq-trans",
              [node(theory, "eq-trans",
                    [node(theory, "eq-sym", [m4]), node(theory, "eq-sym", [m2])]),
               m3])
    k = comp(CaseSum(g, comp(h, Catch(j))), Catch(i))
    k_swapped = comp(CaseSum(h, comp(g, Catch(i))), Catch(j))
    hc = CaseSum(Id(y), k)
    hc_swapped = CaseSum(Id(y), k_swapped)
    m6 = node(theory, "sum-case-weak", term=hc)
    m7 = node(theory, "sum-case-empty", term=hc)
    m8 = node(theory, "eq-trans", [m7, m5])
    m9 = node(theory, "sum-case-unique", [m6, m8], h=hc, term=hc_swapped)
    return _coerce_conclusion(theory, m9, f, hc, hc_swapped)


def _handler_idempotent(theory: Theory, i: str, f: Term, g: Term,
                        h: Term) -> Derivation:
    f = normalize_assoc(f)
    typecheck(theory, f)
    if f.level > 1:
        raise E.NotAPropagator("the handled body must be level <= 1")
    y = _cod_of(theory, f)
    g = _check_clause(theory, g, i, y)
    h = _check_clause(theory, h, i, y)

    twin = _twin(theory)
    dm = mirror_interaction3(twin, i)
    m1 = dualize_derivation(twin, dm, target=theory)
    pc = PropCase(g, h)
    n2 = node(theory, "eq-repl", [m1], by=pc)
    n3 = node(theory, "propcase-inl", term=pc)
    n4 = node(theory, "eq-subs", [n3], by=Catch(i))
    n5 = node(theory, "eq-trans", [n2, n4])
    br = _bridge_right(theory, i, i, g, h)
    n7 = node(theory, "eq-subs", [br], by=Catch(i))
    n9 = node(theory, "eq-trans", [node(theory, "eq-sym", [n7]), n5])
    k = comp(CaseSum(g, comp(h, Catch(i))), Catch(i))
    k_single = comp(g, Catch(i))
    hc = CaseSum(Id(y), k)
    hc_single = CaseSum(Id(y), k_single)
    n10 = node(theory, "sum-case-weak", term=hc)
    n11 = node(theory, "sum-case-empty", term=hc)
    n12 = node(theory, "eq-trans", [n11, n9])
    n13 = node(theory, "sum-case-unique", [n10, n12], h=hc, term=hc_single)
    return _coerce_conclusion(theory, n13, f, hc, hc_single)


LEMMAS = ("key-annihilation", "initial-uniqueness", "catch-throw",
          "handler-commute", "handler-idempotent")


def derive_lemma(theory: Theory, lemma_id: str, params=None) -> Derivation:
    """Build the named lemma's derivation for the given theory.

    key-annihilation(i):  t[i] . c[i] == id[0], by dualizing the states proof
    initial-uniqueness(f): f == empty[Y] for a propagator f: 0 -> Y
    catch-throw(i [, to]): re-raising a caught key changes nothing
    handler-commute(i, j [, f, g, h]): clause order is irrelevant across keys
    handler-idempotent(i [, f, g, h]): a repeated key's second clause is dead

    The dualized lemmas expect the standard axiom names (B1_i, B2_i_j).
    """
    p = dict(params or {})
    if theory.flavor != "exceptions":
        raise E.BadParams("exceptions lemmas need an exceptions theory")

    def want(key):
        if key not in p:
            raise E.BadParams(f"lemma {lemma_id!r} needs parameter {key!r}")
        return p[key]

    if lemma_id == "key-annihilation":
        return _key_annihilation(theory, _name(theory, want("i")))
    if lemma_id == "initial-uniqueness":
        return derive_initial_uniqueness(theory, want("f"))
    if lemma_id == "catch-throw":
        i = _name(theory, want("i"))
        return _catch_throw(theory, i, p.get("to", Param(i)))
    if lemma_id == "handler-commute":
        i, j = _name(theory, want("i")), _name(theory, want("j"))
        f, g, h = _default_clauses(theory, i, Param(j),
                                   p.get("f"), p.get("g"), p.get("h"))
        return _handler_commute(theory, i, j, f, g, h)
    if lemma_id == "handler-idempotent":
        i = _name(theory, want("i"))
        f, g, h = _default_clauses(theory, i, Param(i),
                                   p.get("f"), p.get("g"), p.get("h"))
        return _handler_idempotent(theory, i, f, g, h)
    raise E.UnknownLemma(f"no exceptions lemma {lemma_id!r} "
                         f"(expected one of {', '.join(LEMMAS)})")


def _name(theory: Theory, i) -> str:
    if i not in theory.constructors:
        raise E.UnknownIndex(f"unknown exception name {i!r}")
    return i


# ----------------------------------------------------- built-in proofs

def builtin_proof(theory: Theory, name: str) -> Derivation:
    """Replayable handler lemma pieces at default keys."""
    names = theory.constructors
    if name in {"bridge-r", "bridge-l"}:
        if len(names) < 2:
            raise E.BadParams(f"{name} needs two exception names")
        i, j = names[0], names[1]
        y = Param(j)
        g = raise_term(theory, i, y)
        h = Id(y)
        fn = _bridge_right if name == "bridge-r" else _bridge_left
        return fn(theory, i, j, g, h)
    raise E.UnknownLemma(f"no built-in proof {name!r}")
