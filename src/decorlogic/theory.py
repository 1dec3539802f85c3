"""Theories: a flavor, index sets, generators, axioms; plus the type checker
and the decoration (effect level) inference.

Levels: 0 = pure, 1 = may observe the effect (read the state / throw),
2 = may cause it (write the state / catch). Every term stores its level
(`terms.Node`), generators their declared one, so level inference never
needs a theory; the type checker is what ties a term to a particular
theory (index existence, flavor gating, generator profiles).

Carrier sizes are deliberately *not* part of a theory: theories are symbolic,
finite models (models.py) attach cardinalities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import errors as E
from .terms import (
    CaseSum, Catch, CatchAll, Coerce, Comp, ConstCotuple, FromEmpty, Gen, Id,
    Inj1, Inj2, LocTuple, Lookup, PropCase, Proj1, Proj2, SemiCoprod, SemiProd,
    Term, ToUnit, Throw, Update, normalize_assoc,
)
from .types import Coprod, Empty, Named, Param, Prod, TypeExpr, Unit, Value

STRONG = "strong"
WEAK = "weak"


@dataclass(frozen=True)
class Equation:
    """lhs ≡ rhs (kind='strong') or lhs ~~ rhs (kind='weak')."""

    lhs: Term
    rhs: Term
    kind: str = STRONG

    def __str__(self) -> str:
        op = "==" if self.kind == STRONG else "~~"
        return f"{self.lhs} {op} {self.rhs}"


def eq_strong(lhs: Term, rhs: Term) -> Equation:
    return Equation(lhs, rhs, STRONG)


def eq_weak(lhs: Term, rhs: Term) -> Equation:
    return Equation(lhs, rhs, WEAK)


def norm_eq(eq: Equation) -> Equation:
    return Equation(normalize_assoc(eq.lhs), normalize_assoc(eq.rhs), eq.kind)


@dataclass(frozen=True)
class Axiom:
    name: str
    eq: Equation


@dataclass(frozen=True)
class Theory:
    name: str
    flavor: str
    locations: tuple[str, ...] = ()
    constructors: tuple[str, ...] = ()
    gens: tuple[Gen, ...] = ()
    axioms: tuple[Axiom, ...] = ()
    catch_all: bool = False

    def gen(self, name: str) -> Gen:
        for g in self.gens:
            if g.name == name:
                return g
        raise E.UnknownGenerator(f"{name!r} is not declared in theory {self.name!r}")

    def axiom(self, name: str) -> Axiom:
        for a in self.axioms:
            if a.name == name:
                return a
        raise E.UnknownAxiom(f"theory {self.name!r} has no axiom {name!r}")

    def with_gen(self, g: Gen) -> "Theory":
        if any(old.name == g.name for old in self.gens):
            raise E.TypingError(f"generator {g.name!r} already declared")
        return replace(self, gens=self.gens + (g,))

    def with_axiom(self, a: Axiom) -> "Theory":
        return replace(self, axioms=self.axioms + (a,))


# ----------------------------------------------------------- decorations

def infer_decoration(t: Term) -> int:
    """Smallest honest level of t, as the term stores it. Does not typecheck."""
    return t.level


# ------------------------------------------------------------ typecheck

def check_type(theory: Theory, ty: TypeExpr) -> None:
    if isinstance(ty, Unit):
        return
    if isinstance(ty, Empty):
        if theory.flavor == "states":
            raise E.FlavorViolation("the empty type does not occur on the states side")
        return
    if isinstance(ty, Value):
        if ty.index not in theory.locations:
            raise E.UnknownIndex(f"unknown location {ty.index!r}")
        return
    if isinstance(ty, Param):
        if ty.index not in theory.constructors:
            raise E.UnknownIndex(f"unknown exception name {ty.index!r}")
        return
    if isinstance(ty, Named):
        return
    if isinstance(ty, Prod):
        if theory.flavor == "exceptions":
            raise E.FlavorViolation("product types do not occur on the exceptions side")
        check_type(theory, ty.left)
        check_type(theory, ty.right)
        return
    if isinstance(ty, Coprod):
        if theory.flavor == "states":
            raise E.FlavorViolation("sum types do not occur on the states side")
        check_type(theory, ty.left)
        check_type(theory, ty.right)
        return
    raise TypeError(f"not a type: {ty!r}")


_STATES_ONLY = (Lookup, Update, SemiProd, LocTuple, Proj1, Proj2)
_EXC_ONLY = (Throw, Catch, CatchAll, SemiCoprod, ConstCotuple, CaseSum,
             PropCase, Coerce, FromEmpty, Inj1, Inj2)


def typecheck(theory: Theory, t: Term) -> tuple[TypeExpr, TypeExpr]:
    """Check t against the theory; return (dom, cod) on success.

    One pass over the nodes in written order, each checked against the
    facts its children store: a node's own fields before its children, the
    way it combines them after them, a family's component after that
    component. The first failing check raises.
    """
    todo: list = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, tuple):
            _check_combination(theory, *u)
            continue
        _check_node(theory, u)
        if isinstance(u, (LocTuple, ConstCotuple)):
            for k in reversed(range(len(u.components))):
                todo += ((u, k), u.components[k][1])
        elif u._kids:
            todo.append((u, None))
            todo += reversed(u.kids())
    return t.dom, t.cod


def _check_node(theory: Theory, t: Term) -> None:
    """The checks that read t's own fields only."""
    fl = theory.flavor
    if fl == "states" and isinstance(t, _EXC_ONLY):
        raise E.FlavorViolation(f"{type(t).__name__} is an exceptions-side construct")
    if fl == "exceptions" and isinstance(t, _STATES_ONLY):
        raise E.FlavorViolation(f"{type(t).__name__} is a states-side construct")

    if isinstance(t, Id):
        check_type(theory, t.at)
    elif isinstance(t, ToUnit):
        check_type(theory, t.frm)
    elif isinstance(t, FromEmpty):
        check_type(theory, t.to)
    elif isinstance(t, (Proj1, Proj2, Inj1, Inj2)):
        check_type(theory, t.left)
        check_type(theory, t.right)
    elif isinstance(t, (Lookup, Update)):
        if t.index not in theory.locations:
            raise E.UnknownIndex(f"unknown location {t.index!r}")
    elif isinstance(t, (Throw, Catch)):
        if t.index not in theory.constructors:
            raise E.UnknownIndex(f"unknown exception name {t.index!r}")
    elif isinstance(t, CatchAll):
        if not theory.catch_all:
            raise E.FlavorViolation(
                f"theory {theory.name!r} was built without the catch-all catcher")
    elif isinstance(t, Gen):
        declared = theory.gen(t.name)
        if (declared.dom, declared.cod, declared.dec) != (t.dom, t.cod, t.dec):
            raise E.TypingError(
                f"generator {t.name!r} used with profile {t.dom}->{t.cod} level "
                f"{t.dec}, declared {declared.dom}->{declared.cod} level {declared.dec}")
    elif isinstance(t, LocTuple):
        keys = tuple(i for i, _ in t.components)
        if keys != theory.locations:
            raise E.IncompleteFamily(
                f"tuple must list every location once, in order "
                f"{theory.locations}, got {keys}")
    elif isinstance(t, ConstCotuple):
        keys = tuple(i for i, _ in t.components)
        if keys != theory.constructors:
            raise E.IncompleteFamily(
                f"cotuple must list every exception name once, in order "
                f"{theory.constructors}, got {keys}")


def _check_combination(theory: Theory, t: Term, k: Optional[int]) -> None:
    """The checks on how t combines its children (component k of a
    family), once they are checked."""
    if isinstance(t, Comp):
        if t.before.cod != t.after.dom:
            raise E.CompositionMismatch(
                f"cannot compose: {t.before} ends at {t.before.cod}, "
                f"{t.after} starts at {t.after.dom}")
    elif isinstance(t, (SemiProd, SemiCoprod)):
        if t.pure.level != 0:
            raise E.PureSideRequired(
                f"the designated pure factor {t.pure} has level {t.pure.level}")
    elif isinstance(t, LocTuple):
        i, f = t.components[k]
        if f.dom != t.dom:
            raise E.DomainMismatch(f"tuple components disagree on domain at {i!r}")
        if f.cod != Value(i):
            raise E.TypingError(f"component for {i!r} must end at V[{i}], got {f.cod}")
        if f.level > 1:
            raise E.NotAnAccessor(f"tuple component for {i!r} is a modifier")
    elif isinstance(t, ConstCotuple):
        i, f = t.components[k]
        if f.cod != t.cod:
            raise E.CodomainMismatch(f"cotuple components disagree on codomain at {i!r}")
        if f.dom != Param(i):
            raise E.TypingError(f"component for {i!r} must start at P[{i}], got {f.dom}")
        if f.level > 1:
            raise E.NotAPropagator(f"cotuple component for {i!r} is a catcher")
    elif isinstance(t, CaseSum):
        if t.on_value.level > 1:
            raise E.NotAPropagator("case's value branch must not catch")
        if not isinstance(t.on_empty.dom, Empty):
            raise E.TypingError("case's exception branch must start at 0")
        if t.on_value.cod != t.on_empty.cod:
            raise E.CodomainMismatch("case branches must share a codomain")
    elif isinstance(t, PropCase):
        if t.on_left.level > 1 or t.on_right.level > 1:
            raise E.NotAPropagator("cases() takes propagators, not catchers")
        if t.on_left.cod != t.on_right.cod:
            raise E.CodomainMismatch("cases branches must share a codomain")


def typecheck_equation(theory: Theory, eq: Equation) -> None:
    typecheck(theory, eq.lhs)
    typecheck(theory, eq.rhs)
    lhs, rhs = eq.lhs, eq.rhs
    if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
        raise E.TypingError(
            f"equation relates maps of different profile: "
            f"{lhs.dom}->{lhs.cod} vs {rhs.dom}->{rhs.cod}")
    if eq.kind not in (STRONG, WEAK):
        raise E.TypingError(f"unknown equation kind {eq.kind!r}")
