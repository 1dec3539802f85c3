"""Hypothesis strategies: well-typed terms and derivations, by construction.

Terms come out of a composition walk over a small atom pool, so every drawn
term typechecks and stays within two indices. Derivations grow from an axiom
leaf by a few random weak-rule applications; every node is built through the
kernel, so the checker accepting them is not vacuous (the checker recomputes
all conclusions independently).
"""

from __future__ import annotations

from hypothesis import strategies as st

from decorlogic.exceptions import build_exceptions_theory
from decorlogic.kernel import RULES, Holds, WellFormed, axiom_node, node
from decorlogic.states import build_states_theory
from decorlogic.terms import (Catch, Comp, ConstCotuple, FromEmpty, Id,
                              LocTuple, Lookup, SemiCoprod, SemiProd, Throw,
                              ToUnit, Update, cod, comp, dom)
from decorlogic.theory import Equation, STRONG, Theory, WEAK, infer_decoration
from decorlogic.types import EMPTY, Param, UNIT, Value

STATES2 = build_states_theory("S", ["x", "y"])
EXC2 = build_exceptions_theory("E", ["i", "j"])


def state_atoms(locations) -> list:
    pool = [Id(UNIT), ToUnit(UNIT)]
    for i in locations:
        pool += [Lookup(i), Update(i), Id(Value(i)), ToUnit(Value(i))]
    return pool


def exception_atoms(constructors) -> list:
    pool = [Id(EMPTY)]
    for i in constructors:
        pool += [Throw(i), Catch(i), Id(Param(i)), FromEmpty(Param(i))]
    return pool


@st.composite
def composed_terms(draw, atoms, max_factors: int = 5):
    """A left-to-right composition walk; each factor's domain matches the
    codomain reached so far, so the result always typechecks."""
    t = draw(st.sampled_from(atoms))
    extra = draw(st.integers(min_value=0, max_value=max_factors - 1))
    for _ in range(extra):
        fits = [a for a in atoms if dom(a) == cod(t)]
        t = Comp(draw(st.sampled_from(fits)), t)
    return t


def states_terms(theory: Theory, max_factors: int = 5):
    return composed_terms(state_atoms(theory.locations), max_factors)


def exceptions_terms(theory: Theory, max_factors: int = 5):
    return composed_terms(exception_atoms(theory.constructors), max_factors)


@st.composite
def full_tuples(draw, theory: Theory):
    """tuple(i: f_i, ...) with one component per location, each 1 -> V[i]."""
    comps = []
    for i in theory.locations:
        t = draw(st.sampled_from(
            [Lookup(i), Comp(Lookup(i), ToUnit(UNIT))]))
        comps.append((i, t))
    return LocTuple(tuple(comps))


_PURE_SHAPES = (Id, ToUnit, FromEmpty)


@st.composite
def weak_derivations(draw, theory: Theory, atoms, max_steps: int = 3):
    """An axiom leaf extended by random weak-rule applications.

    The exceptions side reads composition backwards, so its substitution
    rule (pure context) is the dual of the states-side replacement rule,
    and its replacement rule (any context) the dual of substitution.
    """
    states_side = theory.flavor == "states"
    subs_rule = "w-subs" if states_side else RULES["w-repl-pure"].dual
    repl_rule = "w-repl-pure" if states_side else RULES["w-subs"].dual
    name = draw(st.sampled_from([a.name for a in theory.axioms]))
    d = axiom_node(theory, name)
    for _ in range(draw(st.integers(min_value=0, max_value=max_steps))):
        op = draw(st.sampled_from(["sym", "subs", "repl", "trans"]))
        eq = d.conclusion.eq
        if op == "sym":
            d = node(theory, "w-sym", [d])
        elif op == "subs":
            fits = [a for a in atoms if cod(a) == dom(eq.lhs)
                    and (states_side or isinstance(a, _PURE_SHAPES))]
            if not fits:
                continue
            d = node(theory, subs_rule, [d], by=draw(st.sampled_from(fits)))
        elif op == "repl":
            fits = [a for a in atoms if dom(a) == cod(eq.lhs)
                    and (not states_side or isinstance(a, _PURE_SHAPES))]
            if not fits:
                continue
            d = node(theory, repl_rule, [d], by=draw(st.sampled_from(fits)))
        else:
            refl = node(theory, "w-refl", f=eq.rhs)
            d = node(theory, "w-trans", [d, refl])
    return d


def states_derivations(theory: Theory = STATES2, max_steps: int = 3):
    return weak_derivations(theory, state_atoms(theory.locations), max_steps)


def exceptions_derivations(theory: Theory = EXC2, max_steps: int = 3):
    return weak_derivations(theory, exception_atoms(theory.constructors),
                            max_steps)


# ------------------------------------------------------ paired kernel rules

PAIRED_RULES = sorted(r for r, s in RULES.items() if s.dual not in (None, r))


def _atoms(theory: Theory) -> list:
    if theory.flavor == "states":
        return state_atoms(theory.locations)
    return exception_atoms(theory.constructors)


@st.composite
def full_families(draw, theory: Theory):
    """Components for a complete tuple (states) or cotuple (exceptions)."""
    comps = []
    for i in theory.locations:
        comps.append((i, draw(st.sampled_from(
            [Lookup(i), Comp(Lookup(i), ToUnit(UNIT))]))))
    for i in theory.constructors:
        comps.append((i, draw(st.sampled_from(
            [Throw(i), Comp(FromEmpty(EMPTY), Throw(i))]))))
    return tuple(comps)


def _observe(theory: Theory, i: str, g):
    """The premise shape of the unique rules: l[i].g, or g.t[i]."""
    if theory.flavor == "states":
        return comp(Lookup(i), g)
    return comp(g, Throw(i))


@st.composite
def paired_rule_inputs(draw, theory: Theory, rid: str):
    """Premises and instantiation for one paired rule, drawn on the rule's
    own side so that it usually applies.

    Types come from the side's own atoms. check_type admits 1 on the
    exceptions side but not 0 on the states side, so an exceptions-side
    input at type 1 would have no dual input.
    """
    atoms = _atoms(theory)
    terms = composed_terms(atoms, max_factors=3)

    def equation(kind: str) -> Equation:
        lhs = comp(draw(terms))
        rhs = comp(draw(terms))
        if (dom(rhs), cod(rhs)) != (dom(lhs), cod(lhs)):
            rhs = lhs
        return Equation(lhs, rhs, kind)

    if rid in ("final", "initial"):
        return [], {}
    if rid in ("unit-arrow", "empty-arrow"):
        t = draw(terms)
        return [], {"at": draw(st.sampled_from([dom(t), cod(t)]))}
    if rid in ("id-src", "id-tgt", "w-final", "w-initial"):
        return [], {"f": draw(terms)}
    if rid in ("binprod-proj", "bincoprod-inj"):
        tys = [dom(a) for a in atoms] + [cod(a) for a in atoms]
        return [], {"which": draw(st.sampled_from([1, 2])),
                    "left": draw(st.sampled_from(tys)),
                    "right": draw(st.sampled_from(tys))}
    if rid in ("w-to-s", "w-to-s-prop"):
        eq = equation(WEAK)
        ps = [Holds(eq)]
        if draw(st.booleans()):
            ps.append(WellFormed(eq.lhs, infer_decoration(eq.lhs)))
        return ps, {}
    if rid.startswith(("semiprod", "semicoprod")):
        pure = draw(st.sampled_from(
            [a for a in atoms if infer_decoration(a) == 0]))
        cls = SemiProd if theory.flavor == "states" else SemiCoprod
        return [], {"term": cls(pure, draw(terms), draw(st.booleans()))}
    fam = draw(full_families(theory))
    if rid in ("loc-tuple", "const-cotuple"):
        return [], {"family": fam,
                    "at": draw(st.sampled_from([i for i, _ in fam]))}
    if rid.endswith("-unique"):
        cone = (LocTuple if theory.flavor == "states" else ConstCotuple)(fam)
        g = draw(st.sampled_from([cone, comp(draw(terms))]))
        ps = [Holds(Equation(_observe(theory, i, g), comp(f), WEAK))
              for i, f in fam]
        return ps, {"family": fam, "g": g}
    # substitution and replacement: one premise and a context `by`
    eq = equation(STRONG if rid.startswith("eq-") else WEAK)
    fits = [a for a in atoms if cod(a) == dom(eq.lhs) or dom(a) == cod(eq.lhs)]
    return [Holds(eq)], {"by": draw(st.sampled_from(fits))}
