"""Hypothesis strategies: well-typed terms and derivations, by construction.

Terms come out of a composition walk over a small atom pool, so every drawn
term typechecks and stays within two indices. Derivations grow from an axiom
leaf by a few random weak-rule applications; every node is built through the
kernel, so the checker accepting them is not vacuous (the checker recomputes
all conclusions independently).
"""

from __future__ import annotations

from hypothesis import strategies as st

from decorlogic import dsl
from decorlogic.exceptions import (build_exceptions_theory, handle_term,
                                   with_catch_all)
from decorlogic.kernel import RULES, Holds, WellFormed, axiom_node, node
from decorlogic.models import SUITES
from decorlogic.states import build_states_theory
from decorlogic.terms import (Catch, CatchAll, Comp, ConstCotuple, FromEmpty,
                              Id, Inj1, Inj2, LocTuple, Lookup, Proj1, Proj2,
                              Gen, PropCase, SemiCoprod, SemiProd, Throw,
                              ToUnit, Update, cod, comp, dom, term_to_text)
from decorlogic.theory import Equation, STRONG, Theory, WEAK, infer_decoration
from decorlogic.types import EMPTY, Coprod, Named, Param, Prod, UNIT, Value

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
def composed_terms(draw, atoms, max_factors: int = 5, first=None):
    """A left-to-right composition walk; each factor's domain matches the
    codomain reached so far, so the result always typechecks. The first
    factor comes from `first` when given."""
    t = draw(st.sampled_from(first or atoms))
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


# --------------------------------------------------------- random equations

def _into_hub(draw, theory: Theory, a):
    """A term a -> 1 (states) or a -> 0 (exceptions)."""
    if theory.flavor == "states":
        return draw(st.sampled_from(
            [ToUnit(a)] + ([Update(a.index)] if isinstance(a, Value) else [])))
    if isinstance(a, Coprod):
        return PropCase(_into_hub(draw, theory, a.left),
                        _into_hub(draw, theory, a.right))
    return Throw(a.index) if isinstance(a, Param) else Id(EMPTY)


def _from_hub(draw, theory: Theory, b):
    """A term 1 -> b (states, b not a product) or 0 -> b (exceptions)."""
    if theory.flavor == "states":
        return Lookup(b.index) if isinstance(b, Value) else Id(UNIT)
    outs = [FromEmpty(b)]
    if isinstance(b, Param):
        outs.append(Catch(b.index))
    elif b == UNIT and theory.catch_all:
        outs.append(CatchAll())
    elif isinstance(b, Coprod):
        outs.append(comp(Inj1(b.left, b.right), _from_hub(draw, theory, b.left)))
    return draw(st.sampled_from(outs))


def _bridge(draw, theory: Theory, a, b):
    """A term a -> b, by way of 1 (states) or 0 (exceptions)."""
    if a == b and draw(st.booleans()):
        return Id(a)
    if theory.flavor == "exceptions" and b == UNIT and draw(st.booleans()):
        return ToUnit(a)
    return comp(_from_hub(draw, theory, b), _into_hub(draw, theory, a))


@st.composite
def structured_atoms(draw, theory: Theory, extra=()):
    """The side's atoms and `extra` ones, plus its product or sum
    structure: semi-pure pairs of drawn atoms with the projections or the
    injections and case splits around them, the mediating arrow
    (full_tuples / full_families) and, on the exceptions side, try/catch
    handlers."""
    flat = _atoms(theory) + list(extra)
    atoms = list(flat)
    pure = [a for a in flat if infer_decoration(a) == 0]
    states_side = theory.flavor == "states"
    for _ in range(3):
        s = (SemiProd if states_side else SemiCoprod)(
            draw(st.sampled_from(pure)), draw(st.sampled_from(flat)),
            draw(st.booleans()))
        a, b = cod(s).left, cod(s).right
        if states_side:
            atoms += [s, Proj1(a, b), Proj2(a, b)]
        else:
            c = draw(st.sampled_from([EMPTY] + [Param(i) for i in
                                                theory.constructors]))
            atoms += [s, PropCase(comp(FromEmpty(c), _into_hub(draw, theory, a)),
                                  comp(FromEmpty(c), _into_hub(draw, theory, b))),
                      Inj1(dom(s).left, dom(s).right),
                      Inj2(dom(s).left, dom(s).right)]
    if states_side:
        atoms.append(draw(full_tuples(theory)))
        return atoms
    atoms.append(ConstCotuple(draw(full_families(theory))))
    for _ in range(2):
        y = Param(draw(st.sampled_from(theory.constructors)))

        def to_y(i):
            """Propagators P[i] -> y: re-raise, recover, or cast and raise."""
            outs = [comp(FromEmpty(y), Throw(i))]
            outs += [Id(y)] if Param(i) == y else []
            for g in extra:
                if dom(g) == Param(i) and isinstance(cod(g), Param):
                    outs.append(comp(FromEmpty(y), Throw(cod(g).index), g))
                    outs += [g] if cod(g) == y else []
            return outs

        body = draw(st.sampled_from(
            to_y(draw(st.sampled_from(theory.constructors)))))
        clauses = [(i, draw(st.sampled_from(to_y(i))))
                   for i in draw(st.lists(st.sampled_from(theory.constructors),
                                          min_size=1, max_size=2))]
        parts = handle_term(theory, body, clauses)
        atoms += [parts.term, parts.handle]
    return atoms


@st.composite
def structured_terms(draw, theory: Theory, max_factors: int = 5):
    """A composition walk over `structured_atoms(theory)`."""
    return draw(composed_terms(draw(structured_atoms(theory)), max_factors))


@st.composite
def composable_normal_pairs(draw, theory: Theory):
    """(g, f), both normal, g's domain f's codomain: composition walks over
    the side's structured atoms, and either one may be an identity."""
    atoms = draw(structured_atoms(theory))
    f = draw(composed_terms(atoms))
    g = draw(composed_terms(
        atoms, first=[Id(cod(f))] + [a for a in atoms if dom(a) == cod(f)]))
    return comp(g), comp(f)


@st.composite
def equations(draw, theory: Theory, atoms):
    """A strong or weak equation over `atoms`: a composition walk on the
    left; on the right a walk from the same domain, led to the left's
    codomain through 1 (states) or 0 (exceptions). On the exceptions side
    both sides may end in 1, by way of catchall when the theory has it."""
    lhs = draw(composed_terms(atoms))
    if isinstance(cod(lhs), Prod):
        lhs = Comp(draw(st.sampled_from(
            [Proj1(cod(lhs).left, cod(lhs).right),
             Proj2(cod(lhs).left, cod(lhs).right)])), lhs)
    if theory.flavor == "exceptions" and draw(st.booleans()):
        lhs = Comp(_bridge(draw, theory, cod(lhs), UNIT), lhs)
    rhs = draw(composed_terms(
        atoms, first=[a for a in atoms if dom(a) == dom(lhs)]))
    rhs = Comp(_bridge(draw, theory, cod(rhs), cod(lhs)), rhs)
    return Equation(comp(lhs), comp(rhs), draw(st.sampled_from([STRONG, WEAK])))


# ---------------------------------------------------------------- scripts

_G = Gen("g", Value("x"), Value("y"), 1)
_H = Gen("h", Param("i"), Param("j"), 0)

# what a drawn form may refer to: two theories with a generator each, as
# a script declares them before it
SCRIPT_HEAD = ("theory S = states(x: 2, y: 2)\n"
               "accessor gen g : V[x] -> V[y] in S\n"
               "theory E = exceptions(i: 2, j: 2) with catchall\n"
               "pure gen h : P[i] -> P[j] in E\n")
_HEAD_THEORIES = {"S": (STATES2.with_gen(_G), _G),
                  "E": (with_catch_all(EXC2).with_gen(_H), _H)}

# identifiers the grammar does not claim and the head does not declare
identifiers = st.from_regex(
    r"[A-Za-z_][A-Za-z0-9_]{0,5}(-[A-Za-z0-9_]{1,3})?", fullmatch=True
).filter(lambda s: s not in dsl._RESERVED and s not in {"S", "E", "g", "h"})

_ints = st.integers(min_value=0, max_value=20)
_indices = st.lists(identifiers, min_size=1, max_size=3, unique=True)


def types(theory: Theory):
    """Types over `theory`'s indices, products and sums fully bracketed."""
    leaves = st.sampled_from(
        [UNIT, EMPTY, Named("A")] + [Value(i) for i in theory.locations]
        + [Param(i) for i in theory.constructors])
    return st.recursive(leaves, lambda kids: st.builds(Prod, kids, kids)
                        | st.builds(Coprod, kids, kids), max_leaves=4)


def _sep(items, opens="(", ends=")") -> str:
    return opens + ", ".join(items) + ends


@st.composite
def field_texts(draw, kind: str, th: str):
    """The text of a field, rule instantiation or lemma argument of `kind`
    in a form over theory `th`, as the printer writes it."""
    theory, gen = _HEAD_THEORIES[th]
    if kind in ("term", "family", "equation"):
        atoms = draw(structured_atoms(theory, extra=[gen]))
    term = lambda: term_to_text(draw(composed_terms(atoms, max_factors=3)))
    if kind in ("fresh", "name"):
        return draw(identifiers)
    if kind == "theory":
        return th
    if kind == "suite":
        return draw(st.sampled_from(sorted(SUITES)))
    if kind == "type":
        return str(draw(types(theory)))
    if kind == "int":
        return str(draw(_ints))
    if kind == "term":
        return term()
    if kind == "family":
        return _sep([f"{i}: {term()}" for i in draw(_indices)])
    if kind == "equation":
        eq = draw(equations(theory, atoms))
        op = "==" if eq.kind == STRONG else "~~"
        return f"{term_to_text(eq.lhs)} {op} {term_to_text(eq.rhs)}"
    if kind == "sizes":
        return _sep([f"{i}: {draw(_ints)}" for i in draw(_indices)])
    if kind in ("int tuple", "int list"):
        opens, ends = "()" if kind == "int tuple" else "[]"
        vals = draw(st.lists(_ints, min_size=1, max_size=3))
        return _sep(map(str, vals), opens, ends)
    if kind == "input":
        if draw(st.booleans()):
            return str(draw(_ints))
        return f"throw({draw(identifiers)}: {draw(_ints)})"
    if kind == "steps":
        return draw(_steps_texts(th))
    if kind == "lemma call":
        lemma = draw(st.sampled_from(sorted(dsl._LEMMAS)))
        entry = dsl._LEMMAS[lemma]
        n = draw(st.integers(entry.required, len(entry.params)))
        args = [draw(field_texts(k, th)) for _, k in entry.params[:n]]
        return (f"{lemma}({', '.join(args)})" if args else lemma) + f" in {th}"
    if kind == "theory body":
        if draw(st.booleans()):
            return f"dual({draw(st.sampled_from(sorted(_HEAD_THEORIES)))})"
        flavor = draw(st.sampled_from(dsl._THEORY_KINDS))
        catch_all = flavor == "exceptions" and draw(st.booleans())
        return (flavor + draw(field_texts("sizes", th))
                + (" with catchall" if catch_all else ""))
    raise AssertionError(f"no text for field kind {kind!r}")


@st.composite
def _steps_texts(draw, th: str):
    """A proof block of one to four steps; a rule step may cite earlier
    ones, a citation step takes no premises."""
    lines = []
    for n in range(1, draw(st.integers(1, 4)) + 1):
        head = draw(st.sampled_from(["axiom", "gen", "hyp", "rule"]))
        if head == "rule":
            rule = draw(st.sampled_from(sorted(RULES)))
            keys = draw(st.lists(st.sampled_from(sorted(RULES[rule].keys)),
                                 unique=True, max_size=3)
                        if RULES[rule].keys else st.just([]))
            inst = [f"{k}={draw(field_texts(RULES[rule].key_kind(k), th))}"
                    for k in keys]
            text = f"{rule}({', '.join(inst)})" if inst else rule
        else:
            text = f"{head}({draw(identifiers)})"
        if head == "hyp" and draw(st.booleans()):
            text += f" holds {draw(field_texts('equation', th))}"
        elif head == "hyp":
            text += (f" wf {draw(field_texts('term', th))} "
                     f"level {draw(st.integers(0, 2))}")
        cited = draw(st.lists(st.integers(1, max(n - 1, 1)),
                              max_size=2 if n > 1 and head == "rule" else 0))
        if cited:
            text += " from " + ", ".join(f"s{k}" for k in cited)
        lines.append(f"  s{n}: {text};")
    return "\n".join(["{", *lines, "}"])


@st.composite
def form_texts(draw, form, clauses=None):
    """One declaration or command written in `form`, a row of the script
    grammar: its words from the row, each field drawn by its kind, and a
    trailing clause written when `clauses` says so (drawn when None)."""
    th = draw(st.sampled_from(sorted(_HEAD_THEORIES)))
    parts = []
    for optional, _, text, f in form.steps:
        if optional and not (draw(st.booleans()) if clauses is None
                             else clauses):
            continue
        if text is not None:
            parts.append(text)
        if f is not None:
            parts.append(draw(st.sampled_from(form.words)) if f.kind == "word"
                         else draw(field_texts(f.kind, th)))
    return " ".join(parts)
