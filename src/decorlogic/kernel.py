"""The proof kernel: rule catalog, rule application, derivation checking,
and a small saturation prover.

A derivation is a tree whose nodes each carry the rule they claim to apply,
the instantiation it needs, and the conclusion they claim to reach. The
checker recomputes every conclusion bottom-up with `apply_rule` and compares
against the stored one, so changing any single node (the root included)
makes the tree invalid.

Leaf citations are not catalog rules: ('axiom', name) quotes a theory axiom,
('gen', name) quotes a generator's declared profile, ('hyp', label) assumes a
judgment (reported, so validity is "relative to hypotheses").

Rule naming follows the construct it governs, with the w- prefix for the weak
variants. Conclusions are always associativity/identity-normalized; premise
matching is structural equality of normalized judgments.

States and exceptions are dual: each states-side rule and its exceptions-side
partner are one implementation, read on either side (`_Side`), and
`RuleSpec.dual` names the partner that `dualize_derivation` switches to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from . import errors as E
from .terms import (
    CaseSum, Catch, Coerce, Comp, ConstCotuple, FromEmpty, Id, Inj1, Inj2,
    LocTuple, Lookup, PropCase, Proj1, Proj2, SemiCoprod, SemiProd, TERM_CLASSES,
    Term, ToUnit, Throw, Update, cod, dom, normalize_assoc, subterms, term_size,
)
from .theory import (
    Equation, STRONG, Theory, WEAK, infer_decoration, norm_eq, typecheck,
    typecheck_equation,
)
from .types import EMPTY, TYPE_CLASSES, TypeExpr, UNIT, Unit, Empty


# ------------------------------------------------------------- judgments

@dataclass(frozen=True)
class Holds:
    """The equation has a proof."""

    eq: Equation

    def __str__(self) -> str:
        return str(self.eq)


@dataclass(frozen=True)
class WellFormed:
    """The term is well-formed at the given level."""

    term: Term
    level: int

    def __str__(self) -> str:
        return f"{self.term} : level {self.level}"


Judgment = Union[Holds, WellFormed]

RuleRef = Union[str, tuple]  # rule id, or ('axiom'|'gen'|'hyp', name)


@dataclass(frozen=True)
class Derivation:
    rule: RuleRef
    premises: tuple["Derivation", ...]
    inst: tuple[tuple[str, Any], ...]
    conclusion: Judgment

    def iter_nodes(self):
        yield self
        for p in self.premises:
            yield from p.iter_nodes()

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_nodes())


# ------------------------------------------------- instantiation helpers

def _arity(premises: tuple, n: int, rid: str) -> None:
    if len(premises) != n:
        raise E.BadPremises(f"{rid} takes {n} premises, got {len(premises)}")


def _as_holds(p: Judgment, rid: str) -> Equation:
    if not isinstance(p, Holds):
        raise E.BadPremises(f"{rid} needs an equation premise, got {p}")
    return p.eq


def _as_wf(p: Judgment, rid: str) -> WellFormed:
    if not isinstance(p, WellFormed):
        raise E.BadPremises(f"{rid} needs a well-formedness premise, got {p}")
    return p


def _kind(eq: Equation, kind: str, rid: str) -> Equation:
    if eq.kind != kind:
        raise E.BadPremises(f"{rid} needs a {kind} equation, got {eq.kind}")
    return eq


def _wkind(theory: Theory) -> str:
    # the plain flavor has no weak/strong distinction
    return WEAK if theory.flavor != "plain" else STRONG


def _take(inst: dict, key: str, rid: str) -> Any:
    if key not in inst:
        raise E.BadInstantiation(f"{rid} needs instantiation key {key!r}")
    return inst.pop(key)


def _take_term(theory: Theory, inst: dict, key: str, rid: str) -> Term:
    v = _take(inst, key, rid)
    if not isinstance(v, TERM_CLASSES):
        raise E.BadInstantiation(f"{rid}: {key!r} must be a term")
    v = normalize_assoc(v)
    typecheck(theory, v)
    return v


def _take_type(theory: Theory, inst: dict, key: str, rid: str) -> TypeExpr:
    from .theory import check_type
    v = _take(inst, key, rid)
    if not isinstance(v, TYPE_CLASSES):
        raise E.BadInstantiation(f"{rid}: {key!r} must be a type")
    check_type(theory, v)
    return v


def _take_family(theory: Theory, inst: dict, key: str, rid: str
                 ) -> tuple[tuple[str, Term], ...]:
    v = _take(inst, key, rid)
    try:
        fam = tuple((str(i), normalize_assoc(f)) for i, f in v)
    except Exception:
        raise E.BadInstantiation(f"{rid}: {key!r} must be (index, term) pairs")
    return fam


def _done(inst: dict, rid: str) -> None:
    if inst:
        raise E.BadInstantiation(f"{rid}: unexpected keys {sorted(inst)}")


def _decorated(theory: Theory) -> bool:
    return theory.flavor != "plain"


def _require_level(theory: Theory, t: Term, k: int, rid: str, what: str) -> None:
    if _decorated(theory) and infer_decoration(t) > k:
        raise E.SideConditionViolated(
            f"{rid}: {what} must be level <= {k}, {t} has level {infer_decoration(t)}")


def _require_pure(theory: Theory, t: Term, rid: str, what: str) -> None:
    _require_level(theory, t, 0, rid, what)


# ----------------------------------------------------------- rule table

@dataclass(frozen=True)
class RuleSpec:
    rid: str
    flavors: frozenset
    impl: Callable
    doc: str
    dual: Optional[str]  # the rule read on the other side; None if it has none


RULES: dict[str, RuleSpec] = {}

_CORE = frozenset({"states", "exceptions", "plain"})
_ST = frozenset({"states", "plain"})
_EX = frozenset({"exceptions", "plain"})


def _rule(rid: str, flavors: frozenset, doc: str):
    """Register a rule of one reading: a core rule is its own dual, a rule
    of one side only (the handler rules) has none."""
    def deco(fn):
        RULES[rid] = RuleSpec(rid, flavors, fn, doc,
                              rid if flavors == _CORE else None)
        return fn
    return deco


@dataclass(frozen=True)
class _Side:
    """One side of the duality between states and exceptions.

    The exceptions side is the states side read in the opposite category:
    sources and targets swap, composition reverses, and each construct is
    traded for its dual. The fields are named after the states-side
    construct they stand for, so a rule written once against a side reads
    as the states-side rule and, on the other side, as its dual.
    """

    op: bool                 # read in the opposite category
    unit: type               # Unit / Empty
    to_unit: type            # ToUnit / FromEmpty
    lookup: type             # Lookup / Throw
    loc_tuple: type          # LocTuple / ConstCotuple
    semi: type               # SemiProd / SemiCoprod
    projs: tuple             # (Proj1, Proj2) / (Inj1, Inj2)

    def src(self, t: Term) -> TypeExpr:
        return cod(t) if self.op else dom(t)

    def tgt(self, t: Term) -> TypeExpr:
        return dom(t) if self.op else cod(t)

    def then(self, g: Term, f: Term) -> Term:
        """f, then g: g.f on the states side, f.g on the exceptions side."""
        return normalize_assoc(Comp(f, g) if self.op else Comp(g, f))


_STATES = _Side(False, Unit, ToUnit, Lookup, LocTuple, SemiProd, (Proj1, Proj2))
_EXCEPTIONS = _Side(True, Empty, FromEmpty, Throw, ConstCotuple, SemiCoprod,
                    (Inj1, Inj2))


def _rule_pair(st_rid: str, st_doc: str, ex_rid: str, ex_doc: str,
               flavors: tuple = (_ST, _EX), **params):
    """Register one implementation twice: read on the states side as st_rid
    and on the exceptions side as its dual ex_rid.

    The implementation takes the side and the rule id ahead of the usual
    (theory, premises, instantiation), and `params` as keywords.
    """
    def deco(fn):
        for side, rid, doc, fl, dual in (
                (_STATES, st_rid, st_doc, flavors[0], ex_rid),
                (_EXCEPTIONS, ex_rid, ex_doc, flavors[1], st_rid)):
            RULES[rid] = RuleSpec(rid, fl, partial(fn, side, rid, **params),
                                  doc, dual)
        return fn
    return deco


def list_rules(flavor: Optional[str] = None) -> list[str]:
    if flavor is None:
        return sorted(RULES)
    return sorted(r for r, s in RULES.items() if flavor in s.flavors)


# core category rules ---------------------------------------------------

@_rule("comp", _CORE, "WF(f,a), WF(g,b) => WF(g.f, max(a,b))")
def _r_comp(theory, ps, inst):
    _arity(ps, 2, "comp")
    wf_f, wf_g = _as_wf(ps[0], "comp"), _as_wf(ps[1], "comp")
    _done(inst, "comp")
    if cod(wf_f.term) != dom(wf_g.term):
        raise E.BadPremises("comp: premises do not compose")
    t = normalize_assoc(Comp(wf_g.term, wf_f.term))
    return WellFormed(t, max(wf_f.level, wf_g.level))


@_rule("id", _CORE, "=> WF(id[T], 2)")
def _r_id(theory, ps, inst):
    _arity(ps, 0, "id")
    at = _take_type(theory, inst, "at", "id")
    _done(inst, "id")
    return WellFormed(Id(at), 2)


@_rule("0-id", _CORE, "=> WF(id[T], 0)")
def _r_zid(theory, ps, inst):
    _arity(ps, 0, "0-id")
    at = _take_type(theory, inst, "at", "0-id")
    _done(inst, "0-id")
    return WellFormed(Id(at), 0)


@_rule("assoc", _CORE, "=> h.(g.f) == (h.g).f  (normal forms coincide)")
def _r_assoc(theory, ps, inst):
    _arity(ps, 0, "assoc")
    f = _take_term(theory, inst, "f", "assoc")
    g = _take_term(theory, inst, "g", "assoc")
    h = _take_term(theory, inst, "h", "assoc")
    _done(inst, "assoc")
    lhs = normalize_assoc(Comp(h, Comp(g, f)))
    rhs = normalize_assoc(Comp(Comp(h, g), f))
    typecheck(theory, lhs)
    return Holds(Equation(lhs, rhs, STRONG))


@_rule_pair("id-src", "=> f.id == f", "id-tgt", "=> id.f == f",
            flavors=(_CORE, _CORE))
def _r_id_src(side, rid, theory, ps, inst):
    _arity(ps, 0, rid)
    f = _take_term(theory, inst, "f", rid)
    _done(inst, rid)
    return Holds(Equation(side.then(f, Id(side.src(f))), f, STRONG))


@_rule("eq-refl", _CORE, "=> f == f")
def _r_eq_refl(theory, ps, inst):
    _arity(ps, 0, "eq-refl")
    f = _take_term(theory, inst, "f", "eq-refl")
    _done(inst, "eq-refl")
    return Holds(Equation(f, f, STRONG))


@_rule("eq-sym", _CORE, "a == b => b == a")
def _r_eq_sym(theory, ps, inst):
    _arity(ps, 1, "eq-sym")
    eq = _kind(_as_holds(ps[0], "eq-sym"), STRONG, "eq-sym")
    _done(inst, "eq-sym")
    return Holds(Equation(eq.rhs, eq.lhs, STRONG))


@_rule("eq-trans", _CORE, "a == b, b == c => a == c")
def _r_eq_trans(theory, ps, inst):
    _arity(ps, 2, "eq-trans")
    e1 = _kind(_as_holds(ps[0], "eq-trans"), STRONG, "eq-trans")
    e2 = _kind(_as_holds(ps[1], "eq-trans"), STRONG, "eq-trans")
    _done(inst, "eq-trans")
    if e1.rhs != e2.lhs:
        raise E.BadPremises("eq-trans: middle terms differ")
    return Holds(Equation(e1.lhs, e2.rhs, STRONG))


@_rule_pair("eq-subs", "g1 == g2 => g1.f == g2.f",
            "eq-repl", "f1 == f2 => g.f1 == g.f2",
            flavors=(_CORE, _CORE), weak=False, after=False, pure=False)
@_rule_pair("w-subs", "g1 ~~ g2 => g1.f ~~ g2.f (any f)",
            "w-repl", "f1 ~~ f2 => g.f1 ~~ g.f2 (any g)",
            weak=True, after=False, pure=False)
@_rule_pair("w-repl-pure", "f1 ~~ f2 => g.f1 ~~ g.f2 (g pure)",
            "w-subs-pure", "g1 ~~ g2 => g1.f ~~ g2.f (f pure)",
            weak=True, after=True, pure=True)
def _r_congruence(side, rid, theory, ps, inst, *, weak, after, pure):
    """Compose the context `by` with both sides of the premise: first
    (substitution) or, with `after`, last (replacement)."""
    _arity(ps, 1, rid)
    eq = _kind(_as_holds(ps[0], rid), _wkind(theory) if weak else STRONG, rid)
    c = _take_term(theory, inst, "by", rid)
    _done(inst, rid)
    if pure:
        _require_pure(theory, c, rid, "the context")

    def around(t: Term) -> tuple[Term, Term]:
        return (c, t) if after else (t, c)

    g, f = around(eq.lhs)
    if side.tgt(f) != side.src(g):
        raise E.BadInstantiation(f"{rid}: the context does not compose")
    return Holds(Equation(side.then(*around(eq.lhs)),
                          side.then(*around(eq.rhs)), eq.kind))


# decoration bookkeeping ------------------------------------------------

@_rule("0-to-1", _CORE, "WF(t,0) => WF(t,1)")
def _r_0_to_1(theory, ps, inst):
    _arity(ps, 1, "0-to-1")
    wf = _as_wf(ps[0], "0-to-1")
    _done(inst, "0-to-1")
    if wf.level != 0:
        raise E.BadPremises("0-to-1 lifts level 0")
    return WellFormed(wf.term, 1)


@_rule("1-to-2", _CORE, "WF(t,1) => WF(t,2)")
def _r_1_to_2(theory, ps, inst):
    _arity(ps, 1, "1-to-2")
    wf = _as_wf(ps[0], "1-to-2")
    _done(inst, "1-to-2")
    if wf.level != 1:
        raise E.BadPremises("1-to-2 lifts level 1")
    return WellFormed(wf.term, 2)


@_rule("0-comp", _CORE, "WF(f,0), WF(g,0) => WF(g.f, 0)")
def _r_0_comp(theory, ps, inst):
    _arity(ps, 2, "0-comp")
    wf_f, wf_g = _as_wf(ps[0], "0-comp"), _as_wf(ps[1], "0-comp")
    _done(inst, "0-comp")
    if wf_f.level != 0 or wf_g.level != 0:
        raise E.BadPremises("0-comp composes two level-0 terms")
    if cod(wf_f.term) != dom(wf_g.term):
        raise E.BadPremises("0-comp: premises do not compose")
    return WellFormed(normalize_assoc(Comp(wf_g.term, wf_f.term)), 0)


@_rule("1-comp", _CORE, "WF(f,1), WF(g,1) => WF(g.f, 1)")
def _r_1_comp(theory, ps, inst):
    _arity(ps, 2, "1-comp")
    wf_f, wf_g = _as_wf(ps[0], "1-comp"), _as_wf(ps[1], "1-comp")
    _done(inst, "1-comp")
    if wf_f.level > 1 or wf_g.level > 1:
        raise E.BadPremises("1-comp composes two level-<=1 terms")
    if cod(wf_f.term) != dom(wf_g.term):
        raise E.BadPremises("1-comp: premises do not compose")
    return WellFormed(normalize_assoc(Comp(wf_g.term, wf_f.term)), 1)


# weak-equation core ----------------------------------------------------

@_rule("w-refl", _CORE, "=> f ~~ f")
def _r_w_refl(theory, ps, inst):
    _arity(ps, 0, "w-refl")
    f = _take_term(theory, inst, "f", "w-refl")
    _done(inst, "w-refl")
    return Holds(Equation(f, f, _wkind(theory)))


@_rule("w-sym", _CORE, "a ~~ b => b ~~ a")
def _r_w_sym(theory, ps, inst):
    _arity(ps, 1, "w-sym")
    eq = _kind(_as_holds(ps[0], "w-sym"), _wkind(theory), "w-sym")
    _done(inst, "w-sym")
    return Holds(Equation(eq.rhs, eq.lhs, eq.kind))


@_rule("w-trans", _CORE, "a ~~ b, b ~~ c => a ~~ c")
def _r_w_trans(theory, ps, inst):
    _arity(ps, 2, "w-trans")
    wk = _wkind(theory)
    e1 = _kind(_as_holds(ps[0], "w-trans"), wk, "w-trans")
    e2 = _kind(_as_holds(ps[1], "w-trans"), wk, "w-trans")
    _done(inst, "w-trans")
    if e1.rhs != e2.lhs:
        raise E.BadPremises("w-trans: middle terms differ")
    return Holds(Equation(e1.lhs, e2.rhs, wk))


@_rule("s-to-w", _CORE, "a == b => a ~~ b")
def _r_s_to_w(theory, ps, inst):
    _arity(ps, 1, "s-to-w")
    eq = _kind(_as_holds(ps[0], "s-to-w"), STRONG, "s-to-w")
    _done(inst, "s-to-w")
    return Holds(Equation(eq.lhs, eq.rhs, _wkind(theory)))


# rule pairs: each states-side rule, read on the exceptions side ---------

@_rule_pair("w-to-s", "a ~~ b => a == b (both levels <= 1)",
            "w-to-s-prop", "a ~~ b => a == b (both levels <= 1)")
def _r_w_to_s(side, rid, theory, ps, inst):
    if len(ps) not in (1, 2):
        raise E.BadPremises(f"{rid} takes the weak premise, optionally a WF premise")
    eq = _kind(_as_holds(ps[0], rid), _wkind(theory), rid)
    if len(ps) == 2:
        wf = _as_wf(ps[1], rid)
        if wf.term not in (eq.lhs, eq.rhs):
            raise E.BadPremises(f"{rid}: WF premise names a term not in the equation")
        if wf.level > 1:
            raise E.BadPremises(f"{rid}: WF premise must be level <= 1")
    _done(inst, rid)
    _require_level(theory, eq.lhs, 1, rid, "left side")
    _require_level(theory, eq.rhs, 1, rid, "right side")
    return Holds(Equation(eq.lhs, eq.rhs, STRONG))


@_rule_pair("final", "=> WF(id[1], 0)", "initial", "=> WF(id[0], 0)")
def _r_final(side, rid, theory, ps, inst):
    _arity(ps, 0, rid)
    _done(inst, rid)
    return WellFormed(Id(side.unit()), 0)


@_rule_pair("unit-arrow", "=> WF(unit[X], 0)",
            "empty-arrow", "=> WF(empty[Y], 0)")
def _r_unit_arrow(side, rid, theory, ps, inst):
    _arity(ps, 0, rid)
    at = _take_type(theory, inst, "at", rid)
    _done(inst, rid)
    return WellFormed(side.to_unit(at), 0)


@_rule_pair("w-final", "=> f ~~ unit[X] for f: X -> 1",
            "w-initial", "=> f ~~ empty[Y] for f: 0 -> Y")
def _r_w_final(side, rid, theory, ps, inst):
    _arity(ps, 0, rid)
    f = _take_term(theory, inst, "f", rid)
    _done(inst, rid)
    if not isinstance(side.tgt(f), side.unit):
        raise E.BadInstantiation(
            f"{rid} applies to maps {'out of' if side.op else 'into'} {side.unit()}")
    return Holds(Equation(f, side.to_unit(side.src(f)), _wkind(theory)))


@_rule_pair("loc-tuple", "=> l[i].tuple(..) ~~ component i",
            "const-cotuple", "=> cotuple(..).t[i] ~~ component i")
def _r_loc_tuple(side, rid, theory, ps, inst):
    _arity(ps, 0, rid)
    fam = _take_family(theory, inst, "family", rid)
    at = _take(inst, "at", rid)
    _done(inst, rid)
    cone = side.loc_tuple(fam)
    typecheck(theory, cone)
    fam_map = dict(fam)
    if at not in fam_map:
        raise E.BadInstantiation(f"{rid}: no component for {at!r}")
    return Holds(Equation(side.then(side.lookup(at), cone), fam_map[at],
                          _wkind(theory)))


@_rule_pair("loc-tuple-unique",
            "l[i].g ~~ f_i for every location => g == tuple(f)",
            "const-cotuple-unique",
            "g.t[i] ~~ f_i for every exception name => g == cotuple(f)")
def _r_loc_tuple_unique(side, rid, theory, ps, inst):
    fam = _take_family(theory, inst, "family", rid)
    g = _take_term(theory, inst, "g", rid)
    _done(inst, rid)
    cone = side.loc_tuple(fam)
    typecheck(theory, cone)
    if side.src(g) != side.src(cone) or not isinstance(side.tgt(g), side.unit):
        raise E.BadInstantiation(f"{rid}: g must share the cone's profile")
    _arity(ps, len(fam), rid)
    wk = _wkind(theory)
    for (i, fi), p in zip(fam, ps):
        want = Equation(side.then(side.lookup(i), g), fi, wk)
        if _as_holds(p, rid) != want:
            raise E.BadPremises(
                f"{rid}: premise for {i!r} should be {want}, got {p}")
    return Holds(Equation(g, cone, STRONG))


@_rule_pair("semiprod-P1", "=> weak projection law, pure factor",
            "semicoprod-P1", "=> weak injection law, pure factor", pure=True)
@_rule_pair("semiprod-P2", "=> strong projection law, effectful factor",
            "semicoprod-P2", "=> strong injection law, effectful factor",
            pure=False)
def _r_semi_projection(side, rid, theory, ps, inst, *, pure):
    """Projecting a semi-pure pairing onto one factor: weakly the pure one,
    strongly the effectful one."""
    _arity(ps, 0, rid)
    t = _take_term(theory, inst, "term", rid)
    _done(inst, rid)
    if not isinstance(t, side.semi):
        raise E.BadInstantiation(f"{rid} needs a {side.semi.__name__} term")
    first, second = (t.pure, t.eff) if t.pure_on_left else (t.eff, t.pure)
    proj = side.projs[0] if pure == t.pure_on_left else side.projs[1]
    lhs = side.then(proj(side.tgt(first), side.tgt(second)), t)
    rhs = side.then(t.pure if pure else t.eff,
                    proj(side.src(first), side.src(second)))
    return Holds(Equation(lhs, rhs, _wkind(theory) if pure else STRONG))


@_rule_pair("binprod-proj", "=> WF(p1/p2, 0)", "bincoprod-inj", "=> WF(in1/in2, 0)")
def _r_binprod_proj(side, rid, theory, ps, inst):
    _arity(ps, 0, rid)
    which = _take(inst, "which", rid)
    left = _take_type(theory, inst, "left", rid)
    right = _take_type(theory, inst, "right", rid)
    _done(inst, rid)
    if which not in (1, 2):
        raise E.BadInstantiation(f"{rid}: which must be 1 or 2")
    return WellFormed((side.projs[0] if which == 1 else side.projs[1])(left, right), 0)


# handler rules: exceptions side only, no dual ---------------------------

def _case_term(theory, inst, rid) -> CaseSum:
    t = _take_term(theory, inst, "term", rid)
    if not isinstance(t, CaseSum):
        raise E.BadInstantiation(f"{rid} needs a case(g, k) term")
    return t


@_rule("sum-case-exists", _EX, "=> WF(case(g,k), level)")
def _r_sum_case_exists(theory, ps, inst):
    _arity(ps, 0, "sum-case-exists")
    t = _case_term(theory, inst, "sum-case-exists")
    _done(inst, "sum-case-exists")
    return WellFormed(t, infer_decoration(t))


@_rule("sum-case-weak", _EX, "=> case(g,k) ~~ g")
def _r_sum_case_weak(theory, ps, inst):
    _arity(ps, 0, "sum-case-weak")
    t = _case_term(theory, inst, "sum-case-weak")
    _done(inst, "sum-case-weak")
    return Holds(Equation(t, t.on_value, _wkind(theory)))


@_rule("sum-case-empty", _EX, "=> case(g,k).empty[X] == k")
def _r_sum_case_empty(theory, ps, inst):
    _arity(ps, 0, "sum-case-empty")
    t = _case_term(theory, inst, "sum-case-empty")
    _done(inst, "sum-case-empty")
    return Holds(Equation(normalize_assoc(Comp(t, FromEmpty(dom(t)))),
                          t.on_empty, STRONG))


@_rule("sum-case-prop", _EX, "=> case(g,k) == g when k cannot catch")
def _r_sum_case_prop(theory, ps, inst):
    _arity(ps, 0, "sum-case-prop")
    t = _case_term(theory, inst, "sum-case-prop")
    _done(inst, "sum-case-prop")
    _require_level(theory, t.on_empty, 1, "sum-case-prop", "the exception branch")
    return Holds(Equation(t, t.on_value, STRONG))


@_rule("sum-case-unique", _EX,
       "h ~~ g and h.empty[X] == k => h == case(g, k)")
def _r_sum_case_unique(theory, ps, inst):
    _arity(ps, 2, "sum-case-unique")
    t = _case_term(theory, inst, "sum-case-unique")
    h = _take_term(theory, inst, "h", "sum-case-unique")
    _done(inst, "sum-case-unique")
    wk = _wkind(theory)
    want1 = Equation(h, t.on_value, wk)
    want2 = Equation(normalize_assoc(Comp(h, FromEmpty(dom(h)))), t.on_empty, STRONG)
    if _as_holds(ps[0], "sum-case-unique") != want1:
        raise E.BadPremises(f"sum-case-unique: first premise should be {want1}")
    if _as_holds(ps[1], "sum-case-unique") != want2:
        raise E.BadPremises(f"sum-case-unique: second premise should be {want2}")
    return Holds(Equation(h, t, STRONG))


def _coerce_term(theory, inst, rid) -> Coerce:
    t = _take_term(theory, inst, "term", rid)
    if not isinstance(t, Coerce):
        raise E.BadInstantiation(f"{rid} needs a coerce(k) term")
    return t


@_rule("coerce-exists", _EX, "=> WF(coerce(k), 1)")
def _r_coerce_exists(theory, ps, inst):
    _arity(ps, 0, "coerce-exists")
    t = _coerce_term(theory, inst, "coerce-exists")
    _done(inst, "coerce-exists")
    return WellFormed(t, min(infer_decoration(t), 1))


@_rule("coerce-weak", _EX, "=> coerce(k) ~~ k")
def _r_coerce_weak(theory, ps, inst):
    _arity(ps, 0, "coerce-weak")
    t = _coerce_term(theory, inst, "coerce-weak")
    _done(inst, "coerce-weak")
    return Holds(Equation(t, t.inner, _wkind(theory)))


@_rule("coerce-unique", _EX, "p ~~ k => p == coerce(k) (p level <= 1)")
def _r_coerce_unique(theory, ps, inst):
    _arity(ps, 1, "coerce-unique")
    t = _coerce_term(theory, inst, "coerce-unique")
    p = _take_term(theory, inst, "p", "coerce-unique")
    _done(inst, "coerce-unique")
    _require_level(theory, p, 1, "coerce-unique", "the compared propagator")
    want = Equation(p, t.inner, _wkind(theory))
    if _as_holds(ps[0], "coerce-unique") != want:
        raise E.BadPremises(f"coerce-unique: premise should be {want}")
    return Holds(Equation(p, t, STRONG))


def _propcase_term(theory, inst, rid) -> PropCase:
    t = _take_term(theory, inst, "term", rid)
    if not isinstance(t, PropCase):
        raise E.BadInstantiation(f"{rid} needs a cases(g, h) term")
    return t


@_rule("propcase-inl", _EX, "=> cases(g,h).in1 == g")
def _r_propcase_inl(theory, ps, inst):
    _arity(ps, 0, "propcase-inl")
    t = _propcase_term(theory, inst, "propcase-inl")
    _done(inst, "propcase-inl")
    inj = Inj1(dom(t.on_left), dom(t.on_right))
    return Holds(Equation(normalize_assoc(Comp(t, inj)), t.on_left, STRONG))


@_rule("propcase-inr", _EX, "=> cases(g,h).in2 == h")
def _r_propcase_inr(theory, ps, inst):
    _arity(ps, 0, "propcase-inr")
    t = _propcase_term(theory, inst, "propcase-inr")
    _done(inst, "propcase-inr")
    inj = Inj2(dom(t.on_left), dom(t.on_right))
    return Holds(Equation(normalize_assoc(Comp(t, inj)), t.on_right, STRONG))


# -------------------------------------------------------- rule dispatch

def apply_rule(theory: Theory, rule_id: str, premises: Sequence[Judgment],
               inst: Optional[Mapping[str, Any]] = None) -> Judgment:
    """Apply one catalog rule; returns the (normalized) conclusion."""
    spec = RULES.get(rule_id)
    if spec is None:
        raise E.UnknownRule(f"no rule named {rule_id!r}")
    if theory.flavor not in spec.flavors:
        raise E.RuleNotInFlavor(
            f"rule {rule_id!r} is not part of the {theory.flavor} logic")
    return spec.impl(theory, tuple(premises), dict(inst or {}))


def _canon_inst(inst: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(inst.items(), key=lambda kv: kv[0]))


def node(theory: Theory, rule_id: str, premises: Sequence[Derivation] = (),
         **inst: Any) -> Derivation:
    """Build a derivation node, computing (and thereby checking) its conclusion."""
    concl = apply_rule(theory, rule_id, [p.conclusion for p in premises], inst)
    return Derivation(rule_id, tuple(premises), _canon_inst(inst), concl)


def axiom_node(theory: Theory, name: str) -> Derivation:
    ax = theory.axiom(name)
    return Derivation(("axiom", name), (), (), Holds(norm_eq(ax.eq)))


def gen_node(theory: Theory, name: str) -> Derivation:
    g = theory.gen(name)
    return Derivation(("gen", name), (), (), WellFormed(g, g.dec))


def hyp_node(theory: Theory, label: str, judgment: Judgment) -> Derivation:
    if isinstance(judgment, Holds):
        eq = norm_eq(judgment.eq)
        typecheck_equation(theory, eq)
        judgment = Holds(eq)
    else:
        typecheck(theory, judgment.term)
        judgment = WellFormed(normalize_assoc(judgment.term), judgment.level)
    return Derivation(("hyp", label), (), (), judgment)


# ------------------------------------------------------------- checking

@dataclass(frozen=True)
class CheckResult:
    valid: bool
    error: Optional[str]
    path: Optional[tuple[int, ...]]
    hypotheses: tuple[str, ...]
    nodes: int

    def __bool__(self) -> bool:
        return self.valid


def check_derivation(theory: Theory, d: Derivation) -> CheckResult:
    """Recompute every node's conclusion; any mismatch invalidates the tree.

    `path` addresses the offending node by premise indices from the root.
    """
    hyps: list[str] = []
    count = 0

    def walk(n: Derivation, path: tuple[int, ...]) -> Optional[tuple[tuple, str]]:
        nonlocal count
        count += 1
        for k, p in enumerate(n.premises):
            bad = walk(p, path + (k,))
            if bad:
                return bad
        try:
            if isinstance(n.rule, tuple):
                tag, name = n.rule[0], n.rule[1]
                if n.premises:
                    return path, f"citation {tag}({name}) cannot have premises"
                if tag == "axiom":
                    want: Judgment = Holds(norm_eq(theory.axiom(name).eq))
                elif tag == "gen":
                    g = theory.gen(name)
                    want = WellFormed(g, g.dec)
                elif tag == "hyp":
                    if isinstance(n.conclusion, Holds):
                        typecheck_equation(theory, n.conclusion.eq)
                    else:
                        typecheck(theory, n.conclusion.term)
                    hyps.append(name)
                    return None
                else:
                    return path, f"unknown citation kind {tag!r}"
            else:
                want = apply_rule(theory, n.rule,
                                  [p.conclusion for p in n.premises],
                                  dict(n.inst))
            if want != n.conclusion:
                return path, (f"node claims {n.conclusion}, rule "
                              f"{n.rule} yields {want}")
        except E.DecorError as exc:
            return path, str(exc)
        return None

    bad = walk(d, ())
    if bad:
        return CheckResult(False, bad[1], bad[0], tuple(hyps), count)
    return CheckResult(True, None, None, tuple(hyps), count)


# ------------------------------------------------- packaged derivations

def _unit_uniqueness(theory: Theory, side: _Side, f: Term,
                     level_error: type) -> Derivation:
    """f == unit[X] for any f: X -> 1 of level <= 1, read on `side`."""
    def rule(rid: str) -> str:
        return RULES[rid].dual if side.op else rid

    f = normalize_assoc(f)
    typecheck(theory, f)
    if _decorated(theory) and infer_decoration(f) > 1:
        raise level_error(f"{f} is level {infer_decoration(f)}")
    n1 = node(theory, rule("w-final"), f=f)
    n2 = node(theory, rule("unit-arrow"), at=side.src(f))
    return node(theory, rule("w-to-s"), [n1, n2])


def derive_final_uniqueness(theory: Theory, f: Term) -> Derivation:
    """f == unit[X] for any accessor f: X -> 1 (three nodes)."""
    return _unit_uniqueness(theory, _STATES, f, E.NotAnAccessor)


def derive_initial_uniqueness(theory: Theory, f: Term) -> Derivation:
    """f == empty[Y] for any propagator f: 0 -> Y (the exceptions-side twin)."""
    return _unit_uniqueness(theory, _EXCEPTIONS, f, E.NotAPropagator)


# ------------------------------------------------------------ saturation

@dataclass(frozen=True)
class ProveResult:
    status: str  # 'proven' | 'unknown'
    derivation: Optional[Derivation]
    reason: str
    rounds: int
    facts: int

    @property
    def proven(self) -> bool:
        return self.status == "proven"


def saturate_prove(theory: Theory, goal: Equation, budget: int = 4,
                   max_term_size: int = 7, fact_cap: int = 20000) -> ProveResult:
    """Forward saturation from the axioms.

    Each budget round composes every known fact with every pool term on both
    sides (substitution/replacement, respecting the flavor's restrictions),
    then closes under symmetry, transitivity, the strong/weak conversions,
    and the final/initial seeds. Deterministic: the fact table keeps insertion
    order and the pool is sorted, so reruns build the same derivation.
    Returns the derivation when the goal is reached.
    """
    goal = norm_eq(goal)
    typecheck_equation(theory, goal)
    wk = _wkind(theory)
    facts: dict[Equation, Derivation] = {}

    def add(eq: Equation, mk: Callable[[], Derivation]) -> bool:
        # membership first: building a node re-runs the rule, which is the
        # expensive part, and saturation regenerates the same facts a lot
        if eq.lhs == eq.rhs or eq in facts:
            return False
        facts[eq] = mk()
        return True

    for ax in theory.axioms:
        nm = ax.name
        add(norm_eq(ax.eq), lambda nm=nm: axiom_node(theory, nm))

    prims: list[Term] = []
    if theory.flavor in ("states", "plain"):
        prims += [Lookup(i) for i in theory.locations]
        prims += [Update(i) for i in theory.locations]
        prims.append(Id(UNIT))
    if theory.flavor in ("exceptions", "plain"):
        prims += [Throw(i) for i in theory.constructors]
        prims += [Catch(i) for i in theory.constructors]
        prims.append(Id(EMPTY))

    def pool() -> list[Term]:
        seen: dict[Term, None] = {}
        for t in prims:
            seen.setdefault(t)
        for side in (goal.lhs, goal.rhs):
            for s in subterms(side):
                seen.setdefault(s)
        for eq in facts:
            for side in (eq.lhs, eq.rhs):
                for s in subterms(side):
                    seen.setdefault(s)
        return sorted(seen, key=lambda t: (term_size(t), str(t)))

    def seed_finals(terms: list[Term]) -> None:
        for t in terms:
            if theory.flavor == "states" and isinstance(cod(t), Unit):
                add(Equation(t, ToUnit(dom(t)), wk),
                    lambda t=t: node(theory, "w-final", f=t))
            if theory.flavor == "exceptions" and isinstance(dom(t), Empty):
                add(Equation(t, FromEmpty(cod(t)), wk),
                    lambda t=t: node(theory, "w-initial", f=t))

    def close() -> None:
        changed = True
        while changed:
            changed = False
            snapshot = list(facts.items())
            by_lhs: dict[tuple, list[Equation]] = {}
            for eq in facts:
                by_lhs.setdefault((eq.lhs, eq.kind), []).append(eq)
            for eq, d in snapshot:
                if goal in facts:
                    return
                sym_rule = "eq-sym" if eq.kind == STRONG else "w-sym"
                if add(Equation(eq.rhs, eq.lhs, eq.kind),
                       lambda r=sym_rule, d=d: node(theory, r, [d])):
                    changed = True
                if eq.kind == STRONG and wk == WEAK:
                    if add(Equation(eq.lhs, eq.rhs, WEAK),
                           lambda d=d: node(theory, "s-to-w", [d])):
                        changed = True
                if (eq.kind == WEAK and infer_decoration(eq.lhs) <= 1
                        and infer_decoration(eq.rhs) <= 1):
                    conv = "w-to-s" if theory.flavor == "states" else "w-to-s-prop"
                    if add(Equation(eq.lhs, eq.rhs, STRONG),
                           lambda c=conv, d=d: node(theory, c, [d])):
                        changed = True
                for nxt in by_lhs.get((eq.rhs, eq.kind), []):
                    tr = "eq-trans" if eq.kind == STRONG else "w-trans"
                    if add(Equation(eq.lhs, nxt.rhs, eq.kind),
                           lambda r=tr, d=d, n=nxt: node(theory, r, [d, facts[n]])):
                        changed = True
            if len(facts) > fact_cap:
                return

    def found() -> Optional[Derivation]:
        return facts.get(goal)

    seed_finals(pool())
    close()
    if found():
        return ProveResult("proven", found(), "closure of the axioms", 0, len(facts))
    if len(facts) > fact_cap:
        return ProveResult("unknown", None, f"fact cap {fact_cap} reached", 0, len(facts))

    for rnd in range(1, budget + 1):
        p = pool()
        snapshot = list(facts.items())
        for eq, d in snapshot:
            if goal in facts:
                break
            for f in p:
                # substitution: build  lhs.f ~ rhs.f
                if cod(f) == dom(eq.lhs):
                    t1 = normalize_assoc(Comp(eq.lhs, f))
                    if term_size(t1) <= max_term_size:
                        r1 = normalize_assoc(Comp(eq.rhs, f))
                        if eq.kind == STRONG:
                            add(Equation(t1, r1, STRONG),
                                lambda d=d, f=f: node(theory, "eq-subs", [d], by=f))
                        elif theory.flavor == "states":
                            add(Equation(t1, r1, WEAK),
                                lambda d=d, f=f: node(theory, "w-subs", [d], by=f))
                        elif infer_decoration(f) == 0:
                            add(Equation(t1, r1, WEAK),
                                lambda d=d, f=f: node(theory, "w-subs-pure", [d], by=f))
                # replacement: build  f.lhs ~ f.rhs
                if dom(f) == cod(eq.lhs):
                    t2 = normalize_assoc(Comp(f, eq.lhs))
                    if term_size(t2) <= max_term_size:
                        r2 = normalize_assoc(Comp(f, eq.rhs))
                        if eq.kind == STRONG:
                            add(Equation(t2, r2, STRONG),
                                lambda d=d, f=f: node(theory, "eq-repl", [d], by=f))
                        elif theory.flavor == "exceptions":
                            add(Equation(t2, r2, WEAK),
                                lambda d=d, f=f: node(theory, "w-repl", [d], by=f))
                        elif infer_decoration(f) == 0:
                            add(Equation(t2, r2, WEAK),
                                lambda d=d, f=f: node(theory, "w-repl-pure", [d], by=f))
            if len(facts) > fact_cap:
                return ProveResult("unknown", None,
                                   f"fact cap {fact_cap} reached", rnd, len(facts))
        seed_finals(pool())
        close()
        if found():
            return ProveResult("proven", found(), f"found in round {rnd}",
                               rnd, len(facts))
        if len(facts) > fact_cap:
            return ProveResult("unknown", None,
                               f"fact cap {fact_cap} reached", rnd, len(facts))

    return ProveResult("unknown", None, f"budget of {budget} rounds exhausted",
                       budget, len(facts))
