"""The proof kernel: rule catalog, rule application, derivation checking,
and a small saturation prover.

A derivation is a tree whose nodes each carry the rule they claim to apply,
the instantiation it needs, and the conclusion they claim to reach. Two
constructors make nodes: `node` applies a catalog rule with `apply_rule`,
and `cite` makes a leaf citation: ('axiom', name) quotes a theory axiom,
('gen', name) a generator's declared profile, and ('hyp', label) assumes a
judgment (reported, so validity is "relative to hypotheses"). The checker
replays each node bottom-up through the constructor that made it and
compares the stored conclusion, so changing any single node (the root
included) makes the tree invalid. A premise may be shared: `Derivation.walk`
visits each distinct node once, without recursion, so replay is linear in
the distinct nodes and flat in depth, and every other reader of a derivation
goes through the same walk.

Rule naming follows the construct it governs, with the w- prefix for the weak
variants. Conclusions are always associativity/identity-normalized; premise
matching is structural equality of normalized judgments.

Each rule declares, where it is registered (`_rule`, `_rule_pair`), its
premise count and its instantiation keys with their kinds (`RuleSpec`).
`apply_rule` checks the count, takes each key in order (a term is
normalized and typechecked, a type checked against the theory), refuses
keys the rule does not declare, and hands the checked values to the rule
body, which holds only the rule's logic. The script front end reads the
same declarations to parse and print instantiations.

Each body names its rule through the rule id it is given, so rules that
differ only in a strength (eq-sym, w-sym), a level (0-comp, 1-comp) or an
injection (propcase-inl, propcase-inr) are one family: one body, registered
once per id with the value that tells them apart as a keyword.

States and exceptions are dual: each states-side rule and its exceptions-side
partner are one implementation, read on either side (`terms.Side`), and
`RuleSpec.dual` names the partner that `dualize_derivation` switches to.

The prover, `saturate_prove`, is not trusted. It refutes a goal on a finite
model of the axioms when it is given one, and otherwise saturates over
proof-producing union-find (`_Classes`), one structure per equation kind,
building kernel nodes only for the derivation it returns; callers replay
that derivation with `check_derivation`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import (Any, Callable, Iterator, Mapping, Optional, Sequence,
                    Union)

from . import errors as E
from .terms import (
    EXCEPTIONS, STATES, CaseSum, Coerce, Comp, FromEmpty, Id, Inj1, Inj2,
    PropCase, Side, TERM_CLASSES, Term, normalize_assoc,
)
from .theory import (
    Equation, STRONG, Theory, WEAK, check_type, norm_eq, typecheck,
    typecheck_equation,
)
from .types import TYPE_CLASSES, TypeExpr


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

    def walk(self) -> Iterator[tuple["Derivation", int, bool]]:
        """Visit each distinct node (by identity) once, depth first and left
        to right, without recursion. Yield (node, k, False) on first
        reaching it as premise k of its parent (0 at the root), and
        (node, k, True) once its premises are done."""
        seen = {id(self)}
        yield self, 0, False
        stack = [(self, 0, enumerate(_premises(self)))]
        while stack:
            n, k, todo = stack[-1]
            for i, p in todo:
                if id(p) not in seen:
                    seen.add(id(p))
                    yield p, i, False
                    stack.append((p, i, enumerate(_premises(p))))
                    break
            else:
                stack.pop()
                yield n, k, True

    def __len__(self) -> int:
        """The number of tree nodes, a shared premise counted each time."""
        size: dict[int, int] = {}
        for n, _, done in self.walk():
            if done:
                size[id(n)] = 1 + sum(size[id(p)] for p in _premises(n))
        return size[id(self)]


def _premises(n: Any) -> tuple:
    """The premises `walk` descends into: none for a record that is not a
    derivation or whose premises are not a tuple, which replay refuses."""
    return (n.premises if type(n) is Derivation
            and type(n.premises) is tuple else ())


# ------------------------------------------------------- premise helpers

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


def _strength(theory: Theory, weak: bool) -> str:
    return _wkind(theory) if weak else STRONG


def _require_level(theory: Theory, t: Term, k: int, rid: str, what: str) -> None:
    if theory.flavor != "plain" and t.level > k:
        raise E.SideConditionViolated(
            f"{rid}: {what} must be level <= {k}, {t} has level {t.level}")


# -------------------------------------------------- instantiation values

# how a required term class reads in a complaint, when not by its name
_SHAPES = {CaseSum: "case(g, k)", Coerce: "coerce(k)", PropCase: "cases(g, h)"}


def _inst_value(theory: Theory, rid: str, key: str, kind: Any, v: Any) -> Any:
    """Check one instantiation value of the declared kind; returns it in
    the form the rule body reads."""
    if kind == "name" and not isinstance(v, str):
        raise E.BadInstantiation(f"{rid}: {key!r} must be a name")
    if kind in ("name", "int"):
        return v
    if kind == "type":
        if not isinstance(v, TYPE_CLASSES):
            raise E.BadInstantiation(f"{rid}: {key!r} must be a type")
        check_type(theory, v)
        return v
    if kind == "family":
        try:
            return tuple((str(i), normalize_assoc(f)) for i, f in v)
        except Exception:
            raise E.BadInstantiation(f"{rid}: {key!r} must be (index, term) pairs")
    if not isinstance(v, TERM_CLASSES):
        raise E.BadInstantiation(f"{rid}: {key!r} must be a term")
    v = normalize_assoc(v)
    typecheck(theory, v)
    if kind != "term" and not isinstance(v, kind):
        raise E.BadInstantiation(
            f"{rid} needs a {_SHAPES.get(kind, kind.__name__)} term")
    return v


# ----------------------------------------------------------- rule table

@dataclass(frozen=True)
class RuleSpec:
    """A catalog rule. `premises` is its premise count (None when the body
    checks a count that depends on the input) and `keys` its instantiation
    keys in the order they are taken, each with its kind: "term", "type",
    "family" ((index, term) pairs), "name", "int", or a term class the
    value must be an instance of. `impl` gets the checked values as
    keywords."""

    rid: str
    flavors: frozenset
    impl: Callable
    doc: str
    dual: Optional[str]  # the rule read on the other side; None if it has none
    premises: Optional[int]
    keys: Mapping[str, Any]

    def key_kind(self, key: str) -> str:
        """How key's value is written: a term class is a "term", and so is
        a key the rule does not declare."""
        kind = self.keys.get(key, "term")
        return kind if isinstance(kind, str) else "term"


RULES: dict[str, RuleSpec] = {}

_CORE = frozenset({"states", "exceptions", "plain"})
_ST = frozenset({"states", "plain"})
_EX = frozenset({"exceptions", "plain"})


def _rule(rid: str, flavors: frozenset, doc: str, premises: Optional[int],
          keys: Optional[Mapping[str, Any]] = None, **params):
    """Register a rule of one reading: a core rule is its own dual, a rule
    of one side only (the handler rules) has none. The implementation
    takes the rule id ahead of the usual (theory, premises, instantiation),
    and `params` as keywords, so the rules of one family share a body."""
    def deco(fn):
        RULES[rid] = RuleSpec(rid, flavors, partial(fn, rid, **params), doc,
                              rid if flavors == _CORE else None,
                              premises, dict(keys or {}))
        return fn
    return deco


def _rule_pair(st_rid: str, st_doc: str, ex_rid: str, ex_doc: str,
               premises: Optional[int],
               keys: Optional[Mapping[str, Any]] = None,
               flavors: tuple = (_ST, _EX), **params):
    """Register one implementation twice: read on the states side as st_rid
    and on the exceptions side as its dual ex_rid.

    A key's kind may be a (states, exceptions) pair, like `flavors`. The
    implementation takes the side and the rule id ahead of the usual
    (theory, premises, instantiation), and `params` as keywords.
    """
    def deco(fn):
        for side, rid, doc, fl, dual in (
                (STATES, st_rid, st_doc, flavors[0], ex_rid),
                (EXCEPTIONS, ex_rid, ex_doc, flavors[1], st_rid)):
            sided = {k: kind[side.op] if isinstance(kind, tuple) else kind
                     for k, kind in (keys or {}).items()}
            RULES[rid] = RuleSpec(rid, fl, partial(fn, side, rid, **params),
                                  doc, dual, premises, sided)
        return fn
    return deco


def list_rules(flavor: Optional[str] = None) -> list[str]:
    if flavor is None:
        return sorted(RULES)
    return sorted(r for r, s in RULES.items() if flavor in s.flavors)


def read_on(side: Side, rid: str) -> str:
    """The states-side rule rid, read on `side`."""
    return RULES[rid].dual if side.op else rid


# core category rules ---------------------------------------------------

@_rule("comp", _CORE, "WF(f,a), WF(g,b) => WF(g.f, max(a,b))", 2, level=None)
@_rule("0-comp", _CORE, "WF(f,0), WF(g,0) => WF(g.f, 0)", 2, level=0)
@_rule("1-comp", _CORE, "WF(f,1), WF(g,1) => WF(g.f, 1)", 2, level=1)
def _r_comp(rid, theory, ps, *, level):
    """Compose two well-formed terms: at the larger of their levels, or,
    with a level bound, at the bound, both premises being within it."""
    wf_f, wf_g = _as_wf(ps[0], rid), _as_wf(ps[1], rid)
    if level is not None and max(wf_f.level, wf_g.level) > level:
        raise E.BadPremises(f"{rid} composes two level-"
                            f"{'<=' if level else ''}{level} terms")
    if wf_f.term.cod != wf_g.term.dom:
        raise E.BadPremises(f"{rid}: premises do not compose")
    return WellFormed(normalize_assoc(Comp(wf_g.term, wf_f.term)),
                      max(wf_f.level, wf_g.level) if level is None else level)


@_rule("id", _CORE, "=> WF(id[T], 2)", 0, dict(at="type"), level=2)
@_rule("0-id", _CORE, "=> WF(id[T], 0)", 0, dict(at="type"), level=0)
def _r_id(rid, theory, ps, at, *, level):
    return WellFormed(Id(at), level)


@_rule("assoc", _CORE, "=> h.(g.f) == (h.g).f  (normal forms coincide)", 0,
       dict(f="term", g="term", h="term"))
def _r_assoc(rid, theory, ps, f, g, h):
    lhs = normalize_assoc(Comp(h, Comp(g, f)))
    rhs = normalize_assoc(Comp(Comp(h, g), f))
    typecheck(theory, lhs)
    return Holds(Equation(lhs, rhs, STRONG))


@_rule_pair("id-src", "=> f.id == f", "id-tgt", "=> id.f == f", 0,
            dict(f="term"), flavors=(_CORE, _CORE))
def _r_id_src(side, rid, theory, ps, f):
    return Holds(Equation(side.then(f, Id(side.src(f))), f, STRONG))


# strong and weak equality: each rule read at one strength ---------------

@_rule("eq-refl", _CORE, "=> f == f", 0, dict(f="term"), weak=False)
@_rule("w-refl", _CORE, "=> f ~~ f", 0, dict(f="term"), weak=True)
def _r_refl(rid, theory, ps, f, *, weak):
    return Holds(Equation(f, f, _strength(theory, weak)))


@_rule("eq-sym", _CORE, "a == b => b == a", 1, weak=False)
@_rule("w-sym", _CORE, "a ~~ b => b ~~ a", 1, weak=True)
def _r_sym(rid, theory, ps, *, weak):
    kind = _strength(theory, weak)
    eq = _kind(_as_holds(ps[0], rid), kind, rid)
    return Holds(Equation(eq.rhs, eq.lhs, kind))


@_rule("eq-trans", _CORE, "a == b, b == c => a == c", 2, weak=False)
@_rule("w-trans", _CORE, "a ~~ b, b ~~ c => a ~~ c", 2, weak=True)
def _r_trans(rid, theory, ps, *, weak):
    kind = _strength(theory, weak)
    e1 = _kind(_as_holds(ps[0], rid), kind, rid)
    e2 = _kind(_as_holds(ps[1], rid), kind, rid)
    if e1.rhs != e2.lhs:
        raise E.BadPremises(f"{rid}: middle terms differ")
    return Holds(Equation(e1.lhs, e2.rhs, kind))


@_rule_pair("eq-subs", "g1 == g2 => g1.f == g2.f",
            "eq-repl", "f1 == f2 => g.f1 == g.f2", 1, dict(by="term"),
            flavors=(_CORE, _CORE), weak=False, after=False, pure=False)
@_rule_pair("w-subs", "g1 ~~ g2 => g1.f ~~ g2.f (any f)",
            "w-repl", "f1 ~~ f2 => g.f1 ~~ g.f2 (any g)", 1, dict(by="term"),
            weak=True, after=False, pure=False)
@_rule_pair("w-repl-pure", "f1 ~~ f2 => g.f1 ~~ g.f2 (g pure)",
            "w-subs-pure", "g1 ~~ g2 => g1.f ~~ g2.f (f pure)", 1,
            dict(by="term"), weak=True, after=True, pure=True)
def _r_congruence(side, rid, theory, ps, by, *, weak, after, pure):
    """Compose the context `by` with both sides of the premise: first
    (substitution) or, with `after`, last (replacement)."""
    eq = _kind(_as_holds(ps[0], rid), _strength(theory, weak), rid)
    if pure:
        _require_level(theory, by, 0, rid, "the context")

    def around(t: Term) -> tuple[Term, Term]:
        return (by, t) if after else (t, by)

    g, f = around(eq.lhs)
    if side.tgt(f) != side.src(g):
        raise E.BadInstantiation(f"{rid}: the context does not compose")
    return Holds(Equation(side.then(*around(eq.lhs)),
                          side.then(*around(eq.rhs)), eq.kind))


@_rule("s-to-w", _CORE, "a == b => a ~~ b", 1)
def _r_s_to_w(rid, theory, ps):
    eq = _kind(_as_holds(ps[0], rid), STRONG, rid)
    return Holds(Equation(eq.lhs, eq.rhs, _wkind(theory)))


# decoration bookkeeping ------------------------------------------------

@_rule("0-to-1", _CORE, "WF(t,0) => WF(t,1)", 1, level=0)
@_rule("1-to-2", _CORE, "WF(t,1) => WF(t,2)", 1, level=1)
def _r_lift(rid, theory, ps, *, level):
    wf = _as_wf(ps[0], rid)
    if wf.level != level:
        raise E.BadPremises(f"{rid} lifts level {level}")
    return WellFormed(wf.term, level + 1)


# rule pairs: each states-side rule, read on the exceptions side ---------

@_rule_pair("w-to-s", "a ~~ b => a == b (both levels <= 1)",
            "w-to-s-prop", "a ~~ b => a == b (both levels <= 1)", None)
def _r_w_to_s(side, rid, theory, ps):
    if len(ps) not in (1, 2):
        raise E.BadPremises(f"{rid} takes the weak premise, optionally a WF premise")
    eq = _kind(_as_holds(ps[0], rid), _wkind(theory), rid)
    if len(ps) == 2:
        wf = _as_wf(ps[1], rid)
        if wf.term not in (eq.lhs, eq.rhs):
            raise E.BadPremises(f"{rid}: WF premise names a term not in the equation")
        if wf.level > 1:
            raise E.BadPremises(f"{rid}: WF premise must be level <= 1")
    _require_level(theory, eq.lhs, 1, rid, "left side")
    _require_level(theory, eq.rhs, 1, rid, "right side")
    return Holds(Equation(eq.lhs, eq.rhs, STRONG))


@_rule_pair("final", "=> WF(id[1], 0)", "initial", "=> WF(id[0], 0)", 0)
def _r_final(side, rid, theory, ps):
    return WellFormed(Id(side.unit()), 0)


@_rule_pair("unit-arrow", "=> WF(unit[X], 0)",
            "empty-arrow", "=> WF(empty[Y], 0)", 0, dict(at="type"))
def _r_unit_arrow(side, rid, theory, ps, at):
    return WellFormed(side.to_unit(at), 0)


@_rule_pair("w-final", "=> f ~~ unit[X] for f: X -> 1",
            "w-initial", "=> f ~~ empty[Y] for f: 0 -> Y", 0, dict(f="term"))
def _r_w_final(side, rid, theory, ps, f):
    if not isinstance(side.tgt(f), side.unit):
        raise E.BadInstantiation(
            f"{rid} applies to maps {'out of' if side.op else 'into'} {side.unit()}")
    return Holds(Equation(f, side.to_unit(side.src(f)), _wkind(theory)))


@_rule_pair("loc-tuple", "=> l[i].tuple(..) ~~ component i",
            "const-cotuple", "=> cotuple(..).t[i] ~~ component i", 0,
            dict(family="family", at="name"))
def _r_loc_tuple(side, rid, theory, ps, family, at):
    cone = side.loc_tuple(family)
    typecheck(theory, cone)
    fam_map = dict(family)
    if at not in fam_map:
        raise E.BadInstantiation(f"{rid}: no component for {at!r}")
    return Holds(Equation(side.then(side.lookup(at), cone), fam_map[at],
                          _wkind(theory)))


@_rule_pair("loc-tuple-unique",
            "l[i].g ~~ f_i for every location => g == tuple(f)",
            "const-cotuple-unique",
            "g.t[i] ~~ f_i for every exception name => g == cotuple(f)",
            None, dict(family="family", g="term"))
def _r_loc_tuple_unique(side, rid, theory, ps, family, g):
    cone = side.loc_tuple(family)
    typecheck(theory, cone)
    if side.src(g) != side.src(cone) or not isinstance(side.tgt(g), side.unit):
        raise E.BadInstantiation(f"{rid}: g must share the cone's profile")
    if len(ps) != len(family):
        raise E.BadPremises(f"{rid} takes {len(family)} premises, got {len(ps)}")
    wk = _wkind(theory)
    for (i, fi), p in zip(family, ps):
        want = Equation(side.then(side.lookup(i), g), fi, wk)
        if _as_holds(p, rid) != want:
            raise E.BadPremises(
                f"{rid}: premise for {i!r} should be {want}, got {p}")
    return Holds(Equation(g, cone, STRONG))


@_rule_pair("semiprod-P1", "=> weak projection law, pure factor",
            "semicoprod-P1", "=> weak injection law, pure factor", 0,
            dict(term=(STATES.semi, EXCEPTIONS.semi)), pure=True)
@_rule_pair("semiprod-P2", "=> strong projection law, effectful factor",
            "semicoprod-P2", "=> strong injection law, effectful factor", 0,
            dict(term=(STATES.semi, EXCEPTIONS.semi)), pure=False)
def _r_semi_projection(side, rid, theory, ps, term, *, pure):
    """Projecting a semi-pure pairing onto one factor: weakly the pure one,
    strongly the effectful one."""
    first, second = ((term.pure, term.eff) if term.pure_on_left
                     else (term.eff, term.pure))
    proj = side.projs[0] if pure == term.pure_on_left else side.projs[1]
    lhs = side.then(proj(side.tgt(first), side.tgt(second)), term)
    rhs = side.then(term.pure if pure else term.eff,
                    proj(side.src(first), side.src(second)))
    return Holds(Equation(lhs, rhs, _strength(theory, pure)))


@_rule_pair("binprod-proj", "=> WF(p1/p2, 0)", "bincoprod-inj",
            "=> WF(in1/in2, 0)", 0, dict(which="int", left="type", right="type"))
def _r_binprod_proj(side, rid, theory, ps, which, left, right):
    if which not in (1, 2):
        raise E.BadInstantiation(f"{rid}: which must be 1 or 2")
    return WellFormed((side.projs[0] if which == 1 else side.projs[1])(left, right), 0)


# handler rules: exceptions side only, no dual ---------------------------

@_rule("sum-case-exists", _EX, "=> WF(case(g,k), level)", 0,
       dict(term=CaseSum))
def _r_sum_case_exists(rid, theory, ps, term):
    return WellFormed(term, term.level)


@_rule("sum-case-weak", _EX, "=> case(g,k) ~~ g", 0, dict(term=CaseSum))
def _r_sum_case_weak(rid, theory, ps, term):
    return Holds(Equation(term, term.on_value, _wkind(theory)))


@_rule("sum-case-empty", _EX, "=> case(g,k).empty[X] == k", 0,
       dict(term=CaseSum))
def _r_sum_case_empty(rid, theory, ps, term):
    return Holds(Equation(normalize_assoc(Comp(term, FromEmpty(term.dom))),
                          term.on_empty, STRONG))


@_rule("sum-case-prop", _EX, "=> case(g,k) == g when k cannot catch", 0,
       dict(term=CaseSum))
def _r_sum_case_prop(rid, theory, ps, term):
    _require_level(theory, term.on_empty, 1, rid, "the exception branch")
    return Holds(Equation(term, term.on_value, STRONG))


@_rule("sum-case-unique", _EX,
       "h ~~ g and h.empty[X] == k => h == case(g, k)", 2,
       dict(term=CaseSum, h="term"))
def _r_sum_case_unique(rid, theory, ps, term, h):
    want1 = Equation(h, term.on_value, _wkind(theory))
    want2 = Equation(normalize_assoc(Comp(h, FromEmpty(h.dom))), term.on_empty,
                     STRONG)
    if _as_holds(ps[0], rid) != want1:
        raise E.BadPremises(f"{rid}: first premise should be {want1}")
    if _as_holds(ps[1], rid) != want2:
        raise E.BadPremises(f"{rid}: second premise should be {want2}")
    return Holds(Equation(h, term, STRONG))


@_rule("coerce-exists", _EX, "=> WF(coerce(k), 1)", 0, dict(term=Coerce))
def _r_coerce_exists(rid, theory, ps, term):
    return WellFormed(term, min(term.level, 1))


@_rule("coerce-weak", _EX, "=> coerce(k) ~~ k", 0, dict(term=Coerce))
def _r_coerce_weak(rid, theory, ps, term):
    return Holds(Equation(term, term.inner, _wkind(theory)))


@_rule("coerce-unique", _EX, "p ~~ k => p == coerce(k) (p level <= 1)", 1,
       dict(term=Coerce, p="term"))
def _r_coerce_unique(rid, theory, ps, term, p):
    _require_level(theory, p, 1, rid, "the compared propagator")
    want = Equation(p, term.inner, _wkind(theory))
    if _as_holds(ps[0], rid) != want:
        raise E.BadPremises(f"{rid}: premise should be {want}")
    return Holds(Equation(p, term, STRONG))


@_rule("propcase-inl", _EX, "=> cases(g,h).in1 == g", 0, dict(term=PropCase),
       inj=Inj1)
@_rule("propcase-inr", _EX, "=> cases(g,h).in2 == h", 0, dict(term=PropCase),
       inj=Inj2)
def _r_propcase(rid, theory, ps, term, *, inj):
    """The copairing of two propagators, after the injection `inj`, is the
    branch on that side."""
    g, h = term.on_left, term.on_right
    return Holds(Equation(normalize_assoc(Comp(term, inj(g.dom, h.dom))),
                          g if inj is Inj1 else h, STRONG))


# -------------------------------------------------------- rule dispatch

def apply_rule(theory: Theory, rule_id: str, premises: Sequence[Judgment],
               inst: Optional[Mapping[str, Any]] = None) -> Judgment:
    """Apply one catalog rule; returns the (normalized) conclusion.

    The shared work happens here, in this order: the premise count, each
    declared instantiation key in turn (missing, or not of its kind), and
    keys the rule does not declare. The rule body gets the checked values.
    """
    spec = RULES.get(rule_id)
    if spec is None:
        raise E.UnknownRule(f"no rule named {rule_id!r}")
    if theory.flavor not in spec.flavors:
        raise E.RuleNotInFlavor(
            f"rule {rule_id!r} is not part of the {theory.flavor} logic")
    ps = tuple(premises)
    if spec.premises is not None and len(ps) != spec.premises:
        raise E.BadPremises(
            f"{rule_id} takes {spec.premises} premises, got {len(ps)}")
    inst = inst or {}
    vals = {}
    for key, kind in spec.keys.items():
        if key not in inst:
            raise E.BadInstantiation(f"{rule_id} needs instantiation key {key!r}")
        vals[key] = _inst_value(theory, rule_id, key, kind, inst[key])
    if len(inst) != len(vals):
        raise E.BadInstantiation(f"{rule_id}: unexpected keys "
                                 f"{sorted(k for k in inst if k not in vals)}")
    return spec.impl(theory, ps, **vals)


def node(theory: Theory, rule_id: str, premises: Sequence[Derivation] = (),
         **inst: Any) -> Derivation:
    """Build a derivation node, computing (and thereby checking) its conclusion."""
    concl = apply_rule(theory, rule_id, [p.conclusion for p in premises], inst)
    return Derivation(rule_id, tuple(premises), tuple(sorted(inst.items())),
                      concl)


def cite(theory: Theory, rule: RuleRef,
         claim: Optional[Judgment] = None) -> Derivation:
    """The one constructor of citations, which replay runs too: ('axiom',
    name) concludes the axiom, ('gen', name) the generator's profile at its
    level, and ('hyp', label) assumes the judgment `claim`, typechecked and
    normalized, at level 0, 1 or 2. Anything else raises a KernelError."""
    if not isinstance(rule, tuple) or [type(x) for x in rule] != [str, str]:
        raise E.KernelError(f"not a (kind, name) pair of strings: {rule!r}")
    kind, name = rule
    if kind == "axiom":
        concl: Judgment = Holds(norm_eq(theory.axiom(name).eq))
    elif kind == "gen":
        g = theory.gen(name)
        concl = WellFormed(g, g.dec)
    elif kind != "hyp":
        raise E.KernelError(f"unknown citation kind {kind!r}")
    elif not (isinstance(claim, Holds) and isinstance(claim.eq, Equation)
              and isinstance(claim.eq.lhs, TERM_CLASSES)
              and isinstance(claim.eq.rhs, TERM_CLASSES)
              or isinstance(claim, WellFormed)
              and isinstance(claim.term, TERM_CLASSES)):
        raise E.KernelError(
            f"hypothesis {name!r} claims {claim!r}, not a judgment")
    elif isinstance(claim, Holds):
        concl = Holds(norm_eq(claim.eq))
        typecheck_equation(theory, concl.eq)
    else:
        if type(claim.level) is not int or claim.level not in (0, 1, 2):
            raise E.KernelError(f"hypothesis {name!r} has level "
                                f"{claim.level}; levels are 0, 1 and 2")
        typecheck(theory, claim.term)
        concl = WellFormed(normalize_assoc(claim.term), claim.level)
    return Derivation(rule, (), (), concl)


def axiom_node(theory: Theory, name: str) -> Derivation:
    return cite(theory, ("axiom", name))


def gen_node(theory: Theory, name: str) -> Derivation:
    return cite(theory, ("gen", name))


def hyp_node(theory: Theory, label: str, judgment: Judgment) -> Derivation:
    return cite(theory, ("hyp", label), judgment)


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
    """Replay each distinct node once, premises first, up to the first
    mismatch, which invalidates the tree; every node is counted.

    `path` addresses the first offending node in left-to-right post-order
    by premise indices from the root. `nodes` is the size of the tree, a
    shared premise counted each time it is cited, and `hypotheses` lists
    each assumed name once, in replay order.
    """
    hyps: list[str] = []
    size: dict[int, int] = {}
    path: list[int] = []
    bad: Optional[tuple[tuple[int, ...], str]] = None
    for n, k, done in d.walk():
        if not done:
            path.append(k)
            continue
        size[id(n)] = 1 + sum([size[id(p)] for p in _premises(n)])
        if bad is None and (error := _replay(theory, n, hyps)) is not None:
            bad = tuple(path[1:]), error
        path.pop()
    where, why = bad or (None, None)
    return CheckResult(bad is None, why, where, tuple(dict.fromkeys(hyps)),
                       size[id(d)])


def _replay(theory: Theory, n: Derivation, hyps: list[str]) -> Optional[str]:
    """Replay one node through the constructor that made it; the error that
    invalidates it, or None. A hypothesis's name joins hyps."""
    if type(n) is not Derivation:
        return f"not a derivation node: {n!r}"
    if type(n.premises) is not tuple:
        return f"premises are a {type(n.premises).__name__}, not a tuple"
    if type(n.inst) is not tuple:
        return f"instantiation is a {type(n.inst).__name__}, not a tuple"
    inst: dict[str, Any] = {}
    for kv in n.inst:
        if (type(kv) is not tuple or len(kv) != 2 or type(kv[0]) is not str
                or kv[0] in inst):
            return (f"instantiation {n.inst!r} is not distinct "
                    f"(key, value) pairs")
        inst[kv[0]] = kv[1]
    try:
        if isinstance(n.rule, str):
            want = apply_rule(theory, n.rule,
                              [p.conclusion for p in n.premises], inst)
        else:
            want = cite(theory, n.rule, n.conclusion).conclusion
            where = f"citation {n.rule[0]}({n.rule[1]})"
            if n.premises:
                return f"{where} cannot have premises"
            if inst:
                return f"{where} cannot have an instantiation"
            if n.rule[0] == "hyp":
                hyps.append(n.rule[1])
        if want != n.conclusion:
            return f"node claims {n.conclusion}, rule {n.rule} yields {want}"
    except E.DecorError as exc:
        return str(exc)
    return None


# ------------------------------------------------------------ saturation

# the most nodes a composite that a search round builds may have
MAX_TERM_SIZE = 7
# the rounds a search runs when its caller names no budget
DEFAULT_BUDGET = 4


@dataclass(frozen=True)
class ProveResult:
    status: str  # 'proven' | 'refuted' | 'unknown'
    derivation: Optional[Derivation]
    reason: str
    rounds: int
    facts: int
    witness: Optional[dict] = None  # the model's counterexample when refuted

    @property
    def proven(self) -> bool:
        return self.status == "proven"


def saturate_prove(theory: Theory, goal: Equation,
                   budget: int = DEFAULT_BUDGET,
                   fact_cap: int = 20000, model: Any = None) -> ProveResult:
    """Decide goal by refutation on a finite model, then by saturation.

    With a finite model of the theory (`models.FiniteStateModel` or
    `FiniteExceptionModel`), the axioms are checked in it first. If
    they all hold and the goal fails, the goal is not derivable and the
    result is `refuted`, with the model's witness. If an axiom fails or the
    model cannot decide (a missing carrier or generator table, too many
    points), the search runs as without a model.

    The search is forward saturation from the axioms over two proof-producing
    union-finds, one for strong and one for weak equations (`_Classes`).
    Every strong union is also a weak one (s-to-w), and each weak class's
    members of level <= 1 are strongly equal (w-to-s). Each budget round
    composes every class of the round's start with every pool term (the
    terms and subterms seen so far) on both sides, as the flavor's
    substitution and replacement rules allow: when one member's composite
    has at most `MAX_TERM_SIZE` nodes, composing each tree edge of the class
    relates all the composites. A goal found in a class is explained as a
    chain of the tree edges' justifications, which are built only then.
    Every term the search holds is in normal form, so composites are built
    with `compose_normal`. The pool is closed under subterms, so pooling a
    term walks only down to the subterms already pooled.

    `facts` counts proof-forest edges, one per union of two classes; the
    search stops as soon as it holds `fact_cap + 1` of them. Deterministic:
    classes keep insertion order and the pool is sorted, so reruns build the
    same derivation.
    """
    goal = norm_eq(goal)
    typecheck_equation(theory, goal)
    if model is not None:
        witness = _refute(theory, goal, model)
        if witness is not None:
            return ProveResult("refuted", None,
                               "the goal fails in a model of the axioms",
                               0, 0, witness)
    search = _Search(theory, goal, fact_cap)
    try:
        return search.run(budget)
    except _CapReached:
        return ProveResult("unknown", None, f"fact cap {fact_cap} reached",
                           search.rounds, search.facts)
    finally:
        # unused justifications refer back to the search; dropping the
        # classes frees it now, not at some later garbage collection
        search.classes.clear()


def _refute(theory: Theory, goal: Equation, model: Any) -> Optional[dict]:
    """The model's witness against goal, if every axiom holds in the model
    and goal does not; None when the model cannot settle it."""
    from .models import check_equation
    try:
        if all(check_equation(model, norm_eq(ax.eq)).holds
               for ax in theory.axioms):
            res = check_equation(model, goal)
            if not res.holds:
                return res.witness
    except E.DecorError:
        pass
    return None


class _CapReached(Exception):
    """A union took the search past its fact cap."""


class _Edge:
    """A proof-forest edge u ~ v between term ids, with its justification
    built on first use."""

    __slots__ = ("u", "v", "_mk", "_proof")

    def __init__(self, u: int, v: int, mk: Callable[[], Derivation]):
        self.u, self.v, self._mk, self._proof = u, v, mk, None

    def other(self, n: int) -> int:
        return self.v if n == self.u else self.u

    def proof(self) -> Derivation:
        if self._proof is None:
            self._proof, self._mk = self._mk(), None
        return self._proof


class _Classes:
    """Proof-producing union-find over term ids, for one kind of equation
    (Nieuwenhuis & Oliveras, *Proof-producing congruence closure*, 2005).

    Classes are member lists merged smaller into larger. The proof forest
    is kept apart: each node's edge to its parent. A union reroots the
    smaller tree at its end of the new edge and hangs it there, so the path
    between two members never changes once they are joined.
    """

    def __init__(self, refl: str, sym: str, trans: str):
        self.refl, self.sym, self.trans = refl, sym, trans
        self.rep: dict[int, int] = {}
        self.members: dict[int, list[int]] = {}   # by representative
        self.edges: dict[int, list[_Edge]] = {}   # the class's tree edges
        self.up: dict[int, _Edge] = {}            # edge to the parent

    def add(self, n: int) -> None:
        self.rep[n] = n
        self.members[n] = [n]
        self.edges[n] = []

    def union(self, e: _Edge) -> Optional[tuple[int, int]]:
        """Join e's ends; returns (kept, absorbed) representatives, or None
        if they are already one class."""
        keep, gone = self.rep[e.u], self.rep[e.v]
        if keep == gone:
            return None
        if len(self.members[keep]) < len(self.members[gone]):
            keep, gone = gone, keep
        end = e.u if self.rep[e.u] == gone else e.v
        edge, n = self.up.pop(end, None), end
        while edge is not None:           # reverse the path from end to root
            nxt = edge.other(n)
            nxt_edge = self.up.pop(nxt, None)
            self.up[nxt] = edge
            edge, n = nxt_edge, nxt
        self.up[end] = e
        moved = self.members.pop(gone)
        for m in moved:
            self.rep[m] = keep
        self.members[keep] += moved
        self.edges[keep] += self.edges.pop(gone)
        self.edges[keep].append(e)
        return keep, gone

    def path(self, a: int, b: int) -> list[tuple[_Edge, bool]]:
        """The tree path from a to b in one class, each edge flagged True
        when it runs along the path (u first)."""
        rise, n = [a], a
        while n in self.up:
            n = self.up[n].other(n)
            rise.append(n)
        depth = {m: k for k, m in enumerate(rise)}
        fall, n = [], b
        while n not in depth:
            e = self.up[n]
            fall.append((e, e.v == n))
            n = e.other(n)
        return ([(self.up[m], self.up[m].u == m) for m in rise[:depth[n]]]
                + fall[::-1])


class _Search:
    """The state of one saturation search; see `saturate_prove`."""

    def __init__(self, theory: Theory, goal: Equation, fact_cap: int):
        self.theory, self.goal, self.cap = theory, goal, fact_cap
        self.side = EXCEPTIONS if theory.flavor == "exceptions" else STATES
        self.terms: list[Term] = []
        self.ids: dict[Term, int] = {}
        self.classes = {STRONG: _Classes("eq-refl", "eq-sym", "eq-trans")}
        if _wkind(theory) == WEAK:
            self.classes[WEAK] = _Classes("w-refl", "w-sym", "w-trans")
        self.low: dict[int, int] = {}   # weak representative -> first member of level <= 1
        self.facts = 0
        self.rounds = 0
        self.fresh: list[int] = []      # ids whose subterms are not pooled yet
        self.pool: set[Term] = set()    # the terms and subterms seen so far
        # the pooled terms a round may compose, with their texts to sort by
        self.small: dict[Term, str] = {}
        self.goal_ids = (self.node_id(goal.lhs), self.node_id(goal.rhs))

    def rule(self, rid: str) -> str:
        """The states-side rule rid, read on this search's side."""
        return read_on(self.side, rid)

    def node_id(self, t: Term) -> int:
        n = self.ids.get(t)
        if n is None:
            n = self.ids[t] = len(self.terms)
            self.terms.append(t)
            for cls in self.classes.values():
                cls.add(n)
            if t.level <= 1:
                self.low[n] = n
            self.fresh.append(n)
        return n

    def union(self, kind: str, u: int, v: int,
              mk: Callable[[], Derivation]) -> None:
        """Record terms u ~ v of `kind`, proved by mk(), with the unions it
        entails between the two kinds."""
        e = _Edge(u, v, mk)
        merged = self.classes[kind].union(e)
        if merged is None:
            return
        self.facts += 1
        if self.facts > self.cap:
            raise _CapReached
        th = self.theory
        if kind == STRONG:
            if WEAK in self.classes:
                self.union(WEAK, u, v, lambda: node(th, "s-to-w", [e.proof()]))
            return
        keep, gone = merged
        a, b = self.low.get(keep), self.low.pop(gone, None)
        if b is None:
            return
        if a is None:
            self.low[keep] = b
            return
        self.low[keep] = min(a, b)
        self.union(STRONG, a, b, lambda: node(
            th, self.rule("w-to-s"), [self.explain(WEAK, a, b)]))

    def explain(self, kind: str, a: int, b: int) -> Derivation:
        """Derive terms a ~ b along their class's tree path."""
        cls, th = self.classes[kind], self.theory
        steps = [e.proof() if along else node(th, cls.sym, [e.proof()])
                 for e, along in cls.path(a, b)]
        if not steps:
            return node(th, cls.refl, f=self.terms[a])
        d = steps[0]
        for s in steps[1:]:
            d = node(th, cls.trans, [d, s])
        return d

    def found(self) -> bool:
        # the plain logic has no weak classes: a weak goal is never found
        cls = self.classes.get(self.goal.kind)
        a, b = self.goal_ids
        return cls is not None and cls.rep[a] == cls.rep[b]

    def proven(self, reason: str) -> ProveResult:
        d = self.explain(self.goal.kind, *self.goal_ids)
        return ProveResult("proven", d, reason, self.rounds, self.facts)

    def extend_pool(self, terms: Sequence[Term] = ()) -> list[Term]:
        """Pool terms and the subterms of every newly registered term; return
        the terms new to the pool, in the order first seen. The pool is
        closed under subterms, so the walk stops at a pooled term."""
        new, pool = [], self.pool
        for t in itertools.chain(terms, (self.terms[n] for n in self.fresh)):
            todo = [t]
            while todo:
                s = todo.pop()
                if s not in pool:
                    pool.add(s)
                    if s.size <= MAX_TERM_SIZE:
                        self.small[s] = str(s)
                    new.append(s)
                    todo += reversed(s.kids())
        self.fresh.clear()
        return new

    def settle(self, terms: Sequence[Term] = ()) -> None:
        """Pool the new terms and seed f ~~ unit for each new f into 1
        (states), f ~~ empty for each new f out of 0 (exceptions)."""
        side, th, rid = self.side, self.theory, self.rule("w-final")
        new = self.extend_pool(terms)
        while new:
            if WEAK in self.classes:
                for t in new:
                    if isinstance(side.tgt(t), side.unit):
                        self.union(WEAK, self.node_id(t),
                                   self.node_id(side.to_unit(side.src(t))),
                                   partial(node, th, rid, f=t))
            new = self.extend_pool()

    def run(self, budget: int) -> ProveResult:
        th, goal = self.theory, self.goal
        for ax in th.axioms:
            eq = norm_eq(ax.eq)
            if eq.kind in self.classes:
                self.union(eq.kind, self.node_id(eq.lhs), self.node_id(eq.rhs),
                           partial(axiom_node, th, ax.name))
        prims: list[Term] = []
        for side in (STATES, EXCEPTIONS):
            if th.flavor in (side.flavor, "plain"):
                ix = side.indices(th)
                prims += [side.lookup(i) for i in ix]
                prims += [side.update(i) for i in ix]
                prims.append(Id(side.unit()))
        self.settle(prims)
        if self.found():
            return self.proven("closure of the axioms")
        for rnd in range(1, budget + 1):
            self.rounds = rnd
            if not self.compose_round():
                self.settle()
            if self.found():
                return self.proven(f"found in round {rnd}")
        return ProveResult("unknown", None,
                           f"budget of {budget} rounds exhausted",
                           self.rounds, self.facts)

    def compose_round(self) -> bool:
        """Compose the classes of the round's start with the pool; True as
        soon as the goal is reached."""
        side, th, terms = self.side, self.theory, self.terms
        small, then = self.small, side.then_normal
        by_src: dict[TypeExpr, list[Term]] = {}
        by_tgt: dict[TypeExpr, list[Term]] = {}
        for c in sorted(small, key=lambda t: (t.size, small[t])):
            if not isinstance(c, Id):
                by_src.setdefault(side.src(c), []).append(c)
                by_tgt.setdefault(side.tgt(c), []).append(c)
        snapshot = [(kind, list(cls.members[r]), list(cls.edges[r]))
                    for kind, cls in self.classes.items()
                    for r in cls.members if len(cls.members[r]) >= 2]
        # (context last, strong rule, weak rule, weak rule needs a pure context)
        ways = ((False, self.rule("eq-subs"), self.rule("w-subs"), False),
                (True, self.rule("eq-repl"), self.rule("w-repl-pure"), True))
        for kind, members, edges in snapshot:
            t0 = terms[members[0]]
            extra = min(0 if isinstance(terms[m], Id)
                        else terms[m].size + 1 for m in members)
            for last, strong_rid, weak_rid, pure in ways:
                rid = strong_rid if kind == STRONG else weak_rid
                need_pure = pure and kind == WEAK
                for c in (by_src.get(side.tgt(t0), ()) if last
                          else by_tgt.get(side.src(t0), ())):
                    if c.size + extra > MAX_TERM_SIZE:
                        break
                    if need_pure and c.level > 0:
                        continue
                    comp = {m: self.node_id(then(c, terms[m]) if last
                                            else then(terms[m], c))
                            for m in members}
                    for e in edges:
                        self.union(kind, comp[e.u], comp[e.v],
                                   partial(_congruence, th, rid, e, c))
                    if self.found():
                        return True
        return False


def _congruence(theory: Theory, rid: str, e: _Edge, c: Term) -> Derivation:
    return node(theory, rid, [e.proof()], by=c)
