"""Translations between the logics.

Three translations live here:

* erasure      -- forget decorations: same signature, flavor "plain",
                  every weak equation read as strong, same rule ids.
* duality      -- the involutive swap between the states side and the
                  exceptions side (lookup <-> throw, update <-> catch,
                  products <-> sums, composition reversed).
* expansion    -- compile a decorated term to an explicit one over the
                  base category: states thread a state product, exception
                  terms a sum of parameter types. The exceptions expansion
                  is the states expansion read on the other side (`_Side`);
                  only the handler constructs the states side lacks are
                  expanded on their own.

Erasure and duality act on derivations by rebuilding them node by node, so
a translated tree is re-validated while it is being produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Union

from . import errors as E
from .kernel import (
    RULES, Derivation, Holds, Judgment, WellFormed, axiom_node, gen_node,
    hyp_node, node,
)
from .terms import (
    CaseSum, Catch, CatchAll, Coerce, Comp, ConstCotuple, FromEmpty, Gen, Id,
    Inj1, Inj2, LocTuple, Lookup, Node, PropCase, Proj1, Proj2, SemiCoprod,
    SemiProd, TERM_CLASSES, Term, ToUnit, Throw, Update, comp, factors,
    normalize_assoc, spelled, term_class,
)
from .theory import Axiom, Equation, STRONG, Theory
from .types import (
    Coprod, EMPTY, Empty, Named, Param, Prod, TYPE_CLASSES, TypeExpr, UNIT,
    Unit, Value,
)


# =============================================================== erasure

def erase_equation(eq: Equation) -> Equation:
    return Equation(eq.lhs, eq.rhs, STRONG)


def erase_theory(theory: Theory) -> Theory:
    """Forget the decorations: same signature, one equality."""
    if theory.flavor == "plain":
        return theory
    axioms = tuple(Axiom(a.name, erase_equation(a.eq)) for a in theory.axioms)
    return Theory(theory.name + "-plain", "plain", theory.locations,
                  theory.constructors, theory.gens, axioms, theory.catch_all)


def erase_judgment(j: Judgment) -> Judgment:
    if isinstance(j, Holds):
        return Holds(erase_equation(j.eq))
    return j


def erase_derivation(theory: Theory, d: Derivation) -> Derivation:
    """Replay the tree over the erased theory, rule ids unchanged."""
    target = erase_theory(theory)

    def go(n: Derivation) -> Derivation:
        if isinstance(n.rule, tuple):
            tag, name = n.rule[0], n.rule[1]
            if tag == "axiom":
                return axiom_node(target, name)
            if tag == "gen":
                return gen_node(target, name)
            return hyp_node(target, name, erase_judgment(n.conclusion))
        return node(target, n.rule, [go(p) for p in n.premises], **dict(n.inst))

    return go(d)


# =============================================================== duality

# rules whose two well-formedness premises compose; order flips under duality
_REVERSED_PREMISES = frozenset({"comp", "0-comp", "1-comp"})


def dualize_type(ty: TypeExpr) -> TypeExpr:
    if isinstance(ty, Unit):
        return EMPTY
    if isinstance(ty, Empty):
        return UNIT
    if isinstance(ty, Value):
        return Param(ty.index)
    if isinstance(ty, Param):
        return Value(ty.index)
    if isinstance(ty, Named):
        return ty
    if isinstance(ty, Prod):
        return Coprod(dualize_type(ty.left), dualize_type(ty.right))
    if isinstance(ty, Coprod):
        return Prod(dualize_type(ty.left), dualize_type(ty.right))
    raise TypeError(f"not a type: {ty!r}")


# each construct and its counterpart on the other side, their fields in step
_DUAL_CLASS = {Id: Id, ToUnit: FromEmpty, Proj1: Inj1, Proj2: Inj2,
               Lookup: Throw, Update: Catch, SemiProd: SemiCoprod,
               LocTuple: ConstCotuple}
_DUAL_CLASS.update({b: a for a, b in _DUAL_CLASS.items()})


def dualize_term(t: Term) -> Term:
    """t read on the other side: each construct traded for its
    counterpart, composition reversed, a generator's profile swapped."""
    if isinstance(t, Comp):
        return Comp(dualize_term(t.before), dualize_term(t.after))
    if isinstance(t, Gen):
        return Gen(t.name, dualize_type(t.cod), dualize_type(t.dom), t.dec)
    if type(t) not in _DUAL_CLASS:
        raise E.OutsideDualityDomain(
            f"{type(t).__name__} has no counterpart on the other side")
    return _DUAL_CLASS[type(t)](*map(_dualize_value, _field_values(t)))


def _field_values(t: Any) -> list:
    return [getattr(t, name) for name in t.__match_args__]


def dualize_equation(eq: Equation) -> Equation:
    return Equation(normalize_assoc(dualize_term(eq.lhs)),
                    normalize_assoc(dualize_term(eq.rhs)), eq.kind)


def dual_axiom_name(name: str) -> str:
    """A1_x <-> B1_x, A2_x_y <-> B2_x_y; anything else keeps its name."""
    if len(name) > 2 and name[1] in "12" and name[2] == "_":
        if name[0] == "A":
            return "B" + name[1:]
        if name[0] == "B":
            return "A" + name[1:]
    return name


def _toggle_name(name: str) -> str:
    return name[:-5] if name.endswith("-dual") else name + "-dual"


def dualize_theory(theory: Theory) -> Theory:
    if theory.flavor == "plain":
        raise E.OutsideDualityDomain("the plain logic has no dual side")
    if theory.catch_all:
        raise E.OutsideDualityDomain(
            "the catch-all catcher has no states-side counterpart")
    flavor = "exceptions" if theory.flavor == "states" else "states"
    gens = tuple(dualize_term(g) for g in theory.gens)
    axioms = tuple(Axiom(dual_axiom_name(a.name), dualize_equation(a.eq))
                   for a in theory.axioms)
    return Theory(_toggle_name(theory.name), flavor,
                  locations=theory.constructors, constructors=theory.locations,
                  gens=gens, axioms=axioms)


def dualize_judgment(j: Judgment) -> Judgment:
    if isinstance(j, Holds):
        return Holds(dualize_equation(j.eq))
    return WellFormed(normalize_assoc(dualize_term(j.term)), j.level)


def _dualize_value(v: Any) -> Any:
    if isinstance(v, TERM_CLASSES):
        return dualize_term(v)
    if isinstance(v, TYPE_CLASSES):
        return dualize_type(v)
    if isinstance(v, tuple):
        return tuple((i, dualize_term(f)) for i, f in v)
    return v


def dualize_derivation(theory: Theory, d: Derivation,
                       target: Optional[Theory] = None) -> Derivation:
    """Rebuild d on the other side; conclusions are recomputed on the way.

    `target` defaults to dualize_theory(theory); pass a compatible theory
    (same axiom names and equations) to land the result elsewhere.
    """
    if target is None:
        target = dualize_theory(theory)

    def go(n: Derivation) -> Derivation:
        if isinstance(n.rule, tuple):
            tag, name = n.rule[0], n.rule[1]
            if tag == "axiom":
                return axiom_node(target, dual_axiom_name(name))
            if tag == "gen":
                return gen_node(target, name)
            return hyp_node(target, name, dualize_judgment(n.conclusion))
        # an unknown rule id passes through, for node() to reject
        rid = RULES[n.rule].dual if n.rule in RULES else n.rule
        if rid is None:
            raise E.OutsideDualityDomain(
                f"rule {n.rule!r} has no counterpart on the other side")
        prems = [go(p) for p in n.premises]
        if n.rule in _REVERSED_PREMISES:
            prems.reverse()
        inst = {k: _dualize_value(v) for k, v in n.inst}
        if n.rule == "assoc":
            inst["f"], inst["h"] = inst["h"], inst["f"]
        return node(target, rid, prems, **inst)

    try:
        return go(d)
    except E.FlavorViolation as exc:
        # d holds on its own side, so the dual uses a construct the target
        # side lacks, such as 0, the dual of 1, on the states side
        raise E.OutsideDualityDomain(
            f"the dual leaves the {target.flavor} logic: {exc}") from exc


# ============================================================== expansion
#
# Explicit terms: a tiny total language over the base category. No
# decorations, no effects; evaluation is plain structural recursion. Like
# decorated terms, each node stores its profile (`terms.Node`), at level 0;
# those that share a keyword with a decorated term are written through its
# `terms.SYNTAX` row.

_eterm = term_class("ETerm")


@spelled("id")
@_eterm
class EId(Node):
    ty: TypeExpr

    def _facts(self):
        return self.ty, self.ty, 0


@_eterm
class EComp(Node):
    after: ETerm
    before: ETerm

    def _facts(self):
        return self.before.dom, self.after.cod, 0

    def __str__(self) -> str:
        # `after . before`, a composite factor in parentheses; written from
        # a stack of pieces to go, not recursively, as spines can be long
        out: list[str] = []
        todo: list = [self.before, " . ", self.after]
        while todo:
            t = todo.pop()
            if isinstance(t, str):
                out.append(t)
            elif isinstance(t, EComp):
                todo += (")", t.before, " . ", t.after, "(")
            else:
                out.append(str(t))
        return "".join(out)


@_eterm
class EPair(Node):
    fst: ETerm
    snd: ETerm

    def _facts(self):
        return self.fst.dom, Prod(self.fst.cod, self.snd.cod), 0

    def __str__(self) -> str:
        return f"<{self.fst}, {self.snd}>"


@spelled("p1")
@_eterm
class EProj1(Node):
    left: TypeExpr
    right: TypeExpr

    def _facts(self):
        return Prod(self.left, self.right), self.left, 0


@spelled("p2")
@_eterm
class EProj2(Node):
    left: TypeExpr
    right: TypeExpr

    def _facts(self):
        return Prod(self.left, self.right), self.right, 0


@_eterm
class ECase(Node):
    on_left: ETerm
    on_right: ETerm

    def _facts(self):
        return Coprod(self.on_left.dom, self.on_right.dom), self.on_left.cod, 0

    def __str__(self) -> str:
        return f"[{self.on_left} | {self.on_right}]"


@spelled("in1")
@_eterm
class EInj1(Node):
    left: TypeExpr
    right: TypeExpr

    def _facts(self):
        return self.left, Coprod(self.left, self.right), 0


@spelled("in2")
@_eterm
class EInj2(Node):
    left: TypeExpr
    right: TypeExpr

    def _facts(self):
        return self.right, Coprod(self.left, self.right), 0


@spelled("unit")
@_eterm
class ETerminal(Node):
    frm: TypeExpr

    def _facts(self):
        return self.frm, UNIT, 0


@spelled("empty")
@_eterm
class EInitial(Node):
    to: TypeExpr

    def _facts(self):
        return EMPTY, self.to, 0


@_eterm
class EGen(Node):
    name: str
    dom: TypeExpr
    cod: TypeExpr

    def _facts(self):
        return self.dom, self.cod, 0

    def __str__(self) -> str:
        return self.name


ETerm = Union[EId, EComp, EPair, EProj1, EProj2, ECase, EInj1, EInj2,
              ETerminal, EInitial, EGen]


def _efactors(t: ETerm) -> Iterator[ETerm]:
    """The factors of t's composite spine, after-most first."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, EComp):
            todo += (t.before, t.after)
        else:
            yield t


def ecomp(*parts: ETerm) -> ETerm:
    """Compose right-to-left, dropping identities."""
    flat = [f for p in parts for f in _efactors(p) if not isinstance(f, EId)]
    if not flat:
        return EId(parts[-1].dom)
    out = flat[-1]
    for t in reversed(flat[:-1]):
        out = EComp(t, out)
    return out


def eprodmap(f: ETerm, g: ETerm) -> ETerm:
    a, b = f.dom, g.dom
    return EPair(ecomp(f, EProj1(a, b)), ecomp(g, EProj2(a, b)))


def esummap(f: ETerm, g: ETerm) -> ETerm:
    a, b = f.cod, g.cod
    return ECase(ecomp(EInj1(a, b), f), ecomp(EInj2(a, b), g))


def _contract(a: ETerm, b: ETerm) -> ETerm | None:
    """The contraction of the adjacent composite a . b, or None."""
    if isinstance(a, EProj1) and isinstance(b, EPair):
        return b.fst
    if isinstance(a, EProj2) and isinstance(b, EPair):
        return b.snd
    if isinstance(a, ECase) and isinstance(b, EInj1):
        return a.on_left
    if isinstance(a, ECase) and isinstance(b, EInj2):
        return a.on_right
    if isinstance(a, ETerminal):
        return ETerminal(b.dom)
    if isinstance(b, EInitial):
        return EInitial(a.cod)
    return None


def esimplify(t: ETerm) -> ETerm:
    """Cheap rewriting: projection/pairing, case/injection, eta, identities.

    Rewrites until a pass contracts nothing and leaves no identity on a
    spine; such a pass at most re-nests composites, so a further one would
    give back the same term."""
    changed = True

    def once(t: ETerm) -> ETerm:
        nonlocal changed
        if isinstance(t, EComp):
            parts = [once(u) for u in _efactors(t)]
            i = 0
            while i + 1 < len(parts):
                red = _contract(parts[i], parts[i + 1])
                if red is None:
                    i += 1
                else:
                    parts[i:i + 2] = [red]
                    i = max(i - 1, 0)
                    changed = True
            if any(isinstance(u, EId) for u in parts):
                changed = True
            return ecomp(*parts)
        if isinstance(t, EPair):
            f, s = once(t.fst), once(t.snd)
            if (isinstance(f, EProj1) and isinstance(s, EProj2)
                    and (f.left, f.right) == (s.left, s.right)):
                changed = True
                return EId(Prod(f.left, f.right))
            return EPair(f, s)
        if isinstance(t, ECase):
            l, r = once(t.on_left), once(t.on_right)
            if (isinstance(l, EInj1) and isinstance(r, EInj2)
                    and (l.left, l.right) == (r.left, r.right)):
                changed = True
                return EId(Coprod(l.left, l.right))
            return ECase(l, r)
        return t

    while changed:
        changed = False
        t = once(t)
    return t


# -------------------------------------------------- expansion, both sides
#
# A states term f: X -> Y becomes ef: X*S -> Y*S over the whole store S,
# one column per location, with 1*S = S on both ends. An exceptions term
# f: X -> Y becomes ef: X+E -> Y+E over the sum E of the payload types,
# with 0+E = E, ordinary input riding the left column. The second is the
# first read in the opposite category, so each construct the two sides
# share is expanded once, against a side.


@dataclass(frozen=True)
class _Side:
    """One side of the expansion, read as `kernel._Side` reads a rule.

    The exceptions side is the states side read in the opposite category:
    sources and targets swap, composition reverses, and each explicit
    construct is traded for its dual. The fields are named after the
    states-side construct they stand for.
    """

    flavor: str
    op: bool                 # read in the opposite category
    unit: type               # Unit / Empty
    slot: type               # Value / Param: the type of a store column
    prod: type               # Prod / Coprod
    pair: type               # EPair / ECase
    proj1: type              # EProj1 / EInj1
    proj2: type              # EProj2 / EInj2
    terminal: type           # ETerminal / EInitial
    lookup: type             # Lookup / Throw
    update: type             # Update / Catch
    loc_tuple: type          # LocTuple / ConstCotuple
    semi: type               # SemiProd / SemiCoprod

    def indices(self, theory: Theory) -> tuple:
        return theory.constructors if self.op else theory.locations

    def src(self, t) -> TypeExpr:
        return t.cod if self.op else t.dom

    def tgt(self, t) -> TypeExpr:
        return t.dom if self.op else t.cod

    def order(self, parts: list) -> list:
        """Factors listed after-most first as the side reads them, listed
        after-most first in the category itself, and back."""
        return parts[::-1] if self.op else parts

    def comp(self, *parts: ETerm) -> ETerm:
        """ecomp(*parts) as the side reads it: the last part runs first."""
        return ecomp(*self.order(parts))


_STATES = _Side("states", False, Unit, Value, Prod, EPair, EProj1, EProj2,
                ETerminal, Lookup, Update, LocTuple, SemiProd)
_EXCEPTIONS = _Side("exceptions", True, Empty, Param, Coprod, ECase, EInj1,
                    EInj2, EInitial, Throw, Catch, ConstCotuple, SemiCoprod)


def _store(side: _Side, theory: Theory) -> TypeExpr:
    """One column per index, right-nested, in declaration order."""
    tys = [side.slot(i) for i in side.indices(theory)]
    out = tys[-1]
    for ty in reversed(tys[:-1]):
        out = side.prod(ty, out)
    return out


def state_type(theory: Theory) -> TypeExpr:
    """The whole store as one right-nested product, in location order."""
    return _store(_STATES, theory)


def exception_type(theory: Theory) -> TypeExpr:
    """All raised payloads as one right-nested sum, in declaration order."""
    return _store(_EXCEPTIONS, theory)


def pack_state(theory: Theory, state: tuple) -> Any:
    vals = list(state)
    out = vals[-1]
    for v in reversed(vals[:-1]):
        out = (v, out)
    return out


def pack_exception(theory: Theory, name: str, payload: Any) -> Any:
    """Where a raised (name, payload) sits inside the nested sum value."""
    names = theory.constructors
    k = names.index(name)
    out = payload if k == len(names) - 1 else ("l", payload)
    for _ in range(k):
        out = ("r", out)
    return out


# the pure constructs and their explicit images, their fields in step
_EXPLICIT = {Id: EId, ToUnit: ETerminal, FromEmpty: EInitial, Proj1: EProj1,
             Proj2: EProj2, Inj1: EInj1, Inj2: EInj2}


def _pure_base(t: Term) -> ETerm:
    """The explicit image of a level-0 term, no store column."""
    if type(t) in _EXPLICIT:
        return _EXPLICIT[type(t)](*_field_values(t))
    if isinstance(t, Comp):
        return ecomp(_pure_base(t.after), _pure_base(t.before))
    if isinstance(t, Gen) and t.dec == 0:
        return EGen(t.name, t.dom, t.cod)
    if isinstance(t, (SemiProd, SemiCoprod)) and t.level == 0:
        left, right = (t.pure, t.eff) if t.pure_on_left else (t.eff, t.pure)
        pairmap = eprodmap if isinstance(t, SemiProd) else esummap
        return pairmap(_pure_base(left), _pure_base(right))
    if isinstance(t, PropCase) and t.level == 0:
        return ECase(_pure_base(t.on_left), _pure_base(t.on_right))
    if isinstance(t, CaseSum) and t.level == 0:
        return ECase(_pure_base(t.on_value), _pure_base(t.on_empty))
    if isinstance(t, Coerce) and t.level == 0:
        return _pure_base(t.inner)
    raise E.TypingError(f"{t} is not a pure term with an explicit image")


def _inhabited(ty: TypeExpr) -> bool:
    """Whether an exceptions-side type has a value; 0 + 0 has none."""
    if isinstance(ty, Coprod):
        return _inhabited(ty.left) or _inhabited(ty.right)
    return not isinstance(ty, Empty)


def _expand(side: _Side, theory: Theory, t: Term, own=None) -> ETerm:
    """The explicit image of t on `side`; own(go, t) expands a construct
    the side has alone, or returns None."""
    s = _store(side, theory)
    idx = side.indices(theory)

    def column(i: str) -> ETerm:
        """Column i out of the store."""
        ty, steps = s, []
        for j in idx[:-1]:
            if j == i:
                return side.comp(side.proj1(ty.left, ty.right), *steps)
            steps.insert(0, side.proj2(ty.left, ty.right))
            ty = ty.right
        # i is the last column: what is left of the store is its type
        return side.comp(*steps) if steps else EId(ty)

    def store_of(arm) -> ETerm:
        """Into the store, column i from arm(i)."""
        out = arm(idx[-1])
        for i in reversed(idx[:-1]):
            out = side.pair(arm(i), out)
        return out

    def pure(t: Term) -> ETerm:
        """Act on the value column, pass the store through."""
        x, y = side.src(t), side.tgt(t)
        if isinstance(y, side.unit):
            return EId(s) if isinstance(x, side.unit) else side.proj2(x, s)
        base = _pure_base(t)
        if not isinstance(x, side.unit):
            return side.pair(side.comp(base, side.proj1(x, s)),
                             side.proj2(x, s))
        if side.op and _inhabited(t.dom):
            # no pure map reaches 0 from a non-empty type
            raise E.TypingError(
                f"{t} claims to be a pure map into the empty type")
        return side.pair(side.comp(base, side.terminal(s)), EId(s))

    def semi(t: Term) -> ETerm:
        """The effectful factor runs on its own column and the store, the
        pure one on its column alone."""
        eff, x = t.eff, side.src(t)
        ae, be, ap = side.src(eff), side.tgt(eff), side.src(t.pure)
        in_ty = side.prod(x, s)
        pin = side.proj1(x, s)
        if t.pure_on_left:
            eff_col, pure_col = side.proj2(ap, ae), side.proj1(ap, ae)
        else:
            eff_col, pure_col = side.proj1(ae, ap), side.proj2(ae, ap)
        if isinstance(ae, side.unit):
            eff_in = side.proj2(x, s)
        else:
            eff_in = side.pair(side.comp(eff_col, pin), side.proj2(x, s))
        eff_out = side.comp(go(eff), eff_in)
        if isinstance(be, side.unit):
            val_e, store_out = side.terminal(in_ty), eff_out
        else:
            val_e = side.comp(side.proj1(be, s), eff_out)
            store_out = side.comp(side.proj2(be, s), eff_out)
        if isinstance(ap, side.unit):
            val_p = side.comp(_pure_base(t.pure), side.terminal(in_ty))
        else:
            val_p = side.comp(_pure_base(t.pure), pure_col, pin)
        vals = (val_p, val_e) if t.pure_on_left else (val_e, val_p)
        return side.pair(side.pair(*vals), store_out)

    def go(t: Term) -> ETerm:
        if t.level == 0:
            return pure(t)
        if isinstance(t, Comp):
            # the factors as the side reads them, after-most first; the run
            # of pure ones that runs first is expanded as one pure map
            fs = side.order(list(factors(t))[::-1])
            k = len(fs)
            while fs[k - 1].level == 0:
                k -= 1
            parts = [go(f) for f in fs[:k]]
            if k < len(fs):
                parts.append(pure(comp(*side.order(fs[k:]))))
            return side.comp(*parts)
        if isinstance(t, side.lookup):
            return side.pair(column(t.index), EId(s))
        if isinstance(t, side.update):
            i = t.index
            new, old = side.proj1(side.slot(i), s), side.proj2(side.slot(i), s)
            return store_of(
                lambda j: new if j == i else side.comp(column(j), old))
        if isinstance(t, side.loc_tuple):
            # every component observes the same incoming pair; its value
            # column becomes the new content of its column
            comps = dict(t.components)
            return store_of(lambda i: side.comp(
                side.proj1(side.slot(i), s), go(comps[i])))
        if isinstance(t, side.semi):
            return semi(t)
        out = own(go, t) if own else None
        if out is None:
            raise E.TypingError(f"no {side.flavor} expansion for {t}")
        return out

    return esimplify(go(normalize_assoc(t)))


def _expand_equation(side: _Side, expand, theory: Theory, eq: Equation
                     ) -> tuple[ETerm, ETerm]:
    lhs, rhs = expand(theory, eq.lhs), expand(theory, eq.rhs)
    if eq.kind == STRONG:
        return lhs, rhs
    y = side.tgt(eq.lhs)
    if isinstance(y, side.unit):
        # nothing to observe but the unit value; both sides collapse
        return side.terminal(side.src(lhs)), side.terminal(side.src(rhs))
    col = side.proj1(y, _store(side, theory))
    return esimplify(side.comp(col, lhs)), esimplify(side.comp(col, rhs))


def expand_states(theory: Theory, t: Term) -> ETerm:
    """Compile a decorated states term to an explicit state-passing map.

    A term f: X -> Y becomes ef: X*S -> Y*S over the whole store S,
    with the convention 1*S = S on both ends.
    """
    if theory.flavor != "states":
        raise E.BadParams("expand_states needs a states theory")
    return _expand(_STATES, theory, t)


def expand_states_equation(theory: Theory, eq: Equation) -> tuple[ETerm, ETerm]:
    """Expand both sides; a weak equation keeps only the value column."""
    return _expand_equation(_STATES, expand_states, theory, eq)


def expand_exceptions(theory: Theory, t: Term) -> ETerm:
    """Compile a decorated exceptions term to an explicit sum-passing map.

    A term f: X -> Y becomes ef: X+E -> Y+E over the sum E of all payload
    types, with 0+E = E on both ends. Ordinary input rides the left column.
    The constructs the states side shares are its expansion read on the
    other side; only those it lacks are expanded here.
    """
    if theory.flavor != "exceptions":
        raise E.BadParams("expand_exceptions needs an exceptions theory")
    e = exception_type(theory)

    def val_in(a: TypeExpr) -> ETerm:
        """X -> X+E (or E -> E when X is empty)."""
        return EId(e) if isinstance(a, Empty) else EInj1(a, e)

    def exc_in(a: TypeExpr) -> ETerm:
        return EId(e) if isinstance(a, Empty) else EInj2(a, e)

    def own(go, t: Term) -> Optional[ETerm]:
        if isinstance(t, CatchAll):
            return ecomp(EInj1(UNIT, e), ETerminal(e))
        if isinstance(t, CaseSum):
            on_empty = go(t.on_empty)
            if isinstance(t.dom, Empty):
                return on_empty
            return ECase(ecomp(go(t.on_value), EInj1(t.dom, e)), on_empty)
        if isinstance(t, PropCase):
            inner = ECase(ecomp(go(t.on_left), val_in(t.on_left.dom)),
                          ecomp(go(t.on_right), val_in(t.on_right.dom)))
            return ECase(inner, exc_in(t.cod))
        if isinstance(t, Coerce):
            if isinstance(t.dom, Empty):
                return exc_in(t.cod)
            return ECase(ecomp(go(t.inner), EInj1(t.dom, e)), exc_in(t.cod))
        return None

    return _expand(_EXCEPTIONS, theory, t, own)


def expand_exceptions_equation(theory: Theory, eq: Equation
                               ) -> tuple[ETerm, ETerm]:
    """Expand both sides; a weak equation keeps only the ordinary column."""
    return _expand_equation(_EXCEPTIONS, expand_exceptions, theory, eq)


# ------------------------------------------------- explicit evaluation

def eval_explicit(t: ETerm, x: Any, tables=None) -> Any:
    """Structural evaluation; `tables` interprets generators by name as
    {name: callable}."""
    if isinstance(t, EId):
        return x
    if isinstance(t, EComp):
        for f in reversed(list(_efactors(t))):
            x = eval_explicit(f, x, tables)
        return x
    if isinstance(t, EPair):
        return (eval_explicit(t.fst, x, tables), eval_explicit(t.snd, x, tables))
    if isinstance(t, EProj1):
        return x[0]
    if isinstance(t, EProj2):
        return x[1]
    if isinstance(t, ECase):
        tag, v = x
        return eval_explicit(t.on_left if tag == "l" else t.on_right, v, tables)
    if isinstance(t, EInj1):
        return ("l", x)
    if isinstance(t, EInj2):
        return ("r", x)
    if isinstance(t, ETerminal):
        return ()
    if isinstance(t, EInitial):
        raise E.ModelError("a value of the empty type turned up")
    if isinstance(t, EGen):
        if not tables or t.name not in tables:
            raise E.NoInterpretation(f"no interpretation for generator {t.name!r}")
        return tables[t.name](x)
    raise TypeError(f"not an explicit term: {t!r}")
