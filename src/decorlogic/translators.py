"""Translations between the logics.

Three translations live here:

* erasure      -- forget decorations: same signature, flavor "plain",
                  every weak equation read as strong, same rule ids.
* duality      -- the involutive swap between the states side and the
                  exceptions side (lookup <-> throw, update <-> catch,
                  products <-> sums, composition reversed).
* expansion    -- compile a decorated term to an explicit one over the
                  base category: states thread a state product, exception
                  terms a sum of parameter types.

Erasure and duality act on derivations by rebuilding them node by node, so
a translated tree is re-validated while it is being produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from . import errors as E
from .kernel import (
    RULES, Derivation, Holds, Judgment, WellFormed, axiom_node, gen_node,
    hyp_node, node,
)
from .terms import (
    CaseSum, Catch, CatchAll, Coerce, Comp, ConstCotuple, FromEmpty, Gen, Id,
    Inj1, Inj2, LocTuple, Lookup, PropCase, Proj1, Proj2, SemiCoprod,
    SemiProd, TERM_CLASSES, Term, ToUnit, Throw, Update, cod, dom,
    normalize_assoc,
)
from .theory import Axiom, Equation, STRONG, Theory, infer_decoration
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


def dualize_term(t: Term) -> Term:
    D, Dt = dualize_term, dualize_type
    if isinstance(t, Id):
        return Id(Dt(t.at))
    if isinstance(t, Comp):
        return Comp(D(t.before), D(t.after))
    if isinstance(t, ToUnit):
        return FromEmpty(Dt(t.frm))
    if isinstance(t, FromEmpty):
        return ToUnit(Dt(t.to))
    if isinstance(t, Proj1):
        return Inj1(Dt(t.left), Dt(t.right))
    if isinstance(t, Proj2):
        return Inj2(Dt(t.left), Dt(t.right))
    if isinstance(t, Inj1):
        return Proj1(Dt(t.left), Dt(t.right))
    if isinstance(t, Inj2):
        return Proj2(Dt(t.left), Dt(t.right))
    if isinstance(t, Lookup):
        return Throw(t.index)
    if isinstance(t, Update):
        return Catch(t.index)
    if isinstance(t, Throw):
        return Lookup(t.index)
    if isinstance(t, Catch):
        return Update(t.index)
    if isinstance(t, Gen):
        return Gen(t.name, Dt(t.cod), Dt(t.dom), t.dec)
    if isinstance(t, SemiProd):
        return SemiCoprod(D(t.pure), D(t.eff), t.pure_on_left)
    if isinstance(t, SemiCoprod):
        return SemiProd(D(t.pure), D(t.eff), t.pure_on_left)
    if isinstance(t, LocTuple):
        return ConstCotuple(tuple((i, D(f)) for i, f in t.components))
    if isinstance(t, ConstCotuple):
        return LocTuple(tuple((i, D(f)) for i, f in t.components))
    raise E.OutsideDualityDomain(
        f"{type(t).__name__} has no counterpart on the other side")


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


def _dualize_inst_value(v: Any) -> Any:
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
        inst = {k: _dualize_inst_value(v) for k, v in n.inst}
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
# decorations, no effects; evaluation is plain structural recursion.

@dataclass(frozen=True)
class EId:
    ty: TypeExpr

    def __str__(self) -> str:
        return f"id[{self.ty}]"


@dataclass(frozen=True)
class EComp:
    after: "ETerm"
    before: "ETerm"

    def __str__(self) -> str:
        def wrap(t):
            return f"({t})" if isinstance(t, EComp) else str(t)
        return f"{wrap(self.after)} . {wrap(self.before)}"


@dataclass(frozen=True)
class EPair:
    fst: "ETerm"
    snd: "ETerm"

    def __str__(self) -> str:
        return f"<{self.fst}, {self.snd}>"


@dataclass(frozen=True)
class EProj1:
    left: TypeExpr
    right: TypeExpr

    def __str__(self) -> str:
        return f"p1[{self.left},{self.right}]"


@dataclass(frozen=True)
class EProj2:
    left: TypeExpr
    right: TypeExpr

    def __str__(self) -> str:
        return f"p2[{self.left},{self.right}]"


@dataclass(frozen=True)
class ECase:
    on_left: "ETerm"
    on_right: "ETerm"

    def __str__(self) -> str:
        return f"[{self.on_left} | {self.on_right}]"


@dataclass(frozen=True)
class EInj1:
    left: TypeExpr
    right: TypeExpr

    def __str__(self) -> str:
        return f"in1[{self.left},{self.right}]"


@dataclass(frozen=True)
class EInj2:
    left: TypeExpr
    right: TypeExpr

    def __str__(self) -> str:
        return f"in2[{self.left},{self.right}]"


@dataclass(frozen=True)
class ETerminal:
    frm: TypeExpr

    def __str__(self) -> str:
        return f"unit[{self.frm}]"


@dataclass(frozen=True)
class EInitial:
    to: TypeExpr

    def __str__(self) -> str:
        return f"empty[{self.to}]"


@dataclass(frozen=True)
class EGen:
    name: str
    dom: TypeExpr
    cod: TypeExpr

    def __str__(self) -> str:
        return self.name


ETerm = Union[EId, EComp, EPair, EProj1, EProj2, ECase, EInj1, EInj2,
              ETerminal, EInitial, EGen]


def edom(t: ETerm) -> TypeExpr:
    if isinstance(t, EId):
        return t.ty
    if isinstance(t, EComp):
        return edom(t.before)
    if isinstance(t, EPair):
        return edom(t.fst)
    if isinstance(t, (EProj1, EProj2)):
        return Prod(t.left, t.right)
    if isinstance(t, ECase):
        return Coprod(edom(t.on_left), edom(t.on_right))
    if isinstance(t, (EInj1, EInj2)):
        return t.left if isinstance(t, EInj1) else t.right
    if isinstance(t, ETerminal):
        return t.frm
    if isinstance(t, EInitial):
        return EMPTY
    if isinstance(t, EGen):
        return t.dom
    raise TypeError(f"not an explicit term: {t!r}")


def ecod(t: ETerm) -> TypeExpr:
    if isinstance(t, EId):
        return t.ty
    if isinstance(t, EComp):
        return ecod(t.after)
    if isinstance(t, EPair):
        return Prod(ecod(t.fst), ecod(t.snd))
    if isinstance(t, EProj1):
        return t.left
    if isinstance(t, EProj2):
        return t.right
    if isinstance(t, ECase):
        return ecod(t.on_left)
    if isinstance(t, (EInj1, EInj2)):
        return Coprod(t.left, t.right)
    if isinstance(t, ETerminal):
        return UNIT
    if isinstance(t, EInitial):
        return t.to
    if isinstance(t, EGen):
        return t.cod
    raise TypeError(f"not an explicit term: {t!r}")


def ecomp(*parts: ETerm) -> ETerm:
    """Compose right-to-left, dropping identities."""
    flat: list[ETerm] = []

    def push(t: ETerm) -> None:
        if isinstance(t, EComp):
            push(t.after)
            push(t.before)
        elif not isinstance(t, EId):
            flat.append(t)

    for p in parts:
        push(p)
    if not flat:
        return EId(edom(parts[-1]))
    out = flat[-1]
    for t in reversed(flat[:-1]):
        out = EComp(t, out)
    return out


def eprodmap(f: ETerm, g: ETerm) -> ETerm:
    a, b = edom(f), edom(g)
    return EPair(ecomp(f, EProj1(a, b)), ecomp(g, EProj2(a, b)))


def esummap(f: ETerm, g: ETerm) -> ETerm:
    a, b = ecod(f), ecod(g)
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
        return ETerminal(edom(b))
    if isinstance(b, EInitial):
        return EInitial(ecod(a))
    return None


def esimplify(t: ETerm) -> ETerm:
    """Cheap rewriting: projection/pairing, case/injection, eta, identities."""

    def once(t: ETerm) -> ETerm:
        if isinstance(t, EComp):
            parts: list[ETerm] = []

            def flat(u: ETerm) -> None:
                if isinstance(u, EComp):
                    flat(u.after)
                    flat(u.before)
                else:
                    parts.append(once(u))

            flat(t)
            i = 0
            while i + 1 < len(parts):
                red = _contract(parts[i], parts[i + 1])
                if red is None:
                    i += 1
                else:
                    parts[i:i + 2] = [red]
                    i = max(i - 1, 0)
            return ecomp(*parts)
        if isinstance(t, EPair):
            f, s = once(t.fst), once(t.snd)
            if (isinstance(f, EProj1) and isinstance(s, EProj2)
                    and (f.left, f.right) == (s.left, s.right)):
                return EId(Prod(f.left, f.right))
            return EPair(f, s)
        if isinstance(t, ECase):
            l, r = once(t.on_left), once(t.on_right)
            if (isinstance(l, EInj1) and isinstance(r, EInj2)
                    and (l.left, l.right) == (r.left, r.right)):
                return EId(Coprod(l.left, l.right))
            return ECase(l, r)
        return t

    prev = None
    while prev != t:
        prev, t = t, once(t)
    return t


# -------------------------------------------------- states expansion

def state_type(theory: Theory) -> TypeExpr:
    """The whole store as one right-nested product, in location order."""
    tys = [Value(i) for i in theory.locations]
    out = tys[-1]
    for ty in reversed(tys[:-1]):
        out = Prod(ty, out)
    return out


def pack_state(theory: Theory, state: tuple) -> Any:
    vals = list(state)
    out = vals[-1]
    for v in reversed(vals[:-1]):
        out = (v, out)
    return out


def _loc_proj(theory: Theory, i: str) -> ETerm:
    """Project location i out of the nested state product."""
    locs = theory.locations
    s: TypeExpr = state_type(theory)
    steps: list[ETerm] = []
    for j in locs[:-1]:
        assert isinstance(s, Prod)
        if j == i:
            steps.append(EProj1(s.left, s.right))
            return ecomp(*reversed(steps)) if len(steps) > 1 else steps[0]
        steps.append(EProj2(s.left, s.right))
        s = s.right
    # i is the last location: the remaining s is V[i] itself
    if not steps:
        return EId(s)
    return ecomp(*reversed(steps)) if len(steps) > 1 else steps[0]


def _state_write(theory: Theory, i: str) -> ETerm:
    """V[i] * S -> S: replace slot i, keep the rest."""
    vi = Value(i)
    s = state_type(theory)
    new_val = EProj1(vi, s)
    old = EProj2(vi, s)

    def build(rest: tuple, ty: TypeExpr) -> ETerm:
        if len(rest) == 1:
            j = rest[0]
            return new_val if j == i else ecomp(_loc_proj(theory, j), old)
        assert isinstance(ty, Prod)
        head = rest[0]
        fst = new_val if head == i else ecomp(_loc_proj(theory, head), old)
        return EPair(fst, build(rest[1:], ty.right))

    return build(theory.locations, s)


def _pure_base(theory: Theory, t: Term) -> ETerm:
    """The explicit image of a level-0 term, no state column."""
    if isinstance(t, Id):
        return EId(t.at)
    if isinstance(t, Comp):
        return ecomp(_pure_base(theory, t.after), _pure_base(theory, t.before))
    if isinstance(t, ToUnit):
        return ETerminal(t.frm)
    if isinstance(t, FromEmpty):
        return EInitial(t.to)
    if isinstance(t, Proj1):
        return EProj1(t.left, t.right)
    if isinstance(t, Proj2):
        return EProj2(t.left, t.right)
    if isinstance(t, Inj1):
        return EInj1(t.left, t.right)
    if isinstance(t, Inj2):
        return EInj2(t.left, t.right)
    if isinstance(t, Gen) and t.dec == 0:
        return EGen(t.name, t.dom, t.cod)
    if isinstance(t, SemiProd) and infer_decoration(t) == 0:
        f = _pure_base(theory, t.pure if t.pure_on_left else t.eff)
        g = _pure_base(theory, t.eff if t.pure_on_left else t.pure)
        return eprodmap(f, g)
    if isinstance(t, SemiCoprod) and infer_decoration(t) == 0:
        f = _pure_base(theory, t.pure if t.pure_on_left else t.eff)
        g = _pure_base(theory, t.eff if t.pure_on_left else t.pure)
        return esummap(f, g)
    if isinstance(t, PropCase) and infer_decoration(t) == 0:
        return ECase(_pure_base(theory, t.on_left),
                     _pure_base(theory, t.on_right))
    if isinstance(t, CaseSum) and infer_decoration(t) == 0:
        return ECase(_pure_base(theory, t.on_value),
                     _pure_base(theory, t.on_empty))
    if isinstance(t, Coerce) and infer_decoration(t) == 0:
        return _pure_base(theory, t.inner)
    raise E.TypingError(f"{t} is not a pure term with an explicit image")


def _st_pure(theory: Theory, t: Term) -> ETerm:
    """Expand a pure map: act on the value column, pass the state through."""
    a, b = dom(t), cod(t)
    s = state_type(theory)
    base = _pure_base(theory, t)
    if isinstance(a, Unit):
        if isinstance(b, Unit):
            return EId(s)
        return EPair(ecomp(base, ETerminal(s)), EId(s))
    if isinstance(b, Unit):
        return EProj2(a, s)
    return EPair(ecomp(base, EProj1(a, s)), EProj2(a, s))


def expand_states(theory: Theory, t: Term) -> ETerm:
    """Compile a decorated states term to an explicit state-passing map.

    A term f: X -> Y becomes ef: X*S -> Y*S over the whole store S,
    with the convention 1*S = S on both ends.
    """
    if theory.flavor != "states":
        raise E.BadParams("expand_states needs a states theory")
    t = normalize_assoc(t)
    s = state_type(theory)

    def go(t: Term) -> ETerm:
        if infer_decoration(t) == 0:
            return _st_pure(theory, t)
        if isinstance(t, Comp):
            return ecomp(go(t.after), go(t.before))
        if isinstance(t, Lookup):
            return EPair(_loc_proj(theory, t.index), EId(s))
        if isinstance(t, Update):
            return _state_write(theory, t.index)
        if isinstance(t, LocTuple):
            # every component observes the same incoming pair; its value
            # column becomes the new content of its slot
            wmap = {i: ecomp(EProj1(Value(i), s), go(f))
                    for i, f in t.components}

            def build(rest, ty):
                if len(rest) == 1:
                    return wmap[rest[0]]
                assert isinstance(ty, Prod)
                return EPair(wmap[rest[0]], build(rest[1:], ty.right))

            return build(theory.locations, s)
        if isinstance(t, SemiProd):
            eff, pure = t.eff, t.pure
            ae, be = dom(eff), cod(eff)
            ap, bp = dom(pure), cod(pure)
            in_ty = Prod(dom(t), s)
            pin = EProj1(dom(t), s)
            # the effectful component, fed its own column plus the state
            if t.pure_on_left:
                eff_col: ETerm = EProj2(ap, ae)
                pure_col: ETerm = EProj1(ap, ae)
            else:
                eff_col = EProj1(ae, ap)
                pure_col = EProj2(ae, ap)
            if isinstance(ae, Unit):
                eff_in: ETerm = EProj2(dom(t), s)
            else:
                eff_in = EPair(ecomp(eff_col, pin), EProj2(dom(t), s))
            eff_out = ecomp(go(eff), eff_in)
            if isinstance(be, Unit):
                val_e: ETerm = ETerminal(in_ty)
                state_out = eff_out
            else:
                val_e = ecomp(EProj1(be, s), eff_out)
                state_out = ecomp(EProj2(be, s), eff_out)
            if isinstance(ap, Unit):
                val_p: ETerm = ecomp(_pure_base(theory, pure), ETerminal(in_ty))
            else:
                val_p = ecomp(_pure_base(theory, pure), pure_col, pin)
            pair = (EPair(val_p, val_e) if t.pure_on_left
                    else EPair(val_e, val_p))
            return EPair(pair, state_out)
        raise E.TypingError(f"no states expansion for {t}")

    return esimplify(go(t))


def expand_states_equation(theory: Theory, eq: Equation) -> tuple[ETerm, ETerm]:
    """Expand both sides; a weak equation keeps only the value column."""
    lhs, rhs = expand_states(theory, eq.lhs), expand_states(theory, eq.rhs)
    if eq.kind != STRONG:
        y = cod(eq.lhs)
        s = state_type(theory)
        if isinstance(y, Unit):
            # nothing to observe but the unit value; both sides collapse
            lhs = ETerminal(edom(lhs))
            rhs = ETerminal(edom(rhs))
        else:
            lhs = esimplify(ecomp(EProj1(y, s), lhs))
            rhs = esimplify(ecomp(EProj1(y, s), rhs))
    return lhs, rhs


# ----------------------------------------------- exceptions expansion

def exception_type(theory: Theory) -> TypeExpr:
    """All raised payloads as one right-nested sum, in declaration order."""
    tys = [Param(i) for i in theory.constructors]
    out = tys[-1]
    for ty in reversed(tys[:-1]):
        out = Coprod(ty, out)
    return out


def pack_exception(theory: Theory, name: str, payload: Any) -> Any:
    """Where a raised (name, payload) sits inside the nested sum value."""
    names = theory.constructors
    idx = names.index(name)
    if idx == len(names) - 1:
        out: Any = payload
        for _ in range(len(names) - 1):
            out = ("r", out)
        return out
    out = ("l", payload)
    for _ in range(idx):
        out = ("r", out)
    return out


def _exc_inj(theory: Theory, i: str) -> ETerm:
    """Embed payload type P[i] into the nested exception sum."""
    names = theory.constructors
    e: TypeExpr = exception_type(theory)
    prefix: list[ETerm] = []
    for j in names[:-1]:
        assert isinstance(e, Coprod)
        if j == i:
            prefix.append(EInj1(e.left, e.right))
            return ecomp(*prefix) if len(prefix) > 1 else prefix[0]
        prefix.append(EInj2(e.left, e.right))
        e = e.right
    if not prefix:
        return EId(e)
    return ecomp(*prefix) if len(prefix) > 1 else prefix[0]


def _exc_case(theory: Theory, arms) -> ETerm:
    """Case over the nested exception sum; arms maps each name to a map
    out of P[name] into one common codomain."""
    names = theory.constructors

    def build(rest, ty):
        if len(rest) == 1:
            return arms(rest[0])
        assert isinstance(ty, Coprod)
        return ECase(arms(rest[0]), build(rest[1:], ty.right))

    return build(names, exception_type(theory))


def _exc_pure(theory: Theory, t: Term) -> ETerm:
    a, b = dom(t), cod(t)
    e = exception_type(theory)
    if isinstance(a, Empty):
        # only the empty map lands here; it re-raises whatever it is given
        if isinstance(b, Empty):
            return EId(e)
        return EInj2(b, e)
    base = _pure_base(theory, t)
    if isinstance(b, Empty):
        # no pure map reaches 0 from a non-empty type; keep the embedding
        raise E.TypingError(f"{t} claims to be a pure map into the empty type")
    return esummap(base, EId(e))


def expand_exceptions(theory: Theory, t: Term) -> ETerm:
    """Compile a decorated exceptions term to an explicit sum-passing map.

    A term f: X -> Y becomes ef: X+E -> Y+E over the sum E of all payload
    types, with 0+E = E on both ends. Ordinary input rides the left column.
    """
    if theory.flavor != "exceptions":
        raise E.BadParams("expand_exceptions needs an exceptions theory")
    t = normalize_assoc(t)
    e = exception_type(theory)

    def val_in(a: TypeExpr) -> ETerm:
        """X -> X+E (or E -> E when X is empty)."""
        return EId(e) if isinstance(a, Empty) else EInj1(a, e)

    def exc_in(a: TypeExpr) -> ETerm:
        return EId(e) if isinstance(a, Empty) else EInj2(a, e)

    def go(t: Term) -> ETerm:
        if infer_decoration(t) == 0:
            return _exc_pure(theory, t)
        if isinstance(t, Comp):
            return ecomp(go(t.after), go(t.before))
        if isinstance(t, Throw):
            i = t.index
            return ECase(_exc_inj(theory, i), EId(e))
        if isinstance(t, Catch):
            i = t.index
            pi = Param(i)

            def arm(j):
                if j == i:
                    return EInj1(pi, e)
                return ecomp(EInj2(pi, e), _exc_inj(theory, j))

            return _exc_case(theory, arm)
        if isinstance(t, CatchAll):
            return ecomp(EInj1(UNIT, e), ETerminal(e))
        if isinstance(t, ConstCotuple):
            y = cod(t)
            comps = dict(t.components)

            def arm(j):
                return ecomp(go(comps[j]), val_in(Param(j)))

            return _exc_case(theory, arm)
        if isinstance(t, CaseSum):
            g, k = t.on_value, t.on_empty
            x = dom(t)
            kk = go(k)
            if isinstance(x, Empty):
                return kk
            return ECase(ecomp(go(g), EInj1(x, e)), kk)
        if isinstance(t, PropCase):
            a, b = dom(t.on_left), dom(t.on_right)
            inner = ECase(ecomp(go(t.on_left), val_in(a)),
                          ecomp(go(t.on_right), val_in(b)))
            return ECase(inner, exc_in(cod(t)))
        if isinstance(t, Coerce):
            x = dom(t)
            if isinstance(x, Empty):
                return exc_in(cod(t))
            return ECase(ecomp(go(t.inner), EInj1(x, e)), exc_in(cod(t)))
        if isinstance(t, SemiCoprod):
            eff, pure = t.eff, t.pure
            ae, be = dom(eff), cod(eff)
            ap, bp = dom(pure), cod(pure)
            out_val = cod(t)
            eff_out = go(eff)

            def embed_eff() -> ETerm:
                """sum_ty(B_e) -> cod+E, putting B_e back on its side."""
                side = (EInj2(bp, be) if t.pure_on_left else EInj1(be, bp))
                if isinstance(be, Empty):
                    return exc_in(out_val)
                return ECase(ecomp(EInj1(out_val, e), side), exc_in(out_val))

            def feed_eff(ein: ETerm) -> ETerm:
                return ecomp(embed_eff(), eff_out, ein)

            pure_side = ecomp(
                EInj1(out_val, e),
                (EInj1(bp, be) if t.pure_on_left else EInj2(be, bp)),
                _pure_base(theory, pure))
            if isinstance(ae, Empty):
                eff_val: ETerm = EInitial(Coprod(out_val, e))
                eff_exc = feed_eff(EId(e))
            else:
                eff_val = feed_eff(EInj1(ae, e))
                eff_exc = feed_eff(EInj2(ae, e))
            val_arm = (ECase(pure_side, eff_val) if t.pure_on_left
                       else ECase(eff_val, pure_side))
            return ECase(val_arm, eff_exc)
        raise E.TypingError(f"no exceptions expansion for {t}")

    return esimplify(go(t))


def expand_exceptions_equation(theory: Theory, eq: Equation
                               ) -> tuple[ETerm, ETerm]:
    """Expand both sides; a weak equation keeps only the ordinary column."""
    lhs = expand_exceptions(theory, eq.lhs)
    rhs = expand_exceptions(theory, eq.rhs)
    if eq.kind != STRONG:
        x = dom(eq.lhs)
        e = exception_type(theory)
        if isinstance(x, Empty):
            lhs = EInitial(ecod(lhs))
            rhs = EInitial(ecod(rhs))
        else:
            lhs = esimplify(ecomp(lhs, EInj1(x, e)))
            rhs = esimplify(ecomp(rhs, EInj1(x, e)))
    return lhs, rhs


# ------------------------------------------------- explicit evaluation

def eval_explicit(t: ETerm, x: Any, tables=None) -> Any:
    """Structural evaluation; `tables` interprets generators by name as
    {name: callable}."""
    if isinstance(t, EId):
        return x
    if isinstance(t, EComp):
        return eval_explicit(t.after, eval_explicit(t.before, x, tables), tables)
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
