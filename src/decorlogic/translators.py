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

from typing import Any, Optional, Union

from . import errors as E
from .kernel import (
    RULES, Derivation, Holds, Judgment, WellFormed, axiom_node, gen_node,
    hyp_node, node,
)
from .terms import (
    CaseSum, Catch, CatchAll, Coerce, Comp, ConstCotuple, FromEmpty, Gen, Id,
    Inj1, Inj2, LocTuple, Lookup, Node, PropCase, Proj1, Proj2, SemiCoprod,
    SemiProd, TERM_CLASSES, Term, ToUnit, Throw, Update, normalize_assoc,
    spelled, term_class,
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
        def wrap(t):
            return f"({t})" if isinstance(t, EComp) else str(t)
        return f"{wrap(self.after)} . {wrap(self.before)}"


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


# the pure constructs and their explicit images, their fields in step
_EXPLICIT = {Id: EId, ToUnit: ETerminal, FromEmpty: EInitial, Proj1: EProj1,
             Proj2: EProj2, Inj1: EInj1, Inj2: EInj2}


def _pure_base(theory: Theory, t: Term) -> ETerm:
    """The explicit image of a level-0 term, no state column."""
    if type(t) in _EXPLICIT:
        return _EXPLICIT[type(t)](*_field_values(t))
    if isinstance(t, Comp):
        return ecomp(_pure_base(theory, t.after), _pure_base(theory, t.before))
    if isinstance(t, Gen) and t.dec == 0:
        return EGen(t.name, t.dom, t.cod)
    if isinstance(t, SemiProd) and t.level == 0:
        f = _pure_base(theory, t.pure if t.pure_on_left else t.eff)
        g = _pure_base(theory, t.eff if t.pure_on_left else t.pure)
        return eprodmap(f, g)
    if isinstance(t, SemiCoprod) and t.level == 0:
        f = _pure_base(theory, t.pure if t.pure_on_left else t.eff)
        g = _pure_base(theory, t.eff if t.pure_on_left else t.pure)
        return esummap(f, g)
    if isinstance(t, PropCase) and t.level == 0:
        return ECase(_pure_base(theory, t.on_left),
                     _pure_base(theory, t.on_right))
    if isinstance(t, CaseSum) and t.level == 0:
        return ECase(_pure_base(theory, t.on_value),
                     _pure_base(theory, t.on_empty))
    if isinstance(t, Coerce) and t.level == 0:
        return _pure_base(theory, t.inner)
    raise E.TypingError(f"{t} is not a pure term with an explicit image")


def _st_pure(theory: Theory, t: Term) -> ETerm:
    """Expand a pure map: act on the value column, pass the state through."""
    a, b = t.dom, t.cod
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
        if t.level == 0:
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
            ae, be = eff.dom, eff.cod
            ap, bp = pure.dom, pure.cod
            in_ty = Prod(t.dom, s)
            pin = EProj1(t.dom, s)
            # the effectful component, fed its own column plus the state
            if t.pure_on_left:
                eff_col: ETerm = EProj2(ap, ae)
                pure_col: ETerm = EProj1(ap, ae)
            else:
                eff_col = EProj1(ae, ap)
                pure_col = EProj2(ae, ap)
            if isinstance(ae, Unit):
                eff_in: ETerm = EProj2(t.dom, s)
            else:
                eff_in = EPair(ecomp(eff_col, pin), EProj2(t.dom, s))
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
        y = eq.lhs.cod
        s = state_type(theory)
        if isinstance(y, Unit):
            # nothing to observe but the unit value; both sides collapse
            lhs = ETerminal(lhs.dom)
            rhs = ETerminal(rhs.dom)
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
    a, b = t.dom, t.cod
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
        if t.level == 0:
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
            y = t.cod
            comps = dict(t.components)

            def arm(j):
                return ecomp(go(comps[j]), val_in(Param(j)))

            return _exc_case(theory, arm)
        if isinstance(t, CaseSum):
            g, k = t.on_value, t.on_empty
            x = t.dom
            kk = go(k)
            if isinstance(x, Empty):
                return kk
            return ECase(ecomp(go(g), EInj1(x, e)), kk)
        if isinstance(t, PropCase):
            a, b = t.on_left.dom, t.on_right.dom
            inner = ECase(ecomp(go(t.on_left), val_in(a)),
                          ecomp(go(t.on_right), val_in(b)))
            return ECase(inner, exc_in(t.cod))
        if isinstance(t, Coerce):
            x = t.dom
            if isinstance(x, Empty):
                return exc_in(t.cod)
            return ECase(ecomp(go(t.inner), EInj1(x, e)), exc_in(t.cod))
        if isinstance(t, SemiCoprod):
            eff, pure = t.eff, t.pure
            ae, be = eff.dom, eff.cod
            ap, bp = pure.dom, pure.cod
            out_val = t.cod
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
        x = eq.lhs.dom
        e = exception_type(theory)
        if isinstance(x, Empty):
            lhs = EInitial(lhs.cod)
            rhs = EInitial(rhs.cod)
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
