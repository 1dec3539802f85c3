"""Translations between the logics.

Three translations live here:

* erasure      -- forget decorations: same signature, flavor "plain",
                  every weak equation read as strong, same rule ids.
* duality      -- the involutive swap between the states side and the
                  exceptions side (lookup <-> throw, update <-> catch,
                  products <-> sums, composition reversed), each construct
                  traded for the one at its field of the other row of
                  `terms.Side`.
* expansion    -- compile a decorated term to an explicit one over the
                  base category: states thread a state product, exception
                  terms a sum of parameter types. An explicit term is a
                  term of the pure fragment, with the pairing `EPair` and
                  copairing `ECase`. The exceptions expansion is the
                  states expansion read on the other side (`terms.Side`);
                  only the handler constructs the states side lacks are
                  expanded on their own.

Erasure and duality act on derivations by rebuilding them node by node, so
a translated tree is re-validated while it is being produced.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from . import errors as E
from .kernel import (
    RULES, Derivation, Holds, Judgment, RuleRef, WellFormed, cite, node,
)
from .terms import (
    EXCEPTIONS, STATES, CaseSum, CatchAll, Coerce, Comp, FromEmpty, Gen, Id,
    Inj1, Inj2, Node, PropCase, Proj1, Proj2, SemiCoprod, SemiProd, Side,
    TERM_CLASSES, Term, ToUnit, comp, compose_normal, factors, normalize_assoc,
    term_class,
)
from .theory import Axiom, Equation, STRONG, Theory
from .types import (
    Coprod, Empty, Named, Prod, TYPE_CLASSES, TypeExpr, UNIT,
)


# ================================================ rebuilt derivations

def _same(x: Any) -> Any:
    return x


def _rebuild(target: Theory, d: Derivation, *, judgment, rule=_same,
             value=_same, mirror: bool = False) -> Derivation:
    """Rebuild d over `target` node by node, each conclusion recomputed.

    Each node is rebuilt under rule(its rule reference), which may refuse
    it before its premises are rebuilt: a citation through `cite`, with
    judgment(its conclusion) as a hypothesis's claim, and a rule node from
    the rebuilt premises, each instantiation value mapped by `value`. A
    node shared in d is rebuilt once and shared in the result. With
    `mirror`, composition is read reversed: the premises of a rule that
    composes them swap, and so do the outer terms of `assoc`.
    """
    rules: dict[int, RuleRef] = {}  # id of a node -> its rule over target
    out: dict[int, Derivation] = {}  # id of a node -> its rebuilt node
    for n, _, done in d.walk():
        if not done:
            rules[id(n)] = rule(n.rule)
        elif not isinstance(n.rule, str):
            out[id(n)] = cite(target, rules[id(n)], judgment(n.conclusion))
        else:
            prems = [out[id(p)] for p in n.premises]
            inst = {k: value(v) for k, v in n.inst}
            if mirror and n.rule in _REVERSED_PREMISES:
                prems.reverse()
            if mirror and n.rule == "assoc":
                inst["f"], inst["h"] = inst["h"], inst["f"]
            out[id(n)] = node(target, rules[id(n)], prems, **inst)
    return out[id(d)]


# =============================================================== erasure

def erase_equation(eq: Equation) -> Equation:
    return Equation(eq.lhs, eq.rhs, STRONG)


def erase_theory(theory: Theory) -> Theory:
    """Forget the decorations: same signature, one equality."""
    if theory.flavor == "plain":
        return theory
    axioms = tuple(Axiom(a.name, erase_equation(a.eq)) for a in theory.axioms)
    return replace(theory, name=theory.name + "-plain", flavor="plain",
                   axioms=axioms)


def erase_judgment(j: Judgment) -> Judgment:
    if isinstance(j, Holds):
        return Holds(erase_equation(j.eq))
    return j


def erase_derivation(theory: Theory, d: Derivation) -> Derivation:
    """Replay the tree over the erased theory, rule ids unchanged."""
    return _rebuild(erase_theory(theory), d, judgment=erase_judgment)


# =============================================================== duality

# rules whose two well-formedness premises compose; order flips under duality
_REVERSED_PREMISES = frozenset({"comp", "0-comp", "1-comp"})


def _partners(*names: str) -> dict[type, type]:
    """Each class at the fields `names` of one side's row, mapped to its
    partner at the same field of the other row, both ways."""
    out: dict[type, type] = {}
    for name in names:
        a, b = getattr(STATES, name), getattr(EXCEPTIONS, name)
        for x, y in zip(a, b) if isinstance(a, tuple) else [(a, b)]:
            out[x], out[y] = y, x
    return out


# each type and each construct with its counterpart on the other side,
# their fields in step
_DUAL_TYPE = {Named: Named, **_partners("unit", "slot", "prod")}
_DUAL_CLASS = {Id: Id, **_partners("to_unit", "projs", "lookup", "update",
                                   "loc_tuple", "semi")}


def dualize_type(ty: TypeExpr) -> TypeExpr:
    """ty read on the other side: 1 and 0, V[i] and P[i], products and sums
    traded; a named type stays."""
    if type(ty) not in _DUAL_TYPE:
        raise TypeError(f"not a type: {ty!r}")
    return _DUAL_TYPE[type(ty)](*map(_dualize_value, _field_values(ty)))


def dualize_term(t: Term) -> Term:
    """t read on the other side: each construct traded for its
    counterpart, composition reversed, a generator's profile swapped. A
    composite is mirrored node for node, so dualizing twice gives t back,
    in a loop: a None in `todo` composes the top two duals in `done`."""
    done: list[Term] = []
    todo: list[Optional[Term]] = [t]
    while todo:
        u = todo.pop()
        if u is None:
            before = done.pop()
            done.append(Comp(done.pop(), before))
        elif isinstance(u, Comp):
            todo += (None, u.after, u.before)
        elif isinstance(u, Gen):
            done.append(Gen(u.name, dualize_type(u.cod), dualize_type(u.dom),
                            u.dec))
        elif type(u) not in _DUAL_CLASS:
            raise E.OutsideDualityDomain(
                f"{type(u).__name__} has no counterpart on the other side")
        else:
            done.append(
                _DUAL_CLASS[type(u)](*map(_dualize_value, _field_values(u))))
    return done[0]


def _field_values(t: Any) -> list:
    return [getattr(t, name) for name in t.__match_args__]


def dualize_equation(eq: Equation) -> Equation:
    return Equation(normalize_assoc(dualize_term(eq.lhs)),
                    normalize_assoc(dualize_term(eq.rhs)), eq.kind)


# each side's axiom letter, and the other side's
_DUAL_LETTER = {STATES.axiom: EXCEPTIONS.axiom, EXCEPTIONS.axiom: STATES.axiom}


def dual_axiom_name(name: str) -> str:
    """A1_x <-> B1_x, A2_x_y <-> B2_x_y; anything else keeps its name."""
    if (len(name) > 2 and name[0] in _DUAL_LETTER and name[1] in "12"
            and name[2] == "_"):
        return _DUAL_LETTER[name[0]] + name[1:]
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


def _dual_rule(rule: RuleRef) -> RuleRef:
    """A rule id's partner, or an axiom citation's dual axiom; anything
    else passes through, for the kernel to take or reject."""
    if isinstance(rule, tuple) and len(rule) == 2 and rule[0] == "axiom":
        return "axiom", dual_axiom_name(rule[1])
    dual = RULES[rule].dual if isinstance(rule, str) and rule in RULES else rule
    if dual is None:
        raise E.OutsideDualityDomain(
            f"rule {rule!r} has no counterpart on the other side")
    return dual


def dualize_derivation(theory: Theory, d: Derivation,
                       target: Optional[Theory] = None) -> Derivation:
    """Rebuild d on the other side; conclusions are recomputed on the way.

    `target` defaults to dualize_theory(theory); pass a compatible theory
    (same axiom names and equations) to land the result elsewhere.
    """
    if target is None:
        target = dualize_theory(theory)
    try:
        return _rebuild(target, d, judgment=dualize_judgment, rule=_dual_rule,
                        value=_dualize_value, mirror=True)
    except E.FlavorViolation as exc:
        # d holds on its own side, so the dual uses a construct the target
        # side lacks, such as 0, the dual of 1, on the states side
        raise E.OutsideDualityDomain(
            f"the dual leaves the {target.flavor} logic: {exc}") from exc


# ============================================================== expansion
#
# Explicit terms: the pure fragment of `terms` (identities, composites,
# projections, injections, unit[X], empty[Y] and level-0 generators),
# with the base category's pairing `<f, g>` and copairing `[f | g]`, which
# no decorated keyword writes. No decorations, no effects; evaluation is
# plain structural recursion.


@term_class
class EPair(Node):
    fst: Term
    snd: Term

    def _facts(self):
        return self.fst.dom, Prod(self.fst.cod, self.snd.cod), 0

    def __str__(self) -> str:
        return f"<{self.fst}, {self.snd}>"


@term_class
class ECase(Node):
    on_left: Term
    on_right: Term

    def _facts(self):
        return Coprod(self.on_left.dom, self.on_right.dom), self.on_left.cod, 0

    def __str__(self) -> str:
        return f"[{self.on_left} | {self.on_right}]"


def ecomp(*parts: Term) -> Term:
    """Compose normal terms right-to-left, dropping identities."""
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = compose_normal(p, out)
    return out


def eprodmap(f: Term, g: Term) -> Term:
    a, b = f.dom, g.dom
    return EPair(ecomp(f, Proj1(a, b)), ecomp(g, Proj2(a, b)))


def esummap(f: Term, g: Term) -> Term:
    a, b = f.cod, g.cod
    return ECase(ecomp(Inj1(a, b), f), ecomp(Inj2(a, b), g))


def _contract(a: Term, b: Term) -> Term | None:
    """The contraction of the adjacent composite a . b, or None."""
    if isinstance(a, Proj1) and isinstance(b, EPair):
        return b.fst
    if isinstance(a, Proj2) and isinstance(b, EPair):
        return b.snd
    if isinstance(a, ECase) and isinstance(b, Inj1):
        return a.on_left
    if isinstance(a, ECase) and isinstance(b, Inj2):
        return a.on_right
    if isinstance(a, ToUnit):
        return ToUnit(b.dom)
    if isinstance(b, FromEmpty):
        return FromEmpty(a.cod)
    return None


def esimplify(t: Term) -> Term:
    """Cheap rewriting: projection/pairing, case/injection, eta, identities.

    Rewrites until a pass contracts nothing and leaves no identity on a
    spine; such a pass at most re-nests composites, so a further one would
    give back the same term."""
    changed = True

    def once(t: Term) -> Term:
        nonlocal changed
        if isinstance(t, Comp):
            # the factors, after-most first
            parts = [once(u) for u in factors(t)][::-1]
            i = 0
            while i + 1 < len(parts):
                red = _contract(parts[i], parts[i + 1])
                if red is None:
                    i += 1
                else:
                    parts[i:i + 2] = [red]
                    i = max(i - 1, 0)
                    changed = True
            if any(isinstance(u, Id) for u in parts):
                changed = True
            return ecomp(*parts)
        if isinstance(t, EPair):
            f, s = once(t.fst), once(t.snd)
            if (isinstance(f, Proj1) and isinstance(s, Proj2)
                    and (f.left, f.right) == (s.left, s.right)):
                changed = True
                return Id(Prod(f.left, f.right))
            return EPair(f, s)
        if isinstance(t, ECase):
            l, r = once(t.on_left), once(t.on_right)
            if (isinstance(l, Inj1) and isinstance(r, Inj2)
                    and (l.left, l.right) == (r.left, r.right)):
                changed = True
                return Id(Coprod(l.left, l.right))
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
# first read in the opposite category (`terms.Side`), so each construct
# the two sides share is expanded once, against a side: the side's pure
# constructs are its own, and only the pairing (`EPair` or `ECase`) and
# the order of composition (`_then`) are chosen here, by `side.op`.


def _then(side: Side, *parts: Term) -> Term:
    """ecomp(*parts) as the side reads it: the last part runs first."""
    return ecomp(*side.order(parts))


def _store(side: Side, theory: Theory) -> TypeExpr:
    """One column per index, right-nested, in declaration order."""
    tys = [side.slot(i) for i in side.indices(theory)]
    out = tys[-1]
    for ty in reversed(tys[:-1]):
        out = side.prod(ty, out)
    return out


def state_type(theory: Theory) -> TypeExpr:
    """The whole store as one right-nested product, in location order."""
    return _store(STATES, theory)


def exception_type(theory: Theory) -> TypeExpr:
    """All raised payloads as one right-nested sum, in declaration order."""
    return _store(EXCEPTIONS, theory)


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


def _pure_base(t: Term) -> Term:
    """The explicit image of a level-0 term, no store column. A term of
    the pure fragment is its own image."""
    if isinstance(t, Comp):
        return ecomp(*[_pure_base(f) for f in factors(t)][::-1])
    if isinstance(t, (Id, ToUnit, FromEmpty, Proj1, Proj2, Inj1, Inj2)) or (
            isinstance(t, Gen) and t.dec == 0):
        return t
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


def _expand(side: Side, theory: Theory, t: Term, own=None) -> Term:
    """The explicit image of t on `side`; own(go, t) expands a construct
    the side has alone, or returns None."""
    s = _store(side, theory)
    idx = side.indices(theory)
    pair = ECase if side.op else EPair
    (proj1, proj2), terminal = side.projs, side.to_unit

    def then(*parts: Term) -> Term:
        return _then(side, *parts)

    def column(i: str) -> Term:
        """Column i out of the store."""
        ty, steps = s, []
        for j in idx[:-1]:
            if j == i:
                return then(proj1(ty.left, ty.right), *steps)
            steps.insert(0, proj2(ty.left, ty.right))
            ty = ty.right
        # i is the last column: what is left of the store is its type
        return then(*steps) if steps else Id(ty)

    def store_of(arm) -> Term:
        """Into the store, column i from arm(i)."""
        out = arm(idx[-1])
        for i in reversed(idx[:-1]):
            out = pair(arm(i), out)
        return out

    def pure(t: Term) -> Term:
        """Act on the value column, pass the store through."""
        x, y = side.src(t), side.tgt(t)
        if isinstance(y, side.unit):
            return Id(s) if isinstance(x, side.unit) else proj2(x, s)
        base = _pure_base(t)
        if not isinstance(x, side.unit):
            return pair(then(base, proj1(x, s)), proj2(x, s))
        if side.op and _inhabited(t.dom):
            # no pure map reaches 0 from a non-empty type
            raise E.TypingError(
                f"{t} claims to be a pure map into the empty type")
        return pair(then(base, terminal(s)), Id(s))

    def semi(t: Term) -> Term:
        """The effectful factor runs on its own column and the store, the
        pure one on its column alone."""
        eff, x = t.eff, side.src(t)
        ae, be, ap = side.src(eff), side.tgt(eff), side.src(t.pure)
        in_ty = side.prod(x, s)
        pin = proj1(x, s)
        if t.pure_on_left:
            eff_col, pure_col = proj2(ap, ae), proj1(ap, ae)
        else:
            eff_col, pure_col = proj1(ae, ap), proj2(ae, ap)
        if isinstance(ae, side.unit):
            eff_in = proj2(x, s)
        else:
            eff_in = pair(then(eff_col, pin), proj2(x, s))
        eff_out = then(go(eff), eff_in)
        if isinstance(be, side.unit):
            val_e, store_out = terminal(in_ty), eff_out
        else:
            val_e = then(proj1(be, s), eff_out)
            store_out = then(proj2(be, s), eff_out)
        if isinstance(ap, side.unit):
            val_p = then(_pure_base(t.pure), terminal(in_ty))
        else:
            val_p = then(_pure_base(t.pure), pure_col, pin)
        vals = (val_p, val_e) if t.pure_on_left else (val_e, val_p)
        return pair(pair(*vals), store_out)

    def go(t: Term) -> Term:
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
            return then(*parts)
        if isinstance(t, side.lookup):
            return pair(column(t.index), Id(s))
        if isinstance(t, side.update):
            i = t.index
            new, old = proj1(side.slot(i), s), proj2(side.slot(i), s)
            return store_of(lambda j: new if j == i else then(column(j), old))
        if isinstance(t, side.loc_tuple):
            # every component observes the same incoming pair; its value
            # column becomes the new content of its column
            comps = dict(t.components)
            return store_of(lambda i: then(proj1(side.slot(i), s),
                                           go(comps[i])))
        if isinstance(t, side.semi):
            return semi(t)
        out = own(go, t) if own else None
        if out is None:
            raise E.TypingError(f"no {side.flavor} expansion for {t}")
        return out

    return esimplify(go(normalize_assoc(t)))


def _expand_equation(side: Side, expand, theory: Theory, eq: Equation
                     ) -> tuple[Term, Term]:
    lhs, rhs = expand(theory, eq.lhs), expand(theory, eq.rhs)
    if eq.kind == STRONG:
        return lhs, rhs
    y = side.tgt(eq.lhs)
    if isinstance(y, side.unit):
        # nothing to observe but the unit value; both sides collapse
        return side.to_unit(side.src(lhs)), side.to_unit(side.src(rhs))
    col = side.projs[0](y, _store(side, theory))
    return (esimplify(_then(side, col, lhs)),
            esimplify(_then(side, col, rhs)))


def expand_states(theory: Theory, t: Term) -> Term:
    """Compile a decorated states term to an explicit state-passing map.

    A term f: X -> Y becomes ef: X*S -> Y*S over the whole store S,
    with the convention 1*S = S on both ends.
    """
    if theory.flavor != "states":
        raise E.BadParams("expand_states needs a states theory")
    return _expand(STATES, theory, t)


def expand_states_equation(theory: Theory, eq: Equation) -> tuple[Term, Term]:
    """Expand both sides; a weak equation keeps only the value column."""
    return _expand_equation(STATES, expand_states, theory, eq)


def expand_exceptions(theory: Theory, t: Term) -> Term:
    """Compile a decorated exceptions term to an explicit sum-passing map.

    A term f: X -> Y becomes ef: X+E -> Y+E over the sum E of all payload
    types, with 0+E = E on both ends. Ordinary input rides the left column.
    The constructs the states side shares are its expansion read on the
    other side; only those it lacks are expanded here.
    """
    if theory.flavor != "exceptions":
        raise E.BadParams("expand_exceptions needs an exceptions theory")
    e = exception_type(theory)

    def val_in(a: TypeExpr) -> Term:
        """X -> X+E (or E -> E when X is empty)."""
        return Id(e) if isinstance(a, Empty) else Inj1(a, e)

    def exc_in(a: TypeExpr) -> Term:
        return Id(e) if isinstance(a, Empty) else Inj2(a, e)

    def own(go, t: Term) -> Optional[Term]:
        if isinstance(t, CatchAll):
            return ecomp(Inj1(UNIT, e), ToUnit(e))
        if isinstance(t, CaseSum):
            on_empty = go(t.on_empty)
            if isinstance(t.dom, Empty):
                return on_empty
            return ECase(ecomp(go(t.on_value), Inj1(t.dom, e)), on_empty)
        if isinstance(t, PropCase):
            inner = ECase(ecomp(go(t.on_left), val_in(t.on_left.dom)),
                          ecomp(go(t.on_right), val_in(t.on_right.dom)))
            return ECase(inner, exc_in(t.cod))
        if isinstance(t, Coerce):
            if isinstance(t.dom, Empty):
                return exc_in(t.cod)
            return ECase(ecomp(go(t.inner), Inj1(t.dom, e)), exc_in(t.cod))
        return None

    return _expand(EXCEPTIONS, theory, t, own)


def expand_exceptions_equation(theory: Theory, eq: Equation
                               ) -> tuple[Term, Term]:
    """Expand both sides; a weak equation keeps only the ordinary column."""
    return _expand_equation(EXCEPTIONS, expand_exceptions, theory, eq)


# ------------------------------------------------- explicit evaluation

def eval_explicit(t: Term, x: Any, tables=None) -> Any:
    """Structural evaluation; `tables` interprets generators by name as
    {name: callable}."""
    if isinstance(t, Id):
        return x
    if isinstance(t, Comp):
        for f in factors(t):
            x = eval_explicit(f, x, tables)
        return x
    if isinstance(t, EPair):
        return (eval_explicit(t.fst, x, tables), eval_explicit(t.snd, x, tables))
    if isinstance(t, Proj1):
        return x[0]
    if isinstance(t, Proj2):
        return x[1]
    if isinstance(t, ECase):
        tag, v = x
        return eval_explicit(t.on_left if tag == "l" else t.on_right, v, tables)
    if isinstance(t, Inj1):
        return ("l", x)
    if isinstance(t, Inj2):
        return ("r", x)
    if isinstance(t, ToUnit):
        return ()
    if isinstance(t, FromEmpty):
        raise E.ModelError("a value of the empty type turned up")
    if isinstance(t, Gen) and t.dec == 0:
        if not tables or t.name not in tables:
            raise E.NoInterpretation(f"no interpretation for generator {t.name!r}")
        return tables[t.name](x)
    raise TypeError(f"not an explicit term: {t!r}")
