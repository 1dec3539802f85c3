"""The states theory: signature builder, the seven classical state laws as
checkable goals, and packaged kernel derivations for the interesting ones.

A states theory over locations i has l[i]: 1 -> V[i] (level 1) and
u[i]: V[i] -> 1 (level 2), with the two weak axiom families A1/A2 of
`catalogue.signature`. The first index of A2 is the updated location, the
second the observed one.

The derivations below are built node by node through the kernel (`node`
recomputes every conclusion), so constructing them is already half a check;
`check_derivation` re-verifies from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import errors as E
from .catalogue import (
    Catalogue, Entry, annihilation, semi_pure, signature, unit_uniqueness,
)
from .kernel import Derivation, axiom_node, node
from .terms import (
    STATES, Comp, Id, Lookup, Proj1, Proj2, SemiProd, Term, ToUnit, Update,
    comp, normalize_assoc,
)
from .theory import Equation, Theory, WEAK, eq_strong, eq_weak
from .types import Prod, UNIT, Value


def build_states_theory(name: str, locations) -> Theory:
    return signature(STATES, name, locations)


# pair a pure map with an arbitrary one; typechecked against the theory
semi_pure_product = partial(semi_pure, STATES)


# ----------------------------------------------------------- law goals

def _sp_left(i: str, j: str) -> SemiProd:
    """u[i] on the left factor, identity on the right: V[i]*V[j] -> 1*V[j]."""
    return SemiProd(Id(Value(j)), Update(i), pure_on_left=False)


def _sp_right(i: str, j: str) -> SemiProd:
    """identity on the left factor, u[j] on the right: V[i]*V[j] -> V[i]*1."""
    return SemiProd(Id(Value(i)), Update(j), pure_on_left=True)


def commutation6_equation(theory: Theory, i: str, j: str) -> Equation:
    """Writing i then j equals writing j then i (on a pair of fresh values)."""
    vi, vj = Value(i), Value(j)
    lhs = comp(Update(j), Proj2(UNIT, vj), _sp_left(i, j))
    rhs = comp(Update(i), Proj1(vi, UNIT), _sp_right(i, j))
    return eq_strong(lhs, rhs)


def interaction3_equation(theory: Theory, i: str) -> Equation:
    """Writing i twice keeps only the second write."""
    vi = Value(i)
    sp = SemiProd(Id(vi), Update(i), pure_on_left=False)
    lhs = comp(Update(i), Proj2(UNIT, vi), sp)
    rhs = comp(Update(i), Proj2(vi, vi))
    return eq_strong(lhs, rhs)


@dataclass(frozen=True)
class SevenGoal:
    name: str
    direct: Equation
    observations: tuple[tuple[str, Equation], ...]


def _observe(theory: Theory, name: str, eq: Equation) -> tuple:
    obs = []
    for k in theory.locations:
        obs.append((f"{name}/obs[{k}]",
                    Equation(comp(Lookup(k), eq.lhs), comp(Lookup(k), eq.rhs), WEAK)))
    return tuple(obs)


def seven_equation_goals(theory: Theory) -> list[SevenGoal]:
    """The seven laws every storage model satisfies, as decorated goals.

    Laws between maps into 1 also come with their per-location observation
    forms (compose a lookup on the left, ask for weak equality).
    """
    goals: list[SevenGoal] = []
    for i in theory.locations:
        vi = Value(i)
        e1 = annihilation(STATES, i)
        goals.append(SevenGoal(f"1-read-then-write[{i}]", e1,
                               _observe(theory, f"1-read-then-write[{i}]", e1)))
        goals.append(SevenGoal(
            f"2-reread[{i}]",
            eq_strong(comp(Lookup(i), ToUnit(vi), Lookup(i)), Lookup(i)), ()))
        e3 = interaction3_equation(theory, i)
        goals.append(SevenGoal(f"3-overwrite[{i}]", e3,
                               _observe(theory, f"3-overwrite[{i}]", e3)))
        goals.append(SevenGoal(
            f"4-write-then-read[{i}]",
            eq_weak(comp(Lookup(i), Update(i)), Id(vi)), ()))
    for i in theory.locations:
        for j in theory.locations:
            if i == j:
                continue
            vi = Value(i)
            goals.append(SevenGoal(
                f"5-reread-other[{i},{j}]",
                eq_strong(comp(Lookup(j), ToUnit(vi), Lookup(i)), Lookup(j)), ()))
            e6 = commutation6_equation(theory, i, j)
            goals.append(SevenGoal(f"6-write-commute[{i},{j}]", e6,
                                   _observe(theory, f"6-write-commute[{i},{j}]", e6)))
            goals.append(SevenGoal(
                f"7-read-other-write[{i},{j}]",
                eq_weak(comp(Lookup(j), Update(i)),
                        comp(Lookup(j), ToUnit(vi))), ()))
    return goals


# ---------------------------------------------------- derivation pieces
#
# The double writes of commutation-6 and interaction-3 run a semi-pure
# pair that writes one factor of V[i]*V[j] and keeps the other: `first`
# says whether the written factor is the first (u[i], `_sp_left`) or the
# second (u[j], `_sp_right`). Each piece below is written once and takes
# that factor as a parameter. The appendix trees pr1..pr8 are rows of
# `BUILTINS` below, each binding one piece with the first factor written,
# or with the second.

def _fin_pair(th: Theory, a: Term, b: Term) -> Derivation:
    """a == b for two accessors into 1, via both being unit[...]."""
    da = unit_uniqueness(STATES, th, a)
    db = unit_uniqueness(STATES, th, b)
    return node(th, "eq-trans", [da, node(th, "eq-sym", [db])])


def _wsubs_ax(th: Theory, ax_name: str, by: Term) -> Derivation:
    return node(th, "w-subs", [axiom_node(th, ax_name)], by=by)


def _repl_weak(th: Theory, strong: Derivation, by: Term) -> Derivation:
    """Post-compose a strong fact and immediately weaken it."""
    return node(th, "s-to-w", [node(th, "eq-repl", [strong], by=by)])


def _unit_discard(th: Theory, proj: Term, other: Term) -> Derivation:
    """unit[..] . proj == other, both accessors into 1."""
    return _fin_pair(th, comp(ToUnit(proj.cod), proj), other)


def _write(i: str, j: str, first: bool) -> tuple[SemiProd, Term, Term]:
    """The pair writing the first or the second factor of V[i]*V[j], with
    the projections of its output onto the kept factor and the written one."""
    sp = _sp_left(i, j) if first else _sp_right(i, j)
    a, b = sp.cod.left, sp.cod.right
    if first:
        return sp, Proj2(a, b), Proj1(a, b)
    return sp, Proj1(a, b), Proj2(a, b)


def _column(i: str, j: str, first: bool) -> Term:
    """The first or the second factor out of V[i]*V[j]."""
    return (Proj1 if first else Proj2)(Value(i), Value(j))


def _kept_read(th: Theory, i: str, j: str, k: str, first: bool) -> Derivation:
    """l[k] . u[p] . kept . sp  ~~  l[k] . unit[V[p]] . kept . sp, for the
    kept index p != k."""
    sp, kept, _ = _write(i, j, first)
    return _wsubs_ax(th, f"A2_{j if first else i}_{k}", comp(kept, sp))


def _shift(th: Theory, i: str, j: str, k: str, first: bool) -> Derivation:
    """l[k] . unit[V[p]] . kept . sp  ~~  l[k] . u[w] . column w: past the
    discarded kept factor, only the write of w is left."""
    sp, kept, written = _write(i, j, first)
    d1 = _unit_discard(th, kept, written)
    d2 = node(th, "eq-subs", [d1], by=sp)
    d3 = node(th, "semiprod-P2", term=sp)
    return _repl_weak(th, node(th, "eq-trans", [d2, d3]), Lookup(k))


def _other_cell(th: Theory, i: str, j: str, k: str, first: bool
                ) -> Derivation:
    """l[k] . u[w] . column w  ~~  l[k] . unit[..] for the written index
    w != k: writing w leaves location k as it was."""
    w, p = (i if first else j), _column(i, j, first)
    s = _wsubs_ax(th, f"A2_{w}_{k}", p)
    fin = _unit_discard(th, p, ToUnit(p.dom))
    return node(th, "w-trans", [s, _repl_weak(th, fin, Lookup(k))])


def _to_written(th: Theory, i: str, j: str, k: str, first: bool
                ) -> Derivation:
    """l[k] . u[p] . kept . sp  ~~  l[k] . u[w] . column w, for k != p: k
    sees only the write of w."""
    return node(th, "w-trans", [_kept_read(th, i, j, k, first),
                                _shift(th, i, j, k, first)])


def _third(th: Theory, i: str, j: str, k: str, first: bool) -> Derivation:
    """Observing k, neither written index, after the double write."""
    return node(th, "w-trans", [_to_written(th, i, j, k, first),
                                _other_cell(th, i, j, k, first)])


def _written_cell(th: Theory, i: str, j: str, first: bool) -> Derivation:
    """l[w] of the double write whose first write is w: column w."""
    w = i if first else j
    a1 = _wsubs_ax(th, f"A1_{w}", _column(i, j, first))
    return node(th, "w-trans", [_to_written(th, i, j, w, first), a1])


def _kept_cell(th: Theory, i: str, j: str, first: bool) -> Derivation:
    """l[p] of the double write whose second write is p: the value the
    pair kept."""
    sp, kept, _ = _write(i, j, first)
    a1 = _wsubs_ax(th, f"A1_{j if first else i}", comp(kept, sp))
    return node(th, "w-trans", [a1, node(th, "semiprod-P1", term=sp)])


# ------------------------------------------------------------- lemmas

def _tuple_family(th: Theory, per_loc) -> tuple:
    return tuple((k, normalize_assoc(per_loc(k))) for k in th.locations)


def _conclude_by_cone(th: Theory, lhs: Term, rhs: Term, fam: tuple,
                      branches_l: list, branches_r: list) -> Derivation:
    u1 = node(th, "loc-tuple-unique", branches_l, g=lhs, family=fam)
    u2 = node(th, "loc-tuple-unique", branches_r, g=rhs, family=fam)
    return node(th, "eq-trans", [u1, node(th, "eq-sym", [u2])])


def _annihilation(th: Theory, i: str) -> Derivation:
    goal = annihilation(STATES, i)
    branches = []
    for j in th.locations:
        if j == i:
            branches.append(_wsubs_ax(th, f"A1_{i}", Lookup(i)))
        else:
            s1 = _wsubs_ax(th, f"A2_{i}_{j}", Lookup(i))
            fin = _fin_pair(th, comp(ToUnit(Value(i)), Lookup(i)), Id(UNIT))
            branches.append(node(th, "w-trans", [s1, _repl_weak(th, fin, Lookup(j))]))
    fam = _tuple_family(th, Lookup)
    refl = [node(th, "w-refl", f=Lookup(j)) for j in th.locations]
    return _conclude_by_cone(th, goal.lhs, goal.rhs, fam, branches, refl)


def _commutation6(th: Theory, i: str, j: str) -> Derivation:
    """Each side is one double write, the left one writing i first; each
    location is observed as `_cell` observes it."""
    if i == j:
        raise E.BadParams("commutation-6 needs two distinct locations")
    vi, vj = Value(i), Value(j)
    goal = commutation6_equation(th, i, j)

    def fam_at(k: str) -> Term:
        if k == i:
            return Proj1(vi, vj)
        if k == j:
            return Proj2(vi, vj)
        return comp(Lookup(k), ToUnit(Prod(vi, vj)))

    branches_l = [_cell(th, i, j, k, True) for k in th.locations]
    branches_r = [_cell(th, i, j, k, False) for k in th.locations]
    fam = _tuple_family(th, fam_at)
    return _conclude_by_cone(th, goal.lhs, goal.rhs, fam, branches_l,
                             branches_r)


def _cell(th: Theory, i: str, j: str, k: str, first: bool) -> Derivation:
    """l[k] of the double write of V[i]*V[j] whose first write is the
    first factor or the second."""
    if k == (i if first else j):
        return _written_cell(th, i, j, first)
    if k == (j if first else i):
        return _kept_cell(th, i, j, first)
    return _third(th, i, j, k, first)


def _interaction3(th: Theory, i: str, mirrored: bool = False) -> Derivation:
    """A double write of i, its first write on the first factor, or on the
    second when `mirrored`."""
    first = not mirrored
    vi = Value(i)
    sp, kept, _ = _write(i, i, first)
    keep = _column(i, i, not first)
    lhs = comp(Update(i), kept, sp)
    rhs = comp(Update(i), keep)

    def fam_at(k: str) -> Term:
        return keep if k == i else comp(Lookup(k), ToUnit(Prod(vi, vi)))

    branches_l, branches_r = [], []
    for k in th.locations:
        if k == i:
            branches_l.append(_kept_cell(th, i, i, first))
            branches_r.append(_wsubs_ax(th, f"A1_{i}", keep))
        else:
            branches_l.append(_third(th, i, i, k, first))
            branches_r.append(_other_cell(th, i, i, k, not first))
    fam = _tuple_family(th, fam_at)
    return _conclude_by_cone(th, lhs, rhs, fam, branches_l, branches_r)


def mirror_interaction3(theory: Theory, i: str) -> Derivation:
    """The mirrored form of interaction-3 (used via duality by handlers)."""
    return _interaction3(theory, i, mirrored=True)


# ------------------------------------------------------------ catalogue

_IJ = (("i", "name"), ("j", "name"))

LEMMAS = {
    # u[i] . l[i] == id[1]
    "annihilation": Entry(_annihilation),
    # f == unit[X] for an accessor f: X -> 1
    "final-uniqueness": Entry(
        partial(unit_uniqueness, STATES), (("f", "term"),),
        example=lambda i: Comp(ToUnit(Value(i)), Lookup(i))),
    # independent writes commute
    "commutation-6": Entry(_commutation6, _IJ),
    # a double write keeps the second value
    "interaction-3": Entry(_interaction3),
}

# the appendix proof trees, at the theory's first locations
_IJK = _IJ + (("k", "name"),)
_THIRD = "{name} observes a third location; theory has only {n}"
_TWO = "{name} needs two locations"
BUILTINS = {
    # observing k != i,j after the first write of the commuted pair
    "pr1": Entry(partial(_kept_read, first=True), _IJK, too_few=_THIRD),
    # l[k] . unit[V[j]] . p2 . (u[i] rsemi id)  ~~  l[k] . u[i] . p1
    "pr2": Entry(partial(_shift, first=True), _IJK, too_few=_THIRD),
    # l[k] . u[i] . p1  ~~  l[k] . unit[V[i]*V[j]]
    "pr3": Entry(partial(_other_cell, first=True), _IJK, too_few=_THIRD),
    "pr4": Entry(partial(_third, first=True), _IJK, too_few=_THIRD),
    # observing i itself after the first write
    "pr5": Entry(lambda th, i, j: _kept_read(th, i, j, i, True), _IJ,
                 too_few=_TWO),
    "pr6": Entry(lambda th, i, j: _shift(th, i, j, i, True), _IJ,
                 too_few=_TWO),
    # l[i] of the left double write is the first component
    "pr7": Entry(partial(_written_cell, first=True), _IJ, too_few=_TWO),
    # l[i] of the right double write is the first component
    "pr8": Entry(partial(_kept_cell, first=False), _IJ, too_few=_TWO),
}

CATALOGUE = Catalogue(STATES, LEMMAS, BUILTINS)
derive_lemma = CATALOGUE.derive_lemma
builtin_proof = CATALOGUE.builtin_proof
