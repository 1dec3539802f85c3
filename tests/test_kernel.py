"""The proof kernel: rule application, checking, tamper detection, search."""

from __future__ import annotations

import dataclasses
import json
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

import strategies as strat
from decorlogic import errors as E
from decorlogic.catalogue import unit_uniqueness
from decorlogic.dsl import (derivation_json, derivation_to_proof, execute,
                            parse_script)
from decorlogic.exceptions import CATALOGUE as EXC_CATALOGUE
from decorlogic.exceptions import build_exceptions_theory
from decorlogic.kernel import (Holds, RULES, WellFormed, apply_rule,
                               axiom_node, check_derivation, gen_node,
                               hyp_node, list_rules, node, saturate_prove,
                               _Search)
from decorlogic.models import FiniteStateModel, check_equation
from decorlogic.states import CATALOGUE as STATE_CATALOGUE
from decorlogic.states import build_states_theory, derive_lemma as st_lemma
from decorlogic.terms import (EXCEPTIONS, STATES, CaseSum, Catch, Coerce,
                              Comp, FromEmpty, Gen, Id, Lookup, PropCase,
                              SemiCoprod, SemiProd, ToUnit, Throw, Update,
                              comp, subterms)
from decorlogic.theory import (Axiom, Equation, STRONG, WEAK, eq_strong,
                               eq_weak, norm_eq)
from decorlogic.translators import (dualize_derivation, dualize_equation,
                                    dualize_theory, erase_derivation,
                                    erase_theory)
from decorlogic.types import Param, UNIT, Value

STRONG_A1 = eq_strong(comp(Lookup("x"), Update("x")), Id(Value("x")))


def test_axiom_node_conclusion(states2):
    d = axiom_node(states2, "A1_x")
    assert isinstance(d.conclusion, Holds)
    assert d.conclusion.eq.kind == WEAK
    assert d.conclusion.eq.lhs == Comp(Lookup("x"), Update("x"))
    assert d.conclusion.eq.rhs == Id(Value("x"))


def test_unknown_rule_and_axiom(states2):
    with pytest.raises(E.UnknownRule):
        node(states2, "no-such-rule")
    with pytest.raises(E.UnknownAxiom):
        axiom_node(states2, "A1_q")


def test_rule_flavor_gate(states2, exc2):
    with pytest.raises(E.RuleNotInFlavor):
        node(states2, "const-cotuple", family=(("x", Lookup("x")),), at="x")
    with pytest.raises(E.RuleNotInFlavor):
        node(exc2, "loc-tuple", family=(("i", Catch("i")),), at="i")


def test_arity_and_instantiation_errors(states2):
    a1 = axiom_node(states2, "A1_x")
    with pytest.raises(E.BadPremises):
        node(states2, "w-sym", [a1, a1])
    with pytest.raises(E.BadInstantiation):
        node(states2, "w-subs", [a1])  # missing by=
    with pytest.raises(E.BadInstantiation):
        node(states2, "w-sym", [a1], by=Id(UNIT))  # unexpected key


def test_substitution_composes_or_refuses(states2):
    a1 = axiom_node(states2, "A1_x")
    d = node(states2, "w-subs", [a1], by=Lookup("x"))
    want = eq_weak(comp(Lookup("x"), Update("x"), Lookup("x")), Lookup("x"))
    assert d.conclusion == Holds(want)
    with pytest.raises(E.BadInstantiation):
        node(states2, "w-subs", [a1], by=Lookup("y"))


def test_pure_replacement_requires_purity(states2):
    a1 = axiom_node(states2, "A1_x")
    with pytest.raises(E.KernelError):
        node(states2, "w-repl-pure", [a1], by=Update("x"))
    d = node(states2, "w-repl-pure", [a1], by=ToUnit(Value("x")))
    assert d.conclusion.eq.rhs == ToUnit(Value("x"))


def test_weak_strong_collapse_below_level_two(states2):
    refl = node(states2, "w-refl", f=Lookup("x"))
    up = node(states2, "w-to-s", [refl])
    assert up.conclusion.eq.kind == STRONG
    a1 = axiom_node(states2, "A1_x")  # left side is level 2
    with pytest.raises(E.SideConditionViolated):
        node(states2, "w-to-s", [a1])


def test_strong_to_weak_is_unconditional(states2):
    refl = node(states2, "eq-refl", f=Update("x"))
    down = node(states2, "s-to-w", [refl])
    assert down.conclusion.eq.kind == WEAK


def test_final_uniqueness_derivation(states2):
    f = comp(ToUnit(Value("x")), Lookup("x"))
    d = unit_uniqueness(STATES, states2, f)
    assert check_derivation(states2, d).valid
    assert d.conclusion.eq.kind == STRONG
    assert d.conclusion.eq.rhs == ToUnit(UNIT)


def test_initial_uniqueness_derivation(exc2):
    f = FromEmpty(Param("i"))
    d = unit_uniqueness(EXCEPTIONS, exc2, f)
    assert check_derivation(exc2, d).valid
    assert d.conclusion.eq.rhs == FromEmpty(Param("i"))


def test_hypotheses_are_collected(states2):
    eq = eq_weak(comp(Lookup("y"), Update("x"), Lookup("x")), Lookup("y"))
    h = hyp_node(states2, "h1", Holds(eq))
    d = node(states2, "w-sym", [h])
    res = check_derivation(states2, d)
    assert res.valid
    assert res.hypotheses == ("h1",)


def test_hyp_node_typechecks_claims(states2):
    bad = eq_weak(Lookup("x"), Update("x"))
    with pytest.raises(E.TypingError):
        hyp_node(states2, "h", Holds(bad))


def test_hyp_node_refuses_levels_outside_0_to_2(states2):
    t = comp(Update("x"), Lookup("x"))
    for level in (0, 1, 2):
        h = hyp_node(states2, "h", WellFormed(t, level))
        assert h.conclusion == WellFormed(t, level)
    for level in (-1, 3, 7):
        with pytest.raises(E.KernelError, match=f"level {level}; levels are"):
            hyp_node(states2, "h", WellFormed(t, level))


def test_check_rejects_tampered_conclusion(states2):
    d = node(states2, "w-sym", [axiom_node(states2, "A1_x")])
    assert d.conclusion.eq.rhs != d.conclusion.eq.lhs
    swapped = dataclasses.replace(
        d, conclusion=Holds(eq_weak(d.conclusion.eq.lhs,
                                    d.conclusion.eq.lhs)))
    res = check_derivation(states2, swapped)
    assert not res.valid
    assert res.path == ()
    assert "claims" in res.error


def test_check_rejects_tampered_rule_id(states2):
    a1 = axiom_node(states2, "A1_x")
    d = node(states2, "w-sym", [a1])
    forged = dataclasses.replace(d, rule="w-trans")
    assert not check_derivation(states2, forged).valid


def test_check_rejects_tampered_inst_deep(states2):
    a1 = axiom_node(states2, "A1_x")
    mid = node(states2, "w-subs", [a1], by=Lookup("x"))
    top = node(states2, "w-sym", [mid])
    forged_mid = dataclasses.replace(mid, inst=(("by", Lookup("y")),))
    forged = dataclasses.replace(top, premises=(forged_mid,))
    res = check_derivation(states2, forged)
    assert not res.valid
    assert res.path == (0,)


def test_check_rejects_citation_with_premises(states2):
    a1 = axiom_node(states2, "A1_x")
    forged = dataclasses.replace(a1, premises=(axiom_node(states2, "A1_y"),))
    res = check_derivation(states2, forged)
    assert not res.valid
    assert "premises" in res.error


def test_an_invalid_tree_reports_its_whole_size(states2):
    """`nodes` is the size of the tree, not of the part replayed before the
    first failure."""
    d = st_lemma(states2, "commutation-6", {"i": "x", "j": "y"})
    first = dataclasses.replace(d.premises[0], rule="w-refl")
    forged = dataclasses.replace(d, premises=(first,) + d.premises[1:])
    res = check_derivation(states2, forged)
    assert (res.valid, res.path, res.nodes) == (False, (0,), 50)
    assert len(forged) == len(d) == 50


def _chain(theory, length):
    d = axiom_node(theory, "A1_x")
    for _ in range(length):
        d = node(theory, "w-sym", [d])
    return d


def test_a_deep_chain_is_replayed_printed_and_translated(states2):
    """Every reader of a derivation is flat in depth: a 3000-deep chain
    replays, serializes and crosses both translators."""
    d = _chain(states2, 3000)
    res = check_derivation(states2, d)
    assert (res.valid, res.nodes, len(d)) == (True, 3001, 3001)
    tree = derivation_json(d)
    for _ in range(3000):
        assert tree["rule"] == "w-sym"
        (tree,) = tree["premises"]
    assert tree["rule"] == "axiom(A1_x)"
    text = derivation_to_proof("chain", "S", d)
    assert text.count(": w-sym from ") == 3000
    erased = erase_derivation(states2, d)
    assert check_derivation(erase_theory(states2), erased).nodes == 3001
    dual = dualize_derivation(states2, d)
    assert check_derivation(dualize_theory(states2), dual).valid


def test_shared_premises_are_replayed_once(states2):
    """40 doublings make a tree of 2^41 - 1 nodes over 41 distinct ones:
    replay and the proof block see each distinct node once, and `nodes`
    still counts the tree."""
    d = node(states2, "eq-refl", f=Lookup("x"))
    for _ in range(40):
        d = node(states2, "eq-trans", [d, d])
    started = time.process_time()
    res = check_derivation(states2, d)
    assert time.process_time() - started < 1.0
    assert (res.valid, res.nodes, len(d)) == (True, 2**41 - 1, 2**41 - 1)
    assert sum(1 for _ in d.walk()) == 2 * 41
    text = derivation_to_proof("doubled", "S", d)
    assert sum(line.startswith("  s") for line in text.splitlines()) == 41


def test_the_walk_meets_each_distinct_node_in_first_visit_order(states2):
    a1 = axiom_node(states2, "A1_x")
    sym = node(states2, "w-sym", [a1])
    top = node(states2, "w-trans", [sym, node(states2, "w-sym", [sym])])
    events = [(n.rule, k, done) for n, k, done in top.walk()]
    assert events == [
        ("w-trans", 0, False), ("w-sym", 0, False),
        (("axiom", "A1_x"), 0, False), (("axiom", "A1_x"), 0, True),
        ("w-sym", 0, True), ("w-sym", 1, False), ("w-sym", 1, True),
        ("w-trans", 0, True)]


def test_gen_node_states(states2):
    g = Gen("tick", UNIT, UNIT, 2)
    th = states2.with_gen(g)
    d = gen_node(th, "tick")
    assert d.conclusion == WellFormed(g, 2)
    assert check_derivation(th, d).valid
    # the same citation does not check against a theory lacking the gen
    assert not check_derivation(states2, d).valid


def test_list_rules_by_flavor():
    st_rules = list_rules("states")
    ex_rules = list_rules("exceptions")
    assert "loc-tuple" in st_rules and "loc-tuple" not in ex_rules
    assert "const-cotuple" in ex_rules and "const-cotuple" not in st_rules
    assert "comp" in st_rules and "comp" in ex_rules


def test_apply_rule_matches_node(states2):
    a1 = axiom_node(states2, "A1_x")
    via_rule = apply_rule(states2, "w-sym", [a1.conclusion], {})
    via_node = node(states2, "w-sym", [a1]).conclusion
    assert via_rule == via_node


@settings(max_examples=60, deadline=None)
@given(strat.states_derivations(max_steps=3))
def test_random_states_derivations_check(states2, d):
    assert check_derivation(states2, d).valid


@settings(max_examples=60, deadline=None)
@given(strat.exceptions_derivations(max_steps=3))
def test_random_exceptions_derivations_check(exc2, d):
    assert check_derivation(exc2, d).valid


def test_saturation_proves_overwrite_discard(states2):
    goal = eq_weak(comp(Lookup("y"), Update("x"), Lookup("x")), Lookup("y"))
    res = saturate_prove(states2, goal, budget=4)
    assert res.proven
    assert res.status == "proven"
    assert res.rounds <= 2
    assert check_derivation(states2, res.derivation).valid
    assert res.derivation.conclusion == Holds(goal)


def test_saturation_does_not_prove_strong_a1(states2):
    goal = eq_strong(comp(Lookup("x"), Update("x")), Id(Value("x")))
    res = saturate_prove(states2, goal, budget=4)
    assert res.status == "unknown"
    assert res.derivation is None
    assert res.reason


def test_saturation_is_deterministic(states2):
    goal = eq_weak(comp(Lookup("x"), Update("x"), Lookup("x")), Lookup("x"))
    r1 = saturate_prove(states2, goal, budget=3)
    r2 = saturate_prove(states2, goal, budget=3)
    assert r1.derivation == r2.derivation
    assert r1.facts == r2.facts


def test_saturation_proves_the_three_location_read_back():
    th = build_states_theory("T", ["x", "m", "z"])
    goal = eq_weak(comp(Lookup("x"), Update("m"), Lookup("m")), Lookup("x"))
    res = saturate_prove(th, goal, budget=4)
    assert res.proven
    assert check_derivation(th, res.derivation).valid
    assert res.derivation.conclusion == Holds(goal)


def test_saturation_proves_the_exceptions_side_read_back(exc2):
    # the dual of l[j] . u[i] . l[i] ~~ l[j]: rule ids read on the other side
    goal = eq_weak(comp(Throw("i"), Catch("i"), Throw("j")), Throw("j"))
    res = saturate_prove(exc2, goal, budget=4)
    assert res.proven
    assert check_derivation(exc2, res.derivation).valid
    assert res.derivation.conclusion == Holds(goal)


def test_fact_cap_is_a_hard_bound(states2):
    res = saturate_prove(states2, STRONG_A1, budget=4, fact_cap=500)
    assert res.status == "unknown" and res.derivation is None
    assert res.facts == 501
    assert res.reason == "fact cap 500 reached"


def test_refute_first_returns_the_model_witness(states2, model22):
    res = saturate_prove(states2, STRONG_A1, model=model22)
    assert res.status == "refuted" and res.derivation is None
    assert res.witness == check_equation(model22, STRONG_A1).witness
    assert res.facts == 0 and res.rounds == 0


def test_refute_first_needs_a_model_of_every_axiom(states2):
    # strong A1 fails in the model, but so does the added axiom: no refutation
    false_law = Axiom("false", eq_strong(Update("x"), ToUnit(Value("x"))))
    th = states2.with_axiom(false_law)
    model = FiniteStateModel(th, {"x": 2, "y": 2})
    assert not check_equation(model, false_law.eq).holds
    res = saturate_prove(th, STRONG_A1, budget=4, fact_cap=200, model=model)
    assert res.status != "refuted" and res.witness is None


def test_refute_first_skips_a_generator_without_table(states2):
    g = Gen("g", Value("x"), Value("x"), 0)
    th = states2.with_gen(g)
    model = FiniteStateModel(th, {"x": 2, "y": 2})
    goal = eq_strong(comp(g, Lookup("x"), Update("x")), g)
    with pytest.raises(E.DecorError):
        check_equation(model, goal)
    res = saturate_prove(th, goal, budget=4, fact_cap=200, model=model)
    assert res.status == "unknown" and res.reason == "fact cap 200 reached"


def test_dsl_prove_reports_a_reproducible_witness(model22):
    report = execute(parse_script("theory S = states(x: 2, y: 2)\n"
                                  "prove in S : l[x] . u[x] == id[V[x]]\n"))
    (prove,) = report.outcomes
    assert not prove.ok and prove.detail["status"] == "refuted"
    want = check_equation(model22, STRONG_A1).witness
    assert prove.detail["witness"] == json.loads(json.dumps(want))


@pytest.mark.parametrize("side", ["states", "exceptions"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_saturation_verdicts_agree_with_the_model(side, data, states2,
                                                  model22, exc2, exc_model22):
    """Proofs replay and hold in the model; every goal the model breaks is
    refuted with its witness, so only goals that hold there stay unknown."""
    th, model, atoms = ((states2, model22, strat.state_atoms(states2.locations))
                        if side == "states" else
                        (exc2, exc_model22,
                         strat.exception_atoms(exc2.constructors)))
    eq = data.draw(strat.equations(th, atoms))
    res = saturate_prove(th, eq, budget=2, fact_cap=1000, model=model)
    truth = check_equation(model, eq)
    if res.status == "refuted":
        assert not truth.holds and res.witness == truth.witness
    else:
        assert truth.holds
    if res.proven:
        assert check_derivation(th, res.derivation).valid
        assert res.derivation.conclusion == Holds(norm_eq(eq))


# ------------------------------------------------- declared signatures

_P, _V = Param("i"), Value("x")
# a value of each kind that every rule accepts as an instantiation
_SAMPLES = {"term": Id(UNIT), "type": UNIT, "family": (("x", Lookup("x")),),
            "name": "x", "int": 1,
            SemiProd: SemiProd(Id(_V), Lookup("x"), True),
            SemiCoprod: SemiCoprod(Id(_P), Catch("i"), True),
            CaseSum: CaseSum(Id(_P), FromEmpty(_P)), Coerce: Coerce(Catch("i")),
            PropCase: PropCase(Id(_P), Id(_P))}


@pytest.mark.parametrize("rid", list_rules())
def test_every_rule_checks_its_declared_signature(rid, states2, exc2):
    spec = RULES[rid]
    theory = states2 if "states" in spec.flavors else exc2
    premise = Holds(eq_strong(Id(UNIT), Id(UNIT)))
    ps = [premise] * (spec.premises or 0)
    full = {key: _SAMPLES[kind] for key, kind in spec.keys.items()}
    for key in spec.keys:
        inst = {k: v for k, v in full.items() if k != key}
        with pytest.raises(E.BadInstantiation, match=repr(key)):
            apply_rule(theory, rid, ps, inst)
    with pytest.raises(E.BadInstantiation, match="'stray'"):
        apply_rule(theory, rid, ps, dict(full, stray=Id(UNIT)))
    if spec.premises is not None:
        for n in (spec.premises - 1, spec.premises + 1):
            if n >= 0:
                with pytest.raises(E.BadPremises, match="premises"):
                    apply_rule(theory, rid, [premise] * n, full)


@pytest.mark.parametrize("kind,wrong", [
    ("term", UNIT), ("type", Id(UNIT)), ("family", 3),
    (CaseSum, Coerce(Catch("i")))])
def test_a_value_of_the_wrong_kind_is_refused(kind, wrong, states2, exc2):
    rid = next(r for r, s in sorted(RULES.items()) if kind in s.keys.values())
    spec = RULES[rid]
    theory = states2 if "states" in spec.flavors else exc2
    inst = {key: wrong if k == kind else _SAMPLES[k]
            for key, k in spec.keys.items()}
    with pytest.raises(E.BadInstantiation):
        apply_rule(theory, rid, [], inst)


def test_the_rule_table_declares_counts_and_kinds():
    assert len(RULES) == 51
    assert {r for r, s in RULES.items() if s.premises is None} == {
        "w-to-s", "w-to-s-prop", "loc-tuple-unique", "const-cotuple-unique"}
    assert RULES["binprod-proj"].keys == {"which": "int", "left": "type",
                                          "right": "type"}
    assert RULES["semiprod-P1"].keys == {"term": SemiProd}
    assert RULES["semicoprod-P1"].keys == {"term": SemiCoprod}
    assert RULES["semicoprod-P1"].key_kind("term") == "term"
    assert RULES["loc-tuple"].key_kind("at") == "name"
    assert RULES["eq-sym"].key_kind("undeclared") == "term"


# ------------------------------------------------------------ rule table
# Every rule applied on each flavor it belongs to, with its conclusion
# pinned as text, and the refusals of the rules that differ only in a
# strength, a level or an injection pinned word for word. A rule of the
# plain flavor runs on the erasure of the theory of its side.

_THEORIES = {"states": build_states_theory("S", ["x", "y"]),
             "exceptions": build_exceptions_theory("E", ["i", "j"])}


class _Sample:
    """Terms of one side at its indices i and j, named after the states
    side; `a` is u then l (level 2), `c` bang then l (level 1)."""

    def __init__(self, theory, side):
        i, j = self.ix = side.indices(theory)[:2]
        self.side, self.T, self.one = side, side.slot(i), side.unit()
        self.wk = STRONG if theory.flavor == "plain" else WEAK
        self.l, self.lj = side.lookup(i), side.lookup(j)
        self.u = side.update(i)
        self.id, self.bang = Id(self.T), side.to_unit(self.T)
        self.p1 = side.projs[0](self.T, side.slot(j))
        self.a = side.then(self.l, self.u)
        self.c = side.then(self.l, self.bang)
        self.family = ((i, self.l), (j, self.lj))

    def chain(self, *ts):
        """ts, each followed by the next, in the category's order."""
        return ts[::-1] if self.side.op else ts

    def eq(self, lhs, rhs, kind=STRONG):
        return Holds(Equation(lhs, rhs, kind))

    def weq(self, lhs, rhs):
        return self.eq(lhs, rhs, self.wk)


def _on_flavor(rid, flavor):
    """The theory rid is applied on in flavor, and its side's samples."""
    home = "states" if "states" in RULES[rid].flavors else "exceptions"
    side = home if flavor == "plain" else flavor
    th = _THEORIES[side]
    th = erase_theory(th) if flavor == "plain" else th
    return th, _Sample(th, STATES if side == "states" else EXCEPTIONS)


def _cone_premises(s, g):
    return [s.weq(s.side.then(s.side.lookup(k), g), f) for k, f in s.family]


# rule id -> samples -> (premises, instantiation)
_APPLY = {
    "comp": lambda s: (s.chain(WellFormed(s.u, 2), WellFormed(s.l, 1)), {}),
    "0-comp": lambda s: (s.chain(WellFormed(s.p1, 0),
                                 WellFormed(s.bang, 0)), {}),
    "1-comp": lambda s: (s.chain(WellFormed(s.bang, 0),
                                 WellFormed(s.l, 1)), {}),
    "id": lambda s: ((), dict(at=s.T)),
    "0-id": lambda s: ((), dict(at=s.T)),
    "assoc": lambda s: ((), dict(zip("fgh", s.chain(s.bang, s.l, s.u)))),
    "id-src": lambda s: ((), dict(f=s.l)),
    "id-tgt": lambda s: ((), dict(f=s.l)),
    "eq-refl": lambda s: ((), dict(f=s.u)),
    "w-refl": lambda s: ((), dict(f=s.u)),
    "eq-sym": lambda s: ([s.eq(s.a, s.id)], {}),
    "w-sym": lambda s: ([s.weq(s.a, s.id)], {}),
    "eq-trans": lambda s: ([s.eq(s.a, s.id), s.eq(s.id, s.c)], {}),
    "w-trans": lambda s: ([s.weq(s.a, s.id), s.weq(s.id, s.c)], {}),
    "s-to-w": lambda s: ([s.eq(s.a, s.id)], {}),
    "eq-subs": lambda s: ([s.eq(s.a, s.id)], dict(by=s.a)),
    "eq-repl": lambda s: ([s.eq(s.a, s.id)], dict(by=s.a)),
    "w-subs": lambda s: ([s.weq(s.a, s.id)], dict(by=s.l)),
    "w-repl": lambda s: ([s.weq(s.a, s.id)], dict(by=s.l)),
    "w-repl-pure": lambda s: ([s.weq(s.a, s.id)], dict(by=s.bang)),
    "w-subs-pure": lambda s: ([s.weq(s.a, s.id)], dict(by=s.bang)),
    "0-to-1": lambda s: ([WellFormed(s.bang, 0)], {}),
    "1-to-2": lambda s: ([WellFormed(s.l, 1)], {}),
    "w-to-s": lambda s: ([s.weq(s.c, s.id), WellFormed(s.c, 1)], {}),
    "w-to-s-prop": lambda s: ([s.weq(s.c, s.id), WellFormed(s.c, 1)], {}),
    "final": lambda s: ((), {}),
    "initial": lambda s: ((), {}),
    "unit-arrow": lambda s: ((), dict(at=s.T)),
    "empty-arrow": lambda s: ((), dict(at=s.T)),
    "w-final": lambda s: ((), dict(f=s.u)),
    "w-initial": lambda s: ((), dict(f=s.u)),
    "loc-tuple": lambda s: ((), dict(family=s.family, at=s.ix[0])),
    "const-cotuple": lambda s: ((), dict(family=s.family, at=s.ix[0])),
    "loc-tuple-unique": lambda s: (
        _cone_premises(s, s.side.then(s.u, s.l)),
        dict(family=s.family, g=s.side.then(s.u, s.l))),
    "const-cotuple-unique": lambda s: (
        _cone_premises(s, s.side.then(s.u, s.l)),
        dict(family=s.family, g=s.side.then(s.u, s.l))),
    "semiprod-P1": lambda s: ((), dict(term=s.side.semi(s.id, s.u, True))),
    "semicoprod-P1": lambda s: ((), dict(term=s.side.semi(s.id, s.u, True))),
    "semiprod-P2": lambda s: ((), dict(term=s.side.semi(s.id, s.u, False))),
    "semicoprod-P2": lambda s: ((),
                                dict(term=s.side.semi(s.id, s.u, False))),
    "binprod-proj": lambda s: ((), dict(which=2, left=s.T, right=s.one)),
    "bincoprod-inj": lambda s: ((), dict(which=2, left=s.T, right=s.one)),
    "sum-case-exists": lambda s: ((), dict(term=CaseSum(s.id, s.u))),
    "sum-case-weak": lambda s: ((), dict(term=CaseSum(s.id, s.u))),
    "sum-case-empty": lambda s: ((), dict(term=CaseSum(s.id, s.u))),
    "sum-case-prop": lambda s: ((), dict(term=CaseSum(s.id, s.bang))),
    "sum-case-unique": lambda s: (
        [s.weq(s.a, s.id), s.eq(comp(s.a, s.bang), s.u)],
        dict(term=CaseSum(s.id, s.u), h=s.a)),
    "coerce-exists": lambda s: ((), dict(term=Coerce(s.u))),
    "coerce-weak": lambda s: ((), dict(term=Coerce(s.u))),
    "coerce-unique": lambda s: ([s.weq(s.bang, s.u)],
                                dict(term=Coerce(s.u), p=s.bang)),
    "propcase-inl": lambda s: ((), dict(term=PropCase(s.l, s.lj))),
    "propcase-inr": lambda s: ((), dict(term=PropCase(s.l, s.lj))),
}

# rule id -> flavor -> the conclusion's text
_APPLIED = {
    "comp": {
        "states": "l[x] . u[x] : level 2",
        "exceptions": "c[i] . t[i] : level 2",
        "plain": "l[x] . u[x] : level 2"},
    "0-comp": {
        "states": "unit[V[x]] . p1[V[x],V[y]] : level 0",
        "exceptions": "in1[P[i],P[j]] . empty[P[i]] : level 0",
        "plain": "unit[V[x]] . p1[V[x],V[y]] : level 0"},
    "1-comp": {
        "states": "l[x] . unit[V[x]] : level 1",
        "exceptions": "empty[P[i]] . t[i] : level 1",
        "plain": "l[x] . unit[V[x]] : level 1"},
    "id": {
        "states": "id[V[x]] : level 2",
        "exceptions": "id[P[i]] : level 2",
        "plain": "id[V[x]] : level 2"},
    "0-id": {
        "states": "id[V[x]] : level 0",
        "exceptions": "id[P[i]] : level 0",
        "plain": "id[V[x]] : level 0"},
    "assoc": {
        "states": "u[x] . (l[x] . unit[V[x]]) == u[x] . (l[x] . unit[V[x]])",
        "exceptions": ("empty[P[i]] . (t[i] . c[i])"
                       " == empty[P[i]] . (t[i] . c[i])"),
        "plain": "u[x] . (l[x] . unit[V[x]]) == u[x] . (l[x] . unit[V[x]])"},
    "id-src": {
        "states": "l[x] == l[x]",
        "exceptions": "t[i] == t[i]",
        "plain": "l[x] == l[x]"},
    "id-tgt": {
        "states": "l[x] == l[x]",
        "exceptions": "t[i] == t[i]",
        "plain": "l[x] == l[x]"},
    "eq-refl": {
        "states": "u[x] == u[x]",
        "exceptions": "c[i] == c[i]",
        "plain": "u[x] == u[x]"},
    "w-refl": {
        "states": "u[x] ~~ u[x]",
        "exceptions": "c[i] ~~ c[i]",
        "plain": "u[x] == u[x]"},
    "eq-sym": {
        "states": "id[V[x]] == l[x] . u[x]",
        "exceptions": "id[P[i]] == c[i] . t[i]",
        "plain": "id[V[x]] == l[x] . u[x]"},
    "w-sym": {
        "states": "id[V[x]] ~~ l[x] . u[x]",
        "exceptions": "id[P[i]] ~~ c[i] . t[i]",
        "plain": "id[V[x]] == l[x] . u[x]"},
    "eq-trans": {
        "states": "l[x] . u[x] == l[x] . unit[V[x]]",
        "exceptions": "c[i] . t[i] == empty[P[i]] . t[i]",
        "plain": "l[x] . u[x] == l[x] . unit[V[x]]"},
    "w-trans": {
        "states": "l[x] . u[x] ~~ l[x] . unit[V[x]]",
        "exceptions": "c[i] . t[i] ~~ empty[P[i]] . t[i]",
        "plain": "l[x] . u[x] == l[x] . unit[V[x]]"},
    "s-to-w": {
        "states": "l[x] . u[x] ~~ id[V[x]]",
        "exceptions": "c[i] . t[i] ~~ id[P[i]]",
        "plain": "l[x] . u[x] == id[V[x]]"},
    "eq-subs": {
        "states": "l[x] . (u[x] . (l[x] . u[x])) == l[x] . u[x]",
        "exceptions": "c[i] . (t[i] . (c[i] . t[i])) == c[i] . t[i]",
        "plain": "l[x] . (u[x] . (l[x] . u[x])) == l[x] . u[x]"},
    "eq-repl": {
        "states": "l[x] . (u[x] . (l[x] . u[x])) == l[x] . u[x]",
        "exceptions": "c[i] . (t[i] . (c[i] . t[i])) == c[i] . t[i]",
        "plain": "l[x] . (u[x] . (l[x] . u[x])) == l[x] . u[x]"},
    "w-subs": {
        "states": "l[x] . (u[x] . l[x]) ~~ l[x]",
        "plain": "l[x] . (u[x] . l[x]) == l[x]"},
    "w-repl": {
        "exceptions": "t[i] . (c[i] . t[i]) ~~ t[i]",
        "plain": "t[i] . (c[i] . t[i]) == t[i]"},
    "w-repl-pure": {
        "states": "unit[V[x]] . (l[x] . u[x]) ~~ unit[V[x]]",
        "plain": "unit[V[x]] . (l[x] . u[x]) == unit[V[x]]"},
    "w-subs-pure": {
        "exceptions": "c[i] . (t[i] . empty[P[i]]) ~~ empty[P[i]]",
        "plain": "c[i] . (t[i] . empty[P[i]]) == empty[P[i]]"},
    "0-to-1": {
        "states": "unit[V[x]] : level 1",
        "exceptions": "empty[P[i]] : level 1",
        "plain": "unit[V[x]] : level 1"},
    "1-to-2": {
        "states": "l[x] : level 2",
        "exceptions": "t[i] : level 2",
        "plain": "l[x] : level 2"},
    "w-to-s": {
        "states": "l[x] . unit[V[x]] == id[V[x]]",
        "plain": "l[x] . unit[V[x]] == id[V[x]]"},
    "w-to-s-prop": {
        "exceptions": "empty[P[i]] . t[i] == id[P[i]]",
        "plain": "empty[P[i]] . t[i] == id[P[i]]"},
    "final": {"states": "id[1] : level 0", "plain": "id[1] : level 0"},
    "initial": {"exceptions": "id[0] : level 0", "plain": "id[0] : level 0"},
    "unit-arrow": {
        "states": "unit[V[x]] : level 0",
        "plain": "unit[V[x]] : level 0"},
    "empty-arrow": {
        "exceptions": "empty[P[i]] : level 0",
        "plain": "empty[P[i]] : level 0"},
    "w-final": {"states": "u[x] ~~ unit[V[x]]", "plain": "u[x] == unit[V[x]]"},
    "w-initial": {
        "exceptions": "c[i] ~~ empty[P[i]]",
        "plain": "c[i] == empty[P[i]]"},
    "loc-tuple": {
        "states": "l[x] . tuple(x: l[x], y: l[y]) ~~ l[x]",
        "plain": "l[x] . tuple(x: l[x], y: l[y]) == l[x]"},
    "const-cotuple": {
        "exceptions": "cotuple(i: t[i], j: t[j]) . t[i] ~~ t[i]",
        "plain": "cotuple(i: t[i], j: t[j]) . t[i] == t[i]"},
    "loc-tuple-unique": {
        "states": "u[x] . l[x] == tuple(x: l[x], y: l[y])",
        "plain": "u[x] . l[x] == tuple(x: l[x], y: l[y])"},
    "const-cotuple-unique": {
        "exceptions": "t[i] . c[i] == cotuple(i: t[i], j: t[j])",
        "plain": "t[i] . c[i] == cotuple(i: t[i], j: t[j])"},
    "semiprod-P1": {
        "states": "p1[V[x],1] . lsemi(id[V[x]], u[x]) ~~ p1[V[x],V[x]]",
        "plain": "p1[V[x],1] . lsemi(id[V[x]], u[x]) == p1[V[x],V[x]]"},
    "semicoprod-P1": {
        "exceptions": "lsum(id[P[i]], c[i]) . in1[P[i],0] ~~ in1[P[i],P[i]]",
        "plain": "lsum(id[P[i]], c[i]) . in1[P[i],0] == in1[P[i],P[i]]"},
    "semiprod-P2": {
        "states": "p1[1,V[x]] . rsemi(u[x], id[V[x]]) == u[x] . p1[V[x],V[x]]",
        "plain": "p1[1,V[x]] . rsemi(u[x], id[V[x]]) == u[x] . p1[V[x],V[x]]"},
    "semicoprod-P2": {
        "exceptions": ("rsum(c[i], id[P[i]]) . in1[0,P[i]]"
                       " == in1[P[i],P[i]] . c[i]"),
        "plain": ("rsum(c[i], id[P[i]]) . in1[0,P[i]]"
                  " == in1[P[i],P[i]] . c[i]")},
    "binprod-proj": {
        "states": "p2[V[x],1] : level 0",
        "plain": "p2[V[x],1] : level 0"},
    "bincoprod-inj": {
        "exceptions": "in2[P[i],0] : level 0",
        "plain": "in2[P[i],0] : level 0"},
    "sum-case-exists": {
        "exceptions": "case(id[P[i]], c[i]) : level 2",
        "plain": "case(id[P[i]], c[i]) : level 2"},
    "sum-case-weak": {
        "exceptions": "case(id[P[i]], c[i]) ~~ id[P[i]]",
        "plain": "case(id[P[i]], c[i]) == id[P[i]]"},
    "sum-case-empty": {
        "exceptions": "case(id[P[i]], c[i]) . empty[P[i]] == c[i]",
        "plain": "case(id[P[i]], c[i]) . empty[P[i]] == c[i]"},
    "sum-case-prop": {
        "exceptions": "case(id[P[i]], empty[P[i]]) == id[P[i]]",
        "plain": "case(id[P[i]], empty[P[i]]) == id[P[i]]"},
    "sum-case-unique": {
        "exceptions": "c[i] . t[i] == case(id[P[i]], c[i])",
        "plain": "c[i] . t[i] == case(id[P[i]], c[i])"},
    "coerce-exists": {
        "exceptions": "coerce(c[i]) : level 1",
        "plain": "coerce(c[i]) : level 1"},
    "coerce-weak": {
        "exceptions": "coerce(c[i]) ~~ c[i]",
        "plain": "coerce(c[i]) == c[i]"},
    "coerce-unique": {
        "exceptions": "empty[P[i]] == coerce(c[i])",
        "plain": "empty[P[i]] == coerce(c[i])"},
    "propcase-inl": {
        "exceptions": "cases(t[i], t[j]) . in1[P[i],P[j]] == t[i]",
        "plain": "cases(t[i], t[j]) . in1[P[i],P[j]] == t[i]"},
    "propcase-inr": {
        "exceptions": "cases(t[i], t[j]) . in2[P[i],P[j]] == t[j]",
        "plain": "cases(t[i], t[j]) . in2[P[i],P[j]] == t[j]"},
}


@pytest.mark.parametrize("rid,flavor", [(r, f) for r in sorted(_APPLIED)
                                        for f in sorted(_APPLIED[r])])
def test_every_rule_applies_on_each_of_its_flavors(rid, flavor):
    th, s = _on_flavor(rid, flavor)
    premises, inst = _APPLY[rid](s)
    assert str(apply_rule(th, rid, premises, inst)) == _APPLIED[rid][flavor]


def test_the_rule_table_covers_every_rule_on_every_flavor():
    assert set(_APPLY) == set(_APPLIED) == set(RULES)
    assert len(RULES) == 51
    assert all(set(_APPLIED[r]) == RULES[r].flavors for r in RULES)


# (rule id, flavor, samples -> premises, the refusal)
_REFUSED = [
    # the wrong premise kind
    ("eq-sym", "states", lambda s: [WellFormed(s.l, 1)],
     "eq-sym needs an equation premise, got l[x] : level 1"),
    ("w-sym", "exceptions", lambda s: [WellFormed(s.l, 1)],
     "w-sym needs an equation premise, got t[i] : level 1"),
    ("eq-trans", "states", lambda s: [s.eq(s.a, s.id), WellFormed(s.l, 1)],
     "eq-trans needs an equation premise, got l[x] : level 1"),
    ("w-trans", "states", lambda s: [WellFormed(s.l, 1), s.weq(s.a, s.id)],
     "w-trans needs an equation premise, got l[x] : level 1"),
    ("comp", "states", lambda s: [s.eq(s.a, s.id), WellFormed(s.l, 1)],
     "comp needs a well-formedness premise, got l[x] . u[x] == id[V[x]]"),
    ("0-comp", "exceptions", lambda s: [WellFormed(s.l, 0), s.eq(s.a, s.id)],
     "0-comp needs a well-formedness premise, got c[i] . t[i] == id[P[i]]"),
    ("1-comp", "plain", lambda s: [s.eq(s.a, s.id), WellFormed(s.l, 1)],
     "1-comp needs a well-formedness premise, got l[x] . u[x] == id[V[x]]"),
    ("0-to-1", "states", lambda s: [s.eq(s.a, s.id)],
     "0-to-1 needs a well-formedness premise, got l[x] . u[x] == id[V[x]]"),
    ("1-to-2", "exceptions", lambda s: [s.eq(s.a, s.id)],
     "1-to-2 needs a well-formedness premise, got c[i] . t[i] == id[P[i]]"),
    # the wrong strength
    ("eq-sym", "exceptions", lambda s: [s.weq(s.a, s.id)],
     "eq-sym needs a strong equation, got weak"),
    ("w-sym", "states", lambda s: [s.eq(s.a, s.id)],
     "w-sym needs a weak equation, got strong"),
    ("w-sym", "plain", lambda s: [s.eq(s.a, s.id, WEAK)],
     "w-sym needs a strong equation, got weak"),
    ("eq-trans", "states", lambda s: [s.eq(s.a, s.id), s.weq(s.id, s.c)],
     "eq-trans needs a strong equation, got weak"),
    ("w-trans", "exceptions", lambda s: [s.eq(s.a, s.id), s.weq(s.id, s.c)],
     "w-trans needs a weak equation, got strong"),
    ("w-trans", "states", lambda s: [s.weq(s.a, s.id), s.eq(s.id, s.c)],
     "w-trans needs a weak equation, got strong"),
    # the middle terms
    ("eq-trans", "plain", lambda s: [s.eq(s.a, s.id), s.eq(s.c, s.id)],
     "eq-trans: middle terms differ"),
    ("w-trans", "states", lambda s: [s.weq(s.a, s.id), s.weq(s.c, s.id)],
     "w-trans: middle terms differ"),
    # the level bound, checked before the premises compose
    ("0-comp", "states",
     lambda s: s.chain(WellFormed(s.bang, 0), WellFormed(s.l, 1)),
     "0-comp composes two level-0 terms"),
    ("0-comp", "plain", lambda s: [WellFormed(s.l, 1), WellFormed(s.lj, 1)],
     "0-comp composes two level-0 terms"),
    ("1-comp", "exceptions",
     lambda s: s.chain(WellFormed(s.u, 2), WellFormed(s.l, 1)),
     "1-comp composes two level-<=1 terms"),
    ("1-comp", "states", lambda s: [WellFormed(s.u, 2), WellFormed(s.u, 2)],
     "1-comp composes two level-<=1 terms"),
    # premises that do not compose
    ("comp", "exceptions", lambda s: [WellFormed(s.l, 1), WellFormed(s.lj, 1)],
     "comp: premises do not compose"),
    ("0-comp", "states", lambda s: [WellFormed(s.p1, 0), WellFormed(s.p1, 0)],
     "0-comp: premises do not compose"),
    ("1-comp", "plain", lambda s: [WellFormed(s.l, 1), WellFormed(s.lj, 1)],
     "1-comp: premises do not compose"),
    # the level a lift starts from
    ("0-to-1", "exceptions", lambda s: [WellFormed(s.l, 1)],
     "0-to-1 lifts level 0"),
    ("0-to-1", "plain", lambda s: [WellFormed(s.bang, 2)],
     "0-to-1 lifts level 0"),
    ("1-to-2", "states", lambda s: [WellFormed(s.bang, 0)],
     "1-to-2 lifts level 1"),
    ("1-to-2", "plain", lambda s: [WellFormed(s.u, 2)],
     "1-to-2 lifts level 1"),
]


@pytest.mark.parametrize("rid,flavor,premises,message", _REFUSED,
                         ids=[f"{r}-{f}" for r, f, *_ in _REFUSED])
def test_every_refusal_of_a_rule_family_is_pinned(rid, flavor, premises,
                                                  message):
    th, s = _on_flavor(rid, flavor)
    with pytest.raises(E.BadPremises) as exc:
        apply_rule(th, rid, premises(s), {})
    assert str(exc.value) == message


def _g(s):
    """u then l: the map a cone's premises observe."""
    return s.side.then(s.u, s.l)


# rule ids of one family with instantiations: (rule id, flavor, samples ->
# (premises, instantiation), the error, the refusal)
_REFUSED_WITH_INST = {
    "w-to-s-count": (
        "w-to-s-prop", "exceptions", lambda s: ([], {}), E.BadPremises,
        "w-to-s-prop takes the weak premise, optionally a WF premise"),
    "w-to-s-wf-term": (
        "w-to-s", "states",
        lambda s: ([s.weq(s.c, s.id), WellFormed(s.lj, 1)], {}),
        E.BadPremises, "w-to-s: WF premise names a term not in the equation"),
    "loc-tuple-component": (
        "loc-tuple", "states", lambda s: ([], dict(family=s.family, at="z")),
        E.BadInstantiation, "loc-tuple: no component for 'z'"),
    "loc-tuple-unique-count": (
        "const-cotuple-unique", "exceptions",
        lambda s: (_cone_premises(s, _g(s))[:1],
                   dict(family=s.family, g=_g(s))),
        E.BadPremises, "const-cotuple-unique takes 2 premises, got 1"),
    "loc-tuple-unique-premise": (
        "loc-tuple-unique", "states",
        lambda s: (_cone_premises(s, _g(s))[::-1],
                   dict(family=s.family, g=_g(s))),
        E.BadPremises,
        "loc-tuple-unique: premise for 'x' should be l[x] . (u[x] . l[x]) ~~ "
        "l[x], got l[y] . (u[x] . l[x]) ~~ l[y]"),
    "binprod-proj-which": (
        "bincoprod-inj", "exceptions",
        lambda s: ([], dict(which=3, left=s.T, right=s.one)),
        E.BadInstantiation, "bincoprod-inj: which must be 1 or 2"),
    "sum-case-unique-second": (
        "sum-case-unique", "exceptions",
        lambda s: ([s.weq(s.a, s.id), s.eq(s.u, s.u)],
                   dict(term=CaseSum(s.id, s.u), h=s.a)),
        E.BadPremises, "sum-case-unique: second premise should be "
        "c[i] . (t[i] . empty[P[i]]) == c[i]"),
}


@pytest.mark.parametrize("rid,flavor,make,error,message",
                         _REFUSED_WITH_INST.values(), ids=_REFUSED_WITH_INST)
def test_every_refusal_with_an_instantiation_is_pinned(rid, flavor, make,
                                                       error, message):
    th, s = _on_flavor(rid, flavor)
    premises, inst = make(s)
    with pytest.raises(error) as exc:
        apply_rule(th, rid, premises, inst)
    assert str(exc.value) == message


def test_an_unknown_citation_kind_invalidates_the_tree(states2):
    d = dataclasses.replace(axiom_node(states2, "A1_x"),
                            rule=("lemma", "A1_x"))
    res = check_derivation(states2, d)
    assert (res.valid, res.error, res.path) == (
        False, "unknown citation kind 'lemma'", ())


_L = Lookup("x")
_L_IDS = Comp(_L, Comp(Id(UNIT), Id(UNIT)))  # normal form: l[x]

# forged citations, each with its conclusion (None: A1_x's own) and the
# error that replay reports for it
_FORGED_CITATIONS = {
    "hyp-level-5": (("hyp", "h"), WellFormed(_L, 5),
                    "hypothesis 'h' has level 5; levels are 0, 1 and 2"),
    "hyp-wf-unnormalized": (
        ("hyp", "h"), WellFormed(_L_IDS, 1),
        "node claims l[x] . (id[1] . id[1]) : level 1, rule ('hyp', 'h') "
        "yields l[x] : level 1"),
    "hyp-holds-unnormalized": (
        ("hyp", "h"), Holds(eq_weak(_L_IDS, _L)),
        "node claims l[x] . (id[1] . id[1]) ~~ l[x], rule ('hyp', 'h') "
        "yields l[x] ~~ l[x]"),
    "hyp-not-a-judgment": (
        ("hyp", "h"), eq_weak(_L, _L),
        f"hypothesis 'h' claims {eq_weak(_L, _L)!r}, not a judgment"),
    "one-field": (("axiom",), None,
                  "not a (kind, name) pair of strings: ('axiom',)"),
    "three-fields": (
        ("axiom", "A1_x", "extra"), None,
        "not a (kind, name) pair of strings: ('axiom', 'A1_x', 'extra')"),
    "list-name": (("hyp", ["l"]), None,
                  "not a (kind, name) pair of strings: ('hyp', ['l'])"),
}


@pytest.mark.parametrize("rule,conclusion,message",
                         _FORGED_CITATIONS.values(), ids=_FORGED_CITATIONS)
def test_a_forged_citation_invalidates_the_tree(states2, rule, conclusion,
                                                message):
    """Replay runs `cite`, the constructor that made the citation: what it
    refuses, or concludes otherwise, is invalid, and replay raises
    nothing."""
    a1 = axiom_node(states2, "A1_x")
    forged = dataclasses.replace(a1, rule=rule,
                                 conclusion=conclusion or a1.conclusion)
    top = dataclasses.replace(node(states2, "w-sym", [a1]), premises=(forged,))
    for d, path in ((forged, ()), (top, (0,))):
        res = check_derivation(states2, d)
        assert (res.valid, res.error, res.path) == (False, message, path)


def _malformed_records(th):
    """Records no constructor makes, each with the path replay reports,
    from the record itself, and its error."""
    a1 = axiom_node(th, "A1_x")
    h = hyp_node(th, "h", a1.conclusion)
    refl = node(th, "w-refl", f=_L)
    fam = (("x", Lookup("x")), ("y", Lookup("y")))
    pick = node(th, "loc-tuple", family=fam, at="x")
    return {
        "holds-junk": (dataclasses.replace(h, conclusion=Holds("junk")), (),
                       "hypothesis 'h' claims Holds(eq='junk'), not a "
                       "judgment"),
        "wf-junk": (dataclasses.replace(h, conclusion=WellFormed("junk", 1)),
                    (), "hypothesis 'h' claims WellFormed(term='junk', "
                        "level=1), not a judgment"),
        "wf-bool-level": (
            dataclasses.replace(h, conclusion=WellFormed(_L, True)), (),
            "hypothesis 'h' has level True; levels are 0, 1 and 2"),
        "inst-one-field": (
            dataclasses.replace(refl, inst=(("f",),)), (),
            "instantiation (('f',),) is not distinct (key, value) pairs"),
        "inst-twice": (
            dataclasses.replace(refl, inst=(("f", _L), ("f", _L))), (),
            f"instantiation {(('f', _L), ('f', _L))!r} is not distinct "
            f"(key, value) pairs"),
        "name-a-list": (
            dataclasses.replace(pick, inst=(("at", ["x"]), ("family", fam))),
            (), "loc-tuple: 'at' must be a name"),
        "premise-junk": (
            dataclasses.replace(node(th, "w-sym", [a1]), premises=("junk",)),
            (0,), "not a derivation node: 'junk'"),
        "premises-a-list": (
            dataclasses.replace(node(th, "w-sym", [a1]), premises=[a1]), (),
            "premises are a list, not a tuple"),
        "citation-inst": (
            dataclasses.replace(a1, inst=(("f", Lookup("y")),)), (),
            "citation axiom(A1_x) cannot have an instantiation"),
    }


@pytest.mark.parametrize("case", sorted(_malformed_records(
    build_states_theory("S", ["x", "y"]))))
def test_a_malformed_record_invalidates_the_tree(states2, case):
    """A field that holds what its class does not promise makes the tree
    invalid, with an error and a path; replay raises nothing."""
    forged, path, message = _malformed_records(states2)[case]
    a1 = axiom_node(states2, "A1_x")
    top = dataclasses.replace(node(states2, "w-sym", [a1]), premises=(forged,))
    for d, where in ((forged, path), (top, (0, *path))):
        res = check_derivation(states2, d)
        assert (res.valid, res.path, res.error) == (False, where, message)


def _library_trees():
    """Every lemma and built-in of both catalogues, on three indices."""
    out = []
    for cat, th in ((STATE_CATALOGUE, build_states_theory("S3", "xyz")),
                    (EXC_CATALOGUE, build_exceptions_theory("E3", "ijk"))):
        out += [(th, cat.derive_lemma(th, lid, cat.default_params(th, lid)))
                for lid in cat.lemmas]
        out += [(th, cat.builtin_proof(th, name)) for name in cat.builtins]
    return out


_LIBRARY = _library_trees()
_JUNK = ("junk", 5, None, ["x"], ("junk",), ("axiom",), (("f",),),
         (("at", ["x"]),), (("f", Lookup("y")),), Holds("junk"),
         WellFormed("junk", 1), WellFormed(_L, True), eq_weak(_L, _L))


def _addressed(d):
    """Each node of d with its path of premise indices from the root."""
    out, todo = [], [((), d)]
    while todo:
        path, n = todo.pop()
        out.append((path, n))
        todo += [(path + (k,), p) for k, p in enumerate(n.premises)]
    return out


def _replaced(d, path, new):
    """d with the node at `path` replaced by `new`, its ancestors rebuilt."""
    spine = [d]
    for k in path:
        spine.append(spine[-1].premises[k])
    for k, parent in zip(reversed(path), reversed(spine[:-1])):
        premises = list(parent.premises)
        premises[k] = new
        new = dataclasses.replace(parent, premises=tuple(premises))
    return new


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_junk_in_any_field_of_a_library_tree_is_refused(data):
    """Swap one field of one node of a shipped tree for junk: replay
    returns an invalid verdict, with an error and a path, and raises
    nothing."""
    theory, d = data.draw(st.sampled_from(_LIBRARY))
    path, n = data.draw(st.sampled_from(_addressed(d)))
    field = data.draw(st.sampled_from(["rule", "premises", "inst",
                                       "conclusion"]))
    junk = data.draw(st.sampled_from(_JUNK))
    assume(junk != getattr(n, field))
    res = check_derivation(theory, _replaced(
        d, path, dataclasses.replace(n, **{field: junk})))
    assert not res.valid
    assert isinstance(res.error, str) and isinstance(res.path, tuple)


# The search itself, pinned: status, rounds, facts and proof nodes of the
# read-back goals l[j] . u[i] . l[i] ~~ l[j] on 2 and 3 locations and their
# duals, the bank goal and strong A1 under a small cap. A change that only
# makes the search cheaper leaves every row as it is.
_T3 = build_states_theory("T", ["x", "m", "z"])
_ADD = Gen("add3", Value("a"), Value("a"), 0)
_ACCT = build_states_theory("Acct", ["a"]).with_gen(_ADD)
_READ_BACKS = {
    # (theory, j, i): (facts, facts of the dual); a cross read-back takes
    # 2 rounds and a 14-node proof (11 on the dual), a same one 1 and 2
    ("S", "x", "x"): (30, 25), ("S", "x", "y"): (566, 504),
    ("S", "y", "x"): (572, 510), ("S", "y", "y"): (35, 30),
    ("T", "x", "x"): (42, 37), ("T", "x", "m"): (1528, 1432),
    ("T", "x", "z"): (1528, 1432), ("T", "m", "x"): (1520, 1424),
    ("T", "m", "m"): (49, 44), ("T", "m", "z"): (1520, 1424),
    ("T", "z", "x"): (1536, 1440), ("T", "z", "m"): (1536, 1440),
    ("T", "z", "z"): (56, 51),
}


def _pinned(th, goal, cap=20000):
    res = saturate_prove(th, goal, budget=4, fact_cap=cap)
    nodes = None
    if res.derivation is not None:
        replay = check_derivation(th, res.derivation)
        assert replay.valid and res.derivation.conclusion == Holds(goal)
        nodes = replay.nodes
    return res.status, res.rounds, res.facts, nodes


@pytest.mark.parametrize("key", sorted(_READ_BACKS))
def test_the_read_back_searches_are_pinned(key, states2):
    name, j, i = key
    th = states2 if name == "S" else _T3
    goal = eq_weak(comp(Lookup(j), Update(i), Lookup(i)), Lookup(j))
    facts, dual_facts = _READ_BACKS[key]
    rounds, nodes, dual_nodes = (1, 2, 2) if i == j else (2, 14, 11)
    assert _pinned(th, goal) == ("proven", rounds, facts, nodes)
    assert (_pinned(dualize_theory(th), dualize_equation(goal))
            == ("proven", rounds, dual_facts, dual_nodes))


def test_the_bank_and_capped_searches_are_pinned(states2):
    goal = eq_weak(comp(Lookup("a"), Update("a"), _ADD, Lookup("a")),
                   comp(_ADD, Lookup("a")))
    assert _pinned(_ACCT, goal) == ("proven", 1, 24, 2)
    assert _pinned(states2, STRONG_A1, cap=500) == ("unknown", 2, 501, None)
    assert _pinned(states2, STRONG_A1, cap=2000) == ("unknown", 3, 2001, None)


def test_the_pool_walk_stops_at_pooled_terms_but_meets_new_ones_in_order(
        states2):
    search = _Search(states2, eq_weak(Lookup("x"), Lookup("x")), 100)
    read_back = comp(Lookup("y"), Update("x"), Lookup("x"))
    batches = [[comp(Update("x"), Lookup("x"))],
               [read_back, SemiProd(Lookup("y"), read_back, True),
                comp(Update("y"), read_back)]]
    for batch in batches:
        # the walk of every subterm, parents first, keeping first meetings
        want = {}
        for t in batch + [search.terms[n] for n in search.fresh]:
            for sub in subterms(t):
                if sub not in search.pool:
                    want.setdefault(sub, None)
        assert search.extend_pool(batch) == list(want)
