"""The proof kernel: rule application, checking, tamper detection, search."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

import strategies as strat
from decorlogic import errors as E
from decorlogic.dsl import execute, parse_script
from decorlogic.kernel import (Holds, RULES, WellFormed, apply_rule,
                               axiom_node, check_derivation,
                               derive_final_uniqueness,
                               derive_initial_uniqueness, gen_node,
                               hyp_node, list_rules, node, saturate_prove,
                               _Search)
from decorlogic.models import FiniteStateModel, check_equation
from decorlogic.states import build_states_theory
from decorlogic.terms import (CaseSum, Catch, Coerce, Comp, FromEmpty, Gen,
                              Id, Lookup, PropCase, SemiCoprod, SemiProd,
                              ToUnit, Throw, Update, comp, subterms)
from decorlogic.theory import (Axiom, STRONG, WEAK, eq_strong, eq_weak,
                               norm_eq)
from decorlogic.translators import dualize_equation, dualize_theory
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
    d = derive_final_uniqueness(states2, f)
    assert check_derivation(states2, d).valid
    assert d.conclusion.eq.kind == STRONG
    assert d.conclusion.eq.rhs == ToUnit(UNIT)


def test_initial_uniqueness_derivation(exc2):
    f = FromEmpty(Param("i"))
    d = derive_initial_uniqueness(exc2, f)
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
    search = _Search(states2, eq_weak(Lookup("x"), Lookup("x")), 7, 100)
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
