"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Each test prints a single PASS line with its measurements once its
assertions hold; a failure shows up as the usual pytest FAILED verdict.
"""

from __future__ import annotations

import dataclasses
import random
import time

from decorlogic import errors as E
from decorlogic.exceptions import (build_exceptions_theory,
                                   derive_lemma as exc_lemma)
from decorlogic.kernel import (Holds, axiom_node, check_derivation, node,
                               saturate_prove)
from decorlogic.models import (FiniteExceptionModel, FiniteStateModel,
                               check_equation, eval_exceptions,
                               verify_law_suite)
from decorlogic.states import (build_states_theory, builtin_proof,
                               derive_lemma as st_lemma)
from decorlogic.terms import (Catch, Comp, FromEmpty, Id, Lookup, Throw,
                              ToUnit, Update, cod, dom, term_size)
from decorlogic.theory import Equation, STRONG, WEAK, infer_decoration
from decorlogic.translators import (dual_axiom_name, dualize_derivation,
                                    dualize_equation, dualize_term,
                                    dualize_theory, erase_derivation,
                                    erase_theory)
from decorlogic.types import (Coprod, EMPTY, Empty, Named, Param, Prod, UNIT,
                              Unit, Value)

S2 = build_states_theory("S", ["x", "y"])
S3 = build_states_theory("S3", ["x", "y", "z"])
X2 = build_exceptions_theory("Ex", ["i", "j"])

_TYPE_CLASSES = (Unit, Empty, Value, Param, Named, Prod, Coprod)


def _all_builtin_derivations():
    """Every derivation the library ships, with its home theory."""
    out = [(S2, st_lemma(S2, "annihilation", {"i": "x"})),
           (S2, st_lemma(S2, "final-uniqueness",
                         {"f": Comp(ToUnit(Value("x")), Lookup("x"))})),
           (S2, st_lemma(S2, "commutation-6", {"i": "x", "j": "y"})),
           (S2, st_lemma(S2, "interaction-3", {"i": "x"})),
           (X2, exc_lemma(X2, "key-annihilation", {"i": "i"})),
           (X2, exc_lemma(X2, "catch-throw", {"i": "i"})),
           (X2, exc_lemma(X2, "handler-commute", {"i": "i", "j": "j"})),
           (X2, exc_lemma(X2, "handler-idempotent", {"i": "i"}))]
    for name in ("pr1", "pr2", "pr3", "pr4", "pr5", "pr6", "pr7", "pr8"):
        out.append((S3, builtin_proof(S3, name)))
    return out


def _paths(d, prefix=()):
    yield prefix, d
    for k, p in enumerate(d.premises):
        yield from _paths(p, prefix + (k,))


def _rebuild(d, path, new):
    if not path:
        return new
    premises = list(d.premises)
    premises[path[0]] = _rebuild(premises[path[0]], path[1:], new)
    return dataclasses.replace(d, premises=tuple(premises))


def _mutate_rule(theory, n):
    """Swap the node's rule for one that cannot re-derive its claim.

    A refl rule of the opposite strength always mismatches: the premises
    or instantiation shape break, or the equation kind flips. Swapping a
    rule for one that happens to prove the same conclusion would not be a
    forgery, so the checker would rightly accept it.
    """
    if isinstance(n.rule, tuple):
        tag, name = n.rule[0], n.rule[1]
        if tag == "axiom":
            other = next(a.name for a in theory.axioms if a.name != name)
            return dataclasses.replace(n, rule=("axiom", other))
        return dataclasses.replace(n, rule=(tag, name + "-forged"))
    weak_claim = (isinstance(n.conclusion, Holds)
                  and n.conclusion.eq.kind == WEAK)
    return dataclasses.replace(n, rule="s-refl" if weak_claim else "w-refl")


def _tamper_value(v):
    if isinstance(v, str):
        return "zz"
    if isinstance(v, int):
        return v + 1
    if isinstance(v, _TYPE_CLASSES):
        return Named("forged")
    if isinstance(v, tuple):
        return v[1:]
    return Id(Named("forged"))


def _mutate_inst(n):
    (key, value), *rest = n.inst
    return dataclasses.replace(n, inst=((key, _tamper_value(value)), *rest))


def test_criterion_1_proof_replay_and_tamper_detection():
    started = time.process_time()
    derivations = _all_builtin_derivations()
    for theory, d in derivations:
        res = check_derivation(theory, d)
        assert res.valid, res.error
    mutations = 0
    for theory, d in derivations:
        for path, n in _paths(d):
            forged = _rebuild(d, path, _mutate_rule(theory, n))
            assert not check_derivation(theory, forged).valid, (path, n.rule)
            mutations += 1
            if n.inst:
                forged = _rebuild(d, path, _mutate_inst(n))
                assert not check_derivation(theory, forged).valid, \
                    (path, n.rule, n.inst)
                mutations += 1
    elapsed = time.process_time() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS 1 proof-replay: {len(derivations)} derivations valid, "
          f"{mutations} single-node mutations all rejected, {elapsed:.2f}s")


def test_criterion_2_axioms_and_lemmas_hold_in_models():
    started = time.process_time()
    smodel = FiniteStateModel(S2, {"x": 3, "y": 2})
    xmodel = FiniteExceptionModel(X2, {"i": 3, "j": 2})
    checked = 0
    for model, theory in ((smodel, S2), (xmodel, X2)):
        for a in theory.axioms:
            assert check_equation(model, a.eq, a.name).holds, a.name
            checked += 1
    lemma_runs = [
        (smodel, st_lemma(S2, "annihilation", {"i": "x"})),
        (smodel, st_lemma(S2, "final-uniqueness",
                          {"f": Comp(ToUnit(Value("x")), Lookup("x"))})),
        (smodel, st_lemma(S2, "commutation-6", {"i": "x", "j": "y"})),
        (smodel, st_lemma(S2, "interaction-3", {"i": "x"})),
        (xmodel, exc_lemma(X2, "key-annihilation", {"i": "i"})),
        (xmodel, exc_lemma(X2, "initial-uniqueness",
                           {"f": FromEmpty(Param("i"))})),
        (xmodel, exc_lemma(X2, "catch-throw", {"i": "i"})),
        (xmodel, exc_lemma(X2, "handler-commute", {"i": "i", "j": "j"})),
        (xmodel, exc_lemma(X2, "handler-idempotent", {"i": "i"})),
    ]
    for model, d in lemma_runs:
        eq = d.conclusion.eq
        assert check_equation(model, eq).holds, str(eq)
        checked += 1
    # the strong readings of the first axioms must be refuted, with evidence
    a1 = S2.axiom("A1_x").eq
    refuted = check_equation(smodel, Equation(a1.lhs, a1.rhs, STRONG))
    assert not refuted.holds and refuted.witness is not None
    b1 = X2.axiom("B1_i").eq
    refuted_x = check_equation(xmodel, Equation(b1.lhs, b1.rhs, STRONG))
    assert not refuted_x.holds and refuted_x.witness is not None
    elapsed = time.process_time() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS 2 oracle-agreement: {checked} conclusions hold at (3,2), "
          f"strong A1/B1 refuted with witnesses, {elapsed:.2f}s")


def test_criterion_3_seven_law_suite_holds():
    started = time.process_time()
    model = FiniteStateModel(S2, {"x": 3, "y": 2})
    rep = verify_law_suite(model, "states-seven")
    assert rep.ok
    families = {r.name.split("-")[0] for r in rep.results}
    assert families == {"1", "2", "3", "4", "5", "6", "7"}
    worst = max(r.points for r in rep.results)
    assert worst <= 54
    elapsed = time.process_time() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS 3 seven-laws: {len(rep.results)} rows hold on (3,2), "
          f"max {worst} points per law, {elapsed:.2f}s")


def test_criterion_4_handler_semantics_and_nesting():
    model = FiniteExceptionModel(X2, {"i": 2, "j": 2})
    exceptional = [("exc", (name, p))
                   for name in X2.constructors
                   for p in model.carrier(Param(name))]
    assert len(exceptional) == 4
    for idx in X2.constructors:
        catch_then_throw = Comp(Throw(idx), Catch(idx))
        for inp in exceptional:
            assert eval_exceptions(model, catch_then_throw, inp) == inp
    rep = verify_law_suite(model, "nesting-matrix")
    assert rep.ok
    assert [r.name for r in rep.results] == [
        "a/flat-escapes", "a/seq-catches", "a/clause-catches",
        "b/flat-catches", "b/seq-catches", "b/clause-misses"]
    print("PASS 4 handler-semantics: catch-then-throw fixes all 4 "
          "exceptions, nesting matrix matches on both scenarios")


def test_criterion_5_duality_is_a_syntactic_involution():
    theories = [S2, S3, X2]
    for theory in theories:
        assert dualize_theory(dualize_theory(theory)) == theory
    terms_seen = 0
    for theory in theories:
        for a in theory.axioms:
            for t in (a.eq.lhs, a.eq.rhs):
                assert dualize_term(dualize_term(t)) == t
                terms_seen += 1
    dualizable = [(th, d) for th, d in _all_builtin_derivations()
                  if th.flavor == "states"]
    for theory, d in dualizable:
        dual = dualize_theory(theory)
        dd = dualize_derivation(theory, d)
        assert check_derivation(dual, dd).valid
        assert dualize_derivation(dual, dd) == d
    # the two lemma families pair up conclusion-for-conclusion
    dual2 = dualize_theory(S2)
    pairs = [
        (st_lemma(S2, "annihilation", {"i": "x"}),
         exc_lemma(dual2, "key-annihilation", {"i": "x"})),
        (st_lemma(S2, "final-uniqueness",
                  {"f": Comp(ToUnit(Value("x")), Lookup("x"))}),
         exc_lemma(dual2, "initial-uniqueness",
                   {"f": dualize_term(Comp(ToUnit(Value("x")),
                                           Lookup("x")))})),
    ]
    for state_side, exc_side in pairs:
        crossed = dualize_derivation(S2, state_side)
        assert crossed.conclusion == exc_side.conclusion
        assert check_derivation(dual2, crossed).valid
    print(f"PASS 5 duality-syntax: involution on {len(theories)} theories, "
          f"{terms_seen} axiom sides, {len(dualizable)} derivations; "
          f"states lemmas land on the exceptions lemmas")


def test_criterion_6_duality_pairs_laws_semantically():
    smodel = FiniteStateModel(S2, {"x": 3, "y": 2})
    rep = verify_law_suite(smodel, "duality-semantic")
    assert rep.ok
    assert len(rep.results) == 6
    # cross-check the pairing by hand through the duality map
    dual = dualize_theory(S2)
    xmodel = FiniteExceptionModel(dual, {"x": 3, "y": 2})
    paired = 0
    for a in S2.axioms:
        assert check_equation(smodel, a.eq, a.name).holds
        dual_name = dual_axiom_name(a.name)
        mirror = dual.axiom(dual_name).eq
        assert dualize_equation(a.eq) == mirror
        assert check_equation(xmodel, mirror, dual_name).holds
        paired += 1
    print(f"PASS 6 duality-semantics: suite of {len(rep.results)} rows ok, "
          f"{paired} axiom pairs hold on both sides of the (3,2) models")


# ------------------------------------------------ random soundness sweep

_PURE_SHAPES = (Id, ToUnit, FromEmpty)


def _atoms_for(theory, up_to_level):
    if theory.flavor == "states":
        pool = [Id(UNIT), ToUnit(UNIT)]
        for i in theory.locations:
            pool += [Lookup(i), Id(Value(i)), ToUnit(Value(i))]
            if up_to_level >= 2:
                pool.append(Update(i))
    else:
        pool = [Id(EMPTY)]
        for i in theory.constructors:
            pool += [Throw(i), Id(Param(i)), FromEmpty(Param(i))]
            if up_to_level >= 2:
                pool.append(Catch(i))
    return pool


def _random_walk(rng, atoms, start_from=None, max_factors=7):
    pool = atoms if start_from is None else \
        [a for a in atoms if dom(a) == start_from]
    t = rng.choice(pool)
    for _ in range(rng.randrange(max_factors)):
        fits = [a for a in atoms if dom(a) == cod(t)]
        if term_size(Comp(rng.choice(fits), t)) > 8:
            break
        t = Comp(rng.choice(fits), t)
    return t


def _random_weak_derivation(rng, theory, atoms, max_steps=3):
    states_side = theory.flavor == "states"
    subs_rule = "w-subs" if states_side else "w-subs-pure"
    repl_rule = "w-repl-pure" if states_side else "w-repl"
    d = axiom_node(theory, rng.choice([a.name for a in theory.axioms]))
    for _ in range(rng.randrange(max_steps + 1)):
        op = rng.choice(["sym", "subs", "repl", "trans"])
        eq = d.conclusion.eq
        if op == "sym":
            d = node(theory, "w-sym", [d])
        elif op == "subs":
            fits = [a for a in atoms if cod(a) == dom(eq.lhs)
                    and (states_side or isinstance(a, _PURE_SHAPES))]
            if fits:
                d = node(theory, subs_rule, [d], by=rng.choice(fits))
        elif op == "repl":
            fits = [a for a in atoms if dom(a) == cod(eq.lhs)
                    and (not states_side or isinstance(a, _PURE_SHAPES))]
            if fits:
                d = node(theory, repl_rule, [d], by=rng.choice(fits))
        else:
            d = node(theory, "w-trans",
                     [d, node(theory, "w-refl", f=eq.rhs)])
    return d


def _random_setup(rng):
    flavor = rng.choice(["states", "exceptions"])
    count = rng.choice([1, 2])
    if flavor == "states":
        names = ["x", "y"][:count]
        theory = build_states_theory("R", names)
        sizes = {n: rng.randint(1, 3) for n in names}
        model = FiniteStateModel(theory, sizes)
    else:
        names = ["i", "j"][:count]
        theory = build_exceptions_theory("R", names)
        sizes = {n: rng.randint(1, 3) for n in names}
        model = FiniteExceptionModel(theory, sizes)
    return theory, model


def _matching_pair(rng, atoms, tries=25):
    """Two independent walks with the same profile, or None."""
    t1 = _random_walk(rng, atoms)
    for _ in range(tries):
        t2 = _random_walk(rng, atoms, start_from=dom(t1), max_factors=5)
        if cod(t2) == cod(t1):
            return t1, t2
    return None


def test_criterion_7_translation_soundness_sweep():
    started = time.process_time()
    rng = random.Random(20250819)
    cases = 0
    erased_checked = proved_checked = comp_checked = 0
    implication_checked = level1_checked = 0
    while cases < 1000:
        cases += 1
        theory, model = _random_setup(rng)
        full_pool = _atoms_for(theory, up_to_level=2)
        low_pool = _atoms_for(theory, up_to_level=1)

        # kernel-accepted weak derivations: erase and replay, then trust
        # the conclusion against the model
        d = _random_weak_derivation(rng, theory, full_pool)
        assert check_derivation(theory, d).valid
        plain = erase_theory(theory)
        assert check_derivation(plain, erase_derivation(theory, d)).valid
        erased_checked += 1
        assert check_equation(model, d.conclusion.eq).holds, \
            str(d.conclusion.eq)
        proved_checked += 1

        # composite decoration is the max of the parts
        t1 = _random_walk(rng, full_pool)
        fits = [a for a in full_pool if dom(a) == cod(t1)]
        t2 = rng.choice(fits)
        assert infer_decoration(Comp(t2, t1)) == max(infer_decoration(t1),
                                                     infer_decoration(t2))
        comp_checked += 1

        # strong implies weak at every point
        pair = _matching_pair(rng, full_pool)
        if pair is not None:
            lhs, rhs = pair
            if check_equation(model, Equation(lhs, rhs, STRONG)).holds:
                assert check_equation(model, Equation(lhs, rhs, WEAK)).holds
            implication_checked += 1

        # on level <= 1 pairs the two equalities coincide
        pair = _matching_pair(rng, low_pool)
        if pair is not None:
            lhs, rhs = pair
            weak = check_equation(model, Equation(lhs, rhs, WEAK)).holds
            strong = check_equation(model, Equation(lhs, rhs, STRONG)).holds
            assert weak == strong, (lhs, rhs)
            level1_checked += 1

    elapsed = time.process_time() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    assert implication_checked >= 900 and level1_checked >= 900
    print(f"PASS 7 translation-soundness: {cases} cases "
          f"({erased_checked} erasures, {proved_checked} proved facts, "
          f"{comp_checked} decorations, {implication_checked} implications, "
          f"{level1_checked} level-1 pairs), {elapsed:.1f}s")


def test_criterion_8_saturation_finds_the_weak_goals():
    goals = 0
    for i in S2.locations:
        for j in S2.locations:
            goal = Equation(Comp(Lookup(j), Comp(Update(i), Lookup(i))),
                            Lookup(j), WEAK)
            res = saturate_prove(S2, goal, budget=4)
            assert res.proven, (i, j, res.reason)
            assert check_derivation(S2, res.derivation).valid
            goals += 1
    a1 = S2.axiom("A1_x").eq
    res = saturate_prove(S2, Equation(a1.lhs, a1.rhs, STRONG), budget=4)
    assert res.status == "unknown" and not res.proven
    print(f"PASS 8 saturation: {goals} weak read-back goals proven within "
          f"budget 4, refuted strong A1 stays unknown")
