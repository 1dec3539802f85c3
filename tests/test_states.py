"""The global-state theory: axioms, the seven laws, packaged derivations."""

from __future__ import annotations

import pytest

from decorlogic import errors as E
from decorlogic.kernel import Holds, check_derivation
from decorlogic.states import (LEMMAS, build_states_theory, builtin_proof,
                               derive_lemma, mirror_interaction3,
                               semi_pure_product, seven_equation_goals)
from decorlogic.terms import (Comp, Id, Lookup, SemiProd, Throw, ToUnit,
                              Update, comp, term_to_text)
from decorlogic.theory import STRONG, WEAK, norm_eq, typecheck_equation
from decorlogic.types import UNIT, Value


def test_theory_shape(states2):
    assert states2.flavor == "states"
    assert states2.locations == ("x", "y")
    assert [a.name for a in states2.axioms] == ["A1_x", "A1_y",
                                                "A2_x_y", "A2_y_x"]
    assert all(a.eq.kind == WEAK for a in states2.axioms)


def test_axiom_equations(states2):
    a1 = states2.axiom("A1_x").eq
    assert a1.lhs == Comp(Lookup("x"), Update("x"))
    assert a1.rhs == Id(Value("x"))
    a2 = states2.axiom("A2_x_y").eq
    assert a2.lhs == Comp(Lookup("y"), Update("x"))
    assert a2.rhs == Comp(Lookup("y"), ToUnit(Value("x")))


def test_seven_goals_cover_two_locations(states2):
    goals = seven_equation_goals(states2)
    # families 1-4 per location, 5-7 per ordered pair
    assert len(goals) == 4 * 2 + 3 * 2
    names = [g.name for g in goals]
    assert "1-read-then-write[x]" in names
    assert "6-write-commute[x,y]" in names
    for g in goals:
        typecheck_equation(states2, g.direct)
        for _, obs in g.observations:
            typecheck_equation(states2, obs)


def test_goals_between_unit_maps_carry_observations(states2):
    goals = {g.name: g for g in seven_equation_goals(states2)}
    anni = goals["1-read-then-write[x]"]
    assert len(anni.observations) == 2  # one per location
    assert goals["4-write-then-read[x]"].observations == ()


def test_annihilation_lemma(states2):
    d = derive_lemma(states2, "annihilation", {"i": "x"})
    assert check_derivation(states2, d).valid
    eq = d.conclusion.eq
    assert eq.kind == STRONG
    assert eq.lhs == comp(Update("x"), Lookup("x"))
    assert eq.rhs == Id(UNIT)


def test_final_uniqueness_lemma(states2):
    f = comp(ToUnit(Value("x")), Lookup("x"))
    d = derive_lemma(states2, "final-uniqueness", {"f": f})
    assert check_derivation(states2, d).valid
    assert d.conclusion.eq.rhs == ToUnit(UNIT)


def test_commutation6_lemma(states2):
    d = derive_lemma(states2, "commutation-6", {"i": "x", "j": "y"})
    assert check_derivation(states2, d).valid
    assert d.conclusion.eq.kind == STRONG
    text = term_to_text(d.conclusion.eq.lhs)
    assert "rsemi(u[x], id[V[y]])" in text


def test_interaction3_lemma_and_mirror(states2):
    d = derive_lemma(states2, "interaction-3", {"i": "x"})
    assert check_derivation(states2, d).valid
    m = mirror_interaction3(states2, "x")
    assert check_derivation(states2, m).valid
    assert d.conclusion != m.conclusion


def test_lemma_catalogue_is_complete(states2):
    assert set(LEMMAS) == {"annihilation", "final-uniqueness",
                           "commutation-6", "interaction-3"}
    with pytest.raises(E.UnknownLemma):
        derive_lemma(states2, "no-such", {})


def test_lemma_params_are_validated(states2):
    with pytest.raises(E.BadParams):
        derive_lemma(states2, "annihilation", {})
    with pytest.raises(E.UnknownIndex):
        derive_lemma(states2, "annihilation", {"i": "zz"})


def test_builtin_proofs_check(states3):
    for name in ("pr1", "pr2", "pr3", "pr4", "pr5", "pr6", "pr7", "pr8"):
        d = builtin_proof(states3, name)
        res = check_derivation(states3, d)
        assert res.valid, f"{name}: {res.error}"


def test_three_location_proofs_refuse_two(states2):
    for name in ("pr1", "pr2", "pr3", "pr4"):
        with pytest.raises(E.BadParams):
            builtin_proof(states2, name)
    # pr5..pr8 only need two
    assert check_derivation(states2, builtin_proof(states2, "pr5")).valid


def test_builtin_proof_unknown_name(states3):
    with pytest.raises(E.UnknownLemma):
        builtin_proof(states3, "pr9")


def test_single_location_theory_builds():
    th = build_states_theory("One", ["a"])
    assert [a.name for a in th.axioms] == ["A1_a"]
    d = derive_lemma(th, "annihilation", {"i": "a"})
    assert check_derivation(th, d).valid


def test_semi_pure_product_normalizes_and_typechecks(states2):
    vx = Value("x")
    for left in (True, False):
        t = semi_pure_product(states2, Comp(Id(vx), Id(vx)),
                              Comp(Update("x"), Id(vx)), left)
        assert t == SemiProd(Id(vx), Update("x"), left)
    with pytest.raises(E.FlavorViolation):
        semi_pure_product(states2, Id(vx), Throw("x"))


# the lemma that proves each states-seven law, by the law's name
_LEMMA_OF_LAW = {"1-read-then-write": "annihilation",
                 "3-overwrite": "interaction-3",
                 "6-write-commute": "commutation-6"}


@pytest.mark.parametrize("n", [2, 3])
def test_each_lemma_concludes_the_law_its_suite_checks(n):
    """The lemma a states-seven law names concludes that law as the suite
    builds it, at every index the suite checks it at."""
    th = build_states_theory(f"S{n}", "xyz"[:n])
    proven = 0
    for goal in seven_equation_goals(th):
        law, ix = goal.name[:-1].split("[")
        if law in _LEMMA_OF_LAW:
            params = dict(zip("ij", ix.split(",")))
            d = derive_lemma(th, _LEMMA_OF_LAW[law], params)
            assert d.conclusion == Holds(norm_eq(goal.direct)), goal.name
            proven += 1
    assert proven == 2 * n + n * (n - 1)
