"""Finite models: evaluation semantics, law checking, the four suites.

Expected values here were worked out by hand against the intended
semantics (a state is a tuple of location contents; an exceptional value
carries its constructor name and payload) and then frozen.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import strategies as strat
from decorlogic import errors as E
from decorlogic.exceptions import build_exceptions_theory, with_catch_all
from decorlogic.kernel import Holds
from decorlogic.models import (FiniteExceptionModel, FiniteStateModel,
                               LawResult, Valuation, _StateTables,
                               _exception_law_groups, check_equation,
                               eval_exceptions, eval_states,
                               observational_equiv, sweep_equation,
                               verify_law_suite)
from decorlogic.states import build_states_theory, seven_equation_goals
from decorlogic.terms import (Catch, CatchAll, FromEmpty, Gen, Id, LocTuple,
                              Lookup, SemiProd, Throw, Update, comp)
from decorlogic.theory import eq_strong, eq_weak
from decorlogic.types import Coprod, Named, Param, Prod, UNIT, Value


def test_lookup_and_update(model32):
    assert eval_states(model32, Lookup("x"), (), (2, 1)) == (2, (2, 1))
    assert eval_states(model32, Lookup("y"), (), (2, 1)) == (1, (2, 1))
    assert eval_states(model32, Update("x"), 0, (2, 1)) == ((), (0, 1))


def test_update_then_read_other(model32):
    t = comp(Lookup("y"), Update("x"))
    assert eval_states(model32, t, 2, (0, 1)) == (1, (2, 1))


def test_a1_weak_holds_strong_fails(model32):
    lhs = comp(Lookup("x"), Update("x"))
    weak = check_equation(model32, eq_weak(lhs, Id(Value("x"))), "A1_x")
    assert weak.holds and weak.points == 18
    strong = check_equation(model32, eq_strong(lhs, Id(Value("x"))),
                            "A1_x_strong")
    assert strong.status == "fails"
    assert strong.witness == {"input": 0, "state": (1, 0),
                              "lhs": (0, (0, 0)), "rhs": (0, (1, 0))}


def test_annihilation_holds_strongly(model32):
    eq = eq_strong(comp(Update("x"), Lookup("x")), Id(UNIT))
    r = check_equation(model32, eq, "annihilation")
    assert r.holds and r.points == 6


def test_states_seven_suite(model32):
    rep = verify_law_suite(model32, "states-seven")
    assert rep.ok
    assert len(rep.results) == 26
    assert rep.results[0].name == "1-read-then-write[x]"


def test_throw_catch_round_trip(exc_model22):
    assert eval_exceptions(exc_model22, comp(Catch("i"), Throw("i")),
                           ("val", 1)) == ("val", 1)
    assert eval_exceptions(exc_model22, comp(Catch("j"), Throw("i")),
                           ("val", 1)) == ("exc", ("i", 1))
    #  an incoming exception propagates past a throw untouched
    assert eval_exceptions(exc_model22, Throw("i"),
                           ("exc", ("j", 0))) == ("exc", ("j", 0))


def test_catch_only_acts_on_matching_exceptions(exc_model22):
    c = Catch("i")
    assert eval_exceptions(exc_model22, c, ("exc", ("i", 1))) == ("val", 1)
    assert eval_exceptions(exc_model22, c, ("exc", ("j", 0))) == ("exc", ("j", 0))


def test_exceptions_laws_suite(exc_model22):
    rep = verify_law_suite(exc_model22, "exceptions-laws")
    assert rep.ok
    assert len(rep.results) == 14
    names = [r.name for r in rep.results]
    assert names[:4] == ["B1_i", "B1_j", "B2_i_j", "B2_j_i"]


def test_nesting_matrix(exc_model22):
    rep = verify_law_suite(exc_model22, "nesting-matrix")
    assert rep.ok
    assert [r.name for r in rep.results] == [
        "a/flat-escapes", "a/seq-catches", "a/clause-catches",
        "b/flat-catches", "b/seq-catches", "b/clause-misses"]


def test_a_failing_nesting_row_reports_like_every_exceptions_law(
        exc2, monkeypatch):
    """With each handler cut down to its first clause, only the flat
    handler of f_b lets j escape where nest_cast's value was wanted."""
    import decorlogic.exceptions as X
    handle = X.handle_term
    monkeypatch.setattr(X, "handle_term", lambda th, body, clauses:
                        handle(th, body, clauses[:1]))
    rep = verify_law_suite(FiniteExceptionModel(exc2, {"i": 3, "j": 2}),
                           "nesting-matrix")
    assert [r for r in rep.results if not r.holds] == [LawResult(
        "b/flat-catches", "fails", {"input": ("val", 0),
                                    "lhs": ("exc", ("j", 0)),
                                    "rhs": ("val", 0)}, 3)]


def test_duality_semantic_runs_from_states(model32, exc_model22):
    rep = verify_law_suite(model32, "duality-semantic")
    assert rep.ok
    assert [r.name for r in rep.results] == [
        "A1_x<->B1_x", "A1_y<->B1_y", "A2_x_y<->B2_x_y", "A2_y_x<->B2_y_x",
        "annihilation[x]<->annihilation[x]",
        "annihilation[y]<->annihilation[y]"]
    with pytest.raises(E.ModelError):
        verify_law_suite(exc_model22, "duality-semantic")


def test_unknown_suite(model32):
    with pytest.raises(E.SuiteUnknown):
        verify_law_suite(model32, "no-such-suite")


def test_observational_equivalence(model32):
    assert observational_equiv(model32, (1, 0), (1, 0))
    assert not observational_equiv(model32, (1, 0), (2, 0))


def test_missing_size_is_refused(states2):
    with pytest.raises(E.CarrierMissing):
        FiniteStateModel(states2, {"x": 3})


def test_flavor_mismatch_is_refused(states2, exc2):
    with pytest.raises(E.ModelError):
        FiniteStateModel(exc2, {"i": 2, "j": 2})
    with pytest.raises(E.ModelError):
        FiniteExceptionModel(states2, {"x": 2, "y": 2})


@pytest.mark.parametrize("model,term,message", [
    (FiniteExceptionModel(build_exceptions_theory("E", ["i"]), {"i": 2}),
     Catch("q"), "unknown exception name 'q'"),
    (FiniteStateModel(build_states_theory("S", ["x", "y"]),
                      {"x": 2, "y": 2}),
     Lookup("q"), "unknown location 'q'"),
], ids=["exceptions", "states"])
def test_a_law_the_theory_does_not_type_is_refused(model, term, message):
    """The oracle decides typed laws only: an unknown index is the
    typecheck's error, not a verdict and not a crash."""
    with pytest.raises(E.UnknownIndex) as err:
        check_equation(model, eq_strong(term, term))
    assert str(err.value) == message


def test_bound_guards_exhaustive_checks(states2):
    small = FiniteStateModel(states2, {"x": 3, "y": 2}, bound=5)
    eq = eq_weak(comp(Lookup("x"), Update("x")), Id(Value("x")))
    with pytest.raises(E.SearchSpaceTooLarge):
        check_equation(small, eq)


def test_pure_gen_tables(states2):
    g = Gen("inc", Value("x"), Value("x"), 0)
    th = states2.with_gen(g)
    m = FiniteStateModel(th, {"x": 3, "y": 2},
                         Valuation(tables={"inc": [1, 2, 0]}))
    assert eval_states(m, g, 2, (0, 0)) == (0, (0, 0))
    bare = FiniteStateModel(th, {"x": 3, "y": 2})
    with pytest.raises(E.NoInterpretation):
        eval_states(bare, g, 0, (0, 0))


def test_effectful_gens_have_no_tables(states2):
    g = Gen("bump", UNIT, UNIT, 2)
    th = states2.with_gen(g)
    m = FiniteStateModel(th, {"x": 2, "y": 2},
                         Valuation(tables={"bump": [()]}))
    with pytest.raises(E.NoInterpretation):
        eval_states(m, g, (), (0, 0))


@settings(max_examples=80, deadline=None)
@given(strat.composed_terms(strat.state_atoms(["x", "y"]), max_factors=6))
def test_states_evaluation_is_total_and_deterministic(model22, t):
    for s in model22.states():
        for x in model22.carrier(strat.dom(t)):
            assert eval_states(model22, t, x, s) == eval_states(model22, t, x, s)


@settings(max_examples=60, deadline=None)
@given(strat.states_derivations(max_steps=3))
def test_kernel_soundness_in_state_models(model22, d):
    """Whatever the kernel derives holds in every finite model we try."""
    concl = d.conclusion
    if isinstance(concl, Holds):
        assert check_equation(model22, concl.eq).holds


@settings(max_examples=60, deadline=None)
@given(strat.exceptions_derivations(max_steps=3))
def test_kernel_soundness_in_exception_models(exc_model22, d):
    concl = d.conclusion
    if isinstance(concl, Holds):
        assert check_equation(exc_model22, concl.eq).holds


# ------------------------------------------- compiled tables vs interpreter

def _with_gens(theory, ty):
    """theory plus `inc` and `cast` (tables in the models below) and `raw`
    (no table)."""
    gens = [Gen("inc", ty("x"), ty("x"), 0), Gen("cast", ty("x"), ty("y"), 0),
            Gen("raw", ty("y"), ty("y"), 0)]
    for g in gens:
        theory = theory.with_gen(g)
    return theory, gens


_ST_GENS, _ST_GEN_ATOMS = _with_gens(strat.STATES2, Value)
_EX_GENS, _EX_GEN_ATOMS = _with_gens(
    with_catch_all(build_exceptions_theory("E", ["x", "y"])), Param)
_DIFF_MODELS = {
    "states": FiniteStateModel(_ST_GENS, {"x": 3, "y": 2},
                               Valuation(tables={"inc": (1, 2, 0),
                                                 "cast": (1, 0, 1)})),
    "exceptions": FiniteExceptionModel(_EX_GENS, {"x": 3, "y": 2},
                                       Valuation(tables={"inc": (2, 0, 1),
                                                     "cast": (0, 1, 1)})),
}


def _decision(check, model, eq):
    try:
        r = check(model, eq, "law")
    except E.DecorError as exc:
        return type(exc), str(exc)
    return r.status, r.witness, r.points


@pytest.mark.parametrize("side", ["states", "exceptions"])
@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_compiled_check_agrees_with_the_interpreter_sweep(side, data):
    """Same status, witness and points, or the same error, including for
    a generator without a table (`raw`)."""
    model = _DIFF_MODELS[side]
    gens = _ST_GEN_ATOMS if side == "states" else _EX_GEN_ATOMS
    atoms = data.draw(strat.structured_atoms(model.theory, gens))
    eq = data.draw(strat.equations(model.theory, atoms))
    assert (_decision(check_equation, model, eq)
            == _decision(sweep_equation, model, eq))


def test_footprint_slicing_keeps_the_full_sweep_witness(model32, exc_model22):
    """Only the named location (or exception name) is enumerated, yet the
    witness is the full sweep's: the other locations sit at 0, and the
    points count the full enumeration."""
    a1_y = eq_strong(comp(Lookup("y"), Update("y")), Id(Value("y")))
    r = check_equation(model32, a1_y, "A1_y")
    assert r == sweep_equation(model32, a1_y, "A1_y")
    assert r.witness == {"input": 0, "state": (0, 1),
                         "lhs": (0, (0, 0)), "rhs": (0, (0, 1))}
    assert r.points == 6 * 2

    b1_j = eq_strong(comp(Catch("j"), Throw("j")), Id(Param("j")))
    r = check_equation(exc_model22, b1_j, "B1_j")
    assert r == sweep_equation(exc_model22, b1_j, "B1_j")
    assert r.witness == {"input": ("exc", ("j", 0)),
                         "lhs": ("val", 0), "rhs": ("exc", ("j", 0))}
    assert r.points == 2 + 4


def test_mediating_arrows_and_catchall_see_every_index(states2, exc2):
    """A tuple or catchall reaches indices the equation does not name, so
    the enumeration covers them all."""
    const = Gen("one", UNIT, Value("y"), 0)
    th = states2.with_gen(const)
    m = FiniteStateModel(th, {"x": 3, "y": 2}, Valuation(tables={"one": (1,)}))
    eq = eq_strong(LocTuple((("x", Lookup("x")), ("y", const))), Id(UNIT))
    r = check_equation(m, eq, "set-y")
    assert r == sweep_equation(m, eq, "set-y")
    assert r.witness == {"input": (), "state": (0, 0),
                         "lhs": ((), (0, 1)), "rhs": ((), (0, 0))}

    ca = with_catch_all(exc2)
    m = FiniteExceptionModel(ca, {"i": 2, "j": 3})
    eq = eq_strong(CatchAll(), FromEmpty(UNIT))
    r = check_equation(m, eq, "catchall")
    assert r == sweep_equation(m, eq, "catchall")
    assert r.witness["input"] == ("exc", ("i", 0)) and r.points == 5
    for ax in ca.axioms:
        assert check_equation(m, ax.eq, ax.name).holds, ax.name


def _semi_chain(depth: int):
    """lsemi(step, ... lsemi(step, l[x]) ...), depth deep: its domain is
    V[x]^depth * 1, so its carrier has 3^depth elements at size 3."""
    step = Gen("step", Value("x"), Value("x"), 0)
    t = Lookup("x")
    for _ in range(depth):
        t = SemiProd(step, t, pure_on_left=True)
    return step, t


def test_the_point_bound_is_checked_before_any_carrier_is_built(states2):
    step, q = _semi_chain(8)
    th = states2.with_gen(step)
    m = FiniteStateModel(th, {"x": 3, "y": 1},
                         Valuation(tables={"step": (1, 2, 0)}), bound=1000)
    with pytest.raises(E.SearchSpaceTooLarge, match="19683 points"):
        check_equation(m, eq_weak(q, q))
    with pytest.raises(E.SearchSpaceTooLarge):
        sweep_equation(m, eq_weak(q, q))
    assert all(len(c) <= m.bound for c in m._carriers.values())


def test_a_generator_codomain_over_the_bound_is_never_built(states2):
    # 3 points, but the table would index a 3^8-element codomain: the
    # interpreter decides instead, and agrees with an unbounded model
    cod, outs = Value("x"), [0, 1, 2]
    for _ in range(7):
        cod, outs = Prod(Value("x"), cod), [(a, o) for a, o in enumerate(outs)]
    wide = Gen("wide", Value("x"), cod, 0)
    th = states2.with_gen(wide)
    table = Valuation(tables={"wide": tuple(outs)})
    eq = eq_weak(comp(wide, Lookup("x")), comp(wide, Lookup("x")))
    m = FiniteStateModel(th, {"x": 3, "y": 1}, table, bound=1000)
    r = check_equation(m, eq)
    assert r.holds and r.points == 3
    assert all(len(c) <= m.bound for c in m._carriers.values())
    assert r == check_equation(FiniteStateModel(th, {"x": 3, "y": 1}, table),
                               eq)


def test_carrier_size_follows_the_carrier(states2, exc2):
    m = FiniteStateModel(states2, {"x": 3, "y": 2},
                         Valuation(base={"N": 4, "Z": 0}))
    tys = [UNIT, Value("x"), Named("N"), Prod(Value("x"), Prod(Named("N"), UNIT)),
           Coprod(Value("y"), Prod(Value("x"), Value("y"))),
           Prod(Named("Z"), Named("missing"))]
    for ty in tys:
        assert m.carrier_size(ty) == len(m.carrier(ty)), ty
    for ty in (Named("missing"), Prod(Value("x"), Value("q")),
               Coprod(Named("Z"), Named("missing"))):
        with pytest.raises(E.CarrierMissing):
            m.carrier_size(ty)
        with pytest.raises(E.CarrierMissing):
            m.carrier(ty)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_element_decodes_a_carrier_position_without_the_carrier(data):
    base = Valuation(base={"A": 2})
    for m in (FiniteStateModel(strat.STATES2, {"x": 2, "y": 3}, base),
              FiniteExceptionModel(strat.EXC2, {"i": 3, "j": 2}, base)):
        ty = data.draw(strat.types(m.theory))
        car = m.carrier(ty)
        assert [m.element(ty, n) for n in range(len(car))] == car, ty


# ------------------------------------------ shared, short and value-first

@settings(max_examples=12, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=2, max_size=3))
def test_suites_agree_with_each_law_swept_alone(sizes):
    """The suites share tables within a goal (states-seven) or an exception
    name (exceptions-laws), and leave pass-through runs implicit; each
    result must still be the one the interpreter gives for that law."""
    names = ["x", "y", "z"][:len(sizes)]
    st_model = FiniteStateModel(build_states_theory("S", names),
                                dict(zip(names, sizes)))
    laws = [law for g in seven_equation_goals(st_model.theory)
            for law in [(g.name, g.direct), *g.observations]]
    assert verify_law_suite(st_model, "states-seven").results == tuple(
        sweep_equation(st_model, eq, nm) for nm, eq in laws)

    ex_model = FiniteExceptionModel(build_exceptions_theory("E", names),
                                    dict(zip(names, sizes)))
    laws = [law for group in _exception_law_groups(ex_model.theory)
            for law in group]
    assert verify_law_suite(ex_model, "exceptions-laws").results == tuple(
        sweep_equation(ex_model, eq, nm) for nm, eq in laws)


def test_a_failing_weak_states_law_decodes_the_sweep_witness(states2):
    """Weak sides are compared by value, through the last factor; the
    witness needs the full outcomes, which come from the whole tables."""
    one = Gen("one", UNIT, Value("x"), 0)
    m = FiniteStateModel(states2.with_gen(one), {"x": 3, "y": 2},
                         Valuation(tables={"one": (1,)}))
    eq = eq_weak(comp(Lookup("x"), Update("x"), one), Lookup("x"))
    r = check_equation(m, eq, "write-one")
    assert r == sweep_equation(m, eq, "write-one")
    assert r == LawResult("write-one", "fails", {
        "input": (), "state": (0, 0), "lhs": (1, (1, 0)),
        "rhs": (0, (0, 0))}, 6)


@pytest.mark.parametrize("swap", [False, True], ids=["short-rhs", "short-lhs"])
def test_a_strong_law_pads_its_short_side_against_a_full_one(exc2, swap):
    """id passes every exceptional input through (a short table); c[j] . t[j]
    catches j (a full one). The first exception of i agrees on both sides,
    the first of j does not."""
    m = FiniteExceptionModel(exc2, {"i": 2, "j": 3})
    sides = (comp(Catch("j"), Throw("j")), Id(Param("j")))
    eq = eq_strong(*(sides[::-1] if swap else sides))
    r = check_equation(m, eq, "B1_j")
    assert r == sweep_equation(m, eq, "B1_j")
    caught, passed = ("val", 0), ("exc", ("j", 0))
    assert r.witness == {"input": ("exc", ("j", 0)),
                         "lhs": passed if swap else caught,
                         "rhs": caught if swap else passed}
    assert r.points == 3 + 5


def test_a_table_over_the_bound_falls_back_on_the_sweep(states2):
    """The law has 4 points, but u[x]'s table would have 4 * 4 entries: it
    is refused, and the interpreter decides."""
    one = Gen("one", UNIT, Value("x"), 0)
    th = states2.with_gen(one)
    m = FiniteStateModel(th, {"x": 4, "y": 1}, Valuation(tables={"one": (1,)}),
                         bound=10)
    with pytest.raises(E.SearchSpaceTooLarge, match="16 entries"):
        _StateTables(m, ("x",)).table(Update("x"))
    eq = eq_strong(comp(Lookup("x"), Update("x"), one), Lookup("x"))
    r = check_equation(m, eq, "write-one")
    assert r == sweep_equation(m, eq, "write-one")
    assert r.witness == {"input": (), "state": (0, 0),
                         "lhs": (1, (1, 0)), "rhs": (0, (0, 0))}
    assert r.points == 4
    assert check_equation(m, eq_strong(comp(Update("x"), Lookup("x")),
                                       Id(UNIT))).holds
