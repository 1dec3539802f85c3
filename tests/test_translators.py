"""Erasure, duality, and expansion, cross-checked against the evaluators."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import strategies as strat
from decorlogic import errors as E
from decorlogic.exceptions import (build_exceptions_theory, with_catch_all,
                                   builtin_proof as exc_proof,
                                   derive_lemma as exc_lemma)
from decorlogic.kernel import (RULES, WellFormed, check_derivation,
                               hyp_node, node)
from decorlogic.models import (FiniteExceptionModel, FiniteStateModel,
                               eval_exceptions, eval_states)
from decorlogic.states import (build_states_theory, builtin_proof as st_proof,
                               derive_lemma as st_lemma)
from decorlogic.terms import (EXCEPTIONS, STATES, TERM_CLASSES, CaseSum,
                              Catch, CatchAll, Coerce, Comp, FromEmpty, Gen,
                              Id, Inj1, Inj2, Lookup, PropCase, Proj1, Proj2,
                              SemiProd, SemiCoprod, Side, Throw, ToUnit,
                              Update, cod, comp, dom)
from decorlogic.theory import Equation, STRONG, WEAK
from decorlogic.translators import (ECase, EPair, dual_axiom_name,
                                    dualize_derivation, dualize_equation, dualize_judgment,
                                    dualize_term,
                                    dualize_theory,
                                    dualize_type, ecomp, erase_derivation,
                                    erase_equation, erase_theory, esimplify,
                                    eval_explicit, exception_type,
                                    expand_exceptions,
                                    expand_exceptions_equation, expand_states,
                                    expand_states_equation, pack_exception,
                                    pack_state, state_type)
from decorlogic.types import (EMPTY, TYPE_CLASSES, UNIT, Coprod, Empty, Param,
                              Prod, Unit, Value)

# ---------------------------------------------------------------- erasure


def test_erase_theory_forgets_decorations(states2):
    plain = erase_theory(states2)
    assert plain.flavor == "plain"
    assert plain.name == states2.name + "-plain"
    assert [a.name for a in plain.axioms] == [a.name for a in states2.axioms]
    assert all(a.eq.kind == STRONG for a in plain.axioms)
    # idempotent: erasing a plain theory is the identity
    assert erase_theory(plain) is plain


def test_erase_equation_promotes_kind(states2):
    eq = states2.axiom("A1_x").eq
    erased = erase_equation(eq)
    assert erased.kind == STRONG
    assert (erased.lhs, erased.rhs) == (eq.lhs, eq.rhs)


def test_erased_derivations_replay_on_plain_theory(states2, exc2):
    cases = [
        (states2, st_lemma(states2, "annihilation", {"i": "x"})),
        (states2, st_lemma(states2, "commutation-6", {"i": "x", "j": "y"})),
        (states2, st_proof(states2, "pr5")),
        (exc2, exc_lemma(exc2, "key-annihilation", {"i": "i"})),
        (exc2, exc_lemma(exc2, "handler-commute", {"i": "i", "j": "j"})),
        (exc2, exc_proof(exc2, "bridge-r")),
    ]
    for theory, d in cases:
        plain = erase_theory(theory)
        ed = erase_derivation(theory, d)
        res = check_derivation(plain, ed)
        assert res.valid, res.error
        assert ed.conclusion.eq.kind == STRONG


def test_erasure_keeps_the_tree_shape(states2):
    d = st_proof(states2, "pr5")
    ed = erase_derivation(states2, d)
    assert ed.rule == d.rule
    assert len(ed.premises) == len(d.premises)
    assert ed.conclusion.eq.lhs == d.conclusion.eq.lhs


# ---------------------------------------------------------------- duality


def test_dualize_type_swaps_both_pillars():
    assert dualize_type(UNIT) == EMPTY
    assert dualize_type(EMPTY) == UNIT
    assert dualize_type(Value("x")) == Param("x")
    assert dualize_type(Param("i")) == Value("i")
    assert (dualize_type(Prod(Value("x"), UNIT))
            == Coprod(Param("x"), EMPTY))


def test_dualize_term_swaps_and_reverses():
    assert dualize_term(Lookup("x")) == Throw("x")
    assert dualize_term(Update("x")) == Catch("x")
    assert dualize_term(ToUnit(Value("x"))) == FromEmpty(Param("x"))
    # composition order flips
    got = dualize_term(Comp(Lookup("y"), Update("x")))
    assert got == Comp(Catch("x"), Throw("y"))
    # semi-pairing becomes semi-copairing, handedness kept
    sp = SemiProd(Id(UNIT), Update("x"), True)
    sc = dualize_term(sp)
    assert isinstance(sc, SemiCoprod)
    assert sc.pure_on_left
    assert sc.eff == Catch("x")


# a placeholder value for each field type of a term class; dualize_term
# reads no profile, so any will do
_PLACEHOLDERS = {"Term": Lookup("x"), "TypeExpr": UNIT, "str": "x", "int": 0,
                 "bool": True, "Tuple[Tuple[str, Term], ...]": (
                     ("x", Lookup("x")),)}


def test_every_construct_has_its_place_in_the_duality_table():
    """A term class is a composite or a generator, the identity, a field of
    one row of `Side` with its partner at that field of the other row, or
    a handler construct; dualize_term refuses the handler constructs
    alone, and trades each other construct for its partner."""
    partner = {}
    for f in dataclasses.fields(Side):
        a, b = getattr(STATES, f.name), getattr(EXCEPTIONS, f.name)
        for x, y in zip(a, b) if isinstance(a, tuple) else [(a, b)]:
            partner[x], partner[y] = y, x
    handlers = {CatchAll, CaseSum, PropCase, Coerce}
    for cls in TERM_CLASSES:
        t = cls(*[_PLACEHOLDERS[f.type] for f in dataclasses.fields(cls)])
        if cls in handlers:
            with pytest.raises(E.OutsideDualityDomain):
                dualize_term(t)
        elif cls in (Comp, Gen, Id):
            assert type(dualize_term(t)) is cls
        else:
            assert type(dualize_term(t)) is partner[cls], cls


@given(strat.states_terms(strat.STATES2))
def test_dualize_term_is_an_involution(t):
    assert dualize_term(dualize_term(t)) == t
    assert dom(dualize_term(t)) == dualize_type(cod(t))
    assert cod(dualize_term(t)) == dualize_type(dom(t))


def test_a_long_composite_crosses_the_duality_and_back():
    """dualize_term mirrors a composite in a loop: 1500 `u[x] . l[x]` pairs
    over l[x], and an equation of them, go across and come back."""
    t = comp(Lookup("x"), *[Update("x"), Lookup("x")] * 1500)
    assert dualize_term(dualize_term(t)) == t
    eq = Equation(t, Lookup("x"), WEAK)
    assert dualize_equation(dualize_equation(eq)) == eq


def test_dual_axiom_name_toggles_prefix():
    assert dual_axiom_name("A1_x") == "B1_x"
    assert dual_axiom_name("B2_i_j") == "A2_i_j"
    assert dual_axiom_name("CA_i") == "CA_i"
    assert dual_axiom_name("assoc") == "assoc"


def test_dualize_theory_matches_a_hand_built_dual():
    s = build_states_theory("S", ["x", "y"])
    assert dualize_theory(s) == build_exceptions_theory("S-dual", ["x", "y"])
    assert dualize_theory(dualize_theory(s)) == s


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_exceptions_signature_is_the_dual_of_the_states_one(n):
    """B1/B2 are A1/A2 read on the exceptions side, written out here."""
    ix = ["i", "j", "k"][:n]
    ex = build_exceptions_theory("E", ix)
    dual = dualize_theory(build_states_theory("E", ix))
    assert dataclasses.replace(dual, name="E") == ex
    want = [(f"B1_{i}", comp(Catch(i), Throw(i)), Id(Param(i))) for i in ix]
    want += [(f"B2_{i}_{j}", comp(Catch(i), Throw(j)),
              comp(FromEmpty(Param(i)), Throw(j)))
             for i in ix for j in ix if j != i]
    assert [(a.name, a.eq.lhs, a.eq.rhs) for a in ex.axioms] == want
    assert {a.eq.kind for a in ex.axioms} == {WEAK}


def test_dualize_theory_outside_domain(states2, exc2):
    with pytest.raises(E.OutsideDualityDomain):
        dualize_theory(erase_theory(states2))
    with pytest.raises(E.OutsideDualityDomain):
        dualize_theory(with_catch_all(exc2))


def test_builtin_proofs_cross_the_duality(states3):
    dual = dualize_theory(states3)
    for name in ("pr1", "pr2", "pr3", "pr4", "pr5", "pr6", "pr7", "pr8"):
        d = st_proof(states3, name)
        dd = dualize_derivation(states3, d)
        res = check_derivation(dual, dd)
        assert res.valid, f"{name}: {res.error}"
        # and back again, to the node
        assert dualize_derivation(dual, dd) == d


def test_composing_rules_cross_the_duality_reversed(states2):
    """The dual of a node that composes its premises takes them swapped,
    and the dual of assoc swaps its outer terms f and h."""
    vx, vy = Value("x"), Value("y")
    p1 = node(states2, "binprod-proj", which=1, left=vx, right=vy)
    bang = node(states2, "unit-arrow", at=vx)
    pure = node(states2, "0-comp", [p1, bang])
    read = node(states2, "1-comp",
                [pure, hyp_node(states2, "l", WellFormed(Lookup("x"), 1))])
    write = node(states2, "comp",
                 [read, hyp_node(states2, "u", WellFormed(Update("x"), 2))])
    assoc = node(states2, "assoc", f=Proj1(vx, vy), g=ToUnit(vx),
                 h=Lookup("x"))
    dual = dualize_theory(states2)
    for d in (write, assoc):
        dd = dualize_derivation(states2, d)
        res = check_derivation(dual, dd)
        assert res.valid, res.error
        assert dd.conclusion == dualize_judgment(d.conclusion)
        assert dualize_derivation(dual, dd) == d
    n, dn = write, dualize_derivation(states2, write)
    while n.premises:  # comp, 1-comp, 0-comp
        assert [p.conclusion for p in dn.premises[::-1]] == [
            dualize_judgment(p.conclusion) for p in n.premises]
        n, dn = n.premises[0], dn.premises[-1]
    assert dict(dualize_derivation(states2, assoc).inst) == {
        "f": Throw("x"), "g": FromEmpty(Param("x")),
        "h": Inj1(Param("x"), Param("y"))}


def test_states_lemmas_land_on_an_independent_target(states2):
    target = build_exceptions_theory("landing", ["x", "y"])
    for name, params in (("annihilation", {"i": "x"}),
                         ("commutation-6", {"i": "x", "j": "y"}),
                         ("interaction-3", {"i": "x"})):
        d = st_lemma(states2, name, params)
        dd = dualize_derivation(states2, d, target=target)
        res = check_derivation(target, dd)
        assert res.valid, f"{name}: {res.error}"


def test_dual_of_annihilation_is_the_key_identity(states2):
    d = st_lemma(states2, "annihilation", {"i": "x"})
    dd = dualize_derivation(states2, d)
    eq = dd.conclusion.eq
    assert eq == Equation(Comp(Throw("x"), Catch("x")), Id(EMPTY), STRONG)


def test_handler_constructs_have_no_dual(exc2):
    """A rule without a dual is refused where the rebuild enters it, before
    its premises, so the message names the first such rule from the root,
    not the first one a rebuild from the leaves would meet."""
    for d, rid in (
            (exc_lemma(exc2, "handler-commute", {"i": "i", "j": "j"}),
             "coerce-unique"),
            (exc_proof(exc2, "bridge-r"), "sum-case-unique"),
            (exc_proof(exc2, "bridge-l"), "sum-case-unique")):
        with pytest.raises(E.OutsideDualityDomain) as exc:
            dualize_derivation(exc2, d)
        assert str(exc.value) == (f"rule {rid!r} has no counterpart on "
                                  f"the other side")


def test_type_one_has_no_states_side_dual(exc2):
    """1 is an exceptions-side type; its dual 0 is not a states-side one."""
    for d in (node(exc2, "empty-arrow", at=UNIT),
              node(exc2, "bincoprod-inj", which=1, left=UNIT,
                   right=Param("i"))):
        with pytest.raises(E.OutsideDualityDomain):
            dualize_derivation(exc2, d)


def test_exception_lemmas_dualize_to_state_facts(exc2):
    dual = dualize_theory(exc2)
    for name, params in (("key-annihilation", {"i": "i"}),
                         ("catch-throw", {"i": "i"})):
        d = exc_lemma(exc2, name, params)
        dd = dualize_derivation(exc2, d)
        assert check_derivation(dual, dd).valid


def test_rule_table_pairs_each_rule_with_its_dual():
    assert RULES["w-subs"].dual == "w-repl"
    assert RULES["comp"].dual == "comp"
    assert RULES["sum-case-weak"].dual is None
    assert len(strat.PAIRED_RULES) == 26
    for rid, spec in RULES.items():
        if spec.dual is not None:
            assert RULES[spec.dual].dual == rid


@given(st.sampled_from(strat.PAIRED_RULES), st.data())
@settings(max_examples=600, deadline=None)
def test_paired_rules_commute_with_duality(rid, data):
    """Applying a paired rule and then dualizing gives what its dual gives
    on the dualized input, whenever both rules accept their input."""
    theory = data.draw(st.sampled_from(
        [t for t in (strat.STATES2, strat.EXC2) if t.flavor in RULES[rid].flavors]))
    ps, inst = data.draw(strat.paired_rule_inputs(theory, rid))
    try:
        d = node(theory, rid, [hyp_node(theory, f"p{k}", p)
                               for k, p in enumerate(ps)], **inst)
    except E.DecorError:
        reject()
    dd = dualize_derivation(theory, d)
    assert dd.rule == RULES[rid].dual
    assert dd.conclusion == dualize_judgment(d.conclusion)


@given(strat.states_derivations())
@settings(max_examples=50)
def test_random_weak_derivations_cross_the_duality(d):
    dual = dualize_theory(strat.STATES2)
    dd = dualize_derivation(strat.STATES2, d)
    res = check_derivation(dual, dd)
    assert res.valid, res.error
    assert dualize_derivation(dual, dd) == d


# -------------------------------------------------------------- expansion


def test_state_type_nests_right(states2, states3):
    assert state_type(states2) == Prod(Value("x"), Value("y"))
    assert state_type(states3) == Prod(Value("x"),
                                       Prod(Value("y"), Value("z")))
    one = build_states_theory("One", ["a"])
    assert state_type(one) == Value("a")
    assert pack_state(one, (5,)) == 5
    assert pack_state(states2, (1, 2)) == (1, 2)
    assert pack_state(states3, (1, 2, 3)) == (1, (2, 3))


def test_exception_type_nests_right(exc2):
    assert exception_type(exc2) == Coprod(Param("i"), Param("j"))
    three = build_exceptions_theory("Three", ["i", "j", "k"])
    assert exception_type(three) == Coprod(Param("i"),
                                           Coprod(Param("j"), Param("k")))
    assert pack_exception(exc2, "i", 7) == ("l", 7)
    assert pack_exception(exc2, "j", 7) == ("r", 7)
    assert pack_exception(three, "i", 7) == ("l", 7)
    assert pack_exception(three, "j", 7) == ("r", ("l", 7))
    assert pack_exception(three, "k", 7) == ("r", ("r", 7))


def test_expansion_guards_the_flavor(states2, exc2):
    with pytest.raises(E.BadParams):
        expand_states(exc2, Id(UNIT))
    with pytest.raises(E.BadParams):
        expand_exceptions(states2, Id(EMPTY))


def test_expansion_refuses_what_it_cannot_read(states2, exc2):
    into_empty = Gen("z", Param("i"), EMPTY, 0)
    with pytest.raises(E.TypingError, match="pure map into the empty type"):
        expand_exceptions(exc2.with_gen(into_empty), into_empty)
    with pytest.raises(E.TypingError, match="no states expansion for t"):
        expand_states(states2, Throw("i"))
    with pytest.raises(E.TypingError, match="no exceptions expansion for u"):
        expand_exceptions(exc2, Update("i"))


def test_a_pure_map_into_0_out_of_an_empty_sum_expands(exc2, exc_model22):
    """0 + 0 has no value, so a pure map from it into 0 is no claim."""
    _exceptions_agree_everywhere(exc2, exc_model22,
                                 PropCase(Id(EMPTY), Id(EMPTY)))


def test_weak_axiom_expansions_collapse(states2, states3, exc2):
    """Dropping the hidden column makes every axiom literally true."""
    for th in (states2, states3):
        for a in th.axioms:
            lhs, rhs = expand_states_equation(th, a.eq)
            assert lhs == rhs, a.name
    for a in exc2.axioms:
        lhs, rhs = expand_exceptions_equation(exc2, a.eq)
        assert lhs == rhs, a.name


def test_strong_readings_do_not_collapse(states2, exc2):
    a1 = states2.axiom("A1_x").eq
    lhs, rhs = expand_states_equation(
        states2, Equation(a1.lhs, a1.rhs, STRONG))
    assert lhs != rhs
    b1 = exc2.axiom("B1_i").eq
    lhs, rhs = expand_exceptions_equation(
        exc2, Equation(b1.lhs, b1.rhs, STRONG))
    assert lhs != rhs


def _unpack_state(theory, packed):
    out = []
    cur = packed
    for _ in theory.locations[:-1]:
        out.append(cur[0])
        cur = cur[1]
    out.append(cur)
    return tuple(out)


def _states_agree_everywhere(theory, model, t):
    et = expand_states(theory, t)
    a, b = dom(t), cod(t)
    for v in model.carrier(a):
        for s in model.states():
            want = eval_states(model, t, v, s)
            packed = pack_state(theory, s)
            ein = packed if isinstance(a, Unit) else (v, packed)
            out = eval_explicit(et, ein)
            if isinstance(b, Unit):
                got = ((), _unpack_state(theory, out))
            else:
                got = (out[0], _unpack_state(theory, out[1]))
            assert want == got, (t, v, s, want, got)


def test_expand_states_agrees_on_the_axiom_terms(states2, model22):
    for a in states2.axioms:
        _states_agree_everywhere(states2, model22, a.eq.lhs)
        _states_agree_everywhere(states2, model22, a.eq.rhs)


@given(strat.structured_terms(strat.STATES2, max_factors=4))
@settings(max_examples=100, deadline=None)
def test_expand_states_agrees_pointwise(t):
    """Semi-pure pairs, projections and tuples among the atoms."""
    model = FiniteStateModel(strat.STATES2, {"x": 2, "y": 2})
    _states_agree_everywhere(strat.STATES2, model, t)


def test_expand_states_of_a_long_composite(states2, model22):
    # 1600 factors: simplifying, composing, evaluating and printing the
    # expansion walk its spine with loops, so no walk runs out of stack
    t = comp(*[Update("x"), Lookup("x")] * 800)
    _states_agree_everywhere(states2, model22, t)
    assert str(expand_states(states2, t)).count(" . ") >= 1600


def test_expand_states_of_a_long_pure_composite(states2):
    """A pure composite is expanded as one pure map, whose spine
    `_pure_base` walks in a loop: 3001 factors of a generator that counts
    modulo 3 expand, and the expansion counts to 3001."""
    g = Gen("g", Value("x"), Value("x"), 0)
    e = expand_states(states2.with_gen(g), comp(*[g] * 3001))
    assert str(e).count("g . ") == 3001  # the first one after p1
    assert eval_explicit(e, (0, (1, 0)), {"g": lambda v: (v + 1) % 3}) == (
        1, (1, 0))


def _reference_text(t):
    """The explicit-term printer as it was written, recursively."""
    if isinstance(t, Comp):
        def wrap(u):
            text = _reference_text(u)
            return f"({text})" if isinstance(u, Comp) else text
        return f"{wrap(t.after)} . {wrap(t.before)}"
    if isinstance(t, EPair):
        return f"<{_reference_text(t.fst)}, {_reference_text(t.snd)}>"
    if isinstance(t, ECase):
        return f"[{_reference_text(t.on_left)} | {_reference_text(t.on_right)}]"
    return str(t)


_EXPLICIT_LEAVES = st.sampled_from([
    Id(UNIT), ToUnit(Value("x")), Proj1(UNIT, Value("x")),
    Inj2(UNIT, Param("i")), FromEmpty(UNIT), Gen("g", UNIT, UNIT)])


@given(st.recursive(_EXPLICIT_LEAVES, lambda inner: st.one_of(
    st.builds(Comp, inner, inner), st.builds(EPair, inner, inner),
    st.builds(ECase, inner, inner)), max_leaves=12))
def test_explicit_terms_print_as_the_recursive_printer_did(t):
    assert str(t) == _reference_text(t)


def _encode_exc_input(theory, ty, inp):
    tag, payload = inp
    if tag == "val":
        return ("l", payload)
    packed = pack_exception(theory, *payload)
    return packed if isinstance(ty, Empty) else ("r", packed)


def _decode_exc_output(theory, ty, out):
    tagged = ("r", out) if isinstance(ty, Empty) else out
    if tagged[0] == "l":
        return ("val", tagged[1])
    cur = tagged[1]
    names = theory.constructors
    for k, name in enumerate(names):
        if k == len(names) - 1:
            return ("exc", (name, cur))
        side, inner = cur
        if side == "l":
            return ("exc", (name, inner))
        cur = inner
    raise AssertionError("unreachable")


def _exc_points(model, ty):
    points = [("val", v) for v in model.carrier(ty)]
    for name in model.theory.constructors:
        for p in model.carrier(Param(name)):
            points.append(("exc", (name, p)))
    return points


def _exceptions_agree_everywhere(theory, model, t):
    et = expand_exceptions(theory, t)
    a, b = dom(t), cod(t)
    for inp in _exc_points(model, a):
        want = eval_exceptions(model, t, inp)
        out = eval_explicit(et, _encode_exc_input(theory, a, inp))
        got = _decode_exc_output(theory, b, out)
        assert want == got, (t, inp, want, got)


def test_expand_exceptions_agrees_on_the_axiom_terms(exc2, exc_model22):
    for a in exc2.axioms:
        _exceptions_agree_everywhere(exc2, exc_model22, a.eq.lhs)
        _exceptions_agree_everywhere(exc2, exc_model22, a.eq.rhs)


@given(strat.structured_terms(strat.EXC2, max_factors=4))
@settings(max_examples=100, deadline=None)
def test_expand_exceptions_agrees_pointwise(t):
    """Semi-pure pairs, injections, case splits, cotuples and try/catch
    handlers among the atoms."""
    model = FiniteExceptionModel(strat.EXC2, {"i": 2, "j": 2})
    _exceptions_agree_everywhere(strat.EXC2, model, t)


def test_strong_lemmas_hold_under_expansion(states2, exc2):
    """Syntactically distinct expansions, equal at every point."""
    lhs = expand_states(states2, Comp(Update("x"), Lookup("x")))
    rhs = expand_states(states2, Id(UNIT))
    assert lhs != rhs
    model = FiniteStateModel(states2, {"x": 3, "y": 2})
    for s in model.states():
        packed = pack_state(states2, s)
        assert eval_explicit(lhs, packed) == eval_explicit(rhs, packed)

    klhs = expand_exceptions(exc2, Comp(Throw("i"), Catch("i")))
    krhs = expand_exceptions(exc2, Id(EMPTY))
    xmodel = FiniteExceptionModel(exc2, {"i": 2, "j": 2})
    for name in exc2.constructors:
        for p in xmodel.carrier(Param(name)):
            packed = pack_exception(exc2, name, p)
            assert eval_explicit(klhs, packed) == eval_explicit(krhs, packed)


def test_catch_all_expansion_recovers_everything(exc2):
    extended = with_catch_all(exc2)
    et = expand_exceptions(extended, CatchAll())
    model = FiniteExceptionModel(extended, {"i": 2, "j": 2})
    for name in extended.constructors:
        for p in model.carrier(Param(name)):
            packed = pack_exception(extended, name, p)
            assert eval_explicit(et, packed) == ("l", ())


# each explicit construct and its counterpart in the opposite category
_DUAL_EXPLICIT = {Id: Id, EPair: ECase, Proj1: Inj1, Proj2: Inj2,
                  ToUnit: FromEmpty}
_DUAL_EXPLICIT.update({b: a for a, b in _DUAL_EXPLICIT.items()})


def _dual_explicit(t):
    """t read in the opposite category: composition reversed, each
    construct traded for its counterpart, its types dualized."""
    if isinstance(t, Comp):
        return ecomp(_dual_explicit(t.before), _dual_explicit(t.after))
    if isinstance(t, Gen):
        return Gen(t.name, dualize_type(t.cod), dualize_type(t.dom))
    return _DUAL_EXPLICIT[type(t)](*[
        dualize_type(v) if isinstance(v, TYPE_CLASSES) else _dual_explicit(v)
        for v in (getattr(t, f) for f in t.__match_args__)])


def _expansions_commute_with_duality(theory, t=None, eq=None):
    dual = dualize_theory(theory)
    if t is not None:
        assert (expand_exceptions(dual, dualize_term(t))
                == _dual_explicit(expand_states(theory, t))), t
    if eq is not None:
        want = tuple(map(_dual_explicit, expand_states_equation(theory, eq)))
        assert (expand_exceptions_equation(dual, dualize_equation(eq))
                == want), eq


@pytest.mark.parametrize("names", [["x"], ["x", "y"], ["x", "y", "z"]])
def test_axiom_expansions_commute_with_duality(names):
    theory = build_states_theory("S", names)
    for a in theory.axioms:
        _expansions_commute_with_duality(theory, a.eq.lhs, a.eq)
        _expansions_commute_with_duality(theory, a.eq.rhs)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_expansion_commutes_with_duality(data):
    """expand_exceptions of the dual is the dual of expand_states, on
    terms and on both kinds of equation."""
    atoms = data.draw(strat.structured_atoms(strat.STATES2))
    _expansions_commute_with_duality(
        strat.STATES2, data.draw(strat.composed_terms(atoms)),
        data.draw(strat.equations(strat.STATES2, atoms)))


# ------------------------------------------------- explicit term utilities


def test_esimplify_contracts_the_obvious_pairs():
    vx, vy = Value("x"), Value("y")
    f = Proj2(vx, vy)
    pair = EPair(Proj1(vx, vy), f)
    assert esimplify(ecomp(Proj1(vx, vy), pair)) == Proj1(vx, vy)
    assert esimplify(ecomp(Proj2(vx, vy), pair)) == f
    # eta on pairing and on case analysis
    assert esimplify(pair) == Id(Prod(vx, vy))
    case = ECase(Inj1(vx, vy), Inj2(vx, vy))
    assert esimplify(case) == Id(Coprod(vx, vy))
    assert esimplify(ecomp(ECase(Gen("g", vx, vy), Id(vy)),
                           Inj1(vx, vy))) == Gen("g", vx, vy)
    # terminal absorbs to the left, initial to the right
    assert esimplify(ecomp(ToUnit(vy), Gen("g", vx, vy))) == ToUnit(vx)
    assert esimplify(ecomp(Gen("g", vx, vy), FromEmpty(vx))) == FromEmpty(vy)


def test_ecomp_drops_identities():
    vx = Value("x")
    g = Gen("g", vx, vx)
    assert ecomp(Id(vx), g, Id(vx)) == g
    assert ecomp(Id(vx), Id(vx)) == Id(vx)


def test_eval_explicit_edges():
    vx = Value("x")
    with pytest.raises(E.ModelError):
        eval_explicit(FromEmpty(vx), 0)
    with pytest.raises(E.NoInterpretation):
        eval_explicit(Gen("g", vx, vx), 0)
    assert eval_explicit(Gen("g", vx, vx), 3, {"g": lambda v: v + 1}) == 4
    assert eval_explicit(EPair(Id(vx), ToUnit(vx)), 2) == (2, ())
