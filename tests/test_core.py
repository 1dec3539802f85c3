"""Types, terms, theories: construction, rendering, typing, decorations."""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError, fields, replace
from inspect import signature

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as strat
from decorlogic import errors as E
from decorlogic.terms import (TERM_CLASSES, CaseSum, Catch, Coerce, Comp,
                              ConstCotuple, FromEmpty, Gen, Id, Inj1, Inj2,
                              LocTuple, Lookup, Node, PropCase, Proj1,
                              SemiProd, Throw, ToUnit, Update, cod, comp,
                              compose_normal, dom, normalize_assoc, subterms,
                              term_size, term_to_text)
from decorlogic.theory import (STRONG, WEAK, Equation, eq_strong, eq_weak,
                               infer_decoration, norm_eq, typecheck,
                               typecheck_equation)
from decorlogic.translators import (ECase, EPair, dualize_term,
                                    dualize_theory, dualize_type)
from decorlogic.types import (Coprod, EMPTY, Named, Param, Prod, UNIT, Value)


def test_type_rendering():
    assert str(UNIT) == "1"
    assert str(EMPTY) == "0"
    assert str(Value("x")) == "V[x]"
    assert str(Param("i")) == "P[i]"
    assert str(Prod(Value("x"), UNIT)) == "(V[x] * 1)"
    assert str(Coprod(UNIT, Param("i"))) == "(1 + P[i])"
    assert str(Named("Acct")) == "Acct"


def test_term_rendering():
    assert term_to_text(Lookup("x")) == "l[x]"
    assert term_to_text(Update("x")) == "u[x]"
    assert term_to_text(Throw("i")) == "t[i]"
    assert term_to_text(Catch("i")) == "c[i]"
    assert term_to_text(Id(Value("x"))) == "id[V[x]]"
    assert term_to_text(Proj1(UNIT, Value("x"))) == "p1[1,V[x]]"
    t = Comp(Lookup("y"), Comp(Update("x"), Lookup("x")))
    assert term_to_text(t) == "l[y] . (u[x] . l[x])"
    fam = LocTuple((("x", Lookup("x")), ("y", Lookup("y"))))
    assert term_to_text(fam) == "tuple(x: l[x], y: l[y])"


def test_profiles_of_effect_atoms():
    assert dom(Lookup("x")) == UNIT and cod(Lookup("x")) == Value("x")
    assert dom(Update("x")) == Value("x") and cod(Update("x")) == UNIT
    assert dom(Throw("i")) == Param("i") and cod(Throw("i")) == EMPTY
    assert dom(Catch("i")) == EMPTY and cod(Catch("i")) == Param("i")


def test_comp_normalizes_to_right_nesting():
    a, b, c = Lookup("x"), Update("x"), Lookup("x")
    left = Comp(Comp(a, b), c)
    right = Comp(a, Comp(b, c))
    assert normalize_assoc(left) == right
    assert comp(a, b, c) == right
    assert normalize_assoc(right) == right


@given(strat.composed_terms(strat.state_atoms(["x", "y"]), max_factors=6))
def test_normalize_assoc_is_idempotent(t):
    once = normalize_assoc(t)
    assert normalize_assoc(once) == once


@st.composite
def structured_terms(draw, theory):
    """Composites over a side's atoms and its product or sum structure,
    with an identity on either end or none."""
    t = draw(strat.structured_terms(theory))
    return draw(st.sampled_from([t, Comp(Id(t.cod), t), Comp(t, Id(t.dom))]))


@given(st.one_of(structured_terms(strat.STATES2),
                 strat.exceptions_terms(strat.EXC2)))
def test_stored_facts_obey_duality(t):
    d = dualize_term(t)
    assert d.dom == dualize_type(t.cod) and d.cod == dualize_type(t.dom)
    assert (d.level, d.size) == (t.level, t.size)


@given(st.one_of(structured_terms(strat.STATES2),
                 structured_terms(strat.EXC2)))
def test_normalize_assoc_keeps_the_facts(t):
    norm = normalize_assoc(t)
    assert (norm.dom, norm.cod, norm.level) == (t.dom, t.cod, t.level)
    assert normalize_assoc(norm) is norm


@given(st.one_of(strat.composable_normal_pairs(strat.STATES2),
                 strat.composable_normal_pairs(strat.EXC2)))
def test_compose_normal_is_the_normal_form_of_the_composite(pair):
    g, f = pair
    assert compose_normal(g, f) == normalize_assoc(Comp(g, f))


_TYPES = st.sampled_from([UNIT, EMPTY, Value("x"), Param("i"),
                          Prod(Value("x"), UNIT)])


def _field_values(cls, terms):
    """A strategy for the field values of a term class, in field order."""
    by_type = {"Term": terms, "TypeExpr": _TYPES,
               "str": st.sampled_from(["x", "i"]),
               "int": st.integers(0, 2), "bool": st.booleans(),
               "Tuple[Tuple[str, Term], ...]": st.lists(
                   st.tuples(st.sampled_from(["x", "y"]), terms),
                   max_size=2).map(tuple)}
    return st.tuples(*[by_type[f.type] for f in fields(cls)])


def _built_as_dataclass(cls, values):
    """cls's node as dataclass's own frozen `__init__` and the stored
    facts' first `__post_init__` built it, field by field."""
    ref = object.__new__(cls)
    for f, v in zip(fields(cls), values):
        object.__setattr__(ref, f.name, v)
    dom, cod, level = ref._facts()
    for name, v in (("dom", dom), ("cod", cod), ("level", level),
                    ("size", 1 + sum(k.size for k in ref.kids()))):
        getattr(Node, name).__set__(ref, v)
    return ref


_CLASSES = TERM_CLASSES + (EPair, ECase)


@given(st.sampled_from(_CLASSES).flatmap(lambda cls: st.tuples(
    st.just(cls), _field_values(cls, strat.states_terms(strat.STATES2)))))
def test_the_generated_initializer_builds_what_dataclass_built(drawn):
    cls, values = drawn
    names = [f.name for f in fields(cls)]
    ref = _built_as_dataclass(cls, values)
    built = cls(*values)
    for t in (built, cls(**dict(zip(names, values))), replace(ref),
              replace(built), copy.copy(built), copy.deepcopy(built),
              pickle.loads(pickle.dumps(built))):
        assert [getattr(t, n) for n in names] == list(values)
        assert (t.dom, t.cod, t.level, t.size) == (ref.dom, ref.cod,
                                                   ref.level, ref.size)
        assert t == ref and repr(t) == repr(ref)
        # dataclass's own hash, of the tuple of fields, before and after
        # it is cached
        assert hash(t) == hash(tuple(values)) == hash(t)
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(t, name, None)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=1)
@given(st.data())
def test_stored_facts_and_fields_refuse_assignment(cls, data):
    t = cls(*data.draw(_field_values(cls, strat.states_terms(strat.STATES2))))
    hash(t)
    before = [getattr(t, n) for n in Node.__slots__]
    for name in (*Node.__slots__, *[f.name for f in fields(cls)][:1]):
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(t, name)
    assert [getattr(t, n) for n in Node.__slots__] == before


def test_the_generated_initializer_keeps_defaults_and_signatures():
    g = Gen("g", UNIT, Value("x"))
    assert (g.dec, g.level) == (0, 0)
    assert replace(g, dec=2).level == 2
    for cls in _CLASSES:
        assert list(signature(cls).parameters) == [f.name
                                                   for f in fields(cls)]
    with pytest.raises(TypeError):
        Comp(Lookup("x"))


def test_typecheck_accepts_composable(states2):
    t = comp(Lookup("y"), Update("x"), Lookup("x"))
    assert typecheck(states2, t) == (UNIT, Value("y"))


def test_typecheck_rejects_profile_mismatch(states2):
    with pytest.raises(E.CompositionMismatch):
        typecheck(states2, Comp(Lookup("x"), Lookup("x")))


def test_typecheck_rejects_wrong_flavor(states2, exc2):
    with pytest.raises(E.TypingError):
        typecheck(states2, Throw("i"))
    with pytest.raises(E.TypingError):
        typecheck(exc2, Lookup("x"))


def test_typecheck_rejects_unknown_index(states2):
    with pytest.raises(E.UnknownIndex):
        typecheck(states2, Lookup("zz"))


def test_loc_tuple_needs_every_location(states2):
    with pytest.raises(E.IncompleteFamily):
        typecheck(states2, LocTuple((("x", Lookup("x")),)))


def test_tuple_and_cotuple_mismatches_are_dual(states2):
    # the y component starts at V[x], the x component at 1
    bad = LocTuple((("x", Lookup("x")),
                    ("y", comp(Lookup("y"), ToUnit(Value("x"))))))
    with pytest.raises(E.DomainMismatch):
        typecheck(states2, bad)
    with pytest.raises(E.CodomainMismatch):
        typecheck(dualize_theory(states2), dualize_term(bad))
    assert not issubclass(E.DomainMismatch, E.CodomainMismatch)
    assert not issubclass(E.CodomainMismatch, E.DomainMismatch)


def test_semi_product_pure_slot_is_enforced(states2):
    eff = Lookup("x")
    with pytest.raises(E.PureSideRequired):
        typecheck(states2, SemiProd(Comp(Lookup("x"), Update("x")), eff,
                                    pure_on_left=True))
    ok = SemiProd(Id(UNIT), eff, pure_on_left=True)
    d, c = typecheck(states2, ok)
    # the semi-pure product maps pairs: (1 * 1) -> (1 * V[x])
    assert d == Prod(UNIT, UNIT) and c == Prod(UNIT, Value("x"))


def test_decorations_of_atoms():
    assert infer_decoration(Id(UNIT)) == 0
    assert infer_decoration(Lookup("x")) == 1
    assert infer_decoration(Update("x")) == 2
    assert infer_decoration(Throw("i")) == 1
    assert infer_decoration(Catch("i")) == 2
    assert infer_decoration(LocTuple((("x", Lookup("x")),))) == 2
    assert infer_decoration(ConstCotuple((("i", Catch("i")),))) == 2


def test_coerce_caps_the_decoration():
    handler_ish = Coerce(Comp(CaseSum(Id(Param("i")), Catch("i")),
                              Throw("i")))
    assert infer_decoration(handler_ish) == 1
    assert infer_decoration(Coerce(Id(UNIT))) == 0


@given(strat.composed_terms(strat.state_atoms(["x", "y"]), max_factors=5),
       strat.composed_terms(strat.state_atoms(["x", "y"]), max_factors=5))
def test_composite_decoration_is_the_max(f, g):
    t = Comp(f, g)
    assert infer_decoration(t) == max(infer_decoration(f),
                                      infer_decoration(g))


def test_gen_decoration_is_declared():
    g = Gen("tick", UNIT, UNIT, 2)
    assert infer_decoration(g) == 2
    assert infer_decoration(SemiProd(Id(UNIT), g, True)) == 2


def test_term_size_and_subterms():
    t = comp(Lookup("y"), Update("x"), Lookup("x"))
    assert term_size(t) == 5
    subs = list(subterms(t))
    assert Lookup("x") in subs and Update("x") in subs and t in subs


def test_theory_lookup_errors(states2):
    with pytest.raises(E.UnknownAxiom):
        states2.axiom("A9_q")
    with pytest.raises(E.UnknownGenerator):
        states2.gen("missing")


def test_with_gen_rejects_duplicates(states2):
    g = Gen("fresh", UNIT, UNIT, 0)
    extended = states2.with_gen(g)
    assert extended.gen("fresh") == g
    with pytest.raises(E.TypingError):
        extended.with_gen(Gen("fresh", UNIT, UNIT, 1))


def test_norm_eq_normalizes_both_sides():
    a, b, c = Lookup("x"), Update("x"), Lookup("x")
    eq = eq_weak(Comp(Comp(a, b), c), Comp(a, Comp(b, c)))
    n = norm_eq(eq)
    assert n.lhs == n.rhs


def test_equation_kinds_and_render():
    eq = eq_strong(Id(UNIT), Id(UNIT))
    assert eq.kind == STRONG
    assert eq_weak(Id(UNIT), Id(UNIT)).kind == WEAK
    assert "==" in str(eq)
    assert "~~" in str(eq_weak(Id(UNIT), Id(UNIT)))


def test_typecheck_equation_requires_same_profile(states2):
    with pytest.raises(E.TypingError):
        typecheck_equation(states2, eq_weak(Lookup("x"), Update("x")))


_S, _E = strat.STATES2, strat.EXC2
_CATCHER = comp(Catch("i"), Throw("i"))      # P[i] -> P[i], level 2
# (theory, term or equation, the error, its message), one row per refusal
_ILL_TYPED = {
    "unknown-location": (_S, Id(Value("q")), E.UnknownIndex,
                         "unknown location 'q'"),
    "unknown-exception-name": (_E, Id(Param("q")), E.UnknownIndex,
                               "unknown exception name 'q'"),
    "product-on-exceptions": (
        _E, Id(Prod(Param("i"), Param("j"))), E.FlavorViolation,
        "product types do not occur on the exceptions side"),
    "sum-on-states": (_S, Id(Coprod(Value("x"), Value("y"))),
                      E.FlavorViolation,
                      "sum types do not occur on the states side"),
    "unknown-thrown-name": (_E, Throw("q"), E.UnknownIndex,
                            "unknown exception name 'q'"),
    "generator-profile": (
        _S.with_gen(Gen("g", Value("x"), Value("y"), 1)),
        Gen("g", Value("x"), Value("x"), 1), E.TypingError,
        "generator 'g' used with profile V[x]->V[x] level 1, "
        "declared V[x]->V[y] level 1"),
    "tuple-component-target": (
        _S, LocTuple((("x", Lookup("y")), ("y", Lookup("y")))),
        E.TypingError, "component for 'x' must end at V[x], got V[y]"),
    "tuple-component-modifier": (
        _S, LocTuple((("x", comp(Lookup("x"), Update("x"), Lookup("x"))),
                      ("y", Lookup("y")))),
        E.NotAnAccessor, "tuple component for 'x' is a modifier"),
    "cotuple-component-source": (
        _E, ConstCotuple((("i", Throw("j")), ("j", Throw("j")))),
        E.TypingError, "component for 'i' must start at P[i], got P[j]"),
    "cotuple-component-catcher": (
        _E, ConstCotuple((("i", comp(Throw("i"), _CATCHER)),
                          ("j", Throw("j")))),
        E.NotAPropagator, "cotuple component for 'i' is a catcher"),
    "case-value-branch-catches": (
        _E, CaseSum(_CATCHER, Catch("i")), E.NotAPropagator,
        "case's value branch must not catch"),
    "case-codomains": (_E, CaseSum(Id(Param("i")), Catch("j")),
                       E.CodomainMismatch,
                       "case branches must share a codomain"),
    "cases-catcher": (_E, PropCase(_CATCHER, Throw("j")), E.NotAPropagator,
                      "cases() takes propagators, not catchers"),
    "cases-codomains": (_E, PropCase(Id(Param("i")), Throw("j")),
                        E.CodomainMismatch,
                        "cases branches must share a codomain"),
    "equation-kind": (_S, Equation(Lookup("x"), Lookup("x"), "medium"),
                      E.TypingError, "unknown equation kind 'medium'"),
}


@pytest.mark.parametrize("theory,thing,error,message", _ILL_TYPED.values(),
                         ids=_ILL_TYPED)
def test_every_typecheck_refusal_is_pinned(theory, thing, error, message):
    check = typecheck_equation if isinstance(thing, Equation) else typecheck
    with pytest.raises(error) as exc:
        check(theory, thing)
    assert str(exc.value) == message


def test_exception_case_terms_typecheck(exc2):
    y = Param("j")
    chain = Comp(CaseSum(Id(y), Comp(FromEmpty(y), Throw("i"))), Throw("j"))
    with pytest.raises(E.TypingError):
        # the case scrutinee must produce Y + 0, t[j] lands in plain 0
        typecheck(exc2, chain)
    cases = PropCase(Inj1(Param("i"), Param("j")),
                     Inj2(Param("i"), Param("j")))
    d, c = typecheck(exc2, cases)
    assert d == Coprod(Param("i"), Param("j")) == c
