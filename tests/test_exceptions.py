"""The exceptions theory: duals of the state axioms, handlers, lemmas."""

from __future__ import annotations

import pytest

from decorlogic import errors as E
from decorlogic.exceptions import (LEMMAS, build_exceptions_theory,
                                   builtin_proof, derive_lemma, handle_term,
                                   raise_term, semi_pure_coproduct,
                                   with_catch_all)
from decorlogic.kernel import Holds, check_derivation
from decorlogic.models import _exception_law_groups
from decorlogic.terms import (Catch, CatchAll, Comp, FromEmpty, Gen, Id,
                              Lookup, SemiCoprod, Throw, comp)
from decorlogic.theory import (STRONG, WEAK, infer_decoration, norm_eq,
                               typecheck)
from decorlogic.types import EMPTY, Param, UNIT


def test_theory_shape(exc2):
    assert exc2.flavor == "exceptions"
    assert exc2.constructors == ("i", "j")
    assert [a.name for a in exc2.axioms] == ["B1_i", "B1_j",
                                             "B2_i_j", "B2_j_i"]
    assert all(a.eq.kind == WEAK for a in exc2.axioms)
    assert not exc2.catch_all


def test_axiom_equations(exc2):
    b1 = exc2.axiom("B1_i").eq
    assert b1.lhs == Comp(Catch("i"), Throw("i"))
    assert b1.rhs == Id(Param("i"))
    # B2_i_j catches i after throwing j: composites dualize in reverse order
    b2 = exc2.axiom("B2_i_j").eq
    assert b2.lhs == Comp(Catch("i"), Throw("j"))
    assert b2.rhs == Comp(FromEmpty(Param("i")), Throw("j"))


def test_raise_term(exc2):
    r = raise_term(exc2, "i", Param("j"))
    assert typecheck(exc2, r) == (Param("i"), Param("j"))
    assert infer_decoration(r) == 1
    with pytest.raises(E.UnknownIndex):
        raise_term(exc2, "zz", UNIT)


def test_handler_stages(exc2):
    g = Gen("recover", Param("i"), Param("j"), 1)
    th = exc2.with_gen(g)
    body = raise_term(th, "i", Param("j"))
    parts = handle_term(th, body, [("i", g)])
    assert infer_decoration(parts.chain) == 2
    assert infer_decoration(parts.handle) == 2
    assert infer_decoration(parts.term) == 1
    assert typecheck(th, parts.term) == (Param("i"), Param("j"))


def test_handler_clause_validation(exc2):
    g = Gen("recover", Param("i"), Param("j"), 1)
    th = exc2.with_gen(g)
    body = raise_term(th, "i", Param("j"))
    with pytest.raises(E.EmptyHandler):
        handle_term(th, body, [])
    with pytest.raises(E.UnknownIndex):
        handle_term(th, body, [("zz", g)])
    with pytest.raises(E.TypingError):
        # the clause for j must start at P[j]
        handle_term(th, body, [("j", g)])
    with pytest.raises(E.NotAPropagator):
        handle_term(th, comp(Catch("i"), Throw("i")), [("i", g)])


def test_catch_all_needs_the_extended_theory(exc2):
    with pytest.raises(E.TypingError):
        typecheck(exc2, CatchAll())
    extended = with_catch_all(exc2)
    assert extended.catch_all
    d, c = typecheck(extended, CatchAll())
    assert d == EMPTY and c == UNIT


def test_catch_all_handler(exc2):
    th = with_catch_all(exc2)
    g = Gen("fallback", UNIT, Param("j"), 1)
    th = th.with_gen(g)
    body = raise_term(th, "i", Param("j"))
    parts = handle_term(th, body, [], catch_all=g)
    assert infer_decoration(parts.term) == 1
    assert typecheck(th, parts.term)[1] == Param("j")


def test_key_annihilation_lemma(exc2):
    d = derive_lemma(exc2, "key-annihilation", {"i": "i"})
    assert check_derivation(exc2, d).valid
    eq = d.conclusion.eq
    assert eq.kind == STRONG
    assert eq.lhs == comp(Throw("i"), Catch("i"))
    assert eq.rhs == Id(EMPTY)


def test_initial_uniqueness_lemma(exc2):
    d = derive_lemma(exc2, "initial-uniqueness",
                     {"f": FromEmpty(Param("i"))})
    assert check_derivation(exc2, d).valid
    assert d.conclusion.eq.rhs == FromEmpty(Param("i"))


def test_catch_throw_lemma(exc2):
    d = derive_lemma(exc2, "catch-throw", {"i": "i"})
    assert check_derivation(exc2, d).valid
    assert d.conclusion.eq.kind == STRONG


def test_handler_lemmas(exc2):
    for nm, params in (("handler-commute", {"i": "i", "j": "j"}),
                       ("handler-idempotent", {"i": "i"})):
        d = derive_lemma(exc2, nm, params)
        res = check_derivation(exc2, d)
        assert res.valid, f"{nm}: {res.error}"


def test_bridge_proofs(exc2):
    for nm in ("bridge-r", "bridge-l"):
        d = builtin_proof(exc2, nm)
        res = check_derivation(exc2, d)
        assert res.valid, f"{nm}: {res.error}"


def test_lemma_catalogue(exc2):
    assert set(LEMMAS) == {"key-annihilation", "initial-uniqueness",
                           "catch-throw", "handler-commute",
                           "handler-idempotent"}
    with pytest.raises(E.UnknownLemma):
        derive_lemma(exc2, "annihilation", {"i": "i"})


def test_single_constructor_theory():
    th = build_exceptions_theory("One", ["e"])
    assert [a.name for a in th.axioms] == ["B1_e"]
    d = derive_lemma(th, "key-annihilation", {"i": "e"})
    assert check_derivation(th, d).valid


def test_semi_pure_coproduct_normalizes_and_typechecks(exc2):
    pi = Param("i")
    for left in (True, False):
        t = semi_pure_coproduct(exc2, Comp(Id(pi), Id(pi)),
                                Comp(Id(pi), Catch("i")), left)
        assert t == SemiCoprod(Id(pi), Catch("i"), left)
    with pytest.raises(E.FlavorViolation):
        semi_pure_coproduct(exc2, Id(pi), Lookup("i"))


# the lemma that proves each exceptions-laws law, by the law's name
_LEMMA_OF_LAW = {"annihilation": "key-annihilation",
                 "catch-throw": "catch-throw",
                 "handler-commute": "handler-commute",
                 "handler-idempotent": "handler-idempotent"}


@pytest.mark.parametrize("n", [2, 3])
def test_each_lemma_concludes_the_law_its_suite_checks(n):
    """The lemma an exceptions-laws law names concludes that law as the
    suite builds it, at every index the suite checks it at."""
    th = build_exceptions_theory(f"E{n}", "ijk"[:n])
    proven = 0
    for name, eq in (row for group in _exception_law_groups(th)
                     for row in group):
        law, _, ix = name[:-1].partition("[")
        if law in _LEMMA_OF_LAW:
            params = dict(zip("ij", ix.split(",")))
            d = derive_lemma(th, _LEMMA_OF_LAW[law], params)
            assert d.conclusion == Holds(norm_eq(eq)), name
            proven += 1
    assert proven == 3 * n + n * (n - 1)


@pytest.mark.parametrize("params,error,message", [
    ({"g": Id(Param("i"))}, E.CodomainMismatch,
     "clause for 'i' lands in P[i], body in P[j]"),
    ({"h": Id(Param("i"))}, E.TypingError,
     "clause for 'j' must start at P[j]"),
    ({"f": Catch("j")}, E.NotAPropagator,
     "handler body must be level <= 1: c[j]"),
], ids=["clause-lands-off", "clause-starts-off", "body-catches"])
def test_a_handler_lemma_refuses_clauses_as_handle_term_does(
        exc2, params, error, message):
    """A handler lemma builds its two handlers with `handle_term`, so it
    refuses a custom body or clause with the same error."""
    with pytest.raises(error) as err:
        derive_lemma(exc2, "handler-commute", {"i": "i", "j": "j", **params})
    assert str(err.value) == message
    with pytest.raises(error) as again:
        handle_term(exc2, params.get("f", raise_term(exc2, "i", Param("j"))),
                    [("i", params.get("g", raise_term(exc2, "i", Param("j")))),
                     ("j", params.get("h", Id(Param("j"))))])
    assert str(again.value) == message
