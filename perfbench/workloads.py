"""Seeded request generators for the three workloads.

Every request carries the answer it is expected to produce, worked out
here from the paper's axioms or from `reference.py`, never by asking
decorlogic.  The seed renames locations and exception names, reorders
their declarations, and draws tables, inputs and the random terms of
script-mix; the shape and size of every workload stay fixed, so the
work done per pass does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from reference import ExceptionsRef, StatesRef, jsonable

# one-letter index names the script grammar does not reserve
NAME_POOL = ("a", "b", "d", "e", "g", "h", "k", "m", "n", "q", "r", "s",
             "v", "w", "x", "y", "z")

# strong A1 on states(x: 3, y: 2), as frozen in the library's own tests
FROZEN_A1_X32 = {"input": 0, "state": (1, 0),
                 "lhs": (0, (0, 0)), "rhs": (0, (1, 0))}

# carrier sizes; the points each verify sweeps are recorded in baseline.json
SEVEN_EVEN = (6, 6, 6)
SEVEN_SKEWED = (10, 3, 2)
DUALITY_SIZES = (24, 24)
NESTING_SIZES = (2500, 1500)
EXC_LAW_SIZES = (5000, 5000, 5000)
DEEP_PASSING = 200
DEEP_FAILING = 1500
# single-point evals in script-mix; with the other 41 requests a pass holds
# 151, so the 50th, 95th and 99th percentiles fall inside one request's
# samples whatever the number of passes
STATES_EVALS = 55
EXCEPTIONS_EVALS = 53
BIG_SCRIPT_LINES = 2000
PROVE_ORDER = ("readback-same-1", "dual-readback-cross-1", "readback-cross-1",
               "dual-readback-same-1", "strong-a1", "readback-same-2",
               "dual-readback-cross-2", "readback-cross-2",
               "dual-readback-same-2", "bank", "readback-3loc")


@dataclass
class Request:
    """One request: a script for `decor MODE`, or a library call."""

    rid: str
    kind: str  # prove|check|lemma|verify|eval|translate|decls|library
    mode: Optional[str] = None
    text: Optional[str] = None
    expect: dict = field(default_factory=dict)
    call: Optional[Callable[[], Any]] = None
    path: Optional[str] = None


def _sized(names, sizes) -> str:
    return "(" + ", ".join(f"{n}: {s}" for n, s in zip(names, sizes)) + ")"


def _chain(atoms, render) -> str:
    """`g . f` runs f first, so the first-applied atom goes last."""
    return " . ".join(render(a) for a in reversed(atoms))


def _readback(j: str, i: str) -> str:
    return f"l[{j}] . (u[{i}] . l[{i}]) ~~ l[{j}]"


def _readback_dual(j: str, i: str) -> str:
    return f"t[{i}] . (c[{i}] . t[{j}]) ~~ t[{j}]"


def _prove(rid, decls, theory, goal, truth) -> Request:
    return Request(rid, "prove", "check",
                   f"{decls}prove in {theory} : {goal}\n",
                   {"truth": truth, "goal": goal, "decls": decls,
                    "theory": theory})


# ------------------------------------------------------------ prove-search

def prove_search(seed: int, lib) -> list[Request]:
    """Eleven saturation goals; true unless marked false by the axioms."""
    rng = random.Random(f"prove-search:{seed}")
    a, b = rng.sample(NAME_POOL, 2)
    s2 = f"theory S = states({a}: 2, {b}: 2)\n"
    d2 = s2 + "theory D = dual(S)\n"
    reqs = []
    pairs = (("same-1", a, a), ("same-2", b, b),
             ("cross-1", b, a), ("cross-2", a, b))
    for tag, j, i in pairs:
        reqs.append(_prove(f"readback-{tag}", s2, "S", _readback(j, i), True))
    for tag, j, i in pairs:
        reqs.append(_prove(f"dual-readback-{tag}", d2, "D",
                           _readback_dual(j, i), True))

    acct = rng.choice(NAME_POOL)
    k = rng.randrange(1, 12)
    table = ", ".join(str((v + k) % 12) for v in range(12))
    bank = (f"theory Acct = states({acct}: 12)\n"
            f"pure gen add{k} : V[{acct}] -> V[{acct}] in Acct = [{table}]\n")
    reqs.append(_prove("bank", bank, "Acct",
                       f"l[{acct}] . (u[{acct}] . (add{k} . l[{acct}])) ~~ "
                       f"add{k} . l[{acct}]", True))

    x = rng.choice((a, b))
    reqs.append(_prove("strong-a1", s2, "S", f"l[{x}] . u[{x}] == id[V[{x}]]",
                       False))

    names3 = rng.sample(NAME_POOL, 3)
    j, i = rng.sample(names3, 2)
    s3 = f"theory T = states{_sized(names3, (2, 2, 2))}\n"
    reqs.append(_prove("readback-3loc", s3, "T", _readback(j, i), True))
    # The median request is one of the two 13,000-fact dual searches.
    # Spread them and their like over the pass, so that their samples fall
    # at different times of a run and no slow spell of the host hits both.
    by_rid = {r.rid: r for r in reqs}
    return [by_rid[rid] for rid in PROVE_ORDER]


# ------------------------------------------------------------ oracle-sweep

def _verify(rid, decls, suite, theory) -> Request:
    return Request(rid, "verify", "verify",
                   f"{decls}verify {suite} in {theory}\n", {"suite": suite})


def oracle_sweep(seed: int, lib) -> list[Request]:
    """Law suites that must hold and false laws with fixed witnesses."""
    rng = random.Random(f"oracle-sweep:{seed}")
    reqs = []
    names = rng.sample(NAME_POOL, 3)
    reqs.append(_verify("states-seven-even", "theory S = states"
                        f"{_sized(names, SEVEN_EVEN)}\n", "states-seven", "S"))
    skewed = rng.sample(SEVEN_SKEWED, 3)
    reqs.append(_verify("states-seven-skewed", "theory S = states"
                        f"{_sized(names, skewed)}\n", "states-seven", "S"))
    two = rng.sample(NAME_POOL, 2)
    reqs.append(_verify("duality-semantic", "theory S = states"
                        f"{_sized(two, DUALITY_SIZES)}\n",
                        "duality-semantic", "S"))
    reqs.append(_verify("nesting-matrix", "theory E = exceptions"
                        f"{_sized(two, NESTING_SIZES)}\n",
                        "nesting-matrix", "E"))
    reqs.append(_verify("exceptions-laws", "theory E = exceptions"
                        f"{_sized(names, EXC_LAW_SIZES)}\n",
                        "exceptions-laws", "E"))
    reqs += _false_laws(rng, names, lib)
    return reqs


def _false_laws(rng, names, lib) -> list[Request]:
    """Library check_equation calls on laws the axioms do not give.

    Strong A1 and strong A2 fail on the states side (the update is seen
    in the final state), strong B1 on the exceptions side (a thrown i is
    caught on the left and passed on by id on the right).
    """
    T, M = lib.terms, lib.models
    out = []

    def states_case(rid, locs, sizes, lhs, rhs, dom, want=None):
        th = lib.states.build_states_theory("S", locs)
        model = M.FiniteStateModel(th, dict(zip(locs, sizes)))
        ref = StatesRef(locs, dict(zip(locs, sizes)), {})
        witness = ref.first_strong_difference(lhs, rhs, dom)
        if want is not None and witness != want:
            raise AssertionError(f"reference disagrees with frozen {rid}")
        eq = lib.theory.eq_strong(_states_term(T, lhs, dom),
                                  _states_term(T, rhs, dom))
        out.append(Request(rid, "library",
                           call=lambda: M.check_equation(model, eq, rid),
                           expect={"status": "fails", "witness": witness}))

    states_case("strong-a1-frozen", ("x", "y"), (3, 2),
                [("u", "x"), ("l", "x")], [], "x", FROZEN_A1_X32)
    i = rng.choice(names)
    states_case("strong-a1", tuple(names), SEVEN_EVEN,
                [("u", i), ("l", i)], [], i)
    i, j = rng.sample(names, 2)
    states_case("strong-a2", tuple(names), SEVEN_EVEN,
                [("u", i), ("l", j)], [("unit", i), ("l", j)], i)

    th = lib.exceptions.build_exceptions_theory("E", names)
    sizes = dict.fromkeys(names, 4)
    model = M.FiniteExceptionModel(th, sizes)
    k = rng.choice(names)
    witness = ExceptionsRef(names, sizes, {}).first_strong_difference(
        [("throw", k), ("catch", k)], [("id", k)], k)
    eq = lib.theory.eq_strong(lib.terms.comp(T.Catch(k), T.Throw(k)),
                              T.Id(lib.types.Param(k)))
    out.append(Request("strong-b1", "library",
                       call=lambda: M.check_equation(model, eq, "strong-b1"),
                       expect={"status": "fails", "witness": witness}))
    return out


def _states_term(T, atoms, dom):
    """Library term for a states chain; the empty chain is id[V[dom]]."""
    if not atoms:
        return T.Id(T.Value(dom))
    make = {"l": T.Lookup, "u": T.Update,
            "unit": lambda i: T.ToUnit(T.Value(i))}
    return T.comp(*(make[op](i) for op, i in reversed(atoms)))


# -------------------------------------------------------------- script-mix

def _render_states(atom) -> str:
    op = atom[0]
    if op in ("l", "u"):
        return f"{op}[{atom[1]}]"
    if op == "unit":
        return f"unit[V[{atom[1]}]]"
    return atom[1]


def _render_exc(atom) -> str:
    op = atom[0]
    if op == "gen":
        return atom[1]
    if op == "id":
        return f"id[P[{atom[1]}]]"
    if op == "raise":
        _, i, to = atom
        return f"raise({i})" if to == i else f"raise({i}, P[{to}])"
    _, body, clauses, style = atom
    arms = ", ".join(f"{k} => {_chain(cl, _render_exc)}" for k, cl in clauses)
    if style == "try":
        return f"(try {_chain(body, _render_exc)} catch ({arms}))"
    return f"handle({_chain(body, _render_exc)}, {arms})"


def _states_chain(rng, locs, gens_from, start, length):
    """A well-typed chain; `start` is None for 1 or a location for V[i]."""
    atoms, ty = [], start
    for _ in range(length):
        if ty is None:
            ty = rng.choice(locs)
            atoms.append(("l", ty))
            continue
        pick = rng.randrange(4)
        if pick == 0:
            atoms.append(("u", ty))
            ty = None
        elif pick == 1 and rng.random() < 0.3:
            atoms.append(("unit", ty))
            ty = None
        else:
            name = rng.choice(gens_from[ty])
            atoms.append(("gen", name))
            ty = name.rsplit("_", 1)[1]
    return atoms


def _exc_handler(rng, names, at, out, with_catch_all):
    """A handler P[at] -> P[out] whose body raises most of the time."""
    body, ty = [], at
    if rng.random() < 0.5:
        mid = rng.choice(names)
        body.append(("gen", f"h_{ty}_{mid}"))
        ty = mid
    if rng.random() < 0.75:
        body.append(("raise", ty, out))
    else:
        body.append(("gen", f"h_{ty}_{out}"))
    clauses = []
    for k in rng.sample(names, rng.randint(1, len(names) - 1)):
        arms = [[("gen", f"h_{k}_{out}")], [("raise", k, out)]]
        if k == out:
            arms.append([("id", k)])
        clauses.append((k, tuple(rng.choice(arms))))
    if with_catch_all:
        clauses.append(("_", (("gen", f"k_{out}"),)))
    return ("handle", tuple(body), tuple(clauses),
            rng.choice(("handle", "try")))


def _states_eval(rid, decls, ref, rng, atoms, start) -> Request:
    value = 0 if start is None else rng.randrange(ref.sizes[start])
    state = tuple(rng.randrange(ref.sizes[i]) for i in ref.locs)
    got_v, got_s = ref.run(atoms, () if start is None else value, state)
    text = (f"{decls}eval in S : {_chain(atoms, _render_states)} on {value} "
            f"state ({', '.join(map(str, state))})\n")
    return Request(rid, "eval", "eval", text,
                   {"results": [{"result": jsonable(got_v),
                                 "result_state": list(got_s)}]})


def _exc_eval(rid, decls, ref, atoms, inp) -> Request:
    tag, payload = inp
    on = str(payload) if tag == "val" else f"throw({payload[0]}: {payload[1]})"
    text = f"{decls}eval in E : {_chain(atoms, _render_exc)} on {on}\n"
    return Request(rid, "eval", "eval", text,
                   {"results": [{"result": jsonable(ref.run(atoms, inp))}]})


def _axioms_states(locs, kind):
    rows = [{"name": f"A1_{i}", "kind": kind, "lhs": f"l[{i}] . u[{i}]",
             "rhs": f"id[V[{i}]]"} for i in locs]
    rows += [{"name": f"A2_{i}_{j}", "kind": kind, "lhs": f"l[{j}] . u[{i}]",
              "rhs": f"l[{j}] . unit[V[{i}]]"}
             for i in locs for j in locs if j != i]
    return rows


def _axioms_exceptions(names, kind):
    rows = [{"name": f"B1_{i}", "kind": kind, "lhs": f"c[{i}] . t[{i}]",
             "rhs": f"id[P[{i}]]"} for i in names]
    rows += [{"name": f"B2_{i}_{j}", "kind": kind, "lhs": f"c[{i}] . t[{j}]",
              "rhs": f"empty[P[{i}]] . t[{j}]"}
             for i in names for j in names if j != i]
    return rows


def script_mix(seed: int, lib) -> list[Request]:
    """Many small scripts over every command, and one long script."""
    rng = random.Random(f"script-mix:{seed}")
    locs = rng.sample(NAME_POOL, 3)
    lsize = {i: rng.randint(2, 4) for i in locs}
    names = rng.sample(NAME_POOL, 3)
    xsize = {i: rng.randint(2, 4) for i in names}
    sgens = {f"f_{i}_{j}": (i, j, [rng.randrange(lsize[j])
                                   for _ in range(lsize[i])])
             for i in locs for j in locs}
    egens = {f"h_{i}_{j}": (i, j, [rng.randrange(xsize[j])
                                   for _ in range(xsize[i])])
             for i in names for j in names}
    egens.update({f"k_{i}": (None, i, [rng.randrange(xsize[i])])
                  for i in names})
    sref = StatesRef(locs, lsize, sgens)
    eref = ExceptionsRef(names, xsize, egens)
    s_th = f"theory S = states{_sized(locs, [lsize[i] for i in locs])}\n"
    e_th = f"theory E = exceptions{_sized(names, [xsize[i] for i in names])}\n"
    s_decls = s_th + "".join(
        f"pure gen {g} : V[{i}] -> V[{j}] in S = [{', '.join(map(str, t))}]\n"
        for g, (i, j, t) in sgens.items())
    e_decls = e_th + "".join(
        f"pure gen {g} : {'1' if i is None else f'P[{i}]'} -> P[{j}] in E = "
        f"[{', '.join(map(str, t))}]\n" for g, (i, j, t) in egens.items())
    gens_from = {i: [g for g, (a, _, _) in sgens.items() if a == i]
                 for i in locs}
    i, j = locs[0], locs[1]
    p, q = names[0], names[1]
    reqs: list[Request] = []

    # declarations only: nothing to run, the report lists no commands
    user_proof = (f"proof back in S {{ s1: axiom(A1_{i}); "
                  f"s2: w-sym from s1; }}\n")
    reqs.append(Request("decls-states", "decls", "check", s_decls
                        + f"term rt in S = l[{i}] . u[{i}]\n"
                        + f"equation e1 in S : l[{j}] . u[{i}] ~~ "
                          f"l[{j}] . unit[V[{i}]]\n"
                        + f"model small for S {_sized(locs, (2, 2, 2))}\n"
                        + user_proof))
    reqs.append(Request("decls-exceptions", "decls", "check", e_decls
                        + f"term rr in E = raise({p}, P[{q}])\n"
                        + f"model small for E {_sized(names, (2, 2, 2))}\n"))

    # kernel replay of user and built-in proofs
    reqs.append(Request("check-user-proof", "check", "check",
                        s_th + user_proof + "check proof back in S\n",
                        {"decls": s_th + user_proof, "theory": "S"}))
    for pr in ("pr1", "pr2", "pr3", "pr4", "pr5", "pr6", "pr7", "pr8"):
        reqs.append(Request(f"check-{pr}", "check", "check",
                            f"{s_th}check proof {pr} in S\n",
                            {"decls": s_th, "theory": "S"}))
    for br in ("bridge-r", "bridge-l"):
        reqs.append(Request(f"check-{br}", "check", "check",
                            f"{e_th}check proof {br} in E\n",
                            {"decls": e_th, "theory": "E"}))

    # lemma builders, then the kernel
    for lemma, args in (("annihilation", i), ("commutation-6", f"{i}, {j}"),
                        ("interaction-3", j),
                        ("final-uniqueness", f"unit[V[{i}]] . l[{i}]")):
        reqs.append(Request(f"lemma-{lemma}", "lemma", "verify",
                            f"{s_th}lemma {lemma}({args}) in S\n"))
    for lemma, args in (("key-annihilation", p), ("initial-uniqueness",
                                                  f"t[{q}] . empty[P[{q}]]"),
                        ("catch-throw", p), ("handler-commute", f"{p}, {q}"),
                        ("handler-idempotent", q)):
        reqs.append(Request(f"lemma-{lemma}", "lemma", "verify",
                            f"{e_th}lemma {lemma}({args}) in E\n"))

    # single-point evals on both sides
    for n in range(STATES_EVALS):
        start = rng.choice([None] + locs)
        atoms = _states_chain(rng, locs, gens_from, start, rng.randint(3, 8))
        reqs.append(_states_eval(f"eval-states-{n}", s_decls, sref, rng,
                                 atoms, start))
    for n in range(EXCEPTIONS_EVALS):
        at = rng.choice(names)
        atoms, ty = [], at
        if n % 2:
            nxt = rng.choice(names)
            atoms.append(("gen", f"h_{ty}_{nxt}"))
            ty = nxt
        out = rng.choice(names)
        catch_all = n % 3 == 2
        atoms.append(_exc_handler(rng, names, ty, out, catch_all))
        decls = (e_decls.replace("\n", " with catchall\n", 1) if catch_all
                 else e_decls)
        reqs.append(_exc_eval(f"eval-exceptions-{n}", decls, eref, atoms,
                              ("val", rng.randrange(xsize[at]))))
    reqs.append(_exc_eval("eval-exceptions-thrown", e_decls, eref,
                          [("raise", p, q)], ("exc", (q, xsize[q] - 1))))
    reqs.append(_exc_eval("eval-exceptions-thrown-handler", e_decls, eref,
                          [_exc_handler(rng, names, p, q, False)],
                          ("exc", (p, 0))))
    for size, tag in ((DEEP_PASSING, "deep"), (DEEP_FAILING, "deeper")):
        atoms = _states_chain(rng, locs, gens_from, None, size)
        reqs.append(_states_eval(f"eval-states-{tag}-{size}", s_decls, sref,
                                 rng, atoms, None))
        atoms, ty = [], p
        for _ in range(size):
            if rng.random() < 0.2:
                atoms.append(("id", ty))
            else:
                nxt = rng.choice(names)
                atoms.append(("gen", f"h_{ty}_{nxt}"))
                ty = nxt
        reqs.append(_exc_eval(f"eval-exceptions-{tag}-{size}", e_decls, eref,
                              atoms, ("val", rng.randrange(xsize[p]))))

    # the three translators on both theories
    for th_text, th, idx, sizes, flavor in (
            (s_th, "S", locs, lsize, "states"),
            (e_th, "E", names, xsize, "exceptions")):
        sized = _sized(idx, [sizes[n] for n in idx])
        own = (_axioms_states if flavor == "states" else _axioms_exceptions)
        dual = (_axioms_exceptions if flavor == "states" else _axioms_states)
        other = "exceptions" if flavor == "states" else "states"
        reqs.append(Request(f"erase-{flavor}", "translate", "erase",
                            f"{th_text}erase {th}\n",
                            {"dsl": f"theory {th}-plain = plain-{flavor}"
                                    f"{sized}",
                             "axioms": own(idx, "strong")}))
        reqs.append(Request(f"expand-{flavor}", "translate", "expand",
                            f"{th_text}expand {th}\n",
                            {"collapses": [r["name"]
                                           for r in own(idx, "weak")]}))
        reqs.append(Request(f"dualize-{flavor}", "translate", "dualize",
                            f"{th_text}dualize {th}\n",
                            {"dsl": f"theory {th}-dual = {other}{sized}",
                             "axioms": dual(idx, "weak")}))

    # prove goals the search closes by round 1
    d_th = s_th + "theory D = dual(S)\n"
    reqs.append(_prove("prove-readback", s_th, "S", _readback(i, i), True))
    reqs.append(_prove("prove-dual-readback", d_th, "D",
                       _readback_dual(j, j), True))
    g = f"f_{i}_{i}"
    reqs.append(_prove("prove-deposit", s_decls, "S",
                       f"l[{i}] . (u[{i}] . ({g} . l[{i}])) ~~ {g} . l[{i}]",
                       True))
    reqs.append(_prove("prove-write-back", s_th, "S",
                       f"u[{j}] . (l[{j}] . u[{j}]) ~~ u[{j}]", True))

    # the law suites on size-2 models
    s2 = f"theory S = states{_sized(locs[:2], (2, 2))}\n"
    e2 = f"theory E = exceptions{_sized(names[:2], (2, 2))}\n"
    reqs.append(_verify("verify-states-seven", s2, "states-seven", "S"))
    reqs.append(_verify("verify-duality-semantic", s2, "duality-semantic",
                        "S"))
    reqs.append(_verify("verify-exceptions-laws", e2, "exceptions-laws", "E"))
    reqs.append(_verify("verify-nesting-matrix", e2, "nesting-matrix", "E"))

    reqs.append(_big_script(rng, s_decls, sref, locs, gens_from))
    return reqs


def _big_script(rng, s_decls, ref, locs, gens_from) -> Request:
    """Term declarations and evals of them, BIG_SCRIPT_LINES lines in all."""
    lines = s_decls.splitlines()
    results = []
    n = 0
    while len(lines) + 2 <= BIG_SCRIPT_LINES:
        start = rng.choice([None] + list(locs))
        atoms = _states_chain(rng, locs, gens_from, start, rng.randint(1, 6))
        value = 0 if start is None else rng.randrange(ref.sizes[start])
        state = tuple(rng.randrange(ref.sizes[i]) for i in locs)
        got_v, got_s = ref.run(atoms, () if start is None else value, state)
        lines.append(f"term w{n} in S = {_chain(atoms, _render_states)}")
        lines.append(f"eval in S : w{n} on {value} "
                     f"state ({', '.join(map(str, state))})")
        results.append({"result": jsonable(got_v),
                        "result_state": list(got_s)})
        n += 1
    return Request("big-script", "eval", "eval", "\n".join(lines) + "\n",
                   {"results": results})


BUILDERS = {"prove-search": prove_search, "oracle-sweep": oracle_sweep,
            "script-mix": script_mix}
