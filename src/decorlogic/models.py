"""Finite models: the semantic oracle.

A model fixes a finite carrier for every base type and interprets terms as
actual functions, by exhaustive enumeration:

* states side: a term X -> Y runs as (x, state) -> (y, state'), where a state
  is a tuple of stored values in location order;
* exceptions side: a term X -> Y runs on tagged inputs ('val', x) or
  ('exc', (name, arg)) and returns the same shape; level <= 1 terms always
  propagate exceptional inputs unchanged.

`check_equation` decides strong equations by comparing full outcomes on every
input, weak ones by comparing result values only (states) or ordinary inputs
only (exceptions). Everything is deterministic; enumeration order is
documented by the carrier builders below, so counterexample witnesses are
stable and can be frozen into tests.

`eval_states` and `eval_exceptions` walk the term tree for one input; they
serve single evaluations and are the reference semantics. `check_equation`
instead compiles each side once into an integer transition table (see
`_StateTables` and `_ExceptionTables`): a term X -> Y becomes a list that
maps the number of every input to the number of its outcome, so composition
g . f is `g[f[p]]` and an equation is decided by comparing two lists.

Only the locations or exception names an equation mentions are enumerated
(its footprint); the others pass through both sides unchanged, so no point
that differs from a checked one only outside the footprint can fail:

* states side: without a `tuple(...)`, the locations its l[i]/u[i] name,
  the other locations held at 0;
* exceptions side: without a `cotuple(...)` or `catchall`, the exceptional
  inputs of the names its t[i]/c[i] name.

The first failing point in enumeration order, and so the witness, is the
same as in the full enumeration. `LawResult.points` and the search-space
bound still count the full enumeration. Terms the tables do not cover
(a theory's typecheck refuses them, or a generator has no usable table) are
decided by `sweep_equation`, the interpreter point by point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import add
from typing import Any, Mapping, Optional, Sequence

from . import errors as E
from .terms import (
    EXCEPTIONS, STATES, CaseSum, Catch, CatchAll, Coerce, Comp, ConstCotuple,
    FromEmpty, Gen, Id, Inj1, Inj2, LocTuple, Lookup, PropCase, Proj1, Proj2,
    SemiCoprod, SemiProd, Side, Term, ToUnit, Throw, Update, factors, subterms,
)
from .theory import Equation, STRONG, Theory, eq_strong, typecheck_equation
from .types import Coprod, Empty, Named, Param, Prod, TypeExpr, Unit, Value

DEFAULT_BOUND = 10_000_000


@dataclass(frozen=True)
class Valuation:
    """Interpretations for the symbols a theory leaves open.

    base: carrier sizes for Named types. tables: for each pure generator, the
    output value at each domain element, indexed in enumeration order.
    """

    base: Mapping[str, int] = field(default_factory=dict)
    tables: Mapping[str, Sequence[Any]] = field(default_factory=dict)


class _Model:
    side: Side  # the side whose theories the model interprets

    def __init__(self, theory: Theory, sizes: Mapping[str, int],
                 valuation: Optional[Valuation] = None,
                 bound: int = DEFAULT_BOUND):
        side = self.side
        if theory.flavor != side.flavor:
            raise E.ModelError(f"{type(self).__name__} needs {side.a_theory}")
        missing = set(side.indices(theory)) - set(sizes)
        if missing:
            raise E.CarrierMissing(
                f"no sizes for {side.index_word}s {sorted(missing)}")
        self.theory = theory
        self.sizes = dict(sizes)
        self.valuation = valuation or Valuation()
        self.bound = bound
        self._carriers: dict[TypeExpr, list] = {}
        self._positions: dict[TypeExpr, dict] = {}
        for n in self.sizes.values():
            if n < 1:
                raise E.ModelError("carriers must be non-empty")

    # ---- carriers -------------------------------------------------

    def carrier(self, ty: TypeExpr) -> list:
        """Enumerate ty: ints count up, pairs nest left-outer, sums list
        left then right with 'l'/'r' tags."""
        if ty in self._carriers:
            return self._carriers[ty]
        if isinstance(ty, Unit):
            out = [()]
        elif isinstance(ty, Empty):
            out = []
        elif isinstance(ty, (Value, Param)):
            if ty.index not in self.sizes:
                raise E.CarrierMissing(f"no size for index {ty.index!r}")
            out = list(range(self.sizes[ty.index]))
        elif isinstance(ty, Named):
            if ty.name not in self.valuation.base:
                raise E.CarrierMissing(f"no carrier for base type {ty.name!r}")
            out = list(range(self.valuation.base[ty.name]))
        elif isinstance(ty, Prod):
            out = [(a, b) for a in self.carrier(ty.left)
                   for b in self.carrier(ty.right)]
        elif isinstance(ty, Coprod):
            out = ([("l", a) for a in self.carrier(ty.left)]
                   + [("r", b) for b in self.carrier(ty.right)])
        else:
            raise TypeError(f"not a type: {ty!r}")
        self._carriers[ty] = out
        return out

    def carrier_size(self, ty: TypeExpr) -> int:
        """len(self.carrier(ty)), worked out from ty's shape and the sizes
        without building the carrier; raises where `carrier` raises."""
        if isinstance(ty, Prod):
            # carrier never reaches the right factor of an empty left one
            n = self.carrier_size(ty.left)
            return n * self.carrier_size(ty.right) if n else 0
        if isinstance(ty, Coprod):
            return self.carrier_size(ty.left) + self.carrier_size(ty.right)
        if isinstance(ty, (Value, Param)) and ty.index in self.sizes:
            return self.sizes[ty.index]
        if isinstance(ty, Named) and ty.name in self.valuation.base:
            return self.valuation.base[ty.name]
        return len(self.carrier(ty))  # 1 or 0, or CarrierMissing

    def positions(self, ty: TypeExpr) -> dict:
        """The enumeration position of every element of ty's carrier."""
        at = self._positions.get(ty)
        if at is None:
            at = self._positions[ty] = {v: k for k, v in
                                        enumerate(self.carrier(ty))}
        return at

    def gen_table(self, g: Gen) -> Sequence[Any]:
        """g's outputs in the enumeration order of its domain."""
        if g.dec != 0:
            raise E.NoInterpretation(
                f"generator {g.name!r} has level {g.dec}; only pure generators "
                f"can be interpreted by tables")
        if g.name not in self.valuation.tables:
            raise E.NoInterpretation(f"no table for generator {g.name!r}")
        table = self.valuation.tables[g.name]
        domain = self.carrier(g.dom)
        if len(table) != len(domain):
            raise E.ModelError(
                f"table for {g.name!r} has {len(table)} entries, "
                f"domain has {len(domain)}")
        return table

    def _gen_apply(self, g: Gen, x: Any) -> Any:
        return self.gen_table(g)[self.positions(g.dom)[x]]

    def describe(self) -> dict:
        return {"theory": self.theory.name, "sizes": dict(self.sizes)}


class FiniteStateModel(_Model):
    """Finite model of a states theory: one size per location."""

    side = STATES

    def states(self) -> list[tuple]:
        """All states, lexicographic in location order."""
        axes = [range(self.sizes[i]) for i in self.theory.locations]
        return list(itertools.product(*axes))

    def loc_pos(self, index: str) -> int:
        return self.theory.locations.index(index)


class FiniteExceptionModel(_Model):
    """Finite model of an exceptions theory: one size per exception name."""

    side = EXCEPTIONS

    def exceptions(self) -> list[tuple]:
        """All exceptional outcomes (name, arg), names in theory order."""
        return [(i, a) for i in self.theory.constructors
                for a in range(self.sizes[i])]


# ------------------------------------------------------------ evaluation

def eval_states(model: FiniteStateModel, t: Term, value: Any, state: tuple
                ) -> tuple[Any, tuple]:
    """Run t on (value, state); returns (result, new state)."""
    for f in factors(t):
        value, state = _step_states(model, f, value, state)
    return value, state


def _step_states(model: FiniteStateModel, t: Term, value: Any, state: tuple
                 ) -> tuple[Any, tuple]:
    """eval_states on a term that is not a composite."""
    if isinstance(t, Id):
        return value, state
    if isinstance(t, ToUnit):
        return (), state
    if isinstance(t, Proj1):
        return value[0], state
    if isinstance(t, Proj2):
        return value[1], state
    if isinstance(t, Lookup):
        return state[model.loc_pos(t.index)], state
    if isinstance(t, Update):
        pos = model.loc_pos(t.index)
        return (), state[:pos] + (value,) + state[pos + 1:]
    if isinstance(t, Gen):
        return model._gen_apply(t, value), state
    if isinstance(t, SemiProd):
        a, b = value
        if t.pure_on_left:
            pa, _ = eval_states(model, t.pure, a, state)
            eb, st = eval_states(model, t.eff, b, state)
            return (pa, eb), st
        ea, st = eval_states(model, t.eff, a, state)
        pb, _ = eval_states(model, t.pure, b, state)
        return (ea, pb), st
    if isinstance(t, LocTuple):
        # every component observes the *incoming* state; together they
        # determine the whole new state
        new = tuple(eval_states(model, f, value, state)[0]
                    for _, f in t.components)
        return (), new
    raise E.ModelError(f"{type(t).__name__} cannot run on the states side")


ExcVal = tuple  # ('val', x) | ('exc', (name, arg))


def eval_exceptions(model: FiniteExceptionModel, t: Term, inp: ExcVal) -> ExcVal:
    """Run t on a tagged input, total over ordinary and exceptional inputs."""
    for f in factors(t):
        inp = _step_exceptions(model, f, inp)
    return inp


def _step_exceptions(model: FiniteExceptionModel, t: Term, inp: ExcVal
                     ) -> ExcVal:
    """eval_exceptions on a term that is not a composite."""
    tag, payload = inp
    if tag == "exc":
        name, arg = payload
        if isinstance(t, Catch):
            return ("val", arg) if name == t.index else inp
        if isinstance(t, CatchAll):
            return ("val", ())
        if isinstance(t, ConstCotuple):
            comp_map = dict(t.components)
            return eval_exceptions(model, comp_map[name], ("val", arg))
        if isinstance(t, CaseSum):
            return eval_exceptions(model, t.on_empty, inp)
        if isinstance(t, SemiCoprod):
            r = eval_exceptions(model, t.eff, inp)
            if r[0] == "exc":
                return r
            return ("val", ("r" if t.pure_on_left else "l", r[1]))
        # Id, injections, pure maps, Gen, Throw, PropCase, Coerce: propagate
        return inp

    x = payload
    if isinstance(t, Id):
        return inp
    if isinstance(t, ToUnit):
        return ("val", ())
    if isinstance(t, FromEmpty):
        raise E.ModelError("ordinary input of empty type cannot exist")
    if isinstance(t, Inj1):
        return ("val", ("l", x))
    if isinstance(t, Inj2):
        return ("val", ("r", x))
    if isinstance(t, Throw):
        return ("exc", (t.index, x))
    if isinstance(t, (Catch, CatchAll, ConstCotuple)):
        raise E.ModelError("ordinary input of empty type cannot exist")
    if isinstance(t, Gen):
        return ("val", model._gen_apply(t, x))
    if isinstance(t, SemiCoprod):
        side, v = x
        pure_side = "l" if t.pure_on_left else "r"
        if side == pure_side:
            r = eval_exceptions(model, t.pure, ("val", v))
            return ("val", (side, r[1]))
        r = eval_exceptions(model, t.eff, ("val", v))
        if r[0] == "exc":
            return r
        return ("val", (side, r[1]))
    if isinstance(t, CaseSum):
        return eval_exceptions(model, t.on_value, inp)
    if isinstance(t, PropCase):
        side, v = x
        branch = t.on_left if side == "l" else t.on_right
        return eval_exceptions(model, branch, ("val", v))
    if isinstance(t, Coerce):
        return eval_exceptions(model, t.inner, inp)
    raise E.ModelError(f"{type(t).__name__} cannot run on the exceptions side")


def observational_equiv(model: FiniteStateModel, s1: tuple, s2: tuple) -> bool:
    """States are indistinguishable iff every lookup agrees on them."""
    for i in model.theory.locations:
        v1, _ = eval_states(model, Lookup(i), (), s1)
        v2, _ = eval_states(model, Lookup(i), (), s2)
        if v1 != v2:
            return False
    return True


# ------------------------------------------------------ transition tables

class _Tables:
    """Compiles terms of one model into integer transition tables.

    A table is a list with one entry per input of the term's domain,
    holding the number of the outcome; subclasses fix the numbering.
    """

    def __init__(self, model: _Model):
        self.model = model
        self._built: dict[Term, list[int]] = {}

    def size(self, ty: TypeExpr) -> int:
        return len(self.model.carrier(ty))

    def table(self, t: Term) -> list[int]:
        """t's table; built once, since both sides share subterms."""
        if t not in self._built:
            if isinstance(t, Comp):
                after = self.table(t.after)
                self._built[t] = [after[p] for p in self.table(t.before)]
            else:
                self._built[t] = self._atom(t)
        return self._built[t]

    def _gen(self, g: Gen) -> list[int]:
        """g's table as positions in its codomain's carrier; a codomain
        over the model's bound is refused before its carrier is built."""
        if self.model.carrier_size(g.cod) > self.model.bound:
            raise E.SearchSpaceTooLarge(
                f"codomain of {g.name!r} exceeds bound {self.model.bound}")
        at = self.model.positions(g.cod)
        try:
            return [at[v] for v in self.model.gen_table(g)]
        except (KeyError, TypeError):
            raise E.ModelError(
                f"table for {g.name!r} has outputs outside {g.cod}") from None

    def _atom(self, t: Term) -> list[int]:
        raise NotImplementedError


class _StateTables(_Tables):
    """States terms over the locations `locs`.

    The states of `locs` are numbered lexicographically, n of them; point
    x*n + s stands for the x-th domain element in the s-th state, and the
    table maps it to the point y*n + s' of the outcome.
    """

    def __init__(self, model: FiniteStateModel, locs: Sequence[str]):
        super().__init__(model)
        self.n = math.prod(model.sizes[i] for i in locs)
        self.stride: dict[str, int] = {}
        step = self.n
        for i in locs:
            step //= model.sizes[i]
            self.stride[i] = step

    def state(self, s: int) -> tuple:
        """State number s, with every location outside `locs` at 0."""
        sizes = self.model.sizes
        return tuple(s // self.stride[i] % sizes[i] if i in self.stride else 0
                     for i in self.model.theory.locations)

    def outcome(self, p: int, car: list) -> tuple:
        return car[p // self.n], self.state(p % self.n)

    def observed(self, t: list[int], strong: bool, nx: int) -> list[int]:
        return t if strong else [p // self.n for p in t]

    def witness(self, p: int, o1: int, o2: int, dcar: list, ycar: list) -> dict:
        x, s = self.outcome(p, dcar)
        return {"input": x, "state": s, "lhs": self.outcome(o1, ycar),
                "rhs": self.outcome(o2, ycar)}

    def _atom(self, t: Term) -> list[int]:
        n, size = self.n, self.size
        if isinstance(t, Id):
            return list(range(size(t.at) * n))
        if isinstance(t, ToUnit):
            return list(range(n)) * size(t.frm)
        if isinstance(t, Proj1):
            nb = size(t.right)
            return [p for a in range(size(t.left)) for _ in range(nb)
                    for p in range(a * n, a * n + n)]
        if isinstance(t, Proj2):
            return list(range(size(t.right) * n)) * size(t.left)
        if isinstance(t, Lookup):
            step, k = self.stride[t.index], self.model.sizes[t.index]
            return [s // step % k * n + s for s in range(n)]
        if isinstance(t, Update):
            step, k = self.stride[t.index], self.model.sizes[t.index]
            cleared = [s - s // step % k * step for s in range(n)]
            return [c + v * step for v in range(k) for c in cleared]
        if isinstance(t, Gen):
            return [p for y in self._gen(t) for p in range(y * n, y * n + n)]
        if isinstance(t, SemiProd):
            return self._semi(t)
        if isinstance(t, LocTuple):
            cols = [self.table(f) for _, f in t.components]
            steps = [self.stride[i] for i, _ in t.components]
            return [sum(p // n * step for p, step in zip(ps, steps))
                    for ps in zip(*cols)]
        raise E.ModelError(f"{type(t).__name__} cannot run on the states side")

    def _semi(self, t: SemiProd) -> list[int]:
        """((a, b), s) -> ((a', b'), s''): the pure factor's value at s,
        the effectful factor's value and state."""
        n, size = self.n, self.size
        pure, eff = self.table(t.pure), self.table(t.eff)
        out: list[int] = []
        if t.pure_on_left:
            width = size(t.eff.cod) * n
            for a in range(size(t.pure.dom)):
                row = [p // n * width for p in pure[a * n:a * n + n]]
                for b in range(size(t.eff.dom)):
                    out += map(add, row, eff[b * n:b * n + n])
            return out
        width = size(t.pure.cod) * n
        rows = [[p // n * n for p in pure[b * n:b * n + n]]
                for b in range(size(t.pure.dom))]
        for a in range(size(t.eff.dom)):
            row = [p // n * width + p % n for p in eff[a * n:a * n + n]]
            for pr in rows:
                out += map(add, row, pr)
        return out


class _ExceptionTables(_Tables):
    """Exceptions terms over the exception names `names`.

    Input number k of a term X -> Y is the k-th element of X, as an
    ordinary value, while k < |X|, and the (k - |X|)-th exceptional input
    after that (names in theory order, `names` only, payloads counting
    up); outcomes in Y are numbered alike.
    """

    def __init__(self, model: FiniteExceptionModel, names: Sequence[str]):
        super().__init__(model)
        self.offset: dict[str, int] = {}
        self.k = 0
        for i in names:
            self.offset[i] = self.k
            self.k += model.sizes[i]

    def outcome(self, p: int, car: list) -> tuple:
        if p < len(car):
            return ("val", car[p])
        e = p - len(car)
        i, at = next((i, at) for i, at in reversed(self.offset.items())
                     if e >= at)
        return ("exc", (i, e - at))

    def observed(self, t: list[int], strong: bool, nx: int) -> list[int]:
        return t if strong else t[:nx]

    def witness(self, p: int, o1: int, o2: int, dcar: list, ycar: list) -> dict:
        return {"input": self.outcome(p, dcar), "lhs": self.outcome(o1, ycar),
                "rhs": self.outcome(o2, ycar)}

    def passed(self, ny: int) -> list[int]:
        """Every exceptional input, propagated into a codomain of ny values."""
        return list(range(ny, ny + self.k))

    def _atom(self, t: Term) -> list[int]:
        size, k = self.size, self.k
        if isinstance(t, Id):
            return list(range(size(t.at) + k))
        if isinstance(t, ToUnit):
            return [0] * size(t.frm) + self.passed(1)
        if isinstance(t, FromEmpty):
            return self.passed(size(t.to))
        if isinstance(t, (Inj1, Inj2)):
            na, nb = size(t.left), size(t.right)
            vals = range(na) if isinstance(t, Inj1) else range(na, na + nb)
            return list(vals) + self.passed(na + nb)
        if isinstance(t, Throw):
            at = self.offset[t.index]
            return list(range(at, at + self.model.sizes[t.index])) + list(range(k))
        if isinstance(t, Catch):
            at, ni = self.offset[t.index], self.model.sizes[t.index]
            return (list(range(ni, ni + at)) + list(range(ni))
                    + list(range(ni + at + ni, ni + k)))
        if isinstance(t, CatchAll):
            return [0] * k
        if isinstance(t, Gen):
            return self._gen(t) + self.passed(size(t.cod))
        if isinstance(t, SemiCoprod):
            return self._semi(t)
        if isinstance(t, ConstCotuple):
            out: list[int] = []
            for i, f in t.components:
                out += self.table(f)[:self.model.sizes[i]]
            return out
        if isinstance(t, CaseSum):
            nx = size(t.on_value.dom)
            return self.table(t.on_value)[:nx] + self.table(t.on_empty)
        if isinstance(t, PropCase):
            na, nb = size(t.on_left.dom), size(t.on_right.dom)
            return (self.table(t.on_left)[:na] + self.table(t.on_right)[:nb]
                    + self.passed(size(t.on_left.cod)))
        if isinstance(t, Coerce):
            nx = size(t.inner.dom)
            return self.table(t.inner)[:nx] + self.passed(size(t.inner.cod))
        raise E.ModelError(f"{type(t).__name__} cannot run on the exceptions side")

    def _semi(self, t: SemiCoprod) -> list[int]:
        """The pure branch's value, or the effectful branch's outcome;
        exceptional inputs run the effectful branch."""
        size = self.size
        pure, eff = self.table(t.pure), self.table(t.eff)
        if t.pure_on_left:
            # outcome o of eff lands at o + |A'|, whether value or exception
            shift = size(t.pure.cod)
            return pure[:size(t.pure.dom)] + [o + shift for o in eff]
        na, nb = size(t.eff.dom), size(t.pure.dom)
        na2, nb2 = size(t.eff.cod), size(t.pure.cod)
        left = [o if o < na2 else o + nb2 for o in eff]
        return left[:na] + [na2 + p for p in pure[:nb]] + left[na:]


# ---------------------------------------------------------------- checks

@dataclass(frozen=True)
class LawResult:
    name: str
    status: str  # 'holds' | 'fails'
    witness: Optional[dict]
    points: int

    @property
    def holds(self) -> bool:
        return self.status == "holds"


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    results: tuple[LawResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.holds for r in self.results)


def _footprint(eq: Equation, indices: Sequence[str], keyed: tuple,
               whole: tuple) -> tuple[str, ...]:
    """The indices eq names through `keyed` atoms, in theory order; all of
    them if a `whole` atom occurs, since that one reaches every index."""
    named = set()
    for t in itertools.chain(subterms(eq.lhs), subterms(eq.rhs)):
        if isinstance(t, whole):
            return tuple(indices)
        if isinstance(t, keyed):
            named.add(t.index)
    return tuple(i for i in indices if i in named)


def _points(model: _Model, eq: Equation) -> tuple[list, int]:
    """The domain's carrier and the size of the full enumeration; the size
    is checked against the bound before the carrier is built."""
    total = model.carrier_size(eq.lhs.dom)
    if isinstance(model, FiniteStateModel):
        total *= math.prod(model.sizes[i] for i in model.theory.locations)
    elif isinstance(model, FiniteExceptionModel):
        if eq.kind == STRONG:
            total += sum(model.sizes[i] for i in model.theory.constructors)
    else:
        raise E.ModelError("unknown model kind")
    if total > model.bound:
        raise E.SearchSpaceTooLarge(f"{total} points exceeds bound {model.bound}")
    return model.carrier(eq.lhs.dom), total


def check_equation(model: _Model, eq: Equation, name: str = "") -> LawResult:
    """Exhaustively decide eq in the model.

    States: strong compares (value, state') on every (input, state), weak
    compares values only. Exceptions: strong runs exceptional inputs too,
    weak only ordinary ones; outputs always compared in full.

    Both sides are compiled into transition tables over eq's footprint
    (see the module docstring) and compared whole; only on a mismatch is
    the first differing point looked for and decoded into the witness,
    the same one `sweep_equation` gives. `points` counts the full
    enumeration, footprint or not.
    """
    dcar, total = _points(model, eq)
    try:
        typecheck_equation(model.theory, eq)
        if isinstance(model, FiniteStateModel):
            tabs = _StateTables(model, _footprint(
                eq, model.theory.locations, (Lookup, Update), (LocTuple,)))
        else:
            tabs = _ExceptionTables(model, _footprint(
                eq, model.theory.constructors, (Throw, Catch),
                (ConstCotuple, CatchAll)))
        t1, t2 = tabs.table(eq.lhs), tabs.table(eq.rhs)
        ycar = model.carrier(eq.lhs.cod)
    except E.DecorError:
        # the theory's typecheck refuses eq, or a carrier or a generator's
        # table is missing: the interpreter decides, and raises where it
        # raises
        return sweep_equation(model, eq, name)
    strong = eq.kind == STRONG
    v1 = tabs.observed(t1, strong, len(dcar))
    v2 = tabs.observed(t2, strong, len(dcar))
    if v1 == v2:
        return LawResult(name, "holds", None, total)
    p = next(p for p, (a, b) in enumerate(zip(v1, v2)) if a != b)
    return LawResult(name, "fails",
                     tabs.witness(p, t1[p], t2[p], dcar, ycar), total)


def sweep_equation(model: _Model, eq: Equation, name: str = "") -> LawResult:
    """check_equation by running the interpreter on every point in turn.

    The reference the tables are tested against; check_equation falls
    back on it for terms the tables do not cover, so that an error is
    raised at the same point as here.
    """
    dcar, total = _points(model, eq)
    if isinstance(model, FiniteStateModel):
        states = model.states()
        for x in dcar:
            for s in states:
                r1 = eval_states(model, eq.lhs, x, s)
                r2 = eval_states(model, eq.rhs, x, s)
                same = (r1 == r2) if eq.kind == STRONG else (r1[0] == r2[0])
                if not same:
                    return LawResult(name, "fails", {
                        "input": x, "state": s,
                        "lhs": r1, "rhs": r2}, total)
        return LawResult(name, "holds", None, total)

    inputs: list[ExcVal] = [("val", x) for x in dcar]
    if eq.kind == STRONG:
        inputs += [("exc", e) for e in model.exceptions()]
    for inp in inputs:
        r1 = eval_exceptions(model, eq.lhs, inp)
        r2 = eval_exceptions(model, eq.rhs, inp)
        if r1 != r2:
            return LawResult(name, "fails", {
                "input": inp, "lhs": r1, "rhs": r2}, total)
    return LawResult(name, "holds", None, total)


# ---------------------------------------------------------------- suites

def verify_law_suite(model: _Model, suite: str) -> SuiteReport:
    if suite not in SUITES:
        raise E.SuiteUnknown(f"no suite named {suite!r}")
    return SUITES[suite](model)


def _suite_states_seven(model: FiniteStateModel) -> SuiteReport:
    from .states import seven_equation_goals

    if not isinstance(model, FiniteStateModel):
        raise E.ModelError("states-seven runs on a states model")
    results = []
    for goal in seven_equation_goals(model.theory):
        results.append(check_equation(model, goal.direct, goal.name))
        for obs_name, obs_eq in goal.observations:
            results.append(check_equation(model, obs_eq, obs_name))
    return SuiteReport("states-seven", tuple(results))


def _suite_exceptions_laws(model: FiniteExceptionModel) -> SuiteReport:
    from .exceptions import (catch_equation, handler_commute_equation,
                             handler_idempotent_equation, key_annihilation_equation,
                             raise_term)

    if not isinstance(model, FiniteExceptionModel):
        raise E.ModelError("exceptions-laws runs on an exceptions model")
    th = model.theory
    results = []
    for ax in th.axioms:
        results.append(check_equation(model, ax.eq, ax.name))
    for i in th.constructors:
        results.append(check_equation(
            model, key_annihilation_equation(th, i), f"annihilation[{i}]"))
        results.append(check_equation(
            model, catch_equation(th, i), f"catch-throw[{i}]"))
        results.append(check_equation(
            model, eq_strong(raise_term(th, i, Empty()), Throw(i)),
            f"raise-is-throw[{i}]"))
        results.append(check_equation(
            model, handler_idempotent_equation(th, i), f"handler-idempotent[{i}]"))
    for i in th.constructors:
        for j in th.constructors:
            if i != j:
                results.append(check_equation(
                    model, handler_commute_equation(th, i, j),
                    f"handler-commute[{i},{j}]"))
    return SuiteReport("exceptions-laws", tuple(results))


def _suite_nesting(model: FiniteExceptionModel) -> SuiteReport:
    """The three ways to nest two catch clauses genuinely differ.

    With f raising i and the i-clause g raising j: the flat handler lets g's
    exception escape while both nested forms catch it; with f raising j, the
    nested-inside-clause form misses it while the other two catch it. The
    suite pins the full expected outcome of each of the six runs.
    """
    from .exceptions import handle_term, raise_term

    if not isinstance(model, FiniteExceptionModel):
        raise E.ModelError("nesting-matrix runs on an exceptions model")
    th = model.theory
    if len(th.constructors) < 2:
        raise E.BadParams("nesting-matrix needs at least two exception names")
    i, j = th.constructors[0], th.constructors[1]
    ni, nj = model.sizes[i], model.sizes[j]

    cast = Gen("nest_cast", Param(i), Param(j), 0)
    th2 = th.with_gen(cast)
    val = Valuation(base=dict(model.valuation.base),
                    tables={**dict(model.valuation.tables),
                            "nest_cast": tuple(a % nj for a in range(ni))})
    m2 = FiniteExceptionModel(th2, model.sizes, val, model.bound)

    y = Param(j)
    f_a = raise_term(th2, i, y)                      # P[i] -> P[j], raises i
    f_b = Comp(raise_term(th2, j, y), cast)          # raises j instead
    g = Comp(raise_term(th2, j, y), cast)            # i-clause that re-raises as j
    h = Id(y)                                        # j-clause that recovers

    n1_a = handle_term(th2, f_a, [(i, g), (j, h)]).term
    n2_a = handle_term(th2, handle_term(th2, f_a, [(i, g)]).term, [(j, h)]).term
    inner_clause = handle_term(th2, g, [(j, h)]).term
    n3_a = handle_term(th2, f_a, [(i, inner_clause)]).term
    n1_b = handle_term(th2, f_b, [(i, g), (j, h)]).term
    n2_b = handle_term(th2, handle_term(th2, f_b, [(i, g)]).term, [(j, h)]).term
    n3_b = handle_term(th2, f_b, [(i, inner_clause)]).term

    # every run throws and catches only i and j
    tabs = _ExceptionTables(m2, (i, j))
    ycar = m2.carrier(y)

    def expect(nm: str, term: Term, want) -> LawResult:
        table = tabs.table(term)
        for a in range(ni):
            got = tabs.outcome(table[a], ycar)
            if got != want(a):
                return LawResult(nm, "fails", {
                    "input": ("val", a), "got": got, "want": want(a)}, a + 1)
        return LawResult(nm, "holds", None, ni)

    c = lambda a: a % nj
    results = (
        expect("a/flat-escapes", n1_a, lambda a: ("exc", (j, c(a)))),
        expect("a/seq-catches", n2_a, lambda a: ("val", c(a))),
        expect("a/clause-catches", n3_a, lambda a: ("val", c(a))),
        expect("b/flat-catches", n1_b, lambda a: ("val", c(a))),
        expect("b/seq-catches", n2_b, lambda a: ("val", c(a))),
        expect("b/clause-misses", n3_b, lambda a: ("exc", (j, c(a)))),
    )
    return SuiteReport("nesting-matrix", results)


def _suite_duality(model: _Model) -> SuiteReport:
    """Each states law and its mirror-image exceptions law hold together.

    Runs on a states model; the exceptions side is its dual theory with the
    same index sizes. Rows pair A1/B1, A2/B2 and the two annihilations.
    """
    from .exceptions import key_annihilation_equation
    from .states import annihilation_equation
    from .translators import dualize_theory

    if isinstance(model, FiniteExceptionModel):
        raise E.ModelError("duality-semantic starts from the states side")
    th = model.theory
    dual_th = dualize_theory(th)
    dual_m = FiniteExceptionModel(dual_th, model.sizes, model.valuation, model.bound)

    def pair(nm: str, st_res: LawResult, ex_res: LawResult) -> LawResult:
        ok = st_res.holds and ex_res.holds
        wit = None if ok else {"states": st_res.witness, "exceptions": ex_res.witness}
        return LawResult(nm, "holds" if ok else "fails", wit,
                         st_res.points + ex_res.points)

    results = []
    for ax, dax in zip(th.axioms, dual_th.axioms):
        results.append(pair(f"{ax.name}<->{dax.name}",
                            check_equation(model, ax.eq),
                            check_equation(dual_m, dax.eq)))
    for i in th.locations:
        results.append(pair(
            f"annihilation[{i}]<->annihilation[{i}]",
            check_equation(model, annihilation_equation(th, i)),
            check_equation(dual_m, key_annihilation_equation(dual_th, i))))
    return SuiteReport("duality-semantic", tuple(results))


# the law suites, by the name `verify SUITE` gives
SUITES = {
    "states-seven": _suite_states_seven,
    "exceptions-laws": _suite_exceptions_laws,
    "nesting-matrix": _suite_nesting,
    "duality-semantic": _suite_duality,
}
