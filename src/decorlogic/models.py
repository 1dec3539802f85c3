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
only (exceptions). Enumeration order is documented by the carrier builders
below, so counterexample witnesses are stable and can be frozen into tests.

`eval_states` and `eval_exceptions` walk the term tree for one input; they
serve single evaluations and are the reference semantics. `check_equation`
instead compiles each side once into an integer transition table (see
`_StateTables` and `_ExceptionTables`): a term X -> Y becomes a list that
maps the number of every input to the number of its outcome, so composition
g . f is `g[f[p]]`. Equal tables decide a law at once; a weak states law
reads its values through each side's last factor, without the side's own
table; an exceptions term that passes exceptional inputs through keeps
only its ordinary entries.

Every law suite decides its rows through one checker, `_check_groups`,
which takes (model, (name, law) pairs) groups and checks every law's
point bound before it builds any table. The laws of one group share their
tables: one states-seven goal's direct law and observations, one
exception name's laws in exceptions-laws, the six nesting-matrix rows,
and each model's half of duality-semantic.

Only the locations or exception names an equation mentions are enumerated
(its footprint); the others pass through both sides unchanged, so no point
that differs from a checked one only outside the footprint can fail:

* states side: without a `tuple(...)`, the locations its l[i]/u[i] name,
  the other locations held at 0;
* exceptions side: without a `cotuple(...)` or `catchall`, the exceptional
  inputs of the names its t[i]/c[i] name.

The first failing point, and so the witness, is the full enumeration's;
`LawResult.points` and the point bound count the full enumeration. Terms the
tables do not cover (refused by the theory's typecheck, a generator with
no usable table, a table over the bound) go to `sweep_equation`, the
interpreter point by point.
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
from .theory import (Equation, STRONG, Theory, eq_strong, eq_weak,
                     typecheck_equation)
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
        self._gen_tables: dict[Gen, Sequence[Any]] = {}
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
        if isinstance(ty, (Value, Param)) and ty.index in self.sizes:
            return self.sizes[ty.index]
        if isinstance(ty, Prod):
            # carrier never reaches the right factor of an empty left one
            n = self.carrier_size(ty.left)
            return n * self.carrier_size(ty.right) if n else 0
        if isinstance(ty, Coprod):
            return self.carrier_size(ty.left) + self.carrier_size(ty.right)
        if isinstance(ty, Named) and ty.name in self.valuation.base:
            return self.valuation.base[ty.name]
        return len(self.carrier(ty))  # 1 or 0, or CarrierMissing

    def element(self, ty: TypeExpr, n: int) -> Any:
        """carrier(ty)[n] for 0 <= n < carrier_size(ty), decoded from ty's
        shape without building the carrier."""
        if isinstance(ty, Prod):
            a, b = divmod(n, self.carrier_size(ty.right))
            return self.element(ty.left, a), self.element(ty.right, b)
        if isinstance(ty, Coprod):
            k = self.carrier_size(ty.left)
            if n < k:
                return "l", self.element(ty.left, n)
            return "r", self.element(ty.right, n - k)
        if isinstance(ty, (Value, Param, Named)):
            return n
        return self.carrier(ty)[n]  # the unit type's one element

    def positions(self, ty: TypeExpr) -> dict:
        """The enumeration position of every element of ty's carrier."""
        at = self._positions.get(ty)
        if at is None:
            at = self._positions[ty] = {v: k for k, v in
                                        enumerate(self.carrier(ty))}
        return at

    def has(self, ty: TypeExpr, v: Any) -> bool:
        """Whether v is an element of ty's carrier, decided from ty's shape
        without building the carrier."""
        if isinstance(ty, (Prod, Coprod)):
            if not (isinstance(v, tuple) and len(v) == 2):
                return False
            if isinstance(ty, Prod):
                return self.has(ty.left, v[0]) and self.has(ty.right, v[1])
            tag, x = v
            return (tag == "l" and self.has(ty.left, x)
                    or tag == "r" and self.has(ty.right, x))
        if isinstance(ty, Unit):
            return v == ()
        return isinstance(v, int) and 0 <= v < self.carrier_size(ty)

    def gen_table(self, g: Gen) -> Sequence[Any]:
        """g's outputs in the enumeration order of its domain; checked to
        lie in its codomain once per generator."""
        table = self._gen_tables.get(g)
        if table is not None:
            return table
        if g.dec != 0:
            raise E.NoInterpretation(
                f"generator {g.name!r} has level {g.dec}; only pure generators "
                f"can be interpreted by tables")
        if g.name not in self.valuation.tables:
            raise E.NoInterpretation(f"no table for generator {g.name!r}")
        table = self.valuation.tables[g.name]
        n = self.carrier_size(g.dom)
        if len(table) != n:
            raise E.ModelError(
                f"table for {g.name!r} has {len(table)} entries, "
                f"domain has {n}")
        if not all([self.has(g.cod, v) for v in table]):
            raise E.ModelError(
                f"table for {g.name!r} has outputs outside {g.cod}")
        self._gen_tables[g] = table
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
    if isinstance(t, Inj1):
        return ("val", ("l", x))
    if isinstance(t, Inj2):
        return ("val", ("r", x))
    if isinstance(t, Throw):
        return ("exc", (t.index, x))
    if isinstance(t, (FromEmpty, Catch, CatchAll, ConstCotuple)):
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
    holding the number of the outcome; subclasses fix the numbering. One
    has at most |domain| * n + k entries, and none over the bound is built.
    """

    n, k = 1, 0

    def __init__(self, model: _Model):
        self.model = model
        self.size = model.carrier_size
        self._built: dict[Term, list[int]] = {}

    def table(self, t: Term) -> list[int]:
        """t's table; built once, since both sides share subterms. The
        composites on t's spines are built deepest first, in a loop, so
        that building one finds its factors built."""
        out = self._built.get(t)
        if out is None:
            todo, order = [t], []
            while todo:
                u = todo.pop()
                if u not in self._built:
                    order.append(u)
                    if isinstance(u, Comp):
                        todo += (u.after, u.before)
            for u in reversed(order):
                if u in self._built:
                    continue
                entries = self.size(u.dom) * self.n + self.k
                if entries > self.model.bound:
                    raise E.SearchSpaceTooLarge(
                        f"a table of {entries} entries exceeds bound "
                        f"{self.model.bound}")
                self._built[u] = (self._comp(u) if isinstance(u, Comp)
                                  else self._atom(u))
            out = self._built[t]
        return out

    def _comp(self, t: Comp) -> list[int]:
        after = self.table(t.after)
        return [after[p] for p in self.table(t.before)]

    def _gen(self, g: Gen) -> list[int]:
        """g's table as positions in its codomain's carrier; a codomain
        over the model's bound is refused before its carrier is built."""
        table = self.model.gen_table(g)
        if self.size(g.cod) > self.model.bound:
            raise E.SearchSpaceTooLarge(
                f"codomain of {g.name!r} exceeds bound {self.model.bound}")
        at = self.model.positions(g.cod)
        return [at[v] for v in table]


class _StateTables(_Tables):
    """States terms over the locations `locs`.

    The states of `locs` are numbered lexicographically, n of them; point
    x*n + s stands for the x-th domain element in the s-th state, and the
    table maps it to the point y*n + s' of the outcome.
    """

    keyed, whole = (Lookup, Update), (LocTuple,)  # see _footprint

    def __init__(self, model: FiniteStateModel, locs: Sequence[str]):
        super().__init__(model)
        self.n = math.prod(model.sizes[i] for i in locs)
        self.stride = {i: math.prod(model.sizes[j] for j in locs[at + 1:])
                       for at, i in enumerate(locs)}

    def state(self, s: int) -> tuple:
        """State number s, with every location outside `locs` at 0."""
        sizes = self.model.sizes
        return tuple(s // self.stride[i] % sizes[i] if i in self.stride else 0
                     for i in self.model.theory.locations)

    def outcome(self, p: int, car: list) -> tuple:
        return car[p // self.n], self.state(p % self.n)

    def values(self, t: Term) -> list[int]:
        """Each point's value; a composite's own table is not built: the
        values of the factor its `after`s end at are read through the
        tables of its `before`s, innermost first."""
        befores = []
        while isinstance(t, Comp):
            befores.append(t.before)
            t = t.after
        vals = [p // self.n for p in self.table(t)]
        for b in reversed(befores):
            vals = [vals[p] for p in self.table(b)]
        return vals

    def compared(self, eq: Equation, nx: int) -> tuple[list, list]:
        side = self.table if eq.kind == STRONG else self.values
        return side(eq.lhs), side(eq.rhs)

    def witness(self, eq: Equation, p: int, vs: tuple, dcar: list) -> dict:
        ycar = self.model.carrier(eq.lhs.cod)
        x, s = self.outcome(p, dcar)
        return {"input": x, "state": s,
                "lhs": self.outcome(self.table(eq.lhs)[p], ycar),
                "rhs": self.outcome(self.table(eq.rhs)[p], ycar)}

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

    A term that passes every exceptional input through keeps a short table
    of its |X| ordinary entries (input |X| + e goes to |Y| + e); catchers
    keep full ones. That `run` is written out only behind a short `after`
    whose `before` can raise, and on a short side of a strong law whose
    other side is full.
    """

    keyed, whole = (Throw, Catch), (ConstCotuple, CatchAll)  # see _footprint

    def __init__(self, model: FiniteExceptionModel, names: Sequence[str]):
        super().__init__(model)
        sizes = [model.sizes[i] for i in names]
        self.offset = dict(zip(names, itertools.accumulate(sizes, initial=0)))
        self.k = sum(sizes)
        self._runs: dict[int, list[int]] = {}

    def run(self, ny: int) -> list[int]:
        """Every exceptional input, passed through into ny values."""
        out = self._runs.get(ny)
        if out is None:
            out = self._runs[ny] = list(range(ny, ny + self.k))
        return out

    def outcome(self, p: int, car: list) -> tuple:
        if p < len(car):
            return ("val", car[p])
        e = p - len(car)
        i, at = next((i, at) for i, at in reversed(self.offset.items())
                     if e >= at)
        return ("exc", (i, e - at))

    def _comp(self, t: Comp) -> list[int]:
        after, before = self.table(t.after), self.table(t.before)
        ny = self.size(t.after.dom)
        full = len(after) > ny  # then a short before's inputs land in it
        if not full and before and max(before) >= ny:
            after = after + self.run(self.size(t.cod))
        out = [after[p] for p in before]
        return out + after[ny:] if full and len(before) == self.size(t.dom) else out

    def compared(self, eq: Equation, nx: int) -> tuple[list, list]:
        t1, t2 = self.table(eq.lhs), self.table(eq.rhs)
        if t1 == t2 or (eq.kind == STRONG and len(t1) == len(t2)):
            return t1, t2
        if eq.kind != STRONG:
            return t1[:nx], t2[:nx]
        run = self.run(self.size(eq.lhs.cod))  # one side short, one full
        return (t1 + run, t2) if len(t1) < len(t2) else (t1, t2 + run)

    def witness(self, eq: Equation, p: int, vs: tuple, dcar: list) -> dict:
        ycar = self.model.carrier(eq.lhs.cod)
        return {"input": self.outcome(p, dcar),
                "lhs": self.outcome(vs[0][p], ycar),
                "rhs": self.outcome(vs[1][p], ycar)}

    def _atom(self, t: Term) -> list[int]:
        size, k = self.size, self.k
        if isinstance(t, Id):
            return list(range(size(t.at)))
        if isinstance(t, ToUnit):
            return [0] * size(t.frm)
        if isinstance(t, FromEmpty):
            return []
        if isinstance(t, (Inj1, Inj2)):
            na = size(t.left)
            return list(range(na) if isinstance(t, Inj1)
                        else range(na, na + size(t.right)))
        if isinstance(t, Throw):
            at = self.offset[t.index]
            return list(range(at, at + self.model.sizes[t.index]))
        if isinstance(t, Catch):
            at, ni = self.offset[t.index], self.model.sizes[t.index]
            return (list(range(ni, ni + at)) + list(range(ni))
                    + list(range(ni + at + ni, ni + k)))
        if isinstance(t, CatchAll):
            return [0] * k
        if isinstance(t, Gen):
            return self._gen(t)
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
            return self.table(t.on_left)[:na] + self.table(t.on_right)[:nb]
        if isinstance(t, Coerce):
            return self.table(t.inner)[:size(t.inner.dom)]
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


def _footprint(eq: Equation, indices: Sequence[str], kind: type
               ) -> tuple[str, ...]:
    """The indices eq names through `kind.keyed` atoms, in theory order;
    all of them if a `kind.whole` atom occurs, since it reaches them all."""
    named = set()
    for t in itertools.chain(subterms(eq.lhs), subterms(eq.rhs)):
        if isinstance(t, kind.whole):
            return tuple(indices)
        if isinstance(t, kind.keyed):
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
    weak only ordinary ones; outputs always compared in full. Both sides
    are compiled into tables (see the module docstring); only a mismatch
    is decoded, into the witness `sweep_equation` gives. A law the
    model's theory does not type raises the typecheck's error.
    """
    return _check(model, eq, name, {})


def _check(model: _Model, eq: Equation, name: str, shared: dict) -> LawResult:
    """check_equation with the tables in `shared`, one per footprint."""
    typecheck_equation(model.theory, eq)
    dcar, total = _points(model, eq)
    try:
        kind = _StateTables if model.side is STATES else _ExceptionTables
        locs = _footprint(eq, model.side.indices(model.theory), kind)
        tabs = shared.get(locs) or shared.setdefault(locs, kind(model, locs))
        v1, v2 = vs = tabs.compared(eq, len(dcar))
        if v1 == v2:
            return LawResult(name, "holds", None, total)
        p = next(p for p, (a, b) in enumerate(zip(v1, v2)) if a != b)
        return LawResult(name, "fails", tabs.witness(eq, p, vs, dcar), total)
    except E.DecorError:
        # a carrier or a generator's table is missing, or a table would
        # exceed the bound: the interpreter decides, and raises where it
        # raises
        return sweep_equation(model, eq, name)


def _check_groups(groups: list) -> list[LawResult]:
    """Each (model, group of (name, law) pairs) shares its tables; every
    law's point count meets the bound before any table is built."""
    for model, group in groups:
        for _, eq in group:
            _points(model, eq)
    results = []
    for model, group in groups:
        shared: dict = {}
        results += [_check(model, eq, nm, shared) for nm, eq in group]
    return results


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
    return SuiteReport(suite, tuple(SUITES[suite](model)))


def _suite_states_seven(model: FiniteStateModel) -> list[LawResult]:
    """Each goal's direct law and its observations share their tables."""
    from .states import seven_equation_goals

    if not isinstance(model, FiniteStateModel):
        raise E.ModelError("states-seven runs on a states model")
    return _check_groups([(model, [(g.name, g.direct), *g.observations])
                          for g in seven_equation_goals(model.theory)])


def _exception_law_groups(th: Theory) -> list[list[tuple[str, Equation]]]:
    """exceptions-laws' (name, law) pairs in order, grouped by name."""
    from .catalogue import annihilation
    from .exceptions import (catch_equation, handler_commute_equation,
                             handler_idempotent_equation, raise_term)

    groups = [[(ax.name, ax.eq)] for ax in th.axioms]
    groups += [[(f"annihilation[{i}]", annihilation(EXCEPTIONS, i)),
                (f"catch-throw[{i}]", catch_equation(th, i)),
                (f"raise-is-throw[{i}]",
                 eq_strong(raise_term(th, i, Empty()), Throw(i))),
                (f"handler-idempotent[{i}]", handler_idempotent_equation(th, i))]
               for i in th.constructors]
    groups += [[(f"handler-commute[{i},{j}]", handler_commute_equation(th, i, j))]
               for i in th.constructors for j in th.constructors if i != j]
    return groups


def _suite_exceptions_laws(model: FiniteExceptionModel) -> list[LawResult]:
    if not isinstance(model, FiniteExceptionModel):
        raise E.ModelError("exceptions-laws runs on an exceptions model")
    return _check_groups([(model, group) for group
                          in _exception_law_groups(model.theory)])


def _suite_nesting(model: FiniteExceptionModel) -> list[LawResult]:
    """The three ways to nest two catch clauses genuinely differ.

    With f raising i and the i-clause g raising j: the flat handler lets g's
    exception escape while both nested forms catch it; with f raising j, the
    nested-inside-clause form misses it while the other two catch it. Each
    run is the weak law that it gives g's outcome (j escapes) or
    nest_cast's (caught) on every ordinary input.
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
    g = Comp(raise_term(th2, j, y), cast)            # raises j: f_b, the i-clause
    h = Id(y)                                        # j-clause that recovers
    inner_clause = handle_term(th2, g, [(j, h)]).term
    runs = [run for f in (f_a, g) for run in (   # flat, in sequence, in the clause
        handle_term(th2, f, [(i, g), (j, h)]).term,
        handle_term(th2, handle_term(th2, f, [(i, g)]).term, [(j, h)]).term,
        handle_term(th2, f, [(i, inner_clause)]).term)]
    names = ("a/flat-escapes", "a/seq-catches", "a/clause-catches",
             "b/flat-catches", "b/seq-catches", "b/clause-misses")
    wants = (g, cast, cast, cast, cast, g)
    return _check_groups([(m2, [(nm, eq_weak(run, want)) for nm, run, want
                                in zip(names, runs, wants)])])


def _suite_duality(model: _Model) -> list[LawResult]:
    """Each states law and its mirror-image exceptions law hold together.

    Runs on a states model; the exceptions side is its dual theory with the
    same index sizes. Rows pair A1/B1, A2/B2 and the two annihilations.
    """
    from .catalogue import annihilation
    from .translators import dualize_theory

    if isinstance(model, FiniteExceptionModel):
        raise E.ModelError("duality-semantic starts from the states side")
    th = model.theory
    dual_th = dualize_theory(th)
    dual_m = FiniteExceptionModel(dual_th, model.sizes, model.valuation, model.bound)

    def pair(st_res: LawResult, ex_res: LawResult) -> LawResult:
        ok = st_res.holds and ex_res.holds
        wit = None if ok else {"states": st_res.witness, "exceptions": ex_res.witness}
        return LawResult(st_res.name, "holds" if ok else "fails", wit,
                         st_res.points + ex_res.points)

    rows = [(f"{ax.name}<->{dax.name}", ax.eq, dax.eq)
            for ax, dax in zip(th.axioms, dual_th.axioms)]
    rows += [(f"annihilation[{i}]<->annihilation[{i}]",
              annihilation(STATES, i), annihilation(EXCEPTIONS, i))
             for i in th.locations]
    n = len(rows)
    results = _check_groups([(model, [(nm, st) for nm, st, _ in rows]),
                             (dual_m, [(nm, ex) for nm, _, ex in rows])])
    return [pair(st, ex) for st, ex in zip(results[:n], results[n:])]


# the law suites, by the name `verify SUITE` gives
SUITES = {
    "states-seven": _suite_states_seven,
    "exceptions-laws": _suite_exceptions_laws,
    "nesting-matrix": _suite_nesting,
    "duality-semantic": _suite_duality,
}
