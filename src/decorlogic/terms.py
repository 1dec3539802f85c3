"""Term syntax shared by the three logics.

Terms are plain frozen dataclasses, so structural equality and hashing come
for free; the kernel compares normalized terms with `==`. Domain and codomain
are computable without a theory (generators carry their declared profile);
whether a term is *legal* in a given theory is `theory.typecheck`'s job.

Composition is written `Comp(after, before)`: `Comp(g, f)` is g∘f, "f then g".
`normalize_assoc` flattens composite spines to right-nested form and drops
identities; it does nothing else (no unit/product laws), so two terms are
"the same up to associativity and identities" iff their normal forms are ==.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple, Union, get_args

from .types import EMPTY, UNIT, Coprod, Param, Prod, TypeExpr, Value


@dataclass(frozen=True)
class Id:
    at: TypeExpr

    def __str__(self) -> str:
        return f"id[{self.at}]"


@dataclass(frozen=True)
class Comp:
    """Composition g∘f, stored as Comp(after=g, before=f)."""

    after: "Term"
    before: "Term"

    def __str__(self) -> str:
        return f"{_paren(self.after)} . {_paren(self.before)}"


@dataclass(frozen=True)
class ToUnit:
    """The unique pure map into 1, written unit[X]."""

    frm: TypeExpr

    def __str__(self) -> str:
        return f"unit[{self.frm}]"


@dataclass(frozen=True)
class FromEmpty:
    """The unique pure map out of 0, written empty[Y]."""

    to: TypeExpr

    def __str__(self) -> str:
        return f"empty[{self.to}]"


@dataclass(frozen=True)
class Proj1:
    left: TypeExpr
    right: TypeExpr

    def __str__(self) -> str:
        return f"p1[{self.left},{self.right}]"


@dataclass(frozen=True)
class Proj2:
    left: TypeExpr
    right: TypeExpr

    def __str__(self) -> str:
        return f"p2[{self.left},{self.right}]"


@dataclass(frozen=True)
class Inj1:
    left: TypeExpr
    right: TypeExpr

    def __str__(self) -> str:
        return f"in1[{self.left},{self.right}]"


@dataclass(frozen=True)
class Inj2:
    left: TypeExpr
    right: TypeExpr

    def __str__(self) -> str:
        return f"in2[{self.left},{self.right}]"


@dataclass(frozen=True)
class Lookup:
    """l[i]: 1 -> V[i]. Reads location i; level 1."""

    index: str

    def __str__(self) -> str:
        return f"l[{self.index}]"


@dataclass(frozen=True)
class Update:
    """u[i]: V[i] -> 1. Writes location i; level 2."""

    index: str

    def __str__(self) -> str:
        return f"u[{self.index}]"


@dataclass(frozen=True)
class Throw:
    """t[i]: P[i] -> 0. Wraps its argument as exception i; level 1."""

    index: str

    def __str__(self) -> str:
        return f"t[{self.index}]"


@dataclass(frozen=True)
class Catch:
    """c[i]: 0 -> P[i]. Unwraps exception i, re-raises others; level 2."""

    index: str

    def __str__(self) -> str:
        return f"c[{self.index}]"


@dataclass(frozen=True)
class CatchAll:
    """catchall: 0 -> 1. Recovers from every exception; level 2."""

    def __str__(self) -> str:
        return "catchall"


@dataclass(frozen=True)
class Gen:
    """A user generator with its declared profile and level inlined."""

    name: str
    dom: TypeExpr
    cod: TypeExpr
    dec: int = 0

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SemiProd:
    """Semi-pure pairing of a pure map with an arbitrary one.

    pure_on_left=True  renders lsemi(pure, eff): A*B -> A'*B', pure: A->A'.
    pure_on_left=False renders rsemi(eff, pure): A*B -> A'*B', eff:  A->A'.

    The strong projection law holds on the effectful factor, the weak one on
    the pure factor (the effectful factor's effect wins; the pure component's
    value survives it unchanged only up to the state).
    """

    pure: "Term"
    eff: "Term"
    pure_on_left: bool

    def __str__(self) -> str:
        if self.pure_on_left:
            return f"lsemi({self.pure}, {self.eff})"
        return f"rsemi({self.eff}, {self.pure})"


@dataclass(frozen=True)
class SemiCoprod:
    """Semi-pure case-map of a pure map with an arbitrary one (dual pairing)."""

    pure: "Term"
    eff: "Term"
    pure_on_left: bool

    def __str__(self) -> str:
        if self.pure_on_left:
            return f"lsum({self.pure}, {self.eff})"
        return f"rsum({self.eff}, {self.pure})"


@dataclass(frozen=True)
class LocTuple:
    """Mediating arrow of the observation cone: X -> 1.

    components maps every location i to an accessor f_i: X -> V[i]; the
    defining (weak) property is l[i] ∘ tuple(...) ~~ f_i.
    """

    components: Tuple[Tuple[str, "Term"], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"{i}: {t}" for i, t in self.components)
        return f"tuple({inner})"


@dataclass(frozen=True)
class ConstCotuple:
    """Mediating arrow of the exception cocone: 0 -> Y.

    components maps every constructor i to a propagator f_i: P[i] -> Y; the
    defining (weak) property is cotuple(...) ∘ t[i] ~~ f_i.
    """

    components: Tuple[Tuple[str, "Term"], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"{i}: {t}" for i, t in self.components)
        return f"cotuple({inner})"


@dataclass(frozen=True)
class CaseSum:
    """case(g, k): X -> Y. Runs g on ordinary values, k on exceptional input.

    on_value must be a propagator (level <= 1); on_empty: 0 -> Y may catch.
    """

    on_value: "Term"
    on_empty: "Term"

    def __str__(self) -> str:
        return f"case({self.on_value}, {self.on_empty})"


@dataclass(frozen=True)
class PropCase:
    """cases(g, h): X+Y -> Z, coproduct case of two propagators."""

    on_left: "Term"
    on_right: "Term"

    def __str__(self) -> str:
        return f"cases({self.on_left}, {self.on_right})"


@dataclass(frozen=True)
class Coerce:
    """coerce(k): the catcher k seen as a mere propagator (level 1).

    Same action on ordinary values; exceptional inputs pass through instead
    of being caught. This is how a finished handler is packaged.
    """

    inner: "Term"

    def __str__(self) -> str:
        return f"coerce({self.inner})"


Term = Union[
    Id, Comp, ToUnit, FromEmpty, Proj1, Proj2, Inj1, Inj2,
    Lookup, Update, Throw, Catch, CatchAll, Gen,
    SemiProd, SemiCoprod, LocTuple, ConstCotuple,
    CaseSum, PropCase, Coerce,
]
TERM_CLASSES = get_args(Term)


def _paren(t: Term) -> str:
    return f"({t})" if isinstance(t, Comp) else str(t)


def term_to_text(t: Term) -> str:
    """Render in the script syntax (parseable back by the DSL)."""
    return str(t)


# ---------------------------------------------------------------- typing

def dom(t: Term) -> TypeExpr:
    if isinstance(t, Id):
        return t.at
    if isinstance(t, Comp):
        return dom(t.before)
    if isinstance(t, ToUnit):
        return t.frm
    if isinstance(t, FromEmpty):
        return EMPTY
    if isinstance(t, (Proj1, Proj2)):
        return Prod(t.left, t.right)
    if isinstance(t, Inj1):
        return t.left
    if isinstance(t, Inj2):
        return t.right
    if isinstance(t, Lookup):
        return UNIT
    if isinstance(t, Update):
        return Value(t.index)
    if isinstance(t, Throw):
        return Param(t.index)
    if isinstance(t, (Catch, CatchAll)):
        return EMPTY
    if isinstance(t, Gen):
        return t.dom
    if isinstance(t, SemiProd):
        if t.pure_on_left:
            return Prod(dom(t.pure), dom(t.eff))
        return Prod(dom(t.eff), dom(t.pure))
    if isinstance(t, SemiCoprod):
        if t.pure_on_left:
            return Coprod(dom(t.pure), dom(t.eff))
        return Coprod(dom(t.eff), dom(t.pure))
    if isinstance(t, LocTuple):
        return dom(t.components[0][1])
    if isinstance(t, ConstCotuple):
        return EMPTY
    if isinstance(t, CaseSum):
        return dom(t.on_value)
    if isinstance(t, PropCase):
        return Coprod(dom(t.on_left), dom(t.on_right))
    if isinstance(t, Coerce):
        return dom(t.inner)
    raise TypeError(f"not a term: {t!r}")


def cod(t: Term) -> TypeExpr:
    if isinstance(t, Id):
        return t.at
    if isinstance(t, Comp):
        return cod(t.after)
    if isinstance(t, ToUnit):
        return UNIT
    if isinstance(t, FromEmpty):
        return t.to
    if isinstance(t, Proj1):
        return t.left
    if isinstance(t, Proj2):
        return t.right
    if isinstance(t, (Inj1, Inj2)):
        return Coprod(t.left, t.right)
    if isinstance(t, Lookup):
        return Value(t.index)
    if isinstance(t, Update):
        return UNIT
    if isinstance(t, Throw):
        return EMPTY
    if isinstance(t, Catch):
        return Param(t.index)
    if isinstance(t, CatchAll):
        return UNIT
    if isinstance(t, Gen):
        return t.cod
    if isinstance(t, SemiProd):
        if t.pure_on_left:
            return Prod(cod(t.pure), cod(t.eff))
        return Prod(cod(t.eff), cod(t.pure))
    if isinstance(t, SemiCoprod):
        if t.pure_on_left:
            return Coprod(cod(t.pure), cod(t.eff))
        return Coprod(cod(t.eff), cod(t.pure))
    if isinstance(t, LocTuple):
        return UNIT
    if isinstance(t, ConstCotuple):
        return cod(t.components[0][1])
    if isinstance(t, CaseSum):
        return cod(t.on_value)
    if isinstance(t, PropCase):
        return cod(t.on_left)
    if isinstance(t, Coerce):
        return cod(t.inner)
    raise TypeError(f"not a term: {t!r}")


# ------------------------------------------------------- normalization

def _children_normalized(t: Term) -> Term:
    if isinstance(t, SemiProd):
        return SemiProd(normalize_assoc(t.pure), normalize_assoc(t.eff), t.pure_on_left)
    if isinstance(t, SemiCoprod):
        return SemiCoprod(normalize_assoc(t.pure), normalize_assoc(t.eff), t.pure_on_left)
    if isinstance(t, LocTuple):
        return LocTuple(tuple((i, normalize_assoc(f)) for i, f in t.components))
    if isinstance(t, ConstCotuple):
        return ConstCotuple(tuple((i, normalize_assoc(f)) for i, f in t.components))
    if isinstance(t, CaseSum):
        return CaseSum(normalize_assoc(t.on_value), normalize_assoc(t.on_empty))
    if isinstance(t, PropCase):
        return PropCase(normalize_assoc(t.on_left), normalize_assoc(t.on_right))
    if isinstance(t, Coerce):
        return Coerce(normalize_assoc(t.inner))
    return t


def _spine(t: Term) -> list[Term]:
    if isinstance(t, Comp):
        return _spine(t.after) + _spine(t.before)
    if isinstance(t, Id):
        return []
    return [_children_normalized(t)]


def normalize_assoc(t: Term) -> Term:
    """Right-nest composites, drop identities, recurse into constructor args."""
    parts = _spine(t)
    if not parts:
        return Id(dom(t))
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Comp(p, out)
    return out


def comp(*fs: Term) -> Term:
    """Convenience: comp(h, g, f) is the normalized h∘g∘f."""
    if not fs:
        raise ValueError("comp() needs at least one term")
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = Comp(f, out)
    return normalize_assoc(out)


def subterms(t: Term) -> Iterator[Term]:
    """Yield t and every nested subterm (with repeats)."""
    yield t
    if isinstance(t, Comp):
        yield from subterms(t.after)
        yield from subterms(t.before)
    elif isinstance(t, (SemiProd, SemiCoprod)):
        yield from subterms(t.pure)
        yield from subterms(t.eff)
    elif isinstance(t, (LocTuple, ConstCotuple)):
        for _, f in t.components:
            yield from subterms(f)
    elif isinstance(t, CaseSum):
        yield from subterms(t.on_value)
        yield from subterms(t.on_empty)
    elif isinstance(t, PropCase):
        yield from subterms(t.on_left)
        yield from subterms(t.on_right)
    elif isinstance(t, Coerce):
        yield from subterms(t.inner)


def term_size(t: Term) -> int:
    return sum(1 for _ in subterms(t))
