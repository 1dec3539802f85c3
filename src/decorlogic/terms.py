"""Term syntax shared by the three logics.

Terms are immutable, slotted dataclasses, so structural equality and
hashing come from their fields; the kernel compares normalized terms with
`==`. Every node also stores four facts, worked out once when it is built
from the facts its children already store, and left out of equality,
hashing and repr:

* `dom` and `cod`, its profile (generators carry their declared one);
* `level`, its decoration: 0 pure, 1 accessor/propagator, 2 modifier/catcher;
* `size`, its number of nodes.

Each class states its profile and level once, in `_facts`, so building a
node is O(1) and never walks a term. Whether a term is *legal* in a given
theory is `theory.typecheck`'s job.

`term_class` gives each class one `__init__`, compiled from source, that
sets the fields and the four facts through the slots' own setters; its
signature is the dataclass one, so positional and keyword calls and
`dataclasses.replace` work as usual. A node's hash is the dataclass hash of
its fields, worked out on first use and kept in a slot, so hashing a term
whose children were hashed already costs one tuple. Hashing and `==`
recurse once per level only inside nodes of at most `_SHALLOW` nodes;
above that size they follow the term in loops, so a term of any depth
hashes and compares.

Composition is written `Comp(after, before)`: `Comp(g, f)` is g∘f, "f then g".
`normalize_assoc` flattens composite spines to right-nested form and drops
identities; it does nothing else (no unit/product laws), so two terms are
"the same up to associativity and identities" iff their normal forms are ==.
`compose_normal` composes two terms already in that form without walking
them again. Spines are walked with loops, so composites of any length are
fine.

How each keyword is written is declared once, in `SYNTAX`: the script
parser reads its arguments by the row's shape, and each class's `__str__`
is built from its row, so `str(t)` is the text that parses back to t.

The duality between states and exceptions is declared once too, as two
rows of one table, `STATES` and `EXCEPTIONS` (`Side`): each field holds a
construct of one side, and the same field of the other row its dual. The
kernel's paired rules, the prover, the catalogues and the translators all
read these rows.

The pure fragment (`Id`, `Comp`, projections, injections, `unit[X]`,
`empty[Y]` and level-0 generators) is also the base category the
translators expand into.
"""

from __future__ import annotations

from dataclasses import (MISSING, FrozenInstanceError, dataclass, fields,
                         replace)
from operator import attrgetter
from typing import Any, Iterator, Optional, Tuple, Union, get_args

from .types import (EMPTY, UNIT, Coprod, Empty, Param, Prod, TypeExpr,
                    Unit, Value)


class Node:
    """Base of the term classes, here and in `translators`: the stored
    facts, the cached hash, and the children, read from the fields
    `term_class` marks."""

    __slots__ = ("dom", "cod", "level", "size", "_hash")
    _kids: tuple[str, ...] = ()  # the term-valued fields, in field order

    def _facts(self) -> tuple[Optional[TypeExpr], TypeExpr, int]:
        """(dom, cod, level), from the fields and the children's facts."""
        raise NotImplementedError

    def kids(self) -> tuple:
        """The children, in field order; `term_class` installs a reader
        for the classes that have any."""
        return ()

    def with_kids(self, kids) -> "Node":
        """This node with its children replaced, in `kids()` order."""
        return replace(self, **dict(zip(self._kids, kids)))

    def __reduce__(self):
        # copies and pickles are built again by `__init__`, so they get the
        # stored facts, which are not fields
        return type(self), tuple([getattr(self, f.name) for f in fields(self)])


# the slots' own setters, since a term refuses attribute assignment
_SETTERS = {name: getattr(Node, name).__set__ for name in Node.__slots__}


def term_class(cls):
    """Make `cls` a slotted dataclass whose fields annotated `Term` are its
    children, with a compiled `__init__`, a cached hash, and no attribute
    assignment or deletion; `dataclass` writes no methods but the repr."""
    cls = dataclass(slots=True, init=False, eq=False)(cls)
    names = tuple(f.name for f in fields(cls) if f.type == "Term")
    if names:
        cls._kids, cls.kids = names, _reader(names)
    cls._values = _reader(tuple(f.name for f in fields(cls)))
    cls.__init__, cls.__hash__, cls.__eq__ = _compiled(cls, names)
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_delete
    return cls


def _refuse_set(self, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _reader(names: tuple[str, ...]):
    """A method returning the fields `names`, as a tuple."""
    if not names:
        return lambda self: ()
    get = attrgetter(*names)
    if len(names) == 1:
        return lambda self: (get(self),)
    return lambda self: get(self)


# a node of at most this many nodes hashes and compares as dataclass does,
# recursing once per level; a larger one goes through `_hash_below` and
# `_same`, which walk it with loops down to nodes this small
_SHALLOW = 64


def _compiled(cls, kids: tuple[str, ...]):
    """`__init__`, `__hash__` and `__eq__` for a term class, compiled from
    source as dataclasses compiles its methods: building, hashing and
    comparing nodes is most of what the prover does.

    `__init__` takes the fields in order, with their defaults, and sets
    them and the stored facts through the slots' own setters: `dom`, `cod`
    and `level` from the class's `_facts`, `size` from the children's. The
    hash is the one `dataclass` gives, of the tuple of the fields, worked
    out on first use and kept in the `_hash` slot; `==` is dataclass's too.
    Both recurse on depth only below `_SHALLOW` nodes."""
    env = {f"_set_{n}": v for n, v in _SETTERS.items()}
    env.update(_SHALLOW=_SHALLOW, _hash_below=_hash_below, _same=_same)
    params, body = [], []
    fs = fields(cls)
    for f in fs:
        env[f"_field_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"_field_{f.name}(self, {f.name})")
    if kids:
        size = " + ".join(["1"] + [f"{k}.size" for k in kids])
    elif cls.kids is Node.kids:
        size = "1"
    else:
        size = "1 + sum([k.size for k in self.kids()])"
    body += ["_d, _c, _l = self._facts()",
             "_set_dom(self, _d)", "_set_cod(self, _c)",
             "_set_level(self, _l)", f"_set_size(self, {size})",
             "_set__hash(self, None)"]
    values = "".join(f"self.{f.name}, " for f in fs)
    others = "".join(f"other.{f.name}, " for f in fs)
    src = (f"def __init__(self, {', '.join(params)}):\n"
           + "".join(f"    {line}\n" for line in body)
           + "def __hash__(self):\n"
           "    h = self._hash\n"
           "    if h is None:\n"
           "        if self.size > _SHALLOW:\n"
           "            _hash_below(self)\n"
           f"        h = hash(({values}))\n"
           "        _set__hash(self, h)\n"
           "    return h\n"
           "def __eq__(self, other):\n"
           "    if other.__class__ is not self.__class__:\n"
           "        return NotImplemented\n"
           "    if self.size > _SHALLOW:\n"
           "        return _same(self, other)\n"
           f"    return ({values}) == ({others})\n")
    exec(src, env)
    names = ("__init__", "__hash__", "__eq__")
    for name in names:
        env[name].__qualname__ = f"{cls.__qualname__}.{name}"
    return tuple(env[name] for name in names)


def _hash_below(t: Node) -> None:
    """Store the hash of every node over `_SHALLOW` nodes below t that has
    none yet, deepest first, so that hashing t then recurses only into
    nodes at most that small."""
    todo, big = list(t.kids()), []
    while todo:
        k = todo.pop()
        if k.size > _SHALLOW and k._hash is None:
            big.append(k)
            todo += k.kids()
    for k in reversed(big):
        _SETTERS["_hash"](k, hash(k._values()))


def _same(a: Node, b: Node) -> bool:
    """a == b, with a loop over the nodes of over `_SHALLOW` nodes: their
    fields are compared pairwise, and smaller nodes as dataclass does."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if not isinstance(a, Node) or a.size <= _SHALLOW:
            if a != b:
                return False
        elif a.__class__ is not b.__class__ or a.size != b.size:
            return False
        else:
            todo += zip(a._values(), b._values())
    return True


@term_class
class Id(Node):
    at: TypeExpr

    def _facts(self):
        return self.at, self.at, 0


@term_class
class Comp(Node):
    """Composition g∘f, stored as Comp(after=g, before=f)."""

    after: Term
    before: Term

    def _facts(self):
        a, b = self.after, self.before
        return b.dom, a.cod, a.level if a.level > b.level else b.level

    def __str__(self) -> str:
        out: list[str] = []
        todo: list = [self]     # what is left to write, last item first
        while todo:
            t = todo.pop()
            if isinstance(t, str):
                out.append(t)
            elif isinstance(t, Comp):
                _push_operand(todo, t.before)
                todo.append(" . ")
                _push_operand(todo, t.after)
            else:
                out.append(str(t))
        return "".join(out)


def _push_operand(todo: list, t: Term) -> None:
    """Push t to be written, parenthesized when it is a composite."""
    if isinstance(t, Comp):
        todo += (")", t, "(")
    else:
        todo.append(t)


@term_class
class ToUnit(Node):
    """The unique pure map into 1, written unit[X]."""

    frm: TypeExpr

    def _facts(self):
        return self.frm, UNIT, 0


@term_class
class FromEmpty(Node):
    """The unique pure map out of 0, written empty[Y]."""

    to: TypeExpr

    def _facts(self):
        return EMPTY, self.to, 0


@term_class
class Proj1(Node):
    left: TypeExpr
    right: TypeExpr

    def _facts(self):
        return Prod(self.left, self.right), self.left, 0


@term_class
class Proj2(Node):
    left: TypeExpr
    right: TypeExpr

    def _facts(self):
        return Prod(self.left, self.right), self.right, 0


@term_class
class Inj1(Node):
    left: TypeExpr
    right: TypeExpr

    def _facts(self):
        return self.left, Coprod(self.left, self.right), 0


@term_class
class Inj2(Node):
    left: TypeExpr
    right: TypeExpr

    def _facts(self):
        return self.right, Coprod(self.left, self.right), 0


@term_class
class Lookup(Node):
    """l[i]: 1 -> V[i]. Reads location i; level 1."""

    index: str

    def _facts(self):
        return UNIT, Value(self.index), 1


@term_class
class Update(Node):
    """u[i]: V[i] -> 1. Writes location i; level 2."""

    index: str

    def _facts(self):
        return Value(self.index), UNIT, 2


@term_class
class Throw(Node):
    """t[i]: P[i] -> 0. Wraps its argument as exception i; level 1."""

    index: str

    def _facts(self):
        return Param(self.index), EMPTY, 1


@term_class
class Catch(Node):
    """c[i]: 0 -> P[i]. Unwraps exception i, re-raises others; level 2."""

    index: str

    def _facts(self):
        return EMPTY, Param(self.index), 2


@term_class
class CatchAll(Node):
    """catchall: 0 -> 1. Recovers from every exception; level 2."""

    def _facts(self):
        return EMPTY, UNIT, 2


@term_class
class Gen(Node):
    """A user generator with its declared profile and level inlined."""

    name: str
    dom: TypeExpr
    cod: TypeExpr
    dec: int = 0

    def _facts(self):
        return self.dom, self.cod, self.dec

    def __str__(self) -> str:
        return self.name


@term_class
class SemiProd(Node):
    """Semi-pure pairing of a pure map with an arbitrary one.

    pure_on_left=True  renders lsemi(pure, eff): A*B -> A'*B', pure: A->A'.
    pure_on_left=False renders rsemi(eff, pure): A*B -> A'*B', eff:  A->A'.

    The strong projection law holds on the effectful factor, the weak one on
    the pure factor (the effectful factor's effect wins; the pure component's
    value survives it unchanged only up to the state).
    """

    pure: Term
    eff: Term
    pure_on_left: bool

    def _facts(self):
        a, b = _in_order(self)
        return Prod(a.dom, b.dom), Prod(a.cod, b.cod), max(a.level, b.level)


@term_class
class SemiCoprod(Node):
    """Semi-pure case-map of a pure map with an arbitrary one (dual pairing)."""

    pure: Term
    eff: Term
    pure_on_left: bool

    def _facts(self):
        a, b = _in_order(self)
        return Coprod(a.dom, b.dom), Coprod(a.cod, b.cod), max(a.level, b.level)


def _in_order(t: Union[SemiProd, SemiCoprod]) -> tuple[Term, Term]:
    """The two factors of a semi-pure pairing, left one first."""
    return (t.pure, t.eff) if t.pure_on_left else (t.eff, t.pure)


class _Family(Node):
    """A mediating arrow, whose children are its components' terms.
    An empty family has no domain or codomain; no theory admits one."""

    __slots__ = ()

    def kids(self) -> tuple:
        return tuple([f for _, f in self.components])

    def with_kids(self, kids) -> "Node":
        return type(self)(tuple(zip([i for i, _ in self.components], kids)))


@term_class
class LocTuple(_Family):
    """Mediating arrow of the observation cone: X -> 1.

    components maps every location i to an accessor f_i: X -> V[i]; the
    defining (weak) property is l[i] ∘ tuple(...) ~~ f_i.
    """

    components: Tuple[Tuple[str, Term], ...]

    def _facts(self):
        # the mediating arrow writes the whole state
        fs = self.components
        return (fs[0][1].dom if fs else None), UNIT, 2


@term_class
class ConstCotuple(_Family):
    """Mediating arrow of the exception cocone: 0 -> Y.

    components maps every constructor i to a propagator f_i: P[i] -> Y; the
    defining (weak) property is cotuple(...) ∘ t[i] ~~ f_i.
    """

    components: Tuple[Tuple[str, Term], ...]

    def _facts(self):
        # the mediating arrow catches everything
        fs = self.components
        return EMPTY, (fs[0][1].cod if fs else None), 2


@term_class
class CaseSum(Node):
    """case(g, k): X -> Y. Runs g on ordinary values, k on exceptional input.

    on_value must be a propagator (level <= 1); on_empty: 0 -> Y may catch.
    """

    on_value: Term
    on_empty: Term

    def _facts(self):
        g, k = self.on_value, self.on_empty
        return g.dom, g.cod, max(g.level, k.level)


@term_class
class PropCase(Node):
    """cases(g, h): X+Y -> Z, coproduct case of two propagators."""

    on_left: Term
    on_right: Term

    def _facts(self):
        g, h = self.on_left, self.on_right
        return Coprod(g.dom, h.dom), g.cod, max(g.level, h.level)


@term_class
class Coerce(Node):
    """coerce(k): the catcher k seen as a mere propagator (level 1).

    Same action on ordinary values; exceptional inputs pass through instead
    of being caught. This is how a finished handler is packaged.
    """

    inner: Term

    def _facts(self):
        k = self.inner
        return k.dom, k.cod, min(k.level, 1)


Term = Union[
    Id, Comp, ToUnit, FromEmpty, Proj1, Proj2, Inj1, Inj2,
    Lookup, Update, Throw, Catch, CatchAll, Gen,
    SemiProd, SemiCoprod, LocTuple, ConstCotuple,
    CaseSum, PropCase, Coerce,
]
TERM_CLASSES = get_args(Term)


# ---------------------------------------------------------------- duality

@dataclass(frozen=True)
class Side:
    """One side of the duality between states and exceptions.

    The exceptions side is the states side read in the opposite category:
    sources and targets swap, composition reverses, and each construct is
    traded for its dual, the one at the same field of the other row. The
    fields are named after the states-side construct they stand for, so
    code written once against a side reads as the states-side code and, on
    the other side, as its dual.
    """

    flavor: str
    op: bool                 # read in the opposite category
    unit: type               # Unit / Empty
    slot: type               # Value / Param: the type an index carries
    prod: type               # Prod / Coprod
    to_unit: type            # ToUnit / FromEmpty
    projs: tuple             # (Proj1, Proj2) / (Inj1, Inj2)
    lookup: type             # Lookup / Throw
    update: type             # Update / Catch
    loc_tuple: type          # LocTuple / ConstCotuple
    semi: type               # SemiProd / SemiCoprod
    a_theory: str            # "a <flavor> theory", for messages
    index_word: str          # what an index is called on this side
    axiom: str               # "A" / "B": the letter its axioms are named with

    def indices(self, theory) -> tuple[str, ...]:
        """The theory's locations, or its exception names."""
        return theory.constructors if self.op else theory.locations

    def src(self, t: Term) -> TypeExpr:
        return t.cod if self.op else t.dom

    def tgt(self, t: Term) -> TypeExpr:
        return t.dom if self.op else t.cod

    def order(self, parts: list) -> list:
        """Factors listed after-most first as the side reads them, listed
        after-most first in the category itself, and back."""
        return parts[::-1] if self.op else parts

    def then(self, g: Term, f: Term) -> Term:
        """f, then g: g.f on the states side, f.g on the exceptions side."""
        return normalize_assoc(Comp(f, g) if self.op else Comp(g, f))

    def then_normal(self, g: Term, f: Term) -> Term:
        """`then` for two normal terms, as the prover composes them; the
        kernel's rules keep `then`, which normalizes whatever it is given."""
        return compose_normal(f, g) if self.op else compose_normal(g, f)


STATES = Side("states", False, Unit, Value, Prod, ToUnit, (Proj1, Proj2),
              Lookup, Update, LocTuple, SemiProd, "a states theory",
              "location", "A")
EXCEPTIONS = Side("exceptions", True, Empty, Param, Coprod, FromEmpty,
                  (Inj1, Inj2), Throw, Catch, ConstCotuple, SemiCoprod,
                  "an exceptions theory", "exception name", "B")


# ---------------------------------------------------------------- syntax

class Spelling:
    """How one keyword is written, and the node it stands for.

    `shape` is how its arguments are written: "index" `k[i]`, "type"
    `k[T]`, "types" `k[A,B]`, "terms" `k(f, g)`, "family" `k(i: f, ...)`,
    or "none" `k`. `fields` are the class's fields in the order they are
    written, and `fixed` the (field, value) pair the keyword implies, if
    any: the class's last field, which tells apart two keywords of one
    class. `build` makes the node from the written arguments, positionally.
    """

    __slots__ = ("cls", "shape", "fields", "fixed", "build")

    def __init__(self, cls: type, shape: str, written: tuple[str, ...] = (),
                 fixed: Optional[tuple[str, Any]] = None):
        self.cls, self.shape = cls, shape
        self.fields, self.fixed = written, fixed
        order = [written.index(f.name) for f in fields(cls)
                 if f.name in written]
        if fixed is None and order == sorted(order):
            self.build = cls
        else:
            value = fixed[1]
            self.build = lambda *args: cls(*[args[k] for k in order], value)


_LEFT, _RIGHT = ("pure_on_left", True), ("pure_on_left", False)

# the brackets around each shape's arguments
BRACKETS = {"index": "[]", "type": "[]", "types": "[]", "terms": "()",
            "family": "()", "none": ""}

# every keyword of the term grammar; the script parser reads it by keyword,
# and each class below writes itself from its rows
SYNTAX = {
    "id": Spelling(Id, "type", ("at",)),
    "unit": Spelling(ToUnit, "type", ("frm",)),
    "empty": Spelling(FromEmpty, "type", ("to",)),
    "p1": Spelling(Proj1, "types", ("left", "right")),
    "p2": Spelling(Proj2, "types", ("left", "right")),
    "in1": Spelling(Inj1, "types", ("left", "right")),
    "in2": Spelling(Inj2, "types", ("left", "right")),
    "l": Spelling(Lookup, "index", ("index",)),
    "u": Spelling(Update, "index", ("index",)),
    "t": Spelling(Throw, "index", ("index",)),
    "c": Spelling(Catch, "index", ("index",)),
    "catchall": Spelling(CatchAll, "none"),
    "lsemi": Spelling(SemiProd, "terms", ("pure", "eff"), _LEFT),
    "rsemi": Spelling(SemiProd, "terms", ("eff", "pure"), _RIGHT),
    "lsum": Spelling(SemiCoprod, "terms", ("pure", "eff"), _LEFT),
    "rsum": Spelling(SemiCoprod, "terms", ("eff", "pure"), _RIGHT),
    "tuple": Spelling(LocTuple, "family", ("components",)),
    "cotuple": Spelling(ConstCotuple, "family", ("components",)),
    "case": Spelling(CaseSum, "terms", ("on_value", "on_empty")),
    "cases": Spelling(PropCase, "terms", ("on_left", "on_right")),
    "coerce": Spelling(Coerce, "terms", ("inner",)),
}


def _writer(keyword: str, shape: str, names: tuple[str, ...]):
    """A `__str__` writing `keyword` in `shape`, with the fields `names`.

    Apart from a family's, it is compiled from an f-string, as dataclasses
    compile their methods, so that it reads each field directly: the
    prover writes every term it pools, and a call per field shows there.
    """
    if shape == "none":
        return lambda self: keyword
    opens, ends = BRACKETS[shape]
    if shape == "family":
        get = attrgetter(*names)
        return lambda self: (
            keyword + opens + ", ".join([f"{i}: {t}" for i, t in get(self)])
            + ends)
    sep = ", " if shape == "terms" else ","
    text = keyword + opens + sep.join(f"{{self.{n}}}" for n in names) + ends
    return eval(f"lambda self: f{text!r}")


def _install_writers() -> None:
    """Give each class in SYNTAX its `__str__`; where two keywords share a
    class, the value of their fixed field picks the writer."""
    by_class: dict[type, tuple[Optional[str], dict]] = {}
    for kw, s in SYNTAX.items():
        name, value = s.fixed or (None, None)
        _, writers = by_class.setdefault(s.cls, (name, {}))
        writers[value] = _writer(kw, s.shape, s.fields)
    for cls, (name, writers) in by_class.items():
        if name is None:
            (cls.__str__,) = writers.values()
        else:
            cls.__str__ = eval(f"lambda self: w[self.{name}](self)",
                               {"w": writers})


_install_writers()


def term_to_text(t: Term) -> str:
    """Render in the script syntax (parseable back by the DSL)."""
    return str(t)


def dom(t: Term) -> TypeExpr:
    return t.dom


def cod(t: Term) -> TypeExpr:
    return t.cod


def term_size(t: Term) -> int:
    return t.size


def subterms(t: Term) -> Iterator[Term]:
    """Yield t and every nested subterm (with repeats), parents first."""
    todo = [t]
    while todo:
        t = todo.pop()
        yield t
        todo += reversed(t.kids())


# ------------------------------------------------------- normalization

def _is_normal(t: Term) -> bool:
    """Whether normalize_assoc(t) == t: every spine right-nested with no
    identity on it, unless the spine is that identity alone."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Comp):
            while isinstance(t, Comp):
                if isinstance(t.after, (Comp, Id)):
                    return False
                todo += t.after.kids()
                t = t.before
            if isinstance(t, Id):
                return False
        todo += t.kids()
    return True


def _kids_normalized(t: Term) -> Term:
    kids = t.kids()
    new = [normalize_assoc(k) for k in kids]
    if all(a is b for a, b in zip(kids, new)):
        return t
    return t.with_kids(new)


def normalize_assoc(t: Term) -> Term:
    """Right-nest composites, drop identities, recurse into constructor
    args. A term already in normal form comes back itself, and so does
    the normal right factor of a composite, as the tail of the result."""
    if _is_normal(t):
        return t
    out = None
    if (isinstance(t, Comp) and not isinstance(t.before, Id)
            and _is_normal(t.before)):
        out, t = t.before, t.after
    for f in factors(t):
        if not isinstance(f, Id):
            f = _kids_normalized(f)
            out = f if out is None else Comp(f, out)
    return Id(t.dom) if out is None else out


def compose_normal(after: Term, before: Term) -> Term:
    """normalize_assoc(Comp(after, before)) for two normal terms, without
    checking either: `after`'s spine is hung onto `before`, and a side that
    is an identity is dropped."""
    if isinstance(after, Id):
        return before
    if isinstance(before, Id):
        return after
    spine = []
    while isinstance(after, Comp):
        spine.append(after.after)
        after = after.before
    out = Comp(after, before)
    for f in reversed(spine):
        out = Comp(f, out)
    return out


def factors(t: Term) -> Iterator[Term]:
    """The factors of t's composite spine, identities included, in the
    order they run: `before` ahead of `after`."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Comp):
            todo += (t.after, t.before)
        else:
            yield t


def comp(*fs: Term) -> Term:
    """Convenience: comp(h, g, f) is the normalized h∘g∘f."""
    if not fs:
        raise ValueError("comp() needs at least one term")
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = Comp(f, out)
    return normalize_assoc(out)
