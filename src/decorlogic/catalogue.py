"""Lemma catalogues: each side's library lemmas and built-in proofs,
declared once with their parameters, and the readers that build them.
The script front end parses, prints and defaults lemma arguments from the
same entries.

The constructions both sides share are written here once against a
`terms.Side`: the theory signature, the annihilation law, the semi-pure
pair and the unit-uniqueness derivation. On the exceptions side each
reads as the dual of its states reading."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from . import errors as E
from .kernel import Derivation, node, read_on
from .terms import Id, Side, TERM_CLASSES, Term, normalize_assoc
from .theory import Axiom, Equation, Theory, eq_strong, eq_weak, typecheck
from .types import TYPE_CLASSES

# what the value of a term or type parameter must be
_CLASSES = {"term": TERM_CLASSES, "type": TYPE_CLASSES}


def signature(side: Side, name: str, indices) -> Theory:
    """The theory over `indices` with its two weak axiom families, A1/A2 on
    the states side and B1/B2 on the exceptions side:

        A1_i:   l[i] . u[i]  ~~  id[V[i]]            read back what you wrote
        A2_i_j: l[j] . u[i]  ~~  l[j] . unit[V[i]]   (j != i) others untouched
    """
    ix = tuple(indices)
    if len(set(ix)) != len(ix) or not ix:
        raise E.BadParams(f"{side.index_word}s must be non-empty and distinct")
    a, then = side.axiom, side.then
    axioms = [Axiom(f"{a}1_{i}", eq_weak(then(side.lookup(i), side.update(i)),
                                         Id(side.slot(i))))
              for i in ix]
    axioms += [Axiom(f"{a}2_{i}_{j}",
                     eq_weak(then(side.lookup(j), side.update(i)),
                             then(side.lookup(j), side.to_unit(side.slot(i)))))
               for i in ix for j in ix if j != i]
    return Theory(name, side.flavor, locations=() if side.op else ix,
                  constructors=ix if side.op else (), axioms=tuple(axioms))


def annihilation(side: Side, i: str) -> Equation:
    """Reading i and writing it back changes nothing: u[i] . l[i] == id[1]."""
    return eq_strong(side.then(side.update(i), side.lookup(i)),
                     Id(side.unit()))


def semi_pure(side: Side, theory: Theory, pure: Term, eff: Term,
              pure_on_left: bool = True) -> Term:
    """The semi-pure pair (states) or case (exceptions) of a pure map and
    an arbitrary one, typechecked against the theory."""
    t = side.semi(normalize_assoc(pure), normalize_assoc(eff), pure_on_left)
    typecheck(theory, t)
    return t


def unit_uniqueness(side: Side, theory: Theory, f: Term) -> Derivation:
    """f == unit[X] for any accessor f: X -> 1 (three nodes); on the
    exceptions side, f == empty[Y] for any propagator f: 0 -> Y."""
    f = normalize_assoc(f)
    typecheck(theory, f)
    if theory.flavor != "plain" and f.level > 1:
        error = E.NotAPropagator if side.op else E.NotAnAccessor
        raise error(f"{f} is level {f.level}")
    n1 = node(theory, read_on(side, "w-final"), f=f)
    n2 = node(theory, read_on(side, "unit-arrow"), at=side.src(f))
    return node(theory, read_on(side, "w-to-s"), [n1, n2])


@dataclass(frozen=True)
class Entry:
    """A lemma or built-in proof, built as `build(theory, **values)`.

    `params` are its parameters in order, (key, kind) pairs with the kinds
    "name", "term" and "type" of `kernel.RuleSpec.keys`; the last
    `optional` may be left out, and `extra` are optional term keywords
    only a library caller passes. `check proof NAME` takes name parameters
    from the theory's indices in order (the last one again where it has
    too few) and a term parameter from `example(first index)`. A built-in
    takes every parameter from the indices; `too_few` says it has too few.
    """

    build: Callable[..., Derivation]
    params: tuple[tuple[str, str], ...] = (("i", "name"),)
    optional: int = 0
    extra: tuple[str, ...] = ()
    example: Optional[Callable[[str], Any]] = None
    too_few: str = ""

    @property
    def required(self) -> int:
        return len(self.params) - self.optional


@dataclass(frozen=True)
class Catalogue:
    """One side's lemmas and built-in proofs, by name."""

    side: Side  # the side whose theories a lemma needs
    lemmas: Mapping[str, Entry]
    builtins: Mapping[str, Entry]

    def derive_lemma(self, theory: Theory, lemma_id: str,
                     params=None) -> Derivation:
        """Build a lemma from `params`, key -> value; other keys are ignored."""
        p, side = dict(params or {}), self.side
        flavor = side.flavor
        if theory.flavor != flavor:
            raise E.BadParams(f"{flavor} lemmas need {side.a_theory}")
        if lemma_id not in self.lemmas:
            raise E.UnknownLemma(f"no {flavor} lemma {lemma_id!r} "
                                 f"(expected one of {', '.join(self.lemmas)})")
        entry = self.lemmas[lemma_id]
        values = {}
        extra = tuple((key, "term") for key in entry.extra)
        for k, (key, kind) in enumerate(entry.params + extra):
            if key not in p:
                if k < entry.required:
                    raise E.BadParams(
                        f"lemma {lemma_id!r} needs parameter {key!r}")
                continue
            v = p[key]
            if kind == "name" and v not in side.indices(theory):
                raise E.UnknownIndex(f"unknown {side.index_word} {v!r}")
            if kind in _CLASSES and not isinstance(v, _CLASSES[kind]):
                if v is None and k >= entry.required:
                    continue  # an optional parameter left out
                raise E.BadInstantiation(
                    f"{lemma_id}: {key!r} must be a {kind}")
            values[key] = v
        return entry.build(theory, **values)

    def default_params(self, theory: Theory, lemma_id: str) -> dict[str, Any]:
        """The parameters `check proof NAME` builds a lemma with."""
        entry, ix = self.lemmas[lemma_id], self.side.indices(theory)
        return {key: entry.example(ix[0]) if kind == "term"
                else ix[min(k, len(ix) - 1)]
                for k, (key, kind) in enumerate(entry.params[:entry.required])}

    def builtin_proof(self, theory: Theory, name: str) -> Derivation:
        """Build a built-in proof at the theory's first indices."""
        if name not in self.builtins:
            raise E.UnknownLemma(f"no built-in proof {name!r}")
        entry, ix = self.builtins[name], self.side.indices(theory)
        if len(ix) < len(entry.params):
            raise E.BadParams(entry.too_few.format(name=name, n=len(ix)))
        return entry.build(theory, **{key: i for (key, _), i
                                      in zip(entry.params, ix)})
