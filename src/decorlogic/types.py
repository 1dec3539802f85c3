"""Object-language types.

The three logics share one small type grammar:

    T ::= 1 | 0 | V[i] | P[i] | N | T * T | T + T

`V[i]` is the value type of storage location i (states side), `P[i]` the
parameter type of exception constructor i (exceptions side), `N` a named base
type for user generators. Which of these a given theory admits is decided by
`theory.typecheck`, not here; this module only defines the syntax, equality,
and printing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union, get_args


@dataclass(frozen=True)
class Unit:
    """The terminal type 1 (singleton carrier)."""

    def __str__(self) -> str:
        return "1"


@dataclass(frozen=True)
class Empty:
    """The initial type 0 (empty carrier)."""

    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True)
class Value:
    """V[i]: what is stored at location i."""

    index: str

    def __str__(self) -> str:
        return f"V[{self.index}]"


@dataclass(frozen=True)
class Param:
    """P[i]: the argument carried by exceptions of name i."""

    index: str

    def __str__(self) -> str:
        return f"P[{self.index}]"


@dataclass(frozen=True)
class Named:
    """A base type interpreted only by a model's valuation."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Prod:
    left: "TypeExpr"
    right: "TypeExpr"

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class Coprod:
    left: "TypeExpr"
    right: "TypeExpr"

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


TypeExpr = Union[Unit, Empty, Value, Param, Named, Prod, Coprod]
TYPE_CLASSES = get_args(TypeExpr)

UNIT = Unit()
EMPTY = Empty()
