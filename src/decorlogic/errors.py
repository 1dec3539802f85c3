"""Exception hierarchy for the whole package.

Everything raised on purpose derives from DecorError so callers (and the CLI)
can catch one thing. The distinction that matters in practice:

* TypingError and its children fire while *building* terms and theories;
* KernelError children fire while applying rules / checking derivations;
* ModelError children fire in the finite-model evaluator;
* ScriptError children fire in the DSL front end.
"""

from __future__ import annotations


class DecorError(Exception):
    """Base class for all errors raised by decorlogic."""


# ---------------------------------------------------------------- typing

class TypingError(DecorError):
    """A term or type does not belong to the theory it was used with."""


class UnknownIndex(TypingError):
    """A location / exception-constructor index is not declared."""


class UnknownGenerator(TypingError):
    """A named generator is not declared in the theory's signature."""


class FlavorViolation(TypingError):
    """A construct was used in a theory flavor that does not admit it."""


class CompositionMismatch(TypingError):
    """cod(before) != dom(after) in a composite."""


class NotAnAccessor(TypingError):
    """A term required to be level <= 1 (states side) is a modifier."""


class NotAPropagator(TypingError):
    """A term required to be level <= 1 (exceptions side) is a catcher."""


class PureSideRequired(TypingError):
    """The pure factor of a semi-pure pairing must be level 0."""


class IncompleteFamily(TypingError):
    """A tuple/cotuple family does not cover every index exactly once."""


class EmptyHandler(TypingError):
    """A handler was built with no catch clause."""


class CodomainMismatch(TypingError):
    """Handler clauses, case branches or cotuple components must share one
    codomain."""


class DomainMismatch(TypingError):
    """Tuple components must share one domain (the dual of CodomainMismatch)."""


# ---------------------------------------------------------------- kernel

class KernelError(DecorError):
    """Raised when a rule application or derivation is ill-formed."""


class UnknownRule(KernelError):
    pass


class RuleNotInFlavor(KernelError):
    """The rule exists but is not available in this theory's flavor."""


class BadPremises(KernelError):
    """Premise count or premise shapes do not fit the rule."""


class BadInstantiation(KernelError):
    """Missing/extra instantiation keys, or values of the wrong kind."""


class SideConditionViolated(KernelError):
    """A decoration or typing side condition of the rule fails."""


class UnknownAxiom(KernelError):
    pass


class UnknownLemma(KernelError):
    pass


class BadParams(KernelError):
    """Lemma or built-in proof parameters are unusable (e.g. i == j)."""


# ---------------------------------------------------------------- models

class ModelError(DecorError):
    pass


class CarrierMissing(ModelError):
    """No finite carrier assigned to a named base type."""


class NoInterpretation(ModelError):
    """A custom generator has no table in the model's valuation."""


class SearchSpaceTooLarge(ModelError):
    """Exhaustive check would exceed the enumeration bound."""


class SuiteUnknown(ModelError):
    pass


# ---------------------------------------------------------------- duality

class OutsideDualityDomain(DecorError):
    """dualize() hit a construct with no counterpart on the other side."""


# ------------------------------------------------------------------- dsl

class ScriptError(DecorError):
    """Base for DSL front-end errors; carries a source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}:{col}: {message}"
        super().__init__(message)


class LexError(ScriptError):
    pass


class ParseError(ScriptError):
    pass


class ExecError(ScriptError):
    """A directive referenced something that does not exist."""
