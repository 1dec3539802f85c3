"""Equational reasoning for programs with effects, without leaving equations.

Terms carry a decoration (0 pure, 1 observers, 2 mutators) and equations
come in two strengths: strong (same result, same effect) and weak (same
result only). The package bundles a proof kernel over these judgments,
ready-made theories for global state and for exceptions, translations
between the decorated and explicit presentations, a duality swapping the
two effect readings, finite models to test everything against, and a small
script language with a command line front end.
"""

from .errors import (DecorError, KernelError, ModelError, ScriptError,
                     TypingError)
from .types import (Coprod, EMPTY, Empty, Named, Param, Prod, TypeExpr,
                    UNIT, Unit, Value)
from .terms import (CaseSum, Catch, CatchAll, Coerce, Comp, ConstCotuple,
                    FromEmpty, Gen, Id, Inj1, Inj2, LocTuple, Lookup,
                    PropCase, Proj1, Proj2, SemiCoprod, SemiProd, Term,
                    Throw, ToUnit, Update, comp, normalize_assoc,
                    term_size, term_to_text)
from .theory import (Axiom, Equation, STRONG, Theory, WEAK, eq_strong,
                     eq_weak, infer_decoration, typecheck,
                     typecheck_equation)
from .kernel import (CheckResult, Derivation, Holds, ProveResult, RULES,
                     WellFormed, apply_rule, axiom_node, check_derivation,
                     gen_node, hyp_node, list_rules, node, saturate_prove)
from .states import (build_states_theory, seven_equation_goals,
                     semi_pure_product)
from .states import LEMMAS as STATE_LEMMAS
from .states import builtin_proof as states_builtin_proof
from .states import derive_lemma as derive_states_lemma
from .exceptions import (build_exceptions_theory, handle_term, raise_term,
                         semi_pure_coproduct, with_catch_all)
from .exceptions import LEMMAS as EXCEPTION_LEMMAS
from .exceptions import builtin_proof as exceptions_builtin_proof
from .exceptions import derive_lemma as derive_exceptions_lemma
from .translators import (dualize_derivation, dualize_equation,
                          dualize_term, dualize_theory, erase_derivation,
                          erase_equation, erase_theory, eval_explicit,
                          expand_exceptions, expand_exceptions_equation,
                          expand_states, expand_states_equation)
from .models import (FiniteExceptionModel, FiniteStateModel, LawResult,
                     SuiteReport, Valuation, check_equation,
                     eval_exceptions, eval_states, observational_equiv,
                     verify_law_suite)
from .dsl import (ExecConfig, Report, Script, build_proof,
                  derivation_to_proof, emit_report, execute, parse_script,
                  print_script)

__version__ = "0.1.0"

__all__ = [
    "DecorError", "KernelError", "ModelError", "ScriptError", "TypingError",
    "Coprod", "EMPTY", "Empty", "Named", "Param", "Prod", "TypeExpr",
    "UNIT", "Unit", "Value",
    "CaseSum", "Catch", "CatchAll", "Coerce", "Comp", "ConstCotuple",
    "FromEmpty", "Gen", "Id", "Inj1", "Inj2", "LocTuple", "Lookup",
    "PropCase", "Proj1", "Proj2", "SemiCoprod", "SemiProd", "Term",
    "Throw", "ToUnit", "Update", "comp", "normalize_assoc", "term_size",
    "term_to_text",
    "Axiom", "Equation", "STRONG", "Theory", "WEAK", "eq_strong", "eq_weak",
    "infer_decoration", "typecheck", "typecheck_equation",
    "CheckResult", "Derivation", "Holds", "ProveResult", "RULES",
    "WellFormed", "apply_rule", "axiom_node", "check_derivation",
    "gen_node", "hyp_node", "list_rules", "node", "saturate_prove",
    "build_states_theory", "seven_equation_goals", "semi_pure_product",
    "STATE_LEMMAS", "states_builtin_proof", "derive_states_lemma",
    "build_exceptions_theory", "handle_term", "raise_term",
    "semi_pure_coproduct", "with_catch_all", "EXCEPTION_LEMMAS",
    "exceptions_builtin_proof", "derive_exceptions_lemma",
    "dualize_derivation", "dualize_equation", "dualize_term",
    "dualize_theory", "erase_derivation", "erase_equation", "erase_theory",
    "eval_explicit", "expand_exceptions", "expand_exceptions_equation",
    "expand_states", "expand_states_equation",
    "FiniteExceptionModel", "FiniteStateModel", "LawResult", "SuiteReport",
    "Valuation", "check_equation", "eval_exceptions", "eval_states",
    "observational_equiv", "verify_law_suite",
    "ExecConfig", "Report", "Script", "build_proof", "derivation_to_proof",
    "emit_report", "execute", "parse_script", "print_script",
]
