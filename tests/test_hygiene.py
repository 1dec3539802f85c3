"""Source hygiene: no module of the package imports a name it never uses,
none imports inside a function from a module it already imports at top
level, none raises the interpreter's recursion limit, none recurses on
a derivation's premises, none but the kernel dispatches on a citation's
kind, none but `handle_term` coerces a handler, every name the traced
benchmark rebinds still exists, and the trusted kernel stands on its own.

`__init__.py` is left out of the import scan, since re-exporting is what
it imports for.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from decorlogic import cli, dsl, kernel, terms

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "decorlogic"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` binds by import and never reads, in order."""
    tree = ast.parse(source)
    bound: list[str] = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            for a in n.names:
                if a.name == "*" or (isinstance(n, ast.ImportFrom)
                                     and n.module == "__future__"):
                    continue
                bound.append(a.asname or a.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a name read only in a quoted annotation counts as used
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                expr = ast.parse(c.value, mode="eval")
                used |= {m.id for m in ast.walk(expr)
                         if isinstance(m, ast.Name)}
    return [name for name in bound if name not in used]


def _annotations(tree: ast.AST):
    for n in ast.walk(tree):
        if isinstance(n, ast.AnnAssign):
            yield n.annotation
        elif isinstance(n, ast.arg) and n.annotation is not None:
            yield n.annotation
        elif (isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
              and n.returns is not None):
            yield n.returns


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os", "b"]
    assert unused_imports("from x import T\ny: 'T' = 1\n") == []
    assert unused_imports("from x import T\ny = 'T'\n") == ["T"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _imported_modules(n: ast.AST) -> set[str]:
    """The modules an import statement reads, relative ones with their dots."""
    if isinstance(n, ast.Import):
        return {a.name for a in n.names}
    if isinstance(n, ast.ImportFrom):
        return {"." * n.level + (n.module or "")}
    return set()


def redundant_local_imports(source: str) -> list[int]:
    """Lines of `source` that import, inside a function, from a module the
    file already imports at top level. A local import that breaks an
    import cycle reads a module the top level does not."""
    tree = ast.parse(source)
    top = set().union(*map(_imported_modules, tree.body))
    return sorted({n.lineno for f in ast.walk(tree)
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for n in ast.walk(f) if _imported_modules(n) & top})


def test_the_scan_sees_a_redundant_local_import():
    source = ("import os\nfrom .a import b\n"
              "def f():\n    from .a import c\n    import os.path\n"
              "    from .z import y\n    from . import a\n"
              "    def g():\n        import os\n")
    assert redundant_local_imports(source) == [4, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_redundant_local_imports(path):
    assert redundant_local_imports(path.read_text(encoding="utf-8")) == []


def recursion_limit_uses(source: str) -> list[int]:
    """Lines of `source` that call setrecursionlimit or import it by name."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call):
            f = n.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name == "setrecursionlimit":
                lines.append(n.lineno)
        elif isinstance(n, ast.ImportFrom) and any(
                a.name == "setrecursionlimit" for a in n.names):
            lines.append(n.lineno)
    return sorted(lines)


def test_the_scan_sees_a_recursion_limit_change():
    assert recursion_limit_uses(
        "import sys\nsys.setrecursionlimit(9)\n"
        "from sys import setrecursionlimit as s\ns(9)\n") == [2, 3]
    assert recursion_limit_uses("import sys\nsys.getrecursionlimit()\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_recursion_limit_changes(path):
    assert recursion_limit_uses(path.read_text(encoding="utf-8")) == []


def premise_recursions(source: str) -> list[str]:
    """The functions of `source`, by dotted name, that read an attribute
    `premises` and call themselves, by name or as a method."""
    found = []

    def visit(tree: ast.AST, prefix: str) -> None:
        for n in ast.iter_child_nodes(tree):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = list(ast.walk(n))
                reads = any(isinstance(m, ast.Attribute)
                            and m.attr == "premises" for m in body)
                calls = any(isinstance(m, ast.Call) and getattr(
                    m.func, "id", getattr(m.func, "attr", None)) == n.name
                    for m in body)
                if reads and calls:
                    found.append(prefix + n.name)
                visit(n, prefix + n.name + ".")
            elif isinstance(n, ast.ClassDef):
                visit(n, prefix + n.name + ".")
            else:
                visit(n, prefix)

    visit(ast.parse(source), "")
    return found


def test_the_scan_sees_a_premise_recursion():
    source = ("class D:\n    def size(self):\n"
              "        return 1 + sum(p.size() for p in self.premises)\n"
              "def check(d):\n    def go(n):\n"
              "        return [go(p) for p in n.premises]\n    return go(d)\n"
              "def flat(d):\n    return [p for p in d.premises]\n"
              "def count(t):\n    return 1 + sum(count(k) for k in t.kids)\n")
    assert premise_recursions(source) == ["D.size", "check.go"]


def test_no_function_recurses_on_premises():
    """Each reader of a derivation goes through `Derivation.walk`, which
    visits each distinct node once without recursing, so none of them
    revisits a shared premise or exhausts the Python stack on a deep one."""
    assert [(p.name, f) for p in MODULES
            for f in premise_recursions(p.read_text(encoding="utf-8"))] == []


_CITERS = frozenset({"axiom_node", "gen_node", "hyp_node"})


def citation_dispatches(source: str) -> list[str]:
    """The functions of `source` that call more than one of the kernel's
    per-kind citation builders, by name or as an attribute."""
    found = []
    for f in ast.walk(ast.parse(source)):
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {getattr(n.func, "id", getattr(n.func, "attr", None))
                      for n in ast.walk(f) if isinstance(n, ast.Call)}
            if len(called & _CITERS) > 1:
                found.append(f.name)
    return found


def test_the_scan_sees_a_citation_dispatch():
    source = ("def build(th, kind, name):\n"
              "    if kind == 'axiom':\n        return axiom_node(th, name)\n"
              "    return kernel.gen_node(th, name)\n"
              "def one(th):\n    return axiom_node(th, 'A1_x')\n"
              "def via_cite(th, kind, name):\n"
              "    return cite(th, (kind, name))\n")
    assert citation_dispatches(source) == ["build"]


def test_citation_kinds_are_dispatched_only_in_the_kernel():
    """Every client builds a citation of any kind with `kernel.cite`, the
    constructor replay runs, rather than choosing among the per-kind
    builders itself."""
    assert [(p.name, f) for p in MODULES if p.name != "kernel.py"
            for f in citation_dispatches(p.read_text(encoding="utf-8"))] == []


def constructors_of(source: str, cls: str) -> list[str]:
    """The functions of `source` that call `cls`, by name or as an
    attribute, in order."""
    return [f.name for f in ast.walk(ast.parse(source))
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(n, ast.Call) and getattr(
                n.func, "id", getattr(n.func, "attr", None)) == cls
                for n in ast.walk(f))]


def test_the_scan_sees_a_constructor_call():
    source = ("def handle(t):\n    return Coerce(t)\n"
              "def lemma(t):\n    return terms.Coerce(t)\n"
              "def read(t):\n    return t.term, Coerce\n")
    assert constructors_of(source, "Coerce") == ["handle", "lemma"]


def test_only_handle_term_builds_a_handler():
    """A handler is coerce(case(id, chain) . body); the exceptions lemmas
    and laws take theirs from `handle_term`, which checks the body and the
    clauses, rather than coercing one of their own."""
    source = (PACKAGE / "exceptions.py").read_text(encoding="utf-8")
    assert constructors_of(source, "Coerce") == ["handle_term"]


def test_the_traced_benchmark_finds_every_name_it_rebinds():
    """`perfbench/run.py --trace` wraps names of cli and dsl by attribute;
    building its Tracer looks each one up, so a refactor that drops one
    fails here rather than in a traced run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    lib = SimpleNamespace(kernel=kernel, cli=cli, dsl=dsl, terms=terms)
    tracer = tracing.Tracer(lib)
    assert tracer._patches
    assert all(callable(orig) for _, _, orig, _ in tracer._patches)


def _classes(path: Path) -> list[ast.ClassDef]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]


def _is_term_class(c: ast.ClassDef) -> bool:
    names = {getattr(n, "id", None) for n in c.bases + c.decorator_list}
    return bool(names & {"Node", "term_class"})


def test_the_duality_and_the_explicit_terms_are_declared_once():
    """`terms.Side` is the one table of the duality, and `translators`
    adds to the pure fragment only the pairing and the copairing."""
    sides = [(p.name, c.name) for p in MODULES for c in _classes(p)
             if c.name.endswith("Side")]
    assert sides == [("terms.py", "Side")]
    assert {c.name for c in _classes(PACKAGE / "translators.py")
            if _is_term_class(c)} == {"EPair", "ECase"}


def _package_imports(nodes) -> set[str]:
    """The package modules that the import statements among `nodes` read."""
    out: set[str] = set()
    for n in nodes:
        if isinstance(n, ast.ImportFrom) and n.level:
            out |= {n.module} if n.module else {a.name for a in n.names}
    return out


def test_the_kernel_is_the_trust_boundary():
    """At top level the kernel imports from the package only the modules
    its rules read; the one local import is the prover's finite-model
    check. No other module builds a `Derivation` but through the kernel."""
    tree = ast.parse((PACKAGE / "kernel.py").read_text(encoding="utf-8"))
    assert _package_imports(tree.body) == {"errors", "terms", "theory",
                                           "types"}
    assert {(f.name, m) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef)
            for m in _package_imports(ast.walk(f))} == {("_refute", "models")}
    builders = {p.name for p in PACKAGE.glob("*.py")
                for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                if isinstance(n, ast.Call)
                and getattr(n.func, "id", getattr(n.func, "attr", None))
                == "Derivation"}
    assert builders == {"kernel.py"}
