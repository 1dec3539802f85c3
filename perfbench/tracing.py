"""Spans and counts around the library calls the CLI and DSL make.

The traced run rebinds names that `decorlogic.cli` and `decorlogic.dsl`
imported (`dsl.saturate_prove`, `cli.emit_report`, ...) to wrappers
that record a span, and puts the originals back after each request.
Nothing under src/ changes; calls a module makes to its own functions
are not seen, so `kernel.prove` is one span per search.

A span is [name, start_ns, end_ns, parent, request, counts]; spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# CPU time, like the request times in run.py
perf_ns = time.process_time_ns


def _lines(args, kwargs, out):
    return {"lines": args[0].count("\n") + 1}


def _commands(args, kwargs, out):
    return {"commands": len(out.outcomes)}


def _bytes(args, kwargs, out):
    return {"bytes": len(out)}


def _replay(args, kwargs, out):
    return {"nodes": out.nodes}


def _derived(args, kwargs, out):
    return {"nodes": len(out)}


def _laws(args, kwargs, out):
    return {"points": sum(r.points for r in out.results),
            "laws": len(out.results),
            "refuted": sum(not r.holds for r in out.results)}


def law_counts(out):
    """Counts for a library check_equation result."""
    return {"points": out.points, "laws": 1, "refuted": int(not out.holds)}


def _axiom_nodes(lib):
    def count(args, kwargs, out):
        return {"nodes": sum(lib.terms.term_size(a.eq.lhs)
                             + lib.terms.term_size(a.eq.rhs)
                             for a in out.axioms)}
    return count


def _search(cap):
    def count(args, kwargs, out):
        hit = out.reason.startswith("fact cap")
        c = {"facts": out.facts, "rounds": out.rounds,
             "proven": int(out.proven),
             "proven_facts": out.facts if out.proven else 0,
             "cap_hits": int(hit),
             "capped_facts": out.facts if hit else 0,
             "caps": kwargs.get("fact_cap", cap) if hit else 0}
        if out.derivation is not None:
            c["proof_nodes"] = len(out.derivation)
        return c
    return count


def _targets(lib):
    """(module, imported name, span name, counter) for every traced call."""
    cap = inspect.signature(
        lib.kernel.saturate_prove).parameters["fact_cap"].default
    cli, dsl = lib.cli, lib.dsl
    return [
        (cli, "parse_script", "dsl.parse", _lines),
        (cli, "execute", "dsl.execute", _commands),
        (cli, "emit_report", "cli.emit", _bytes),
        (dsl, "typecheck", "theory.typecheck", None),
        (dsl, "typecheck_equation", "theory.typecheck", None),
        (dsl, "term_to_text", "terms.text", None),
        (dsl, "check_derivation", "kernel.replay", _replay),
        (dsl, "saturate_prove", "kernel.prove", _search(cap)),
        (dsl, "build_states_theory", "states.build", None),
        (dsl, "_states_lemma", "states.derive", _derived),
        (dsl, "_states_builtin", "states.derive", _derived),
        (dsl, "build_exceptions_theory", "exceptions.build", None),
        (dsl, "with_catch_all", "exceptions.build", None),
        (dsl, "_exc_lemma", "exceptions.derive", _derived),
        (dsl, "_exc_builtin", "exceptions.derive", _derived),
        (dsl, "verify_law_suite", "models.check", _laws),
        (dsl, "eval_states", "models.eval", None),
        (dsl, "eval_exceptions", "models.eval", None),
        (dsl, "erase_theory", "translators.erase", None),
        (dsl, "dualize_theory", "translators.dualize", _axiom_nodes(lib)),
        (dsl, "expand_states_equation", "translators.expand", None),
        (dsl, "expand_exceptions_equation", "translators.expand", None),
    ]


class Tracer:
    def __init__(self, lib):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None
        self._patches = []
        for module, attr, name, count in _targets(lib):
            orig = getattr(module, attr)
            self._patches.append((module, attr, orig,
                                  self._wrap(name, orig, count)))

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[5] = count(args, kwargs, out)
            return out
        return traced

    def _open(self, name):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1,
               self._request, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_ns()
        return rec

    def _close(self, rec):
        rec[2] = perf_ns()
        self._stack.pop()

    @contextmanager
    def request(self, request_id, root: str, patched: bool):
        """One request: a root span, and the names rebound if `patched`."""
        self._request = request_id
        if patched:
            for module, attr, _, wrapped in self._patches:
                setattr(module, attr, wrapped)
        rec = self._open(root)
        try:
            yield rec
        finally:
            self._close(rec)
            if patched:
                for module, attr, orig, _ in self._patches:
                    setattr(module, attr, orig)
            self._request = None


# ----------------------------------------------------------------- reports

def self_times(spans) -> list[int]:
    """Each span's duration less the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def pass_totals(spans, pass_of) -> dict:
    """Per pass: total and self seconds, calls and summed counts by span."""
    own = self_times(spans)
    per = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for s, self_ns in zip(spans, own):
        row = per[pass_of(s[4])][s[0]]
        row["s"] += (s[2] - s[1]) / 1e9
        row["self_s"] += self_ns / 1e9
        row["calls"] += 1
        for k, v in (s[5] or {}).items():
            row[k] += v
    return per


def module_table(spans, keep) -> dict:
    """Self seconds by module (the span name before the first dot), over
    the spans whose request satisfies `keep`."""
    out: dict = defaultdict(float)
    for s, self_ns in zip(spans, self_times(spans)):
        if keep(s[4]):
            out[s[0].split(".", 1)[0]] += self_ns / 1e9
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                              "request", "counts"], "spans": spans}, fh)
