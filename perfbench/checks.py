"""Judge each request's output against the answer its generator wrote.

A verdict is one of
    decided    the answer is right and decisive
    undecided  a `prove` that ended `unknown`: honest, but no answer
    wrong      a wrong verdict, value or witness, a derivation the kernel
               rejects, or a report the script language refused
    crash      an exception escaped the program (RecursionError included)
`wrong` and `crash` are failed requests.  Derivations in reports are
rebuilt as proof blocks and replayed through the kernel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Verdict:
    status: str
    reason: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.status in ("wrong", "crash")


def _wrong(reason: str, **counts) -> Verdict:
    return Verdict("wrong", reason, counts)


def judge(req, outcome, lib) -> Verdict:
    """`outcome` is ('raised', text), ('cli', code, report bytes, stderr)
    or ('library', result)."""
    if outcome[0] == "raised":
        return Verdict("crash", outcome[1])
    if outcome[0] == "library":
        return _judge_library(req, outcome[1])
    _, code, payload, err = outcome
    if code == 2:
        return _wrong(f"script refused: {err.strip()}")
    try:
        report = json.loads(payload)
    except ValueError as exc:
        return _wrong(f"report is not JSON: {exc}")
    cmds = report.get("commands", [])
    if code != (0 if report.get("ok") else 1):
        return _wrong(f"exit code {code} disagrees with ok={report.get('ok')}")
    counts = {"commands": len(cmds)}
    if req.kind == "decls":
        if cmds or not report.get("ok"):
            return _wrong("a declarations-only script ran commands", **counts)
        return Verdict("decided", counts=counts)
    if req.kind == "eval":
        return _judge_eval(req, cmds, counts)
    if len(cmds) != 1:
        return _wrong(f"expected one command, got {len(cmds)}", **counts)
    cmd = cmds[0]
    detail = cmd["detail"]
    if "error" in detail and req.kind != "check":
        return _wrong(f"command error: {detail['error']}", **counts)
    if req.kind == "prove":
        return _judge_prove(req, detail, counts, lib)
    if req.kind == "check":
        return _judge_check(req, detail, counts, lib)
    if req.kind == "lemma":
        if detail.get("valid") is not True:
            return _wrong("lemma derivation rejected", **counts)
        counts["replay_nodes"] = detail["nodes"]
        return Verdict("decided", counts=counts)
    if req.kind == "verify":
        laws = detail["laws"]
        counts["points"] = sum(r["points"] for r in laws)
        counts["laws"] = len(laws)
        bad = [r["name"] for r in laws if r["status"] != "holds"]
        if bad or not cmd["ok"]:
            return _wrong(f"laws reported false: {bad}", **counts)
        return Verdict("decided", counts=counts)
    if req.kind == "translate":
        return _judge_translate(req, detail, counts)
    raise ValueError(f"unknown request kind {req.kind!r}")


def _judge_library(req, result) -> Verdict:
    counts = {"points": result.points, "laws": 1}
    want = req.expect
    if result.status != want["status"]:
        return _wrong(f"status {result.status}, expected {want['status']}",
                      **counts)
    if result.witness != want["witness"]:
        return _wrong(f"witness {result.witness} != {want['witness']}",
                      **counts)
    return Verdict("decided", counts=counts)


def _judge_eval(req, cmds, counts) -> Verdict:
    want = req.expect["results"]
    if len(cmds) != len(want):
        return _wrong(f"{len(cmds)} eval results for {len(want)} evals",
                      **counts)
    for n, (cmd, exp) in enumerate(zip(cmds, want)):
        detail = cmd["detail"]
        if not cmd["ok"]:
            return _wrong(f"eval {n} failed: {detail.get('error')}", **counts)
        got = {k: detail.get(k) for k in exp}
        if got != exp:
            return _wrong(f"eval {n}: got {got}, reference {exp}", **counts)
    return Verdict("decided", counts=counts)


def _judge_prove(req, detail, counts, lib) -> Verdict:
    want = req.expect
    status = detail.get("status")
    counts["facts"] = detail.get("facts")
    counts["rounds"] = detail.get("rounds")
    if status == "unknown":
        return Verdict("undecided", detail.get("reason", ""), counts)
    if status == "refuted":
        if want["truth"]:
            return _wrong("a true goal was refuted", **counts)
        return Verdict("decided", counts=counts)
    if status != "proven":
        return _wrong(f"unknown prove status {status!r}", **counts)
    if not want["truth"]:
        return _wrong("a false goal was proven", **counts)
    counts["proof_nodes"] = detail.get("nodes")
    ok, concl, err = replay(lib, want["decls"], want["theory"], detail["tree"])
    if not ok:
        return _wrong(f"kernel rejects the returned derivation: {err}",
                      **counts)
    if concl != want["goal"]:
        return _wrong(f"derivation concludes {concl!r}, goal {want['goal']!r}",
                      **counts)
    return Verdict("decided", counts=counts)


def _judge_check(req, detail, counts, lib) -> Verdict:
    if detail.get("valid") is not True:
        return _wrong(f"proof rejected: {detail.get('error')}", **counts)
    counts["replay_nodes"] = detail["nodes"]
    ok, concl, err = replay(lib, req.expect["decls"], req.expect["theory"],
                            detail["tree"])
    if not ok or concl != detail["conclusion"]:
        return _wrong(f"replayed tree disagrees: {err or concl}", **counts)
    return Verdict("decided", counts=counts)


def _judge_translate(req, detail, counts) -> Verdict:
    want = req.expect
    if "collapses" in want:
        got = [r["axiom"] for r in detail["axioms"] if r["collapses"]]
        every = [r["axiom"] for r in detail["axioms"]]
        if got != want["collapses"] or every != want["collapses"]:
            return _wrong(f"collapsing axioms {got}, expected "
                          f"{want['collapses']}", **counts)
        return Verdict("decided", counts=counts)
    if detail["dsl"] != want["dsl"]:
        return _wrong(f"declared {detail['dsl']!r}, expected {want['dsl']!r}",
                      **counts)
    if detail["theory"]["axioms"] != want["axioms"]:
        return _wrong("translated axioms differ from the paper's", **counts)
    return Verdict("decided", counts=counts)


# ------------------------------------------------------------------ replay

def proof_block(tree: dict) -> str:
    """The report's nested tree as proof-block steps, shared subtrees once."""
    steps: list[str] = []
    labels: dict[str, str] = {}

    def walk(n: dict) -> str:
        key = json.dumps(n, sort_keys=True)
        if key in labels:
            return labels[key]
        prem = [walk(p) for p in n["premises"]]
        rule = n["rule"]
        if rule.startswith("hyp("):
            head = f"{rule} holds {n['conclusion']}"
        elif rule.startswith(("axiom(", "gen(")) or not n["inst"]:
            head = rule
        else:
            args = ", ".join(f"{k}={v}" for k, v in n["inst"].items())
            head = f"{rule}({args})"
        label = f"s{len(steps) + 1}"
        tail = f" from {', '.join(prem)}" if prem else ""
        steps.append(f"  {label}: {head}{tail};")
        labels[key] = label
        return label

    walk(tree)
    return "\n".join(steps)


def replay(lib, decls: str, theory: str, tree: dict):
    """Rebuild the derivation in a fresh script and let the kernel check it.

    Returns (valid, conclusion, error)."""
    text = (f"{decls}proof replayed in {theory} {{\n{proof_block(tree)}\n}}\n"
            f"check proof replayed in {theory}\n")
    try:
        report = lib.dsl.execute(lib.dsl.parse_script(text),
                                 lib.dsl.ExecConfig(mode="check"))
    except lib.errors.DecorError as exc:
        return False, None, f"replay script refused: {exc}"
    out = report.outcomes[-1]
    return out.ok, out.detail.get("conclusion"), out.detail.get("error")
