#!/usr/bin/env python3
"""The decorlogic benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload prove-search --seed 1 \
        --seconds 15 --trace 0

Run from the root of a checkout; decorlogic is imported from its src/.
A single client sends one request at a time (a closed loop, no threads):
a generated `.dec` script run in-process through `decorlogic.cli.main`
with `--format json`, or a call to `check_equation`.  Every request is
timed from outside, in CPU time (see cpu_seconds), and its answer
checked against the one its generator worked out independently (see
checks.py).

After a short warm-up (WARMUP_S), whole passes over the workload run
until --seconds have gone by (at least MIN_PASSES).  With --trace 1
untraced and traced passes alternate; the spans give the per-module
numbers and the tracing overhead.  The last line of standard output is
one JSON object: end-to-end metrics with --trace 0,
per-module metrics with --trace 1.  The exit code is 0 when every
answer was right (a crashed request counts as failed, not as wrong),
1 when one was wrong, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 5          # set-up is repeated and its median reported
MIN_PASSES = 2      # passes per run, however long one takes, so that every
                    # request's report bytes are compared at least once
WARMUP_S = 2.0      # CPU seconds of untimed requests before the first pass
# coarse steps, so that the percentile picked does not change when a run
# fits one pass more or less
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_BEYOND = 10    # samples that must lie above the reported tail
MODULES = ("cli", "dsl", "errors", "exceptions", "kernel", "models",
           "states", "terms", "theory", "translators", "types")


class _Capture:
    """Stands in for sys.stdout: the CLI writes its report to .buffer."""

    def __init__(self):
        self.buffer = io.BytesIO()

    def write(self, text):
        self.buffer.write(text.encode("utf-8"))

    def flush(self):
        pass


def cpu_seconds() -> float:
    """CPU time (user and system) of this process and its reaped children.

    Requests, passes and set-up are timed in CPU time, not wall time.  On
    a shared virtual machine the wall time of the same work swings by
    1.5-2x while the host deschedules the virtual CPU, and its CPU time
    stays within a few percent.  decorlogic runs on one thread and does
    no waiting, so on an idle machine the two agree; wall times are
    printed alongside."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def load_library() -> SimpleNamespace:
    """Import decorlogic afresh from this checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "decorlogic" or m.startswith("decorlogic.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"decorlogic.{m}") for m in MODULES}
    where = Path(sys.modules["decorlogic"].__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"decorlogic was imported from {where}, not {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate the requests from the seed, write the scripts."""
    import workloads
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    lib = load_library()
    reqs = workloads.BUILDERS[workload](seed, lib)
    for n, req in enumerate(reqs):
        if req.text is not None:
            req.path = str(workdir / f"{n:02d}-{req.rid}.dec")
            Path(req.path).write_text(req.text, encoding="utf-8")
    return lib, reqs


def call(req, lib):
    """Send one request; never raises for what the program does."""
    if req.call is not None:
        try:
            return ("library", req.call())
        except Exception as exc:  # a crash is a failed request, not ours
            return ("raised", _describe(exc))
    out, err = _Capture(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = lib.cli.main([req.mode, req.path, "--format", "json"])
    except Exception as exc:  # RecursionError and friends
        return ("raised", _describe(exc))
    finally:
        sys.stdout, sys.stderr = saved
    return ("cli", code, out.buffer.getvalue(), err.getvalue())


def _describe(exc: BaseException) -> str:
    frames = traceback.extract_tb(exc.__traceback__)
    where = f" in {frames[-1].name}" if frames else ""
    return f"{type(exc).__name__}{where}: {str(exc)[:120]}"


def _digest(outcome) -> str:
    if outcome[0] == "cli":
        body = repr(outcome[1]).encode() + outcome[2]
    else:
        body = repr(outcome[1:]).encode()
    return hashlib.sha256(body).hexdigest()


class Runner:
    def __init__(self, lib, reqs, tracer=None):
        import checks
        import tracing
        self.law_counts = tracing.law_counts
        self.judge = checks.judge
        self.verdict_cls = checks.Verdict
        self.lib, self.reqs, self.tracer = lib, reqs, tracer
        self.reference = {}     # request index -> digest of its first reply
        self.known = {}         # digest -> verdict, so equal bytes judge once
        # (label, cpu_s, [request cpu s], [verdicts], wall_s)
        self.passes = []

    def run_pass(self, label: str) -> None:
        gc.collect()
        traced = label == "traced"
        tracer = self.tracer
        times, outcomes = [], []
        start, wall_start = cpu_seconds(), time.perf_counter()
        for n, req in enumerate(self.reqs):
            t0 = cpu_seconds()
            if tracer is None:
                out = call(req, self.lib)
            else:
                root = "cli.main" if req.call is None else "models.check"
                with tracer.request((len(self.passes), n), root,
                                    traced) as rec:
                    out = call(req, self.lib)
                if req.call is not None and out[0] == "library":
                    rec[5] = self.law_counts(out[1])
            times.append(cpu_seconds() - t0)
            outcomes.append(out)
        spent = cpu_seconds() - start
        wall = time.perf_counter() - wall_start
        verdicts = []
        for n, (req, out) in enumerate(zip(self.reqs, outcomes)):
            dig = _digest(out)
            ref = self.reference.setdefault(n, dig)
            if dig not in self.known:
                self.known[dig] = self.judge(req, out, self.lib)
            v = self.known[dig]
            if dig != ref:
                v = self.verdict_cls("wrong", "report bytes differ from the "
                                     "first reply", v.counts)
            verdicts.append(v)
        self.passes.append((label, spent, times, verdicts, wall))

    def warm_up(self, seconds: float) -> None:
        """Send requests in pass order, untimed, until they have taken
        `seconds` of CPU time: the first calls' costs stay out of the
        figures without a whole extra pass of the long workloads.  The
        replies become the reference that later report bytes must equal."""
        start = cpu_seconds()
        for n, req in enumerate(self.reqs):
            if cpu_seconds() - start >= seconds:
                break
            self.reference[n] = _digest(call(req, self.lib))

    def run_for(self, labels, seconds: float, at_least: int) -> None:
        """Run rounds of one pass per label until `seconds` have gone by
        and `at_least` passes have run."""
        start, done = time.perf_counter(), 0
        while (done * len(labels) < at_least
               or time.perf_counter() - start < seconds):
            for label in labels:
                self.run_pass(label)
            done += 1

    def measured(self, *labels):
        return [p for p in self.passes if p[0] in labels]


# ---------------------------------------------------------------- metrics

def tail(samples):
    """Highest ladder percentile with TAIL_BEYOND samples above it.

    Percentiles interpolate between neighbouring samples, as
    statistics.quantiles(method="inclusive") does, so the 50th is the
    median, which is also the fallback when there are too few samples.
    A nearest-rank tail over the few samples of the long workloads would
    be the fastest sample of one request.  Returns (percentile, value,
    samples beyond it)."""
    xs = sorted(samples)
    n = len(xs)

    def at(pct):
        pos = pct / 100.0 * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        return (pct, xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), n - 1 - lo)

    best = at(50.0)
    for pct in TAIL_LADDER:
        if at(pct)[2] >= TAIL_BEYOND:
            best = at(pct)
    return best


def exact_counts(verdicts) -> dict:
    """Program counts from one pass's reports; they repeat exactly."""
    total = {"commands": 0, "facts": 0, "proof_nodes": 0, "points": 0}
    per_goal = {}
    for req, v in verdicts:
        for k in total:
            total[k] += v.counts.get(k) or 0
        if req.kind == "prove":
            per_goal[req.rid] = (v.counts.get("facts"),
                                 v.counts.get("proof_nodes"))
    total["facts_sorted"] = sorted(f for f, _ in per_goal.values()
                                   if f is not None)
    total["by_goal"] = per_goal
    return total


def end_to_end(runner, setup_times) -> tuple[dict, dict]:
    passes = runner.measured("measured")
    spent = [p[1] for p in passes]
    ms = [t * 1000.0 for p in passes for t in p[2]]
    verdicts = [v for p in passes for v in p[3]]
    pct, tail_ms, beyond = tail(ms)
    decided = sum(v.status == "decided" for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(spent), "s"),
        "verdict_ms.p50": (statistics.median(ms), "ms"),
        "verdict_ms.tail": (tail_ms, "ms"),
        "decided_ratio": (decided / len(verdicts), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {"samples": len(ms), "tail_pct": pct, "beyond": beyond,
             "passes": len(passes), "decided": decided, "failed": failed,
             "attempted": len(verdicts),
             "wall_pass_s": statistics.median(p[4] for p in passes)}
    return metrics, notes


def _ratio(a, b):
    return a / b if b else 0.0


def per_module(runner) -> tuple[dict, dict]:
    """Medians over the traced passes of the per-module numbers."""
    import tracing
    spans = runner.tracer.spans
    per = tracing.pass_totals(spans, lambda rid: rid[0])
    traced_ids = [n for n, p in enumerate(runner.passes) if p[0] == "traced"]
    rows = []
    for n in traced_ids:
        r = per.get(n, {})

        def g(span, key="s"):
            return r[span][key] if span in r else 0.0
        prove_s, facts = g("kernel.prove"), g("kernel.prove", "facts")
        proven_facts = g("kernel.prove", "proven_facts")
        proven = g("kernel.prove", "proven")
        proof_nodes = g("kernel.prove", "proof_nodes")
        rows.append({
            "dsl.parse_s": g("dsl.parse"),
            "dsl.parse_lines_per_s": _ratio(g("dsl.parse", "lines"),
                                            g("dsl.parse")),
            "dsl.execute_self_s": g("dsl.execute", "self_s"),
            "dsl.commands": g("dsl.execute", "commands"),
            "theory.typecheck_s": g("theory.typecheck"),
            "theory.typecheck_calls": g("theory.typecheck", "calls"),
            "terms.text_s": g("terms.text"),
            "kernel.replay_s": g("kernel.replay"),
            "kernel.replay_nodes": g("kernel.replay", "nodes"),
            "kernel.replay_nodes_per_s": _ratio(g("kernel.replay", "nodes"),
                                                g("kernel.replay")),
            "kernel.prove_s": prove_s,
            "kernel.prove_calls": g("kernel.prove", "calls"),
            "kernel.prove_rounds": g("kernel.prove", "rounds"),
            "kernel.prove_facts": facts,
            "kernel.facts_per_s": _ratio(facts, prove_s),
            "kernel.facts_per_proof": _ratio(proven_facts, proven),
            "kernel.proof_nodes": proof_nodes,
            "kernel.useful_fact_ratio": _ratio(proof_nodes, proven_facts),
            "kernel.cap_hits": g("kernel.prove", "cap_hits"),
            "kernel.cap_overshoot": _ratio(g("kernel.prove", "capped_facts"),
                                           g("kernel.prove", "caps")),
            "states.derive_s": g("states.derive"),
            "states.derive_nodes": g("states.derive", "nodes"),
            "exceptions.derive_s": g("exceptions.derive"),
            "exceptions.derive_nodes": g("exceptions.derive", "nodes"),
            "models.check_s": g("models.check"),
            "models.points": g("models.check", "points"),
            "models.points_per_s": _ratio(g("models.check", "points"),
                                          g("models.check")),
            "models.laws": g("models.check", "laws"),
            "models.refuted": g("models.check", "refuted"),
            "models.eval_calls": g("models.eval", "calls"),
            "models.eval_us": _ratio(g("models.eval") * 1e6,
                                     g("models.eval", "calls")),
            "translators.erase_s": g("translators.erase"),
            "translators.dualize_s": g("translators.dualize"),
            "translators.expand_s": g("translators.expand"),
            "translators.dualize_nodes_per_s": _ratio(
                g("translators.dualize", "nodes"), g("translators.dualize")),
            "cli.emit_s": g("cli.emit"),
            "cli.report_bytes": g("cli.emit", "bytes"),
        })
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    traced = statistics.median(p[1] for p in runner.measured("traced"))
    plain = statistics.median(p[1] for p in runner.measured("measured"))
    metrics["trace.pass_s"] = traced
    metrics["trace.untraced_pass_s"] = plain
    metrics["trace.overhead"] = traced / plain
    table = tracing.module_table(
        spans, lambda rid: runner.passes[rid[0]][0] == "traced")
    return metrics, {"modules": table, "rows": rows}


UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_per_s": "1/s",
         "_ratio": "ratio", "_overshoot": "ratio", "overhead": "ratio",
         "_bytes": "bytes", "_per_proof": "facts"}


def unit_of(name: str) -> str:
    for suffix in sorted(UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return UNITS[suffix]
    return "count"


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("prove-search", "oracle-sweep", "script-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "decorlogic" / "__init__.py").is_file():
        print(f"error: no decorlogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = HERE / "out"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, out_dir: Path, workdir: Path) -> int:
    import tracing
    setup_times = []
    for _ in range(SETUPS):
        t0 = cpu_seconds()
        lib, reqs = set_up(args.workload, args.seed, workdir)
        setup_times.append(cpu_seconds() - t0)

    tracer = tracing.Tracer(lib) if args.trace else None
    runner = Runner(lib, reqs, tracer)
    runner.warm_up(WARMUP_S)
    # traced and untraced passes alternate, so that both see the same
    # drift in machine speed and their ratio is the tracing overhead
    labels = ("measured", "traced") if args.trace else ("measured",)
    runner.run_for(labels, args.seconds, MIN_PASSES)

    e2e, notes = end_to_end(runner, setup_times)
    print(f"workload {args.workload} seed {args.seed}: {len(reqs)} requests "
          f"a pass, {notes['passes']} measured passes after a warm-up of "
          f"{WARMUP_S:g} s, "
          f"closed loop, one client; times are CPU time (median wall "
          f"time of a pass {notes['wall_pass_s']:.6g} s)")
    for name, (value, unit) in e2e.items():
        extra = ""
        if name == "verdict_ms.p50":
            extra = f"  (n={notes['samples']})"
        if name == "verdict_ms.tail":
            extra = (f"  (p{notes['tail_pct']:g}, n={notes['samples']}, "
                     f"{notes['beyond']} samples beyond)")
        if name == "decided_ratio":
            extra = f"  ({notes['decided']}/{notes['attempted']})"
        print(f"  {name:<18} {value:.6g} {unit}{extra}")
    print(f"  {'fail_ratio':<18} "
          f"{notes['failed'] / notes['attempted']:.6g} ratio  "
          f"({notes['failed']}/{notes['attempted']})")

    all_passes = runner.passes
    correct = True
    reported = set()
    for label, _, _, verdicts, _ in all_passes:
        for req, v in zip(reqs, verdicts):
            if v.status == "wrong":
                correct = False
            if v.failed and (req.rid, v.reason) not in reported:
                reported.add((req.rid, v.reason))
                print(f"  FAILED {req.rid} [{v.status}]: {v.reason}")

    counts = [exact_counts(zip(reqs, p[3])) for p in all_passes]
    if any(c != counts[0] for c in counts):
        print("  exact counters differ between passes")
        correct = False
    _compare_baseline(args.workload, counts[0])
    if counts[0]["by_goal"]:
        print("  facts/proof nodes by goal: " + ", ".join(
            f"{rid} {f}/{n or '-'}" for rid, (f, n) in
            counts[0]["by_goal"].items()))

    attempted = sum(len(p[3]) for p in all_passes)
    failed = sum(v.failed for p in all_passes for v in p[3])
    if args.trace:
        metrics, info = per_module(runner)
        print("  self time by module over the traced passes (s): "
              + ", ".join(f"{m} {s:.4g}" for m, s in info["modules"].items()))
        for name in sorted(metrics):
            print(f"  {name:<32} {metrics[name]:.6g} {unit_of(name)}")
        row = info["rows"][0]
        for key, mine in (("dsl.commands", "commands"),
                          ("kernel.prove_facts", "facts"),
                          ("kernel.proof_nodes", "proof_nodes"),
                          ("models.points", "points")):
            if row[key] != counts[0][mine]:
                print(f"  spans count {key}={row[key]:g}, reports "
                      f"{counts[0][mine]}")
                correct = False
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.json"
        tracing.write_spans(spans_path, tracer.spans)
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        result = {k: {"value": v, "unit": unit_of(k)}
                  for k, v in metrics.items()}
    else:
        result = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


def _compare_baseline(workload: str, counts: dict) -> None:
    """Print the exact counters and whether they equal the ones recorded
    in baseline.json; a change that moves them is reported, not failed."""
    base = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    want = base["exact_counters"][workload]
    got = {k: counts[k] for k in want}
    verdict = "equal" if got == want else "MOVED from"
    print(f"  exact counters {verdict} the recorded baseline: {got}")
    if got != want:
        print(f"  baseline: {want}")


if __name__ == "__main__":
    sys.exit(main())
