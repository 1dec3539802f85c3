"""The `decor` command run in-process: parser reuse, decoding, nesting
bounds, the golden report bytes of the worked examples, and a fuzz of the
grammar and of raw bytes; and in a child process under a memory cap."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as strat
from decorlogic import cli, dsl
from decorlogic.dsl import MAX_NESTING, MAX_PROOF_DEPTH, MAX_PROOF_NODES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MODES = ("check", "verify", "eval", "erase", "expand", "dualize")


def _write(tmp_path, text):
    path = tmp_path / "script.dec"
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------- parser reuse


def test_the_parser_is_built_once(tmp_path, monkeypatch, capfdbinary):
    built, build = [], cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    path = _write(tmp_path, "theory S = states(x: 2)\nerase S\n")
    for mode in ("erase", "check", "erase"):
        assert cli.main([mode, path]) == 0
    assert len(built) == 1
    capfdbinary.readouterr()


def test_model_overrides_do_not_leak_into_the_next_call(tmp_path,
                                                         capfdbinary):
    path = _write(tmp_path, "theory S = states(x: 2, y: 2)\n"
                            "model m for S (x: 2, y: 2)\n"
                            "verify states-seven in S with m\n")

    def sizes(*extra):
        assert cli.main(["verify", path, "--format", "json", *extra]) == 0
        data = json.loads(capfdbinary.readouterr().out)
        return data["commands"][0]["detail"]["model"]["sizes"]

    assert sizes("--model", "x=3") == {"x": 3, "y": 2}
    assert sizes() == {"x": 2, "y": 2}
    assert sizes("--model", "y=3", "--model", "x=3") == {"x": 3, "y": 3}
    assert sizes() == {"x": 2, "y": 2}


def test_a_budget_of_zero_runs_the_closure_of_the_axioms_only(tmp_path,
                                                             capfdbinary):
    def prove(budget_clause, *extra):
        path = _write(tmp_path, "theory S = states(x: 2, y: 2)\n"
                                "prove in S : l[y] . (u[x] . l[x]) ~~ l[y]"
                                f"{budget_clause}\n")
        code = cli.main(["check", path, "--format", "json", *extra])
        (cmd,) = json.loads(capfdbinary.readouterr().out)["commands"]
        detail = cmd["detail"]
        return code, detail["budget"], detail["rounds"], detail["reason"]

    closure = (1, 0, 0, "budget of 0 rounds exhausted")
    assert prove(" budget 0") == closure
    assert prove("", "--budget", "0") == closure
    assert prove("") == (0, 4, 2, "found in round 2")


def test_a_negative_budget_is_a_usage_error(tmp_path, capfd):
    path = _write(tmp_path, "theory S = states(x: 2)\n"
                            "prove in S : l[x] ~~ l[x]\n")
    assert cli.main(["check", path, "--budget", "-3"]) == 2
    out, err = capfd.readouterr()
    assert out == "" and err == "error: --budget wants N >= 0, got -3\n"


@pytest.mark.parametrize("argv", [["frobnicate", "x.dec"], ["check"],
                                  ["eval", "x.dec", "--format", "xml"]],
                         ids=["unknown-command", "no-script", "bad-choice"])
def test_usage_errors_repeat_byte_for_byte(argv, capfdbinary):
    errs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        errs.append(captured.err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(b"usage: decor")


# ------------------------------------------------------------- decoding


@pytest.mark.parametrize("data, where, what", [
    (b"theory S = states(x: 2)\n\xff\xfe\n", "2:1", "0xff is not UTF-8 "
     "(invalid start byte)"),
    (b"theory S = states(x: 2)\r\nerase S \xc3", "2:9", "0xc3 is not UTF-8 "
     "(unexpected end of data)"),
    (b"theory S\r= states(x: 2)  # caf\xe9\n", "2:22", "0xe9 is not UTF-8 "
     "(invalid continuation byte)"),
], ids=["start", "crlf-end", "cr-continuation"])
def test_a_byte_that_is_not_utf8_is_a_lex_error(tmp_path, capfdbinary, data,
                                                where, what):
    path = tmp_path / "script.dec"
    path.write_bytes(data)
    for mode in MODES:
        assert cli.main([mode, str(path)]) == 2
        assert capfdbinary.readouterr().err.decode() == (
            f"error: line {where}: byte {what}\n")


def test_line_ends_read_as_text_mode_reads_them(tmp_path, capfdbinary):
    """CR LF and a lone CR end a line as LF does, so every report on the
    bank account is byte-identical whichever ends its lines."""
    script = (ROOT / "docs" / "bank_account.dec").read_bytes()
    path = tmp_path / "script.dec"
    for mode in MODES:
        reports = []
        for ends in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(script.replace(b"\n", ends))
            assert cli.main([mode, str(path), "--format", "json"]) == 0
            reports.append(capfdbinary.readouterr().out)
        assert reports[0] == reports[1] == reports[2]


# -------------------------------------------------------------- nesting

_HEAD = ("theory S = states(x: 3)\n"
         "pure gen step : V[x] -> V[x] in S = [1, 2, 0]\n"
         "theory Ex = exceptions(i: 3)\n"
         "pure gen bump : P[i] -> P[i] in Ex = [1, 2, 0]\n")


def _nested(depth):
    """Lines whose deepest term_expr/type_expr call is `depth` levels down:
    parentheses around a term, parentheses inside a bracketed type, a
    chain of products, and try blocks nested in their bodies."""
    k = depth - 1
    return {
        "paren-term": (f"eval in S : {'(' * k}step{')' * k} . l[x] "
                       f"on 0 state (1)\n"),
        "paren-type": (f"term q1 in S = id[{'(' * (k - 1)}V[x]"
                       f"{')' * (k - 1)}]\n"),
        "product": f"term q2 in S = id[{' * '.join(['V[x]'] * k)}]\n",
        "try": (f"term q3 in Ex = {'try ' * k}raise(i)"
                f"{' catch (i => bump)' * k}\n"
                "eval in Ex : q3 on 1\n"),
    }


@pytest.mark.parametrize("mode", MODES)
def test_nesting_at_the_bound_runs_in_every_mode(tmp_path, mode,
                                                 capfdbinary):
    path = _write(tmp_path, _HEAD + "".join(_nested(MAX_NESTING).values()))
    assert cli.main([mode, path, "--format", "json"]) == 0
    out = capfdbinary.readouterr().out
    if mode == "eval":
        states, exc = json.loads(out)["commands"]
        assert states["detail"]["result"] == 2  # step after reading 1
        assert exc["detail"]["result"] == ["val", 2]  # caught, then bumped


@pytest.mark.parametrize("shape", sorted(_nested(2)))
def test_nesting_past_the_bound_is_a_parse_error(tmp_path, shape,
                                                 capfdbinary):
    line = _nested(MAX_NESTING + 1)[shape]
    path = _write(tmp_path, _HEAD + line)
    # the token that opens the level past the bound
    opener = {"paren-term": "step", "paren-type": "V[x]", "product": "V[x]",
              "try": "raise"}[shape]
    col = line.rindex(opener) + 1
    assert cli.main(["eval", path]) == 2
    err = capfdbinary.readouterr().err.decode()
    assert err == (f"error: line 5:{col}: nesting deeper than "
                   f"{MAX_NESTING} levels\n")


@pytest.mark.parametrize("shape", sorted(_nested(2)))
def test_deep_nesting_exits_two_without_a_traceback(tmp_path, shape,
                                                    capfdbinary):
    # depth 1200 overflowed the Python stack before nesting was bounded
    path = _write(tmp_path, _HEAD + _nested(1200)[shape])
    for mode in MODES:
        assert cli.main([mode, path]) == 2
    err = capfdbinary.readouterr().err.decode()
    assert err.count("nesting deeper than") == len(MODES)


# ----------------------------------------------------------- proof depth


def _chain(steps):
    """A proof block whose steps form one chain of premises, `steps` long,
    over the terms of `_nested` at the nesting bound; and the line of its
    last step."""
    head = _HEAD + "".join(_nested(MAX_NESTING).values())
    lines = ["proof deep in Ex {", "  s0: eq-refl(f=q3);"]
    lines += [f"  s{k}: eq-sym from s{k - 1};" for k in range(1, steps)]
    text = head + "\n".join(lines) + "\n}\ncheck proof deep in Ex\n"
    return text, head.count("\n") + len(lines)


@pytest.mark.parametrize("mode", MODES)
def test_a_proof_at_the_depth_bound_runs_in_every_mode(tmp_path, mode,
                                                       capfdbinary):
    path = _write(tmp_path, _chain(MAX_PROOF_DEPTH)[0])
    for fmt in ("text", "json"):
        assert cli.main([mode, path, "--format", fmt]) == 0
        out = capfdbinary.readouterr().out
    if mode == "check":
        (cmd,) = json.loads(out)["commands"]
        assert cmd["detail"]["nodes"] == MAX_PROOF_DEPTH


@pytest.mark.parametrize("steps", [MAX_PROOF_DEPTH + 1, 1500])
def test_a_proof_past_the_depth_bound_is_a_parse_error(tmp_path, steps,
                                                       capfdbinary):
    # 1500 steps overflowed the Python stack before proofs were bounded
    text, last = _chain(steps)
    path = _write(tmp_path, text)
    line = last - (steps - MAX_PROOF_DEPTH - 1)  # the step past the bound
    for mode in MODES:
        for fmt in ("text", "json"):
            assert cli.main([mode, path, "--format", fmt]) == 2
            err = capfdbinary.readouterr().err.decode()
            assert err == (f"error: line {line}:3: proof deeper than "
                           f"{MAX_PROOF_DEPTH} steps\n")


# ------------------------------------------------------------ proof size


def _doubling(steps, tail=0):
    """A proof block whose step k cites step k-1 twice, so that its tree
    has 2^(k+1) - 1 nodes, then `tail` steps of one more node each; and
    the line of its first step."""
    lines = ["theory S = states(x: 2)", "proof p in S {",
             "  s0: eq-refl(f=l[x]);"]
    lines += [f"  s{k}: eq-trans from s{k - 1}, s{k - 1};"
              for k in range(1, steps)]
    lines += [f"  s{k}: eq-sym from s{k - 1};"
              for k in range(steps, steps + tail)]
    return "\n".join(lines) + "\n}\ncheck proof p in S\n", 3


@pytest.mark.parametrize("mode", MODES)
def test_a_proof_at_the_size_bound_runs_in_every_mode(tmp_path, mode,
                                                      capfdbinary):
    # 8 doubling steps make 255 nodes
    path = _write(tmp_path, _doubling(8, tail=MAX_PROOF_NODES - 255)[0])
    for fmt in ("text", "json"):
        assert cli.main([mode, path, "--format", fmt]) == 0
        out = capfdbinary.readouterr().out
    if mode == "check":
        (cmd,) = json.loads(out)["commands"]
        assert cmd["detail"]["nodes"] == MAX_PROOF_NODES


@pytest.mark.parametrize("steps,tail", [(8, MAX_PROOF_NODES - 254), (16, 0)])
def test_a_proof_past_the_size_bound_is_a_parse_error(tmp_path, steps, tail,
                                                      capfdbinary):
    # 16 doubling steps took 6.1 s of CPU and a 38 MB report before proof
    # blocks were bounded in size; the first step past the bound is the
    # 9th doubling step (511 nodes), or the tail step at 257 nodes
    text, first = _doubling(steps, tail)
    path = _write(tmp_path, text)
    line = first + (8 if tail == 0 else 8 + tail - 1)
    for mode in MODES:
        for fmt in ("text", "json"):
            start = time.process_time()
            assert cli.main([mode, path, "--format", fmt]) == 2
            assert time.process_time() - start < 1.0
            err = capfdbinary.readouterr().err.decode()
            assert err == (f"error: line {line}:3: proof larger than "
                           f"{MAX_PROOF_NODES} nodes\n")


# --------------------------------------------------------- golden bytes


def _matches_the_golden_bytes(example, mode, capfdbinary):
    script = ROOT / "docs" / f"{example}.dec"
    assert cli.main([mode, str(script), "--format", "json"]) == 0
    golden = GOLDEN / f"{example}.{mode}.json"
    assert capfdbinary.readouterr().out == golden.read_bytes()


@pytest.mark.parametrize("mode", MODES)
def test_bank_account_reports_match_the_golden_bytes(mode, capfdbinary):
    _matches_the_golden_bytes("bank_account", mode, capfdbinary)


@pytest.mark.parametrize("mode", MODES)
def test_retry_reports_match_the_golden_bytes(mode, capfdbinary):
    """The exceptions-side twin of the bank account."""
    _matches_the_golden_bytes("retry", mode, capfdbinary)


# ----------------------------------------------------- deep composites


@pytest.mark.parametrize("mode", MODES)
def test_a_deep_prove_goal_runs_in_every_mode(tmp_path, mode, capfdbinary):
    """Each side of the goal composes 3000 factors, parsed into two equal
    but distinct terms: hashing, comparing and tabulating them follow the
    spine in loops, so the search proves the goal. The search writes out
    only the terms it may compose, so its time is linear in the depth."""
    side = " . ".join(["step"] * 3000) + " . l[x]"
    path = _write(tmp_path, "theory S = states(x: 3)\n"
                            "pure gen step : V[x] -> V[x] in S = [1, 2, 0]\n"
                            f"prove in S : {side} ~~ {side}\n")
    start = time.process_time()
    assert cli.main([mode, path, "--format", "json"]) == 0
    assert mode != "check" or time.process_time() - start < 1.0
    commands = json.loads(capfdbinary.readouterr().out)["commands"]
    assert [c["detail"]["status"] for c in commands] == (
        ["proven"] if mode == "check" else [])


# ------------------------------------------------------- memory bounds


def _capped_cli(argv, mb):
    """Run cli.main(argv) in a child process capped at mb MB of address
    space. The child's peak RSS, in KiB, ends its standard error."""
    child = ("import resource, sys\n"
             "cap = int(sys.argv[1]) * 2**20\n"
             "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
             "from decorlogic import cli\n"
             "code = cli.main(sys.argv[2:])\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,\n"
             "      file=sys.stderr)\n"
             "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", child, str(mb), *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def _deep_lsemi():
    term = "l[x]"
    for _ in range(16):
        term = f"lsemi(step, {term})"
    return ("pure gen step : V[x] -> V[x] in S = [1, 2, 0]\n"
            f"term q in S = {term}\n"
            "prove in S : q ~~ q\n")


def _wide_gen():
    cod = " * ".join(["V[x]"] * 16)
    return (f"pure gen big : V[x] -> {cod} in S = [0, 1, 2]\n"
            "prove in S : big . l[x] ~~ big . l[x]\n")


@pytest.mark.parametrize("goal", [_deep_lsemi(), _wide_gen()],
                         ids=["lsemi-depth-16", "gen-codomain-16"])
def test_a_deep_semi_pure_goal_is_decided_within_a_memory_cap(tmp_path, goal):
    """Refuting on the model would need a 3^16-element carrier: the domain
    of the nested lsemi, or the codomain of the generator's table. The
    point bound and the table bound stop it before it is built, and the
    search proves the goal. Run in a child process capped at 1.5 GB of
    address space."""
    path = _write(tmp_path, "theory S = states(x: 3)\n" + goal)
    run = _capped_cli(["check", path, "--format", "json"], 1536)
    assert run.returncode == 0, run.stderr
    (cmd,) = json.loads(run.stdout)["commands"]
    assert cmd["detail"]["status"] == "proven"


@pytest.mark.parametrize("script, answer", [
    ("theory S = states(x: 100000000000)\n"
     "eval in S : l[x] on 0 state (5)\n", 5),
    ("theory E = exceptions(i: 100000000000)\n"
     "eval in E : c[i] on throw(i: 7)\n", ["val", 7]),
], ids=["states", "exceptions"])
def test_eval_decodes_its_input_without_building_a_carrier(tmp_path, script,
                                                           answer):
    """A carrier of 10^11 elements is never listed: eval decodes an input
    position from the type's shape. Run in a child process capped at 512 MB
    of address space."""
    path = _write(tmp_path, script)
    run = _capped_cli(["eval", path, "--format", "json"], 512)
    assert run.returncode == 0, run.stderr
    (cmd,) = json.loads(run.stdout)["commands"]
    assert cmd["detail"]["result"] == answer


def test_a_suite_checks_every_law_bound_before_building_a_table(tmp_path):
    """With x at 5000, u[x]'s table for the first law would hold 5000 * 5000
    entries, while a later law has 5000^2 * 45,000 points: the suite stops
    on the point bound before building any table. Run in a child process
    capped at 512 MB of address space."""
    path = _write(tmp_path, "theory S = states(x: 3, y: 3, z: 3)\n"
                            "verify states-seven in S\n")
    run = _capped_cli(["verify", path, "--model", "x=5000"], 512)
    assert run.returncode == 1, run.stderr
    assert "1125000000000 points exceeds bound 10000000" in run.stdout
    assert "Traceback" not in run.stderr
    assert int(run.stderr.split()[-1]) < 200 * 1024  # ru_maxrss is in KiB


# ------------------------------------------------------------ fuzzing

# what a mutation may put in place of a token: the grammar's words, the
# symbols, names the head declares, and numbers at and past the edges
_MUTANTS = sorted(dsl._RESERVED) + [
    "(", ")", "[", "]", "{", "}", ".", ",", ":", ";", "=", "==", "~~", "->",
    "=>", "*", "+", "|", "0", "3", "-1", "99999999999999999999", "S", "E",
    "g", "h", "x", "i", "s1", "@", "\t", "\n"]


@st.composite
def _mutated_forms(draw):
    """One to three rows of the grammar written after the head, then up to
    three token mutations: a token deleted, doubled, swapped with the next
    one or replaced."""
    forms = draw(st.lists(st.sampled_from(dsl._GRAMMAR), min_size=1,
                          max_size=3))
    toks = (strat.SCRIPT_HEAD
            + "\n".join(draw(strat.form_texts(f)) for f in forms)).split(" ")
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(toks) - 1))
        how = draw(st.sampled_from(["delete", "double", "swap", "replace"]))
        if how == "delete":
            del toks[k]
        elif how == "double":
            toks.insert(k, toks[k])
        elif how == "swap" and k + 1 < len(toks):
            toks[k], toks[k + 1] = toks[k + 1], toks[k]
        elif how == "replace":
            toks[k] = draw(st.sampled_from(_MUTANTS))
    return " ".join(toks).encode("utf-8")


def _deep(shape, k):
    """A line after the head whose parentheses, brackets, operators, try
    blocks or proof steps nest or chain `k` deep."""
    pairs = " . ".join(["u[x] . l[x]"] * k)
    return {
        "paren-term": f"term q in S = {'(' * k}l[x]{')' * k}\n",
        "paren-type": f"term q in S = id[{'(' * k}V[x]{')' * k}]\n",
        "product": f"term q in S = id[{' * '.join(['V[x]'] * k)}]\n",
        "sum": f"term q in E = id[{' + '.join(['P[i]'] * k)}]\n",
        "try": (f"term q in E = {'try ' * k}raise(i)"
                f"{' catch (i => h)' * k}\n"),
        "composite": f"term q in S = l[x] . {pairs}\neval in S : q on 0\n",
        "prove": f"prove in S : l[x] . {pairs} ~~ l[x] . {pairs}\n",
        "proof": ("proof p in S {\n  s0: eq-refl(f=l[x]);\n"
                  + "".join(f"  s{n}: eq-sym from s{n - 1};\n"
                            for n in range(1, k))
                  + "}\ncheck proof p in S\n"),
    }[shape]


_deep_scripts = st.builds(
    lambda shape, k: (strat.SCRIPT_HEAD + _deep(shape, k)).encode("utf-8"),
    st.sampled_from(["paren-term", "paren-type", "product", "sum", "try",
                     "composite", "prove", "proof"]),
    st.integers(1, 5000))


@st.composite
def _junk(draw):
    """Random bytes, or the head with up to five bytes replaced by any
    byte, UTF-8 or not."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    data = bytearray(strat.SCRIPT_HEAD.encode("utf-8"))
    for _ in range(draw(st.integers(1, 5))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "script.dec"


@settings(max_examples=150, deadline=None)
@given(data=st.one_of(_mutated_forms(), _deep_scripts, _junk()))
def test_no_script_raises_out_of_the_cli(fuzz_path, data):
    """Grammar rows with mutated tokens, nesting and chains up to 5000 deep,
    and byte junk, run in every mode: each exits 0, 1 or 2 without raising,
    and an exit 2 names the line and column at fault."""
    fuzz_path.write_bytes(data)
    for mode in MODES:
        out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([mode, str(fuzz_path)])
        assert code in (0, 1, 2)
        if code == 2:
            assert re.match(r"error: line \d+:\d+: ", err.getvalue()), (
                mode, err.getvalue())
