"""Command line front end: run decor scripts and print reports.

Exit codes: 0 when every command in the script succeeded, 1 when a
command failed (an invalid proof, a law that does not hold), 2 when the
script itself is broken (lex, parse, or type errors, missing files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import errors as E
from .dsl import ExecConfig, emit_report, execute, parse_script

_MODES = (
    ("check", "run proof checks and saturation goals"),
    ("verify", "run law suites and lemma derivations on finite models"),
    ("eval", "evaluate terms on finite models"),
    ("erase", "print theories with the decorations stripped"),
    ("expand", "print axioms as explicit state/exception transformers"),
    ("dualize", "print theories with the two effect readings swapped"),
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="decor",
        description="proof checker and translator for decorated theories")
    sub = top.add_subparsers(dest="mode", required=True, metavar="command")
    for mode, help_text in _MODES:
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("script", help="path to a script file")
        p.add_argument("--model", action="append", default=[],
                       metavar="IDX=N",
                       help="override the carrier size of one index")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format (default: text)")
        p.add_argument("--budget", type=int, default=None, metavar="N",
                       help="saturation round budget for prove directives "
                            "(N >= 0; 0 runs the closure of the axioms only)")
        p.add_argument("--fail-fast", action="store_true",
                       help="stop at the first failing command")
    return top


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use and kept for the process.

    Reuse is safe: each `parse_args` fills a fresh namespace, and the
    `append` action of `--model` copies its default list before appending.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _overrides(pairs: list[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for pair in pairs:
        key, sep, val = pair.partition("=")
        if not sep or not key or not val.isdigit():
            raise E.ExecError(f"--model wants IDX=N, got {pair!r}")
        out[key] = int(val)
    return out


def _budget(n: int | None) -> int | None:
    if n is not None and n < 0:
        raise E.ExecError(f"--budget wants N >= 0, got {n}")
    return n


def _decode(data: bytes) -> str:
    """The script's text as `Path.read_text(encoding="utf-8")` reads it; a
    byte that is not UTF-8 is a LexError at the lexer's line and column."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text ahead of the byte is valid; the byte sits where one more
        # character would, at the end of that text's last line
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise E.LexError(f"byte {data[exc.start]:#04x} is not UTF-8 "
                         f"({exc.reason})", len(lines), len(lines[-1])) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        data = Path(args.script).read_bytes()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        config = ExecConfig(mode=args.mode,
                            model_overrides=_overrides(args.model),
                            budget=_budget(args.budget),
                            fail_fast=args.fail_fast)
        report = execute(parse_script(_decode(data)), config)
    except E.ScriptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(emit_report(report, args.format))
    sys.stdout.buffer.flush()
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
