"""Command line: one-shot evaluation, reduction traces, a REPL, table dumps.

Exit codes: 0 success, 1 parse errors, 2 domain errors, 3 numeric failures
(convergence, precision, resource caps), 141 (128 + SIGPIPE) when the reader
of standard output closes it early, as `| head` does.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction

from .engine import NumericContext, adaptive_evaluate, evaluate
from .engine import trace_reduce  # noqa: F401  perfbench/tracing.py wraps cli.trace_reduce
from .errors import DomainError, HypercalcError, ParseError
from .farey import farey_row
from .rationals import format_fraction
from .terms import parse, render


def _context(args) -> NumericContext:
    return NumericContext(base=args.base, digits=args.digits, guard_digits=args.guard)


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high], so that a value
    `NumericContext` refuses is a usage error, not a traceback."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    convert.__name__ = "int"  # argparse names it in "invalid int value"
    return convert


def _add_numeric_flags(sub):
    sub.add_argument("--base", type=_int_in(2, 36), default=10, help="output base, 2..36")
    sub.add_argument("--digits", type=_int_in(0), default=20, help="fractional digits")
    # `adaptive_evaluate` starts at max(1, guard), so 0 would act as 1
    sub.add_argument("--guard", type=_int_in(1), default=10, help="guard digits")
    sub.add_argument(
        "--format", choices=("plain", "json"), default="plain", dest="format_"
    )


@functools.cache  # built on first use, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercalc",
        description="evaluate bracket-notation operator expressions to "
        "certified base-b digits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression (or a file of them)")
    p_eval.add_argument("expression", nargs="?", help="expression text")
    p_eval.add_argument("--file", help="read expressions from a file, one per line")
    p_eval.add_argument("--trace", action="store_true", help="include the reduction chain")
    _add_numeric_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_trace = sub.add_parser("trace", help="print the reduction chain then the value")
    p_trace.add_argument("expression")
    _add_numeric_flags(p_trace)
    p_trace.set_defaults(func=_cmd_eval, trace=True, file=None)

    p_repl = sub.add_parser("repl", help="read-evaluate-print loop")
    _add_numeric_flags(p_repl)
    p_repl.set_defaults(func=_cmd_repl)

    p_farey = sub.add_parser("farey", help="print row k of the mediant table")
    p_farey.add_argument("row", type=int)
    p_farey.add_argument("--format", choices=("plain", "json"), default="plain",
                         dest="format_")
    p_farey.set_defaults(func=_cmd_farey)

    p_self = sub.add_parser("selftest", help="run the built-in sanity suites")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def _result_payload(text: str, ctx, trace: bool):
    term = parse(text)
    result, expansion = adaptive_evaluate(term, ctx, collect_trace=trace)
    payload = {
        "input": text,
        "canonical": render(term),
        "value": expansion.text(),
        "radius": format_fraction(result.ball().radius),
        "digits": ctx.digits,
    }
    if trace:
        # the chain's lines past the render; the last one is the value's
        payload["trace"] = result.chain.lines[1:-1]
    return payload


def _emit(payload, args):
    if args.format_ == "json":
        _write_json(payload)
    else:
        for line in payload.get("trace", ()):
            print(line)
        print(payload["value"])


# Trace lines per write of a JSON record: one join of the whole trace was a
# second copy of its text, and it doubled the peak memory of a long trace.
_JSON_BATCH = 64


def _write_json(payload) -> None:
    """Write `json.dumps(payload, sort_keys=True)` and a newline, in pieces,
    so that the trace's text is copied a batch at a time: its lines are
    quoted and joined as they are, `_JSON_BATCH` lines at a time.  A trace
    line holds only `[]+-/.`, 0-9 and A-Z (`render`'s brackets,
    `digit_text`'s and `BasebExpansion.text`'s displays), none of which
    JSON escapes."""
    write, sep = sys.stdout.write, "{"
    for key in sorted(payload):
        write(f'{sep}"{key}": ')
        sep = ", "
        if key == "trace":
            lines = payload[key]
            write("[")
            for i in range(0, len(lines), _JSON_BATCH):
                write('", "' if i else '"')
                write('", "'.join(lines[i:i + _JSON_BATCH]))
            write('"]' if lines else "]")
        else:
            write(json.dumps(payload[key]))
    write("}\n")


def _cmd_eval(args) -> int:
    if (args.expression is None) == (args.file is None):
        print("eval needs an expression or --file", file=sys.stderr)
        return 1
    ctx = _context(args)
    if args.expression is not None:
        _emit(_result_payload(args.expression, ctx, args.trace), args)
        return 0
    try:
        with open(args.file, encoding="utf-8-sig") as fh:  # a leading BOM is not text
            lines = [
                (number, line.strip())
                for number, line in enumerate(fh, 1)
                if line.strip() and not line.strip().startswith("#")
            ]
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        print(f"cannot read {args.file}: {reason}", file=sys.stderr)
        return 1
    # a failing line is reported with its line number and the batch goes on;
    # the exit code is that of the first failure
    status = 0
    for number, text in lines:
        try:
            payload = _result_payload(text, ctx, args.trace)
        except HypercalcError as err:
            code, message = _failure(err)
            if args.format_ == "json":
                record = {"input": text, "line": number, "error": message, "exit": code}
                print(json.dumps(record, sort_keys=True))
            else:
                print(f"line {number}: {message}", file=sys.stderr)
            status = status or code
            continue
        _emit(payload, args)
    return status


def _cmd_repl(args) -> int:
    ctx = _context(args)
    interactive = sys.stdin.isatty()

    def report(line, err, code, message):
        # JSON sessions get `eval --file --format json`'s failure record
        if args.format_ == "json":
            print(json.dumps({"input": line, "error": message, "exit": code}, sort_keys=True))
        else:
            print(f"error: {err}")

    while True:
        if interactive:
            sys.stdout.write("hyper> ")
            sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            return 0
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == ":quit":
            return 0
        field = next((f for f in ("base", "digits") if line.startswith(":" + f)), None)
        if field:
            try:
                ctx = replace(ctx, **{field: int(line.split()[1])})
            except (IndexError, ValueError) as err:
                report(line, err, 1, str(err))  # a usage error, as a bad flag is
            continue
        try:
            _emit(_result_payload(line, ctx, False), args)
        except HypercalcError as err:
            report(line, err, *_failure(err))


def _cmd_farey(args) -> int:
    entries = farey_row(args.row)
    texts = [f"{e.top}/{e.bottom}" for e in entries]
    if args.format_ == "json":
        print(json.dumps({"row": args.row, "entries": texts}))
    else:
        print(" ".join(texts))
    return 0


def _cmd_selftest(args) -> int:
    from .hyperops import hyper_forward, hyper_inverse_minus

    rng = random.Random(20240814)
    passed = failed = 0

    def check(name, ok):
        nonlocal passed, failed
        if ok:
            passed += 1
        else:
            failed += 1
            print(f"FAIL {name}")

    for i in range(200):
        t = _random_term(rng, 6)
        check(f"roundtrip-{i}", parse(render(t)) == t)
    ctx = NumericContext(digits=12, guard_digits=8)
    for text, expected in [
        ("[1+1]", Fraction(2)),
        ("[1-1]", Fraction(0)),
        ("[[1+1]++[1+1]]", Fraction(4)),
        ("[[1+[1+1]]--[1+1]]", Fraction(3, 2)),
    ]:
        check(f"exact {text}", evaluate(parse(text), ctx).value == expected)
    tol = Fraction(1, 10**12)
    for rank in (4, 5, 6):
        a = Fraction(rng.randrange(5, 40), rng.randrange(1, 4))
        if a <= 1:
            a += 1
        check(f"identity r{rank} b0", hyper_forward(rank, a, Fraction(0), tol).center == 1)
        check(f"identity r{rank} b1", hyper_forward(rank, a, Fraction(1), tol).center == a)
        check(
            f"identity r{rank} root1",
            hyper_inverse_minus(rank, a, Fraction(1), tol).center == a,
        )
    check("tower 2^^3", hyper_forward(4, Fraction(2), Fraction(3), tol).center == 16)
    print(f"selftest: {passed} passed, {failed} failed")
    return 0 if failed == 0 else 3


def _random_term(rng, max_depth):
    from .terms import Leaf, Node, OpKind, Operator

    if max_depth == 0 or rng.random() < 0.3:
        return Leaf()
    op = Operator(rng.choice(list(OpKind)), rng.randrange(1, 6))
    return Node(
        op,
        _random_term(rng, max_depth - 1),
        _random_term(rng, max_depth - 1),
    )


def _failure(err: HypercalcError) -> tuple[int, str]:
    """Exit code and message of a package error, which a command reports
    in place of a traceback."""
    if isinstance(err, ParseError):
        return 1, f"parse error: {err}"
    if isinstance(err, DomainError):
        return 2, f"domain error: {err}"
    return 3, f"numeric error: {err}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except HypercalcError as err:
        code, message = _failure(err)
        print(message, file=sys.stderr)
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to the null device,
        # so the interpreter's last flush cannot fail again.  No SIGPIPE
        # handler, since callers that run `main` in process share the process;
        # a stream with no file descriptor (a StringIO) is left alone
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
