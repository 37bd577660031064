import argparse
import contextlib
import decimal
import io
import json
import os
import pickle
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercalc import cli, engine, terms
from hypercalc.cli import main
from hypercalc.errors import HypercalcError
from hypercalc.terms import parse, render


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hypercalc", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_eval_trivial():
    code, out, _ = run_cli("eval", "[1+1]", "--base", "10", "--digits", "0")
    assert code == 0
    assert out == "2\n"


def test_eval_default_digits():
    code, out, _ = run_cli("eval", "[1--[[1+1]+1]]", "--digits", "6")
    assert code == 0
    assert out == "0.333333\n"


def test_trace_worked_example():
    code, out, _ = run_cli("trace", "[[1+[1+1]]----[1+1]]", "--digits", "8")
    assert code == 0
    assert out.splitlines() == [
        "[[1+2]----[1+1]]",
        "[3----[1+1]]",
        "[3----2]",
        "1.82545502",
    ]


def test_exit_code_parse_error():
    code, _, err = run_cli("eval", "[1+")
    assert code == 1
    assert "parse error" in err


def test_exit_code_literal_past_node_cap():
    for text in ["7" * 5000, "0.00000000001"]:
        code, out, err = run_cli("eval", text)
        assert (code, out) == (1, "")
        assert "parse error" in err and "offset 0" in err
        assert "Traceback" not in err


def test_exit_code_domain_error():
    code, _, err = run_cli("eval", "[[1-1]----[1+1]]")
    assert code == 2
    assert "domain error" in err
    assert "root" in err  # names the offending node


def test_exit_code_numeric_error():
    # tetration blow-up trips the resource cap
    code, _, err = run_cli("eval", "[[1+1]++++[[[[[1+1]+1]+1]+1]+1]]")
    assert code == 3
    assert "numeric error" in err
    # a ball on a digit boundary cannot certify (sqrt 2 * sqrt 2); its radius
    # prints as a power-of-two bound, where a float of it read 0.000e+00
    code, _, err = run_cli("trace", "[[[1+1]---[1+1]]++[[1+1]---[1+1]]]", "--digits", "1")
    assert code == 3
    assert "uncertified digits 2.0, radius < 2^-" in err
    assert "e+00" not in err
    # log_4 2 is rational, so its digits are exact
    code, out, _ = run_cli("trace", "[[1+1]///[[1+1]++[1+1]]]", "--digits", "1")
    assert (code, out.splitlines()[-1]) == (0, "0.5")


SPLIT_BLOWUP = "exceeds the magnitude cap; the value itself may be modest"


@pytest.mark.parametrize("text, intermediate", [
    # modest values (2^^(6/7) < 2) whose split needs 1000^^3 or 2^^6
    ("[1000++++0.75]", "1000 (+^4) 3 (the tower of the height's numerator)"),
    ("[2++++[6//7]]", "2 (+^4) 6 (the tower of the height's numerator)"),
    # a super-root of order 1/7 goes through x (+^4) 7
    ("[[10+++100]----[1//7]]", "x (+^4) 7 (x the super-root's operand)"),
])
def test_split_blowup_names_its_intermediate(text, intermediate):
    code, out, err = run_main("eval", text)
    assert (code, out) == (3, "")
    assert f"the rational-height split's intermediate {intermediate} {SPLIT_BLOWUP}" in err


@pytest.mark.parametrize("text, intermediate", [
    # a tail's budgets are sized from ln(base ^^ p) in floats; ln of
    # (2^1017) ^^ 2 overflows a float, which is the same blow-up
    ("[[2+++1017]++++1.75]", f"{2**1017} (+^4) 3 (the tower of the height's numerator)"),
    ("[1000++++1.75]", "1000 (+^4) 3 (the tower of the height's numerator)"),
    ("[2++++[13//7]]", "2 (+^4) 6 (the tower of the height's numerator)"),
    # a numerator past the height-step cap: over base 2 its tower passes the
    # magnitude cap within the cap's first steps
    ("[2++++[1+[[999+++3]//[1000+++3]]]]",
     "2 (+^4) 997002999 (the tower of the height's numerator)"),
], ids=["2^1017 to 1.75", "1000 to 1.75", "2 to 13/7", "2 to 1 + 997002999/10^9"])
def test_split_blowup_of_a_budgeted_tail_names_its_intermediate(text, intermediate):
    code, out, err = run_main("eval", text)
    assert (code, out) == (3, "")
    assert f"the rational-height split's intermediate {intermediate} {SPLIT_BLOWUP}" in err


def test_a_super_root_whose_tail_passes_the_cap_is_refused_at_once():
    # the root of x^^(11/6) = 6 needs x^^5 past the magnitude cap: the float
    # estimate stops where x^^5 passes it and refuses there, where a search
    # from just below the cap computes towers of nearly the cap's bits
    start = time.perf_counter()
    code, out, err = run_main("eval", "[6----[11//6]]")
    assert (code, out) == (3, "")
    assert f"(+^4) 5 (the tower of the height's numerator) {SPLIT_BLOWUP}" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("text, code, message", [
    ("[5----[[3--0.5]++++3]]", 3, "unrolling a height of about 10^36305 needs about"
                                  " 10^36305 applications, over the cap of 50000"),
    ("[[2+++20000]++++1.75]", 3, "the rational-height split's intermediate about 10^6020"
                                 " (+^4) 3 (the tower of the height's numerator)"),
    ("[3////[[2+++20000]+[1//2]]]", 2, "a rank-4 super-log to the non-integer base about"
                                       " 10^6020 is exact only at height 1"),
    ("[3////[1+[1//[2+++20000]]]]", 2, "a rank-4 super-log to the non-integer base about"
                                       " 1 is exact only at height 1"),
], ids=["order 6^^3", "base 2^20000 to 1.75", "super-log base 2^20000 + 1/2",
        "super-log base 1 + 2^-20000"])
def test_a_number_past_the_int_text_cap_is_named_by_its_size(text, code, message):
    # the order 6 (+^4) 3 has 36,306 digits and 2^20000 has 6,021, past the
    # 4,300 that `str` of an int allows: a refusal that names such a number
    # gives an approximation of it, with the refusal's own exit code
    exit_code, out, err = run_main("eval", text)
    assert (exit_code, out) == (code, "")
    assert message in err


def test_tower_blowup_keeps_its_message():
    code, _, err = run_main("eval", "[10++++5]")
    assert code == 3
    assert "tower magnitude exceeds the configured cap" in err
    assert "split" not in err


def test_inexact_height_at_rank_4_is_refused():
    # 1.5 (+^5) 3 = 1.5 (+^4) (1.5 (+^4) 1.5), whose inner tower is a ball
    code, _, err = run_main("eval", "[1.5+++++3]")
    assert code == 2
    assert ("the height of a rank-4 operator must be an exact rational; this tower"
            " needs an approximate intermediate as a height") in err


@pytest.mark.parametrize("text", ["[[2---2]+++++2]", "[[2---2]+++++3]", "[[2---2]-----[1//3]]"])
def test_an_inexact_base_at_rank_5_is_refused_as_a_height(text):
    # sqrt(2) (+^5) n starts with sqrt(2) (+^4) sqrt(2), whose height is a
    # ball; the super-root of order 1/3 goes through sqrt(2) (+^5) 3.  The
    # refusal comes at once, not from the step cap on an exact end of the
    # ball standing in for the height
    start = time.perf_counter()
    code, out, err = run_main("eval", text)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert ("the height of a rank-4 operator must be an exact rational; this tower"
            " needs an approximate intermediate as a height") in err


@pytest.mark.parametrize("text", ["[[9--4]---[2--1]]", "[[8--1]///[4--1]]", "[[27--8]///[9--4]]"])
def test_rational_rank_3_values_print_exact_digits(text):
    # each is exactly 3/2: a perfect-square root and two rational logs, whose
    # digits used to sit on a boundary that a ball around 3/2 never clears
    code, out, err = run_main("eval", text, "--digits", "30", "--format", "json")
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert (payload["value"], payload["radius"]) == ("1." + "5" + "0" * 29, "0/1")


# (sqrt 2 - sqrt 2)^n: an integer power of a ball around 0 certifies 0, a
# negative one cannot
ZERO_BALL = "[[[1+1]---[1+1]]-[[1+1]---[1+1]]]"


@pytest.mark.parametrize("exponent", ["[1+1]", "[[1+1]+1]"])
def test_integer_power_of_a_ball_around_zero(exponent):
    code, out, _ = run_cli("eval", f"[{ZERO_BALL}+++{exponent}]", "--digits", "15")
    assert (code, out) == (0, "0.000000000000000\n")


def test_negative_power_of_a_ball_around_zero():
    code, out, err = run_cli("eval", f"[{ZERO_BALL}+++[1-[1+1]]]", "--digits", "15")
    assert (code, out) == (3, "")
    assert "power base interval reaches zero" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--digits", "-1"), ("--guard", "-2"), ("--guard", "0"), ("--base", "1"), ("--base", "40")],
)
def test_bad_numeric_flag_is_usage_error(flag, value):
    code, out, err = run_cli("eval", "1", flag, value)
    assert (code, out) == (2, "")
    assert f"argument {flag}: must be" in err
    assert "Traceback" not in err


NEGATIVE_DIGITS = "hypercalc eval: error: argument --digits: must be >= 0, got -1"
NO_EXPRESSION = "hypercalc trace: error: the following arguments are required: expression"


@pytest.mark.parametrize("argv, message", [
    (["eval", "1", "--digits=-1"], NEGATIVE_DIGITS),
    (["eval", "1", "--dig", "-1"], NEGATIVE_DIGITS),
    (["eval", "1", "--format", "xml"],
     "hypercalc eval: error: argument --format: invalid choice: 'xml'"),
    (["trace"], NO_EXPRESSION),
    (["trace", "--digits", "3"], NO_EXPRESSION),
    (["eval", "1", "extra"], "hypercalc: error: unrecognized arguments: extra"),
    (["trace", "1", "extra"], "hypercalc: error: unrecognized arguments: extra"),
], ids=["= form", "abbreviation", "bad choice", "trace alone", "trace without expression",
        "extra positional", "trace extra positional"])
def test_usage_errors_keep_their_messages(argv, message):
    # lines the fast pass leaves to argparse get argparse's usage and error
    # line; a choice's list of choices is quoted differently across versions
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    prog = message.split(": error: ")[0]  # the parser that reports it prints its usage
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.splitlines()[-1].startswith(message)
    assert "Traceback" not in err


def test_json_output_roundtrips():
    code, out, _ = run_cli(
        "eval", "[2++++0.5]", "--digits", "12", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == "[2++++0.5]"
    assert payload["digits"] == 12
    assert payload["value"].startswith("1.559610469462")
    # the canonical field re-parses to the same term
    assert parse(payload["canonical"]) == parse("[2++++0.5]")
    assert render(parse(payload["canonical"])) == payload["canonical"]


def test_json_trace():
    code, out, _ = run_cli(
        "trace", "[[1+[1+1]]----[1+1]]", "--digits", "8", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["trace"] == ["[[1+2]----[1+1]]", "[3----[1+1]]", "[3----2]"]
    assert payload["value"] == "1.82545502"


def test_trace_is_eval_with_trace():
    for fmt in ("plain", "json"):
        args = ("[[1+[1+1]]----[1+1]]", "--digits", "8", "--format", fmt)
        traced = run_main("trace", *args)
        assert traced[0] == 0 and traced[1].count("\n") == (4 if fmt == "plain" else 1)
        assert traced == run_main("eval", "--trace", *args)


@pytest.mark.parametrize("text, root", [("[27----2]", "3"), ("[256----2]", "4"), ("[65536----4]", "2")])
def test_integer_super_roots_print_exact_digits(text, root):
    code, out, err = run_main("eval", text, "--digits", "30", "--format", "json")
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert payload["value"] == root + "." + "0" * 30
    assert payload["radius"] == "0/1"


@pytest.mark.parametrize("text", ["[[1--2]+++[10+++30000]]", "[2+++[0-[10+++30000]]]"])
def test_underflowing_powers_print_zero_at_once(text):
    # 2^-(10^30000) is certainly below power's snap grid, so it is 0 +/- the
    # grid without an ln or exp sized to the exponent's 100,000 bits
    start = time.monotonic()
    assert run_main("eval", text, "--digits", "20") == (0, "0." + "0" * 20 + "\n", "")
    assert time.monotonic() - start < 1


def test_super_log_to_a_non_integer_base():
    # towers over 6/5 are irrational above height 1, so only the base itself
    # has an exact super-log; every other value refuses at once
    for text in ("[5////1.2]", "[1.3////1.2]"):
        start = time.monotonic()
        code, out, err = run_main("eval", text)
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert "non-integer base 6/5 is exact only at height 1" in err
    assert run_main("eval", "[1.2////1.2]", "--digits", "0") == (0, "1\n", "")
    assert run_main("eval", "[16////2]", "--digits", "0") == (0, "3\n", "")


def test_log_to_a_base_near_one():
    # the base's log is about 2^-20, so `log` refines its logs over several
    # rounds; mpmath agrees to 40 digits
    text = "[3///[[[[1+1]+++20]+1]--[[1+1]+++20]]]"
    assert run_main("eval", text, "--digits", "20") == (
        0, "1151979.02850850881200065633\n", "")


def test_determinism():
    args = ("eval", "[3----2]", "--digits", "15", "--format", "json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a == b


def parse_long_fraction(text):
    """Fraction(text) with the interpreter's cap on int text lifted."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return Fraction(text)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        sys.set_int_max_str_digits(saved)


def test_eval_prints_a_radius_longer_than_the_int_text_cap(tmp_path):
    # sqrt 2 at 5,000 digits has a radius whose denominator runs past the
    # 4,300 digits `str` of an int allows; plain, JSON and --file all print
    code, out, err = run_cli("eval", "[[1+1]---[1+1]]", "--digits", "5000")
    assert (code, err) == (0, "")
    head, tail = out.strip().split(".")
    assert head == "1" and len(tail) == 5000 and tail.startswith("41421356237")
    code, out, err = run_cli("eval", "[[1+1]---[1+1]]", "--digits", "5000", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["value"] == "1." + tail
    radius = parse_long_fraction(payload["radius"])
    assert 0 < radius <= Fraction(1, 10**5010)
    batch = tmp_path / "exprs.txt"
    batch.write_text("[[1+1]---[1+1]]\n")
    code, out, _ = run_main("eval", "--file", str(batch), "--digits", "5000",
                            "--format", "json")
    assert code == 0 and json.loads(out) == payload


def test_eval_file_batch(tmp_path):
    batch = tmp_path / "exprs.txt"
    batch.write_text("# a comment line\n[1+1]\n\n[1--[1+1]]\n")
    code, out, _ = run_cli("eval", "--file", str(batch), "--digits", "1")
    assert code == 0
    assert out.splitlines() == ["2.0", "0.5"]


def test_eval_file_goes_on_after_a_failing_line(tmp_path):
    batch = tmp_path / "exprs.txt"
    batch.write_text("[1+1]\n[1+\n# a comment line\n[[1+1]++[1+1]]\n\n[0----2]\n[1--[1+1]]\n")
    code, out, err = run_main("eval", "--file", str(batch), "--digits", "1")
    assert code == 1  # the first failing line's
    assert out.splitlines() == ["2.0", "4.0", "0.5"]
    assert err.splitlines() == [
        "line 2: parse error: expected an operand at offset 3",
        "line 6: domain error: super-roots are defined for values >= 1 (at root)",
    ]
    code, out, err = run_main("eval", "--file", str(batch), "--digits", "1", "--format", "json")
    assert (code, err) == (1, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert [r.get("value") for r in records] == ["2.0", None, "4.0", None, "0.5"]
    assert records[1] == {
        "input": "[1+", "line": 2, "exit": 1,
        "error": "parse error: expected an operand at offset 3",
    }
    assert (records[3]["input"], records[3]["line"], records[3]["exit"]) == ("[0----2]", 6, 2)
    # a single expression still fails with the bare message
    assert run_main("eval", "[1+") == (1, "", "parse error: expected an operand at offset 3\n")


def test_eval_file_goes_on_past_a_non_ascii_digit(tmp_path):
    # `str.isdigit` let `²` into a literal, and `int()` aborted the batch
    batch = tmp_path / "exprs.txt"
    batch.write_text("[1+\u00b2]\n[1+1]\n", encoding="utf-8")
    code, out, err = run_main("eval", "--file", str(batch), "--digits", "1")
    assert (code, out) == (1, "2.0\n")
    assert err == "line 1: parse error: stray character '\u00b2' at offset 3\n"
    assert run_main("eval", "[1+\u00b2]") == (
        1, "", "parse error: stray character '\u00b2' at offset 3\n")


def test_eval_file_reads_past_a_byte_order_mark(tmp_path):
    # an editor's UTF-8 byte order mark is not part of line 1; a U+FEFF
    # anywhere else is still a stray character
    batch = tmp_path / "exprs.txt"
    batch.write_text("\ufeff[1+1]\n[1+\ufeff1]\n\ufeff[1+1]\n", encoding="utf-8")
    code, out, err = run_main("eval", "--file", str(batch), "--digits", "1")
    assert (code, out) == (1, "2.0\n")
    assert err == (
        "line 2: parse error: stray character '\\ufeff' at offset 3\n"
        "line 3: parse error: stray character '\\ufeff' at offset 0\n"
    )


def test_parser_is_built_once_and_not_at_import():
    code = (
        "from hypercalc import cli; n = cli.build_parser.cache_info().currsize; "
        "cli.main(['farey', '1']); cli.main(['farey', '2']); "
        "print(n, cli.build_parser.cache_info().misses)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "0 1"


def test_eval_unreadable_file(tmp_path):
    missing = tmp_path / "absent.txt"
    code, out, err = run_cli("eval", "--file", str(missing))
    assert (code, out) == (1, "")
    assert err == f"cannot read {missing}: No such file or directory\n"
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff[1+1]\n")
    code, out, err = run_cli("eval", "--file", str(binary))
    assert (code, out) == (1, "")
    assert err.startswith(f"cannot read {binary}: 'utf-8' codec can't decode")


def test_eval_requires_expression_or_file():
    code, _, _ = run_cli("eval")
    assert code == 1


def test_an_expression_and_a_file_exclude_each_other(tmp_path):
    batch = tmp_path / "exprs.txt"
    batch.write_text("[1+1]\n")
    both = (1, "", "eval takes an expression or --file, not both\n")
    assert run_main("eval", "1", "--file", str(batch)) == both
    assert run_main("eval", f"--file={batch}", "1") == both  # the argparse path


def test_farey_row():
    code, out, _ = run_cli("farey", "3")
    assert code == 0
    assert out.strip() == "0/1 1/3 1/2 2/3 1/1"
    code, out, _ = run_cli("farey", "2", "--format", "json")
    assert json.loads(out) == {"row": 2, "entries": ["0/1", "1/2", "1/1"]}
    # 2^19999 + 1 has more digits than `str()` of an int may show
    code, out, err = run_cli("farey", "20000")
    assert (code, out) == (3, "")
    assert err == "numeric error: row 20000 has 2^19999 + 1 entries, cap is 1048577\n"


def test_repl_session(monkeypatch):
    stdin = io.StringIO(":digits 4\n[1--[1+1]]\n:base 2\n[1--[1+1]]\nbogus(\n:quit\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["repl"])
    assert code == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "0.5000"
    assert lines[1] == "0.1000"
    assert lines[2].startswith("error:")


def test_repl_json_session(monkeypatch):
    stdin = io.StringIO("[1+1]\n:digits 2\n[1--[1+1]]\nbogus(\n:quit\n[1+1]\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["repl", "--format", "json"])
    assert code == 0
    lines = out.getvalue().splitlines()
    assert json.loads(lines[0]) == {
        "input": "[1+1]", "canonical": "[1+1]", "value": "2.00000000000000000000",
        "radius": "0/1", "digits": 20,
    }
    assert json.loads(lines[1])["value"] == "0.50"
    # a failure is a record, as `eval --file --format json` prints it
    assert [json.loads(line) for line in lines[2:]] == [
        {"input": "bogus(", "error": "parse error: stray character 'b' at offset 0", "exit": 1},
    ]


def test_repl_json_failures(monkeypatch):
    # every line of a JSON session parses: bad settings, parse, domain and
    # numeric errors are records with the exit code the command would give
    stdin = io.StringIO(":digits x\n:base\n:base 40\n[1--0]\n[[1+1]++++[[[[[1+1]+1]+1]+1]+1]]\n"
                        "[1+1]\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["repl", "--format", "json", "--digits", "2"])
    assert code == 0
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert records[:3] == [
        {"input": ":digits x", "error": "invalid literal for int() with base 10: 'x'", "exit": 1},
        {"input": ":base", "error": ":base needs one integer", "exit": 1},
        {"input": ":base 40", "error": "base must be in [2, 36]", "exit": 1},
    ]
    assert records[3] == {"input": "[1--0]", "error": "domain error: division by zero (at root)",
                          "exit": 2}
    assert (records[4]["exit"], records[4]["error"].startswith("numeric error: ")) == (3, True)
    assert records[5]["value"] == "2.00"


def test_repl_settings(monkeypatch):
    # :base and :digits set their field; a bad or missing value is an error
    # line that leaves the setting as it was
    stdin = io.StringIO(":base 16\n:digits 2\n[1--4]\n:digits x\n:base\n:base 40\n[1--4]\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["repl"])
    assert code == 0
    assert out.getvalue().splitlines() == [
        "0.40",  # 1/4 in base 16; base 10 would print 0.25
        "error: invalid literal for int() with base 10: 'x'",
        "error: :base needs one integer",
        "error: base must be in [2, 36]",
        "0.40",
    ]


def test_repl_settings_match_the_whole_word(monkeypatch):
    # a setting is its whole first word and exactly one integer: `:baseball`
    # is an expression, and a second value is an error, not dropped
    stdin = io.StringIO(":baseball 16\n:digits 3 4\n:digits\n[1--4]\n:digits  3\n[1--4]\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["repl", "--digits", "2"])
    assert code == 0
    assert out.getvalue().splitlines() == [
        "error: stray character ':' at offset 0",
        "error: :digits needs one integer",
        "error: :digits needs one integer",
        "0.25",
        "0.250",
    ]


def test_main_prints_to_the_current_stdout():
    # output goes to sys.stdout as it is at call time, not at import
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eval", "[1+1]", "--digits", "0"])
    assert (code, out.getvalue()) == (0, "2\n")


def test_selftest_passes():
    code, out, _ = run_cli("selftest")
    assert code == 0
    assert "0 failed" in out


def test_working_tolerance_counts_nodes_not_entries():
    # chains fold into single entries; the radii stay those of one term per node
    for text, radius in [
        ("[2++++2.75]", "1/5846006549323611672814739330865132078623730171904"),
        ("[[2+++0.5]+40]", "1/365375409332725729550921208179070754913983135744"),
    ]:
        code, out, _ = run_main("eval", text, "--digits", "30", "--format", "json")
        assert code == 0
        assert json.loads(out)["radius"] == radius


def test_trace_of_a_long_literal_stops_at_the_text_cap():
    # 99,998 events over a ~400,000-character text would build ~2*10^10
    # characters; the cap ends it after about 50 of them
    code, out, err = run_main("trace", "99999")
    assert (code, out, err) == (3, "", "numeric error: the reduction trace passed 20,000,000 "
                                       "characters of text at step 50 of 99,998\n")


def test_trace_reports_the_evaluation_error_before_the_text_cap():
    # the division fails before any event fires, so its error is the one
    # reported, as `eval` reports it, not the cap on the chain's trace
    for command in ("trace", "eval"):
        code, out, err = run_main(command, "[99999//0]")
        assert (code, out, err) == (2, "", "domain error: division by zero (at root)\n")


def test_trace_evaluates_the_term_once(monkeypatch):
    # the trace is replayed from the values of the round that met the
    # target, so `trace` runs one evaluation and builds one trace
    calls = []
    evaluate, trace_init = engine.evaluate, engine._Trace.__init__

    def counted_evaluate(*args, **kwargs):
        calls.append("evaluate")
        return evaluate(*args, **kwargs)

    def counted_init(self, *args):
        calls.append("trace")
        trace_init(self, *args)

    monkeypatch.setattr(engine, "evaluate", counted_evaluate)
    monkeypatch.setattr(engine._Trace, "__init__", counted_init)
    code, out, err = run_main("trace", "[3///[[1+1]---[[1+1]+++120]]]", "--digits", "20")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 126
    assert lines[-1] == "2106776528227830709928956833162496941.81697010403480288099"
    assert sorted(calls) == ["evaluate", "trace"]


def test_trace_shows_an_integer_past_the_int_to_str_limit():
    # 2^64000 has 19,266 digits, past the 4,300 that `str()` of an int allows
    code, out, err = run_main("trace", "[2+++[40+++3]]")
    assert (code, err) == (0, "")
    with decimal.localcontext() as exact:
        exact.prec = 20_000
        digits = str(decimal.Decimal(2) ** 64_000)
    assert out.splitlines()[-2:] == ["[2+++64000]", digits + "." + "0" * 20]


def test_trace_into_a_closed_pipe_exits_quietly():
    # 3,000 lines of ~18 MB in all: the pipe fills long before the trace
    # ends, so the reader closing it after one line makes the next write fail
    chain = "[" * 3000 + "1" + "+1]" * 3000
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypercalc", "trace", chain, "--digits", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""
    assert first == ("[" * 2999 + "2" + "+1]" * 2999 + "\n").encode()


# what `render` and the trace displays write; JSON escapes none of it
TRACE_LINE = re.compile(r"[0-9A-Z.\[\]+\-/]*")


@st.composite
def low_rank_texts(draw, depth=3):
    """Rank-1/2 expressions over literals, with `+1` chains, fractions and
    negative values."""
    if depth == 0 or draw(st.booleans()):
        text = draw(st.sampled_from(["1", "0", "2", "7", "40", "0.5", "2.75"]))
    else:
        op = draw(st.sampled_from(["+", "-", "++", "--"]))
        text = f"[{draw(low_rank_texts(depth - 1))}{op}{draw(low_rank_texts(depth - 1))}]"
    steps = draw(st.integers(0, 3))
    return "[" * steps + text + "+1]" * steps


@given(low_rank_texts(), st.integers(2, 36), st.integers(0, 40), st.booleans())
@settings(max_examples=200, deadline=None)
@example(text="1", base=10, digits=20, traced=True)  # "trace": []
@example(text="[[1--3]-[5--1]]", base=36, digits=20, traced=True)  # -4.O, 0.C
@example(text="[1+1]\u00a0", base=10, digits=20, traced=True)  # an escaped input
@example(text="[2999+[0.5--40]]", base=16, digits=20, traced=False)  # a long literal's text
@example(text="[[1+1]---[1+1]]", base=10, digits=20, traced=False)  # a radius other than 0/1
def test_json_record_is_json_dumps_byte_for_byte(text, base, digits, traced):
    # `canonical`, `value`, `radius` and the trace's lines are written
    # quoted, unescaped, so each must hold only characters that JSON leaves
    # as they are
    ctx = engine.NumericContext(base=base, digits=digits)
    try:
        payload = cli._result_payload(text, ctx, traced)
    except HypercalcError:
        return
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload, argparse.Namespace(format_="json"))
    assert out.getvalue() == json.dumps(payload, sort_keys=True) + "\n"
    assert ("trace" in payload) == traced
    for line in [*payload.get("trace", ()), payload["canonical"], payload["value"],
                 payload["radius"]]:
        assert TRACE_LINE.fullmatch(line)


def peak_rss_mb(*argv: str) -> float:
    """Peak RSS of one fresh `hypercalc` process running argv, in MB."""
    child = subprocess.Popen([sys.executable, "-m", "hypercalc", *argv],
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    assert status == 0
    return usage.ru_maxrss / 1024


def test_a_json_trace_peaks_near_the_plain_one():
    # the record's trace is written a batch of lines at a time: one join of
    # all 3,000 lines of this chain's trace (and the stream's encoding of it)
    # took the peak from 34 MB in plain format to 68 MB
    chain = "[" * 3000 + "1" + "+1]" * 3000
    plain = peak_rss_mb("trace", chain, "--digits", "0")
    record = peak_rss_mb("trace", chain, "--digits", "0", "--format", "json")
    assert record <= 1.1 * plain


def test_a_traced_command_builds_no_trace_event(monkeypatch):
    # the command prints the chain's lines; `TraceEvent`s are built only
    # when `EvalResult.trace` is read, as `trace_reduce` reads it
    built = []
    trace_event = engine.TraceEvent

    def counted(*args):
        built.append(args)
        return trace_event(*args)

    monkeypatch.setattr(engine, "TraceEvent", counted)
    steps = 2000
    chain = "[" * steps + "1" + "+1]" * steps
    afters = ["[" * (steps - j) + str(j + 1) + "+1]" * (steps - j) for j in range(1, steps + 1)]
    code, out, err = run_main("trace", chain, "--digits", "0")
    assert (code, err) == (0, "")
    assert out.splitlines() == afters[:-1] + ["2001"]
    code, out, err = run_main("trace", chain, "--digits", "0", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["trace"] == afters[:-1]
    assert built == []
    events = engine.trace_reduce(parse(chain), engine.NumericContext(digits=0))
    assert len(built) == steps
    assert [e.step for e in events] == list(range(1, steps + 1))
    assert [e.path for e in events] == [("L",) * (steps - j) for j in range(1, steps + 1)]
    assert [e.before for e in events] == [render(parse(chain))] + afters[:-1]
    assert [e.after for e in events] == afters


def test_a_command_line_walks_no_tree(monkeypatch):
    # `parse` records the evaluator's entries, from which `render` writes
    # the canonical text, so neither `render` nor the evaluator walks the
    # term; `flatten` walks a term built by hand with `_walk`
    calls = []
    walk = terms._walk

    def counted(term):
        calls.append(term)
        return walk(term)

    monkeypatch.setattr(terms, "_walk", counted)
    text = "[4.19/[44.5--3.68]]"
    for command in ("eval", "trace"):
        code, out, err = run_main(command, text, "--digits", "30", "--base", "16",
                                  "--format", "json")
        assert (code, err) == (0, "")
    assert calls == []
    # a copy carries no recording, so it is walked
    copy = pickle.loads(pickle.dumps(parse(text)))
    assert render(copy) == render(parse(text)) and calls


def test_a_traced_command_renders_its_term_once(monkeypatch):
    # the trace's first line is the term's render, and the record's
    # `canonical` is that line: one render a traced command, where the
    # evaluator and the record each took one
    calls = []
    real = terms.render

    def counted(term):
        calls.append(term)
        return real(term)

    monkeypatch.setattr(cli, "render", counted)
    monkeypatch.setattr(engine, "render", counted)
    text = "[4.19/[44.5--3.68]]"
    code, out, err = run_main("trace", text, "--digits", "30", "--format", "json")
    assert (code, err) == (0, "")
    assert len(calls) == 1
    assert json.loads(out)["canonical"] == real(parse(text))
    calls.clear()
    code, out, err = run_main("eval", text, "--digits", "30", "--format", "json")
    assert (code, err, len(calls)) == (0, "", 1)


def test_a_traced_command_builds_no_path(monkeypatch):
    # the command prints the chain's lines, so it never joins a node's path;
    # `_parents` is the one home of the path rule, read when events are
    calls = []
    parents = engine._parents

    def counted(flat):
        calls.append(len(flat))
        return parents(flat)

    monkeypatch.setattr(engine, "_parents", counted)
    text = "[[2+[1+1]]++[3--7]]"
    code, out, err = run_main("trace", text, "--format", "json")
    assert (code, err) == (0, "")
    assert calls == []
    result = engine.evaluate(parse(text), engine.NumericContext(digits=0), collect_trace=True)
    assert [e.path for e in result.trace] == [
        ("L", "L"), ("L", "R"), ("L",), ("R", "L", "L"), ("R", "L"),
        *[("R", "R") + ("L",) * d for d in range(5, -1, -1)], ("R",), (),
    ]
    assert len(calls) == 1
    # a traced result is a value: it hashes, and pickles to an equal one
    # whose events are the same
    again = pickle.loads(pickle.dumps(result))
    assert again == result and hash(again) == hash(result)
    assert again.trace == result.trace


def test_a_deep_right_nested_trace_paths_each_node():
    # 2,000 nodes, each an entry of its own, nested down the right: every
    # event's path is joined from the links, the innermost first
    text = "[1++" * 2000 + "1" + "]" * 2000
    events = engine.trace_reduce(parse(text), engine.NumericContext(digits=0))
    assert [e.path for e in events] == [("R",) * (1999 - j) for j in range(2000)]
    assert events[-1].after == "1"


def test_starting_the_cli_loads_no_introspection_modules():
    # a one-shot command pays for every module its import loads, and
    # `dataclasses` alone loads `inspect`, `ast`, `dis` and `tokenize`; `-I
    # -S` keeps the environment and `site` from loading any of them first,
    # and `-B` writes no bytecode into the package
    banned = ["dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "random"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hypercalc.cli; "
            "print(*sorted(set(sys.argv[2:]) & set(sys.modules)))")
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, package_parent, *banned],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_a_common_line_never_imports_argparse():
    # `eval` and `trace` lines of exact flags are read without argparse, so
    # a one-shot command never loads it (nor gettext); an abbreviation is
    # argparse's, which is loaded then
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from hypercalc import cli; "
            "cli.main(['eval', '[1+1]']); print('argparse' in sys.modules); "
            "cli.main(['eval', '1', '--dig', '3']); print('argparse' in sys.modules)")
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, package_parent],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["2.00000000000000000000", "False", "1.000", "True"]


def argparse_namespace(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


COMMANDS = ["eval", "trace", "repl", "farey", "selftest"]
FLAGS = list(cli._EVAL_FLAGS)
# forms the fast pass leaves to argparse: abbreviations, `=`, help, `--`
ODD_FLAGS = ["--dig", "--b", "--fo", "--tr", "--digits=5", "--format=json", "--base=-1", "-h",
             "--help", "--", "-x"]
VALUES = ["-1", "-0", "0", "1", "36", "37", " 7", "+5", "1_0", "\u0663", "xml", "json", "plain", ""]
EXPRESSIONS = ["[1+1]", "1", "-1", "-[1+1]", "[1--0]", "eval", "trace"]


@st.composite
def command_lines(draw):
    """argv lists of every command, flag and odd form, mostly a flag and a
    value in turn so that many of them are well formed."""
    argv = [draw(st.sampled_from(COMMANDS + ["eval", "trace"] * 3))]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["flag"] * 4 + ["odd", "value", "expression"]))
        if kind == "flag":
            argv += [draw(st.sampled_from(FLAGS)), draw(st.sampled_from(VALUES + EXPRESSIONS))]
        else:
            pool = {"odd": ODD_FLAGS, "value": VALUES, "expression": EXPRESSIONS}[kind]
            argv.append(draw(st.sampled_from(pool)))
    return argv


# values each flag takes, so that well-formed lines are drawn often
GOOD_VALUES = {"--base": ["2", "36", " 7", "+5", "1_0", "\u0663"],
               "--digits": ["0", "1", "37", " 7", "+5", "1_0", "\u0663"],
               "--guard": ["1", "36", "37", "+5", "\u0663"],
               "--format": ["plain", "json"], "--file": ["", "exprs.txt", "1"]}


@st.composite
def well_formed_lines(draw):
    """`eval` and `trace` lines of exact flags with values they take, and
    one expression (or none, for `eval`) anywhere among them."""
    command = draw(st.sampled_from(["eval", "trace"]))
    flags = [f for f in FLAGS if command == "eval" or f not in ("--file", "--trace")]
    args = []
    for flag in draw(st.lists(st.sampled_from(flags), max_size=5)):
        value = [] if flag == "--trace" else [draw(st.sampled_from(GOOD_VALUES[flag]))]
        args.append([flag, *value])
    if command == "trace" or draw(st.booleans()):
        args.insert(draw(st.integers(0, len(args))), [draw(st.sampled_from(EXPRESSIONS[:-2]))])
    return [command, *(word for arg in args for word in arg)]


@given(st.one_of(command_lines(), well_formed_lines()))
@settings(max_examples=600, deadline=None)
@example(["eval", "[1+1]", "--digits", "5", "--base", "16", "--format", "json"])
@example(["trace", "--guard", "1", "[1+1]", "--digits", "\u0663"])
@example(["eval", "--trace", "--file", "", "--trace"])
def test_the_fast_pass_is_argparse_or_declines(argv):
    fast = cli._parse_common(argv)
    expected = argparse_namespace(argv)
    if expected is None:  # argparse exits: help or a usage error
        assert fast is None
    else:
        assert fast is None or fast == expected


@pytest.mark.parametrize("argv", [
    ["eval", "1", "-h"], ["eval", "--", "1"], ["eval", "1", "--dig", "5"],
    ["eval", "1", "--digits=5"], ["trace", "1", "--file", "f"], ["trace", "1", "--trace"],
    ["eval", "1", "--digits", "-1"], ["eval", "--file", "-"], ["eval", "1", "--digits", "x"],
    ["eval", "1", "--base", "37"], ["eval", "1", "--format", "xml"], ["eval", "1", "extra"],
    ["trace"], ["trace", "--digits", "3"], ["eval", "-1"], ["eval", "1", "--digits"],
    ["repl"], ["farey", "3"], ["selftest"], [],
], ids=["help", "--", "abbreviation", "= form", "another command's flag", "eval's switch",
        "value starting with -", "file named -", "not an int", "out of bounds", "bad choice",
        "second positional", "trace alone", "trace without expression",
        "expression starting with -", "missing value", "repl", "farey", "selftest", "empty"])
def test_the_fast_pass_declines(argv):
    assert cli._parse_common(argv) is None


def test_common_lines_skip_argparse(monkeypatch):
    # the benchmark's command lines, and `trace` and `eval --trace`, never
    # build or call the parser
    def refuse():
        raise AssertionError("argparse was used")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run_main("eval", "[1+1]", "--digits", "2", "--base", "16", "--format", "json")[0] == 0
    assert run_main("trace", "[1+[1+1]]", "--digits", "0") == (0, "[1+2]\n3\n", "")
    assert run_main("eval", "--trace", "--guard", "3", "[1+[1+1]]", "--digits", "0") == (
        0, "[1+2]\n3\n", "")
    assert run_main("eval", "--digits", "0") == (1, "", "eval needs an expression or --file\n")
