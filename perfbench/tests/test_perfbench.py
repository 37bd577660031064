"""Tests of the benchmark itself: generators, oracles, outcome check, tracing.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import oracles, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = workloads.WORKLOADS[name]
    count = workload.round_size + 3
    first = list(itertools.islice(workload.stream(7), count))
    assert first == list(itertools.islice(workload.stream(7), count))
    assert first != list(itertools.islice(workload.stream(8), count))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_run_is_whole_rounds_of_at_least_min_ops(name):
    workload = workloads.WORKLOADS[name]
    for seconds in (1, 10, 30):
        ops = workload.timed_ops(seconds)
        assert ops % workload.round_size == 0
        assert ops >= max(workloads.MIN_OPS, seconds * workload.ops_per_second)
        assert ops - workload.round_size < max(workloads.MIN_OPS,
                                               seconds * workload.ops_per_second)


def test_timed_tower_search_runs_hold_the_same_operations_for_every_seed():
    workload = workloads.WORKLOADS["tower-search"]
    ops = workload.timed_ops(30)

    def commands(seed):
        return sorted(case.argv for case in itertools.islice(workload.stream(seed), ops))

    assert commands(1) == commands(2)


def test_oracles_reproduce_known_values():
    assert oracles.tower(2, 3) == 16
    sqrt2 = ("root", ("rat", 2, 1), ("rat", 2, 1))
    assert oracles.series_digits(sqrt2, 10, 30) == "1.414213562373095048801688724209"
    assert oracles.series_digits(sqrt2, 2, 8) == "1.01101010"
    assert oracles.integer_super_log(16, 2) == 3
    assert oracles.integer_super_log(17, 2) is None
    with mpmath.workprec(200):
        assert oracles.tower_fractional(Fraction(2), Fraction(3)) == 16
        # the split definition: (2^^(1/2))^^2 = 2^^1
        half = oracles.tower_fractional(Fraction(2), Fraction(1, 2))
        assert abs(oracles.tower(half, 2) - 2) < mpmath.mpf(2) ** -150
    assert oracles.exact_digits(Fraction(-7, 4), 10, 3) == "-1.750"
    assert oracles.exact_digits(Fraction(255, 16), 16, 2) == "F.F0"
    assert oracles.exact_digits(Fraction(1, 3), 2, 4) == "0.0101"


def test_judge_classifies_outcomes():
    ok, refused, wrong = oracles.OK, oracles.REFUSED, oracles.WRONG
    digits = oracles.Expected(value="1.5")
    assert oracles.judge(digits, 0, '{"value": "1.5"}\n') == ok
    assert oracles.judge(digits, 0, '{"value": "1.4"}\n') == wrong
    assert oracles.judge(digits, 0, "") == wrong
    assert oracles.judge(digits, 3, "") == refused
    assert oracles.judge(digits, 2, "") == wrong
    assert oracles.judge(digits, "MemoryError: ", "") == refused
    assert oracles.judge(oracles.Expected(value="1.5", boundary=True), 3, "") == ok
    error = oracles.Expected(exit_code=2)
    assert oracles.judge(error, 2, "") == ok
    assert oracles.judge(error, 1, "") == wrong
    assert oracles.judge(error, 0, '{"value": "1"}') == wrong
    traced = oracles.Expected(value="2", trace_lines=2)
    assert oracles.judge(traced, 0, json.dumps({"value": "2", "trace": ["a", "b"]})) == ok
    assert oracles.judge(traced, 0, json.dumps({"value": "2", "trace": ["a"]})) == wrong


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [["cli.main", 0.0, 10.0, None, 0],
                    ["terms.parse", 1.0, 4.0, 0, 0],
                    ["engine.evaluate", 5.0, 9.0, 0, 0],
                    ["midops.power", 6.0, 8.5, 2, 0]]
    calls, total, own = tracer.totals()
    assert own["cli.main"] == pytest.approx(3.0)
    assert own["engine.evaluate"] == pytest.approx(1.5)
    assert total["engine.evaluate"] == pytest.approx(4.0)
    assert calls["midops.power"] == 1


def test_tracer_restores_every_patched_attribute():
    from hypercalc import cli, engine, hyperops, midops

    before = (cli.parse, engine.evaluate, midops.power, hyperops.brent)
    with Tracer().installed():
        assert cli.parse is not before[0] and hyperops.brent is not before[3]
    assert (cli.parse, engine.evaluate, midops.power, hyperops.brent) == before


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        pytest.skip("no BENCHMARK.json beside perfbench/")
    from perfbench import run

    spec = json.loads(spec_path.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def _worker(*args: str) -> dict:
    done = subprocess.run([sys.executable, "-m", "perfbench.worker", *args],
                          cwd=ROOT, env=ENV, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name,ops", [("series-digits", 6), ("tower-search", 22),
                                      ("exact-structure", 10)])
def test_traced_and_untraced_runs_produce_identical_outputs(name, ops):
    common = ["--workload", name, "--seed", "5", "--ops", str(ops)]
    plain = _worker(*common)
    traced = _worker(*common, "--traced")
    assert plain["attempted"] == traced["attempted"] == ops
    assert plain["outputs_sha256"] == traced["outputs_sha256"]


def test_counters_repeat_across_traced_runs_of_one_seed():
    common = ["--workload", "tower-search", "--seed", "5", "--ops", "22",
              "--traced"]
    first, second = _worker(*common), _worker(*common)
    assert first["counters"]["rootfind.probes"] > 0
    assert first["counters"] == second["counters"]


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "tower-search", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
