"""hypercalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload series-digits --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.

`--trace 0` measures the end-to-end metrics: set-up time (a fresh
interpreter importing `hypercalc.cli`, median of several), then the timed
closed loop in its own process: the seed's first `timed_ops(--seconds)`
operations, a count sized to take about `--seconds` (see workloads.py).
Timings are scaled to a reference machine speed measured by
`worker.calibrate()`; the unscaled wall times are printed too.  `--trace 1`
measures the per-layer metrics: the workload's fixed list of operations runs
once untraced and once traced, each in a fresh process, and their outputs
must agree.  Every operation's
outcome is checked against an independent reference.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (each metric a value and a unit).  Exit code 2 means the run could
not be made, and then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.worker import calibrate  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 31
DEADLINE_S = 170.0
# Timings are reported at the speed of a machine on which one `calibrate()`
# slice takes this long; see README ("Noise").
REFERENCE_CALIBRATION_S = 0.001

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "terms.parse_calls": "1/op",
    "terms.parse_s": "s/op",
    "terms.render_s": "s/op",
    "cli.self_s": "s/op",
    "engine.evaluate_calls": "1/op",
    "engine.evaluate_self_s": "s/op",
    "engine.to_base_b_calls": "1/op",
    "engine.to_base_b_failed": "1/op",
    "engine.to_base_b_s": "s/op",
    "engine.trace_s": "s/op",
    "midops.calls": "1/op",
    "midops.self_s": "s/op",
    "midops.s_per_call": "s",
    "midops.tol_bits_max": "bits",
    "rootfind.searches": "1/op",
    "rootfind.probes": "1/op",
    "rootfind.distinct_probes": "1/op",
    "rootfind.useful_probe_ratio": "ratio",
    "rootfind.probe_tol_bits_max": "bits",
    "rootfind.self_s": "s/op",
    "hyperops.calls": "1/op",
    "hyperops.self_s": "s/op",
    "trace_overhead": "ratio",
    "fail_share": "ratio",
}


class RunError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 1:
        raise RunError("out of time")
    return left


def measure_setup(deadline: float) -> tuple[float, float]:
    """(scaled, wall) median time of a fresh interpreter importing hypercalc.cli."""
    command = [sys.executable, "-c", "import hypercalc.cli"]
    scaled, wall = [], []
    for i in range(SETUP_REPEATS + 1):
        speed = calibrate()
        t0 = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=_env(), capture_output=True,
                              timeout=_remaining(deadline))
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise RunError("import hypercalc.cli failed:\n" + done.stderr.decode())
        if i:  # the first start also compiles bytecode; it is not timed
            wall.append(elapsed)
            scaled.append(elapsed * REFERENCE_CALIBRATION_S / speed)
    return statistics.median(scaled), statistics.median(wall)


def run_worker(args: list[str], deadline: float) -> dict:
    command = [sys.executable, "-m", "perfbench.worker", *args]
    try:
        done = subprocess.run(command, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as err:
        raise RunError("workload process overran the deadline") from err
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"workload process exited with {done.returncode}")
    return json.loads(lines[-1])


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _scale(res: dict) -> float:
    """Factor taking a worker's wall times to the reference machine speed."""
    return REFERENCE_CALIBRATION_S / res["calibration_s"]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setup, setup_wall = measure_setup(deadline)
    ops = WORKLOADS[workload].timed_ops(seconds)
    res = run_worker(["--workload", workload, "--seed", str(seed), "--ops", str(ops)],
                     deadline)
    scale = _scale(res)
    values = {
        "throughput_ops_s": (res["attempted"] - res["failed"]) / (res["busy_s"] * scale),
        "latency_p50_s": res["latency_p50_s"] * scale,
        "latency_p90_s": res["latency_p90_s"] * scale,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": setup,
    }
    print(f"{workload} unscaled wall clock: throughput_ops_s = "
          f"{(res['attempted'] - res['failed']) / res['busy_s']:.6g} 1/s, "
          f"latency_p50_s = {res['latency_p50_s']:.6g} s, "
          f"latency_p90_s = {res['latency_p90_s']:.6g} s, setup_s = {setup_wall:.6g} s; "
          f"the metrics below scale the loop's times by {scale:.4g}")
    return res, _metrics(values, END_TO_END_UNITS), True


def per_layer(workload: str, seed: int, deadline: float):
    common = ["--workload", workload, "--seed", str(seed),
              "--ops", str(WORKLOADS[workload].traced_ops)]
    plain = run_worker(common, deadline)
    traced = run_worker(common + ["--traced"], deadline)
    values = dict(traced["layers"])
    values["trace_overhead"] = (traced["busy_s"] * _scale(traced)) / (
        plain["busy_s"] * _scale(plain))
    values["fail_share"] = traced["failed"] / traced["attempted"]
    same = traced["outputs_sha256"] == plain["outputs_sha256"]
    if not same:
        print("traced and untraced outputs differ", file=sys.stderr)
    return traced, _metrics(values, PER_LAYER_UNITS), same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hypercalc" / "cli.py").is_file():
        print("no hypercalc sources under src/ in this checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res, metrics, same = per_layer(args.workload, args.seed, deadline)
        else:
            res, metrics, same = end_to_end(args.workload, args.seed, args.seconds,
                                            deadline)
    except (RunError, subprocess.SubprocessError, OSError, ValueError, KeyError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 2
    attempted, failed = res["attempted"], res["failed"]
    for name, metric in metrics.items():
        if name == "fail_share":
            continue  # printed below with its counts
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} fail_share = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations; {res['wrong']} wrong answers)")
    print(f"{args.workload} repeat_share = {res['repeat_share']:.6g} "
          "(operations whose command line ran earlier in the run)")
    print(json.dumps({
        "correct": res["wrong"] == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
