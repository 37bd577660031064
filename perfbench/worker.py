"""One workload in one process: a closed loop of `hypercalc.cli.main` calls.

    python -m perfbench.worker --workload NAME --seed N --ops K [--traced]

One client sends the next operation only after the last one completes.
Each operation is one `cli.main([...,"--format","json"])` call with standard
output captured; only that call is timed.  Generating inputs, computing
references and a `calibrate()` slice (the machine's current speed) happen
between operations, outside the timed region.

The worker runs exactly the first `--ops` operations of the seed's stream,
so the operations attempted, their outcomes and the work counters repeat
exactly for one seed.  With `--traced` it wraps the layers (see tracing.py)
and writes its spans to `.bench_out/` when it ends.  The last line of
standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARD_LIMIT_S = 150.0  # stop early rather than overrun the caller's deadline


_CALIBRATION_INT = 3**3000


def calibrate() -> float:
    """Seconds for a fixed slice of interpreter work: big-integer products,
    a small-integer loop and tuple copies, the kinds of work hypercalc does.
    Run before every operation, outside the timed region, it samples how
    fast the shared machine is running at that moment."""
    t0 = time.perf_counter()
    y = _CALIBRATION_INT
    for _ in range(20):
        y = (y * _CALIBRATION_INT) >> 4700
    s = 0
    for i in range(3000):
        s += i * i % 7
    path: tuple = ()
    for _ in range(300):
        path = path + ("L",)
    return time.perf_counter() - t0


def _latency(sorted_times: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    rank = max(1, -(-len(sorted_times) * q // 1))
    return sorted_times[int(rank) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    result_out = sys.stdout
    # cli binds sys.stdout as a default argument when it is imported, so the
    # capture buffer must be in place before the import.
    captured = io.StringIO()
    sys.stdout = captured
    try:
        from hypercalc import cli
    finally:
        sys.stdout = result_out
    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"hypercalc imported from {source}, not from this checkout",
              file=sys.stderr)
        return 2

    from .tracing import Tracer
    from .oracles import OK, WRONG, judge
    from .workloads import WORKLOADS

    cases = itertools.islice(WORKLOADS[args.workload].stream(args.seed), args.ops)
    tracer = Tracer() if args.traced else None

    latencies: list[float] = []
    failed = wrong = 0
    digest = hashlib.sha256()
    seen: set = set()
    repeats = 0
    started = time.monotonic()
    busy = calibration = 0.0

    with (tracer.installed() if tracer else contextlib.nullcontext()):
        for index, case in enumerate(cases):
            if time.monotonic() - started > HARD_LIMIT_S:
                print("stopped at the hard time limit", file=sys.stderr)
                break
            calibration += calibrate()
            repeats += case.argv in seen
            seen.add(case.argv)
            captured.seek(0)
            captured.truncate()
            errors = io.StringIO()
            if tracer:
                tracer.op = index
            span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            sys.stdout = captured
            try:
                with contextlib.redirect_stderr(errors), span:
                    t0 = time.perf_counter()
                    try:
                        code = cli.main(list(case.argv))
                    except SystemExit as exc:  # argparse rejection
                        code = f"SystemExit({exc.code})"
                    except Exception as exc:  # escaped cli.main: a failure
                        code = f"{type(exc).__name__}: {exc}"[:200]
                    elapsed = time.perf_counter() - t0
            finally:
                sys.stdout = result_out
            busy += elapsed
            latencies.append(elapsed)
            text = captured.getvalue()
            digest.update(json.dumps([case.argv, code, text]).encode())
            verdict = judge(case.expected, code, text)
            if verdict != OK:
                failed += 1
                wrong += verdict == WRONG
                print(f"{verdict}: {' '.join(case.argv)[:160]} -> {code}",
                      file=sys.stderr)

    attempted = len(latencies)
    if attempted == 0:
        print("no operation ran", file=sys.stderr)
        return 2
    ordered = sorted(latencies)
    result = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "busy_s": busy,
        "calibration_s": calibration / attempted,
        "latency_p50_s": _latency(ordered, 0.5),
        "latency_p90_s": _latency(ordered, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "repeat_share": repeats / attempted,
        "outputs_sha256": digest.hexdigest(),
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(attempted)
        result["counters"] = tracer.counters()
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    print(json.dumps(result), file=result_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
