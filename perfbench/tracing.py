"""Outside-in spans and counters for the traced run.

The wrappers replace public functions at the module attribute their caller
looks them up through (`cli.parse`, `engine.evaluate`, `midops.power`,
`hyperops.brent`, ...), so the program itself is not edited.  Each call
records a span (name, start, end, parent span, operation id); a layer's
self time is its spans' time minus the time their child spans cover.
`balls`, `rationals` and `farey` are not wrapped: the first two run per
arithmetic step, where wrapping would distort the timing, and `farey` runs
only under `verify_split`, which no workload sets.

Every patched attribute is restored when `Tracer.installed()` exits.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import Counter, defaultdict
from fractions import Fraction


def tol_bits(tol: Fraction) -> int:
    """Bits b with 2^-b <= tol (1 for tolerances of 1 or more).

    The same rule as `midops.tol_bits`, kept here so that the benchmark's
    metrics do not move when the program's helpers do.
    """
    return 1 if tol >= 1 else (tol.denominator // tol.numerator).bit_length() + 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._open: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(index)
        try:
            yield
        except BaseException:
            self.counts[name + ".raised"] += 1
            raise
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, fn, name: str, before=None):
        """fn recorded as span `name`; `before` may rewrite the arguments."""

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- argument hooks --------------------------------------------------

    def _series_tol(self, args, kwargs):
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        if cfg is not None:
            self.maxima["midops.tol_bits"] = max(
                self.maxima["midops.tol_bits"], tol_bits(cfg.target_error))
        return args, kwargs

    def _search(self, args, kwargs):
        """Count a root search and wrap its function to count its probes."""
        f = args[0]
        seen: set = set()

        def probe(x, ft):
            self.counts["rootfind.probes"] += 1
            if x not in seen:
                seen.add(x)
                self.counts["rootfind.distinct_probes"] += 1
            self.maxima["rootfind.probe_tol_bits"] = max(
                self.maxima["rootfind.probe_tol_bits"], tol_bits(ft))
            with self.span("hyperops.probe"):
                return f(x, ft)

        return (probe,) + tuple(args[1:]), kwargs

    def _brent(self, args, kwargs):
        self.counts["rootfind.searches"] += 1
        return self._search(args, kwargs)

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapped attribute; restore all of them on exit."""
        from hypercalc import cli, engine, hyperops, midops

        plan = [
            (cli, "parse", "terms.parse", None),
            (cli, "render", "terms.render", None),
            (cli, "adaptive_evaluate", "engine.adaptive_evaluate", None),
            (cli, "trace_reduce", "engine.trace_reduce", None),
            (engine, "evaluate", "engine.evaluate", None),
            (engine, "to_base_b", "engine.to_base_b", None),
            (midops, "power", "midops.power", self._series_tol),
            (midops, "root", "midops.root", self._series_tol),
            (midops, "log", "midops.log", self._series_tol),
            (hyperops, "hyper_forward", "hyperops.hyper_forward", None),
            (hyperops, "hyper_inverse_minus", "hyperops.hyper_inverse_minus", None),
            (hyperops, "hyper_inverse_slash", "hyperops.hyper_inverse_slash", None),
            (hyperops, "brent", "rootfind.brent", self._brent),
            (hyperops, "expand_upper", "rootfind.expand_upper", self._search),
        ]
        saved = []
        try:
            for module, attr, name, before in plan:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, before))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- results ---------------------------------------------------------

    def totals(self) -> tuple[Counter, defaultdict, defaultdict]:
        """(span count, inclusive seconds, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return calls, total, own

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, normalised per operation where they are sums."""
        calls, total, own = self.totals()

        def layer(prefix, table, exclude=()):
            return sum(v for k, v in table.items()
                       if k.startswith(prefix) and k not in exclude)

        midops_calls = layer("midops.", calls)
        midops_self = layer("midops.", own)
        probes = self.counts["rootfind.probes"]
        distinct = self.counts["rootfind.distinct_probes"]
        per_op = {
            "terms.parse_calls": calls["terms.parse"],
            "terms.parse_s": total["terms.parse"],
            "terms.render_s": total["terms.render"],
            "cli.self_s": own["cli.main"],
            "engine.evaluate_calls": calls["engine.evaluate"],
            "engine.evaluate_self_s": own["engine.evaluate"],
            "engine.to_base_b_calls": calls["engine.to_base_b"],
            "engine.to_base_b_failed": self.counts["engine.to_base_b.raised"],
            "engine.to_base_b_s": total["engine.to_base_b"],
            "engine.trace_s": total["engine.trace_reduce"],
            "midops.calls": midops_calls,
            "midops.self_s": midops_self,
            "rootfind.searches": self.counts["rootfind.searches"],
            "rootfind.probes": probes,
            "rootfind.distinct_probes": distinct,
            "rootfind.self_s": layer("rootfind.", own),
            "hyperops.calls": layer("hyperops.", calls, ("hyperops.probe",)),
            "hyperops.self_s": layer("hyperops.", own),
        }
        out = {k: v / ops for k, v in per_op.items()}
        out["midops.s_per_call"] = midops_self / midops_calls if midops_calls else 0.0
        out["midops.tol_bits_max"] = self.maxima["midops.tol_bits"]
        out["rootfind.useful_probe_ratio"] = distinct / probes if probes else 0.0
        out["rootfind.probe_tol_bits_max"] = self.maxima["rootfind.probe_tol_bits"]
        return out

    def counters(self) -> dict[str, int]:
        """Every work count (no times): these repeat exactly for one seed."""
        calls, _, _ = self.totals()
        out = {f"calls.{k}": v for k, v in sorted(calls.items())}
        out.update({k: v for k, v in sorted(self.counts.items())})
        out.update({f"max.{k}": v for k, v in sorted(self.maxima.items())})
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
