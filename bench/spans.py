"""In-memory span tracing of xlab's public functions, and self-time arithmetic.

`install` swaps each function in `TARGETS` for a timing wrapper by replacing
the module (or class) attribute.  xlab resolves its calls through module
attributes (``measures.concurrence`` -> ``linalg.sqrt_psd`` ->
``linalg.eig_hermitian``), so nested spans appear without editing the
package.  Each thread keeps its own span list and stack: a span's parent is
always the innermost open span of the *same* thread, so worker-pool spans
never make a caller's self time negative.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

# Public functions wrapped by the traced run, as "module.attr[.attr]".
TARGETS = (
    "linalg.eig_hermitian", "linalg.sqrt_psd", "linalg.numerical_rank",
    "linalg.trace_norm",
    "measures.concurrence", "measures.purity", "measures.anti_x_measure",
    "measures.negativity_e", "measures.partial_transpose",
    "measures.mems_boundary_2x3",
    "states.random_mixed", "states.tgx_rank_state", "states.DensityMatrix.rank",
    "convert.find_x_equivalent",
    "tgx.anti_x_mask", "tgx.tgx_mask", "tgx.ElementMask.pairs",
    "cli.run_scatter", "cli.run_conversion_campaign", "cli.emit_output",
)


class Tracer:
    """Collects spans per thread; no lock on the hot path.

    A span is ``(name, start_ns, end_ns, parent, error)`` where ``parent``
    indexes the same thread's span list (-1 for a root) and ``error`` is the
    exception class name or None.
    """

    def __init__(self):
        self._local = threading.local()
        self._threads = []  # (thread id, span list); appended once per thread
        self._register = threading.Lock()
        self.counters = defaultdict(int)

    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._register:
                self._threads.append((threading.get_ident(), local.spans))
            return local.spans, local.stack

    def wrap(self, name, fn, on_result=None, on_error=None):
        """Return `fn` wrapped in a span named `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._state()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, error)
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    def export(self) -> dict:
        return {"threads": [{"tid": tid, "spans": list(spans)}
                            for tid, spans in self._threads],
                "counters": dict(self.counters)}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.export(), fh)


def _conversion_done(tracer, result):
    tracer.counters["convert.attempts"] += int(result.attempts)
    tracer.counters["convert.conversions"] += 1


def _conversion_failed(tracer, exc):
    best = getattr(exc, "best_result", None)
    if best is not None:
        tracer.counters["convert.attempts"] += int(best.attempts)


_HOOKS = {"convert.find_x_equivalent": (_conversion_done, _conversion_failed)}


def install(tracer: Tracer, targets=TARGETS, package: str = "xlab"):
    """Replace every target attribute with a traced wrapper; return the undo list."""
    undo = []
    for name in targets:
        module, *path = name.split(".")
        owner = importlib.import_module(f"{package}.{module}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        original = owner.__dict__[path[-1]]
        on_result, on_error = _HOOKS.get(name, (None, None))
        setattr(owner, path[-1], tracer.wrap(name, original, on_result, on_error))
        undo.append((owner, path[-1], original))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _covered(lo, hi, intervals) -> int:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time (ns) of each span of one thread.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Children come from the same thread only.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [(end - start) - _covered(start, end, children.get(i, ()))
            for i, (_, start, end, _, _) in enumerate(spans)]


class LayerStats:
    """Per-function totals over one or more traced processes."""

    def __init__(self):
        self.processes = 0
        self.calls = defaultdict(int)
        self.errors = defaultdict(lambda: defaultdict(int))
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.durations = defaultdict(list)
        self.first_call_ns = defaultdict(list)
        self.counters = defaultdict(int)

    def add(self, trace: dict):
        """Fold in one process's exported trace."""
        self.processes += 1
        first = {}
        for thread in trace["threads"]:
            spans = [tuple(s) for s in thread["spans"]]
            for span, own in zip(spans, self_times(spans)):
                name, start, end, _, error = span
                self.calls[name] += 1
                self.total_ns[name] += end - start
                self.self_ns[name] += own
                self.durations[name].append(end - start)
                if error is not None:
                    self.errors[name][error] += 1
                if name not in first or start < first[name][0]:
                    first[name] = (start, end - start)
        for name, (_, dur) in first.items():
            self.first_call_ns[name].append(dur)
        for key, val in trace["counters"].items():
            self.counters[key] += val
