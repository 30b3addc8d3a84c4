"""One benchmark process: `xlab` CLI calls with machine-speed probes between them.

    python3 bench/child.py PLAN.json REPORT.json [SPANS.json]

PLAN.json is a list of steps, each a list of argument lists.  For each
argument list the process calls ``xlab.cli.main(ARGS)``, which is what the
installed ``xlab`` script does.  It runs the fixed `probe` once untimed
after the imports, then once before the first step and after every step.
REPORT.json gets the wall and CPU seconds of the warm-up probe, of each
probe and of each step, each step's highest exit code, and the peak resident
set (VmHWM, in KiB) at the end.  That figure covers this program only: the
``ru_maxrss`` that wait4() returns also counts the parent's memory, which
the child shares until it calls exec.  With SPANS.json the public functions
listed in `spans.TARGETS` are wrapped before the first step and the spans
are written to SPANS.json at the end.  xlab must be importable
(PYTHONPATH=src).

The probe is the benchmark's own fixed work, in the mix the workloads run:
small Hermitian eigensolves, matrix products and per-item Python.  The
host gives this process a share of a CPU that varies by up to two times
over seconds to minutes; a probe run next to a step slows down with it, so
the parent divides the step's time by the probe's time (see run.py).
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

_rng = np.random.default_rng(20131026)
_PROBE_MATS = []
for _n in (4, 6):
    for _ in range(16):
        _g = _rng.standard_normal((_n, _n)) + 1j * _rng.standard_normal((_n, _n))
        _PROBE_MATS.append(_g @ _g.conj().T)
PROBE_ROUNDS = 25


def probe() -> float:
    """Fixed work of about 35 ms on one core; returns a checksum."""
    acc = 0.0
    for _ in range(PROBE_ROUNDS):
        for m in _PROBE_MATS:
            w, v = np.linalg.eigh(m)
            r = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
            acc += float(np.trace(r @ r).real) / float(np.sum(w))
            acc += len(f"{acc:.17g},{w[0]:.17g}")
    return acc


def timed(fn, *args):
    wall, cpu = time.perf_counter(), time.process_time()
    out = fn(*args)
    return out, time.perf_counter() - wall, time.process_time() - cpu


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_step(main, argvs) -> int:
    return max(main(list(argv)) for argv in argvs)


def run(argv) -> int:
    plan_path, report_path = argv[0], argv[1]
    trace_path = argv[2] if len(argv) > 2 else None
    with open(plan_path) as fh:
        plan = json.load(fh)
    from xlab import cli

    tracer = None
    if trace_path:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    report = {"warmup": timed(probe)[1:], "probes": [], "steps": []}
    try:
        report["probes"].append(timed(probe)[1:])
        for argvs in plan:
            rc, wall, cpu = timed(run_step, cli.main, argvs)
            report["steps"].append((wall, cpu, rc))
            report["probes"].append(timed(probe)[1:])
    finally:
        report["rss_kib"] = peak_rss_kib()
        with open(report_path, "w") as fh:
            json.dump(report, fh)
        if tracer is not None:
            tracer.dump(trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
