"""xlab benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--trace 0|1]

Run from anywhere; the program under test is the `src/xlab` next to this
directory.  One client runs one `xlab` process at a time.  `--trace 0`
reports the end-to-end metrics of untraced runs; `--trace 1` alternates
untraced and traced runs of the same inputs and reports per-layer metrics.
Every time is scaled to a reference machine speed by the fixed probe that
each process runs between its steps (see child.py and `PROBE_REF_S`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Each run's context and
chunk records are written to `.bench_out/results/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = BENCH / "child.py"
SETUP_REPEATS = 10  # set-up runs in a run, at least
SETUP_PER_CHUNK = 2
CHILD_TIMEOUT_S = 60.0
# Wall seconds of one child.probe() at the reference machine speed: a
# 2-vCPU x86-64 VM with Python 3.11.7 and numpy 2.4.6, at its quicker end.
# Every reported time is scaled by this over the probes run next to it.
PROBE_REF_S = 0.030

END_TO_END = {  # name -> unit
    "samples_per_s": "1/s",
    "setup_s": "s",
    "cpu_ms_per_sample": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class ChunkRun:
    """One finished child process: its report, resources used and output verdict."""

    def __init__(self, chunk, wall, rc, report, stderr_tail):
        self.chunk = chunk
        self.wall = wall
        self.rc = rc
        self.report = report
        self.rss_mb = report["rss_kib"] / 1024.0 if report else None
        self.stderr_tail = stderr_tail
        self.texts = []  # per step, the text of each output file
        self.digest = None
        self.failed = chunk.samples
        self.reason = None

    def step_seconds(self):
        """Wall and CPU seconds of the steps, each scaled to the reference speed.

        A step's time is multiplied by PROBE_REF_S over the mean time of the
        probes run just before and just after it in the same process.
        """
        probes, wall, cpu = self.report["probes"], 0.0, 0.0
        for k, (w, c, _) in enumerate(self.report["steps"]):
            wall += w * PROBE_REF_S * 2.0 / (probes[k][0] + probes[k + 1][0])
            cpu += c * PROBE_REF_S * 2.0 / (probes[k][1] + probes[k + 1][1])
        return wall, cpu

    def setup_seconds(self):
        """Process wall time less its probes, scaled to the reference speed."""
        probes = self.report["probes"]
        own = self.wall - self.report["warmup"][0] - sum(w for w, _ in probes)
        return own * PROBE_REF_S * len(probes) / sum(w for w, _ in probes)

    def record(self) -> dict:
        return {"samples": self.chunk.samples, "wall_s": self.wall, "rc": self.rc,
                "report": self.report, "rss_mb": self.rss_mb, "failed": self.failed,
                "reason": self.reason, "sha256": self.digest}


def launch(chunk, workdir: Path, trace_path=None, timeout=CHILD_TIMEOUT_S) -> ChunkRun:
    """Run one chunk in a fresh process and wait for it."""
    for out in chunk.outputs:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).unlink(missing_ok=True)
    plan_path, report_path = workdir / "plan.json", workdir / "report.json"
    err_path = workdir / "stderr.txt"
    plan_path.write_text(json.dumps([s.argvs for s in chunk.steps]))
    report_path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(plan_path), str(report_path)]
    if trace_path:
        argv.append(str(trace_path))
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=child_env(), cwd=ROOT)
        # A blocking wait: Popen.wait(timeout) polls, in steps of up to 50 ms.
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            rc = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = None
    run = ChunkRun(chunk, wall, rc, report, tail[0] if tail else "")
    digest = hashlib.sha256()
    for step in chunk.steps:
        texts = []
        for out in step.outputs:
            try:
                text = Path(out).read_text()
            except (OSError, UnicodeDecodeError):
                text = ""
            texts.append(text)
            digest.update(text.encode())
            digest.update(b"\0")
            Path(out).unlink(missing_ok=True)
        run.texts.append(texts)
    run.digest = digest.hexdigest()
    return run


def check(workload, run: ChunkRun) -> ChunkRun:
    """Set run.failed / run.reason from the exit codes and the output checks."""
    if run.rc != 0 or run.report is None or len(run.report["steps"]) != len(run.chunk.steps):
        run.failed = run.chunk.samples
        run.reason = f"exit code {run.rc}: {run.stderr_tail}"
        return run
    run.failed, run.reason = 0, None
    for step, texts, (_, _, rc) in zip(run.chunk.steps, run.texts, run.report["steps"]):
        if rc in run.chunk.ok_codes:
            failed, reason = workload.check(step, texts)
        else:
            failed, reason = step.samples, f"xlab exit code {rc}: {run.stderr_tail}"
        run.failed += failed
        run.reason = run.reason or reason
    return run


def cross_check_2x3(run: ChunkRun):
    """The pooled scatter-2x3 output must equal an in-process threads=1 run."""
    from xlab import cli

    a = run.chunk.steps[0].argvs[0]
    cfg = cli.ExperimentConfig(system=(2, 3), family="tgx",
                               samples=int(a[a.index("--samples") + 1]),
                               seed=int(a[a.index("--seed") + 1]), threads=1)
    text = cli.emit_output(cli.run_scatter(cfg), fmt="json", system=(2, 3))
    if text != run.texts[0][0]:
        run.failed = run.chunk.samples
        run.reason = "threads=2 output differs from in-process threads=1 output"


class Window:
    """Closed loop of chunks until the next one would overrun `seconds`."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.costs = []

    def more(self, cost_of_last: float) -> bool:
        self.costs.append(cost_of_last)
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(self.costs) <= self.seconds


def measure_end_to_end(workload, seed, seconds, workdir):
    setup = workload.setup_chunk(workdir)
    # The first launch is a warm-up (bytecode, page cache) and is not timed.
    runs = [check(workload, launch(setup, workdir))]
    window, measured, setup_runs = Window(seconds), [], []
    for chunk in workload.chunks(seed, workdir):
        t0 = time.perf_counter()
        run = check(workload, launch(chunk, workdir))
        if not measured and workload.name == "scatter-2x3":
            cross_check_2x3(run)
        run.texts = []
        measured.append(run)
        # Set-up runs after each chunk: spread over the window, their
        # median does not hang on the machine's speed at one moment.
        for _ in range(SETUP_PER_CHUNK):
            setup_runs.append(check(workload, launch(setup, workdir)))
        if not window.more(time.perf_counter() - t0):
            break
    while len(setup_runs) < SETUP_REPEATS:
        setup_runs.append(check(workload, launch(setup, workdir)))
    runs += measured + setup_runs
    # A chunk whose process wrote no report has all its samples failed; the
    # times come from the others.
    measured = [r for r in measured if r.report]
    setup_runs = [r for r in setup_runs if r.report]
    if not measured or not setup_runs:
        raise RuntimeError(f"no {workload.name} process finished: {runs[-1].reason}")
    seconds = [r.step_seconds() for r in measured]
    metrics = {
        "samples_per_s": sum(r.chunk.samples - r.failed for r in measured)
        / sum(w for w, _ in seconds),
        "setup_s": statistics.median(r.setup_seconds() for r in setup_runs),
        "cpu_ms_per_sample": 1000.0 * sum(c for _, c in seconds)
        / sum(r.chunk.samples for r in measured),
        "peak_rss_mb": statistics.median(r.rss_mb for r in measured),
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, runs


def measure_layers(workload, seed, seconds, workdir):
    """Alternate untraced and traced runs of each chunk; fold traced spans."""
    warmup = check(workload, launch(workload.setup_chunk(workdir), workdir))
    runs, stats, overheads = [warmup], spans.LayerStats(), []
    window = Window(seconds)
    for j, chunk in enumerate(workload.chunks(seed, workdir)):
        t0 = time.perf_counter()
        trace_path = workdir / f"spans-{j:03d}.json"
        order = (None, trace_path) if j % 2 == 0 else (trace_path, None)
        pair = {}
        for tp in order:
            pair[tp is not None] = check(workload, launch(chunk, workdir, trace_path=tp))
        plain, traced = pair[False], pair[True]
        if traced.digest != plain.digest:
            traced.failed = chunk.samples
            traced.reason = "traced output differs from untraced output"
        try:
            stats.add(json.loads(trace_path.read_text()))
        except (OSError, ValueError) as exc:
            traced.failed = chunk.samples
            traced.reason = traced.reason or f"no span file: {exc}"
        trace_path.unlink(missing_ok=True)
        if plain.report and traced.report:
            overheads.append(traced.step_seconds()[0] / plain.step_seconds()[0] - 1.0)
        for run in (plain, traced):
            run.texts = []
            runs.append(run)
        if not window.more(time.perf_counter() - t0):
            break
    return layer_metrics(stats, overheads), runs


def layer_metrics(stats: spans.LayerStats, overheads) -> dict:
    """Per-layer metrics; functions a workload never calls read 0."""
    procs = max(stats.processes, 1)
    out = {}
    for name in spans.TARGETS:
        calls = stats.calls.get(name, 0)
        out[f"{name}.calls"] = (calls / procs, "count")
        out[f"{name}.us_per_call"] = (
            1e-3 * stats.total_ns[name] / calls if calls else 0.0, "us")
        out[f"{name}.self_s"] = (1e-9 * stats.self_ns.get(name, 0) / procs, "s")
    durs = stats.durations.get("convert.find_x_equivalent", [])
    for q, key in ((50, "p50_ms"), (90, "p90_ms")):
        out[f"convert.find_x_equivalent.{key}"] = (
            float(np.percentile(durs, q)) * 1e-6 if durs else 0.0, "ms")
    attempts = stats.counters.get("convert.attempts", 0)
    conversions = stats.counters.get("convert.conversions", 0)
    out["convert.attempts_per_conversion"] = (
        attempts / conversions if conversions else 0.0, "count")
    out["convert.accept_frac"] = (conversions / attempts if attempts else 0.0, "frac")
    fn = "states.tgx_rank_state"
    calls = stats.calls.get(fn, 0)
    retries = stats.errors.get(fn, {}).get("RankError", 0)
    out["states.rank_retry_frac"] = (retries / calls if calls else 0.0, "frac")
    first = stats.first_call_ns.get("measures.mems_boundary_2x3", [])
    out["measures.mems_boundary_2x3.first_call_ms"] = (
        statistics.median(first) * 1e-6 if first else 0.0, "ms")
    out["trace.overhead_frac"] = (statistics.median(overheads) if overheads else 0.0, "frac")
    return out


def git_commit():
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context(args, argv) -> dict:
    import xlab

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "xlab": xlab.__version__,
        "git_commit": git_commit(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "argv": argv,
        "loadavg_start": os.getloadavg(),
    }


def run_one(name, args, trace, context) -> dict:
    workload = WORKLOADS[name]
    workdir = OUT / f"work-{name}-{args.seed}-{trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure = measure_layers if trace else measure_end_to_end
        metrics, runs = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.chunk.samples for r in runs)
    failed = sum(r.failed for r in runs)
    result = {
        "workload": name, "trace": trace,
        "context": dict(context, loadavg_end=os.getloadavg()),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "first_failure": next((r.reason for r in runs if r.reason), None),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "chunks": [r.record() for r in runs],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{args.seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def print_result(result):
    name = result["workload"]
    for key, m in result["metrics"].items():
        print(f"{name:<12} {key:<45} {m['value']:>14.6g} {m['unit']}")
    print(f"{name:<12} {'fail_frac':<45} {result['fail_frac']:>14.6g} frac"
          f"  ({result['failed']}/{result['attempted']})")
    if result["first_failure"]:
        print(f"{name:<12} first failure: {result['first_failure']}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default 0; with --workload all, both)")
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be in 1..60")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "xlab" / "__init__.py").is_file():
        print(f"error: no xlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import xlab

    if SRC.resolve() not in Path(xlab.__file__).resolve().parents:
        print(f"error: imported xlab from {xlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    context = run_context(args, ["bench/run.py", *argv])
    if args.workload != "all":
        result = run_one(args.workload, args, args.trace or 0, context)
        print_result(result)
        print(json.dumps({"correct": result["failed"] == 0,
                          "attempted": result["attempted"], "failed": result["failed"],
                          "metrics": result["metrics"]}))
        return 0
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = [run_one(name, args, t, context) for name in WORKLOADS for t in traces]
    for result in results:
        print_result(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{r['workload']}/{k}": m for r in results
                                  for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
