"""Tests for the benchmark's own code: output checks, tracing and self time."""

import json
import math
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.append(str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from xlab import cli, linalg, measures  # noqa: E402


@pytest.fixture(scope="module")
def scatter_2x2():
    records = cli.run_scatter(cli.ExperimentConfig(samples=40, seed=3))
    return cli.emit_output(records, fmt="csv")


def _drop_line(text, lineno):
    lines = text.splitlines(keepends=True)
    del lines[lineno]
    return "".join(lines)


def test_scatter_csv_accepts_and_rejects(scatter_2x2):
    assert checks.scatter_csv(scatter_2x2, 40, 4, "general", True) == (0, None)
    # A dropped row is one failed sample, not a shifted tail.
    failed, reason = checks.scatter_csv(_drop_line(scatter_2x2, 6), 40, 4, "general", True)
    assert failed == 1 and "missing" in reason
    lines = scatter_2x2.splitlines()
    cells = lines[3].split(",")
    bad_purity = "\n".join(lines[:3] + [",".join([cells[0], "1.5"] + cells[2:])] + lines[4:])
    failed, reason = checks.scatter_csv(bad_purity, 40, 4, "general", True)
    assert failed == 1 and "purity" in reason
    # Entanglement above the MEMS boundary at the maximally mixed purity.
    above = "\n".join(lines[:3] + [",".join(["0.5", "0.25"] + cells[2:])] + lines[4:])
    failed, reason = checks.scatter_csv(above, 40, 4, "general", True)
    assert failed == 1 and "boundary" in reason
    assert checks.scatter_csv(scatter_2x2, 41, 4, "general", True)[0] == 1
    assert checks.scatter_csv("", 40, 4, "general", True)[0] == 40


def test_scatter_json_and_svg(tmp_path):
    records = cli.run_scatter(cli.ExperimentConfig(system=(2, 3), family="tgx",
                                                   samples=12, seed=4, threads=2))
    plot = tmp_path / "s.svg"
    text = cli.emit_output(records, fmt="json", plot=str(plot), system=(2, 3))
    svg = plot.read_text()
    assert checks.scatter_json(text, 12, 6, "tgx", False) == (0, None)
    assert checks.scatter_svg(svg, 12) == (0, None)
    rows = json.loads(text)
    rows[5]["purity"] = 0.1
    assert checks.scatter_json(json.dumps(rows), 12, 6, "tgx", False)[0] == 1
    del rows[7]
    assert checks.scatter_json(json.dumps(rows), 12, 6, "tgx", False)[0] == 2
    one_circle = svg.replace("<circle ", "<x ", 1)
    assert checks.scatter_svg(one_circle, 12)[0] == 1
    assert checks.scatter_svg(svg[: len(svg) // 2], 12)[0] == 12


def test_campaign_csv():
    header = ",".join(checks.CAMPAIGN_FIELDS)
    good = "0,2,0.6,0.2,0.2001,150,1e-4,1e-31,1"
    text = "\n".join([header, good, "1,3,0.5,0.1,0.1,90,2e-3,1e-31,1",
                      "2,4,0.4,0.0,0.0,12,0.0,1e-31,0", "3,1,1.0,0.5,0.5,3,0.0,1e-9,1"]) + "\n"
    failed, reason = checks.campaign_csv(text, 4, 1e-3)
    assert failed == 3 and "dC" in reason
    assert checks.campaign_csv(f"{header}\n{good}\n", 1, 1e-3) == (0, None)


def _mask_text(dims, kind, pairs=None):
    mask = cli.tgx.anti_x_mask(dims) if kind == "anti" else cli.tgx.tgx_mask(dims)
    pairs = [list(p) for p in mask.pairs()] if pairs is None else pairs
    return json.dumps({"dims": list(dims), "kind": kind, "pairs": pairs})


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 2, 4)])
def test_mask_pair(dims):
    anti, tgx = _mask_text(dims, "anti"), _mask_text(dims, "tgx")
    assert checks.mask_pair(anti, tgx, dims) == (True, None)
    pairs = json.loads(anti)["pairs"]
    # Moving one pair from anti to TGX keeps the partition but breaks symmetry.
    tgx_pairs = json.loads(tgx)["pairs"] + [pairs[0]]
    ok, reason = checks.mask_pair(_mask_text(dims, "anti", pairs[1:]),
                                  _mask_text(dims, "tgx", tgx_pairs), dims)
    assert not ok and "symmetric" in reason
    both = json.loads(tgx)["pairs"] + [pairs[0], pairs[0][::-1]]
    ok, reason = checks.mask_pair(anti, _mask_text(dims, "tgx", both), dims)
    assert not ok and "overlap" in reason
    assert not checks.mask_pair(anti, "", dims)[0]
    assert not checks.mask_pair(tgx, anti, dims)[0]


def test_anti_x_reference_count():
    for dims in workloads.MASK_GRID[::17]:
        n = math.prod(dims)
        assert checks.anti_x_reference(dims).sum() == n * sum(d - 1 for d in dims)


def test_self_times_nested_and_overlapping():
    # root [0,100] with children [10,30] and [40,90]; [40,90] has [50,60].
    nested = [("r", 0, 100, -1, None), ("a", 10, 30, 0, None),
              ("b", 40, 90, 0, None), ("c", 50, 60, 2, None)]
    assert spans.self_times(nested) == [30, 20, 40, 10]
    # Overlapping or out-of-range children are counted once, clipped.
    odd = [("r", 0, 100, -1, None), ("a", 10, 40, 0, None),
           ("b", 30, 50, 0, None), ("c", 90, 120, 0, None)]
    assert spans.self_times(odd) == [50, 30, 20, 30]


def test_layer_stats_over_threads():
    # Two threads overlap in time; parents never cross threads.
    trace = {"threads": [
        {"tid": 1, "spans": [["cli.run_scatter", 0, 1000, -1, None],
                             ["measures.purity", 100, 200, 0, None]]},
        {"tid": 2, "spans": [["measures.concurrence", 150, 450, -1, None],
                             ["linalg.sqrt_psd", 200, 300, 0, None],
                             ["states.tgx_rank_state", 500, 600, -1, "RankError"],
                             ["states.tgx_rank_state", 700, 900, -1, None]]}],
        "counters": {"convert.attempts": 10, "convert.conversions": 2}}
    stats = spans.LayerStats()
    stats.add(trace)
    assert stats.self_ns["cli.run_scatter"] == 900
    assert stats.self_ns["measures.concurrence"] == 200
    assert stats.first_call_ns["states.tgx_rank_state"] == [100]
    metrics = run.layer_metrics(stats, [0.1, 0.3, 0.2])
    assert metrics["states.rank_retry_frac"][0] == 0.5
    assert metrics["convert.attempts_per_conversion"][0] == 5.0
    assert metrics["convert.accept_frac"][0] == 0.2
    assert metrics["trace.overhead_frac"][0] == pytest.approx(0.2)
    assert metrics["tgx.tgx_mask.calls"][0] == 0
    assert all(v >= 0 for k, (v, _) in metrics.items() if k.endswith(".self_s"))


def test_tracer_keeps_one_stack_per_thread():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: barrier.wait(timeout=10))
    outer = tracer.wrap("outer", lambda: inner())
    barrier = threading.Barrier(2)
    workers = [threading.Thread(target=outer) for _ in range(2)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=10)
        assert not t.is_alive()
    threads = tracer.export()["threads"]
    assert len(threads) == 2
    for thread in threads:
        names = [(s[0], s[3]) for s in thread["spans"]]
        assert names == [("outer", -1), ("inner", 0)]
        assert all(v >= 0 for v in spans.self_times(thread["spans"]))


def test_install_traces_nested_calls_and_keeps_output():
    cfg = dict(system=(2, 2), samples=6, seed=9)
    plain = cli.emit_output(cli.run_scatter(cli.ExperimentConfig(**cfg)))
    originals = (measures.concurrence, linalg.eig_hermitian)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        traced = cli.emit_output(cli.run_scatter(cli.ExperimentConfig(**cfg)))
        cli.run_conversion_campaign(cli.ExperimentConfig(samples=1, seed=2))
    finally:
        spans.uninstall(undo)
    assert traced == plain
    assert (measures.concurrence, linalg.eig_hermitian) == originals
    (thread,) = tracer.export()["threads"]
    by_index = thread["spans"]
    chain = {(by_index[s[3]][0], s[0]) for s in by_index if s[3] >= 0}
    assert ("measures.concurrence", "linalg.sqrt_psd") in chain
    assert ("linalg.sqrt_psd", "linalg.eig_hermitian") in chain
    assert ("states.DensityMatrix.rank", "linalg.numerical_rank") in chain
    assert tracer.counters["convert.conversions"] == 1
    assert tracer.counters["convert.attempts"] >= 1


def test_workload_inputs_follow_the_seed(tmp_path):
    for w in workloads.WORKLOADS.values():
        def argvs(seed):
            return [s.argvs for c, _ in zip(w.chunks(seed, str(tmp_path)), range(3))
                    for s in c.steps]
        assert argvs(5) == argvs(5) and argvs(5) != argvs(6)


def test_mask_chunks_cover_grid_evenly(tmp_path):
    w = workloads.WORKLOADS["mask-sweep"]
    assert len(workloads.MASK_GRID) == 320
    parts = [c for c, _ in zip(w.chunks(1, str(tmp_path)), range(w.CHUNKS))]
    names = [[a[2] for s in c.steps for a in s.argvs[::2]] for c in parts]
    dims = [tuple(map(int, name.split("x"))) for part in names for name in part]
    assert sorted(dims) == sorted(workloads.MASK_GRID)
    assert all(c.samples == 40 and len(c.outputs) == 80 for c in parts)
    costs = [sum(math.prod(map(int, n.split("x"))) ** 2 for n in part) for part in names]
    assert max(costs) < 1.1 * min(costs)


def test_step_seconds_scale_by_adjacent_probes():
    chunk = workloads.WORKLOADS["convert"].setup_chunk("unused")
    ref = run.PROBE_REF_S
    report = {"warmup": [ref, ref], "rss_kib": 1024,
              "probes": [[ref, ref], [3 * ref, ref], [ref, 2 * ref]],
              "steps": [[1.0, 0.5, 0], [2.0, 1.0, 0]]}
    r = run.ChunkRun(chunk, 10.0, 0, report, "")
    # Step 0 ran between probes at 1x and 3x the reference time, step 1
    # between 3x and 1x: both at half the reference speed in wall time.
    wall, cpu = r.step_seconds()
    assert math.isclose(wall, (1.0 + 2.0) / 2.0)
    assert math.isclose(cpu, 0.5 + 1.0 / 1.5)
    # Set-up: wall less warm-up and probes, over the probes' mean slow-down.
    assert math.isclose(r.setup_seconds(), (10.0 - 6 * ref) * 3 / 5)


def test_convert_chunks_share_one_corpus(tmp_path):
    w = workloads.WORKLOADS["convert"]

    def seeds(seed):
        return [[s.argvs[0][s.argvs[0].index("--seed") + 1] for s in c.steps]
                for c, _ in zip(w.chunks(seed, str(tmp_path)), range(3))]

    chunks = seeds(5) + seeds(6)
    assert len(chunks[0]) == w.steps == len(set(chunks[0]))
    assert all(sorted(c) == sorted(chunks[0]) for c in chunks)
    assert chunks[0] != chunks[3]
