import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xlab
from xlab import cli
from xlab.errors import ConfigError


def test_config_validation():
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(system=(3, 3)).validate()
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(family="nope").validate()
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(system=(2, 2), family="lx").validate()
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(system=(2, 3), family="h").validate()
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(rank=5).validate()
    cli.ExperimentConfig(system=(2, 3), family="tgx", rank=6).validate()


_SCATTER_CASES = [
    ("general", (2, 2)), ("general", (2, 3)), ("x", (2, 2)),
    ("lx", (2, 3)), ("tgx", (2, 3)), ("mems", (2, 2)),
    ("mems", (2, 3)), ("h", (2, 2)),
]


@pytest.mark.parametrize("family,system", _SCATTER_CASES)
def test_run_scatter_families(family, system):
    cfg = cli.ExperimentConfig(system=system, family=family, samples=16, seed=1)
    records = cli.run_scatter(cfg)
    assert [r.sample_index for r in records] == list(range(16))
    for r in records:
        assert 0.0 <= r.entanglement <= 1.0 + 1e-9
        assert 0.0 <= r.purity <= 1.0 + 1e-9
        assert r.family == family


def test_run_scatter_thread_invariance():
    base = cli.run_scatter(cli.ExperimentConfig(samples=24, seed=5, threads=1))
    for threads in (4, 8):
        other = cli.run_scatter(cli.ExperimentConfig(samples=24, seed=5,
                                                     threads=threads))
        assert [(r.entanglement, r.purity, r.rank) for r in other] == \
               [(r.entanglement, r.purity, r.rank) for r in base]


@pytest.mark.parametrize("family,system", _SCATTER_CASES)
def test_run_scatter_block_invariance(monkeypatch, family, system):
    cfg = dict(system=system, family=family, seed=6)
    default = cli.run_scatter(cli.ExperimentConfig(samples=20, **cfg))
    monkeypatch.setattr(cli, "_BLOCK", 7)
    assert cli.run_scatter(cli.ExperimentConfig(samples=20, **cfg)) == default
    # The mems and h grids are spread over `samples`, so only the other
    # families draw the same states in a shorter run.
    if family not in ("mems", "h"):
        assert cli.run_scatter(cli.ExperimentConfig(samples=9, **cfg)) == default[:9]


def test_main_scatter_threads_do_not_change_bytes(tmp_path):
    outputs = []
    for threads in ("1", "3"):
        out = tmp_path / f"s{threads}.json"
        assert cli.main(["scatter", "--system", "2x3", "--family", "tgx", "--samples", "30",
                         "--seed", "8", "--threads", threads, "--format", "json",
                         "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_run_conversion_campaign():
    cfg = cli.ExperimentConfig(samples=6, seed=2)
    summary = cli.run_conversion_campaign(cfg)
    assert summary.samples == 6
    assert summary.all_succeeded
    assert summary.max_delta_c <= cli.convert.DEFAULT_TOL_C
    assert summary.max_anti_x <= 1e-10
    assert sum(summary.attempt_histogram.values()) == 6


def test_convert_success_means_x_state(tmp_path):
    # Sample 3 of this seed once came out of a search with anti-X 1.75e-4
    # and was still reported as a success.
    out = tmp_path / "c.csv"
    assert cli.main(["convert", "--samples", "4", "--seed", "100326741",
                     "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4
    for row in rows:
        assert row["success"] == "1"
        assert float(row["anti_x"]) <= 1e-10
        assert float(row["delta_c"]) <= 1e-7


def test_emit_output_csv_and_json(tmp_path):
    records = cli.run_scatter(cli.ExperimentConfig(samples=5, seed=3))
    out = tmp_path / "r.csv"
    text = cli.emit_output(records, fmt="csv", out=str(out))
    assert out.read_text() == text
    assert text.splitlines()[0] == "entanglement,purity,rank,family,sample_index"
    assert len(text.splitlines()) == 6
    data = json.loads(cli.emit_output(records, fmt="json"))
    assert len(data) == 5
    assert data[0]["sample_index"] == 0


def _g(x):
    return format(x, ".17g")


_SCATTER_FIELDS = ("entanglement", "purity", "rank", "family", "sample_index")
_CAMPAIGN_FIELDS = ("sample_index", "rank", "purity", "input_concurrence",
                    "output_concurrence", "attempts", "delta_c", "anti_x", "success")


@pytest.mark.parametrize("family,system", [("general", (2, 2)), ("tgx", (2, 3))])
def test_main_scatter_record_bytes(tmp_path, family, system):
    argv = ["scatter", "--family", family, "--system", "x".join(map(str, system)),
            "--samples", "30", "--seed", "4"]
    records = cli.run_scatter(cli.ExperimentConfig(system=system, family=family,
                                                   samples=30, seed=4))
    csv_text = "".join(
        f"{_g(r.entanglement)},{_g(r.purity)},{r.rank},{r.family},{r.sample_index}\n"
        for r in records)
    json_text = json.dumps([{k: getattr(r, k) for k in _SCATTER_FIELDS} for r in records],
                           indent=2) + "\n"
    for fmt, want in (("csv", ",".join(_SCATTER_FIELDS) + "\n" + csv_text),
                      ("json", json_text)):
        out = tmp_path / f"s.{fmt}"
        assert cli.main(argv + ["--format", fmt, "--out", str(out)]) == 0
        assert out.read_text() == want


def test_main_convert_record_bytes(tmp_path):
    summary = cli.run_conversion_campaign(cli.ExperimentConfig(samples=12, seed=78))
    rows = "".join(
        f"{r.sample_index},{r.rank},{_g(r.purity)},{_g(r.input_concurrence)},"
        f"{_g(r.output_concurrence)},{r.attempts},{_g(r.delta_c)},{_g(r.anti_x)},"
        f"{int(r.success)}\n" for r in summary.records)
    json_text = json.dumps({
        "samples": summary.samples, "successes": summary.successes,
        "max_delta_c": summary.max_delta_c, "max_anti_x": summary.max_anti_x,
        "attempt_histogram": summary.attempt_histogram,
        "records": [{k: getattr(r, k) for k in _CAMPAIGN_FIELDS} for r in summary.records],
    }, indent=2) + "\n"
    for fmt, want in (("csv", ",".join(_CAMPAIGN_FIELDS) + "\n" + rows), ("json", json_text)):
        out = tmp_path / f"c.{fmt}"
        assert cli.main(["convert", "--samples", "12", "--seed", "78", "--format", fmt,
                         "--out", str(out)]) == 0
        assert out.read_text() == want


def test_emit_output_rejects_empty():
    with pytest.raises(ConfigError):
        cli.emit_output([], fmt="csv")


def test_emit_output_svg(tmp_path):
    records = cli.run_scatter(cli.ExperimentConfig(samples=5, seed=3))
    plot = tmp_path / "r.svg"
    cli.emit_output(records, fmt="csv", plot=str(plot))
    body = plot.read_text()
    assert body.startswith("<svg")
    assert "polyline" in body
    assert body.count("<circle") == 5


def test_main_scatter_to_file(tmp_path):
    out = tmp_path / "s.csv"
    rc = cli.main(["scatter", "--samples", "8", "--seed", "4",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 9


def test_main_mask_json(capsys):
    rc = cli.main(["mask", "--system", "2x3", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dims"] == [2, 3]
    assert [4, 1] not in data["pairs"]
    assert [4, 0] in data["pairs"]


def _digit_rule_ascii(dims, kind) -> str:
    def digits(index):
        out = []
        for d in reversed(dims):
            index, r = divmod(index, d)
            out.append(r)
        return out

    n = int(np.prod(dims))
    rows = []
    for i in range(n):
        cells = []
        for j in range(n):
            anti = sum(a != b for a, b in zip(digits(i), digits(j))) == 1
            cells.append("X" if anti == (kind == "anti") else ".")
        rows.append(" ".join(cells))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 2, 4), (2,) * 7])
@pytest.mark.parametrize("kind", ["anti", "tgx"])
def test_main_mask_golden_bytes(capsys, dims, kind):
    system = "x".join(map(str, dims))
    assert cli.main(["mask", "--system", system, "--kind", kind, "--format", "json"]) == 0
    mask = cli.tgx.anti_x_mask(dims) if kind == "anti" else cli.tgx.tgx_mask(dims)
    assert capsys.readouterr().out == json.dumps({
        "dims": list(dims), "kind": kind,
        "pairs": [list(p) for p in mask.pairs()]}, indent=2) + "\n"
    assert cli.main(["mask", "--system", system, "--kind", kind]) == 0
    assert capsys.readouterr().out == _digit_rule_ascii(dims, kind)


def test_python_m_xlab_cli_runs_without_warning():
    src = str(Path(xlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "xlab.cli",
         "mask", "--system", "2x2"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == "X . . X\n. X X .\n. X X .\nX . . X\n"


def test_main_mems_curve(capsys):
    rc = cli.main(["mems-curve", "--system", "2x2", "--samples", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "purity,entanglement"
    assert len(lines) == 6


def test_main_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "mems", "samples": 4, "seed": 0}))
    rc = cli.main(["scatter", "--config", str(cfg)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[1].split(",")[3] == "mems"


def test_main_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 4, "seed": 0}))
    rc = cli.main(["scatter", "--config", str(cfg), "--samples", "2"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_main_bad_config_exits_1(capsys):
    assert cli.main(["scatter", "--family", "lx"]) == 1
    assert cli.main(["scatter", "--config", "/nonexistent.json"]) == 1


@pytest.mark.parametrize("argv,config,env", [
    (["scatter"], {"samples": "abc"}, None),
    (["convert"], {"tol": [1e-3]}, None),
    (["scatter", "--samples", "2"], None, "abc"),
    (["convert", "--samples", "2"], {"fmt": "xml"}, None),
    (["mems-curve", "--format", "json"], None, None),
    (["scatter", "--samples", "2", "--seed", "-1"], None, None),
    (["scatter", "--samples", "2"], {"out": 1}, None),
    (["scatter", "--samples", "2"], {"plot": True}, None),
    (["convert", "--samples", "2"], {"out": 1}, None),
    (["mems-curve", "--samples", "2"], {"out": ["a.csv"]}, None),
], ids=["samples-abc", "tol-list", "threads-env-abc", "fmt-xml",
        "mems-curve-json", "negative-seed", "scatter-out-int", "scatter-plot-bool",
        "convert-out-int", "mems-curve-out-list"])
def test_main_bad_input_is_one_line_error(tmp_path, monkeypatch, capsys,
                                          argv, config, env):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    if env is not None:
        monkeypatch.setenv("XLAB_THREADS", env)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv,config,names", [
    (["convert", "--samples", "2"], {"budget": 5, "sampels": 3}, "budget, sampels"),
    (["scatter", "--samples", "2"], {"tol": 1e-3}, "tol"),
    (["mems-curve"], {"format": "csv"}, "format"),
    (["scatter", "--samples", "2"], {"config": "other.json"}, "config"),
    (["mems-curve"], {"seed": 1, "threads": 2}, "seed, threads"),
], ids=["removed-and-typo", "other-command", "flag-not-dest", "config",
        "mems-curve-unseeded"])
def test_main_unknown_config_key_is_error(tmp_path, capsys, argv, config, names):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(argv + ["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown config key(s) for {argv[0]}: {names}\n"


def test_threads_env_var(monkeypatch, capsys):
    monkeypatch.setenv("XLAB_THREADS", "4")
    rc = cli.main(["scatter", "--samples", "6", "--seed", "9"])
    assert rc == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("XLAB_THREADS")
    rc = cli.main(["scatter", "--samples", "6", "--seed", "9"])
    assert rc == 0
    assert capsys.readouterr().out == with_env


def test_main_verify():
    assert cli.main(["verify"]) == 0
