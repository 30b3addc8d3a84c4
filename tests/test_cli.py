import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xlab
from xlab import _streams, cli, linalg, measures, states
from xlab.errors import ConfigError, DomainError


def test_config_validation():
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(system=(3, 3))
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(family="nope")
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(system=(2, 2), family="lx")
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(system=(2, 3), family="h")
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(rank=5)
    for tol in (float("nan"), float("inf"), -1e-3):
        with pytest.raises(ConfigError, match="tol must be"):
            cli.ExperimentConfig(tol=tol)
    cli.ExperimentConfig(tol=0.0)
    for samples in (0, 2**32 + 1):
        with pytest.raises(ConfigError, match="samples must be"):
            cli.ExperimentConfig(samples=samples)
    cli.ExperimentConfig(samples=2**32)
    cli.ExperimentConfig(system=(2, 3), family="tgx", rank=6)


# Every family x system pair, in table order, and the pairs whose family row allows them.
_PAIRS = [(family, system) for family in cli._FAMILIES for system in cli._SYSTEMS]
_SCATTER_CASES = [(f, s) for f, s in _PAIRS if cli._FAMILIES[f].system in (None, s)]


@pytest.mark.parametrize("family,system", _SCATTER_CASES)
def test_run_scatter_families(family, system):
    cfg = cli.ExperimentConfig(system=system, family=family, samples=16, seed=1)
    records = cli.run_scatter(cfg)
    assert [r.sample_index for r in records] == list(range(16))
    for r in records:
        assert 0.0 <= r.entanglement <= 1.0 + 1e-9
        assert 0.0 <= r.purity <= 1.0 + 1e-9
        assert r.family == family


@pytest.mark.parametrize("family,system", [p for p in _PAIRS if p not in _SCATTER_CASES])
def test_a_family_off_its_system_is_rejected(family, system):
    required = {"x": "2x2", "h": "2x2", "lx": "2x3", "tgx": "2x3"}[family]
    with pytest.raises(ConfigError) as err:
        cli.ExperimentConfig(system=system, family=family)
    assert str(err.value) == f"family {family!r} requires system {required}"


@pytest.mark.parametrize("system", [s for s, row in cli._SYSTEMS.items() if row.convert is None])
def test_run_conversion_campaign_rejects_a_system_without_a_converter(system):
    with pytest.raises(ConfigError) as err:
        cli.run_conversion_campaign(cli.ExperimentConfig(system=system, samples=2))
    name = "x".join(map(str, system))
    assert str(err.value) == f"convert draws general 2x2 states, not general {name}"


@pytest.mark.parametrize("family,system", [("mems", (2, 2)), ("mems", (2, 3)), ("h", (2, 2))])
def test_run_scatter_grid_families_build_no_streams(monkeypatch, family, system):
    def no_draws(*args):
        raise AssertionError("sample streams were built")

    # Streams start from either entry point: seed words, or Generators on them.
    monkeypatch.setattr(_streams, "stream_words", no_draws)
    monkeypatch.setattr(_streams, "generators", no_draws)
    cfg = cli.ExperimentConfig(system=system, family=family, samples=cli._BLOCK + 3, seed=4)
    assert len(cli.run_scatter(cfg)) == cli._BLOCK + 3
    with pytest.raises(AssertionError, match="were built"):
        cli.run_scatter(cli.ExperimentConfig(samples=2, seed=4))


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


def _one_state_loop(cfg):
    """Records of a rank-specific scatter built one state at a time by one-row
    `rank_states` calls: each sample draws from its own stream and draws
    again while its numerical rank falls short."""
    family = {"x": states.RANK_X, "lx": states.LX_RANK, "tgx": states.TGX_RANK}[cfg.family]
    mats, redraws = [], 0
    for i in range(cfg.samples):
        rng = np.random.default_rng([cfg.seed, i])
        R = cfg.rank or int(rng.integers(1, math.prod(cfg.system) + 1))
        while True:
            rows = np.zeros((2, 1, len(family.lo)))
            rows[0, 0, :R] = rng.uniform(0.0, math.pi / 2, R)
            rows[1, 0, :R] = states.hyperspherical_probs(rng.uniform(0.0, math.pi / 2, R - 1))
            rho, rank = states.rank_states(family, [R], *rows)
            if rank[0] == R:
                break
            redraws += 1
        mats.append(rho.mat[0])
    rho = states.DensityMatrix(np.stack(mats), cfg.system)
    records = list(zip(cli._SYSTEMS[cfg.system].measure(rho, None).tolist(),
                       measures.purity(rho).tolist(), rho.rank().tolist()))
    return records, redraws


# Seeds whose first 40 samples include a redraw (sample 2, 2 and 15).
@pytest.mark.parametrize("family,system,rank,seed", [
    ("tgx", (2, 3), None, 3), ("lx", (2, 3), None, 3), ("x", (2, 2), 3, 24)])
def test_run_scatter_rank_families_match_one_state_loop(family, system, rank, seed):
    cfg = cli.ExperimentConfig(system=system, family=family, rank=rank, samples=40, seed=seed)
    expected, redraws = _one_state_loop(cfg)
    assert redraws >= 1
    records = cli.run_scatter(cfg)
    assert [(r.entanglement, r.purity, r.rank) for r in records] == expected


def test_run_scatter_gives_up_after_64_degenerate_draws(monkeypatch):
    calls, build = [], states.rank_states

    def always_short(family, ranks, thetas, probs):
        calls.append(len(ranks))
        rho, got = build(family, ranks, thetas, probs)
        return rho, got - 1

    monkeypatch.setattr(cli.states, "rank_states", always_short)
    cfg = cli.ExperimentConfig(system=(2, 3), family="tgx", rank=4, samples=5, seed=1)
    with pytest.raises(ConfigError, match="could not draw a rank-4 tgx state after 64 tries"):
        cli.run_scatter(cfg)
    assert calls == [5] * 64


def _scatter_linalg_calls(monkeypatch, cfg):
    """The stack shapes np.linalg.eigh and np.linalg.eigvalsh saw in run_scatter(cfg)."""
    calls = {"eigh": [], "eigvalsh": []}
    for name, seen in calls.items():
        def counting(M, *args, _fn=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(M.shape)
            return _fn(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    cli.run_scatter(cfg)
    return calls


@pytest.mark.parametrize("system,family,samples,rank", [
    ("2x2", "general", 1, None), ("2x2", "general", 3, None), ("2x2", "general", 256, None),
    ("2x2", "general", 512, None), ("2x2", "general", 600, None), ("2x2", "general", 600, 2),
    ("2x2", "x", 600, None), ("2x2", "x", 600, 3), ("2x2", "mems", 600, None),
    ("2x2", "h", 600, None), ("2x3", "general", 300, None), ("2x3", "general", 600, 1),
    ("2x3", "lx", 300, None), ("2x3", "tgx", 300, 4), ("2x3", "mems", 300, None)])
def test_run_scatter_takes_no_eigh_and_ranks_a_general_block_from_its_factors(
        monkeypatch, system, family, samples, rank):
    # Each block is measured from how it was built: a general 2x2 block from its drawn
    # factors, an X family's in closed form, a 2x3 block by negativity_e's one n x n
    # eigvalsh.  No block takes an eigh.  A general block's ranks take one r x r eigvalsh
    # per group of its draws of rank r >= 2 (their partner states) and none of n x n;
    # another 2x2 block's ranks take its one 4x4 eigvalsh.
    cfg = cli.ExperimentConfig(system=system, family=family, rank=rank, samples=samples, seed=8)
    calls = _scatter_linalg_calls(monkeypatch, cfg)
    n = math.prod(cfg.system)
    starts = range(0, samples, cli._BLOCK)
    sizes = [min(cli._BLOCK, samples - start) for start in starts]
    assert calls["eigh"] == []
    if family == "general":
        drawn = [rank or int(np.random.default_rng([8, i]).integers(1, n + 1))
                 for i in range(samples)]
        groups = [(block.count(r), r, r) for start in starts
                  for block in [drawn[start:start + cli._BLOCK]] for r in set(block) if r >= 2]
        negativity = [(size, n, n) for size in sizes] * (system == "2x3")
        assert sorted(calls["eigvalsh"]) == sorted(groups + negativity)
    else:
        assert [s for s in calls["eigvalsh"] if s[1:] == (4, 4)] == \
            [(size, 4, 4) for size in sizes] * (system == "2x2")


def test_partner_ranks_equal_the_eigvalsh_ranks():
    # rho = F F+ and the partner state F^T conj(F) share their nonzero spectrum, so both
    # routes count the same rank: for random factors of each rank r (r = 1 is pure and
    # takes no call), and for factors whose last column is a combination of the others,
    # which have rank r - 1 on both routes.
    rng = np.random.default_rng(31)
    for n in (4, 6):
        R = 1 + np.arange(40 * n) % n
        factors, rho = [], np.empty((len(R), n, n), dtype=complex)
        for r in range(1, n + 1):
            rows = R == r
            G = rng.standard_normal((2, rows.sum(), n, r))
            F = G[0] + 1j * G[1]
            if r >= 2:  # every other factor of rank r has a dependent last column
                mix = rng.standard_normal(r - 1) + 1j * rng.standard_normal(r - 1)
                F[::2, :, -1] = F[::2, :, :-1] @ mix
            F /= np.sqrt(np.add.reduce(np.abs(F) ** 2, axis=(1, 2)))[:, None, None]
            factors.append((rows, F))
            rho[rows] = F @ F.conj().mT
        ranks = cli._partner_ranks(factors)
        assert ranks.tolist() == linalg.numerical_rank(rho).tolist()
        for rows, F in factors:
            r = F.shape[-1]
            assert ranks[rows].tolist() == [r - (r >= 2), r] * (len(F) // 2)


def test_run_scatter_2x3_block_keeps_its_eigvalsh_calls(monkeypatch):
    # A tgx block checks its ranks and takes its negativities with one
    # eigvalsh each (this seed draws no rank retry) and no eigh.
    cfg = cli.ExperimentConfig(system=(2, 3), family="tgx", samples=16, seed=1)
    assert _scatter_linalg_calls(monkeypatch, cfg) == {
        "eigh": [], "eigvalsh": [(16, 6, 6)] * 2}


def test_run_scatter_2x3_retry_round_rebuilds_only_its_rows(monkeypatch):
    # Two of this seed's 16 tgx rows fall short of their rank once: the retry
    # round builds and rank-checks those 2 rows alone.
    cfg = cli.ExperimentConfig(system=(2, 3), family="tgx", samples=16, seed=7)
    assert _scatter_linalg_calls(monkeypatch, cfg) == {
        "eigh": [], "eigvalsh": [(16, 6, 6), (2, 6, 6), (16, 6, 6)]}


@pytest.mark.parametrize("system,family,rank", [("2x2", "x", R) for R in (1, 2, 3, 4)]
                         + [("2x3", "lx", None), ("2x3", "tgx", None)])
def test_rank_checked_builders_give_the_eigvalsh_rank(system, family, rank):
    cfg = cli.ExperimentConfig(system=system, family=family, rank=rank, samples=300, seed=11)
    for block, rngs in cli._sample_blocks(cfg):
        batch, ranks, _ = cli._build_block(cfg, block, rngs)
        assert np.array_equal(ranks, batch.rank())


@pytest.mark.parametrize("system,family,rank", [("2x2", "general", R) for R in (None, 1, 2, 3, 4)]
                         + [("2x2", "x", None), ("2x2", "mems", None), ("2x2", "h", None),
                            ("2x3", "general", None), ("2x3", "general", 3),
                            ("2x3", "mems", None)])
def test_scatter_rank_column_is_the_eigvalsh_rank(system, family, rank):
    # A block whose builder checks no rank takes its ranks from batch.rank(): each
    # state's count of eigenvalues above 1e-10 of its largest.  A --rank draw has that
    # rank, and mems runs from the maximally mixed state to a pure one.
    cfg = cli.ExperimentConfig(system=system, family=family, rank=rank, samples=300, seed=11)
    mats = np.concatenate([cli._build_block(cfg, block, words)[0].mat
                           for block, words in cli._sample_blocks(cfg)])
    lam = np.linalg.eigvalsh(mats)
    got = np.array([r.rank for r in cli.run_scatter(cfg)])
    assert np.array_equal(got, (lam > 1e-10 * lam[:, -1:]).sum(axis=1))
    if rank is not None:
        assert np.all(got == rank)
    if family == "mems":
        assert (got[0], got[-1]) == (math.prod(cfg.system), 1)


def test_rank_of_states_with_a_known_rank():
    for rho, R in [(states.mems_2x2(0.25), 4), (states.mems_2x2(1.0), 1),
                   (states.bell_state(), 1), (states.closed_form_x(0.0, 1.0), 1)]:
        assert rho.rank() == R


def test_2x2_measure_without_factors_rejects_a_block_not_x():
    # Without factors the 2x2 measure is the X closed form, so a general block handed
    # over without its factors fails loudly instead of reading a wrong concurrence.
    cfg = cli.ExperimentConfig(family="general", samples=3, seed=8)
    (block, words), = cli._sample_blocks(cfg)
    batch, _, factors = cli._build_block(cfg, block, words)
    measure = cli._SYSTEMS[(2, 2)].measure
    assert np.all(abs(measure(batch, factors) - measures.concurrence(batch)) <= 1e-12)
    with pytest.raises(DomainError, match="^state is not X-shaped: anti-X measure "):
        measure(batch, None)


def test_x_family_scatter_measures_in_closed_form():
    # The X families build exact X states and measure them by concurrence_x, so a mems
    # sample reads the MEMS boundary at its `_axis` purity and an h sample its grid C,
    # bit for bit (Wootters read up to 2.0e-15 and 1.4e-15 off).
    for family in ("x", "mems", "h"):
        cfg = cli.ExperimentConfig(family=family, samples=300, seed=3)
        for block, words in cli._sample_blocks(cfg):
            assert np.all(measures.anti_x_measure(cli._build_block(cfg, block, words)[0]) == 0.0)
    E = [r.entanglement for r in cli.run_scatter(cli.ExperimentConfig(family="mems", samples=300))]
    assert E == measures.mems_boundary_2x2(cli._axis(0.25, np.arange(300), 299)).tolist()
    side, i = 17, np.arange(289)  # h's side x side grid, its C on the sample index mod side
    E = [r.entanglement for r in cli.run_scatter(cli.ExperimentConfig(family="h", samples=289))]
    assert E == cli._axis(0.0, i % side, side - 1).tolist()


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
    assert summary.successes == 6
    assert summary.max_delta_c <= cli.convert.DEFAULT_TOL_C
    assert summary.max_anti_x <= 1e-10
    for other in (dict(family="mems"), dict(system=(2, 3))):
        with pytest.raises(ConfigError, match="convert draws general 2x2 states"):
            cli.run_conversion_campaign(cli.ExperimentConfig(samples=2, **other))


def test_run_conversion_campaign_block_invariance(monkeypatch):
    # Blocks of 7 and a one-state-at-a-time loop give the default records.
    cfg = dict(seed=8, samples=20)
    default = cli.run_conversion_campaign(cli.ExperimentConfig(**cfg)).records
    monkeypatch.setattr(cli, "_BLOCK", 7)
    assert cli.run_conversion_campaign(cli.ExperimentConfig(**cfg)).records == default
    looped = []
    for i in range(20):
        rng = np.random.default_rng([8, i])
        R = int(rng.integers(1, 5))
        rho = states.random_mixed(4, R, rng, (2, 2))
        res = cli.convert.find_x_equivalent(rho)
        looped.append(cli.CampaignRecord(
            i, R, measures.purity(rho), res.input_concurrence, res.output_concurrence,
            res.attempts, res.delta_c, res.anti_x, res.delta_c <= 1e-3 and res.anti_x <= 1e-10))
    assert looped == default


def test_run_conversion_campaign_eigendecomposes_per_block(monkeypatch):
    # Two eighs per block of _BLOCK states: the input stack and the converted one.
    calls, eig = [], cli.convert.linalg.eig_hermitian

    def counting(M):
        calls.append(M.shape)
        return eig(M)

    monkeypatch.setattr(cli.convert.linalg, "eig_hermitian", counting)
    cli.run_conversion_campaign(cli.ExperimentConfig(samples=cli._BLOCK + 3, seed=1))
    assert calls == [(cli._BLOCK, 4, 4)] * 2 + [(3, 4, 4)] * 2


@pytest.mark.parametrize("helper", ["vectorize", "moveaxis", "clip", "flatnonzero", "trace",
                                    "errstate"])
def test_run_conversion_campaign_calls_no_numpy_python_helper(monkeypatch, helper):
    # A cache-cold block pays for each of numpy's Python-level helpers; the convert path
    # calls the ufuncs and C methods they wrap.  numpy.linalg binds errstate by name,
    # so eigh and svd keep theirs.
    cfg = cli.ExperimentConfig(samples=cli._BLOCK + 3, seed=4)

    def called(*args, **kwargs):
        raise AssertionError(f"the convert path called np.{helper}")

    with monkeypatch.context() as patch:
        patch.setattr(np, helper, called)
        records = cli.run_conversion_campaign(cfg).records
    assert records == cli.run_conversion_campaign(cfg).records


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


def test_emit_output_csv_and_json():
    records = cli.run_scatter(cli.ExperimentConfig(samples=5, seed=3))
    text = cli.emit_output(records, fmt="csv")
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


def test_bench_copies_of_package_constants_match(monkeypatch):
    # bench/ keeps its own copies so that its checks do not trust the package; a drift
    # between the two fails here instead of in a benchmark run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import checks
    import workloads

    assert inspect.signature(checks.campaign_csv).parameters["anti_x_tol"].default \
        == linalg.ANTI_X_TOL
    assert workloads.Convert.TOL_C == cli.convert.DEFAULT_TOL_C
    assert tuple(checks.CAMPAIGN_FIELDS) == cli.CampaignRecord._fields


def test_result_records_are_immutable_rows():
    # The writers take their columns from _fields, so the field order is the output's.
    assert cli.SampleRecord._fields == _SCATTER_FIELDS
    assert cli.CampaignRecord._fields == _CAMPAIGN_FIELDS
    record = cli.run_scatter(cli.ExperimentConfig(samples=1))[0]
    summary = cli.run_conversion_campaign(cli.ExperimentConfig(samples=2, seed=1))
    for obj, name in ((record, "purity"), (summary.records[0], "delta_c"), (summary, "samples")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
    assert summary.successes == summary.samples == 2


def test_main_convert_record_bytes(tmp_path):
    summary = cli.run_conversion_campaign(cli.ExperimentConfig(samples=12, seed=78))
    rows = "".join(
        f"{r.sample_index},{r.rank},{_g(r.purity)},{_g(r.input_concurrence)},"
        f"{_g(r.output_concurrence)},{r.attempts},{_g(r.delta_c)},{_g(r.anti_x)},"
        f"{int(r.success)}\n" for r in summary.records)
    json_text = json.dumps({
        "samples": summary.samples, "successes": summary.successes,
        "max_delta_c": summary.max_delta_c, "max_anti_x": summary.max_anti_x,
        "records": [{k: getattr(r, k) for k in _CAMPAIGN_FIELDS} for r in summary.records],
    }, indent=2) + "\n"
    for fmt, want in (("csv", ",".join(_CAMPAIGN_FIELDS) + "\n" + rows), ("json", json_text)):
        out = tmp_path / f"c.{fmt}"
        assert cli.main(["convert", "--samples", "12", "--seed", "78", "--format", fmt,
                         "--out", str(out)]) == 0
        assert out.read_text() == want


def _assert_convert_digests(tmp_path):
    # SHA-256 of the bytes `xlab convert` writes (numpy 2.4, x86-64): one partial block
    # of `_BLOCK`, and many in test_pinned_digests_hold_for_blocks_of_7.  Only the
    # concurrence kernel's last bits, and what the frame angle takes from them, have
    # moved these since conversion was stacked.
    digests = {"csv": "685904a60fe73ba51a279956eb97a994aac63c23ac12e95717e780fe2fdd3556",
               "json": "1563725964de3111f087f9511aafd437cd9f8986d8ff2f382f5b372b8470d748"}
    for fmt, digest in digests.items():
        out = tmp_path / f"c.{fmt}"
        assert cli.main(["convert", "--samples", "300", "--seed", "78", "--format", fmt,
                         "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_main_convert_output_digest(tmp_path):
    _assert_convert_digests(tmp_path)


# SHA-256 of the bytes `xlab scatter` writes (numpy 2.4, x86-64): 600 general
# states are two blocks of `_BLOCK`, the last one partial; 300 states of the other
# families are one partial block.  test_pinned_digests_hold_for_blocks_of_7 writes
# them again in many blocks of 7, the last one partial.  The general 2x2 one last
# moved with the concurrence kernel, in its last bits; x, mems and h 2x2 moved when
# they took the X closed form (`concurrence_x`), only in the entanglement column
# (largest change over 3000 samples at this seed: 1.4e-14, 2.0e-15, 1.4e-15), from
# x: d8e841a823e0b0bd8137b89b225307935bad7966ce535cfa956d7c2f3cd52a33
# mems 2x2: 8c189f98c6e6d93e2312176db511ac5f803f7df79f356dcaeaad5792288dafba
# h: 3952277405110d6526c0567292bfe8297ffc5d9aa026e70901e341efb391c751
_SCATTER_DIGESTS = {
    ("general", "2x2", "600", "csv"):
        "25269cf7f2da5276731d57a9f31ae9518893afb2d4dae3999696f2f02ad7e1a0",
    ("general", "2x3", "300", "csv"):
        "52871799cf07815123c340f0b9d7dae91df87c38cd1ce3334b5acdb46e9a823a",
    ("tgx", "2x3", "300", "json"):
        "d2dc606469c6a04d5c7d233152fae3f3c20e3726d0a217bc8c0e31400bfde2c7",
    ("lx", "2x3", "300", "csv"):
        "0497eed7cded72aec48e77ea6733f7118b0e201dd79d76f61f8cf4b11e1ea953",
    ("x", "2x2", "300", "csv"):
        "5a48bea449e796b8c03ae6c05a84b14100da10161d7a93b28557d47e046d8249",
    # The mems purities are `mems-curve`'s, lo + (1 - lo) * i / m.  They were
    # lo + (1 - lo) * (i / m), off in the last bit at some i, and the digests were
    # 2x2: 2abbde05216777b41192379787966241b2097df99c8703bd40da4cb66c4c5425
    # 2x3: 2606d76f0237cddd822f41b5b41357b2b1ada08f86c0f1a973a9546d96d71c6e
    ("mems", "2x2", "300", "csv"):
        "25bcf2fce51786384f634e892a8e5ec1f17b64eeb91976d4d1fc00fbdc08002d",
    ("mems", "2x3", "300", "csv"):
        "a5abd56975e924a3c1090e01624ec6a4f480e3980a0f017b5af60f2e9b2b1820",
    ("h", "2x2", "300", "csv"):
        "f32283de6ac50ecfad79bbb52921eae38411857fc78786d43f90a34dfbb42322",
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_scatter_digests(out):
    for (family, system, samples, fmt), digest in _SCATTER_DIGESTS.items():
        assert cli.main(["scatter", "--family", family, "--system", system, "--samples",
                         samples, "--seed", "78", "--format", fmt, "--out", str(out)]) == 0
        assert _sha(out) == digest, (family, system)


def test_main_scatter_output_digest(tmp_path):
    out, plot = tmp_path / "s.out", tmp_path / "s.svg"
    _assert_scatter_digests(out)
    assert cli.main(["scatter", "--family", "x", "--rank", "3", "--samples", "300",
                     "--seed", "78", "--out", str(out)]) == 0
    # Was 3a6d57dbfcd8ff818f217266a287015cdd5aca7ebeae8e5037cd90cda9993cc8 by Wootters;
    # the X closed form moved only its entanglement column, by at most 2e-14.
    assert _sha(out) == "e68be3fb7328b649d167f40faa7df294080f1010cd055b865ecc769331983ce9"
    assert cli.main(["scatter", "--family", "tgx", "--system", "2x3", "--samples", "300",
                     "--seed", "78", "--format", "json", "--out", str(out),
                     "--plot", str(plot)]) == 0
    assert _sha(plot) == "32b7d15ef246581e7b9c356f1c4bd8e3d5090a0c725583048f756144ef01606f"


def test_pinned_digests_hold_for_blocks_of_7(tmp_path, monkeypatch):
    # Output is byte-identical for any block size, so the pins keep their multi-block
    # coverage whatever `_BLOCK` is.
    monkeypatch.setattr(cli, "_BLOCK", 7)
    _assert_scatter_digests(tmp_path / "s.out")
    _assert_convert_digests(tmp_path)


def test_lemire_fallback_keeps_scatter_digests(tmp_path, monkeypatch):
    # Every drawn rank takes the Generator path, as a rejected row does.
    built = []

    def generator(bitgen):
        built.append(bitgen)
        return np.random.Generator(bitgen)

    monkeypatch.setattr(_streams, "_lemire_threshold", lambda n: 2**32)
    monkeypatch.setattr(_streams, "Generator", generator)
    _assert_scatter_digests(tmp_path / "s.out")
    # A general sample builds its stream and a fresh one for the rank; a tgx or
    # lx sample builds one for its rank (x draws no rank).
    assert len(built) == 2 * (600 + 300) + 300 + 300


def test_emit_output_rejects_empty():
    with pytest.raises(ConfigError):
        cli.emit_output([], fmt="csv")


_Row = namedtuple("_Row", "x n flag label anything")


_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, -1e308, 0.1])
_TEXT = st.text() | st.sampled_from(['", "', ", ", 'a\\b', '"q"', "\n", "caf\u00e9 \u2603", "{}"])
_ROWS = st.lists(st.builds(_Row, _FLOATS, st.integers(-2**80, 2**80), st.booleans(), _TEXT,
                           st.one_of(_FLOATS, st.integers(), st.booleans(), _TEXT, st.none())),
                 min_size=1, max_size=6)


@settings(deadline=None, max_examples=200)
@given(_ROWS)
def test_records_json_equals_json_dumps(rows):
    want = json.dumps([r._asdict() for r in rows], indent=2)
    assert cli._records_json(rows) == want + "\n"
    nested = json.dumps({"records": [r._asdict() for r in rows]}, indent=2)
    assert '{\n  "records": ' + cli._records_json(rows, 2) + "}" == nested


def _svg_reference(records, system) -> str:
    """The SVG as one f-string per point, from Python-float coordinates."""
    W, H, M = 640, 480, 50
    p_min = 1.0 / math.prod(system)

    def sx(p):
        return M + (p - p_min) / (1.0 - p_min) * (W - 2 * M)

    def sy(e):
        return H - M - e * (H - 2 * M)

    ps = np.linspace(p_min, 1.0, 500)
    bound = (measures.mems_boundary_2x2 if tuple(system) == (2, 2)
             else measures.mems_boundary_2x3)(ps)
    pts = [f"{sx(p):.2f},{sy(e):.2f}" for p, e in zip(ps.tolist(), bound.tolist())]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<polyline fill="none" stroke="black" stroke-width="1.5" '
        f'points="{" ".join(pts)}"/>',
    ]
    for r in records:
        parts.append(f'<circle cx="{sx(r.purity):.2f}" cy="{sy(r.entanglement):.2f}" '
                     f'r="1.5" fill="steelblue" fill-opacity="0.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@settings(deadline=None, max_examples=100)
@given(st.sampled_from([(2, 2), (2, 3)]),
       st.lists(st.tuples(st.floats(0.0, 1.0) | _FLOATS, st.floats(0.0, 1.0) | _FLOATS),
                min_size=1, max_size=20))
def test_scatter_svg_equals_per_point_reference(system, points):
    records = [cli.SampleRecord(e, p, 1, "tgx", i) for i, (p, e) in enumerate(points)]
    with np.errstate(all="ignore"):
        assert cli._scatter_svg(records, system) == _svg_reference(records, system)
        assert cli._scatter_svg(records, list(system)) == _svg_reference(records, system)


def test_emit_output_svg(tmp_path):
    records = cli.run_scatter(cli.ExperimentConfig(samples=5, seed=3))
    plot = tmp_path / "r.svg"
    cli.emit_output(records, fmt="csv", plot=str(plot))
    body = plot.read_text()
    assert body.startswith("<svg")
    assert "polyline" in body
    assert body.count("<circle") == 5


def test_emit_output_plot_system_converts_as_the_config_does(tmp_path):
    records = cli.run_scatter(cli.ExperimentConfig(system=(2, 3), family="tgx", samples=5))
    plots = []
    for system in ((2, 3), "2x3", [2, 3]):
        plots.append(tmp_path / f"{len(plots)}.svg")
        cli.emit_output(records, plot=str(plots[-1]), system=system)
    assert plots[0].read_bytes() == plots[1].read_bytes() == plots[2].read_bytes()
    for system in ((3, 3), "3x3", "2y3"):
        with pytest.raises(ConfigError) as want:
            cli.ExperimentConfig(system=system)
        with pytest.raises(ConfigError) as got:
            cli.emit_output(records, plot=str(tmp_path / "bad.svg"), system=system)
        assert str(got.value) == str(want.value)
    assert str(got.value) == "cannot parse dims '2y3'" and not (tmp_path / "bad.svg").exists()


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


def test_mask_json_equals_json_dumps_at_the_size_limit():
    dims = (2,) * 10  # n = _MASK_MAX_N: four-digit indices and 10,240 pairs
    mask = cli.tgx.anti_x_mask(dims)
    assert mask.n == cli._MASK_MAX_N
    assert cli._mask_json(mask, dims, "anti") == json.dumps(
        {"dims": list(dims), "kind": "anti", "pairs": mask.pairs()}, indent=2) + "\n"


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(2, 5), min_size=2, max_size=7).filter(lambda d: math.prod(d) <= 256),
       st.sampled_from(["anti", "tgx"]))
def test_main_mask_json_equals_json_dumps_on_stdout_and_out(dims, kind):
    argv = ["mask", "--system", "x".join(map(str, dims)), "--kind", kind, "--format", "json"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    mask = cli.tgx.anti_x_mask(dims) if kind == "anti" else cli.tgx.tgx_mask(dims)
    assert stdout.getvalue() == json.dumps(
        {"dims": dims, "kind": kind, "pairs": mask.pairs()}, indent=2) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "mask.json")
        assert cli.main(argv + ["--out", out]) == 0
        with open(out, newline="") as fh:
            assert fh.read() == stdout.getvalue()


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

    def boundary(P):  # the two-qubit MEMS concurrence, branch by branch
        if P <= 1 / 3:
            return 0.0
        if P <= 5 / 9:
            return math.sqrt(2 * (P - 1 / 3))
        return (1 + math.sqrt(2 * P - 1)) / 2

    grid = [0.25 + 0.75 * i / 4 for i in range(5)]
    assert lines[1:] == [f"{format(P, '.17g')},{format(boundary(P), '.17g')}" for P in grid]


@pytest.mark.parametrize("system,digest", [
    ("2x2", "8f0bf45d0bf9a747490c67973b3f3cfb8600ca29696b0943662a4b4ac3abe184"),
    ("2x3", "24262d03adf6aec3c3f76d5577680427d6f0984200258ca3a91dd6b862688b4f"),
])
def test_main_mems_curve_output_digest(capsys, system, digest):
    # SHA-256 of the stdout of `xlab mems-curve --samples 500` before the MEMS
    # branch parameters moved into one helper per system (numpy 2.4, x86-64).
    assert cli.main(["mems-curve", "--system", system, "--samples", "500"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("samples", ["300", "500"])
@pytest.mark.parametrize("system", ["2x2", "2x3"])
def test_mems_scatter_builds_each_state_at_the_mems_curve_purity(monkeypatch, capsys, system,
                                                                 samples):
    # Sample i of `scatter --family mems` is built at row i's purity of
    # `mems-curve` with the same --samples, bit for bit.  Its purity column is
    # the built state's measured tr(rho^2), which may differ in the last bits.
    dims = cli._parse_system(system)
    facts, built = cli._SYSTEMS[dims], []
    monkeypatch.setitem(cli._SYSTEMS, dims,
                        facts._replace(mems=lambda P: built.append(P) or facts.mems(P)))
    assert cli.main(["scatter", "--family", "mems", "--system", system, "--samples", samples]) == 0
    measured = [float(row.split(",")[1]) for row in capsys.readouterr().out.splitlines()[1:]]
    assert cli.main(["mems-curve", "--system", system, "--samples", samples]) == 0
    curve = [float(row.split(",")[0]) for row in capsys.readouterr().out.splitlines()[1:]]
    assert len(curve) == int(samples)
    assert np.concatenate(built).tolist() == curve
    assert np.abs(np.subtract(measured, curve)).max() <= 1e-15


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


@pytest.mark.parametrize("command", ["scatter", "convert", "mems-curve"])
def test_a_null_or_empty_format_means_the_default(tmp_path, capsys, command):
    # A null or empty value means the default, from a flag or a config file alike.
    argv = [command, "--samples", "3"]
    rc = cli.main(argv)
    want = capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    runs = [["--format", ""]]
    for value in (None, ""):
        cfg.write_text(json.dumps({"format": value}))
        runs.append(["--config", str(cfg)])
        runs.append(["--config", str(cfg), "--format", ""])
    for extra in runs:
        assert cli.main(argv + extra) == rc, extra
        assert capsys.readouterr() == want, extra


@pytest.mark.parametrize("flag", ["--system", "--kind", "--format", "--out"])
def test_main_mask_takes_an_empty_value_as_the_default(capsys, flag):
    assert cli.main(["mask"]) == 0
    want = capsys.readouterr()
    assert want.out.splitlines()[0] == "X . . X"
    assert cli.main(["mask", flag, ""]) == 0
    assert capsys.readouterr() == want


def test_emit_output_takes_a_null_or_empty_format_as_csv():
    records = cli.run_scatter(cli.ExperimentConfig(samples=3))
    want = cli.emit_output(records, fmt="csv")
    assert cli.emit_output(records) == cli.emit_output(records, fmt=None) == want
    assert cli.emit_output(records, fmt="") == want


def test_main_config_that_is_not_an_object_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    assert cli.main(["scatter", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: config file must hold a JSON object\n")


def test_main_bad_config_exits_1(capsys):
    assert cli.main(["scatter", "--family", "lx"]) == 1
    assert cli.main(["scatter", "--config", "/nonexistent.json"]) == 1


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf-8", "nested-100000-deep"])
def test_main_unreadable_config_is_one_line_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert cli.main(["scatter", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {path}: ") and err.count("\n") == 1


# Cases of the test below whose bad input is not an ExperimentConfig field's value.
_NOT_A_FIELD_VALUE = {
    "threads-env-abc", "config-format-xml", "mems-curve-json", "scatter-out-int",
    "scatter-plot-bool", "convert-out-int", "mems-curve-out-list", "flag-format-xml", "no-command",
    "unknown-flag", "missing-value", "mask-kind-x", "mask-format-csv", "mask-dims-1x2",
    "mask-too-large"}
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}


def _field_values(argv, config) -> dict:
    """The ExperimentConfig fields that `argv`'s flags and a `config` file give, flags first."""
    flags = {key[2:]: val for key, val in zip(argv[1::2], argv[2::2])}
    merged = {**(config or {}), **flags}
    return {key: val for key, val in merged.items() if key in _CONFIG_FIELDS}


def _assert_constructor_error(values, err: str):
    """ExperimentConfig(**values) raises the ConfigError that `xlab` printed as `err`."""
    with pytest.raises(ConfigError) as exc:
        cli.ExperimentConfig(**values)
    assert err == f"error: {exc.value}\n"


@pytest.mark.parametrize("argv,config,env", [
    (["scatter"], {"samples": "abc"}, None),
    (["convert"], {"tol": [1e-3]}, None),
    (["scatter", "--samples", "2"], None, "abc"),
    (["convert", "--samples", "2"], {"format": "xml"}, None),
    (["mems-curve", "--format", "json"], None, None),
    (["scatter", "--samples", "2", "--seed", "-1"], None, None),
    (["scatter", "--samples", "2"], {"out": 1}, None),
    (["scatter", "--samples", "2"], {"plot": True}, None),
    (["convert", "--samples", "2"], {"out": 1}, None),
    (["mems-curve", "--samples", "2"], {"out": ["a.csv"]}, None),
    (["mems-curve", "--samples", "0"], None, None),
    (["mems-curve", "--samples", "-3"], None, None),
    (["convert", "--samples", "2", "--tol", "nan"], None, None),
    (["convert", "--samples", "2", "--tol", "-1"], None, None),
    (["scatter", "--samples", str(2**32 + 1)], None, None),
    (["scatter"], {"samples": 2.9, "seed": True}, None),
    (["scatter", "--samples", "2"], {"seed": True}, None),
    (["scatter", "--samples", "2"], {"seed": 1.5}, None),
    (["scatter", "--samples", "2", "--family", "x"], {"rank": True}, None),
    (["scatter"], {"samples": float("inf")}, None),
    (["scatter", "--samples", "2"], {"threads": True}, None),
    (["convert", "--samples", "2"], {"tol": True}, None),
    (["convert"], {"samples": True}, None),
    (["scatter", "--family", "mems", "--rank", "2", "--samples", "3"], None, None),
    (["scatter", "--family", "h", "--samples", "3"], {"rank": 1}, None),
    (["scatter", "--family", "x", "--system", "2x3", "--samples", "3"], None, None),
    (["scatter", "--family", "x", "--system", "2x3", "--rank", "3", "--samples", "4"],
     None, None),
    (["scatter", "--family", "x", "--system", "2x3", "--rank", "5", "--samples", "4"],
     None, None),
    (["scatter", "--samples", "abc"], None, None),
    (["scatter", "--samples", "2", "--family", "x", "--rank", "x"], None, None),
    (["convert", "--samples", "2", "--tol", "x"], None, None),
    (["scatter", "--samples", "2", "--threads", "abc"], None, None),
    (["convert", "--samples", "2", "--format", "xml"], None, None),
    (["scatter", "--samples", "2", "--family", "nope"], None, None),
    ([], None, None),
    (["scatter", "--bogus", "1"], None, None),
    (["convert", "--tol"], None, None),
    (["mask", "--kind", "x"], None, None),
    (["mask", "--format", "csv"], None, None),
    (["mask", "--system", "1x2"], None, None),
    (["mask", "--system", "1000x1000"], None, None),
    (["verify", "--seed", "abc"], None, None),
    (["verify", "--seed", "-1"], None, None),
], ids=["samples-abc", "tol-list", "threads-env-abc", "config-format-xml",
        "mems-curve-json", "negative-seed", "scatter-out-int", "scatter-plot-bool",
        "convert-out-int", "mems-curve-out-list", "mems-curve-samples-0",
        "mems-curve-samples-negative", "tol-nan", "tol-negative", "samples-over-2^32",
        "samples-fraction-seed-bool", "seed-bool", "seed-fraction", "rank-bool",
        "samples-inf", "threads-bool", "tol-bool", "convert-samples-bool",
        "grid-family-rank", "grid-family-rank-config", "x-on-2x3", "x-on-2x3-rank-3",
        "x-on-2x3-rank-5", "flag-samples-abc", "flag-rank-x", "flag-tol-x",
        "flag-threads-abc", "flag-format-xml", "flag-family-nope", "no-command",
        "unknown-flag", "missing-value", "mask-kind-x", "mask-format-csv", "mask-dims-1x2",
        "mask-too-large", "verify-seed-abc", "verify-seed-negative"])
def test_main_bad_input_is_one_line_error(tmp_path, monkeypatch, capsys, request,
                                          argv, config, env):
    if request.node.callspec.id == "samples-over-2^32":
        # Without the samples bound this run would draw for hours; fail at once.
        def no_draws(*args):
            raise AssertionError("the run got as far as drawing samples")

        monkeypatch.setattr(_streams, "stream_words", no_draws)
        monkeypatch.setattr(_streams, "generators", no_draws)
    if request.node.callspec.id == "mask-too-large":
        # Without the size limit this mask would need TiBs; fail at once.
        def no_mask(dims):
            raise AssertionError("the run got as far as building a mask")

        monkeypatch.setattr(cli.tgx, "anti_x_mask", no_mask)
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
    # A Python caller that passes the same field values gets the same error.
    if request.node.callspec.id not in _NOT_A_FIELD_VALUE:
        _assert_constructor_error(_field_values(argv, config), captured.err)


@pytest.mark.parametrize("argv,flags,config", [
    (["scatter"], ["--samples", "abc"], {"samples": "abc"}),
    (["scatter", "--samples", "2"], ["--rank", "x"], {"rank": "x"}),
    (["convert", "--samples", "2"], ["--tol", "x"], {"tol": "x"}),
    (["convert", "--samples", "2"], ["--threads", "abc"], {"threads": "abc"}),
    (["scatter", "--samples", "2"], ["--threads", "0"], {"threads": 0}),
    (["convert", "--samples", "2"], ["--format", "xml"], {"format": "xml"}),
    (["scatter", "--samples", "2"], ["--family", "nope"], {"family": "nope"}),
    (["scatter", "--samples", "2"], ["--system", "3x3"], {"system": "3x3"}),
    (["scatter", "--samples", "2"], ["--system", "2x"], {"system": "2x"}),
    (["scatter", "--samples", "2"], ["--seed", "-1"], {"seed": -1}),
    (["mems-curve", "--samples", "2"], ["--format", "json"], {"format": "json"}),
], ids=["samples", "rank", "tol", "threads", "threads-0", "format", "family",
        "system", "dims", "seed", "mems-curve-format"])
def test_main_bad_value_is_one_error_from_flag_and_config(tmp_path, capsys, argv, flags,
                                                          config):
    # One converter checks a value, whether a flag or a config file gave it.
    assert cli.main(argv + flags) == 1
    from_flag = capsys.readouterr()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(argv + ["--config", str(path)]) == 1
    from_config = capsys.readouterr()
    assert from_flag.out == from_config.out == ""
    assert from_flag.err == from_config.err
    assert from_flag.err.startswith("error: ") and from_flag.err.count("\n") == 1
    # The constructor is a third source: the flag's string and the config value
    # of a field give it the same error.
    for key, value in config.items():
        if key in _CONFIG_FIELDS:
            _assert_constructor_error({key: value}, from_flag.err)
            _assert_constructor_error({key: flags[1]}, from_flag.err)


def test_experiment_config_converts_its_values_and_is_frozen():
    assert cli.ExperimentConfig(samples="5").samples == 5
    assert cli.ExperimentConfig(system=[2, 3]).system == (2, 3)
    assert cli.ExperimentConfig(system=np.array([2, 3])).system == (2, 3)
    assert cli.ExperimentConfig(system="2x3", family="tgx").system == (2, 3)
    # What `xlab` accepts from a flag or a config file converts the same way.
    assert cli.ExperimentConfig(seed="3").seed == 3
    cfg = cli.ExperimentConfig(family="x", rank=2.0, samples=3, seed=1)
    assert cfg.rank == 2 and [r.rank for r in cli.run_scatter(cfg)] == [2, 2, 2]
    # None or empty is the default, as for an absent flag or a null config value.
    assert cli.ExperimentConfig(samples=None, family="", rank="") == cli.ExperimentConfig()
    with pytest.raises(ConfigError, match=r"^dimensions must be integers, got \[2.0, 3\]$"):
        cli.ExperimentConfig(system=(2.0, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.samples = 5


@pytest.mark.parametrize("values", [
    {"samples": 2.5}, {"samples": True}, {"seed": -1.0}, {"rank": 2.5}, {"rank": 7},
    {"system": [2.0, 3]}, {"system": "2x3", "family": "h"}, {"tol": "x"},
], ids=["samples-fraction", "samples-bool", "seed-negative-float", "rank-fraction",
        "rank-too-large", "system-float", "h-on-2x3", "tol-text"])
def test_experiment_config_error_is_the_config_file_error(tmp_path, capsys, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    command = "convert" if "tol" in values else "scatter"
    assert cli.main([command, "--config", str(path)]) == 1
    _assert_constructor_error(values, capsys.readouterr().err)


def test_main_bad_flag_messages(capsys):
    cases = {
        ("scatter", "--system", "3x3"): "system must be 2x2 or 2x3, got [3, 3]",
        ("scatter", "--bogus", "1"): "unrecognized arguments: --bogus 1",
        ("convert", "--tol"): "argument --tol: expected one argument",
        ("mask", "--system", "1x2"):
            "need at least two subsystems of dimension >= 2, got [1, 2]",
        ("mask", "--system", "1000x1000"):
            "mask system 1000x1000 has 1000000 states; the limit is 1024",
        ("mask", "--kind", "x"): "kind must be one of tgx, anti, got 'x'",
    }
    for argv, message in cases.items():
        assert cli.main(list(argv)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


# Each command with two bad values, and the error that wins: the ExperimentConfig value first,
# then the format, then the handler's own checks.  4294967296 = 2**32 samples is valid but
# would draw for hours, so a run that gets as far as drawing fails the test.
@pytest.mark.parametrize("argv,message", [
    (["scatter", "--seed", "-1", "--format", "xml"], "seed must be >= 0, got -1"),
    (["scatter", "--samples", "4294967296", "--format", "xml"],
     "format must be one of csv, json, got 'xml'"),
    (["convert", "--tol", "-1", "--format", "xml"], "tol must be finite and >= 0, got -1.0"),
    (["convert", "--samples", "4294967296", "--format", "xml"],
     "format must be one of csv, json, got 'xml'"),
    (["mask", "--kind", "x", "--format", "y"], "format must be one of ascii, json, got 'y'"),
    (["mask", "--system", "1000x1000", "--format", "y"],
     "format must be one of ascii, json, got 'y'"),
    (["mask", "--system", "1000x1000", "--kind", "x"], "kind must be one of tgx, anti, got 'x'"),
    (["mems-curve", "--samples", "0", "--format", "json"],
     "samples must be in 1..2**32, got 0"),
    (["mems-curve", "--samples", "4294967296", "--format", "json"],
     "format must be one of csv, got 'json'"),
    (["mems-curve", "--samples", "4294967296", "--system", "3x3"],
     "system must be 2x2 or 2x3, got [3, 3]"),
], ids=["scatter-seed", "scatter-format", "convert-tol", "convert-format", "mask-format",
        "mask-format-size", "mask-kind-size", "mems-curve-samples", "mems-curve-format",
        "mems-curve-system"])
def test_main_reports_the_first_of_two_bad_values(tmp_path, monkeypatch, capsys, argv, message):
    def no_work(*args):
        raise AssertionError("the run got as far as drawing or building")

    for name in ("_sample_blocks", "_curve"):
        monkeypatch.setattr(cli, name, no_work)
    for name in ("tgx_mask", "anti_x_mask"):
        monkeypatch.setattr(cli.tgx, name, no_work)
    runs = [argv]
    if "--format" in argv and "config" in cli._COMMANDS[argv[0]].flags:
        # A bad format from the config file is checked at the same point.
        at = argv.index("--format")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"format": argv[at + 1]}))
        runs.append(argv[:at] + argv[at + 2:] + ["--config", str(path)])
    for run in runs:
        assert cli.main(run) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n"), run


def test_main_mask_size_limit_is_inclusive(capsys):
    assert cli.main(["mask", "--system", "2x512"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1024


def test_main_mems_curve_over_its_point_limit_is_one_line_error(monkeypatch, capsys):
    # 2**32 is a valid sample count, but not a curve that fits in memory; fail at once.
    def no_curve(system, m):
        raise AssertionError("the run got as far as building the curve")

    monkeypatch.setattr(cli, "_curve", no_curve)
    assert cli.main(["mems-curve", "--samples", str(2**32)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: mems-curve takes at most {cli._CURVE_MAX_N} samples, "
                            f"got {2**32}\n")


def test_main_mems_curve_point_limit_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_CURVE_MAX_N", 5)
    assert cli.main(["mems-curve", "--samples", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert cli.main(["mems-curve", "--samples", "6"]) == 1


def test_main_help_exits_0_and_lists_the_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scatter", "-h"])
    assert exc.value.code == 0
    assert "{general,x,lx,tgx,mems,h}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["mask", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "{tgx,anti}" in text and "{ascii,json}" in text


def test_main_mems_curve_takes_system_from_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": [2, 3]}))
    assert cli.main(["mems-curve", "--samples", "4", "--config", str(path)]) == 0
    from_config = capsys.readouterr().out
    assert cli.main(["mems-curve", "--samples", "4", "--system", "2x3"]) == 0
    assert capsys.readouterr().out == from_config
    assert from_config.splitlines()[1].startswith("0.1666")


def test_python_m_xlab_cli_bad_flag_is_one_line_error():
    src = str(Path(xlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "xlab.cli", "scatter", "--samples", "abc"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: samples must be int, got 'abc'\n"


@pytest.mark.parametrize("argv,config,names", [
    (["convert", "--samples", "2"], {"budget": 5, "sampels": 3}, "budget, sampels"),
    (["scatter", "--samples", "2"], {"tol": 1e-3}, "tol"),
    (["mems-curve"], {"fmt": "csv"}, "fmt"),
    (["scatter", "--samples", "2"], {"config": "other.json"}, "config"),
    (["mems-curve"], {"seed": 1, "threads": 2}, "seed, threads"),
], ids=["removed-and-typo", "other-command", "fmt-not-format", "config",
        "mems-curve-unseeded"])
def test_main_unknown_config_key_is_error(tmp_path, capsys, argv, config, names):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(argv + ["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown config key(s) for {argv[0]}: {names}\n"


def test_main_leaves_nothing_behind(capsys):
    # No call leaves anything behind for the next one: neither its flags nor a
    # failed parse.
    argv = ["convert", "--samples", "3", "--seed", "5"]
    def ranks(text):
        return {row["rank"] for row in csv.DictReader(text.splitlines())}

    assert cli.main(argv) == 0
    fresh = capsys.readouterr().out
    assert ranks(fresh) != {"2"}
    assert cli.main(argv + ["--tol", "0.5", "--rank", "2"]) == 0
    assert ranks(capsys.readouterr().out) == {"2"}
    args = cli._parse(argv)
    assert args["tol"] is None and args["rank"] is None
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == fresh
    assert cli.main(["convert", "--tol"]) == 1
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == fresh


def test_importing_the_cli_loads_no_argparse_or_gettext():
    src = str(Path(xlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", "import sys, xlab.cli; print(sorted(\n"
                           "    {'argparse', 'gettext'} & set(sys.modules)))"],
                          capture_output=True, text=True, cwd=src)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# What the argparse-based reader gave for each command line: its exit code, its stderr
# line, and for a valid line the SHA-256 of stdout (numpy 2.4, x86-64).  `_parse` gives
# the same, with two deliberate differences.  The help text has a new layout, so a -h
# line (`_HELP`) only checks that the help was printed.  The second is marked below.
_HELP = "help"
_PARITY = [
    (["convert", "--samples", "3", "--seed", "5"], 0, "",
     "77108224819f7d87668d899fff84b358944331f2c1f8f5cc38b0b3fb9e3bb781"),
    (["convert", "--samples=3", "--seed=5"], 0, "",
     "77108224819f7d87668d899fff84b358944331f2c1f8f5cc38b0b3fb9e3bb781"),
    (["convert", "--sam", "3", "--seed", "5"], 0, "",
     "77108224819f7d87668d899fff84b358944331f2c1f8f5cc38b0b3fb9e3bb781"),
    (["convert", "--samples", "9", "--samples", "3", "--seed", "5"], 0, "",
     "77108224819f7d87668d899fff84b358944331f2c1f8f5cc38b0b3fb9e3bb781"),
    (["convert", "--samples", "2", "--seed", "7", "--f", "json"], 0, "",
     "9f71b7e09bffa7ff048be546a82c21a3ecb514ef19e549d89fe3132689fbbd2b"),
    # The x family's closed form moved its entanglement column in the last bits; the
    # digest was 2d5f98787e4f49f4f5a2089e043829f8c03f987210e511435ae353aff1af7920.
    (["scatter", "--fam=x", "--samples", "3"], 0, "",
     "7d5dc32e834fd2051a526b2f2d659389e8311cd098f92947fe4883447e146a53"),
    (["scatter", "--sys", "2x3", "--fam", "tgx", "--se", "1", "--sa", "2"], 0, "",
     "0ea076c7a6214076885c8e3c2a84bf3a63fd7bebdcf2f0c57279db8bacdd8d22"),
    (["scatter", "--samples", "2", "--plot="], 0, "",
     "dad745e45b47808db72dd330aba188981111f59e2e48f5bf97c1b5a8a81343f3"),
    (["mask"], 0, "", "3b823a50e9f817d77c33ac24481f48ecb053762754df2d6642ff78f195434fdb"),
    (["mask", "--system", "2x3", "--kind", "anti", "--f", "json"], 0, "",
     "0a4746f55abb7914be7eee913ca76f17a8eda53821b0a13513fd7a625c3594fe"),
    (["mems-curve", "--samples", "5", "--system=2x3"], 0, "",
     "c063ac3cee317d015fd0980a366ecdc8406b1c81a997fcf05f262edaeaeb87ea"),
    # Was 63995da615fc962c714bd268e18293030e640cf03d1df33a8f51e8b92b8a321b before the
    # "partner ranks" line.
    (["verify", "--seed="], 0, "",
     "6b76b190d3afccb52990f7a99f6fb87c045452c25527594e6ca175720439c94e"),
    (["scatter", "--samples", "-5"], 1, "samples must be in 1..2**32, got -5", None),
    (["scatter", "--samples", "2", "--seed", "-1"], 1, "seed must be >= 0, got -1", None),
    (["scatter", "--s", "3"], 1, "ambiguous option: --s could match --system, --samples, --seed",
     None),
    (["scatter", "--s=3"], 1, "ambiguous option: --s=3 could match --system, --samples, --seed",
     None),
    (["convert", "--t", "0.5"], 1, "ambiguous option: --t could match --tol, --threads", None),
    (["convert", "--tol"], 1, "argument --tol: expected one argument", None),
    (["scatter", "--out", "--samples", "3"], 1, "argument --out: expected one argument", None),
    (["scatter", "--samples", "-h"], 1, "argument --samples: expected one argument", None),
    (["scatter", "--bogus", "x", "--samples"], 1, "argument --samples: expected one argument",
     None),
    (["scatter", "stray"], 1, "unrecognized arguments: stray", None),
    (["scatter", "--samples", "2", "stray", "--seed", "1"], 1, "unrecognized arguments: stray",
     None),
    (["scatter", "--bogus", "1"], 1, "unrecognized arguments: --bogus 1", None),
    (["scatter", "--samples", "2", "--bogus=1", "-x"], 1, "unrecognized arguments: --bogus=1 -x",
     None),
    (["scatter", "--samples", "2", "--"], 1, "unrecognized arguments: --", None),
    (["verify", "-s", "1"], 1, "unrecognized arguments: -s 1", None),
    (["mask", "--config", "cfg.json"], 1, "unrecognized arguments: --config cfg.json", None),
    ([], 1, "the following arguments are required: command", None),
    (["frobnicate", "--samples", "2"], 1,
     "argument command: invalid choice: 'frobnicate' "
     "(choose from 'scatter', 'convert', 'mask', 'mems-curve', 'verify')",
     None),
    (["-h"], 0, "", _HELP),
    (["--help"], 0, "", _HELP),
    (["scatter", "-h"], 0, "", _HELP),
    (["scatter", "--samples", "3", "-h"], 0, "", _HELP),
    (["scatter", "-h", "--samples"], 0, "", _HELP),
    (["convert", "--bogus", "-h"], 0, "", _HELP),
    (["mask", "--help"], 0, "", _HELP),
    (["scatter", "-h", "--s"], 1, "ambiguous option: --s could match --system, --samples, --seed",
     None),
    (["convert", "--tol=-1e-3", "--samples", "2"], 1, "tol must be finite and >= 0, got -0.001",
     None),
    # The second difference: argparse read -1e-3 as a flag and gave "argument --tol:
    # expected one argument"; the value now reaches the tol check, as --tol=-1e-3 does.
    (["convert", "--tol", "-1e-3", "--samples", "2"], 1, "tol must be finite and >= 0, got -0.001",
     None),
]


@pytest.mark.parametrize("argv,code,err,digest", _PARITY,
                         ids=[" ".join(argv) or "no-command" for argv, *_ in _PARITY])
def test_main_reads_argv_as_argparse_did(monkeypatch, tmp_path, capsys, argv, code, err,
                                         digest):
    monkeypatch.chdir(tmp_path)
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, got = capsys.readouterr()
    assert (rc, got) == (code, f"error: {err}\n" if err else "")
    if digest == _HELP:
        assert out.startswith(f"usage: xlab {argv[0] if argv[0] in cli._COMMANDS else 'COMMAND'}")
    elif digest:
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    else:
        assert out == ""


def test_main_config_numbers_keep_their_value(tmp_path, capsys):
    # An integral float is an int; a string number stays valid in a config.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"samples": 3.0, "seed": "9", "tol": 1, "threads": 2.0}))
    assert cli.main(["convert", "--config", str(path)]) == 0
    text = capsys.readouterr().out
    assert cli.main(["convert", "--samples", "3", "--seed", "9", "--tol", "1"]) == 0
    assert capsys.readouterr().out == text
    assert len(text.splitlines()) == 4


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


def test_main_verify_catches_a_json_writer_drift(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_records_json", lambda records: "[]\n")
    assert cli.main(["verify"]) == 1
    assert "FAIL  json writer" in capsys.readouterr().out


def test_main_verify_catches_a_mask_json_writer_drift(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_mask_json", lambda mask, dims, kind: "{}\n")
    assert cli.main(["verify"]) == 1
    assert "FAIL  json writer" in capsys.readouterr().out


def test_main_verify_checks_the_mask_json_writer_on_a_tgx_mask(monkeypatch, capsys):
    writer = cli._mask_json
    monkeypatch.setattr(cli, "_mask_json", lambda mask, dims, kind:
                        writer(mask, dims, kind) if kind == "anti" else "{}\n")
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  json writer" in out and out.count("FAIL") == 1


def test_main_verify_catches_a_rank_state_mixer_drift(monkeypatch, capsys):
    mixer = states._block_mixture
    monkeypatch.setattr(states, "_block_mixture", lambda *args: mixer(*args) * (1.0 + 2.0**-52))
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  rank-state mixer" in out and out.count("FAIL") == 1


def test_main_verify_catches_a_factor_route_drift(monkeypatch, capsys):
    ginibre = states._ginibre

    def drifted(G, ranks, n):
        W, factors = ginibre(G, ranks, n)
        return W, [(rows, F * (1.0 + 1e-11)) for rows, F in factors]

    monkeypatch.setattr(states, "_ginibre", drifted)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  wootters factor" in out and out.count("FAIL") == 1


def test_main_verify_catches_a_partner_rank_drift(monkeypatch, capsys):
    # A rank that reads one short on matrices under 4x4, which only partner states are.
    rank = linalg.numerical_rank
    monkeypatch.setattr(linalg, "numerical_rank", lambda M: rank(M) - (M.shape[-1] < 4))
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  partner ranks" in out and out.count("FAIL") == 1


def test_main_verify_catches_a_raw_word_drift(monkeypatch, capsys):
    raw_words = _streams.raw_words

    def flipped(words, k):
        raw = raw_words(words, k)
        raw[-1, -1] ^= np.uint64(1 << 40)
        return raw

    monkeypatch.setattr(_streams, "raw_words", flipped)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  raw stream words" in out and out.count("FAIL") == 1


@pytest.mark.parametrize("name", sorted(n for n, row in cli._FAMILIES.items() if row.ranks))
def test_a_zero_used_probability_lowers_the_rank(name):
    # _streams.rank_block retries a row on its numerical rank alone: a used
    # probability is 0 only when a drawn angle is exactly 0, and then every
    # later weight is 0 too, so the rank falls short of R.
    family, rng = cli._FAMILIES[name].ranks, np.random.default_rng(31)
    K = len(family.lo)
    for R in range(2, K + 1):
        thetas, angles = np.zeros((400, K)), np.zeros((400, K - 1))
        thetas[:, :R] = rng.random((400, R)) * (math.pi / 2.0)
        angles[:, :R - 1] = rng.random((400, R - 1)) * (math.pi / 2.0)
        angles[np.arange(400), rng.integers(0, R - 1, 400)] = 0.0
        probs = states.hyperspherical_probs(angles)
        assert ((probs[:, :R] > 0.0).sum(axis=1) < R).all()
        _, ranks = states.rank_states(family, np.full(400, R), thetas, probs)
        assert (ranks < R).all(), (name, R)


def test_draw_rank_block_redraws_a_row_with_a_zero_angle(monkeypatch):
    # Zero the first probability angle of row 0's first draw: that row is
    # drawn again and every row comes out at its rank.
    doubles = _streams.doubles

    def zeroed(raw):
        u = doubles(raw)
        u[0, 3] = 0.0  # --rank 3 fixes the rank: 3 thetas, then the angles
        return u

    monkeypatch.setattr(_streams, "doubles", zeroed)
    cfg = cli.ExperimentConfig(system=(2, 3), family="tgx", rank=3, samples=8, seed=5)
    words = next(cli._sample_blocks(cfg))[1]
    rho, R = _streams.rank_block(words, states.TGX_RANK, cfg.rank, cfg.family)
    assert (R == 3).all() and (rho.rank() == 3).all()
    monkeypatch.setattr(_streams, "doubles", doubles)
    again = _streams.rank_block(words, states.TGX_RANK, cfg.rank, cfg.family)[0]
    assert np.array_equal(rho.mat[1:], again.mat[1:])
    assert not np.array_equal(rho.mat[0], again.mat[0])


@pytest.mark.parametrize("r", [1, 2, 6])
def test_one_random_call_draws_the_values_of_two_uniform_calls(r):
    # _streams.rank_block draws thetas and angles as one random(2r - 1) * pi/2.
    for seed in range(20):
        a, b = np.random.default_rng([seed, r]), np.random.default_rng([seed, r])
        two = np.concatenate([a.uniform(0.0, math.pi / 2.0, r),
                              a.uniform(0.0, math.pi / 2.0, r - 1)])
        assert (b.random(2 * r - 1) * (math.pi / 2.0)).tobytes() == two.tobytes()
        assert a.bit_generator.state == b.bit_generator.state
