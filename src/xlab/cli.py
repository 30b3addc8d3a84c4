"""Seeded Monte Carlo experiment harness and command-line interface.

Subcommands: `scatter` (entanglement-purity samples of a state family),
`convert` (consecutive X-conversion campaign), `mask` (TGX/anti-X element
masks), `mems-curve` (boundary curves), `verify` (fast invariant checks).

Every sample derives its own RNG statelessly from (seed, sample_index), and
`run_scatter` measures blocks of `_BLOCK` samples with stacked kernels, so
output is byte-identical for any block size.  `--threads` is validated but
has no effect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import convert, measures, states, tgx
from .errors import ConfigError, RankError, XLabError

_SYSTEMS = ((2, 2), (2, 3))
# Purity of the maximally mixed state: the left end of each purity axis.
_P_MIN = {(2, 2): 0.25, (2, 3): 1.0 / 6.0}
# A converted state with a larger anti-X measure is not an X state.
_ANTI_X_TOL = 1e-10
_FAMILIES = ("general", "x", "lx", "tgx", "mems", "h")
_BLOCK = measures.BLOCK  # samples per stacked measurement in run_scatter


@dataclass
class SampleRecord:
    """One scatter sample: entanglement/purity plus provenance."""

    entanglement: float
    purity: float
    rank: int
    family: str
    sample_index: int


@dataclass
class ExperimentConfig:
    system: tuple = (2, 2)
    family: str = "general"
    rank: int | None = None
    samples: int = 10_000
    seed: int = 0
    tol: float = convert.DEFAULT_TOL_C
    threads: int = 1

    def validate(self) -> "ExperimentConfig":
        if tuple(self.system) not in _SYSTEMS:
            raise ConfigError(f"system must be 2x2 or 2x3, got {list(self.system)}")
        if self.family not in _FAMILIES:
            raise ConfigError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        n = int(np.prod(self.system))
        if self.rank is not None and not 1 <= self.rank <= n:
            raise ConfigError(f"rank {self.rank} invalid for system {list(self.system)}")
        if self.family in ("lx", "tgx") and tuple(self.system) != (2, 3):
            raise ConfigError(f"family {self.family!r} requires system 2x3")
        if self.family == "h" and tuple(self.system) != (2, 2):
            raise ConfigError("family 'h' requires system 2x2")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        return self


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    # Stateless per-sample stream: the seed sequence hashes (seed, index),
    # so any blocking of the samples reproduces the same draws.
    return np.random.default_rng([seed, index])


def _draw_rank(cfg: ExperimentConfig, rng: np.random.Generator) -> int:
    if cfg.rank is not None:
        return cfg.rank
    return int(rng.integers(1, int(np.prod(cfg.system)) + 1))


def _random_hyper_probs(R: int, rng: np.random.Generator) -> np.ndarray:
    if R == 1:
        return np.array([1.0])
    return states.hyperspherical_probs(rng.uniform(0.0, math.pi / 2.0, R - 1))


def _draw_family_state(cfg: ExperimentConfig, rng: np.random.Generator, index: int):
    n = int(np.prod(cfg.system))
    fam = cfg.family
    if fam == "general":
        return states.random_mixed(n, _draw_rank(cfg, rng), rng, tuple(cfg.system))
    if fam == "x":
        if cfg.rank is None:
            params = states.XParams(
                probability_angles=rng.uniform(0.0, math.pi / 2.0, 3),
                superposition_angles=rng.uniform(0.0, math.pi / 2.0, 4),
                phases=rng.uniform(0.0, 2.0 * math.pi, 4))
            return states.general_x_state(params)
        builder = states.rank_x_state
    elif fam == "lx":
        builder = states.lx_rank_state
    elif fam == "tgx":
        builder = states.tgx_rank_state
    elif fam == "mems":
        p_min = _P_MIN[tuple(cfg.system)]
        P = p_min + (1.0 - p_min) * (index / max(cfg.samples - 1, 1))
        return (states.mems_2x2 if tuple(cfg.system) == (2, 2) else states.mems_2x3)(P)
    elif fam == "h":
        side = max(int(math.ceil(math.sqrt(cfg.samples))), 2)
        C = (index % side) / (side - 1)
        lo = states.h_purity_floor(C)
        P = lo + (1.0 - lo) * ((index // side) % side) / (side - 1)
        return states.h_state(C, min(P, 1.0))
    else:  # pragma: no cover
        raise ConfigError(f"unhandled family {fam!r}")
    R = _draw_rank(cfg, rng)
    for _ in range(64):
        try:
            return builder(R, rng.uniform(0.0, math.pi / 2.0, R),
                           _random_hyper_probs(R, rng))
        except RankError:
            continue
    raise ConfigError(f"could not draw a rank-{R} {fam} state after 64 tries")


def run_scatter(cfg: ExperimentConfig) -> list:
    """Draw, measure, and record `samples` states of the configured family."""
    cfg.validate()
    records = []
    for lo in range(0, cfg.samples, _BLOCK):
        block = range(lo, min(lo + _BLOCK, cfg.samples))
        batch = states.DensityMatrix(np.stack([
            _draw_family_state(cfg, _sample_rng(cfg.seed, i), i).mat for i in block]),
            cfg.system)
        records += map(SampleRecord, measures.entanglement(batch).tolist(),
                       measures.purity(batch).tolist(), batch.rank().tolist(),
                       [cfg.family] * len(block), block)
    return records


@dataclass
class CampaignRecord:
    """Per-sample conversion outcome."""

    sample_index: int
    rank: int
    purity: float
    input_concurrence: float
    output_concurrence: float
    attempts: int
    delta_c: float
    anti_x: float
    success: bool


@dataclass
class CampaignSummary:
    samples: int
    successes: int
    max_delta_c: float
    max_anti_x: float
    attempt_histogram: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

    @property
    def all_succeeded(self) -> bool:
        return self.successes == self.samples


def _convert_one(cfg: ExperimentConfig, index: int) -> CampaignRecord:
    rng = _sample_rng(cfg.seed, index)
    R = _draw_rank(cfg, rng)
    rho = states.random_mixed(4, R, rng, (2, 2))
    res = convert.find_x_equivalent(rho)
    return CampaignRecord(
        sample_index=index, rank=R, purity=float(measures.purity(rho)),
        input_concurrence=float(res.input_concurrence),
        output_concurrence=float(res.output_concurrence),
        attempts=int(res.attempts), delta_c=float(res.delta_c),
        anti_x=float(res.anti_x),
        success=res.delta_c <= cfg.tol and res.anti_x <= _ANTI_X_TOL)


def run_conversion_campaign(cfg: ExperimentConfig) -> CampaignSummary:
    """Convert `samples` consecutive random two-qubit states to X form."""
    cfg.validate()
    records = [_convert_one(cfg, i) for i in range(cfg.samples)]
    hist: dict = {}
    for r in records:
        # Bucket attempts by decade for a compact histogram.
        bucket = "0" if r.attempts == 0 else f"1e{int(math.floor(math.log10(r.attempts)))}"
        hist[bucket] = hist.get(bucket, 0) + 1
    return CampaignSummary(
        samples=len(records),
        successes=sum(r.success for r in records),
        max_delta_c=max(r.delta_c for r in records),
        max_anti_x=max(r.anti_x for r in records),
        attempt_histogram=dict(sorted(hist.items())),
        records=records)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _cell(x) -> str:
    """The format field of a CSV cell like x: a float as format(x, ".17g"),
    a bool as 0/1, anything else as str(x)."""
    if isinstance(x, float):
        return "{:.17g}"
    return "{:d}" if isinstance(x, int) else "{}"


def _csv(header, rows) -> str:
    """CSV text: the header line, then one line per row; each column is
    written by the `_cell` of its first-row value."""
    rows = list(rows)
    line = ",".join(map(_cell, rows[0])) + "\n" if rows else ""
    return ",".join(header) + "\n" + "".join(line.format(*row) for row in rows)


def _records_csv(records) -> str:
    """CSV of dataclass records, one column per field in field order."""
    return _csv(vars(records[0]), (vars(r).values() for r in records))


def _records_json(records) -> str:
    return json.dumps([vars(r) for r in records], indent=2) + "\n"


def _campaign_json(summary: CampaignSummary) -> str:
    return json.dumps({**vars(summary), "records": [vars(r) for r in summary.records]},
                      indent=2) + "\n"


def _curve_csv(system, samples: int) -> str:
    p_min = _P_MIN[system]
    boundary = _boundary_for(system)
    grid = (p_min + (1.0 - p_min) * i / max(samples - 1, 1) for i in range(samples))
    return _csv(("purity", "entanglement"), ((P, boundary(P)) for P in grid))


def _boundary_for(system):
    return (measures.mems_boundary_2x2 if tuple(system) == (2, 2)
            else measures.mems_boundary_2x3)


def _scatter_svg(records, system) -> str:
    """Standalone SVG scatter with the MEMS boundary polyline overlaid."""
    W, H, M = 640, 480, 50
    p_min = _P_MIN[tuple(system)]

    def sx(p):
        return M + (p - p_min) / (1.0 - p_min) * (W - 2 * M)

    def sy(e):
        return H - M - e * (H - 2 * M)

    boundary = _boundary_for(system)
    pts = []
    for p in np.linspace(p_min, 1.0, 500):
        pts.append(f"{sx(p):.2f},{sy(boundary(float(p))):.2f}")
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


def _serializer(fmt, by_format: dict):
    """The serializer for `fmt`; an unknown format is a ConfigError."""
    try:
        return by_format[fmt]
    except (KeyError, TypeError):
        raise ConfigError(
            f"format must be one of {', '.join(by_format)}, got {fmt!r}") from None


def _write(text: str, path=None) -> None:
    """Write `text` to the file at `path`, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_output(records, fmt: str = "csv", out=None, plot=None, system=(2, 2)) -> str:
    """Serialize scatter records; optionally write an SVG scatter plot.

    Returns the serialized text; writes it to `out` when given.
    """
    records = list(records)
    if not records:
        raise ConfigError("no records to emit")
    text = _serializer(fmt, {"csv": _records_csv, "json": _records_json})(records)
    if out:
        _write(text, out)
    if plot:
        _write(_scatter_svg(records, system), plot)
    return text


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _parse_system(text: str):
    dims = _parse_dims(text)
    if dims not in _SYSTEMS:
        raise ConfigError(f"unknown system {text!r}; use 2x2 or 2x3")
    return dims


def _parse_dims(text: str):
    key = text.lower().replace("[", "").replace("]", "").replace(",", "x").replace(" ", "")
    try:
        dims = tuple(int(d) for d in key.split("x"))
    except ValueError:
        raise ConfigError(f"cannot parse dims {text!r}") from None
    return dims


def _add_common(p, seeded: bool = True):
    p.add_argument("--samples", type=int, default=None)
    if seeded:
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    p.add_argument("--config", default=None, help="JSON file with flag defaults")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="xlab",
        description="Entanglement-purity experiments on X-state structure")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scatter", help="sample a state family and record (E, P)")
    p.add_argument("--system", default=None)
    p.add_argument("--family", choices=_FAMILIES, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--plot", default=None, help="write an SVG scatter here")
    _add_common(p)

    p = sub.add_parser("convert", help="consecutive X-conversion campaign")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="largest |dC| that counts as a successful conversion")
    _add_common(p)

    p = sub.add_parser("mask", help="print the TGX / anti-X element masks")
    p.add_argument("--system", default="2x2", help="dims, e.g. 2x3 or 2x2x2")
    p.add_argument("--kind", choices=("tgx", "anti"), default="tgx")
    p.add_argument("--format", dest="fmt", choices=("ascii", "json"), default="ascii")
    p.add_argument("--out", default=None)

    p = sub.add_parser("mems-curve", help="tabulate the MEMS boundary curve")
    p.add_argument("--system", default="2x2")
    _add_common(p, seeded=False)

    p = sub.add_parser("verify", help="run fast invariant checks")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _merge_config(args) -> dict:
    """Start from JSON config file values (if any), then apply explicit flags."""
    merged = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - (set(vars(args)) - {"command", "config"}))
        if unknown:
            raise ConfigError(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
        merged.update(loaded)
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            merged[key] = val
    return merged


def _get(m, key: str, kind, default=None):
    """m[key] converted by `kind`, or `default` when it is absent, null or empty.

    Config files and the environment can hold values of any type, so one
    that `kind` cannot convert is a ConfigError, not a traceback.
    """
    value = m.get(key)
    if value is None or value == "":
        return default
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from None


def _path(m, key: str):
    """m[key] as a file path; any other type would reach open() as a file descriptor."""
    if not isinstance(m.get(key), (str, type(None))):
        raise ConfigError(f"{key} must be a path string, got {m[key]!r}")
    return m.get(key)


def _threads_from(merged: dict) -> int:
    threads = _get(merged, "threads", int)
    return _get(os.environ, "XLAB_THREADS", int, 1) if threads is None else threads


def _cmd_scatter(args) -> int:
    m = _merge_config(args)
    cfg = ExperimentConfig(
        system=_parse_system(str(m.get("system", "2x2"))),
        family=m.get("family", "general"),
        rank=_get(m, "rank", int),
        samples=_get(m, "samples", int, 10_000),
        seed=_get(m, "seed", int, 0),
        threads=_threads_from(m))
    records = run_scatter(cfg)
    _write(emit_output(records, fmt=m.get("fmt", "csv"), plot=_path(m, "plot"),
                       system=cfg.system), _path(m, "out"))
    return 0


def _cmd_convert(args) -> int:
    m = _merge_config(args)
    serialize = _serializer(m.get("fmt", "csv"),
                            {"csv": lambda summary: _records_csv(summary.records),
                             "json": _campaign_json})
    cfg = ExperimentConfig(
        system=(2, 2), family="general", rank=_get(m, "rank", int),
        samples=_get(m, "samples", int, 100),
        seed=_get(m, "seed", int, 0),
        tol=_get(m, "tol", float, convert.DEFAULT_TOL_C),
        threads=_threads_from(m))
    summary = run_conversion_campaign(cfg)
    _write(serialize(summary), _path(m, "out"))
    return 0 if summary.all_succeeded else 2


def _cmd_mask(args) -> int:
    dims = _parse_dims(args.system)
    mask = tgx.tgx_mask(dims) if args.kind == "tgx" else tgx.anti_x_mask(dims)
    if args.fmt == "ascii":
        text = mask.to_ascii() + "\n"
    else:
        # The bytes of json.dumps(..., indent=2), without its slow pure-Python encoder.
        head = json.dumps({"dims": list(dims), "kind": args.kind}, indent=2)[:-2]
        rows = ",\n".join(f"    [\n      {i},\n      {j}\n    ]" for i, j in mask.pairs())
        text = f'{head},\n  "pairs": [\n{rows}\n  ]\n}}\n'
    _write(text, args.out)
    return 0


def _cmd_mems_curve(args) -> int:
    m = _merge_config(args)
    serialize = _serializer(m.get("fmt", "csv"), {"csv": _curve_csv})
    system = _parse_system(str(m.get("system", "2x2")))
    samples = _get(m, "samples", int, 500)
    _write(serialize(system, samples), _path(m, "out"))
    return 0


def _cmd_verify(args) -> int:
    """Fast invariant spot-checks; exits nonzero on any failure."""
    seed = args.seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    check("boundary anchors",
          abs(measures.mems_boundary_2x2(1 / 3)) <= 1e-12
          and abs(measures.mems_boundary_2x2(5 / 9) - 2 / 3) <= 1e-12
          and abs(measures.mems_boundary_2x2(1.0) - 1.0) <= 1e-12)
    masks = [(tgx.anti_x_mask(d).grid, tgx.tgx_mask(d).grid)
             for d in ((2, 2), (2, 3), (2, 2, 2), (3, 3))]
    check("mask partition", all(not np.any(a & t) and np.all(a | t) for a, t in masks))
    ok = True
    for k in range(10):
        res = convert.find_x_equivalent(states.random_mixed(4, 1 + k % 4, rng, (2, 2)))
        ok &= res.delta_c <= convert.DEFAULT_TOL_C and res.anti_x <= _ANTI_X_TOL
    check("x conversion sample", ok)
    u = tgx.meb_union_mask(
        tgx.meb_basis_2x3(states.PHI) + tgx.meb_basis_2x3(states.PSI), (2, 3))
    check("2x3 MEB union = TGX mask", u == tgx.tgx_mask((2, 3)))
    return 0 if all(ok for _, ok in checks) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "scatter": _cmd_scatter,
        "convert": _cmd_convert,
        "mask": _cmd_mask,
        "mems-curve": _cmd_mems_curve,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except XLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
