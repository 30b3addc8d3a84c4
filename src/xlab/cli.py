"""Seeded Monte Carlo experiment harness and command-line interface.

Subcommands: `scatter` (entanglement-purity samples of a state family),
`convert` (consecutive X-conversion campaign), `mask` (TGX/anti-X element
masks), `mems-curve` (boundary curves), `verify` (fast invariant checks).

Sample i draws from its own stream, the one np.random.default_rng([seed, i])
starts: `_stream_words` and `_raw_words` transcribe numpy's SeedSequence and
PCG64 so that a block's streams are seeded and read at once, and the tests and
`verify` check each transcription against numpy.  `run_scatter` builds each
block of `_sample_blocks` with one call of its family's stacked builder and
measures it with its system's stacked measure, as `run_conversion_campaign`
converts its blocks, so output is byte-identical for any block size; the grid
families (`mems`, `h`) draw no streams.  `_SYSTEMS` and `_FAMILIES` hold one
row per system and per family: a new one's facts are a row.  Every evenly
spaced axis is `_axis`, so `scatter --family mems --samples N` and
`mems-curve --samples N` share their purities bit for bit.  `--threads` is
validated but has no effect.  The parser, built once per process, only splits
argv into strings; the frozen ExperimentConfig converts (`_convert` by
`_KINDS`) and checks every value at construction, whether a flag, a config
file, XLAB_THREADS or a Python caller gave it, so bad input ends as the same
one-line ConfigError.  `_write` is the one writer of data output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from . import convert, linalg, measures, states, tgx
from .errors import ConfigError, DimensionError, XLabError

# One row per system: its entanglement measure, whether that takes the block's eig_hermitian
# (the ranks then reuse it), its X converter or None, and its MEMS builder and boundary.  A
# function is looked up when called, so a wrapper put on it (bench/spans.py's) sees the call.
_System = namedtuple("_System", "measure eig convert mems boundary")
_SYSTEMS = {
    (2, 2): _System(lambda rho, es: measures.concurrence(rho, es), True,
                    lambda rho: convert.find_x_equivalent(rho),
                    states.mems_2x2, lambda P: measures.mems_boundary_2x2(P)),
    (2, 3): _System(lambda rho, es: measures.negativity_e(rho), False, None,
                    states.mems_2x3, lambda P: measures.mems_boundary_2x3(P)),
}
# One row per family: its one system or None, its rank table (`x` uses it only with --rank),
# and whether its states lie on a grid over the sample index and draw nothing.
_Family = namedtuple("_Family", "system ranks grid")
_FAMILIES = {"general": _Family(None, None, False), "x": _Family((2, 2), states.RANK_X, False),
             "lx": _Family((2, 3), states.LX_RANK, False),
             "tgx": _Family((2, 3), states.TGX_RANK, False),
             "mems": _Family(None, None, True), "h": _Family((2, 2), None, True)}
# Samples per stacked draw and measurement in run_scatter: enough to amortise
# numpy's per-call overhead, few enough to keep temporaries small.
_BLOCK = 256
# uniform()'s scales of an `x` sample's 3 + 4 angles and 4 phases (no --rank).
_X_SCALE = np.array([math.pi / 2.0] * 7 + [2.0 * math.pi] * 4)


SampleRecord = namedtuple("SampleRecord", "entanglement purity rank family sample_index")
SampleRecord.__doc__ = "One scatter sample: entanglement/purity plus provenance."


@dataclass(frozen=True)
class ExperimentConfig:
    """An immutable experiment; the constructor converts each value by `_KINDS`, then validates."""

    system: tuple = (2, 2)
    family: str = "general"
    rank: int | None = None
    samples: int = 10_000
    seed: int = 0
    tol: float = convert.DEFAULT_TOL_C
    threads: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = _convert(f.name, getattr(self, f.name), _KINDS[f.name])
            object.__setattr__(self, f.name, f.default if value is None else value)
        self.validate()

    def validate(self) -> "ExperimentConfig":
        """Check each converted field's range and the fields against each other; return self."""
        if not 1 <= self.samples <= 2**32:
            # Sample indices must fit in one 32-bit seed word (see _stream_words).
            raise ConfigError(f"samples must be in 1..2**32, got {self.samples}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.rank is not None and not 1 <= self.rank <= math.prod(self.system):
            raise ConfigError(f"rank {self.rank} invalid for system {list(self.system)}")
        fam = _FAMILIES[self.family]
        if self.rank is not None and fam.grid:
            raise ConfigError(f"family {self.family!r} takes no rank")
        if fam.system not in (None, self.system):
            raise ConfigError("family %r requires system %dx%d" % (self.family, *fam.system))
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ConfigError(f"tol must be finite and >= 0, got {self.tol}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        return self


# numpy's SeedSequence constants for its default pool of 4 words.  Hash
# call k xors a word with init * mult**k and multiplies it by
# init * mult**(k + 1); all arithmetic is mod 2**32.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.cache
def _hash_consts(calls: range, init: int, mult: int) -> tuple:
    """The xor and multiply constants of hash calls `calls`, as columns."""
    a = np.array([init * pow(mult, k, 2**32) % 2**32
                  for k in range(calls.start, calls.stop + 1)], dtype=np.uint32)[:, None]
    a.flags.writeable = False  # shared by every call through the cache
    return a[:-1], a[1:]


def _hashmix(words: np.ndarray, calls: range, init=_INIT_A, mult=_MULT_A) -> np.ndarray:
    """SeedSequence's hash of `words` by hash calls `calls`, one call per row
    of the result; `words` broadcasts against the calls."""
    xor, mul = _hash_consts(calls, init, mult)
    h = words ^ xor
    h *= mul
    h ^= h >> 16
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of x with y."""
    m = x * _MIX_L - y * _MIX_R
    m ^= m >> 16
    return m


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 four precomputed uint64 words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only 4 uint64 words are stored, not {n_words} {np.dtype(dtype)}")
        return self.words


def _stream_words(seed: int, block: range) -> np.ndarray:
    """The (len(block), 4) uint64 words from which PCG64 seeds the stream
    that np.random.default_rng([seed, index]) starts, one row per index in
    `block` (indices < 2**32).

    A plain transcription of numpy's SeedSequence (pool of 4 words) on
    (k, len(block)) uint32 rows, one column per index.  A stream depends on
    (seed, index) alone, so any blocking of the samples draws the same states.
    """
    # entropy[k] is word k of each sample's entropy: the seed's little-endian
    # 32-bit words, then the index, then zeros up to the pool size.
    n_words = max(-(-seed.bit_length() // 32), 1)
    entropy = np.zeros((max(n_words + 1, 4), len(block)), dtype=np.uint32)
    entropy[:n_words] = np.frombuffer(seed.to_bytes(4 * n_words, "little"), "<u4")[:, None]
    entropy[n_words] = np.arange(block.start, block.stop, block.step)
    pool = _hashmix(entropy[:4], range(4))
    # Each source word's 3 hashes mix into the other words in ascending order.
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], range(4 + 3 * src, 7 + 3 * src)))
    # Each entropy word past the pool mixes into every pool word.
    for k, word in enumerate(entropy[4:]):
        pool = _mix(pool, _hashmix(word, range(16 + 4 * k, 20 + 4 * k)))
    # The 8 output calls cycle the pool twice; sample b's output words are
    # one C-contiguous run, read as 4 little-endian uint64s.
    state = np.empty((len(block), 8), dtype="<u4")
    state.T[:] = _hashmix(np.concatenate([pool, pool]), range(8), _INIT_B, _MULT_B)
    return state.view("<u8").astype(np.uint64, copy=False)


def _sample_rngs(words: np.ndarray) -> list:
    """One Generator per row of `_stream_words`, for the draws that the raw
    words cannot give: standard_normal's ziggurat tables are not transcribed."""
    return [Generator(PCG64(_Words(row))) for row in words]


# numpy's 128-bit PCG64 multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(0xFFFFFFFF)


@functools.cache
def _jump_consts(k: int) -> np.ndarray:
    """Rows hi(A), lo(A), hi(B), lo(B) with columns j = 1..k, where
    A = MULT**(j + 1) and B = MULT**0 + ... + MULT**(j + 1), mod 2**128."""
    power, total, cols = _PCG_MULT, 1 + _PCG_MULT, []
    for _ in range(k):
        power = power * _PCG_MULT % 2**128
        total = (total + power) % 2**128
        cols.append((power >> 64, power % 2**64, total >> 64, total % 2**64))
    c = np.array(cols, dtype=np.uint64).T.copy()
    c.flags.writeable = False  # shared by every call through the cache
    return c


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each uint64 product a * b, from 32-bit halves."""
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    t = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (t >> 32) + ((t & _LOW32) + a0 * b1 >> 32)


def _raw_words(words: np.ndarray, k: int) -> np.ndarray:
    """The first k outputs, (B, k) uint64, of the PCG64 that seeds itself
    from each row of `words`: numpy's random_raw(k), for every stream at once.

    PCG64 takes state s = (w0, w1) and increment c = 2(w2, w3) + 1 as 128-bit
    numbers, steps s -> MULT s + c twice around adding s (pcg64_set_seed), and
    steps before each output, so output j reads state A s + B c (`_jump_consts`),
    computed on uint64 halves, and emits its XSL-RR: hi ^ lo rotated right by
    the top 6 bits.
    """
    a_hi, a_lo, b_hi, b_lo = _jump_consts(k)
    w = words[:, :, None]
    s_hi, s_lo = w[:, 0], w[:, 1]
    c_hi, c_lo = w[:, 2] << 1 | w[:, 3] >> 63, w[:, 3] << 1 | 1
    lo_s = a_lo * s_lo
    lo = lo_s + b_lo * c_lo
    hi = (_mulhi(a_lo, s_lo) + a_hi * s_lo + a_lo * s_hi + _mulhi(b_lo, c_lo)
          + b_hi * c_lo + b_lo * c_hi + (lo < lo_s))
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (-rot & 63)


def _doubles(raw: np.ndarray) -> np.ndarray:
    """Generator.random's double of each raw word (numpy's next_double)."""
    return (raw >> 11) * 2.0**-53


def _lemire_threshold(n: int) -> int:
    """numpy's Lemire step rejects a product whose low 32 bits fall below this."""
    return (2**32 - n) % n


def _lemire(raw: np.ndarray, n: int, words: np.ndarray, gens) -> np.ndarray:
    """Generator.integers(1, n + 1) of each stream whose first raw word is
    `raw`: 1 + (low 32 bits of the word) * n >> 32, numpy's Lemire step.

    numpy would redraw a rejected row from the word's buffered high half; such
    a row (about 1e-9 of them at n = 6) instead draws its rank on a fresh
    Generator from its `words`, which goes to gens[row] in place of its stream.
    """
    m = (raw & _LOW32) * np.uint64(n)
    ranks = (m >> 32).astype(np.int64) + 1
    for j in np.flatnonzero((m & _LOW32) < _lemire_threshold(n)).tolist():
        gens[j] = Generator(PCG64(_Words(words[j])))
        ranks[j] = gens[j].integers(1, n + 1)
    return ranks


def _sample_blocks(cfg: ExperimentConfig):
    """(block, words) for each block of `_BLOCK` consecutive sample indices:
    words holds each sample's `_stream_words` row, or is None for a grid
    family, whose states depend on the sample index alone."""
    for lo in range(0, cfg.samples, _BLOCK):
        block = range(lo, min(lo + _BLOCK, cfg.samples))
        yield block, None if _FAMILIES[cfg.family].grid else _stream_words(cfg.seed, block)


def _general_block(cfg: ExperimentConfig, words: np.ndarray) -> tuple:
    """Ginibre states drawn on Generators from `words`, and their ranks.

    A rank not fixed by --rank comes from the stream's first raw word through
    `_lemire`, as integers() draws it; integers() would also keep the word's
    other 32-bit half, which standard_normal never reads.
    """
    n, rngs = math.prod(cfg.system), _sample_rngs(words)
    R = [cfg.rank] * len(rngs) if cfg.rank else _lemire(
        np.array([g.bit_generator.random_raw() for g in rngs], dtype=np.uint64),
        n, words, rngs).tolist()
    return states.random_mixed(n, R, rngs, cfg.system), R


def _draw_rank_block(cfg: ExperimentConfig, family, words: np.ndarray):
    """The rank-specific states drawn from the streams of `words` as one
    stack, and their ranks.

    Each sample draws its rank (unless --rank fixes it), then R thetas and
    R - 1 probability angles as one `random(2R - 1) * pi/2` from its own
    stream, and draws again, up to 64 tries, while its numerical rank falls
    short, as it does when a used probability is 0.  The first round reads
    every stream's leading words at once from `_raw_words`; a row that
    `_lemire` hands to a Generator, and every retried row, draws on a
    Generator at its stream's position.  Each round fills a zero (rows, 2K)
    thetas|angles buffer in one masked assignment.
    """
    K = len(family.lo)  # the family's top rank, n, which _lemire draws up to
    used, gens = int(not cfg.rank), {}  # words a rank takes; rows drawn on a Generator
    raw = _raw_words(words, used + 2 * K - 1)
    R = np.full(len(words), cfg.rank) if cfg.rank else _lemire(raw[:, 0], K, words, gens)
    u = _doubles(raw[:, used:])
    for j, g in gens.items():
        u[j, :2 * R[j] - 1] = g.random(2 * R[j] - 1)
    u, cols = u[np.arange(2 * K - 1) < 2 * R[:, None] - 1], np.arange(2 * K)
    mats = np.empty((len(R),) + (math.prod(family.dims),) * 2, dtype=complex)
    todo = np.arange(len(R))
    for _ in range(64):
        # A row of rank r fills its first r thetas and its first r - 1 angles.
        buf = np.zeros((len(todo), 2 * K))
        buf[cols % K < R[todo, None] - (cols >= K)] = u * (math.pi / 2.0)
        probs = states.hyperspherical_probs(buf[:, K:-1])
        rho, ranks = states.rank_states(family, R[todo], buf[:, :K], probs)
        mats[todo] = rho.mat
        todo = todo[ranks != R[todo]]
        if not todo.size:
            return states.DensityMatrix(mats, cfg.system), R
        for j in set(todo.tolist()) - gens.keys():  # past the rank and first round
            gens[j] = Generator(PCG64(_Words(words[j])).advance(used + 2 * int(R[j]) - 1))
        u = np.concatenate([gens[j].random(2 * r - 1)
                            for j, r in zip(todo.tolist(), R[todo].tolist())])
    raise ConfigError(f"could not draw a rank-{R[todo[0]]} {cfg.family} state after 64 tries")


def _axis(lo, k, m: int):
    """Point k (an int or an array) of m + 1 evenly spaced from lo to 1, as
    lo + (1 - lo) * k / m left to right; a one-point axis (m = 0) is lo."""
    return lo + (1.0 - lo) * k / max(m, 1)


def _build_block(cfg: ExperimentConfig, block: range, words):
    """The states of `block` as one stack from one call of the family's
    stacked builder, and their ranks if the builder checked them, else None.
    `mems` walks purities from 1/n to 1, `h` a side x side grid of
    concurrences, each with purities from its `h_purity_floor` to 1 (`_axis`)."""
    fam, index = cfg.family, np.arange(block.start, block.stop)
    if _FAMILIES[fam].ranks is not None and (fam != "x" or cfg.rank is not None):
        return _draw_rank_block(cfg, _FAMILIES[fam].ranks, words)
    if fam == "general":
        batch = _general_block(cfg, words)[0]
    elif fam == "x":
        u = _doubles(_raw_words(words, 11)) * _X_SCALE
        batch = states.general_x_state(states.XParams(u[:, :3], u[:, 3:7], u[:, 7:]))
    elif fam == "mems":
        P = _axis(1.0 / math.prod(cfg.system), index, cfg.samples - 1)
        batch = _SYSTEMS[cfg.system].mems(P)
    else:
        side = max(math.ceil(math.sqrt(cfg.samples)), 2)
        C = _axis(0.0, index % side, side - 1)
        P = _axis(states.h_purity_floor(C), (index // side) % side, side - 1)
        batch = states.h_state(C, np.minimum(P, 1.0))
    return batch, None


def run_scatter(cfg: ExperimentConfig) -> list:
    """Draw, measure, and record `samples` states of the configured family."""
    records, system = [], _SYSTEMS[cfg.system]
    for block, words in _sample_blocks(cfg):
        batch, ranks = _build_block(cfg, block, words)
        es = linalg.eig_hermitian(batch.mat) if system.eig else None
        ranks = batch.rank(es=es) if ranks is None else ranks
        records += map(SampleRecord, system.measure(batch, es).tolist(),
                       measures.purity(batch).tolist(), ranks.tolist(),
                       [cfg.family] * len(block), block)
    return records


CampaignRecord = namedtuple("CampaignRecord", "sample_index rank purity input_concurrence "
                            "output_concurrence attempts delta_c anti_x success")
CampaignRecord.__doc__ = "Per-sample conversion outcome."


class CampaignSummary(namedtuple("CampaignSummary",
                                 "samples successes max_delta_c max_anti_x records")):
    """A conversion campaign's counts and worst residuals, then its records."""

    __slots__ = ()

    @property
    def all_succeeded(self) -> bool:
        return self.successes == self.samples


def run_conversion_campaign(cfg: ExperimentConfig) -> CampaignSummary:
    """Convert `samples` consecutive random two-qubit states to X form, a
    stacked block of `_BLOCK` states per call of the system's converter."""
    if cfg.family != "general" or _SYSTEMS[cfg.system].convert is None:
        raise ConfigError(f"convert draws general 2x2 states, not {cfg.family} "
                          f"{'x'.join(map(str, cfg.system))}")
    records = []
    for block, words in _sample_blocks(cfg):
        rho, ranks = _general_block(cfg, words)
        res = _SYSTEMS[cfg.system].convert(rho)
        ok = (res.delta_c <= cfg.tol) & (res.anti_x <= linalg.ANTI_X_TOL)
        records += map(CampaignRecord, block, ranks, measures.purity(rho).tolist(),
                       res.input_concurrence.tolist(), res.output_concurrence.tolist(),
                       [res.attempts] * len(block), res.delta_c.tolist(),
                       res.anti_x.tolist(), ok.tolist())
    return CampaignSummary(len(records), sum(r.success for r in records),
                           max(r.delta_c for r in records), max(r.anti_x for r in records),
                           records)


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
    """CSV of namedtuple records, one column per field in field order."""
    return _csv(records[0]._fields, records)


def _records_json(records, level: int = 1) -> str:
    """json.dumps([r._asdict() for r in records], indent=2) + "\n" for namedtuple
    records at nesting `level`: one C-encoder call per column of scalars, split at
    its raw newline separator (which no encoded value holds), and a template per record."""
    pad = "  " * level
    fields = ",\n".join(f"{pad}  {json.dumps(k)}: {{}}" for k in records[0]._fields)
    cols = (json.dumps(col, separators=("\n", ":"))[1:-1].split("\n") for col in zip(*records))
    rows = map(f"{pad}{{{{\n{fields}\n{pad}}}}}".format, *cols)
    return "[\n" + ",\n".join(rows) + f"\n{pad[2:]}]\n"


def _campaign_json(summary: CampaignSummary) -> str:
    # The records come last in the summary, so their array ends the text.
    head = json.dumps({**summary._asdict(), "records": None}, indent=2)[:-len("null\n}")]
    return head + _records_json(summary.records, 2) + "}\n"


def _mask_json(mask, dims, kind: str) -> str:
    """json.dumps({"dims", "kind", "pairs": mask.pairs()}, indent=2) + "\n", one str.join
    per matrix row; no row is empty (tgx holds the diagonal, anti sum(d - 1) >= 1 entries)."""
    nums = np.array(list(map(str, range(mask.n))), dtype=object)
    rows = ",\n".join(lead + ("\n    ],\n" + lead).join(nums[row]) + "\n    ]" for lead, row
                      in zip((f"    [\n      {i},\n      " for i in range(mask.n)), mask.grid))
    head = json.dumps({"dims": list(dims), "kind": kind}, indent=2)[:-2]
    return f'{head},\n  "pairs": [\n{rows}\n  ]\n}}\n'


def _curve_csv(system, samples: int) -> str:
    P = _axis(1.0 / math.prod(system), np.arange(samples), samples - 1)
    return _csv(("purity", "entanglement"), zip(P.tolist(), _SYSTEMS[system].boundary(P).tolist()))


def _svg_points(system, template: str, p, e) -> str:
    """`template` formatted with each (purity, entanglement)'s 640x480 plot coordinates."""
    p_min = 1.0 / math.prod(system)
    return "".join(map(template.format, (50 + (p - p_min) / (1.0 - p_min) * 540).tolist(),
                       (430 - e * 380).tolist()))


@functools.cache
def _svg_head(system: tuple) -> str:
    """The SVG's opening through the MEMS boundary polyline of `system`."""
    ps = _axis(1.0 / math.prod(system), np.arange(500), 499)
    pts = _svg_points(system, "{:.2f},{:.2f} ", ps, _SYSTEMS[system].boundary(ps))
    return ('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480">\n'
            '<rect width="640" height="480" fill="white"/>\n<polyline fill="none" '
            f'stroke="black" stroke-width="1.5" points="{pts[:-1]}"/>\n')


def _scatter_svg(records, system) -> str:
    """Standalone SVG scatter with the MEMS boundary polyline overlaid."""
    p, e = np.array([(r.purity, r.entanglement) for r in records]).T
    dot = '<circle cx="{:.2f}" cy="{:.2f}" r="1.5" fill="steelblue" fill-opacity="0.5"/>\n'
    return _svg_head(tuple(system)) + _svg_points(system, dot, p, e) + "</svg>\n"


def _choice(what: str, value, options):
    """`value` if it is one of the strings `options`, else a ConfigError."""
    if not (isinstance(value, str) and value in options):
        raise ConfigError(f"{what} must be one of {', '.join(options)}, got {value!r}")
    return value


def _write(text: str, path=None) -> None:
    """Write `text` to the file at `path`, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_output(records, fmt: str = "csv", plot=None, system=(2, 2)) -> str:
    """Serialize scatter records, and write an SVG scatter plot to `plot`
    when given.  Returns the serialized text."""
    records = list(records)
    if not records:
        raise ConfigError("no records to emit")
    serialize = {"csv": _records_csv, "json": _records_json}
    text = serialize[_choice("format", fmt, serialize)](records)
    if plot:
        _write(_scatter_svg(records, _parse_system(system)), plot)
    return text


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

# Most states `xlab mask` takes: it builds an n x n int8 count and bool grid, 2 TB at 1000x1000.
_MASK_MAX_N = 1024


def _parse_dims(value) -> tuple:
    """Subsystem dims from text such as 2x3 or [2, 3], or from a list, tuple or array of ints."""
    try:
        if isinstance(value, (list, tuple, np.ndarray)):
            return tgx._check_dims(value)
        text = str(value).lower().replace("[", "").replace("]", "").replace(" ", "")
        return tgx._check_dims(int(d) for d in text.replace(",", "x").split("x"))
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse dims {value!r}") from None
    except DimensionError as exc:
        raise ConfigError(str(exc)) from None


def _parse_system(value) -> tuple:
    """`value` as dims by `_parse_dims`; a ConfigError unless `_SYSTEMS` holds them."""
    dims = _parse_dims(value)
    if dims not in _SYSTEMS:
        raise ConfigError(f"system must be {' or '.join(f'{a}x{b}' for a, b in _SYSTEMS)}, "
                          f"got {list(dims)}")
    return dims


# The converter of each ExperimentConfig field, whichever source gave its value.
_KINDS = {"system": _parse_system,
          "family": functools.partial(_choice, "family", options=_FAMILIES),
          "rank": int, "samples": int, "seed": int, "tol": float, "threads": int}


class _Parser(argparse.ArgumentParser):
    """Splits argv into option strings; a malformed command line is a ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(p, seeded: bool = True, formats: str = "{csv,json}"):
    p.add_argument("--samples")
    if seeded:
        p.add_argument("--seed")
        p.add_argument("--threads")
    p.add_argument("--out")
    p.add_argument("--format", dest="fmt", metavar=formats)
    p.add_argument("--config", help="JSON file with flag defaults")


@functools.cache
def _build_parser():
    # Built once per process: parse_args leaves the parser as it found it.
    # Every option is a string here; ExperimentConfig, _choice and _merge_config
    # convert and check them, as they do config file values.
    parser = _Parser(prog="xlab",
                     description="Entanglement-purity experiments on X-state structure")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scatter", help="sample a state family and record (E, P)")
    p.add_argument("--system")
    p.add_argument("--family", metavar="{" + ",".join(_FAMILIES) + "}")
    p.add_argument("--rank")
    p.add_argument("--plot", help="write an SVG scatter here")
    _add_common(p)

    p = sub.add_parser("convert", help="consecutive X-conversion campaign")
    p.add_argument("--rank")
    p.add_argument("--tol", help="largest |dC| that counts as a successful conversion")
    _add_common(p)

    p = sub.add_parser("mask", help="print the TGX / anti-X element masks")
    p.add_argument("--system", default="2x2",
                   help=f"dims, e.g. 2x3 or 2x2x2, at most {_MASK_MAX_N} states")
    p.add_argument("--kind", default="tgx", metavar="{tgx,anti}")
    p.add_argument("--format", dest="fmt", default="ascii", metavar="{ascii,json}")
    p.add_argument("--out")

    p = sub.add_parser("mems-curve", help="tabulate the MEMS boundary curve")
    p.add_argument("--system")
    _add_common(p, seeded=False, formats="{csv}")

    p = sub.add_parser("verify", help="run fast invariant checks")
    p.add_argument("--seed")
    return parser


def _merge_config(args) -> dict:
    """JSON config file values (if any) under explicit flags, less null and empty values."""
    merged = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - (set(vars(args)) - {"command", "config"}))
        if unknown:
            raise ConfigError(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
        merged.update(loaded)
    merged.update((key, val) for key, val in vars(args).items() if val is not None)
    merged = {key: val for key, val in merged.items()  # null or empty: the default
              if key not in ("command", "config") and val is not None and val != ""}
    for key in ("out", "plot"):  # open() would take any other type as a file descriptor
        if not isinstance(merged.get(key), (str, type(None))):
            raise ConfigError(f"{key} must be a path string, got {merged[key]!r}")
    return merged


def _convert(key: str, value, kind):
    """`value` of `key` converted by `kind`, or None when it is None or empty.

    A flag or XLAB_THREADS holds any string, a config file any JSON value and a
    Python caller any object, so one that `kind` cannot convert is a ConfigError,
    not a traceback.  A bool is not a number, and an int key takes no fraction.
    """
    if value is None or isinstance(value, str) and not value:
        return None
    try:
        if (isinstance(value, bool) and kind in (int, float)) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from None


def _experiment(args, **defaults) -> tuple:
    """The ExperimentConfig of a parsed command line, and its merged options:
    the one input path of `scatter`, `convert`, `mems-curve` and `verify`.
    Each field comes from its flag, else the config file, else (for threads)
    XLAB_THREADS, else `defaults` or ExperimentConfig's default.  The
    constructor converts and checks the raw value, as it does a Python
    caller's, so each source gives the same message for it."""
    m = _merge_config(args)
    given = {key: m[key] for key in _KINDS if key in m}
    if "threads" not in given and "threads" in vars(args):
        given["threads"] = _convert("XLAB_THREADS", os.environ.get("XLAB_THREADS"), int)
    return ExperimentConfig(**{**defaults, **given}), m


def _cmd_scatter(args) -> int:
    cfg, m = _experiment(args)
    _write(emit_output(run_scatter(cfg), fmt=m.get("fmt", "csv"), plot=m.get("plot"),
                       system=cfg.system), m.get("out"))
    return 0


def _cmd_convert(args) -> int:
    cfg, m = _experiment(args, samples=100)
    serialize = {"csv": lambda summary: _records_csv(summary.records), "json": _campaign_json}
    fmt = _choice("format", m.get("fmt", "csv"), serialize)
    summary = run_conversion_campaign(cfg)
    _write(serialize[fmt](summary), m.get("out"))
    return 0 if summary.all_succeeded else 2


def _cmd_mask(args) -> int:
    kind = _choice("kind", args.kind, ("tgx", "anti"))
    fmt = _choice("format", args.fmt, ("ascii", "json"))
    dims = _parse_dims(args.system)
    if math.prod(dims) > _MASK_MAX_N:
        raise ConfigError(f"mask system {args.system} has {math.prod(dims)} states; "
                          f"the limit is {_MASK_MAX_N}")
    mask = tgx.tgx_mask(dims) if kind == "tgx" else tgx.anti_x_mask(dims)
    _write(mask.to_ascii() + "\n" if fmt == "ascii" else _mask_json(mask, dims, kind), args.out)
    return 0


def _cmd_mems_curve(args) -> int:
    cfg, m = _experiment(args, samples=500)
    _choice("format", m.get("fmt", "csv"), ("csv",))
    _write(_curve_csv(cfg.system, cfg.samples), m.get("out"))
    return 0


def _cmd_verify(args) -> int:
    """Fast invariant spot-checks; exits nonzero on any failure."""
    seed = _experiment(args)[0].seed
    rng = np.random.default_rng(seed)
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    check("boundary anchors", np.all(abs(measures.mems_boundary_2x2(np.array([1 / 3, 5 / 9, 1.0]))
                                         - [0.0, 2 / 3, 1.0]) <= 1e-12))
    masks = [(tgx.anti_x_mask(d).grid, tgx.tgx_mask(d).grid)
             for d in ((2, 2), (2, 3), (2, 2, 2), (3, 3))]
    check("mask partition", all(not np.any(a & t) and np.all(a | t) for a, t in masks))
    res = convert.find_x_equivalent(
        states.random_mixed(4, 1 + np.arange(10) % 4, [rng] * 10, (2, 2)))
    ok = np.all(res.delta_c <= convert.DEFAULT_TOL_C) and np.all(res.anti_x <= linalg.ANTI_X_TOL)
    check("x conversion sample", ok)
    u = tgx.meb_union_mask(
        tgx.meb_basis_2x3(states.PHI) + tgx.meb_basis_2x3(states.PSI), (2, 3))
    check("2x3 MEB union = TGX mask", u == tgx.tgx_mask((2, 3)))
    # _stream_words transcribes a numpy internal; this catches numpy changing it.
    check("sample streams", all(
        r.bit_generator.state == np.random.default_rng([seed, i]).bit_generator.state
        for i, r in enumerate(_sample_rngs(_stream_words(seed, range(3))))))
    # _raw_words, _doubles and _lemire transcribe PCG64 and two Generator draws,
    # on streams and on rows whose 128-bit arithmetic carries through every limb.
    words = np.vstack([_stream_words(seed, range(6)), np.uint64([[0] * 4, [2**64 - 1] * 4])])
    raw = _raw_words(words, 12)
    check("raw stream words",
          raw.tolist() == [g.bit_generator.random_raw(12).tolist() for g in _sample_rngs(words)]
          and _doubles(raw).tolist() == [g.random(12).tolist() for g in _sample_rngs(words)]
          and all(_lemire(raw[:, 0], n, words, {}).tolist()
                  == [g.integers(1, n + 1) for g in _sample_rngs(words)] for n in (4, 6)))
    # _records_json and _mask_json copy json's formatting; this catches json changing it.
    recs = [SampleRecord(x, -0.0, 2**70, 'a, "\\\u00e9', 0) for x in (0.1, math.nan, -math.inf)]
    anti = tgx.anti_x_mask((3, 5, 7))  # 105 states, so the indices cross 100
    check("json writer",
          _records_json(recs) == json.dumps([r._asdict() for r in recs], indent=2) + "\n"
          and _mask_json(anti, (3, 5, 7), "anti") == json.dumps(
              {"dims": [3, 5, 7], "kind": "anti", "pairs": anti.pairs()}, indent=2) + "\n")
    # rank_states adds each term's 2x2 block with np.add.at; this catches numpy
    # changing that add or the norm against a dense sum of each term's projector.
    fam, R = states.TGX_RANK, 1 + np.arange(60) % 6
    first, u = np.arange(6) < R[:, None], np.arange(660).reshape(60, 11) * 0.618 % 1.5
    thetas, probs = u[:, :6] * first, states.hyperspherical_probs(u[:, 6:] * first[:, 1:])
    kets = states._theta_kets(6, fam.lo[R - 1], fam.hi[R - 1], thetas, fam.phase[R - 1])
    dense = sum(probs[:, k, None, None] * states._projectors(kets[:, k]) for k in range(6))
    check("rank-state mixer",
          states.rank_states(fam, R, thetas, probs)[0].mat.tobytes() == dense.tobytes())
    return 0 if all(ok for _, ok in checks) else 1


def main(argv=None) -> int:
    handlers = {"scatter": _cmd_scatter, "convert": _cmd_convert, "mask": _cmd_mask,
                "mems-curve": _cmd_mems_curve, "verify": _cmd_verify}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (XLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ConfigError, OSError)) else 2


if __name__ == "__main__":
    sys.exit(main())
