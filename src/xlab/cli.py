"""Seeded Monte Carlo experiment harness and command-line interface.

Subcommands: `scatter` (entanglement-purity samples of a state family),
`convert` (consecutive X-conversion campaign), `mask` (TGX/anti-X element
masks), `mems-curve` (boundary curves), `verify` (fast invariant checks).

Sample i draws from its own stream, the one np.random.default_rng([seed, i])
starts: `_stream_words` and `_raw_words` transcribe numpy's SeedSequence and
PCG64 so that a block's streams are seeded and read at once, and the tests and
`verify` check each transcription against numpy.  `run_scatter` builds each
block of `_sample_blocks` with one call of its family's stacked builder and
measures it with its system's stacked measure (a `general` 2x2 block from its
drawn factors, an `x`, `mems` or `h` 2x2 block by the X-state closed form), as
`run_conversion_campaign` converts its blocks, so output is byte-identical for
any block size; the grid families (`mems`, `h`) draw no streams.  `_SYSTEMS`
and `_FAMILIES` hold one row per system and per family: a new system's facts
are a row, as are a rank family's; any other new family also needs a branch
in `_build_block`.  Every evenly spaced axis is `_axis`, so `scatter --family
mems --samples N` and `mems-curve --samples N` share their purities bit for
bit.  `--threads` is validated but has no effect.  `main` is every command's
one pipeline: `_parse` reads argv into strings by `_COMMANDS`, which writes
each command's flags, choices and config defaults once; `_merge_config` lays
them over the config file (null or empty is the default); the frozen
ExperimentConfig converts (`_convert` by `_KINDS`) and checks each value,
whichever source gave it; `_option` checks the format, the handler its own
values, and `_write`, the one writer of data output besides `--plot`, writes
the handler's text.  So bad input is one ConfigError line before any work,
config values checked first.
"""

from __future__ import annotations

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


def _concurrence(rho, factors):
    """Each state's concurrence: from its factor in `states._ginibre`'s (rows, F) list if
    given, else in closed form (`measures.concurrence_x`), which rejects a state not X."""
    if factors is None:
        return measures.concurrence_x(rho)
    C = np.empty(len(rho.mat))
    for rows, F in factors:
        C[rows] = measures.factor_concurrence(F)
    return C


# One row per system: its entanglement measure of (states, factors or None), its X converter
# or None, and its MEMS builder and boundary.  A function is looked up when called, so a
# wrapper put on it (bench/spans.py's) sees the call.
_System = namedtuple("_System", "measure convert mems boundary")
_SYSTEMS = {
    (2, 2): _System(_concurrence, lambda rho: convert.find_x_equivalent(rho),
                    states.mems_2x2, lambda P: measures.mems_boundary_2x2(P)),
    (2, 3): _System(lambda rho, factors: measures.negativity_e(rho), None,
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
# uniform()'s scales of an `x` sample's 3 + 4 angles and 4 phases (no --rank); the first and
# third phases scale by 0, the minimal 9-parameter form, and keep their words in the stream.
_X_SCALE = np.array([math.pi / 2.0] * 7 + [0.0, 2.0 * math.pi] * 2)


SampleRecord = namedtuple("SampleRecord", "entanglement purity rank family sample_index")
SampleRecord.__doc__ = "One scatter sample: entanglement/purity plus provenance."


@dataclass(frozen=True)
class ExperimentConfig:
    """An immutable experiment, converted by `_KINDS` and checked once, at construction."""

    system: tuple = (2, 2)
    family: str = "general"
    rank: int | None = None
    samples: int = 10_000
    seed: int = 0
    tol: float = convert.DEFAULT_TOL_C
    threads: int = 1

    def __post_init__(self):
        for f in _FIELDS:
            value = _convert(f.name, getattr(self, f.name), _KINDS[f.name])
            object.__setattr__(self, f.name, f.default if value is None else value)
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


_FIELDS = fields(ExperimentConfig)  # built once: `fields` rebuilds its tuple on every call


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
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
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
    for j in ((m & _LOW32) < _lemire_threshold(n)).nonzero()[0].tolist():
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
    """Ginibre states drawn on Generators from `words`, their ranks and their factors.

    A rank not fixed by --rank comes from the stream's first raw word through
    `_lemire`, as integers() draws it; integers() would also keep the word's
    other 32-bit half, which standard_normal never reads.
    """
    n, rngs = math.prod(cfg.system), _sample_rngs(words)
    R = [cfg.rank] * len(rngs) if cfg.rank else _lemire(
        np.array([g.bit_generator.random_raw() for g in rngs], dtype=np.uint64),
        n, words, rngs).tolist()
    rho, factors = states._random_factored(n, R, rngs, cfg.system)
    return rho, R, factors


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
    stacked builder, their ranks if the builder checked them, else None, and
    the `general` draws' factors (`_general_block`), else None.
    `mems` walks purities from 1/n to 1, `h` a side x side grid of
    concurrences, each with purities from its `h_purity_floor` to 1 (`_axis`)."""
    fam, index, factors = cfg.family, np.arange(block.start, block.stop), None
    if _FAMILIES[fam].ranks is not None and (fam != "x" or cfg.rank is not None):
        return (*_draw_rank_block(cfg, _FAMILIES[fam].ranks, words), None)
    if fam == "general":
        batch, _, factors = _general_block(cfg, words)
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
    return batch, None, factors


def run_scatter(cfg: ExperimentConfig) -> list:
    """Draw, measure, and record `samples` states of the configured family."""
    records, system = [], _SYSTEMS[cfg.system]
    for block, words in _sample_blocks(cfg):
        batch, ranks, factors = _build_block(cfg, block, words)
        ranks = batch.rank() if ranks is None else ranks
        records += map(SampleRecord, system.measure(batch, factors).tolist(),
                       measures.purity(batch).tolist(), ranks.tolist(),
                       [cfg.family] * len(block), block)
    return records


CampaignRecord = namedtuple("CampaignRecord", "sample_index rank purity input_concurrence "
                            "output_concurrence attempts delta_c anti_x success")
CampaignRecord.__doc__ = "Per-sample conversion outcome."


CampaignSummary = namedtuple("CampaignSummary", "samples successes max_delta_c max_anti_x records")
CampaignSummary.__doc__ = "A conversion campaign's counts and worst residuals, then its records."


def run_conversion_campaign(cfg: ExperimentConfig) -> CampaignSummary:
    """Convert `samples` consecutive random two-qubit states to X form, a
    stacked block of `_BLOCK` states per call of the system's converter."""
    if cfg.family != "general" or _SYSTEMS[cfg.system].convert is None:
        raise ConfigError(f"convert draws general 2x2 states, not {cfg.family} "
                          f"{'x'.join(map(str, cfg.system))}")
    records = []
    for block, words in _sample_blocks(cfg):
        rho, ranks, _ = _general_block(cfg, words)
        res = _SYSTEMS[cfg.system].convert(rho)
        ok = (res.delta_c <= cfg.tol) & (res.anti_x <= linalg.ANTI_X_TOL)
        records += map(CampaignRecord, block, ranks, measures.purity(rho).tolist(),
                       res.input_concurrence.tolist(), res.output_concurrence.tolist(),
                       [res.attempts] * len(block), res.delta_c.tolist(),
                       res.anti_x.tolist(), ok.tolist())
    return CampaignSummary(len(records), sum(r.success for r in records),
                           max(r.delta_c for r in records), max(r.anti_x for r in records),
                           records)


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
    """json.dumps({"dims", "kind", "pairs": mask.pairs()}, indent=2) + "\n" as one "".join of
    the head, each matrix row's lead and its column names (joined from a Python list, which
    str.join reads faster than an object array) and the tail; no row is empty (tgx holds the
    diagonal, anti sum(d - 1) >= 1 entries)."""
    nums = np.array(list(map(str, range(mask.n))), dtype=object)
    parts = [json.dumps({"dims": list(dims), "kind": kind}, indent=2)[:-2], ',\n  "pairs": [\n']
    for i, row in enumerate(mask.grid):
        lead = f"    [\n      {i},\n      "
        parts += lead, ("\n    ],\n" + lead).join(nums[row].tolist()), "\n    ],\n"
    parts[-1] = "\n    ]\n  ]\n}\n"
    return "".join(parts)


def _curve(system, m: int) -> tuple:
    """m purities evenly spaced from 1/n to 1 (`_axis`), and `system`'s MEMS boundary at each."""
    P = _axis(1.0 / math.prod(system), np.arange(m), m - 1)
    return P, _SYSTEMS[system].boundary(P)


def _svg_points(system, template: str, p, e) -> str:
    """`template` formatted with each (purity, entanglement)'s 640x480 plot coordinates."""
    p_min = 1.0 / math.prod(system)
    return "".join(map(template.format, (50 + (p - p_min) / (1.0 - p_min) * 540).tolist(),
                       (430 - e * 380).tolist()))


@functools.cache
def _svg_head(system: tuple) -> str:
    """The SVG's opening through the MEMS boundary polyline of `system`."""
    pts = _svg_points(system, "{:.2f},{:.2f} ", *_curve(system, 500))
    return ('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480">\n'
            '<rect width="640" height="480" fill="white"/>\n<polyline fill="none" '
            f'stroke="black" stroke-width="1.5" points="{pts[:-1]}"/>\n')


def _scatter_svg(records, system) -> str:
    """Standalone SVG scatter with the MEMS boundary polyline overlaid."""
    p, e = np.array([(r.purity, r.entanglement) for r in records]).T
    dot = '<circle cx="{:.2f}" cy="{:.2f}" r="1.5" fill="steelblue" fill-opacity="0.5"/>\n'
    return _svg_head(tuple(system)) + _svg_points(system, dot, p, e) + "</svg>\n"


def _given(value) -> bool:
    """False for None and the empty string, which mean the default wherever a value is read."""
    return not (value is None or isinstance(value, str) and not value)


def _option(command: str, flag: str, value) -> str:
    """`value` of `command`'s `flag` if it is one of the flag's choices, their first (the
    default) if it is not `_given`, else a ConfigError."""
    options = _COMMANDS[command].flags[flag]
    return linalg.member(value if _given(value) else options[0], options,
                         f"{flag} must be one of {', '.join(options)}, got {{!r}}", ConfigError)


def _write(text: str, path=None) -> None:
    """Write `text` to the file at `path`, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_output(records, fmt=None, plot=None, system=(2, 2)) -> str:
    """Serialize scatter records in `fmt` (None or empty: `scatter`'s default, CSV), and
    write an SVG scatter plot to `plot` when given.  Returns the serialized text."""
    records = list(records)
    if not records:
        raise ConfigError("no records to emit")
    json_out = _option("scatter", "format", fmt) == "json"
    text = _records_json(records) if json_out else _csv(records[0]._fields, records)
    if plot:
        _write(_scatter_svg(records, _parse_system(system)), plot)
    return text


# Most states `xlab mask` takes: it builds an n x n int8 count and bool grid, 2 TB at 1000x1000.
_MASK_MAX_N = 1024
# Most points `xlab mems-curve` takes: a million rows peak near 360 MB, 2**32 would need TBs.
_CURVE_MAX_N = 1_000_000


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
          "family": functools.partial(_option, "scatter", "family"),
          "rank": int, "samples": int, "seed": int, "tol": float, "threads": int}


def _flag(word: str, flags) -> str | None:
    """The name in ("help", *flags) that `word` gives, "" for another --word, None for a value."""
    key = "help" if word == "-h" else word[2:].partition("=")[0] if word[:2] == "--" else None
    match = [f for f in ("help", *flags) if key and f.startswith(key)]
    if len(match) > 1 and key not in match:
        raise ConfigError(f"ambiguous option: {word} could match --{', --'.join(match)}")
    return key if key is None or key in match else "".join(match)


def _parse(argv: list) -> dict:
    """argv as {"command", then one key per flag of its `_COMMANDS` row, the flag's name: the
    last value given or None}; a value follows "=" or is the next word unless -h or a --word."""
    cmd = argv[0] if argv and argv[0] in _COMMANDS else None
    flags, extras = _COMMANDS[cmd].flags if cmd else {}, []
    args = {"command": cmd, **dict.fromkeys(flags)}
    words = iter([(w, _flag(w, flags)) for w in (argv[bool(cmd):] if argv else [""])])
    for word, flag in words:  # every word is classified first, as argparse does
        if flag == "help":  # the commands, or the flags with their choices or help lines
            rows = {"--" + f: "{%s}" % ",".join(s) if type(s) is tuple else s or ""
                    for f, s in flags.items()} or {n: c.help for n, c in _COMMANDS.items()}
            print(f"usage: xlab {cmd or 'COMMAND'} [-h] [--FLAG VALUE ...]",
                  *(f"  {k:<11} {v}".rstrip() for k, v in rows.items()), sep="\n")
            raise SystemExit(0)
        if not cmd:  # there is no first word, or it is neither a command nor -h
            raise ConfigError(f"argument command: invalid choice: {word!r} (choose from "
                              f"{str(tuple(_COMMANDS))[1:-1]})" if argv else
                              "the following arguments are required: command")
        if not flag:
            extras.append(word)
            continue
        value, kind = (word.partition("=")[2], None) if "=" in word else next(words, (0, 0))
        if kind is not None:
            raise ConfigError(f"argument --{flag}: expected one argument")
        args[flag] = value
    if extras:
        raise ConfigError("unrecognized arguments: " + " ".join(extras))
    return args


def _merge_config(args) -> dict:
    """JSON config file values (if any) under explicit flags, less null and empty values."""
    merged = {}
    if args.get("config"):
        try:
            with open(args["config"], encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
            raise ConfigError(f"cannot read config file {args['config']}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - (set(args) - {"command", "config"}))
        if unknown:
            raise ConfigError(f"unknown config key(s) for {args['command']}: {', '.join(unknown)}")
        merged.update(loaded)
    merged.update((key, val) for key, val in args.items() if val is not None)
    merged = {key: val for key, val in merged.items()  # null or empty: the default
              if key not in ("command", "config") and _given(val)}
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
    if not _given(value):
        return None
    try:
        if (isinstance(value, bool) and kind in (int, float)) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from None


def _experiment(m: dict, row) -> ExperimentConfig:
    """The ExperimentConfig of `_merge_config` options `m` for command `row`: each field from its
    flag, else the config, else (threads) XLAB_THREADS, else the row's defaults or the default."""
    given = {key: m[key] for key in _KINDS if key in m}
    if "threads" not in given and "threads" in row.flags:
        given["threads"] = _convert("XLAB_THREADS", os.environ.get("XLAB_THREADS"), int)
    return ExperimentConfig(**{**row.defaults, **given})


def _cmd_scatter(cfg, m, fmt) -> tuple:
    return emit_output(run_scatter(cfg), fmt, m.get("plot"), cfg.system), 0


def _cmd_convert(cfg, m, fmt) -> tuple:
    s = run_conversion_campaign(cfg)
    text = _campaign_json(s) if fmt == "json" else _csv(CampaignRecord._fields, s.records)
    return text, 0 if s.successes == s.samples else 2


def _cmd_mask(cfg, m, fmt) -> tuple:
    kind, system = _option("mask", "kind", m.get("kind")), m.get("system", "2x2")
    dims = _parse_dims(system)
    if math.prod(dims) > _MASK_MAX_N:
        raise ConfigError(f"mask system {system} has {math.prod(dims)} states; "
                          f"the limit is {_MASK_MAX_N}")
    mask = tgx.tgx_mask(dims) if kind == "tgx" else tgx.anti_x_mask(dims)
    return mask.to_ascii() + "\n" if fmt == "ascii" else _mask_json(mask, dims, kind), 0


def _cmd_mems_curve(cfg, m, fmt) -> tuple:
    if cfg.samples > _CURVE_MAX_N:
        raise ConfigError(f"mems-curve takes at most {_CURVE_MAX_N} samples, got {cfg.samples}")
    P, E = _curve(cfg.system, cfg.samples)
    return _csv(("purity", "entanglement"), zip(P.tolist(), E.tolist())), 0


def _cmd_verify(cfg, m, fmt) -> tuple:
    """Fast invariant spot-checks, one PASS or FAIL line each; exits nonzero on any failure."""
    rng = np.random.default_rng(cfg.seed)
    lines = []

    def check(name, ok):
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}\n")

    check("boundary anchors", np.all(abs(measures.mems_boundary_2x2(np.array([1 / 3, 5 / 9, 1.0]))
                                         - [0.0, 2 / 3, 1.0]) <= 1e-12))
    masks = [(tgx.anti_x_mask(d).grid, tgx.tgx_mask(d).grid)
             for d in ((2, 2), (2, 3), (2, 2, 2), (3, 3))]
    check("mask partition", all(not np.any(a & t) and np.all(a | t) for a, t in masks))
    res = convert.find_x_equivalent(
        states.random_mixed(4, 1 + np.arange(10) % 4, [rng] * 10, (2, 2)))
    ok = np.all(res.delta_c <= convert.DEFAULT_TOL_C) and np.all(res.anti_x <= linalg.ANTI_X_TOL)
    check("x conversion sample", ok)
    # This catches numpy or LAPACK moving the general scatter's factor route off concurrence.
    rho, _, factors = _general_block(cfg, _stream_words(cfg.seed, range(_BLOCK)))
    check("wootters factor", np.all(abs(_concurrence(rho, factors)
                                        - measures.concurrence(rho)) <= 1e-12))
    u = tgx.meb_union_mask(
        tgx.meb_basis_2x3(states.PHI) + tgx.meb_basis_2x3(states.PSI), (2, 3))
    check("2x3 MEB union = TGX mask", u == tgx.tgx_mask((2, 3)))
    # _stream_words transcribes a numpy internal; this catches numpy changing it.
    check("sample streams", all(
        r.bit_generator.state == np.random.default_rng([cfg.seed, i]).bit_generator.state
        for i, r in enumerate(_sample_rngs(_stream_words(cfg.seed, range(3))))))
    # _raw_words, _doubles and _lemire transcribe PCG64 and two Generator draws,
    # on streams and on rows whose 128-bit arithmetic carries through every limb.
    words = np.vstack([_stream_words(cfg.seed, range(6)), np.uint64([[0] * 4, [2**64 - 1] * 4])])
    raw = _raw_words(words, 12)
    check("raw stream words",
          raw.tolist() == [g.bit_generator.random_raw(12).tolist() for g in _sample_rngs(words)]
          and _doubles(raw).tolist() == [g.random(12).tolist() for g in _sample_rngs(words)]
          and all(_lemire(raw[:, 0], n, words, {}).tolist()
                  == [g.integers(1, n + 1) for g in _sample_rngs(words)] for n in (4, 6)))
    # _records_json and _mask_json copy json's formatting; this catches json changing it.
    recs = [SampleRecord(x, -0.0, 2**70, 'a, "\\\u00e9', 0) for x in (0.1, math.nan, -math.inf)]
    # An anti mask of 105 states, so the indices cross 100, and a TGX mask's dense rows.
    written = [(tgx.anti_x_mask((3, 5, 7)), (3, 5, 7), "anti"),
               (tgx.tgx_mask((2, 3, 5)), (2, 3, 5), "tgx")]
    check("json writer",
          _records_json(recs) == json.dumps([r._asdict() for r in recs], indent=2) + "\n"
          and all(_mask_json(mask, d, k) == json.dumps(
              {"dims": list(d), "kind": k, "pairs": mask.pairs()}, indent=2) + "\n"
              for mask, d, k in written))
    # rank_states adds each term's 2x2 block with np.add.at; this catches numpy
    # changing that add or the norm against a dense sum of each term's projector.
    fam, R = states.TGX_RANK, 1 + np.arange(60) % 6
    first, u = np.arange(6) < R[:, None], np.arange(660).reshape(60, 11) * 0.618 % 1.5
    thetas, probs = u[:, :6] * first, states.hyperspherical_probs(u[:, 6:] * first[:, 1:])
    kets = states._theta_kets(6, fam.lo[R - 1], fam.hi[R - 1], thetas, fam.phase[R - 1])
    dense = sum(probs[:, k, None, None] * states._projectors(kets[:, k]) for k in range(6))
    check("rank-state mixer",
          states.rank_states(fam, R, thetas, probs)[0].mat.tobytes() == dense.tobytes())
    return "".join(lines), 0 if all(line[:4] == "PASS" for line in lines) else 1


# Per command: handler, -h line, flags (-h text, None or choices, default first), config defaults.
_Command = namedtuple("_Command", "run help flags defaults")
_SEEDED = {"samples": None, "seed": None, "threads": None, "out": None}
_RECORD_FORMATS = ("csv", "json")
_CONFIG = {"config": "JSON file with flag defaults"}
_COMMANDS = {
    "scatter": _Command(_cmd_scatter, "sample a state family and record (E, P)", {
        "system": None, "family": tuple(_FAMILIES), "rank": None,
        "plot": "write an SVG scatter here", **_SEEDED, "format": _RECORD_FORMATS, **_CONFIG}, {}),
    "convert": _Command(_cmd_convert, "consecutive X-conversion campaign", {
        "rank": None, "tol": "largest |dC| that counts as a successful conversion",
        **_SEEDED, "format": _RECORD_FORMATS, **_CONFIG}, {"samples": 100}),
    "mask": _Command(_cmd_mask, "print the TGX / anti-X element masks", {
        "system": f"dims, e.g. 2x3 or 2x2x2, at most {_MASK_MAX_N} states",
        "kind": ("tgx", "anti"), "format": ("ascii", "json"), "out": None}, None),
    "mems-curve": _Command(_cmd_mems_curve, "tabulate the MEMS boundary curve", {
        "system": None, "samples": f"points on the curve, at most {_CURVE_MAX_N}", "out": None,
        "format": ("csv",), **_CONFIG}, {"samples": 500}),
    "verify": _Command(_cmd_verify, "run fast invariant checks", {"seed": None}, {}),
}


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        row, m = _COMMANDS[args["command"]], _merge_config(args)
        cfg = None if row.defaults is None else _experiment(m, row)
        fmt = _option(args["command"], "format", m.get("format")) if "format" in row.flags else None
        text, code = row.run(cfg, m, fmt)
        _write(text, m.get("out"))
        return code
    except (XLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ConfigError, OSError)) else 2


if __name__ == "__main__":
    sys.exit(main())
