"""Seeded sample streams: sample i draws from the stream np.random.default_rng([seed, i]) starts.

`stream_words` and `raw_words` transcribe numpy's SeedSequence and PCG64 so that a block's
streams are seeded and read at once, and `checks` and the tests check each against numpy.  A
stream depends on (seed, index) alone, so any blocking of the samples draws the same states.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from . import states
from .errors import ConfigError

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


def stream_words(seed: int, block: range) -> np.ndarray:
    """The (len(block), 4) uint64 words from which PCG64 seeds the stream
    that np.random.default_rng([seed, index]) starts, one row per index in
    `block` (indices < 2**32).

    A plain transcription of numpy's SeedSequence (pool of 4 words) on
    (k, len(block)) uint32 rows, one column per index.
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


def generators(words: np.ndarray, skip: int = 0) -> list:
    """One Generator per row of `stream_words`, past its stream's first `skip` raw words, for
    the draws that the raw words cannot give: standard_normal's ziggurat tables are not
    transcribed."""
    bitgens = map(PCG64, map(_Words, words))
    return list(map(Generator, (b.advance(skip) for b in bitgens) if skip else bitgens))


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


def raw_words(words: np.ndarray, k: int) -> np.ndarray:
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


def doubles(raw: np.ndarray) -> np.ndarray:
    """Generator.random's double of each raw word (numpy's next_double)."""
    return (raw >> 11) * 2.0**-53


def _lemire_threshold(n: int) -> int:
    """numpy's Lemire step rejects a product whose low 32 bits fall below this."""
    return (2**32 - n) % n


def lemire(raw: np.ndarray, n: int, words: np.ndarray, gens) -> np.ndarray:
    """Generator.integers(1, n + 1) of each stream whose first raw word is
    `raw`: 1 + (low 32 bits of the word) * n >> 32, numpy's Lemire step.

    numpy would redraw a rejected row from the word's buffered high half; such
    a row (about 1e-9 of them at n = 6) instead draws its rank on a fresh
    Generator from its `words`, which goes to gens[row] in place of its stream.
    """
    m = (raw & _LOW32) * np.uint64(n)
    ranks = (m >> 32).astype(np.int64) + 1
    for j in ((m & _LOW32) < _lemire_threshold(n)).nonzero()[0].tolist():
        gens[j], = generators(words[j:j + 1])
        ranks[j] = gens[j].integers(1, n + 1)
    return ranks


def general_block(words: np.ndarray, system: tuple, rank: int | None) -> tuple:
    """Ginibre states of `system` drawn on `generators(words)`, their ranks and factors.

    A rank not fixed by `rank` comes from the stream's first raw word through
    `lemire`, as integers() draws it; integers() would also keep the word's
    other 32-bit half, which standard_normal never reads.
    """
    n, rngs = math.prod(system), generators(words)
    R = [rank] * len(rngs) if rank else lemire(
        np.array([g.bit_generator.random_raw() for g in rngs], dtype=np.uint64),
        n, words, rngs).tolist()
    rho, factors = states._random_factored(n, R, rngs, system)
    return rho, R, factors


def rank_block(words: np.ndarray, family, rank: int | None, name: str) -> tuple:
    """The rank-specific states of `family` from the streams of `words`, and their ranks.

    Each sample draws its rank (unless `rank` fixes it), then R thetas and R - 1 probability
    angles as one `random(2R - 1) * pi/2` from its own stream, and draws again, up to 64
    tries, while its numerical rank falls short, as it does when a used probability is 0.
    The first round reads every stream's leading words at once from `raw_words`; a row that
    `lemire` hands to a Generator, and every retried row, draws on a Generator at its
    stream's position.  Each round fills a zero (rows, 2K) thetas|angles buffer in one masked
    assignment.  `name` is the family's name in the error raised after 64 tries.
    """
    K = len(family.lo)  # the family's top rank, n, which lemire draws up to
    used, gens = int(not rank), {}  # words a rank takes; rows drawn on a Generator
    raw = raw_words(words, used + 2 * K - 1)
    R = np.full(len(words), rank) if rank else lemire(raw[:, 0], K, words, gens)
    u = doubles(raw[:, used:])
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
            return states.DensityMatrix(mats, family.dims), R
        for j in set(todo.tolist()) - gens.keys():  # past the rank and first round
            gens[j], = generators(words[j:j + 1], used + 2 * int(R[j]) - 1)
        u = np.concatenate([gens[j].random(2 * r - 1)
                            for j, r in zip(todo.tolist(), R[todo].tolist())])
    raise ConfigError(f"could not draw a rank-{R[todo[0]]} {name} state after 64 tries")


# uniform()'s scales of an `x` sample's 3 + 4 angles and 4 phases (no rank); the first and
# third phases scale by 0, the minimal 9-parameter form, and keep their words in the stream.
_X_SCALE = np.array([math.pi / 2.0] * 7 + [0.0, 2.0 * math.pi] * 2)


def x_block(words: np.ndarray):
    """The general X states drawn from the first 11 raw words of the streams of `words`."""
    u = doubles(raw_words(words, 11)) * _X_SCALE
    return states.general_x_state(states.XParams(u[:, :3], u[:, 3:7], u[:, 7:]))


def checks(seed: int) -> list:
    """`xlab verify`'s (name, ok) rows that check each transcription against numpy."""
    # stream_words transcribes a numpy internal; this catches numpy changing it.
    streams = all(r.bit_generator.state == np.random.default_rng([seed, i]).bit_generator.state
                  for i, r in enumerate(generators(stream_words(seed, range(3)))))
    # raw_words, doubles and lemire transcribe PCG64 and two Generator draws,
    # on streams and on rows whose 128-bit arithmetic carries through every limb.
    words = np.vstack([stream_words(seed, range(6)), np.uint64([[0] * 4, [2**64 - 1] * 4])])
    raw = raw_words(words, 12)
    raw_ok = (raw.tolist() == [g.bit_generator.random_raw(12).tolist() for g in generators(words)]
              and doubles(raw).tolist() == [g.random(12).tolist() for g in generators(words)]
              and all(lemire(raw[:, 0], n, words, {}).tolist()
                      == [g.integers(1, n + 1) for g in generators(words)] for n in (4, 6)))
    return [("sample streams", streams), ("raw stream words", raw_ok)]
