import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xlab
from xlab import _streams, cli


def _assert_numpy_streams(seed, block):
    rngs = _streams.generators(_streams.stream_words(seed, block))
    assert len(rngs) == len(block)
    for rng, i in zip(rngs, block):
        oracle = np.random.default_rng([seed, i])
        assert rng.bit_generator.state == oracle.bit_generator.state, (seed, i)
        assert rng.integers(0, 2**63, 3).tolist() == oracle.integers(0, 2**63, 3).tolist()
        assert rng.standard_normal(4).tolist() == oracle.standard_normal(4).tolist()


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3,
                                  # The entropy fills the pool, then runs 1 and 2 words past it.
                                  2**96 - 1, 2**96, 2**128 + 1])
def test_sample_rngs_match_numpy_default_rng(seed):
    for block in (range(0, 1), range(250, 260), range(2**32 - 3, 2**32)):
        _assert_numpy_streams(seed, block)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**260), st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_sample_rngs_match_numpy_default_rng_property(seed, start, size):
    _assert_numpy_streams(seed, range(start, min(start + size, 2**32)))


def test_sample_rng_words_serve_pcg64_only():
    words = _streams.generators(_streams.stream_words(5, range(1)))[0].bit_generator.seed_seq
    assert words.generate_state(4, np.uint64) is words.words
    for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError, match="only 4 uint64 words"):
            words.generate_state(n_words, dtype)


def _oracles(words):
    """numpy's own Generator on each row of seed words: the transcriptions' reference."""
    return _streams.generators(words)


# Rows with limbs of 0 and 2**64 - 1 run every carry of the 128-bit jump.
_WORD_ROWS = st.lists(st.lists(st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]),
                                         st.integers(0, 2**64 - 1)), min_size=4, max_size=4),
                      min_size=1, max_size=6)


@settings(deadline=None, max_examples=150)
@given(_WORD_ROWS, st.integers(1, 12))
def test_raw_words_match_pcg64_random_raw(rows, k):
    words = np.array(rows, dtype=np.uint64)
    raw = _streams.raw_words(words, k)
    assert raw.dtype == np.uint64 and raw.shape == (len(rows), k)
    assert raw.tolist() == [g.bit_generator.random_raw(k).tolist() for g in _oracles(words)]
    assert _streams.doubles(raw).tolist() == [g.random(k).tolist() for g in _oracles(words)]


@pytest.mark.parametrize("n", [4, 6])
def test_lemire_ranks_match_generator_integers(n):
    words = _streams.stream_words(17, range(10_000))
    gens = {}
    ranks = _streams.lemire(_streams.raw_words(words, 1)[:, 0], n, words, gens)
    assert ranks.tolist() == [g.integers(1, n + 1) for g in _oracles(words)]
    assert gens == {} and set(ranks.tolist()) == set(range(1, n + 1))


def _words_with_first_state(state, w2, w3):
    """Seed words whose PCG64 holds the 128-bit `state` at its first output."""
    mult, inc = _streams._PCG_MULT, (w2 << 65 | w3 << 1 | 1) % 2**128
    jump, total = mult**2 % 2**128, (1 + mult + mult**2) % 2**128
    seed = (state - total * inc) * pow(jump, -1, 2**128) % 2**128
    return [seed >> 64, seed % 2**64, w2, w3]


@pytest.mark.parametrize("n", [4, 6])
def test_lemire_rejected_row_draws_on_a_generator(n):
    # State 0 outputs word 0, whose halves numpy's Lemire step rejects at
    # n = 6 (twice, so the rank comes from the second word); n = 4 never rejects.
    words = np.array([_words_with_first_state(0, 5, 2**64 - 1)] + _streams.stream_words(
        3, range(5)).tolist(), dtype=np.uint64)
    raw = _streams.raw_words(words, 2)
    assert raw[0, 0] == 0
    gens = {}
    assert (_streams.lemire(raw[:, 0], n, words, gens).tolist()
            == [g.integers(1, n + 1) for g in _oracles(words)])
    assert list(gens) == ([0] if n == 6 else [])
    if n == 6:
        oracle = _oracles(words[:1])[0]
        oracle.integers(1, 7)
        assert gens[0].random(5).tolist() == oracle.random(5).tolist()


@pytest.mark.parametrize("n", [4, 6])
def test_random_raw_rank_leaves_standard_normal_unchanged(n):
    # general_block draws a rank from random_raw(), where numpy draws
    # integers(1, n + 1); standard_normal reads whole words after either.
    words = _streams.stream_words(23, range(50))
    for i, g in enumerate(_oracles(words)):
        oracle = np.random.default_rng([23, i])
        raw = np.array([g.bit_generator.random_raw()], dtype=np.uint64)
        assert _streams.lemire(raw, n, words[i:i + 1], {}).tolist() == [oracle.integers(1, n + 1)]
        assert g.standard_normal(8).tolist() == oracle.standard_normal(8).tolist()


# Every name that moved out of `cli`, under its `cli` name.
_MOVED = ["_INIT_A", "_MULT_A", "_INIT_B", "_MULT_B", "_MIX_L", "_MIX_R", "_hash_consts",
          "_hashmix", "_mix", "_Words", "_stream_words", "_sample_rngs", "_PCG_MULT", "_LOW32",
          "_jump_consts", "_mulhi", "_raw_words", "_doubles", "_lemire_threshold", "_lemire",
          "_general_block", "_draw_rank_block", "_X_SCALE", "PCG64", "Generator",
          "ISeedSequence"]


def test_streams_stand_apart_from_the_cli():
    src = str(Path(xlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", "import sys, xlab._streams; "
                           "print('xlab.cli' in sys.modules)"],
                          capture_output=True, text=True, cwd=src)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
    assert [name for name in _MOVED if hasattr(cli, name)] == []
