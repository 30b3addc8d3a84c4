"""The four benchmark workloads: how each chunk is built and checked.

A run measures a sequence of chunks.  Each chunk is one process that runs
a fixed number of steps; a step is one fixed-size `xlab` command (for
`mask-sweep`, the two mask commands of each of a few dims tuples).  The
inputs come only from the workload seed and the chunk and step number.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass

import checks


@dataclass(frozen=True)
class Step:
    argvs: tuple         # `xlab.cli.main` argument lists, run back to back
    samples: int         # samples the step completes when it succeeds
    outputs: tuple       # files the step writes, in digest order


@dataclass(frozen=True)
class Chunk:
    """One process: a machine-speed probe before the first step and after each."""
    steps: tuple
    ok_codes: tuple = (0,)

    @property
    def samples(self) -> int:
        return sum(s.samples for s in self.steps)

    @property
    def outputs(self) -> tuple:
        return tuple(out for s in self.steps for out in s.outputs)


def _chunk_seeds(name: str, seed):
    rng = random.Random(f"{name}/{seed}")
    while True:
        yield rng.randrange(2 ** 31)


class Workload:
    name = ""
    why = ""
    step_samples = 0  # samples per step
    steps = 8  # steps per chunk
    setup_seed = 0  # CLI seed of the set-up input
    ok_codes = (0,)

    def chunks(self, seed: int, workdir: str):
        """Endless chunk sequence for `seed`, writing under `workdir`."""
        seeds = _chunk_seeds(self.name, seed)
        for j in itertools.count():
            prefix = os.path.join(workdir, f"c{j:03d}")
            yield Chunk(tuple(self.step(next(seeds), self.step_samples, f"{prefix}-{k}")
                              for k in range(self.steps)), self.ok_codes)

    def setup_chunk(self, workdir: str) -> Chunk:
        """The same command at the smallest input, as a one-step chunk.

        The input is the same for every workload seed, so that set-up time
        does not carry the seed-to-seed spread of one sample's work.
        """
        return Chunk((self.step(self.setup_seed, 1, os.path.join(workdir, "setup")),),
                     self.ok_codes)

    def step(self, cli_seed: int, samples: int, prefix: str) -> Step:
        raise NotImplementedError

    def check(self, step: Step, texts: list):
        """Return (failed samples, first reason or None) for a finished step."""
        raise NotImplementedError


class Scatter2x2(Workload):
    name = "scatter-2x2"
    why = ("Ginibre 2x2 states of rank 1-4: the 4x4 concurrence/sqrt_psd/eigh "
           "and rank() path, no convert or tgx; stacked kernels show here")
    step_samples = 500

    def step(self, cli_seed, samples, prefix):
        out = prefix + ".csv"
        return Step((("scatter", "--system", "2x2", "--family", "general",
                      "--threads", "1", "--samples", str(samples),
                      "--seed", str(cli_seed), "--out", out),), samples, (out,))

    def check(self, step, texts):
        return checks.scatter_csv(texts[0], step.samples, 4, "general", boundary=True)


class Scatter2x3(Workload):
    name = "scatter-2x3"
    why = ("TGX 2x3 constructors with rank retries, 6x6 negativity, the 2-thread pool, "
           "JSON+SVG emit and the lazy boundary table; the only pooled workload")
    step_samples = 250

    def step(self, cli_seed, samples, prefix):
        out, plot = prefix + ".json", prefix + ".svg"
        return Step((("scatter", "--system", "2x3", "--family", "tgx",
                      "--threads", "2", "--format", "json",
                      "--samples", str(samples), "--seed", str(cli_seed),
                      "--out", out, "--plot", plot),), samples, (out, plot))

    def check(self, step, texts):
        failed, reason = checks.scatter_json(texts[0], step.samples, 6, "tgx",
                                             boundary=False)
        svg_failed, svg_reason = checks.scatter_svg(texts[1], step.samples)
        return min(step.samples, failed + svg_failed), reason or svg_reason


class Convert(Workload):
    name = "convert"
    why = ("consecutive X-conversion search at default tol and budget: scalar "
           "concurrence/eigh per candidate; the closed form shows here only")
    step_samples = 4
    # One state's search takes from one to several hundred candidates, so
    # fresh states for every seed would differ in cost by 20% a run.  Every
    # chunk instead converts the same corpus of `steps` CLI seeds, drawn from
    # one fixed stream, in a seed-dependent order.
    steps = 20
    # Sample 0 of CLI seed 2 converts at the first candidate, so set-up is
    # start-up plus one candidate rather than a search of up to ~500.
    setup_seed = 2
    # Exit code 2 means some rows report success=0; the check counts them.
    ok_codes = (0, 2)
    TOL_C = 1e-3  # the CLI's default --tol

    def chunks(self, seed, workdir):
        corpus = list(itertools.islice(_chunk_seeds(self.name, "corpus"), self.steps))
        rng = random.Random(f"{self.name}/{seed}")
        for j in itertools.count():
            rng.shuffle(corpus)
            prefix = os.path.join(workdir, f"c{j:03d}")
            yield Chunk(tuple(self.step(cli_seed, self.step_samples, f"{prefix}-{k}")
                              for k, cli_seed in enumerate(corpus)), self.ok_codes)

    def step(self, cli_seed, samples, prefix):
        out = prefix + ".csv"
        return Step((("convert", "--threads", "1", "--samples", str(samples),
                      "--seed", str(cli_seed), "--out", out),), samples, (out,))

    def check(self, step, texts):
        return checks.campaign_csv(texts[0], step.samples, self.TOL_C)


# Every ordered dims tuple of 2-7 subsystems of dimension 2-5 with n <= 128.
MASK_GRID = sorted(
    (d for k in range(2, 8) for d in itertools.product(range(2, 6), repeat=k)
     if math.prod(d) <= 128),
    key=lambda d: (math.prod(d), d))


class MaskSweep(Workload):
    name = "mask-sweep"
    why = ("in-process `xlab mask` anti+tgx JSON over 320 dims tuples up to n=128: "
           "the only workload where tgx mask construction does the work")
    CHUNKS = 8
    step_samples = len(MASK_GRID) // CHUNKS // Workload.steps

    def chunks(self, seed, workdir):
        # Deal the size-sorted grid so that every chunk gets one tuple of each
        # run of CHUNKS similar sizes: chunks cost the same whatever the seed.
        rng = random.Random(f"{self.name}/{seed}")
        parts = [[] for _ in range(self.CHUNKS)]
        for start in range(0, len(MASK_GRID), self.CHUNKS):
            stratum = MASK_GRID[start:start + self.CHUNKS]
            rng.shuffle(stratum)
            for part, dims in zip(parts, stratum):
                part.append(dims)
        for part in parts:
            rng.shuffle(part)
        n = self.step_samples
        for j in itertools.count():
            part, prefix = parts[j % self.CHUNKS], os.path.join(workdir, f"c{j:03d}")
            yield Chunk(tuple(self._step(part[k:k + n], f"{prefix}-{k // n}")
                              for k in range(0, len(part), n)))

    def setup_chunk(self, workdir):
        return Chunk((self._step([MASK_GRID[0]], os.path.join(workdir, "setup")),))

    def _step(self, dims_list, prefix):
        argvs, outputs = [], []
        for i, dims in enumerate(dims_list):
            for kind in ("anti", "tgx"):
                out = f"{prefix}-{i}-{kind}.json"
                argvs.append(("mask", "--system", "x".join(map(str, dims)), "--kind", kind,
                              "--format", "json", "--out", out))
                outputs.append(out)
        return Step(tuple(argvs), len(dims_list), tuple(outputs))

    def check(self, step, texts):
        failed, first = 0, None
        for i in range(step.samples):
            dims = tuple(int(d) for d in step.argvs[2 * i][2].split("x"))
            ok, reason = checks.mask_pair(texts[2 * i], texts[2 * i + 1], dims)
            if not ok:
                failed += 1
                first = first or reason
        return failed, first


WORKLOADS = {w.name: w for w in (Scatter2x2(), Scatter2x3(), Convert(), MaskSweep())}
