"""Output-correctness checks for the benchmark workloads.

Each check takes the text a CLI run wrote and returns the number of failed
samples (at most the number expected) together with a short reason for the
first failure.  The checks use their own closed forms and reference
constructions, not xlab's, so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TOL = 1e-9
SCATTER_FIELDS = ["entanglement", "purity", "rank", "family", "sample_index"]
CAMPAIGN_FIELDS = ["sample_index", "rank", "purity", "input_concurrence",
                   "output_concurrence", "attempts", "delta_c", "anti_x", "success"]


def mems_boundary_2x2(P: float) -> float:
    """Largest two-qubit concurrence at purity P (Munro-James-White-Kwiat MEMS)."""
    if P <= 1.0 / 3.0:
        return 0.0
    if P <= 5.0 / 9.0:
        return math.sqrt(2.0 * (P - 1.0 / 3.0))
    return (1.0 + math.sqrt(2.0 * P - 1.0)) / 2.0


class Tally:
    """Collects per-sample verdicts for indices 0..expected-1."""

    def __init__(self, expected: int):
        self.expected = expected
        self.good = set()
        self.reason = None
        self._last = -1

    def fail(self, reason: str):
        if self.reason is None:
            self.reason = reason

    def row(self, index, ok: bool, reason: str):
        """Record one row; rows must arrive in strictly increasing index order."""
        if not isinstance(index, int) or not 0 <= index < self.expected:
            self.fail(f"sample_index {index!r} out of range")
        elif index <= self._last:
            self.fail(f"sample_index {index} out of order or repeated")
        elif not ok:
            self._last = index
            self.fail(f"sample {index}: {reason}")
        else:
            self._last = index
            self.good.add(index)

    def result(self):
        failed = self.expected - len(self.good)
        if failed and self.reason is None:
            self.reason = f"{failed} samples missing"
        return failed, self.reason


def _scatter_row_ok(e, p, rank, family, n, want_family, boundary):
    if family != want_family:
        return False, f"family {family!r} != {want_family!r}"
    if not 1.0 / n - TOL <= p <= 1.0 + TOL:
        return False, f"purity {p!r} outside [1/{n}, 1]"
    if not isinstance(rank, int) or not 1 <= rank <= n:
        return False, f"rank {rank!r} outside 1..{n}"
    if not -TOL <= e <= 1.0 + TOL:
        return False, f"entanglement {e!r} outside [0, 1]"
    if boundary and e > mems_boundary_2x2(p) + TOL:
        return False, f"entanglement {e!r} above the MEMS boundary at purity {p!r}"
    return True, ""


def scatter_csv(text: str, expected: int, n: int, family: str, boundary: bool):
    """Check `xlab scatter` CSV output."""
    tally = Tally(expected)
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != SCATTER_FIELDS:
        tally.fail("bad CSV header")
        return tally.result()
    for cells in reader:
        try:
            e, p, rank, fam, idx = (float(cells[0]), float(cells[1]), int(cells[2]),
                                    cells[3], int(cells[4]))
        except (ValueError, IndexError):
            tally.fail(f"unparsable row {cells!r}")
            continue
        tally.row(idx, *_scatter_row_ok(e, p, rank, fam, n, family, boundary))
    return tally.result()


def scatter_json(text: str, expected: int, n: int, family: str, boundary: bool):
    """Check `xlab scatter --format json` output."""
    tally = Tally(expected)
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        tally.fail(f"invalid JSON: {exc}")
        return tally.result()
    if not isinstance(rows, list):
        tally.fail("JSON output is not a list")
        return tally.result()
    for row in rows:
        if not isinstance(row, dict) or sorted(row) != sorted(SCATTER_FIELDS):
            tally.fail(f"bad record {row!r}")
            continue
        try:
            e, p = float(row["entanglement"]), float(row["purity"])
        except (TypeError, ValueError):
            tally.fail(f"non-numeric record {row!r}")
            continue
        tally.row(row["sample_index"],
                  *_scatter_row_ok(e, p, row["rank"], row["family"], n, family, boundary))
    return tally.result()


def scatter_svg(text: str, expected: int):
    """An SVG scatter must hold one circle per sample."""
    circles = text.count("<circle ")
    if not text.rstrip().endswith("</svg>"):
        return expected, "SVG is truncated"
    if circles != expected:
        return min(expected, abs(circles - expected)), f"{circles} circles for {expected} samples"
    return 0, None


def campaign_csv(text: str, expected: int, tol_c: float, anti_x_tol: float = 1e-10):
    """Check `xlab convert` CSV output: every row converted within tolerance."""
    tally = Tally(expected)
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != CAMPAIGN_FIELDS:
        tally.fail("bad CSV header")
        return tally.result()
    for cells in reader:
        try:
            idx, rank = int(cells[0]), int(cells[1])
            purity, delta_c, anti_x = float(cells[2]), float(cells[6]), float(cells[7])
            success = cells[8]
        except (ValueError, IndexError):
            tally.fail(f"unparsable row {cells!r}")
            continue
        if success != "1":
            ok, why = False, "conversion failed"
        elif not 1 <= rank <= 4:
            ok, why = False, f"rank {rank} outside 1..4"
        elif not 0.25 - TOL <= purity <= 1.0 + TOL:
            ok, why = False, f"purity {purity!r} outside [1/4, 1]"
        elif not 0.0 <= delta_c <= tol_c:
            ok, why = False, f"|dC| {delta_c!r} above tol {tol_c}"
        elif not 0.0 <= anti_x <= anti_x_tol:
            ok, why = False, f"anti-X {anti_x!r} above {anti_x_tol}"
        else:
            ok, why = True, ""
        tally.row(idx, ok, why)
    return tally.result()


def anti_x_reference(dims) -> np.ndarray:
    """Boolean n x n anti-X mask: mixed-radix digits differ in exactly one place."""
    n = math.prod(dims)
    digits = np.stack(np.unravel_index(np.arange(n), dims), axis=1)
    return (digits[:, None, :] != digits[None, :, :]).sum(axis=2) == 1


def _mask_array(text: str, dims, kind: str) -> np.ndarray:
    doc = json.loads(text)
    if doc.get("dims") != list(dims) or doc.get("kind") != kind:
        raise ValueError(f"header {doc.get('dims')}/{doc.get('kind')} != {list(dims)}/{kind}")
    n = math.prod(dims)
    pairs = np.asarray(doc["pairs"], dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("position out of range")
    out = np.zeros((n, n), dtype=bool)
    out[pairs[:, 0], pairs[:, 1]] = True
    if np.count_nonzero(out) != len(pairs):
        raise ValueError("repeated position")
    return out


def mask_pair(anti_text: str, tgx_text: str, dims):
    """Check one dims tuple of the mask sweep; returns (ok, reason)."""
    dims = tuple(dims)
    try:
        anti = _mask_array(anti_text, dims, "anti")
        tgx = _mask_array(tgx_text, dims, "tgx")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return False, f"{dims}: unreadable mask ({exc})"
    n = math.prod(dims)
    if not (np.array_equal(anti, anti.T) and np.array_equal(tgx, tgx.T)):
        return False, f"{dims}: mask not symmetric"
    if np.any(anti & tgx):
        return False, f"{dims}: anti and TGX masks overlap"
    if not np.all(anti | tgx):
        return False, f"{dims}: anti and TGX masks leave positions uncovered"
    if np.count_nonzero(anti) != n * sum(d - 1 for d in dims):
        return False, f"{dims}: {np.count_nonzero(anti)} anti pairs, expected n*sum(d-1)"
    if not np.array_equal(anti, anti_x_reference(dims)):
        return False, f"{dims}: anti mask differs from the digit rule"
    return True, None
