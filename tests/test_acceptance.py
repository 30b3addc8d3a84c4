"""End-to-end acceptance checks at full advertised scale.

Each test prints one PASS/FAIL summary line; tolerances and sample counts
are part of the package contract and must not be loosened.
"""

import math
import time

import numpy as np

from xlab import cli, convert, measures, states, tgx
from xlab.errors import DomainError
from xlab.states import DensityMatrix


def _report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _random_stacks(rng, dims, count=100_000, block=10_000):
    """`count` random_mixed states of random rank, drawn from `rng` in the
    order of a one-state-at-a-time loop (each state's rank, then its (2, n, r)
    normals), as stacks of `block` states built by random_mixed's own builder."""
    n = math.prod(dims)
    for _ in range(count // block):
        ranks, G = [], {}
        for _ in range(block):
            ranks.append(int(rng.integers(1, n + 1)))
            G.setdefault(ranks[-1], []).append(rng.standard_normal((2, n, ranks[-1])))
        G = {r: np.stack(draws) for r, draws in G.items()}
        yield DensityMatrix(states._ginibre(G, np.array(ranks), n), dims)


def test_random_stacks_first_block_equals_the_one_state_loop():
    for seed, dims in ((29, (2, 2)), (31, (2, 3))):
        n, rng, loop = math.prod(dims), np.random.default_rng(seed), np.random.default_rng(seed)
        block = next(_random_stacks(rng, dims)).mat
        want = np.stack([states.random_mixed(n, int(loop.integers(1, n + 1)), loop, dims).mat
                         for _ in range(len(block))])
        assert np.array_equal(block, want)
        assert rng.bit_generator.state == loop.bit_generator.state


# Upper ends of the uniform draws of a general X state: 3 probability and
# 4 superposition angles in [0, pi/2), then 4 phases in [0, 2 pi).  One
# (N, 11) draw takes the values of N successive draws of the three groups.
_X_HIGH = np.array([math.pi / 2] * 7 + [2 * math.pi] * 4)


def _x_params(u):
    """XParams of one X state per row of `u`, from its first 11 columns."""
    return states.XParams(u[:, :3], u[:, 3:7], u[:, 7:11])


def test_01_conversion_campaign_1000_consecutive():
    t0 = time.time()
    mats = []
    for k in range(1000):
        rng = np.random.default_rng([7, k])
        mats.append(states.random_mixed(4, int(rng.integers(1, 5)), rng, (2, 2)).mat)
    rho = DensityMatrix(np.stack(mats), (2, 2))
    res = convert.find_x_equivalent(rho)
    worst_dc, worst_ax = float(res.delta_c.max()), float(res.anti_x.max())
    worst_spec = float(np.max(np.abs(np.linalg.eigvalsh(res.converted.mat)
                                     - np.linalg.eigvalsh(rho.mat))))
    dt = time.time() - t0
    ok = worst_dc <= 1e-3 and worst_ax <= 1e-10 and worst_spec <= 1e-10 and dt < 300
    _report("01 conversion campaign", ok,
            f"1000/1000 converted, max |dC| {worst_dc:.2e}, max anti-X "
            f"{worst_ax:.2e}, max spectrum drift {worst_spec:.2e}, {dt:.0f}s")


def test_02_closed_form_rank2_1000():
    t0 = time.time()
    rng = np.random.default_rng(17)
    worst_norm = worst_dc = 0.0
    done = 0
    while done < 1000:
        R = int(rng.integers(1, 3))
        rho = states.random_mixed(4, R, rng, (2, 2))
        try:
            res = convert.closed_form_conversion(rho)
        except DomainError:
            # Rank-2 states whose (C, P) lies outside the closed-form
            # region have no rank-<=2 X target; find_x_equivalent handles those.
            continue
        done += 1
        C = measures.concurrence(rho)
        P = min(max(measures.purity(rho), 0.5 * (1 + C * C)), 1.0)
        target = convert.closed_form_x(C, P)
        worst_norm = max(worst_norm, float(np.max(np.abs(
            res.converted.mat - target.mat))))
        worst_dc = max(worst_dc, res.delta_c)
    dt = time.time() - t0
    ok = worst_norm <= 1e-9 and worst_dc <= 1e-10 and dt < 30
    _report("02 closed-form rank-<=2 conversion", ok,
            f"1000 states, max norm {worst_norm:.2e}, max |dC| {worst_dc:.2e}, "
            f"{dt:.1f}s")


def test_03_concurrence_oracle_equivalence_10k():
    t0 = time.time()
    rng = np.random.default_rng(23)
    r = states.general_x_state(_x_params(rng.uniform(0, _X_HIGH, (10_000, 11))))
    worst = float(np.max(np.abs(measures.concurrence(r) - measures.concurrence_x(r))))
    dt = time.time() - t0
    ok = worst <= 1e-9 and dt < 60
    _report("03 concurrence oracle equivalence", ok,
            f"10000 X states, max gap {worst:.2e}, {dt:.1f}s")


def test_04_mems_boundary_anchors_and_dominance_100k():
    t0 = time.time()
    anchors = (abs(measures.mems_boundary_2x2(1 / 3)) <= 1e-12
               and abs(measures.mems_boundary_2x2(5 / 9) - 2 / 3) <= 1e-12
               and abs(measures.mems_boundary_2x2(1.0) - 1.0) <= 1e-12)
    rng = np.random.default_rng(29)
    worst = -1.0
    for batch in _random_stacks(rng, (2, 2)):
        worst = max(worst, float(np.max(measures.concurrence(batch)
                                        - measures.mems_boundary_2x2(measures.purity(batch)))))
    dt = time.time() - t0
    ok = anchors and worst <= 1e-9 and dt < 120
    _report("04 MEMS boundary anchors + dominance", ok,
            f"anchors exact, worst violation {worst:.2e} over 1e5 states, {dt:.0f}s")


def test_05_tgx_mask_fixtures():
    fixtures = {
        (2, 2): {(1, 4), (2, 3)},
        (2, 3): {(1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 5)},
        (2, 2, 2): {(1, 4), (1, 6), (1, 7), (1, 8), (2, 3), (2, 5), (2, 7),
                    (2, 8), (3, 5), (3, 6), (3, 8), (4, 5), (4, 6), (4, 7),
                    (5, 8), (6, 7)},
        (3, 3): {(1, 5), (1, 6), (1, 8), (1, 9), (2, 4), (2, 6), (2, 7),
                 (2, 9), (3, 4), (3, 5), (3, 7), (3, 8), (4, 8), (4, 9),
                 (5, 7), (5, 9), (6, 7), (6, 8)},
    }
    ok = True
    for dims, upper in fixtures.items():
        got = {(i + 1, j + 1) for (i, j) in tgx.tgx_mask(dims).marked if i < j}
        ok &= got == upper
    _report("05 TGX mask fixtures", ok, "2x2, 2x3, 2x2x2, 3x3 bit-exact")


def test_06_meb_validations():
    u23 = tgx.meb_union_mask(
        tgx.meb_basis_2x3(states.PHI) + tgx.meb_basis_2x3(states.PSI), (2, 3))
    ok = u23.marked == tgx.tgx_mask((2, 3)).marked
    u222 = tgx.meb_union_mask(tgx.meb_basis_3qubit_pairs(), (2, 2, 2)).union(
        tgx.meb_union_mask(tgx.meb_basis_3qubit_quads(), (2, 2, 2)))
    ok &= u222.marked == tgx.tgx_mask((2, 2, 2)).marked
    c, resolves = tgx.basis_resolution(tgx.meb_basis_3x3_full())
    ok &= resolves and abs(c - 3.0 / 8.0) <= 1e-12
    _, single = tgx.basis_resolution(tgx.meb_basis_3x3(1, 1))
    ok &= not single
    _report("06 MEB validations", ok,
            f"unions match, 24-state factor {c:.6f}, single-sign not a resolution")


def test_07_2x3_measure_anchors():
    phi1 = states.meb_state_2x3(states.PHI, 1, math.pi / 4, 0.0)
    ok = abs(measures.negativity_e(phi1) - 1.0) <= 1e-12
    rng = np.random.default_rng(31)
    worst_prod = 0.0
    for _ in range(1000):
        a = states.random_mixed(2, 1, rng)
        b = states.random_mixed(3, 1, rng)
        prod = DensityMatrix(np.kron(a.mat, b.mat), (2, 3))
        worst_prod = max(worst_prod, measures.negativity_e(prod))
    ok &= worst_prod <= 1e-12
    worst_sep = 0.0
    for th in np.linspace(0, math.pi / 2, 25):
        for ph in (0.0, 0.9, 2.2, math.pi):
            worst_sep = max(worst_sep,
                            measures.negativity_e(states.l_state(2, float(th), ph)))
    ok &= worst_sep <= 1e-12
    worst_rt = 0.0
    for P in np.linspace(1 / 6, 1.0, 100):
        worst_rt = max(worst_rt, abs(measures.purity(states.mems_2x3(float(P))) - P))
    ok &= worst_rt <= 1e-9
    for P0 in (1 / 5, 3 / 8):
        gap = np.max(np.abs(states.mems_2x3(P0 + 1e-13).mat
                            - states.mems_2x3(P0 - 1e-13).mat))
        ok &= gap <= 1e-6
    worst_dom = -1.0
    for batch in _random_stacks(rng, (2, 3)):
        worst_dom = max(worst_dom, float(np.max(
            measures.negativity_e(batch) - measures.mems_boundary_2x3(measures.purity(batch)))))
    ok &= worst_dom <= 1e-6
    _report("07 2x3 measure anchors", ok,
            f"E(Phi1+)=1, products <= {worst_prod:.1e}, round-trip "
            f"{worst_rt:.1e}, dominance worst {worst_dom:.2e}")


# Margin between the rank-2 TGX and LX maxima of negativity_e in the
# purity bin [0.50, 0.52], from the first verified paired run at seed 808
# with 10,000 samples per family.
_RANK2_GAP_FIXTURE = 0.07912825446010796


def test_08_lx_vs_tgx_rank2_gap():
    def bin_max(family):
        cfg = cli.ExperimentConfig(system=(2, 3), family=family, rank=2,
                                   samples=10_000, seed=808, threads=4)
        vals = [r.entanglement for r in cli.run_scatter(cfg)
                if 0.50 <= r.purity <= 0.52]
        return max(vals)

    margin = bin_max("tgx") - bin_max("lx")
    ok = margin > 0 and abs(margin - _RANK2_GAP_FIXTURE) <= 1e-9
    _report("08 LX-vs-TGX rank-2 gap", ok,
            f"margin {margin:.6f} (fixture {_RANK2_GAP_FIXTURE:.6f})")


def test_09_diagonal_unitary_checks():
    (l1, r1), (l2, r2) = convert.diag_factor_conditions([0.95, 0.23, 0.61, 0.49])
    ok = (abs(l1 - (-0.12)) <= 1e-12 and abs(r1 - (-0.72)) <= 1e-12
          and abs(l2 - 0.26) <= 1e-12 and abs(r2 - (-0.34)) <= 1e-12)
    factorizable, _ = convert.diag_factorizable([0.95, 0.23, 0.61, 0.49], "exact")
    ok &= not factorizable
    rng = np.random.default_rng(37)
    # Per trial: the 11 X-state parameters, then 4 phases of a diagonal unitary.
    u = rng.uniform(0, np.append(_X_HIGH, [2 * math.pi] * 4), (10_000, 15))
    rx = states.general_x_state(_x_params(u))
    D = np.zeros((10_000, 4, 4), dtype=complex)
    D[:, range(4), range(4)] = np.exp(1j * u[:, 11:])
    out = DensityMatrix(D @ rx.mat @ D.conj().mT, (2, 2))
    worst_dc = float(np.max(np.abs(measures.concurrence(out) - measures.concurrence(rx))))
    ok &= worst_dc <= 1e-12
    worst_ax = 0.0
    for _ in range(1000):
        r = states.random_mixed(4, int(rng.integers(1, 5)), rng, (2, 2))
        out = convert.x_transform_unconstrained(r, rng.uniform(0, math.pi / 2, 6))
        worst_ax = max(worst_ax, measures.anti_x_measure(out))
    ok &= worst_ax <= 1e-12
    _report("09 diagonal-unitary checks", ok,
            f"condition pairs exact, max |dC| {worst_dc:.1e} over 1e4 trials, "
            f"max anti-X {worst_ax:.1e} over 1e3 transforms")


def test_10_cli_determinism(tmp_path):
    ok = True
    for fmt in ("csv", "json"):
        outputs = []
        for threads in (1, 4, 8):
            out = tmp_path / f"s-{fmt}-{threads}"
            rc = cli.main(["scatter", "--system", "2x3", "--family", "tgx",
                           "--samples", "120", "--seed", "77",
                           "--threads", str(threads), "--format", fmt,
                           "--out", str(out)])
            ok &= rc == 0
            outputs.append(out.read_bytes())
        ok &= outputs[0] == outputs[1] == outputs[2]
        outputs = []
        for threads in (1, 4, 8):
            out = tmp_path / f"c-{fmt}-{threads}"
            rc = cli.main(["convert", "--samples", "25", "--seed", "78",
                           "--threads", str(threads), "--format", fmt,
                           "--out", str(out)])
            ok &= rc == 0
            outputs.append(out.read_bytes())
        ok &= outputs[0] == outputs[1] == outputs[2]
    _report("10 CLI determinism", ok,
            "scatter+convert byte-identical in CSV and JSON at 1/4/8 threads")
