"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Everything here sticks to desk scale (N <= 4 on the ring,
N <= 3 in the box) and finishes in a few minutes.
"""

import math
from collections import Counter

import numpy as np
import pytest
from oracles import cfi_full_simplex, qfi_overlap_oracle, simplex_quadrature

from llfisher.bethe import (
    BoundaryCondition,
    ModelParams,
    StateSpec,
    ground_state,
    solve_bethe,
    type2_excitation,
)
from llfisher.fisher import (
    _cfi_quadrature,
    cfi,
    lmax,
    qfi_analytic,
    sweep,
)
from llfisher.imaging import (
    enumerate_images,
    image_distribution,
    imaging_cfi,
    mle_estimate,
    multiplicity,
    sample_images,
    uniform_grid,
)
from llfisher.integrals import simplex_exp_integral
from llfisher.wavefunction import amplitudes, eval_batch

PER = BoundaryCondition.PERIODIC
HW = BoundaryCondition.HARD_WALL


def check(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_weak_coupling_qfi_limits():
    params = ModelParams(1e-6, 1.0)
    ring = qfi_analytic(ground_state(PER, 2), params)
    ring_target = 1.0 / 180.0
    box = qfi_analytic(ground_state(HW, 2), params)
    box_target = (-855.0 + 60.0 * np.pi**2 + 4.0 * np.pi**4) / (180.0 * np.pi**4)
    ring_rel = abs(ring - ring_target) / ring_target
    box_rel = abs(box - box_target) / box_target
    check(
        ring_rel < 5e-3 and box_rel < 5e-3,
        "criterion 1 (weak-coupling QFI limits)",
        f"ring {ring:.6g} vs 1/180 (rel {ring_rel:.2e}); "
        f"box {box:.6g} vs {box_target:.6g} (rel {box_rel:.2e})",
    )


def test_criterion_02_optimal_sizes_ground_states():
    cases = [
        (ground_state(PER, 2), 10.55),
        (ground_state(HW, 2), 11.40),
        (ground_state(PER, 3), 13.63),
        (ground_state(PER, 4), 16.92),
        (ground_state(HW, 3), 12.73),
    ]
    c = 0.2
    results = []
    ok = True
    for spec, target in cases:
        l_best, _ = lmax(spec, c, (5.0, 200.0))
        rel = abs(c * l_best - target) / target
        ok &= rel < 0.01
        results.append(f"{spec.bc.value} N={spec.n}: {c * l_best:.3f} (target {target})")
    check(ok, "criterion 2 (optimal sizes, c*L_max)", "; ".join(results))


def test_criterion_03_box_excited_state_lmax_set():
    targets = {
        (1.0, 2.0, 3.0): 63.65,
        (1.0, 2.0, 4.0): 66.00,
        (1.0, 2.0, 5.0): 62.15,
        (1.0, 2.0, 6.0): 63.10,
        (1.0, 3.0, 4.0): 67.95,
        (2.0, 3.0, 4.0): 62.00,
    }
    ok = True
    results = []
    for qn, target in targets.items():
        spec = StateSpec(HW, 3, qn)
        l_best, _ = lmax(spec, 0.2, (45.0, 90.0), tol=0.05)
        ok &= abs(l_best - target) <= 0.5
        results.append(f"I={[int(v) for v in qn]}: {l_best:.2f} (target {target})")
    check(ok, "criterion 3 (box excited-state L_max set)", "; ".join(results))


def test_criterion_04_ring_invariance_suite():
    params = ModelParams(0.4, 6.0)
    translated = qfi_analytic(StateSpec(PER, 3, (0.0, 1.0, 2.0)), params)
    base = qfi_analytic(ground_state(PER, 3), params)
    rel_t = abs(translated - base) / base
    reversed_a = qfi_analytic(StateSpec(PER, 3, (-1.0, 1.0, 2.0)), params)
    reversed_b = qfi_analytic(StateSpec(PER, 3, (-1.0, 0.0, 2.0)), params)
    rel_r = abs(reversed_a - reversed_b) / reversed_b
    check(
        rel_t < 1e-9 and rel_r < 1e-9,
        "criterion 4 (ring invariances)",
        f"translation rel {rel_t:.2e}; difference-reversal rel {rel_r:.2e}",
    )


def test_criterion_05_oracle_equivalences():
    params = ModelParams(1.0, 1.0)
    worst = {"norm": 0.0, "qfi": 0.0, "dk": 0.0, "simplex": 0.0}

    # (a) determinant norm vs simplex quadrature of |psi~|^2, N <= 3
    for bc, n in [(PER, 1), (PER, 2), (PER, 3), (HW, 1), (HW, 2), (HW, 3)]:
        table = amplitudes(ground_state(bc, n), params)
        target = table.solution.norm_sq

        def density(points):
            vals, _ = eval_batch(table, points)
            return vals.real**2 + vals.imag**2

        quad = simplex_quadrature(density, n, params.L, order=48)
        worst["norm"] = max(worst["norm"], abs(quad - target) / target)

    # (b) analytic QFI vs fidelity-overlap oracle
    oracle_states = [
        ground_state(PER, 2),
        ground_state(HW, 2),
        ground_state(PER, 3),
        ground_state(HW, 3),
        type2_excitation(PER, 2, 1),
        type2_excitation(HW, 3, 2),
    ]
    for spec in oracle_states:
        analytic = qfi_analytic(spec, params)
        oracle = qfi_overlap_oracle(spec, params)
        worst["qfi"] = max(worst["qfi"], abs(analytic - oracle) / analytic)

    # (c) dk/dc vs re-solved finite differences, N <= 4 both geometries
    dk_cases = [
        (ground_state(PER, 2), ModelParams(1.0, 1.0)),
        (ground_state(PER, 4), ModelParams(0.3, 5.0)),
        (ground_state(HW, 3), ModelParams(2.0, 1.0)),
        (ground_state(HW, 4), ModelParams(0.7, 2.0)),
    ]
    for spec, pars in dk_cases:
        sol = solve_bethe(spec, pars)
        h = 1e-6 * max(pars.c, 1.0)
        hi = solve_bethe(spec, ModelParams(pars.c + h, pars.L)).k
        lo = solve_bethe(spec, ModelParams(pars.c - h, pars.L)).k
        numeric = (hi - lo) / (2 * h)
        err = np.max(np.abs(sol.dk_dc - numeric)) / np.max(np.abs(numeric))
        worst["dk"] = max(worst["dk"], err)

    # (d) closed-form simplex integrals vs iterated quadrature, random lambda
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        lam = rng.uniform(-20.0, 20.0, size=n)
        got = simplex_exp_integral(lam, 1.0)
        ref = simplex_quadrature(lambda pts: np.exp(-1j * pts @ lam), n, 1.0, order=48)
        worst["simplex"] = max(worst["simplex"], abs(got - ref) / max(1.0, abs(ref)))

    ok = (
        worst["norm"] < 1e-5
        and worst["qfi"] < 1e-3
        and worst["dk"] < 1e-6
        and worst["simplex"] < 1e-8
    )
    check(
        ok,
        "criterion 5 (oracle equivalences)",
        f"norm rel {worst['norm']:.2e} (<1e-5); qfi rel {worst['qfi']:.2e} (<1e-3); "
        f"dk/dc rel {worst['dk']:.2e} (<1e-6); simplex rel {worst['simplex']:.2e} (<1e-8)",
    )


def test_criterion_06_saturation_property():
    params = ModelParams(1.0, 1.0)
    saturated = [
        ground_state(PER, 2),
        ground_state(HW, 2),
        ground_state(PER, 3),
        ground_state(HW, 3),
        type2_excitation(PER, 2, 1),  # Umklapp, still palindromic
    ]
    worst = 0.0
    for spec in saturated:
        analytic = qfi_analytic(spec, params)
        table = amplitudes(spec, params)
        # the box, which fisher_report never integrates, by the N-D oracle rule
        forced = _cfi_quadrature(table)[0] if spec.bc is PER else cfi_full_simplex(table)
        worst = max(worst, abs(forced - analytic) / analytic)

    gap_params = ModelParams(0.2, 20.0)
    gaps = []
    for qn in [(-1.0, 0.0, 2.0), (-1.0, 0.0, 3.0)]:
        spec = StateSpec(PER, 3, qn)
        q = qfi_analytic(spec, gap_params)
        f = cfi(spec, gap_params)
        gaps.append(q - f)
    ok = worst < 1e-4 and all(g >= -1e-9 for g in gaps)
    check(
        ok,
        "criterion 6 (CFI saturation and variance positivity)",
        f"worst forced-quadrature mismatch {worst:.2e} (<1e-4); "
        f"asymmetric-state gaps {['%.3e' % g for g in gaps]} (>= 0)",
    )


def test_criterion_07_monotonicity_and_geometry_ordering():
    ring = ground_state(PER, 2)
    c_grid = np.linspace(0.05, 5.0, 20)
    result = sweep(ring, "c", c_grid, fixed_value=1.0)
    decreasing = result.trend("cfi") == "decreasing"

    box = ground_state(HW, 2)
    shared = [(0.2, 1.0), (0.2, 5.0), (1.0, 1.0), (1.0, 5.0), (3.0, 1.0), (3.0, 5.0)]
    ordering = True
    for c, L in shared:
        pars = ModelParams(c, L)
        ordering &= cfi(ring, pars) <= cfi(box, pars) * (1 + 1e-12)
    check(
        decreasing and ordering,
        "criterion 7 (monotone decrease in c; ring <= box)",
        f"20-point c-sweep trend: {result.trend('cfi')}; "
        f"ring <= box on {len(shared)} shared points: {ordering}",
    )


def test_criterion_08_imaging_cfi_convergence():
    pixel_counts = (2, 4, 8, 16, 32)
    params = ModelParams(0.2, 10.0)
    ratios = {}
    for bc in (PER, HW):
        spec = ground_state(bc, 2)
        reference = cfi(spec, params)
        ratios[bc] = [
            imaging_cfi(image_distribution(spec, params, uniform_grid(params.L, npix)))
            / reference
            for npix in pixel_counts
        ]
    ring, box = ratios[PER], ratios[HW]
    increasing = all(np.diff(ring) > 0) and all(np.diff(box) > 0)
    converged = ring[-1] > 0.98 and box[-1] > 0.98
    box_above = all(b >= r for r, b in zip(ring, box))
    check(
        increasing and converged and box_above,
        "criterion 8 (imaging CFI convergence)",
        f"ring ratios {['%.4f' % r for r in ring]}; box ratios {['%.4f' % b for b in box]}",
    )


def test_criterion_09_image_combinatorics():
    n_images = len(enumerate_images(10, 3))
    zeta = multiplicity((1, 5, 1, 3, 0))
    check(
        n_images == 1001 and zeta == 5040,
        "criterion 9 (absorption-image combinatorics)",
        f"enumerate_images(10, 3) -> {n_images}; multiplicity((1,5,1,3,0)) = {zeta}",
    )


def test_criterion_10_mle_reaches_cramer_rao_bound():
    spec = ground_state(PER, 2)
    c_true, L = 0.2, 10.0
    grid = uniform_grid(L, 8)
    dist = image_distribution(spec, ModelParams(c_true, L), grid)
    f_img = imaging_cfi(dist)
    shots_per_run = 10_000
    crb = 1.0 / (shots_per_run * f_img)
    sigma = math.sqrt(crb)

    c_grid = np.linspace(c_true - 6 * sigma, c_true + 6 * sigma, 13)
    lookups = []
    for c in c_grid:
        d = image_distribution(spec, ModelParams(float(c), L), grid)
        lookups.append({img: p for img, p in zip(map(tuple, d.images.tolist()), d.probs)})

    def estimate(shots):
        tallies = Counter(map(tuple, shots.tolist()))
        loglik = np.array(
            [
                sum(cnt * math.log(max(lut.get(img, 0.0), 1e-300)) for img, cnt in tallies.items())
                for lut in lookups
            ]
        )
        best = int(np.argmax(loglik))
        if best in (0, len(c_grid) - 1):
            return float(c_grid[best])
        x0, x1, x2 = c_grid[best - 1 : best + 2]
        y0, y1, y2 = loglik[best - 1 : best + 2]
        denom = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
        return float(
            x1 - 0.5 * ((x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)) / denom
        )

    rng = np.random.default_rng(42)
    estimates = np.array(
        [
            estimate(sample_images(dist, shots_per_run, int(rng.integers(0, 2**31))))
            for _ in range(100)
        ]
    )
    ratio = estimates.var(ddof=1) / crb
    within = float(np.mean(np.abs(estimates - c_true) <= 3 * sigma))
    check(
        1.0 <= ratio <= 1.5 and within >= 0.99,
        "criterion 10 (MLE saturates the classical Cramer-Rao bound)",
        f"var/CRB = {ratio:.3f} (target [1, 1.5]); "
        f"|err| <= 3 sigma in {within:.0%} of runs (>= 99%)",
    )


def test_mle_estimate_op_consistency():
    # the packaged estimator agrees with the acceptance harness on one run
    spec = ground_state(PER, 2)
    c_true, L = 0.2, 10.0
    grid = uniform_grid(L, 8)
    dist = image_distribution(spec, ModelParams(c_true, L), grid)
    shots = sample_images(dist, 4000, seed=1234)
    sigma = math.sqrt(1.0 / (4000 * imaging_cfi(dist)))
    c_grid = np.linspace(c_true - 6 * sigma, c_true + 6 * sigma, 13)
    c_hat, _ = mle_estimate(shots, spec, grid, c_grid, L)
    assert abs(c_hat - c_true) < 4 * sigma
