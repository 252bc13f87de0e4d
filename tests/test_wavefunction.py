"""Amplitude tables, pointwise evaluation and phase classification."""

import math

import numpy as np
import pytest

from llfisher.bethe import (
    BoundaryCondition,
    ModelParams,
    StateSpec,
    ground_state,
    solve_bethe,
    type1_excitation,
)
from llfisher.integrals import simplex_quadrature
from llfisher.wavefunction import (
    PhaseClass,
    amplitudes,
    eval_batch,
    global_phase_class,
)

PER = BoundaryCondition.PERIODIC
HW = BoundaryCondition.HARD_WALL


def make(bc, n, params, spec=None):
    spec = spec or ground_state(bc, n)
    sol = solve_bethe(spec, params)
    return spec, sol, amplitudes(sol, params, bc)


# ---------------------------------------------------------------------------
# amplitude tables
# ---------------------------------------------------------------------------


def test_single_particle_table_is_trivial():
    params = ModelParams(1.0, 1.0)
    _, _, table = make(PER, 1, params)
    assert table.n_terms == 1
    assert table.amp[0] == pytest.approx(1.0)
    assert table.damp[0] == pytest.approx(0.0)


def test_ring_pair_exchange_ratio():
    params = ModelParams(1.0, 1.0)
    _, sol, table = make(PER, 2, params)
    k1, k2 = sol.k
    c = params.c
    by_perm = {tuple(p): a for p, a in zip(map(tuple, table.perms), table.amp)}
    # identity coefficient is the unit-modulus factor over ordered momenta
    u = k1 - k2
    assert abs(by_perm[(0, 1)] - np.sign(u) * (u + 1j * c) / abs(u + 1j * c)) < 1e-14
    ratio = by_perm[(1, 0)] / by_perm[(0, 1)]
    expected = (k2 - k1 + 1j * c) / (k2 - k1 - 1j * c)
    assert abs(ratio - expected) < 1e-12
    assert abs(abs(by_perm[(1, 0)]) - abs(by_perm[(0, 1)])) < 1e-12


@pytest.mark.parametrize("bc,n", [(PER, 3), (HW, 2), (HW, 3)])
def test_adjacent_exchange_rule(bc, n):
    # A(..., kap_j, kap_l, ...) = (kap_j - kap_l + ic)/(kap_j - kap_l - ic)
    # times the swapped coefficient, for adjacent positions
    params = ModelParams(0.8, 1.5)
    _, sol, table = make(bc, n, params)
    c = params.c
    rows = {
        (tuple(p), tuple(s)): a
        for p, s, a in zip(map(tuple, table.perms), map(tuple, table.signs), table.amp)
    }
    kappas = {
        (tuple(p), tuple(s)): kap
        for p, s, kap in zip(map(tuple, table.perms), map(tuple, table.signs), table.kappa)
    }
    for (perm, signs), amp in rows.items():
        for pos in range(n - 1):
            swapped_perm = list(perm)
            swapped_perm[pos], swapped_perm[pos + 1] = swapped_perm[pos + 1], swapped_perm[pos]
            swapped_signs = list(signs)
            swapped_signs[pos], swapped_signs[pos + 1] = swapped_signs[pos + 1], swapped_signs[pos]
            other = rows[(tuple(swapped_perm), tuple(swapped_signs))]
            kap = kappas[(perm, signs)]
            factor = (kap[pos] - kap[pos + 1] + 1j * c) / (kap[pos] - kap[pos + 1] - 1j * c)
            assert abs(amp - factor * other) < 1e-12 * max(1.0, abs(amp))


def test_box_table_size_and_sign_reversal():
    params = ModelParams(1.0, 1.0)
    _, _, table = make(HW, 2, params)
    assert table.n_terms == 8
    rows = {
        (tuple(p), tuple(s)): a
        for p, s, a in zip(map(tuple, table.perms), map(tuple, table.signs), table.amp)
    }
    # flipping the sign of the first argument leaves A invariant
    for (perm, signs), amp in rows.items():
        flipped = (signs[0] * -1.0,) + signs[1:]
        assert abs(amp - rows[(perm, flipped)]) < 1e-12


def test_particle_cap_enforced():
    params = ModelParams(1.0, 1.0)
    sol = solve_bethe(ground_state(PER, 6), params)
    with pytest.raises(ValueError, match="cap"):
        amplitudes(sol, params, PER)
    table = amplitudes(sol, params, PER, allow_large_n=True)
    assert table.n_terms == math.factorial(6)


def test_coincident_quasimomenta_rejected():
    import numpy as np
    from llfisher.bethe import BetheSolution
    from llfisher.wavefunction import DegenerateStateError

    fake = BetheSolution(
        k=np.array([1.0, 1.0 + 1e-16]),
        dk_dc=np.zeros(2),
        energy=2.0,
        momentum=0.0,
        residual=0.0,
        norm_sq=1.0,
        dnorm_sq_dc=0.0,
    )
    with pytest.raises(DegenerateStateError):
        amplitudes(fake, ModelParams(1.0, 1.0), PER)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_single_particle_value_is_one():
    params = ModelParams(2.0, 1.0)
    spec, sol, table = make(PER, 1, params)
    vals, dvals = eval_batch(table, [[0.0], [0.3], [0.99]])
    assert np.max(np.abs(vals - 1.0)) < 1e-14
    assert np.max(np.abs(dvals)) < 1e-14


def test_box_boundary_zeros():
    params = ModelParams(1.3, 1.0)
    spec, sol, table = make(HW, 2, params)
    rng = np.random.default_rng(5)
    sample = np.sort(rng.uniform(0, 1, size=(64, 2)), axis=1)
    scale = np.max(np.abs(eval_batch(table, sample)[0]))
    at_zero, at_l = eval_batch(table, [[0.0, 0.6], [0.4, 1.0]])[0]
    assert abs(at_zero) < 1e-10 * scale
    assert abs(at_l) < 1e-10 * scale


def test_ring_ground_state_is_real():
    params = ModelParams(0.7, 1.0)
    spec, sol, table = make(PER, 2, params)
    rng = np.random.default_rng(11)
    sample = np.sort(rng.uniform(0, 1, size=(128, 2)), axis=1)
    vals, _ = eval_batch(table, sample)
    assert np.max(np.abs(vals.imag)) < 1e-10 * np.max(np.abs(vals))


def test_box_odd_n_is_purely_imaginary():
    params = ModelParams(0.9, 1.0)
    spec, sol, table = make(HW, 3, params)
    rng = np.random.default_rng(13)
    sample = np.sort(rng.uniform(0, 1, size=(64, 3)), axis=1)
    vals, _ = eval_batch(table, sample)
    assert np.max(np.abs(vals.real)) < 1e-9 * np.max(np.abs(vals))


def test_continuity_at_coincidence():
    params = ModelParams(1.0, 1.0)
    spec, sol, table = make(PER, 3, params)
    eps = 1e-9
    # x_2 crosses x_3 = 0.5: the bosonic extension orders the coordinates
    below, above = eval_batch(table, [[0.2, 0.5 - eps, 0.5], [0.2, 0.5, 0.5 + eps]])[0]
    scale = max(abs(below), 1.0)
    assert abs(below - above) < 1e-6 * scale


@pytest.mark.parametrize(
    "bc,n,c,L",
    [(PER, 2, 1.0, 1.0), (HW, 2, 1.0, 1.0), (PER, 3, 0.5, 2.0), (HW, 3, 2.0, 1.0)],
)
def test_norm_against_quadrature(bc, n, c, L):
    # ordered-domain integral of |psi~|^2 reproduces the determinant norm
    params = ModelParams(c, L)
    spec, sol, table = make(bc, n, params)
    target = sol.norm_sq

    def density(points):
        vals, _ = eval_batch(table, points)
        return vals.real**2 + vals.imag**2

    quad = simplex_quadrature(density, n, L, order=48)
    assert quad == pytest.approx(target, rel=1e-5)
    if (bc, n) == (PER, 3):
        # doubling the order must leave the smooth ordered-domain
        # integral unchanged at the 1e-7 level
        finer = simplex_quadrature(density, n, L, order=96)
        assert abs(finer - quad) < 1e-7 * abs(quad)


@pytest.mark.parametrize(
    "bc,n,c,L",
    [(PER, 2, 1.0, 1.0), (HW, 2, 0.6, 2.0), (PER, 3, 1.5, 1.0), (HW, 3, 0.9, 1.0)],
)
def test_dvalue_dc_against_resolved_difference(bc, n, c, L):
    params = ModelParams(c, L)
    spec = ground_state(bc, n)
    sol = solve_bethe(spec, params)
    table = amplitudes(sol, params, bc)

    h = 1e-6
    tab_hi = amplitudes(solve_bethe(spec, ModelParams(c + h, L)), ModelParams(c + h, L), bc)
    tab_lo = amplitudes(solve_bethe(spec, ModelParams(c - h, L)), ModelParams(c - h, L), bc)

    rng = np.random.default_rng(3)
    pts = np.sort(rng.uniform(0.05 * L, 0.95 * L, size=(32, n)), axis=1)
    _, dvals = eval_batch(table, pts)
    hi, _ = eval_batch(tab_hi, pts)
    lo, _ = eval_batch(tab_lo, pts)
    numeric = (hi - lo) / (2 * h)
    scale = np.max(np.abs(numeric))
    assert np.max(np.abs(dvals - numeric)) < 1e-5 * scale


@pytest.mark.parametrize(
    "bc,n,c,L",
    [(HW, 4, 0.2, 10.0), (PER, 5, 0.2, 10.0), (HW, 4, 5.0, 1.0)],
    ids=["box4", "ring5", "box4-strong"],
)
def test_eval_batch_matches_mpmath_sum(bc, n, c, L):
    # the plain matrix-product sum over the 2^N N! (or N!) terms stays at
    # machine precision against a 30-digit sum of the same table
    mp = pytest.importorskip("mpmath")
    params = ModelParams(c, L)
    spec, sol, table = make(bc, n, params)
    rng = np.random.default_rng(7)
    pts = np.sort(rng.uniform(0, L, size=(8, n)), axis=1)
    vals, dvals = eval_batch(table, pts)
    w_amp = table.weight * table.amp
    w_damp = table.weight * table.damp
    ref = np.empty(len(pts), dtype=complex)
    dref = np.empty(len(pts), dtype=complex)
    with mp.workdps(30):
        for p, x in enumerate(pts):
            val = dval = mp.mpc(0)
            for t in range(table.n_terms):
                phase = mp.expj(mp.fdot(x, table.kappa[t]))
                val += mp.mpc(w_amp[t]) * phase
                slope = mp.fdot(x, table.dkappa[t])
                dval += (mp.mpc(w_damp[t]) + 1j * mp.mpc(w_amp[t]) * slope) * phase
            ref[p], dref[p] = complex(val), complex(dval)
    assert np.max(np.abs(vals - ref)) < 4e-15 * np.max(np.abs(ref))
    assert np.max(np.abs(dvals - dref)) < 4e-15 * np.max(np.abs(dref))


# ---------------------------------------------------------------------------
# phase classification
# ---------------------------------------------------------------------------


def test_phase_class_examples():
    params = ModelParams(1.0, 1.0)
    assert global_phase_class(ground_state(HW, 3)) is PhaseClass.IMAGINARY
    assert global_phase_class(ground_state(HW, 2)) is PhaseClass.REAL
    assert global_phase_class(StateSpec(PER, 2, (0.5, 2.5))) is PhaseClass.REAL
    assert global_phase_class(StateSpec(PER, 3, (-1.0, 0.0, 2.0))) is PhaseClass.GENERAL
    assert global_phase_class(StateSpec(PER, 3, (0.0, 1.0, 2.0))) is PhaseClass.REAL
    assert global_phase_class(type1_excitation(PER, 3, 1)) is PhaseClass.GENERAL
