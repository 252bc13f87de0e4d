"""Bethe solver, Gaudin matrices and norms against finite-difference oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llfisher.bethe import (
    BoundaryCondition,
    ModelParams,
    SolverError,
    StateSpec,
    _finish,
    _gaudin_system,
    bethe_residual,
    gaudin_matrix,
    ground_state,
    momentum_of,
    solve_bethe,
    type1_excitation,
    type2_excitation,
)
from llfisher.fisher import _inner_products
from llfisher.wavefunction import amplitudes

PER = BoundaryCondition.PERIODIC
HW = BoundaryCondition.HARD_WALL


# ---------------------------------------------------------------------------
# state constructors and validation
# ---------------------------------------------------------------------------


def test_ground_state_examples():
    assert ground_state(PER, 2).quantum_numbers == (-0.5, 0.5)
    assert ground_state(HW, 3).quantum_numbers == (1.0, 2.0, 3.0)
    assert ground_state(PER, 1).quantum_numbers == (0.0,)


def test_ground_state_rejects_bad_n():
    with pytest.raises(ValueError):
        ground_state(PER, 0)


def test_type1_examples():
    assert type1_excitation(PER, 2, 2).quantum_numbers == (-0.5, 2.5)
    assert type1_excitation(HW, 2, 2).quantum_numbers == (1.0, 4.0)
    assert type1_excitation(PER, 3, 1).quantum_numbers == (-1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        type1_excitation(PER, 2, 0)


def test_type2_examples():
    assert type2_excitation(PER, 2, 1).quantum_numbers == (0.5, 1.5)
    assert type2_excitation(HW, 3, 1).quantum_numbers == (2.0, 3.0, 4.0)
    assert type2_excitation(HW, 3, 2).quantum_numbers == (1.0, 3.0, 4.0)
    for bad_q in (0, 3):
        with pytest.raises(ValueError):
            type2_excitation(PER, 3, bad_q)


def test_statespec_validation():
    with pytest.raises(ValueError):
        StateSpec(PER, 2, (0.5, 0.5))  # duplicates
    with pytest.raises(ValueError):
        StateSpec(PER, 2, (0.0, 1.0))  # wrong parity for even N
    with pytest.raises(ValueError):
        StateSpec(PER, 3, (-0.5, 0.5, 1.5))  # wrong parity for odd N
    with pytest.raises(ValueError):
        StateSpec(HW, 2, (0.0, 1.0))  # box numbers must be >= 1
    with pytest.raises(ValueError):
        StateSpec(HW, 2, (1.5, 2.5))  # box numbers must be integers
    with pytest.raises(ValueError):
        StateSpec(PER, 0, ())
    for bc, labels in [(PER, (np.nan,)), (PER, (np.nan, np.nan)), (HW, (1.0, np.inf))]:
        with pytest.raises(ValueError, match="finite"):
            StateSpec(bc, len(labels), labels)


def test_modelparams_validation():
    with pytest.raises(ValueError):
        ModelParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 0.0)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_single_particle_ring_is_zero():
    sol = solve_bethe(ground_state(PER, 1), ModelParams(3.7, 2.0))
    assert sol.k[0] == pytest.approx(0.0, abs=1e-14)
    assert sol.energy == pytest.approx(0.0, abs=1e-28)


def test_strong_coupling_ring_pair():
    sol = solve_bethe(ground_state(PER, 2), ModelParams(1e6, 1.0))
    assert np.allclose(sol.k, [-np.pi, np.pi], atol=1e-3)


def test_weak_coupling_box_pair():
    c = 1e-8
    sol = solve_bethe(ground_state(HW, 2), ModelParams(c, 1.0))
    expected = np.array([np.pi - np.sqrt(c / 2), np.pi + np.sqrt(c / 2)])
    assert np.max(np.abs(sol.k - expected) / expected) < 1e-6


def test_weak_coupling_ring_pair_hermite_zeros():
    # ground-state quasimomenta collapse onto sqrt(2c/L) times the
    # Hermite zeros -+1/sqrt(2), i.e. -+sqrt(c) at L = 1
    c = 1e-8
    sol = solve_bethe(ground_state(PER, 2), ModelParams(c, 1.0))
    assert np.allclose(sol.k, [-np.sqrt(c), np.sqrt(c)], rtol=1e-3)


@pytest.mark.parametrize(
    "spec,params",
    [
        (ground_state(PER, 3), ModelParams(0.7, 2.0)),
        (type1_excitation(PER, 3, 2), ModelParams(5.0, 1.0)),
        (ground_state(HW, 3), ModelParams(0.05, 3.0)),
        (type2_excitation(HW, 3, 1), ModelParams(12.0, 0.5)),
        (ground_state(PER, 4), ModelParams(0.2, 40.0)),
    ],
)
def test_residual_and_ordering_invariants(spec, params):
    sol = solve_bethe(spec, params)
    scale = max(1.0, params.L * np.max(np.abs(sol.k)))
    assert sol.residual <= 1e-12 * scale
    assert np.max(np.abs(bethe_residual(sol.k, spec, params))) <= 1e-12 * scale
    assert np.all(np.diff(sol.k) > 0)
    if spec.bc is HW:
        assert sol.k[0] > 0
    assert sol.energy == pytest.approx(np.sum(sol.k**2))


def test_translation_covariance():
    # shifting all ring quantum numbers by J shifts every k by 2 pi J / L
    params = ModelParams(1.3, 2.0)
    base = solve_bethe(ground_state(PER, 3), params)
    shifted = solve_bethe(StateSpec(PER, 3, (1.0, 2.0, 3.0)), params)
    assert np.max(np.abs(shifted.k - (base.k + 2.0 * np.pi * 2.0 / params.L))) < 1e-10


@settings(max_examples=10, deadline=None)
@given(
    shift=st.integers(-4, 4).filter(lambda j: j != 0),
    c=st.floats(0.1, 20.0),
)
def test_translation_covariance_property(shift, c):
    params = ModelParams(c, 1.5)
    base = solve_bethe(ground_state(PER, 2), params)
    moved_qn = tuple(v + shift for v in ground_state(PER, 2).quantum_numbers)
    moved = solve_bethe(StateSpec(PER, 2, moved_qn), params)
    expected = base.k + 2.0 * np.pi * shift / params.L
    assert np.max(np.abs(moved.k - expected)) < 1e-10
    # the c-derivatives are translation-invariant outright
    assert np.max(np.abs(moved.dk_dc - base.dk_dc)) < 1e-10


@pytest.mark.parametrize("bc", [PER, HW])
def test_strong_coupling_limit(bc):
    L = 1.0
    spec = ground_state(bc, 3)
    sol = solve_bethe(spec, ModelParams(1e6 / L, L))
    unit = 2.0 * np.pi / L if bc is PER else np.pi / L
    anchor = unit * spec.qn_array
    mask = np.abs(anchor) > 0
    assert np.max(np.abs((sol.k[mask] - anchor[mask]) / anchor[mask])) < 1e-2


def test_free_gas_limit_distinct_momenta():
    # ring state [-0.5, 1.5] maps to free momenta {0, 2pi/L} at c = 0
    spec = StateSpec(PER, 2, (-0.5, 1.5))
    sol = solve_bethe(spec, ModelParams(0.0, 2.0))
    assert np.allclose(sol.k, [0.0, np.pi], atol=1e-14)


def test_free_gas_limit_refuses_degenerate_states():
    with pytest.raises(ValueError, match="degenerate"):
        solve_bethe(ground_state(PER, 2), ModelParams(0.0, 1.0))
    with pytest.raises(ValueError, match="degenerate"):
        solve_bethe(ground_state(HW, 2), ModelParams(0.0, 1.0))


# ---------------------------------------------------------------------------
# Gaudin matrix
# ---------------------------------------------------------------------------


def test_gaudin_single_particle():
    L = 2.5
    params = ModelParams(1.0, L)
    assert gaudin_matrix([0.0], params, PER) == pytest.approx(np.array([[L]]))
    assert gaudin_matrix([np.pi / L], params, HW) == pytest.approx(np.array([[L]]))


@pytest.mark.parametrize(
    "spec,params",
    [
        (ground_state(PER, 2), ModelParams(1.0, 1.0)),
        (ground_state(PER, 3), ModelParams(0.4, 3.0)),
        (ground_state(HW, 2), ModelParams(1.0, 1.0)),
        (ground_state(HW, 3), ModelParams(6.0, 0.8)),
    ],
)
def test_gaudin_matches_finite_difference_jacobian(spec, params):
    sol = solve_bethe(spec, params)
    analytic = gaudin_matrix(sol.k, params, spec.bc)
    h = 1e-7
    numeric = np.zeros_like(analytic)
    for i in range(spec.n):
        up = sol.k.copy()
        up[i] += h
        down = sol.k.copy()
        down[i] -= h
        numeric[:, i] = (
            bethe_residual(up, spec, params) - bethe_residual(down, spec, params)
        ) / (2 * h)
    assert np.max(np.abs(analytic - numeric)) < 1e-6
    assert np.allclose(analytic, analytic.T)
    assert np.linalg.det(analytic) > 0


@pytest.mark.parametrize("bc", [PER, HW], ids=["ring", "box"])
@pytest.mark.parametrize("c", [1e-3, 1.0, 100.0])
@pytest.mark.parametrize("branch", ["ground", "type1"])
def test_dgaudin_dc_matches_central_difference(bc, c, branch):
    # dH/dc along the branch: the Gaudin matrix of the re-solved k at c +- h
    spec = ground_state(bc, 3) if branch == "ground" else type1_excitation(bc, 3, 2)
    L = 2.0
    sol = solve_bethe(spec, ModelParams(c, L))
    matrix, _, dk, got = _gaudin_system(sol.k, ModelParams(c, L), bc)
    assert np.array_equal(matrix, gaudin_matrix(sol.k, ModelParams(c, L), bc))
    assert np.array_equal(dk, sol.dk_dc)

    def matrix(cc):
        params = ModelParams(cc, L)
        return gaudin_matrix(solve_bethe(spec, params).k, params, bc)

    h = 1e-4 * c
    numeric = (matrix(c + h) - matrix(c - h)) / (2 * h)
    assert np.max(np.abs(got - numeric)) < 1e-6 * np.max(np.abs(got))


@pytest.mark.parametrize(
    "spec", [StateSpec(PER, 3, (-2.0, 0.0, 2.0)), StateSpec(HW, 3, (1.0, 3.0, 5.0))],
    ids=["ring", "box"],
)
def test_zero_coupling_kernels(spec):
    # at c = 0 every pair kernel vanishes exactly, and dk/dc is the
    # first-order shift (g / L) sum_{l != j} sum_p 1 / u_p[j, l]
    L = 3.0
    params = ModelParams(0.0, L)
    sol = solve_bethe(spec, params)
    k, got = sol.k, sol.dk_dc
    assert np.array_equal(gaudin_matrix(k, params, spec.bc), L * np.eye(3))
    assert np.all(np.isfinite(got))
    diff = k[:, None] - k[None, :]
    np.fill_diagonal(diff, np.inf)
    if spec.bc is PER:
        expected = 2.0 / L * np.sum(1.0 / diff, axis=1)
    else:
        summ = k[:, None] + k[None, :]
        np.fill_diagonal(summ, np.inf)
        expected = 1.0 / L * np.sum(1.0 / diff + 1.0 / summ, axis=1)
    assert got == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# dk/dc
# ---------------------------------------------------------------------------


def test_dk_dc_single_ring_particle_is_zero():
    sol = solve_bethe(ground_state(PER, 1), ModelParams(2.0, 1.5))
    assert sol.dk_dc == pytest.approx([0.0])


def test_dk_dc_ground_state_antisymmetry():
    params = ModelParams(0.9, 2.0)
    sol = solve_bethe(ground_state(PER, 2), params)
    assert sol.dk_dc[0] == pytest.approx(-sol.dk_dc[1], rel=1e-12)


@pytest.mark.parametrize(
    "spec,params",
    [
        (ground_state(PER, 2), ModelParams(1.0, 1.0)),
        (ground_state(PER, 3), ModelParams(0.3, 5.0)),
        (ground_state(PER, 4), ModelParams(2.0, 1.0)),
        (type2_excitation(PER, 3, 1), ModelParams(0.8, 2.0)),
        (ground_state(HW, 2), ModelParams(1.0, 1.0)),
        (ground_state(HW, 3), ModelParams(0.2, 10.0)),
        (ground_state(HW, 4), ModelParams(4.0, 1.0)),
        (type1_excitation(HW, 3, 2), ModelParams(1.5, 2.0)),
    ],
)
def test_dk_dc_matches_resolve_finite_difference(spec, params):
    sol = solve_bethe(spec, params)
    h = 1e-6 * max(params.c, 1.0)
    k_hi = solve_bethe(spec, ModelParams(params.c + h, params.L)).k
    k_lo = solve_bethe(spec, ModelParams(params.c - h, params.L)).k
    numeric = (k_hi - k_lo) / (2 * h)
    scale = np.max(np.abs(numeric))
    assert np.max(np.abs(sol.dk_dc - numeric)) < 1e-6 * scale


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_norm_single_particle_ring():
    sol = solve_bethe(ground_state(PER, 1), ModelParams(1.0, 2.0))
    assert sol.norm_sq == pytest.approx(2.0)


def test_norm_single_particle_box():
    # |2 sin(kx)|^2 integrates to 2L for k = pi I / L
    L = 1.7
    sol = solve_bethe(ground_state(HW, 1), ModelParams(0.5, L))
    assert sol.norm_sq == pytest.approx(2 * L)


@pytest.mark.parametrize(
    "spec,params",
    [
        (ground_state(PER, 2), ModelParams(1.0, 1.0)),
        (ground_state(HW, 2), ModelParams(1.0, 1.0)),
        (ground_state(PER, 3), ModelParams(0.5, 2.0)),
        (type2_excitation(HW, 3, 2), ModelParams(2.0, 1.0)),
    ],
)
def test_norm_positive_on_grid(spec, params):
    # NS = det H on the ring and 2^N det H in the box, H at the solved k
    sol = solve_bethe(spec, params)
    det = float(np.linalg.det(gaudin_matrix(sol.k, params, spec.bc)))
    assert det > 0
    assert sol.norm_sq == (2.0 ** spec.n if spec.bc is HW else 1.0) * det


def test_finish_builds_one_gaudin_system(call_counts):
    # dk/dc, the norm and its derivative share one Gaudin system: one
    # pair stack for k and one for dk/dc, one assembly each for H and dH/dc
    spec = StateSpec(PER, 3, (-1.0, 1.0, 2.0))
    params = ModelParams(0.7, 2.0)
    sol = solve_bethe(spec, params)
    counts = call_counts("_pair_arguments", "_gaudin_assembly")
    again = _finish(spec, params, sol.k, sol.residual)
    assert counts == {"_pair_arguments": 2, "_gaudin_assembly": 2}
    assert np.array_equal(again.dk_dc, sol.dk_dc)
    assert (again.norm_sq, again.dnorm_sq_dc) == (sol.norm_sq, sol.dnorm_sq_dc)


def test_underflowing_norm_raises_solver_error():
    # at L = 1e-90 the ring N = 4 ground state solves, but det H ~ L^4
    # underflows to 0, which would divide the QFI by zero
    with pytest.raises(SolverError, match="not finite and positive"):
        solve_bethe(ground_state(PER, 4), ModelParams(1.0, 1e-90))


def test_singular_newton_step_raises_solver_error():
    # coincident iterates make the ring Gaudin matrix 2 [[1, -1], [-1, 1]]
    # up to L = 1e-300, which rounding drops: singular in double precision
    from llfisher.bethe import _newton

    with pytest.raises(SolverError, match="singular"):
        _newton(ground_state(PER, 2), ModelParams(1.0, 1e-300), np.array([1.0, 1.0]))


def test_singular_newton_step_is_not_continued():
    # continuation past the singular step used to end on k whose pair gaps
    # were wrong, and the QFI built on them read 2.97e-113 instead of ~1e-122
    with pytest.raises(SolverError, match="singular Gaudin matrix"):
        solve_bethe(ground_state(HW, 3), ModelParams(1.0, 1e-60))


def test_overflowing_energy_raises_solver_error():
    # k = 2 pi 1e6 / L is finite, but sum k^2 is not
    with pytest.raises(SolverError, match="energy inf"):
        solve_bethe(StateSpec(PER, 1, (1e6,)), ModelParams(1.0, 1e-300))


@pytest.mark.parametrize("c,L", [(2e154, 1e-154), (1e154, 1e-154)])
def test_overflowing_kernel_denominator_raises_solver_error(c, L):
    # u^2 + c^2 overflows where the kernels it zeroes are not negligible
    # beside L; at c = 1e300, L = 1 they are (see the test below)
    with pytest.raises(SolverError, match="u\\^2 \\+ c\\^2 overflows"):
        solve_bethe(ground_state(PER, 2), ModelParams(c, L))


@pytest.mark.parametrize(
    "spec,c,L,match",
    [
        (ground_state(HW, 2), 1e-300, 1.0, "line search stalled"),
        (type2_excitation(HW, 2, 1), 1e-300, 1e200, "line search stalled"),
        (StateSpec(PER, 3, (-1, 1, 2)), 1e-250, 1e300, "not finite and positive"),
    ],
    ids=["box2-divide", "box2-type2-invalid", "ring3-det"],
)
def test_underflowing_coupling_raises_solver_error(spec, c, L, match):
    # c^2 underflows, so g c / (u^2 + c^2) is g c / 0 = inf where pair
    # arguments vanish, and the row sums and det H hold inf - inf; these
    # raised numpy's RuntimeWarning (an error under the suite's filter)
    with pytest.raises(SolverError, match=match):
        solve_bethe(spec, ModelParams(c, L))


def test_dnorm_sq_dc_single_ring_particle():
    sol = solve_bethe(ground_state(PER, 1), ModelParams(1.0, 2.0))
    assert sol.dnorm_sq_dc == pytest.approx(0.0)


def test_dnorm_sq_dc_against_five_point_stencil():
    spec = ground_state(PER, 2)
    params = ModelParams(1.0, 1.0)
    got = solve_bethe(spec, params).dnorm_sq_dc

    def n2(c):
        p = ModelParams(c, params.L)
        return solve_bethe(spec, p).norm_sq

    h = 1e-3
    stencil = (
        -n2(params.c + 2 * h)
        + 8 * n2(params.c + h)
        - 8 * n2(params.c - h)
        + n2(params.c - 2 * h)
    ) / (12 * h)
    assert got == pytest.approx(stencil, rel=1e-4)


@pytest.mark.parametrize(
    "spec,c,L",
    [
        (ground_state(PER, 3), 0.7, 2.0),
        (ground_state(HW, 3), 0.5, 5.0),
        (StateSpec(PER, 3, (-1.0, 1.0, 2.0)), 2.0, 1.0),
        # free momenta distinct at c = 0, so the branch is regular there
        (StateSpec(PER, 2, (-1.5, 0.5)), 0.0, 3.0),
        (StateSpec(HW, 3, (1.0, 3.0, 5.0)), 0.0, 3.0),
        (StateSpec(PER, 2, (-1.5, 0.5)), 1e-6, 3.0),
        (StateSpec(HW, 3, (1.0, 3.0, 5.0)), 1e-6, 3.0),
    ],
)
def test_dnorm_sq_dc_matches_inner_product(spec, c, L):
    # d(norm^2)/dc = 2 Re <psi~|d_c psi~>, assembled from the pair bundles
    params = ModelParams(c, L)
    table = amplitudes(spec, params)
    nd = _inner_products(table)[1]
    assert table.solution.dnorm_sq_dc == pytest.approx(2.0 * nd.real, rel=1e-10)


@pytest.mark.parametrize("bc", [PER, HW])
def test_dnorm_sq_dc_collapsing_ground_state(bc):
    # at c = 1e-6 the ground-state quasimomenta collapse as sqrt(c): the
    # Gaudin-kernel derivative (u^2 - c^2 - 2 c u u') cancels to O(c^2)
    # from O(c) terms, so the rounding of k limits agreement to ~1e-8
    spec = ground_state(bc, 3)
    params = ModelParams(1e-6, 10.0)
    table = amplitudes(spec, params)
    nd = _inner_products(table)[1]
    assert table.solution.dnorm_sq_dc == pytest.approx(2.0 * nd.real, rel=1e-7)


def test_dnorm_relative_derivative_saturates_at_strong_coupling():
    spec = ground_state(PER, 2)
    params = ModelParams(1e6, 1.0)
    sol = solve_bethe(spec, params)
    assert abs(sol.dnorm_sq_dc) / sol.norm_sq < 1e-5


def test_dnorm_sq_dc_finite_at_huge_coupling():
    # (u^2 + c^2)^2 overflowed from c ~ 1e77 and c^2 from c ~ 1e154, which
    # made d(norm^2)/dc NaN; it falls as 1/c^2 (and underflows to 0 at 1e300)
    spec = StateSpec(PER, 3, (-1.0, 1.0, 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sols = {c: solve_bethe(spec, ModelParams(c, 1.0)) for c in (1e50, 1e100, 1e300)}
    assert all(np.isfinite(sol.dnorm_sq_dc) for sol in sols.values())
    assert sols[1e100].dnorm_sq_dc * 1e200 == pytest.approx(
        sols[1e50].dnorm_sq_dc * 1e100, rel=1e-12
    )


# ---------------------------------------------------------------------------
# momentum
# ---------------------------------------------------------------------------


def test_momentum_values():
    params = ModelParams(1.0, 2.0)
    # ring: the solved sum(k_j) is 2 pi sum(I_j) / L at any c
    ground = ground_state(PER, 2)
    assert np.sum(solve_bethe(ground, params).k) == pytest.approx(0.0, abs=1e-12)
    assert momentum_of(ground, params) == 0.0

    moved = StateSpec(PER, 2, (-0.5, 2.5))
    sol = solve_bethe(moved, params)
    assert np.sum(sol.k) == pytest.approx(4.0 * np.pi / params.L, rel=1e-12)
    assert sol.momentum == pytest.approx(np.sum(sol.k), rel=1e-12)

    # box pseudo-momentum (pi/L) sum(I_j - j + 1): N pi / L for the ground
    # state, and the type-I/type-II pairing [1,2,6] <-> [2,3,4] shares 6 pi / L
    box = ground_state(HW, 3)
    assert solve_bethe(box, params).momentum == pytest.approx(
        3.0 * np.pi / params.L
    )
    assert momentum_of(type2_excitation(HW, 3, 1), params) == pytest.approx(
        6.0 * np.pi / params.L
    )
    assert momentum_of(type1_excitation(HW, 3, 3), params) == pytest.approx(
        momentum_of(type2_excitation(HW, 3, 1), params)
    )
