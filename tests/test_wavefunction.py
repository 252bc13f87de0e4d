"""Amplitude tables, pointwise evaluation and phase classification."""

import itertools

import numpy as np
import pytest
from oracles import psi_at, simplex_quadrature

from llfisher import integrals
from llfisher.bethe import (
    BoundaryCondition,
    ModelParams,
    StateSpec,
    _finish,
    ground_state,
    solve_bethe,
    type1_excitation,
)
from llfisher.wavefunction import (
    PhaseClass,
    _unit_phases,
    amplitudes,
    eval_lines,
    global_phase_class,
)

PER = BoundaryCondition.PERIODIC
HW = BoundaryCondition.HARD_WALL


def make(bc, n, params, spec=None):
    spec = spec or ground_state(bc, n)
    table = amplitudes(spec, params)
    return spec, table.solution, table


def row_labels(table, bc):
    """(perm, signs) of every table row by the documented row order.

    Sign vectors major, permutations minor, each in itertools order;
    every label is checked against the row's kappa = signs * k[perm].
    """
    n = table.n
    perms = list(itertools.permutations(range(n)))
    if bc is PER:
        sign_sets = [(1.0,) * n]
    else:
        sign_sets = list(itertools.product((1.0, -1.0), repeat=n))
    labels = [(perm, signs) for signs in sign_sets for perm in perms]
    assert len(labels) == table.n_terms
    for (perm, signs), kap in zip(labels, table.kappa):
        assert np.array_equal(kap, np.array(signs) * table.solution.k[list(perm)])
    return labels


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
    by_perm = {p: a for (p, _), a in zip(row_labels(table, PER), table.amp)}
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
    labels = row_labels(table, bc)
    rows = dict(zip(labels, table.amp))
    kappas = dict(zip(labels, table.kappa))
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
    rows = dict(zip(row_labels(table, HW), table.amp))
    # flipping the sign of the first argument leaves A invariant, so the
    # signed coefficient pi_eps A changes sign with pi_eps
    for (perm, signs), amp in rows.items():
        flipped = (signs[0] * -1.0,) + signs[1:]
        assert abs(amp + rows[(perm, flipped)]) < 1e-12


@pytest.mark.parametrize("bc,n", [(PER, n) for n in range(1, 6)] + [(HW, n) for n in range(1, 5)])
def test_amplitude_table_bits_match_the_textbook_rows(bc, n):
    # row by row, the factors f(kap_j - kap_l) and, in the box only,
    # f(-(kap_j + kap_l)) for j < l, with their d ln f/dc; a row's
    # coefficient is pi_eps times their product left to right, its
    # derivative i times the sum of d ln f/dc times that.  numpy rounds a
    # product over a stack of rows differently as the stack's memory layout
    # makes it reduce along each row or across the columns, so the table
    # must hold the bits of one of the two
    params = ModelParams(0.7, 1.3)
    _, sol, table = make(bc, n, params)
    c = params.c
    pairs = list(itertools.combinations(range(n), 2))
    labels = row_labels(table, bc)
    factors, logders = [], []
    for perm, signs in labels:
        kap = np.array(signs) * sol.k[list(perm)]
        dkap = np.array(signs) * sol.dk_dc[list(perm)]
        u = [kap[j] - kap[l] for j, l in pairs]
        du = [dkap[j] - dkap[l] for j, l in pairs]
        if bc is HW:
            u += [-(kap[j] + kap[l]) for j, l in pairs]
            du += [-(dkap[j] + dkap[l]) for j, l in pairs]
        u, du = np.array(u, dtype=float), np.array(du, dtype=float)
        factors.append(np.sign(u) * (u + 1j * c) / np.hypot(u, c))
        logders.append((u - c * du) / (u * u + c * c))
    factors, logders = np.array(factors), np.array(logders)
    pi_eps = np.array([np.prod(signs) for _, signs in labels])
    across = np.ones(len(labels), dtype=complex), np.zeros(len(labels))
    for f, d in zip(factors.T.copy(), logders.T.copy()):
        across = across[0] * f, across[1] + d
    along = np.prod(factors, axis=1), np.sum(logders, axis=1)
    assert any(
        np.array_equal(table.amp, pi_eps * product)
        and np.array_equal(table.damp, 1j * total * (pi_eps * product))
        for product, total in (along, across)
    )


def test_particle_cap_enforced(call_counts):
    counts = call_counts("solve_bethe")
    with pytest.raises(ValueError, match="cap"):
        amplitudes(ground_state(PER, 6), ModelParams(1.0, 1.0))
    with pytest.raises(ValueError, match="cap"):
        amplitudes(ground_state(HW, 5), ModelParams(1.0, 1.0))
    assert counts["solve_bethe"] == 0


def test_call_counts_rejects_a_name_no_module_binds(call_counts):
    # a renamed function would otherwise leave a zero count that passes
    with pytest.raises(LookupError, match="solve_bethe_renamed"):
        call_counts("solve_bethe_renamed")


def test_table_carries_its_solution():
    spec, params = type1_excitation(HW, 3, 1), ModelParams(0.7, 2.0)
    table = amplitudes(spec, params)
    solution = solve_bethe(spec, params)
    assert table.L == params.L and table.n == spec.n
    for field in ("k", "dk_dc", "norm_sq", "dnorm_sq_dc", "residual"):
        assert np.array_equal(getattr(table.solution, field), getattr(solution, field))
    assert not hasattr(table, "bc") and not hasattr(table, "weight")


def test_coincident_quasimomenta_rejected():
    # solve_bethe's root test, in _finish, rejects k that coincide in
    # double precision before any amplitude table is built on them
    from llfisher.bethe import DegenerateStateError, SolverError

    with pytest.raises(DegenerateStateError, match="^coincident quasimomenta") as info:
        _finish(ground_state(PER, 2), ModelParams(1.0, 1.0), np.array([1.0, 1.0 + 1e-16]), 0.0)
    # a collapsed state is a solver failure, not an invalid argument
    assert isinstance(info.value, SolverError)
    assert not isinstance(info.value, ValueError)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_single_particle_value_is_one():
    params = ModelParams(2.0, 1.0)
    spec, sol, table = make(PER, 1, params)
    vals, dvals = psi_at(table, [[0.0], [0.3], [0.99]])
    assert np.max(np.abs(vals - 1.0)) < 1e-14
    assert np.max(np.abs(dvals)) < 1e-14


def test_box_boundary_zeros():
    params = ModelParams(1.3, 1.0)
    spec, sol, table = make(HW, 2, params)
    rng = np.random.default_rng(5)
    sample = np.sort(rng.uniform(0, 1, size=(64, 2)), axis=1)
    scale = np.max(np.abs(psi_at(table, sample)[0]))
    at_zero, at_l = psi_at(table, [[0.0, 0.6], [0.4, 1.0]])[0]
    assert abs(at_zero) < 1e-10 * scale
    assert abs(at_l) < 1e-10 * scale


def test_ring_ground_state_is_real():
    params = ModelParams(0.7, 1.0)
    spec, sol, table = make(PER, 2, params)
    rng = np.random.default_rng(11)
    sample = np.sort(rng.uniform(0, 1, size=(128, 2)), axis=1)
    vals, _ = psi_at(table, sample)
    assert np.max(np.abs(vals.imag)) < 1e-10 * np.max(np.abs(vals))


def test_box_odd_n_is_purely_imaginary():
    params = ModelParams(0.9, 1.0)
    spec, sol, table = make(HW, 3, params)
    rng = np.random.default_rng(13)
    sample = np.sort(rng.uniform(0, 1, size=(64, 3)), axis=1)
    vals, _ = psi_at(table, sample)
    assert np.max(np.abs(vals.real)) < 1e-9 * np.max(np.abs(vals))


def test_continuity_at_coincidence():
    params = ModelParams(1.0, 1.0)
    spec, sol, table = make(PER, 3, params)
    eps = 1e-9
    # x_2 crosses x_3 = 0.5: the bosonic extension orders the coordinates
    below, above = psi_at(table, [[0.2, 0.5 - eps, 0.5], [0.2, 0.5, 0.5 + eps]])[0]
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
        vals, _ = psi_at(table, points)
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
    table = amplitudes(spec, params)

    h = 1e-6
    tab_hi = amplitudes(spec, ModelParams(c + h, L))
    tab_lo = amplitudes(spec, ModelParams(c - h, L))

    rng = np.random.default_rng(3)
    pts = np.sort(rng.uniform(0.05 * L, 0.95 * L, size=(32, n)), axis=1)
    _, dvals = psi_at(table, pts)
    hi, _ = psi_at(tab_hi, pts)
    lo, _ = psi_at(tab_lo, pts)
    numeric = (hi - lo) / (2 * h)
    scale = np.max(np.abs(numeric))
    assert np.max(np.abs(dvals - numeric)) < 1e-5 * scale


def _slice_lines(cells, order):
    """The factored nodes (outer, edges, u) that ``_simplex_rule`` makes on slice cells."""
    seen = []

    def record(outer, edges, u):
        seen.append((outer, edges, u))
        return np.zeros(outer.shape[:2] + u.shape[1:])

    integrals._simplex_rule(record, cells, order)
    return seen[0]


def _slice_points(outer, edges, u):
    """The nodes x = X + u e of slice lines as ring points, x_1 = 0 put in front, (M, N)."""
    y = outer[:, :, None, :] + u[None, :, :, None] * edges[:, None, None, :]
    return np.insert(y.reshape(-1, y.shape[-1]), 0, 0.0, axis=1)


def _slice_eval(table, outer, edges, u):
    """``eval_lines`` of a ring table on slice lines: its kappa columns 2..N."""
    return eval_lines(table.amp, table.damp, table.kappa[:, 1:], table.dkappa[:, 1:], outer, edges, u)


@pytest.mark.parametrize(
    "bc,n,c,L",
    [(HW, 4, 0.2, 10.0), (PER, 5, 0.2, 10.0), (HW, 4, 5.0, 1.0)],
    ids=["box4", "ring5", "box4-strong"],
)
def test_eval_lines_matches_mpmath_sum(bc, n, c, L):
    # the production evaluator stays at machine precision against a
    # 30-digit sum of the same table's 2^N N! (or N!) terms: in the box
    # on one cell of zero edge, whose outer points are the nodes (one
    # group); on the ring on the factored lines of the CFI slice's
    # reference cell, e = (L, 0, 0, 0), whose terms fall into N groups
    mp = pytest.importorskip("mpmath")
    params = ModelParams(c, L)
    spec, sol, table = make(bc, n, params)
    if bc is HW:
        rng = np.random.default_rng(7)
        pts = np.sort(rng.uniform(0, L, size=(8, n)), axis=1)
        vals, dvals = eval_lines(
            table.amp, table.damp, table.kappa, table.dkappa,
            pts[None], np.zeros((1, n)), np.zeros((len(pts), 1)),
        )
    else:
        lines = _slice_lines(L * integrals._reference_vertices(n - 1)[None], 2)
        vals, dvals = _slice_eval(table, *lines)
        pts = _slice_points(*lines)
    vals, dvals = vals.ravel(), dvals.ravel()
    w_amp, w_damp = table.amp, table.damp
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


@pytest.mark.parametrize(
    "qn", [(-1.0, 1.0, 2.0), (-1.5, -0.5, 0.5, 2.5), (-2.0, -1.0, 0.0, 1.0, 3.0)],
    ids=["ring3", "ring4", "ring5"],
)
def test_factored_lines_match_pointwise_evaluation(qn):
    # eval_lines sums each group of equal beta = kappa . e once per outer
    # point, and psi_at every term at every node; on the CFI slice's
    # reference cell (N groups of (N - 1)! terms), three rounds of its
    # bisection, and a cell whose innermost edge is tilted by 1e-11 L off
    # an axis, so the beta of terms that share k_{P_2} differ by about
    # 1e-11 of beta: merged, they would be 1e-10 off
    n, L = len(qn), 10.0
    table = amplitudes(StateSpec(PER, n, qn), ModelParams(0.2, L))
    reference = L * integrals._reference_vertices(n - 1)[None]
    tilted = reference.copy()
    tilted[0, -1, 1] += 1e-11 * L
    bisected = [reference]
    for _ in range(3):
        bisected.append(integrals._bisect(bisected[-1]))
    for cells in bisected + [tilted]:
        lines = _slice_lines(cells, 6)
        vals, dvals = _slice_eval(table, *lines)
        ref, dref = (a.reshape(vals.shape) for a in psi_at(table, _slice_points(*lines)))
        assert vals.shape == (len(cells), 6 ** (n - 2), 6)
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(dvals - dref)) <= 1e-13 * np.max(np.abs(dref))


# ---------------------------------------------------------------------------
# phase classification
# ---------------------------------------------------------------------------


def test_unit_phases_are_the_bits_of_the_complex_exponential():
    # cos and sin written into one complex array, against np.exp(1j * theta),
    # over the phase sizes kappa . x takes and far beyond (|theta| to 1e15)
    rng = np.random.default_rng(3)
    theta = np.concatenate(
        [rng.uniform(-50.0, 50.0, 50_000), rng.uniform(-1e15, 1e15, 50_000),
         [0.0, -0.0, np.pi, -np.pi / 2, 1e-300]]
    ).reshape(-1, 5)
    got, want = _unit_phases(theta), np.exp(1j * theta)
    assert got.shape == theta.shape and got.dtype == complex
    # sin(-0.0) keeps the sign that the complex product 1j * -0.0 drops
    signed_zero = np.stack([np.zeros_like(theta, bool), np.signbit(theta) & (theta == 0)], -1)
    same_bits = got.view(np.uint64) == want.view(np.uint64)
    assert np.all(same_bits.reshape(signed_zero.shape) | signed_zero)
    assert np.array_equal(got, want)


def test_phase_class_examples():
    params = ModelParams(1.0, 1.0)
    assert global_phase_class(ground_state(HW, 3)) is PhaseClass.IMAGINARY
    assert global_phase_class(ground_state(HW, 2)) is PhaseClass.REAL
    assert global_phase_class(StateSpec(PER, 2, (0.5, 2.5))) is PhaseClass.REAL
    assert global_phase_class(StateSpec(PER, 3, (-1.0, 0.0, 2.0))) is PhaseClass.GENERAL
    assert global_phase_class(StateSpec(PER, 3, (0.0, 1.0, 2.0))) is PhaseClass.REAL
    assert global_phase_class(type1_excitation(PER, 3, 1)) is PhaseClass.GENERAL
