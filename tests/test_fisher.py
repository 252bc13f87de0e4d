"""QFI/CFI assembly, oracles, optimal system size and sweeps."""

import itertools
import math

import numpy as np
import pytest

import llfisher.fisher
from llfisher.bethe import (
    BoundaryCondition,
    ModelParams,
    SolverError,
    StateSpec,
    ground_state,
    solve_bethe,
    type1_excitation,
)
from llfisher.fisher import (
    BracketError,
    _cfi_quadrature,
    _inner_products,
    cfi,
    fisher_report,
    lmax,
    ordered_overlap,
    qfi_analytic,
    qfi_overlap_oracle,
    sweep,
)
from llfisher.wavefunction import AmplitudeTable, amplitudes

PER = BoundaryCondition.PERIODIC
HW = BoundaryCondition.HARD_WALL


# ---------------------------------------------------------------------------
# analytic QFI
# ---------------------------------------------------------------------------


def test_single_particle_qfi_is_zero():
    # one particle carries no coupling information (k is c-independent)
    params = ModelParams(1.0, 2.0)
    assert qfi_analytic(ground_state(PER, 1), params) == pytest.approx(0.0, abs=1e-15)
    assert qfi_analytic(ground_state(HW, 1), params) == pytest.approx(0.0, abs=1e-15)


def test_dimensionless_scaling_law():
    # the Bethe equations depend on (c L, N) only, so F(c, L) = L^2 F(cL, 1)
    spec = ground_state(PER, 3)
    c, L = 0.4, 7.0
    lhs = qfi_analytic(spec, ModelParams(c, L))
    rhs = L**2 * qfi_analytic(spec, ModelParams(c * L, 1.0))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_translation_invariance_of_qfi():
    params = ModelParams(0.7, 3.0)
    base = qfi_analytic(StateSpec(PER, 2, (-0.5, 0.5)), params)
    shifted = qfi_analytic(StateSpec(PER, 2, (1.5, 2.5)), params)
    assert shifted == pytest.approx(base, rel=1e-9)


def test_difference_reversal_invariance_of_qfi():
    params = ModelParams(0.7, 3.0)
    a = qfi_analytic(StateSpec(PER, 3, (-1.0, 0.0, 2.0)), params)
    b = qfi_analytic(StateSpec(PER, 3, (-1.0, 1.0, 2.0)), params)
    assert a == pytest.approx(b, rel=1e-9)


def test_box_states_have_distinct_qfi():
    # no exact coincidences: the box QFI depends on the quasimomenta
    # themselves, not only on their differences
    params = ModelParams(0.2, 30.0)
    states = [
        (1.0, 2.0, 3.0),
        (1.0, 2.0, 4.0),
        (1.0, 2.0, 5.0),
        (1.0, 2.0, 6.0),
        (1.0, 3.0, 4.0),
        (2.0, 3.0, 4.0),
    ]
    values = [qfi_analytic(StateSpec(HW, 3, qn), params) for qn in states]
    values = sorted(values)
    gaps = np.diff(values) / np.abs(values[:-1])
    assert np.all(gaps > 1e-6)


def _divide_by_c_qfi(spec, params):
    """QFI with every ansatz factor 1 + ic/u divided by c, built row by row.

    Each factor 1/c + i/u has a log-derivative without a uniform 1/c
    term, so the assembly does not cancel at strong coupling.  The table
    and its norm (the ordered-domain overlap, not the closed form) come
    from no amplitude or norm code of the package.
    """
    sol = solve_bethe(spec, params)
    k, dk, c, n = sol.k, sol.dk_dc, params.c, spec.n
    if spec.bc is PER:
        sign_sets = [(1.0,) * n]
    else:
        sign_sets = list(itertools.product((1.0, -1.0), repeat=n))
    rows = []
    for signs in sign_sets:
        for perm in itertools.permutations(range(n)):
            kap = [s * k[p] for s, p in zip(signs, perm)]
            dkap = [s * dk[p] for s, p in zip(signs, perm)]
            amp, logder = 1.0 + 0.0j, 0.0j
            for j, l in itertools.combinations(range(n), 2):
                args = [(kap[j] - kap[l], dkap[j] - dkap[l])]
                if spec.bc is HW:
                    args.append((-(kap[j] + kap[l]), -(dkap[j] + dkap[l])))
                for u, du in args:
                    f = 1.0 / c + 1j / u
                    amp *= f
                    logder += (-1.0 / c**2 - 1j * du / u**2) / f
            # signed coefficients pi_eps A and pi_eps dA/dc
            weight = math.prod(signs)
            rows.append((perm, signs, weight * amp, weight * amp * logder, kap, dkap))
    perms, signs, amp, damp, kappa, dkappa = (np.array(col) for col in zip(*rows))
    table = AmplitudeTable(sol, params.L, perms, signs, amp, damp, kappa, dkappa)
    nn, nd, dd = _inner_products(table)
    return (4.0 / nn.real * (dd - abs(nd) ** 2 / nn.real)).real


def test_ring_qfi_settles_at_strong_coupling():
    # Tonks-Girardeau limit: QFI c^4 = a + b/c + O(1/c^2) at L = 1.  The
    # b/c term is physical (3.7e-6 relative between c = 1e7 and 1e9), so
    # c = 1e9 is checked against the 1/c extrapolation from 1e7 and 1e8
    spec = ground_state(PER, 3)
    q7, q8, q9 = (qfi_analytic(spec, ModelParams(c, 1.0)) * c**4 for c in (1e7, 1e8, 1e9))
    limit = (10.0 * q8 - q7) / 9.0
    assert q9 == pytest.approx(q7, rel=1e-5)
    assert q9 == pytest.approx(limit + (q8 - limit) / 10.0, rel=1e-9)
    assert q9 == pytest.approx(_divide_by_c_qfi(spec, ModelParams(1e9, 1.0)) * 1e36, rel=1e-8)


@pytest.mark.parametrize("c", [1e4, 1e5])
def test_box_qfi_matches_divide_by_c_gauge_at_strong_coupling(c):
    spec = ground_state(HW, 3)
    params = ModelParams(c, 1.0)
    expected = _divide_by_c_qfi(spec, params)
    assert qfi_analytic(spec, params) == pytest.approx(expected, rel=1e-8, abs=0.0)


@pytest.mark.parametrize(
    "spec,params",
    [
        (ground_state(PER, 2), ModelParams(1.0, 1.0)),
        (ground_state(HW, 2), ModelParams(1.0, 1.0)),
        (ground_state(PER, 3), ModelParams(0.5, 2.0)),
        (ground_state(HW, 3), ModelParams(1.0, 1.0)),
    ],
)
def test_qfi_matches_fidelity_oracle(spec, params):
    analytic = qfi_analytic(spec, params)
    oracle = qfi_overlap_oracle(spec, params)
    assert analytic == pytest.approx(oracle, rel=1e-3)


def test_same_state_overlap_is_normalized():
    params = ModelParams(1.0, 1.0)
    for bc, n in [(PER, 2), (HW, 2), (PER, 3)]:
        table = amplitudes(ground_state(bc, n), params)
        ov = ordered_overlap(table, table) / table.solution.norm_sq
        assert abs(ov - 1.0) < 1e-10


def test_overlap_rejects_tables_at_different_sizes():
    spec = ground_state(PER, 2)
    table_a = amplitudes(spec, ModelParams(1.0, 1.0))
    table_b = amplitudes(spec, ModelParams(1.0, 2.0))
    with pytest.raises(ValueError, match="different sizes"):
        ordered_overlap(table_a, table_b)


def test_overlap_sum_equals_determinant_norm():
    # the permutation-pair sum of I(kappa_t - kappa_s) is an independent
    # route to the squared norm
    params = ModelParams(0.8, 2.0)
    for bc, n in [(PER, 2), (HW, 2), (PER, 3), (HW, 3)]:
        table = amplitudes(ground_state(bc, n), params)
        n2 = table.solution.norm_sq
        ov = ordered_overlap(table, table)
        assert ov.real == pytest.approx(n2, rel=1e-10)
        assert abs(ov.imag) < 1e-10 * n2


def test_oracle_richardson_consistency():
    # symmetric stencil: halving delta should shrink the error by ~4
    spec = ground_state(PER, 2)
    params = ModelParams(1.0, 1.0)
    analytic = qfi_analytic(spec, params)
    err_big = abs(qfi_overlap_oracle(spec, params, delta=4e-2) - analytic)
    err_small = abs(qfi_overlap_oracle(spec, params, delta=2e-2) - analytic)
    assert err_small < 0.5 * err_big


def test_oracle_one_sided_near_zero_coupling():
    # the centred stencil would solve at c - delta/2 < 0
    params = ModelParams(1e-6, 10.0)
    for spec in (ground_state(PER, 2), ground_state(HW, 3)):
        analytic = qfi_analytic(spec, params)
        assert qfi_overlap_oracle(spec, params) == pytest.approx(analytic, rel=1e-3)


def test_oracle_rejects_bad_delta():
    with pytest.raises(ValueError):
        qfi_overlap_oracle(ground_state(PER, 2), ModelParams(1.0, 1.0), delta=0.0)


# ---------------------------------------------------------------------------
# CFI
# ---------------------------------------------------------------------------


def test_cfi_shortcut_for_saturated_states():
    params = ModelParams(1.0, 1.0)
    spec = ground_state(PER, 2)
    assert cfi(spec, params) == qfi_analytic(spec, params)


def test_forced_quadrature_cfi_matches_analytic():
    params = ModelParams(1.0, 1.0)
    for bc in (PER, HW):
        spec = ground_state(bc, 2)
        analytic = qfi_analytic(spec, params)
        quad = _cfi_quadrature(amplitudes(spec, params))
        assert quad == pytest.approx(analytic, rel=1e-4)


def test_general_ring_state_gap_is_small_and_nonnegative():
    # asymmetric N=3 ring state: CFI <= QFI with a minor gap
    spec = StateSpec(PER, 3, (-1.0, 0.0, 2.0))
    params = ModelParams(0.2, 20.0)
    report = fisher_report(spec, params)
    assert report.method["cfi_route"] == "quadrature"
    assert report.cfi <= report.qfi * (1 + 1e-9)
    assert report.phase_variance_term >= 0.0
    assert report.phase_variance_term < 0.1 * report.qfi


def test_cfi_quadrature_near_zero_coupling():
    # the quadrature stays continuous as c -> 0 on a state whose free momenta are distinct
    spec = StateSpec(PER, 3, (-1.0, 1.0, 2.0))
    tiny = cfi(spec, ModelParams(1e-6, 1.0))
    assert tiny == pytest.approx(cfi(spec, ModelParams(1e-4, 1.0)), rel=1e-4)
    assert tiny <= qfi_analytic(spec, ModelParams(1e-6, 1.0))


def test_fisher_report_solves_and_tabulates_once(call_counts):
    # one Bethe solve and one amplitude table feed both the QFI assembly
    # and the CFI quadrature of a general-class state
    counts = call_counts("solve_bethe", "amplitudes")
    report = fisher_report(StateSpec(PER, 3, (-1.0, 1.0, 2.0)), ModelParams(1.0, 1.0))
    assert report.method["cfi_route"] == "quadrature"
    assert report.method["quadrature_order"] is not None
    assert counts == {"solve_bethe": 1, "amplitudes": 1}


ONE_TABLE_CASES = [
    (ground_state(HW, 3), 0.2, (45.0, 90.0)),
    (StateSpec(PER, 3, (-1.0, 1.0, 2.0)), 1.0, (5.0, 40.0)),
]


@pytest.mark.parametrize("spec,c,bracket", ONE_TABLE_CASES, ids=["box3", "ring3-general"])
def test_cfi_and_lmax_objective_solve_and_tabulate_once(call_counts, spec, c, bracket):
    counts = call_counts("solve_bethe", "amplitudes", "cfi")
    llfisher.fisher.cfi(spec, ModelParams(c, bracket[0]))
    assert counts == {"solve_bethe": 1, "amplitudes": 1, "cfi": 1}
    # the general ring state's objective also passes the QFI residue check
    # over the whole bracket
    l_best, f_best = lmax(spec, c, bracket, tol=3.0)
    assert bracket[0] < l_best < bracket[1] and f_best > 0.0
    # every objective evaluation is one cfi call
    assert counts["cfi"] > 3
    assert counts["solve_bethe"] == counts["amplitudes"] == counts["cfi"]


@pytest.mark.parametrize("spec,c,bracket", ONE_TABLE_CASES, ids=["box3", "ring3-general"])
def test_cfi_is_the_report_cfi(spec, c, bracket):
    params = ModelParams(c, bracket[0])
    assert cfi(spec, params) == fisher_report(spec, params).cfi


def test_report_invariants():
    report = fisher_report(ground_state(HW, 3), ModelParams(0.5, 5.0))
    assert report.qfi >= report.cfi >= 0.0
    assert report.phase_variance_term == pytest.approx(report.qfi - report.cfi, abs=1e-12)
    assert report.method["phase_class"] == "imaginary"
    assert report.method["qfi_imag_residue"] < 1e-8


# ---------------------------------------------------------------------------
# optimal system size
# ---------------------------------------------------------------------------


def test_lmax_finds_interior_maximum():
    spec = ground_state(PER, 2)
    l_best, f_best = lmax(spec, 0.2, (5.0, 200.0))
    assert 0.2 * l_best == pytest.approx(10.55, rel=0.01)
    # the returned value is the objective at the maximum
    assert f_best == pytest.approx(cfi(spec, ModelParams(0.2, l_best)), rel=1e-9)


def test_lmax_bracket_errors():
    spec = ground_state(PER, 2)
    with pytest.raises(BracketError):
        lmax(spec, 0.2, (150.0, 250.0))  # maximum near 52.7 lies outside
    with pytest.raises(ValueError):
        lmax(spec, 0.2, (10.0, 5.0))
    # an infinite edge used to be reported as a bad tolerance or system size
    for tol in (None, 0.1):
        with pytest.raises(ValueError, match="bracket"):
            lmax(spec, 0.2, (10.0, float("inf")), tol=tol)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_lmax_rejects_bad_tolerance(monkeypatch, tol):
    # a cheap objective that gives up instead of letting a search that
    # never meets its tolerance run forever
    calls = []

    def parabola(spec, params):
        calls.append(params.L)
        if len(calls) > 500:
            raise RuntimeError("golden section did not stop")
        return -((params.L - 50.0) ** 2)

    monkeypatch.setattr(llfisher.fisher, "cfi", parabola)
    with pytest.raises(ValueError, match="tolerance"):
        lmax(ground_state(PER, 2), 0.2, (10.0, 150.0), tol=tol)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_monotone_decreasing_in_c():
    spec = ground_state(PER, 2)
    result = sweep(spec, "c", np.linspace(0.05, 3.0, 6), fixed_value=1.0)
    assert result.trend("cfi") == "decreasing"
    assert all(r is not None for r in result.reports)


def test_sweep_in_l_rises_and_decays():
    spec = ground_state(PER, 2)
    grid = np.array([2.0, 20.0, 52.0, 120.0, 220.0])
    result = sweep(spec, "L", grid, fixed_value=0.2)
    values = result.values("cfi")
    peak = int(np.argmax(values))
    assert 0 < peak < len(grid) - 1
    assert result.trend("cfi") == "mixed"


def test_ring_cfi_below_box_cfi():
    grid = np.array([0.3, 1.0, 2.5])
    ring = sweep(ground_state(PER, 2), "c", grid, fixed_value=4.0)
    box = sweep(ground_state(HW, 2), "c", grid, fixed_value=4.0)
    assert np.all(ring.values("cfi") <= box.values("cfi"))


def test_sweep_records_per_point_failures():
    # c = 0 is degenerate for the ground state: that point fails, the rest pass
    spec = ground_state(PER, 2)
    result = sweep(spec, "c", [0.0, 0.5, 1.0], fixed_value=1.0)
    assert result.reports[0] is None
    assert 0 in result.errors
    assert result.reports[1] is not None and result.reports[2] is not None


def test_sweep_validation():
    spec = ground_state(PER, 2)
    with pytest.raises(ValueError):
        sweep(spec, "c", [], fixed_value=1.0)
    with pytest.raises(ValueError):
        sweep(spec, "c", [1.0, 0.5], fixed_value=1.0)
    with pytest.raises(ValueError):
        sweep(spec, "x", [1.0], fixed_value=1.0)


def test_sweep_rejects_out_of_domain_points_up_front(monkeypatch):
    # a negative fixed coupling is an argument error, not a point failure
    def unreachable(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(llfisher.fisher, "fisher_report", unreachable)
    with pytest.raises(ValueError, match="interaction strength"):
        sweep(ground_state(PER, 2), "L", [1.0, 2.0], fixed_value=-1.0)
    with pytest.raises(ValueError, match="system size"):
        sweep(ground_state(PER, 2), "c", [1.0, 2.0], fixed_value=0.0)


def test_sweep_error_keeps_class_name(monkeypatch):
    def failing(*args, **kwargs):
        raise SolverError("no convergence")

    monkeypatch.setattr(llfisher.fisher, "fisher_report", failing)
    result = sweep(ground_state(PER, 2), "c", [0.5, 1.0], fixed_value=1.0)
    assert result.errors == {0: "SolverError: no convergence", 1: "SolverError: no convergence"}


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bad call")

    monkeypatch.setattr(llfisher.fisher, "fisher_report", broken)
    with pytest.raises(TypeError, match="bad call"):
        sweep(ground_state(PER, 2), "c", [0.5, 1.0], fixed_value=1.0)
