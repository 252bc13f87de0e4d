"""QFI/CFI assembly, oracles, optimal system size and sweeps."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import box_quadrature, cfi_full_simplex, psi_at, qfi_overlap_oracle
from scipy.optimize import minimize_scalar

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
    _domain,
    _inner_products,
    cfi,
    fisher_report,
    lmax,
    qfi_analytic,
    sweep,
)
from llfisher import integrals
from llfisher.integrals import NumericalHealthError
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
            rows.append((weight * amp, weight * amp * logder, kap, dkap))
    amp, damp, kappa, dkappa = (np.array(col) for col in zip(*rows))
    table = AmplitudeTable(sol, params.L, amp, damp, kappa, dkappa)
    nn, nd, dd, _, _, _ = _inner_products(table)
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
        nn = _inner_products(table)[0]
        assert abs(nn / table.solution.norm_sq - 1.0) < 1e-10


def test_overlap_sum_equals_determinant_norm():
    # the permutation-pair sum of I(kappa_t - kappa_s) is an independent
    # route to the squared norm
    params = ModelParams(0.8, 2.0)
    for bc, n in [(PER, 2), (HW, 2), (PER, 3), (HW, 3)]:
        table = amplitudes(ground_state(bc, n), params)
        n2 = table.solution.norm_sq
        ov = _inner_products(table)[0]
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


def _break_in_llfisher(monkeypatch, names: tuple, message: str) -> None:
    """Make every llfisher binding of ``names`` raise AssertionError(message)."""

    def broken(*args, **kwargs):
        raise AssertionError(message)

    patched = set()
    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "llfisher"]:
        for name in names:
            if name in vars(mod):
                monkeypatch.setattr(mod, name, broken)
                patched.add(name)
    assert patched == set(names)


def test_fidelity_oracle_shares_no_kernel_with_the_qfi(monkeypatch):
    # with the pair bundles and the simplex-integral kernel unusable, the
    # oracle still reproduces the QFI computed before they were broken
    cases = [
        (ground_state(HW, 3), ModelParams(1.0, 1.0)),
        (ground_state(PER, 3), ModelParams(0.5, 2.0)),
    ]
    analytic = [qfi_analytic(spec, params) for spec, params in cases]
    _break_in_llfisher(
        monkeypatch, ("_pair_integrals", "simplex_exp_integral"), "the oracle reached the QFI kernel"
    )
    with pytest.raises(AssertionError, match="reached the QFI kernel"):
        qfi_analytic(*cases[0])
    for (spec, params), expected in zip(cases, analytic):
        assert qfi_overlap_oracle(spec, params) == pytest.approx(expected, rel=1e-3)


GENERAL_RING3 = (StateSpec(PER, 3, (-1.0, 1.0, 2.0)), ModelParams(0.2, 10.0))


def _oracle_runs() -> dict:
    """Every integral oracle, each on one case, as name -> call."""
    table = amplitudes(*GENERAL_RING3)
    box_table = amplitudes(ground_state(HW, 2), ModelParams(1.0, 1.0))

    def density(pts):
        vals, _ = psi_at(box_table, pts)
        return vals.real**2 + vals.imag**2

    return {
        "cfi_full_simplex": lambda: cfi_full_simplex(table),
        "qfi_overlap_oracle ring": lambda: qfi_overlap_oracle(
            ground_state(PER, 3), ModelParams(0.5, 2.0)
        ),
        "qfi_overlap_oracle box": lambda: qfi_overlap_oracle(
            ground_state(HW, 3), ModelParams(1.0, 1.0)
        ),
        "box_quadrature": lambda: box_quadrature(density, [(0.25, 0.75)] * 2, 12),
    }


def test_oracles_share_no_gauss_legendre_rule_with_the_package(monkeypatch):
    # with the package's Gauss-Legendre layer unusable, the CFI rule among
    # it, every oracle still gives the values it gave before the break
    oracles = _oracle_runs()
    before = {name: run() for name, run in oracles.items()}
    _break_in_llfisher(
        monkeypatch,
        ("simplex_nodes", "_simplex_rule", "refined_simplex_quadrature"),
        "the oracle reached the package's Gauss-Legendre rule",
    )
    with pytest.raises(AssertionError, match="Gauss-Legendre rule"):
        cfi(*GENERAL_RING3)
    assert {name: run() for name, run in oracles.items()} == before


def test_oracles_share_no_psi_evaluator_with_the_package(monkeypatch):
    # with the package's evaluator of psi~ and its phase routine unusable,
    # every oracle still gives the values it gave before the break
    oracles = _oracle_runs()
    before = {name: run() for name, run in oracles.items()}
    _break_in_llfisher(
        monkeypatch, ("eval_lines", "_unit_phases"), "the oracle reached the package's evaluator"
    )
    with pytest.raises(AssertionError, match="package's evaluator"):
        cfi(*GENERAL_RING3)
    assert {name: run() for name, run in oracles.items()} == before


# ---------------------------------------------------------------------------
# pair and bundle counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,pairs,groups,bundles",
    [
        (StateSpec(HW, 3, (1.0, 2.0, 4.0)), 2304, 253, 253),
        (ground_state(PER, 4), 576, 127, 71),
    ],
    ids=["box124", "ring4"],
)
def test_report_counts_pairs_and_bundles(spec, pairs, groups, bundles):
    # the ring's mirror-symmetric k merge plan groups into fewer bundles
    method = fisher_report(spec, ModelParams(0.2, 10.0)).method
    counts = (method["qfi_pairs"], method["qfi_plan_groups"], method["qfi_bundles"])
    assert counts == (pairs, groups, bundles)


SCALING_STATES = {
    "ring4": ground_state(PER, 4),
    "box3": ground_state(HW, 3),
    "ring-112": StateSpec(PER, 3, (-1.0, 1.0, 2.0)),
}


@pytest.mark.parametrize("name", SCALING_STATES)
def test_qfi_scaling_law_at_extreme_sizes(name):
    # QFI(c, L) = L^2 QFI(cL, 1), and the CFI likewise.  A degeneracy
    # quantum with an absolute floor merged distinct pair vectors once
    # |kappa| << 1 (ring N = 4 was 1.9x off at L = 1e10), |nd|^2 underflowed
    # at L = 1e-34 (5.9x off), and the degeneracy test of ``amplitudes``,
    # floored at |u| < 1e-14, rejected every state from L = 1e15 on
    spec = SCALING_STATES[name]
    reference = fisher_report(spec, ModelParams(2.0, 1.0))
    for j in list(range(-34, -19)) + list(range(6, 15)) + list(range(15, 31, 3)):
        L = 10.0**j
        report = fisher_report(spec, ModelParams(2.0 / L, L))
        assert report.qfi / L**2 == pytest.approx(reference.qfi, rel=1e-12), f"L = 1e{j}"
        assert report.cfi / L**2 == pytest.approx(reference.cfi, rel=1e-12), f"L = 1e{j}"


def test_ring_cfi_scaling_law_where_the_normalized_density_underflows(monkeypatch):
    # a CFI integrand built on the normalized psi lost its digits to
    # underflow here (1.1 % low at L = 1e40, 0 from 1e41); on psi~ and
    # divided by NS once it obeys CFI(c, L) = L^2 CFI(cL, 1).  The law holds
    # for any fixed rule pair, so a (4, 3) one, with its error check lifted
    # and so no refinement, keeps the 4-D integral cheap
    monkeypatch.setattr(llfisher.fisher, "CFI_RULE_PAIR_4D", (4, 3))
    monkeypatch.setattr(llfisher.fisher, "CFI_ERROR_RTOL", math.inf)
    spec = StateSpec(PER, 5, (-2.0, -1.0, 0.0, 1.0, 3.0))
    reference, _, orders, _, cells = _cfi_quadrature(amplitudes(spec, ModelParams(2.0, 1.0)))
    L = 1e41
    scaled = _cfi_quadrature(amplitudes(spec, ModelParams(2.0 / L, L)))[0]
    assert orders == (4, 3) and cells == 1 and reference > 0.0
    assert scaled / L**2 == pytest.approx(reference, rel=1e-12)


def test_qfi_assembly_rejects_a_non_finite_value(monkeypatch):
    # a NaN QFI passed the residue check, NaN > QFI_IMAG_RTOL being False
    table = amplitudes(ground_state(PER, 2), ModelParams(1.0, 1.0))
    nn, nd, _, nd_mag, dd_mag, n_bundles = _inner_products(table)
    monkeypatch.setattr(
        llfisher.fisher,
        "_inner_products",
        lambda table: (nn, nd, complex(math.nan), nd_mag, dd_mag, n_bundles),
    )
    with pytest.raises(NumericalHealthError, match="non-finite"):
        llfisher.fisher._qfi_with_residue(table)


def test_qfi_assembly_rejects_a_cauchy_schwarz_violation(monkeypatch):
    # |nd|^2 <= NS dd holds for the exact inner products, so a real QFI
    # below 0 can only be a pair sum cancelled beyond its rounding: here
    # |nd|^2 / NS = NS and dd = NS / 2 give -2, with no residue
    table = amplitudes(ground_state(PER, 2), ModelParams(1.0, 1.0))
    nn, _, _, nd_mag, dd_mag, n_bundles = _inner_products(table)
    n2 = table.solution.norm_sq
    monkeypatch.setattr(
        llfisher.fisher,
        "_inner_products",
        lambda table: (nn, complex(n2), complex(0.5 * n2), nd_mag, dd_mag, n_bundles),
    )
    with pytest.raises(NumericalHealthError, match="negative value -2.000000e"):
        llfisher.fisher._qfi_with_residue(table)


def test_qfi_cancellation_is_named_before_its_residue(monkeypatch):
    # a cancelled pair sum leaves rounding in the imaginary part too: here
    # QFI = 4 (1 + 1e-6 i), a residue of 1e-6, and |dd| terms of 1e12 NS an
    # error estimate of 2.2e-4; both are above their bounds, and the guard
    # names the cause, not the residue that the summation order sized
    table = amplitudes(ground_state(PER, 2), ModelParams(1.0, 1.0))
    nn, _, _, nd_mag, _, n_bundles = _inner_products(table)
    n2 = table.solution.norm_sq
    monkeypatch.setattr(
        llfisher.fisher,
        "_inner_products",
        lambda table: (nn, 0j, n2 * (1 + 1e-6j), nd_mag, 1e12 * n2, n_bundles),
    )
    with pytest.raises(NumericalHealthError, match="cancelled to an error estimate of 2.2"):
        llfisher.fisher._qfi_with_residue(table)


def test_imaginary_residue_is_relative_at_tiny_qfi():
    # QFI ~ 1e-42 here: a residue divided by max(|QFI|, 1e-30) read 5e-28
    # and could never reach the health bound
    report = fisher_report(StateSpec(PER, 3, (-1.0, 1.0, 2.0)), ModelParams(2e20, 1e-20))
    assert 1e-19 < report.method["qfi_imag_residue"] < llfisher.fisher.QFI_IMAG_RTOL


def _full_simplex_qfi(table):
    """The QFI of a table from its N-D pair integrals, with no translation reduction."""
    plan = integrals._pair_plan(table.periodic, table.n, table.n)
    (i00, a, quad), _ = integrals._pair_integrals(table.kappa, table.dkappa, table.L, 2, plan)
    amp, damp = table.amp, table.damp
    nd = np.conj(amp) @ i00 @ damp + 1j * (np.conj(amp) @ a @ amp)
    dd = (
        np.conj(damp) @ i00 @ damp
        + 1j * (np.conj(damp) @ a @ amp)
        - 1j * (np.conj(amp) @ np.conj(a.T) @ damp)
        + np.conj(amp) @ quad @ amp
    )
    n2 = table.solution.norm_sq
    return (4.0 / n2 * (dd - abs(nd) ** 2 / n2)).real


@pytest.mark.parametrize("c,L", [(0.2, 10.0), (1e8, 1.0)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ring_qfi_on_the_slice_matches_the_full_simplex(n, c, L):
    # psi~* psi~, psi~* d_c psi~ and |d_c psi~|^2 are translation invariant
    # on the ring, so the (N - 1)-D slice x_1 = 0 times L/N gives the N-D sums
    table = amplitudes(ground_state(PER, n), ModelParams(c, L))
    sliced = llfisher.fisher._qfi_with_residue(table)[0]
    assert sliced == pytest.approx(_full_simplex_qfi(table), rel=1e-13, abs=0.0)


def test_single_ring_particle_qfi_is_exactly_zero():
    # its x_1 = 0 slice has no coordinate left, so it takes the full simplex
    # [0, L], one bundle; dkappa = 0 and damp = 0 make every d_c term vanish
    report = fisher_report(ground_state(PER, 1), ModelParams(1.0, 2.0))
    assert report.qfi == 0.0 and report.method["qfi_bundles"] == 1
    assert report.method["qfi_error_estimate"] == 0.0


def _fsum_inner_products(table):
    """``_inner_products`` by a loop over the pairs (t, s) and ``math.fsum``.

    The 4-term expansion of the forms on the same ``_pair_integrals``
    matrices, with b[t, s] = conj(a[s, t]), so the values are the exactly
    rounded sums of the rounded terms.  Returns nn, nd, dd and their |term|
    sums (nn's included).
    """
    if table.periodic and table.n > 1:
        scale, kappa, dkappa = table.L / table.n, table.kappa[:, 1:], table.dkappa[:, 1:]
    else:
        scale, kappa, dkappa = 1.0, table.kappa, table.dkappa
    plan = integrals._pair_plan(table.periodic, table.n, kappa.shape[1])
    (i00, a, quad), _ = integrals._pair_integrals(kappa, dkappa, table.L, 2, plan)
    amp, damp = table.amp, table.damp
    terms = {"nn": [], "nd": [], "dd": []}
    for t, s in itertools.product(range(len(amp)), repeat=2):
        ca, cd = np.conj(amp[t]), np.conj(damp[t])
        terms["nn"].append(ca * amp[s] * i00[t, s])
        terms["nd"] += [ca * damp[s] * i00[t, s], 1j * ca * amp[s] * a[t, s]]
        terms["dd"] += [
            cd * damp[s] * i00[t, s],
            1j * cd * amp[s] * a[t, s],
            -1j * ca * damp[s] * np.conj(a[s, t]),
            ca * amp[s] * quad[t, s],
        ]
    values = {
        key: scale * complex(math.fsum(z.real for z in ts), math.fsum(z.imag for z in ts))
        for key, ts in terms.items()
    }
    bounds = {key: scale * math.fsum(abs(z) for z in ts) for key, ts in terms.items()}
    return values, bounds


@pytest.mark.parametrize(
    "spec",
    [ground_state(PER, 1), StateSpec(PER, 3, (-1.0, 1.0, 2.0)), ground_state(HW, 3)],
    ids=["ring1", "ring-112", "box3"],
)
def test_inner_products_are_the_forms_of_the_pair_expansion(spec):
    # the Gram-matrix forms against an exactly rounded sum of the same terms:
    # each value within eps of its |term| sum, and the two |term| sums equal
    table = amplitudes(spec, ModelParams(0.2, 10.0))
    nn, nd, dd, nd_mag, dd_mag, _ = _inner_products(table)
    values, bounds = _fsum_inner_products(table)
    assert nd_mag == pytest.approx(bounds["nd"], rel=1e-13, abs=0.0)
    assert dd_mag == pytest.approx(bounds["dd"], rel=1e-13, abs=0.0)
    for key, value in (("nn", nn), ("nd", nd), ("dd", dd)):
        assert abs(value - values[key]) <= sys.float_info.epsilon * bounds[key], key


@pytest.mark.parametrize("gamma", [1e-9, 1e-11, 1e-13])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_qfi_error_estimate_bounds_the_weak_coupling_cancellation(monkeypatch, n, gamma):
    # at L = 1 the ring ground-state QFI tends to C(N, 2)/180 as c -> 0
    # (second-order perturbation theory), with a relative O(c) term below
    # 1e-9 here, so the distance to that limit is the pair sum's rounding.
    # Measured estimate / error: 4.7 to 2,800.  Both checks are lifted, as
    # some of these points fail the residue one
    monkeypatch.setattr(llfisher.fisher, "QFI_ERROR_RTOL", math.inf)
    monkeypatch.setattr(llfisher.fisher, "QFI_IMAG_RTOL", math.inf)
    table = amplitudes(ground_state(PER, n), ModelParams(gamma, 1.0))
    value, _, estimate, _ = llfisher.fisher._qfi_with_residue(table)
    limit = math.comb(n, 2) / 180.0
    assert abs(value - limit) <= estimate * value


def test_cancelled_qfi_is_a_numerical_health_error():
    # ring N = 2 at gamma = 1e-12 read as ok with a QFI of 0.0055983 against
    # 1/180 (ring N = 3 at 1e-14 is a CLI test)
    with pytest.raises(NumericalHealthError, match="QFI pair sum cancelled"):
        fisher_report(ground_state(PER, 2), ModelParams(1e-12, 1.0))
    report = fisher_report(ground_state(PER, 2), ModelParams(1e-6, 1.0))
    assert 0.0 < report.method["qfi_error_estimate"] <= llfisher.fisher.QFI_ERROR_RTOL


# ---------------------------------------------------------------------------
# CFI
# ---------------------------------------------------------------------------


def test_cfi_shortcut_for_saturated_states():
    params = ModelParams(1.0, 1.0)
    spec = ground_state(PER, 2)
    assert cfi(spec, params) == qfi_analytic(spec, params)


def test_forced_quadrature_cfi_matches_analytic():
    # the ring takes the production (N - 1)-D rule; the box, which fisher_report
    # never integrates, the N-D oracle rule
    params = ModelParams(1.0, 1.0)
    ring = amplitudes(ground_state(PER, 2), params)
    quad, dim = _cfi_quadrature(ring)[:2]
    assert quad == pytest.approx(qfi_analytic(ground_state(PER, 2), params), rel=1e-4)
    assert dim == 1
    box = cfi_full_simplex(amplitudes(ground_state(HW, 2), params))
    assert box == pytest.approx(qfi_analytic(ground_state(HW, 2), params), rel=1e-4)


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
    assert report.method["quadrature_orders"] is not None
    assert counts == {"solve_bethe": 1, "amplitudes": 1}


def test_fisher_report_names_the_rule_it_used():
    # a ring N = 4 state takes the 3-D rule pair, and reports its error estimate
    report = fisher_report(StateSpec(PER, 4, (-1.5, -0.5, 0.5, 2.5)), ModelParams(0.2, 10.0))
    assert report.method["quadrature_dim"] == 3
    assert report.method["quadrature_orders"] == llfisher.fisher.CFI_RULE_PAIR
    assert report.method["quadrature_cells"] == 1
    assert 0.0 < report.method["cfi_error_estimate"] <= llfisher.fisher.CFI_ERROR_RTOL
    saturated = fisher_report(ground_state(PER, 3), ModelParams(0.2, 10.0))
    for key in ("quadrature_dim", "quadrature_orders", "quadrature_cells", "cfi_error_estimate"):
        assert saturated.method[key] is None


@pytest.mark.parametrize(
    "qn", [(-1.0, 1.0, 2.0), (-1.5, -0.5, 0.5, 2.5)], ids=["ring3", "ring4-general"]
)
def test_ring_cfi_reduction_matches_full_simplex_rule(qn):
    # translation invariance: the (N-1)-D rule at x_1 = 0 against an N-D rule
    # of the same integrand over the whole ordered simplex
    table = amplitudes(StateSpec(PER, len(qn), qn), ModelParams(0.2, 10.0))
    reduced, dim = _cfi_quadrature(table)[:2]
    assert dim == table.n - 1
    assert reduced == pytest.approx(cfi_full_simplex(table), rel=1e-6)


def test_ring_rule_pins_one_coordinate_box_rule_does_not(monkeypatch):
    # the stub records the term columns and the factored nodes x = X + u e
    # and returns a constant, so no term is summed
    seen = []

    def stub(amp, damp, kappa, dkappa, outer, edges, u):
        seen.append((amp, damp, kappa, dkappa, outer, edges, u))
        shape = outer.shape[:2] + u.shape[1:]
        return np.ones(shape, dtype=complex), np.zeros(shape, dtype=complex)

    monkeypatch.setattr(llfisher.fisher, "eval_lines", stub)
    ring = amplitudes(StateSpec(PER, 5, (-2.0, -1.0, 0.0, 1.0, 3.0)), ModelParams(0.2, 10.0))
    assert _cfi_quadrature(ring)[1:3] == (4, (20, 14))
    assert [outer.shape[1] * u.shape[1] for *_, outer, _, u in seen] == [20**4, 14**4]
    # 4 coordinates per node, those of the kappa columns 2..N: x_1 = 0 is
    # pinned by leaving its column out
    assert [(outer.shape, edges.shape) for *_, outer, edges, _ in seen] == [
        ((1, 20**3, 4), (1, 4)), ((1, 14**3, 4), (1, 4))
    ]
    for amp, damp, kappa, dkappa, *_ in seen:
        assert np.array_equal(amp, ring.amp) and np.array_equal(damp, ring.damp)
        assert np.array_equal(kappa, ring.kappa[:, 1:])
        assert np.array_equal(dkappa, ring.dkappa[:, 1:])

    # a box state is real or imaginary class: its report integrates no point
    seen.clear()
    report = fisher_report(ground_state(HW, 3), ModelParams(0.2, 10.0))
    assert report.method["cfi_route"] == "analytic"
    assert seen == []


@pytest.mark.parametrize(
    "bc,n,weight,dim",
    [(PER, 4, 10.0 / 4, 3), (PER, 1, 1.0, 1), (HW, 3, 1.0, 3)],
    ids=["ring4", "ring1", "box3"],
)
def test_domain_takes_the_slice_for_rings_of_more_than_one_particle(bc, n, weight, dim):
    # the last ``dim`` columns: 2..N on the ring slice, all N otherwise
    table = amplitudes(ground_state(bc, n), ModelParams(0.2, 10.0))
    got_weight, kappa, dkappa = _domain(table)
    assert got_weight == weight
    assert np.array_equal(kappa, table.kappa[:, n - dim :])
    assert np.array_equal(dkappa, table.dkappa[:, n - dim :])
    assert kappa.shape == dkappa.shape == (table.n_terms, dim)


def test_cfi_and_qfi_do_not_depend_on_the_blas_thread_count():
    # the rule's weighted sum was a BLAS matrix-vector product, which split
    # its sum by thread: ring N = 4 at L = 10 read 1.8026148317741539 with
    # one OpenBLAS thread and 1.8026148317741544 with two.  The QFIs run
    # the star-matrix kernel with both diagonal end blocks (order 2): box
    # N = 3 (1, 2, 4) near its L_max and the ring N = 5 ground state
    script = """
from llfisher.bethe import BoundaryCondition, ModelParams, StateSpec, ground_state
from llfisher.fisher import cfi, qfi_analytic
spec = StateSpec(BoundaryCondition.PERIODIC, 4, (-1.5, -0.5, 0.5, 2.5))
print(*[repr(cfi(spec, ModelParams(0.2, L))) for L in (6.0, 10.0, 14.0, 18.0)])
box = StateSpec(BoundaryCondition.HARD_WALL, 3, (1.0, 2.0, 4.0))
print(repr(qfi_analytic(box, ModelParams(0.2, 66.0))))
print(repr(qfi_analytic(ground_state(BoundaryCondition.PERIODIC, 5), ModelParams(0.2, 10.0))))
"""
    package_root = Path(llfisher.fisher.__file__).resolve().parent.parent
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ, "PYTHONPATH": str(package_root), "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
        }
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].split()) == 6


def _cfi_with_rule(table, order):
    """The order-``order`` CFI rule on one cell: ``_cfi_quadrature`` with its check lifted."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(llfisher.fisher, "CFI_RULE_PAIR", (order, 2))
        patch.setattr(llfisher.fisher, "CFI_RULE_PAIR_4D", (order, 2))
        patch.setattr(llfisher.fisher, "CFI_ERROR_RTOL", math.inf)
        return _cfi_quadrature(table)[0]


# Every general ring state of the test suite, at points where it runs.
# (-1, 0, 3), the type-I excitation, has nodes of psi~ inside the slice, so
# its CFI is refined (about 40 cells); the smooth others take one or two.
GENERAL_RING_POINTS = [
    ((-1.0, 1.0, 2.0), 0.2, 10.0),
    ((-1.0, 1.0, 2.0), 1e-6, 1.0),
    ((-1.0, 0.0, 2.0), 0.2, 20.0),
    ((-1.0, 0.0, 3.0), 0.2, 20.0),
    ((-1.0, 0.0, 3.0), 0.5, 6.0),
    ((-1.0, 0.0, 3.0), 0.5, 9.0),
    ((-1.5, -0.5, 0.5, 2.5), 0.2, 10.0),
]


# The CFI of (-1, 0, 3) at the three points where the suite runs it, by
# scipy's adaptive quad iterated over y_2 and then y_3 on the x_1 = 0
# slice, each split at the four nodes of psi~ there and run to 1e-12
# relative (a run to 1e-10 agrees within 1e-15).  It sums psi~ term by
# term at each point, as ``oracles.psi_at`` does, and shares neither rule
# nor cells with the production quadrature; about 3 s each, so recorded
# rather than recomputed here.
TYPE1_ITERATED_QUAD = {
    (0.2, 20.0): 1.3768091781482377,
    (0.5, 6.0): 0.15111226983266038,
    (0.5, 9.0): 0.25344792905137886,
}


@pytest.mark.parametrize("qn,c,L", GENERAL_RING_POINTS)
def test_cfi_error_estimate_bounds_the_true_error(qn, c, L):
    # the reference: on one cell the order-64 rule; at (-1, 0, 3), whose
    # CFI refines, the iterated quad above (there the order-256 rule alone
    # is still 2.5e-4 off).  Measured estimate / true error: 16 to 130 on
    # the smooth states, 1.4 to 6.9 at (-1, 0, 3)
    table = amplitudes(StateSpec(PER, len(qn), qn), ModelParams(c, L))
    value, _, _, estimate, cells = _cfi_quadrature(table)
    if qn == (-1.0, 0.0, 3.0):
        assert cells > 1
        reference = TYPE1_ITERATED_QUAD[(c, L)]
    else:
        assert cells <= 2
        reference = _cfi_with_rule(table, 64)
    assert abs(value - reference) <= estimate * abs(reference)
    assert estimate <= llfisher.fisher.CFI_ERROR_RTOL


# Ring (-2, -1, 0, 1, 3) at (0.2, 10) by the order-32 rule on the x_1 = 0
# slice, one cell: 3.6 s, so recorded rather than recomputed here.
RING5_GENERAL_ORDER32 = 2.608551910725081


def test_cfi_error_estimate_bounds_the_true_error_in_4d():
    spec = StateSpec(PER, 5, (-2.0, -1.0, 0.0, 1.0, 3.0))
    value, dim, _, estimate, cells = _cfi_quadrature(amplitudes(spec, ModelParams(0.2, 10.0)))
    assert dim == 4 and cells == 1
    error = abs(value - RING5_GENERAL_ORDER32) / RING5_GENERAL_ORDER32
    assert error <= estimate <= llfisher.fisher.CFI_ERROR_RTOL


@pytest.mark.parametrize("qn,c,L", [p for p in GENERAL_RING_POINTS if p[0] != (-1.0, 0.0, 3.0)])
def test_cfi_moves_from_the_single_order_48_rule_by_less_than_its_estimate(qn, c, L):
    # the rule these smooth states took before the rule pair; at (-1, 0, 3)
    # that rule was 3e-3 off, far outside its unreported error
    table = amplitudes(StateSpec(PER, len(qn), qn), ModelParams(c, L))
    value, _, _, estimate, _ = _cfi_quadrature(table)
    before = _cfi_with_rule(table, 48)
    assert abs(value - before) <= estimate * abs(value)


def test_too_coarse_a_rule_pair_trips_the_health_check(monkeypatch):
    table = amplitudes(StateSpec(PER, 3, (-1.0, 1.0, 2.0)), ModelParams(0.2, 10.0))
    default = _cfi_quadrature(table)[0]
    monkeypatch.setattr(llfisher.fisher, "CFI_RULE_PAIR", (4, 3))
    monkeypatch.setattr(llfisher.fisher, "CFI_MAX_NODES", 0)
    with pytest.raises(NumericalHealthError, match="CFI rules of orders 4 and 3 differ"):
        _cfi_quadrature(table)
    # with nodes to spare, bisection brings the same pair within the bound
    monkeypatch.setattr(llfisher.fisher, "CFI_MAX_NODES", 10**6)
    value, _, _, estimate, cells = _cfi_quadrature(table)
    assert cells > 1 and estimate <= llfisher.fisher.CFI_ERROR_RTOL
    assert value == pytest.approx(default, rel=2 * llfisher.fisher.CFI_ERROR_RTOL)


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
    # one atom carries no information on c; its report takes the analytic
    # route (ring N <= 2 is real class), so no quadrature ever sees N = 1
    cases = [
        (ground_state(HW, 3), "imaginary"),
        (ground_state(PER, 1), "real"),
        (ground_state(HW, 1), "imaginary"),
    ]
    for spec, phase_class in cases:
        report = fisher_report(spec, ModelParams(0.5, 5.0))
        assert report.qfi >= report.cfi >= 0.0
        assert report.phase_variance_term == pytest.approx(report.qfi - report.cfi, abs=1e-12)
        assert report.method["phase_class"] == phase_class
        assert report.method["cfi_route"] == "analytic"
        assert report.method["qfi_imag_residue"] < 1e-8
        if spec.n == 1:
            assert report.cfi == report.qfi == 0.0


# ---------------------------------------------------------------------------
# optimal system size
# ---------------------------------------------------------------------------


def test_lmax_finds_interior_maximum():
    spec = ground_state(PER, 2)
    l_best, f_best = lmax(spec, 0.2, (5.0, 200.0))
    assert 0.2 * l_best == pytest.approx(10.55, rel=0.01)
    # the returned value is the objective at the maximum
    assert f_best == pytest.approx(cfi(spec, ModelParams(0.2, l_best)), rel=1e-9)


def test_lmax_default_tolerance_is_relative():
    # c L_max does not depend on c once the bracket scales as 1/c; a
    # tolerance floored at 1e-3 put every bracket below L ~ 4e-3 inside
    # 2 tol of its edges and raised BracketError
    spec = ground_state(PER, 2)
    products = [c * lmax(spec, c, (5.0 / c, 20.0 / c))[0] for c in (0.2, 1e4, 1e8)]
    assert products[0] == pytest.approx(10.55, rel=0.01)
    for value in products[1:]:
        assert value == pytest.approx(products[0], rel=1e-12)


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
    # one edge raised IndexError, and a third edge was silently ignored
    for bracket in [(1.0,), (40.0, 70.0, 100.0)]:
        with pytest.raises(ValueError, match="two finite edges"):
            lmax(spec, 0.2, bracket)


@pytest.mark.parametrize("bc", [PER, HW])
def test_lmax_rejects_one_particle_before_any_evaluation(monkeypatch, bc):
    # one particle's k does not depend on c, so its CFI is 0 at every L:
    # the search used to run to the bracket edge and raise BracketError
    calls = []
    monkeypatch.setattr(llfisher.fisher, "cfi", lambda spec, params: calls.append(params))
    with pytest.raises(ValueError, match="one particle"):
        lmax(ground_state(bc, 1), 1.0, (1.0, 2.0))
    assert calls == []


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_lmax_rejects_bad_tolerance(monkeypatch, tol):
    # a cheap objective that gives up instead of letting a search that
    # never meets its tolerance run forever
    calls = []

    def parabola(spec, params):
        calls.append(params.L)
        if len(calls) > 500:
            raise RuntimeError("search did not stop")
        return -((params.L - 50.0) ** 2)

    monkeypatch.setattr(llfisher.fisher, "cfi", parabola)
    with pytest.raises(ValueError, match="tolerance"):
        lmax(ground_state(PER, 2), 0.2, (10.0, 150.0), tol=tol)


# The six box states of criterion 3 (bracket (45, 90), tol 0.05) and the
# ground states of criterion 2 (bracket (5, 200), default tol 0.2).
LMAX_CASES = [
    (StateSpec(HW, 3, qn), (45.0, 90.0), 0.05)
    for qn in [(1.0, 2.0, 3.0), (1.0, 2.0, 4.0), (1.0, 2.0, 5.0),
               (1.0, 2.0, 6.0), (1.0, 3.0, 4.0), (2.0, 3.0, 4.0)]
] + [
    (ground_state(bc, n), (5.0, 200.0), None)
    for bc, n in [(PER, 2), (HW, 2), (PER, 3), (PER, 4), (HW, 3)]
]


@pytest.mark.parametrize(
    "spec,bracket,tol", LMAX_CASES,
    ids=[
        f"{s.bc.value}:" + ",".join(f"{q:g}" for q in s.qn_array) + f"-in-{b[0]:g},{b[1]:g}"
        for s, b, _ in LMAX_CASES
    ],
)
def test_lmax_matches_scipy_bounded_minimizer(spec, bracket, tol):
    c = 0.2
    l_best, f_best = lmax(spec, c, bracket, tol=tol)
    xatol = 1e-3 * bracket[1] if tol is None else tol
    want = minimize_scalar(
        lambda L: -cfi(spec, ModelParams(c, L)),
        bounds=bracket, method="bounded", options={"xatol": xatol},
    )
    assert want.success
    assert abs(l_best - want.x) <= 2.0 * xatol
    assert f_best == pytest.approx(-want.fun, rel=1e-7)


def test_lmax_evaluation_budget(call_counts, monkeypatch):
    # golden section took 18 evaluations here, the last one a repeat of
    # the final midpoint
    spec = StateSpec(HW, 3, (1.0, 2.0, 4.0))
    counts = call_counts("cfi")
    seen = []
    counting_cfi = llfisher.fisher.cfi

    def recording(spec, params):
        seen.append(params.L)
        return counting_cfi(spec, params)

    monkeypatch.setattr(llfisher.fisher, "cfi", recording)
    l_best, f_best = lmax(spec, 0.2, (45.0, 90.0), tol=0.05)
    assert counts["cfi"] == len(seen) <= 10
    assert len(set(seen)) == len(seen)
    # F_max is the value stored at L_max, not a second evaluation
    assert l_best in seen
    assert f_best == cfi(spec, ModelParams(0.2, l_best))


def parabola_cfi(vertex, calls=None):
    def objective(spec, params):
        if calls is not None:
            calls.append(params.L)
        return 5.0 - (params.L - vertex) ** 2

    return objective


@pytest.mark.parametrize("vertex", [12.5, 50.0, 97.0])
def test_lmax_finds_parabola_vertex(monkeypatch, vertex):
    monkeypatch.setattr(llfisher.fisher, "cfi", parabola_cfi(vertex))
    l_best, f_best = lmax(ground_state(PER, 2), 0.2, (10.0, 100.0), tol=0.01)
    assert abs(l_best - vertex) <= 0.01
    assert f_best == 5.0 - (l_best - vertex) ** 2


@pytest.mark.parametrize("vertex", [5.0, 10.0, 100.0, 120.0])
def test_lmax_maximum_at_bracket_edge_raises(monkeypatch, vertex):
    monkeypatch.setattr(llfisher.fisher, "cfi", parabola_cfi(vertex))
    with pytest.raises(BracketError, match="bracket edge"):
        lmax(ground_state(PER, 2), 0.2, (10.0, 100.0), tol=0.01)


def test_lmax_bracket_narrower_than_four_tol_raises(monkeypatch):
    # every point of (10, 10.39) lies within 2 tol of an edge
    monkeypatch.setattr(llfisher.fisher, "cfi", parabola_cfi(10.2))
    with pytest.raises(BracketError):
        lmax(ground_state(PER, 2), 0.2, (10.0, 10.39), tol=0.1)


def test_lmax_non_finite_objective_raises(monkeypatch):
    # a NaN fails every comparison of the search, which would steer it
    # without a trace; the error names the L it came from
    calls = []
    parabola = parabola_cfi(50.0, calls)

    def objective(spec, params):
        value = parabola(spec, params)
        return math.nan if len(calls) == 3 else value

    monkeypatch.setattr(llfisher.fisher, "cfi", objective)
    with pytest.raises(NumericalHealthError, match="not finite") as info:
        lmax(ground_state(PER, 2), 0.2, (10.0, 100.0), tol=0.01)
    assert len(calls) == 3
    assert repr(calls[-1]) in str(info.value)


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
    # a 2-D grid raised TypeError from float() on its rows
    with pytest.raises(ValueError, match="1-D"):
        sweep(spec, "c", [[1, 2], [3, 4]], 1.0)


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
