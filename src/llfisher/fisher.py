"""Quantum and classical Fisher information of the interaction strength.

For a pure state depending on the coupling c the quantum Fisher
information is

    QFI = 4 [ <d_c psi | d_c psi> - |<psi | d_c psi>|^2 ],

and the classical Fisher information of the N-particle position
measurement is CFI = 4 int (d_c |psi|)^2.  Working with the unnormalized
ansatz psi~ and its ordered-domain norm square NS, both reduce to

    QFI = (4/NS) [ <d_c psi~|d_c psi~> - |<psi~|d_c psi~>|^2 / NS ],
    CFI = (4/NS) [ int (d_c |psi~|)^2 - (d_c sqrt(NS))^2 ],

with all inner products over 0 < x_1 < ... < x_N < L.  The permutation
sums make psi~ = sum_t amp_t f_t and d_c psi~ = sum_t (damp_t f_t +
i amp_t g_t), t over the R rows of the amplitude table, with f_t =
e^{i kappa_t.x} and g_t = (dkappa_t.x) f_t.  ``integrals._pair_integrals``
folds, deduplicates and contracts the simplex integrals I, I^1_l and
I^11_mn of the pair differences lambda = kappa_t - kappa_s into the blocks
of the Gram matrix of those 2R functions, G = [[I, A], [A^H, Q]], so the
three inner products are Hermitian forms of G on the coefficient vectors
(amp, 0) and (damp, i amp) (``fisher_report`` records the pair, pair-plan
group and bundle counts).
The assembly is exact up to the Bethe residual and rounding.  At weak
coupling the pair terms cancel, and that rounding is what limits it: the
QFI's error estimate is the sum's condition number times eps, and a point
where it exceeds QFI_ERROR_RTOL is a NumericalHealthError.

On the ring every integrand here is translation invariant: shifting
every coordinate by a multiplies psi~ and d_c psi~ by exp(i P a), as the
momentum P does not depend on c (sum_j dk_j = 0).  So each ordered
N-dimensional integral is L/N times an (N - 1)-dimensional one on the
slice x_1 = 0, where only the kappa and dkappa columns 2..N enter the
phases.  ``_domain`` holds that reduction for the QFI's pair integrals
and the CFI's quadrature alike: a ring state of N > 1 particles takes weight
L/N and those columns, every other state, one ring particle included,
weight 1 and the N-dimensional simplex.  The CFI either equals the QFI
outright (real or purely imaginary phase class, where the position
measurement is optimal) or is integrated numerically on the slice;
``fisher_report`` alone makes that choice, and ``cfi`` reads its result.
Only general-class ring states take the quadrature: two Gauss-Legendre
rules of orders CFI_RULE_PAIR(_4D), whose relative difference is the
error estimate, on cells bisected until the estimate is within
CFI_ERROR_RTOL (``integrals.refined_simplex_quadrature``); an estimate
left above it is a NumericalHealthError.  ``fisher_report`` names the
rule it took (dimension, orders, cells) and the estimate.  A state point
is one amplitude table: ``amplitudes(spec, params)`` solves the state
once, and its table carries NS and d NS/dc in its Bethe solution to both
the QFI assembly and the CFI quadrature.

At fixed N, QFI(c, L) = L^2 QFI(c L, 1), and the CFI likewise.  No
tolerance here has an absolute floor, so both follow this law wherever
L^(N+2) is a normal double; other L are a NumericalHealthError
(``integrals._check_double_range``).

The test suite checks the assembly against a fidelity-overlap estimate,
QFI ~ 8 (1 - |<psi_{c-d/2}|psi_{c+d/2}>|) / d^2, whose overlaps are
Gauss-Legendre quadratures of the wavefunction (``tests/oracles.py``):
it shares no pair integral or simplex-integral kernel with this module.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# bound, not called: perfbench/test_harness.py checks its tracer on this name
from .bethe import ModelParams, StateSpec, solve_bethe  # noqa: F401
from .integrals import (
    NumericalHealthError,
    _check_double_range,
    _pair_integrals,
    _pair_plan,
    refined_simplex_quadrature,
)
from .wavefunction import (
    AmplitudeTable,
    PhaseClass,
    _check_particle_cap,
    amplitudes,
    eval_lines,
    global_phase_class,
)

QFI_IMAG_RTOL = 1e-8
# Largest accepted QFI error estimate kappa eps.  It puts the weak-coupling
# floor of the ground states at cL = 2.4e-8 to 4.3e-8 (ring N = 5 to 2)
# and 0.9e-7 to 1.7e-7 (box N = 2 to 4)
QFI_ERROR_RTOL = 1e-6
# Gauss-Legendre orders (m, m') of the two CFI rules, up to 3-D and at
# 4-D: the CFI is the order-m value, their difference its error estimate.
# At 4-D (20, 14) is cheaper than (24, 16) (198,416 nodes, not 397,312;
# ring N = 5 (-2, -1, 0, 1, 3) at c = 0.2, L = 10 takes 93 ms, not 158 ms,
# on one thread of a 2-core x86-64 host) and its estimate is further above
# the true error
CFI_RULE_PAIR = (24, 16)
CFI_RULE_PAIR_4D = (20, 14)
# Largest accepted CFI error estimate: a tenth of the 1e-4 to which the
# quadrature CFI is held (acceptance criterion 6)
CFI_ERROR_RTOL = 1e-5
# Nodes that the CFI quadrature may evaluate, refinement included, before
# it gives up.  A state whose psi~ vanishes on lines in the 3-D slice
# needs far more (ring N = 4, type-I q = 2 at c = 0.2, L = 10: estimate
# 1.8e-5 after 1.6e7 nodes) and fails; it reaches this cap on 23 cells in
# about 0.3 s on one thread of a 2-core x86-64 host
CFI_MAX_NODES = 1_000_000
# Phase classes whose position measurement is optimal (CFI = QFI).
SATURATED_CLASSES = (PhaseClass.REAL, PhaseClass.IMAGINARY)


class BracketError(RuntimeError):
    """The requested bracket does not contain an interior maximum."""


# ---------------------------------------------------------------------------
# permutation-pair assembly
# ---------------------------------------------------------------------------


def _domain(table: AmplitudeTable):
    """(weight, kappa, dkappa) of the ordered-domain integrals of ``table``.

    A ring state of N > 1 particles integrates on the slice x_1 = 0 (module
    docstring): weight L/N and the columns 2..N.  Every other state keeps
    the N-dimensional simplex: weight 1 and all N columns.
    """
    n, L = table.n, table.L
    if table.periodic and n > 1:
        # the slice integrals scale as L^(N + 1); the products, as in the box, as L^(N + 2)
        _check_double_range(L, n + 2)
        return L / n, table.kappa[:, 1:], table.dkappa[:, 1:]
    return 1.0, table.kappa, table.dkappa


def _inner_products(table: AmplitudeTable):
    """Ordered-domain <psi~|psi~>, <psi~|d_c psi~>, <d_c psi~|d_c psi~>.

    The forms psi^H G psi, psi^H G dpsi and dpsi^H G dpsi of the Gram
    matrix G (module docstring) with psi = (amp, 0) and dpsi = (damp,
    i amp); |psi|^T |G| |dpsi| and |dpsi|^T |G| |dpsi|, the sums of |term|
    of the second and third, bound their rounding (times eps).  G is built
    on the columns of ``_domain`` and weighted by its weight, from the
    pair plan of the table's layout on those columns.  Returns the three
    inner products, the two |term| sums and the pair counts (plan groups,
    distinct pair bundles).
    """
    weight, kappa, dkappa = _domain(table)
    plan = _pair_plan(table.periodic, table.n, kappa.shape[1])
    (i00, a, quad), n_bundles = _pair_integrals(kappa, dkappa, table.L, 2, plan)
    gram = np.block([[i00, a], [np.conj(a.T), quad]])
    psi = np.concatenate([table.amp, np.zeros_like(table.amp)])
    dpsi = np.concatenate([table.damp, 1j * table.amp])
    g_psi, g_dpsi = gram @ psi, gram @ dpsi
    forms = [np.conj(psi) @ g_psi, np.conj(psi) @ g_dpsi, np.conj(dpsi) @ g_dpsi]
    m_dpsi = np.abs(gram) @ np.abs(dpsi)
    mags = [np.abs(psi) @ m_dpsi, np.abs(dpsi) @ m_dpsi]
    counts = (len(plan.reps), n_bundles)
    return (*(complex(weight * f) for f in forms), *(float(weight * m) for m in mags), counts)


def _qfi_with_residue(table: AmplitudeTable):
    """QFI of one state point from its amplitude table, with its health data.

    Returns (QFI, relative imaginary residue |Im QFI| / |QFI|, error
    estimate, pair counts (plan groups, distinct pair bundles)).
    |nd|^2 / NS is formed as (|nd| / NS) |nd|, which does not underflow
    when NS and nd are tiny (small L).  The guards run in cause order,
    each a NumericalHealthError: a QFI that is not finite, a negative real
    part, an error estimate above QFI_ERROR_RTOL, then a residue above
    QFI_IMAG_RTOL.  By Cauchy-Schwarz |nd|^2 <= NS dd, so the exact QFI is
    never negative, and a negative value means the pair sum cancelled
    beyond its rounding; a cancelled sum's residue is sized by its
    summation order, so the estimate is first.

    The error estimate is kappa eps, kappa = (sum of |term|) / QFI the
    condition number of the pair sum (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sec. 4.2), with the terms of dd and, at
    their first-order weight 2 |nd| / NS, of nd.  At weak coupling the
    plane-wave terms cancel and kappa grows as 1/(cL), so a QFI can be
    wrong in its leading digit while its residue stays tiny.
    """
    n2 = table.solution.norm_sq
    _, nd, dd, nd_mag, dd_mag, counts = _inner_products(table)
    nd_abs = abs(nd)
    qfi_c = 4.0 / n2 * (dd - (nd_abs / n2) * nd_abs)
    if not cmath.isfinite(qfi_c):
        raise NumericalHealthError(f"QFI assembly gave a non-finite value {qfi_c}")
    qfi_value = qfi_c.real
    if qfi_value < 0:
        raise NumericalHealthError(f"QFI assembly gave a negative value {qfi_value:.6e}")
    bound = 4.0 / n2 * (dd_mag + 2.0 * (nd_abs / n2) * nd_mag) * sys.float_info.epsilon
    if bound == 0:
        estimate = 0.0
    else:
        estimate = bound / qfi_value if qfi_value > 0 else math.inf
    if not estimate <= QFI_ERROR_RTOL:
        raise NumericalHealthError(
            f"QFI pair sum cancelled to an error estimate of {estimate:.3e}, "
            f"above {QFI_ERROR_RTOL:g}"
        )
    residue = abs(qfi_c.imag) / abs(qfi_c) if qfi_c != 0 else 0.0
    if residue > QFI_IMAG_RTOL:
        raise NumericalHealthError(
            f"QFI assembly left a relative imaginary residue {residue:.3e}"
        )
    return float(qfi_value), residue, estimate, counts


def qfi_analytic(spec: StateSpec, params: ModelParams) -> float:
    """QFI of the coupling via the exact permutation-pair expansion."""
    return _qfi_with_residue(amplitudes(spec, params))[0]


# ---------------------------------------------------------------------------
# classical Fisher information
# ---------------------------------------------------------------------------


def _cfi_quadrature(table: AmplitudeTable) -> tuple:
    """CFI by direct quadrature of 4 (d_c |psi|)^2 on the ordered simplex.

    With psi = psi~ / sqrt(N! NS), h = (d NS/dc) / (2 NS) and the identity
    d_c|psi| = Re(psi* d_c psi)/|psi|, the CFI is 1/NS times the ordered
    integral of 4 Re(psi~* (d_c psi~ - h psi~))^2 / |psi~|^2: built on the
    ``eval_lines`` values, its intermediates scale as L^(N+2) like the QFI
    kernel's instead of underflowing with psi.  Nodes of psi~ are guarded.
    Only general-class ring tables come here, so N >= 3, and the integral
    is L/N times one over the slice x_1 = 0 (``_domain``), integrated by
    the two (N - 1)-dimensional rules of orders (m, m'), CFI_RULE_PAIR
    (CFI_RULE_PAIR_4D at N = 5).  The CFI is the order-m value Q_m, and
    |Q_m - Q_m'| / Q_m its error estimate; where that exceeds
    CFI_ERROR_RTOL, ``refined_simplex_quadrature`` bisects the slice
    within CFI_MAX_NODES, and an estimate still above it is a
    NumericalHealthError.  Returns (CFI, rule dimension, rule pair, error
    estimate, cell count).
    """
    weight, kappa, dkappa = _domain(table)
    n2 = table.solution.norm_sq
    h = table.solution.dnorm_sq_dc / (2.0 * n2)

    def integrand(outer: np.ndarray, edges: np.ndarray, u: np.ndarray) -> np.ndarray:
        vals, dvals = eval_lines(table.amp, table.damp, kappa, dkappa, outer, edges, u)
        abs_sq = vals.real**2 + vals.imag**2
        radial = (np.conj(vals) * (dvals - h * vals)).real
        out = np.zeros_like(abs_sq)
        np.divide(4.0 * radial * radial, abs_sq, out=out, where=abs_sq > 0)
        return out

    dim = kappa.shape[1]
    orders = CFI_RULE_PAIR if dim <= 3 else CFI_RULE_PAIR_4D
    value, estimate, cells = refined_simplex_quadrature(
        integrand, dim, table.L, orders, CFI_ERROR_RTOL, CFI_MAX_NODES
    )
    if not estimate <= CFI_ERROR_RTOL:
        raise NumericalHealthError(
            f"CFI rules of orders {orders[0]} and {orders[1]} differ by {estimate:.3e} "
            f"relative on {cells} cells, above {CFI_ERROR_RTOL:g}"
        )
    return weight * value / n2, dim, orders, estimate, cells


def cfi(spec: StateSpec, params: ModelParams) -> float:
    """CFI of the N-particle position measurement for the coupling.

    The CFI of ``fisher_report``: the analytic QFI for states whose global
    phase is c-independent (real/imaginary class), which saturate
    CFI = QFI, and the simplex quadrature for the general ring states.
    """
    return fisher_report(spec, params).cfi


# ---------------------------------------------------------------------------
# reports, optimal size, sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FisherReport:
    """QFI/CFI of one (state, c, L) point with method metadata."""

    qfi: float
    cfi: float
    phase_variance_term: float
    state: StateSpec
    params: ModelParams
    method: dict


def fisher_report(spec: StateSpec, params: ModelParams) -> FisherReport:
    """QFI and CFI of one state point from one amplitude table (one solve)."""
    cls = global_phase_class(spec)
    table = amplitudes(spec, params)
    qfi_value, residue, qfi_estimate, (n_groups, n_bundles) = _qfi_with_residue(table)
    if cls in SATURATED_CLASSES:
        cfi_value = qfi_value
        route = "analytic"
        rule_dim = rule_orders = error_estimate = cells = None
    else:
        cfi_value, rule_dim, rule_orders, error_estimate, cells = _cfi_quadrature(table)
        route = "quadrature"
    return FisherReport(
        qfi=qfi_value,
        cfi=cfi_value,
        phase_variance_term=max(0.0, qfi_value - cfi_value),
        state=spec,
        params=params,
        method={
            "phase_class": cls.value,
            "cfi_route": route,
            "quadrature_dim": rule_dim,
            "quadrature_orders": rule_orders,
            "quadrature_cells": cells,
            "cfi_error_estimate": error_estimate,
            "qfi_imag_residue": residue,
            "qfi_error_estimate": qfi_estimate,
            "qfi_pairs": table.n_terms**2,
            "qfi_plan_groups": n_groups,
            "qfi_bundles": n_bundles,
        },
    )


def lmax(
    spec: StateSpec,
    c: float,
    bracket: tuple,
    tol: Optional[float] = None,
) -> tuple:
    """System size maximizing the CFI at fixed coupling, by Brent's method.

    Brent's bounded search (Brent 1973, as in scipy's ``fminbound``) mixes
    golden-section and parabolic steps and stops once the bracket it has
    narrowed lies within 2 tol/3 + 2 sqrt(eps) L_max on either side of
    its best point.  ``tol`` (default 1e-3 hi, so c L_max does not depend
    on c) thus bounds the distance from L_max to the maximum of a
    unimodal CFI, up to that sqrt(eps) L_max term.

    Returns (L_max, F_max): the best L evaluated and the CFI there, with
    no second evaluation.  Raises BracketError when L_max lies within
    2 tol of a bracket edge, i.e. the bracket holds no interior maximum;
    NumericalHealthError when the CFI at some L is not finite; and
    ValueError, before any evaluation, for one particle (its k does not
    depend on c, so its CFI is 0 at every L) and unless the bracket is two
    finite edges 0 < lo < hi and ``tol`` is finite and positive.
    """
    if spec.n == 1:
        raise ValueError("one particle's CFI is 0 at every L, so it has no maximum")
    edges = tuple(float(v) for v in bracket)
    if not (len(edges) == 2 and math.isfinite(edges[1]) and edges[1] > edges[0] > 0):
        raise ValueError(f"bracket must be two finite edges 0 < lo < hi, got {edges}")
    lo, hi = edges
    if tol is None:
        tol = 1e-3 * hi
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")

    def objective(L: float) -> float:
        # minimized, so -CFI; a NaN would fail every comparison below
        value = cfi(spec, ModelParams(c, L))
        if not math.isfinite(value):
            raise NumericalHealthError(f"CFI at L = {L!r} is not finite ({value})")
        return -value

    # a, b: the bracket; x: the best point; w, v: the second and third
    # best (the parabola's other nodes); d: the last step; e: the one
    # before it, half of which bounds a parabolic step
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    sqrt_eps = math.sqrt(sys.float_info.epsilon)
    a, b = lo, hi
    x = w = v = a + golden * (b - a)
    fx = fw = fv = objective(x)
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if xm >= x else -tol1
        if not parabolic:
            e = (a if x >= xm else b) - x
            d = golden * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d >= 0.0 else -tol1))
        fu = objective(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    if x - lo < 2.0 * tol or hi - x < 2.0 * tol:
        raise BracketError(
            f"CFI maximum sits at the bracket edge (L = {x:.6g}); widen the bracket"
        )
    return float(x), float(-fx)


@dataclass
class SweepResult:
    """Fisher reports over one axis; failed points carry None + a message."""

    axis: str
    grid: tuple
    reports: tuple
    errors: dict

    def values(self, field: str = "cfi") -> np.ndarray:
        return np.array(
            [getattr(r, field) if r is not None else np.nan for r in self.reports]
        )

    def trend(self, field: str = "cfi") -> str:
        vals = self.values(field)
        vals = vals[np.isfinite(vals)]
        if vals.size < 2:
            return "flat"
        diffs = np.diff(vals)
        if np.all(diffs < 0):
            return "decreasing"
        if np.all(diffs > 0):
            return "increasing"
        return "mixed"


def sweep(
    spec: StateSpec,
    axis: str,
    grid: Sequence[float],
    fixed_value: float,
) -> SweepResult:
    """Fisher reports along a strictly increasing c- or L-grid.

    The particle cap is checked and every point's ModelParams is built
    first, so a state above the cap or a (c, L) outside the domain raises
    ValueError before any point runs.  Points are evaluated in grid order.
    """
    if axis not in ("c", "L"):
        raise ValueError("axis must be 'c' or 'L'")
    grid_arr = np.asarray(grid, dtype=float)
    if grid_arr.ndim != 1 or grid_arr.size == 0 or np.any(np.diff(grid_arr) <= 0):
        raise ValueError("sweep grid must be a non-empty, strictly increasing 1-D sequence")
    _check_particle_cap(spec.n, spec.bc)

    if axis == "c":
        points = [ModelParams(float(v), float(fixed_value)) for v in grid_arr]
    else:
        points = [ModelParams(float(fixed_value), float(v)) for v in grid_arr]
    reports = []
    errors = {}
    for idx, params in enumerate(points):
        try:
            reports.append(fisher_report(spec, params))
        except (ValueError, RuntimeError) as exc:  # numerical failures; the sweep continues
            reports.append(None)
            errors[idx] = f"{type(exc).__name__}: {exc}"
    return SweepResult(
        axis=axis, grid=tuple(float(v) for v in grid_arr), reports=tuple(reports), errors=errors
    )
