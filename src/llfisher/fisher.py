"""Quantum and classical Fisher information of the interaction strength.

For a pure state depending on the coupling c the quantum Fisher
information is

    QFI = 4 [ <d_c psi | d_c psi> - |<psi | d_c psi>|^2 ],

and the classical Fisher information of the N-particle position
measurement is CFI = 4 int (d_c |psi|)^2.  Working with the unnormalized
ansatz psi~ and its ordered-domain norm square NS, both reduce to

    QFI = (4/NS) [ <d_c psi~|d_c psi~> - |<psi~|d_c psi~>|^2 / NS ],
    CFI = (4/NS) [ int (d_c |psi~|)^2 - (d_c sqrt(NS))^2 ],

with all inner products over 0 < x_1 < ... < x_N < L.  Expanding the
permutation sums turns the QFI into a double sum over coefficient pairs
(t, s) weighted by the simplex integrals I, I^1_l and I^11_mn of the
wavenumber difference lambda = kappa_t - kappa_s.  Each is a divided
difference of exp at the nodes -i L sum_{m>=j} lambda_m and 0, with the
moment nodes repeated (Hermite-Genocchi; see ``integrals``).  One batched
matrix-exponential call at moment order 2 evaluates them for every
distinct lambda of a table, each matrix holding I, two first moments and
three second moments; the overlap oracle asks for order 0, I alone.  The
assembly is exact up to the Bethe residual and the rounding of that
kernel.  The CFI either equals the QFI outright (real or purely
imaginary phase class, where the position measurement is optimal) or is
integrated numerically on the ordered simplex; ``fisher_report`` alone
makes that choice, and ``cfi`` reads its result.  A state point is one
amplitude table: ``amplitudes(spec, params)`` solves the state once, and
its table carries NS and d NS/dc in its Bethe solution to both the QFI
assembly and the CFI quadrature.

An independent fidelity-overlap estimate,
QFI ~ 8 (1 - |<psi_{c-d/2}|psi_{c+d/2}>|) / d^2, cross-checks the
analytic assembly without sharing its derivative code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# bound, not called: perfbench/test_harness.py checks its tracer on this name
from .bethe import ModelParams, StateSpec, solve_bethe  # noqa: F401
from .integrals import (
    NumericalHealthError,
    default_order,
    simplex_exp_integral,
    simplex_quadrature,
)
from .wavefunction import (
    AmplitudeTable,
    PhaseClass,
    _check_particle_cap,
    amplitudes,
    eval_batch,
    global_phase_class,
)

QFI_IMAG_RTOL = 1e-8
# Wavenumber quantum, relative to the largest |kappa|, within which two
# pair-bundle wavenumber vectors share one set of simplex integrals.
DEGENERACY_RTOL = 1e-9
# Phase classes whose position measurement is optimal (CFI = QFI).
SATURATED_CLASSES = (PhaseClass.REAL, PhaseClass.IMAGINARY)


class BracketError(RuntimeError):
    """The requested bracket does not contain an interior maximum."""


# ---------------------------------------------------------------------------
# permutation-pair assembly
# ---------------------------------------------------------------------------


def _pair_bundles(kappa_a: np.ndarray, kappa_b: np.ndarray, L: float, order: int):
    """Simplex-integral bundles for every pair row_a x row_b, deduplicated.

    Pairs sharing one wavenumber vector (to within the degeneracy
    quantum) share a bundle, and opposite vectors share it through
    I(-lambda) = conj(I(lambda)), which halves the kernel's batch.  The
    distinct vectors go to ``simplex_exp_integral`` in one call at the
    moment ``order`` (0, 1 or 2).  Returns the order + 1 pair-shaped
    arrays i00 (ra, rb), then i1 (ra, rb, n), then i11 (ra, rb, n, n).
    """
    n = kappa_a.shape[1]
    r_a, r_b = kappa_a.shape[0], kappa_b.shape[0]
    kscale = max(
        1.0, float(np.max(np.abs(kappa_a))), float(np.max(np.abs(kappa_b)))
    )
    zero_tol = DEGENERACY_RTOL * kscale

    lam_all = (kappa_a[:, None, :] - kappa_b[None, :, :]).reshape(-1, n)
    keys = np.round(lam_all / zero_tol).astype(np.int64)
    # canonical sign: make the leading nonzero key entry positive
    lead_pos = np.argmax(keys != 0, axis=1)
    lead = keys[np.arange(keys.shape[0]), lead_pos]
    flip = lead < 0
    keys[flip] = -keys[flip]
    _, first_occ, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)  # shape differs across numpy 2.x versions
    reps = np.where(flip[first_occ, None], -lam_all[first_occ], lam_all[first_occ])

    bundles = simplex_exp_integral(reps, L, order)
    if order == 0:
        bundles = (bundles,)

    def expand(values: np.ndarray) -> np.ndarray:
        out = values[inverse]
        out[flip] = np.conj(out[flip])
        return out.reshape((r_a, r_b) + values.shape[1:])

    return tuple(expand(values) for values in bundles)


def _inner_products(table: AmplitudeTable):
    """Ordered-domain <psi~|psi~>, <psi~|d_c psi~>, <d_c psi~|d_c psi~>.

    Assembled from the coefficient table and the simplex-integral
    bundles; the pair reduction is a deterministic einsum.
    """
    i00, i1_ts, i11_ts = _pair_bundles(table.kappa, table.kappa, table.L, order=2)

    w_amp, w_damp = table.amp, table.damp
    # a[t, s] = sum_l dkappa[s, l] I^1_l(lam_ts); b uses row t instead
    a = np.einsum("tsl,sl->ts", i1_ts, table.dkappa)
    b = np.einsum("tsl,tl->ts", i1_ts, table.dkappa)
    quad = np.einsum("tm,tsmn,sn->ts", table.dkappa, i11_ts, table.dkappa)

    c_amp = np.conj(w_amp)
    c_damp = np.conj(w_damp)
    nn = np.einsum("t,s,ts->", c_amp, w_amp, i00)
    nd = np.einsum("t,s,ts->", c_amp, w_damp, i00) + 1j * np.einsum(
        "t,s,ts->", c_amp, w_amp, a
    )
    dd = (
        np.einsum("t,s,ts->", c_damp, w_damp, i00)
        + 1j * np.einsum("t,s,ts->", c_damp, w_amp, a)
        - 1j * np.einsum("t,s,ts->", c_amp, w_damp, b)
        + np.einsum("t,s,ts->", c_amp, w_amp, quad)
    )
    return complex(nn), complex(nd), complex(dd)


def _qfi_with_residue(table: AmplitudeTable):
    """QFI of one state point from its amplitude table, and its imaginary residue."""
    n2 = table.solution.norm_sq
    _, nd, dd = _inner_products(table)
    qfi_c = 4.0 / n2 * (dd - abs(nd) ** 2 / n2)
    residue = abs(qfi_c.imag) / max(abs(qfi_c.real), 1e-30)
    if residue > QFI_IMAG_RTOL:
        raise NumericalHealthError(
            f"QFI assembly left a relative imaginary residue {residue:.3e}"
        )
    return float(qfi_c.real), residue


def qfi_analytic(spec: StateSpec, params: ModelParams) -> float:
    """QFI of the coupling via the exact permutation-pair expansion."""
    value, _ = _qfi_with_residue(amplitudes(spec, params))
    return value


def ordered_overlap(table_a: AmplitudeTable, table_b: AmplitudeTable) -> complex:
    """<psi~_a | psi~_b> over the ordered domain, from two coefficient tables.

    Raises ValueError unless both tables belong to the same system size L.
    """
    if table_a.L != table_b.L:
        raise ValueError(f"tables at different sizes L = {table_a.L} and {table_b.L}")
    (i00,) = _pair_bundles(table_a.kappa, table_b.kappa, table_a.L, order=0)
    return complex(np.einsum("t,s,ts->", np.conj(table_a.amp), table_b.amp, i00))


def qfi_overlap_oracle(
    spec: StateSpec, params: ModelParams, delta: Optional[float] = None
) -> float:
    """Fidelity-based QFI estimate, 8 (1 - |<psi_-|psi_+>|) / delta^2.

    The two states are solved at c -+ delta/2, which centers the stencil
    and makes the estimate second-order accurate.  Below c = delta/2 the
    stencil would cross c = 0, so the pairs (c, c + delta) and
    (c, c + 2 delta), centred at c + delta/2 and c + delta, are
    extrapolated linearly back to c, which keeps second order.  Fully
    independent of the analytic derivative pipeline (no dA/dc, dk/dc or
    I^1, I^11).
    """
    if delta is None:
        delta = 1e-4 * max(params.c, 1.0)
    if delta <= 0:
        raise ValueError("delta must be positive")

    def state(c: float) -> AmplitudeTable:
        return amplitudes(spec, ModelParams(c, params.L))

    def infidelity(a: AmplitudeTable, b: AmplitudeTable) -> float:
        """8 (1 - |<psi_a|psi_b>|) of two normalized states."""
        n2_ab = a.solution.norm_sq * b.solution.norm_sq
        return 8.0 * (1.0 - abs(ordered_overlap(a, b)) / math.sqrt(n2_ab))

    c = params.c
    if c >= delta / 2.0:
        return infidelity(state(c - delta / 2.0), state(c + delta / 2.0)) / delta**2
    base = state(c)
    near = infidelity(base, state(c + delta)) / delta**2
    far = infidelity(base, state(c + 2.0 * delta)) / (2.0 * delta) ** 2
    return 2.0 * near - far


# ---------------------------------------------------------------------------
# classical Fisher information
# ---------------------------------------------------------------------------


def _cfi_quadrature(table: AmplitudeTable) -> float:
    """CFI by direct quadrature of 4 (d_c |psi|)^2 on the ordered simplex.

    Uses the pointwise identity d_c|psi| = Re(psi* d_c psi)/|psi| on the
    normalized wavefunction; nodes of |psi| are measure-zero and guarded.
    The rule is ``default_order(N)`` points per simplex dimension.
    """
    n2 = table.solution.norm_sq
    norm = math.sqrt(n2)
    dnorm = table.solution.dnorm_sq_dc / (2.0 * norm)
    sym = math.sqrt(math.factorial(table.n))

    def integrand(points: np.ndarray) -> np.ndarray:
        vals, dvals = eval_batch(table, points)
        psi = vals / (sym * norm)
        dpsi = dvals / (sym * norm) - vals * (dnorm / (sym * n2))
        abs_sq = psi.real**2 + psi.imag**2
        radial = (np.conj(psi) * dpsi).real
        safe = np.maximum(abs_sq, 1e-300)
        out = 4.0 * radial * radial / safe
        return np.where(abs_sq < 1e-300, 0.0, out)

    value = simplex_quadrature(integrand, table.n, table.L, default_order(table.n))
    return float(math.factorial(table.n) * value.real)


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
    qfi_value, residue = _qfi_with_residue(table)
    if cls in SATURATED_CLASSES:
        cfi_value = qfi_value
        route = "analytic"
        used_order = None
    else:
        used_order = default_order(spec.n)
        cfi_value = _cfi_quadrature(table)
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
            "quadrature_order": used_order,
            "qfi_imag_residue": residue,
        },
    )


def lmax(
    spec: StateSpec,
    c: float,
    bracket: tuple,
    tol: Optional[float] = None,
) -> tuple:
    """System size maximizing the CFI at fixed coupling, by golden section.

    Returns (L_max, F_max).  Raises BracketError when the maximum sits at
    a bracket edge, i.e. the bracket holds no interior maximum, and
    ValueError unless the bracket edges are finite with 0 < lo < hi and
    ``tol`` (default 1e-3 max(1, hi)) is finite and positive.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(hi) and hi > lo > 0):
        raise ValueError(f"bracket must be finite with 0 < lo < hi, got ({lo}, {hi})")
    if tol is None:
        tol = 1e-3 * max(1.0, hi)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")

    def objective(L: float) -> float:
        return cfi(spec, ModelParams(c, L))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = objective(x1)
    f2 = objective(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = objective(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = objective(x1)
    l_best = 0.5 * (a + b)
    f_best = objective(l_best)
    if l_best - lo < 2.0 * tol or hi - l_best < 2.0 * tol:
        raise BracketError(
            f"CFI maximum sits at the bracket edge (L = {l_best:.6g}); widen the bracket"
        )
    return float(l_best), float(f_best)


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
    if grid_arr.size == 0:
        raise ValueError("sweep grid is empty")
    if np.any(np.diff(grid_arr) <= 0):
        raise ValueError("sweep grid must be strictly increasing")
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
