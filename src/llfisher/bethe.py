"""Bethe-ansatz states of the Lieb-Liniger gas on a ring or in a box.

Units are hbar = 2m = 1 throughout, so the energy of a state is
E = sum_j k_j^2 with quasimomenta k_j of dimension 1/length.

The quasimomenta solve the logarithmic Bethe equations

  ring:  L k_j = 2 pi I_j - 2 sum_l  atan((k_j - k_l)/c)
  box:   L k_j =   pi I_j -   sum_{l != j} [atan((k_j - k_l)/c)
                                            + atan((k_j + k_l)/c)]

for a strictly increasing set of quantum numbers I_j (half-odd-integers
for even N on the ring, integers otherwise; positive integers in the
box).  The Jacobian of either system is the Gaudin/Hessian matrix that
also enters the norm formula, so Newton iterations get an exact Jacobian
for free and the same matrix feeds the quasimomentum derivatives dk/dc
and the determinant norm of the unnormalized ansatz.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class SolverError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


class BoundaryCondition(enum.Enum):
    PERIODIC = "periodic"
    HARD_WALL = "hardwall"


# Residual tolerance is this times max(1, L * max|k|); 200 Newton steps
# with halving line search is far more than the convex system ever needs.
RESIDUAL_RTOL = 1e-12
MAX_ITERATIONS = 200

# Continuation anchor: solutions at c*L = 10 are reliably reachable from
# the strong-coupling limit, and geometric steps down from there track the
# sqrt(c) collapse of the roots.
CONTINUATION_CL = 10.0
CONTINUATION_STEPS = 10


@dataclass(frozen=True)
class ModelParams:
    """Interaction strength c (1/length, >= 0) and system size L (> 0)."""

    c: float
    L: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.c) and self.c >= 0):
            raise ValueError(f"interaction strength must be finite and >= 0, got {self.c}")
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"system size must be finite and > 0, got {self.L}")


def _check_half_integer_grid(values: np.ndarray, n: int, bc: BoundaryCondition) -> None:
    doubled = 2.0 * values
    if np.max(np.abs(doubled - np.round(doubled))) > 1e-9:
        raise ValueError("quantum numbers must be integers or half-odd-integers")
    parity = np.round(doubled).astype(int) % 2
    if bc is BoundaryCondition.PERIODIC:
        want = 1 if n % 2 == 0 else 0
        if np.any(parity != want):
            kind = "half-odd-integers" if want else "integers"
            raise ValueError(f"ring quantum numbers must all be {kind} for N={n}")
    else:
        if np.any(parity != 0) or np.any(values < 1):
            raise ValueError("box quantum numbers must be positive integers")


@dataclass(frozen=True)
class StateSpec:
    """One eigenstate: boundary condition, particle count, quantum numbers."""

    bc: BoundaryCondition
    n: int
    quantum_numbers: tuple

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"particle count must be >= 1, got {self.n}")
        qn = np.asarray(self.quantum_numbers, dtype=float)
        if qn.size != self.n:
            raise ValueError("need exactly one quantum number per particle")
        if np.any(np.diff(qn) <= 0):
            raise ValueError("quantum numbers must be strictly increasing")
        _check_half_integer_grid(qn, self.n, self.bc)
        object.__setattr__(self, "quantum_numbers", tuple(float(v) for v in qn))

    @property
    def qn_array(self) -> np.ndarray:
        return np.asarray(self.quantum_numbers, dtype=float)


@dataclass(frozen=True)
class BetheSolution:
    """Solved quasimomenta with their c-derivatives and scalar invariants.

    ``norm_sq`` is the squared norm of the unnormalized ansatz over the
    ordered domain (:func:`norm_sq`) and ``dnorm_sq_dc`` its derivative
    along the solution branch (:func:`dnorm_sq_dc`).
    """

    k: np.ndarray
    dk_dc: np.ndarray
    energy: float
    momentum: float
    residual: float
    norm_sq: float
    dnorm_sq_dc: float

    def __post_init__(self) -> None:
        self.k.setflags(write=False)
        self.dk_dc.setflags(write=False)

    @property
    def n(self) -> int:
        return self.k.size


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------


def ground_state(bc: BoundaryCondition, n: int) -> StateSpec:
    """Lowest-energy state: I symmetric around 0 (ring) or I_j = j (box)."""
    if n < 1:
        raise ValueError(f"particle count must be >= 1, got {n}")
    if bc is BoundaryCondition.PERIODIC:
        qn = [-(n - 1) / 2 + j for j in range(n)]
    else:
        qn = [float(j + 1) for j in range(n)]
    return StateSpec(bc, n, tuple(qn))


def type1_excitation(bc: BoundaryCondition, n: int, q: int) -> StateSpec:
    """Particle-like branch: top quantum number pushed up by q >= 1."""
    if q < 1:
        raise ValueError(f"type-I label q must be >= 1, got {q}")
    base = list(ground_state(bc, n).quantum_numbers)
    if bc is BoundaryCondition.PERIODIC:
        base[-1] = (n - 1) / 2 + q
    else:
        base[-1] = float(n + q)
    return StateSpec(bc, n, tuple(base))


def type2_excitation(bc: BoundaryCondition, n: int, q: int) -> StateSpec:
    """Hole-like branch: quantum numbers from slot q on shifted up by one.

    On the ring the q = 1 case is the Umklapp state; it is produced here
    like any other hole excitation.
    """
    if not 1 <= q <= n - 1:
        raise ValueError(f"type-II label q must be in [1, N-1], got {q}")
    if bc is BoundaryCondition.PERIODIC:
        qn = [-(n - 1) / 2 + (j - 1) if j < q else -(n - 1) / 2 + j for j in range(1, n + 1)]
    else:
        qn = [float(j) if j < q else float(j + 1) for j in range(1, n + 1)]
    return StateSpec(bc, n, tuple(qn))


# ---------------------------------------------------------------------------
# Bethe equations
# ---------------------------------------------------------------------------


def bethe_residual(k: np.ndarray, spec: StateSpec, params: ModelParams) -> np.ndarray:
    """Residual of the logarithmic Bethe equations at quasimomenta ``k``."""
    k = np.asarray(k, dtype=float)
    qn = spec.qn_array
    c, L = params.c, params.L
    diff = k[:, None] - k[None, :]
    if spec.bc is BoundaryCondition.PERIODIC:
        return L * k - 2.0 * np.pi * qn + 2.0 * np.arctan(diff / c).sum(axis=1)
    # box: the l = j term of the difference sum vanishes identically
    summ = k[:, None] + k[None, :]
    terms = np.arctan(diff / c) + np.arctan(summ / c)
    np.fill_diagonal(terms, 0.0)
    return L * k - np.pi * qn + terms.sum(axis=1)


def _gaudin_assembly(a: np.ndarray, b: np.ndarray, diag: float) -> np.ndarray:
    """b - a off the diagonal, and diag plus the row sums of a + b on it.

    ``a`` and ``b`` are the difference and sum kernels with zeroed
    diagonals (``b`` is zero on the ring).
    """
    out = b - a
    np.fill_diagonal(out, diag + (a + b).sum(axis=1))
    return out


def gaudin_matrix(k: Sequence[float], params: ModelParams, bc: BoundaryCondition) -> np.ndarray:
    """Jacobian of the Bethe residual; also the norm (Gaudin/Hessian) matrix.

    The diagonal is assembled from the l != i sums directly, which avoids
    the 2/c - 2/c cancellation of the textbook form at small c.
    """
    k = np.asarray(k, dtype=float)
    c, L = params.c, params.L
    diff_sq = (k[:, None] - k[None, :]) ** 2
    if bc is BoundaryCondition.PERIODIC:
        off = 2.0 * c / (diff_sq + c * c) if c > 0 else np.zeros_like(diff_sq)
        np.fill_diagonal(off, 0.0)
        return _gaudin_assembly(off, np.zeros_like(off), L)
    sum_sq = (k[:, None] + k[None, :]) ** 2
    if c > 0:
        a = c / (diff_sq + c * c)
        b = c / (sum_sq + c * c)
    else:
        a = np.zeros_like(diff_sq)
        b = np.zeros_like(sum_sq)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(b, 0.0)
    return _gaudin_assembly(a, b, L)


def _residual_scale(k: np.ndarray, L: float) -> float:
    return max(1.0, L * float(np.max(np.abs(k))) if k.size else 1.0)


def _polish(spec: StateSpec, params: ModelParams, k: np.ndarray, f: np.ndarray, rnorm: float):
    """Full Newton steps while they keep reducing the residual.

    Quadratic convergence takes a just-under-tolerance iterate to the
    double-precision floor in one or two steps; downstream consumers
    (norms, fidelity overlaps) are sensitive at that level.
    """
    for _ in range(3):
        step = np.linalg.solve(gaudin_matrix(k, params, spec.bc), f)
        k_try = k - step
        f_try = bethe_residual(k_try, spec, params)
        r_try = float(np.max(np.abs(f_try)))
        if r_try >= rnorm:
            break
        k, f, rnorm = k_try, f_try, r_try
    return k, rnorm


def _newton(spec: StateSpec, params: ModelParams, k0: np.ndarray):
    """Damped Newton with the analytic Jacobian and residual line search."""
    k = np.array(k0, dtype=float)
    f = bethe_residual(k, spec, params)
    rnorm = float(np.max(np.abs(f)))
    for _ in range(MAX_ITERATIONS):
        tol = RESIDUAL_RTOL * _residual_scale(k, params.L)
        if rnorm <= tol:
            return _polish(spec, params, k, f, rnorm)
        step = np.linalg.solve(gaudin_matrix(k, params, spec.bc), f)
        damping = 1.0
        for _ in range(60):
            k_try = k - damping * step
            f_try = bethe_residual(k_try, spec, params)
            r_try = float(np.max(np.abs(f_try)))
            if r_try < rnorm:
                break
            damping *= 0.5
        else:
            raise SolverError(
                f"Newton line search stalled at residual {rnorm:.3e}", rnorm
            )
        k, f, rnorm = k_try, f_try, r_try
    tol = RESIDUAL_RTOL * _residual_scale(k, params.L)
    if rnorm <= tol:
        return _polish(spec, params, k, f, rnorm)
    raise SolverError(
        f"Bethe solver did not converge in {MAX_ITERATIONS} iterations "
        f"(residual {rnorm:.3e})",
        rnorm,
    )


def _strong_coupling_anchor(spec: StateSpec, L: float) -> np.ndarray:
    qn = spec.qn_array
    if spec.bc is BoundaryCondition.PERIODIC:
        return 2.0 * np.pi * qn / L
    return np.pi * qn / L


def _free_momentum_integers(spec: StateSpec) -> np.ndarray:
    """Integers n_j with k_j -> 2 pi n_j / L (ring) or pi n_j / L (box) at c = 0."""
    qn = spec.qn_array
    j = np.arange(1, spec.n + 1, dtype=float)
    if spec.bc is BoundaryCondition.PERIODIC:
        return qn - j + (spec.n + 1) / 2
    return qn - j + 1


def dk_dc(k: Sequence[float], params: ModelParams, bc: BoundaryCondition) -> np.ndarray:
    """Quasimomentum derivatives dk_j/dc from the differentiated Bethe equations.

    Implicit differentiation gives H . dk/dc = -(d residual/d c); the
    right-hand side has the closed form below and H is the Gaudin matrix.
    """
    k = np.asarray(k, dtype=float)
    c = params.c
    diff = k[:, None] - k[None, :]
    denom = c * c + diff * diff
    np.fill_diagonal(denom, 1.0)  # diagonal is discarded; avoids 0/0 at c = 0
    if bc is BoundaryCondition.PERIODIC:
        rhs_terms = 2.0 * diff / denom
        np.fill_diagonal(rhs_terms, 0.0)
    else:
        summ = k[:, None] + k[None, :]
        rhs_terms = diff / denom + summ / (c * c + summ * summ)
        np.fill_diagonal(rhs_terms, 0.0)
    rhs = rhs_terms.sum(axis=1)
    out = np.linalg.solve(gaudin_matrix(k, params, bc), rhs)
    return out


def momentum_of(spec: StateSpec, params: ModelParams) -> float:
    """Total momentum (2 pi / L) sum(I_j) of a ring state, or the box's
    conserved pseudo-momentum label (pi / L) sum(I_j - j + 1); both are
    independent of c."""
    if spec.bc is BoundaryCondition.PERIODIC:
        return float(2.0 * np.pi * np.sum(spec.qn_array) / params.L)
    j = np.arange(1, spec.n + 1, dtype=float)
    return float(np.pi * np.sum(spec.qn_array - j + 1) / params.L)


def solve_bethe(spec: StateSpec, params: ModelParams) -> BetheSolution:
    """Solve the Bethe equations for ``spec`` at coupling/size ``params``.

    Newton starts from the strong-coupling anchor k_j = 2 pi I_j / L
    (ring) or pi I_j / L (box); if that stalls, continuation from
    c L = 10 walks down to the target coupling in geometric steps.  At
    c = 0 the analytic free-gas values are returned when the state maps
    to distinct free momenta, and a ValueError is raised otherwise (the
    Bethe parametrization is singular there; use a small c > 0 instead).
    The solution carries dk/dc, the norm and its c-derivative, all from
    the Gaudin matrix at the solved quasimomenta.
    """
    c, L = params.c, params.L
    if c == 0.0:
        free_n = _free_momentum_integers(spec)
        if np.any(np.diff(free_n) <= 0):
            raise ValueError(
                "state is degenerate at c = 0 (free momenta coincide); "
                "solve at a small positive c instead"
            )
        unit = 2.0 * np.pi / L if spec.bc is BoundaryCondition.PERIODIC else np.pi / L
        return _finish(spec, params, unit * free_n, 0.0)

    anchor = _strong_coupling_anchor(spec, L)
    try:
        k, rnorm = _newton(spec, params, anchor)
    except SolverError:
        if c * L >= CONTINUATION_CL:
            raise
        k = anchor
        c_path = np.geomspace(CONTINUATION_CL / L, c, CONTINUATION_STEPS + 1)
        for c_step in c_path:
            k, rnorm = _newton(spec, ModelParams(c_step, L), k)

    if np.any(np.diff(k) <= 0):
        raise SolverError("solved quasimomenta are not strictly increasing", rnorm)
    if spec.bc is BoundaryCondition.HARD_WALL and k[0] <= 0:
        raise SolverError("box quasimomenta must be positive", rnorm)
    return _finish(spec, params, k, rnorm)


def _finish(spec: StateSpec, params: ModelParams, k: np.ndarray, rnorm: float) -> BetheSolution:
    deriv = dk_dc(k, params, spec.bc)
    n2 = norm_sq(k, params, spec.bc)
    return BetheSolution(
        k=np.array(k, dtype=float),
        dk_dc=np.array(deriv, dtype=float),
        energy=float(np.sum(k * k)),
        momentum=momentum_of(spec, params),
        residual=float(rnorm),
        norm_sq=n2,
        dnorm_sq_dc=dnorm_sq_dc(k, deriv, n2, params, spec.bc),
    )


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def norm_sq(k: Sequence[float], params: ModelParams, bc: BoundaryCondition) -> float:
    """Squared norm of the unnormalized ansatz over the ordered domain.

    Ring:  prod_{j<l} (1 + c^2/(k_j-k_l)^2) det H
    Box:   2^N prod_{j<l} [1 + c^2/(k_j-k_l)^2][1 + c^2/(k_j+k_l)^2] det H

    with H the matrix from :func:`gaudin_matrix`.  This equals the
    integral of |psi~|^2 over 0 < x_1 < ... < x_N < L when ``k`` solves
    the Bethe equations; ``solve_bethe`` stores it as
    ``BetheSolution.norm_sq``.
    """
    k = np.asarray(k, dtype=float)
    c = params.c
    det = float(np.linalg.det(gaudin_matrix(k, params, bc)))
    prefactor = 1.0
    n = k.size
    for j in range(n):
        for l in range(j + 1, n):
            prefactor *= 1.0 + c * c / (k[j] - k[l]) ** 2
            if bc is BoundaryCondition.HARD_WALL:
                prefactor *= 1.0 + c * c / (k[j] + k[l]) ** 2
    if bc is BoundaryCondition.HARD_WALL:
        prefactor *= 2.0**n
    return prefactor * det


def _dgaudin_dc(k: np.ndarray, dk: np.ndarray, params: ModelParams, bc: BoundaryCondition):
    """Total c-derivative of :func:`gaudin_matrix` along the solution branch.

    Every kernel entry has the form c / (u^2 + c^2) (twice that on the
    ring), whose derivative through c and u(c) is
    (u^2 - c^2 - 2 c u u') / (u^2 + c^2)^2; L drops out.
    """
    c = params.c

    def kernel_dc(u: np.ndarray, du: np.ndarray) -> np.ndarray:
        den = u * u + c * c
        np.fill_diagonal(den, 1.0)  # the diagonal is discarded; avoids 0/0 at c = 0
        out = (u * u - c * c - 2.0 * c * u * du) / (den * den)
        np.fill_diagonal(out, 0.0)
        return out

    a = kernel_dc(k[:, None] - k[None, :], dk[:, None] - dk[None, :])
    if bc is BoundaryCondition.PERIODIC:
        return _gaudin_assembly(2.0 * a, np.zeros_like(a), 0.0)
    b = kernel_dc(k[:, None] + k[None, :], dk[:, None] + dk[None, :])
    return _gaudin_assembly(a, b, 0.0)


def dnorm_sq_dc(
    k: Sequence[float],
    dk: Sequence[float],
    n2: float,
    params: ModelParams,
    bc: BoundaryCondition,
) -> float:
    """d(norm^2)/dc along the solution branch, analytically.

    Solved quasimomenta ``k``, their derivatives ``dk`` = dk/dc and the
    norm square ``n2`` at k give the logarithmic derivative of each
    factor of :func:`norm_sq`: with u = k_j -+ k_l,

        d ln(1 + c^2/u^2)/dc = 2 c (u - c u') / (u (u^2 + c^2)),
        d ln det H / dc      = tr(H^-1 dH/dc),

    and d(norm^2)/dc is norm^2 times their sum.  Where quasimomenta
    collapse as sqrt(c) (ground states near c = 0), the kernel derivative
    in dH/dc cancels from O(c) terms to O(c^2), and the rounding of k
    bounds the relative accuracy to about 1e-8 at c = 1e-6.
    ``solve_bethe`` stores it as ``BetheSolution.dnorm_sq_dc``.
    """
    k = np.asarray(k, dtype=float)
    dk = np.asarray(dk, dtype=float)
    c = params.c
    matrix = gaudin_matrix(k, params, bc)
    dlog = float(np.trace(np.linalg.solve(matrix, _dgaudin_dc(k, dk, params, bc))))
    j, l = np.triu_indices(k.size, 1)
    pairs = [(k[j] - k[l], dk[j] - dk[l])]
    if bc is BoundaryCondition.HARD_WALL:
        pairs.append((k[j] + k[l], dk[j] + dk[l]))
    for u, du in pairs:
        dlog += float(np.sum(2.0 * c * (u - c * du) / (u * (u * u + c * c))))
    return n2 * dlog
