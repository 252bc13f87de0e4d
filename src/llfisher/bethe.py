"""Bethe-ansatz states of the Lieb-Liniger gas on a ring or in a box.

Units are hbar = 2m = 1 throughout, so the energy of a state is
E = sum_j k_j^2 with quasimomenta k_j of dimension 1/length.

Both boundaries share one form of the logarithmic Bethe equations,

  L k_j = g (pi I_j - sum_p sum_{l != j} atan(u_p[j, l] / c)),

with g = 2 on the ring and 1 in the box, and pair arguments
u_p[j, l] = k_j + s_p k_l: the differences (s = -1) on the ring, plus in
the box the sums (s = +1) from the walls' mirror images -k_l (Gaudin,
Phys. Rev. A 4, 386 (1971)).  The stack u is linear in k, so the same
construction on dk/dc gives du/dc.  The quantum numbers I_j increase
strictly: half-odd-integers for even N on the ring, integers otherwise,
positive integers in the box.  The ground state (I_j = j in the box) and
the type-I and type-II branches have the same labels on the ring, less
(N + 1)/2.  The Jacobian of the system is the Gaudin/Hessian matrix H
that also enters the norm formula, so Newton iterations get an exact
Jacobian for free.  At the solved quasimomenta ``solve_bethe`` builds one
Gaudin system, H with its pair arguments, and derives from it dk/dc, the
norm square NS of the unnormalized ansatz (det H, 2^N det H in the box)
and dNS/dc = NS tr(H^-1 dH/dc) (Korepin, Commun. Math. Phys. 86, 391
(1982)).  It is the one place that accepts a root: k whose pair gaps
rounding cannot resolve are a DegenerateStateError, whatever the residual.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class SolverError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


class DegenerateStateError(SolverError):
    """Rounding cannot resolve the gaps of the solved quasimomenta (e.g. the
    box ground state at c = 1e-30): the ansatz coefficients are singular."""


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

# a root's rounding shift of k, relative to its smallest gap (``_finish``)
ROOT_GAP_RTOL = 1e-6

_EPS = sys.float_info.epsilon
_SQRT_MAX = math.sqrt(sys.float_info.max)


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
    # parity on the float: an int cast wraps above 2^63
    parity = np.abs(np.fmod(np.round(doubled), 2.0))
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
        if not np.all(np.isfinite(qn)):
            raise ValueError(f"quantum numbers must be finite, got {self.quantum_numbers}")
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

    ``solve_bethe`` derives ``dk_dc``, ``norm_sq`` and ``dnorm_sq_dc``
    from one Gaudin system, H = :func:`gaudin_matrix` at ``k``.
    ``norm_sq`` is the integral of |psi~|^2 over the ordered domain
    0 < x_1 < ... < x_N < L, det H on the ring and 2^N det H in the box:
    the Gaudin-Korepin norm without its prefactor prod_{j<l} (1 + c^2/u^2),
    which the unit-modulus amplitude factors of ``wavefunction`` make 1.
    ``dnorm_sq_dc`` is its derivative along the solution branch,
    norm_sq tr(H^-1 dH/dc).
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
# the boundary
# ---------------------------------------------------------------------------

_RING_SIGNS = np.array([-1.0]).reshape(1, 1, 1)
_BOX_SIGNS = np.array([-1.0, 1.0]).reshape(2, 1, 1)


def _bethe_factor(bc: BoundaryCondition) -> float:
    """g in L k_j = g (pi I_j - ...): 2 on the ring, 1 in the box."""
    return 2.0 if bc is BoundaryCondition.PERIODIC else 1.0


def _pair_signs(bc: BoundaryCondition) -> np.ndarray:
    """s_p = d u_p[j, l] / d k_l, shape (P, 1, 1): (-1,) ring, (-1, +1) box."""
    return _RING_SIGNS if bc is BoundaryCondition.PERIODIC else _BOX_SIGNS


def _label_shift(bc: BoundaryCondition, n: int) -> float:
    """Ring labels are the box labels minus (N + 1)/2."""
    return (n + 1) / 2 if bc is BoundaryCondition.PERIODIC else 0.0


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------


def _from_box_labels(bc: BoundaryCondition, n: int, labels) -> StateSpec:
    shift = _label_shift(bc, n)
    return StateSpec(bc, n, tuple(float(b) - shift for b in labels))


def ground_state(bc: BoundaryCondition, n: int) -> StateSpec:
    """Lowest-energy state: I_j = j (box), shifted to be symmetric around 0 (ring)."""
    return _from_box_labels(bc, n, range(1, n + 1))


def type1_excitation(bc: BoundaryCondition, n: int, q: int) -> StateSpec:
    """Particle-like branch: top quantum number pushed up by q >= 1."""
    if q < 1:
        raise ValueError(f"type-I label q must be >= 1, got {q}")
    return _from_box_labels(bc, n, [*range(1, n), n + q])


def type2_excitation(bc: BoundaryCondition, n: int, q: int) -> StateSpec:
    """Hole-like branch: quantum numbers from slot q on shifted up by one.

    On the ring the q = 1 case is the Umklapp state; it is produced here
    like any other hole excitation.
    """
    if not 1 <= q <= n - 1:
        raise ValueError(f"type-II label q must be in [1, N-1], got {q}")
    return _from_box_labels(bc, n, [j if j < q else j + 1 for j in range(1, n + 1)])


# ---------------------------------------------------------------------------
# Bethe equations
# ---------------------------------------------------------------------------


def _pair_arguments(k: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The (P, N, N) stack u_p[j, l] = k_j + s_p k_l."""
    return k[:, None] + signs * k


def _set_diagonals(a: np.ndarray, value: float) -> None:
    """Set the (j, j) entries of a C-contiguous (..., N, N) array in place."""
    n = a.shape[-1]
    a.reshape(-1, n * n)[:, :: n + 1] = value


def _kernel_denominator(u: np.ndarray, c: float) -> np.ndarray:
    """u^2 + c^2 with infinite diagonals: every kernel over it is exactly 0
    on the excluded j = l entries, with no 0/0 there at c = 0.

    An entry that overflows is inf as well; ``_gaudin_system`` rejects a
    solution where that happens, so Newton iterates may pass through it.
    """
    with np.errstate(over="ignore"):
        den = u * u + c * c
    _set_diagonals(den, np.inf)
    return den


def bethe_residual(k: np.ndarray, spec: StateSpec, params: ModelParams) -> np.ndarray:
    """Residual of the logarithmic Bethe equations at quasimomenta ``k``."""
    k = np.asarray(k, dtype=float)
    g = _bethe_factor(spec.bc)
    with np.errstate(over="ignore"):  # u / c = inf at tiny c; arctan(inf) = pi/2 exactly
        terms = np.arctan(_pair_arguments(k, _pair_signs(spec.bc)) / params.c).sum(axis=0)
    _set_diagonals(terms, 0.0)
    return params.L * k - g * np.pi * spec.qn_array + g * terms.sum(axis=1)


def _gaudin_assembly(kernel: np.ndarray, signs: np.ndarray, diag: float) -> np.ndarray:
    """sum_p s_p kernel_p off the diagonal, diag + its row sums over p and l on it.

    ``kernel`` is the (P, N, N) stack g d atan(u_p / c) / du_p, or its
    c-derivative, with zero diagonals.
    """
    out = (signs * kernel).sum(axis=0)
    _set_diagonals(out, diag + kernel.sum(axis=0).sum(axis=1))
    return out


def gaudin_matrix(k: Sequence[float], params: ModelParams, bc: BoundaryCondition) -> np.ndarray:
    """Jacobian of the Bethe residual; also the norm (Gaudin/Hessian) matrix.

    The diagonal is assembled from the l != i sums directly, which avoids
    the 2/c - 2/c cancellation of the textbook form at small c.
    """
    k = np.asarray(k, dtype=float)
    c = params.c
    signs = _pair_signs(bc)
    # c^2 may underflow: g c / 0 = inf, then inf - inf, and the Newton step fails
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kernel = _bethe_factor(bc) * c / _kernel_denominator(_pair_arguments(k, signs), c)
        return _gaudin_assembly(kernel, signs, params.L)


def _newton(spec: StateSpec, params: ModelParams, k0: np.ndarray):
    """Damped Newton with the analytic Jacobian and residual line search.

    Until the residual is within tolerance, each step halves (60 tries at
    most) until it lowers the residual; then up to 3 full steps take k to
    the double floor while they lower it, as norms and overlaps downstream
    are sensitive there.  A NaN residual is never lower.  A singular H is
    a SolverError chained from LinAlgError.  ``_finish`` judges the root.
    """
    k = np.array(k0, dtype=float)
    f = bethe_residual(k, spec, params)
    rnorm = float(np.abs(f).max())
    damped = polished = 0
    while polished < 3:
        converged = polished > 0 or rnorm <= RESIDUAL_RTOL * max(1.0, params.L * np.abs(k).max())
        if not converged and damped == MAX_ITERATIONS:
            raise SolverError(f"Bethe solver did not converge in {MAX_ITERATIONS} "
                              f"iterations (residual {rnorm:.3e})")
        try:
            step = np.linalg.solve(gaudin_matrix(k, params, spec.bc), f)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Gaudin matrix at residual {rnorm:.3e}") from exc
        for halvings in range(1 if converged else 60):
            k_try = k - 0.5**halvings * step
            f_try = bethe_residual(k_try, spec, params)
            r_try = float(np.abs(f_try).max())
            if r_try < rnorm:
                break
        else:
            if converged:
                break
            raise SolverError(f"Newton line search stalled at residual {rnorm:.3e}")
        k, f, rnorm = k_try, f_try, r_try
        polished += converged
        damped += not converged
    return k, rnorm


def _free_momentum_integers(spec: StateSpec) -> np.ndarray:
    """Integers n_j with k_j -> g pi n_j / L at c = 0.

    n_j is the box label I_j + shift minus j plus the lowest free mode,
    which is 0 on the ring (plane waves) and 1 in the box (standing waves).
    """
    lowest = 0.0 if spec.bc is BoundaryCondition.PERIODIC else 1.0
    j = np.arange(1, spec.n + 1, dtype=float)
    return spec.qn_array + _label_shift(spec.bc, spec.n) - j + lowest


def momentum_of(spec: StateSpec, params: ModelParams) -> float:
    """g pi sum(n_j) / L over the free-gas integers n_j: the total momentum
    (2 pi / L) sum(I_j) of a ring state, or the box's conserved
    pseudo-momentum label (pi / L) sum(I_j - j + 1); both are independent
    of c."""
    return float(
        _bethe_factor(spec.bc) * np.pi * _free_momentum_integers(spec).sum() / params.L
    )


def solve_bethe(spec: StateSpec, params: ModelParams) -> BetheSolution:
    """Solve the Bethe equations for ``spec`` at coupling/size ``params``.

    Newton starts from the strong-coupling anchor k_j = g pi I_j / L; if
    that stalls without a singular step, continuation from c L = 10 walks
    down to the target coupling in geometric steps.  At c = 0 the analytic
    free-gas values are returned when the state maps to distinct free
    momenta, and a ValueError is raised otherwise (the Bethe
    parametrization is singular there; use a small c > 0 instead).  The
    solution carries dk/dc, the norm and its c-derivative, all from one
    Gaudin system at the solved quasimomenta; SolverError is raised when
    that norm is not finite and positive in double precision, and when
    the Gaudin kernels or the energy overflow.  DegenerateStateError, a
    SolverError, is raised when rounding could close the smallest gap of k
    (the root test of ``_finish``), as for collapsed states near c = 0.
    """
    c, L = params.c, params.L
    unit = _bethe_factor(spec.bc) * np.pi
    if c == 0.0:
        free_n = _free_momentum_integers(spec)
        if (free_n[1:] <= free_n[:-1]).any():
            raise ValueError(
                "state is degenerate at c = 0 (free momenta coincide); "
                "solve at a small positive c instead"
            )
        return _finish(spec, params, unit / L * free_n, 0.0)

    anchor = unit * spec.qn_array / L
    try:
        k, rnorm = _newton(spec, params, anchor)
    except SolverError as exc:
        # continuing past a singular Gaudin matrix can end on wrong pair gaps
        if c * L >= CONTINUATION_CL or isinstance(exc.__cause__, np.linalg.LinAlgError):
            raise
        k = anchor
        c_path = np.geomspace(CONTINUATION_CL / L, c, CONTINUATION_STEPS + 1)
        for c_step in c_path:
            k, rnorm = _newton(spec, ModelParams(c_step, L), k)
    return _finish(spec, params, k, rnorm)


def _gaudin_system(k: np.ndarray, params: ModelParams, bc: BoundaryCondition):
    """The Gaudin matrix H at solved quasimomenta, det H, dk/dc and dH/dc.

    One pair stack u and one denominator u^2 + c^2 give H (as in
    :func:`gaudin_matrix`) and, by implicit differentiation of the Bethe
    equations, H . dk/dc = g sum_p sum_{l != j} u_p / (u_p^2 + c^2).  Every
    kernel entry g c / (u^2 + c^2) of H has the c-derivative
    g (u^2 - c^2 - 2 c u u') / (u^2 + c^2)^2 along the solution branch,
    with u' = du/dc the pair arguments of dk/dc; L drops out of dH/dc.
    It is formed as g (p^2 - q^2 - 2 p q u') / h^2 with h = hypot(u, c),
    p = u/h and q = c/h, which neither overflows at huge c nor divides
    0/0 on the excluded diagonal (h = inf there).
    Where quasimomenta collapse as sqrt(c) (ground states near c = 0),
    this kernel cancels from O(c) terms to O(c^2), and the rounding of k
    bounds its relative accuracy to about 1e-8 at c = 1e-6.

    Raises SolverError unless det H is finite and positive: quasimomenta
    that far out of range give a norm that double precision cannot hold.
    Raises it too where u^2 + c^2 overflows and the kernels this zeroes
    are not negligible beside L.
    """
    c, g, signs = params.c, _bethe_factor(bc), _pair_signs(bc)
    u = _pair_arguments(k, signs)
    # where u^2 + c^2 overflows, g c / (u^2 + c^2) and g u / (u^2 + c^2)
    # read 0 instead of at most g / max(c, sqrt(M)); fine beside L only
    # if that is below its rounding (as at c = 1e300, L = 1)
    u_max = float(np.abs(u).max())
    if not math.isfinite(u_max * u_max + c * c) and g / max(c, _SQRT_MAX) > _EPS * params.L:
        raise SolverError(
            f"u^2 + c^2 overflows (|u| up to {u_max:.3e}, c = {c:.3e}, L = {params.L:.3e}): "
            "the Gaudin kernels are out of floating-point range"
        )
    den = _kernel_denominator(u, c)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # c^2 may underflow
        matrix = _gaudin_assembly(g * c / den, signs, params.L)
        det = float(np.linalg.det(matrix))
    if not (math.isfinite(det) and det > 0):
        raise SolverError(
            f"Gaudin determinant {det:.3e} is not finite and positive: "
            "the norm of this state is out of floating-point range"
        )
    dk = np.linalg.solve(matrix, g * (u / den).sum(axis=0).sum(axis=1))
    du = _pair_arguments(dk, signs)
    h = np.hypot(u, c)
    _set_diagonals(h, np.inf)
    p, q = u / h, c / h
    kernel = g * (p * p - q * q - 2.0 * p * q * du) / h / h
    return matrix, det, dk, _gaudin_assembly(kernel, signs, 0.0)


def _finish(spec: StateSpec, params: ModelParams, k: np.ndarray, rnorm: float) -> BetheSolution:
    """Accept the root ``k`` or raise, and build its BetheSolution.

    The one root test: rounding leaves a residual floor of sqrt(N) eps
    times the terms L k, g pi I and the atan sums (at most g P (N - 1)
    pi/2 = (N - 1) pi; P pair kinds, 1 on the ring and 2 in the box).  As
    the Hessian of the convex Yang-Yang action (Yang & Yang, J. Math.
    Phys. 10, 1115 (1969)) H >= L I, so k moves by at most that over L,
    which must be at most ROOT_GAP_RTOL times the smallest gap of k (with
    k > 0 in the box also the smallest pair argument of the amplitude
    table).  The achieved residual is no bound: where atan(u / c) rounds
    to +-pi/2 it reads 0 for a wide range of k.
    """
    matrix, det, deriv, dmatrix = _gaudin_system(k, params, spec.bc)
    if spec.bc is BoundaryCondition.HARD_WALL and k[0] <= 0:
        raise SolverError("box quasimomenta must be positive")
    n, g, L = spec.n, _bethe_factor(spec.bc), params.L
    terms = L * np.abs(k).max() + np.pi * (g * np.abs(spec.qn_array).max() + n - 1)
    shift = math.sqrt(n) * _EPS * terms / L
    gap = float(np.diff(k).min()) if n > 1 else math.inf
    if not shift <= ROOT_GAP_RTOL * gap:
        raise DegenerateStateError(
            f"coincident quasimomenta: smallest gap {gap:.3e} is not resolved "
            f"(rounding can shift k by {shift:.3e})"
        )
    with np.errstate(over="ignore"):  # an overflow is the inf checked next
        energy = float((k * k).sum())
    if not math.isfinite(energy):
        raise SolverError(f"energy {energy} is out of floating-point range")
    n2 = 2.0 ** spec.n * det if spec.bc is BoundaryCondition.HARD_WALL else det
    return BetheSolution(
        k=np.array(k, dtype=float),
        dk_dc=deriv,
        energy=energy,
        momentum=momentum_of(spec, params),
        residual=float(rnorm),
        norm_sq=n2,
        dnorm_sq_dc=n2 * float(np.trace(np.linalg.solve(matrix, dmatrix))),
    )
