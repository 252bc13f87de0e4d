"""Evaluation of the Bethe-ansatz wavefunction and its coupling derivative.

On the ordered domain 0 <= x_1 <= ... <= x_N <= L the unnormalized
eigenfunction is a permutation sum of plane waves,

  ring:  psi~(x) = sum_P A(P) exp(i sum_j k_{P_j} x_j),
         A(P) = prod_{j<l} (1 + i c / (k_{P_j} - k_{P_l})),

  box:   psi~(x) = sum_{eps, P} pi_eps A(eps, P)
                   exp(i sum_j eps_j k_{P_j} x_j),
         A(eps, P) = prod_{j<l} [1 - i c / (kap_j + kap_l)]
                               [1 + i c / (kap_j - kap_l)],

with kap_j = eps_j k_{P_j}, eps_j = +-1 and pi_eps = prod_j eps_j.  The
bosonic extension to [0, L]^N sorts the coordinates first.

Amplitude tables carry every coefficient together with its analytic
c-derivative (product rule through dk/dc), so pointwise values and
d(psi)/dc come out of a single pass over the table, summed by one matrix
product per chunk of points.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .bethe import BetheSolution, BoundaryCondition, ModelParams, StateSpec

# Particle-number caps reflecting the ~N!^2 / 2^(2N) N!^2 cost of the
# downstream double-permutation sums; ``amplitudes(..., allow_large_n=True)``
# lifts them for a caller who accepts the wait.
MAX_N_PERIODIC = 5
MAX_N_HARD_WALL = 4


class DegenerateStateError(ValueError):
    """Two quasimomenta coincide; the ansatz coefficients are singular."""


class PhaseClass(enum.Enum):
    """How the wavefunction's global phase depends on the coupling."""

    REAL = "real"
    IMAGINARY = "imaginary"
    GENERAL = "general"


@dataclass(frozen=True)
class AmplitudeTable:
    """All ansatz coefficients of one solved state, with c-derivatives.

    Each row is one term of the permutation (and, in the box, sign) sum:
    ``kappa`` holds the signed quasimomenta entering the exponent,
    ``weight`` the sign prefactor pi_eps (all ones on the ring), ``amp``
    and ``damp`` the coefficient A and dA/dc.
    """

    bc: BoundaryCondition
    n: int
    L: float
    perms: np.ndarray
    signs: np.ndarray
    weight: np.ndarray
    amp: np.ndarray
    damp: np.ndarray
    kappa: np.ndarray
    dkappa: np.ndarray

    def __post_init__(self) -> None:
        for name in ("perms", "signs", "weight", "amp", "damp", "kappa", "dkappa"):
            getattr(self, name).setflags(write=False)

    @property
    def n_terms(self) -> int:
        return self.amp.size


def _coefficient(kappa: np.ndarray, dkappa: np.ndarray, c: float, hard_wall: bool):
    """A and dA/dc for one signed-momentum row, by product rule.

    Every factor is 1 + ic/u with real u != 0, so it cannot vanish and
    the logarithmic derivative is safe.
    """
    n = kappa.size
    scale = max(1.0, float(np.max(np.abs(kappa))))
    amp = 1.0 + 0.0j
    logder = 0.0 + 0.0j
    for j in range(n):
        for l in range(j + 1, n):
            u = kappa[j] - kappa[l]
            if abs(u) < 1e-14 * scale:
                raise DegenerateStateError("coincident quasimomenta in amplitude product")
            du = dkappa[j] - dkappa[l]
            f = 1.0 + 1j * c / u
            amp *= f
            logder += (1j / u - 1j * c * du / (u * u)) / f
            if hard_wall:
                v = kappa[j] + kappa[l]
                if abs(v) < 1e-14 * scale:
                    raise DegenerateStateError("vanishing quasimomentum sum in amplitude product")
                dv = dkappa[j] + dkappa[l]
                g = 1.0 - 1j * c / v
                amp *= g
                logder += (-1j / v + 1j * c * dv / (v * v)) / g
    return amp, amp * logder


def _check_particle_cap(n: int, bc: BoundaryCondition) -> None:
    """Raise ValueError when N exceeds the particle cap of its boundary condition."""
    cap = MAX_N_PERIODIC if bc is BoundaryCondition.PERIODIC else MAX_N_HARD_WALL
    if n > cap:
        raise ValueError(f"N = {n} exceeds the particle cap of {cap} for {bc.value} states")


def amplitudes(
    solution: BetheSolution,
    params: ModelParams,
    bc: BoundaryCondition,
    allow_large_n: bool = False,
) -> AmplitudeTable:
    """Build the full coefficient table of a solved state.

    N! rows on the ring, 2^N N! in the box.  Raises ValueError unless N
    is within the particle cap (MAX_N_PERIODIC, MAX_N_HARD_WALL) or
    ``allow_large_n`` is set.
    """
    n = solution.n
    if not allow_large_n:
        _check_particle_cap(n, bc)

    k = solution.k
    dk = solution.dk_dc
    perm_list = list(itertools.permutations(range(n)))
    if bc is BoundaryCondition.PERIODIC:
        sign_list = [np.ones(n)]
    else:
        sign_list = [np.array(s, dtype=float) for s in itertools.product((1.0, -1.0), repeat=n)]

    rows_p, rows_s, rows_w = [], [], []
    rows_a, rows_da, rows_kap, rows_dkap = [], [], [], []
    for signs in sign_list:
        pi_eps = float(np.prod(signs))
        for perm in perm_list:
            perm_arr = np.array(perm, dtype=int)
            kap = signs * k[perm_arr]
            dkap = signs * dk[perm_arr]
            amp, damp = _coefficient(kap, dkap, params.c, bc is BoundaryCondition.HARD_WALL)
            rows_p.append(perm_arr)
            rows_s.append(signs)
            rows_w.append(pi_eps)
            rows_a.append(amp)
            rows_da.append(damp)
            rows_kap.append(kap)
            rows_dkap.append(dkap)

    return AmplitudeTable(
        bc=bc,
        n=n,
        L=params.L,
        perms=np.array(rows_p, dtype=int),
        signs=np.array(rows_s, dtype=float),
        weight=np.array(rows_w, dtype=float),
        amp=np.array(rows_a, dtype=complex),
        damp=np.array(rows_da, dtype=complex),
        kappa=np.array(rows_kap, dtype=float),
        dkappa=np.array(rows_dkap, dtype=float),
    )


def eval_batch(table: AmplitudeTable, points: np.ndarray, chunk: int = 200_000):
    """(psi~, d psi~/dc) at a batch of ordered points, shape (M, N).

    Points are processed in chunks to bound the (M, n_terms) phase
    matrix; the reduction order over terms is fixed, so results are
    deterministic.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m_total = points.shape[0]
    values = np.empty(m_total, dtype=complex)
    dvalues = np.empty(m_total, dtype=complex)
    w_amp = table.weight * table.amp
    w_damp = table.weight * table.damp

    max_rows = max(1, chunk // max(1, table.n_terms))
    for start in range(0, m_total, max_rows):
        block = points[start : start + max_rows]
        phases = np.exp(1j * (block @ table.kappa.T))
        values[start : start + max_rows] = phases @ w_amp
        dvalues[start : start + max_rows] = phases @ w_damp + 1j * (
            ((block @ table.dkappa.T) * phases) @ w_amp
        )
    return values, dvalues


def global_phase_class(spec: StateSpec) -> PhaseClass:
    """Classify the coupling dependence of the wavefunction's global phase.

    Box states are real (even N) or purely imaginary (odd N) outright.
    Ring states factor into a c-independent phase times a real function
    exactly when the quantum numbers are symmetric about their own
    center, i.e. I_j + I_{N+1-j} is the same for every j; the quasimomenta
    then stay mirror-symmetric about a fixed center for all c.  For these
    two classes the position measurement is optimal (CFI = QFI).
    """
    if spec.bc is BoundaryCondition.HARD_WALL:
        return PhaseClass.REAL if spec.n % 2 == 0 else PhaseClass.IMAGINARY
    qn = spec.qn_array
    sums = qn + qn[::-1]
    if np.max(np.abs(sums - sums[0])) < 1e-12:
        return PhaseClass.REAL
    return PhaseClass.GENERAL
