"""Evaluation of the Bethe-ansatz wavefunction and its coupling derivative.

On the ordered domain 0 <= x_1 <= ... <= x_N <= L the unnormalized
eigenfunction is a permutation sum of plane waves,

  ring:  psi~(x) = sum_P A(P) exp(i sum_j k_{P_j} x_j),
         A(P) = prod_{j<l} f(k_{P_j} - k_{P_l}),

  box:   psi~(x) = sum_{eps, P} pi_eps A(eps, P)
                   exp(i sum_j eps_j k_{P_j} x_j),
         A(eps, P) = prod_{j<l} f(kap_j - kap_l) f(-(kap_j + kap_l)),

  f(u) = sign(u) (u + i c) / |u + i c|,

with kap_j = eps_j k_{P_j}, eps_j = +-1 and pi_eps = prod_j eps_j.  The
bosonic extension to [0, L]^N sorts the coordinates first.

f(u) is the textbook factor 1 + i c/u divided by its modulus
|u + i c|/|u|.  The pair moduli |kap_j -+ kap_l| are the same in every
row, so this gauge rescales psi~ by a positive function of c alone: the
QFI, the CFI and the image probabilities do not change, and the norm
square becomes det H (2^N det H in the box; see ``bethe.BetheSolution``).
Each factor's log-derivative, d ln f/dc = i Im((u' + i)/(u + i c)) with
u' = du/dc, stays bounded as c grows, so dA/dc carries no uniform
N(N-1)/(2c) A term for the QFI assembly to cancel at strong coupling.

An amplitude table is one state point: ``amplitudes(spec, params)``
solves the Bethe equations and keeps the solution, whose norm NS and
dNS/dc every consumer needs, next to the signed coefficients pi_eps A and
their analytic c-derivatives (product rule through dk/dc).  Pointwise
values and d(psi)/dc come out of a single pass over the table, summed by
one matrix product per chunk of points.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bethe import (
    BetheSolution, BoundaryCondition, ModelParams, SolverError, StateSpec, solve_bethe
)

# Particle-number caps reflecting the ~N!^2 / 2^(2N) N!^2 cost of the
# downstream double-permutation sums.
MAX_N_PERIODIC = 5
MAX_N_HARD_WALL = 4

# Phase-matrix entries (points x terms) that ``eval_batch`` builds at once.
_EVAL_CHUNK = 200_000


class DegenerateStateError(SolverError):
    """Solved quasimomenta coincide in double precision (e.g. the box ground
    state at c = 1e-30), so the ansatz coefficients are singular."""


class PhaseClass(enum.Enum):
    """How the wavefunction's global phase depends on the coupling."""

    REAL = "real"
    IMAGINARY = "imaginary"
    GENERAL = "general"


@dataclass(frozen=True)
class AmplitudeTable:
    """One solved state point: its Bethe solution and all ansatz coefficients.

    Each row is one term of the permutation (and, in the box, sign) sum,
    sign vectors major in ``itertools.product((1, -1), repeat=N)`` order
    and permutations minor in ``itertools.permutations(range(N))`` order:
    row (eps, P), eps = 1 on the ring, has kappa_j = eps_j k_{P_j}.  ``kappa`` holds these signed
    quasimomenta entering the exponent, ``amp`` the signed coefficient
    pi_eps A (pi_eps = 1 on the ring; A of modulus one, module docstring)
    and ``damp`` its derivative pi_eps dA/dc = amp sum i Im((u' + i)/(u + i c))
    over the factors of A.
    """

    solution: BetheSolution
    L: float
    amp: np.ndarray
    damp: np.ndarray
    kappa: np.ndarray
    dkappa: np.ndarray

    def __post_init__(self) -> None:
        for name in ("amp", "damp", "kappa", "dkappa"):
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return self.solution.n

    @property
    def n_terms(self) -> int:
        return self.amp.size

    @property
    def periodic(self) -> bool:
        """A ring table: N! rows, where a box table has 2^N N!."""
        return self.n_terms == math.factorial(self.n)


def _check_particle_cap(n: int, bc: BoundaryCondition) -> None:
    """Raise ValueError when N exceeds the particle cap of its boundary condition."""
    cap = MAX_N_PERIODIC if bc is BoundaryCondition.PERIODIC else MAX_N_HARD_WALL
    if n > cap:
        raise ValueError(f"N = {n} exceeds the particle cap of {cap} for {bc.value} states")


def amplitudes(spec: StateSpec, params: ModelParams) -> AmplitudeTable:
    """Solve ``spec`` at ``params`` and build the full coefficient table.

    N! rows on the ring, 2^N N! in the box.  Raises ValueError when N
    exceeds the particle cap (MAX_N_PERIODIC, MAX_N_HARD_WALL), before
    any solving, and DegenerateStateError when solved quasimomenta
    coincide in double precision: a pair argument below 1e-14 max|k|.
    The test is relative, so it does not depend on L at fixed c L.
    """
    n, bc = spec.n, spec.bc
    _check_particle_cap(n, bc)
    solution = solve_bethe(spec, params)

    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    if bc is BoundaryCondition.PERIODIC:
        sign_set = np.ones((1, n))
    else:
        sign_set = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    # rows run over every permutation within each sign vector
    signs = np.repeat(sign_set, len(perms), axis=0)
    perms = np.tile(perms, (len(sign_set), 1))
    kappa = signs * solution.k[perms]
    dkappa = signs * solution.dk_dc[perms]

    # pair arguments u of the factors f(u): kap_j - kap_l, and in the box
    # also -(kap_j + kap_l)
    j, l = np.triu_indices(n, 1)
    u = kappa[:, j] - kappa[:, l]
    du = dkappa[:, j] - dkappa[:, l]
    if bc is BoundaryCondition.HARD_WALL:
        u = np.hstack([u, -(kappa[:, j] + kappa[:, l])])
        du = np.hstack([du, -(dkappa[:, j] + dkappa[:, l])])
    if np.any(np.abs(u) < 1e-14 * float(np.max(np.abs(solution.k)))):
        raise DegenerateStateError("coincident quasimomenta or vanishing quasimomentum sum")

    c = params.c
    # the sign prefactor pi_eps times A; +-1 factors are exact
    amp = np.prod(signs, axis=1) * np.prod(np.sign(u) * (u + 1j * c) / np.hypot(u, c), axis=1)
    # d ln f/dc = i Im((u' + i)/(u + ic)) = i (u - c u')/(u^2 + c^2)
    logder = np.sum((u - c * du) / (u * u + c * c), axis=1)
    return AmplitudeTable(
        solution=solution,
        L=params.L,
        amp=amp,
        damp=1j * logder * amp,
        kappa=kappa,
        dkappa=dkappa,
    )


def _unit_phases(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) of a real array, as cos and sin written into one complex array.

    This skips the complex temporary 1j * theta and the complex exponential
    of ``np.exp(1j * theta)``, whose bits it matches (the test suite checks
    them), except that theta = -0.0 keeps its sign in the imaginary part.
    """
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def eval_batch(table: AmplitudeTable, points: np.ndarray):
    """(psi~, d psi~/dc) at a batch of ordered points, shape (M, N).

    With phases e^{i kappa_t . x}, d psi~/dc = sum_t (damp_t + i
    (dkappa_t . x) amp_t) e^{i kappa_t . x}, and its x-dependent part is
    i sum_j x_j sum_t amp_t dkappa_tj e^{i kappa_t . x}.  So one matrix
    product of the phases with the columns (amp, damp, amp dkappa_1, ...,
    amp dkappa_N) gives both values.  Points are processed in chunks to
    bound the (M, n_terms) phase matrix; the reduction order over terms is
    fixed, so results are deterministic.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m_total = points.shape[0]
    values = np.empty(m_total, dtype=complex)
    dvalues = np.empty(m_total, dtype=complex)
    weights = np.column_stack([table.amp, table.damp, table.amp[:, None] * table.dkappa])
    max_rows = max(1, _EVAL_CHUNK // max(1, table.n_terms))
    for start in range(0, m_total, max_rows):
        block = points[start : start + max_rows]
        sums = _unit_phases(block @ table.kappa.T) @ weights
        values[start : start + max_rows] = sums[:, 0]
        dvalues[start : start + max_rows] = sums[:, 1] + 1j * np.einsum(
            "mj,mj->m", block, sums[:, 2:]
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
