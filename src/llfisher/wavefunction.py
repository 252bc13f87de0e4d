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
their analytic c-derivatives (product rule through dk/dc).

Values and d(psi)/dc come out of one pass over the table, on nodes that
lie on lines x = X + u e (``eval_lines``): the nodes of an iterated rule
on a simplex cell, e its innermost edge.  There every plane wave
factors, e^{i kappa_t . x} = e^{i kappa_t . X} e^{i u kappa_t . e}, and
the terms whose beta_t = kappa_t . e are equal share the second factor.
So the terms are summed once per outer point X within each group of equal
beta, and the groups along each line: sum factorisation over one axis of
a tensor-product rule (Orszag, J. Comput. Phys. 37, 70 (1980)).  The
coordinates are those of the kappa columns it is given: the ring CFI
passes the columns 2..N of its slice x_1 = 0, whose reference cell has
e = (L, 0, ...), and there the N! terms fall into N groups.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bethe import (
    BetheSolution, BoundaryCondition, ModelParams, StateSpec, _pair_signs, solve_bethe
)

# Particle-number caps reflecting the ~N!^2 / 2^(2N) N!^2 cost of the
# downstream double-permutation sums.
MAX_N_PERIODIC = 5
MAX_N_HARD_WALL = 4

# Entries of the largest array that ``eval_lines`` builds at once (outer
# points x terms x 3 columns, or nodes x groups).
_EVAL_CHUNK = 200_000


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


@functools.lru_cache(maxsize=32)
def _row_layout(periodic: bool, n: int):
    """(signs, perms, sign products) of the rows of a ring or box table, read-only and cached.

    ``signs`` and ``perms`` are the (rows, N) eps and P of every row, sign
    vectors major and permutations minor (``AmplitudeTable``), C-ordered;
    the sign products pi_eps are (rows,).  They depend on the boundary and
    N alone, so the amplitude tables and the pair plans
    (``integrals._pair_plan``) read one copy.
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    sign_set = np.array(list(itertools.product((1.0,) if periodic else (1.0, -1.0), repeat=n)))
    # rows run over every permutation within each sign vector
    signs = np.repeat(sign_set, len(perms), axis=0)
    perms = np.tile(perms, (len(sign_set), 1))
    products = np.prod(signs, axis=1)
    for arr in (signs, perms, products):
        arr.setflags(write=False)
    return signs, perms, products


def amplitudes(spec: StateSpec, params: ModelParams) -> AmplitudeTable:
    """Solve ``spec`` at ``params`` and build the full coefficient table.

    N! rows on the ring, 2^N N! in the box, laid out by ``_row_layout``.
    Raises ValueError when N exceeds the particle cap (MAX_N_PERIODIC,
    MAX_N_HARD_WALL), before any solving.  The factors f(u) of A take
    u = -s_p (kap_j + s_p kap_l), j < l, over the s_p of
    ``bethe._pair_signs``; ``solve_bethe`` rejects k whose gaps rounding
    cannot resolve (DegenerateStateError), so no u vanishes.
    """
    n, bc = spec.n, spec.bc
    _check_particle_cap(n, bc)
    solution = solve_bethe(spec, params)

    signs, perms, sign_products = _row_layout(bc is BoundaryCondition.PERIODIC, n)
    kappa = signs * solution.k[perms]
    dkappa = signs * solution.dk_dc[perms]

    # the factor arguments u and du/dc, columns p-major
    j, l = np.triu_indices(n, 1)
    s = _pair_signs(bc).reshape(-1, 1)
    u = (-s * (kappa[:, None, j] + s * kappa[:, None, l])).reshape(len(kappa), -1)
    du = (-s * (dkappa[:, None, j] + s * dkappa[:, None, l])).reshape(len(kappa), -1)
    c = params.c
    # the sign prefactor pi_eps times A; +-1 factors are exact
    amp = sign_products * np.prod(np.sign(u) * (u + 1j * c) / np.hypot(u, c), axis=1)
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


def eval_lines(
    amp: np.ndarray,
    damp: np.ndarray,
    kappa: np.ndarray,
    dkappa: np.ndarray,
    outer: np.ndarray,
    edges: np.ndarray,
    u: np.ndarray,
):
    """(psi~, d psi~/dc) at the nodes x = outer[s, p] + u[p, i] edges[s], shape (S, P, m) each.

    ``amp``, ``damp`` (R,) and ``kappa``, ``dkappa`` (R, D) are the R
    terms of an amplitude table, on the D coordinates that the nodes
    carry.  ``outer`` (S, P, D) holds the outer points of S cells,
    ``edges`` (S, D) each cell's innermost edge e and ``u`` (P, m) the
    innermost unit coordinates, so each (s, p) is a line of m nodes along
    e.  The phase of term t factors as e^{i kappa_t . X} e^{i u beta_t},
    beta_t = kappa_t . e, and with dkappa_t . x = dkappa_t . X + u dkappa_t . e,

        psi~      = sum_g e^{i u beta_g} A_g(X),
        d psi~/dc = sum_g e^{i u beta_g} (B_g(X) + i u D_g(X)),

    g over the distinct beta of the cell, A_g, B_g and D_g summing
    amp_t, damp_t + i amp_t dkappa_t . X and amp_t dkappa_t . e times
    e^{i kappa_t . X} over the terms with beta_t = beta_g exactly.  The
    terms are sorted by beta in each cell, so each group is one run of
    ``np.add.reduceat``, and one small product per line (s, p) sums its
    groups.  So a cell of G groups costs P R + P m G sines and cosines,
    not P m R.  Outer points are processed in blocks whose arrays stay
    within _EVAL_CHUNK entries.  No sum is split by BLAS thread, so the
    results do not depend on the thread count.
    """
    outer = np.asarray(outer, dtype=float)
    edges = np.asarray(edges, dtype=float)
    u = np.asarray(u, dtype=float)
    n_cells, n_outer, _ = outer.shape
    n_terms, n_inner = amp.size, u.shape[1]

    # sort each cell's terms by beta; a group is a run of equal beta, starting
    # at ``starts`` of the flattened (cell, term) axis, with its cell and slot
    beta = edges @ kappa.T
    order = np.argsort(beta, axis=1, kind="stable")
    beta = np.take_along_axis(beta, order, axis=1).ravel()
    first = np.empty(beta.size, dtype=bool)
    np.not_equal(beta[1:], beta[:-1], out=first[1:])
    first[::n_terms] = True
    starts = np.flatnonzero(first)
    cell = starts // n_terms
    slot = np.arange(starts.size) - np.searchsorted(starts, cell * n_terms)
    n_groups = int(slot.max()) + 1
    group_beta = np.zeros((n_cells, n_groups))
    group_beta[cell, slot] = beta[starts]

    kappa, dkappa = kappa[order], dkappa[order]
    amp, damp = amp[order][..., None], damp[order][..., None]
    amp_de = amp * np.einsum("stj,sj->st", dkappa, edges)[..., None]

    values = np.empty((n_cells, n_outer, n_inner), dtype=complex)
    dvalues = np.empty_like(values)
    per_point = n_cells * max(3 * n_terms, n_inner * max(n_groups, 3))
    step = max(1, _EVAL_CHUNK // per_point)
    for start in range(0, n_outer, step):
        block = slice(start, start + step)
        xt = outer[:, block].transpose(0, 2, 1)
        phase = _unit_phases(kappa @ xt)
        terms = np.empty(phase.shape + (3,), dtype=complex)
        terms[..., 0] = amp * phase
        terms[..., 1] = (damp + 1j * amp * (dkappa @ xt)) * phase
        terms[..., 2] = amp_de * phase
        sums = np.add.reduceat(terms.reshape((-1,) + terms.shape[2:]), starts, axis=0)
        grouped = np.zeros((n_cells, phase.shape[2], n_groups, 3), dtype=complex)
        grouped[cell, :, slot] = sums
        ub = u[block]
        out = _unit_phases(ub[None, :, :, None] * group_beta[:, None, None, :]) @ grouped
        values[:, block] = out[..., 0]
        dvalues[:, block] = out[..., 1] + 1j * ub * out[..., 2]
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
