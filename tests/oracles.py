"""Numerical oracles of the test suite, kept out of the llfisher package.

The integral oracles evaluate the wavefunction at Gauss-Legendre nodes
by ``psi_at``, a plain sum over the amplitude table's terms, and sum;
none reads the package's evaluator (``wavefunction.eval_lines``), nor
the pair integrals or the divided-difference kernel
(``integrals._pair_integrals``, ``integrals.simplex_exp_integral``) that
the analytic QFI and the exact image probabilities are built from.
Their Gauss-Legendre rule is built here from
``scipy.special.roots_legendre``, apart from the package's own rule for
the CFI (``integrals.refined_simplex_quadrature``), which
``cfi_full_simplex`` checks.

- ``psi_at``: psi~ and d psi~/dc at a batch of points, term by term.
- ``simplex_nodes`` and ``simplex_quadrature``: the iterated rule on the
  ordered simplex, a tensor rule on the unit cube under the conical map.
- ``box_quadrature``: a symmetric integrand over an axis-aligned box, the
  oracle of the exact absorption-image probabilities.
- ``qfi_overlap_oracle``: the fidelity estimate of the QFI.
- ``cfi_full_simplex``: the CFI of the position measurement by the
  N-dimensional rule, with no translation reduction.

``compositions`` is the combinatorial one: the order in which the images
of ``imaging.enumerate_images`` come, by recursion on the first bin.
``pair_bundles`` keys and groups every row pair of a kappa table on its
own, the grouping that the pair plan and its value merge
(``integrals._pair_plan``, ``integrals._bundle_index``) reproduce from the
plan's representatives.
"""

import math
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import roots_legendre

from llfisher.bethe import BoundaryCondition, ModelParams, StateSpec
from llfisher.wavefunction import AmplitudeTable, amplitudes

# Gauss-Legendre points per dimension of the fidelity overlaps
OVERLAP_ORDER = 24
# ... and of the full-simplex CFI rule, up to 3-D and beyond
FULL_SIMPLEX_ORDER = 48
FULL_SIMPLEX_ORDER_4D = 24


def psi_at(table: AmplitudeTable, points) -> tuple:
    """(psi~, d psi~/dc) at a batch of ordered points, shape (M, N).

    Every term at every point: the sums over t of amp_t e^{i kappa_t . x}
    and of (damp_t + i amp_t dkappa_t . x) e^{i kappa_t . x}, in blocks of
    about 2^20 point-term entries.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.empty(len(x), dtype=complex)
    dvals = np.empty(len(x), dtype=complex)
    step = max(1, 2**20 // table.n_terms)
    for start in range(0, len(x), step):
        block = x[start : start + step]
        phase = np.exp(1j * (block @ table.kappa.T))
        vals[start : start + step] = np.sum(table.amp * phase, axis=1)
        slope = block @ table.dkappa.T
        dvals[start : start + step] = np.sum((table.damp + 1j * table.amp * slope) * phase, axis=1)
    return vals, dvals


def _gauss01(order: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    t, w = roots_legendre(order)
    return 0.5 * (t + 1.0), 0.5 * w


def simplex_nodes(n_dim: int, L: float, order: int):
    """Iterated Gauss-Legendre nodes/weights on 0 <= x_1 <= ... <= x_N <= L.

    The tensor rule on the unit cube, mapped by x_j = L u_j u_{j+1} ... u_N
    (the Duffy map), whose Jacobian is L^N times the product of
    u_j^(j - 1) over j.  Points come back as an (n_points, n_dim) array
    with ascending columns.
    """
    if n_dim < 1:
        raise ValueError(f"simplex dimension must be at least 1, got {n_dim}")
    t, w = _gauss01(order)
    u = np.stack(np.meshgrid(*[t] * n_dim, indexing="ij"), axis=-1).reshape(-1, n_dim)
    wu = np.prod(np.meshgrid(*[w] * n_dim, indexing="ij"), axis=0).ravel()
    pts = L * np.cumprod(u[:, ::-1], axis=1)[:, ::-1]
    return pts, L**n_dim * wu * np.prod(u ** np.arange(n_dim), axis=1)


def simplex_quadrature(
    f: Callable[[np.ndarray], np.ndarray], n_dim: int, L: float, order: int
):
    """Integrate ``f``, one value per row of ordered points, over 0 <= x_1 <= ... <= x_N <= L."""
    pts, wts = simplex_nodes(n_dim, L, order)
    return np.sum(wts * np.asarray(f(pts)))


def box_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    box: Sequence[tuple],
    order: int,
):
    """Integrate a symmetric ``f`` over an axis-aligned box.

    ``box`` is a sequence of (lo, hi) intervals, one per coordinate, in
    ascending order.  Runs of coordinates sharing an identical interval
    are integrated over their ordered sub-simplex and multiplied by the
    run-size factorial, which is exact for symmetric integrands and keeps
    every quadrature panel away from the coincidence cusps x_i = x_j.
    """
    t, w = _gauss01(order)
    if len(box) == 0:
        raise ValueError("box must have at least one interval")

    groups = []
    for lo, hi in box:
        lo = float(lo)
        hi = float(hi)
        if hi < lo:
            raise ValueError("box interval with hi < lo")
        if groups and groups[-1][0] == (lo, hi):
            groups[-1][1] += 1
        else:
            groups.append([(lo, hi), 1])

    pts = None
    wts = None
    for (lo, hi), size in groups:
        width = hi - lo
        if size == 1:
            g_pts = (lo + width * t)[:, None]
            g_wts = width * w
        else:
            g_pts, g_wts = simplex_nodes(size, width, order)
            g_pts = g_pts + lo
            g_wts = g_wts * math.factorial(size)
        if pts is None:
            pts, wts = g_pts, g_wts
        else:
            n_old, n_new = len(wts), len(g_wts)
            pts = np.concatenate(
                [np.repeat(pts, n_new, axis=0), np.tile(g_pts, (n_old, 1))], axis=1
            )
            wts = (wts[:, None] * g_wts[None, :]).ravel()

    vals = np.asarray(f(pts))
    return np.sum(wts * vals)


def _overlap_rule(n: int, L: float, ring: bool):
    """Nodes and weights for ordered-domain integrals of psi~_a* psi~_b.

    On the ring both states carry the same c-independent momentum, so the
    product is translation invariant: the (N - 1)-D rule at x_1 = 0 with
    weight L/N.  In the box, the N-D rule.
    """
    if not ring:
        return simplex_nodes(n, L, OVERLAP_ORDER)
    pts, wts = simplex_nodes(n - 1, L, OVERLAP_ORDER)
    return np.hstack([np.zeros((len(pts), 1)), pts]), (L / n) * wts


def qfi_overlap_oracle(
    spec: StateSpec, params: ModelParams, delta: Optional[float] = None
) -> float:
    """Fidelity-based QFI estimate, 8 (1 - |<psi_-|psi_+>|) / delta^2.

    The two states are solved at c -+ delta/2, which centers the stencil
    and makes the estimate second-order accurate.  Below c = delta/2 the
    stencil would cross c = 0, so the pairs (c, c + delta) and
    (c, c + 2 delta), centred at c + delta/2 and c + delta, are
    extrapolated linearly back to c, which keeps second order.  Every
    overlap and norm is one Gauss-Legendre rule (``_overlap_rule``) of
    the wavefunctions' values: no dA/dc, dk/dc, pair bundle or
    simplex-integral kernel enters, and the rule's own norms normalise
    the overlap.
    """
    if delta is None:
        delta = 1e-4 * max(params.c, 1.0)
    pts, wts = _overlap_rule(spec.n, params.L, spec.bc is BoundaryCondition.PERIODIC)

    def state(c: float) -> np.ndarray:
        vals, _ = psi_at(amplitudes(spec, ModelParams(c, params.L)), pts)
        return vals

    def infidelity(a: np.ndarray, b: np.ndarray) -> float:
        """8 (1 - |<psi_a|psi_b>|) of the two states the rule normalises."""
        ab = np.sum(wts * np.conj(a) * b)
        aa = np.sum(wts * np.abs(a) ** 2)
        bb = np.sum(wts * np.abs(b) ** 2)
        return 8.0 * (1.0 - abs(ab) / math.sqrt(aa * bb))

    c = params.c
    if c >= delta / 2.0:
        return infidelity(state(c - delta / 2.0), state(c + delta / 2.0)) / delta**2
    base = state(c)
    near = infidelity(base, state(c + delta)) / delta**2
    far = infidelity(base, state(c + 2.0 * delta)) / (2.0 * delta) ** 2
    return 2.0 * near - far


def cfi_full_simplex(table: AmplitudeTable) -> float:
    """CFI 4 int (d_c |psi|)^2 by the N-D rule over the whole ordered simplex.

    FULL_SIMPLEX_ORDER points per dimension up to 3-D and
    FULL_SIMPLEX_ORDER_4D beyond, ring or box: the reference for the
    (N - 1)-D ring rules of ``fisher._cfi_quadrature`` and the quadrature
    counterpart of the analytic CFI = QFI of saturated states.
    """
    n, sol = table.n, table.solution
    dlog = sol.dnorm_sq_dc / (2.0 * sol.norm_sq)

    def density(pts):
        vals, dvals = psi_at(table, pts)
        radial = (np.conj(vals) * (dvals - dlog * vals)).real
        return 4.0 * radial**2 / np.abs(vals) ** 2 / sol.norm_sq

    order = FULL_SIMPLEX_ORDER if n <= 3 else FULL_SIMPLEX_ORDER_4D
    return float(simplex_quadrature(density, n, table.L, order).real)


def compositions(total: int, bins: int) -> list:
    """Weak compositions of ``total`` into ``bins`` parts, first part descending.

    By recursion on the first bin.  Once the total is spent the remaining
    bins are zero, so a branch ends there instead of recursing through
    every bin left.
    """
    out = []

    def fill(prefix: tuple, left: int, b: int) -> None:
        if b == 1:
            out.append(prefix + (left,))
        elif left == 0:
            out.append(prefix + (0,) * b)
        else:
            for first in range(left, -1, -1):
                fill(prefix + (first,), left - first, b - 1)

    fill((), total, bins)
    return out


def pair_bundles(kappa: np.ndarray, rtol: float) -> tuple:
    """The bundles of every row pair of a kappa table, each pair keyed on its own.

    Pair (t, s) has lambda = kappa[t] - kappa[s] and the integer key
    round(lambda / q), q = rtol times the largest |kappa|.  Its four turns
    are key, -key, rev key and -rev key, in that order; its orientation is
    the turn that comes first in lexicographic order, the earliest of
    equal turns, and its bundle that smallest turn.  Every turn of every
    pair is ranked in one lexsort, the turn number breaking ties.
    Returns (vectors, index): the bundle vectors in lexicographic order of
    their keys, each the lambda of the bundle's lowest pair in the
    orientation of that pair, and index[t, s] = 4 bundle + orientation.
    """
    rows, n = kappa.shape
    scale = float(np.abs(kappa).max())
    quantum = rtol * scale if scale > 0 else 1.0
    lam = (kappa[:, None, :] - kappa[None, :, :]).reshape(-1, n)
    key = np.round(lam / quantum).astype(np.int64)
    turns = np.stack([key, -key, key[:, ::-1], -key[:, ::-1]], axis=1)
    flat = turns.reshape(-1, n)
    number = np.tile(np.arange(4), len(key))
    rank = np.empty(len(flat), dtype=np.int64)
    rank[np.lexsort((number,) + tuple(flat[:, ::-1].T))] = np.arange(len(flat))
    orient = rank.reshape(-1, 4).argmin(axis=1)
    smallest = turns[np.arange(len(key)), orient]
    _, first, bundle = np.unique(smallest, axis=0, return_index=True, return_inverse=True)
    lam_turns = np.stack([lam, -lam, lam[:, ::-1], -lam[:, ::-1]], axis=1)
    vectors = lam_turns[first, orient[first]]
    return vectors, (4 * bundle.reshape(-1) + orient).reshape(rows, rows)
