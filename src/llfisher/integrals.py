"""Nested integrals over ordered simplices and pixel boxes.

The analytic workhorse is the N-fold integral of a plane wave, and of its
first and second coordinate moments, over the ordered simplex
0 < x_1 < ... < x_N < L:

    I       = int e^{-i lambda.x},
    I^1_l   = int x_l e^{-i lambda.x},
    I^11_ml = int x_m x_l e^{-i lambda.x}.

In the N + 1 gaps between 0, x_1, ..., x_N and L the exponent is linear,
so by the Hermite-Genocchi formula the integral is a divided difference
of exp.  With 0-based indices (n = N) and the nodes

    z_j = -i L sum_{m >= j} lambda_m  (j < n),   z_n = 0,

it reads

    I       = L^n     exp[z_0, ..., z_n],
    I^1_l   = L^{n+1} sum_{i <= l} exp[z, z_i],
    I^11_ml = L^{n+2} sum_{i <= m, j <= l} c_ij exp[z, z_i, z_j],

with c_ii = 2 and c_ij = 1 otherwise: x_l is the sum of the first l + 1
gaps, and differentiating with respect to a node repeats it.  The divided
difference exp[w_p, ..., w_q] over a window of consecutive nodes is entry
(p, q) of the exponential of the bidiagonal matrix with diagonal w and
ones above it (Opitz 1964; McCurdy, Ng & Parlett, Math. Comp. 43, 1984).
One batched matrix exponential, scaling and squaring with the degree-13
Pade approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 2005), therefore
yields every integral, confluent nodes included, without case splits.

The moment order k (0, 1 or 2) is the number of extra nodes on each side
of z in a node row

    (z_{w_0}, ..., z_{w_{k-1}}, z_0, ..., z_n, z_{w_k}, ..., z_{w_{2k-1}}),

set by a walk w of 2k indices.  Every window that holds all of z and m <= k
of the extra nodes is read: window (k - u, n + k + v) gives
exp[z, z_{w_{k-u}}, ..., z_{w_{k+v-1}}].  Order 0 is the row z alone.  At
order 1 a row (z_b, z, z_c) gives the first moments of b and c.  At order
2 a row (z_a, z_b, z, z_c, z_d) gives I from window (2, n+2), the first
moments of b and c from (1, n+2) and (2, n+3), and the second moments of
the three walk edges (a, b), (b, c) and (c, d) from (0, n+2), (1, n+3)
and (2, n+4).  A greedy cover, built once per (n, k), picks the walks so
that every moment appears in some row: ceil(n (n+1) / 6) rows of size
n + 5 for the n (n+1) / 2 second moments when n <= 5.

Iterated Gauss-Legendre rules over the same ordered domain, and tensor
rules over axis-aligned boxes, provide the independent numerical oracle
used throughout the test suite and the direct CFI quadrature.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

# Matrix entries per batched expm step: 128 KiB per complex array, small
# enough to stay in cache, and a bound on the kernel's working set whatever
# the number of wavenumber vectors.
EXPM_CHUNK = 8192

DEFAULT_SIMPLEX_ORDER = 48
DEFAULT_SIMPLEX_ORDER_4D = 24

# Higham (2005): the degree-13 Pade coefficients, and theta_13, the 1-norm
# up to which the unscaled approximant is accurate to double precision.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size cap."""


class NumericalHealthError(RuntimeError):
    """An integration result failed its accuracy check.

    Raised when the QFI assembly leaves an imaginary residue or the
    absorption-image probabilities do not sum to one.
    """


def _expm_upper(a: np.ndarray) -> np.ndarray:
    """Matrix exponentials of a stack of upper-triangular matrices, (B, m, m).

    Scaling and squaring with the [13/13] Pade approximant; each matrix
    gets its own scaling power, so one large node does not cost the rest
    of the batch extra squarings.  The Pade denominator is upper
    triangular like ``a``, so it is inverted by back substitution.
    """
    m = a.shape[-1]
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    with np.errstate(divide="ignore"):
        s = np.maximum(0.0, np.ceil(np.log2(norm / _THETA13))).astype(int)
    a = a * np.ldexp(1.0, -s)[:, None, None]
    b = _PADE13
    eye = np.eye(m)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    )
    den = v - u
    r = v + u
    for i in range(m - 1, -1, -1):
        r[:, i : i + 1] -= den[:, i : i + 1, i + 1 :] @ r[:, i + 1 :]
        r[:, i] /= den[:, i, i, None]
    for k in range(int(s.max(initial=0))):
        sel = s > k
        r[sel] = r[sel] @ r[sel]
    return r


def _divided_differences(w: np.ndarray) -> np.ndarray:
    """Tables exp[w_p, ..., w_q] at (p, q), p <= q, per node row of w.

    The exponential of the bidiagonal matrix with diagonal w and ones
    above it, (rows, m, m).  Every row is first shifted by the centre mu
    of its nodes' imaginary parts, which halves the matrix norm; exp[w] =
    e^mu exp[w - mu] restores it.
    """
    rows, m = w.shape
    mu = 0.5j * (w.imag.max(axis=1) + w.imag.min(axis=1))
    diag = np.arange(m)
    a = np.zeros((rows, m, m), dtype=complex)
    a[:, diag, diag] = w - mu[:, None]
    a[:, diag[:-1], diag[1:]] = 1.0
    return np.exp(mu)[:, None, None] * _expm_upper(a)


def _window_keys(walk: tuple, order: int):
    """(moment key, first row position, extra-node count) of every window a walk's row holds.

    The window holds z and the extra nodes walk[start : start + size]; the
    key is their sorted tuple: () for I, (i,) for the first moment of i,
    (i, j) for the pair i <= j.
    """
    for size in range(order + 1):
        for start in range(order - size, order + 1):
            yield tuple(sorted(walk[start : start + size])), start, size


@functools.lru_cache(maxsize=32)
def _layout(n: int, order: int):
    """Node rows and read-off windows for n wavenumbers at a moment order.

    Returns (nodes, windows).  ``nodes`` is a read-only (rows, n + 1 +
    2 order) index array into (z_0, ..., z_n); ``windows[m]`` holds
    read-only (row, p, q) index arrays of the windows that give the
    moments of m extra nodes, in the order () for m = 0, (i,) for i < n,
    and (i, j) for i <= j in ``np.triu_indices(n)`` order.  The walks are
    chosen greedily: each next walk covers the most still-missing second
    moments, then first moments (first such walk in lexicographic order).
    """
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    wanted = [[()], [(i,) for i in range(n)], pairs][: order + 1]
    missing = {key for keys in wanted for key in keys}
    candidates = list(itertools.product(range(n), repeat=2 * order))

    def covers(walk):
        return {key for key, _, _ in _window_keys(walk, order)}

    def gain(walk):
        new = covers(walk) & missing
        return tuple(sum(len(key) == size for key in new) for size in range(order, -1, -1))

    walks = []
    while missing:
        walk = max(candidates, key=gain)
        walks.append(walk)
        missing -= covers(walk)

    found = {}
    for row, walk in enumerate(walks):
        for key, start, size in _window_keys(walk, order):
            found.setdefault(key, (row, start, start + n + size))
    centre = list(range(n + 1))
    nodes = np.array([list(w[:order]) + centre + list(w[order:]) for w in walks], dtype=int)
    windows = tuple(
        tuple(np.array(idx, dtype=int) for idx in zip(*(found[key] for key in keys)))
        for keys in wanted
    )
    nodes.setflags(write=False)
    for window in windows:
        for idx in window:
            idx.setflags(write=False)
    return nodes, windows


def _simplex_block(lam: np.ndarray, L: float, order: int):
    """simplex_exp_integral for a (rows, n) block of wavenumber vectors."""
    rows, n = lam.shape
    tails = np.cumsum(lam[:, ::-1], axis=1)[:, ::-1]
    z = np.concatenate([-1j * L * tails, np.zeros((rows, 1))], axis=1)
    nodes, windows = _layout(n, order)
    dd = _divided_differences(z[:, nodes].reshape(-1, nodes.shape[1]))
    dd = dd.reshape((rows,) + nodes.shape + nodes.shape[1:])
    d = [dd[:, r, p, q] for r, p, q in windows]

    out = [L**n * d[0][:, 0]]
    if order >= 1:
        out.append(L ** (n + 1) * np.cumsum(d[1], axis=1))
    if order == 2:
        ii, jj = np.triu_indices(n)
        d2 = np.empty((rows, n, n), dtype=complex)
        d2[:, ii, jj] = d[2]
        d2[:, jj, ii] = d[2]
        d2 *= 1.0 + np.eye(n)
        out.append(L ** (n + 2) * np.cumsum(np.cumsum(d2, axis=1), axis=2))
    return out


def simplex_exp_integral(lam, L: float, order: int = 0):
    """Ordered-simplex integrals of e^{-i lambda.x} for a batch of wavenumbers.

    ``lam`` has shape (..., N); every leading index is one wavenumber
    vector lambda_1..lambda_N.  Returns I with the leading shape at
    ``order`` 0, the pair (I, I^1) at order 1 and the triple (I, I^1,
    I^11) at order 2, where I^1[..., l] and I^11[..., m, l] carry the
    coordinate moments x_l and x_m x_l (see the module docstring for the
    divided-difference formulas and the node rows).  The vectors are
    processed in blocks of about EXPM_CHUNK matrix entries.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"moment order must be 0, 1 or 2, got {order!r}")
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0 or lam.shape[-1] < 1:
        raise ValueError("lambda must have at least one component")
    if not np.all(np.isfinite(lam)):
        raise ValueError("lambda must be finite")
    if not (L > 0 and math.isfinite(L)):
        raise ValueError("L must be positive and finite")
    lead, n = lam.shape[:-1], lam.shape[-1]
    lam = lam.reshape(-1, n)

    rows, m = _layout(n, order)[0].shape
    step = max(1, EXPM_CHUNK // (rows * m * m))
    blocks = [
        _simplex_block(lam[s : s + step], L, order) for s in range(0, max(len(lam), 1), step)
    ]
    shapes = ((), (n,), (n, n))
    parts = tuple(
        np.concatenate(part).reshape(lead + shape) for part, shape in zip(zip(*blocks), shapes)
    )
    return parts[0] if order == 0 else parts


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _gauss01(order: int):
    """Gauss-Legendre nodes/weights mapped to [0, 1], read-only and cached."""
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    t, w = np.polynomial.legendre.leggauss(order)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def simplex_nodes(n_dim: int, L: float, order: int):
    """Iterated Gauss-Legendre nodes/weights on 0 <= x_1 <= ... <= x_N <= L.

    Built outermost-in: x_N on [0, L], then each inner variable on
    [0, x_next] with the upper limit folded into the weight.  Points come
    back as an (n_points, n_dim) array with ascending columns.
    """
    t, w = _gauss01(order)
    pts = (L * t)[:, None]
    wts = L * w
    for _ in range(n_dim - 1):
        upper = pts[:, 0]
        new_var = (upper[:, None] * t[None, :]).ravel()
        wts = (wts[:, None] * (upper[:, None] * w[None, :])).ravel()
        pts = np.concatenate(
            [new_var[:, None], np.repeat(pts, order, axis=0)], axis=1
        )
    return pts, wts


def simplex_quadrature(
    f: Callable[[np.ndarray], np.ndarray], n_dim: int, L: float, order: int
):
    """Integrate ``f`` over the ordered simplex 0 <= x_1 <= ... <= x_N <= L.

    ``f`` must accept an (n_points, n_dim) array of ordered points and
    return one value per point (real or complex).  Deterministic for a
    fixed order; the reduction is a plain index-ordered sum.
    """
    pts, wts = simplex_nodes(n_dim, L, order)
    vals = np.asarray(f(pts))
    return np.sum(wts * vals)


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


def default_order(n_dim: int) -> int:
    """Simplex quadrature order: 48 points/dim up to 3-D, 24 at 4-D.

    Used by the CFI quadrature (``fisher._cfi_quadrature``, reported by
    ``fisher_report``) and by the test oracles.
    """
    return DEFAULT_SIMPLEX_ORDER if n_dim <= 3 else DEFAULT_SIMPLEX_ORDER_4D
