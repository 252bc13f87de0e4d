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
gaps, and differentiating with respect to a node repeats it.  For an
upper-triangular matrix with diagonal w, entry (p, q) of its exponential
is the sum over the increasing paths p -> q of the product of the edge
entries times exp[w over the path's nodes] (Higham, Functions of
Matrices, SIAM 2008, Thm 4.11; for a bidiagonal matrix, Opitz 1964 and
McCurdy, Ng & Parlett, Math. Comp. 43, 1984).  So one batched matrix
exponential yields every integral, confluent nodes included, without
case splits, if the 0/1 edges give each wanted entry exactly one path.
The kernel uses one such star matrix per wavenumber vector, at moment
order k (0, 1 or 2).  Its diagonal holds the left extras z_0..z_{n-1}
(k = 2), the centre z_0..z_n, then the right extras z_0..z_{n-1}
(k >= 1); ones join the centre into a chain, every left extra to z_0 and
z_n to every right extra, so the matrix has size n + 1, 2 n + 1 or
3 n + 1.  Entry (centre z_0, centre z_n) is exp[z], (centre z_0, right
z_j) is exp[z, z_j] and (left z_i, right z_j) is exp[z, z_i, z_j], each
over the one path between them.  No path joins two extras of one side,
so the left and the right extras are diagonal end blocks of every
polynomial in the matrix.  The nodes are imaginary, w = i y.  For a real
shift nu (the midpoint of y), diag(i^d), d the edge depth of a node,
maps the matrix minus i nu onto i M with the real M = diag(y - nu) plus
the same ones, so an entry whose path has e edges is
e^{i nu} i^(-e) exp(i M)_pq.  The kernel builds y in real arithmetic, and
applies that factor only to the entries it reads.  The degree-13 Pade
approximant of exp(i M) with scaling and squaring (Higham, SIAM J.
Matrix Anal. Appl. 26, 2005) takes every power of M in real arithmetic
(Al-Mohy, Higham & Relton, SIAM J. Sci. Comput. 37, 2015).  Its
triangular denominator keeps the diagonal end blocks, so back
substitution runs row by row only through the n + 1 centre rows, and
each end block is solved by division.

``_pair_integrals`` makes the integrals of lambda = kappa_t - kappa_s for
every row pair (t, s) of one amplitude table, which the QFI and the
absorption-image probabilities both sum.  Pairs within a degeneracy
quantum share one kernel vector, and two folds of the ordered simplex
share it further: I(-lambda) = conj I(lambda), and the reflection
x_j -> L - x_{N+1-j}, which gives the integrals of rev(lambda) as
exp(-i L sum lambda) times conjugated linear combinations of those of
lambda.  About a quarter of the pairs reach the kernel, and the moments
are contracted with dkappa, so callers get (rows, rows) matrices.  Which
pairs share a vector is mostly fixed by the table's row layout: a
cached pair plan (``_pair_plan``) per boundary, N and column count
groups the pairs whose lambda agree bitwise up to sign and reversal at
every k, so each point keys and merges only the groups' representatives
(``_bundle_index``).  Rows with no layout, the imaging run tables', take
the plan of one pair per group (``_trivial_plan``).

Iterated Gauss-Legendre rules over the same ordered domain give the
direct CFI quadrature of general ring states: a pair of them, mapped onto
the cells of a longest-edge bisection where they disagree
(``refined_simplex_quadrature``).  The rules sample their integrand at
nodes and share no code with the divided-difference kernel.  One cached
builder, ``simplex_nodes``, makes each rule on the unit simplex; its
innermost coordinate runs fastest, so its points reshape into m-point
lines, and ``_simplex_rule`` maps them onto each cell as lines
x = X + u e along the cell's innermost edge e.  The integrand receives
them factored, as the outer points X, e and u, which lets
``wavefunction.eval_lines`` share the factor e^{i u kappa . e} of a plane
wave along each line.  The weighted sum of a rule runs in a fixed order,
whatever the BLAS thread count.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .wavefunction import _EVAL_CHUNK, _row_layout

# Star-matrix entries per batched expm step: 128 KiB per real Pade array, and
# a bound on the kernel's working set whatever the number of wavenumber
# vectors.  A box N = 3 QFI takes 2 steps (4 at 8192), a ring N = 5 QFI 15 (29).
EXPM_CHUNK = 16384

# Wavenumber quantum, relative to the largest |kappa|, within which two
# pair wavenumber vectors share one set of simplex integrals.
DEGENERACY_RTOL = 1e-9

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

    Raised when the QFI assembly leaves an imaginary residue or a value
    that is not finite, when the CFI rule pair disagrees beyond its
    tolerance, when the absorption-image probabilities do not sum to one,
    and when L^(N + order) of a simplex integral is not a normal double.
    """


def _pade13(a: np.ndarray):
    """The real [13/13] Pade polynomials (U, V) of i a, (B, m, m) each; V is written into ``a``.

    (i a)^(2j) = (-1)^j a^(2j), so the signs alternate along each
    polynomial: with b the coefficients and a_k = a^k,

        U = a [a_6 (b_13 a_6 - b_11 a_4 + b_9 a_2) - b_7 a_6 + b_5 a_4 - b_3 a_2 + b_1],
        V =    a_6 (b_12 a_6 - b_10 a_4 + b_8 a_2) - b_6 a_6 + b_4 a_4 - b_2 a_2 + b_0,

    and exp(i a) ~ (V - iU)^-1 (V + iU).  Each sum is formed left to right
    in reused buffers, and its constant term is added on the diagonal.
    """
    b = _PADE13
    diag = np.arange(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    acc, term, inner = np.empty_like(a), np.empty_like(a), np.empty_like(a)

    def poly(high, low, sums, out):
        np.multiply(a6, b[high], out=sums)
        sums -= np.multiply(a4, b[high - 2], out=term)
        sums += np.multiply(a2, b[high - 4], out=term)
        np.matmul(a6, sums, out=out)
        out -= np.multiply(a6, b[low + 6], out=term)
        out += np.multiply(a4, b[low + 4], out=term)
        out -= np.multiply(a2, b[low + 2], out=term)
        out[:, diag, diag] += b[low]
        return out

    u = np.matmul(a, poly(13, 1, acc, inner), out=acc)
    return u, poly(12, 0, inner, a)


def _expm_i_upper(a: np.ndarray, left: int = 0, right: int = 0) -> np.ndarray:
    """exp(i a) of a stack of real upper-triangular matrices, (B, m, m); overwrites ``a``.

    Scaling and squaring with the [13/13] Pade approximant (``_pade13``);
    each matrix gets its own scaling power, so one large node does not cost
    the rest of the batch extra squarings.  The triangular denominator
    V - iU is inverted by back substitution.  ``left`` and ``right`` size
    the end blocks of a, index sets with no edge inside either (a star's
    extras, ``_star``).  Every polynomial in a keeps them exactly diagonal,
    so the right rows take one division, the left rows one product and one
    division, and only the rows between run row by row.  Zero sizes are
    the generic case.
    """
    m = a.shape[-1]
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    with np.errstate(divide="ignore"):
        s = np.maximum(0.0, np.ceil(np.log2(norm / _THETA13))).astype(int)
    a *= np.ldexp(1.0, -s)[:, None, None]
    u, v = _pade13(a)
    den = np.empty(a.shape, dtype=complex)
    den.real = v
    np.negative(u, out=den.imag)
    r = np.empty_like(den)
    r.real, r.imag = v, u
    del u
    diag = np.arange(m)
    pivots = den[:, diag, diag]
    end = m - right
    r[:, end:] /= pivots[:, end:, None]
    for i in range(end - 1, left - 1, -1):
        r[:, i : i + 1] -= den[:, i : i + 1, i + 1 :] @ r[:, i + 1 :]
        r[:, i] /= pivots[:, i, None]
    if left:
        r[:, :left] -= den[:, :left, left:] @ r[:, left:]
        r[:, :left] /= pivots[:, :left, None]
    del den  # the squarings gather copies: keep the working set small
    for k in range(int(s.max(initial=0))):
        sel = s > k
        part = r[sel]
        r[sel] = part @ part
    return r


@functools.lru_cache(maxsize=32)
def _star(n: int, order: int):
    """The star matrix layout for n wavenumbers at a moment order, read-only and cached.

    Returns (nodes, ones, reads, upper, ends).  ``nodes`` indexes
    (z_0, ..., z_n) for the diagonal: the left extras z_0..z_{n-1} (order 2
    only), the centre z_0..z_n, then the right extras z_0..z_{n-1} (order
    >= 1).  ``ones`` is the 0/1 template of the edges: the centre chain,
    every left extra into z_0, and z_n into every right extra.  ``reads[k]``
    is the (p, q) index pair of the entries whose paths hold z and k extra
    nodes, in the order () for k = 0, (i,) for i < n, and (i, j) for i <= j
    in ``upper`` = ``np.triu_indices(n)`` order.  ``ends`` = (left, right)
    counts the extras on each side; no edge joins two of one side, so those
    are the diagonal end blocks ``_expm_i_upper`` solves by division.
    """
    left = n if order == 2 else 0
    right = n if order >= 1 else 0
    centre = np.arange(left, left + n + 1)
    c0, cn = centre[0], centre[-1]
    nodes = np.concatenate([np.arange(left), np.arange(n + 1), np.arange(right)])
    ones = np.zeros((len(nodes),) * 2)
    ones[centre[:-1], centre[1:]] = 1.0
    ones[:left, c0] = 1.0
    ones[cn, cn + 1 :] = 1.0
    upper = np.triu_indices(n)
    reads = (
        (np.array([c0]), np.array([cn])),
        (np.full(n, c0), cn + 1 + np.arange(n)),
        (upper[0], cn + 1 + upper[1]),
    )[: order + 1]
    for arr in (nodes, ones, *upper, *(idx for read in reads for idx in read)):
        arr.setflags(write=False)
    return nodes, ones, reads, upper, (left, right)


def _simplex_block(lam: np.ndarray, L: float, order: int):
    """simplex_exp_integral for a (rows, n) block of wavenumber vectors.

    Each vector gets one star matrix (``_star``): M = diag(y - nu) plus the
    0/1 edges, y = z / i centred at its midpoint nu, which halves the norm
    of M.  Every entry read lies on one path of k + n edges, so it is
    e^{i nu} i^(-n-k) exp(i M)_pq; that factor multiplies only those entries.
    The (i, j) second moments are read for i <= j and mirrored, so I^11 is
    exactly symmetric.
    """
    rows, n = lam.shape
    tails = np.cumsum(lam[:, ::-1], axis=1)[:, ::-1]
    nodes, ones, reads, (ii, jj), ends = _star(n, order)
    y = np.concatenate([-L * tails, np.zeros((rows, 1))], axis=1)[:, nodes]
    nu = 0.5 * (y.max(axis=1) + y.min(axis=1))
    diag = np.arange(len(nodes))
    a = np.empty((rows,) + ones.shape)
    a[:] = ones
    a[:, diag, diag] = y - nu[:, None]
    e = _expm_i_upper(a, *ends)
    phase, turns = np.exp(1j * nu)[:, None], (1, 1j, -1, -1j)
    d = [(phase * turns[(-n - k) % 4]) * e[:, p, q] for k, (p, q) in enumerate(reads)]

    out = [L**n * d[0][:, 0]]
    if order >= 1:
        out.append(L ** (n + 1) * np.cumsum(d[1], axis=1))
    if order == 2:
        d2 = np.empty((rows, n, n), dtype=complex)
        d2[:, ii, jj] = d[2]
        d2[:, jj, ii] = d[2]
        d2 *= 1.0 + np.eye(n)
        out.append(L ** (n + 2) * np.cumsum(np.cumsum(d2, axis=1), axis=2))
    return out


def _check_double_range(L: float, power: int) -> None:
    """Raise NumericalHealthError unless L^power, a simplex integral's scale, is a normal double."""
    if not -1022 <= power * math.log2(L) < 1024:
        raise NumericalHealthError(f"simplex integrals at L = {L:.3e} leave the double range")


def simplex_exp_integral(lam, L: float, order: int = 0):
    """Ordered-simplex integrals of e^{-i lambda.x} for a batch of wavenumbers.

    ``lam`` has shape (..., N); every leading index is one wavenumber
    vector lambda_1..lambda_N.  Returns I with the leading shape at
    ``order`` 0, the pair (I, I^1) at order 1 and the triple (I, I^1,
    I^11) at order 2, where I^1[..., l] and I^11[..., m, l] carry the
    coordinate moments x_l and x_m x_l (see the module docstring for the
    divided-difference formulas and the star matrix).  The vectors are
    processed in blocks of about EXPM_CHUNK star-matrix entries.  Raises
    NumericalHealthError when L^(N + order), the scale of the highest
    moment, is not a normal double.
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
    _check_double_range(L, n + order)

    m = len(_star(n, order)[0])
    step = max(1, EXPM_CHUNK // (m * m))
    blocks = [
        _simplex_block(lam[s : s + step], L, order) for s in range(0, max(len(lam), 1), step)
    ]
    shapes = ((), (n,), (n, n))
    parts = tuple(
        np.concatenate(part).reshape(lead + shape) for part, shape in zip(zip(*blocks), shapes)
    )
    return parts[0] if order == 0 else parts


# ---------------------------------------------------------------------------
# pair integrals of one amplitude table
# ---------------------------------------------------------------------------


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a < b in lexicographic order, for equal-shape integer arrays."""
    diff = b - a
    first = np.argmax(diff != 0, axis=1)
    return diff[np.arange(len(diff)), first] > 0


def _sign_min(keys: np.ndarray):
    """The lexicographically smaller of each key row and its negative.

    Returns (smaller rows, whether the negative was taken): the negative
    is smaller exactly when the leading nonzero entry is positive.
    """
    lead = keys[np.arange(len(keys)), np.argmax(keys != 0, axis=1)]
    neg = lead > 0
    return np.where(neg[:, None], -keys, keys), neg


def _canonical(keys: np.ndarray):
    """Each integer key row's canonical form and its orientation against it.

    The canonical form is the lexicographically smallest of key, -key,
    rev key and -rev key; the orientation o is 0, 1, 2 or 3 as the row is
    that form, its negative, its reverse or its negated reverse (``_turn``
    of the form).  A tie goes to the lowest o, so a row that equals its
    own reverse or negated reverse keeps the forward orientation.
    """
    fwd, neg_fwd = _sign_min(keys)
    rev, neg_rev = _sign_min(keys[:, ::-1])
    use_rev = _lex_less(rev, fwd)
    return np.where(use_rev[:, None], rev, fwd), np.where(use_rev, 2 + neg_rev, neg_fwd)


def _turn(rows: np.ndarray, o: int) -> np.ndarray:
    """Rows in orientation o: reversed for o >= 2, then negated for odd o."""
    rows = rows[:, ::-1] if o >= 2 else rows
    return -rows if o % 2 else rows


def _bundles(canon: np.ndarray):
    """Group equal canonical rows by one stable lexsort.

    Returns (group of each row, numbered in lexicographic order of the
    rows, and the first row of each group): the lowest row index, as the
    sort is stable.
    """
    perm = np.lexsort(canon.T[::-1])
    ordered = canon[perm]
    starts = np.empty(len(perm), dtype=bool)
    starts[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    group = np.empty(len(perm), dtype=np.int64)
    group[perm] = np.cumsum(starts) - 1
    return group, perm[starts]


class _PairPlan(NamedTuple):
    """The pair groups of one row layout (``_pair_plan``), read-only.

    ``group`` (int32) and ``orient`` (int8) give, for pair index t * rows +
    s, its group and the orientation o (``_turn``) of its lambda against
    the group's representative; ``reps`` holds the representatives' pair
    indices in ascending order, group g's at g, and ``turns`` the
    orientations that occur, ascending from 0.
    """

    group: np.ndarray
    orient: np.ndarray
    reps: np.ndarray
    turns: tuple


def _read_only_plan(group, orient, reps) -> _PairPlan:
    """A _PairPlan of compact read-only arrays, its ``turns`` read off ``orient``."""
    turns = tuple(int(o) for o in np.flatnonzero(np.bincount(orient, minlength=4)))
    plan = _PairPlan(group.astype(np.int32), orient.astype(np.int8), reps, turns)
    for arr in plan[:3]:
        arr.setflags(write=False)
    return plan


@functools.lru_cache(maxsize=32)
def _pair_plan(periodic: bool, n: int, dim: int) -> _PairPlan:
    """The pair plan of the ring or box table rows of N particles on their last ``dim`` columns.

    Row t has kappa_t = eps_t k[P_t] (``wavefunction._row_layout``), so
    every lambda_ts = kappa_t - kappa_s is an integer matrix with entries
    in {-2, ..., 2} applied to k.  Float subtraction is exactly
    antisymmetric and addition commutes, so pairs whose matrices agree up
    to sign and reversal have bitwise-equal lambda up to that sign and
    reversal, and up to the sign of zeros, whatever k.  The plan groups
    them by keying lambda at the generic k_j = 5^j, whose integer entries
    are those matrices in balanced base 5, as ``_bundle_index`` keys a
    state's lambda.  Each group's representative is its lowest pair index.
    Read-only and cached.
    """
    signs, perms, _ = _row_layout(periodic, n)
    kappa = (signs * 5.0**perms)[:, n - dim :].astype(np.int64)
    codes = (kappa[:, None, :] - kappa[None, :, :]).reshape(-1, dim)
    canon, orient = _canonical(codes)
    group, first = _bundles(canon)
    del codes, canon
    # renumber the groups so that their representatives ascend
    is_rep = np.zeros(len(group), dtype=bool)
    is_rep[first] = True
    reps = np.flatnonzero(is_rep)
    group = (np.cumsum(is_rep) - 1)[first][group]
    return _read_only_plan(group, orient ^ orient[reps][group], reps)


@functools.lru_cache(maxsize=32)
def _trivial_plan(rows: int) -> _PairPlan:
    """The plan of one pair per group for ``rows`` kappa rows with no row layout, cached."""
    pairs = np.arange(rows * rows)
    return _read_only_plan(pairs, np.zeros(pairs.size, dtype=np.int8), pairs)


def _bundle_index(kappa: np.ndarray, plan: _PairPlan):
    """The bundle vectors of the row pairs of ``kappa``, and where each pair reads them.

    Returns (vectors, index): the (B, n) vectors, each in the orientation
    of its key, and index[t, s] = 4 b + o for pair (t, s) of bundle b and
    orientation o, its entry in the bundles' integrals stacked as (I,
    conj I, reflected, conj reflected).  A pair's key is the canonical
    form (``_canonical``) of its lambda quantized to DEGENERACY_RTOL times
    the largest |kappa|, and a bundle is one key.

    Only the plan's representatives are keyed and grouped (``_bundles``):
    a pair's key is its representative's, turned by the plan's
    orientation.  The representatives ascend, so a bundle's vector is the
    lambda of its lowest pair.  A pair's orientation is the one
    ``_canonical`` gives its own key, the turned one, as a key equal to its
    reverse or negated reverse breaks its tie its own way.  So the result
    is that of keying every pair.
    """
    rows, n = kappa.shape
    if plan.group.size != rows * rows:
        raise ValueError(f"a pair plan of {plan.group.size} pairs does not fit {rows} rows")
    kscale = float(np.max(np.abs(kappa)))
    quantum = DEGENERACY_RTOL * kscale if kscale > 0 else 1.0
    t, s = np.divmod(plan.reps, rows)
    lam = kappa.take(t, axis=0) - kappa.take(s, axis=0)
    keys = np.round(lam / quantum).astype(np.int64)
    # every turn of the keys that the plan holds, turn 0 first
    canon, orient = _canonical(np.concatenate([_turn(keys, o) for o in plan.turns]))
    group, first = _bundles(canon[: len(keys)])
    codes = np.zeros((len(keys), 4), dtype=np.int64)
    codes[:, plan.turns] = 4 * group[:, None] + orient.reshape(len(plan.turns), -1).T
    vectors = lam[first]
    vectors = np.where((orient[first] % 2 == 1)[:, None], -vectors, vectors)
    vectors = np.where((orient[first] >= 2)[:, None], vectors[:, ::-1], vectors)
    return vectors, codes[plan.group, plan.orient].reshape(rows, rows)


def _reflected(values: tuple, mu: np.ndarray, L: float) -> tuple:
    """Integrals of lambda = rev(mu) from ``values``, those of mu.

    The map x_j -> L - x_{N+1-j} sends the ordered simplex to itself, so
    with E = exp(-i L sum(lambda)), conj taken of the integrals of mu and
    l' = N + 1 - l:

        I(lambda)       = E conj I,
        I^1_l(lambda)   = E [L conj I - conj I^1_l'],
        I^11_ml(lambda) = E [L^2 conj I - L conj I^1_m' - L conj I^1_l'
                             + conj I^11_m'l'].
    """
    phase = np.exp(-1j * L * mu.sum(axis=1))
    i00 = np.conj(values[0])
    out = [phase * i00]
    if len(values) > 1:
        i1_rev = np.conj(values[1][:, ::-1])
        out.append(phase[:, None] * (L * i00[:, None] - i1_rev))
    if len(values) > 2:
        i11 = (
            np.conj(values[2][:, ::-1, ::-1])
            - L * (i1_rev[:, :, None] + i1_rev[:, None, :])
            + L**2 * i00[:, None, None]
        )
        out.append(phase[:, None, None] * i11)
    return tuple(out)


def _pair_integrals(
    kappa: np.ndarray, dkappa: np.ndarray, L: float, order: int, plan: _PairPlan
):
    """Simplex integrals of every row pair of one kappa table, contracted with dkappa.

    With lambda_ts = kappa[t] - kappa[s], returns (arrays, bundle count),
    ``arrays`` being order + 1 matrices of shape (rows, rows):

        i00[t, s]  = I(lambda_ts),
        a[t, s]    = sum_l I^1_l(lambda_ts) dkappa[s, l]                (order >= 1),
        quad[t, s] = sum_mn dkappa[t, m] I^11_mn(lambda_ts) dkappa[s, n]  (order 2).

    ``plan`` is the pair plan of the rows' layout (``_pair_plan``): at this
    point only its group representatives are keyed, and groups whose keys
    agree merge into one bundle, each pair taking the orientation of its
    own key, ties included (``_bundle_index``).  Rows with no layout, such
    as the imaging run tables' sub-rows, pass ``_trivial_plan(rows)``, one
    pair per group, and so key every pair.  The bundle vectors go to
    ``simplex_exp_integral`` in one call at moment ``order`` (0, 1 or 2),
    their count is the bundle count, and each pair reads its bundle in its
    own orientation (``_reflected`` for the reversed ones).  The moments
    are gathered and contracted in row blocks of at most _EVAL_CHUNK
    entries.
    """
    rows, n = kappa.shape
    vectors, index = _bundle_index(kappa, plan)
    direct = simplex_exp_integral(vectors, L, order)
    direct = (direct,) if order == 0 else direct
    i00, *moments = (
        np.stack([f, np.conj(f), r, np.conj(r)], axis=1).reshape((-1,) + f.shape[1:])
        for f, r in zip(direct, _reflected(direct, vectors, L))
    )
    arrays = [i00[index]]
    if order >= 1:
        step = max(1, _EVAL_CHUNK // (rows * n**order))
        blocks = []
        for t in range(0, rows, step):
            part = slice(t, t + step)
            block = [np.einsum("tsl,sl->ts", moments[0][index[part]], dkappa)]
            if order == 2:
                block.append(
                    np.einsum("tm,tsmn,sn->ts", dkappa[part], moments[1][index[part]], dkappa)
                )
            blocks.append(block)
        arrays.extend(np.concatenate(part) for part in zip(*blocks))
    return tuple(arrays), len(vectors)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def simplex_nodes(n_dim: int, order: int):
    """Iterated Gauss-Legendre nodes/weights on 0 <= y_1 <= ... <= y_n <= 1, read-only and cached.

    The Gauss-Legendre rule of ``order`` mapped onto [0, 1] gives y_n;
    each inner variable then takes it on [0, y_next], with the upper limit
    folded into the weight.  Points come back as an (n_points, n_dim)
    array with ascending columns, y_1 running fastest: ``pts.reshape(-1,
    order, n_dim)`` gives lines along y_1 that share y_2..y_n, with y_1 =
    y_2 t on each (y_1 = t at n = 1).  Raises ValueError unless n_dim >= 1
    and order >= 2.
    """
    if n_dim < 1:
        raise ValueError(f"simplex dimension must be at least 1, got {n_dim}")
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    t, w = np.polynomial.legendre.leggauss(order)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    pts = t[:, None]
    wts = w
    for _ in range(n_dim - 1):
        upper = pts[:, 0]
        new_var = (upper[:, None] * t[None, :]).ravel()
        wts = (wts[:, None] * (upper[:, None] * w[None, :])).ravel()
        pts = np.concatenate(
            [new_var[:, None], np.repeat(pts, order, axis=0)], axis=1
        )
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


def _reference_vertices(n_dim: int) -> np.ndarray:
    """Vertices of 0 <= y_1 <= ... <= y_n <= 1, (n + 1, n): vertex k ends in k ones."""
    k = np.arange(n_dim + 1)[:, None]
    return (np.arange(n_dim)[None, :] >= n_dim - k).astype(float)


def _simplex_rule(f: Callable, cells: np.ndarray, order: int) -> np.ndarray:
    """The iterated rule of ``order`` on each simplex of a (S, n + 1, n) vertex stack.

    The rule on the unit ordered simplex is mapped affinely: vertex k of
    that simplex ends in k ones, so a node y goes to C_0 + y E, where row
    j (from 0) of E is the edge C_{n-j} - C_{n-j-1}, and the weights scale by
    |det E|.  On the reference cell L times the unit simplex, E = L I.  The
    points of ``simplex_nodes`` are lines along y_1 that share y_2..y_n, so
    the nodes are lines x = X + u e along the innermost edge
    e = C_n - C_{n-1}, u = y_1, X the image of (0, y_2, ..., y_n).
    All nodes go to ``f`` in one call, factored: f(outer, edges, u) gets the
    outer points X of every cell (S, P, n), each cell's e (S, n) and the
    innermost unit coordinates u (P, m) of every line, and returns the
    values (S, P, m).  The weighted sum runs in a fixed order.  Returns
    (S,) integrals.
    """
    n_dim = cells.shape[2]
    pts, wts = simplex_nodes(n_dim, order)
    lines = pts.reshape(-1, order, n_dim)
    edges = np.diff(cells, axis=1)[:, ::-1]
    outer = lines[:, 0, 1:] @ edges[:, 1:]
    outer += cells[:, None, 0]
    u = lines[:, :, 0]
    vals = np.asarray(f(outer, edges[:, 0], u)).real.reshape(len(cells), -1)
    return np.abs(np.linalg.det(edges)) * np.einsum("sp,p->s", vals, wts)


def _bisect(cells: np.ndarray) -> np.ndarray:
    """Halve each simplex at the midpoint of its longest edge (the first, on ties).

    Returns the (2 S, n + 1, n) children, each parent's two in a row.
    """
    i, j = np.triu_indices(cells.shape[1], 1)
    longest = np.argmax(np.sum((cells[:, i] - cells[:, j]) ** 2, axis=2), axis=1)
    rows, a, b = np.arange(len(cells)), i[longest], j[longest]
    mid = 0.5 * (cells[rows, a] + cells[rows, b])
    children = np.repeat(cells, 2, axis=0)
    children[2 * rows, a] = mid
    children[2 * rows + 1, b] = mid
    return children


def refined_simplex_quadrature(
    f: Callable,
    n_dim: int,
    L: float,
    orders: tuple,
    rtol: float,
    max_nodes: int,
) -> tuple:
    """Integrate ``f`` over 0 <= x_1 <= ... <= x_N <= L by a rule pair, bisecting where they differ.

    ``f`` takes the factored nodes of ``_simplex_rule``.  ``orders`` =
    (m, m') are two iterated Gauss-Legendre orders.  Each simplex cell has
    the order-m value Q_m and the error estimate |Q_m - Q_m'|
    (``_simplex_rule`` of each order).  The first cell is the
    whole domain, where the estimate is |Q_m - Q_m'| alone.  Once cells
    are split it is the sum of the cell estimates plus the change of sum
    Q_m in the last round: near a point where the integrand has no limit
    (a node of a complex wavefunction) both rules err alike, and that
    change is what the refinement still moves.  While the estimate exceeds
    ``rtol`` times |sum Q_m|, the cells whose estimate is within a factor 4
    of the largest are bisected at their longest edge (the adaptive scheme
    of Genz & Cools, ACM TOMS 29, 297 (2003), with this rule pair as its
    basic rule), unless the new cells would bring the nodes evaluated past
    ``max_nodes``.

    Returns (sum of Q_m, estimate relative to it, cell count); the
    estimate is inf when the sum is 0 and the rules differ, and the
    caller decides whether it is small enough.
    """

    def rule_pair(cells: np.ndarray) -> np.ndarray:
        return np.stack([_simplex_rule(f, cells, m) for m in orders], axis=1)

    cells = L * _reference_vertices(n_dim)[None]
    values = rule_pair(cells)
    nodes = per_cell = sum(m**n_dim for m in orders)
    previous = None
    while True:
        err = np.abs(values[:, 0] - values[:, 1])
        total = float(values[:, 0].sum())
        spread = float(err.sum()) + (abs(total - previous) if previous is not None else 0.0)
        previous = total
        if spread == 0:
            estimate = 0.0
        else:
            estimate = spread / abs(total) if total != 0 else math.inf
        split = err >= 0.25 * err.max()
        cost = 2 * int(split.sum()) * per_cell
        if estimate <= rtol or nodes + cost > max_nodes:
            return total, estimate, len(cells)
        children = _bisect(cells[split])
        cells = np.concatenate([cells[~split], children])
        values = np.concatenate([values[~split], rule_pair(children)])
        nodes += cost
