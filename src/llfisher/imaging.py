"""Finite-resolution absorption imaging as a binned position POVM.

A camera with N_p pixels of width dx partitions the line into bins
A_0 = (-inf, a_0), A_j = (a_{j-1}, a_j) for j = 1..N_p and
A_{N_p+1} = (a_{N_p}, inf).  One shot on N atoms yields an absorption
image n = (n_0, ..., n_{N_p+1}) with sum n_j = N, occurring with
probability

    P(n | c) = zeta_n  int_A dx |psi_c(x)|^2,
    zeta_n = N! / prod_j n_j!,

where A is the ascending box A_{j_1} x ... x A_{j_N} (j_1 <= ... <= j_N)
matching the image, and the wavefunction is normalized over the full
cube.  The classical Fisher information of this measurement,
sum_n (dP/dc)^2 / P, converges to the position-measurement CFI as the
pixels shrink.

An image is its counts row n: the images of a distribution, sampled shots
and a loaded shot file are each one integer array with a row per image.

P is exact.  Each occupied bin, clipped to [0, L], starts at lo, has
width w and holds a run of r atoms at coordinates s..s+r-1; ordering the
atoms within every run makes the box an ordered product of sub-simplices
of width w, and the r! orderings per run times zeta_n give N!.  With
psi~ = sum_a w_a e^{i kappa_a.x} and lambda = kappa_a - kappa_b, the
plane wave factorizes over the runs, x = lo + y inside each:

    P = sum_{a,b} conj(w_a) w_b
        prod_runs e^{-i lo sum_run lambda} I(lambda_run, w) / NS,

with w_a the signed coefficients of the state point's amplitude table,
I the ordered-simplex integral of ``integrals.simplex_exp_integral`` and
NS the ordered-domain norm square, read with d NS/dc off the Bethe
solution that the table carries.  dP/dc follows from the same runs:
the coefficient derivatives dw, and the dkappa.x term of d_c psi~, whose
coordinate x_l = lo + y_l brings in the first moment I^1 of its run.  The
run tables are ``integrals._pair_integrals`` of the table's sub-rows, the
pair layer the QFI reads too: at moment order 1 (I, and I^1 contracted
with dkappa) when dP/dc is wanted and order 0 (I alone) for P, as in the
MLE.  A pixel that [0, L] cuts by no more than the ``PixelGrid.covers``
slack keeps the width dx, and a bin no wider than that slack is empty, so
a uniform grid needs one run table per run size, however its edges round.
An image's box matrix, and its dkappa moment matrix, depend only on its
pattern, the ordered sizes and widths of its runs; the bins that hold the
runs enter through the corner phase e^{i kappa.lo} alone.  Each pattern's
matrices are built once, and all its images are evaluated by one matrix
product, one row per image; a uniform grid of N or more pixels covering
[0, L] has 2^(N-1) patterns.
The test suite checks P against Gauss-Legendre box quadrature of the same
density (``box_quadrature`` in ``tests/oracles.py``) and dP/dc against
finite differences of P.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bethe import ModelParams, StateSpec
from .integrals import NumericalHealthError, ResourceLimitError, _pair_integrals
from .wavefunction import _EVAL_CHUNK, AmplitudeTable, _unit_phases, amplitudes

DEFAULT_IMAGE_CAP = 200_000
PROB_FLOOR = 1e-300
# Largest accepted |sum P - 1|.  The exact box integrals sum to one within
# a few 1e-16 on the tested states and grids; a larger deviation means a
# wrong grid or a broken kernel, not rounding.
PROB_SUM_TOL = 1e-10
# Relative slack of ``PixelGrid.covers`` at the ends of [0, L], and the
# width below which a clipped bin is empty: far above the rounding of the
# edges a0 + j dx, and so small that the dropped slivers (at most about
# 2 N _COVER_RTOL of probability) stay well inside PROB_SUM_TOL.
_COVER_RTOL = 1e-12
_SHOTS_FORMAT = {"format": "llfisher-shots", "version": 1}


@dataclass(frozen=True)
class PixelGrid:
    """Uniform pixel edges a_j = a0 + j dx, with two unbounded outer bins."""

    a0: float
    dx: float
    n_pixels: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a0) and math.isfinite(self.dx)):
            raise ValueError("pixel origin and width must be finite")
        if self.dx <= 0:
            raise ValueError("pixel width must be positive")
        if not isinstance(self.n_pixels, (int, np.integer)):
            raise ValueError("pixel count must be an integer")
        if self.n_pixels < 1:
            raise ValueError("need at least one pixel")

    @property
    def edges(self) -> np.ndarray:
        return self.a0 + self.dx * np.arange(self.n_pixels + 1)

    @property
    def n_bins(self) -> int:
        return self.n_pixels + 2

    def covers(self, L: float) -> bool:
        last_edge = self.a0 + self.dx * self.n_pixels
        return self.a0 <= _COVER_RTOL * L and last_edge >= L * (1.0 - _COVER_RTOL)


def uniform_grid(L: float, n_pixels: int) -> PixelGrid:
    """Pixels exactly tiling [0, L]."""
    return PixelGrid(a0=0.0, dx=L / n_pixels, n_pixels=n_pixels)


def enumerate_images(n: int, n_pixels: int) -> np.ndarray:
    """All realizable absorption images of n atoms on n_pixels pixels.

    Returns their counts rows as one integer array: the weak compositions
    of n into n_pixels + 2 bins, of which there are
    (n + n_pixels + 1)! / ((n_pixels + 1)! n!), with the first bin's count
    descending: (n, 0, ..., 0) first, (0, ..., 0, n) last.  That is the
    lexicographic order of the ascending atom-bin tuples that
    ``combinations_with_replacement`` yields.  Raises ResourceLimitError,
    before enumerating any, when that count exceeds DEFAULT_IMAGE_CAP.
    """
    if n < 1 or n_pixels < 1:
        raise ValueError("need n >= 1 atoms and n_pixels >= 1 pixels")
    count = math.comb(n + n_pixels + 1, n)
    if count > DEFAULT_IMAGE_CAP:
        raise ResourceLimitError(
            f"{count} absorption images exceed the cap of {DEFAULT_IMAGE_CAP}"
        )
    n_bins = n_pixels + 2
    bins = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations_with_replacement(range(n_bins), n)),
        dtype=np.intp,
        count=count * n,
    ).reshape(count, n)
    cells = (np.arange(count)[:, None] * n_bins + bins).ravel()
    return np.bincount(cells, minlength=count * n_bins).reshape(count, n_bins)


def multiplicity(counts: Sequence[int]) -> int:
    """Orderings of distinguishable atoms producing the image ``counts``: N!/prod n_j!."""
    if min(counts, default=0) < 0:
        raise ValueError("counts must be non-negative")
    return math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))


def _counts_rows(rows) -> np.ndarray:
    """``rows`` as a 2-D array of image counts, else ValueError."""
    try:
        counts = np.asarray(rows)
    except ValueError:  # rows of different lengths
        raise ValueError("image rows have different numbers of bins") from None
    if counts.ndim != 2 or not np.issubdtype(counts.dtype, np.integer) or np.any(counts < 0):
        raise ValueError("images must be rows of non-negative integer counts")
    return counts


@dataclass
class ImageDistribution:
    """P(image | c) and dP/dc over every realizable image (counts row) of one state."""

    grid: PixelGrid
    state: StateSpec
    params: ModelParams
    images: np.ndarray
    probs: np.ndarray
    dprobs: np.ndarray


def _bin_intervals(grid: PixelGrid, L: float):
    """Per-bin (lo, width) of the bins clipped to the state's support [0, L].

    A pixel that the clip cuts by no more than the coverage slack
    _COVER_RTOL*L keeps the grid's width dx, so a uniform grid has one
    width; a bin no wider than the slack comes back as None (zero
    probability).
    """
    slack = _COVER_RTOL * L
    bounds = [0.0, *np.clip(grid.edges, 0.0, L), L]
    intervals = []
    for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        width = float(hi - lo)
        if 0 < j <= grid.n_pixels and grid.dx - width <= slack:
            width = grid.dx
        intervals.append((float(lo), width) if width > slack else None)
    return intervals


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """conj(u_i) . v_i for every row i, each as the 1-D product of that row.

    A stacked matrix product keeps the summation of the 1-D product, which
    a sum over the elementwise product does not.
    """
    return (np.conj(u)[:, None, :] @ v[:, :, None])[:, 0, 0]


def _pattern_matrices(runs, index, run_tables):
    """Box matrix of one run pattern, and its dkappa moment matrix at order 1.

    ``runs`` holds the pattern's (run size, bin width) in coordinate order,
    ``index[r]`` the run-table row of every (run start, table row) and
    ``run_tables[r, w]`` the ``_pair_integrals`` matrices of that run.  The
    box matrix is the elementwise product over the runs of their pair
    integrals; the moment matrix collects, by the product rule, the first
    moment of one run times the integrals of the others.  Returns (box,
    moments), with moments None when the run tables hold no moments.
    """
    box, moments, start = 1.0, 0.0, 0
    for size, width in runs:
        i00, *moment = run_tables[size, width]
        pairs = np.ix_(index[size][start], index[size][start])
        if moment:
            moments = moments * i00[pairs] + box * moment[0][pairs]
        box = box * i00[pairs]
        start += size
    return box, (moments if moment else None)


def _image_probabilities(
    spec: StateSpec, params: ModelParams, grid: PixelGrid, counts: np.ndarray, derivative: bool
):
    """P for each image (counts row), and dP/dc with ``derivative`` (else None).

    A run of r atoms in one bin occupies coordinates s..s+r-1, and its
    factor depends on a pair of table rows only through their kappa
    entries on those slots.  The distinct length-r sub-rows are pooled
    over run starts, so every (run size, bin width) needs one table of
    pair integrals from ``_pair_integrals``: at moment order 1 with
    ``derivative``, also holding the first moments contracted with the
    sub-rows' dkappa, and at order 0 without it.

    Runs are integrated in the shifted coordinate y = x - lo.  The box and
    moment matrices B and M of an image then depend only on its pattern,
    the ordered (run size, bin width) of its occupied bins, and a uniform
    grid of N or more pixels that covers [0, L] has 2^(N-1) patterns (the
    compositions of N).
    The bins that hold the runs enter only through the corner phase
    e^{i kappa.lo} on every table row, lo being each atom's bin start, and
    through the first moment of x_l, which is lo_l I + I^1 in the run of
    x_l.  So each pattern's matrices are built once
    (``_pattern_matrices``), and its images are evaluated together, one row
    per image, in chunks of at most ``_EVAL_CHUNK`` entries: with
    U = amp e^{i lo kappa^T},

        P ~ Re rowsum(conj U o (U B^T)),
        dP/dc ~ 2 Re rowsum(conj dU o (U B^T) + i conj U o (U M^T)),
        dU = damp e^{i lo kappa^T} + i (lo dkappa^T) o U.

    B is Hermitian (I(-lambda) = conj I(lambda), exactly, in every run
    table), so the product U B^T serves both P and the first dP/dc term.

    zeta times the product of run-size factorials is N!, which cancels the
    N! of the bosonic normalization: P is the ordered-box integral of
    |psi~|^2 over the ordered-domain norm square.  An image with an
    occupied bin outside the support has P = 0.
    """
    table = amplitudes(spec, params)
    n, rows = table.n, table.n_terms
    index, sub_rows = {}, {}
    for r in range(1, n + 1):
        starts = range(n - r + 1)
        kap = np.concatenate([table.kappa[:, s : s + r] for s in starts])
        dkap = np.concatenate([table.dkappa[:, s : s + r] for s in starts])
        uniq, first, inverse = np.unique(kap, axis=0, return_index=True, return_inverse=True)
        index[r] = inverse.reshape(len(starts), rows)
        sub_rows[r] = (uniq, dkap[first])

    # each atom's bin, ascending per image, and per bin its start and width
    bins = np.repeat(np.arange(counts.size) % grid.n_bins, counts.ravel()).reshape(-1, n)
    intervals = _bin_intervals(grid, params.L)
    widths = sorted({iv[1] for iv in intervals if iv is not None})
    bin_lo = np.array([0.0 if iv is None else iv[0] for iv in intervals])
    bin_width = np.array([-1 if iv is None else widths.index(iv[1]) for iv in intervals])

    # pattern key: the width index of its bin where a run starts, -1 elsewhere
    keys = bin_width[bins]
    live = np.flatnonzero((keys >= 0).all(axis=1))
    keys[:, 1:][bins[:, 1:] == bins[:, :-1]] = -1
    patterns, which = np.unique(keys[live], axis=0, return_inverse=True)
    which = which.reshape(-1)
    runs_of = []
    for key in patterns:
        starts = np.flatnonzero(key >= 0)
        sizes = np.diff(np.append(starts, n))
        runs_of.append(tuple((int(r), widths[key[s]]) for r, s in zip(sizes, starts)))
    run_tables = {}
    for size, width in {run for runs in runs_of for run in runs}:
        kap, dkap = sub_rows[size]
        run_tables[size, width] = _pair_integrals(kap, dkap, width, int(derivative))[0]

    raw, draw = np.zeros(len(counts)), np.zeros(len(counts))
    step = max(1, _EVAL_CHUNK // rows)
    for k, runs in enumerate(runs_of):
        images_of = live[which == k]
        box, moments = _pattern_matrices(runs, index, run_tables)
        for chunk in range(0, len(images_of), step):
            sel = images_of[chunk : chunk + step]
            # stacked matrix-vector products: each image's phase is the one
            # the 1-D product kappa @ lo gives, whatever the batch
            lo = bin_lo[bins[sel]][:, :, None]
            phase = _unit_phases((table.kappa @ lo)[:, :, 0])
            u = table.amp * phase
            ub = u @ box.T
            raw[sel] = _row_dots(u, ub).real
            if derivative:
                du = table.damp * phase + 1j * (table.dkappa @ lo)[:, :, 0] * u
                grad = _row_dots(du, ub) + 1j * _row_dots(u, u @ moments.T)
                draw[sel] = 2.0 * grad.real

    n2 = table.solution.norm_sq
    probs = raw / n2
    if not derivative:
        return probs, None
    return probs, draw / n2 - probs * (table.solution.dnorm_sq_dc / n2)


def image_distribution(
    spec: StateSpec,
    params: ModelParams,
    grid: PixelGrid,
) -> ImageDistribution:
    """Probability table of all absorption images and its c-derivative.

    Every image maps to one ascending box, whose exact integral of the
    normalized |psi|^2 times the multinomial multiplicity gives P; the
    analytic derivative of the normalized density gives dP/dc.  Raises
    ResourceLimitError, before the grid's edges are built, when the
    images exceed the cap of ``enumerate_images``.
    """
    images = enumerate_images(spec.n, grid.n_pixels)
    if not grid.covers(params.L):
        warnings.warn(
            "pixel grid does not cover [0, L]; outer bins will carry weight",
            stacklevel=2,
        )
    probs, dprobs = _image_probabilities(spec, params, grid, images, derivative=True)
    total = probs.sum()
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise NumericalHealthError(
            f"absorption-image probabilities sum to {total:.15f}; check the grid"
        )
    return ImageDistribution(
        grid=grid,
        state=spec,
        params=params,
        images=images,
        probs=probs,
        dprobs=dprobs,
    )


def imaging_cfi(dist: ImageDistribution) -> float:
    """CFI of the absorption-imaging measurement, sum (dP/dc)^2 / P."""
    mask = dist.probs > PROB_FLOOR
    return float(np.sum(dist.dprobs[mask] ** 2 / dist.probs[mask]))


def sample_images(dist: ImageDistribution, shots: int, seed: int) -> np.ndarray:
    """``shots`` i.i.d. absorption images drawn from the distribution, as
    rows of ``dist.images``: an integer array of shape (shots, n_bins)."""
    if shots < 1:
        raise ValueError("need at least one shot")
    rng = np.random.default_rng(seed)
    p = np.clip(dist.probs, 0.0, None)
    p = p / p.sum()
    picks = rng.choice(len(dist.images), size=shots, p=p)
    return dist.images[picks]


def mle_estimate(
    images: np.ndarray,
    spec: StateSpec,
    grid: PixelGrid,
    c_grid: Sequence[float],
    L: float,
):
    """Maximum-likelihood coupling estimate from recorded shots.

    ``images`` holds a counts row per shot.  The log-likelihood is evaluated
    on ``c_grid`` and the best grid point refined by a three-point parabolic
    fit.  Returns (c_hat, loglik) with one log-likelihood value per grid
    point.  Each grid point evaluates P of the distinct observed images
    only: P is normalized analytically, so the rest of the distribution is
    never needed.  Raises ValueError without shots, and for rows that are
    not counts of N atoms on the grid's bins.
    """
    if len(images) == 0:
        raise ValueError("no shots")
    c_values = np.asarray(c_grid, dtype=float)
    if c_values.size == 0:
        raise ValueError("c grid is empty")
    if np.any(np.diff(c_values) <= 0):
        raise ValueError("c grid must be strictly increasing")
    shots = _counts_rows(images)
    if np.any(shots.sum(axis=1) != spec.n):
        raise ValueError("shot images are inconsistent with the particle count")
    if shots.shape[1] != grid.n_bins:
        raise ValueError(
            f"shot images must have {grid.n_bins} bins to match the pixel grid"
        )

    # the distinct images in first-seen order, which fixes the order of the
    # log-likelihood sums
    observed, first, tallies = np.unique(shots, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    observed, tallies = observed[order], tallies[order]
    loglik = np.empty(c_values.size)
    for i, c in enumerate(c_values):
        probs, _ = _image_probabilities(
            spec, ModelParams(float(c), L), grid, observed, derivative=False
        )
        loglik[i] = float(np.sum(tallies * np.log(np.maximum(probs, PROB_FLOOR))))

    best = int(np.argmax(loglik))
    if c_values.size == 1:
        return float(c_values[0]), loglik
    if best in (0, c_values.size - 1):
        warnings.warn("likelihood maximum at the edge of the c grid", stacklevel=2)
        return float(c_values[best]), loglik

    x0, x1, x2 = c_values[best - 1 : best + 2]
    y0, y1, y2 = loglik[best - 1 : best + 2]
    denom = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    if abs(denom) < 1e-300:
        return float(x1), loglik
    vertex = x1 - 0.5 * (
        (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
    ) / denom
    vertex = min(max(vertex, x0), x2)
    return float(vertex), loglik


# ---------------------------------------------------------------------------
# shot-file serialization
# ---------------------------------------------------------------------------


def save_shots(
    path: str,
    images: np.ndarray,
    seed: int,
    meta: Optional[dict] = None,
) -> None:
    """Write shots as line-delimited JSON: a provenance header, then one counts row a line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_shots_text(images, seed, meta))


def _shots_text(images: np.ndarray, seed: int, meta: Optional[dict]) -> str:
    header = {**_SHOTS_FORMAT, "seed": seed}
    if meta:
        header.update(meta)
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(row) for row in np.asarray(images).tolist()]
    return "\n".join(lines) + "\n"


def load_shots(path: str):
    """Read back a shot file; returns (header, images), images its counts rows.

    Raises ValueError for a header of another format or version, and for
    rows that are not non-negative integers of one length.
    """
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if not isinstance(header, dict) or not _SHOTS_FORMAT.items() <= header.items():
            raise ValueError(f"{path} is not a version-1 llfisher shot file")
        rows = [json.loads(line) for line in fh if line.strip()]
    return header, _counts_rows(rows)
