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

P is exact.  Each occupied bin [lo, hi] (clipped to [0, L]) holds a run
of r atoms at coordinates s..s+r-1; ordering the atoms within every run
makes the box an ordered product of sub-simplices of width hi - lo, and
the r! orderings per run times zeta_n give N!.  With
psi~ = sum_a w_a e^{i kappa_a.x} and lambda = kappa_a - kappa_b, the
plane wave factorizes over the runs, x = lo + y inside each:

    P = sum_{a,b} conj(w_a) w_b
        prod_runs e^{-i lo sum_run lambda} I(lambda_run, hi - lo) / NS,

with w_a the signed coefficients of the state point's amplitude table,
I the ordered-simplex integral of ``integrals.simplex_exp_integral`` and
NS the ordered-domain norm square, read with d NS/dc off the Bethe
solution that the table carries.  dP/dc follows from the same runs:
the coefficient derivatives dw, and the dkappa.x term of d_c psi~, whose
coordinate x_l = lo + y_l brings in the first moment I^1 of its run.  The
run tables ask the kernel for moment order 1 (I and I^1) when dP/dc is
wanted and order 0 (I alone) for P, as in the MLE.
Gauss-Legendre box quadrature (``integrals.box_quadrature``) of the same
density serves as the test oracle, and finite differences of P check
dP/dc.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bethe import ModelParams, StateSpec
from .fisher import _pair_bundles
from .integrals import NumericalHealthError, ResourceLimitError
from .wavefunction import AmplitudeTable, amplitudes

DEFAULT_IMAGE_CAP = 200_000
PROB_FLOOR = 1e-300
# Largest accepted |sum P - 1|.  The exact box integrals sum to one within
# a few 1e-16 on the tested states and grids; a larger deviation means a
# wrong grid or a broken kernel, not rounding.
PROB_SUM_TOL = 1e-10
# Relative slack of ``PixelGrid.covers`` at the ends of [0, L].
_COVER_RTOL = 1e-9


@dataclass(frozen=True)
class PixelGrid:
    """Uniform pixel edges a_j = a0 + j dx, with two unbounded outer bins."""

    a0: float
    dx: float
    n_pixels: int

    def __post_init__(self) -> None:
        if self.dx <= 0:
            raise ValueError("pixel width must be positive")
        if self.n_pixels < 1:
            raise ValueError("need at least one pixel")

    @property
    def edges(self) -> np.ndarray:
        return self.a0 + self.dx * np.arange(self.n_pixels + 1)

    @property
    def n_bins(self) -> int:
        return self.n_pixels + 2

    def covers(self, L: float) -> bool:
        return self.a0 <= _COVER_RTOL * L and self.edges[-1] >= L * (1.0 - _COVER_RTOL)


def uniform_grid(L: float, n_pixels: int) -> PixelGrid:
    """Pixels exactly tiling [0, L]."""
    return PixelGrid(a0=0.0, dx=L / n_pixels, n_pixels=n_pixels)


@dataclass(frozen=True)
class AbsorptionImage:
    """Per-bin atom counts (n_0, n_1, ..., n_{N_p}, n_{N_p+1})."""

    counts: tuple

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @property
    def n_atoms(self) -> int:
        return sum(self.counts)


def _compositions(total: int, bins: int):
    if bins == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, bins - 1):
            yield (first,) + rest


def enumerate_images(n: int, n_pixels: int):
    """All realizable absorption images of n atoms on n_pixels pixels.

    These are the weak compositions of n into n_pixels + 2 bins, of which
    there are (n + n_pixels + 1)! / ((n_pixels + 1)! n!).  Raises
    ResourceLimitError, before enumerating any, when that count exceeds
    DEFAULT_IMAGE_CAP.
    """
    if n < 1 or n_pixels < 1:
        raise ValueError("need n >= 1 atoms and n_pixels >= 1 pixels")
    count = math.comb(n + n_pixels + 1, n)
    if count > DEFAULT_IMAGE_CAP:
        raise ResourceLimitError(
            f"{count} absorption images exceed the cap of {DEFAULT_IMAGE_CAP}"
        )
    return [AbsorptionImage(c) for c in _compositions(n, n_pixels + 2)]


def multiplicity(image: AbsorptionImage) -> int:
    """Orderings of distinguishable atoms producing this image: N!/prod n_j!."""
    num = math.factorial(image.n_atoms)
    for c in image.counts:
        num //= math.factorial(c)
    return num


@dataclass
class ImageDistribution:
    """P(image | c) and dP/dc over every realizable image of one state."""

    grid: PixelGrid
    state: StateSpec
    params: ModelParams
    images: tuple
    probs: np.ndarray
    dprobs: np.ndarray

    @property
    def entries(self) -> dict:
        return {
            img: (float(p), float(dp))
            for img, p, dp in zip(self.images, self.probs, self.dprobs)
        }


def _bin_intervals(grid: PixelGrid, L: float):
    """Per-bin integration intervals clipped to the state's support [0, L].

    Bins entirely outside [0, L] come back as None (zero probability).
    """
    edges = grid.edges
    intervals = []
    lo, hi = 0.0, min(float(edges[0]), L)
    intervals.append((lo, hi) if hi > lo else None)  # left outer bin
    for j in range(grid.n_pixels):
        lo = max(float(edges[j]), 0.0)
        hi = min(float(edges[j + 1]), L)
        intervals.append((lo, hi) if hi > lo else None)
    lo, hi = max(float(edges[-1]), 0.0), L
    intervals.append((lo, hi) if hi > lo else None)  # right outer bin
    return intervals


class _RunProducts:
    """Exact box integrals of |psi~|^2 for one state point, image by image.

    A run of r atoms in one bin occupies coordinates s..s+r-1, and its
    factor depends on a pair of table rows only through their kappa
    entries on those slots.  The distinct length-r sub-rows are collected
    once, so every (run size, bin width) needs one table of pair
    integrals, built on first use from ``_pair_bundles`` and shared by
    all run starts and images.  With ``derivative`` the table is built at
    moment order 1 and also holds the first moments contracted with the
    sub-rows' dkappa; without it, at order 0.
    """

    def __init__(self, table: AmplitudeTable, intervals: list, derivative: bool):
        self.table = table
        self.intervals = intervals
        self.derivative = derivative
        n, rows = table.n, table.n_terms
        self.index = {}
        self.sub_rows = {}
        for r in range(1, n + 1):
            starts = range(n - r + 1)
            kap = np.concatenate([table.kappa[:, s : s + r] for s in starts])
            dkap = np.concatenate([table.dkappa[:, s : s + r] for s in starts])
            uniq, first, inverse = np.unique(
                kap, axis=0, return_index=True, return_inverse=True
            )
            self.index[r] = inverse.reshape(len(starts), rows)
            self.sub_rows[r] = (uniq, dkap[first])
        self._tables = {}

    def _pair_tables(self, size: int, width: float):
        """Run integral and dkappa-contracted first moment per sub-row pair."""
        key = (size, width)
        if key not in self._tables:
            kap, dkap = self.sub_rows[size]
            i00, *i1 = _pair_bundles(kap, kap, width, order=int(self.derivative))
            moment = np.einsum("uvj,vj->uv", i1[0], dkap) if self.derivative else None
            self._tables[key] = (i00, moment)
        return self._tables[key]

    def box_integrals(self, counts: tuple):
        """(int |psi~|^2, 2 Re int psi~* d_c psi~) over the image's ordered box.

        Runs are integrated in the shifted coordinate y = x - lo; the
        shift is the corner phase e^{i kappa.lo} on every table row, and
        the first moment of x_l is lo_l I + I^1 in the run of x_l.  The
        second entry is None without ``derivative``; a bin outside the
        support gives (0, 0).
        """
        table = self.table
        lo = np.empty(table.n)
        runs = []
        start = 0
        for bin_idx, count in enumerate(counts):
            if count == 0:
                continue
            if self.intervals[bin_idx] is None:
                return 0.0, 0.0
            a, b = self.intervals[bin_idx]
            lo[start : start + count] = a
            rows = np.ix_(self.index[count][start], self.index[count][start])
            i00, moment = self._pair_tables(count, b - a)
            runs.append((i00[rows], None if moment is None else moment[rows]))
            start += count

        phase = np.exp(1j * (table.kappa @ lo))
        u = table.amp * phase
        u_conj = np.conj(u)
        box = runs[0][0]
        for i00, _ in runs[1:]:
            box = box * i00
        p_raw = float((u_conj @ (box @ u)).real)
        if not self.derivative:
            return p_raw, None

        du = table.damp * phase + 1j * (table.dkappa @ lo) * u
        moments = 0.0
        for k, (_, moment) in enumerate(runs):
            term = moment
            for m, (i00, _) in enumerate(runs):
                if m != k:
                    term = term * i00
            moments = moments + term
        overlap = u_conj @ (box @ du) + 1j * (u_conj @ (moments @ u))
        return p_raw, 2.0 * float(overlap.real)


def _image_probabilities(
    spec: StateSpec, params: ModelParams, grid: PixelGrid, images, derivative: bool
):
    """P for each image, and dP/dc with ``derivative`` (else None).

    zeta times the product of run-size factorials is N!, which cancels
    the N! of the bosonic normalization: P is the ordered-box integral of
    |psi~|^2 over the ordered-domain norm square.
    """
    table = amplitudes(spec, params)
    n2 = table.solution.norm_sq
    runs = _RunProducts(table, _bin_intervals(grid, params.L), derivative)
    values = [runs.box_integrals(image.counts) for image in images]
    probs = np.array([p for p, _ in values]) / n2
    if not derivative:
        return probs, None
    dlog_n2 = table.solution.dnorm_sq_dc / n2
    dprobs = np.array([dp for _, dp in values]) / n2 - probs * dlog_n2
    return probs, dprobs


def image_distribution(
    spec: StateSpec,
    params: ModelParams,
    grid: PixelGrid,
) -> ImageDistribution:
    """Probability table of all absorption images and its c-derivative.

    Every image maps to one ascending box, whose exact integral of the
    normalized |psi|^2 times the multinomial multiplicity gives P; the
    analytic derivative of the normalized density gives dP/dc.
    """
    if not grid.covers(params.L):
        warnings.warn(
            "pixel grid does not cover [0, L]; outer bins will carry weight",
            stacklevel=2,
        )
    images = enumerate_images(spec.n, grid.n_pixels)
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
        images=tuple(images),
        probs=probs,
        dprobs=dprobs,
    )


def imaging_cfi(dist: ImageDistribution) -> float:
    """CFI of the absorption-imaging measurement, sum (dP/dc)^2 / P."""
    mask = dist.probs > PROB_FLOOR
    return float(np.sum(dist.dprobs[mask] ** 2 / dist.probs[mask]))


def sample_images(dist: ImageDistribution, shots: int, seed: int):
    """``shots`` i.i.d. absorption images drawn from the distribution."""
    if shots < 1:
        raise ValueError("need at least one shot")
    rng = np.random.default_rng(seed)
    p = np.clip(dist.probs, 0.0, None)
    p = p / p.sum()
    picks = rng.choice(len(dist.images), size=shots, p=p)
    return [dist.images[i] for i in picks]


def mle_estimate(
    images: Sequence[AbsorptionImage],
    spec: StateSpec,
    grid: PixelGrid,
    c_grid: Sequence[float],
    L: float,
):
    """Maximum-likelihood coupling estimate from recorded shots.

    The log-likelihood is evaluated on ``c_grid`` and the best grid point
    refined by a three-point parabolic fit.  Returns (c_hat, loglik) with
    one log-likelihood value per grid point.  Each grid point evaluates
    P of the distinct observed images only: P is normalized analytically,
    so the rest of the distribution is never needed.  Raises ValueError
    without shots.
    """
    if len(images) == 0:
        raise ValueError("no shots")
    c_values = np.asarray(c_grid, dtype=float)
    if c_values.size == 0:
        raise ValueError("c grid is empty")
    if np.any(np.diff(c_values) <= 0):
        raise ValueError("c grid must be strictly increasing")
    n_atoms = {img.n_atoms for img in images}
    if n_atoms != {spec.n}:
        raise ValueError("shot images are inconsistent with the particle count")
    n_bins = {len(img.counts) for img in images}
    if n_bins != {grid.n_bins}:
        raise ValueError(
            f"shot images must have {grid.n_bins} bins to match the pixel grid"
        )

    tallies = Counter(images)
    observed = list(tallies)
    counts = np.array([tallies[img] for img in observed], dtype=float)
    loglik = np.empty(c_values.size)
    for i, c in enumerate(c_values):
        probs, _ = _image_probabilities(
            spec, ModelParams(float(c), L), grid, observed, derivative=False
        )
        loglik[i] = float(np.sum(counts * np.log(np.maximum(probs, PROB_FLOOR))))

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
    images: Sequence[AbsorptionImage],
    seed: int,
    meta: Optional[dict] = None,
) -> None:
    """Write shots as line-delimited JSON with a provenance header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_shots_text(images, seed, meta))


def _shots_text(images: Sequence[AbsorptionImage], seed: int, meta: Optional[dict]) -> str:
    header = {"format": "llfisher-shots", "version": 1, "seed": seed}
    if meta:
        header.update(meta)
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(list(img.counts)) for img in images]
    return "\n".join(lines) + "\n"


def load_shots(path: str):
    """Read back a shot file; returns (header, images)."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        images = [AbsorptionImage(tuple(json.loads(line))) for line in fh if line.strip()]
    return header, images
