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

dP/dc is assembled from the analytic coupling derivative of the ansatz;
a finite-difference version of the same distribution serves as the test
oracle rather than the production path.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bethe import ModelParams, StateSpec, dnorm_sq_dc, norm_sq, solve_bethe
from .integrals import NumericalHealthError, ResourceLimitError, box_quadrature
from .wavefunction import amplitudes, eval_batch

DEFAULT_BOX_ORDER = 16
DEFAULT_IMAGE_CAP = 200_000
PROB_FLOOR = 1e-300


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

    def covers(self, L: float, tol: float = 1e-9) -> bool:
        return self.a0 <= tol * L and self.edges[-1] >= L * (1.0 - tol)


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


def enumerate_images(n: int, n_pixels: int, cap: int = DEFAULT_IMAGE_CAP):
    """All realizable absorption images of n atoms on n_pixels pixels.

    These are the weak compositions of n into n_pixels + 2 bins, of which
    there are (n + n_pixels + 1)! / ((n_pixels + 1)! n!).
    """
    if n < 1 or n_pixels < 1:
        raise ValueError("need n >= 1 atoms and n_pixels >= 1 pixels")
    count = math.comb(n + n_pixels + 1, n)
    if count > cap:
        raise ResourceLimitError(
            f"{count} absorption images exceed the cap of {cap}"
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


def image_distribution(
    spec: StateSpec,
    params: ModelParams,
    grid: PixelGrid,
    order: int = DEFAULT_BOX_ORDER,
    cap: int = DEFAULT_IMAGE_CAP,
) -> ImageDistribution:
    """Probability table of all absorption images and its c-derivative.

    Every image maps to one ascending box; the box integral of the
    normalized |psi|^2 times the multinomial multiplicity gives P, and
    the analytic derivative of the normalized density gives dP/dc.
    """
    if not grid.covers(params.L):
        warnings.warn(
            "pixel grid does not cover [0, L]; outer bins will carry weight",
            stacklevel=2,
        )
    solution = solve_bethe(spec, params)
    table = amplitudes(solution, params, spec.bc)
    n2 = norm_sq(solution.k, params, spec.bc).norm_sq
    dn2 = dnorm_sq_dc(spec, params)
    norm_full = math.factorial(spec.n) * n2

    def f_prob(points: np.ndarray) -> np.ndarray:
        vals, _ = eval_batch(table, np.sort(points, axis=1))
        return (vals.real**2 + vals.imag**2) / norm_full

    def f_dprob(points: np.ndarray) -> np.ndarray:
        vals, dvals = eval_batch(table, np.sort(points, axis=1))
        density = vals.real**2 + vals.imag**2
        return (2.0 * (np.conj(vals) * dvals).real - density * (dn2 / n2)) / norm_full

    intervals = _bin_intervals(grid, params.L)
    images = enumerate_images(spec.n, grid.n_pixels, cap=cap)
    probs = np.zeros(len(images))
    dprobs = np.zeros(len(images))
    for idx, image in enumerate(images):
        box = []
        dead = False
        for bin_idx, count in enumerate(image.counts):
            if count == 0:
                continue
            if intervals[bin_idx] is None:
                dead = True
                break
            box.extend([intervals[bin_idx]] * count)
        if dead:
            continue
        zeta = multiplicity(image)
        probs[idx] = zeta * box_quadrature(f_prob, box, order)
        dprobs[idx] = zeta * box_quadrature(f_dprob, box, order)

    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise NumericalHealthError(
            f"absorption-image probabilities sum to {total:.9f}; "
            "increase the quadrature order or check the grid"
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
    order: int = DEFAULT_BOX_ORDER,
):
    """Maximum-likelihood coupling estimate from recorded shots.

    The log-likelihood is evaluated on ``c_grid`` and the best grid point
    refined by a three-point parabolic fit.  Returns (c_hat, loglik) with
    one log-likelihood value per grid point.
    """
    c_values = np.asarray(c_grid, dtype=float)
    if c_values.size == 0:
        raise ValueError("c grid is empty")
    if np.any(np.diff(c_values) <= 0):
        raise ValueError("c grid must be strictly increasing")
    n_atoms = {img.n_atoms for img in images}
    if n_atoms and n_atoms != {spec.n}:
        raise ValueError("shot images are inconsistent with the particle count")

    tallies = Counter(images)
    loglik = np.empty(c_values.size)
    for i, c in enumerate(c_values):
        dist = image_distribution(spec, ModelParams(float(c), L), grid, order=order)
        lookup = {img: p for img, p in zip(dist.images, dist.probs)}
        total = 0.0
        for img, count in tallies.items():
            total += count * math.log(max(lookup.get(img, 0.0), PROB_FLOOR))
        loglik[i] = total

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
    header = {"format": "llfisher-shots", "version": 1, "seed": seed}
    if meta:
        header.update(meta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for img in images:
            fh.write(json.dumps(list(img.counts)) + "\n")


def load_shots(path: str):
    """Read back a shot file; returns (header, images)."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        images = [AbsorptionImage(tuple(json.loads(line))) for line in fh if line.strip()]
    return header, images
