"""Absorption-image enumeration, distributions, sampling and the MLE demo."""

import json
import math
import warnings

import numpy as np
import pytest
from oracles import box_quadrature, compositions

import llfisher.imaging
from llfisher.bethe import (
    BoundaryCondition,
    ModelParams,
    StateSpec,
    ground_state,
)
from llfisher.fisher import cfi
from llfisher.imaging import (
    PixelGrid,
    _bin_intervals,
    _image_probabilities,
    enumerate_images,
    image_distribution,
    imaging_cfi,
    load_shots,
    mle_estimate,
    multiplicity,
    sample_images,
    save_shots,
    uniform_grid,
)
from llfisher.integrals import ResourceLimitError, _pair_integrals
from llfisher.wavefunction import amplitudes, eval_batch

PER = BoundaryCondition.PERIODIC
HW = BoundaryCondition.HARD_WALL


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------


def test_enumeration_counts():
    assert len(enumerate_images(10, 3)) == 1001
    assert len(enumerate_images(1, 1)) == 3
    assert len(enumerate_images(2, 2)) == 10


def test_enumeration_order_is_deterministic():
    rows = enumerate_images(2, 1).tolist()
    assert rows[0] == [2, 0, 0]
    assert rows[1] == [1, 1, 0]
    assert rows[-1] == [0, 0, 2]


@pytest.mark.parametrize(
    "n,n_pixels", [(3, 64), (4, 16), (5, 8), (2, 16), (3, 1), (1, 1), (4, 20)]
)
def test_enumeration_follows_the_composition_order(n, n_pixels):
    # sample_images draws by index, so the order fixes the shots of a seed
    images = enumerate_images(n, n_pixels)
    assert isinstance(images, np.ndarray) and images.dtype.kind == "i"
    assert list(map(tuple, images.tolist())) == list(compositions(n, n_pixels + 2))


def test_enumeration_cap():
    # C(51, 10) > 1e10 images: refused before any is enumerated
    with pytest.raises(ResourceLimitError, match="cap of 200000"):
        enumerate_images(10, 40)


def test_image_cap_is_checked_before_the_edges_are_built(monkeypatch):
    # 1e12 pixels: the edge array (8 TB) was built for the coverage check
    # before the cap was read, a MemoryError instead of the cap's error
    def no_edges(grid):
        raise AssertionError("edge array built")

    monkeypatch.setattr(PixelGrid, "edges", property(no_edges))
    grid = uniform_grid(1.0, 10**12)
    assert grid.covers(1.0)
    with pytest.raises(ResourceLimitError, match="cap of 200000"):
        image_distribution(ground_state(PER, 1), ModelParams(1.0, 1.0), grid)


def test_multiplicity_values():
    assert multiplicity((1, 5, 1, 3, 0)) == 5040
    assert multiplicity((0, 4, 0)) == 1
    assert multiplicity((1, 1, 0)) == 2
    assert multiplicity(np.array([1, 1, 0])) == 2


def test_image_validation():
    with pytest.raises(ValueError):
        multiplicity((1, -1))


def test_grid_validation():
    with pytest.raises(ValueError):
        PixelGrid(0.0, 0.0, 4)
    with pytest.raises(ValueError):
        PixelGrid(0.0, 1.0, 0)
    # 2.5 pixels made n_bins 4.5, a TypeError from math.comb in the images
    for n_pixels in (2.5, 3.0, math.nan):
        with pytest.raises(ValueError, match="integer"):
            PixelGrid(0.0, 2.5, n_pixels)
    assert PixelGrid(0.0, 2.5, np.int64(3)).n_bins == 5
    # non-finite origins and widths reached the probability-sum check
    for a0, dx in [(math.nan, 0.5), (0.0, math.inf), (0.0, math.nan), (-math.inf, 0.5)]:
        with pytest.raises(ValueError, match="finite"):
            PixelGrid(a0, dx, 4)
    grid = uniform_grid(3.0, 6)
    assert grid.covers(3.0)
    assert not PixelGrid(0.5, 0.25, 4).covers(3.0)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def test_single_full_pixel_is_certain():
    spec = ground_state(PER, 2)
    params = ModelParams(1.0, 1.0)
    dist = image_distribution(spec, params, uniform_grid(1.0, 1))
    full = (0, 2, 0)
    probs = dict(zip(map(tuple, dist.images.tolist()), dist.probs))
    assert probs[full] == pytest.approx(1.0, abs=1e-10)
    assert imaging_cfi(dist) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bc", [PER, HW])
def test_povm_completeness(bc):
    spec = ground_state(bc, 2)
    params = ModelParams(0.8, 2.0)
    dist = image_distribution(spec, params, uniform_grid(2.0, 16))
    assert abs(dist.probs.sum() - 1.0) < 1e-8
    assert abs(dist.dprobs.sum()) < 1e-8
    assert np.all(dist.probs >= 0.0)


@pytest.mark.parametrize(
    "bc,n", [(PER, 2), (HW, 2), (HW, 3)], ids=[str(PER), str(HW), "box3"]
)
def test_dprob_matches_distribution_differencing(bc, n):
    spec = ground_state(bc, n)
    c, L = 0.7, 2.0
    grid = uniform_grid(L, 4)
    dist = image_distribution(spec, ModelParams(c, L), grid)
    h = 1e-4
    hi = image_distribution(spec, ModelParams(c + h, L), grid)
    lo = image_distribution(spec, ModelParams(c - h, L), grid)
    numeric = (hi.probs - lo.probs) / (2 * h)
    # the O(h^2) stencil error is about 1e-10 here
    assert np.max(np.abs(dist.dprobs - numeric)) < 1e-8
    assert abs(dist.dprobs.sum()) < 1e-13


def test_partition_of_unity_against_norm():
    # zeta-weighted box integrals of the unnormalized density tile the
    # cube: their sum is N! times the ordered-domain norm square
    spec = ground_state(HW, 2)
    params = ModelParams(1.0, 1.0)
    table = amplitudes(spec, params)
    n2 = table.solution.norm_sq

    def density(points):
        vals, _ = eval_batch(table, np.sort(points, axis=1))
        return vals.real**2 + vals.imag**2

    grid = uniform_grid(params.L, 4)
    edges = grid.edges
    total = 0.0
    for image in enumerate_images(spec.n, grid.n_pixels):
        if image[0] or image[-1]:
            continue  # outer bins carry no support here
        box = []
        for j, count in enumerate(image[1:-1], start=0):
            box.extend([(edges[j], edges[j + 1])] * count)
        total += multiplicity(image) * box_quadrature(density, box, order=12)
    assert total == pytest.approx(math.factorial(spec.n) * n2, rel=1e-6)


def _box_oracle(spec, params, grid, images, order):
    """P of each image by Gauss-Legendre box quadrature of the normalized density."""
    table = amplitudes(spec, params)
    norm_full = math.factorial(spec.n) * table.solution.norm_sq

    def density(points):
        vals, _ = eval_batch(table, np.sort(points, axis=1))
        return (vals.real**2 + vals.imag**2) / norm_full

    # bin bounds: the outer bins and pixels clipped to the support [0, L]
    bounds = [0.0, *(min(max(float(e), 0.0), params.L) for e in grid.edges), params.L]
    out = []
    for image in images:
        box = []
        for bin_idx, count in enumerate(image):
            box.extend([(bounds[bin_idx], bounds[bin_idx + 1])] * count)
        if any(hi <= lo for lo, hi in box):
            out.append(0.0)
        else:
            out.append(multiplicity(image) * box_quadrature(density, box, order).real)
    return np.array(out)


@pytest.mark.parametrize(
    "spec,params,grid",
    [
        (ground_state(PER, 2), ModelParams(0.7, 2.0), uniform_grid(2.0, 8)),
        (ground_state(HW, 3), ModelParams(0.5, 5.0), uniform_grid(5.0, 4)),
        # oversized grid: clipped end pixels are narrower than the rest
        (ground_state(HW, 2), ModelParams(1.0, 2.0), PixelGrid(-0.5, 0.75, 4)),
        # partial grid: both outer bins are live, with their own widths
        (StateSpec(PER, 3, (-1.0, 1.0, 2.0)), ModelParams(0.7, 2.0), PixelGrid(0.3, 0.5, 3)),
    ],
    ids=["ring2", "box3", "oversized", "partial"],
)
def test_exact_probabilities_match_box_quadrature(spec, params, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the partial grid warns by design
        dist = image_distribution(spec, params, grid)
    oracle = _box_oracle(spec, params, grid, dist.images, order=24)
    assert np.max(np.abs(dist.probs - oracle)) <= 1e-10 * np.max(oracle)
    live = oracle > 1e-6
    assert np.all(np.abs(dist.probs - oracle)[live] <= 1e-10 * oracle[live])
    assert abs(dist.probs.sum() - 1.0) < 1e-12


def test_exact_probabilities_match_box_quadrature_box4():
    # one image per run structure; a 4-D order-24 rule costs seconds per
    # image, and orders 12, 16 and 24 agree to 1e-15 on these boxes
    spec = ground_state(HW, 4)
    params = ModelParams(0.5, 10.0)
    grid = uniform_grid(10.0, 4)
    images = np.array(
        [
            (0, 4, 0, 0, 0, 0),
            (0, 0, 3, 1, 0, 0),
            (0, 2, 2, 0, 0, 0),
            (0, 1, 2, 0, 1, 0),
            (0, 1, 1, 1, 1, 0),
        ]
    )
    probs, dprobs = _image_probabilities(spec, params, grid, images, derivative=False)
    assert dprobs is None
    oracle = _box_oracle(spec, params, grid, images, order=12)
    assert np.all(np.abs(probs - oracle) <= 1e-10 * oracle)


def _per_image_oracle(spec, params, grid, images):
    """P and dP/dc image by image, from run tables of that image's own runs.

    dP/dc takes its box term as conj(u) B du, which the pattern batches
    read as conj(du) B u, B being Hermitian.
    """
    table = amplitudes(spec, params)
    intervals = _bin_intervals(grid, params.L)
    n2, dn2 = table.solution.norm_sq, table.solution.dnorm_sq_dc
    probs, dprobs = [], []
    for image in images:
        runs = [(b, count) for b, count in enumerate(image) if count]
        if any(intervals[b] is None for b, _ in runs):
            probs.append(0.0)
            dprobs.append(0.0)
            continue
        lo = np.array([intervals[b][0] for b, count in runs for _ in range(count)])
        box, moments, start = 1.0, 0.0, 0
        for b, count in runs:
            cols = slice(start, start + count)
            (i00, a), _ = _pair_integrals(
                table.kappa[:, cols], table.dkappa[:, cols], intervals[b][1], 1
            )
            box, moments = box * i00, moments * i00 + box * a
            start += count
        phase = np.exp(1j * (table.kappa @ lo))
        u = table.amp * phase
        du = table.damp * phase + 1j * (table.dkappa @ lo) * u
        p = (np.conj(u) @ box @ u).real / n2
        grad = np.conj(u) @ box @ du + 1j * (np.conj(u) @ moments @ u)
        probs.append(p)
        dprobs.append(2.0 * grad.real / n2 - p * dn2 / n2)
    return np.array(probs), np.array(dprobs)


@pytest.mark.parametrize(
    "spec,params,grid",
    [
        (ground_state(PER, 2), ModelParams(0.7, 2.0), uniform_grid(2.0, 8)),
        (ground_state(HW, 3), ModelParams(0.5, 5.0), uniform_grid(5.0, 4)),
        (ground_state(HW, 2), ModelParams(1.0, 2.0), PixelGrid(-0.5, 0.75, 4)),
        (StateSpec(PER, 3, (-1.0, 1.0, 2.0)), ModelParams(0.7, 2.0), PixelGrid(0.3, 0.5, 3)),
    ],
    ids=["ring2", "box3", "oversized", "partial"],
)
def test_pattern_batches_match_the_per_image_oracle(spec, params, grid):
    images = enumerate_images(spec.n, grid.n_pixels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the partial grid warns by design
        probs, dprobs = _image_probabilities(spec, params, grid, images, True)
    oracle_probs, oracle_dprobs = _per_image_oracle(spec, params, grid, images)
    assert np.max(np.abs(probs - oracle_probs)) <= 1e-15 * np.max(np.abs(oracle_probs))
    # dP/dc is a difference of terms, summed here in another order: 1.03e-15
    # on box3 (5.2e-16 while the batches also took conj(u) B du)
    assert np.max(np.abs(dprobs - oracle_dprobs)) <= 2e-15 * np.max(np.abs(oracle_dprobs))


def test_pattern_box_matrices_are_exactly_hermitian(monkeypatch):
    # the dP/dc term conj(du) B u stands for conj(u) B du only because B = B^H
    boxes = []
    build = llfisher.imaging._pattern_matrices

    def recording(*args):
        box, moments = build(*args)
        boxes.append(box)
        return box, moments

    monkeypatch.setattr(llfisher.imaging, "_pattern_matrices", recording)
    image_distribution(ground_state(HW, 3), ModelParams(0.5, 7.3), uniform_grid(7.3, 8))
    assert len(boxes) == 4
    assert all(np.max(np.abs(box - np.conj(box.T))) == 0.0 for box in boxes)


@pytest.mark.parametrize("n,n_pixels,tables", [(3, 16, 3), (4, 4, 4)])
def test_uniform_grid_builds_one_run_table_per_run_size(call_counts, n, n_pixels, tables):
    # 7.3/N_p is not dyadic, so the clipped pixel widths differ in the last
    # bit; keyed by them, the run tables numbered 18 (N = 3) and 12 (N = 4)
    counts = call_counts("_pair_integrals")
    grid = uniform_grid(7.3, n_pixels)
    image_distribution(ground_state(HW, n), ModelParams(0.5, 7.3), grid)
    assert counts == {"_pair_integrals": tables}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("bc", [PER, HW])
def test_uniform_grid_has_one_pattern_per_composition(call_counts, bc, n):
    # an image's box and moment matrices depend only on its ordered run
    # sizes, the 2^(N-1) compositions of N, on a grid with one pixel width
    counts = call_counts("_pattern_matrices")
    image_distribution(ground_state(bc, n), ModelParams(0.5, 7.3), uniform_grid(7.3, n + 1))
    assert counts == {"_pattern_matrices": 2 ** (n - 1)}


@pytest.mark.parametrize("derivative", [False, True], ids=["P", "dP"])
@pytest.mark.parametrize(
    "bc,n,n_pixels",
    # box N = 3 at 64 px: each pattern holds about 12,500 images, more than
    # one evaluation chunk
    [(HW, 3, 64), (PER, 4, 16), (HW, 4, 8), (PER, 5, 8)],
    ids=["box3-64", "ring4-16", "box4-8", "ring5-8"],
)
def test_images_evaluated_alone_match_the_full_evaluation(bc, n, n_pixels, derivative):
    # the MLE evaluates the observed images alone; grouping them by pattern
    # and chunk must not move their values
    spec, params, grid = ground_state(bc, n), ModelParams(0.5, 7.3), uniform_grid(7.3, n_pixels)
    images = enumerate_images(n, n_pixels)
    probs, dprobs = _image_probabilities(spec, params, grid, images, derivative)
    picks = np.random.default_rng(n_pixels).choice(len(images), size=137, replace=False)
    sub_probs, sub_dprobs = _image_probabilities(spec, params, grid, images[picks], derivative)
    assert np.all(np.abs(sub_probs - probs[picks]) <= 1e-14 * probs[picks])
    if derivative:
        assert np.all(np.abs(sub_dprobs - dprobs[picks]) <= 1e-14 * np.abs(dprobs[picks]))


def test_imaging_deficit_falls_as_the_pixel_width_squared():
    # the paper's saturability claim: imaging reaches the Fisher information
    # as the pixels shrink; the deficit 1 - F_img/F goes 0.124, 0.0375,
    # 0.0103, 0.00268 at 8 ... 64 px, successive ratios 3.31, 3.65, 3.83 -> 4
    spec, params = ground_state(HW, 3), ModelParams(0.5, 7.3)
    reference = cfi(spec, params)
    deficits = [
        1.0 - imaging_cfi(image_distribution(spec, params, uniform_grid(7.3, n_pix))) / reference
        for n_pix in (8, 16, 32, 64)
    ]
    assert all(a > b > 0.0 for a, b in zip(deficits, deficits[1:]))
    assert 3.7 <= deficits[2] / deficits[3] <= 4.0


@pytest.mark.parametrize("L", [0.7, 2.9, 7.3, 11.1])
def test_uniform_grid_has_one_width_and_no_live_outer_bin(L):
    # rounded edges left a right outer bin about 1e-15 wide on some grids,
    # e.g. uniform_grid(7.3, 3), with run tables of its own
    for n_pixels in range(1, 41):
        grid = uniform_grid(L, n_pixels)
        intervals = _bin_intervals(grid, L)
        assert intervals[0] is None and intervals[-1] is None
        assert all(width == grid.dx for _, width in intervals[1:-1])


def test_bins_within_the_cover_slack_are_empty():
    # a grid that misses [0, L] by less than the cover slack at both ends
    # covers it, and its slivers carry no weight; ring N = 5 loses the most
    # probability there (2 N times the slack), still inside the sum check
    L = 2.0
    spec, params = ground_state(PER, 5), ModelParams(1.0, L)
    for miss, live in [(0.9e-12 * L, False), (2e-12 * L, True)]:
        grid = PixelGrid(miss, (L - 2.0 * miss) / 2, 2)
        assert grid.covers(L) is not live
        intervals = _bin_intervals(grid, L)
        assert (intervals[0] is not None, intervals[-1] is not None) == (live, live)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dist = image_distribution(spec, params, grid)
        assert bool(caught) is live
        outer = [p for img, p in zip(dist.images, dist.probs) if img[0] or img[-1]]
        assert bool(max(outer) > 0.0) is live
        assert abs(dist.probs.sum() - 1.0) < 2.5 * spec.n * 1e-12


def test_image_distribution_solves_once(call_counts):
    # P and dP/dc both read the norm and its derivative off one table's solution
    counts = call_counts("solve_bethe", "amplitudes")
    image_distribution(ground_state(HW, 2), ModelParams(1.0, 1.0), uniform_grid(1.0, 4))
    assert counts == {"solve_bethe": 1, "amplitudes": 1}


def test_imaging_cfi_below_position_cfi():
    spec = ground_state(PER, 2)
    params = ModelParams(0.5, 4.0)
    reference = cfi(spec, params)
    previous = 0.0
    for n_pix in (2, 4, 8):
        value = imaging_cfi(image_distribution(spec, params, uniform_grid(4.0, n_pix)))
        assert value <= reference * (1 + 1e-9)
        assert value >= previous  # refinement never loses information here
        previous = value


@pytest.mark.parametrize(
    "spec",
    [ground_state(PER, 4), ground_state(HW, 3), StateSpec(PER, 3, (-1.0, 1.0, 2.0))],
    ids=["ring4", "box3", "ring-112"],
)
def test_image_scaling_law_at_extreme_sizes(spec):
    # P depends on c L and the pixel edges in units of L alone, so dP/dc
    # scales as L and the imaging CFI as L^2; the absolute degeneracy floor
    # of ``amplitudes`` rejected these states from L = 1e15 on
    reference = image_distribution(spec, ModelParams(2.0, 1.0), uniform_grid(1.0, 4))
    ref_cfi = imaging_cfi(reference)
    for j in range(-30, 31, 3):
        L = 10.0**j
        dist = image_distribution(spec, ModelParams(2.0 / L, L), uniform_grid(L, 4))
        assert np.max(np.abs(dist.probs - reference.probs)) <= 1e-12, f"L = 1e{j}"
        dp_err = np.max(np.abs(dist.dprobs / L - reference.dprobs))
        assert dp_err <= 1e-10 * np.max(np.abs(reference.dprobs)), f"L = 1e{j}"
        assert imaging_cfi(dist) / L**2 == pytest.approx(ref_cfi, rel=1e-10), f"L = 1e{j}"


def test_three_particle_box_distribution():
    # 3-D boxes with simplex-split blocks: completeness stays exact and
    # refinement recovers information
    spec = ground_state(HW, 3)
    params = ModelParams(0.5, 5.0)
    reference = cfi(spec, params)
    ratios = []
    for n_pix in (4, 8):
        dist = image_distribution(spec, params, uniform_grid(5.0, n_pix))
        assert abs(dist.probs.sum() - 1.0) < 1e-8
        ratios.append(imaging_cfi(dist) / reference)
    assert 0.0 < ratios[0] < ratios[1] < 1.0


def test_oversized_grid_clips_to_support():
    # pixels extending past [0, L] integrate over the clipped overlap only
    spec = ground_state(PER, 2)
    params = ModelParams(1.0, 2.0)
    grid = PixelGrid(a0=-0.5, dx=0.75, n_pixels=4)  # spans [-0.5, 2.5]
    assert grid.covers(params.L)
    dist = image_distribution(spec, params, grid)
    assert abs(dist.probs.sum() - 1.0) < 1e-8


def test_partial_grid_warns():
    spec = ground_state(PER, 2)
    params = ModelParams(1.0, 2.0)
    with pytest.warns(UserWarning, match="cover"):
        dist = image_distribution(spec, params, PixelGrid(0.5, 0.25, 4))
    # outer bins absorb the rest; completeness still holds
    assert abs(dist.probs.sum() - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# sampling and MLE
# ---------------------------------------------------------------------------


def make_dist():
    spec = ground_state(PER, 2)
    params = ModelParams(0.5, 4.0)
    return spec, params, image_distribution(spec, params, uniform_grid(4.0, 4))


def test_sampling_reproducible_and_consistent():
    spec, params, dist = make_dist()
    shots_a = sample_images(dist, 500, seed=9)
    shots_b = sample_images(dist, 500, seed=9)
    assert isinstance(shots_a, np.ndarray) and shots_a.dtype.kind == "i"
    assert shots_a.shape == (500, dist.grid.n_bins)
    assert np.array_equal(shots_a, shots_b)
    with pytest.raises(ValueError):
        sample_images(dist, 0, seed=1)


def test_sampling_frequencies_match_probabilities():
    spec, params, dist = make_dist()
    shots = sample_images(dist, 100_000, seed=31)
    counts = {}
    for img in map(tuple, shots.tolist()):
        counts[img] = counts.get(img, 0) + 1
    m = len(shots)
    for img, p in zip(map(tuple, dist.images.tolist()), dist.probs):
        if p < 1e-4:
            continue
        freq = counts.get(img, 0) / m
        sigma = math.sqrt(p * (1 - p) / m)
        assert abs(freq - p) < 4 * sigma + 1e-12


def test_mle_single_point_grid():
    spec, params, dist = make_dist()
    shots = sample_images(dist, 50, seed=2)
    c_hat, loglik = mle_estimate(shots, spec, dist.grid, [0.5], params.L)
    assert c_hat == 0.5
    assert loglik.shape == (1,)


def test_mle_prefers_truth_over_distant_coupling():
    # hypothesis separation ~sqrt(2 KL M) sigma; M = 8000 puts both
    # alternatives several sigma below the truth
    spec, params, dist = make_dist()
    shots = sample_images(dist, 8000, seed=4)
    _, loglik = mle_estimate(shots, spec, dist.grid, [0.1, 0.5, 2.5], params.L)
    assert loglik[1] > loglik[0]
    assert loglik[1] > loglik[2]


def test_mle_edge_maximum_warns():
    spec, params, dist = make_dist()
    shots = sample_images(dist, 500, seed=6)
    with pytest.warns(UserWarning, match="edge"):
        c_hat, _ = mle_estimate(shots, spec, dist.grid, [1.5, 2.0, 2.5], params.L)
    assert c_hat == 1.5


def test_mle_validates_inputs():
    spec, params, dist = make_dist()
    shots = sample_images(dist, 10, seed=8)
    with pytest.raises(ValueError):
        mle_estimate(shots, spec, dist.grid, [], params.L)
    with pytest.raises(ValueError):
        mle_estimate(shots, spec, dist.grid, [0.5, 0.4], params.L)
    bad = np.array([(1, 0, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        mle_estimate(bad, spec, dist.grid, [0.5], params.L)


@pytest.mark.parametrize(
    "rows",
    [[(0, 1, -1, 2, 0, 0)], [(0, 1.0, 1.0, 0, 0, 0)], [(0, 0.5, 1.5, 0, 0, 0)], [0, 2, 0]],
    ids=["negative", "float", "non-integral", "one-dimensional"],
)
def test_mle_rejects_rows_that_are_not_counts(rows):
    # a negative count raised in the image objects; the sum check alone
    # would take (0, 1, -1, 2, 0, 0) as an image of two atoms
    spec, params, dist = make_dist()
    with pytest.raises(ValueError, match="counts"):
        mle_estimate(np.array(rows), spec, dist.grid, [0.3, 0.5, 0.7], params.L)


def test_mle_rejects_empty_shots():
    # with no data every grid point has log-likelihood 0; that is no estimate
    spec, params, dist = make_dist()
    with pytest.raises(ValueError, match="no shots"):
        mle_estimate([], spec, dist.grid, [0.1, 0.2, 0.3], params.L)


def test_mle_rejects_images_of_another_grid():
    # four-bin shots on a six-bin grid used to score log(PROB_FLOOR) each
    # and drag the estimate to the grid edge
    spec, params, dist = make_dist()
    shots = list(sample_images(dist, 50, seed=8)) + [(0, 1, 1, 0)] * 5
    with pytest.raises(ValueError, match="bins"):
        mle_estimate(shots, spec, dist.grid, [0.3, 0.5, 0.7], params.L)
    with pytest.raises(ValueError, match="bins"):
        mle_estimate(np.array([(0, 1, 1, 0)] * 5), spec, dist.grid, [0.3, 0.5, 0.7], params.L)


def test_mle_loglik_matches_distribution():
    spec, params, dist = make_dist()
    shots = sample_images(dist, 300, seed=10)
    c_grid = [0.05, 0.3, 0.5, 0.8, 2.0]
    _, loglik = mle_estimate(shots, spec, dist.grid, c_grid, params.L)
    for value, c in zip(loglik, c_grid):
        at = image_distribution(spec, ModelParams(c, params.L), dist.grid)
        probs = dict(zip(map(tuple, at.images.tolist()), at.probs))
        want = sum(math.log(probs[img]) for img in map(tuple, shots.tolist()))
        assert value == pytest.approx(want, rel=1e-12)


def test_shot_file_roundtrip(tmp_path):
    spec, params, dist = make_dist()
    shots = sample_images(dist, 25, seed=12)
    path = tmp_path / "shots.ndjson"
    save_shots(str(path), shots, seed=12, meta={"c": params.c})
    header, loaded = load_shots(str(path))
    assert loaded.dtype.kind == "i"
    assert np.array_equal(loaded, shots)
    assert header["seed"] == 12
    assert header["c"] == params.c
    first = path.read_text().splitlines()[0]
    assert json.loads(first)["format"] == "llfisher-shots"


SHOTS_HEADER = {"format": "llfisher-shots", "version": 1, "seed": 0}


@pytest.mark.parametrize(
    "header,rows,match",
    [
        # truncated to (0, 1, 0) on loading
        (SHOTS_HEADER, [[0.5, 1.9, 0]], "integer counts"),
        (SHOTS_HEADER, [[0, 2, 0], [0, 1, 1, 0]], "different numbers of bins"),
        ({**SHOTS_HEADER, "format": "other"}, [[0, 2, 0]], "shot file"),
        ({**SHOTS_HEADER, "version": 2}, [[0, 2, 0]], "shot file"),
        ([0, 2, 0], [[0, 2, 0]], "shot file"),
    ],
    ids=["non-integral", "ragged", "format", "version", "no-header"],
)
def test_load_shots_rejects_bad_files(tmp_path, header, rows, match):
    # each of these loaded without an error
    path = tmp_path / "shots.ndjson"
    path.write_text("\n".join(json.dumps(line) for line in [header, *rows]) + "\n")
    with pytest.raises(ValueError, match=match):
        load_shots(str(path))


def test_distribution_near_zero_coupling():
    # dP/dc needs d(norm^2)/dc where the quasimomenta collapse as sqrt(c)
    spec = ground_state(PER, 2)
    grid = uniform_grid(10.0, 4)
    tiny = image_distribution(spec, ModelParams(1e-6, 10.0), grid)
    ref = image_distribution(spec, ModelParams(1e-4, 10.0), grid)
    assert abs(tiny.probs.sum() - 1.0) < 1e-9
    assert imaging_cfi(tiny) == pytest.approx(imaging_cfi(ref), rel=1e-3)
    assert imaging_cfi(tiny) <= cfi(spec, ModelParams(1e-6, 10.0))
