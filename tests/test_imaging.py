"""Absorption-image enumeration, distributions, sampling and the MLE demo."""

import json
import math
import warnings

import numpy as np
import pytest

from llfisher.bethe import (
    BoundaryCondition,
    ModelParams,
    StateSpec,
    ground_state,
)
from llfisher.fisher import cfi
from llfisher.imaging import (
    AbsorptionImage,
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
from llfisher.integrals import ResourceLimitError, box_quadrature
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
    images = enumerate_images(2, 1)
    assert images[0].counts == (2, 0, 0)
    assert images[1].counts == (1, 1, 0)
    assert images[-1].counts == (0, 0, 2)


def test_enumeration_cap():
    # C(51, 10) > 1e10 images: refused before any is enumerated
    with pytest.raises(ResourceLimitError, match="cap of 200000"):
        enumerate_images(10, 40)


def test_multiplicity_values():
    assert multiplicity(AbsorptionImage((1, 5, 1, 3, 0))) == 5040
    assert multiplicity(AbsorptionImage((0, 4, 0))) == 1
    assert multiplicity(AbsorptionImage((1, 1, 0))) == 2


def test_image_validation():
    with pytest.raises(ValueError):
        AbsorptionImage((1, -1))


def test_grid_validation():
    with pytest.raises(ValueError):
        PixelGrid(0.0, 0.0, 4)
    with pytest.raises(ValueError):
        PixelGrid(0.0, 1.0, 0)
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
    full = AbsorptionImage((0, 2, 0))
    assert dist.entries[full][0] == pytest.approx(1.0, abs=1e-10)
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
        if image.counts[0] or image.counts[-1]:
            continue  # outer bins carry no support here
        box = []
        for j, count in enumerate(image.counts[1:-1], start=0):
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

    intervals = _bin_intervals(grid, params.L)
    out = []
    for image in images:
        box = []
        for bin_idx, count in enumerate(image.counts):
            box.extend([intervals[bin_idx]] * count)
        if None in box:
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
    images = [
        AbsorptionImage(c)
        for c in [
            (0, 4, 0, 0, 0, 0),
            (0, 0, 3, 1, 0, 0),
            (0, 2, 2, 0, 0, 0),
            (0, 1, 2, 0, 1, 0),
            (0, 1, 1, 1, 1, 0),
        ]
    ]
    probs, dprobs = _image_probabilities(spec, params, grid, images, derivative=False)
    assert dprobs is None
    oracle = _box_oracle(spec, params, grid, images, order=12)
    assert np.all(np.abs(probs - oracle) <= 1e-10 * oracle)


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
    assert shots_a == shots_b
    with pytest.raises(ValueError):
        sample_images(dist, 0, seed=1)


def test_sampling_frequencies_match_probabilities():
    spec, params, dist = make_dist()
    shots = sample_images(dist, 100_000, seed=31)
    counts = {}
    for img in shots:
        counts[img] = counts.get(img, 0) + 1
    m = len(shots)
    for img, (p, _) in dist.entries.items():
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
    bad = [AbsorptionImage((1, 0, 0, 0, 0, 0))]
    with pytest.raises(ValueError):
        mle_estimate(bad, spec, dist.grid, [0.5], params.L)


def test_mle_rejects_empty_shots():
    # with no data every grid point has log-likelihood 0; that is no estimate
    spec, params, dist = make_dist()
    with pytest.raises(ValueError, match="no shots"):
        mle_estimate([], spec, dist.grid, [0.1, 0.2, 0.3], params.L)


def test_mle_rejects_images_of_another_grid():
    # four-bin shots on a six-bin grid used to score log(PROB_FLOOR) each
    # and drag the estimate to the grid edge
    spec, params, dist = make_dist()
    shots = sample_images(dist, 50, seed=8) + [AbsorptionImage((0, 1, 1, 0))] * 5
    with pytest.raises(ValueError, match="bins"):
        mle_estimate(shots, spec, dist.grid, [0.3, 0.5, 0.7], params.L)


def test_mle_loglik_matches_distribution():
    spec, params, dist = make_dist()
    shots = sample_images(dist, 300, seed=10)
    c_grid = [0.05, 0.3, 0.5, 0.8, 2.0]
    _, loglik = mle_estimate(shots, spec, dist.grid, c_grid, params.L)
    for value, c in zip(loglik, c_grid):
        at = image_distribution(spec, ModelParams(c, params.L), dist.grid).entries
        want = sum(math.log(at[img][0]) for img in shots)
        assert value == pytest.approx(want, rel=1e-12)


def test_shot_file_roundtrip(tmp_path):
    spec, params, dist = make_dist()
    shots = sample_images(dist, 25, seed=12)
    path = tmp_path / "shots.ndjson"
    save_shots(str(path), shots, seed=12, meta={"c": params.c})
    header, loaded = load_shots(str(path))
    assert loaded == shots
    assert header["seed"] == 12
    assert header["c"] == params.c
    first = path.read_text().splitlines()[0]
    assert json.loads(first)["format"] == "llfisher-shots"


def test_distribution_near_zero_coupling():
    # dP/dc needs d(norm^2)/dc where the quasimomenta collapse as sqrt(c)
    spec = ground_state(PER, 2)
    grid = uniform_grid(10.0, 4)
    tiny = image_distribution(spec, ModelParams(1e-6, 10.0), grid)
    ref = image_distribution(spec, ModelParams(1e-4, 10.0), grid)
    assert abs(tiny.probs.sum() - 1.0) < 1e-9
    assert imaging_cfi(tiny) == pytest.approx(imaging_cfi(ref), rel=1e-3)
    assert imaging_cfi(tiny) <= cfi(spec, ModelParams(1e-6, 10.0))
