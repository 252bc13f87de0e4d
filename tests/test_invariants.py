"""Domain-wide invariants on a seeded sample of states, couplings and sizes.

Each point is a state with ring N <= 5 or box N <= 4 at gamma = c L
log-uniform and L log-uniform in [1e-20, 1e20], evaluated at (c, L) and
at its scaled partner (c L, 1).  Lengths scale out of the model: k L,
QFI / L^2 and CFI / L^2 depend on gamma alone, so the two evaluations
must agree wherever both return.  Every evaluation either returns
finite, consistent numbers or raises a documented error, and the CLI
turns the errors into documented exit codes with one stderr line.

The imaging invariants take a seeded sample of small states, couplings,
sizes and pixel grids, covering and not, and check the image
probabilities against each other, against the position CFI and against
Gauss-Legendre box quadrature.

The samples are drawn from fixed seeds, so the test is deterministic.
"""

import math
import warnings

import numpy as np
from oracles import box_quadrature, psi_at

from llfisher.bethe import (
    ROOT_GAP_RTOL,
    BoundaryCondition,
    ModelParams,
    SolverError,
    StateSpec,
    ground_state,
    solve_bethe,
)
from llfisher.cli import main
from llfisher.fisher import fisher_report
from llfisher.imaging import (
    PROB_SUM_TOL,
    PixelGrid,
    _image_probabilities,
    image_distribution,
    imaging_cfi,
    multiplicity,
    uniform_grid,
)
from llfisher.integrals import NumericalHealthError
from llfisher.wavefunction import amplitudes

PER = BoundaryCondition.PERIODIC
HW = BoundaryCondition.HARD_WALL

DOCUMENTED = (SolverError, NumericalHealthError)
CFI_ABOVE_QFI_RTOL = 2e-5
QFI_SCALING_RTOL = 1e-6
CFI_SCALING_RTOL = 3e-5


def _random_state(rng, bc, n):
    """Distinct quantum numbers of the right kind within 4 of the ground state's."""
    if bc is PER:
        pool = np.arange(-4, 5) + (0.5 if n % 2 == 0 else 0.0)
    else:
        pool = np.arange(1, 8)
    return StateSpec(bc, n, tuple(float(v) for v in np.sort(rng.choice(pool, n, replace=False))))


def _points(seed, specs, log10_gamma):
    """(spec, c, L) with gamma = c L and L log-uniform over the ranges."""
    rng = np.random.default_rng(seed)
    out = []
    for spec in specs(rng):
        gamma = 10.0 ** rng.uniform(*log10_gamma)
        L = 10.0 ** rng.uniform(-20.0, 20.0)
        out.append((spec, gamma / L, L))
    return out


def _outcome(fn, spec, c, L):
    """fn(spec, params), or the documented error it raised."""
    try:
        return fn(spec, ModelParams(c, L))
    except DOCUMENTED as exc:
        return exc


def _solve_specs(rng):
    for _ in range(300):
        bc = PER if rng.random() < 0.5 else HW
        yield _random_state(rng, bc, int(rng.integers(1, 6 if bc is PER else 5)))


# The root test acts only where pair gaps collapse, below gamma ~ 1e-18
# for the ground states, so this sample reaches down to gamma = 1e-40.
SOLVE_POINTS = _points(2023, _solve_specs, (-40.0, 9.0))


def test_solve_agrees_with_its_scaled_partner():
    bad = []
    for spec, c, L in SOLVE_POINTS:
        here = _outcome(solve_bethe, spec, c, L)
        scaled = _outcome(solve_bethe, spec, c * L, 1.0)
        if isinstance(here, Exception):
            continue
        point = f"{spec.bc.value} {spec.quantum_numbers} c={c!r} L={L!r}"
        if isinstance(scaled, Exception):
            bad.append(f"{point}: solves, but not at (cL, 1): {scaled!r}")
            continue
        if not (np.isfinite(here.k).all() and math.isfinite(here.norm_sq)):
            bad.append(f"{point}: non-finite solution {here.k}")
        if spec.n > 1:
            shift = float(np.abs(L * here.k - scaled.k).max())
            gap = float(np.diff(scaled.k).min())
            if not shift <= 2 * ROOT_GAP_RTOL * gap:
                bad.append(f"{point}: L k is {shift:.3e} off k(cL, 1), smallest gap {gap:.3e}")
    assert not bad, "\n".join(bad)


def _fisher_specs(rng):
    # for time: ring N = 5 ground states only, since a general N = 5 state
    # takes its CFI from a 4-D quadrature of about 1 s; fewer ring N = 4
    # points, as a state with node lines fails its CFI after up to 1 s; and
    # one box N = 4 point, at 0.6 s per report
    for n, count in ((2, 8), (3, 8), (4, 4)):
        for _ in range(count):
            yield _random_state(rng, PER, n)
    for n in (2, 3):
        for _ in range(8):
            yield _random_state(rng, HW, n)
    yield ground_state(PER, 5)
    yield ground_state(PER, 5)
    yield _random_state(rng, HW, 4)


FISHER_POINTS = _points(2024, _fisher_specs, (-9.0, 9.0))


def test_fisher_report_invariants_over_the_domain():
    bad = []
    n_ok = 0
    for spec, c, L in FISHER_POINTS:
        point = f"{spec.bc.value} {spec.quantum_numbers} c={c!r} L={L!r}"
        here = _outcome(fisher_report, spec, c, L)
        if isinstance(here, Exception):
            continue
        n_ok += 1
        qfi, cfi = here.qfi, here.cfi
        if not (math.isfinite(qfi) and math.isfinite(cfi) and qfi >= 0 and cfi >= 0):
            bad.append(f"{point}: QFI {qfi}, CFI {cfi}")
            continue
        if not cfi <= qfi * (1 + CFI_ABOVE_QFI_RTOL):
            bad.append(f"{point}: CFI {cfi} above QFI {qfi}")
        if here.method["cfi_route"] == "analytic" and cfi != qfi:
            bad.append(f"{point}: analytic CFI {cfi} differs from QFI {qfi}")
        scaled = _outcome(fisher_report, spec, c * L, 1.0)
        if isinstance(scaled, Exception):
            bad.append(f"{point}: ok, but not at (cL, 1): {scaled!r}")
            continue
        for name, value, ref, rtol in (
            ("QFI", qfi, scaled.qfi, QFI_SCALING_RTOL),
            ("CFI", cfi, scaled.cfi, CFI_SCALING_RTOL),
        ):
            if not abs(value / L**2 - ref) <= rtol * ref:
                bad.append(f"{point}: {name} / L^2 = {value / L**2!r}, at (cL, 1) {ref!r}")
    assert not bad, "\n".join(bad)
    # the sample must not be all errors, or it would check nothing
    assert n_ok >= len(FISHER_POINTS) // 2


def _cli_specs(rng):
    for _ in range(12):
        bc = PER if rng.random() < 0.5 else HW
        yield _random_state(rng, bc, int(rng.integers(2, 5 if bc is PER else 4)))


CLI_POINTS = _points(2025, _cli_specs, (-40.0, 9.0))


def _state_args(spec):
    return ["--bc", spec.bc.value, "-N", str(spec.n), "-I", *map(repr, spec.quantum_numbers)]


def test_cli_exit_codes_over_the_domain(capsys):
    # solve exits 0 where solve_bethe returns and 3 where it raises; a
    # one-point fisher sweep exits 0 on an ok row and 3 on a failed one
    for spec, c, L in CLI_POINTS:
        for argv, fn in (
            (["solve", *_state_args(spec), "-c", repr(c), "-L", repr(L)], solve_bethe),
            (["fisher", *_state_args(spec), "--axis", "L", "--start", repr(L), "--stop",
              repr(L), "--num", "1", "--fixed", repr(c)], fisher_report),
        ):
            expected = 3 if isinstance(_outcome(fn, spec, c, L), Exception) else 0
            code = main(argv)
            err = capsys.readouterr().err
            assert code == expected, argv
            assert len(err.splitlines()) == (code != 0), (argv, err)
            assert "Traceback" not in err and "warning" not in err, (argv, err)


def _imaging_cases(seed):
    """(spec, c, L, grid): ring and box N <= 3 with quantum numbers near the
    ground state's, so that an order-24 box rule resolves the density; every
    other grid covers [0, L] (exactly or oversized), the rest are offset and
    may end before or past L."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(32):
        bc = PER if k % 2 == 0 else HW
        n = int(rng.integers(1, 4))
        if bc is PER:
            pool = np.arange(-2, 3) + (0.5 if n % 2 == 0 else 0.0)
        else:
            pool = np.arange(1, 5)
        qn = tuple(float(v) for v in np.sort(rng.choice(pool, n, replace=False)))
        L = 10.0 ** rng.uniform(-0.5, 1.3)
        c = 10.0 ** rng.uniform(-1.0, 1.3) / L
        n_pix = int(rng.integers(1, 9))
        if k % 4 < 2:
            grid = uniform_grid(L, n_pix) if k % 8 < 4 else PixelGrid(-0.2 * L, 1.4 * L / n_pix, n_pix)
        else:
            grid = PixelGrid(rng.uniform(0.05, 0.5) * L, rng.uniform(0.3, 1.5) * L / n_pix, n_pix)
        cases.append((StateSpec(bc, n, qn), c, L, grid))
    return cases


def _bin_bounds(grid, L):
    """The bins' edges clipped to the support [0, L], the outer bins included."""
    return np.array([0.0, *(min(max(float(e), 0.0), L) for e in grid.edges), L])


def _box_probability(table, grid, image):
    """P of one image by box quadrature of the normalized density over its bins."""
    bounds = _bin_bounds(grid, table.L)
    box = [(bounds[b], bounds[b + 1]) for b, count in enumerate(image) for _ in range(count)]
    norm_full = math.factorial(table.n) * table.solution.norm_sq

    def density(points):
        vals, _ = psi_at(table, np.sort(points, axis=1))
        return (vals.real**2 + vals.imag**2) / norm_full

    return multiplicity(image) * box_quadrature(density, box, 24).real


def test_imaging_invariants_over_random_grids():
    rng = np.random.default_rng(2026)
    bad = []
    for spec, c, L, grid in _imaging_cases(2026):
        params = ModelParams(c, L)
        point = f"{spec.bc.value} {spec.quantum_numbers} c={c!r} L={L!r} {grid}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a grid that misses part of [0, L] warns
            dist = image_distribution(spec, params, grid)
        probs_only, _ = _image_probabilities(spec, params, grid, dist.images, False)
        # the outer bins catch what the pixels miss, so P sums to 1 on every grid
        for name, probs in (("P", dist.probs), ("P-only P", probs_only)):
            if not abs(probs.sum() - 1.0) <= PROB_SUM_TOL:
                bad.append(f"{point}: {name} sums to {float(probs.sum())!r}")
        p_max = np.max(dist.probs)
        if not np.max(np.abs(probs_only - dist.probs)) <= 1e-13 * p_max:
            bad.append(f"{point}: the P-only pass moved P")
        # coarse-graining the positions into bins loses information
        f_img, f_pos = imaging_cfi(dist), fisher_report(spec, params).cfi
        if not f_img <= f_pos * (1 + CFI_ABOVE_QFI_RTOL):
            bad.append(f"{point}: imaging CFI {f_img!r} above the position CFI {f_pos!r}")
        # three images whose every occupied bin has a positive width
        table = amplitudes(spec, params)
        open_bins = np.diff(_bin_bounds(grid, L)) > 0
        live = np.flatnonzero(np.all(open_bins | (dist.images == 0), axis=1))
        for i in rng.choice(live, size=min(3, len(live)), replace=False):
            want = _box_probability(table, grid, dist.images[i])
            if not abs(dist.probs[i] - want) <= 1e-12 * p_max:
                bad.append(f"{point}: image {dist.images[i]} P {dist.probs[i]!r}, quadrature {want!r}")
    assert not bad, "\n".join(bad)
