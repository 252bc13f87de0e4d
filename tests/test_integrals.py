"""Divided-difference simplex integrals against independent oracles.

The kernel is checked against adaptive scipy quadrature, iterated
Gauss-Legendre rules, scipy.linalg.expm and mpmath partial fractions;
none of them evaluates a matrix exponential with the kernel's code.  The
folded pair layer is checked against the unfolded kernel on every pair,
and its pair plan and value merge against a grouping that keys every
pair on its own (``oracles.pair_bundles``).
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import box_quadrature, pair_bundles, simplex_nodes, simplex_quadrature
from scipy import integrate

import llfisher.integrals as integrals
from llfisher.bethe import BoundaryCondition, ModelParams, StateSpec, ground_state
from llfisher.fisher import _domain, _qfi_with_residue, fisher_report
from llfisher.integrals import simplex_exp_integral
from llfisher.wavefunction import amplitudes

PER = BoundaryCondition.PERIODIC
HW = BoundaryCondition.HARD_WALL


def nested_quad(lam, L, power_idx=None):
    """Adaptive nested quadrature of x_m^a x_n^b e^{-i lam.x}, N = 2 only."""
    powers = power_idx or {}

    def integrand(x1, x2, part):
        val = np.exp(-1j * (lam[0] * x1 + lam[1] * x2))
        for idx, p in powers.items():
            val = val * (x1 if idx == 0 else x2) ** p
        return val.real if part == "re" else val.imag

    re = integrate.dblquad(lambda x1, x2: integrand(x1, x2, "re"), 0, L, 0, lambda x2: x2,
                           epsabs=1e-12, epsrel=1e-12)[0]
    im = integrate.dblquad(lambda x1, x2: integrand(x1, x2, "im"), 0, L, 0, lambda x2: x2,
                           epsabs=1e-12, epsrel=1e-12)[0]
    return re + 1j * im


def nodes(lam, L):
    """z_j = -i L sum_{m>=j} lambda_m, then z_n = 0."""
    tails = np.cumsum(np.asarray(lam, dtype=float)[::-1])[::-1]
    return list(-1j * L * tails) + [0.0]


def moments_from(dd, lam, L):
    """I, I^1, I^11 from a divided-difference function of a node list."""
    n = len(lam)
    z = nodes(lam, L)
    d1 = np.array([dd(z + [z[i]]) for i in range(n)])
    d2 = np.array(
        [[(2 if i == j else 1) * dd(z + [z[i], z[j]]) for j in range(n)] for i in range(n)]
    )
    return (
        L**n * dd(z),
        L ** (n + 1) * np.cumsum(d1),
        L ** (n + 2) * d2.cumsum(axis=0).cumsum(axis=1),
    )


def max_rel(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# N = 1: the integral over [0, x] is the antiderivative vanishing at 0
# ---------------------------------------------------------------------------


def test_antiderivative_plain_exponential():
    x = 0.7
    expected = (np.exp(-1j * 2.0 * x) - 1.0) / (-1j * 2.0)
    assert abs(simplex_exp_integral([2.0], x) - expected) < 1e-14


def test_antiderivative_constant_integrand():
    assert simplex_exp_integral([0.0], 0.9) == pytest.approx(0.9)


def test_antiderivative_matches_adaptive_quadrature():
    # int_0.25^1 x^2 e^{-3ix} dx is the difference of two second moments
    def second_moment(upper):
        return simplex_exp_integral([3.0], upper, order=2)[2][0, 0]

    got = second_moment(1.0) - second_moment(0.25)
    re = integrate.quad(lambda x: x**2 * math.cos(3 * x), 0.25, 1, epsabs=1e-13)[0]
    im = integrate.quad(lambda x: -(x**2) * math.sin(3 * x), 0.25, 1, epsabs=1e-13)[0]
    assert abs(got - (re + 1j * im)) < 1e-10


def test_antiderivative_series_window_definite_integral():
    # small |mu x|, where a closed form 1/mu expression cancels catastrophically
    mu = 1e-6

    def first_moment(upper):
        return simplex_exp_integral([mu], upper, order=2)[1][0]

    got = first_moment(1.0) - first_moment(0.5)
    re = integrate.quad(lambda x: x * math.cos(mu * x), 0.5, 1, epsabs=1e-14)[0]
    im = integrate.quad(lambda x: -x * math.sin(mu * x), 0.5, 1, epsabs=1e-14)[0]
    assert abs(got - (re + 1j * im)) < 1e-13


@pytest.mark.parametrize("power", [0, 1, 2])
def test_degenerate_branch_continuity(power):
    # no jump where a 1e-9 wavenumber used to switch to a polynomial branch
    def value(mu):
        i00, i1, i11 = simplex_exp_integral([mu], 1.0, order=2)
        return (i00, i1[0], i11[0, 0])[power]

    assert abs(value(1e-9 * 1.01) - value(1e-9 * 0.99)) < 1e-8
    assert abs(value(1e-9) - value(0.0)) < 1e-8


# ---------------------------------------------------------------------------
# simplex_exp_integral
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_dim", [1, 2, 3, 4])
def test_simplex_volume(n_dim):
    expected = 1.3**n_dim / math.factorial(n_dim)
    assert simplex_exp_integral((0.0,) * n_dim, 1.3) == pytest.approx(expected, rel=1e-13)


def test_single_exponential():
    lam = 2.7
    L = 1.9
    expected = (np.exp(-1j * lam * L) - 1.0) / (-1j * lam)
    assert abs(simplex_exp_integral([lam], L) - expected) < 1e-13


def test_two_dim_vs_nested_adaptive():
    lam = (1.3, -0.4)
    got = simplex_exp_integral(lam, 1.0)
    want = nested_quad(lam, 1.0)
    assert abs(got - want) < 1e-9


def test_power_factors_vs_nested_adaptive():
    lam = (0.9, -2.2)
    _, _, i11 = simplex_exp_integral(lam, 1.0, order=2)
    want = nested_quad(lam, 1.0, power_idx={0: 1, 1: 1})
    assert abs(i11[0, 1] - want) < 1e-9
    assert i11[1, 0] == i11[0, 1]


@settings(max_examples=25, deadline=None)
@given(
    lam=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
)
def test_conjugation(lam):
    # the pair-bundle dedup reuses every integral of lambda for -lambda
    fwd = simplex_exp_integral(lam, 1.0, order=2)
    rev = simplex_exp_integral([-v for v in lam], 1.0, order=2)
    for f, r in zip(fwd, rev):
        assert np.max(np.abs(r - np.conj(f))) < 1e-10 * max(1.0, np.max(np.abs(f)))


@settings(max_examples=25, deadline=None)
@given(
    lam=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=5),
    L=st.floats(0.3, 3.0).filter(lambda v: abs(v - 1.0) > 1e-3),
)
def test_reflection(lam, L):
    # x_j -> L - x_{N+1-j} maps the ordered simplex to itself, which the
    # pair-bundle dedup uses to read the integrals of rev(lambda) off those
    # of lambda (l' = N + 1 - l, E = exp(-i L sum lambda))
    i00, i1, i11 = simplex_exp_integral(lam, L, order=2)
    r00, r1, r11 = (np.conj(v) for v in simplex_exp_integral(lam[::-1], L, order=2))
    phase = np.exp(-1j * L * sum(lam))
    r1 = r1[::-1]
    r11 = r11[::-1, ::-1]
    want = (
        phase * r00,
        phase * (L * r00 - r1),
        phase * (L**2 * r00 - L * (r1[:, None] + r1[None, :]) + r11),
    )
    volume = L ** len(lam) / math.factorial(len(lam))
    for moment, (got, expected) in enumerate(zip((i00, i1, i11), want)):
        # |x^moment| <= L^moment on the simplex bounds every entry
        assert np.max(np.abs(got - expected)) < 1e-12 * volume * L**moment


@settings(max_examples=20, deadline=None)
@given(
    lam=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
    alpha=st.integers(0, 1),
    beta=st.integers(0, 1),
)
def test_agrees_with_simplex_quadrature(lam, alpha, beta):
    n_dim = len(lam)
    L = 1.0
    i00, i1, i11 = simplex_exp_integral(lam, L, order=2)
    if alpha and beta:
        got = i11[0, n_dim - 1]
    elif alpha or beta:
        got = i1[0 if alpha else n_dim - 1]
    else:
        got = i00

    lam_arr = np.asarray(lam)

    def f(points):
        val = np.exp(-1j * points @ lam_arr)
        if alpha:
            val = val * points[:, 0]
        if beta:
            val = val * points[:, n_dim - 1]
        return val

    want = simplex_quadrature(f, n_dim, L, order=48)
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_moments_vs_simplex_quadrature_large_box():
    # every first and second moment at once, at a QFI-sized box
    lam = np.array([0.7, -1.1, 0.25])
    L = 10.0
    i00, i1, i11 = simplex_exp_integral(lam, L, order=2)
    pts, wts = simplex_nodes(3, L, 48)
    phase = wts * np.exp(-1j * pts @ lam)
    assert abs(i00 - phase.sum()) < 1e-9 * abs(i00)
    assert max_rel(i1, pts.T @ phase) < 1e-9
    assert max_rel(i11, np.einsum("p,pm,pl->ml", phase, pts, pts)) < 1e-9


def expm_divided_difference(w):
    """exp[w_0..w_k] as entry (0, k) of scipy's expm of the bidiagonal matrix."""
    m = len(w)
    a = np.diag(np.asarray(w, dtype=complex)) + np.diag(np.ones(m - 1), 1)
    return scipy.linalg.expm(a)[0, -1]


def at_each_order(lam, L):
    """(order, moments) for orders 0, 1 and 2, the moments always as a tuple."""
    for order in (0, 1, 2):
        got = simplex_exp_integral(lam, L, order)
        yield order, (got,) if order == 0 else got


@pytest.mark.parametrize("L", [1.0, 10.0, 90.0])
def test_kernel_matches_scipy_expm(L):
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        lam = rng.uniform(-1.5, 1.5, n)
        want = moments_from(expm_divided_difference, lam, L)
        for order, got in at_each_order(lam, L):
            assert len(got) == order + 1
            for g, w in zip(got, want):
                assert max_rel(g, w) < 1e-12


def star_depths(ones):
    """Edge count from a source to each node of a 0/1 upper-triangular template."""
    depth = np.zeros(len(ones), dtype=int)
    for p, q in zip(*np.nonzero(ones)):  # row-major: every edge into p is seen first
        depth[q] = max(depth[q], depth[p] + 1)
    return depth


def check_kernel_on_stars(z, order):
    """_expm_i_upper on the kernel's centred real star matrices of node vectors z.

    ``z`` is a (vectors, n + 1) stack of imaginary nodes.  With y = z.imag
    on the star's diagonal, centred at the midpoint nu of its range, M is
    diag(y - nu) plus the star's 0/1 edges.  exp(i M) is checked against
    scipy's expm of i M, and e^{i nu} i^(d_p - d_q) exp(i M)_pq, d the edge
    depth of a node, against scipy's expm of the complex star matrix with
    diagonal z: by the path-sum formula, the divided difference over the
    nodes of the path p..q where there is one, and 0 where there is none.
    """
    nodes, ones, _, _, ends = integrals._star(z.shape[1] - 1, order)
    y = z.imag[:, nodes]
    nu = 0.5 * (y.max(axis=1) + y.min(axis=1))
    mats = np.array([np.diag(row - mid) + ones for row, mid in zip(y, nu)])
    got = integrals._expm_i_upper(mats.copy(), *ends)  # the kernel overwrites its argument
    upper = np.triu_indices(len(nodes))
    depth = star_depths(ones)
    turns = 1j ** np.subtract.outer(depth, depth)
    for w, mid, mat, table in zip(z[:, nodes], nu, mats, got):
        assert max_rel(table[upper], scipy.linalg.expm(1j * mat)[upper]) < 1e-12
        read_off = np.exp(1j * mid) * turns * table
        want = scipy.linalg.expm(np.diag(w) + ones)
        assert max_rel(read_off[upper], want[upper]) < 1e-12
    return mats


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_window_of_a_confluent_row_matches_scipy_expm(n):
    # every star repeats nodes (each extra is a centre node again), and a
    # zero tail sum makes two centre nodes equal: every entry (p, q), p <= q,
    # of the table is the divided difference over its path
    rng = np.random.default_rng(n)
    lam = rng.uniform(-1.5, 1.5, n)
    tied = np.append(rng.uniform(-1.5, 1.5, n - 2), [0.6, -0.6])
    z = np.array([nodes(lam, 10.0), nodes(tied, 10.0)], dtype=complex)
    for order in (0, 1, 2):
        check_kernel_on_stars(z, order)


def test_one_batch_with_mixed_scaling_powers_matches_scipy_expm():
    # spread and confluent stars of several sizes L in one batch, so each
    # squaring round acts on a strict subset of the matrices; order 1 has
    # a right end block alone, order 2 a left one too
    rng = np.random.default_rng(21)
    n = 4
    z = np.array(
        [nodes(rng.uniform(-1.5, 1.5, n), L) for L in (1.0, 3.0, 10.0, 40.0, 120.0, 400.0)
         for _ in range(2)],
        dtype=complex,
    )
    for order in (1, 2):
        mats = check_kernel_on_stars(z, order)
        norm = np.abs(mats).sum(axis=1).max(axis=1)
        powers = np.maximum(0, np.ceil(np.log2(norm / integrals._THETA13)))
        assert powers.min() == 0 and powers.max() >= 5


def test_generic_upper_triangular_matrices_match_scipy_expm():
    # no end blocks: every row is back-substituted, for dense upper
    # triangles of norms from below theta_13 to several squarings
    rng = np.random.default_rng(30)
    mats = np.triu(rng.uniform(-1.0, 1.0, (5, 7, 7))) * np.array([0.3, 1.0, 4.0, 20.0, 90.0])[:, None, None]
    got = integrals._expm_i_upper(mats.copy())
    upper = np.triu_indices(7)
    for mat, table in zip(mats, got):
        assert np.array_equal(np.tril(table, -1), np.zeros((7, 7)))
        assert max_rel(table[upper], scipy.linalg.expm(1j * mat)[upper]) < 1e-12


def star_paths(ones, p, q):
    """Every path p -> q along the edges of a 0/1 upper-triangular template."""
    if p == q:
        return [[p]]
    return [[p] + rest for r in np.nonzero(ones[p])[0] for rest in star_paths(ones, r, q)]


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_layout_windows_cover_every_moment(n, order):
    # each entry read has exactly one path, through all of z_0..z_n plus
    # exactly the moment's extra nodes, and n + k edges for k extras
    nodes_idx, ones, reads, upper, _ = integrals._star(n, order)
    keys = [[()], [(i,) for i in range(n)], list(zip(*upper))][: order + 1]
    assert len(reads) == order + 1
    seen = []
    for k, (level, (p_idx, q_idx)) in enumerate(zip(keys, reads)):
        assert len(level) == len(p_idx) == len(q_idx)
        for key, p, q in zip(level, p_idx, q_idx):
            (path,) = star_paths(ones, p, q)
            assert len(path) == n + k + 1
            assert sorted(nodes_idx[path]) == sorted(list(range(n + 1)) + list(key))
            seen.append(tuple(int(i) for i in key))
    wanted = [()]
    if order >= 1:
        wanted += [(i,) for i in range(n)]
    if order == 2:
        wanted += [(i, j) for i in range(n) for j in range(i, n)]
    assert sorted(seen) == sorted(wanted)
    assert integrals._star(n, order) is integrals._star(n, order)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_layout_row_counts(n):
    # one star matrix per vector: the centre path, then n right extras from
    # order 1 on and n left extras at order 2, each joined by one edge
    for order, m in enumerate((n + 1, 2 * n + 1, 3 * n + 1)):
        nodes_idx, ones, *_, (left, right) = integrals._star(n, order)
        assert nodes_idx.shape == (m,) and ones.shape == (m, m)
        assert np.array_equal(ones, np.triu(ones, 1)) and ones.sum() == n * (order + 1)
        # the extras of one side share no edge: diagonal end blocks
        assert (left, right) == (n if order == 2 else 0, n if order >= 1 else 0)
        assert not ones[:left, :left].any() and not ones[m - right :, m - right :].any()


def mp_divided_difference(w):
    """exp[w_0..w_k] by partial fractions in 260-digit arithmetic.

    Confluent nodes are split by distinct 1e-30 offsets; the partial
    fractions then lose at most 30 digits per repeated node and the offsets
    move the value by about 1e-30 relative.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(260):
        pts = [mp.mpc(complex(x)) + mp.mpf(10) ** -30 * (j + 1) for j, x in enumerate(w)]
        total = mp.mpc(0)
        for j, wj in enumerate(pts):
            den = mp.mpc(1)
            for i, wi in enumerate(pts):
                if i != j:
                    den *= wj - wi
            total += mp.exp(wj) / den
        return complex(total)


MP_CASES = [
    ((0.8,), "generic"),
    ((0.0,), "zero"),
    ((0.0, 1.3), "lambda_1 = 0"),
    ((-0.6, 0.6), "zero tail sum"),
    ((0.9, -2.1, 0.4), "generic"),
    ((0.0, 0.5, -0.5), "lambda_1 = 0, zero tail sum"),
    ((1.2, -0.3, 0.7, -1.9), "generic"),
    ((0.3, -1.1, 0.0, 1.1), "zero tail sum"),
    ((0.5, -0.8, 1.6, -0.2, -0.9), "generic"),
    ((0.0, 0.7, -1.4, 0.3, 0.4), "lambda_1 = 0, zero tail sum"),
]


@pytest.mark.parametrize("L", [1.0, 10.0, 90.0])
@pytest.mark.parametrize("lam,case", MP_CASES)
def test_kernel_matches_mpmath(lam, case, L):
    want = moments_from(mp_divided_difference, lam, L)
    for order, got in at_each_order(lam, L):
        for g, w in zip(got, want):
            assert max_rel(g, w) < 1e-12, (case, order)


def test_batch_shapes_and_chunking(monkeypatch):
    rng = np.random.default_rng(5)
    lam = rng.uniform(-3.0, 3.0, size=(3, 5, 3))
    block = integrals._simplex_block
    for order, whole in at_each_order(lam, 4.0):
        assert [v.shape for v in whole] == [(3, 5), (3, 5, 3), (3, 5, 3, 3)][: order + 1]

        # a chunk just over two star matrices' entries: blocks of two,
        # and the fifteenth vector alone in a ragged last block
        m = len(integrals._star(3, order)[0])
        sizes = []

        def spy(lam_block, L, order):
            sizes.append(len(lam_block))
            return block(lam_block, L, order)

        with monkeypatch.context() as patch:
            patch.setattr(integrals, "EXPM_CHUNK", 2 * m * m + 1)
            patch.setattr(integrals, "_simplex_block", spy)
            chunked = simplex_exp_integral(lam, 4.0, order)
        assert sizes == [2] * 7 + [1]
        chunked = (chunked,) if order == 0 else chunked
        for a, b in zip(whole, chunked):
            np.testing.assert_array_equal(a, b)
    single = simplex_exp_integral(lam[1, 2], 4.0)
    assert single.shape == () and single == whole[0][1, 2]


def test_request_validation():
    with pytest.raises(ValueError):
        simplex_exp_integral([], 1.0)
    with pytest.raises(ValueError):
        simplex_exp_integral([1.0], -1.0)
    with pytest.raises(ValueError):
        simplex_exp_integral([1.0, np.nan], 1.0)
    with pytest.raises(ValueError):
        simplex_exp_integral(1.0, 1.0)  # needs a wavenumber axis
    with pytest.raises(ValueError, match="order"):
        simplex_exp_integral([1.0], 1.0, 3)
    with pytest.raises(TypeError):
        simplex_exp_integral([1.0], 1.0, moments=True)  # the keyword is order


# ---------------------------------------------------------------------------
# pair integrals: sign and reflection folds, degeneracy quantum, contraction
# ---------------------------------------------------------------------------


PAIR_STATES = {"box3": ground_state(HW, 3), "ring-112": StateSpec(PER, 3, (-1.0, 1.0, 2.0))}


def _layout_plan(table, kappa):
    """The pair plan of ``table``'s rows on the last columns that ``kappa`` holds."""
    return integrals._pair_plan(table.periodic, table.n, kappa.shape[1])


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("case", PAIR_STATES)
def test_folded_bundles_match_kernel_on_every_pair(case, order):
    # the unfolded kernel on every pair vector, contracted with dkappa here;
    # the plan of the table's layout and the plan of one pair per group
    # give the same bundles, and the same bits
    table = amplitudes(PAIR_STATES[case], ModelParams(0.2, 10.0))
    kappa, dkappa, L = table.kappa, table.dkappa, table.L
    folded, n_bundles = integrals._pair_integrals(
        kappa, dkappa, L, order, _layout_plan(table, kappa)
    )
    trivial_plan = integrals._trivial_plan(len(kappa))
    trivial = integrals._pair_integrals(kappa, dkappa, L, order, trivial_plan)
    assert trivial[1] == n_bundles
    for a, b in zip(trivial[0], folded):
        np.testing.assert_array_equal(a, b)
    lam = kappa[:, None, :] - kappa[None, :, :]
    direct = simplex_exp_integral(lam, L, order)
    direct = (direct,) if order == 0 else direct
    want = [direct[0]]
    if order >= 1:
        want.append((direct[1] * dkappa[None, :, :]).sum(axis=2))
    if order == 2:
        want.append(
            (dkappa[:, None, :, None] * direct[2] * dkappa[None, :, None, :]).sum(axis=(2, 3))
        )
    assert len(folded) == order + 1
    assert n_bundles < lam.shape[0] * lam.shape[1] / 3
    for got, w in zip(folded, want):
        assert got.shape == (len(kappa), len(kappa))
        assert np.max(np.abs(got - w)) < 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("case", PAIR_STATES)
def test_row_contraction_is_the_adjoint_of_the_column_contraction(case):
    # sum_l I^1_l(lambda_ts) dkappa[t, l] = conj(a[s, t]), as I^1(-lambda) =
    # conj I^1(lambda): the QFI assembly reads its row contraction this way
    table = amplitudes(PAIR_STATES[case], ModelParams(0.2, 10.0))
    kappa, dkappa, L = table.kappa, table.dkappa, table.L
    (_, a), _ = integrals._pair_integrals(kappa, dkappa, L, 1, _layout_plan(table, kappa))
    _, i1 = simplex_exp_integral(kappa[:, None, :] - kappa[None, :, :], L, 1)
    row = (i1 * dkappa[:, None, :]).sum(axis=2)
    assert np.max(np.abs(row - np.conj(a.T))) < 1e-12 * np.max(np.abs(row))


@pytest.mark.parametrize("spec", [ground_state(PER, 5), ground_state(HW, 3)], ids=["ring5", "box3"])
def test_second_moments_gathered_in_row_blocks_match_one_block(spec, monkeypatch):
    # the QFI's arguments (the ring's x_1 = 0 slice), contracted in one
    # block and in ragged blocks of seven rows; the first moments share the
    # row blocks, at order 1 and at order 2
    table = amplitudes(spec, ModelParams(0.2, 10.0))
    cols = slice(1, None) if spec.bc is PER else slice(None)
    kappa, dkappa = table.kappa[:, cols], table.dkappa[:, cols]
    plan = _layout_plan(table, kappa)
    rows, n = kappa.shape
    assert rows % 7 != 0
    for order in (1, 2):
        monkeypatch.setattr(integrals, "_EVAL_CHUNK", rows * rows * n**order)
        whole, _ = integrals._pair_integrals(kappa, dkappa, table.L, order, plan)
        monkeypatch.setattr(integrals, "_EVAL_CHUNK", 7 * rows * n**order + 1)
        blocked, _ = integrals._pair_integrals(kappa, dkappa, table.L, order, plan)
        assert len(blocked) == len(whole) == order + 1
        for got, want in zip(blocked, whole):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_box4_qfi_keeps_no_pair_shaped_array_past_the_grouping():
    # the pair layer keys only the pair plan's representatives, and both
    # moment orders are gathered in row blocks: 32.4 MB with the plan
    # cached, 33.3 MB when this call builds it.  One box N = 4 QFI peaked
    # at 43.7 MB when the (rows^2, n) differences stayed alive and the
    # first moments were gathered in one block
    table = amplitudes(ground_state(HW, 4), ModelParams(0.2, 10.0))
    tracemalloc.start()
    try:
        qfi = _qfi_with_residue(table)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert qfi == pytest.approx(2.759030651827449, rel=1e-12)
    assert peak < 38e6


def test_box4_kernel_batch_is_folded(monkeypatch):
    # counts the vectors the kernel integrates, without running it: both
    # folds bring box N = 4 from 147,456 pairs (22,517 sign-folded) to 11,331
    batches = []

    def stub(lam, L, order):
        batches.append(len(lam))
        shapes = ((), (lam.shape[1],), (lam.shape[1],) * 2)[: order + 1]
        return tuple(np.zeros((len(lam),) + shape, dtype=complex) for shape in shapes)

    monkeypatch.setattr(integrals, "simplex_exp_integral", stub)
    table = amplitudes(ground_state(HW, 4), ModelParams(0.2, 10.0))
    plan = _layout_plan(table, table.kappa)
    _, n_bundles = integrals._pair_integrals(table.kappa, table.dkappa, table.L, 2, plan)
    assert batches == [n_bundles] == [11331]


def _layout_kappa(periodic, k):
    """The kappa rows of a table at k, sign vectors major and permutations minor."""
    n = len(k)
    signs = itertools.product((1.0,) if periodic else (1.0, -1.0), repeat=n)
    perms = list(itertools.permutations(range(n)))
    rows = [[e * k[p] for e, p in zip(eps, perm)] for eps in signs for perm in perms]
    kappa = np.array(rows)
    return kappa[:, 1:] if periodic and n > 1 else kappa


def _bundles_against_the_oracle(kappa, plan):
    """Plan plus merge against the pair-level grouping: the bundle count, after equal bits."""
    reps, index = integrals._bundle_index(kappa, plan)
    want_reps, want_index = pair_bundles(kappa, integrals.DEGENERACY_RTOL)
    assert np.array_equal(reps.view(np.uint64), want_reps.view(np.uint64))
    assert np.array_equal(index, want_index)
    return len(reps)


# the states of the benchmark workloads at c = 0.2: the fisher sweeps over
# L = 6..18, the ring N = 5 point, and the lmax states near their L_max
WORKLOAD_POINTS = [
    *(
        (spec, L)
        for spec in (
            ground_state(PER, 2),
            ground_state(PER, 3),
            ground_state(PER, 4),
            ground_state(HW, 2),
            ground_state(HW, 3),
            StateSpec(PER, 3, (-1.0, 1.0, 2.0)),
            StateSpec(PER, 4, (-1.5, -0.5, 0.5, 2.5)),
        )
        for L in (6.0, 10.0, 14.0, 18.0)
    ),
    (ground_state(PER, 5), 10.0),
    (StateSpec(HW, 3, (1.0, 2.0, 4.0)), 66.0),
    (StateSpec(HW, 3, (1.0, 3.0, 4.0)), 67.95),
    (StateSpec(HW, 3, (2.0, 3.0, 4.0)), 62.0),
]


def test_plan_and_merge_match_the_pair_level_grouping_on_the_workload_states():
    # the QFI's columns (the ring's x_1 = 0 slice) of every workload state;
    # the ring ground states merge groups by value, the others keep them
    merged = []
    for spec, L in WORKLOAD_POINTS + [(ground_state(HW, 4), 10.0)]:
        table = amplitudes(spec, ModelParams(0.2, L))
        kappa = _domain(table)[1]
        plan = _layout_plan(table, kappa)
        bundles = _bundles_against_the_oracle(kappa, plan)
        merged.append((spec.bc.value, spec.n, len(plan.reps), bundles))
    assert merged[-1] == ("hardwall", 4, 13257, 11331)
    assert ("periodic", 5, 3061, 1367) in merged and ("periodic", 4, 127, 71) in merged


@pytest.mark.parametrize("symmetric", [False, True], ids=["generic", "mirror"])
@pytest.mark.parametrize(
    "periodic,n",
    [(True, 3), (True, 4), (True, 5), (False, 2), (False, 3), (False, 4)],
    ids=["ring3", "ring4", "ring5", "box2", "box3", "box4"],
)
def test_plan_and_merge_match_the_pair_level_grouping_on_random_k(periodic, n, symmetric):
    # random k, and k mirror-symmetric about their centre (0 on the ring),
    # whose equal sums merge the plan's groups by value
    rng = np.random.default_rng(1000 * n + 10 * periodic + symmetric)
    if symmetric:
        half = np.sort(rng.uniform(0.2, 1.5, n // 2))
        offsets = np.concatenate([-half[::-1], [0.0] * (n % 2), half])
        k = offsets if periodic else 2.0 + offsets
    else:
        k = np.sort(rng.uniform(-3.0, 3.0, n) if periodic else rng.uniform(0.1, 3.0, n))
    kappa = _layout_kappa(periodic, k)
    plan = integrals._pair_plan(periodic, n, kappa.shape[1])
    bundles = _bundles_against_the_oracle(kappa, plan)
    if symmetric and n >= 3:
        assert bundles < len(plan.reps)
    elif not symmetric:
        assert bundles == len(plan.reps)


@pytest.mark.parametrize(
    "periodic,n,groups",
    [
        (False, 2, 11), (False, 3, 253), (False, 4, 13257),
        (True, 3, 10), (True, 4, 127), (True, 5, 3061),
    ],
    ids=["box2", "box3", "box4", "ring3", "ring4", "ring5"],
)
def test_pair_plan_groups_pairs_of_equal_lambda_up_to_sign_and_reversal(periodic, n, groups):
    # on the QFI's columns; every pair's lambda is its representative's in
    # the plan's orientation, equal as floats (+0 and -0 alike) at any k
    kappa = _layout_kappa(periodic, np.random.default_rng(n).uniform(-3.0, 3.0, n))
    plan = integrals._pair_plan(periodic, n, kappa.shape[1])
    assert len(plan.reps) == groups
    lam = (kappa[:, None, :] - kappa[None, :, :]).reshape(-1, kappa.shape[1])
    rep = lam[plan.reps][plan.group]
    turns = np.stack([rep, -rep, rep[:, ::-1], -rep[:, ::-1]], axis=1)
    assert np.array_equal(turns[np.arange(len(lam)), plan.orient], lam)


def test_pair_plans_are_cached_read_only_and_compact():
    plan = integrals._pair_plan(False, 3, 3)
    assert integrals._pair_plan(False, 3, 3) is plan
    assert (plan.group.dtype, plan.orient.dtype) == (np.int32, np.int8)
    assert plan.group.shape == plan.orient.shape == (48 * 48,)
    # the representatives ascend in pair order, each in its own group unturned
    assert np.all(np.diff(plan.reps) > 0)
    assert np.array_equal(plan.group[plan.reps], np.arange(len(plan.reps)))
    assert not plan.orient[plan.reps].any() and plan.turns == (0, 1, 2, 3)
    trivial = integrals._trivial_plan(5)
    assert integrals._trivial_plan(5) is trivial and trivial.turns == (0,)
    assert np.array_equal(trivial.reps, np.arange(25))
    for arr in (*plan[:3], *trivial[:3]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    with pytest.raises(ValueError, match="2304 pairs does not fit 47 rows"):
        integrals._bundle_index(np.ones((47, 3)), plan)


def test_a_second_qfi_of_one_shape_builds_no_plan(monkeypatch):
    # and its merge keys the plan's 253 representatives, not the 2,304 pairs
    spec = StateSpec(HW, 3, (1.0, 2.0, 4.0))
    fisher_report(spec, ModelParams(0.2, 60.0))
    before = integrals._pair_plan.cache_info()
    grouped = []
    bundles = integrals._bundles

    def counting(canon):
        grouped.append(len(canon))
        return bundles(canon)

    monkeypatch.setattr(integrals, "_bundles", counting)
    report = fisher_report(spec, ModelParams(0.2, 70.0))
    after = integrals._pair_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert grouped == [report.method["qfi_plan_groups"]] == [253]


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------


def pointwise(f):
    """The factored integrand of ``_simplex_rule`` for ``f`` of a flat (M, n) point array.

    It forms the nodes x = X + u e of every line itself and hands them to
    ``f`` in one call, cell-major with u fastest.
    """

    def factored(outer, edges, u):
        x = outer[:, :, None, :] + u[None, :, :, None] * edges[:, None, None, :]
        return np.asarray(f(x.reshape(-1, x.shape[-1]))).reshape(x.shape[:-1])

    return factored


def _whole(f, n_dim, L, order):
    """The package's rule of ``order`` on the whole simplex 0 <= x_1 <= ... <= x_N <= L."""
    cell = L * integrals._reference_vertices(n_dim)[None]
    return integrals._simplex_rule(pointwise(f), cell, order)[0]


@pytest.mark.parametrize("n_dim", [1, 2, 3, 4])
def test_simplex_quadrature_constant(n_dim):
    L = 2.0
    got = _whole(lambda pts: np.ones(pts.shape[0]), n_dim, L, 8)
    assert got == pytest.approx(L**n_dim / math.factorial(n_dim), rel=1e-12)


def test_simplex_quadrature_order_doubling():
    lam = np.array([3.0, -1.0, 2.0])

    def f(pts):
        return np.cos(pts @ lam)

    coarse = _whole(f, 3, 1.0, 48)
    fine = _whole(f, 3, 1.0, 96)
    assert abs(coarse - fine) < 1e-7 * max(1.0, abs(fine))


@pytest.mark.parametrize("n_dim", [1, 2, 3, 4])
def test_mapped_rule_on_the_whole_simplex_is_the_iterated_rule(n_dim):
    # the package's rule against the oracle's, which builds the same
    # iterated rule on its own (a tensor rule under the conical map)
    lam = np.array([3.0, -1.0, 2.0, 0.5])[:n_dim]

    def f(pts):
        return np.cos(pts @ lam) + pts[:, -1]

    L = 1.7
    cell = L * integrals._reference_vertices(n_dim)[None]
    got = integrals._simplex_rule(pointwise(f), cell, 6)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(simplex_quadrature(f, n_dim, L, 6), rel=1e-13)
    # on the reference cell the affine map is L times the identity
    seen = []

    def record(pts):
        seen.append(pts)
        return np.ones(len(pts))

    integrals._simplex_rule(pointwise(record), cell, 6)
    assert np.array_equal(seen[0], L * integrals.simplex_nodes(n_dim, 6)[0])


@pytest.mark.parametrize("n_dim", [2, 3, 4])
def test_bisected_cells_tile_their_parent(n_dim):
    # three rounds of longest-edge bisection: the children's rules sum to
    # the parent integral of a cubic, which the iterated order-4 rule
    # integrates exactly (the conical map raises the degree by n - 1 <= 3)
    def f(pts):
        return (pts**3).sum(axis=1) + pts[:, 0] * pts[:, -1]

    cells = 2.0 * integrals._reference_vertices(n_dim)[None]
    whole = integrals._simplex_rule(pointwise(f), cells, 4)[0]
    for _ in range(3):
        cells = integrals._bisect(cells)
    assert len(cells) == 8
    volumes = np.abs(np.linalg.det(cells[:, 1:] - cells[:, :1]))
    assert volumes.sum() == pytest.approx(2.0**n_dim, rel=1e-14)
    split = integrals._simplex_rule(pointwise(f), cells, 4)
    assert split.sum() == pytest.approx(whole, rel=1e-13)


def _angular(pts):
    """cos^2 of the angle about (0.3, 0.7): bounded, and without a limit there."""
    d = pts - np.array([0.3, 0.7])
    return d[:, 0] ** 2 / np.maximum((d**2).sum(axis=1), 1e-300)


def test_refinement_confines_a_point_where_the_integrand_jumps():
    # the unrefined pair differ by 1.8e-4 here; bisection brings the
    # estimate below 1e-6, and the result to within it of the reference, an
    # adaptive scipy quadrature of the same integrand
    value, estimate, cells = integrals.refined_simplex_quadrature(
        pointwise(_angular), 2, 1.0, (24, 16), 1e-6, 10**6
    )
    reference, _ = integrate.dblquad(
        lambda y1, y2: (y1 - 0.3) ** 2 / ((y1 - 0.3) ** 2 + (y2 - 0.7) ** 2),
        0.0, 1.0, 0.0, lambda y2: y2, epsabs=1e-12, epsrel=1e-12,
    )
    assert cells > 1 and estimate <= 1e-6
    assert abs(value - reference) <= estimate * reference


def test_refinement_stops_at_its_node_budget():
    # one rule pair on the whole simplex, and no nodes for a split
    value, estimate, cells = integrals.refined_simplex_quadrature(
        pointwise(_angular), 2, 1.0, (24, 16), 1e-6, 24**2 + 16**2
    )
    assert cells == 1 and estimate > 1e-6
    assert value == _whole(_angular, 2, 1.0, 24)


@pytest.mark.parametrize("n_dim", [0, -1])
def test_simplex_rule_rejects_dimension_below_one(n_dim):
    # a dimension below one must not fall back to a 1-D rule of volume L
    with pytest.raises(ValueError, match="dimension"):
        integrals.simplex_nodes(n_dim, 8)
    with pytest.raises(ValueError, match="dimension"):
        integrals.refined_simplex_quadrature(
            lambda pts: np.ones(pts.shape[0]), n_dim, 2.0, (8, 6), 1e-6, 10**6
        )


def test_simplex_quadrature_rejects_low_order():
    with pytest.raises(ValueError, match="order"):
        integrals.refined_simplex_quadrature(
            lambda pts: np.ones(pts.shape[0]), 1, 1.0, (1, 2), 1e-6, 10**6
        )


def test_simplex_nodes_are_cached_read_only_lines_along_y1():
    # ``_simplex_rule`` reads its factored lines off this layout
    order = 7
    t = 0.5 * (np.polynomial.legendre.leggauss(order)[0] + 1.0)
    for n_dim in (1, 2, 3, 4):
        pts, wts = integrals.simplex_nodes(n_dim, order)
        assert integrals.simplex_nodes(n_dim, order)[0] is pts
        assert not pts.flags.writeable and not wts.flags.writeable
        assert pts.shape == (order**n_dim, n_dim) and wts.shape == (order**n_dim,)
        assert wts.sum() == pytest.approx(1.0 / math.factorial(n_dim), rel=1e-14)
        lines = pts.reshape(-1, order, n_dim)
        shared = np.broadcast_to(lines[:, :1, 1:], lines[:, :, 1:].shape)
        assert np.array_equal(lines[:, :, 1:], shared)
        upper = lines[:, 0, 1] if n_dim > 1 else np.ones(1)
        np.testing.assert_allclose(lines[:, :, 0], upper[:, None] * t, rtol=1e-15, atol=0)


def test_box_quadrature_volume():
    box = [(0.0, 0.5), (1.0, 1.75), (2.0, 4.0)]
    got = box_quadrature(lambda pts: np.ones(pts.shape[0]), box, order=4)
    assert got == pytest.approx(0.5 * 0.75 * 2.0, rel=1e-13)


def test_box_quadrature_repeated_interval_is_full_block():
    # symmetric integrand over an identical-interval pair: the ordered
    # sub-simplex times 2! must equal the plain product integral
    box = [(0.0, 1.0), (0.0, 1.0)]

    def f(pts):
        return pts[:, 0] ** 2 + pts[:, 1] ** 2

    got = box_quadrature(f, box, order=12)
    assert got == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_box_quadrature_subsplit_consistency():
    # splitting one pixel into halves and summing the three ordered
    # configurations reproduces the unsplit block integral
    def f(pts):
        return np.cos(pts[:, 0] - 2.0 * pts[:, 1]) + 1.5

    whole = box_quadrature(f, [(0.0, 1.0), (0.0, 1.0)], order=24)
    lo, hi = (0.0, 0.5), (0.5, 1.0)
    split = (
        box_quadrature(f, [lo, lo], order=24)
        + box_quadrature(f, [hi, hi], order=24)
        + 2.0 * box_quadrature(f, [lo, hi], order=24)
    )
    assert split == pytest.approx(whole, rel=1e-12)


def test_box_quadrature_rejects_inverted_interval():
    with pytest.raises(ValueError):
        box_quadrature(lambda pts: np.ones(pts.shape[0]), [(1.0, 0.0)], order=4)
