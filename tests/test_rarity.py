import re
import tracemalloc

import numpy as np
import pytest

from lindblad_ode import (
    MasterEqParams,
    estimate_p_gue,
    estimate_p_lindblad_ginoe,
    forward_map,
    ginoe_induced_a_covariance,
    gue_p_analytic,
    inverse_map,
    wilson_interval,
)
from lindblad_ode.basis import generate_gell_mann
from lindblad_ode.rarity import (
    _CHUNK,
    _count_psd,
    _diagonal_bound,
    _gue_matrix,
    _normals,
    _psd_candidates,
    _rates,
    _rates_matrix,
    _stable_candidates,
)
from lindblad_ode.tolerance import is_psd
from lindblad_ode.tolerance import DATA as _PSD_TOL
from oracles import (
    gue_covariance_check,
    rates_matrix_all_at_once,
    sample_ginoe_pair,
    sample_gue,
    stable_candidates_degree4,
)
from oracles import stream as _stream

# past 2^63, and the sample count crosses a chunk boundary
_BIG_SEED = 2**63 + 12345
_N_ACROSS = _CHUNK + 37


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == pytest.approx(0.0, abs=1e-12) and 0.0 < hi0 < 0.1
    lon, hin = wilson_interval(100, 100)
    assert 0.9 < lon < 1.0 and hin == pytest.approx(1.0, abs=1e-12)
    # interval shrinks with sample size
    lo2, hi2 = wilson_interval(5000, 10000)
    assert hi2 - lo2 < hi - lo


@pytest.mark.parametrize("k", [5, -1])
def test_wilson_interval_rejects_a_count_outside_zero_to_n(k):
    with pytest.raises(ValueError, match=rf"^a count of {k} is not in \[0, n\] for n = 3$"):
        wilson_interval(k, 3)


def test_samplers_are_deterministic_per_index():
    p1 = sample_ginoe_pair(3, _stream(11, 4))
    p2 = sample_ginoe_pair(3, _stream(11, 4))
    np.testing.assert_array_equal(p1.G, p2.G)
    np.testing.assert_array_equal(p1.c, p2.c)
    p3 = sample_ginoe_pair(3, _stream(11, 5))
    assert not np.array_equal(p1.G, p3.G)
    a1 = sample_gue(3, _stream(7, 0))
    a2 = sample_gue(3, _stream(7, 0))
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_allclose(a1, a1.conj().T, atol=0)


def test_ginoe_sampler_moments():
    d = 2
    J = d * d - 1
    n = 20000
    gs = np.empty((n, J, J))
    cs = np.empty((n, J))
    for i in range(n):
        pair = sample_ginoe_pair(d, _stream(3, i))
        gs[i], cs[i] = pair.G, pair.c
    assert abs(gs.mean()) < 0.02
    assert abs(gs.var() - 1.0) < 0.03
    assert abs(cs.var() - 1.0 / d) < 0.02


def test_gue_sampler_moments():
    J = 3
    n = 20000
    diag = np.empty((n, J))
    off = np.empty(n, dtype=complex)
    for i in range(n):
        a = sample_gue(J, _stream(5, i))
        diag[i] = np.diag(a).real
        off[i] = a[0, 1]
    assert abs(diag.var() - 0.5) < 0.03
    assert abs(off.real.var() - 0.25) < 0.02
    assert abs(off.imag.var() - 0.25) < 0.02


def test_gue_p_analytic_values():
    assert gue_p_analytic(1) == pytest.approx(0.5, abs=1e-14)
    assert gue_p_analytic(2) == pytest.approx(0.25 - 1.0 / (2 * np.pi), abs=1e-14)
    assert gue_p_analytic(3) == pytest.approx(0.0056338, abs=5e-8)
    for j in (0, 9):
        with pytest.raises(ValueError):
            gue_p_analytic(j)


def test_gue_p_analytic_matches_extended_precision():
    # the same Hankel determinants in 50-digit arithmetic
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for j in range(1, 9):
        gam = mp.matrix([[mp.gamma(mp.mpf(i + k + 1) / 2) for k in range(j)] for i in range(j)])
        even = mp.matrix([[1 - (i + k) % 2 for k in range(j)] for i in range(j)])
        half = mp.det(gam / 2)
        full = mp.det(mp.matrix([[gam[i, k] * even[i, k] for k in range(j)] for i in range(j)]))
        assert gue_p_analytic(j) == pytest.approx(float(half / full), rel=1e-8)


@pytest.mark.parametrize("J", [1, 2, 3])
def test_gue_estimate_brackets_analytic(J):
    est = estimate_p_gue(J, n_samples=100_000, seed=202)
    assert est.ci_low <= gue_p_analytic(J) <= est.ci_high
    assert est.n_samples == 100_000


def test_gue_estimate_reproducible():
    e1 = estimate_p_gue(2, n_samples=5000, seed=9)
    e2 = estimate_p_gue(2, n_samples=5000, seed=9)
    assert e1.n_positive == e2.n_positive
    assert e1.p_hat == e2.p_hat


def test_ginoe_counting_inequality():
    for d in (2, 3):
        est = estimate_p_lindblad_ginoe(d, n_samples=4000, seed=77)
        assert est.n_positive <= est.n_spectrum_stable
        assert 0.0 <= est.p_hat <= 1.0
        assert est.ci_low <= est.p_hat <= est.ci_high


def test_ginoe_batched_a_matches_inverse_map(basis2):
    # the vectorized dissipator extraction must equal the one-at-a-time formula
    n = 200
    est = estimate_p_lindblad_ginoe(2, n_samples=n, seed=31)
    hits = 0
    for k in range(n):
        pair = sample_ginoe_pair(2, _stream(31, k))
        ak = inverse_map(pair, basis2).rates
        norm = max(1.0, np.linalg.norm(ak, 2))
        if np.min(np.linalg.eigvalsh(ak)) >= -1e-9 * norm:
            hits += 1
    assert est.n_positive == hits


@pytest.mark.parametrize("d", [2, 3])
def test_ginoe_covariance_structure(d):
    n = 100_000 if d == 2 else 30_000
    report = ginoe_induced_a_covariance(d, n_samples=n, seed=404)
    assert report.passed
    assert report.max_deviation_in_stderr <= 5.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ginoe_covariance_identity_is_exact(d):
    # a = z @ M with z ~ N(0, I), so E[a_mn a_pq] is (M^T M)[mn, pq] exactly
    basis = generate_gell_mann(d)
    j = basis.J
    m = _rates_matrix(basis)
    ft = basis.traceless
    eye = np.eye(j)
    paper = np.einsum("mq,np->mnpq", eye, eye)
    paper = paper - np.einsum("pab,qbc,mcd,nda->mnpq", ft, ft, ft, ft, optimize=True) / d
    err = np.max(np.abs((m.T @ m).reshape(j, j, j, j) - paper))
    assert err <= 1e-12


@pytest.mark.parametrize("j", [1, 2, 3])
def test_gue_covariance_identity_is_exact(j):
    # a = z @ M with z ~ N(0, I), so E[a_mn a_pq] = (M^T M)[mn, pq] is (1/2) delta_mq delta_np
    m = _gue_matrix(j)
    eye = np.eye(j)
    assert np.max(np.abs((m.T @ m).reshape(j, j, j, j) - 0.5 * np.einsum("mq,np->mnpq", eye, eye))) <= 1e-15


def test_ginoe_covariance_rejects_dimension_one():
    with pytest.raises(ValueError, match="GinOE needs dimension d >= 2"):
        ginoe_induced_a_covariance(1, n_samples=10, seed=0)


@pytest.mark.parametrize("experiment", [estimate_p_lindblad_ginoe, ginoe_induced_a_covariance])
def test_ginoe_rejects_a_basis_of_another_dimension(experiment):
    with pytest.raises(ValueError, match=r"^basis has dimension 3, but d = 2$"):
        experiment(2, 10, 0, basis=generate_gell_mann(3))
    assert experiment(2, 10, 0, basis=generate_gell_mann(2)) == experiment(2, 10, 0)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
@pytest.mark.parametrize("experiment", [estimate_p_lindblad_ginoe, estimate_p_gue, ginoe_induced_a_covariance])
def test_experiments_reject_a_seed_that_is_not_a_philox_key(experiment, seed):
    # a float seed used to be truncated, and -1 or 2**64 raised OverflowError
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\^64\), got "):
        experiment(3, 10, seed)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (estimate_p_gue, (2.0, 100, 1), "GUE needs size j >= 1 (an integer), got 2.0"),
        (estimate_p_lindblad_ginoe, (2, 2.5, 1), "the sample count must be an integer >= 1, got 2.5"),
        (estimate_p_lindblad_ginoe, (2.0, 100, 1), "GinOE needs dimension d >= 2 (an integer), got 2.0"),
        (ginoe_induced_a_covariance, (3, 2.5, 1), "the sample count must be an integer >= 2, got 2.5"),
        (gue_p_analytic, (2.0,), "the analytic GUE value is implemented for integer sizes 1 to 8, got 2.0"),
        (wilson_interval, (0.5, 2), "a count must be an integer, got 0.5"),
        (estimate_p_lindblad_ginoe, (2, True, 1), "the sample count must be an integer >= 1, got True"),
    ],
    ids=["gue-size", "ginoe-samples", "ginoe-dim", "covariance-samples", "gue-analytic", "wilson-count", "bool"],
)
def test_rarity_rejects_a_size_count_or_seed_that_is_not_an_integer(call, args, message):
    # these used to raise TypeError from inside numpy or range, or to return a result
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)


def test_rarity_accepts_numpy_integers():
    est = estimate_p_lindblad_ginoe(np.int64(2), np.int64(100), np.uint64(7))
    assert est == estimate_p_lindblad_ginoe(2, 100, 7)
    assert type(est.n_samples) is int
    assert gue_p_analytic(np.int32(2)) == gue_p_analytic(2)


def test_gue_covariance_structure():
    report = gue_covariance_check(3, n_samples=50_000, seed=505)
    assert report.passed
    assert report.max_deviation_in_stderr <= 5.0


def test_probability_decreases_with_dimension():
    p2 = estimate_p_lindblad_ginoe(2, n_samples=30_000, seed=606).p_hat
    p3 = estimate_p_lindblad_ginoe(3, n_samples=30_000, seed=606).p_hat
    assert p3 < p2


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ginoe_counts_equal_per_sample_oracle(d):
    # one fresh stream and one inverse map per sample, and every eigensolve, with no pruning
    basis = generate_gell_mann(d)
    pairs = [sample_ginoe_pair(d, _stream(_BIG_SEED, k)) for k in range(_N_ACROSS)]
    gs = np.array([p.G for p in pairs])
    a = np.array([inverse_map(p, basis).rates for p in pairs])
    eigs = np.linalg.eigvalsh(a)
    n_psd = int(np.sum(eigs[:, 0] >= -1e-9 * np.maximum(1.0, np.abs(eigs).max(axis=1))))
    n_stable = int(np.sum(np.linalg.eigvals(gs).real.max(axis=1) <= 1e-9))
    est = estimate_p_lindblad_ginoe(d, n_samples=_N_ACROSS, seed=_BIG_SEED)
    assert (est.n_positive, est.n_spectrum_stable) == (n_psd, n_stable)
    # the re-keyed sampler reproduces the per-sample streams bit for bit
    j = basis.J
    np.testing.assert_array_equal(_normals(_BIG_SEED, 0, _N_ACROSS, j * j + j)[:, : j * j].reshape(-1, j, j), gs)


def test_normals_fill_a_given_buffer_on_a_partial_last_chunk():
    width = 15 * 15 + 15
    buffer = np.full((_CHUNK, width), np.nan)
    rows = _normals(_BIG_SEED, 2 * _CHUNK, 37, width, buffer)
    assert rows.shape == (37, width) and np.shares_memory(rows, buffer)
    assert rows.tobytes() == _normals(_BIG_SEED, 2 * _CHUNK, 37, width).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rates_matrix_equals_the_all_at_once_build(d):
    basis = generate_gell_mann(d)
    m = _rates_matrix(basis)
    oracle = rates_matrix_all_at_once(basis)
    assert m.dtype == oracle.dtype and m.shape == oracle.shape
    assert m.tobytes() == oracle.tobytes()


def _stable_spectrum_block(rng, j):
    """Real block-diagonal matrix whose eigenvalues all have Re <= 0, often exactly 0."""
    b = np.zeros((j, j))
    k = 0
    while k < j:
        kind = rng.integers(4) if k + 1 < j else rng.integers(2)
        if kind == 0:  # eigenvalue exactly 0
            k += 1
        elif kind == 1:
            b[k, k] = -rng.exponential()
            k += 1
        elif kind == 2:  # eigenvalues Re(mu) +- i w, Re(mu) = 0 or < 0
            w = rng.normal()
            b[k : k + 2, k : k + 2] = [[0.0, w], [-w, 0.0]]
            b[k : k + 2, k : k + 2] -= rng.choice([0.0, rng.exponential()]) * np.eye(2)
            k += 2
        else:  # nilpotent Jordan block: a double eigenvalue 0
            b[k, k + 1] = rng.normal()
            k += 2
    return b


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stability_prune_keeps_every_stable_matrix(d):
    # stable samples are too rare at d >= 3 for the oracle test to catch over-pruning
    j = d * d - 1
    rng = np.random.default_rng(500 + d)
    gs = []
    for k in range(300):
        x = rng.normal(size=(j, j))
        if k % 2:
            x = np.linalg.qr(x)[0]
        scale = [1e-3, 1.0, 1e3][k % 3]
        # max Re lambda(G) is exactly _PSD_TOL whenever the block has a Re 0 eigenvalue
        gs.append(scale * x @ _stable_spectrum_block(rng, j) @ np.linalg.inv(x) + _PSD_TOL * np.eye(j))
    gs.append(np.zeros((j, j)))
    gs.append(_PSD_TOL * np.eye(j))
    assert _stable_candidates(np.array(gs), _PSD_TOL).all()
    # tr G < 0, yet the second coefficient is negative: an unstable G is pruned
    unstable = np.diag(np.r_[1.0, -2.0, np.zeros(j - 2)])
    assert not _stable_candidates(unstable[None], _PSD_TOL)[0]


def _imaginary_axis_block(rng, j):
    """Real block-diagonal matrix whose eigenvalues all have Re exactly 0, so c_1 = c_3 = Delta_2 = 0."""
    b = np.zeros((j, j))
    for k in range(0, j - 1, 2):
        w = rng.normal()
        b[k : k + 2, k : k + 2] = [[0.0, w], [-w, 0.0]]
    return b


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stability_prune_keeps_spectra_on_the_imaginary_axis(d):
    # the odd coefficients and Delta_2 are exactly 0 here, so only the margins keep these samples
    j = d * d - 1
    rng = np.random.default_rng(800 + d)
    gs = []
    for k in range(60):
        q = np.linalg.qr(rng.normal(size=(j, j)))[0]
        scale = [1e-3, 1.0, 1e3][k % 3]
        gs.append(scale * q @ _imaginary_axis_block(rng, j) @ q.T + _PSD_TOL * np.eye(j))
    # as in the test above, max Re lambda(G) is _PSD_TOL up to the rounding of the product
    assert _stable_candidates(np.array(gs), _PSD_TOL).all()


def _real_matrix_with_spectrum(rng, j, spectrum):
    """Q B Q^T, B block-diagonal: each real eigenvalue on the diagonal, each pair s +- iw as [[s, w], [-w, s]]."""
    b = np.zeros((j, j))
    k = 0
    for lam in spectrum:
        if lam.imag > 0:
            b[k : k + 2, k : k + 2] = [[lam.real, lam.imag], [-lam.imag, lam.real]]
            k += 2
        elif lam.imag == 0:
            b[k, k] = lam.real
            k += 1
    q = np.linalg.qr(rng.normal(size=(j, j)))[0]
    return q @ b @ q.T


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize(
    "spectrum, failing",
    [((0.5, -2.0, -2.0), "c3"), ((0.5 + 2j, 0.5 - 2j, -3.0), "delta2")],
    ids=["c3", "delta2"],
)
def test_stability_prune_rejects_by_each_new_condition(d, spectrum, failing):
    # an unstable G that only one condition rejects: c_3 < 0 with c_1, c_2, c_4 >= 0 and Delta_2 >= 0,
    # or Delta_2 = c_1 c_2 - c_3 < 0 with every c_k >= 0
    j = d * d - 1
    spectrum = np.array(spectrum, dtype=complex)
    c = np.poly(np.r_[spectrum, np.zeros(j - 3)]).real
    delta2 = c[1] * c[2] - c[3]
    checks = {"c1": c[1], "c2": c[2], "c3": c[3], "c4": c[4] if j >= 4 else 0.0, "delta2": delta2}
    assert checks.pop(failing) < 0
    assert min(checks.values()) >= 0
    g = _real_matrix_with_spectrum(np.random.default_rng(900 + d), j, spectrum) + _PSD_TOL * np.eye(j)
    assert np.linalg.eigvals(g).real.max() > 0.4
    assert not _stable_candidates(g[None], _PSD_TOL)[0]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stability_cascade_refines_the_degree4_prefilter(d):
    # on real chunks: every row eigvals finds stable is kept, and nothing the all-at-once
    # c_1..c_4, Delta_2 prefilter drops; at d >= 3 the degree-6 stage prunes more
    j = d * d - 1
    for seed in (12, 404, 2**64 - 1):
        gs = _normals(seed, 0, 4096, j * j + j)[:, : j * j].reshape(-1, j, j)
        cascade = _stable_candidates(gs, _PSD_TOL)
        oracle = stable_candidates_degree4(gs, _PSD_TOL)
        stable = np.linalg.eigvals(gs).real.max(axis=1) <= _PSD_TOL
        assert not (cascade & ~oracle).any()
        assert not (stable & ~cascade).any()
        if d >= 3:
            assert cascade.sum() < oracle.sum() / 2


@pytest.mark.parametrize("j", [4, 8, 15])
def test_stability_prune_keeps_a_spectrum_whose_delta3_is_zero(j):
    # (s^2 + 4)(s + 1)(s + 3) s^(J-4): c = 4, 7, 16, 12, 0, 0, so Delta_3 = 448 - 192 - 256 = 0 exactly
    # while c_1..c_4 and Delta_2 = 12 are positive; only the margin of Delta_3 keeps these samples
    c1, c2, c3, c4 = 4, 7, 16, 12
    assert c1 * c2 * c3 - c1**2 * c4 - c3**2 == 0 and c1 * c2 - c3 > 0
    rng = np.random.default_rng(1000 + j)
    gs = [
        scale * _real_matrix_with_spectrum(rng, j, np.array([2j, -2j, -1.0, -3.0])) + _PSD_TOL * np.eye(j)
        for scale in (1e-3, 1.0, 1e3)
        for _ in range(10)
    ]
    assert _stable_candidates(np.array(gs), _PSD_TOL).all()


@pytest.mark.parametrize("j", [4, 8, 15])
def test_stability_prune_rejects_by_delta3(j):
    # an unstable G that only Delta_3 rejects: every c_k >= 0 and Delta_2 >= 0, so the degree-4 prefilter keeps it
    spectrum = np.array([0.1 + 2j, 0.1 - 2j, -1.0, -3.0])
    c = np.r_[np.poly(spectrum).real, 0.0, 0.0]
    assert min(c[1:7]) >= 0 and c[1] * c[2] - c[3] > 0
    assert c[1] * c[2] * c[3] - c[1] ** 2 * c[4] - c[3] ** 2 + c[1] * c[5] < -40
    g = _real_matrix_with_spectrum(np.random.default_rng(1100 + j), j, spectrum) + _PSD_TOL * np.eye(j)
    assert np.linalg.eigvals(g).real.max() > 0.09
    assert stable_candidates_degree4(g[None], _PSD_TOL)[0]
    assert not _stable_candidates(g[None], _PSD_TOL)[0]


def _row_of(a, basis):
    """The Philox row [vec G, sqrt(d) c] whose rate matrix is a (with H = 0)."""
    pair = forward_map(MasterEqParams(np.zeros((basis.dim, basis.dim)), a), basis)
    return np.r_[pair.G.ravel(), np.sqrt(basis.dim) * pair.c]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_psd_prefilter_keeps_every_psd_rate_matrix(d):
    basis = generate_gell_mann(d)
    j = basis.J
    m = _rates_matrix(basis)
    rng = np.random.default_rng(700 + d)
    rows = []
    for k in range(30):
        scale = [1e-3, 1.0, 1e3][k % 3]
        # rank below J: exact zero eigenvalues
        b = rng.normal(size=(j, j - 1 - k % 2)) + 1j * rng.normal(size=(j, j - 1 - k % 2))
        p = b @ b.conj().T
        rows.append(_row_of(scale * p / np.linalg.norm(p, 2), basis))
        # at the edge of tolerance.is_psd, with a unit vector as the negative eigenvector: Re a_mm = lambda_min
        mm = k % j
        b[mm] = 0.0
        p = b @ b.conj().T
        edge = scale * p / np.linalg.norm(p, 2)
        edge[mm, mm] = -(15 / 16) * _PSD_TOL * max(1.0, scale)
        rows.append(_row_of(edge, basis))
    rows = np.array(rows)
    assert _psd_candidates(rows, *_diagonal_bound(m), _PSD_TOL).all()
    assert _count_psd(rows, m, *_diagonal_bound(m), _PSD_TOL) == len(rows)
    # -a of a PSD a of rank >= 1 has a negative diagonal entry
    assert not _psd_candidates(-rows, *_diagonal_bound(m), _PSD_TOL).any()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_psd_prefilter_keeps_every_row_at_rtol_one(d):
    # is_psd at rtol 1 accepts every spectrum, so the bound on ||a||_F must cover min Re a_mm of every row;
    # the row along a diagonal column of M, or along its vec G or sqrt(d) c part alone, makes that entry
    # as negative as a row of its norm can
    j = d * d - 1
    m = _rates_matrix(generate_gell_mann(d))
    cols = -m[:, :: j + 1].real.T
    g_part, c_part = cols.copy(), cols.copy()
    g_part[:, j * j :] = 0.0
    c_part[:, : j * j] = 0.0
    unit = np.concatenate([cols, g_part, c_part, np.random.default_rng(d).normal(size=(50, j * j + j))])
    rows = np.concatenate([s * unit for s in (1e-3, 1.0, 1e3)])
    assert is_psd(np.linalg.eigvalsh(_rates(rows, m)), 1.0).all()
    assert _psd_candidates(rows, *_diagonal_bound(m), 1.0).all()


# (n_positive, n_spectrum_stable) recorded before the Routh-Hurwitz and diagonal prefilters
_PINNED_GINOE = {
    (2, 20_000, 12): (5, 2091),
    (2, 20_000, 404): (9, 2054),
    (2, 20_000, 2**64 - 1): (5, 2126),
    (3, 10_000, 12): (0, 3),
    (3, 10_000, 20230118): (0, 4),
    (3, 10_000, 2**64 - 1): (0, 2),
    (4, 8192, 3): (0, 0),
    (4, 8192, 404): (0, 0),
    (4, 8192, 2**63 + 11): (0, 0),
}


@pytest.mark.parametrize("d, n, seed", list(_PINNED_GINOE))
def test_ginoe_counts_pinned(d, n, seed):
    est = estimate_p_lindblad_ginoe(d, n_samples=n, seed=seed)
    assert (est.n_positive, est.n_spectrum_stable) == _PINNED_GINOE[d, n, seed]


# n_positive of estimate_p_gue(j, n, seed), recorded with the per-matrix sampler (A + A^dag)/2
_PINNED_GUE = {
    (2, 20_000, 0): 1788,
    (2, 20_000, 202): 1794,
    (2, 20_000, 2**64 - 1): 1827,
    (3, 20_000, 0): 131,
    (3, 20_000, 202): 119,
    (3, 20_000, 2**64 - 1): 93,
    (4, 20_000, 0): 2,
    (4, 20_000, 202): 1,
    (4, 20_000, 2**64 - 1): 0,
}


@pytest.mark.parametrize("j, n, seed", list(_PINNED_GUE))
def test_gue_counts_pinned(j, n, seed):
    assert estimate_p_gue(j, n_samples=n, seed=seed).n_positive == _PINNED_GUE[j, n, seed]


@pytest.mark.parametrize("j", [1, 2, 8])
def test_gue_batch_equals_per_sample_streams(j):
    start = _CHUNK - 5
    rows = _normals(_BIG_SEED, start, 40, 2 * j * j)
    streams = [_stream(_BIG_SEED, start + k) for k in range(40)]
    np.testing.assert_array_equal(rows, [s.standard_normal(2 * j * j) for s in streams])
    # a = z @ M rounds each off-diagonal entry as one BLAS product, sample_gue as (A + A^dag)/2;
    # the diagonal is the one exact product sqrt(1/2) X_mm in both
    a = _rates(rows, _gue_matrix(j))
    ref = np.array([sample_gue(j, _stream(_BIG_SEED, start + k)) for k in range(40)])
    assert np.max(np.abs(a - ref)) <= 2 * np.finfo(float).eps * np.max(np.abs(ref))
    np.testing.assert_array_equal(np.diagonal(a, axis1=1, axis2=2), np.diagonal(ref, axis1=1, axis2=2))
    oracle = np.stack([sample_gue(j, _stream(_BIG_SEED, k)) for k in range(_N_ACROSS)])
    n_psd = int(np.sum(np.linalg.eigvalsh(oracle)[:, 0] >= 0.0))
    assert estimate_p_gue(j, n_samples=_N_ACROSS, seed=_BIG_SEED).n_positive == n_psd


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [4, 5])
def test_estimate_memory_is_one_chunk_of_rows_and_m(d):
    # one row buffer serves every chunk, the last one partial, and M is built J rows at a time
    j = d * d - 1
    chunk_bytes = _CHUNK * (j * j + j) * np.dtype(float).itemsize
    m_bytes = _rates_matrix(generate_gell_mann(d)).nbytes
    estimate_p_lindblad_ginoe(d, n_samples=1, seed=8)  # the first call imports numpy.random, which stays
    peak = _peak_bytes(lambda: estimate_p_lindblad_ginoe(d, n_samples=3 * _CHUNK + 5, seed=8))
    assert peak <= 1.6 * (chunk_bytes + m_bytes)


def test_covariance_memory_does_not_grow_with_samples():
    one = _peak_bytes(lambda: ginoe_induced_a_covariance(3, n_samples=_CHUNK, seed=8))
    three = _peak_bytes(lambda: ginoe_induced_a_covariance(3, n_samples=3 * _CHUNK, seed=8))
    assert three <= 1.2 * one
