import tracemalloc

import numpy as np
import pytest

from lindblad_ode import (
    estimate_p_gue,
    estimate_p_lindblad_ginoe,
    ginoe_induced_a_covariance,
    gue_covariance_check,
    gue_p_analytic,
    inverse_map,
    sample_ginoe_pair,
    sample_gue,
    wilson_interval,
)
from lindblad_ode.basis import generate_gell_mann
from lindblad_ode.rarity import _CHUNK, _ginoe_batch, _gue_batch, _rates_matrix, _stable_candidates, _stream
from lindblad_ode.tolerance import DATA as _PSD_TOL

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
    assert gue_p_analytic(1) == pytest.approx(0.5)
    assert gue_p_analytic(2) == pytest.approx(0.25 - 1.0 / (2 * np.pi))
    with pytest.raises(ValueError):
        gue_p_analytic(3)


@pytest.mark.parametrize("J", [1, 2])
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


def test_ginoe_covariance_rejects_dimension_one():
    with pytest.raises(ValueError, match="GinOE needs dimension d >= 2"):
        ginoe_induced_a_covariance(1, n_samples=10, seed=0)


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
    np.testing.assert_array_equal(_ginoe_batch(d, _BIG_SEED, 0, _N_ACROSS, _rates_matrix(basis))[0], gs)


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


@pytest.mark.parametrize("j", [1, 2, 8])
def test_gue_batch_equals_per_sample_streams(j):
    start = _CHUNK - 5
    batch = _gue_batch(j, _BIG_SEED, start, 40)
    np.testing.assert_array_equal(batch, [sample_gue(j, _stream(_BIG_SEED, start + k)) for k in range(40)])
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


def test_covariance_memory_does_not_grow_with_samples():
    one = _peak_bytes(lambda: ginoe_induced_a_covariance(3, n_samples=_CHUNK, seed=8))
    three = _peak_bytes(lambda: ginoe_induced_a_covariance(3, n_samples=3 * _CHUNK, seed=8))
    assert three <= 1.2 * one
