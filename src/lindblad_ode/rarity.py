"""Monte Carlo experiments on the rarity of completely positive generators:
sample (G, c) from the Ginibre orthogonal ensemble or rate matrices from the
Gaussian unitary ensemble, estimate the probability of positive
semidefiniteness, and verify the induced covariance identities.

Reproducibility: every sample draws from its own counter-based Philox stream
keyed by (seed, sample_index), so counts are identical regardless of chunking
or parallelism. Gaussian variates come from numpy's standard_normal (ziggurat);
bit-equality is promised per build, seed-determinism always.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import NiceBasis, generate_gell_mann
from .forward import OdePair

_CHUNK = 4096
_PSD_TOL = 1e-9


@dataclass(frozen=True)
class RarityEstimate:
    """Monte Carlo estimate of a positivity probability with a Wilson CI."""

    ensemble: str
    dim_d: int
    n_samples: int
    n_positive: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int
    n_spectrum_stable: int | None = None


@dataclass(frozen=True)
class CovarianceReport:
    """Empirical vs analytic second moments of sampled rate matrices."""

    ensemble: str
    n_samples: int
    max_abs_deviation: float
    max_deviation_in_stderr: float
    passed: bool


def wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one sample")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # clamp so the interval always contains the point estimate despite rounding
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def sample_ginoe_pair(d: int, rng: np.random.Generator) -> OdePair:
    """G entries i.i.d. N(0,1); sqrt(d)*c entries i.i.d. N(0,1)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    j = d * d - 1
    g = rng.standard_normal((j, j))
    c = rng.standard_normal(j) / np.sqrt(d)
    return OdePair(G=g, c=c)


def sample_gue(j: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian a = (A + A^dag)/2 with A entries' re/im parts ~ N(0, 1/2)."""
    if j < 1:
        raise ValueError("matrix size must be at least 1")
    scale = np.sqrt(0.5)
    a = scale * (rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j)))
    return (a + a.conj().T) / 2


def _ginoe_batch(d: int, seed: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    j = d * d - 1
    gs = np.empty((count, j, j))
    cs = np.empty((count, j))
    for k in range(count):
        rng = _stream(seed, start + k)
        gs[k] = rng.standard_normal((j, j))
        cs[k] = rng.standard_normal(j) / np.sqrt(d)
    return gs, cs


def _a_from_gc_tensors(basis: NiceBasis) -> tuple[np.ndarray, np.ndarray]:
    """Linearization of (G, c) -> a: a_mn = G_ij W[i,j,m,n] + c_i U[i,m,n]."""
    ft = basis.traceless
    w = np.einsum("jab,mbc,icd,nda->ijmn", ft, ft, ft, ft, optimize=True)
    u = np.einsum("mab,ibc,nca->imn", ft, ft, ft, optimize=True)
    return w, u


def estimate_p_lindblad_ginoe(
    d: int, n_samples: int, seed: int, basis: NiceBasis | None = None
) -> RarityEstimate:
    """Fraction of GinOE pairs (G, c) whose recovered rate matrix is PSD.

    Also counts pairs whose G spectrum is stable (all real parts <= 0); the
    PSD count never exceeds the stable count.
    """
    if d < 2:
        raise ValueError(f"GinOE needs dimension d >= 2, got {d}")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    basis = basis or generate_gell_mann(d)
    w, u = _a_from_gc_tensors(basis)
    n_psd = 0
    n_stable = 0
    for start in range(0, n_samples, _CHUNK):
        count = min(_CHUNK, n_samples - start)
        gs, cs = _ginoe_batch(d, seed, start, count)
        a = np.einsum("sij,ijmn->smn", gs, w, optimize=True)
        a += np.einsum("si,imn->smn", cs, u, optimize=True)
        eigs = np.linalg.eigvalsh(a)
        min_eig = eigs[:, 0]
        norm = np.abs(eigs).max(axis=1)
        n_psd += int(np.sum(min_eig >= -_PSD_TOL * np.maximum(1.0, norm)))
        max_re = np.linalg.eigvals(gs).real.max(axis=1)
        n_stable += int(np.sum(max_re <= _PSD_TOL))
    lo, hi = wilson_interval(n_psd, n_samples)
    return RarityEstimate(
        ensemble="GinOE",
        dim_d=d,
        n_samples=n_samples,
        n_positive=n_psd,
        p_hat=n_psd / n_samples,
        ci_low=lo,
        ci_high=hi,
        seed=seed,
        n_spectrum_stable=n_stable,
    )


def estimate_p_gue(j: int, n_samples: int, seed: int) -> RarityEstimate:
    """Fraction of GUE matrices of size j that are positive semidefinite."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    n_psd = 0
    for start in range(0, n_samples, _CHUNK):
        count = min(_CHUNK, n_samples - start)
        batch = np.empty((count, j, j), dtype=complex)
        for k in range(count):
            batch[k] = sample_gue(j, _stream(seed, start + k))
        min_eig = np.linalg.eigvalsh(batch)[:, 0]
        n_psd += int(np.sum(min_eig >= 0.0))
    lo, hi = wilson_interval(n_psd, n_samples)
    return RarityEstimate(
        ensemble="GUE",
        dim_d=j,
        n_samples=n_samples,
        n_positive=n_psd,
        p_hat=n_psd / n_samples,
        ci_low=lo,
        ci_high=hi,
        seed=seed,
    )


def gue_p_analytic(j: int) -> float:
    """Exact PSD probability for GUE sizes 1 and 2.

    For j=1 the scalar is symmetric around zero; for j=2 integrating the
    joint eigenvalue density exp(-l1^2-l2^2)(l1-l2)^2 over the positive
    quadrant gives 1/4 - 1/(2 pi).
    """
    if j == 1:
        return 0.5
    if j == 2:
        return 0.25 - 1.0 / (2.0 * np.pi)
    raise ValueError("closed form implemented only for sizes 1 and 2")


def _second_moment_report(
    ensemble: str, samples: np.ndarray, analytic: np.ndarray
) -> CovarianceReport:
    n = samples.shape[0]
    prod = np.einsum("smn,skl->smnkl", samples, samples)
    emp = prod.mean(axis=0)
    stderr = prod.std(axis=0, ddof=1) / np.sqrt(n)
    dev = np.abs(emp - analytic)
    stderr = np.maximum(stderr, 1e-300)
    ratio = dev / stderr
    return CovarianceReport(
        ensemble=ensemble,
        n_samples=n,
        max_abs_deviation=float(dev.max()),
        max_deviation_in_stderr=float(ratio.max()),
        passed=bool(ratio.max() <= 5.0),
    )


def ginoe_induced_a_covariance(
    d: int, n_samples: int, seed: int, basis: NiceBasis | None = None
) -> CovarianceReport:
    """Compare E(a_mn a_m'n') of GinOE-induced rate matrices against
    delta_mn' delta_nm' - (1/d) Tr(F_m' F_n' F_m F_n)."""
    basis = basis or generate_gell_mann(d)
    j = basis.J
    w, u = _a_from_gc_tensors(basis)
    chunks = []
    for start in range(0, n_samples, _CHUNK):
        count = min(_CHUNK, n_samples - start)
        gs, cs = _ginoe_batch(d, seed, start, count)
        a = np.einsum("sij,ijmn->smn", gs, w, optimize=True)
        a += np.einsum("si,imn->smn", cs, u, optimize=True)
        chunks.append(a)
    samples = np.concatenate(chunks)
    ft = basis.traceless
    eye = np.eye(j)
    delta_term = np.einsum("mq,np->mnpq", eye, eye)
    trace_term = np.einsum("pab,qbc,mcd,nda->mnpq", ft, ft, ft, ft, optimize=True)
    analytic = delta_term - trace_term / d
    return _second_moment_report("GinOE", samples, analytic)


def gue_covariance_check(j: int, n_samples: int, seed: int) -> CovarianceReport:
    """Compare E(a_mn a_m'n') of GUE samples against (1/2) delta_mn' delta_nm'."""
    chunks = []
    for start in range(0, n_samples, _CHUNK):
        count = min(_CHUNK, n_samples - start)
        batch = np.empty((count, j, j), dtype=complex)
        for k in range(count):
            batch[k] = sample_gue(j, _stream(seed, start + k))
        chunks.append(batch)
    samples = np.concatenate(chunks)
    eye = np.eye(j)
    analytic = 0.5 * np.einsum("mq,np->mnpq", eye, eye)
    return _second_moment_report("GUE", samples, analytic)
