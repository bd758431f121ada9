"""Monte Carlo experiments on the rarity of completely positive generators:
sample (G, c) from the Ginibre orthogonal ensemble or rate matrices from the
Gaussian unitary ensemble, estimate the probability of positive
semidefiniteness, and verify the induced covariance identities.

Reproducibility: every sample draws from its own counter-based Philox stream
keyed by (seed, sample_index), so counts are identical regardless of chunking
or parallelism. Gaussian variates come from numpy's standard_normal (ziggurat);
bit-equality is promised per build, seed-determinism always.

Work is done in chunks of _CHUNK samples:

- Sampling. A Philox stream is defined by its key alone (Salmon et al.,
  SC'11), so a chunk builds one Philox and re-keys it for each sample
  through its public state: key [seed, index], counter 0, empty buffer.
  The row it fills equals _stream(seed, index).standard_normal(width) bit
  for bit; _stream and the per-sample samplers stay as the reference.
- Pruning. The eigensolvers run only on samples that can be counted. By
  the Rayleigh bound a Hermitian a has lambda_min <= min_m Re a_mm, and its
  largest |eigenvalue| is at most ||a||_F, so a PSD sample (lambda_min >=
  -tol max(1, max|lambda|)) has min_m Re a_mm >= -tol max(1, ||a||_F).
  The eigenvalues of G sum to tr G, so a stable sample (max Re lambda <=
  tol) has tr G <= J tol. With H = G - tol I, the characteristic polynomial
  of a real H whose eigenvalues all have Re <= 0 is a product of factors
  s + |mu| and s^2 - 2 Re(mu) s + |mu|^2, so all its coefficients are >= 0;
  the second (Routh-Hurwitz) one is ((tr H)^2 - tr(H^2)) / 2. Each
  condition is widened by MARGIN (1 + ||.||_F), the quadratic one by
  MARGIN (1 + ||H||_F^2), with tolerance.MARGIN = 1e-10 far above the
  eigensolvers' backward error (of order J eps ||.||), so a sample that fails
  it would not have been counted. The PSD verdict itself is tolerance.is_psd
  with rtol tolerance.DATA, the one check_lindblad uses by default.
- Moments. The covariance checks keep only two running sums over samples,
  S1 = sum x x^T and S2 = sum |x|^2 (|x|^2)^T with x = vec(a). The mean of
  a_mn a_kl is S1/n and its sample variance (S2 - n |S1/n|^2) / (n - 1), so
  memory does not depend on the number of samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, tolerance
from .basis import NiceBasis, generate_gell_mann
from .forward import OdePair

_CHUNK = 4096


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


def _normals(seed: int, start: int, count: int, width: int) -> np.ndarray:
    """Row k holds the first width normals of the stream (seed, start + k)."""
    key = np.array([seed, start], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty((count, width))
    for k, row in enumerate(out):
        key[1] = start + k
        bitgen.state = state
        rng.standard_normal(out=row)
    return out


def _rates_matrix(basis: NiceBasis) -> np.ndarray:
    """M with vec a(G, c) = [vec G, sqrt(d) c] @ M, from the core rates of each unit row.

    A unit row sets one entry of Lhat[1:]: G_ij = Lhat[1+i, 1+j] or
    sqrt(d) c_i = Lhat[1+i, 0], in the order a GinOE stream draws them.
    """
    j = basis.J
    units = np.eye(j * j + j)
    lhat = np.zeros((len(units), j + 1, j + 1))
    lhat[:, 1:, 1:] = units[:, : j * j].reshape(-1, j, j)
    lhat[:, 1:, 0] = units[:, j * j :]
    return core.rates(core.from_coordinates(lhat, basis), basis).reshape(len(units), j * j)


def _ginoe_batch(d: int, seed: int, start: int, count: int, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G of each sample and its rate matrix a(G, c); a stream holds vec G then sqrt(d) c."""
    j = d * d - 1
    rows = _normals(seed, start, count, j * j + j)
    return rows[:, : j * j].reshape(count, j, j), (rows @ m).reshape(count, j, j)


def _gue_batch(j: int, seed: int, start: int, count: int) -> np.ndarray:
    """Stacked sample_gue(j, _stream(seed, start + k)): real parts then imaginary parts."""
    if j < 1:
        raise ValueError("matrix size must be at least 1")
    rows = _normals(seed, start, count, 2 * j * j).reshape(count, 2, j, j)
    a = np.sqrt(0.5) * (rows[:, 0] + 1j * rows[:, 1])
    return (a + a.conj().transpose(0, 2, 1)) / 2


def _count_psd(a: np.ndarray, tol: float) -> int:
    """Samples that tolerance.is_psd accepts at rtol tol; eigvalsh runs on candidates only."""
    fro = np.linalg.norm(a, axis=(1, 2))
    min_diag = np.diagonal(a, axis1=1, axis2=2).real.min(axis=1)
    cand = min_diag >= -tolerance.bound(fro, tol) - tolerance.MARGIN * (1.0 + fro)
    return int(np.sum(tolerance.is_psd(np.linalg.eigvalsh(a[cand]), tol)))


def _stable_candidates(gs: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the samples that pass both necessary conditions for max Re lambda(G) <= tol."""
    j = gs.shape[-1]
    fro = np.linalg.norm(gs, axis=(1, 2))
    first = np.trace(gs, axis1=1, axis2=2) <= j * tol + tolerance.MARGIN * (1.0 + fro)
    h = gs - tol * np.eye(j)
    tr_h = np.trace(h, axis1=1, axis2=2)
    fro_h = np.linalg.norm(h, axis=(1, 2))
    second = tr_h * tr_h - np.einsum("sij,sji->s", h, h) >= -tolerance.MARGIN * (1.0 + fro_h * fro_h)
    return first & second


def _count_stable(gs: np.ndarray, tol: float) -> int:
    """Samples whose G has max Re lambda <= tol; eigvals runs on candidates only."""
    cand = _stable_candidates(gs, tol)
    return int(np.sum(np.linalg.eigvals(gs[cand]).real.max(axis=1) <= tol))


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
    m = _rates_matrix(basis)
    n_psd = 0
    n_stable = 0
    for start in range(0, n_samples, _CHUNK):
        gs, a = _ginoe_batch(d, seed, start, min(_CHUNK, n_samples - start), m)
        n_psd += _count_psd(a, tolerance.DATA)
        n_stable += _count_stable(gs, tolerance.DATA)
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
        n_psd += _count_psd(_gue_batch(j, seed, start, min(_CHUNK, n_samples - start)), 0.0)
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


def _add_moments(s1: np.ndarray, s2: np.ndarray, samples: np.ndarray) -> None:
    """Add one chunk to S1 and S2; its arrays are freed before the next chunk is drawn."""
    x = samples.reshape(len(samples), -1)
    s1 += x.T @ x
    sq = np.abs(x) ** 2
    s2 += sq.T @ sq


def _second_moment_report(ensemble: str, n: int, batch, analytic: np.ndarray) -> CovarianceReport:
    """Compare the mean of a_mn a_kl with analytic[m, n, k, l], in units of its standard error.

    batch(start, count) returns the rate matrices of samples start..start+count-1.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    size = analytic.shape[0] * analytic.shape[1]
    s1 = np.zeros((size, size), dtype=complex)
    s2 = np.zeros((size, size))
    for start in range(0, n, _CHUNK):
        _add_moments(s1, s2, batch(start, min(_CHUNK, n - start)))
    emp = (s1 / n).reshape(analytic.shape)
    var = (s2 - n * np.abs(s1 / n) ** 2) / (n - 1)
    stderr = np.sqrt(np.maximum(var, 0.0) / n).reshape(analytic.shape)
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
    if d < 2:
        raise ValueError(f"GinOE needs dimension d >= 2, got {d}")
    basis = basis or generate_gell_mann(d)
    j = basis.J
    m = _rates_matrix(basis)
    ft = basis.traceless
    eye = np.eye(j)
    delta_term = np.einsum("mq,np->mnpq", eye, eye)
    trace_term = np.einsum("pab,qbc,mcd,nda->mnpq", ft, ft, ft, ft, optimize=True)
    analytic = delta_term - trace_term / d
    return _second_moment_report(
        "GinOE", n_samples, lambda start, count: _ginoe_batch(d, seed, start, count, m)[1], analytic
    )


def gue_covariance_check(j: int, n_samples: int, seed: int) -> CovarianceReport:
    """Compare E(a_mn a_m'n') of GUE samples against (1/2) delta_mn' delta_nm'."""
    eye = np.eye(j)
    analytic = 0.5 * np.einsum("mq,np->mnpq", eye, eye)
    return _second_moment_report(
        "GUE", n_samples, lambda start, count: _gue_batch(j, seed, start, count), analytic
    )
