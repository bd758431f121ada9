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
- Pruning. The eigensolvers run only on samples that can be counted.
  PSD: by the Rayleigh bound a Hermitian a has lambda_min <= min_m Re a_mm,
  and its largest |eigenvalue| is at most ||a||_F, so a PSD sample
  (lambda_min >= -tol max(1, max|lambda|)) has
  min_m Re a_mm >= -tol max(1, ||a||_F). For a = z @ M with z the Philox
  row, the diagonal is z @ M[:, ::J+1] and ||a||_F <= B = ||z|| ||M||_F, so
  the test runs on z first with B in place of ||a||_F; a is formed only for
  the rows that pass, and _count_psd repeats the test with ||a||_F before
  the eigensolve.
  Stability: with H = G - tol I, the characteristic polynomial
  det(sI - H) = s^J + c_1 s^(J-1) + ... + c_J of a real H whose eigenvalues
  all have Re <= 0 is a product of factors s + |mu| and
  s^2 - 2 Re(mu) s + |mu|^2, so every c_k >= 0. The Hurwitz determinant
  Delta_2 = c_1 c_2 - c_3 is > 0 when every Re lambda < 0, so by continuity
  (H - eps I, eps -> 0) it is >= 0 when every Re lambda <= 0. One batched
  H @ H gives p_k = tr H^k for k <= 4, and Newton's identities
  k c_k = -(c_(k-1) p_1 + c_(k-2) p_2 + ... + c_0 p_k), c_0 = 1, give c_1..c_4.
  A sample is kept when c_k >= 0 for every k <= min(J, 4) and, for J >= 3,
  Delta_2 >= 0; at J = 3 (d = 2) that is the whole Hurwitz criterion.
- Rounding. Let r = sqrt(J) ||H||_F. Then |p_1| <= r (Cauchy-Schwarz on the
  diagonal) and |tr H^k| <= ||H||_F^k <= r^k (Schur:
  sum |lambda|^2 <= ||H||_F^2), and c_k and Delta_2 are sums of at most five
  products of p_i of total degree k (3 for Delta_2) with coefficients of
  modulus <= 1. eigvals returns the eigenvalues of G + E with ||E|| of order
  J eps ||G||, and each p_i is summed with an error of order i J eps r^i, so a
  degree-k condition computed for a sample that eigvals finds stable is
  within a few hundred J eps r^k of its exact value at G + E, which is >= 0.
  The diagonal z @ M[:, ::J+1] is a sum of J^2 + J products, within
  (J^2 + J) eps B of the diagonal of the a that eigvalsh sees. Each
  condition is therefore widened by MARGIN (1 + r^k), the PSD one by
  MARGIN (1 + B), and tolerance.MARGIN = 1e-10 exceeds those errors up to
  J of several hundred (d of about 20 and more), far beyond the sizes at
  which a Monte Carlo of J x J eigensolves runs; a sample that fails a
  widened condition would not have been counted. The PSD verdict itself is
  tolerance.is_psd with rtol tolerance.DATA, the one check_lindblad uses
  by default.
- Moments. The covariance checks keep only two running sums over samples,
  S1 = sum x x^T and S2 = sum |x|^2 (|x|^2)^T with x = vec(a). The mean of
  a_mn a_kl is S1/n and its sample variance (S2 - n |S1/n|^2) / (n - 1), so
  memory does not depend on the number of samples.
"""
from __future__ import annotations

import math
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
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    key = np.array([seed, start], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    # the state setter reads every entry, about twice as fast from Python ints as from numpy scalars
    key = key.tolist()
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
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


def _rates(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a(G, c) of each Philox row as two real products, so the rows are never cast to complex."""
    a = np.empty((len(rows), m.shape[1]), dtype=complex)
    a.real = rows @ m.real
    a.imag = rows @ m.imag
    j = math.isqrt(m.shape[1])
    return a.reshape(len(rows), j, j)


def _ginoe_batch(d: int, seed: int, start: int, count: int, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G of each sample and its rate matrix a(G, c); a stream holds vec G then sqrt(d) c."""
    j = d * d - 1
    rows = _normals(seed, start, count, j * j + j)
    return rows[:, : j * j].reshape(count, j, j), _rates(rows, m)


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


def _psd_candidates(rows: np.ndarray, m: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the Philox rows z whose a = z @ M can pass tolerance.is_psd, from the diagonal of a alone."""
    j = math.isqrt(m.shape[1])
    min_diag = (rows @ m[:, :: j + 1].real).min(axis=1)
    fro_bound = np.linalg.norm(rows, axis=1) * np.linalg.norm(m)  # >= ||a||_F
    return min_diag >= -tolerance.bound(fro_bound, tol) - tolerance.MARGIN * (1.0 + fro_bound)


def _stable_candidates(gs: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the samples that pass the Routh-Hurwitz conditions of max Re lambda(G) <= tol."""
    j = gs.shape[-1]
    h = gs - tol * np.eye(j)
    h2 = h @ h
    p = (
        np.trace(h, axis1=1, axis2=2),
        np.trace(h2, axis1=1, axis2=2),
        np.einsum("sij,sji->s", h2, h),
        np.einsum("sij,sji->s", h2, h2),
    )[: min(j, 4)]
    r = np.sqrt(j) * np.linalg.norm(h, axis=(1, 2))
    c = [1.0]  # c_k of det(sI - H), by Newton's identities
    for k in range(1, len(p) + 1):
        c.append(-sum(c[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    keep = np.ones(len(gs), dtype=bool)
    for k in range(1, len(c)):
        keep &= c[k] >= -tolerance.MARGIN * (1.0 + r**k)
    if j >= 3:
        keep &= c[1] * c[2] - c[3] >= -tolerance.MARGIN * (1.0 + r**3)
    return keep


def _count_stable(gs: np.ndarray, tol: float) -> int:
    """Samples whose G has max Re lambda <= tol; eigvals runs on candidates only."""
    cand = _stable_candidates(gs, tol)
    return int(np.sum(np.linalg.eigvals(gs[cand]).real.max(axis=1) <= tol))


def _ginoe_basis(d: int, basis: NiceBasis | None) -> NiceBasis:
    """The basis of a GinOE experiment in dimension d: the Gell-Mann one unless basis is given."""
    if d < 2:
        raise ValueError(f"GinOE needs dimension d >= 2, got {d}")
    if basis is None:
        return generate_gell_mann(d)
    if basis.dim != d:
        raise ValueError(f"basis has dimension {basis.dim}, but d = {d}")
    return basis


def estimate_p_lindblad_ginoe(
    d: int, n_samples: int, seed: int, basis: NiceBasis | None = None
) -> RarityEstimate:
    """Fraction of GinOE pairs (G, c) whose recovered rate matrix is PSD.

    Also counts pairs whose G spectrum is stable (all real parts <= 0); the
    PSD count never exceeds the stable count.
    """
    basis = _ginoe_basis(d, basis)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    j = d * d - 1
    m = _rates_matrix(basis)
    n_psd = 0
    n_stable = 0
    for start in range(0, n_samples, _CHUNK):
        rows = _normals(seed, start, min(_CHUNK, n_samples - start), j * j + j)
        n_psd += _count_psd(_rates(rows[_psd_candidates(rows, m, tolerance.DATA)], m), tolerance.DATA)
        n_stable += _count_stable(rows[:, : j * j].reshape(-1, j, j), tolerance.DATA)
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
    """Exact PSD probability of a GUE matrix of size j, for j = 1..8.

    By the Andreief (Heine) identity, the probability that every eigenvalue of
    the joint density exp(-sum l^2) prod_(i<k) (l_i - l_k)^2 is >= 0 is a ratio
    of Hankel determinants of the moments of exp(-l^2) over the half line and
    over the whole line:
        p_j = det[Gamma((i+k+1)/2) / 2] / det[Gamma((i+k+1)/2) [i+k even]],  i, k < j.
    j = 1 gives 1/2 and j = 2 gives 1/4 - 1/(2 pi). Both determinants come from
    slogdet; above j = 8 their double-precision ratio is not validated.
    """
    if not 1 <= j <= 8:
        raise ValueError(f"the analytic GUE value is implemented for sizes 1 to 8, got {j}")
    n = np.add.outer(np.arange(j), np.arange(j))
    moments = np.array([math.gamma((k + 1) / 2) for k in range(2 * j - 1)])[n]
    sign_half, log_half = np.linalg.slogdet(moments / 2)
    sign_full, log_full = np.linalg.slogdet(np.where(n % 2 == 0, moments, 0.0))
    return float(sign_half * sign_full * np.exp(log_half - log_full))


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
    basis = _ginoe_basis(d, basis)
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
