"""Monte Carlo experiments on the rarity of completely positive generators:
sample (G, c) from the Ginibre orthogonal ensemble or rate matrices from the
Gaussian unitary ensemble, estimate the probability of positive
semidefiniteness, and verify the induced covariance identities.

Reproducibility: every sample draws from its own counter-based Philox stream
keyed by (seed, sample_index), so counts are identical regardless of chunking
or parallelism. Gaussian variates come from numpy's standard_normal (ziggurat);
bit-equality is promised per build, seed-determinism always.

Both ensembles are a centred Gaussian image of the Philox row z of a sample:
vec a = z @ M, with the complex M of shape (width, J^2).
- GinOE: z = [vec G, sqrt(d) c] and M = _rates_matrix(basis), so a = a(G, c).
- GUE: z = [vec X, vec Y] and M = _gue_matrix(J), so a = (A + A^dag)/2 with
  A = sqrt(1/2) (X + iY).
One loop (_estimate) counts the PSD samples of either ensemble, and the
stable G of GinOE; one loop (_second_moment_report) accumulates moments.

Work is done in chunks of _CHUNK samples:

- Memory. An estimate, and the moment loop, allocate one buffer of _CHUNK
  rows and refill it for each chunk, so no two chunks of rows are alive at
  once. An estimate keeps of M only what the PSD prefilter reads (see
  Pruning), a few KB cached once per (ensemble, size). It builds the dense
  M (0.8 MB at d = 4, 5.3 MB at d = 5) at the first chunk of the call with
  a PSD candidate, which at d >= 3 few calls have, and holds it for the
  rest of that call; the moment loop reads every a, so it builds M. M is
  built J unit rows at a time, so its build holds M and the work arrays of
  one block. The working set of an estimate is therefore one chunk of rows
  and the pruning stages' arrays over part of a chunk, and M only in a call
  with a candidate, whatever the number of samples.
- Sampling. A Philox stream is defined by its key alone (Salmon et al.,
  SC'11), so a chunk builds one Philox and re-keys it for each sample
  through its public state: key [seed, index], counter 0, empty buffer.
  The row it fills equals
  Generator(Philox(key=[seed, index])).standard_normal(width) bit for bit.
  That per-sample stream, and the per-sample samplers of both ensembles,
  are kept in tests/oracles.py as the reference.
- Pruning. The eigensolvers run only on samples that can be counted.
  PSD: by the Rayleigh bound a Hermitian a has lambda_min <= min_m Re a_mm,
  and its largest |eigenvalue| is at most ||a||_F, so a PSD sample
  (lambda_min >= -tol max(1, max|lambda|)) has
  min_m Re a_mm >= -tol max(1, ||a||_F). For a = z @ M the diagonal is
  z @ M[:, ::J+1], to which only the rows nz of M with a nonzero diagonal
  entry contribute (24 of 240 at d = 4, and j of 2 j^2 for GUE), so it is
  taken as z[nz] @ M[nz, ::J+1]: the nonzero products of the dense
  product, summed without its exact zeros. ||a||_F <= B = ||z|| ||M||_F, so
  the test runs on z with B in place of ||a||_F; a is formed, and eigvalsh
  run, only for the rows that pass. nz, M[nz, ::J+1] and ||M||_F are
  taken once per (ensemble, size) by _prefilter, which keeps no M.
  Stability (GinOE): with H = G - tol I, the characteristic polynomial
  det(sI - H) = s^J + c_1 s^(J-1) + ... + c_J of a real H whose eigenvalues
  all have Re <= 0 is a product of factors s + |mu| and
  s^2 - 2 Re(mu) s + |mu|^2, so every c_k >= 0. The Hurwitz determinants
  Delta_2 = c_1 c_2 - c_3 and Delta_3 = c_1 c_2 c_3 - c_1^2 c_4 - c_3^2 + c_1 c_5
  are > 0 when every Re lambda < 0, so by continuity (H - eps I, eps -> 0)
  they are >= 0 when every Re lambda <= 0. Newton's identities
  k c_k = -(c_(k-1) p_1 + c_(k-2) p_2 + ... + c_0 p_k), c_0 = 1, give c_k from
  p_k = tr H^k, and c_k = 0 for k > J. The conditions run as a cascade, and
  each stage sees only the samples that every earlier stage kept:
    1. c_1 = J tol - tr G, on every sample;
    2. c_2 from p_2 = sum_mn h_mn h_nm, with no matrix product;
    3. H^2 = H @ H, then p_3 = tr H^2 H and p_4 = tr H^2 H^2 give c_3, c_4
       and Delta_2;
    4. for J >= 4, H^4 = H^2 @ H^2, then p_5 = tr H^4 H and p_6 = tr H^4 H^2
       give c_5, c_6 and Delta_3.
  At J = 3 (d = 2) stages 1 to 3 are the whole Hurwitz criterion, and there
  Delta_3 = c_3 Delta_2 would add nothing. On GinOE chunks at d = 3 and 4
  about 50%, 23% and 5% of the samples reach stages 2, 3 and 4, and about
  1.5% reach eigvals, which alone decides the count.
- Rounding. Let r = sqrt(J) ||G||_F + J tol >= sqrt(J) ||H||_F. Then
  |p_1| <= r (Cauchy-Schwarz on the diagonal) and |p_k| <= ||H||_F^k <= r^k
  (Schur: sum |lambda|^2 <= ||H||_F^2). Each c_k is a signed sum, over the
  partitions of k, of products of p_i of total degree k with coefficients
  1/z that sum to 1 (the cycle-type probabilities), so |c_k| <= r^k;
  Delta_2 is two products of degree 3, and Delta_3 four of degree 6.
  eigvals returns the eigenvalues of G + E with ||E|| of order J eps ||G||,
  and each p_i is summed with an error of order i J eps r^i, so a degree-k
  condition computed for a sample that eigvals finds stable is within a few
  hundred J eps r^k (a few thousand for Delta_3) of its exact value at
  G + E, which is >= 0.
  For GinOE the diagonal z[nz] @ M[nz, ::J+1] sums at most J^2 + J
  products, within (J^2 + J) eps B of the diagonal of the a that eigvalsh sees; for
  GUE each diagonal column of M holds the one nonzero entry sqrt(1/2), so
  the diagonal is a single exact product, the same one that a holds. Each
  condition is therefore widened by MARGIN (1 + r^k), with k = 3 for
  Delta_2 and k = 6 for Delta_3, the PSD one by MARGIN (1 + B), and
  tolerance.MARGIN = 1e-10 exceeds those errors up to J of about a hundred
  (d of about 10), beyond the sizes at which a Monte Carlo of J x J
  eigensolves runs; a sample that fails a widened condition would not have
  been counted. The PSD verdict itself is
  tolerance.is_psd on the eigenvalues, with rtol tolerance.DATA for GinOE,
  the one check_lindblad uses by default, and rtol 0 for GUE, whose exact
  probability (gue_p_analytic) counts lambda_min >= 0.
- Moments. The covariance checks keep only two running sums over samples,
  S1 = sum x x^T and S2 = sum |x|^2 (|x|^2)^T with x = vec(a). The mean of
  a_mn a_kl is S1/n and its sample variance (S2 - n |S1/n|^2) / (n - 1), so
  memory does not depend on the number of samples.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core, tolerance
from .basis import NiceBasis, _integer, generate_gell_mann

_CHUNK = 1024
_Z95 = 1.959963984540054  # the two-sided 95% quantile of the standard normal distribution


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


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    n = _integer(n, 1, math.inf, "the sample count must be an integer >= 1")
    k = _integer(k, -math.inf, math.inf, "a count must be an integer")
    if not 0 <= k <= n:
        raise ValueError(f"a count of {k} is not in [0, n] for n = {n}")
    p, z = k / n, _Z95
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # clamp so the interval always contains the point estimate despite rounding
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def _normals(seed: int, start: int, count: int, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """Row k holds the first width normals of the stream (seed, start + k); the rows are out[:count]
    when out, of width columns, is given."""
    seed = _integer(seed, 0, 2**64 - 1, "seed must be an integer in [0, 2^64)")
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
    out = np.empty((count, width)) if out is None else out[:count]
    for k, row in enumerate(out):
        key[1] = start + k
        bitgen.state = state
        rng.standard_normal(out=row)
    return out


def _rates_matrix(basis: NiceBasis) -> np.ndarray:
    """M with vec a(G, c) = [vec G, sqrt(d) c] @ M, from the core rates of each unit row.

    A unit row sets one entry of Lhat[1:]: G_ij = Lhat[1+i, 1+j] or
    sqrt(d) c_i = Lhat[1+i, 0], in the order a GinOE stream draws them.
    The rows are built J at a time, so the work arrays hold one block of them.
    """
    j = basis.J
    k = np.arange(j * j + j)
    rows = np.where(k < j * j, 1 + k // j, 1 + k - j * j)
    cols = np.where(k < j * j, 1 + k % j, 0)
    m = np.empty((len(k), j * j), dtype=complex)
    for start in range(0, len(k), j):
        lhat = np.zeros((j, j + 1, j + 1))
        lhat[np.arange(j), rows[start : start + j], cols[start : start + j]] = 1.0
        m[start : start + j] = core.rates(core.from_coordinates(lhat, basis), basis).reshape(j, j * j)
    return m


def _gue_matrix(j: int) -> np.ndarray:
    """M with vec a = [vec X, vec Y] @ M for a = (A + A^dag)/2, A = sqrt(1/2) (X + iY).

    a_mn = h (X_mn + X_nm) + i h (Y_mn - Y_nm) with h = sqrt(1/2)/2, so the
    column of a_mm holds one nonzero entry, 2h = sqrt(1/2).
    """
    j = _size("GUE", j)
    h = np.sqrt(0.5) / 2
    eye = np.eye(j * j)
    swap = eye.reshape(j, j, -1).transpose(1, 0, 2).reshape(j * j, j * j)  # row mn is e_nm
    m = np.zeros((2 * j * j, j * j), dtype=complex)
    m.real[: j * j] = h * (eye + swap)
    m.imag[j * j :] = h * (eye - swap)
    return m


def _rates(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a = z @ M of each Philox row z as two real products, so the rows are never cast to complex."""
    a = np.empty((len(rows), m.shape[1]), dtype=complex)
    a.real = rows @ m.real
    a.imag = rows @ m.imag
    j = math.isqrt(m.shape[1])
    return a.reshape(len(rows), j, j)


@functools.lru_cache(maxsize=None)
def _prefilter(ensemble: str, size: int) -> tuple[int, np.ndarray, np.ndarray, float]:
    """What _psd_candidates reads of M = _linearisation(ensemble, size), taken once per (ensemble, size) and
    read-only: the row width len(M), the indices of the rows of M with a nonzero diagonal entry, those rows
    of the real diagonal columns M[:, ::J+1], contiguous, and ||M||_F. M itself is not kept."""
    m = _linearisation(ensemble, size)
    j = math.isqrt(m.shape[1])
    nonzero = np.flatnonzero(m[:, :: j + 1].real.any(axis=1))
    diagonal = np.ascontiguousarray(m[nonzero, :: j + 1].real)
    nonzero.flags.writeable = diagonal.flags.writeable = False
    return len(m), nonzero, diagonal, float(np.linalg.norm(m))


def _psd_candidates(rows: np.ndarray, prefilter: tuple, tol: float) -> np.ndarray:
    """Mask of the Philox rows z whose a = z @ M can pass tolerance.is_psd, from the diagonal of a alone;
    prefilter is _prefilter of the M, whose zero diagonal rows add nothing to the diagonal of a."""
    _, nonzero, diagonal, m_norm = prefilter
    min_diag = (rows[:, nonzero] @ diagonal).min(axis=1)
    fro_bound = np.sqrt(np.einsum("ij,ij->i", rows, rows)) * m_norm  # >= ||a||_F
    return min_diag >= -tolerance.bound(fro_bound, tol) - tolerance.MARGIN * (1.0 + fro_bound)


def _count_psd(rows: np.ndarray, m: np.ndarray, tol: float) -> int:
    """Rows z whose a = z @ M tolerance.is_psd accepts at rtol tol; the rows are the prefilter's candidates."""
    return int(np.sum(tolerance.is_psd(np.linalg.eigvalsh(_rates(rows, m)), tol)))


def _char_coefficients(p: list) -> list:
    """c_0, ..., c_n of det(sI - H) from p_k = tr H^k, k = 1..n, by Newton's identities."""
    c = [1.0]
    for k in range(1, len(p) + 1):
        c.append(-sum(c[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    return c


def _hurwitz_conditions(c: list, stage: int) -> list:
    """The (value, degree) pairs that stage 0..3 of _stable_candidates adds; each value is >= 0 for a stable H."""
    if stage < 2:
        return [(c[stage + 1], stage + 1)]
    if stage == 2:
        return [(c[3], 3), (c[4], 4), (c[1] * c[2] - c[3], 3)]
    return [(c[5], 5), (c[6], 6), (c[1] * c[2] * c[3] - c[1] ** 2 * c[4] - c[3] ** 2 + c[1] * c[5], 6)]


def _stable_candidates(gs: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the samples that pass the Routh-Hurwitz conditions of max Re lambda(G) <= tol.

    The conditions run in stages, cheapest first, and each stage sees only
    the samples that every earlier stage kept.
    """
    j = gs.shape[-1]
    kept = np.arange(len(gs))
    r = np.sqrt(j * np.einsum("sij,sij->s", gs, gs)) + j * tol  # >= sqrt(J) ||H||_F
    p = [np.einsum("sii->s", gs) - j * tol]  # p_k = tr H^k of the kept samples
    powers = []  # H, H^2, H^4 of the kept samples
    for stage in range(min(j, 4)):
        if stage == 1:
            powers.append(gs[kept])
            powers[0] -= tol * np.eye(j)  # in place: a second array of this size costs more than the subtraction
        elif stage > 1:
            powers.append(powers[-1] @ powers[-1])
        # p_(a+b) = tr H^a H^b, without forming the product: p_2 from (H, H), p_3 and p_4 from H^2 with H
        # and H^2, p_5 and p_6 likewise from H^4
        p += [np.einsum("sij,sji->s", powers[-1], x) for x in powers[: min(stage, 2)]]
        c = _char_coefficients(p[:j]) + [0.0] * 6  # c_k = 0 for k > J
        ok = np.logical_and.reduce(
            [value >= -tolerance.MARGIN * (1.0 + r**k) for value, k in _hurwitz_conditions(c, stage)]
        )
        kept, r = kept[ok], r[ok]
        p = [x[ok] for x in p]
        powers = [x[ok] for x in powers]
    mask = np.zeros(len(gs), dtype=bool)
    mask[kept] = True
    return mask


def _count_stable(gs: np.ndarray, tol: float) -> int:
    """Samples whose G has max Re lambda <= tol; eigvals runs on candidates only."""
    cand = _stable_candidates(gs, tol)
    return int(np.sum(np.linalg.eigvals(gs[cand]).real.max(axis=1) <= tol))


def _ginoe_basis(d: int) -> NiceBasis:
    """The Gell-Mann basis of a GinOE experiment in dimension d. Nice bases differ by an orthogonal O on
    their traceless parts, and GinOE is invariant under (G, c) -> (O G O^T, O c), so no other is needed."""
    return generate_gell_mann(_size("GinOE", d))


def _size(ensemble: str, size) -> int:
    """size as an int, once it is a valid size of the ensemble: d >= 2 for GinOE, j >= 1 for GUE."""
    if ensemble == "GinOE":
        return _integer(size, 2, math.inf, "GinOE needs dimension d >= 2 (an integer)")
    return _integer(size, 1, math.inf, "GUE needs size j >= 1 (an integer)")


def _linearisation(ensemble: str, size: int) -> np.ndarray:
    """The M of the ensemble at this size, with a = z @ M."""
    return _rates_matrix(_ginoe_basis(size)) if ensemble == "GinOE" else _gue_matrix(size)


def _estimate(ensemble: str, size: int, n_samples: int, seed: int, tol: float) -> RarityEstimate:
    """Count the samples whose a = z @ M is PSD at rtol tol and, for GinOE, whose G = z[:J^2] is stable.

    M is built at the first chunk with a PSD candidate, and kept for the rest of the call.
    """
    size = _size(ensemble, size)
    n_samples = _integer(n_samples, 1, math.inf, "the sample count must be an integer >= 1")
    prefilter = _prefilter(ensemble, size)
    width, j = prefilter[0], prefilter[2].shape[1]  # the diagonal has one column per a_mm
    m = None
    n_psd = 0
    n_stable = 0 if ensemble == "GinOE" else None
    buffer = np.empty((min(_CHUNK, n_samples), width))
    for start in range(0, n_samples, _CHUNK):
        rows = _normals(seed, start, min(_CHUNK, n_samples - start), width, buffer)
        candidates = rows[_psd_candidates(rows, prefilter, tol)]
        if len(candidates):
            m = _linearisation(ensemble, size) if m is None else m
            n_psd += _count_psd(candidates, m, tol)
        if n_stable is not None:
            n_stable += _count_stable(rows[:, : j * j].reshape(-1, j, j), tol)
    lo, hi = wilson_interval(n_psd, n_samples)
    return RarityEstimate(
        ensemble=ensemble,
        dim_d=size,
        n_samples=n_samples,
        n_positive=n_psd,
        p_hat=n_psd / n_samples,
        ci_low=lo,
        ci_high=hi,
        seed=seed,
        n_spectrum_stable=n_stable,
    )


def estimate_p_lindblad_ginoe(d: int, n_samples: int, seed: int) -> RarityEstimate:
    """Fraction of GinOE pairs (G, c) whose recovered rate matrix is PSD.

    G has i.i.d. N(0, 1) entries and sqrt(d) c i.i.d. N(0, 1) entries, drawn
    in that order from the Philox stream (seed, k) of sample k; a is a(G, c)
    in the Gell-Mann basis. Also counts pairs whose G
    spectrum is stable (all real parts <= 0); the PSD count never exceeds
    the stable count.
    """
    return _estimate("GinOE", d, n_samples, seed, tolerance.DATA)


def estimate_p_gue(j: int, n_samples: int, seed: int) -> RarityEstimate:
    """Fraction of GUE matrices of size j that are positive semidefinite.

    a = (A + A^dag)/2, where the real and the imaginary parts of the entries
    of A are i.i.d. N(0, 1/2): A = sqrt(1/2) (X + iY), with vec X and then
    vec Y drawn from the Philox stream (seed, k) of sample k.
    """
    return _estimate("GUE", j, n_samples, seed, 0.0)


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
    j = _integer(j, 1, 8, "the analytic GUE value is implemented for integer sizes 1 to 8")
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


def _second_moment_report(ensemble: str, n: int, seed: int, m: np.ndarray, analytic: np.ndarray) -> CovarianceReport:
    """Compare the mean of a_mn a_kl, over a = z @ M of samples 0..n-1, with analytic[m, n, k, l],
    in units of its standard error."""
    n = _integer(n, 2, math.inf, "the sample count must be an integer >= 2")
    size = m.shape[1]
    s1 = np.zeros((size, size), dtype=complex)
    s2 = np.zeros((size, size))
    buffer = np.empty((min(_CHUNK, n), len(m)))
    for start in range(0, n, _CHUNK):
        _add_moments(s1, s2, _rates(_normals(seed, start, min(_CHUNK, n - start), len(m), buffer), m))
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


def ginoe_induced_a_covariance(d: int, n_samples: int, seed: int) -> CovarianceReport:
    """Compare E(a_mn a_m'n') of GinOE-induced rate matrices against
    delta_mn' delta_nm' - (1/d) Tr(F_m' F_n' F_m F_n), in the Gell-Mann basis."""
    basis = _ginoe_basis(d)
    j = basis.J
    ft = basis.traceless
    eye = np.eye(j)
    delta_term = np.einsum("mq,np->mnpq", eye, eye)
    trace_term = np.einsum("pab,qbc,mcd,nda->mnpq", ft, ft, ft, ft, optimize=True)
    analytic = delta_term - trace_term / d
    return _second_moment_report("GinOE", n_samples, seed, _rates_matrix(basis), analytic)

