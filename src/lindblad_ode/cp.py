"""Complete-positivity decision for a coherence-vector ODE pair (G, c):
recover the rate matrix a and test it for positive semidefiniteness, the
equivalent quadratic-form test, and sampling from the extreme rays of the
cone of completely positive dissipative generators.

The rate matrix a comes from the core superoperator, and the quadratic form
is b^dag a b of that a; one eigendecomposition of a gives both the verdict
and the diagonal form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import NiceBasis, coordinatize
from .forward import DiagonalDissipator, MasterEqParams, OdePair, _diagonal_form, forward_map, q_from_h
from .inverse import a_from_gc

DEFAULT_CP_TOL = 1e-9


@dataclass(frozen=True)
class CPReport:
    """Verdict on whether an ODE pair is generated by a Lindblad equation."""

    a: np.ndarray
    eigenvalues: np.ndarray
    min_eigenvalue: float
    is_lindblad: bool
    marginal: bool
    tolerance_used: float
    diagonal_form: DiagonalDissipator | None


def check_lindblad(pair: OdePair, basis: NiceBasis, tol: float = DEFAULT_CP_TOL) -> CPReport:
    """Recover a from (G, c) and decide complete positivity by its spectrum.

    The pair is Lindblad iff min eig(a) >= -tol * max(1, ||a||_2); verdicts
    with |min eig| within 10x of that threshold are flagged marginal.
    """
    if not (np.all(np.isfinite(pair.G)) and np.all(np.isfinite(pair.c))):
        raise ValueError("G and c must be finite")
    a = a_from_gc(pair.G, pair.c, basis)
    w, v = np.linalg.eigh(a)
    eigs = w[::-1].copy()
    min_eig = float(eigs[-1]) if eigs.size else 0.0
    # the spectral norm of the Hermitian a is its largest |eigenvalue|
    threshold = tol * max(1.0, float(np.abs(eigs).max())) if a.size else tol
    verdict = min_eig >= -threshold
    marginal = abs(min_eig) <= 10.0 * threshold
    diag = _diagonal_form(w, v, basis) if verdict else None
    return CPReport(
        a=a,
        eigenvalues=eigs,
        min_eigenvalue=min_eig,
        is_lindblad=verdict,
        marginal=marginal,
        tolerance_used=tol,
        diagonal_form=diag,
    )


def cp_quadratic_form(pair: OdePair, big_b: np.ndarray, basis: NiceBasis) -> float:
    """Evaluate sum_i Tr[(sum_j G_ij F_j + c_i I) B^dag F_i B] for traceless B.

    Equals b^dag a b with b_m = Tr(F_m B) and a recovered from (G, c), which
    is how it is computed; nonnegative for every traceless B exactly when the
    pair is Lindblad. Exposed for auditing; the verdict in check_lindblad
    always comes from the eigenvalue test.
    """
    big_b = np.asarray(big_b, dtype=complex)
    d = basis.dim
    if big_b.shape != (d, d):
        raise ValueError(f"B must be {d}x{d}, got {big_b.shape}")
    if abs(np.trace(big_b)) > 1e-9:
        raise ValueError("B must be traceless")
    b = coordinatize(big_b, basis)[1:]
    val = b.conj() @ a_from_gc(pair.G, pair.c, basis) @ b
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ValueError(f"quadratic form is not real (imag {val.imag:.3e})")
    return float(val.real)


def sample_extreme_ray(big_b: np.ndarray, basis: NiceBasis) -> OdePair:
    """Rank-1 dissipative generator of a single Lindblad operator B.

    R_kl = Tr[F_k (B F_l B^dag - 1/2 {B^dag B, F_l})], c_k = (1/d) Tr([B, B^dag] F_k);
    equals the forward map of (H = 0, a = b b^dag) with b_m = Tr(F_m B).
    """
    big_b = np.asarray(big_b, dtype=complex)
    d = basis.dim
    if big_b.shape != (d, d):
        raise ValueError(f"B must be {d}x{d}, got {big_b.shape}")
    if abs(np.trace(big_b)) > 1e-9:
        raise ValueError("B must be traceless")
    b_coords = coordinatize(big_b, basis)[1:]
    a = np.outer(b_coords, b_coords.conj())
    params = MasterEqParams(hamiltonian=np.zeros((d, d)), rates=a)
    return forward_map(params, basis)


@dataclass(frozen=True)
class ConeHullReport:
    """Outcome of testing random points of the Lindblad cone."""

    n_rays: int
    n_combos: int
    n_pass: int

    @property
    def all_pass(self) -> bool:
        return self.n_pass == self.n_combos


def cone_hull_consistency(
    n_rays: int, d: int, rng_seed: int, basis: NiceBasis | None = None, n_combos: int = 25
) -> ConeHullReport:
    """Random nonnegative combinations of extreme rays plus a Hamiltonian part
    must always pass check_lindblad."""
    from .basis import generate_gell_mann

    basis = basis or generate_gell_mann(d)
    rng = np.random.default_rng(rng_seed)
    rays = []
    for _ in range(n_rays):
        big_b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        big_b -= np.trace(big_b) / d * np.eye(d)
        rays.append(sample_extreme_ray(big_b, basis))
    n_pass = 0
    for _ in range(n_combos):
        weights = rng.uniform(0.0, 1.0, size=n_rays)
        g = sum(w * ray.G for w, ray in zip(weights, rays))
        c = sum(w * ray.c for w, ray in zip(weights, rays))
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (h + h.conj().T) / 2
        g = g + q_from_h(h - np.trace(h).real / d * np.eye(d), basis)
        if check_lindblad(OdePair(G=g, c=c), basis).is_lindblad:
            n_pass += 1
    return ConeHullReport(n_rays=n_rays, n_combos=n_combos, n_pass=n_pass)
