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

from . import core, tolerance
from .basis import NiceBasis, coordinatize
from .forward import DiagonalDissipator, MasterEqParams, OdePair, _diagonal_form, forward_map
from .inverse import _gc_to_core


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


def check_lindblad(pair: OdePair, basis: NiceBasis, tol: float = tolerance.DATA) -> CPReport:
    """Recover a from (G, c) and decide complete positivity by its spectrum.

    The pair is Lindblad iff min eig(a) >= -tol * max(1, ||a||_2)
    (tolerance.is_psd); verdicts with |min eig| within 10x of that threshold
    are flagged marginal. Raises ValueError when tol is not a finite number >= 0.
    """
    tol = tolerance.check_rtol(tol, "tol")
    a = core.rates(_gc_to_core(pair, basis), basis)
    w, v = np.linalg.eigh(a)
    eigs = w[::-1].copy()
    min_eig = float(eigs[-1]) if eigs.size else 0.0
    verdict = bool(tolerance.is_psd(eigs, tol))
    # the spectral norm of the Hermitian a is its largest |eigenvalue|
    marginal = bool(abs(min_eig) <= 10.0 * tolerance.bound(tolerance.magnitude(eigs), tol))
    # a is recovered from (G, c) with rounding at their scale: a rate below it is noise
    noise = max(tolerance.cut(pair.G, tolerance.ROUNDING), tolerance.cut(pair.c, tolerance.ROUNDING))
    diag = _diagonal_form(w, v, basis, noise) if verdict else None
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
    b = _traceless_coordinates(big_b, basis)
    val = b.conj() @ core.rates(_gc_to_core(pair, basis), basis) @ b
    if not tolerance.negligible(val.imag, val.real, tolerance.DATA):
        raise ValueError(f"quadratic form is not real (imag {val.imag:.3e})")
    return float(val.real)


def sample_extreme_ray(big_b: np.ndarray, basis: NiceBasis) -> OdePair:
    """Rank-1 dissipative generator of a single Lindblad operator B.

    R_kl = Tr[F_k (B F_l B^dag - 1/2 {B^dag B, F_l})], c_k = (1/d) Tr([B, B^dag] F_k);
    equals the forward map of (H = 0, a = b b^dag) with b_m = Tr(F_m B).
    """
    b = _traceless_coordinates(big_b, basis)
    params = MasterEqParams(hamiltonian=np.zeros((basis.dim, basis.dim)), rates=np.outer(b, b.conj()))
    return forward_map(params, basis)


def _traceless_coordinates(big_b: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """b_m = Tr(F_m B) for m >= 1, once B is d x d and its trace is negligible (tolerance.DATA)."""
    big_b = np.asarray(big_b, dtype=complex)
    d = basis.dim
    if big_b.shape != (d, d):
        raise ValueError(f"B must be {d}x{d}, got {big_b.shape}")
    if not tolerance.negligible(np.trace(big_b), big_b, tolerance.DATA):
        raise ValueError("B must be traceless")
    return coordinatize(big_b, basis)[1:]
