"""Complete-positivity decision for a coherence-vector ODE pair (G, c):
recover the rate matrix a and test it for positive semidefiniteness, and
sample from the extreme rays of the cone of completely positive dissipative
generators.

The rate matrix a comes from the core superoperator; one eigendecomposition
of a gives both the verdict and the diagonal form. The equivalent
quadratic-form test, sum_i Tr[G~_i B^dag F_i B] = b^dag a b over traceless B,
is a reference in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, tolerance
from .basis import NiceBasis, _numbers, coordinatize
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


def sample_extreme_ray(big_b: np.ndarray, basis: NiceBasis) -> OdePair:
    """Rank-1 dissipative generator of a single Lindblad operator B.

    R_kl = Tr[F_k (B F_l B^dag - 1/2 {B^dag B, F_l})], c_k = (1/d) Tr([B, B^dag] F_k);
    equals the forward map of (H = 0, a = b b^dag) with b_m = Tr(F_m B). Raises
    ValueError unless B is finite and d x d with a negligible trace (tolerance.DATA).
    """
    big_b = _numbers(big_b, "B")
    d = basis.dim
    if big_b.shape != (d, d):
        raise ValueError(f"B must be {d}x{d}, got {big_b.shape}")
    if not tolerance.negligible(np.trace(big_b), big_b, tolerance.DATA):
        raise ValueError("B must be traceless")
    b = coordinatize(big_b, basis)[1:]
    params = MasterEqParams(hamiltonian=np.zeros((d, d)), rates=np.outer(b, b.conj()))
    return forward_map(params, basis)
