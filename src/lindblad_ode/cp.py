"""Complete-positivity decision for a coherence-vector ODE pair (G, c):
recover the rate matrix a and test it for positive semidefiniteness, and
sample from the extreme rays of the cone of completely positive dissipative
generators.

The rate matrix a comes from the core superoperator; its eigenvalues give the
verdict, and its eigenvectors only the diagonal form, on demand. The equivalent
quadratic-form test, sum_i Tr[G~_i B^dag F_i B] = b^dag a b over traceless B,
is a reference in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tolerance
from .basis import NiceBasis, _built, _finite, _numbers, coordinatize
from .forward import DiagonalDissipator, MasterEqParams, OdePair, _diagonal_form, forward_map
from .inverse import _rates


@dataclass(frozen=True)
class CPReport:
    """Verdict on whether an ODE pair is generated by a Lindblad equation; the eigenvalues of a descending."""

    a: np.ndarray
    eigenvalues: np.ndarray
    min_eigenvalue: float
    is_lindblad: bool
    marginal: bool
    tolerance_used: float
    _basis: NiceBasis = field(init=False, repr=False, compare=False)
    _noise: float = field(init=False, repr=False, compare=False)

    @cached_property
    def diagonal_form(self) -> DiagonalDissipator | None:
        """diagonalize_dissipator(a), rates up to _noise zeroed, by one eigh on first read; None unless is_lindblad."""
        if not self.is_lindblad:
            return None
        return _diagonal_form(self.eigenvalues[::-1], np.linalg.eigh(self.a)[1], self._basis, self._noise)


def check_lindblad(pair: OdePair, basis: NiceBasis, tol: float = tolerance.DATA) -> CPReport:
    """Recover a from (G, c) and decide complete positivity by its spectrum.

    The pair is Lindblad iff min eig(a) >= -tol * max(1, ||a||_2)
    (tolerance.is_psd); verdicts with |min eig| within 10x of that threshold
    are flagged marginal. Raises ValueError when tol is not a finite number >= 0, or when a or one of
    its eigenvalues overflows.
    """
    tol = tolerance.check_rtol(tol, "tol")
    a = _rates(pair, basis)
    eigs = _finite(np.linalg.eigvalsh(a)[::-1].copy(), "eigenvalue of the rate matrix a of (G, c)")
    min_eig = float(eigs[-1]) if eigs.size else 0.0
    verdict = bool(tolerance.is_psd(eigs, tol))
    # the spectral norm of the Hermitian a is its largest |eigenvalue|
    marginal = bool(abs(min_eig) <= 10.0 * tolerance.bound(tolerance.magnitude(eigs), tol))
    # a is recovered from (G, c) with rounding at their scale: a rate below it is noise
    noise = max(tolerance.cut(pair.G, tolerance.ROUNDING), tolerance.cut(pair.c, tolerance.ROUNDING))
    return _built(
        CPReport, None, a=a, eigenvalues=eigs, min_eigenvalue=min_eig, is_lindblad=verdict, marginal=marginal,
        tolerance_used=tol, _basis=basis, _noise=noise,
    )


def sample_extreme_ray(big_b: np.ndarray, basis: NiceBasis) -> OdePair:
    """Rank-1 dissipative generator of a single Lindblad operator B.

    R_kl = Tr[F_k (B F_l B^dag - 1/2 {B^dag B, F_l})], c_k = (1/d) Tr([B, B^dag] F_k);
    equals the forward map of (H = 0, a = b b^dag) with b_m = Tr(F_m B). Raises
    ValueError unless B is finite, of shape (d, d) and has a negligible trace (tolerance.DATA).
    """
    d = basis.dim
    big_b = _numbers(big_b, "B", shape=(d, d))
    if not tolerance.negligible(np.trace(big_b), big_b, tolerance.DATA):
        raise ValueError("B must be traceless")
    b = coordinatize(big_b, basis)[1:]
    params = MasterEqParams(hamiltonian=np.zeros((d, d)), rates=np.outer(b, b.conj()))
    return forward_map(params, basis)
