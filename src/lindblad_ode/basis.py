"""Nice operator bases: construction, validation, structure constants,
and coordinatization of operators.

A nice operator basis for a d-dimensional Hilbert space is an orthonormal
set {F_0, ..., F_J} (J = d^2 - 1) of Hermitian d x d matrices under the
Hilbert-Schmidt inner product, with F_0 = I/sqrt(d) and F_1..F_J traceless.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import tolerance


@dataclass(frozen=True)
class NiceBasis:
    """Orthonormal Hermitian operator basis with F_0 = I/sqrt(d).

    elements has shape (J+1, d, d); elements[0] is the normalized identity.
    """

    dim: int
    elements: np.ndarray

    @property
    def J(self) -> int:
        return self.dim**2 - 1

    @property
    def traceless(self) -> np.ndarray:
        """The J traceless elements F_1..F_J, shape (J, d, d)."""
        return self.elements[1:]


@dataclass(frozen=True)
class StructureConstants:
    """Totally antisymmetric tensor f with [F_i, F_j] = i f_ijk F_k."""

    f: np.ndarray  # real, shape (J, J, J)


@dataclass(frozen=True)
class ValidationReport:
    """Worst-case violations of the nice-basis axioms."""

    identity_violation: float
    hermiticity_violation: float
    trace_violation: float
    orthonormality_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            max(
                self.identity_violation,
                self.hermiticity_violation,
                self.trace_violation,
                self.orthonormality_violation,
            )
            <= self.tolerance
        )


def _integer(value, low: int, high: float, requirement: str) -> int:
    """value as an int when it is an integer (a bool is not) in [low, high]; otherwise
    ValueError(f"{requirement}, got {value!r}")."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or not low <= value <= high:
        raise ValueError(f"{requirement}, got {value!r}")
    return int(value)


def generate_gell_mann(d: int) -> NiceBasis:
    """Normalized generalized Gell-Mann basis for dimension d.

    Ordering: F_0 = I/sqrt(d); then the symmetric off-diagonal elements
    (E_jk + E_kj)/sqrt(2) for j < k in lexicographic (j, k) order; then the
    antisymmetric elements -i(E_jk - E_kj)/sqrt(2) in the same pair order;
    then the d-1 diagonal traceless matrices of increasing rank.  For d = 3
    this is the standard listing of the eight normalized Gell-Mann matrices.
    """
    d = _integer(d, 1, math.inf, "dimension must be an integer >= 1")
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = m[k, j] = 1 / np.sqrt(2)
        mats.append(m)
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = -1j / np.sqrt(2)
        m[k, j] = 1j / np.sqrt(2)
        mats.append(m)
    for r in range(1, d):
        diag = np.zeros(d)
        diag[:r] = 1.0
        diag[r] = -r
        mats.append(np.diag(diag).astype(complex) / np.sqrt(r * (r + 1)))
    return NiceBasis(dim=d, elements=np.array(mats))


def verify_nice_basis(basis: NiceBasis, tol: float = tolerance.ROUNDING) -> ValidationReport:
    """Report the worst violations of the nice-basis axioms; passed compares them with tol.

    Raises ValueError when tol is not a finite number >= 0.
    """
    tol = tolerance.check_rtol(tol, "tol")
    f = basis.elements
    d = basis.dim
    ident = np.max(np.abs(f[0] - np.eye(d) / np.sqrt(d))) if len(f) else 0.0
    herm = float(np.max(np.abs(f - f.conj().transpose(0, 2, 1)))) if len(f) else 0.0
    traces = np.einsum("iaa->i", f[1:]) if len(f) > 1 else np.zeros(0)
    trace_viol = float(np.max(np.abs(traces))) if traces.size else 0.0
    gram = np.einsum("iab,jba->ij", f, f)
    ortho = float(np.max(np.abs(gram - np.eye(len(f)))))
    return ValidationReport(
        identity_violation=float(ident),
        hermiticity_violation=herm,
        trace_violation=trace_viol,
        orthonormality_violation=ortho,
        tolerance=tol,
    )


def structure_constants(basis: NiceBasis) -> StructureConstants:
    """Compute f_ijk = -i Tr([F_i, F_j] F_k) for the traceless elements.

    Raises ValueError if the result has an imaginary residue that is not
    negligible at the scale of the basis, which signals an invalid basis.
    """
    ft = basis.traceless
    prod = np.einsum("iab,jbc->ijac", ft, ft)
    comm = prod - prod.transpose(1, 0, 2, 3)
    f = -1j * np.einsum("ijab,kba->ijk", comm, ft)
    if not tolerance.negligible(f.imag, basis.elements, tolerance.DATA):
        raise ValueError(f"structure constants not real (residue {tolerance.magnitude(f.imag):.3e}); basis invalid")
    return StructureConstants(f=f.real)


def coordinatize(x: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Coordinates X_i = Tr(F_i X); real vector iff X is Hermitian."""
    x = np.asarray(x, dtype=complex)
    d = basis.dim
    if x.shape != (d, d):
        raise ValueError(f"operator shape {x.shape} incompatible with dimension {d}")
    return np.einsum("iab,ba->i", basis.elements, x)


def decoordinatize(coords: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Inverse of coordinatize: X = sum_i coords_i F_i."""
    coords = np.asarray(coords)
    if coords.shape != (basis.J + 1,):
        raise ValueError(f"expected {basis.J + 1} coordinates, got {coords.shape}")
    return np.einsum("i,iab->ab", coords, basis.elements)


def coherence_vector(rho: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Real coordinates (v_1..v_J) of a density matrix in the traceless part.

    Requires rho finite, Tr(rho) = 1 and rho Hermitian up to a negligible residue
    (tolerance.DATA).  Warns when the purity bound ||v|| <= sqrt(1 - 1/d) is
    exceeded by more than that.
    """
    rho = np.asarray(rho, dtype=complex)
    d = basis.dim
    if rho.shape != (d, d):
        raise ValueError(f"density matrix shape {rho.shape} incompatible with dimension {d}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix must be finite")
    if not tolerance.negligible(np.trace(rho) - 1, rho, tolerance.DATA):
        raise ValueError(f"density matrix trace {np.trace(rho):.6g} != 1")
    if not tolerance.negligible(rho - rho.conj().T, rho, tolerance.DATA):
        raise ValueError("density matrix is not Hermitian")
    v = np.einsum("iab,ba->i", basis.traceless, rho)
    v = v.real.copy()
    purity = np.sqrt(1 - 1 / d) if d > 1 else 0.0
    if np.linalg.norm(v) > purity + tolerance.bound(tolerance.magnitude(rho), tolerance.DATA):
        warnings.warn(
            f"coherence vector norm {np.linalg.norm(v):.6g} exceeds purity bound {purity:.6g}",
            stacklevel=2,
        )
    return v
