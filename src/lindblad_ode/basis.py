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
    They are checked on construction: ValueError names the first failure that
    verify_nice_basis reports at its default tolerance.
    """

    elements: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "elements", _numbers(self.elements, "basis elements"))
        if (failure := verify_nice_basis(self.elements).failure) is not None:
            raise ValueError(failure)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

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
    """Worst-case violations of the nice-basis axioms, and the number of elements (a basis has dim^2)."""

    identity_violation: float
    hermiticity_violation: float
    trace_violation: float
    orthonormality_violation: float
    tolerance: float
    element_count: int
    dim: int

    @property
    def failure(self) -> str | None:
        """The element count unless it is dim^2, else the first axiom above violated beyond tolerance, or None."""
        if self.element_count != self.dim**2:
            return f"{self.element_count} elements, a basis of dimension {self.dim} has {self.dim**2}"
        for axiom in ("identity", "hermiticity", "trace", "orthonormality"):
            if (violation := getattr(self, f"{axiom}_violation")) > self.tolerance:
                return f"{axiom} violated by {violation:.3e}, beyond the tolerance {self.tolerance:g}"
        return None

    @property
    def passed(self) -> bool:
        return self.failure is None


def _integer(value, low: int, high: float, requirement: str) -> int:
    """value as an int when it is an integer (a bool is not) in [low, high]; otherwise
    ValueError(f"{requirement}, got {value!r}")."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or not low <= value <= high:
        raise ValueError(f"{requirement}, got {value!r}")
    return int(value)


def _numbers(x, what: str, dtype: type = complex, finite: str | None = "") -> np.ndarray:
    """x as a float or complex (dtype) array: the one gate of every array argument.

    The ValueError names the operand what. Refused: a bool, string or object dtype, or a bool among
    numbers (f"{what} must be numbers, got a bool", "integers or floats" for a float dtype); a non-finite
    entry unless finite is None (f"{finite or what} must be finite"); and, for a float dtype, an imaginary
    part not negligible at tolerance.DATA (f"{what} has imaginary residue ..."), which is dropped otherwise.
    """
    a = np.asarray(x)
    kind = a.dtype.kind
    # a list that mixes bools with numbers converts to a number dtype, so its entries are read as well
    if kind not in "iufc" or not isinstance(x, np.ndarray) and any(
        isinstance(e, (bool, np.bool_)) for e in np.asarray(x, dtype=object).flat
    ):
        got = "a bool" if kind in "biufc" else f"dtype {a.dtype}"
        raise ValueError(f"{what} must be {'numbers' if dtype is complex else 'integers or floats'}, got {got}")
    a = a.astype(complex if kind == "c" else dtype, copy=False)
    if finite is not None and not np.isfinite(a).all():
        raise ValueError(f"{finite or what} must be finite")
    return _real(a, what, tolerance.DATA) if kind == "c" and dtype is float else a


def _real(m: np.ndarray, what: str, rtol: float = tolerance.ROUNDING) -> np.ndarray:
    """Re m, once its imaginary residue is negligible at the scale of m."""
    if not tolerance.negligible(m.imag, m, rtol):
        raise ValueError(f"{what} has imaginary residue {tolerance.magnitude(m.imag):.3e}")
    return m.real.copy()


def _hermitian(m: np.ndarray, what: str) -> None:
    """Raise ValueError(f"{what} is not Hermitian") unless m - m^dag is negligible at tolerance.DATA."""
    if not tolerance.negligible(m - m.conj().T, m, tolerance.DATA):
        raise ValueError(f"{what} is not Hermitian")


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
    return NiceBasis(np.array(mats))


def verify_nice_basis(elements, tol: float = tolerance.ROUNDING) -> ValidationReport:
    """Report the worst violations of the nice-basis axioms by any number of d x d matrices, none
    included; passed compares them with tol and requires the d^2 elements of a basis.

    Raises ValueError when tol is not a finite number >= 0 or elements are not finite d x d matrices, d >= 1.
    """
    tol = tolerance.check_rtol(tol, "tol")
    f = _numbers(elements, "basis elements")
    if f.ndim != 3 or f.shape[1] != f.shape[2] or f.shape[1] < 1:
        raise ValueError(f"basis elements must be n x n matrices with n >= 1, got shape {f.shape}")
    d = f.shape[-1]
    return ValidationReport(
        identity_violation=tolerance.magnitude(f[:1] - np.eye(d) / np.sqrt(d)),
        hermiticity_violation=tolerance.magnitude(f - f.conj().transpose(0, 2, 1)),
        trace_violation=tolerance.magnitude(np.einsum("iaa->i", f[1:])),
        orthonormality_violation=tolerance.magnitude(np.einsum("iab,jba->ij", f, f) - np.eye(len(f))),
        tolerance=tol,
        element_count=len(f),
        dim=d,
    )


def structure_constants(basis: NiceBasis) -> StructureConstants:
    """Compute f_ijk = -i Tr([F_i, F_j] F_k) for the traceless elements; it is real, as they are Hermitian."""
    ft = basis.traceless
    prod = np.einsum("iab,jbc->ijac", ft, ft)
    comm = prod - prod.transpose(1, 0, 2, 3)
    return StructureConstants(f=(-1j * np.einsum("ijab,kba->ijk", comm, ft)).real)


def coordinatize(x: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Coordinates X_i = Tr(F_i X); real vector iff X is Hermitian."""
    x = _numbers(x, "operator X")
    d = basis.dim
    if x.shape != (d, d):
        raise ValueError(f"operator shape {x.shape} incompatible with dimension {d}")
    return np.einsum("iab,ba->i", basis.elements, x)


def decoordinatize(coords: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Inverse of coordinatize: X = sum_i coords_i F_i."""
    coords = _numbers(coords, "coordinates")
    if coords.shape != (basis.J + 1,):
        raise ValueError(f"expected {basis.J + 1} coordinates, got {coords.shape}")
    return np.einsum("i,iab->ab", coords, basis.elements)


def coherence_vector(rho: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Real coordinates (v_1..v_J) of a density matrix in the traceless part.

    Requires rho finite, Tr(rho) = 1 and rho Hermitian up to a negligible residue
    (tolerance.DATA).  Warns when the purity bound ||v|| <= sqrt(1 - 1/d) is
    exceeded by more than that.
    """
    rho = _numbers(rho, "density matrix")
    d = basis.dim
    if rho.shape != (d, d):
        raise ValueError(f"density matrix shape {rho.shape} incompatible with dimension {d}")
    if not tolerance.negligible(np.trace(rho) - 1, rho, tolerance.DATA):
        raise ValueError(f"density matrix trace {np.trace(rho):.6g} != 1")
    _hermitian(rho, "density matrix")
    v = np.einsum("iab,ba->i", basis.traceless, rho)
    v = v.real.copy()
    purity = np.sqrt(1 - 1 / d)
    if np.linalg.norm(v) > purity + tolerance.bound(tolerance.magnitude(rho), tolerance.DATA):
        warnings.warn(
            f"coherence vector norm {np.linalg.norm(v):.6g} exceeds purity bound {purity:.6g}",
            stacklevel=2,
        )
    return v
