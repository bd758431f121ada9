"""Superoperator representations: rank-4 tensors over matrix units, the
coordinate matrix over a nice operator basis, and the F-A-F coefficient
form E(A) = sum_ij c_ij F_i A F_j.

Each representation converts through the superoperator S of `core`, and
applying one to a matrix X is S @ vec(X).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .basis import NiceBasis, _numbers


@dataclass(frozen=True)
class SuperopTensor:
    """Rank-4 tensor T with action (E(A))_kn = sum_lm T[k,l,m,n] A[l,m].

    Equivalently T[k,l,m,n] = E(|l><m|)[k,n].
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _rank4(self.entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _rank4(entries) -> np.ndarray:
    """entries as a complex (d, d, d, d) array of finite entries; otherwise ValueError."""
    t = _numbers(entries, "tensor")
    if t.ndim != 4 or len(set(t.shape)) != 1:
        raise ValueError(f"tensor must have shape (d,d,d,d), got {t.shape}")
    return t


@dataclass(frozen=True)
class SuperopMatrix:
    """Coordinate matrix E_ij = <F_i, E(F_j)> over the full nice basis.

    Real entries exactly when the superoperator is Hermiticity-preserving.
    """

    entries: np.ndarray
    basis: NiceBasis

    def __post_init__(self):
        e = _numbers(self.entries, "matrix")
        n = self.basis.J + 1
        if e.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n} for this basis, got {e.shape}")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class FAFRep:
    """Coefficients c_ij of E(A) = sum_ij c_ij F_i A F_j over the full basis.

    c is real-symmetric exactly when the superoperator is both
    Hermiticity-preserving and Hermitian.
    """

    c: np.ndarray

    def __post_init__(self):
        c = _numbers(self.c, "coefficient matrix")
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"coefficient matrix must be square, got {c.shape}")
        object.__setattr__(self, "c", c)


def apply_tensor(t: SuperopTensor, x: np.ndarray) -> np.ndarray:
    return core.apply(core.from_tensor(t.entries), x)


def adjoint_tensor(t: SuperopTensor) -> SuperopTensor:
    """Tensor of the adjoint map, <E'(A), B> = <A, E(B)> in Hilbert-Schmidt sense."""
    return SuperopTensor(entries=t.entries.conj().transpose(1, 0, 3, 2))


def superop_matrix(t: SuperopTensor, b: NiceBasis) -> SuperopMatrix:
    """E_ij = Tr[F_i E(F_j)]."""
    return SuperopMatrix(entries=core.coordinates(core.from_tensor(t.entries), b), basis=b)


def tensor_from_matrix(m: SuperopMatrix) -> SuperopTensor:
    """Invert superop_matrix: T[k,l,m,n] = sum_ij E_ij (F_i)_kn (F_j)_ml."""
    return SuperopTensor(entries=core.to_tensor(core.from_coordinates(m.entries, m.basis)))


def faf_from_tensor(t: SuperopTensor, b: NiceBasis) -> FAFRep:
    """Closed-form coefficients c_ij = sum F_i[l,k] F_j[n,m] T[k,l,m,n]."""
    return FAFRep(c=core.sandwich_coefficients(core.from_tensor(t.entries), b))


def tensor_from_faf(r: FAFRep, b: NiceBasis) -> SuperopTensor:
    """T[k,l,m,n] = sum_ij c_ij (F_i)_kl (F_j)_mn."""
    p = core.basis_columns(r.c, b)
    d = b.dim
    return SuperopTensor(entries=(p @ r.c @ p.T).reshape(d, d, d, d))


def apply_faf(r: FAFRep, x: np.ndarray, b: NiceBasis) -> np.ndarray:
    return apply_tensor(tensor_from_faf(r, b), x)


def adjoint_faf(r: FAFRep) -> FAFRep:
    """Coefficients of the adjoint: entrywise conjugate."""
    return FAFRep(c=r.c.conj())
