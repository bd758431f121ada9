"""The superoperator core that every representation of a generator derives from.

A generator L acts on d x d matrices. With row-major vectorization
vec(X)[p*d + q] = X[p, q] and vec(A X B) = (A (x) B^T) vec(X), it is one
d^2 x d^2 matrix

    S = -i (H (x) I - I (x) H^T) + reshuffle(Ft a Ft^T) - 1/2 (K (x) I + I (x) K^T)

with K = sum_ij a_ij F_j F_i. P is the unitary basis-change matrix whose
columns are vec(F_k), and Ft = P[:, 1:] holds its traceless columns.
reshuffle moves the index pairs [(p,r),(s,q)] to [(p,q),(r,s)], which turns
sum_ij a_ij vec(F_i) vec(F_j)^T into sum_ij a_ij F_i (x) F_j^T.

- Action: L(X) = S vec(X). Row-major vec is unitary, so S^dag is the matrix
  of the adjoint map, and L is Hermitian exactly when S = S^dag.
- Coordinates: Lhat = P^dag S P, so G = Lhat[1:, 1:] and c = Lhat[1:, 0] / sqrt(d).
- Rates: a = Ft^dag unreshuffle(S) conj(Ft). The Hamiltonian and
  anticommutator terms unreshuffle into rank-one pieces along vec(I),
  which the traceless projection removes.
- Hamiltonian: B = unreshuffle(S) vec(I) / d equals -iH - K/2 plus a
  multiple of I, so H = i(B - B^dag)/2.

reshuffle, unreshuffle, from_coordinates and rates also act on stacks of
matrices over their last two axes, matrix by matrix.

Havel, J. Math. Phys. 44, 534 (2003), arXiv:quant-ph/0201127.
"""
from __future__ import annotations

import math

import numpy as np

from .basis import NiceBasis, _numbers


def basis_matrix(basis: NiceBasis) -> np.ndarray:
    """P, shape (d^2, J+1): column k is the row-major vec(F_k)."""
    return basis.elements.reshape(len(basis.elements), -1).T


def basis_columns(m: np.ndarray, basis: NiceBasis, first: int = 0) -> np.ndarray:
    """P[:, first:], once the last two axes of m are n x n with n its number of columns.

    The ValueError otherwise names the dimension of m and that of the basis.
    """
    p = basis_matrix(basis)[:, first:]
    n = p.shape[1]
    if m.shape[-2:] != (n, n):
        d = math.isqrt(m.shape[-1] + first)
        size = f"dimension {d}" if m.shape[-2:] == (d * d - first,) * 2 else f"shape {m.shape[-2:]}"
        raise ValueError(f"operand of {size} does not match the basis of dimension {basis.dim}")
    return p


def reshuffle(m: np.ndarray) -> np.ndarray:
    """Move a d^2 x d^2 matrix from index order [(p,r),(s,q)] to [(p,q),(r,s)]."""
    d = _dim(m)
    return m.reshape(m.shape[:-2] + (d,) * 4).transpose(*range(m.ndim - 2), -4, -1, -3, -2).reshape(m.shape)


def unreshuffle(s: np.ndarray) -> np.ndarray:
    """Inverse of reshuffle: [(p,q),(r,s)] back to [(p,r),(s,q)]."""
    d = _dim(s)
    return s.reshape(s.shape[:-2] + (d,) * 4).transpose(*range(s.ndim - 2), -4, -2, -1, -3).reshape(s.shape)


def _dim(m: np.ndarray) -> int:
    """d of a d^2 x d^2 matrix, or of a stack of them over the last two axes."""
    d = math.isqrt(m.shape[-1])
    if m.shape[-2:] != (d * d, d * d):
        raise ValueError(f"superoperator matrix must be d^2 x d^2, got {m.shape}")
    return d


def _kron_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X (x) I and I (x) X^T as (d, d, d, d) arrays over [(p,r),(s,q)], each one broadcast product."""
    eye = np.eye(len(x))
    return x[:, None, :, None] * eye[:, None, :], eye[:, None, :, None] * x.T[:, None, :]


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """S of X -> -i[H, X]."""
    left, right = _kron_pair(h)
    return -1j * (left - right).reshape(h.size, h.size)


def dissipator_superop(a: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """S of X -> sum_ij a_ij (F_i X F_j - 1/2 {F_j F_i, X})."""
    d = basis.dim
    ft = basis_columns(a, basis, 1)
    # column j of ft @ a is vec(sum_i a_ij F_i), so K = sum_j F_j (sum_i a_ij F_i)
    k = np.einsum("jab,jbc->ac", basis.traceless, (ft @ a).T.reshape(-1, d, d))
    left, right = _kron_pair(k)
    return reshuffle(ft @ a @ ft.T) - 0.5 * (left + right).reshape(d * d, d * d)


def from_tensor(t: np.ndarray) -> np.ndarray:
    """S of the rank-4 tensor T[k,l,m,n] = L(|l><m|)[k,n].

    Read as a d^2 x d^2 matrix over [(k,l),(m,n)], T is unreshuffle(S).
    """
    n = t.shape[0] ** 2
    return reshuffle(t.reshape(n, n))


def to_tensor(s: np.ndarray) -> np.ndarray:
    """Inverse of from_tensor."""
    d = _dim(s)
    return unreshuffle(s).reshape(d, d, d, d)


def apply(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L(X) = S @ vec(X) for a d x d matrix X."""
    d = _dim(s)
    x = _numbers(x, "operator X")
    if x.shape != (d, d):
        raise ValueError(f"operator shape {x.shape} incompatible with dimension {d}")
    return (s @ x.ravel()).reshape(d, d)


def coordinates(s: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Lhat = P^dag S P, with entries Tr[F_i L(F_j)]."""
    p = basis_columns(s, basis)
    return p.conj().T @ s @ p


def from_coordinates(lhat: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """S = P Lhat P^dag."""
    p = basis_columns(lhat, basis)
    return p @ lhat @ p.conj().T


def gc_coordinates(g: np.ndarray, c: np.ndarray, d: int) -> np.ndarray:
    """Lhat of v' = G v + c: zero top row, sqrt(d) c in column 0, G below right."""
    lhat = np.zeros((len(c) + 1, len(c) + 1))
    lhat[1:, 0] = np.sqrt(d) * c
    lhat[1:, 1:] = g
    return lhat


def sandwich_coefficients(s: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """c with L(X) = sum_ij c_ij F_i X F_j over the full basis: P^dag unreshuffle(S) conj(P)."""
    p = basis_columns(s, basis)
    return p.conj().T @ unreshuffle(s) @ p.conj()


def rates(s: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """a = Ft^dag unreshuffle(S) conj(Ft), the traceless block of the sandwich coefficients."""
    return sandwich_coefficients(s, basis)[..., 1:, 1:]


def hamiltonian(s: np.ndarray) -> np.ndarray:
    """Hermitian H = i(B - B^dag)/2 with B = unreshuffle(S) vec(I) / d."""
    d = _dim(s)
    b = (unreshuffle(s) @ np.eye(d).ravel()).reshape(d, d) / d
    return 0.5j * (b - b.conj().T)
