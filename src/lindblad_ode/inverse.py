"""Inverse map from the coherence-vector ODE pair (G, c) back to master
equation data (H, a), the six-space bijection between the equivalent
representations of a trace-annihilating Hermiticity-preserving generator,
the G = Q + R decomposition, and image/kernel diagnostics.

Space identifiers used by `phi`:
  1: (H, a)                       MasterEqParams
  2: rank-4 tensor x              Tensor4, flavor "x"
  3: rank-4 tensor x-tilde        Tensor4, flavor "x_tilde"
  4: superoperator on all of M_d  SuperopTensor
  5: superoperator on Hermitians  SuperopTensor (same data, restricted action)
  6: (G, c)                       OdePair
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .basis import NiceBasis
from .forward import MasterEqParams, OdePair, _real, _superop, q_from_h
from .superop import SuperopTensor

_INV_TOL = 1e-10


@dataclass(frozen=True)
class Tensor4:
    """Rank-4 tensor x or x-tilde encoding a generator.

    flavor "x":       x_ijkl = conj(x_lkji) and sum_k (x_ijkk + x_kkij) = 0.
    flavor "x_tilde": x_ijkl = conj(x_lkji) and sum_i x_ijki = 0.
    """

    entries: np.ndarray
    flavor: str

    def __post_init__(self):
        t = np.asarray(self.entries, dtype=complex)
        if t.ndim != 4 or len(set(t.shape)) != 1:
            raise ValueError(f"tensor must have shape (d,d,d,d), got {t.shape}")
        if self.flavor not in ("x", "x_tilde"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        object.__setattr__(self, "entries", t)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def validate_tensor4(t: Tensor4, tol: float = _INV_TOL) -> None:
    _check_invariants(t.entries, t.flavor, tol)


def _check_invariants(x: np.ndarray, flavor: str, tol: float = _INV_TOL) -> None:
    """Raise unless x keeps the flavor's invariants; the superoperator tensors share the x-tilde layout."""
    v = float(np.max(np.abs(x - x.conj().transpose(3, 2, 1, 0)), initial=0.0))
    if flavor == "x":
        v = max(v, float(np.max(np.abs(np.einsum("ijkk->ij", x) + np.einsum("kkij->ij", x)))))
    else:
        v = max(v, float(np.max(np.abs(np.einsum("ijki->jk", x)))))
    if v > tol * max(1.0, float(np.max(np.abs(x), initial=0.0))):
        raise ValueError(
            "not a Hermiticity-preserving trace-annihilating generator: "
            f"flavor-{flavor} invariants violated by {v:.3e}"
        )


def h_from_g(g: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Traceless Hermitian H = (1/2id) sum_nm G_nm [F_m, F_n]."""
    g = np.asarray(g, dtype=float)
    j = basis.J
    if g.shape != (j, j):
        raise ValueError(f"G must be {j}x{j}, got {g.shape}")
    return core.hamiltonian(_gc_to_core(g, np.zeros(j), basis))


def a_from_gc(g: np.ndarray, c: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Hermitian a with a_mn = sum_i Tr[G~_i F_m F_i F_n], G~_i = sum_j G_ij F_j + c_i I."""
    g = np.asarray(g, dtype=float)
    c = np.asarray(c, dtype=float)
    j = basis.J
    if g.shape != (j, j) or c.shape != (j,):
        raise ValueError("G/c shapes inconsistent with basis")
    return core.rates(_gc_to_core(g, c, basis), basis)


def inverse_map(pair: OdePair, basis: NiceBasis) -> MasterEqParams:
    """Unique (traceless H, a) whose coherence-vector ODE is v' = Gv + c."""
    if pair.G.shape != (basis.J, basis.J):
        raise ValueError(f"G must be {basis.J}x{basis.J}, got {pair.G.shape}")
    return _core_to_meq(_gc_to_core(pair.G, pair.c, basis), basis)


# --- six-space maps: each space to the core superoperator S and back -------


def _core_to_meq(s: np.ndarray, basis: NiceBasis) -> MasterEqParams:
    return MasterEqParams(hamiltonian=core.hamiltonian(s), rates=core.rates(s, basis))


def _identity_legs(b: np.ndarray) -> np.ndarray:
    """b_ij delta_kl + delta_ij b_kl."""
    eye = np.eye(len(b))
    return np.einsum("ij,kl->ijkl", b, eye) + np.einsum("ij,kl->ijkl", eye, b)


def _x_to_core(t: Tensor4, basis: NiceBasis) -> np.ndarray:
    # x lacks the anticommutator term -1/2 {K, X}; its partial trace is K
    k = np.einsum("jkij->ik", t.entries)
    return core.from_tensor(t.entries - 0.5 * _identity_legs(k))


def _b_from_xt(xt: np.ndarray, d: int) -> np.ndarray:
    tr_full = np.einsum("llkk->", xt)
    b = np.einsum("ijkk->ij", xt) + np.einsum("kkij->ij", xt) - (tr_full / d) * np.eye(d)
    return b / (2 * d)


def _core_to_x(s: np.ndarray, basis: NiceBasis) -> Tensor4:
    xt = core.to_tensor(s)
    return Tensor4(entries=xt - _identity_legs(_b_from_xt(xt, basis.dim)), flavor="x")


def _gc_to_core(g: np.ndarray, c: np.ndarray, basis: NiceBasis) -> np.ndarray:
    return core.from_coordinates(core.gc_coordinates(g, c, basis.dim), basis)


def _core_to_gc(s: np.ndarray, basis: NiceBasis) -> OdePair:
    lhat = _real(core.coordinates(s, basis)[1:], "(G, c) of the superoperator", tol=1e-9)
    return OdePair(G=lhat[:, 1:], c=lhat[:, 0] / np.sqrt(basis.dim))


# The x-tilde tensor (space 3) and the superoperator tensors (spaces 4 and 5)
# share one layout: xt_ijkl = T[i,j,k,l] = [L(|j><k|)]_il.
_TO_CORE = {
    1: _superop,
    2: _x_to_core,
    3: lambda t, b: core.from_tensor(t.entries),
    4: lambda t, b: core.from_tensor(t.entries),
    5: lambda t, b: core.from_tensor(t.entries),
    6: lambda p, b: _gc_to_core(p.G, p.c, b),
}

_FROM_CORE = {
    1: _core_to_meq,
    2: _core_to_x,
    3: lambda s, b: Tensor4(entries=core.to_tensor(s), flavor="x_tilde"),
    4: lambda s, b: SuperopTensor(entries=core.to_tensor(s)),
    5: lambda s, b: SuperopTensor(entries=core.to_tensor(s)),
    6: _core_to_gc,
}

# the type of each space's values and, for the tensors, the layout of their invariants
_SPACES = {
    1: (MasterEqParams, None),
    2: (Tensor4, "x"),
    3: (Tensor4, "x_tilde"),
    4: (SuperopTensor, "x_tilde"),
    5: (SuperopTensor, "x_tilde"),
    6: (OdePair, None),
}


def phi(src: int, dst: int, value, basis: NiceBasis):
    """Apply the bijection between generator representations.

    src and dst are space identifiers 1..6 (see module docstring). Every
    request goes from src to the core superoperator and from there to dst.
    """
    for s in (src, dst):
        if s not in _SPACES:
            raise ValueError(f"space identifier must be 1..6, got {s}")
    kind, layout = _SPACES[src]
    if not isinstance(value, kind):
        raise ValueError(f"space {src} values must be {kind.__name__}, got {type(value).__name__}")
    if isinstance(value, Tensor4) and value.flavor != layout:
        raise ValueError(f"space {src} expects flavor {layout!r}, got {value.flavor!r}")
    if src == 6 and value.G.shape != (basis.J, basis.J):
        raise ValueError(f"space 6 value has G of shape {value.G.shape}, the basis has dimension {basis.dim}")
    if src != 6 and value.dim != basis.dim:
        raise ValueError(f"space {src} value has dimension {value.dim}, the basis has dimension {basis.dim}")
    if layout:
        _check_invariants(value.entries, layout)
    return _FROM_CORE[dst](_TO_CORE[src](value, basis), basis)


# --- decomposition and image diagnostics ----------------------------------


def decompose_g(g: np.ndarray, basis: NiceBasis) -> tuple[np.ndarray, np.ndarray]:
    """Split G into the Hamiltonian part Q = q_from_h(h_from_g(G)) and the dissipative part R = G - Q.

    For d >= 3 Q generally differs from the antisymmetric part of G.
    """
    q = q_from_h(h_from_g(g, basis), basis)
    return q, np.asarray(g, dtype=float) - q


def r_image_check(r: np.ndarray, basis: NiceBasis, tol: float = 1e-9) -> bool:
    """True iff sum_mn R_mn [F_n, F_m] = 2id H(R) vanishes, i.e. R lies in the image of a -> R."""
    r = np.asarray(r, dtype=float)
    s = 2 * basis.dim * float(np.max(np.abs(h_from_g(r, basis)), initial=0.0))
    return s <= tol * max(1.0, float(np.max(np.abs(r), initial=0.0)))


def image_dimensions(basis: NiceBasis) -> tuple[int, int, int]:
    """Ranks of the linearized map a -> (R, c) over Hermitian a.

    Returns (dimension of the image of a -> R, dimension of its intersection
    with the antisymmetric matrices, kernel dimension of a -> (R, c)).
    """
    j = basis.J
    # a -> (G, c) is a bijection (kernel 0); the image of a -> R is the kernel of the onto map
    # R -> H(R) of r_image_check (J fewer dimensions), which stays onto on the antisymmetric
    # matrices because H(q_from_h(H)) = H
    return j * j - j, j * (j - 1) // 2 - j, 0
