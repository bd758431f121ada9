"""Inverse map from the coherence-vector ODE pair (G, c) back to master
equation data (H, a), the six-space bijection between the equivalent
representations of a trace-annihilating Hermiticity-preserving generator,
the G = Q + R decomposition, and the image condition on R.

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

from . import core, tolerance
from .basis import NiceBasis, _built, _finite, _numbers
from .forward import MasterEqParams, OdePair, _core_to_gc, _core_to_meq, _superop
from .superop import SuperopTensor, _rank4


@dataclass(frozen=True)
class Tensor4:
    """Rank-4 tensor x or x-tilde encoding a generator.

    flavor "x":       x_ijkl = conj(x_lkji) and sum_k (x_ijkk + x_kkij) = 0.
    flavor "x_tilde": x_ijkl = conj(x_lkji) and sum_i x_ijki = 0.
    """

    entries: np.ndarray
    flavor: str

    def __post_init__(self):
        t = _rank4(self.entries)
        if self.flavor not in ("x", "x_tilde"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        object.__setattr__(self, "entries", t)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _check_invariants(x: np.ndarray, flavor: str) -> None:
    """Raise unless x keeps the flavor's invariants up to a negligible residue (tolerance.TENSOR);
    the superoperator tensors share the x-tilde layout."""
    v = tolerance.magnitude(x - x.conj().transpose(3, 2, 1, 0))
    if flavor == "x":
        v = max(v, tolerance.magnitude(np.einsum("ijkk->ij", x) + np.einsum("kkij->ij", x)))
    else:
        v = max(v, tolerance.magnitude(np.einsum("ijki->jk", x)))
    if not tolerance.negligible(v, x, tolerance.TENSOR):
        raise ValueError(
            "not a Hermiticity-preserving trace-annihilating generator: "
            f"flavor-{flavor} invariants violated by {v:.3e}"
        )


def h_from_g(g: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Traceless Hermitian H = (1/2id) sum_nm G_nm [F_m, F_n]; G is read as OdePair reads it."""
    return _with_hamiltonian(g, "G", basis)[1]


def a_from_gc(g: np.ndarray, c: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Hermitian a with a_mn = sum_i Tr[G~_i F_m F_i F_n], G~_i = sum_j G_ij F_j + c_i I."""
    return _rates(OdePair(G=g, c=c), basis)


def _rates(pair: OdePair, basis: NiceBasis) -> np.ndarray:
    """The rate matrix a of (G, c); ValueError unless it is finite."""
    with np.errstate(all="ignore"):
        return _finite(core.rates(_gc_to_core(pair, basis), basis), "rate matrix a of (G, c)")


def inverse_map(pair: OdePair, basis: NiceBasis) -> MasterEqParams:
    """Unique (traceless H, a) whose coherence-vector ODE is v' = Gv + c: phi(6, 1)."""
    return phi(6, 1, pair, basis)


# --- six-space maps: each space to the core superoperator S and back -------
_TENSOR = "tensor of the superoperator"


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
    return _built(Tensor4, _TENSOR, entries=xt - _identity_legs(_b_from_xt(xt, basis.dim)), flavor="x")


def _gc_to_core(pair: OdePair, basis: NiceBasis) -> np.ndarray:
    # checks G itself, so that a mismatch names the shape of G, not that of the Lhat built from it
    core.basis_columns(pair.G, basis, 1)
    return core.from_coordinates(core.gc_coordinates(pair.G, pair.c, basis.dim), basis)


def _tensor_to_core(t, basis: NiceBasis) -> np.ndarray:
    return core.from_tensor(t.entries)


# Each space once: the type of its values, the layout of their invariants (tensors only), the map
# to the core superoperator S and the map back. The x-tilde tensor (space 3) and the superoperator
# tensors (spaces 4 and 5) share one layout: xt_ijkl = T[i,j,k,l] = [L(|j><k|)]_il.
_SUPEROP = (
    SuperopTensor, "x_tilde", _tensor_to_core, lambda s, b: _built(SuperopTensor, _TENSOR, entries=core.to_tensor(s))
)
_SPACES = {
    1: (MasterEqParams, None, _superop, _core_to_meq),
    2: (Tensor4, "x", _x_to_core, _core_to_x),
    3: (Tensor4, "x_tilde", _tensor_to_core,
        lambda s, b: _built(Tensor4, _TENSOR, entries=core.to_tensor(s), flavor="x_tilde")),
    4: _SUPEROP,
    5: _SUPEROP,
    6: (OdePair, None, _gc_to_core, _core_to_gc),
}


def phi(src: int, dst: int, value, basis: NiceBasis):
    """Apply the bijection between generator representations.

    src and dst are space identifiers 1..6 (see module docstring). Every
    request goes from src to the core superoperator and from there to dst.
    """
    for s in (src, dst):
        if s not in _SPACES:
            raise ValueError(f"space identifier must be 1..6, got {s}")
    kind, layout, to_core, _ = _SPACES[src]
    if not isinstance(value, kind):
        raise ValueError(f"space {src} values must be {kind.__name__}, got {type(value).__name__}")
    if isinstance(value, Tensor4) and value.flavor != layout:
        raise ValueError(f"space {src} expects flavor {layout!r}, got {value.flavor!r}")
    if src != 6 and value.dim != basis.dim:
        raise ValueError(f"space {src} value has dimension {value.dim}, the basis has dimension {basis.dim}")
    if layout:
        _check_invariants(value.entries, layout)
    with np.errstate(all="ignore"):  # each map back builds its value with basis._built, which refuses overflow
        return _SPACES[dst][3](to_core(value, basis), basis)


# --- decomposition and the image condition ---------------------------------


def decompose_g(g: np.ndarray, basis: NiceBasis) -> tuple[np.ndarray, np.ndarray]:
    """Split G into the Hamiltonian part Q = q_from_h(h_from_g(G)) and the dissipative part R = G - Q.

    G is read as OdePair reads it; ValueError when H, Q or R overflows. For d >= 3 Q generally differs
    from the antisymmetric part of G.
    """
    g, h = _with_hamiltonian(g, "G", basis)
    with np.errstate(all="ignore"):
        q = _core_to_gc(core.hamiltonian_superop(h), basis).G
        return q, _finite(g - q, "R = G - Q")


def r_image_check(r: np.ndarray, basis: NiceBasis) -> bool:
    """True iff sum_mn R_mn [F_n, F_m] = 2id H(R) is negligible at the scale of R (tolerance.DATA),
    i.e. R lies in the image of a -> R; R is read as OdePair reads G."""
    r, h = _with_hamiltonian(r, "R", basis)
    return tolerance.negligible(2 * basis.dim * tolerance.magnitude(h), r, tolerance.DATA)


def _with_hamiltonian(g, what: str, basis: NiceBasis) -> tuple[np.ndarray, np.ndarray]:
    """(G, h_from_g(G)) of the real square operand what, which passes the gate once; ValueError unless H is finite."""
    g = _numbers(g, what, float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"{what} must be square, got {g.shape}")
    with np.errstate(all="ignore"):
        h = core.hamiltonian(_gc_to_core(_built(OdePair, None, G=g, c=np.zeros(len(g))), basis))
    return g, _finite(h, f"H of {what}")
