"""Inverse map from the coherence-vector ODE pair (G, c) back to master
equation data (H, a), the bijection between the equivalent representations
of a superoperator, with one action and one adjoint through them, the
G = Q + R decomposition, and the image condition on R.

Space identifiers used by `phi`; spaces 1, 2, 3 and 6 hold trace-annihilating
Hermiticity-preserving generators only, spaces 4, 5, 7 and 8 any superoperator:
  1: (H, a)                       MasterEqParams
  2: rank-4 tensor x              Tensor4
  3: rank-4 tensor x-tilde        SuperopTensor, read as a generator's
  4: superoperator on all of M_d  SuperopTensor
  5: superoperator on Hermitians  SuperopTensor (same data, restricted action)
  6: (G, c)                       OdePair
  7: coordinate matrix            SuperopMatrix
  8: sandwich coefficients        FAFRep
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, tolerance
from .basis import NiceBasis, _built, _finite, _numbers
from .forward import MasterEqParams, OdePair, _core_to_gc, _core_to_meq, _superop


@dataclass(frozen=True)
class _Tensor:
    """A rank-4 tensor over matrix units; Tensor4 and SuperopTensor read it in two ways."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _numbers(self.entries, "tensor", shape=("n",) * 4))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Tensor4(_Tensor):
    """Rank-4 tensor x encoding a generator: x_ijkl = conj(x_lkji) and sum_k (x_ijkk + x_kkij) = 0."""


@dataclass(frozen=True)
class SuperopTensor(_Tensor):
    """Rank-4 tensor T of any superoperator E, (E(A))_kn = sum_lm T[k,l,m,n] A[l,m].

    Equivalently T[k,l,m,n] = E(|l><m|)[k,n]. For a generator it is the tensor x-tilde:
    xt_ijkl = conj(xt_lkji) and sum_i xt_ijki = 0.
    """


@dataclass(frozen=True)
class SuperopMatrix:
    """Coordinate matrix E_ij = <F_i, E(F_j)> of any superoperator E over the full nice basis.

    Real entries exactly when E is Hermiticity-preserving.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _numbers(self.entries, "matrix", shape=("n", "n")))


@dataclass(frozen=True)
class FAFRep:
    """Coefficients c_ij of E(A) = sum_ij c_ij F_i A F_j over the full basis, for any superoperator E.

    c is real-symmetric exactly when E is both Hermiticity-preserving and Hermitian.
    """

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _numbers(self.c, "coefficient matrix", shape=("n", "n")))


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


# --- the spaces of phi: each to the core superoperator S and back --------------
_TENSOR = "tensor of the superoperator"


def _identity_legs(b: np.ndarray) -> np.ndarray:
    """b_ij delta_kl + delta_ij b_kl."""
    eye = np.eye(len(b))
    return np.einsum("ij,kl->ijkl", b, eye) + np.einsum("ij,kl->ijkl", eye, b)


def _x_to_core(t: Tensor4, basis: NiceBasis) -> np.ndarray:
    # x lacks the anticommutator term -1/2 {K, X}; its partial trace is K
    k = np.einsum("jkij->ik", t.entries)
    return core.from_tensor(t.entries - 0.5 * _identity_legs(k))


def _core_to_x(s: np.ndarray, basis: NiceBasis) -> Tensor4:
    xt, d = core.to_tensor(s), basis.dim
    # the identity legs of b that take x-tilde to x, which keeps sum_k (x_ijkk + x_kkij) = 0
    b = np.einsum("ijkk->ij", xt) + np.einsum("kkij->ij", xt) - (np.einsum("llkk->", xt) / d) * np.eye(d)
    return _built(Tensor4, _TENSOR, entries=xt - _identity_legs(b / (2 * d)))


def _gc_to_core(pair: OdePair, basis: NiceBasis) -> np.ndarray:
    # checks G itself, so that a mismatch names the shape of G, not that of the Lhat built from it
    core.basis_columns(pair.G, basis, 1)
    return core.from_coordinates(core.gc_coordinates(pair.G, pair.c, basis.dim), basis)


# Each space once: the type of its values; the flavor of the tensor invariants they must keep, if any;
# the map to the core superoperator S and the map back; and its adjoint S^dag in the space's own layout,
# exact there, for a space of any superoperator, or None for a space of generators. Space 3 reads the
# superoperator tensor of spaces 4 and 5 as the x-tilde tensor: xt_ijkl = T[i,j,k,l] = [L(|j><k|)]_il.
_TENSOR_MAPS = (
    lambda t, b: core.from_tensor(t.entries), lambda s, b: _built(SuperopTensor, _TENSOR, entries=core.to_tensor(s))
)
_SUPEROP = (
    SuperopTensor, None, *_TENSOR_MAPS,
    lambda t: _built(SuperopTensor, None, entries=t.entries.conj().transpose(1, 0, 3, 2)),
)
_SPACES = {
    1: (MasterEqParams, None, _superop, _core_to_meq, None),
    2: (Tensor4, "x", _x_to_core, _core_to_x, None),
    3: (SuperopTensor, "x_tilde", *_TENSOR_MAPS, None),
    4: _SUPEROP,
    5: _SUPEROP,
    6: (OdePair, None, _gc_to_core, _core_to_gc, None),
    7: (SuperopMatrix, None, lambda m, b: core.from_coordinates(m.entries, b),
        lambda s, b: _built(SuperopMatrix, "matrix E", entries=core.coordinates(s, b)),
        lambda m: _built(SuperopMatrix, None, entries=m.entries.conj().T)),
    8: (FAFRep, None, lambda r, b: core.from_sandwich_coefficients(r.c, b),
        lambda s, b: _built(FAFRep, "coefficient matrix c", c=core.sandwich_coefficients(s, b)),
        lambda r: _built(FAFRep, None, c=r.c.conj())),
}


def phi(src: int, dst: int, value, basis: NiceBasis):
    """Apply the bijection between superoperator representations.

    src and dst are space identifiers 1..8 (see module docstring). Every request goes from src to the
    core superoperator S and from there to dst. A value of space 2 or 3 must keep the tensor invariants
    of x or x-tilde, and an S read from a space of any superoperator into one of generators must keep the
    x-tilde invariants (tolerance.TENSOR); otherwise ValueError.
    """
    for s in (src, dst):
        if s not in _SPACES:
            raise ValueError(f"space identifier must be 1..8, got {s}")
    with np.errstate(all="ignore"):  # each map back builds its value with basis._built, which refuses overflow
        s = _to_core(src, value, basis)
        if _SPACES[dst][4] is None and _SPACES[src][4] is not None:
            # a tensor is checked as it is; a matrix of space 7 or 8 on the tensor of its S, which may overflow
            xt = value.entries if isinstance(value, SuperopTensor) else _finite(core.to_tensor(s), _TENSOR)
            _check_invariants(xt, "x_tilde")
        return _SPACES[dst][3](s, basis)


def _to_core(src: int, value, basis: NiceBasis) -> np.ndarray:
    """The core superoperator S of a value of space src, once it is a value of that space; callers run
    it under np.errstate."""
    kind, flavor, to_core, _, _ = _SPACES[src]
    if not isinstance(value, kind):
        raise ValueError(f"space {src} values must be {kind.__name__}, got {type(value).__name__}")
    # the core checks (G, c) and the coordinate matrices against the basis, in the same words
    if getattr(value, "dim", basis.dim) != basis.dim:
        raise ValueError(f"operand of dimension {value.dim} does not match the basis of dimension {basis.dim}")
    if flavor:
        _check_invariants(value.entries, flavor)
    return to_core(value, basis)


def _space_of(value) -> int:
    """The last space whose values have the type of value: for a SuperopTensor, a space of any superoperator."""
    for space, (kind, *_) in reversed(_SPACES.items()):
        if isinstance(value, kind):
            return space
    raise ValueError(f"no space of phi holds a {type(value).__name__}")


def apply(value, x: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """L(X) = S @ vec(X), with S the core superoperator of value, a value of any space of phi (found by
    its type); raises ValueError when L(X) is not finite."""
    with np.errstate(all="ignore"):
        return _finite(core.apply(_to_core(_space_of(value), value, basis), x), "L(X)")


def adjoint(value):
    """The adjoint map S^dag, <E'(A), B> = <A, E(B)> in the Hilbert-Schmidt sense, in the space of value;
    ValueError for a space of generators, as the adjoint of a generator is one only when it is unital."""
    space = _space_of(value)
    if _SPACES[space][4] is None:
        raise ValueError(f"space {space} holds generators only, and the adjoint of a generator is not one in general")
    return _SPACES[space][4](value)


def superop_matrix(t: SuperopTensor, basis: NiceBasis) -> SuperopMatrix:
    """E_ij = Tr[F_i E(F_j)]: phi(4, 7); raises ValueError when the matrix E is not finite."""
    return phi(4, 7, t, basis)


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
    """(G, h_from_g(G)) of the real (n, n) operand what, which passes the gate once; ValueError unless H is finite."""
    g = _numbers(g, what, float, shape=("n", "n"))
    with np.errstate(all="ignore"):
        h = core.hamiltonian(_gc_to_core(_built(OdePair, None, G=g, c=np.zeros(len(g))), basis))
    return g, _finite(h, f"H of {what}")
