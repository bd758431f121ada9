"""Forward map: from master-equation data (H, a) to the coherence-vector
ODE v' = G v + c, the full Liouvillian matrix, and the diagonal form of
the dissipator.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core, tolerance
from .basis import NiceBasis, _built, _finite, _hermitian, _numbers, _real


@dataclass(frozen=True)
class MasterEqParams:
    """Pair (H, a): traceless Hermitian Hamiltonian and Hermitian rate matrix.

    H has shape (d, d) for some d >= 1 and a shape (J, J), J = d^2 - 1, else ValueError. Each is stored as its
    Hermitian part, once its Hermiticity defect is negligible at tolerance.DATA. H is made traceless by
    subtracting (Tr H / d) I, recorded in trace_shift, which is not an argument.
    """

    hamiltonian: np.ndarray
    rates: np.ndarray
    trace_shift: float = field(init=False)

    def __post_init__(self):
        h = _numbers(self.hamiltonian, "Hamiltonian H", shape=("n", "n"))
        if not len(h):  # d = 0 is no Hilbert space, and would ask a of shape (-1, -1)
            raise ValueError("Hamiltonian H must have shape (n, n) with n >= 1, got (0, 0)")
        a = _numbers(self.rates, "rate matrix a", shape=(len(h) ** 2 - 1,) * 2)
        for name, value in _normal_form(_hermitian(h, "Hamiltonian"), _hermitian(a, "rate matrix")).items():
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def _normal_form(h: np.ndarray, a: np.ndarray) -> dict:
    """The fields of MasterEqParams from Hermitian h and a: h less (Tr h / d) I, a, and that trace_shift."""
    shift = np.trace(h).real / len(h)
    return {"hamiltonian": h - shift * np.eye(len(h)), "rates": a, "trace_shift": float(shift)}


@dataclass(frozen=True)
class OdePair:
    """Real pair (G, c) defining v' = G v + c.

    G and c pass basis._numbers as real operands of shapes (n, n) and (n,): a negligible imaginary part
    (tolerance.DATA) is dropped, and ValueError names a larger one. G = Q + R splits by q_from_h and
    r_from_a, or decompose_g.
    """

    G: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        g = _numbers(self.G, "G", float, finite="G and c", shape=("n", "n"))
        c = _numbers(self.c, "c", float, finite="G and c", shape=(len(g),))
        object.__setattr__(self, "G", g)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class DiagonalDissipator:
    """Diagonal form of the dissipator: rates gamma_alpha and operators L_alpha.

    gamma is sorted descending; entries may be negative when the master
    equation is Markovian but not completely positive.
    """

    gamma: np.ndarray
    lindblad_ops: list[np.ndarray]


def apply_dissipator(a: np.ndarray, x: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """L(X) = sum_ij a_ij (F_i X F_j - 1/2 {F_j F_i, X}); a need not be Hermitian here. Raises ValueError
    when L(X) is not finite."""
    a = _numbers(a, "rate matrix a", shape=("n", "n"))
    with np.errstate(all="ignore"):
        return _finite(core.apply(core.dissipator_superop(a, basis), x), "L(X)")


def _superop(params: MasterEqParams, basis: NiceBasis) -> np.ndarray:
    """The core superoperator S of (H, a)."""
    return core.hamiltonian_superop(params.hamiltonian) + core.dissipator_superop(params.rates, basis)


def _core_to_gc(s: np.ndarray, basis: NiceBasis) -> OdePair:
    """(G, c) of S, the rows 1..J of Lhat, finite and real at tolerance.DATA; callers run it under np.errstate."""
    what = "(G, c) of the superoperator"
    lhat = _real(_finite(core.coordinates(s, basis)[1:], what), what)
    return _built(OdePair, None, G=lhat[:, 1:], c=lhat[:, 0] / np.sqrt(basis.dim))


def _core_to_meq(s: np.ndarray, basis: NiceBasis) -> MasterEqParams:
    """MasterEqParams' normal form of the H and a of S, Hermitian by construction (a up to rounding)."""
    h, a = core.hamiltonian(s), core.rates(s, basis)
    a = (a + a.conj().T) / 2 if (a - a.conj().T).any() else a
    return _built(MasterEqParams, "(H, a) of the superoperator", **_normal_form(h, a))


def q_from_h(h: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Antisymmetric Q with Q_ij = -i Tr(F_i [H, F_j]), the G of H alone; H is read as MasterEqParams reads it."""
    h = _hermitian(_numbers(h, "Hamiltonian H", shape=("n", "n")), "Hamiltonian")
    with np.errstate(all="ignore"):
        return _core_to_gc(core.hamiltonian_superop(h), basis).G


def r_from_a(a: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """R_kl = sum_ij a_ij Tr[F_k (F_i F_l F_j - 1/2 {F_j F_i, F_l})], the G of a alone, read as MasterEqParams does."""
    return _dissipator_gc(a, basis).G


def c_from_a(a: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """c_k = (1/d) sum_ij a_ij Tr([F_i, F_j] F_k); a is read as MasterEqParams reads it."""
    return _dissipator_gc(a, basis).c


def _dissipator_gc(a, basis: NiceBasis) -> OdePair:
    a = _numbers(a, "rate matrix a", shape=("n", "n"))
    core.basis_columns(a, basis, 1)
    with np.errstate(all="ignore"):
        return _core_to_gc(core.dissipator_superop(_hermitian(a, "rate matrix"), basis), basis)


def forward_map(params: MasterEqParams, basis: NiceBasis) -> OdePair:
    """Map (H, a) to the ODE pair (G, c) as phi(1, 6) does; G = q_from_h(H) + r_from_a(a) up to rounding."""
    with np.errstate(all="ignore"):
        return _core_to_gc(_superop(params, basis), basis)


def liouvillian_matrix(params: MasterEqParams, basis: NiceBasis) -> np.ndarray:
    """(J+1)x(J+1) real matrix of L: zero top row, sqrt(d) c left column, G block."""
    pair = forward_map(params, basis)
    return core.gc_coordinates(pair.G, pair.c, basis.dim)


def _canonical_eig_order(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues with deterministic eigenvector phases and order.

    Each eigenvector is rotated so its largest-magnitude component is real
    and positive; the columns of a cluster of eigenvalues within the
    scale-invariant cut of each other are then sorted lexicographically by
    their rounded components, largest first.
    """
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    # eigenvectors have unit norm, so no pivot is zero; np.hypot rounds like
    # the scalar abs() of the per-column reference, np.abs of a complex array
    # can differ from it in the last bit
    v = v / (pivot / np.hypot(pivot.real, pivot.imag))
    # stable tie-break inside degenerate clusters
    gap = tolerance.cut(w, tolerance.ROUNDING)
    if not np.any(w[:-1] - w[1:] <= gap):
        return w, v
    vals = w.tolist()
    i = 0
    while i < len(vals):
        jend = i + 1
        while jend < len(vals) and abs(vals[jend] - vals[i]) <= gap:
            jend += 1
        if jend - i > 1:
            # keys: Re and Im of row 0, then of row 1, ...; lexsort's primary key is its last row, and
            # negated keys sort in descending order with ties kept in place
            block = np.round(v[:, i:jend], 9)
            keys = np.stack([block.real, block.imag], axis=1).reshape(-1, jend - i)
            v[:, i:jend] = v[:, i + np.lexsort(-keys[::-1])]
        i = jend
    return w, v


def diagonalize_dissipator(a: np.ndarray, basis: NiceBasis) -> DiagonalDissipator:
    """Diagonal form a = u^dag gamma u; L_alpha = sum_j u*_aj F_j.

    Eigenvalues at or below the scale-invariant cut tolerance.ROUNDING * ||a||
    in magnitude are reported as exact zeros. Raises ValueError when a is not a finite
    J x J matrix, or not Hermitian at tolerance.DATA (eigh would read only its lower
    triangle), or when an eigenvalue overflows.
    """
    a = _numbers(a, "rate matrix a", shape=("n", "n"))
    core.basis_columns(a, basis, 1)
    _hermitian(a, "rate matrix")
    w, v = np.linalg.eigh(a)
    return _diagonal_form(_finite(w, "eigenvalue of the rate matrix a"), v, basis)


def _diagonal_form(w: np.ndarray, v: np.ndarray, basis: NiceBasis, floor: float = 0.0) -> DiagonalDissipator:
    """diagonalize_dissipator from the ascending eigh output (w, v) of a; rates up to floor are zeroed too."""
    if not basis.J:
        return DiagonalDissipator(gamma=np.zeros(0), lindblad_ops=[])
    w, v = _canonical_eig_order(w, v)
    # the spectral norm of the Hermitian a is its largest |eigenvalue|
    w = np.where(np.abs(w) <= max(tolerance.cut(w, tolerance.ROUNDING), floor), 0.0, w)
    ops = list(v.T.dot(basis.traceless.reshape(basis.J, -1)).reshape(-1, basis.dim, basis.dim))
    return DiagonalDissipator(gamma=w, lindblad_ops=ops)
