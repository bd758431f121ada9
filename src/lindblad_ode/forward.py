"""Forward map: from master-equation data (H, a) to the coherence-vector
ODE v' = G v + c, the full Liouvillian matrix, and the diagonal form of
the dissipator.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core, tolerance
from .basis import NiceBasis, _finite


@dataclass(frozen=True)
class MasterEqParams:
    """Pair (H, a): traceless Hermitian Hamiltonian and Hermitian rate matrix.

    H is made traceless on construction by subtracting (Tr H / d) I; the
    subtracted constant is recorded in trace_shift, which is not an argument.
    """

    hamiltonian: np.ndarray
    rates: np.ndarray
    trace_shift: float = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        a = np.asarray(self.rates, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"Hamiltonian must be square, got {h.shape}")
        d = h.shape[0]
        j = d**2 - 1
        if a.shape != (j, j):
            raise ValueError(f"rate matrix must be {j}x{j} for dimension {d}, got {a.shape}")
        if not (np.isfinite(h).all() and np.isfinite(a).all()):
            raise ValueError("H and a must be finite")
        if not tolerance.negligible(h - h.conj().T, h, tolerance.DATA):
            raise ValueError("Hamiltonian is not Hermitian")
        if not tolerance.negligible(a - a.conj().T, a, tolerance.DATA):
            raise ValueError("rate matrix is not Hermitian")
        shift = np.trace(h).real / d
        object.__setattr__(self, "hamiltonian", h - shift * np.eye(d))
        object.__setattr__(self, "rates", a)
        object.__setattr__(self, "trace_shift", float(shift))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class OdePair:
    """Real pair (G, c) defining v' = G v + c.

    Q and R carry the Hamiltonian/dissipative decomposition G = Q + R when
    the pair was produced by forward_map; both are None otherwise. A complex
    G or c is finite and real up to a negligible imaginary part (tolerance.DATA),
    which is dropped; otherwise ValueError names the residue.
    """

    G: np.ndarray
    c: np.ndarray
    Q: np.ndarray | None = field(default=None, compare=False)
    R: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        dtype = complex if np.iscomplexobj(self.G) or np.iscomplexobj(self.c) else float
        g, c = np.asarray(self.G, dtype=dtype), np.asarray(self.c, dtype=dtype)
        if not (np.isfinite(g).all() and np.isfinite(c).all()):
            raise ValueError("G and c must be finite")
        if dtype is complex:
            g, c = _real(g, "G", tolerance.DATA), _real(c, "c", tolerance.DATA)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"G must be square, got {g.shape}")
        if c.shape != (g.shape[0],):
            raise ValueError(f"c must have length {g.shape[0]}, got {c.shape}")
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
    """sum_ij a_ij (F_i X F_j - 1/2 {F_j F_i, X}); a need not be Hermitian here."""
    return core.apply(core.dissipator_superop(_finite(a, "rate matrix a"), basis), x)


def apply_liouvillian(params: MasterEqParams, x: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """L(X) = -i[H, X] + sum_ij a_ij (F_i X F_j - 1/2 {F_j F_i, X})."""
    return core.apply(_superop(params, basis), x)


def _superop(params: MasterEqParams, basis: NiceBasis) -> np.ndarray:
    """The core superoperator S of (H, a)."""
    return core.hamiltonian_superop(params.hamiltonian) + core.dissipator_superop(params.rates, basis)


def _real(m: np.ndarray, what: str, rtol: float = tolerance.ROUNDING) -> np.ndarray:
    """Re m, once its imaginary residue is negligible at the scale of m."""
    if not tolerance.negligible(m.imag, m, rtol):
        raise ValueError(f"{what} has imaginary residue {tolerance.magnitude(m.imag):.3e}")
    return m.real.copy()


def q_from_h(h: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Antisymmetric Q with Q_ij = -i Tr(F_i [H, F_j])."""
    s = core.hamiltonian_superop(_finite(h, "Hamiltonian H"))
    return _real(core.coordinates(s, basis)[1:, 1:], "Q")


def r_from_a(a: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """R_kl = sum_ij a_ij Tr[F_k (F_i F_l F_j - 1/2 {F_j F_i, F_l})]."""
    return _dissipator_rc(a, basis)[0]


def c_from_a(a: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """c_k = (1/d) sum_ij a_ij Tr([F_i, F_j] F_k)."""
    return _dissipator_rc(a, basis)[1]


def _dissipator_rc(a: np.ndarray, basis: NiceBasis) -> tuple[np.ndarray, np.ndarray]:
    """(R, c) of the dissipator, declared real together so that c is judged on the scale of R."""
    s = core.dissipator_superop(_finite(a, "rate matrix a"), basis)
    lhat = _real(core.coordinates(s, basis)[1:], "(R, c)")
    return lhat[:, 1:], lhat[:, 0] / np.sqrt(basis.dim)


def forward_map(params: MasterEqParams, basis: NiceBasis) -> OdePair:
    """Map (H, a) to the ODE pair (G = Q + R, c)."""
    q = q_from_h(params.hamiltonian, basis)
    r, c = _dissipator_rc(params.rates, basis)
    return OdePair(G=q + r, c=c, Q=q, R=r)


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
    in magnitude are reported as exact zeros. Raises ValueError when a is not finite.
    """
    a = _finite(a, "rate matrix a")
    core.basis_columns(a, basis, 1)
    return _diagonal_form(*np.linalg.eigh(a), basis)


def _diagonal_form(w: np.ndarray, v: np.ndarray, basis: NiceBasis, floor: float = 0.0) -> DiagonalDissipator:
    """diagonalize_dissipator from the ascending eigh output (w, v) of a; rates up to floor are zeroed too."""
    if not basis.J:
        return DiagonalDissipator(gamma=np.zeros(0), lindblad_ops=[])
    w, v = _canonical_eig_order(w, v)
    # the spectral norm of the Hermitian a is its largest |eigenvalue|
    w = np.where(np.abs(w) <= max(tolerance.cut(w, tolerance.ROUNDING), floor), 0.0, w)
    ops = list(v.T.dot(basis.traceless.reshape(basis.J, -1)).reshape(-1, basis.dim, basis.dim))
    return DiagonalDissipator(gamma=w, lindblad_ops=ops)
