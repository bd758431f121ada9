"""Forward map: from master-equation data (H, a) to the coherence-vector
ODE v' = G v + c, the full Liouvillian matrix, and the diagonal form of
the dissipator.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .basis import DATA_TOL, NiceBasis

_REAL_TOL = 1e-12


@dataclass(frozen=True)
class MasterEqParams:
    """Pair (H, a): traceless Hermitian Hamiltonian and Hermitian rate matrix.

    H is made traceless on construction by subtracting (Tr H / d) I; the
    subtracted constant is recorded in trace_shift.
    """

    hamiltonian: np.ndarray
    rates: np.ndarray
    trace_shift: float = 0.0

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        a = np.asarray(self.rates, dtype=complex)
        d = h.shape[0]
        if h.shape != (d, d):
            raise ValueError(f"Hamiltonian must be square, got {h.shape}")
        j = d**2 - 1
        if a.shape != (j, j):
            raise ValueError(f"rate matrix must be {j}x{j} for dimension {d}, got {a.shape}")
        if np.max(np.abs(h - h.conj().T), initial=0.0) > DATA_TOL:
            raise ValueError("Hamiltonian is not Hermitian")
        if np.max(np.abs(a - a.conj().T), initial=0.0) > DATA_TOL:
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
    the pair was produced by forward_map; both are None otherwise.
    """

    G: np.ndarray
    c: np.ndarray
    Q: np.ndarray | None = field(default=None, compare=False)
    R: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        g = np.asarray(self.G, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"G must be square, got {g.shape}")
        if c.shape != (g.shape[0],):
            raise ValueError(f"c must have length {g.shape[0]}, got {c.shape}")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(c))):
            raise ValueError("G and c must be finite")
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


@dataclass(frozen=True)
class DissipatorSymmetryReport:
    """The equivalent symmetry conditions on a dissipator, evaluated numerically.

    The first four fields are the equivalent characterizations of a Hermitian
    dissipator; r_symmetric_and_c_zero is the ODE-side restatement.
    """

    superop_hermitian: bool
    hermitian_lindblad_possible: bool
    rates_symmetric: bool
    rates_real: bool
    r_symmetric_and_c_zero: bool

    @property
    def all_agree(self) -> bool:
        vals = (
            self.superop_hermitian,
            self.hermitian_lindblad_possible,
            self.rates_symmetric,
            self.rates_real,
            self.r_symmetric_and_c_zero,
        )
        return all(vals) or not any(vals)


def apply_dissipator(a: np.ndarray, x: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """sum_ij a_ij (F_i X F_j - 1/2 {F_j F_i, X}); a need not be Hermitian here."""
    return core.apply(core.dissipator_superop(np.asarray(a, dtype=complex), basis), x)


def apply_liouvillian(params: MasterEqParams, x: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """L(X) = -i[H, X] + sum_ij a_ij (F_i X F_j - 1/2 {F_j F_i, X})."""
    return core.apply(_superop(params, basis), x)


def _superop(params: MasterEqParams, basis: NiceBasis) -> np.ndarray:
    """The core superoperator S of (H, a)."""
    return core.hamiltonian_superop(params.hamiltonian) + core.dissipator_superop(params.rates, basis)


def _real(m: np.ndarray, what: str, tol: float = _REAL_TOL) -> np.ndarray:
    """Re m, once its imaginary residue is at most tol * max(1, max|m|)."""
    resid = float(np.max(np.abs(m.imag), initial=0.0))
    if resid > tol * max(1.0, float(np.max(np.abs(m), initial=0.0))):
        raise ValueError(f"{what} has imaginary residue {resid:.3e}")
    return m.real.copy()


def q_from_h(h: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """Antisymmetric Q with Q_ij = -i Tr(F_i [H, F_j])."""
    s = core.hamiltonian_superop(np.asarray(h, dtype=complex))
    return _real(core.coordinates(s, basis)[1:, 1:], "Q")


def r_from_a(a: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """R_kl = sum_ij a_ij Tr[F_k (F_i F_l F_j - 1/2 {F_j F_i, F_l})]."""
    return _dissipator_rc(a, basis)[0]


def c_from_a(a: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """c_k = (1/d) sum_ij a_ij Tr([F_i, F_j] F_k)."""
    return _dissipator_rc(a, basis)[1]


def _dissipator_rc(a: np.ndarray, basis: NiceBasis) -> tuple[np.ndarray, np.ndarray]:
    """(R, c) of the dissipator, declared real together so that c is judged on the scale of R."""
    s = core.dissipator_superop(np.asarray(a, dtype=complex), basis)
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


def spectrum_relation_check(params: MasterEqParams, basis: NiceBasis, tol: float = 1e-8) -> bool:
    """Check that the eigenvalues of L are {0} together with those of G."""
    pair = forward_map(params, basis)
    left = np.linalg.eigvals(core.gc_coordinates(pair.G, pair.c, basis.dim))
    right = np.concatenate([[0.0 + 0.0j], np.linalg.eigvals(pair.G)])
    return _multisets_match(left, right, tol)


def _multisets_match(xs: np.ndarray, ys: np.ndarray, tol: float) -> bool:
    """Greedy nearest-neighbor matching of two complex multisets."""
    ys = list(ys)
    for x in xs:
        dists = [abs(x - y) for y in ys]
        k = int(np.argmin(dists))
        if dists[k] > tol:
            return False
        ys.pop(k)
    return not ys


def _canonical_eig_order(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues with deterministic eigenvector phases and order.

    Each eigenvector is rotated so its largest-magnitude component is real
    and positive; near-degenerate columns are then sorted lexicographically
    by their rounded components, largest first.
    """
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    # eigenvectors have unit norm, so no pivot is zero; np.hypot rounds like
    # the scalar abs() of the per-column reference, np.abs of a complex array
    # can differ from it in the last bit
    v = v / (pivot / np.hypot(pivot.real, pivot.imag))
    # stable tie-break inside degenerate clusters
    vals = w.tolist()
    i = 0
    while i < len(vals):
        jend = i + 1
        while jend < len(vals) and abs(vals[jend] - vals[i]) <= 1e-12 * max(1.0, abs(vals[i])):
            jend += 1
        if jend - i > 1:
            cols = sorted(
                range(i, jend),
                key=lambda k: tuple(np.round(v[:, k], 9).view(float)),
                reverse=True,
            )
            v[:, i:jend] = v[:, cols]
        i = jend
    return w, v


def diagonalize_dissipator(a: np.ndarray, basis: NiceBasis) -> DiagonalDissipator:
    """Diagonal form a = u^dag gamma u; L_alpha = sum_j u*_aj F_j.

    Eigenvalues below 1e-12 * ||a|| in magnitude are reported as exact zeros.
    """
    return _diagonal_form(*np.linalg.eigh(np.asarray(a, dtype=complex)), basis)


def _diagonal_form(w: np.ndarray, v: np.ndarray, basis: NiceBasis) -> DiagonalDissipator:
    """diagonalize_dissipator from the ascending eigh output (w, v) of a."""
    if not basis.J:
        return DiagonalDissipator(gamma=np.zeros(0), lindblad_ops=[])
    w, v = _canonical_eig_order(w, v)
    # the spectral norm of the Hermitian a is its largest |eigenvalue|
    scale = np.abs(w).max()
    w = np.where(np.abs(w) < 1e-12 * scale, 0.0, w)
    ops = list(np.tensordot(v.T, basis.traceless, 1))
    return DiagonalDissipator(gamma=w, lindblad_ops=ops)


def hermitian_dissipator_checks(
    a: np.ndarray, basis: NiceBasis, tol: float = DATA_TOL
) -> DissipatorSymmetryReport:
    """Evaluate the equivalent conditions for the dissipator to be Hermitian.

    Row-major vec is unitary, so the dissipator is Hermitian exactly when its
    core superoperator S equals S^dag.
    """
    a = MasterEqParams(hamiltonian=np.zeros((basis.dim, basis.dim)), rates=a).rates
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    sym = float(np.max(np.abs(a - a.T), initial=0.0)) <= tol * scale
    real = float(np.max(np.abs(a.imag), initial=0.0)) <= tol * scale
    s = core.dissipator_superop(a, basis)
    herm = float(np.max(np.abs(s - s.conj().T), initial=0.0)) <= tol * scale
    r, c = _dissipator_rc(a, basis)
    r_sym_c0 = (
        float(np.max(np.abs(r - r.T), initial=0.0)) <= tol * scale
        and float(np.max(np.abs(c), initial=0.0)) <= tol * scale
    )
    return DissipatorSymmetryReport(
        superop_hermitian=herm,
        hermitian_lindblad_possible=sym and real,
        rates_symmetric=sym,
        rates_real=real,
        r_symmetric_and_c_zero=r_sym_c0,
    )
