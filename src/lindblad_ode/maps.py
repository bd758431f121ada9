"""The one bijection between the representations of a generator, and the CP verdict read from it.

Each space of phi has a map to the core superoperator S (see core) and one back; phi routes every request
through S, and apply and adjoint act through it. forward_map, (H, a) -> (G, c) of v' = G v + c, is
phi(1, 6), and inverse_map is phi(6, 1). The partial maps split G = Q + R, with the image condition on R.
check_lindblad decides complete positivity by the eigenvalues of the rate matrix a of (G, c), whose
eigenvectors give the diagonal form of the dissipator on demand; the equivalent quadratic-form test,
sum_i Tr[G~_i B^dag F_i B] = b^dag a b over traceless B, is a reference in the tests. sample_extreme_ray
draws from the extreme rays of the cone of completely positive dissipative generators.

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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import core, tolerance
from .basis import NiceBasis, _built, _finite, _hermitian, _numbers, _real, coordinatize


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

    G and c pass basis._numbers as real operands of shapes (n, n) and (n,), each named in its own
    ValueError: a negligible imaginary part (tolerance.DATA) is dropped, and a larger one refused. G = Q + R
    splits by q_from_h and r_from_a, or decompose_g.
    """

    G: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "G", _numbers(self.G, "G", float, shape=("n", "n")))
        object.__setattr__(self, "c", _numbers(self.c, "c", float, shape=(len(self.G),)))


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


# --- the spaces of phi: each to the core superoperator S and back --------------
_TENSOR = "tensor of the superoperator"


def _superop(params: MasterEqParams, basis: NiceBasis) -> np.ndarray:
    """The core superoperator S of (H, a)."""
    return core.hamiltonian_superop(params.hamiltonian) + core.dissipator_superop(params.rates, basis)


def _core_to_meq(s: np.ndarray, basis: NiceBasis) -> MasterEqParams:
    """MasterEqParams' normal form of the H and a of S, Hermitian by construction (a up to rounding)."""
    h, a = core.hamiltonian(s), core.rates(s, basis)
    a = (a + a.conj().T) / 2 if (a - a.conj().T).any() else a
    return _built(MasterEqParams, "(H, a) of the superoperator", **_normal_form(h, a))


def _gc_to_core(pair: OdePair, basis: NiceBasis) -> np.ndarray:
    # checks G itself, so that a mismatch names the shape of G, not that of the Lhat built from it
    core.basis_columns(pair.G, basis, 1)
    return core.from_coordinates(core.gc_coordinates(pair.G, pair.c, basis.dim), basis)


def _core_to_gc(s: np.ndarray, basis: NiceBasis) -> OdePair:
    """(G, c) of S, the rows 1..J of Lhat, finite and real at tolerance.DATA; callers run it under np.errstate."""
    what = "(G, c) of the superoperator"
    lhat = _real(_finite(core.coordinates(s, basis)[1:], what), what)
    return _built(OdePair, None, G=lhat[:, 1:], c=lhat[:, 0] / np.sqrt(basis.dim))


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


def forward_map(params: MasterEqParams, basis: NiceBasis) -> OdePair:
    """Map (H, a) to the ODE pair (G, c): phi(1, 6); G = q_from_h(H) + r_from_a(a) up to rounding."""
    return phi(1, 6, params, basis)


def inverse_map(pair: OdePair, basis: NiceBasis) -> MasterEqParams:
    """Unique (traceless H, a) whose coherence-vector ODE is v' = Gv + c: phi(6, 1)."""
    return phi(6, 1, pair, basis)


def superop_matrix(t: SuperopTensor, basis: NiceBasis) -> SuperopMatrix:
    """E_ij = Tr[F_i E(F_j)]: phi(4, 7); raises ValueError when the matrix E is not finite."""
    return phi(4, 7, t, basis)


def liouvillian_matrix(params: MasterEqParams, basis: NiceBasis) -> np.ndarray:
    """(J+1)x(J+1) real matrix of L: zero top row, sqrt(d) c left column, G block."""
    pair = forward_map(params, basis)
    return core.gc_coordinates(pair.G, pair.c, basis.dim)


def apply(value, x: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """L(X) = S @ vec(X), with S the core superoperator of value, a value of any space of phi (found by
    its type); raises ValueError when L(X) is not finite."""
    with np.errstate(all="ignore"):
        return _finite(core.apply(_to_core(_space_of(value), value, basis), x), "L(X)")


def apply_dissipator(a: np.ndarray, x: np.ndarray, basis: NiceBasis) -> np.ndarray:
    """L(X) = sum_ij a_ij (F_i X F_j - 1/2 {F_j F_i, X}); a need not be Hermitian here. Raises ValueError
    when L(X) is not finite."""
    a = _numbers(a, "rate matrix a", shape=("n", "n"))
    with np.errstate(all="ignore"):
        return _finite(core.apply(core.dissipator_superop(a, basis), x), "L(X)")


def adjoint(value):
    """The adjoint map S^dag, <E'(A), B> = <A, E(B)> in the Hilbert-Schmidt sense, in the space of value;
    ValueError for a space of generators, as the adjoint of a generator is one only when it is unital."""
    space = _space_of(value)
    if _SPACES[space][4] is None:
        raise ValueError(f"space {space} holds generators only, and the adjoint of a generator is not one in general")
    return _SPACES[space][4](value)


# --- the partial maps of G = Q + R, and the image condition on R -----------------


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


# --- complete positivity and the diagonal form of the dissipator -----------------


@dataclass(frozen=True)
class DiagonalDissipator:
    """Diagonal form of the dissipator: rates gamma_alpha and operators L_alpha.

    gamma is sorted descending; entries may be negative when the master
    equation is Markovian but not completely positive.
    """

    gamma: np.ndarray
    lindblad_ops: list[np.ndarray]


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


@dataclass(frozen=True)
class CPReport:
    """Verdict on whether an ODE pair is generated by a Lindblad equation; the eigenvalues of a descending."""

    a: np.ndarray
    eigenvalues: np.ndarray
    min_eigenvalue: float
    is_lindblad: bool
    marginal: bool
    tolerance_used: float
    _basis: NiceBasis = field(init=False, repr=False, compare=False)
    _noise: float = field(init=False, repr=False, compare=False)

    @cached_property
    def diagonal_form(self) -> DiagonalDissipator | None:
        """diagonalize_dissipator(a), rates up to _noise zeroed, by one eigh on first read; None unless is_lindblad."""
        if not self.is_lindblad:
            return None
        return _diagonal_form(self.eigenvalues[::-1], np.linalg.eigh(self.a)[1], self._basis, self._noise)


def check_lindblad(pair: OdePair, basis: NiceBasis, tol: float = tolerance.DATA) -> CPReport:
    """Recover a from (G, c) and decide complete positivity by its spectrum.

    The pair is Lindblad iff min eig(a) >= -tol * max(1, ||a||_2)
    (tolerance.is_psd); verdicts with |min eig| within 10x of that threshold
    are flagged marginal. Raises ValueError when tol is not a finite number >= 0, or when a or one of
    its eigenvalues overflows.
    """
    tol = tolerance.check_rtol(tol, "tol")
    a = _rates(pair, basis)
    eigs = _finite(np.linalg.eigvalsh(a)[::-1].copy(), "eigenvalue of the rate matrix a of (G, c)")
    min_eig = float(eigs[-1]) if eigs.size else 0.0
    verdict = bool(tolerance.is_psd(eigs, tol))
    # the spectral norm of the Hermitian a is its largest |eigenvalue|
    marginal = bool(abs(min_eig) <= 10.0 * tolerance.bound(tolerance.magnitude(eigs), tol))
    # a is recovered from (G, c) with rounding at their scale: a rate below it is noise
    noise = max(tolerance.cut(pair.G, tolerance.ROUNDING), tolerance.cut(pair.c, tolerance.ROUNDING))
    return _built(
        CPReport, None, a=a, eigenvalues=eigs, min_eigenvalue=min_eig, is_lindblad=verdict, marginal=marginal,
        tolerance_used=tol, _basis=basis, _noise=noise,
    )


def sample_extreme_ray(big_b: np.ndarray, basis: NiceBasis) -> OdePair:
    """Rank-1 dissipative generator of a single Lindblad operator B.

    R_kl = Tr[F_k (B F_l B^dag - 1/2 {B^dag B, F_l})], c_k = (1/d) Tr([B, B^dag] F_k);
    equals the forward map of (H = 0, a = b b^dag) with b_m = Tr(F_m B). Raises
    ValueError unless B is finite, of shape (d, d) and has a negligible trace (tolerance.DATA).
    """
    d = basis.dim
    big_b = _numbers(big_b, "B", shape=(d, d))
    if not tolerance.negligible(np.trace(big_b), big_b, tolerance.DATA):
        raise ValueError("B must be traceless")
    b = coordinatize(big_b, basis)[1:]
    return forward_map(MasterEqParams(np.zeros((d, d)), np.outer(b, b.conj())), basis)
