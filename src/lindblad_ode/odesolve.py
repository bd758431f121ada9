"""Solvers for the affine coherence-vector ODE v' = G v + c: a closed
spectral form when G is diagonalizable and invertible, and a general
propagator route via the exponential of the augmented matrix [[G, c], [0, 0]].
Density-matrix evolution is built on top of the vector solvers.

scipy is needed only by the propagator route (solve_general, propagator):
its expm is imported on the first propagator evaluation, so importing the
package and every path that stays on the spectral form never load scipy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import NiceBasis, coherence_vector
from .forward import MasterEqParams, OdePair, forward_map

DIAG_COND_LIMIT = 1e8


def _expm(m: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on first use: importing scipy.linalg takes about 0.3 s."""
    from scipy.linalg import expm

    return expm(m)


class NotDiagonalizable(ValueError):
    """G's eigenvector matrix is too ill-conditioned for the spectral form."""


class Singular(ValueError):
    """G is numerically singular; no fixed point -G^{-1} c exists."""


@dataclass(frozen=True)
class OdeSolution:
    """Solution of v' = G v + c with initial condition v0.

    kind is "diagonalizable_invertible" (spectral closed form) or "general"
    (augmented-matrix propagator). v_infinity is the fixed point -G^{-1} c
    when G is invertible, else None. For singular G, frozen_consistent
    reports whether c is in the range of G (no linearly growing directions).
    """

    kind: str
    G: np.ndarray
    c: np.ndarray
    v0: np.ndarray
    v_infinity: np.ndarray | None
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    initial_coeffs: np.ndarray | None = None
    frozen_consistent: bool | None = None
    _augmented: np.ndarray | None = field(default=None, repr=False, compare=False)

    def at(self, t: float) -> np.ndarray:
        """Evaluate v(t)."""
        if self.kind == "diagonalizable_invertible":
            modes = self.eigenvectors @ (self.initial_coeffs * np.exp(self.eigenvalues * t))
            return modes.real + self.v_infinity
        j = self.G.shape[0]
        state = np.concatenate([self.v0, [1.0]])
        return (_expm(self._augmented * t) @ state)[:j]

    def trajectory(self, times) -> np.ndarray:
        """Evaluate v(t) at every time; row k is v(times[k])."""
        t = np.asarray(times, dtype=float).reshape(-1)
        if self.kind == "diagonalizable_invertible":
            growth = self.initial_coeffs[:, None] * np.exp(np.outer(self.eigenvalues, t))
            return (self.eigenvectors @ growth).T.real + self.v_infinity
        state = np.concatenate([self.v0, [1.0]])
        return (_expm(self._augmented * t[:, None, None]) @ state)[:, : self.G.shape[0]]


def propagator(g: np.ndarray, t: float) -> np.ndarray:
    """e^{Gt} for real G."""
    g = np.asarray(g, dtype=float)
    if not (np.all(np.isfinite(g)) and np.isfinite(t)):
        raise ValueError("propagator requires finite inputs")
    return _expm(g * t)


def _check_pair(pair: OdePair, v0: np.ndarray) -> np.ndarray:
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (pair.G.shape[0],):
        raise ValueError(f"v0 must have length {pair.G.shape[0]}, got {v0.shape}")
    return v0


def solve_diagonalizable(pair: OdePair, v0, tol: float = 1.0 / DIAG_COND_LIMIT) -> OdeSolution:
    """Spectral closed form v(t) = sum_k s_k e^{lambda_k t} x^(k) + v_inf.

    Requires G diagonalizable (eigenvector condition number < 1/tol) and
    invertible (smallest singular value > tol * ||G||); raises
    NotDiagonalizable or Singular otherwise, in which case use solve_general.
    """
    v0 = _check_pair(pair, v0)
    g = pair.G
    sv = np.linalg.svd(g, compute_uv=False)
    if sv.size == 0 or sv[-1] <= tol * max(sv[0], 1e-300):
        raise Singular("G is numerically singular")
    w, x = np.linalg.eig(g)
    if np.linalg.cond(x) >= 1.0 / tol:
        raise NotDiagonalizable("eigenvector matrix condition number exceeds limit")
    v_inf = -np.linalg.solve(g, pair.c)
    s = np.linalg.solve(x, (v0 - v_inf).astype(complex))
    return OdeSolution(
        kind="diagonalizable_invertible",
        G=g,
        c=pair.c,
        v0=v0,
        v_infinity=v_inf,
        eigenvalues=w,
        eigenvectors=x,
        initial_coeffs=s,
    )


def solve_general(pair: OdePair, v0) -> OdeSolution:
    """Propagator solution v(t) = [e^{Mt} (v0, 1)]_{1..J} with M = [[G, c], [0, 0]].

    Valid for any G, including singular and non-diagonalizable cases.
    """
    v0 = _check_pair(pair, v0)
    g, c = pair.G, pair.c
    j = g.shape[0]
    aug = np.zeros((j + 1, j + 1))
    aug[:j, :j] = g
    aug[:j, j] = c
    sv = np.linalg.svd(g, compute_uv=False) if j else np.zeros(0)
    invertible = j > 0 and sv[-1] > 1e-12 * max(sv[0], 1e-300)
    v_inf = -np.linalg.solve(g, c) if invertible else None
    frozen = None
    if not invertible and j > 0:
        rank_g = int(np.sum(sv > 1e-12 * max(sv[0], 1e-300)))
        rank_gc = np.linalg.matrix_rank(np.column_stack([g, c]), tol=1e-12 * max(sv[0], 1.0))
        frozen = bool(rank_gc == rank_g)
    return OdeSolution(
        kind="general",
        G=g,
        c=c,
        v0=v0,
        v_infinity=v_inf,
        frozen_consistent=frozen,
        _augmented=aug,
    )


def solve(pair: OdePair, v0) -> OdeSolution:
    """Closed spectral form when trustworthy, otherwise the propagator route."""
    try:
        return solve_diagonalizable(pair, v0)
    except (NotDiagonalizable, Singular):
        return solve_general(pair, v0)


def evolve_density(
    params: MasterEqParams, rho0: np.ndarray, times, basis: NiceBasis
) -> list[np.ndarray]:
    """Evolve a density matrix under the master equation at the given times."""
    rho0 = np.asarray(rho0, dtype=complex)
    d = basis.dim
    if rho0.shape != (d, d):
        raise ValueError(f"density matrix must be {d}x{d}, got {rho0.shape}")
    if np.min(np.linalg.eigvalsh((rho0 + rho0.conj().T) / 2)) < -1e-9:
        raise ValueError("density matrix is not positive semidefinite")
    v0 = coherence_vector(rho0, basis)
    pair = forward_map(params, basis)
    sol = solve(pair, v0)
    rhos = np.eye(d) / d + np.einsum("tk,kab->tab", sol.trajectory(times), basis.traceless)
    return list(rhos)
