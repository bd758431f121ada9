"""The solver of the affine coherence-vector ODE v' = G v + c, and
density-matrix evolution on top of it.

solve propagates x' = M x from t = 0. When G has full rank at the
tolerance.SPECTRAL cut, M = G and x = v - v_inf, the deviation from the fixed
point v_inf = -G^{-1} c, so rounding stays relative to |v - v_inf| and not to
||e^{Mt}||; a deviation that is exactly 0 gives exactly v_inf at every time.
Otherwise M = [[G, c], [0, 0]] and x = (v, 1). The eigenvector form is not
used: it loses a factor cond(X) near a defective G (C. Moler and C. Van Loan,
SIAM Rev. 45 (2003) 3); tests/oracles.py keeps it as a reference.

e^A is _expm: scaling and squaring with the [13/13] Pade approximant of
N. J. Higham, "The scaling and squaring method for the matrix exponential
revisited", SIAM J. Matrix Anal. Appl. 26 (2005) 1179, in numpy alone.
scipy.linalg.expm, the oracle of the tests, uses the refinement of
A. H. Al-Mohy and N. J. Higham, SIAM J. Matrix Anal. Appl. 31 (2009) 970,
which picks a lower degree or fewer squarings where it can.

A trajectory steps along its time grid, as A. H. Al-Mohy and N. J. Higham,
"Computing the action of the matrix exponential", SIAM J. Sci. Comput. 33
(2011) 488, do for e^{tA} b: the times t >= 0 and the times t < 0 are each
ordered by |t|, and on each side x <- e^{M h} x steps outward from x(0)
through the differences h of consecutive times. One _expm call takes the
exponentials of a side's distinct non-zero steps, so a uniform grid of any
length needs about three (the differences of a linspace round to a few
neighbouring values), where the direct form e^{M t} x(0) takes one per time.
Error model: each e^{M h} carries a relative error of about 2^s u (u = 2^-53,
s the squarings of M h), and the rounding of every step before a row on its
side stays in that row, so a row after k steps carries about k 2^s u.
Outward, |t| only grows along a chain, so no row inherits rounding made at a
larger |t|. A chain from the most negative time forward past 0 would: under a
dissipative generator x(t_min) is large, and its rounding swamps the rows
where x has decayed again. A single time is one step from 0, the direct form
itself.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tolerance
from .basis import NiceBasis, _finite, _numbers, coherence_vector
from .forward import MasterEqParams, OdePair, forward_map


# b_0..b_13 of the [13/13] Pade approximant p(A)/p(-A) to e^A, divided by b_0 so
# that p(0) = I exactly, and the largest 1-norm at which it is accurate to double
# precision (Higham 2005, Table 2.3).
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640,
    1323241920, 40840800, 960960, 16380, 182, 1,
]) / 64764752532480000
_THETA13 = 5.371920351148152
# p(A) = V + U and p(-A) = V - U with
#   U = A [A6 (b13 A6 + b11 A4 + b9 A2) + (b7 A6 + b5 A4 + b3 A2 + b1 I)],
#   V =    A6 (b12 A6 + b10 A4 + b8 A2) + (b6 A6 + b4 A4 + b2 A2 + b0 I);
# the rows are the four bracketed polynomials in (A2, A4, A6), without their I terms.
_UV13 = _PADE13[[[9, 11, 13], [3, 5, 7], [8, 10, 12], [2, 4, 6]]]


# the largest 1-norm that scaling and squaring takes: it needs s <= 52 squarings
_MAX_NORM = _THETA13 * 2.0**52


def _norm1(a: np.ndarray) -> np.ndarray:
    """||A||_1 of each matrix of an (m, n, n) stack; nan where A has a nan entry."""
    return np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)


def _expm(m: np.ndarray) -> np.ndarray:
    """e^A for every matrix A of a real (..., n, n) stack.

    Scaling and squaring (Higham 2005): each A is scaled by 2^-s with
    s = max(0, ceil(log2(||A||_1 / theta_13))), its [13/13] Pade approximant
    r = (V - U)^{-1} (V + U) is taken, and r is squared s times, so a matrix
    of small norm in a stack with large ones is not squared needlessly. The
    degree is always 13; Al-Mohy and Higham (2009) lower the degree and s
    where norms of powers of A allow it.
    The rounding errors of the squaring phase grow like 2^s u (u = 2^-53), so
    a matrix that would need s > 52, or has a non-finite entry, gives nan:
    its computed exponential would carry no correct digit. Overflow gives inf
    or nan. Neither emits a warning.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[-1]
    a = m.reshape(math.prod(m.shape[:-2]), n, n)
    norm = _norm1(a)
    # every A finite, within _MAX_NORM and with s = 0 (nan fails the test): nothing to clip, scale or refuse
    scaled = not norm.max(initial=0.0) <= _THETA13
    if scaled:
        ok = norm <= _MAX_NORM
        with np.errstate(divide="ignore"):
            s = np.ceil(np.log2(np.where(ok, norm, 0.0) / _THETA13)).clip(0).astype(int)
        a = np.where(ok[:, None, None], a, 0.0) * np.ldexp(1.0, -s)[:, None, None]
    # One buffer holds the powers and the polynomials: as separate temporaries of a
    # (64, 25, 25) trajectory stack, malloc handed out fresh pages on every call,
    # and their page faults cost as much as the Pade evaluation itself.
    work = np.empty((7,) + a.shape)
    a2, a4, a6, pu, qu, pv, qv = work
    np.matmul(a, a, out=a2)
    np.matmul(a2, a2, out=a4)
    np.matmul(a4, a2, out=a6)
    np.matmul(_UV13, work[:3].reshape(3, -1), out=work[3:].reshape(4, -1))
    qu += _PADE13[1] * np.eye(n)
    qv += _PADE13[0] * np.eye(n)
    v = np.matmul(a6, pv, out=a2)
    v += qv
    u = np.matmul(a6, pu, out=a4)
    u += qu
    u = np.matmul(a, u, out=a6)
    r = np.linalg.solve(np.subtract(v, u, out=pu), np.add(v, u, out=qu))
    if scaled:
        with np.errstate(all="ignore"):
            for k in range(s.max(initial=0)):
                squared = s > k
                r[squared] = r[squared] @ r[squared]
        r[~ok] = np.nan
    return r.reshape(m.shape)


@dataclass(frozen=True)
class OdeSolution:
    """Solution of v' = G v + c with initial condition v0.

    kind names the route that solve took: "diagonalizable_invertible" when G
    has full rank at the tolerance.SPECTRAL cut (the deviation from v_infinity
    is propagated), "general" otherwise (the augmented matrix is). The names
    date from a spectral solver that is gone; they stay because CLI output
    reports them. v_infinity is the fixed point -G^{-1} c when G has full rank
    at the tolerance.ROUNDING cut, else None. For such a singular G,
    frozen_consistent reports whether c is in the range of G (no linearly
    growing directions).
    """

    kind: str
    G: np.ndarray
    c: np.ndarray
    v0: np.ndarray
    v_infinity: np.ndarray | None
    frozen_consistent: bool | None = None
    # v(t) = (e^{Mt} x0)[:J] + shift, with (M, x0, shift) = (G, v0 - v_inf, v_inf) or
    # ([[G, c], [0, 0]], (v0, 1), -0.0); adding -0.0 changes no bit, not even the sign of a zero
    _generator: np.ndarray | None = field(default=None, repr=False, compare=False)
    _x0: np.ndarray | None = field(default=None, repr=False, compare=False)
    _shift: np.ndarray | None = field(default=None, repr=False, compare=False)

    def at(self, t: float) -> np.ndarray:
        """Evaluate v(t) at a scalar t; raises ValueError for any other t."""
        if np.ndim(t) != 0:
            raise ValueError(f"at needs a scalar t, got an array of shape {np.shape(t)}")
        return self.trajectory([t])[0]

    def trajectory(self, times) -> np.ndarray:
        """Evaluate v(t) at every time; row k is v(times[k]).

        Steps outward from t = 0 on each side of it (see _step_outward): a row
        carries the rounding of every step before it on its side, about
        (steps) 2^s u in all, where the direct form e^{Mt} x0 carries 2^s u.
        Raises ValueError for times of two or more dimensions or that basis._numbers
        refuses as real operands (bools and strings included), and at the first
        time, in the order given, where v(t) is not finite, which includes every
        time whose e^{Mt} _expm would refuse.
        A deviation v0 - v_infinity that is exactly 0 gives exactly v_infinity
        at every time, however fast e^{Gt} grows.
        """
        t = _numbers(times, "times", float, finite=None)
        if t.ndim > 1:
            raise ValueError(f"trajectory needs a scalar or a 1-d array of times, got an array of shape {t.shape}")
        t = t.reshape(-1)
        j = len(self.v0)
        if self._x0.any():
            with np.errstate(all="ignore"):
                x = _step_outward(self._generator, self._x0, t)[:, :j]
        else:
            x = np.zeros((len(t), j))
        v = x + self._shift
        bad = ~np.isfinite(v).all(axis=1)
        if bad.any():
            raise ValueError(f"v(t) is not finite at t = {t[bad][0]:g}")
        return v


def _step_outward(m: np.ndarray, x0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row k is e^{M t_k} x0, by steps outward from t = 0.

    The times t >= 0 (nan among them) and t < 0 are each ordered by |t|, stably;
    one _expm call takes the distinct non-zero differences h of a side, prepended
    by 0, and x <- e^{M h} x runs through them from x0 (e^0 = I). A row is nan
    where _expm would refuse M t_k itself: ||M t||_1 grows with |t|, so a side
    holds such a time only if its last one is one.
    """
    out = np.empty((len(t), len(x0)))
    for side in (~(t < 0), t < 0):
        order = np.flatnonzero(side)
        if not len(order):
            continue
        order = order[np.argsort(np.abs(t[order]), kind="stable")]
        ts = t[order]
        # each step (a time minus the one before) -> its place in [I, _expm stack]; 0.0 and -0.0 are one key
        index, tl = {0.0: 0}, ts.tolist()
        which = [index.setdefault(b - a, len(index)) for a, b in zip([0.0] + tl, tl)]
        exps = [np.eye(len(m)), *(_expm(m * np.array(list(index)[1:])[:, None, None]) if len(index) > 1 else ())]
        rows = np.empty((len(ts), len(x0)))
        x = x0
        for k, row in zip(which, rows):
            x = exps[k].dot(x, out=row)
        out[order] = rows
        if not _norm1(m * ts[-1:, None, None])[0] <= _MAX_NORM:
            out[order[~(_norm1(m * ts[:, None, None]) <= _MAX_NORM)]] = np.nan
    return out


def propagator(g: np.ndarray, t: float) -> np.ndarray:
    """e^{Gt} for a real G of shape (n, n) and a real t of shape (), each read by basis._numbers as a real operand.

    Raises ValueError for any other input, and when e^{Gt} is not finite (see _expm), G t included.
    """
    g, t = _numbers(g, "propagator G", float, shape=("n", "n")), _numbers(t, "propagator t", float, shape=())
    with np.errstate(all="ignore"):
        return _finite(_expm(g * t), "propagator: e^{Gt}")


def solve(pair: OdePair, v0) -> OdeSolution:
    """The solution of v' = G v + c with v(0) = v0, for any real G.

    When G has full rank at the tolerance.SPECTRAL cut, the solution steps the
    deviation v - v_inf, v_inf = -G^{-1} c (kind "diagonalizable_invertible");
    otherwise it steps (v, 1) under [[G, c], [0, 0]] (kind "general"). The
    ranks of G and [G c] behind v_infinity and frozen_consistent are taken at
    their own scale-invariant cut, tolerance.ROUNDING. Raises ValueError when
    basis._numbers refuses v0 as a real operand of the shape of c.
    """
    return _solve(pair, _numbers(v0, "v0", float, shape=pair.c.shape))


def _solve(pair: OdePair, v0: np.ndarray) -> OdeSolution:
    """solve for a v0 that has passed the input gate."""
    g, c = pair.G, pair.c
    j = g.shape[0]
    sv = np.linalg.svd(g, compute_uv=False)
    rank_g = tolerance.rank(sv, tolerance.ROUNDING)
    v_inf = -np.linalg.solve(g, c) if j and rank_g == j else None
    if j and tolerance.rank(sv, tolerance.SPECTRAL) == j:
        return OdeSolution("diagonalizable_invertible", g, c, v0, v_inf, _generator=g, _x0=v0 - v_inf, _shift=v_inf)
    frozen = None
    if j and v_inf is None:
        sv_gc = np.linalg.svd(np.column_stack([g, c]), compute_uv=False)
        frozen = tolerance.rank(sv_gc, tolerance.ROUNDING) == rank_g
    aug = np.zeros((j + 1, j + 1))
    aug[:j, :j] = g
    aug[:j, j] = c
    return OdeSolution(
        "general", g, c, v0, v_inf, frozen, _generator=aug, _x0=np.append(v0, 1.0), _shift=np.full(j, -0.0)
    )


def evolve_density(
    params: MasterEqParams, rho0: np.ndarray, times, basis: NiceBasis
) -> list[np.ndarray]:
    """Evolve a density matrix under the master equation at the given times; raises ValueError unless
    coherence_vector accepts rho0 and it is positive semidefinite (tolerance.DATA)."""
    with warnings.catch_warnings():
        # a rho0 outside the purity ball is not PSD: the error below says so, the warning would repeat it
        warnings.simplefilter("ignore", UserWarning)
        v0 = coherence_vector(rho0, basis)
    rho0 = np.asarray(rho0, dtype=complex)  # coherence_vector has passed it through the input gate
    if not tolerance.is_psd(np.linalg.eigvalsh((rho0 + rho0.conj().T) / 2), tolerance.DATA):
        raise ValueError("density matrix is not positive semidefinite")
    trajectory = _solve(forward_map(params, basis), v0).trajectory(times)
    return list(np.eye(basis.dim) / basis.dim + np.einsum("tk,kab->tab", trajectory, basis.traceless))
