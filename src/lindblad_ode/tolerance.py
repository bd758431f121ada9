"""The tolerance policy: every numerical judgement of the package is made here.

- Negligible residue. A residue r of data x (a Hermiticity or trace defect,
  an imaginary part, a broken invariant) is negligible when
  max|r| <= rtol * max(1, max|x|): absolute up to scale 1, and above it
  growing with the data, as the rounding of every computation on it does.
- Scale-invariant cut. A singular value, eigenvalue or eigenvalue gap sigma
  counts as zero when sigma <= rtol * sigma_max, so ranks, singularity and
  eigenvalue clusters do not change when the data is scaled.

Complete positivity is the first rule on the spectrum of a Hermitian matrix
(is_psd). Only check_lindblad and verify_nice_basis (through the CLI's --tol),
is_unital and is_hermiticity_preserving take their tolerance from a caller;
the first two, and the CLI, admit it through check_rtol.
"""
from __future__ import annotations

import math
import sys

import numpy as np

# Exact identities evaluated in double precision: a few d^2 x d^2 products and
# sums lose a few hundred ulps, far below 1e-12 at the d this package runs at.
ROUNDING = 1e-12
# Properties of data from outside (Hermiticity, trace, positivity of H, a, rho,
# B and (G, c)): JSON decimals and hand-made inputs carry about ten digits.
DATA = 1e-9
# Invariants of a rank-4 tensor handed to phi: partial traces of entries built in
# double precision, which miss zero by rounding alone; a decade stricter than DATA.
TENSOR = 1e-10
# The ODE solver steps the deviation from the fixed point -G^{-1} c only when G
# has full rank at this cut, so the fixed point keeps about half the digits.
SPECTRAL = 1e-8
# Widening of rarity's pruning conditions against eigensolver rounding; fixed
# by the proof in the rarity module docstring, not by a choice of accuracy.
MARGIN = 1e-10


def check_rtol(rtol, name: str):
    """rtol, once it is a real number (a bool is not) in [0, the largest float]; otherwise
    ValueError(f"{name} must be a finite non-negative number, got {rtol!r}")."""
    if isinstance(rtol, (bool, np.bool_)):
        finite = False
    elif isinstance(rtol, (int, np.integer)):
        finite = rtol <= sys.float_info.max
    else:
        finite = isinstance(rtol, (float, np.floating)) and math.isfinite(rtol)
    if not finite or rtol < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {rtol!r}")
    return rtol


def magnitude(x) -> float:
    """max|x| over every entry; 0 for an empty array."""
    return float(np.abs(x).max(initial=0.0))


def bound(scale, rtol: float):
    """rtol * max(1, scale) for a scale (or an array of scales) >= 0."""
    return rtol * np.maximum(1.0, scale)


def negligible(residue, data, rtol: float) -> bool:
    """True when max|residue| <= rtol * max(1, max|data|)."""
    return bool(magnitude(residue) <= bound(magnitude(data), rtol))


def cut(values, rtol: float) -> float:
    """rtol * max|values|: the values at or below it count as zero."""
    return rtol * magnitude(values)


def rank(singular_values, rtol: float) -> int:
    """Number of singular values above the scale-invariant cut."""
    sv = np.asarray(singular_values)
    return int(np.sum(sv > cut(sv, rtol)))


def is_psd(eigenvalues, rtol: float):
    """lambda_min >= -rtol * max(1, max|lambda|) over the last axis, for one spectrum or a stack."""
    w = np.asarray(eigenvalues)
    return w.min(axis=-1, initial=np.inf) >= -bound(np.abs(w).max(axis=-1, initial=0.0), rtol)
