"""The tolerance table and the one gate rule behind every verdict.

Every pass/fail decision goes through :func:`passes`: a residual passes iff
``residual <= tol * scale``, where ``scale`` is the magnitude the residual
is homogeneous in (each table entry names it; the field identity's is
sqrt(|G|) max|U| max|zak(f)| on its seeded probes f). Scaling U by s scales the
residual and the bound alike, so no verdict depends on the units of U; U = 0
is the one input with scale 0, where only a residual of exactly 0 passes. A
NaN residual or scale fails, and :func:`largest` keeps a NaN, so no gate
fails open. A biconditional (``*_agree``) is a gate at ``tol = 0`` on the
disagreement. A value compared across the correspondence Z U Z* =
blockdiag R(omega) is one the unitary Z leaves unchanged (a spectral or
Frobenius norm, a trace), so both sides measure the same quantity whatever
Gamma is; a largest-entry norm would not. Gates that are not homogeneous
stay absolute, ``scale = 1.0``: isometry, since ``A^H A - I`` does not
scale with A; INVARIANCE, on an orthonormal basis; TRANSFORM and ROUNDTRIP,
on the check suites' unit-variance signals, unit-modulus characters and
projections; SYMBOL, on symbols ``1 - pairing(d, w)`` of modulus at most 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMMUTE = 1e-10  # commutator entries, against max|U| (max|uhat| for a fibered operator)
IDENTITY = 1e-8  # field identity: largest entry of zak(U f) - R zak(f) on the probes, against sqrt(|G|) max|U| max|zak(f)|
STRUCT = 1e-9  # isometry max|s^2 - 1| (absolute); ||A - A^H||_F and positivity: against the operator or largest fiber norm
NORM = 1e-8  # operator norm against the largest fiber norm, relative to the operator norm
HS = 1e-8  # HS and trace, operator against fibers: against sum |U_ij|^2 and the nuclear norm
RANK = 1e-9  # rank cut: singular values above RANK * the largest of their side count
INVARIANCE = 1e-9  # distance of a translated basis vector from the span (absolute)
SYMBOL = 1e-10  # demo-diffop: fiber symbols against 1 - pairing(d, w), and their scalar form (absolute)
TRANSFORM = 1e-10  # check suites: transform isometry (relative), round trip, intertwining, characters (absolute)
ROUNDTRIP = 1e-9  # check suites: range-function round trip (absolute), field round trip (against max|field|)


@dataclass(frozen=True)
class Verdict:
    """One gate decision: the residual, the tolerance and scale it was held
    to, the bound ``tolerance * scale`` that was applied, the margin
    ``bound - residual`` (negative on a failure), and a witness locating the
    failure (None when there is none). Built by :func:`gate`."""

    passed: bool
    residual: float
    tolerance: float
    scale: float
    bound: float
    margin: float
    witness: object | None = None

    def __bool__(self) -> bool:
        return self.passed

    def to_dict(self) -> dict:
        return dict(vars(self))


def passes(residual, tol: float, scale):
    """The gate rule; a bool for one residual, a boolean array for an array."""
    ok = np.asarray(residual) <= tol * scale
    return ok if ok.ndim else bool(ok)


def gate(residual, tol: float, scale, witness=None) -> Verdict:
    """The :class:`Verdict` of the gate rule on one residual."""
    residual, tol, scale = float(residual), float(tol), float(scale)
    bound = tol * scale
    return Verdict(passes(residual, tol, scale), residual, tol, scale, bound, bound - residual, witness)


def rank_cut(s: np.ndarray) -> tuple[np.ndarray, float]:
    """Which singular values of a stack count toward the rank (those above
    the cut), and the cut: RANK times the stack's largest finite value, one
    cut for every block, never a block's own largest."""
    cut = RANK * float(s[np.isfinite(s)].max(initial=0.0))
    return s > cut, cut


def largest(values) -> float:
    """The largest of the values, NaN if any is NaN, 0.0 if there are none."""
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))
