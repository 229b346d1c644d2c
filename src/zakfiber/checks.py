"""The tolerance table and the gate rule behind every verdict.

Every tolerance is one named value below, and every pass/fail decision goes
through :func:`passes`: a result passes iff ``residual <= tol * max(1, scale)``.
An absolute gate leaves ``scale`` at 0; a relative gate passes the magnitude
the residual is measured against. A NaN residual or scale fails, and
:func:`largest` combines residuals without dropping a NaN, so no gate fails open.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMMUTE = 1e-10  # commutator entries: U against translations, a fibered operator against characters
SOLVE = 1e-8  # off-fiber leakage of the field solve
STRUCT = 1e-9  # isometry and self-adjointness residuals, operator and fiber side
NORM = 1e-8  # relative to the operator norm: operator norm against the largest fiber norm
HS = 1e-8  # relative to the entrywise value: HS norm and trace route agreement
POSITIVITY = 1e-9  # Hermitian gap and (relative) smallest eigenvalue admitting the trace clause
RANK = 1e-9  # rank cut: singular values above RANK * max(1, sigma_max) count
INVARIANCE = 1e-9  # distance of a translated basis vector from the span
SYMBOL = 1e-10  # demo-diffop: fiber symbols against 1 - pairing(d, w), and their scalar form
TRANSFORM = 1e-10  # check suites: transform isometry (relative), round trip, intertwining, determining set
ROUNDTRIP = 1e-9  # check suites: range-function and field round trips


@dataclass(frozen=True)
class Verdict:
    """One gate decision: the residual, the tolerance it was held to, and a
    witness locating the failure (None when it passed)."""

    passed: bool
    residual: float
    tolerance: float
    witness: object | None = None

    def __bool__(self) -> bool:
        return self.passed


def threshold(tol: float, scale=0.0):
    """The bound a residual measured against scale must not exceed."""
    return tol * np.maximum(1.0, scale)


def passes(residual, tol: float, scale=0.0):
    """The gate rule; a bool for one residual, a boolean array for an array."""
    ok = np.asarray(residual) <= threshold(tol, scale)
    return ok if ok.ndim else bool(ok)


def gate(residual, tol: float, witness=None) -> Verdict:
    """The :class:`Verdict` of the absolute gate rule on one residual."""
    return Verdict(passes(residual, tol), float(residual), float(tol), witness)


def largest(values) -> float:
    """The largest of the values, NaN if any is NaN, 0.0 if there are none."""
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))
