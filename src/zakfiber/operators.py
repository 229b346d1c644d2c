"""Translation-commuting operators and their fiberwise block form.

An operator on signals commutes with all translations by the subgroup
exactly when its conjugate under the fiberization is block diagonal over
omega. The block family, one |C| x |C| matrix per omega, is the range
operator field, held as one complex ``(|Omega|, |C|, |C|)`` ndarray; an
operator is a ``(|G|, |G|)`` ndarray. The functions here detect the
commutation property, and extract and synthesize fields, on the full signal
space, the space every command certifies: the field is the diagonal blocks
of Z U Z*. The two summaries and the norm, Hilbert-Schmidt, trace, isometry,
self-adjointness and rank reports that compare them describe that space too:
the operator side reads U and the Zak basis Z*, the fiber side the blocks
R(omega) alone.
Per-fiber values (norms, ranks, HS and trace terms) are 1-D arrays indexed
by omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checks
from .fiberization import FiberContext, determining_function, zak, zak_inverse
from .groups import _array, translate
from .spaces import _rank_cut, full_range_function, space_from_range


class NotTranslationPreservingError(Exception):
    """The operator does not commute with the subgroup translations."""

    def __init__(self, verdict: checks.Verdict):
        self.verdict = verdict
        t, entry = verdict.witness
        super().__init__(
            f"operator does not commute with translation by {t!r} "
            f"(max commutator entry {verdict.residual:.3e} at {entry})"
        )


class RangeSolveError(Exception):
    """No fiber field reproduces the operator on the space (off-fiber leakage)."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"fiber solve failed: off-fiber residual {residual:.3e}")


@dataclass
class VerificationReport:
    """Named residuals, values and verdicts for one identity check; a
    per-fiber value is a 1-D array indexed by omega."""

    passed: bool
    verdicts: dict
    residuals: dict
    values: dict
    witness: object | None = None
    skipped: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "values": self.values,
            "witness": self.witness,
            "skipped": list(self.skipped),
        }


def as_operator(ctx: FiberContext, u) -> np.ndarray:
    """The complex ``(|G|, |G|)`` matrix of an operator on signals, with finite entries."""
    mat = _array(u, "operator", (ctx.group.size, ctx.group.size))
    if not np.isfinite(mat).all():
        raise ValueError("operator has non-finite entries")
    return mat


def check_translation_preserving(ctx: FiberContext, u, tol: float = checks.COMMUTE) -> checks.Verdict:
    """Max-entry commutator test against the subgroup generators.

    Commuting with the generators implies commuting with every subgroup
    element, so generators are the only probes needed. A failed verdict
    stops at the first failing probe t, with witness ``(t, (i, j))`` at the
    largest commutator entry.
    """
    u = as_operator(ctx, u)
    g = ctx.group
    residuals = []
    for t in ctx.gamma.generators or ctx.gamma.elements:
        # T_t u permutes the rows of u; u T_t = (T_{-t} u^T)^T permutes its
        # columns. Both are exact gathers, so no translation matrix is formed.
        comm = np.abs(translate(g, u.T, g.neg(t)).T - translate(g, u, t))
        r = comm.max()
        residuals.append(r)
        if not checks.passes(r, tol):
            i, j = np.unravel_index(int(np.argmax(comm)), comm.shape)
            return checks.gate(r, tol, witness=(t, (int(i), int(j))))
    return checks.gate(checks.largest(residuals), tol)


def solve_range_field(ctx: FiberContext, u, basis):
    """Fiberwise solve for the field of u, given the ``(|G|, |G|)`` Zak basis
    B = Z*, ``space_from_range(ctx, full_range_function(ctx))``.

    Returns ``(field, residual)``: the diagonal |C| x |C| blocks of
    Z U Z* = zak(U B) as the ``(|Omega|, |C|, |C|)`` field, and the largest
    entry off them. A residual at rounding scale certifies that the field
    reproduces u; a large residual means no field exists.
    """
    u = as_operator(ctx, u)
    basis = _array(basis, "basis", (ctx.group.size, ctx.group.size))
    blocks = zak(ctx, u @ basis).reshape(ctx.fiber_shape() * 2)
    diagonal = np.arange(ctx.n_omega)
    # contiguous, so the per-fiber sums downstream add in one fixed order
    return np.ascontiguousarray(blocks[diagonal, :, diagonal, :]), _off_block_max(ctx, blocks)[0]


def extract_range_operator(ctx: FiberContext, u) -> np.ndarray:
    """The ``(|Omega|, |C|, |C|)`` field R with zak(U f)(omega) = R(omega) zak(f)(omega).

    Raises :class:`NotTranslationPreservingError` (with the commutator
    witness) when u fails the commutation test, and :class:`RangeSolveError`
    when the fiber solve leaves an off-fiber residual above ``checks.SOLVE``.
    """
    verdict = check_translation_preserving(ctx, u)
    if not verdict:
        raise NotTranslationPreservingError(verdict)
    field, residual = solve_range_field(ctx, u, space_from_range(ctx, full_range_function(ctx)))
    if not checks.passes(residual, checks.SOLVE):
        raise RangeSolveError(residual)
    return field


def synthesize_operator(ctx: FiberContext, field) -> np.ndarray:
    """Conjugate the block-diagonal field back to an operator on signals.

    The result always commutes with the subgroup translations, and
    extracting its field recovers the input.

    With Z the fiberization and B the block-diagonal field, U = Z* B Z is
    computed as ``zak_inverse(zak_inverse(B)^H)^H`` over columns, since
    ``zak_inverse`` applies Z* to each column.
    """
    n_omega, nc = ctx.fiber_shape()
    field = _array(field, "field", (n_omega, nc, nc))
    if not np.isfinite(field).all():
        raise ValueError("field has non-finite entries")
    blocks = np.zeros(ctx.fiber_shape() * 2, dtype=complex)
    blocks[np.arange(n_omega), :, np.arange(n_omega), :] = field
    shape = (n_omega, nc, ctx.group.size)
    left = zak_inverse(ctx, blocks.reshape(shape))  # Z* B
    return zak_inverse(ctx, left.conj().T.reshape(shape)).conj().T


def _off_block_max(ctx: FiberContext, mat: np.ndarray) -> tuple[float, tuple[int, int]]:
    """The largest entry of a fibered ``(|G|, |G|)`` matrix off its diagonal
    |C| x |C| blocks (NaN if one is NaN), and the block ``(wi, wj)`` holding it."""
    blocks = np.abs(mat).reshape(ctx.fiber_shape() * 2).max(axis=(1, 3))
    np.fill_diagonal(blocks, 0.0)
    wi, wj = np.unravel_index(int(np.argmax(blocks)), blocks.shape)
    return float(blocks[wi, wj]), (int(wi), int(wj))


def multiplication_preserving_check(ctx: FiberContext, uhat, mode: str = "determining-set") -> checks.Verdict:
    """Commutation test for an operator on the flattened fiber space.

    ``determining-set`` probes multiplication by the restricted characters
    of Gamma's generators (of its one element when Gamma is trivial) and
    names the first failing generator t as its witness. The characters
    multiply, so commuting with the generators' characters implies
    commuting with every element's. ``full`` probes every omega-indicator,
    which is the same as requiring the matrix to be block diagonal over
    omega, and names the largest off-diagonal block ``(wi, wj)``. The two
    modes agree on every input away from the tolerance edge.
    """
    nc = ctx.n_c
    uhat = _array(uhat, "fibered operator", (ctx.group.size, ctx.group.size))
    if mode == "determining-set":
        residuals = []
        for t in ctx.gamma.generators or ctx.gamma.elements:
            diag = np.repeat(determining_function(ctx, t), nc)
            r = np.abs(uhat * diag[None, :] - diag[:, None] * uhat).max()
            residuals.append(r)
            if not checks.passes(r, checks.COMMUTE):
                return checks.gate(r, checks.COMMUTE, witness=t)
        return checks.gate(checks.largest(residuals), checks.COMMUTE)
    if mode == "full":
        r, block = _off_block_max(ctx, uhat)
        return checks.gate(r, checks.COMMUTE, witness=None if checks.passes(r, checks.COMMUTE) else block)
    raise ValueError(f"unknown mode {mode!r}; expected 'determining-set' or 'full'")


@dataclass(frozen=True, eq=False)
class OperatorSummary:
    """What the reports read of U on the full signal space, built from U and
    the Zak basis B = Z*, never from a field.

    ``norm`` is NaN exactly when U B has a non-finite entry.
    """

    norm: float
    rank: int
    hs_entrywise: float  # ||U B||_F^2
    hs_frame: float  # ||U||_F^2, U on the standard basis
    trace_basis: float  # Re tr B^H U B, as an entrywise sum
    trace_frame: float  # Re tr U
    hermitian_gap: float  # largest entry of U - U^H
    min_eigenvalue: float  # of the Hermitian part of U
    isometry_residual: float  # largest entry of (U B)^H U B - I


@dataclass(frozen=True, eq=False)
class FiberSummary:
    """What the reports read of a field, one entry per fiber, never from the
    operator.

    A fiber norm is NaN exactly when that fiber R(omega) has a non-finite entry.
    """

    norms: np.ndarray  # float64
    ranks: np.ndarray  # int
    hs_terms: np.ndarray  # float64
    trace_terms: np.ndarray  # float64
    isometry_residual: float  # largest entry of R^H R - I, over the fibers
    selfadjoint_residual: float  # largest entry of R - R^H, over the fibers


def _max_entry(mat: np.ndarray) -> float:
    """Largest entry modulus; 0.0 for an empty array, NaN if any entry is NaN."""
    return float(np.abs(mat).max(initial=0.0))


def operator_summary(ctx: FiberContext, u, basis) -> OperatorSummary:
    """Summarize u on the full signal space, given the ``(|G|, |G|)`` Zak
    basis B = Z*, ``space_from_range(ctx, full_range_function(ctx))``.

    Three readings of u, none through a field: the frame route reads u on
    the standard basis, the entrywise route reads U B, and the self-adjoint
    and positivity values read u's Hermitian part, which has the spectrum
    of B^H U B's. One product U B and its Gram product are formed, and one
    SVD and one Hermitian eigensolve are taken.
    """
    u = as_operator(ctx, u)
    n = ctx.group.size
    basis = _array(basis, "basis", (n, n))
    restricted = u @ basis
    adjoint = u.conj().T
    # NaN stands in for the spectrum of a non-finite matrix, on which the SVD
    # would not converge
    finite = np.isfinite(restricted).all()
    s = np.linalg.svd(restricted, compute_uv=False) if finite else np.full(1, math.nan)
    return OperatorSummary(
        norm=float(s[0]),
        rank=int(_rank_cut(s)),
        hs_entrywise=float(np.linalg.norm(restricted) ** 2),
        hs_frame=float(np.sum(np.abs(u) ** 2)),
        trace_basis=float(np.sum(basis.conj() * restricted).real),
        trace_frame=float(np.trace(u).real),
        hermitian_gap=_max_entry(u - adjoint),
        min_eigenvalue=float(np.linalg.eigvalsh((u + adjoint) / 2.0).min()),
        isometry_residual=_max_entry(restricted.conj().T @ restricted - np.eye(n)),
    )


def fiber_summary(field) -> FiberSummary:
    """Summarize the field, a ``(k, c, c)`` array of fiber matrices R(omega):
    one stacked SVD over its finite fibers, and batched traces, Grams and
    R - R^H."""
    nc = field.shape[-1] if isinstance(field, np.ndarray) and field.ndim == 3 else None
    field = _array(field, "field", (None, nc, nc))
    finite = np.isfinite(field).all(axis=(1, 2))
    s = np.full(field.shape[:2], math.nan)
    s[finite] = np.linalg.svd(field[finite], compute_uv=False)
    adjoint = field.conj().swapaxes(1, 2)
    return FiberSummary(
        norms=s.max(axis=1, initial=0.0),
        ranks=_rank_cut(s),
        hs_terms=np.sum(field.real**2 + field.imag**2, axis=(1, 2)),
        trace_terms=np.trace(field, axis1=1, axis2=2).real,
        isometry_residual=_max_entry(adjoint @ field - np.eye(field.shape[1])),
        selfadjoint_residual=_max_entry(field - adjoint),
    )


def norm_identity_report(
    op: OperatorSummary, fib: FiberSummary, tol: float = checks.NORM
) -> VerificationReport:
    """Operator norm on the space versus the largest fiber operator norm."""
    fiber_max = checks.largest(fib.norms)
    gap = abs(op.norm - fiber_max)
    ok = checks.passes(gap, tol, op.norm)
    return VerificationReport(
        passed=ok,
        verdicts={"norm_identity": ok},
        residuals={"norm_gap": gap},
        values={"operator_norm": op.norm, "max_fiber_norm": fiber_max, "fiber_norms": fib.norms},
        witness=int(np.argmax(fib.norms)) if fib.norms.size else None,
    )


def hs_trace_report(op: OperatorSummary, fib: FiberSummary, tol: float = checks.HS) -> VerificationReport:
    """Hilbert-Schmidt norm and trace computed three independent ways.

    The squared HS norm of u is compared entrywise through the Zak basis,
    on the standard basis (the full space's Parseval frame), and as a sum of
    fiber HS norms. When u passes the positivity gate the trace is compared
    the same three ways; otherwise the trace clause is skipped and flagged.
    """
    hs_values = {"entrywise": op.hs_entrywise, "frame": op.hs_frame, "fiber": float(sum(fib.hs_terms))}
    hs_res = _pairwise_gap(hs_values.values())
    hs_ok = checks.passes(hs_res, tol, op.hs_entrywise)

    verdicts = {"hs_agree": hs_ok}
    residuals = {"hs_pairwise_gap": hs_res}
    values: dict = {"hs_squared": hs_values, "hs_fiber_terms": fib.hs_terms}

    positive = checks.passes(op.hermitian_gap, checks.POSITIVITY) and checks.passes(
        -op.min_eigenvalue, checks.POSITIVITY, op.norm
    )
    values["positivity"] = {
        "hermitian_gap": op.hermitian_gap, "min_eigenvalue": op.min_eigenvalue, "positive": positive
    }
    if positive:
        tr_values = {"basis": op.trace_basis, "frame": op.trace_frame, "fiber": float(sum(fib.trace_terms))}
        values["trace_fiber_terms"] = fib.trace_terms
        tr_res = _pairwise_gap(tr_values.values())
        tr_ok = checks.passes(tr_res, tol, abs(op.trace_basis))
        verdicts["trace_agree"] = tr_ok
        residuals["trace_pairwise_gap"] = tr_res
        values["trace"] = tr_values
    return VerificationReport(
        passed=all(verdicts.values()),
        verdicts=verdicts,
        residuals=residuals,
        values=values,
        skipped=() if positive else ("trace",),
    )


def _pairwise_gap(values) -> float:
    vals = list(values)
    return checks.largest(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1 :])


def structural_flags(
    op: OperatorSummary, fib: FiberSummary, tol: float = checks.STRUCT
) -> VerificationReport:
    """Isometry, self-adjointness and rank compared between the two pictures.

    The report passes when the operator-level and fiber-level verdicts agree
    (both ways of each biconditional) and the rank on the space equals the
    sum of the fiber ranks.
    """
    # a non-finite field or basis leaves the comparison undefined: no verdict
    # that compares the two sides passes, and no rank is reported
    finite = bool(np.isfinite([op.norm, *fib.norms]).all())
    iso_op = checks.passes(op.isometry_residual, tol)
    iso_fib = checks.passes(fib.isometry_residual, tol)
    sa_op = checks.passes(op.hermitian_gap, tol)
    sa_fib = checks.passes(fib.selfadjoint_residual, tol)
    rank_op = op.rank if finite else None
    fiber_ranks = fib.ranks if finite else None
    rank_fib = int(fiber_ranks.sum()) if finite else None

    verdicts = {
        "isometry_operator": iso_op,
        "isometry_fibers": iso_fib,
        "isometry_agree": finite and iso_op == iso_fib,
        "selfadjoint_operator": sa_op,
        "selfadjoint_fibers": sa_fib,
        "selfadjoint_agree": finite and sa_op == sa_fib,
        "rank_agree": finite and rank_op == rank_fib,
    }
    return VerificationReport(
        passed=verdicts["isometry_agree"] and verdicts["selfadjoint_agree"] and verdicts["rank_agree"],
        verdicts=verdicts,
        residuals={
            "isometry_operator": op.isometry_residual,
            "isometry_fibers": fib.isometry_residual,
            "selfadjoint_operator": op.hermitian_gap,
            "selfadjoint_fibers": fib.selfadjoint_residual,
        },
        values={"rank_operator": rank_op, "rank_fiber_sum": rank_fib, "fiber_ranks": fiber_ranks},
    )
