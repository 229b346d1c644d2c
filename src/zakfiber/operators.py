"""Translation-commuting operators and their fiberwise block form.

An operator on signals commutes with all translations by the subgroup
exactly when its conjugate under the fiberization is block diagonal over
omega. The block family (one |C| x |C| matrix per omega, stored extended by
zero off the fiber subspace) is the range operator field; the functions here
detect the commutation property, extract and apply fields, synthesize
operators from fields, and verify the norm, Hilbert-Schmidt, trace, isometry,
self-adjointness and rank correspondences between the two pictures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checks
from .fiberization import FiberContext, determining_function, zak, zak_inverse
from .groups import translate
from .spaces import RangeFunction, _rank_cut, space_from_range


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


@dataclass(frozen=True, eq=False)
class RangeOperatorField:
    """One |C| x |C| matrix per omega, zero on the orthocomplement of its fiber."""

    matrices: tuple[np.ndarray, ...]


@dataclass
class VerificationReport:
    """Named residuals, values and verdicts for one identity check."""

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
            "values": _jsonable(self.values),
            "witness": _jsonable(self.witness),
            "skipped": list(self.skipped),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def as_operator(ctx: FiberContext, u) -> np.ndarray:
    """Coerce to a square complex matrix acting on signals."""
    mat = np.asarray(u, dtype=complex)
    n = ctx.group.size
    if mat.shape != (n, n):
        raise ValueError(f"operator has shape {mat.shape}, expected ({n}, {n})")
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


def solve_range_field(ctx: FiberContext, u, rangefn: RangeFunction):
    """Fiberwise solve for the field of u on the given range function.

    Returns ``(field, residual)`` where residual is the largest off-fiber
    leakage of u applied to the fiber-supported canonical basis. A residual
    at rounding scale certifies that the field reproduces u on the space;
    a large residual means no field exists.
    """
    u = as_operator(ctx, u)
    images = zak(ctx, u @ space_from_range(ctx, rangefn))  # (|Omega|, |C|, dim)
    owner = np.repeat(np.arange(ctx.n_omega), rangefn.dims)  # the fiber of each basis column
    own = np.arange(ctx.n_omega)[:, None] == owner[None, :]
    residual = float(np.where(own, 0.0, np.abs(images).max(axis=1)).max(initial=0.0))
    matrices = tuple(
        images[wi][:, owner == wi] @ fiber_basis.conj().T for wi, fiber_basis in enumerate(rangefn.bases)
    )
    return RangeOperatorField(matrices), residual


def extract_range_operator(ctx: FiberContext, u, rangefn: RangeFunction) -> RangeOperatorField:
    """The field R with zak(U f)(omega) = R(omega) zak(f)(omega) on the space.

    Raises :class:`NotTranslationPreservingError` (with the commutator
    witness) when u fails the commutation test, and :class:`RangeSolveError`
    when the fiber solve leaves an off-fiber residual above ``checks.SOLVE``.
    """
    verdict = check_translation_preserving(ctx, u)
    if not verdict:
        raise NotTranslationPreservingError(verdict)
    field, residual = solve_range_field(ctx, u, rangefn)
    if not checks.passes(residual, checks.SOLVE):
        raise RangeSolveError(residual)
    return field


def synthesize_operator(ctx: FiberContext, field: RangeOperatorField, rangefn: RangeFunction) -> np.ndarray:
    """Conjugate the block-diagonal field back to an operator on signals.

    The result acts as the field on the space of the range function and as
    zero on its orthocomplement; it always commutes with the subgroup
    translations, and extracting its field recovers the input.

    With Z the fiberization and B the block-diagonal field, U = Z* B Z is
    computed as ``zak_inverse(zak_inverse(B)^H)^H`` over columns, since
    ``zak_inverse`` applies Z* to each column.
    """
    n = ctx.group.size
    nc = ctx.n_c
    shape = ctx.fiber_shape() + (n,)
    if len(field.matrices) != ctx.n_omega:
        raise ValueError(f"field has {len(field.matrices)} fibers, expected {ctx.n_omega}")
    big = np.zeros((n, n), dtype=complex)
    for wi, (mat, fiber_basis) in enumerate(zip(field.matrices, rangefn.bases)):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (nc, nc):
            raise ValueError(f"fiber matrix {wi} has shape {mat.shape}, expected ({nc}, {nc})")
        proj = fiber_basis @ fiber_basis.conj().T
        leak = np.abs(mat @ (np.eye(nc) - proj)).max() if nc else 0.0
        if not checks.passes(leak, checks.DOMAIN):
            raise ValueError(
                f"fiber matrix {wi} does not vanish on the fiber orthocomplement "
                f"(residual {leak:.3e})"
            )
        big[wi * nc : (wi + 1) * nc, wi * nc : (wi + 1) * nc] = mat
    left = zak_inverse(ctx, big.reshape(shape))  # Z* B
    return zak_inverse(ctx, left.conj().T.reshape(shape)).conj().T


def multiplication_preserving_check(ctx: FiberContext, uhat, mode: str = "determining-set") -> checks.Verdict:
    """Commutation test for an operator on the flattened fiber space.

    ``determining-set`` probes multiplication by every restricted character
    and names the first failing element t of Gamma as its witness; ``full``
    probes every omega-indicator, which is the same as requiring the matrix
    to be block diagonal over omega, and names the largest off-diagonal
    block ``(wi, wj)``. The two modes agree on every input away from the
    tolerance edge.
    """
    n = ctx.group.size
    nc = ctx.n_c
    uhat = np.asarray(uhat, dtype=complex)
    if uhat.shape != (n, n):
        raise ValueError(f"fibered operator has shape {uhat.shape}, expected ({n}, {n})")
    if mode == "determining-set":
        residuals = []
        for t in ctx.gamma.elements:
            diag = np.repeat(determining_function(ctx, t), nc)
            r = np.abs(uhat * diag[None, :] - diag[:, None] * uhat).max()
            residuals.append(r)
            if not checks.passes(r, checks.COMMUTE):
                return checks.gate(r, checks.COMMUTE, witness=t)
        return checks.gate(checks.largest(residuals), checks.COMMUTE)
    if mode == "full":
        # blocks[wi, wj] is the largest entry of the (wi, wj) block
        blocks = np.abs(uhat).reshape(ctx.n_omega, nc, ctx.n_omega, nc).max(axis=(1, 3))
        np.fill_diagonal(blocks, 0.0)
        wi, wj = np.unravel_index(int(np.argmax(blocks)), blocks.shape)
        r = blocks[wi, wj]
        witness = None if checks.passes(r, checks.COMMUTE) else (int(wi), int(wj))
        return checks.gate(r, checks.COMMUTE, witness=witness)
    raise ValueError(f"unknown mode {mode!r}; expected 'determining-set' or 'full'")


@dataclass(frozen=True, eq=False)
class OperatorSummary:
    """What the reports read of U restricted to the space V, built from U,
    an orthonormal basis of V and a Parseval frame for V, never from a field.

    ``norm`` is NaN exactly when U|_V has a non-finite entry.
    """

    norm: float
    rank: int
    hs_entrywise: float
    hs_frame: float
    trace_basis: float
    trace_frame: float
    hermitian_gap: float  # largest entry of C - C^H, with C = basis^H U basis
    min_eigenvalue: float  # of the Hermitian part of C
    isometry_residual: float  # largest entry of (U|_V)^H U|_V - I
    frame_residual: float  # largest entry of the frame operator minus the projection onto V


@dataclass(frozen=True, eq=False)
class FiberSummary:
    """What the reports read of a field on a range function, one entry per
    fiber, never from the operator.

    A fiber norm is NaN exactly when that fiber image R(omega) B(omega) has a
    non-finite entry.
    """

    norms: list[float]
    ranks: list[int]
    hs_terms: list[float]
    trace_terms: list[float]
    isometry_residual: float  # largest entry of R^H R - I, over the fiber images R = R(omega) B(omega)
    selfadjoint_residual: float  # largest entry of C - C^H, over the blocks C = B(omega)^H R(omega) B(omega)


def _max_entry(mat: np.ndarray) -> float:
    """Largest entry modulus; 0.0 for an empty matrix, NaN if any entry is NaN."""
    return float(np.abs(mat).max(initial=0.0))


def _singular_values(mat: np.ndarray) -> np.ndarray:
    """Singular values, descending; NaN for a non-finite matrix, where the SVD would not converge."""
    if not np.isfinite(mat).all():
        return np.full(1, math.nan)
    return np.linalg.svd(mat, compute_uv=False) if mat.size else np.zeros(0)


def operator_summary(ctx: FiberContext, u, basis, frame) -> OperatorSummary:
    """Summarize u on the space spanned by the orthonormal basis columns.

    The frame must have frame operator equal to the projection onto the space
    (checked; this is what Parseval means here). Each dense product is formed
    once, and one SVD and one Hermitian eigensolve are taken.
    """
    u = as_operator(ctx, u)
    basis = np.asarray(basis, dtype=complex)
    vectors = [np.asarray(y, dtype=complex) for y in frame]
    frame = np.stack(vectors, axis=1) if vectors else np.zeros((ctx.group.size, 0), dtype=complex)
    frame_residual = _max_entry(frame @ frame.conj().T - basis @ basis.conj().T)
    if not checks.passes(frame_residual, checks.FRAME):
        raise ValueError(f"frame is not Parseval for the space (residual {frame_residual:.3e})")
    d = basis.shape[1]
    restricted = u @ basis
    u_frame = u @ frame
    compressed = basis.conj().T @ restricted
    adjoint = compressed.conj().T
    s = _singular_values(restricted)
    return OperatorSummary(
        norm=checks.largest(s),
        rank=_rank_cut(s),
        hs_entrywise=float(np.linalg.norm(restricted) ** 2),
        hs_frame=float(np.linalg.norm(u_frame) ** 2),
        trace_basis=float(np.trace(compressed).real),
        trace_frame=float(np.vdot(frame, u_frame).real),
        hermitian_gap=_max_entry(compressed - adjoint),
        min_eigenvalue=float(np.linalg.eigvalsh((compressed + adjoint) / 2.0).min()) if d else 0.0,
        isometry_residual=_max_entry(restricted.conj().T @ restricted - np.eye(d)),
        frame_residual=frame_residual,
    )


def fiber_summary(field: RangeOperatorField, rangefn: RangeFunction) -> FiberSummary:
    """Summarize the field on the range function, one fiber image and one SVD per fiber."""
    images = [mat @ fb for mat, fb in zip(field.matrices, rangefn.bases)]
    # (B^H R) B, the association the trace and self-adjointness terms share
    blocks = [fb.conj().T @ mat @ fb for mat, fb in zip(field.matrices, rangefn.bases)]
    spectra = [_singular_values(rb) for rb in images]
    return FiberSummary(
        norms=[checks.largest(s) for s in spectra],
        ranks=[_rank_cut(s) for s in spectra],
        hs_terms=[float(np.linalg.norm(rb) ** 2) for rb in images],
        trace_terms=[float(np.trace(block).real) for block in blocks],
        isometry_residual=checks.largest(_max_entry(rb.conj().T @ rb - np.eye(rb.shape[1])) for rb in images),
        selfadjoint_residual=checks.largest(_max_entry(block - block.conj().T) for block in blocks),
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
        witness=int(np.argmax(fib.norms)) if fib.norms else None,
    )


def hs_trace_report(op: OperatorSummary, fib: FiberSummary, tol: float = checks.HS) -> VerificationReport:
    """Hilbert-Schmidt norm and trace computed three independent ways.

    The squared HS norm of u restricted to the space is compared entrywise,
    as a sum over the Parseval frame, and as a sum of fiber HS norms. When u
    restricted to the space passes the positivity gate the trace is compared
    the same three ways; otherwise the trace clause is skipped and flagged.
    """
    hs_values = {"entrywise": op.hs_entrywise, "frame": op.hs_frame, "fiber": float(sum(fib.hs_terms))}
    hs_res = _pairwise_gap(hs_values.values())
    hs_ok = checks.passes(hs_res, tol, op.hs_entrywise)

    verdicts = {"hs_agree": hs_ok}
    residuals = {"hs_pairwise_gap": hs_res, "frame_operator": op.frame_residual}
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
    rank_fib = int(sum(fiber_ranks)) if finite else None

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
