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
from .spaces import RangeFunction, numerical_rank, space_from_range


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

    @property
    def sup_operator_norm(self) -> float:
        return checks.largest(_opnorm(m) for m in self.matrices)


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


def _opnorm(mat: np.ndarray) -> float:
    """Spectral norm; NaN for a non-finite matrix, where the SVD would not converge."""
    if mat.size == 0:
        return 0.0
    if not np.isfinite(mat).all():
        return math.nan
    return float(np.linalg.norm(mat, 2))


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


def norm_identity_report(
    ctx: FiberContext,
    u,
    field: RangeOperatorField,
    rangefn: RangeFunction,
    tol: float = checks.NORM,
) -> VerificationReport:
    """Operator norm on the space versus the largest fiber operator norm."""
    u = as_operator(ctx, u)
    basis = space_from_range(ctx, rangefn)
    op_norm = _opnorm(u @ basis)
    fiber_norms = [_opnorm(mat @ fb) for mat, fb in zip(field.matrices, rangefn.bases)]
    fiber_max = checks.largest(fiber_norms)
    witness = int(np.argmax(fiber_norms)) if fiber_norms else None
    gap = abs(op_norm - fiber_max)
    ok = checks.passes(gap, tol, op_norm)
    return VerificationReport(
        passed=ok,
        verdicts={"norm_identity": ok},
        residuals={"norm_gap": gap},
        values={
            "operator_norm": op_norm,
            "max_fiber_norm": fiber_max,
            "fiber_norms": fiber_norms,
        },
        witness=witness,
    )


def hs_trace_report(
    ctx: FiberContext,
    u,
    field: RangeOperatorField,
    rangefn: RangeFunction,
    frame,
    tol: float = checks.HS,
) -> VerificationReport:
    """Hilbert-Schmidt norm and trace computed three independent ways.

    The squared HS norm of u restricted to the space is computed entrywise,
    as a sum over the supplied Parseval frame, and as a sum of fiber HS norms.
    When u restricted to the space passes the positivity gate the trace is
    compared the same three ways; otherwise the trace clause is skipped and
    flagged. The frame must have frame operator equal to the projection onto
    the space (checked; this is what Parseval means here).
    """
    u = as_operator(ctx, u)
    basis = space_from_range(ctx, rangefn)
    vectors = [np.asarray(y, dtype=complex) for y in frame]
    frame = np.stack(vectors, axis=1) if vectors else np.zeros((ctx.group.size, 0), dtype=complex)
    frame_residual = float(np.abs(frame @ frame.conj().T - basis @ basis.conj().T).max())
    if not checks.passes(frame_residual, checks.FRAME):
        raise ValueError(
            f"frame is not Parseval for the space (frame operator residual {frame_residual:.3e})"
        )

    restricted = u @ basis
    u_frame = u @ frame
    hs_entry = float(np.linalg.norm(restricted) ** 2)
    hs_frame = float(np.linalg.norm(u_frame) ** 2)
    hs_fiber_terms = [
        float(np.linalg.norm(mat @ fb) ** 2) for mat, fb in zip(field.matrices, rangefn.bases)
    ]
    hs_fiber = float(sum(hs_fiber_terms))
    hs_values = {"entrywise": hs_entry, "frame": hs_frame, "fiber": hs_fiber}
    hs_res = _pairwise_gap(hs_values.values())
    hs_ok = checks.passes(hs_res, tol, hs_entry)

    verdicts = {"hs_agree": hs_ok}
    residuals = {"hs_pairwise_gap": hs_res, "frame_operator": frame_residual}
    values: dict = {"hs_squared": hs_values, "hs_fiber_terms": hs_fiber_terms}
    skipped: tuple[str, ...] = ()

    compressed = basis.conj().T @ restricted
    herm_gap = float(np.abs(compressed - compressed.conj().T).max()) if compressed.size else 0.0
    lam_min = (
        float(np.linalg.eigvalsh((compressed + compressed.conj().T) / 2.0).min())
        if compressed.size
        else 0.0
    )
    positive = checks.passes(herm_gap, checks.POSITIVITY) and checks.passes(
        -lam_min, checks.POSITIVITY, _opnorm(restricted)
    )
    values["positivity"] = {"hermitian_gap": herm_gap, "min_eigenvalue": lam_min, "positive": positive}

    if positive:
        tr_basis = float(np.trace(compressed).real)
        tr_frame = float(np.vdot(frame, u_frame).real)
        tr_fiber_terms = [
            float(np.trace(fb.conj().T @ mat @ fb).real)
            for mat, fb in zip(field.matrices, rangefn.bases)
        ]
        tr_fiber = float(sum(tr_fiber_terms))
        tr_values = {"basis": tr_basis, "frame": tr_frame, "fiber": tr_fiber}
        values["trace_fiber_terms"] = tr_fiber_terms
        tr_res = _pairwise_gap(tr_values.values())
        tr_ok = checks.passes(tr_res, tol, abs(tr_basis))
        verdicts["trace_agree"] = tr_ok
        residuals["trace_pairwise_gap"] = tr_res
        values["trace"] = tr_values
    else:
        skipped = ("trace",)

    return VerificationReport(
        passed=all(verdicts.values()),
        verdicts=verdicts,
        residuals=residuals,
        values=values,
        skipped=skipped,
    )


def _pairwise_gap(values) -> float:
    vals = list(values)
    return checks.largest(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1 :])


def structural_flags(
    ctx: FiberContext,
    u,
    field: RangeOperatorField,
    rangefn: RangeFunction,
    tol: float = checks.STRUCT,
) -> VerificationReport:
    """Isometry, self-adjointness and rank compared between the two pictures.

    The report passes when the operator-level and fiber-level verdicts agree
    (both ways of each biconditional) and the rank on the space equals the
    sum of the fiber ranks.
    """
    u = as_operator(ctx, u)
    basis = space_from_range(ctx, rangefn)
    d = basis.shape[1]
    restricted = u @ basis

    # fibers of dimension 0 have nothing to check
    pairs = [(mat, fb) for mat, fb in zip(field.matrices, rangefn.bases) if fb.shape[1]]
    images = [mat @ fb for mat, fb in zip(field.matrices, rangefn.bases)]
    # a non-finite field or basis leaves the comparison undefined: no verdict
    # that compares the two sides passes, and no rank is taken
    finite = bool(np.isfinite(restricted).all()) and all(np.isfinite(rb).all() for rb in images)

    gram = restricted.conj().T @ restricted
    iso_res_op = float(np.abs(gram - np.eye(d)).max()) if d else 0.0
    iso_fiber_res = checks.largest(
        np.abs(rb.conj().T @ rb - np.eye(rb.shape[1])).max() for rb in images if rb.shape[1]
    )
    iso_op = checks.passes(iso_res_op, tol)
    iso_fib = checks.passes(iso_fiber_res, tol)

    compressed = basis.conj().T @ restricted
    sa_res_op = float(np.abs(compressed - compressed.conj().T).max()) if d else 0.0
    blocks = [fb.conj().T @ mat @ fb for mat, fb in pairs]
    sa_fiber_res = checks.largest(np.abs(block - block.conj().T).max() for block in blocks)
    sa_op = checks.passes(sa_res_op, tol)
    sa_fib = checks.passes(sa_fiber_res, tol)

    rank_op = numerical_rank(restricted) if finite else None
    fiber_ranks = [numerical_rank(rb) for rb in images] if finite else None
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
            "isometry_operator": iso_res_op,
            "isometry_fibers": iso_fiber_res,
            "selfadjoint_operator": sa_res_op,
            "selfadjoint_fibers": sa_fiber_res,
        },
        values={"rank_operator": rank_op, "rank_fiber_sum": rank_fib, "fiber_ranks": fiber_ranks},
    )
