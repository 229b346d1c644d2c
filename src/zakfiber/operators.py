"""Translation-commuting operators and their fiberwise block form.

An operator on signals commutes with all translations by the subgroup
exactly when its conjugate under the fiberization is block diagonal over
omega. The block family, one |C| x |C| matrix per omega, is the range
operator field, held as one complex ``(|Omega|, |C|, |C|)`` ndarray; an
operator is a ``(|G|, |G|)`` ndarray. The functions here detect the
commutation property, and extract and synthesize fields, on the full signal
space, the space every command certifies: the field is the diagonal blocks
of Z U Z*, read in closed form and certified by its defining identity on
seeded probes. The norm, Hilbert-Schmidt, trace, isometry,
self-adjointness and rank reports describe that space too. They compare two
summaries of one type, each of a stack of blocks: the fiber side summarizes
the blocks R(omega) alone, and the operator side U alone, as the one block of
the trivial fiberization (Gamma = {0}, C = G, R = U), so its entrywise HS
route is the sum of re^2 + im^2 over U's entries. Z is unitary, so each
compared value is one that conjugation by Z leaves unchanged: a spectrum, a
Frobenius norm or a trace, never a largest entry. Per-fiber values (norms,
ranks, HS and trace terms) are 1-D arrays indexed by omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checks
from .fiberization import FiberContext, characters, determining_function, zak, zak_inverse
from .groups import _array, translate


@dataclass
class VerificationReport:
    """One identity check: the verdicts that decide it, and the values they
    compare. The report passes iff every verdict passes; a one-sided gate
    that a verdict compares is a value."""

    verdicts: dict
    values: dict
    witness: object | None = None

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return _plain({"verdicts": self.verdicts, "values": self.values, "witness": self.witness})


def _plain(value):
    """A report value as written: every :class:`checks.Verdict` in it as its
    dict, every complex number or array as ``[re, im]`` pairs on a last axis."""
    if isinstance(value, checks.Verdict):
        return value.to_dict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if np.iscomplexobj(value):
        return np.stack([np.real(value), np.imag(value)], axis=-1)
    return value


def as_operator(ctx: FiberContext, u) -> np.ndarray:
    """The complex ``(|G|, |G|)`` matrix of an operator on signals, with finite entries."""
    mat = _array(u, "operator", (ctx.group.size, ctx.group.size))
    if not np.isfinite(mat).all():
        raise ValueError("operator has non-finite entries")
    return mat


def check_translation_preserving(ctx: FiberContext, u, tol: float = checks.COMMUTE) -> checks.Verdict:
    """Max-entry commutator test against the subgroup generators.

    Commuting with the generators implies commuting with every subgroup
    element, so generators are the only probes needed. The scale is
    ``max|U|``. A failed verdict stops at the first failing probe t, with
    witness ``(t, (i, j))`` at the largest commutator entry.
    """
    u = as_operator(ctx, u)
    g = ctx.group
    scale = _max_entry(u)
    residuals = []
    for t in ctx.gamma.probes:
        # T_t u permutes the rows of u; u T_t = (T_{-t} u^T)^T permutes its
        # columns. Both are exact gathers, so no translation matrix is formed.
        comm = np.abs(translate(g, u.T, g.neg(t)).T - translate(g, u, t))
        r = comm.max()
        residuals.append(r)
        if not checks.passes(r, tol, scale):
            i, j = np.unravel_index(int(np.argmax(comm)), comm.shape)
            return checks.gate(r, tol, scale, witness=(t, (int(i), int(j))))
    return checks.gate(checks.largest(residuals), tol, scale)


def solve_range_field(ctx: FiberContext, u) -> np.ndarray:
    """The field of a u that commutes with Gamma, in closed form from its |C|
    rows at C: R(w)[c, c'] = sum_{r in Gamma} U[c, c' + r] conj(pairing(r, w)),
    one (|Omega|, |Gamma|) x (|Gamma|, |C|^2) product with the characters of
    :func:`characters`. It certifies nothing; :func:`check_field_identity` does."""
    u = as_operator(ctx, u)
    rows = u[np.ravel_multi_index(ctx.c_section.T, ctx.group.orders)]  # U[c, :]
    entries = rows[:, ctx._coset_plus].reshape(-1, ctx.gamma.size)  # U[c, c' + r], one row per (c, c')
    field = characters(ctx, ctx.gamma.elements).conj() @ entries.T
    return field.reshape(ctx.fiber_shape() + (ctx.n_c,))


def check_field_identity(ctx: FiberContext, u, field, seed: int = 0, tol: float = checks.IDENTITY) -> checks.Verdict:
    """The defining identity zak(U f)(w) = R(w) zak(f)(w) on four complex Gaussian
    probes f drawn from ``seed``; by Freivalds' argument (E f != 0 for a Gaussian f
    and any E != 0, with probability 1) it holds iff Z U Z* = blockdiag R(w). The
    residual, the largest entry of zak(U f) - R zak(f), is read against sqrt(|G|) max|U|
    max|zak(f)|, blind to U's density; a failure names the omega of the largest gap."""
    u = as_operator(ctx, u)
    field = _array(field, "field", ctx.fiber_shape() + (ctx.n_c,))
    z = np.random.default_rng(seed).standard_normal((4, 2, ctx.group.size))
    probes = np.ascontiguousarray((z[:, 0] + 1j * z[:, 1]).T)
    fibers = zak(ctx, probes)
    gaps = np.abs(zak(ctx, u @ probes) - field @ fibers).max(axis=(1, 2))
    r, scale = checks.largest(gaps), math.sqrt(ctx.group.size) * _max_entry(u) * _max_entry(fibers)
    passed = checks.passes(r, tol, scale)
    return checks.gate(r, tol, scale, witness=None if passed else int(np.argmax(gaps)))


def extract_range_operator(ctx: FiberContext, u) -> np.ndarray:
    """The ``(|Omega|, |C|, |C|)`` field R with zak(U f)(omega) = R(omega) zak(f)(omega).

    Raises :class:`checks.VerificationError` with the failing verdict:
    ``translation_preserving`` when u fails the commutation test, and
    ``field_identity`` when the field fails :func:`check_field_identity` at seed 0.
    """
    if not (verdict := check_translation_preserving(ctx, u)):
        raise checks.VerificationError("translation_preserving", verdict)
    field = solve_range_field(ctx, u)
    if not (identity := check_field_identity(ctx, u, field)):
        raise checks.VerificationError("field_identity", identity)
    return field


def synthesize_operator(ctx: FiberContext, field) -> np.ndarray:
    """Conjugate the block-diagonal field back to an operator on signals.

    The result always commutes with the subgroup translations, and
    extracting its field recovers the input.

    With Z the fiberization and B the block-diagonal field, U = Z* B Z is
    read on the standard basis: column j is zak_inverse(R zak(e_j)), one
    batched transform each way.
    """
    field = _array(field, "field", ctx.fiber_shape() + (ctx.n_c,))
    if not np.isfinite(field).all():
        raise ValueError("field has non-finite entries")
    return zak_inverse(ctx, field @ zak(ctx, np.eye(ctx.group.size, dtype=complex)))


def multiplication_preserving_check(ctx: FiberContext, uhat, mode: str = "determining-set") -> checks.Verdict:
    """Commutation test for an operator on the flattened fiber space.

    ``determining-set`` probes multiplication by the restricted characters
    of Gamma's generators (of its one element when Gamma is trivial) and
    names the first failing generator t as its witness. The characters
    multiply, so commuting with the generators' characters implies
    commuting with every element's. ``full`` probes every omega-indicator,
    which is the same as requiring the matrix to be block diagonal over
    omega, and names the largest off-diagonal block ``(wi, wj)``. The two
    modes agree on every input away from the tolerance edge. The scale is
    ``max|uhat|``.
    """
    nc = ctx.n_c
    uhat = _array(uhat, "fibered operator", (ctx.group.size, ctx.group.size))
    scale = _max_entry(uhat)
    if mode == "determining-set":
        residuals = []
        for t in ctx.gamma.probes:
            diag = np.repeat(determining_function(ctx, t), nc)
            r = np.abs(uhat * diag[None, :] - diag[:, None] * uhat).max()
            residuals.append(r)
            if not checks.passes(r, checks.COMMUTE, scale):
                return checks.gate(r, checks.COMMUTE, scale, witness=t)
        return checks.gate(checks.largest(residuals), checks.COMMUTE, scale)
    if mode == "full":
        blocks = np.abs(uhat).reshape(ctx.fiber_shape() * 2).max(axis=(1, 3))  # a NaN entry gives a NaN block
        np.fill_diagonal(blocks, 0.0)
        wi, wj = np.unravel_index(int(np.argmax(blocks)), blocks.shape)
        passed = checks.passes(blocks[wi, wj], checks.COMMUTE, scale)
        return checks.gate(blocks[wi, wj], checks.COMMUTE, scale, witness=None if passed else (int(wi), int(wj)))
    raise ValueError(f"unknown mode {mode!r}; expected 'determining-set' or 'full'")


@dataclass(frozen=True, eq=False)
class FiberSummary:
    """What the reports read of a stack of blocks, one entry per block: of a
    field R(omega), or of U alone as the one block ``u[None]`` of the trivial
    fiberization (Gamma = {0}, C = G, R = U).

    A block norm is NaN exactly when that block has a non-finite entry, and
    so is each of that block's singular values.
    """

    norms: np.ndarray  # float64
    singular_values: np.ndarray  # (blocks, |C|), each row descending
    hs_terms: np.ndarray  # float64, the sum of re^2 + im^2 over each block
    trace_terms: np.ndarray  # complex128
    selfadjoint_residual: float  # (sum over the blocks of ||R - R^H||_F^2)^(1/2)


def _max_entry(mat: np.ndarray) -> float:
    """Largest entry modulus; 0.0 for an empty array, NaN if any entry is NaN."""
    return float(np.abs(mat).max(initial=0.0))


def fiber_summary(field) -> FiberSummary:
    """Summarize a ``(k, c, c)`` stack of blocks, a field of fiber matrices
    R(omega) or ``u[None]``: one stacked SVD over its finite blocks, and
    batched traces and R - R^H."""
    nc = field.shape[-1] if isinstance(field, np.ndarray) and field.ndim == 3 else None
    field = _array(field, "field", (None, nc, nc))
    finite = np.isfinite(field).all(axis=(1, 2))
    s = np.full(field.shape[:2], math.nan)
    s[finite] = np.linalg.svd(field[finite], compute_uv=False)
    return FiberSummary(
        norms=s.max(axis=1, initial=0.0),
        singular_values=s,
        hs_terms=np.sum(field.real**2 + field.imag**2, axis=(1, 2)),
        trace_terms=np.trace(field, axis1=1, axis2=2),
        selfadjoint_residual=float(np.linalg.norm((field - field.conj().swapaxes(1, 2)).ravel())),
    )


def norm_identity_report(op: FiberSummary, fib: FiberSummary, tol: float = checks.NORM) -> VerificationReport:
    """Operator norm on the space versus the largest fiber operator norm,
    measured against the operator norm. The witness is the first fiber whose
    norm is within the gate's bound of the largest, or the first NaN one."""
    op_norm, fiber_max = checks.largest(op.norms), checks.largest(fib.norms)
    verdict = checks.gate(abs(op_norm - fiber_max), tol, op_norm)
    attains = np.isnan(fib.norms) | (fib.norms >= fiber_max - verdict.bound)
    return VerificationReport(
        verdicts={"norm_identity": verdict},
        values={"operator_norm": op_norm, "max_fiber_norm": fiber_max, "fiber_norms": fib.norms},
        witness=int(np.argmax(attains)) if attains.size else None,
    )


def hs_trace_report(op: FiberSummary, fib: FiberSummary, tol: float = checks.HS) -> VerificationReport:
    """Hilbert-Schmidt norm and trace computed two independent ways.

    The squared HS norm of u by the entrywise route, the sum of re^2 + im^2
    over U's entries, is compared with the sum of the fiber HS norms,
    measured against the former. The complex trace, which every operator on
    a finite group has, is compared as tr U with the sum of the fiber traces,
    against the nuclear norm of u: |tr u| on a positive u, and zero only at u = 0.
    """
    hs_op, hs_fiber = (float(sum(side.hs_terms)) for side in (op, fib))
    tr_op, tr_fiber = (complex(sum(side.trace_terms)) for side in (op, fib))
    verdicts = {
        "hs_agree": checks.gate(abs(hs_op - hs_fiber), tol, hs_op),
        "trace_agree": checks.gate(abs(tr_op - tr_fiber), tol, float(np.sum(op.singular_values))),
    }
    values = {
        "hs_squared": {"entrywise": hs_op, "fiber": hs_fiber},
        "trace": {"entrywise": tr_op, "fiber": tr_fiber},
        "hs_fiber_terms": fib.hs_terms,
        "trace_fiber_terms": fib.trace_terms,
    }
    return VerificationReport(verdicts, values)


def _rank_decision(s: np.ndarray) -> tuple[np.ndarray, dict]:
    """The rank of each row of a stack of singular values, and what decided
    it: the cut, the smallest value kept and the largest dropped (None where
    there is none)."""
    keep, cut = checks.rank_cut(s)
    kept, dropped = s[keep], s[s <= cut]
    return keep.sum(axis=-1), {
        "cut": cut,
        "smallest_kept": float(kept.min()) if kept.size else None,
        "largest_dropped": float(dropped.max()) if dropped.size else None,
    }


def structural_flags(op: FiberSummary, fib: FiberSummary, tol: float = checks.STRUCT) -> VerificationReport:
    """Isometry, self-adjointness, positivity and rank compared between the sides.

    Each side decides isometry (absolute), self-adjointness and positivity
    (against its own norm), and cuts its rank at its own largest singular
    value. Every residual is one that a unitary change of basis leaves
    unchanged, so both sides measure the same quantity: the isometry residual
    is ||A^H A - I||_2 = max |s_i^2 - 1| over the singular values (over all
    fibers' values on the fiber side), and the self-adjoint residual is
    ||U - U^H||_F against (sum over the fibers of ||R - R^H||_F^2)^(1/2).
    A square A has Re tr A <= ||A||_*, the sum of its singular values,
    with equality iff A >= 0, and each fiber's deficit is >= 0, so their sum
    is 0 iff every fiber is positive. The deficit grows only quadratically
    in a skew-Hermitian part, so positivity gates it with the self-adjoint
    residual. The report passes when the two sides agree on each
    biconditional and the rank on the space equals the sum of the fiber ranks.
    """
    sides, ranks, cuts = {}, {}, {}
    for side, summary in (("operator", op), ("fibers", fib)):
        s, norm, gap = summary.singular_values, checks.largest(summary.norms), summary.selfadjoint_residual
        deficit = np.sum(s) - np.sum(summary.trace_terms).real
        sides[f"isometry_{side}"] = checks.gate(_max_entry(s**2 - 1), tol, 1.0)
        sides[f"selfadjoint_{side}"] = checks.gate(gap, tol, norm)
        sides[f"positive_{side}"] = checks.gate(checks.largest([gap, deficit]), tol, norm)
        ranks[side], cuts[side] = _rank_decision(s)
    # a non-finite field leaves the comparison undefined: no verdict that
    # compares the two sides passes, and no rank is reported
    finite = bool(np.isfinite([*op.norms, *fib.norms]).all())
    rank_op, rank_fib = int(ranks["operator"].sum()), int(ranks["fibers"].sum())
    disagreements = {
        f"{name}_agree": sides[f"{name}_operator"].passed != sides[f"{name}_fibers"].passed
        for name in ("isometry", "selfadjoint", "positive")
    }
    disagreements["rank_agree"] = abs(rank_op - rank_fib)
    return VerificationReport(
        verdicts={name: checks.gate(d if finite else math.nan, 0.0, 1.0) for name, d in disagreements.items()},
        values={
            **sides,
            "rank_operator": rank_op if finite else None,
            "rank_fiber_sum": rank_fib if finite else None,
            "fiber_ranks": ranks["fibers"] if finite else None,
            "rank_cut": cuts,
        },
    )
