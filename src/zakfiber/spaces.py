"""Translation-invariant subspaces represented fiberwise by range functions.

A family of signals (generators, bases, frames) is one ``(|G|, k)`` ndarray
with one signal per column. A range function is one ``(|Omega|, |C|, |C|)``
ndarray, the field of the orthogonal projections onto the space's fibers,
so fibers of different dimensions share one array.
"""

from __future__ import annotations

import numpy as np

from . import checks
from .fiberization import FiberContext, zak, zak_inverse
from .groups import _array, translate


class NotTranslationInvariantError(ValueError):
    """Raised when an operation requires an invariant space and gets a witness instead."""

    def __init__(self, witness_gamma, witness_column: int, residual: float):
        self.witness_gamma = witness_gamma
        self.witness_column = witness_column
        self.residual = residual
        super().__init__(
            f"space is not translation invariant: translating basis column "
            f"{witness_column} by {witness_gamma!r} leaves the span (residual {residual:.3e})"
        )


def _column_spans(stacked: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the numerical column span of each stacked matrix.

    One SVD over the whole ``(|Omega|, |C|, k)`` stack; per matrix, the left
    singular directions above the stack's rank cut, each rotated so its
    largest-modulus entry is real positive. The rotation keeps
    orthonormality and makes the basis reproducible across LAPACK builds.
    """
    left, s = np.linalg.svd(stacked, full_matrices=False)[:2]
    spans = []
    for u, rank in zip(left, checks.rank_cut(s)[0].sum(axis=-1)):
        u = u[:, :rank]
        pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        spans.append(u * (pivots.conj() / np.abs(pivots)))
    return spans


def range_function(ctx: FiberContext, generators) -> np.ndarray:
    """Per omega, the projection onto the span of the fibers of the generators
    (the columns of a ``(|G|, k)`` matrix) above the stack's rank cut; k = 0
    yields the zero range function."""
    generators = _array(generators, "generators", (ctx.group.size, None))
    # zak(...)[wi] holds the omega-fibers of all generators as columns; a
    # projection does not depend on which singular directions span its range
    left, s = np.linalg.svd(zak(ctx, generators), full_matrices=False)[:2]
    spans = left * checks.rank_cut(s)[0][:, None, :]
    return spans @ spans.conj().swapaxes(-1, -2)


def space_from_range(ctx: FiberContext, rangefn) -> np.ndarray:
    """Orthonormal basis (as matrix columns) of the signals whose fibers lie
    in the range function, ordered by omega; dim V columns in all, each
    supported on a single fiber.
    """
    rangefn = _array(rangefn, "range function", ctx.fiber_shape() + (ctx.n_c,))
    values, vectors = np.linalg.eigh(rangefn)
    # a projection's eigenvalues are 0 or 1, so 1/2 is no tolerance
    wi, col = np.nonzero(values > 0.5)
    fibers = np.zeros(ctx.fiber_shape() + (wi.size,), dtype=complex)
    fibers[wi, :, np.arange(wi.size)] = vectors[wi, :, col]
    return zak_inverse(ctx, fibers)


def is_translation_invariant(ctx: FiberContext, basis) -> checks.Verdict:
    """Check that translating every column of the ``(|G|, d)`` basis stays in the span.

    Checking the generators of the subgroup suffices by additivity; the full
    element list is used when no generator list is stored. A failed verdict
    names the first failing probe t and basis column j as ``(t, j)``.
    """
    basis = _array(basis, "basis", (ctx.group.size, None))
    if basis.shape[1] == 0:
        return checks.gate(0.0, checks.INVARIANCE, 1.0)
    residuals = []
    for t in ctx.gamma.probes:
        shifted = translate(ctx.group, basis, t)
        resid = np.abs(shifted - basis @ (basis.conj().T @ shifted)).max(axis=0)  # per column
        over = np.flatnonzero(~checks.passes(resid, checks.INVARIANCE, 1.0))
        if over.size:
            j = int(over[0])
            return checks.gate(resid[j], checks.INVARIANCE, 1.0, witness=(t, j))
        residuals.append(resid.max())
    return checks.gate(checks.largest(residuals), checks.INVARIANCE, 1.0)


def principal_decomposition(ctx: FiberContext, basis):
    """Split an invariant space into singly generated orthogonal components.

    Returns the ``(|G|, N)`` matrix of generators phi_1..phi_N whose fibers
    are the left singular directions of the stacked basis fibers: per omega
    the n-th generator gets the n-th singular direction when the fiber rank
    allows it and a zero fiber otherwise. Consequences, enforced by tests: every nonzero fiber has
    unit norm, for fixed omega the nonzero fibers are orthonormal, and the
    translate families of distinct generators are mutually orthogonal.
    Where fiber singular values are degenerate, as on the full space, rounding
    in the SVD picks which rotation of the valid generators is returned.
    """
    verdict = is_translation_invariant(ctx, basis)
    if not verdict:
        raise NotTranslationInvariantError(*verdict.witness, verdict.residual)
    # per omega: |C| x rank matrix of singular directions
    directions = _column_spans(zak(ctx, basis))
    n_generators = max(mat.shape[1] for mat in directions)
    fibers = np.zeros(ctx.fiber_shape() + (n_generators,), dtype=complex)
    for wi, mat in enumerate(directions):
        fibers[wi, :, : mat.shape[1]] = mat
    return zak_inverse(ctx, fibers)


def translate_parseval_frame(ctx: FiberContext, generators) -> np.ndarray:
    """All translates of the generators, the columns of a ``(|G|, N)`` matrix,
    scaled by |Gamma|^(-1/2), as the columns of a ``(|G|, N |Gamma|)`` matrix.

    For generators with unit-or-zero fiber norms the resulting family has
    frame operator equal to the orthogonal projection onto the generated
    space, i.e. it is a Parseval frame under plain (weight 1) summation.
    The scaling accounts for counting measure putting total mass |Gamma| on
    the subgroup.
    """
    phis = _array(generators, "generators", (ctx.group.size, None))
    scale = 1.0 / np.sqrt(ctx.gamma.size)
    shifted = np.stack([translate(ctx.group, phis, t) for t in ctx.gamma.elements], axis=-1)  # (|G|, N, |Gamma|)
    # generator-major order: all translates of the first generator come first
    return scale * shifted.reshape(ctx.group.size, -1)
