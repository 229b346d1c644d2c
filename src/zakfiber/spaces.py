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


def _directions(ctx: FiberContext, family) -> np.ndarray:
    """Per omega, the left singular directions of the fibers of the family
    (the columns of a ``(|G|, k)`` matrix), one SVD over the whole
    ``(|Omega|, |C|, k)`` stack; the directions at or below the stack's rank
    cut are zero columns."""
    left, s = np.linalg.svd(zak(ctx, family), full_matrices=False)[:2]
    return np.where(checks.rank_cut(s)[0][:, None, :], left, 0)


def range_function(ctx: FiberContext, generators) -> np.ndarray:
    """Per omega, the projection onto the span of the fibers of the generators
    (the columns of a ``(|G|, k)`` matrix) above the stack's rank cut; k = 0
    yields the zero range function."""
    # a projection does not depend on which singular directions span its range
    spans = _directions(ctx, _array(generators, "generators", (ctx.group.size, None)))
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
    if not (verdict := is_translation_invariant(ctx, basis)):
        raise checks.VerificationError("translation_invariant", verdict)
    directions = _directions(ctx, basis)
    fibers = directions[..., : directions.any(axis=1).sum(axis=-1).max(initial=0)]
    # rotate each direction so its largest-modulus entry is real positive,
    # which keeps orthonormality and makes the basis reproducible across
    # LAPACK builds; a zero column has pivot 0 and stays zero
    pivots = np.take_along_axis(fibers, np.abs(fibers).argmax(axis=1)[:, None, :], axis=1)
    return zak_inverse(ctx, fibers * (pivots.conj() / np.where(pivots == 0, 1.0, np.abs(pivots))))


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
