"""Translation-invariant subspaces represented fiberwise by range functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checks
from .fiberization import FiberContext, zak, zak_inverse
from .groups import as_signal, translate


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


@dataclass(frozen=True, eq=False)
class RangeFunction:
    """One orthonormal basis matrix per omega; zero-dimensional fibers keep
    an explicit |C| x 0 matrix so sums over omega stay total."""

    bases: tuple[np.ndarray, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.shape[1] for b in self.bases)

    @property
    def dim_total(self) -> int:
        return sum(self.dims)

    def projection(self, omega_index: int) -> np.ndarray:
        b = self.bases[omega_index]
        return b @ b.conj().T


def _rank_cut(s: np.ndarray) -> int:
    """Number of singular values (sorted descending) above checks.RANK * max(1, sigma_max)."""
    return int(np.sum(s > checks.threshold(checks.RANK, s[0]))) if s.size else 0


def _column_spans(stacked: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the numerical column span of each stacked matrix.

    One SVD over the whole ``(|Omega|, |C|, k)`` stack; per matrix, the left
    singular directions above its rank cut, each rotated so its
    largest-modulus entry is real positive. The rotation keeps
    orthonormality and makes the basis reproducible across LAPACK builds.
    """
    spans = []
    for u, s in zip(*np.linalg.svd(stacked, full_matrices=False)[:2]):
        u = u[:, : _rank_cut(s)]
        pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        spans.append(u * (pivots.conj() / np.abs(pivots)))
    return spans


def range_function(ctx: FiberContext, generators) -> RangeFunction:
    """Per-omega orthonormalized span of the generator fibers.

    An empty generator list yields the zero range function.
    """
    gens = [as_signal(ctx.group, f) for f in generators]
    if not gens:
        return RangeFunction(tuple(np.zeros((ctx.n_c, 0), dtype=complex) for _ in range(ctx.n_omega)))
    # fibered[wi] stacks the omega-fibers of all generators as columns
    fibered = zak(ctx, np.stack(gens, axis=1))
    return RangeFunction(tuple(_column_spans(fibered)))


def full_range_function(ctx: FiberContext) -> RangeFunction:
    """The range function of the whole signal space: every fiber is full."""
    eye = np.eye(ctx.n_c, dtype=complex)
    return RangeFunction(tuple(eye.copy() for _ in range(ctx.n_omega)))


def space_from_range(ctx: FiberContext, rangefn: RangeFunction) -> np.ndarray:
    """Orthonormal basis (as matrix columns) of the signals whose fibers lie
    in the range function, ordered by omega then by basis column.

    Each basis vector is supported on a single fiber, which downstream fiber
    solves rely on.
    """
    fibers = np.zeros(ctx.fiber_shape() + (rangefn.dim_total,), dtype=complex)
    col = 0
    for wi, basis in enumerate(rangefn.bases):
        fibers[wi, :, col : col + basis.shape[1]] = basis
        col += basis.shape[1]
    return zak_inverse(ctx, fibers)


def project_via_fibers(ctx: FiberContext, rangefn: RangeFunction, f) -> np.ndarray:
    """Orthogonal projection computed fiber by fiber."""
    fibers = zak(ctx, f)
    out = np.zeros_like(fibers)
    for wi, basis in enumerate(rangefn.bases):
        out[wi] = basis @ (basis.conj().T @ fibers[wi])
    return zak_inverse(ctx, out)


def is_translation_invariant(ctx: FiberContext, basis) -> checks.Verdict:
    """Check that translating every basis vector stays in the span.

    Checking the generators of the subgroup suffices by additivity; the full
    element list is used when no generator list is stored. A failed verdict
    names the first failing probe t and basis column j as ``(t, j)``.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != ctx.group.size:
        raise ValueError(f"basis has shape {basis.shape}, expected ({ctx.group.size}, d)")
    if basis.shape[1] == 0:
        return checks.gate(0.0, checks.INVARIANCE)
    residuals = []
    for t in ctx.gamma.generators or ctx.gamma.elements:
        shifted = translate(ctx.group, basis, t)
        resid = np.abs(shifted - basis @ (basis.conj().T @ shifted)).max(axis=0)  # per column
        over = np.flatnonzero(~checks.passes(resid, checks.INVARIANCE))
        if over.size:
            j = int(over[0])
            return checks.gate(resid[j], checks.INVARIANCE, witness=(t, j))
        residuals.append(resid.max())
    return checks.gate(checks.largest(residuals), checks.INVARIANCE)


def principal_decomposition(ctx: FiberContext, basis):
    """Split an invariant space into singly generated orthogonal components.

    Returns generators phi_1..phi_N whose fibers are the left singular
    directions of the stacked basis fibers: per omega the n-th generator gets
    the n-th singular direction when the fiber rank allows it and a zero
    fiber otherwise. Consequences, enforced by tests: every nonzero fiber has
    unit norm, for fixed omega the nonzero fibers are orthonormal, and the
    translate families of distinct generators are mutually orthogonal.
    """
    basis = np.asarray(basis, dtype=complex)
    verdict = is_translation_invariant(ctx, basis)
    if not verdict:
        raise NotTranslationInvariantError(*verdict.witness, verdict.residual)
    if basis.shape[1] == 0:
        return []
    # per omega: |C| x rank matrix of singular directions
    directions = _column_spans(zak(ctx, basis))
    n_generators = max(mat.shape[1] for mat in directions)
    fibers = np.zeros(ctx.fiber_shape() + (n_generators,), dtype=complex)
    for wi, mat in enumerate(directions):
        fibers[wi, :, : mat.shape[1]] = mat
    return list(zak_inverse(ctx, fibers).T)


def parseval_fiber_check(ctx: FiberContext, phi) -> bool:
    """True when every fiber of phi has norm 0 or 1 (within checks.PARSEVAL).

    Generators with this property produce translate families that are tight
    for their generated space once rescaled by |Gamma|^(-1/2); see
    :func:`translate_parseval_frame`.
    """
    norms = np.linalg.norm(zak(ctx, phi), axis=1)
    # distance of each norm from the nearer of 0 and 1
    return bool(np.all(checks.passes(np.minimum(norms, np.abs(norms - 1.0)), checks.PARSEVAL)))


def translate_parseval_frame(ctx: FiberContext, generators) -> list[np.ndarray]:
    """All translates of the generators, scaled by |Gamma|^(-1/2).

    For generators with unit-or-zero fiber norms the resulting family has
    frame operator equal to the orthogonal projection onto the generated
    space, i.e. it is a Parseval frame under plain (weight 1) summation.
    The scaling accounts for counting measure putting total mass |Gamma| on
    the subgroup.
    """
    gens = [as_signal(ctx.group, phi) for phi in generators]
    if not gens:
        return []
    scale = 1.0 / np.sqrt(ctx.gamma.size)
    phis = np.stack(gens, axis=1)
    shifted = np.stack([translate(ctx.group, phis, t) for t in ctx.gamma.elements])  # (|Gamma|, |G|, N)
    # generator-major order: all translates of the first generator come first
    return list(scale * shifted.transpose(2, 0, 1).reshape(-1, ctx.group.size))
