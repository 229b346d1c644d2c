"""Translation-invariant subspaces represented fiberwise by range functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fiberization import FiberContext, zak, zak_inverse
from .groups import as_signal, translate

RANK_TOL = 1e-9
INVARIANCE_TOL = 1e-9


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


def _rank_cut(s: np.ndarray, tol: float) -> int:
    """Number of singular values above tol * max(1, sigma_max)."""
    return int(np.sum(s > tol * max(1.0, float(s[0]))))


def numerical_rank(mat: np.ndarray, tol: float = RANK_TOL) -> int:
    """Rank with the fixed threshold tol * max(1, sigma_max)."""
    if mat.size == 0:
        return 0
    return _rank_cut(np.linalg.svd(mat, compute_uv=False), tol)


def _column_span(mat: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the numerical column span of mat.

    The left singular directions above the rank cut, each rotated so its
    largest-modulus entry is real positive; this keeps orthonormality and
    makes the basis reproducible across LAPACK builds.
    """
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    u = u[:, : _rank_cut(s, tol)]
    pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return u * (pivots.conj() / np.abs(pivots))


def range_function(ctx: FiberContext, generators, rank_tol: float = RANK_TOL) -> RangeFunction:
    """Per-omega orthonormalized span of the generator fibers.

    An empty generator list yields the zero range function.
    """
    gens = [as_signal(ctx.group, f) for f in generators]
    if not gens:
        return RangeFunction(tuple(np.zeros((ctx.n_c, 0), dtype=complex) for _ in range(ctx.n_omega)))
    # fibered[wi] stacks the omega-fibers of all generators as columns
    fibered = zak(ctx, np.stack(gens, axis=1))
    return RangeFunction(tuple(_column_span(stacked, rank_tol) for stacked in fibered))


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


@dataclass(frozen=True)
class InvarianceVerdict:
    invariant: bool
    residual: float
    witness_gamma: tuple | None = None
    witness_column: int | None = None

    def __bool__(self) -> bool:
        return self.invariant


def is_translation_invariant(ctx: FiberContext, basis, tol: float = INVARIANCE_TOL) -> InvarianceVerdict:
    """Check that translating every basis vector stays in the span.

    Checking the generators of the subgroup suffices by additivity; the full
    element list is used when no generator list is stored.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != ctx.group.size:
        raise ValueError(f"basis has shape {basis.shape}, expected ({ctx.group.size}, d)")
    if basis.shape[1] == 0:
        return InvarianceVerdict(True, 0.0)
    probes = ctx.gamma.generators or ctx.gamma.elements
    worst = 0.0
    for t in probes:
        shifted = translate(ctx.group, basis, t)
        resid = np.abs(shifted - basis @ (basis.conj().T @ shifted)).max(axis=0)  # per column
        over = np.flatnonzero(~(resid <= tol))  # NaN fails
        if over.size:
            j = int(over[0])
            return InvarianceVerdict(False, float(resid[j]), t, j)
        worst = max(worst, float(resid.max()))
    return InvarianceVerdict(True, worst)


def principal_decomposition(ctx: FiberContext, basis, rank_tol: float = RANK_TOL):
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
        raise NotTranslationInvariantError(verdict.witness_gamma, verdict.witness_column, verdict.residual)
    if basis.shape[1] == 0:
        return []
    # per omega: |C| x rank matrix of singular directions
    directions = [_column_span(stacked, rank_tol) for stacked in zak(ctx, basis)]
    n_generators = max(mat.shape[1] for mat in directions)
    fibers = np.zeros(ctx.fiber_shape() + (n_generators,), dtype=complex)
    for wi, mat in enumerate(directions):
        fibers[wi, :, : mat.shape[1]] = mat
    return list(zak_inverse(ctx, fibers).T)


def parseval_fiber_check(ctx: FiberContext, phi, tol: float = 1e-9) -> bool:
    """True when every fiber of phi has norm 0 or 1 (within tol).

    Generators with this property produce translate families that are tight
    for their generated space once rescaled by |Gamma|^(-1/2); see
    :func:`translate_parseval_frame`.
    """
    fibers = zak(ctx, phi)
    norms = np.linalg.norm(fibers, axis=1)
    return bool(np.all((norms <= tol) | (np.abs(norms - 1.0) <= tol)))


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
