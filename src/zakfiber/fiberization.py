"""Fiberization of L2(G) over a transversal of the dual quotient.

The transform Z maps a signal f on G to a family of fibers, one complex
vector of length |C| per omega in Omega, where Omega is a transversal of
the dual group modulo the annihilator of Gamma and C is a transversal of
G modulo Gamma:

    Zf(omega)(c) = |Gamma|^(-1/2) * sum_{t in Gamma} f(c + t) * pairing(t, omega)

With counting measure (weight 1 per point) on every index set this is a
unitary map from C^|G| onto the |Omega| x |C| fiber space, and it turns
translation by t in Gamma into multiplication by the character values
pairing(t, omega). Signals ``(|G|[, k])`` and fibers ``(|Omega|, |C|[, k])`` are ndarrays.
Omega and C are element sets, ``(k, m)`` int64 arrays like Gamma's elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import GroupSpec, Subgroup, _array, _exponents, annihilator, transversal


@dataclass(frozen=True, eq=False)
class FiberContext:
    """The stage on which the fiberization lives.

    Bundles the subgroup Gamma, the two transversals (``omega`` of the dual
    modulo Gamma's annihilator, ``c_section`` of G / Gamma) and the
    normalization constant, plus the index/phase tables :func:`fiber_context`
    builds so that the transform is a couple of matrix products.
    """

    group: GroupSpec
    gamma: Subgroup
    omega: np.ndarray
    c_section: np.ndarray
    normalization: float
    _phase: np.ndarray = field(repr=False)  # (|Omega|, |Gamma|): pairing(t, w)
    _coset_plus: np.ndarray = field(repr=False)  # (|C|, |Gamma|): index of c + t
    _gamma_keys: np.ndarray = field(repr=False)  # (|Gamma|,): sorted ravel indices of Gamma

    @property
    def n_omega(self) -> int:
        return len(self.omega)

    @property
    def n_c(self) -> int:
        return len(self.c_section)

    def fiber_shape(self) -> tuple[int, int]:
        return (self.n_omega, self.n_c)


def fiber_context(g: GroupSpec, gamma: Subgroup) -> FiberContext:
    """Both transversals for a subgroup of g, checked as sections, and the tables."""
    orders = g.orders
    omega = transversal(g, annihilator(g, gamma))
    c_section = transversal(g, gamma)
    if len(omega) != gamma.size or len(omega) * len(c_section) != g.size:
        raise RuntimeError("transversal sizes violate the quotient counting identity")
    # section property: restricting the |Gamma| chosen characters to Gamma must
    # give all characters of Gamma exactly once. A character of Gamma is fixed
    # by its exact exponents on Gamma's basis rows, so no two omegas may share
    # a row of exponents there.
    on_basis = _exponents(orders, omega, np.array(gamma.basis) % orders)
    if len(set(map(tuple, on_basis.tolist()))) != len(omega):
        raise RuntimeError("omega transversal is not a section of the dual quotient")
    lcm = math.lcm(*orders)
    # phase[w, t] = pairing(t, w) from the exact exponent table: one lookup
    # into the lcm-th roots of unity per entry
    phase = np.exp(2j * np.pi * np.arange(lcm) / lcm)[_exponents(orders, omega, gamma.elements)]
    sums = c_section[:, None, :] + gamma.elements[None, :, :]
    coset_plus = np.ravel_multi_index(np.moveaxis(sums, -1, 0), orders, mode="wrap")
    keys = np.ravel_multi_index(gamma.elements.T, orders)  # sorted, as Gamma's elements are
    return FiberContext(g, gamma, omega, c_section, 1.0 / np.sqrt(gamma.size), phase, coset_plus, keys)


def zak(ctx: FiberContext, f) -> np.ndarray:
    """Fiberize a signal; rows are fibers indexed by omega, columns by C.

    A signal of shape ``(|G|,)`` gives ``(|Omega|, |C|)``. A ``(|G|, k)``
    matrix of k signals, one per column, gives ``(|Omega|, |C|, k)``; column
    j of the result is bit-identical to ``zak(ctx, f[:, j])``.
    """
    f = _array(f, "signal", (ctx.group.size,), (ctx.group.size, None))
    # gather into ([k,] |C|, |Gamma|) stacks and give each stack the matrix
    # product a lone signal gets; one large product would round differently
    samples = np.ascontiguousarray(f.T[..., ctx._coset_plus])
    fibers = ctx.normalization * (ctx._phase @ np.swapaxes(samples, -1, -2))
    return np.moveaxis(fibers, 0, -1) if f.ndim == 2 else fibers


def zak_inverse(ctx: FiberContext, fibers) -> np.ndarray:
    """Invert the fiberization; exact inverse of :func:`zak` up to rounding.

    Fibers of shape ``(|Omega|, |C|)`` give a signal ``(|G|,)``;
    ``(|Omega|, |C|, k)`` gives ``(|G|, k)``, one signal per column, each
    bit-identical to the inverse of its own fibers.
    """
    fibers = _array(fibers, "fibers", ctx.fiber_shape(), ctx.fiber_shape() + (None,))
    stacked = np.ascontiguousarray(np.moveaxis(fibers, -1, 0)) if fibers.ndim == 3 else fibers
    vals = ctx.normalization * (np.swapaxes(stacked, -1, -2) @ ctx._phase.conj())  # ([k,] |C|, |Gamma|)
    out = np.empty(fibers.shape[2:] + (ctx.group.size,), dtype=complex)
    out[..., ctx._coset_plus] = vals
    return out.T


def zak_matrix(ctx: FiberContext) -> np.ndarray:
    """The unitary matrix of the fiberization, rows flattened as omega*|C| + c.

    Built entry by entry from the phase table, as an oracle for the batched
    transform.
    """
    n = ctx.group.size
    nc = ctx.n_c
    mat = np.zeros((n, n), dtype=complex)
    rows = np.arange(nc)[:, None]
    for wi in range(ctx.n_omega):
        block = mat[wi * nc : (wi + 1) * nc]
        block[rows, ctx._coset_plus] = ctx.normalization * ctx._phase[wi][None, :]
    return mat


def determining_function(ctx: FiberContext, gamma_elt) -> np.ndarray:
    """Values of the character of gamma_elt on the omega transversal.

    These |Gamma| functions span all complex functions on Omega, which is the
    finite counterpart of being a determining set.
    """
    t = ctx.group.validate(gamma_elt)
    key = ctx.group.index(t)
    col = np.searchsorted(ctx._gamma_keys, key)
    if col == ctx.gamma.size or ctx._gamma_keys[col] != key:
        raise ValueError(f"{t!r} is not a member of the translation subgroup")
    return ctx._phase[:, col].copy()


def characters(ctx: FiberContext, elements) -> np.ndarray:
    """pairing(t, w) for w in Omega (rows) and each row t of ``elements``, in floating point from the
    labels, each term t_j w_j / n_j reduced mod 1: never from the exponent or phase tables."""
    elements, phase = np.asarray(elements), np.zeros((len(ctx.omega), len(elements)))
    for j, n in enumerate(ctx.group.orders):  # one coordinate at a time: no (|Omega|, k, m) array
        phase += np.multiply.outer(ctx.omega[:, j], elements[:, j]) / n % 1.0
    return np.exp(2j * np.pi * phase)
