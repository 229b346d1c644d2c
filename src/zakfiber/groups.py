"""Finite abelian group arithmetic: elements, characters, subgroups, transversals.

A subgroup H of G = Z_{n_1} x ... x Z_{n_m} is stored with the Hermite
normal form of its lattice diag(n) Z^m <= L <= Z^m: an upper-triangular
integer basis with pivots d_i | n_i and entries 0 <= a_ij < d_j to the right
of each pivot (Cohen, GTM 138, section 2.4). The HNF is unique, so it names
the subgroup, and element sets, annihilators and coset representatives are
all read off it with integer array arithmetic.

An element is a tuple of Python ints checked by :meth:`GroupSpec.validate`;
an element set is a read-only ``(k, m)`` int64 array, one element per row in
lexicographic order. Every signal, family, fibered array, field and operator
argument passes :func:`_array`: an ndarray of its documented shape, never a list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Element = tuple[int, ...]


@dataclass(frozen=True)
class GroupSpec:
    """A finite product of cyclic groups Z_{n_1} x ... x Z_{n_m}.

    Elements are integer tuples reduced coordinatewise mod the factor orders.
    Enumeration is lexicographic and stable across runs.
    """

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.orders:
            raise ValueError("group needs at least one cyclic factor")
        if any(_integer(n, "cyclic factor order") < 1 for n in self.orders):
            raise ValueError(f"cyclic factor orders must be >= 1, got {self.orders!r}")

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def elements(self) -> np.ndarray:
        return _frozen(_coords(self.orders))

    def zero(self) -> Element:
        return (0,) * len(self.orders)

    def validate(self, x) -> Element:
        coords = tuple(_integer(c, "element coordinate") for c in x)
        if len(coords) != len(self.orders):
            raise ValueError(f"element {x!r} has {len(coords)} coordinates, expected {len(self.orders)}")
        for c, n in zip(coords, self.orders):
            if not 0 <= c < n:
                raise ValueError(f"coordinate {c} of {x!r} out of range [0, {n})")
        return coords

    def index(self, x: Element) -> int:
        # mixed-radix position == lexicographic rank
        idx = 0
        for c, n in zip(x, self.orders):
            idx = idx * n + c
        return idx

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.orders))


def make_group(orders) -> GroupSpec:
    """Build the group Z_{n_1} x ... x Z_{n_m} from a list of positive orders."""
    orders = () if orders is None else tuple(_integer(n, "cyclic factor order") for n in orders)
    if not orders:
        raise ValueError("orders list must be non-empty")
    return GroupSpec(orders)


def _integer(value, what: str) -> int:
    """A Python or numpy integer as an int; a bool, float or anything else raises."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _coords(shape) -> np.ndarray:
    """Every point of the box prod [0, shape_i) as an int64 row, in ravel order."""
    return np.indices(shape, dtype=np.int64).reshape(len(shape), math.prod(shape)).T


def _frozen(rows: np.ndarray) -> np.ndarray:
    """An element set: the int64 rows, made read-only."""
    rows.flags.writeable = False
    return rows


def _exponents(orders, x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Exact character exponents for every row of ``x`` against every row of ``k``.

    ``E[a, b] = sum_j (x_aj k_bj mod n_j)(L / n_j) mod L`` with L = lcm(orders),
    so that pairing(x_a, k_b) = exp(2*pi*i * E[a, b] / L).
    """
    lcm = math.lcm(*orders)
    exps = np.zeros((len(x), len(k)), dtype=np.int64)
    for j, n in enumerate(orders):
        term = np.multiply.outer(x[:, j], k[:, j])
        term %= n
        term *= lcm // n
        exps += term
    exps %= lcm
    return exps


def pairing(g: GroupSpec, x, k) -> complex:
    """Character pairing exp(+2*pi*i * sum_j x_j k_j / n_j); unit modulus.

    The dual group is identified with ``g`` itself, so ``k`` is just another
    element tuple. The ``+`` sign is a fixed library-wide convention. The
    phase is reduced to an exact integer exponent mod lcm(orders) first.
    """
    exp = _exponents(g.orders, np.array([g.validate(x)]), np.array([g.validate(k)]))[0, 0]
    return complex(np.exp(2j * np.pi * exp / math.lcm(*g.orders)))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup with its full element set, lexicographically sorted.

    ``basis`` is the Hermite normal form of the subgroup's lattice, one row
    per cyclic factor; it is unique, so it alone decides equality and the hash.
    """

    ambient: GroupSpec
    generators: tuple[Element, ...] = field(compare=False)
    elements: np.ndarray = field(compare=False)
    basis: tuple[Element, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def probes(self) -> tuple[Element, ...]:
        """What a translation check probes: the generators, or the trivial subgroup's one element."""
        return self.generators or (self.ambient.zero(),)

    def __contains__(self, x) -> bool:
        return not _reduce(np.array(self.basis), [self.ambient.validate(x)]).any()


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, s, t) with d = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _hnf(orders, gens) -> list[list[int]]:
    """Upper-triangular HNF of the lattice spanned by ``gens`` and diag(orders).

    Each generator is folded into the triangular basis by unimodular row
    operations (Python ints, so no overflow); entries right of a pivot are
    then reduced into [0, pivot of their column).
    """
    m = len(orders)
    basis = [[n if j == i else 0 for j in range(m)] for i, n in enumerate(orders)]
    for v in gens:
        v = [int(c) % n for c, n in zip(v, orders)]
        for i in range(m):
            if not v[i]:
                continue
            row = basis[i]
            d, s, t = _xgcd(row[i], v[i])
            p, q = row[i] // d, v[i] // d
            basis[i] = [s * a + t * b for a, b in zip(row, v)]
            # the complementary combination is zero at column i; the rest of it
            # can be taken mod the orders because diag(orders) is in the lattice
            v = [(p * b - q * a) % n for a, b, n in zip(row, v, orders)]
    for i in range(m):
        for j in range(i + 1, m):
            q = basis[i][j] // basis[j][j]
            basis[i] = [a - q * b for a, b in zip(basis[i], basis[j])]
    return basis


def _reduce(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reduce integer rows ``x`` by an HNF basis.

    Coordinate j of the result lies in [0, d_j): it is the canonical member
    of x + L, and for x in the box of G the lexicographically smallest
    member of its coset of the subgroup. It is zero iff x is in L.
    """
    x = np.array(x, dtype=np.int64)
    for i, row in enumerate(basis):
        x -= (x[:, i] // row[i])[:, None] * row
    return x


def _subgroup(g: GroupSpec, basis, generators=None) -> Subgroup:
    """The subgroup with HNF ``basis``; its generators default to the basis
    rows that are nonzero mod the orders."""
    rows = np.array(basis, dtype=np.int64)
    orders = np.array(g.orders)
    # coefficient c_i in [0, n_i/d_i) gives each element exactly once
    coords = (_coords(orders // np.diag(rows)) @ rows) % orders
    coords = coords[np.argsort(np.ravel_multi_index(coords.T, g.orders))]
    if generators is None:
        generators = tuple(tuple(row) for row in (rows % orders).tolist() if any(row))
    return Subgroup(g, tuple(generators), _frozen(coords), tuple(tuple(r) for r in rows.tolist()))


def subgroup_from_generators(g: GroupSpec, gens) -> Subgroup:
    """The subgroup generated by a list of elements; the list is kept as given."""
    gens = tuple(g.validate(t) for t in gens)
    return _subgroup(g, _hnf(g.orders, gens), gens)


def annihilator(g: GroupSpec, gamma: Subgroup) -> Subgroup:
    """Characters of G that are 1 on every element of gamma.

    With gamma's HNF basis B, k is in the annihilator iff B diag(1/n) k is
    integral, so the annihilator lattice is spanned by the columns of the
    integer matrix C = diag(n) B^-1. C is found by exact forward substitution
    in C B = diag(n); no tolerance is involved.
    """
    b, orders, m = gamma.basis, g.orders, len(g.orders)
    c = [[0] * m for _ in range(m)]
    for i, n in enumerate(orders):
        for k in range(i, m):
            rest = (n if k == i else 0) - sum(c[i][l] * b[l][k] for l in range(i, k))
            c[i][k] = rest // b[k][k]
    return _subgroup(g, _hnf(orders, zip(*c)))


def transversal(g: GroupSpec, h: Subgroup) -> np.ndarray:
    """Lexicographically minimal coset representatives for G / h, one per
    coset, as an element set in lexicographic order."""
    coords = _coords(g.orders)
    # index of each element's coset representative; the representatives are
    # the elements that index themselves, already in lex order
    rep_of = np.ravel_multi_index(_reduce(np.array(h.basis, dtype=np.int64), coords).T, g.orders)
    return _frozen(coords[rep_of == np.arange(g.size)])


def translate(g: GroupSpec, f, t) -> np.ndarray:
    """(T_t f)(x) = f(x - t); a norm-preserving relabeling of coordinates.

    ``f`` is one signal of shape ``(|G|,)`` or a ``(|G|, k)`` matrix with one
    signal per column; every column is translated by the same index gather.
    """
    f = _array(f, "signal", (g.size,), (g.size, None))
    t = g.validate(t)
    src = np.ravel_multi_index((_coords(g.orders) - np.array(t)).T, g.orders, mode="wrap")
    return f[src]


def translation_matrix(g: GroupSpec, t) -> np.ndarray:
    """Matrix of the translation operator T_t in the standard signal basis."""
    return translate(g, np.eye(g.size, dtype=complex), t)


def _array(value, name: str, *shapes) -> np.ndarray:
    """``value`` as a complex array if it is an ndarray of one of the shapes
    (``None`` matches any length); anything else, a list too, raises ValueError."""
    if isinstance(value, np.ndarray) and any(
        len(shape) == value.ndim and all(s in (None, d) for s, d in zip(shape, value.shape)) for shape in shapes
    ):
        return value.astype(complex, copy=False)
    want = " or ".join(str(shape).replace("None", "k") for shape in shapes)
    got = f"shape {value.shape}" if isinstance(value, np.ndarray) else f"a {type(value).__name__}"
    raise ValueError(f"{name} must be a {want} array, got {got}")


def all_subgroups(g: GroupSpec) -> list[Subgroup]:
    """Every subgroup of g, sorted by element set, each with HNF generators.

    Enumerates HNF bases from the last row up. Row i has a pivot d | n_i and
    entries a_ij in [0, d_j); it is accepted iff (n_i/d) * row_i - n_i e_i
    lies in the lattice of the rows below, which is the condition for
    diag(n) Z^m to lie in the lattice. HNF bases and subgroups are in
    bijection, so every subgroup appears exactly once.
    """
    orders, m = g.orders, len(g.orders)
    # partial bases: rows above the current one are unit rows, which leave
    # the vectors tested (zero in those columns) unchanged under _reduce
    partial = [np.eye(m, dtype=np.int64)]
    for i in reversed(range(m)):
        divisors = [d for d in range(1, orders[i] + 1) if orders[i] % d == 0]
        grown = []
        for basis in partial:
            tails = _coords(np.diag(basis)[i + 1:])
            for d in divisors:
                probes = np.zeros((len(tails), m), dtype=np.int64)
                probes[:, i + 1:] = (orders[i] // d) * tails
                for tail in tails[~_reduce(basis, probes).any(axis=1)]:
                    candidate = basis.copy()
                    candidate[i, i], candidate[i, i + 1:] = d, tail
                    grown.append(candidate)
        partial = grown
    return sorted((_subgroup(g, basis) for basis in partial), key=lambda s: s.elements.tolist())
