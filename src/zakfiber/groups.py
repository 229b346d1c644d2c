"""Finite abelian group arithmetic: elements, characters, subgroups, transversals."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product as _cartesian

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
        if any(int(n) < 1 for n in self.orders):
            raise ValueError(f"cyclic factor orders must be >= 1, got {self.orders!r}")

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def elements(self) -> list[Element]:
        return [tuple(x) for x in _cartesian(*(range(n) for n in self.orders))]

    def zero(self) -> Element:
        return (0,) * len(self.orders)

    def reduce(self, x) -> Element:
        coords = tuple(int(c) % n for c, n in zip(x, self.orders))
        if len(coords) != len(self.orders):
            raise ValueError(f"element {x!r} has {len(tuple(x))} coordinates, expected {len(self.orders)}")
        return coords

    def validate(self, x) -> Element:
        coords = tuple(int(c) for c in x)
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

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % n for x, y, n in zip(a, b, self.orders))


def make_group(orders) -> GroupSpec:
    """Build the group Z_{n_1} x ... x Z_{n_m} from a list of positive orders."""
    if orders is None or len(list(orders)) == 0:
        raise ValueError("orders list must be non-empty")
    return GroupSpec(tuple(int(n) for n in orders))


def pairing(g: GroupSpec, x, k) -> complex:
    """Character pairing exp(+2*pi*i * sum_j x_j k_j / n_j); unit modulus.

    The dual group is identified with ``g`` itself, so ``k`` is just another
    element tuple. The ``+`` sign is a fixed library-wide convention.
    """
    x = g.validate(x)
    k = g.validate(k)
    phase = sum(a * b / n for a, b, n in zip(x, k, g.orders))
    return complex(np.exp(2j * np.pi * phase))


def pairing_is_one(g: GroupSpec, x, k) -> bool:
    """Exact integer test for pairing(g, x, k) == 1."""
    x = g.validate(x)
    k = g.validate(k)
    lcm = math.lcm(*g.orders)
    return sum(a * b * (lcm // n) for a, b, n in zip(x, k, g.orders)) % lcm == 0


@dataclass(frozen=True)
class Subgroup:
    """A subgroup stored as its full, lexicographically sorted element list."""

    ambient: GroupSpec
    generators: tuple[Element, ...] = field(compare=False)
    elements: tuple[Element, ...]
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_members", frozenset(self.elements))

    @property
    def size(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return tuple(x) in self._members


def subgroup_from_generators(g: GroupSpec, gens) -> Subgroup:
    """Close a generator list under addition (brute force, desk scale)."""
    gens = tuple(g.validate(t) for t in gens)
    closure = {g.zero()}
    frontier = [g.zero()]
    while frontier:
        new = []
        for x in frontier:
            for t in gens:
                y = g.add(x, t)
                if y not in closure:
                    closure.add(y)
                    new.append(y)
        frontier = new
    return Subgroup(g, gens, tuple(sorted(closure)))


def annihilator(g: GroupSpec, gamma: Subgroup) -> Subgroup:
    """Characters of G that are 1 on every element of gamma.

    Membership is decided by exact integer arithmetic, so no tolerance is
    involved; checking the generators suffices since the pairing is bi-additive.
    """
    probes = gamma.generators or gamma.elements
    ann = [k for k in g.elements() if all(pairing_is_one(g, t, k) for t in probes)]
    return Subgroup(g, (), tuple(ann))


@dataclass(frozen=True)
class Transversal:
    """Coset representatives, one per coset, each lexicographically minimal."""

    subgroup: Subgroup
    reps: tuple[Element, ...]
    _coset_of: dict = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.reps)

    def coset_index(self, x) -> int:
        return self._coset_of[tuple(x)]

    def coset_rep(self, x) -> Element:
        return self.reps[self.coset_index(x)]


def transversal(g: GroupSpec, h: Subgroup) -> Transversal:
    """Lexicographically minimal coset representatives for G / h."""
    reps: list[Element] = []
    coset_of: dict[Element, int] = {}
    for x in g.elements():
        if x in coset_of:
            continue
        # scanning in lex order makes x the minimal member of its coset
        idx = len(reps)
        reps.append(x)
        for t in h.elements:
            coset_of[g.add(x, t)] = idx
    return Transversal(h, tuple(reps), coset_of)


def translate(g: GroupSpec, f, t) -> np.ndarray:
    """(T_t f)(x) = f(x - t); a norm-preserving relabeling of coordinates.

    ``f`` is one signal of shape ``(|G|,)`` or a ``(|G|, k)`` matrix with one
    signal per column; every column is translated by the same index gather.
    """
    f = as_signal(g, f)
    t = g.validate(t)
    coords = np.indices(g.orders).reshape(len(g.orders), -1)
    src = np.ravel_multi_index(coords - np.array(t)[:, None], g.orders, mode="wrap")
    return f[src]


def translation_matrix(g: GroupSpec, t) -> np.ndarray:
    """Matrix of the translation operator T_t in the standard signal basis."""
    return translate(g, np.eye(g.size, dtype=complex), t)


def as_signal(g: GroupSpec, f) -> np.ndarray:
    """Coerce to a complex vector indexed by the group enumeration, or to a
    ``(|G|, k)`` matrix holding one such signal per column."""
    arr = np.asarray(f, dtype=complex)
    if arr.ndim not in (1, 2) or arr.shape[0] != g.size:
        raise ValueError(f"signal has shape {arr.shape}, expected ({g.size},) or ({g.size}, k)")
    return arr


def all_subgroups(g: GroupSpec) -> list[Subgroup]:
    """Every subgroup of g, via closures of small generating sets.

    Any subgroup of a product of m cyclic groups is generated by at most m
    elements, so enumerating generating sets of size <= m is exhaustive.
    Intended for desk-scale groups only.
    """
    max_rank = len(g.orders)
    elems = g.elements()
    seen: dict[tuple[Element, ...], Subgroup] = {}
    for r in range(max_rank + 1):
        for gens in combinations(elems, r):
            sub = subgroup_from_generators(g, gens)
            seen.setdefault(sub.elements, sub)
    return [seen[key] for key in sorted(seen)]
