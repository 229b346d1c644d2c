"""Workload case lists, the seeded input generator and the pinned oracles.

Every workload cycles a fixed list of ops. The seed changes only the random
operator entries and the ``--seed`` handed to the CLI, never which groups
appear, so runs with different seeds time the same amount of work.

The generator uses numpy alone: it builds the subgroup and the translation
permutations itself, so the operators and expected values do not come from
the library under test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Every fourth op of the analyze workload feeds a perturbed operator that
# must be rejected at the commutation check (exit 1).
PERTURB_EVERY = 4
PERTURB_SCALE = 1e-3

# The analyze workload runs two regimes. BLOCKS has few large fiber blocks,
# |C| >= |Gamma|: dense per-fiber SVDs and matmuls and the operator JSON
# decode carry the time. FIBERS has many small blocks, |Gamma| >= |C|, up to
# Gamma = G: the pairing phase table, per-fiber loops and per-column zak
# calls carry it. They share one workload so that both get a run long enough
# for steady best latencies on a shared host.
BLOCKS = [
    ([64], [[8]]),
    ([64], [[16]]),
    ([8, 8], [[4, 0], [0, 4]]),
    ([4, 4, 4], [[2, 2, 2]]),
    ([2, 32], [[1, 16]]),
    ([128], [[16]]),
    ([128], [[32]]),
    ([8, 16], [[4, 8]]),
    ([4, 32], [[2, 0], [0, 16]]),
    ([256], [[64]]),
    ([16, 16], [[8, 8]]),
]
# Indices into BLOCKS whose operators are also fed perturbed.
BLOCKS_PERTURBED = [0, 2, 5, 7]

FIBERS = [
    ([64], [[2]]),
    ([64], [[1]]),
    ([8, 8], [[1, 0], [0, 1]]),
    ([4, 4, 4], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ([4, 16], [[1, 0], [0, 2]]),
    ([128], [[4]]),
    ([128], [[1]]),
    ([8, 16], [[1, 0], [0, 1]]),
    ([256], [[1]]),
]
FIBERS_PERTURBED = [0, 2, 5, 7]
DIFFOPS = [(128, 1), (256, 4)]

# subgroup-sweep: one op runs all_subgroups(G) and `check` on each subgroup.
# The small groups keep a cycle short enough for >= 100 ops per run; the
# larger rank-3 and rank-4 groups carry the enumeration cost.
SWEEP = [
    [4], [6], [8], [9], [10], [12], [16], [18], [24], [36],
    [2, 2], [2, 4], [3, 3], [2, 6], [2, 8], [3, 9], [4, 4], [5, 5], [4, 8], [6, 6],
    [2, 2, 2], [2, 2, 4], [3, 3, 3], [2, 2, 2, 2], [2, 4, 4],
]

# Subgroup counts of the groups that are not elementary abelian: the number
# of divisors for Z_n, sum over a | m, b | n of gcd(a, b) for Z_m x Z_n, and
# the product over Sylow factors otherwise. bench/smoke.py re-derives each
# one by brute force.
PINNED_SUBGROUPS = {
    (4,): 3, (6,): 4, (8,): 4, (9,): 3, (10,): 4, (12,): 6, (16,): 5,
    (18,): 6, (24,): 8, (36,): 9,
    (2, 4): 8, (2, 6): 10, (2, 8): 11, (3, 9): 10, (4, 4): 15, (4, 8): 22,
    (6, 6): 30, (2, 2, 4): 27, (2, 4, 4): 54,
}

# Cases left out of every workload, with the reason.
EXCLUDED = [
    {"case": "analyze at |G| >= 512", "why": "4-20 s per op at |G| = 512-1024 leaves too few runs of each case for its best latency"},
    {"case": "all_subgroups(Z2^5)", "why": "takes ~45 s for one op; add it once the group layer is array-native"},
]

WORKLOADS = ("analyze", "subgroup-sweep")


def gaussian_binomial(k: int, j: int, p: int) -> int:
    num = den = 1
    for i in range(j):
        num *= p ** (k - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def expected_subgroups(orders) -> int:
    """Subgroup count: a Gaussian-binomial sum for Z_p^k, else the pinned value."""
    p, k = orders[0], len(orders)
    if all(n == p for n in orders) and all(p % q for q in range(2, p)):
        return sum(gaussian_binomial(k, j, p) for j in range(k + 1))
    return PINNED_SUBGROUPS[tuple(orders)]


def _closure(orders, gens) -> list[tuple[int, ...]]:
    zero = (0,) * len(orders)
    seen, frontier = {zero}, [zero]
    while frontier:
        new = []
        for x in frontier:
            for t in gens:
                y = tuple((a + b) % n for a, b, n in zip(x, t, orders))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return sorted(seen)


def commuting_operator(orders, gens, rng) -> np.ndarray:
    """U = |Gamma|^-1 sum_t P_t A P_t^T for a random complex A."""
    shape = tuple(orders)
    n = math.prod(shape)
    coords = np.indices(shape).reshape(len(shape), -1).T
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gamma = _closure(orders, gens)
    u = np.zeros((n, n), dtype=complex)
    for t in gamma:
        src = np.ravel_multi_index(((coords - np.array(t)) % shape).T, shape)
        u += a[np.ix_(src, src)]
    return u / len(gamma)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path.name


def _operator_json(u: np.ndarray) -> dict:
    return {"matrix": np.stack([u.real, u.imag], axis=-1).tolist()}


def _analyze_ops(cases, perturbed, seed, workdir: Path, tag: str) -> tuple[list, list]:
    full, rejects = [], []
    for i, (orders, gens) in enumerate(cases):
        rng = np.random.default_rng([seed, ord(tag), i])
        u = commuting_operator(orders, gens, rng)
        key = f"{tag}{i}"
        group = _write_json(workdir / f"group-{key}.json", {"orders": orders, "gamma_generators": gens})
        name = f"analyze {'x'.join(f'Z{n}' for n in orders)}/<{gens}>"
        full.append({
            "id": f"a-{key}",
            "label": name,
            "kind": "cli",
            "argv": ["analyze", group, _write_json(workdir / f"op-{key}.json", _operator_json(u)), "--seed", str(seed)],
            "expect": {
                "exit": 0,
                "operator_norm": float(np.linalg.norm(u, 2)),
                "hs_squared": float(np.sum(np.abs(u) ** 2)),
            },
        })
        if i in perturbed:
            noise = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
            bad = u + PERTURB_SCALE * float(np.abs(u).max()) * noise
            bad_path = _write_json(workdir / f"bad-{key}.json", _operator_json(bad))
            rejects.append({
                "id": f"p-{key}",
                "label": name + " perturbed",
                "kind": "cli",
                "argv": ["analyze", group, bad_path, "--seed", str(seed)],
                "expect": {"exit": 1, "reject": True},
            })
    return full, rejects


def _diffop_ops(seed) -> list:
    ops = []
    for n, d in DIFFOPS:
        k = np.arange(n)
        ops.append({
            "id": f"d{n}_{d}",
            "label": f"demo-diffop {n} {d}",
            "kind": "cli",
            "argv": ["demo-diffop", str(n), str(d), "--seed", str(seed)],
            "expect": {"exit": 0, "diffop_norm": float(np.abs(1 - np.exp(2j * np.pi * d * k / n)).max())},
        })
    return ops


def _interleave(full: list, rejects: list) -> list:
    """Place one reject after every PERTURB_EVERY - 1 full ops."""
    ops, rejects = [], list(rejects)
    for i, op in enumerate(full):
        ops.append(op)
        if (i + 1) % (PERTURB_EVERY - 1) == 0 and rejects:
            ops.append(rejects.pop(0))
    return ops + rejects


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's input files into workdir and return its manifest."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "analyze":
        blocks, block_rejects = _analyze_ops(BLOCKS, BLOCKS_PERTURBED, seed, workdir, "b")
        fibers, fiber_rejects = _analyze_ops(FIBERS, FIBERS_PERTURBED, seed, workdir, "f")
        ops = _interleave(blocks + fibers + _diffop_ops(seed), block_rejects + fiber_rejects)
    elif workload == "subgroup-sweep":
        ops = [
            {
                "id": f"s{i}",
                "label": "sweep " + "x".join(f"Z{n}" for n in orders),
                "kind": "sweep",
                "orders": orders,
                "seed": seed,
                "expect": {"subgroups": expected_subgroups(orders)},
            }
            for i, orders in enumerate(SWEEP)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return {"workload": workload, "seed": seed, "ops": ops}

