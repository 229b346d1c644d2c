"""Shared fixtures: the desk-scale group battery and sampling helpers."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from zakfiber import (
    VerificationError,
    all_subgroups,
    fiber_context,
    fiber_summary,
    make_group,
    subgroup_from_generators,
    synthesize_operator,
)

# Orders 4, 8, 12 and 16, with one non-cyclic group; every subgroup of each.
BATTERY_ORDERS = ([4], [2, 2], [8], [12], [16])


def _build_battery():
    entries = []
    for orders in BATTERY_ORDERS:
        g = make_group(orders)
        subs = all_subgroups(g)
        for i, sub in enumerate(subs):
            label = f"{'x'.join(map(str, orders))}-sub{i}-ord{sub.size}"
            entries.append((label, g, sub))
    return entries


def pytest_configure(config):
    # hypothesis caches the constants it reads from the sources under test in
    # ./.hypothesis unless told otherwise; keep them in pytest's own cache
    try:
        from hypothesis import configuration
    except ImportError:  # only the property tests need hypothesis
        return
    if hasattr(config, "cache"):
        configuration.set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


_BATTERY = _build_battery()
_CONTEXTS = [(label, fiber_context(g, sub)) for label, g, sub in _BATTERY]


def battery_contexts():
    return list(_CONTEXTS)


@pytest.fixture(params=[c for _, c in _CONTEXTS], ids=[l for l, _ in _CONTEXTS])
def ctx(request):
    return request.param


@pytest.fixture
def f1_ctx():
    """Z4 with the index-two subgroup: the smallest non-degenerate stage."""
    g = make_group([4])
    return fiber_context(g, subgroup_from_generators(g, [(2,)]))


@pytest.fixture
def f2_ctx():
    """Z8 with the subgroup generated by 2."""
    g = make_group([8])
    return fiber_context(g, subgroup_from_generators(g, [(2,)]))


def load_script(path: str):
    """A script of the repository, by its path from the root, as a module."""
    path = Path(__file__).resolve().parents[1] / path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def delta(g, x):
    vec = np.zeros(g.size, dtype=complex)
    vec[g.index(g.validate(x))] = 1.0
    return vec


def rand_signal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def full_range(context):
    """The range function of the whole signal space: the identity on every fiber."""
    return np.tile(np.eye(context.n_c, dtype=complex), (context.n_omega, 1, 1))


def rand_field(rng, context, rangefn):
    """Random field supported on the range function: Y P(omega) per fiber."""
    nc = context.n_c
    return np.stack([rand_signal(rng, nc * nc).reshape(nc, nc) @ projection for projection in rangefn])


def rand_tp_operator(rng, context):
    """Random translation-commuting operator, synthesized from a dense field."""
    return synthesize_operator(context, rand_field(rng, context, full_range(context)))


def failed_verdict(excinfo, check):
    """The verdict a raised VerificationError carries, held to the failure
    contract: it names its check, its verdict failed with bound = tolerance
    * scale, margin = bound - residual and a witness, and it is no
    ValueError, which the CLI reports as bad input."""
    exc = excinfo.value
    assert type(exc) is VerificationError and not isinstance(exc, ValueError)
    verdict = exc.verdict
    assert exc.check == check and verdict.passed is False and verdict.witness is not None
    assert verdict.bound == verdict.tolerance * verdict.scale
    assert verdict.margin == verdict.bound - verdict.residual or math.isnan(verdict.residual)
    assert check in str(exc) and repr(verdict.witness) in str(exc)
    return verdict


def summaries(context, u, field):
    """The summary of u, the one block of the trivial fiberization, and the
    summary of its field."""
    return fiber_summary(u[None]), fiber_summary(field)
