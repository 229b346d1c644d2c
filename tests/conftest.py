"""Shared fixtures: the desk-scale group battery and sampling helpers."""

from __future__ import annotations

import numpy as np
import pytest

from zakfiber import (
    RangeOperatorField,
    all_subgroups,
    fiber_context,
    fiber_summary,
    full_range_function,
    make_group,
    operator_summary,
    principal_decomposition,
    space_from_range,
    subgroup_from_generators,
    synthesize_operator,
    translate_parseval_frame,
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


def delta(g, x):
    vec = np.zeros(g.size, dtype=complex)
    vec[g.index(g.validate(x))] = 1.0
    return vec


def rand_signal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def rand_field(rng, context, rangefn):
    """Random field supported on the range function: Y B* per fiber."""
    mats = []
    for basis in rangefn.bases:
        d = basis.shape[1]
        y = rand_signal(rng, context.n_c * d).reshape(context.n_c, d) if d else np.zeros((context.n_c, 0))
        mats.append(y @ basis.conj().T)
    return RangeOperatorField(tuple(mats))


def rand_tp_operator(rng, context):
    """Random translation-commuting operator, synthesized from a dense field."""
    rangefn = full_range_function(context)
    return synthesize_operator(context, rand_field(rng, context, rangefn), rangefn)


def summaries(context, u, field, rangefn, frame=None):
    """The operator and fiber summaries of u and its field on the range
    function. The frame defaults to the scaled translates of the principal
    generators of the space."""
    basis = space_from_range(context, rangefn)
    if frame is None:
        frame = translate_parseval_frame(context, principal_decomposition(context, basis))
    return operator_summary(context, u, basis, frame), fiber_summary(field, rangefn)
