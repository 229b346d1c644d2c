"""Homogeneous verdicts: rescaling U changes no decision.

The paper's identities are homogeneous, so every gate that measures a
residual of U does so against a scale of U, and the verdicts on ``s * U``
are those on ``U``. The regression cases are false results of the former
rule ``residual <= tol * max(1, scale)``, which was absolute below scale 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zakfiber import (
    cli,
    fiber_context,
    make_group,
    range_function,
    space_from_range,
    structural_flags,
    subgroup_from_generators,
    synthesize_operator,
    translation_matrix,
)

from conftest import battery_contexts, delta, rand_field, rand_signal, rand_tp_operator, summaries


@pytest.fixture
def z8():
    g = make_group([8])
    return fiber_context(g, subgroup_from_generators(g, [(2,)]))


def pipeline(ctx, u):
    return cli._pipeline(ctx, u, cli.RunConfig())[:2]


def split_rank_operator(ctx, scale=1.0):
    """Fibers diag(1e6, 0) and diag(1e-5, 0), the rest zero, times scale."""
    field = np.zeros(ctx.fiber_shape() + (ctx.n_c,), dtype=complex)
    field[0, 0, 0], field[1, 0, 0] = 1e6, 1e-5
    return synthesize_operator(ctx, scale * field)


class TestRegressions:
    def test_small_non_commuting_operator_fails(self, z8):
        a = rand_signal(np.random.default_rng(11), 64).reshape(8, 8)
        body, ok = pipeline(z8, 1e-12 * a)
        assert not ok and body["translation_preserving"]["passed"] is False

    def test_large_commuting_operator_passes_the_solve(self, z8):
        u = 1e12 * (np.eye(8) + translation_matrix(z8.group, (2,)))
        body, ok = pipeline(z8, u)
        assert body["field_identity"]["passed"] is True and ok

    def test_small_projector_keeps_its_rank(self, z8):
        basis = space_from_range(z8, range_function(z8, delta(z8.group, (0,))[:, None]))
        p = basis @ basis.conj().T
        body, ok = pipeline(z8, 1e-10 * p)
        values = body["structural"]["values"]
        assert ok and values["rank_operator"] == values["rank_fiber_sum"] == 4

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    def test_fiber_ranks_are_cut_at_one_scale(self, z8, scale):
        # each fiber cut against its own largest singular value counted the
        # 1e-5 fiber that the operator side, cut at 1e6, drops
        body, ok = pipeline(z8, split_rank_operator(z8, scale))
        values = body["structural"]["values"]
        assert ok and values["rank_operator"] == values["rank_fiber_sum"] == 1

    def test_zero_operator_passes_at_scale_zero(self, z8):
        body, ok = pipeline(z8, np.zeros((8, 8), dtype=complex))
        assert ok
        assert body["translation_preserving"]["scale"] == body["field_identity"]["scale"] == 0.0
        assert body["norm_identity"]["verdicts"]["norm_identity"]["bound"] == 0.0


class TestRankDecision:
    def test_both_sides_report_the_cut_and_its_neighbours(self, z8):
        u = split_rank_operator(z8)
        report = structural_flags(*summaries(z8, u, cli.extract_range_operator(z8, u)))
        for side in ("operator", "fibers"):
            decision = report.values["rank_cut"][side]
            assert decision["cut"] == pytest.approx(1e-3, rel=1e-9), side
            assert decision["smallest_kept"] == pytest.approx(1e6, rel=1e-9), side
            # computed to rounding relative to the largest singular value
            assert decision["largest_dropped"] == pytest.approx(1e-5, abs=1e-16 * 1e6 * 8), side

    def test_nothing_dropped_is_null(self, z8):
        u = rand_tp_operator(np.random.default_rng(12), z8)
        report = structural_flags(*summaries(z8, u, cli.extract_range_operator(z8, u)))
        assert report.values["rank_cut"]["fibers"]["largest_dropped"] is None
        assert report.values["rank_cut"]["operator"]["largest_dropped"] is None
        assert report.values["rank_operator"] == 8


def battery_operator(label, ctx, kind):
    """A seeded operator of one kind on a battery context."""
    rng = np.random.default_rng(list(label.encode()) + [len(kind)])
    n = ctx.group.size
    if kind == "non-commuting":
        return rand_signal(rng, n * n).reshape(n, n)
    if kind == "hermitian-psd":
        w = rand_tp_operator(rng, ctx)
        return w.conj().T @ w
    if kind == "hermitian-indefinite":
        # traceless, Hermitian and nonzero, so it has a negative eigenvalue
        w = rand_tp_operator(rng, ctx)
        h = w.conj().T @ w
        return h - np.trace(h).real / n * np.eye(n)
    if kind == "rank-deficient":
        # rank-one fibers, and one zero fiber where there are several
        field = rand_field(rng, ctx, range_function(ctx, rand_signal(rng, n)[:, None]))
        if ctx.n_omega > 1:
            field[0] = 0.0
        return synthesize_operator(ctx, field)
    return rand_tp_operator(rng, ctx)


def decisions(body, ok) -> dict:
    """Every decision of a pipeline report by its path, except the one-sided
    isometry gates: isometry against I is absolute, so only their agreement
    is scale-free."""
    found = {(): ok}

    def walk(node, path):
        if isinstance(node, dict):
            if "passed" in node:
                found[path] = node["passed"]
            for key, value in node.items():
                if key not in ("isometry_operator", "isometry_fibers"):
                    walk(value, (*path, key))

    walk(body, ())
    return found


CONTEXTS = battery_contexts()
KINDS = ["commuting", "non-commuting", "hermitian-psd", "hermitian-indefinite", "rank-deficient"]
POSITIVE = ("structural", "values", "positive_operator"), ("structural", "values", "positive_fibers")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.sampled_from(range(len(CONTEXTS))),
    st.sampled_from(KINDS),
    st.floats(min_value=-150.0, max_value=150.0),
)
def test_verdicts_are_scale_free(index, kind, exponent):
    label, ctx = CONTEXTS[index]
    u = battery_operator(label, ctx, kind)
    reference = decisions(*pipeline(ctx, u))
    assert decisions(*pipeline(ctx, 10.0**exponent * u)) == reference
    # every operator commutes with the trivial subgroup
    assert reference[()] is (kind != "non-commuting" or ctx.gamma.size == 1)
    if kind.startswith("hermitian"):
        # positive on both sides, or on neither, at every scale
        assert reference[("structural", "verdicts", "positive_agree")]
        assert [reference[path] for path in POSITIVE] == [kind == "hermitian-psd"] * 2


def test_every_kind_meets_its_gates():
    # the property runs over reports that reach every gate: the trace clause
    # and positivity on every commuting kind, positive sides that pass and
    # fail, and dropped singular values on the deficient ones
    label, ctx = next((label, ctx) for label, ctx in CONTEXTS if ctx.n_c > 1 and ctx.n_omega > 1)
    bodies = {kind: pipeline(ctx, battery_operator(label, ctx, kind))[0] for kind in KINDS}
    for kind in ("commuting", "hermitian-psd", "hermitian-indefinite", "rank-deficient"):
        assert bodies[kind]["hs_trace"]["verdicts"]["trace_agree"]["passed"], kind
        assert bodies[kind]["structural"]["verdicts"]["positive_agree"]["passed"], kind
    for kind in ("hermitian-psd", "hermitian-indefinite"):
        for path in POSITIVE:
            assert decisions(bodies[kind], True)[path] is (kind == "hermitian-psd"), (kind, path)
    assert bodies["rank-deficient"]["structural"]["values"]["rank_cut"]["fibers"]["largest_dropped"] is not None
    assert "structural" not in bodies["non-commuting"]
