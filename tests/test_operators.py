"""Operator/field correspondence: extraction, synthesis, and the identity reports."""

import copy
import dataclasses
import inspect
import json

import numpy as np
import pytest

from zakfiber import (
    VerificationError,
    check_field_identity,
    check_translation_preserving,
    extract_range_operator,
    fiber_context,
    fiber_summary,
    hs_trace_report,
    make_group,
    multiplication_preserving_check,
    norm_identity_report,
    pairing,
    principal_decomposition,
    range_function,
    solve_range_field,
    space_from_range,
    structural_flags,
    subgroup_from_generators,
    synthesize_operator,
    translate_parseval_frame,
    translation_matrix,
    zak,
    zak_matrix,
)

from zakfiber import checks, cli, fiberization, jsonio, operators, spaces

from conftest import (
    battery_contexts,
    delta,
    failed_verdict,
    full_range,
    rand_field,
    rand_signal,
    rand_tp_operator,
    summaries,
)


def diff_operator(ctx, step):
    g = ctx.group
    return np.eye(g.size, dtype=complex) - translation_matrix(g, step)


class TestCheckTranslationPreserving:
    def test_translations_commute(self, f1_ctx):
        u = translation_matrix(f1_ctx.group, (1,))
        assert check_translation_preserving(f1_ctx, u)

    def test_pointwise_multiplier_fails(self, f1_ctx):
        u = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        verdict = check_translation_preserving(f1_ctx, u)
        assert not verdict
        assert verdict.witness[0] == (2,)
        # hand-sized oracle: the commutator with T_2 has unit entries
        t2 = translation_matrix(f1_ctx.group, (2,))
        comm = u @ t2 - t2 @ u
        assert np.abs(comm).max() == pytest.approx(verdict.residual)
        assert verdict.residual == pytest.approx(1.0)

    def test_matches_dense_commutator(self, ctx):
        # the permutation gathers against u T - T u with the dense matrix, on
        # the same probes in the same order
        rng = np.random.default_rng(57)
        g = ctx.group
        for _ in range(3):
            u = rand_signal(rng, g.size * g.size).reshape(g.size, g.size)
            verdict = check_translation_preserving(ctx, u)
            worst, witness = 0.0, (None, None)
            for t in ctx.gamma.probes:
                tmat = translation_matrix(g, t)
                comm = np.abs(u @ tmat - tmat @ u)
                worst = max(worst, float(comm.max()))
                if comm.max() > 1e-10:
                    i, j = np.unravel_index(int(np.argmax(comm)), comm.shape)
                    witness = (t, (int(i), int(j)))
                    break
            assert verdict.residual == worst
            assert (verdict.witness or (None, None)) == witness

    def test_identity_commutes(self, ctx):
        assert check_translation_preserving(ctx, np.eye(ctx.group.size, dtype=complex))

    def test_shape_gate(self, f1_ctx):
        with pytest.raises(ValueError):
            check_translation_preserving(f1_ctx, np.eye(3))


def closed_form_field(ctx, u):
    """The field of a commuting u in closed form, R(w)[c, c'] =
    sum_{r in Gamma} U[c, c' + r] conj(pairing(r, w)): the |C| rows of u at
    the transversal, summed against characters taken from their definition,
    with no transform and no phase table."""
    g = ctx.group
    field = np.zeros(ctx.fiber_shape() + (ctx.n_c,), dtype=complex)
    for wi, w in enumerate(ctx.omega):
        for r in ctx.gamma.elements:
            character = pairing(g, r, w).conjugate()
            for ci, c in enumerate(ctx.c_section):
                for di, d in enumerate(ctx.c_section):
                    field[wi, ci, di] += u[g.index(c), g.index(g.add(d, r))] * character
    return field


class TestExtract:
    def test_solved_field_is_the_closed_form(self, ctx):
        # a second route to the field, from u's entries and the characters alone
        u = rand_tp_operator(np.random.default_rng(52), ctx)
        field = solve_range_field(ctx, u)
        assert np.abs(field - closed_form_field(ctx, u)).max() <= 1e-12 * np.abs(u).max()

    def test_solved_field_is_the_diagonal_blocks_of_the_conjugation(self, ctx):
        # the field is the diagonal blocks of Z U Z*, with Z the dense oracle
        # matrix built from the phase table, and Z U Z* has no other block
        u = rand_tp_operator(np.random.default_rng(53), ctx)
        zmat = zak_matrix(ctx)
        blocks = (zmat @ u @ zmat.conj().T).reshape(ctx.fiber_shape() * 2)
        diagonal = np.arange(ctx.n_omega)
        assert np.abs(solve_range_field(ctx, u) - blocks[diagonal, :, diagonal, :]).max() <= 1e-12 * np.abs(u).max()
        blocks[diagonal, :, diagonal, :] = 0.0
        assert np.abs(blocks).max() <= 1e-12 * np.abs(u).max()

    def test_identity_gives_identity_fibers(self, f1_ctx):
        field = extract_range_operator(f1_ctx, np.eye(4, dtype=complex))
        for mat in field:
            assert np.abs(mat - np.eye(2)).max() <= 1e-12

    def test_difference_operator_symbols(self, f1_ctx):
        field = extract_range_operator(f1_ctx, diff_operator(f1_ctx, (2,)))
        assert np.abs(field[0]).max() <= 1e-12
        assert np.abs(field[1] - 2 * np.eye(2)).max() <= 1e-12

    def test_against_batch_lstsq_oracle(self, f1_ctx):
        # independent fiber-solve: least squares over random members of V
        u = diff_operator(f1_ctx, (2,))
        field = extract_range_operator(f1_ctx, u)
        rng = np.random.default_rng(50)
        samples = [rand_signal(rng, 4) for _ in range(8)]
        for wi in range(f1_ctx.n_omega):
            ins = np.column_stack([zak(f1_ctx, f)[wi] for f in samples])
            outs = np.column_stack([zak(f1_ctx, u @ f)[wi] for f in samples])
            solved = np.linalg.lstsq(ins.T, outs.T, rcond=None)[0].T
            assert np.abs(solved - field[wi]).max() <= 1e-9

    def test_translation_gives_scalar_field(self, f1_ctx):
        field = extract_range_operator(f1_ctx, translation_matrix(f1_ctx.group, (2,)).astype(complex))
        for wi, w in enumerate(f1_ctx.omega):
            symbol = pairing(f1_ctx.group, (2,), w)
            assert np.abs(field[wi] - symbol * np.eye(2)).max() <= 1e-12

    def test_rejects_non_preserving_with_witness(self, f1_ctx):
        u = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(VerificationError) as excinfo:
            extract_range_operator(f1_ctx, u)
        verdict = failed_verdict(excinfo, "translation_preserving")
        assert verdict == check_translation_preserving(f1_ctx, u)
        t, (i, j) = verdict.witness
        assert t == (2,) and 0 <= i < 4 and 0 <= j < 4

    def test_off_fiber_leakage_is_a_hard_failure(self, f1_ctx, monkeypatch):
        # skip the commutation gate to reach the field identity: no field
        # reproduces a u that does not commute
        rng = np.random.default_rng(51)
        u = rand_signal(rng, 16).reshape(4, 4)
        identity = check_field_identity(f1_ctx, u, solve_range_field(f1_ctx, u))
        assert identity.residual > 1e-3 * identity.scale and not identity
        passing = operators.checks.gate(0.0, np.inf, 1.0)
        monkeypatch.setattr(operators, "check_translation_preserving", lambda *args: passing)
        with pytest.raises(VerificationError) as excinfo:
            extract_range_operator(f1_ctx, u)
        verdict = failed_verdict(excinfo, "field_identity")
        assert verdict == identity and 0 <= verdict.witness < f1_ctx.n_omega

    def test_nan_field_is_a_failure(self, f1_ctx, monkeypatch):
        field = solve_range_field(f1_ctx, np.eye(4, dtype=complex))
        field[1, 0, 1] = np.nan
        monkeypatch.setattr(operators, "solve_range_field", lambda *args: field)
        with pytest.raises(VerificationError) as excinfo:
            extract_range_operator(f1_ctx, np.eye(4, dtype=complex))
        verdict = failed_verdict(excinfo, "field_identity")
        assert np.isnan(verdict.residual) and verdict.witness == 1  # the NaN fiber


class TestSynthesize:
    def test_full_identity_field_is_identity(self, ctx):
        field = np.stack([np.eye(ctx.n_c, dtype=complex) for _ in range(ctx.n_omega)])
        u = synthesize_operator(ctx, field)
        assert np.abs(u - np.eye(ctx.group.size)).max() <= 1e-10

    def test_symbol_field_recovers_difference_operator(self, f1_ctx):
        field = np.stack((np.zeros((2, 2), complex), 2 * np.eye(2, dtype=complex)))
        u = synthesize_operator(f1_ctx, field)
        assert np.abs(u - diff_operator(f1_ctx, (2,))).max() <= 1e-10

    def test_character_field_is_translation(self, f2_ctx):
        t = (2,)
        field = np.stack(
            tuple(
                pairing(f2_ctx.group, t, w) * np.eye(f2_ctx.n_c, dtype=complex)
                for w in f2_ctx.omega
            )
        )
        u = synthesize_operator(f2_ctx, field)
        assert np.abs(u - translation_matrix(f2_ctx.group, t)).max() <= 1e-10

    def test_synthesized_operator_commutes(self, ctx):
        rng = np.random.default_rng(52)
        u = rand_tp_operator(rng, ctx)
        assert check_translation_preserving(ctx, u)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nan_field_rejected(self, f1_ctx, value):
        field = np.zeros((2, 2, 2), dtype=complex)
        field[1, 0, 1] = value
        with pytest.raises(ValueError, match="field has non-finite entries"):
            synthesize_operator(f1_ctx, field)

    def test_bijection_roundtrips(self, ctx):
        rng = np.random.default_rng(53)
        basis = zak_matrix(ctx).conj().T
        for _ in range(5):
            field = rand_field(rng, ctx, full_range(ctx))
            u = synthesize_operator(ctx, field)
            recovered = extract_range_operator(ctx, u)
            for a, b in zip(recovered, field):
                assert np.abs(a - b).max() <= 1e-9
            resynth = synthesize_operator(ctx, recovered)
            assert np.abs(resynth @ basis - u @ basis).max() <= 1e-9


def subspace_fields(ctx, seed):
    """The range function of one random generator, the fiber projections P_J
    onto its J(omega), and two fields that vanish off J: R = Y P_J and P_J M P_J."""
    rng = np.random.default_rng(seed)
    projections = range_function(ctx, rand_signal(rng, ctx.group.size)[:, None])
    y, m = (rand_signal(rng, projections.size).reshape(projections.shape) for _ in range(2))
    return projections, (y @ projections, projections @ m @ projections)


class TestInvariantSubspace:
    """The correspondence on a proper invariant subspace V, through the full
    space: an operator on V that commutes with translations, extended by 0 on
    the orthocomplement of V, is translation preserving on L2(G), and its
    range operator vanishes off J(omega)."""

    def test_extract_recovers_the_field(self, ctx):
        for field in subspace_fields(ctx, 303)[1]:
            assert np.abs(extract_range_operator(ctx, synthesize_operator(ctx, field)) - field).max() <= 1e-9

    def test_operator_vanishes_off_the_space(self, ctx):
        projections, fields = subspace_fields(ctx, 304)
        basis = space_from_range(ctx, projections)
        off = np.eye(ctx.group.size) - basis @ basis.conj().T  # I - P_V
        for field in fields:
            assert np.abs(synthesize_operator(ctx, field) @ off).max() <= 1e-9

    def test_adjoint_field_is_the_fiberwise_adjoint(self, ctx):
        for field in subspace_fields(ctx, 62)[1]:
            adjoint = extract_range_operator(ctx, synthesize_operator(ctx, field).conj().T)
            assert np.abs(adjoint - field.conj().swapaxes(1, 2)).max() <= 1e-9

    def test_identity_on_j_is_the_projection(self, ctx):
        projections = subspace_fields(ctx, 305)[0]
        basis = space_from_range(ctx, projections)
        assert np.abs(synthesize_operator(ctx, projections) - basis @ basis.conj().T).max() <= 1e-10


def cyclic_context(n, step):
    g = make_group([n])
    return fiber_context(g, subgroup_from_generators(g, [(step,)]))


# (|G|, step) of the context, (|G|, step) of the range function's context, the error
MISFITS = {
    "Z4/<2> on Z8/<2>": ((8, 2), (4, 2), r"range function must be a \(4, 2, 2\) array, got shape \(2, 2, 2\)"),
    "Z8/<2> on Z4/<2>": ((4, 2), (8, 2), r"range function must be a \(2, 2, 2\) array, got shape \(4, 2, 2\)"),
    "Z8/<4> on Z4/<2>": ((4, 2), (8, 4), r"range function must be a \(2, 2, 2\) array, got shape \(2, 4, 4\)"),
}


class TestFiberCount:
    """A range function meets a context only when it has one |C| x |C| projection per fiber."""

    @pytest.mark.parametrize("own, other, error", MISFITS.values(), ids=MISFITS)
    def test_range_function_must_fit_its_context(self, own, other, error):
        # unchecked, Z4/<2>'s range function on Z8/<2> gave a space over two of
        # the four fibers, and the reverse direction indexed past the fibers
        ctx, rangefn = cyclic_context(*own), full_range(cyclic_context(*other))
        with pytest.raises(ValueError, match=error):
            space_from_range(ctx, rangefn)


def nan_field(ctx, u):
    """The field of u with one NaN entry in its first fiber."""
    mats = [mat.copy() for mat in extract_range_operator(ctx, u)]
    mats[0][0, 0] = np.nan
    return np.stack(mats)


class TestNormIdentity:
    def test_nan_field_fails(self, f1_ctx):
        # the SVD behind the fiber norm does not converge on NaN; the report
        # must fail with a NaN fiber norm instead of raising
        u = np.eye(4, dtype=complex)
        report = norm_identity_report(*summaries(f1_ctx, u, nan_field(f1_ctx, u)))
        assert not report.passed and not report.verdicts["norm_identity"]
        assert np.isnan(report.values["fiber_norms"][0]) and np.isnan(report.verdicts["norm_identity"].residual)
        assert report.witness == 0

    @pytest.mark.parametrize(
        "norms, witness",
        [([1 - 1e-16, 1.0, 1 - 1e-16, 0.5], 0), ([0.5, 0.9, 1.0, 0.9], 2)],
        ids=["tie-to-rounding", "clear-maximum"],
    )
    def test_witness_is_the_first_fiber_within_the_bound_of_the_largest(self, f2_ctx, norms, witness):
        u = np.eye(8, dtype=complex)
        op, fib = summaries(f2_ctx, u, extract_range_operator(f2_ctx, u))
        report = norm_identity_report(op, dataclasses.replace(fib, norms=np.array(norms)))
        assert report.passed and report.witness == witness

    def test_identity(self, f1_ctx):
        u = np.eye(4, dtype=complex)
        field = extract_range_operator(f1_ctx, u)
        report = norm_identity_report(*summaries(f1_ctx, u, field))
        assert report.passed
        assert report.values["operator_norm"] == pytest.approx(1.0, abs=1e-12)
        assert report.values["max_fiber_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_difference_operator_norm_two(self, f2_ctx):
        u = diff_operator(f2_ctx, (2,))
        field = extract_range_operator(f2_ctx, u)
        report = norm_identity_report(*summaries(f2_ctx, u, field))
        assert report.passed
        assert report.values["operator_norm"] == pytest.approx(2.0, abs=1e-10)
        # attained where the character value is -1
        attained = f2_ctx.omega[report.witness]
        assert pairing(f2_ctx.group, (2,), attained) == pytest.approx(-1.0)

    def test_scaled_translation(self, f1_ctx):
        u = 3.0 * translation_matrix(f1_ctx.group, (2,))
        field = extract_range_operator(f1_ctx, u)
        report = norm_identity_report(*summaries(f1_ctx, u, field))
        assert report.passed
        assert report.values["operator_norm"] == pytest.approx(3.0, abs=1e-10)

    def test_random_fields(self, ctx):
        rng = np.random.default_rng(54)
        for _ in range(5):
            u = rand_tp_operator(rng, ctx)
            field = extract_range_operator(ctx, u)
            assert norm_identity_report(*summaries(ctx, u, field)).passed


def full_space_frame(ctx):
    generators = principal_decomposition(ctx, np.eye(ctx.group.size, dtype=complex))
    return translate_parseval_frame(ctx, generators)


class TestHsTrace:
    def test_identity_counts_dimensions(self, f1_ctx):
        u = np.eye(4, dtype=complex)
        field = extract_range_operator(f1_ctx, u)
        report = hs_trace_report(*summaries(f1_ctx, u, field))
        assert report.passed
        assert report.values["hs_squared"]["entrywise"] == pytest.approx(4.0, abs=1e-9)
        assert report.values["hs_fiber_terms"] == pytest.approx([2.0, 2.0], abs=1e-9)

    def test_scalar_trace_splits_over_fibers(self, f1_ctx):
        u = 2.0 * np.eye(4, dtype=complex)
        field = extract_range_operator(f1_ctx, u)
        report = hs_trace_report(*summaries(f1_ctx, u, field))
        assert report.passed
        assert report.values["trace"]["entrywise"] == pytest.approx(8.0, abs=1e-9)
        assert report.values["trace_fiber_terms"] == pytest.approx([4.0, 4.0], abs=1e-9)

    def test_difference_operator_hs_eight(self, f1_ctx):
        u = diff_operator(f1_ctx, (2,))
        # entrywise oracle on the 4x4 matrix
        assert np.sum(np.abs(u) ** 2) == pytest.approx(8.0)
        field = extract_range_operator(f1_ctx, u)
        report = hs_trace_report(*summaries(f1_ctx, u, field))
        assert report.passed
        assert report.values["hs_squared"]["entrywise"] == pytest.approx(8.0, abs=1e-9)
        assert report.values["hs_fiber_terms"] == pytest.approx([0.0, 8.0], abs=1e-9)
        # I - T_2 has eigenvalues {0, 2}: the trace routes agree at 4 = 0 + 4
        assert report.values["trace"]["entrywise"] == pytest.approx(4.0, abs=1e-9)
        assert report.values["trace_fiber_terms"] == pytest.approx([0.0, 4.0], abs=1e-9)

    def test_trace_compared_for_non_selfadjoint(self, f1_ctx):
        # I - T_1 is not self-adjoint (its adjoint is I - T_3), so neither side
        # finds it positive; the trace is compared anyway
        u = diff_operator(f1_ctx, (1,))
        field = extract_range_operator(f1_ctx, u)
        structural = structural_flags(*summaries(f1_ctx, u, field))
        assert not structural.values["positive_operator"] and not structural.values["positive_fibers"]
        assert structural.verdicts["positive_agree"]
        report = hs_trace_report(*summaries(f1_ctx, u, field))
        assert report.passed and report.verdicts["trace_agree"]
        for route in ("entrywise", "fiber"):
            assert report.values["trace"][route] == pytest.approx(4.0, abs=1e-9), route
        assert sum(report.values["trace_fiber_terms"]) == pytest.approx(4.0, abs=1e-9)

    def test_traceless_translation_and_zero_pass(self):
        # T_1 on Z_8 with Gamma = G has trace 0, so |tr U| cannot be the scale;
        # the nuclear norm is 8, the sum of its singular values (all 1). U = 0
        # has scale 0, and its two traces are exactly 0
        g = make_group([8])
        ctx = fiber_context(g, subgroup_from_generators(g, [(1,)]))
        for u, nuclear in ((translation_matrix(g, (1,)), 8.0), (np.zeros((8, 8), dtype=complex), 0.0)):
            report = hs_trace_report(*summaries(ctx, u, extract_range_operator(ctx, u)))
            verdict = report.verdicts["trace_agree"]
            assert verdict.passed and report.passed
            assert verdict.scale == pytest.approx(nuclear, rel=1e-12, abs=0)
            assert abs(report.values["trace"]["entrywise"]) == 0.0
            assert verdict.residual <= 1e-14

    def test_routes_disagree_on_a_mismatched_field(self, f1_ctx):
        # the operator route reads only u and the fiber route only the field,
        # so a field of 2u against u must fail every identity
        u = np.eye(4, dtype=complex)
        field = extract_range_operator(f1_ctx, 2 * u)
        norm = norm_identity_report(*summaries(f1_ctx, u, field))
        hs = hs_trace_report(*summaries(f1_ctx, u, field))
        assert not norm.passed and not hs.verdicts["hs_agree"] and not hs.verdicts["trace_agree"]
        assert hs.values["hs_squared"]["entrywise"] == pytest.approx(4.0)
        assert hs.values["hs_squared"]["fiber"] == pytest.approx(16.0)
        assert not structural_flags(*summaries(f1_ctx, u, field)).passed

    def test_nan_field_fails_hs_and_trace(self, f1_ctx):
        # one NaN fiber entry makes the fiber routes NaN; the route comparison
        # must fail rather than drop the NaN gap
        u = np.eye(4, dtype=complex)
        mats = [mat.copy() for mat in extract_range_operator(f1_ctx, u)]
        mats[0][0, 0] = np.nan
        field = np.stack(mats)
        hs = hs_trace_report(*summaries(f1_ctx, u, field))
        assert np.isnan(hs.values["hs_squared"]["fiber"]) and np.isnan(hs.values["trace"]["fiber"])
        assert not hs.verdicts["hs_agree"] and not hs.verdicts["trace_agree"] and not hs.passed

    def test_frame_independence(self, ctx):
        # the HS sum agrees across an orthonormal basis, the scaled translate
        # frame, and a redundant random Parseval frame
        rng = np.random.default_rng(55)
        u = rand_tp_operator(rng, ctx)
        n = ctx.group.size
        onb = np.eye(n, dtype=complex)
        translates = full_space_frame(ctx)
        m = n + 3
        q, _ = np.linalg.qr(rand_signal(rng, m * m).reshape(m, m))
        redundant = q[:, :n].conj().T
        sums = [
            sum(np.linalg.norm(u @ y) ** 2 for y in frame.T)
            for frame in (onb, translates, redundant)
        ]
        scale = max(1.0, *sums)
        assert max(sums) - min(sums) <= 1e-8 * scale

    def test_positive_operator_trace_three_ways(self, ctx):
        rng = np.random.default_rng(56)
        w = rand_tp_operator(rng, ctx)
        u = w.conj().T @ w
        field = extract_range_operator(ctx, u)
        report = hs_trace_report(*summaries(ctx, u, field))
        assert report.passed and report.verdicts["trace_agree"]
        # on a positive operator the nuclear norm is the trace: the scale |tr U|
        assert report.verdicts["trace_agree"].scale == pytest.approx(abs(np.trace(u)), rel=1e-9)


class TestStructuralFlags:
    def test_nan_field_fails_even_where_both_sides_fail(self, f1_ctx):
        # 2I is no isometry and a NaN fiber fails its isometry gate too, so
        # the two sides "agree"; a non-finite field must still fail the
        # report, and it has no fiber rank
        u = 2 * np.eye(4, dtype=complex)
        report = structural_flags(*summaries(f1_ctx, u, nan_field(f1_ctx, u)))
        assert not report.values["isometry_operator"] and not report.values["isometry_fibers"]
        assert not report.verdicts["isometry_agree"] and not report.verdicts["rank_agree"]
        assert not report.verdicts["positive_agree"]
        assert not report.passed
        assert report.values["fiber_ranks"] is None and report.values["rank_fiber_sum"] is None
        assert np.isnan(report.values["isometry_fibers"].residual)

    def test_translation_is_isometry_with_unimodular_fibers(self, f1_ctx):
        u = translation_matrix(f1_ctx.group, (2,)).astype(complex)
        field = extract_range_operator(f1_ctx, u)
        report = structural_flags(*summaries(f1_ctx, u, field))
        assert report.passed
        assert report.values["isometry_operator"] and report.values["isometry_fibers"]

    def test_difference_operator_selfadjoint(self, f1_ctx):
        u = diff_operator(f1_ctx, (2,))
        # matrix conjugate-transpose oracle: -2 = 2 mod 4 makes U equal U*
        assert np.abs(u - u.conj().T).max() == 0.0
        field = extract_range_operator(f1_ctx, u)
        report = structural_flags(*summaries(f1_ctx, u, field))
        assert report.passed
        assert report.values["selfadjoint_operator"] and report.values["selfadjoint_fibers"]

    def test_projection_rank_splits_over_fibers(self, f1_ctx):
        sub = range_function(f1_ctx, delta(f1_ctx.group, (0,))[:, None])
        basis = space_from_range(f1_ctx, sub)
        u = basis @ basis.conj().T
        field = extract_range_operator(f1_ctx, u)
        report = structural_flags(*summaries(f1_ctx, u, field))
        assert report.values["rank_operator"] == 2
        assert report.values["fiber_ranks"].tolist() == [1, 1]
        assert report.verdicts["rank_agree"]

    def test_biconditionals_both_directions(self, f2_ctx):
        rng = np.random.default_rng(57)
        nc, nw = f2_ctx.n_c, f2_ctx.n_omega
        # positive case: unitary fibers; negative case: one stretched fiber
        unitaries = []
        for _ in range(nw):
            q, _ = np.linalg.qr(rand_signal(rng, nc * nc).reshape(nc, nc))
            unitaries.append(q)
        good = np.stack(unitaries)
        bad = np.stack([2.0 * unitaries[0]] + unitaries[1:])
        for field_in, expected in ((good, True), (bad, False)):
            u = synthesize_operator(f2_ctx, field_in)
            field = extract_range_operator(f2_ctx, u)
            report = structural_flags(*summaries(f2_ctx, u, field))
            assert report.values["isometry_operator"].passed is expected
            assert report.values["isometry_fibers"].passed is expected
            assert report.verdicts["isometry_agree"]

    def test_positive_operator_is_positive_on_both_sides(self, ctx):
        w = rand_tp_operator(np.random.default_rng(59), ctx)
        u = w.conj().T @ w
        report = structural_flags(*summaries(ctx, u, extract_range_operator(ctx, u)))
        assert report.passed
        assert report.values["positive_operator"] and report.values["positive_fibers"]

    def test_hermitian_indefinite_operator_is_positive_on_neither_side(self, f2_ctx):
        # eigenvalues 1 + cos(pi k / 2) - 0.9 (-1)^k, from -0.9 to 1.9
        t = lambda k: translation_matrix(f2_ctx.group, (k,))
        u = np.eye(8) + t(2) / 2 + t(6) / 2 - 0.9 * t(4)
        assert np.linalg.eigvalsh(u).min() == pytest.approx(-0.9)
        report = structural_flags(*summaries(f2_ctx, u, extract_range_operator(f2_ctx, u)))
        assert report.passed and report.verdicts["positive_agree"]
        assert report.values["selfadjoint_operator"] and report.values["selfadjoint_fibers"]
        assert not report.values["positive_operator"] and not report.values["positive_fibers"]
        # the deficit Re tr A <= ||A||_* is twice the negative eigenvalues' sum
        assert report.values["positive_operator"].residual == pytest.approx(4 * 0.9, rel=1e-12)
        assert report.values["positive_fibers"].residual == pytest.approx(4 * 0.9, rel=1e-12)

    def test_a_small_skew_part_fails_positivity(self):
        # the deficit grows only quadratically in a skew-Hermitian part: alone
        # it would pass W^H W + 1e-7 i ||U|| I, which is not self-adjoint
        g = make_group([64])
        ctx = fiber_context(g, subgroup_from_generators(g, [(8,)]))
        w = rand_tp_operator(np.random.default_rng(60), ctx)
        psd = w.conj().T @ w
        u = psd + 1e-7j * np.linalg.norm(psd, 2) * np.eye(64)
        op, fib = summaries(ctx, u, extract_range_operator(ctx, u))
        assert np.sum(op.singular_values) - np.trace(u).real <= 1e-9 * checks.largest(op.norms)
        report = structural_flags(op, fib)
        assert report.passed
        for side in ("operator", "fibers"):
            assert not report.values[f"selfadjoint_{side}"] and not report.values[f"positive_{side}"], side

    def test_adjoint_covariance(self, ctx):
        # the field of U* is the fiberwise adjoint when U maps the space to itself
        rng = np.random.default_rng(58)
        field = rand_field(rng, ctx, full_range(ctx))
        u = synthesize_operator(ctx, field)
        adj_field = extract_range_operator(ctx, u.conj().T)
        for a, b in zip(adj_field, field):
            assert np.abs(a - b.conj().T).max() <= 1e-9


Z64_GAMMAS = {"gamma-8": (8,), "gamma-32": (32,), "gamma-G": (1,)}


def z64_structural(u, step):
    """The structural values of the pipeline on Z_64 at Gamma = <step>, once it passes."""
    g = make_group([64])
    body, ok, _ = cli._pipeline(fiber_context(g, subgroup_from_generators(g, [step])), u, cli.RunConfig())
    assert ok
    return body["structural"]["values"]


class TestGammaIndependence:
    """Each structural residual is one the unitary Z leaves unchanged, so both
    sides measure one value and no verdict depends on Gamma. A largest-entry
    residual does not: on Z_64 it gave the fibers and the operator different
    verdicts at Gamma = <8> and G, and the same ones at <32>."""

    def test_a_small_skew_part_is_self_adjoint_on_neither_side(self, tmp_path, capsys):
        # I + 1e-8 i J/64, J the all-ones matrix: ||U - U^H||_F = 2e-8, while
        # its largest entry is 3.1e-10, under STRUCT
        u = np.eye(64) + 1e-8j * np.ones((64, 64)) / 64
        op = tmp_path / "u.json"
        op.write_text(json.dumps({"matrix": jsonio.matrix_to_json(u)}, default=np.ndarray.tolist))
        residuals = []
        for label, step in Z64_GAMMAS.items():
            spec = tmp_path / f"{label}.json"
            spec.write_text(json.dumps({"orders": [64], "gamma_generators": [list(step)]}))
            assert cli.main(["analyze", str(spec), str(op), "--json"]) == 0, label
            values = json.loads(capsys.readouterr().out)["structural"]["values"]
            for side in ("operator", "fibers"):
                assert values[f"selfadjoint_{side}"]["passed"] is False, (label, side)
                residuals.append(values[f"selfadjoint_{side}"]["residual"])
        assert residuals[0] == pytest.approx(2e-8, rel=1e-12)
        assert max(residuals) - min(residuals) <= 1e-12 * max(residuals)

    @pytest.mark.parametrize("step", Z64_GAMMAS.values(), ids=Z64_GAMMAS.keys())
    def test_a_near_isometry_is_an_isometry_on_neither_side(self, step):
        # I + 5e-9 J/64 has ||U^H U - I||_2 = (1 + 5e-9)^2 - 1 = 1e-8, over STRUCT
        values = z64_structural(np.eye(64) + 5e-9 * np.ones((64, 64)) / 64, step)
        for side in ("operator", "fibers"):
            assert values[f"isometry_{side}"]["passed"] is False, side
            # s^2 - 1 at s = 1 + 5e-9 keeps the rounding of s, about 1e-16
            assert values[f"isometry_{side}"]["residual"] == pytest.approx(1e-8, rel=1e-6), side

    @pytest.mark.parametrize("step", Z64_GAMMAS.values(), ids=Z64_GAMMAS.keys())
    def test_the_unit_translation_is_an_isometry_on_both_sides(self, step):
        values = z64_structural(translation_matrix(make_group([64]), (1,)), step)
        assert values["isometry_operator"]["passed"] and values["isometry_fibers"]["passed"]


def same_summary(a, b) -> bool:
    """Every field of two summaries equal, NaN matching NaN."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True) for f in dataclasses.fields(a)
    )


TRIVIAL = [(label, ctx) for label, ctx in battery_contexts() if ctx.gamma.size == 1]


class TestSummaries:
    @pytest.mark.parametrize("trivial_ctx", [c for _, c in TRIVIAL], ids=[label for label, _ in TRIVIAL])
    def test_u_is_the_one_block_of_the_trivial_fiberization(self, trivial_ctx):
        # with Gamma = {0} there is one fiber, C = G and R = U, so summarizing
        # u[None] is summarizing the field of the trivial fiberization
        n = trivial_ctx.group.size
        u = rand_signal(np.random.default_rng(68), n * n).reshape(n, n)
        assert u.flags.c_contiguous
        field = solve_range_field(trivial_ctx, u)
        assert field.shape == (1, n, n) and field.tobytes() == u[None].tobytes()
        assert same_summary(fiber_summary(field), fiber_summary(u[None]))

    def test_each_summary_reads_only_its_own_side(self, f2_ctx):
        # the signature keeps the two routes apart: the summary reads one
        # stack of blocks, u[None] or the field, never both
        assert list(inspect.signature(fiber_summary).parameters) == ["field"]
        rng = np.random.default_rng(63)
        u = rand_tp_operator(rng, f2_ctx)
        field = extract_range_operator(f2_ctx, u)
        op, fib = fiber_summary(u[None]), fiber_summary(field)

        mats = [mat.copy() for mat in field]
        mats[1][0, 1] += 1.0
        corrupted = fiber_summary(np.stack(mats))
        assert not same_summary(corrupted, fib)
        assert corrupted.norms[0] == fib.norms[0] and corrupted.norms[1] != fib.norms[1]
        assert same_summary(fiber_summary(u[None]), op)
        assert not norm_identity_report(op, corrupted).passed

        moved = fiber_summary((u + np.eye(f2_ctx.group.size))[None])
        assert not same_summary(moved, op)
        assert same_summary(fiber_summary(field), fib)
        assert not hs_trace_report(moved, fib).passed

    def test_entrywise_route_is_u_on_the_standard_basis(self):
        # the operator route forms no product: ||U||_F^2 as the sum of
        # re^2 + im^2 over U's entries, and tr U, read off u
        rng = np.random.default_rng(66)
        for label, ctx in battery_contexts():
            w = rand_tp_operator(rng, ctx)
            u = w.conj().T @ w
            body, ok, _ = cli._pipeline(ctx, u, cli.RunConfig())
            assert ok, label
            assert body["hs_trace"]["values"]["hs_squared"]["entrywise"] == np.sum(u.real**2 + u.imag**2), label
            tr = np.trace(u)
            assert body["hs_trace"]["values"]["trace"]["entrywise"].tolist() == [tr.real, tr.imag], label

    def test_fiber_summary_reads_each_fiber_alone(self, ctx):
        # the stacked SVD against one SVD per fiber, and a NaN fiber is NaN
        # on its own: its neighbours keep their norms and spectra
        rng = np.random.default_rng(67)
        field = rand_field(rng, ctx, full_range(ctx))
        field[0] = np.outer(field[0, :, 0], field[0, 0])  # a rank-one fiber
        fib = fiber_summary(field)
        spectra = [np.linalg.svd(mat, compute_uv=False) for mat in field]
        assert np.array_equal(fib.norms, [s[0] for s in spectra])
        assert np.array_equal(fib.singular_values, spectra)
        # every fiber is cut at one scale, the largest singular value of all
        cut = 1e-9 * max(s[0] for s in spectra)
        ranks = structural_flags(*summaries(ctx, synthesize_operator(ctx, field), field)).values["fiber_ranks"]
        assert ranks.tolist() == [int(np.sum(s > cut)) for s in spectra]
        assert ranks[0] == 1
        assert fib.hs_terms == pytest.approx([np.linalg.norm(mat) ** 2 for mat in field], rel=1e-12)
        assert np.array_equal(fib.trace_terms, [np.trace(mat) for mat in field])
        field[-1, 0, 0] = np.nan
        broken = fiber_summary(field)
        assert np.isnan(broken.norms[-1]) and np.array_equal(broken.norms[:-1], fib.norms[:-1])
        assert np.isnan(broken.singular_values[-1]).all()
        assert np.array_equal(broken.singular_values[:-1], fib.singular_values[:-1])

    @pytest.mark.parametrize("hermitian", [False, True], ids=["general", "hermitian-psd"])
    def test_pipeline_takes_each_dense_kernel_once(self, monkeypatch, hermitian):
        g = make_group([64])
        ctx = fiber_context(g, subgroup_from_generators(g, [(8,)]))
        n = g.size
        w = rand_tp_operator(np.random.default_rng(64), ctx)
        u = w.conj().T @ w if hermitian else w
        shapes, eigensolves, transforms = [], [], []
        svd, norm = np.linalg.svd, np.linalg.norm

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2:  # the spectral norm is an SVD numpy makes internally
                shapes.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)

        def counting_eigensolve(solve):
            def counted(a, *args, **kwargs):
                eigensolves.append(np.shape(a))
                return solve(a, *args, **kwargs)

            return counted

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting_eigensolve(getattr(np.linalg, name)))
        forward = fiberization.zak

        def counting_zak(c, x):
            transforms.append(np.shape(x))
            return forward(c, x)

        def refuse(*args):
            raise AssertionError("a refused transform ran")

        for module in (fiberization, operators, cli):
            monkeypatch.setattr(module, "zak", counting_zak)
            monkeypatch.setattr(module, "zak_inverse", refuse)

        body, ok, field = cli._pipeline(ctx, u, cli.RunConfig())
        # positivity is decided on both sides from the spectra the SVDs give
        assert ok and body["hs_trace"]["verdicts"]["trace_agree"]["passed"]
        structural = body["structural"]
        assert structural["verdicts"]["positive_agree"]["passed"]
        assert structural["values"]["positive_operator"]["passed"] is hermitian
        # u is the one block of the trivial fiberization: one SVD of it, and
        # the fiber side takes one SVD over the whole stack of fibers
        assert shapes.count((1, n, n)) == 1
        assert shapes == [(1, n, n), (ctx.n_omega, ctx.n_c, ctx.n_c)]
        assert eigensolves == []
        # no n-column transform: the field identity fiberizes the four probes
        # and their images, and the closed-form field reads no transform
        assert transforms == [(n, 4), (n, 4)]
        monkeypatch.setattr(operators, "zak", refuse)
        assert fiber_summary(u[None]).hs_terms[0] == body["hs_trace"]["values"]["hs_squared"]["entrywise"]
        assert np.array_equal(solve_range_field(ctx, u), field)

    @pytest.mark.parametrize("hermitian", [False, True], ids=["commuting", "hermitian-psd"])
    def test_pipeline_takes_the_full_space_frame_in_closed_form(self, monkeypatch, hermitian):
        # analyze certifies the full space, whose Parseval frame is the
        # standard basis the operator side reads u on: nothing decomposes the
        # space to find it
        def refuse(*args, **kwargs):
            raise AssertionError("the pipeline decomposed the full space")

        for name in ("principal_decomposition", "is_translation_invariant", "translate_parseval_frame"):
            monkeypatch.setattr(spaces, name, refuse)
            monkeypatch.setattr(cli, name, refuse, raising=False)
        rng = np.random.default_rng(65)
        for label, ctx in battery_contexts():
            w = rand_tp_operator(rng, ctx)
            u = w.conj().T @ w if hermitian else w
            body, ok, _ = cli._pipeline(ctx, u, cli.RunConfig())
            assert ok, label
            assert body["hs_trace"]["verdicts"]["trace_agree"]["passed"], label


def conjugated_phase(ctx):
    """A copy of ctx whose phase table is conjugated: the transforms built on
    it carry the wrong sign in the exponent."""
    clone = copy.copy(ctx)
    object.__setattr__(clone, "_phase", ctx._phase.conj())
    return clone


class TestTransformCrossCheck:
    # analyze fiberizes the probes and their images with zak, and reads the
    # field in closed form with characters taken from their definition, not
    # from the phase table: a phase-sign error in zak fails the field
    # identity, since every operator-side value is invariant under any
    # unitary basis. analyze runs no zak_inverse; check's round trip reads it
    def test_a_sign_error_in_zak_fails_the_field_identity(self, monkeypatch):
        g = make_group([16])
        ctx = fiber_context(g, subgroup_from_generators(g, [(4,)]))
        u = rand_tp_operator(np.random.default_rng(70), ctx)
        body, ok, field = cli._pipeline(ctx, u, cli.RunConfig())
        assert ok and body["field_identity"]["passed"]
        honest = fiberization.zak
        for module in (fiberization, operators, cli):
            monkeypatch.setattr(module, "zak", lambda c, x: honest(conjugated_phase(c), x))
        body, ok, field = cli._pipeline(ctx, u, cli.RunConfig())
        assert not ok and field is None
        assert body["translation_preserving"]["passed"] and not body["field_identity"]["passed"]
        assert "range_field" not in body

    def test_a_sign_error_in_zak_inverse_fails_the_round_trip(self, monkeypatch):
        g = make_group([16])
        ctx = fiber_context(g, subgroup_from_generators(g, [(4,)]))
        assert cli._check_suites(ctx, cli.RunConfig())["zak_roundtrip"]["passed"]
        honest = fiberization.zak_inverse
        for module in (fiberization, operators, cli):
            monkeypatch.setattr(module, "zak_inverse", lambda c, x: honest(conjugated_phase(c), x))
        suites = cli._check_suites(ctx, cli.RunConfig())
        assert not suites["zak_roundtrip"]["passed"] and suites["zak_roundtrip"]["residual"] > 0.1


class TestMultiplicationPreserving:
    def test_block_diagonal_passes_both_modes(self, f1_ctx):
        rng = np.random.default_rng(59)
        field = rand_field(rng, f1_ctx, full_range(f1_ctx))
        uhat = np.zeros((4, 4), dtype=complex)
        uhat[:2, :2] = field[0]
        uhat[2:, 2:] = field[1]
        assert multiplication_preserving_check(f1_ctx, uhat, mode="determining-set")
        assert multiplication_preserving_check(f1_ctx, uhat, mode="full")

    def test_block_swap_fails_with_character_witness(self, f1_ctx):
        swap = np.zeros((4, 4), dtype=complex)
        swap[:2, 2:] = np.eye(2)
        swap[2:, :2] = np.eye(2)
        det = multiplication_preserving_check(f1_ctx, swap, mode="determining-set")
        full = multiplication_preserving_check(f1_ctx, swap, mode="full")
        assert not det and not full
        assert det.witness == (2,)

    def test_conjugated_preserving_operator_passes(self, ctx):
        rng = np.random.default_rng(60)
        u = rand_tp_operator(rng, ctx)
        zmat = zak_matrix(ctx)
        uhat = zmat @ u @ zmat.conj().T
        assert multiplication_preserving_check(ctx, uhat, mode="determining-set")
        assert multiplication_preserving_check(ctx, uhat, mode="full")

    def test_modes_agree_on_random_input(self, ctx):
        rng = np.random.default_rng(61)
        n = ctx.group.size
        for _ in range(5):
            uhat = rand_signal(rng, n * n).reshape(n, n)
            det = multiplication_preserving_check(ctx, uhat, mode="determining-set")
            full = multiplication_preserving_check(ctx, uhat, mode="full")
            assert det.passed == full.passed

    def test_determining_set_probes_the_generators(self, monkeypatch):
        # Gamma = Z_8 has one generator: one character probe, not eight
        g = make_group([8])
        ctx = fiber_context(g, subgroup_from_generators(g, [(1,)]))
        probes = []
        character = operators.determining_function
        monkeypatch.setattr(operators, "determining_function", lambda c, t: probes.append(t) or character(c, t))
        assert multiplication_preserving_check(ctx, np.eye(8), mode="determining-set")
        assert probes == [(1,)]

    @pytest.mark.parametrize("mode", ["determining-set", "full"])
    def test_nan_operator_fails(self, f1_ctx, mode):
        assert not multiplication_preserving_check(f1_ctx, np.full((4, 4), np.nan, dtype=complex), mode=mode)

    def test_shape_and_mode_errors(self, f1_ctx):
        with pytest.raises(ValueError):
            multiplication_preserving_check(f1_ctx, np.eye(3))
        with pytest.raises(ValueError):
            multiplication_preserving_check(f1_ctx, np.eye(4), mode="sideways")
