"""Operator/field correspondence: extraction, synthesis, and the identity reports."""

import dataclasses
import inspect

import numpy as np
import pytest

from zakfiber import (
    NotTranslationPreservingError,
    RangeFunction,
    RangeOperatorField,
    RangeSolveError,
    check_translation_preserving,
    extract_range_operator,
    fiber_context,
    fiber_summary,
    full_range_function,
    hs_trace_report,
    make_group,
    multiplication_preserving_check,
    norm_identity_report,
    operator_summary,
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

from zakfiber import cli, operators

from conftest import delta, rand_field, rand_signal, rand_tp_operator, summaries


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
            for t in ctx.gamma.generators or ctx.gamma.elements:
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


class TestExtract:
    def test_identity_gives_identity_fibers(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        field = extract_range_operator(f1_ctx, np.eye(4, dtype=complex), rangefn)
        for mat in field.matrices:
            assert np.abs(mat - np.eye(2)).max() <= 1e-12

    def test_difference_operator_symbols(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        field = extract_range_operator(f1_ctx, diff_operator(f1_ctx, (2,)), rangefn)
        assert np.abs(field.matrices[0]).max() <= 1e-12
        assert np.abs(field.matrices[1] - 2 * np.eye(2)).max() <= 1e-12

    def test_against_batch_lstsq_oracle(self, f1_ctx):
        # independent fiber-solve: least squares over random members of V
        rangefn = full_range_function(f1_ctx)
        u = diff_operator(f1_ctx, (2,))
        field = extract_range_operator(f1_ctx, u, rangefn)
        rng = np.random.default_rng(50)
        samples = [rand_signal(rng, 4) for _ in range(8)]
        for wi in range(f1_ctx.n_omega):
            ins = np.column_stack([zak(f1_ctx, f)[wi] for f in samples])
            outs = np.column_stack([zak(f1_ctx, u @ f)[wi] for f in samples])
            solved = np.linalg.lstsq(ins.T, outs.T, rcond=None)[0].T
            assert np.abs(solved - field.matrices[wi]).max() <= 1e-9

    def test_translation_gives_scalar_field(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        field = extract_range_operator(
            f1_ctx, translation_matrix(f1_ctx.group, (2,)).astype(complex), rangefn
        )
        for wi, w in enumerate(f1_ctx.omega.reps):
            symbol = pairing(f1_ctx.group, (2,), w)
            assert np.abs(field.matrices[wi] - symbol * np.eye(2)).max() <= 1e-12

    def test_rejects_non_preserving_with_witness(self, f1_ctx):
        u = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(NotTranslationPreservingError) as excinfo:
            extract_range_operator(f1_ctx, u, full_range_function(f1_ctx))
        assert excinfo.value.verdict.witness[0] == (2,)

    def test_off_fiber_leakage_is_a_hard_failure(self, f1_ctx, monkeypatch):
        # skip the commutation gate to reach the solve residual detector
        rng = np.random.default_rng(51)
        u = rand_signal(rng, 16).reshape(4, 4)
        field, residual = solve_range_field(f1_ctx, u, full_range_function(f1_ctx))
        assert residual > 1e-3
        passing = operators.checks.Verdict(True, 0.0, np.inf)
        monkeypatch.setattr(operators, "check_translation_preserving", lambda *args: passing)
        with pytest.raises(RangeSolveError):
            extract_range_operator(
                f1_ctx, u, full_range_function(f1_ctx)
            )


    def test_nan_solve_residual_is_a_failure(self, f1_ctx, monkeypatch):
        rangefn = full_range_function(f1_ctx)
        field, _ = solve_range_field(f1_ctx, np.eye(4, dtype=complex), rangefn)
        monkeypatch.setattr(operators, "solve_range_field", lambda *args: (field, float("nan")))
        with pytest.raises(RangeSolveError):
            extract_range_operator(f1_ctx, np.eye(4, dtype=complex), rangefn)


class TestSynthesize:
    def test_identity_field_is_projection(self, f1_ctx):
        rangefn = range_function(f1_ctx, [delta(f1_ctx.group, (0,))])
        field = RangeOperatorField(tuple(rangefn.projection(wi) for wi in range(2)))
        u = synthesize_operator(f1_ctx, field, rangefn)
        basis = space_from_range(f1_ctx, rangefn)
        assert np.abs(u - basis @ basis.conj().T).max() <= 1e-10

    def test_full_identity_field_is_identity(self, ctx):
        rangefn = full_range_function(ctx)
        field = RangeOperatorField(tuple(np.eye(ctx.n_c, dtype=complex) for _ in range(ctx.n_omega)))
        u = synthesize_operator(ctx, field, rangefn)
        assert np.abs(u - np.eye(ctx.group.size)).max() <= 1e-10

    def test_symbol_field_recovers_difference_operator(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        field = RangeOperatorField((np.zeros((2, 2), complex), 2 * np.eye(2, dtype=complex)))
        u = synthesize_operator(f1_ctx, field, rangefn)
        assert np.abs(u - diff_operator(f1_ctx, (2,))).max() <= 1e-10

    def test_character_field_is_translation(self, f2_ctx):
        rangefn = full_range_function(f2_ctx)
        t = (2,)
        field = RangeOperatorField(
            tuple(
                pairing(f2_ctx.group, t, w) * np.eye(f2_ctx.n_c, dtype=complex)
                for w in f2_ctx.omega.reps
            )
        )
        u = synthesize_operator(f2_ctx, field, rangefn)
        assert np.abs(u - translation_matrix(f2_ctx.group, t)).max() <= 1e-10

    def test_synthesized_operator_commutes(self, ctx):
        rng = np.random.default_rng(52)
        u = rand_tp_operator(rng, ctx)
        assert check_translation_preserving(ctx, u)

    def test_domain_violation_rejected(self, f1_ctx):
        rangefn = range_function(f1_ctx, [delta(f1_ctx.group, (0,))])
        bad = RangeOperatorField((np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
        with pytest.raises(ValueError):
            synthesize_operator(f1_ctx, bad, rangefn)

    def test_nan_field_rejected(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        nan = RangeOperatorField(tuple(np.full((2, 2), np.nan, dtype=complex) for _ in range(2)))
        with pytest.raises(ValueError):
            synthesize_operator(f1_ctx, nan, rangefn)

    def test_bijection_roundtrips(self, ctx):
        rng = np.random.default_rng(53)
        rangefn = full_range_function(ctx)
        basis = space_from_range(ctx, rangefn)
        for _ in range(5):
            field = rand_field(rng, ctx, rangefn)
            u = synthesize_operator(ctx, field, rangefn)
            recovered = extract_range_operator(ctx, u, rangefn)
            for a, b in zip(recovered.matrices, field.matrices):
                assert np.abs(a - b).max() <= 1e-9
            resynth = synthesize_operator(ctx, recovered, rangefn)
            assert np.abs(resynth @ basis - u @ basis).max() <= 1e-9


def nan_field(ctx, u, rangefn):
    """The field of u with one NaN entry in its first fiber."""
    mats = [mat.copy() for mat in extract_range_operator(ctx, u, rangefn).matrices]
    mats[0][0, 0] = np.nan
    return RangeOperatorField(tuple(mats))


class TestNormIdentity:
    def test_nan_field_fails(self, f1_ctx):
        # the SVD behind the fiber norm does not converge on NaN; the report
        # must fail with a NaN fiber norm instead of raising
        rangefn = full_range_function(f1_ctx)
        u = np.eye(4, dtype=complex)
        report = norm_identity_report(*summaries(f1_ctx, u, nan_field(f1_ctx, u, rangefn), rangefn))
        assert not report.passed and not report.verdicts["norm_identity"]
        assert np.isnan(report.values["fiber_norms"][0]) and np.isnan(report.residuals["norm_gap"])
        assert report.witness == 0

    def test_identity(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        u = np.eye(4, dtype=complex)
        field = extract_range_operator(f1_ctx, u, rangefn)
        report = norm_identity_report(*summaries(f1_ctx, u, field, rangefn))
        assert report.passed
        assert report.values["operator_norm"] == pytest.approx(1.0, abs=1e-12)
        assert report.values["max_fiber_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_difference_operator_norm_two(self, f2_ctx):
        rangefn = full_range_function(f2_ctx)
        u = diff_operator(f2_ctx, (2,))
        field = extract_range_operator(f2_ctx, u, rangefn)
        report = norm_identity_report(*summaries(f2_ctx, u, field, rangefn))
        assert report.passed
        assert report.values["operator_norm"] == pytest.approx(2.0, abs=1e-10)
        # attained where the character value is -1
        attained = f2_ctx.omega.reps[report.witness]
        assert pairing(f2_ctx.group, (2,), attained) == pytest.approx(-1.0)

    def test_scaled_translation(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        u = 3.0 * translation_matrix(f1_ctx.group, (2,))
        field = extract_range_operator(f1_ctx, u, rangefn)
        report = norm_identity_report(*summaries(f1_ctx, u, field, rangefn))
        assert report.passed
        assert report.values["operator_norm"] == pytest.approx(3.0, abs=1e-10)

    def test_random_fields(self, ctx):
        rng = np.random.default_rng(54)
        rangefn = full_range_function(ctx)
        for _ in range(5):
            u = rand_tp_operator(rng, ctx)
            field = extract_range_operator(ctx, u, rangefn)
            assert norm_identity_report(*summaries(ctx, u, field, rangefn)).passed


def full_space_frame(ctx):
    generators = principal_decomposition(ctx, np.eye(ctx.group.size, dtype=complex))
    return translate_parseval_frame(ctx, generators)


class TestHsTrace:
    def test_identity_counts_dimensions(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        u = np.eye(4, dtype=complex)
        field = extract_range_operator(f1_ctx, u, rangefn)
        report = hs_trace_report(*summaries(f1_ctx, u, field, rangefn, full_space_frame(f1_ctx)))
        assert report.passed
        assert report.values["hs_squared"]["entrywise"] == pytest.approx(4.0, abs=1e-9)
        assert report.values["hs_fiber_terms"] == pytest.approx([2.0, 2.0], abs=1e-9)

    def test_scalar_trace_splits_over_fibers(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        u = 2.0 * np.eye(4, dtype=complex)
        field = extract_range_operator(f1_ctx, u, rangefn)
        report = hs_trace_report(*summaries(f1_ctx, u, field, rangefn, full_space_frame(f1_ctx)))
        assert report.passed and "trace" not in report.skipped
        assert report.values["trace"]["basis"] == pytest.approx(8.0, abs=1e-9)
        assert report.values["trace_fiber_terms"] == pytest.approx([4.0, 4.0], abs=1e-9)

    def test_difference_operator_hs_eight(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        u = diff_operator(f1_ctx, (2,))
        # entrywise oracle on the 4x4 matrix
        assert np.sum(np.abs(u) ** 2) == pytest.approx(8.0)
        field = extract_range_operator(f1_ctx, u, rangefn)
        report = hs_trace_report(*summaries(f1_ctx, u, field, rangefn, full_space_frame(f1_ctx)))
        assert report.passed
        assert report.values["hs_squared"]["entrywise"] == pytest.approx(8.0, abs=1e-9)
        assert report.values["hs_fiber_terms"] == pytest.approx([0.0, 8.0], abs=1e-9)
        # I - T_2 is Hermitian with eigenvalues {0, 2}, so the positivity gate
        # admits it and the trace routes agree at 4 = 0 + 4
        assert "trace" not in report.skipped
        assert report.values["trace"]["basis"] == pytest.approx(4.0, abs=1e-9)

    def test_trace_skipped_for_non_selfadjoint(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        u = diff_operator(f1_ctx, (1,))  # adjoint is I - T_3, not equal
        field = extract_range_operator(f1_ctx, u, rangefn)
        report = hs_trace_report(*summaries(f1_ctx, u, field, rangefn, full_space_frame(f1_ctx)))
        assert report.skipped == ("trace",)
        assert "trace" not in report.values

    def test_rejects_non_parseval_frame(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        u = np.eye(4, dtype=complex)
        field = extract_range_operator(f1_ctx, u, rangefn)
        generators = principal_decomposition(f1_ctx, np.eye(4, dtype=complex))
        unscaled = []
        for phi in generators:
            for t in f1_ctx.gamma.elements:
                unscaled.append(translation_matrix(f1_ctx.group, t) @ phi)
        with pytest.raises(ValueError):
            hs_trace_report(*summaries(f1_ctx, u, field, rangefn, unscaled))

    def test_routes_disagree_on_a_mismatched_field(self, f1_ctx):
        # the operator routes read only u and the fiber routes only the field,
        # so a field of 2u against u must fail every identity
        rangefn = full_range_function(f1_ctx)
        u = np.eye(4, dtype=complex)
        field = extract_range_operator(f1_ctx, 2 * u, rangefn)
        norm = norm_identity_report(*summaries(f1_ctx, u, field, rangefn))
        hs = hs_trace_report(*summaries(f1_ctx, u, field, rangefn, full_space_frame(f1_ctx)))
        assert not norm.passed and not hs.verdicts["hs_agree"] and not hs.verdicts["trace_agree"]
        assert hs.values["hs_squared"]["frame"] == pytest.approx(hs.values["hs_squared"]["entrywise"])
        assert hs.values["hs_squared"]["fiber"] == pytest.approx(16.0)
        assert not structural_flags(*summaries(f1_ctx, u, field, rangefn)).passed

    def test_rejects_nan_frame(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        u = np.eye(4, dtype=complex)
        field = extract_range_operator(f1_ctx, u, rangefn)
        with pytest.raises(ValueError):
            hs_trace_report(*summaries(f1_ctx, u, field, rangefn, [np.full(4, np.nan, dtype=complex)] * 4))

    def test_nan_field_fails_hs_and_trace(self, f1_ctx):
        # one NaN fiber entry makes the fiber routes NaN; the route comparison
        # must fail rather than drop the NaN gap
        rangefn = full_range_function(f1_ctx)
        u = np.eye(4, dtype=complex)
        mats = [mat.copy() for mat in extract_range_operator(f1_ctx, u, rangefn).matrices]
        mats[0][0, 0] = np.nan
        field = RangeOperatorField(tuple(mats))
        hs = hs_trace_report(*summaries(f1_ctx, u, field, rangefn, full_space_frame(f1_ctx)))
        assert np.isnan(hs.values["hs_squared"]["fiber"]) and np.isnan(hs.values["trace"]["fiber"])
        assert not hs.verdicts["hs_agree"] and not hs.verdicts["trace_agree"] and not hs.passed

    def test_frame_independence(self, ctx):
        # the HS sum agrees across an orthonormal basis, the scaled translate
        # frame, and a redundant random Parseval frame
        rng = np.random.default_rng(55)
        u = rand_tp_operator(rng, ctx)
        n = ctx.group.size
        onb = [col for col in np.eye(n, dtype=complex).T]
        translates = full_space_frame(ctx)
        m = n + 3
        q, _ = np.linalg.qr(rand_signal(rng, m * m).reshape(m, m))
        redundant = [np.asarray(q[i, :n].conj()) for i in range(m)]
        sums = [
            sum(np.linalg.norm(u @ y) ** 2 for y in frame)
            for frame in (onb, translates, redundant)
        ]
        scale = max(1.0, *sums)
        assert max(sums) - min(sums) <= 1e-8 * scale

    def test_positive_operator_trace_three_ways(self, ctx):
        rng = np.random.default_rng(56)
        w = rand_tp_operator(rng, ctx)
        u = w.conj().T @ w
        rangefn = full_range_function(ctx)
        field = extract_range_operator(ctx, u, rangefn)
        report = hs_trace_report(*summaries(ctx, u, field, rangefn, full_space_frame(ctx)))
        assert report.passed
        assert "trace" not in report.skipped


class TestStructuralFlags:
    def test_nan_field_fails_even_where_both_sides_fail(self, f1_ctx):
        # 2I is no isometry and a NaN fiber fails its isometry gate too, so
        # the two sides "agree"; a non-finite field must still fail the
        # report, and it has no fiber rank
        rangefn = full_range_function(f1_ctx)
        u = 2 * np.eye(4, dtype=complex)
        report = structural_flags(*summaries(f1_ctx, u, nan_field(f1_ctx, u, rangefn), rangefn))
        assert not report.verdicts["isometry_operator"] and not report.verdicts["isometry_fibers"]
        assert not report.verdicts["isometry_agree"] and not report.verdicts["rank_agree"]
        assert not report.passed
        assert report.values["fiber_ranks"] is None and report.values["rank_fiber_sum"] is None
        assert np.isnan(report.residuals["isometry_fibers"])

    def test_nan_basis_fails(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        u = np.eye(4, dtype=complex)
        field = extract_range_operator(f1_ctx, u, rangefn)
        bases = [fb.copy() for fb in rangefn.bases]
        bases[0][0, 0] = np.nan
        nan_rangefn = RangeFunction(tuple(bases))
        # the operator side fails closed on the NaN basis: its frame check cannot pass
        with pytest.raises(ValueError, match="Parseval"):
            operator_summary(f1_ctx, u, space_from_range(f1_ctx, nan_rangefn), full_space_frame(f1_ctx))
        op, _ = summaries(f1_ctx, u, field, rangefn)
        report = structural_flags(op, fiber_summary(field, nan_rangefn))
        assert not report.passed and not report.verdicts["rank_agree"]
        assert report.values["rank_operator"] is None

    def test_translation_is_isometry_with_unimodular_fibers(self, f1_ctx):
        rangefn = full_range_function(f1_ctx)
        u = translation_matrix(f1_ctx.group, (2,)).astype(complex)
        field = extract_range_operator(f1_ctx, u, rangefn)
        report = structural_flags(*summaries(f1_ctx, u, field, rangefn))
        assert report.passed
        assert report.verdicts["isometry_operator"] and report.verdicts["isometry_fibers"]

    def test_difference_operator_selfadjoint(self, f1_ctx):
        u = diff_operator(f1_ctx, (2,))
        # matrix conjugate-transpose oracle: -2 = 2 mod 4 makes U equal U*
        assert np.abs(u - u.conj().T).max() == 0.0
        rangefn = full_range_function(f1_ctx)
        field = extract_range_operator(f1_ctx, u, rangefn)
        report = structural_flags(*summaries(f1_ctx, u, field, rangefn))
        assert report.passed
        assert report.verdicts["selfadjoint_operator"] and report.verdicts["selfadjoint_fibers"]

    def test_projection_rank_splits_over_fibers(self, f1_ctx):
        sub = range_function(f1_ctx, [delta(f1_ctx.group, (0,))])
        basis = space_from_range(f1_ctx, sub)
        u = basis @ basis.conj().T
        rangefn = full_range_function(f1_ctx)
        field = extract_range_operator(f1_ctx, u, rangefn)
        report = structural_flags(*summaries(f1_ctx, u, field, rangefn))
        assert report.values["rank_operator"] == 2
        assert report.values["fiber_ranks"] == [1, 1]
        assert report.verdicts["rank_agree"]

    def test_biconditionals_both_directions(self, f2_ctx):
        rng = np.random.default_rng(57)
        rangefn = full_range_function(f2_ctx)
        nc, nw = f2_ctx.n_c, f2_ctx.n_omega
        # positive case: unitary fibers; negative case: one stretched fiber
        unitaries = []
        for _ in range(nw):
            q, _ = np.linalg.qr(rand_signal(rng, nc * nc).reshape(nc, nc))
            unitaries.append(q)
        good = RangeOperatorField(tuple(unitaries))
        bad = RangeOperatorField(tuple([2.0 * unitaries[0]] + unitaries[1:]))
        for field_in, expected in ((good, True), (bad, False)):
            u = synthesize_operator(f2_ctx, field_in, rangefn)
            field = extract_range_operator(f2_ctx, u, rangefn)
            report = structural_flags(*summaries(f2_ctx, u, field, rangefn))
            assert report.verdicts["isometry_operator"] is expected
            assert report.verdicts["isometry_fibers"] is expected
            assert report.verdicts["isometry_agree"]

    def test_adjoint_covariance(self, ctx):
        # the field of U* is the fiberwise adjoint when U maps the space to itself
        rng = np.random.default_rng(58)
        rangefn = full_range_function(ctx)
        field = rand_field(rng, ctx, rangefn)
        u = synthesize_operator(ctx, field, rangefn)
        adj_field = extract_range_operator(ctx, u.conj().T, rangefn)
        for a, b in zip(adj_field.matrices, field.matrices):
            assert np.abs(a - b.conj().T).max() <= 1e-9

    def test_adjoint_covariance_on_proper_subspace(self, ctx):
        # same statement with a space-into-itself field on a proper range function
        rng = np.random.default_rng(62)
        sub = range_function(ctx, [rand_signal(rng, ctx.group.size)])
        mats = []
        for basis in sub.bases:
            d = basis.shape[1]
            m = rand_signal(rng, d * d).reshape(d, d) if d else np.zeros((0, 0))
            mats.append(basis @ m @ basis.conj().T)
        field = RangeOperatorField(tuple(mats))
        u = synthesize_operator(ctx, field, sub)
        adj_field = extract_range_operator(ctx, u.conj().T, sub)
        for a, b in zip(adj_field.matrices, field.matrices):
            assert np.abs(a - b.conj().T).max() <= 1e-9


def same_summary(a, b) -> bool:
    """Every field of two summaries equal, NaN matching NaN."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True) for f in dataclasses.fields(a)
    )


class TestSummaries:
    def test_each_summary_reads_only_its_own_side(self, f2_ctx):
        # the signatures keep the two routes apart: no field reaches the
        # operator summary and no operator reaches the fiber summary
        assert list(inspect.signature(operator_summary).parameters) == ["ctx", "u", "basis", "frame"]
        assert list(inspect.signature(fiber_summary).parameters) == ["field", "rangefn"]
        rng = np.random.default_rng(63)
        rangefn = full_range_function(f2_ctx)
        u = rand_tp_operator(rng, f2_ctx)
        field = extract_range_operator(f2_ctx, u, rangefn)
        basis = space_from_range(f2_ctx, rangefn)
        frame = full_space_frame(f2_ctx)
        op, fib = operator_summary(f2_ctx, u, basis, frame), fiber_summary(field, rangefn)

        mats = [mat.copy() for mat in field.matrices]
        mats[1][0, 1] += 1.0
        corrupted = fiber_summary(RangeOperatorField(tuple(mats)), rangefn)
        assert not same_summary(corrupted, fib)
        assert corrupted.norms[0] == fib.norms[0] and corrupted.norms[1] != fib.norms[1]
        assert same_summary(operator_summary(f2_ctx, u, basis, frame), op)
        assert not norm_identity_report(op, corrupted).passed

        moved = operator_summary(f2_ctx, u + np.eye(f2_ctx.group.size), basis, frame)
        assert not same_summary(moved, op)
        assert same_summary(fiber_summary(field, rangefn), fib)
        assert not hs_trace_report(moved, fib).passed

    @pytest.mark.parametrize("hermitian", [False, True], ids=["general", "hermitian-psd"])
    def test_pipeline_takes_each_dense_kernel_once(self, monkeypatch, hermitian):
        g = make_group([64])
        ctx = fiber_context(g, subgroup_from_generators(g, [(8,)]))
        n = g.size
        w = rand_tp_operator(np.random.default_rng(64), ctx)
        u = w.conj().T @ w if hermitian else w
        shapes, eigvalsh_calls, basis_builds = [], [], []
        svd, norm, eigvalsh = np.linalg.svd, np.linalg.norm, np.linalg.eigvalsh

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2:  # the spectral norm is an SVD numpy makes internally
                shapes.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        def counting_eigvalsh(a, *args, **kwargs):
            eigvalsh_calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        for module in (cli, operators):
            build = module.space_from_range
            monkeypatch.setattr(module, "space_from_range", lambda *a, build=build: basis_builds.append(1) or build(*a))

        body, ok, _ = cli._pipeline(ctx, u, cli.RunConfig())
        assert ok and (body["hs_trace"]["skipped"] == []) is hermitian
        assert shapes.count((n, n)) == 1
        assert eigvalsh_calls == [(n, n)]
        assert len(basis_builds) <= 2


class TestMultiplicationPreserving:
    def test_block_diagonal_passes_both_modes(self, f1_ctx):
        rng = np.random.default_rng(59)
        field = rand_field(rng, f1_ctx, full_range_function(f1_ctx))
        uhat = np.zeros((4, 4), dtype=complex)
        uhat[:2, :2] = field.matrices[0]
        uhat[2:, 2:] = field.matrices[1]
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

    @pytest.mark.parametrize("mode", ["determining-set", "full"])
    def test_nan_operator_fails(self, f1_ctx, mode):
        assert not multiplication_preserving_check(f1_ctx, np.full((4, 4), np.nan, dtype=complex), mode=mode)

    def test_shape_and_mode_errors(self, f1_ctx):
        with pytest.raises(ValueError):
            multiplication_preserving_check(f1_ctx, np.eye(3))
        with pytest.raises(ValueError):
            multiplication_preserving_check(f1_ctx, np.eye(4), mode="sideways")
