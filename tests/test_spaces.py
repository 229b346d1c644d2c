"""Range functions: construction, membership, projections, decomposition."""

import inspect

import numpy as np
import pytest

import zakfiber
from zakfiber import (
    VerificationError,
    check_field_identity,
    check_translation_preserving,
    determining_function,
    extract_range_operator,
    fiber_summary,
    is_translation_invariant,
    multiplication_preserving_check,
    principal_decomposition,
    range_function,
    solve_range_field,
    space_from_range,
    synthesize_operator,
    translate,
    translate_parseval_frame,
    zak,
    zak_inverse,
    zak_matrix,
)

from conftest import delta, failed_verdict, full_range, rand_signal, rand_tp_operator


def projection_of(basis):
    return basis @ basis.conj().T


def project_via_fibers(ctx, rangefn, f):
    """Z* P Z f with P the range function's projection on each fiber: the
    fiber-side route to the projection onto the space of the range function."""
    return zak_inverse(ctx, (rangefn @ zak(ctx, f)[..., None])[..., 0])


def fiber_dims(rangefn):
    """The dimension of each fiber of a range function, the trace of its projection."""
    return np.rint(np.trace(rangefn, axis1=1, axis2=2).real).astype(int).tolist()


class TestRangeFunction:
    def test_single_delta_generator(self, f1_ctx):
        rangefn = range_function(f1_ctx, delta(f1_ctx.group, (0,))[:, None])
        assert rangefn.shape == (2, 2, 2)
        assert fiber_dims(rangefn) == [1, 1]
        # zak(delta_0) points along the first coordinate axis in every fiber
        assert np.allclose(rangefn, [[1, 0], [0, 0]], atol=1e-12)

    def test_empty_generators(self, f1_ctx):
        rangefn = range_function(f1_ctx, np.zeros((4, 0)))
        assert rangefn.shape == (2, 2, 2) and not rangefn.any()

    def test_all_deltas_fill_every_fiber(self, ctx):
        gens = np.column_stack([delta(ctx.group, x) for x in ctx.group.elements()])
        rangefn = range_function(ctx, gens)
        assert fiber_dims(rangefn) == [ctx.n_c] * ctx.n_omega
        assert np.abs(rangefn - np.eye(ctx.n_c)).max() <= 1e-10

    def test_fibers_are_orthogonal_projections(self, ctx):
        rng = np.random.default_rng(41)
        gens = np.column_stack([rand_signal(rng, ctx.group.size) for _ in range(2)])
        rangefn = range_function(ctx, gens)
        assert np.abs(rangefn @ rangefn - rangefn).max() <= 1e-10
        assert np.abs(rangefn - rangefn.conj().swapaxes(1, 2)).max() <= 1e-12


def per_fiber_spans(stacked):
    # one SVD per fiber: the left singular directions above the rank cut,
    # each rotated so its largest-modulus entry is real positive
    spans = []
    for mat in stacked:
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
        u = u[:, : int(np.sum(s > 1e-9 * max(1.0, float(s[0]))))]
        pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        spans.append(u * (pivots.conj() / np.abs(pivots)))
    return spans


class TestStackedSpans:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_range_function_matches_per_fiber_svd(self, ctx, k):
        rng = np.random.default_rng(48)
        gens = np.stack([rand_signal(rng, ctx.group.size) for _ in range(k)], axis=1)
        rangefn = range_function(ctx, gens)
        spans = per_fiber_spans(zak(ctx, gens))
        assert len(spans) == len(rangefn)
        for got, span in zip(rangefn, spans):
            assert np.abs(got - projection_of(span)).max() <= 1e-12

    def test_principal_generators_match_per_fiber_svd(self, ctx):
        rng = np.random.default_rng(49)
        gens = np.column_stack([rand_signal(rng, ctx.group.size) for _ in range(2)])
        basis = space_from_range(ctx, range_function(ctx, gens))
        spans = per_fiber_spans(zak(ctx, basis))
        fibers = np.zeros(ctx.fiber_shape() + (max(s.shape[1] for s in spans),), dtype=complex)
        for wi, span in enumerate(spans):
            fibers[wi, :, : span.shape[1]] = span
        generators = principal_decomposition(ctx, basis)
        assert np.array_equal(generators, zak_inverse(ctx, fibers))


class TestSpaceFromRange:
    def test_zero_range(self, f1_ctx):
        basis = space_from_range(f1_ctx, range_function(f1_ctx, np.zeros((4, 0))))
        assert basis.shape == (4, 0)

    def test_full_range_recovers_everything(self, ctx):
        basis = space_from_range(ctx, full_range(ctx))
        n = ctx.group.size
        assert basis.shape == (n, n)
        assert np.abs(projection_of(basis) - np.eye(n)).max() <= 1e-10

    def test_columns_are_orthonormal_and_one_fiber_each_by_omega(self, ctx):
        rng = np.random.default_rng(40)
        gens = np.column_stack([rand_signal(rng, ctx.group.size) for _ in range(2)])
        rangefn = range_function(ctx, gens)
        basis = space_from_range(ctx, rangefn)
        assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() <= 1e-10
        live = np.linalg.norm(zak(ctx, basis), axis=1) > 1e-9  # (|Omega|, dim V)
        assert (live.sum(axis=0) == 1).all()
        omegas = np.argmax(live, axis=0)
        assert (np.diff(omegas) >= 0).all()
        assert np.bincount(omegas, minlength=ctx.n_omega).tolist() == fiber_dims(rangefn)

    def test_delta_generator_spans_its_translates(self, f1_ctx):
        # brute-force span of the translates of delta_0
        g = f1_ctx.group
        translates = np.column_stack(
            [translate(g, delta(g, (0,)), t) for t in f1_ctx.gamma.elements]
        )
        q, _ = np.linalg.qr(translates)
        rangefn = range_function(f1_ctx, delta(g, (0,))[:, None])
        basis = space_from_range(f1_ctx, rangefn)
        assert basis.shape[1] == 2
        assert np.abs(projection_of(basis) - projection_of(q)).max() <= 1e-10

    def test_dimension_formula(self, ctx):
        rng = np.random.default_rng(42)
        gens = rand_signal(rng, ctx.group.size)[:, None]
        rangefn = range_function(ctx, gens)
        basis = space_from_range(ctx, rangefn)
        assert basis.shape[1] == sum(fiber_dims(rangefn))

    def test_correspondence_roundtrip(self, ctx):
        rng = np.random.default_rng(43)
        for n_gens in (1, 2):
            gens = np.column_stack([rand_signal(rng, ctx.group.size) for _ in range(n_gens)])
            rangefn = range_function(ctx, gens)
            basis = space_from_range(ctx, rangefn)
            assert np.abs(rangefn - range_function(ctx, basis)).max() <= 1e-9


def translate_span(ctx, gens):
    """Orthonormal basis of the span of every Gamma-translate of the
    generators, read from the translates by an SVD, with no transform."""
    translates = np.concatenate([translate(ctx.group, gens, t) for t in ctx.gamma.elements], axis=1)
    u, s, _ = np.linalg.svd(translates, full_matrices=False)
    return u[:, s > 1e-9 * s[0]]


class TestRangeFunctionIdentity:
    """The correspondence on an invariant space V: the orthogonal projection
    onto V has the range operator omega -> P_J(omega), the projection onto
    V's range function J, and J gives V back."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_projection_onto_the_space_has_the_range_function_as_its_field(self, ctx, k):
        rng = np.random.default_rng(70 + k)
        gens = np.column_stack([rand_signal(rng, ctx.group.size) for _ in range(k)])
        q = translate_span(ctx, gens)
        rangefn = range_function(ctx, gens)
        assert np.abs(extract_range_operator(ctx, q @ q.conj().T) - rangefn).max() <= 1e-9
        assert np.abs(projection_of(space_from_range(ctx, rangefn)) - q @ q.conj().T).max() <= 1e-9

    def test_inverse_of_the_unit_fibers_is_the_adjoint_of_the_zak_matrix(self, ctx):
        # the Zak basis Z*, built by zak_inverse, is bit-identical to the
        # oracle's adjoint, which the tests use in its place
        n = ctx.group.size
        basis = zak_inverse(ctx, np.eye(n, dtype=complex).reshape(ctx.fiber_shape() + (n,)))
        assert np.array_equal(basis, zak_matrix(ctx).conj().T)


class TestProjectViaFibers:
    def test_members_are_fixed(self, f1_ctx):
        rangefn = range_function(f1_ctx, delta(f1_ctx.group, (0,))[:, None])
        member = delta(f1_ctx.group, (2,))  # a translate of the generator
        assert np.abs(project_via_fibers(f1_ctx, rangefn, member) - member).max() <= 1e-10

    def test_orthogonal_vectors_vanish(self, f1_ctx):
        rangefn = range_function(f1_ctx, delta(f1_ctx.group, (0,))[:, None])
        assert np.abs(project_via_fibers(f1_ctx, rangefn, delta(f1_ctx.group, (1,)))).max() <= 1e-10

    def test_matches_dense_projection_oracle(self, ctx):
        rng = np.random.default_rng(44)
        gens = rand_signal(rng, ctx.group.size)[:, None]
        rangefn = range_function(ctx, gens)
        basis = space_from_range(ctx, rangefn)
        for _ in range(5):
            f = rand_signal(rng, ctx.group.size)
            expected = projection_of(basis) @ f
            assert np.abs(project_via_fibers(ctx, rangefn, f) - expected).max() <= 1e-9


class TestInvariance:
    def test_translate_span_is_invariant(self, f1_ctx):
        g = f1_ctx.group
        basis = np.column_stack([delta(g, (0,)), delta(g, (2,))])
        assert is_translation_invariant(f1_ctx, basis)

    def test_single_delta_is_not(self, f1_ctx):
        verdict = is_translation_invariant(f1_ctx, delta(f1_ctx.group, (0,)).reshape(-1, 1))
        assert not verdict
        assert verdict.witness[0] == (2,)
        assert verdict.witness[1] == 0

    def test_whole_space_is_invariant(self, ctx):
        assert is_translation_invariant(ctx, np.eye(ctx.group.size, dtype=complex))

    def test_nan_basis_fails(self, f1_ctx):
        basis = np.eye(4, dtype=complex)
        basis[1, 1] = np.nan
        verdict = is_translation_invariant(f1_ctx, basis)
        assert not verdict
        assert np.isnan(verdict.residual)

    def test_multiplicative_invariance_transfer(self, f1_ctx):
        # invariant direction: multiplying fibers by any character keeps membership
        rangefn = range_function(f1_ctx, delta(f1_ctx.group, (0,))[:, None])
        basis = space_from_range(f1_ctx, rangefn)
        proj = projection_of(basis)
        for t in f1_ctx.gamma.elements:
            for j in range(basis.shape[1]):
                fibers = determining_function(f1_ctx, t)[:, None] * zak(f1_ctx, basis[:, j])
                v = zak_inverse(f1_ctx, fibers)
                assert np.abs(proj @ v - v).max() <= 1e-10
        # non-invariant direction: the same closure fails for span{delta_0}
        single = delta(f1_ctx.group, (0,)).reshape(-1, 1)
        proj_single = projection_of(single)
        leaks = 0.0
        for t in f1_ctx.gamma.elements:
            fibers = determining_function(f1_ctx, t)[:, None] * zak(f1_ctx, single[:, 0])
            v = zak_inverse(f1_ctx, fibers)
            leaks = max(leaks, float(np.abs(proj_single @ v - v).max()))
        assert leaks > 0.4


class TestPrincipalDecomposition:
    def test_full_space_f1(self, f1_ctx):
        generators = principal_decomposition(f1_ctx, np.eye(4, dtype=complex))
        assert generators.shape == (4, 2)
        for phi in generators.T:
            norms = np.linalg.norm(zak(f1_ctx, phi), axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-9

    def test_singly_generated_space(self, f1_ctx):
        rangefn = range_function(f1_ctx, delta(f1_ctx.group, (0,))[:, None])
        basis = space_from_range(f1_ctx, rangefn)
        generators = principal_decomposition(f1_ctx, basis)
        assert generators.shape == (4, 1)
        fibers = zak(f1_ctx, generators[:, 0])
        reference = zak(f1_ctx, delta(f1_ctx.group, (0,)))
        for wi in range(2):
            ref = reference[wi] / np.linalg.norm(reference[wi])
            overlap = abs(np.vdot(ref, fibers[wi]))
            assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_zero_space(self, f1_ctx):
        assert principal_decomposition(f1_ctx, np.zeros((4, 0), dtype=complex)).shape == (4, 0)

    def test_rejects_non_invariant(self, f1_ctx):
        basis = delta(f1_ctx.group, (0,)).reshape(-1, 1)
        with pytest.raises(VerificationError) as excinfo:
            principal_decomposition(f1_ctx, basis)
        verdict = failed_verdict(excinfo, "translation_invariant")
        assert verdict == is_translation_invariant(f1_ctx, basis) and verdict.witness == ((2,), 0)

    def test_structural_properties(self, ctx):
        rng = np.random.default_rng(45)
        gens = np.column_stack([rand_signal(rng, ctx.group.size) for _ in range(2)])
        rangefn = range_function(ctx, gens)
        basis = space_from_range(ctx, rangefn)
        generators = principal_decomposition(ctx, basis)
        fibered = [zak(ctx, phi) for phi in generators.T]

        # unit-or-zero fiber norms, support count matches dim V
        support = 0
        for fibers in fibered:
            norms = np.linalg.norm(fibers, axis=1)
            assert np.all((norms <= 1e-9) | (np.abs(norms - 1) <= 1e-9))
            support += int(np.sum(norms > 1e-9))
        assert support == basis.shape[1]

        # per-omega the nonzero fibers are orthonormal
        for wi in range(ctx.n_omega):
            live = [f[wi] for f in fibered if np.linalg.norm(f[wi]) > 1e-9]
            if live:
                mat = np.column_stack(live)
                gram = mat.conj().T @ mat
                assert np.abs(gram - np.eye(len(live))).max() <= 1e-9

        # the translate families of distinct generators are orthogonal, and
        # the component spaces sum to V
        g = ctx.group
        total = np.zeros((g.size, g.size), dtype=complex)
        for m, phi_m in enumerate(generators.T):
            comp = range_function(ctx, phi_m[:, None])
            comp_basis = space_from_range(ctx, comp)
            total += projection_of(comp_basis)
            for n in range(m + 1, generators.shape[1]):
                for s in ctx.gamma.elements:
                    for t in ctx.gamma.elements:
                        ip = np.vdot(translate(g, generators[:, n], t), translate(g, phi_m, s))
                        assert abs(ip) <= 1e-9
        assert np.abs(total - projection_of(basis)).max() <= 1e-9


class TestParseval:
    def test_unit_fiber_generator_passes_and_is_tight(self, f1_ctx):
        generators = principal_decomposition(f1_ctx, np.eye(4, dtype=complex))
        phi = generators[:, 0]
        assert np.allclose(np.linalg.norm(zak(f1_ctx, phi), axis=1), 1.0)
        # brute-force tightness of the scaled translate family on S(phi)
        rng = np.random.default_rng(46)
        comp_basis = space_from_range(f1_ctx, range_function(f1_ctx, phi[:, None]))
        proj = projection_of(comp_basis)
        frame = translate_parseval_frame(f1_ctx, phi[:, None])
        for _ in range(10):
            f = rand_signal(rng, 4)
            total = sum(abs(np.vdot(y, f)) ** 2 for y in frame.T)
            assert total == pytest.approx(np.linalg.norm(proj @ f) ** 2, abs=1e-9)

    def test_delta_fails_fiber_norm_gate(self, f1_ctx):
        # fiber norms are 1/sqrt(2), not 1, so the scaled translates of the
        # delta fall short of a Parseval frame: the frame operator is half
        # the projection onto the space
        phi = delta(f1_ctx.group, (0,))
        assert np.allclose(np.linalg.norm(zak(f1_ctx, phi), axis=1), 1 / np.sqrt(2))
        basis = space_from_range(f1_ctx, range_function(f1_ctx, phi[:, None]))
        frame = translate_parseval_frame(f1_ctx, phi[:, None])
        assert np.abs(frame @ frame.conj().T - projection_of(basis) / 2).max() <= 1e-12
        assert np.abs(frame @ frame.conj().T - projection_of(basis)).max() >= 0.25

    def test_frame_operator_is_projection(self, ctx):
        rng = np.random.default_rng(47)
        gens = rand_signal(rng, ctx.group.size)[:, None]
        basis = space_from_range(ctx, range_function(ctx, gens))
        generators = principal_decomposition(ctx, basis)
        frame = translate_parseval_frame(ctx, generators)
        frame_op = sum(np.outer(y, y.conj()) for y in frame.T)
        assert np.abs(frame_op - projection_of(basis)).max() <= 1e-9


class TestFullSpaceFrame:
    """On the full space the principal generators may be taken as
    sqrt|Gamma| delta_c, c in C: the closed form the CLI uses, checked
    against the general construction."""

    def test_closed_form_fibers_and_translates(self, ctx):
        g = ctx.group
        generators = np.sqrt(ctx.gamma.size) * np.column_stack([delta(g, c) for c in ctx.c_section])
        # every fiber of the c-th generator is e_c
        assert np.abs(zak(ctx, generators) - np.eye(ctx.n_c)).max() <= 1e-15
        frame = translate_parseval_frame(ctx, generators)
        assert np.abs(frame - np.eye(g.size)[:, ctx._coset_plus.ravel()]).max() <= 1e-15

    @pytest.mark.parametrize("hermitian", [False, True], ids=["commuting", "hermitian-psd"])
    def test_standard_basis_gives_the_computed_frame_values(self, ctx, hermitian):
        # the computed frame may be a rotation of the closed form where fiber
        # singular values are degenerate, so the values are compared, not the frames
        w = rand_tp_operator(np.random.default_rng(48), ctx)
        u = w.conj().T @ w if hermitian else w
        computed = translate_parseval_frame(ctx, principal_decomposition(ctx, zak_matrix(ctx).conj().T))
        closed = fiber_summary(u[None])
        images = u @ computed
        assert closed.hs_terms[0] == pytest.approx(np.linalg.norm(images) ** 2, rel=1e-12, abs=0)
        assert closed.trace_terms[0] == pytest.approx(np.vdot(computed, images), rel=1e-12, abs=0)


V = np.array([1, 2, 0.5, -1], dtype=complex)


def only_column_v():
    """The 4 x 4 matrix whose only nonzero column is V: read by rows it
    would be four multiples of delta_0."""
    mat = np.zeros((4, 4), dtype=complex)
    mat[:, 0] = V
    return mat


EYE = np.eye(4, dtype=complex)
# Bad values for each documented shape on Z4/<2> (|G| = 4, |Omega| = |C| = 2):
# a list, a wrong rank and a wrong axis length. The signal list holds the
# columns of only_column_v(), which a row-major reading would transpose.
BAD_SIGNALS = {"list": list(only_column_v().T), "rank": np.zeros((4, 2, 2)), "length": np.ones(3)}
BAD_FIBERS = {"list": [V.reshape(2, 2), np.zeros((2, 2))], "rank": V, "length": np.zeros((2, 3))}
BAD_FAMILIES = {"list": [V, V], "rank": V, "length": np.ones((3, 2), dtype=complex)}
BAD_OPERATORS = {"list": EYE.tolist(), "rank": V, "length": np.zeros((4, 3))}
BAD_FIELDS = {
    "list": [np.eye(2), np.eye(2)],
    "rank": np.zeros((2, 4)),
    "length": np.zeros((2, 2, 3)),
    "count": np.zeros((4, 2, 2)),
    "one-fiber": np.zeros((1, 2, 2)),  # would broadcast over both fibers
}
SIGNAL = r"signal must be a \(4,\) or \(4, k\) array"
FAMILY = r"must be a \(4, k\) array"
OPERATOR = r"operator must be a \(4, 4\) array"
# (function, parameter, call with every other argument valid, bad values, error)
ARRAY_ARGUMENTS = [
    ("translate", "f", lambda ctx, bad: translate(ctx.group, bad, (1,)), BAD_SIGNALS, SIGNAL),
    ("zak", "f", zak, BAD_SIGNALS, SIGNAL),
    ("zak_inverse", "fibers", zak_inverse, BAD_FIBERS, r"fibers must be a \(2, 2\) or \(2, 2, k\) array"),
    ("range_function", "generators", range_function, BAD_FAMILIES, FAMILY),
    ("space_from_range", "rangefn", space_from_range, BAD_FIELDS, r"range function must be a \(2, 2, 2\) array"),
    ("translate_parseval_frame", "generators", translate_parseval_frame, BAD_FAMILIES, FAMILY),
    ("is_translation_invariant", "basis", is_translation_invariant, BAD_FAMILIES, FAMILY),
    ("principal_decomposition", "basis", principal_decomposition, BAD_FAMILIES, FAMILY),
    ("check_translation_preserving", "u", check_translation_preserving, BAD_OPERATORS, OPERATOR),
    ("extract_range_operator", "u", extract_range_operator, BAD_OPERATORS, OPERATOR),
    ("solve_range_field", "u", solve_range_field, BAD_OPERATORS, OPERATOR),
    ("check_field_identity", "u", lambda ctx, bad: check_field_identity(ctx, bad, np.zeros((2, 2, 2))),
     BAD_OPERATORS, OPERATOR),
    ("check_field_identity", "field", lambda ctx, bad: check_field_identity(ctx, EYE, bad), BAD_FIELDS,
     r"field must be a \(2, 2, 2\) array"),
    ("synthesize_operator", "field", synthesize_operator, BAD_FIELDS, r"field must be a \(2, 2, 2\) array"),
    # without a context the last axis gives the shape: k square fiber matrices
    ("fiber_summary", "field", lambda ctx, bad: fiber_summary(bad),
     {"list": BAD_FIELDS["list"], "rank": BAD_FIELDS["rank"]}, r"field must be a \(k, k, k\) array"),
    ("fiber_summary", "field", lambda ctx, bad: fiber_summary(bad),
     {"length": BAD_FIELDS["length"], "height": np.zeros((2, 3, 2))}, r"field must be a \(k, \d, \d\) array"),
    ("multiplication_preserving_check", "uhat", multiplication_preserving_check, BAD_OPERATORS,
     r"fibered operator must be a \(4, 4\) array"),
]
REJECTED = [
    pytest.param(call, bad, error, id=f"{name}-{param}-{kind}")
    for name, param, call, bads, error in ARRAY_ARGUMENTS
    for kind, bad in bads.items()
]
# the parameter names under which public functions take signals, families,
# fibered arrays, fields, range functions and operators
ARRAY_PARAMETERS = {"f", "fibers", "u", "uhat", "basis", "frame", "generators", "field", "rangefn"}


class TestFamilyFormat:
    """A family of signals is a (|G|, k) matrix with one signal per column,
    and every array argument is an ndarray of its documented shape."""

    def test_range_function_reads_columns(self, f1_ctx):
        g = f1_ctx.group
        rangefn = range_function(f1_ctx, only_column_v())
        single = range_function(f1_ctx, V[:, None])
        assert np.abs(rangefn - single).max() <= 1e-12
        q, _ = np.linalg.qr(np.column_stack([translate(g, V, t) for t in f1_ctx.gamma.elements]))
        basis = space_from_range(f1_ctx, rangefn)
        assert np.abs(projection_of(basis) - projection_of(q)).max() <= 1e-12

    def test_parseval_frame_reads_columns(self, f1_ctx):
        g = f1_ctx.group
        frame = translate_parseval_frame(f1_ctx, only_column_v())
        assert frame.shape == (4, 8)
        translates = np.column_stack([translate(g, V, t) for t in f1_ctx.gamma.elements]) / np.sqrt(2)
        assert np.array_equal(frame[:, :2], translates)
        assert not frame[:, 2:].any()

    @pytest.mark.parametrize("call, bad, error", REJECTED)
    def test_rejects_other_shapes(self, f1_ctx, call, bad, error):
        with pytest.raises(ValueError, match=error):
            call(f1_ctx, bad)

    def test_every_array_parameter_is_in_the_table(self):
        public = {
            (name, param)
            for name in zakfiber.__all__
            if inspect.isfunction(fn := getattr(zakfiber, name))
            for param in inspect.signature(fn).parameters
            if param in ARRAY_PARAMETERS
        }
        assert {(name, param) for name, param, *_ in ARRAY_ARGUMENTS} == public
        kinds = {}
        for name, param, _, bads, _ in ARRAY_ARGUMENTS:
            kinds.setdefault((name, param), set()).update(bads)
        assert all({"list", "rank", "length"} <= found for found in kinds.values())
