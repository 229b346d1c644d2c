"""Fiberization: isometry, intertwining, inversion, determining functions."""

import numpy as np
import pytest

from zakfiber import fiberization
from zakfiber import (
    annihilator,
    determining_function,
    fiber_context,
    make_group,
    pairing,
    subgroup_from_generators,
    translate,
    zak,
    zak_inverse,
    zak_matrix,
)

from conftest import battery_contexts, delta, rand_signal


def zak_oracle(ctx, f):
    """Direct summation, independent of the library's table-based path."""
    g = ctx.group
    out = np.zeros((ctx.n_omega, ctx.n_c), dtype=complex)
    for wi, w in enumerate(ctx.omega):
        for ci, c in enumerate(ctx.c_section):
            acc = 0.0 + 0.0j
            for t in ctx.gamma.elements:
                acc += f[g.index(g.add(c, t))] * pairing(g, t, w)
            out[wi, ci] = acc / np.sqrt(ctx.gamma.size)
    return out


def zak_inverse_oracle(ctx, fibers):
    """Direct inversion formula, summing the conjugate characters."""
    g = ctx.group
    out = np.zeros(g.size, dtype=complex)
    for ci, c in enumerate(ctx.c_section):
        for t in ctx.gamma.elements:
            acc = 0.0 + 0.0j
            for wi, w in enumerate(ctx.omega):
                acc += fibers[wi, ci] * np.conj(pairing(g, t, w))
            out[g.index(g.add(c, t))] = acc / np.sqrt(ctx.gamma.size)
    return out


class TestFiberContext:
    def test_index_two_subgroup_sizes(self, f1_ctx):
        assert (f1_ctx.n_omega, f1_ctx.n_c) == (2, 2)
        assert annihilator(f1_ctx.group, f1_ctx.gamma).elements.tolist() == [[0], [2]]

    def test_trivial_subgroup_degenerates(self):
        g = make_group([4])
        ctx = fiber_context(g, subgroup_from_generators(g, []))
        assert (ctx.n_omega, ctx.n_c) == (1, 4)

    def test_full_subgroup_is_fourier(self):
        g = make_group([4])
        ctx = fiber_context(g, subgroup_from_generators(g, [(1,)]))
        assert (ctx.n_omega, ctx.n_c) == (4, 1)

    def test_counting_identity(self, ctx):
        assert ctx.n_omega == ctx.gamma.size
        assert ctx.n_omega * ctx.n_c == ctx.group.size

    def test_phase_table_matches_pairing(self, ctx):
        g = ctx.group
        expected = [[pairing(g, t, w) for t in ctx.gamma.elements] for w in ctx.omega]
        assert np.abs(ctx._phase - np.array(expected)).max() <= 1e-12

    def test_broken_omega_transversal_is_rejected(self, monkeypatch):
        g = make_group([8])
        gamma = subgroup_from_generators(g, [(2,)])
        real = fiberization.transversal

        def broken(g, h):
            tr = real(g, h)
            if h == gamma:
                return tr
            # (4,) is in the annihilator coset of (0,): Gamma sees the same character twice
            return np.concatenate([tr[:-1], [(4,)]])

        monkeypatch.setattr(fiberization, "transversal", broken)
        with pytest.raises(RuntimeError, match="section"):
            fiber_context(g, gamma)


class TestZak:
    def test_matches_direct_summation(self, ctx):
        rng = np.random.default_rng(11)
        for _ in range(3):
            f = rand_signal(rng, ctx.group.size)
            assert np.allclose(zak(ctx, f), zak_oracle(ctx, f), atol=1e-12)
        # a (|G|, k) batch, column by column against the oracle and against
        # the transform of each column alone
        batch = rand_signal(rng, 3 * ctx.group.size).reshape(ctx.group.size, 3)
        fibered = zak(ctx, batch)
        assert fibered.shape == ctx.fiber_shape() + (3,)
        for j in range(3):
            assert np.allclose(fibered[..., j], zak_oracle(ctx, batch[:, j]), atol=1e-12)
            assert np.array_equal(fibered[..., j], zak(ctx, batch[:, j]))

    def test_delta_fibers(self, f1_ctx):
        fibers = zak(f1_ctx, delta(f1_ctx.group, (0,)))
        expected = np.array([[1 / np.sqrt(2), 0.0], [1 / np.sqrt(2), 0.0]])
        assert np.allclose(fibers, expected, atol=1e-12)

    def test_trivial_subgroup_is_reindexing(self):
        g = make_group([4])
        ctx = fiber_context(g, subgroup_from_generators(g, []))
        rng = np.random.default_rng(4)
        f = rand_signal(rng, 4)
        assert np.allclose(zak(ctx, f)[0], f, atol=1e-14)

    def test_zero_signal(self, f1_ctx):
        assert np.array_equal(zak(f1_ctx, np.zeros(4)), np.zeros((2, 2)))

    def test_length_mismatch(self, f1_ctx):
        with pytest.raises(ValueError):
            zak(f1_ctx, np.zeros(5))

    def test_isometry(self, ctx):
        rng = np.random.default_rng(21)
        for _ in range(10):
            f = rand_signal(rng, ctx.group.size)
            assert abs(np.linalg.norm(zak(ctx, f)) - np.linalg.norm(f)) <= 1e-10 * np.linalg.norm(f)

    def test_intertwining(self, ctx):
        rng = np.random.default_rng(22)
        f = rand_signal(rng, ctx.group.size)
        fibers = zak(ctx, f)
        for t in ctx.gamma.elements:
            lhs = zak(ctx, translate(ctx.group, f, t))
            rhs = determining_function(ctx, t)[:, None] * fibers
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_linearity(self, f1_ctx):
        rng = np.random.default_rng(23)
        f, g_ = rand_signal(rng, 4), rand_signal(rng, 4)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = zak(f1_ctx, a * f + b * g_)
        rhs = a * zak(f1_ctx, f) + b * zak(f1_ctx, g_)
        assert np.abs(lhs - rhs).max() <= 1e-10


class TestZakInverse:
    def test_roundtrip_both_ways(self, ctx):
        rng = np.random.default_rng(31)
        for _ in range(100):
            f = rand_signal(rng, ctx.group.size)
            assert np.abs(zak_inverse(ctx, zak(ctx, f)) - f).max() <= 1e-10
            fibers = rand_signal(rng, ctx.group.size).reshape(ctx.fiber_shape())
            assert np.abs(zak(ctx, zak_inverse(ctx, fibers)) - fibers).max() <= 1e-10

    def test_inversion_formula_oracle(self, f1_ctx):
        fibers = zak(f1_ctx, delta(f1_ctx.group, (0,)))
        recovered = zak_inverse(f1_ctx, fibers)
        assert np.allclose(recovered, delta(f1_ctx.group, (0,)), atol=1e-12)
        assert np.allclose(recovered, zak_inverse_oracle(f1_ctx, fibers), atol=1e-12)
        rng = np.random.default_rng(12)
        batch = rand_signal(rng, 12).reshape(f1_ctx.fiber_shape() + (3,))
        signals = zak_inverse(f1_ctx, batch)
        assert signals.shape == (f1_ctx.group.size, 3)
        for j in range(3):
            assert np.allclose(signals[:, j], zak_inverse_oracle(f1_ctx, batch[..., j]), atol=1e-12)
            assert np.array_equal(signals[:, j], zak_inverse(f1_ctx, batch[..., j]))

    def test_zero_fibers(self, f1_ctx):
        assert np.array_equal(zak_inverse(f1_ctx, np.zeros((2, 2))), np.zeros(4))

    def test_shape_mismatch(self, f1_ctx):
        with pytest.raises(ValueError):
            zak_inverse(f1_ctx, np.zeros((3, 2)))

    def test_matrix_is_unitary_and_consistent(self, ctx):
        zmat = zak_matrix(ctx)
        n = ctx.group.size
        assert np.abs(zmat @ zmat.conj().T - np.eye(n)).max() <= 1e-12
        rng = np.random.default_rng(32)
        f = rand_signal(rng, n)
        assert np.allclose((zmat @ f).reshape(ctx.fiber_shape()), zak(ctx, f), atol=1e-12)


class TestDeterminingFunctions:
    def test_identity_character_is_constant(self, f1_ctx):
        assert np.allclose(determining_function(f1_ctx, (0,)), np.ones(2))

    def test_half_turn_values(self, f1_ctx):
        assert np.allclose(determining_function(f1_ctx, (2,)), [1.0, -1.0], atol=1e-12)

    def test_z8_fourth_roots(self, f2_ctx):
        values = determining_function(f2_ctx, (2,))
        assert np.allclose(values, [1.0, 1j, -1.0, -1j], atol=1e-12)

    def test_rejects_non_member(self, f1_ctx):
        with pytest.raises(ValueError):
            determining_function(f1_ctx, (1,))

    def test_characters_span_functions_on_omega(self, ctx):
        chars = np.column_stack(
            [determining_function(ctx, t) for t in ctx.gamma.elements]
        )
        gram = chars @ chars.conj().T
        assert np.abs(gram - ctx.gamma.size * np.eye(ctx.n_omega)).max() <= 1e-9
        assert np.linalg.matrix_rank(chars) == ctx.n_omega


def test_battery_covers_required_orders():
    sizes = {c.group.size for _, c in battery_contexts()}
    assert {4, 8, 12, 16} <= sizes
