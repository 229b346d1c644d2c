"""Round trips and validation for the JSON wire formats."""

import json

import numpy as np
import pytest

from zakfiber import jsonio
from zakfiber import (
    fiber_context,
    full_range_function,
    make_group,
    range_function,
    subgroup_from_generators,
    zak,
)

from conftest import delta, rand_field, rand_signal


@pytest.fixture
def z8_ctx():
    g = make_group([8])
    return fiber_context(g, subgroup_from_generators(g, [(2,)]))


def test_group_spec_roundtrip():
    g = make_group([8])
    gamma = subgroup_from_generators(g, [(2,)])
    obj = jsonio.group_spec_to_json(g, gamma)
    assert obj == {"orders": [8], "gamma_generators": [[2]]}
    g2, gamma2 = jsonio.group_spec_from_json(obj)
    assert g2 == g and gamma2.elements == gamma.elements


def test_group_spec_defaults_to_trivial_subgroup():
    g, gamma = jsonio.group_spec_from_json({"orders": [4]})
    assert gamma.elements == ((0,),)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        {"orders": []},
        {"orders": [0]},
        {"orders": [4], "gamma_generators": "nope"},
        {"orders": [4], "gamma_generators": [[7]]},
    ],
)
def test_group_spec_rejects_malformed(obj):
    with pytest.raises(ValueError):
        jsonio.group_spec_from_json(obj)


def test_fibered_roundtrip(z8_ctx):
    rng = np.random.default_rng(70)
    fibers = zak(z8_ctx, rand_signal(rng, 8))
    obj = jsonio.fibered_to_json(z8_ctx, fibers)
    assert [tuple(w) for w in obj["omega_reps"]] == list(z8_ctx.omega.reps)
    back = jsonio.fibered_from_json(z8_ctx, obj)
    assert np.array_equal(back, fibers)
    with pytest.raises(ValueError):  # the wire format holds one vector, not a batch
        jsonio.fibered_to_json(z8_ctx, fibers[..., None])


def test_fibered_rejects_wrong_reps(z8_ctx):
    fibers = np.zeros(z8_ctx.fiber_shape(), dtype=complex)
    obj = jsonio.fibered_to_json(z8_ctx, fibers)
    obj["omega_reps"] = obj["omega_reps"][::-1]
    with pytest.raises(ValueError):
        jsonio.fibered_from_json(z8_ctx, obj)


def test_range_function_roundtrip(z8_ctx):
    rangefn = range_function(z8_ctx, [delta(z8_ctx.group, (0,))])
    obj = jsonio.range_function_to_json(rangefn)
    assert obj["dims"] == list(rangefn.dims)
    back = jsonio.range_function_from_json(z8_ctx, obj)
    for b1, b2 in zip(back.bases, rangefn.bases):
        assert np.allclose(b1, b2)


def test_range_function_rejects_nonorthonormal(z8_ctx):
    rangefn = full_range_function(z8_ctx)
    obj = jsonio.range_function_to_json(rangefn)
    obj["bases"][0][0][0] = [2.0, 0.0]  # stretch one basis vector
    with pytest.raises(ValueError):
        jsonio.range_function_from_json(z8_ctx, obj)


def test_range_function_rejects_nan_basis(z8_ctx):
    obj = jsonio.range_function_to_json(full_range_function(z8_ctx))
    obj["bases"][0][0][0] = [float("nan"), 0.0]
    with pytest.raises(ValueError):
        jsonio.range_function_from_json(z8_ctx, obj)


def test_operator_roundtrip(z8_ctx):
    rng = np.random.default_rng(71)
    u = rand_signal(rng, 64).reshape(8, 8)
    back = jsonio.operator_from_json(z8_ctx, jsonio.operator_to_json(u))
    assert np.array_equal(back, u)


def test_matrix_codec_keeps_the_pair_lists():
    # the per-entry encoding is the reference: the same lists, signed zeros included
    rng = np.random.default_rng(73)
    mat = rand_signal(rng, 12).reshape(3, 4)
    mat[0, 0] = complex(-0.0, -0.0)
    expected = [[jsonio.complex_to_pair(z) for z in row] for row in mat]
    rows = jsonio.matrix_to_json(mat)
    assert rows == expected
    back = jsonio.matrix_from_json(rows)
    assert np.array_equal(back, mat) and np.signbit(back[0, 0].real) and np.signbit(back[0, 0].imag)
    assert jsonio.matrix_from_json([[], []]).shape == (2, 0)


@pytest.mark.parametrize(
    "rows",
    [
        [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]],
        [[[1.0, 0.0, 0.0]]],
        [[1.0]],
        [[[None, 0.0]]],
        [[["1", 0.0]]],
        [[[[1.0], 0.0]]],
        "nope",
    ],
    ids=["ragged", "triple", "scalar", "null", "string", "nested", "not-a-list"],
)
def test_matrix_from_json_rejects_malformed(rows):
    with pytest.raises(ValueError):
        jsonio.matrix_from_json(rows)


def test_operator_rejects_wrong_shape(z8_ctx):
    with pytest.raises(ValueError):
        jsonio.operator_from_json(z8_ctx, {"matrix": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError):
        jsonio.operator_from_json(z8_ctx, {"wrong": []})


def test_field_roundtrip(z8_ctx):
    rng = np.random.default_rng(72)
    rangefn = full_range_function(z8_ctx)
    field = rand_field(rng, z8_ctx, rangefn)
    obj = jsonio.field_to_json(field, rangefn)
    back_field, back_rangefn = jsonio.field_from_json(z8_ctx, obj)
    assert back_rangefn.dims == rangefn.dims
    for a, b in zip(back_field.matrices, field.matrices):
        assert np.array_equal(a, b)


def _reload(obj):
    # json.dumps writes NaN and Infinity tokens, and json.loads reads them back
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_matrix_from_json_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        jsonio.matrix_from_json(_reload([[[1.0, value]]]))


def test_fibered_rejects_nan(z8_ctx):
    obj = jsonio.fibered_to_json(z8_ctx, zak(z8_ctx, delta(z8_ctx.group, (0,))))
    obj["fibers"][0][0] = [float("nan"), 0.0]
    with pytest.raises(ValueError, match="finite"):
        jsonio.fibered_from_json(z8_ctx, _reload(obj))


def test_field_rejects_nan(z8_ctx):
    rangefn = full_range_function(z8_ctx)
    obj = jsonio.field_to_json(rand_field(np.random.default_rng(74), z8_ctx, rangefn), rangefn)
    obj["matrices"][0][0][0] = [float("nan"), 0.0]
    with pytest.raises(ValueError, match="finite"):
        jsonio.field_from_json(z8_ctx, _reload(obj))


@pytest.mark.parametrize("key", ["matrices", "omega_reps", "c_reps"])
def test_readers_reject_a_non_list_of_lists(z8_ctx, key):
    # each key once raised TypeError from iterating an int
    rangefn = full_range_function(z8_ctx)
    field = jsonio.field_to_json(rand_field(np.random.default_rng(75), z8_ctx, rangefn), rangefn)
    fibered = jsonio.fibered_to_json(z8_ctx, zak(z8_ctx, delta(z8_ctx.group, (0,))))
    obj, reader = (field, jsonio.field_from_json) if key == "matrices" else (fibered, jsonio.fibered_from_json)
    for bad in (5, [5]):
        obj[key] = bad
        with pytest.raises(ValueError, match=key):
            reader(z8_ctx, obj)


def test_field_requires_matrices(z8_ctx):
    obj = jsonio.range_function_to_json(full_range_function(z8_ctx))
    with pytest.raises(ValueError):
        jsonio.field_from_json(z8_ctx, obj)


@pytest.mark.parametrize("dims", [[2.9, 1], [True, 1], [2, -1], "21"], ids=["float", "bool", "negative", "string"])
def test_range_function_dims_must_be_json_integers(z8_ctx, dims):
    # 2.9 and true once read as 2 and 1 through int()
    obj = jsonio.range_function_to_json(full_range_function(z8_ctx))
    obj["dims"] = dims
    with pytest.raises(ValueError, match="dims"):
        jsonio.range_function_from_json(z8_ctx, obj)


def test_range_function_needs_a_basis_per_fiber(z8_ctx):
    # zip() once dropped the fibers past the end of a short 'bases'
    obj = jsonio.range_function_to_json(full_range_function(z8_ctx))
    obj["bases"] = obj["bases"][:1]
    with pytest.raises(ValueError, match="basis per fiber"):
        jsonio.range_function_from_json(z8_ctx, obj)


def test_group_spec_rejects_an_oversized_group():
    # 2**40 fails fast in numpy's allocator should the limit go missing
    with pytest.raises(ValueError, match="exceeds the limit"):
        jsonio.group_spec_from_json({"orders": [2**40]})
    g, _ = jsonio.group_spec_from_json({"orders": [jsonio.MAX_GROUP_ORDER]})
    assert g.size == jsonio.MAX_GROUP_ORDER
