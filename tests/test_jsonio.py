"""Round trips and validation for the JSON wire formats."""

import json

import numpy as np
import pytest

from zakfiber import jsonio
from zakfiber import (
    fiber_context,
    make_group,
    subgroup_from_generators,
)

from conftest import full_range, rand_field, rand_signal


@pytest.fixture
def z8_ctx():
    g = make_group([8])
    return fiber_context(g, subgroup_from_generators(g, [(2,)]))


def _reload(obj):
    # json.dumps writes NaN and Infinity tokens, and json.loads reads them
    # back; arrays go as their nested lists, as the report encoder writes them
    return json.loads(json.dumps(obj, default=np.ndarray.tolist))


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


def test_operator_roundtrip(z8_ctx):
    rng = np.random.default_rng(71)
    u = rand_signal(rng, 64).reshape(8, 8)
    back = jsonio.operator_from_json(z8_ctx, _reload({"matrix": jsonio.matrix_to_json(u)}))
    assert np.array_equal(back, u)


def test_matrix_codec_keeps_the_pair_lists():
    # the per-entry encoding is the reference: the same lists, signed zeros included
    rng = np.random.default_rng(73)
    mat = rand_signal(rng, 12).reshape(3, 4)
    mat[0, 0] = complex(-0.0, -0.0)
    expected = [[[z.real, z.imag] for z in row] for row in mat.tolist()]
    rows = jsonio.matrix_to_json(mat).tolist()
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
        [[[True, 0.0]]],
        [[[True, False], [1.0, 0.0]]],
    ],
    ids=["ragged", "triple", "scalar", "null", "string", "nested", "not-a-list", "bool", "bool-pair-among-floats"],
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
    field = rand_field(rng, z8_ctx, full_range(z8_ctx))
    obj = _reload(jsonio.field_to_json(field))
    assert sorted(obj) == ["matrices"]
    assert len(obj["matrices"]) == z8_ctx.n_omega
    for rows, mat in zip(obj["matrices"], field):
        back = jsonio.matrix_from_json(rows)
        assert back.shape == (z8_ctx.n_c, z8_ctx.n_c) and np.array_equal(back, mat)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_matrix_from_json_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        jsonio.matrix_from_json(_reload([[[1.0, value]]]))


def test_group_spec_limits_the_factor_count():
    # each factor of order 2 or more at least doubles |G|
    assert jsonio.MAX_FACTORS == 14 and 2**jsonio.MAX_FACTORS == jsonio.MAX_GROUP_ORDER
    g, _ = jsonio.group_spec_from_json({"orders": [2] * jsonio.MAX_FACTORS})
    assert g.size == jsonio.MAX_GROUP_ORDER
    with pytest.raises(ValueError, match="cyclic factors"):
        jsonio.group_spec_from_json({"orders": [1] * (jsonio.MAX_FACTORS + 1)})


def test_group_spec_rejects_an_oversized_group():
    # 2**40 fails fast in numpy's allocator should the limit go missing
    with pytest.raises(ValueError, match="exceeds the limit"):
        jsonio.group_spec_from_json({"orders": [2**40]})
    g, _ = jsonio.group_spec_from_json({"orders": [jsonio.MAX_GROUP_ORDER]})
    assert g.size == jsonio.MAX_GROUP_ORDER
