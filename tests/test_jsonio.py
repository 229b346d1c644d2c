"""Round trips and validation for the JSON wire formats."""

import json
import tracemalloc

import numpy as np
import pytest

from zakfiber import jsonio
from zakfiber import (
    fiber_context,
    make_group,
    subgroup_from_generators,
)

from conftest import full_range, load_script, rand_field, rand_signal


@pytest.fixture
def z8_ctx():
    g = make_group([8])
    return fiber_context(g, subgroup_from_generators(g, [(2,)]))


def _reload(obj):
    # arrays go as their nested lists, as the report encoder writes them
    return json.loads(json.dumps(obj, default=np.ndarray.tolist))


def _from_pairs(rows) -> np.ndarray:
    # the oracle: numpy's own read of nested [re, im] lists
    return np.array(rows, dtype=float).view(complex)[..., 0]


def test_group_spec_roundtrip():
    g = make_group([8])
    gamma = subgroup_from_generators(g, [(2,)])
    obj = jsonio.group_spec_to_json(g, gamma)
    assert obj == {"orders": [8], "gamma_generators": [[2]]}
    g2, gamma2 = jsonio.group_spec_from_json(obj)
    assert g2 == g and np.array_equal(gamma2.elements, gamma.elements)


def test_group_spec_defaults_to_trivial_subgroup():
    g, gamma = jsonio.group_spec_from_json({"orders": [4]})
    assert gamma.elements.tolist() == [[0]]


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
    text = json.dumps({"matrix": jsonio.matrix_to_json(u)}, default=np.ndarray.tolist)
    back = jsonio.operator_from_json(z8_ctx, text)
    assert np.array_equal(back, u)


def test_matrix_codec_keeps_the_pair_lists():
    # the per-entry encoding is the reference: the same lists, signed zeros included
    rng = np.random.default_rng(73)
    mat = rand_signal(rng, 12).reshape(3, 4)
    mat[0, 0] = complex(-0.0, -0.0)
    expected = [[[z.real, z.imag] for z in row] for row in mat.tolist()]
    rows = jsonio.matrix_to_json(mat).tolist()
    assert rows == expected
    back = _from_pairs(rows)
    assert np.array_equal(back, mat) and np.signbit(back[0, 0].real) and np.signbit(back[0, 0].imag)


def test_operator_reads_any_whitespace_and_an_escaped_key(z8_ctx):
    u = np.arange(64).reshape(8, 8) * (1 - 2j)
    rows = ",\n ".join(json.dumps(row) for row in jsonio.matrix_to_json(u).tolist())
    text = f' \n{{ "m\\u0061trix" :\t[ {rows} ]\r\n}} \n'
    assert np.array_equal(jsonio.operator_from_json(z8_ctx, text), u)


def test_operator_read_stops_at_the_first_bad_row(z8_ctx):
    rows = jsonio.matrix_to_json(np.eye(8)).tolist()
    rows[2] = rows[2][:7]
    good = ", ".join(map(json.dumps, rows[:5]))
    # the rows after row 2 are not decoded: row 5 is not even JSON
    with pytest.raises(ValueError, match="matrix row 2 must be 8 "):
        jsonio.operator_from_json(z8_ctx, '{"matrix": [' + good + ", [[1.0, }")


def test_operator_rejects_wrong_shape(z8_ctx):
    with pytest.raises(ValueError, match="row 0"):
        jsonio.operator_from_json(z8_ctx, '{"matrix": [[[1.0, 0.0]]]}')
    with pytest.raises(ValueError, match="one member"):
        jsonio.operator_from_json(z8_ctx, '{"wrong": []}')


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_operator_rejects_non_finite_entries(z8_ctx, token):
    text = json.dumps({"matrix": jsonio.matrix_to_json(np.eye(8))}, default=np.ndarray.tolist)
    with pytest.raises(ValueError, match="finite"):
        jsonio.operator_from_json(z8_ctx, text.replace("0.0", token, 1))


def test_operator_read_peaks_near_the_matrix():
    # the rows are decoded one at a time: no nested list of the whole matrix
    g = make_group([256])
    ctx = fiber_context(g, subgroup_from_generators(g, [(16,)]))
    u = rand_signal(np.random.default_rng(74), 256 * 256).reshape(256, 256)
    text = json.dumps({"matrix": jsonio.matrix_to_json(u)}, default=np.ndarray.tolist)
    tracemalloc.start()
    try:
        back = jsonio.operator_from_json(ctx, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, u)
    assert peak < 1.5 * u.nbytes


def test_bench_operators_read_bit_identically(tmp_path):
    manifest = load_script("bench/workloads.py").build("analyze", 1, tmp_path)
    runs = [op["argv"] for op in manifest["ops"] if op["argv"][0] == "analyze"]
    assert len(runs) == 28
    for _, spec, op, *_ in runs:
        g, gamma = jsonio.group_spec_from_json(json.loads((tmp_path / spec).read_text(encoding="utf-8")))
        text = (tmp_path / op).read_text(encoding="utf-8")
        back = jsonio.operator_from_json(fiber_context(g, gamma), text)
        expected = np.array(json.loads(text)["matrix"]).view(complex)[..., 0]
        assert back.tobytes() == expected.tobytes(), op


def test_field_roundtrip(z8_ctx):
    rng = np.random.default_rng(72)
    field = rand_field(rng, z8_ctx, full_range(z8_ctx))
    obj = _reload(jsonio.field_to_json(field))
    assert sorted(obj) == ["matrices"]
    assert len(obj["matrices"]) == z8_ctx.n_omega
    for rows, mat in zip(obj["matrices"], field):
        back = _from_pairs(rows)
        assert back.shape == (z8_ctx.n_c, z8_ctx.n_c) and np.array_equal(back, mat)


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
