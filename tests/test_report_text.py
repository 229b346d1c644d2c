"""The report encoder against its oracle,
``json.dumps(x, indent=2, sort_keys=True, default=np.ndarray.tolist)``."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from zakfiber import cli, fiber_context, jsonio, make_group, subgroup_from_generators

from conftest import battery_contexts, rand_tp_operator


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist)


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 0.1]
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | floats
    | floats.map(np.float64)
    | st.text()
)
# float arrays of 1-4 dims, zero-length axes included, and the same boxes as
# nested lists ([[], []])
float_arrays = arrays(np.float64, array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3), elements=floats)
float_boxes = float_arrays.map(np.ndarray.tolist)
# lists that must not take the float-box path: mixed leaf types and ragged rows
mixed_lists = st.lists(st.one_of(floats, st.integers(-3, 3), st.booleans()), max_size=4)
ragged = st.lists(st.lists(floats, max_size=3), min_size=2, max_size=3)
json_values = st.recursive(
    scalars | float_arrays | float_boxes | mixed_lists | ragged,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(json_values)
def test_matches_the_stdlib_encoder(obj):
    assert "".join(jsonio.report_chunks(obj)) == oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [[], []],
        [1, 2.0],
        [True, 1.0],
        [[1.0, 2.0], (3.0, 4.0)],
        [[1.0], 2.0],
        [[[math.nan, math.inf]], [[-math.inf, -0.0]]],
        [np.float64(0.5), 1.5],
        {"é": "☃ 😀", "b": [2**64, -(2**70)], "a": None},
        {2: "int", 1.5: "float"},
        {None: "null"},
        {True: 1, False: 0},
        np.array(1.5),
        np.zeros((2, 0, 3)),
        np.array([[[math.nan, -0.0]], [[math.inf, -math.inf]]]),
        np.arange(24.0).reshape(2, 3, 4)[:, ::2, ::-1],
        np.asfortranarray(np.arange(8.0).reshape(2, 2, 2)),
        np.arange(6, dtype=np.float32).reshape(1, 2, 3) / 3,
        np.arange(4).reshape(2, 2),
        [np.ones((2, 1, 2)), {"a": np.zeros(2)}],
        {"a": "", "b": np.ones((2, 2, 2)), "c": ["", np.zeros(3), ""]},
        [1.0, "x\ny", np.ones((1, 2, 3))],
        [[np.arange(2.0)], np.ones((2, 1, 2)), [[np.arange(3.0)]]],
        {"t": (np.ones((2, 2)), None)},
        np.full((3, 1, 2), -0.5),
    ],
    ids=repr,
)
def test_edge_cases(obj):
    assert "".join(jsonio.report_chunks(obj)) == oracle(obj)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, {"a": np.int64(1)}, [object()], np.array([[1j]])])
def test_non_json_values_raise_like_the_stdlib(obj):
    with pytest.raises(TypeError):
        oracle(obj)
    with pytest.raises(TypeError):
        "".join(jsonio.report_chunks(obj))


def test_reports_of_the_battery_encode_like_the_stdlib():
    # the report bodies of analyze (a commuting and a perturbed operator) and
    # check on every battery context
    rng = np.random.default_rng(7)
    cfg = cli.RunConfig()
    for _, ctx in battery_contexts():
        u = rand_tp_operator(rng, ctx)
        bad = u + 1e-3 * rng.standard_normal(u.shape)
        for op in (u, bad):
            body = cli._pipeline(ctx, op, cfg)[0]
            assert "".join(jsonio.report_chunks(body)) == oracle(body)
        suites = cli._check_suites(ctx, cfg)
        assert "".join(jsonio.report_chunks(suites)) == oracle(suites)


def test_demo_report_encodes_like_the_stdlib(tmp_path, monkeypatch):
    reports = []
    encode = jsonio.report_chunks
    monkeypatch.setattr(jsonio, "report_chunks", lambda report: reports.append(report) or encode(report))
    out = tmp_path / "demo.json"
    assert cli.main(["demo-diffop", "8", "2", "--out", str(out)]) == 0
    (report,) = reports
    assert out.read_text(encoding="utf-8") == oracle(report) + "\n"


def float_arrays(obj):
    """The arrays of a report that the float-array renderer writes."""
    if type(obj) is np.ndarray and obj.dtype == np.float64 and obj.size:
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from float_arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from float_arrays(value)


def test_pieces_stay_joined(tmp_path, monkeypatch):
    # the stdlib's text between two float arrays is one piece; an array is one
    # piece, or one per leading index and one more with three or more axes
    reports = []
    encode = jsonio.report_chunks
    monkeypatch.setattr(jsonio, "report_chunks", lambda report: reports.append(report) or encode(report))
    spec = tmp_path / "z12.json"
    spec.write_text(json.dumps({"orders": [12], "gamma_generators": [[3]]}))
    assert cli.main(["check", str(spec), "--out", str(tmp_path / "check.json")]) == 0
    # twelve fibers each: the range field alone carries twelve arrays
    assert cli.main(["demo-diffop", "24", "2", "--out", str(tmp_path / "demo.json")]) == 0
    ctx = dict(battery_contexts())["12-sub1-ord12"]
    body = cli._pipeline(ctx, rand_tp_operator(np.random.default_rng(3), ctx), cli.RunConfig())[0]
    check, demo = reports
    assert len(list(jsonio.report_chunks(check))) == 1
    for report in (demo, body):
        arrays = list(float_arrays(report))
        assert len(arrays) >= 12
        bound = 2 * len(arrays) + 1 + sum(a.shape[0] for a in arrays if a.ndim >= 3)
        assert len(list(jsonio.report_chunks(report))) <= bound


VERDICT_KEYS = {"passed", "residual", "tolerance", "scale", "bound", "margin", "witness"}


def verdict_records(node, path=()):
    """Every dict below the top level of a report that carries ``passed``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(value, dict) and "passed" in value:
            yield (*path, key), value
        yield from verdict_records(value, (*path, key))


def same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def test_every_verdict_is_one_record(tmp_path):
    # analyze (commuting, Hermitian PSD and perturbed), demo-diffop and check:
    # every decision below the top level is a Verdict of exactly seven keys,
    # with its bound and margin derived from the other fields
    ctx = fiber_context(make_group([8]), subgroup_from_generators(make_group([8]), [(2,)]))
    w = rand_tp_operator(np.random.default_rng(8), ctx)
    operators = {"commuting": w, "psd": w.conj().T @ w, "perturbed": w + 1e-3 * np.eye(8)[::-1]}
    specs = {
        "z8": {"orders": [8], "gamma_generators": [[2]]},
        "z4xz6": {"orders": [4, 6], "gamma_generators": [[1, 0], [0, 2]]},
    }
    for name, spec in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    runs = [["demo-diffop", "8", "2"]] + [["check", str(tmp_path / f"{name}.json")] for name in specs]
    for name, u in operators.items():
        path = tmp_path / f"op-{name}.json"
        path.write_text(json.dumps({"matrix": jsonio.matrix_to_json(u)}, default=np.ndarray.tolist))
        runs.append(["analyze", str(tmp_path / "z8.json"), str(path)])
    counts = []
    for argv in runs:
        out = tmp_path / "report.json"
        cli.main([*argv, "--out", str(out)])
        records = list(verdict_records(json.loads(out.read_text())))
        counts.append(len(records))
        for path, record in records:
            assert set(record) == VERDICT_KEYS, (argv, path)
            assert type(record["passed"]) is bool, (argv, path)
            assert same(record["bound"], record["tolerance"] * record["scale"]), (argv, path)
            assert same(record["margin"], record["bound"] - record["residual"]), (argv, path)
    # demo, two checks, three analyze runs; the perturbed one stops at the commutation check
    assert counts == [17, 8, 8, 15, 15, 1]
