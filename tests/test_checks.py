"""The tolerance table and the gate rule: pass at the bound, fail closed."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from zakfiber import Verdict, checks

NAN = float("nan")


class TestPasses:
    def test_absolute_bound_is_inclusive(self):
        assert checks.passes(1e-10, 1e-10, 1.0)
        assert not checks.passes(np.nextafter(1e-10, 1.0), 1e-10, 1.0)

    @pytest.mark.parametrize("scale", [1e-150, 1e-6, 0.5, 1.0, 1e3, 1e150])
    def test_bound_is_tol_times_scale_at_every_scale(self, scale):
        # no floor at scale 1: a residual is held to its own magnitude, so a
        # verdict on s * x equals the verdict on x
        assert checks.passes(1e-8 * scale, 1e-8, scale)
        assert not checks.passes(2e-8 * scale, 1e-8, scale)

    def test_zero_scale_passes_only_a_zero_residual(self):
        assert checks.passes(0.0, 1e-8, 0.0)
        assert not checks.passes(5e-324, 1e-8, 0.0)

    def test_scale_is_required(self):
        with pytest.raises(TypeError):
            checks.passes(0.0, 1e-8)
        with pytest.raises(TypeError):
            checks.gate(0.0, 1e-8)

    @pytest.mark.parametrize("residual", [NAN, math.inf])
    def test_non_finite_residual_fails(self, residual):
        assert checks.passes(residual, 1.0, 1.0) is False
        assert checks.passes(residual, 1.0, 1e300) is False

    def test_nan_scale_fails(self):
        assert checks.passes(0.0, 1e-8, NAN) is False

    def test_elementwise_on_arrays(self):
        ok = checks.passes(np.array([0.0, 1e-9, 1.0, NAN]), 1e-9, 1.0)
        assert ok.tolist() == [True, True, False, False]

    def test_returns_a_plain_bool(self):
        assert type(checks.passes(np.float64(0.0), 1e-9, 1.0)) is bool


class TestGate:
    def test_verdict_records_the_decision(self):
        verdict = checks.gate(np.float64(3e-9), 1e-9, 2.0, witness=(1, 2))
        assert verdict == Verdict(False, 3e-9, 1e-9, 2.0, 2e-9, 2e-9 - 3e-9, (1, 2))
        assert not verdict
        assert all(type(getattr(verdict, f)) is float for f in ("residual", "tolerance", "scale", "bound", "margin"))

    def test_passing_verdict_is_truthy(self):
        verdict = checks.gate(1e-8, 1e-8, 1.0)
        assert verdict and verdict.passed and verdict.witness is None and verdict.margin == 0.0

    def test_nan_residual_fails(self):
        verdict = checks.gate(NAN, 1e-8, 1.0)
        assert not verdict and math.isnan(verdict.residual) and math.isnan(verdict.margin)

    def test_dict_has_the_seven_fields(self):
        record = checks.gate(1e-9, 1e-8, 4.0, witness=3).to_dict()
        assert list(record) == ["passed", "residual", "tolerance", "scale", "bound", "margin", "witness"]
        assert record["bound"] == record["tolerance"] * record["scale"]
        assert record["margin"] == record["bound"] - record["residual"]


class TestLargest:
    def test_matches_max(self):
        values = [3e-12, 7e-11, 0.0, 5e-11]
        assert checks.largest(values) == max(values)
        assert checks.largest(iter(values)) == max(values)

    def test_empty_is_zero(self):
        assert checks.largest([]) == 0.0

    @pytest.mark.parametrize("values", [[NAN, 1.0], [1.0, NAN], [8.9e-16, NAN]])
    def test_nan_propagates(self, values):
        # max(8.9e-16, nan) is 8.9e-16: Python's max drops a NaN after the first item
        assert math.isnan(checks.largest(values))


def test_every_tolerance_is_positive_and_finite():
    names = [n for n in dir(checks) if n.isupper()]
    assert len(names) == 10
    for name in names:
        value = getattr(checks, name)
        assert isinstance(value, float) and math.isfinite(value) and value > 0, name


def test_every_tolerance_has_a_reader():
    # a tolerance that no other module reads, itself or through a function
    # of checks that it calls, belongs to a gate that is gone
    here = Path(checks.__file__)
    sources = [path.read_text(encoding="utf-8") for path in here.parent.glob("*.py") if path != here]
    called = [
        inspect.getsource(fn)
        for name, fn in vars(checks).items()
        if inspect.isfunction(fn) and any(re.search(rf"\bchecks\.{name}\(", text) for text in sources)
    ]
    unread = [
        name
        for name in dir(checks)
        if name.isupper()
        and not any(re.search(rf"\bchecks\.{name}\b", text) for text in sources)
        and not any(re.search(rf"\b{name}\b", text) for text in called)
    ]
    assert not unread, unread
