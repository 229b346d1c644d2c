"""The tolerance table and the gate rule: pass at the bound, fail closed."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from zakfiber import Verdict, checks

NAN = float("nan")


class TestPasses:
    def test_absolute_bound_is_inclusive(self):
        assert checks.passes(1e-10, 1e-10)
        assert not checks.passes(np.nextafter(1e-10, 1.0), 1e-10)

    def test_scale_below_one_leaves_the_bound_absolute(self):
        assert checks.passes(1e-8, 1e-8, scale=1e-6)
        assert not checks.passes(2e-8, 1e-8, scale=0.5)

    def test_scale_above_one_makes_the_bound_relative(self):
        assert checks.passes(1e-5, 1e-8, scale=1e3)
        assert not checks.passes(2e-5, 1e-8, scale=1e3)

    @pytest.mark.parametrize("residual", [NAN, math.inf])
    def test_non_finite_residual_fails(self, residual):
        assert checks.passes(residual, 1.0) is False
        assert checks.passes(residual, 1.0, scale=1e300) is False

    def test_nan_scale_fails(self):
        assert checks.passes(0.0, 1e-8, scale=NAN) is False

    def test_elementwise_on_arrays(self):
        ok = checks.passes(np.array([0.0, 1e-9, 1.0, NAN]), 1e-9)
        assert ok.tolist() == [True, True, False, False]

    def test_returns_a_plain_bool(self):
        assert type(checks.passes(np.float64(0.0), 1e-9)) is bool


class TestGate:
    def test_verdict_records_the_decision(self):
        verdict = checks.gate(np.float64(3e-9), 1e-9, witness=(1, 2))
        assert verdict == Verdict(False, 3e-9, 1e-9, (1, 2))
        assert not verdict
        assert type(verdict.residual) is float

    def test_passing_verdict_is_truthy(self):
        verdict = checks.gate(1e-8, 1e-8)
        assert verdict and verdict.passed and verdict.witness is None

    def test_nan_residual_fails(self):
        verdict = checks.gate(NAN, 1e-8)
        assert not verdict and math.isnan(verdict.residual)


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
    assert len(names) == 11
    for name in names:
        value = getattr(checks, name)
        assert isinstance(value, float) and math.isfinite(value) and value > 0, name


def test_every_tolerance_has_a_reader():
    # a tolerance that no other module reads belongs to a gate that is gone
    here = Path(checks.__file__)
    sources = [path.read_text(encoding="utf-8") for path in here.parent.glob("*.py") if path != here]
    unread = [
        name
        for name in dir(checks)
        if name.isupper() and not any(re.search(rf"\bchecks\.{name}\b", text) for text in sources)
    ]
    assert not unread, unread
