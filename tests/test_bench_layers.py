"""The benchmark's traced per-layer metrics name functions the library still has.

``bench/run.py --trace 1`` reads each ``<module>.<function>.(s|calls|self_s)``
metric from the tracer's per-function stats, so deleting a named function
would break the traced run.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
PER_FUNCTION = re.compile(r"(\w+)\.(\w+)\.(?:s|calls|self_s)")


def test_every_traced_layer_is_a_library_function():
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    functions = sorted({match.group(1, 2) for match in map(PER_FUNCTION.fullmatch, names) if match})
    assert ("fiberization", "zak_matrix") in functions
    missing = [
        f"{module}.{name}"
        for module, name in functions
        if not inspect.isfunction(getattr(importlib.import_module(f"zakfiber.{module}"), name, None))
    ]
    assert not missing, missing
