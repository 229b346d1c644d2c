"""JSON schemas for the external interfaces.

Complex numbers are always serialized as ``[re, im]`` pairs, matrices
row-major, and group elements as integer arrays in enumeration order.
Reports are written by :func:`report_text`.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import checks
from .fiberization import FiberContext, as_fibered
from .groups import GroupSpec, Subgroup, make_group, subgroup_from_generators
from .operators import RangeOperatorField, as_operator
from .spaces import RangeFunction

# The largest group order accepted as input. Every command holds dense
# |G| x |G| complex matrices, 16 |G|^2 bytes each: 4 GiB at this order.
MAX_GROUP_ORDER = 2**14


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def matrix_from_json(rows, shape=None) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix must be a list of rows")
    n_cols = len(rows[0]) if rows else 0
    if any(len(row) != n_cols for row in rows):
        raise ValueError("matrix rows differ in length")
    pairs = list(chain.from_iterable(rows))
    if not all(isinstance(z, list) and len(z) == 2 for z in pairs):
        raise ValueError("matrix entries must be [re, im] pairs")
    parts = np.array(list(chain.from_iterable(pairs)))
    # anything but plain numbers (null, strings, nesting) leaves an
    # object, string or wrongly shaped array
    if parts.dtype.kind not in "iuf" or parts.shape != (2 * len(pairs),):
        raise ValueError("matrix entries must be [re, im] pairs of numbers")
    # json.loads reads the NaN, Infinity and -Infinity tokens as floats
    if not np.isfinite(parts).all():
        raise ValueError("matrix entries must be finite")
    mat = parts.astype(float).view(complex).reshape(len(rows), n_cols)
    if shape is not None and mat.shape != tuple(shape):
        raise ValueError(f"matrix has shape {mat.shape}, expected {tuple(shape)}")
    return mat


def group_spec_to_json(g: GroupSpec, gamma: Subgroup) -> dict:
    return {
        "orders": list(g.orders),
        "gamma_generators": [list(t) for t in gamma.generators],
    }


def group_spec_from_json(obj) -> tuple[GroupSpec, Subgroup]:
    """Parse ``{"orders": [...], "gamma_generators": [[...], ...]}``."""
    if not isinstance(obj, dict):
        raise ValueError("group spec must be a JSON object")
    if "orders" not in obj:
        raise ValueError("group spec is missing 'orders'")
    orders = obj["orders"]
    if not _is_int_list(orders):
        raise ValueError(f"'orders' must be a list of integers, got {orders!r}")
    if math.prod(orders) > MAX_GROUP_ORDER:
        raise ValueError(f"group order {math.prod(orders)} exceeds the limit {MAX_GROUP_ORDER}")
    g = make_group(orders)
    gens = obj.get("gamma_generators", [])
    if not isinstance(gens, list) or not all(_is_int_list(t) for t in gens):
        raise ValueError("'gamma_generators' must be a list of integer element arrays")
    gamma = subgroup_from_generators(g, gens)
    return g, gamma


def _list_of_lists(obj: dict, key: str) -> list:
    """``obj[key]`` (an empty list when absent), which must be a list of lists."""
    value = obj.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, list) for v in value):
        raise ValueError(f"'{key}' must be a list of lists")
    return value


def _is_int_list(value) -> bool:
    # JSON integers only: bool is an int subclass, and floats and strings
    # would otherwise be coerced by int()
    return isinstance(value, list) and all(type(x) is int for x in value)


def fibered_to_json(ctx: FiberContext, fibers) -> dict:
    fibers = as_fibered(ctx, fibers)
    if fibers.ndim != 2:
        raise ValueError(f"expected one fibered vector of shape {ctx.fiber_shape()}, got {fibers.shape}")
    return {
        "omega_reps": [list(w) for w in ctx.omega.reps],
        "c_reps": [list(c) for c in ctx.c_section.reps],
        "fibers": matrix_to_json(fibers),
    }


def fibered_from_json(ctx: FiberContext, obj) -> np.ndarray:
    if not isinstance(obj, dict) or "fibers" not in obj:
        raise ValueError("fibered vector JSON must contain 'fibers'")
    for key, reps in (("omega_reps", ctx.omega.reps), ("c_reps", ctx.c_section.reps)):
        if [tuple(x) for x in _list_of_lists(obj, key)] != list(reps):
            raise ValueError(f"{key} do not match the context")
    return as_fibered(ctx, matrix_from_json(obj["fibers"]))


def range_function_to_json(rangefn: RangeFunction) -> dict:
    return {
        "dims": list(rangefn.dims),
        "bases": [matrix_to_json(b) for b in rangefn.bases],
    }


def range_function_from_json(ctx: FiberContext, obj) -> RangeFunction:
    if not isinstance(obj, dict) or "bases" not in obj or "dims" not in obj:
        raise ValueError("range function JSON must contain 'dims' and 'bases'")
    dims, fiber_rows = obj["dims"], obj["bases"]
    if not _is_int_list(dims) or any(d < 0 for d in dims):
        raise ValueError(f"'dims' must be a list of non-negative integers, got {dims!r}")
    if len(dims) != ctx.n_omega:
        raise ValueError(f"range function has {len(dims)} fibers, expected {ctx.n_omega}")
    if not isinstance(fiber_rows, list) or len(fiber_rows) != len(dims):
        raise ValueError(f"range function needs one basis per fiber, {len(dims)} in all")
    bases = []
    for wi, (d, rows) in enumerate(zip(dims, fiber_rows)):
        mat = matrix_from_json(rows)
        if mat.size == 0:
            mat = np.zeros((ctx.n_c, 0), dtype=complex)
        if mat.shape != (ctx.n_c, d):
            raise ValueError(f"fiber {wi} basis has shape {mat.shape}, expected ({ctx.n_c}, {d})")
        if d and not checks.passes(np.abs(mat.conj().T @ mat - np.eye(d)).max(), checks.ORTHO):
            raise ValueError(f"fiber {wi} basis columns are not orthonormal")
        bases.append(mat)
    return RangeFunction(tuple(bases))


def operator_to_json(mat) -> dict:
    return {"matrix": matrix_to_json(np.asarray(mat, dtype=complex))}


def operator_from_json(ctx: FiberContext, obj) -> np.ndarray:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ValueError("operator JSON must contain 'matrix'")
    return as_operator(ctx, matrix_from_json(obj["matrix"]))


def field_to_json(field: RangeOperatorField, rangefn: RangeFunction) -> dict:
    """Field serialization mirrors the range function layout and adds the
    per-omega matrices."""
    out = range_function_to_json(rangefn)
    out["matrices"] = [matrix_to_json(m) for m in field.matrices]
    return out


def field_from_json(ctx: FiberContext, obj) -> tuple[RangeOperatorField, RangeFunction]:
    rangefn = range_function_from_json(ctx, obj)
    if "matrices" not in obj:
        raise ValueError("field JSON must contain 'matrices'")
    mats = [matrix_from_json(rows, shape=(ctx.n_c, ctx.n_c)) for rows in _list_of_lists(obj, "matrices")]
    if len(mats) != ctx.n_omega:
        raise ValueError(f"field has {len(mats)} fibers, expected {ctx.n_omega}")
    return RangeOperatorField(tuple(mats)), rangefn


def report_text(report) -> str:
    """The stdlib's ``json.dumps`` of the report with two-space indents and
    sorted keys, byte for byte.

    With an indent the stdlib encoder runs in pure Python, one generator
    step per token. Here containers are joined as strings, and a nested list
    of one box shape whose leaves are all plain floats (the field matrices
    and bases) is written in one pass: one ``float.__repr__`` per leaf and
    one template for the brackets and indentation.
    """
    return _encode(report, "\n")


def _encode(obj, newline: str) -> str:
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{encode_basestring_ascii(_key(k))}: {_encode(v, inner)}" for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        box = np.array(obj, dtype=object)
        leaves = box.ravel().tolist()
        if leaves and set(map(type, leaves)) == {float}:
            return _float_box(box.shape, leaves, newline)
        return "[" + inner + ("," + inner).join(_encode(v, inner) for v in obj) + newline + "]"
    return _scalar(obj)


def _float_box(shape, leaves: list, newline: str) -> str:
    template = "{}"
    for depth in range(len(shape), 0, -1):
        inner = newline + "  " * depth
        template = "[" + inner + ("," + inner).join([template] * shape[depth - 1]) + inner[:-2] + "]"
    text = template.format(*map(float.__repr__, leaves))
    # repr spells the non-finite floats nan, inf and -inf; no other float
    # repr, and nothing in the template, contains an "n"
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _scalar(obj) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    return json.dumps(obj)


def _key(key) -> str:
    # the stdlib writes int, float, bool and None keys as their JSON text
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
