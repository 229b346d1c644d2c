"""JSON schemas for the external interfaces.

Complex numbers are always serialized as ``[re, im]`` pairs, matrices
row-major, and group elements as integer arrays in enumeration order.
Reports are written by :func:`report_chunks`.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .fiberization import FiberContext
from .groups import GroupSpec, Subgroup, make_group, subgroup_from_generators
from .operators import as_operator
from .spaces import RangeFunction

# The largest group order accepted as input. Every command holds dense
# |G| x |G| complex matrices, 16 |G|^2 bytes each: 4 GiB at this order.
MAX_GROUP_ORDER = 2**14
# Every factor of order 2 or more at least doubles |G|, so no group within
# the order limit needs more factors than this; order-1 factors would only
# add work that grows with the factor count.
MAX_FACTORS = MAX_GROUP_ORDER.bit_length() - 1


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(mat: np.ndarray) -> np.ndarray:
    """The ``(rows, cols, 2)`` float array of ``[re, im]`` pairs; the report
    encoder writes it as the nested list ``matrix_from_json`` reads."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1)


def matrix_from_json(rows) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix must be a list of rows")
    n_cols = len(rows[0]) if rows else 0
    if any(len(row) != n_cols for row in rows):
        raise ValueError("matrix rows differ in length")
    pairs = list(chain.from_iterable(rows))
    if not all(isinstance(z, list) and len(z) == 2 for z in pairs):
        raise ValueError("matrix entries must be [re, im] pairs")
    flat = list(chain.from_iterable(pairs))
    # JSON numbers only: bool is an int subclass that numpy would read as 1.0
    # or 0.0, and an integer beyond 64 bits leaves an object array
    if not set(map(type, flat)) <= {int, float}:
        raise ValueError("matrix entries must be [re, im] pairs of numbers")
    parts = np.array(flat)
    if parts.dtype.kind not in "iuf":
        raise ValueError("matrix entries must be [re, im] pairs of numbers")
    # json.loads reads the NaN, Infinity and -Infinity tokens as floats
    if not np.isfinite(parts).all():
        raise ValueError("matrix entries must be finite")
    return parts.astype(float).view(complex).reshape(len(rows), n_cols)


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
    if len(orders) > MAX_FACTORS:
        raise ValueError(f"group spec has {len(orders)} cyclic factors, more than the limit {MAX_FACTORS}")
    if math.prod(orders) > MAX_GROUP_ORDER:
        raise ValueError(f"group order {math.prod(orders)} exceeds the limit {MAX_GROUP_ORDER}")
    g = make_group(orders)
    gens = obj.get("gamma_generators", [])
    if not isinstance(gens, list) or not all(_is_int_list(t) for t in gens):
        raise ValueError("'gamma_generators' must be a list of integer element arrays")
    gamma = subgroup_from_generators(g, gens)
    return g, gamma


def _is_int_list(value) -> bool:
    # JSON integers only: bool is an int subclass, and floats and strings
    # would otherwise be coerced by int()
    return isinstance(value, list) and all(type(x) is int for x in value)


def operator_from_json(ctx: FiberContext, obj) -> np.ndarray:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ValueError("operator JSON must contain 'matrix'")
    return as_operator(ctx, matrix_from_json(obj["matrix"]))


def field_to_json(field: np.ndarray, rangefn: RangeFunction) -> dict:
    """The range function as ``dims`` and ``bases`` and the field as
    ``matrices``, one entry per omega.

    Each fiber matrix is its own entry, so the report encoder streams the
    field one row of a fiber at a time rather than a whole fiber at once."""
    return {
        "dims": list(rangefn.dims),
        "bases": [matrix_to_json(b) for b in rangefn.bases],
        "matrices": [matrix_to_json(m) for m in field],
    }


def report_chunks(report):
    """Yield the report text in pieces whose concatenation is, byte for byte,
    ``json.dumps(report, indent=2, sort_keys=True, default=np.ndarray.tolist)``.

    A float64 array with three or more axes is written one leading index at
    a time, so no more than one such slice of the report is held as text at
    once. A smaller float array, and a nested list of one box shape whose
    leaves are all plain floats, is one piece: one ``float.__repr__`` per leaf
    and one template for the brackets and indentation. Any other array is
    written as its ``tolist()``.
    """
    yield from _chunks(report, "\n")


def report_text(report) -> str:
    """The report text of :func:`report_chunks` as one string."""
    return "".join(report_chunks(report))


def _chunks(obj, newline: str):
    inner = newline + "  "
    if isinstance(obj, np.ndarray):
        # other dtypes and subclasses (np.matrix, masked arrays) go the way
        # the default= hook hands them to the stdlib
        if type(obj) is not np.ndarray or obj.dtype != np.float64 or not obj.size:
            yield from _chunks(obj.tolist(), newline)
        elif obj.ndim < 3:
            yield _float_box(_template(obj.shape, newline), obj.ravel().tolist())
        else:
            template = _template(obj.shape[1:], inner)
            for i, row in enumerate(obj):
                yield ("," if i else "[") + inner + _float_box(template, row.ravel().tolist())
            yield newline + "]"
        return
    if isinstance(obj, dict):
        brackets = "{}"
        items = [(encode_basestring_ascii(_key(k)) + ": ", v) for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        box = _float_leaves(obj)
        if box is not None:
            yield _float_box(_template(box[0], newline), box[1])
            return
        brackets = "[]"
        items = [("", v) for v in obj]
    else:
        yield _scalar(obj)
        return
    if not items:
        yield brackets
        return
    sep = brackets[0] + inner
    for head, v in items:
        if isinstance(v, (dict, list, tuple, np.ndarray)):
            yield sep + head
            yield from _chunks(v, inner)
        else:
            yield sep + head + _scalar(v)
        sep = "," + inner
    yield newline + brackets[1]


def _float_leaves(obj):
    """``(shape, leaves)`` of a nested list or tuple of one box shape, no axis
    of length zero, whose leaves are all plain floats; else None."""
    shape = []
    level = [obj]
    while isinstance(level[0], (list, tuple)):
        n = len(level[0])
        if not n or not all(isinstance(x, (list, tuple)) and len(x) == n for x in level):
            return None
        shape.append(n)
        level = list(chain.from_iterable(level))
    return (shape, level) if all(type(x) is float for x in level) else None


def _template(shape, newline: str) -> str:
    """The brackets and indentation of a box of the given shape, one ``{}`` per leaf."""
    template = "{}"
    for depth in range(len(shape), 0, -1):
        inner = newline + "  " * depth
        template = "[" + inner + ("," + inner).join([template] * shape[depth - 1]) + inner[:-2] + "]"
    return template


def _float_box(template: str, leaves: list) -> str:
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
