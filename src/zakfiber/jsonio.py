"""JSON schemas for the external interfaces.

Complex numbers are always serialized as ``[re, im]`` pairs, matrices
row-major, and group elements as integer arrays in enumeration order.
Reports are written by :func:`report_chunks`: the stdlib's JSON encoder
writes the text, and each non-empty float64 array in the report, such as a
matrix of ``[re, im]`` pairs or the per-fiber values, goes through one
template renderer instead of the stdlib's per-float path.
"""

from __future__ import annotations

import json
import math
from array import array
from itertools import chain
from json.decoder import WHITESPACE, scanstring

import numpy as np

from .fiberization import FiberContext
from .groups import GroupSpec, Subgroup, make_group, subgroup_from_generators
from .operators import as_operator

# The largest group order accepted as input. Every command holds dense
# |G| x |G| complex matrices, 16 |G|^2 bytes each: 4 GiB at this order.
MAX_GROUP_ORDER = 2**14
# Every factor of order 2 or more at least doubles |G|, so no group within
# the order limit needs more factors than this; order-1 factors would only
# add work that grows with the factor count.
MAX_FACTORS = MAX_GROUP_ORDER.bit_length() - 1
# Decodes the one JSON value at a position: a row of an operator matrix.
_decode_row = json.JSONDecoder().raw_decode


def matrix_to_json(mat: np.ndarray) -> np.ndarray:
    """The float array of ``[re, im]`` pairs, ``(rows, cols, 2)`` for a matrix
    and ``(n, 2)`` for a vector; the report encoder writes it as the nested
    list of rows ``operator_from_json`` reads."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1)


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


def operator_from_json(ctx: FiberContext, text: str) -> np.ndarray:
    """The operator of the JSON text ``{"matrix": [row, ...]}``: ``|G|`` rows
    of ``|G|`` ``[re, im]`` pairs of JSON numbers, and no other member.

    The rows are decoded one at a time into a preallocated array, so no
    nested list of the whole matrix is built, and a malformed row raises
    ValueError before the rows after it are decoded.
    """
    n = ctx.group.size
    key, pos = scanstring(text, _expect(text, _expect(text, 0, "{"), '"'))
    if key != "matrix":
        raise ValueError(f"operator JSON must have 'matrix' as its one member, got {key!r}")
    pos = _expect(text, _expect(text, pos, ":"), "[")
    parts = np.empty((n, 2 * n))
    for i in range(n):
        pos = WHITESPACE.match(text, pos).end()
        if text.startswith("]", pos):
            raise ValueError(f"matrix has {i} rows, expected {n}")
        start = WHITESPACE.match(text, _expect(text, pos, ",")).end() if i else pos
        row, pos = _decode_row(text, start)
        try:
            values = array("d", list(chain.from_iterable(row)))
        except (TypeError, OverflowError):
            values = None
        # array("d") takes int and float leaves only, bool among them as an int
        # subclass; of JSON's words only true has an r and only false an s
        if (values is None or type(row) is not list or len(row) != n or set(map(len, row)) != {2}
                or text.find("r", start, pos) >= 0 or text.find("s", start, pos) >= 0):
            raise ValueError(f"matrix row {i} must be {n} [re, im] pairs of numbers")
        parts[i] = values
    pos = WHITESPACE.match(text, pos).end()
    if text.startswith(",", pos):
        raise ValueError(f"matrix has more than {n} rows")
    pos = WHITESPACE.match(text, _expect(text, pos, "]")).end()
    if text.startswith(",", pos):
        raise ValueError("operator JSON must have 'matrix' as its one member")
    pos = WHITESPACE.match(text, _expect(text, pos, "}")).end()
    if pos != len(text):
        raise ValueError(f"extra data after the operator object at char {pos}")
    # as_operator checks finiteness: json reads NaN, Infinity and 1e999 as floats
    return as_operator(ctx, parts.view(complex))


def _expect(text: str, pos: int, token: str) -> int:
    """The position after ``token``, which must follow ``pos`` past any whitespace."""
    pos = WHITESPACE.match(text, pos).end()
    if not text.startswith(token, pos):
        raise ValueError(f'operator JSON must be {{"matrix": [row, ...]}}: expected {token!r} at char {pos}')
    return pos + len(token)


def field_to_json(field: np.ndarray) -> dict:
    """The field as ``matrices``, one ``[re, im]`` float array per omega.

    Each fiber matrix is its own entry, so the report encoder streams the
    field one row of a fiber at a time rather than a whole fiber at once."""
    return {"matrices": [matrix_to_json(m) for m in field]}


def report_chunks(report):
    """Yield the report text in pieces whose concatenation is, byte for byte,
    ``json.dumps(report, indent=2, sort_keys=True, default=np.ndarray.tolist)``.

    The stdlib's encoder writes everything but the non-empty float64 arrays,
    and its text between two such arrays is one piece. Each of those arrays
    is one ``float.__repr__`` per leaf and one template for the brackets and
    indentation: one piece, or, with three or more axes, one piece per
    leading index and one for the closing bracket, so no more than one such
    slice is held as text at once.
    """
    queued = []

    def hook(obj):
        # other dtypes and subclasses (np.matrix, masked arrays) go to the
        # stdlib as their tolist(), as the oracle's default= hook hands them
        if type(obj) is np.ndarray and obj.dtype == np.float64 and obj.size:
            queued.append(obj)
            return ""  # the stdlib yields its '""' as its very next piece
        return np.ndarray.tolist(obj)

    pieces = []
    for piece in json.JSONEncoder(indent=2, sort_keys=True, default=hook).iterencode(report):
        if not queued:
            pieces.append(piece)
            continue
        text = "".join(pieces)
        pieces.clear()
        if text:
            yield text
        # the array is indented as deep as the line it starts on; strings are
        # escaped, so every newline in the text is the stdlib's own
        line = text.rpartition("\n")[2]
        newline = "\n" + line[: len(line) - len(line.lstrip(" "))]
        array = queued.pop()
        if array.ndim < 3:
            yield _float_box(_template(array.shape, newline), array.ravel().tolist())
        else:
            inner = newline + "  "
            template = _template(array.shape[1:], inner)
            for i, row in enumerate(array):
                yield ("," if i else "[") + inner + _float_box(template, row.ravel().tolist())
            yield newline + "]"
    if pieces:
        yield "".join(pieces)


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
