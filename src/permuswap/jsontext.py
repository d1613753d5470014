"""JSON text of the package's reports and sidecars.

:func:`dumps` returns ``json.dumps(value, indent=2, sort_keys=True)``
byte for byte.  With an indent, CPython's ``json`` encodes in pure
Python, one generator step per value; here containers are walked once
into a list of parts, and a 2-D integer numpy array (a margin table)
is written with one ``%``-format over a row template, as ``json`` would
write the array's nested lists.
"""

from json.encoder import encode_basestring_ascii as _string

import numpy as np

__all__ = ["dumps"]

_INDENT = "  "
_INF = float("inf")


def dumps(value: object) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, where ``value`` may
    also hold 2-D integer numpy arrays."""
    parts: list[str] = []
    _write(value, "\n", parts)
    return "".join(parts)


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _key(key: object) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _scalar(value: object) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return _float(value)


def _int_matrix(array: np.ndarray, newline: str) -> str:
    rows, cols = array.shape
    if not rows:
        return "[]"
    row_newline, entry_newline = newline + _INDENT, newline + 2 * _INDENT
    row = "[" + ",".join([entry_newline + "%d"] * cols) + row_newline + "]" if cols else "[]"
    return ("[" + ",".join([row_newline + row] * rows) + newline + "]") % tuple(array.ravel().tolist())


def _write(value: object, newline: str, parts: list[str]) -> None:
    """Append the text of ``value``; ``newline`` is a line break plus the
    indent of the line the value starts on."""
    # floats first, as most values of a report are; no value is of two of
    # these types, so the order changes no output
    if isinstance(value, float):
        parts.append(_float(value))
    elif isinstance(value, str):
        parts.append(_string(value))
    elif value is None or isinstance(value, int):
        parts.append(_scalar(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + _INDENT
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + _INDENT
        separator = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(separator + _string(_key(key)) + ": ")
            _write(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind in "iu":
        parts.append(_int_matrix(value, newline))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
