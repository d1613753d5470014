"""JSON text of the package's reports and sidecars.

:func:`dumps` returns ``json.dumps(value, indent=2, sort_keys=True)``
byte for byte.  With an indent, CPython's ``json`` encodes in pure
Python, one generator step per value; here containers are walked once
into a list of parts, a list of only ``str`` or only ``float`` items is
written with one ``join`` (a float list's text made once per distinct
value, by :func:`_map_distinct`), and a 2-D integer numpy array (a margin
table) is written by :func:`_int_rows`, as ``json`` would write the
array's nested lists.  The swapper's count table is written from the
same parts: its index columns from one block of digit slots per axis,
its counts by :func:`_fill_digits`, and the text by :func:`_compact`.
"""

from json.encoder import encode_basestring_ascii as _string
from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = ["dumps"]

_INDENT = "  "
_INF = float("inf")
_T = TypeVar("_T")


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


def _map_distinct(fn: Callable[[float], _T], values: Sequence[float]) -> list[_T]:
    """``[fn(v) for v in values]``, calling ``fn`` once per distinct
    float64 bit pattern of ``values``.

    Bit patterns, not values, tell the floats apart, so 0.0 and -0.0 and
    NaNs of different payloads each get their own call.
    """
    patterns, where = np.unique(np.array(values, dtype=np.float64).view(np.uint64), return_inverse=True)
    results = np.array([fn(v) for v in patterns.view(np.float64).tolist()], dtype=object)
    return results[where].tolist()


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


_NUL, _MINUS, _ZERO = 0, ord("-"), ord("0")


def _decimal_width(magnitude: np.ndarray) -> int:
    """The number of digits of the largest of non-negative ``magnitude``."""
    return len(str(int(magnitude.max()))) if magnitude.size else 1


def _fill_digits(magnitude: np.ndarray, slots: np.ndarray) -> None:
    """Write non-negative integers into ``slots``, a uint8 view with one
    more axis than ``magnitude``, at least as long as the widest entry's
    digits: the digits end at the slot's end, and the leading zeros are
    left as they are (NUL in a zeroed array)."""
    width = slots.shape[-1]
    # the digits of uint32 come several times faster
    magnitude = magnitude.astype(np.uint32 if width < 10 else np.uint64)
    ten = magnitude.dtype.type(10)
    shown = True  # a zero entry still writes its last digit
    for column in range(width - 1, -1, -1):
        # floor division by a scalar runs several times faster than divmod
        quotient = magnitude // ten
        slots[..., column] = (magnitude - quotient * ten + _ZERO) * shown
        magnitude = quotient
        shown = magnitude != 0


def _int_rows(array: np.ndarray, separators: Sequence[str]) -> str:
    """The rows of a 2-D integer array in decimal, each entry of column j
    followed by ``separators[j]`` (ASCII, no NUL).

    Every entry fills a fixed-width slot of bytes: a sign when some entry
    is negative, the digits (:func:`_fill_digits`, leading zeros left
    NUL), and the column's separator padded with NUL.  One compaction then
    drops every NUL.
    """
    rows, cols = array.shape
    tails = np.zeros((cols, max(map(len, separators), default=0)), dtype=np.uint8)
    for tail, separator in zip(tails, separators):
        tail[: len(separator)] = np.frombuffer(separator.encode("ascii"), dtype=np.uint8)
    negative = array < 0
    sign = int(negative.any())
    magnitude = array.astype(np.uint64)
    if sign:
        # two's complement, exact for the int64 minimum too
        magnitude[negative] = -magnitude[negative]
    width = _decimal_width(magnitude)
    slots = np.zeros((rows, cols, sign + width + tails.shape[1]), dtype=np.uint8)
    slots[negative, 0] = _MINUS
    _fill_digits(magnitude, slots[..., sign : sign + width])
    slots[..., sign + width :] = tails
    return _compact(slots)


def _compact(slots: np.ndarray) -> str:
    """The ASCII text of ``slots`` with every NUL dropped."""
    return slots[slots != _NUL].tobytes().decode("ascii")


def _int_matrix(array: np.ndarray, newline: str) -> str:
    rows, cols = array.shape
    if not rows:
        return "[]"
    row_newline, entry_newline = newline + _INDENT, newline + 2 * _INDENT
    if not cols:
        return "[" + ",".join([row_newline + "[]"] * rows) + newline + "]"
    row_end = row_newline + "]," + row_newline + "[" + entry_newline
    text = _int_rows(array, ["," + entry_newline] * (cols - 1) + [row_end])
    return "[" + row_newline + "[" + entry_newline + text[: -len(row_end)] + row_newline + "]" + newline + "]"


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
        kinds = set(map(type, value))
        if kinds == {str} or kinds == {float}:
            text = map(_string, value) if str in kinds else _map_distinct(_float, value)
            parts.append("[" + inner + ("," + inner).join(text) + newline + "]")
            return
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
