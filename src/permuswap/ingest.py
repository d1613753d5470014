"""CSV ingestion and role cross-classification.

The on-disk format is deliberately rigid so golden-file tests stay
byte-exact: comma-separated, UTF-8, header row required, no quoting.
Category labels containing commas (or newlines) are rejected when
writing; when reading, a stray comma simply shows up as a field-count
mismatch.

Role assignment comes from a JSON config mapping column names to the
three roles::

    {
      "match": ["state"],
      "hold":  ["ownership"],
      "swap":  ["county"],
      "categories": {"state": ["MA", "NY"]}     # optional, per column
    }

Every CSV column must be assigned to exactly one role.  ``hold`` and
``swap`` must be non-empty; ``match`` may be empty, in which case a
constant match axis of size one is used.  A column with a declared
category list rejects unseen labels; otherwise categories are inferred
and ordered lexicographically.  Multi-column roles are collapsed to a
single axis by the lexicographic product of the per-column indices,
with later columns varying fastest (two hold columns with 2 and 3
levels give H = 6 and index ``3*i1 + i2``).

The reader never makes a Python string per field.  It decodes the file
once (``utf-8-sig``, so a byte-order mark is dropped and invalid UTF-8
is reported with its line), rewrites the line breaks to ``\n`` only if
the text holds a break other than ``\n``, ``\r\n`` or ``\r``, and
encodes it back to one byte buffer.  Line and comma positions come from
numpy comparisons over that buffer, and the field counts of all lines
are checked at once.  Each column is then factorized over its byte
slices by one kernel (:func:`_factorize`): the fields are packed into
big-endian ``uint64`` sort keys, sorted, and each distinct label is
decoded once.  :func:`load_dataset` goes straight from those
``(inverse, labels)`` pairs to the category codes;
:func:`read_csv_columns` expands them to lists of strings, and
:func:`cross_classify` encodes in-memory columns and feeds them to the
same kernel.
"""

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .dataset import Dataset, DatasetSchema, Domain

__all__ = [
    "LoadError",
    "RoleAssignment",
    "load_roles",
    "read_csv_columns",
    "cross_classify",
    "load_dataset",
    "write_dataset_csv",
    "default_axis_labels",
]

COMPOSITE_LABEL_SEP = "|"
CONSTANT_MATCH_LABEL = "*"
# line breaks of str.splitlines other than \n, \r\n and \r
_OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class LoadError(ValueError):
    """Ingestion failure: bad roles config, bad CSV shape, or bad label."""


@dataclass(frozen=True)
class RoleAssignment:
    """Column-to-role mapping plus optional declared category lists."""

    match: tuple[str, ...]
    hold: tuple[str, ...]
    swap: tuple[str, ...]
    categories: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "match", tuple(self.match))
        object.__setattr__(self, "hold", tuple(self.hold))
        object.__setattr__(self, "swap", tuple(self.swap))
        object.__setattr__(
            self,
            "categories",
            {k: tuple(v) for k, v in dict(self.categories).items()},
        )
        if not self.hold:
            raise LoadError("roles.hold: at least one holding column is required")
        if not self.swap:
            raise LoadError("roles.swap: at least one swapping column is required")
        seen: set[str] = set()
        for role_name, cols in (
            ("match", self.match),
            ("hold", self.hold),
            ("swap", self.swap),
        ):
            for col in cols:
                if col in seen:
                    raise LoadError(
                        f"roles.{role_name}: column {col!r} assigned to more than one role"
                    )
                seen.add(col)
        for col, cats in self.categories.items():
            if len(set(cats)) != len(cats):
                raise LoadError(f"roles.categories.{col}: duplicate category labels")

    @property
    def all_columns(self) -> tuple[str, ...]:
        return self.match + self.hold + self.swap


def load_roles(path: Union[str, Path]) -> RoleAssignment:
    """Read a role-assignment config from JSON (a leading UTF-8
    byte-order mark is dropped)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError:
        raise LoadError(f"roles file {path}: not valid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise LoadError(f"roles file {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise LoadError(f"roles file {path}: top level must be an object")
    known = {"match", "hold", "swap", "categories"}
    for key in raw:
        if key not in known:
            raise LoadError(f"roles.{key}: unknown key")
    for key in ("hold", "swap"):
        if key not in raw:
            raise LoadError(f"roles.{key}: missing required key")
    for key in ("match", "hold", "swap"):
        val = raw.get(key, [])
        if not isinstance(val, list) or not all(isinstance(c, str) for c in val):
            raise LoadError(f"roles.{key}: must be a list of column names")
    cats = raw.get("categories", {})
    if not isinstance(cats, dict):
        raise LoadError("roles.categories: must be an object")
    for col, levels in cats.items():
        if not isinstance(levels, list) or not all(isinstance(v, str) for v in levels):
            raise LoadError(f"roles.categories.{col}: must be a list of labels")
    return RoleAssignment(
        match=tuple(raw.get("match", [])),
        hold=tuple(raw["hold"]),
        swap=tuple(raw["swap"]),
        categories={c: tuple(v) for c, v in cats.items()},
    )


def _read_fields(path: Union[str, Path]) -> tuple[list[str], bytes, np.ndarray, np.ndarray]:
    """The header, the file's UTF-8 bytes, and where each field starts and ends.

    ``starts`` and ``ends`` are ``(columns, rows)`` arrays with one row
    per non-blank data line: field j of data line i is
    ``raw[starts[j, i]:ends[j, i]]``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        lineno = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise LoadError(f"{path}:{lineno}: not valid UTF-8") from None
    if not text:
        raise LoadError(f"{path}: missing header row")
    # text mode already turned \r\n and \r into \n
    if any(brk in text for brk in _OTHER_BREAKS):
        text = "\n".join(text.splitlines())
    # with a \n before the text and one after it, line k of the file (the
    # header is line 1) runs from the k-th \n to the next, and a file that
    # already ends in \n gains a blank last line
    raw = b"".join((b"\n", text.encode("utf-8"), b"\n"))
    del text
    data = np.frombuffer(raw, dtype=np.uint8)
    newline = data == ord("\n")
    seps = (newline | (data == ord(","))).nonzero()[0]
    # field f runs from seps[f] + 1 to seps[f + 1]; line k ends at seps[line_ends[k]]
    line_ends = newline[seps].nonzero()[0]
    line_fields = line_ends[1:] - line_ends[:-1]
    header = raw[1 : seps[line_ends[1]]].decode("utf-8").split(",")
    if len(set(header)) != len(header):
        raise LoadError(f"{path}: duplicate column names in header")
    width = len(header)
    breaks = seps[line_ends]
    filled = breaks[1:] - breaks[:-1] > 1
    filled[0] = False
    ragged = filled & (line_fields != width)
    line = ragged.argmax()
    if ragged[line]:
        raise LoadError(f"{path}:{line + 1}: expected {width} fields, got {line_fields[line]}")
    keep = filled.repeat(line_fields)
    return (
        header,
        raw,
        (seps[:-1][keep] + 1).reshape(-1, width).T,
        seps[1:][keep].reshape(-1, width).T,
    )


# _KEEP_BYTES[k] keeps the k most significant bytes of a uint64 word
_KEEP_BYTES = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def _factorize(
    raw: bytes, starts: np.ndarray, ends: np.ndarray
) -> list[tuple[np.ndarray, tuple[str, ...]]]:
    """``(inverse, labels)`` for each column of byte slices ``raw[starts:ends]``.

    ``starts`` and ``ends`` are ``(columns, rows)`` arrays, and each
    column is factorized on its own: ``labels`` holds each distinct slice
    once, decoded and in code-point order (the order of UTF-8 bytes),
    and ``labels[inverse[i]]`` is slice i.  Each slice is packed into
    big-endian ``uint64`` words: its bytes, zero padding, then its
    length, so ``"a"`` sorts before ``"a\\x00"`` and ``"a\\x00"`` before
    ``"ab"``.  All columns share one pass of numpy calls, so a tiny
    input costs a fixed few dozen calls.
    """
    n_cols, n_rows = starts.shape
    if n_rows == 0:
        return [(np.zeros(0, dtype=np.int64), ())] * n_cols
    lengths = ends - starts
    longest = int(lengths.max())
    length_bytes = max(1, -(-longest.bit_length() // 8))
    n_words = -(-(longest + length_bytes) // 8)
    # row i of windows is the n_words words from byte offset i on
    padded = raw + bytes(8 * n_words)
    windows = np.ndarray((len(raw) + 1, n_words), ">u8", padded, 0, (1, 8))
    words = windows[starts].astype(np.uint64)
    for w in range(n_words):
        words[..., w] &= _KEEP_BYTES[np.minimum(np.maximum(lengths - 8 * w, 0), 8)]
    words[..., -1] |= lengths.astype(np.uint64)
    if n_words == 1:
        order = words[..., 0].argsort(axis=1)
    else:
        order = np.lexsort(words.transpose(2, 0, 1)[::-1], axis=1)
    # flat positions in (column, row) order
    order += np.arange(0, n_cols * n_rows, n_rows)[:, None]
    ranked = words.reshape(n_cols * n_rows, n_words)[order]
    first = np.ones((n_cols, n_rows), dtype=bool)
    np.logical_or.reduce(ranked[:, 1:] != ranked[:, :-1], axis=2, out=first[:, 1:])
    ranks = first.cumsum(axis=1)
    inverse = np.empty(n_cols * n_rows, dtype=np.int64)
    inverse[order] = ranks - 1
    heads = np.divmod(order[first], n_rows)
    labels = [
        raw[start:end].decode("utf-8", "surrogatepass")
        for start, end in zip(starts[heads].tolist(), ends[heads].tolist())
    ]
    cuts = ranks[:, -1].cumsum().tolist()
    return [
        (inverse[j * n_rows : (j + 1) * n_rows], tuple(labels[lo:hi]))
        for j, (lo, hi) in enumerate(zip([0, *cuts], cuts))
    ]


def _factorize_strings(
    columns: Sequence[Sequence[str]],
) -> list[tuple[np.ndarray, tuple[str, ...]]]:
    """:func:`_factorize` of equal-length in-memory columns (lone surrogates kept)."""
    text = "".join(itertools.chain.from_iterable(columns))
    raw = text.encode("utf-8", "surrogatepass")
    values = itertools.chain.from_iterable(columns)
    # one byte per character exactly when the text is ASCII
    if len(raw) == len(text):
        sizes = map(len, values)
    else:
        sizes = (len(value.encode("utf-8", "surrogatepass")) for value in values)
    lengths = np.fromiter(sizes, dtype=np.int64, count=sum(map(len, columns)))
    lengths = lengths.reshape(len(columns), -1)
    ends = lengths.cumsum().reshape(lengths.shape)
    return _factorize(raw, ends - lengths, ends)


def read_csv_columns(path: Union[str, Path]) -> dict[str, list[str]]:
    """Read an unquoted CSV into ordered columns keyed by header name.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is
    dropped, and every line break of ``str.splitlines`` (CRLF among
    them) ends a line.  Blank lines are skipped; error messages give
    1-based line numbers that count them.
    """
    header, raw, starts, ends = _read_fields(path)
    factors = _factorize(raw, starts, ends)
    return {
        name: np.array(labels, dtype=object)[inverse].tolist()
        for name, (inverse, labels) in zip(header, factors)
    }


def _check_columns(names: Sequence[str], roles: RoleAssignment) -> None:
    """Every role column is in the data, and every data column has a role."""
    for col in roles.all_columns:
        if col not in names:
            raise LoadError(f"column {col!r}: assigned a role but absent from the data")
    for col in names:
        if col not in roles.all_columns:
            raise LoadError(f"column {col!r}: present in the data but assigned no role")


def _column_codes(
    name: str, factors: tuple[np.ndarray, tuple[str, ...]], roles: RoleAssignment
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Category codes of one factorized column plus its category labels."""
    inverse, labels = factors
    declared = roles.categories.get(name)
    if declared is None:
        return inverse, labels
    lookup = {label: idx for idx, label in enumerate(declared)}
    remap = [lookup.get(label, -1) for label in labels]
    codes = np.array(remap, dtype=np.int64)[inverse]
    if -1 in remap:
        value = labels[inverse[np.argmax(codes < 0)]]
        raise LoadError(f"column {name!r}: label {value!r} not in declared categories")
    return codes, declared


def _axis(
    factors: Mapping[str, tuple[np.ndarray, tuple[str, ...]]],
    names: tuple[str, ...],
    roles: RoleAssignment,
    n_rows: int,
) -> tuple[int, np.ndarray, tuple[str, ...]]:
    """Collapse one role's columns to (size, per-row code, labels).

    Later columns vary fastest: the code is ``sum(code_j * stride_j)``.
    """
    if not names:
        return 1, np.zeros(n_rows, dtype=np.int64), (CONSTANT_MATCH_LABEL,)
    axis_codes = 0
    per_col_cats = []
    for col in names:
        codes, cats = _column_codes(col, factors[col], roles)
        axis_codes = axis_codes * len(cats) + codes
        per_col_cats.append(cats)
    labels = tuple(map(COMPOSITE_LABEL_SEP.join, itertools.product(*per_col_cats)))
    return len(labels), axis_codes, labels


def _classify(
    factors: Mapping[str, tuple[np.ndarray, tuple[str, ...]]],
    n_rows: int,
    roles: RoleAssignment,
) -> Dataset:
    """The (match, hold, swap) dataset of factorized role columns."""
    codes = np.empty((n_rows, 3), dtype=np.int64)
    m_size, codes[:, 0], m_labels = _axis(factors, roles.match, roles, n_rows)
    h_size, codes[:, 1], h_labels = _axis(factors, roles.hold, roles, n_rows)
    s_size, codes[:, 2], s_labels = _axis(factors, roles.swap, roles, n_rows)
    schema = DatasetSchema(
        match_columns=roles.match,
        hold_columns=roles.hold,
        swap_columns=roles.swap,
        match_labels=m_labels,
        hold_labels=h_labels,
        swap_labels=s_labels,
    )
    return Dataset(codes, Domain(m_size, h_size, s_size), schema)


def cross_classify(
    columns: Mapping[str, Sequence[str]], roles: RoleAssignment
) -> Dataset:
    """Collapse role columns into the (match, hold, swap) triple."""
    _check_columns(list(columns), roles)
    lengths = {len(vals) for vals in columns.values()}
    if len(lengths) > 1:
        raise LoadError("columns have unequal lengths")
    n_rows = lengths.pop() if lengths else 0
    factors = _factorize_strings(list(columns.values()))
    return _classify(dict(zip(columns, factors)), n_rows, roles)


def load_dataset(
    csv_path: Union[str, Path], roles: Union[RoleAssignment, str, Path]
) -> Dataset:
    """Read a CSV and cross-classify it in one step, with no string per field."""
    if not isinstance(roles, RoleAssignment):
        roles = load_roles(roles)
    header, raw, starts, ends = _read_fields(csv_path)
    _check_columns(header, roles)
    factors = _factorize(raw, starts, ends)
    return _classify(dict(zip(header, factors)), starts.shape[1], roles)


def default_axis_labels(prefix: str, size: int) -> tuple[str, ...]:
    """Zero-padded labels like ``h00``; lexicographic order matches index order."""
    width = max(1, len(str(max(size - 1, 0))))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(size))


def _check_label(value: str) -> str:
    # a line break is whatever str.splitlines, and so the reader, splits at
    if "," in value or value.splitlines() not in ([], [value]):
        raise LoadError(f"label {value!r}: commas and newlines are not writable")
    return value


def write_dataset_csv(x: Dataset, path: Union[str, Path]) -> None:
    """Write one record per line, under the header ``match,hold,swap``,
    using schema labels when available.

    Datasets without a schema get zero-padded default labels, which
    round-trip through :func:`load_dataset` with inferred categories
    (lexicographic label order equals index order).
    """
    schema = x.schema
    mx, hx, sx = x.domain
    m_labels = schema.match_labels if schema and schema.match_labels else default_axis_labels("m", mx)
    h_labels = schema.hold_labels if schema and schema.hold_labels else default_axis_labels("h", hx)
    s_labels = schema.swap_labels if schema and schema.swap_labels else default_axis_labels("s", sx)
    for labels in (m_labels, h_labels, s_labels):
        for value in labels:
            _check_label(value)
    columns = [
        np.array(labels, dtype=object)[x.codes[:, axis]].tolist()
        for axis, labels in enumerate((m_labels, h_labels, s_labels))
    ]
    rows = map(",".join, zip(*columns))
    text = "\n".join(itertools.chain(["match,hold,swap"], rows))
    Path(path).write_text(text + "\n", encoding="utf-8")
