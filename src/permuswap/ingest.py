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


def read_csv_columns(path: Union[str, Path]) -> dict[str, list[str]]:
    """Read an unquoted CSV into ordered columns keyed by header name.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is
    dropped, and CRLF line ends are accepted.  Blank lines are skipped;
    error messages give 1-based line numbers that count them.  Field
    counts are checked for all lines first, so the rows can be split in
    one pass and sliced into columns.
    """
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    if not lines:
        raise LoadError(f"{path}: missing header row")
    header = lines[0].split(",")
    if len(set(header)) != len(header):
        raise LoadError(f"{path}: duplicate column names in header")
    width = len(header)
    rows = list(filter(None, lines[1:]))
    if list(map(str.count, rows, itertools.repeat(","))).count(width - 1) != len(rows):
        for lineno, line in enumerate(lines[1:], start=2):
            if line and line.count(",") != width - 1:
                raise LoadError(
                    f"{path}:{lineno}: expected {width} fields, got {line.count(',') + 1}"
                )
    body = ",".join(rows)
    # free the per-line strings before splitting into per-field ones
    del lines, rows
    fields = body.split(",") if body else []
    return {name: fields[j::width] for j, name in enumerate(header)}


def _column_codes(
    name: str, values: Sequence[str], roles: RoleAssignment
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Category codes of one column plus its category labels."""
    seen = set(values)
    declared = roles.categories.get(name)
    if declared is None:
        cats = tuple(sorted(seen))
    else:
        unseen = seen.difference(declared)
        if unseen:
            value = next(v for v in values if v in unseen)
            raise LoadError(f"column {name!r}: label {value!r} not in declared categories")
        cats = declared
    lookup = {label: idx for idx, label in enumerate(cats)}
    codes = np.fromiter(map(lookup.__getitem__, values), dtype=np.int64, count=len(values))
    return codes, cats


def _axis(
    columns: Mapping[str, Sequence[str]],
    names: tuple[str, ...],
    roles: RoleAssignment,
    n_rows: int,
) -> tuple[int, np.ndarray, tuple[str, ...]]:
    """Collapse one role's columns to (size, per-row code, labels).

    Later columns vary fastest: the code is ``sum(code_j * stride_j)``.
    """
    if not names:
        return 1, np.zeros(n_rows, dtype=np.int64), (CONSTANT_MATCH_LABEL,)
    axis_codes = np.zeros(n_rows, dtype=np.int64)
    per_col_cats = []
    for col in names:
        codes, cats = _column_codes(col, columns[col], roles)
        axis_codes = axis_codes * len(cats) + codes
        per_col_cats.append(cats)
    labels = tuple(
        COMPOSITE_LABEL_SEP.join(parts)
        for parts in itertools.product(*per_col_cats)
    )
    return len(labels), axis_codes, labels


def cross_classify(
    columns: Mapping[str, Sequence[str]], roles: RoleAssignment
) -> Dataset:
    """Collapse role columns into the (match, hold, swap) triple."""
    for col in roles.all_columns:
        if col not in columns:
            raise LoadError(f"column {col!r}: assigned a role but absent from the data")
    for col in columns:
        if col not in roles.all_columns:
            raise LoadError(f"column {col!r}: present in the data but assigned no role")
    lengths = {len(vals) for vals in columns.values()}
    if len(lengths) > 1:
        raise LoadError("columns have unequal lengths")
    n_rows = lengths.pop() if lengths else 0

    m_size, m_codes, m_labels = _axis(columns, roles.match, roles, n_rows)
    h_size, h_codes, h_labels = _axis(columns, roles.hold, roles, n_rows)
    s_size, s_codes, s_labels = _axis(columns, roles.swap, roles, n_rows)
    schema = DatasetSchema(
        match_columns=roles.match,
        hold_columns=roles.hold,
        swap_columns=roles.swap,
        match_labels=m_labels,
        hold_labels=h_labels,
        swap_labels=s_labels,
    )
    codes = np.column_stack((m_codes, h_codes, s_codes))
    return Dataset(codes, Domain(m_size, h_size, s_size), schema)


def load_dataset(
    csv_path: Union[str, Path], roles: Union[RoleAssignment, str, Path]
) -> Dataset:
    """Read a CSV and cross-classify it in one step."""
    if not isinstance(roles, RoleAssignment):
        roles = load_roles(roles)
    return cross_classify(read_csv_columns(csv_path), roles)


def default_axis_labels(prefix: str, size: int) -> tuple[str, ...]:
    """Zero-padded labels like ``h00``; lexicographic order matches index order."""
    width = max(1, len(str(max(size - 1, 0))))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(size))


def _check_label(value: str) -> str:
    if "," in value or "\n" in value or "\r" in value:
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
