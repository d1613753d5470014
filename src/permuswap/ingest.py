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

The reader never makes a Python string per field.  It reads the file's
bytes once and drops a byte-order mark.  It decodes them only to check
UTF-8 when they are not all ASCII (invalid UTF-8 is reported with its
line), and to rewrite the line breaks to ``\n`` when they hold a break
of ``str.splitlines`` other than ``\n``.  Line and comma positions come
from numpy comparisons over that buffer, and the field counts of all lines
are checked at once; when no data line is blank, the field bounds are
slices of the one array of separator positions.  Each column is then
coded on its own by one vocabulary kernel (:func:`_factorize`): every
field is packed into a big-endian sort key (several words, viewed as one
fixed-width bytes item, for labels past 7 bytes), the vocabulary is the
declared labels packed the same way or the distinct keys, sorted, and
one ``searchsorted`` reads every field's code.  Declared codes come out
directly, and inferred labels are decoded from their keys, once each.
The role columns are coded in role order (match, hold, swap), so an
undeclared label is reported for the first column in that order and,
within it, for the first row.  :func:`load_dataset` goes straight from
those codes to the dataset; :func:`read_csv_columns` expands them to
lists of strings, and :func:`cross_classify` encodes in-memory columns
and feeds them to the same kernel.
"""

import codecs
import itertools
import json
import os
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
# the ASCII line breaks of str.splitlines other than \n; the others are
# NEL, U+2028 and U+2029 (see _has_utf8_break)
_ASCII_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


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


def _has_utf8_break(raw: bytes) -> bool:
    """Whether valid UTF-8 ``raw`` holds NEL (C2 85), U+2028 (E2 80 A8) or
    U+2029 (E2 80 A9).

    One pass reads the bytes as little-endian 16-bit pairs, at each of
    the two alignments, for C2 85 and for 80 A8 or 80 A9; a pair of the
    second kind is a break when 0xE2 comes before it."""
    data = np.frombuffer(raw, dtype=np.uint8)
    for offset in (0, 1):
        pairs = data[offset:]
        pairs = pairs[: len(pairs) // 2 * 2].view("<u2")
        if (pairs == 0x85C2).any():
            return True
        (at,) = ((pairs | 0x100) == 0xA980).nonzero()
        # 0x80 continues a character, so a byte comes before it
        if (data[2 * at + offset - 1] == 0xE2).any():
            return True
    return False


def _read_fields(path: Union[str, Path]) -> tuple[list[str], bytes, np.ndarray, np.ndarray]:
    """The header, the file's UTF-8 bytes, and the separator before each
    field and the one after it.

    ``before`` and ``ends`` are ``(columns, rows)`` arrays with one row
    per non-blank data line: field j of data line i is
    ``raw[before[j, i] + 1:ends[j, i]]``.
    """
    raw = Path(path).read_bytes()
    if raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8) :]
    if not raw:
        raise LoadError(f"{path}: missing header row")
    multibyte_break = False
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
            raise LoadError(f"{path}:{lineno}: not valid UTF-8") from None
        multibyte_break = _has_utf8_break(raw)
    if multibyte_break or any(brk in raw for brk in _ASCII_BREAKS):
        raw = "\n".join(raw.decode("utf-8").splitlines()).encode("utf-8")
    # with a \n before the bytes and one after them, line k of the file
    # (the header is line 1) runs from the k-th \n to the next, and a file
    # that already ends in \n gains a blank last line
    raw = b"".join((b"\n", raw, b"\n"))
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
    rows = int(np.count_nonzero(filled))
    if filled[1 : rows + 1].all():
        # no blank line before the last data line: the data fields are
        # one run of seps, so both bounds are slices of it
        lo, hi = line_ends[1], line_ends[rows + 1]
        before, ends = seps[lo:hi], seps[lo + 1 : hi + 1]
    else:
        keep = filled.repeat(line_fields)
        before, ends = seps[:-1][keep], seps[1:][keep]
    return header, raw, before.reshape(-1, width).T, ends.reshape(-1, width).T


# _KEEP_BYTES[k] keeps the k most significant bytes of a uint64 word
_KEEP_BYTES = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def _encode(values: Sequence[str]) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The UTF-8 bytes of ``values``, each after one separator byte (lone
    surrogates kept), and the separator before each value and its end,
    as :func:`_read_fields` gives them."""
    text = "," + ",".join(values)
    raw = text.encode("utf-8", "surrogatepass")
    lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    ends = (lengths + 1).cumsum()
    before = ends - lengths - 1
    # character offsets are byte offsets exactly when the text is ASCII;
    # otherwise a character takes one byte, plus one for each of 0x80,
    # 0x800 and 0x10000 it reaches (a lone surrogate takes three)
    if len(raw) != len(text):
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        widths = np.ones(len(points), dtype=np.int8)
        for bound in (0x80, 0x800, 0x10000):
            widths += points >= bound
        offsets = np.concatenate(([0], widths.cumsum()))
        before, ends = offsets[before], offsets[ends]
    return raw, before, ends


def _keys(raw: bytes, before: np.ndarray, lengths: np.ndarray, n_words: int) -> np.ndarray:
    """The sort key of each slice ``raw[b + 1:b + 1 + length]``: its bytes,
    zero padding, then its length in the last bytes, as an ``(n, n_words)``
    array of big-endian word values."""
    padded = raw + bytes(8 * n_words)
    # row i of windows is the n_words words from byte offset i + 1 on
    windows = np.ndarray((len(raw), n_words), ">u8", padded, 1, (1, 8))
    # the gathered words in native order, in place
    words = windows[before].byteswap(inplace=True).view(np.uint64)
    for w in range(n_words):
        kept = lengths if n_words == 1 else np.clip(lengths - 8 * w, 0, 8)
        words[:, w] &= _KEEP_BYTES[kept]
    # lengths are non-negative, so their int64 bits are their uint64 bits
    words[:, -1] |= lengths.view(np.uint64)
    return words


def _items(words: np.ndarray) -> np.ndarray:
    """One comparable item per row of key words: the word itself, or the
    words viewed as one fixed-width bytes item, which numpy orders byte
    by byte."""
    if words.shape[1] == 1:
        return words[:, 0]
    return words.astype(">u8").view(f"S{8 * words.shape[1]}")[:, 0]


def _factorize(
    raw: bytes,
    before: np.ndarray,
    ends: np.ndarray,
    declared: Union[tuple[str, ...], None] = None,
    column: str = "",
) -> tuple[np.ndarray, tuple[str, ...]]:
    """``(codes, labels)`` of one column of byte slices ``raw[before + 1:ends]``.

    ``labels[codes[i]]`` is slice i.  Each slice is packed into its key
    (:func:`_keys`), so ``"a"`` sorts before ``"a\\x00"`` and
    ``"a\\x00"`` before ``"ab"``, and labels of more than 7 bytes take
    several words.  The vocabulary is sorted keys, and one
    ``searchsorted`` reads every slice's code from it:

    - with ``declared`` labels, the vocabulary is their keys, so the
      codes index ``declared``, which is returned as ``labels``.  A slice
      that is none of them raises :class:`LoadError` naming ``column``
      (the first such slice in row order);
    - otherwise it is the distinct keys, and ``labels`` holds each
      distinct slice once, decoded from its key and in code-point order
      (the order of UTF-8 bytes).
    """
    if not len(before):
        return np.zeros(0, dtype=np.int64), () if declared is None else declared
    lengths = ends - before
    lengths -= 1
    longest = int(lengths.max())
    length_bytes = max(1, -(-longest.bit_length() // 8))
    n_words = -(-(longest + length_bytes) // 8)
    words = _keys(raw, before, lengths, n_words)
    keys = _items(words)
    if declared is None:
        # ordering several words one at a time (lexsort) is several times
        # faster than sorting them as bytes items
        ranked = np.sort(words, axis=0) if n_words == 1 else words[np.lexsort(words.T[::-1])]
        distinct = np.ones(len(ranked), dtype=bool)
        np.logical_or.reduce(ranked[1:] != ranked[:-1], axis=1, out=distinct[1:])
        vocab = ranked[distinct]
        # a key holds its label's bytes first and the label's length last
        blob, width = vocab.astype(">u8").tobytes(), 8 * n_words
        sizes = (vocab[:, -1] & ((1 << 8 * length_bytes) - 1)).tolist()
        labels = (blob[k * width : k * width + size] for k, size in enumerate(sizes))
        return _items(vocab).searchsorted(keys), tuple(label.decode("utf-8", "surrogatepass") for label in labels)
    label_raw, label_before, label_ends = _encode(declared)
    label_lengths = label_ends - label_before - 1
    # a label longer than every slice matches none of them
    (fits,) = (label_lengths <= longest).nonzero()
    label_keys = _items(_keys(label_raw, label_before[fits], label_lengths[fits], n_words))
    order = label_keys.argsort()
    vocab = label_keys[order]
    at = vocab.searchsorted(keys)
    if len(vocab):
        np.minimum(at, len(vocab) - 1, out=at)
        hit = vocab[at] == keys
    else:
        hit = np.zeros(len(keys), dtype=bool)
    if not hit.all():
        i = int(hit.argmin())
        value = raw[before[i] + 1 : ends[i]].decode("utf-8", "surrogatepass")
        raise LoadError(f"column {column!r}: label {value!r} not in declared categories")
    return fits[order][at], declared


def read_csv_columns(path: Union[str, Path]) -> dict[str, list[str]]:
    """Read an unquoted CSV into ordered columns keyed by header name.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is
    dropped, and every line break of ``str.splitlines`` (CRLF among
    them) ends a line.  Blank lines are skipped; error messages give
    1-based line numbers that count them.
    """
    header, raw, before, ends = _read_fields(path)
    columns = {}
    for name, col_before, col_ends in zip(header, before, ends):
        codes, labels = _factorize(raw, col_before, col_ends)
        columns[name] = np.array(labels, dtype=object)[codes].tolist()
    return columns


def _check_columns(names: Sequence[str], roles: RoleAssignment) -> None:
    """Every role column is in the data, and every data column has a role."""
    for col in roles.all_columns:
        if col not in names:
            raise LoadError(f"column {col!r}: assigned a role but absent from the data")
    for col in names:
        if col not in roles.all_columns:
            raise LoadError(f"column {col!r}: present in the data but assigned no role")


def _classify(
    raw: bytes, before: np.ndarray, ends: np.ndarray, names: Sequence[str], roles: RoleAssignment
) -> Dataset:
    """The (match, hold, swap) dataset of the columns of byte slices
    ``raw[before + 1:ends]`` named ``names``.

    The role columns are factorized in role order, so an undeclared
    label is reported for the first column in that order.  A role of
    several columns is one axis, later columns varying fastest: the
    code is ``sum(code_j * stride_j)``.
    """
    slices = dict(zip(names, zip(before, ends)))
    codes = np.zeros((before.shape[1], 3), dtype=np.int64)
    labels = []
    for axis, role in enumerate((roles.match, roles.hold, roles.swap)):
        per_col_cats = []
        for col in role:
            col_codes, cats = _factorize(raw, *slices[col], roles.categories.get(col), col)
            codes[:, axis] *= len(cats)
            codes[:, axis] += col_codes
            per_col_cats.append(cats)
        product = map(COMPOSITE_LABEL_SEP.join, itertools.product(*per_col_cats))
        labels.append(tuple(product) if role else (CONSTANT_MATCH_LABEL,))
    schema = DatasetSchema(roles.match, roles.hold, roles.swap, *labels)
    return Dataset._from_codes(codes, Domain(*map(len, labels)), schema)


def cross_classify(
    columns: Mapping[str, Sequence[str]], roles: RoleAssignment
) -> Dataset:
    """Collapse role columns into the (match, hold, swap) triple."""
    _check_columns(list(columns), roles)
    lengths = {len(vals) for vals in columns.values()}
    if len(lengths) > 1:
        raise LoadError("columns have unequal lengths")
    raw, before, ends = _encode(list(itertools.chain.from_iterable(columns.values())))
    shape = (len(columns), lengths.pop() if lengths else 0)
    return _classify(raw, before.reshape(shape), ends.reshape(shape), list(columns), roles)


def load_dataset(
    csv_path: Union[str, Path], roles: Union[RoleAssignment, str, Path]
) -> Dataset:
    """Read a CSV and cross-classify it in one step, with no string per field."""
    if not isinstance(roles, RoleAssignment):
        roles = load_roles(roles)
    header, raw, before, ends = _read_fields(csv_path)
    _check_columns(header, roles)
    return _classify(raw, before, ends, header, roles)


def default_axis_labels(prefix: str, size: int) -> tuple[str, ...]:
    """Zero-padded labels like ``h00``; lexicographic order matches index order."""
    width = max(1, len(str(max(size - 1, 0))))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(size))


def _check_label(value: str) -> str:
    # a line break is whatever str.splitlines, and so the reader, splits at
    if "," in value or value.splitlines() not in ([], [value]):
        raise LoadError(f"label {value!r}: commas and newlines are not writable")
    return value


def _label_block(labels: Sequence[str], sep: bytes) -> tuple[np.ndarray, list[int]]:
    """One ``(len(labels), width)`` uint8 row per label: its UTF-8 bytes,
    then ``sep``, then zero padding; and the length of each row's bytes
    before the padding."""
    encoded = [label.encode("utf-8") + sep for label in labels]
    lengths = list(map(len, encoded))
    width = max(lengths, default=len(sep))
    block = np.frombuffer(b"".join(row.ljust(width, b"\0") for row in encoded), dtype=np.uint8)
    return block.reshape(len(encoded), width), lengths


def write_dataset_csv(x: Dataset, path: Union[str, Path]) -> None:
    """Write one record per line, under the header ``match,hold,swap``,
    using schema labels when available.

    Datasets without a schema get zero-padded default labels, which
    round-trip through :func:`load_dataset` with inferred categories
    (lexicographic label order equals index order).

    Each axis's labels become one byte block (:func:`_label_block`), and
    the records' lines are their rows gathered side by side; when a block
    holds labels of several widths, one length mask drops the padding.
    Lines end in ``os.linesep``, as a text-mode write ends them.
    """
    schema = x.schema
    mx, hx, sx = x.domain
    m_labels = schema.match_labels if schema and schema.match_labels else default_axis_labels("m", mx)
    h_labels = schema.hold_labels if schema and schema.hold_labels else default_axis_labels("h", hx)
    s_labels = schema.swap_labels if schema and schema.swap_labels else default_axis_labels("s", sx)
    axes = (m_labels, h_labels, s_labels)
    for labels in axes:
        for value in labels:
            _check_label(value)
    newline = os.linesep.encode()
    try:
        blocks = [_label_block(labels, sep) for labels, sep in zip(axes, (b",", b",", newline))]
    except UnicodeEncodeError:
        # a lone surrogate: the text write fails at its first record, as
        # the encoder reports it, or writes the file if no record holds it
        columns = [np.array(labels, dtype=object)[x.codes[:, axis]].tolist() for axis, labels in enumerate(axes)]
        text = "\n".join(itertools.chain(["match,hold,swap"], map(",".join, zip(*columns))))
        Path(path).write_text(text + "\n", encoding="utf-8")
        return
    lines = np.concatenate([block.take(x.codes[:, axis], axis=0) for axis, (block, _) in enumerate(blocks)], axis=1)
    if any(min(lengths, default=0) < block.shape[1] for block, lengths in blocks):
        keep = np.concatenate(
            [
                np.arange(block.shape[1]) < np.array(lengths)[x.codes[:, axis], None]
                for axis, (block, lengths) in enumerate(blocks)
            ],
            axis=1,
        )
        lines = lines[keep]
    with open(path, "wb") as out:
        out.write(b"match,hold,swap" + newline)
        out.write(lines)
