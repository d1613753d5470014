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
UTF-8 when they are not all ASCII (block by block; invalid UTF-8 is
reported with its line), and to rewrite the line breaks to ``\n`` when
they hold a break of ``str.splitlines`` other than ``\n``.  Line and
comma positions come from numpy comparisons over that buffer.  Counts
prove the row shape when every data line has the header's width and
none is blank, and the field bounds are then slices of the one array of
separator positions; otherwise the field counts of all lines are checked
at once, and the first ragged line is named.  Each column is then coded
on its own by one vocabulary kernel (:func:`_factorize`): every field
becomes a little-endian key (its bytes in the low bytes and its length
in the top byte, or several words for labels past 7 bytes).  A column
with declared labels reads each field's code by one vectorized hash
probe of an open-addressing table of the labels, keyed the same way.
A column without them is sorted by key: byteswapped keys sort in
code-point order, so the distinct keys are the inferred labels in
order, each decoded from its key once.  The role columns are coded in
role order (match, hold, swap), so an undeclared label is reported for
the first column in that order and, within it, for the first row.
:func:`load_dataset` goes straight from those codes to the dataset;
:func:`read_csv_columns` expands them to lists of strings, and
:func:`cross_classify` encodes in-memory columns and feeds them to the
same kernel.
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
# the bytes after a buffer's last field, so that a key word read from a
# field's start stays inside the buffer
_PAD = bytes(8)
# the UTF-8 check decodes this many bytes at a time
_UTF8_BLOCK = 1 << 20
# _KEEP_LOW[k] keeps the k low bytes of a uint64 word
_KEEP_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# Fibonacci hashing: 2**64 over the golden ratio, odd
_MIX = np.uint64(0x9E3779B97F4A7C15)
# a hash table has at least this many slots per key (see CHANGES.md)
_TABLE_SPREAD = 8


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


def _check_utf8(raw: bytes, path: Union[str, Path]) -> None:
    """Raise :class:`LoadError` naming the line of the first byte of
    ``raw`` that is not UTF-8.

    The bytes are decoded in blocks of ``_UTF8_BLOCK`` bytes, each block's
    text dropped at once; a character split across two blocks is held
    over by the incremental decoder."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    view = memoryview(raw)
    for start in range(0, len(raw), _UTF8_BLOCK):
        held = len(decoder.getstate()[0])
        try:
            decoder.decode(view[start : start + _UTF8_BLOCK], start + _UTF8_BLOCK >= len(raw))
        except UnicodeDecodeError as exc:
            # the decoder reads its held bytes, then the block
            bad = start - held + exc.start
            lineno = len((raw[:bad].decode("utf-8") + "x").splitlines())
            raise LoadError(f"{path}:{lineno}: not valid UTF-8") from None


def _read_fields(path: Union[str, Path]) -> tuple[list[str], bytes, np.ndarray, np.ndarray]:
    """The header, the file's UTF-8 bytes, and the separator before each
    field and the one after it.

    ``before`` and ``ends`` are ``(columns, rows)`` arrays with one row
    per non-blank data line: field j of data line i is
    ``raw[before[j, i] + 1:ends[j, i]]``.  ``raw`` ends in eight NUL
    bytes after its last field, which :func:`_keys` reads past.
    """
    raw = Path(path).read_bytes()
    if raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8) :]
    if not raw:
        raise LoadError(f"{path}: missing header row")
    multibyte_break = False
    if not raw.isascii():
        _check_utf8(raw, path)
        multibyte_break = _has_utf8_break(raw)
    if multibyte_break or any(brk in raw for brk in _ASCII_BREAKS):
        raw = "\n".join(raw.decode("utf-8").splitlines()).encode("utf-8")
    # with a \n before the bytes and one after them, line k of the file
    # (the header is line 1) runs from the k-th \n to the next, and a file
    # that already ends in \n gains a blank last line
    raw = b"".join((b"\n", raw, b"\n", _PAD))
    data = np.frombuffer(raw, dtype=np.uint8)
    newline = data == ord("\n")
    seps = (newline | (data == ord(","))).nonzero()[0]
    # field f runs from seps[f] + 1 to seps[f + 1]
    header = raw[1 : raw.index(b"\n", 1)].decode("utf-8").split(",")
    if len(set(header)) != len(header):
        raise LoadError(f"{path}: duplicate column names in header")
    width = len(header)
    # the header ends at seps[width]; the data lines end at seps[stop - 1],
    # and a blank last line, if the file ends in a line break, at seps[stop]
    stop = len(seps) - (raw[-len(_PAD) - 2] == ord("\n"))
    rows, extra = divmod(stop - width - 1, width)
    # the data lines are all width fields long, and none is blank, when
    # their separators come in runs of width that each end in the run's
    # only \n; a line of one field is blank when it is empty
    if (
        not extra
        and newline[seps[2 * width : stop : width]].all()
        and np.count_nonzero(newline) == rows + 2 + (stop < len(seps))
        and (width > 1 or bool((seps[width + 1 : stop] - seps[width : stop - 1] > 1).all()))
    ):
        before, ends = seps[width : stop - 1], seps[width + 1 : stop]
        return header, raw, before.reshape(-1, width).T, ends.reshape(-1, width).T
    # line k ends at seps[line_ends[k]]
    line_ends = newline[seps].nonzero()[0]
    line_fields = line_ends[1:] - line_ends[:-1]
    breaks = seps[line_ends]
    filled = breaks[1:] - breaks[:-1] > 1
    filled[0] = False
    ragged = filled & (line_fields != width)
    line = ragged.argmax()
    if ragged[line]:
        raise LoadError(f"{path}:{line + 1}: expected {width} fields, got {line_fields[line]}")
    keep = filled.repeat(line_fields)
    before, ends = seps[:-1][keep], seps[1:][keep]
    return header, raw, before.reshape(-1, width).T, ends.reshape(-1, width).T


def _encode(values: Sequence[str]) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The UTF-8 bytes of ``values``, each after one separator byte (lone
    surrogates kept), and the separator before each value and its end,
    as :func:`_read_fields` gives them, padding included."""
    text = "," + ",".join(values)
    raw = b"".join((text.encode("utf-8", "surrogatepass"), _PAD))
    lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    ends = (lengths + 1).cumsum()
    before = ends - lengths - 1
    # character offsets are byte offsets exactly when the text is ASCII;
    # otherwise a character takes one byte, plus one for each of 0x80,
    # 0x800 and 0x10000 it reaches (a lone surrogate takes three)
    if len(raw) != len(text) + len(_PAD):
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        widths = np.ones(len(points), dtype=np.int8)
        for bound in (0x80, 0x800, 0x10000):
            widths += points >= bound
        offsets = np.concatenate(([0], widths.cumsum()))
        before, ends = offsets[before], offsets[ends]
    return raw, before, ends


def _keys(raw: bytes, before: np.ndarray, lengths: np.ndarray, n_words: int) -> np.ndarray:
    """The key of each slice ``raw[b + 1:b + 1 + length]``, as
    ``before.shape + (n_words,)`` little-endian words: the slice's bytes,
    zero padding, then its length, big-endian, in the last bytes.

    A key of one word holds the bytes in its low bytes and the length in
    its top byte; byteswapping a key's words gives big-endian words that
    order keys as their slices' code points, shorter slices first.
    ``raw`` holds at least eight bytes after every slice."""
    # element i of words is the eight bytes from byte i + 1 on
    words = np.ndarray((len(raw) - 8,), "<u8", raw, 1, (1,))
    keys = []
    for w in range(n_words):
        # a word past a slice's end keeps no byte, so where its offset
        # runs off the buffer any word will do
        key = words[before if w == 0 else np.minimum(before + 8 * w, len(words) - 1)]
        key &= _KEEP_LOW[lengths if n_words == 1 else np.clip(lengths - 8 * w, 0, 8)]
        keys.append(key)
    # lengths are non-negative, so their int64 bits are their uint64 bits
    keys[-1] |= lengths.view(np.uint64).byteswap()
    return keys[0][..., None] if n_words == 1 else np.stack(keys, axis=-1)


def _field_keys(raw: bytes, before: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, int]:
    """The keys (:func:`_keys`) of the fields ``raw[before + 1:ends]``,
    with as many words as the longest field needs, and the number of
    bytes a key's length takes."""
    lengths = ends - before
    lengths -= 1
    longest = int(np.maximum.reduce(lengths)) if lengths.size else 0
    length_bytes = max(1, -(-longest.bit_length() // 8))
    return _keys(raw, before, lengths, -(-(longest + length_bytes) // 8)), length_bytes


def _slots(keys: np.ndarray, shift: np.uint64) -> np.ndarray:
    """The home slot of each row of ``keys`` in a table of ``2**(64 - shift)``
    slots: the row's words folded by multiply and xor, top bits kept."""
    mixed = keys[:, 0] * _MIX
    for w in range(1, keys.shape[1]):
        mixed ^= keys[:, w]
        mixed *= _MIX
    mixed >>= shift
    return mixed.view(np.int64)


def _differ(vocab: np.ndarray, codes: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each row of ``keys`` differs from the row of ``vocab`` its
    code names."""
    if keys.shape[1] == 1:
        return vocab[:, 0][codes] != keys[:, 0]
    return (vocab[codes] != keys).any(axis=1)


def _lookup(keys: np.ndarray, vocab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row of ``vocab`` (distinct keys, a column's declared labels)
    equal to each row of ``keys``, and the rows that equal none (their
    code is arbitrary).

    ``vocab`` goes into an open-addressing table of at least
    ``_TABLE_SPREAD`` slots per key by vectorized linear probing: every
    key still unplaced tries its next slot, and of the keys that try one
    free slot, one takes it.  The lookup probes the same way, all rows at
    once, until each row finds its key or an empty slot."""
    size = len(vocab)
    if not size:
        return np.zeros(len(keys), dtype=np.int64), np.arange(len(keys))
    bits = (size * _TABLE_SPREAD - 1).bit_length()
    shift, mask = np.uint64(64 - bits), (1 << bits) - 1
    # an empty slot holds -1, which reads the last key: a row that reaches
    # an empty slot is not in the table, so it differs from that key too
    table = np.empty(mask + 1, dtype=np.int64)
    table.fill(-1)
    home = _slots(vocab, shift)
    rows = np.arange(size)
    table[home] = rows
    (pending,) = (table[home] != rows).nonzero()
    while len(pending):
        home[pending] = (home[pending] + 1) & mask
        at = home[pending]
        free = table[at] < 0
        table[at[free]] = pending[free]
        pending = pending[table[at] != pending]
    slot = _slots(keys, shift)
    codes = table[slot]
    (pending,) = _differ(vocab, codes, keys).nonzero()
    missed = []
    while len(pending):
        ended = codes[pending] < 0
        missed.append(pending[ended])
        pending = pending[~ended]
        slot[pending] = (slot[pending] + 1) & mask
        codes[pending] = table[slot[pending]]
        pending = pending[_differ(vocab, codes[pending], keys[pending])]
    return codes, np.concatenate(missed) if missed else pending


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``keys``, in the code-point order of their
    slices, and the index of each row's among them."""
    ranked = keys.byteswap()
    order = ranked[:, 0].argsort() if ranked.shape[1] == 1 else np.lexsort(ranked.T[::-1])
    ranked = ranked[order]
    first = np.ones(len(ranked), dtype=bool)
    np.logical_or.reduce(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = first.cumsum() - 1
    return keys[order[first]], inverse


def _labels(keys: np.ndarray, length_bytes: int) -> tuple[str, ...]:
    """The slice each key row holds, decoded."""
    blob, width = keys.astype("<u8").tobytes(), 8 * keys.shape[1]
    sizes = (keys[:, -1].byteswap() & np.uint64((1 << 8 * length_bytes) - 1)).tolist()
    return tuple(
        blob[k * width : k * width + size].decode("utf-8", "surrogatepass") for k, size in enumerate(sizes)
    )


def _factorize(
    keys: np.ndarray,
    length_bytes: int,
    declared: Union[tuple[str, ...], None] = None,
    column: str = "",
) -> tuple[np.ndarray, tuple[str, ...]]:
    """``(codes, labels)`` of one column of field keys, ``(rows, words)``
    as :func:`_field_keys` gives them.

    ``labels[codes[i]]`` is field i.

    - with ``declared`` labels, one hash probe of every key against the
      labels' keys (:func:`_lookup`) gives the codes, which index
      ``declared``, returned as ``labels``.  A field that is none of
      them raises :class:`LoadError` naming ``column`` (the first such
      field in row order);
    - otherwise the keys are sorted (:func:`_distinct`): ``labels`` holds
      each distinct field once, decoded from its key and in code-point
      order (the order of UTF-8 bytes, shorter first), as byteswapped
      keys sort.
    """
    if not len(keys):
        return np.zeros(0, dtype=np.int64), () if declared is None else declared
    if declared is None:
        vocab, codes = _distinct(keys)
        return codes, _labels(vocab, length_bytes)
    label_raw, label_before, label_ends = _encode(declared)
    label_lengths = label_ends - label_before - 1
    # a label longer than a key holds is longer than every field
    n_words = keys.shape[1]
    (fits,) = (label_lengths <= min(8 * n_words - length_bytes, (1 << 8 * length_bytes) - 1)).nonzero()
    codes, missed = _lookup(keys, _keys(label_raw, label_before[fits], label_lengths[fits], n_words))
    if len(missed):
        i = int(missed.min())
        (value,) = _labels(keys[i : i + 1], length_bytes)
        raise LoadError(f"column {column!r}: label {value!r} not in declared categories")
    return (codes if len(fits) == len(declared) else fits[codes]), declared


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
        codes, labels = _factorize(*_field_keys(raw, col_before, col_ends))
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

    The role columns are keyed and factorized one at a time, in role
    order, so only one column's keys are held and an undeclared label is
    reported for the first column in that order.  A role of several
    columns is one axis, later columns varying fastest: the code is
    ``sum(code_j * stride_j)``.
    """
    slices = dict(zip(names, zip(before, ends)))
    codes = np.zeros((before.shape[1], 3), dtype=np.int64)
    labels = []
    for axis, role in enumerate((roles.match, roles.hold, roles.swap)):
        per_col_cats = []
        for col in role:
            col_codes, cats = _factorize(*_field_keys(raw, *slices[col]), roles.categories.get(col), col)
            if per_col_cats:
                codes[:, axis] *= len(cats)
                codes[:, axis] += col_codes
            else:
                codes[:, axis] = col_codes
            per_col_cats.append(cats)
            # not held while the next column is coded
            del col_codes
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
