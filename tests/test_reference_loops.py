"""The columnar code and the exact oracle against the loops they replaced.

Each ``ref_*`` function below is the loop version of a library function
(for the stratum bound b, the table reading that the margin formula
replaced), kept here as the reference.  The arithmetic is integer counting,
indexing and exact rationals in both, so results must be exactly equal,
on random small datasets that include zero-size axes.
"""

import dataclasses
import itertools
import math
import operator
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permuswap import (
    ContingencyTable,
    Dataset,
    DatasetSchema,
    Domain,
    ExactDistribution,
    LoadError,
    Permutation,
    PsaParams,
    Record,
    RoleAssignment,
    apply_permutation,
    connecting_permutation,
    cross_classify,
    dataset_from_table,
    enumerate_universe,
    exact_psa_distribution,
    hamming_distance,
    load_dataset,
    load_roles,
    mape,
    max_probability_ratio,
    max_stratum_b,
    measured_optimal_epsilon,
    read_csv_columns,
    run_psa,
    run_psa_details,
    same_universe,
    sample_derangement,
    select_records,
    stratum_permutation_prob,
    swap_invariants,
    tabulate,
    utility_experiment,
    verify_dp,
    write_dataset_csv,
)
from permuswap.budget import LowerBound, derangement_count, psa_budget
from permuswap import cli, exact, swapping, synth, utility
from permuswap.dataset import SwapInvariants, invariant_stratum_bound, stratum_indices
from permuswap.exact import (
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationBudgetError,
    LOG_SLACK,
    SweepReport,
    UniverseCheck,
    UniverseReport,
    dp_sweep,
    enumerate_small_datasets,
    universe_report,
)
from permuswap.swapping import to_exact_rate
from permuswap.ingest import (
    COMPOSITE_LABEL_SEP,
    CONSTANT_MATCH_LABEL,
    _check_label,
    _encode,
    _factorize,
    _field_keys,
    _has_utf8_break,
    _read_fields,
    default_axis_labels,
)
from permuswap import ingest
from permuswap.synth import StratumSpec, synthesize
from permuswap.utility import QUARTILE_RULE, ZERO_CELL_RULE, UtilityReport, _summarize

from conftest import FIXTURES, load_fixture
from test_pinned_outputs import SWEEP_PINS, SWEEP_RATES, _sha

# ---------------------------------------------------------------------------
# reference loops


def ref_tabulate(records, domain):
    counts = np.zeros(tuple(domain), dtype=np.int64)
    for m, h, s in records:
        counts[m, h, s] += 1
    return counts


def ref_stratum_indices(records, domain):
    groups = {m: [] for m in range(domain[0])}
    for i, rec in enumerate(records):
        groups[rec[0]].append(i)
    return groups


def ref_max_stratum_b(counts):
    """b read off the table: the largest stratum whose peak cell holds
    fewer than all of its records."""
    sizes = counts.sum(axis=(1, 2))
    peaks = counts.max(axis=(1, 2), initial=0)
    mixed = (sizes >= 2) & (peaks < sizes)
    return int(sizes[mixed].max(initial=0))


def ref_dataset_from_table(counts):
    records = []
    for m, h, s in np.argwhere(counts):
        records.extend([Record(int(m), int(h), int(s))] * int(counts[m, h, s]))
    return records


def ref_equal(a_records, a_domain, b_records, b_domain):
    return tuple(a_domain) == tuple(b_domain) and sorted(map(tuple, a_records)) == sorted(
        map(tuple, b_records)
    )


def ref_axis(columns, names, categories, n_rows):
    if not names:
        return 1, [0] * n_rows, (CONSTANT_MATCH_LABEL,)
    per_col_cats = []
    for name in names:
        declared = categories.get(name)
        if declared is None:
            per_col_cats.append(tuple(sorted(set(columns[name]))))
            continue
        for value in columns[name]:
            if value not in declared:
                raise LoadError(f"column {name!r}: label {value!r} not in declared categories")
        per_col_cats.append(tuple(declared))
    sizes = [len(cats) for cats in per_col_cats]
    strides = [1] * len(names)
    for i in range(len(names) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    positions = [{label: idx for idx, label in enumerate(cats)} for cats in per_col_cats]
    indices = []
    for row in range(n_rows):
        code = 0
        for j, col in enumerate(names):
            code += positions[j][columns[col][row]] * strides[j]
        indices.append(code)
    labels = tuple(COMPOSITE_LABEL_SEP.join(p) for p in itertools.product(*per_col_cats))
    return int(np.prod(sizes)), indices, labels


def ref_cross_classify(columns, roles):
    n_rows = len(next(iter(columns.values())))
    axes = [
        ref_axis(columns, names, roles.categories, n_rows)
        for names in (roles.match, roles.hold, roles.swap)
    ]
    records = [Record(*codes) for codes in zip(*(axis[1] for axis in axes))]
    return records, Domain(*(axis[0] for axis in axes)), tuple(axis[2] for axis in axes)


def ref_read_csv_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise LoadError(f"{path}: missing header row")
    header = lines[0].split(",")
    if len(set(header)) != len(header):
        raise LoadError(f"{path}: duplicate column names in header")
    columns = {name: [] for name in header}
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise LoadError(f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}")
        for name, value in zip(header, fields):
            columns[name].append(value)
    return columns


# _KEEP_BYTES[k] keeps the k most significant bytes of a uint64 word
_KEEP_BYTES = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def ref_factorize(raw, starts, ends):
    """The sort-and-scatter factorizer the vocabulary kernel replaced:
    ``(inverse, labels)`` for each column of byte slices
    ``raw[starts:ends]``, given as ``(columns, rows)`` arrays.  Each slice
    is packed into big-endian words (its bytes, zero padding, then its
    length), the columns are sorted together, and each distinct slice is
    decoded once, in code-point order."""
    n_cols, n_rows = starts.shape
    if n_rows == 0:
        return [(np.zeros(0, dtype=np.int64), ())] * n_cols
    lengths = ends - starts
    longest = int(lengths.max())
    length_bytes = max(1, -(-longest.bit_length() // 8))
    n_words = -(-(longest + length_bytes) // 8)
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


def ref_sort_keys(raw, before, lengths, n_words):
    """The big-endian sort key of each slice ``raw[b + 1:b + 1 + length]``:
    its bytes, zero padding, then its length in the last bytes."""
    padded = raw + bytes(8 * n_words)
    # row i of windows is the n_words words from byte offset i + 1 on
    windows = np.ndarray((len(raw), n_words), ">u8", padded, 1, (1, 8))
    words = windows[before].byteswap(inplace=True).view(np.uint64)
    for w in range(n_words):
        kept = lengths if n_words == 1 else np.clip(lengths - 8 * w, 0, 8)
        words[:, w] &= _KEEP_BYTES[kept]
    words[:, -1] |= lengths.view(np.uint64)
    return words


def ref_sort_items(words):
    """One comparable item per row of key words: the word, or the words
    as one fixed-width bytes item, which numpy orders byte by byte."""
    if words.shape[1] == 1:
        return words[:, 0]
    return words.astype(">u8").view(f"S{8 * words.shape[1]}")[:, 0]


def ref_vocabulary_factorize(raw, before, ends, declared=None, column=""):
    """The vocabulary kernel the hash probe replaced: ``(codes, labels)``
    of one column of byte slices ``raw[before + 1:ends]``.  The vocabulary
    is the sorted sort keys of the declared labels, or of the distinct
    slices, and one ``searchsorted`` reads every slice's code."""
    if not len(before):
        return np.zeros(0, dtype=np.int64), () if declared is None else declared
    lengths = ends - before - 1
    longest = int(lengths.max())
    length_bytes = max(1, -(-longest.bit_length() // 8))
    n_words = -(-(longest + length_bytes) // 8)
    words = ref_sort_keys(raw, before, lengths, n_words)
    keys = ref_sort_items(words)
    if declared is None:
        ranked = np.sort(words, axis=0) if n_words == 1 else words[np.lexsort(words.T[::-1])]
        distinct = np.ones(len(ranked), dtype=bool)
        np.logical_or.reduce(ranked[1:] != ranked[:-1], axis=1, out=distinct[1:])
        vocab = ranked[distinct]
        blob, width = vocab.astype(">u8").tobytes(), 8 * n_words
        sizes = (vocab[:, -1] & ((1 << 8 * length_bytes) - 1)).tolist()
        labels = (blob[k * width : k * width + size] for k, size in enumerate(sizes))
        return ref_sort_items(vocab).searchsorted(keys), tuple(
            label.decode("utf-8", "surrogatepass") for label in labels
        )
    label_raw, label_before, label_ends = _encode(declared)
    label_lengths = label_ends - label_before - 1
    (fits,) = (label_lengths <= longest).nonzero()
    label_keys = ref_sort_items(ref_sort_keys(label_raw, label_before[fits], label_lengths[fits], n_words))
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


def ref_column_codes(name, factors, declared):
    """The remap from a factorized column's labels to declared codes."""
    inverse, labels = factors
    if declared is None:
        return inverse, labels
    lookup = {label: idx for idx, label in enumerate(declared)}
    remap = [lookup.get(label, -1) for label in labels]
    codes = np.array(remap, dtype=np.int64)[inverse]
    if -1 in remap:
        value = labels[inverse[np.argmax(codes < 0)]]
        raise LoadError(f"column {name!r}: label {value!r} not in declared categories")
    return codes, declared


def ref_domain_check(records, domain):
    """The first record outside the domain, named as ``Dataset`` names it."""
    for i, record in enumerate(records):
        if any(not 0 <= c < n for c, n in zip(record, domain)):
            raise ValueError(f"record {i} = {tuple(record)} outside domain {tuple(domain)}")


def ref_permuted_records(records, mapping):
    """Record i takes the swap value of record mapping[i]."""
    return [(m, h, records[g][2]) for (m, h, _), g in zip(records, mapping)]


def ref_write_lines(records, labels, column_names=("match", "hold", "swap")):
    lines = [",".join(column_names)]
    for m, h, s in records:
        lines.append(f"{labels[0][m]},{labels[1][h]},{labels[2][s]}")
    return "\n".join(lines) + "\n"


def ref_write_dataset_csv(x, path):
    """The text writer the byte-block writer replaced: one joined line
    per record, written in text mode."""
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


def ref_count_table_text(table):
    """The swap command's count table as one ``%``-format over every
    (m, h, s, count) int."""
    counts = table.counts
    rows = np.column_stack((*np.indices(counts.shape).reshape(3, -1), counts.ravel()))
    return "m,h,s,count\n" + "%d,%d,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist())


def ref_stratum_hs_distribution(records_m, domain, rate):
    """Output law of one stratum as flattened H x S count tuples, by
    walking all n! permutations."""
    n = len(records_m)
    hx, sx = domain.hold, domain.swap
    holds = [r.h for r in records_m]
    swaps = [r.s for r in records_m]

    def table_key(perm):
        cells = [0] * (hx * sx)
        for i in range(n):
            cells[holds[i] * sx + swaps[perm[i]]] += 1
        return tuple(cells)

    result = {}
    if rate == 0:
        result[table_key(range(n))] = Fraction(1)
        return result
    if rate == 1:
        weight = Fraction(1, derangement_count(n))
        for perm in itertools.permutations(range(n)):
            if any(perm[i] == i for i in range(n)):
                continue
            key = table_key(perm)
            result[key] = result.get(key, Fraction(0)) + weight
        return result
    weights = {}
    for perm in itertools.permutations(range(n)):
        k = sum(1 for i in range(n) if perm[i] != i)
        if k not in weights:
            weights[k] = stratum_permutation_prob(k, n, rate)
        key = table_key(perm)
        result[key] = result.get(key, Fraction(0)) + weights[k]
    return result


def ref_exact_distribution(x, rate):
    """The whole dataset's law: strata of two or more records are
    independent, and the rest keep their counts."""
    domain = x.domain
    active = [(m, idx) for m, idx in sorted(stratum_indices(x).items()) if len(idx) >= 2]
    active_set = {m for m, _ in active}
    base = [0] * domain.cells
    for rec in x.records:
        if rec.m not in active_set:
            base[(rec.m * domain.hold + rec.h) * domain.swap + rec.s] += 1
    stratum_dists = [
        ref_stratum_hs_distribution([x.records[i] for i in idx], domain, rate) for _, idx in active
    ]
    cells = domain.hold * domain.swap
    probs = {}
    for combo in itertools.product(*(d.items() for d in stratum_dists)):
        flat = list(base)
        prob = Fraction(1)
        for (m, _), (skey, weight) in zip(active, combo):
            prob *= weight
            for c, cnt in enumerate(skey):
                flat[m * cells + c] += cnt
        key = tuple(flat)
        probs[key] = probs.get(key, Fraction(0)) + prob
    return probs


def ref_max_probability_ratio(p_dist, q_dist):
    """max_probability_ratio as a loop over the atoms in key order, in
    Fraction arithmetic: the first key of the largest ratio wins."""
    if p_dist.domain != q_dist.domain:
        raise ValueError("distributions live over different domains")
    if set(p_dist.probs) != set(q_dist.probs):
        return None
    keys = sorted(p_dist.probs)
    best = Fraction(1)
    witness = keys[0]
    for key in keys:
        pv, qv = p_dist.probs[key], q_dist.probs[key]
        ratio = pv / qv if pv >= qv else qv / pv
        if ratio > best:
            best, witness = ratio, key
    return best, witness


def ref_universe_keys(x):
    """Canonical keys of every table sharing x's margins, sorted, found
    by tabulating every dataset of len(x) records over x's domain."""
    table = tabulate(x)
    cells = list(itertools.product(*map(range, x.domain)))
    keys = set()
    for combo in itertools.combinations_with_replacement(cells, len(x)):
        other = tabulate(Dataset(combo, x.domain))
        if same_universe(table, other):
            keys.add(other.canonical_key())
    return sorted(keys)


def ref_tables_with_margins(row_sums, col_sums, max_tables):
    """All non-negative integer H x S tables with the given margins,
    flattened row-major, in lexicographic order: each free cell counts
    up, and a row's last cell is set by the ones before it."""
    hx, sx = len(row_sums), len(col_sums)
    if sum(row_sums) != sum(col_sums):
        return []
    grid = [0] * (hx * sx)
    col_rem = list(col_sums)
    results = []

    def fill_row(h):
        if h == hx:
            results.append(tuple(grid))
            if len(results) > max_tables:
                raise EnumerationBudgetError(
                    f"margin-constrained tables exceed the budget of {max_tables}"
                )
            return

        def fill_cell(s, remaining):
            if s == sx - 1:
                if remaining <= col_rem[s]:
                    grid[h * sx + s] = remaining
                    col_rem[s] -= remaining
                    fill_row(h + 1)
                    col_rem[s] += remaining
                    grid[h * sx + s] = 0
                return
            for v in range(min(remaining, col_rem[s]) + 1):
                grid[h * sx + s] = v
                col_rem[s] -= v
                fill_cell(s + 1, remaining - v)
                col_rem[s] += v
                grid[h * sx + s] = 0

        if sx == 0:
            if row_sums[h] == 0:
                fill_row(h + 1)
            return
        fill_cell(0, row_sums[h])

    fill_row(0)
    return results


def ref_row_polynomial(row, target):
    """One hold row's polynomial, given its input and output row of one
    total: over the S x S flows with those row and column sums, the
    product of each flow row's multinomial, summed by the flow's
    diagonal read as digits in base sum(row) + 1."""
    size, radix = len(row), sum(row) + 1
    poly = {}
    for flow in ref_tables_with_margins(row, target, 10**6):
        cells = [flow[lo : lo + size] for lo in range(0, size * size, size)]
        ways = math.prod(math.factorial(sum(cell)) // math.prod(map(math.factorial, cell)) for cell in cells)
        key = sum(cells[s][s] * radix**s for s in range(size))
        poly[key] = poly.get(key, 0) + ways
    return poly


def ref_enumerate_small_datasets(domain, max_records):
    """Every dataset of at most max_records records, one per multiset of
    cells, built record by record from the cell combinations."""
    cells = list(itertools.product(*map(range, domain)))
    return [
        Dataset(combo, domain)
        for n in range(max_records + 1)
        for combo in itertools.combinations_with_replacement(cells, n)
    ]


def ref_stratum_histogram(counts, swap_levels):
    """Rate-free law of one stratum, given its flattened H x S counts, by
    walking its flow matrices.

    Maps each output H x S table to a list whose entry k is the number
    of the stratum's permutations that move k records and release that
    table.  The output depends only on the permutation's flow matrix F,
    where F[(h,s), s'] counts the class-(h,s) records that receive swap
    value s'.  The permutations realizing F are a multinomial per class
    (which of its records receive which value) times, per s', the
    bijections from the receivers of s' onto its donors, counted by
    fixed points.  Each F is realized by at least one of the n!
    permutations, so the flow enumeration's n! cap never binds.
    """
    sx = swap_levels
    n = sum(counts)
    classes = [(divmod(c, sx), v) for c, v in enumerate(counts) if v]
    donors = [sum(counts[s::sx]) for s in range(sx)]
    class_ways = math.prod(math.factorial(v) for _, v in classes)
    hist = {}
    flows = exact._tables_with_margins([v for _, v in classes], donors, math.factorial(n))
    for flow in flows:
        table = [0] * len(counts)
        flow_ways = 1
        stay = [0] * sx
        for i, ((h, s), _) in enumerate(classes):
            row = flow[i * sx : (i + 1) * sx]
            for s2, f in enumerate(row):
                table[h * sx + s2] += f
                flow_ways *= math.factorial(f)
            stay[s] += row[s]
        by_fixed = [class_ways // flow_ways]
        for s2 in range(sx):
            by_fixed = exact._convolve(by_fixed, exact._fixed_point_counts(donors[s2], stay[s2]))
        by_moved = hist.setdefault(tuple(table), [0] * (n + 1))
        for fixed, ways in enumerate(by_fixed):
            by_moved[n - fixed] += ways
    return hist


def ref_move_counts(keys, swap_levels):
    """The move-count matrix of a stratum universe, read off each
    table's flow-walk histogram at each table."""
    none = [0] * (sum(keys[0]) + 1)
    hists = [ref_stratum_histogram(key, swap_levels) for key in keys]
    return [[hist.get(key, none) for key in keys] for hist in hists]


def ref_stratum_law(counts, swap_levels, rate):
    """One stratum's law at 0 < rate <= 1 as fractions by output table:
    its flow-walk histogram weighted by stratum_permutation_prob, or at
    p = 1 by the uniform derangement of all n records."""
    n = sum(counts)
    hist = ref_stratum_histogram(counts, swap_levels)
    if rate == 1:
        return {t: Fraction(by_moved[n], derangement_count(n)) for t, by_moved in hist.items() if by_moved[n]}
    return {
        t: sum(ways * stratum_permutation_prob(k, n, rate) for k, ways in enumerate(by_moved) if ways)
        for t, by_moved in hist.items()
    }


def ref_composite_law(table, rate):
    """A table's law as the product of its strata's flow-walk laws; a
    stratum of fewer than two records keeps its counts."""
    cells = table.domain.hold * table.domain.swap
    flat = table.canonical_key()
    law = {(): Fraction(1)}
    for m in range(table.domain.match):
        counts = flat[m * cells : (m + 1) * cells]
        stratum = ref_stratum_law(counts, table.domain.swap, rate) if sum(counts) >= 2 else {counts: Fraction(1)}
        law = {key + t: v * u for key, v in law.items() for t, u in stratum.items()}
    return law


def ref_min_moves(table, target, cache):
    """Fewest records a within-stratum permutation moves to carry
    ``table`` onto ``target``, or None: per differing stratum, the first
    nonzero entry of its flow-walk histogram at the target's stratum,
    each histogram held in ``cache``."""
    hists = cache.setdefault(ref_stratum_histogram, {})
    cells = table.domain.hold * table.domain.swap
    flat, goal = table.canonical_key(), target.canonical_key()
    total = 0
    for m in range(table.domain.match):
        counts, want = flat[m * cells : (m + 1) * cells], goal[m * cells : (m + 1) * cells]
        if counts == want:
            continue
        if counts not in hists:
            hists[counts] = ref_stratum_histogram(counts, table.domain.swap)
        if want not in hists[counts]:
            return None
        total += next(k for k, c in enumerate(hists[counts][want]) if c)
    return total


def ref_pair_values(laws, tables):
    """(i, j, value) for each pair i < j of tables with d_Ham > 0: the
    log of the laws' largest ratio, compared key by key, per unit of
    d_Ham."""
    for i, j in itertools.combinations(range(len(tables)), 2):
        d_ham = hamming_distance(tables[i], tables[j])
        if d_ham:
            hit = exact._largest_ratio(laws[i], laws[j])
            value = math.inf if hit is None else math.log(hit[0].numerator) - math.log(hit[0].denominator)
            yield i, j, value / d_ham


def ref_witnessed(inv, b):
    """The conditions of psa_lower_bounds whose witness structure the
    universe of bound b exhibits, read off its own margins."""
    holds = {
        "degenerate-rate": b > 0,
        "selection-odds": exact.odds_bound_applies(inv),
        "derangement-ratio": exact.ratio_bound_applies(inv),
    }
    return {condition for condition, held in holds.items() if held}


def ref_check_universe(inv, tables, rates, max_permutations, cache, bounds):
    """The sweep's per-universe check on composite laws by table key:
    each table's ``_law`` at each rate, pairs compared key by key, the
    connecting minimum from the histograms pair by pair, and the witness
    conditions from the universe's own margins."""
    b = invariant_stratum_bound(inv)
    witnessed = ref_witnessed(inv, b)
    universe_keys = {t.canonical_key() for t in tables}
    failures = []
    measured_by_p, budget_by_p = {}, {}
    for rate in rates:
        p = float(rate)
        if (p, b) not in bounds:
            bounds[p, b] = exact.psa_budget(p, b), exact.psa_lower_bounds(p, b)
        budget, lower = bounds[p, b]
        laws = [exact._law(t, rate, max_permutations, cache)[0] for t in tables]
        for t, nums in zip(tables, laws):
            if nums.keys() != universe_keys:
                failures.append(f"support differs from universe at p={rate} for {t.canonical_string()}")
        measured = 0.0
        for i, j, value in ref_pair_values(laws, tables):
            measured = max(measured, value)
            if value > budget.epsilon + LOG_SLACK:
                failures.append(
                    f"budget exceeded at p={rate}: measured {value} > {budget.epsilon} for pair "
                    f"{tables[i].canonical_string()} vs {tables[j].canonical_string()}"
                )
        measured_by_p[p] = measured
        budget_by_p[p] = budget.epsilon
        for bound, condition in lower:
            if condition in witnessed and measured < bound - LOG_SLACK:
                failures.append(
                    f"lower bound violated at p={rate}: measured {measured} < {bound} ({condition}) "
                    f"in universe of {tables[0].canonical_string()}"
                )
    for i, j in itertools.permutations(range(len(tables)), 2):
        d_ham = hamming_distance(tables[i], tables[j])
        fewest = ref_min_moves(tables[i], tables[j], cache)
        if fewest != d_ham:
            failures.append(f"connecting minimum {fewest} disagrees with d_Ham {d_ham}")
    return UniverseCheck(b=b, size=len(tables), measured=measured_by_p, budget=budget_by_p), failures


def ref_dp_sweep(domain, max_records, p_values, max_permutations=DEFAULT_ENUMERATION_BUDGET):
    """dp_sweep without the orbit reduction and the count-row grouping:
    every dataset built and tabulated, grouped by its invariants, and the
    per-universe check on every universe, in grouping order.  Every
    ordered pair of every universe is also connected by an explicit
    :func:`connecting_permutation`, which must carry x onto the table of
    x' and move exactly d_Ham(x, x') records."""
    rates = tuple(to_exact_rate(p) for p in p_values)
    datasets = ref_enumerate_small_datasets(domain, max_records)
    groups = {}
    for d in datasets:
        table = tabulate(d)
        groups.setdefault(swap_invariants(table), []).append((d, table))
    cache, bounds = {}, {}
    checks = []
    for inv, entries in groups.items():
        tables = [t for _, t in entries]
        checks.append(ref_check_universe(inv, tables, rates, max_permutations, cache, bounds))
        for (x, table), (x_prime, target) in itertools.permutations(entries, 2):
            rho = connecting_permutation(x, x_prime)
            assert tabulate(apply_permutation(rho, x)) == target
            assert rho.derange_count == hamming_distance(table, target)
    sizes = [len(entries) for entries in groups.values()]
    return SweepReport(
        domain=Domain(*domain),
        max_records=max_records,
        p_values=rates,
        universe_count=len(groups),
        dataset_count=len(datasets),
        pair_checks=len(rates) * sum(math.comb(n, 2) for n in sizes),
        connecting_checks=sum(n * (n - 1) for n in sizes),
        failures=tuple(f for _, found in checks for f in found),
        universes=tuple(check for check, _ in checks),
    )


def ref_universe_report(x, p_values, max_permutations=DEFAULT_ENUMERATION_BUDGET):
    """universe_report over the composite universe: every table of the
    product of the strata's universes, and every pair of those tables."""
    universe = enumerate_universe(x, max_permutations)
    b = max_stratum_b(x)
    cache, rows = {}, []
    for rate in map(to_exact_rate, p_values):
        budget = psa_budget(float(rate), b)
        measured = 0.0
        if len(universe) > 1:
            laws = [exact._law(t, rate, max_permutations, cache)[0] for t in universe]
            measured = max((value for _, _, value in ref_pair_values(laws, universe)), default=0.0)
        rows.append(
            UniverseReport(
                b=b,
                universe_size=len(universe),
                p=float(rate),
                budget_epsilon=budget.epsilon,
                measured_optimal=measured,
                passed=measured <= budget.epsilon + LOG_SLACK,
                expected_infinite=rate in (0, 1) and b > 0,
            )
        )
    return rows


def ref_first_seen(keys):
    """exact._first_seen through np.unique over whole rows."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order]


def ref_orbit_ids(mh, ms):
    """exact._orbit_ids through np.unique over whole sorted stratum rows."""
    strata = np.concatenate((np.sort(mh, axis=2), np.sort(ms, axis=2)), axis=2)
    universes, match, width = strata.shape
    rows, ranks = np.unique(strata.reshape(universes * match, width), axis=0, return_inverse=True)
    return np.sort(ranks.reshape(universes, match), axis=1), rows


def ref_permutation_check(mapping):
    """``Permutation``'s check entry by entry: the entries as a tuple of
    Python ints, ``TypeError`` on an entry that is not an integer, and
    ``ValueError`` unless they are a bijection on 0..n-1."""
    mapping = tuple(map(operator.index, mapping))
    n = len(mapping)
    if n and (min(mapping) < 0 or max(mapping) >= n or len(set(mapping)) != n):
        raise ValueError("mapping is not a bijection on record positions")
    return mapping


def ref_draw_mapping(x, p, seed):
    """The swapper's documented draws: per stratum of at least two records,
    in match order, ``default_rng([seed & (2**64-1), m])`` feeds the
    selection and then the derangement of the selected positions."""
    mapping = list(range(len(x)))
    for m, idx in sorted(stratum_indices(x).items()):
        if len(idx) < 2:
            continue
        rng = np.random.default_rng([seed & (2**64 - 1), m])
        selection = select_records(len(idx), p, rng)
        local = sample_derangement(len(selection.indices), rng)
        for pos, target in zip(selection.indices, local):
            mapping[idx[pos]] = idx[selection.indices[target]]
    return tuple(mapping)


def ref_utility_experiment(x, rates, reps, seed):
    """The loop utility_experiment ran before it shared its per-dataset
    set-up: a full swapper run, its table and ``mape`` per replication,
    under the seed hashed from (seed, rate index, replication index)."""
    base = tabulate(x)
    reports = []
    for rate_index, rate in enumerate(rates):
        values = []
        for rep_index in range(reps):
            entropy = [seed & (2**64 - 1), rate_index, rep_index]
            rep_seed = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
            values.append(mape(base, run_psa(x, PsaParams(rate, rep_seed))))
        reports.append(
            UtilityReport(
                rate=float(rate),
                replications=reps,
                mape_values=tuple(values),
                summary=_summarize(values),
                metadata={"zero_cells": ZERO_CELL_RULE, "quartiles": QUARTILE_RULE, "margin": "match"},
            )
        )
    return reports


def ref_synthesize(specs, hold_levels, swap_levels, seed):
    """synthesize's documented draws: stratum m draws from
    ``default_rng([seed & (2**64-1), m])``, its hold then its swap codes
    (one of each for a constant stratum).  Returns the records and the
    domain, or the error's type and message."""
    if hold_levels < 1 or swap_levels < 1:
        return ("ValueError", "hold and swap axes need at least one level")
    records = []
    for m, spec in enumerate(specs):
        rng = np.random.default_rng([seed & (2**64 - 1), m])
        if not spec.mixed:
            h, s = int(rng.integers(0, hold_levels)), int(rng.integers(0, swap_levels))
            records += [[m, h, s]] * spec.size
            continue
        hs = rng.integers(0, hold_levels, size=spec.size).tolist()
        ss = rng.integers(0, swap_levels, size=spec.size).tolist()
        if spec.size >= 2:
            if hold_levels * swap_levels < 2:
                return ("ValueError", "a mixed stratum of size >= 2 needs at least two (hold, swap) cells")
            if len(set(zip(hs, ss))) == 1:
                if swap_levels > 1:
                    ss[1] = (ss[1] + 1) % swap_levels
                else:
                    hs[1] = (hs[1] + 1) % hold_levels
        records += [[m, h, s] for h, s in zip(hs, ss)]
    return records, (len(specs), hold_levels, swap_levels)


def outcome(fn, *args):
    """The function's result, or its exception's type and message."""
    try:
        return fn(*args)
    except LoadError as exc:
        return ("LoadError", str(exc))


# ---------------------------------------------------------------------------
# strategies


@st.composite
def record_lists(draw, max_records=8, max_level=3):
    """(records, domain) with every axis in 0..max_level; a zero axis forces no records."""
    domain = Domain(*(draw(st.integers(0, max_level)) for _ in range(3)))
    if domain.cells == 0:
        return [], domain
    cell = st.tuples(*(st.integers(0, n - 1) for n in domain))
    return draw(st.lists(cell, max_size=max_records)), domain


def datasets(**kwargs):
    return record_lists(**kwargs).map(lambda rd: Dataset(rd[0], rd[1]))


# non-ASCII, a lone surrogate, longer than one 8-byte word, empty, and
# prefixes that differ only by a trailing NUL
LABELS = ("a", "a\x00", "", "\ud800", "ab", "é", "€uro-label-9", "b")


@st.composite
def role_columns(draw):
    """Columns plus a role assignment with multi-column roles and declared categories."""
    n_rows = draw(st.integers(0, 6))
    names = iter(f"c{i}" for i in range(6))
    roles = {
        role: tuple(itertools.islice(names, draw(st.integers(lo, 2))))
        for role, lo in (("match", 0), ("hold", 1), ("swap", 1))
    }
    columns, categories = {}, {}
    for name in roles["match"] + roles["hold"] + roles["swap"]:
        columns[name] = draw(st.lists(st.sampled_from(LABELS[:5]), min_size=n_rows, max_size=n_rows))
        if draw(st.booleans()):
            # a declared list may omit a used label or add an unused one
            categories[name] = tuple(draw(st.permutations(LABELS))[: draw(st.integers(1, 6))])
    return columns, RoleAssignment(categories=categories, **roles)


# ---------------------------------------------------------------------------
# equality with the reference loops


@given(record_lists())
def test_tabulate_matches_loop(rd):
    records, domain = rd
    assert np.array_equal(tabulate(Dataset(records, domain)).counts, ref_tabulate(records, domain))


@given(record_lists())
def test_stratum_indices_matches_loop(rd):
    records, domain = rd
    assert stratum_indices(Dataset(records, domain)) == ref_stratum_indices(records, domain)


@given(datasets())
def test_stratum_bound_matches_table_reading(x):
    table = tabulate(x)
    b = ref_max_stratum_b(table.counts)
    assert max_stratum_b(x) == max_stratum_b(table) == b
    assert invariant_stratum_bound(swap_invariants(x)) == b


@given(datasets())
def test_dataset_from_table_matches_loop(x):
    table = tabulate(x)
    y = dataset_from_table(table)
    assert list(y.records) == ref_dataset_from_table(table.counts)
    assert y.domain == x.domain


@given(record_lists(max_records=4, max_level=2), record_lists(max_records=4, max_level=2))
def test_equality_and_hash_match_multiset_loop(a, b):
    x, y = Dataset(*a), Dataset(*b)
    assert (x == y) == ref_equal(a[0], a[1], b[0], b[1])
    if x == y:
        assert hash(x) == hash(y)
    shuffled = Dataset(list(reversed(a[0])), a[1])
    assert x == shuffled and hash(x) == hash(shuffled)


@settings(max_examples=200)
@given(role_columns())
def test_cross_classify_matches_loop(case):
    columns, roles = case
    got = outcome(cross_classify, columns, roles)
    want = outcome(ref_cross_classify, columns, roles)
    if isinstance(want, tuple) and want[0] == "LoadError":
        assert got == want
        return
    records, domain, labels = want
    assert list(got.records) == records
    assert got.domain == domain
    assert (got.schema.match_labels, got.schema.hold_labels, got.schema.swap_labels) == labels


# every break of str.splitlines that can end a line of a CSV file
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# what a file can hold: LABELS without the lone surrogate, plus NUL runs
CSV_LABELS = ("a", "a\x00", "a\x00\x00", "", "\x00", "ab", "é", "€uro-label-9", "\U0001f600", "ééééé", "b")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.just(""),
            st.lists(st.sampled_from(["x", "yy", "", "é", "a\x00"]), min_size=1, max_size=4).map(",".join),
        ),
        max_size=6,
    ),
    st.sampled_from(LINE_BREAKS),
)
def test_read_csv_columns_matches_loop(tmp_path_factory, body, newline):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(newline.join(["a,b,c"] + body), encoding="utf-8", newline="")
    assert outcome(read_csv_columns, path) == outcome(ref_read_csv_columns, path)


@st.composite
def csv_cases(draw):
    """(text, roles, bom): a CSV with multi-column roles, declared
    categories, blank lines, any line break, and now and then a ragged
    row or a column the roles do not name."""
    names = iter(f"c{i}" for i in range(6))
    roles = {
        role: tuple(itertools.islice(names, draw(st.integers(lo, 2))))
        for role, lo in (("match", 0), ("hold", 1), ("swap", 1))
    }
    role_names = list(roles["match"] + roles["hold"] + roles["swap"])
    header = draw(st.sampled_from([role_names, role_names + ["extra"], role_names[1:]]))
    header = draw(st.permutations(header))
    alphabets, categories = {}, {}
    for name in header:
        alphabets[name] = draw(st.lists(st.sampled_from(CSV_LABELS), min_size=1, max_size=4, unique=True))
        if draw(st.booleans()):
            # a declared list may omit a used label or add an unused one
            pool = draw(st.permutations(alphabets[name] + [draw(st.sampled_from(CSV_LABELS))]))
            categories[name] = tuple(dict.fromkeys(pool[: draw(st.integers(1, len(pool)))]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
            continue
        row = [draw(st.sampled_from(alphabets[name])) for name in header]
        if draw(st.integers(0, 19)) == 0:
            row.append("x")
        lines.append(",".join(row))
    newline = draw(st.sampled_from(LINE_BREAKS))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    known = set(role_names)
    categories = {name: cats for name, cats in categories.items() if name in known}
    return text, RoleAssignment(categories=categories, **roles), draw(st.booleans())


def dataset_parts(x):
    return x.codes.tolist(), x.domain, x.schema


@settings(max_examples=300, deadline=None)
@given(csv_cases())
def test_load_dataset_matches_reference_parse(tmp_path_factory, case):
    """load_dataset reads a file as the per-line reference split plus
    cross_classify does: same codes, domain and labels, or the same error."""
    text, roles, bom = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want_columns = outcome(ref_read_csv_columns, path)
    want = outcome(lambda: dataset_parts(cross_classify(ref_read_csv_columns(path), roles)))
    if bom:
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert outcome(read_csv_columns, path) == want_columns
    assert outcome(lambda: dataset_parts(load_dataset(path, roles))) == want


def test_inferred_categories_follow_python_sort():
    """Code-point order, which the UTF-8 bytes and their surrogatepass
    encoding both keep: NUL-padded prefixes, multi-word labels, a lone
    surrogate between U+D7FF and U+E000, and labels of 256 bytes or
    more, whose length takes two bytes of the sort key."""
    values = ["ab", "a\x00", "a", "", "\x00", "a\x00\x00", "\ue000", "\ud800", "\ud7ff", "é" * 9, "é" * 8 + "a"]
    values += ["x" * 303, "x" * 302 + "y", "x" * 302, "x" * 255, "x" * 255 + "\x00"]
    columns = {"h": values, "s": ["0"] * len(values)}
    x = cross_classify(columns, RoleAssignment(match=(), hold=("h",), swap=("s",)))
    assert x.schema.hold_labels == tuple(sorted(set(values)))
    assert [x.schema.hold_labels[h] for h in x.codes[:, 1]] == values


# one word and several, non-ASCII, empty, NUL-padded, and a lone surrogate
KERNEL_LABELS = (
    "", "\x00", "a", "a\x00", "a\x00\x00", "ab", "abcdefg", "abcdefgh", "é", "€uro-label-9",
    "\U0001f600", "ééééé", "x" * 20, "x" * 19 + "\x00", "\ud800", "b",
)
kernel_labels = st.sampled_from(KERNEL_LABELS) | st.text(max_size=12)


@st.composite
def kernel_columns(draw, n_rows=None, many=True):
    """(column, declared): up to 2,000 rows of labels from a small
    alphabet or, if ``many``, now and then from thousands of labels in
    shuffled order; and now and then one label that only the last few
    rows use.  ``declared`` is None or a list that may omit labels (the
    late one among them), and may hold a label longer than every field
    or a lone surrogate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n_rows is None:
        n_rows = draw(st.integers(0, 2000))
    if many and draw(st.integers(0, 3)) == 0:
        size = draw(st.integers(1000, 6000))
        alphabet = [f"{'é' * (i % 3)}{i:0{i % 9}d}" for i in rng.permutation(size).tolist()]
    else:
        alphabet = draw(st.lists(kernel_labels, min_size=1, max_size=8, unique=True))
    column = [alphabet[i] for i in rng.integers(0, len(alphabet), n_rows).tolist()]
    late = draw(st.none() | kernel_labels)
    if late is not None and n_rows:
        first = draw(st.integers(max(0, n_rows - 4), n_rows - 1))
        column[first:] = [late] * (n_rows - first)
        alphabet.append(late)
    if not draw(st.booleans()):
        return column, None
    alphabet = list(dict.fromkeys(alphabet))
    kept = len(alphabet) if draw(st.booleans()) else draw(st.integers(0, len(alphabet)))
    kept = [alphabet[i] for i in rng.permutation(len(alphabet))[:kept].tolist()]
    extra = draw(st.lists(st.sampled_from(["\ud800", "é" * 40, "y" * 2001]), max_size=2))
    return column, tuple(dict.fromkeys(kept + extra))


def kernel_outcomes(column, declared):
    """The hash-probe kernel's codes and labels, or its error, and the
    same of the vocabulary kernel and of the sort-and-scatter kernel."""
    raw, before, ends = _encode(column)

    def parts(factor):
        codes, labels = factor()
        return codes.tolist(), labels

    got = outcome(parts, lambda: _factorize(*_field_keys(raw, before, ends), declared, "c"))
    vocabulary = outcome(parts, lambda: ref_vocabulary_factorize(raw, before, ends, declared, "c"))
    (factors,) = ref_factorize(raw, before[None] + 1, ends[None])
    return got, vocabulary, outcome(parts, lambda: ref_column_codes("c", factors, declared))


@settings(max_examples=300, deadline=None)
@given(kernel_columns())
@example((["b", "a", "qq"], ("a", "b")))
@example((["a"] * 5, ("\ud800", "a", "a" * 9)))
@example(([], ()))
@example((["x"], ()))
@example((["abcdef\x01"], ("abcdef\x00\x00" + "z" * 255,)))
def test_factorize_matches_sort_and_scatter_kernel(case):
    """The hash-probe kernel gives the codes and labels of the vocabulary
    kernel and of the sort-and-scatter kernel followed by the declared
    remap, or their error.  (The fifth example's declared label, cut to
    the field's one-word key, would read as that field's key.)"""
    got, vocabulary, sort_and_scatter = kernel_outcomes(*case)
    assert got == vocabulary == sort_and_scatter


@settings(max_examples=150, deadline=None)
@given(kernel_columns(many=False), st.sampled_from([0, 1]))
def test_factorize_probes_past_collisions(case, mix):
    """With a multiplier of 0 every key hashes to slot 0, and with 1 a
    one-word key's slot is its length's top bits, so keys share home
    slots and are placed and found several slots on; the codes stay the
    vocabulary kernel's."""
    with mock.patch.object(ingest, "_MIX", np.uint64(mix)):
        got, vocabulary, _ = kernel_outcomes(*case)
    assert got == vocabulary


@st.composite
def role_kernel_columns(draw):
    """(columns, roles): a match, hold and swap column of one length,
    each drawn by :func:`kernel_columns`, in a shuffled header order."""
    n_rows = draw(st.integers(0, 300))
    cases = [draw(kernel_columns(n_rows=n_rows)) for _ in range(3)]
    names = draw(st.permutations(["m", "h", "s"]))
    columns = {name: cases["mhs".index(name)][0] for name in names}
    categories = {name: declared for name, (_, declared) in zip("mhs", cases) if declared is not None}
    return columns, RoleAssignment(match=("m",), hold=("h",), swap=("s",), categories=categories)


@settings(max_examples=100, deadline=None)
@given(role_kernel_columns())
def test_classify_codes_role_columns_as_the_vocabulary_kernel(case):
    """Whatever the header order, the role columns are coded as the
    vocabulary kernel codes each on its own, and an undeclared label is
    reported for the first column in role order, then the first row."""
    columns, roles = case

    def classify():
        x = cross_classify(columns, roles)
        return x.codes.T.tolist(), (x.schema.match_labels, x.schema.hold_labels, x.schema.swap_labels)

    def reference():
        factors = []
        for name in "mhs":
            raw, before, ends = _encode(columns[name])
            factors.append(ref_vocabulary_factorize(raw, before, ends, roles.categories.get(name), name))
        return [codes.tolist() for codes, _ in factors], tuple(labels for _, labels in factors)

    assert outcome(classify) == outcome(reference)


@pytest.mark.parametrize("blank", [False, True])
@pytest.mark.parametrize("final_newline", [False, True])
def test_read_fields_with_and_without_blank_lines(tmp_path, blank, final_newline):
    """A file with no blank data line takes its field bounds as slices of
    one separator array; a blank line sends it through the gathered
    bounds.  Both read every field as the per-line split does."""
    lines = ["a,bb,c"] + [f"x{i % 7},{'é' * (i % 3)},{'long-label-' * (i % 2)}{i % 5}" for i in range(2000)]
    if blank:
        lines.insert(700, "")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n" * final_newline, encoding="utf-8")
    header, raw, before, ends = _read_fields(path)
    assert np.shares_memory(before, ends) is not blank
    assert read_csv_columns(path) == ref_read_csv_columns(path)


@pytest.mark.parametrize("newline", LINE_BREAKS)
def test_line_breaks_blank_lines_and_bom(tmp_path, newline):
    """Every str.splitlines break ends a line; blank lines are skipped
    but counted, and a byte-order mark is dropped."""
    path = tmp_path / "data.csv"
    text = newline.join(["a,b", "", "é,€uro-label-9", "", ",a\x00", "x,y,z"])
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    with pytest.raises(LoadError, match=r"data\.csv:6: expected 2 fields, got 3$"):
        read_csv_columns(path)
    path.write_bytes(b"\xef\xbb\xbf" + text.rsplit(newline, 1)[0].encode("utf-8") + newline.encode("utf-8"))
    assert read_csv_columns(path) == {"a": ["é", ""], "b": ["€uro-label-9", "a\x00"]}
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8").replace("€".encode("utf-8"), b"\xe2\x82"))
    with pytest.raises(LoadError, match=r"data\.csv:3: not valid UTF-8$"):
        read_csv_columns(path)


def test_lead_bytes_without_a_break_read_one_line_per_record(tmp_path):
    """Labels whose UTF-8 holds the lead bytes 0xC2 and 0xE2 (° © NBSP ’ €)
    and the other bytes of NEL, U+2028 and U+2029 in other characters
    (é Å U+1028 U+3029), but no break."""
    labels = ["é", "’", "€", "°©", "Å", "\u1028\u3029", "x\u00a0y", "aé’€"]
    path = tmp_path / "data.csv"
    path.write_bytes("\n".join(["a,b"] + [f"{a},{b}" for a, b in zip(labels, reversed(labels))]).encode("utf-8"))
    assert read_csv_columns(path) == ref_read_csv_columns(path) == {"a": labels, "b": labels[::-1]}


@given(st.text(st.sampled_from("a,é’€°©Å\u00a0\u1028\u3029\u2027\x85\u2028\u2029"), max_size=12))
def test_utf8_break_scan_matches_substring_search(text):
    raw = text.encode("utf-8")
    assert _has_utf8_break(raw) == any(brk.encode("utf-8") in raw for brk in ("\x85", "\u2028", "\u2029"))


def test_byte_reader_edge_cases(tmp_path):
    """An ASCII file broken only by \\r, one whose only non-ASCII bytes
    are NEL and U+2028, and one that is only a byte-order mark."""
    path = tmp_path / "data.csv"
    for text in ("a,b\rx,y\r\rz,\r", "a,b\x85x,y\u2028\u2028z,\x85"):
        path.write_bytes(text.encode("utf-8"))
        assert read_csv_columns(path) == ref_read_csv_columns(path) == {"a": ["x", "z"], "b": ["y", ""]}
    path.write_bytes("a,b\u2028x,y,z".encode("utf-8"))
    with pytest.raises(LoadError, match=r"data\.csv:2: expected 2 fields, got 3$"):
        read_csv_columns(path)
    path.write_bytes(b"\xef\xbb\xbf")
    with pytest.raises(LoadError, match=r"data\.csv: missing header row$"):
        read_csv_columns(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\x0c"])
def test_invalid_utf8_after_long_ascii_prefix(tmp_path, newline):
    """The error names the line of the first invalid byte, 100,001 lines
    of ASCII in, whatever breaks the lines before it."""
    path = tmp_path / "data.csv"
    path.write_bytes(b"\xef\xbb\xbf" + newline.join(["a,b"] + ["x,y"] * 100_000 + ["q,\xff"]).encode("latin-1"))
    with pytest.raises(LoadError, match=r"data\.csv:100002: not valid UTF-8$"):
        read_csv_columns(path)


@st.composite
def contingency_tables(draw):
    """Tables with zero-size axes among them, axes of two-digit indices,
    and counts up to 2**63 - 1."""
    shape = tuple(draw(st.integers(0, 4) | st.integers(9, 12)) for _ in range(3))
    size = math.prod(shape)
    if size <= 64:
        count = st.one_of(st.integers(0, 9), st.integers(0, 2**63 - 1))
        counts = draw(st.lists(count, min_size=size, max_size=size))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        counts = rng.integers(0, draw(st.sampled_from([10, 2**63 - 1])), size)
    return ContingencyTable(np.array(counts, dtype=np.int64).reshape(shape))


@settings(max_examples=100, deadline=None)
@given(contingency_tables())
def test_count_table_text_matches_percent_format(table):
    assert cli._count_table_text(table) == ref_count_table_text(table)


@settings(max_examples=50, deadline=None)
@given(record_lists(max_level=3))
def test_write_dataset_csv_matches_loop(tmp_path_factory, rd):
    records, domain = rd
    path = tmp_path_factory.mktemp("out") / "data.csv"
    write_dataset_csv(Dataset(records, domain), path)
    labels = [[f"{prefix}{i}" for i in range(n)] for prefix, n in zip("mhs", domain)]
    assert path.read_text(encoding="utf-8") == ref_write_lines(records, labels)


# labels of one byte and of several, empty, non-ASCII, holding a NUL,
# and a lone surrogate, which is not writable as UTF-8
WRITE_LABELS = ("a", "", "a\x00", "\x00", "é", "€uro-label-9", "ab", "\U0001f600", "\ud800")


@st.composite
def labelled_datasets(draw):
    """Records over 0-3 levels per axis, each axis with schema labels
    (repeats allowed) or with none."""
    domain = Domain(*(draw(st.integers(0, 3)) for _ in range(3)))
    labels = [
        tuple(draw(st.lists(st.sampled_from(WRITE_LABELS), min_size=n, max_size=n))) if draw(st.booleans()) else ()
        for n in domain
    ]
    records = []
    if domain.cells:
        records = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in domain)), max_size=8))
    return Dataset(records, domain, DatasetSchema(("match",), ("hold",), ("swap",), *labels))


def written(write, x, path):
    """The bytes ``write`` puts in the file, or its error's type and message."""
    try:
        write(x, path)
    except (LoadError, UnicodeEncodeError) as exc:
        return type(exc).__name__, str(exc)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(labelled_datasets())
@example(Dataset([], (2, 3, 1), DatasetSchema((), (), (), ("a", "€uro-label-9"), ("", "\x00", "é"), ("ab",))))
@example(Dataset([(0, 0, 0)], (1, 1, 2), DatasetSchema((), (), (), ("a",), ("b",), ("c", "\ud800"))))
@example(Dataset([(0, 0, 1)], (1, 1, 2), DatasetSchema((), (), (), ("a",), ("b",), ("c", "\ud800"))))
def test_write_dataset_csv_matches_text_writer(tmp_path_factory, x):
    """Schema labels of several byte widths, empty, non-ASCII or holding
    a NUL, on datasets of 0-8 records; a lone surrogate label raises the
    text writer's error when a record holds it."""
    work = tmp_path_factory.mktemp("out")
    assert written(write_dataset_csv, x, work / "got.csv") == written(ref_write_dataset_csv, x, work / "want.csv")


@st.composite
def oracle_datasets(draw):
    """1-2 strata over H, S in 1..3, with up to 6 records per stratum."""
    domain = Domain(draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    cell = st.tuples(st.integers(0, domain.hold - 1), st.integers(0, domain.swap - 1))
    records = [
        Record(m, h, s)
        for m in range(domain.match)
        for h, s in draw(st.lists(cell, max_size=6))
    ]
    return Dataset(records, domain)


ORACLE_RATES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)]),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)


@settings(max_examples=150, deadline=None)
@given(oracle_datasets(), ORACLE_RATES)
def test_exact_distribution_matches_permutation_walk(x, rate):
    assert exact_psa_distribution(x, rate).probs == ref_exact_distribution(x, rate)


@pytest.mark.parametrize("rate", [Fraction(1, 10), Fraction(1, 2), Fraction(1)])
def test_exact_distribution_matches_walk_on_eight_record_stratum(rate):
    # two records in each cell of one 1x2x2 stratum
    x = Dataset([Record(0, h, s) for h in range(2) for s in range(2) for _ in range(2)], Domain(1, 2, 2))
    assert exact_psa_distribution(x, rate).probs == ref_exact_distribution(x, rate)


@st.composite
def stratum_counts(draw, max_records=8):
    """One stratum's flattened H x S counts, H and S in 1..3, with up to
    ``max_records`` records, and S."""
    hold, swap = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, hold * swap - 1), max_size=max_records))
    return tuple(cells.count(c) for c in range(hold * swap)), swap


def _margins(counts, swap_levels):
    """A stratum's hold and swap margins from its flattened counts."""
    rows = [counts[lo : lo + swap_levels] for lo in range(0, len(counts), swap_levels)]
    return [sum(row) for row in rows], [sum(column) for column in zip(*rows)]


# the per-pair law path the library replaced by rows of one pair-count
# tensor per stratum universe


def ref_pair_counts(x, t, swap_levels, cache):
    """N_x(t, .), held in ``cache["pairs"]``: the kernel for x <= t, and
    for x > t the reversibility lemma, N_x(t, k) = N_t(x, k) w(x) / w(t),
    which raises if a division leaves a remainder."""
    pairs = cache.setdefault("pairs", {})
    if (x, t) not in pairs:
        if x <= t:
            pairs[x, t] = exact._pair_kernel(x, t, swap_levels, cache)
        else:
            w_x, w_t = (math.prod(map(math.factorial, key)) for key in (x, t))
            derived = [divmod(ways * w_x, w_t) for ways in ref_pair_counts(t, x, swap_levels, cache)]
            if any(rest for _, rest in derived):
                raise ValueError("move counts break the reversibility lemma")
            pairs[x, t] = [ways for ways, _ in derived]
    return pairs[x, t]


def ref_pair_count_law(counts, swap_levels, rate, max_permutations, cache):
    """One stratum table's law at rate a/c in [0, 1]: its universe and
    integer numerators aligned with it, entry j ref_pair_counts at table j
    dotted with _stratum_weights; fewer than two records release the
    table itself.  Held in ``cache`` under ``(counts, a, c)``."""
    a, c = rate.numerator, rate.denominator
    law = cache.get((counts, a, c))
    if law is None:
        n = sum(counts)
        if n < 2:
            law = [counts], [1]
        else:
            tables = exact._universe(*exact._margins(counts, swap_levels), max_permutations, cache)
            weights, denom = exact._stratum_weights(n, rate)
            row = [sum(map(operator.mul, ref_pair_counts(counts, t, swap_levels, cache), weights)) for t in tables]
            if sum(row) != denom:
                raise ValueError("probabilities must sum to exactly one")
            law = tables, row
        cache[counts, a, c] = law
    return law


def ref_table_law(key, domain, rate, max_permutations, cache):
    """A table's law as its strata's ref_pair_count_law, in match order."""
    return [ref_pair_count_law(part, domain.swap, rate, max_permutations, cache) for part in exact._strata(key, domain)]


def ref_fewest_moves(keys, domain, cache):
    """The fewest records a within-stratum permutation moves to carry table
    i of a universe onto table j, or None: summed over the strata, the
    first nonzero entry of the strata's ref_pair_counts."""
    fewest = [[0] * len(keys) for _ in keys]
    for parts in zip(*(exact._strata(key, domain) for key in keys)):
        for row, x in zip(fewest, parts):
            for j, t in enumerate(parts):
                moved = next((k for k, n in enumerate(ref_pair_counts(x, t, domain.swap, cache)) if n), None)
                row[j] = None if row[j] is None or moved is None else row[j] + moved
    return fewest


def _pair_count_matrix(keys, swap_levels):
    """The pair counts of every ordered pair of a stratum universe, the
    whole _pair_tensor."""
    return exact._pair_tensor(keys, swap_levels, {}).tolist()


@pytest.mark.parametrize(
    "hold, swap",
    [((4, 4), (4, 4)), ((1, 1, 4, 4), (1, 1, 4, 4))],
    ids=["eight-record-1x2x2", "ratio-witness-b10"],
)
def test_move_counts_match_the_flow_walk(hold, swap):
    """The per-pair, per-hold-row kernel gives the flow walk's matrix on
    the 5-table universe of two records per cell and on the 126-table
    b = 10 ratio witness."""
    keys = exact._tables_with_margins(hold, swap, 10**6)
    assert _pair_count_matrix(keys, len(swap)) == ref_move_counts(keys, len(swap))


@settings(max_examples=60, deadline=None)
@given(stratum_counts())
@example(((2, 2, 2, 2), 2))
@example(((1, 0, 0, 0, 1, 0, 0, 0, 6), 3))
def test_move_counts_match_the_flow_walk_on_drawn_strata(case):
    counts, swap_levels = case
    keys = exact._tables_with_margins(*_margins(counts, swap_levels), 10**6)
    assert _pair_count_matrix(keys, swap_levels) == ref_move_counts(keys, swap_levels)


def _rows_on_demand(tables, swap_levels, full, rows):
    """_pair_tensor's rows ``rows`` of a stratum universe equal the full
    tensor's, entry for entry, and the kernel runs on every pair but
    those of two rows below the diagonal."""
    kernel, runs = exact._pair_kernel, []

    def counted(x, t, swap_levels, cache):
        runs.append((x, t))
        return kernel(x, t, swap_levels, cache)

    with mock.patch.object(exact, "_pair_kernel", counted):
        part = exact._pair_tensor(tables, swap_levels, {}, rows)
    assert part.dtype == full.dtype and part.shape == (len(rows), *full.shape[1:])
    assert part.tolist() == full[rows].tolist()
    assert sorted(runs) == sorted((tables[i], t) for i in rows for j, t in enumerate(tables) if j >= i or j not in rows)


@settings(max_examples=60, deadline=None)
@given(stratum_counts(), st.sets(st.integers(0, 99)))
@example(((2, 2, 2, 2), 2), {1, 3})
@example(((1, 0, 0, 0, 1, 0, 0, 0, 6), 3), {0, 2, 5})
def test_pair_tensor_rows_on_demand(case, drawn):
    """Rows on demand of drawn stratum universes: the first, the last,
    one in the middle, none, every other and a drawn subset."""
    counts, swap_levels = case
    tables = exact._tables_with_margins(*_margins(counts, swap_levels), 10**6)
    full = exact._pair_tensor(tables, swap_levels, {})
    size = len(tables)
    drawn = [i for i in sorted(drawn) if i < size]
    for rows in ([0], [size - 1], [size // 2], [], list(range(0, size, 2)), [0, size - 1], drawn):
        _rows_on_demand(tables, swap_levels, full, sorted(set(rows)))


def test_pair_tensor_rows_on_demand_past_int64():
    """Past 20 records the rows hold Python ints, as the full tensor does."""
    tables = exact._universe((3, 20), (3, 20), DEFAULT_ENUMERATION_BUDGET, {})
    full = exact._pair_tensor(tables, 2, {})
    assert full.dtype == object and len(tables) == 4
    for rows in ([0], [3], [1], [0, 2], [1, 3], [0, 1, 3]):
        _rows_on_demand(tables, 2, full, rows)


@settings(max_examples=100, deadline=None)
@given(stratum_counts())
def test_reversibility_lemma_on_the_flow_walk(case):
    """N_x(t, k) w(t) = N_t(x, k) w(x), with w(x) the product of x's cell
    factorials, on the flow walk, which the kernel does not share."""
    counts, swap_levels = case
    w = lambda key: math.prod(map(math.factorial, key))
    for t, by_moved in ref_stratum_histogram(counts, swap_levels).items():
        back = ref_stratum_histogram(t, swap_levels)[counts]
        assert [ways * w(t) for ways in by_moved] == [ways * w(counts) for ways in back]


@st.composite
def composite_tables(draw):
    """Two or three strata over H, S in 1..3, with up to 5 records each."""
    domain = Domain(draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    cells = domain.hold * domain.swap
    key = []
    for _ in range(domain.match):
        picks = draw(st.lists(st.integers(0, cells - 1), max_size=5))
        key += [picks.count(c) for c in range(cells)]
    return ContingencyTable(np.array(key, dtype=np.int64).reshape(domain.shape))


@settings(max_examples=60, deadline=None)
@given(
    composite_tables(),
    st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(199, 259), Fraction(1)]),
)
def test_law_is_the_product_of_flow_walk_laws(table, rate):
    """The product of the strata's own laws, off their pair-count rows, is
    too, also at p = 0, where _law answers without them and each is the
    point mass on its table."""
    key = table.canonical_key()
    reference = ref_composite_law(table, rate) if rate else {key: Fraction(1)}
    nums, denom = exact._law(table, rate, DEFAULT_ENUMERATION_BUDGET, {})
    assert {key: Fraction(v, denom) for key, v in nums.items()} == reference
    product = {(): Fraction(1)}
    cache = {}
    [[law]] = exact._laws(exact._stratum_rows([key], table.domain, DEFAULT_ENUMERATION_BUDGET, cache), [rate], cache)
    for tables, row in law:
        product = {k + t: v * Fraction(u, sum(row)) for k, v in product.items() for t, u in zip(tables, row) if u}
    assert product == reference


@st.composite
def same_universe_tables(draw):
    """A table of composite_tables and a member of its universe that keeps
    each stratum or takes any table of that stratum's universe."""
    table = draw(composite_tables())
    key = ()
    for counts in exact._strata(table.canonical_key(), table.domain):
        if not draw(st.booleans()):
            counts = draw(st.sampled_from(exact._tables_with_margins(*_margins(counts, table.domain.swap), 10**6)))
        key += counts
    return table, ContingencyTable(np.array(key, dtype=np.int64).reshape(table.domain.shape))


def _tables(domain, *keys):
    return tuple(ContingencyTable(np.array(key, dtype=np.int64).reshape(domain)) for key in keys)


ONE_RECORD = (0, 0, 0, 0, 1, 0, 0, 0, 0)
# interior rates, one whose float weights underflow (shaky rows), and the
# endpoints, where the laws' supports differ
COMPOSITE_RATES = (
    Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(1, 10**300), Fraction(0), Fraction(1),
)


@settings(max_examples=150, deadline=None)
@given(same_universe_tables(), st.fractions(0, 1, max_denominator=300).filter(lambda r: 0 < r < 1))
@example(_tables((2, 2, 2), (1, 0, 0, 1, 1, 0, 0, 0), (0, 1, 1, 0, 1, 0, 0, 0)), Fraction(1, 3))
@example(_tables((2, 2, 2), (0, 1, 1, 0, 1, 0, 0, 0), (1, 0, 0, 1, 1, 0, 0, 0)), Fraction(1, 3))
@example(_tables((3, 2, 2), (2, 0, 0, 2, 1, 1, 1, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0)), Fraction(9, 10))
@example(_tables((2, 3, 3), (1, 0, 0, 0, 1, 0, 0, 0, 1) + ONE_RECORD, (0, 1, 0, 0, 0, 1, 1, 0, 0) + ONE_RECORD), Fraction(1, 2))
def test_pair_lemma_matches_the_composite_law(pair, rate):
    """The largest atom ratio of two same-universe laws of two or three
    strata, some shared and some of fewer than two records: the pair
    lemma over the strata's rows, verify_dp and measured_optimal_epsilon
    give the ratio, its float and the witness key of the composite laws
    compared as one row, which are the Fraction loop's.  The strata's
    laws off their pair-count rows are the per-pair path's.  On a
    universe of at most 40 tables, so is the measured optimum, at the
    drawn rate and at COMPOSITE_RATES."""
    table, other = pair
    domain = table.domain
    laws = [exact._law(t, rate, DEFAULT_ENUMERATION_BUDGET, {}) for t in pair]
    reference = exact._largest_ratio(*(nums for nums, _ in laws))
    dists = [ExactDistribution(domain, {key: Fraction(v, denom) for key, v in nums.items()}) for nums, denom in laws]
    assert reference == ref_max_probability_ratio(*dists)
    ratio, key = reference

    cache = {}
    laws = [ref_table_law(t.canonical_key(), domain, rate, 10**6, cache) for t in pair]
    assert exact._pair_ratio(*laws) == reference
    cache = {}
    keys = [t.canonical_key() for t in pair]
    assert exact._laws(exact._stratum_rows(keys, domain, 10**6, cache), [rate], cache) == [laws]

    x, x_prime = map(dataset_from_table, pair)
    verdict = verify_dp(x, x_prime, rate, psa_budget(float(rate), max_stratum_b(x)))
    d_ham = hamming_distance(table, other)
    value = (math.log(ratio.numerator) - math.log(ratio.denominator)) / max(d_ham, 1)
    assert verdict.measured == value
    assert measured_optimal_epsilon(pair, rate) == value
    _, _, witness = verdict.witness
    assert (witness.canonical_key() if d_ham else witness) == (key if d_ham else None)
    universe = enumerate_universe(table)
    if len(universe) <= 40:
        for rate in (rate, *COMPOSITE_RATES):
            cache = {}
            composite = [exact._law(t, rate, DEFAULT_ENUMERATION_BUDGET, cache)[0] for t in universe]
            expected = max((value for _, _, value in ref_pair_values(composite, universe)), default=0.0)
            assert measured_optimal_epsilon(universe, rate) == expected


@settings(max_examples=60, deadline=None)
@given(composite_tables())
# pairs that differ in both strata exceed half the optimum by the sum of their stratum extremes, not by the larger
@example(*_tables((2, 2, 2), (2, 1, 0, 2, 1, 0, 0, 2)))
def test_stratum_rows_and_connecting_minima_match_the_per_pair_path(table):
    """On a universe of two or three strata, of at most 40 tables: each
    table's stratum rows are the per-pair path's counts at every table of
    the stratum universe, whose one list the tables share, and the sweep's
    re-check reads the per-pair path's connecting minima off them.  Its
    whole result at COMPOSITE_RATES is the composite loop's, also with
    each budget cut to half the measured optimum, where pairs exceed it."""
    domain = table.domain
    try:
        universe = enumerate_universe(table, max_tables=40)
    except EnumerationBudgetError:
        return
    keys = [t.canonical_key() for t in universe]
    cache, own = {}, {}
    strata = exact._stratum_rows(keys, domain, DEFAULT_ENUMERATION_BUDGET, cache)
    for key, parts in zip(keys, strata):
        for part, (tables, index, row), first in zip(exact._strata(key, domain), parts, strata[0]):
            assert tables is first[0] and tables[index] == part
            assert row.tolist() == [ref_pair_counts(part, t, domain.swap, own) for t in tables]
    first_moves, seen = exact._first_moves, []
    inv, rates = swap_invariants(table), COMPOSITE_RATES
    floats = [float(rate) for rate in rates]
    witness = exact._universe_witness(inv)
    with mock.patch.object(exact, "_first_moves", lambda strata: seen.append(first_moves(strata)) or seen[-1]):
        found = exact._check_universe(keys, domain, witness, rates, floats, DEFAULT_ENUMERATION_BUDGET, cache, {})
    assert [_or_none(moves) for moves in seen] == ([ref_fewest_moves(keys, domain, own)] if len(keys) > 1 else [])
    ref_cache = {}
    assert found == ref_check_universe(inv, universe, rates, DEFAULT_ENUMERATION_BUDGET, ref_cache, {})
    check, _ = found
    halved = {}
    for p in floats:
        budget, lower = psa_budget(p, check.b), exact.psa_lower_bounds(p, check.b)
        halved[p, check.b] = dataclasses.replace(budget, epsilon=check.measured[p] / 2), lower
    found = exact._check_universe(keys, domain, witness, rates, floats, DEFAULT_ENUMERATION_BUDGET, {}, dict(halved))
    assert found == ref_check_universe(inv, universe, rates, DEFAULT_ENUMERATION_BUDGET, ref_cache, dict(halved))
    assert any(failure.startswith("budget exceeded") for failure in found[1]) == (len(keys) > 1)


def _or_none(moves):
    """A _first_moves array as nested lists, None where no permutation connects."""
    return [[None if k < 0 else k for k in row] for row in moves.tolist()]


def _pair_readers_match_the_key_loops(keys, domain, cache):
    """The measurer's d_Ham of every pair i < j of distinct tables of one
    universe, and _first_moves of every ordered pair, read per stratum by
    table index, are the key loop's d_Ham and the per-pair path's
    connecting minima; so with the tables' stratum rows, and, on a whole
    one-stratum universe, with its pair tensor."""
    strata = [exact._held_rows(exact._stratum_rows(keys, domain, DEFAULT_ENUMERATION_BUDGET, cache))]
    if domain.match == 1 and strata[0][0][0] == keys:
        whole = np.arange(len(keys))
        strata.append([(keys, exact._pair_tensor(keys, domain.swap, cache), whole, whole)])
    distances, fewest = ref_distances(keys), ref_fewest_moves(keys, domain, {})
    for held in strata:
        found, d_ham = exact._universe_optima(held, [], [], {})
        assert found == [] and d_ham.tolist() == ref_pair_order(distances)
        assert _or_none(exact._first_moves(held)) == fewest
    assert fewest == distances


@st.composite
def spread_tables(draw):
    """One to three strata over H in 1..3 and S in 2..3, with 2 to 6
    records each, so that most universes hold several tables."""
    domain = Domain(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    cells = domain.hold * domain.swap
    key = []
    for _ in range(domain.match):
        picks = draw(st.lists(st.integers(0, cells - 1), min_size=2, max_size=6))
        key += [picks.count(c) for c in range(cells)]
    return ContingencyTable(np.array(key, dtype=np.int64).reshape(domain.shape))


@settings(max_examples=60, deadline=None)
@given(spread_tables())
@example(_tables((2, 2, 2), (2, 1, 0, 2, 1, 0, 0, 2))[0])
@example(_tables((1, 2, 3), (1, 1, 0, 0, 1, 1))[0])
def test_pair_readers_match_the_key_loops_on_drawn_universes(table):
    """On drawn universes of one to three strata, of two to 60 tables,
    and on every other table of each, where a table's position among the
    rows held and its index in its stratum universe can differ."""
    try:
        universe = enumerate_universe(table, max_tables=60)
    except EnumerationBudgetError:
        return
    keys = [t.canonical_key() for t in universe]
    for part in (keys, keys[1::2]):
        if len(part) > 1:
            _pair_readers_match_the_key_loops(part, table.domain, {})


def test_pair_readers_match_the_key_loops_on_the_witnesses():
    """On the 42 tables of the pair over two 2x3x3 strata, and on 96 of
    the 3,364 tables of the b = 6 witness twice: those whose first
    stratum is table 1, 6, ..., 56 of its 58 and whose second is table
    2, 9, ..., 51, so that each table's index in a stratum universe
    differs from its position among the rows held."""
    domain = Domain(2, 3, 3)
    x = Dataset([(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 2, 2)], domain)
    keys = [t.canonical_key() for t in enumerate_universe(x)]
    assert len(keys) == 42
    _pair_readers_match_the_key_loops(keys, domain, {})
    x, _ = load_fixture("witness_ratio_b6_two_strata")
    universe = [t.canonical_key() for t in enumerate_universe(x)]
    assert len(universe) == 58 * 58
    keys = [universe[58 * i + j] for i in range(1, 58, 5) for j in range(2, 58, 7)]
    assert len(keys) == 96
    _pair_readers_match_the_key_loops(keys, x.domain, {})


@st.composite
def distribution_pairs(draw):
    """Two hand-built laws over up to four of nine keys.  Weights in 1..3
    make tied atoms and unequal denominators common; one-atom supports,
    differing supports and different domains come up too."""
    keys = list(itertools.product(range(3), repeat=2))

    def law(support):
        weights = draw(st.lists(st.integers(1, 3), min_size=len(support), max_size=len(support)))
        order = draw(st.permutations(range(len(support))))
        return {support[i]: Fraction(weights[i], sum(weights)) for i in order}

    support = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
    other = draw(st.one_of(st.just(support), st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True)))
    domains = draw(st.sampled_from([(Domain(1, 1, 9),) * 2, (Domain(1, 1, 9), Domain(1, 3, 3))]))
    return ExactDistribution(domains[0], law(support)), ExactDistribution(domains[1], law(other))


def _law(domain, probs):
    return ExactDistribution(Domain(*domain), {key: Fraction(v) for key, v in probs.items()})


@settings(max_examples=300, deadline=None)
@given(distribution_pairs())
@example((_law((1, 1, 2), {(1, 0): "1/3", (0, 1): "2/3"}), _law((1, 1, 2), {(0, 1): "1/3", (1, 0): "2/3"})))
@example((_law((1, 1, 2), {(0, 1): 1}), _law((1, 1, 2), {(0, 1): 1})))
@example((_law((1, 1, 3), {(0, 0, 1): "1/7", (1, 0, 0): "6/7"}), _law((1, 1, 3), {(1, 0, 0): "2/5", (0, 0, 1): "3/5"})))
@example((_law((1, 1, 2), {(0, 1): 1}), _law((1, 1, 2), {(1, 0): 1})))
@example((_law((1, 1, 2), {(0, 1): 1}), _law((1, 2, 1), {(0, 1): 1})))
def test_max_probability_ratio_matches_fraction_loop(pair):
    """Through the integer kernel, the ratio, the smallest-key witness,
    None on differing supports and ValueError on differing domains are
    those of the Fraction loop."""
    p_dist, q_dist = pair
    if p_dist.domain != q_dist.domain:
        for fn in (max_probability_ratio, ref_max_probability_ratio):
            with pytest.raises(ValueError, match="different domains"):
                fn(p_dist, q_dist)
    else:
        assert max_probability_ratio(p_dist, q_dist) == ref_max_probability_ratio(p_dist, q_dist)


@st.composite
def margin_pairs(draw):
    """Row and column sums over H, S in 0..4 and row sums up to 5.  The
    column sums usually split the row total, so the totals agree; now
    and then they are drawn freely and may not."""
    row_sums = draw(st.lists(st.integers(0, 5), max_size=4))
    columns = draw(st.integers(0, 4))
    if draw(st.booleans()) and draw(st.booleans()):
        col_sums = draw(st.lists(st.integers(0, 5), min_size=columns, max_size=columns))
    elif columns:
        picks = draw(st.lists(st.integers(0, columns - 1), min_size=sum(row_sums), max_size=sum(row_sums)))
        col_sums = [picks.count(s) for s in range(columns)]
    else:
        col_sums = []
    return row_sums, col_sums


@settings(max_examples=400, deadline=None)
@given(margin_pairs(), st.integers(0, 40))
@example(([], []), 0)
@example(([0, 0], []), 0)
@example(([0, 0], []), 1)
@example(([3], []), 0)
@example(([], [0, 0]), 0)
@example(([2, 2], [2, 2]), 2)
@example(([2, 2], [2, 2]), -1)
@example(([2, 2], [2, 2]), 10**40)
@example(([1, 1, 1, 1], [2, 2]), 5)
def test_tables_with_margins_matches_the_cell_recursion(margins, max_tables):
    """The row loop returns the recursion's tables in the same order, and
    refuses exactly when the recursion finds more than max_tables."""
    row_sums, col_sums = margins
    tables = ref_tables_with_margins(row_sums, col_sums, 10**6)
    if len(tables) > max_tables:
        with pytest.raises(EnumerationBudgetError, match=f"exceed the budget of {max_tables}$"):
            exact._tables_with_margins(row_sums, col_sums, max_tables)
    else:
        assert exact._tables_with_margins(row_sums, col_sums, max_tables) == tables


@st.composite
def row_pairs(draw):
    """An input and an output hold row over S in 1..4 swap values, of one
    total up to 8."""
    size, total = draw(st.integers(1, 4)), draw(st.integers(0, 8))
    picks = [draw(st.lists(st.integers(0, size - 1), min_size=total, max_size=total)) for _ in range(2)]
    return tuple(tuple(p.count(s) for s in range(size)) for p in picks)


@settings(max_examples=200, deadline=None)
@given(row_pairs())
@example(((0,), (0,)))
@example(((5,), (5,)))
@example(((0, 0, 0), (0, 0, 0)))
@example(((0, 3, 0, 1), (2, 0, 2, 0)))
@example(((2, 2, 2, 2), (2, 2, 2, 2)))
def test_row_polynomial_matches_the_cell_recursion(rows):
    """The row polynomial's flows, walked by the shared matrix
    enumerator, give the cell recursion's diagonal polynomial."""
    row, target = rows
    assert exact._row_polynomial(row, target, sum(row) + 1) == ref_row_polynomial(row, target)


@settings(max_examples=40, deadline=None)
@given(
    st.builds(Domain, st.integers(2, 3), st.integers(1, 2), st.integers(1, 2)).flatmap(
        lambda domain: st.tuples(
            st.just(domain),
            st.lists(st.tuples(*(st.integers(0, n - 1) for n in domain)), max_size=4),
        )
    )
)
def test_enumerate_universe_is_the_sorted_universe(case):
    """Over two or three strata the universe comes out complete, in
    canonical-key order, from a dataset or from its table."""
    domain, records = case
    x = Dataset(records, domain)
    expected = ref_universe_keys(x)
    assert [t.canonical_key() for t in enumerate_universe(x)] == expected
    assert [t.canonical_key() for t in enumerate_universe(tabulate(x))] == expected


@pytest.mark.parametrize("domain, max_records", [((2, 2, 2), 4), ((3, 2, 2), 3), ((2, 2, 2), 0)])
def test_enumerate_small_datasets_matches_the_record_loop(domain, max_records):
    """The count-row enumeration gives the same datasets, in the same
    order, each with its records in the same order."""
    expected = ref_enumerate_small_datasets(Domain(*domain), max_records)
    datasets = enumerate_small_datasets(Domain(*domain), max_records)
    assert len(datasets) == len(expected)
    for d, e in zip(datasets, expected):
        assert d.domain == e.domain and d.codes.dtype == e.codes.dtype
        assert d.codes.tolist() == e.codes.tolist()


@pytest.mark.parametrize(
    "domain, max_records", [((2, 2, 2), 4), ((1, 2, 3), 5), ((3, 2, 2), 3)]
)
def test_dp_sweep_matches_unreduced_sweep(domain, max_records):
    """Grouping count rows and copying each orbit's check changes no
    field of the report."""
    expected = ref_dp_sweep(Domain(*domain), max_records, SWEEP_RATES)
    assert dp_sweep(Domain(*domain), max_records, SWEEP_RATES) == expected
    assert expected.all_pass


def test_failing_dp_sweep_lists_the_unreduced_failures(monkeypatch):
    """With the budget cut to 0.6 of itself some universes fail and
    others pass; each failing orbit is checked member by member, so the
    failures come out as the unreduced sweep finds them, in its order."""
    real = exact.psa_budget

    def low_budget(p, b):
        budget = real(p, b)
        return dataclasses.replace(budget, epsilon=0.6 * budget.epsilon)

    monkeypatch.setattr(exact, "psa_budget", low_budget)
    rates = (Fraction(1, 10), Fraction(1, 2))
    expected = ref_dp_sweep(Domain(2, 2, 2), 4, rates)
    report = dp_sweep(Domain(2, 2, 2), 4, rates)
    assert expected.failures and len(expected.failures) < expected.pair_checks
    assert report.failures == expected.failures
    assert report == expected


@pytest.mark.parametrize("patched", ["budget falls with b", "odds bound grows with b"])
def test_sweep_checks_each_universe_at_its_own_b(monkeypatch, patched):
    """A universe's combined optimum is compared with the budget and the
    lower bounds at the universe's b, which can exceed the b of the
    stratum that sets the optimum, so the verdict assumes no monotonicity
    in b: with a budget that falls as b grows, or an odds bound that
    grows with it, the sweep lists the unreduced sweep's failures."""
    real_budget, real_bounds = exact.psa_budget, exact.psa_lower_bounds

    def falling_budget(p, b):
        budget = real_budget(p, b)
        return dataclasses.replace(budget, epsilon=budget.epsilon * (1.0 if b <= 2 else 0.5))

    def growing_bounds(p, b):
        return [LowerBound(v + 1.0 if c == "selection-odds" and b > 2 else v, c) for v, c in real_bounds(p, b)]

    if patched == "budget falls with b":
        monkeypatch.setattr(exact, "psa_budget", falling_budget)
    else:
        monkeypatch.setattr(exact, "psa_lower_bounds", growing_bounds)
    # five records: a two-record odds witness beside a three-record stratum
    rates = (Fraction(1, 10), Fraction(1, 2))
    expected = ref_dp_sweep(Domain(2, 2, 2), 5, rates)
    assert expected.failures
    assert dp_sweep(Domain(2, 2, 2), 5, rates) == expected


@pytest.mark.parametrize("case", sorted(SWEEP_PINS), ids=repr)
def test_dp_sweep_matches_unreduced_sweep_on_pinned_domains(case):
    """Every pinned sweep, its orbits reduced over their strata's ranks,
    gives the unreduced sweep's report, field by field."""
    domain, max_records = Domain(*case[0]), case[1]
    assert dp_sweep(domain, max_records, SWEEP_RATES) == ref_dp_sweep(domain, max_records, SWEEP_RATES)


@pytest.mark.parametrize(
    "domain, max_records, rates",
    [
        ((2, 2, 2), 4, ()),
        ((0, 2, 2), 3, SWEEP_RATES),
        ((2, 0, 2), 2, SWEEP_RATES),
        ((1, 2, 0), 2, SWEEP_RATES),
        ((2, 2, 2), -1, SWEEP_RATES),
    ],
    ids=["no rate", "no match level", "no hold level", "no swap level", "no dataset"],
)
def test_dp_sweep_matches_unreduced_sweep_on_empty_axes(domain, max_records, rates):
    """The orbit reductions over an empty axis: no rate (optima with no
    column), no match level (universes with no stratum, so ranks with no
    column), strata without cells, and no dataset at all (no orbit)."""
    expected = ref_dp_sweep(Domain(*domain), max_records, rates)
    assert dp_sweep(Domain(*domain), max_records, rates) == expected
    assert expected.all_pass


def test_infinite_stratum_optimum_fails_its_orbits(monkeypatch):
    """With the largest ratio 1476/19 of one three-record stratum (its
    table 1, 0, 0, 2 at p = 1/10) measured as infinite, that stratum's
    check fails, and so does every orbit holding it; each universe of
    those orbits is checked pair by pair, and each pair that differs in
    that stratum alone exceeds the budget.  The unreduced sweep measures
    its own logarithms, so the report is pinned instead: the SHA-256 of
    its repr as the per-orbit loop gave it."""
    log_ratio = exact._log_ratio
    monkeypatch.setattr(
        exact, "_log_ratio", lambda hit: math.inf if hit is not None and hit[0] == Fraction(1476, 19) else log_ratio(hit)
    )
    report = dp_sweep(Domain(2, 2, 2), 4, (Fraction(1, 10), Fraction(1, 2)))
    infinite = [u for u in report.universes if u.measured[0.1] == math.inf]
    assert len(report.failures) == len(infinite) == 40
    assert all(f.startswith("budget exceeded at p=1/10: measured inf > ") for f in report.failures)
    assert _sha(repr(report).encode()) == "2f80b28b209dbd8afcb925347e0c8456c841c5f11c8e5adc8b349e24f3bd3db3"


@st.composite
def repeated_rows(draw, width=None):
    """An integer matrix whose rows are drawn from a few distinct rows,
    so most repeat, with entries from 0 to past 2**32 and widths from 0."""
    width = draw(st.integers(0, 4)) if width is None else width
    entries = st.sampled_from([0, 1, 2, 2**31 - 1, 2**31, 2**32 + 1, 2**62, 2**63 - 1]) | st.integers(0, 3)
    pool = draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), max_size=30))
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


@settings(max_examples=200, deadline=None)
@given(repeated_rows())
def test_first_seen_matches_unique(keys):
    """One lexicographic sort gives np.unique's ids and first rows."""
    ids, firsts = exact._first_seen(keys)
    expected_ids, expected_firsts = ref_first_seen(keys)
    assert ids.tolist() == expected_ids.tolist() and firsts.tolist() == expected_firsts.tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*(st.integers(0, 3) for _ in range(3))).flatmap(
        lambda d: st.tuples(st.just(d), repeated_rows(d[0] * (d[1] + d[2])))
    )
)
def test_orbit_ids_matches_unique(case):
    """The ranks of the sorted stratum rows and the rows themselves are
    np.unique's, in its lexicographic order."""
    (match, hold, swap), margins = case
    mh = margins[:, : match * hold].reshape(len(margins), match, hold)
    ms = margins[:, match * hold :].reshape(len(margins), match, swap)
    ranks, rows = exact._orbit_ids(mh, ms)
    expected_ranks, expected_rows = ref_orbit_ids(mh, ms)
    assert ranks.tolist() == expected_ranks.tolist() and rows.tolist() == expected_rows.tolist()


def _stratum_checks(holds, swaps, rates):
    """The sweep's check of one stratum universe from its stratum laws
    and pair counts, and the reference check on its tables by key."""
    inv = SwapInvariants(np.array([holds], dtype=np.int64), np.array([swaps], dtype=np.int64))
    keys = exact._tables_with_margins(holds, swaps, DEFAULT_ENUMERATION_BUDGET)
    witness = exact._universe_witness(inv)
    domain = Domain(1, len(holds), len(swaps))
    floats = [float(rate) for rate in rates]
    check = exact._check_universe(keys, domain, witness, rates, floats, DEFAULT_ENUMERATION_BUDGET, {}, {})
    tables = [
        ContingencyTable(np.array(t, dtype=np.int64).reshape(domain.shape))
        for t in ref_tables_with_margins(holds, swaps, 10**6)
    ]
    return check, ref_check_universe(inv, tables, rates, DEFAULT_ENUMERATION_BUDGET, {}, {})


@pytest.mark.parametrize("case", sorted(SWEEP_PINS), ids=repr)
def test_stratum_check_matches_reference_on_pinned_domains(case):
    """Every single-stratum universe a pinned sweep checks gives the same
    summary, floats included, and the same failures (none)."""
    domain, max_records = Domain(*case[0]), case[1]
    counts = exact._small_count_rows(domain, max_records).reshape(-1, *domain.shape)
    _, strata = exact._orbit_ids(counts.sum(axis=3), counts.sum(axis=2))
    assert len(strata)
    for row in strata.tolist():
        check, expected = _stratum_checks(row[: domain.hold], row[domain.hold :], SWEEP_RATES)
        assert check == expected


@st.composite
def stratum_margins(draw, levels=st.integers(0, 4), count=st.integers(0, 3)):
    """Hold and swap margins of one stratum with equal totals."""
    hold, swap = draw(levels), draw(levels)
    holds = draw(st.lists(count, min_size=hold, max_size=hold)) if swap else [0] * hold
    picks = draw(st.lists(st.integers(0, swap - 1), min_size=sum(holds), max_size=sum(holds))) if swap else []
    return holds, [picks.count(s) for s in range(swap)]


@settings(max_examples=100, deadline=None)
@given(
    stratum_margins().filter(lambda m: sum(m[0]) <= 7),
    st.lists(
        st.fractions(0, 1, max_denominator=300).filter(lambda r: 0 < r < 1),
        min_size=1,
        max_size=3,
        unique_by=float,
    ),
)
def test_stratum_check_matches_reference_on_drawn_strata(margins, rates):
    check, expected = _stratum_checks(*margins, tuple(rates))
    assert check == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(stratum_margins(st.just(4), st.integers(0, 4)), min_size=1, max_size=3))
@example([([1, 1, 0, 0], [1, 1, 0, 0]), ([2, 1, 0, 0], [1, 2, 0, 0])])
@example([([1, 1, 0, 0], [0, 0, 1, 1]), ([1, 1, 0, 0], [1, 0, 1, 0])])
def test_orbit_witness_matches_the_universe_witness(strata):
    """The witnessed conditions combined from each stratum's own flags are
    those of the universe's margins at its bound b, over one to three
    strata.  The first example puts a two-record ratio witness beside a
    larger mixed stratum, whose b it does not realize; the second has two
    strata that both realize b."""
    inv = SwapInvariants(np.array([h for h, _ in strata]), np.array([s for _, s in strata]))
    b = invariant_stratum_bound(inv)
    assert exact._universe_witness(inv) == (b, ref_witnessed(inv, b))


# the b = 4 and b = 6 ratio witnesses, and 1, 2, 1 on a 3x3 diagonal
WITNESS_B4 = [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3)]
WITNESS_B6 = [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 2, 2), (0, 3, 3), (0, 3, 3)]
DIAGONAL = [(0, 0, 0), (0, 1, 1), (0, 1, 1), (0, 2, 2)]


def _strata(*strata):
    return [(m, h, s) for m, records in enumerate(strata) for _, h, s in records]


@pytest.mark.parametrize(
    "records, domain, rates, size",
    [
        (_strata(DIAGONAL, DIAGONAL), Domain(2, 3, 3), [0, Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), 1], 49),
        (_strata(WITNESS_B4, DIAGONAL), Domain(2, 4, 4), [Fraction(1, 2)], 168),
    ],
    ids=["7x7", "24x7"],
)
def test_universe_report_matches_the_composite_universe(records, domain, rates, size):
    """Measured one stratum at a time, the universe gives every field of
    the composite report, the measured optimum as the same float."""
    x = Dataset(records, domain)
    expected = ref_universe_report(x, rates)
    assert expected[0].universe_size == size
    assert universe_report(x, rates) == expected


def test_universe_report_pins_the_406_table_universe():
    """The b = 6 witness (58 tables) beside the 3x3 diagonal (7 tables):
    the composite universe's measured optima, computed on the composite
    path before it was dropped, to the bit."""
    x = Dataset(_strata(WITNESS_B6, DIAGONAL), Domain(2, 4, 4))
    rows = universe_report(x, [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
    assert {(row.b, row.universe_size) for row in rows} == {(6, 406)}
    assert [repr(row.measured_optimal) for row in rows] == [
        "3.888477201661221", "1.6912526243250012", "1.1451575002011154",
    ]


def test_composite_float_can_sit_above_the_stratum_optimum():
    """Three copies of one two-record stratum: the pair that differs in
    all three attains the same exact optimum as a pair that differs in
    one, ln(R^3)/6 against ln(R)/2, but its logarithm rounds higher.  The
    report gives the stratum's float, the composite's largest is 3 ulps above."""
    x = Dataset(_strata(*[[(0, 0, 1), (0, 1, 0)]] * 3), Domain(3, 2, 3))
    rate = Fraction(63, 80)
    (row,) = universe_report(x, [rate])
    (expected,) = ref_universe_report(x, [rate])
    assert repr(row.measured_optimal) == "1.3099213823353164"
    assert repr(expected.measured_optimal) == "1.309921382335317"
    assert dataclasses.replace(expected, measured_optimal=row.measured_optimal) == row


@st.composite
def stratified_datasets(draw):
    """Datasets of two or three strata of up to six records in all."""
    domain = Domain(draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    cell = st.tuples(*(st.integers(0, n - 1) for n in domain))
    return Dataset(draw(st.lists(cell, max_size=6)), domain)


@settings(max_examples=100, deadline=None)
@given(
    stratified_datasets(),
    st.lists(st.sampled_from([0, 1]) | st.fractions(0, 1, max_denominator=100), min_size=1, max_size=3),
)
def test_universe_report_matches_the_composite_on_drawn_strata(x, rates):
    """Every field as on the composite universe.  The measured optimum is
    the composite's float unless a pair attaining it in several strata
    rounds higher (see above): never above it, and within a few ulps."""
    rows, expected = universe_report(x, rates), ref_universe_report(x, rates)
    for row, ref in zip(rows, expected, strict=True):
        assert dataclasses.replace(ref, measured_optimal=row.measured_optimal) == row
        assert row.measured_optimal <= ref.measured_optimal
        assert math.isclose(row.measured_optimal, ref.measured_optimal, rel_tol=8 * sys.float_info.epsilon)


# ---------------------------------------------------------------------------
# swapper consistency


@settings(max_examples=100)
@given(
    datasets(max_records=10),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    st.integers(-(2**64), 2**64),
)
def test_run_table_is_the_permuted_dataset_table(x, p, seed):
    run = run_psa_details(x, PsaParams(p, seed))
    swapped = apply_permutation(run.permutation, x)
    assert run.table == tabulate(swapped)
    changed = sum(1 for a, b in zip(x.records, swapped.records) if a.s != b.s)
    assert run.effective_swap_rate == (changed / len(x) if len(x) else 0.0)


@st.composite
def stratified_datasets(draw, max_strata=4, sizes=st.integers(0, 5)):
    """Up to ``max_strata`` strata (4 by default) of ``sizes`` records
    (0-5 by default) each, every one either constant (one repeated cell)
    or mixed (cells drawn freely)."""
    domain = Domain(draw(st.integers(1, max_strata)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    cell = st.tuples(st.integers(0, domain.hold - 1), st.integers(0, domain.swap - 1))
    records = []
    for m in range(domain.match):
        size = draw(sizes)
        if draw(st.booleans()):
            cells = [draw(cell)] * size
        else:
            cells = draw(st.lists(cell, min_size=size, max_size=size))
        records += [(m, h, s) for h, s in cells]
    order = draw(st.permutations(range(len(records))))
    return Dataset([records[i] for i in order], domain)


SEEDS = st.one_of(
    st.integers(-(2**64), -1), st.integers(0, 2**63 - 1), st.integers(2**63, 2**64 + 2**40)
)
RATES = st.one_of(st.sampled_from([0.0, 1.0, 0.05, 0.5]), st.floats(0, 1))


@settings(max_examples=150, deadline=None)
@given(stratified_datasets(), st.lists(RATES, min_size=1, max_size=3), st.integers(1, 4), SEEDS)
def test_utility_experiment_matches_per_run_loop(x, rates, reps, seed):
    def result(fn):
        try:
            return fn(x, rates, reps, seed)
        except ValueError as exc:
            return ("ValueError", str(exc))

    assert result(utility_experiment) == result(ref_utility_experiment)


@settings(max_examples=100, deadline=None)
@given(stratified_datasets(), RATES, SEEDS)
def test_swapper_draws_match_documented_substreams(x, p, seed):
    run = run_psa_details(x, PsaParams(p, seed))
    assert run.permutation.mapping == ref_draw_mapping(x, p, seed)


# stratum sizes on both sides of the kernel's size limit
KERNEL_SIZES = st.one_of(
    st.integers(0, 3), st.integers(swapping._KERNEL_MAX_RECORDS - 1, swapping._KERNEL_MAX_RECORDS + 2)
)


@settings(max_examples=100, deadline=None)
@given(stratified_datasets(6, KERNEL_SIZES), RATES, SEEDS, st.sampled_from([1, 2, 3, 63, 64]))
def test_swapper_draws_on_both_paths_match_documented_substreams(x, p, seed, max_records):
    """With the kernel's size limit at or below ``_KERNEL_MAX_RECORDS``,
    a single run's strata of at most that many records draw on the
    kernel, and larger strata on the seated generator."""
    with mock.patch.object(swapping, "_KERNEL_MAX_RECORDS", max_records):
        run = run_psa_details(x, PsaParams(p, seed))
    assert run.permutation.mapping == ref_draw_mapping(x, p, seed)


@settings(max_examples=40, deadline=None)
@given(
    stratified_datasets(4, KERNEL_SIZES),
    st.lists(RATES, min_size=1, max_size=2),
    st.integers(1, 128),
    SEEDS,
)
@example(
    # eight positive cells, whose row means a column-ordered block sums
    # in another order than mape's 1-D mean (0.6666666666666666 against
    # 0.6666666666666667 in the second replication)
    x=Dataset([(1, 0, 0), (2, 0, 0)] + [(3, 0, 0)] * 6 + [(3, 0, 1)] * 3 + [(3, 0, 2), (3, 1, 0), (3, 1, 1), (3, 1, 2), (3, 2, 0), (3, 2, 1)], Domain(4, 3, 3)),
    rates=[1.0],
    reps=2,
    seed=-1,
)
def test_utility_experiment_on_both_paths_matches_per_run_loop(x, rates, reps, seed):
    """Replication counts of 1-128, on strata that straddle
    ``_KERNEL_MAX_RECORDS``."""
    def result(fn):
        try:
            return fn(x, rates, reps, seed)
        except ValueError as exc:
            return ("ValueError", str(exc))

    assert result(utility_experiment) == result(ref_utility_experiment)


# stratum sizes on either side of the raw-word bound
AROUND_RAW_BOUND = (synth._RAW_MAX_RECORDS, synth._RAW_MAX_RECORDS + 1)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.builds(StratumSpec, st.one_of(st.integers(0, 6), st.sampled_from(AROUND_RAW_BOUND)), st.booleans()),
        max_size=12,
    ),
    st.integers(0, 40),
    st.integers(0, 40),
    SEEDS,
)
@example([StratumSpec(0, False), StratumSpec(1, False), StratumSpec(2)] * 3, 1, 2, 5)
@example([StratumSpec(n, n % 3 > 0) for n in range(7)] + [StratumSpec(n) for n in AROUND_RAW_BOUND], 40, 1, -3)
def test_synthesize_draws_match_documented_substreams(specs, hold_levels, swap_levels, seed):
    """Strata of 0-6 records and around the raw-word bound, constant ones
    among them, up to 12 strata, and 0-40 levels per axis."""
    try:
        x = synthesize(specs, hold_levels, swap_levels, seed)
    except ValueError as exc:
        assert ref_synthesize(specs, hold_levels, swap_levels, seed) == ("ValueError", str(exc))
        return
    assert (x.codes.tolist(), tuple(x.domain)) == ref_synthesize(specs, hold_levels, swap_levels, seed)


@pytest.mark.parametrize("k", [2, 3, 14, 40, 100_000, 2**31 + 1, 2**32 - 1, 2**32])
def test_bounded_transform_matches_integers(k):
    """numpy's integers(0, k) are the accepted values of the bounded
    transform, in order, over the halves of the same raw words; at
    k = 2**31 + 1 about half the halves are rejected."""
    words = np.random.default_rng([5, k]).bit_generator.random_raw(500)
    values, rejected = synth._bounded(synth._halves(words), k)
    accepted = values[~rejected]
    assert np.array_equal(np.random.default_rng([5, k]).integers(0, k, size=len(accepted)), accepted)
    if k == 2**31 + 1:
        assert 0.4 < rejected.mean() < 0.6


def test_bounded_transform_keeps_a_half_at_the_threshold():
    """At k = 3, 2**32 mod k = 1: half 0 leaves 0 and is rejected, and
    half 2863311531 (times 3 is 2 * 2**32 + 1) leaves 1 and is kept."""
    values, rejected = synth._bounded(np.array([0, 2863311531, 2**32 - 1], dtype=np.uint32), 3)
    assert rejected.tolist() == [True, False, False]
    assert values.tolist() == [0, 2, 2]


def test_synthesize_redraws_strata_with_a_rejected_half(monkeypatch):
    """At 100,000 swap levels numpy rejects 67,296 of the 2**32 halves
    (2**32 mod k), so a few of 4,000 strata of 60 records redraw with
    Generator.integers, and the output is still the documented draws."""
    redrawn = []
    draw = synth._draw
    monkeypatch.setattr(synth, "_draw", lambda rng, spec, *rest: redrawn.append(spec) or draw(rng, spec, *rest))
    specs = [StratumSpec(60)] * 4000
    x = synthesize(specs, 2, 100_000, 4)
    assert 0 < len(redrawn) < 20
    assert (x.codes.tolist(), tuple(x.domain)) == ref_synthesize(specs, 2, 100_000, 4)


def test_substreams_derived_in_several_passes(monkeypatch):
    """States derived a few keys per pass, with passes that split one
    seed's strata and one replication block's seeds, give the same draws,
    on the kernel and on the seated generator (a kernel size limit of 1).
    The utility runner's blocks, bounded by keys or by positions, split
    its replications."""
    specs = [StratumSpec(n % 5, mixed=n % 3 > 0) for n in range(11)]
    x = synthesize(specs, 2, 3, 4)
    for max_records in (swapping._KERNEL_MAX_RECORDS, 1):
        monkeypatch.setattr(swapping, "_KERNEL_MAX_RECORDS", max_records)
        monkeypatch.setattr(swapping, "_KEYS_PER_PASS", 3)
        monkeypatch.setattr(utility, "_POSITIONS_PER_BLOCK", 1 << 20)
        assert (synthesize(specs, 2, 3, 9).codes.tolist(), (11, 2, 3)) == ref_synthesize(specs, 2, 3, 9)
        assert run_psa_details(x, PsaParams(0.6, 5)).permutation.mapping == ref_draw_mapping(x, 0.6, 5)
        assert utility_experiment(x, [0.3, 0.9], 7, 8) == ref_utility_experiment(x, [0.3, 0.9], 7, 8)
        monkeypatch.setattr(swapping, "_KEYS_PER_PASS", 1 << 14)
        monkeypatch.setattr(utility, "_POSITIONS_PER_BLOCK", 2 * len(x))
        assert utility_experiment(x, [0.3, 0.9], 7, 8) == ref_utility_experiment(x, [0.3, 0.9], 7, 8)


@pytest.mark.parametrize(
    "sizes, p, runs, shown",
    [
        ([2] * 300, 0.5, 2, "pairs"),
        ([2] * 300, 0.9, 2, "pairs"),
        # the 2-record strata bring keys with no hits at p = 0.9
        ([2] * 200 + list(range(2, 65)) * 3, 0.9, 2, "mixed"),
        ([2, 2, 3, 4, 6], 0.9, 30, "handoff"),
    ],
    ids=["two-records-0.5", "two-records-0.9", "2-64-records-0.9", "handoff"],
)
def test_two_hit_keys_swap_as_documented_substreams(monkeypatch, sizes, p, runs, shown):
    """A key whose selection hits two records takes their swap without
    drawing a derangement.  Mappings are the documented draws bit for
    bit on strata of 2 records, where no key reaches ``_derange_many``;
    on strata of 2-64 records, where one pass holds keys with 0, 2 and
    at least 3 hits; and on passes so small that ``_derange_many`` hands
    its keys to a seated generator."""
    x = synthesize([StratumSpec(n) for n in sizes], 2, 3, 5)
    hits, deranged, seated = [], [], []
    draw_many, derange_many, dicts = swapping._draw_many, swapping._derange_many, swapping._pcg64_dicts

    def recorded_draws(keys, sizes, p):
        drawn = draw_many(keys, sizes, p)
        hits.append(drawn[3])
        return drawn

    monkeypatch.setattr(swapping, "_draw_many", recorded_draws)
    monkeypatch.setattr(swapping, "_derange_many", lambda state, n: deranged.append(n) or derange_many(state, n))
    monkeypatch.setattr(swapping, "_pcg64_dicts", lambda *words: seated.append(len(words[0])) or dicts(*words))
    for seed in range(runs):
        assert run_psa_details(x, PsaParams(p, seed)).permutation.mapping == ref_draw_mapping(x, p, seed)
    assert any((found == 2).any() for found in hits)
    assert all((n >= 3).all() for n in deranged)
    if shown == "pairs":
        assert not deranged
    elif shown == "mixed":
        assert any({0, 2} <= set(found.tolist()) and (found >= 3).any() for found in hits)
    else:
        assert seated


@pytest.mark.parametrize("keys_per_pass, positions_per_block", [(7, 1 << 20), (10, 3), (1 << 14, 2)])
def test_replications_across_seed_passes_and_blocks(monkeypatch, keys_per_pass, positions_per_block):
    """Replication seeds derived a few per pass, and blocks of a few
    replications (bounded by keys or by positions, in records) that do
    not divide a pass: every value is the one ``mape`` gives for a whole
    swapper run at the replication's seed."""
    x = synthesize([StratumSpec(2), StratumSpec(3), StratumSpec(1), StratumSpec(4, mixed=False)], 2, 3, 4)
    monkeypatch.setattr(swapping, "_KEYS_PER_PASS", keys_per_pass)
    monkeypatch.setattr(utility, "_POSITIONS_PER_BLOCK", positions_per_block * len(x))
    blocks = []
    draw_mapping = utility._draw_mapping
    monkeypatch.setattr(utility, "_draw_mapping", lambda *args: blocks.append(len(args[3])) or draw_mapping(*args))
    rates, reps, seed = [0.3, 0.9], 13, -2
    reports = utility_experiment(x, rates, reps, seed)
    per_block = min(keys_per_pass // 3, positions_per_block)
    assert sum(blocks) == len(rates) * reps and max(blocks) == per_block and min(blocks) < per_block
    base = tabulate(x)
    for rate_index, (rate, report) in enumerate(zip(rates, reports)):
        for r, value in enumerate(report.mape_values):
            entropy = [seed & (2**64 - 1), rate_index, r]
            rep_seed = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
            assert value == mape(base, run_psa(x, PsaParams(rate, rep_seed)))


@st.composite
def swapped_pairs(draw):
    """x over several strata with up to 40 records, and x' = the
    swapper's output on x, reordered."""
    domain = Domain(draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    cell = st.tuples(*(st.integers(0, n - 1) for n in domain))
    x = Dataset(draw(st.lists(cell, max_size=40)), domain)
    params = PsaParams(draw(st.sampled_from([0.2, 0.5, 0.9, 1.0])), draw(st.integers(0, 2**32)))
    swapped = apply_permutation(run_psa_details(x, params).permutation, x)
    order = draw(st.permutations(range(len(x))))
    return x, Dataset(swapped.codes[list(order)], domain)


@settings(max_examples=150, deadline=None)
@given(swapped_pairs())
def test_connecting_permutation_on_swapper_pairs(pair):
    x, x_prime = pair
    rho = connecting_permutation(x, x_prime)
    assert tabulate(apply_permutation(rho, x)) == tabulate(x_prime)
    assert rho.derange_count == hamming_distance(x, x_prime)


@st.composite
def permutation_inputs(draw):
    """Candidate mappings of 0-8 entries: permutations, and entries that
    are negative, at or past n, repeated or past 64 bits; as Python
    lists and tuples, numpy int32, int64, uint64 (negative entries wrap
    past n), bool and float arrays, and lists of strings."""
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        entries = draw(st.permutations(range(n)))
    else:
        entries = draw(st.lists(st.integers(-3, n + 3), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["list", "tuple", "int32", "int64", "uint64", "bool", "float", "str"]))
    if kind == "list":
        if entries and draw(st.booleans()):
            entries[draw(st.integers(0, n - 1))] = draw(st.sampled_from([2**63, 2**64, -(2**64)]))
        return entries
    if kind == "tuple":
        return tuple(entries)
    if kind == "str":
        return [str(e) for e in entries]
    array = np.array(entries, dtype=np.int64)
    return array.astype({"int32": np.int32, "int64": np.int64, "uint64": np.uint64, "bool": bool, "float": float}[kind])


@settings(max_examples=300)
@given(permutation_inputs())
@example([0.9, 1.2])
@example(np.array([[1, 0]]))
def test_permutation_check_matches_entry_loop(mapping):
    def result(fn):
        try:
            return "ok", fn(mapping)
        except Exception as exc:  # a warning raised as an error counts too
            return type(exc).__name__, str(exc)

    got = result(lambda m: Permutation(m).mapping)
    assert got == result(ref_permutation_check)
    assert got[0] != "ok" or all(type(i) is int for i in got[1])


@settings(max_examples=200)
@given(st.data(), record_lists(max_records=12), st.sampled_from([tuple, np.int64, np.uint32]))
def test_permutation_array_reads_match_the_tuple_loops(data, rd, kind):
    """Equality, hashing, ``derange_count`` and ``apply_permutation`` read
    the checked array; they agree with loops over the tuple, whatever
    the input was."""
    records, domain = rd
    mapping = tuple(data.draw(st.permutations(range(len(records)))))
    perm = Permutation(mapping if kind is tuple else np.array(mapping, dtype=kind))
    assert perm == Permutation(mapping) and hash(perm) == hash(Permutation(mapping))
    assert perm.mapping == mapping
    assert perm.derange_count == sum(g != i for i, g in enumerate(mapping))
    swapped = apply_permutation(perm, Dataset(records, domain))
    assert swapped.codes.tolist() == [list(r) for r in ref_permuted_records(records, mapping)]


extreme_codes = st.integers(-3, 5) | st.sampled_from([-(2**63), 2**63 - 1, 2**32])


@settings(max_examples=300)
@given(
    st.lists(st.tuples(extreme_codes, extreme_codes, extreme_codes), max_size=6),
    st.tuples(*[st.integers(-2, 4) | st.just(2**70)] * 3),
)
def test_domain_check_matches_record_loop(records, domain):
    """One unsigned comparison finds what the two-sided loop finds:
    negative codes, codes at or past their axis, and any record on an
    axis of negative size; an axis past uint64 takes the loop's check
    too.  The first offender is named."""

    def result(fn):
        try:
            fn()
            return "ok"
        except ValueError as exc:
            return str(exc)

    expected = result(lambda: ref_domain_check(records, domain))
    assert result(lambda: Dataset(records, domain)) == expected
    assert result(lambda: Dataset(np.array(records, dtype=np.int64).reshape(-1, 3), domain)) == expected


@pytest.mark.parametrize("bad", [(0, -1, 0), (0, 2, 0), (1, 0, 0), (0, 0, 3)])
def test_out_of_domain_record_named_by_index(bad):
    records = [(0, 0, 0), (0, 1, 2), bad, (0, 0, 1)]
    message = rf"record 2 = \({bad[0]}, {bad[1]}, {bad[2]}\) outside domain \(1, 2, 3\)"
    with pytest.raises(ValueError, match=message):
        Dataset(records, Domain(1, 2, 3))
    with pytest.raises(ValueError, match=message):
        Dataset(np.array(records), Domain(1, 2, 3))


# ---------------------------------------------------------------------------
# one pair-count tensor per stratum universe against the per-rate pair loop


def ref_key_distance(key, other):
    """d_Ham of two equal-size tables given as flattened counts."""
    return sum(map(abs, map(operator.sub, key, other))) // 2


def ref_distances(keys):
    """d_Ham of every pair of ``keys`` as a symmetric matrix, each
    unordered pair computed once by ref_key_distance."""
    matrix = [[0] * len(keys) for _ in keys]
    for i, j in itertools.combinations(range(len(keys)), 2):
        matrix[i][j] = matrix[j][i] = ref_key_distance(keys[i], keys[j])
    return matrix


def ref_pair_order(matrix):
    """The entries of a symmetric matrix at each pair i < j, in pair order."""
    return [matrix[i][j] for i, j in itertools.combinations(range(len(matrix)), 2)]


def ref_universe_optima(tables, swap_levels, rates, budgets, distances):
    """_universe_optima's answers as the per-rate loop gave them: each
    table's ref_pair_count_law row at each rate, and every pair compared
    by the pair lemma (_pair_ratio over _row_ratio), through a cache of
    its own."""
    own: dict = {}
    results = []
    for rate, budget in zip(rates, budgets):
        laws = [[ref_pair_count_law(t, swap_levels, rate, DEFAULT_ENUMERATION_BUDGET, own)] for t in tables]
        values = [
            (i, j, exact._log_ratio(exact._pair_ratio(laws[i], laws[j])) / distances[i][j])
            for i, j in itertools.combinations(range(len(tables)), 2)
            if distances[i][j]
        ]
        results.append((
            max((value for _, _, value in values), default=0.0),
            [i for i, law in enumerate(laws) if any(0 in row for _, row in law)],
            [(i, j, value) for i, j, value in values if value > budget + LOG_SLACK],
        ))
    return results


def ref_optima_at(swap_levels):
    """ref_universe_optima in _universe_optima's place, for strata of
    ``swap_levels`` swap values, with ref_distances' d_Ham of each pair."""

    def optima(strata, rates, budgets, cache):
        [(tables, *_)] = strata
        distances = ref_distances(tables)
        found = ref_universe_optima(tables, swap_levels, rates, budgets, distances)
        return found, np.array(ref_pair_order(distances), dtype=np.int64)

    return optima


def _optima(hold, swap, rates, budgets):
    """_universe_optima on the stratum universe of the given margins, and
    the per-rate loop's answers; its d_Ham of each pair is ref_distances'."""
    cache = {}
    tables = exact._universe(tuple(hold), tuple(swap), DEFAULT_ENUMERATION_BUDGET, cache)
    tensor = exact._pair_tensor(tables, len(swap), cache)
    whole = np.arange(len(tables))
    found, d_ham = exact._universe_optima([(tables, tensor, whole, whole)], rates, budgets, cache)
    distances = ref_distances(tables)
    assert d_ham.tolist() == ref_pair_order(distances)
    return found, ref_universe_optima(tables, len(swap), rates, budgets, distances)


@pytest.mark.parametrize("case", sorted(SWEEP_PINS), ids=repr)
def test_universe_optima_match_the_pair_loop_on_pinned_strata(case):
    """Every stratum universe of at least two tables that a pinned sweep
    checks gives the loop's optima, floats included; with the budgets at
    half the optima, the same pairs exceed them, with the same values
    (none where the optimum is 0, as at p = 1/2 on two records)."""
    domain, max_records = Domain(*case[0]), case[1]
    counts = exact._small_count_rows(domain, max_records).reshape(-1, *domain.shape)
    _, strata = exact._orbit_ids(counts.sum(axis=3), counts.sum(axis=2))
    checked = 0
    for row in strata.tolist():
        hold, swap = row[: domain.hold], row[domain.hold :]
        if len(exact._tables_with_margins(hold, swap, 10**6)) < 2:
            continue
        found, expected = _optima(hold, swap, SWEEP_RATES, [4.0] * len(SWEEP_RATES))
        assert found == expected
        halves = [measured / 2 for measured, _, _ in expected]
        found, expected = _optima(hold, swap, SWEEP_RATES, halves)
        assert found == expected and all(exceeded for measured, _, exceeded in found if measured)
        checked += 1
    # a domain of one swap value has no universe of two tables
    assert checked or domain.swap == 1


@pytest.mark.parametrize("case", sorted(SWEEP_PINS), ids=repr)
def test_sweep_reports_match_the_pair_loop(monkeypatch, case):
    """Every pinned sweep's whole report, its summaries' floats included,
    is that of the sweep whose stratum checks take the per-rate loop's
    answers."""
    domain, max_records = Domain(*case[0]), case[1]
    found = dp_sweep(domain, max_records, SWEEP_RATES)
    monkeypatch.setattr(exact, "_universe_optima", ref_optima_at(domain.swap))
    assert found == dp_sweep(domain, max_records, SWEEP_RATES)


@pytest.mark.parametrize(
    "name, rates",
    [
        ("witness_ratio_b4", ["1/10", "3/10", "1/2"]),
        ("witness_ratio_b6", ["1/10", "1/2", "9/10"]),
        ("witness_ratio_b10", ["1/10", "96/125", "9/10"]),
        ("witness_ratio_b12", ["1/10", "783/1000", "9/10"]),
    ],
    ids=["b4", "b6", "b10", "b12"],
)
def test_universe_report_matches_the_pair_loop_on_the_witnesses(monkeypatch, name, rates):
    """universe_report's rows on the ratio witnesses at their pinned
    rates and at the endpoints, where every measured optimum is infinite,
    are those of the per-rate loop."""
    x = load_dataset(FIXTURES / f"{name}.csv", load_roles(FIXTURES / f"{name}.roles.json"))
    rates = [0, *rates, 1]
    found = universe_report(x, rates)
    assert [row.measured_optimal for row in (found[0], found[-1])] == [math.inf, math.inf]
    monkeypatch.setattr(exact, "_universe_optima", ref_optima_at(x.domain.swap))
    assert found == universe_report(x, rates)


def test_underflowing_weights_are_compared_exactly():
    """At p = 10^-300 on the four records of the b = 4 witness every
    float weight but the identity's is 0, so no law off its own table
    has a leading digit left; universe_report still measures the exact
    optimum, as the per-rate loop does."""
    rate = Fraction(1, 10**300)
    _, scaled, _ = exact._rate_weights(4, [rate], {})
    assert scaled[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    x, _ = load_fixture("witness_ratio_b4")
    found = universe_report(x, [rate])
    assert 0 < found[0].measured_optimal < math.inf
    with mock.patch.object(exact, "_universe_optima", ref_optima_at(x.domain.swap)):
        assert found == universe_report(x, [rate])


def test_universe_optima_past_int64_match_the_pair_loop():
    """Past 20 records a pair count can pass int64, so the tensor holds
    Python ints, and its optima are still the loop's."""
    cache = {}
    tables = exact._universe((3, 20), (3, 20), DEFAULT_ENUMERATION_BUDGET, cache)
    assert exact._pair_tensor(tables, 2, cache).dtype == object
    found, expected = _optima((3, 20), (3, 20), SWEEP_RATES, [4.0] * len(SWEEP_RATES))
    assert found == expected
    halves = [measured / 2 for measured, _, _ in expected]
    found, expected = _optima((3, 20), (3, 20), SWEEP_RATES, halves)
    assert found == expected and all(exceeded for _, _, exceeded in found)


@settings(max_examples=60, deadline=None)
@given(
    stratum_margins().filter(lambda m: 2 <= sum(m[0]) <= 8),
    st.lists(st.sampled_from([0, 1]) | st.fractions(0, 1, max_denominator=300), min_size=1, max_size=3, unique=True),
    st.floats(0, 4),
)
def test_universe_optima_match_the_pair_loop_on_drawn_strata(margins, rates, budget):
    """Drawn stratum universes of H, S <= 4 and 2 to 8 records, up to 80
    tables, at drawn rates, endpoints included, and a drawn budget."""
    hold, swap = margins
    try:
        tables = exact._tables_with_margins(hold, swap, 80)
    except EnumerationBudgetError:
        tables = []
    if len(tables) >= 2:
        rates = [to_exact_rate(rate) for rate in rates]
        found, expected = _optima(hold, swap, rates, [budget] * len(rates))
        assert found == expected
