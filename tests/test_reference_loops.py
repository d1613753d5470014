"""The columnar code and the exact oracle against the loops they replaced.

Each ``ref_*`` function below is the loop version of a library function
(for the stratum bound b, the table reading that the margin formula
replaced), kept here as the reference.  The arithmetic is integer counting,
indexing and exact rationals in both, so results must be exactly equal,
on random small datasets that include zero-size axes.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permuswap import (
    Dataset,
    Domain,
    ExactDistribution,
    LoadError,
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
    mape,
    max_probability_ratio,
    max_stratum_b,
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
    write_dataset_csv,
)
from permuswap.budget import derangement_count
from permuswap.dataset import invariant_stratum_bound, stratum_indices
from permuswap.ingest import COMPOSITE_LABEL_SEP, CONSTANT_MATCH_LABEL
from permuswap.synth import StratumSpec, synthesize
from permuswap.utility import QUARTILE_RULE, ZERO_CELL_RULE, UtilityReport, _summarize

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


def ref_write_lines(records, labels, column_names=("match", "hold", "swap")):
    lines = [",".join(column_names)]
    for m, h, s in records:
        lines.append(f"{labels[0][m]},{labels[1][h]},{labels[2][s]}")
    return "\n".join(lines) + "\n"


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


@settings(max_examples=50, deadline=None)
@given(record_lists(max_level=3))
def test_write_dataset_csv_matches_loop(tmp_path_factory, rd):
    records, domain = rd
    path = tmp_path_factory.mktemp("out") / "data.csv"
    write_dataset_csv(Dataset(records, domain), path)
    labels = [[f"{prefix}{i}" for i in range(n)] for prefix, n in zip("mhs", domain)]
    assert path.read_text(encoding="utf-8") == ref_write_lines(records, labels)


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
def stratified_datasets(draw):
    """Up to 4 strata of 0-5 records each, every one either constant
    (one repeated cell) or mixed (cells drawn freely)."""
    domain = Domain(draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    cell = st.tuples(st.integers(0, domain.hold - 1), st.integers(0, domain.swap - 1))
    records = []
    for m in range(domain.match):
        size = draw(st.integers(0, 5))
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


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.builds(StratumSpec, st.integers(0, 6), st.booleans()), max_size=5),
    st.integers(0, 3),
    st.integers(0, 3),
    SEEDS,
)
def test_synthesize_draws_match_documented_substreams(specs, hold_levels, swap_levels, seed):
    try:
        x = synthesize(specs, hold_levels, swap_levels, seed)
    except ValueError as exc:
        assert ref_synthesize(specs, hold_levels, swap_levels, seed) == ("ValueError", str(exc))
        return
    assert (x.codes.tolist(), tuple(x.domain)) == ref_synthesize(specs, hold_levels, swap_levels, seed)


def test_substreams_derived_in_several_passes(monkeypatch):
    """States derived a few keys per pass, with passes that split one
    seed's strata and one replication block's seeds, give the same draws."""
    from permuswap import swapping

    monkeypatch.setattr(swapping, "_KEYS_PER_PASS", 3)
    specs = [StratumSpec(n % 5, mixed=n % 3 > 0) for n in range(11)]
    assert (synthesize(specs, 2, 3, 9).codes.tolist(), (11, 2, 3)) == ref_synthesize(specs, 2, 3, 9)
    x = synthesize(specs, 2, 3, 4)
    assert run_psa_details(x, PsaParams(0.6, 5)).permutation.mapping == ref_draw_mapping(x, 0.6, 5)
    assert utility_experiment(x, [0.3, 0.9], 7, 8) == ref_utility_experiment(x, [0.3, 0.9], 7, 8)


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


@pytest.mark.parametrize("bad", [(0, -1, 0), (0, 2, 0), (1, 0, 0), (0, 0, 3)])
def test_out_of_domain_record_named_by_index(bad):
    records = [(0, 0, 0), (0, 1, 2), bad, (0, 0, 1)]
    message = rf"record 2 = \({bad[0]}, {bad[1]}, {bad[2]}\) outside domain \(1, 2, 3\)"
    with pytest.raises(ValueError, match=message):
        Dataset(records, Domain(1, 2, 3))
    with pytest.raises(ValueError, match=message):
        Dataset(np.array(records), Domain(1, 2, 3))
