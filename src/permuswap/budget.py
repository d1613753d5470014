"""Closed-form privacy-loss arithmetic for permutation swapping.

The swapper's budget for a universe whose largest mixed stratum has b
records is, with odds o = p/(1-p):

    0                    if b = 0,
    ln(b+1) - ln(o)      if 0 < p <= sqrt(b+1)/(sqrt(b+1)+1),  b > 0,
    ln(o)                if sqrt(b+1)/(sqrt(b+1)+1) <= p < 1,  b > 0,
    infinity             if p in {0, 1} and b > 0.

Both branches agree at the threshold rate p* = sqrt(b+1)/(sqrt(b+1)+1),
where the minimum budget ln(b+1)/2 is attained; below p* the budget
falls as p rises, above it the odds term takes over, so every
attainable budget is hit by exactly two swap rates.

The module also carries derangement-number arithmetic (the combinatorial
engine behind the budget), the matching lower bounds and optimality gap,
and the zCDP accounting used for the 2020 Census comparison: budgets in
rho^2, composition by summation, and the conversion to approximate DP

    epsilon = rho^2 + 2 rho sqrt(-ln(delta)).

Everything is computed in the log domain; b up to 10^8 needs no big
integers except inside the exact derangement ratios.  Infinite epsilon
is a first-class value and serializes as the string "inf" everywhere.
"""

import math
import numbers
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Iterable, NamedTuple, Union

import numpy as np

__all__ = [
    "BudgetResult",
    "ZcdpBudget",
    "LowerBound",
    "derangement_count",
    "log_derangement_ratio",
    "psa_budget",
    "min_budget",
    "swap_rates_for_budget",
    "psa_lower_bounds",
    "optimality_gap_f",
    "zcdp_to_approx_dp",
    "compose_zcdp",
    "group_privacy_doubled",
    "CensusProductRow",
    "CounterfactualRow",
    "ConvertedBudget",
    "CensusComparisonReport",
    "load_census_zcdp_rows",
    "load_counterfactual_rows",
    "census2020_report",
    "EXACT_RATIO_THRESHOLD",
    "to_exact_rate",
]

# Above this stratum bound the derangement ratio d(b)/d(b-2) is replaced
# by its asymptote b(b-1); since d(k) = round(k!/e) for k >= 1 the
# absolute error of the log is below 1e-20 there.
EXACT_RATIO_THRESHOLD = 25

_derangements: list[int] = [1, 0]


def derangement_count(k: int) -> int:
    """Number of fixed-point-free permutations of k elements.

    Computed by the recurrence d(k) = k d(k-1) + (-1)^k with exact
    integers; d(0) = 1, d(1) = 0.
    """
    k = operator.index(k)
    if k < 0:
        raise ValueError("derangement numbers are defined for k >= 0")
    while len(_derangements) <= k:
        j = len(_derangements)
        _derangements.append(j * _derangements[j - 1] + (-1) ** j)
    return _derangements[k]


def log_derangement_ratio(b: int) -> float:
    """ln(d(b) / d(b-2)), exact below the threshold, asymptotic above.

    Undefined at b = 3, where d(1) = 0 makes the ratio infinite; no
    universe realizes that ratio, so it is rejected rather than
    returned.
    """
    b = operator.index(b)
    if b < 2:
        raise ValueError("the derangement ratio needs b >= 2")
    if b == 3:
        raise ValueError("d(1) = 0: the ratio is undefined at b = 3")
    if b <= EXACT_RATIO_THRESHOLD:
        num, den = derangement_count(b), derangement_count(b - 2)
        return math.log(num) - math.log(den)
    return math.log(b) + math.log(b - 1)


def _validate_b(b: int) -> int:
    if b != int(b) or b < 0:
        raise ValueError(f"stratum bound b must be a non-negative integer, got {b!r}")
    return int(b)


RateLike = Union[numbers.Real, Decimal, str]
_OUTSIDE = "rate must lie in [0, 1]"


def to_exact_rate(p: RateLike) -> Fraction:
    """A rate as an exact rational: the package's one rate reader; its
    checked form, ``_unit_rate`` below, serves the swapper, the budget
    and the oracle.  Floats, numpy's too, are read through their
    shortest decimal (0.1 is 1/10); rationals, ``Decimal`` and strings
    like "1/3" exactly; any other number as its float.  NaN and the
    infinities raise ``ValueError`` as rates outside [0, 1] do."""
    if isinstance(p, numbers.Rational):
        return Fraction(int(p.numerator), int(p.denominator))
    if not isinstance(p, (float, np.floating)):
        try:
            # exact for a str or a Decimal; "nan", "inf" and other numbers go by their float
            return Fraction(p)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            p = float(p)
    if not math.isfinite(p):
        raise ValueError(_OUTSIDE)
    return Fraction(str(p))


def _unit_rate(p: RateLike) -> Union[float, Fraction]:
    """``p`` read by :func:`to_exact_rate` and checked to lie in [0, 1].
    A Python float (numpy's float64 too) is its own shortest decimal, so
    it is checked and returned as it is; any other rate as its rational."""
    rate = p if isinstance(p, float) else to_exact_rate(p)
    if not 0 <= rate <= 1:
        raise ValueError(_OUTSIDE)
    return rate


def _log_odds(p: float) -> float:
    return math.log(p) - math.log1p(-p)


def _odds(p: float) -> float:
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return math.inf
    return p / (1.0 - p)


@dataclass(frozen=True)
class BudgetResult:
    """A budget value with the regime of the case split that produced it."""

    epsilon: float
    regime: str  # "zero-b" | "low-p" | "high-p" | "infinite"
    p: float
    b: int
    odds: float

    def __post_init__(self) -> None:
        if self.regime not in {"zero-b", "low-p", "high-p", "infinite"}:
            raise ValueError(f"unknown regime {self.regime!r}")


def psa_budget(p: RateLike, b: int) -> BudgetResult:
    """Budget of the swapper at rate p over a universe with bound b.

    Exactly at the threshold rate the low-p branch governs the regime
    tag.  The value is the larger of the two branches on both sides:
    they agree at the threshold and the low-p branch is the larger below
    it, but in floats ln(b+1) - ln(o) at the threshold rate can round an
    ulp below ln(o), the budget at b - 1 there; taking the larger keeps
    the budget nondecreasing in b.
    """
    p = float(_unit_rate(p))
    b = _validate_b(b)
    if b == 0:
        return BudgetResult(0.0, "zero-b", p, b, _odds(p))
    if p in (0.0, 1.0):
        return BudgetResult(math.inf, "infinite", p, b, _odds(p))
    root = math.sqrt(b + 1)
    p_star = root / (root + 1.0)
    log_o = _log_odds(p)
    epsilon = max(math.log(b + 1) - log_o, log_o)
    return BudgetResult(epsilon, "low-p" if p <= p_star else "high-p", p, b, _odds(p))


def min_budget(b: int) -> tuple[float, float]:
    """Smallest attainable budget ln(b+1)/2 and the rate attaining it."""
    b = _validate_b(b)
    if b < 2:
        raise ValueError("the minimum budget needs b >= 2")
    root = math.sqrt(b + 1)
    return math.log(b + 1) / 2.0, root / (root + 1.0)


def _sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def swap_rates_for_budget(epsilon: float, b: int) -> Union[tuple[float, float], None]:
    """The two rates achieving a budget, or None below the minimum.

    The low rate solves ln(b+1) - ln(o) = epsilon, the high rate solves
    ln(o) = epsilon; they coincide at the minimum budget.
    """
    b = _validate_b(b)
    if b < 2:
        raise ValueError("rate inversion needs b >= 2")
    eps_min, _ = min_budget(b)
    if epsilon < eps_min:
        return None
    p_low = _sigmoid(math.log(b + 1) - epsilon)
    p_high = _sigmoid(epsilon)
    return p_low, p_high


class LowerBound(NamedTuple):
    """A necessary budget level together with the condition producing it."""

    value: float
    condition: str


def psa_lower_bounds(p: RateLike, b: int) -> list[LowerBound]:
    """Budget levels no universe-wide guarantee can beat.

    * degenerate-rate: p in {0, 1} forces an infinite budget;
    * selection-odds: some universe needs at least ln(o);
    * derangement-ratio: for b >= 2 (except the undefined b = 3) some
      universe needs at least ln(d(b)/d(b-2))/2 - ln(o).
    """
    p = float(_unit_rate(p))
    b = _validate_b(b)
    if p in (0.0, 1.0):
        return [LowerBound(math.inf, "degenerate-rate")]
    log_o = _log_odds(p)
    bounds = [LowerBound(log_o, "selection-odds")]
    if b >= 2 and b != 3:
        bounds.append(
            LowerBound(0.5 * log_derangement_ratio(b) - log_o, "derangement-ratio")
        )
    return bounds


def optimality_gap_f(b: int) -> float:
    """Worst-case slack of the low-p budget over the pointwise optimum:

        f(b) = ln[ (b+1)^2/(b(b-1)) * (1 + e/(2(b-2)!)) / (1 - e/(2 b!)) ] / 2

    positive, decreasing, and vanishing as b grows.  Factorials are
    exact below the ratio threshold; above it the correction terms are
    below double resolution and the leading term is evaluated in the
    log domain.
    """
    b = _validate_b(b)
    if b < 2:
        raise ValueError("the optimality gap needs b >= 2")
    if b <= EXACT_RATIO_THRESHOLD:
        lead = (b + 1) ** 2 / (b * (b - 1))
        num = 1.0 + math.e / (2.0 * math.factorial(b - 2))
        den = 1.0 - math.e / (2.0 * math.factorial(b))
        return 0.5 * math.log(lead * num / den)
    return 0.5 * math.log1p((3 * b - 1) / (b * (b - 1)))


# ---------------------------------------------------------------------------
# zCDP accounting

# the delta of the 2020 Census's (epsilon, delta) conversions
DEFAULT_DELTA = 1e-10


@dataclass(frozen=True)
class ZcdpBudget:
    """A zero-concentrated budget, reported as rho^2 by convention."""

    rho_squared: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.rho_squared < 0:
            raise ValueError("rho^2 must be non-negative")


def zcdp_to_approx_dp(rho_squared: float, delta: float) -> float:
    """Approximate-DP epsilon implied by a rho^2 budget at a given delta."""
    if rho_squared < 0:
        raise ValueError("rho^2 must be non-negative")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    rho = math.sqrt(rho_squared)
    return rho_squared + 2.0 * rho * math.sqrt(-math.log(delta))


def compose_zcdp(
    budgets: Iterable[Union[ZcdpBudget, float]], label: str = ""
) -> ZcdpBudget:
    """Sequential composition: rho^2 values add."""
    total = 0.0
    parts: list[str] = []
    for item in budgets:
        if isinstance(item, ZcdpBudget):
            total += item.rho_squared
            if item.label:
                parts.append(item.label)
        else:
            value = float(item)
            if value < 0:
                raise ValueError("rho^2 must be non-negative")
            total += value
    return ZcdpBudget(total, label or "+".join(parts))


def group_privacy_doubled(
    rho_squared: float, delta: float = DEFAULT_DELTA
) -> tuple[float, float]:
    """Budget seen by a unit contributing two records: rho doubles, so
    rho^2 quadruples.  Returns (doubled rho^2, converted epsilon)."""
    doubled = 4.0 * float(rho_squared)
    return doubled, zcdp_to_approx_dp(doubled, delta)


# ---------------------------------------------------------------------------
# 2020 Census constants and the comparison report

# the swap rates of the counterfactual table (the paper's Table 5)
COUNTERFACTUAL_RATES = (0.05, 0.5)
_COMPOSITION_MECHANISM = "composition"


@dataclass(frozen=True)
class CensusProductRow:
    product: str
    mechanism: str
    unit_resolution: str
    rho_squared: float
    published_epsilon: Union[float, None]
    invariants_note: str


@dataclass(frozen=True)
class CounterfactualRow:
    """One swapping scheme of the paper's Table 5: the stratum bound b
    of its largest stratum, the swapper's budget at each of
    ``COUNTERFACTUAL_RATES`` and the paper's figure at the same rates."""

    match_vars: str
    swap_vars: str
    b: int
    largest_stratum: str
    budgets: dict[float, BudgetResult]
    published_by_rate: dict[float, float]

    @property
    def epsilon_by_rate(self) -> dict[float, float]:
        return {rate: res.epsilon for rate, res in self.budgets.items()}


def _data_path(name: str) -> Path:
    return Path(str(resources.files("permuswap").joinpath("data", name)))


def _read_table(path: Union[str, Path], n_cols: int) -> list[list[str]]:
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != n_cols:
            raise ValueError(f"{path}:{lineno}: expected {n_cols} tab-separated fields")
        rows.append([f.strip() for f in fields])
    return rows


def load_census_zcdp_rows(path: Union[str, Path, None] = None) -> list[CensusProductRow]:
    """Load the shipped zCDP budget table (see data/census_zcdp.tsv)."""
    path = _data_path("census_zcdp.tsv") if path is None else Path(path)
    rows = []
    for product, mechanism, unit, rho2, pub_eps, note in _read_table(path, 6):
        rows.append(
            CensusProductRow(
                product=product,
                mechanism=mechanism,
                unit_resolution=unit,
                rho_squared=float(rho2),
                published_epsilon=None if pub_eps == "-" else float(pub_eps),
                invariants_note=note,
            )
        )
    return rows


def load_counterfactual_rows(
    path: Union[str, Path, None] = None,
) -> list[CounterfactualRow]:
    """Load the shipped swapping counterfactual table (b per scheme)
    and compute each scheme's budgets at ``COUNTERFACTUAL_RATES``."""
    path = _data_path("census_psa_counterfactual.tsv") if path is None else Path(path)
    rows = []
    for match_vars, swap_vars, b, stratum, *published in _read_table(path, 6):
        rows.append(
            CounterfactualRow(
                match_vars=match_vars,
                swap_vars=swap_vars,
                b=int(b),
                largest_stratum=stratum,
                budgets={rate: psa_budget(rate, int(b)) for rate in COUNTERFACTUAL_RATES},
                published_by_rate=dict(zip(COUNTERFACTUAL_RATES, map(float, published))),
            )
        )
    return rows


@dataclass(frozen=True)
class ConvertedBudget:
    label: str
    rho_squared: float
    epsilon: float
    published_epsilon: Union[float, None]
    note: str = ""

    @property
    def deviation(self) -> Union[float, None]:
        if self.published_epsilon is None:
            return None
        return self.epsilon - self.published_epsilon


@dataclass(frozen=True)
class CensusComparisonReport:
    """The 2020 accounting: per-product conversions, composed totals,
    group-privacy illustration, and the swapping counterfactual."""

    delta: float
    products: tuple[ConvertedBudget, ...]
    noise_stage_totals: tuple[ConvertedBudget, ...]
    topdown_total: ConvertedBudget
    overall: ConvertedBudget
    group_privacy_rho_squared: float
    group_privacy_epsilon: float
    counterfactual: tuple[CounterfactualRow, ...]
    notes: tuple[str, ...]


def census2020_report(
    delta: float = DEFAULT_DELTA,
    zcdp_path: Union[str, Path, None] = None,
    counterfactual_path: Union[str, Path, None] = None,
) -> CensusComparisonReport:
    """Recompute the 2020 privacy-loss accounting from the constants file.

    Each rho^2 in the report (every product, the two noise-stage totals
    and the composite rows PL+DHC and 2020-overall) is converted to
    epsilon at ``delta``.  Each composite row is checked against the sum
    of its parts before it is converted.  A published epsilon more than
    0.02 from its conversion gets a note (the PL household row deviates
    by about 0.09 because its rho^2 was rounded upstream).  The
    counterfactual is the rows of :func:`load_counterfactual_rows`.
    """
    rows = load_census_zcdp_rows(zcdp_path)
    mechanisms = [r for r in rows if r.mechanism != _COMPOSITION_MECHANISM]
    composites = {r.product: r for r in rows if r.mechanism == _COMPOSITION_MECHANISM}
    if "PL+DHC" not in composites or "2020-overall" not in composites:
        raise ValueError("constants file is missing the composite reference rows")

    def converted(
        label: str, rho_squared: float, published: Union[float, None] = None, note: str = ""
    ) -> ConvertedBudget:
        epsilon = zcdp_to_approx_dp(rho_squared, delta)
        return ConvertedBudget(label, rho_squared, epsilon, published, note)

    def checked_composite(product: str, parts: list[float], what: str) -> ConvertedBudget:
        row = composites[product]
        total = compose_zcdp(parts).rho_squared
        if abs(total - row.rho_squared) > 1e-9:
            raise ValueError(f"{what} sum to {total}, constants file says {row.rho_squared}")
        return converted(product, row.rho_squared, row.published_epsilon, row.invariants_note)

    products = tuple(
        converted(
            f"{r.product}/{r.unit_resolution}", r.rho_squared, r.published_epsilon, r.invariants_note
        )
        for r in mechanisms
    )
    notes = [
        f"{c.label}: published epsilon {c.published_epsilon} differs from "
        f"the conversion of rho^2={c.rho_squared} ({c.epsilon:.4f}); the published "
        "value was computed upstream from an unrounded rho^2"
        for c in products
        if c.deviation is not None and abs(c.deviation) > 0.02
    ]

    topdown_rows = [r for r in mechanisms if r.mechanism == "TopDown"]
    pl_noise = compose_zcdp(r.rho_squared for r in topdown_rows if r.product == "PL").rho_squared
    # the DHC run post-processes its own noisy measurements together with
    # the already-released PL file, so the PL budget composes in
    dhc_total = compose_zcdp(
        [r.rho_squared for r in topdown_rows if r.product == "DHC"] + [pl_noise, 0.0]
    ).rho_squared
    noise_totals = (converted("PL noise stage", pl_noise), converted("DHC incl. PL", dhc_total))

    topdown_total = checked_composite("PL+DHC", [r.rho_squared for r in topdown_rows], "TopDown rows")
    non_topdown = [r.rho_squared for r in mechanisms if r.mechanism != "TopDown"]
    overall = checked_composite("2020-overall", [topdown_total.rho_squared] + non_topdown, "products")
    gp_rho2, gp_eps = group_privacy_doubled(overall.rho_squared, delta)

    notes.append(
        "swapping budgets cover every product derived from the swapped file; "
        "the zCDP budgets cover only the listed releases"
    )
    return CensusComparisonReport(
        delta=delta,
        products=products,
        noise_stage_totals=noise_totals,
        topdown_total=topdown_total,
        overall=overall,
        group_privacy_rho_squared=gp_rho2,
        group_privacy_epsilon=gp_eps,
        counterfactual=tuple(load_counterfactual_rows(counterfactual_path)),
        notes=tuple(notes),
    )
