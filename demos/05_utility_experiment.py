"""How much does swapping hurt a two-way tabulation?

Runs the swapper twenty times at each of several rates on a synthetic
file and summarizes the mean absolute percentage error of the
hold-by-swap counts.  The released margins stay exact at every rate;
only the interior association between hold and swap erodes, and it
erodes monotonically in the rate.

Writes long-format data to utility_mape.csv, ready for any boxplot
tool.
"""

from pathlib import Path

from permuswap import utility_experiment
from permuswap.synth import StratumSpec, synthesize
from permuswap.utility import utility_csv

RATES = [0.01, 0.05, 0.10, 0.25, 0.50]


def main():
    x = synthesize(
        [StratumSpec(60), StratumSpec(45), StratumSpec(30)],
        hold_levels=6,
        swap_levels=5,
        seed=1940,
    )
    print(f"{len(x.records)} records, domain {tuple(x.domain)}\n")
    reports = utility_experiment(x, rates=RATES, reps=20, seed=0)
    print(f"{'rate':>6} {'min':>8} {'q1':>8} {'median':>8} {'q3':>8} {'max':>8} {'mean':>8}")
    for r in reports:
        s = r.summary
        print(
            f"{r.rate:>6.2f} {s.minimum:>8.4f} {s.q1:>8.4f} {s.median:>8.4f} "
            f"{s.q3:>8.4f} {s.maximum:>8.4f} {s.mean:>8.4f}"
        )
    Path("utility_mape.csv").write_text(utility_csv(reports), encoding="utf-8")
    print("\nwrote utility_mape.csv (rate, rep, mape)")
    print(f"conventions: {reports[0].metadata['zero_cells']};")
    print(f"             {reports[0].metadata['quartiles']}")


if __name__ == "__main__":
    main()
