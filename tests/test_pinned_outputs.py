"""Seeded outputs pinned byte for byte.

The swapper's output is a pure function of (dataset, p, seed).  These
SHA-256 digests were recorded before the storage of ``Dataset`` became
columnar and must never change: a faster path that alters one RNG draw,
the stratum order or a table cell fails here.

The CLI's reports (budget, curve, verify, tda-report, utility and the
synth roles file) are pinned the same way, so a rewrite of the code
that formats them must reproduce every byte.  One run draws enough
substreams that the swapper's batched kernel and its seated generator
both take part.

The exhaustive sweep is pinned the same way: its counts and failures
as values, and every universe's b, size, measured optimum and budget
per rate (as ``repr`` floats) as one digest, so a faster sweep must
reproduce each float bit for bit.

Run ``python tests/test_pinned_outputs.py`` to print the digests the
current code produces, in the layout of the tables below.
"""

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

from permuswap import PsaParams, run_psa_details, swapping
from permuswap.cli import main as cli_main
from permuswap.dataset import Domain
from permuswap.exact import dp_sweep
from permuswap.synth import StratumSpec, synthesize

from conftest import FIXTURES, make_dataset


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _datasets():
    """Named inputs: empty, one stratum, a constant stratum, many strata, 200k records."""
    return {
        "empty": make_dataset([], (2, 2, 2)),
        "one_stratum": synthesize([StratumSpec(40)], 3, 4, seed=5),
        "constant_stratum": synthesize(
            [StratumSpec(30, mixed=False), StratumSpec(12)], 2, 3, seed=6
        ),
        "many_strata": synthesize(
            [StratumSpec(n % 9) for n in range(300)], 2, 5, seed=7
        ),
        "records_200k": synthesize([StratumSpec(2000)] * 100, 2, 14, seed=8),
    }


# (dataset, p, seed) -> (sha256 of table.canonical_string(), sha256 of the mapping)
RUN_PSA_DIGESTS = {
    ("empty", 0.5, 0): (
        "7be5436650162cea065a868656caa8e01c89204728bc13b75056ee4fd6e43df8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("one_stratum", 0.05, 0): (
        "b0706e700e1ac7eacef775b5bee7c82f4503c02abe949713c4be9b3c6acb66a1",
        "18c817dae6b1850c26989f5b96aabce152efd83ed2a5cf8c205f280a4f9ac125",
    ),
    ("one_stratum", 0.5, 11): (
        "d5773621e981b69fb9d65e9d345bdf392a3d71f906cc6f2b35aa5a082b377cd2",
        "7bb52ccb9d88390a3cfea6f7252323b0fa9ecf6d1a1bb1ea3a291875a08c9059",
    ),
    ("one_stratum", 1.0, 3): (
        "fb87b7d8590640ce121312fc133faa76b030d715c1196b050db831b3a1383be8",
        "61cffd88d7e90123ae91e6cb7ebdb3bceae4438dad3f41fe7d00d405290c8e8d",
    ),
    ("constant_stratum", 0.5, 2): (
        "479679dd328081998726a779cfda337a402d231696b4d43249a528b13ce708e7",
        "56c7b0977446dd85513f5a655dd78f4b52ec609715d3b1666b3cd23327a1f144",
    ),
    ("many_strata", 0.3, -1): (
        "c61297624d7a34c59863aa4abf75abb7606326eb6cf2d6bd072c3e8d3d259f0b",
        "5c40d887bf0605ac0e94332f75b4ad3a4fd343390f849232be2a3364d2576d7e",
    ),
    ("many_strata", 0.0, 4): (
        "07c7759e1fa56c8dd9d825a212b9e0d63be3e8f7ceb1d880d17a488b89cc29ed",
        "121dab5990d09611e2ff20f9e701703c3f54fc34f5cb44aa70e306ace8d495c5",
    ),
    ("records_200k", 0.05, 2**64 + 9): (
        "bbe0638538dc984f1156a58e9fbae0871ea3d28c3d9475c524b0df5e5e86e9cd",
        "142a1b4ad56d69629aa67933bb2291750e2679c553c672fa85526be72e72e5f6",
    ),
}

# CLI output files -> sha256 of their bytes
CLI_DIGESTS = {
    "table.csv": "0dbfc3d82f3f30b093a555b68f925cd85f9c696c0cacadfc7510ab3ff94ada02",
    "run.json": "69f24dfad9f11073eb971ff627c942367a3d0467934dc7f7c8419deb5eb1cc8d",
    "utility.json": "74f89d9c0522d1da08d92051a32a7b42727171dae2199499f455506995927796",
}


def _run_digests(x, p, seed):
    run = run_psa_details(x, PsaParams(p, seed))
    mapping = ",".join(map(str, run.permutation.mapping))
    return _sha(run.table.canonical_string().encode()), _sha(mapping.encode())


def _cli_outputs(work):
    """Run synth, swap and utility through the CLI; return the output files' bytes."""
    data, roles = work / "data.csv", work / "roles.json"
    steps = [
        ["synth", "--strata", "300,0,1,250,40", "--constant", "4",
         "--hold-levels", "3", "--swap-levels", "5", "--seed", "12",
         "--out", data, "--roles-out", roles],
        ["swap", "--input", data, "--roles", roles, "--p", "0.2", "--seed", "99",
         "--out", work / "table.csv", "--sidecar", work / "run.json"],
        ["utility", "--input", data, "--roles", roles, "--rates", "0.05,0.5",
         "--reps", "7", "--seed", "13", "--format", "json",
         "--out", work / "utility.json"],
    ]
    for argv in steps:
        assert cli_main([str(a) for a in argv]) == 0
    return {name: (work / name).read_bytes() for name in CLI_DIGESTS}


# A run with many substream keys: 500 replications at three rates, so
# the strata the batched kernel takes (see swapping._draw_mapping) draw
# on it and the others on the seated generator.  The CI workflow checks
# the same files with sha256sum.
MANY_KEY_DIGESTS = {
    "data.csv": "e470e05796df7f903d6471ca0e11b2ce6960c5b2a3ee4b6affa1ec0b6cd14a0a",
    "u.json": "8c98675817cfa2d502de10c9236f24b53432997788934bae25f257ddde64cf05",
    "t.csv": "cc1cacd8fe5e7d899912bcd6c89c008673cb25eccb4bb6727d9765077c208b89",
    "s.json": "b383e8133b4e9f87d881aa6c55951797864033cbc44225a4a88dbd05711c331a",
}


def _many_key_outputs(work):
    """Run synth, utility and swap as the CI workflow does; return the files' bytes."""
    data, roles = work / "data.csv", work / "roles.json"
    steps = [
        ["synth", "--strata", "2,3,5,8,40,200", "--constant", "5", "--hold-levels", "2",
         "--swap-levels", "3", "--seed", "11", "--out", data, "--roles-out", roles],
        ["utility", "--input", data, "--roles", roles, "--rates", "0.05,1/3,0.9",
         "--reps", "500", "--seed", "7", "--format", "json", "--out", work / "u.json"],
        ["swap", "--input", data, "--roles", roles, "--p", "1/3", "--seed", "7",
         "--out", work / "t.csv", "--sidecar", work / "s.json"],
    ]
    for argv in steps:
        assert cli_main([str(a) for a in argv]) == 0
    return {name: (work / name).read_bytes() for name in MANY_KEY_DIGESTS}


# One swap of 240 strata of 50 records at p = 0.05, as a census-size
# swap holds them: those strata draw on the kernel, and strata of 17, 64
# (constant), 65 and 400 records around them.  The sidecar's margin
# tables go through the JSON writer's matrix path.  The CI workflow
# checks the same files with sha256sum.
BULK_SWAP_DIGESTS = {
    "bulk.csv": "00a193d62f5ca9ee418b31e5f4c1a6b6fc0e9620b2e1a3ea245ef839d851b3fd",
    "bt.csv": "4aeced7adbaed74d3da6882ecc166231c249a0556144ac14d4da823d2266e910",
    "bs.json": "c5fbd991cb3e8a820b69d22d26e0dbd4c1a402f8f3fe3ab78cf43efa08cbbdd9",
}


def _bulk_swap_outputs(work):
    """Run synth and swap as the CI workflow does; return the files' bytes."""
    data, roles = work / "bulk.csv", work / "bulk_roles.json"
    steps = [
        ["synth", "--strata", ",".join(["50"] * 240 + ["17", "64", "65", "400"]), "--constant", "242",
         "--hold-levels", "2", "--swap-levels", "4", "--seed", "13", "--out", data, "--roles-out", roles],
        ["swap", "--input", data, "--roles", roles, "--p", "0.05", "--seed", "5",
         "--out", work / "bt.csv", "--sidecar", work / "bs.json"],
    ]
    for argv in steps:
        assert cli_main([str(a) for a in argv]) == 0
    return {name: (work / name).read_bytes() for name in BULK_SWAP_DIGESTS}


# One swap of 900 strata of 20-64 records at p = 0.05: the kernel's first
# selection round holds more than swapping._STEP_MIN_KEYS keys, so it
# steps them together, and its redraw rounds jump.  The digests were
# recorded before the stepped rounds existed.  The CI workflow checks
# the same files with sha256sum.
STEPPED_SWAP_DIGESTS = {
    "stepped.csv": "d4f8130c9292465ad29e5d11d05bbec6fcceaa5a1de2f05aca5fd2f6f277f6c7",
    "st.csv": "4077d157683b4261d38b5c3fdb7104ffb03a242b8c26e41e0241b511ad1e61d9",
    "ss.json": "52a043d52f360d7a9639322b2285e586ddb6c8f1df94874b77eeec22093477b6",
}


def _stepped_swap_outputs(work):
    """Run synth and swap as the CI workflow does; return the files' bytes."""
    data, roles = work / "stepped.csv", work / "stepped_roles.json"
    steps = [
        ["synth", "--strata", ",".join([str(n) for n in range(20, 65)] * 20) + ",", "--constant", "7",
         "--hold-levels", "2", "--swap-levels", "4", "--seed", "17", "--out", data, "--roles-out", roles],
        ["swap", "--input", data, "--roles", roles, "--p", "0.05", "--seed", "3",
         "--out", work / "st.csv", "--sidecar", work / "ss.json"],
    ]
    for argv in steps:
        assert cli_main([str(a) for a in argv]) == 0
    return {name: (work / name).read_bytes() for name in STEPPED_SWAP_DIGESTS}


# One swap of the fixture inferred_labels, whose roles declare no
# categories: ingest infers each column's labels, in code-point order.
# The labels are longer than one 8-byte word, some are not ASCII, and
# the hold role has two columns.  The CI workflow checks the same files
# with sha256sum.
INFERRED_SWAP_DIGESTS = {
    "it.csv": "727bc4db50f18d25cb4fe6c4a0f363ea75eca74e31d3121ee8ba15ee26e14bb2",
    "is.json": "04f24aaa411d82d141f78ddd0a650b1cea4d192ff54e4fcc6fd16ab2225819a2",
}


def _inferred_swap_outputs(work):
    """Swap the fixture as the CI workflow does; return the files' bytes."""
    argv = ["swap", "--input", FIXTURES / "inferred_labels.csv", "--roles", FIXTURES / "inferred_labels.roles.json",
            "--p", "0.3", "--seed", "7", "--out", work / "it.csv", "--sidecar", work / "is.json"]
    assert cli_main([str(a) for a in argv]) == 0
    return {name: (work / name).read_bytes() for name in INFERRED_SWAP_DIGESTS}


# Two synth runs whose hold or swap axis has one level, so that axis
# draws nothing; strata of 448 and 449 records sit on either side of
# synth._RAW_MAX_RECORDS, and several strata of 2 records come out with
# identical records and take the mixed-stratum fix-up.  The CI workflow
# checks the same files with sha256sum.
ONE_LEVEL_SYNTH_DIGESTS = {
    "hold1.csv": "37f1a332906b1c8878900e710320732801dbe9bc01e7c4472555494555f14078",
    "swap1.csv": "b94eda8908667525df9381012074bf8712275376d4f58faf5808226ee144daed",
}


def _one_level_synth_outputs(work):
    """Run the two synth commands as the CI workflow does; return the files' bytes."""
    strata = "2,2,2,2,2,2,3,5,8,40,200,448,449,1000,1,0"
    for name, hold_levels, swap_levels, seed in (("hold1.csv", 1, 3, 19), ("swap1.csv", 4, 1, 23)):
        argv = ["synth", "--strata", strata, "--constant", "7,13", "--hold-levels", hold_levels,
                "--swap-levels", swap_levels, "--seed", seed, "--out", work / name]
        assert cli_main([str(a) for a in argv]) == 0
    return {name: (work / name).read_bytes() for name in ONE_LEVEL_SYNTH_DIGESTS}


# CLI report -> sha256 of its stdout (for synth, of the --roles-out file);
# {fixtures} and {work} stand for the fixture and a scratch directory
REPORT_DIGESTS = {
    "budget --p 0.1 --b 5":
        "f3bf3ba42c2430489c0e5c0c2cdf068f31b26a6f50d8577e9be1ebe85e3db4fc",
    "budget --p 0 --b 5":
        "ca30cfac5a4c3dd566cf3411b70372ff6715d8c48cceb7bfad9d42b4c060ebb4",
    "budget --p 1 --b 0 --format json":
        "3fc16859ea1437d0bcc50ddb638cfd176e9738ac2e4d840ded40382239495897",
    "budget --table5":
        "6b3df1f5c92b8d0b71598ea36f94a75a08b59bc2ff731c8eb106aa5cc12d1d12",
    "budget --table5 --format json":
        "031860cd9e0156b9b4e797240be50a467ae07dfff4733fe4a8d5287beea0ee84",
    "curve --b 2,5,40":
        "b4b270bd7e502185733c2a226fb0a431f40d60879447bff3d0182813af0f82cd",
    "curve --b 4 --p-values 0,1/3,1":
        "b3e4a6b492db0d18ba1b5915088db3dca8e891a875173f4b8aaa8dc56b22a8d4",
    "verify --input {fixtures}/witness_odds.csv --roles {fixtures}/witness_odds.roles.json"
    " --p-values 0,1/10,1/2,1":
        "20494987eb8a5f912560a3928892c7b6b9b9eece497f47e58b2c864e6ace686a",
    "tda-report":
        "ec986e53eab3fe148c67c869699558d62f1fa6691205d67dae83cca068b3f1ae",
    "tda-report --format json":
        "957c440423e224575085fd7b252b1498651d92bc1ac98056f7d7d38c9b5d06c3",
    "utility --input {fixtures}/witness_ratio_b4.csv --roles {fixtures}/witness_ratio_b4.roles.json"
    " --rates 0.05,1/3,1 --reps 4 --seed 5":
        "a66a6855fc75f6dfd12bbf145855b87c5b33c03bc44752dd196067ad371ee133",
    "synth --strata 5,0,3 --constant 2 --hold-levels 3 --swap-levels 4 --seed 9"
    " --out {work}/data.csv --roles-out {work}/roles.json":
        "6703048eed6e2e6edeb4e5424ef3ccdff6b2617881f095169075ce0e43e168c1",
}


def _report_bytes(command, work):
    """Run one CLI report in-process; return the bytes it writes."""
    argv = command.format(fixtures=FIXTURES, work=work).split()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli_main(argv) == 0
    if "--roles-out" in argv:
        return (work / "roles.json").read_bytes()
    return stdout.getvalue().encode()


SWEEP_RATES = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))

# (domain, max_records) -> (universes, datasets, pair checks, connecting
# checks, failures, sha256 of the per-universe lines of _sweep_lines)
SWEEP_PINS = {
    ((1, 2, 2), 8): (
        285, 495, 888, 592, (),
        "50a4320cc8dd35018be047b02e98e5f2b618cf810a8bce260cdbf291c338f1a5",
    ),
    ((1, 2, 2), 10): (
        506, 1001, 2373, 1582, (),
        "47a920815f0da6e1e52d74ae2b071cb715b852d9f32a0997a5d48a2ae061af04",
    ),
    ((1, 2, 3), 5): (
        266, 462, 882, 588, (),
        "14ea614c52bc0c3eaf342333ef8b7a7652572102e3f932fde224be3873371d2c",
    ),
    ((2, 2, 2), 4): (
        406, 495, 282, 188, (),
        "19f6cee7c29b1e2edbb723f125906724bd6c6da9b823d18c357f7d92b1c4d267",
    ),
    ((2, 2, 2), 5): (
        966, 1287, 1098, 732, (),
        "e68c37d9b9a7f2b48f405fb4ecda7f473a8f01ab6341dd18cd370848d4df1701",
    ),
    ((2, 2, 3), 6): (
        10131, 18564, 41220, 27480, (),
        "785495b3dbabf21b7f8c2976b0ff6ad955868611a2a2608dfe7e6be6c01b50c9",
    ),
    ((3, 2, 2), 4): (
        1550, 1820, 846, 564, (),
        "c6edc4f0dedd9b0ce230dfa1e2f3c29b7254a3ab7e779762956b241d14e0bae8",
    ),
    ((2, 3, 1), 5): (
        462, 462, 0, 0, (),
        "4f3b8bea2093c6db743512d74cbc4abc4eca21b906a95b3f41162231e0970a19",
    ),
}


def _sweep_lines(report) -> str:
    return "".join(
        f"{u.b} {u.size} "
        + " ".join(f"{p!r}:{u.measured[p]!r}:{u.budget[p]!r}" for p in u.measured)
        + "\n"
        for u in report.universes
    )


def _sweep_pin(domain, max_records):
    report = dp_sweep(Domain(*domain), max_records, SWEEP_RATES)
    return (
        report.universe_count,
        report.dataset_count,
        report.pair_checks,
        report.connecting_checks,
        report.failures,
        _sha(_sweep_lines(report).encode()),
    )


@pytest.fixture(scope="module")
def datasets():
    return _datasets()


@pytest.mark.parametrize("case", sorted(RUN_PSA_DIGESTS, key=repr), ids=repr)
def test_run_psa_outputs_pinned(datasets, case):
    name, p, seed = case
    assert _run_digests(datasets[name], p, seed) == RUN_PSA_DIGESTS[case]


def test_cli_outputs_pinned(tmp_path):
    outputs = _cli_outputs(tmp_path)
    assert {name: _sha(data) for name, data in outputs.items()} == CLI_DIGESTS


def test_many_key_run_pinned(tmp_path):
    outputs = _many_key_outputs(tmp_path)
    assert {name: _sha(data) for name, data in outputs.items()} == MANY_KEY_DIGESTS


def test_bulk_swap_pinned(tmp_path):
    outputs = _bulk_swap_outputs(tmp_path)
    assert {name: _sha(data) for name, data in outputs.items()} == BULK_SWAP_DIGESTS


def test_stepped_swap_pinned(tmp_path, monkeypatch):
    rounds = []
    stepped = swapping._stepped_round
    monkeypatch.setattr(swapping, "_stepped_round", lambda state, n, threshold: rounds.append(len(n)) or stepped(state, n, threshold))
    outputs = _stepped_swap_outputs(tmp_path)
    assert {name: _sha(data) for name, data in outputs.items()} == STEPPED_SWAP_DIGESTS
    assert rounds and rounds[0] >= swapping._STEP_MIN_KEYS


def test_inferred_label_swap_pinned(tmp_path):
    outputs = _inferred_swap_outputs(tmp_path)
    assert {name: _sha(data) for name, data in outputs.items()} == INFERRED_SWAP_DIGESTS


def test_one_level_synth_pinned(tmp_path):
    outputs = _one_level_synth_outputs(tmp_path)
    assert {name: _sha(data) for name, data in outputs.items()} == ONE_LEVEL_SYNTH_DIGESTS


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_cli_reports_pinned(tmp_path, command):
    assert _sha(_report_bytes(command, tmp_path)) == REPORT_DIGESTS[command]


@pytest.mark.parametrize("case", sorted(SWEEP_PINS), ids=repr)
def test_sweep_report_pinned(case):
    assert _sweep_pin(*case) == SWEEP_PINS[case]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    xs = _datasets()
    for case in RUN_PSA_DIGESTS:
        print(f"    {case!r}: {_run_digests(xs[case[0]], case[1], case[2])!r},")
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in _cli_outputs(Path(tmp)).items():
            print(f"    {name!r}: {_sha(data)!r},")
        for name, data in _many_key_outputs(Path(tmp)).items():
            print(f"    {name!r}: {_sha(data)!r},")
        for name, data in _bulk_swap_outputs(Path(tmp)).items():
            print(f"    {name!r}: {_sha(data)!r},")
        for name, data in _stepped_swap_outputs(Path(tmp)).items():
            print(f"    {name!r}: {_sha(data)!r},")
        for name, data in _inferred_swap_outputs(Path(tmp)).items():
            print(f"    {name!r}: {_sha(data)!r},")
        for name, data in _one_level_synth_outputs(Path(tmp)).items():
            print(f"    {name!r}: {_sha(data)!r},")
        for command in REPORT_DIGESTS:
            print(f"    {command!r}: {_sha(_report_bytes(command, Path(tmp)))!r},")
    for case in SWEEP_PINS:
        print(f"    {case!r}: {_sweep_pin(*case)!r},")
