import json
from pathlib import Path

import pytest

from permuswap import Dataset, Domain, Record, load_dataset, load_roles

FIXTURES = Path(__file__).parent / "fixtures"


def make_dataset(records, domain):
    return Dataset(tuple(Record(*r) for r in records), Domain(*domain))


def bom_crlf_copy(src, dest):
    """Write src as a spreadsheet export would: a UTF-8 byte-order mark and CRLF line ends."""
    dest.write_bytes(b"\xef\xbb\xbf" + src.read_bytes().replace(b"\n", b"\r\n"))
    return dest


def load_fixture(name):
    """Fixture dataset plus its expected-bound annotation."""
    dataset = load_dataset(
        FIXTURES / f"{name}.csv", load_roles(FIXTURES / f"{name}.roles.json")
    )
    expected = json.loads((FIXTURES / f"{name}.expected.json").read_text(encoding="utf-8"))
    return dataset, expected


@pytest.fixture
def two_record_pair():
    """The smallest mixed stratum and its swapped twin (b = 2)."""
    x = make_dataset([(0, 0, 0), (0, 1, 1)], (1, 2, 2))
    x_swapped = make_dataset([(0, 0, 1), (0, 1, 0)], (1, 2, 2))
    return x, x_swapped
