"""Comparison tables agree with the outcomes pinned in bench/reference.

Every problem x method row of the catalog reference, and every start of
the sphere-basin pool through each of its methods, must come out of
``compare`` with the same stop reason, iteration count, rate kind and
count, the same note (only the exception type for ERROR rows), and a
final residual within 1e-12 relative.  The reference files are read,
never written.
"""

import json
import math
from pathlib import Path

import pytest

from feaskit import METHODS, StopReason, builtin, compare

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
RESIDUAL_RTOL = 1e-12


def _load(name: str) -> dict:
    return json.loads((REFERENCE / f"{name}.json").read_text(encoding="utf-8"))


PINNED = {
    key: row
    for key, row in _load("catalog")["ops"].items()
    if key.partition("/")[2] in METHODS
}
BASIN = _load("sphere-basin")


def assert_matches_pinned(row, want) -> None:
    assert row.stop.value == want["stop"]
    assert row.iterations == want["iterations"]
    assert (row.rate.kind.value if row.rate else None) == want["rate"]
    assert (row.rate.count if row.rate else None) == want["rate_count"]
    note = row.note.split(":", 1)[0] if row.stop is StopReason.ERROR else row.note
    assert note == want["note"]
    assert math.isclose(
        row.final_residual, want["final_residual"], rel_tol=RESIDUAL_RTOL, abs_tol=0.0
    )


def test_reference_covers_the_catalog_table():
    assert len(PINNED) == 50


@pytest.mark.parametrize("key", sorted(PINNED))
def test_compare_matches_pinned_row(key):
    problem, _, method = key.partition("/")
    (row,) = compare(builtin(problem), [method])
    assert_matches_pinned(row, PINNED[key])


def test_reference_covers_the_sphere_basin_pool():
    assert len(BASIN["ops"]) == 256
    assert BASIN["methods"] == ["crm", "dr"]


@pytest.mark.parametrize("key", sorted(BASIN["ops"]))
def test_sphere_basin_start_matches_pinned_rows(key):
    want = BASIN["ops"][key]
    rows = compare(builtin("sphere-line"), BASIN["methods"], x0=want["x0"])
    assert [r.method for r in rows] == BASIN["methods"]
    for row, pinned in zip(rows, want["rows"]):
        assert_matches_pinned(row, pinned)
