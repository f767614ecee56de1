"""The catalog table agrees with the outcomes pinned in bench/reference.

Every problem x method row of the benchmark's reference must come out of
``compare`` with the same stop reason, iteration count, rate kind and
count, the same note (only the exception type for ERROR rows), and a
final residual within 1e-12 relative.
"""

import json
import math
from pathlib import Path

import pytest

from feaskit import METHODS, StopReason, builtin, compare

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "catalog.json"
RESIDUAL_RTOL = 1e-12
PINNED = {
    key: row
    for key, row in json.loads(REFERENCE.read_text(encoding="utf-8"))["ops"].items()
    if key.partition("/")[2] in METHODS
}


def test_reference_covers_the_catalog_table():
    assert len(PINNED) == 50


@pytest.mark.parametrize("key", sorted(PINNED))
def test_compare_matches_pinned_row(key):
    problem, _, method = key.partition("/")
    want = PINNED[key]
    (row,) = compare(builtin(problem), [method])
    assert row.stop.value == want["stop"]
    assert row.iterations == want["iterations"]
    assert (row.rate.kind.value if row.rate else None) == want["rate"]
    assert (row.rate.count if row.rate else None) == want["rate_count"]
    note = row.note.split(":", 1)[0] if row.stop is StopReason.ERROR else row.note
    assert note == want["note"]
    assert math.isclose(
        row.final_residual, want["final_residual"], rel_tol=RESIDUAL_RTOL, abs_tol=0.0
    )
