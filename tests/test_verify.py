import hashlib
import time

import pytest

from sepprof.verify import (EXPECTED_FAILURES, SUITES, VerifyContext,
                            hard_failures, rows_to_csv, run_suites)

# SHA-256 of the CSV of `sepprof verify all --seed 7` without its first line,
# which names the backend. A change that moves report bytes re-pins it and
# explains each changed row in CHANGES.md.
PINNED_REPORT_SHA256 = \
    "2bd614d6a77243d75560bb80d0eb01dd71f572c82289bdaaea7dc7b419e27233"


@pytest.fixture(scope="module")
def default_rows():
    return run_suites(list(SUITES), VerifyContext(seed=7))


def test_all_suites_green_except_expected(default_rows):
    assert not hard_failures(default_rows)
    failing = {r.check_id for r in default_rows if r.status == "fail"}
    assert failing == set(EXPECTED_FAILURES)


def test_default_report_is_pinned(default_rows):
    body = rows_to_csv(default_rows, {}).split("\n", 1)[1]
    assert hashlib.sha256(body.encode()).hexdigest() == PINNED_REPORT_SHA256


def test_rows_sorted_and_anchored_uniquely():
    ctx = VerifyContext(seed=7)
    rows = run_suites(["conditions", "cocycles"], ctx)
    ids = [r.check_id for r in rows]
    assert ids == sorted(ids) and len(ids) == len(set(ids))
    anchor_of = {}
    for r in rows:
        assert anchor_of.setdefault(r.check_id, r.anchor) == r.anchor


def test_csv_shape_and_default_has_no_timings():
    ctx = VerifyContext(seed=7)
    rows = run_suites(["conditions"], ctx)
    text = rows_to_csv(rows, {"seed": 7})
    lines = text.strip().splitlines()
    assert lines[1] == "check_id,anchor,status,lhs,rhs,tol,ms"
    assert all(line.endswith(",") for line in lines[2:])  # empty ms column


def test_seed_changes_estimates_but_not_exact_rows():
    rows_a = run_suites(["conditions"], VerifyContext(seed=1))
    rows_b = run_suites(["conditions"], VerifyContext(seed=2))
    assert [(r.check_id, r.lhs, r.rhs) for r in rows_a] == \
        [(r.check_id, r.lhs, r.rhs) for r in rows_b]


def test_timings_are_per_check():
    start = time.perf_counter()
    rows = run_suites(["cuts_profiles"], VerifyContext(seed=7), timings=True)
    elapsed = (time.perf_counter() - start) * 1000.0
    ms = [r.ms for r in rows]
    assert all(m >= 0 for m in ms) and len(set(ms)) > 1
    assert sum(ms) == pytest.approx(elapsed, rel=0.01, abs=1.0)
    # the creation stamp does not take part in row equality
    ctx = VerifyContext(seed=7)
    assert run_suites(["conditions"], ctx) == run_suites(["conditions"], ctx)


def test_cocycle_rows_are_pinned():
    rows = run_suites(["cocycles"], VerifyContext(seed=7))
    assert [(r.check_id, r.status, r.lhs, r.rhs) for r in rows] == [
        ("cocycle:ball-growth", "pass", "710", "710"),
        ("cocycle:far-element-count", "pass", "28", "20"),
        ("cocycle:lamp-generators-null", "pass", "0", "0"),
        ("cocycle:lipschitz-on-generators", "pass", "1", "1"),
        ("cocycle:norm-lower-bound", "pass", "1.44115338425", "0.666666666667"),
        ("cocycle:range-identity", "pass", "0", "0"),
        ("cocycle:range-tau5", "pass", "5", "5"),
    ]
