"""The verdicts of bench/compare.py."""

from bench.compare import compare, judge

A = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def test_same_numbers_are_unchanged():
    assert judge(A, A, "higher", 0.10)["verdict"] == "unchanged"


def test_median_worse_than_the_bound_regresses():
    b = [x * 0.85 for x in A]
    r = judge(A, b, "higher", 0.10)
    assert r["verdict"] == "regressed" and abs(r["worse"] - 0.15) < 1e-9
    assert judge(A, [x * 1.15 for x in A], "lower", 0.10)["verdict"] == \
        "regressed"


def test_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread():
    b = [x * 1.08 for x in A]
    r = judge(A, b, "higher", 0.10)
    assert r["verdict"] == "improved" and r["wins"] == 10
    # same gain, but only three pairs were run
    assert judge(A[:3], b[:3], "higher", 0.10)["verdict"] == "unchanged"
    # wins every pair, but by less than A's own quartile spread
    tiny = [x + 0.1 for x in A]
    assert judge(A, tiny, "higher", 0.10)["verdict"] == "unchanged"
    # two of ten pairs lost
    mixed = b[:8] + [x * 0.99 for x in A[8:]]
    assert judge(A, mixed, "higher", 0.10)["verdict"] != "improved"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [100, 60, 140, 100, 70, 130, 100, 65, 135, 100]
    assert judge(noisy, noisy, "higher", 0.10)["verdict"] == "unresolved"
    # unless every run of B beats every run of A
    assert judge(noisy, [x + 100 for x in noisy], "higher", 0.10)[
        "verdict"] == "improved"


def test_rows_cover_every_workload_and_metric():
    bench = {"workloads": [{"name": "w1"}, {"name": "w2"}],
             "end_to_end": [{"name": "m", "unit": "s", "better": "lower",
                             "bound": 0.1}]}
    ok = {"status": "ok", "metrics": {"m": {"values": [1.0, 1.01, None]}}}
    set_a = {"summary": {"w1": ok, "w2": {"status": "skipped"}}}
    rows = compare(set_a, set_a, bench)
    assert [(r["workload"], r["verdict"]) for r in rows] == \
        [("w1", "unchanged"), ("w2", "skipped")]
    assert rows[0]["ratio"] == 1.0 and rows[0]["pairs"] == 2
