"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; a failing criterion shows up as a failed test (pytest's FAILED line is
the fail line).  All comparisons are exact; the stated runtime budgets are
asserted as hard bounds.  Criteria 3-8 run the oracle checks of
`trivalent.selftest` with this suite's own seeds and bounds.
"""

import random
import time

from trivalent import counting, reference, selftest


def _report(number, name, elapsed):
    print("ACCEPTANCE %d (%s): PASS in %.2fs" % (number, name, elapsed))


def test_criterion_1_pointed_counts_to_50():
    start = time.perf_counter()
    coeffs = counting.subgroup_series(50).integer_coefficients()[1:]
    assert coeffs[:9] == [1, 1, 4, 8, 5, 22, 42, 40, 120]
    assert coeffs[49] == 499877970985660
    assert coeffs == list(reference.SUBGROUPS_BY_INDEX)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "subgroup counts to index 50", elapsed)


def test_criterion_2_class_counts_to_50():
    start = time.perf_counter()
    coeffs = counting.conjugacy_class_series(50).integer_coefficients()[1:]
    assert coeffs[:9] == [1, 1, 2, 2, 1, 8, 6, 7, 14]
    assert coeffs[49] == 9997568771074
    assert coeffs == list(reference.CONJUGACY_CLASSES_BY_INDEX)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, "conjugacy class counts to index 50", elapsed)


def test_criterion_3_weight_500():
    start = time.perf_counter()
    selftest.check_index_500(counting.subgroup_series(500),
                             counting.conjugacy_class_series(500))
    assert len(str(reference.SUBGROUPS_INDEX_500)) == 203
    assert len(str(reference.CONJUGACY_CLASSES_INDEX_500)) == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    _report(3, "index-500 values digit-for-digit", elapsed)


def test_criterion_4_census_series_equivalence():
    start = time.perf_counter()
    unpointed_totals = selftest.check_census(9)
    assert unpointed_totals == [1, 1, 2, 2, 1, 8, 6, 7, 14]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, "census equals series for sizes 1..9", elapsed)


def test_criterion_5_normality_structure():
    start = time.perf_counter()
    selftest.check_normal_structure()
    elapsed = time.perf_counter() - start
    _report(5, "normal classes at sizes 3/5/6 with cyclic vs symmetric split", elapsed)


def test_criterion_6_method_cross_validation():
    start = time.perf_counter()
    selftest.check_dense_vs_fast(20)
    selftest.check_recurrence(500)
    elapsed = time.perf_counter() - start
    _report(6, "dense=fast to order 20; recurrence=closed form to 500", elapsed)


def test_criterion_7_fixed_point_count_oracle():
    start = time.perf_counter()
    selftest.check_commuting_counts(7)
    elapsed = time.perf_counter() - start
    _report(7, "commuting-count formula vs brute force (weight <= 7)", elapsed)


def test_criterion_8_property_suites():
    start = time.perf_counter()
    rng = random.Random(52016)
    # randomized exp/log and Euler/Moebius round-trips, >= 100 cases each
    selftest.check_series_roundtrips(rng, 110, 64)
    # canonical-code completeness against brute-force isomorphism at n <= 8
    selftest.check_canonical_codes(rng, range(1, 9), 1)
    elapsed = time.perf_counter() - start
    _report(8, "round-trips, code completeness at n<=8", elapsed)
