"""Tests for the generating-series pipelines."""

import math
from fractions import Fraction

import pytest

from trivalent.counting import (
    conjugacy_class_series,
    conjugacy_class_series_dense,
    disconnected_egf,
    disconnected_egf_by_recurrence,
    subgroup_series,
)
from trivalent import counting, reference
from trivalent.selftest import (SelfTestFailure, brute_commuting, check_index_500,
                                check_modular_vs_fraction, check_parity_laws)
from trivalent.series import TruncSeries

Q = Fraction


# --- disconnected EGF values ---------------------------------------------------


def test_disconnected_egf_first_values():
    star = disconnected_egf(6)
    assert star[0] == 1
    assert star[4] == Q(15, 4)
    assert star[5] == Q(91, 20)


def test_disconnected_egf_against_brute_force_pairs():
    # a*_n = (number of pairs (involution, order-dividing-3 permutation))/n!;
    # the two are independent, so the count is the product of the brute-force
    # counts of tau^p = id (tau commuting with the identity of n points)
    for n in range(7):
        count = brute_commuting(2, ((1, n),)) * brute_commuting(3, ((1, n),))
        assert disconnected_egf(6)[n] == Q(count, math.factorial(n))


def test_general_disconnected_egf_against_brute_force_pairs():
    # general flavor: the second permutation is unconstrained
    for n in range(6):
        count = brute_commuting(2, ((1, n),)) * math.factorial(n)
        assert disconnected_egf(5, general=True)[n] == Q(count, math.factorial(n))


def test_recurrence_small_orders():
    assert disconnected_egf_by_recurrence(3) == disconnected_egf(3)
    assert disconnected_egf_by_recurrence(0) == disconnected_egf(0)


# --- unpointed counts -------------------------------------------------------------


def test_dense_route_cap():
    with pytest.raises(ValueError):
        conjugacy_class_series_dense(25)


# --- general flavor ----------------------------------------------------------------


def test_general_pointed_series():
    coeffs = subgroup_series(6, general=True).integer_coefficients()
    assert coeffs[1] == 1  # only the whole group has index 1
    assert coeffs[1:] == [1, 3, 7, 23, 71, 255]


def test_general_unpointed_matches_census():
    from trivalent.census import enumerate_size

    coeffs = conjugacy_class_series(9, general=True).integer_coefficients()
    census_counts = [enumerate_size(n, trivalent=False).unpointed_classes
                     for n in range(1, 10)]
    assert coeffs[1:] == census_counts
    assert census_counts[:6] == [1, 3, 3, 10, 15, 56]


def test_general_pointed_matches_census():
    from trivalent.census import enumerate_size

    coeffs = subgroup_series(9, general=True).integer_coefficients()
    census_counts = [enumerate_size(n, trivalent=False).pointed_classes
                     for n in range(1, 10)]
    assert coeffs[1:] == census_counts


# --- the modular kernel ----------------------------------------------------------


def test_modular_kernel_equals_fraction_oracles_to_60():
    # each order picks its own trivalent prime and exponent, down to P = 2 at
    # order 1; the general kernel runs without one
    for order in range(1, 61):
        check_modular_vs_fraction(order)


def test_column_kernels_equal_fraction_logs_to_150():
    check_modular_vs_fraction(150)


def _with_one_entry_off(kernel, column):
    """`kernel` with entry 2 of its output for column k = `column` raised by 1."""
    def wrong(k, *args):
        out = kernel(k, *args)
        if k == column:
            out[2] += 1
        return out
    return wrong


def _seam_with_one_entry_off(seam, column):
    """`seam` handing out its kernel with entry 2 for column `column` raised by 1."""
    def wrong(order, general):
        kernel, bounds = seam(order, general)
        return _with_one_entry_off(kernel, column), bounds
    return wrong


@pytest.mark.parametrize("name, flavor", [("_general_log_derivative", "general"),
                                          ("_residue_column", "trivalent"),
                                          ("_column_kernel", "general")])
def test_fraction_oracle_names_a_faulty_column_kernel(monkeypatch, name, flavor):
    # a fault in a kernel or at the seam that hands the kernels out reaches
    # both the oracle, which names the column, and the class series
    fault = _seam_with_one_entry_off if name == "_column_kernel" else _with_one_entry_off
    monkeypatch.setattr(counting, name, fault(getattr(counting, name), 3))
    with pytest.raises(SelfTestFailure, match="%s column 3 differs at order 40" % flavor):
        check_modular_vs_fraction(40)
    with pytest.raises(ValueError, match="is not"):
        conjugacy_class_series(40, flavor == "general")


@pytest.mark.parametrize("general", [False, True], ids=["trivalent", "general"])
def test_parity_laws_catch_one_flipped_coefficient(monkeypatch, general):
    real = counting.subgroup_series

    def flipped(order, flavor=False):
        series = real(order, flavor)
        if flavor != general:
            return series
        coeffs = list(series.coeffs)
        coeffs[37] += 1
        return TruncSeries(order, coeffs)

    check_parity_laws(60)
    monkeypatch.setattr(counting, "subgroup_series", flipped)
    with pytest.raises(SelfTestFailure, match="^parity-laws: %s s_37 is %s$"
                       % ("general" if general else "trivalent", "even" if general else "odd")):
        check_parity_laws(60)


@pytest.mark.parametrize("wrong", ["subgroup", "class"])
def test_index_500_check_fails_under_the_name_of_its_check(wrong):
    # `selftest full` runs `check_index_500` as its modular-vs-fraction-500
    # check, so a wrong index-500 value is reported under that name
    pointed = {500: reference.SUBGROUPS_INDEX_500 + (wrong == "subgroup")}
    classes = {500: reference.CONJUGACY_CLASSES_INDEX_500 + (wrong == "class")}
    with pytest.raises(SelfTestFailure,
                       match="^modular-vs-fraction-500: index-500 %s count mismatch$" % wrong):
        check_index_500(pointed, classes)


def test_general_series_compute_no_modulus(monkeypatch):
    def no_modulus(order, bound):
        raise AssertionError("the general kernel took a modulus")

    expected = subgroup_series(40, True), conjugacy_class_series(40, True)
    monkeypatch.setattr(counting, "_modulus", no_modulus)
    assert (subgroup_series(40, True), conjugacy_class_series(40, True)) == expected


@pytest.mark.parametrize("series", [subgroup_series, conjugacy_class_series])
@pytest.mark.parametrize("general", [False, True])
def test_series_reject_a_negative_order(series, general):
    with pytest.raises(ValueError, match="truncation order must be >= 0, got -1"):
        series(-1, general)


def test_modulus_is_the_least_power_of_the_least_prime_above_the_order():
    for order, prime in ((0, 2), (1, 2), (2, 3), (4, 5), (7, 11), (500, 503)):
        bound = counting._bounds(order, False)[-1] + 1
        modulus = counting._modulus(order, bound)
        assert modulus > bound << 64
        assert modulus % prime == 0 and modulus // prime <= bound << 64
        while modulus % prime == 0:
            modulus //= prime
        assert modulus == 1


def test_bounds_are_labeled_pairs_over_factorials():
    # h_n/(n-1)! with h_n = I_2(n)·I_3(n): 1, 2, 4·3/2, 10·9/6, 26·21/24
    assert counting._bounds(5, False) == [0, 1, 2, 6, 15, 22]
    assert counting._bounds(5, True) == [0, 1, 4, 12, 40, 130]
    for general in (False, True):
        counts = (subgroup_series(40, general).integer_coefficients(),
                  conjugacy_class_series(40, general).integer_coefficients())
        bounds = counting._bounds(40, general)
        assert all(c <= b for series in counts for c, b in zip(series, bounds))


def test_lift_rejects_a_residue_above_its_bound():
    # the values are n·c_n: 1·1 and 2·4 lift to 1 and 4
    assert counting._lift([0, 1, 8], [0, 1, 4]) == TruncSeries(2, [0, 1, 4])
    with pytest.raises(ValueError, match=r"t\^2: the kernel sum is not 2 times a count within its bound"):
        counting._lift([0, 1, 10], [0, 1, 4])
    # exact sums can be negative, where residues could not
    with pytest.raises(ValueError, match=r"t\^2: the kernel sum is not 2 times a count within its bound"):
        counting._lift([0, 1, -2], [0, 1, 4])


def test_lift_rejects_a_residue_that_is_no_multiple():
    with pytest.raises(ValueError, match=r"t\^3: the kernel sum is not 3 times"):
        counting._lift([0, 1, 2, 7], [0, 1, 2, 6])


# --- cross-cutting properties --------------------------------------------------------


def test_pointing_bounds():
    # each class of index n has between 1 and n pointings
    order = 40
    pointed = subgroup_series(order).integer_coefficients()
    classes = conjugacy_class_series(order).integer_coefficients()
    for n in range(1, order + 1):
        assert classes[n] <= pointed[n] <= n * classes[n]
