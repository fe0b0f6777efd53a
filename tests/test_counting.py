"""Tests for the generating-series pipelines."""

import itertools
import math
from fractions import Fraction

import pytest

from trivalent.counting import (
    conjugacy_class_series,
    conjugacy_class_series_dense,
    connected_egf,
    disconnected_egf,
    disconnected_egf_by_recurrence,
    disconnected_types_series,
    subgroup_series,
)
from trivalent.reference import (
    CONJUGACY_CLASSES_BY_INDEX,
    SUBGROUPS_BY_INDEX,
)
from trivalent import counting
from trivalent.selftest import (check_column_normalisation, check_integrality,
                                check_modular_vs_fraction)
from trivalent.series import TruncSeries, euler_transform, inverse_euler_transform

Q = Fraction


# --- disconnected EGF values ---------------------------------------------------


def test_disconnected_egf_first_values():
    star = disconnected_egf(6)
    assert star[0] == 1
    assert star[4] == Q(15, 4)
    assert star[5] == Q(91, 20)


def test_disconnected_egf_against_brute_force_pairs():
    # a*_n = (number of pairs (involution, order-dividing-3 permutation))/n!
    for n in range(7):
        count = 0
        for p in itertools.permutations(range(n)):
            if not all(p[p[i]] == i for i in range(n)):
                continue
            for q in itertools.permutations(range(n)):
                if all(q[q[q[i]]] == i for i in range(n)):
                    count += 1
        assert disconnected_egf(6 if n <= 6 else n)[n] == Q(count, math.factorial(n))


def test_general_disconnected_egf_against_brute_force_pairs():
    # general flavor: the second permutation is unconstrained
    for n in range(6):
        count = 0
        for p in itertools.permutations(range(n)):
            if all(p[p[i]] == i for i in range(n)):
                count += math.factorial(n)
        assert disconnected_egf(5, general=True)[n] == Q(count, math.factorial(n))


def test_recurrence_matches_closed_form():
    assert disconnected_egf_by_recurrence(120) == disconnected_egf(120)


def test_recurrence_small_orders():
    assert disconnected_egf_by_recurrence(3) == disconnected_egf(3)
    assert disconnected_egf_by_recurrence(0) == disconnected_egf(0)


# --- pointed counts -------------------------------------------------------------


def test_subgroup_series_first_nine():
    assert subgroup_series(9).integer_coefficients()[1:] == [1, 1, 4, 8, 5, 22, 42, 40, 120]


def test_subgroup_series_reference_50():
    coeffs = subgroup_series(50).integer_coefficients()[1:]
    assert coeffs == list(SUBGROUPS_BY_INDEX)
    assert coeffs[49] == 499877970985660


def test_subgroup_series_is_pointed_connected_egf():
    order = 30
    assert subgroup_series(order) == connected_egf(order).euler_operator()


# --- unpointed counts -------------------------------------------------------------


def test_dense_route_small_coefficients():
    dense = conjugacy_class_series_dense(9)
    assert dense.integer_coefficients()[1:] == [1, 1, 2, 2, 1, 8, 6, 7, 14]


def test_disconnected_types_small():
    types = disconnected_types_series(7)
    assert types.integer_coefficients() == [1, 1, 2, 4, 7, 10, 24, 37]


def test_fast_route_first_nine_and_reference_50():
    coeffs = conjugacy_class_series(50).integer_coefficients()[1:]
    assert coeffs[:9] == [1, 1, 2, 2, 1, 8, 6, 7, 14]
    assert coeffs == list(CONJUGACY_CLASSES_BY_INDEX)
    assert coeffs[49] == 9997568771074


def test_dense_and_fast_routes_agree_to_20():
    assert conjugacy_class_series_dense(20) == conjugacy_class_series(20)


def test_dense_route_cap():
    with pytest.raises(ValueError):
        conjugacy_class_series_dense(25)


def test_unpointed_is_moebius_log_of_disconnected_types():
    # past the dense cap, so the factoring is checked where only it runs
    order = 40
    for general in (False, True):
        types = disconnected_types_series(order, general)
        assert inverse_euler_transform(types) == conjugacy_class_series(order, general)


def test_euler_transform_of_unpointed_gives_disconnected_types():
    order = 40
    for general in (False, True):
        assert euler_transform(conjugacy_class_series(order, general)) == \
            disconnected_types_series(order, general)


def test_column_normalisation_matches_burnside_terms():
    check_column_normalisation(8)


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


def test_general_dense_route_agrees():
    assert conjugacy_class_series_dense(12, general=True) == \
        conjugacy_class_series(12, general=True)


# --- the modular kernel ----------------------------------------------------------


def test_modular_kernel_equals_fraction_oracles_to_60():
    # each order picks its own prime and exponent, down to P = 2 at order 1
    for order in range(1, 61):
        check_modular_vs_fraction(order)


def test_modulus_is_the_least_power_of_the_least_prime_above_the_order():
    for order, prime in ((0, 2), (1, 2), (2, 3), (4, 5), (7, 11), (500, 503)):
        bound = counting._bounds(counting._fixed_points(1, order, False))[-1] + 1
        modulus = counting._modulus(order, bound)
        assert modulus > bound << 64
        assert modulus % prime == 0 and modulus // prime <= bound << 64
        while modulus % prime == 0:
            modulus //= prime
        assert modulus == 1


def test_bounds_are_labeled_pairs_over_factorials():
    # h_n/(n-1)! with h_n = I_2(n)·I_3(n): 1, 2, 4·3/2, 10·9/6, 26·21/24
    assert counting._bounds(counting._fixed_points(1, 5, False)) == [0, 1, 2, 6, 15, 22]
    assert counting._bounds(counting._fixed_points(1, 5, True)) == [0, 1, 4, 12, 40, 130]
    for general in (False, True):
        counts = (subgroup_series(40, general).integer_coefficients(),
                  conjugacy_class_series(40, general).integer_coefficients())
        bounds = counting._bounds(counting._fixed_points(1, 40, general))
        assert all(c <= b for series in counts for c, b in zip(series, bounds))


def test_lift_rejects_a_residue_above_its_bound():
    # the residues are of n·c_n: 1·1 and 2·4 lift to 1 and 4
    assert counting._lift([0, 1, 8], [0, 1, 4]) == TruncSeries(2, [0, 1, 4])
    with pytest.raises(ValueError, match=r"t\^2: the residue is not 2 times a count within its bound"):
        counting._lift([0, 1, 10], [0, 1, 4])


def test_lift_rejects_a_residue_that_is_no_multiple():
    with pytest.raises(ValueError, match=r"t\^3: the residue is not 3 times"):
        counting._lift([0, 1, 2, 7], [0, 1, 2, 6])


# --- cross-cutting properties --------------------------------------------------------


def test_integrality_and_nonnegativity():
    check_integrality(40)


def test_pointing_bounds():
    # each class of index n has between 1 and n pointings
    order = 40
    pointed = subgroup_series(order).integer_coefficients()
    classes = conjugacy_class_series(order).integer_coefficients()
    for n in range(1, order + 1):
        assert classes[n] <= pointed[n] <= n * classes[n]
