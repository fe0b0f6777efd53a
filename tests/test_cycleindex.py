"""Tests for cycle types and the commuting fixed-point counts.

The brute-force oracle is `trivalent.selftest.brute_commuting`, which
enumerates permutations directly; criterion 7 of the acceptance suite compares
it with the commuting-count formula on every type of weight <= 7.  The dense
tables checked here were computed independently of the factored columns.
"""

import math
from fractions import Fraction

import pytest

from trivalent.counting import (
    _burnside_term,
    _condensed_column,
    conjugacy_class_series_dense,
)
from trivalent.cycleindex import (
    DENSE_WEIGHT_CAP,
    centralizer_order,
    commuting_order_p_counts,
    count_commuting_order_p,
    cycle_types,
    cycle_types_up_to,
)
from trivalent.selftest import brute_commuting
from trivalent.series import TruncSeries

Q = Fraction


def ct(*pairs):
    return tuple(pairs)


# --- cycle types -------------------------------------------------------------


def test_cycle_type_validation():
    # each type once, with strictly increasing lengths, positive
    # multiplicities and the requested weight; weight 0 is the empty type
    assert list(cycle_types(0)) == [()]
    for w in range(13):
        types = list(cycle_types(w))
        assert len(set(types)) == len(types)
        for ctype in types:
            lengths = [k for k, _ in ctype]
            assert lengths == sorted(set(lengths))
            assert all(k >= 1 and m >= 1 for k, m in ctype)
            assert sum(k * m for k, m in ctype) == w


def test_centralizer_order():
    assert centralizer_order(ct((1, 4))) == 24
    assert centralizer_order(ct((2, 2))) == 8
    assert centralizer_order(ct((1, 2), (2, 1))) == 4


def test_cycle_type_counts_are_partition_numbers():
    counts = [sum(1 for _ in cycle_types(w)) for w in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


# --- commuting fixed-point counts ---------------------------------------------


def test_commuting_counts_known_values():
    assert count_commuting_order_p(2, ct((1, 4))) == 10
    assert count_commuting_order_p(3, ct((1, 4))) == 9
    assert count_commuting_order_p(2, ct((5, 1))) == brute_commuting(2, ct((5, 1)))
    assert count_commuting_order_p(2, ct((5, 1))) == 1


def test_commuting_count_recurrence_matches_double_sum():
    # The two-term recurrence must reproduce the explicit double sum
    # sum_{n1 + p*n2 = n} chi^{n1} n! k^n / (n1! n2! k^{n1+n2} p^{n2}).
    for p in (2, 3):
        for k in range(1, 6):
            chi = p if k % p == 0 else 1
            table = commuting_order_p_counts(p, k, 10)
            for n in range(11):
                total = Q(0)
                for n2 in range(n // p + 1):
                    n1 = n - p * n2
                    total += Q(
                        chi**n1,
                        math.factorial(n1) * math.factorial(n2) * k ** (n1 + n2) * p**n2,
                    )
                total *= math.factorial(n) * k**n
                assert total.denominator == 1
                assert table[n] == total.numerator


def test_commuting_counts_nonnegative_integers():
    for p in (2, 3):
        for ctype in cycle_types_up_to(9):
            value = count_commuting_order_p(p, ctype)
            assert isinstance(value, int) and value >= 0


def test_commuting_counts_reject_composite_order():
    with pytest.raises(ValueError):
        commuting_order_p_counts(4, 1, 5)
    with pytest.raises(ValueError):
        count_commuting_order_p(6, ct((1, 2)))


# --- factored columns -----------------------------------------------------------


def burnside(weight, fixed):
    """Isomorphism types of size `weight`: sum of fixed(type)/z(type)."""
    return sum(Q(fixed(c), centralizer_order(c)) for c in cycle_types(weight))


def test_factored_order2_coefficients():
    # x_1 column of the order-2 factor: the involution counts
    assert commuting_order_p_counts(2, 1, 8)[:5] == [1, 1, 2, 4, 10]
    assert Q(count_commuting_order_p(2, ct((1, 4))), centralizer_order(ct((1, 4)))) == Q(10, 24)


def test_factored_order3_coefficients():
    assert Q(commuting_order_p_counts(3, 1, 4)[4], math.factorial(4)) == Q(9, 24)


def test_chi_pattern_in_linear_coefficients():
    for p in (2, 3, 5):
        for k in range(1, 13):
            expected = p if k % p == 0 else 1
            assert commuting_order_p_counts(p, k, 1)[1] == expected


def test_prime_path_matches_generic_expansion():
    # a[k][m] = k^m m! [x^m] exp(chi·x/k + x^p/(p·k)), expanded by the
    # series exp instead of the two-term recurrence
    for p in (2, 3, 5):
        for k in range(1, 7):
            chi = p if k % p == 0 else 1
            terms = [0] * 7
            terms[1], terms[p] = Q(chi, k), Q(1, p * k)
            e = TruncSeries(6, terms).exp()
            generic = [e[m] * k**m * math.factorial(m) for m in range(7)]
            assert commuting_order_p_counts(p, k, 6) == generic


def test_condense_labelled():
    # x_1 := t, x_k := 0 keeps the x_1 column: a[1][m]/m! are EGF values
    def labelled(p):
        return TruncSeries(6, [Q(a, math.factorial(m))
                               for m, a in enumerate(commuting_order_p_counts(p, 1, 6))])

    assert labelled(2) == TruncSeries(6, [0, 1, Q(1, 2)]).exp()
    assert labelled(3) == TruncSeries(6, [0, 1, 0, Q(1, 3)]).exp()


def test_all_permutations_factored():
    # every permutation commuting with one of type lambda counts: the
    # all-permutations column is a[k][m] = k^m m! = z, which is why the
    # general flavor's Burnside term is fix_2 alone; every permutation of
    # `weight` points has order dividing lcm(1..weight)
    for weight in range(6):
        every_order = math.lcm(*range(1, weight + 1))
        for ctype in cycle_types(weight):
            assert brute_commuting(every_order, ctype) == centralizer_order(ctype)


# --- dense tables and the Hadamard product ---------------------------------------


def test_dense_from_factored_weight3_tables():
    # dense coefficients fix_p(type)/z(type), from the per-type counts
    def dense(p, *pairs):
        return Q(count_commuting_order_p(p, pairs), centralizer_order(pairs))

    assert dense(2, (1, 3)) == Q(4, 6)
    assert dense(2, (1, 1), (2, 1)) == Q(6, 6)
    assert dense(2, (3, 1)) == Q(2, 6)
    assert dense(3, (1, 3)) == Q(3, 6)
    assert dense(3, (1, 1), (2, 1)) == Q(3, 6)
    assert dense(3, (3, 1)) == Q(6, 6)


def test_dense_weight0_is_constant_one():
    # the empty type has a Burnside term of 1 in both flavors
    for general in (False, True):
        assert _burnside_term(ct(), general) == 1


def test_hadamard_factored_table_entries():
    # condensed Hadamard columns fix_2·fix_3/(k^m m!), at the entries of the
    # weight-4, weight-6 and weight-7 tables
    assert _condensed_column(1, 4, False)[4] == Q(90, 24)
    assert _condensed_column(2, 3, False)[3] == Q(2700, 720)
    assert _condensed_column(7, 1, False)[1] == Q(720, 5040)


def test_condensed_hadamard_types_series():
    # the disconnected types of weight < 8, by Burnside on the per-type counts
    types = [burnside(w, lambda c: count_commuting_order_p(2, c) * count_commuting_order_p(3, c))
             for w in range(8)]
    assert types == [1, 1, 2, 4, 7, 10, 24, 37]


def test_involution_types_are_partitions_into_small_parts():
    # conjugacy classes of involutions in S_n are the partitions of n into
    # parts of size at most 2, one per number of 2-cycles: floor(n/2) + 1
    for n in range(6):
        assert burnside(n, lambda c: count_commuting_order_p(2, c)) == n // 2 + 1


# --- guards -------------------------------------------------------------------


def test_dense_cap_enforced():
    for general in (False, True):
        with pytest.raises(ValueError):
            conjugacy_class_series_dense(DENSE_WEIGHT_CAP + 1, general)
