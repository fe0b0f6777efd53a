"""Tests for dense and factored cycle indices.

The brute-force oracles enumerate permutations directly (the commuting-count
one is shared with `trivalent.selftest`); the dense tables they validate
were computed independently of the factored machinery under test.
"""

import itertools
import math
from fractions import Fraction

import pytest

from trivalent.cycleindex import (
    DENSE_WEIGHT_CAP,
    CycleType,
    DenseCycleIndex,
    all_permutations_factored,
    commuting_order_p_counts,
    count_commuting_order_p,
    cycle_types,
    cycle_types_up_to,
    permutations_of_order_dividing,
)
from trivalent.selftest import brute_commuting, check_commuting_counts
from trivalent.series import TruncSeries

Q = Fraction


def ct(*pairs):
    return CycleType(pairs)


# --- cycle types -------------------------------------------------------------


def test_cycle_type_validation():
    with pytest.raises(ValueError):
        CycleType(((2, 1), (2, 1)))
    with pytest.raises(ValueError):
        CycleType(((1, 0),))
    assert ct().weight == 0


def test_cycle_type_of_permutation():
    assert CycleType.of_permutation([1, 0, 2, 4, 5, 3]) == ct((1, 1), (2, 1), (3, 1))


def test_centralizer_order():
    assert ct((1, 4)).centralizer_order() == 24
    assert ct((2, 2)).centralizer_order() == 8
    assert ct((1, 2), (2, 1)).centralizer_order() == 4


def test_cycle_type_counts_are_partition_numbers():
    counts = [sum(1 for _ in cycle_types(w)) for w in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


# --- commuting fixed-point counts ---------------------------------------------


def test_commuting_counts_known_values():
    assert count_commuting_order_p(2, ct((1, 4))) == 10
    assert count_commuting_order_p(3, ct((1, 4))) == 9
    assert count_commuting_order_p(2, ct((5, 1))) == brute_commuting(2, ct((5, 1)))
    assert count_commuting_order_p(2, ct((5, 1))) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_commuting_counts_against_brute_force(p):
    check_commuting_counts(7, primes=(p,))


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


# --- factored cycle indices ---------------------------------------------------



def test_factored_order2_coefficients():
    z2 = permutations_of_order_dividing(2, 8)
    # x_1 column is the involution count column
    assert list(z2.factor(1))[:5] == [1, 1, 2, 4, 10]
    assert Q(z2.coefficient(1, 4), 1**4 * math.factorial(4)) == Q(10, 24)


def test_factored_order3_coefficients():
    z3 = permutations_of_order_dividing(3, 8)
    assert Q(z3.coefficient(1, 4), math.factorial(4)) == Q(9, 24)


def test_factored_order1_is_the_set_species():
    z1 = permutations_of_order_dividing(1, 10)
    for k in range(1, 11):
        assert all(a == 1 for a in z1.factor(k))
    # condensation: one set per size
    assert z1.condense_types() == TruncSeries(10, [1] * 11)


def test_prime_path_matches_generic_expansion():
    from trivalent.cycleindex import _factored_column_order_dividing

    for p in (2, 3, 5):
        for k in range(1, 7):
            generic = _factored_column_order_dividing(p, k, 6)
            fast = commuting_order_p_counts(p, k, 6)
            assert [Q(v) for v in fast] == generic


def test_composite_order_against_brute_force():
    # order dividing 4 and 6: compare a[1][n] with direct counts of
    # permutations sigma with sigma^n0 = id.
    for n0 in (4, 6):
        z = permutations_of_order_dividing(n0, 6)
        for n in range(7):
            count = 0
            for p in itertools.permutations(range(n)):
                power = list(range(n))
                for _ in range(n0):
                    power = [p[i] for i in power]
                if power == list(range(n)):
                    count += 1
            assert z.coefficient(1, n) == count


def test_chi_pattern_in_linear_coefficients():
    for p in (2, 3, 5):
        z = permutations_of_order_dividing(p, 12)
        for k in range(1, 13):
            expected = p if k % p == 0 else 1
            assert z.coefficient(k, 1) == expected


def test_all_permutations_factored():
    zs = all_permutations_factored(10)
    assert zs.coefficient(1, 2) == 2
    assert zs.coefficient(2, 1) == 2
    assert zs.coefficient(3, 2) == 3**2 * 2
    # condensation yields the partition numbers
    assert zs.condense_types().coeffs == tuple(
        Q(c) for c in (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    )


def test_condense_labelled():
    # x_1 := t, x_k := 0 keeps the x_1 factor: a[1][m]/m! are EGF values
    def labelled(z):
        return TruncSeries(6, [Q(a, math.factorial(m)) for m, a in enumerate(z.factor(1))])

    z2 = permutations_of_order_dividing(2, 6)
    expected = TruncSeries.from_terms(6, {1: 1, 2: Q(1, 2)}).exp()
    assert labelled(z2) == expected
    z3 = permutations_of_order_dividing(3, 6)
    assert labelled(z3) == TruncSeries.from_terms(6, {1: 1, 3: Q(1, 3)}).exp()
    z1 = permutations_of_order_dividing(1, 6)
    assert labelled(z1) == TruncSeries.from_terms(6, {1: 1}).exp()


# --- dense expansion and Hadamard products ------------------------------------


def test_dense_from_factored_weight3_tables():
    dense2 = permutations_of_order_dividing(2, 3).to_dense(3)
    assert dense2.coefficient(ct((1, 3))) == Q(4, 6)
    assert dense2.coefficient(ct((1, 1), (2, 1))) == Q(6, 6)
    assert dense2.coefficient(ct((3, 1))) == Q(2, 6)
    dense3 = permutations_of_order_dividing(3, 3).to_dense(3)
    assert dense3.coefficient(ct((1, 3))) == Q(3, 6)
    assert dense3.coefficient(ct((1, 1), (2, 1))) == Q(3, 6)
    assert dense3.coefficient(ct((3, 1))) == Q(6, 6)


def test_dense_weight0_is_constant_one():
    for builder in (
        lambda: permutations_of_order_dividing(2, 5),
        lambda: all_permutations_factored(5),
    ):
        dense = builder().to_dense(0)
        assert dense.terms == {ct(): Q(1)}


def test_hadamard_factored_table_entries():
    w = 7
    prod = permutations_of_order_dividing(2, w).hadamard(permutations_of_order_dividing(3, w))
    assert Q(prod.coefficient(1, 4), math.factorial(4)) == Q(90, 24)
    # x_2^3 term: denominator per weight-6 table block is 6! = 720
    c = prod.coefficient(2, 3) / (2**3 * math.factorial(3))
    assert c == Q(2700, 720)
    # x_7 term
    assert prod.coefficient(7, 1) / 7 == Q(720, 5040)


def test_hadamard_identity_is_the_set_species():
    # The identity for the Hadamard product has every fixed-point count
    # equal to one, i.e. the species of sets (= order dividing 1): the
    # cartesian product with the one-structure species changes nothing.
    identity = permutations_of_order_dividing(1, 8)
    for z in (
        permutations_of_order_dividing(2, 8),
        permutations_of_order_dividing(3, 8),
        all_permutations_factored(8),
    ):
        assert z.hadamard(identity) == z


def test_hadamard_dense_matches_factored_route():
    w = 7
    f2 = permutations_of_order_dividing(2, w)
    f3 = permutations_of_order_dividing(3, w)
    dense_of_product = f2.hadamard(f3).to_dense(w)
    product_of_dense = f2.to_dense(w).hadamard(f3.to_dense(w))
    assert dense_of_product == product_of_dense


def test_hadamard_dense_identity():
    w = 7
    z = permutations_of_order_dividing(3, w).to_dense(w)
    identity = permutations_of_order_dividing(1, w).to_dense(w)
    assert z.hadamard(identity) == z


def test_hadamard_dense_coefficients_are_fixed_count_products():
    w = 6
    dense2 = permutations_of_order_dividing(2, w).to_dense(w)
    dense3 = permutations_of_order_dividing(3, w).to_dense(w)
    prod = dense2.hadamard(dense3)
    for ctype in cycle_types_up_to(w):
        u2 = count_commuting_order_p(2, ctype)
        u3 = count_commuting_order_p(3, ctype)
        expected = Q(u2 * u3, ctype.centralizer_order())
        assert prod.coefficient(ctype) == expected


def test_condensed_hadamard_types_series():
    w = 7
    prod = permutations_of_order_dividing(2, w).hadamard(permutations_of_order_dividing(3, w))
    assert prod.condense_types().coeffs == tuple(
        Q(c) for c in (1, 1, 2, 4, 7, 10, 24, 37)
    )


def test_involution_types_are_partitions_into_small_parts():
    # brute force: conjugacy classes of involutions in S_n, which are the
    # partitions of n into parts of size at most 2
    def classes(n):
        seen = set()
        for p in itertools.permutations(range(n)):
            if all(p[p[i]] == i for i in range(n)):
                seen.add(CycleType.of_permutation(p))
        return len(seen)

    oracle = [classes(n) for n in range(6)]
    assert oracle == [1, 1, 2, 2, 3, 3]
    z2 = permutations_of_order_dividing(2, 5)
    assert z2.condense_types() == TruncSeries(5, oracle)


def test_separability_consistency_weight10():
    w = 10
    builders = [
        permutations_of_order_dividing(2, w),
        permutations_of_order_dividing(3, w),
        all_permutations_factored(w),
    ]
    for z1 in builders:
        for z2 in builders:
            via_factored = z1.hadamard(z2).to_dense(w)
            via_dense = z1.to_dense(w).hadamard(z2.to_dense(w))
            assert via_factored == via_dense


# --- guards -------------------------------------------------------------------


def test_dense_cap_enforced():
    with pytest.raises(ValueError):
        DenseCycleIndex(DENSE_WEIGHT_CAP + 1, {})
    with pytest.raises(ValueError):
        permutations_of_order_dividing(2, DENSE_WEIGHT_CAP + 2).to_dense(DENSE_WEIGHT_CAP + 1)


def test_hadamard_weight_mismatch():
    f2 = permutations_of_order_dividing(2, 5)
    f3 = permutations_of_order_dividing(3, 6)
    with pytest.raises(ValueError):
        f2.hadamard(f3)
    with pytest.raises(ValueError):
        f2.to_dense(5).hadamard(f3.to_dense(6))


def test_factored_validation():
    from trivalent.cycleindex import FactoredCycleIndex

    with pytest.raises(ValueError):
        FactoredCycleIndex(2, [[1, 1, 1], [2]])  # x_2 factor must start with 1
    with pytest.raises(ValueError):
        FactoredCycleIndex(2, [[1, 1], [1]])  # x_1 factor too short
