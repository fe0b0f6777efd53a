"""Tests for the exact truncated series and number-theoretic helpers."""

import math
from fractions import Fraction

import pytest

from trivalent import selftest
from trivalent.series import (
    TruncSeries,
    euler_transform,
    inverse_euler_transform,
    moebius_mu,
    moebius_sieve,
)

Q = Fraction


def ts(order, *coeffs):
    return TruncSeries(order, [Q(c) for c in coeffs])


# --- construction -----------------------------------------------------------


def test_padding_and_length_check():
    f = TruncSeries(3, [1, 2])
    assert f.coeffs == (Q(1), Q(2), Q(0), Q(0))
    with pytest.raises(IndexError, match=r"index -1 out of range 0\.\.3"):
        f[-1]
    with pytest.raises(ValueError):
        TruncSeries(1, [1, 2, 3])
    with pytest.raises(ValueError):
        TruncSeries(-1)


def test_immutable():
    f = ts(2, 1, 1)
    with pytest.raises(AttributeError):
        f.order = 5


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        TruncSeries(2, [0.5])
    with pytest.raises(TypeError):
        TruncSeries(2, [0, Q(1, 10), 0.1])


# --- exp / log --------------------------------------------------------------


def test_exp_of_zero():
    assert TruncSeries(5).exp() == TruncSeries(5, [1])


def test_exp_counts_involutions():
    # exp(t + t^2/2) is the EGF of involutions; the expected coefficients are
    # frozen from the brute-force count of the permutations squaring to the
    # identity (those commuting with the identity of n points).
    oracle = [selftest.brute_commuting(2, ((1, n),)) for n in range(5)]
    assert oracle == [1, 1, 2, 4, 10]
    f = ts(4, 0, 1, Q(1, 2))
    expected = TruncSeries(4, [Q(c, math.factorial(n)) for n, c in enumerate(oracle)])
    assert f.exp() == expected
    assert f.exp() == ts(4, 1, 1, 1, Q(2, 3), Q(5, 12))


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        ts(2, 1, 1).exp()


def test_log_of_one_and_classical_expansion():
    assert TruncSeries(4, [1]).log() == TruncSeries(4)
    geometric = TruncSeries(4, [1] * 5)
    assert geometric.log() == ts(4, 0, 1, Q(1, 2), Q(1, 3), Q(1, 4))


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        ts(2, 2, 1).log()


def test_exp_log_roundtrip_examples():
    one_plus_t = ts(5, 1, 1)
    assert one_plus_t.log().exp() == one_plus_t
    cube = ts(6, 0, 0, 0, 1)
    assert cube.exp().log() == cube


# --- Euler operator ---------------------------------------------------------


def test_euler_operator():
    assert TruncSeries(3, [1]).euler_operator() == TruncSeries(3)
    assert ts(2, 0, 1, 1).euler_operator() == ts(2, 0, 1, 2)


# --- transforms -------------------------------------------------------------


def test_euler_transform_of_single_part():
    # One connected type per size 1 gives all partitions of a single
    # part-type: the geometric series.
    t = ts(6, 0, 1)
    assert euler_transform(t) == TruncSeries(6, [1] * 7)


def test_inverse_euler_of_geometric_is_t():
    geometric = TruncSeries(6, [1] * 7)
    assert inverse_euler_transform(geometric) == ts(6, 0, 1)


def test_inverse_euler_of_one_is_zero():
    assert inverse_euler_transform(TruncSeries(5, [1])) == TruncSeries(5)


def test_transform_domain_errors():
    with pytest.raises(ValueError):
        euler_transform(TruncSeries(3, [1]))
    with pytest.raises(ValueError):
        inverse_euler_transform(TruncSeries(3))


def test_exactness_forced_denominators():
    # exp of an integer series introduces denominators dividing n! only.
    f = ts(8, 0, 3, -2, 5, 1, 0, 2, -1, 4)
    for n, c in enumerate(f.exp().coeffs):
        assert (c * math.factorial(n)).denominator == 1
    g = ts(8, 1, 3, -2, 5, 1, 0, 2, -1, 4)
    for n, c in enumerate(g.log().coeffs):
        assert (c * math.factorial(n)).denominator == 1


# --- number theory ----------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(1, 1), (2, -1), (4, 0), (6, 1), (30, -1)])
def test_moebius_values(n, expected):
    assert moebius_mu(n) == expected


def test_phi_mu_domain_errors():
    with pytest.raises(ValueError):
        moebius_mu(0)


def test_divisor_sum_identities():
    limit = 10000
    mu = [0] + [moebius_mu(n) for n in range(1, limit + 1)]
    mu_sum = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for n in range(d, limit + 1, d):
            mu_sum[n] += mu[d]
    for n in range(1, limit + 1):
        assert mu_sum[n] == (1 if n == 1 else 0)


def test_sieve_matches_pointwise():
    # `selftest quick` compares the sieve with trial division to 2000
    assert moebius_sieve(0) == [0]
    assert moebius_sieve(1) == [0, 1]
