"""Generating series for subgroup and conjugacy-class counts.

Two families of diagrams are counted, both connected: the trivalent flavor
(rotation of order dividing 3), whose pointed/unpointed counts are the
numbers of finite-index subgroups of the modular group and of their
conjugacy classes; and the general flavor (arbitrary rotation), which counts
the same data for the free product of the infinite cyclic group with the
two-element group.

Pipelines.  Labeled disconnected structures are pairs (involution,
order-dividing-3 permutation) on the same points, so their EGF values are
a*_n = I_2(n)·I_3(n)/n! (general flavor: I_3 is replaced by n!).  The log
gives connected labeled counts, and because pointed connected diagrams are
rigid, applying t·d/dt and reading ordinary coefficients counts pointed
types, i.e. subgroups by index.

Unpointed types need cycle indices.  The dense route (validation only,
weights <= 24) is Burnside's lemma: the isomorphism types of size n number
sum fix(lambda)/z(lambda) over the cycle types lambda of weight n, where
fix(lambda) counts the structures a permutation of type lambda fixes and
z(lambda) is its centralizer order; Moebius inversion then keeps the
connected types.  The fast route exploits that both cycle indices separate;
writing the condensation x_k := t^k as a product over k of series in t^k
turns the whole computation into one short log per k:

    sum_{r>=1} mu(r)/r · sum_{k>=1} log( sum_n c[k][n] t^{r k n} )

where c[k][n] is the (rational) condensed coefficient built from the two
per-column fixed-point counts.  Each log is computed once per k, by
`TruncSeries.log` on the compressed column, and reused for every r, which
keeps the total work near O(N^2) exact-rational operations for truncation
order N.  The weight-500 coefficients take a few seconds this way.

The six-term recurrence for a*_n (quartic/quintic polynomial coefficients)
mirrors the holonomic equation satisfied by the defining exponentials; it is
seeded with the first six values and cross-checked against the closed form
in the tests, each route validating the other.
"""

from __future__ import annotations

from fractions import Fraction
import math

from .series import TruncSeries, _power_sum, inverse_euler_transform, moebius_sieve
from .cycleindex import (
    DENSE_WEIGHT_CAP,
    centralizer_order,
    commuting_order_p_counts,
    count_commuting_order_p,
    cycle_types,
)

_ZERO = Fraction(0)


def disconnected_egf(order: int, general: bool = False) -> TruncSeries:
    """EGF values a*_n of labeled, not-necessarily-connected structures:
    I_2(n)·I_3(n)/n! (trivalent) or I_2(n) (general).  This is the k = 1
    column of the condensed Hadamard product."""
    return TruncSeries(order, _condensed_column(1, order, general))


#: Seeds a*_0..a*_5 for the six-term recurrence (trivalent flavor).
_RECURRENCE_SEEDS = (
    Fraction(1),
    Fraction(1),
    Fraction(1),
    Fraction(2),
    Fraction(15, 4),
    Fraction(91, 20),
)


def disconnected_egf_by_recurrence(order: int) -> TruncSeries:
    """Same series as `disconnected_egf(order)`, by the six-term linear
    recurrence with polynomial coefficients.

    The leading coefficient n^4 + 18n^3 + 119n^2 + 343n + 366 is positive for
    all n >= 0, so the recurrence never divides by zero.
    """
    a = list(_RECURRENCE_SEEDS[: order + 1])
    for n in range(order - 5):
        lead = ((n + 18) * n + 119) * n * n + 343 * n + 366
        rhs = (
            ((((n + 18) * n + 121) * n + 373) * n + 511) * n + 242
        ) * a[n]
        rhs += (3 * n * n + 15 * n + 18) * a[n + 1]
        rhs += (((2 * n + 33) * n + 205) * n + 566) * n * a[n + 2] + 582 * a[n + 2]
        rhs += (((3 * n + 52) * n + 333) * n + 938) * n * a[n + 3] + 982 * a[n + 3]
        rhs += ((n + 12) * n + 53) * n * a[n + 4] + 85 * a[n + 4]
        rhs += ((n + 9) * n + 20) * n * a[n + 5] + a[n + 5]
        a.append(rhs / lead)
    return TruncSeries(order, a)


def connected_egf(order: int, general: bool = False) -> TruncSeries:
    """EGF values of connected labeled structures: log of `disconnected_egf`."""
    return disconnected_egf(order, general).log()


def subgroup_series(order: int, general: bool = False) -> TruncSeries:
    """Coefficient of t^n = number of index-n subgroups (pointed connected
    types), for the modular group or, with `general`, for the free product
    of the infinite cyclic group with the order-two group.

    Pointing the labeled series with t·d/dt yields the type series directly
    because pointed connected diagrams have no automorphisms.
    """
    result = connected_egf(order, general).euler_operator()
    result.integer_coefficients()  # rigidity makes these integers; fail loud
    return result


def _condensed_column(k: int, n_max: int, general: bool) -> list:
    """Coefficients c[n] of t^{kn} in the x_k factor of the condensed
    Hadamard product: E_2(k,n)·E_3(k,n)/(k^n·n!), the E's being the
    commuting fixed-point counts (general flavor: E_3 cancels against the
    all-permutations column, leaving the integer E_2(k,n))."""
    e2 = commuting_order_p_counts(2, k, n_max)
    if general:
        return [Fraction(v) for v in e2]
    e3 = commuting_order_p_counts(3, k, n_max)
    return [
        Fraction(e2[n] * e3[n], k**n * math.factorial(n)) for n in range(n_max + 1)
    ]


def disconnected_types_series(order: int, general: bool = False) -> TruncSeries:
    """Isomorphism types of not-necessarily-connected structures: the
    condensed (x_k := t^k) Hadamard product of the two cycle indices, i.e.
    the product over k of the condensed columns as series in t^k."""
    coeffs = [Fraction(1)] + [_ZERO] * order
    for k in range(1, order + 1):
        column = _condensed_column(k, order // k, general)
        # multiply by sum_m column[m] t^{km} in place; column[0] == 1, and
        # going down leaves the lower coefficients unchanged until read
        for i in range(order, k - 1, -1):
            coeffs[i] += sum(column[m] * coeffs[i - k * m] for m in range(1, i // k + 1))
    result = TruncSeries(order, coeffs)
    result.integer_coefficients()
    return result


def conjugacy_class_series(order: int, general: bool = False) -> TruncSeries:
    """Coefficient of t^n = number of conjugacy classes of index-n subgroups
    (unpointed connected types); the fast separable route.

    Computes log of the condensed Hadamard product column by column on
    compressed coefficient lists, then applies Moebius inversion, so the
    truncated series never materializes partition-many terms.
    """
    lg = [_ZERO] * (order + 1)
    for k in range(1, order + 1):
        m_max = order // k
        col_log = TruncSeries(m_max, _condensed_column(k, m_max, general)).log().coeffs
        for j in range(1, m_max + 1):
            if col_log[j]:
                lg[k * j] += col_log[j]
    result = TruncSeries(order, _power_sum(lg, moebius_sieve(order)))
    result.integer_coefficients()  # class counts are integers; fail loud
    return result


def _burnside_term(ctype, general: bool) -> Fraction:
    """fix(lambda)/z(lambda) for the cycle type lambda: a permutation fixes a
    structure when it commutes with both of its permutations, so fix is
    fix_2·fix_3.  In the general flavor the second permutation is arbitrary
    and z of them commute with a permutation of type lambda, so fix is
    fix_2·z and the term is just fix_2."""
    fixed = count_commuting_order_p(2, ctype)
    if general:
        return Fraction(fixed)
    return Fraction(fixed * count_commuting_order_p(3, ctype), centralizer_order(ctype))


def conjugacy_class_series_dense(order: int, general: bool = False) -> TruncSeries:
    """Same as `conjugacy_class_series`, by Burnside's lemma summed over every
    cycle type of weight <= order; only available up to the dense weight cap,
    for cross-validation."""
    if order > DENSE_WEIGHT_CAP:
        raise ValueError(
            "dense route capped at order %d (got %d); use conjugacy_class_series"
            % (DENSE_WEIGHT_CAP, order)
        )
    types = [_ZERO] * (order + 1)
    for weight in range(order + 1):
        for ctype in cycle_types(weight):
            types[weight] += _burnside_term(ctype, general)
    result = inverse_euler_transform(TruncSeries(order, types))
    result.integer_coefficients()
    return result
