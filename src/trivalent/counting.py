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

Arithmetic.  Both `subgroup_series` (column 1) and `conjugacy_class_series`
(columns 1..N) take each column's kernel, its k·B_j as exact integers, from
one seam, `_column_kernel`, and sum and Moebius-invert them in integers.  A
general column satisfies a first-order equation, so its log comes from the
recurrence of its inverse series (`_general_log_derivative`), about m^2/4
products for a column of length m.  A trivalent column divides by k^n·n!,
so its kernel alone runs modulo M = P^e, P the least prime above N
(`_modulus`), where those are units inverted by one inversion of N!
(`_inverses`); a division-free recurrence (`_log_derivative`) takes its log
in about m^2/2 products, each with one small factor, and as M exceeds every
k·B_j the residues are the integers.  For the class counts that is about
0.4·N^2 and 0.8·N^2 products.  `_lift` refuses an n·c_n that is not n times
a count between 0 and its a priori bound (`_bounds`).  A wrong trivalent
residue escapes it with probability about n·2^-64 (`_log_derivative`); a
wrong general kernel gives small wrong integers, which that argument does
not cover.  On a 2-core x86 host with Python 3.11.7 the index-500 series
take 0.03–0.16 s each.  Their oracle is `selftest.check_modular_vs_fraction`:
one `TruncSeries.log` of each `_condensed_column` on `Fraction`s checks each
kernel, trivalent residues included, and both series.

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


def subgroup_series(order: int, general: bool = False) -> TruncSeries:
    """Coefficient of t^n = number of index-n subgroups (pointed connected
    types), for the modular group or, with `general`, for the free product
    of the infinite cyclic group with the order-two group.

    Pointing the labeled series with t·d/dt yields the type series directly
    because pointed connected diagrams have no automorphisms, so the counts
    are t·d/dt log of the k = 1 column: its kernel's entries.
    """
    kernel, bounds = _column_kernel(order, general)
    return _lift([n * v for n, v in enumerate(kernel(1))], bounds)


def _column_kernel(order: int, general: bool) -> tuple:
    """(kernel, bounds): kernel(k) is condensed column k's k·B_j as exact
    integers, and `bounds` are the bounds `_lift` checks.  Both series and
    their `Fraction` oracle take each column's kernel from here; only the
    trivalent kernel runs modulo M, whose residues are the integers."""
    if order < 0:
        raise ValueError("truncation order must be >= 0, got %d" % order)
    bounds = _bounds(order, general)
    if general:
        return (lambda k: _general_log_derivative(k, order // k)), bounds
    modulus = _modulus(order, max(bounds))
    inverses = _inverses(order, modulus)
    return (lambda k: _log_derivative(_residue_column(k, order // k, modulus, inverses),
                                      modulus, k)), bounds


def _bounds(order: int, general: bool) -> list:
    """b_n = h_n // (n-1)! for n = 0..order, where h_n = I_2(n)·I_3(n) counts
    the labeled pairs (general flavor: I_2(n)·n!, so b_n = n·I_2(n)).  The
    connected pairs among them number (n-1)! times the index-n subgroups,
    and there are no more classes than subgroups, so b_n bounds both counts."""
    involutions = commuting_order_p_counts(2, 1, order)
    if general:
        return [n * v for n, v in enumerate(involutions)]
    cubes = commuting_order_p_counts(3, 1, order)
    bounds = [0] * (order + 1)
    factorial = 1  # (n-1)!
    for n in range(1, order + 1):
        bounds[n] = involutions[n] * cubes[n] // factorial
        factorial *= n
    return bounds


def _modulus(order: int, bound: int) -> int:
    """P^e for the least prime P > order and the least e with P^e > 2^64·bound.

    Every divisor of the trivalent columns, k^n·n! with all factors <=
    order, is then a unit, and M exceeds every k·B_j (`_log_derivative`).
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


def _residue_column(k: int, n_max: int, modulus: int, inverses) -> list:
    """The trivalent condensed column k of `_condensed_column` modulo
    `modulus`: E_2(k,n)·g_n for n = 0..n_max, where g_n = E_3(k,n)/(k^n·n!)
    comes from its own recurrence g_n = (chi·g_{n-1} + g_{n-3})/(k·n),
    chi = 3 if 3 | k else 1 (that of `commuting_order_p_counts` divided by
    k^n·n!).  As k·n <= N, every divisor is in `inverses`."""
    e2 = commuting_order_p_counts(2, k, n_max)
    chi = 3 if k % 3 == 0 else 1
    g = [0, 0, 1]  # g_{-2}, g_{-1}, g_0
    for n in range(1, n_max + 1):
        g.append((chi * g[-1] + g[-3]) * inverses[k * n] % modulus)
    return [e * v % modulus for e, v in zip(e2, g[2:])]


def _log_derivative(column: list, modulus: int, k: int) -> list:
    """k·B_m modulo `modulus`, B_m = m·(log A)_m for the series A = column
    (A_0 = 1), by the division-free recurrence k·B_m = k·m·A_m -
    sum_{j<m} k·B_j·A_{m-j} (from t·(log A)'·A = t·A').

    The residues are the exact k·B_m: on a trivalent column each is a
    nonnegative integer (the `Fraction` oracle checks it) and a term of
    lg[n] = sum_{d | n} d·c_d, n = k·m, whose class counts c_d are within
    their bounds b_d, so k·B_m <= sigma(n)·max b_d < 2^64·max b_d < M
    (under 2^700 against a 745-bit M at N = 500).  A fault in the column or
    here leaves a residue off by a nearly uniform value in [0, M), so the
    n·c_n it enters passes `_lift` with probability about n·2^-64."""
    b = [0] * len(column)
    for m in range(1, len(column)):
        b[m] = (k * m * column[m] - sum(map(mul, b[1:m], column[m - 1:0:-1]))) % modulus
    return b


def _general_log_derivative(k: int, n_max: int) -> list:
    """k·B_m, m = 0..n_max, as exact integers for the general column
    A = sum_m E_2(k,m)·t^m.  E_m = chi·E_{m-1} + k(m-1)·E_{m-2}, chi = 2 if
    k is even else 1, gives k·t^3·A' = (1 - chi·t - k·t^2)·A - 1, so G = 1/A
    has G_0 = 1, G_m = -chi·G_{m-1} + k(m-3)·G_{m-2} - sum_{0<j<m} G_j·G_{m-j}
    and k·B_m = -G_{m+2}.  The sum is symmetric: about m/2 products."""
    chi = 2 if k % 2 == 0 else 1
    g = [1, -chi]
    for m in range(2, n_max + 3):
        h = (m - 1) // 2
        paired = 2 * sum(map(mul, g[1:h + 1], g[m - 1:m - h - 1:-1]))
        if m % 2 == 0:
            paired += g[m // 2] * g[m // 2]
        g.append(-chi * g[m - 1] + k * (m - 3) * g[m - 2] - paired)
    return [0] + [-v for v in g[3:]]


def _lift(scaled: list, bounds: list) -> TruncSeries:
    """The counts c_n from the exact integers n·c_n = scaled[n], n >= 1
    (c_0 = 0).

    A value that is not n times a count between 0 and bounds[n] is a fault
    in a kernel: raise rather than return it.  The message leaves the value
    out: it can pass the int/str digit limit.
    """
    counts = [0] * len(scaled)
    for n in range(1, len(scaled)):
        count, rest = divmod(scaled[n], n)
        if rest or not 0 <= count <= bounds[n]:
            raise ValueError(
                "coefficient of t^%d: the residue is not %d times a count within its bound"
                % (n, n)
            )
        counts[n] = count
    return TruncSeries(len(scaled) - 1, counts)


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


def conjugacy_class_series(order: int, general: bool = False) -> TruncSeries:
    """Coefficient of t^n = number of conjugacy classes of index-n subgroups
    (unpointed connected types); the fast separable route.

    Takes the log of the condensed Hadamard product column by column on
    compressed coefficient lists, then applies Moebius inversion, so the
    truncated series never materializes partition-many terms, all in exact
    integers.
    """
    kernel, bounds = _column_kernel(order, general)
    # column k, a series in t^k, puts k·B_j at t^{kj}
    lg = [0] * (order + 1)
    for k in range(1, order + 1):
        for j, v in enumerate(kernel(k)[1:], 1):
            lg[k * j] += v
    # lg[n] = sum_{d | n} d·c_d, so n·c_n = sum_{r | n} mu(r)·lg[n/r]
    mu = moebius_sieve(order)
    out = [0] * (order + 1)
    for r in range(1, order + 1):
        if mu[r]:
            for i in range(1, order // r + 1):
                out[r * i] += mu[r] * lg[i]
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
