"""Truncated power series over the rationals, with the transforms used by
unlabeled enumeration.

Everything here is exact: coefficients are `fractions.Fraction` values, kept
in lowest terms by construction, and no operation ever rounds.  A
`TruncSeries` offers only what the pipelines and oracles call: coefficient
access, equality, `exp`, `log`, the Euler operator t·d/dt and the checked
conversion to integers; its constructor refuses floats.

exp and log are computed by the usual first-order ODE recurrences on
coefficients (g' = f'·g and l'·f = f'), which cost O(N^2) rational
operations.  The recurrences live in `TruncSeries.exp` and `TruncSeries.log`
only: the Euler transforms call both, and the `Fraction` oracle of the
counting pipelines, `selftest.check_modular_vs_fraction`, calls `log` once
on each compressed cycle-index column.  The production counts do not come
through here: `counting` sums exact integer column logs (only its trivalent
kernel works modulo a prime power) and wraps the counts in a `TruncSeries`.
"""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _exact(value) -> Fraction:
    # floats are rejected rather than converted: Fraction(0.1) would be the
    # exact binary expansion, which is never what an exact pipeline means
    if isinstance(value, float):
        raise TypeError("refusing float coefficient %r; use Fraction or int" % value)
    return Fraction(value)


def _power_sum(f, weights) -> list:
    """sum_{r>=1} weights[r]/r · f(t^r) on the coefficient list f, truncated
    at its order; `weights` covers 0..order (the Moebius table for the
    inverse Euler transform, all ones for the forward one)."""
    n = len(f) - 1
    out = [_ZERO] * (n + 1)
    for r in range(1, n + 1):
        if not weights[r]:
            continue
        wr = Fraction(weights[r], r)
        for i in range(1, n // r + 1):
            c = f[i]
            if c:
                out[r * i] += wr * c
    return out


class TruncSeries:
    """A power series in one variable truncated at an inclusive order N.

    Immutable.  `coeffs[n]` is the coefficient of t^n for n = 0..N.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 0:
            raise ValueError("truncation order must be >= 0, got %d" % order)
        coeffs = tuple(_exact(c) for c in coeffs)
        if len(coeffs) > order + 1:
            raise ValueError(
                "got %d coefficients for truncation order %d" % (len(coeffs), order)
            )
        coeffs += (_ZERO,) * (order + 1 - len(coeffs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError("coefficient index %d out of range 0..%d" % (n, self.order))
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        terms = []
        for n, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*t^%d" % (c, n))
            if len(terms) > 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return "TruncSeries(order=%d, %s)" % (self.order, body)

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term, by the recurrence
        n·g_n = sum_{k=1..n} k·f_k·g_{n-k} derived from g' = f'·g."""
        f = self.coeffs
        if f[0] != 0:
            raise ValueError("exp requires a zero constant term")
        g = [_ONE] + [_ZERO] * self.order
        for m in range(1, self.order + 1):
            acc = _ZERO
            for k in range(1, m + 1):
                fk = f[k]
                if fk:
                    acc += k * fk * g[m - k]
            g[m] = acc / m
        return TruncSeries(self.order, g)

    def log(self) -> "TruncSeries":
        """log of a series with constant term one, by the recurrence from
        l'·f = f'; inverse of `exp`."""
        f = self.coeffs
        if f[0] != 1:
            raise ValueError("log requires constant term 1")
        l = [_ZERO] * (self.order + 1)
        for m in range(1, self.order + 1):
            acc = m * f[m]
            for k in range(1, m):
                fk = f[m - k]
                if fk and l[k]:
                    acc -= k * l[k] * fk
            l[m] = acc / m
        return TruncSeries(self.order, l)

    def euler_operator(self) -> "TruncSeries":
        """Apply t·d/dt: the coefficient of t^n becomes n times itself.

        On an exponential generating series of connected structures this
        distinguishes a base point, turning counts into pointed counts.
        """
        return TruncSeries(
            self.order, [n * c for n, c in enumerate(self.coeffs)]
        )

    def integer_coefficients(self) -> list:
        """Coefficients as plain ints; raises if any is non-integral."""
        out = []
        for n, c in enumerate(self.coeffs):
            if c.denominator != 1:
                raise ValueError("coefficient of t^%d is not an integer: %s" % (n, c))
            out.append(c.numerator)
        return out


def euler_transform(f: TruncSeries) -> TruncSeries:
    """Connected types to all-structures types: exp(sum_{n>=1} f(t^n)/n).

    If f counts isomorphism types of connected structures by size, the result
    counts types of arbitrary disjoint unions of them.  Requires f(0) = 0.
    """
    if f.coeffs[0] != 0:
        raise ValueError("euler_transform requires a zero constant term")
    return TruncSeries(f.order, _power_sum(f.coeffs, [1] * (f.order + 1))).exp()


def inverse_euler_transform(g: TruncSeries) -> TruncSeries:
    """All-structures types to connected types; exact inverse of
    `euler_transform` at equal truncation.

    Computes sum_{n>=1} mu(n)/n · log(g)(t^n), using that log commutes with
    power substitution.  Requires g(0) = 1.  Summands with n beyond the
    truncation order vanish, so the finite sum is exact.
    """
    if g.coeffs[0] != 1:
        raise ValueError("inverse_euler_transform requires constant term 1")
    return TruncSeries(g.order, _power_sum(g.log().coeffs, moebius_sieve(g.order)))


def moebius_mu(n: int) -> int:
    """The Moebius function: (-1)^k on squarefree n with k prime factors, else 0."""
    if n < 1:
        raise ValueError("moebius_mu is defined for n >= 1, got %d" % n)
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def moebius_sieve(n: int) -> list:
    """Moebius function values mu(0..n), mu(0) = 0, from the divisor sum:
    sum_{d | m} mu(d) is 1 at m = 1 and 0 for m > 1."""
    mu = [0] * (n + 1)
    if n >= 1:
        mu[1] = 1
    for d in range(1, n // 2 + 1):
        for m in range(2 * d, n + 1, d):
            mu[m] -= mu[d]
    return mu
