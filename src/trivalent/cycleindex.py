"""Cycle index series in the variables x_1, x_2, ... (x_k of weight k).

Two representations are provided.

The *dense* form stores one rational coefficient per cycle type (partition),
the coefficient being the full term including the 1/(1^{k_1} k_1! ... n^{k_n}
k_n!) automorphism factor.  Partition counts grow fast, so the dense form is
capped at weight `DENSE_WEIGHT_CAP` and serves for validation and small
cross-checks only.

The *separable* (factored) form applies to series that split as a product
over k of univariate series in x_k:

    Z = prod_{k>=1} ( sum_{n>=0} a[k][n] / (k^n n!) · x_k^n ),   a[k][0] = 1.

Only O(N log N) coefficients survive up to weight N, which is what makes
weight-500 computations routine.  The species relevant here (permutations
with an order condition, and all permutations) all separate this way, and
the Hadamard product acts coefficientwise on the a[k][n].

Conventions.  A coefficient a[k][n] equals the number of permutations tau
with the given order condition that commute with a fixed permutation made of
n cycles of length k; equivalently k^n n! times the Taylor coefficient of
the corresponding exponential.  The two condensation maps recover ordinary
generating series: x_1 := t keeping only k = 1 (labelled/EGF values, see
`counting.disconnected_egf`), and x_k := t^k for all k (isomorphism types).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .series import TruncSeries, _exp_coefficients, euler_phi

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Dense cycle indices refuse weights above this; the factored form is the
#: production path (partition counts make dense storage balloon past here).
DENSE_WEIGHT_CAP = 24


class CycleType:
    """The cycle type of a permutation, as sorted (length, multiplicity) pairs.

    The empty type (weight 0) is allowed and denotes the type of the empty
    permutation.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs=()):
        pairs = tuple((int(k), int(m)) for k, m in pairs)
        last = 0
        for k, m in pairs:
            if k <= last:
                raise ValueError("cycle lengths must be strictly increasing")
            if m < 1:
                raise ValueError("multiplicities must be positive")
            last = k
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("CycleType is immutable")

    @classmethod
    def of_permutation(cls, perm) -> "CycleType":
        n = len(perm)
        seen = [False] * n
        counts = {}
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            counts[length] = counts.get(length, 0) + 1
        return cls(sorted(counts.items()))

    @property
    def weight(self) -> int:
        return sum(k * m for k, m in self.pairs)

    def centralizer_order(self) -> int:
        """prod k^{m_k} m_k!, the order of the centralizer in the symmetric group."""
        z = 1
        for k, m in self.pairs:
            z *= k**m * math.factorial(m)
        return z

    def __eq__(self, other):
        if not isinstance(other, CycleType):
            return NotImplemented
        return self.pairs == other.pairs

    def __lt__(self, other):
        return (self.weight, self.pairs) < (other.weight, other.pairs)

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return "CycleType(%r)" % (self.pairs,)


def cycle_types(weight: int):
    """Iterate all cycle types of the given weight."""
    def parts(n, maxp):
        if n == 0:
            yield ()
            return
        for p in range(min(n, maxp), 0, -1):
            for rest in parts(n - p, p):
                yield rest + (p,)

    for partition in parts(weight, weight):
        counts = {}
        for p in partition:
            counts[p] = counts.get(p, 0) + 1
        yield CycleType(sorted(counts.items()))


def cycle_types_up_to(max_weight: int):
    for w in range(max_weight + 1):
        yield from cycle_types(w)


class DenseCycleIndex:
    """Partition-indexed cycle index, truncated by total weight.

    `terms` maps CycleType to the full coefficient of the corresponding
    monomial (automorphism denominator included); zero coefficients are not
    stored.
    """

    __slots__ = ("max_weight", "terms")

    def __init__(self, max_weight: int, terms: dict):
        if max_weight > DENSE_WEIGHT_CAP:
            raise ValueError(
                "dense cycle index capped at weight %d (got %d); "
                "use the factored form instead" % (DENSE_WEIGHT_CAP, max_weight)
            )
        clean = {}
        for ct, c in terms.items():
            if ct.weight > max_weight:
                raise ValueError("term of weight %d exceeds max weight %d"
                                 % (ct.weight, max_weight))
            c = Fraction(c)
            if c:
                clean[ct] = c
        object.__setattr__(self, "max_weight", max_weight)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("DenseCycleIndex is immutable")

    def coefficient(self, ctype: CycleType) -> Fraction:
        return self.terms.get(ctype, _ZERO)

    def __eq__(self, other):
        if not isinstance(other, DenseCycleIndex):
            return NotImplemented
        return self.max_weight == other.max_weight and self.terms == other.terms

    def __hash__(self):
        return hash((self.max_weight, frozenset(self.terms.items())))

    def hadamard(self, other: "DenseCycleIndex") -> "DenseCycleIndex":
        """Hadamard product: multiply fixed-point counts per cycle type.

        Stored coefficients are u/z with z the centralizer order, so the
        product coefficient is c1·c2·z (the denominator is kept once).
        """
        if self.max_weight != other.max_weight:
            raise ValueError("max weight mismatch: %d != %d"
                             % (self.max_weight, other.max_weight))
        out = {}
        for ct, c1 in self.terms.items():
            c2 = other.terms.get(ct)
            if c2:
                out[ct] = c1 * c2 * ct.centralizer_order()
        return DenseCycleIndex(self.max_weight, out)

    def condense_types(self) -> TruncSeries:
        """Substitute x_k := t^k; yields the isomorphism-types series."""
        out = [_ZERO] * (self.max_weight + 1)
        for ct, c in self.terms.items():
            out[ct.weight] += c
        return TruncSeries(self.max_weight, out)


class FactoredCycleIndex:
    """Separable cycle index in factored form.

    `factor(k)[n]` is the coefficient a[k][n] of the factored-form
    definition, for 1 <= k <= max_weight and 0 <= n <= max_weight // k.
    """

    __slots__ = ("max_weight", "factors")

    def __init__(self, max_weight: int, factors):
        factors = tuple(tuple(Fraction(c) for c in col) for col in factors)
        if len(factors) != max_weight:
            raise ValueError("need one factor per variable x_1..x_%d" % max_weight)
        for k, col in enumerate(factors, start=1):
            if len(col) != max_weight // k + 1:
                raise ValueError(
                    "factor for x_%d must have %d coefficients, got %d"
                    % (k, max_weight // k + 1, len(col))
                )
            if col[0] != 1:
                raise ValueError("factor for x_%d must have constant term 1" % k)
        object.__setattr__(self, "max_weight", max_weight)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("FactoredCycleIndex is immutable")

    def factor(self, k: int):
        return self.factors[k - 1]

    def coefficient(self, k: int, n: int) -> Fraction:
        return self.factors[k - 1][n]

    def __eq__(self, other):
        if not isinstance(other, FactoredCycleIndex):
            return NotImplemented
        return self.max_weight == other.max_weight and self.factors == other.factors

    def __hash__(self):
        return hash((self.max_weight, self.factors))

    def hadamard(self, other: "FactoredCycleIndex") -> "FactoredCycleIndex":
        """Hadamard product, computed coefficientwise on the factored form."""
        if self.max_weight != other.max_weight:
            raise ValueError("max weight mismatch: %d != %d"
                             % (self.max_weight, other.max_weight))
        return FactoredCycleIndex(
            self.max_weight,
            [
                [a * b for a, b in zip(col1, col2)]
                for col1, col2 in zip(self.factors, other.factors)
            ],
        )

    def to_dense(self, max_weight: int) -> DenseCycleIndex:
        """Expand the product into the partition-indexed dense form."""
        if max_weight > self.max_weight:
            raise ValueError(
                "cannot expand to weight %d from a factored form of weight %d"
                % (max_weight, self.max_weight)
            )
        terms = {}
        for ct in cycle_types_up_to(max_weight):
            c = _ONE
            for k, m in ct.pairs:
                c *= self.factors[k - 1][m] / (k**m * math.factorial(m))
            if c:
                terms[ct] = c
        return DenseCycleIndex(max_weight, terms)

    def condense_types(self) -> TruncSeries:
        """Substitute x_k := t^k: the product over k of series in t^k."""
        n = self.max_weight
        out = [_ZERO] * (n + 1)
        out[0] = _ONE
        for k in range(1, n + 1):
            col = self.factors[k - 1]
            # multiply `out` by sum_m col[m]/(k^m m!) t^{km}, truncated at n
            nxt = [_ZERO] * (n + 1)
            for i in range(n + 1):
                ci = out[i]
                if not ci:
                    continue
                for m in range(0, (n - i) // k + 1):
                    a = col[m]
                    if a:
                        nxt[i + k * m] += ci * a / (k**m * math.factorial(m))
            out = nxt
        return TruncSeries(n, out)


def commuting_order_p_counts(p: int, k: int, n_max: int) -> list:
    """For m = 0..n_max, the number of permutations tau with tau^p = id
    commuting with a permutation made of m disjoint k-cycles (p prime).

    Computed by the integer recurrence obtained from d/dx of
    exp(chi·x/k + x^p/(p·k)) after clearing k^m m!:

        E_m = chi·E_{m-1} + k^{p-1}·(m-1)···(m-p+1)·E_{m-p},   E_0 = 1,

    with chi = p if p | k else 1.
    """
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError("the two-term recurrence needs a prime order, got %d" % p)
    chi = p if k % p == 0 else 1
    kp = k ** (p - 1)
    out = [1] * (n_max + 1)
    for m in range(1, n_max + 1):
        v = chi * out[m - 1]
        if m >= p:
            fall = 1
            for j in range(1, p):
                fall *= m - j
            v += kp * fall * out[m - p]
        out[m] = v
    return out


def count_commuting_order_p(p: int, ctype: CycleType) -> int:
    """Number of permutations tau with tau^p = id (p prime) commuting with a
    permutation of the given cycle type.

    The count only depends on the cycle type, and factors over the distinct
    cycle lengths of the type.
    """
    total = 1
    for k, m in ctype.pairs:
        total *= commuting_order_p_counts(p, k, m)[m]
    return total


def _factored_column_order_dividing(n: int, k: int, n_max: int) -> list:
    """Coefficients a[k][0..n_max] of the x_k factor of the order-dividing-n
    cycle index, for arbitrary n.

    The factor is exp of the polynomial summing phi(r)·x^s/(k·s) over the
    pairs (r, s) with r·s | n and r | k; expanded by the linear ODE
    recurrence for exp, then rescaled into the a[k][m] convention.
    """
    c = [_ZERO] * (n_max + 1)
    for r in range(1, n + 1):
        if k % r:
            continue
        phi = euler_phi(r)
        s = 1
        while r * s <= n and s <= n_max:
            if n % (r * s) == 0:
                c[s] += Fraction(phi, k * s)
            s += 1
    e = _exp_coefficients(c)
    return [e[m] * k**m * math.factorial(m) for m in range(n_max + 1)]


def permutations_of_order_dividing(n: int, max_weight: int) -> FactoredCycleIndex:
    """Factored cycle index of the species of permutations sigma with
    sigma^n = id.

    The variables separate: the x_k factor collects exp(phi(r)·x_k^s/(k·s))
    over pairs (r, s) with r·s | n and r | k.  For prime n the coefficients
    are produced by the two-term integer recurrence of
    `commuting_order_p_counts`; the generic product-of-exponentials expansion
    covers composite n (both routes agree, see the tests).
    """
    if n < 1:
        raise ValueError("order must be >= 1, got %d" % n)
    is_prime = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
    factors = []
    for k in range(1, max_weight + 1):
        n_max = max_weight // k
        if is_prime:
            factors.append(commuting_order_p_counts(n, k, n_max))
        else:
            factors.append(_factored_column_order_dividing(n, k, n_max))
    return FactoredCycleIndex(max_weight, factors)


def all_permutations_factored(max_weight: int) -> FactoredCycleIndex:
    """Factored cycle index of the species of all permutations:
    prod_k 1/(1 - x_k), i.e. a[k][m] = k^m·m!."""
    factors = []
    for k in range(1, max_weight + 1):
        factors.append(
            [k**m * math.factorial(m) for m in range(max_weight // k + 1)]
        )
    return FactoredCycleIndex(max_weight, factors)
