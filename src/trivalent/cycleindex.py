"""Cycle types and the commuting fixed-point counts of the cycle indices.

The cycle indices needed here (permutations of order dividing 2, of order
dividing 3, and all permutations) factor as a product over k of univariate
series in x_k (x_k of weight k):

    Z = prod_{k>=1} ( sum_{m>=0} a[k][m] / (k^m m!) · x_k^m ),   a[k][0] = 1.

The integer a[k][m] is the number of permutations tau with the order
condition that commute with a fixed permutation made of m disjoint k-cycles;
equivalently k^m m! times the Taylor coefficient of the corresponding
exponential.  For all permutations a[k][m] = k^m m!, the centralizer order.
Only O(N log N) of these integers survive up to weight N, which is what makes
weight-500 computations routine.

This module keeps the integers only: `commuting_order_p_counts` gives one
column a[k][0..m] for a prime order p, and `count_commuting_order_p` the
count for a whole cycle type, the product of its columns' entries.
`counting` builds the fast route's condensed columns from the former and the
dense Burnside oracle from the latter and `centralizer_order`.  A cycle type
is a plain tuple of (length, multiplicity) pairs, as `cycle_types` yields it.
"""

import math

#: The dense route sums over every cycle type of weight <= N and refuses
#: orders above this (partition counts balloon past here).
DENSE_WEIGHT_CAP = 24


def cycle_types(weight: int):
    """Iterate the cycle types of the given weight, each a tuple of
    (length, multiplicity) pairs with strictly increasing lengths and
    positive multiplicities; weight 0 has the one empty type ()."""
    def types(rest, least):
        # the types of weight `rest` whose lengths are all >= least
        if rest == 0:
            yield ()
            return
        for k in range(least, rest + 1):
            for m in range(1, rest // k + 1):
                for tail in types(rest - k * m, k + 1):
                    yield ((k, m),) + tail

    return types(weight, 1)


def cycle_types_up_to(max_weight: int):
    for w in range(max_weight + 1):
        yield from cycle_types(w)


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
        out[m] = chi * out[m - 1]
        if m >= p:
            out[m] += kp * math.perm(m - 1, p - 1) * out[m - p]
    return out


def centralizer_order(ctype) -> int:
    """prod k^m·m! over the (k, m) pairs of a cycle type: the order of the
    centralizer in the symmetric group of a permutation of that type."""
    return math.prod(k**m * math.factorial(m) for k, m in ctype)


def count_commuting_order_p(p: int, ctype) -> int:
    """Number of permutations tau with tau^p = id (p prime) commuting with a
    permutation of the given cycle type.

    The count only depends on the cycle type, and factors over the distinct
    cycle lengths of the type.
    """
    return math.prod(commuting_order_p_counts(p, k, m)[m] for k, m in ctype)
