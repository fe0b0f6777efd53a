"""Built-in verification suite: the one registry of oracle checks.

Re-derives small and large values through independent routes and compares
them: brute-force enumeration against formulas, dense against separable
pipelines, recurrence against closed form, and everything against the frozen
reference sequences.  `quick` stays at truncation order 20 and census size 8;
`full` pushes to order 50, census size 9, and the index-500 values.

Each check is a public function taking its sizes (and, when randomized, the
`random.Random` to draw from), so the test suite runs these same oracles with
its own seeds and bounds.  A check raises `SelfTestFailure` on a mismatch.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from . import census, counting, diagram, reference
from .cycleindex import count_commuting_order_p, cycle_types
from .series import TruncSeries, euler_phi, euler_transform, inverse_euler_transform, moebius_mu


class SelfTestFailure(Exception):
    pass


def _fail(name, detail):
    raise SelfTestFailure("%s: %s" % (name, detail))


def check_series_roundtrips(rng, cases, max_order):
    """exp/log and Euler/inverse-Euler round trips on random series of
    orders 1..max_order."""
    for case in range(cases):
        order = rng.randrange(1, max_order + 1)
        f = TruncSeries(order, [Fraction(0)] + [
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            for _ in range(order)
        ])
        if f.exp().log() != f:
            _fail("series-roundtrips", "exp/log failed on case %d" % case)
        g = TruncSeries(order, [1] + [rng.randrange(-5, 6) for _ in range(order)])
        if euler_transform(inverse_euler_transform(g)) != g:
            _fail("series-roundtrips", "euler transform failed on case %d" % case)


def check_number_theory(max_n):
    for n in range(1, max_n + 1):
        tot = sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0)
        if tot != n:
            _fail("number-theory", "totient divisor sum wrong at %d" % n)
        ms = sum(moebius_mu(d) for d in range(1, n + 1) if n % d == 0)
        if ms != (1 if n == 1 else 0):
            _fail("number-theory", "moebius divisor sum wrong at %d" % n)


def check_recurrence(order):
    if counting.disconnected_egf_by_recurrence(order) != counting.disconnected_egf(order):
        _fail("recurrence", "recurrence and closed form disagree at order %d" % order)


def check_dense_vs_fast(order):
    dense = counting.conjugacy_class_series_dense(order)
    fast = counting.conjugacy_class_series(order)
    if dense != fast:
        _fail("dense-vs-fast", "pipelines disagree at order %d" % order)


def check_reference(order):
    pointed = counting.subgroup_series(order).integer_coefficients()[1:]
    classes = counting.conjugacy_class_series(order).integer_coefficients()[1:]
    if pointed != list(reference.SUBGROUPS_BY_INDEX[:order]):
        _fail("reference", "subgroup counts disagree up to order %d" % order)
    if classes != list(reference.CONJUGACY_CLASSES_BY_INDEX[:order]):
        _fail("reference", "class counts disagree up to order %d" % order)


def check_census(max_size):
    """Census against both series for sizes 1..max_size; returns the
    census class counts by size."""
    pointed = counting.subgroup_series(max_size).integer_coefficients()
    classes = counting.conjugacy_class_series(max_size).integer_coefficients()
    totals = []
    for n in range(1, max_size + 1):
        report = census.enumerate_size(n)
        if report.pointed_classes != pointed[n]:
            _fail("census", "pointed count at size %d: census %d, series %d"
                  % (n, report.pointed_classes, pointed[n]))
        if report.unpointed_classes != classes[n]:
            _fail("census", "class count at size %d: census %d, series %d"
                  % (n, report.unpointed_classes, classes[n]))
        if len(report.class_representatives) != report.unpointed_classes:
            _fail("census", "size %d: %d representatives for %d classes"
                  % (n, len(report.class_representatives), report.unpointed_classes))
        totals.append(report.unpointed_classes)
    return totals


def check_normal_structure():
    expected = {3: 1, 5: 0, 6: 2}
    found = {size: census.enumerate_normal(size) for size in expected}
    for size, count in expected.items():
        if len(found[size]) != count:
            _fail("normal-structure", "size %d: %d normal classes, expected %d"
                  % (size, len(found[size]), count))
    abelian = []
    for d in found[6]:
        maps = diagram.automorphisms(d)
        if len(maps) != 6 or diagram.automorphism_order(d) != 6:
            _fail("normal-structure", "size-6 automorphism order is not 6")
        abelian.append(all(
            tuple(f[g[i]] for i in range(d.n)) == tuple(g[f[i]] for i in range(d.n))
            for f, g in itertools.combinations(maps, 2)
        ))
    if sorted(abelian) != [False, True]:
        _fail("normal-structure",
              "size-6 normal classes should split abelian/nonabelian, got %r" % abelian)


def brute_commuting(p, ctype):
    """Count tau with tau^p = id commuting with a permutation of `ctype`,
    by enumerating all permutations."""
    n = ctype.weight
    sigma = []
    for k, m in ctype.pairs:
        for _ in range(m):
            start = len(sigma)
            sigma.extend(list(range(start + 1, start + k)) + [start])
    count = 0
    for tau in itertools.permutations(range(n)):
        power = list(range(n))
        for _ in range(p):
            power = [tau[i] for i in power]
        if power != list(range(n)):
            continue
        if all(tau[sigma[i]] == sigma[tau[i]] for i in range(n)):
            count += 1
    return count


def check_commuting_counts(max_weight, primes=(2, 3)):
    for p in primes:
        for w in range(max_weight + 1):
            for ct in cycle_types(w):
                formula = count_commuting_order_p(p, ct)
                brute = brute_commuting(p, ct)
                if formula != brute:
                    _fail("commuting-counts",
                          "p=%d type %r: formula %d, brute force %d"
                          % (p, ct.pairs, formula, brute))


def brute_isomorphic(d1, d2):
    """Search all bijections conjugating one diagram to the other."""
    if d1.n != d2.n:
        return False
    arcs = range(d1.n)
    for perm in itertools.permutations(arcs):
        if all(
            perm[d1.rot[a]] == d2.rot[perm[a]] and perm[d1.inv[a]] == d2.inv[perm[a]]
            for a in arcs
        ):
            return True
    return False


def check_canonical_codes(rng, sizes, relabelings):
    """Canonical codes against brute-force isomorphism on the census
    representatives: distinct classes get distinct codes, and each of
    `relabelings` random relabelings of a class keeps its code."""
    for size in sizes:
        reps = census.enumerate_size(size).class_representatives
        for d1, d2 in itertools.combinations(reps, 2):
            if diagram.canonical_code(d1) == diagram.canonical_code(d2):
                _fail("canonical-codes", "two classes share a code at size %d" % size)
            if brute_isomorphic(d1, d2):
                _fail("canonical-codes", "two representatives are isomorphic at size %d"
                      % size)
        for d in reps:
            code = diagram.canonical_code(d)
            for _ in range(relabelings):
                perm = list(range(size))
                rng.shuffle(perm)
                copy = d.relabel(perm)
                if diagram.canonical_code(copy) != code:
                    _fail("canonical-codes", "relabeling changed the code at size %d" % size)
                if not brute_isomorphic(d, copy):
                    _fail("canonical-codes", "relabeled copy not isomorphic at size %d"
                          % size)


def check_integrality(order):
    """Every type-series coefficient, both flavors, is a nonnegative integer."""
    for general in (False, True):
        for series in (
            counting.subgroup_series(order, general),
            counting.conjugacy_class_series(order, general),
            counting.disconnected_types_series(order, general),
        ):
            if any(v < 0 for v in series.integer_coefficients()):  # raises on non-integers
                _fail("integrality", "negative coefficient at order %d" % order)


def check_index_500(report):
    pointed = counting.subgroup_series(500)[500]
    if pointed != reference.SUBGROUPS_INDEX_500:
        _fail("weight-500", "index-500 subgroup count mismatch")
    classes = counting.conjugacy_class_series(500)[500]
    if classes != reference.CONJUGACY_CLASSES_INDEX_500:
        _fail("weight-500", "index-500 class count mismatch")
    report("  index-500 subgroups: %d" % pointed)
    report("  index-500 classes:   %d" % classes)


def run_selftest(full: bool, report=print) -> bool:
    """Run the suite; prints one line per check with its wall time.  Returns
    True on success, False after reporting the first failing check."""
    checks = [
        ("series-roundtrips", lambda: check_series_roundtrips(random.Random(20259), 30, 32)),
        ("number-theory", lambda: check_number_theory(2000)),
        ("recurrence-order-20", lambda: check_recurrence(20)),
        ("dense-vs-fast-order-20", lambda: check_dense_vs_fast(20)),
        ("reference-order-20", lambda: check_reference(20)),
        ("census-to-size-8", lambda: check_census(8)),
        ("normal-structure", check_normal_structure),
        ("commuting-counts-weight-5", lambda: check_commuting_counts(5)),
        ("canonical-codes", lambda: check_canonical_codes(random.Random(1729), (5, 6, 7), 5)),
    ]
    if full:
        checks += [
            ("reference-order-50", lambda: check_reference(50)),
            ("census-size-9", lambda: check_census(9)),
            ("integrality-order-40", lambda: check_integrality(40)),
            ("recurrence-order-500", lambda: check_recurrence(500)),
            ("weight-500", lambda: check_index_500(report)),
        ]
    for name, check in checks:
        start = time.perf_counter()
        try:
            check()
        except SelfTestFailure as exc:
            report("FAIL %s" % exc)
            return False
        except Exception as exc:  # an invariant broke in an unexpected way
            report("FAIL %s: unexpected %s: %s" % (name, type(exc).__name__, exc))
            return False
        report("ok %s (%.2f s)" % (name, time.perf_counter() - start))
    return True
