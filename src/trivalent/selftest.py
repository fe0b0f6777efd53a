"""Built-in verification suite: the one registry of oracle checks.

Re-derives small and large values through independent routes and compares
them: brute-force enumeration against formulas, the census's canonical
augmentation against a dictionary of canonical codes, dense against
separable pipelines, both series and each column kernel against their
`Fraction` routes, recurrence against closed form, the CLI's pointed
decisions against every map between small diagram files, and everything
against the frozen reference sequences.
`quick` stays at truncation order 20 (60 for both series and the
column kernels against `Fraction`), census size 8 against the series, sizes
6 and 5 (trivalent, general) against brute force and 12 and 7 against
canonical codes, and last the parity laws of the pointed counts to order
500; `full` adds the order-50 tables, census size 9, the recurrence against
the closed form to order 500, and both series and the column kernels
against `Fraction` and the frozen values at 500 (`modular-vs-fraction-500`),
and takes the parity laws to order 1000.

Each check is a public function taking its sizes (and, when randomized, the
`random.Random` to draw from), so the test suite runs these same oracles with
its own seeds and bounds.  A check raises `SelfTestFailure` on a mismatch.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import tempfile
import time
from fractions import Fraction

from . import census, cli, counting, diagram, reference
from .cycleindex import count_commuting_order_p, cycle_types, cycle_types_up_to
from .series import (TruncSeries, _power_sum, euler_transform, inverse_euler_transform,
                     moebius_mu, moebius_sieve)


class SelfTestFailure(Exception):
    pass


def _fail(name, detail):
    raise SelfTestFailure("%s: %s" % (name, detail))


def check_series_roundtrips(rng, cases, max_order):
    """exp/log and Euler/inverse-Euler round trips on random series of
    orders 1..max_order: exp/log on fractions in [-9, 9] with denominator
    <= 6, Euler on integers in [-6, 6] after a constant term 1."""
    for case in range(cases):
        order = rng.randrange(1, max_order + 1)
        coeffs = [Fraction(0)]
        for _ in range(order):
            denominator = rng.randrange(1, 7)
            coeffs.append(Fraction(rng.randrange(-9 * denominator, 9 * denominator + 1),
                                   denominator))
        f = TruncSeries(order, coeffs)
        if f.exp().log() != f:
            _fail("series-roundtrips", "exp/log failed on case %d" % case)
        g = TruncSeries(order, [1] + [rng.randrange(-6, 7) for _ in range(order)])
        if euler_transform(inverse_euler_transform(g)) != g:
            _fail("series-roundtrips", "euler transform failed on case %d" % case)


def check_number_theory(max_n):
    """The sieved Moebius table of the class counts against trial division and
    sum_{d | n} mu(d) = [n = 1], for n <= max_n (the sum at n is complete at step n)."""
    mu = moebius_sieve(max_n)
    divisor_sums = [0] * (max_n + 1)
    for n in range(1, max_n + 1):
        if mu[n] != moebius_mu(n):
            _fail("number-theory", "sieve gives mu(%d) = %d, trial division %d"
                  % (n, mu[n], moebius_mu(n)))
        for multiple in range(n, max_n + 1, n):
            divisor_sums[multiple] += mu[n]
        if divisor_sums[n] != (1 if n == 1 else 0):
            _fail("number-theory", "moebius divisor sum wrong at %d" % n)


def check_recurrence(order):
    if counting.disconnected_egf_by_recurrence(order) != counting.disconnected_egf(order):
        _fail("recurrence", "recurrence and closed form disagree at order %d" % order)


def check_dense_vs_fast(order, general=False):
    dense = counting.conjugacy_class_series_dense(order, general)
    fast = counting.conjugacy_class_series(order, general)
    if dense != fast:
        _fail("dense-vs-fast", "pipelines disagree at order %d%s"
              % (order, " (general)" if general else ""))


def check_modular_vs_fraction(order):
    """Both series and each column kernel of `counting._column_kernel`, both
    flavors, against one `TruncSeries.log` of each
    `counting._condensed_column`.  k·m·[t^m] of the log of column k must be
    a nonnegative integer, equal to kernel(k)[m] in both flavors (so the
    trivalent residues must be the values themselves); the subgroups must
    be t·d/dt of column 1's log, and the classes the Moebius power sum of
    all the logs spread to t^{kj}.  The oracle shares only the integer
    fixed-point counts of `cycleindex` with the kernels.  Returns the
    trivalent series, checked last."""
    mu = moebius_sieve(order)
    for general in (True, False):
        flavor = "general" if general else "trivalent"
        kernel, _ = counting._column_kernel(order, general)
        subgroups = counting.subgroup_series(order, general)
        lg = [Fraction(0)] * (order + 1)
        for k in range(1, order + 1):
            m_max = order // k
            col_log = TruncSeries(m_max, counting._condensed_column(k, m_max, general)).log()
            expected = [k * m * col_log[m] for m in range(m_max + 1)]
            if any(v.denominator != 1 or v < 0 for v in expected):
                _fail("modular-vs-fraction", "%s column %d: a scaled log coefficient is not "
                      "a nonnegative integer at order %d" % (flavor, k, order))
            if kernel(k) != expected:
                _fail("modular-vs-fraction", "%s column %d differs at order %d"
                      % (flavor, k, order))
            if k == 1 and subgroups != col_log.euler_operator():
                _fail("modular-vs-fraction", "%s subgroups differ at order %d" % (flavor, order))
            for j in range(1, m_max + 1):
                lg[k * j] += col_log[j]
        classes = counting.conjugacy_class_series(order, general)
        if classes != TruncSeries(order, _power_sum(lg, mu)):
            _fail("modular-vs-fraction", "%s classes differ at order %d" % (flavor, order))
    return subgroups, classes


def check_column_normalisation(max_weight):
    """The fast route's k^m·m! normalisation against the centralizer order:
    for every cycle type of weight <= max_weight, both flavors, the product
    of its condensed column entries is the dense oracle's Burnside term."""
    for general in (False, True):
        for ctype in cycle_types_up_to(max_weight):
            product = Fraction(1)
            for k, m in ctype:
                product *= counting._condensed_column(k, m, general)[m]
            if product != counting._burnside_term(ctype, general):
                _fail("column-normalisation", "%r%s: columns give %s"
                      % (ctype, " (general)" if general else "", product))


def check_reference(order):
    pointed = counting.subgroup_series(order).integer_coefficients()[1:]
    classes = counting.conjugacy_class_series(order).integer_coefficients()[1:]
    if pointed != list(reference.SUBGROUPS_BY_INDEX[:order]):
        _fail("reference", "subgroup counts disagree up to order %d" % order)
    if classes != list(reference.CONJUGACY_CLASSES_BY_INDEX[:order]):
        _fail("reference", "class counts disagree up to order %d" % order)


def check_parity_laws(order):
    """The parity of every pointed count s_n, n = 1..order, in both flavors:
    Stothers' law (W. W. Stothers, Proc. Roy. Soc. Edinburgh 78A (1977)),
    the trivalent s_n is odd exactly when n = 2^k - 3 (k >= 2) or
    n = 2^k - 6 (k >= 3), and every general s_n is odd (Hall's recursion
    gives s_n = s_{n-1} mod 2).  One bit per coefficient, but at any order,
    and independent of the kernels."""
    top = (order + 6).bit_length() + 1
    odd = {2 ** k - 3 for k in range(2, top)} | {2 ** k - 6 for k in range(3, top)}
    for general in (False, True):
        counts = counting.subgroup_series(order, general).integer_coefficients()
        for n in range(1, order + 1):
            if counts[n] % 2 != (general or n in odd):
                _fail("parity-laws", "%s s_%d is %s" % ("general" if general else "trivalent",
                                                      n, "odd" if counts[n] % 2 else "even"))


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
        totals.append(report.unpointed_classes)
    return totals


def brute_transitive_pairs(n, trivalent=True):
    """Labeled count by brute force: pairs (rot, inv) of permutations of n
    points with inv^2 = id (and rot^3 = id in the trivalent flavor) that act
    transitively.  Exponential; intended for n <= 7."""
    if n < 1:
        raise ValueError("size must be >= 1, got %d" % n)
    perms = list(itertools.permutations(range(n)))
    invs = [p for p in perms if all(p[p[i]] == i for i in range(n))]
    if trivalent:
        rots = [p for p in perms if all(p[p[p[i]]] == i for i in range(n))]
    else:
        rots = perms
    return sum(diagram._transitive(rot, inv) for rot in rots for inv in invs)


def check_census_vs_brute(max_trivalent, max_general):
    """The census's labelled connected counts against the brute-force count
    of transitive pairs, for trivalent sizes up to max_trivalent and general
    sizes up to max_general."""
    for trivalent, max_size in ((True, max_trivalent), (False, max_general)):
        for n in range(1, max_size + 1):
            labelled = census.enumerate_size(n, trivalent).labelled_connected
            brute = brute_transitive_pairs(n, trivalent)
            if labelled != brute:
                _fail("census-vs-brute", "%s size %d: census %d, brute force %d"
                      % ("trivalent" if trivalent else "general", n, labelled, brute))


def check_census_vs_codes(max_trivalent, max_general):
    """The census's representatives, kept by canonical augmentation on the
    pruned walk, against the dedup that augmentation replaces: a
    `canonical_code` dict over every pointed structure of the unpruned walk,
    one `canonical_representative` per class, sorted by code; its |Aut|
    against `automorphism_order` of those representatives; and its
    orbit-stabilizer pointed count against the number of those structures;
    for trivalent sizes up to max_trivalent and general sizes up to
    max_general."""
    for trivalent, max_size in ((True, max_trivalent), (False, max_general)):
        flavor = "trivalent" if trivalent else "general"
        for n in range(1, max_size + 1):
            by_code = {}
            pointed = 0
            for rot, inv in census.pointed_structures(n, trivalent):
                pointed += 1
                d = diagram.Diagram(rot, inv)
                code = diagram.canonical_code(d)
                if code not in by_code:
                    by_code[code] = diagram.canonical_representative(d)
            expected = tuple(by_code[code] for code in sorted(by_code))
            report = census.enumerate_size(n, trivalent)
            if report.class_representatives != expected:
                _fail("census-vs-codes", "%s size %d: representatives differ" % (flavor, n))
            if report.automorphism_orders != tuple(map(diagram.automorphism_order, expected)):
                _fail("census-vs-codes", "%s size %d: automorphism orders differ" % (flavor, n))
            if report.pointed_classes != pointed:
                _fail("census-vs-codes", "%s size %d: %d pointed classes, %d pointed structures"
                      % (flavor, n, report.pointed_classes, pointed))


def check_normal_structure():
    expected = {3: 1, 5: 0, 6: 2}
    found = {size: census.enumerate_size(size).normal_representatives() for size in expected}
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
    n = sum(k * m for k, m in ctype)
    sigma = []
    for k, m in ctype:
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


def check_commuting_counts(max_weight):
    for p in (2, 3):
        for w in range(max_weight + 1):
            for ct in cycle_types(w):
                formula = count_commuting_order_p(p, ct)
                brute = brute_commuting(p, ct)
                if formula != brute:
                    _fail("commuting-counts",
                          "p=%d type %r: formula %d, brute force %d"
                          % (p, ct, formula, brute))


def brute_isomorphisms(d1, d2):
    """Yield every bijection conjugating one diagram to the other, trying
    all permutations of the arcs in lexicographic order."""
    if d1.n != d2.n:
        return
    arcs = range(d1.n)
    for perm in itertools.permutations(arcs):
        if all(
            perm[d1.rot[a]] == d2.rot[perm[a]] and perm[d1.inv[a]] == d2.inv[perm[a]]
            for a in arcs
        ):
            yield perm


def brute_isomorphic(d1, d2):
    """Whether some bijection conjugates one diagram to the other."""
    return next(brute_isomorphisms(d1, d2), None) is not None


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


def brute_relabeling(d, base):
    """Labels arcs by breadth-first discovery from `base`, applying
    generators in the order [rot, rot^-1, inv].  Returns the label array."""
    rot, inv = d.rot, d.inv
    rot_inv = [0] * d.n
    for a, b in enumerate(rot):
        rot_inv[b] = a
    label = [-1] * d.n
    label[base] = 0
    order = [base]
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for g in (rot, rot_inv, inv):
            y = g[x]
            if label[y] < 0:
                label[y] = len(order)
                order.append(y)
    return label


def brute_code_tuple(d, base):
    """The (rot, inv) pair of `d` relabeled from `base`, built in full."""
    label = brute_relabeling(d, base)
    rot_new = [0] * d.n
    inv_new = [0] * d.n
    for a in range(d.n):
        rot_new[label[a]] = label[d.rot[a]]
        inv_new[label[a]] = label[d.inv[a]]
    return tuple(rot_new), tuple(inv_new)


def brute_canonical_form(d):
    """The least relabeled pair over all bases, with no pruning or skipping."""
    return min(brute_code_tuple(d, base) for base in range(d.n))


def random_trivalent(rng, n):
    """A random connected trivalent diagram on n arcs: up to a few degree-1
    vertices and folded edges, everything else 3-cycles and paired arcs."""
    for _ in range(1000):
        arcs = list(range(n))
        rng.shuffle(arcs)
        fixed = n % 3 + 3 * rng.randrange(min(2, n // 3) + 1)
        rot = list(range(n))
        for i in range(fixed, n, 3):
            a, b, c = arcs[i:i + 3]
            rot[a], rot[b], rot[c] = b, c, a
        rng.shuffle(arcs)
        folded = n % 2 + 2 * rng.randrange(min(2, n // 2) + 1)
        inv = list(range(n))
        for i in range(folded, n, 2):
            a, b = arcs[i:i + 2]
            inv[a], inv[b] = b, a
        if diagram._transitive(rot, inv):
            return diagram.Diagram(rot, inv)
    raise SelfTestFailure("no connected trivalent diagram on %d arcs in 1000 attempts" % n)


def psl2_regular(p):
    """The regular diagram of PSL2(F_p): arcs are the group elements, inv is
    right multiplication by S = [[0,-1],[1,0]] and rot by ST = [[0,-1],[1,1]].
    It is normal with p(p^2-1)/2 arcs."""

    def times(m, g):
        a, b, c, d = m
        e, f, h, k = g
        prod = ((a * e + b * h) % p, (a * f + b * k) % p,
                (c * e + d * h) % p, (c * f + d * k) % p)
        return min(prod, tuple(-x % p for x in prod))  # modulo -I

    s, st = (0, p - 1, 1, 0), (0, p - 1, 1, 1)
    elements = [(1, 0, 0, 1)]
    index = {elements[0]: 0}
    for m in elements:
        for g in (s, st):
            y = times(m, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    inv = [index[times(m, s)] for m in elements]
    rot = [index[times(m, st)] for m in elements]
    d = diagram.Diagram(rot, inv)
    if not d.trivalent:
        _fail("psl2-regular", "rot^3 != id at p=%d" % p)
    return d


def bead_ring(c):
    """A rigid diagram on 4c + 3 arcs: a ring of c + 1 triangles
    (3i, 3i+1, 3i+2), arc 3i+1 paired with arc 3i+3 of the next one (3c+1
    with 0), and the third arc of each triangle but the last paired with its
    own rot-fixed leaf 3c+3+i; the last triangle's third arc is folded.  The
    least base is the leaf next to the leafless triangle, and it comes last
    of all rot-fixed arcs; in arc order every triangle comes first."""
    n = 4 * c + 3
    rot = list(range(n))
    inv = list(range(n))
    for i in range(c + 1):
        a = 3 * i
        rot[a], rot[a + 1], rot[a + 2] = a + 1, a + 2, a
        b = 3 * ((i + 1) % (c + 1))
        inv[a + 1], inv[b] = b, a + 1
    for i in range(c):
        leaf = 3 * (c + 1) + i
        inv[3 * i + 2], inv[leaf] = leaf, 3 * i + 2
    return diagram.Diagram(rot, inv)


def _random_lift(rot, inv, sheets, rng, cyclic=False):
    """The (rot, inv) lists of a random `sheets`-fold cover, connected or not:
    arc a*sheets + i is arc a on sheet i; rot lifts sheet by sheet and inv
    through a random sheet permutation per edge and its inverse (the
    identity on a folded edge), so a -> a // sheets is a morphism onto
    (rot, inv).  With `cyclic` each permutation is a cyclic shift, so
    i -> i + 1 on every sheet is an automorphism of the cover."""
    lift = [None] * len(rot)
    for a, b in enumerate(inv):
        if lift[a] is None:
            perm = list(range(sheets))
            if b != a:
                if cyclic:
                    shift = rng.randrange(sheets)
                    perm = perm[shift:] + perm[:shift]
                else:
                    rng.shuffle(perm)
            lift[a] = perm
            lift[b] = [0] * sheets
            for i, j in enumerate(perm):
                lift[b][j] = i
    arcs = range(len(rot))
    return ([rot[a] * sheets + i for a in arcs for i in range(sheets)],
            [inv[a] * sheets + lift[a][i] for a in arcs for i in range(sheets)])


def random_cover(d, sheets, rng, cyclic=False):
    """A random connected `sheets`-fold cover of d (`_random_lift`); with
    `cyclic`, a regular one whose deck group is cyclic."""
    for _ in range(100):
        rot, inv = _random_lift(d.rot, d.inv, sheets, rng, cyclic)
        if diagram._transitive(rot, inv):
            return diagram.Diagram(rot, inv)
    raise SelfTestFailure("no connected %d-fold cover in 100 attempts" % sheets)


def check_canonical_search(rng, sizes, relabelings):
    """The pruned canonical-code search against the exhaustive oracle, on a
    random connected trivalent diagram of each size, on the regular diagrams
    of PSL2(F_5) and PSL2(F_7) and a 2-fold cover of the first, on bead
    rings of 43 and 203 arcs, on a cyclic 4-fold cover of a bead ring (its
    deck group keeps the lifts of a leaf tied until the lockstep pass finds
    an automorphism between them), on a diagram whose arcs are all
    rot-fixed, and on `relabelings` random relabelings of each."""
    pool = [random_trivalent(rng, n) for n in sizes]
    pool += [psl2_regular(5), psl2_regular(7)]
    pool.append(random_cover(pool[-2], 2, rng))
    pool += [bead_ring(10), bead_ring(50), random_cover(bead_ring(3), 4, rng, cyclic=True),
             diagram.Diagram((0, 1), (1, 0))]
    for d in pool:
        rot, inv = brute_canonical_form(d)
        expected = "%d;%s;%s" % (d.n, ",".join(map(str, rot)), ",".join(map(str, inv)))
        for copy in [d] + [d.relabel(rng.sample(range(d.n), d.n))
                           for _ in range(relabelings)]:
            if diagram.canonical_code(copy) != expected.encode("ascii"):
                _fail("canonical-search", "code differs from the oracle at n=%d" % d.n)
            if diagram.canonical_representative(copy) != diagram.Diagram(rot, inv):
                _fail("canonical-search",
                      "representative differs from the oracle at n=%d" % d.n)


def check_automorphism_orbits(diagrams):
    """|Aut| from the canonical search, and normality and the smallest arc no
    automorphism reaches from arc 0 from the orbit algorithm, against the
    exhaustive automorphism list."""
    for d in diagrams:
        maps = diagram.automorphisms(d)
        order = diagram.automorphism_order(d)
        if order != len(maps):
            _fail("automorphism-orbits", "|Aut| %d, exhaustively %d at n=%d"
                  % (order, len(maps), d.n))
        if diagram.is_normal(d) != (order == d.n):
            _fail("automorphism-orbits", "normality disagrees with |Aut| at n=%d" % d.n)
        unreachable = sorted(set(range(d.n)) - {m[0] for m in maps})
        conflict = diagram.normality_conflict(d)
        found = None if conflict is None else conflict.partial_map[0]
        if found != (unreachable[0] if unreachable else None):
            _fail("automorphism-orbits", "unreachable arc %r, exhaustively %r at n=%d"
                  % (found, unreachable[:1], d.n))


def random_arrays(rng, n):
    """A random (rot, inv) pair of lists on n arcs: rot any permutation, inv
    an involution with a random number of fixed arcs; connected every other
    time (the draw is repeated until it is), else connected or not."""
    connected = rng.random() < 0.5
    while True:
        rot = rng.sample(range(n), n)
        arcs = rng.sample(range(n), n)
        inv = list(range(n))
        for i in range(0, 2 * rng.randrange(n // 2 + 1), 2):
            a, b = arcs[i], arcs[i + 1]
            inv[a], inv[b] = b, a
        if not connected or diagram._transitive(rot, inv):
            return rot, inv


def _disjoint_union(first, second):
    """The (rot, inv) lists of two diagrams side by side, the second's arcs
    numbered after the first's."""
    shift = len(first[0])
    return tuple(f + [x + shift for x in g] for f, g in zip(first, second))


def random_pointed_pair(rng, max_arcs):
    """A source (rot, inv, base) and a target (rot, inv, base) of at most
    max_arcs arcs each, either of them possibly a disjoint union.  The
    source is unrelated to the target, or a randomly relabeled cover of it
    (one sheet: a copy), plus possibly a further component; then three
    times in four the target base is the image of the source base."""
    rot2, inv2 = random_arrays(rng, rng.randrange(1, max_arcs + 1))
    if len(rot2) < max_arcs and rng.random() < 0.3:  # a disconnected target
        rot2, inv2 = _disjoint_union((rot2, inv2), random_arrays(
            rng, rng.randrange(1, max_arcs - len(rot2) + 1)))
    n2 = len(rot2)
    base2 = rng.randrange(n2)
    if rng.random() < 0.3:
        rot1, inv1 = random_arrays(rng, rng.randrange(1, max_arcs + 1))
        return (rot1, inv1, rng.randrange(len(rot1))), (rot2, inv2, base2)
    sheets = rng.randrange(1, max_arcs // n2 + 1)
    rot1, inv1 = _random_lift(rot2, inv2, sheets, rng)
    cover = [a for a in range(n2) for _ in range(sheets)]  # the covering map
    room = max_arcs - len(rot1)
    if room and rng.random() < 0.3:  # a further component
        rot1, inv1 = _disjoint_union((rot1, inv1), random_arrays(rng, rng.randrange(1, room + 1)))
        cover += [None] * (len(rot1) - len(cover))
    n1 = len(rot1)
    perm = rng.sample(range(n1), n1)  # arc x becomes perm[x]
    relabeled = [0] * n1, [0] * n1, [None] * n1
    for x in range(n1):
        relabeled[0][perm[x]] = perm[rot1[x]]
        relabeled[1][perm[x]] = perm[inv1[x]]
        relabeled[2][perm[x]] = cover[x]
    rot1, inv1, cover = relabeled
    base1 = rng.randrange(n1)
    if cover[base1] is not None and rng.random() < 0.75:
        base2 = cover[base1]
    return (rot1, inv1, base1), (rot2, inv2, base2)


def brute_pointed_maps(src, dst):
    """Every map of the source arcs to the target arcs that sends base to
    base and commutes with rot and inv, found by trying all n2^(n1-1) maps
    that send base to base."""
    (rot1, inv1, a), (rot2, inv2, b) = src, dst
    arcs = range(len(rot1))
    choices = [(b,) if x == a else range(len(rot2)) for x in arcs]
    return [m for m in itertools.product(*choices)
            if all(m[rot1[x]] == rot2[m[x]] and m[inv1[x]] == inv2[m[x]] for x in arcs)]


def refutes(pair, src, dst):
    """True iff the critical pair `pair` (the CLI's witness fields) proves
    that no pointed map src -> dst exists: its partial map sends base to
    base, every arc it assigns is reached from the base by generator steps
    that it respects, and the named step leaves an assigned arc for an image
    other than the one already assigned."""
    (rot1, inv1, a), (rot2, inv2, b) = src, dst
    steps = {"rot": (rot1, rot2), "inv": (inv1, inv2)}
    m = pair["partial_map"]
    if len(m) != len(rot1) or m[a] != b or not all(-1 <= y < len(rot2) for y in m) \
            or pair["generator"] not in steps:
        return False
    reached, stack = {a}, [a]
    while stack:
        x = stack.pop()
        for g1, g2 in steps.values():
            y = g1[x]
            if y not in reached and m[y] == g2[m[x]]:
                reached.add(y)
                stack.append(y)
    if any(y >= 0 and x not in reached for x, y in enumerate(m)):
        return False
    g1, g2 = steps[pair["generator"]]
    x, y = pair["arc"], pair["target_arc"]
    return (x in reached and g1[x] == y and y in reached
            and m[y] == pair["existing_image"]
            and g2[m[x]] == pair["required_image"] != pair["existing_image"])


#: Arcs per file in `check_pointed_relations`: brute force tries up to 6^5 maps.
POINTED_MAX_ARCS = 6


def check_pointed_relations(rng, cases):
    """`decide included|isomorphic` against brute force on `cases` random
    pairs of at most `POINTED_MAX_ARCS` arcs, connected or not: the exit
    code and the error line (a disconnected file, as `_transitive` finds it,
    file 1 first), the size answer of `isomorphic`, the map when one exists
    (all maps tried), or else a critical pair that refutes every map.
    Between connected files `pointed_morphism` and
    `pointed_morphism_conflict` must agree."""
    with tempfile.TemporaryDirectory() as directory:
        for case in range(cases):
            pair = random_pointed_pair(rng, POINTED_MAX_ARCS)
            paths, texts = [], []
            for name, (rot, inv, base) in zip(("one", "two"), pair):
                texts.append("n=%d; rot=%s; inv=%s; base=%d"
                             % (len(rot), json.dumps(rot), json.dumps(inv), base))
                paths.append(os.path.join(directory, name + ".diag"))
                with open(paths[-1], "w", encoding="utf-8") as handle:
                    handle.write(texts[-1])
            connected = [diagram._transitive(rot, inv) for rot, inv, _ in pair]
            maps = brute_pointed_maps(*pair) if all(connected) else None
            if maps is not None and len(maps) > 1:
                _fail("pointed-relations", "case %d: %d maps from a connected source"
                      % (case, len(maps)))
            for relation in ("included", "isomorphic"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["decide", relation] + paths)
                got = (code, out.getvalue(), err.getvalue())
                if not all(connected):
                    i = connected.index(False)
                    expected = (cli.EXIT_INPUT, "", "error: %s: diagram is not connected "
                                "(line 1, column %d)\n" % (paths[i], texts[i].index("rot") + 1))
                    ok = got == expected
                elif code != cli.EXIT_OK or got[2]:
                    ok = False
                else:
                    payload = json.loads(got[1])
                    witness = payload["witness"]
                    sizes = [len(pair[0][0]), len(pair[1][0])]
                    if relation == "isomorphic" and sizes[0] != sizes[1]:
                        ok = payload["result"] is False and witness == {"sizes": sizes}
                    elif maps:
                        ok = payload["result"] is True and witness == {"map": list(maps[0])}
                    else:
                        ok = (payload["result"] is False and list(witness) == ["critical_pair"]
                              and refutes(witness["critical_pair"], *pair))
                if not ok:
                    _fail("pointed-relations", "case %d, %s %r -> %r: got %r"
                          % (case, relation, texts[0], texts[1], got))
            if maps is None:
                continue
            src, dst = (diagram.PointedDiagram(diagram.Diagram(rot, inv), base)
                        for rot, inv, base in pair)
            m = diagram.pointed_morphism(src, dst)
            conflict = diagram.pointed_morphism_conflict(src, dst)
            if maps:
                ok = m == maps[0] and conflict is None
            else:
                ok = m is None and refutes(conflict._asdict(), *pair)
            if not ok:
                _fail("pointed-relations", "case %d, %r -> %r: pointed_morphism %r"
                      % (case, texts[0], texts[1], m))


def check_index_500(pointed, classes):
    """The series' index-500 coefficients against the frozen values."""
    if pointed[500] != reference.SUBGROUPS_INDEX_500:
        _fail("modular-vs-fraction-500", "index-500 subgroup count mismatch")
    if classes[500] != reference.CONJUGACY_CLASSES_INDEX_500:
        _fail("modular-vs-fraction-500", "index-500 class count mismatch")
    print("  index-500 subgroups: %d" % pointed[500])
    print("  index-500 classes:   %d" % classes[500])


def run_selftest(full: bool) -> bool:
    """Run the suite; prints one line per check with its wall time.  Returns
    True on success, False after reporting the first failing check."""
    checks = [
        ("series-roundtrips", lambda: check_series_roundtrips(random.Random(20259), 30, 32)),
        ("number-theory", lambda: check_number_theory(2000)),
        ("recurrence-order-20", lambda: check_recurrence(20)),
        ("dense-vs-fast-order-20", lambda: check_dense_vs_fast(20)),
        ("dense-vs-fast-general-order-12", lambda: check_dense_vs_fast(12, general=True)),
        ("column-normalisation-weight-8", lambda: check_column_normalisation(8)),
        ("modular-vs-fraction-order-60", lambda: check_modular_vs_fraction(60)),
        ("reference-order-20", lambda: check_reference(20)),
        ("census-to-size-8", lambda: check_census(8)),
        ("census-vs-brute", lambda: check_census_vs_brute(6, 5)),
        ("census-vs-codes", lambda: check_census_vs_codes(12, 7)),
        ("normal-structure", check_normal_structure),
        ("commuting-counts-weight-5", lambda: check_commuting_counts(5)),
        ("canonical-codes", lambda: check_canonical_codes(random.Random(1729), (5, 6, 7), 5)),
        ("canonical-search", lambda: check_canonical_search(random.Random(4181), (12, 60, 240, 600), 1)),
        ("pointed-relations", lambda: check_pointed_relations(random.Random(8891), 80)),
        ("automorphism-orbits", lambda: check_automorphism_orbits(
            list(census.enumerate_size(7).class_representatives)
            + [psl2_regular(5), random_cover(psl2_regular(5), 2, random.Random(6765)),
               random_trivalent(random.Random(2584), 600), psl2_regular(7),
               random_cover(bead_ring(3), 4, random.Random(4181), cyclic=True)])),
    ]
    if full:
        checks += [
            ("reference-order-50", lambda: check_reference(50)),
            ("census-size-9", lambda: check_census(9)),
            ("recurrence-order-500", lambda: check_recurrence(500)),
            ("modular-vs-fraction-500", lambda: check_index_500(*check_modular_vs_fraction(500))),
        ]
    checks.append(("parity-laws", lambda: check_parity_laws(1000 if full else 500)))
    for name, check in checks:
        start = time.perf_counter()
        try:
            check()
        except SelfTestFailure as exc:
            print("FAIL %s" % exc)
            return False
        except Exception as exc:  # an invariant broke in an unexpected way
            print("FAIL %s: unexpected %s: %s" % (name, type(exc).__name__, exc))
            return False
        print("ok %s (%.2f s)" % (name, time.perf_counter() - start))
    return True
