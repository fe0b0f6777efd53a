"""Exhaustive census of connected diagrams at small size.

This is the ground-truth oracle for the generating series: it constructs
every pointed isomorphism class explicitly and deduplicates unpointed
classes by canonical code, with no counting shortcuts, so its output is
independent of the cycle-index machinery it validates.

The enumerator builds each pointed class exactly once by generating only
*canonically labeled* structures: arcs are labeled in breadth-first
discovery order from the base arc 0 with generators applied in the fixed
order [rot, rot^-1, inv], and the search assigns a fresh label exactly when
the traversal would discover a new arc.  Pointed connected diagrams are
rigid, so canonical labelings biject with pointed classes and no
deduplication is needed.

Expanding arc a runs three stages, rot, rot^-1 and inv, each a pair of
arrays (fwd, bwd) inverse to each other: (rot, pre), (pre, rot) and
(inv, inv).  Unset entries are -1, so the partial permutations consist of
open chains.  Every stage applies one join rule: if fwd[a] is set, move on;
otherwise walk a's chain in the bwd direction to its far end `start`,
counting its `length`, and try every b < min(used + 1, n) with bwd[b] unset.
b == start closes the cycle (for inv: a folded edge), b == used is a fresh
arc, and any other b splices in another chain.  The trivalent flavor keeps
cycle lengths at 1 or 3: it never closes a chain of length 2 and never joins
chains of more than 3 arcs in total (a fresh arc is a chain of length 1).
`selftest` validates the enumerator at tiny sizes against a brute-force
count of all transitive permutation pairs.
"""

from __future__ import annotations

import math

from .diagram import Diagram, canonical_code, canonical_representative, is_normal

#: Size caps for the census (resource guard, not a hard algorithmic limit).
CENSUS_CAP_TRIVALENT = 14
CENSUS_CAP_GENERAL = 10


class CensusSizeError(ValueError):
    """A census size below 1 or above the cap: the one input error here."""


class CensusReport:
    """Counts and representatives for one size.

    `labelled_connected` is the number of connected labeled structures; by
    rigidity it equals pointed_classes * (size-1)!.  A report is not a
    tuple: `perfbench/run.py` reads any tuple result as a CLI
    (exit code, stdout) pair.
    """

    __slots__ = ("size", "labelled_connected", "pointed_classes",
                 "unpointed_classes", "class_representatives")

    def __init__(self, size: int, labelled_connected: int, pointed_classes: int,
                 unpointed_classes: int, class_representatives: tuple = ()):
        values = (size, labelled_connected, pointed_classes, unpointed_classes,
                  class_representatives)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("CensusReport is immutable")


def pointed_structures(n: int, trivalent: bool = True):
    """Yield (rot, inv) image tuples, one per pointed isomorphism class of
    connected diagrams on n arcs, each in canonical labeling."""
    if n < 1:
        raise CensusSizeError("size must be >= 1, got %d" % n)
    rot = [-1] * n
    pre = [-1] * n
    inv = [-1] * n
    stages = ((rot, pre), (pre, rot), (inv, inv))

    def join(a, stage, used):
        if stage == 3:
            a, stage = a + 1, 0
            if a == used:             # every discovered arc is expanded
                if used == n:
                    yield tuple(rot), tuple(inv)
                return
        fwd, bwd = stages[stage]
        if fwd[a] != -1:
            yield from join(a, stage + 1, used)
            return
        start, length = a, 1
        while bwd[start] != -1:
            start = bwd[start]
            length += 1
        for b in range(min(used + 1, n)):
            if bwd[b] != -1:
                continue
            if b == start:
                if trivalent and length == 2:
                    continue
            elif trivalent:
                end, total = b, length + 1
                while fwd[end] != -1:
                    end = fwd[end]
                    total += 1
                if total > 3:
                    continue
            fwd[a] = b
            bwd[b] = a
            yield from join(a, stage + 1, used + (b == used))
            fwd[a] = -1
            bwd[b] = -1

    yield from join(0, 0, 1)


def enumerate_size(n: int, trivalent: bool = True) -> CensusReport:
    """Construct all connected diagrams of size n.

    Counts pointed classes exactly, deduplicates unpointed classes by
    canonical code, and keeps one canonical representative per class
    (sorted by code).  Raises for sizes beyond the cap.
    """
    cap = CENSUS_CAP_TRIVALENT if trivalent else CENSUS_CAP_GENERAL
    if n > cap:
        raise CensusSizeError("census size %d exceeds the cap %d" % (n, cap))
    pointed = 0
    by_code = {}
    for rot, inv in pointed_structures(n, trivalent):
        pointed += 1
        d = Diagram(rot, inv)
        code = canonical_code(d)
        if code not in by_code:
            by_code[code] = canonical_representative(d)
    reps = tuple(by_code[c] for c in sorted(by_code))
    return CensusReport(
        size=n,
        labelled_connected=pointed * math.factorial(n - 1),
        pointed_classes=pointed,
        unpointed_classes=len(reps),
        class_representatives=reps,
    )


def enumerate_normal(n: int, trivalent: bool = True) -> list:
    """The unpointed representatives whose automorphism group is
    arc-transitive (normal subgroups of the classified group)."""
    report = enumerate_size(n, trivalent)
    return [d for d in report.class_representatives if is_normal(d)]
