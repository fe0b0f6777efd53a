"""Exhaustive census of connected diagrams at small size.

This is the ground-truth oracle for the generating series: it constructs
every pointed isomorphism class explicitly and keeps one representative
per unpointed class by canonical augmentation, with no counting shortcuts,
so its output is independent of the cycle-index machinery it validates.

The enumerator builds each pointed class exactly once by generating only
*canonically labeled* structures: arcs are labeled in breadth-first
discovery order from the base arc 0 with generators applied in the fixed
order [rot, rot^-1, inv], and the search assigns a fresh label exactly when
the traversal would discover a new arc.  Pointed connected diagrams are
rigid, so canonical labelings biject with pointed classes:
`pointed_structures` walks this tree unpruned and yields one structure per
pointed class, the oracle stream for `selftest` and the tests.

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

Unpointed classes come by canonical augmentation (B. D. McKay, J.
Algorithms 26 (1998)): a structure labeled from base 0 is kept exactly when
it is the canonical form of its diagram, i.e. when no other base relabels
it to a smaller pair.  `enumerate_size` walks the same tree and prunes it
in the manner of orderly generation (R. C. Read, Ann. Discrete Math. 2
(1978)).  Each time an arc is fully expanded, every base b >= 1 still tied
is relabeled breadth-first as far as the set entries reach, and its rot
array is compared entry by entry with the structure's own.  Set entries
never change below a node, so both prefixes are those of every completion:
a smaller entry of b makes every completion non-canonical and cuts the
branch, a larger one settles b for the whole subtree, and only the bases
still tied go down.  A base whose rot array ties in full, which needs
every entry set, has its inv array compared the same way.  The same test
decides at the leaf: the structure is kept exactly when no base is
smaller, and then each base still tied relabels it to itself, i.e. is the
image of arc 0 under an automorphism, so |Aut| is one more than their
number.  Every leaf of the walk is therefore one (rot, inv, aut) triple,
aut = |Aut| for a kept structure and 0 for a rejected one.  Unpruned, the
walk has no base to test, so it cuts nothing and every leaf has aut = 1;
`pointed_structures` is that stream.  `selftest` rebuilds the
representatives by canonical code, and their |Aut| by canonical search, as
the oracle of this rule.

The walk is plain recursion over the three shared arrays, and it hands
each leaf to one collector, a list in walk order: `enumerate_size` has it
keep only the leaves with aut > 0, so a rejected leaf is never copied,
while `pointed_structures` and the tests see every leaf.  The search state
of a tied base (its order and labels) is never written once it is made:
an advance copies it on the first new label it assigns, so an advance
that labels nothing new costs no copy, and the sibling branches below a
node share the state they were given.

A `CensusReport` holds the kept leaves and derives every count from
them.  Aut acts freely on the arcs, so a class holds n/|Aut| pointed
classes: the pointed count is the sum of n/|Aut| over the representatives,
and by rigidity there are (n-1)! labeled structures per pointed class.  A
class is normal exactly when Aut is arc-transitive, i.e. when |Aut| = n.
"""

from __future__ import annotations

import math

from .diagram import _trusted_diagram
# unused here, but `perfbench/spans.py` wraps them by name in this module
from .diagram import (Diagram, canonical_code, canonical_representative,  # noqa: F401
                      is_normal)

#: Size caps for the census (resource guard, not a hard algorithmic limit).
CENSUS_CAP_TRIVALENT = 14
CENSUS_CAP_GENERAL = 10


class CensusSizeError(ValueError):
    """A census size below 1 or above the cap: the one input error here."""


class CensusReport:
    """Counts and representatives for one size, built from the kept leaves.

    `automorphism_orders` holds |Aut| of each representative, in the same
    order.  The counts follow: one unpointed class per representative,
    size/|Aut| pointed classes per unpointed one, and by rigidity
    `labelled_connected` = pointed_classes * (size-1)! connected labeled
    structures.  A report is not a tuple: `perfbench/run.py` reads any
    tuple result as a CLI (exit code, stdout) pair.
    """

    __slots__ = ("size", "labelled_connected", "pointed_classes",
                 "unpointed_classes", "class_representatives", "automorphism_orders")

    def __init__(self, size: int, class_representatives: tuple, automorphism_orders: tuple):
        pointed = sum(size // aut for aut in automorphism_orders)
        values = (size, pointed * math.factorial(size - 1), pointed,
                  len(class_representatives), class_representatives, automorphism_orders)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("CensusReport is immutable")

    def normal_representatives(self) -> list:
        """The representatives whose automorphism group is arc-transitive
        (|Aut| = size): the normal subgroups of the classified group."""
        return [d for d, aut in zip(self.class_representatives, self.automorphism_orders)
                if aut == self.size]


def _still_tied(rot, pre, inv, tied):
    """The bases of `tied` that still relabel the partial structure to its
    own prefix, or None when one of them relabels it to a smaller one.

    Each base is labeled breadth-first with [rot, rot^-1, inv] as in the
    canonical search, up to the first unset entry it needs; entry i of its
    rot array is compared with the structure's own rot[i] while that is
    set, and once the rot arrays tie in full its inv array with the
    structure's own.  A smaller entry cuts the branch, a larger one settles
    the base for the whole subtree (it is dropped), and a base that reaches
    an unset entry, or ties in full, stays tied.  An entry of `tied` is the
    state where its search stopped: the unset entry array[index], the
    position i, the order and the labels.  Set entries never change below a
    node, so the search resumes at position i (its labeling steps are
    idempotent) once that entry is set.  The order and labels of an entry
    are never written once it is made: an advance copies them on its first
    new label and writes the copies, so an advance that labels no new arc
    keeps the old lists, and the sibling branches share them.
    """
    kept = []
    for entry in tied:
        blocker, index, i, order, label = entry
        if blocker[index] < 0:
            kept.append(entry)
            continue
        shared = True  # order and label are still the entry's, not copies
        size = len(order)
        sign = 0
        while i < size:
            x = order[i]
            y = rot[x]
            if y < 0:
                blocker, index = rot, x
                break
            r = label[y]
            if r < 0:
                if shared:
                    order, label, shared = order[:], label[:], False
                r = label[y] = size
                order.append(y)
                size += 1
            own = rot[i]
            if r != own:
                if own >= 0:
                    sign = r - own
                blocker, index = rot, i
                break
            y = pre[x]
            if y < 0:
                blocker, index = pre, x
                break
            if label[y] < 0:
                if shared:
                    order, label, shared = order[:], label[:], False
                label[y] = size
                order.append(y)
                size += 1
            y = inv[x]
            if y < 0:
                blocker, index = inv, x
                break
            if label[y] < 0:
                if shared:
                    order, label, shared = order[:], label[:], False
                label[y] = size
                order.append(y)
                size += 1
            i += 1
        else:  # every entry is set and the rot arrays tie: compare inv
            new_inv = [label[inv[x]] for x in order]
            if new_inv != inv:
                sign = -1 if new_inv < inv else 1
        if sign < 0:
            return None
        if sign == 0:
            kept.append((blocker, index, i, order, label))
    return kept


def _walk(n: int, trivalent: bool, pruned: bool, rejected: bool = True) -> list:
    """The backtracking walk behind the census: the list of its leaves in
    walk order, one (rot, inv, aut) triple each, rot and inv the image
    tuples in canonical labeling from arc 0 and aut = |Aut| of a canonical
    leaf, 0 for a rejected one (left out unless `rejected`).  Pruned, it
    cuts every branch that a base b >= 1 already relabels to a smaller
    prefix, and the leaves with aut > 0 are the class representatives.
    Unpruned, it tests no base, so it cuts nothing and every leaf has aut
    1: one rigid structure per pointed class."""
    if n < 1:
        raise CensusSizeError("size must be >= 1, got %d" % n)
    rot = [-1] * n
    pre = [-1] * n
    inv = [-1] * n
    stages = ((rot, pre), (pre, rot), (inv, inv))
    leaves = []

    def join(a, stage, used, tied):
        while True:
            if stage == 3:
                a, stage = a + 1, 0
                if a == used < n:     # a dead end: the discovered arcs close off short of n
                    return
                tied = _still_tied(rot, pre, inv, tied)
                if a == used:         # a leaf: all n arcs are expanded
                    aut = 0 if tied is None else len(tied) + 1
                    if aut or rejected:
                        leaves.append((tuple(rot), tuple(inv), aut))
                    return
                if tied is None:
                    return
            fwd, bwd = stages[stage]
            if fwd[a] == -1:
                break
            stage += 1
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
            join(a, stage + 1, used + (b == used), tied)
            fwd[a] = -1
            bwd[b] = -1

    tied = []
    if pruned:
        for b in range(1, n):
            label = [-1] * n
            label[b] = 0
            tied.append((rot, b, 0, [b], label))
    join(0, 0, 1, tied)
    # `join` refers to itself through its closure: clearing the cell breaks
    # that cycle, so the leaves die with the caller's last reference rather
    # than at the next cyclic collection
    del join
    return leaves


def pointed_structures(n: int, trivalent: bool = True):
    """Yield (rot, inv) image tuples, one per pointed isomorphism class of
    connected diagrams on n arcs, each in canonical labeling: the leaves of
    the unpruned walk."""
    return ((rot, inv) for rot, inv, _ in _walk(n, trivalent, pruned=False))


def enumerate_size(n: int, trivalent: bool = True) -> CensusReport:
    """Construct all connected diagrams of size n.

    Walks the pruned tree, which collects only the leaves with aut > 0,
    each the representative of its unpointed class (canonical augmentation,
    decided by the pruning test, which also gives its |Aut|), and sorts them
    by canonical code; the report derives its counts from them.  Raises for
    sizes below 1 or beyond the cap.
    """
    cap = CENSUS_CAP_TRIVALENT if trivalent else CENSUS_CAP_GENERAL
    if n > cap:
        raise CensusSizeError("census size %d exceeds the cap %d" % (n, cap))
    kept = _walk(n, trivalent, pruned=True, rejected=False)
    # a kept structure is its own canonical form, so its code is `_encode`
    # of its arrays: "n;" (the same for all) and then this key
    digits = [str(i) for i in range(n)]
    kept.sort(key=lambda leaf: ",".join(map(digits.__getitem__, leaf[0])) + ";"
              + ",".join(map(digits.__getitem__, leaf[1])))
    return CensusReport(n, tuple(_trusted_diagram(rot, inv) for rot, inv, _ in kept),
                        tuple(aut for _, _, aut in kept))
