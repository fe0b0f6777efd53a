"""Tests for the brute-force census."""

import hashlib
import math

import pytest

from trivalent.census import (
    CENSUS_CAP_GENERAL,
    CENSUS_CAP_TRIVALENT,
    _walk,
    enumerate_normal,
    enumerate_size,
    pointed_structures,
)
from trivalent.diagram import (
    Diagram,
    _encode,
    automorphism_order,
    automorphisms,
    canonical_code,
    canonical_representative,
    is_normal,
    parse_diagram_text,
)
from trivalent.selftest import (
    brute_canonical_form,
    brute_relabeling,
    brute_transitive_pairs,
    check_census_vs_brute,
)

# pointed and unpointed class counts per size, from the exhaustive tables
TRIVALENT_POINTED = [1, 1, 4, 8, 5, 22, 42, 40, 120]
TRIVALENT_UNPOINTED = [1, 1, 2, 2, 1, 8, 6, 7, 14]

# leaves the pruned walk reaches per size: fewer would mean a sharper rule,
# more that a branch a smaller base already settles is no longer cut
PRUNED_LEAVES = {
    True: [1, 1, 3, 8, 2, 14, 21, 8, 46, 97, 46, 221],
    False: [1, 3, 6, 19, 39, 109, 279, 878],
}


def test_trivalent_counts_to_size_9():
    for n in range(1, 10):
        report = enumerate_size(n)
        assert report.pointed_classes == TRIVALENT_POINTED[n - 1]
        assert report.unpointed_classes == TRIVALENT_UNPOINTED[n - 1]
        assert report.labelled_connected == report.pointed_classes * math.factorial(n - 1)


def test_labelled_counts_match_naive_mode():
    # the brute-force count of transitive pairs is the independent oracle
    # for the backtracking enumerator
    check_census_vs_brute(6, 0)


def test_general_labelled_counts_match_naive_mode():
    check_census_vs_brute(0, 5)


def test_general_counts_small():
    # frozen from the naive oracle (previous test covers the derivation)
    pointed = [enumerate_size(n, trivalent=False).pointed_classes for n in range(1, 7)]
    unpointed = [enumerate_size(n, trivalent=False).unpointed_classes for n in range(1, 7)]
    assert pointed == [1, 3, 7, 23, 71, 255]
    assert unpointed == [1, 3, 3, 10, 15, 56]


def test_exponential_formula_reproduces_disconnected_counts():
    # exp of the connected EGF reconstructed from the census equals the
    # closed-form disconnected EGF
    from fractions import Fraction

    from trivalent.counting import disconnected_egf
    from trivalent.series import TruncSeries

    order = 8
    connected = [Fraction(0)] + [
        Fraction(enumerate_size(n).labelled_connected, math.factorial(n))
        for n in range(1, order + 1)
    ]
    assert TruncSeries(order, connected).exp() == disconnected_egf(order)


@pytest.mark.parametrize("trivalent", [True, False], ids=["trivalent", "general"])
def test_structures_are_canonically_labeled_and_distinct(trivalent):
    for n in range(1, 8 if trivalent else 7):
        seen = set()
        for rot, inv in pointed_structures(n, trivalent):
            assert (rot, inv) not in seen
            seen.add((rot, inv))
            d = Diagram(rot, inv)  # raises unless connected
            if trivalent:
                assert d.trivalent
            # labels must equal breadth-first discovery order from arc 0
            assert brute_relabeling(d, 0) == list(range(n))
            assert canonical_representative(d) == Diagram(*brute_canonical_form(d))


@pytest.mark.parametrize("trivalent, max_size", [(True, 10), (False, 6)],
                         ids=["trivalent", "general"])
def test_pruned_walk_keeps_exactly_the_canonical_structures(trivalent, max_size):
    # the augmentation rule against the canonical code, structure by
    # structure; a structure the walk cuts before its leaf counts as aut 0
    for n in range(1, max_size + 1):
        leaves = {(rot, inv): aut for rot, inv, aut in _walk(n, trivalent, pruned=True)}
        for rot, inv in pointed_structures(n, trivalent):
            d = Diagram(rot, inv)
            aut = leaves.get((rot, inv), 0)
            assert (aut > 0) == (canonical_code(d) == _encode(n, rot, inv))
            if aut > 0:
                assert aut == len(automorphisms(d))


@pytest.mark.parametrize("trivalent", [True, False], ids=["trivalent", "general"])
def test_pruned_walk_cuts_only_non_canonical_structures(trivalent):
    for n, count in enumerate(PRUNED_LEAVES[trivalent], 1):
        leaves = [(rot, inv) for rot, inv, _ in _walk(n, trivalent, pruned=True)]
        assert len(leaves) == count
        stream = list(pointed_structures(n, trivalent))
        kept = set(leaves)
        # the same walk, in the same order, minus the cut branches
        assert [s for s in stream if s in kept] == leaves
        for rot, inv in stream:
            if (rot, inv) not in kept:
                assert canonical_code(Diagram(rot, inv)) != _encode(n, rot, inv)


def test_representatives_properties():
    for n in range(1, 8):
        report = enumerate_size(n)
        codes = set()
        for d in report.class_representatives:
            assert d.n == n
            assert d.trivalent
            codes.add(canonical_code(d))
            parsed, base = parse_diagram_text(d.to_text())
            assert parsed == d and base is None
        assert len(codes) == report.unpointed_classes


def test_representatives_sorted_by_code():
    reps = enumerate_size(6).class_representatives
    codes = [canonical_code(d) for d in reps]
    assert codes == sorted(codes)


@pytest.mark.parametrize("n, digest", [
    (8, "b94d6d1bbb683472023add6fcf1ddc7fc9279e707d2444660d4137bec7ebf2e8"),
    (9, "a622acd8820aaa5514edf8c035865b645f620e2290a9aa4b108b6719dfbfac43"),
])
def test_general_flavor_listing_is_pinned(n, digest):
    # the representatives and their order, as `to_text` lines
    reps = enumerate_size(n, trivalent=False).class_representatives
    text = "\n".join(d.to_text() for d in reps)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


def test_general_flavor_representative_properties():
    for n in range(1, 6):
        report = enumerate_size(n, trivalent=False)
        for d in report.class_representatives:
            for a in range(d.n):
                assert d.inv[d.inv[a]] == a


def test_size4_is_two_classes_of_four_pointings():
    report = enumerate_size(4)
    assert report.pointed_classes == 8
    assert report.unpointed_classes == 2
    # 8 subgroups in two classes of four: both representatives are rigid,
    # so each class carries size/|Aut| = 4 pointings
    for d in report.class_representatives:
        assert automorphism_order(d) == 1


def test_orbit_stabilizer_invariants_on_all_small_representatives():
    for n in range(1, 8):
        for d in enumerate_size(n).class_representatives:
            order = automorphism_order(d)
            assert n % order == 0
            assert is_normal(d) == (order == n)


def test_pointings_per_class_sum_to_pointed_count():
    # size/|Aut| pointings per class, summed over classes, gives the
    # pointed class count
    for n in range(1, 9):
        report = enumerate_size(n)
        total = sum(n // automorphism_order(d) for d in report.class_representatives)
        assert total == report.pointed_classes


@pytest.mark.parametrize("trivalent, max_size", [(True, 12), (False, 8)],
                         ids=["trivalent", "general"])
def test_orbit_stabilizer_count_equals_the_unpruned_stream(trivalent, max_size):
    # the pruned walk counts n/|Aut| pointed classes per representative;
    # the unpruned walk yields every pointed class once
    for n in range(1, max_size + 1):
        stream = sum(1 for _ in pointed_structures(n, trivalent))
        assert enumerate_size(n, trivalent).pointed_classes == stream


@pytest.mark.parametrize("trivalent, max_size", [(True, 12), (False, 7)],
                         ids=["trivalent", "general"])
def test_automorphism_orders_and_normality_of_representatives(trivalent, max_size):
    for n in range(1, max_size + 1):
        report = enumerate_size(n, trivalent)
        assert len(report.automorphism_orders) == report.unpointed_classes
        normal = []
        for d, aut in zip(report.class_representatives, report.automorphism_orders):
            assert aut == len(automorphisms(d))
            assert (aut == n) == is_normal(d)
            if is_normal(d):
                normal.append(d)
        assert report.normal_representatives() == normal


@pytest.mark.parametrize("n, trivalent, digest", [
    (8, False, "82f74da608afd7560f33ddd051d7dc56e06622ec2faaf31b1f19161df55e5c55"),
    (9, False, "26cc8758ef804dcbd6812d16864ee6572d4f6a7f96aa3f37941d82e01f251ac3"),
    (14, True, "b3d381fbcaed6490b07c87c7731ad404459a53d706045d6478ae34ee244a5546"),
])
def test_automorphism_orders_are_pinned(n, trivalent, digest):
    # |Aut| of each representative, in listing order, beyond the sizes that
    # the tests above check against `automorphisms`
    orders = enumerate_size(n, trivalent).automorphism_orders
    assert hashlib.sha256(",".join(map(str, orders)).encode("ascii")).hexdigest() == digest


def test_normal_counts():
    assert len(enumerate_normal(3)) == 1
    assert len(enumerate_normal(5)) == 0
    assert len(enumerate_normal(6)) == 2


def test_normal_size6_structure():
    normals = enumerate_normal(6)
    assert sorted(automorphism_order(d) for d in normals) == [6, 6]
    abelian = []
    for d in normals:
        maps = automorphisms(d)
        assert len(maps) == 6
        abelian.append(
            all(
                tuple(f[g[i]] for i in range(6)) == tuple(g[f[i]] for i in range(6))
                for f in maps
                for g in maps
            )
        )
    assert sorted(abelian) == [False, True]


def test_normal_representatives_pass_is_normal():
    for n in range(1, 8):
        report = enumerate_size(n)
        expected = [d for d in report.class_representatives if is_normal(d)]
        assert enumerate_normal(n) == expected


def test_cap_enforced():
    with pytest.raises(ValueError):
        enumerate_size(CENSUS_CAP_TRIVALENT + 1)
    with pytest.raises(ValueError):
        enumerate_size(CENSUS_CAP_GENERAL + 1, trivalent=False)


def test_size_validation():
    with pytest.raises(ValueError):
        enumerate_size(0)
    with pytest.raises(ValueError):
        brute_transitive_pairs(0)


def test_larger_sizes_match_series():
    from trivalent.counting import conjugacy_class_series, subgroup_series

    pointed = subgroup_series(12).integer_coefficients()
    classes = conjugacy_class_series(12).integer_coefficients()
    for n in (10, 11, 12):
        report = enumerate_size(n)
        assert report.pointed_classes == pointed[n]
        assert report.unpointed_classes == classes[n]
