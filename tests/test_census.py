"""Tests for the brute-force census."""

import gc
import hashlib
import math

import pytest

from trivalent import census
from trivalent.census import (
    CENSUS_CAP_GENERAL,
    CENSUS_CAP_TRIVALENT,
    _walk,
    enumerate_size,
    pointed_structures,
)
from trivalent.diagram import (
    Diagram,
    _encode,
    automorphisms,
    canonical_code,
    canonical_representative,
    is_normal,
    parse_diagram_text,
)
from trivalent.selftest import brute_canonical_form, brute_relabeling, brute_transitive_pairs

# `_still_tied` calls the pruned walk makes per size, one per arc node it
# reaches: fewer would mean a sharper rule, more that a branch a smaller
# base already settles is no longer cut
TIE_TESTS = {
    True: [1, 2, 11, 30, 34, 81, 132, 146, 329, 597, 739, 1629],
    False: [1, 6, 20, 71, 206, 615, 1749, 5321],
}


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


@pytest.mark.parametrize("trivalent, max_size", [(True, 10), (False, 7)],
                         ids=["trivalent", "general"])
def test_unpruned_walk_leaves_are_rigid(trivalent, max_size):
    # unpruned, the walk tests no base, so it cuts nothing and every leaf
    # is a rigid pointed structure; `pointed_structures` is its (rot, inv)
    for n in range(1, max_size + 1):
        leaves = list(_walk(n, trivalent, pruned=False))
        assert all(aut == 1 for _, _, aut in leaves)
        assert list(pointed_structures(n, trivalent)) == [(rot, inv) for rot, inv, _ in leaves]


@pytest.mark.parametrize("trivalent", [True, False], ids=["trivalent", "general"])
def test_pruned_walk_cuts_only_non_canonical_structures(monkeypatch, trivalent):
    original = census._still_tied
    calls = 0

    def counted(rot, pre, inv, tied):
        nonlocal calls
        calls += 1
        return original(rot, pre, inv, tied)

    monkeypatch.setattr(census, "_still_tied", counted)
    walks, counts = [], []
    for n in range(1, len(TIE_TESTS[trivalent]) + 1):
        calls = 0
        walks.append([(rot, inv) for rot, inv, _ in _walk(n, trivalent, pruned=True)])
        counts.append(calls)
    assert counts == TIE_TESTS[trivalent]
    # each walk is the unpruned stream, in the same order, minus every
    # structure that is not its diagram's canonical form
    for n, leaves in enumerate(walks, 1):
        assert leaves == [s for s in pointed_structures(n, trivalent)
                          if canonical_code(Diagram(*s)) == _encode(n, *s)]


def _advance_from_scratch(rot, pre, inv, b):
    """Base b's breadth-first relabeling, as far as the set entries reach:
    (sign, state), the sign < 0 when it relabels the structure to a smaller
    prefix, > 0 to a larger one, and 0 while it ties, with its state
    (i, order, label)."""
    order, label = [b], [-1] * len(rot)
    label[b] = 0
    for i, x in enumerate(order):
        for k, y in enumerate((rot[x], pre[x], inv[x])):
            if y < 0:
                return 0, (i, order, label)
            if label[y] < 0:
                label[y] = len(order)
                order.append(y)
            if k == 0 and label[y] != rot[i]:
                return (0 if rot[i] < 0 else label[y] - rot[i]), (i, order, label)
    new_inv = [label[inv[x]] for x in order]
    return (new_inv > inv) - (new_inv < inv), (len(order), order, label)


@pytest.mark.parametrize("trivalent, max_size", [(True, 10), (False, 7)],
                         ids=["trivalent", "general"])
def test_tie_test_resumes_where_a_fresh_advance_stops(monkeypatch, trivalent, max_size):
    # each tie state resumes where its base stopped at the node above; it
    # must end where the same base, advanced from scratch, ends
    original = census._still_tied
    nodes = 0

    def checked(rot, pre, inv, tied):
        nonlocal nodes
        fresh = [_advance_from_scratch(rot, pre, inv, order[0]) for _, order, _ in tied]
        result = original(rot, pre, inv, tied)
        if any(sign < 0 for sign, _ in fresh):
            assert result is None
        else:
            assert result == [state for sign, state in fresh if sign == 0]
        nodes += 1
        return result

    monkeypatch.setattr(census, "_still_tied", checked)
    for n in range(1, max_size + 1):
        _walk(n, trivalent, pruned=True)
    assert nodes > 0


@pytest.mark.parametrize("trivalent, max_size", [(True, 10), (False, 7)],
                         ids=["trivalent", "general"])
def test_tie_test_never_writes_the_states_it_is_given(monkeypatch, trivalent, max_size):
    # sibling branches share the order and labels of each tied base, so an
    # advance must write only its own copies of them
    original = census._still_tied
    nodes = 0

    def checked(rot, pre, inv, tied):
        nonlocal nodes
        before = [(entry[1][:], entry[2][:]) for entry in tied]
        result = original(rot, pre, inv, tied)
        assert [(entry[1], entry[2]) for entry in tied] == before
        nodes += 1
        return result

    monkeypatch.setattr(census, "_still_tied", checked)
    for n in range(1, max_size + 1):
        list(_walk(n, trivalent, pruned=True))
    assert nodes > 0


def test_walk_leaves_no_cyclic_garbage():
    # the walk's recursive closure refers to itself; left as a cycle, it
    # would keep every collected leaf alive until a cyclic collection
    gc.collect()
    gc.disable()
    try:
        enumerate_size(8, trivalent=False)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


@pytest.mark.parametrize("n, digest", [
    (8, "b94d6d1bbb683472023add6fcf1ddc7fc9279e707d2444660d4137bec7ebf2e8"),
    (9, "a622acd8820aaa5514edf8c035865b645f620e2290a9aa4b108b6719dfbfac43"),
])
def test_general_flavor_listing_is_pinned(n, digest):
    # the representatives and their order, as `to_text` lines
    reps = enumerate_size(n, trivalent=False).class_representatives
    text = "\n".join(d.to_text() for d in reps)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


def test_general_size_10_census_is_pinned():
    # the representatives in listing order, as `to_text` lines, and their
    # |Aut| at the largest general size, the one the benchmark runs
    report = enumerate_size(10, trivalent=False)
    text = "\n".join(d.to_text() for d in report.class_representatives)
    orders = ",".join(map(str, report.automorphism_orders))
    assert (hashlib.sha256(text.encode("ascii")).hexdigest()
            == "cc6a57da34b4ce7964e8e55471e870a9a43ceefc304842610f6a61cbdc2293e6")
    assert (hashlib.sha256(orders.encode("ascii")).hexdigest()
            == "150ae22b5d2096ee2e263239c86d3491a23e717b0ac7e7c79169439e8ded854b")


def test_census_keeps_one_tuple_per_distinct_array():
    # the general size-10 representatives share their arrays: one tuple per
    # distinct rot array and per distinct inv array, not one per class
    reps = enumerate_size(10, trivalent=False).class_representatives
    assert len(reps) == 5916
    assert len({id(d.rot) for d in reps}) == len({d.rot for d in reps}) == 470
    assert len({id(d.inv) for d in reps}) == len({d.inv for d in reps}) == 895


def test_general_flavor_representative_properties():
    for n in range(1, 6):
        report = enumerate_size(n, trivalent=False)
        for d in report.class_representatives:
            for a in range(d.n):
                assert d.inv[d.inv[a]] == a


@pytest.mark.parametrize("trivalent, max_size", [(False, 8)], ids=["general"])
def test_orbit_stabilizer_count_equals_the_unpruned_stream(trivalent, max_size):
    # the pruned walk counts n/|Aut| pointed classes per representative;
    # the unpruned walk yields every pointed class once (`selftest quick`
    # compares the two to trivalent size 12 and general size 7)
    for n in range(1, max_size + 1):
        stream = sum(1 for _ in pointed_structures(n, trivalent))
        assert enumerate_size(n, trivalent).pointed_classes == stream


@pytest.mark.parametrize("trivalent, max_size", [(True, 12), (False, 7)],
                         ids=["trivalent", "general"])
def test_automorphism_orders_and_normality_of_representatives(trivalent, max_size):
    for n in range(1, max_size + 1):
        report = enumerate_size(n, trivalent)
        assert len(report.automorphism_orders) == report.unpointed_classes
        assert report.unpointed_classes == len(report.class_representatives)
        assert report.pointed_classes == sum(n // aut for aut in report.automorphism_orders)
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
