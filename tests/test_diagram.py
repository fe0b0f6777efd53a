"""Tests for the diagram model and its decision procedures."""

import random

import pytest

from trivalent.diagram import (
    Diagram,
    DiagramParseError,
    MorphismConflict,
    _trusted_diagram,
    PointedDiagram,
    _parse_arrays,
    automorphism_order,
    automorphisms,
    barycentric_graph,
    canonical_code,
    canonical_representative,
    is_normal,
    normality_conflict,
    parse_diagram_text,
    pointed_morphism,
    pointed_morphism_conflict,
)
from trivalent import selftest
from trivalent.census import enumerate_size, pointed_structures
from trivalent.selftest import brute_isomorphic, brute_isomorphisms

TERMINAL = Diagram([0], [0])                      # one arc: the whole group
INDEX2 = Diagram([0, 1], [1, 0])                  # the unique index-2 subgroup
CYCLE3 = Diagram([1, 2, 0], [0, 1, 2])            # one trivalent vertex, 3 legs
# the two normal size-6 diagrams (level-2 subgroup and commutator subgroup)
NORMAL6_A = Diagram([1, 2, 0, 4, 5, 3], [3, 4, 5, 0, 1, 2])
NORMAL6_B = Diagram([1, 2, 0, 5, 3, 4], [3, 4, 5, 0, 1, 2])


def pointed(d, base=0):
    return PointedDiagram(d, base)


# --- construction -------------------------------------------------------------


def test_valid_construction():
    assert TERMINAL.n == 1 and TERMINAL.trivalent
    assert INDEX2.trivalent
    d = Diagram([1, 2, 0], [0, 1, 2])
    assert d.trivalent


def test_rejects_non_permutations():
    with pytest.raises(ValueError):
        Diagram([1, 2, 2], [0, 1, 2])
    with pytest.raises(ValueError):
        Diagram([0, 1], [0, 3])
    with pytest.raises(ValueError):
        Diagram([], [])
    with pytest.raises(ValueError, match="^inv must have 2 entries, got 1$"):
        Diagram([0, 1], [0])


@pytest.mark.parametrize("build, message", [
    (lambda: Diagram(["1", "0"], [1.9, 0]), "rot has a non-integer entry"),
    (lambda: Diagram([0.7], [False]), "rot has a non-integer entry"),
    (lambda: Diagram([True, 0], [1, 0]), "rot has a non-integer entry"),
    (lambda: INDEX2.relabel([1.0, 0.2]), "perm has a non-integer entry"),
    (lambda: PointedDiagram(INDEX2, 0.5), "base is not an integer: 0.5"),
], ids=["strings-and-float", "float-and-bool", "bool", "relabel-floats", "float-base"])
def test_rejects_non_integer_entries(build, message):
    # entries are never truncated: 1.9 is not arc 1, True is not arc 1
    with pytest.raises(ValueError, match="^%s$" % message):
        build()


def test_rejects_non_involution():
    with pytest.raises(ValueError):
        Diagram([0, 1, 2], [1, 2, 0])


def test_rejects_trivalence_violation():
    # a vertex of degree 2 makes a valid diagram that is not trivalent
    d = Diagram([1, 0], [0, 1])
    assert not d.trivalent
    parsed, _ = parse_diagram_text("n=2;\nrot=[1,0];\ninv=[1,0]")
    assert not parsed.trivalent


def test_immutability():
    with pytest.raises(AttributeError):
        TERMINAL.n = 5


def test_pointed_diagram_and_census_report_are_immutable():
    p = pointed(INDEX2, 1)
    with pytest.raises(AttributeError):
        p.base = 0
    report = enumerate_size(4)
    with pytest.raises(AttributeError):
        report.unpointed_classes = 3
    assert (p.base, report.unpointed_classes) == (1, 2)


@pytest.mark.parametrize("trivalent, n", [(True, 8), (False, 6)], ids=["trivalent", "general"])
def test_trusted_diagram_equals_the_validated_one(trivalent, n):
    # `relabel` builds its result unchecked too
    rng = random.Random(n)
    for rot, inv in pointed_structures(n, trivalent):
        trusted, checked = _trusted_diagram(rot, inv), Diagram(rot, inv)
        assert type(trusted) is Diagram
        assert trusted == checked and hash(trusted) == hash(checked)
        assert (trusted.n, trusted.rot, trusted.inv) == (checked.n, checked.rot, checked.inv)
        # `__new__` takes any iterables and stores tuples
        built = Diagram(list(rot), iter(inv))
        assert built == trusted and hash(built) == hash(trusted)
        assert type(built.rot) is type(built.inv) is tuple
        relabeled = checked.relabel(rng.sample(range(n), n))
        assert Diagram(relabeled.rot, relabeled.inv) == relabeled
        assert type(relabeled.rot) is type(relabeled.inv) is tuple
    with pytest.raises(AttributeError):
        trusted.n = 5


# --- connectivity ---------------------------------------------------------------


def test_connectivity_examples():
    # a Diagram is connected by construction
    assert (INDEX2.n, NORMAL6_A.n) == (2, 6)
    with pytest.raises(ValueError, match="^diagram is not connected$"):
        Diagram([0, 1], [0, 1])


def test_pointed_requires_connected():
    with pytest.raises(ValueError):
        PointedDiagram(Diagram([0, 1], [0, 1]), 0)
    with pytest.raises(ValueError):
        PointedDiagram(TERMINAL, 1)


# --- pointed morphisms ----------------------------------------------------------


def test_everything_maps_to_terminal():
    for d in (INDEX2, CYCLE3, NORMAL6_A, NORMAL6_B):
        for base in range(d.n):
            assert pointed_morphism(pointed(d, base), pointed(TERMINAL)) == (0,) * d.n


def test_terminal_does_not_map_to_index2():
    assert pointed_morphism(pointed(TERMINAL), pointed(INDEX2)) is None
    assert selftest.brute_pointed_maps((TERMINAL.rot, TERMINAL.inv, 0),
                                       (INDEX2.rot, INDEX2.inv, 0)) == []
    conflict = pointed_morphism_conflict(pointed(TERMINAL), pointed(INDEX2))
    assert isinstance(conflict, MorphismConflict)
    # the conflict re-checks against the inputs: applying the generator to
    # the arc maps target_arc to `required_image`, but the map had
    # `existing_image`
    gen = {"rot": (TERMINAL.rot, INDEX2.rot), "inv": (TERMINAL.inv, INDEX2.inv)}
    g_src, g_dst = gen[conflict.generator]
    m = conflict.partial_map
    assert g_src[conflict.arc] == conflict.target_arc
    assert m[conflict.target_arc] == conflict.existing_image
    assert g_dst[m[conflict.arc]] == conflict.required_image
    assert conflict.existing_image != conflict.required_image


def test_identity_morphism():
    p = pointed(NORMAL6_A, 2)
    assert pointed_morphism(p, p) == tuple(range(6))


def test_morphism_matches_brute_force_on_small_pairs():
    diagrams = [TERMINAL, INDEX2, CYCLE3, Diagram([1, 2, 0, 3], [3, 1, 2, 0])]
    for d1 in diagrams:
        for d2 in diagrams:
            for b1 in range(d1.n):
                for b2 in range(d2.n):
                    # every map, exhaustively: at most one from a connected
                    # source, and the closure must find exactly that one
                    maps = selftest.brute_pointed_maps((d1.rot, d1.inv, b1),
                                                       (d2.rot, d2.inv, b2))
                    assert len(maps) <= 1
                    m = pointed_morphism(pointed(d1, b1), pointed(d2, b2))
                    assert m == (maps[0] if maps else None)


def test_morphism_is_equivariant_when_found():
    m = pointed_morphism(pointed(NORMAL6_A, 3), pointed(INDEX2, 1))
    assert m is not None
    for a in range(6):
        assert m[NORMAL6_A.rot[a]] == INDEX2.rot[m[a]]
        assert m[NORMAL6_A.inv[a]] == INDEX2.inv[m[a]]


def test_pointed_isomorphic_examples():
    # between equal arc counts a pointed morphism is a pointed isomorphism
    p = pointed(NORMAL6_B, 1)
    assert pointed_morphism(p, p) is not None
    # normal diagram: all pointings are pairwise isomorphic
    for a in range(3):
        for b in range(3):
            assert pointed_morphism(pointed(CYCLE3, a), pointed(CYCLE3, b)) is not None
    # the two size-3 classes are never pointed-isomorphic
    other3 = Diagram([1, 2, 0], [0, 2, 1])
    for a in range(3):
        for b in range(3):
            assert pointed_morphism(pointed(CYCLE3, a), pointed(other3, b)) is None


def test_antisymmetry_gives_mutually_inverse_maps():
    p1 = pointed(NORMAL6_A, 0)
    p2 = pointed(NORMAL6_A, 4)
    m12 = pointed_morphism(p1, p2)
    m21 = pointed_morphism(p2, p1)
    assert m12 is not None and m21 is not None
    assert all(m21[m12[a]] == a for a in range(6))
    assert all(m12[m21[a]] == a for a in range(6))


def test_subgroup_includes_examples():
    # inclusion is a pointed morphism from the larger index to the smaller:
    # every subgroup is contained in the whole group
    for d in (INDEX2, CYCLE3, NORMAL6_A):
        assert pointed_morphism(pointed(d), pointed(TERMINAL)) is not None
    # mutual inclusion only for isomorphic pointings
    p, q = pointed(NORMAL6_A, 0), pointed(NORMAL6_A, 4)
    assert pointed_morphism(p, q) is not None and pointed_morphism(q, p) is not None


def test_level2_subgroup_inside_index2():
    # NORMAL6_A is the level-2 subgroup; it lies inside the index-2 subgroup.
    # The index-2 diagram is normal, so both its pointings fix the same
    # subgroup and both admit the inclusion morphism.
    for b in range(2):
        m = pointed_morphism(pointed(NORMAL6_A, 0), pointed(INDEX2, b))
        assert m is not None
        assert selftest.brute_pointed_maps((NORMAL6_A.rot, NORMAL6_A.inv, 0),
                                           (INDEX2.rot, INDEX2.inv, b)) == [m]
    # and not conversely: index 2 does not include into index 6
    assert pointed_morphism(pointed(INDEX2, 0), pointed(NORMAL6_A, 0)) is None


# --- canonical codes -------------------------------------------------------------


def test_code_requires_connected():
    with pytest.raises(ValueError):
        canonical_code(Diagram([0, 1], [0, 1]))


def test_code_distinguishes_size6_normal_diagrams():
    assert canonical_code(NORMAL6_A) != canonical_code(NORMAL6_B)


def test_code_invariant_under_relabeling():
    rng = random.Random(404)
    for d in (INDEX2, CYCLE3, NORMAL6_A, NORMAL6_B):
        code = canonical_code(d)
        for _ in range(20):
            perm = list(range(d.n))
            rng.shuffle(perm)
            assert canonical_code(d.relabel(perm)) == code


def test_code_equality_matches_brute_force_isomorphism():
    pool = [
        CYCLE3,
        Diagram([1, 2, 0], [0, 2, 1]),
        NORMAL6_A,
        NORMAL6_B,
        Diagram([1, 2, 0, 4, 5, 3], [0, 3, 4, 1, 2, 5]),
    ]
    for d1 in pool:
        for d2 in pool:
            same_code = canonical_code(d1) == canonical_code(d2)
            assert same_code == brute_isomorphic(d1, d2)


def test_canonical_representative_is_isomorphic_with_same_code():
    rep = canonical_representative(NORMAL6_B)
    assert canonical_code(rep) == canonical_code(NORMAL6_B)
    assert brute_isomorphic(rep, NORMAL6_B)


def test_all_basepoint_relabelings_agree_for_cycle3():
    # |Aut| = 3: every basepoint yields the same relabeled pair
    codes = {selftest.brute_code_tuple(CYCLE3, base) for base in range(3)}
    assert len(codes) == 1
    assert automorphism_order(CYCLE3) == 3


def test_canonical_search_matches_exhaustive_oracle():
    selftest.check_canonical_search(random.Random(2584), (1, 2, 4, 9, 14, 100, 600), 2)


# --- automorphisms and normality --------------------------------------------------


def test_automorphism_order_examples():
    assert automorphism_order(TERMINAL) == 1
    assert automorphism_order(NORMAL6_A) == 6
    assert automorphism_order(NORMAL6_B) == 6
    # a size-4 diagram whose 4 pointings are pairwise inequivalent
    d4 = Diagram([1, 2, 0, 3], [3, 1, 2, 0])
    assert automorphism_order(d4) == 1


def test_automorphism_order_divides_size():
    for d in (TERMINAL, INDEX2, CYCLE3, NORMAL6_A, NORMAL6_B,
              Diagram([1, 2, 0, 3], [3, 1, 2, 0])):
        assert d.n % automorphism_order(d) == 0


def test_automorphisms_against_brute_force():
    # an automorphism is fixed by the image of arc 0, so both lists come
    # ordered by that image
    for d in (CYCLE3, NORMAL6_A, NORMAL6_B):
        assert automorphisms(d) == list(brute_isomorphisms(d, d))


def test_is_normal_examples():
    assert is_normal(INDEX2)
    assert is_normal(CYCLE3)
    assert not is_normal(Diagram([1, 2, 0], [0, 2, 1]))
    assert is_normal(NORMAL6_A) and is_normal(NORMAL6_B)


def test_normality_equals_full_automorphism_orbit():
    for d in (TERMINAL, INDEX2, CYCLE3, NORMAL6_A, NORMAL6_B,
              Diagram([1, 2, 0], [0, 2, 1]), Diagram([1, 2, 0, 3], [3, 1, 2, 0])):
        assert is_normal(d) == (automorphism_order(d) == d.n)


@pytest.mark.parametrize("flavor, max_size", [("trivalent", 9), ("general", 7)])
def test_orbit_algorithm_on_census_representatives(flavor, max_size):
    selftest.check_automorphism_orbits([
        d
        for n in range(1, max_size + 1)
        for d in enumerate_size(n, trivalent=flavor == "trivalent").class_representatives
    ])


def test_orbit_algorithm_on_psl2_diagrams_and_a_cover():
    psl5, psl7 = selftest.psl2_regular(5), selftest.psl2_regular(7)
    # `selftest quick` runs the orbit oracle on these three diagrams
    cover = selftest.random_cover(psl5, 2, random.Random(6765))
    assert (psl5.n, psl7.n) == (60, 168)
    assert automorphism_order(psl5) == 60 and is_normal(psl5)
    assert automorphism_order(psl7) == 168 and is_normal(psl7)
    assert cover.n == 120 and not is_normal(cover)
    # arc 1 lies in the orbit of arc 0, so the first closure that fails is at arc 2
    assert automorphism_order(cover) == 2
    assert normality_conflict(cover).partial_map[0] == 2


def test_conjugate_subgroups_examples():
    # conjugacy forgets the base point: normal vs non-normal size-3 classes
    # are not conjugate
    other3 = Diagram([1, 2, 0], [0, 2, 1])
    assert canonical_code(CYCLE3) != canonical_code(other3)


# --- text format -----------------------------------------------------------------


def test_text_roundtrip():
    # n = 1 and n = 2 included: itemgetter of a single entry gives no tuple
    for d in (TERMINAL, INDEX2, Diagram([1, 0], [0, 1]), CYCLE3, NORMAL6_A, NORMAL6_B):
        parsed, base = parse_diagram_text(d.to_text())
        assert parsed == d and base is None
        assert type(parsed.rot) is type(parsed.inv) is tuple
    for p in (pointed(TERMINAL), pointed(INDEX2, 1), pointed(NORMAL6_B, 4)):
        assert parse_diagram_text(p.to_text()) == (p.diagram, p.base)


def test_text_skips_empty_segments():
    for text in ("n=1; rot=[0]; inv=[0];", "n=1;; rot=[0]; inv=[0]"):
        assert parse_diagram_text(text) == (TERMINAL, None)


def test_text_whitespace_insensitive():
    text = " n = 2 ;\n rot = [ 0 , 1 ] ;\t inv=[1,0] ; base = 1 "
    d, base = parse_diagram_text(text)
    assert d == INDEX2 and base == 1


PARSE_ERRORS = [
    ("n=2; rot=[0,x]; inv=[1,0]", "field 'rot' has a non-integer entry", 1, 6),
    ("n=2; rot=[0,1]", "missing field 'inv'", 1, 15),
    ("n=3; rot=[0,1]; inv=[1,0]", "n=3 but rot has 2 entries and inv has 2", 1, 1),
    ("n=2; rot=[0,1]; inv=[1,0]; base=7", "base=7 out of range 0..1", 1, 28),
    ("n=2; rot=[0,1]; inv=[1,0]; color=red", "unknown field 'color'", 1, 28),
    ("n=2; rot=[0,0]; inv=[1,0]", "rot is not a permutation: image 0 repeated", 1, 6),
    ("n=2; rot=[-1,0]; inv=[0,1]", "rot image -1 out of range 0..1", 1, 6),
    ("n=2; n=2", "duplicate field 'n'", 1, 6),
    ("n=x; rot=[]; inv=[]", "field 'n' is not an integer: 'x'", 1, 1),
    ("n=2; rot=0,1; inv=[1,0]", "field 'rot' must be a bracketed list", 1, 6),
    ("n=2; rot=[0,1]; inv=[1,1]", "inv is not a permutation: image 1 repeated", 1, 17),
    ("n=2; rot=[0,1]; inv=[2,0]", "inv image 2 out of range 0..1", 1, 17),
    ("n=0; rot=[]; inv=[]", "a diagram needs at least one arc", 1, 6),
    ("\n\n  n=1;rot=[0];inv=[0];\n  bogus", "expected key=value, got 'bogus'", 4, 3),
    ("n=2;\nrot=[0,0];\ninv=[1,0]", "rot is not a permutation: image 0 repeated", 2, 1),
    # entries are JSON integers: no "+", leading zero, underscore or
    # non-ASCII digit, and any nesting depth is an input error
    ("n=2; rot=[+1,0]; inv=[0,1]", "field 'rot' has a non-integer entry", 1, 6),
    ("n=2; rot=[01,0]; inv=[0,1]", "field 'rot' has a non-integer entry", 1, 6),
    ("n=2; rot=[1_0,0]; inv=[0,1]", "field 'rot' has a non-integer entry", 1, 6),
    ("n=1; rot=[\u0660]; inv=[0]", "field 'rot' has a non-integer entry", 1, 6),
    ("n=2; rot=[true,0]; inv=[0,1]", "field 'rot' has a non-integer entry", 1, 6),
    ("n=2; rot=[1.0,0]; inv=[0,1]", "field 'rot' has a non-integer entry", 1, 6),
    ("n=2; rot=[1,0]; inv=[0,1]; base=+1", "field 'base' is not an integer: '+1'", 1, 28),
    ("n=1; rot=%s%s; inv=[0]" % ("[" * 200000, "]" * 200000),
     "field 'rot' has a non-integer entry", 1, 6),
]


def _chain(triangles):
    """rot and inv of a connected trivalent diagram: 3-cycles (3k, 3k+1,
    3k+2), arc 3k+1 paired with arc 3k+3, every other arc folded."""
    n = 3 * triangles
    rot = [a - 2 if a % 3 == 2 else a + 1 for a in range(n)]
    inv = list(range(n))
    for a in range(1, n - 3, 3):
        inv[a], inv[a + 2] = a + 2, a
    return rot, inv


def _planted(rot_edits, inv_edits):
    """The 3000-arc chain as text over three lines, with the edits applied;
    an edit is an arc or a raw JSON token."""
    rot, inv = _chain(1000)
    for a, b in rot_edits.items():
        rot[a] = b
    for a, b in inv_edits.items():
        inv[a] = b
    return "n=%d;\nrot=[%s];\ninv=[%s]" % (
        len(rot), ", ".join(map(str, rot)), ", ".join(map(str, inv)))


# one fault planted near the end of a large diagram
PARSE_ERRORS += [
    (_planted({2998: 3000}, {}), "rot image 3000 out of range 0..2999", 2, 1),
    (_planted({}, {2999: -1}), "inv image -1 out of range 0..2999", 3, 1),
    (_planted({}, {2999: 3000}), "inv image 3000 out of range 0..2999", 3, 1),
    # a negative entry must not wrap round to the arc it names from the end
    (_planted({2999: -3}, {}), "rot image -3 out of range 0..2999", 2, 1),
    (_planted({2999: "true"}, {}), "field 'rot' has a non-integer entry", 2, 1),
    (_planted({}, {2999: "1.5"}), "field 'inv' has a non-integer entry", 3, 1),
    (_planted({}, {2999: "[0]"}), "field 'inv' has a non-integer entry", 3, 1),
    (_planted({2999: 2998}, {}), "rot is not a permutation: image 2998 repeated", 2, 1),
    (_planted({}, {2999: 2998}), "inv is not a permutation: image 2998 repeated", 3, 1),
    (_planted({}, {2990: 2993, 2993: 2996, 2996: 2990}),
     "inv is not an involution (at arc 2990)", 3, 1),
    (_planted({}, {2995: 2995, 2997: 2997}), "diagram is not connected", 2, 1),
]


def test_parse_errors_carry_position():
    d, base = parse_diagram_text(_planted({}, {}))
    assert (d.n, base) == (3000, None)
    for text, message, line, column in PARSE_ERRORS:
        with pytest.raises(DiagramParseError) as info:
            parse_diagram_text(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == "%s (line %d, column %d)" % (message, line, column)


def test_parse_shares_one_int_per_arc():
    # both arrays hold the same n int objects, not one per entry of the text
    d, _ = parse_diagram_text(_planted({}, {}))
    assert (d.rot, d.inv) == tuple(map(tuple, _chain(1000)))
    assert len({id(a) for a in d.rot + d.inv}) == 3000


@pytest.mark.parametrize("first_size, second_size", [(1000, 1000), (1000, 400), (400, 1000)])
def test_parse_maps_a_second_file_onto_the_first_files_ints(first_size, second_size):
    # a relabeled copy parsed with the first file's table holds its int
    # objects; a larger copy adds new ones only above the first file's arcs
    first = _parse_arrays("n=%d; rot=%s; inv=%s" % (3 * first_size, *_chain(first_size)))
    rot, inv = _chain(second_size)
    perm = random.Random(second_size).sample(range(len(rot)), len(rot))
    new_rot, new_inv = [0] * len(rot), [0] * len(rot)
    for a in range(len(rot)):
        new_rot[perm[a]] = perm[rot[a]]
        new_inv[perm[a]] = perm[inv[a]]
    second = _parse_arrays("n=%d; rot=%s; inv=%s" % (len(rot), new_rot, new_inv), first.arcs)
    assert (second.rot, second.inv) == (tuple(new_rot), tuple(new_inv))
    assert second.arcs == tuple(range(len(rot)))
    for x in second.rot + second.inv:
        assert x is second.arcs[x]
        if x < len(first.arcs):
            assert x is first.arcs[x]


def _parse_outcome(text):
    try:
        arrays = _parse_arrays(text)
    except DiagramParseError as exc:
        return "error", str(exc)
    return "arrays", arrays, tuple(map(type, arrays.rot + arrays.inv))


def _refuse(*entries):
    raise IndexError("no C-speed pass")


def _faulty_text(rng):
    """A random diagram text (rot any permutation, inv any involution,
    connected or not), and the same text with one planted fault."""
    n = rng.choice([1, 2, 3, rng.randrange(4, 40), rng.randrange(40, 400)])
    rot = rng.sample(range(n), n)
    inv = list(range(n))
    order = rng.sample(range(n), n)
    for a, b in zip(order[0::2], order[1::2]):
        if rng.random() < 0.7:
            inv[a], inv[b] = b, a
    fields = {"n": n, "rot": rot, "inv": inv, "base": rng.randrange(n)}

    def text():
        return "n=%s; rot=[%s]; inv=[%s]; base=%s" % (
            fields["n"], ",".join(map(str, rot)), ",".join(map(str, inv)), fields["base"])

    clean = text()
    fault = rng.choice(["token", "length", "repeat", "involution", "base"])
    entries = rng.choice([rot, inv])
    a = rng.randrange(n)
    # inv stays a permutation when the images of a and b swap, and stops
    # being an involution when b is not fixed and a is neither b nor inv[b]
    moved = [b for b in range(n) if inv[b] != b] if n > 2 else []
    if fault == "token":
        entries[a] = rng.choice(["true", "null", "1.5", "[0]", '"1"', "01", "+1", "x", "1e3",
                                 entries[a] - n, entries[a] + n, -1, n + rng.randrange(9),
                                 10 ** 20, -10 ** 20])
    elif fault == "length":
        if rng.random() < 0.5:
            fields["n"] = rng.choice([n - 1, n + 1, 0, -n])
        elif rng.random() < 0.5 and n > 1:
            del entries[a]
        else:
            entries.insert(a, entries[a])
    elif fault == "repeat" and n > 1:
        entries[a] = entries[rng.choice([b for b in range(n) if b != a])]
    elif fault == "involution" and moved:
        b = rng.choice(moved)
        a = rng.choice([a for a in range(n) if a not in (b, inv[b])])
        inv[a], inv[b] = inv[b], inv[a]
    else:
        fields["base"] = rng.choice([n, n + 3, -1, "x", "1.0"])
    return clean, text()


def test_parse_matches_the_naming_path(monkeypatch):
    """On random texts, each with one planted fault, and on the same texts
    clean, `_parse_arrays` returns the same arrays or raises the same error
    as when every list is left to `_check_arrays`, which names each fault
    the way `_check_permutation` and the involution loop do on the lists
    `json.loads` gives."""
    rng = random.Random(27)
    texts = [text for _ in range(2000) for text in _faulty_text(rng)]
    fast = [_parse_outcome(text) for text in texts]
    # with itemgetter refused, no list is mapped and no C-speed pass runs
    monkeypatch.setattr("trivalent.diagram.itemgetter", _refuse)
    naming = [_parse_outcome(text) for text in texts]
    assert fast == naming
    assert all(outcome[0] == "error" for outcome in fast[1::2])
    assert sum(outcome[0] == "arrays" for outcome in fast[::2]) > 1000


@pytest.mark.parametrize("chunk", [1, 4, 9])
def test_parse_in_chunks_matches_the_naming_path(monkeypatch, chunk):
    """With lists cut every few characters, so that cuts fall beside and
    inside the planted tokens (some of them with commas of their own),
    `_parse_arrays` still returns the same arrays or raises the same error
    as the naming path, and maps a valid list in full."""
    rng = random.Random(chunk)
    texts = []
    for _ in range(300):
        clean, faulty = _faulty_text(rng)
        token = rng.choice(['"1,2"', "[0,1]", '{"a":0,"b":1}', "[[0],[1]]", "[]", "1,"])
        key = rng.choice(["rot=[", "inv=["])
        cut = clean.index(key) + len(key)
        cut = clean.index(",", cut) + 1 if rng.random() < 0.5 and "," in clean[cut:] else cut
        texts += [clean, faulty, clean[:cut] + token + "," + clean[cut:]]
    monkeypatch.setattr("trivalent.diagram._CHUNK", chunk)
    chunked = [_parse_outcome(text) for text in texts]
    big = _parse_arrays(_planted({}, {}))
    assert all(x is big.arcs[x] for x in big.rot + big.inv)
    monkeypatch.setattr("trivalent.diagram.itemgetter", _refuse)
    assert chunked == [_parse_outcome(text) for text in texts]
    assert all(outcome[0] == "error" for outcome in chunked[2::3])


# --- barycentric subdivision --------------------------------------------------------


def white_degrees(g):
    degrees = [0] * g.white_count
    for _, w in g.edges:
        degrees[w] += 1
    return degrees


def is_clean(g):
    """White degrees are 1 (folded edge) or 2; the coloring is proper by
    construction."""
    return all(1 <= deg <= 2 for deg in white_degrees(g))


def test_barycentric_terminal():
    g = barycentric_graph(TERMINAL)
    assert (g.black_count, g.white_count, len(g.edges)) == (1, 1, 1)
    assert is_clean(g)


def test_barycentric_index2():
    g = barycentric_graph(INDEX2)
    assert (g.black_count, g.white_count, len(g.edges)) == (2, 1, 2)
    assert white_degrees(g) == [2]
    assert is_clean(g)


def test_barycentric_two_vertex_seven_arc_example():
    # two vertices, five edges of which three are folded, hence seven arcs:
    # star(v1) = {3, 4, 6}, star(v2) = {0, 1, 2, 5}
    d = Diagram([1, 2, 5, 4, 6, 0, 3], [0, 1, 2, 5, 6, 3, 4])
    assert not d.trivalent
    g = barycentric_graph(d)
    assert (g.black_count, g.white_count, len(g.edges)) == (2, 5, 7)
    assert sorted(white_degrees(g)) == [1, 1, 1, 2, 2]
    assert is_clean(g)


def test_barycentric_always_clean_on_census_samples():
    from trivalent.census import enumerate_size

    for size in range(1, 7):
        for d in enumerate_size(size).class_representatives:
            assert is_clean(barycentric_graph(d))


def test_dot_output_shape():
    dot = barycentric_graph(INDEX2).to_dot()
    assert dot.startswith("graph barycentric {")
    assert dot.count("--") == 2
    assert 'fillcolor=black' in dot and dot.rstrip().endswith("}")
