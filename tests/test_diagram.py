"""Tests for the diagram model and its decision procedures."""

import itertools
import random

import pytest

from trivalent.diagram import (
    BicoloredGraph,
    Diagram,
    DiagramParseError,
    MorphismConflict,
    _trusted_diagram,
    PointedDiagram,
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
from trivalent.selftest import brute_isomorphic

TERMINAL = Diagram([0], [0])                      # one arc: the whole group
INDEX2 = Diagram([0, 1], [1, 0])                  # the unique index-2 subgroup
CYCLE3 = Diagram([1, 2, 0], [0, 1, 2])            # one trivalent vertex, 3 legs
# the two normal size-6 diagrams (level-2 subgroup and commutator subgroup)
NORMAL6_A = Diagram([1, 2, 0, 4, 5, 3], [3, 4, 5, 0, 1, 2])
NORMAL6_B = Diagram([1, 2, 0, 5, 3, 4], [3, 4, 5, 0, 1, 2])


def pointed(d, base=0):
    return PointedDiagram(d, base)


def brute_force_morphism_exists(src, base_src, dst, base_dst):
    """Oracle: search all base-point-preserving equivariant maps directly."""
    n, m = src.n, dst.n
    for images in itertools.product(range(m), repeat=n):
        if images[base_src] != base_dst:
            continue
        if all(
            images[src.rot[a]] == dst.rot[images[a]]
            and images[src.inv[a]] == dst.inv[images[a]]
            for a in range(n)
        ):
            return True
    return False


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


@pytest.mark.parametrize("trivalent, n", [(True, 8), (False, 6)], ids=["trivalent", "general"])
def test_trusted_diagram_equals_the_validated_one(trivalent, n):
    for rot, inv in pointed_structures(n, trivalent):
        trusted, checked = _trusted_diagram(rot, inv), Diagram(rot, inv)
        assert type(trusted) is Diagram
        assert trusted == checked and hash(trusted) == hash(checked)
        assert (trusted.n, trusted.rot, trusted.inv) == (checked.n, checked.rot, checked.inv)
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
    assert not brute_force_morphism_exists(TERMINAL, 0, INDEX2, 0)
    conflict = pointed_morphism_conflict(pointed(TERMINAL), pointed(INDEX2))
    assert isinstance(conflict, MorphismConflict)
    # the conflict re-checks against the inputs: applying the generator to
    # the arc maps target_arc to `required`, but the map had `existing`
    gen = {"rot": (TERMINAL.rot, INDEX2.rot), "inv": (TERMINAL.inv, INDEX2.inv)}
    g_src, g_dst = gen[conflict.generator]
    m = conflict.partial_map
    assert g_src[conflict.arc] == conflict.target_arc
    assert m[conflict.target_arc] == conflict.existing
    assert g_dst[m[conflict.arc]] == conflict.required
    assert conflict.existing != conflict.required


def test_identity_morphism():
    p = pointed(NORMAL6_A, 2)
    assert pointed_morphism(p, p) == tuple(range(6))


def test_morphism_matches_brute_force_on_small_pairs():
    diagrams = [TERMINAL, INDEX2, CYCLE3, Diagram([1, 2, 0, 3], [3, 1, 2, 0])]
    for d1 in diagrams:
        for d2 in diagrams:
            for b1 in range(d1.n):
                for b2 in range(d2.n):
                    m = pointed_morphism(pointed(d1, b1), pointed(d2, b2))
                    assert (m is not None) == brute_force_morphism_exists(d1, b1, d2, b2)
                    if m is not None:
                        assert m[b1] == b2
                        for a in range(d1.n):  # closure soundness, exhaustively
                            assert m[d1.rot[a]] == d2.rot[m[a]]
                            assert m[d1.inv[a]] == d2.inv[m[a]]


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
        assert pointed_morphism(pointed(NORMAL6_A, 0), pointed(INDEX2, b)) is not None
        assert brute_force_morphism_exists(NORMAL6_A, 0, INDEX2, b)
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
    for d in (CYCLE3, NORMAL6_A, NORMAL6_B):
        brute = [
            perm
            for perm in itertools.permutations(range(d.n))
            if all(
                perm[d.rot[a]] == d.rot[perm[a]] and perm[d.inv[a]] == d.inv[perm[a]]
                for a in range(d.n)
            )
        ]
        assert sorted(automorphisms(d)) == sorted(brute)


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
    cover = selftest.random_cover(psl5, 2, random.Random(6765))
    selftest.check_automorphism_orbits([psl5, psl7, cover])
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
    for d in (TERMINAL, INDEX2, CYCLE3, NORMAL6_A, NORMAL6_B):
        parsed, base = parse_diagram_text(d.to_text())
        assert parsed == d and base is None
    p = pointed(NORMAL6_B, 4)
    parsed, base = parse_diagram_text(p.to_text())
    assert parsed == NORMAL6_B and base == 4


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
    ("n=2; n=2", "duplicate field 'n'", 1, 6),
    ("n=x; rot=[]; inv=[]", "field 'n' is not an integer: 'x'", 1, 1),
    ("n=2; rot=0,1; inv=[1,0]", "field 'rot' must be a bracketed list", 1, 6),
    ("n=2; rot=[0,1]; inv=[1,1]", "inv is not a permutation: image 1 repeated", 1, 6),
    ("n=0; rot=[]; inv=[]", "a diagram needs at least one arc", 1, 6),
    ("\n\n  n=1;rot=[0];inv=[0];\n  bogus", "expected key=value, got 'bogus'", 4, 3),
    ("n=2;\nrot=[0,0];\ninv=[1,0]", "rot is not a permutation: image 0 repeated", 2, 1),
]


def test_parse_errors_carry_position():
    for text, message, line, column in PARSE_ERRORS:
        with pytest.raises(DiagramParseError) as info:
            parse_diagram_text(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == "%s (line %d, column %d)" % (message, line, column)


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
