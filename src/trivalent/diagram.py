"""Diagrams as finite sets of arcs with two permutations acting on them.

A diagram is a set of n arcs (numbered 0..n-1) together with a rotation
permutation `rot` (one step of the cyclic orientation around a vertex) and an
involution `inv` (reversal of an arc) that together act transitively: a
`Diagram` is connected by construction.  Vertices are the rot-orbits, edges
the inv-orbits; an inv-fixed arc is a folded (external) edge.  A diagram is
*trivalent* when rot has order dividing 3, i.e. every vertex has degree 1
or 3.

Diagrams pointed at a base arc classify finite-index subgroups of the group
generated by one element of infinite order and one involution (with the
trivalence constraint: of the modular group); forgetting the base point
classifies subgroups up to conjugacy.  This module implements the
decision procedures that make those classifications effective:

- inclusion as a base-point-preserving equivariant map (between equal arc
  counts, a pointed isomorphism), decided by closing the pair (base, base')
  under both generators and watching for conflicts; the closure assigns the
  orbit of base onto the orbit of base', so on two parsed files one closure
  that assigns every source arc and reaches every target arc also proves
  both connected;
- conjugacy as isomorphism, decided by equal canonical codes;
- normality as arc-transitivity of the automorphism group.

The canonical relabeling traverses arcs breadth-first from a base arc,
applying generators in the fixed order [rot, rot^-1, inv] (for trivalent
diagrams rot^-1 = rot^2, so this matches the declared trivalent order
[rot, rot^2, inv]); the code is the least relabeled pair over all bases,
comparing the whole rot array before the inv array.  That order is
normative for the text format: codes are comparable across implementations
only if the order matches.  The search prunes a base at the first rot entry
above the best so far, and a full tie with the best base is an automorphism
whose orbits it skips.  When some arc is rot-fixed, only those arcs can
start the least rot array, and a lockstep pass of O(n) entries picks the
first of them: the search costs that pass plus one full pass per
automorphism generator and per improvement of the best base.  Otherwise
every arc is a base, and the worst case is one full pass per base.

Automorphisms are pointed maps (d, 0) -> (d, a), and Aut acts freely on the
arcs, so |Aut| is the size of any Aut-orbit.  The bases that tie with the
best one form one Aut-orbit, and the search merges each into the best
base's union-find class or skips it within an examined tying base's class:
that class is the orbit, and `automorphism_order` counts it.  The orbit
algorithm serves normality only: it grows the orbit of arc 0 under the
automorphisms found so far, runs a closure only for an arc outside it, and
stops at the first failed closure.
"""

import json
from operator import itemgetter
from typing import NamedTuple, Optional


def _check_permutation(name: str, images, n: Optional[int] = None) -> tuple:
    """`images` as a tuple, a permutation of 0..n-1 (n its length by default)
    whose entries are all of type `int`: a bool, float or str is refused,
    never truncated."""
    images = tuple(images)
    if not {int}.issuperset(map(type, images)):
        raise ValueError("%s has a non-integer entry" % name)
    if n is None:
        n = len(images)
    elif len(images) != n:
        raise ValueError("%s must have %d entries, got %d" % (name, n, len(images)))
    if images and (min(images) < 0 or max(images) >= n or len(set(images)) < n):
        # not a permutation: name the first bad image
        seen = [False] * n
        for x in images:
            if not 0 <= x < n:
                raise ValueError("%s image %d out of range 0..%d" % (name, x, n - 1))
            if seen[x]:
                raise ValueError("%s is not a permutation: image %d repeated" % (name, x))
            seen[x] = True
    return images


def _check_arrays(rot, inv) -> tuple:
    """(rot, inv) as tuples, after every check of `Diagram` but connectivity:
    both permutations of the same n >= 1 arcs, inv an involution.
    `_parse_arrays` runs it only on arrays its C-speed passes refused."""
    rot = _check_permutation("rot", rot)
    n = len(rot)
    if n < 1:
        raise ValueError("a diagram needs at least one arc")
    inv = _check_permutation("inv", inv, n)
    for a in range(n):
        if inv[inv[a]] != a:
            raise ValueError("inv is not an involution (at arc %d)" % a)
    return rot, inv


def _transitive(rot, inv) -> bool:
    """True iff the permutations rot and inv of arcs 0..n-1 act transitively."""
    seen = bytearray(len(rot))
    seen[0] = 1
    reached = [0]
    append = reached.append
    for a in reached:  # the list grows while it is walked
        b = rot[a]
        if not seen[b]:
            seen[b] = 1
            append(b)
        b = inv[a]
        if not seen[b]:
            seen[b] = 1
            append(b)
    return len(reached) == len(rot)


class Diagram:
    """A set of arcs with a rotation permutation and an arc involution that
    together act transitively on it."""

    __slots__ = ("n", "rot", "inv")

    def __new__(cls, rot, inv):
        rot, inv = _check_arrays(rot, inv)
        if not _transitive(rot, inv):
            raise ValueError("diagram is not connected")
        return _trusted_diagram(rot, inv)

    def __setattr__(self, name, value):
        raise AttributeError("Diagram is immutable")

    @property
    def trivalent(self) -> bool:
        """True iff rot^3 = id: every vertex has degree 1 or 3."""
        rot = self.rot
        return all(rot[rot[rot[a]]] == a for a in range(self.n))

    def relabel(self, perm) -> "Diagram":
        """Conjugate both permutations by `perm` (arc i becomes perm[i]).
        Conjugation keeps permutations, the involution and transitivity, so
        only `perm` is checked."""
        perm = _check_permutation("perm", perm, self.n)
        rot = [0] * self.n
        inv = [0] * self.n
        for a in range(self.n):
            rot[perm[a]] = perm[self.rot[a]]
            inv[perm[a]] = perm[self.inv[a]]
        return _trusted_diagram(tuple(rot), tuple(inv))

    def to_text(self) -> str:
        return "n=%d; rot=[%s]; inv=[%s]" % (
            self.n,
            ",".join(map(str, self.rot)),
            ",".join(map(str, self.inv)),
        )

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.rot == other.rot and self.inv == other.inv

    def __hash__(self):
        return hash((self.rot, self.inv))

    def __repr__(self):
        return "Diagram(rot=%r, inv=%r)" % (list(self.rot), list(self.inv))


def _trusted_diagram(rot: tuple, inv: tuple) -> Diagram:
    """A `Diagram` on image tuples already known to be permutations, inv an
    involution, acting transitively: equal to `Diagram(rot, inv)`, built
    without re-checking them.  `Diagram.__new__` returns it after its checks,
    so this is the one place that sets a Diagram's fields."""
    d = object.__new__(Diagram)
    object.__setattr__(d, "n", len(rot))
    object.__setattr__(d, "rot", rot)
    object.__setattr__(d, "inv", inv)
    return d


class PointedDiagram:
    """A diagram with a distinguished base arc."""

    __slots__ = ("diagram", "base")

    def __init__(self, diagram: Diagram, base: int):
        if type(base) is not int:
            raise ValueError("base is not an integer: %r" % (base,))
        if not 0 <= base < diagram.n:
            raise ValueError("base arc %d out of range 0..%d" % (base, diagram.n - 1))
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "base", base)

    def __setattr__(self, name, value):
        raise AttributeError("PointedDiagram is immutable")

    def to_text(self) -> str:
        return "%s; base=%d" % (self.diagram.to_text(), self.base)


# ---------------------------------------------------------------------------
# text format


class DiagramParseError(ValueError):
    """Raised on malformed diagram text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class _Arrays(NamedTuple):
    """A parsed diagram file whose connectivity is not yet known: the
    checked permutation tuples, the base (None when absent), the line and
    column of the `rot` field, where a connectivity error points, and the
    table of int objects, one per arc, that a valid list is mapped onto."""

    rot: tuple
    inv: tuple
    base: Optional[int]
    line: int
    column: int
    arcs: tuple


def _check_connected(arrays: _Arrays) -> None:
    """Raise the parse error of a disconnected diagram unless `arrays` act
    transitively."""
    if not _transitive(arrays.rot, arrays.inv):
        raise DiagramParseError("diagram is not connected", arrays.line, arrays.column)


# the characters of list text that `_map_onto` parses at a time
_CHUNK = 16384


def _map_onto(value: str, table: tuple) -> Optional[tuple]:
    """The entries of the bracketed list text `value` as the int objects of
    `table`, or None unless they are one or more JSON values that index it:
    ints in 0..len(table)-1, or bools, which the caller excludes.

    The text is parsed at C speed one chunk at a time, cut at the first
    comma after each `_CHUNK` characters, so the int objects of one chunk
    are all the parse holds at once, not one per entry of the list.  On a
    list of ints every cut falls between two entries, so the chunks give
    the entries of the whole list; a cut inside a string or a nested value
    leaves a chunk that is not JSON, and then the list is refused."""
    mapped = []
    start, end = 1, len(value) - 1
    try:
        while start < end:
            stop = value.find(",", start + _CHUNK, end)
            if stop < 0:
                stop = end
            chunk = json.loads("[%s]" % value[start:stop])
            # an entry >= len(table) raises IndexError, a float, null, string,
            # list or object TypeError, as does an empty chunk; itemgetter of
            # one entry gives no tuple
            images = itemgetter(*chunk)(table)
            mapped.extend(images if len(chunk) > 1 else (images,))
            start = stop + 1
    except (ValueError, RecursionError, IndexError, TypeError):
        return None
    return tuple(mapped) if mapped else None


def _parse_arrays(text: str, arcs: tuple = ()) -> _Arrays:
    """Every check of `parse_diagram_text` but connectivity, which the
    caller owes before it builds a `Diagram` from the arrays (a base out of
    range is reported only after it, as the full parse does).  Each list is
    mapped onto one table of n int objects as soon as it is read, a chunk
    of text at a time (`_map_onto`), so the parsed file holds one int per
    arc, shared by both arrays, and the parse never holds one per entry of
    the list.  `arcs` is the table of an earlier file: this file's table is
    its first n ints, or all of them and new ones after, so the files of one
    decision share one int per arc; the result carries the table it used.
    Each field's text is kept in `values` until the field is parsed (a
    list's text is dropped then), and its offset in `offsets`, which every
    error that points at a field reads."""

    def position(offset):
        # 1-based line and column of the first non-space character at or
        # after offset
        while offset < len(text) and text[offset].isspace():
            offset += 1
        prefix = text[:offset]
        return prefix.count("\n") + 1, offset - prefix.rfind("\n")

    def error(message, offset):
        # messages echo the input, so a long one is cut
        if len(message) > 160:
            message = message[:150] + "..."
        return DiagramParseError(message, *position(offset))

    values, offsets = {}, {}
    offset = 0
    for segment in text.split(";"):
        seg_offset = offset
        offset += len(segment) + 1
        if not segment.strip():
            continue
        if "=" not in segment:
            raise error("expected key=value, got %r" % segment.strip(), seg_offset)
        key, _, value = segment.partition("=")
        key = key.strip()
        value = "".join(value.split())
        if key in values:
            raise error("duplicate field %r" % key, seg_offset)
        if key not in ("n", "rot", "inv", "base"):
            raise error("unknown field %r" % key, seg_offset)
        values[key], offsets[key] = value, seg_offset

    for required in ("n", "rot", "inv"):
        if required not in values:
            raise error("missing field %r" % required, len(text))

    def parse_json(value):
        # None unless the value is JSON; deep nesting is malformed input too
        try:
            return json.loads(value)
        except (ValueError, RecursionError):
            return None

    def parse_int(key):
        number = parse_json(values[key])
        if type(number) is not int:
            raise error("field %r is not an integer: %r" % (key, values[key]), offsets[key])
        return number

    table = None  # the file's one int object per arc, n of them by rot's length

    def parse_list(key):
        # the list's entries, mapped onto the arc table's int objects when
        # they are all ints in 0..n-1, or else left as JSON gives them for
        # the checks that name a fault (a list of the wrong length is
        # named by the length check after both lists are read)
        nonlocal table
        value = values.pop(key)
        if not (value.startswith("[") and value.endswith("]")):
            raise error("field %r must be a bracketed list" % key, offsets[key])
        if table is None:
            # a list of ints has one entry more than it has commas; any other
            # rot list is refused below, before the table is used
            size = value.count(",") + 1
            table = arcs[:size] if len(arcs) >= size else arcs + tuple(range(len(arcs), size))
        # every JSON value but an int >= 0 either has a "-" or an "e" (true,
        # false, a negative, an exponent) or fails `_map_onto`, so only a
        # list that fails here needs the type pass below; the one valid list
        # this leaves unmapped, with an entry written -0, gets the same
        # arrays from `_check_arrays`
        if "-" not in value and "e" not in value:
            mapped = _map_onto(value, table)
            if mapped is not None:
                return mapped
        entries = parse_json(value)
        if entries is None or not {int}.issuperset(map(type, entries)):
            raise error("field %r has a non-integer entry" % key, offsets[key])
        return entries

    n = parse_int("n")
    rot = parse_list("rot")
    inv = parse_list("inv")
    base = parse_int("base") if "base" in values else None
    if len(rot) != n or len(inv) != n:
        raise error("n=%d but rot has %d entries and inv has %d" % (n, len(rot), len(inv)),
                    offsets["n"])
    try:
        # with both lists mapped, rot is a permutation when its set has n
        # entries, and inv an involution (so a permutation) when inv of inv
        # is the identity; any other file goes to the checks that name a fault
        if not (type(rot) is type(inv) is tuple and len(set(rot)) == n
                and itemgetter(*inv)(inv) == table):
            rot, inv = _check_arrays(rot, inv)
    except ValueError as exc:
        # a fault of inv names inv first; every other fault points at rot
        key = "inv" if str(exc).startswith("inv ") else "rot"
        raise error(str(exc), offsets[key]) from None
    arrays = _Arrays(rot, inv, base, *position(offsets["rot"]), table)
    if base is not None and not 0 <= base < n:
        _check_connected(arrays)
        raise error("base=%d out of range 0..%d" % (base, n - 1), offsets["base"])
    return arrays


def parse_diagram_text(text: str):
    """Parse the normative text format.

    ``n=<int>; rot=[i0,...]; inv=[j0,...]`` with an optional ``; base=<int>``;
    every integer is a JSON integer (no sign but ``-``, no leading zero, no
    ``_``, ASCII digits only) and whitespace is insignificant everywhere.
    Returns (Diagram, base or None).
    """
    arrays = _parse_arrays(text)
    _check_connected(arrays)
    return _trusted_diagram(arrays.rot, arrays.inv), arrays.base


# ---------------------------------------------------------------------------
# pointed morphisms via closure


class MorphismConflict(NamedTuple):
    """Evidence that no pointed morphism exists.

    Applying `generator` to `arc` forces the image of `target_arc` to be
    `required_image`, but the closure had already fixed it to `existing_image`.
    Together with the partial map this is checkable directly against the two
    inputs; `_asdict()` is the CLI's `critical_pair` payload.
    """

    arc: int
    generator: str
    target_arc: int
    existing_image: int
    required_image: int
    partial_map: tuple


def _close(src: Diagram, a: int, dst: Diagram, b: int):
    """Close (a, b) under both generators.

    Returns (mapping, None) when no conflict arises, else
    (None, MorphismConflict).  The mapping assigns exactly the orbit of a
    (its other entries are -1) and its image is the orbit of b, so between
    `Diagram`s it is a full equivariant map; src and dst may also be the
    `_Arrays` of a parse, whose connectivity the mapping can then prove.
    Touches each src arc a bounded number of times, so it runs in
    O(src.n) generator applications.
    """
    src_rot, src_inv, dst_rot, dst_inv = src.rot, src.inv, dst.rot, dst.inv
    m = [-1] * len(src_rot)
    m[a] = b
    queue = [a]  # breadth-first: the list grows while it is walked
    append = queue.append
    for x in queue:
        mx = m[x]
        y = src_rot[x]
        image = dst_rot[mx]
        if m[y] < 0:
            m[y] = image
            append(y)
        elif m[y] != image:
            return None, MorphismConflict(x, "rot", y, m[y], image, tuple(m))
        y = src_inv[x]
        image = dst_inv[mx]
        if m[y] < 0:
            m[y] = image
            append(y)
        elif m[y] != image:
            return None, MorphismConflict(x, "inv", y, m[y], image, tuple(m))
    return tuple(m), None


def pointed_morphism(src: PointedDiagram, dst: PointedDiagram) -> Optional[tuple]:
    """The unique pointed equivariant map src -> dst as an image tuple,
    or None when the base pair is critical (no such map exists).

    The map exists iff the subgroup classified by `src` is contained in the
    one classified by `dst`: it runs from larger index to smaller.  Between
    equal arc counts such a map is bijective, so one closure decides pointed
    isomorphism (equality of the subgroups)."""
    m, _ = _close(src.diagram, src.base, dst.diagram, dst.base)
    return m


def pointed_morphism_conflict(src: PointedDiagram, dst: PointedDiagram):
    """The MorphismConflict witnessing non-existence, or None if a map exists."""
    _, conflict = _close(src.diagram, src.base, dst.diagram, dst.base)
    return conflict


# ---------------------------------------------------------------------------
# canonical codes, automorphisms, normality


def _find(parent: list, x: int) -> int:
    """Root of x's class in a union-find whose roots are the least arcs of
    their classes (with path compression)."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _merge_orbits(parent: list, pairs) -> None:
    """Join x with y for each (x, y) of `pairs`, all the arc pairs of a
    permutation, so that the classes of `parent` become the orbits of the
    group generated by the permutations merged so far; each class keeps its
    least arc as root."""
    for x, y in pairs:
        rx, ry = _find(parent, x), _find(parent, y)
        if rx < ry:
            parent[ry] = rx
        elif ry < rx:
            parent[rx] = ry


# The lockstep pass stops once its bases have emitted this many rot entries
# per arc.  At 2 it would leave bead rings (`selftest.bead_ring`) quadratic:
# their c leaves, on 4c + 3 arcs, separate only after 12 steps and 12c - 1
# entries.
_LOCKSTEP_BUDGET = 3


def _lockstep_winner(rot, rot_inv, inv, bases, parent: list) -> int:
    """The least of `bases` (in increasing order) still in the lead after
    advancing them together, one rot entry each per step (labeled as in
    `_canonical_form`), keeping the bases whose entry is least.  It stops
    when one base is left, after a full tie, or at n * `_LOCKSTEP_BUDGET`
    entries.  Each time n more entries were emitted, a closure tests whether
    an automorphism maps the first base in the lead onto the second; if one
    does, its orbits are merged into the union-find `parent` and the rest of
    the first base's class leaves the lead.  The first base stays the least
    arc of its class, as no arc of its orbit falls behind.
    """
    n = len(rot)
    alive = [({base: 0}, [base]) for base in bases]
    emitted = 0
    check = n  # the emitted count at which the next closure runs
    for i in range(n):
        if len(alive) == 1 or emitted >= _LOCKSTEP_BUDGET * n:
            break
        emitted += len(alive)
        entries = []
        for label, order in alive:
            x = order[i]
            y = rot[x]
            r = label.get(y)
            if r is None:
                r = label[y] = len(order)
                order.append(y)
            entries.append(r)
            y = rot_inv[x]
            if y not in label:
                label[y] = len(order)
                order.append(y)
            y = inv[x]
            if y not in label:
                label[y] = len(order)
                order.append(y)
        least = min(entries)
        alive = [state for state, r in zip(alive, entries) if r == least]
        if len(alive) > 1 and emitted >= check:
            check += n
            first = alive[0][1][0]
            d = _trusted_diagram(rot, inv)
            automorphism, _ = _close(d, first, d, alive[1][1][0])
            if automorphism is not None:
                _merge_orbits(parent, enumerate(automorphism))
                alive = alive[:1] + [state for state in alive[1:]
                                     if _find(parent, state[1][0]) != first]
    return alive[0][1][0]


def _canonical_form(rot, inv) -> tuple:
    """The (rot, inv) pair of the least relabeling over all base arcs of the
    diagram with these permutations, the union-find of the automorphism
    orbits found by the search, and the best base.

    Each base is labeled breadth-first with generators [rot, rot^-1, inv];
    entry i of its relabeled rot array, label[rot[order[i]]], is known as
    soon as order[i] is expanded, so a base is dropped at the first entry
    that exceeds the best array so far.  Inv arrays are compared only when
    the rot arrays tie.  A full tie with the best base is an automorphism
    best_order[j] -> order[j]; its orbits are merged into the union-find,
    whose roots are the least arcs of their classes, and a base that is not
    a root is skipped: its root is a smaller, hence examined, arc of its
    orbit, which yields the same arrays.

    Entry 0 is 0 exactly when rot fixes the base, so when some arc is
    rot-fixed only those arcs are bases, and automorphisms permute them.
    When there are several, the search visits the winner of
    `_lockstep_winner` first, with the orbits that pass merged, then the
    others in increasing order, so every class root is still visited before
    the rest of its class.  The cost is then O(n) for the lockstep pass,
    plus one full pass per automorphism generator and per improvement of
    the best base.  Without a rot-fixed arc every arc is a base, in arc
    order, and the worst case is one full pass per base.
    """
    n = len(rot)
    rot_inv = [0] * n
    for a, b in enumerate(rot):
        rot_inv[b] = a
    parent = list(range(n))  # union-find of the automorphism orbits
    bases = [a for a, b in enumerate(rot) if a == b]
    if len(bases) > 1:
        first = _lockstep_winner(rot, rot_inv, inv, bases, parent)
        bases = [first] + [a for a in bases if a != first]
    label = [-1] * n
    best_rot = best_inv = best_order = None
    for base in bases or range(n):
        if parent[base] != base:
            continue
        label[base] = 0
        order = [base]
        append = order.append
        new_rot = []
        tied = best_rot is not None
        for i, x in enumerate(order):
            y = rot[x]
            r = label[y]
            if r < 0:
                r = label[y] = len(order)
                append(y)
            if tied and r != best_rot[i]:
                if r > best_rot[i]:
                    break
                tied = False
            new_rot.append(r)
            y = rot_inv[x]
            if label[y] < 0:
                label[y] = len(order)
                append(y)
            y = inv[x]
            if label[y] < 0:
                label[y] = len(order)
                append(y)
        else:  # no entry exceeded the best: a full pass
            new_inv = [label[inv[x]] for x in order]
            if not tied or new_inv < best_inv:
                best_rot, best_inv, best_order = new_rot, new_inv, order
            elif new_inv == best_inv:  # the automorphism best_order[j] -> order[j]
                _merge_orbits(parent, zip(best_order, order))
        for x in order:
            label[x] = -1
    return tuple(best_rot), tuple(best_inv), parent, best_order[0]


def _encode(n: int, rot: tuple, inv: tuple) -> bytes:
    return ("%d;%s;%s" % (n, ",".join(map(str, rot)), ",".join(map(str, inv)))).encode("ascii")


def canonical_code(d: Diagram) -> bytes:
    """A complete isomorphism invariant of diagrams.

    Every base arc induces one relabeling (pointed diagrams are rigid, so it
    is well defined): arcs are numbered in breadth-first discovery order from
    the base, generators applied in the order [rot, rot^-1, inv].  The code
    is the serialization of the least relabeled pair, comparing the whole
    rot array first and the inv array only on a tie.  Two diagrams are
    isomorphic iff their codes are equal.

    The search emits each base's rot array one entry at a time and drops the
    base at the first entry above the best so far.  A full tie with the
    best base is an automorphism outside the group found so far (at most
    log2 |Aut| of them), and bases in the orbit of an examined base are
    skipped.  When some arc is rot-fixed, only those arcs are bases, and
    the cost is O(n) plus one full pass per automorphism generator and per
    improvement of the best base; otherwise the worst case is one full pass
    per base.
    """
    rot, inv, _, _ = _canonical_form(d.rot, d.inv)
    return _encode(d.n, rot, inv)


def canonical_representative(d: Diagram) -> Diagram:
    """The canonically relabeled isomorphic copy of `d` (same code)."""
    rot, inv, _, _ = _canonical_form(d.rot, d.inv)
    return _trusted_diagram(rot, inv)


def automorphisms(d: Diagram) -> list:
    """All automorphisms of a diagram, as image tuples.

    Each arc a with a pointed morphism (d, 0) -> (d, a) contributes exactly
    one; such a self-map is automatically bijective.  Runs all n closures;
    it is the reference that `automorphism_order` is tested against.
    """
    maps = []
    for a in range(d.n):
        m, _ = _close(d, 0, d, a)
        if m is not None:
            maps.append(m)
    return maps


def automorphism_order(d: Diagram) -> int:
    """|Aut(d)| from one canonical search: Aut acts freely on the arcs, so
    |Aut| is the size of the Aut-orbit of the best base; the bases that tie
    with it are that orbit, and `_canonical_form` gathers each into the
    best base's union-find class, merged or skipped, so this counts it."""
    _, _, parent, root = _canonical_form(d.rot, d.inv)
    return sum(_find(parent, x) == root for x in range(d.n))


def normality_conflict(d: Diagram) -> Optional[MorphismConflict]:
    """None when d is normal; otherwise the conflict of the closure of
    (0, a) for the smallest arc a that no automorphism reaches from arc 0
    (a is the conflict's partial_map[0]).

    The orbit algorithm: the closure of (0, a) runs only for an arc a that
    is the least of its class in a union-find of the orbits of the
    automorphisms found so far (at most log2 |Aut| of them, each outside
    the group of the earlier ones), and the first failure is returned.
    """
    parent = list(range(d.n))
    for a in range(1, d.n):
        if parent[a] != a:
            continue
        m, conflict = _close(d, 0, d, a)
        if m is None:
            return conflict
        _merge_orbits(parent, enumerate(m))
    return None


def is_normal(d: Diagram) -> bool:
    """True iff Aut(d) is transitive on arcs = the classified conjugacy class
    consists of a single normal subgroup."""
    return normality_conflict(d) is None


# ---------------------------------------------------------------------------
# barycentric subdivision export


def _orbit_numbers(perm) -> tuple:
    """(number, count): number[a] is the index of arc a's orbit under the
    permutation `perm` when the orbits are taken in the order of their least
    arcs, and count is the number of orbits."""
    number = [-1] * len(perm)
    count = 0
    for a in range(len(perm)):
        if number[a] < 0:
            while number[a] < 0:  # around the orbit, back to a
                number[a] = count
                a = perm[a]
            count += 1
    return number, count


class BicoloredGraph(NamedTuple):
    """A bipartite graph with black vertices (from diagram vertices) and
    white vertices (from edges), one graph edge per arc."""

    black_count: int
    white_count: int
    edges: tuple  # (black_index, white_index) per arc, in arc order

    def to_dot(self) -> str:
        lines = ["graph barycentric {"]
        for i in range(self.black_count):
            lines.append(
                '  b%d [shape=circle, style=filled, fillcolor=black, label=""];' % i
            )
        for j in range(self.white_count):
            lines.append('  w%d [shape=circle, label=""];' % j)
        for b, w in self.edges:
            lines.append("  b%d -- w%d;" % (b, w))
        lines.append("}")
        return "\n".join(lines) + "\n"


def barycentric_graph(d: Diagram) -> BicoloredGraph:
    """Insert a white vertex in the middle of every edge: black vertices are
    the rot-orbits, white vertices the inv-orbits, one edge per arc.  Both
    kinds are numbered in the order of their least arcs."""
    black_of, black_count = _orbit_numbers(d.rot)
    white_of, white_count = _orbit_numbers(d.inv)
    return BicoloredGraph(black_count, white_count, tuple(zip(black_of, white_of)))
