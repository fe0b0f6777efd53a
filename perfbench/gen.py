"""Seeded input generators for the benchmark.

Diagrams are plain (rot, inv) lists on arcs 0..n-1, independent of the
package's own classes, so the generators and the checkers that read them back
do not depend on the code under measurement.
"""

from __future__ import annotations

import random


def is_connected(rot, inv) -> bool:
    n = len(rot)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        a = stack.pop()
        for b in (rot[a], inv[a]):
            if not seen[b]:
                seen[b] = True
                count += 1
                stack.append(b)
    return count == n


def check_trivalent(rot, inv) -> None:
    """Raise ValueError unless (rot, inv) is a connected trivalent diagram."""
    n = len(rot)
    if len(inv) != n or sorted(rot) != list(range(n)) or sorted(inv) != list(range(n)):
        raise ValueError("rot and inv must be permutations of the same %d arcs" % n)
    for a in range(n):
        if inv[inv[a]] != a:
            raise ValueError("inv is not an involution at arc %d" % a)
        if rot[rot[rot[a]]] != a:
            raise ValueError("rot^3 != id at arc %d" % a)
    if not is_connected(rot, inv):
        raise ValueError("diagram is not connected")


def random_trivalent(n: int, rng: random.Random, fixed: int = 6, folded: int = 8,
                     attempts: int = 1000):
    """A random connected trivalent diagram on n arcs: `fixed` arcs are rot
    fixed points (degree-1 vertices) and the rest form 3-cycles.  Each
    degree-1 vertex hangs off a 3-cycle arc, `folded` other 3-cycle arcs are
    inv fixed points, and the remaining arcs are paired at random."""
    tri_arcs = n - fixed
    inner = tri_arcs - fixed - folded
    if tri_arcs % 3 or inner % 2 or inner < 0:
        raise ValueError("n - fixed must be divisible by 3 and n - folded even")
    if inner // 2 < tri_arcs // 3 - 1:
        raise ValueError("too few edges between the 3-cycles to connect them")
    for _ in range(attempts):
        arcs = list(range(n))
        rng.shuffle(arcs)
        leaves, tri = arcs[:fixed], arcs[fixed:]
        rot = list(range(n))
        for i in range(0, tri_arcs, 3):
            a, b, c = tri[i:i + 3]
            rot[a], rot[b], rot[c] = b, c, a
        rng.shuffle(tri)
        inv = list(range(n))
        pairs = list(zip(leaves, tri[:fixed]))
        rest = tri[fixed + folded:]
        pairs += zip(rest[0::2], rest[1::2])
        for a, b in pairs:
            inv[a], inv[b] = b, a
        if is_connected(rot, inv):
            return rot, inv
    raise ValueError("no connected diagram in %d attempts" % attempts)


def psl2_regular(p: int):
    """The regular diagram of PSL2(F_p), i.e. the diagram of the principal
    congruence subgroup Gamma(p): arcs are the group elements, inv is right
    multiplication by S = [[0,-1],[1,0]] and rot is right multiplication by
    ST = [[0,-1],[1,1]].  Arcs are numbered in breadth-first order from the
    identity."""

    def norm(m):
        neg = tuple(-x % p for x in m)
        return min(m, neg)

    def times(m, x):
        a, b, c, d = m
        e, f, g, h = x
        return norm(((a * e + b * g) % p, (a * f + b * h) % p,
                     (c * e + d * g) % p, (c * f + d * h) % p))

    s, st = (0, p - 1, 1, 0), (0, p - 1, 1, 1)
    label = {norm((1, 0, 0, 1)): 0}
    order = [norm((1, 0, 0, 1))]
    for m in order:
        for g in (s, st):
            y = times(m, g)
            if y not in label:
                label[y] = len(order)
                order.append(y)
    n = len(order)
    if n != p * (p * p - 1) // 2:
        raise ValueError("PSL2(F_%d) has %d elements, found %d" % (p, p * (p * p - 1) // 2, n))
    inv = [label[times(m, s)] for m in order]
    rot = [label[times(m, st)] for m in order]
    check_trivalent(rot, inv)
    if any(inv[a] == a or rot[a] == a for a in range(n)):
        raise ValueError("PSL2 action of S or ST has a fixed point")
    return rot, inv


def random_involution(k: int, rng: random.Random) -> list:
    """A random involution of 0..k-1 (some fixed points, the rest paired)."""
    pts = list(range(k))
    rng.shuffle(pts)
    pairs = rng.randrange(k // 2 + 1)
    out = list(range(k))
    for i in range(pairs):
        a, b = pts[2 * i], pts[2 * i + 1]
        out[a], out[b] = b, a
    return out


def random_cover(rot, inv, k: int, rng: random.Random, attempts: int = 100):
    """A random connected k-fold cover of a diagram: arc (a, i) is a*k + i.

    rot lifts trivially, (a, i) -> (rot a, i); inv lifts through a random
    permutation pi_a of the sheets with pi_{inv a} = pi_a^-1, and an
    involution on folded edges, so the lifted inv is again an involution and
    a -> a // k is a morphism onto the base diagram."""
    n = len(rot)
    for _ in range(attempts):
        pi = [None] * n
        for a in range(n):
            if pi[a] is not None:
                continue
            b = inv[a]
            if b == a:
                pi[a] = random_involution(k, rng)
            else:
                perm = list(range(k))
                rng.shuffle(perm)
                back = [0] * k
                for i, j in enumerate(perm):
                    back[j] = i
                pi[a], pi[b] = perm, back
        big_rot = [rot[a] * k + i for a in range(n) for i in range(k)]
        big_inv = [inv[a] * k + pi[a][i] for a in range(n) for i in range(k)]
        if is_connected(big_rot, big_inv):
            return big_rot, big_inv
    raise ValueError("no connected cover in %d attempts" % attempts)


def relabel(rot, inv, perm):
    """Conjugate both permutations by `perm`: arc a becomes perm[a]."""
    n = len(rot)
    new_rot = [0] * n
    new_inv = [0] * n
    for a in range(n):
        new_rot[perm[a]] = perm[rot[a]]
        new_inv[perm[a]] = perm[inv[a]]
    return new_rot, new_inv


def random_perm(n: int, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def to_text(rot, inv, base=None) -> str:
    text = "n=%d; rot=[%s]; inv=[%s]" % (
        len(rot), ",".join(map(str, rot)), ",".join(map(str, inv)))
    return text if base is None else "%s; base=%d" % (text, base)


def parse_text(text: str):
    """Read back `to_text` output (and the package's `Diagram.to_text`):
    returns (rot, inv, base or None)."""
    fields = {}
    for segment in text.split(";"):
        if segment.strip():
            key, _, value = segment.partition("=")
            fields[key.strip()] = "".join(value.split())

    def as_list(value):
        body = value[1:-1]
        return [int(x) for x in body.split(",")] if body else []

    rot, inv = as_list(fields["rot"]), as_list(fields["inv"])
    if int(fields["n"]) != len(rot):
        raise ValueError("n does not match the length of rot")
    base = int(fields["base"]) if "base" in fields else None
    return rot, inv, base
