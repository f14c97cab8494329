"""Known answers computed without the code under test.

Each oracle reads plain Python data (relations, distance tables, object maps)
or the text of a document, never an ``ecat`` object, so a wrong verdict from
the library cannot also make its own gate pass.
"""

from __future__ import annotations

import itertools
import re


def is_preorder(relation: set, n: int) -> bool:
    """Reflexive and transitive: the Bool enrichment laws on a relation."""
    if any((x, x) not in relation for x in range(n)):
        return False
    return all((x, z) in relation for (x, y) in relation for (y2, z) in relation if y == y2)


def cost_plus(top: int, a: int, b: int) -> int:
    """Truncated addition on {0..top, inf}, with inf written as top + 1."""
    s = a + b
    return s if s <= top else top + 1


def cost_hom(top: int, a: int, b: int) -> int:
    """Internal hom [a, b]: the least x with x + a >= b, truncated."""
    return min(x for x in range(top + 2) if cost_plus(top, x, a) >= b)


def is_cost_space(top: int, d: dict, n: int) -> bool:
    """Zero self-distance and the triangle inequality, truncated at top:
    d(x,z) <= d(x,y) + d(y,z) where sums past top are infinite."""
    if any(d[(x, x)] != 0 for x in range(n)):
        return False
    return all(
        d[(x, z)] <= cost_plus(top, d[(x, y)], d[(y, z)])
        for x, y, z in itertools.product(range(n), repeat=3)
    )


def is_monotone(ob_map: tuple, rel1: set, rel2: set) -> bool:
    """An object map between preorders is a Bool-enriched functor iff it is
    monotone."""
    return all((ob_map[x], ob_map[y]) in rel2 for (x, y) in rel1)


def cost_presheaf_count(top: int, d: dict, n: int) -> int:
    """Number of enriched functors op(X) -> self(cost(top)) for a cost space X.

    For a thin base such a functor is a value P(x) per point with an arrow
    d(y,x) -> [P(x), P(y)], that is d(y,x) + P(x) >= P(y); it is the object
    count of the presheaf category that the Yoneda embedding lands in.
    """
    return sum(
        1
        for P in itertools.product(range(top + 2), repeat=n)
        if all(cost_plus(top, d[(y, x)], P[x]) >= P[y] for x in range(n) for y in range(n))
    )


def bool_presheaf_count(relation: set, n: int) -> int:
    """Enriched functors op(P) -> self(Bool) are the down-closed subsets."""
    return sum(
        1
        for S in itertools.product((0, 1), repeat=n)
        if all(S[x] >= S[y] for (x, y) in relation)
    )


def iso_classes(n: int, arrow) -> int:
    """Rezk object count: classes of x ~ y iff arrows both ways, for a
    reflexive, transitive predicate ``arrow`` on 0..n-1."""
    reps = []
    for x in range(n):
        if not any(arrow(x, r) and arrow(r, x) for r in reps):
            reps.append(x)
    return len(reps)


# ---------------------------------------------------------------------------
# reading documents as text
# ---------------------------------------------------------------------------

_BLOCK = re.compile(r"^(\w+) (\S+)(?: : (\S+) -> (\S+)| over (\S+)| on (\S+))? \{\n(.*?)^\}", re.M | re.S)
_OBJECTS = re.compile(r"^  objects (\d+)$", re.M)
_HOM = re.compile(r"^  hom \((\d+),(\d+)\) = (\d+)$", re.M)
_OB = re.compile(r"^  ob (\d+) = (\d+)$", re.M)


def blocks(text: str) -> list[dict]:
    """The table blocks of a document, in order: kind, name, and for a
    functor its domain and codomain names, plus the raw body."""
    out = []
    for m in _BLOCK.finditer(text):
        out.append({"kind": m.group(1), "name": m.group(2), "dom": m.group(3),
                    "cod": m.group(4), "body": m.group(7)})
    return out


def enrichment_shape(body: str) -> tuple[int, dict]:
    """Object count and underlying hom sizes of an enrichment block."""
    n = int(_OBJECTS.search(body).group(1))
    homs = {(int(x), int(y)): int(k) for x, y, k in _HOM.findall(body)}
    return n, homs


def functor_ob_map(body: str) -> dict:
    return {int(x): int(y) for x, y in _OB.findall(body)}


def thin_weak_equivalence(n1: int, hom1: dict, n2: int, hom2: dict, ob: dict) -> bool:
    """A functor between thin categories is a weak equivalence iff it
    reflects arrows (fully faithful) and every object is isomorphic to an
    image object (essentially surjective)."""
    def arr(h, x, y):
        return h.get((x, y), 0) > 0

    ff = all(arr(hom1, x, y) == arr(hom2, ob[x], ob[y]) for x in range(n1) for y in range(n1))
    eso = all(
        any(arr(hom2, ob[x], y) and arr(hom2, y, ob[x]) for x in range(n1)) for y in range(n2)
    )
    return ff and eso


def monotone_map_count(n1: int, hom1: dict, n2: int, hom2: dict) -> int:
    """Functors between thin categories: maps preserving every arrow."""
    return sum(
        1
        for g in itertools.product(range(n2), repeat=n1)
        if all(hom2.get((g[x], g[y]), 0) > 0 for (x, y), k in hom1.items() if k > 0)
    )
