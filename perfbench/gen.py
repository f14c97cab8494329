"""Seeded input generators. Everything they return is plain Python data
(relations, distance tables, object maps, category tables); the workloads
turn it into ``ecat`` objects inside the timed operation."""

from __future__ import annotations

import itertools
import random

from oracles import cost_plus, is_preorder


def all_preorders(n: int) -> list[set]:
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rel = {(x, x) for x in range(n)} | {p for p, b in zip(pairs, bits) if b}
        if is_preorder(rel, n):
            out.append(rel)
    return out


def random_preorder(rng: random.Random, n: int, density: float = 0.35) -> set:
    rel = {(x, x) for x in range(n)}
    rel |= {(x, y) for x in range(n) for y in range(n) if x != y and rng.random() < density}
    closed = False
    while not closed:
        closed = True
        for (a, b), (c, d) in itertools.product(list(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                closed = False
    return rel


def perturbed_relation(rng: random.Random, n: int) -> set:
    """A preorder with one pair toggled; usually no longer a preorder."""
    rel = random_preorder(rng, n)
    x, y = rng.randrange(n), rng.randrange(n)
    rel ^= {(x, y)}
    return rel


def random_cost_space(rng: random.Random, top: int, n: int) -> dict:
    """A distance table closed under the truncated triangle inequality."""
    d = {(x, y): 0 if x == y else rng.randint(0, top + 1) for x in range(n) for y in range(n)}
    changed = True
    while changed:
        changed = False
        for x, y, z in itertools.product(range(n), repeat=3):
            via = cost_plus(top, d[(x, y)], d[(y, z)])
            if d[(x, z)] > via:
                d[(x, z)] = via
                changed = True
    return d


def perturbed_cost_table(rng: random.Random, top: int, n: int) -> dict:
    """A cost space with one entry redrawn; often breaks the triangle."""
    d = random_cost_space(rng, top, n)
    x, y = rng.randrange(n), rng.randrange(n)
    d[(x, y)] = rng.randint(0, top + 1)
    return d


def random_category(rng: random.Random, max_objects: int = 4, max_hom: int = 3) -> tuple:
    """Free category on a random acyclic multigraph with at most ``max_hom``
    paths between any two objects, as (n, hom_size, identity, then) with
    morphisms written (src, dst, k). Cyclic monoids show up now and then so
    that non-trivial endomorphisms are covered."""
    if rng.random() < 0.15:
        k = rng.choice((2, 3))
        then = {((0, 0, a), (0, 0, b)): (0, 0, (a + b) % k) for a in range(k) for b in range(k)}
        return 1, {(0, 0): k}, {0: (0, 0, 0)}, then
    while True:
        n = rng.randint(1, max_objects)
        paths = {(i, j): ([()] if i == j else []) for i in range(n) for j in range(n)}
        too_many = False
        for j in range(n):
            for i in range(j - 1, -1, -1):
                for e in range(rng.randint(0, 2)):
                    # edge (i, j, e) extends every path ending at i
                    for h in range(i + 1):
                        paths[(h, j)] += [p + ((i, j, e),) for p in paths[(h, i)]]
                if any(len(paths[(h, j)]) > max_hom for h in range(n)):
                    too_many = True
                    break
            if too_many:
                break
        if not too_many:
            break
    index = {(i, j, p): k for (i, j), ps in paths.items() for k, p in enumerate(ps)}
    hom_size = {key: len(ps) for key, ps in paths.items()}
    identity = {i: (i, i, 0) for i in range(n)}
    then = {}
    for (i, j), ps in paths.items():
        for l in range(n):
            for k1, p in enumerate(ps):
                for k2, q in enumerate(paths[(j, l)]):
                    then[((i, j, k1), (j, l, k2))] = (i, l, index[(i, l, p + q)])
    return n, hom_size, identity, then
