"""Cartesian notions of structure and their monoidal categories.

A structured set is a pair (carrier size, structure value); structure values
are hashable and canonical under carrier relabeling. The category of
structured sets and structure-preserving maps is cartesian monoidal with the
literal pairing encoding (i, j) -> i*|Y| + j, under which unitors and
associators are identities. ``StructCat`` runs on the graph kernel
``finset.GraphBase`` and numbers each hom in one of its two ways.

``CartesianStructure.maps`` lists the structure-preserving graphs in
lexicographic order; ``MorRef`` indices into a hom, and the points of an
internal hom object, are positions in that list and depend on that order. A
free hom (``CartesianStructure.is_free``: a discrete poset source, or a
trivial structure) holds every graph, so that position equals ``graph_rank``:
free homs are ranked by arithmetic and never listed; constrained homs are
listed once per base instance. A hom object takes its points from its hom's
own listing (``StructCat.hom_graphs``), and ``hom_structure`` only puts the
structure value on them, so forming it lists no map again.

The materialized category quantifies checks over the canonical structures on
carriers up to the size cap; products of window objects are registered lazily
in an object halo. A hom of more than ``mor_bound`` candidate graphs (ny**nx),
free or not, raises WindowExceeded.

A structure's axioms depend only on its class: ``check_structure`` decides
them, and the test suite runs it on each structure here. A base does not
re-decide them when it is built; the kernel refuses, with StructuralError, any
graph it builds that is not one of its hom's listed maps.
"""

from __future__ import annotations

import itertools

from .finset import GraphBase, as_graph
from .report import CapabilityError, CheckReport, Collector, StructuralError, WindowExceeded


class CartesianStructure:
    """Structure sets, preservation predicate, unit and product structures."""

    name = "structure"
    has_sub = False
    has_hom_structure = False

    def structures(self, n: int) -> list:
        raise NotImplementedError

    def is_map(self, nx: int, sx, ny: int, sy, graph: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def maps(self, nx: int, sx, ny: int, sy) -> list[tuple[int, ...]]:
        """The structure-preserving graphs nx -> ny in lexicographic order;
        this filter is the reference that faster overrides must match."""
        return [
            g for g in itertools.product(range(ny), repeat=nx)
            if self.is_map(nx, sx, ny, sy, g)
        ]

    def is_free(self, nx: int, sx, ny: int, sy) -> bool:
        """True when every graph nx -> ny preserves the structure, so that
        ``maps`` would list all ny**nx graphs and a graph's position there
        is its ``graph_rank``. False, the default, is always safe."""
        return False

    def unit_structure(self):
        raise NotImplementedError

    def prod(self, nx: int, sx, ny: int, sy):
        raise NotImplementedError

    def relabel(self, n: int, s, perm: tuple[int, ...]):
        raise NotImplementedError

    def sub(self, n: int, s, positions: list[int]):
        """Induced structure on a subset, or None when unavailable."""
        return None

    def hom_structure(self, nx: int, sx, ny: int, sy, graphs: list[tuple[int, ...]]):
        """The structure value of the hom object whose points are ``graphs``,
        the hom's preserving maps in its own order (as ``maps`` lists them)."""
        raise CapabilityError(f"{self.name} has no internal homs")

    def canonical(self, n: int, s):
        best = None
        for perm in itertools.permutations(range(n)):
            cand = self.relabel(n, s, perm)
            if best is None or self._key(cand) < self._key(best):
                best = cand
        return best if best is not None else s

    def _key(self, s):
        return repr(s)


class TrivialStructure(CartesianStructure):
    """One structure per carrier, every map preserving: plain finite sets."""

    name = "trivial"
    has_sub = True
    has_hom_structure = True

    def structures(self, n):
        return [()]

    def is_map(self, nx, sx, ny, sy, graph):
        return True

    def is_free(self, nx, sx, ny, sy):
        return True

    def unit_structure(self):
        return ()

    def prod(self, nx, sx, ny, sy):
        return ()

    def relabel(self, n, s, perm):
        return ()

    def sub(self, n, s, positions):
        return ()

    def hom_structure(self, nx, sx, ny, sy, graphs):
        return ()


def _is_poset(n: int, rel: frozenset) -> bool:
    for i in range(n):
        if (i, i) not in rel:
            return False
    for (a, b) in rel:
        if (b, a) in rel and a != b:
            return False
        for (c, d) in rel:
            if b == c and (a, d) not in rel:
                return False
    return True


def _monotone_maps(nx: int, rx, ny: int, ry) -> list[tuple[int, ...]]:
    """The graphs g: nx -> ny with (g[i], g[j]) in ry for every (i, j) in rx,
    in lexicographic order. Prefixes grow one position at a time: position i
    takes the values that satisfy the pairs of rx whose larger end is i. As
    bitmasks over range(ny), that is the AND of ry's up-set of g[a] for each
    pair (a, i), its down-set of g[b] for each pair (i, b), and its reflexive
    points when (i, i) is a pair."""
    up = [sum(1 << v for v in range(ny) if (w, v) in ry) for w in range(ny)]
    down = [sum(1 << v for v in range(ny) if (v, w) in ry) for w in range(ny)]
    reflexive = sum(1 << v for v in range(ny) if (v, v) in ry)
    values_of: dict[int, list[int]] = {}
    prefixes: list[tuple[int, ...]] = [()]
    for i in range(nx):
        above = [a for a, b in rx if b == i and a < i]
        below = [b for a, b in rx if a == i and b < i]
        start = reflexive if (i, i) in rx else (1 << ny) - 1
        grown = []
        for g in prefixes:
            mask = start
            for a in above:
                mask &= up[g[a]]
            for b in below:
                mask &= down[g[b]]
            values = values_of.get(mask)
            if values is None:
                values = values_of[mask] = [v for v in range(ny) if mask >> v & 1]
            grown += [g + (v,) for v in values]
        prefixes = grown
    return prefixes


class PosetStructure(CartesianStructure):
    """Partial orders with monotone maps; value = frozenset of (i <= j) pairs."""

    name = "finposet"
    has_sub = True
    has_hom_structure = True

    def structures(self, n):
        diag = {(i, i) for i in range(n)}
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        out = []
        for bits in itertools.product((False, True), repeat=len(off)):
            rel = frozenset(diag | {p for p, b in zip(off, bits) if b})
            if _is_poset(n, rel):
                out.append(rel)
        return sorted(out, key=lambda r: sorted(r))

    def is_map(self, nx, sx, ny, sy, graph):
        return all((graph[i], graph[j]) in sy for (i, j) in sx)

    def maps(self, nx, sx, ny, sy):
        return _monotone_maps(nx, sx, ny, sy)

    def is_free(self, nx, sx, ny, sy):
        """A source relation of diagonal pairs only, into a reflexive target."""
        return all(a == b for a, b in sx) and all((v, v) in sy for v in range(ny))

    def unit_structure(self):
        return frozenset({(0, 0)})

    def prod(self, nx, sx, ny, sy):
        return frozenset(
            (i1 * ny + j1, i2 * ny + j2) for (i1, i2) in sx for (j1, j2) in sy
        )

    def relabel(self, n, s, perm):
        return frozenset((perm[i], perm[j]) for (i, j) in s)

    def sub(self, n, s, positions):
        pos = {v: i for i, v in enumerate(positions)}
        return frozenset(
            (pos[i], pos[j]) for (i, j) in s if i in pos and j in pos
        )

    def hom_structure(self, nx, sx, ny, sy, graphs):
        m = len(graphs)
        return frozenset(
            (a, b)
            for a in range(m)
            for b in range(m)
            if all((graphs[a][i], graphs[b][i]) in sy for i in range(nx))
        )

    def _key(self, s):
        return tuple(sorted(s))


class PointedPosetStructure(PosetStructure):
    """Posets with a least element; maps are monotone, not necessarily strict.

    The finite stand-in for pointed DCPOs with Scott-continuous maps. Value =
    (order relation, bottom element). Equalizer substructures exist only when
    the equalizing subset has a least element.
    """

    name = "finpointedposet"

    def structures(self, n):
        out = []
        for rel in super().structures(n):
            bottoms = [b for b in range(n) if all((b, j) in rel for j in range(n))]
            if bottoms:
                out.append((rel, bottoms[0]))
        return out

    def is_map(self, nx, sx, ny, sy, graph):
        return super().is_map(nx, sx[0], ny, sy[0], graph)

    def maps(self, nx, sx, ny, sy):
        return super().maps(nx, sx[0], ny, sy[0])

    def is_free(self, nx, sx, ny, sy):
        return super().is_free(nx, sx[0], ny, sy[0])

    def unit_structure(self):
        return (frozenset({(0, 0)}), 0)

    def prod(self, nx, sx, ny, sy):
        rel = super().prod(nx, sx[0], ny, sy[0])
        return (rel, sx[1] * ny + sy[1])

    def relabel(self, n, s, perm):
        return (super().relabel(n, s[0], perm), perm[s[1]])

    def sub(self, n, s, positions):
        rel = super().sub(n, s[0], positions)
        m = len(positions)
        bottoms = [b for b in range(m) if all((b, j) in rel for j in range(m))]
        if not bottoms:
            return None
        return (rel, bottoms[0])

    def hom_structure(self, nx, sx, ny, sy, graphs):
        rel = super().hom_structure(nx, sx[0], ny, sy[0], graphs)
        return (rel, graphs.index((sy[1],) * nx))

    def _key(self, s):
        return (tuple(sorted(s[0])), s[1])


def check_structure(S: CartesianStructure, cap: int) -> CheckReport:
    """Decide the cartesian-structure axioms on carriers up to the cap."""
    col = Collector()
    carriers = [(n, s) for n in range(cap + 1) for s in S.structures(n)]

    for n, s in carriers:
        ident = tuple(range(n))
        if not S.is_map(n, s, n, s, ident):
            col.add("identity-preserving", (n, S._key(s)))
        if not S.is_map(n, s, 1, S.unit_structure(), tuple(0 for _ in range(n))):
            col.add("terminal-map", (n, S._key(s)))

    for n in range(cap + 1):
        structs = S.structures(n)
        ident = tuple(range(n))
        for s in structs:
            for s2 in structs:
                if s != s2 and S.is_map(n, s, n, s2, ident) and S.is_map(n, s2, n, s, ident):
                    col.add("structure-antisymmetry", (n, S._key(s), S._key(s2)))

    maps = {
        (x, y): S.maps(nx, sx, ny, sy)
        for x, (nx, sx) in enumerate(carriers)
        for y, (ny, sy) in enumerate(carriers)
    }
    # a composite preserves the structure iff it is one of the maps x -> z
    preserving = {key: set(maps_xy) for key, maps_xy in maps.items()}
    # the product structure of each carrier pair, formed once
    prods = {
        (x, y): S.prod(nx, sx, ny, sy)
        for x, (nx, sx) in enumerate(carriers)
        for y, (ny, sy) in enumerate(carriers)
    }
    for (x, y), maps_xy in maps.items():
        (nx, sx), (ny, sy) = carriers[x], carriers[y]
        prod = prods[x, y]
        p1 = tuple(idx // ny for idx in range(nx * ny))
        p2 = tuple(idx % ny for idx in range(nx * ny))
        if not S.is_map(nx * ny, prod, nx, sx, p1):
            col.add("projection-1", (nx, ny))
        if not S.is_map(nx * ny, prod, ny, sy, p2):
            col.add("projection-2", (nx, ny))
        for z, (nz, sz) in enumerate(carriers):
            preserving_xz = preserving[x, z]
            for g in maps_xy:
                for h in maps[y, z]:
                    if tuple(map(h.__getitem__, g)) not in preserving_xz:
                        col.add("composition-closure", (nx, ny, nz, g, h))
            # pairing from X into Y x Z
            prod_yz = prods[y, z]
            for g2 in maps[x, z]:
                for g1 in maps_xy:
                    paired = tuple([a * nz + b for a, b in zip(g1, g2)])
                    if not S.is_map(nx, sx, ny * nz, prod_yz, paired):
                        col.add("pairing", (nx, ny, nz, g1, g2))
    return col.report()


class StructCat(GraphBase):
    """Monoidal category of structured sets, windowed at a carrier-size cap.

    Construction does not run ``check_structure``: every graph enters a hom
    through ``_rank``, which refuses one that is not a listed map, so an
    identity, composite, tensor, projection or pairing that breaks the
    axioms is refused where it is built."""

    #: The most candidate graphs (ny**nx) a hom may have; a larger hom raises WindowExceeded.
    mor_bound = 200_000

    def __init__(self, struct: CartesianStructure, size_cap: int):
        super().__init__()
        self.struct = struct
        self.size_cap = size_cap
        self.name = f"{struct.name}({size_cap})"
        self.n_objects = None
        self._objs: list[tuple[int, object]] = []
        self._index: dict = {}
        self._homs: dict = {}
        self._hom_index: dict = {}
        self._homobj: dict = {}
        self._tensor: dict = {}
        for n in range(size_cap + 1):
            for s in struct.structures(n):
                self._register(n, struct.canonical(n, s))
        self._window = len(self._objs)
        self.unit = self._register(1, struct.unit_structure())
        self.closed = struct.has_hom_structure
        self.has_equalizers = struct.has_sub

    def _register(self, n: int, value) -> int:
        key = (n, value)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self._objs)
            self._objs.append(key)
            self._index[key] = idx
        return idx

    def objects(self):
        return range(self._window)

    def contains_obj(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < len(self._objs)

    def obj_size(self, x: int) -> int:
        return self._objs[x][0]

    def obj_value(self, x: int):
        return self._objs[x][1]

    # -- homs --------------------------------------------------------------
    def _numbering(self, x: int, y: int) -> list[tuple[int, ...]] | None:
        """The preserving graphs x -> y in order, or None for a free hom,
        numbered by ``graph_rank``. The one place a hom (or hom object) is
        refused: WindowExceeded when ny**nx exceeds ``mor_bound``."""
        key = (x, y)
        if key in self._homs:
            return self._homs[key]
        nx, sx = self._objs[x]
        ny, sy = self._objs[y]
        space = ny ** nx
        if space > self.mor_bound:
            raise WindowExceeded(f"hom({x},{y}) enumeration of {space} graphs")
        got = None
        if not self.struct.is_free(nx, sx, ny, sy):
            got = self.struct.maps(nx, sx, ny, sy)
            self._hom_index[key] = {as_graph(g, ny): i for i, g in enumerate(got)}
        self._homs[key] = got
        return got

    def _rank(self, src: int, dst: int, graph) -> int:
        if self._numbering(src, dst) is None:
            return super()._rank(src, dst, graph)
        idx = self._hom_index[(src, dst)].get(graph)
        if idx is None:
            raise StructuralError(f"graph {tuple(graph)} is not structure-preserving {src} -> {dst}")
        return idx

    def _subobject(self, x: int, positions: list[int]) -> int:
        n, s = self._objs[x]
        sub = self.struct.sub(n, s, positions)
        if sub is None:
            raise CapabilityError("equalizing subset carries no structure (no least element)")
        return self._register(len(positions), sub)

    # -- monoidal and closed objects -------------------------------------------
    def tensor_obj(self, x, y):
        obj = self._tensor.get((x, y))
        if obj is None:
            nx, sx = self._objs[x]
            ny, sy = self._objs[y]
            obj = self._tensor[(x, y)] = self._register(nx * ny, self.struct.prod(nx, sx, ny, sy))
        return obj

    def hom_obj(self, y, z):
        obj = self._homobj.get((y, z))
        if obj is None:
            if not self.closed:
                raise CapabilityError(f"{self.name} has no closed structure")
            graphs = list(self.hom_graphs(y, z))
            ny, sy = self._objs[y]
            nz, sz = self._objs[z]
            value = self.struct.hom_structure(ny, sy, nz, sz, graphs)
            obj = self._homobj[(y, z)] = self._register(len(graphs), value)
        return obj
