"""Cartesian notions of structure and their monoidal categories.

A structured set is a pair (carrier size, structure value); structure values
are hashable and canonical under carrier relabeling. The category of
structured sets and structure-preserving maps is cartesian monoidal with the
literal pairing encoding (i, j) -> i*|Y| + j, under which unitors and
associators are identities.

``CartesianStructure.maps`` lists the structure-preserving graphs in
lexicographic order; ``MorRef`` indices into a hom, and the points of an
internal hom object, are positions in that list and depend on that order.

The materialized category quantifies checks over the canonical structures on
carriers up to the size cap; products of window objects are registered lazily
in an object halo. Hom enumerations beyond ``mor_bound`` raise WindowExceeded.
"""

from __future__ import annotations

import itertools

from .report import CapabilityError, CheckReport, Collector, StructuralError, WindowExceeded
from .vbase import EqualizerResult, MonBase, MorRef, ProductResult


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

    def unit_structure(self):
        raise NotImplementedError

    def prod(self, nx: int, sx, ny: int, sy):
        raise NotImplementedError

    def relabel(self, n: int, s, perm: tuple[int, ...]):
        raise NotImplementedError

    def sub(self, n: int, s, positions: list[int]):
        """Induced structure on a subset, or None when unavailable."""
        return None

    def hom_structure(self, nx: int, sx, ny: int, sy):
        """(lex-ordered preserving graphs, structure value) for the hom object."""
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

    def unit_structure(self):
        return ()

    def prod(self, nx, sx, ny, sy):
        return ()

    def relabel(self, n, s, perm):
        return ()

    def sub(self, n, s, positions):
        return ()

    def hom_structure(self, nx, sx, ny, sy):
        return self.maps(nx, sx, ny, sy), ()


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
    takes the values that satisfy the pairs of rx whose larger end is i
    (diagonal included), cached per tuple of the earlier positions they name."""
    prefixes: list[tuple[int, ...]] = [()]
    for i in range(nx):
        pairs = [(a, b) for a, b in rx if max(a, b) == i]
        earlier = sorted({p for pair in pairs for p in pair} - {i})
        allowed: dict[tuple, list[int]] = {}
        grown = []
        for g in prefixes:
            key = tuple(map(g.__getitem__, earlier))
            if key not in allowed:
                allowed[key] = [
                    v for v in range(ny)
                    if all((t[a], t[b]) in ry for t in [g + (v,)] for a, b in pairs)
                ]
            grown += [g + (v,) for v in allowed[key]]
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

    def hom_structure(self, nx, sx, ny, sy):
        graphs = _monotone_maps(nx, sx, ny, sy)
        m = len(graphs)
        rel = frozenset(
            (a, b)
            for a in range(m)
            for b in range(m)
            if all((graphs[a][i], graphs[b][i]) in sy for i in range(nx))
        )
        return graphs, rel

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

    def hom_structure(self, nx, sx, ny, sy):
        graphs, rel = super().hom_structure(nx, sx[0], ny, sy[0])
        return graphs, (rel, graphs.index((sy[1],) * nx))

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
    for (x, y), maps_xy in maps.items():
        (nx, sx), (ny, sy) = carriers[x], carriers[y]
        prod = S.prod(nx, sx, ny, sy)
        p1 = tuple(idx // ny for idx in range(nx * ny))
        p2 = tuple(idx % ny for idx in range(nx * ny))
        if not S.is_map(nx * ny, prod, nx, sx, p1):
            col.add("projection-1", (nx, ny))
        if not S.is_map(nx * ny, prod, ny, sy, p2):
            col.add("projection-2", (nx, ny))
        for z, (nz, sz) in enumerate(carriers):
            for g in maps_xy:
                for h in maps[y, z]:
                    if not S.is_map(nx, sx, nz, sz, tuple(h[v] for v in g)):
                        col.add("composition-closure", (nx, ny, nz, g, h))
            # pairing from X into Y x Z
            prod_yz = S.prod(ny, sy, nz, sz)
            for g2 in maps[x, z]:
                for g1 in maps_xy:
                    paired = tuple(g1[i] * nz + g2[i] for i in range(nx))
                    if not S.is_map(nx, sx, ny * nz, prod_yz, paired):
                        col.add("pairing", (nx, ny, nz, g1, g2))
    return col.report()


class StructCat(MonBase):
    """Monoidal category of structured sets, windowed at a carrier-size cap."""

    symmetric = True
    has_products = True

    def __init__(self, struct: CartesianStructure, size_cap: int, mor_bound: int = 200_000):
        report = check_structure(struct, size_cap)
        if not report.ok:
            raise StructuralError(
                f"structure axioms fail: {report.failures[0].law} at {report.failures[0].instance}"
            )
        self.struct = struct
        self.size_cap = size_cap
        self.mor_bound = mor_bound
        self.name = f"{struct.name}({size_cap})"
        self.n_objects = None
        self._objs: list[tuple[int, object]] = []
        self._index: dict = {}
        self._homs: dict = {}
        self._hom_index: dict = {}
        self._homobj: dict = {}
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
    def _hom_graphs(self, x: int, y: int) -> list[tuple[int, ...]]:
        key = (x, y)
        got = self._homs.get(key)
        if got is None:
            nx, sx = self._objs[x]
            ny, sy = self._objs[y]
            space = ny ** nx if nx > 0 else 1
            if space > self.mor_bound:
                raise WindowExceeded(f"hom({x},{y}) enumeration of {space} graphs")
            got = self.struct.maps(nx, sx, ny, sy)
            self._homs[key] = got
            self._hom_index[key] = {g: i for i, g in enumerate(got)}
        return got

    def hom_size(self, x, y):
        return len(self._hom_graphs(x, y))

    def graph(self, m: MorRef) -> tuple[int, ...]:
        hs = self._hom_graphs(m.src, m.dst)
        if not (0 <= m.k < len(hs)):
            raise StructuralError(f"morphism index out of range: {m}")
        return hs[m.k]

    def mor(self, src: int, dst: int, graph: tuple[int, ...]) -> MorRef:
        self._hom_graphs(src, dst)
        idx = self._hom_index[(src, dst)].get(tuple(graph))
        if idx is None:
            raise StructuralError(f"graph {graph} is not structure-preserving {src} -> {dst}")
        return MorRef(src, dst, idx)

    def id_of(self, x):
        return self.mor(x, x, tuple(range(self.obj_size(x))))

    def compose(self, f, g):
        if f.dst != g.src:
            raise StructuralError(f"non-composable pair {f} {g}")
        gf, gg = self.graph(f), self.graph(g)
        return self.mor(f.src, g.dst, tuple(gg[v] for v in gf))

    # -- monoidal ------------------------------------------------------------
    def tensor_obj(self, x, y):
        nx, sx = self._objs[x]
        ny, sy = self._objs[y]
        return self._register(nx * ny, self.struct.prod(nx, sx, ny, sy))

    def tensor_mor(self, f, g):
        nf, ng = self.obj_size(f.src), self.obj_size(g.src)
        ny2 = self.obj_size(g.dst)
        gf, gg = self.graph(f), self.graph(g)
        out = []
        for i in range(nf):
            for j in range(ng):
                out.append(gf[i] * ny2 + gg[j])
        return self.mor(self.tensor_obj(f.src, g.src), self.tensor_obj(f.dst, g.dst), tuple(out))

    def lunitor(self, x):
        src = self.tensor_obj(self.unit, x)
        return self.mor(src, x, tuple(range(self.obj_size(x))))

    def lunitor_inv(self, x):
        dst = self.tensor_obj(self.unit, x)
        return self.mor(x, dst, tuple(range(self.obj_size(x))))

    def runitor(self, x):
        src = self.tensor_obj(x, self.unit)
        return self.mor(src, x, tuple(range(self.obj_size(x))))

    def runitor_inv(self, x):
        dst = self.tensor_obj(x, self.unit)
        return self.mor(x, dst, tuple(range(self.obj_size(x))))

    def associator(self, x, y, z):
        src = self.tensor_obj(self.tensor_obj(x, y), z)
        dst = self.tensor_obj(x, self.tensor_obj(y, z))
        return self.mor(src, dst, tuple(range(self.obj_size(src))))

    def associator_inv(self, x, y, z):
        src = self.tensor_obj(self.tensor_obj(x, y), z)
        dst = self.tensor_obj(x, self.tensor_obj(y, z))
        return self.mor(dst, src, tuple(range(self.obj_size(src))))

    def symmetry(self, x, y):
        nx, ny = self.obj_size(x), self.obj_size(y)
        graph = tuple((idx % ny) * nx + (idx // ny) for idx in range(nx * ny))
        return self.mor(self.tensor_obj(x, y), self.tensor_obj(y, x), graph)

    # -- closed --------------------------------------------------------------
    def _hom_object(self, y: int, z: int):
        key = (y, z)
        got = self._homobj.get(key)
        if got is None:
            ny, sy = self._objs[y]
            nz, sz = self._objs[z]
            if not self.closed:
                raise CapabilityError(f"{self.name} has no closed structure")
            space = nz ** ny if ny > 0 else 1
            if space > self.mor_bound:
                raise WindowExceeded(f"hom object [{y},{z}] of {space} graphs")
            graphs, value = self.struct.hom_structure(ny, sy, nz, sz)
            obj = self._register(len(graphs), value)
            got = (obj, graphs, {g: i for i, g in enumerate(graphs)})
            self._homobj[key] = got
        return got

    def hom_obj(self, y, z):
        return self._hom_object(y, z)[0]

    def ev(self, y, z):
        obj, graphs, _ = self._hom_object(y, z)
        out = []
        for g in graphs:
            out.extend(g)
        return self.mor(self.tensor_obj(obj, y), z, tuple(out))

    def lam(self, x, y, z, f):
        obj, _, gidx = self._hom_object(y, z)
        nx, ny = self.obj_size(x), self.obj_size(y)
        if f.src != self.tensor_obj(x, y) or f.dst != z:
            raise StructuralError(f"lam argument {f} is not {x}*{y} -> {z}")
        gf = self.graph(f)
        rows = []
        for i in range(nx):
            row = tuple(gf[i * ny + j] for j in range(ny))
            ri = gidx.get(row)
            if ri is None:
                raise StructuralError(f"transpose row {row} is not structure-preserving")
            rows.append(ri)
        return self.mor(x, obj, tuple(rows))

    # -- limits ----------------------------------------------------------------
    def equalizer(self, f, g):
        if not self.has_equalizers:
            raise CapabilityError(f"{self.name} has no equalizers")
        gf, gg = self.graph(f), self.graph(g)
        fixed = [i for i in range(self.obj_size(f.src)) if gf[i] == gg[i]]
        n, s = self._objs[f.src]
        sub = self.struct.sub(n, s, fixed)
        if sub is None:
            raise CapabilityError("equalizing subset carries no structure (no least element)")
        obj = self._register(len(fixed), sub)
        inc = self.mor(obj, f.src, tuple(fixed))
        positions = {v: i for i, v in enumerate(fixed)}

        def factor(h: MorRef) -> MorRef:
            gh = self.graph(h)
            if any(v not in positions for v in gh):
                raise StructuralError(f"{h} does not equalize the pair")
            return self.mor(h.src, obj, tuple(positions[v] for v in gh))

        return EqualizerResult(obj, inc, factor)

    def product(self, objs):
        objs = list(objs)
        obj = self.unit
        for o in reversed(objs):
            obj = self.tensor_obj(o, obj) if obj != self.unit else o
        if not objs:
            obj = self.unit
        sizes = [self.obj_size(o) for o in objs]
        total = self.obj_size(obj)
        strides = []
        acc = 1
        for n in reversed(sizes):
            strides.append(acc)
            acc *= n
        strides.reverse()
        projections = tuple(
            self.mor(obj, o, tuple((idx // strides[i]) % sizes[i] for idx in range(total)))
            for i, o in enumerate(objs)
        )

        def pair(src: int, cone) -> MorRef:
            cone = list(cone)
            if len(cone) != len(objs):
                raise StructuralError("cone arity mismatch")
            if any(h.src != src for h in cone):
                raise StructuralError("cone legs do not share the stated source")
            graphs = [self.graph(h) for h in cone]
            n_src = self.obj_size(src)
            out = []
            for t in range(n_src):
                idx = 0
                for gr, stride in zip(graphs, strides):
                    idx += gr[t] * stride
                out.append(idx)
            return self.mor(src, obj, tuple(out))

        return ProductResult(obj, projections, pair)
