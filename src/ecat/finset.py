"""The cartesian graph kernel of the computed bases, and skeletal finite sets.

A morphism of a computed base is a function between finite carriers, held as
its graph tuple. ``GraphBase`` is the one kernel that ``FinSetCat`` and
``structures.StructCat`` share: composition, the tensor under the pairing code
(i, j) -> i*|Y| + j (which makes unitors and associators identity graphs), the
transposition symmetry, ``ev`` as concatenation, ``lam`` as row slicing,
equalizers and products. A base supplies object sizes, ``tensor_obj``,
``hom_obj`` and a numbering of its homs: graph to ``MorRef`` index and back.

There are two numberings. ``graph_rank``/``graph_unrank`` rank a graph in
lexicographic order (first coordinate most significant) among all graphs of
its shape; they number every ``FinSetCat`` hom and every free ``StructCat``
hom (one whose source imposes no constraint). A free hom contains every graph,
so a graph's position in its lexicographic list *is* its ``graph_rank``. The
other numbering, for constrained homs, is a position in
``CartesianStructure.maps``. Lookups both ways, identity-shaped morphisms and
``ev`` are memoised per base instance.

``FinSetCat`` object n is the set {0..n-1}; it is unbounded, and ``k`` only
sets the checker window {0..k}.
"""

from __future__ import annotations

import itertools
import math

from .report import CapabilityError, StructuralError
from .vbase import EqualizerResult, MonBase, MorRef, ProductResult


def graph_rank(graph: tuple[int, ...], dst: int) -> int:
    r = 0
    for v in graph:
        r = r * dst + v
    return r


def graph_unrank(k: int, src: int, dst: int) -> tuple[int, ...]:
    if src == 0:
        return ()
    out = [0] * src
    for i in range(src - 1, -1, -1):
        k, out[i] = divmod(k, dst)
    return tuple(out)


class GraphBase(MonBase):
    """Cartesian monoidal algebra on graph tuples, shared by the computed bases.

    A base supplies ``obj_size``, ``tensor_obj``, ``hom_obj``,
    ``_subobject`` (the equalizer object on a subset of a carrier) and, when
    some homs are constrained, ``_numbering`` and ``_rank``.
    """

    symmetric = True
    #: Entries the graph/MorRef memos hold before they start over: this keeps
    #: a finset(4) scan under about 80 MB.
    memo_limit = 1 << 17

    def __init__(self):
        self._graph_of: dict[MorRef, tuple[int, ...]] = {}
        self._mor_of: dict[tuple, MorRef] = {}
        self._identities: dict[tuple[int, int], MorRef] = {}
        self._ev: dict[tuple[int, int], MorRef] = {}

    # -- numbering -------------------------------------------------------------
    def _numbering(self, x: int, y: int) -> list[tuple[int, ...]] | None:
        """The graphs of hom(x, y) in index order, or None for a free hom,
        which holds every graph and is numbered by ``graph_rank``."""
        return None

    def _rank(self, src: int, dst: int, graph: tuple[int, ...]) -> int:
        return graph_rank(graph, self.obj_size(dst))

    def _unrank(self, m: MorRef) -> tuple[int, ...]:
        listed = self._numbering(m.src, m.dst)
        if not (0 <= m.k < self.hom_size(m.src, m.dst)):
            raise StructuralError(f"morphism index out of range: {m}")
        if listed is None:
            return graph_unrank(m.k, self.obj_size(m.src), self.obj_size(m.dst))
        return listed[m.k]

    def hom_size(self, x, y):
        listed = self._numbering(x, y)
        return self.obj_size(y) ** self.obj_size(x) if listed is None else len(listed)

    def hom_graphs(self, x: int, y: int):
        """The graphs of hom(x, y) in index order."""
        listed = self._numbering(x, y)
        if listed is None:
            return itertools.product(range(self.obj_size(y)), repeat=self.obj_size(x))
        return listed

    # -- graph <-> MorRef, memoised ------------------------------------------------
    def graph(self, m: MorRef) -> tuple[int, ...]:
        g = self._graph_of.get(m)
        if g is None:
            self._bound_memos()
            g = self._graph_of[m] = self._unrank(m)
        return g

    def mor(self, src: int, dst: int, graph) -> MorRef:
        key = (src, dst, tuple(graph))
        return self._mor_of.get(key) or self._ranked(key)

    def _ranked(self, key: tuple) -> MorRef:
        self._bound_memos()
        m = self._mor_of[key] = MorRef(key[0], key[1], self._rank(*key))
        return m

    def _built(self, src: int, dst: int, graph: tuple[int, ...]) -> MorRef:
        """The morphism of a graph the kernel built from valid graphs; its
        graph is remembered with it, so it is never unranked."""
        key = (src, dst, graph)
        m = self._mor_of.get(key)
        if m is None:
            m = self._ranked(key)
            self._graph_of[m] = graph
        return m

    def _bound_memos(self) -> None:
        if len(self._mor_of) >= self.memo_limit or len(self._graph_of) >= self.memo_limit:
            self._mor_of.clear()
            self._graph_of.clear()

    def _identity_shaped(self, src: int, dst: int) -> MorRef:
        """The morphism src -> dst whose graph is the identity of the carrier."""
        m = self._identities.get((src, dst))
        if m is None:
            m = self._identities[(src, dst)] = self._built(src, dst, tuple(range(self.obj_size(src))))
        return m

    # -- category ----------------------------------------------------------
    def id_of(self, x):
        return self._identity_shaped(x, x)

    def compose(self, f, g):
        if f.dst != g.src:
            raise StructuralError(f"non-composable pair {f} {g}")
        # the hottest call of every law scan: _built and graph are inlined
        graph_of = self._graph_of
        gf = graph_of.get(f) or self.graph(f)
        gg = graph_of.get(g) or self.graph(g)
        key = (f.src, g.dst, tuple(map(gg.__getitem__, gf)))
        m = self._mor_of.get(key)
        if m is None:
            m = self._ranked(key)
            graph_of[m] = key[2]
        return m

    # -- monoidal ------------------------------------------------------------
    def tensor_mor(self, f, g):
        gf, gg = self.graph(f), self.graph(g)
        n = self.obj_size(g.dst)
        graph = tuple([a + b for a in [v * n for v in gf] for b in gg])
        return self._built(self.tensor_obj(f.src, g.src), self.tensor_obj(f.dst, g.dst), graph)

    def lunitor(self, x):
        return self._identity_shaped(self.tensor_obj(self.unit, x), x)

    def lunitor_inv(self, x):
        return self._identity_shaped(x, self.tensor_obj(self.unit, x))

    def runitor(self, x):
        return self._identity_shaped(self.tensor_obj(x, self.unit), x)

    def runitor_inv(self, x):
        return self._identity_shaped(x, self.tensor_obj(x, self.unit))

    def associator(self, x, y, z):
        left = self.tensor_obj(self.tensor_obj(x, y), z)
        return self._identity_shaped(left, self.tensor_obj(x, self.tensor_obj(y, z)))

    def associator_inv(self, x, y, z):
        left = self.tensor_obj(self.tensor_obj(x, y), z)
        return self._identity_shaped(self.tensor_obj(x, self.tensor_obj(y, z)), left)

    def symmetry(self, x, y):
        nx, ny = self.obj_size(x), self.obj_size(y)
        graph = tuple((idx % ny) * nx + (idx // ny) for idx in range(nx * ny))
        return self._built(self.tensor_obj(x, y), self.tensor_obj(y, x), graph)

    # -- closed --------------------------------------------------------------
    def ev(self, y, z):
        m = self._ev.get((y, z))
        if m is None:
            h = self.hom_obj(y, z)
            graph = tuple(itertools.chain.from_iterable(self.hom_graphs(y, z)))
            m = self._ev[(y, z)] = self._built(self.tensor_obj(h, y), z, graph)
        return m

    def lam(self, x, y, z, f):
        h = self.hom_obj(y, z)
        if f.src != self.tensor_obj(x, y) or f.dst != z:
            raise StructuralError(f"lam argument {f} is not {x}*{y} -> {z}")
        gf = self.graph(f)
        ny = self.obj_size(y)
        # a row is a point of [y, z], which is numbered as hom(y, z)
        rows = tuple(self._built(y, z, gf[i * ny:(i + 1) * ny]).k for i in range(self.obj_size(x)))
        return self._built(x, h, rows)

    # -- limits ----------------------------------------------------------------
    def equalizer(self, f, g):
        if not self.has_equalizers:
            raise CapabilityError(f"{self.name} has no equalizers")
        gf, gg = self.graph(f), self.graph(g)
        fixed = [i for i in range(self.obj_size(f.src)) if gf[i] == gg[i]]
        obj = self._subobject(f.src, fixed)
        inc = self._built(obj, f.src, tuple(fixed))
        positions = {v: i for i, v in enumerate(fixed)}

        def factor(h: MorRef) -> MorRef:
            gh = self.graph(h)
            if any(v not in positions for v in gh):
                raise StructuralError(f"{h} does not equalize the pair")
            return self._built(h.src, obj, tuple(positions[v] for v in gh))

        return EqualizerResult(obj, inc, factor)

    def product(self, objs):
        objs = list(objs)
        obj = self.unit
        for o in reversed(objs):
            obj = self.tensor_obj(o, obj) if obj != self.unit else o
        sizes = [self.obj_size(o) for o in objs]
        total = self.obj_size(obj)
        strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
        projections = tuple(
            self._built(obj, o, tuple((idx // strides[i]) % sizes[i] for idx in range(total)))
            for i, o in enumerate(objs)
        )

        def pair(src: int, cone) -> MorRef:
            cone = list(cone)
            if len(cone) != len(objs):
                raise StructuralError("cone arity mismatch")
            if any(h.src != src for h in cone):
                raise StructuralError("cone legs do not share the stated source")
            if any(h.dst != o for h, o in zip(cone, objs)):
                raise StructuralError("cone legs do not land in their factors")
            graphs = [self.graph(h) for h in cone]
            out = []
            for t in range(self.obj_size(src)):
                idx = 0
                for gr, stride in zip(graphs, strides):
                    idx += gr[t] * stride
                out.append(idx)
            return self.mor(src, obj, tuple(out))

        return ProductResult(obj, projections, pair)


class FinSetCat(GraphBase):
    """Computed finite-set base; ``k`` bounds the quantification window only.
    Every hom is free, numbered by ``graph_rank``."""

    closed = True
    has_equalizers = True

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("finset window needs k >= 0")
        super().__init__()
        self.k = k
        self.unit = 1
        self.name = f"finset({k})"
        self.n_objects = None  # unbounded halo

    def objects(self):
        return range(self.k + 1)

    def contains_obj(self, x) -> bool:
        return isinstance(x, int) and x >= 0

    def obj_size(self, x: int) -> int:
        return x

    def _subobject(self, x: int, positions: list[int]) -> int:
        return len(positions)

    def tensor_obj(self, x, y):
        return x * y

    def hom_obj(self, y, z):
        return self.hom_size(y, z)
