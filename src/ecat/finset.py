"""The cartesian graph kernel of the computed bases, and skeletal finite sets.

A morphism of a computed base is a function between finite carriers. The
kernel keeps its graph in the form ``as_graph`` picks from the size of the
target carrier: ``bytes`` into a carrier of at most 256 elements, where
``bytes.translate`` composes two graphs in one C call, and a tuple into a
larger one. Only the private memos hold that form; ``graph``,
``hom_graphs`` and ``mor`` take and return tuples. ``GraphBase`` is the one
kernel that ``FinSetCat`` and ``structures.StructCat`` share: composition,
the tensor under the pairing code (i, j) -> i*|Y| + j (which makes unitors
and associators identity graphs), the transposition symmetry, ``ev`` as
concatenation, ``lam`` as row slicing, equalizers and products. A base
supplies object sizes, ``tensor_obj``, ``hom_obj`` and a numbering of its
homs: graph to ``MorRef`` index and back.

The coherence scans evaluate a row of instances at a time, one fixed
morphism against a list drawn from one hom, through the batched calls
``compose_each``, ``each_compose``, ``tensor_each`` and ``each_tensor``.
Each runs the per-entry loop of ``compose`` or ``tensor_mor`` with the fixed
side's graph, its padded translation table or its shifted rows, and the
result's ends looked up once per call. ``compose`` and ``tensor_mor`` stay
the per-entry calls.

Every morphism the kernel numbers, built by it or named by ``mor``, is
interned by one rule, ``_ranked``: the key (src, dst, graph) maps to its
``MorRef`` and the ``MorRef`` back to its graph, so a numbered morphism is
never unranked while the memos hold it. A ``MorRef`` is a non-empty tuple, so
each lookup reads ``mor_of.get(key) or ranked(key)``.

There are two numberings. ``graph_rank``/``graph_unrank`` rank a graph in
lexicographic order (first coordinate most significant) among all graphs of
its shape; they number every ``FinSetCat`` hom and every free ``StructCat``
hom (one whose source imposes no constraint). A free hom contains every graph,
so a graph's position in its lexicographic list *is* its ``graph_rank``. The
other numbering, for constrained homs, is a position in
``CartesianStructure.maps``. The interning memos and the memos of
identity-shaped morphisms and ``ev`` belong to one base instance.

``FinSetCat`` object n is the set {0..n-1}; it is unbounded, and ``k`` only
sets the checker window {0..k}.
"""

from __future__ import annotations

import itertools
import math

from .report import CapabilityError, StructuralError
from .vbase import EqualizerResult, MonBase, MorRef, ProductResult, new_mor


#: The largest carrier whose graphs the kernel holds as ``bytes``.
BYTES_CARRIER = 256
# _SHIFT[s] maps each byte b to b + s (mod 256); row v of a byte tensor graph
# is the right factor's graph shifted by v * |right target|
_SHIFT = [bytes(range(s, 256)) + bytes(range(s)) for s in range(256)]


def _chain_tuple(parts) -> tuple[int, ...]:
    return tuple(itertools.chain.from_iterable(parts))


def as_graph(values, n: int) -> bytes | tuple[int, ...]:
    """The kernel's form of a graph into a carrier of n elements, whose
    values all lie in range(n): bytes when n <= 256, else a tuple."""
    return bytes(values) if n <= BYTES_CARRIER else tuple(values)


def graph_rank(graph, dst: int) -> int:
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
    """Cartesian monoidal algebra on graphs, shared by the computed bases.

    A base supplies ``obj_size``, ``tensor_obj``, ``hom_obj``,
    ``_subobject`` (the equalizer object on a subset of a carrier) and, when
    some homs are constrained, ``_numbering`` and ``_rank``. Every graph the
    kernel builds or memoises is in the form ``as_graph`` gives its target.
    """

    symmetric = True
    #: Entries the graph/MorRef memos hold before they start over: this keeps
    #: a finset(4) scan under about 80 MB.
    memo_limit = 1 << 17

    def __init__(self):
        self._graph_of: dict[MorRef, bytes | tuple[int, ...]] = {}
        self._mor_of: dict[tuple, MorRef] = {}
        self._identities: dict[tuple[int, int], MorRef] = {}
        self._ev: dict[tuple[int, int], MorRef] = {}

    # -- numbering -------------------------------------------------------------
    def _numbering(self, x: int, y: int) -> list[tuple[int, ...]] | None:
        """The graphs of hom(x, y) in index order, or None for a free hom,
        which holds every graph and is numbered by ``graph_rank``."""
        return None

    def _rank(self, src: int, dst: int, graph) -> int:
        """The index in hom(src, dst) of a graph in the kernel's form."""
        return graph_rank(graph, self.obj_size(dst))

    def _unrank(self, m: MorRef):
        listed = self._numbering(m.src, m.dst)
        if not (0 <= m.k < self.hom_size(m.src, m.dst)):
            raise StructuralError(f"morphism index out of range: {m}")
        n = self.obj_size(m.dst)
        return as_graph(graph_unrank(m.k, self.obj_size(m.src), n) if listed is None else listed[m.k], n)

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
        return tuple(self._graph(m))

    def _graph(self, m: MorRef):
        """m's graph in the kernel's form."""
        g = self._graph_of.get(m)
        if g is None:
            self._bound_memos()
            g = self._graph_of[m] = self._unrank(m)
        return g

    def mor(self, src: int, dst: int, graph) -> MorRef:
        """The morphism src -> dst with this graph; StructuralError when the
        graph is not one of hom(src, dst)."""
        graph = tuple(graph)
        n = self.obj_size(dst)
        if len(graph) != self.obj_size(src) or not all(0 <= v < n for v in graph):
            raise StructuralError(f"graph {graph} is not structure-preserving {src} -> {dst}")
        key = (src, dst, as_graph(graph, n))
        return self._mor_of.get(key) or self._ranked(key)

    def _ranked(self, key: tuple) -> MorRef:
        """The one interning rule: number the graph of key = (src, dst,
        graph in the kernel's form) and remember it both ways, so the
        morphism is not unranked while the memos hold it."""
        self._bound_memos()
        m = self._mor_of[key] = new_mor((key[0], key[1], self._rank(*key)))
        self._graph_of[m] = key[2]
        return m

    def _built(self, src: int, dst: int, graph) -> MorRef:
        """The morphism of a graph the kernel built from valid graphs, in the
        form of its target."""
        key = (src, dst, graph)
        return self._mor_of.get(key) or self._ranked(key)

    def _bound_memos(self) -> None:
        if len(self._mor_of) >= self.memo_limit or len(self._graph_of) >= self.memo_limit:
            self._mor_of.clear()
            self._graph_of.clear()

    def _identity_shaped(self, src: int, dst: int) -> MorRef:
        """The morphism src -> dst whose graph is the identity of the carrier."""
        m = self._identities.get((src, dst))
        if m is None:
            graph = as_graph(range(self.obj_size(src)), self.obj_size(dst))
            m = self._identities[(src, dst)] = self._built(src, dst, graph)
        return m

    # -- category ----------------------------------------------------------
    def id_of(self, x):
        return self._identity_shaped(x, x)

    def compose(self, f, g):
        if f.dst != g.src:
            raise StructuralError(f"non-composable pair {f} {g}")
        # the hottest call of every law scan: _built and _graph are inlined
        graph_of = self._graph_of
        gf = graph_of.get(f)
        if gf is None:
            gf = self._graph(f)
        gg = graph_of.get(g)
        if gg is None:
            gg = self._graph(g)
        # the composite has g's target, so it takes gg's form; two byte graphs
        # compose in one C call, gg padded to a full translation table
        if type(gg) is tuple:
            graph = tuple(map(gg.__getitem__, gf))
        elif type(gf) is bytes:
            graph = gf.translate(gg.ljust(256, b"\0"))
        else:
            graph = bytes(map(gg.__getitem__, gf))
        key = (f.src, g.dst, graph)
        return self._mor_of.get(key) or self._ranked(key)

    # the batched calls (see the module docstring); a list that leaves its
    # hom raises StructuralError
    def compose_each(self, f, gs):
        graph_of, mor_of, ranked = self._graph_of, self._mor_of, self._ranked
        gf = self._graph(f)
        src, mid = f.src, f.dst
        out = []
        for g in gs:
            if g.src != mid:
                raise StructuralError(f"non-composable pair {f} {g}")
            gg = graph_of.get(g)
            if gg is None:
                gg = self._graph(g)
            if type(gg) is tuple:
                graph = tuple(map(gg.__getitem__, gf))
            elif type(gf) is bytes:
                graph = gf.translate(gg.ljust(256, b"\0"))
            else:
                graph = bytes(map(gg.__getitem__, gf))
            key = (src, g.dst, graph)
            out.append(mor_of.get(key) or ranked(key))
        return out

    def each_compose(self, fs, g):
        graph_of, mor_of, ranked = self._graph_of, self._mor_of, self._ranked
        gg = self._graph(g)
        table = gg.ljust(256, b"\0") if type(gg) is bytes else None
        mid, dst = g.src, g.dst
        out = []
        for f in fs:
            if f.dst != mid:
                raise StructuralError(f"non-composable pair {f} {g}")
            gf = graph_of.get(f)
            if gf is None:
                gf = self._graph(f)
            if table is None:
                graph = tuple(map(gg.__getitem__, gf))
            elif type(gf) is bytes:
                graph = gf.translate(table)
            else:
                graph = bytes(map(gg.__getitem__, gf))
            key = (f.src, dst, graph)
            out.append(mor_of.get(key) or ranked(key))
        return out

    # -- monoidal ------------------------------------------------------------
    def tensor_mor(self, f, g):
        gf, gg = self._graph(f), self._graph(g)
        n = self.obj_size(g.dst)
        if self.obj_size(f.dst) * n <= BYTES_CARRIER:
            graph = b"".join([gg.translate(_SHIFT[v * n]) for v in gf])
        else:
            graph = tuple([a + b for a in [v * n for v in gf] for b in gg])
        return self._built(self.tensor_obj(f.src, g.src), self.tensor_obj(f.dst, g.dst), graph)

    def tensor_each(self, f, gs):
        if not gs:
            return []
        graph_of, mor_of, ranked = self._graph_of, self._mor_of, self._ranked
        c, d = gs[0].src, gs[0].dst
        gf = self._graph(f)
        n = self.obj_size(d)
        src, dst = self.tensor_obj(f.src, c), self.tensor_obj(f.dst, d)
        # block v of f (x) g is g's graph shifted by f(v) * |d|
        if self.obj_size(f.dst) * n <= BYTES_CARRIER:
            shifts, offsets = [_SHIFT[v * n] for v in gf], None
        else:
            shifts, offsets = None, [v * n for v in gf]
        out = []
        for g in gs:
            if g.src != c or g.dst != d:
                raise StructuralError(f"{g} leaves hom({c},{d})")
            gg = graph_of.get(g)
            if gg is None:
                gg = self._graph(g)
            if shifts is None:
                graph = tuple([a + b for a in offsets for b in gg])
            elif shifts:
                graph = b"".join(map(gg.translate, shifts))
            else:
                graph = b""  # f's source is empty, so the tensor's is
            key = (src, dst, graph)
            out.append(mor_of.get(key) or ranked(key))
        return out

    def each_tensor(self, fs, g):
        if not fs:
            return []
        graph_of, mor_of, ranked = self._graph_of, self._mor_of, self._ranked
        a, b = fs[0].src, fs[0].dst
        gg = self._graph(g)
        n, nb = self.obj_size(g.dst), self.obj_size(b)
        src, dst = self.tensor_obj(a, g.src), self.tensor_obj(b, g.dst)
        # row v is block v of every f (x) g with f(i) = v: g's graph shifted by v * |g.dst|
        if nb * n <= BYTES_CARRIER:
            rows = [gg.translate(_SHIFT[v * n]) for v in range(nb)]
            join = b"".join
        else:
            rows = [tuple([v * n + w for w in gg]) for v in range(nb)]
            join = _chain_tuple
        out = []
        for f in fs:
            if f.src != a or f.dst != b:
                raise StructuralError(f"{f} leaves hom({a},{b})")
            gf = graph_of.get(f)
            if gf is None:
                gf = self._graph(f)
            graph = join(map(rows.__getitem__, gf))
            key = (src, dst, graph)
            out.append(mor_of.get(key) or ranked(key))
        return out

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
        graph = as_graph(((idx % ny) * nx + (idx // ny) for idx in range(nx * ny)), nx * ny)
        return self._built(self.tensor_obj(x, y), self.tensor_obj(y, x), graph)

    # -- closed --------------------------------------------------------------
    def ev(self, y, z):
        m = self._ev.get((y, z))
        if m is None:
            h = self.hom_obj(y, z)
            graph = as_graph(itertools.chain.from_iterable(self.hom_graphs(y, z)), self.obj_size(z))
            m = self._ev[(y, z)] = self._built(self.tensor_obj(h, y), z, graph)
        return m

    def lam(self, x, y, z, f):
        h = self.hom_obj(y, z)
        if f.src != self.tensor_obj(x, y) or f.dst != z:
            raise StructuralError(f"lam argument {f} is not {x}*{y} -> {z}")
        gf = self._graph(f)
        ny = self.obj_size(y)
        # a row is a point of [y, z], which is numbered as hom(y, z)
        rows = [self._built(y, z, gf[i * ny:(i + 1) * ny]).k for i in range(self.obj_size(x))]
        return self._built(x, h, as_graph(rows, self.obj_size(h)))

    # -- limits ----------------------------------------------------------------
    def equalizer(self, f, g):
        if not self.has_equalizers:
            raise CapabilityError(f"{self.name} has no equalizers")
        if f.src != g.src or f.dst != g.dst:
            raise StructuralError(f"equalizer needs a parallel pair, got {f} {g}")
        gf, gg = self._graph(f), self._graph(g)
        fixed = [i for i in range(self.obj_size(f.src)) if gf[i] == gg[i]]
        obj = self._subobject(f.src, fixed)
        inc = self._built(obj, f.src, as_graph(fixed, self.obj_size(f.src)))
        positions = {v: i for i, v in enumerate(fixed)}

        def factor(h: MorRef) -> MorRef:
            gh = self._graph(h)
            if any(v not in positions for v in gh):
                raise StructuralError(f"{h} does not equalize the pair")
            return self._built(h.src, obj, as_graph([positions[v] for v in gh], len(fixed)))

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
            self._built(obj, o, as_graph([(idx // strides[i]) % sizes[i] for idx in range(total)], sizes[i]))
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
            graphs = [self._graph(h) for h in cone]
            out = []
            for t in range(self.obj_size(src)):
                idx = 0
                for gr, stride in zip(graphs, strides):
                    idx += gr[t] * stride
                out.append(idx)
            return self._built(src, obj, as_graph(out, total))

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
