"""Finite monoidal base categories.

Objects are dense integer indices, morphisms are per-pair-indexed references
``MorRef(src, dst, k)``. Composition is diagrammatic throughout: ``compose(f, g)``
means "f then g".

A base is either *table-backed* (:class:`FinMonCat` with explicit dicts, the
form the DSL reads and writes) or *computed* (skeletal finite sets, structure
categories). Computed bases expose a finite quantification window
(``objects()``) that law checkers enumerate, while evaluation — composition,
tensor, closed structure — is total on a larger lazily-evaluated object halo.
Table bases are total and the window is everything.

Law checkers return :class:`~ecat.report.CheckReport`; malformed tables raise
:class:`~ecat.report.StructuralError` instead of being reported as law
failures.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple

from .report import CapabilityError, Collector, StructuralError, WindowExceeded, law_scan

ObjId = int

#: Homs larger than this are not enumerated by law scans; instances needing
#: such an enumeration are skipped deterministically. Table and thin bases
#: never come close.
DEFAULT_HOM_CAP = 20_000


class MorRef(NamedTuple):
    """Reference to a morphism: source, target, index within hom(src, dst)."""

    src: int
    dst: int
    k: int

    def __repr__(self):
        return f"({self.src},{self.dst},{self.k})"


#: a MorRef from a (src, dst, k) tuple, without running a Python frame
new_mor = functools.partial(tuple.__new__, MorRef)


class BatchedCompose:
    """The batched composition calls: one fixed morphism against a list drawn
    from one hom. A law scan makes one call per row of instances; a kernel
    answers a row in one loop, and this default, which ``FinCat`` and
    ``MonBase`` share, maps the per-entry ``compose`` over it."""

    def compose_each(self, f: MorRef, gs: list[MorRef]) -> list[MorRef]:
        """[f;g for g in gs]."""
        return list(map(self.compose, itertools.repeat(f), gs))

    def each_compose(self, fs: list[MorRef], g: MorRef) -> list[MorRef]:
        """[f;g for f in fs]."""
        return list(map(self.compose, fs, itertools.repeat(g)))


class FinCat(BatchedCompose):
    """A finite category as explicit tables.

    ``then`` is keyed by composable pairs (f, g) in diagrammatic order and
    must be total over them. The constructor copies the tables it is
    given, ``tabulate`` keeps the tables it has just built, and
    ``hom_size_t``, ``identity_t`` and ``then_t`` are read-only views of
    the stored dicts, so a verdict on them cannot go stale: ``validate``
    checks a category at most once, and ``tabulate`` builds one valid by
    construction.
    """

    def __init__(self, n_objects: int, hom_size: dict, identity: dict, then: dict):
        self._store(n_objects, dict(hom_size), dict(identity), dict(then))

    def _store(self, n_objects: int, hom_size: dict, identity: dict, then: dict) -> None:
        """Keep the dicts themselves: no other reference to them may remain."""
        self.n_objects = n_objects
        # lookups read the dicts: a view costs more per call
        self._hom_size = hom_size
        self._identity = identity
        self._then = then
        self.hom_size_t = MappingProxyType(hom_size)
        self.identity_t = MappingProxyType(identity)
        self.then_t = MappingProxyType(then)
        self._homs: dict[tuple[int, int], tuple[MorRef, ...]] = {}
        self._mors = None
        self._valid = False

    @classmethod
    def tabulate(cls, n: int, homs: dict, identity: Callable, compose: Callable) -> "FinCat":
        """The category on 0..n-1 whose morphisms a -> b are the hashable
        labels ``homs[a, b]``: label k is ``MorRef(a, b, k)``. ``identity(a)``
        and ``compose(a, b, c, f, g)`` (f then g) answer in labels. Every
        constructed category is numbered this way.

        The result is valid by construction, so ``validate`` does not scan
        it: every hom key is checked to be a pair of objects, and every
        identity and composite is the morphism of a label of its hom."""
        objs = range(n)
        for a, b in homs:
            if a not in objs or b not in objs:
                raise StructuralError(f"bad hom size entry ({a},{b})={len(homs[a, b])}")
        refs = label_refs(homs)
        identity_t = {a: label_ref(refs, a, a, identity(a)) for a in objs}
        # each non-empty hom's (label, morphism) pairs, and the non-empty
        # homs out of each object in target order, listed once
        pairs = {ab: tuple(row.items()) for ab, row in refs.items()}
        out = [[(c, pairs[b, c]) for c in objs if (b, c) in pairs] for b in objs]
        then, none = {}, {}
        for (a, b), fs in pairs.items():
            for c, gs in out[b]:
                hs = refs.get((a, c), none)
                for f, fm in fs:
                    for g, gm in gs:
                        h = compose(a, b, c, f, g)
                        then[fm, gm] = hs.get(h) or label_ref(refs, a, c, h)
        C = cls.__new__(cls)
        C._store(n, {ab: len(labels) for ab, labels in homs.items()}, identity_t, then)
        C._homs = {ab: tuple(refs[ab].values()) if labels else () for ab, labels in homs.items()}
        C._valid = True
        return C

    # -- category surface -------------------------------------------------
    def objects(self) -> range:
        return range(self.n_objects)

    def hom_size(self, x: int, y: int) -> int:
        return self._hom_size.get((x, y), 0)

    def hom(self, x: int, y: int) -> tuple[MorRef, ...]:
        """The morphisms x -> y in index order, one stored tuple per pair."""
        ms = self._homs.get((x, y))
        if ms is None:
            ms = self._homs[x, y] = tuple(MorRef(x, y, k) for k in range(self.hom_size(x, y)))
        return ms

    def mors(self) -> tuple[MorRef, ...]:
        """Every morphism, hom by hom in lexicographic (x, y) order."""
        if self._mors is None:
            objs = self.objects()
            self._mors = tuple(m for x in objs for y in objs for m in self.hom(x, y))
        return self._mors

    def id_of(self, x: int) -> MorRef:
        try:
            return self._identity[x]
        except KeyError:
            raise StructuralError(f"missing identity for object {x}") from None

    def compose(self, f: MorRef, g: MorRef) -> MorRef:
        try:
            return self._then[(f, g)]
        except KeyError:
            # a valid category keys only composable pairs, so the lookup
            # alone decides the common case
            if f.dst != g.src:
                raise StructuralError(f"non-composable pair {f} {g}") from None
            raise StructuralError(f"missing composition entry {f};{g}") from None

    def contains_obj(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.n_objects

    def validate(self) -> None:
        """Raise StructuralError if any table is malformed or non-total.
        The tables are read-only, so a category that passed once, or that
        ``tabulate`` built, is not scanned again."""
        if self._valid:
            return
        for (x, y), n in self._hom_size.items():
            if not (self.contains_obj(x) and self.contains_obj(y)) or n < 0:
                raise StructuralError(f"bad hom size entry ({x},{y})={n}")
        for x in self.objects():
            i = self.id_of(x)
            require_mor_shape(self, i, x, x)
        for f, g in self._then:
            if f.dst != g.src:
                raise StructuralError(f"composition defined on non-composable {f};{g}")
        # the composable pairs: the non-empty homs out of each object
        out = {x: [(y, self.hom(x, y)) for y in self.objects() if self.hom_size(x, y)] for x in self.objects()}
        composable = 0
        for x, row in out.items():
            for y, fs in row:
                for z, gs in out[y]:
                    composable += len(fs) * len(gs)
                    for f, g in itertools.product(fs, gs):
                        require_mor_shape(self, self.compose(f, g), x, z)
        # every composable pair is a key now, so a further key holds a
        # morphism outside its hom
        if len(self._then) != composable:
            f, g = next(key for key in self._then if not all(0 <= m.k < self.hom_size(m.src, m.dst) for m in key))
            raise StructuralError(f"composition defined on {f};{g}, outside their homs")
        self._valid = True

    def __eq__(self, other):
        return (
            isinstance(other, FinCat)
            and self.n_objects == other.n_objects
            and self._hom_size == other._hom_size
            and self._identity == other._identity
            and self._then == other._then
        )


def label_refs(homs: dict) -> dict:
    """Per non-empty hom (a, b), the dict from each label in ``homs[a, b]``
    to its morphism ``MorRef(a, b, k)``; repeated labels raise StructuralError."""
    refs = {}
    for (a, b), labels in homs.items():
        if labels:
            refs[a, b] = row = {label: new_mor((a, b, k)) for k, label in enumerate(labels)}
            if len(row) != len(labels):
                raise StructuralError(f"repeated morphism label in hom({a},{b})")
    return refs


def label_ref(refs: dict, a: int, b: int, label) -> MorRef:
    """The morphism a -> b with this label in a ``label_refs`` table; a label
    that is not in the hom raises StructuralError."""
    m = refs.get((a, b), {}).get(label)
    if m is None:
        raise StructuralError(f"{label!r} is not a morphism {a} -> {b}")
    return m


def thin_category(n: int, arrows: set) -> FinCat:
    """The thin category on 0..n-1 with one arrow a -> b for each pair in
    ``arrows``, which must be reflexive and transitive."""
    return FinCat.tabulate(
        n,
        {(a, b): [0] if (a, b) in arrows else [] for a in range(n) for b in range(n)},
        lambda a: 0,
        lambda a, b, c, f, g: 0,
    )


def require_mor_shape(cat, m: MorRef, src: int, dst: int) -> None:
    """Structural check: m is a well-indexed morphism src -> dst."""
    if not isinstance(m, MorRef):
        raise StructuralError(f"expected a morphism, got {m!r}")
    if m.src != src or m.dst != dst:
        raise StructuralError(f"morphism {m} does not have shape {src} -> {dst}")
    if not (0 <= m.k < cat.hom_size(src, dst)):
        raise StructuralError(f"morphism index out of range: {m}")


@dataclass
class EqualizerResult:
    """Equalizer object with its inclusion and the universal factorization."""

    obj: int
    include: MorRef
    factor: Callable[[MorRef], MorRef]


@dataclass
class ProductResult:
    """Product object, projections, and pairing.

    ``pair(src, cone)`` takes the cone source explicitly so that nullary
    products (terminal objects) are pairable too.
    """

    obj: int
    projections: tuple[MorRef, ...]
    pair: Callable[[int, list[MorRef]], MorRef]


class MonBase(BatchedCompose):
    """Shared surface for monoidal bases; subclasses fill in the data access.

    The category operations (objects/hom_size/id_of/compose) plus the monoidal
    components. ``objects()`` is the quantification window for checkers.
    """

    unit: int = 0
    symmetric: bool = False
    closed: bool = False
    has_equalizers: bool = False
    #: Certified thin: every hom has at most one morphism and every entry the
    #: law scans read is well-shaped. ``FinMonCat`` computes it from its own
    #: tables; a computed base is never certified.
    thin: bool = False

    # category part ------------------------------------------------------
    def objects(self) -> Iterable[int]:
        raise NotImplementedError

    def contains_obj(self, x) -> bool:
        raise NotImplementedError

    def hom_size(self, x: int, y: int) -> int:
        raise NotImplementedError

    def hom(self, x: int, y: int) -> list[MorRef]:
        return [MorRef(x, y, k) for k in range(self.hom_size(x, y))]

    def mors(self) -> Iterable[MorRef]:
        for x in self.objects():
            for y in self.objects():
                yield from self.hom(x, y)

    def id_of(self, x: int) -> MorRef:
        raise NotImplementedError

    def compose(self, f: MorRef, g: MorRef) -> MorRef:
        raise NotImplementedError

    def compose_all(self, *ms: MorRef) -> MorRef:
        compose = self.compose
        out = ms[0]
        for m in ms[1:]:
            out = compose(out, m)
        return out

    # monoidal part --------------------------------------------------------
    def tensor_obj(self, x: int, y: int) -> int:
        raise NotImplementedError

    def tensor_mor(self, f: MorRef, g: MorRef) -> MorRef:
        raise NotImplementedError

    def tensor_each(self, f: MorRef, gs: list[MorRef]) -> list[MorRef]:
        """[f (x) g for g in gs]."""
        return list(map(self.tensor_mor, itertools.repeat(f), gs))

    def each_tensor(self, fs: list[MorRef], g: MorRef) -> list[MorRef]:
        """[f (x) g for f in fs]."""
        return list(map(self.tensor_mor, fs, itertools.repeat(g)))

    def lunitor(self, x: int) -> MorRef:
        raise NotImplementedError

    def lunitor_inv(self, x: int) -> MorRef:
        raise NotImplementedError

    def runitor(self, x: int) -> MorRef:
        raise NotImplementedError

    def runitor_inv(self, x: int) -> MorRef:
        raise NotImplementedError

    def associator(self, x: int, y: int, z: int) -> MorRef:
        raise NotImplementedError

    def associator_inv(self, x: int, y: int, z: int) -> MorRef:
        raise NotImplementedError

    def symmetry(self, x: int, y: int) -> MorRef:
        raise CapabilityError("base has no symmetry")

    # closed part ----------------------------------------------------------
    def hom_obj(self, y: int, z: int) -> int:
        raise CapabilityError("base has no closed structure")

    def ev(self, y: int, z: int) -> MorRef:
        raise CapabilityError("base has no closed structure")

    def lam(self, x: int, y: int, z: int, f: MorRef) -> MorRef:
        raise CapabilityError("base has no closed structure")

    def unlam(self, x: int, y: int, z: int, g: MorRef) -> MorRef:
        """Inverse of lam: g: x -> [y,z] becomes (g tensor id_y); ev."""
        require_mor_shape(self, g, x, self.hom_obj(y, z))
        return self.compose(self.tensor_mor(g, self.id_of(y)), self.ev(y, z))

    # limits ---------------------------------------------------------------
    def equalizer(self, f: MorRef, g: MorRef) -> EqualizerResult:
        raise CapabilityError("base has no equalizer chooser")

    def product(self, objs: list[int]) -> ProductResult:
        raise CapabilityError("base has no product chooser")


class FinMonCat(MonBase):
    """Table-backed finite monoidal category.

    ``hom``, ``hom_size``, ``id_of``, ``compose`` and ``contains_obj`` are
    the methods of ``cat``, bound at construction, so ``hom`` answers with
    the stored tuple of ``cat``. Optional components are the symmetry table
    and the closed-structure tables. Products and
    equalizers are chosen by universal search: a candidate cone is universal
    iff, for every object c, the map that composes each u in hom(c, apex)
    with the cone's legs is a bijection onto the cones from c, which one
    pass over hom(c, apex) decides (``search_product``,
    ``search_equalizer``).
    """

    def __init__(
        self,
        cat: FinCat,
        unit: int,
        tensor_obj_t: dict,
        tensor_mor_t: dict,
        lunitor_t: dict,
        lunitor_inv_t: dict,
        runitor_t: dict,
        runitor_inv_t: dict,
        associator_t: dict,
        associator_inv_t: dict,
        symmetry_t: dict | None = None,
        closed_data: "ClosedData | None" = None,
        name: str = "",
    ):
        self.cat = cat
        # the category's own methods answer hom, hom_size, id_of, compose and
        # contains_obj: a delegating method would add a frame to every call
        self.hom, self.hom_size, self.id_of, self.compose = cat.hom, cat.hom_size, cat.id_of, cat.compose
        self.contains_obj = cat.contains_obj
        self.unit = unit
        self.tensor_obj_t = dict(tensor_obj_t)
        self.tensor_mor_t = dict(tensor_mor_t)
        self.lunitor_t = dict(lunitor_t)
        self.lunitor_inv_t = dict(lunitor_inv_t)
        self.runitor_t = dict(runitor_t)
        self.runitor_inv_t = dict(runitor_inv_t)
        self.associator_t = dict(associator_t)
        self.associator_inv_t = dict(associator_inv_t)
        self.symmetry_t = dict(symmetry_t) if symmetry_t is not None else None
        self.closed_data = closed_data
        self.name = name
        self.has_equalizers = True

    # category delegation --------------------------------------------------
    @property
    def n_objects(self):
        return self.cat.n_objects

    def objects(self):
        return self.cat.objects()

    # monoidal tables --------------------------------------------------------
    # each lookup is inline: a helper call would add a frame to every read
    @staticmethod
    def _missing(what: str, key) -> StructuralError:
        return StructuralError(f"missing {what} entry at {key}")

    def tensor_obj(self, x, y):
        try:
            return self.tensor_obj_t[x, y]
        except KeyError:
            raise self._missing("tensor_obj", (x, y)) from None

    def tensor_mor(self, f, g):
        try:
            return self.tensor_mor_t[f, g]
        except KeyError:
            raise self._missing("tensor_mor", (f, g)) from None

    def lunitor(self, x):
        try:
            return self.lunitor_t[x]
        except KeyError:
            raise self._missing("lunitor", x) from None

    def lunitor_inv(self, x):
        try:
            return self.lunitor_inv_t[x]
        except KeyError:
            raise self._missing("lunitor_inv", x) from None

    def runitor(self, x):
        try:
            return self.runitor_t[x]
        except KeyError:
            raise self._missing("runitor", x) from None

    def runitor_inv(self, x):
        try:
            return self.runitor_inv_t[x]
        except KeyError:
            raise self._missing("runitor_inv", x) from None

    def associator(self, x, y, z):
        try:
            return self.associator_t[x, y, z]
        except KeyError:
            raise self._missing("associator", (x, y, z)) from None

    def associator_inv(self, x, y, z):
        try:
            return self.associator_inv_t[x, y, z]
        except KeyError:
            raise self._missing("associator_inv", (x, y, z)) from None

    @property
    def symmetric(self):
        return self.symmetry_t is not None

    def symmetry(self, x, y):
        if self.symmetry_t is None:
            raise CapabilityError("base has no symmetry")
        try:
            return self.symmetry_t[x, y]
        except KeyError:
            raise self._missing("symmetry", (x, y)) from None

    @property
    def closed(self):
        return self.closed_data is not None

    def hom_obj(self, y, z):
        closed = self.closed_data
        if closed is None:
            raise CapabilityError("base has no closed structure")
        try:
            return closed.hom_obj_t[y, z]
        except KeyError:
            raise StructuralError(f"missing hom_obj entry at ({y},{z})") from None

    def ev(self, y, z):
        closed = self.closed_data
        if closed is None:
            raise CapabilityError("base has no closed structure")
        try:
            return closed.eval_t[y, z]
        except KeyError:
            raise StructuralError(f"missing eval entry at ({y},{z})") from None

    def lam(self, x, y, z, f):
        closed = self.closed_data
        if closed is None:
            raise CapabilityError("base has no closed structure")
        try:
            return closed.lam_t[x, y, z, f]
        except KeyError:
            raise StructuralError(f"missing lam entry at ({x},{y},{z},{f})") from None

    # thin certificate -------------------------------------------------------
    @functools.cached_property
    def thin(self) -> bool:
        """Certified from the tables on first read: the category validates
        with at most one morphism per hom, the unit and every tensor and
        internal-hom object is an object, and every tensor_mor, unitor,
        associator, symmetry, ev and lam entry the law scans read exists with
        its shape. A malformed base is not certified, so its scans raise."""
        if not all(isinstance(n, int) and n <= 1 for n in self.cat.hom_size_t.values()):
            return False
        try:
            self.cat.validate()
            self._require_well_shaped()
        except StructuralError:
            return False
        return True

    def _require_well_shaped(self) -> None:
        """Raise StructuralError unless every monoidal, symmetry and closed
        entry the law scans read exists and has its shape."""
        objs = self.objects()

        def obj(x):
            if not self.contains_obj(x):
                raise StructuralError(f"{x!r} is not an object")
            return x

        I = obj(self.unit)
        t = {(x, y): obj(self.tensor_obj(x, y)) for x in objs for y in objs}
        mors = list(self.cat.mors())
        for f in mors:
            for g in mors:
                require_mor_shape(self, self.tensor_mor(f, g), t[f.src, g.src], t[f.dst, g.dst])
        for x in objs:
            require_mor_shape(self, self.lunitor(x), t[I, x], x)
            require_mor_shape(self, self.lunitor_inv(x), x, t[I, x])
            require_mor_shape(self, self.runitor(x), t[x, I], x)
            require_mor_shape(self, self.runitor_inv(x), x, t[x, I])
        for x, y, z in itertools.product(objs, repeat=3):
            require_mor_shape(self, self.associator(x, y, z), t[t[x, y], z], t[x, t[y, z]])
            require_mor_shape(self, self.associator_inv(x, y, z), t[x, t[y, z]], t[t[x, y], z])
        if self.symmetric:
            for x, y in itertools.product(objs, repeat=2):
                require_mor_shape(self, self.symmetry(x, y), t[x, y], t[y, x])
        if self.closed:
            for y, z in itertools.product(objs, repeat=2):
                h = obj(self.hom_obj(y, z))
                require_mor_shape(self, self.ev(y, z), t[h, y], z)
                for x in objs:
                    for f in self.hom(t[x, y], z):
                        require_mor_shape(self, self.lam(x, y, z, f), x, h)

    # limits by universal search --------------------------------------------
    def equalizer(self, f, g):
        return search_equalizer(self, f, g)

    def product(self, objs):
        return search_product(self, objs)


@dataclass
class ClosedData:
    """Closed structure tables: internal hom objects, evaluation, abstraction.

    ``lam_t`` is keyed by (x, y, z, f) because the tensor source of f does not
    determine its factors. ``FinMonCat.hom_obj``, ``ev`` and ``lam`` are
    their one reader and name a missing entry.
    """

    hom_obj_t: dict
    eval_t: dict
    lam_t: dict


# ---------------------------------------------------------------------------
# universal-property searches (choosers for table bases)
# ---------------------------------------------------------------------------

def _bijection(us, leg, n: int) -> dict | None:
    """The table leg(u) -> u of the hom ``us`` if u |-> leg(u) is a
    bijection onto the n cones it lands in, else None. Equal sizes are
    compared before any leg is computed; given them, injective means
    bijective, so one pass over ``us`` decides."""
    if len(us) != n:
        return None
    table = {}
    for u in us:
        h = leg(u)
        if h in table:
            return None
        table[h] = u
    return table


def search_equalizer(V, f, g) -> EqualizerResult:
    """Lexicographically first (object, inclusion) with the universal property.

    The equalizing cones from each object c are counted once per call. An
    inclusion inc: e -> f.src that equalizes the pair sends each u in
    hom(c, e) to a cone u;inc, and it is universal iff for every c that map
    is a bijection onto the cones from c. So each candidate costs one pass
    over each hom(c, e), and the factor table is read off that pass."""
    if f.src != g.src or f.dst != g.dst:
        raise StructuralError(f"equalizer needs a parallel pair, got {f} {g}")
    objs = list(V.objects())
    n_cones = {c: sum(V.compose(h, f) == V.compose(h, g) for h in V.hom(c, f.src)) for c in objs}
    for e in objs:
        for inc in V.hom(e, f.src):
            if V.compose(inc, f) != V.compose(inc, g):
                continue
            tables = {}
            for c in objs:
                tables[c] = _bijection(V.hom(c, e), lambda u: V.compose(u, inc), n_cones[c])
                if tables[c] is None:
                    break
            else:
                def factor(h, _tables=tables):
                    try:
                        return _tables[h.src][h]
                    except KeyError:
                        raise StructuralError(f"{h} does not equalize the pair") from None

                return EqualizerResult(e, inc, factor)
    raise CapabilityError(f"no equalizer found for {f}, {g}")


def search_product(V, objs: list[int]) -> ProductResult:
    """Lexicographically first (object, projections) with the universal property.

    A candidate (p, projs) sends each u in hom(c, p) to the cone
    (u;pr_1, ..., u;pr_n), and it is universal iff for every object c that
    map is a bijection onto the cones from c: |hom(c, p)| equals
    prod_i |hom(c, x_i)| and the map is injective. So each candidate costs
    one pass over each hom(c, p), and the pairing table is read off that
    pass."""
    objs = list(objs)
    cs = list(V.objects())
    n_cones = {c: math.prod(V.hom_size(c, x) for x in objs) for c in cs}
    for p in cs:
        for projs in itertools.product(*(V.hom(p, x) for x in objs)):
            tables = {}
            for c in cs:
                tables[c] = _bijection(
                    V.hom(c, p), lambda u: tuple(V.compose(u, pr) for pr in projs), n_cones[c]
                )
                if tables[c] is None:
                    break
            else:
                def pair(src, cone, _tables=tables):
                    try:
                        return _tables[src][tuple(cone)]
                    except KeyError:
                        raise StructuralError("bad cone for product pairing") from None

                return ProductResult(p, tuple(projs), pair)
    raise CapabilityError(f"no product found for {objs}")


def window_fincat(V: MonBase) -> FinCat:
    """Materialize the quantification window of a base as explicit tables.

    For table bases this is the stored category; for computed bases the
    window objects with their full homs and composition.
    """
    if isinstance(V, FinMonCat):
        return V.cat
    objs = list(V.objects())
    return FinCat.tabulate(
        len(objs),
        {(a, b): V.hom(a, b) for a in objs for b in objs},
        V.id_of,
        lambda a, b, c, f, g: V.compose(f, g),
    )


# ---------------------------------------------------------------------------
# law checkers
# ---------------------------------------------------------------------------

def _window_homs(C):
    """The window objects, and each window hom as a MorRef list; a hom larger
    than DEFAULT_HOM_CAP is None, and the scans skip the instances needing it."""
    objs = list(C.objects())
    homs = {}
    for a in objs:
        for b in objs:
            n = C.hom_size(a, b)
            homs[(a, b)] = None if n > DEFAULT_HOM_CAP else [MorRef(a, b, k) for k in range(n)]
    return objs, homs


#: The largest hom whose index rows check_category holds as ``bytes``.
BYTES_ROW = 256
#: a MorRef's index within its hom, as a C-level getter
_index = operator.itemgetter(2)


@law_scan
def check_category(col: Collector, C) -> None:
    """Exhaustive identity and associativity scan over the window.

    Malformed tables (out-of-range indices, non-composable entries) raise
    StructuralError; law violations are reported. A base certified thin
    (``C.thin``) is not scanned: each law compares two composites in a hom
    with at most one morphism.

    The identity laws and the composition tables run a hom at a time through
    the batched calls ``compose_each`` and ``each_compose``, so the scan
    order, which ``limit`` reads, is hom-major there; an unlimited report is
    sorted and does not depend on it. The table ``comp[a, b, c]`` holds, for
    each f in hom(a, b), the row of indices of f;g over g in hom(b, c): bytes
    when hom(a, c) has at most 256 morphisms, else a list. Associativity at
    (a, b, c, d) with byte rows into hom(b, d) and hom(a, d) is one
    comparison per f = i in hom(a, b): the rows of T2 = comp[a, c, d] at the
    entries of T1 = comp[a, b, c] row i, joined, against the rows of
    U1 = comp[b, c, d], joined once per table and translated through row i
    of U2 = comp[a, b, d], padded once per table. Only an f whose rows differ,
    and every f of a list table, runs the instance loop, which names each
    failing (f, g, h) in scan order.
    """
    if isinstance(C, FinCat):
        C.validate()
    elif C.thin:
        return
    objs, homs = _window_homs(C)

    # identity laws, plus shape validation of every identity component
    for x in objs:
        i = C.id_of(x)
        require_mor_shape(C, i, x, x)
    for (a, b), fs in homs.items():
        if not fs:
            continue
        lhs = C.compose_each(C.id_of(a), fs)
        _require_row_shape(C, lhs, a, b)
        rhs = C.each_compose(fs, C.id_of(b))
        _require_row_shape(C, rhs, a, b)
        _add_row(col, "identity-left", lhs, fs, fs)
        _add_row(col, "identity-right", rhs, fs, fs)

    # composition index tables: comp[a, b, c][i][j] = k, the index of
    # hom(a, b)[i] ; hom(b, c)[j] in hom(a, c)
    comp: dict = {}
    for a, b, c in itertools.product(objs, repeat=3):
        fs, gs = homs[a, b], homs[b, c]
        if not fs or not gs:
            continue
        hs = homs[a, c]
        index_row = bytes if hs is not None and len(hs) <= BYTES_ROW else list
        rows = []
        for f in fs:
            fgs = C.compose_each(f, gs)
            _require_row_shape(C, fgs, a, c)
            rows.append(index_row(map(_index, fgs)))
        comp[a, b, c] = rows
    # per byte table: its rows joined, and each row padded to a translation
    # table; and per (b, c), the tables comp[b, c, d] in the order of d
    joined, padded, after = {}, {}, {}
    for (b, c, d), rows in comp.items():
        if type(rows[0]) is bytes:
            joined[b, c, d] = b"".join(rows)
            padded[b, c, d] = [row.ljust(256, b"\0") for row in rows]
        after.setdefault((b, c), []).append((d, rows))

    # every (a, b, c, d) whose four tables exist, in lexicographic order
    join = b"".join
    for (a, b, c), T1 in comp.items():
        for d, U1 in after.get((b, c), ()):
            T2 = comp.get((a, c, d))
            U2 = comp.get((a, b, d))
            if T2 is None or U2 is None:
                continue
            U1_joined = joined.get((b, c, d))
            U2_padded = padded.get((a, b, d))
            if U1_joined is None or U2_padded is None:
                for i, T1_i in enumerate(T1):
                    _check_associativity_at(col, (a, b, c, d), i, T1_i, T2, U1, U2[i])
                continue
            take = T2.__getitem__
            for i, rhs in enumerate(map(U1_joined.translate, U2_padded)):
                T1_i = T1[i]
                if join(map(take, T1_i)) != rhs:
                    _check_associativity_at(col, (a, b, c, d), i, T1_i, T2, U1, U2[i])


def _check_associativity_at(col: Collector, objs: tuple, i: int, T1_i, T2: list, U1: list, U2_i) -> None:
    """Report each (f, g, h) with f = hom(a, b)[i] whose two composites
    differ, g- then h-major, from check_category's index tables."""
    a, b, c, d = objs
    index_row = type(U2_i)
    for j, t in enumerate(T1_i):
        lhs_row = T2[t]
        rhs_row = index_row(map(U2_i.__getitem__, U1[j]))
        if lhs_row != rhs_row:
            for k, (l, r) in enumerate(zip(lhs_row, rhs_row)):
                if l != r:
                    col.add(
                        "associativity",
                        (MorRef(a, b, i), MorRef(b, c, j), MorRef(c, d, k)),
                        MorRef(a, d, l),
                        MorRef(a, d, r),
                    )


def _require_row_shape(V, row: list, src: int, dst: int) -> None:
    """require_mor_shape on each morphism of a row, reading hom(src, dst)'s
    size once."""
    n = None
    for m in row:
        if type(m) is not MorRef or m.src != src or m.dst != dst:
            require_mor_shape(V, m, src, dst)
        if n is None:
            n = V.hom_size(src, dst)
        if not 0 <= m.k < n:
            require_mor_shape(V, m, src, dst)


def _add_row(col: Collector, law: str, lhs: list, rhs: list, ms: list, before: tuple = (), after: tuple = ()) -> None:
    """Report each position j where two rows of a batched scan differ, at
    the instance (*before, ms[j], *after)."""
    if lhs != rhs:
        for m, l, r in zip(ms, lhs, rhs):
            if l != r:
                col.add(law, (*before, m, *after), l, r)


def _check_iso_pair(V, col, law, instance, fwd, inv, src, dst):
    require_mor_shape(V, fwd, src, dst)
    require_mor_shape(V, inv, dst, src)
    if V.compose(fwd, inv) != V.id_of(src):
        col.add(law, instance, V.compose(fwd, inv), V.id_of(src))
    if V.compose(inv, fwd) != V.id_of(dst):
        col.add(law, instance, V.compose(inv, fwd), V.id_of(dst))


@law_scan
def check_monoidal(col: Collector, V: MonBase) -> None:
    """Bifunctoriality of the tensor, unitor/associator invertibility and
    naturality, triangle and pentagon, over every window instance.

    Bifunctoriality is checked through its generating family (identity
    preservation, both whisker decompositions, slotwise functoriality), which
    is equivalent to full interchange and quadratically cheaper. A base
    certified thin (``V.thin``) is not scanned: each diagram compares two
    parallel, well-shaped morphisms in a hom with at most one element.

    The whisker decompositions, slotwise functoriality and unitor and
    associator naturality run a row at a time: one fixed morphism against a
    list drawn from one hom, evaluated by the base's batched calls
    (``compose_each``, ``each_compose``, ``tensor_each``, ``each_tensor``).
    So the scan order, which ``limit`` reads, is hom-major there; an
    unlimited report is sorted and does not depend on it. Every instance of
    a row has the same shape, so a row that leaves the window raises
    WindowExceeded for all of them and is skipped as a unit, and the
    collector counts its instances.
    """
    if V.thin:
        return
    objs, homs = _window_homs(V)
    I = V.unit

    # the whiskers of a whole window hom by one object recur in every law
    # family, as rows memoised within the call, each built by one batched
    # call: right(ab, y) is [f (x) id_y for f in hom ab] and left(y, ab) is
    # [id_y (x) f for f in hom ab]. A row whose shape leaves the window
    # raises WindowExceeded, and the instances that read it are skipped.
    right = functools.cache(lambda ab, y: V.each_tensor(homs[ab], V.id_of(y)))
    left = functools.cache(lambda y, ab: V.tensor_each(V.id_of(y), homs[ab]))
    # the same rows as tables keyed by morphism
    right_table = functools.cache(lambda ab, y: dict(zip(homs[ab], right(ab, y))))
    left_table = functools.cache(lambda y, ab: dict(zip(homs[ab], left(y, ab))))

    def whiskered(ms, y, on_right):
        """The whiskers of ms, a list drawn from one hom. When that is a
        window hom they are read off its table, as many lists share their
        morphisms; else, or for a list the table does not cover, they are
        one batched call."""
        if ms:
            ab = (ms[0].src, ms[0].dst)
            if homs.get(ab) is not None:
                table = right_table(ab, y) if on_right else left_table(y, ab)
                try:
                    return list(map(table.__getitem__, ms))
                except KeyError:
                    pass
        i = V.id_of(y)
        return V.each_tensor(ms, i) if on_right else V.tensor_each(i, ms)

    # tensor preserves identities
    for x, y in itertools.product(objs, repeat=2):
        try:
            xy = V.tensor_obj(x, y)
            t = V.tensor_mor(V.id_of(x), V.id_of(y))
            require_mor_shape(V, t, xy, xy)
            if t != V.id_of(xy):
                col.add("tensor-id", (x, y), t, V.id_of(xy))
        except WindowExceeded:
            col.skip("tensor-id")

    # whisker decompositions over all window pairs, a row per f over hom(c, d)
    for (a, b), fs in homs.items():
        if not fs:
            continue
        for i, f in enumerate(fs):
            for (c, d), gs in homs.items():
                if not gs:
                    continue
                try:
                    fgs = V.tensor_each(f, gs)
                    _require_row_shape(V, fgs, V.tensor_obj(a, c), V.tensor_obj(b, d))
                    split = V.compose_each(right((a, b), c)[i], left(b, (c, d)))
                    _add_row(col, "tensor-left-decomp", fgs, split, gs, (f,))
                    split = V.each_compose(left(a, (c, d)), right((a, b), d)[i])
                    _add_row(col, "tensor-right-decomp", fgs, split, gs, (f,))
                except WindowExceeded:
                    col.skip("tensor-decomp", len(gs))

    # slotwise functoriality over composable pairs and window objects, a row
    # per (f, y) over hom(b, c)
    for a, b, c in itertools.product(objs, repeat=3):
        fs, f2s = homs[a, b], homs[b, c]
        if not fs or not f2s:
            continue
        for i, f in enumerate(fs):
            ff2s = V.compose_each(f, f2s)
            for y in objs:
                try:
                    lhs = whiskered(ff2s, y, True)
                    rhs = V.compose_each(right((a, b), y)[i], right((b, c), y))
                    _add_row(col, "tensor-left-funct", lhs, rhs, f2s, (f,), (y,))
                    lhs = whiskered(ff2s, y, False)
                    rhs = V.compose_each(left(y, (a, b))[i], left(y, (b, c)))
                    _add_row(col, "tensor-right-funct", lhs, rhs, f2s, (f,), (y,))
                except WindowExceeded:
                    col.skip("tensor-funct", len(f2s))

    # unitor and associator invertibility
    for x in objs:
        try:
            _check_iso_pair(V, col, "lunitor-iso", (x,), V.lunitor(x), V.lunitor_inv(x), V.tensor_obj(I, x), x)
            _check_iso_pair(V, col, "runitor-iso", (x,), V.runitor(x), V.runitor_inv(x), V.tensor_obj(x, I), x)
        except WindowExceeded:
            col.skip("unitor-iso")
    for x, y, z in itertools.product(objs, repeat=3):
        try:
            _check_iso_pair(
                V, col, "associator-iso", (x, y, z),
                V.associator(x, y, z), V.associator_inv(x, y, z),
                V.tensor_obj(V.tensor_obj(x, y), z), V.tensor_obj(x, V.tensor_obj(y, z)),
            )
        except WindowExceeded:
            col.skip("associator-iso")

    # unitor naturality, a hom at a time
    for (a, b), fs in homs.items():
        if not fs:
            continue
        try:
            lhs = V.each_compose(left(I, (a, b)), V.lunitor(b))
            rhs = V.compose_each(V.lunitor(a), fs)
            _add_row(col, "lunitor-natural", lhs, rhs, fs)
            lhs = V.each_compose(right((a, b), I), V.runitor(b))
            rhs = V.compose_each(V.runitor(a), fs)
            _add_row(col, "runitor-natural", lhs, rhs, fs)
        except WindowExceeded:
            col.skip("unitor-natural", len(fs))

    # associator naturality, one slot at a time, a hom at a time
    for (a, b), fs in homs.items():
        if not fs:
            continue
        for y, z in itertools.product(objs, repeat=2):
            try:
                yz = V.tensor_obj(y, z)
                lhs = V.each_compose(whiskered(right((a, b), y), z, True), V.associator(b, y, z))
                rhs = V.compose_each(V.associator(a, y, z), right((a, b), yz))
                _add_row(col, "associator-natural-1", lhs, rhs, fs, (), (y, z))
                lhs = V.each_compose(whiskered(left(y, (a, b)), z, True), V.associator(y, b, z))
                rhs = V.compose_each(V.associator(y, a, z), whiskered(right((a, b), z), y, False))
                _add_row(col, "associator-natural-2", lhs, rhs, fs, (y,), (z,))
                lhs = V.each_compose(left(yz, (a, b)), V.associator(y, z, b))
                rhs = V.compose_each(V.associator(y, z, a), whiskered(left(z, (a, b)), y, False))
                _add_row(col, "associator-natural-3", lhs, rhs, fs, (y, z))
            except WindowExceeded:
                col.skip("associator-natural", len(fs))

    # triangle
    for x, y in itertools.product(objs, repeat=2):
        try:
            lhs = V.compose(V.associator(x, I, y), V.tensor_mor(V.id_of(x), V.lunitor(y)))
            rhs = V.tensor_mor(V.runitor(x), V.id_of(y))
            if lhs != rhs:
                col.add("triangle", (x, y), lhs, rhs)
        except WindowExceeded:
            col.skip("triangle")

    # pentagon
    for w, x, y, z in itertools.product(objs, repeat=4):
        try:
            lhs = V.compose_all(
                V.tensor_mor(V.associator(w, x, y), V.id_of(z)),
                V.associator(w, V.tensor_obj(x, y), z),
                V.tensor_mor(V.id_of(w), V.associator(x, y, z)),
            )
            rhs = V.compose(
                V.associator(V.tensor_obj(w, x), y, z),
                V.associator(w, x, V.tensor_obj(y, z)),
            )
            if lhs != rhs:
                col.add("pentagon", (w, x, y, z), lhs, rhs)
        except WindowExceeded:
            col.skip("pentagon")


@law_scan
def check_symmetric(col: Collector, V: MonBase) -> None:
    """Symmetry involution, naturality, and the hexagon, over the window. A
    base certified thin (``V.thin``) is not scanned, as in check_monoidal.

    Naturality is checked one variable at a time, a row at a time: for each
    window hom(a, b) and window object y, at the pairs (f, id_y) and
    (id_y, f) for f in the hom, leaving out (id_y, id_a), which is checked
    as (f, id_y) from hom(y, y). A transformation between bifunctors is
    natural iff it is natural in each variable separately (Mac Lane, CWM
    II.3), so this verdict alone presupposes that (x) is a bifunctor, which
    ``check_monoidal`` decides; ``ecat check`` runs both families. The
    report is the per-pair scan's restricted to the pairs with an identity
    side. A (hom, y) block that leaves the window is skipped and counted as
    its instances."""
    if not V.symmetric:
        raise CapabilityError("base has no symmetry")
    if V.thin:
        return
    objs, homs = _window_homs(V)
    sym = functools.cache(V.symmetry)

    for x, y in itertools.product(objs, repeat=2):
        try:
            s = sym(x, y)
            s_back = sym(y, x)
            require_mor_shape(V, s, V.tensor_obj(x, y), V.tensor_obj(y, x))
            roundtrip = V.compose(s, s_back)
            if roundtrip != V.id_of(V.tensor_obj(x, y)):
                col.add("symmetry-inverse", (x, y), roundtrip, V.id_of(V.tensor_obj(x, y)))
        except WindowExceeded:
            col.skip("symmetry-inverse")

    # naturality, two rows per hom(a, b) and y: slot 1 at (f, id_y), slot 2
    # at (id_y, f), both from the whiskers f (x) y and y (x) f
    ids = {y: V.id_of(y) for y in objs if homs[(y, y)]}
    for (a, b), fs in homs.items():
        if not fs:
            continue
        ida = V.id_of(a) if a == b else None
        drop = fs.index(ida) if ida in fs else None
        others = fs if drop is None else fs[:drop] + fs[drop + 1:]
        for y, idy in ids.items():
            try:
                fy, yf = V.each_tensor(fs, idy), V.tensor_each(idy, fs)
                lhs = V.each_compose(fy, sym(b, y))
                rhs = V.compose_each(sym(a, y), yf)
                _add_row(col, "symmetry-natural", lhs, rhs, fs, (), (idy,))
                lhs = V.each_compose(yf, sym(y, b))
                rhs = V.compose_each(sym(y, a), fy)
                if drop is not None:
                    del lhs[drop], rhs[drop]
                _add_row(col, "symmetry-natural", lhs, rhs, others, (idy,))
            except WindowExceeded:
                col.skip("symmetry-natural", len(fs) + len(others))

    for x, y, z in itertools.product(objs, repeat=3):
        try:
            lhs = V.compose_all(
                V.associator(x, y, z),
                V.symmetry(x, V.tensor_obj(y, z)),
                V.associator(y, z, x),
            )
            rhs = V.compose_all(
                V.tensor_mor(V.symmetry(x, y), V.id_of(z)),
                V.associator(y, x, z),
                V.tensor_mor(V.id_of(y), V.symmetry(x, z)),
            )
            if lhs != rhs:
                col.add("hexagon", (x, y, z), lhs, rhs)
        except WindowExceeded:
            col.skip("hexagon")


@law_scan
def check_closed(col: Collector, V: MonBase) -> None:
    """lam bijectivity (both round trips) and naturality in the abstraction
    variable, at every window instance whose hom enumeration fits the cap.

    A base certified thin (``V.thin``) is not scanned. Its homs have at most
    one morphism, and ``FinMonCat._require_well_shaped`` makes hom(x (x) y, z)
    and hom(x, [y,z]) both empty or both one-element: lam of any f: x (x) y
    -> z has shape x -> [y,z], and for any g: x -> [y,z] the composite of
    ``tensor_mor(g, id_y)`` and ``ev(y, z)`` is a map x (x) y -> z. So the
    sizes agree, and every round trip and naturality square lies in a hom
    with at most one morphism.

    The round trips run a row at a time. For each (x, y, z), lam of every f
    in hom(x (x) y, z) forms one row, shape-checked once. unlam is computed
    as ``(g (x) id_y);ev``, the definition in ``MonBase.unlam``, by one
    ``each_tensor`` and one ``each_compose`` per row: beta compares the
    unlam of the lam row with hom(x (x) y, z), and eta compares lam of the
    unlam of hom(x, [y,z]) with that hom. Eta is built only on a row where
    beta fails: where the two homs have one size and unlam after lam is the
    identity, lam is a bijection and unlam its inverse, so eta holds.
    Failures are reported at (x, y, z, f) and (x, y, z, g) in hom order,
    beta before eta. Naturality composes each f with the whiskers of a
    whole hom in one batched call.
    An (x, y, z) or (x, x2, y, z) block that leaves the window is skipped
    and counted as one instance: the hom it would enumerate cannot be
    numbered. lam is memoised per argument within the call
    (``functools.cache``), through ``V.lam`` so that a mutated view is read.
    """
    if not V.closed:
        raise CapabilityError("base has no closed structure")
    if V.thin:
        return
    objs, _ = _window_homs(V)
    lam = functools.cache(V.lam)

    for x, y, z in itertools.product(objs, repeat=3):
        try:
            xy = V.tensor_obj(x, y)
            h = V.hom_obj(y, z)
            e = V.ev(y, z)
            require_mor_shape(V, e, V.tensor_obj(h, y), z)
            n_src = V.hom_size(xy, z)
            n_dst = V.hom_size(x, h)
            if n_src != n_dst:
                col.add("lam-bijective", (x, y, z), n_src, n_dst)
                continue
            if n_src > DEFAULT_HOM_CAP:
                continue  # deterministically skipped: enumeration beyond the cap
            i = V.id_of(y)
            fs = [MorRef(xy, z, k) for k in range(n_src)]
            lfs = [lam(x, y, z, f) for f in fs]
            _require_row_shape(V, lfs, x, h)
            backs = V.each_compose(V.each_tensor(lfs, i), e)
            if backs == fs:
                continue
            _add_row(col, "lam-beta", backs, fs, fs, (x, y, z))
            gs = [MorRef(x, h, k) for k in range(n_dst)]
            forths = [lam(x, y, z, u) for u in V.each_compose(V.each_tensor(gs, i), e)]
            _add_row(col, "lam-eta", forths, gs, gs, (x, y, z))
        except WindowExceeded:
            col.skip("lam-bijection")

    # naturality of the bijection in the abstraction variable; the instance
    # space is the product of two homs, so the cap bounds the product. The
    # whiskers h (x) id_y do not depend on z: build them in one batched call
    # per (x, x2, y), at the first z within the cap; each f composes with
    # all of them in one more
    for x, x2, y in itertools.product(objs, repeat=3):
        whiskers = None
        for z in objs:
            try:
                n_h = V.hom_size(x2, x)
                xy = V.tensor_obj(x, y)
                n_f = V.hom_size(xy, z)
                if n_h * n_f > DEFAULT_HOM_CAP:
                    continue
                if whiskers is None:
                    hs = [MorRef(x2, x, hk) for hk in range(n_h)]
                    whiskers = V.each_tensor(hs, V.id_of(y))
                for fk in range(n_f):
                    f = MorRef(xy, z, fk)
                    lam_f = lam(x, y, z, f)
                    lhs = [lam(x2, y, z, m) for m in V.each_compose(whiskers, f)]
                    rhs = V.each_compose(hs, lam_f)
                    _add_row(col, "lam-natural", lhs, rhs, hs, (), (f,))
            except WindowExceeded:
                col.skip("lam-natural")


def base_law_checks(V: MonBase):
    """The (family, checker) pairs of the law families that apply to V."""
    yield "category", check_category
    yield "monoidal", check_monoidal
    if V.symmetric:
        yield "symmetric", check_symmetric
    if V.closed:
        yield "closed", check_closed


# ---------------------------------------------------------------------------
# builtin bases
# ---------------------------------------------------------------------------

def _thin_monoidal(
    n: int,
    leq: Callable[[int, int], bool],
    unit: int,
    tensor: Callable[[int, int], int],
    hom_obj: Callable[[int, int], int] | None,
    name: str,
) -> FinMonCat:
    """Build a thin symmetric (closed when hom_obj given) monoidal table base."""
    cat = thin_category(n, {(a, b) for a in range(n) for b in range(n) if leq(a, b)})
    mors = list(cat.mors())

    def arrow(a, b):
        if not leq(a, b):
            raise StructuralError(f"no arrow {a} -> {b} in thin base {name}")
        return MorRef(a, b, 0)

    tensor_obj_t = {}
    tensor_mor_t = {}
    for a in range(n):
        for b in range(n):
            tensor_obj_t[(a, b)] = tensor(a, b)
    for f in mors:
        for g in mors:
            tensor_mor_t[(f, g)] = arrow(tensor(f.src, g.src), tensor(f.dst, g.dst))
    lun, lun_i, run, run_i = {}, {}, {}, {}
    for x in range(n):
        lun[x] = arrow(tensor(unit, x), x)
        lun_i[x] = arrow(x, tensor(unit, x))
        run[x] = arrow(tensor(x, unit), x)
        run_i[x] = arrow(x, tensor(x, unit))
    assoc, assoc_i = {}, {}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                a1 = tensor(tensor(x, y), z)
                a2 = tensor(x, tensor(y, z))
                assoc[(x, y, z)] = arrow(a1, a2)
                assoc_i[(x, y, z)] = arrow(a2, a1)
    sym = {}
    for x in range(n):
        for y in range(n):
            sym[(x, y)] = arrow(tensor(x, y), tensor(y, x))
    closed = None
    if hom_obj is not None:
        hom_obj_t, eval_t, lam_t = {}, {}, {}
        for y in range(n):
            for z in range(n):
                h = hom_obj(y, z)
                hom_obj_t[(y, z)] = h
                eval_t[(y, z)] = arrow(tensor(h, y), z)
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if leq(tensor(x, y), z):
                        f = MorRef(tensor(x, y), z, 0)
                        lam_t[(x, y, z, f)] = arrow(x, hom_obj(y, z))
        closed = ClosedData(hom_obj_t, eval_t, lam_t)
    return FinMonCat(
        cat, unit, tensor_obj_t, tensor_mor_t, lun, lun_i, run, run_i,
        assoc, assoc_i, sym, closed, name=name,
    )


def bool_base() -> FinMonCat:
    """Two-object thin base: truth values under conjunction, unit = true."""
    return _thin_monoidal(
        2,
        leq=lambda a, b: a <= b,
        unit=1,
        tensor=min,
        hom_obj=lambda a, b: 1 if a <= b else 0,
        name="bool",
    )


def cost_base(n: int) -> FinMonCat:
    """Truncated-addition base on {0..n, inf}: an arrow a -> b iff a >= b.

    Index n+1 plays infinity; [b, c] is truncated subtraction.
    """
    if n < 0:
        raise ValueError("cost base needs n >= 0")
    inf = n + 1

    def val_ge(a, b):
        # a >= b with index inf greatest
        aa = float("inf") if a == inf else a
        bb = float("inf") if b == inf else b
        return aa >= bb

    def plus(a, b):
        if a == inf or b == inf:
            return inf
        s = a + b
        return s if s <= n else inf

    def minus(c, b):
        # least x with plus(x, b) >= c, under truncation at n
        if b == inf:
            return 0
        if c == inf:
            return inf if n + 1 - b > n else max(n + 1 - b, 0)
        return max(c - b, 0)

    return _thin_monoidal(
        n + 2,
        leq=val_ge,
        unit=0,
        tensor=plus,
        hom_obj=lambda b, c: minus(c, b),
        name=f"cost({n})",
    )


def terminal_base() -> FinMonCat:
    """One object, one morphism; the collapse target for preservation tests."""
    return _thin_monoidal(
        1,
        leq=lambda a, b: True,
        unit=0,
        tensor=lambda a, b: 0,
        hom_obj=lambda a, b: 0,
        name="terminal",
    )


def builtin_base(name: str, **params) -> MonBase:
    """Construct a named builtin base.

    Known names: bool; cost (n); finset (k, the window of skeletal set sizes);
    finposet_struct / finpointedposet_struct (max_size, the carrier cap).
    """
    if name == "bool":
        if params:
            raise ValueError("bool takes no parameters")
        return bool_base()
    if name == "cost":
        n = params.pop("n", None)
        if n is None or params:
            raise ValueError("cost takes exactly n")
        return cost_base(int(n))
    if name == "finset":
        k = params.pop("k", None)
        if k is None or params:
            raise ValueError("finset takes exactly k")
        from .finset import FinSetCat

        return FinSetCat(int(k))
    if name in ("finposet_struct", "finpointedposet_struct"):
        cap = params.pop("max_size", None)
        if cap is None or params:
            raise ValueError(f"{name} takes exactly max_size")
        from .structures import PointedPosetStructure, PosetStructure, StructCat

        struct = PosetStructure() if name == "finposet_struct" else PointedPosetStructure()
        return StructCat(struct, int(cap))
    raise ValueError(f"unknown builtin base {name!r}")
