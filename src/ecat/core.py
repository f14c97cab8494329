"""Enrichments of finite categories and their exhaustive law checkers.

An enrichment equips a finite category ``under`` with hom-objects in a
monoidal base, enriched identity/composition morphisms, and a bijection
between the morphisms of ``under`` and the base morphisms out of the unit
(``from_arr``, with ``to_arr`` derived by inversion).

Entries of ``e_id``/``e_comp``/``from_arr`` may be absent; over thin bases a
non-preorder or triangle-violating candidate has no morphism to store, and
check_enrichment reports the absence as a failure of the corresponding
diagram rather than refusing the data.

The underlying category of an enrichment and the Kelly round trip are one
construction: ``underlying_category(E)`` is ``from_kelly(to_kelly(E)).under``,
and ``kelly_round_trip_iso(E)`` is the identity-on-objects isomorphism from
E onto that round trip.

Every constructed enrichment and functor is built by ``Enrichment.tabulate``
or ``EnrichedFunctor.tabulate`` from one rule per table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

from .report import Collector, StructuralError, law_scan
from .vbase import FinCat, MonBase, MorRef, require_mor_shape, thin_category


@dataclass(eq=False)
class Enrichment:
    """An enrichment of ``under`` over ``base``. The constructor copies the
    four tables it is given, ``tabulate`` keeps the tables it has just
    built, and ``hom_obj_t``, ``e_id_t``, ``e_comp_t`` and ``from_arr_t``
    are read-only views of the stored dicts."""

    base: MonBase
    under: FinCat
    hom_obj_t: Mapping
    e_id_t: Mapping
    e_comp_t: Mapping
    from_arr_t: Mapping
    name: str = ""
    _to_arr: dict = field(default=None, repr=False)
    #: The tables passed ``validate``, or ``tabulate`` checked them as it
    #: stored them; being read-only, they cannot stop passing.
    _checked: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        self._store(dict(self.hom_obj_t), dict(self.e_id_t), dict(self.e_comp_t), dict(self.from_arr_t))

    def _store(self, hom_obj: dict, e_id: dict, e_comp: dict, from_arr: dict) -> None:
        """Keep the dicts themselves: no other reference to them may remain."""
        # lookups read the dicts: a view costs more per call
        self._hom_obj, self._e_id, self._e_comp, self._from_arr = hom_obj, e_id, e_comp, from_arr
        self.hom_obj_t = MappingProxyType(hom_obj)
        self.e_id_t = MappingProxyType(e_id)
        self.e_comp_t = MappingProxyType(e_comp)
        self.from_arr_t = MappingProxyType(from_arr)

    @classmethod
    def tabulate(cls, base: MonBase, under: FinCat, hom_obj: Callable, eid: Callable, ecomp: Callable,
                 farr: Callable, name: str = "") -> "Enrichment":
        """The enrichment of ``under`` with one rule per table: ``hom_obj(x,
        y)``, ``eid(x)``, ``ecomp(x, y, z)`` and ``farr(f)``. The last three
        may return None, which leaves the entry absent for the checker to
        report. The rules run in a fixed order, which numbers the objects a
        computed base registers: hom objects over (x, y), then eid over x,
        then ecomp over (x, y, z), then farr over ``under.mors()``. Every
        constructed enrichment is built this way.

        ``under`` is validated first, and each entry is shape-checked as it
        is stored, against the hom objects already stored, so a malformed
        entry raises StructuralError here and ``check_enrichment`` does not
        check the result again. The check is ``require_mor_shape``, except
        that a ``MorRef`` it already passed in this call is accepted again
        wherever both of its ends match."""
        V, I = base, base.unit
        under.validate()
        objs = under.objects()
        rows = [[hom_obj(x, y) for y in objs] for x in objs]
        for x, row in zip(objs, rows):
            for y, h in zip(objs, row):
                if not V.contains_obj(h):
                    raise StructuralError(f"hom object {h} at ({x},{y}) is not a base object")
        known = set()

        def shaped(m, src, dst):
            if m.__class__ is not MorRef or m not in known or m.src != src or m.dst != dst:
                require_mor_shape(V, m, src, dst)
                known.add(m)
            return m

        e_id_t = {x: shaped(m, I, rows[x][x]) for x in objs if (m := eid(x)) is not None}
        # n^3 entries: the tensor of each hom pair is computed once, and
        # shaped's test runs inline rather than in a frame per entry
        e_comp_t = {}
        tensors = {}
        for x in objs:
            row_x = rows[x]
            for y in objs:
                row_y, h_xy = rows[y], row_x[y]
                tensor = tensors.get(h_xy)
                if tensor is None:
                    tensor = tensors[h_xy] = {}
                for z in objs:
                    m = ecomp(x, y, z)
                    if m is None:
                        continue
                    h_yz = row_y[z]
                    src = tensor.get(h_yz)
                    if src is None:
                        src = tensor[h_yz] = V.tensor_obj(h_yz, h_xy)
                    if m.__class__ is not MorRef or m not in known or m.src != src or m.dst != row_x[z]:
                        require_mor_shape(V, m, src, row_x[z])
                        known.add(m)
                    e_comp_t[x, y, z] = m
        from_arr_t = {f: shaped(m, I, rows[f.src][f.dst]) for f in under.mors() if (m := farr(f)) is not None}
        hom_obj_t = {(x, y): h for x, row in zip(objs, rows) for y, h in zip(objs, row)}
        E = cls.__new__(cls)
        E.base, E.under, E.name, E._to_arr = base, under, name, None
        E._store(hom_obj_t, e_id_t, e_comp_t, from_arr_t)
        E._checked = True
        return E

    @property
    def n_objects(self) -> int:
        return self.under.n_objects

    def objects(self):
        return self.under.objects()

    def hom(self, x: int, y: int) -> int:
        try:
            return self._hom_obj[(x, y)]
        except KeyError:
            raise StructuralError(f"missing hom object at ({x},{y})") from None

    def eid(self, x: int) -> MorRef | None:
        return self._e_id.get(x)

    def ecomp(self, x: int, y: int, z: int) -> MorRef | None:
        return self._e_comp.get((x, y, z))

    def farr(self, f: MorRef) -> MorRef | None:
        return self._from_arr.get(f)

    def tarr(self, x: int, y: int, m: MorRef) -> MorRef | None:
        """Inverse of from_arr on the hom pair (x, y)."""
        if self._to_arr is None:
            inv = {}
            for f, v in self._from_arr.items():
                inv.setdefault((f.src, f.dst), {})[v] = f
            object.__setattr__(self, "_to_arr", inv)
        return self._to_arr.get((x, y), {}).get(m)

    def validate(self) -> None:
        """Raise StructuralError if the underlying category is malformed or
        an entry is not a base object or morphism of its shape. Tables that
        ``tabulate`` checked as it stored them, or that passed here before,
        are not checked again."""
        if self._checked:
            return
        self.under.validate()
        _shape_enrichment(self)
        self._checked = True

    def data_equal(self, other: "Enrichment") -> bool:
        return (
            self.under == other.under
            and self._hom_obj == other._hom_obj
            and self._e_id == other._e_id
            and self._e_comp == other._e_comp
            and self._from_arr == other._from_arr
        )

    def __repr__(self):
        label = self.name or "enrichment"
        return f"<{label}: {self.n_objects} objects over {getattr(self.base, 'name', 'base')}>"


@dataclass(eq=False)
class EnrichedFunctor:
    dom: Enrichment
    cod: Enrichment
    ob_map: dict
    mor_map: dict
    e_fun_t: dict
    name: str = ""

    @classmethod
    def tabulate(cls, dom: Enrichment, cod: Enrichment, ob: Callable, mor: Callable, e_fun: Callable,
                 name: str = "") -> "EnrichedFunctor":
        """The functor dom -> cod with one total rule per table, run in a
        fixed order: ``ob(x)`` over the objects, then ``mor(f)`` over
        ``dom.under.mors()``, then ``e_fun(x, y)`` over pairs of objects.
        Every constructed functor is built this way."""
        objs = dom.objects()
        ob_map = {x: ob(x) for x in objs}
        mor_map = {f: mor(f) for f in dom.under.mors()}
        e_fun_t = {(x, y): e_fun(x, y) for x in objs for y in objs}
        return cls(dom, cod, ob_map, mor_map, e_fun_t, name=name)

    def ob(self, x: int) -> int:
        try:
            return self.ob_map[x]
        except KeyError:
            raise StructuralError(f"functor undefined on object {x}") from None

    def mor(self, f: MorRef) -> MorRef:
        try:
            return self.mor_map[f]
        except KeyError:
            raise StructuralError(f"functor undefined on morphism {f}") from None

    def e_fun(self, x: int, y: int) -> MorRef:
        try:
            return self.e_fun_t[(x, y)]
        except KeyError:
            raise StructuralError(f"functor enrichment missing at ({x},{y})") from None

    def data_equal(self, other: "EnrichedFunctor") -> bool:
        return (
            self.ob_map == other.ob_map
            and self.mor_map == other.mor_map
            and self.e_fun_t == other.e_fun_t
        )

    def table_key(self):
        return (
            tuple(sorted(self.ob_map.items())),
            tuple(sorted(self.e_fun_t.items())),
        )

    def __repr__(self):
        label = self.name or "functor"
        obs = dict(sorted(self.ob_map.items()))
        return f"<{label}: ob={obs}>"


@dataclass(eq=False)
class EnrichedTransformation:
    src: EnrichedFunctor
    dst: EnrichedFunctor
    component: dict
    name: str = ""

    def at(self, x: int) -> MorRef:
        try:
            return self.component[x]
        except KeyError:
            raise StructuralError(f"transformation missing component at {x}") from None

    def __repr__(self):
        label = self.name or "transformation"
        comps = dict(sorted(self.component.items()))
        return f"<{label}: {comps}>"


@dataclass(eq=False)
class KellyEnrichedCat:
    """Hom-objects with unit/composition morphisms, no underlying category."""

    base: MonBase
    n_objects: int
    hom_obj_t: dict
    e_id_t: dict
    e_comp_t: dict

    def hom(self, x, y):
        try:
            return self.hom_obj_t[(x, y)]
        except KeyError:
            raise StructuralError(f"missing hom object at ({x},{y})") from None

    def eid(self, x):
        return self.e_id_t.get(x)

    def ecomp(self, x, y, z):
        return self.e_comp_t.get((x, y, z))


# ---------------------------------------------------------------------------
# derived base-level composites
# ---------------------------------------------------------------------------

def required_ecomp(E: Enrichment | KellyEnrichedCat, x: int, y: int, z: int) -> MorRef:
    """The enriched composition at (x, y, z), for callers that cannot do without it."""
    try:
        return E.e_comp_t[x, y, z]
    except KeyError:
        raise StructuralError(f"missing ecomp entry at ({x},{y},{z})") from None


def required_farr(E: Enrichment, f: MorRef) -> MorRef:
    """from_arr at f, for callers that cannot do without it."""
    try:
        return E.from_arr_t[f]
    except KeyError:
        raise StructuralError(f"missing fromarr entry at {f}") from None


def underlying_comp(E: Enrichment | KellyEnrichedCat, u: MorRef, v: MorRef, x: int, y: int, z: int) -> MorRef:
    """Composite of u: I -> E(x,y) and v: I -> E(y,z) as I -> E(x,z)."""
    V = E.base
    return V.compose_all(V.lunitor_inv(V.unit), V.tensor_mor(v, u), required_ecomp(E, x, y, z))


def precompose_mor(E: Enrichment, w: int, f: MorRef) -> MorRef:
    """The composite E(w,x) -> E(w,y) for f: x -> y in the underlying data.

    Direction note: despite the name this *post*-composes f pointwise
    (g gets sent to g then f); the name follows the displayed composite
    lunitor_inv, from_arr(f) tensor id, enriched composition.
    """
    V = E.base
    fa, ec = required_farr(E, f), required_ecomp(E, w, f.src, f.dst)
    e_wx = E.hom(w, f.src)
    return V.compose_all(V.lunitor_inv(e_wx), V.tensor_mor(fa, V.id_of(e_wx)), ec)


def postcompose_mor(E: Enrichment, z: int, f: MorRef) -> MorRef:
    """The composite E(y,z) -> E(x,z) for f: x -> y: runitor_inv, id tensor
    from_arr(f), enriched composition. Changes the first hom slot."""
    V = E.base
    fa, ec = required_farr(E, f), required_ecomp(E, f.src, f.dst, z)
    e_yz = E.hom(f.dst, z)
    return V.compose_all(V.runitor_inv(e_yz), V.tensor_mor(V.id_of(e_yz), fa), ec)


# ---------------------------------------------------------------------------
# enrichment checker
# ---------------------------------------------------------------------------

def _shape_hom_tables(K, objs) -> None:
    """Structural pass over the hom objects and the present ``e_id`` and
    ``e_comp`` entries of an enrichment or a Kelly presentation."""
    V = K.base
    I = V.unit
    for x in objs:
        for y in objs:
            h = K.hom(x, y)
            if not V.contains_obj(h):
                raise StructuralError(f"hom object {h} at ({x},{y}) is not a base object")
    for x, m in K.e_id_t.items():
        require_mor_shape(V, m, I, K.hom(x, x))
    for (x, y, z), m in K.e_comp_t.items():
        require_mor_shape(V, m, V.tensor_obj(K.hom(y, z), K.hom(x, y)), K.hom(x, z))


def _shape_enrichment(E: Enrichment) -> None:
    """Structural pass over raw tables: every present entry has the right
    shape."""
    _shape_hom_tables(E, E.objects())
    V = E.base
    for f, m in E.from_arr_t.items():
        require_mor_shape(V, m, V.unit, E.hom(f.src, f.dst))


def _scan_data_present(K, objs, col: Collector) -> None:
    """Report each absent enriched identity and composition of an enrichment
    or a Kelly presentation. The shape pass has run, and it refuses a None
    entry, so an entry is absent iff its key is not in the table."""
    for x in itertools.filterfalse(K.e_id_t.__contains__, objs):
        col.add("identity", (x,))
    for key in itertools.filterfalse(K.e_comp_t.__contains__, itertools.product(objs, repeat=3)):
        col.add("composition", key)


def _scan_unit_assoc(K, objs, col: Collector) -> None:
    """The left and right unit and the associativity diagrams of an
    enrichment or a Kelly presentation, at every instance whose data is
    present. The hom objects must be present (the shape pass ran).

    Each side of a diagram reads a few hom objects and entries, and the same
    arguments recur across instances. The whiskers and both associativity
    sides are memoised within the call by ``functools.cache``, each keyed by
    every argument it reads and nothing else, and each computed through V so
    that a mutated view is read."""
    V = K.base
    hom = {(x, y): K.hom(x, y) for x, y in itertools.product(objs, repeat=2)}
    ecomp = {(x, y, z): K.ecomp(x, y, z) for x, y, z in itertools.product(objs, repeat=3)}
    t_left = functools.cache(lambda e, c: V.tensor_mor(V.id_of(e), c))
    t_right = functools.cache(lambda c, e: V.tensor_mor(c, V.id_of(e)))
    assoc_lhs = functools.cache(lambda e_yz, e_xy, e_wx, c_wxy, c_wyz: V.compose_all(
        V.associator(e_yz, e_xy, e_wx), t_left(e_yz, c_wxy), c_wyz))
    assoc_rhs = functools.cache(lambda c_xyz, e_wx, c_wxz: V.compose(t_right(c_xyz, e_wx), c_wxz))

    for x, y in itertools.product(objs, repeat=2):
        e_xy = hom[x, y]
        ei_y, ei_x = K.eid(y), K.eid(x)
        ec_l = ecomp[x, y, y]
        ec_r = ecomp[x, x, y]
        if ei_y is not None and ec_l is not None:
            lhs = V.compose(t_right(ei_y, e_xy), ec_l)
            rhs = V.lunitor(e_xy)
            if lhs != rhs:
                col.add("left-unit", (x, y), lhs, rhs)
        if ei_x is not None and ec_r is not None:
            lhs = V.compose(t_left(e_xy, ei_x), ec_r)
            rhs = V.runitor(e_xy)
            if lhs != rhs:
                col.add("right-unit", (x, y), lhs, rhs)

    for w, x, y, z in itertools.product(objs, repeat=4):
        c_wxy = ecomp[w, x, y]
        c_wyz = ecomp[w, y, z]
        c_xyz = ecomp[x, y, z]
        c_wxz = ecomp[w, x, z]
        if None in (c_wxy, c_wyz, c_xyz, c_wxz):
            continue
        e_wx = hom[w, x]
        lhs = assoc_lhs(hom[y, z], hom[x, y], e_wx, c_wxy, c_wyz)
        rhs = assoc_rhs(c_xyz, e_wx, c_wxz)
        if lhs != rhs:
            col.add("associativity", (w, x, y, z), lhs, rhs)


@law_scan
def check_enrichment(col: Collector, E: Enrichment) -> None:
    """All enrichment law families at every instance.

    Families: identity/composition data present, left and right unit,
    associativity, from_arr bijectivity per hom pair, e_id agreement with
    from_arr(id), and from_arr functoriality. Over a base certified thin
    (``V.thin``) the unit, associativity and functoriality diagrams hold
    once their data is present and well-shaped, and are not scanned.

    Malformed tables raise StructuralError before any law is scanned. Each
    table is checked once, where it enters: ``FinCat.tabulate`` and
    ``Enrichment.tabulate`` build or shape-check their tables as they store
    them, and raw tables (the DSL resolver, ``change_of_base``, direct
    constructor calls) get the full structural pass on their first check.
    The tables are read-only after construction, so a check that passed
    still holds, and ``E.validate()`` does not repeat it.
    """
    E.validate()
    V = E.base
    I = V.unit
    objs = list(E.objects())

    # the tables are read directly: the structural pass refused None entries
    farr, hom_obj = E._from_arr.get, E._hom_obj
    _scan_data_present(E, objs, col)
    for f in itertools.filterfalse(E._from_arr.__contains__, E.under.mors()):
        col.add("from-arr-total", (f,))

    # from_arr bijectivity onto base(I, E(x,y)), per hom pair
    for x, y in itertools.product(objs, repeat=2):
        seen = {}
        fine = True
        for f in E.under.hom(x, y):
            v = farr(f)
            if v is None:
                fine = False
                continue
            if v in seen:
                col.add("from-arr-injective", (x, y), seen[v], f)
                fine = False
            seen[v] = f
        if fine and len(seen) != (points := V.hom_size(I, hom_obj[x, y])):
            col.add("from-arr-bijective", (x, y), len(seen), points)

    # e_id is from_arr of the identity
    for x in objs:
        ei = E._e_id.get(x)
        fa = farr(E.under.id_of(x))
        if ei is not None and fa is not None and ei != fa:
            col.add("identity-from-arr", (x,), ei, fa)

    # Over a certified-thin base each remaining diagram compares two
    # parallel, well-shaped morphisms (E.validate() holds for the entries)
    # in a hom with at most one element, so it commutes.
    if V.thin:
        return
    _scan_unit_assoc(E, objs, col)

    # from_arr functoriality: composition in `under` maps to the enriched
    # composite of the unit-shaped arrows
    for f in E.under.mors():
        for g in E.under.mors():
            if f.dst != g.src:
                continue
            u, v = E.farr(f), E.farr(g)
            if u is None or v is None or E.ecomp(f.src, f.dst, g.dst) is None:
                continue
            lhs = E.farr(E.under.compose(f, g))
            if lhs is None:
                continue
            rhs = underlying_comp(E, u, v, f.src, f.dst, g.dst)
            if lhs != rhs:
                col.add("from-arr-compose", (f, g), lhs, rhs)


# ---------------------------------------------------------------------------
# Kelly presentation round trip
# ---------------------------------------------------------------------------

@law_scan
def check_kelly(col: Collector, K: KellyEnrichedCat) -> None:
    """Unit and associativity diagrams of the Kelly-style presentation.

    A malformed hom, ``e_id`` or ``e_comp`` table raises StructuralError
    before any law is scanned. The tables are mutable, so every call runs
    that pass. Over a base certified thin (``V.thin``) the unit and
    associativity diagrams then hold once their data is present, as in
    ``check_enrichment``, and are not scanned."""
    objs = range(K.n_objects)
    _shape_hom_tables(K, objs)
    _scan_data_present(K, objs, col)
    if K.base.thin:
        return
    _scan_unit_assoc(K, objs, col)


def to_kelly(E: Enrichment) -> KellyEnrichedCat:
    return KellyEnrichedCat(
        base=E.base,
        n_objects=E.n_objects,
        hom_obj_t=dict(E.hom_obj_t),
        e_id_t=dict(E.e_id_t),
        e_comp_t=dict(E.e_comp_t),
    )


def from_kelly(K: KellyEnrichedCat) -> Enrichment:
    """Rebuild an enrichment whose underlying category is generated from K.

    Morphisms x -> y are the base morphisms I -> K(x,y), composed by
    underlying_comp, with identity from_arr tables.
    """
    V = K.base
    I = V.unit
    n = K.n_objects
    homs = {(x, y): V.hom(I, K.hom(x, y)) for x, y in itertools.product(range(n), repeat=2)}

    def identity(x):
        ei = K.eid(x)
        if ei is None:
            raise StructuralError(f"enriched identity missing at {x}")
        return ei

    under = FinCat.tabulate(n, homs, identity, lambda x, y, z, u, v: underlying_comp(K, u, v, x, y, z))
    return Enrichment.tabulate(V, under, K.hom, K.eid, K.ecomp, lambda m: homs[m.src, m.dst][m.k])


def underlying_category(E: Enrichment) -> FinCat:
    """The category with the same objects and hom(x,y) = base(I, E(x,y)):
    the underlying category of the Kelly round trip.

    Requires the identity and composition data; morphism k-indices are the
    base indices of I -> E(x,y).
    """
    return from_kelly(to_kelly(E)).under


def kelly_round_trip_iso(E: Enrichment) -> EnrichedFunctor:
    """Identity-on-objects enriched isomorphism E -> from_kelly(to_kelly(E)):
    identities on hom objects, from_arr on morphisms."""
    return EnrichedFunctor.tabulate(
        E, from_kelly(to_kelly(E)),
        lambda x: x,
        lambda f: MorRef(f.src, f.dst, required_farr(E, f).k),
        lambda x, y: E.base.id_of(E.hom(x, y)),
        name="kelly-round-trip",
    )


# ---------------------------------------------------------------------------
# functor and transformation checkers
# ---------------------------------------------------------------------------

@law_scan
def check_functor_enrichment(col: Collector, F: EnrichedFunctor) -> None:
    """Underlying functor laws, the enrichment triangle and square, and the
    from_arr compatibility, at all instances."""
    E1, E2 = F.dom, F.cod
    V = E1.base

    objs = E1.objects()
    ob = []  # the object map, read once per object
    for x in objs:
        fx = F.ob(x)
        if not (0 <= fx < E2.n_objects):
            raise StructuralError(f"functor maps {x} outside the codomain")
        ob.append(fx)
    for f in E1.under.mors():
        ff = F.mor(f)
        require_mor_shape(E2.under, ff, ob[f.src], ob[f.dst])
    for x, y in itertools.product(objs, repeat=2):
        require_mor_shape(V, F.e_fun(x, y), E1.hom(x, y), E2.hom(ob[x], ob[y]))

    for x in objs:
        if F.mor(E1.under.id_of(x)) != E2.under.id_of(ob[x]):
            col.add("underlying-identity", (x,), F.mor(E1.under.id_of(x)), E2.under.id_of(ob[x]))
    for f in E1.under.mors():
        for g in E1.under.mors():
            if f.dst != g.src:
                continue
            lhs = F.mor(E1.under.compose(f, g))
            rhs = E2.under.compose(F.mor(f), F.mor(g))
            if lhs != rhs:
                col.add("underlying-composition", (f, g), lhs, rhs)

    for x in objs:
        e1 = E1.eid(x)
        e2 = E2.eid(ob[x])
        if e1 is None or e2 is None:
            continue
        lhs = V.compose(e1, F.e_fun(x, x))
        if lhs != e2:
            col.add("functor-identity", (x,), lhs, e2)

    for x, y, z in itertools.product(objs, repeat=3):
        c1 = E1.ecomp(x, y, z)
        c2 = E2.ecomp(ob[x], ob[y], ob[z])
        if c1 is None or c2 is None:
            continue
        lhs = V.compose(c1, F.e_fun(x, z))
        rhs = V.compose(V.tensor_mor(F.e_fun(y, z), F.e_fun(x, y)), c2)
        if lhs != rhs:
            col.add("functor-composition", (x, y, z), lhs, rhs)

    for f in E1.under.mors():
        u1 = E1.farr(f)
        u2 = E2.farr(F.mor(f))
        if u1 is None or u2 is None:
            continue
        lhs = V.compose(u1, F.e_fun(f.src, f.dst))
        if lhs != u2:
            col.add("functor-from-arr", (f,), lhs, u2)


@law_scan
def check_nat_trans_enrichment(col: Collector, tau: EnrichedTransformation) -> None:
    """Underlying naturality plus BOTH enrichment formulations: the unitor
    hexagon and the pre/post-composition square. Their verdicts must agree;
    both are evaluated at every hom pair."""
    F1, F2 = tau.src, tau.dst
    E1, E2 = F1.dom, F1.cod
    V = E1.base
    if F2.dom is not E1 and not F2.dom.data_equal(E1):
        raise StructuralError("transformation endpoints have different domains")
    if F2.cod is not E2 and not F2.cod.data_equal(E2):
        raise StructuralError("transformation endpoints have different codomains")

    objs = E1.objects()
    for x in objs:
        require_mor_shape(E2.under, tau.at(x), F1.ob(x), F2.ob(x))
    # every component and object image exists now: the scans below read them
    # from lists, once per object
    comp = [tau.at(x) for x in objs]

    for f in E1.under.mors():
        lhs = E2.under.compose(F1.mor(f), comp[f.dst])
        rhs = E2.under.compose(comp[f.src], F2.mor(f))
        if lhs != rhs:
            col.add("naturality", (f,), lhs, rhs)

    ob1, ob2, fa = [F1.ob(x) for x in objs], [F2.ob(x) for x in objs], [E2.farr(m) for m in comp]
    for x, y in itertools.product(objs, repeat=2):
        e1 = E1.hom(x, y)
        c_right = E2.ecomp(ob1[x], ob2[x], ob2[y])
        c_left = E2.ecomp(ob1[x], ob1[y], ob2[y])
        if None in (fa[x], fa[y], c_right, c_left):
            continue
        hex_lhs = V.compose_all(
            V.runitor_inv(e1),
            V.tensor_mor(F2.e_fun(x, y), fa[x]),
            c_right,
        )
        hex_rhs = V.compose_all(
            V.lunitor_inv(e1),
            V.tensor_mor(fa[y], F1.e_fun(x, y)),
            c_left,
        )
        if hex_lhs != hex_rhs:
            col.add("nat-trans-hexagon", (x, y), hex_lhs, hex_rhs)

        sq_lhs = V.compose(F1.e_fun(x, y), precompose_mor(E2, ob1[x], comp[y]))
        sq_rhs = V.compose(F2.e_fun(x, y), postcompose_mor(E2, ob2[y], comp[x]))
        if sq_lhs != sq_rhs:
            col.add("nat-trans-square", (x, y), sq_lhs, sq_rhs)


# ---------------------------------------------------------------------------
# bicategorical plumbing: identities, composition, whiskering, inverses
# ---------------------------------------------------------------------------

def id_functor(E: Enrichment) -> EnrichedFunctor:
    V = E.base
    return EnrichedFunctor.tabulate(E, E, lambda x: x, lambda f: f, lambda x, y: V.id_of(E.hom(x, y)), name="id")


def compose_functors(F: EnrichedFunctor, G: EnrichedFunctor) -> EnrichedFunctor:
    """Diagrammatic composite: F then G."""
    if F.cod is not G.dom and not F.cod.data_equal(G.dom):
        raise StructuralError("functors are not composable")
    V = F.dom.base
    return EnrichedFunctor.tabulate(
        F.dom, G.cod,
        lambda x: G.ob(F.ob(x)),
        lambda f: G.mor(F.mor(f)),
        lambda x, y: V.compose(F.e_fun(x, y), G.e_fun(F.ob(x), F.ob(y))),
        name=f"{F.name};{G.name}",
    )


def id_transformation(F: EnrichedFunctor) -> EnrichedTransformation:
    return EnrichedTransformation(
        F, F, {x: F.cod.under.id_of(F.ob(x)) for x in F.dom.objects()}, name="id"
    )


def vcompose(tau: EnrichedTransformation, theta: EnrichedTransformation) -> EnrichedTransformation:
    if tau.dst is not theta.src and not tau.dst.data_equal(theta.src):
        raise StructuralError("transformations are not vertically composable")
    cod = tau.src.cod.under
    return EnrichedTransformation(
        tau.src, theta.dst,
        {x: cod.compose(tau.at(x), theta.at(x)) for x in tau.src.dom.objects()},
    )


def whisker_left(F: EnrichedFunctor, tau: EnrichedTransformation) -> EnrichedTransformation:
    """F whiskered into tau: the 2-cell F.G1 => F.G2 with component tau at F(x)."""
    G1, G2 = tau.src, tau.dst
    return EnrichedTransformation(
        compose_functors(F, G1),
        compose_functors(F, G2),
        {x: tau.at(F.ob(x)) for x in F.dom.objects()},
    )


def whisker_right(tau: EnrichedTransformation, G: EnrichedFunctor) -> EnrichedTransformation:
    """tau whiskered by G: the 2-cell F1.G => F2.G with component G(tau_x)."""
    F1, F2 = tau.src, tau.dst
    return EnrichedTransformation(
        compose_functors(F1, G),
        compose_functors(F2, G),
        {x: G.mor(tau.at(x)) for x in F1.dom.objects()},
    )


def find_inverse(cat: FinCat | MonBase, f: MorRef) -> MorRef | None:
    """Two-sided inverse in a finite category or a base, by scan;
    lexicographically first."""
    for g in cat.hom(f.dst, f.src):
        if cat.compose(f, g) == cat.id_of(f.src) and cat.compose(g, f) == cat.id_of(f.dst):
            return g
    return None


def invertible_2cell(tau: EnrichedTransformation) -> EnrichedTransformation | None:
    """Pointwise inverse when every component is invertible, else None.

    The inverse of an enriched transformation is enriched again; this is
    verified, not assumed.
    """
    cod = tau.src.cod.under
    inv = {}
    for x in tau.src.dom.objects():
        g = find_inverse(cod, tau.at(x))
        if g is None:
            return None
        inv[x] = g
    out = EnrichedTransformation(tau.dst, tau.src, inv, name=f"{tau.name}^-1")
    check_nat_trans_enrichment(out).require("pointwise inverse fails enrichment")
    return out


# ---------------------------------------------------------------------------
# thin-base constructors
# ---------------------------------------------------------------------------

def thin_under_category(n: int, arrows: set[tuple[int, int]]) -> FinCat:
    """Thin category on the reflexive-transitive closure of a set of pairs
    of objects 0..n-1, closed in one Warshall pass: once every path through
    0..k-1 is an arrow, each object reaching k reaches what k reaches."""
    reach = [{x} for x in range(n)]
    for a, b in arrows:
        reach[a].add(b)
    for k in range(n):
        for row in reach:
            if k in row:
                row |= reach[k]
    return thin_category(n, {(a, b) for a in range(n) for b in reach[a]})


def thin_enrichment(base: MonBase, n: int, hom_obj: dict, name: str = "") -> Enrichment:
    """Enrichment candidate over a thin base from a hom-object table.

    The underlying category is the thin category on the pairs whose
    hom-object admits a point I -> E(x,y), closed under reflexivity and
    transitivity so the data is always a category; missing enriched
    identities/compositions are left absent for the checker to report.
    """
    I = base.unit
    objs = range(n)
    rows = [[hom_obj[x, y] for y in objs] for x in objs]
    # the point I -> h of each hom object h that has one
    points = {h: base.hom(I, h)[0] for h in {h for row in rows for h in row} if base.hom_size(I, h) > 0}
    arrows = {(x, y) for x in objs for y in objs if rows[x][y] in points}

    # the rules stay lazy: a hom object that is not a base object must be
    # refused before any tensor of it is asked for
    @functools.cache
    def arrow(h_yz, h_xy, h_xz):
        ms = base.hom(base.tensor_obj(h_yz, h_xy), h_xz)
        return ms[0] if ms else None

    return Enrichment.tabulate(
        base, thin_under_category(n, arrows),
        lambda x, y: rows[x][y],
        lambda x: points.get(rows[x][x]),
        lambda x, y, z: arrow(rows[y][z], rows[x][y], rows[x][z]),
        lambda f: points.get(rows[f.src][f.dst]),
        name=name,
    )


def bool_preorder_enrichment(base: MonBase, relation: set[tuple[int, int]], n: int, name: str = "") -> Enrichment:
    """Bool-valued enrichment of a relation; hom object 1 iff related."""
    hom_obj = {(x, y): (1 if (x, y) in relation else 0) for x in range(n) for y in range(n)}
    return thin_enrichment(base, n, hom_obj, name=name)


def cost_space_enrichment(base: MonBase, d: dict, n: int, name: str = "") -> Enrichment:
    """Cost-valued enrichment of a distance table d[(x,y)] (base object indices)."""
    hom_obj = {(x, y): d[(x, y)] for x in range(n) for y in range(n)}
    return thin_enrichment(base, n, hom_obj, name=name)


# ---------------------------------------------------------------------------
# exhaustive enumeration of functors and transformations
# ---------------------------------------------------------------------------

def enumerate_enriched_functors(E1: Enrichment, E2: Enrichment, cap: int = 10_000) -> list[EnrichedFunctor]:
    """Complete, duplicate-free, lexicographically ordered list of enriched
    functors E1 -> E2, each passing its checker.

    Raises EnumerationCapExceeded with the computed bound when the raw search
    space is too large.
    """
    from .report import EnumerationCapExceeded

    n1, n2 = E1.n_objects, E2.n_objects
    mors1 = list(E1.under.mors())
    bound = n2 ** n1
    if bound > cap:
        raise EnumerationCapExceeded("functor object-map space too large", bound)
    out = []
    V = E1.base
    for ob_tuple in itertools.product(range(n2), repeat=n1):
        ob_map = dict(enumerate(ob_tuple))
        # bound the per-ob_map choice space before materializing it
        inner = 1
        feasible = True
        for f in mors1:
            n = E2.under.hom_size(ob_map[f.src], ob_map[f.dst])
            if n == 0:
                feasible = False
                break
            inner *= n
        if not feasible:
            continue
        for x, y in itertools.product(range(n1), repeat=2):
            inner *= max(V.hom_size(E1.hom(x, y), E2.hom(ob_map[x], ob_map[y])), 0)
        if inner == 0:
            continue
        if inner > cap:
            raise EnumerationCapExceeded("functor table space too large", inner)
        mor_choices = [E2.under.hom(ob_map[f.src], ob_map[f.dst]) for f in mors1]
        efun_keys = list(itertools.product(range(n1), repeat=2))
        efun_choices = [
            V.hom(E1.hom(x, y), E2.hom(ob_map[x], ob_map[y])) for (x, y) in efun_keys
        ]
        for mors in itertools.product(*mor_choices):
            mor_map = dict(zip(mors1, mors))
            for efuns in itertools.product(*efun_choices):
                cand = EnrichedFunctor(E1, E2, ob_map, mor_map, dict(zip(efun_keys, efuns)))
                if check_functor_enrichment(cand, limit=1).ok:
                    out.append(cand)
    out.sort(key=EnrichedFunctor.table_key)
    return out


def enumerate_enriched_transformations(
    F: EnrichedFunctor, G: EnrichedFunctor, cap: int = 10_000
) -> list[EnrichedTransformation]:
    """All enriched transformations F => G, in component-table order."""
    from .report import EnumerationCapExceeded

    E1 = F.dom
    E2 = F.cod
    objs = list(E1.objects())
    choices = [E2.under.hom(F.ob(x), G.ob(x)) for x in objs]
    bound = 1
    for c in choices:
        bound *= len(c)
    if bound > cap:
        raise EnumerationCapExceeded("transformation component space too large", bound)
    out = []
    for comps in itertools.product(*choices):
        cand = EnrichedTransformation(F, G, dict(zip(objs, comps)))
        if check_nat_trans_enrichment(cand, limit=1).ok:
            out.append(cand)
    return out
