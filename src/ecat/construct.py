"""Constructions of enrichments: self-enrichment, full subcategories,
opposites, dialgebras, enriched functor categories, change of base,
set-enrichment canonicity, and cartesian structure enrichments."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

from .core import (
    Enrichment,
    EnrichedFunctor,
    enumerate_enriched_functors,
    enumerate_enriched_transformations,
    postcompose_mor,
    precompose_mor,
    required_ecomp,
    required_farr,
)
from .report import CapabilityError, Collector, StructuralError, law_scan
from .structures import StructCat
from .vbase import FinCat, MonBase, MorRef, label_ref, label_refs, require_mor_shape, window_fincat


# ---------------------------------------------------------------------------
# lax monoidal functors
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LaxMonoidalFunctor:
    """Functor between bases with unit and multiplication cells."""

    dom: MonBase
    cod: MonBase
    ob_map: dict
    mor_map: dict
    unit_cell: MorRef
    mult_cell: dict
    name: str = ""

    def ob(self, x: int) -> int:
        try:
            return self.ob_map[x]
        except KeyError:
            raise StructuralError(f"lax functor undefined on object {x}") from None

    def mor(self, f: MorRef) -> MorRef:
        try:
            return self.mor_map[f]
        except KeyError:
            raise StructuralError(f"lax functor undefined on morphism {f}") from None

    def mult(self, x: int, y: int) -> MorRef:
        try:
            return self.mult_cell[(x, y)]
        except KeyError:
            raise StructuralError(f"lax functor missing mult cell at ({x},{y})") from None


@law_scan
def check_lax_monoidal(col: Collector, F: LaxMonoidalFunctor) -> None:
    """Functor laws and the lax unit/associativity coherence squares,
    exhaustively over the domain window."""
    V, W = F.dom, F.cod
    for x in V.objects():
        fx = F.ob(x)
    for f in V.mors():
        require_mor_shape(W, F.mor(f), F.ob(f.src), F.ob(f.dst))
    require_mor_shape(W, F.unit_cell, W.unit, F.ob(V.unit))

    for x in V.objects():
        if F.mor(V.id_of(x)) != W.id_of(F.ob(x)):
            col.add("functor-identity", (x,), F.mor(V.id_of(x)), W.id_of(F.ob(x)))
    for f in V.mors():
        for g in V.mors():
            if f.dst != g.src:
                continue
            lhs = F.mor(V.compose(f, g))
            rhs = W.compose(F.mor(f), F.mor(g))
            if lhs != rhs:
                col.add("functor-composition", (f, g), lhs, rhs)

    for x, y in itertools.product(V.objects(), repeat=2):
        require_mor_shape(
            W, F.mult(x, y),
            W.tensor_obj(F.ob(x), F.ob(y)), F.ob(V.tensor_obj(x, y)),
        )

    # naturality of the multiplication cell
    for f in V.mors():
        for g in V.mors():
            lhs = W.compose(F.mult(f.src, g.src), F.mor(V.tensor_mor(f, g)))
            rhs = W.compose(W.tensor_mor(F.mor(f), F.mor(g)), F.mult(f.dst, g.dst))
            if lhs != rhs:
                col.add("mult-natural", (f, g), lhs, rhs)

    I = V.unit
    for x in V.objects():
        fx = F.ob(x)
        lhs = W.compose_all(
            W.tensor_mor(F.unit_cell, W.id_of(fx)),
            F.mult(I, x),
            F.mor(V.lunitor(x)),
        )
        if lhs != W.lunitor(fx):
            col.add("lax-left-unit", (x,), lhs, W.lunitor(fx))
        lhs = W.compose_all(
            W.tensor_mor(W.id_of(fx), F.unit_cell),
            F.mult(x, I),
            F.mor(V.runitor(x)),
        )
        if lhs != W.runitor(fx):
            col.add("lax-right-unit", (x,), lhs, W.runitor(fx))

    for x, y, z in itertools.product(V.objects(), repeat=3):
        fx, fy, fz = F.ob(x), F.ob(y), F.ob(z)
        lhs = W.compose_all(
            W.tensor_mor(F.mult(x, y), W.id_of(fz)),
            F.mult(V.tensor_obj(x, y), z),
            F.mor(V.associator(x, y, z)),
        )
        rhs = W.compose_all(
            W.associator(fx, fy, fz),
            W.tensor_mor(W.id_of(fx), F.mult(y, z)),
            F.mult(x, V.tensor_obj(y, z)),
        )
        if lhs != rhs:
            col.add("lax-associativity", (x, y, z), lhs, rhs)


@law_scan
def check_preserves_underlying(col: Collector, F: LaxMonoidalFunctor) -> None:
    """For every domain object x, the map u |-> unit_cell ; F(u) from
    dom(I1, x) to cod(I2, F x) must be a bijection. The scan reads F and
    writes nothing on it: ``change_of_base`` runs it on every call."""
    V, W = F.dom, F.cod
    I1 = V.unit
    for x in V.objects():
        fx = F.ob(x)
        image = {}
        for u in V.hom(I1, x):
            v = W.compose(F.unit_cell, F.mor(u))
            if v in image:
                col.add("underlying-injective", (x,), image[v], u)
            image[v] = u
        if len(image) != W.hom_size(W.unit, fx):
            col.add("underlying-bijective", (x,), len(image), W.hom_size(W.unit, fx))


def change_of_base(F: LaxMonoidalFunctor, E: Enrichment) -> Enrichment:
    """Transport an enrichment along a lax monoidal functor that preserves
    underlying categories; refuses otherwise (the underlying category must
    survive unchanged). F's tables may have changed since any earlier
    check, so the check runs on every call."""
    rep = check_preserves_underlying(F)
    if not rep.ok:
        raise CapabilityError(
            f"change of base refused: underlying categories not preserved at "
            f"{rep.failures[0].instance}"
        )
    W = F.cod
    hom_obj = {k: F.ob(v) for k, v in E.hom_obj_t.items()}
    e_id = {x: W.compose(F.unit_cell, F.mor(m)) for x, m in E.e_id_t.items()}
    e_comp = {
        (x, y, z): W.compose(F.mult(E.hom(y, z), E.hom(x, y)), F.mor(m))
        for (x, y, z), m in E.e_comp_t.items()
    }
    from_arr = {f: W.compose(F.unit_cell, F.mor(m)) for f, m in E.from_arr_t.items()}
    return Enrichment(W, E.under, hom_obj, e_id, e_comp, from_arr, name=f"change({E.name})")


# ---------------------------------------------------------------------------
# self-enrichment
# ---------------------------------------------------------------------------

def self_enrichment(V: MonBase) -> Enrichment:
    """The enrichment of a symmetric monoidal closed base in itself:
    hom objects are internal homs, composition is the transpose of the
    associator/evaluation chain."""
    if not V.closed:
        raise CapabilityError("self-enrichment needs a closed base")
    if not V.symmetric:
        raise CapabilityError("self-enrichment needs a symmetric base")

    def ecomp(x, y, z):
        hyz, hxy = V.hom_obj(y, z), V.hom_obj(x, y)
        src = V.tensor_obj(hyz, hxy)
        chain = V.compose_all(
            V.associator(hyz, hxy, x),
            V.tensor_mor(V.id_of(hyz), V.ev(x, y)),
            V.ev(y, z),
        )
        return V.lam(src, x, z, chain)

    return Enrichment.tabulate(
        V, window_fincat(V), V.hom_obj,
        lambda x: V.lam(V.unit, x, x, V.lunitor(x)),
        ecomp,
        lambda f: V.lam(V.unit, f.src, f.dst, V.compose(V.lunitor(f.src), f)),
        name="self",
    )


def self_to_arr(E: Enrichment, x: int, y: int, f: MorRef) -> MorRef:
    """The evaluation chain inverse to from_arr in a self-enrichment:
    lunitor_inv ; (f tensor id) ; ev, for f a point of the internal hom [x,y]."""
    V = E.base
    if f.src != V.unit or f.dst != E.hom(x, y):
        raise StructuralError(f"{f} is not a point of the internal hom at ({x},{y})")
    return V.compose_all(
        V.lunitor_inv(x),
        V.tensor_mor(f, V.id_of(x)),
        V.ev(x, y),
    )


# ---------------------------------------------------------------------------
# full subcategories and opposites
# ---------------------------------------------------------------------------

def full_sub_enrichment(E: Enrichment, keep) -> tuple[Enrichment, EnrichedFunctor]:
    """Restrict to the objects satisfying the predicate; hom data verbatim.
    Returns the enrichment and the fully faithful inclusion."""
    kept = [x for x in E.objects() if keep(x)]
    old_of = dict(enumerate(kept))
    n = len(kept)
    under = FinCat.tabulate(
        n,
        {(a, b): E.under.hom(old_of[a], old_of[b]) for a, b in itertools.product(range(n), repeat=2)},
        lambda a: E.under.id_of(old_of[a]),
        lambda a, b, c, f, g: E.under.compose(f, g),
    )
    eids, ecomps, farrs = E.e_id_t, E.e_comp_t, E.from_arr_t

    def old(f: MorRef) -> MorRef:
        return MorRef(old_of[f.src], old_of[f.dst], f.k)

    sub = Enrichment.tabulate(
        E.base, under,
        lambda a, b: E.hom(old_of[a], old_of[b]),
        lambda a: eids.get(old_of[a]),
        lambda a, b, c: ecomps.get((old_of[a], old_of[b], old_of[c])),
        lambda f: farrs.get(old(f)),
        name=f"sub({E.name})",
    )
    inclusion = EnrichedFunctor.tabulate(
        sub, E, old_of.__getitem__, old, lambda a, b: E.base.id_of(sub.hom_obj_t[a, b]), name="inclusion"
    )
    return sub, inclusion


def opposite_category(C: FinCat) -> FinCat:
    """Morphisms x -> y are C's morphisms y -> x, in C's order."""
    return FinCat.tabulate(
        C.n_objects,
        {(x, y): C.hom(y, x) for x in C.objects() for y in C.objects()},
        C.id_of,
        lambda a, b, c, f, g: C.compose(g, f),
    )


def opposite_enrichment(E: Enrichment) -> Enrichment:
    """Reverse all homs; enriched composition picks up one symmetry."""
    V = E.base
    if not V.symmetric:
        raise CapabilityError("opposite enrichment needs a symmetric base")
    ecomps, farrs = E.e_comp_t, E.from_arr_t

    def ecomp(x, y, z):
        m = ecomps.get((z, y, x))
        return None if m is None else V.compose(V.symmetry(E.hom(z, y), E.hom(y, x)), m)

    return Enrichment.tabulate(
        V, opposite_category(E.under),
        lambda x, y: E.hom(y, x),
        E.e_id_t.get,
        ecomp,
        lambda f: farrs.get(MorRef(f.dst, f.src, f.k)),
        name=f"op({E.name})",
    )


# ---------------------------------------------------------------------------
# dialgebras
# ---------------------------------------------------------------------------

def dialgebra_objects(F1: EnrichedFunctor, F2: EnrichedFunctor) -> list[tuple[int, MorRef]]:
    return [(x, f) for x in F1.dom.objects() for f in F1.cod.under.hom(F1.ob(x), F2.ob(x))]


@dataclass(eq=False)
class DialgebraResult:
    """Dialgebra enrichment with the projection functor and the equalizer
    presentation of each hom object."""

    enrichment: Enrichment
    projection: EnrichedFunctor
    objects: list
    mors: dict
    equalizers: dict

    def __post_init__(self):
        self._refs = label_refs(self.mors)

    def mor_over(self, a: int, b: int, h: MorRef) -> MorRef:
        """The dialgebra morphism a -> b whose underlying morphism is h."""
        return label_ref(self._refs, a, b, h)


def dialgebra_enrichment(F1: EnrichedFunctor, F2: EnrichedFunctor) -> DialgebraResult:
    """Enrichment of pairs (x, f: F1 x -> F2 x); hom objects are equalizers of
    the two composites comparing the functor actions around the square."""
    E1, E2 = F1.dom, F1.cod
    V = E1.base
    if not V.has_equalizers:
        raise CapabilityError("dialgebra enrichment needs equalizers in the base")
    objs = dialgebra_objects(F1, F2)
    n = len(objs)

    def square_ok(a, b, h):
        (x, f), (y, g) = objs[a], objs[b]
        return E2.under.compose(F1.mor(h), g) == E2.under.compose(f, F2.mor(h))

    mors = {}
    for a, b in itertools.product(range(n), repeat=2):
        (x, _), (y, _) = objs[a], objs[b]
        mors[(a, b)] = [h for h in E1.under.hom(x, y) if square_ok(a, b, h)]
    under = FinCat.tabulate(
        n, mors, lambda a: E1.under.id_of(objs[a][0]), lambda a, b, c, h1, h2: E1.under.compose(h1, h2)
    )

    # the hom rule records each hom object's equalizer for the later rules
    eqs = {}

    def hom_obj(a, b):
        (x, f), (y, g) = objs[a], objs[b]
        p = V.compose(F1.e_fun(x, y), precompose_mor(E2, F1.ob(x), g))
        q = V.compose(F2.e_fun(x, y), postcompose_mor(E2, F2.ob(y), f))
        eqs[a, b] = V.equalizer(p, q)
        return eqs[a, b].obj

    def eid(a):
        ei = E1.eid(objs[a][0])
        return None if ei is None else eqs[a, a].factor(ei)

    def ecomp(a, b, c):
        c1 = E1.ecomp(objs[a][0], objs[b][0], objs[c][0])
        if c1 is None:
            return None
        return eqs[a, c].factor(V.compose(V.tensor_mor(eqs[b, c].include, eqs[a, b].include), c1))

    def under_mor(m: MorRef) -> MorRef:
        return mors[m.src, m.dst][m.k]

    def farr(m):
        u = E1.farr(under_mor(m))
        return None if u is None else eqs[m.src, m.dst].factor(u)

    dialg = Enrichment.tabulate(V, under, hom_obj, eid, ecomp, farr, name="dialg")
    projection = EnrichedFunctor.tabulate(
        dialg, E1, lambda a: objs[a][0], under_mor, lambda a, b: eqs[a, b].include, name="dialg-proj"
    )
    return DialgebraResult(dialg, projection, objs, mors, eqs)


# ---------------------------------------------------------------------------
# enriched functor categories
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FunctorCategoryResult:
    """Functor-category enrichment together with its object/morphism indexing
    and the products/equalizers its hom objects were carved from."""

    enrichment: Enrichment
    functors: list
    transformations: dict
    products: dict
    equalizers: dict

    def __post_init__(self):
        self._functor_index = {F.table_key(): i for i, F in enumerate(self.functors)}
        trans = self.transformations
        self._refs = label_refs({ab: [_component_key(t.component) for t in ts] for ab, ts in trans.items()})

    def functor_index(self, F: EnrichedFunctor) -> int:
        try:
            return self._functor_index[F.table_key()]
        except KeyError:
            raise StructuralError("functor is not an object of the functor category") from None

    def transformation_index(self, a: int, b: int, component: dict) -> int:
        return label_ref(self._refs, a, b, _component_key(component)).k


def _component_key(component: dict) -> tuple:
    """A transformation's component table as a hashable label."""
    return tuple(sorted(component.items()))


def functor_category_enrichment(
    E1: Enrichment, E2: Enrichment, cap: int = 10_000
) -> FunctorCategoryResult:
    """Objects are all enriched functors E1 -> E2 (enumerated); hom objects
    are the equalizers of the two transposed composites over the product of
    componentwise homs."""
    return functor_category_on(E1, E2, enumerate_enriched_functors(E1, E2, cap=cap), cap=cap)


def functor_category_on(
    E1: Enrichment, E2: Enrichment, functors: list, cap: int = 10_000
) -> FunctorCategoryResult:
    """The full subcategory of the enriched functor category [E1, E2] on the
    given functors E1 -> E2, which the caller has checked to be lawful.
    Functors with the same ``table_key`` are one object, at the place of the
    first; transformations between them are enumerated and checked."""
    V = E1.base
    if not (V.symmetric and V.closed and V.has_equalizers):
        raise CapabilityError(
            "functor category needs a symmetric closed base with products and equalizers"
        )
    if any(F.dom is not E1 or F.cod is not E2 for F in functors):
        raise StructuralError("functor category objects must be functors E1 -> E2")
    unique = {}
    for F in functors:
        unique.setdefault(F.table_key(), F)
    functors = list(unique.values())
    n = len(functors)
    objs1 = list(E1.objects())
    trans = {}
    for a, b in itertools.product(range(n), repeat=2):
        trans[(a, b)] = enumerate_enriched_transformations(functors[a], functors[b], cap=cap)
    under = FinCat.tabulate(
        n,
        {ab: [_component_key(t.component) for t in ts] for ab, ts in trans.items()},
        lambda a: tuple((x, E2.under.id_of(functors[a].ob(x))) for x in objs1),
        lambda a, b, c, s, t: tuple((x, E2.under.compose(f, g)) for (x, f), (_, g) in zip(s, t)),
    )

    # hom object: equalizer of f, g : prod_x E2(Fx, Gx) => prod_(x,y) [E1(x,y), E2(Fx, Gy)];
    # the hom rule records each product and equalizer for the later rules;
    # homs share their limits, so each distinct factor list and each distinct
    # parallel pair is searched once per call
    pair_keys = list(itertools.product(objs1, repeat=2))
    prods = {}
    eqs = {}
    product = functools.cache(lambda *factors: V.product(list(factors)))
    equalizer = functools.cache(V.equalizer)
    compose, compose_all, tensor_mor, id_of, lam = V.compose, V.compose_all, V.tensor_mor, V.id_of, V.lam
    hom1, hom2 = E1.hom, E2.hom

    def hom_obj(a, b):
        F, G = functors[a], functors[b]
        Fo, Go = [F.ob(x) for x in objs1], [G.ob(x) for x in objs1]
        P = prods[a, b] = product(*(hom2(Fo[x], Go[x]) for x in objs1))
        legs_f = []
        legs_g = []
        for (x, y) in pair_keys:
            e1 = hom1(x, y)
            tgt = hom2(Fo[x], Go[y])
            # phi: E2(Fy, Gy) -> [E1(x,y), E2(Fx, Gy)]
            src_f = hom2(Fo[y], Go[y])
            chain_f = compose(
                tensor_mor(id_of(src_f), F.e_fun(x, y)),
                required_ecomp(E2, Fo[x], Fo[y], Go[y]),
            )
            phi = lam(src_f, e1, tgt, chain_f)
            legs_f.append(compose(P.projections[y], phi))
            # psi: E2(Fx, Gx) -> [E1(x,y), E2(Fx, Gy)]
            src_g = hom2(Fo[x], Go[x])
            chain_g = compose_all(
                tensor_mor(id_of(src_g), G.e_fun(x, y)),
                V.symmetry(src_g, hom2(Go[x], Go[y])),
                required_ecomp(E2, Fo[x], Go[x], Go[y]),
            )
            psi = lam(src_g, e1, tgt, chain_g)
            legs_g.append(compose(P.projections[x], psi))
        Q = product(*(V.hom_obj(hom1(x, y), hom2(Fo[x], Go[y])) for (x, y) in pair_keys))
        eqs[a, b] = equalizer(Q.pair(P.obj, legs_f), Q.pair(P.obj, legs_g))
        return eqs[a, b].obj

    def cone(a, b, src, legs):
        """The hom (a, b) point of ``src`` with the given legs, or None if a
        leg is absent."""
        if any(m is None for m in legs):
            return None
        return eqs[a, b].factor(prods[a, b].pair(src, legs))

    def eid(a):
        F = functors[a]
        return cone(a, a, V.unit, [E2.eid(F.ob(x)) for x in objs1])

    def ecomp(a, b, c):
        F, G, H = functors[a], functors[b], functors[c]
        src = V.tensor_obj(eqs[b, c].obj, eqs[a, b].obj)
        legs = []
        for x in objs1:
            c2 = E2.ecomp(F.ob(x), G.ob(x), H.ob(x))
            if c2 is None:
                return None
            legs.append(V.compose_all(
                V.tensor_mor(
                    V.compose(eqs[b, c].include, prods[b, c].projections[x]),
                    V.compose(eqs[a, b].include, prods[a, b].projections[x]),
                ),
                c2,
            ))
        return cone(a, c, src, legs)

    def farr(m):
        tau = trans[m.src, m.dst][m.k]
        return cone(m.src, m.dst, V.unit, [E2.farr(tau.at(x)) for x in objs1])

    enr = Enrichment.tabulate(V, under, hom_obj, eid, ecomp, farr, name="functor-cat")
    return FunctorCategoryResult(enr, functors, trans, prods, eqs)


# ---------------------------------------------------------------------------
# set-enrichment canonicity
# ---------------------------------------------------------------------------

def canonical_set_enrichment(C: FinCat, base) -> Enrichment:
    """The enrichment of C over skeletal finite sets: hom object of size
    |C(x,y)|, composition the pairing table of C's composition."""
    max_hom = max((C.hom_size(x, y) for x in C.objects() for y in C.objects()), default=0)
    if base.k < max_hom:
        raise CapabilityError(
            f"skeletal base window {base.k} cannot index homs of size {max_hom}"
        )
    size, graph = C.hom_size, composition_graph(C)
    return Enrichment.tabulate(
        base, C, size,
        lambda x: MorRef(1, size(x, x), C.id_of(x).k),
        lambda x, y, z: base.mor(size(y, z) * size(x, y), size(x, z), graph(x, y, z)),
        lambda f: MorRef(1, size(f.src, f.dst), f.k),
        name="set-enrichment",
    )


def composition_graph(C: FinCat) -> Callable[[int, int, int], tuple[int, ...]]:
    """C's composition C(y,z) x C(x,y) -> C(x,z) as ``graph(x, y, z)``, a
    graph on hom indices under the pairing code ``k_g * |C(x,y)| + k_f``."""
    homs = {(x, y): C.hom(x, y) for x in C.objects() for y in C.objects()}
    return lambda x, y, z: tuple([C.compose(f, g).k for g in homs[y, z] for f in homs[x, y]])


def set_enrichment_unique(E1: Enrichment, E2: Enrichment) -> EnrichedFunctor:
    """Identity-on-objects enriched isomorphism between two set-enrichments of
    the same category: hom-wise the bijection matching from_arr tables."""
    if not E1.under == E2.under:
        raise StructuralError("set enrichments must share the underlying category")
    V = E1.base
    C = E1.under

    def e_fun(x, y):
        n = C.hom_size(x, y)
        if E1.hom(x, y) != n or E2.hom(x, y) != n:
            raise StructuralError(f"hom object at ({x},{y}) is not the hom-set size")
        graph = [0] * n
        for f in C.hom(x, y):
            graph[required_farr(E1, f).k] = required_farr(E2, f).k
        return V.mor(n, n, tuple(graph))

    return EnrichedFunctor.tabulate(E1, E2, lambda x: x, lambda f: f, e_fun, name="set-enrichment-iso")


# ---------------------------------------------------------------------------
# cartesian structure enrichments
# ---------------------------------------------------------------------------

def struct_enrichment_to_data(E: Enrichment) -> dict:
    """Extract per-hom structures from an enrichment over a structure
    category, aligned with the underlying category's morphism indexing."""
    V = E.base
    if not isinstance(V, StructCat):
        raise CapabilityError("structure extraction needs a structure-category base")
    S = V.struct
    C = E.under
    out = {}
    for x, y in itertools.product(C.objects(), repeat=2):
        obj = E.hom(x, y)
        n, value = V._objs[obj]
        if n != C.hom_size(x, y):
            raise StructuralError(f"hom object carrier at ({x},{y}) does not match hom size")
        # relabel so element i carries the morphism with index i
        perm = [0] * n
        for f in C.hom(x, y):
            perm[V.graph(required_farr(E, f))[0]] = f.k
        out[(x, y)] = S.relabel(n, value, tuple(perm))
    return out


def struct_data_to_enrichment(C: FinCat, hom_structs: dict, V: StructCat) -> Enrichment:
    """Build the enrichment whose hom objects carry the given structures.

    Refuses, naming the witness triple, when composition is not a
    structure-preserving map of the given structures.
    """
    S = V.struct
    graph = composition_graph(C)
    for x, y, z in itertools.product(C.objects(), repeat=3):
        n_yz, n_xy, n_xz = C.hom_size(y, z), C.hom_size(x, y), C.hom_size(x, z)
        prod = S.prod(n_yz, hom_structs[(y, z)], n_xy, hom_structs[(x, y)])
        if not S.is_map(n_yz * n_xy, prod, n_xz, hom_structs[(x, z)], graph(x, y, z)):
            raise CapabilityError(
                f"composition is not structure-preserving at ({x},{y},{z})"
            )
    # registered up front, in (x, y) order, for the rules to read
    hom = {(x, y): V._register(C.hom_size(x, y), hom_structs[x, y]) for x in C.objects() for y in C.objects()}
    return Enrichment.tabulate(
        V, C,
        lambda x, y: hom[x, y],
        lambda x: V.mor(V.unit, hom[x, x], (C.id_of(x).k,)),
        lambda x, y, z: V.mor(V.tensor_obj(hom[y, z], hom[x, y]), hom[x, z], graph(x, y, z)),
        lambda f: V.mor(V.unit, hom[f.src, f.dst], (f.k,)),
        name="struct-enrichment",
    )
