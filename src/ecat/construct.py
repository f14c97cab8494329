"""Constructions of enrichments: self-enrichment, full subcategories,
opposites, dialgebras, enriched functor categories, change of base,
set-enrichment canonicity, and cartesian structure enrichments."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
from .structures import CartesianStructure, StructCat
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
    _change: dict = None

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

    def change(self, x: int, m: MorRef) -> MorRef:
        """Inverse of u |-> unit_cell ; F(u) at the object x; requires a prior
        passing check_preserves_underlying."""
        if self._change is None:
            raise CapabilityError("preservation of underlying categories not verified")
        try:
            return self._change[(x, m)]
        except KeyError:
            raise StructuralError(f"no underlying preimage for {m} at {x}") from None


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
    dom(I1, x) to cod(I2, F x) must be a bijection. On success the inverse
    table is materialized on F for change-of-base."""
    V, W = F.dom, F.cod
    I1 = V.unit
    change = {}
    for x in V.objects():
        fx = F.ob(x)
        image = {}
        fine = True
        for u in V.hom(I1, x):
            v = W.compose(F.unit_cell, F.mor(u))
            if v in image:
                col.add("underlying-injective", (x,), image[v], u)
                fine = False
            image[v] = u
        if len(image) != W.hom_size(W.unit, fx):
            col.add("underlying-bijective", (x,), len(image), W.hom_size(W.unit, fx))
            fine = False
        if fine:
            for v, u in image.items():
                change[(x, v)] = u
    if not col.failures:
        F._change = change


def change_of_base(F: LaxMonoidalFunctor, E: Enrichment) -> Enrichment:
    """Transport an enrichment along a lax monoidal functor that preserves
    underlying categories; refuses otherwise (the underlying category must
    survive unchanged)."""
    if F._change is None:
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
    under = window_fincat(V)
    n = under.n_objects
    hom_obj = {}
    e_id = {}
    e_comp = {}
    from_arr = {}
    for x, y in itertools.product(range(n), repeat=2):
        hom_obj[(x, y)] = V.hom_obj(x, y)
    for x in range(n):
        e_id[x] = V.lam(V.unit, x, x, V.lunitor(x))
    for x, y, z in itertools.product(range(n), repeat=3):
        hyz, hxy = V.hom_obj(y, z), V.hom_obj(x, y)
        src = V.tensor_obj(hyz, hxy)
        chain = V.compose_all(
            V.associator(hyz, hxy, x),
            V.tensor_mor(V.id_of(hyz), V.ev(x, y)),
            V.ev(y, z),
        )
        e_comp[(x, y, z)] = V.lam(src, x, z, chain)
    for f in under.mors():
        from_arr[f] = V.lam(V.unit, f.src, f.dst, V.compose(V.lunitor(f.src), f))
    return Enrichment(V, under, hom_obj, e_id, e_comp, from_arr, name="self")


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
    hom_obj = {
        (a, b): E.hom(old_of[a], old_of[b]) for a, b in itertools.product(range(n), repeat=2)
    }
    e_id = {a: E.eid(old_of[a]) for a in range(n) if E.eid(old_of[a]) is not None}
    e_comp = {}
    for a, b, c in itertools.product(range(n), repeat=3):
        m = E.ecomp(old_of[a], old_of[b], old_of[c])
        if m is not None:
            e_comp[(a, b, c)] = m
    from_arr = {}
    for f in under.mors():
        m = E.farr(MorRef(old_of[f.src], old_of[f.dst], f.k))
        if m is not None:
            from_arr[f] = m
    sub = Enrichment(E.base, under, hom_obj, e_id, e_comp, from_arr, name=f"sub({E.name})")
    inclusion = EnrichedFunctor(
        sub, E,
        dict(old_of),
        {f: MorRef(old_of[f.src], old_of[f.dst], f.k) for f in under.mors()},
        {(a, b): E.base.id_of(hom_obj[(a, b)]) for a, b in itertools.product(range(n), repeat=2)},
        name="inclusion",
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
    under_op = opposite_category(E.under)
    hom_obj = {(x, y): E.hom(y, x) for x, y in itertools.product(E.objects(), repeat=2)}
    e_comp = {}
    for x, y, z in itertools.product(E.objects(), repeat=3):
        m = E.ecomp(z, y, x)
        if m is None:
            continue
        s = V.symmetry(E.hom(z, y), E.hom(y, x))
        e_comp[(x, y, z)] = V.compose(s, m)
    from_arr = {}
    for f in under_op.mors():
        m = E.farr(MorRef(f.dst, f.src, f.k))
        if m is not None:
            from_arr[f] = m
    return Enrichment(
        V, under_op, hom_obj, dict(E.e_id_t), e_comp, from_arr, name=f"op({E.name})"
    )


# ---------------------------------------------------------------------------
# dialgebras
# ---------------------------------------------------------------------------

def dialgebra_objects(F1: EnrichedFunctor, F2: EnrichedFunctor) -> list[tuple[int, MorRef]]:
    E1, E2 = F1.dom, F1.cod
    out = []
    for x in E1.objects():
        for f in E2.under.hom(F1.ob(x), F2.ob(x)):
            out.append((x, f))
    return out


@dataclass(eq=False)
class DialgebraResult:
    """Dialgebra enrichment with the projection functor and the equalizer
    presentation of each hom object; unpacks like (enrichment, projection)."""

    enrichment: Enrichment
    projection: EnrichedFunctor
    objects: list
    mors: dict
    equalizers: dict

    def __post_init__(self):
        self._refs = label_refs(self.mors)

    def __iter__(self):
        return iter((self.enrichment, self.projection))

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
    idx = {ob: i for i, ob in enumerate(objs)}

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

    eqs = {}
    hom_obj = {}
    for a, b in itertools.product(range(n), repeat=2):
        (x, f), (y, g) = objs[a], objs[b]
        p = V.compose(F1.e_fun(x, y), precompose_mor(E2, F1.ob(x), g))
        q = V.compose(F2.e_fun(x, y), postcompose_mor(E2, F2.ob(y), f))
        eq = V.equalizer(p, q)
        eqs[(a, b)] = eq
        hom_obj[(a, b)] = eq.obj

    e_id = {}
    for a in range(n):
        x, f = objs[a]
        ei = E1.eid(x)
        if ei is not None:
            e_id[a] = eqs[(a, a)].factor(ei)
    e_comp = {}
    for a, b, c in itertools.product(range(n), repeat=3):
        (x, _), (y, _), (z, _) = objs[a], objs[b], objs[c]
        c1 = E1.ecomp(x, y, z)
        if c1 is None:
            continue
        chain = V.compose(
            V.tensor_mor(eqs[(b, c)].include, eqs[(a, b)].include), c1
        )
        e_comp[(a, b, c)] = eqs[(a, c)].factor(chain)
    from_arr = {}
    for m in under.mors():
        h = mors[(m.src, m.dst)][m.k]
        u = E1.farr(h)
        if u is not None:
            from_arr[m] = eqs[(m.src, m.dst)].factor(u)
    dialg = Enrichment(V, under, hom_obj, e_id, e_comp, from_arr, name="dialg")
    projection = EnrichedFunctor(
        dialg, E1,
        {a: objs[a][0] for a in range(n)},
        {m: mors[(m.src, m.dst)][m.k] for m in under.mors()},
        {(a, b): eqs[(a, b)].include for a, b in itertools.product(range(n), repeat=2)},
        name="dialg-proj",
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
    if not (V.symmetric and V.closed and V.has_products and V.has_equalizers):
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

    # hom object: equalizer of f, g : prod_x E2(Fx, Gx) => prod_(x,y) [E1(x,y), E2(Fx, Gy)]
    pair_keys = list(itertools.product(objs1, repeat=2))
    prods = {}
    eqs = {}
    hom_obj = {}
    for a, b in itertools.product(range(n), repeat=2):
        F, G = functors[a], functors[b]
        P = V.product([E2.hom(F.ob(x), G.ob(x)) for x in objs1])
        legs_f = []
        legs_g = []
        for (x, y) in pair_keys:
            e1 = E1.hom(x, y)
            tgt = E2.hom(F.ob(x), G.ob(y))
            # phi: E2(Fy, Gy) -> [E1(x,y), E2(Fx, Gy)]
            src_f = E2.hom(F.ob(y), G.ob(y))
            chain_f = V.compose(
                V.tensor_mor(V.id_of(src_f), F.e_fun(x, y)),
                required_ecomp(E2, F.ob(x), F.ob(y), G.ob(y)),
            )
            phi = V.lam(src_f, e1, tgt, chain_f)
            legs_f.append(V.compose(P.projections[objs1.index(y)], phi))
            # psi: E2(Fx, Gx) -> [E1(x,y), E2(Fx, Gy)]
            src_g = E2.hom(F.ob(x), G.ob(x))
            chain_g = V.compose_all(
                V.tensor_mor(V.id_of(src_g), G.e_fun(x, y)),
                V.symmetry(src_g, E2.hom(G.ob(x), G.ob(y))),
                required_ecomp(E2, F.ob(x), G.ob(x), G.ob(y)),
            )
            psi = V.lam(src_g, e1, tgt, chain_g)
            legs_g.append(V.compose(P.projections[objs1.index(x)], psi))
        Q = V.product(
            [V.hom_obj(E1.hom(x, y), E2.hom(F.ob(x), G.ob(y))) for (x, y) in pair_keys]
        )
        f_mor = Q.pair(P.obj, legs_f)
        g_mor = Q.pair(P.obj, legs_g)
        eq = V.equalizer(f_mor, g_mor)
        prods[(a, b)] = P
        eqs[(a, b)] = eq
        hom_obj[(a, b)] = eq.obj

    e_id = {}
    for a in range(n):
        F = functors[a]
        legs = [E2.eid(F.ob(x)) for x in objs1]
        if any(m is None for m in legs):
            continue
        cone = prods[(a, a)].pair(V.unit, legs)
        e_id[a] = eqs[(a, a)].factor(cone)
    e_comp = {}
    for a, b, c in itertools.product(range(n), repeat=3):
        F, G, H = functors[a], functors[b], functors[c]
        src = V.tensor_obj(hom_obj[(b, c)], hom_obj[(a, b)])
        legs = []
        skip = False
        for x in objs1:
            c2 = E2.ecomp(F.ob(x), G.ob(x), H.ob(x))
            if c2 is None:
                skip = True
                break
            Pbc, Pab = prods[(b, c)], prods[(a, b)]
            leg = V.compose_all(
                V.tensor_mor(
                    V.compose(eqs[(b, c)].include, Pbc.projections[objs1.index(x)]),
                    V.compose(eqs[(a, b)].include, Pab.projections[objs1.index(x)]),
                ),
                c2,
            )
            legs.append(leg)
        if skip:
            continue
        cone = prods[(a, c)].pair(src, legs)
        e_comp[(a, b, c)] = eqs[(a, c)].factor(cone)
    from_arr = {}
    for m in under.mors():
        tau = trans[(m.src, m.dst)][m.k]
        legs = [E2.farr(tau.at(x)) for x in objs1]
        if any(u is None for u in legs):
            continue
        cone = prods[(m.src, m.dst)].pair(V.unit, legs)
        from_arr[m] = eqs[(m.src, m.dst)].factor(cone)
    enr = Enrichment(V, under, hom_obj, e_id, e_comp, from_arr, name="functor-cat")
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
    hom_obj = {}
    e_id = {}
    e_comp = {}
    from_arr = {}
    for x, y in itertools.product(C.objects(), repeat=2):
        hom_obj[(x, y)] = C.hom_size(x, y)
    for x in C.objects():
        e_id[x] = MorRef(1, C.hom_size(x, x), C.id_of(x).k)
    for x, y, z in itertools.product(C.objects(), repeat=3):
        n_yz, n_xy = C.hom_size(y, z), C.hom_size(x, y)
        graph = []
        for g in C.hom(y, z):
            for f in C.hom(x, y):
                graph.append(C.compose(f, g).k)
        e_comp[(x, y, z)] = base.mor(n_yz * n_xy, C.hom_size(x, z), tuple(graph))
    for f in C.mors():
        from_arr[f] = MorRef(1, C.hom_size(f.src, f.dst), f.k)
    return Enrichment(base, C, hom_obj, e_id, e_comp, from_arr, name="set-enrichment")


def set_enrichment_unique(E1: Enrichment, E2: Enrichment) -> EnrichedFunctor:
    """Identity-on-objects enriched isomorphism between two set-enrichments of
    the same category: hom-wise the bijection matching from_arr tables."""
    if not E1.under == E2.under:
        raise StructuralError("set enrichments must share the underlying category")
    V = E1.base
    C = E1.under
    e_fun = {}
    for x, y in itertools.product(C.objects(), repeat=2):
        n = C.hom_size(x, y)
        if E1.hom(x, y) != n or E2.hom(x, y) != n:
            raise StructuralError(f"hom object at ({x},{y}) is not the hom-set size")
        graph = [0] * n
        for f in C.hom(x, y):
            graph[required_farr(E1, f).k] = required_farr(E2, f).k
        e_fun[(x, y)] = V.mor(n, n, tuple(graph))
    return EnrichedFunctor(
        E1, E2,
        {x: x for x in C.objects()},
        {f: f for f in C.mors()},
        e_fun,
        name="set-enrichment-iso",
    )


# ---------------------------------------------------------------------------
# cartesian structure enrichments
# ---------------------------------------------------------------------------

def struct_cat(S: CartesianStructure, size_cap: int) -> StructCat:
    """The monoidal category of S-structured sets, windowed at the cap."""
    return StructCat(S, size_cap)


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
    for x, y, z in itertools.product(C.objects(), repeat=3):
        n_yz, n_xy, n_xz = C.hom_size(y, z), C.hom_size(x, y), C.hom_size(x, z)
        graph = []
        for g in C.hom(y, z):
            for f in C.hom(x, y):
                graph.append(C.compose(f, g).k)
        prod = S.prod(n_yz, hom_structs[(y, z)], n_xy, hom_structs[(x, y)])
        if not S.is_map(n_yz * n_xy, prod, n_xz, hom_structs[(x, z)], tuple(graph)):
            raise CapabilityError(
                f"composition is not structure-preserving at ({x},{y},{z})"
            )
    hom_obj = {}
    e_id = {}
    e_comp = {}
    from_arr = {}
    for x, y in itertools.product(C.objects(), repeat=2):
        n = C.hom_size(x, y)
        hom_obj[(x, y)] = V._register(n, hom_structs[(x, y)])
    for x in C.objects():
        e_id[x] = V.mor(V.unit, hom_obj[(x, x)], (C.id_of(x).k,))
    for x, y, z in itertools.product(C.objects(), repeat=3):
        graph = []
        for g in C.hom(y, z):
            for f in C.hom(x, y):
                graph.append(C.compose(f, g).k)
        src = V.tensor_obj(hom_obj[(y, z)], hom_obj[(x, y)])
        e_comp[(x, y, z)] = V.mor(src, hom_obj[(x, z)], tuple(graph))
    for f in C.mors():
        from_arr[f] = V.mor(V.unit, hom_obj[(f.src, f.dst)], (f.k,))
    return Enrichment(V, C, hom_obj, e_id, e_comp, from_arr, name="struct-enrichment")
