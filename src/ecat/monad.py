"""Enriched monads, both Kleisli presentations, Eilenberg-Moore objects via
dialgebras, the comparison weak equivalence between them, and Kleisli-object
universal property verification.

The raw Kleisli enrichment needs no equalizers; the Eilenberg-Moore and
univalent Kleisli constructions do, so the base's capabilities gate which
constructions a monad supports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .construct import DialgebraResult, dialgebra_enrichment, full_sub_enrichment
from .core import (
    Enrichment,
    EnrichedFunctor,
    EnrichedTransformation,
    check_functor_enrichment,
    check_nat_trans_enrichment,
    compose_functors,
    id_functor,
    precompose_mor,
    required_ecomp,
    required_farr,
    whisker_right,
)
from .factor import (
    FactorizationResult,
    image_factorization,
)
from .report import CapabilityError, Collector, StructuralError, law_scan
from .rezk import UnivalenceReport, extend_functor, transport_transformation, univalence_report
from .vbase import FinCat, MorRef


@dataclass(eq=False)
class EnrichedMonad:
    """Endofunctor with unit and multiplication, all enriched."""

    carrier: Enrichment
    endo: EnrichedFunctor
    unit: EnrichedTransformation
    mult: EnrichedTransformation
    name: str = ""

    def t_ob(self, x: int) -> int:
        return self.endo.ob(x)

    def t_mor(self, f: MorRef) -> MorRef:
        return self.endo.mor(f)

    def eta(self, x: int) -> MorRef:
        return self.unit.at(x)

    def mu(self, x: int) -> MorRef:
        return self.mult.at(x)


@dataclass(eq=False)
class KleisliCocone:
    apex: Enrichment
    leg: EnrichedFunctor
    cell: EnrichedTransformation
    name: str = ""


@law_scan
def check_enriched_monad(col: Collector, T: EnrichedMonad) -> None:
    """Endofunctor/transformation checkers plus the unit and associativity
    laws of the monad, componentwise over every object."""
    E = T.carrier
    cat = E.under
    col.include("endo", check_functor_enrichment(T.endo))
    for name, tr in (("unit", T.unit), ("mult", T.mult)):
        col.include(name, check_nat_trans_enrichment(tr))
    for x in E.objects():
        tx = T.t_ob(x)
        left = cat.compose(T.eta(tx), T.mu(x))
        if left != cat.id_of(tx):
            col.add("monad-left-unit", (x,), left, cat.id_of(tx))
        right = cat.compose(T.t_mor(T.eta(x)), T.mu(x))
        if right != cat.id_of(tx):
            col.add("monad-right-unit", (x,), right, cat.id_of(tx))
        assoc_l = cat.compose(T.mu(tx), T.mu(x))
        assoc_r = cat.compose(T.t_mor(T.mu(x)), T.mu(x))
        if assoc_l != assoc_r:
            col.add("monad-associativity", (x,), assoc_l, assoc_r)


# ---------------------------------------------------------------------------
# the raw Kleisli enrichment (no equalizers needed)
# ---------------------------------------------------------------------------

def fkleisli(T: EnrichedMonad) -> Enrichment:
    """Hom objects E(x, T y) with unit eta and the functor/composition/mu
    chain as enriched composition; the underlying category is the textbook
    Kleisli category."""
    E = T.carrier
    V = E.base
    cat = E.under
    n = E.n_objects

    under = FinCat.tabulate(
        n,
        {(x, y): cat.hom(x, T.t_ob(y)) for x, y in itertools.product(range(n), repeat=2)},
        T.eta,
        lambda x, y, z, f, g: cat.compose(cat.compose(f, T.t_mor(g)), T.mu(z)),
    )

    def ecomp(x, y, z):
        ty, tz = T.t_ob(y), T.t_ob(z)
        return V.compose_all(
            V.tensor_mor(T.endo.e_fun(y, tz), V.id_of(E.hom(x, ty))),
            required_ecomp(E, x, ty, T.t_ob(tz)),
            precompose_mor(E, x, T.mu(z)),
        )

    return Enrichment.tabulate(
        V, under,
        lambda x, y: E.hom(x, T.t_ob(y)),
        lambda x: required_farr(E, T.eta(x)),
        ecomp,
        lambda m: required_farr(E, MorRef(m.src, T.t_ob(m.dst), m.k)),
        name=f"fkleisli({T.name})",
    )


def fkleisli_cocone(T: EnrichedMonad, FK: Enrichment | None = None) -> KleisliCocone:
    """The canonical cocone: the identity-on-objects inclusion into the raw
    Kleisli enrichment, with the identity-shaped cell."""
    E = T.carrier
    FK = FK if FK is not None else fkleisli(T)
    cat = E.under
    leg = EnrichedFunctor.tabulate(
        E, FK,
        lambda x: x,
        lambda f: MorRef(f.src, f.dst, cat.compose(f, T.eta(f.dst)).k),
        lambda x, y: precompose_mor(E, x, T.eta(y)),
        name="kleisli-leg",
    )
    cell = EnrichedTransformation(
        compose_functors(T.endo, leg),
        leg,
        {x: MorRef(T.t_ob(x), x, cat.id_of(T.t_ob(x)).k) for x in E.objects()},
        name="kleisli-cell",
    )
    return KleisliCocone(FK, leg, cell, name="canonical")


@law_scan
def check_kleisli_cocone(col: Collector, T: EnrichedMonad, q: KleisliCocone) -> None:
    """Leg and cell enrichment plus the unit triangle and multiplication
    square of a Kleisli cocone."""
    col.include("leg", check_functor_enrichment(q.leg))
    col.include("cell", check_nat_trans_enrichment(q.cell))
    apex_cat = q.apex.under
    for x in T.carrier.objects():
        lhs = apex_cat.compose(q.leg.mor(T.eta(x)), q.cell.at(x))
        rhs = apex_cat.id_of(q.leg.ob(x))
        if lhs != rhs:
            col.add("cocone-unit", (x,), lhs, rhs)
        lhs = apex_cat.compose(q.leg.mor(T.mu(x)), q.cell.at(x))
        rhs = apex_cat.compose(q.cell.at(T.t_ob(x)), q.cell.at(x))
        if lhs != rhs:
            col.add("cocone-mult", (x,), lhs, rhs)


# ---------------------------------------------------------------------------
# Eilenberg-Moore via dialgebras
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EilenbergMooreResult:
    """EM enrichment as the algebra-law full subcategory of the dialgebras of
    (T, id); unpacks like (enrichment, forgetful)."""

    enrichment: Enrichment
    forgetful: EnrichedFunctor
    dialg: DialgebraResult
    inclusion: EnrichedFunctor
    algebras: list

    def __iter__(self):
        return iter((self.enrichment, self.forgetful))

    def dialg_index(self, em_index: int) -> int:
        return self.inclusion.ob(em_index)

    def em_index_of_dialg(self, d: int) -> int:
        for em, dd in self.inclusion.ob_map.items():
            if dd == d:
                return em
        raise StructuralError(f"dialgebra {d} is not an algebra")


def is_algebra(T: EnrichedMonad, x: int, a: MorRef) -> bool:
    cat = T.carrier.under
    if cat.compose(T.eta(x), a) != cat.id_of(x):
        return False
    return cat.compose(T.mu(x), a) == cat.compose(T.t_mor(a), a)


def eilenberg_moore(T: EnrichedMonad) -> EilenbergMooreResult:
    """Full subcategory of the (endo, id) dialgebras on the unit and
    multiplication algebra laws."""
    if not T.carrier.base.has_equalizers:
        raise CapabilityError("Eilenberg-Moore needs equalizers in the base")
    dialg = dialgebra_enrichment(T.endo, id_functor(T.carrier))
    good = {
        d for d, (x, a) in enumerate(dialg.objects) if is_algebra(T, x, a)
    }
    em, inclusion = full_sub_enrichment(dialg.enrichment, lambda d: d in good)
    forgetful = compose_functors(inclusion, dialg.projection)
    algebras = [dialg.objects[inclusion.ob(i)] for i in range(em.n_objects)]
    return EilenbergMooreResult(em, forgetful, dialg, inclusion, algebras)


def free_algebra_functor(T: EnrichedMonad, em: EilenbergMooreResult | None = None) -> EnrichedFunctor:
    """x goes to the free algebra (T x, mu_x); hom components factor the
    endofunctor enrichment through the dialgebra equalizers."""
    em = em if em is not None else eilenberg_moore(T)
    E = T.carrier
    dialg = em.dialg
    d_index = {ob: i for i, ob in enumerate(dialg.objects)}
    ob_map = {x: em.em_index_of_dialg(d_index[T.t_ob(x), T.mu(x)]) for x in E.objects()}

    def dialg_pair(x, y):
        return em.dialg_index(ob_map[x]), em.dialg_index(ob_map[y])

    return EnrichedFunctor.tabulate(
        E, em.enrichment,
        ob_map.__getitem__,
        lambda f: MorRef(ob_map[f.src], ob_map[f.dst], dialg.mor_over(*dialg_pair(f.src, f.dst), T.t_mor(f)).k),
        lambda x, y: dialg.equalizers[dialg_pair(x, y)].factor(T.endo.e_fun(x, y)),
        name="free-algebra",
    )


# ---------------------------------------------------------------------------
# the univalent Kleisli enrichment and the comparison
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class UnivalentKleisliResult:
    """Image of the free-algebra functor with its univalence report; unpacks
    like (enrichment, report)."""

    enrichment: Enrichment
    report: UnivalenceReport
    factorization: FactorizationResult
    em: EilenbergMooreResult
    free: EnrichedFunctor

    def __iter__(self):
        return iter((self.enrichment, self.report))


def univalent_kleisli(T: EnrichedMonad, em: EilenbergMooreResult | None = None) -> UnivalentKleisliResult:
    em = em if em is not None else eilenberg_moore(T)
    free = free_algebra_functor(T, em)
    fact = image_factorization(free)
    return UnivalentKleisliResult(fact.image, univalence_report(fact.image), fact, em, free)


def kleisli_comparison(
    T: EnrichedMonad,
    FK: Enrichment | None = None,
    uk: UnivalentKleisliResult | None = None,
) -> EnrichedFunctor:
    """The weak equivalence from the raw Kleisli enrichment onto the image of
    the free-algebra functor: x to the free algebra on x, hom components the
    endofunctor enrichment followed by composing with mu."""
    E = T.carrier
    V = E.base
    FK = FK if FK is not None else fkleisli(T)
    uk = uk if uk is not None else univalent_kleisli(T)
    em = uk.em
    dialg = em.dialg
    ob_map = uk.factorization.eso_part.ob_map

    # image-mor indices agree with EM-mor indices, which agree with the
    # dialgebra hom filtration; the image object of x sits over the algebra free(x)
    def em_pair(x, y):
        return em.dialg_index(uk.free.ob(x)), em.dialg_index(uk.free.ob(y))

    def mor(m):
        h = E.under.compose(T.t_mor(MorRef(m.src, T.t_ob(m.dst), m.k)), T.mu(m.dst))
        return MorRef(ob_map[m.src], ob_map[m.dst], dialg.mor_over(*em_pair(m.src, m.dst), h).k)

    def e_fun(x, y):
        chain = V.compose(T.endo.e_fun(x, T.t_ob(y)), precompose_mor(E, T.t_ob(x), T.mu(y)))
        return dialg.equalizers[em_pair(x, y)].factor(chain)

    return EnrichedFunctor.tabulate(FK, uk.enrichment, ob_map.__getitem__, mor, e_fun, name="kleisli-comparison")


def univalent_kleisli_cocone(
    T: EnrichedMonad,
    FK: Enrichment | None = None,
    uk: UnivalentKleisliResult | None = None,
    kappa: EnrichedFunctor | None = None,
) -> KleisliCocone:
    """The canonical cocone transported along the comparison functor."""
    FK = FK if FK is not None else fkleisli(T)
    uk = uk if uk is not None else univalent_kleisli(T)
    kappa = kappa if kappa is not None else kleisli_comparison(T, FK, uk)
    raw = fkleisli_cocone(T, FK)
    leg = compose_functors(raw.leg, kappa)
    cell = whisker_right(raw.cell, kappa)
    # reshape: whisker_right produces (endo.raw_leg).kappa => raw_leg.kappa
    cell = EnrichedTransformation(
        compose_functors(T.endo, leg), leg, dict(cell.component), name="univalent-kleisli-cell"
    )
    return KleisliCocone(uk.enrichment, leg, cell, name="univalent-canonical")


def kleisli_universal_extend(
    T: EnrichedMonad,
    q: KleisliCocone,
    FK: Enrichment | None = None,
    uk: UnivalentKleisliResult | None = None,
    kappa: EnrichedFunctor | None = None,
) -> tuple[EnrichedFunctor, EnrichedTransformation]:
    """Mediating 1-cell out of the univalent Kleisli object for a cocone q,
    with the invertible comparison 2-cell; the cocone compatibility square is
    verified, as is enrichment of everything built along the way.

    Street-style: first the functor out of the raw Kleisli enrichment, then
    the extension along the comparison weak equivalence.
    """
    E = T.carrier
    V = E.base
    FK = FK if FK is not None else fkleisli(T)
    uk = uk if uk is not None else univalent_kleisli(T)
    kappa = kappa if kappa is not None else kleisli_comparison(T, FK, uk)
    check_kleisli_cocone(T, q).require("invalid Kleisli cocone")

    # step two: the cocone induces P : FK -> apex
    A = q.apex
    P = EnrichedFunctor.tabulate(
        FK, A,
        q.leg.ob,
        lambda m: A.under.compose(q.leg.mor(MorRef(m.src, T.t_ob(m.dst), m.k)), q.cell.at(m.dst)),
        lambda x, y: V.compose(q.leg.e_fun(x, T.t_ob(y)), precompose_mor(A, q.leg.ob(x), q.cell.at(y))),
        name="cocone-induced",
    )
    check_functor_enrichment(P).require("cocone-induced functor fails")

    # step three: extend along the comparison weak equivalence
    H, cell2 = extend_functor(kappa, P)

    # the mediating 2-cell against the transported canonical cocone
    canon = univalent_kleisli_cocone(T, FK, uk, kappa)
    com = EnrichedTransformation(
        compose_functors(canon.leg, H), q.leg,
        {x: cell2.at(x) for x in E.objects()},
        name="mediator-cell",
    )
    check_nat_trans_enrichment(com).require("mediator 2-cell fails enrichment")
    # cocone compatibility square, componentwise
    for x in E.objects():
        lhs = A.under.compose(com.at(T.t_ob(x)), q.cell.at(x))
        rhs = A.under.compose(H.mor(canon.cell.at(x)), com.at(x))
        if lhs != rhs:
            raise StructuralError(f"mediator compatibility square fails at {x}")
    return H, com


def kleisli_mediator_2cell(
    cocone_leg: EnrichedFunctor,
    g1: EnrichedFunctor,
    g2: EnrichedFunctor,
    tau: EnrichedTransformation,
) -> EnrichedTransformation:
    """The unique 2-cell between mediators whose whiskering along the cocone
    leg is tau; uniqueness comes from the transport scan."""
    return transport_transformation(cocone_leg, g1, g2, tau)
