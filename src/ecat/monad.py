"""Enriched monads, both Kleisli presentations, Eilenberg-Moore objects via
dialgebras, and Kleisli-object universal property verification.

The univalent Kleisli enrichment is the Rezk completion of the raw one, and
the Rezk unit is the comparison weak equivalence between them. Neither needs
equalizers; only Eilenberg-Moore does, so it alone is gated on the base's
capabilities.
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
)
from .report import CapabilityError, Collector, StructuralError, law_scan
from .rezk import RezkResult, extend_functor, rezk_completion
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
    (T, id)."""

    enrichment: Enrichment
    forgetful: EnrichedFunctor
    dialg: DialgebraResult
    inclusion: EnrichedFunctor
    algebras: list

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
# the univalent Kleisli enrichment: the Rezk completion of the raw one
# ---------------------------------------------------------------------------

def univalent_kleisli(T: EnrichedMonad) -> RezkResult:
    """The Rezk completion of the raw Kleisli enrichment. Its unit, out of
    ``fkleisli(T)``, is the comparison weak equivalence, with certificates."""
    return rezk_completion(fkleisli(T))


def univalent_kleisli_cocone(T: EnrichedMonad, uk: RezkResult | None = None) -> KleisliCocone:
    """The canonical cocone transported along the comparison functor."""
    uk = uk if uk is not None else univalent_kleisli(T)
    kappa = uk.unit_functor
    raw = fkleisli_cocone(T, kappa.dom)
    leg = compose_functors(raw.leg, kappa)
    cell = EnrichedTransformation(
        compose_functors(T.endo, leg), leg,
        {x: kappa.mor(raw.cell.at(x)) for x in T.carrier.objects()},
        name="univalent-kleisli-cell",
    )
    return KleisliCocone(uk.completion, leg, cell, name="univalent-canonical")


def kleisli_universal_extend(
    T: EnrichedMonad, q: KleisliCocone, uk: RezkResult | None = None
) -> tuple[EnrichedFunctor, EnrichedTransformation]:
    """Mediating 1-cell out of the univalent Kleisli object for a cocone q,
    with the invertible comparison 2-cell; the cocone compatibility square is
    verified, as is enrichment of everything built along the way.

    Street-style: first the functor out of the raw Kleisli enrichment, then
    the extension along the comparison weak equivalence.
    """
    E = T.carrier
    V = E.base
    uk = uk if uk is not None else univalent_kleisli(T)
    FK = uk.unit_functor.dom
    check_kleisli_cocone(T, q).require("invalid Kleisli cocone")

    # the cocone induces P : FK -> apex
    A = q.apex
    P = EnrichedFunctor.tabulate(
        FK, A,
        q.leg.ob,
        lambda m: A.under.compose(q.leg.mor(MorRef(m.src, T.t_ob(m.dst), m.k)), q.cell.at(m.dst)),
        lambda x, y: V.compose(q.leg.e_fun(x, T.t_ob(y)), precompose_mor(A, q.leg.ob(x), q.cell.at(y))),
        name="cocone-induced",
    )
    check_functor_enrichment(P).require("cocone-induced functor fails")

    # extend P along the comparison weak equivalence, whose certificates
    # the Rezk completion already decided
    H, cell2 = extend_functor(uk.unit, P)

    # the mediating 2-cell against the transported canonical cocone
    canon = univalent_kleisli_cocone(T, uk)
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
