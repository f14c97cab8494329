"""Representables, the Yoneda embedding, univalence reporting, desk-scale
Rezk completion by skeletonization, and brute-force verification of the
precomposition universal property.

Skeletonization replaces the presheaf-image construction: with decidable
equality and finite data the two agree up to weak equivalence, which the test
suite cross-checks at micro scale against the image of the Yoneda embedding.
The Rezk unit inverts the inclusion of the skeleton by
``factor.invert_along`` and is a ``factor.WeakEquivalence``. The extension,
the transport of 2-cells and the precomposition check read one such value,
whose certificates are decided once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

from .construct import (
    FunctorCategoryResult,
    functor_category_on,
    full_sub_enrichment,
    opposite_enrichment,
    self_enrichment,
)
from .core import (
    Enrichment,
    EnrichedFunctor,
    EnrichedTransformation,
    check_functor_enrichment,
    check_nat_trans_enrichment,
    compose_functors,
    enumerate_enriched_functors,
    enumerate_enriched_transformations,
    find_inverse,
    invertible_2cell,
    postcompose_mor,
    precompose_mor,
    required_ecomp,
    whisker_left,
)
from .factor import (
    FullyFaithfulWitness,
    WeakEquivalence,
    invert_along,
    is_essentially_surjective,
    is_fully_faithful,
    iso_arrows,
    iso_witness,
    weak_equivalence,
)
from .report import CapabilityError, CheckReport, Collector, Failure, StructuralError
from .vbase import MorRef


@dataclass
class UnivalenceReport:
    """Finite reading of univalence: skeletal (no isos between distinct
    objects) and gaunt (skeletal with trivial automorphism groups).
    ``isomorphic`` is the first pair of distinct isomorphic objects."""

    skeletal: bool
    automorphism_counts: dict
    gaunt: bool
    isomorphic: tuple | None = None

    def skeletal_report(self) -> CheckReport:
        """Law ``skeletal``, failing at the first pair of distinct isomorphic objects."""
        return CheckReport.from_failures([] if self.skeletal else [Failure("skeletal", self.isomorphic)])


@dataclass
class RezkResult:
    completion: Enrichment
    unit: WeakEquivalence
    unit_functor = property(lambda self: self.unit.F)
    cert_ff = property(lambda self: self.unit.ff)
    cert_eso = property(lambda self: self.unit.eso)


def representable(E: Enrichment, y: int, selfE: Enrichment | None = None,
                  opE: Enrichment | None = None) -> EnrichedFunctor:
    """The presheaf E(-, y) as an enriched functor op(E) -> self(base)."""
    V = E.base
    if opE is None:
        opE = opposite_enrichment(E)
    if selfE is None:
        selfE = self_enrichment(V)

    def e_fun(x1, x2):
        chain = V.compose(V.symmetry(E.hom(x2, x1), E.hom(x1, y)), required_ecomp(E, x2, x1, y))
        return V.lam(E.hom(x2, x1), E.hom(x1, y), E.hom(x2, y), chain)

    return EnrichedFunctor.tabulate(
        opE, selfE,
        lambda x: E.hom(x, y),
        # an op-morphism x1 -> x2 is an E-morphism x2 -> x1
        lambda m: postcompose_mor(E, y, MorRef(m.dst, m.src, m.k)),
        e_fun,
        name=f"repr({y})",
    )


def representable_transformation(
    E: Enrichment, f: MorRef, r1: EnrichedFunctor, r2: EnrichedFunctor
) -> EnrichedTransformation:
    """The transformation E(-, y1) => E(-, y2) induced by f: y1 -> y2; its
    component at x composes f on the target side."""
    comp = {x: precompose_mor(E, x, f) for x in E.objects()}
    return EnrichedTransformation(r1, r2, comp, name=f"repr({f})")


@dataclass(eq=False)
class YonedaResult:
    """The Yoneda embedding; ``functor_category`` is the full subcategory of
    the presheaf category [op(E), self(V)] on the representables, and
    ``representables`` maps each object y to E(-, y)."""

    embedding: EnrichedFunctor
    functor_category: FunctorCategoryResult
    representables: dict


def yoneda(E: Enrichment, cap: int = 10_000) -> YonedaResult:
    """The enriched Yoneda embedding of E into the full subcategory of
    presheaves on the representables, which is all a fully faithful
    embedding needs. Each representable is checked to be an enriched
    functor, and each transformation a morphism of E induces is found among
    the enumerated transformations between representables."""
    V = E.base
    opE = opposite_enrichment(E)
    selfE = self_enrichment(V)
    reps = {y: representable(E, y, selfE=selfE, opE=opE) for y in E.objects()}
    for y, R in reps.items():
        check_functor_enrichment(R).require(f"representable at {y} fails enrichment")
    fc = functor_category_on(opE, selfE, list(reps.values()), cap=cap)
    ob_map = {y: fc.functor_index(reps[y]) for y in E.objects()}

    def mor(f):
        a, b = ob_map[f.src], ob_map[f.dst]
        tau = representable_transformation(E, f, reps[f.src], reps[f.dst])
        return MorRef(a, b, fc.transformation_index(a, b, tau.component))

    def e_fun(y1, y2):
        a, b = ob_map[y1], ob_map[y2]
        legs = [V.lam(E.hom(y1, y2), E.hom(x, y1), E.hom(x, y2), required_ecomp(E, x, y1, y2)) for x in E.objects()]
        return fc.equalizers[a, b].factor(fc.products[a, b].pair(E.hom(y1, y2), legs))

    embedding = EnrichedFunctor.tabulate(E, fc.enrichment, ob_map.__getitem__, mor, e_fun, name="yoneda")
    return YonedaResult(embedding, fc, reps)


def check_yoneda_ff(E: Enrichment, cap: int = 10_000) -> CheckReport:
    """Fully-faithfulness of the Yoneda embedding; a failure here is a
    library bug, not a property of E."""
    return is_fully_faithful(yoneda(E, cap=cap).embedding).report()


def univalence_report(E: Enrichment) -> UnivalenceReport:
    cat = E.under
    isomorphic = next((p for p in itertools.combinations(E.objects(), 2) if iso_arrows(cat, *p)), None)
    autos = {x: len(iso_arrows(cat, x, x)) for x in E.objects()}
    skeletal = isomorphic is None
    return UnivalenceReport(skeletal, autos, skeletal and all(c == 1 for c in autos.values()), isomorphic)


def rezk_completion(E: Enrichment) -> RezkResult:
    """Skeletonize: keep the least object of each isomorphism class and send
    every object to its representative along its ``iso_witness`` (the
    identity at a representative), by inverting the inclusion of the
    representatives. The unit is a ``WeakEquivalence``: its certificates are
    computed, not assumed, and its weak inverse is tabulated only when read."""
    cat = E.under
    witness = {}
    for x in E.objects():  # the least r iso to x, with its witness iso r -> x
        found = next(((r, i) for r in range(x + 1) if (i := iso_witness(cat, r, x)) is not None), None)
        if found is None:
            raise StructuralError(f"object {x} has no invertible endomorphism, so no Rezk representative")
        witness[x] = found
    completion, inclusion = full_sub_enrichment(E, lambda x: witness[x][0] == x)
    new_of = {old: new for new, old in inclusion.ob_map.items()}
    # the inclusion's hom components are identities, their own inverses
    ff = FullyFaithfulWitness(True, inclusion.e_fun_t)
    unit = invert_along(inclusion, ff, {x: (new_of[r], i) for x, (r, i) in witness.items()}, name="rezk-unit")
    return RezkResult(completion, weak_equivalence(unit))


# ---------------------------------------------------------------------------
# the precomposition universal property
# ---------------------------------------------------------------------------

def transport_transformation(
    F: EnrichedFunctor | WeakEquivalence,
    G1: EnrichedFunctor,
    G2: EnrichedFunctor,
    tau: EnrichedTransformation,
) -> EnrichedTransformation:
    """Given eso F: E1 -> E2 and tau: F.G1 => F.G2, the unique theta: G1 => G2
    with F whiskered into theta equal to tau.

    Naturality at the eso witness i: F w ~ x forces theta_x = G1(i)^-1 ;
    tau_w ; G2(i). theta is re-checked natural and to whisker back to tau;
    any natural theta' with that whisker satisfies G1(i) ; theta'_x =
    tau_w ; G2(i), so with G1(i) invertible the re-checks make theta unique.
    A ``WeakEquivalence`` lends its eso witnesses; a bare F needs only eso,
    which is computed.
    """
    if isinstance(F, WeakEquivalence):
        F, eso = F.F, F.eso
    else:
        eso = is_essentially_surjective(F)
    if not eso.ok:
        raise CapabilityError(f"transport needs an essentially surjective functor; missed {eso.missed}")
    cat3 = G1.cod.under
    comp = {}
    for x, (w, i) in eso.preimage.items():
        g1_inv = find_inverse(cat3, G1.mor(i))
        if g1_inv is None:
            raise StructuralError(f"G1 does not invert the witness {i} at {x}")
        comp[x] = cat3.compose(cat3.compose(g1_inv, tau.at(w)), G2.mor(i))
    theta = EnrichedTransformation(G1, G2, comp, name="transported")
    check_nat_trans_enrichment(theta).require("transported transformation fails enrichment")
    back = whisker_left(F, theta)
    if back.component != tau.component:
        raise StructuralError("transported transformation does not whisker back to tau")
    return theta


def extend_functor(
    F: EnrichedFunctor | WeakEquivalence, G: EnrichedFunctor
) -> tuple[EnrichedFunctor, EnrichedTransformation]:
    """Extend G: E1 -> E3 along a weak equivalence F: E1 -> E2 to H: E2 -> E3
    with an invertible 2-cell F.H => G.

    H is L ; G for the weak inverse L of F, and the 2-cell is G applied to
    the components of F.L => id_E1. H and the 2-cell are re-checked.
    """
    try:
        W = weak_equivalence(F)
    except CapabilityError as exc:
        raise CapabilityError("extension needs a weak equivalence") from exc
    H = replace(compose_functors(W.L, G), name="extension")
    check_functor_enrichment(H).require("extension fails enrichment")
    comp = {w: G.mor(u) for w, u in W.upper.items()}
    cell = EnrichedTransformation(compose_functors(W.F, H), G, comp, name="extension-cell")
    check_nat_trans_enrichment(cell).require("extension 2-cell fails enrichment")
    if invertible_2cell(cell) is None:
        raise StructuralError("extension 2-cell is not invertible")
    return H, cell


def check_precomp_equivalence(
    F: EnrichedFunctor | WeakEquivalence, E3: Enrichment, cap: int = 10_000
) -> CheckReport:
    """Precomposition with a weak equivalence F: E1 -> E2 is an equivalence
    [E2, E3] -> [E1, E3]: faithful, full and essentially surjective on the
    enumerated underlying categories, cross-validated against the transport
    and extension constructions. F is refused up front unless it is a weak
    equivalence, and each transformation set between functors out of E1 is
    enumerated at most once."""
    W = weak_equivalence(F)
    F = W.F
    col = Collector()
    fun2 = enumerate_enriched_functors(F.cod, E3, cap=cap)
    fun1 = enumerate_enriched_functors(F.dom, E3, cap=cap)
    keys1 = {G.table_key(): i for i, G in enumerate(fun1)}

    def precomp(G: EnrichedFunctor) -> int:
        key = compose_functors(F, G).table_key()
        if key not in keys1:
            raise StructuralError("precomposition leaves the enumerated functor category")
        return keys1[key]

    @functools.cache  # one dict keyed by (k, j) for every reader below
    def between(k: int, j: int) -> list:
        return enumerate_enriched_transformations(fun1[k], fun1[j], cap=cap)

    def has_iso(k: int, j: int) -> bool:
        return any(invertible_2cell(tau) is not None for tau in between(k, j))

    images = [precomp(G) for G in fun2]

    # fully faithful: whiskering is a bijection on each transformation set
    for a, b in itertools.product(range(len(fun2)), repeat=2):
        src = enumerate_enriched_transformations(fun2[a], fun2[b], cap=cap)
        tgt = between(images[a], images[b])
        whiskered = {tuple(sorted(whisker_left(F, tau).component.items())) for tau in src}
        if len(whiskered) != len(src):
            col.add("precomp-faithful", (a, b), len(whiskered), len(src))
        if len(src) != len(tgt):
            col.add("precomp-full", (a, b), len(src), len(tgt))
        else:
            # cross-validate fullness: each target transports back along F,
            # and the transport refuses unless it whiskers back to the target
            for tau1 in tgt:
                transport_transformation(W, fun2[a], fun2[b], tau1)

    # essentially surjective: every functor out of E1 is isomorphic to a
    # precomposite, and to the precomposite of its extension along F
    for j, H in enumerate(fun1):
        if not any(k == j or has_iso(k, j) for k in images):
            col.add("precomp-eso", (j,))
            continue
        ext, _ = extend_functor(W, H)
        if not has_iso(precomp(ext), j):
            col.add("precomp-extension-isomorphic", (j,))
    return col.report()
