"""Image factorization of enriched functors and weak-equivalence inversion.

Fully faithful means every hom-wise enrichment component has a two-sided
inverse in the base; essentially surjective means every codomain object is
isomorphic to a value, with the lexicographically least witness chosen.
Orthogonality is implemented operationally: diagonal lifts of squares against
(eso, ff) pairs and unique 2-cells between lifts. A weak equivalence is one
``WeakEquivalence`` value, decided once and read by the adjoint equivalence
here and by the extension, transport and precomposition check in ``rezk``.
One rule set, ``invert_along``, tabulates every inverse of a fully faithful
functor along chosen isos: the diagonal lift, the weak inverse and the Rezk
unit."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .construct import full_sub_enrichment
from .core import (
    Enrichment,
    EnrichedFunctor,
    EnrichedTransformation,
    compose_functors,
    find_inverse,
    id_functor,
    invertible_2cell,
    postcompose_mor,
    precompose_mor,
    required_farr,
    whisker_left,
)
from .report import CapabilityError, CheckReport, Failure, StructuralError
from .vbase import MorRef


@dataclass
class FullyFaithfulWitness:
    ok: bool
    inverses: dict
    failing: tuple | None = None

    def report(self) -> CheckReport:
        """Law ``fully-faithful``, failing at the first (x, y) with no inverse."""
        return CheckReport.from_failures([] if self.ok else [Failure("fully-faithful", self.failing)])


@dataclass
class EsoWitness:
    ok: bool
    preimage: dict
    missed: list

    def report(self) -> CheckReport:
        """Law ``essentially-surjective``, failing at each missed (y,)."""
        return CheckReport.from_failures([Failure("essentially-surjective", (y,)) for y in self.missed])


@dataclass
class FactorizationResult:
    image: Enrichment
    eso_part: EnrichedFunctor
    ff_part: EnrichedFunctor
    comparison: EnrichedTransformation


@dataclass
class AdjointEquivalence:
    fwd: EnrichedFunctor
    bwd: EnrichedFunctor
    unit: EnrichedTransformation
    counit: EnrichedTransformation
    triangle_reports: tuple[CheckReport, CheckReport]


@dataclass
class LiftSquare:
    """F eso, G ff, with glue an invertible 2-cell F.H2 => H1.G."""

    F: EnrichedFunctor
    G: EnrichedFunctor
    H1: EnrichedFunctor
    H2: EnrichedFunctor
    glue: EnrichedTransformation


def is_fully_faithful(F: EnrichedFunctor) -> FullyFaithfulWitness:
    """True iff every enrichment component is invertible; witnesses returned."""
    V = F.dom.base
    inverses = {}
    for x, y in itertools.product(F.dom.objects(), repeat=2):
        inv = find_inverse(V, F.e_fun(x, y))
        if inv is None:
            return FullyFaithfulWitness(False, inverses, failing=(x, y))
        inverses[(x, y)] = inv
    return FullyFaithfulWitness(True, inverses)


def iso_arrows(cat, x: int, y: int) -> list[MorRef]:
    return [f for f in cat.hom(x, y) if find_inverse(cat, f) is not None]


def iso_witness(cat, x: int, y: int) -> MorRef | None:
    """The iso x -> y a witness takes: id_x when x == y, else the first iso
    in hom order; None when there is none. So a construction on an input
    that needs no transport returns identities, whatever the hom order. An
    identity that is not invertible (a malformed category) is no witness."""
    isos = iso_arrows(cat, x, y)
    if x == y and cat.id_of(x) in isos:
        return cat.id_of(x)
    return isos[0] if isos else None


def is_essentially_surjective(F: EnrichedFunctor) -> EsoWitness:
    """For every codomain object y the witness (x, iso F x -> y) of the least
    x with F x = y, else of the least x with F x ~ y (``iso_witness``)."""
    cod = F.cod.under
    preimage = {}
    missed = []
    for y in F.cod.objects():
        xs = sorted(F.dom.objects(), key=lambda x: F.ob(x) != y)  # exact preimages first, in order
        found = next(((x, i) for x in xs if (i := iso_witness(cod, F.ob(x), y)) is not None), None)
        if found is None:
            missed.append(y)
        else:
            preimage[y] = found
    return EsoWitness(not missed, preimage, missed)


def underlying_hom_inverse(
    F: EnrichedFunctor, ff: FullyFaithfulWitness, g: MorRef, x: int, y: int
) -> MorRef:
    """Preimage of g: F x -> F y in hom(x, y), through the enrichment-component
    inverse and the from_arr bijections."""
    E1, E2 = F.dom, F.cod
    if F.ob(x) != g.src or F.ob(y) != g.dst:
        raise StructuralError(f"{g} does not sit over hom({x},{y})")
    u1 = E1.base.compose(required_farr(E2, g), ff.inverses[(x, y)])
    f = E1.tarr(x, y, u1)
    if f is None or F.mor(f) != g:
        raise StructuralError(f"no underlying preimage for {g} in hom({x},{y})")
    return f


def image_factorization(F: EnrichedFunctor) -> FactorizationResult:
    """Full image: restrict the codomain to objects isomorphic to a value.

    The eso part corestricts F; the ff part is the full inclusion; the
    comparison is the identity-component 2-cell F => eso;ff.
    """
    cod = F.cod
    values = {F.ob(x) for x in F.dom.objects()}
    hit = {y for y in cod.objects() if any(iso_arrows(cod.under, v, y) for v in values)}
    image, inclusion = full_sub_enrichment(cod, lambda y: y in hit)
    new_of = {old: new for new, old in inclusion.ob_map.items()}

    def mor(f):
        g = F.mor(f)
        return MorRef(new_of[g.src], new_of[g.dst], g.k)

    eso = EnrichedFunctor.tabulate(
        F.dom, image, lambda x: new_of[F.ob(x)], mor, F.e_fun, name=f"{F.name}-corestriction"
    )
    composite = compose_functors(eso, inclusion)
    comparison = EnrichedTransformation(
        F, composite,
        {x: cod.under.id_of(F.ob(x)) for x in F.dom.objects()},
        name="image-comparison",
    )
    return FactorizationResult(image, eso, inclusion, comparison)


def invert_along(
    G: EnrichedFunctor,
    ff: FullyFaithfulWitness,
    witness: dict,
    K: EnrichedFunctor | None = None,
    name: str = "lift",
) -> EnrichedFunctor:
    """The functor L: E2 -> E3 inverting a fully faithful G: E3 -> E4 along
    K: E2 -> E4 (the identity of E4 when None), given for each y in E2 a
    witness ``(w, gamma_y)`` with gamma_y: G w -> K y invertible: L y = w, L g
    is the G-preimage of gamma_y ; K g ; gamma_y'^-1, and L's hom component
    conjugates K's by the witnesses, then applies ``ff``'s inverse."""
    E4 = G.cod
    V, cod4 = E4.base, E4.under
    ob = {y: w for y, (w, _) in witness.items()}
    gamma = {y: g for y, (_, g) in witness.items()}
    gamma_inv = {}
    for y, g in gamma.items():
        gamma_inv[y] = find_inverse(cod4, g)
        if gamma_inv[y] is None:
            raise StructuralError(f"witness {g} at {y} is not invertible")

    def mor(g: MorRef) -> MorRef:
        whole = cod4.compose(cod4.compose(gamma[g.src], g if K is None else K.mor(g)), gamma_inv[g.dst])
        return underlying_hom_inverse(G, ff, whole, ob[g.src], ob[g.dst])

    def e_fun(y, y2):
        # E2(y,y') -> E4(K y, K y') -> E4(G w, K y') -> E4(G w, G w') -> E3(w, w'),
        # where K y' is the codomain of gamma_y'
        m = postcompose_mor(E4, gamma[y2].dst, gamma[y])
        if K is not None:
            m = V.compose(K.e_fun(y, y2), m)
        m = V.compose(m, precompose_mor(E4, G.ob(ob[y]), gamma_inv[y2]))
        return V.compose(m, ff.inverses[(ob[y], ob[y2])])

    return EnrichedFunctor.tabulate(E4 if K is None else K.dom, G.dom, ob.__getitem__, mor, e_fun, name=name)


def orthogonal_lift(
    sq: LiftSquare, preimage: dict | None = None
) -> tuple[EnrichedFunctor, EnrichedTransformation, EnrichedTransformation]:
    """Diagonal filler L with invertible 2-cells for both triangles.

    Returns (L, upper, lower) where upper: F.L => H1 and lower: L.G => H2.
    ``preimage`` overrides the canonical eso witness choice; different choices
    give equal lifts over thin bases and isomorphic ones in general. Works for
    any eso F and ff G regardless of univalence flags; when the data is not
    skeletal the result is canonical rather than unique.
    """
    F, G, H1, H2, glue = sq.F, sq.G, sq.H1, sq.H2, sq.glue
    eso = is_essentially_surjective(F)
    ff = is_fully_faithful(G)
    if not eso.ok:
        raise CapabilityError(f"lift needs an essentially surjective left leg; missed {eso.missed}")
    if not ff.ok:
        raise CapabilityError(f"lift needs a fully faithful right leg; fails at {ff.failing}")
    if preimage is not None:
        eso = EsoWitness(True, dict(preimage), [])
    cod4 = G.cod.under

    # gamma_y : G(L y) -> H2 y, built from the glue at the chosen preimage
    witness = {}
    for y in F.cod.objects():
        x, i = eso.preimage[y]
        glue_inv = find_inverse(cod4, glue.at(x))
        if glue_inv is None:
            raise StructuralError("glue 2-cell is not invertible")
        witness[y] = (H1.ob(x), cod4.compose(glue_inv, H2.mor(i)))
    L = invert_along(G, ff, witness, H2)

    # lower triangle: L.G => H2 with components gamma
    gamma = {y: g for y, (_, g) in witness.items()}
    lower = EnrichedTransformation(compose_functors(L, G), H2, gamma, name="lift-lower")

    # upper triangle: F.L => H1; component at x is the G-preimage of
    # gamma_{F x} followed by the glue at x
    upper_comp = {}
    for x in F.dom.objects():
        w = cod4.compose(gamma[F.ob(x)], glue.at(x))
        upper_comp[x] = underlying_hom_inverse(G, ff, w, L.ob(F.ob(x)), H1.ob(x))
    upper = EnrichedTransformation(compose_functors(F, L), H1, upper_comp, name="lift-upper")
    return L, upper, lower


def lift_2cell(
    sq: LiftSquare,
    l1: EnrichedFunctor,
    l2: EnrichedFunctor,
    tau1: EnrichedTransformation,
    tau2: EnrichedTransformation,
) -> EnrichedTransformation:
    """The unique 2-cell zeta: l1 => l2 with zeta whiskered by G equal to tau1
    and F whiskered into zeta equal to tau2; existence needs the two to be
    compatible. Uniqueness needs no search: G is fully faithful, so G.mor
    (its invertible hom components read through from_arr) is injective on
    each hom, and only the G-preimage of tau1 at y whiskers to it."""
    F, G = sq.F, sq.G
    ff = is_fully_faithful(G)
    if not ff.ok:
        raise CapabilityError("lift_2cell needs a fully faithful right leg")
    comp = {}
    for y in l1.dom.objects():
        comp[y] = underlying_hom_inverse(G, ff, tau1.at(y), l1.ob(y), l2.ob(y))
    # zeta whiskers by G to tau1 as built: underlying_hom_inverse refuses
    # unless G.mor(zeta_y) == tau1_y
    zeta = EnrichedTransformation(l1, l2, comp, name="lifted-2cell")
    got2 = whisker_left(F, zeta)
    if got2.component != tau2.component:
        raise StructuralError("incompatible 2-cell pair: F into zeta differs from tau2")
    return zeta


@dataclass(frozen=True)
class WeakEquivalence:
    """A functor F: E1 -> E2 with its ff and eso certificates, refused when
    either fails. Its weak inverse L inverts F along the eso witnesses
    (w, i: F w ~ y) and is tabulated on first read; ``upper`` holds the
    components of F.L => id_E1 (at x, the F-preimage of the witness at F x)
    and ``lower`` those of L.F => id_E2 (at y, the witness at y)."""

    F: EnrichedFunctor
    ff: FullyFaithfulWitness
    eso: EsoWitness

    def __post_init__(self):
        if not self.ff.ok:
            raise CapabilityError(f"not fully faithful at {self.ff.failing}")
        if not self.eso.ok:
            raise CapabilityError(f"not essentially surjective at {self.eso.missed}")

    @cached_property
    def L(self) -> EnrichedFunctor:
        return invert_along(self.F, self.ff, self.eso.preimage)

    @property
    def upper(self) -> dict:
        F, wit = self.F, self.eso.preimage
        return {x: underlying_hom_inverse(F, self.ff, wit[F.ob(x)][1], wit[F.ob(x)][0], x) for x in F.dom.objects()}

    @property
    def lower(self) -> dict:
        return {y: i for y, (_, i) in self.eso.preimage.items()}


def weak_equivalence(F: EnrichedFunctor | WeakEquivalence) -> WeakEquivalence:
    """F as a ``WeakEquivalence``, deciding ff and eso once; a value that
    already is one is returned unchanged."""
    if isinstance(F, WeakEquivalence):
        return F
    return WeakEquivalence(F, is_fully_faithful(F), is_essentially_surjective(F))


def weak_equivalence_to_adjoint_equivalence(F: EnrichedFunctor | WeakEquivalence) -> AdjointEquivalence:
    """Quasi-inverse of F by its weak inverse L: the unit inverts the cell
    F.L => id and the counit is the cell L.F => id, with both triangle
    identities checked componentwise."""
    W = weak_equivalence(F)
    F, L = W.F, W.L
    E1, E2 = F.dom, F.cod
    unit = invertible_2cell(EnrichedTransformation(compose_functors(F, L), id_functor(E1), W.upper, name="lift-upper"))
    if unit is None:
        raise StructuralError("unit candidate is not invertible")
    counit = EnrichedTransformation(compose_functors(L, F), id_functor(E2), W.lower, name="lift-lower")
    # triangle identities, componentwise: F(unit_x) ; counit_{F x} and
    # unit_{L y} ; L(counit_y) are identities
    fwd = {x: E2.under.compose(F.mor(unit.at(x)), counit.at(F.ob(x))) for x in E1.objects()}
    bwd = {y: E1.under.compose(unit.at(L.ob(y)), L.mor(counit.at(y))) for y in E2.objects()}
    reports = []
    for law, cat, comp in (("triangle-fwd", E2.under, fwd), ("triangle-bwd", E1.under, bwd)):
        bad = [Failure(law, (o,), f, cat.id_of(f.src)) for o, f in comp.items() if f != cat.id_of(f.src)]
        reports.append(CheckReport.from_failures(bad))
    return AdjointEquivalence(F, L, unit, counit, tuple(reports))
