import itertools
from pathlib import Path

import pytest

from ecat.core import (
    EnrichedFunctor,
    EnrichedTransformation,
    bool_preorder_enrichment,
    check_enrichment,
    check_functor_enrichment,
    check_nat_trans_enrichment,
    compose_functors,
    enumerate_enriched_functors,
    id_functor,
    id_transformation,
    invertible_2cell,
    kelly_round_trip_iso,
)
from ecat.dsl import load
from ecat.factor import (
    image_factorization,
    is_essentially_surjective,
    is_fully_faithful,
    iso_arrows,
    weak_equivalence_to_adjoint_equivalence,
)
from ecat.monad import (
    EnrichedMonad,
    KleisliCocone,
    check_enriched_monad,
    check_kleisli_cocone,
    eilenberg_moore,
    fkleisli,
    fkleisli_cocone,
    free_algebra_functor,
    kleisli_universal_extend,
    univalent_kleisli,
    univalent_kleisli_cocone,
)
from ecat.report import CapabilityError, StructuralError
from ecat.rezk import transport_transformation, univalence_report
from ecat.vbase import MorRef, bool_base

from helpers import em_oracle, kleisli_oracle, thin_functor


def vee_fixture(boolb):
    """Poset {a, b, top} with a <= top, b <= top and the closure operator
    sending a to top."""
    rel = {(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)}
    E = bool_preorder_enrichment(boolb, rel, 3, name="vee")
    tob = {0: 2, 1: 1, 2: 2}
    endo = EnrichedFunctor(
        E, E,
        tob,
        {f: MorRef(tob[f.src], tob[f.dst], 0) for f in E.under.mors()},
        {(x, y): MorRef(E.hom(x, y), E.hom(tob[x], tob[y]), 0)
         for x in range(3) for y in range(3)},
        name="close",
    )
    unit = EnrichedTransformation(
        id_functor(E), endo, {x: MorRef(x, tob[x], 0) for x in range(3)}
    )
    mult = EnrichedTransformation(
        compose_functors(endo, endo), endo,
        {x: MorRef(tob[tob[x]], tob[x], 0) for x in range(3)},
    )
    return EnrichedMonad(E, endo, unit, mult, name="toppoint")


def identity_monad(E):
    idE = id_functor(E)
    return EnrichedMonad(E, idE, id_transformation(idE), id_transformation(idE), name="id")


@pytest.fixture()
def toppoint(boolb):
    return vee_fixture(boolb)


@pytest.fixture()
def idmonad(boolb):
    rel = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}
    return identity_monad(bool_preorder_enrichment(boolb, rel, 3))


# ---------------------------------------------------------------------------
# monad checker
# ---------------------------------------------------------------------------

def test_monads_pass(toppoint, idmonad):
    assert check_enriched_monad(toppoint).ok
    assert check_enriched_monad(idmonad).ok


def test_mutated_mult_located(toppoint):
    # thin carrier: parallel alternatives do not exist, so a mutation must
    # break the component shape and is caught structurally
    bad_mult = EnrichedTransformation(
        toppoint.mult.src, toppoint.endo,
        dict(toppoint.mult.component),
    )
    bad_mult.component[0] = MorRef(1, 2, 0)
    T = EnrichedMonad(toppoint.carrier, toppoint.endo, toppoint.unit, bad_mult)
    with pytest.raises(StructuralError):
        check_enriched_monad(T)


def test_mutated_mult_located_nonthin(finset3):
    # over a set-enrichment a parallel wrong choice exists and the
    # associativity square locates it
    from helpers import cyclic_monoid_category

    from ecat.construct import canonical_set_enrichment

    C = cyclic_monoid_category(2)
    E = canonical_set_enrichment(C, finset3)
    T = identity_monad(E)
    bad_mult = EnrichedTransformation(
        T.mult.src, T.endo, {0: MorRef(0, 0, 1)}
    )
    T2 = EnrichedMonad(E, T.endo, T.unit, bad_mult)
    rep = check_enriched_monad(T2)
    assert not rep.ok
    laws = {f.law for f in rep.failures}
    assert any("monad" in law or "naturality" in law for law in laws)


# ---------------------------------------------------------------------------
# raw Kleisli vs the direct oracle
# ---------------------------------------------------------------------------

def test_fkleisli_matches_oracle(toppoint, idmonad):
    for T in (toppoint, idmonad):
        FK = fkleisli(T)
        assert check_enrichment(FK).ok
        oracle = kleisli_oracle(T)
        assert FK.under.hom_size_t == oracle.hom_size_t
        assert FK.under.identity_t == oracle.identity_t
        assert FK.under.then_t == oracle.then_t
        # the enriched route agrees: underlying category of the enrichment is
        # isomorphic to the oracle via from_arr
        iso = kelly_round_trip_iso(FK)
        assert check_functor_enrichment(iso).ok


def test_fkleisli_identity_monad_is_carrier(idmonad):
    FK = fkleisli(idmonad)
    E = idmonad.carrier
    assert FK.under.hom_size_t == E.under.hom_size_t
    assert FK.hom_obj_t == E.hom_obj_t


def test_fkleisli_toppoint_hom_formula(toppoint, boolb):
    FK = fkleisli(toppoint)
    E = toppoint.carrier
    for x, y in itertools.product(range(3), repeat=2):
        assert FK.hom(x, y) == E.hom(x, toppoint.t_ob(y))


def test_canonical_cocone(toppoint, idmonad):
    for T in (toppoint, idmonad):
        q = fkleisli_cocone(T)
        assert check_kleisli_cocone(T, q).ok


def test_broken_cocone_located(toppoint, finset3):
    # thin fixture: the only way to break a cell is out-of-shape
    q = fkleisli_cocone(toppoint)
    q.cell.component[0] = MorRef(2, 1, 0)
    with pytest.raises(StructuralError):
        check_kleisli_cocone(toppoint, q)
    # non-thin fixture: a parallel wrong cell is a located law failure
    from helpers import cyclic_monoid_category
    from ecat.construct import canonical_set_enrichment

    C = cyclic_monoid_category(2)
    E = canonical_set_enrichment(C, finset3)
    T = identity_monad(E)
    q2 = fkleisli_cocone(T)
    q2.cell.component[0] = MorRef(0, 0, 1)
    rep = check_kleisli_cocone(T, q2)
    assert not rep.ok
    assert any(f.law.startswith("cocone") for f in rep.failures)


# ---------------------------------------------------------------------------
# Eilenberg-Moore vs the direct oracle
# ---------------------------------------------------------------------------

def test_em_matches_oracle(toppoint, idmonad):
    for T in (toppoint, idmonad):
        em = eilenberg_moore(T)
        assert check_enrichment(em.enrichment).ok
        assert check_functor_enrichment(em.forgetful).ok
        algebras, homs = em_oracle(T)
        assert em.algebras == algebras
        for key, hs in homs.items():
            assert em.enrichment.under.hom_size(key[0], key[1]) == len(hs)


def test_em_identity_monad_is_carrier(idmonad):
    em = eilenberg_moore(idmonad)
    assert em.enrichment.n_objects == idmonad.carrier.n_objects


def test_free_algebra_functor(toppoint, idmonad):
    for T in (toppoint, idmonad):
        em = eilenberg_moore(T)
        free = free_algebra_functor(T, em)
        assert check_functor_enrichment(free).ok
        # free algebras satisfy the algebra laws (they are EM objects)
        for x in T.carrier.objects():
            i = free.ob(x)
            y, a = em.algebras[i]
            assert y == T.t_ob(x) and a == T.mu(x)
        # forgetful after free recovers the endofunctor's underlying action
        comp = compose_functors(free, em.forgetful)
        assert comp.ob_map == {x: T.t_ob(x) for x in T.carrier.objects()}
        assert comp.mor_map == {f: T.t_mor(f) for f in T.carrier.under.mors()}


# ---------------------------------------------------------------------------
# univalent Kleisli and the comparison
# ---------------------------------------------------------------------------

def test_univalent_kleisli(toppoint, idmonad):
    for T in (toppoint, idmonad):
        uk = univalent_kleisli(T)
        assert check_enrichment(uk.completion).ok
        # the completion of the raw Kleisli enrichment: one object per
        # isomorphism class of fkleisli(T), reached by the unit
        FK = fkleisli(T)
        assert uk.unit_functor.dom.hom_obj_t == FK.hom_obj_t
        classes = {
            frozenset(y for y in FK.objects() if iso_arrows(FK.under, x, y))
            for x in FK.objects()
        }
        assert uk.completion.n_objects == len(classes)
        assert set(uk.unit_functor.ob_map.values()) == set(uk.completion.objects())
        assert univalence_report(uk.completion).skeletal


def test_kappa_weak_equivalence(toppoint, idmonad):
    for T in (toppoint, idmonad):
        kappa = univalent_kleisli(T).unit_functor
        assert check_functor_enrichment(kappa).ok
        assert is_fully_faithful(kappa).ok
        assert is_essentially_surjective(kappa).ok
        # restricted to its image the comparison inverts
        adj = weak_equivalence_to_adjoint_equivalence(kappa)
        assert adj.triangle_reports[0].ok and adj.triangle_reports[1].ok


GOLDEN = Path(__file__).parent / "golden"


def _golden_monad(name):
    doc, diags = load([str(GOLDEN / name)])
    assert doc is not None, [d.describe() for d in diags]
    return doc.get("M").value


def _is_identity(F):
    return F.cod.data_equal(F.dom) and F.data_equal(id_functor(F.dom))


def test_univalent_kleisli_isomorphic_to_em_image(toppoint, idmonad):
    """Over a skeletal carrier the Rezk completion of the raw Kleisli
    enrichment is isomorphic to the image of the free-algebra functor in
    Eilenberg-Moore: a pair of enriched functors between them composes to
    the identity both ways."""
    golden = [_golden_monad(f) for f in ("monad_toppoint.ecat", "monad_identity.ecat", "cocone_toppoint.ecat")]
    for T in [toppoint, idmonad, *golden]:
        assert univalence_report(T.carrier).skeletal
        em = eilenberg_moore(T)
        free = free_algebra_functor(T, em)
        image = image_factorization(free)
        # the image holds exactly the EM objects isomorphic to a free algebra
        em_cat = em.enrichment.under
        frees = {free.ob(x) for x in T.carrier.objects()}
        expected = {
            y for y in range(em_cat.n_objects)
            if any(iso_arrows(em_cat, v, y) for v in frees)
        }
        assert {image.ff_part.ob(i) for i in image.image.objects()} == expected

        K = univalent_kleisli(T).completion
        isos = [
            (F, G)
            for F in enumerate_enriched_functors(K, image.image)
            for G in enumerate_enriched_functors(image.image, K)
            if _is_identity(compose_functors(F, G)) and _is_identity(compose_functors(G, F))
        ]
        assert isos, T.name


def test_univalent_kleisli_needs_no_equalizers():
    """Only Eilenberg-Moore is gated on equalizers; the Rezk route to the
    univalent Kleisli object and its universal property are not."""
    V = bool_base()
    V.has_equalizers = False
    T = vee_fixture(V)
    with pytest.raises(CapabilityError):
        eilenberg_moore(T)
    uk = univalent_kleisli(T)
    assert uk.cert_ff.ok and uk.cert_eso.ok
    assert univalence_report(uk.completion).skeletal
    H, com = kleisli_universal_extend(T, fkleisli_cocone(T))
    assert check_functor_enrichment(H).ok
    assert invertible_2cell(com) is not None


def test_transported_cocone(toppoint):
    q = univalent_kleisli_cocone(toppoint)
    assert check_kleisli_cocone(toppoint, q).ok


# ---------------------------------------------------------------------------
# universal property
# ---------------------------------------------------------------------------

def test_universal_extend_canonical(toppoint, idmonad):
    for T in (toppoint, idmonad):
        q = fkleisli_cocone(T)
        H, com = kleisli_universal_extend(T, q)
        assert check_functor_enrichment(H).ok
        assert check_nat_trans_enrichment(com).ok
        assert invertible_2cell(com) is not None


def test_universal_extend_em_cocone(toppoint):
    # a nontrivial cocone: through the Eilenberg-Moore object via the free
    # algebra functor, with the cell given by the algebra structure maps
    T = toppoint
    em = eilenberg_moore(T)
    free = free_algebra_functor(T, em)
    em_cat = em.enrichment.under
    comp = {}
    for x in T.carrier.objects():
        a, b = free.ob(T.t_ob(x)), free.ob(x)
        # structure map mu_x as an EM morphism T(Tx) -> Tx
        d_a = em.dialg_index(a)
        d_b = em.dialg_index(b)
        h = T.mu(x)
        k = em.dialg.mors[(d_a, d_b)].index(h)
        comp[x] = MorRef(a, b, k)
    cell = EnrichedTransformation(compose_functors(T.endo, free), free, comp)
    q = KleisliCocone(em.enrichment, free, cell, name="em-cocone")
    assert check_kleisli_cocone(T, q).ok
    H, com = kleisli_universal_extend(T, q)
    assert check_functor_enrichment(H).ok
    assert invertible_2cell(com) is not None


def test_mediator_uniqueness(toppoint):
    T = toppoint
    q = fkleisli_cocone(T)
    H, com = kleisli_universal_extend(T, q)
    canon = univalent_kleisli_cocone(T)
    # two mediator candidates with a compatible 2-cell are forced equal
    tau = EnrichedTransformation(
        compose_functors(canon.leg, H), compose_functors(canon.leg, H),
        {x: q.apex.under.id_of(H.ob(canon.leg.ob(x))) for x in T.carrier.objects()},
    )
    zeta = transport_transformation(canon.leg, H, H, tau)
    assert all(
        zeta.at(y) == q.apex.under.id_of(H.ob(y))
        for y in canon.apex.objects()
    )


def test_constant_monad_regression(boolb):
    # constant-on-top monad over a skeletal chain: the raw Kleisli category
    # becomes codiscrete (not skeletal) while the univalent one stays skeletal
    rel = {(0, 0), (1, 1), (0, 1)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    endo = thin_functor(E, E, (1, 1))
    unit = EnrichedTransformation(id_functor(E), endo, {0: MorRef(0, 1, 0), 1: MorRef(1, 1, 0)})
    mult = EnrichedTransformation(
        compose_functors(endo, endo), endo, {0: MorRef(1, 1, 0), 1: MorRef(1, 1, 0)}
    )
    T = EnrichedMonad(E, endo, unit, mult, name="const-top")
    assert check_enriched_monad(T).ok
    assert univalence_report(E).skeletal
    FK = fkleisli(T)
    uk = univalent_kleisli(T)
    assert not univalence_report(FK).skeletal
    assert univalence_report(uk.completion).skeletal
    kappa = uk.unit_functor
    assert is_fully_faithful(kappa).ok and is_essentially_surjective(kappa).ok
