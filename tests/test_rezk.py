import collections
import itertools
import json
import random

import pytest

import ecat.factor
import ecat.rezk
import ecat.vbase

from ecat.cli import run_cli
from ecat.construct import (
    canonical_set_enrichment,
    functor_category_enrichment,
    opposite_enrichment,
    self_enrichment,
)
from ecat.core import (
    Enrichment,
    EnrichedTransformation,
    bool_preorder_enrichment,
    check_enrichment,
    check_functor_enrichment,
    check_nat_trans_enrichment,
    compose_functors,
    cost_space_enrichment,
    enumerate_enriched_functors,
    enumerate_enriched_transformations,
    find_inverse,
    id_functor,
    id_transformation,
    invertible_2cell,
    vcompose,
    whisker_left,
)
from ecat.factor import (
    EsoWitness,
    WeakEquivalence,
    image_factorization,
    is_essentially_surjective,
    is_fully_faithful,
    iso_arrows,
    underlying_hom_inverse,
    weak_equivalence,
    weak_equivalence_to_adjoint_equivalence,
)
from ecat.rezk import (
    check_precomp_equivalence,
    check_yoneda_ff,
    extend_functor,
    representable,
    representable_transformation,
    rezk_completion,
    transport_transformation,
    univalence_report,
    yoneda,
)
from ecat.monad import fkleisli, kleisli_universal_extend, univalent_kleisli
from ecat.report import CapabilityError, StructuralError
from ecat.vbase import FinCat, MorRef, bool_base, builtin_base, cost_base

import construction_cases
from helpers import (
    precomp_triples,
    random_preorder,
    reference_adjoint_equivalence,
    reference_extend_functor,
    reference_precomp_equivalence,
    reference_rezk_unit,
    reference_transport_transformation,
    thin_functor,
)


def preorders_on(boolb, n):
    """All reflexive-transitive relations on n points, as enrichments."""
    out = []
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rel = {(x, x) for x in range(n)} | {p for p, b in zip(pairs, bits) if b}
        ok = all(
            (a, d) in rel
            for (a, b) in rel
            for (c, d) in rel
            if b == c
        )
        if ok:
            out.append(rel)
    return out


# ---------------------------------------------------------------------------
# representables and yoneda
# ---------------------------------------------------------------------------

def test_representable_is_downset(boolb):
    rel = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}
    E = bool_preorder_enrichment(boolb, rel, 3)
    R = representable(E, 1)
    assert check_functor_enrichment(R).ok
    assert [R.ob(x) for x in range(3)] == [E.hom(x, 1) for x in range(3)]
    assert R.ob(0) == 1 and R.ob(1) == 1 and R.ob(2) == 0


def test_representable_transformation_functorial(boolb):
    rel = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}
    E = bool_preorder_enrichment(boolb, rel, 3)
    reps = {y: representable(E, y) for y in range(3)}
    for f in E.under.mors():
        t = representable_transformation(E, f, reps[f.src], reps[f.dst])
        assert check_nat_trans_enrichment(t).ok
    # identity goes to the identity transformation
    t = representable_transformation(E, MorRef(1, 1, 0), reps[1], reps[1])
    assert all(t.at(x) == E.base.id_of(E.hom(x, 1)) for x in range(3))


def test_cost_representable_nonexpansive(cost3):
    d = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 2}
    E = cost_space_enrichment(cost3, d, 2)
    assert check_enrichment(E).ok
    for y in range(2):
        R = representable(E, y)
        assert check_functor_enrichment(R).ok
        assert [R.ob(x) for x in range(2)] == [d[(x, y)] for x in range(2)]


def test_yoneda_unit_category(boolb):
    E = bool_preorder_enrichment(boolb, {(0, 0)}, 1)
    res = yoneda(E)
    assert check_functor_enrichment(res.embedding).ok
    assert is_fully_faithful(res.embedding).ok


def test_yoneda_ff_all_two_point_posets(boolb):
    for rel in preorders_on(boolb, 2):
        E = bool_preorder_enrichment(boolb, rel, 2)
        assert check_yoneda_ff(E).ok, rel


def test_yoneda_ff_cost_two_points(cost3):
    for a, b in itertools.product(range(5), repeat=2):
        d = {(0, 0): 0, (1, 1): 0, (0, 1): a, (1, 0): b}
        E = cost_space_enrichment(cost3, d, 2)
        assert check_yoneda_ff(E).ok, d


def _eager_yoneda(E):
    """Reference: the Yoneda embedding into the whole enumerated presheaf
    category [op(E), self(V)]."""
    V = E.base
    opE, selfE = opposite_enrichment(E), self_enrichment(V)
    fc = functor_category_enrichment(opE, selfE)
    reps = {y: representable(E, y, selfE=selfE, opE=opE) for y in E.objects()}
    ob_map = {y: fc.functor_index(R) for y, R in reps.items()}
    mor_map = {}
    for f in E.under.mors():
        tau = representable_transformation(E, f, reps[f.src], reps[f.dst])
        a, b = ob_map[f.src], ob_map[f.dst]
        mor_map[f] = MorRef(a, b, fc.transformation_index(a, b, tau.component))
    e_fun = {}
    for y1, y2 in itertools.product(E.objects(), repeat=2):
        a, b = ob_map[y1], ob_map[y2]
        legs = [V.lam(E.hom(y1, y2), E.hom(x, y1), E.hom(x, y2), E.ecomp(x, y1, y2)) for x in E.objects()]
        e_fun[(y1, y2)] = fc.equalizers[(a, b)].factor(fc.products[(a, b)].pair(E.hom(y1, y2), legs))
    return fc, ob_map, mor_map, e_fun


def test_yoneda_on_representables_matches_eager_functor_category(boolb, cost3):
    inputs = [bool_preorder_enrichment(boolb, rel, n) for n in range(4) for rel in preorders_on(boolb, n)]
    for a, b in itertools.product(range(5), repeat=2):
        inputs.append(cost_space_enrichment(cost3, {(0, 0): 0, (1, 1): 0, (0, 1): a, (1, 0): b}, 2))
    assert len(inputs) == 35 + 25
    for E in inputs:
        res = yoneda(E)
        small, S = res.functor_category, res.functor_category.enrichment
        eager, ob_ref, mor_ref, e_fun_ref = _eager_yoneda(E)
        L = eager.enrichment
        m = [eager.functor_index(F) for F in small.functors]
        assert sorted(set(m)) == sorted(set(ob_ref.values()))
        n = len(m)

        def moved(f):
            return MorRef(m[f.src], m[f.dst], f.k)

        for a, b in itertools.product(range(n), repeat=2):
            assert S.hom(a, b) == L.hom(m[a], m[b])
            assert [sorted(t.component.items()) for t in small.transformations[(a, b)]] == [
                sorted(t.component.items()) for t in eager.transformations[(m[a], m[b])]
            ]
        for a in range(n):
            assert S.eid(a) == L.eid(m[a])
        for a, b, c in itertools.product(range(n), repeat=3):
            assert S.ecomp(a, b, c) == L.ecomp(m[a], m[b], m[c])
        for f in S.under.mors():
            assert S.farr(f) == L.farr(moved(f))
            for g in (g for c in range(n) for g in S.under.hom(f.dst, c)):
                assert moved(S.under.compose(f, g)) == L.under.compose(moved(f), moved(g))
        emb = res.embedding
        assert {y: m[a] for y, a in emb.ob_map.items()} == ob_ref
        assert {f: moved(g) for f, g in emb.mor_map.items()} == mor_ref
        assert emb.e_fun_t == e_fun_ref


def test_yoneda_builds_self_and_each_limit_once_per_call(monkeypatch):
    """Each ``yoneda`` call builds self(V) once and searches each distinct
    product and equalizer once. Over all 35 Bool preorders on at most 3
    points and all 25 2-point cost(3) spaces, on one Bool and one cost(3)
    base, that is 225 products and 65 equalizers of Bool and 130 products
    and 61 equalizers of cost(3). Nothing is kept between calls, so every
    call builds self(V) again."""
    built, products, equalizers = [], [], []
    search_product, search_equalizer = ecat.vbase.search_product, ecat.vbase.search_equalizer
    tabulate = Enrichment.tabulate

    def counted_tabulate(base, *args, **kwargs):
        if kwargs.get("name") == "self":
            built.append(base.name)
        return tabulate(base, *args, **kwargs)

    monkeypatch.setattr(Enrichment, "tabulate", counted_tabulate)
    monkeypatch.setattr(ecat.vbase, "search_product",
                        lambda V, objs: products.append((V.name, tuple(objs))) or search_product(V, objs))
    monkeypatch.setattr(ecat.vbase, "search_equalizer",
                        lambda V, f, g: equalizers.append((V.name, f, g)) or search_equalizer(V, f, g))
    boolb, cost3 = bool_base(), cost_base(3)
    inputs = [bool_preorder_enrichment(boolb, rel, n) for n in range(4) for rel in preorders_on(boolb, n)]
    inputs += [cost_space_enrichment(cost3, {(0, 0): 0, (1, 1): 0, (0, 1): a, (1, 0): b}, 2)
               for a, b in itertools.product(range(5), repeat=2)]
    assert len(inputs) == 35 + 25
    searched = collections.Counter()
    for E in inputs:
        for log in (built, products, equalizers):
            log.clear()
        yoneda(E)
        assert built == [E.base.name]
        assert len(set(products)) == len(products) and len(set(equalizers)) == len(equalizers)
        searched.update([("product", E.base.name)] * len(products) + [("equalizer", E.base.name)] * len(equalizers))
    assert searched == {("product", "bool"): 225, ("equalizer", "bool"): 65,
                        ("product", "cost(3)"): 130, ("equalizer", "cost(3)"): 61}


def test_yoneda_ff_three_and_four_point_cost_spaces(cost3):
    # the discrete 3-point space has 125 presheaves and the 4-point ones
    # more; the embedding builds the homs between the representables only
    for n in (3, 4):
        d = {(x, y): 0 if x == y else 4 for x in range(n) for y in range(n)}
        E = cost_space_enrichment(cost3, d, n)
        assert check_enrichment(E).ok
        assert check_yoneda_ff(E).ok, n
        assert len(yoneda(E).functor_category.functors) == n
    line = {(x, y): abs(x - y) for x in range(4) for y in range(4)}
    E = cost_space_enrichment(cost3, line, 4)
    assert check_enrichment(E).ok
    assert check_yoneda_ff(E).ok


# ---------------------------------------------------------------------------
# univalence report and completion
# ---------------------------------------------------------------------------

def test_univalence_report_flags(boolb, finset3):
    codisc = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1), (1, 0)}, 2)
    rep = univalence_report(codisc)
    assert not rep.skeletal and not rep.gaunt

    chain = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1)}, 2)
    rep = univalence_report(chain)
    assert rep.skeletal and rep.gaunt

    from helpers import cyclic_monoid_category

    Z2 = canonical_set_enrichment(cyclic_monoid_category(2), finset3)
    rep = univalence_report(Z2)
    assert rep.skeletal and not rep.gaunt
    assert rep.automorphism_counts == {0: 2}


def test_rezk_completion_collapses_iso_points(boolb):
    E = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1), (1, 0)}, 2)
    res = rezk_completion(E)
    assert res.completion.n_objects == 1
    assert res.cert_ff.ok and res.cert_eso.ok
    assert check_functor_enrichment(res.unit_functor).ok
    assert univalence_report(res.completion).skeletal


def test_rezk_already_skeletal_identity_shaped(boolb):
    E = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1)}, 2)
    res = rezk_completion(E)
    assert res.completion.n_objects == 2
    assert res.unit_functor.ob_map == {0: 0, 1: 1}
    assert res.cert_ff.ok and res.cert_eso.ok


def test_rezk_idempotent(boolb):
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(1, 3)
        rel = random_preorder(rng, n)
        E = bool_preorder_enrichment(boolb, rel, n)
        res = rezk_completion(E)
        assert res.cert_ff.ok and res.cert_eso.ok
        assert univalence_report(res.completion).skeletal
        again = rezk_completion(res.completion)
        assert again.completion.n_objects == res.completion.n_objects
        assert again.unit_functor.ob_map == {
            x: x for x in range(res.completion.n_objects)
        }


def test_rezk_on_set_enrichment_with_isos(finset3):
    # two isomorphic copies of the one-object group
    from ecat.vbase import FinCat

    hom = {(i, j): 2 for i in range(2) for j in range(2)}
    ident = {i: MorRef(i, i, 0) for i in range(2)}
    then = {}
    for i, j, k in itertools.product(range(2), repeat=3):
        for a in range(2):
            for b in range(2):
                then[(MorRef(i, j, a), MorRef(j, k, b))] = MorRef(i, k, (a + b) % 2)
    C = FinCat(2, hom, ident, then)
    E = canonical_set_enrichment(C, finset3)
    res = rezk_completion(E)
    assert res.completion.n_objects == 1
    assert res.cert_ff.ok and res.cert_eso.ok
    assert check_enrichment(res.completion).ok
    rep = univalence_report(res.completion)
    assert rep.skeletal and not rep.gaunt  # Z/2 automorphisms survive


def _s3_identity_last() -> FinCat:
    """A one-object S3 whose hom lists the identity last."""
    perms = sorted(itertools.permutations(range(3)), reverse=True)
    index = {p: k for k, p in enumerate(perms)}
    then = {(MorRef(0, 0, index[p]), MorRef(0, 0, index[q])): MorRef(0, 0, index[tuple(q[i] for i in p)])
            for p in perms for q in perms}
    return FinCat(1, {(0, 0): 6}, {0: MorRef(0, 0, 5)}, then)


def _z2_identity_second() -> FinCat:
    """A one-object Z/2 whose hom lists the identity second."""
    then = {(MorRef(0, 0, a), MorRef(0, 0, b)): MorRef(0, 0, int(a == b)) for a in range(2) for b in range(2)}
    return FinCat(1, {(0, 0): 2}, {0: MorRef(0, 0, 1)}, then)


def test_rezk_unit_of_a_skeletal_group_is_the_identity_whatever_the_hom_order():
    """A one-object S3 over finset(6) whose hom lists the identity last is
    skeletal, so its Rezk unit is the identity functor, not conjugation by
    the automorphism listed first."""
    C = _s3_identity_last()
    res = rezk_completion(canonical_set_enrichment(C, builtin_base("finset", k=6)))
    F = res.unit_functor
    assert F.ob_map == {0: 0}
    assert [F.mor(f) for f in C.hom(0, 0)] == list(C.hom(0, 0))


def test_identity_functor_inverts_to_identities_whatever_the_hom_order(finset3):
    """On a one-object Z/2 whose hom lists the identity second, the identity
    functor's weak inverse is the identity, and its unit and counit are
    identities."""
    E = canonical_set_enrichment(_z2_identity_second(), finset3)
    adj = weak_equivalence_to_adjoint_equivalence(id_functor(E))
    assert adj.unit.at(0) == adj.counit.at(0) == E.under.id_of(0) == MorRef(0, 0, 1)
    assert [adj.bwd.mor(f) for f in E.under.hom(0, 0)] == list(E.under.hom(0, 0))


def _first_iso_witness(F) -> EsoWitness:
    """F's eso witness by the rule that preferred no identity: for each y,
    the least x with an iso F x -> y, and the first such iso in hom order."""
    cod = F.cod.under
    preimage = {y: next((x, isos[0]) for x in F.dom.objects() if (isos := iso_arrows(cod, F.ob(x), y)))
                for y in F.cod.objects()}
    return EsoWitness(True, preimage, [])


@pytest.mark.parametrize("make, k, conjugates", [(_s3_identity_last, 6, True), (_z2_identity_second, 3, False)],
                         ids=["S3", "Z2"])
def test_weak_inverses_by_the_old_and_new_witness_rule_are_isomorphic(make, k, conjugates):
    """The identity functor's weak inverse along the first iso in hom order
    (the witness rule before identities were preferred) and along today's
    witness differ by an invertible enriched 2-cell: at y, the F-preimage of
    today's witness followed by the inverse of the old one. On S3 the two
    weak inverses differ (the old one conjugates by the first
    automorphism); Z/2 is abelian, so they agree and only the cell shows
    the two witnesses differ."""
    category = make()
    F = id_functor(canonical_set_enrichment(category, builtin_base("finset", k=k)))
    cod = F.cod.under
    new = weak_equivalence(F)
    old = WeakEquivalence(F, new.ff, _first_iso_witness(F))
    cell = {}
    for y in F.cod.objects():
        (w, today), (v, first) = new.eso.preimage[y], old.eso.preimage[y]
        cell[y] = underlying_hom_inverse(F, new.ff, cod.compose(today, find_inverse(cod, first)), w, v)
    theta = EnrichedTransformation(new.L, old.L, cell)
    assert check_nat_trans_enrichment(theta).ok
    assert cell != id_transformation(new.L).component
    hom = category.hom(0, 0)
    assert ([new.L.mor(f) for f in hom] != [old.L.mor(f) for f in hom]) == conjugates
    inverse = invertible_2cell(theta)
    assert inverse is not None
    assert vcompose(theta, inverse).component == id_transformation(new.L).component
    assert vcompose(inverse, theta).component == id_transformation(old.L).component


# ---------------------------------------------------------------------------
# transport and extension
# ---------------------------------------------------------------------------

def collapse_functor(boolb):
    E = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1), (1, 0)}, 2)
    res = rezk_completion(E)
    return E, res.completion, res.unit_functor


def test_transport_identity(boolb):
    E, C, F = collapse_functor(boolb)
    G = id_functor(C)
    tau = EnrichedTransformation(
        compose_functors(F, G), compose_functors(F, G),
        {x: C.under.id_of(F.ob(x)) for x in E.objects()},
    )
    theta = transport_transformation(F, G, G, tau)
    assert all(theta.at(y) == C.under.id_of(y) for y in C.objects())


def test_transport_uniqueness_scan(boolb):
    # the component each witness forces whiskers back to tau, which with the
    # naturality re-check makes theta the unique transport
    E, C, F = collapse_functor(boolb)
    G = id_functor(C)
    tau = EnrichedTransformation(
        compose_functors(F, G), compose_functors(F, G),
        {x: C.under.id_of(F.ob(x)) for x in E.objects()},
    )
    theta = transport_transformation(F, G, G, tau)
    back = whisker_left(F, theta)
    assert back.component == tau.component


def test_extend_functor_collapses_coherently(boolb):
    E, C, F = collapse_functor(boolb)
    G = id_functor(E)
    H, cell = extend_functor(F, G)
    assert check_functor_enrichment(H).ok
    assert check_nat_trans_enrichment(cell).ok
    assert invertible_2cell(cell) is not None
    # extension along the identity: on the nose for a skeletal domain
    chain = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1)}, 2)
    Gc = id_functor(chain)
    H2, cell2 = extend_functor(id_functor(chain), Gc)
    assert H2.ob_map == Gc.ob_map and H2.e_fun_t == Gc.e_fun_t
    # for the codiscrete domain the witnesses collapse, still isomorphic
    H3, cell3 = extend_functor(id_functor(E), G)
    assert invertible_2cell(cell3) is not None


def test_extend_functor_set_enrichment(finset3):
    # non-thin: collapse two isomorphic group objects, extend the identity
    from ecat.vbase import FinCat

    hom = {(i, j): 2 for i in range(2) for j in range(2)}
    ident = {i: MorRef(i, i, 0) for i in range(2)}
    then = {}
    for i, j, k in itertools.product(range(2), repeat=3):
        for a in range(2):
            for b in range(2):
                then[(MorRef(i, j, a), MorRef(j, k, b))] = MorRef(i, k, (a + b) % 2)
    C = FinCat(2, hom, ident, then)
    E = canonical_set_enrichment(C, finset3)
    res = rezk_completion(E)
    H, cell = extend_functor(res.unit_functor, id_functor(E))
    assert check_functor_enrichment(H).ok
    assert invertible_2cell(cell) is not None


def _differential_inputs(boolb, cost3):
    """Every Bool preorder on at most 3 points, every 2-point cost(3) space,
    the Z/2 groupoid, its twisted copy, the Z/2 groupoid acting on a third
    object, and the raw Kleisli enrichment of the monad of
    cocone_toppoint.ecat."""
    for n in range(4):
        for rel in preorders_on(boolb, n):
            yield bool_preorder_enrichment(boolb, rel, n)
    for a, b in itertools.product(range(cost3.n_objects), repeat=2):
        yield cost_space_enrichment(cost3, {(0, 0): 0, (0, 1): a, (1, 0): b, (1, 1): 0}, 2)
    yield construction_cases._z2_groupoid(twisted=False)
    yield construction_cases._z2_groupoid(twisted=True)
    # the Z/2 groupoid acting on two arrows into a third object: the unit
    # changes with the choice of the iso that sends 1 to its representative
    homs = {(a, b): [0, 1] for a in range(2) for b in range(3)} | {(2, 2): [0]}
    C = FinCat.tabulate(3, homs, lambda a: 0, lambda a, b, c, f, g: (f + g) % 2)
    yield canonical_set_enrichment(C, builtin_base("finset", k=3))
    yield fkleisli(construction_cases._load("cocone_toppoint.ecat").get("M").value)


def _tables(F):
    return F.ob_map, F.mor_map, F.e_fun_t


def test_rezk_unit_and_extension_match_their_references(boolb, cost3):
    """The Rezk unit, the extension and the adjoint equivalence along it,
    and the transport of 2-cells along it equal the tables of their former
    rules: the unit's own conjugation rules, the witness-family extension,
    the lift of the identity square and the candidate scan."""
    count = 0
    for E in _differential_inputs(boolb, cost3):
        completion, unit = reference_rezk_unit(E)
        res = rezk_completion(E)
        assert res.completion.data_equal(completion)
        assert _tables(res.unit_functor) == _tables(unit)
        H, cell = extend_functor(res.unit_functor, id_functor(E))
        ref_H, ref_cell = reference_extend_functor(unit, id_functor(E))
        assert _tables(H) == _tables(ref_H) and H.name == ref_H.name
        assert cell.component == ref_cell.component
        adj = weak_equivalence_to_adjoint_equivalence(res.unit_functor)
        ref_adj = reference_adjoint_equivalence(unit)
        assert _tables(adj.bwd) == _tables(ref_adj.bwd) and adj.bwd.name == ref_adj.bwd.name
        for got, ref in ((adj.unit, ref_adj.unit), (adj.counit, ref_adj.counit)):
            assert got.component == ref.component and got.name == ref.name
        assert adj.triangle_reports == ref_adj.triangle_reports
        # along the unit its witnesses are identities; along the lift they
        # are the isos onto each object from its representative
        for F in (res.unit_functor, adj.bwd):
            G = id_functor(F.cod)
            for theta in enumerate_enriched_transformations(G, G):
                tau = whisker_left(F, theta)
                got = transport_transformation(F, G, G, tau)
                assert got.component == reference_transport_transformation(F, G, G, tau).component
        count += 1
    assert count == 1 + 1 + 4 + 29 + cost3.n_objects ** 2 + 4


# ---------------------------------------------------------------------------
# precomposition universal property
# ---------------------------------------------------------------------------

def test_precomp_identity_trivial(boolb):
    E = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1)}, 2)
    rep = check_precomp_equivalence(id_functor(E), E)
    assert rep.ok


def test_precomp_collapse_to_chain(boolb):
    E, C, F = collapse_functor(boolb)
    chain3 = bool_preorder_enrichment(
        boolb, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}, 3
    )
    rep = check_precomp_equivalence(F, chain3)
    assert rep.ok
    # iso-class counts of functors agree on both sides
    fun2 = enumerate_enriched_functors(C, chain3)
    fun1 = enumerate_enriched_functors(E, chain3)

    def iso_classes(funs):
        classes = []
        for F1 in funs:
            placed = False
            for cls in classes:
                rep_f = cls[0]
                for t in enumerate_enriched_transformations(rep_f, F1):
                    if invertible_2cell(t) is not None:
                        cls.append(F1)
                        placed = True
                        break
                if placed:
                    break
            if not placed:
                classes.append([F1])
        return classes

    assert len(iso_classes(fun2)) == len(iso_classes(fun1))


def test_precomp_check_matches_its_reference(boolb, cost3):
    """On the acceptance suite's twelve precomposition triples, the last two
    with targets with distinct isomorphic objects (so that functors out of
    E1 are reached up to isomorphism, not on the nose), and on the identity
    of the golden Z/2 set enrichment into itself, the check that enumerates
    each transformation set once reports what the check that re-enumerates
    and re-derives the certificates reported."""
    rng = random.Random(6)
    for _ in range(10):  # the draws the acceptance suite makes before its triples
        random_preorder(rng, rng.randint(1, 3))
    pairs = list(precomp_triples(boolb, cost3, rng))
    E = construction_cases._load("set_z2.ecat").get("E").value
    pairs.append((id_functor(E), E))
    for F, E3 in pairs:
        assert check_precomp_equivalence(F, E3) == reference_precomp_equivalence(F, E3)
    assert len(pairs) == 13


def test_a_weak_equivalence_is_decided_once(boolb, monkeypatch):
    """On the codiscrete pair's Rezk unit into the 3-chain, the precomposition
    check decides a bare functor's certificates once and enumerates 18
    distinct transformation sets; handed the unit's WeakEquivalence it
    decides nothing. The Kleisli extension reads the certificates of the
    Rezk completion it is given, and the weak inverse is tabulated only when
    read."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (ecat.factor, ecat.rezk):
        for name in ("is_essentially_surjective", "is_fully_faithful"):
            monkeypatch.setattr(module, name, counted(name, getattr(ecat.factor, name)))
    name = "enumerate_enriched_transformations"
    monkeypatch.setattr(ecat.rezk, name, counted(name, getattr(ecat.rezk, name)))

    E, C, F = collapse_functor(boolb)
    chain3 = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}, 3)
    W = rezk_completion(E).unit
    assert "L" not in vars(W) and weak_equivalence(W) is W
    for G, decided in ((F, 1), (W, 0)):
        calls.clear()
        assert check_precomp_equivalence(G, chain3).ok
        assert calls["is_essentially_surjective"] == calls["is_fully_faithful"] == decided
        assert calls[name] == 18
    assert W.L is W.L and "L" in vars(W)

    doc = construction_cases._load("cocone_toppoint.ecat")
    T, q = doc.get("M").value, doc.get("Q").value
    uk = univalent_kleisli(T)
    for given, decided in ((uk, 0), (None, 1)):
        calls.clear()
        kleisli_universal_extend(T, q, given)
        assert calls["is_essentially_surjective"] == calls["is_fully_faithful"] == decided


def test_micro_cross_check_yoneda_image_vs_skeleton(boolb):
    # image of the Yoneda embedding is weakly equivalent to the skeleton:
    # extend the skeletonization along the corestricted embedding and verify
    # the mediating functor is itself a weak equivalence
    for rel in preorders_on(boolb, 2):
        E = bool_preorder_enrichment(boolb, rel, 2)
        res = yoneda(E)
        fact = image_factorization(res.embedding)
        eso1 = fact.eso_part  # E -> image of yoneda, a weak equivalence
        assert is_fully_faithful(eso1).ok and is_essentially_surjective(eso1).ok
        rc = rezk_completion(E)
        eso2 = rc.unit_functor
        L, cell = extend_functor(eso1, eso2)
        assert check_functor_enrichment(L).ok
        assert is_fully_faithful(L).ok and is_essentially_surjective(L).ok
        assert invertible_2cell(cell) is not None


def test_transport_is_two_sided_inverse_to_whiskering(boolb):
    # whisker then transport recovers the original; transport then whisker
    # recovers the original (fully faithfulness of precomposition, pointwise)
    E, C, F = collapse_functor(boolb)
    chain2 = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1)}, 2)
    fun2 = enumerate_enriched_functors(C, chain2)
    for G1 in fun2:
        for G2 in fun2:
            for theta in enumerate_enriched_transformations(G1, G2):
                tau = whisker_left(F, theta)
                back = transport_transformation(F, G1, G2, tau)
                assert back.component == theta.component


def test_transport_along_an_eso_functor_that_is_not_fully_faithful(boolb):
    """Transport needs only eso: along the identity-on-objects functor from
    the discrete to the codiscrete Bool pair, which is no weak equivalence,
    every theta: id => id of the codiscrete pair round-trips."""
    disc = bool_preorder_enrichment(boolb, {(0, 0), (1, 1)}, 2)
    codisc = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1), (1, 0)}, 2)
    F = thin_functor(disc, codisc, (0, 1))
    assert not is_fully_faithful(F).ok and is_essentially_surjective(F).ok
    with pytest.raises(CapabilityError, match=r"not fully faithful at \(0, 1\)"):
        weak_equivalence(F)
    G = id_functor(codisc)
    thetas = enumerate_enriched_transformations(G, G)
    assert len(thetas) == 1
    for theta in thetas:
        tau = whisker_left(F, theta)
        assert transport_transformation(F, G, G, tau).component == theta.component


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

NO_INVERTIBLE_ENDO = """\
base V = builtin(finset, k=3)
enrichment E over V {
  objects 1
  hom (0,0) = 2
  id 0 = (0,0,0)
  then (0,0,0)(0,0,0) = (0,0,1)
  then (0,0,0)(0,0,1) = (0,0,1)
  then (0,0,1)(0,0,0) = (0,0,1)
  then (0,0,1)(0,0,1) = (0,0,1)
  homobj (0,0) = 2
  eid 0 = (1,2,0)
  ecomp (0,0,0) = (4,2,15)
  fromarr (0,0,0) = (1,2,0)
  fromarr (0,0,1) = (1,2,1)
}
"""


def test_rezk_refuses_an_object_without_invertible_endomorphism(tmp_path, capsys):
    # the identity of object 0 composes to the other endomorphism, so no
    # endomorphism of 0 is invertible and 0 has no representative
    path = tmp_path / "no_invertible_endo.ecat"
    path.write_text(NO_INVERTIBLE_ENDO, encoding="utf-8")
    error = "object 0 has no invertible endomorphism, so no Rezk representative"
    assert run_cli(["rezk", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert run_cli(["--format", "json", "rezk", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": False, "error": error}


def test_transport_refuses_a_2cell_that_is_no_whisker():
    """Along the Z/2 groupoid's Rezk unit F, with G1 = G2 = id, a pair of
    components transports only when it is F whiskered into a 2-cell: (e, e)
    and (s, s) do, (e, s) does not."""
    E = construction_cases._z2_groupoid(twisted=False)
    F = rezk_completion(E).unit_functor
    G = id_functor(F.cod)
    e, s = F.cod.under.hom(0, 0)
    for comp in ({0: e, 1: e}, {0: s, 1: s}):
        tau = EnrichedTransformation(compose_functors(F, G), compose_functors(F, G), comp)
        assert whisker_left(F, transport_transformation(F, G, G, tau)).component == comp
    tau = EnrichedTransformation(compose_functors(F, G), compose_functors(F, G), {0: e, 1: s})
    with pytest.raises(StructuralError):
        transport_transformation(F, G, G, tau)
    with pytest.raises(StructuralError):
        reference_transport_transformation(F, G, G, tau)
