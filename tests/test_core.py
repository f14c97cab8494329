import copy
import itertools
import random
from pathlib import Path

import pytest

from ecat.construct import canonical_set_enrichment, opposite_enrichment, self_enrichment
from ecat.core import (
    EnrichedTransformation,
    Enrichment,
    bool_preorder_enrichment,
    check_enrichment,
    check_functor_enrichment,
    check_kelly,
    check_nat_trans_enrichment,
    compose_functors,
    cost_space_enrichment,
    enumerate_enriched_functors,
    enumerate_enriched_transformations,
    from_kelly,
    id_functor,
    id_transformation,
    invertible_2cell,
    kelly_round_trip_iso,
    postcompose_mor,
    precompose_mor,
    to_kelly,
    underlying_category,
    vcompose,
    whisker_left,
    whisker_right,
)
from ecat.dsl import parse
from ecat.rezk import yoneda
from ecat.vbase import MorRef, builtin_base, thin_category

from helpers import (
    preorder_oracle,
    random_category,
    random_metric_table,
    random_preorder,
    random_relation,
    thin_functor,
    triangle_oracle,
)


def chain(boolb, n):
    rel = {(i, j) for i in range(n) for j in range(i, n)}
    return bool_preorder_enrichment(boolb, rel, n)


# ---------------------------------------------------------------------------
# check_enrichment against the thin-base oracles
# ---------------------------------------------------------------------------

def test_bool_enrichment_iff_preorder_exhaustive_2pt(boolb):
    for bits in itertools.product((0, 1), repeat=4):
        rel = {
            (x, y)
            for (x, y), b in zip(itertools.product(range(2), repeat=2), bits)
            if b
        }
        E = bool_preorder_enrichment(boolb, rel, 2)
        assert check_enrichment(E).ok == preorder_oracle(rel, 2), rel


def test_bool_enrichment_iff_preorder_sampled_3pt(boolb):
    rng = random.Random(11)
    for _ in range(60):
        rel = random_relation(rng, 3, rng.random())
        if rng.random() < 0.5:
            rel -= {(x, x) for x in range(rng.randint(0, 2))}
        E = bool_preorder_enrichment(boolb, rel, 3)
        assert check_enrichment(E).ok == preorder_oracle(rel, 3), rel


def test_cost_enrichment_iff_triangle(cost5):
    rng = random.Random(13)
    for _ in range(40):
        d = {
            (x, y): (0 if x == y and rng.random() < 0.8 else rng.randint(0, 6))
            for x, y in itertools.product(range(3), repeat=2)
        }
        E = cost_space_enrichment(cost5, d, 3)
        assert check_enrichment(E).ok == triangle_oracle(cost5, d, 3), d


def test_triangle_violation_reports_composition(cost5):
    d = {(0, 0): 0, (1, 1): 0, (2, 2): 0,
         (0, 1): 1, (1, 2): 1, (0, 2): 5,
         (1, 0): 5, (2, 1): 5, (2, 0): 5}
    rep = check_enrichment(cost_space_enrichment(cost5, d, 3))
    assert not rep.ok
    assert {f.law for f in rep.failures} == {"composition"}
    assert (0, 1, 2) in {f.instance for f in rep.failures}


def test_thin_path_matches_the_full_scan(boolb, cost3, cost5):
    """check_enrichment over a certified-thin base reports what the full scan
    reports over a copy of the base without the certificate: the same ``ok``
    and the same failures (law, instance, lhs, rhs) in order. The cases
    include every golden enrichment over an explicit table base, which the
    certificate, computed from the tables, covers too."""
    pairs3 = list(itertools.product(range(3), repeat=2))
    pairs2 = list(itertools.product(range(2), repeat=2))
    cases = [bool_preorder_enrichment(boolb, {p for p, bit in zip(pairs3, bits) if bit}, 3)
             for bits in itertools.product((0, 1), repeat=9)]
    # every 8th of them on the discrete category, so that from_arr misses
    # the points of the off-diagonal hom objects
    discrete = thin_category(3, {(x, x) for x in range(3)})
    cases += [Enrichment(boolb, discrete, E.hom_obj_t, E.e_id_t, E.e_comp_t,
                         {f: m for f, m in E.from_arr_t.items() if f.src == f.dst})
              for E in cases[::8]]
    cases += [cost_space_enrichment(cost3, dict(zip(pairs2, ds)), 2)
              for ds in itertools.product(range(cost3.n_objects), repeat=4)]
    rng = random.Random(10)
    for _ in range(300):
        n = rng.choice((3, 4))
        if rng.random() < 0.5:
            d = random_metric_table(rng, cost5, n)
        else:
            d = {p: rng.randrange(cost5.n_objects) for p in itertools.product(range(n), repeat=2)}
        cases.append(cost_space_enrichment(cost5, d, n))
    S = self_enrichment(cost3)
    space = cost_space_enrichment(cost3, {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 3, (1, 1): 0,
                                          (1, 2): 1, (2, 0): 4, (2, 1): 2, (2, 2): 0}, 3)
    cases += [S, opposite_enrichment(S), yoneda(space).functor_category.enrichment]
    docs = [parse(path.read_text(encoding="utf-8"))[0]
            for path in sorted((Path(__file__).parent / "golden").glob("*.ecat"))]
    cases += [item.value for doc in docs if doc is not None for item in doc.of_kind("enrichment")
              if "builtin" not in doc.get(item.refs["over"]).refs]
    assert len(cases) == 512 + 64 + 625 + 300 + 3 + 23
    verdicts = []
    for E in cases:
        assert E.base.thin
        reference = copy.copy(E)
        reference.base = copy.copy(E.base)
        reference.base.thin = False
        for limit in (None, 1):
            report = check_enrichment(E, limit=limit)
            assert report == check_enrichment(reference, limit=limit)
        verdicts.append(report.ok)
    assert any(verdicts) and not all(verdicts)


def test_canonical_set_enrichment_random_categories(finset3):
    rng = random.Random(5)
    for _ in range(15):
        C = random_category(rng, max_objects=3, max_hom=3)
        E = canonical_set_enrichment(C, finset3)
        assert check_enrichment(E).ok


# ---------------------------------------------------------------------------
# pre/post composition operators
# ---------------------------------------------------------------------------

def test_precompose_identity_is_identity(boolb):
    E = chain(boolb, 3)
    for w in range(3):
        for x in range(3):
            got = precompose_mor(E, w, E.under.id_of(x))
            assert got == boolb.id_of(E.hom(w, x))
            got = postcompose_mor(E, x, E.under.id_of(w))
            assert got == boolb.id_of(E.hom(w, x))


def test_precompose_functorial_on_set_enrichment(finset3):
    rng = random.Random(3)
    C = random_category(rng, max_objects=3, max_hom=3)
    E = canonical_set_enrichment(C, finset3)
    V = E.base
    for w in C.objects():
        for f in C.mors():
            for g in C.mors():
                if f.dst != g.src:
                    continue
                lhs = precompose_mor(E, w, C.compose(f, g))
                rhs = V.compose(precompose_mor(E, w, f), precompose_mor(E, w, g))
                assert lhs == rhs
    # postcompose is contravariantly functorial
    for z in C.objects():
        for f in C.mors():
            for g in C.mors():
                if f.dst != g.src:
                    continue
                lhs = postcompose_mor(E, z, C.compose(f, g))
                rhs = V.compose(postcompose_mor(E, z, g), postcompose_mor(E, z, f))
                assert lhs == rhs


def test_pre_post_commute(finset3):
    rng = random.Random(9)
    C = random_category(rng, max_objects=3, max_hom=3)
    E = canonical_set_enrichment(C, finset3)
    V = E.base
    for f in C.mors():
        for g in C.mors():
            # E(f.dst, g.src) -> E(f.src, g.dst) two ways
            lhs = V.compose(
                precompose_mor(E, f.dst, g), postcompose_mor(E, g.dst, f)
            )
            rhs = V.compose(
                postcompose_mor(E, g.src, f), precompose_mor(E, f.src, g)
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# underlying category and the Kelly round trip
# ---------------------------------------------------------------------------

def test_underlying_of_bool_preorder_is_the_order(boolb):
    rel = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}
    E = bool_preorder_enrichment(boolb, rel, 3)
    U = underlying_category(E)
    assert {k for k, v in U.hom_size_t.items() if v} == rel
    iso = kelly_round_trip_iso(E)
    assert check_functor_enrichment(iso).ok


def test_underlying_of_set_enrichment_matches(finset3):
    rng = random.Random(23)
    C = random_category(rng, max_objects=3, max_hom=3)
    E = canonical_set_enrichment(C, finset3)
    U = underlying_category(E)
    assert U.hom_size_t == C.hom_size_t
    iso = kelly_round_trip_iso(E)
    assert check_functor_enrichment(iso).ok


def test_empty_enrichment(boolb):
    E = bool_preorder_enrichment(boolb, set(), 0)
    assert check_enrichment(E).ok
    assert underlying_category(E).n_objects == 0


def test_kelly_round_trip_bool(boolb):
    E = chain(boolb, 3)
    K = to_kelly(E)
    assert check_kelly(K).ok
    E2 = from_kelly(K)
    assert check_enrichment(E2).ok
    iso = kelly_round_trip_iso(E)
    assert check_functor_enrichment(iso).ok
    # thin round trip is equal on the nose
    assert E2.hom_obj_t == E.hom_obj_t
    assert E2.under.hom_size_t == E.under.hom_size_t


def test_kelly_round_trip_set_enrichment(finset3):
    rng = random.Random(31)
    for _ in range(5):
        C = random_category(rng, max_objects=3, max_hom=3)
        E = canonical_set_enrichment(C, finset3)
        K = to_kelly(E)
        assert check_kelly(K).ok
        E2 = from_kelly(K)
        assert check_enrichment(E2).ok
        iso = kelly_round_trip_iso(E)
        assert check_functor_enrichment(iso).ok
        # the iso is bijective on homs, hence invertible
        for x, y in itertools.product(C.objects(), repeat=2):
            assert E2.under.hom_size(x, y) == C.hom_size(x, y)


def test_kelly_verdict_preserved_under_mutation(boolb):
    # a broken enrichment stays broken through the Kelly presentation
    rel = {(0, 0), (1, 1), (0, 1), (1, 0)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    E.e_comp_t.pop((0, 1, 0))
    assert not check_enrichment(E).ok
    assert not check_kelly(to_kelly(E)).ok


# ---------------------------------------------------------------------------
# functors and transformations
# ---------------------------------------------------------------------------

def test_functor_check_iff_monotone(boolb):
    rng = random.Random(17)
    rel1 = random_preorder(rng, 3)
    rel2 = random_preorder(rng, 3)
    E1 = bool_preorder_enrichment(boolb, rel1, 3)
    E2 = bool_preorder_enrichment(boolb, rel2, 3)
    for graph in itertools.product(range(3), repeat=3):
        monotone = all((graph[x], graph[y]) in rel2 for (x, y) in rel1)
        try:
            F = thin_functor(E1, E2, graph)
        except ValueError:
            assert not monotone
            continue
        assert check_functor_enrichment(F).ok == monotone


def test_functor_check_iff_nonexpansive(cost3):
    rng = random.Random(19)
    d1 = random_metric_table(rng, cost3, 2)
    d2 = random_metric_table(rng, cost3, 2)
    E1 = cost_space_enrichment(cost3, d1, 2)
    E2 = cost_space_enrichment(cost3, d2, 2)

    def val(i):
        return float("inf") if i == cost3.n_objects - 1 else i

    for graph in itertools.product(range(2), repeat=2):
        nonexpansive = all(
            val(d2[(graph[x], graph[y])]) <= val(d1[(x, y)])
            for x, y in itertools.product(range(2), repeat=2)
        )
        try:
            F = thin_functor(E1, E2, graph)
        except ValueError:
            assert not nonexpansive
            continue
        assert check_functor_enrichment(F).ok == nonexpansive


def test_identity_functor_and_transformation(boolb):
    E = chain(boolb, 3)
    F = id_functor(E)
    assert check_functor_enrichment(F).ok
    t = id_transformation(F)
    assert check_nat_trans_enrichment(t).ok
    assert compose_functors(F, F).data_equal(F)


def test_hexagon_agrees_with_square_on_mutations(finset3):
    # set-enrichment of a category with a nontrivial automorphism gives
    # parallel candidates to mutate components into
    from helpers import cyclic_monoid_category

    C = cyclic_monoid_category(2)
    E = canonical_set_enrichment(C, finset3)
    F = id_functor(E)
    for k in range(2):
        t = EnrichedTransformation(F, F, {0: MorRef(0, 0, k)})
        rep = check_nat_trans_enrichment(t)
        hex_fail = {f.instance for f in rep.failures if f.law == "nat-trans-hexagon"}
        sq_fail = {f.instance for f in rep.failures if f.law == "nat-trans-square"}
        assert hex_fail == sq_fail


def test_invertible_2cell(boolb):
    rel = {(0, 0), (1, 1), (0, 1), (1, 0)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    F = id_functor(E)
    swap = thin_functor(E, E, (1, 0))
    t = EnrichedTransformation(F, swap, {0: MorRef(0, 1, 0), 1: MorRef(1, 0, 0)})
    assert check_nat_trans_enrichment(t).ok
    inv = invertible_2cell(t)
    assert inv is not None
    assert check_nat_trans_enrichment(inv).ok


def test_non_invertible_component_returns_none(boolb):
    E = chain(boolb, 2)
    F = id_functor(E)
    bottom = thin_functor(E, E, (0, 0))
    t = EnrichedTransformation(bottom, F, {0: MorRef(0, 0, 0), 1: MorRef(0, 1, 0)})
    assert check_nat_trans_enrichment(t).ok
    assert invertible_2cell(t) is None


def test_whiskering_stays_enriched(boolb):
    E = chain(boolb, 2)
    F = id_functor(E)
    top = thin_functor(E, E, (1, 1))
    t = EnrichedTransformation(F, top, {0: MorRef(0, 1, 0), 1: MorRef(1, 1, 0)})
    assert check_nat_trans_enrichment(t).ok
    wl = whisker_left(top, t)
    wr = whisker_right(t, top)
    assert check_nat_trans_enrichment(wl).ok
    assert check_nat_trans_enrichment(wr).ok
    # interchange of whiskered composites
    v1 = vcompose(whisker_right(t, F), whisker_left(top, t))
    v2 = vcompose(whisker_left(F, t), whisker_right(t, top))
    assert v1.component == v2.component


def test_composite_e_fun_is_componentwise(finset3):
    rng = random.Random(37)
    C = random_category(rng, max_objects=2, max_hom=2)
    E = canonical_set_enrichment(C, finset3)
    F = id_functor(E)
    FF = compose_functors(F, F)
    for x, y in itertools.product(C.objects(), repeat=2):
        assert FF.e_fun(x, y) == E.base.compose(F.e_fun(x, y), F.e_fun(x, y))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_functors_counts(boolb):
    E2 = chain(boolb, 2)
    fs = enumerate_enriched_functors(E2, E2)
    assert len(fs) == 3  # monotone self-maps of the 2-chain
    unitE = bool_preorder_enrichment(boolb, {(0, 0)}, 1)
    fs = enumerate_enriched_functors(unitE, E2)
    assert len(fs) == 2
    fs = enumerate_enriched_functors(E2, unitE)
    assert len(fs) == 1
    empty = bool_preorder_enrichment(boolb, set(), 0)
    fs = enumerate_enriched_functors(empty, E2)
    assert len(fs) == 1


def test_enumerate_transformations_poset_order(boolb):
    E = chain(boolb, 2)
    fs = enumerate_enriched_functors(E, E)
    # hom between the constant-0 and constant-1 functors is a single cell
    const0 = next(F for F in fs if set(F.ob_map.values()) == {0})
    const1 = next(F for F in fs if set(F.ob_map.values()) == {1})
    assert len(enumerate_enriched_transformations(const0, const1)) == 1
    assert len(enumerate_enriched_transformations(const1, const0)) == 0


def test_enumeration_cap():
    from ecat.report import EnumerationCapExceeded

    B = builtin_base("bool")
    rel = {(i, j) for i in range(3) for j in range(3)}
    E = bool_preorder_enrichment(B, rel, 3)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_enriched_functors(E, E, cap=2)
