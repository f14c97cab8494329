import copy
import itertools
import random
import re
from pathlib import Path

import pytest

from ecat import core
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
    thin_enrichment,
    thin_under_category,
    to_kelly,
    underlying_category,
    vcompose,
    whisker_left,
    whisker_right,
)
from ecat.dsl import parse
from ecat.report import Collector, StructuralError, _ScanStop
from ecat.rezk import yoneda
from ecat.vbase import MorRef, builtin_base, cost_base, thin_category

import construction_cases
from helpers import (
    Mutated,
    cyclic_monoid_category,
    enrichments_in,
    preorder_oracle,
    random_category,
    random_metric_table,
    random_preorder,
    random_relation,
    reference_fincat_tabulate,
    reference_scan_unit_assoc,
    reference_tabulate,
    reference_thin_closure,
    reference_thin_enrichment,
    reference_validate_and_shape,
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
    # a broken enrichment stays broken through the Kelly presentation: the
    # same tables without the composition entry at (0, 1, 0)
    rel = {(0, 0), (1, 1), (0, 1), (1, 0)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    e_comp = {key: m for key, m in E.e_comp_t.items() if key != (0, 1, 0)}
    broken = Enrichment(boolb, E.under, E.hom_obj_t, E.e_id_t, e_comp, E.from_arr_t)
    assert check_enrichment(E).ok
    assert not check_enrichment(broken).ok
    assert not check_kelly(to_kelly(broken)).ok


def test_check_kelly_refuses_malformed_tables(boolb):
    """check_kelly shape-checks the hom, e_id and e_comp tables before it
    scans: a missing hom object, a composition entry of the wrong shape and
    an entry that is no morphism each raise StructuralError naming it."""
    E = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1)}, 2)
    assert check_kelly(to_kelly(E)).ok
    for table, key, value, message in (
        ("hom_obj_t", (1, 0), None, "missing hom object at (1,0)"),
        ("e_comp_t", (0, 0, 1), MorRef(0, 1, 0), "morphism (0,1,0) does not have shape"),
        ("e_comp_t", (0, 0, 1), "junk", "expected a morphism, got 'junk'"),
    ):
        K = to_kelly(E)
        if value is None:
            del getattr(K, table)[key]
        else:
            getattr(K, table)[key] = value
        for limit in (None, 1):
            with pytest.raises(StructuralError, match=re.escape(message)):
                check_kelly(K, limit=limit)
    K = to_kelly(E)
    del K.hom_obj_t[1, 0]
    with pytest.raises(StructuralError, match=re.escape("missing hom object at (1,0)")):
        K.hom(1, 0)


def _scan_outcome(scan, K, limit) -> tuple[list, str | None]:
    """The failures a unit/associativity scan of K adds, in scan order, and
    the StructuralError it raised, if any."""
    col = Collector(limit=limit)
    try:
        scan(K, range(K.n_objects), col)
    except _ScanStop:
        pass
    except StructuralError as exc:
        return col.failures, str(exc)
    return col.failures, None


def _other_mor(rng, V, m: MorRef) -> MorRef:
    """A morphism of m's hom other than m; an identity of another shape when
    m is alone in its hom."""
    n = V.hom_size(m.src, m.dst)
    if n > 1:
        k = rng.randrange(n - 1)
        return MorRef(m.src, m.dst, k + (k >= m.k))
    return rng.choice([i for o in V.objects() if (i := V.id_of(o)) != m])


def _swapped_entry_mutants(rng, V, max_objects: int, count: int) -> list[Enrichment]:
    """Canonical set enrichments over V with one e_comp or e_id entry
    replaced by another morphism of its hom."""
    out = []
    while len(out) < count:
        C = random_category(rng, max_objects=max_objects, max_hom=3)
        E = canonical_set_enrichment(C, V)
        entries = [(E.e_comp_t, key) for key in E.e_comp_t] + [(E.e_id_t, key) for key in E.e_id_t]
        entries = [(t, key) for t, key in entries if V.hom_size(t[key].src, t[key].dst) > 1]
        if not entries:
            continue
        table, key = rng.choice(entries)
        e_id, e_comp = dict(E.e_id_t), dict(E.e_comp_t)
        (e_comp if table is E.e_comp_t else e_id)[key] = _other_mor(rng, V, table[key])
        out.append(Enrichment(V, C, E.hom_obj_t, e_id, e_comp, E.from_arr_t))
    return out


def _mutated_base_enrichments(rng, V, count: int) -> list[Enrichment]:
    """Canonical set enrichments re-based on a Mutated view of V whose
    associator, or whose whisker of an e_comp entry, is changed at the
    argument one associativity instance reads. Most instances are drawn
    where a hom object that a read entry's source is a tensor with is
    empty: there, instances that differ in another hom object read the same
    entries, so a memo key that leaves that hom object out is caught."""
    out = []
    while len(out) < count:
        E = canonical_set_enrichment(random_category(rng, max_objects=3, max_hom=3), V)
        reading = rng.choice(("associator", "whisker of c_wxy", "whisker of c_xyz"))
        instances = list(itertools.product(E.objects(), repeat=4))
        if rng.random() < 0.8:
            empty = {(a, b) for a, b in itertools.product(E.objects(), repeat=2) if E.hom(a, b) == 0}
            instances = [(w, x, y, z) for w, x, y, z in instances
                         if ({(x, z)} if reading == "whisker of c_xyz" else {(w, x), (x, y), (w, y)}) & empty]
            if not instances:
                continue
        w, x, y, z = rng.choice(instances)
        e_yz, e_xy, e_wx = E.hom(y, z), E.hom(x, y), E.hom(w, x)
        if reading == "associator":
            table, key = "associator", (e_yz, e_xy, e_wx)
        elif reading == "whisker of c_wxy":
            table, key = "tensor_mor", (V.id_of(e_yz), E.ecomp(w, x, y))
        else:
            table, key = "tensor_mor", (E.ecomp(x, y, z), V.id_of(e_wx))
        M = Mutated(V, table, key, _other_mor(rng, V, getattr(V, table)(*key)))
        out.append(Enrichment(M, E.under, E.hom_obj_t, E.e_id_t, E.e_comp_t, E.from_arr_t))
    return out


def test_unit_assoc_scan_matches_reference(finset3):
    """The memoized unit/associativity scan adds the failures the reference
    scan adds (law, instance, lhs, rhs, in scan order), and raises where it
    raises, with and without a limit: on criterion 2's lawful finset(4)
    enrichments, on mutants with one entry swapped, on their Kelly
    presentations, and over mutated bases."""
    fs4 = builtin_base("finset", k=4)
    crit = random.Random(2)
    lawful = [canonical_set_enrichment(random_category(crit, max_objects=4, max_hom=3), fs4) for _ in range(50)]
    rng = random.Random(22)
    mutants = _swapped_entry_mutants(rng, finset3, 3, 150) + _swapped_entry_mutants(rng, fs4, 4, 150)
    rebased = _mutated_base_enrichments(rng, finset3, 150)
    outcomes = {"mutants": [], "rebased": []}
    for group, Es in (("lawful", lawful), ("mutants", mutants), ("rebased", rebased)):
        for E in Es:
            for K in (E, to_kelly(E)):
                for limit in (None, 1):
                    assert _scan_outcome(core._scan_unit_assoc, K, limit) == _scan_outcome(
                        reference_scan_unit_assoc, K, limit), (group, E, limit)
            failures, raised = _scan_outcome(core._scan_unit_assoc, E, None)
            if group == "lawful":
                assert not failures and raised is None
            else:
                outcomes[group].append((E, bool(failures), raised is not None))
    assert len(mutants) >= 300 and sum(failed for _, failed, _ in outcomes["mutants"]) >= 100
    # each mutated table is read: it changes a verdict, and it breaks an evaluation
    for table in ("associator", "tensor_mor"):
        seen = [(failed, raised) for E, failed, raised in outcomes["rebased"] if E.base._table == table]
        assert any(failed for failed, _ in seen) and any(raised for _, raised in seen)


def test_tables_are_read_only_after_construction(boolb):
    """Writing to a table in place raises TypeError, so a table checked
    where it entered stays checked."""
    E = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1)}, 2)
    for table, key in ((E.hom_obj_t, (0, 1)), (E.e_id_t, 0), (E.e_comp_t, (0, 1, 1)),
                       (E.from_arr_t, MorRef(0, 1, 0)), (E.under.hom_size_t, (1, 0)),
                       (E.under.identity_t, 0), (E.under.then_t, (MorRef(0, 0, 0), MorRef(0, 0, 0)))):
        with pytest.raises(TypeError):
            table[key] = table[key]
        with pytest.raises(TypeError):
            del table[key]
    assert check_enrichment(E).ok


# ---------------------------------------------------------------------------
# tables checked where they enter
# ---------------------------------------------------------------------------

def _golden_enrichments() -> list[Enrichment]:
    docs = [parse(path.read_text(encoding="utf-8"))[0]
            for path in sorted((Path(__file__).parent / "golden").glob("*.ecat"))]
    return [item.value for doc in docs if doc is not None for item in doc.of_kind("enrichment")]


def test_checked_tables_pass_the_reference_pass(boolb):
    """Every enrichment whose tables count as checked, so that
    check_enrichment skips its structural pass, passes that pass as it ran
    before: the results of the construction matrix, the golden corpus's
    enrichments once checked with constructions on them, and a seeded
    sample of the acceptance suite's criterion 2 inputs."""
    made = []
    for build in construction_cases.FIXTURES.values():
        for results in build().values():
            for value in results.values():
                made += enrichments_in(value)
    for E in _golden_enrichments():
        check_enrichment(E)
        made.append(E)
        made.append(opposite_enrichment(E))
        if E.e_id_t and len(E.e_comp_t) == E.n_objects ** 3:
            made.append(from_kelly(to_kelly(E)))
    # criterion 2: its first ten finset(4) categories, every 8th Bool
    # relation on 3 points and its first 50 cost(5) tables
    rng = random.Random(2)
    fs4 = builtin_base("finset", k=4)
    made += [canonical_set_enrichment(random_category(rng, max_objects=4, max_hom=3), fs4) for _ in range(10)]
    pairs = list(itertools.product(range(3), repeat=2))
    made += [bool_preorder_enrichment(boolb, {p for p, b in zip(pairs, bits) if b}, 3)
             for bits in list(itertools.product((0, 1), repeat=9))[::8]]
    c5 = cost_base(5)
    made += [cost_space_enrichment(c5, {p: rng.randrange(7) for p in pairs}, 3) for _ in range(50)]
    # the documents the matrix reads stay raw until something checks them
    trusted = [E for E in made if E._checked]
    assert len(trusted) >= 400
    for E in trusted:
        reference_validate_and_shape(E)


def test_check_enrichment_skips_the_pass_only_for_checked_tables(boolb, monkeypatch):
    """A tabulated enrichment never reaches the structural pass; raw tables
    reach it on their first check and not after, and a FinCat validates at
    most once."""
    calls = []
    shape = core._shape_enrichment
    monkeypatch.setattr(core, "_shape_enrichment", lambda E: calls.append(E) or shape(E))
    E = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1)}, 2)
    assert check_enrichment(E).ok and calls == []
    raw = Enrichment(boolb, E.under, E.hom_obj_t, E.e_id_t, E.e_comp_t, E.from_arr_t)
    assert check_enrichment(raw).ok and check_enrichment(raw, limit=1).ok
    assert calls == [raw]
    C = cyclic_monoid_category(3)
    scans = []
    validate = type(C).validate
    monkeypatch.setattr(type(C), "validate", lambda self: scans.append(self._valid) or validate(self))
    C.validate()
    C.validate()
    assert scans == [False, True]


def _one_entry_off(E: Enrichment, table: str, key, m: MorRef):
    """The four rules of E with one entry replaced by m, and the raw tables."""
    tables = {"eid": dict(E.e_id_t), "ecomp": dict(E.e_comp_t), "farr": dict(E.from_arr_t)}
    tables[table][key] = m
    rules = (E.hom, lambda x: tables["eid"].get(x), lambda x, y, z: tables["ecomp"].get((x, y, z)),
             tables["farr"].get)
    raw = Enrichment(E.base, E.under, E.hom_obj_t, tables["eid"], tables["ecomp"], tables["farr"])
    return rules, raw


def test_malformed_entries_are_refused_where_they_enter(boolb, finset3):
    """A rule that answers a morphism of the wrong shape, or one with an
    index outside its hom, makes tabulate raise StructuralError as it stores
    the entry, over a certified-thin base and a computed one alike, with the
    message the full pass gives the same tables raw. Raw tables still get
    that pass in check_enrichment, before any law scan."""
    chain2 = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1)}, 2)
    I = boolb.unit
    c2 = canonical_set_enrichment(cyclic_monoid_category(2), finset3)
    f = MorRef(0, 0, 1)
    cases = [
        (chain2, "eid", 0, MorRef(I, chain2.hom(0, 0), 1), r"index out of range"),
        (chain2, "ecomp", (1, 1, 0), MorRef(boolb.tensor_obj(chain2.hom(1, 0), chain2.hom(1, 1)), chain2.hom(1, 0), 1),
         r"index out of range"),
        (chain2, "ecomp", (0, 0, 1), MorRef(0, 0, 0), r"does not have shape"),
        (chain2, "farr", MorRef(0, 1, 0), MorRef(I, 0, 0), r"does not have shape"),
        (chain2, "farr", MorRef(0, 1, 0), (I, chain2.hom(0, 1), 0), r"expected a morphism"),
        (c2, "eid", 0, MorRef(1, 2, 2), r"index out of range"),
        (c2, "ecomp", (0, 0, 0), MorRef(4, 2, 16), r"index out of range"),
        (c2, "farr", f, MorRef(1, 3, 0), r"does not have shape"),
    ]
    # a morphism tabulate has already accepted is accepted again only as a
    # MorRef with both ends right: (0,0,0) holds (1,1,0) in chain2 and in
    # gap3, where 0 -> 1 -> 2 but hom(0,2) is 0, so (0,1,2) must be 1 -> 0
    gap3 = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}, 3)
    accepted = chain2.ecomp(0, 0, 0)
    assert accepted == gap3.ecomp(0, 0, 0) == MorRef(1, 1, 0) and gap3.ecomp(0, 1, 2) is None
    cases += [
        # an equal plain tuple, after the MorRef was accepted
        (chain2, "ecomp", (0, 0, 1), tuple(accepted), r"expected a morphism, got \(1, 1, 0\)"),
        # the accepted MorRef where its source is wrong, its target, or both
        (chain2, "ecomp", (0, 1, 0), accepted, r"morphism \(1,1,0\) does not have shape 0 -> 1"),
        (gap3, "ecomp", (0, 1, 2), accepted, r"morphism \(1,1,0\) does not have shape 1 -> 0"),
        (chain2, "ecomp", (1, 0, 0), accepted, r"morphism \(1,1,0\) does not have shape 0 -> 0"),
    ]
    for E, table, key, m, message in cases:
        rules, raw = _one_entry_off(E, table, key, m)
        with pytest.raises(StructuralError, match=message) as at_entry:
            Enrichment.tabulate(E.base, E.under, *rules)
        with pytest.raises(StructuralError) as at_check:
            check_enrichment(raw)
        assert str(at_entry.value) == str(at_check.value)
    # two malformed entries: the first in (x, y, z) order is the one named
    rules, raw = _one_entry_off(chain2, "ecomp", (1, 0, 0), accepted)
    rules, raw = _one_entry_off(raw, "ecomp", (0, 1, 1), MorRef(1, 1, 1))
    with pytest.raises(StructuralError, match=r"index out of range: \(1,1,1\)") as at_entry:
        Enrichment.tabulate(chain2.base, chain2.under, *rules)
    with pytest.raises(StructuralError) as at_check:
        check_enrichment(raw)
    assert str(at_entry.value) == str(at_check.value)
    with pytest.raises(StructuralError, match=r"hom object 7 at \(0,1\) is not a base object"):
        Enrichment.tabulate(boolb, chain2.under, lambda x, y: 7 if (x, y) == (0, 1) else 1,
                            chain2.eid, chain2.ecomp, chain2.farr)


def _same_build(build, reference) -> None:
    """Both builders give data_equal checked enrichments, or both refuse
    with the same message."""
    try:
        want = reference()
    except StructuralError as refused:
        with pytest.raises(StructuralError) as got:
            build()
        assert str(got.value) == str(refused)
        return
    got = build()
    assert got._checked and got.data_equal(want)


def test_thin_builds_match_the_frame_per_entry_reference(boolb, cost5):
    """thin_enrichment builds what the frame-per-entry builder it replaced
    builds (``reference_thin_enrichment``), and refuses with its message:
    every relation on at most 3 points, seeded 4-point relations, seeded
    lawful and perturbed cost(5)/cost(6) tables on 3-5 points, and hom
    tables holding a value that is not a base object."""
    cases = []
    for n in range(4):
        pairs = list(itertools.product(range(n), repeat=2))
        cases += [(boolb, n, dict(zip(pairs, bits))) for bits in itertools.product((0, 1), repeat=len(pairs))]
    rng = random.Random(23)
    pairs = list(itertools.product(range(4), repeat=2))
    for _ in range(200):
        density = rng.random()
        cases.append((boolb, 4, {p: int(rng.random() < density) for p in pairs}))
    for V in (cost5, cost_base(6)):
        for n in (3, 4, 5):
            for _ in range(15):
                d = random_metric_table(rng, V, n)
                cases.append((V, n, d))
                cases.append((V, n, {**d, (rng.randrange(n), rng.randrange(n)): rng.randrange(V.n_objects)}))
    seven = {(0, 0): 1, (0, 1): 7, (1, 0): 0, (1, 1): 1}
    cases += [(boolb, 2, seven), (boolb, 2, {**seven, (0, 1): 1, (1, 0): -1}),
              (cost5, 3, {(x, y): 9 if (x, y) == (2, 1) else 0 for x in range(3) for y in range(3)})]
    assert len(cases) >= 900
    for V, n, hom_obj in cases:
        _same_build(lambda: thin_enrichment(V, n, hom_obj), lambda: reference_thin_enrichment(V, n, hom_obj))
    with pytest.raises(StructuralError, match=r"hom object 7 at \(0,1\) is not a base object"):
        thin_enrichment(boolb, 2, seven)


def test_tabulate_matches_the_frame_per_entry_reference(boolb, monkeypatch):
    """Enrichment.tabulate builds what the frame-per-entry tabulation it
    replaced builds (``reference_tabulate``), with the rules run in the same
    order: on criterion 2's canonical set-enrichments over finset(4) and
    finset(3), and on the finposet_struct(2) constructions, whose computed
    base numbers its objects in the order the rules ask for them; each side
    builds its own bases. Malformed entries give the same refusals, and
    FinCat.tabulate builds every thin category on at most 3 points as its
    reference does."""
    rng = random.Random(2)
    cats = [random_category(rng, max_objects=4, max_hom=3) for _ in range(50)]
    monoids = [cyclic_monoid_category(2), cyclic_monoid_category(3)]

    def built():
        fs4, fs3 = builtin_base("finset", k=4), builtin_base("finset", k=3)
        sets = [canonical_set_enrichment(C, fs4) for C in cats] + [canonical_set_enrichment(C, fs3) for C in monoids]
        struct = construction_cases.FIXTURES["finposet_struct2"]()
        return sets, {name: construction_cases.pinned_text(results) for name, results in struct.items()}

    sets, pinned = built()
    with monkeypatch.context() as m:
        m.setattr(Enrichment, "tabulate", classmethod(lambda cls, *args, **kw: reference_tabulate(*args, **kw)))
        ref_sets, ref_pinned = built()
    assert all(E._checked and E.data_equal(R) for E, R in zip(sets, ref_sets))
    assert pinned == ref_pinned

    chain2 = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1)}, 2)
    accepted = chain2.ecomp(0, 0, 0)
    for table, key, value in [("eid", 0, MorRef(1, 1, 1)), ("ecomp", (0, 0, 1), tuple(accepted)),
                              ("ecomp", (1, 0, 0), accepted), ("farr", MorRef(0, 1, 0), MorRef(1, 0, 0))]:
        rules, _ = _one_entry_off(chain2, table, key, value)
        _same_build(lambda: Enrichment.tabulate(boolb, chain2.under, *rules),
                    lambda: reference_tabulate(boolb, chain2.under, *rules))

    for n in range(4):
        pairs = list(itertools.product(range(n), repeat=2))
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            C = thin_under_category(n, {p for p, b in zip(pairs, bits) if b})
            homs = {(a, b): [0] if C.hom_size(a, b) else [] for a, b in pairs}
            R = reference_fincat_tabulate(n, homs, lambda a: 0, lambda a, b, c, f, g: 0)
            assert C == R and all(C.hom(a, b) == R.hom(a, b) for a, b in pairs)


def test_thin_closure_matches_the_repeated_sweeps():
    """One Warshall pass gives the category the repeated sweeps gave, on
    every relation on at most 3 points and on a seeded sample of 4-point
    relations of every density."""
    for n in range(4):
        pairs = list(itertools.product(range(n), repeat=2))
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            rel = {p for p, b in zip(pairs, bits) if b}
            assert thin_under_category(n, rel) == reference_thin_closure(n, rel)
    rng = random.Random(4)
    pairs = list(itertools.product(range(4), repeat=2))
    for _ in range(200):
        density = rng.random()
        rel = {p for p in pairs if rng.random() < density}
        assert thin_under_category(4, rel) == reference_thin_closure(4, rel)


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
