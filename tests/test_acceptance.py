"""Acceptance suite: one test per criterion, each printing a PASS line when
its assertions hold. Run with -s to see the lines stream."""

import itertools
import random
from pathlib import Path


from ecat.construct import (
    LaxMonoidalFunctor,
    canonical_set_enrichment,
    change_of_base,
    check_preserves_underlying,
    dialgebra_enrichment,
    full_sub_enrichment,
    functor_category_enrichment,
    opposite_enrichment,
    self_enrichment,
    struct_data_to_enrichment,
    struct_enrichment_to_data,
)
from ecat.core import (
    EnrichedTransformation,
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
    to_kelly,
)
from ecat.dsl import parse, serialize
from ecat.cli import run_cli
from ecat.factor import (
    LiftSquare,
    image_factorization,
    is_essentially_surjective,
    is_fully_faithful,
    orthogonal_lift,
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
from ecat.report import EcatError, StructuralError
from ecat.rezk import (
    check_precomp_equivalence,
    check_yoneda_ff,
    extend_functor,
    rezk_completion,
    transport_transformation,
    univalence_report,
    yoneda,
)
from ecat.structures import PosetStructure, StructCat
from ecat.vbase import (
    MorRef,
    base_law_checks,
    bool_base,
    builtin_base,
    cost_base,
    terminal_base,
    thin_category,
)

from helpers import (
    bool_functor_candidates,
    em_oracle,
    identity_glue,
    kleisli_oracle,
    precomp_triples,
    preorder_oracle,
    random_category,
    random_metric_table,
    random_mutation,
    random_poset,
    random_preorder,
    thin_functor,
    triangle_oracle,
)

GOLDEN = Path(__file__).parent / "golden"


def report(line):
    print(f"\nACCEPTANCE {line}")


# ---------------------------------------------------------------------------
# criterion 1: coherence suite
# ---------------------------------------------------------------------------

def mutation_caught(M):
    try:
        for _, fn in base_law_checks(M):
            if not fn(M, limit=1).ok:
                return True
    except StructuralError:
        return True
    return False


def test_criterion_1_coherence():
    bases = []
    for k in range(5):
        bases.append((f"finset({k})", builtin_base("finset", k=k)))
    bases.append(("bool", bool_base()))
    for n in (0, 3, 6):
        bases.append((f"cost({n})", cost_base(n)))
    bases.append(("finposet(2)", builtin_base("finposet_struct", max_size=2)))
    bases.append(("finpointedposet(2)", builtin_base("finpointedposet_struct", max_size=2)))
    for name, V in bases:
        for law, fn in base_law_checks(V):
            rep = fn(V)
            assert rep.ok, f"{name} fails {law}: {rep.failures[:3]}"

    rng = random.Random(20240817)
    mutation_bases = [
        ("finset(2)", builtin_base("finset", k=2)),
        ("bool", bool_base()),
        ("cost(6)", cost_base(6)),
        ("finposet(2)", builtin_base("finposet_struct", max_size=2)),
        ("finpointedposet(2)", builtin_base("finpointedposet_struct", max_size=2)),
    ]
    for name, V in mutation_bases:
        for i in range(100):
            M = random_mutation(rng, V)
            assert mutation_caught(M), f"{name} mutation escaped: {M._table} {M._key} -> {M._value}"
    report("1 coherence suite: PASS")


# ---------------------------------------------------------------------------
# criterion 2: enrichment/functor/transformation law suite
# ---------------------------------------------------------------------------

def test_criterion_2_enrichment_laws(finset3, boolb, cost3):
    rng = random.Random(2)
    fs4 = builtin_base("finset", k=4)
    for _ in range(50):
        C = random_category(rng, max_objects=4, max_hom=3)
        E = canonical_set_enrichment(C, fs4)
        assert check_enrichment(E).ok

    # Bool: exhaustive 3-point relation scan against the preorder oracle
    pairs = [(x, y) for x in range(3) for y in range(3)]
    for bits in itertools.product((0, 1), repeat=9):
        rel = {p for p, b in zip(pairs, bits) if b}
        E = bool_preorder_enrichment(boolb, rel, 3)
        assert check_enrichment(E, limit=1).ok == preorder_oracle(rel, 3)

    # Cost: exhaustive 3-point tables over cost(1), all 2-point over cost(3),
    # and a seeded sample of cost(5) 3-point tables
    c1 = cost_base(1)
    for values in itertools.product(range(3), repeat=9):
        d = dict(zip(pairs, values))
        E = cost_space_enrichment(c1, d, 3)
        assert check_enrichment(E, limit=1).ok == triangle_oracle(c1, d, 3)
    for a, b, c, d_ in itertools.product(range(5), repeat=4):
        d = {(0, 0): a, (1, 1): b, (0, 1): c, (1, 0): d_}
        E = cost_space_enrichment(cost3, d, 2)
        assert check_enrichment(E, limit=1).ok == triangle_oracle(cost3, d, 2)
    c5 = cost_base(5)
    for _ in range(300):
        d = {p: rng.randrange(7) for p in pairs}
        E = cost_space_enrichment(c5, d, 3)
        assert check_enrichment(E, limit=1).ok == triangle_oracle(c5, d, 3)

    # hexagon verdict equals square verdict on every generated transformation
    from helpers import cyclic_monoid_category

    agree = 0
    for C in (cyclic_monoid_category(2), cyclic_monoid_category(3)):
        E = canonical_set_enrichment(C, finset3)
        funs = enumerate_enriched_functors(E, E, cap=3000)
        for F in funs:
            for G in funs:
                n = E.under.hom_size(F.ob(0), G.ob(0))
                for k in range(n):
                    t = EnrichedTransformation(F, G, {0: MorRef(F.ob(0), G.ob(0), k)})
                    rep = check_nat_trans_enrichment(t)
                    hex_f = {f.instance for f in rep.failures if f.law == "nat-trans-hexagon"}
                    sq_f = {f.instance for f in rep.failures if f.law == "nat-trans-square"}
                    assert hex_f == sq_f
                    agree += 1
    assert agree >= 10
    report("2 enrichment law suite: PASS")


# ---------------------------------------------------------------------------
# criterion 3: Kelly round trip
# ---------------------------------------------------------------------------

def corpus_enrichments(rng, boolb, cost3, finset3, count=12):
    out = []
    for _ in range(count // 3):
        n = rng.randint(1, 3)
        out.append(bool_preorder_enrichment(boolb, random_preorder(rng, n), n))
    for _ in range(count // 3):
        n = rng.randint(1, 2)
        out.append(cost_space_enrichment(cost3, random_metric_table(rng, cost3, n), n))
    for _ in range(count - 2 * (count // 3)):
        C = random_category(rng, max_objects=3, max_hom=3)
        out.append(canonical_set_enrichment(C, finset3))
    return out


def test_criterion_3_kelly_round_trip(boolb, cost3, finset3):
    rng = random.Random(3)
    for E in corpus_enrichments(rng, boolb, cost3, finset3):
        K = to_kelly(E)
        assert check_kelly(K).ok == check_enrichment(E).ok
        E2 = from_kelly(K)
        assert check_enrichment(E2).ok
        iso = kelly_round_trip_iso(E)
        assert check_functor_enrichment(iso).ok
        assert is_fully_faithful(iso).ok
    # verdicts preserved for broken inputs too
    bad = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1), (1, 2), (2, 2)}, 3)
    assert not check_enrichment(bad).ok and not check_kelly(to_kelly(bad)).ok
    report("3 Kelly round trip: PASS")


# ---------------------------------------------------------------------------
# criterion 4: construction suite
# ---------------------------------------------------------------------------

def test_criterion_4_constructions(boolb, cost3, finset3):
    rng = random.Random(4)
    # every construction output passes its checkers on every valid input
    for V in (boolb, cost3, builtin_base("finset", k=2)):
        S = self_enrichment(V)
        assert check_enrichment(S).ok
    corpus = corpus_enrichments(rng, boolb, cost3, finset3, count=9)
    for E in corpus:
        keep = {x for x in E.objects() if rng.random() < 0.6}
        sub, inc = full_sub_enrichment(E, lambda x: x in keep)
        assert check_enrichment(sub).ok and check_functor_enrichment(inc).ok
        assert is_fully_faithful(inc).ok
        Eop = opposite_enrichment(E)
        assert check_enrichment(Eop).ok
        Eopop = opposite_enrichment(Eop)
        assert Eopop.hom_obj_t == E.hom_obj_t and Eopop.e_comp_t == E.e_comp_t
        res = dialgebra_enrichment(id_functor(E), id_functor(E))
        assert check_enrichment(res.enrichment).ok
        assert check_functor_enrichment(res.projection).ok

    # functor categories over thin bases
    for rel1 in [{(0, 0), (1, 1), (0, 1)}, {(0, 0)}]:
        n1 = max(x for p in rel1 for x in p) + 1
        E1 = bool_preorder_enrichment(boolb, rel1, n1)
        for rel2 in [{(0, 0), (1, 1), (0, 1)}, {(0, 0), (1, 1)}]:
            E2 = bool_preorder_enrichment(boolb, rel2, 2)
            fc = functor_category_enrichment(E1, E2)
            assert check_enrichment(fc.enrichment).ok
            for a, b in itertools.product(range(len(fc.functors)), repeat=2):
                n = len(enumerate_enriched_transformations(fc.functors[a], fc.functors[b]))
                assert fc.enrichment.under.hom_size(a, b) == n

    # change of base refuses exactly when preservation fails
    def embed(boolb, costn):
        inf = costn.n_objects - 1
        ob = {0: inf, 1: 0}
        mor = {f: MorRef(ob[f.src], ob[f.dst], 0) for f in boolb.mors()}
        mult = {
            (x, y): MorRef(costn.tensor_obj(ob[x], ob[y]), ob[boolb.tensor_obj(x, y)], 0)
            for x in range(2) for y in range(2)
        }
        return LaxMonoidalFunctor(boolb, costn, ob, mor, MorRef(0, 0, 0), mult)

    good = embed(boolb, cost3)
    assert check_preserves_underlying(good).ok
    E = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1)}, 2)
    E2 = change_of_base(good, E)
    assert check_enrichment(E2).ok
    assert E2.under.hom_size_t == E.under.hom_size_t

    T = terminal_base()
    fs2 = builtin_base("finset", k=2)
    for V in (boolb, fs2):
        collapse = LaxMonoidalFunctor(
            V, T,
            {x: 0 for x in V.objects()},
            {f: MorRef(0, 0, 0) for f in V.mors()},
            MorRef(0, 0, 0),
            {(x, y): MorRef(0, 0, 0) for x in V.objects() for y in V.objects()},
        )
        rep = check_preserves_underlying(collapse)
        assert not rep.ok
        EV = (
            bool_preorder_enrichment(V, {(0, 0), (1, 1)}, 2)
            if V is boolb
            else canonical_set_enrichment(random_category(rng, 2, 2), fs2)
        )
        refused = False
        try:
            change_of_base(collapse, EV)
        except EcatError:
            refused = True
        assert refused

    # structure-data round trip is the identity on structure tables
    from helpers import free_dag_category

    V = StructCat(PosetStructure(), 2)
    done = 0
    attempts = 0
    while done < 5 and attempts < 200:
        attempts += 1
        C = free_dag_category(rng, max_objects=2, max_hom=2)
        structs = {}
        for key, n in sorted(C.hom_size_t.items()):
            if n == 2:
                structs[key] = frozenset({(0, 0), (1, 1), (0, 1)})
            else:
                structs[key] = frozenset({(i, i) for i in range(n)})
        try:
            E = struct_data_to_enrichment(C, structs, V)
        except EcatError:
            continue
        assert check_enrichment(E).ok
        assert struct_enrichment_to_data(E) == structs
        done += 1
    assert done >= 3
    report("4 construction suite: PASS")


# ---------------------------------------------------------------------------
# criterion 5: factorization suite
# ---------------------------------------------------------------------------

def test_criterion_5_factorization(boolb):
    rng = random.Random(5)
    factored = 0
    while factored < 50:
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        E1 = bool_preorder_enrichment(boolb, random_preorder(rng, n1), n1)
        E2 = bool_preorder_enrichment(boolb, random_preorder(rng, n2), n2)
        cands = [
            F for F in bool_functor_candidates(E1, E2)
            if check_functor_enrichment(F, limit=1).ok
        ]
        if not cands:
            continue
        F = rng.choice(cands)
        fact = image_factorization(F)
        assert is_essentially_surjective(fact.eso_part).ok
        assert is_fully_faithful(fact.ff_part).ok
        assert check_functor_enrichment(fact.eso_part).ok
        assert check_functor_enrichment(fact.ff_part).ok
        assert check_nat_trans_enrichment(fact.comparison).ok
        assert invertible_2cell(fact.comparison) is not None
        factored += 1

    equivs = 0
    while equivs < 20:
        n = rng.randint(1, 3)
        rel = random_poset(rng, n)
        E1 = bool_preorder_enrichment(boolb, rel, n)
        perm = list(range(n))
        rng.shuffle(perm)
        rel2 = {(perm[x], perm[y]) for (x, y) in rel}
        E2 = bool_preorder_enrichment(boolb, rel2, n)
        F = thin_functor(E1, E2, tuple(perm))
        adj = weak_equivalence_to_adjoint_equivalence(F)
        assert adj.triangle_reports[0].ok and adj.triangle_reports[1].ok
        assert check_nat_trans_enrichment(adj.unit).ok
        assert check_nat_trans_enrichment(adj.counit).ok
        # composites are isomorphic to identities
        assert invertible_2cell(adj.unit) is not None
        assert invertible_2cell(adj.counit) is not None
        equivs += 1

    # thin-base lift uniqueness: the candidate scan finds exactly one filler
    unique_checked = 0
    while unique_checked < 5:
        n = rng.randint(1, 2)
        rel = random_preorder(rng, n)
        E = bool_preorder_enrichment(boolb, rel, n)
        res = rezk_completion(E)
        F = res.unit_functor
        sq = LiftSquare(F, F, id_functor(E), id_functor(res.completion), identity_glue(F))
        L, upper, lower = orthogonal_lift(sq)
        fillers = []
        for cand in bool_functor_candidates(res.completion, E):
            if not check_functor_enrichment(cand, limit=1).ok:
                continue
            # both triangles must commute up to invertible 2-cell
            up_ok = _thin_triangle_iso(compose_functors(F, cand), id_functor(E))
            low_ok = _thin_triangle_iso(compose_functors(cand, F), id_functor(res.completion))
            if up_ok and low_ok:
                fillers.append(cand)
        assert len(fillers) == 1, f"{len(fillers)} fillers in a thin instance"
        assert fillers[0].ob_map == L.ob_map
        unique_checked += 1
    report("5 factorization suite: PASS")


def _thin_triangle_iso(F, G):
    if F.dom.n_objects != G.dom.n_objects:
        return False
    for t in enumerate_enriched_transformations(F, G, cap=10000):
        if invertible_2cell(t) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# criterion 6: rezk suite
# ---------------------------------------------------------------------------

def all_preorders(n):
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rel = {(x, x) for x in range(n)} | {p for p, b in zip(pairs, bits) if b}
        if all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c):
            out.append(rel)
    return out


def test_criterion_6_rezk(boolb, cost3):
    # Yoneda fully faithful: all Bool preorders on <= 3 points, exhaustive
    for n in range(4):
        for rel in all_preorders(n):
            E = bool_preorder_enrichment(boolb, rel, n)
            assert check_yoneda_ff(E).ok, (n, rel)
    # all Cost(3) two-point spaces, exhaustive
    for a, b in itertools.product(range(5), repeat=2):
        d = {(0, 0): 0, (1, 1): 0, (0, 1): a, (1, 0): b}
        E = cost_space_enrichment(cost3, d, 2)
        assert check_yoneda_ff(E).ok, d

    # completions skeletal with verified weak-equivalence certificates
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randint(1, 3)
        E = bool_preorder_enrichment(boolb, random_preorder(rng, n), n)
        res = rezk_completion(E)
        assert univalence_report(res.completion).skeletal
        assert res.cert_ff.ok and res.cert_eso.ok
        assert check_functor_enrichment(res.unit_functor).ok

    # precomposition equivalence on >= 10 triples, including the collapse
    # and two non-skeletal targets
    triples = 0
    for F, E3 in precomp_triples(boolb, cost3, rng):
        assert check_precomp_equivalence(F, E3).ok
        triples += 1
    assert triples >= 12

    # cross-check: image of Yoneda vs skeleton, all Bool preorders on
    # <= 3 points and all Cost(3) two-point spaces
    spaces = [bool_preorder_enrichment(boolb, rel, n) for n in range(4) for rel in all_preorders(n)]
    for a, b in itertools.product(range(5), repeat=2):
        spaces.append(cost_space_enrichment(cost3, {(0, 0): 0, (1, 1): 0, (0, 1): a, (1, 0): b}, 2))
    for E in spaces:
        fact = image_factorization(yoneda(E).embedding)
        eso1 = fact.eso_part
        assert is_fully_faithful(eso1).ok and is_essentially_surjective(eso1).ok
        rc = rezk_completion(E)
        L, cell = extend_functor(eso1, rc.unit_functor)
        assert is_fully_faithful(L).ok and is_essentially_surjective(L).ok
        assert invertible_2cell(cell) is not None
    report("6 rezk suite: PASS")


# ---------------------------------------------------------------------------
# criterion 7: monad suite
# ---------------------------------------------------------------------------

def toppoint_monad(boolb):
    rel = {(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)}
    E = bool_preorder_enrichment(boolb, rel, 3)
    tob = (2, 1, 2)
    endo = thin_functor(E, E, tob)
    unit = EnrichedTransformation(id_functor(E), endo, {x: MorRef(x, tob[x], 0) for x in range(3)})
    mult = EnrichedTransformation(
        compose_functors(endo, endo), endo,
        {x: MorRef(tob[tob[x]], tob[x], 0) for x in range(3)},
    )
    return EnrichedMonad(E, endo, unit, mult, name="toppoint")


def identity_monad_on(E):
    idE = id_functor(E)
    return EnrichedMonad(E, idE, id_transformation(idE), id_transformation(idE), name="id")


def test_criterion_7_monads(boolb):
    chain = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}, 3)
    two_iso_points = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1), (1, 0)}, 2)
    codiscrete = canonical_set_enrichment(
        thin_category(2, {(0, 0), (1, 1), (0, 1), (1, 0)}), builtin_base("finset", k=2)
    )
    skeletal = [toppoint_monad(boolb), identity_monad_on(chain)]
    # carriers with two isomorphic objects: their univalent Kleisli object has one
    non_skeletal = [identity_monad_on(two_iso_points), identity_monad_on(codiscrete)]
    for T in skeletal + non_skeletal:
        assert check_enriched_monad(T).ok
        FK = fkleisli(T)
        assert check_enrichment(FK).ok
        oracle = kleisli_oracle(T)
        assert FK.under.hom_size_t == oracle.hom_size_t
        assert FK.under.identity_t == oracle.identity_t
        assert FK.under.then_t == oracle.then_t

        em = eilenberg_moore(T)
        algebras, homs = em_oracle(T)
        assert em.algebras == algebras
        for key, hs in homs.items():
            assert em.enrichment.under.hom_size(*key) == len(hs)

        uk = univalent_kleisli(T)
        kappa = uk.unit_functor
        assert is_fully_faithful(kappa).ok
        assert is_essentially_surjective(kappa).ok
        assert univalence_report(uk.completion).skeletal
        if T in non_skeletal:
            assert uk.completion.n_objects == 1

        # canonical cocone extension with mediator uniqueness
        q = fkleisli_cocone(T, FK)
        assert check_kleisli_cocone(T, q).ok
        H, com = kleisli_universal_extend(T, q, uk)
        assert check_functor_enrichment(H).ok
        assert invertible_2cell(com) is not None
        canon = univalent_kleisli_cocone(T, uk)
        tau = EnrichedTransformation(
            compose_functors(canon.leg, H), compose_functors(canon.leg, H),
            {x: q.apex.under.id_of(H.ob(canon.leg.ob(x))) for x in T.carrier.objects()},
        )
        zeta = transport_transformation(canon.leg, H, H, tau)
        assert all(
            zeta.at(y) == q.apex.under.id_of(H.ob(y)) for y in canon.apex.objects()
        )

        # a nontrivial cocone through the Eilenberg-Moore object
        free = free_algebra_functor(T, em)
        comp = {}
        for x in T.carrier.objects():
            a, b = free.ob(T.t_ob(x)), free.ob(x)
            d_a, d_b = em.dialg_index(a), em.dialg_index(b)
            k = em.dialg.mors[(d_a, d_b)].index(T.mu(x))
            comp[x] = MorRef(a, b, k)
        cell = EnrichedTransformation(compose_functors(T.endo, free), free, comp)
        q2 = KleisliCocone(em.enrichment, free, cell)
        assert check_kleisli_cocone(T, q2).ok
        H2, com2 = kleisli_universal_extend(T, q2, uk)
        assert check_functor_enrichment(H2).ok
        assert invertible_2cell(com2) is not None
    report("7 monad suite: PASS")


# ---------------------------------------------------------------------------
# criterion 8: DSL suite
# ---------------------------------------------------------------------------

def test_criterion_8_dsl(capsys):
    goldens = sorted(p for p in GOLDEN.glob("*.ecat") if not p.name.startswith("bad_"))
    assert len(goldens) >= 30
    for path in goldens:
        text = path.read_text(encoding="utf-8")
        doc, diags = parse(text)
        assert doc is not None, (path, [d.describe() for d in diags])
        assert serialize(doc) == text, path

    negatives = [
        "base V = builtin(nope)\n",
        "wat\n",
        "base V {\n  objects 1\n",
        "functor F : A -> B {\n}\n",
        "base V = builtin(bool)\nbase V = builtin(bool)\n",
    ]
    for src in negatives:
        doc, diags = parse(src)
        assert doc is None and diags
        for d in diags:
            assert d.span.line >= 1 and d.span.col >= 1

    assert run_cli(["check", str(GOLDEN / "bool_chain2.ecat")]) == 0
    capsys.readouterr()
    assert run_cli(["check", str(GOLDEN / "bad_triangle.ecat")]) == 1
    out = capsys.readouterr().out
    assert "composition" in out  # names the failing diagram family
    assert run_cli(["check", str(GOLDEN / "bad_out_of_range.ecat")]) == 1
    capsys.readouterr()
    assert run_cli(["rezk", str(GOLDEN / "bool_two_iso_points.ecat")]) == 0
    out = capsys.readouterr().out
    assert "# completion_objects: 1" in out
    assert run_cli(["nonsense"]) == 2
    capsys.readouterr()
    report("8 DSL suite: PASS")


def test_cap_must_be_a_positive_integer(capsys):
    """A --cap that is not a positive integer is a usage error (exit 2),
    refused before any file is read; a positive one is accepted."""
    doc = str(GOLDEN / "bool_chain2.ecat")
    for cap in ("0", "-5", "x", "1.5"):
        assert run_cli(["--cap", cap, "yoneda-check", doc]) == 2, cap
        assert "--cap" in capsys.readouterr().err
    assert run_cli(["--cap", "100", "yoneda-check", doc]) == 0


#: The flags each construct operation reads beside --name and --out, with a
#: value that names an item of bool_chain2.ecat.
CONSTRUCT_READS = {
    "self": {"--base": "V"},
    "opposite": {"--enrichment": "E"},
    "full-sub": {"--enrichment": "E", "--keep": "0"},
    "functor-category": {"--enrichment": "E", "--cod": "E"},
}


def test_construct_refuses_flags_its_operation_does_not_read(capsys):
    """Each construct operation accepts the flags it reads. Setting any other
    construct flag, even to an empty list, is a usage error (exit 2) that
    names the flag and the operation, refused before any file is read."""
    doc = str(GOLDEN / "bool_chain2.ecat")
    every = {"--base": "V", "--enrichment": "E", "--cod": "E", "--keep": "0"}
    for op, reads in CONSTRUCT_READS.items():
        read = list(itertools.chain(*reads.items()))
        assert run_cli(["construct", op, doc, "--name", "R", *read]) == 0, op
        capsys.readouterr()
        for flag, value in every.items():
            if flag not in reads:
                for argv in ([doc, flag, value], ["missing.ecat", flag, value], [doc, *read, flag, value]):
                    assert run_cli(["construct", op, *argv]) == 2, (op, argv)
                    err = capsys.readouterr().err
                    assert f"construct {op} does not read {flag}" in err, err
    assert run_cli(["construct", "self", doc, "--keep", ""]) == 2
    assert run_cli(["construct", "self", doc, "--keep", "0", "--cod", "x", "--enrichment", "nope"]) == 2
