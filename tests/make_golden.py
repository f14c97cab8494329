"""Regenerate the golden DSL corpus. Run from the repository root:

    python tests/make_golden.py [OUT_DIR]

OUT_DIR defaults to ``tests/golden``.

Deterministic: every file is the canonical serialization of a document built
from fixed seeds, so regeneration is a no-op unless the format changes.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from ecat.construct import (
    canonical_set_enrichment,
    self_enrichment,
)
from ecat.core import (
    EnrichedTransformation,
    bool_preorder_enrichment,
    compose_functors,
    cost_space_enrichment,
    enumerate_enriched_functors,
    id_functor,
    id_transformation,
)
from ecat.dsl import Document, Item, Span, serialize
from ecat.monad import EnrichedMonad, fkleisli_cocone
from ecat.vbase import MorRef, bool_base, builtin_base, cost_base

from helpers import random_metric_table, random_preorder, thin_functor

OUT = Path(__file__).parent / "golden"

_span = Span(1, 1, 2)


def item(kind, name, value, **refs):
    return Item(kind, name, value, refs, _span)


def builtin_item(name, builtin, **params):
    base = builtin_base(builtin, **params)
    return Item("base", name, base, {"builtin": builtin, "params": tuple(sorted(params.items()))}, _span), base


def main(out: Path = OUT):
    def write(path, doc):
        (out / path).write_text(serialize(doc), encoding="utf-8")

    out.mkdir(exist_ok=True)
    rng = random.Random(2024)
    count = 0

    # builtin base declarations
    for fname, builtin, params in [
        ("base_bool.ecat", "bool", {}),
        ("base_cost3.ecat", "cost", {"n": 3}),
        ("base_cost5.ecat", "cost", {"n": 5}),
        ("base_finset2.ecat", "finset", {"k": 2}),
        ("base_finset3.ecat", "finset", {"k": 3}),
        ("base_finposet.ecat", "finposet_struct", {"max_size": 2}),
        ("base_finpointedposet.ecat", "finpointedposet_struct", {"max_size": 2}),
    ]:
        it, _ = builtin_item("V", builtin, **params)
        write(fname, Document([it]))
        count += 1

    # explicit table bases
    write("base_bool_tables.ecat", Document([item("base", "W", bool_base())]))
    write("base_cost2_tables.ecat", Document([item("base", "W", cost_base(2))]))
    count += 2

    # bool preorder enrichments
    B = bool_base()
    base_it = item("base", "V", B)
    shapes = {
        "chain2": {(0, 0), (1, 1), (0, 1)},
        "chain3": {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)},
        "codiscrete2": {(0, 0), (1, 1), (0, 1), (1, 0)},
        "two_iso_points": {(0, 0), (1, 1), (0, 1), (1, 0)},
        "discrete3": {(0, 0), (1, 1), (2, 2)},
        "vee": {(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)},
    }
    for name, rel in shapes.items():
        n = max(x for p in rel for x in p) + 1
        E = bool_preorder_enrichment(B, rel, n)
        write(f"bool_{name}.ecat", Document([base_it, item("enrichment", "E", E, over="V")]))
        count += 1
    for i in range(4):
        n = rng.randint(1, 3)
        rel = random_preorder(rng, n)
        E = bool_preorder_enrichment(B, rel, n)
        write(f"bool_random{i}.ecat", Document([base_it, item("enrichment", "E", E, over="V")]))
        count += 1

    # cost metric enrichments
    C5 = cost_base(5)
    cost_it = item("base", "V", C5)
    for i in range(4):
        n = rng.randint(1, 3)
        d = random_metric_table(rng, C5, n)
        E = cost_space_enrichment(C5, d, n)
        write(f"cost_random{i}.ecat", Document([cost_it, item("enrichment", "E", E, over="V")]))
        count += 1

    # self-enrichments
    write("self_bool.ecat", Document([base_it, item("enrichment", "S", self_enrichment(B), over="V")]))
    C3 = cost_base(3)
    c3_it = item("base", "V", C3)
    write("self_cost3.ecat", Document([c3_it, item("enrichment", "S", self_enrichment(C3), over="V")]))
    count += 2

    # set-enrichments over the finset builtin
    fs_it, FS = builtin_item("V", "finset", k=3)
    from helpers import cyclic_monoid_category, free_dag_category, idempotent_monoid_category

    for name, C in [
        ("z2", cyclic_monoid_category(2)),
        ("z3", cyclic_monoid_category(3)),
        ("idem", idempotent_monoid_category()),
        ("dag", free_dag_category(random.Random(4), 3, 3)),
    ]:
        E = canonical_set_enrichment(C, FS)
        write(f"set_{name}.ecat", Document([fs_it, item("enrichment", "E", E, over="V")]))
        count += 1

    # functors and transformations over bool enrichments
    chain2 = bool_preorder_enrichment(B, shapes["chain2"], 2)
    e_it = item("enrichment", "E", chain2, over="V")
    funs = enumerate_enriched_functors(chain2, chain2)
    f_items = [
        item("functor", f"F{i}", F, dom="E", cod="E") for i, F in enumerate(funs)
    ]
    write("functors_chain2.ecat", Document([base_it, e_it] + f_items))
    count += 1
    const0, idf, const1 = funs
    tau = EnrichedTransformation(const0, const1, {0: MorRef(0, 1, 0), 1: MorRef(0, 1, 0)})
    write(
        "transformation_chain2.ecat",
        Document([
            base_it, e_it,
            item("functor", "F0", const0, dom="E", cod="E"),
            item("functor", "F1", const1, dom="E", cod="E"),
            item("transformation", "t", tau, src="F0", dst="F1"),
        ]),
    )
    count += 1

    # monads and cocones
    vee = bool_preorder_enrichment(B, shapes["vee"], 3)
    tob = {0: 2, 1: 1, 2: 2}
    endo = thin_functor(vee, vee, (2, 1, 2))
    unit = EnrichedTransformation(id_functor(vee), endo, {x: MorRef(x, tob[x], 0) for x in range(3)})
    mult = EnrichedTransformation(
        compose_functors(endo, endo), endo, {x: MorRef(tob[tob[x]], tob[x], 0) for x in range(3)}
    )
    T = EnrichedMonad(vee, endo, unit, mult, name="M")
    vee_it = item("enrichment", "E", vee, over="V")
    endo_it = item("functor", "T", endo, dom="E", cod="E")
    monad_it = item("monad", "M", T, on="E", endo="T")
    write("monad_toppoint.ecat", Document([base_it, vee_it, endo_it, monad_it]))
    count += 1

    # identity monads, on a skeletal carrier and on two isomorphic points
    for fname, E in [
        ("monad_identity.ecat", vee),
        ("monad_two_iso_points.ecat", bool_preorder_enrichment(B, shapes["two_iso_points"], 2)),
    ]:
        idE = id_functor(E)
        Tid = EnrichedMonad(E, idE, id_transformation(idE), id_transformation(idE))
        write(
            fname,
            Document([
                base_it, item("enrichment", "E", E, over="V"),
                item("functor", "I", idE, dom="E", cod="E"),
                item("monad", "M", Tid, on="E", endo="I"),
            ]),
        )
        count += 1

    from ecat.monad import fkleisli

    FK = fkleisli(T)
    q = fkleisli_cocone(T, FK)
    write(
        "cocone_toppoint.ecat",
        Document([
            base_it, vee_it, endo_it, monad_it,
            item("enrichment", "FK", FK, over="V"),
            item("functor", "leg", q.leg, dom="E", cod="FK"),
            item("cocone", "Q", q, **{"for": "M", "apex": "FK", "leg": "leg"}),
        ]),
    )
    count += 1

    # negative fixtures for the CLI and diagnostics tests
    (out / "bad_triangle.ecat").write_text(
        "base V = builtin(cost, n=5)\n"
        "\n"
        "enrichment E over V {\n"
        "  objects 3\n"
        "  hom (0,0) = 1\n  hom (1,1) = 1\n  hom (2,2) = 1\n"
        "  hom (0,1) = 0\n  hom (0,2) = 0\n  hom (1,0) = 0\n"
        "  hom (1,2) = 0\n  hom (2,0) = 0\n  hom (2,1) = 0\n"
        "  id 0 = (0,0,0)\n  id 1 = (1,1,0)\n  id 2 = (2,2,0)\n"
        "  then (0,0,0)(0,0,0) = (0,0,0)\n"
        "  then (1,1,0)(1,1,0) = (1,1,0)\n"
        "  then (2,2,0)(2,2,0) = (2,2,0)\n"
        "  homobj (0,0) = 0\n  homobj (1,1) = 0\n  homobj (2,2) = 0\n"
        "  homobj (0,1) = 1\n  homobj (1,2) = 1\n  homobj (0,2) = 5\n"
        "  homobj (1,0) = 5\n  homobj (2,1) = 5\n  homobj (2,0) = 5\n"
        "  eid 0 = (0,0,0)\n  eid 1 = (0,0,0)\n  eid 2 = (0,0,0)\n"
        "  ecomp (0,0,0) = (0,0,0)\n  ecomp (1,1,1) = (0,0,0)\n  ecomp (2,2,2) = (0,0,0)\n"
        "  fromarr (0,0,0) = (0,0,0)\n  fromarr (1,1,0) = (0,0,0)\n  fromarr (2,2,0) = (0,0,0)\n"
        "}\n",
        encoding="utf-8",
    )
    (out / "bad_out_of_range.ecat").write_text(
        "base V = builtin(bool)\n"
        "\n"
        "enrichment E over V {\n"
        "  objects 1\n"
        "  hom (0,0) = 1\n"
        "  id 0 = (0,0,0)\n"
        "  then (0,0,0)(0,0,0) = (0,0,0)\n"
        "  homobj (0,0) = 1\n"
        "  eid 0 = (1,1,7)\n"
        "  fromarr (0,0,0) = (1,1,0)\n"
        "}\n",
        encoding="utf-8",
    )

    print(f"wrote {count} golden documents to {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
