"""The fixture x construction matrix of every constructed enrichment,
enriched functor and 2-cell, and a dump of it. Regenerate the pins from
the repository root with

    python tests/construction_cases.py [OUT_DIR]

OUT_DIR defaults to ``tests/golden/constructions``. Each pin
``<fixture>.<construction>.json`` holds the tables of every enrichment,
functor and 2-cell one construction returns, as canonical JSON with
sorted keys, so a change to a builder's numbering, its tables or the
order in which it registers base objects shows up as a byte difference.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from ecat import dsl
from ecat.construct import (
    canonical_set_enrichment,
    dialgebra_enrichment,
    full_sub_enrichment,
    functor_category_enrichment,
    opposite_enrichment,
    self_enrichment,
    set_enrichment_unique,
    struct_data_to_enrichment,
)
from ecat.core import (
    Enrichment,
    EnrichedFunctor,
    EnrichedTransformation,
    compose_functors,
    from_kelly,
    id_functor,
    id_transformation,
    kelly_round_trip_iso,
    thin_enrichment,
    to_kelly,
)
from ecat.factor import LiftSquare, image_factorization, orthogonal_lift, weak_equivalence_to_adjoint_equivalence
from ecat.monad import (
    eilenberg_moore,
    fkleisli,
    fkleisli_cocone,
    free_algebra_functor,
    kleisli_universal_extend,
    univalent_kleisli,
)
from ecat.rezk import extend_functor, representable, rezk_completion, yoneda
from ecat.structures import PosetStructure, StructCat
from ecat.vbase import FinCat, MorRef, builtin_base, cost_base

from helpers import cyclic_monoid_category

GOLDEN = Path(__file__).parent / "golden"
OUT = GOLDEN / "constructions"


# ---------------------------------------------------------------------------
# canonical JSON of the tables
# ---------------------------------------------------------------------------

def _plain(x):
    """A table key, value or structure as JSON: morphisms and tuples become
    lists, sets become sorted lists."""
    if isinstance(x, MorRef):
        return [x.src, x.dst, x.k]
    if isinstance(x, (frozenset, set)):
        return sorted(_plain(e) for e in x)
    if isinstance(x, tuple):
        return [_plain(e) for e in x]
    return x


def _rows(table: dict) -> list:
    return sorted([_plain(k), _plain(v)] for k, v in table.items())


def _tables(value) -> dict:
    if isinstance(value, Enrichment):
        out = {
            "name": value.name,
            "objects": value.n_objects,
            "hom": _rows(value.under.hom_size_t),
            "id": _rows(value.under.identity_t),
            "then": _rows(value.under.then_t),
            "homobj": _rows(value.hom_obj_t),
            "eid": _rows(value.e_id_t),
            "ecomp": _rows(value.e_comp_t),
            "fromarr": _rows(value.from_arr_t),
        }
        if isinstance(value.base, StructCat):
            # the base numbers objects in the order they are first registered
            out["base_objects"] = [[n, _plain(s)] for n, s in value.base._objs]
        return out
    if isinstance(value, EnrichedFunctor):
        return {
            "name": value.name,
            "ob": _rows(value.ob_map),
            "mor": _rows(value.mor_map),
            "efun": _rows(value.e_fun_t),
        }
    if isinstance(value, EnrichedTransformation):
        return {"name": value.name, "component": _rows(value.component)}
    raise TypeError(value)


def pinned_text(results: dict) -> str:
    return json.dumps({name: _tables(v) for name, v in results.items()}, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _load(name: str):
    doc, diags = dsl.load([str(GOLDEN / name)])
    assert doc is not None, [d.describe() for d in diags]
    return doc


def _enrichment(name: str) -> Enrichment:
    (item,) = _load(name).of_kind("enrichment")
    return item.value


def _cost_space() -> Enrichment:
    """Three points of cost(3): 0 and 1 at distance 0 both ways, 2 at
    distance 1 from both and 2 back."""
    V = cost_base(3)
    d = {(0, 0): 0, (0, 1): 0, (0, 2): 1, (1, 0): 0, (1, 1): 0, (1, 2): 1, (2, 0): 2, (2, 1): 2, (2, 2): 0}
    return thin_enrichment(V, 3, d, name="cost-space")


def _two_arrow_category() -> FinCat:
    """Objects 0, 1 and two parallel arrows 0 -> 1."""
    ids = {x: MorRef(x, x, 0) for x in range(2)}
    then = {(ids[0], ids[0]): ids[0], (ids[1], ids[1]): ids[1]}
    for k in range(2):
        f = MorRef(0, 1, k)
        then[ids[0], f] = then[f, ids[1]] = f
    return FinCat(2, {(0, 0): 1, (0, 1): 2, (1, 1): 1}, ids, then)


def _struct_enrichment() -> Enrichment:
    """The two-arrow category over finposet_struct(2), its parallel arrows
    ordered."""
    V = StructCat(PosetStructure(), 2)
    structs = {(0, 0): frozenset({(0, 0)}), (0, 1): frozenset({(0, 0), (1, 1), (0, 1)}),
               (1, 0): frozenset(), (1, 1): frozenset({(0, 0)})}
    return struct_data_to_enrichment(_two_arrow_category(), structs, V)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def _generic(E: Enrichment) -> dict:
    """The constructions that take any enrichment: opposite, a full
    subcategory (without object 0 unless it is the only one), the Kelly
    round trip, the identity and a composite."""
    sub, inclusion = full_sub_enrichment(E, lambda x: x != 0 or E.n_objects == 1)
    return {
        "opposite": {"opposite": opposite_enrichment(E)},
        "full_sub": {"sub": sub, "inclusion": inclusion},
        "kelly": {"from_kelly": from_kelly(to_kelly(E)), "iso": kelly_round_trip_iso(E)},
        "id": {"id": id_functor(E)},
        "compose": {"inclusion;id": compose_functors(inclusion, id_functor(E))},
    }


def _equivalences(E: Enrichment) -> dict:
    """Rezk completion, then the extension, image and lift along its unit,
    with their 2-cells."""
    rezk = rezk_completion(E)
    unit = rezk.unit_functor
    H, cell = extend_functor(unit, id_functor(E))
    fact = image_factorization(unit)
    adj = weak_equivalence_to_adjoint_equivalence(unit)
    return {
        "rezk": {"completion": rezk.completion, "unit": unit},
        "extend": {"extension": H, "cell": cell},
        "image": {"image": fact.image, "corestriction": fact.eso_part, "inclusion": fact.ff_part},
        "lift": {"lift": adj.bwd, "unit": adj.unit, "counit": adj.counit},
    }


def _yoneda(E: Enrichment) -> dict:
    y = yoneda(E)
    out = {"embedding": y.embedding, "functor_category": y.functor_category.enrichment}
    out.update({f"repr{x}": R for x, R in y.representables.items()})
    return {"yoneda": out}


def _bool_two_iso_points() -> dict:
    E = _enrichment("bool_two_iso_points.ecat")
    return {
        "thin": {"thin": thin_enrichment(E.base, E.n_objects, E.hom_obj_t)},
        "self": {"self": self_enrichment(E.base)},
        **_generic(E), **_equivalences(E), **_yoneda(E),
    }


def _cost() -> dict:
    E = _cost_space()
    return {
        "thin": {"thin": E},
        "self": {"self": self_enrichment(E.base)},
        "representable": {"repr2": representable(E, 2)},
        **_generic(E), **_equivalences(E),
    }


def _set_z3() -> dict:
    E = _enrichment("set_z3.ecat")
    canonical = canonical_set_enrichment(E.under, E.base)
    return {
        "canonical": {"canonical": canonical},
        "unique": {"iso": set_enrichment_unique(E, canonical)},
        "functor_category": {"functor_category": functor_category_enrichment(E, E).enrichment},
        **_generic(E),
    }


def _cyclic3() -> dict:
    E = canonical_set_enrichment(cyclic_monoid_category(3), builtin_base("finset", k=3))
    return {
        "canonical": {"canonical": E},
        "unique": {"iso": set_enrichment_unique(E, E)},
        **_generic(E), **_yoneda(E),
    }


def _z2_groupoid(twisted: bool) -> Enrichment:
    """Two objects, every hom the group Z/2 and composition addition mod 2,
    over finset(3). The twisted copy lists hom(1, 1) as [1, 0], so the
    identity of object 1 is its morphism with index 1."""
    homs = {(a, b): [0, 1] for a in range(2) for b in range(2)}
    if twisted:
        homs[1, 1] = [1, 0]
    C = FinCat.tabulate(2, homs, lambda a: 0, lambda a, b, c, f, g: (f + g) % 2)
    return canonical_set_enrichment(C, builtin_base("finset", k=3))


def _struct() -> dict:
    E = _struct_enrichment()
    dialg = dialgebra_enrichment(id_functor(E), id_functor(E))
    return {
        "struct": {"struct": E},
        "dialgebra": {"dialgebras": dialg.enrichment, "projection": dialg.projection},
        **_generic(E),
    }


def _monad_toppoint() -> dict:
    doc = _load("cocone_toppoint.ecat")
    T = doc.get("M").value
    q = doc.get("Q").value
    FK = fkleisli(T)
    em = eilenberg_moore(T)
    uk = univalent_kleisli(T)
    H, _ = kleisli_universal_extend(T, q, uk)
    return {
        "fkleisli": {"fkleisli": FK, "leg": fkleisli_cocone(T, FK).leg},
        "eilenberg_moore": {
            "dialgebras": em.dialg.enrichment, "projection": em.dialg.projection,
            "algebras": em.enrichment, "inclusion": em.inclusion, "forgetful": em.forgetful,
        },
        "free_algebra": {"free": free_algebra_functor(T, em)},
        "univalent_kleisli": {"completion": uk.completion},
        "comparison": {"comparison": uk.unit_functor},
        "universal_extend": {"mediator": H},
        **_generic(T.carrier),
    }


def _functors_chain2() -> dict:
    doc = _load("functors_chain2.ecat")
    out = {}
    for name in ("F0", "F1", "F2"):
        F = doc.get(name).value
        fact = image_factorization(F)
        eso, ff = fact.eso_part, fact.ff_part
        glue = id_transformation(compose_functors(eso, ff))
        L, _, _ = orthogonal_lift(LiftSquare(eso, ff, eso, ff, glue))
        dialg = dialgebra_enrichment(F, id_functor(F.cod))
        out[f"image_{name}"] = {"image": fact.image, "corestriction": eso, "inclusion": ff}
        out[f"lift_{name}"] = {"lift": L}
        out[f"dialgebra_{name}"] = {"dialgebras": dialg.enrichment, "projection": dialg.projection}
    return out


FIXTURES = {
    "bool_two_iso_points": _bool_two_iso_points,
    "cost_space": _cost,
    "set_z3": _set_z3,
    "cyclic3": _cyclic3,
    "finposet_struct2": _struct,
    "z2_groupoid": lambda: _equivalences(_z2_groupoid(twisted=False)),
    "z2_groupoid_twisted": lambda: _equivalences(_z2_groupoid(twisted=True)),
    "monad_toppoint": _monad_toppoint,
    "functors_chain2": _functors_chain2,
}


@functools.lru_cache(maxsize=None)
def cases() -> dict:
    """``<fixture>.<construction>`` -> the pinned text of its results."""
    return {
        f"{fixture}.{construction}": pinned_text(results)
        for fixture, build in FIXTURES.items()
        for construction, results in build().items()
    }


def main(out: Path = OUT) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, text in cases().items():
        (out / f"{name}.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(cases())} constructions to {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
