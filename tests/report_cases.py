"""Failing inputs for every checker that takes ``limit``, and their pinned
full reports. Regenerate the pins from the repository root with

    python tests/report_cases.py [OUT_DIR]

OUT_DIR defaults to ``tests/golden/reports``. Each pin is the full
(``limit=None``) ``CheckReport.to_json()`` of one case, so a change to how a
scan stops or orders its failures shows up as a byte difference.
"""

import functools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from ecat import dsl
from ecat.construct import (
    LaxMonoidalFunctor,
    canonical_set_enrichment,
    check_lax_monoidal,
    check_preserves_underlying,
)
from ecat.core import (
    EnrichedFunctor,
    EnrichedTransformation,
    check_enrichment,
    check_functor_enrichment,
    check_kelly,
    check_nat_trans_enrichment,
    id_functor,
    id_transformation,
    to_kelly,
)
from ecat.monad import EnrichedMonad, check_enriched_monad, check_kleisli_cocone, fkleisli_cocone
from ecat.report import StructuralError
from ecat.vbase import FinCat, MorRef, base_law_checks, bool_base, builtin_base, cost_base, terminal_base

from helpers import cyclic_monoid_category
from test_acceptance import random_mutation

GOLDEN = Path(__file__).parent / "golden"
OUT = GOLDEN / "reports"

#: seeds of the base mutations; each base draws mutations until each law
#: family named here has one with a failing full report
MUTATION_SEEDS = {"cost3": 7, "finset2": 11}


def _mutated_bases(name: str, V, families: tuple) -> list:
    rng = random.Random(MUTATION_SEEDS[name])
    found = {}
    for _ in range(300):
        M = random_mutation(rng, V)
        for family, check in base_law_checks(M):
            if family in found or family not in families:
                continue
            try:
                failing = not check(M).ok
            except StructuralError:
                continue
            if failing:
                found[family] = (check, (M,), f"{M._table} {M._key} -> {M._value}")
        if len(found) == len(families):
            return [(f"{family}-{name}", *found[family]) for family in families]
    raise AssertionError(f"no failing mutation of {name} for {sorted(set(families) - set(found))}")


def _idempotent_arrow_category() -> FinCat:
    """Objects 0, 1; hom(0,0) = {1, e} with e.e = e; hom(0,1) = {f, g} with
    e.f = e.g = g; hom(1,1) = {1}. Not thin and not commutative."""
    one0, e = MorRef(0, 0, 0), MorRef(0, 0, 1)
    f, g = MorRef(0, 1, 0), MorRef(0, 1, 1)
    one1 = MorRef(1, 1, 0)
    then = {
        (one0, one0): one0, (one0, e): e, (e, one0): e, (e, e): e,
        (one0, f): f, (one0, g): g, (e, f): g, (e, g): g,
        (f, one1): f, (g, one1): g, (one1, one1): one1,
    }
    hom_size = {(0, 0): 2, (0, 1): 2, (1, 0): 0, (1, 1): 1}
    return FinCat(2, hom_size, {0: one0, 1: one1}, then)


def _z3_functor_off_by_one(E) -> EnrichedFunctor:
    """The identity of the cyclic group Z3 with the identity arrow sent to
    the generator: underlying, enriched and from_arr laws all fail."""
    idE = id_functor(E)
    mor = dict(idE.mor_map)
    mor[MorRef(0, 0, 0)] = MorRef(0, 0, 1)
    return EnrichedFunctor(E, E, dict(idE.ob_map), mor, dict(idE.e_fun_t), name="off-by-one")


def _other_cases() -> list:
    finset3 = builtin_base("finset", k=3)
    cases = []

    doc, diags = dsl.load([str(GOLDEN / "bad_triangle.ecat")])
    assert doc is not None, [d.describe() for d in diags]
    (tri,) = doc.of_kind("enrichment")
    cases.append(("enrichment-bad_triangle", check_enrichment, (tri.value,), "bad_triangle.ecat"))
    cases.append(("kelly-bad_triangle", check_kelly, (to_kelly(tri.value),), "bad_triangle.ecat"))

    z3 = canonical_set_enrichment(cyclic_monoid_category(3), finset3)
    cases.append(("functor-z3", check_functor_enrichment, (_z3_functor_off_by_one(z3),),
                  "Z3 identity with mor (0,0,0) -> (0,0,1)"))

    arrow = canonical_set_enrichment(_idempotent_arrow_category(), finset3)
    idA = id_functor(arrow)
    tau = EnrichedTransformation(idA, idA, {0: MorRef(0, 0, 1), 1: MorRef(1, 1, 0)}, name="e-at-0")
    cases.append(("transformation-idempotent_arrow", check_nat_trans_enrichment, (tau,),
                  "id => id with the idempotent at object 0"))

    boolb, finset2 = bool_base(), builtin_base("finset", k=2)
    lax = LaxMonoidalFunctor(
        boolb, finset2,
        {0: 0, 1: 2},
        {MorRef(0, 0, 0): MorRef(0, 0, 0), MorRef(0, 1, 0): MorRef(0, 2, 0), MorRef(1, 1, 0): finset2.id_of(2)},
        MorRef(1, 2, 0),
        {(0, 0): MorRef(0, 0, 0), (0, 1): MorRef(0, 0, 0), (1, 0): MorRef(0, 0, 0), (1, 1): MorRef(4, 2, 0)},
        name="true-to-2",
    )
    cases.append(("lax_monoidal-bool_finset2", check_lax_monoidal, (lax,),
                  "bool -> finset(2), true -> 2, constant unit and mult cells"))

    collapse = LaxMonoidalFunctor(
        finset2, terminal_base(),
        {x: 0 for x in finset2.objects()},
        {f: MorRef(0, 0, 0) for f in finset2.mors()},
        MorRef(0, 0, 0),
        {(x, y): MorRef(0, 0, 0) for x in finset2.objects() for y in finset2.objects()},
        name="collapse",
    )
    cases.append(("preserves_underlying-collapse_finset2", check_preserves_underlying, (collapse,),
                  "finset(2) collapsed onto one object"))

    idz3 = id_functor(z3)
    bad_endo = _z3_functor_off_by_one(z3)
    T = EnrichedMonad(z3, bad_endo, id_transformation(idz3),
                      EnrichedTransformation(idz3, idz3, {0: MorRef(0, 0, 1)}), name="bad")
    cases.append(("monad-z3", check_enriched_monad, (T,),
                  "Z3 identity monad with the off-by-one endofunctor and mult the generator"))

    z2 = canonical_set_enrichment(cyclic_monoid_category(2), finset3)
    idz2 = id_functor(z2)
    T2 = EnrichedMonad(z2, idz2, id_transformation(idz2), id_transformation(idz2), name="id")
    q = fkleisli_cocone(T2)
    q.cell.component[0] = MorRef(0, 0, 1)
    cases.append(("cocone-z2", check_kleisli_cocone, (T2, q),
                  "canonical cocone of the Z2 identity monad with cell 0 the generator"))
    return cases


@functools.lru_cache(maxsize=None)
def cases() -> list:
    """(name, checker, args, input description) for every pinned report."""
    # cost(3) is thin: any two parallel arrows are equal, so a mutation of
    # it either keeps the category and closed laws or is refused as
    # malformed; only its monoidal and symmetric scans can report a failure
    out = _mutated_bases("cost3", cost_base(3), ("monoidal", "symmetric"))
    out += _mutated_bases("finset2", builtin_base("finset", k=2), ("category", "monoidal", "symmetric", "closed"))
    return out + _other_cases()


def pinned_text(name: str, check, args, description: str) -> str:
    payload = {"case": name, "input": description, "report": check(*args).to_json()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(out: Path = OUT) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, check, args, description in cases():
        (out / f"{name}.json").write_text(pinned_text(name, check, args, description), encoding="utf-8")
    print(f"wrote {len(cases())} reports to {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
