"""yoneda-presheaf: the Yoneda embedding and Rezk completion.

One operation builds the enrichment from its table, checks that its Yoneda
embedding is fully faithful and runs the Rezk completion with both
weak-equivalence certificates. The inputs are every Bool preorder on at most
3 points, every 2-point cost(3) space, self(cost(3)), and a seeded draw of
lawful 3-point cost(3) spaces: one space for each presheaf count in
DRAW_PRESHEAVES, so that seeds vary the spaces but not the size of the
functor category Yoneda builds for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from ecat.construct import functor_category_enrichment, opposite_enrichment, self_enrichment
from ecat.core import (
    bool_preorder_enrichment,
    cost_space_enrichment,
    enumerate_enriched_functors,
    enumerate_enriched_transformations,
)
from ecat.factor import is_fully_faithful
from ecat.rezk import check_yoneda_ff, representable, rezk_completion, yoneda
from ecat.vbase import bool_base, cost_base

import gen
import oracles
from harness import Op, one_pass

TOP = 3
# Presheaf counts of the drawn 3-point spaces, shared by 27 to 36 of the
# 5533 lawful 3-point cost(3) spaces. A check at these counts takes 0.3-0.5 s
# at this commit: longer than every 2-point space, so a draw never moves the
# 2-point spaces' ranks that the tail percentile reads, and short enough for
# several passes per run. Lawful spaces have 5 to 125 presheaves; from about
# 60 on one check takes over 5 s.
DRAW_PRESHEAVES = (23, 24, 25)


def _verdict(E, tracer) -> tuple:
    """(fully faithful, completion object count, both certificates)."""
    if tracer.enabled:
        with tracer.span("rezk.yoneda"):
            res = yoneda(E)
        with tracer.span("factor.is_fully_faithful"):
            ff = is_fully_faithful(res.embedding).ok
    else:
        ff = check_yoneda_ff(E).ok
    with tracer.span("rezk.rezk_completion"):
        rc = rezk_completion(E)
    return ff, rc.completion.n_objects, rc.cert_ff.ok and rc.cert_eso.ok


@dataclass
class Check:
    """The operation on one input: the enrichment is built from plain data
    inside the timed call. ``presheaves`` is the oracle's count of the
    functors the Yoneda embedding's functor category must have."""

    build: Callable
    presheaves: int

    def __call__(self, tracer) -> tuple:
        return _verdict(self.build(), tracer)


def _bool_input(boolb, rel: set, n: int):
    known = (True, oracles.iso_classes(n, lambda x, y: (x, y) in rel), True)
    return (lambda: bool_preorder_enrichment(boolb, rel, n)), known, oracles.bool_presheaf_count(rel, n)


def _cost_input(cost, d: dict, n: int):
    known = (True, oracles.iso_classes(n, lambda x, y: d[(x, y)] == 0), True)
    return (lambda: cost_space_enrichment(cost, d, n)), known, oracles.cost_presheaf_count(TOP, d, n)


def _lawful_spaces(n: int) -> list[dict]:
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for values in itertools.product(range(TOP + 2), repeat=len(pairs)):
        d = {(x, x): 0 for x in range(n)}
        d.update(zip(pairs, values))
        if oracles.is_cost_space(TOP, d, n):
            out.append(d)
    return out


def _draw_spaces(rng, n: int, counts: tuple, screened: int = 3000) -> list[dict]:
    """One uniform draw among the lawful n-point spaces for each presheaf
    count. A fixed number of uniform tables is screened first, so that the
    set-up work does not depend on the seed; a count without a hit among
    them is then drawn for by rejection."""
    found: dict[int, list] = {k: [] for k in counts}

    def screen() -> None:
        d = {(x, y): 0 if x == y else rng.randint(0, TOP + 1) for x in range(n) for y in range(n)}
        if oracles.is_cost_space(TOP, d, n):
            found.get(oracles.cost_presheaf_count(TOP, d, n), []).append(d)

    for _ in range(screened):
        screen()
    while not all(found.values()):
        screen()
    return [rng.choice(found[k]) for k in counts]


def inputs(rng) -> list[tuple]:
    """(label, build, known answer, presheaf count) for the population."""
    boolb, cost = bool_base(), cost_base(TOP)
    out = []
    for n in range(4):
        for i, rel in enumerate(gen.all_preorders(n)):
            out.append((f"bool{n}#{i}", *_bool_input(boolb, rel, n)))
    for i, d in enumerate(_lawful_spaces(2)):
        out.append((f"cost2#{i}", *_cost_input(cost, d, 2)))
    # self(cost(3)): points are the base objects, distances its hom objects
    n_self = TOP + 2
    d_self = {(a, b): oracles.cost_hom(TOP, a, b) for a in range(n_self) for b in range(n_self)}
    out.append(("self-cost3", lambda: self_enrichment(cost), (True, n_self, True),
                oracles.cost_presheaf_count(TOP, d_self, n_self)))
    for k, d in zip(DRAW_PRESHEAVES, _draw_spaces(rng, 3, DRAW_PRESHEAVES)):
        out.append((f"cost3-p{k}", *_cost_input(cost, d, 3)))
    return out


def setup(rng) -> list[Op]:
    ops = [Op(label, Check(build, presheaves), known) for label, build, known, presheaves in inputs(rng)]
    rng.shuffle(ops)
    return ops


def trace(ops, tracer, gate) -> tuple[dict, dict]:
    plain, _ = one_pass(ops, gate)
    traced, _ = one_pass(ops, gate, tracer)
    metrics = {"trace.overhead_ratio": traced / plain}
    functors = pairs = transformations = used = 0
    # the functor category and its enumerations, called directly on the
    # inputs of the pass; the functor count is gated against the presheaf
    # count computed from the table
    for label, check, _ in ops:
        tracer.op(label)
        E = check.build()
        opE, selfE = opposite_enrichment(E), self_enrichment(E.base)
        with tracer.span("construct.functor_category"):
            fc = functor_category_enrichment(opE, selfE)
        with tracer.span("core.enumerate_enriched_functors"):
            funs = enumerate_enriched_functors(opE, selfE)
        with tracer.span("core.enumerate_enriched_transformations"):
            for F, G in itertools.product(funs, repeat=2):
                enumerate_enriched_transformations(F, G)
        gate.check(f"presheaf count {label}", len(fc.functors), check.presheaves)
        functors += len(fc.functors)
        pairs += len(fc.transformations)
        transformations += sum(len(ts) for ts in fc.transformations.values())
        # the embedding needs the homs between representables only
        reps = {fc.functor_index(representable(E, y, selfE, opE)) for y in E.objects()}
        used += len(reps) ** 2
    metrics.update({
        "rezk.yoneda.s": tracer.total("rezk.yoneda"),
        "factor.is_fully_faithful.s": tracer.total("factor.is_fully_faithful"),
        "rezk.rezk_completion.s": tracer.total("rezk.rezk_completion"),
        "construct.functor_category.s": tracer.total("construct.functor_category"),
        "core.enumerate_enriched_functors.s": tracer.total("core.enumerate_enriched_functors"),
        "core.enumerate_enriched_transformations.s": tracer.total("core.enumerate_enriched_transformations"),
        "construct.functor_category.functors": functors,
        "construct.functor_category.hom_pairs": pairs,
        "construct.functor_category.transformations": transformations,
        "rezk.yoneda.hom_pairs_used": used,
        "rezk.yoneda.useful_ratio": used / pairs,
    })
    # rezk.yoneda builds the functor category inside; its share of the
    # embedding comes from the separate call on the same inputs
    fc_share = metrics["construct.functor_category.s"] / metrics["rezk.yoneda.s"]
    shares = {
        f"rezk.yoneda ({fc_share:.0%} of it construct.functor_category, timed alone)":
            metrics["rezk.yoneda.s"],
        "factor.is_fully_faithful": metrics["factor.is_fully_faithful.s"],
        "rezk.rezk_completion": metrics["rezk.rezk_completion.s"],
    }
    return metrics, shares
