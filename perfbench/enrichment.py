"""enrichment-verdicts: thousands of small enrichment and functor verdicts.

The population mixes Bool relations on 3-4 points, cost(5)/cost(6) distance
tables on 3-5 points, random finite categories enriched canonically over
finset(4), and object maps between random preorders. About half of the
relations, tables and maps break a law, so both the passing scan and the
failure report are exercised. One operation builds the enrichment (or
functor) from plain data, checks it, and renders the full report.
"""

from __future__ import annotations

import itertools

from ecat.construct import canonical_set_enrichment
from ecat.core import (
    EnrichedFunctor,
    bool_preorder_enrichment,
    check_enrichment,
    check_functor_enrichment,
    cost_space_enrichment,
)
from ecat.report import StructuralError
from ecat.vbase import FinCat, MorRef, bool_base, builtin_base, cost_base

import gen
import oracles
from harness import Op, one_pass

POPULATION = 1200
# shares of the population: bool relations, cost tables, finset(4) categories
# and the rest object maps
MIX = (0.3, 0.3, 0.2)
# share of lawful relations, tables and maps; with the finset(4) categories,
# which are all lawful, about half of all inputs pass
LAWFUL = 0.375


def _report(report, tracer) -> bool:
    """Render the report as ``ecat check`` does and count what it holds."""
    report.describe()
    tracer.count("report.failures", len(report.failures))
    tracer.count("report.verdicts")
    tracer.count("report.fail_verdicts", not report.ok)
    return report.ok


def _check(kind: str, E, tracer) -> bool:
    with tracer.span(f"core.check_enrichment.{kind}"):
        report = check_enrichment(E)
    return _report(report, tracer)


def _relation_op(boolb, rel: set, n: int):
    return lambda tracer: _check("bool", bool_preorder_enrichment(boolb, rel, n), tracer)


def _cost_op(base, d: dict, n: int):
    return lambda tracer: _check("cost", cost_space_enrichment(base, d, n), tracer)


def _finset_op(fs4, cat: tuple):
    n, hom_size, identity, then = cat

    def run(tracer):
        C = FinCat(
            n, hom_size,
            {x: MorRef(*m) for x, m in identity.items()},
            {(MorRef(*f), MorRef(*g)): MorRef(*h) for (f, g), h in then.items()},
        )
        return _check("finset", canonical_set_enrichment(C, fs4), tracer)

    return run


def _thin_functor(E1, E2, ob: tuple) -> EnrichedFunctor:
    """The only candidate data for an object map between thin enrichments.
    Where the map is not monotone the needed arrow does not exist; the entry
    then names the empty hom, which the checker must refuse."""
    ob_map = dict(enumerate(ob))
    mor_map = {f: MorRef(ob[f.src], ob[f.dst], 0) for f in E1.under.mors()}
    e_fun = {
        (x, y): MorRef(E1.hom(x, y), E2.hom(ob[x], ob[y]), 0)
        for x, y in itertools.product(E1.objects(), repeat=2)
    }
    return EnrichedFunctor(E1, E2, ob_map, mor_map, e_fun)


def _functor_op(boolb, rel1: set, n1: int, rel2: set, n2: int, ob: tuple):
    def run(tracer):
        F = _thin_functor(
            bool_preorder_enrichment(boolb, rel1, n1), bool_preorder_enrichment(boolb, rel2, n2), ob
        )
        tracer.count("core.check_functor_enrichment.calls")
        try:
            with tracer.span("core.check_functor_enrichment"):
                report = check_functor_enrichment(F)
        except StructuralError as exc:
            str(exc)  # the refusal ``ecat check`` would print
            tracer.count("report.verdicts")
            tracer.count("report.fail_verdicts")
            return False
        return _report(report, tracer)

    return run


def _unlawful(make, oracle):
    """Draw from ``make`` until the oracle rejects the draw."""
    while True:
        value = make()
        if not oracle(value):
            return value


def setup(rng) -> list[Op]:
    boolb, fs4 = bool_base(), builtin_base("finset", k=4)
    costs = {5: cost_base(5), 6: cost_base(6)}
    ops = []
    for i in range(POPULATION):
        roll = rng.random()
        lawful = rng.random() < LAWFUL
        if roll < MIX[0]:
            n = rng.randint(3, 4)
            rel = gen.random_preorder(rng, n) if lawful else _unlawful(
                lambda: gen.perturbed_relation(rng, n), lambda r: oracles.is_preorder(r, n))
            ops.append(Op(f"bool#{i}", _relation_op(boolb, rel, n), lawful))
        elif roll < MIX[0] + MIX[1]:
            top, n = rng.choice((5, 6)), rng.randint(3, 5)
            d = gen.random_cost_space(rng, top, n) if lawful else _unlawful(
                lambda: gen.perturbed_cost_table(rng, top, n), lambda t: oracles.is_cost_space(top, t, n))
            ops.append(Op(f"cost#{i}", _cost_op(costs[top], d, n), lawful))
        elif roll < sum(MIX):
            cat = gen.random_category(rng)
            ops.append(Op(f"finset#{i}", _finset_op(fs4, cat), True))  # lawful by construction
        else:
            n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
            maps = list(itertools.product(range(n2), repeat=n1))
            candidates = []
            while not candidates:  # a discrete domain or a total codomain allows no unlawful map
                rel1, rel2 = gen.random_preorder(rng, n1), gen.random_preorder(rng, n2)
                candidates = [m for m in maps if oracles.is_monotone(m, rel1, rel2) == lawful]
            ob = rng.choice(candidates)
            ops.append(Op(f"functor#{i}", _functor_op(boolb, rel1, n1, rel2, n2, ob), lawful))
    return ops


def trace(ops, tracer, gate) -> tuple[dict, dict]:
    plain, _ = one_pass(ops, gate)
    traced, _ = one_pass(ops, gate, tracer)
    metrics = {"trace.overhead_ratio": traced / plain}
    for kind in ("bool", "cost", "finset"):
        name = f"core.check_enrichment.{kind}"
        metrics[f"{name}.s"] = tracer.total(name)
        metrics[f"{name}.calls"] = tracer.calls(name)
    metrics["core.check_functor_enrichment.s"] = tracer.total("core.check_functor_enrichment")
    metrics["core.check_functor_enrichment.calls"] = tracer.counts["core.check_functor_enrichment.calls"]
    metrics["report.failures"] = tracer.counts["report.failures"]
    metrics["report.fail_verdict_share"] = tracer.counts["report.fail_verdicts"] / tracer.counts["report.verdicts"]
    shares = {name: tracer.total(name) for name in
              ("core.check_enrichment.bool", "core.check_enrichment.cost",
               "core.check_enrichment.finset", "core.check_functor_enrichment")}
    shares["construction and report (outside the checkers)"] = traced - sum(shares.values())
    return metrics, shares
