"""The per-layer metrics of the traced run, each with its unit and the
end-to-end metric and workload it is expected to move.

Every traced run reports every metric here; a layer that the workload does
not exercise reads 0.
"""

from __future__ import annotations

FAMILIES = ("category", "monoidal", "symmetric", "closed")
COMPUTED = ("finset3", "finset4", "finposet2", "finpointedposet2")
STRUCT = ("finposet2", "finpointedposet2")
CLI = ("check", "check_json", "rezk", "kleisli", "kleisli-ump", "factorize", "equivalence", "construct")


def _layers():
    c, e, y, io = "coherence-computed", "enrichment-verdicts", "yoneda-presheaf", "corpus-io"
    def scan_moves(f, b):
        # the scans coherence-computed leaves out of its timed pass
        untimed = b == "finset4" or (f, b) == ("closed", "finset3")
        return "none (traced run only)" if untimed else f"wall_s on {c}"

    out = [(f"vbase.{f}.{b}.s", "s", scan_moves(f, b)) for b in COMPUTED for f in FAMILIES]
    out += [(f"vbase.{f}.table.s", "s", f"wall_s on {io}") for f in FAMILIES]
    out += [(f"base.calls.{f}.{b}", "count", scan_moves(f, b)) for b in COMPUTED for f in FAMILIES]
    out += [(f"base.us_per_call.{b}", "us", f"wall_s on {c}") for b in COMPUTED]
    out += [(f"structures.window_exceeded.{f}.{b}", "count", f"wall_s on {c}") for b in STRUCT for f in FAMILIES]
    out += [(f"structures.evaluated_ratio.{b}", "ratio", f"wall_s on {c}") for b in STRUCT]
    for kind in ("bool", "cost", "finset"):
        out.append((f"core.check_enrichment.{kind}.s", "s", f"verdict_p50_ms and wall_s on {e}"))
        out.append((f"core.check_enrichment.{kind}.calls", "count", f"verdict_p50_ms and wall_s on {e}"))
    out.append(("core.check_functor_enrichment.s", "s", f"verdict_p50_ms and wall_s on {e}"))
    out.append(("core.check_functor_enrichment.calls", "count", f"verdict_p50_ms and wall_s on {e}"))
    out.append(("report.failures", "count", f"verdict_tail_ms on {e}"))
    out.append(("report.fail_verdict_share", "ratio", f"verdict_tail_ms on {e}"))
    for name in ("rezk.yoneda.s", "factor.is_fully_faithful.s", "rezk.rezk_completion.s"):
        out.append((name, "s", f"wall_s on {y}"))
    for name in ("construct.functor_category.s", "core.enumerate_enriched_functors.s",
                 "core.enumerate_enriched_transformations.s"):
        out.append((name, "s", f"wall_s and peak_rss_mb on {y}"))
    for name in ("construct.functor_category.functors", "construct.functor_category.hom_pairs",
                 "construct.functor_category.transformations", "rezk.yoneda.hom_pairs_used"):
        out.append((name, "count", f"peak_rss_mb and wall_s on {y}"))
    out.append(("rezk.yoneda.useful_ratio", "ratio", f"peak_rss_mb and wall_s on {y}"))
    for name in ("dsl.parse.s", "dsl.serialize.s", "dsl.to_json.s", "dsl.from_json.s"):
        out.append((name, "s", f"wall_s on {io}"))
    out.append(("dsl.parse.bytes_per_s", "B/s", f"wall_s on {io}"))
    out += [(f"cli.{cmd}.s", "s", f"verdict_p50_ms on {io}") for cmd in CLI]
    out.append(("cli.check.json_text_ratio", "ratio", f"verdict_p50_ms on {io}"))
    for name in ("monad.fkleisli.s", "monad.univalent_kleisli.s", "monad.kleisli_universal_extend.s"):
        out.append((name, "s", f"wall_s on {io}"))
    out.append(("trace.overhead_ratio", "ratio", "none: the cost of tracing itself"))
    return out


LAYERS = _layers()
