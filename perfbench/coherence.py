"""coherence-computed: law-family scans over the computed bases.

One operation builds a fresh computed base, as each ``ecat check`` of a
document over ``builtin(...)`` does, and scans one law family on it. Every
known answer is "ok": the builtin bases are lawful, which the acceptance
suite's mutation testing and the paper's constructions establish, and none
of this code decides it.
"""

from __future__ import annotations

from ecat.vbase import builtin_base, check_category, check_closed, check_monoidal, check_symmetric

from harness import Op
from tracing import CountingBase

FAMILIES = {
    "category": check_category,
    "monoidal": check_monoidal,
    "symmetric": check_symmetric,
    "closed": check_closed,
}
BASES = {
    "finset3": ("finset", {"k": 3}),
    "finset4": ("finset", {"k": 4}),
    "finposet2": ("finposet_struct", {"max_size": 2}),
    "finpointedposet2": ("finpointedposet_struct", {"max_size": 2}),
}
STRUCT_BASES = ("finposet2", "finpointedposet2")
# Scans of 2 s and more are left out of the timed pass: a 20 s run would hold
# only two or three repeats of them, too few for a steady best time. They run
# in the traced run only.
UNTIMED = {("closed", "finset3"), ("category", "finset4"), ("monoidal", "finset4"),
           ("symmetric", "finset4"), ("closed", "finset4")}
# finset(4)'s monoidal, symmetric and closed scans take 7-18 s each, so the
# traced run makes them once, through the counting proxy, and checks the
# report against the known answer instead of a second, unproxied scan.
UNPAIRED = {("monoidal", "finset4"), ("symmetric", "finset4"), ("closed", "finset4")}


def fresh_base(base: str):
    name, params = BASES[base]
    return builtin_base(name, **params)


def _applies(family: str, base: str) -> bool:
    V = fresh_base(base)
    return {"symmetric": V.symmetric, "closed": V.closed}.get(family, True)


def _scan(family: str, base: str, tracer, V=None):
    V = fresh_base(base) if V is None else V
    with tracer.span(f"vbase.{family}.{base}"):
        return FAMILIES[family](V)


def _verdict(report) -> tuple:
    return report.ok, tuple(report.failures)


def setup(rng) -> list[Op]:
    ops = []
    for base in BASES:
        for family in FAMILIES:
            if (family, base) in UNTIMED or not _applies(family, base):
                continue
            ops.append(Op(
                f"{family}/{base}",
                lambda tracer, f=family, b=base: _verdict(_scan(f, b, tracer)),
                (True, ()),
            ))
    rng.shuffle(ops)
    return ops


def trace(ops, tracer, gate) -> tuple[dict, dict]:
    """Pair every (family, base) scan with a scan of the same base behind the
    counting proxy. The reports must be identical; the proxy counts calls
    into the base and the WindowExceeded refusals the scan swallows."""
    metrics: dict[str, float] = {}
    plain_s = proxied_s = 0.0
    base_calls: dict[str, int] = {b: 0 for b in BASES}
    base_time: dict[str, float] = {b: 0.0 for b in BASES}
    struct_calls = {b: [0, 0] for b in STRUCT_BASES}  # attempted, returned
    for base in BASES:
        for family in FAMILIES:
            if not _applies(family, base):
                continue
            key = f"{family}.{base}"
            tracer.op(key)
            proxy = CountingBase(fresh_base(base))
            if (family, base) in UNPAIRED:
                gate.check(f"proxied {key}", _verdict(_scan(family, base, tracer, proxy)), (True, ()))
            else:
                plain = _scan(family, base, tracer)
                with tracer.span(f"proxy.{key}"):
                    proxied = FAMILIES[family](proxy)
                gate.check(f"plain {key}", _verdict(plain), (True, ()))
                gate.check(f"proxy identical {key}", _verdict(proxied), _verdict(plain))
                plain_s += tracer.total(f"vbase.{key}")
                proxied_s += tracer.total(f"proxy.{key}")
            seconds = tracer.total(f"vbase.{key}")
            metrics[f"vbase.{key}.s"] = seconds
            metrics[f"base.calls.{key}"] = proxy.attempted
            base_calls[base] += proxy.attempted
            base_time[base] += seconds
            if base in STRUCT_BASES:
                metrics[f"structures.window_exceeded.{key}"] = proxy.window_exceeded
                struct_calls[base][0] += proxy.attempted
                struct_calls[base][1] += proxy.attempted - proxy.window_exceeded
    for base in BASES:
        metrics[f"base.us_per_call.{base}"] = 1e6 * base_time[base] / max(base_calls[base], 1)
    for base, (attempted, returned) in struct_calls.items():
        metrics[f"structures.evaluated_ratio.{base}"] = returned / max(attempted, 1)
    metrics["trace.overhead_ratio"] = proxied_s / plain_s
    shares = {f"vbase scans of {base} ({BASES[base][0]})": base_time[base] for base in BASES}
    return metrics, shares
