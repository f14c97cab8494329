"""Benchmark of the ecat workbench: time to a checked verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory. Each run is one process, one thread and one
client in a closed loop; every verdict is compared with a known answer from
``oracles.py`` or from the theory, and any mismatch or unexpected exception
fails the run (exit code 1). The last line of standard output is one JSON
object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of ``layers.py``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = {
    "coherence-computed": "coherence",
    "enrichment-verdicts": "enrichment",
    "yoneda-presheaf": "yoneda",
    "corpus-io": "corpus",
}
SETUP_REPEATS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_s(module_name: str) -> float:
    """Process start to the workload's modules imported, in a fresh
    interpreter: what every invocation pays before its first input."""
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import {module_name}"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def _setup(module, seed: int) -> tuple[list, float, float]:
    """Start a fresh interpreter to the imports, then build the inputs from
    the seed; SETUP_REPEATS times, with reference samples before each.
    Return the last inputs, the median set-up time and the host's slowdown
    at the median of the samples, which pairs with the median repeat."""
    from harness import SpeedProbe

    probe = SpeedProbe()
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample(10)
        import_s = _import_s(module.__name__)
        t0 = time.perf_counter()
        ops = module.setup(random.Random(seed))
        times.append(import_s + time.perf_counter() - t0)
    return ops, statistics.median(times), probe.slowdown(1)


def _untraced(args, ops, gate, setup_s: float, setup_slowdown: float) -> dict:
    from harness import measure, tail

    res = measure(ops, args.seconds, gate)
    slow = res["slowdown"]
    best = [t / slow for t in res["op_best"]]
    tail_s, tail_label = tail(best)
    print(f"passes {res['passes']}, operations per pass {len(ops)}, "
          f"median pass wall {statistics.median(res['pass_walls']):.4f} s as measured, "
          f"host slowdown {slow:.4f} from {res['probes']} probes, set-up {setup_s:.4f} s as "
          f"measured at slowdown {setup_slowdown:.4f}")
    print(f"verdict_tail_ms is the {tail_label} best operation times")
    return {
        "setup_s": (setup_s / setup_slowdown, "s"),
        "wall_s": (sum(best), "s"),
        "verdict_p50_ms": (1e3 * statistics.median(best), "ms"),
        "verdict_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _traced(args, module, ops, gate) -> dict:
    from layers import LAYERS
    from tracing import Tracer

    tracer = Tracer()
    measured, shares = module.trace(ops, tracer, gate)
    unknown = set(measured) - {name for name, _, _ in LAYERS}
    if unknown:
        raise KeyError(f"layer metrics missing from layers.py: {sorted(unknown)}")
    total = sum(shares.values())
    print(f"share of traced time on {args.workload}:")
    for name, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {seconds / total:6.1%}  {name}")
    out = {}
    for name, unit, moves in LAYERS:
        out[name] = (measured.get(name, 0), unit)
        if name in measured:
            print(f"layer {name} = {measured[name]:.6g} {unit}  (moves {moves})")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    # a terminated run still removes what it wrote (corpus-io's exports)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ecat" / "__init__.py").is_file():
        print(f"error: no ecat package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(WORKLOADS[args.workload])

    from harness import Gate

    try:
        ops, setup_s, setup_slowdown = _setup(module, args.seed)
        gate = Gate()
        if args.trace:
            metrics = _traced(args, module, ops, gate)
        else:
            metrics = _untraced(args, ops, gate, setup_s, setup_slowdown)
    finally:
        getattr(module, "close", lambda: None)()
    print(f"failed_share {gate.failed}/{gate.attempted}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
