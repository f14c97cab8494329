"""Proof that the known-answer gate can fail.

    python3 perfbench/selfcheck.py

Runs the enrichment-verdicts workload for one second through the normal
entry point, with the known answer of one operation flipped. The run must
count at least one failed operation, report ``correct: false`` and exit
non-zero; this script exits 0 only if all three hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import enrichment  # noqa: E402  (needs the source path above)


def main() -> int:
    honest_setup = enrichment.setup

    def setup_with_one_wrong_answer(rng):
        ops = honest_setup(rng)
        ops[0] = ops[0]._replace(expected=not ops[0].expected)
        return ops

    enrichment.setup = setup_with_one_wrong_answer
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "enrichment-verdicts", "--seed", "1", "--seconds", "1"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    caught = code != 0 and result["failed"] > 0 and result["correct"] is False
    print(f"exit code {code}, failed {result['failed']}/{result['attempted']}: "
          f"{'gate caught the wrong answer' if caught else 'GATE MISSED THE WRONG ANSWER'}")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
