"""The command x golden-file matrix of the ``ecat`` CLI, and a dump of it.

Run from the repository root:

    python tests/cli_corpus.py OUTDIR

For every command form in ``FORMS``, every file of ``tests/golden`` and both
output formats this writes ``OUTDIR/<file>.<form>.<format>.out`` holding the
exit code, the standard output and the standard error. Each command is given
its file's path relative to the working directory, so dumps made from the
roots of two checkouts compare with ``diff -r``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

from ecat.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"
FILES = sorted(p.name for p in GOLDEN.glob("*.ecat"))

FORMS = {
    "check": ["check"],
    "construct-self": ["construct", "self"],
    "construct-opposite": ["construct", "opposite"],
    "construct-full-sub": ["construct", "full-sub", "--keep", "0"],
    "construct-functor-category": ["construct", "functor-category"],
    "factorize": ["factorize"],
    "equivalence": ["equivalence"],
    "rezk": ["rezk"],
    "yoneda-check": ["yoneda-check"],
    "precomp-check": ["precomp-check"],
    "kleisli-raw": ["kleisli"],
    "kleisli-univalent": ["kleisli", "--variant", "univalent"],
    "kleisli-ump": ["kleisli-ump"],
    "enum-functors": ["enum-functors"],
}

# the forms whose text output is a document followed by `#` comment lines
DOCUMENT_FORMS = {
    "construct-self", "construct-opposite", "construct-full-sub", "construct-functor-category",
    "factorize", "rezk", "kleisli-raw", "kleisli-univalent",
}

# cells the test leaves to the suites that already run them, so that it
# stays within a few seconds: the law scans of a computed or finite-set base
# (about 2 s each; the coherence and DSL suites), the two largest functor
# categories (the construction suite), and every form on the four 65 KB
# random cost(5) documents, which take 30 ms each just to load (the
# benchmark's corpus-io workload runs them)
SLOW = {("check", name) for name in FILES
        if name.startswith(("base_finset", "base_finposet", "base_finpointedposet", "set_"))}
SLOW |= {("construct-functor-category", name) for name in ("self_cost3.ecat", "bool_discrete3.ecat")}
SLOW |= {(form, name) for form in FORMS for name in FILES if name.startswith("cost_random")}

def run(form: str, name: str, fmt: str) -> tuple[int, str, str]:
    """Run one cell in-process; return its exit code, stdout and stderr."""
    path = os.path.relpath(GOLDEN / name)
    argv = (["--format", "json"] if fmt == "json" else []) + [*FORMS[form], path]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def main(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for name in FILES:
        for form in FORMS:
            for fmt in ("text", "json"):
                code, out, err = run(form, name, fmt)
                text = f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"
                (outdir / f"{name}.{form}.{fmt}.out").write_text(text, encoding="utf-8")
    print(f"wrote {len(FILES) * len(FORMS) * 2} outputs to {outdir}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/cli_corpus.py OUTDIR")
    main(Path(sys.argv[1]))
