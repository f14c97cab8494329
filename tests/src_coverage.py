"""Lines of ``src/ecat`` that the test suite never executes.

Run from the repository root:

    PYTHONPATH=src python tests/src_coverage.py [PYTEST_ARGS...]

This runs the suite (or the pytest arguments given) in this process under
``sys.settrace``, tracing only the frames of ``src/ecat``, then prints, for
each module, the executable lines that never ran as compact ranges. A line is
executable when the compiler maps some instruction to it. The tracer slows
the suite several times over, so this is not part of the suite; run it after
a change that adds or removes a code path, to find handlers no test reaches
and code nothing calls.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ecat"


def executable_lines(path: Path) -> set[int]:
    """The lines some instruction of the module's code objects maps to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs, such as "3-5, 9"."""
    out = []
    for _, run in itertools.groupby(enumerate(sorted(lines)), lambda p: p[1] - p[0]):
        run = [n for _, n in run]
        out.append(f"{run[0]}-{run[-1]}" if len(run) > 1 else str(run[0]))
    return ", ".join(out)


def main(argv: list[str]) -> int:
    import pytest

    # each code file name, as imported, to its lines run, or None outside SRC
    seen: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in seen:
            seen[filename] = set() if Path(filename).resolve().parent == SRC else None
        if seen[filename] is None:
            return None
        seen[filename].add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    run: dict[Path, set[int]] = {}
    for filename, lines in seen.items():
        if lines is not None:
            run.setdefault(Path(filename).resolve(), set()).update(lines)
    for path in sorted(SRC.glob("*.py")):
        missed = executable_lines(path) - run.get(path, set())
        print(f"{path.relative_to(SRC.parent.parent)}: {len(missed)} never executed"
              + (f": {ranges(missed)}" if missed else ""))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
