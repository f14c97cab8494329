"""Structured check verdicts and the error hierarchy.

Every law checker returns a :class:`CheckReport` whose failures name the law,
the instance tuple it failed at, and (when meaningful) the two sides that were
compared. Reports are deterministic: failures are sorted lexicographically by
law name and flattened instance tuple, independent of scan order.

A checker is a scan over a :class:`Collector`, wrapped by :func:`law_scan`.
The collector is the one place where a scan stops: given ``limit=k``, it ends
the scan once it holds k failures, so the report holds the first k failures in
scan order (``limit=None`` scans everything). It also counts, per law, the
instances a scan skips because an evaluation left a computed base's window;
the report carries the counts and prints nothing of them. A construction
that re-checks what it built refuses through :meth:`CheckReport.require`,
which raises :class:`StructuralError` naming the first failure.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field


class EcatError(Exception):
    """Base for all library errors."""


class StructuralError(EcatError):
    """A table is malformed (index out of range, shape mismatch).

    Distinct from a law failure: the data does not even have the shape the
    laws quantify over.
    """


class CapabilityError(EcatError):
    """A required optional structure (symmetry, closed data, choosers) is absent."""


class EnumerationCapExceeded(EcatError):
    """A search space exceeds the configured cap."""

    def __init__(self, message: str, bound: int):
        super().__init__(f"{message} (computed bound {bound})")
        self.bound = bound


class WindowExceeded(EcatError):
    """An evaluation needs a hom enumeration beyond the base's bounds.

    Coherence scans treat this as "instance outside the checkable window" and
    skip deterministically; construction-level checkers let it propagate.
    """


def _flat(value) -> tuple:
    """Flatten an instance element into a sortable tuple of ints/strings."""
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, int):
        return (0, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, tuple):
        out: list = [1]
        for v in value:
            out.extend(_flat(v))
        return tuple(out)
    return (3, repr(value))


def instance_key(instance: tuple) -> tuple:
    return tuple(_flat(v) for v in instance)


@dataclass(frozen=True)
class Failure:
    """One failed law instance."""

    law: str
    instance: tuple
    lhs: object = None
    rhs: object = None

    def sort_key(self):
        return (instance_key(self.instance), self.law)

    def describe(self) -> str:
        text = f"{self.law} at {self.instance}"
        if self.lhs is not None or self.rhs is not None:
            text += f": lhs={self.lhs} rhs={self.rhs}"
        return text


@dataclass
class CheckReport:
    """Verdict of a law scan; ok iff failures is empty. ``skipped`` counts,
    per law, the instances the scan skipped because an evaluation left the
    base's window (``WindowExceeded``); neither ``describe`` nor ``to_json``
    shows it."""

    ok: bool
    failures: list[Failure] = field(default_factory=list)
    skipped: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_failures(cls, failures: list[Failure], skipped: dict[str, int] | None = None) -> "CheckReport":
        ordered = sorted(failures, key=Failure.sort_key)
        return cls(ok=not ordered, failures=ordered, skipped=dict(skipped or {}))

    def require(self, what: str) -> None:
        """Refuse a failed re-check: raise StructuralError naming ``what`` and
        the first failure."""
        if not self.ok:
            raise StructuralError(f"{what}: {self.failures[0].describe()}")

    def describe(self) -> str:
        if self.ok:
            return "ok"
        lines = [f"{len(self.failures)} failure(s):"]
        lines.extend("  " + f.describe() for f in self.failures)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "failures": [
                {
                    "law": f.law,
                    "instance": _jsonable(f.instance),
                    "lhs": _jsonable(f.lhs),
                    "rhs": _jsonable(f.rhs),
                }
                for f in self.failures
            ],
        }


def _jsonable(value):
    if value is None or isinstance(value, (int, str, bool)):
        return value
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return repr(value)


class _ScanStop(Exception):
    """Raised by a Collector that holds its limit of failures. It names that
    collector, so only the scan that owns it catches it."""

    def __init__(self, collector: "Collector"):
        super().__init__()
        self.collector = collector


class Collector:
    """Accumulates the failures of one scan, and the instances it skips;
    ``add`` ends the scan once ``limit`` failures are held."""

    def __init__(self, limit: int | None = None):
        self.failures: list[Failure] = []
        self.skipped: dict[str, int] = {}
        self.limit = limit

    def add(self, law: str, instance: tuple, lhs=None, rhs=None) -> None:
        self.failures.append(Failure(law, instance, lhs, rhs))
        if self.limit is not None and len(self.failures) >= self.limit:
            raise _ScanStop(self)

    def skip(self, law: str, n: int = 1) -> None:
        """Count n instances of ``law`` skipped because an evaluation left the
        window. ``law`` names the law, or the group of laws one instance
        checks together (``tensor-decomp`` for both whisker decompositions)."""
        self.skipped[law] = self.skipped.get(law, 0) + n

    def include(self, prefix: str, report: CheckReport) -> None:
        """Add a nested check's failures and skips, each law renamed
        ``prefix/law``."""
        for law, n in report.skipped.items():
            self.skip(f"{prefix}/{law}", n)
        for f in report.failures:
            self.add(f"{prefix}/{f.law}", f.instance, f.lhs, f.rhs)

    def report(self) -> CheckReport:
        return CheckReport.from_failures(self.failures, self.skipped)


def law_scan(scan):
    """Turn ``scan(col, *args)`` into the checker ``(*args, limit=None) ->
    CheckReport``.

    The checker builds the Collector from ``limit``, runs the scan until it
    ends or the collector stops it, and returns the collector's report.
    """

    @functools.wraps(scan)
    def checker(*args, limit: int | None = None) -> CheckReport:
        col = Collector(limit=limit)
        try:
            scan(col, *args)
        except _ScanStop as stop:
            if stop.collector is not col:
                raise
        return col.report()

    params = [*inspect.signature(scan).parameters.values()][1:]
    limit = inspect.Parameter("limit", inspect.Parameter.KEYWORD_ONLY, default=None, annotation="int | None")
    checker.__signature__ = inspect.Signature([*params, limit], return_annotation="CheckReport")
    return checker
