"""Structured check verdicts and the error hierarchy.

Every law checker returns a :class:`CheckReport` whose failures name the law,
the instance tuple it failed at, and (when meaningful) the two sides that were
compared. Reports are deterministic: failures are sorted lexicographically by
law name and flattened instance tuple, independent of scan order.
"""

from __future__ import annotations

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
    """Verdict of a law scan; ok iff failures is empty."""

    ok: bool
    failures: list[Failure] = field(default_factory=list)

    @classmethod
    def from_failures(cls, failures: list[Failure]) -> "CheckReport":
        ordered = sorted(failures, key=Failure.sort_key)
        return cls(ok=not ordered, failures=ordered)

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


class Collector:
    """Accumulates failures during a scan, with an optional early-exit limit."""

    def __init__(self, limit: int | None = None):
        self.failures: list[Failure] = []
        self.limit = limit

    def add(self, law: str, instance: tuple, lhs=None, rhs=None) -> None:
        self.failures.append(Failure(law, instance, lhs, rhs))

    def full(self) -> bool:
        return self.limit is not None and len(self.failures) >= self.limit

    def report(self) -> CheckReport:
        return CheckReport.from_failures(self.failures)
