"""Evidence records shared by the verification layers.

Checks never raise on mathematical failure; they return a CheckResult whose
counterexample bundle carries enough data to reproduce the failure.  Raising
is reserved for malformed inputs (StructureError) and internal systems
errors, which the suite drivers convert to failed results.
"""
from __future__ import annotations

from dataclasses import dataclass, field


class DescentError(Exception):
    """A map that must kill a relation span failed to; carries the witness."""


@dataclass(slots=True)
class CheckResult:
    name: str
    ok: bool
    details: dict = field(default_factory=dict)
    counterexample: dict | None = None

    def tagged(self, key, value) -> CheckResult:
        """A copy with `value` under `key` in its details; this record is left as it is."""
        return CheckResult(self.name, self.ok, {**self.details, key: value}, self.counterexample)

    def as_json(self):
        out = {"name": self.name, "status": "pass" if self.ok else "fail"}
        if self.details:
            out["details"] = self.details
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def all_ok(results) -> bool:
    return all(r.ok for r in results)


def passed(name, **details) -> CheckResult:
    return CheckResult(name, True, details)


def failed(name, counterexample=None, **details) -> CheckResult:
    return CheckResult(name, False, details, counterexample or {})
