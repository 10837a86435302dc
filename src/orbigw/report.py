"""
Tiny pass/fail report container shared by the verification entry points, and canonical JSON.

:meth:`Report.zero` is the one zero check of the identity batteries: a residual
series passes when it has no known nonzero coefficient.
"""

from __future__ import annotations

import json


def canonical_json(obj) -> str:
    """Sorted keys and no spaces: the byte-stable form of every JSON output."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Check:
    """One named pass or fail with its detail; immutable, equal and hashed by its fields."""

    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name} = {value!r}: a Check is immutable")

    def __eq__(self, other):
        if other.__class__ is not Check:
            return NotImplemented
        return (self.name, self.ok, self.detail) == (other.name, other.ok, other.detail)

    def __hash__(self):
        return hash((self.name, self.ok, self.detail))

    def __repr__(self) -> str:
        return f"Check(name={self.name!r}, ok={self.ok!r}, detail={self.detail!r})"

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}" + (f": {self.detail}" if self.detail else "")


class Report:
    __slots__ = ("title", "checks")

    def __init__(self, title: str, checks: list[Check] | None = None):
        self.title = title
        self.checks = [] if checks is None else checks

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), detail))
        return bool(ok)

    def zero(self, name: str, residual, through: bool = False) -> bool:
        """
        Pass when ``residual`` has no known nonzero coefficient.  A failure names
        its first bad x-power; a pass under ``through`` the order it covers.
        """
        d = residual.zero_order()
        if d is not None:
            return self.add(name, False, f"first bad x-power {d}")
        return self.add(name, True, f"zero through x^{int(residual.prec) - 1}" if through else "")

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def render(self) -> str:
        lines = [f"== {self.title} =="]
        lines += [c.line() for c in self.checks]
        lines.append(f"-- {sum(c.ok for c in self.checks)}/{len(self.checks)} passed")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks],
        }
