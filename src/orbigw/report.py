"""
Tiny pass/fail report container shared by the verification entry points, and canonical JSON.

:meth:`Report.zero` is the one zero check of the identity batteries: a residual
series passes when it has no known nonzero coefficient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def canonical_json(obj) -> str:
    """Sorted keys and no spaces: the byte-stable form of every JSON output."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)

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
