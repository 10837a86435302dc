"""
Span and counter recording for the traced run, from outside the program.

``Tracer.install()`` replaces public functions at the names their
callers look them up (for example ``orbigw.hae.assemble_F``) with wrappers
that record a span: name, start, end, parent span and run id.  Hot kernel
methods get wrappers that only count.  Spans stay in memory; the caller
writes them out when the run ends.  Nothing is restored: a traced sample runs
in its own interpreter.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

MODULES = ("genus0", "ring", "pmatrix", "graphs", "potentials", "hae", "cli", "cyclotomic", "series")

# span name -> [(module, attribute)], every place a caller looks the function up
SPANNED = {
    "genus0.build": [("genus0", "GenusZeroData.build")],
    "genus0.verify": [
        (mod, fn)
        for fn in ("verify_picard_fuchs", "verify_birkhoff", "verify_ring_series", "verify_quantum")
        for mod in ("genus0", "cli")
    ],
    "ring.context": [("ring", "RingContext.__init__")],
    "ring.certify": [("ring", "certify_rules"), ("cli", "certify_rules")],
    "ring.eval": [("ring", "RingEvaluator.eval")],
    "pmatrix.build": [("pmatrix", "build_pmatrix"), ("hae", "build_pmatrix"), ("cli", "build_pmatrix")],
    "pmatrix.column": [("pmatrix", "compute_P_column")],
    "pmatrix.unitarity": [("pmatrix", "unitarity_residual")],
    "pmatrix.series_tables": [("pmatrix", "series_tables")],
    "pmatrix.lift": [("pmatrix", "lift_tables")],
    "pmatrix.verify": [("pmatrix", "verify_pmatrix"), ("cli", "verify_pmatrix")],
    "graphs.enumerate": [("graphs", "enumerate_decorated"), ("potentials", "enumerate_decorated")],
    "potentials.assemble": [("potentials", "assemble_F"), ("hae", "assemble_F"), ("cli", "assemble_F")],
    "hae.verify": [("hae", "verify_hae")],
    "hae.audit": [("potentials", "audit_generators"), ("hae", "audit_generators"), ("cli", "audit_generators")],
    "cli.emit": [("cli", "_emit")],
}

# counter name -> (module, attribute); the wrapper counts calls and nothing else
COUNTED = {
    "cyclotomic.new_calls": ("cyclotomic", "Cyclotomic.__init__"),
    "cyclotomic.mul_calls": ("cyclotomic", "Cyclotomic.__mul__"),
    "series.mul_calls": ("series", "Series.__mul__"),
    "ring.mul_calls": ("ring", "RingElement.__mul__"),
    "ring.derive_calls": ("ring", "RingContext.derive"),
    "psi.integral_calls": ("potentials", "psi_integral"),
    "potentials.graph_calls": ("potentials", "graph_contribution"),
}

# Per-layer metrics that are inclusive span time in seconds, by span name.  A
# stage that a workload does not run reads 0 there.
SPAN_SECONDS = {
    "genus0.build_s": "genus0.build",
    "genus0.verify_s": "genus0.verify",
    "ring.context_s": "ring.context",
    "ring.certify_s": "ring.certify",
    "pmatrix.column_s": "pmatrix.column",
    "pmatrix.unitarity_s": "pmatrix.unitarity",
    "pmatrix.series_tables_s": "pmatrix.series_tables",
    "pmatrix.lift_s": "pmatrix.lift",
    "pmatrix.verify_s": "pmatrix.verify",
    "graphs.enumerate_s": "graphs.enumerate",
    "potentials.assemble_s": "potentials.assemble",
    "hae.audit_s": "hae.audit",
    "cli.emit_s": "cli.emit",
}
SPAN_CALLS = {
    "pmatrix.unitarity_calls": "pmatrix.unitarity",
    "pmatrix.series_tables_calls": "pmatrix.series_tables",
}


def _resolve(module, dotted: str):
    """The object holding ``dotted`` and the attribute name, or None if it is gone."""
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return (owner, attr) if owner is not None and hasattr(owner, attr) else None


def _enumerate_attrs(args, kwargs, result) -> dict:
    key = [a if isinstance(a, int) else repr(a) for a in (*args, *kwargs.values())]
    return {"key": key, "count": len(result)}


def _assemble_attrs(args, kwargs, result) -> dict:
    g = kwargs.get("g", args[1] if len(args) > 1 else None)
    insertions = kwargs.get("insertions", args[2] if len(args) > 2 else ())
    return {"g": g, "insertions": list(insertions), "core_monomials": result.core.monomial_count()}


ATTRS = {"graphs.enumerate": _enumerate_attrs, "potentials.assemble": _assemble_attrs}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # [id, name, start, end, parent id, attrs]; parent -1 is the root
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # instrumented names this version of the program lacks
        self._stack: list[int] = []

    def span(self, name: str, fn, attrs=None):
        """Run ``fn()`` inside a span; ``attrs(result)`` may annotate it."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        entry = [sid, name, 0.0, 0.0, parent, {}]
        self.spans.append(entry)
        self._stack.append(sid)
        entry[2] = time.perf_counter()
        try:
            result = fn()
        finally:
            entry[3] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            try:
                entry[5] = attrs(result)
            except (AttributeError, IndexError, TypeError):
                entry[5] = {"unreadable": True}  # the program changed shape; the span still counts
        return result

    def _spanning(self, name: str, orig):
        attrs = ATTRS.get(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.span(name, lambda: orig(*args, **kwargs), attrs and (lambda r: attrs(args, kwargs, r)))

        return wrapper

    def _counting(self, key: str, orig):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """
        Wrap every instrumented name.  A name the program no longer has is
        skipped and listed in ``missing``, so a refactored program still runs.
        """
        mods = {}
        for m in MODULES:
            try:
                mods[m] = importlib.import_module(f"orbigw.{m}")
            except ImportError:
                self.missing.append(f"orbigw.{m}")
        wrapped: dict[int, object] = {}
        for name, sites in SPANNED.items():
            for mod, dotted in sites:
                site = _resolve(mods[mod], dotted) if mod in mods else None
                if site is None:
                    self.missing.append(f"{mod}.{dotted}")
                    continue
                owner, attr = site
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                static = isinstance(raw, staticmethod)
                orig = raw.__func__ if static else raw
                # one wrapper per function, so a function imported into two modules nests no spans
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = self._spanning(name, orig)
                setattr(owner, attr, staticmethod(wrapped[id(orig)]) if static else wrapped[id(orig)])
        for key, (mod, dotted) in COUNTED.items():
            site = _resolve(mods[mod], dotted) if mod in mods else None
            if site is None:
                self.missing.append(f"{mod}.{dotted}")
                continue
            owner, attr = site
            setattr(owner, attr, self._counting(key, getattr(owner, attr)))

    # -- reduction ----------------------------------------------------------------

    def _covered(self, name: str):
        """Spans of ``name`` not nested inside another span of the same name."""
        names = {s[0]: s[1] for s in self.spans}
        parents = {s[0]: s[4] for s in self.spans}
        for s in self.spans:
            if s[1] != name:
                continue
            p = s[4]
            while p != -1 and names[p] != name:
                p = parents[p]
            if p == -1:
                yield s

    def total(self, name: str) -> float:
        return sum((s[3] - s[2] for s in self._covered(name)), 0.0)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = Counter()
        for s in self.spans:
            if s[4] != -1:
                child[s[4]] += s[3] - s[2]
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (s[3] - s[2]) - child[s[0]]
        for name, row in out.items():
            row["total_s"] = self.total(name)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced sample; times in raw seconds."""
        out: dict[str, float] = {k: self.total(v) for k, v in SPAN_SECONDS.items()}
        out.update({k: self.calls(v) for k, v in SPAN_CALLS.items()})
        out.update({k: self.counts[k] for k in COUNTED})
        names = {s[0]: s[1] for s in self.spans}
        out["hae.eval_s"] = sum(s[3] - s[2] for s in self.spans if s[1] == "ring.eval" and names.get(s[4]) == "hae.verify")
        seen = {}
        for s in self.spans:
            if s[1] == "graphs.enumerate" and "key" in s[5]:
                seen.setdefault(repr(s[5]["key"]), s[5]["count"])
        out["graphs.decorated_count"] = sum(seen.values())
        out["potentials.core_monomials"] = sum(
            s[5]["core_monomials"] for s in self.spans if s[1] == "potentials.assemble" and s[5].get("insertions") == []
        )
        return out

    def to_json(self) -> dict:
        return {
            "spans": [
                {"run": self.run_id, "id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                | ({"attrs": s[5]} if s[5] else {})
                for s in self.spans
            ],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
