"""
Workloads, seeded inputs and the correctness gate of the benchmark.

A workload is one verdict request.  ``call(orbigw, seed)`` makes the request
through the public API; ``facts`` reduces its result to what the gate judges:
statuses, residual flags and fingerprints of the canonical outputs.  Only the custom
integration constants are drawn from the seed; every other input is fixed.

The gate compares facts with pins taken at the commit that defined the
benchmark.  A pinned fingerprint is the sha256 of the canonical JSON (sorted
keys, no spaces) of ``HaeReport.to_json()``; a pinned check count is the number
of named ``Report`` checks that pass, so no change can get faster by dropping a
check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def custom_constants(seed: int, count: int) -> list[Fraction]:
    """Nonzero rationals of height at most 9, the only seeded program input."""
    rng = random.Random(seed)
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(count)]


def hae_facts(policy: str, report_json: dict, audits: list[dict]) -> dict:
    """What the gate needs from one ``HaeReport``: its flags and fingerprint."""
    return {
        "policy": policy,
        "status": report_json.get("status"),
        "difference_monomials": report_json.get("difference_monomials"),
        "eval_residual_zero": report_json.get("eval_residual_zero"),
        "audits_ok": bool(audits) and all(a["core_ok"] and a["prefactor_ok"] and a["vertex_ok"] for a in audits),
        "sha256": fingerprint(report_json),
    }


def cli_facts(exit_code: int, output: str) -> dict:
    """What the gate needs from a ``--format json`` CLI run: exit code and checks."""
    facts = {"exit_code": exit_code, "report_ok": False, "checks_passed": 0, "checks_total": 0}
    try:
        report = json.loads(output)["report"]
    except (ValueError, KeyError, TypeError):
        return facts
    checks = report.get("checks", [])
    facts["report_ok"] = report.get("ok") is True
    facts["checks_passed"] = sum(1 for c in checks if c.get("ok") is True)
    facts["checks_total"] = len(checks)
    return facts


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    g: int = 0
    policies: tuple[str, ...] = ("symplectic",)
    cli_args: tuple[str, ...] = ()
    # policy -> sha256 of the canonical HaeReport JSON at the pinned commit
    pinned_sha256: dict = field(default_factory=dict)
    pinned_checks: int | None = None

    @property
    def is_cli(self) -> bool:
        return bool(self.cli_args)

    def call(self, orbigw, seed: int):
        """Make the verdict request through the public API; this is what is timed."""
        if self.is_cli:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = orbigw.cli.main(list(self.cli_args))
            return code, out.getvalue()
        results = []
        for policy in self.policies:
            consts = custom_constants(seed, 3 * self.g - 2) if policy == "custom" else None
            results.append((policy, orbigw.hae.verify_hae(self.n, self.g, policy, custom_constants=consts)))
        return results

    def facts(self, result) -> dict:
        """The gate's input, from what ``call`` returned."""
        if self.is_cli:
            return {"cli": cli_facts(*result)}
        return {"hae": [hae_facts(p, r.to_json(), r.generator_audits) for p, r in result]}

    def gate(self, facts: dict) -> list[str]:
        """Every reason the sample fails; an empty list means it passes."""
        if "error" in facts:
            return [f"raised: {facts['error']}"]
        if self.is_cli:
            f = facts.get("cli") or {}
            bad = []
            if f.get("exit_code") != 0:
                bad.append(f"exit code {f.get('exit_code')}")
            if f.get("report_ok") is not True:
                bad.append("report not ok")
            if f.get("checks_passed") != f.get("checks_total"):
                bad.append(f"{f.get('checks_passed')}/{f.get('checks_total')} checks passed")
            if self.pinned_checks is not None and f.get("checks_passed") != self.pinned_checks:
                bad.append(f"{f.get('checks_passed')} checks passed, pinned {self.pinned_checks}")
            return bad
        reports = facts.get("hae") or []
        bad = []
        if [r.get("policy") for r in reports] != list(self.policies):
            bad.append(f"policies {[r.get('policy') for r in reports]}, expected {list(self.policies)}")
        for r in reports:
            pol = r.get("policy")
            if r.get("status") != "verified":
                bad.append(f"{pol}: status {r.get('status')!r}")
            if r.get("difference_monomials") != 0:
                bad.append(f"{pol}: difference_monomials {r.get('difference_monomials')!r}")
            if r.get("eval_residual_zero") is not True:
                bad.append(f"{pol}: eval_residual_zero {r.get('eval_residual_zero')!r}")
            if r.get("audits_ok") is not True:
                bad.append(f"{pol}: finite generation audit failed")
            pin = self.pinned_sha256.get(pol)
            if pin is not None and r.get("sha256") != pin:
                bad.append(f"{pol}: canonical output sha256 {r.get('sha256')} != pinned {pin}")
        return bad


# Each workload stresses a different module; BENCHMARK.json records why each
# was chosen.  The pins were taken at the commit that defined the benchmark.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "hae-n3-g3",
            n=3,
            g=3,
            pinned_sha256={"symplectic": "c8ff8d3bbdd6cfbe9f714c61208c61be303bffa2bc60d2fe94725c981468c6d8"},
        ),
        Workload(
            "hae-n5-g2",
            n=5,
            g=2,
            pinned_sha256={"symplectic": "586a5e82fd687909d6a50cae3c3bd5a1dda10fdbc98c62f456e67c34aec58ef0"},
        ),
        Workload(
            "hae-n4-policies",
            n=4,
            g=2,
            policies=("symplectic", "zero", "custom"),
            pinned_sha256={
                "symplectic": "31949cafd0ecc7778315f7b534b5d09b75b3dc007c97f3b8e0f4e1c3fc9045c6",
                "zero": "1764bba5e44a1aabdf51383ef0c4a88c8e4bdfbb932b0ffb1bbc951ab8082314",
            },
        ),
        Workload(
            "identities-n5",
            n=5,
            cli_args=("verify-identities", "--n", "5", "--k-max", "4", "--format", "json"),
            pinned_checks=192,
        ),
    ]
}

# The self-test's smallest verdict and the ROADMAP table columns that are not
# benchmark workloads (``bench/table.py``); not part of BENCHMARK.json.
SELFTEST = Workload(
    "hae-n3-g2",
    n=3,
    g=2,
    pinned_sha256={"symplectic": "e2b32992c99337394e8fcf7e43136beabeb48feccb2b18e5ca0da07dae952e9f"},
)
EXTRA = {
    w.name: w
    for w in [
        SELFTEST,
        Workload("hae-n4-g2", n=4, g=2, pinned_sha256={"symplectic": WORKLOADS["hae-n4-policies"].pinned_sha256["symplectic"]}),
        Workload("hae-n4-g3", n=4, g=3, pinned_sha256={"symplectic": "8e51e0f6f425e3a871186d8bed76034297a7843c78cf2a40c687ee36cc163631"}),
    ]
}


def get(name: str) -> Workload:
    """A benchmark workload, or one of ``EXTRA``."""
    try:
        return WORKLOADS.get(name) or EXTRA[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join([*WORKLOADS, *EXTRA])}") from None
