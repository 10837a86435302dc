"""
Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

Runs the smallest verdict, ``verify_hae(3, 2)``, as a benchmark sample in a
fresh interpreter and requires the gate to pass it.  Then feeds the gate
tampered inputs and requires each to fail: a wrong pinned fingerprint, a
changed canonical output, a ``HaeReport`` with one check field removed, the
``identities-n5`` CLI report with one check removed, and a sample that raised.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
import orbigw  # noqa: E402
import orbigw.cli  # noqa: E402


def expect(label: str, reasons: list[str], should_fail: bool) -> bool:
    ok = bool(reasons) == should_fail
    verdict = "fails" if reasons else "passes"
    print(f"[{'ok' if ok else 'WRONG'}] {label}: gate {verdict}" + (f" ({reasons[0]})" if reasons else ""))
    return ok


def main() -> int:
    w = workloads.SELFTEST
    results = []

    runner = run.Runner(w, seed=0)
    record = runner.sample(traced=False)
    results.append(expect(f"{w.name} sample in a fresh interpreter", runner.failures, should_fail=False))

    report = orbigw.hae.verify_hae(w.n, w.g, "symplectic")
    good = report.to_json()
    facts = lambda j: {"hae": [workloads.hae_facts("symplectic", j, report.generator_audits)]}  # noqa: E731
    results.append(expect("in-process HaeReport", w.gate(facts(good)), should_fail=False))
    results.append(expect("same facts as the sample", [] if facts(good) == record.get("facts") else ["differ"], False))

    tampered_pin = dataclasses.replace(w, pinned_sha256={"symplectic": "0" * 64})
    results.append(expect("tampered pinned fingerprint", tampered_pin.gate(facts(good)), should_fail=True))
    changed = dict(good, lhs=good["lhs"][1:])
    results.append(expect("canonical output with one term dropped", w.gate(facts(changed)), should_fail=True))
    for key in ("status", "difference_monomials", "eval_residual_zero"):
        dropped = {k: v for k, v in good.items() if k != key}
        results.append(expect(f"HaeReport without {key!r}", w.gate(facts(dropped)), should_fail=True))
    results.append(expect("sample that raised", w.gate({"error": "RuntimeError: boom"}), should_fail=True))

    ident = workloads.WORKLOADS["identities-n5"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = orbigw.cli.main(list(ident.cli_args))
    payload = json.loads(out.getvalue())
    results.append(expect("identities-n5 CLI report", ident.gate({"cli": workloads.cli_facts(code, out.getvalue())}), False))
    payload["report"]["checks"].pop()
    fewer = json.dumps(payload)
    results.append(expect("identities-n5 with one check removed", ident.gate({"cli": workloads.cli_facts(code, fewer)}), True))

    print("self-test " + ("passed" if all(results) else "FAILED"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
