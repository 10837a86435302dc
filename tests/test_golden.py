"""Golden pins: the central exact objects (n = 3, zero policy) and the genus-3 verdict."""

import hashlib
import json
from pathlib import Path

from orbigw.genus0 import GenusZeroData, ModelConfig
from orbigw.hae import verify_hae
from orbigw.pmatrix import build_pmatrix
from orbigw.potentials import ContributionTables, assemble_F
from orbigw.report import canonical_json
from orbigw.ring import RingContext

GOLDEN = Path(__file__).parent / "golden" / "n3_zero.json"

# sha256 of the canonical JSON of verify_hae(3, 3).to_json(), symplectic policy
GENUS3_SHA256 = "c8ff8d3bbdd6cfbe9f714c61208c61be303bffa2bc60d2fe94725c981468c6d8"


def test_frozen_objects_unchanged():
    ctx = RingContext(3)
    data = GenusZeroData.build(ModelConfig(3))
    pm = build_pmatrix(ctx, data, 4, policy="zero")
    tables = ContributionTables(pm)
    F2 = assemble_F(tables, 2, ())
    payload = {
        "n": 3,
        "policy": "zero",
        "F2_core": F2.core.to_json(),
        "phis": [sorted((e, str(c)) for e, c in p.coeffs.items()) for p in pm.col.phis],
        "lifted_2_1_1": pm.lifted[(2, 1, 1)].to_json(),
    }
    want = json.loads(GOLDEN.read_text())
    assert json.loads(canonical_json(payload)) == want


def test_genus3_verdict_pinned():
    r = verify_hae(3, 3)
    assert r.verified
    assert hashlib.sha256(canonical_json(r.to_json()).encode()).hexdigest() == GENUS3_SHA256
