"""Golden pins: the central exact objects (n = 3, zero policy), the genus-3 verdict and CLI outputs."""

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from math import isinf
from pathlib import Path

import pytest

from orbigw.cli import main
from orbigw.cyclotomic import Cyclotomic
from orbigw.genus0 import GenusZeroData, ModelConfig
from orbigw.hae import verify_hae
from orbigw.pmatrix import build_pmatrix, entry_to_json
from orbigw.potentials import ContributionTables, assemble_F
from orbigw.report import Report, canonical_json

GOLDEN = Path(__file__).parent / "golden" / "n3_zero.json"

# sha256 of the canonical JSON of verify_hae(3, 3).to_json(), symplectic policy
GENUS3_SHA256 = "c8ff8d3bbdd6cfbe9f714c61208c61be303bffa2bc60d2fe94725c981468c6d8"


def test_frozen_objects_unchanged():
    data = GenusZeroData.build(ModelConfig(3))
    pm = build_pmatrix(data, 4, policy="zero")
    tables = ContributionTables(pm)
    F2 = assemble_F(tables, 2, ())
    payload = {
        "n": 3,
        "policy": "zero",
        "F2_core": F2.core.to_json(),
        "phis": [sorted((e, str(p.get(e))) for e in p.nums) for p in pm.col.phis],
        "lifted_2_1_1": entry_to_json(pm.lift_entry(2, 1, 1)),
    }
    want = json.loads(GOLDEN.read_text())
    assert json.loads(canonical_json(payload)) == want


def test_genus3_verdict_pinned():
    r = verify_hae(3, 3)
    assert r.verified
    assert hashlib.sha256(canonical_json(r.to_json()).encode()).hexdigest() == GENUS3_SHA256


# sha256 of the canonical JSON of {"k,i,j": entry_to_json(P~^k_{i,j})} for k <= 4 and every
# i, j, under the custom constants 1/(k+1), of which k_max 4 reads the free ones c_1 = 1 and
# c_3 = 1/2, and (coefficients, irrational ones) in those entries
CUSTOM_ENTRIES = {
    4: ("e0be99afb9c6f8d43a0f80d6fcf37e46eed99c81baec48caa884fff51c9dc37b", 488, 90),
    5: ("c0e953272e70675cc4c317c0ca655f0115c7035e87f3f6626b625d62291efb01", 1060, 444),
}


@pytest.mark.parametrize("n", sorted(CUSTOM_ENTRIES))
def test_custom_constant_entries_pinned(n):
    # the CLI runs only rational-entry policies; these entries carry Q(zeta_n) coefficients
    custom = [Fraction(1, k + 1) for k in range(4)]
    pm = build_pmatrix(GenusZeroData.build(ModelConfig(n)), 4, "custom", custom_constants=custom)
    entries = {f"{k},{i},{j}": pm.lift_entry(k, i, j) for k in range(5) for i in range(n) for j in range(n)}
    payload = {key: entry_to_json(entry) for key, entry in entries.items()}
    coeffs = [c for entry in entries.values() for c in entry.values()]
    want_sha, want_count, want_irrational = CUSTOM_ENTRIES[n]
    assert (len(coeffs), sum(isinstance(c, Cyclotomic) for c in coeffs)) == (want_count, want_irrational)
    assert hashlib.sha256(canonical_json(payload).encode()).hexdigest() == want_sha


# sha256 of the stdout (trailing newline included) of `orbigw <args> --format json`;
# the pmatrix runs emit every lifted entry and every per-column check
CLI_SHA256 = {
    "genus0 --n 3": (0, "c418f579d21c89538092aa84ac11b92646e74a265eec63aa193a8cd96c993193"),
    "genus0 --n 4": (0, "eb681a815cd663e301a72b072bc13efa647e5a27d79f25e8a74c02b0e77253e6"),
    # a truncation order N that is not a multiple of n
    "genus0 --n 7 --N 75": (0, "1248c3010626c76fc7bbba2442cb329aba570fe2b9084a5d1890829f345c3c0c"),
    "pmatrix --n 3 --k-max 5": (0, "5b2c77c90497650ec815af605b9d9d275e55b22a3788fe545cfc836fae57e046"),
    "pmatrix --n 4 --k-max 5": (0, "345d259a77f4f9f6495a914e0bf43e0f290e8b57e9f8db8711fd52f5766107c3"),
    "pmatrix --n 5 --k-max 4": (0, "3decd03cb740b3f8bd58cecb3a2c61d4f057432114ecdf3535832a805ab0757b"),
    "pmatrix --n 3 --k-max 4 --policy zero": (0, "b32f15ab4ed3e6fceff9bdae4fb2e82e4bb7bf669189460dde92226a2bf190cd"),
    # odd n at the depth a genus-3 verdict reads
    "verify-identities --n 3 --k-max 7": (0, "ec3808b46e89ef1918ac4a87d540d3cbdacc011359113647e6745f17f66be8c5"),
    "verify-identities --n 4 --k-max 4": (0, "72dd76b92a54947a3f53183f2faa4ee567bfbc6f9c3e891d9ed4ab72f1116ab5"),
    # 192 checks, all 52 semisimple-frame checks at n = 5 among them
    "verify-identities --n 5 --k-max 4": (0, "88fefca8ab444c70c7a9cfc12780c8dd1245e24ad483ef1180daa08c550940ef"),
    # F_{2,2} with equal and with distinct insertions, its legs placed on the (2, 0) graphs
    "potential --n 3 --g 2 --insertions 1,1": (0, "b5e649db75b5a4c19d44435a34c4e5d3782437bc875fe12fbd459ec38baf01dc"),
    "potential --n 4 --g 2 --insertions 1,2": (0, "7c1c2612255218f0330197bcf469e86b835f0c24ee22aa9370899ce644f8a8f4"),
    # exit 1 with 52 of 58 checks: the n >= 6 cycle closure fails at (4, 21) in every column
    "pmatrix --n 6 --k-max 4 --policy zero": (1, "d0c1a31ca84b6b745e05c27c5eea98613a1bb1c40a6fac6dff942d3e92ee624a"),
}


@pytest.mark.parametrize("args", sorted(CLI_SHA256))
def test_cli_output_pinned(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args.split() + ["--format", "json"])
    want_code, want_sha = CLI_SHA256[args]
    assert code == want_code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want_sha


# (count, sha256 of the canonical JSON) of [check name, zero order, prec] for every
# Report.zero call of `orbigw <args> --format json` (prec null when exact): the x-orders
# each zero check covers, so a rerouted division cannot shrink them unseen
ZERO_COVERAGE = {
    "genus0 --n 8": (190, "737a8c0f8e66efaabbd018105049ec2f3c69fcbc38d53ddf07470ef3bfc627ee"),
    "verify-identities --n 3 --k-max 7": (74, "921d31d3911844c92278fed98d0ae19d633d05d8c3882a73857047494720977f"),
    "verify-identities --n 4 --k-max 4": (96, "4c0d4dab36598eebe3587140a41490251651ddfe9bfa9d1a360175aac8bbdd1a"),
    "verify-identities --n 5 --k-max 4": (122, "027c1e494d6018a0f666ed760877d2ac80a97708effc54689fb175fb9832e684"),
}


@pytest.mark.parametrize("args", sorted(ZERO_COVERAGE))
def test_zero_check_coverage_pinned(args, monkeypatch):
    calls = []
    zero = Report.zero

    def recorded(self, name, residual, through=False):
        calls.append([name, residual.zero_order(), None if isinf(residual.prec) else int(residual.prec)])
        return zero(self, name, residual, through)

    monkeypatch.setattr(Report, "zero", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args.split() + ["--format", "json"]) == 0
    digest = hashlib.sha256(canonical_json(calls).encode()).hexdigest()
    assert (len(calls), digest) == ZERO_COVERAGE[args]
