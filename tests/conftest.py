from __future__ import annotations

import os
import random
from fractions import Fraction

import pytest

from orbigw.genus0 import GenusZeroData, ModelConfig
from orbigw.pmatrix import build_pmatrix
from orbigw.potentials import ContributionTables
from orbigw.ring import RingContext

SEED = int(os.environ.get("ORBIGW_TEST_SEED", "20240801"))


@pytest.fixture
def rng() -> random.Random:
    """Seeded RNG for every randomized property test (override via ORBIGW_TEST_SEED)."""
    return random.Random(SEED)


@pytest.fixture(scope="session")
def data3() -> GenusZeroData:
    return GenusZeroData.build(ModelConfig(3))


@pytest.fixture(scope="session")
def data4() -> GenusZeroData:
    return GenusZeroData.build(ModelConfig(4))


@pytest.fixture(scope="session")
def data5() -> GenusZeroData:
    return GenusZeroData.build(ModelConfig(5))


@pytest.fixture(scope="session")
def ctx3() -> RingContext:
    return RingContext(3)


@pytest.fixture(scope="session")
def ctx4() -> RingContext:
    return RingContext(4)


@pytest.fixture(scope="session")
def ctx5() -> RingContext:
    return RingContext(5)


@pytest.fixture(scope="session")
def tables3(data3) -> ContributionTables:
    pm = build_pmatrix(data3, k_max=4, policy="zero")
    return ContributionTables(pm)


@pytest.fixture(scope="session")
def pmatrix_at():
    """
    ``pmatrix_at(n, policy, k_max=5)``: the P-matrix data at depth k_max (5
    is enough for every tail of F_{2,1}, 6 for F_{2,2}), built once per
    session; custom constants are nonzero rationals drawn from the test seed,
    one per order, of which the policy reads the first ceil(k_max / 2) as
    its free constants, the same at every depth.
    """
    built: dict = {}

    def get(n: int, policy: str, k_max: int = 5):
        if (n, policy, k_max) not in built:
            custom = None
            if policy == "custom":
                r = random.Random(SEED + n)
                custom = [Fraction(r.choice((-1, 1)) * r.randint(1, 9), r.randint(1, 9)) for _ in range(k_max)]
            data = GenusZeroData.build(ModelConfig(n))
            built[(n, policy, k_max)] = build_pmatrix(data, k_max, policy, custom_constants=custom)
        return built[(n, policy, k_max)]

    return get
