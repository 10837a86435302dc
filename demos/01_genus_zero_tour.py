#!/usr/bin/env python3
"""
A tour of the genus zero data.

Builds the exact series for a small model, prints the leading coefficients
of the main characters, and runs the identity battery: the rank-n
differential equation in three equivalent forms, the agreement of the two
normalization-factor constructions, the product and palindrome identities,
and the semisimple frame (idempotents, pairing, transition matrix).
"""

from orbigw import ModelConfig, GenusZeroData
from orbigw.genus0 import (
    verify_birkhoff,
    verify_picard_fuchs,
    verify_quantum,
    verify_ring_series,
)


def leading(series, count=4):
    exponents = sorted(series.nums)[:count]
    return " + ".join(f"({series.get(e)}) x^{e}" for e in exponents) or "0"


def main():
    n = 3
    cfg = ModelConfig(n)  # truncation order defaults to 10n
    print(f"model: cyclic quotient of order n={n}, truncation N={cfg.N}\n")

    data = GenusZeroData.build(cfg)

    print("the mirror coordinate Theta = I_1:")
    print("   ", leading(data.Theta))
    print("the distinguished series L:")
    print("   ", leading(data.L))
    print("normalization factors:")
    for i in range(n + 1):
        print(f"    C_{i} =", leading(data.C[i], 3))
    print("ring generators A_i:")
    for i in range(n + 1):
        print(f"    A_{i} =", leading(data.A[i], 3))
    print()

    for rep in (
        verify_picard_fuchs(data),
        verify_birkhoff(data),
        verify_ring_series(data),
        verify_quantum(data),
    ):
        print(rep.render())
        print()


if __name__ == "__main__":
    main()
