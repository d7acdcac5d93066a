#!/usr/bin/env python3
"""Write a dense `jacobi` scenario: a bivector on R^N whose upper entries each hold every
monomial of degree at most D.

Usage:

    PYTHONPATH=src python3 scripts/dense_jacobi_scenario.py N D [SEED] > dense.json
    PYTHONPATH=src python3 -m poisdirac.cli jacobi --scenario dense.json

Every coefficient is a nonzero integer in [-9, 9] drawn from SEED, so all
N (N - 1) / 2 entries share all C(N + D, D) monomials, and for D >= 1 the
field is not Poisson: the run prints its nonzero Jacobiator components.
README quotes timings of these scenarios at the dimension bound.
"""

import json
import random
import sys
from itertools import combinations_with_replacement

from poisdirac.polynomials import Poly, ambient_variables

COEFFICIENTS = [c for c in range(-9, 10) if c]


def dense_scenario(n: int, degree: int, seed: int) -> dict:
    rng = random.Random(seed)
    x = ambient_variables(n)
    monomials = [
        tuple(factors.count(v) for v in range(n))
        for d in range(degree + 1) for factors in combinations_with_replacement(range(n), d)
    ]
    bivector = [
        {"i": i + 1, "j": j + 1, "poly": str(Poly.make(x, {m: rng.choice(COEFFICIENTS) for m in monomials}))}
        for i in range(n) for j in range(i + 1, n)
    ]
    return {"name": f"dense_jacobi_{n}_{degree}", "ambient": {"dim": n, "bivector": bivector}}


if __name__ == "__main__":
    n, degree = int(sys.argv[1]), int(sys.argv[2])
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    json.dump(dense_scenario(n, degree, seed), sys.stdout, indent=1)
    sys.stdout.write("\n")
