#!/usr/bin/env python3
"""Write a dense `pushforward` scenario: a Poisson bivector on R^N whose upper entries each
hold every monomial of degree at most D, and a polynomial shear pair to push it along.

Usage:

    PYTHONPATH=src python3 scripts/dense_push_scenario.py N D [SEED] > dense.json
    PYTHONPATH=src python3 -m poisdirac.cli pushforward --scenario dense.json

The bivector is f u ^ v: f holds all C(N + D, D) monomials of degree at most D with
nonzero integer coefficients in [-9, 9] drawn from SEED, u = (1, ..., 1) and v is a
shuffle of 1..N, so entry (i, j) is (v_j - v_i) f and none is zero.  It is Poisson for
every f, as u and v are constant.  The map shears the first N - 2 coordinates along the
last two, x_i -> x_i + a_i x_(N-1) x_N + b_i x_N^2, and map_inverse subtracts the same
shears, so the run composes every pushed entry with powers of those binomials, and
checks both the given and the pushed field for the Jacobi identity.  N is at least 3.
README quotes timings of these scenarios.
"""

import json
import random
import sys
from itertools import combinations_with_replacement

from poisdirac.polynomials import Poly, ambient_variables

COEFFICIENTS = [c for c in range(-9, 10) if c]
SHEARS = [c for c in range(-3, 4) if c]


def dense_scenario(n: int, degree: int, seed: int) -> dict:
    if n < 3:
        raise SystemExit("need N >= 3")
    rng = random.Random(seed)
    x = ambient_variables(n)
    monomials = [
        tuple(factors.count(v) for v in range(n))
        for d in range(degree + 1) for factors in combinations_with_replacement(range(n), d)
    ]
    f = Poly.make(x, {m: rng.choice(COEFFICIENTS) for m in monomials})
    v = rng.sample(range(1, n + 1), n)
    bivector = [{"i": i + 1, "j": j + 1, "poly": str(f.scale(v[j] - v[i]))} for i in range(n) for j in range(i + 1, n)]
    last_two, last = Poly.make(x, {(0,) * (n - 2) + (1, 1): 1}), Poly.make(x, {(0,) * (n - 1) + (2,): 1})
    shears = [last_two.scale(rng.choice(SHEARS)) + last.scale(rng.choice(SHEARS)) for _ in range(n - 2)]
    coordinates = [Poly.variable(x, xi) for xi in x]
    return {
        "name": f"dense_push_{n}_{degree}",
        "ambient": {"dim": n, "bivector": bivector},
        "map": [str(xi + s) for xi, s in zip(coordinates, shears)] + list(x[-2:]),
        "map_inverse": [str(xi - s) for xi, s in zip(coordinates, shears)] + list(x[-2:]),
    }


if __name__ == "__main__":
    n, degree = int(sys.argv[1]), int(sys.argv[2])
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    json.dump(dense_scenario(n, degree, seed), sys.stdout, indent=1)
    sys.stdout.write("\n")
