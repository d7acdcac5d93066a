#!/usr/bin/env python3
"""Write a dense `embed` scenario of base dimension M and fiber dimension K.

Usage:

    PYTHONPATH=src python3 scripts/dense_embed_scenario.py M K [SEED] > dense.json
    PYTHONPATH=src python3 -m poisdirac.cli embed --scenario dense.json

The Dirac structure is the graph of a constant presymplectic form of rank
M - K (which must be even) whose kernel E is spanned by the last K
coordinate vectors.  Its M sections are mixed by a dense unipotent
polynomial matrix (a product of lower and upper unitriangular matrices
with linear entries), so the covector matrix of the embedding is dense and
its inverse is polynomial: the run extracts the bivector symbolically.
The V frame is the first M - K coordinate vectors.  The scenario checks
two samples of height 3.  README quotes timings of these scenarios at the
dimension bound.
"""

import json
import random
import sys

from poisdirac.polynomials import Poly, ambient_variables, sum_of_products


def dense_scenario(m: int, k: int, seed: int) -> dict:
    rng = random.Random(seed)
    x = ambient_variables(m)
    rank = m - k
    if rank % 2 or not 0 < k < m:
        raise SystemExit("need 0 < K < M with M - K even")
    omega = [[0] * m for _ in range(m)]
    for i in range(rank):
        for j in range(i + 1, rank):
            c = 1 if (i % 2 == 0 and j == i + 1) else rng.choice((0, 0, -2, -1, 1, 2))
            omega[i][j], omega[j][i] = c, -c
    zero, one = Poly.zero(x), Poly.constant(x, 1)

    def linear() -> Poly:
        return Poly.variable(x, rng.choice(x)).scale(rng.randint(1, 2)) if rng.random() < 0.6 else zero

    lower = [[one if i == j else linear() if i > j else zero for j in range(m)] for i in range(m)]
    upper = [[one if i == j else linear() if i < j else zero for j in range(m)] for i in range(m)]
    mix = [[sum_of_products(x, zip(lower[i], column)) for column in zip(*upper)] for i in range(m)]
    form = [[Poly.constant(x, c) for c in column] for column in zip(*omega)]
    sections = [
        {"X": [str(p) for p in row], "xi": [str(sum_of_products(x, zip(row, column))) for column in form]} for row in mix
    ]
    unit = [["1" if i == j else "0" for j in range(m)] for i in range(m)]
    return {
        "name": f"dense_{m}_{k}",
        "dirac_manifold": {"dim": m, "sections": sections, "E_frame": unit[rank:], "V_frame": unit[:rank]},
        "sample_grid": {"height": 3, "seed": 7, "count": 2},
    }


if __name__ == "__main__":
    m, k = int(sys.argv[1]), int(sys.argv[2])
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    json.dump(dense_scenario(m, k, seed), sys.stdout, indent=1)
    sys.stdout.write("\n")
