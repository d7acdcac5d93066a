#!/usr/bin/env python3
"""Write a dense `extend` scenario: a constant bivector on R^N whose upper entries
are DIGITS-digit integers, and a subspace c spanned by 3 rows of such integers.

Usage:

    PYTHONPATH=src python3 scripts/dense_linear_scenario.py N DIGITS [SEED] > dense.json
    PYTHONPATH=src python3 -m poisdirac.cli extend --scenario dense.json

Every entry is a random integer of exactly DIGITS digits and a random sign,
drawn from SEED, so every elimination of the extension runs on big entries.
Exact results grow with the input: past about 300 digits at N = 12 they
outgrow what Python prints, and the run exits 2.  README quotes timings of
these scenarios.
"""

import json
import random
import sys

C_ROWS = 3


def dense_scenario(n: int, digits: int, seed: int) -> dict:
    rng = random.Random(seed)

    def entry() -> str:
        return str(rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits))

    bivector = [{"i": i + 1, "j": j + 1, "poly": entry()} for i in range(n) for j in range(i + 1, n)]
    return {
        "name": f"dense_linear_{n}_{digits}",
        "ambient": {"dim": n, "bivector": bivector},
        "point": ["0"] * n,
        "subspace_c": [[entry() for _ in range(n)] for _ in range(C_ROWS)],
    }


if __name__ == "__main__":
    n, digits = int(sys.argv[1]), int(sys.argv[2])
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    json.dump(dense_scenario(n, digits, seed), sys.stdout, indent=1)
    sys.stdout.write("\n")
