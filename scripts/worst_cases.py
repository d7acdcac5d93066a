#!/usr/bin/env python3
"""Time every command on its worst known input, or write one of those inputs.

Usage:

    python3 scripts/worst_cases.py                      # time every case, print the table
    python3 scripts/worst_cases.py COMMAND A B [SEED] > dense.json

CASES lists the dense scenarios that the four writers below, each named
after the command it feeds, write at seed 1, and `classify` and `bracket` at
the largest grid height and sample count.  With no argument, each case runs
once as `COMMAND --scenario ... --porcelain` in a child of its own (see
CHILD), and the script prints one markdown row per case: command, input,
exit code, wall time, peak RSS, and the sha256 prefix of the child's stdout,
or its diagnostic when it printed nothing.  That takes minutes, so the test
suite pins only the writers' output.  With COMMAND A B [SEED] (seed 1 by
default), the writer of that name prints its scenario as JSON.
"""

import hashlib
import json
import os
import platform
import random
import sys
import tempfile
import time
from itertools import combinations_with_replacement
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if __name__ == "__main__":  # the writers, like the timed children, use this checkout's package
    sys.path.insert(0, str(SRC))

from poisdirac.polynomials import Poly, ambient_variables, sum_of_products  # noqa: E402
from poisdirac.scenario import MAX_GRID_HEIGHT, MAX_SAMPLE_COUNT  # noqa: E402

COEFFICIENTS = [c for c in range(-9, 10) if c]
SHEARS = [c for c in range(-3, 4) if c]
ADDRESS_SPACE = 2_500_000_000  # bytes, the cap each timed child sets on itself
SAMPLED = ("--grid", str(MAX_GRID_HEIGHT), "--count", str(MAX_SAMPLE_COUNT))

# Each case is a command and its input: a writer's A B at seed 1, or a bundled scenario and
# further flags.  The writer rows are README's dense rows, in the order of its table.
CASES = (
    ("embed", 6, 4), ("embed", 8, 2), ("embed", 8, 4), ("embed", 10, 2),
    ("jacobi", 8, 2), ("jacobi", 12, 2), ("jacobi", 12, 3),
    ("pushforward", 6, 3), ("pushforward", 8, 2), ("pushforward", 6, 4), ("pushforward", 12, 2),
    ("extend", 12, 50), ("extend", 12, 300), ("extend", 12, 990),
    ("classify", "ex_graph4.json", *SAMPLED),
    ("bracket", "bracket_sympl4.json", *SAMPLED),
)

# A timed child, `-c CHILD STATUS_FILE ARGS...`: it caps its own address space, runs
# `cli.main(ARGS)` of this checkout and copies its /proc status, whose VmHWM is its own peak
# RSS, to STATUS_FILE.  os.wait4's ru_maxrss would also count the spawning process's peak.
CHILD = (
    "import resource, sys\n"
    f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))\n"
    f"sys.path.insert(0, {str(SRC)!r})\n"
    "from poisdirac.cli import main\n"
    "try:\n"
    "    sys.exit(main(sys.argv[2:]))\n"
    "finally:\n"
    "    open(sys.argv[1], 'w').write(open('/proc/self/status').read())\n"
)


def embed(m: int, k: int, seed: int = 1) -> dict:
    """The graph of a constant presymplectic form on R^M of rank M - K (even), whose kernel E
    is the last K coordinate vectors and V the first M - K.  Its M sections are mixed by a
    dense unipotent matrix with linear entries, so the covector matrix of the embedding is
    dense and its inverse polynomial.  Two samples of height 3."""
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


def _dense_poly(rng: random.Random, n: int, degree: int) -> Poly:
    """Every monomial in x1..xN of degree at most D, each with a nonzero coefficient in [-9, 9]."""
    x = ambient_variables(n)
    monomials = [
        tuple(factors.count(v) for v in range(n))
        for d in range(degree + 1) for factors in combinations_with_replacement(range(n), d)
    ]
    return Poly.make(x, {e: rng.choice(COEFFICIENTS) for e in monomials})


def jacobi(n: int, degree: int, seed: int = 1) -> dict:
    """A bivector on R^N each of whose N (N - 1) / 2 upper entries holds all C(N + D, D)
    monomials of degree at most D, with its own coefficients.  For D >= 1 the field is not
    Poisson: the run prints its nonzero Jacobiator components."""
    rng = random.Random(seed)
    bivector = [{"i": i + 1, "j": j + 1, "poly": str(_dense_poly(rng, n, degree))} for i in range(n) for j in range(i + 1, n)]
    return {"name": f"dense_jacobi_{n}_{degree}", "ambient": {"dim": n, "bivector": bivector}}


def pushforward(n: int, degree: int, seed: int = 1) -> dict:
    """The Poisson bivector f u ^ v on R^N (N >= 3): f holds all monomials of degree at most
    D, u = (1, ..., 1) and v is a shuffle of 1..N, so entry (i, j) is (v_j - v_i) f and none
    is zero.  The map shears the first N - 2 coordinates, x_i -> x_i + a_i x_(N-1) x_N +
    b_i x_N^2, and map_inverse subtracts the same shears, so the run composes every pushed
    entry with powers of those binomials, then checks both fields for the Jacobi identity."""
    if n < 3:
        raise SystemExit("need N >= 3")
    rng = random.Random(seed)
    x = ambient_variables(n)
    f = _dense_poly(rng, n, degree)
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


def extend(n: int, digits: int, seed: int = 1) -> dict:
    """A constant bivector on R^N whose upper entries are random signed DIGITS-digit integers,
    and a subspace c spanned by 3 rows of such integers, so every elimination runs on big
    entries; past about 300 digits at N = 12 the exact results outgrow what Python prints."""
    rng = random.Random(seed)

    def entry() -> str:
        return str(rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits))

    bivector = [{"i": i + 1, "j": j + 1, "poly": entry()} for i in range(n) for j in range(i + 1, n)]
    return {
        "name": f"dense_linear_{n}_{digits}",
        "ambient": {"dim": n, "bivector": bivector},
        "point": ["0"] * n,
        "subspace_c": [[entry() for _ in range(n)] for _ in range(3)],
    }


WRITERS = {writer.__name__: writer for writer in (embed, jacobi, pushforward, extend)}


def scenario_text(command: str, a: int, b: int, seed: int = 1) -> str:
    """The dense scenario of that command, as `COMMAND A B [SEED]` prints it."""
    return json.dumps(WRITERS[command](a, b, seed), indent=1) + "\n"


def run_child(argv: list[str], workdir: Path) -> tuple[int, float, float, str]:
    """Exit code, wall seconds and peak RSS in MB of one timed child running `cli.main(argv)`,
    and the sha256 prefix of its stdout, or its stderr when its stdout is empty."""
    out, err, status_file = workdir / "stdout", workdir / "stderr", workdir / "status"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    status_file.unlink(missing_ok=True)  # a child that dies unreported leaves no earlier child's peak
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", CHILD, str(status_file), *argv], os.environ,
                         file_actions=actions)
    _, status = os.waitpid(pid, 0)
    seconds = time.perf_counter() - start
    peak_kb = next(int(line.split()[1]) for line in status_file.read_text().splitlines() if line.startswith("VmHWM:"))
    printed = out.read_bytes()
    shown = hashlib.sha256(printed).hexdigest()[:16] if printed else err.read_text(encoding="utf-8").strip()
    return os.waitstatus_to_exitcode(status), seconds, peak_kb / 1024, shown


def time_cases() -> int:
    print(f"Python {platform.python_version()}, {platform.platform()}, {os.cpu_count()} CPUs; "
          f"each case in one child capped at {ADDRESS_SPACE / 1e9:g} GB of address space\n")
    print("| command | input | exit | wall time | peak RSS | `--porcelain` sha256, or diagnostic |")
    print("|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for command, *given in CASES:
            if command in WRITERS:
                path = workdir / "scenario.json"
                path.write_text(scenario_text(command, *given), encoding="utf-8")
                argv = [command, "--scenario", str(path)]
            else:
                argv = [command, "--scenario", *given]
            code, seconds, mb, shown = run_child([*argv, "--porcelain"], workdir)
            print(f"| {command} | {' '.join(map(str, given))} | {code} | {seconds:.2f} s | {mb:.0f} MB | {shown} |", flush=True)
    return 0


def main(argv: list[str]) -> int:
    if not argv:
        return time_cases()
    if argv[0] not in WRITERS or len(argv) not in (3, 4):
        raise SystemExit(f"usage: worst_cases.py [{'|'.join(WRITERS)} A B [SEED]]")
    sys.stdout.write(scenario_text(argv[0], *map(int, argv[1:])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
