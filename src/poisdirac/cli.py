"""Command line front end.

Subcommands wrap the library; `_COMMANDS` declares each one, with its
runner, its help text and the sampling flags it reads.  A runner returns
one report document and its exit code.  `_text` renders the document, and
nothing else, as aligned text for humans (with a version banner); JSON
renders it as sorted keys for tests.  --porcelain prints the JSON only,
--output writes it to a file as well, and only what is printed or written
is rendered.  Output is byte-identical for identical input.

Exit codes: 0 success, 1 parse or validation error, 2 mathematical
precondition failure, 3 property violation (e.g. graph extraction
failed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager
from functools import cache
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .bivector_fields import is_poisson, nonzero_jacobiator_components, pushforward
from .embedding import build_embedding, compare_splittings
from .errors import PreconditionError, PropertyViolationError, SchemaError
from .poisson_linear import canonical_iso, classify_subspace, cosymplectic_extension, embedding_conditions
from .rational_linalg import MatrixQ, Subspace, fmt_point, rat
from .scenario import Scenario, check_sample_bounds, load_scenario_text
from .submanifolds import LEVEL_SET_ATTEMPTS, PointData, grid_points, grid_points_on, rank_profile

BANNER = f"# poisdirac {__version__}"


def _point_doc(point: Sequence[Fraction]) -> list[str]:
    return [str(x) for x in point]


def _matrix_doc(m: MatrixQ) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.entries]


def _subspace_doc(s: Subspace) -> dict:
    return {"dim": s.dim, "basis": _matrix_doc(s.basis)}


def _bivector_doc(field) -> list[dict]:
    return [
        {"i": i + 1, "j": j + 1, "poly": str(p)}
        for (i, j), p in sorted(field.upper_entries().items())
    ]


def _fields_doc(record) -> dict:
    """A flat dataclass as a name -> value dict (no deep copy, unlike `dataclasses.asdict`)."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _record_doc(record) -> dict:
    fields = _fields_doc(record)
    return {
        "dims": {name[len("dim_"):]: v for name, v in fields.items() if name.startswith("dim_")},
        "rho_rank": record.rho_rank,
        "flags": {name: v for name, v in fields.items() if isinstance(v, bool)},
    }


def _resolve_scenario(path_text: str) -> str:
    path = Path(path_text)
    if path.exists():
        try:
            return path.read_text(encoding="utf-8")
        except (OSError, UnicodeError) as exc:
            raise SchemaError(f"cannot read scenario {path_text!r}: {exc}") from None
    bundled = resources.files("poisdirac").joinpath("scenarios", path_text)
    if bundled.is_file():
        return bundled.read_text(encoding="utf-8")
    raise SchemaError(f"scenario {path_text!r} is neither a file nor a bundled scenario name")


# The analysis each bundled scenario is written for; every file under
# scenarios/ needs an entry (the test suite runs each one through it).
BUNDLED_ANALYSES = {
    "bracket_sympl4.json": "bracket",
    "broken.json": "jacobi",
    "ex_fz.json": "classify",
    "ex_graph4.json": "classify",
    "ex_r10_dirac.json": "embed",
    "ex_r3_tilted.json": "embed",
    "ex_r4_dirac.json": "embed",
    "ex_r4_pi1.json": "jacobi",
    "ex_r4_pi2.json": "jacobi",
    "ex_r4_push.json": "pushforward",
    "ex_r4_splittings.json": "embed",
    "ex_r6.json": "classify",
    "ex_r6_extend.json": "extend",
    "ex_r6_phi.json": "phi",
    "ex_x2z.json": "classify",
}


def bundled_scenario_names() -> list[str]:
    base = resources.files("poisdirac").joinpath("scenarios")
    return sorted(p.name for p in base.iterdir() if p.name.endswith(".json"))


def _parse_points_flag(text: str, dim: int) -> tuple[tuple[Fraction, ...], ...]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            point = tuple(rat(c.strip()) for c in chunk.split(","))
        except ValueError as exc:
            raise SchemaError(f"--points: {exc}")
        if len(point) != dim:
            raise SchemaError(f"--points: point {len(points)} has {len(point)} coordinates, expected {dim}")
        points.append(point)
    return tuple(points)


def _gather_points(scenario: Scenario, args: argparse.Namespace) -> tuple[tuple[Fraction, ...], ...]:
    """The samples of classify and bracket: --points, else --grid, else the scenario's;
    an empty set is refused, naming where its points were to come from."""
    sub = scenario.submanifold
    if args.points is not None:
        points, why = _parse_points_flag(args.points, sub.map.source_dim), "--points gives none"
    elif args.grid is not None:
        points = grid_points_on(sub, args.grid, args.seed, args.count)
        why = (f"none of the {LEVEL_SET_ATTEMPTS} draws of --grid {args.grid} landed on the locus" if args.count
               else "--count is 0")
    else:
        points, why = scenario.points or (), "the scenario lists none, and neither --points nor --grid was given"
    if not points:
        raise PreconditionError(f"no sample point: {why}")
    return points


@contextmanager
def _printable_at(point: Sequence[Fraction] | None):
    """A result with an int too long for Python to print fails naming the point."""
    try:
        yield
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        where = f" at {fmt_point(point)}" if point is not None else ""
        limit = sys.get_int_max_str_digits()
        raise PreconditionError(f"the result{where} has more than {limit} digits to print") from None


def _require(value, what: str):
    if value is None:
        raise SchemaError(f"scenario is missing the {what} this analysis needs")
    return value


# ---------------------------------------------------------------------------
# subcommands: each returns its document and its exit code, and builds no text


Report = tuple[dict, int]


def _run_classify(scenario: Scenario, args: argparse.Namespace) -> Report:
    pi = _require(scenario.bivector, "ambient bivector")
    sub = _require(scenario.submanifold, "submanifold")
    points = _gather_points(scenario, args)
    profile = rank_profile(pi, sub, points)
    rows_doc = []
    for row in profile.rows:
        with _printable_at(row.sample):
            rows_doc.append({
                "point": _point_doc(row.sample),
                "ambient": _point_doc(row.ambient),
                **_record_doc(row.classification),
                "characteristic_basis": _matrix_doc(row.characteristic.basis),
            })
    doc = {
        "analysis": "classify",
        "rows": rows_doc,
        "constant": _fields_doc(profile.constant),
        "errors": [{"index": i, "message": msg} for i, msg in profile.errors],
    }
    return doc, 2 if profile.errors else 0


def _run_jacobi(scenario: Scenario, args: argparse.Namespace) -> Report:
    pi = _require(scenario.bivector, "ambient bivector")
    bad = nonzero_jacobiator_components(pi)
    doc = {
        "analysis": "jacobi",
        "poisson": not bad,
        "nonzero_jacobiator": [
            {"i": i + 1, "j": j + 1, "k": k + 1, "poly": str(p)} for (i, j, k), p in sorted(bad.items())
        ],
    }
    return doc, 0


def _run_pushforward(scenario: Scenario, args: argparse.Namespace) -> Report:
    pi = _require(scenario.bivector, "ambient bivector")
    phi = _require(scenario.map, "map")
    phi_inv = _require(scenario.map_inverse, "map_inverse")
    result = pushforward(pi, phi, phi_inv)
    doc = {
        "analysis": "pushforward",
        "result": _bivector_doc(result),
        "poisson_preserved": is_poisson(result) == is_poisson(pi),
    }
    if scenario.expected_bivector is not None:
        doc["matches_expected"] = result.entries == scenario.expected_bivector.entries
    return doc, 0


def _run_extend(scenario: Scenario, args: argparse.Namespace) -> Report:
    pi = _require(scenario.bivector, "ambient bivector")
    point = _require(scenario.point, "evaluation point")
    c = _require(scenario.subspace_c, "subspace_c")
    p = pi.at(point)
    w = cosymplectic_extension(p, c)
    conditions = embedding_conditions(p, c, w)
    doc = {
        "analysis": "extend",
        "point": _point_doc(point),
        "c": _subspace_doc(c),
        "w": _subspace_doc(w),
        "conditions": {"cond_leaf": conditions.cond_leaf, "cond_int": conditions.cond_int},
        "w_classification": _record_doc(classify_subspace(p, w)),
        "induced_bivector": _matrix_doc(conditions.induced.pi),
    }
    return doc, 0


def _run_phi(scenario: Scenario, args: argparse.Namespace) -> Report:
    pi = _require(scenario.bivector, "ambient bivector")
    point = _require(scenario.point, "evaluation point")
    c = _require(scenario.subspace_c, "subspace_c")
    v = _require(scenario.subspace_v, "subspace_v")
    w = _require(scenario.subspace_w, "subspace_w")
    p = pi.at(point)
    phi = canonical_iso(p, c, v, w)
    pv, pw = embedding_conditions(p, c, v).induced, embedding_conditions(p, c, w).induced
    poisson_iso = (phi @ pv.pi @ phi.transpose()) == pw.pi
    identity_on_c = v.coordinates_of_rows(c.basis) @ phi.transpose() == w.coordinates_of_rows(c.basis)
    doc = {
        "analysis": "phi",
        "matrix": _matrix_doc(phi),
        "poisson_isomorphism": poisson_iso,
        "identity_on_c": identity_on_c,
        "v_bivector": _matrix_doc(pv.pi),
        "w_bivector": _matrix_doc(pw.pi),
    }
    return doc, 0 if poisson_iso and identity_on_c else 3


def _passing(checks: list[dict]) -> bool:
    """Every flag of every check holds: embed's one "all passing", for its text and its exit code."""
    return all(v for check in checks for v in check.values() if isinstance(v, bool))


def _run_embed(scenario: Scenario, args: argparse.Namespace) -> Report:
    data = _require(scenario.dirac_manifold, "dirac_manifold block")
    samples = scenario.samples
    if args.grid is not None or samples is None:
        samples = grid_points(data.base_dim + data.fiber_dim, args.grid or 3, args.seed, args.count)
    result = build_embedding(data, samples)
    doc = {
        "analysis": "embed",
        "total_dim": result.total_dim,
        "variables": list(result.variables),
        "gauge_form": _bivector_doc(result.gauge_form),
        "bivector": _bivector_doc(result.bivector) if result.bivector is not None else None,
        "samples": [{**_fields_doc(c), "point": _point_doc(c.point)} for c in result.sample_checks],
    }
    if scenario.compare_v0 is not None and scenario.compare_v1 is not None:
        comparison = compare_splittings(data, scenario.compare_v0, scenario.compare_v1, samples)
        doc["comparison"] = {**_fields_doc(comparison), "gauge_difference": _bivector_doc(comparison.gauge_difference)}
    return doc, 0 if _passing([*doc["samples"], doc.get("comparison", {})]) else 3


def _run_bracket(scenario: Scenario, args: argparse.Namespace) -> Report:
    pi = _require(scenario.bivector, "ambient bivector")
    sub = _require(scenario.submanifold, "submanifold")
    f = _require(scenario.f, "function f")
    g = _require(scenario.g, "function g")
    per_point = []
    for q in _gather_points(scenario, args):
        at = PointData(pi, sub, q)
        entry: dict[str, Any] = {"point": _point_doc(q), "f_basic": at.is_basic(f), "g_basic": at.is_basic(g)}
        if entry["f_basic"] and entry["g_basic"]:
            check = at.consistency(f, g)
            with _printable_at(q):
                entry["bracket"] = str(check.intrinsic)
                entry["via_extension"] = str(check.via_extension)
            entry["consistent"] = check.agree
        per_point.append(entry)
    doc = {"analysis": "bracket", "f": str(f), "g": str(g), "per_point": per_point}
    return doc, 0


# name: (runner, help text, sampling flags read); "points" is --points,
# "grid" is --grid, --seed and --count.  A command without a runner reads
# no scenario.
_COMMANDS = {
    "classify": (_run_classify, "rank profile of a submanifold over sample points", ("points", "grid")),
    "jacobi": (_run_jacobi, "symbolic Jacobi identity check of a bivector field", ()),
    "pushforward": (_run_pushforward, "push a bivector field along a polynomial diffeomorphism", ()),
    "extend": (_run_extend, "cosymplectic extension of a subspace at a point", ()),
    "phi": (_run_phi, "canonical isomorphism between two cosymplectic extensions", ()),
    "embed": (_run_embed, "coisotropic embedding of a regular Dirac manifold", ("grid",)),
    "bracket": (_run_bracket, "bracket of basic functions with a consistency cross-check", ("points", "grid")),
    "scenarios": (None, "list bundled scenario files", ()),
}


def _pi_lines(entries: list[dict]) -> list[str]:
    return [f"  Pi^{{{e['i']},{e['j']}}} = {e['poly']}" for e in entries]


def _text(doc: dict) -> list[str]:
    """The text report of any command's document, read off the document alone,
    so a document read back from its JSON renders the same lines."""
    analysis = doc["analysis"]
    if analysis == "scenarios":
        return doc["bundled"]
    if analysis == "classify":
        lines = ["point | ambient | dim TC | dim #N*C | dim sum | dim char | rho rank | flags"]
        labels = dict(coisotropic="coisotropic", cosymplectic="cosymplectic", pointwise_poisson_dirac="poisson-dirac")
        for row in doc["rows"]:
            dims, flags = row["dims"], ",".join(label for f, label in labels.items() if row["flags"][f]) or "-"
            lines.append(
                f"{fmt_point(row['point'])} | {fmt_point(row['ambient'])} | {dims['subspace']} | "
                f"{dims['sharp_annihilator']} | {dims['sum']} | {dims['characteristic']} | {row['rho_rank']} | {flags}"
            )
        lines.append("constant on samples: " + ", ".join(f"{k}={v}" for k, v in sorted(doc["constant"].items())))
        return lines + [f"point {e['index']}: REGULARITY FAILURE: {e['message']}" for e in doc["errors"]]
    if analysis == "jacobi":
        bad = [f"J^{{{e['i']},{e['j']},{e['k']}}} = {e['poly']}" for e in doc["nonzero_jacobiator"]]
        return [f"Poisson: {'yes' if doc['poisson'] else 'no'}", *bad]
    if analysis == "pushforward":
        lines = ["pushforward entries:", *_pi_lines(doc["result"])]
        if "matches_expected" in doc:
            lines.append(f"matches expected: {'yes' if doc['matches_expected'] else 'no'}")
        return lines
    if analysis == "extend":
        conditions = doc["conditions"]
        return [
            f"extension at {fmt_point(doc['point'])}: dim c = {doc['c']['dim']} -> dim w = {doc['w']['dim']}",
            "w basis rows: " + "; ".join(map(fmt_point, doc["w"]["basis"])),
            f"conditions: leaf-cover={conditions['cond_leaf']} intersection-exact={conditions['cond_int']}",
            f"w cosymplectic: {doc['w_classification']['flags']['cosymplectic']}",
        ]
    if analysis == "phi":
        return [
            "phi (v-coordinates -> w-coordinates):",
            *(f"  {fmt_point(row)}" for row in doc["matrix"]),
            f"poisson isomorphism: {doc['poisson_isomorphism']}; identity on c: {doc['identity_on_c']}",
        ]
    if analysis == "embed":
        names = doc["variables"]
        wedges = [(e["poly"], f"d{names[e['i'] - 1]}^d{names[e['j'] - 1]}") for e in doc["gauge_form"]]
        lines = [
            f"total space dimension {doc['total_dim']}, coordinates {', '.join(names)}",
            "gauge form: " + (", ".join(w if f == "1" else f"({f})*{w}" for f, w in wedges) or "0"),
        ]
        if doc["bivector"] is not None:
            lines += ["extracted bivector:", *_pi_lines(doc["bivector"])]
        else:
            lines.append("no polynomial bivector extracted (pointwise evidence only)")
        lines.append(f"samples checked: {len(doc['samples'])}, all passing: {_passing(doc['samples'])}")
        if cmp := doc.get("comparison"):
            flags = cmp["closed"], cmp["one_form_difference_vanishes_on_base"], cmp["intertwines_at_all_samples"]
            lines.append("splitting comparison: closed=%s, primitive vanishes on base=%s, intertwines=%s" % flags)
        return lines
    return [  # bracket
        f"{fmt_point(e['point'])}: {{f,g}} = {e['bracket']} (extension route agrees: {e['consistent']})"
        if "bracket" in e else f"{fmt_point(e['point'])}: not basic (f: {e['f_basic']}, g: {e['g_basic']})"
        for e in doc["per_point"]
    ]


def _emit(doc: dict, args: argparse.Namespace) -> None:
    rendered = json.dumps(doc, sort_keys=True, indent=2) + "\n" if args.output or args.porcelain else ""
    if args.output:
        try:
            Path(args.output).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            raise SchemaError(f"cannot write --output {args.output!r}: {exc.strerror}") from None
    if args.porcelain:
        sys.stdout.write(rendered)
    else:
        sys.stdout.write("".join(line + "\n" for line in (BANNER, *_text(doc))))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # a usage error is an input error like any other: exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SchemaError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        # each command's parser rejects its own extras, so the error shows that command's usage
        parsed, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed, extras


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="poisdirac",
        description="Exact Poisson/Dirac linear algebra and pointwise analysis of polynomial Poisson patches.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (runner, descr, sampling) in _COMMANDS.items():
        p = sub.add_parser(name, help=descr)
        if runner is not None:
            p.add_argument("--scenario", required=True, help="scenario file path or bundled scenario name")
        if "points" in sampling:
            p.add_argument("--points", help="extra points, 'p/q,p/q;p/q,p/q'")
        if "grid" in sampling:
            p.add_argument("--grid", type=int, help="height bound for generated sample points")
            p.add_argument("--seed", type=int, default=0, help="seed for generated sample points")
            p.add_argument("--count", type=int, default=25, help="number of generated sample points")
        p.add_argument("--porcelain", action="store_true", help="print the machine-readable document only")
        p.add_argument("--output", help="also write the machine-readable document to this path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        runner = _COMMANDS[args.command][0]
        if runner is None:
            _emit({"analysis": "scenarios", "bundled": bundled_scenario_names()}, args)
            return 0
        check_sample_bounds(getattr(args, "grid", None), getattr(args, "count", 0), "--grid/--count")
        scenario = load_scenario_text(_resolve_scenario(args.scenario))
        with _printable_at(scenario.point):
            doc, code = runner(scenario, args)
        _emit(doc, args)
        return code
    except SchemaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except PreconditionError as exc:
        sys.stderr.write(f"precondition failed: {exc}\n")
        return 2
    except PropertyViolationError as exc:
        sys.stderr.write(f"property violation: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
