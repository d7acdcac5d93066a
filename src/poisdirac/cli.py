"""Command line front end.

Subcommands wrap the library: classify, jacobi, pushforward, extend,
phi, embed, bracket.  Reports are dual-emitted: aligned text for humans
(with a version banner), and a sorted-key JSON document for tests;
--porcelain prints the JSON document only, --output writes it to a
file as well.  Output is byte-identical for identical input.

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
from .submanifolds import PointData, grid_points, grid_points_on, rank_profile

BANNER = f"# poisdirac {__version__}"


class ReportFailure(Exception):
    """Carries a report that should still be printed, plus an exit code."""

    def __init__(self, exit_code: int, document: dict, text: list[str]) -> None:
        super().__init__(f"exit {exit_code}")
        self.exit_code = exit_code
        self.document = document
        self.text = text


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
    sub = scenario.submanifold
    if args.points is not None:
        return _parse_points_flag(args.points, sub.map.source_dim)
    if args.grid is not None:
        return grid_points_on(sub, args.grid, args.seed, args.count)
    if scenario.points is not None:
        return scenario.points
    return ()


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
# subcommands


def _run_classify(scenario: Scenario, args: argparse.Namespace) -> tuple[dict, list[str]]:
    pi = _require(scenario.bivector, "ambient bivector")
    sub = _require(scenario.submanifold, "submanifold")
    points = _gather_points(scenario, args)
    profile = rank_profile(pi, sub, points)
    rows_doc = []
    text = ["point | ambient | dim TC | dim #N*C | dim sum | dim char | rho rank | flags"]
    for row in profile.rows:
        r = row.record
        flags = ",".join(
            name for name, on in (
                ("coisotropic", r.coisotropic),
                ("cosymplectic", r.cosymplectic),
                ("poisson-dirac", r.pointwise_poisson_dirac),
            ) if on
        ) or "-"
        with _printable_at(row.sample):
            text.append(
                f"{fmt_point(row.sample)} | {fmt_point(row.ambient)} | {r.dim_subspace} | "
                f"{r.dim_sharp_annihilator} | {r.dim_sum} | {r.dim_characteristic} | {r.rho_rank} | {flags}"
            )
            rows_doc.append({
                "point": _point_doc(row.sample),
                "ambient": _point_doc(row.ambient),
                **_record_doc(row.record),
                "characteristic_basis": _matrix_doc(row.characteristic_basis),
            })
    constant_doc = _fields_doc(profile.constant)
    text.append("constant on samples: " + ", ".join(f"{k}={v}" for k, v in sorted(constant_doc.items())))
    doc = {
        "analysis": "classify",
        "rows": rows_doc,
        "constant": constant_doc,
        "errors": [{"index": i, "message": msg} for i, msg in profile.errors],
    }
    if profile.errors:
        for i, msg in profile.errors:
            text.append(f"point {i}: REGULARITY FAILURE: {msg}")
        raise ReportFailure(2, doc, text)
    return doc, text


def _run_jacobi(scenario: Scenario, args: argparse.Namespace) -> tuple[dict, list[str]]:
    pi = _require(scenario.bivector, "ambient bivector")
    bad = nonzero_jacobiator_components(pi)
    poisson = not bad
    text = [f"Poisson: {'yes' if poisson else 'no'}"]
    for (i, j, k), poly in sorted(bad.items()):
        text.append(f"J^{{{i + 1},{j + 1},{k + 1}}} = {poly}")
    doc = {
        "analysis": "jacobi",
        "poisson": poisson,
        "nonzero_jacobiator": [
            {"i": i + 1, "j": j + 1, "k": k + 1, "poly": str(p)} for (i, j, k), p in sorted(bad.items())
        ],
    }
    return doc, text


def _run_pushforward(scenario: Scenario, args: argparse.Namespace) -> tuple[dict, list[str]]:
    pi = _require(scenario.bivector, "ambient bivector")
    phi = _require(scenario.map, "map")
    phi_inv = _require(scenario.map_inverse, "map_inverse")
    result = pushforward(pi, phi, phi_inv)
    doc = {
        "analysis": "pushforward",
        "result": _bivector_doc(result),
        "poisson_preserved": is_poisson(result) == is_poisson(pi),
    }
    text = ["pushforward entries:"]
    for entry in doc["result"]:
        text.append(f"  Pi^{{{entry['i']},{entry['j']}}} = {entry['poly']}")
    if scenario.expected_bivector is not None:
        matches = result.entries == scenario.expected_bivector.entries
        doc["matches_expected"] = matches
        text.append(f"matches expected: {'yes' if matches else 'no'}")
    return doc, text


def _run_extend(scenario: Scenario, args: argparse.Namespace) -> tuple[dict, list[str]]:
    pi = _require(scenario.bivector, "ambient bivector")
    point = _require(scenario.point, "evaluation point")
    c = _require(scenario.subspace_c, "subspace_c")
    p = pi.at(point)
    w = cosymplectic_extension(p, c)
    conditions = embedding_conditions(p, c, w)
    record = classify_subspace(p, w)
    doc = {
        "analysis": "extend",
        "point": _point_doc(point),
        "c": _subspace_doc(c),
        "w": _subspace_doc(w),
        "conditions": {"cond_leaf": conditions.cond_leaf, "cond_int": conditions.cond_int},
        "w_classification": _record_doc(record),
        "induced_bivector": _matrix_doc(conditions.induced.pi),
    }
    text = [
        f"extension at {fmt_point(point)}: dim c = {c.dim} -> dim w = {w.dim}",
        "w basis rows: " + "; ".join(fmt_point(r) for r in w.basis.entries),
        f"conditions: leaf-cover={conditions.cond_leaf} intersection-exact={conditions.cond_int}",
        f"w cosymplectic: {record.cosymplectic}",
    ]
    return doc, text


def _run_phi(scenario: Scenario, args: argparse.Namespace) -> tuple[dict, list[str]]:
    pi = _require(scenario.bivector, "ambient bivector")
    point = _require(scenario.point, "evaluation point")
    c = _require(scenario.subspace_c, "subspace_c")
    v = _require(scenario.subspace_v, "subspace_v")
    w = _require(scenario.subspace_w, "subspace_w")
    p = pi.at(point)
    phi = canonical_iso(p, c, v, w)
    pv, pw = embedding_conditions(p, c, v).induced, embedding_conditions(p, c, w).induced
    poisson_iso = (phi @ pv.pi @ phi.transpose()) == pw.pi
    c_in_v, c_in_w = v.coordinates_of_rows(c.basis.entries), w.coordinates_of_rows(c.basis.entries)
    identity_on_c = all(phi.matvec(x) == y for x, y in zip(c_in_v, c_in_w))
    doc = {
        "analysis": "phi",
        "matrix": _matrix_doc(phi),
        "poisson_isomorphism": poisson_iso,
        "identity_on_c": identity_on_c,
        "v_bivector": _matrix_doc(pv.pi),
        "w_bivector": _matrix_doc(pw.pi),
    }
    text = [
        "phi (v-coordinates -> w-coordinates):",
        *(f"  {fmt_point(row)}" for row in phi.entries),
        f"poisson isomorphism: {poisson_iso}; identity on c: {identity_on_c}",
    ]
    if not poisson_iso or not identity_on_c:
        raise ReportFailure(3, doc, text)
    return doc, text


def _run_embed(scenario: Scenario, args: argparse.Namespace) -> tuple[dict, list[str]]:
    data = _require(scenario.dirac_manifold, "dirac_manifold block")
    total = data.base_dim + data.fiber_dim
    if args.grid is not None:
        samples = grid_points(total, args.grid, args.seed, args.count)
    elif scenario.samples is not None:
        samples = scenario.samples
    elif scenario.sample_grid is not None:
        samples = grid_points(total, *scenario.sample_grid)
    else:
        samples = grid_points(total, 3, args.seed, args.count)
    result = build_embedding(data, samples)
    doc = {
        "analysis": "embed",
        "total_dim": result.total_dim,
        "variables": list(result.variables),
        "gauge_form": _bivector_doc(result.gauge_form),
        "bivector": _bivector_doc(result.bivector) if result.bivector is not None else None,
        "samples": [
            {
                "point": _point_doc(c.point),
                "graph": c.graph,
                "zero_section_coisotropic": c.zero_section_coisotropic,
                "zero_section_pullback_matches": c.zero_section_pullback_matches,
            }
            for c in result.sample_checks
        ],
    }
    text = [f"total space dimension {result.total_dim}, coordinates {', '.join(result.variables)}"]
    def form_term(e: dict) -> str:
        wedge = f"d{result.variables[e['i'] - 1]}^d{result.variables[e['j'] - 1]}"
        return wedge if e["poly"] == "1" else f"({e['poly']})*{wedge}"

    text.append("gauge form: " + (", ".join(form_term(e) for e in doc["gauge_form"]) or "0"))
    if result.bivector is not None:
        text.append("extracted bivector:")
        for e in doc["bivector"]:
            text.append(f"  Pi^{{{e['i']},{e['j']}}} = {e['poly']}")
    else:
        text.append("no polynomial bivector extracted (pointwise evidence only)")
    ok = all(c.ok for c in result.sample_checks)
    text.append(f"samples checked: {len(result.sample_checks)}, all passing: {ok}")
    if scenario.compare_v0 is not None and scenario.compare_v1 is not None:
        comparison = compare_splittings(data, scenario.compare_v0, scenario.compare_v1, samples)
        flags = (
            comparison.closed, comparison.one_form_difference_vanishes_on_base, comparison.intertwines_at_all_samples
        )
        doc["comparison"] = {
            "gauge_difference": _bivector_doc(comparison.gauge_difference),
            "closed": comparison.closed,
            "one_form_difference_vanishes_on_base": comparison.one_form_difference_vanishes_on_base,
            "intertwines_at_all_samples": comparison.intertwines_at_all_samples,
        }
        text.append("splitting comparison: closed=%s, primitive vanishes on base=%s, intertwines=%s" % flags)
        if not all(flags):
            raise ReportFailure(3, doc, text)
    if not ok:
        raise ReportFailure(3, doc, text)
    return doc, text


def _run_bracket(scenario: Scenario, args: argparse.Namespace) -> tuple[dict, list[str]]:
    pi = _require(scenario.bivector, "ambient bivector")
    sub = _require(scenario.submanifold, "submanifold")
    f = _require(scenario.f, "function f")
    g = _require(scenario.g, "function g")
    points = _gather_points(scenario, args)
    if scenario.point is not None:
        points = points + (scenario.point,)
    if not points:
        raise SchemaError("bracket analysis needs at least one point")
    per_point = []
    text = []
    for q in points:
        at = PointData(pi, sub, q)
        f_basic, g_basic = at.is_basic(f), at.is_basic(g)
        entry: dict[str, Any] = {
            "point": _point_doc(q),
            "f_basic": f_basic,
            "g_basic": g_basic,
        }
        if f_basic and g_basic:
            check = at.consistency(f, g)
            with _printable_at(q):
                entry["bracket"] = str(check.intrinsic)
                entry["via_extension"] = str(check.via_extension)
                entry["consistent"] = check.agree
                text.append(
                    f"{fmt_point(q)}: {{f,g}} = {check.intrinsic} (extension route agrees: {check.agree})"
                )
        else:
            text.append(f"{fmt_point(q)}: not basic (f: {f_basic}, g: {g_basic})")
        per_point.append(entry)
    doc = {"analysis": "bracket", "f": str(f), "g": str(g), "per_point": per_point}
    return doc, text


_COMMANDS = {
    "classify": _run_classify,
    "jacobi": _run_jacobi,
    "pushforward": _run_pushforward,
    "extend": _run_extend,
    "phi": _run_phi,
    "embed": _run_embed,
    "bracket": _run_bracket,
}


def _emit(doc: dict, text: list[str], args: argparse.Namespace) -> None:
    rendered = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            raise SchemaError(f"cannot write --output {args.output!r}: {exc.strerror}") from None
    if args.porcelain:
        sys.stdout.write(rendered)
    else:
        sys.stdout.write(BANNER + "\n")
        for line in text:
            sys.stdout.write(line + "\n")


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
    descriptions = {
        "classify": "rank profile of a submanifold over sample points",
        "jacobi": "symbolic Jacobi identity check of a bivector field",
        "pushforward": "push a bivector field along a polynomial diffeomorphism",
        "extend": "cosymplectic extension of a subspace at a point",
        "phi": "canonical isomorphism between two cosymplectic extensions",
        "embed": "coisotropic embedding of a regular Dirac manifold",
        "bracket": "bracket of basic functions with a consistency cross-check",
        "scenarios": "list bundled scenario files",
    }
    for name, descr in descriptions.items():
        p = sub.add_parser(name, help=descr)
        if name != "scenarios":
            p.add_argument("--scenario", required=True, help="scenario file path or bundled scenario name")
        if name in ("classify", "bracket"):
            p.add_argument("--points", help="extra points, 'p/q,p/q;p/q,p/q'")
        if name in ("classify", "bracket", "embed"):
            p.add_argument("--grid", type=int, help="height bound for generated sample points")
            p.add_argument("--seed", type=int, default=0, help="seed for generated sample points")
            p.add_argument("--count", type=int, default=25, help="number of generated sample points")
        p.add_argument("--porcelain", action="store_true", help="print the machine-readable document only")
        p.add_argument("--output", help="also write the machine-readable document to this path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "scenarios":
            doc = {"analysis": "scenarios", "bundled": bundled_scenario_names()}
            _emit(doc, doc["bundled"], args)
            return 0
        check_sample_bounds(getattr(args, "grid", None), getattr(args, "count", 0), "--grid/--count")
        scenario = load_scenario_text(_resolve_scenario(args.scenario))
        try:
            with _printable_at(scenario.point):
                doc, text = _COMMANDS[args.command](scenario, args)
        except ReportFailure as failure:
            _emit(failure.document, failure.text, args)
            return failure.exit_code
        _emit(doc, text, args)
        return 0
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
