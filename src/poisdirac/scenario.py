"""Strict scenario documents for the command line front end.

Scenarios are JSON objects; every mathematical number is an exact
rational written as a string ("3", "-1/2"), and any float literal,
unknown field, or field without the block that reads it is rejected with
a path-annotated diagnostic.  Structural counts (dimensions, indices) are
JSON integers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .bivector_fields import BivectorField
from .embedding import DiracManifoldData, Section
from .errors import SchemaError
from .polynomials import Poly, PolyMap, ambient_variables, parameter_variables
from .rational_linalg import Subspace, rat
from .submanifolds import LevelSet, Parametrized, SubmanifoldPatch, grid_points


# Largest grid height and sample count a scenario or the command line may ask for.
MAX_GRID_HEIGHT = 1_000_000
MAX_SAMPLE_COUNT = 1000

# Largest dimension of a patch: an ambient space, a parameter space, or the
# total space of an embedding.  Fields are n x n grids, so an unbounded
# dimension would be a resource bomb.  It bounds shape, not work: the
# cofactor expansion behind a determinant, or behind an inverse with no
# constant pivot left, is bounded by polynomials.MAX_MINOR_TERMS instead.
# The bundled scenarios, the tests and the benchmark generators use at most
# 8 base and 10 total dimensions.
MAX_DIM = 12


def check_sample_bounds(height: int | None, count: int, where: str) -> None:
    """Refuse a grid height below 1 or a sample count below 0, or either
    above its maximum (None: not given)."""
    bounds = (("grid height", height, 1, MAX_GRID_HEIGHT), ("sample count", count, 0, MAX_SAMPLE_COUNT))
    for what, value, low, high in bounds:
        if value is not None and value > high:
            raise SchemaError(f"{where}: {what} {value} exceeds the maximum {high}")
        if value is not None and value < low:
            raise SchemaError(f"{where}: {what} {value} is below the minimum {low}")


def _fail(path: str, message: str) -> SchemaError:
    return SchemaError(f"{path}: {message}")


def _expect_object(value: Any, path: str, required: dict[str, None], optional: set[str] = frozenset()) -> dict:
    if not isinstance(value, dict):
        raise _fail(path, f"expected an object, got {type(value).__name__}")
    unknown = set(value) - set(required) - set(optional)
    if unknown:
        raise _fail(path, f"unknown fields {sorted(unknown)}")
    missing = set(required) - set(value)
    if missing:
        raise _fail(path, f"missing required fields {sorted(missing)}")
    return value


def _expect_int(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail(path, f"expected an integer, got {value!r}")
    return value


def _expect_dim(value: Any, path: str, what: str = "dimension") -> int:
    """An integer from 1 to MAX_DIM."""
    n = _expect_int(value, path)
    if n < 1:
        raise _fail(path, f"{what} must be positive")
    if n > MAX_DIM:
        raise _fail(path, f"{what} {n} exceeds the maximum {MAX_DIM}")
    return n


def _expect_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise _fail(path, f"expected a string, got {value!r}")
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _parse_rational(value: Any, path: str) -> Fraction:
    text = _expect_str(value, path)
    try:
        return rat(text)
    except ValueError as exc:
        raise _fail(path, str(exc))


def _parse_point(value: Any, path: str, length: int) -> tuple[Fraction, ...]:
    items = _expect_list(value, path)
    point = tuple(_parse_rational(v, f"{path}[{i}]") for i, v in enumerate(items))
    if len(point) != length:
        raise _fail(path, f"expected {length} coordinates, got {len(point)}")
    return point


def _parse_poly(value: Any, path: str, variables: tuple[str, ...]) -> Poly:
    text = _expect_str(value, path)
    try:
        return Poly.parse(text, variables)
    except ValueError as exc:
        raise _fail(path, str(exc))


def _parse_bivector(value: Any, path: str, dim: int) -> BivectorField:
    variables = ambient_variables(dim)
    items = _expect_list(value, path)
    upper: dict[tuple[int, int], Poly] = {}
    for idx, item in enumerate(items):
        entry_path = f"{path}[{idx}]"
        obj = _expect_object(item, entry_path, {"i": None, "j": None, "poly": None})
        i = _expect_int(obj["i"], f"{entry_path}.i")
        j = _expect_int(obj["j"], f"{entry_path}.j")
        if not 1 <= i < j <= dim:
            raise _fail(entry_path, f"need 1 <= i < j <= {dim}, got i={i}, j={j}")
        if (i - 1, j - 1) in upper:
            raise _fail(entry_path, f"duplicate entry ({i},{j})")
        upper[(i - 1, j - 1)] = _parse_poly(obj["poly"], f"{entry_path}.poly", variables)
    return BivectorField.from_upper(variables, upper)


def _parse_submanifold(value: Any, path: str, ambient_dim: int) -> SubmanifoldPatch:
    obj = _expect_object(value, path, {"type": None}, {"map", "params", "constraints"})
    kind = _expect_str(obj["type"], f"{path}.type")
    if kind == "parametrized":
        if "map" not in obj:
            raise _fail(path, "parametrized submanifolds need 'map'")
        comps = _expect_list(obj["map"], f"{path}.map")
        if len(comps) != ambient_dim:
            raise _fail(f"{path}.map", f"expected {ambient_dim} components, got {len(comps)}")
        if "params" in obj:
            k = _expect_dim(obj["params"], f"{path}.params", "parameter count")
        else:
            k = _expect_dim(_infer_parameter_count(comps, f"{path}.map"), f"{path}.map", "parameter count")
        tvars = parameter_variables(k)
        polys = [_parse_poly(c, f"{path}.map[{i}]", tvars) for i, c in enumerate(comps)]
        return Parametrized(PolyMap(tvars, tuple(polys)))
    if kind == "level_set":
        if "constraints" not in obj:
            raise _fail(path, "level_set submanifolds need 'constraints'")
        xvars = ambient_variables(ambient_dim)
        cons = _expect_list(obj["constraints"], f"{path}.constraints")
        if not cons:
            raise _fail(f"{path}.constraints", "need at least one constraint")
        return LevelSet(tuple(_parse_poly(c, f"{path}.constraints[{i}]", xvars) for i, c in enumerate(cons)))
    raise _fail(f"{path}.type", f"unknown submanifold type {kind!r}")


_PARAM_TOKEN = re.compile(r"t([0-9]+)")


def _infer_parameter_count(components: list, path: str) -> int:
    """Highest t-index appearing in the map; explicit 'params' overrides."""
    highest = 0
    for comp in components:
        if isinstance(comp, str):
            for match in _PARAM_TOKEN.finditer(comp):
                highest = max(highest, int(match.group(1)))
    if highest == 0:
        raise _fail(path, "no parameter variables found; give an explicit 'params' count")
    return highest


def _parse_frame(
    value: Any, path: str, variables: tuple[str, ...], width: int, count: int | None = None
) -> tuple[tuple[Poly, ...], ...]:
    items = _expect_list(value, path)
    if count is not None and len(items) != count:
        raise _fail(path, f"expected {count} vector fields, got {len(items)}")
    frame = []
    for idx, field in enumerate(items):
        comps = _expect_list(field, f"{path}[{idx}]")
        if len(comps) != width:
            raise _fail(f"{path}[{idx}]", f"expected {width} components, got {len(comps)}")
        frame.append(tuple(_parse_poly(c, f"{path}[{idx}][{i}]", variables) for i, c in enumerate(comps)))
    return tuple(frame)


def _parse_dirac_manifold(value: Any, path: str) -> DiracManifoldData:
    obj = _expect_object(value, path, {"dim": None, "sections": None, "E_frame": None, "V_frame": None})
    m = _expect_dim(obj["dim"], f"{path}.dim")
    xvars = ambient_variables(m)
    sections = []
    for idx, sec in enumerate(_expect_list(obj["sections"], f"{path}.sections")):
        sec_path = f"{path}.sections[{idx}]"
        sobj = _expect_object(sec, sec_path, {"X": None, "xi": None})
        xs = _expect_list(sobj["X"], f"{sec_path}.X")
        xis = _expect_list(sobj["xi"], f"{sec_path}.xi")
        if len(xs) != m or len(xis) != m:
            raise _fail(sec_path, f"X and xi must each have {m} components")
        sections.append(Section(
            tuple(_parse_poly(p, f"{sec_path}.X[{i}]", xvars) for i, p in enumerate(xs)),
            tuple(_parse_poly(p, f"{sec_path}.xi[{i}]", xvars) for i, p in enumerate(xis)),
        ))
    e_frame = _parse_frame(obj["E_frame"], f"{path}.E_frame", xvars, m)
    _expect_dim(m + len(e_frame), f"{path}.E_frame", "total dimension")
    v_frame = _parse_frame(obj["V_frame"], f"{path}.V_frame", xvars, m)
    try:
        return DiracManifoldData(m, tuple(sections), e_frame, v_frame)
    except ValueError as exc:
        raise _fail(path, str(exc))


def _parse_subspace_rows(value: Any, path: str, dim: int) -> Subspace:
    rows = _expect_list(value, path)
    parsed = [_parse_point(r, f"{path}[{i}]", dim) for i, r in enumerate(rows)]
    return Subspace.span(dim, parsed)


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario document; a field the document does not give stays
    None.  An embed scenario's `sample_grid` arrives as its `samples`."""

    bivector: BivectorField | None = None
    submanifold: SubmanifoldPatch | None = None
    points: tuple[tuple[Fraction, ...], ...] | None = None
    point: tuple[Fraction, ...] | None = None
    map: PolyMap | None = None
    map_inverse: PolyMap | None = None
    expected_bivector: BivectorField | None = None
    subspace_c: Subspace | None = None
    subspace_v: Subspace | None = None
    subspace_w: Subspace | None = None
    f: Poly | None = None
    g: Poly | None = None
    dirac_manifold: DiracManifoldData | None = None
    samples: tuple[tuple[Fraction, ...], ...] | None = None
    compare_v0: tuple[tuple[Poly, ...], ...] | None = None
    compare_v1: tuple[tuple[Poly, ...], ...] | None = None


_TOP_LEVEL_FIELDS = {
    "name", "description", "ambient", "submanifold", "points", "point",
    "map", "map_inverse", "expected_bivector",
    "subspace_c", "subspace_v", "subspace_w",
    "f", "g", "dirac_manifold", "samples", "sample_grid", "compare_v_frames",
}


# The block each field is read against: a field without it is refused before any block is parsed.
_NEEDS = {
    "submanifold": "ambient", "point": "ambient", "map": "ambient", "map_inverse": "ambient",
    "expected_bivector": "ambient", "subspace_c": "ambient", "subspace_v": "ambient", "subspace_w": "ambient",
    "points": "submanifold", "f": "submanifold", "g": "submanifold",
    "samples": "dirac_manifold", "sample_grid": "dirac_manifold", "compare_v_frames": "dirac_manifold",
}


def parse_scenario(document: Any) -> Scenario:
    obj = _expect_object(document, "$", {}, _TOP_LEVEL_FIELDS)
    for key in ("name", "description"):  # checked, not kept: no analysis reads them
        if key in obj:
            _expect_str(obj[key], f"$.{key}")
    for key, block in _NEEDS.items():
        if key in obj and block not in obj:
            raise _fail(f"$.{key}", f"needs {'an' if block[0] in 'aeiou' else 'a'} {block} block")
    fields: dict[str, Any] = {}  # the Scenario fields the document gives

    ambient_dim = None
    if "ambient" in obj:
        amb = _expect_object(obj["ambient"], "$.ambient", {"dim": None, "bivector": None})
        ambient_dim = _expect_dim(amb["dim"], "$.ambient.dim")
        fields["bivector"] = _parse_bivector(amb["bivector"], "$.ambient.bivector", ambient_dim)

    if "submanifold" in obj:
        fields["submanifold"] = _parse_submanifold(obj["submanifold"], "$.submanifold", ambient_dim)
    submanifold = fields.get("submanifold")

    if "points" in obj:
        items = _expect_list(obj["points"], "$.points")
        fields["points"] = tuple(_parse_point(p, f"$.points[{i}]", submanifold.map.source_dim) for i, p in enumerate(items))
    if "point" in obj:  # the evaluation point of extend and phi: a point of the ambient space
        fields["point"] = _parse_point(obj["point"], "$.point", ambient_dim)

    if "map" in obj or "map_inverse" in obj:
        if "map" not in obj or "map_inverse" not in obj:
            raise _fail("$", "'map' and 'map_inverse' must be supplied together")
        xvars = ambient_variables(ambient_dim)
        # both lists and their lengths are checked before either is parsed
        comps = {key: _expect_list(obj[key], f"$.{key}") for key in ("map", "map_inverse")}
        if any(len(c) != ambient_dim for c in comps.values()):
            raise _fail("$.map", f"maps must have {ambient_dim} components")
        for key, c in comps.items():
            fields[key] = PolyMap(xvars, tuple(_parse_poly(p, f"$.{key}[{i}]", xvars) for i, p in enumerate(c)))

    if "expected_bivector" in obj:
        fields["expected_bivector"] = _parse_bivector(obj["expected_bivector"], "$.expected_bivector", ambient_dim)

    for key in ("subspace_c", "subspace_v", "subspace_w"):
        if key in obj:
            fields[key] = _parse_subspace_rows(obj[key], f"$.{key}", ambient_dim)

    for key in ("f", "g"):
        if key in obj:
            fields[key] = _parse_poly(obj[key], f"$.{key}", submanifold.map.source_vars)

    if "dirac_manifold" in obj:
        fields["dirac_manifold"] = _parse_dirac_manifold(obj["dirac_manifold"], "$.dirac_manifold")
    dirac_manifold = fields.get("dirac_manifold")

    total = dirac_manifold.base_dim + dirac_manifold.fiber_dim if dirac_manifold else None
    if "samples" in obj:
        items = _expect_list(obj["samples"], "$.samples")
        fields["samples"] = tuple(_parse_point(p, f"$.samples[{i}]", total) for i, p in enumerate(items))

    if "sample_grid" in obj:
        grid = _expect_object(obj["sample_grid"], "$.sample_grid", {"height": None, "seed": None, "count": None})
        height, seed, count = (_expect_int(grid[key], f"$.sample_grid.{key}") for key in ("height", "seed", "count"))
        check_sample_bounds(height, count, "$.sample_grid")
        if "samples" not in fields:  # explicit samples win
            fields["samples"] = grid_points(total, height, seed, count)

    if "compare_v_frames" in obj:
        cmp_obj = _expect_object(obj["compare_v_frames"], "$.compare_v_frames", {"v0": None, "v1": None})
        m, k = dirac_manifold.base_dim, dirac_manifold.fiber_dim
        xvars = ambient_variables(m)
        for key in ("v0", "v1"):
            fields[f"compare_{key}"] = _parse_frame(cmp_obj[key], f"$.compare_v_frames.{key}", xvars, m, m - k)

    return Scenario(**fields)


def load_scenario_text(text: str) -> Scenario:
    try:
        document = json.loads(
            text, parse_float=_reject_float, parse_constant=_reject_float, object_pairs_hook=_reject_duplicate_keys
        )
    except SchemaError:
        raise
    except ValueError as exc:  # malformed JSON, or an integer literal of too many digits
        raise SchemaError(f"invalid JSON: {exc}")
    return parse_scenario(document)


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"duplicate key {key!r} in a JSON object")
        obj[key] = value
    return obj


def _reject_float(text: str) -> None:
    raise SchemaError(f"float literal {text!r} is not accepted; write rationals as 'p/q' strings")
