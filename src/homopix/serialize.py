"""JSON encoding of models, functions, and report payloads.

The shared model file format is strict: a ``format_version`` of 1, a
``kind`` of ``discrete``/``grid``/``homogeneous``/``generator``, top-level
``d`` and ``k``, a kind-specific payload, and nothing else -- unknown fields
are rejected.  Rationals serialize as ``{"num", "den"}`` objects inside
reports and as ``"p/q"`` strings inside generator parameters and CLI flags;
no floating point crosses any contract.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .errors import ModelFormatError
from .functions import (
    GENERATOR_NAMES,
    PiecewiseFunction,
    generator,
    grid_function,
    homogeneous_function,
)
from .homogeneity import HomogeneousSpec
from .inlay import Box, InlaySelection
from .measure import MonteCarloEstimate, SampleReport, StatisticDistribution
from .models import DiscreteModel
from .pipeline import CertificateTable, PixelationCertificate
from .ramsey import SortedColoring

FORMAT_VERSION = 1


def rational_to_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def rational_from_json(obj) -> Fraction:
    if not isinstance(obj, Mapping) or set(obj) != {"num", "den"}:
        raise ModelFormatError(f"expected a num/den rational, got {obj!r}")
    return Fraction(obj["num"], obj["den"])


def parse_rational(text: str) -> Fraction:
    """Parse a CLI rational: "p/q", an integer, or an exact decimal string."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelFormatError(f"bad rational {text!r}: {exc}") from None


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _expect_fields(obj: Mapping, required: set[str], context: str):
    missing = required - set(obj)
    if missing:
        raise ModelFormatError(f"{context}: missing field(s) {sorted(missing)}")
    extra = set(obj) - required
    if extra:
        raise ModelFormatError(f"{context}: unknown field(s) {sorted(extra)}")


def _positive_int(obj: Mapping, key: str, context: str) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ModelFormatError(f"{context}: field {key!r} must be a positive integer")
    return value


# ---------------------------------------------------------------------------
# model files

def model_to_json(model: DiscreteModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "discrete",
        "d": model.d,
        "k": model.k,
        "m": model.m,
        "values": list(model.values),
    }


def spec_to_json(spec: HomogeneousSpec) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "homogeneous",
        "d": spec.d,
        "k": spec.k,
        "l": spec.parts,
        "entries": [
            {"cells": list(cells), "pattern": list(pattern), "color": color}
            for cells, pattern, color in spec.entries
        ],
    }


def _params_to_json(f: PiecewiseFunction) -> dict:
    out = {}
    for key, value in f.params:
        out[key] = format_rational(value) if isinstance(value, Fraction) else value
    return out


def function_to_json(f: PiecewiseFunction) -> dict:
    if f.kind == "grid":
        body = model_to_json(f.grid)
        body["kind"] = "grid"
        return body
    if f.kind == "homogeneous":
        return spec_to_json(f.spec)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "generator",
        "d": f.d,
        "k": f.k,
        "name": f.name,
        "params": _params_to_json(f),
    }


def model_from_json(obj: Any) -> DiscreteModel | PiecewiseFunction:
    """Decode any model-file payload; ``discrete`` yields a model, the other
    kinds a function."""
    if not isinstance(obj, Mapping):
        raise ModelFormatError("top level must be a JSON object")
    if obj.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"format_version must be {FORMAT_VERSION}, got {obj.get('format_version')!r}"
        )
    kind = obj.get("kind")
    if kind in ("discrete", "grid"):
        _expect_fields(
            obj, {"format_version", "kind", "d", "k", "m", "values"}, f"kind {kind}"
        )
        d = _positive_int(obj, "d", kind)
        k = _positive_int(obj, "k", kind)
        m = _positive_int(obj, "m", kind)
        values = obj["values"]
        if not isinstance(values, list):
            raise ModelFormatError("field 'values' must be an array")
        try:
            model = DiscreteModel(d=d, k=k, m=m, values=tuple(values))
        except Exception as exc:
            raise ModelFormatError(f"field 'values': {exc}") from None
        return model if kind == "discrete" else grid_function(model)
    if kind == "homogeneous":
        _expect_fields(
            obj, {"format_version", "kind", "d", "k", "l", "entries"}, "kind homogeneous"
        )
        d = _positive_int(obj, "d", kind)
        k = _positive_int(obj, "k", kind)
        parts = _positive_int(obj, "l", kind)
        entries = obj["entries"]
        if not isinstance(entries, list):
            raise ModelFormatError("field 'entries' must be an array")
        rows = []
        for i, row in enumerate(entries):
            if not isinstance(row, Mapping):
                raise ModelFormatError(f"entries[{i}] must be an object")
            _expect_fields(row, {"cells", "pattern", "color"}, f"entries[{i}]")
            rows.append(
                (tuple(row["cells"]), tuple(row["pattern"]), row["color"])
            )
        try:
            spec = HomogeneousSpec(parts=parts, d=d, k=k, entries=tuple(rows))
        except Exception as exc:
            raise ModelFormatError(f"field 'entries': {exc}") from None
        return homogeneous_function(spec)
    if kind == "generator":
        _expect_fields(
            obj, {"format_version", "kind", "d", "k", "name", "params"}, "kind generator"
        )
        name = obj.get("name")
        if name not in GENERATOR_NAMES:
            raise ModelFormatError(f"unknown generator name {name!r}")
        raw = obj.get("params")
        if not isinstance(raw, Mapping):
            raise ModelFormatError("field 'params' must be an object")
        params = {
            key: parse_rational(v) if isinstance(v, str) else v
            for key, v in raw.items()
        }
        try:
            fn = generator(name, params)
        except Exception as exc:
            raise ModelFormatError(f"field 'params': {exc}") from None
        if fn.d != obj["d"] or fn.k != obj["k"]:
            raise ModelFormatError(
                f"generator {name!r} has d={fn.d}, k={fn.k}; file says "
                f"d={obj['d']}, k={obj['k']}"
            )
        return fn
    raise ModelFormatError(f"unknown kind {kind!r}")


def load_model_text(text: str) -> DiscreteModel | PiecewiseFunction:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return model_from_json(obj)


def load_model_file(path: str) -> DiscreteModel | PiecewiseFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from None
    try:
        return load_model_text(text)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def require_function(obj) -> PiecewiseFunction:
    if isinstance(obj, DiscreteModel):
        raise ModelFormatError(
            "expected a function (grid/homogeneous/generator), got kind 'discrete'"
        )
    return obj


def require_discrete(obj) -> DiscreteModel:
    if not isinstance(obj, DiscreteModel):
        raise ModelFormatError("expected kind 'discrete'")
    return obj


def require_spec(obj) -> HomogeneousSpec:
    if not (isinstance(obj, PiecewiseFunction) and obj.kind == "homogeneous"):
        raise ModelFormatError("expected kind 'homogeneous'")
    return obj.spec


# ---------------------------------------------------------------------------
# report payloads

def distribution_to_json(dist: StatisticDistribution) -> dict:
    return {
        "n": dist.n,
        "d": dist.d,
        "k": dist.k,
        "entries": [
            {"model": model_to_json(m), "mu": rational_to_json(p)}
            for m, p in dist.entries
        ],
    }


def sample_report_to_json(report: SampleReport) -> dict:
    return {
        "n": report.n,
        "trials": report.trials,
        "seed": report.seed,
        "counts": [
            {"model": model_to_json(m), "count": c} for m, c in report.counts
        ],
    }


def estimate_to_json(est: MonteCarloEstimate) -> dict:
    return {
        "estimate": rational_to_json(est.estimate),
        "stderr": est.stderr,
        "trials": est.trials,
        "seed": est.seed,
    }


def selection_to_json(sel: InlaySelection) -> dict:
    blocks = []
    for block in sel.blocks:
        blocks.append(
            [
                rational_to_json(h) if isinstance(h, Fraction) else h
                for h in block
            ]
        )
    return {"blocks": blocks}


def box_to_json(box: Box) -> dict:
    return {
        "alpha": [rational_to_json(x) for x in box.lower],
        "beta": [rational_to_json(x) for x in box.upper],
    }


def certificate_tables_to_json(tables: Sequence[CertificateTable]) -> list[dict]:
    """Certification tables: one row per substructure with its exact
    probability, or its sampled count and trials."""
    out = []
    for table in tables:
        rows = []
        for entry in table.entries:
            row = {"model": model_to_json(entry.model)}
            if entry.mu is not None:
                row["mu"] = rational_to_json(entry.mu)
            else:
                row["count"] = entry.count
                row["trials"] = entry.trials
            rows.append(row)
        out.append({"n": table.n, "entries": rows})
    return out


def certificate_to_json(cert: PixelationCertificate) -> dict:
    tables = certificate_tables_to_json(cert.tables)
    out = {
        "l": cert.parts,
        "s": cert.size,
        "epsilon": rational_to_json(cert.epsilon),
        "distance": rational_to_json(cert.distance),
        "g_prime": spec_to_json(cert.g_prime),
        "tables": tables,
        "verdict": cert.verdict,
        "seed": cert.seed,
        "mode": cert.mode,
    }
    if cert.ensure_size is not None:
        out["ensure_size"] = {
            "r": cert.ensure_size.r,
            "min_mass": rational_to_json(cert.ensure_size.min_mass),
            "adjusted_epsilon": rational_to_json(cert.ensure_size.adjusted_epsilon),
            "missing": [model_to_json(m) for m in cert.ensure_size.missing],
            "ok": cert.ensure_size.ok,
        }
    return out


# ---------------------------------------------------------------------------
# coloring files (ramsey-find input)

def coloring_from_json(obj: Any) -> tuple[SortedColoring, str]:
    """Decode a coloring file; returns the coloring and whether it is plain
    ("coloring") or multi-sort ("sorted_coloring")."""
    if not isinstance(obj, Mapping):
        raise ModelFormatError("top level must be a JSON object")
    if obj.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(f"format_version must be {FORMAT_VERSION}")
    kind = obj.get("kind")
    if kind == "coloring":
        _expect_fields(
            obj, {"format_version", "kind", "d", "vertices", "entries"}, kind
        )
        sorts = (tuple(obj["vertices"]),)
    elif kind == "sorted_coloring":
        _expect_fields(obj, {"format_version", "kind", "d", "sorts", "entries"}, kind)
        sorts = tuple(tuple(part) for part in obj["sorts"])
    else:
        raise ModelFormatError(f"unknown kind {kind!r}")
    d = _positive_int(obj, "d", kind)
    colors = {}
    for i, row in enumerate(obj["entries"]):
        if not isinstance(row, Mapping):
            raise ModelFormatError(f"entries[{i}] must be an object")
        _expect_fields(row, {"set", "color"}, f"entries[{i}]")
        subset = frozenset(row["set"])
        if len(subset) != len(row["set"]):
            raise ModelFormatError(f"entries[{i}]: repeated vertex in set")
        colors[subset] = row["color"]
    try:
        coloring = SortedColoring(sorts=sorts, d=d, colors=colors)
    except Exception as exc:
        raise ModelFormatError(str(exc)) from None
    return coloring, kind


def load_coloring_file(path: str) -> tuple[SortedColoring, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return coloring_from_json(obj)
