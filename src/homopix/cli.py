"""Command-line surface.

Every command reads/writes the shared JSON model format and emits a report
of the shape ``{"command", "config", "result"}`` -- except ``gen``, whose
output *is* a model file.  Exit codes: 0 success, 1 verdict failure
(failed check, failed certification, exhausted search budget), 2 usage or
input-format error.  Outputs are byte-identical across runs with identical
inputs, flags, and seeds.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from math import comb

from . import __version__
from .errors import (
    CapExceededError,
    HomopixError,
    InvalidInputError,
    ModelFormatError,
    NotHomogeneousError,
    SearchBudgetError,
)
from .functions import (
    GENERATOR_NAMES,
    PiecewiseFunction,
    evaluate,
    generator,
    grid_function,
    homogeneous_function,
    step_form,
)
from .homogeneity import (
    check_homogeneous,
    compatible,
    flatten_order_dependency,
    instantiate,
)
from .inlay import Box, find_homogeneous_inlay, sample_random_inlay
from .measure import distance_exact, distance_mc, mu_exact, mu_sample
from .models import DiscreteModel
from .pipeline import (
    DEFAULT_TRIALS,
    pixelate,
    pixelate_ensure_size,
    quantize,
    sample_close_candidates,
)
from .ramsey import (
    bound_homogeneous_inlay,
    bound_monochromatic,
    bound_multisort,
    bound_size_uniform,
    find_monochromatic,
    find_multisort,
    find_size_uniform,
    inlay_probability_floor,
)
from .serialize import (
    box_to_json,
    certificate_tables_to_json,
    certificate_to_json,
    distribution_to_json,
    estimate_to_json,
    format_rational,
    function_to_json,
    load_coloring_file,
    load_model_file,
    model_to_json,
    parse_rational,
    rational_to_json,
    require_discrete,
    require_spec,
    sample_report_to_json,
    selection_to_json,
    spec_to_json,
)
from .substructure import appears_in_discrete, appears_weak, enumerate_substructures

DEFAULT_SEED = 0

# Fixed raster palette for up to 16 colors (color 1 first).
PALETTE = [
    (230, 57, 70),
    (29, 53, 87),
    (69, 123, 157),
    (168, 218, 220),
    (241, 196, 15),
    (39, 174, 96),
    (142, 68, 173),
    (243, 156, 18),
    (22, 160, 133),
    (192, 57, 43),
    (41, 128, 185),
    (44, 62, 80),
    (127, 140, 141),
    (211, 84, 0),
    (52, 73, 94),
    (218, 112, 214),
]


def _write_ppm(f: PiecewiseFunction, path: str, size: int) -> None:
    if f.d != 2:
        raise InvalidInputError("--ppm requires a d=2 input")
    header = f"P6\n{size} {size}\n255\n".encode("ascii")
    rows = bytearray()
    for row in range(size):
        x2 = Fraction(2 * (size - row) - 1, 2 * size)
        for col in range(size):
            x1 = Fraction(2 * col + 1, 2 * size)
            rows.extend(PALETTE[(evaluate(f, (x1, x2)) - 1) % len(PALETTE)])
    with open(path, "wb") as fh:
        fh.write(header + bytes(rows))


def _config(args: argparse.Namespace) -> dict:
    skip = {"func"}
    out = {}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is not None:
            out[key] = value
    return out


def _emit(args: argparse.Namespace, payload: dict, code: int = 0) -> int:
    report = {"command": args.command, "config": _config(args), "result": payload}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _load_any_as_function(path: str) -> PiecewiseFunction:
    # a "discrete" file is read as the step function constant on its grid
    obj = load_model_file(path)
    return grid_function(obj) if isinstance(obj, DiscreteModel) else obj


# ---------------------------------------------------------------------------
# command handlers

def _cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    if args.kind in ("discrete", "grid"):
        for flag in ("d", "k", "m"):
            if getattr(args, flag) is None:
                raise InvalidInputError(f"gen --kind {args.kind} requires --{flag}")
        rng = random.Random(seed)
        values = tuple(rng.randrange(1, args.k + 1) for _ in range(args.m**args.d))
        model = DiscreteModel(d=args.d, k=args.k, m=args.m, values=values)
        payload = model_to_json(model)
        payload["kind"] = args.kind
        rendered = grid_function(model) if args.kind == "grid" else None
    elif args.kind == "homogeneous":
        for flag in ("d", "k", "l"):
            if getattr(args, flag) is None:
                raise InvalidInputError("gen --kind homogeneous requires --d --k --l")
        fn = generator(
            "random_homogeneous",
            {"l": args.l, "d": args.d, "k": args.k, "seed": seed},
        )
        payload = spec_to_json(step_form(fn)[1])
        rendered = fn
    elif args.kind == "generator":
        if not args.name:
            raise InvalidInputError("gen --kind generator requires --name")
        try:
            params = json.loads(args.params) if args.params else {}
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"--params is not valid JSON: {exc}") from None
        if not isinstance(params, dict):
            raise InvalidInputError("--params must be a JSON object")
        params = {
            key: parse_rational(v) if isinstance(v, str) else v
            for key, v in params.items()
        }
        fn = generator(args.name, params)
        payload = function_to_json(fn)
        rendered = fn
    else:
        raise InvalidInputError(f"unknown kind {args.kind!r}")
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.ppm:
        if rendered is None:
            raise InvalidInputError("--ppm needs a function kind (not discrete)")
        _write_ppm(rendered, args.ppm, args.ppm_size)
    return 0


def _cmd_eval(args) -> int:
    f = _load_any_as_function(args.infile)
    point = tuple(parse_rational(part) for part in args.at.split(","))
    return _emit(args, {"color": evaluate(f, point)})


def _cmd_check_homog(args) -> int:
    model = require_discrete(load_model_file(args.infile))
    try:
        spec = check_homogeneous(model, args.l)
    except NotHomogeneousError as exc:
        return _emit(
            args,
            {
                "homogeneous": False,
                "counterexample": {"first": list(exc.first), "second": list(exc.second)},
            },
            code=1,
        )
    return _emit(args, {"homogeneous": True, "spec": spec_to_json(spec)})


def _cmd_instantiate(args) -> int:
    spec = require_spec(load_model_file(args.infile))
    return _emit(args, model_to_json(instantiate(spec, args.t)))


def _cmd_compatible(args) -> int:
    a = require_discrete(load_model_file(args.infile))
    b = require_discrete(load_model_file(args.infile2))
    try:
        ok = compatible(a, b, args.l)
    except NotHomogeneousError as exc:
        return _emit(
            args,
            {
                "compatible": False,
                "counterexample": {"first": list(exc.first), "second": list(exc.second)},
            },
            code=1,
        )
    return _emit(args, {"compatible": ok}, code=0 if ok else 1)


def _cmd_flatten(args) -> int:
    spec = require_spec(load_model_file(args.infile))
    return _emit(args, spec_to_json(flatten_order_dependency(spec)))


def _cmd_distance(args) -> int:
    f = _load_any_as_function(args.infile)
    g = _load_any_as_function(args.infile2)
    if args.mc:
        est = distance_mc(f, g, args.trials, args.seed)
        return _emit(args, estimate_to_json(est))
    dist = distance_exact(f, g, cell_cap=args.cell_cap)
    return _emit(args, {"distance": rational_to_json(dist)})


def _cmd_mu(args) -> int:
    f = _load_any_as_function(args.infile)
    return _emit(args, distribution_to_json(mu_exact(f, args.n, cap=args.cap)))


def _cmd_sample(args) -> int:
    f = _load_any_as_function(args.infile)
    report = mu_sample(f, args.n, args.trials, args.seed)
    return _emit(args, sample_report_to_json(report))


def _cmd_substructs(args) -> int:
    spec = require_spec(load_model_file(args.infile))
    models = enumerate_substructures(spec, args.n, cap=args.cap)
    return _emit(args, {"models": [model_to_json(m) for m in models]})


def _cmd_appears(args) -> int:
    needle = require_discrete(load_model_file(args.needle))
    haystack = require_discrete(load_model_file(args.haystack))
    search = appears_weak if args.weak else appears_in_discrete
    witness = search(needle, haystack)
    return _emit(
        args,
        {
            "found": witness is not None,
            "witness": list(witness) if witness is not None else None,
        },
    )


def _cmd_inlay_find(args) -> int:
    model = require_discrete(load_model_file(args.infile))
    found = find_homogeneous_inlay(model, args.l, args.s)
    if found is None:
        return _emit(args, {"found": False})
    selection, sub = found
    return _emit(
        args,
        {
            "found": True,
            "selection": selection_to_json(selection),
            "model": model_to_json(sub),
        },
    )


def _cmd_inlay_sample(args) -> int:
    f = _load_any_as_function(args.infile)
    if args.alpha or args.beta:
        if not (args.alpha and args.beta):
            raise InvalidInputError("--alpha and --beta must be given together")
        lower = tuple(parse_rational(x) for x in args.alpha.split(","))
        upper = tuple(parse_rational(x) for x in args.beta.split(","))
        box = Box(lower=lower, upper=upper)
    else:
        box = Box.full(args.l)
    sample = sample_random_inlay(f, args.l, args.s, box, args.seed, index=args.index)
    payload = {
        "selection": selection_to_json(sample.selection),
        "box": box_to_json(box),
        "model": model_to_json(sample.model),
        "homogeneous": sample.homogeneous,
    }
    if sample.spec is not None:
        payload["spec"] = spec_to_json(sample.spec)
    return _emit(args, payload)


def _cmd_ramsey_find(args) -> int:
    coloring, kind = load_coloring_file(args.infile)
    if args.mode == "multisort":
        found = find_multisort(coloring, args.s)
        if found is None:
            return _emit(args, {"found": False})
        picked, witness = found
        return _emit(
            args,
            {
                "found": True,
                "sorts": [list(u) for u in picked],
                "witness": [
                    {"profile": list(profile), "color": color}
                    for profile, color in sorted(witness.items())
                ],
            },
        )
    vertices = [v for part in coloring.sorts for v in part]
    if args.mode == "mono":
        subset = find_monochromatic(vertices, coloring.colors, coloring.d, args.s)
        if subset is None:
            return _emit(args, {"found": False})
        return _emit(args, {"found": True, "subset": list(subset)})
    if args.mode == "uniform":
        found = find_size_uniform(vertices, coloring.colors, coloring.d, args.s)
        if found is None:
            return _emit(args, {"found": False})
        subset, witness = found
        return _emit(
            args,
            {
                "found": True,
                "subset": list(subset),
                "witness": [
                    {"size": size, "color": color}
                    for size, color in sorted(witness.items())
                ],
            },
        )
    raise InvalidInputError(f"unknown mode {args.mode!r}")


def _cmd_ramsey_bound(args) -> int:
    kind = args.kind
    if kind == "r1":
        value = bound_monochromatic(args.d, args.a, args.s)
        payload = {"params": {"d": args.d, "a": args.a, "s": args.s}}
    elif kind == "r2":
        value = bound_size_uniform(args.d, args.a, args.s)
        payload = {"params": {"d": args.d, "a": args.a, "s": args.s}}
    elif kind == "R":
        value = bound_multisort(args.l, args.d, args.a, args.s)
        payload = {"params": {"l": args.l, "d": args.d, "a": args.a, "s": args.s}}
    elif kind == "r":
        value, alphabet = bound_homogeneous_inlay(args.l, args.s, args.d, args.k)
        payload = {
            "params": {"l": args.l, "s": args.s, "d": args.d, "k": args.k},
            "alphabet_size": alphabet,
        }
    elif kind == "delta":
        floor = inlay_probability_floor(args.l, args.s, args.d, args.k)
        return _emit(
            args,
            {
                "params": {"l": args.l, "s": args.s, "d": args.d, "k": args.k},
                "value": format_rational(floor),
            },
        )
    else:
        raise InvalidInputError(f"unknown bound kind {kind!r}")
    payload["value"] = str(value)
    return _emit(args, payload)


def _cmd_quantize(args) -> int:
    f = _load_any_as_function(args.infile)
    spec = quantize(f, args.l)
    code = _emit(args, spec_to_json(spec))
    if args.ppm:
        _write_ppm(homogeneous_function(spec), args.ppm, args.ppm_size)
    return code


def _cmd_appclose(args) -> int:
    f = _load_any_as_function(args.infile)
    if args.base:
        base = require_spec(load_model_file(args.base))
    elif args.l:
        base = quantize(f, args.l)
    else:
        raise InvalidInputError("appclose requires --base or --l")
    candidates = sample_close_candidates(
        f, base, args.s, args.trials, args.seed, box_strategy=args.box_strategy
    )
    bound = 2 * distance_exact(f, homogeneous_function(base)) + Fraction(
        comb(f.d, 2), base.parts
    )
    payload = {
        "base_distance_bound": rational_to_json(bound),
        "candidates": [
            {
                "trial": cand.trial,
                "distance": rational_to_json(cand.distance),
                "within_bound": cand.within_bound,
                "box": box_to_json(cand.box),
                "spec": spec_to_json(cand.spec),
                "model": model_to_json(cand.model),
            }
            for cand in candidates
        ],
    }
    return _emit(args, payload)


def _cmd_pixelate(args) -> int:
    f = _load_any_as_function(args.infile)
    epsilon = parse_rational(args.epsilon)
    try:
        cert = pixelate(
            f,
            epsilon,
            args.nmax,
            trials=args.trials,
            seed=args.seed,
            box_strategy=args.box_strategy,
        )
    except SearchBudgetError as exc:
        return _emit(args, {"error": "budget-exhausted", "detail": str(exc)}, code=1)
    code = 0 if cert.verdict in ("pass", "consistent") else 1
    result = _emit(args, certificate_to_json(cert), code=code)
    if args.ppm:
        _write_ppm(homogeneous_function(cert.g_prime), args.ppm, args.ppm_size)
    return result


def _cmd_certify(args) -> int:
    from .pipeline import certify

    spec = require_spec(load_model_file(args.infile))
    f = _load_any_as_function(args.against)
    tables, verdict, mode = certify(
        spec, f, args.nmax, trials=args.trials, seed=args.seed
    )
    code = 0 if verdict in ("pass", "consistent") else 1
    payload = {
        "tables": certificate_tables_to_json(tables),
        "verdict": verdict,
        "mode": mode,
    }
    return _emit(args, payload, code=code)


def _cmd_ensure_size(args) -> int:
    f = _load_any_as_function(args.infile)
    epsilon = parse_rational(args.epsilon)
    try:
        cert = pixelate_ensure_size(
            f,
            epsilon,
            args.r,
            args.nmax,
            trials=args.trials,
            seed=args.seed,
            box_strategy=args.box_strategy,
        )
    except SearchBudgetError as exc:
        return _emit(args, {"error": "budget-exhausted", "detail": str(exc)}, code=1)
    code = 0 if cert.verdict in ("pass", "consistent") else 1
    return _emit(args, certificate_to_json(cert), code=code)


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homopix",
        description="Grid-homogeneous step approximation with exact certification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        p.add_argument("--out", help="write the report/model here instead of stdout")
        p.add_argument(
            "--threads", type=int, default=1,
            help="parallelism hint; never changes output bytes (current "
                 "implementation is sequential)",
        )
        return p

    p = new("gen", _cmd_gen, help="generate a model file")
    p.add_argument("--kind", required=True,
                   choices=["discrete", "grid", "homogeneous", "generator"])
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--name", choices=list(GENERATOR_NAMES))
    p.add_argument("--params", help="generator parameters as a JSON object")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--ppm", help="also write a P6 raster (d=2 functions)")
    p.add_argument("--ppm-size", type=int, default=256)

    p = new("eval", _cmd_eval, help="evaluate a function at a rational point")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--at", required=True, help='comma-separated rationals, e.g. "1/4,3/4"')

    p = new("check-homog", _cmd_check_homog, help="extract a spec or report a counterexample")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--l", type=int, required=True)

    p = new("instantiate", _cmd_instantiate, help="expand a spec to a discrete model")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--t", type=int, required=True)

    p = new("compatible", _cmd_compatible, help="test compatibility of two models")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--in2", dest="infile2", required=True)
    p.add_argument("--l", type=int, required=True)

    p = new("flatten", _cmd_flatten, help="remove order dependency from a spec")
    p.add_argument("--in", dest="infile", required=True)

    p = new("distance", _cmd_distance, help="distance between two functions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--in2", dest="infile2", required=True)
    p.add_argument("--mc", action="store_true", help="Monte Carlo estimate instead of exact")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--cell-cap", type=int, default=250_000,
                   help="cap on the merged cells visited, m^d for the m intervals "
                   "between the merged run ends of both sides; exceeding it is an error")

    p = new("mu", _cmd_mu, help="exact statistic distribution")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=1_000_000,
                   help="cap on the run assignments walked, C(r+n-1, n) for r runs; "
                   "exceeding it is an error")

    p = new("sample", _cmd_sample, help="sampled statistic distribution")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = new("substructs", _cmd_substructs, help="substructures of a spec")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=1_000_000,
                   help="cap on the run assignments walked, C(r+n-1, n) for r runs; "
                   "exceeding it is an error")

    p = new("appears", _cmd_appears, help="search for an appearance witness")
    p.add_argument("--needle", required=True)
    p.add_argument("--haystack", required=True)
    p.add_argument("--weak", action="store_true", help="allow nondecreasing witnesses")

    p = new("inlay-find", _cmd_inlay_find, help="search for a homogeneous inlay")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = new("inlay-sample", _cmd_inlay_sample, help="sample a random inlay")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--alpha", help="comma-separated lower window bounds")
    p.add_argument("--beta", help="comma-separated upper window bounds")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--index", type=int, default=0)

    p = new("ramsey-find", _cmd_ramsey_find, help="run a finder on a coloring file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", required=True, choices=["mono", "uniform", "multisort"])
    p.add_argument("--s", type=int, required=True)

    p = new("ramsey-bound", _cmd_ramsey_bound, help="evaluate a bound recursion")
    p.add_argument("--kind", required=True, choices=["r1", "r2", "R", "r", "delta"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", type=int, help="alphabet size (kinds r1/r2/R)")
    p.add_argument("--l", type=int, help="parts (kinds R/r/delta)")
    p.add_argument("--k", type=int, help="colors (kinds r/delta)")

    p = new("quantize", _cmd_quantize, help="order-free quantization of a function")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--ppm", help="also write a P6 raster (d=2)")
    p.add_argument("--ppm-size", type=int, default=256)

    p = new("appclose", _cmd_appclose, help="sample close homogeneous candidates")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--base", help="homogeneous model file to measure against")
    p.add_argument("--l", type=int, help="quantize the input at this resolution as the base")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--box-strategy", choices=["full", "dyadic"], default="full")

    p = new("pixelate", _cmd_pixelate, help="certified homogeneous approximation")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--epsilon", required=True, help='rational budget, e.g. "1/2"')
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--box-strategy", choices=["full", "dyadic"], default="full")
    p.add_argument("--ppm", help="also write a P6 raster of the output (d=2)")
    p.add_argument("--ppm-size", type=int, default=256)

    p = new("certify", _cmd_certify, help="certify a spec against a function")
    p.add_argument("--in", dest="infile", required=True, help="homogeneous model file")
    p.add_argument("--against", required=True, help="function to certify against")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = new("ensure-size", _cmd_ensure_size,
            help="pixelate with two-way containment at one size")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--box-strategy", choices=["full", "dyadic"], default="full")

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ModelFormatError, InvalidInputError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HomopixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
