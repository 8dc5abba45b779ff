"""Command-line front end: verification, existence checks, construction,
regression replay and catalog export.

Every command is a thin wrapper around the library; no mathematics lives in
this module.  Exit codes: 0 success, 1 regression failure, 2 parse error
(including a metric that is not a symmetric 7x7 matrix, an algebra file with
float structure constants, and a negative, non-finite or unparsable
--tolerance or G2NIL_TOLERANCE),
3 degenerate input (including a metric that is not positive definite),
4 unsupported algebra, 141 (128 + SIGPIPE, as shells report it) standard
output closed by its reader before all output was written.
Metrics are validated here, once, rather than inside the library's hot path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import catalog
from .catalog import UnknownAlgebraError, parse_coefficient
from .exterior import (DegenerateError, ExactnessError, KForm, Mode, ModeMismatchError,
                       ToleranceError, parse_tolerance, resolve_tolerance)
from .g2su3 import G2Structure, torsion_class
from .construct import construct
from .liealg import LieAlgebra, Metric
from .structure import (
    UnsupportedAlgebraError,
    coclosed_exists,
    purely_coclosed_exists,
)

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_UNSUPPORTED = 4
EXIT_BROKEN_PIPE = 141


class _CliParseError(Exception):
    """Input that could not be understood (exit code 2)."""


# --------------------------------------------------------------------------
# input resolution
# --------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise _CliParseError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise _CliParseError(f"malformed JSON in {path}: {exc}") from exc


def _resolve_algebra(spec: str) -> LieAlgebra:
    """A catalog name, or a path to a JSON file describing the algebra."""
    if Path(spec).is_file():
        data = _load_json(spec)
        try:
            return LieAlgebra.from_json(data)
        except (KeyError, TypeError, ValueError, ModeMismatchError) as exc:
            raise _CliParseError(f"bad algebra file {spec}: {exc}") from exc
    try:
        return catalog.get(spec).algebra
    except UnknownAlgebraError as exc:
        raise _CliParseError(str(exc)) from exc


def _parse_assignments(text: str) -> dict:
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise _CliParseError(f"expected name=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            out[key.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise _CliParseError(f"bad value in {item!r}: {exc}") from exc
    if not out:
        raise _CliParseError("empty parameter list")
    return out


def _metric_from_json(data) -> Metric:
    try:
        if isinstance(data, dict) and "g" in data:
            return Metric.from_json(data)
        if isinstance(data, dict) and "diag" in data:
            return Metric.diagonal([Fraction(str(x)) for x in data["diag"]])
        if isinstance(data, dict) and "rows" in data:
            data = data["rows"]
        if isinstance(data, (tuple, list)):
            return Metric([[Fraction(str(x)) for x in row] for row in data])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise _CliParseError(f"bad metric: {exc}") from exc
    raise _CliParseError("metric JSON must be rows, {'g': rows}, "
                         "{'rows': rows} or {'diag': entries}")


def _resolve_metric(spec: str, algebra_name: str) -> Metric:
    """'identity', 'name=value,...' family parameters, or a JSON file.

    The metric must be a 7x7 inner product: another size is a parse error,
    and a matrix that is not positive definite raises DegenerateError.
    """
    g = _read_metric(spec, algebra_name)
    if g.dim != 7:
        raise _CliParseError(f"metric must be 7x7, got {g.dim}x{g.dim}")
    if not g.is_positive_definite():
        raise DegenerateError("metric is not positive definite")
    return g


def _read_metric(spec: str, algebra_name: str) -> Metric:
    if spec == "identity":
        return Metric.identity(7)
    if Path(spec).is_file():
        return _metric_from_json(_load_json(spec))
    if "=" in spec:
        params = _parse_assignments(spec)
        try:
            return catalog.family_metric(algebra_name, params)
        except UnknownAlgebraError as exc:
            raise _CliParseError(
                f"{algebra_name!r} has no metric family; supply a JSON metric"
            ) from exc
        except ValueError as exc:
            raise _CliParseError(str(exc)) from exc
    raise _CliParseError(
        f"cannot interpret metric {spec!r}: expected 'identity', "
        "'name=value,...' or a JSON file path")


def _coframe_from_file(path: str, params: dict | None, mode: Mode) -> list[KForm]:
    data = _load_json(path)
    if isinstance(data, (tuple, list)):
        data = {"coframe": data}
    if "coframe" not in data:
        raise _CliParseError(f"{path} does not contain a 'coframe' entry")
    scale_sq = Fraction(str(data.get("scale_sq", 1)))
    wanted = [p for p in data.get("params", []) if not params or p not in params]
    if wanted:
        raise _CliParseError(
            f"coframe needs --param values for {', '.join(wanted)}")
    rows = data["coframe"]
    if len(rows) != 7 or any(len(r) != 7 for r in rows):
        raise _CliParseError("coframe must be 7 rows of 7 coefficients")
    try:
        forms = []
        for i, row in enumerate(rows):
            coeffs = {}
            for j, cell in enumerate(row):
                c = parse_coefficient(str(cell), params, mode)
                if c:
                    coeffs[(j + 1,)] = c
            if scale_sq != 1 and i >= 4:
                if mode is Mode.EXACT:
                    raise _CliParseError(
                        "this coframe stores sqrt(scale_sq)-rescaled rows; "
                        "verify it with --mode float")
                s = float(scale_sq) ** -0.5
                coeffs = {k: s * v for k, v in coeffs.items()}
            forms.append(KForm.from_terms(7, 1, coeffs, mode))
        return forms
    except ValueError as exc:
        raise _CliParseError(str(exc)) from exc


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------

def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=1))
        return
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        elif isinstance(value, (tuple, list)) and value and \
                isinstance(value[0], (tuple, list)):
            print(f"{key}:")
            for row in value:
                print("  [" + ", ".join(str(x) for x in row) + "]")
        else:
            print(f"{key}: {value}")


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    mode = Mode.EXACT if args.mode == "exact" else Mode.FLOAT
    L = _resolve_algebra(args.algebra)
    params = _parse_assignments(args.param) if args.param else None
    coframe = _coframe_from_file(args.coframe, params, mode)
    struct = G2Structure.from_coframe(coframe)
    report = torsion_class(L, struct, args.tolerance)
    payload = report.to_json()
    payload["induced_metric"] = struct.metric.to_json()["g"]
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_exists(args) -> int:
    L = _resolve_algebra(args.algebra)
    g = _resolve_metric(args.metric, args.algebra)
    if args.mode == "float":
        g = g.to_float()
    if args.kind == "purely":
        report = purely_coclosed_exists(L, g, args.tolerance)
    else:
        report = coclosed_exists(L, g, args.tolerance)
    payload = report.to_json()
    if args.construct and report.exists:
        result = construct(L, g, kind=args.kind, tol=args.tolerance)
        payload["construction"] = result.to_json()
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_regress(args) -> int:
    rows = catalog.run_regression(filter=args.filter, tol=args.tolerance)
    failed = [r for r in rows if not r["passed"]]
    if args.format == "json":
        print(json.dumps({"rows": [dict(r) for r in rows],
                          "total": len(rows), "failed": len(failed)}, indent=1))
    else:
        for r in rows:
            mark = "PASS" if r["passed"] else "FAIL"
            print(f"{mark} {r['id']} -- {r['detail']}")
        if failed:
            print(f"{len(failed)} of {len(rows)} checks failed")
        else:
            print(f"all {len(rows)} checks passed")
    return EXIT_REGRESSION if failed else EXIT_OK


def _cmd_catalog(args) -> int:
    if args.action == "list":
        if args.format == "json":
            print(json.dumps({"algebras": [*catalog.names()]}, indent=1))
        else:
            for entry in catalog.list():
                print(f"{entry.name:10s} dim n' = {entry.derived_dim}, "
                      f"purely coclosed metrics: "
                      f"{'yes' if entry.admits_purely_coclosed else 'no'}")
        return EXIT_OK
    # export
    payload = catalog.export()
    print(json.dumps(payload, indent=1))
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _tolerance(text: str) -> float:
    try:
        return parse_tolerance(text)
    except ToleranceError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=("exact", "float"), default="exact",
                        help="arithmetic mode (default: exact)")
    common.add_argument("--tolerance", type=_tolerance, default=None,
                        help="comparison tolerance for float mode "
                             "(default: 1e-9, or G2NIL_TOLERANCE)")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")

    parser = argparse.ArgumentParser(
        prog="g2nil",
        description="Coclosed and purely coclosed G2-structures on "
                    "7-dimensional 2-step nilpotent Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="torsion report for an explicit coframe")
    p_verify.add_argument("--algebra", required=True,
                          help="catalog name or JSON algebra file")
    p_verify.add_argument("--coframe", required=True,
                          help="JSON file with 7 rows of 7 coefficients")
    p_verify.add_argument("--param", default=None,
                          help="values for parameterized coframes, e.g. a=1,b=1,c=-2")
    p_verify.set_defaults(func=_cmd_verify)

    p_exists = sub.add_parser(
        "exists", parents=[common],
        help="does the algebra + metric admit a (purely) coclosed coframe?")
    p_exists.add_argument("algebra", help="catalog name or JSON algebra file")
    p_exists.add_argument("--metric", required=True,
                          help="'identity', family parameters 'r=1,s=2', "
                               "or a JSON metric file")
    p_exists.add_argument("--kind", choices=("coclosed", "purely"),
                          default="purely")
    p_exists.add_argument("--construct", action="store_true",
                          help="also build and re-verify a witness coframe")
    p_exists.set_defaults(func=_cmd_exists)

    p_regress = sub.add_parser(
        "regress", parents=[common],
        help="replay the pinned regression table")
    p_regress.add_argument("--filter", default=None,
                           help="only rows whose id contains this substring "
                                "(e.g. case3, n7_3_B)")
    p_regress.set_defaults(func=_cmd_regress)

    p_catalog = sub.add_parser(
        "catalog", parents=[common],
        help="inspect the built-in catalog")
    p_catalog.add_argument("action", choices=("export", "list"),
                           help="export the full catalog as JSON, or list names")
    p_catalog.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        resolve_tolerance(args.tolerance)  # validates G2NIL_TOLERANCE before any work
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to /dev/null so the
        # interpreter's final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (_CliParseError, ToleranceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (DegenerateError, ExactnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
