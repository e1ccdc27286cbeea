"""Command-line front end.

Commands:
    megalie validate <algebra.json>
    megalie analyze <algebra.json> [--text] [--out P] [--budget N]
                    [--full-prop34] [--max-enum-dim N]
    megalie vf bracket-table <fields.json> [--text] [--out P]
    megalie vf extract <fields.json> --fields A,B,... [--name NAME] [--out P]
    megalie vf pushforward <fields.json> <map.json> [--fields A,B,...] [--out P]

Exit codes: 0 success, 1 validation failure (not a Lie algebra),
2 parse/format error (malformed input or options, unwritable --out),
3 analysis incompleteness (bracket escapes the span, fields are
linearly dependent, or residual equations remain), 4 internal error (any
other exception; a one-line JSON diagnostic goes to stderr).  All machine
output is JSON; --text is a human projection and is never parsed back.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback

from .algebra import FormatError, algebra_from_dict, algebra_to_dict, validate
from .analysis import AnalyzeOptions, analyze, canonical_json, validation_dict
from .poly import PolyError
from .vectorfield import (
    LinearlyDependent,
    NotClosed,
    extract_structure,
    fields_from_dict,
    fields_to_dict,
    lie_bracket,
    pointmap_from_dict,
    pushforward,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FORMAT = 2
EXIT_INCOMPLETE = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    def __init__(self, code: int, message: str, detail: dict | None = None):
        super().__init__(message)
        self.code = code
        self.detail = detail or {}


# what fields_from_dict and pointmap_from_dict raise on malformed input
_POLY_FORMAT_ERRORS = (ValueError, PolyError)


def _load(path: str, parse, errors):
    """Read the JSON file at path and return parse(data).

    An unreadable file, bad JSON, or any of the exception types `errors`
    raised by `parse` becomes exit 2 with a message naming the path.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CliError(EXIT_FORMAT, f"{path}: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_FORMAT, f"{path}: not UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise CliError(
            EXIT_FORMAT, f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return parse(data)
    except errors as exc:
        raise CliError(EXIT_FORMAT, f"{path}: {exc}") from exc


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(EXIT_FORMAT, f"{out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _select_fields(named_fields, csv: str | None, path: str):
    if csv is None:
        return list(named_fields)
    table = dict(named_fields)
    chosen = []
    for name in csv.split(","):
        name = name.strip()
        if name not in table:
            raise CliError(EXIT_FORMAT, f"{path}: no field named {name!r}")
        if any(name == seen for seen, _ in chosen):
            raise CliError(EXIT_FORMAT, f"{path}: field {name!r} selected twice")
        chosen.append((name, table[name]))
    return chosen


# ---------------------------------------------------------------------------
# text projections


def _render_analysis_text(report: dict) -> str:
    lines = [f"algebra {report['algebra']['name']} (dim {len(report['algebra']['basis'])})"]
    validation = report["validation"]
    lines.append(f"valid: {validation['ok']}")
    if not validation["ok"]:
        lines.append(f"  antisymmetry violations: {len(validation['antisymmetry_violations'])}")
        lines.append(f"  jacobi residuals: {len(validation['jacobi_residuals'])}")
        return "\n".join(lines) + "\n"
    for kind, series in report["series"].items():
        dims = ", ".join(str(t["dim"]) for t in series["terms"])
        lines.append(f"{kind} series dims: {dims}")
    lines.append("lattice:")
    for member in report["lattice"]["members"]:
        flag = "" if member["essential"] else "  [inessential]"
        rows = "; ".join(",".join(row) for row in member["basis"]) or "-"
        lines.append(f"  dim {member['dim']}  {member['provenance']}  <{rows}>{flag}")
    aut = report["automorphisms"]
    lines.append(f"block sizes: {report['adapted_basis']['block_sizes']}")
    lines.append(f"equations: {len(aut['equations'])}")
    lines.append("assignments:")
    for name, value in aut["assignments"].items():
        lines.append(f"  {name} = {value}")
    lines.append(f"free parameters: {', '.join(aut['free_parameters']) or '-'}")
    if aut["residual_equations"]:
        lines.append("residual equations:")
        for eq in aut["residual_equations"]:
            lines.append(f"  {eq} = 0")
    invariant = aut.get("invariant_coordinate_subspaces")
    if invariant is not None:
        lines.append("invariant coordinate subspaces:")
        for s in invariant:
            rows = "; ".join(",".join(row) for row in s["basis"]) or "-"
            lines.append(f"  dim {s['dim']}  <{rows}>")
    inner = report.get("inner_consistency")
    if inner is not None:
        lines.append(f"inner-automorphism consistency: {'ok' if inner['ok'] else 'FAILED'}")
    return "\n".join(lines) + "\n"


def _render_table_text(table: dict) -> str:
    lines = [f"variables: {', '.join(table['variables'])}"]
    for entry in table["brackets"]:
        components = entry["bracket"]
        body = " + ".join(f"({p})@{v}" for v, p in components.items()) or "0"
        lines.append(f"[{entry['left']},{entry['right']}] = {body}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> int:
    g = _load(args.file, algebra_from_dict, FormatError)
    report = validate(g)
    _write(canonical_json(validation_dict(report)), args.out)
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_analyze(args) -> int:
    g = _load(args.file, algebra_from_dict, FormatError)
    options = AnalyzeOptions(
        budget=args.budget,
        full_transporter=args.full_prop34,
        max_enum_dim=args.max_enum_dim,
    )
    report = analyze(g, options, input_digest=_digest(args.file))
    text = _render_analysis_text(report) if args.text else canonical_json(report)
    _write(text, args.out)
    if not report["validation"]["ok"]:
        return EXIT_INVALID
    if report["automorphisms"]["residual_equations"]:
        return EXIT_INCOMPLETE
    return EXIT_OK


def _cmd_vf_bracket_table(args) -> int:
    variables, named_fields = _load(args.file, fields_from_dict, _POLY_FORMAT_ERRORS)
    entries = []
    for i in range(len(named_fields)):
        for j in range(i + 1, len(named_fields)):
            left_name, left = named_fields[i]
            right_name, right = named_fields[j]
            br = lie_bracket(left, right)
            entries.append(
                {
                    "left": left_name,
                    "right": right_name,
                    "bracket": {
                        v: br.components[v].to_str() for v in variables if v in br.components
                    },
                }
            )
    table = {"variables": list(variables), "brackets": entries}
    text = _render_table_text(table) if args.text else canonical_json(table)
    _write(text, args.out)
    return EXIT_OK


def _cmd_vf_extract(args) -> int:
    variables, named_fields = _load(args.file, fields_from_dict, _POLY_FORMAT_ERRORS)
    chosen = _select_fields(named_fields, args.fields, args.file)
    if not chosen:
        raise CliError(EXIT_FORMAT, f"{args.file}: no fields given")
    name = args.name if args.name else ",".join(n for n, _ in chosen)
    try:
        algebra = extract_structure(chosen, name=name)
    except NotClosed as exc:
        detail = {
            "error": "NotClosed",
            "left": exc.left,
            "right": exc.right,
            "bracket": {
                v: exc.bracket.components[v].to_str()
                for v in variables
                if v in exc.bracket.components
            },
        }
        sys.stderr.write(canonical_json(detail))
        return EXIT_INCOMPLETE
    except LinearlyDependent as exc:
        detail = {
            "error": "LinearlyDependent",
            "relation": {k: str(v) for k, v in exc.relation.items()},
        }
        sys.stderr.write(canonical_json(detail))
        return EXIT_INCOMPLETE
    _write(canonical_json(algebra_to_dict(algebra)), args.out)
    return EXIT_OK


def _cmd_vf_pushforward(args) -> int:
    variables, named_fields = _load(args.file, fields_from_dict, _POLY_FORMAT_ERRORS)
    pm = _load(args.map, pointmap_from_dict, _POLY_FORMAT_ERRORS)
    if pm.variables != variables:
        raise CliError(EXIT_FORMAT, "map and field files declare different variables")
    chosen = _select_fields(named_fields, args.fields, args.file)
    pushed = [(name, pushforward(pm, fld)) for name, fld in chosen]
    _write(canonical_json(fields_to_dict(variables, pushed)), args.out)
    return EXIT_OK


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="megalie",
        description="Exact structure analysis of finite-dimensional Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check antisymmetry and the Jacobi identity")
    p_validate.add_argument("file")
    p_validate.add_argument("--out", default=None)
    p_validate.set_defaults(func=_cmd_validate)

    p_analyze = sub.add_parser("analyze", help="run the full analysis pipeline")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--text", action="store_true", help="human-readable projection")
    p_analyze.add_argument("--out", default=None)
    p_analyze.add_argument(
        "--budget", type=_non_negative_int, default=4, help="closure pass budget"
    )
    p_analyze.add_argument(
        "--full-prop34",
        action="store_true",
        help="enumerate all transporter triples (no dimension pruning)",
    )
    p_analyze.add_argument(
        "--max-enum-dim",
        type=_non_negative_int,
        default=16,
        help="cap for the 2^n invariance scan",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_vf = sub.add_parser("vf", help="polynomial vector-field operations")
    vf_sub = p_vf.add_subparsers(dest="vf_command", required=True)

    p_table = vf_sub.add_parser("bracket-table", help="all pairwise Lie brackets")
    p_table.add_argument("file")
    p_table.add_argument("--text", action="store_true")
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=_cmd_vf_bracket_table)

    p_extract = vf_sub.add_parser("extract", help="structure constants of a closed span")
    p_extract.add_argument("file")
    p_extract.add_argument("--fields", default=None, help="comma-separated field names")
    p_extract.add_argument("--name", default=None, help="name for the emitted algebra")
    p_extract.add_argument("--out", default=None)
    p_extract.set_defaults(func=_cmd_vf_extract)

    p_push = vf_sub.add_parser("pushforward", help="apply a point map to fields")
    p_push.add_argument("file")
    p_push.add_argument("map")
    p_push.add_argument("--fields", default=None, help="comma-separated field names")
    p_push.add_argument("--out", default=None)
    p_push.set_defaults(func=_cmd_vf_pushforward)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except Exception as exc:
        # Last resort: a defect, not an input problem.  SystemExit and
        # KeyboardInterrupt are not Exceptions and pass through.
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        detail = {
            "error": "InternalError",
            "type": type(exc).__name__,
            "message": str(exc),
            "where": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
        }
        sys.stderr.write(json.dumps(detail, ensure_ascii=False) + "\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
