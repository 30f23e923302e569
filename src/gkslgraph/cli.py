"""Command-line interface.

Every command reads a spec JSON file (or a directory of them with
``--batch``) and emits a JSON result envelope carrying the command name,
input path, input SHA-256, tolerance, payload, and diagnostics.  Exit
codes: 0 on success, 1 for invalid or unparseable specs (and crosscheck
disagreement), 2 when ``--strict`` turns an analytic-precondition fallback
into a failure.  Usage errors follow argparse conventions.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy.linalg

from .basis import DEFAULT_TOL, to_standard_coordinates
from .digraph import _sink_report, induced_digraph, to_dot, tscc_stationary_vectors
from .generator import GellMannSpec, canonicalize, gellmann_to_standard, validate
from .io import (
    SpecParseError,
    dump_json,
    file_sha256,
    load_spec,
    load_state,
    matrix_to_document,
    spec_to_document,
)
from .kernel import (
    PreconditionError,
    block_eigenpairs,
    brute_force_kernel,
    full_kernel,
    verify_invariant,
)

__all__ = ["main", "app", "CROSSCHECK_ANGLE_TOL"]

#: Largest principal angle at which analytic and oracle kernels agree.
CROSSCHECK_ANGLE_TOL = 1e-7


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _as_standard(spec):
    if isinstance(spec, GellMannSpec):
        return gellmann_to_standard(spec)
    return spec


def _valid_standard(spec, tol: float, input_path):
    """The spec over the standard basis; exit 1 unless it validates."""
    std = _as_standard(spec)
    report = validate(std, tol)
    if not report.verdict:
        raise _Failure(
            1, f"{input_path}: generator failed validation ({report.summary})"
        )
    return std


def _complex_doc(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _kernel_payload(basis) -> dict:
    return {
        "method": basis.method,
        "dimension": basis.dimension,
        "elements": [
            {
                "tag": el.tag,
                "support": list(el.support) if el.support is not None else None,
                "matrix": matrix_to_document(el.matrix),
            }
            for el in basis.elements
        ],
    }


def _coordinate_stack(basis, N: int) -> np.ndarray:
    cols = [to_standard_coordinates(el.matrix) for el in basis.elements]
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# Command handlers: (exit code, payload, dot text or None, diagnostics)
# ---------------------------------------------------------------------------


def _cmd_validate(spec, input_path, args, tol):
    report = validate(_as_standard(spec), tol)
    payload = {
        "verdict": report.verdict,
        "psd_on_traceless": report.psd_on_traceless,
        "trace_condition": report.trace_condition,
        "offending_eigenvalue": report.offending_eigenvalue,
        "trace_witness": list(report.trace_witness)
        if report.trace_witness is not None
        else None,
    }
    return (0 if report.verdict else 1), payload, None, []


def _cmd_canonicalize(spec, input_path, args, tol):
    std = _valid_standard(spec, tol, input_path)
    canon = canonicalize(std, tol)
    return 0, {"spec": spec_to_document(canon)}, None, []


def _cmd_digraph(spec, input_path, args, tol):
    graph = induced_digraph(spec, tol)
    report = _sink_report(spec, graph, tol)
    stationary = tscc_stationary_vectors(graph)
    payload = {
        "vertices": graph.n,
        "edges": [
            {"src": src, "dst": dst, "weight": graph.weights[(src, dst)]}
            for src, dst in sorted(graph.weights)
        ],
        "components": [list(c) for c in graph.scc.components],
        "terminal": list(graph.scc.terminal),
        "sinks": list(report.sinks),
        "two_sinks": [list(p) for p in report.two_sinks],
        "singular_two_sinks": [list(p) for p in report.singular_two_sinks],
        "stationary": [
            {
                "component": list(sv.component),
                "rho": [float(x) for x in sv.rho],
                "rho_tilde": list(sv.rho_tilde),
                "normalization": sv.normalization,
            }
            for sv in stationary
        ],
    }
    return 0, payload, to_dot(graph, report), []


def _cmd_kernel(spec, input_path, args, tol):
    std = _valid_standard(spec, tol, input_path)
    try:
        basis = full_kernel(std, tol)
        return 0, _kernel_payload(basis), None, list(basis.diagnostics)
    except PreconditionError as exc:
        basis = brute_force_kernel(std, tol)
        payload = _kernel_payload(basis)
        payload["fallback_reason"] = str(exc)
        return (2 if args.strict else 0), payload, None, []


def _cmd_eigen(spec, input_path, args, tol):
    std = _valid_standard(spec, tol, input_path)
    try:
        plus, minus = block_eigenpairs(std, args.pair, tol)
    except PreconditionError as exc:
        raise _Failure(1, f"{input_path}: {exc}") from exc
    payload = {
        "pair": list(args.pair),
        "plus": {"mu": _complex_doc(plus.mu), "matrix": matrix_to_document(plus.matrix)},
        "minus": {
            "mu": _complex_doc(minus.mu),
            "matrix": matrix_to_document(minus.matrix),
        },
    }
    return 0, payload, None, []


def _cmd_check_state(spec, input_path, args, tol):
    std = _valid_standard(spec, tol, input_path)
    state = load_state(args.state)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        invariant = verify_invariant(std, state, args.times, tol)
    diagnostics = [str(w.message) for w in caught]
    payload = {"invariant": invariant, "times": list(args.times)}
    return 0, payload, None, diagnostics


def _cmd_oracle(spec, input_path, args, tol):
    basis = brute_force_kernel(_as_standard(spec), tol)
    return 0, _kernel_payload(basis), None, []


def _cmd_crosscheck(spec, input_path, args, tol):
    std = _valid_standard(spec, tol, input_path)
    oracle = brute_force_kernel(std, tol)
    try:
        analytic = full_kernel(std, tol)
    except PreconditionError as exc:
        payload = {
            "analytic_available": False,
            "reason": str(exc),
            "oracle_dimension": oracle.dimension,
        }
        return (2 if args.strict else 0), payload, None, []
    angle = None
    if analytic.dimension and oracle.dimension:
        angles = scipy.linalg.subspace_angles(
            _coordinate_stack(analytic, std.N), _coordinate_stack(oracle, std.N)
        )
        angle = float(angles.max()) if angles.size else 0.0
    agree = (
        analytic.dimension == oracle.dimension
        and angle is not None
        and angle <= CROSSCHECK_ANGLE_TOL
    )
    payload = {
        "analytic_available": True,
        "analytic_dimension": analytic.dimension,
        "oracle_dimension": oracle.dimension,
        "max_principal_angle": angle,
        "agree": agree,
    }
    return (0 if agree else 1), payload, None, list(analytic.diagnostics)


_HANDLERS = {
    "validate": _cmd_validate,
    "canonicalize": _cmd_canonicalize,
    "digraph": _cmd_digraph,
    "kernel": _cmd_kernel,
    "eigen": _cmd_eigen,
    "check-state": _cmd_check_state,
    "oracle": _cmd_oracle,
    "crosscheck": _cmd_crosscheck,
}


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _pair_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected K,L (two comma-separated levels)")
    try:
        k, ell = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("pair levels must be integers") from None
    return k, ell


def _times_arg(text: str) -> list[float]:
    try:
        times = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("times must be comma-separated numbers") from None
    if not times:
        raise argparse.ArgumentTypeError("at least one time is required")
    return times


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "input", help="spec JSON file, or a directory of them with --batch"
    )
    common.add_argument(
        "--out",
        default=None,
        help="output path (single mode) or output directory (--batch)",
    )
    common.add_argument(
        "--batch",
        action="store_true",
        help="treat INPUT as a directory; process every *.json in it",
    )
    common.add_argument(
        "--tol",
        type=float,
        default=None,
        help="numeric tolerance (default: GKSLGRAPH_TOL env var, then 1e-9)",
    )

    parser = argparse.ArgumentParser(
        prog="gkslgraph",
        description="Invariant-state analysis of GKSL generators via their "
        "induced digraph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common], help="check GKSL structure")
    sub.add_parser(
        "canonicalize",
        parents=[common],
        help="emit the equivalent traceless-sector form",
    )
    sub.add_parser(
        "digraph",
        parents=[common],
        help="induced digraph: DOT to --out, summary JSON to stdout",
    )
    p_kernel = sub.add_parser(
        "kernel", parents=[common], help="exact kernel basis (oracle fallback)"
    )
    p_kernel.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 instead of falling back to the oracle",
    )
    p_eigen = sub.add_parser(
        "eigen", parents=[common], help="eigenpairs of one off-diagonal pair block"
    )
    p_eigen.add_argument(
        "--pair", type=_pair_arg, required=True, metavar="K,L", help="level pair"
    )
    p_check = sub.add_parser(
        "check-state", parents=[common], help="verify a state is invariant"
    )
    p_check.add_argument("--state", required=True, help="state JSON file")
    p_check.add_argument(
        "--times",
        type=_times_arg,
        required=True,
        metavar="T1,T2,...",
        help="evolution times to test",
    )
    sub.add_parser(
        "oracle", parents=[common], help="numeric kernel basis from the superoperator"
    )
    p_cross = sub.add_parser(
        "crosscheck", parents=[common], help="compare analytic kernel to the oracle"
    )
    p_cross.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when the analytic preconditions fail",
    )
    return parser


def _resolve_tol(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("GKSLGRAPH_TOL")
    if env is not None and env != "":
        try:
            return float(env)
        except ValueError:
            raise _Failure(1, f"GKSLGRAPH_TOL is not a number: {env!r}") from None
    return DEFAULT_TOL


def _envelope(command, input_path, tol, payload, diagnostics) -> dict:
    doc = {
        "command": command,
        "input": str(input_path),
        "spec_sha256": file_sha256(input_path),
        "tolerance": float(tol),
    }
    doc.update(payload)
    doc["diagnostics"] = list(diagnostics)
    return doc


def _process(command, input_path, args, tol):
    """Load and dispatch; returns (code, envelope doc, dot text or None)."""
    try:
        spec = load_spec(input_path)
    except FileNotFoundError as exc:
        raise _Failure(1, f"{input_path}: {exc}") from exc
    except SpecParseError as exc:
        raise _Failure(1, f"{input_path}: {exc}") from exc
    code, payload, dot, diagnostics = _HANDLERS[command](spec, input_path, args, tol)
    return code, _envelope(command, input_path, tol, payload, diagnostics), dot


def _run_single(args, tol, parser) -> int:
    if args.command == "digraph" and not args.out:
        parser.error("digraph requires --out for the DOT file")
    input_path = Path(args.input)
    try:
        code, doc, dot = _process(args.command, input_path, args, tol)
    except _Failure as failure:
        print(f"error: {failure.message}", file=sys.stderr)
        return failure.code
    text = dump_json(doc) + "\n"
    if args.command == "digraph":
        Path(args.out).write_text(dot)
        sys.stdout.write(text)
    elif args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


def _run_batch(args, tol, parser) -> int:
    if not args.out:
        parser.error("--batch requires --out (an output directory)")
    in_dir = Path(args.input)
    if not in_dir.is_dir():
        print(f"error: {in_dir}: not a directory", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for input_path in sorted(in_dir.glob("*.json")):
        try:
            code, doc, dot = _process(args.command, input_path, args, tol)
        except _Failure as failure:
            print(f"error: {failure.message}", file=sys.stderr)
            worst = max(worst, failure.code)
            continue
        stem = input_path.stem
        (out_dir / f"{stem}.{args.command}.json").write_text(dump_json(doc) + "\n")
        if args.command == "digraph":
            (out_dir / f"{stem}.dot").write_text(dot)
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _resolve_tol(args)
    except _Failure as failure:
        print(f"error: {failure.message}", file=sys.stderr)
        return failure.code
    if args.batch:
        return _run_batch(args, tol, parser)
    return _run_single(args, tol, parser)


def app() -> None:
    sys.exit(main())
