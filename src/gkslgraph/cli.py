"""Command-line interface.

Every command reads a spec JSON file (or a directory of them with
``--batch``) and emits a JSON result envelope carrying the command name,
input path, input SHA-256, tolerance, payload, and diagnostics.  Exit
codes: 0 on success, 1 for invalid or unparseable specs, results that hold
a NaN or infinite number (``check-state``'s residual and drifts, and the
oracle's superoperator, included), outputs that cannot be written and
crosscheck disagreement, 2 when ``--strict`` turns an
analytic-precondition fallback into a failure.  Usage errors follow
argparse conventions.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import math
import os
import stat
import sys
import warnings
from pathlib import Path

import numpy as np

from .basis import DEFAULT_TOL, to_standard_coordinates
from .digraph import _sinks_and_two_cycles, induced_digraph, to_dot, tscc_stationary_vectors
from .generator import (
    InvalidGeneratorError,
    _require_valid,
    _singularity_checks,
    canonicalize,
    validate,
)
from .io import (
    SpecParseError,
    _decode_document,
    dump_json,
    load_state,
    matrix_to_document,
    parse_spec_document,
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


def _coordinate_stack(basis) -> np.ndarray:
    cols = [to_standard_coordinates(el.matrix) for el in basis.elements]
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# Command handlers: (exit code, payload, dot text or None, diagnostics)
# ---------------------------------------------------------------------------


def _cmd_validate(spec, input_path, args):
    report = validate(spec, args.tol)
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


def _cmd_canonicalize(spec, input_path, args):
    canon = canonicalize(spec, args.tol)
    return 0, {"spec": spec_to_document(canon)}, None, []


def _cmd_digraph(spec, input_path, args):
    graph = induced_digraph(spec, args.tol)
    sinks, two_sinks = _sinks_and_two_cycles(graph)
    singular = [
        pair for pair in two_sinks
        if all(value <= bound for value, bound in _singularity_checks(spec, *pair, args.tol))
    ]
    stationary = tscc_stationary_vectors(graph)
    payload = {
        "vertices": graph.n,
        "edges": [{"src": src, "dst": dst, "weight": w} for src, dst, w in graph.edges()],
        "components": [list(c) for c in graph.scc.components],
        "terminal": list(graph.scc.terminal),
        "sinks": list(sinks),
        "two_sinks": [list(p) for p in two_sinks],
        "singular_two_sinks": [list(p) for p in singular],
        "stationary": [
            {
                "component": list(sv.component),
                "rho": [float(x) for x in sv.rho],
                "log_normalization": sv.log_normalization,
            }
            for sv in stationary
        ],
    }
    return 0, payload, to_dot(graph, singular), []


def _cmd_kernel(spec, input_path, args):
    _require_valid(spec, args.tol)
    try:
        basis = full_kernel(spec, args.tol)
        return 0, _kernel_payload(basis), None, list(basis.diagnostics)
    except PreconditionError as exc:
        basis = brute_force_kernel(spec, args.tol)
        payload = _kernel_payload(basis)
        payload["fallback_reason"] = str(exc)
        return (2 if args.strict else 0), payload, None, []


def _cmd_eigen(spec, input_path, args):
    _require_valid(spec, args.tol)
    try:
        plus, minus = block_eigenpairs(spec, args.pair, args.tol)
    except ValueError as exc:  # a PreconditionError, or no such level pair
        raise _Failure(1, f"{input_path}: {exc}") from exc
    payload = {
        "pair": list(args.pair),
        "plus": {"mu": matrix_to_document(plus.mu), "matrix": matrix_to_document(plus.matrix)},
        "minus": {"mu": matrix_to_document(minus.mu), "matrix": matrix_to_document(minus.matrix)},
    }
    return 0, payload, None, []


def _cmd_check_state(spec, input_path, args):
    try:
        state = load_state(args.state)
    except (OSError, SpecParseError) as exc:
        raise _Failure(1, f"{args.state}: {exc}") from exc
    try:
        invariant = verify_invariant(spec, state, args.times, args.tol)
    except InvalidGeneratorError:
        raise  # reported against the spec by _process
    except ValueError as exc:  # the state's shape
        raise _Failure(1, f"{args.state}: {exc}") from exc
    payload = {"invariant": invariant, "times": list(args.times)}
    return 0, payload, None, []


def _cmd_oracle(spec, input_path, args):
    basis = brute_force_kernel(spec, args.tol)
    return 0, _kernel_payload(basis), None, []


def _cmd_crosscheck(spec, input_path, args):
    _require_valid(spec, args.tol)
    oracle = brute_force_kernel(spec, args.tol)
    try:
        analytic = full_kernel(spec, args.tol)
    except PreconditionError as exc:
        payload = {
            "analytic_available": False,
            "reason": str(exc),
            "oracle_dimension": oracle.dimension,
        }
        return (2 if args.strict else 0), payload, None, []
    angle = None
    if analytic.dimension and oracle.dimension:
        import scipy.linalg  # here, not at module level: its import is most of the CLI's start-up
        angles = scipy.linalg.subspace_angles(
            _coordinate_stack(analytic), _coordinate_stack(oracle)
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


#: Each command's handler and help line, in the order ``--help`` lists them.
_COMMANDS = {
    "validate": (_cmd_validate, "check GKSL structure"),
    "canonicalize": (_cmd_canonicalize, "emit the equivalent traceless-sector form"),
    "digraph": (_cmd_digraph, "induced digraph: DOT to --out, summary JSON to stdout"),
    "kernel": (_cmd_kernel, "exact kernel basis (oracle fallback)"),
    "eigen": (_cmd_eigen, "eigenpairs of one off-diagonal pair block"),
    "check-state": (_cmd_check_state, "verify a state is invariant"),
    "oracle": (_cmd_oracle, "numeric kernel basis from the superoperator"),
    "crosscheck": (_cmd_crosscheck, "compare analytic kernel to the oracle"),
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
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise argparse.ArgumentTypeError(f"times must be finite and >= 0, got {text!r}")
    return times


def _tol_arg(text: str) -> float:
    """A tolerance: a finite number, zero or more."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return tol


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
        type=_tol_arg,
        default=DEFAULT_TOL,
        help=f"numeric tolerance (default: {DEFAULT_TOL:g})",
    )

    parser = argparse.ArgumentParser(
        prog="gkslgraph",
        description="Invariant-state analysis of GKSL generators via their "
        "induced digraph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, parents=[common], help=text)
        for name, (_, text) in _COMMANDS.items()
    }
    commands["kernel"].add_argument(
        "--strict", action="store_true", help="exit 2 instead of falling back to the oracle"
    )
    commands["eigen"].add_argument(
        "--pair", type=_pair_arg, required=True, metavar="K,L", help="level pair"
    )
    commands["check-state"].add_argument("--state", required=True, help="state JSON file")
    commands["check-state"].add_argument(
        "--times", type=_times_arg, required=True, metavar="T1,T2,...",
        help="evolution times to test",
    )
    commands["crosscheck"].add_argument(
        "--strict", action="store_true", help="exit 2 when the analytic preconditions fail"
    )
    return parser


@contextlib.contextmanager
def _collector_paused():
    """Pause Python's cyclic garbage collector; restore it as it was found on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def _process(input_path, args):
    """Load, dispatch and serialize; returns (code, JSON text, dot text or None).

    The spec file is read once: the envelope's ``spec_sha256`` names the
    bytes that were parsed.  Every warning the command raises is recorded,
    not printed, and appended to ``diagnostics``; a failure drops them.
    A number that is not finite where the command needs one (the oracle's
    superoperator, ``check-state``'s drift) fails like an invalid spec.
    A spec too large for memory (the dense N^2 x N^2 gamma of a large N)
    fails like an invalid one, naming the path.

    The cyclic garbage collector is paused for the whole call (each call
    gets a fresh pause).  The decoder reads each matrix flat, but a
    ``blocks`` spec's ``pairs`` list is still decoded into small lists,
    and so is every matrix of a document that takes json's plain route (an
    indented matrix, or the second decode of a document json rejects): at
    most N^4 ``[re, im]`` lists, which the collector would traverse again
    and again while it can free none of them, since a JSON tree holds no
    reference cycle.  It is restored as it was found, on return or on any
    exception, so ``--batch`` collects between files.
    """
    try:
        data = input_path.read_bytes()
        spec = parse_spec_document(_decode_document(data))
    except (OSError, SpecParseError) as exc:
        raise _Failure(1, f"{input_path}: {exc}") from exc
    except MemoryError as exc:
        raise _out_of_memory(input_path, exc) from exc
    handler = _COMMANDS[args.command][0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code, payload, dot, diagnostics = handler(spec, input_path, args)
        except (InvalidGeneratorError, FloatingPointError) as exc:
            raise _Failure(1, f"{input_path}: {exc}") from exc
        except MemoryError as exc:
            raise _out_of_memory(input_path, exc) from exc
    doc = {
        "command": args.command,
        "input": str(input_path),
        "spec_sha256": hashlib.sha256(data).hexdigest(),
        "tolerance": float(args.tol),
        **payload,
        "diagnostics": [*diagnostics, *(str(w.message) for w in caught)],
    }
    try:
        text = dump_json(doc) + "\n"
    except ValueError as exc:  # a NaN or infinite number in the result
        raise _Failure(1, f"{input_path}: cannot write the result as JSON ({exc})") from exc
    return code, text, dot


def _out_of_memory(input_path: Path, exc: MemoryError) -> _Failure:
    detail = f" ({exc})" if str(exc) else ""
    return _Failure(1, f"{input_path}: out of memory{detail}")


def _write(path: Path, text: str) -> None:
    """Write text to path; exit 1 naming the path if it cannot be written.

    An existing file is rewritten in place and then cut to the new length,
    never truncated to 0 first: on ext4 (default ``auto_da_alloc``), closing
    a file that was truncated to 0 starts its write to disk, and the next
    truncation waits for that write, tens of ms per overwrite.  Only a
    regular file is cut, so ``/dev/null``, a FIFO or a tty still work.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as out:
            out.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fd).st_mode):
                out.truncate()
    except OSError as exc:
        raise _Failure(1, f"{path}: {exc.strerror or exc}") from exc


def _jobs(args, parser) -> list[tuple[Path, Path | None, Path | None]]:
    """``(input, JSON path or None for stdout, DOT path or None)`` of each file to run.

    A single input is a batch of one.  ``--batch`` runs every ``*.json`` of
    the input directory, in name order, into the ``--out`` directory, which
    is made first; a failure to make it, or an input that is not a
    directory, raises :class:`_Failure`.
    """
    digraph = args.command == "digraph"
    out = Path(args.out) if args.out else None
    if not args.batch:
        if digraph and out is None:
            parser.error("digraph requires --out for the DOT file")
        return [(Path(args.input), None, out) if digraph else (Path(args.input), out, None)]
    if out is None:
        parser.error("--batch requires --out (an output directory)")
    in_dir = Path(args.input)
    if not in_dir.is_dir():
        raise _Failure(1, f"{in_dir}: not a directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Failure(1, f"{out}: {exc.strerror or exc}") from exc
    return [
        (
            path,
            out / f"{path.stem}.{args.command}.json",
            out / f"{path.stem}.dot" if digraph else None,
        )
        for path in sorted(in_dir.glob("*.json"))
    ]


def main(argv=None) -> int:
    """Run the command on each input; exit with the worst code.

    A failing input prints one ``error:`` line and the run goes on to the
    next.  A result's files are written before its JSON goes to stdout.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        jobs = _jobs(args, parser)
    except _Failure as failure:
        print(f"error: {failure.message}", file=sys.stderr)
        return failure.code
    worst = 0
    for input_path, json_path, dot_path in jobs:
        try:
            code, text, dot = _process(input_path, args)
            if json_path is not None:
                _write(json_path, text)
            if dot_path is not None:
                _write(dot_path, dot)
        except _Failure as failure:
            print(f"error: {failure.message}", file=sys.stderr)
            worst = max(worst, failure.code)
            continue
        if json_path is None:
            sys.stdout.write(text)
        worst = max(worst, code)
    return worst


def app() -> None:
    sys.exit(main())
