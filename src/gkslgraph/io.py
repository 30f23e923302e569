"""JSON input/output for generator specs, states, and results.

Complex entries are encoded as two-element ``[re, im]`` arrays throughout.
A spec document carries the dimension, the basis ordering of the
coefficient matrix ("standard" or "gellmann"), the Hamiltonian, and the
coefficient matrix either dense or (standard basis only) as a list of 2x2
pair blocks plus a diagonal-sector matrix.  A "gellmann" document is
checked as a :class:`GellMannSpec` and converted to the standard basis as
it is read, so every parsed spec is a :class:`GeneratorSpec`.  Parsing is
strict: unknown fields, malformed entries, and duplicate pair blocks are
rejected with the offending field path in the message.

Emission is hand-rolled so that every float is written with 17 significant
digits (exact binary round-trip), which the stdlib serializer does not
offer.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .basis import _pair_block
from .generator import GellMannSpec, GeneratorSpec, gellmann_to_standard

__all__ = [
    "SpecParseError",
    "parse_spec_document",
    "parse_state_document",
    "load_spec",
    "load_state",
    "spec_to_document",
    "matrix_to_document",
    "dump_json",
    "file_sha256",
]


class SpecParseError(ValueError):
    """A document violates the spec-file schema; message names the field."""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecParseError(
            f"{where}: expected a number, got {type(value).__name__}"
        )
    try:
        number = float(value)
    except OverflowError:  # an int beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise SpecParseError(f"{where}: expected a finite number, got {number!r}")
    return number


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecParseError(
            f"{where}: expected an integer, got {type(value).__name__}"
        )
    return value


def _parse_complex(value, where: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise SpecParseError(f"{where}: expected a [re, im] pair")
    return complex(
        _require_number(value[0], f"{where}[0]"),
        _require_number(value[1], f"{where}[1]"),
    )


def _numeric_cmatrix(value, rows: int, cols: int) -> np.ndarray | None:
    """The rows x cols matrix of [re, im] pairs in ``value``, or None if malformed.

    Types and lengths are checked exactly (rows of entries that are lists,
    numbers that are int or float, never bool or str) before numpy converts
    the numbers at once; numpy alone would accept numeric strings and
    booleans.  Non-finite numbers (JSON's ``NaN`` and ``Infinity``) also
    give None.
    """
    if type(value) is not list or len(value) != rows:
        return None
    if not _lists_of_length(value, cols):
        return None
    entries = list(chain.from_iterable(value))
    if not _lists_of_length(entries, 2):
        return None
    numbers = list(chain.from_iterable(entries))
    if not set(map(type, numbers)) <= {int, float}:
        return None
    try:
        flat = np.fromiter(numbers, dtype=np.float64, count=len(numbers))
    except OverflowError:  # an int beyond float range
        return None
    if not np.isfinite(flat).all():
        return None
    flat.setflags(write=False)  # a spec keeps the view instead of a copy
    return flat.view(np.complex128).reshape(rows, cols)


def _lists_of_length(items, length: int) -> bool:
    return set(map(type, items)) <= {list} and set(map(len, items)) <= {length}


def _parse_cmatrix(value, rows: int, cols: int, where: str) -> np.ndarray:
    fast = _numeric_cmatrix(value, rows, cols)
    if fast is not None:
        return fast
    # Walk the entries to name the first bad field in the error.
    if not isinstance(value, list) or len(value) != rows:
        raise SpecParseError(f"{where}: expected {rows} rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise SpecParseError(f"{where}[{r}]: expected {cols} entries")
        for c, entry in enumerate(row):
            out[r, c] = _parse_complex(entry, f"{where}[{r}][{c}]")
    return out


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise SpecParseError(f"{where}: unknown field(s) {unknown}")


def parse_spec_document(doc) -> GeneratorSpec:
    """Parse a spec document into a generator over the standard basis."""
    if not isinstance(doc, dict):
        raise SpecParseError("top level: expected an object")
    _reject_unknown(doc, {"N", "basis", "H", "gamma"}, "top level")
    for name in ("N", "H", "gamma"):
        if name not in doc:
            raise SpecParseError(f"top level: missing required field {name!r}")
    N = _require_int(doc["N"], "N")
    if N < 1:
        raise SpecParseError(f"N: must be positive, got {N}")
    basis = doc.get("basis", "standard")
    if basis not in ("standard", "gellmann"):
        raise SpecParseError(f'basis: expected "standard" or "gellmann", got {basis!r}')
    H = _parse_cmatrix(doc["H"], N, N, "H")

    gamma_doc = doc["gamma"]
    if not isinstance(gamma_doc, dict):
        raise SpecParseError("gamma: expected an object")
    fmt = gamma_doc.get("format")
    if fmt is None:
        raise SpecParseError("gamma: missing required field 'format'")

    if fmt == "dense":
        _reject_unknown(gamma_doc, {"format", "matrix"}, "gamma")
        if "matrix" not in gamma_doc:
            raise SpecParseError("gamma: missing required field 'matrix'")
        size = N * N if basis == "standard" else N * N - 1
        M = _parse_cmatrix(gamma_doc["matrix"], size, size, "gamma.matrix")
    elif fmt == "blocks":
        if basis == "gellmann":
            raise SpecParseError(
                "gamma.format: the blocks form is only defined over the "
                "standard basis"
            )
        _reject_unknown(gamma_doc, {"format", "pairs", "diag"}, "gamma")
        M = np.zeros((N * N, N * N), dtype=np.complex128)
        pairs = gamma_doc.get("pairs", [])
        if not isinstance(pairs, list):
            raise SpecParseError("gamma.pairs: expected a list")
        seen: set[tuple[int, int]] = set()
        for t, pdoc in enumerate(pairs):
            where = f"gamma.pairs[{t}]"
            if not isinstance(pdoc, dict):
                raise SpecParseError(f"{where}: expected an object")
            _reject_unknown(pdoc, {"i", "j", "block"}, where)
            for name in ("i", "j", "block"):
                if name not in pdoc:
                    raise SpecParseError(
                        f"{where}: missing required field {name!r}"
                    )
            i = _require_int(pdoc["i"], f"{where}.i")
            j = _require_int(pdoc["j"], f"{where}.j")
            if not (1 <= i < j <= N):
                raise SpecParseError(
                    f"{where}: expected 1 <= i < j <= {N}, got i={i}, j={j}"
                )
            if (i, j) in seen:
                raise SpecParseError(f"{where}: duplicate pair ({i}, {j})")
            seen.add((i, j))
            block = _parse_cmatrix(pdoc["block"], 2, 2, f"{where}.block")
            _pair_block(M, i, j, N)[...] = block
        if "diag" in gamma_doc:
            M[-N:, -N:] = _parse_cmatrix(gamma_doc["diag"], N, N, "gamma.diag")
        M.setflags(write=False)  # the spec keeps this array instead of a copy
    else:
        raise SpecParseError(
            f'gamma.format: expected "dense" or "blocks", got {fmt!r}'
        )

    try:
        if basis == "standard":
            return GeneratorSpec(H=H, gamma=M)
        return gellmann_to_standard(GellMannSpec(H=H, C=M))
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc


def parse_state_document(doc) -> np.ndarray:
    """Parse a state document ({"matrix": N x N of [re, im]})."""
    if not isinstance(doc, dict):
        raise SpecParseError("top level: expected an object")
    _reject_unknown(doc, {"matrix"}, "top level")
    if "matrix" not in doc:
        raise SpecParseError("top level: missing required field 'matrix'")
    value = doc["matrix"]
    if not isinstance(value, list) or not value:
        raise SpecParseError("matrix: expected a non-empty list of rows")
    n = len(value)
    return _parse_cmatrix(value, n, n, "matrix")


def _load_document(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"{path}: invalid JSON ({exc})") from exc


def load_spec(path: str | Path) -> GeneratorSpec:
    return parse_spec_document(_load_document(path))


def load_state(path: str | Path) -> np.ndarray:
    return parse_state_document(_load_document(path))


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def matrix_to_document(M: np.ndarray) -> list:
    """Nested [re, im] lists for a complex matrix."""
    M = np.asarray(M, dtype=np.complex128)
    return [
        [[float(z.real), float(z.imag)] for z in row] for row in M
    ]


def spec_to_document(spec: GeneratorSpec) -> dict:
    """Dense re-parseable document over the standard basis."""
    return {
        "N": spec.N,
        "basis": "standard",
        "H": matrix_to_document(spec.H),
        "gamma": {"format": "dense", "matrix": matrix_to_document(spec.gamma)},
    }


def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite float {v!r}")
    if v == 0.0:
        v = 0.0  # normalize -0.0 so output text re-parses to itself
    return format(v, ".17g")


def _format_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        return _format_float(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, str, int, float))


def _emit(value, level: int, out: list[str], indent: int) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for t, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            out.append(f"{inner}{json.dumps(key)}: ")
            _emit(item, level + 1, out, indent)
            out.append(",\n" if t < len(value) - 1 else "\n")
        out.append(pad + "}")
        return
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        if all(_is_scalar(item) for item in items):
            out.append("[" + ", ".join(_format_scalar(item) for item in items) + "]")
            return
        out.append("[\n")
        for t, item in enumerate(items):
            out.append(inner)
            _emit(item, level + 1, out, indent)
            out.append(",\n" if t < len(items) - 1 else "\n")
        out.append(pad + "]")
        return
    out.append(_format_scalar(value))


def dump_json(value, indent: int = 2) -> str:
    """Serialize to JSON with floats at 17 significant digits (no newline)."""
    out: list[str] = []
    _emit(value, 0, out, indent)
    return "".join(out)
