"""JSON input/output for generator specs, states, and results.

Complex entries are encoded as two-element ``[re, im]`` arrays throughout.
A spec document carries the dimension, the basis ordering of the
coefficient matrix ("standard" or "gellmann"), the Hamiltonian, and the
coefficient matrix either dense or (standard basis only) as a list of 2x2
pair blocks plus a diagonal-sector matrix.  A "gellmann" document holds
the coefficient matrix over the traceless Gell-Mann labels, converted to
the standard basis as it is read (``gellmann_to_standard``), so every
parsed spec is a :class:`GeneratorSpec`.  Parsing is strict: unknown
fields, malformed entries, and duplicate pair blocks are rejected with the
offending field path in the message.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .basis import _pair_index, _pair_levels
from .generator import GeneratorSpec, _PairPattern, gellmann_to_standard

__all__ = [
    "SpecParseError",
    "parse_spec_document",
    "parse_state_document",
    "load_spec",
    "load_state",
    "spec_to_document",
    "matrix_to_document",
    "dump_json",
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


def _numeric_array(value, shape: tuple[int, ...]) -> np.ndarray | None:
    """The complex array of ``shape`` nested in ``value``, or None if malformed.

    ``value`` nests lists to the depth of ``shape``, with [re, im] pairs
    innermost.  Types and lengths are checked exactly, level by level
    (lists, numbers that are int or float, never bool or str), before numpy
    converts the numbers at once; numpy alone would accept numeric strings
    and booleans.  Non-finite numbers (JSON's ``NaN`` and ``Infinity``)
    also give None.
    """
    if type(value) is not list or len(value) != shape[0]:
        return None
    items = value
    for length in (*shape[1:], 2):
        if not _lists_of_length(items, length):
            return None
        items = list(chain.from_iterable(items))
    if not set(map(type, items)) <= {int, float}:
        return None
    try:
        flat = np.fromiter(items, dtype=np.float64, count=len(items))
    except OverflowError:  # an int beyond float range
        return None
    if not np.isfinite(flat).all():
        return None
    flat.setflags(write=False)  # a spec keeps the view instead of a copy
    return flat.view(np.complex128).reshape(shape)


def _lists_of_length(items, length: int) -> bool:
    return set(map(type, items)) <= {list} and set(map(len, items)) <= {length}


def _parse_cmatrix(value, rows: int, cols: int, where: str) -> np.ndarray:
    fast = _numeric_array(value, (rows, cols))
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


def _numeric_pairs(pairs, N: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The pair index of each pair in ``pairs`` and their blocks, or None if malformed.

    The whole list is checked at once: objects with exactly the fields
    ``i``, ``j`` and ``block``; ``i`` and ``j`` ints (never bool) with
    ``1 <= i < j <= N`` and no pair twice; each block 2 x 2, as
    :func:`_numeric_array` checks it.  Returns the index t of the pair
    ``(i, j)`` (``basis._pair_index``) per pair and the (P, 2, 2) blocks.
    """
    if type(pairs) is not list or not set(map(type, pairs)) <= {dict}:
        return None
    if not set(map(len, pairs)) <= {3}:
        return None
    try:
        i, j, blocks = (list(map(itemgetter(name), pairs)) for name in ("i", "j", "block"))
    except KeyError:
        return None
    levels = i + j
    if not set(map(type, levels)) <= {int}:
        return None
    try:
        i, j = np.fromiter(levels, dtype=np.int64, count=len(levels)).reshape(2, -1)
    except OverflowError:  # an int beyond int64
        return None
    if not ((1 <= i) & (i < j) & (j <= N)).all():
        return None
    t = _pair_index(i, j, N)
    if (np.bincount(t) > 1).any():  # np.unique would import numpy.ma on the first parse
        return None
    values = _numeric_array(blocks, (len(blocks), 2, 2))
    if values is None:
        return None
    return t, values


def _parse_pairs(pairs, N: int) -> np.ndarray:
    """The pair blocks of a ``gamma.pairs`` list, a read-only (P, 2, 2) array.

    Block t is that of the t-th pair in label order, 0 for a pair not listed.
    """
    out = np.zeros((len(_pair_levels(N)), 2, 2), dtype=np.complex128)
    fast = _numeric_pairs(pairs, N)
    if fast is not None:
        t, blocks = fast
        out[t] = blocks
    else:
        _walk_pairs(pairs, N, out)
    out.setflags(write=False)  # the spec keeps this array instead of a copy
    return out


def _walk_pairs(pairs, N: int, out: np.ndarray) -> None:
    """Check the pairs one by one, to name the first bad field; write each block into out."""
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
        out[_pair_index(i, j, N)] = _parse_cmatrix(
            pdoc["block"], 2, 2, f"{where}.block"
        )


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise SpecParseError(f"{where}: unknown field(s) {unknown}")


def parse_spec_document(doc) -> GeneratorSpec:
    """Parse a spec document into a generator over the standard basis.

    Each matrix, and a ``blocks`` document's whole list of pairs, is read
    in one vectorized pass: the types, lengths and ranges of every entry
    are checked at once, numpy converts the numbers, and the pair blocks
    are written into a (P, 2, 2) array by one indexed assignment.  Only
    when a check fails are the entries walked one by one, to name the first
    bad field in document order.  A spec read from a ``blocks`` document
    stores only its pair blocks and diagonal-sector block, ``O(N^2)``
    numbers, and has the pair-block pattern by construction; its dense
    gamma is built only if a dense reader asks (see ``GeneratorSpec``).  A
    ``dense`` one is scanned for the pattern on first use.  A ``gellmann``
    document whose standard-basis gamma overflows is rejected.
    """
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
        pairs = _parse_pairs(gamma_doc.get("pairs", []), N)
        if "diag" in gamma_doc:
            G = _parse_cmatrix(gamma_doc["diag"], N, N, "gamma.diag")
        else:
            G = np.zeros((N, N), dtype=np.complex128)
        M = _PairPattern(pairs, G)
    else:
        raise SpecParseError(
            f'gamma.format: expected "dense" or "blocks", got {fmt!r}'
        )

    try:
        if basis == "standard":
            return GeneratorSpec(H=H, gamma=M)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
            spec = gellmann_to_standard(H, M)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc
    if not np.isfinite(spec.gamma).all():
        raise SpecParseError("gamma.matrix: overflows on conversion to the standard basis")
    return spec


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


def _decode_document(data: bytes):
    """The JSON document in ``data``; SpecParseError if the decoder cannot build it.

    Besides malformed text, the decoder refuses nesting deeper than the
    interpreter's recursion limit (RecursionError) and an integer literal
    longer than ``sys.get_int_max_str_digits()`` (ValueError); both are
    invalid JSON here.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:  # a ValueError, so caught first
        raise SpecParseError(f"not UTF-8 text ({exc})") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SpecParseError(f"invalid JSON ({exc})") from exc


def _load_document(path: str | Path):
    return _decode_document(Path(path).read_bytes())


def load_spec(path: str | Path) -> GeneratorSpec:
    return parse_spec_document(_load_document(path))


def load_state(path: str | Path) -> np.ndarray:
    return parse_state_document(_load_document(path))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def matrix_to_document(M: np.ndarray) -> list:
    """Nested [re, im] lists for a complex matrix."""
    M = np.asarray(M, dtype=np.complex128)
    return np.stack((M.real, M.imag), axis=-1).tolist()


def spec_to_document(spec: GeneratorSpec) -> dict:
    """Dense re-parseable document over the standard basis."""
    return {
        "N": spec.N,
        "basis": "standard",
        "H": matrix_to_document(spec.H),
        "gamma": {"format": "dense", "matrix": matrix_to_document(spec.gamma)},
    }


def dump_json(value) -> str:
    """One line of JSON (no newline); non-finite floats raise ValueError."""
    return json.dumps(value, allow_nan=False)
