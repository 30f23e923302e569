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
import re
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

    ``value`` is either a complex ndarray, which :class:`_MatrixScanner`
    read flat, and which is returned when its shape is ``shape``; or lists
    nested to the depth of ``shape``, with [re, im] pairs innermost.  Types
    and lengths of the lists are checked exactly, level by level (lists,
    numbers that are int or float, never bool or str), before numpy
    converts the numbers at once; numpy alone would accept numeric strings
    and booleans.  Non-finite numbers (JSON's ``NaN`` and ``Infinity``,
    and a float literal beyond the float range) also give None.
    """
    if type(value) is np.ndarray:
        ok = value.dtype == np.complex128 and value.shape == shape and np.isfinite(value).all()
        return value if ok else None
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
    if type(value) is np.ndarray:  # read flat: walk it as the lists json would give
        value = matrix_to_document(value)
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
        _require_fields(pdoc, where, {"i", "j", "block"}, ("i", "j", "block"))
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


def _require_fields(doc, where: str, allowed: set[str] | None = None, required=()) -> None:
    """Reject ``doc`` unless it is an object with no field outside ``allowed``
    (None: any field) and every field of ``required``, checked in that order."""
    if not isinstance(doc, dict):
        raise SpecParseError(f"{where}: expected an object")
    unknown = sorted(set(doc) - allowed) if allowed is not None else []
    if unknown:
        raise SpecParseError(f"{where}: unknown field(s) {unknown}")
    for name in required:
        if name not in doc:
            raise SpecParseError(f"{where}: missing required field {name!r}")


def parse_spec_document(doc) -> GeneratorSpec:
    """Parse a spec document into a generator over the standard basis.

    A matrix field may hold an ndarray that :func:`_decode_document`
    read flat (``H``, ``gamma.matrix``, ``gamma.diag``), which is taken as
    it is when its shape is right.  Every other matrix, and a ``blocks``
    document's whole list of pairs, is read in one vectorized pass: the
    types, lengths and ranges of every entry are checked at once, numpy
    converts the numbers, and the pair blocks are written into a (P, 2, 2)
    array by one indexed assignment.  Only when a check fails are the
    entries walked one by one, to name the first bad field in document
    order, with the message a document of lists would give.  A spec read
    from a ``blocks`` document stores only its pair blocks and
    diagonal-sector block, ``O(N^2)`` numbers, and has the pair-block
    pattern by construction; its dense gamma is built only if a dense
    reader asks (see ``GeneratorSpec``).  A ``dense`` one is scanned for
    the pattern on first use.  A ``gellmann`` document whose
    standard-basis gamma overflows is rejected.
    """
    _require_fields(doc, "top level", {"N", "basis", "H", "gamma"}, ("N", "H", "gamma"))
    N = _require_int(doc["N"], "N")
    if N < 1:
        raise SpecParseError(f"N: must be positive, got {N}")
    basis = doc.get("basis", "standard")
    if basis not in ("standard", "gellmann"):
        raise SpecParseError(f'basis: expected "standard" or "gellmann", got {basis!r}')
    H = _parse_cmatrix(doc["H"], N, N, "H")

    gamma_doc = doc["gamma"]
    _require_fields(gamma_doc, "gamma")
    fmt = gamma_doc.get("format")
    if fmt is None:  # a null format is missing too
        raise SpecParseError("gamma: missing required field 'format'")

    if fmt == "dense":
        _require_fields(gamma_doc, "gamma", {"format", "matrix"}, ("matrix",))
        size = N * N if basis == "standard" else N * N - 1
        M = _parse_cmatrix(gamma_doc["matrix"], size, size, "gamma.matrix")
    elif fmt == "blocks":
        if basis == "gellmann":
            raise SpecParseError(
                "gamma.format: the blocks form is only defined over the "
                "standard basis"
            )
        _require_fields(gamma_doc, "gamma", {"format", "pairs", "diag"})
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
    """Parse a state document ({"matrix": N x N of [re, im]}), its matrix read flat or not."""
    _require_fields(doc, "top level", {"matrix"}, ("matrix",))
    value = doc["matrix"]
    if not isinstance(value, (list, np.ndarray)) or len(value) == 0:
        raise SpecParseError("matrix: expected a non-empty list of rows")
    n = len(value)
    return _parse_cmatrix(value, n, n, "matrix")


#: The bytes that the skeleton of a flat-read matrix leaves out: those of
#: JSON numbers, and JSON whitespace.
_NUMBER_BYTES = b"0123456789+-.eE \t\n\r"
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
#: The text before a value that :class:`_MatrixScanner` reads flat: a key
#: whose value the parser reads as a matrix, or rejects by its name.
_MATRIX_KEY = re.compile(rb'[{,][ \t\n\r]*"(?:H|diag|matrix)"[ \t\n\r]*:[ \t\n\r]*\Z')


class _MatrixScanner:
    """json's ``scan_once`` for the text of ``data``, except that it reads matrices in one flat pass.

    ``data`` is the ASCII text that is decoded, so that the scanner's
    offsets into the text are offsets into it.  The value of an ``H``,
    ``diag`` or ``matrix`` key that is an R x C matrix of ``[re, im]``
    pairs of numbers becomes a read-only complex (R, C) ndarray
    (:meth:`_read_matrix`), which the parser checks for finite entries.
    An object is read by json's pure-Python ``JSONObject``, which hands
    each of its values back to this scanner; every other value by
    ``scan_once``, json's own scanner, so as ``json.loads`` reads it.  The
    scanner holds no reference to itself, so it leaves no garbage cycle.
    """

    def __init__(self, data: bytes, scan_once):
        self._data = data
        self._scan_once = scan_once
        self._memo: dict[str, str] = {}  # JSONObject's: one str per distinct key

    def __call__(self, string: str, idx: int):
        if string.startswith("{", idx):
            return json.decoder.JSONObject((string, idx + 1), True, self, None, None, self._memo)
        read = self._read_matrix(idx)
        return read if read is not None else self._scan_once(string, idx)

    def _read_matrix(self, start: int) -> tuple[np.ndarray, int] | None:
        """The matrix whose "[" is at ``start``, and the offset past its "]"; None if not taken.

        Only an array that starts with ``[[[`` right after a matrix key
        (looked for in the 32 bytes before it) is taken.  It ends at the
        last "]" before the next '"' or "}", which no matrix holds.  The
        bracket skeleton left when the number bytes are deleted must be
        that of an R x C matrix of pairs, C read from the first row, so
        the array is exactly that matrix.  One ``json.loads`` of the
        numbers, with the inner brackets blanked, then reads them by json's
        grammar (``-0`` is the int 0; ``01``, ``+1``, ``.5`` and ``1.``
        are invalid and raise).  None, for json's scanner to read the
        array, when the skeleton is another or an int does not fit a float.
        """
        data = self._data
        if not data.startswith(b"[[[", start) or not _MATRIX_KEY.search(
            data, max(0, start - 32), start
        ):
            return None
        bound = len(data)
        for char in (b'"', b"}"):
            found = data.find(char, start, bound)
            if found >= 0:
                bound = found
        stop = data.rfind(b"]", start, bound) + 1
        span = bytearray(memoryview(data)[start:stop])
        skeleton = span.translate(None, _NUMBER_BYTES)
        cols = skeleton.find(b"]]") // 4
        row = b"[" + b",".join([b"[,]"] * cols) + b"]"
        rows, rest = divmod(len(skeleton) - 1, len(row) + 1)
        if cols < 1 or rest or skeleton != b"[" + b",".join([row] * rows) + b"]":
            return None
        numbers = span.translate(_BRACKETS_TO_SPACES)  # faster than deleting them
        numbers[0], numbers[-1] = span[0], span[-1]  # the outer brackets
        del span, skeleton  # not held while json reads the numbers
        try:
            flat = np.fromiter(json.loads(numbers), dtype=np.float64, count=2 * rows * cols)
        except OverflowError:  # an int beyond float range
            return None
        flat.setflags(write=False)  # a spec keeps the view instead of a copy
        return flat.view(np.complex128).reshape(rows, cols), stop


def _decode_document(data: bytes):
    """The JSON document in ``data``; SpecParseError if the decoder cannot build it.

    An ASCII document is decoded by :class:`_MatrixScanner`, so each of
    its matrices is an ndarray, read in one flat pass, not a list per
    entry.  On any error, and for any other text, it is decoded by
    ``json.loads``, so a value is built, and an error worded, as json does.
    Besides malformed text, the decoder refuses nesting deeper than the
    interpreter's recursion limit (RecursionError) and an integer literal
    longer than ``sys.get_int_max_str_digits()`` (ValueError); both are
    invalid JSON here.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"not UTF-8 text ({exc})") from exc
    if data.isascii():
        decoder = json.JSONDecoder()
        decoder.scan_once = _MatrixScanner(data, decoder.scan_once)
        try:
            return decoder.decode(text)
        except (ValueError, RecursionError):
            pass  # invalid: decoded again below, so that json words the error
    try:
        return json.loads(text)
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
    """Nested [re, im] lists for a complex matrix; one [re, im] pair for a number."""
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
