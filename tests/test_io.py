"""Spec- and state-document parsing: the one-pass reads of matrices and of a ``blocks`` document.

A ``blocks`` document's pairs are checked and written into gamma all at
once; a fault makes the parser walk the pairs to name the first bad field.
These tests pin the exact messages, those of the faults at a spec's top
level and in a state document too, which check comes first in an object
with several faults, and that the pair-block pattern the parser writes is
recorded on the spec with no scan of gamma.  Each matrix
of a document is decoded by one flat read of its numbers; files read so
give the arrays and messages of ``json.loads``, bit for bit.
"""

import copy
import gc
import json
import sys

import numpy as np
import pytest

import gkslgraph as gk
from gkslgraph import generator, io
from gkslgraph.basis import _max_off_block
from helpers import (
    blocks_document,
    gellmann_document,
    malformed_blocks_documents,
    pair_block,
    pair_block_families,
    random_density_matrix,
    random_valid_spec,
    reference_max_off_block,
)

#: The message of each fault of ``malformed_blocks_documents``, on the
#: superposition golden (N = 3, pairs (1, 2), (1, 3), (2, 3)).
PARSE_ERRORS = {
    "pairs_not_a_list": "gamma.pairs: expected a list",
    "pair_not_an_object": "gamma.pairs[0]: expected an object",
    "unknown_field": "gamma.pairs[0]: unknown field(s) ['weight']",
    "misspelled_field": "gamma.pairs[0]: unknown field(s) ['blk']",
    "missing_i": "gamma.pairs[0]: missing required field 'i'",
    "missing_j": "gamma.pairs[0]: missing required field 'j'",
    "missing_block": "gamma.pairs[0]: missing required field 'block'",
    "i_bool": "gamma.pairs[0].i: expected an integer, got bool",
    "i_float": "gamma.pairs[0].i: expected an integer, got float",
    "i_string": "gamma.pairs[0].i: expected an integer, got str",
    "i_beyond_int64": (
        "gamma.pairs[0]: expected 1 <= i < j <= 3, got i=9223372036854775808, j=2"
    ),
    "i_not_below_j": "gamma.pairs[0]: expected 1 <= i < j <= 3, got i=2, j=2",
    "j_beyond_n": "gamma.pairs[0]: expected 1 <= i < j <= 3, got i=1, j=4",
    "duplicate_pair": "gamma.pairs[3]: duplicate pair (1, 2)",
    "block_wrong_shape": "gamma.pairs[0].block: expected 2 rows",
    "block_numeric_string": "gamma.pairs[0].block[0][0][0]: expected a number, got str",
    "block_bool": "gamma.pairs[0].block[0][1][1]: expected a number, got bool",
    "block_nan": "gamma.pairs[0].block[1][1][1]: expected a finite number, got nan",
    "block_inf": "gamma.pairs[0].block[0][1][0]: expected a finite number, got inf",
    "two_faults": "gamma.pairs[0].block[1][0][0]: expected a finite number, got nan",
}


@pytest.fixture
def malformed(golden_dir) -> dict[str, dict]:
    doc = json.loads((golden_dir / "superposition.spec.json").read_text())
    return malformed_blocks_documents(doc)


def test_every_fault_has_a_pinned_message(malformed):
    assert set(malformed) == set(PARSE_ERRORS)


@pytest.mark.parametrize("name", sorted(PARSE_ERRORS))
def test_blocks_parse_error_names_the_first_bad_field(malformed, name):
    with pytest.raises(gk.SpecParseError) as info:
        gk.parse_spec_document(malformed[name])
    assert str(info.value) == PARSE_ERRORS[name]


#: The message of each fault of :func:`_faulty_spec_documents`.
SPEC_ERRORS = {
    "not_an_object": "top level: expected an object",
    "n_zero": "N: must be positive, got 0",
    "n_negative": "N: must be positive, got -3",
    "unknown_basis": """basis: expected "standard" or "gellmann", got 'pauli'""",
    "gamma_not_an_object": "gamma: expected an object",
    "missing_format": "gamma: missing required field 'format'",
    "unknown_format": """gamma.format: expected "dense" or "blocks", got 'sparse'""",
}


def _faulty_spec_documents(doc: dict) -> dict[str, object]:
    """Copies of a valid spec document, each with one fault outside the pairs, by name."""
    documents = {"not_an_object": [copy.deepcopy(doc)]}

    def fault(name: str) -> dict:
        documents[name] = copy.deepcopy(doc)
        return documents[name]

    fault("n_zero")["N"] = 0
    fault("n_negative")["N"] = -3
    fault("unknown_basis")["basis"] = "pauli"
    fault("gamma_not_an_object")["gamma"] = [doc["gamma"]]
    del fault("missing_format")["gamma"]["format"]
    fault("unknown_format")["gamma"]["format"] = "sparse"
    return documents


@pytest.fixture
def faulty(golden_dir) -> dict[str, object]:
    return _faulty_spec_documents(json.loads((golden_dir / "superposition.spec.json").read_text()))


def test_every_spec_fault_has_a_pinned_message(faulty):
    assert set(faulty) == set(SPEC_ERRORS)


@pytest.mark.parametrize("name", sorted(SPEC_ERRORS))
def test_spec_parse_error_names_the_bad_field(faulty, name):
    with pytest.raises(gk.SpecParseError) as info:
        gk.parse_spec_document(faulty[name])
    assert str(info.value) == SPEC_ERRORS[name]


#: Faulty state documents and their messages, by name.
STATE_ERRORS = {
    "not_an_object": ([[[1, 0]]], "top level: expected an object"),
    "missing_matrix": ({}, "top level: missing required field 'matrix'"),
    "empty_matrix": ({"matrix": []}, "matrix: expected a non-empty list of rows"),
    "matrix_not_a_list": ({"matrix": "I"}, "matrix: expected a non-empty list of rows"),
}


@pytest.mark.parametrize("name", sorted(STATE_ERRORS))
def test_state_parse_error_names_the_bad_field(name):
    doc, message = STATE_ERRORS[name]
    with pytest.raises(gk.SpecParseError) as info:
        gk.parse_state_document(doc)
    assert str(info.value) == message


def _two_level(gamma, **fields) -> dict:
    return {"N": 2, "H": [[[0, 0]] * 2] * 2, "gamma": gamma, **fields}


SPEC, STATE = gk.parse_spec_document, gk.parse_state_document

#: Documents with an object that holds more than one fault: the parser, the
#: document and the message of the check that comes first.  An object is
#: checked to be one (``*_ERRORS`` pin that check at each site), then for
#: unknown fields, then for missing ones; ``gamma``'s format comes before
#: its fields (a null format is missing), and so does the refusal of a
#: Gell-Mann ``blocks`` document.
CHECK_ORDER = {
    "top_level_unknown_and_missing": (
        SPEC, {"N": 2, "extra": 1}, "top level: unknown field(s) ['extra']"
    ),
    "gamma_unknown_without_format": (
        SPEC, _two_level({"x": 1}), "gamma: missing required field 'format'"
    ),
    "gamma_null_format": (
        SPEC, _two_level({"format": None}), "gamma: missing required field 'format'"
    ),
    "gamma_unknown_format_and_field": (
        SPEC,
        _two_level({"format": "sparse", "x": 1}),
        """gamma.format: expected "dense" or "blocks", got 'sparse'""",
    ),
    "dense_unknown_and_missing": (
        SPEC, _two_level({"format": "dense", "x": 1}), "gamma: unknown field(s) ['x']"
    ),
    "blocks_unknown": (
        SPEC, _two_level({"format": "blocks", "x": 1}), "gamma: unknown field(s) ['x']"
    ),
    "gellmann_blocks_unknown": (
        SPEC,
        _two_level({"format": "blocks", "x": 1}, basis="gellmann"),
        "gamma.format: the blocks form is only defined over the standard basis",
    ),
    "pair_unknown_and_missing": (
        SPEC,
        _two_level({"format": "blocks", "pairs": [{"i": 1, "x": 2}]}),
        "gamma.pairs[0]: unknown field(s) ['x']",
    ),
    "state_unknown_and_missing": (STATE, {"x": 1}, "top level: unknown field(s) ['x']"),
}


@pytest.mark.parametrize("name", sorted(CHECK_ORDER))
def test_parse_checks_run_in_order(name):
    parse, doc, message = CHECK_ORDER[name]
    with pytest.raises(gk.SpecParseError) as info:
        parse(doc)
    assert str(info.value) == message


def _complex(entries) -> np.ndarray:
    """Nested [re, im] pairs as a complex array, bit for bit (a -0.0 stays)."""
    return np.array(entries, dtype=np.float64).view(np.complex128)[..., 0]


def _scatter(doc: dict) -> np.ndarray:
    """gamma of a blocks document, written pair by pair."""
    N = doc["N"]
    M = np.zeros((N * N, N * N), dtype=np.complex128)
    for pdoc in doc["gamma"]["pairs"]:
        pair_block(M, pdoc["i"], pdoc["j"], N)[...] = _complex(pdoc["block"])
    M[-N:, -N:] = _complex(doc["gamma"]["diag"])
    return M


def test_blocks_document_records_the_pattern_with_no_scan(monkeypatch):
    # The parser writes nothing outside the pair blocks and the
    # diagonal-sector block, so the spec is marked with the pattern and its
    # gamma is never scanned; a dense document of the same spec is scanned once.
    scans = []

    def counted(M, N):
        scans.append(N)
        return _max_off_block(M, N)

    monkeypatch.setattr(generator, "_max_off_block", counted)
    for name, spec in pair_block_families().items():
        doc = json.loads(gk.dump_json(blocks_document(spec)))
        parsed = gk.parse_spec_document(doc)
        assert parsed._off_block_max == 0.0 and parsed._on_pair_pattern, name
        assert scans == [], name
        assert _max_off_block(parsed.gamma, spec.N) == 0.0, name
        assert reference_max_off_block(parsed.gamma, spec.N) == 0.0, name
        assert parsed.gamma.tobytes() == _scatter(doc).tobytes(), name
        assert np.array_equal(parsed.gamma, spec.gamma), name

        dense = gk.parse_spec_document(json.loads(gk.dump_json(gk.spec_to_document(spec))))
        assert "_off_block_max" not in vars(dense), name
        assert dense._on_pair_pattern and dense._off_block_max == 0.0, name
        assert scans == [spec.N], name
        scans.clear()


#: The layouts each document is written in: ``dump_json``'s, ``json.dumps``'
#: default (the same text) with no space after a separator, and indented,
#: whose matrices json's scanner reads.
LAYOUTS = {
    "compact": {"separators": (",", ":")},
    "default": {},
    "indent": {"indent": 2},
}
#: A number written into each test document, replaced by each token below.
SENTINEL = 0.123456789
#: Number tokens that json reads, in forms a matrix of its own never has.
VALID_TOKENS = ["7", "-0", "-0.0", "1e-05", "1E+5", str(2**53 + 1), str(-(2**60)), "1.5e300"]
#: Tokens that are not finite JSON numbers, or not JSON.
INVALID_TOKENS = [
    str(10**309),  # an int beyond float range
    "1e999",
    "NaN",
    "-Infinity",
    "1" * (sys.get_int_max_str_digits() + 1),
    "true",
    '"1"',
    "01",
    "+1",
    ".5",
    "1.",
    "1 2",
    "",
    "[1]",
]


def _valid_documents(golden_dir) -> dict[str, tuple[dict, str]]:
    """Spec and state documents by name, each with the kind of file it is."""
    docs = {}
    for path in sorted(golden_dir.glob("*.spec.json")):
        docs[f"golden_{path.name}"] = json.loads(path.read_text()), "spec"
    for name, spec in pair_block_families().items():
        docs[f"{name}_blocks"] = blocks_document(spec), "spec"
        docs[f"{name}_dense"] = gk.spec_to_document(spec), "spec"
    for N in (1, 2, 3, 5):
        spec = random_valid_spec(np.random.default_rng(70 + N), N)
        docs[f"random_N{N}_dense"] = gk.spec_to_document(spec), "spec"
        docs[f"random_N{N}_gellmann"] = gellmann_document(*gk.standard_to_gellmann(spec)), "spec"
        state = random_density_matrix(np.random.default_rng(80 + N), N)
        docs[f"state_N{N}"] = {"matrix": gk.matrix_to_document(state)}, "state"
    return docs


def _variants() -> dict[str, tuple[dict, str]]:
    """Documents with ``SENTINEL`` in each matrix field, and with faults of shape or field."""
    rng = np.random.default_rng(90)
    dense = gk.spec_to_document(random_valid_spec(rng, 2))
    dense["H"][0][0][0] = dense["gamma"]["matrix"][3][2][1] = SENTINEL
    blocks = blocks_document(pair_block_families()["superposition"])
    blocks["gamma"]["diag"][2][1][0] = blocks["gamma"]["pairs"][0]["block"][1][0][1] = SENTINEL
    gellmann = gellmann_document(*gk.standard_to_gellmann(random_valid_spec(rng, 2)))
    gellmann["gamma"]["matrix"][2][0][1] = SENTINEL
    state = {"matrix": gk.matrix_to_document(random_density_matrix(rng, 3))}
    state["matrix"][2][1][1] = SENTINEL
    docs = {"dense": (dense, "spec"), "blocks": (blocks, "spec"), "gellmann": (gellmann, "spec")}
    docs["state"] = state, "state"

    def fault(name: str, doc: dict, kind: str = "spec") -> dict:
        docs[name] = copy.deepcopy(doc), kind
        return docs[name][0]

    fault("ragged_h", dense)["H"][1].pop()
    fault("ragged_gamma", dense)["gamma"]["matrix"][2].pop()
    fault("ragged_state", state, "state")["matrix"][0].pop()
    fault("triple_h", dense)["H"][1][1].append(0.0)
    fault("single_h", dense)["H"][1][1].pop()
    uneven = fault("triple_then_single_h", dense)["H"][1]  # as many numbers as a 2 x 2 matrix
    uneven[0].append(0.0)
    uneven[1].pop()
    fault("true_in_gamma", dense)["gamma"]["matrix"][1][1][0] = True
    fault("extra_row_h", dense)["H"].append(dense["H"][0])
    fault("extra_column_diag", blocks)["gamma"]["diag"][0].append([0.0, 0.0])
    fault("non_square_state", state, "state")["matrix"].pop()
    fault("matrix_as_n", dense)["N"] = dense["H"]
    fault("matrix_as_basis", dense)["basis"] = dense["H"]
    fault("matrix_as_format", dense)["gamma"]["format"] = dense["H"]
    fault("matrix_as_pairs", blocks)["gamma"]["pairs"] = blocks["H"]
    fault("matrix_in_unknown_field", dense)["gamma"]["diag"] = dense["H"]
    fault("state_in_an_array", state, "state")["matrix"] = [state["matrix"]]
    docs["top_level_matrix"] = state["matrix"], "state"
    return docs


def _outcome(path, kind: str):
    """What ``load_spec`` or ``load_state`` reads from ``path``: its arrays' bytes, or its error."""
    try:
        if kind == "state":
            arrays = [gk.load_state(path)]
        else:
            spec = gk.load_spec(path)
            arrays = [spec.H, spec.gamma]
    except gk.SpecParseError as exc:
        return str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _written(tmp_path, docs: dict[str, tuple[dict, str]], tokens=(None,)) -> dict:
    """Each document in each layout, ``SENTINEL`` replaced by each token: path -> kind."""
    files = {}
    for name, (doc, kind) in docs.items():
        for layout, options in LAYOUTS.items():
            text = json.dumps(doc, **options)
            for t, token in enumerate(tokens):
                path = tmp_path / f"{name}.{layout}.{t}.json"
                path.write_text(text if token is None else text.replace(repr(SENTINEL), token))
                files[path] = kind
    return files


def _assert_same_as_json_loads(monkeypatch, files: dict) -> dict:
    flat = {path: _outcome(path, kind) for path, kind in files.items()}
    # json's own scanner alone: the route of json.loads
    monkeypatch.setattr(io, "_MatrixScanner", lambda data, scan_once: scan_once)
    for path, kind in files.items():
        assert _outcome(path, kind) == flat[path], path.name
    return flat


def _matrix_fields(doc) -> list:
    """The non-empty values of the matrix fields of a decoded spec or state document."""
    fields = [doc.get("H"), doc.get("matrix"), *map(doc.get("gamma", {}).get, ("matrix", "diag"))]
    return [f for f in fields if f is not None and len(f)]


def test_flat_matrix_reads_give_the_arrays_of_json_loads(monkeypatch, tmp_path, golden_dir):
    files = _written(tmp_path, _valid_documents(golden_dir))
    for path in files:  # json's scanner reads the indented matrices
        fields = _matrix_fields(io._decode_document(path.read_bytes()))
        flat = ".indent." not in path.name
        assert fields and {type(f) is np.ndarray for f in fields} == {flat}, path.name
    outcomes = _assert_same_as_json_loads(monkeypatch, files)
    assert not any(isinstance(o, str) for o in outcomes.values())


#: The documents of :func:`_variants` that hold ``SENTINEL``.
VARIANT_KINDS = ("dense", "blocks", "gellmann", "state")


@pytest.mark.parametrize("token", VALID_TOKENS + INVALID_TOKENS)
def test_flat_matrix_reads_of_every_number_form_match_json_loads(monkeypatch, tmp_path, token):
    docs = {name: doc for name, doc in _variants().items() if name in VARIANT_KINDS}
    files = _written(tmp_path, docs, [token])
    outcomes = _assert_same_as_json_loads(monkeypatch, files)
    assert {isinstance(o, str) for o in outcomes.values()} == {token in INVALID_TOKENS}


def test_flat_matrix_reads_of_malformed_documents_match_json_loads(monkeypatch, tmp_path):
    docs = {n: d for n, d in _variants().items() if n not in VARIANT_KINDS}
    outcomes = _assert_same_as_json_loads(monkeypatch, _written(tmp_path, docs))
    assert all(isinstance(o, str) for o in outcomes.values())


@pytest.mark.parametrize("fmt", ["blocks", "dense"])
def test_decoding_leaves_no_garbage_cycle(fmt):
    # A cycle through the scanner would keep the document's bytes until the
    # collector ran, which the CLI pauses while it decodes.
    spec = pair_block_families()["menagerie"]
    doc = blocks_document(spec) if fmt == "blocks" else gk.spec_to_document(spec)
    data = gk.dump_json(doc).encode()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert type(io._decode_document(data)["H"]) is np.ndarray
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
