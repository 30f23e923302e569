"""Spec- and state-document parsing: the one-pass read of a ``blocks`` document.

A ``blocks`` document's pairs are checked and written into gamma all at
once; a fault makes the parser walk the pairs to name the first bad field.
These tests pin the exact messages, those of the faults at a spec's top
level and in a state document too, and that the pair-block pattern the
parser writes is recorded on the spec with no scan of gamma.
"""

import copy
import json

import numpy as np
import pytest

import gkslgraph as gk
from gkslgraph import generator
from gkslgraph.basis import _max_off_block
from helpers import (
    blocks_document,
    malformed_blocks_documents,
    pair_block,
    pair_block_families,
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
