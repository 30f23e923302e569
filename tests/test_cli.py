"""CLI and JSON I/O tests: envelopes, exit codes, batch mode, golden files."""

import hashlib
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

import gkslgraph as gk
from gkslgraph.cli import main as cli_main
from gkslgraph.io import dump_json, parse_spec_document, spec_to_document
from helpers import (
    COMMANDS,
    command_argv,
    dephasing_ladder_spec,
    gellmann_document,
    identity_coupled_spec,
    pair_block_spec,
    random_pbd_spec,
    random_valid_spec,
    sink_menagerie_spec,
    superposition_decay_spec,
)


def run_cli(argv, capsys):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(path, spec):
    path.write_text(dump_json(spec_to_document(spec)) + "\n")
    return str(path)


INDEFINITE = pair_block_spec(
    2, np.zeros((2, 2)), {(1, 2): np.array([[0.0, 1.0], [1.0, 0.0]])}
)


# ---------------------------------------------------------------------------
# document parsing (io layer)
# ---------------------------------------------------------------------------


def test_parse_rejects_unknown_fields():
    with pytest.raises(gk.SpecParseError, match="unknown field"):
        parse_spec_document({"N": 2, "H": [], "gamma": {}, "extra": 1})


def test_parse_rejects_missing_fields():
    with pytest.raises(gk.SpecParseError, match="missing required field 'matrix'"):
        parse_spec_document(
            {"N": 2, "H": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "gamma": {"format": "dense"}}
        )


def test_parse_rejects_bool_as_number():
    doc = {
        "N": 2,
        "H": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]],
        "gamma": {"format": "dense", "matrix": [[[0, 0]] * 4 for _ in range(4)]},
    }
    with pytest.raises(gk.SpecParseError, match="expected a number"):
        parse_spec_document(doc)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
         "H[0][0][0]: expected a number, got bool"),
        ([[[1.0, 0.0], ["0", 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
         "H[0][1][0]: expected a number, got str"),
        ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], "H[1]: expected 2 entries"),
        ([[[1.0, 0.0], [0.0]], [[0.0, 0.0], [1.0, 0.0]]],
         "H[0][1]: expected a [re, im] pair"),
        ([[[1.0, 0.0], 0.5], [[0.0, 0.0], [1.0, 0.0]]],
         "H[0][1]: expected a [re, im] pair"),
        ([[[1.0, 0.0], [0.0, 0.0]], "row"], "H[1]: expected 2 entries"),
        ("matrix", "H: expected 2 rows"),
    ],
    ids=["bool", "string", "ragged", "short-entry", "number-entry", "string-row",
         "non-list"],
)
def test_parse_matrix_errors_name_the_field(matrix, message):
    # The messages are pinned byte for byte: a matrix that fails the
    # vectorized conversion is walked entry by entry to name the field.
    doc = {
        "N": 2,
        "H": matrix,
        "gamma": {"format": "dense", "matrix": [[[0, 0]] * 4 for _ in range(4)]},
    }
    with pytest.raises(gk.SpecParseError) as info:
        parse_spec_document(doc)
    assert str(info.value) == message


def test_parse_matrix_keeps_ints_and_floats():
    doc = {
        "N": 2,
        "H": [[[1, 0], [0.5, -2]], [[0.5, 2], [-3, 0.0]]],
        "gamma": {"format": "dense", "matrix": [[[0, 0]] * 4 for _ in range(4)]},
    }
    spec = parse_spec_document(doc)
    assert np.array_equal(spec.H, [[1.0, 0.5 - 2j], [0.5 + 2j, -3.0]])


def _zero_cmatrix(n):
    return [[[0, 0]] * n for _ in range(n)]


@pytest.mark.parametrize(
    "number, shown",
    [(float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf"), (10**400, "inf")],
    ids=["nan", "inf", "-inf", "huge-int"],
)
@pytest.mark.parametrize("field", ["H", "dense", "block", "diag"])
def test_parse_rejects_non_finite_numbers(golden_dir, field, number, shown):
    if field == "dense":
        doc = {"N": 2, "H": _zero_cmatrix(2),
               "gamma": {"format": "dense", "matrix": _zero_cmatrix(4)}}
    else:
        doc = json.loads((golden_dir / "superposition.spec.json").read_text())
        doc["gamma"]["diag"] = _zero_cmatrix(3)
    matrix, where = {
        "H": (lambda: doc["H"], "H"),
        "dense": (lambda: doc["gamma"]["matrix"], "gamma.matrix"),
        "block": (lambda: doc["gamma"]["pairs"][0]["block"], "gamma.pairs[0].block"),
        "diag": (lambda: doc["gamma"]["diag"], "gamma.diag"),
    }[field]
    matrix()[1][0] = [0, number]
    with pytest.raises(gk.SpecParseError) as info:
        parse_spec_document(doc)
    assert str(info.value) == f"{where}[1][0][1]: expected a finite number, got {shown}"


@pytest.mark.parametrize("command", ["validate", "oracle", "digraph", "kernel"])
def test_non_finite_spec_file_exits_1(tmp_path, capsys, golden_dir, command):
    # Python's json reads the NaN literal; the spec file must still fail.
    doc = json.loads((golden_dir / "superposition.spec.json").read_text())
    doc["gamma"]["pairs"][1]["block"][0][0] = [float("nan"), 0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    code, out, err = run_cli([command, str(path), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert out == ""
    assert err == (
        f"error: {path}: gamma.pairs[1].block[0][0][0]: "
        "expected a finite number, got nan\n"
    )


def test_batch_continues_past_a_non_finite_spec(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_spec(in_dir / "a.json", superposition_decay_spec())
    text = (in_dir / "a.json").read_text()
    (in_dir / "b.json").write_text(text.replace("[1, 0]", "[Infinity, 0]", 1))
    write_spec(in_dir / "c.json", dephasing_ladder_spec())
    out_dir = tmp_path / "out"
    code, _, err = run_cli(["kernel", str(in_dir), "--batch", "--out", str(out_dir)], capsys)
    assert code == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.kernel.json", "c.kernel.json"]
    assert f"error: {in_dir / 'b.json'}: " in err
    assert "expected a finite number, got inf" in err


def test_parse_blocks_duplicate_pair(golden_dir):
    doc = json.loads((golden_dir / "superposition.spec.json").read_text())
    doc["gamma"]["pairs"].append(doc["gamma"]["pairs"][0])
    with pytest.raises(gk.SpecParseError, match="duplicate pair"):
        parse_spec_document(doc)


def test_parse_blocks_requires_ordered_pair(golden_dir):
    doc = json.loads((golden_dir / "superposition.spec.json").read_text())
    doc["gamma"]["pairs"][0]["i"] = 2
    doc["gamma"]["pairs"][0]["j"] = 1
    with pytest.raises(gk.SpecParseError, match="expected 1 <= i < j"):
        parse_spec_document(doc)


def test_parse_blocks_rejected_over_gellmann_basis(golden_dir):
    doc = json.loads((golden_dir / "superposition.spec.json").read_text())
    doc["basis"] = "gellmann"
    with pytest.raises(gk.SpecParseError, match="blocks form is only defined"):
        parse_spec_document(doc)


def test_parse_dense_gellmann_size():
    # Over the orthonormal basis the dense matrix drops the identity label;
    # the parser converts it to the standard basis as it reads it.
    gm = gk.standard_to_gellmann(random_valid_spec(np.random.default_rng(19), 3))
    doc = json.loads(dump_json(gellmann_document(gm)))
    assert len(doc["gamma"]["matrix"]) == 8
    spec = parse_spec_document(doc)
    assert type(spec) is gk.GeneratorSpec
    assert spec.gamma.shape == (9, 9)
    want = gk.gellmann_to_standard(gk.GellMannSpec(H=gm.H, C=gm.C))
    assert np.array_equal(spec.H, want.H)
    assert np.array_equal(spec.gamma, want.gamma)
    doc["gamma"]["matrix"] = _zero_cmatrix(9)  # the standard size
    with pytest.raises(gk.SpecParseError, match=r"^gamma\.matrix: expected 8 rows$"):
        parse_spec_document(doc)


def test_parse_wraps_constructor_errors():
    doc = {
        "N": 2,
        "H": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],  # not Hermitian
        "gamma": {"format": "dense", "matrix": [[[0, 0]] * 4 for _ in range(4)]},
    }
    with pytest.raises(gk.SpecParseError, match="Hermitian"):
        parse_spec_document(doc)


def test_spec_document_round_trip():
    rng = np.random.default_rng(53)
    spec = random_valid_spec(rng, 3)
    doc = spec_to_document(spec)
    back = parse_spec_document(json.loads(dump_json(doc)))
    assert np.array_equal(back.H, spec.H)
    assert np.array_equal(back.gamma, spec.gamma)


def _run_normalized(command, path, workdir, N, capsys):
    """Exit code, stdout, stderr and DOT text, with the input path and hash masked."""
    code, out, err = run_cli(command_argv(command, path, workdir, N), capsys)
    dot = (workdir / f"{path.stem}.dot").read_text() if command == "digraph" else None
    mask = (str(path), "SPEC"), (gk.file_sha256(path), "SHA256")
    for old, new in mask:
        out, err = out.replace(old, new), err.replace(old, new)
    return code, out, err, dot


@pytest.mark.parametrize("command", COMMANDS)
def test_gellmann_file_reads_as_its_converted_spec(tmp_path, capsys, command):
    # Every command, digraph included, reads the gamma a Gell-Mann document
    # converts to: the payload equals that of the standard document of the
    # converted spec, byte for byte.
    specs = [random_valid_spec(np.random.default_rng(s), 2 + s % 3) for s in range(3)]
    specs += [random_pbd_spec(np.random.default_rng(s), 3 + s % 3) for s in range(3)]
    specs.append(sink_menagerie_spec())
    for t, spec in enumerate(specs):
        gm = gk.standard_to_gellmann(spec)
        gm_path = tmp_path / f"s{t}.gellmann.json"
        gm_path.write_text(dump_json(gellmann_document(gm)) + "\n")
        std_path = Path(write_spec(tmp_path / f"s{t}.standard.json", gk.gellmann_to_standard(gm)))
        got = _run_normalized(command, gm_path, tmp_path, spec.N, capsys)
        want = _run_normalized(command, std_path, tmp_path, spec.N, capsys)
        assert got == want, f"spec {t}"


def test_dump_json_formatting():
    text = dump_json({"x": 1.0 / 3.0, "flag": True, "none": None, "v": [1.0, 2.0]})
    assert "0.33333333333333331" in text
    assert '"flag": true' in text
    assert '"none": null' in text
    assert "[1, 2]" in text  # scalar lists stay on one line
    with pytest.raises(ValueError):
        dump_json({"x": float("nan")})


def test_dump_json_reserializes_byte_identically():
    # parse -> dump is a fixed point once text came from dump_json
    rng = np.random.default_rng(54)
    doc = spec_to_document(random_valid_spec(rng, 2))
    text = dump_json(doc)
    assert dump_json(json.loads(text)) == text


# ---------------------------------------------------------------------------
# single-command runs
# ---------------------------------------------------------------------------


def test_validate_ok_envelope(capsys, golden_dir):
    path = golden_dir / "superposition.spec.json"
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "validate"
    assert doc["verdict"] is True
    assert doc["tolerance"] == 1e-9
    assert doc["diagnostics"] == []
    assert doc["spec_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_validate_invalid_exit_code(tmp_path, capsys):
    path = write_spec(tmp_path / "bad.json", INDEFINITE)
    code, out, _ = run_cli(["validate", path], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["offending_eigenvalue"] == pytest.approx(-1.0, abs=1e-9)


def test_validate_writes_to_out_file(tmp_path, capsys, golden_dir):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["validate", str(golden_dir / "ladder.spec.json"), "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert out == ""  # JSON went to the file instead
    assert json.loads(out_file.read_text())["verdict"] is True


def test_out_that_is_a_directory_exits_1(tmp_path, capsys, golden_dir):
    spec_path = golden_dir / "superposition.spec.json"
    code, out, err = run_cli(["kernel", str(spec_path), "--out", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {tmp_path}: Is a directory\n"


def test_digraph_out_in_a_missing_directory_exits_1(tmp_path, capsys, golden_dir):
    spec_path = golden_dir / "menagerie.spec.json"
    dot_path = tmp_path / "missing" / "g.dot"
    code, out, err = run_cli(["digraph", str(spec_path), "--out", str(dot_path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {dot_path}: No such file or directory\n"


def test_batch_out_that_is_a_file_exits_1(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_spec(in_dir / "a.json", superposition_decay_spec())
    out_file = tmp_path / "out"
    out_file.write_text("taken\n")
    code, out, err = run_cli(["kernel", str(in_dir), "--batch", "--out", str(out_file)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {out_file}: File exists\n"
    assert out_file.read_text() == "taken\n"


def test_batch_continues_past_an_unwritable_result(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for stem in "abc":
        write_spec(in_dir / f"{stem}.json", sink_menagerie_spec())
    out_dir = tmp_path / "out"
    (out_dir / "b.digraph.json").mkdir(parents=True)
    (out_dir / "c.dot").mkdir()
    code, out, err = run_cli(["digraph", str(in_dir), "--batch", "--out", str(out_dir)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        f"error: {out_dir / 'b.digraph.json'}: Is a directory\n"
        f"error: {out_dir / 'c.dot'}: Is a directory\n"
    )
    assert (out_dir / "a.dot").exists() and (out_dir / "c.digraph.json").is_file()


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out, err = run_cli(["validate", str(bad)], capsys)
    assert code == 1
    assert out == ""
    assert "invalid JSON" in err


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run_cli(["validate", str(tmp_path / "nope.json")], capsys)
    assert code == 1
    assert "nope.json" in err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_spec_exit_code(tmp_path, capsys, kind):
    path = tmp_path / "spec.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"N": 1, "H": "\xff"}')
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: ")


def test_canonicalize_output_reparses(tmp_path, capsys, golden_dir):
    code, out, _ = run_cli(["canonicalize", str(golden_dir / "ladder.spec.json")], capsys)
    assert code == 0
    doc = json.loads(out)
    canon = parse_spec_document(doc["spec"])
    dpos = [gk.standard_position(n, n, 3) for n in range(1, 4)]
    block = canon.gamma[np.ix_(dpos, dpos)]
    expected = np.array([[12.0, 0.0, -12.0], [0.0, 6.0, -6.0], [-12.0, -6.0, 18.0]]) / 18.0
    assert np.max(np.abs(block - expected)) < 1e-12
    # feeding the emitted spec back through canonicalize is numerically stable
    again_path = tmp_path / "canon.json"
    again_path.write_text(dump_json(doc["spec"]) + "\n")
    code2, out2, _ = run_cli(["canonicalize", str(again_path)], capsys)
    assert code2 == 0
    canon2 = parse_spec_document(json.loads(out2)["spec"])
    assert np.max(np.abs(canon2.gamma - canon.gamma)) < 1e-10
    assert np.max(np.abs(canon2.H - canon.H)) < 1e-10


def test_canonicalize_requires_valid(tmp_path, capsys):
    path = write_spec(tmp_path / "bad.json", INDEFINITE)
    code, out, err = run_cli(["canonicalize", path], capsys)
    assert code == 1
    assert "not a valid generator" in err or "valid" in err


@pytest.mark.parametrize(
    "command", ["canonicalize", "kernel", "eigen", "check-state", "crosscheck"]
)
def test_invalid_generator_error_line(tmp_path, capsys, command):
    path = write_spec(tmp_path / "bad.json", INDEFINITE)
    summary = gk.validate(INDEFINITE).summary
    code, out, err = run_cli(command_argv(command, path, tmp_path, 2), capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: generator failed validation ({summary})\n"


def test_check_state_reports_a_bad_state_file_before_an_invalid_generator(
    tmp_path, capsys
):
    path = write_spec(tmp_path / "bad.json", INDEFINITE)
    state = tmp_path / "missing.state.json"
    argv = ["check-state", path, "--state", str(state), "--times", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {state}: ")


def test_digraph_requires_out(capsys, golden_dir):
    with pytest.raises(SystemExit) as exc:
        cli_main(["digraph", str(golden_dir / "menagerie.spec.json")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_digraph_payload_and_dot(tmp_path, capsys, golden_dir):
    dot_path = tmp_path / "g.dot"
    code, out, _ = run_cli(
        ["digraph", str(golden_dir / "menagerie.spec.json"), "--out", str(dot_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 8
    assert doc["components"] == [[1], [2], [3], [4, 5], [6, 7, 8]]
    assert doc["terminal"] == [True] * 5
    assert doc["sinks"] == [1, 2, 3]
    assert doc["singular_two_sinks"] == [[4, 5]]
    stationary = {tuple(sv["component"]): sv for sv in doc["stationary"]}
    assert stationary[(6, 7, 8)]["rho_tilde"] == [
        pytest.approx(10.0), pytest.approx(26.0), pytest.approx(8.0)
    ]
    dot = dot_path.read_text()
    assert "subgraph cluster_" in dot and 'singular2sink="true"' in dot


def test_kernel_analytic_payload(capsys, golden_dir):
    code, out, _ = run_cli(["kernel", str(golden_dir / "superposition.spec.json")], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "analytic"
    assert doc["dimension"] == 2
    tags = {el["tag"] for el in doc["elements"]}
    assert tags == {"diagonal", "singular-2-sink"}


def test_kernel_fallback_and_strict(tmp_path, capsys):
    rng = np.random.default_rng(55)
    path = write_spec(tmp_path / "dense.json", random_valid_spec(rng, 2))
    code, out, _ = run_cli(["kernel", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "oracle"
    assert "fallback_reason" in doc
    code2, out2, _ = run_cli(["kernel", path, "--strict"], capsys)
    assert code2 == 2
    assert json.loads(out2)["method"] == "oracle"


@pytest.mark.parametrize("coupling, method", [(0.3, "analytic"), (0.3 - 0.2j, "oracle")])
def test_kernel_on_identity_coupled_spec(tmp_path, capsys, coupling, method):
    spec = identity_coupled_spec(np.random.default_rng(0), 4, coupling)
    code, out, _ = run_cli(["kernel", write_spec(tmp_path / "s.json", spec)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == method
    if method == "oracle":
        assert doc["fallback_reason"].startswith("canonicalized Hamiltonian is not diagonal")
    else:
        assert "fallback_reason" not in doc


def test_eigen_pinned_pair(capsys, golden_dir):
    code, out, _ = run_cli(
        ["eigen", str(golden_dir / "superposition.spec.json"), "--pair", "1,2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pair"] == [1, 2]
    assert doc["plus"]["mu"] == [pytest.approx(0.0, abs=1e-12), pytest.approx(0.0, abs=1e-12)]
    assert doc["minus"]["mu"] == [pytest.approx(-2.0), pytest.approx(0.0, abs=1e-12)]


@pytest.mark.parametrize("pair", ["1,9", "2,2"])
def test_eigen_rejects_invalid_level_pair(capsys, golden_dir, pair):
    spec_path = golden_dir / "superposition.spec.json"
    code, out, err = run_cli(["eigen", str(spec_path), "--pair", pair], capsys)
    assert code == 1
    assert out == ""
    k, ell = pair.split(",")
    assert err == f"error: {spec_path}: invalid level pair ({k}, {ell}) for N=3\n"


def test_eigen_rejects_non_block_spec(tmp_path, capsys):
    rng = np.random.default_rng(56)
    path = write_spec(tmp_path / "dense.json", random_valid_spec(rng, 2))
    code, out, err = run_cli(["eigen", path, "--pair", "1,2"], capsys)
    assert code == 1
    assert out == ""
    assert "pair-block" in err


def test_check_state_invariant(tmp_path, capsys, golden_dir):
    psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi)
    state_path = tmp_path / "state.json"
    state_path.write_text(dump_json({"matrix": gk.matrix_to_document(rho)}) + "\n")
    code, out, _ = run_cli(
        [
            "check-state", str(golden_dir / "superposition.spec.json"),
            "--state", str(state_path), "--times", "0.5,1,5",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant"] is True
    assert doc["times"] == [0.5, 1.0, 5.0]
    assert doc["diagnostics"] == []


def _write_state(path, rho):
    path.write_text(dump_json({"matrix": gk.matrix_to_document(rho)}) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "state, message",
    [
        (None, "No such file or directory"),
        ('{"matrix": [[[1, 0], [0]], [[0, 0], [0, 0]]]}',
         "matrix[0][1]: expected a [re, im] pair"),
        ('{"matrix": [[[1, 0], [0, 0]]]}', "matrix[0]: expected 1 entries"),
        (np.eye(2) / 2.0, "state must have shape (3, 3), got (2, 2)"),
        (b'{"matrix": "\xff"}', "not UTF-8 text"),
    ],
    ids=["missing", "malformed", "ragged", "wrong-shape", "not-utf8"],
)
def test_check_state_bad_state_file(tmp_path, capsys, golden_dir, state, message):
    state_path = tmp_path / "state.json"
    if isinstance(state, bytes):
        state_path.write_bytes(state)
    elif isinstance(state, str):
        state_path.write_text(state)
    elif state is not None:
        _write_state(state_path, state)
    code, out, err = run_cli(
        [
            "check-state", str(golden_dir / "superposition.spec.json"),
            "--state", str(state_path), "--times", "1",
        ],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {state_path}: ")
    assert message in err


def test_check_state_rejects_a_non_finite_state(tmp_path, capsys, golden_dir):
    state_path = tmp_path / "state.json"
    rho = [[[0.5, 0], [0.5, 0], [0, 0]], [[0.5, 0], [float("nan"), 0], [0, 0]],
           [[0, 0], [0, 0], [0, 0]]]
    state_path.write_text(json.dumps({"matrix": rho}))
    code, out, err = run_cli(
        [
            "check-state", str(golden_dir / "superposition.spec.json"),
            "--state", str(state_path), "--times", "1",
        ],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {state_path}: matrix[1][1][0]: expected a finite number, got nan\n"


@pytest.mark.parametrize("times", ["nan", "inf", "1,-inf"])
def test_check_state_rejects_non_finite_times(tmp_path, capsys, golden_dir, times):
    psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    state_path = _write_state(tmp_path / "state.json", np.outer(psi, psi))
    with pytest.raises(SystemExit) as exc:
        cli_main(
            [
                "check-state", str(golden_dir / "superposition.spec.json"),
                "--state", state_path, "--times", times,
            ]
        )
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --times: times must be finite, got {times!r}" in captured.err


def test_batch_check_state_continues_past_a_bad_state(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_spec(in_dir / "a_two_levels.json", pair_block_spec(2, np.zeros((2, 2)), {}))
    write_spec(in_dir / "b_superposition.json", superposition_decay_spec())
    psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    state_path = _write_state(tmp_path / "state.json", np.outer(psi, psi))
    out_dir = tmp_path / "out"
    code, _, err = run_cli(
        [
            "check-state", str(in_dir), "--batch", "--out", str(out_dir),
            "--state", state_path, "--times", "1",
        ],
        capsys,
    )
    assert code == 1
    assert f"error: {state_path}: state must have shape (2, 2), got (3, 3)" in err
    assert not (out_dir / "a_two_levels.check-state.json").exists()
    doc = json.loads((out_dir / "b_superposition.check-state.json").read_text())
    assert doc["invariant"] is True


def test_check_state_non_state_diagnostic(tmp_path, capsys, golden_dir):
    rho = np.diag([0.6, 0.4, 0.0])
    state_path = tmp_path / "state.json"
    state_path.write_text(dump_json({"matrix": gk.matrix_to_document(2.0 * rho)}) + "\n")
    code, out, _ = run_cli(
        [
            "check-state", str(golden_dir / "superposition.spec.json"),
            "--state", str(state_path), "--times", "1",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant"] is False  # populations still move
    assert any("not a state" in d for d in doc["diagnostics"])


def test_oracle_skips_validity_gate(tmp_path, capsys):
    path = write_spec(tmp_path / "bad.json", INDEFINITE)
    code, out, _ = run_cli(["oracle", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "oracle"
    assert doc["dimension"] >= 1


def test_crosscheck_agrees(capsys, golden_dir):
    code, out, _ = run_cli(["crosscheck", str(golden_dir / "menagerie.spec.json")], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["analytic_dimension"] == doc["oracle_dimension"] == 8
    assert doc["max_principal_angle"] <= 1e-7


def test_crosscheck_unavailable_and_strict(tmp_path, capsys):
    rng = np.random.default_rng(57)
    path = write_spec(tmp_path / "dense.json", random_valid_spec(rng, 2))
    code, out, _ = run_cli(["crosscheck", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["analytic_available"] is False
    assert doc["oracle_dimension"] >= 1
    code2, _, _ = run_cli(["crosscheck", path, "--strict"], capsys)
    assert code2 == 2


# ---------------------------------------------------------------------------
# tolerance resolution
# ---------------------------------------------------------------------------


def test_tol_flag_overrides_default(capsys, golden_dir):
    code, out, _ = run_cli(
        ["validate", str(golden_dir / "ladder.spec.json"), "--tol", "1e-6"], capsys
    )
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-6


def test_tol_env_and_flag_precedence(monkeypatch, capsys, golden_dir):
    monkeypatch.setenv("GKSLGRAPH_TOL", "1e-5")
    code, out, _ = run_cli(["validate", str(golden_dir / "ladder.spec.json")], capsys)
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-5
    code, out, _ = run_cli(
        ["validate", str(golden_dir / "ladder.spec.json"), "--tol", "1e-6"], capsys
    )
    assert json.loads(out)["tolerance"] == 1e-6  # the flag wins


def test_tol_env_malformed(monkeypatch, capsys, golden_dir):
    monkeypatch.setenv("GKSLGRAPH_TOL", "abc")
    code, out, err = run_cli(["validate", str(golden_dir / "ladder.spec.json")], capsys)
    assert code == 1
    assert "GKSLGRAPH_TOL" in err


def test_tol_zero_is_allowed(capsys, golden_dir):
    code, out, _ = run_cli(
        ["validate", str(golden_dir / "ladder.spec.json"), "--tol", "0"], capsys
    )
    assert code == 0
    assert json.loads(out)["tolerance"] == 0.0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "-1"])
def test_tol_flag_rejects_non_finite_or_negative(capsys, golden_dir, value):
    with pytest.raises(SystemExit) as exc:
        cli_main(["kernel", str(golden_dir / "superposition.spec.json"), f"--tol={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tol: expected a finite number >= 0, got {value!r}" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_tol_env_rejects_non_finite_or_negative(monkeypatch, capsys, golden_dir, value):
    monkeypatch.setenv("GKSLGRAPH_TOL", value)
    code, out, err = run_cli(["kernel", str(golden_dir / "superposition.spec.json")], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: GKSLGRAPH_TOL: expected a finite number >= 0, got {value!r}\n"


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------


def test_batch_kernel(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_spec(in_dir / "sup.json", superposition_decay_spec())
    write_spec(in_dir / "ladder.json", dephasing_ladder_spec())
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(["kernel", str(in_dir), "--batch", "--out", str(out_dir)], capsys)
    assert code == 0
    assert (out_dir / "sup.kernel.json").exists()
    assert (out_dir / "ladder.kernel.json").exists()
    doc = json.loads((out_dir / "sup.kernel.json").read_text())
    assert doc["dimension"] == 2


def test_batch_continues_past_failures(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_spec(in_dir / "good.json", superposition_decay_spec())
    (in_dir / "broken.json").write_text("{")
    out_dir = tmp_path / "out"
    code, _, err = run_cli(["kernel", str(in_dir), "--batch", "--out", str(out_dir)], capsys)
    assert code == 1  # worst failure wins, good file still processed
    assert (out_dir / "good.kernel.json").exists()
    assert "broken.json" in err


def test_batch_continues_past_unreadable_inputs(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_spec(in_dir / "a.json", superposition_decay_spec())
    (in_dir / "b.json").mkdir()
    (in_dir / "b2.json").write_bytes(b"{\xff}")
    write_spec(in_dir / "c.json", superposition_decay_spec())
    out_dir = tmp_path / "out"
    code, _, err = run_cli(["kernel", str(in_dir), "--batch", "--out", str(out_dir)], capsys)
    assert code == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.kernel.json", "c.kernel.json"]
    assert f"error: {in_dir / 'b.json'}: " in err
    assert f"error: {in_dir / 'b2.json'}: " in err


def test_batch_digraph_writes_dot(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_spec(in_dir / "m.json", sink_menagerie_spec())
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(["digraph", str(in_dir), "--batch", "--out", str(out_dir)], capsys)
    assert code == 0
    assert (out_dir / "m.digraph.json").exists()
    assert (out_dir / "m.dot").exists()


def test_batch_requires_out(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["kernel", str(tmp_path), "--batch"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_batch_rejects_non_directory(tmp_path, capsys, golden_dir):
    code, _, err = run_cli(
        [
            "kernel", str(golden_dir / "ladder.spec.json"),
            "--batch", "--out", str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 1
    assert "not a directory" in err


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_installed_entry_point(golden_dir):
    proc = subprocess.run(
        ["gkslgraph", "validate", str(golden_dir / "superposition.spec.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------


def check_golden_json(name, text, golden_dir, regen):
    path = golden_dir / name
    if regen:
        path.write_text(text)
        return
    assert path.exists(), f"golden file {name} missing; run pytest --regen-golden"
    assert json.loads(text) == json.loads(path.read_text())


def test_golden_kernel_superposition(monkeypatch, capsys, golden_dir, regen_golden):
    monkeypatch.chdir(golden_dir)
    code, out, _ = run_cli(["kernel", "superposition.spec.json"], capsys)
    assert code == 0
    check_golden_json("superposition.kernel.json", out, golden_dir, regen_golden)


def test_golden_canonicalize_ladder(monkeypatch, capsys, golden_dir, regen_golden):
    monkeypatch.chdir(golden_dir)
    code, out, _ = run_cli(["canonicalize", "ladder.spec.json"], capsys)
    assert code == 0
    check_golden_json("ladder.canonicalize.json", out, golden_dir, regen_golden)


def test_golden_digraph_menagerie(monkeypatch, tmp_path, capsys, golden_dir, regen_golden):
    monkeypatch.chdir(golden_dir)
    dot_path = tmp_path / "menagerie.dot"
    code, out, _ = run_cli(["digraph", "menagerie.spec.json", "--out", str(dot_path)], capsys)
    assert code == 0
    check_golden_json("menagerie.digraph.json", out, golden_dir, regen_golden)
    dot_text = dot_path.read_text()
    golden_dot = golden_dir / "menagerie.dot"
    if regen_golden:
        golden_dot.write_text(dot_text)
    else:
        assert dot_text == golden_dot.read_text()


def test_golden_specs_match_fixtures(golden_dir):
    # drift guard: the checked-in spec files stay equal to the programmatic
    # fixtures the rest of the suite uses
    for name, fixture in [
        ("superposition.spec.json", superposition_decay_spec()),
        ("ladder.spec.json", dephasing_ladder_spec()),
        ("menagerie.spec.json", sink_menagerie_spec()),
    ]:
        spec = gk.load_spec(golden_dir / name)
        assert np.array_equal(spec.H, fixture.H), name
        assert np.array_equal(spec.gamma, fixture.gamma), name


def test_golden_files_are_dump_json_fixed_points(golden_dir):
    for path in sorted(golden_dir.glob("*.json")):
        text = path.read_text()
        assert dump_json(json.loads(text)) + "\n" == text, path.name
