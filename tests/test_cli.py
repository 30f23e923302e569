"""CLI and JSON I/O tests: envelopes, exit codes, batch mode, golden files."""

import argparse
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gkslgraph as gk
from gkslgraph import cli
from gkslgraph.cli import main as cli_main
from gkslgraph.io import dump_json, parse_spec_document, spec_to_document
from helpers import (
    COMMANDS,
    command_argv,
    dephasing_ladder_spec,
    gellmann_document,
    identity_coupled_spec,
    laplacian,
    pair_block_spec,
    random_pbd_spec,
    random_valid_spec,
    sink_menagerie_spec,
    strongly_connected_blocks_document,
    superposition_decay_spec,
    wide_rate_documents,
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
    doc = json.loads((in_dir / "a.json").read_text())
    doc["gamma"]["matrix"][0][0][0] = float("inf")
    (in_dir / "b.json").write_text(json.dumps(doc))
    write_spec(in_dir / "c.json", dephasing_ladder_spec())
    out_dir = tmp_path / "out"
    code, _, err = run_cli(["kernel", str(in_dir), "--batch", "--out", str(out_dir)], capsys)
    assert code == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.kernel.json", "c.kernel.json"]
    assert f"error: {in_dir / 'b.json'}: " in err
    assert "expected a finite number, got inf" in err


def _nan_for_stem_a(spec, input_path, args):
    return 0, {"verdict": float("nan") if input_path.stem == "a" else 1.0}, None, []


def test_non_finite_result_exits_1(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli._HANDLERS, "validate", _nan_for_stem_a)
    path = Path(write_spec(tmp_path / "a.json", superposition_decay_spec()))
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: cannot write the result as JSON (")
    assert err.count("\n") == 1


def test_batch_continues_past_a_non_finite_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli._HANDLERS, "validate", _nan_for_stem_a)
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for stem in "ab":
        write_spec(in_dir / f"{stem}.json", superposition_decay_spec())
    out_dir = tmp_path / "out"
    code, _, err = run_cli(["validate", str(in_dir), "--batch", "--out", str(out_dir)], capsys)
    assert code == 1
    assert [p.name for p in out_dir.iterdir()] == ["b.validate.json"]
    assert err.startswith(f"error: {in_dir / 'a.json'}: cannot write the result as JSON (")


def _directed_cycle_document(N: int, rate: float) -> dict:
    """Blocks spec of the directed cycle 1 -> 2 -> ... -> N -> 1 at one rate."""
    pairs = [
        {"i": k, "j": k + 1, "block": [[[0, 0], [0, 0]], [[0, 0], [rate, 0]]]}
        for k in range(1, N)
    ]
    pairs.append({"i": 1, "j": N, "block": [[[rate, 0], [0, 0]], [[0, 0], [0, 0]]]})
    return {"N": N, "H": [[[0, 0]] * N] * N, "gamma": {"format": "blocks", "pairs": pairs}}


def _run_python(args) -> subprocess.CompletedProcess:
    # A child process: a fresh interpreter, outside pytest, which turns numpy's
    # overflow RuntimeWarning into an error.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_module(argv) -> subprocess.CompletedProcess:
    return _run_python(["-m", "gkslgraph", *argv])


# Runs each argv list of the JSON argument through cli.main in one fresh
# interpreter, and prints per command its exit code, its stdout and which of
# scipy, its submodules and numpy.ma are loaded so far.
_COLD_START = """
import contextlib, io, json, sys
from gkslgraph.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy" or m == "numpy.ma")
    results.append([code, out.getvalue(), loaded])
print(json.dumps(results))
"""


def _evolved_ladder_argv(tmp_path, golden_dir, times="1e6") -> list[str]:
    """check-state on the ladder golden with a 1e-11 coherence on (1, 3).

    Its residual passes, but at t = 1e6 the drift bound does not certify it,
    so the state is evolved; the coherence decays, and it is invariant.
    """
    rho = np.eye(3, dtype=complex) / 3.0
    rho[0, 2] = rho[2, 0] = 1e-11
    state = _write_state(tmp_path / "ladder_coherence.state.json", rho)
    ladder = str(golden_dir / "ladder.spec.json")
    return ["check-state", ladder, "--state", state, "--times", times]


def test_commands_start_without_scipy(tmp_path, capsys, golden_dir):
    # scipy.linalg is imported only where a state is evolved (check-state,
    # once a time is not certified) or two spans are compared (crosscheck),
    # and numpy.ma (which np.unique imports) not by the parser.
    blocks = golden_dir / "superposition.spec.json"
    dense = write_spec(tmp_path / "dense.json", random_valid_spec(np.random.default_rng(7), 3))
    without = [
        command_argv(command, blocks, tmp_path, 3)
        for command in ("validate", "canonicalize", "digraph", "eigen", "oracle", "kernel")
    ]
    without.append(command_argv("kernel", dense, tmp_path, 3))
    without.append(command_argv("check-state", blocks, tmp_path, 3))  # not invariant
    without.append(command_argv("check-state", golden_dir / "ladder.spec.json", tmp_path, 3))
    with_scipy = [
        _evolved_ladder_argv(tmp_path, golden_dir),  # invariant, but not certified
        command_argv("crosscheck", blocks, tmp_path, 3),
    ]
    proc = _run_python(["-c", _COLD_START, json.dumps(without + with_scipy)])
    assert (proc.returncode, proc.stderr) == (0, "")
    child = json.loads(proc.stdout)
    assert [loaded for *_, loaded in child[: len(without)]] == [[]] * len(without)
    assert all("scipy.linalg" in loaded for *_, loaded in child[len(without):])
    assert "fallback_reason" in json.loads(child[len(without) - 3][1])
    check_states = child[len(without) - 2 : len(without) + 1]
    assert [json.loads(out)["invariant"] for _, out, _ in check_states] == [False, True, True]
    in_process = [list(run_cli(argv, capsys)[:2]) for argv in without + with_scipy]
    assert [[code, out] for code, out, _ in child] == in_process


def _cycle_spec(tmp_path) -> Path:
    """The 5-cycle at rate 1e100: its matrix-tree weights, 5e400, overflow a float."""
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(_directed_cycle_document(5, 1e100)))
    return path


@pytest.mark.parametrize("command", ["kernel", "digraph", "crosscheck"])
def test_cycle_at_rate_1e100_runs_without_overflow(tmp_path, capsys, command):
    path = _cycle_spec(tmp_path)
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 0 and json.loads(out)["verdict"] is True
    dot_path = tmp_path / "cycle.dot"
    argv = [command, str(path)] + (["--out", str(dot_path)] if command == "digraph" else [])
    proc = _run_module(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["diagnostics"] == []
    if command == "digraph":
        [sv] = doc["stationary"]
        assert sv["rho"] == [0.2] * 5
        expected = math.log(5.0) + 400.0 * math.log(10.0)
        assert sv["log_normalization"] == pytest.approx(expected, rel=1e-15)
        assert dot_path.exists()
    elif command == "kernel":
        [element] = doc["elements"]
        assert np.array_equal(gk.parse_state_document({"matrix": element["matrix"]}), np.eye(5) / 5.0)
    else:
        assert doc["agree"] is True and doc["max_principal_angle"] <= 1e-14


def _two_level_document(block) -> dict:
    """Blocks spec on two levels with the one real 2x2 pair block ``block``."""
    block = [[[float(x), 0.0] for x in row] for row in block]
    zero = [[[0.0, 0.0]] * 2] * 2
    return {"N": 2, "H": zero, "gamma": {"format": "blocks", "pairs": [{"i": 1, "j": 2, "block": block}]}}


#: Terminal 2-cycles whose rates square past the float range, with their kernel dimension.
HUGE_TWO_CYCLES = {"full rank": ([[1e160, 0.0], [0.0, 1e160]], 1), "rank one": ([[1e160] * 2] * 2, 2)}


@pytest.mark.parametrize("block", sorted(HUGE_TWO_CYCLES))
@pytest.mark.parametrize("command", ["kernel", "digraph", "crosscheck"])
def test_two_cycle_at_rate_1e160_runs_without_overflow(tmp_path, command, block):
    # The singularity test of the block takes det(b) / max|b|**2 where
    # max|b|**2 overflows, so no command raises, warns or prints inf or NaN.
    matrix, dimension = HUGE_TWO_CYCLES[block]
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(_two_level_document(matrix)))
    dot_path = tmp_path / "cycle.dot"
    argv = [command, str(path)] + (["--out", str(dot_path)] if command == "digraph" else [])
    proc = _run_module(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    outputs = proc.stdout + (dot_path.read_text() if command == "digraph" else "")
    assert not re.search(r"inf|nan", outputs, re.IGNORECASE)
    doc = json.loads(proc.stdout)
    assert doc["diagnostics"] == []
    if command == "kernel":
        assert doc["dimension"] == dimension
    elif command == "digraph":
        assert doc["singular_two_sinks"] == ([[1, 2]] if dimension == 2 else [])
    else:
        assert doc["agree"] is True


def test_rank_one_two_cycle_at_rate_1_keeps_its_coherence(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(_two_level_document([[1.0, 1.0], [1.0, 1.0]])))
    code, out, err = run_cli(["kernel", str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["dimension"] == 2


@pytest.mark.parametrize("command", ["validate", "kernel"])
def test_warnings_of_any_command_become_diagnostics(monkeypatch, tmp_path, capsys, golden_dir, command):
    handler = cli._HANDLERS[command]

    def warning_handler(*args):
        warnings.warn("overflow encountered in det", RuntimeWarning)
        return handler(*args)

    monkeypatch.setitem(cli._HANDLERS, command, warning_handler)
    code, out, err = run_cli([command, str(golden_dir / "superposition.spec.json")], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["diagnostics"][-1] == "overflow encountered in det"


def test_batch_runs_the_cycle_at_rate_1e100(tmp_path, golden_dir):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    (in_dir / "a.json").write_bytes(_cycle_spec(tmp_path).read_bytes())
    (in_dir / "b.json").write_bytes((golden_dir / "ladder.spec.json").read_bytes())
    out_dir = tmp_path / "out"
    proc = _run_module(["kernel", str(in_dir), "--batch", "--out", str(out_dir)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.kernel.json", "b.kernel.json"]


@pytest.mark.parametrize("name", sorted(wide_rate_documents()))
def test_stationary_ratios_past_the_float_range_run_without_overflow(tmp_path, capsys, name):
    # In-process, so a RuntimeWarning would fail the test: GTH stays finite
    # with no warning, and the analytic and oracle kernels agree.
    doc = wide_rate_documents()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    results = {}
    for command in ("kernel", "digraph", "crosscheck"):
        argv = command_argv(command, path, tmp_path, doc["N"])
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, ""), command
        results[command] = json.loads(out)
        assert results[command]["diagnostics"] == [], command
    [sv] = results["digraph"]["stationary"]
    assert sv["rho"][-1] == 1.0 and math.isfinite(sv["log_normalization"])
    [element] = results["kernel"]["elements"]
    matrix = gk.parse_state_document({"matrix": element["matrix"]})
    assert np.array_equal(matrix, np.diag(sv["rho"]))
    crosscheck = results["crosscheck"]
    assert crosscheck["agree"] is True
    assert crosscheck["analytic_dimension"] == crosscheck["oracle_dimension"] == 1


@pytest.mark.parametrize("command", ["kernel", "digraph", "crosscheck"])
def test_batch_runs_the_specs_past_the_float_range(tmp_path, capsys, command):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for name, doc in wide_rate_documents().items():
        (in_dir / f"{name}.json").write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, _, err = run_cli([command, str(in_dir), "--batch", "--out", str(out_dir)], capsys)
    assert (code, err) == (0, "")
    written = {p.name for p in out_dir.iterdir()}
    assert {f"{name}.{command}.json" for name in wide_rate_documents()} <= written


def _h_coupled_cycle_document(N: int, rate: float) -> dict:
    """The N-cycle at ``rate`` with H coupling levels 1 and 2: it takes the dense route."""
    doc = _directed_cycle_document(N, rate)
    doc["H"] = [[[float({i, j} == {0, 1}), 0] for j in range(N)] for i in range(N)]
    return doc


def test_check_state_exits_1_on_a_drift_that_is_not_finite(tmp_path, capsys):
    # A coherence of 1e-150 on the H-coupled 1e100 cycle passes the residual,
    # but its drift bound overflows, so the time is evolved, and expm of the
    # rates is NaN: no verdict, and the error names the spec and the time,
    # not the state.
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(_h_coupled_cycle_document(5, 1e100)))
    rho = np.eye(5) / 5.0
    rho[2, 3] = rho[3, 2] = 1e-150
    state = _write_state(tmp_path / "state.json", rho)
    code, out, err = run_cli(
        ["check-state", str(path), "--state", state, "--times", "0.5,1"], capsys
    )
    assert (code, out) == (1, "")
    assert err == f"error: {path}: the drift |exp(tL)(rho) - rho|_F at t=0.5 is not finite (nan)\n"


@pytest.mark.parametrize("document", [_directed_cycle_document, _h_coupled_cycle_document])
@pytest.mark.parametrize("rate", [1e8, 1e10, 1e12, 1e20, 1e100])
def test_check_state_certifies_the_uniform_state_of_a_fast_cycle(tmp_path, capsys, document, rate):
    # L(rho) = 0 exactly, on the pair-block route and on the dense one, so
    # the drift bound is 0 at every time, and no expm of the huge rates
    # (which loses the verdict from 1e10 and gives NaN from 1e20) is taken.
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(document(5, rate)))
    state = _write_state(tmp_path / "uniform.json", np.eye(5) / 5.0)
    code, out, err = run_cli(
        ["check-state", str(path), "--state", state, "--times", "0.5,1"], capsys
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["invariant"] is True


def _check_state_spies(monkeypatch) -> dict[str, int]:
    """Count the calls of scipy's expm and of the closed-form pair-block evolution."""
    import scipy.linalg

    from gkslgraph import kernel

    calls = dict.fromkeys(("expm", "_pair_block_split", "_pair_block_expm"), 0)
    for module, name in (
        (scipy.linalg, "expm"),
        (kernel, "_pair_block_split"),
        (kernel, "_pair_block_expm"),
    ):
        def spy(*args, _name=name, _real=getattr(module, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    return calls


def test_check_state_evolves_no_certified_stationary_state(monkeypatch, tmp_path, capsys):
    # The benchmark's stationary check-state inputs (pair_block_case specs at
    # --times 0.5,1,2) are settled by the drift bound: nothing is evolved,
    # and scipy.linalg is never loaded.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import dataclasses

    import bench_specs

    workload = dataclasses.replace(bench_specs.WORKLOADS["check_state_blocks"], mix={8: 2, 16: 2})
    cases = [c for c in bench_specs.generate(workload, 3, tmp_path) if c.expect_invariant]
    assert cases and all(c.argv[-1] == "0.5,1.0,2.0" for c in cases)
    calls = _check_state_spies(monkeypatch)
    for case in cases:
        assert run_cli(case.argv, capsys)[:2] == (0, "")
        assert json.loads(case.out_path.read_text())["invariant"] is True
    assert calls == dict.fromkeys(calls, 0)
    proc = _run_python(["-c", _COLD_START, json.dumps([c.argv for c in cases])])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [loaded for *_, loaded in json.loads(proc.stdout)] == [[]] * len(cases)


def test_check_state_evolves_what_the_bound_cannot_settle(
    monkeypatch, tmp_path, capsys, golden_dir
):
    # A state whose residual passes, at times where the bound exceeds half
    # the drift tolerance: each time is evolved, and the blocks are split once.
    calls = _check_state_spies(monkeypatch)
    code, out, err = run_cli(_evolved_ladder_argv(tmp_path, golden_dir, "1e6,2e6,3e6"), capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["invariant"] is True
    assert calls == {"expm": 3, "_pair_block_split": 1, "_pair_block_expm": 3}


@pytest.mark.parametrize("command", ["kernel", "digraph"])
def test_strongly_connected_blocks_spec_at_n128(tmp_path, capsys, command):
    # Its matrix-tree normalization is far beyond float range.
    doc = strongly_connected_blocks_document(np.random.default_rng(128), 128)
    path = tmp_path / "connected.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + (["--out", str(tmp_path / "g.dot")] if command == "digraph" else [])
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert result["diagnostics"] == []
    if command == "digraph":
        [sv] = result["stationary"]
        rho = np.array(sv["rho"])
        assert math.isfinite(sv["log_normalization"])
    else:
        [element] = result["elements"]
        rho = np.diag(gk.parse_state_document({"matrix": element["matrix"]})).real
    assert np.isfinite(rho).all() and rho.sum() == pytest.approx(1.0, abs=1e-12)
    L = laplacian(gk.induced_digraph(parse_spec_document(doc)))
    assert np.abs(L @ rho).max() <= 1e-12


def _gamma_allocation_fails(monkeypatch, N: int) -> str:
    """Make the N^2 x N^2 gamma fail to allocate, as a spec with a huge N does.

    Returns numpy's message; no real allocation of that size is attempted.
    A ``blocks`` spec builds that array only for a dense reader, such as
    the oracle.
    """
    zeros = np.zeros
    message = f"Unable to allocate 1.00 TiB for an array with shape {(N * N, N * N)}"

    def failing(shape, *args, **kwargs):
        if shape == (N * N, N * N):
            raise MemoryError(message)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", failing)
    return message


def test_spec_too_large_for_memory_exits_1_naming_the_path(monkeypatch, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_directed_cycle_document(5, 1.0)))
    message = _gamma_allocation_fails(monkeypatch, 5)
    code, out, err = run_cli(["oracle", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: out of memory ({message})\n"


@pytest.mark.parametrize("command", ["validate", "kernel", "check-state", "digraph", "eigen"])
def test_pattern_route_commands_on_a_blocks_spec_allocate_no_dense_gamma(
    monkeypatch, tmp_path, capsys, command
):
    # These commands read only the pair blocks and the diagonal-sector
    # block, so a gamma too large for memory does not stop them.
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(_directed_cycle_document(5, 1.0)))
    argv = command_argv(command, path, tmp_path, 5)
    dot = tmp_path / "cycle.dot"  # digraph's --out
    expected = run_cli(argv, capsys), dot.read_text() if dot.exists() else None
    assert expected[0][0] == 0
    _gamma_allocation_fails(monkeypatch, 5)
    assert (run_cli(argv, capsys), dot.read_text() if dot.exists() else None) == expected


def test_parse_out_of_memory_exits_1_naming_the_path(monkeypatch, capsys, golden_dir):
    message = "Unable to allocate 64.0 GiB for an array with shape (65536, 65536)"

    def exhausted(doc):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "parse_spec_document", exhausted)
    path = golden_dir / "superposition.spec.json"
    code, out, err = run_cli(["kernel", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: out of memory ({message})\n"


def test_command_out_of_memory_exits_1_naming_the_path(monkeypatch, capsys, golden_dir):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "full_kernel", exhausted)
    path = golden_dir / "superposition.spec.json"
    code, out, err = run_cli(["kernel", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: out of memory\n"


@pytest.mark.parametrize("command", ["kernel", "check-state"])
def test_blocks_spec_commands_stay_far_below_the_dense_gamma(
    monkeypatch, tmp_path, capsys, command
):
    # An N=64 blocks document, written straight from the benchmark's
    # generator: its dense gamma would take 16 N^4 bytes (268 MB).  The
    # command's peak stays below an eighth of that.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import bench_specs

    N = 64
    H, pairs, diag, _ = bench_specs.pair_block_case(np.random.default_rng(5), N)
    path = tmp_path / "n64.json"
    path.write_text(json.dumps(bench_specs.blocks_document(N, H, pairs, diag)))
    argv = command_argv(command, path, tmp_path, N)
    tracemalloc.start()
    try:
        code, out, err = run_cli(argv, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    if command == "kernel":
        assert json.loads(out)["method"] == "analytic"
    assert peak < 16 * N**4 / 8


def test_batch_continues_past_a_spec_too_large_for_memory(
    monkeypatch, tmp_path, capsys, golden_dir
):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    (in_dir / "a.json").write_text(json.dumps(_directed_cycle_document(5, 1.0)))
    (in_dir / "b.json").write_bytes((golden_dir / "superposition.spec.json").read_bytes())
    message = _gamma_allocation_fails(monkeypatch, 5)
    out_dir = tmp_path / "out"
    code, _, err = run_cli(["oracle", str(in_dir), "--batch", "--out", str(out_dir)], capsys)
    assert code == 1
    assert err == f"error: {in_dir / 'a.json'}: out of memory ({message})\n"
    assert [p.name for p in out_dir.iterdir()] == ["b.oracle.json"]


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector_state(request):
    """The collector's state before the test's command; restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _collector_outcomes(tmp_path, golden_dir) -> dict:
    """Argument list, exit code and stand-in for ``cli.full_kernel`` (or None), by way of ending."""
    good = golden_dir / "superposition.spec.json"
    unparseable = tmp_path / "unparseable.json"
    unparseable.write_text('{"N": 2}')
    invalid = write_spec(tmp_path / "invalid.json", INDEFINITE)
    batch = tmp_path / "batch"
    batch.mkdir()
    for name, path in (("a", good), ("b", unparseable), ("c", good)):
        (batch / f"{name}.json").write_bytes(Path(path).read_bytes())

    def exhausted(*args):
        raise MemoryError

    return {
        "success": (["kernel", str(good)], 0, None),
        "spec_parse_error": (["kernel", str(unparseable)], 1, None),
        "invalid_generator": (["kernel", invalid], 1, None),
        "memory_error": (["kernel", str(good)], 1, exhausted),
        "batch_with_a_bad_file": (
            ["kernel", str(batch), "--batch", "--out", str(tmp_path / "out")], 1, None
        ),
    }


@pytest.mark.parametrize(
    "case",
    ["success", "spec_parse_error", "invalid_generator", "memory_error", "batch_with_a_bad_file"],
)
def test_main_leaves_the_collector_as_it_found_it(
    monkeypatch, tmp_path, capsys, golden_dir, collector_state, case
):
    # The collector is paused while a command runs, and its state before
    # the call is its state after it, however the command ends.
    argv, expected, kernel = _collector_outcomes(tmp_path, golden_dir)[case]
    if kernel:
        monkeypatch.setattr(cli, "full_kernel", kernel)
    seen = []
    decode = cli._decode_document

    def spied(data):
        seen.append(gc.isenabled())
        return decode(data)

    monkeypatch.setattr(cli, "_decode_document", spied)
    assert run_cli(argv, capsys)[0] == expected
    assert gc.isenabled() is collector_state
    assert seen == [False] * (3 if case == "batch_with_a_bad_file" else 1)


def test_parser_is_built_once_per_process(monkeypatch, tmp_path, capsys, golden_dir):
    spec = str(golden_dir / "superposition.spec.json")
    run_cli(["validate", spec], capsys)  # builds the parser if no test did yet
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "__init__",
        lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs),
    )
    state = tmp_path / "state.json"
    state.write_text(dump_json({"matrix": gk.matrix_to_document(np.eye(3) / 3)}))
    runs = [
        (["eigen", spec, "--pair", "1,2"], "pair", [1, 2]),
        (["check-state", spec, "--state", str(state), "--times", "0.5"], "times", [0.5]),
        (["validate", spec, "--tol", "1e-6"], "tolerance", 1e-6),
        (["eigen", spec, "--pair", "2,3"], "pair", [2, 3]),
        (["validate", spec], "tolerance", 1e-9),
    ]
    for argv, key, value in runs:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, argv
        assert json.loads(out)[key] == value, argv
    assert built == []


def test_spec_file_is_read_once_per_command(monkeypatch, capsys, golden_dir):
    path = golden_dir / "superposition.spec.json"
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    opened = []
    path_open = Path.open

    def counting_open(self, *args, **kwargs):
        if self == path:
            opened.append(self)
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    for command in ("validate", "kernel"):
        code, out, _ = run_cli([command, str(path)], capsys)
        assert code == 0
        assert json.loads(out)["spec_sha256"] == sha
    assert len(opened) == 2


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
    H, C = gk.standard_to_gellmann(random_valid_spec(np.random.default_rng(19), 3))
    doc = json.loads(dump_json(gellmann_document(H, C)))
    assert len(doc["gamma"]["matrix"]) == 8
    spec = parse_spec_document(doc)
    assert type(spec) is gk.GeneratorSpec
    assert spec.gamma.shape == (9, 9)
    want = gk.gellmann_to_standard(H, C)
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
    mask = (str(path), "SPEC"), (hashlib.sha256(path.read_bytes()).hexdigest(), "SHA256")
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
        gm_path.write_text(dump_json(gellmann_document(*gm)) + "\n")
        std_path = Path(write_spec(tmp_path / f"s{t}.standard.json", gk.gellmann_to_standard(*gm)))
        got = _run_normalized(command, gm_path, tmp_path, spec.N, capsys)
        want = _run_normalized(command, std_path, tmp_path, spec.N, capsys)
        assert got == want, f"spec {t}"


def test_dump_json_formatting():
    text = dump_json({"x": 1.0 / 3.0, "flag": True, "none": None, "v": [1.0, 2.0]})
    assert '"flag": true' in text
    assert '"none": null' in text
    assert "\n" not in text  # one line


@pytest.mark.parametrize(
    "x", [0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308, -0.0, 2.0**53, 1e-300]
)
def test_dump_json_round_trips_every_float_exactly(x):
    back = json.loads(dump_json({"x": x, "v": [x, -x]}))
    assert [float.hex(v) for v in (back["x"], *back["v"])] == [
        float.hex(v) for v in (x, x, -x)
    ]


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_dump_json_rejects_non_finite_floats(x):
    with pytest.raises(ValueError):
        dump_json({"x": [x]})


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


@pytest.mark.parametrize(
    "command, spec_name",
    [("kernel", "superposition.spec.json"), ("digraph", "menagerie.spec.json")],
)
def test_out_overwrites_a_longer_file(tmp_path, capsys, golden_dir, command, spec_name):
    # --out rewrites an existing file in place and cuts it to the new length.
    spec = str(golden_dir / spec_name)
    fresh, stale = tmp_path / "fresh.out", tmp_path / "stale.out"
    stale.write_bytes(b"x" * 10_000)
    assert run_cli([command, spec, "--out", str(fresh)], capsys)[0] == 0
    assert run_cli([command, spec, "--out", str(stale)], capsys)[0] == 0
    assert 0 < len(fresh.read_bytes()) < 10_000
    assert stale.read_bytes() == fresh.read_bytes()


def test_out_writes_through_links(tmp_path, capsys, golden_dir):
    spec = str(golden_dir / "superposition.spec.json")
    fresh, target = tmp_path / "fresh.json", tmp_path / "target.json"
    assert run_cli(["kernel", spec, "--out", str(fresh)], capsys)[0] == 0
    target.touch()
    (tmp_path / "soft.json").symlink_to(target)
    os.link(target, tmp_path / "hard.json")
    for link in ("soft.json", "hard.json"):
        target.write_bytes(b"x" * 10_000)
        assert run_cli(["kernel", spec, "--out", str(tmp_path / link)], capsys)[0] == 0
        assert target.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "soft.json").is_symlink()
    assert os.path.samefile(target, tmp_path / "hard.json")


def test_out_to_dev_null(capsys, golden_dir):
    # Not a regular file: written, never cut to length.
    spec = str(golden_dir / "ladder.spec.json")
    assert run_cli(["validate", spec, "--out", os.devnull], capsys) == (0, "", "")


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


#: JSON the decoder refuses with a RecursionError, and with a plain ValueError.
TOO_DEEP = "[" * 200_000 + "]" * 200_000
HUGE_INTEGER = '{"N": ' + "9" * 5000 + "}"


def _overflowing_gellmann_document() -> str:
    """A Gell-Mann document with finite entries whose standard-basis gamma overflows."""
    C = [[[0.0, 0.0]] * 3 for _ in range(3)]
    for a in range(2):
        C[a][:2] = [[1.5e308, 0.0]] * 2
    zero = [[[0.0, 0.0]] * 2] * 2
    return json.dumps({"N": 2, "basis": "gellmann", "H": zero, "gamma": {"format": "dense", "matrix": C}})


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    cases = [(text, ["validate"], "invalid JSON (") for text in ("{not json", TOO_DEEP, HUGE_INTEGER)]
    cases.append((
        _overflowing_gellmann_document(),
        ["validate", "digraph", "oracle"],
        "gamma.matrix: overflows on conversion to the standard basis",
    ))
    for text, commands, message in cases:
        bad.write_text(text)
        for command in commands:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # nothing from numpy on the way
                code, out, err = run_cli([command, str(bad), "--out", str(tmp_path / "out")], capsys)
            assert code == 1
            assert out == ""
            assert err.startswith(f"error: {bad}: {message}")
            assert err.count("\n") == 1


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
    big = stationary[(6, 7, 8)]
    weights = np.array(big["rho"][5:8]) * math.exp(big["log_normalization"])
    assert np.allclose(weights, [10.0, 26.0, 8.0], rtol=1e-14, atol=0.0)
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
        (TOO_DEEP, "invalid JSON"),
        (HUGE_INTEGER, "invalid JSON"),
    ],
    ids=["missing", "malformed", "ragged", "wrong-shape", "not-utf8", "too-deep", "huge-integer"],
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


@pytest.mark.parametrize("times", ["nan", "inf", "1,-inf", "-1", "0.5,-1e3"])
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
    assert f"argument --times: times must be finite and >= 0, got {times!r}" in captured.err


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


def test_oracle_exits_1_on_a_superoperator_that_is_not_finite(tmp_path, capsys):
    # Diagonal rates of 1e308 parse, but L's entries overflow: there is no SVD to take.
    zero = [[[0.0, 0.0]] * 4 for _ in range(4)]
    for k in range(4):
        zero[k][k] = [1e308, 0.0]
    doc = {"N": 2, "H": [[[0.0, 0.0]] * 2] * 2, "gamma": {"format": "dense", "matrix": zero}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["oracle", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: the largest entry of the superoperator is not finite (nan)\n"


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


def test_tol_zero_is_allowed(capsys, golden_dir):
    code, out, _ = run_cli(
        ["validate", str(golden_dir / "ladder.spec.json"), "--tol", "0"], capsys
    )
    assert code == 0
    assert json.loads(out)["tolerance"] == 0.0


@pytest.mark.parametrize("name", ["superposition", "ladder", "menagerie"])
@pytest.mark.parametrize("command", ["kernel", "crosscheck"])
def test_tol_zero_notes_no_check_as_held_narrowly(capsys, golden_dir, command, name):
    # Every check that holds at a zero threshold holds exactly, not narrowly.
    _, out, _ = run_cli([command, str(golden_dir / f"{name}.spec.json"), "--tol", "0"], capsys)
    assert json.loads(out)["diagnostics"] == []


#: Option values that fail their type check, with the message argparse prints, by name.
USAGE_ERRORS = {
    "pair_one_level": (
        ["eigen", "--pair", "1"], "argument --pair: expected K,L (two comma-separated levels)"
    ),
    "pair_three_levels": (
        ["eigen", "--pair", "1,2,3"],
        "argument --pair: expected K,L (two comma-separated levels)",
    ),
    "pair_not_integers": (
        ["eigen", "--pair", "1,b"], "argument --pair: pair levels must be integers"
    ),
    "times_not_numbers": (
        ["check-state", "--state", "s.json", "--times", "0.5,soon"],
        "argument --times: times must be comma-separated numbers",
    ),
    "times_empty": (
        ["check-state", "--state", "s.json", "--times", " , "],
        "argument --times: at least one time is required",
    ),
    "tol_not_a_number": (
        ["kernel", "--tol", "abc"], "argument --tol: expected a number, got 'abc'"
    ),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_option_type_error_exits_2_with_its_message(capsys, golden_dir, name):
    (command, *options), message = USAGE_ERRORS[name]
    with pytest.raises(SystemExit) as exc:
        cli_main([command, str(golden_dir / "superposition.spec.json"), *options])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"gkslgraph {command}: error: {message}"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "-1"])
def test_tol_flag_rejects_non_finite_or_negative(capsys, golden_dir, value):
    with pytest.raises(SystemExit) as exc:
        cli_main(["kernel", str(golden_dir / "superposition.spec.json"), f"--tol={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tol: expected a finite number >= 0, got {value!r}" in err


@pytest.mark.parametrize("value", ["1e-5", "abc", "nan", "inf", "-1"])
def test_tol_env_var_is_ignored(monkeypatch, capsys, golden_dir, value):
    # The tolerance is set by --tol alone, never by the environment.
    argv = ["kernel", str(golden_dir / "superposition.spec.json")]
    _, plain, _ = run_cli(argv, capsys)
    monkeypatch.setenv("GKSLGRAPH_TOL", value)
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert '"tolerance": 1e-09' in out
    assert out == plain
    assert err == ""


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
    (in_dir / "b3.json").write_text(TOO_DEEP)
    (in_dir / "b4.json").write_text(HUGE_INTEGER)
    write_spec(in_dir / "c.json", superposition_decay_spec())
    out_dir = tmp_path / "out"
    code, _, err = run_cli(["kernel", str(in_dir), "--batch", "--out", str(out_dir)], capsys)
    assert code == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.kernel.json", "c.kernel.json"]
    for name in ("b.json", "b2.json", "b3.json", "b4.json"):
        assert f"error: {in_dir / name}: " in err
    assert err.count("\n") == 4


def test_batch_digraph_writes_dot(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_spec(in_dir / "m.json", sink_menagerie_spec())
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(["digraph", str(in_dir), "--batch", "--out", str(out_dir)], capsys)
    assert code == 0
    assert (out_dir / "m.digraph.json").exists()
    assert (out_dir / "m.dot").exists()


@pytest.mark.parametrize("command", ["kernel", "digraph"])
def test_batch_rerun_into_the_same_directory(tmp_path, capsys, command):
    # The second run swaps the specs under the two stems, so every output
    # file is rewritten with a different length.
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    specs = [superposition_decay_spec(), sink_menagerie_spec()]
    for stems in (("a", "b"), ("b", "a")):
        for stem, spec in zip(stems, specs):
            write_spec(in_dir / f"{stem}.json", spec)
        argv = [command, str(in_dir), "--batch", "--out", str(tmp_path / "rerun")]
        assert run_cli(argv, capsys)[0] == 0
    argv = [command, str(in_dir), "--batch", "--out", str(tmp_path / "fresh")]
    assert run_cli(argv, capsys)[0] == 0
    fresh = {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}
    rerun = {p.name: p.read_bytes() for p in (tmp_path / "rerun").iterdir()}
    assert len(fresh) == (4 if command == "digraph" else 2)
    assert rerun == fresh


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
