"""Each derived structure is built once per request.

Calls are counted by wrapping a function in every gkslgraph module that
holds a reference to it, so calls through any import path are seen.
"""

import inspect
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gkslgraph as gk
from gkslgraph import basis, cli, digraph, generator, io
from helpers import (
    COMMANDS,
    command_argv,
    gellmann_document,
    pair_block_families,
    random_hermitian,
    random_identity_preserving_spec,
    random_valid_spec,
    sink_menagerie_spec,
)


def count_calls(monkeypatch, *functions) -> Counter:
    counts: Counter = Counter()
    for fn in functions:

        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "gkslgraph":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return counts


def test_digraph_command_induces_and_decomposes_once(monkeypatch, tmp_path, golden_dir):
    # induced_digraph reads the rates, and the singularity test the pair
    # block of the terminal 2-cycle, from gamma's pattern data: no pair-block table.
    counts = count_calls(
        monkeypatch,
        digraph.induced_digraph,
        digraph.scc_decompose,
        generator._pair_block_table,
    )
    spec = golden_dir / "menagerie.spec.json"
    assert cli.main(["digraph", str(spec), "--out", str(tmp_path / "g.dot")]) == 0
    assert counts == {"induced_digraph": 1, "scc_decompose": 1}  # _pair_block_table: 0


def _terminal_two_cycles(spec) -> int:
    graph = digraph.induced_digraph(generator.canonicalize(spec))
    return sum(len(comp) == 2 for comp in graph.scc.terminal_components())


@pytest.mark.parametrize("name, cycles", [("menagerie", 1), ("superposition", 1), ("ladder", 0)])
def test_kernel_tests_each_terminal_two_cycle_once(monkeypatch, tmp_path, golden_dir, name, cycles):
    path = golden_dir / f"{name}.spec.json"
    assert _terminal_two_cycles(gk.parse_spec_document(json.loads(path.read_text()))) == cycles
    counts = count_calls(monkeypatch, generator._singularity_checks)
    assert cli.main(["kernel", str(path), "--out", str(tmp_path / "k.json")]) == 0
    assert counts["_singularity_checks"] == cycles


@pytest.mark.parametrize(
    "name", sorted(n for n, s in pair_block_families().items() if generator.validate(s).verdict)
)
def test_full_kernel_tests_each_terminal_two_cycle_once(monkeypatch, name):
    spec = pair_block_families()[name]
    cycles = _terminal_two_cycles(spec)
    counts = count_calls(monkeypatch, generator._singularity_checks)
    gk.full_kernel(spec)
    assert counts["_singularity_checks"] == cycles


def test_consistency_bound_builds_the_superoperator_once(monkeypatch):
    counts = count_calls(monkeypatch, generator.superoperator)
    gk.consistency_and_bound(sink_menagerie_spec())
    assert counts == {"superoperator": 1}


def test_kernel_command_conjugates_by_w_only_to_validate(monkeypatch, tmp_path, golden_dir):
    # On the pair-block pattern validate conjugates gamma's blocks only, and
    # canonicalize works in the standard basis: no N^4 conjugation by W.
    # The command asks validate three times; the report is made once.
    counts = count_calls(
        monkeypatch, basis._conjugate_by_w, generator.validate, generator._validation_report
    )
    spec = golden_dir / "superposition.spec.json"  # "blocks" gamma format
    assert cli.main(["kernel", str(spec), "--out", str(tmp_path / "k.json")]) == 0
    assert counts == {"validate": 3, "_validation_report": 1}  # _conjugate_by_w: 0


@pytest.mark.parametrize("command", ["canonicalize", "check-state"])
def test_command_validates_once(monkeypatch, tmp_path, golden_dir, command):
    # canonicalize and verify_invariant validate; the command does not again.
    counts = count_calls(monkeypatch, generator.validate)
    spec = golden_dir / "superposition.spec.json"
    assert cli.main(command_argv(command, spec, tmp_path, 3)) == 0
    assert counts == {"validate": 1}


def test_kernel_command_induces_the_canonical_digraph_once(monkeypatch, tmp_path, golden_dir):
    # The pair-block analysis reads sinks and terminal 2-cycles off the one
    # digraph that also gives the diagonal kernel elements, and the numbers
    # of their blocks from the canonical spec's H and pattern data: it
    # builds no pair-block table.  The
    # pattern of gamma is never scanned: the parser of the blocks document
    # records it, the canonical spec inherits it, and validate reads it and
    # scans no B of its own.
    counts = count_calls(
        monkeypatch,
        generator._pair_block_table,
        digraph.induced_digraph,
        digraph.scc_decompose,
        basis._conjugate_by_w,
        basis._max_off_block,
        generator.validate,
    )
    spec = golden_dir / "superposition.spec.json"
    assert cli.main(["kernel", str(spec), "--out", str(tmp_path / "k.json")]) == 0
    assert counts == {
        "induced_digraph": 1,
        "scc_decompose": 1,
        "validate": 3,
    }  # _pair_block_table, _conjugate_by_w, _max_off_block: 0


def test_eigen_command_builds_the_pair_block_table_once(monkeypatch, tmp_path, golden_dir):
    # L's blocks are built once per command, and the pair's block read off them.
    counts = count_calls(monkeypatch, generator._pair_block_table)
    spec = golden_dir / "superposition.spec.json"  # "blocks" gamma format
    assert cli.main(command_argv("eigen", spec, tmp_path, 3)) == 0
    assert counts == {"_pair_block_table": 1}


def _dense_spec_path(tmp_path) -> Path:
    """A valid spec whose gamma has nonzero cross blocks, written as a dense document."""
    spec = random_valid_spec(np.random.default_rng(61), 4)
    path = tmp_path / "dense.json"
    path.write_text(gk.dump_json(gk.spec_to_document(spec)))
    return path


def _kernel_falls_back(path: Path, tmp_path) -> None:
    assert cli.main(["kernel", str(path), "--out", str(tmp_path / "k.json")]) == 0
    assert "fallback_reason" in json.loads((tmp_path / "k.json").read_text())


def _arguments(monkeypatch, fn) -> list:
    """The argument tuples of each call of ``io``'s function ``fn`` from now on."""
    calls = []

    def recording(*args, _fn=fn):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(io, fn.__name__, recording)
    return calls


def test_dense_gamma_reaches_the_parser_as_one_array(monkeypatch, tmp_path):
    # The decoder reads H and gamma.matrix flat, so the parser takes each
    # as an ndarray of the right shape, with no list per [re, im] entry.
    arrays = _arguments(monkeypatch, io._numeric_array)
    _kernel_falls_back(_dense_spec_path(tmp_path), tmp_path)
    assert [(type(value), shape) for value, shape in arrays] == [
        (np.ndarray, (4, 4)),
        (np.ndarray, (16, 16)),
    ]


def test_blocks_pairs_reach_the_parser_as_lists(monkeypatch, tmp_path, golden_dir):
    # json's scanner reads the pairs list, each block as its nested lists,
    # and the parser checks all of them at once; the diag is read flat.
    pairs = _arguments(monkeypatch, io._numeric_pairs)
    arrays = _arguments(monkeypatch, io._numeric_array)
    assert cli.main(["validate", str(golden_dir / "ladder.spec.json")]) == 0
    assert cli.main(["validate", str(golden_dir / "menagerie.spec.json")]) == 0
    assert [type(p) for p, _ in pairs] == [list, list]
    assert [type(b["block"]) for b in pairs[1][0]] == [list] * 4
    assert [(type(value), shape) for value, shape in arrays] == [
        (np.ndarray, (3, 3)),  # ladder: H
        (list, (0, 2, 2)),  # ladder: the blocks of no pairs
        (np.ndarray, (3, 3)),  # ladder: diag
        (np.ndarray, (8, 8)),  # menagerie: H
        (list, (4, 2, 2)),  # menagerie: the blocks of four pairs; no diag
    ]


def test_kernel_command_on_a_dense_spec_validates_once_and_scans_the_canonical_spec(
    monkeypatch, tmp_path
):
    # A nonzero cross block rules the pattern out with no scan of gamma, so
    # the one report the three validate calls share conjugates gamma whole
    # by W and scans only its B; the fallback reason quotes the one scan of
    # the canonical spec.  The second conjugation by W is the oracle's: it
    # takes the superoperator to the Gell-Mann basis, where its SVD is real.
    path = _dense_spec_path(tmp_path)
    counts = count_calls(
        monkeypatch,
        basis._conjugate_by_w,
        basis._max_off_block,
        generator.validate,
        generator._validation_report,
    )
    _kernel_falls_back(path, tmp_path)
    assert counts == {
        "_conjugate_by_w": 2,
        "_max_off_block": 2,
        "validate": 3,
        "_validation_report": 1,
    }


def test_kernel_fallback_takes_one_real_svd_of_one_superoperator(
    monkeypatch, tmp_path, svd_calls
):
    # The oracle conjugates the superoperator in place rather than building
    # a second N^4 operator, and a valid spec's L preserves Hermiticity, so
    # its one SVD is of a real array.  It takes the singular values alone:
    # the null vectors come from one bordered solve, and no full SVD is
    # taken.  The superoperator is one gather of gamma, with no Kronecker
    # product.
    path = _dense_spec_path(tmp_path)
    counts = count_calls(monkeypatch, generator.superoperator)
    for module, name in ((np, "kron"), (np.linalg, "solve"), (np.linalg, "qr")):

        def recording(*args, _name=name, _fn=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    _kernel_falls_back(path, tmp_path)
    assert counts == {"superoperator": 1, "solve": 1, "qr": 1}  # kron: 0
    assert svd_calls == [(np.float64, False)]


def test_valid_dense_kernel_certifies_psd_by_one_cholesky(tmp_path, psd_calls):
    # The one validation report is certified by a shifted Cholesky of the
    # whole traceless block: no spectrum is taken.
    _kernel_falls_back(_dense_spec_path(tmp_path), tmp_path)
    assert psd_calls == [("cholesky", (1, 15, 15))]


def test_non_psd_dense_spec_takes_the_spectrum_once_after_the_cholesky(tmp_path, psd_calls):
    # The Cholesky fails, so the spectrum is taken once, for the offending
    # eigenvalue the command reports.
    spec = random_valid_spec(np.random.default_rng(61), 4)
    path = tmp_path / "negated.json"
    negated = gk.GeneratorSpec(H=spec.H, gamma=-spec.gamma)
    path.write_text(gk.dump_json(gk.spec_to_document(negated)))
    assert cli.main(["kernel", str(path), "--out", str(tmp_path / "k.json")]) == 1
    assert psd_calls == [("cholesky", (1, 15, 15)), ("eigvalsh", (1, 15, 15))]


@pytest.mark.parametrize("command", COMMANDS)
def test_gellmann_file_is_converted_once(monkeypatch, tmp_path, capsys, command):
    # The parser converts a Gell-Mann document; no command converts again.
    H, C = gk.standard_to_gellmann(sink_menagerie_spec())
    path = tmp_path / "menagerie.json"
    path.write_text(gk.dump_json(gellmann_document(H, C)) + "\n")
    counts = count_calls(monkeypatch, generator.gellmann_to_standard)
    assert cli.main(command_argv(command, path, tmp_path, len(H))) == 0
    assert counts == {"gellmann_to_standard": 1}


def test_check_state_on_a_blocks_spec_builds_no_superoperator(monkeypatch, tmp_path, golden_dir):
    # The pair-block route takes the residual from the blocks and evolves
    # them; the state is invariant, so the evolution runs at every time.
    # validate and the route read the pattern the parser recorded, and
    # nothing scans or re-indexes gamma.
    psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    state = tmp_path / "state.json"
    state.write_text(gk.dump_json({"matrix": gk.matrix_to_document(np.outer(psi, psi))}))
    spec = golden_dir / "superposition.spec.json"  # "blocks" gamma format
    counts = count_calls(
        monkeypatch,
        generator.superoperator,
        generator._pair_block_table,
        basis._max_off_block,
        basis._conjugate_by_w,
        generator.apply_generator,
    )
    argv = ["check-state", str(spec), "--state", str(state), "--times", "0.5,1,2"]
    assert cli.main(argv + ["--out", str(tmp_path / "c.json")]) == 0
    assert json.loads((tmp_path / "c.json").read_text())["invariant"] is True
    # _max_off_block, _conjugate_by_w, apply_generator: 0
    assert counts == {"_pair_block_table": 1}


def _dense_gamma_spec() -> gk.GeneratorSpec:
    """One dense Hermitian jump operator: a dense gamma (nonzero cross blocks), L(I) = 0."""
    rng = np.random.default_rng(60)
    a = gk.to_standard_coordinates(random_hermitian(rng, 3))
    return gk.GeneratorSpec(H=random_hermitian(rng, 3), gamma=np.outer(a, a.conj()))


# Two ways off the pair-block route.  "h_off_diagonal": gamma has the
# pattern and only H's off-diagonal picks the dense route; the one
# _max_off_block call is the pattern scan of gamma.  "dense_gamma": a cross
# block rules the pattern out with no scan of gamma, so the one call is
# validate's scan of B (at tolerance 0 the route used to scan gamma again).
DENSE_ROUTE_SPECS = {
    "h_off_diagonal": lambda: random_identity_preserving_spec(np.random.default_rng(60), 3),
    "dense_gamma": _dense_gamma_spec,
}


def _check_dense_state(monkeypatch, tmp_path, case: str, state: np.ndarray) -> tuple[bool, Counter]:
    """check-state on a spec off the pair-block route: verdict and calls."""
    import scipy.linalg

    path = tmp_path / "dense.json"
    path.write_text(gk.dump_json(gk.spec_to_document(DENSE_ROUTE_SPECS[case]())))
    state_path = tmp_path / "state.json"
    state_path.write_text(gk.dump_json({"matrix": gk.matrix_to_document(state)}))
    counts = count_calls(
        monkeypatch,
        generator.superoperator,
        generator._pair_block_table,
        generator.apply_generator,
        basis._max_off_block,
    )

    def expm(*args, _real=scipy.linalg.expm):
        counts["expm"] += 1
        return _real(*args)

    monkeypatch.setattr(scipy.linalg, "expm", expm)
    argv = ["check-state", str(path), "--state", str(state_path), "--times", "0.5,2"]
    assert cli.main(argv + ["--out", str(tmp_path / "c.json")]) == 0
    return json.loads((tmp_path / "c.json").read_text())["invariant"], counts


@pytest.mark.parametrize("case", DENSE_ROUTE_SPECS)
def test_check_state_on_a_dense_spec_builds_the_superoperator_once(monkeypatch, tmp_path, case):
    # I/N is invariant: the residual and the drift bound come from one
    # superoperator, built from one gather of gamma straight into its vec
    # order, and the bound settles both times, so nothing is evolved.
    invariant, counts = _check_dense_state(monkeypatch, tmp_path, case, np.eye(3) / 3)
    assert invariant is True
    assert counts == {"superoperator": 1, "_max_off_block": 1}  # expm: 0


@pytest.mark.parametrize("case", DENSE_ROUTE_SPECS)
def test_check_state_on_a_dense_spec_stops_at_the_residual(monkeypatch, tmp_path, case):
    # I/N with a coherence moves: it fails the O(N^4) residual, and nothing
    # is evolved.
    state = np.eye(3) / 3
    state[0, 1] = state[1, 0] = 1e-3
    invariant, counts = _check_dense_state(monkeypatch, tmp_path, case, state)
    assert invariant is False
    assert counts == {"superoperator": 1, "_max_off_block": 1}  # expm: 0


def test_every_cached_function_is_keyed_by_n_at_most():
    # A module-level cache keyed by a spec (or anything else besides N) would
    # grow with every request; keep per-spec tables on the spec instead.
    found = []
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] != "gkslgraph":
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == name:
                parameters = inspect.signature(value).parameters
                assert list(parameters) in ([], ["N"]), f"{name}.{attr}{inspect.signature(value)}"
                found.append(f"{name}.{attr}")
    assert {"gkslgraph.basis.standard_labels", "gkslgraph.basis._pair_levels"} <= set(found)


def record_opens(monkeypatch) -> list[tuple[Path, int]]:
    opened: list[tuple[Path, int]] = []
    real_open = os.open

    def recording(path, flags, *args, **kwargs):
        opened.append((Path(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    return opened


def test_out_file_is_opened_once_without_truncation(monkeypatch, tmp_path, golden_dir):
    # Truncating a written file to 0 and refilling it stalls for tens of ms
    # on ext4; the output is rewritten in place instead.
    out = tmp_path / "k.json"
    out.write_bytes(b"x" * 10_000)
    opened = record_opens(monkeypatch)
    spec = golden_dir / "superposition.spec.json"
    assert cli.main(["kernel", str(spec), "--out", str(out)]) == 0
    assert [path for path, _ in opened] == [out]
    assert not any(flags & os.O_TRUNC for _, flags in opened)


def test_batch_opens_each_output_once_without_truncation(monkeypatch, tmp_path, golden_dir):
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    for name in ("ladder", "superposition"):
        (in_dir / f"{name}.json").write_bytes((golden_dir / f"{name}.spec.json").read_bytes())
    opened = record_opens(monkeypatch)
    assert cli.main(["kernel", str(in_dir), "--batch", "--out", str(out_dir)]) == 0
    assert sorted(path for path, _ in opened) == [
        out_dir / "ladder.kernel.json",
        out_dir / "superposition.kernel.json",
    ]
    assert not any(flags & os.O_TRUNC for _, flags in opened)
