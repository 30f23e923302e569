"""Each derived structure is built once per request.

Calls are counted by wrapping a function in every gkslgraph module that
holds a reference to it, so calls through any import path are seen.
"""

import sys
from collections import Counter

import pytest

import gkslgraph as gk
from gkslgraph import basis, cli, digraph, generator
from helpers import COMMANDS, command_argv, gellmann_document, sink_menagerie_spec


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
    counts = count_calls(monkeypatch, digraph.induced_digraph, digraph.scc_decompose)
    spec = golden_dir / "menagerie.spec.json"
    assert cli.main(["digraph", str(spec), "--out", str(tmp_path / "g.dot")]) == 0
    assert counts == {"induced_digraph": 1, "scc_decompose": 1}


def test_consistency_bound_builds_the_superoperator_once(monkeypatch):
    counts = count_calls(monkeypatch, generator.superoperator)
    gk.consistency_and_bound(sink_menagerie_spec())
    assert counts == {"superoperator": 1}


def test_kernel_command_conjugates_by_w_only_to_validate(monkeypatch, tmp_path, golden_dir):
    # One conjugation per validate call (3 per kernel command); canonicalize
    # works in the standard basis and conjugates by W not at all.
    counts = count_calls(monkeypatch, basis._conjugate_by_w, generator.validate)
    spec = golden_dir / "superposition.spec.json"  # "blocks" gamma format
    assert cli.main(["kernel", str(spec), "--out", str(tmp_path / "k.json")]) == 0
    assert counts == {"_conjugate_by_w": 3, "validate": 3}


def test_kernel_command_induces_the_canonical_digraph_once(monkeypatch, tmp_path, golden_dir):
    # The pair-block analysis reads sinks and terminal 2-cycles off the one
    # digraph that also gives the diagonal kernel elements.
    counts = count_calls(
        monkeypatch,
        digraph._rate_table,
        digraph.induced_digraph,
        digraph.scc_decompose,
        basis._conjugate_by_w,
        generator.validate,
    )
    spec = golden_dir / "superposition.spec.json"
    assert cli.main(["kernel", str(spec), "--out", str(tmp_path / "k.json")]) == 0
    assert counts == {
        "_rate_table": 1,
        "induced_digraph": 1,
        "scc_decompose": 1,
        "_conjugate_by_w": 3,
        "validate": 3,
    }


@pytest.mark.parametrize("command", COMMANDS)
def test_gellmann_file_is_converted_once(monkeypatch, tmp_path, capsys, command):
    # The parser converts a Gell-Mann document; no command converts again.
    gm = gk.standard_to_gellmann(sink_menagerie_spec())
    path = tmp_path / "menagerie.json"
    path.write_text(gk.dump_json(gellmann_document(gm)) + "\n")
    counts = count_calls(monkeypatch, generator.gellmann_to_standard)
    assert cli.main(command_argv(command, path, tmp_path, gm.N)) == 0
    assert counts == {"gellmann_to_standard": 1}
