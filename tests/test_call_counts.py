"""Each derived structure is built once per request.

Calls are counted by wrapping a function in every gkslgraph module that
holds a reference to it, so calls through any import path are seen.
"""

import sys
from collections import Counter

import gkslgraph as gk
from gkslgraph import cli, digraph, generator
from helpers import sink_menagerie_spec


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
