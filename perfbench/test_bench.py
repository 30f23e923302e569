"""Tests of the benchmark itself: inputs, routes, checker and statistics.

Run with the rest of the suite (``PYTHONPATH=src python -m pytest``) or on
their own: ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_check  # noqa: E402
import bench_specs  # noqa: E402
import bench_trace  # noqa: E402
import bench_worker  # noqa: E402
import run  # noqa: E402
from gkslgraph import cli, generator, kernel  # noqa: E402
from gkslgraph.basis import standard_labels  # noqa: E402

#: Small sizes keep the tests fast; the structure of every workload holds.
SMALL_MIX = {4: 2, 5: 1, 6: 3}


def small(name: str) -> bench_specs.Workload:
    return dataclasses.replace(bench_specs.WORKLOADS[name], mix=SMALL_MIX)


def file_bytes(cases) -> list[bytes]:
    paths = [c.spec_path for c in cases] + [c.state_path for c in cases if c.state_path]
    return [p.read_bytes() for p in paths]


@pytest.mark.parametrize("name", sorted(bench_specs.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    w = small(name)
    first = bench_specs.generate(w, 7, tmp_path / "a")
    again = bench_specs.generate(w, 7, tmp_path / "b")
    other = bench_specs.generate(w, 8, tmp_path / "c")
    assert file_bytes(first) == file_bytes(again)
    assert [c.reference.dimension for c in first] == [c.reference.dimension for c in again]
    assert file_bytes(first) != file_bytes(other)
    assert [c.N for c in first] == bench_specs.spec_sizes(w)


def test_pair_block_generator_covers_the_case_mix():
    rng = np.random.default_rng(0)
    features = [bench_specs.pair_block_case(rng, 10)[3] for _ in range(60)]
    assert {f["diag"] for f in features} == {"none", "psd", "uniform"}
    assert {f["degenerate_h"] for f in features} == {True, False}
    assert {f["closed_pair"] for f in features} == {True, False}
    assert {f["sinks"] for f in features} == {0, 1, 2, 3}
    assert any(f["singular_blocks"] for f in features)


def test_check_state_workload_alternates_stationary_and_perturbed(tmp_path):
    cases = bench_specs.generate(small("check_state_blocks"), 3, tmp_path)
    assert [c.expect_invariant for c in cases] == [i % 2 == 0 for i in range(len(cases))]


def test_own_superoperator_matches_the_program(tmp_path):
    from gkslgraph.io import load_spec

    for name in ("kernel_blocks", "kernel_dense_fallback"):
        case = bench_specs.generate(small(name), 1, tmp_path / name)[-1]
        N = case.N
        perm = [(i - 1) * N + (j - 1) for i, j in standard_labels(N)]
        ours = case.reference.S[np.ix_(perm, perm)]
        theirs = generator.superoperator(load_spec(case.spec_path))
        assert np.abs(ours - theirs).max() <= 1e-12 * max(1.0, np.abs(theirs).max())


def traced_run(workload, tmp_path):
    cases = bench_specs.generate(workload, 5, tmp_path)
    with bench_trace.Tracer() as tracer:
        for i, case in enumerate(cases):
            tracer.spec_id = i
            assert cli.main(case.argv) == 0
    problems = []
    for case in cases:
        problems += bench_check.check_output(
            case.out_path.read_text(), workload.command, case.N, case.reference,
            expected_method=workload.expected_method,
            expect_invariant=case.expect_invariant, times=bench_specs.CHECK_TIMES,
        )
    requests = len(cases) if workload.command == "kernel" else 0
    metrics = bench_trace.layer_metrics(tracer.dump(), len(cases), requests, 0.0, 0.0)
    return metrics, problems


def test_kernel_blocks_takes_the_analytic_route(tmp_path):
    metrics, problems = traced_run(small("kernel_blocks"), tmp_path)
    assert problems == []
    assert metrics["kernel.analytic_fraction"] == 1.0
    assert metrics["kernel.brute_force_calls"] == 0
    assert metrics["generator.validate_calls"] == 3
    assert metrics["digraph.induced_digraph_calls"] == 1


def test_dense_fallback_takes_the_oracle_route(tmp_path):
    metrics, problems = traced_run(small("kernel_dense_fallback"), tmp_path)
    assert problems == []
    assert metrics["kernel.analytic_fraction"] == 0.0
    assert metrics["kernel.brute_force_calls"] == 1
    assert metrics["generator.superoperator_calls"] == 1


def test_check_state_evolves_without_kernel_extraction(tmp_path):
    metrics, problems = traced_run(small("check_state_blocks"), tmp_path)
    assert problems == []
    assert metrics["kernel.verify_invariant_self_s"] > 0
    assert metrics["kernel.brute_force_calls"] == 0
    assert metrics["kernel.full_kernel_self_s"] == 0


def test_tracer_restores_every_patched_name():
    originals = (kernel.validate, cli.validate, generator.validate, cli.main,
                 generator.GeneratorSpec.__post_init__)
    with bench_trace.Tracer():
        assert kernel.validate is not originals[0]
        assert cli.validate is kernel.validate
    assert (kernel.validate, cli.validate, generator.validate, cli.main,
            generator.GeneratorSpec.__post_init__) == originals


@pytest.fixture
def kernel_result(tmp_path):
    w = small("kernel_blocks")
    case = next(c for c in bench_specs.generate(w, 2, tmp_path) if c.reference.dimension > 1)
    assert cli.main(case.argv) == 0
    doc = json.loads(case.out_path.read_text())
    assert bench_check.check_kernel(doc, case.N, case.reference, "analytic") == []
    return doc, case


def test_checker_rejects_a_perturbed_kernel_element(kernel_result):
    doc, case = kernel_result
    doc["elements"][0]["matrix"][0][-1][0] += 1e-3
    assert bench_check.check_kernel(doc, case.N, case.reference, "analytic")


def test_checker_rejects_a_dropped_kernel_element(kernel_result):
    doc, case = kernel_result
    doc["elements"].pop()
    doc["dimension"] -= 1
    assert bench_check.check_kernel(doc, case.N, case.reference, "analytic")


def test_checker_rejects_a_repeated_kernel_element(kernel_result):
    doc, case = kernel_result
    doc["elements"][-1] = doc["elements"][0]
    assert bench_check.check_kernel(doc, case.N, case.reference, "analytic")


def test_checker_rejects_the_wrong_route(kernel_result):
    doc, case = kernel_result
    assert bench_check.check_kernel(doc, case.N, case.reference, "oracle")


def test_checker_rejects_a_flipped_invariance_verdict():
    doc = {"command": "check-state", "invariant": True, "times": [0.5, 1.0, 2.0]}
    assert bench_check.check_state(doc, True, (0.5, 1.0, 2.0)) == []
    assert bench_check.check_state(doc, False, (0.5, 1.0, 2.0))
    assert bench_check.check_output("{not json", "kernel", 3, None)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 41))
    assert run.tail(values) == (30, 75.0)
    assert run.tail(list(range(5))) == (4, 100.0)


def test_latencies_are_scaled_by_the_speed_probe():
    ref = run.PROBE_REFERENCE_S
    phase = {"samples": [[0.3, 0.2], [2.0]], "probes": [[ref, 2 * ref], [ref / 2]]}
    latencies = run.per_spec_latency(phase)
    assert latencies[0] == pytest.approx([0.3, 0.1])
    assert latencies[1] == pytest.approx([4.0])


def test_warmup_excess_is_first_call_time_above_the_median():
    ref = run.PROBE_REFERENCE_S
    latencies = [[0.3, 0.1, 0.2], [2.0, 1.0]]
    warmup = [{"command": 0, "wall_s": 0.5, "probe_s": ref},
              {"command": 1, "wall_s": 1.5, "probe_s": ref}]
    assert run.warmup_excess(warmup, latencies) == pytest.approx(0.3 + 0.0)


def test_trace_overhead_pairs_adjacent_runs():
    untraced = [[1.0, 2.0], [0.5, 0.4]]
    traced = [[1.1, 2.3], [0.7, 0.6]]
    assert run.paired_overhead(untraced, traced) == pytest.approx((0.2 + 0.2) / 2)


def fake_package(monkeypatch, source):
    package = types.ModuleType("fakepkg")
    module = types.ModuleType("fakepkg.tables")
    exec("from functools import lru_cache\n" + source, module.__dict__)
    monkeypatch.setitem(sys.modules, "fakepkg", package)
    monkeypatch.setitem(sys.modules, "fakepkg.tables", module)
    return package


def test_set_up_fills_tables_keyed_by_n(monkeypatch):
    package = fake_package(monkeypatch, (
        "@lru_cache\ndef table(N, scale=2):\n    return [scale] * N\n"
        "@lru_cache\ndef constant():\n    return 1\n"
    ))
    tables = bench_worker.cached_tables(package)
    assert [(attr, arity) for _, attr, arity in tables] == [("constant", 0), ("table", 1)]
    bench_worker.fill_caches(tables, [3, 4])
    assert sys.modules["fakepkg.tables"].table.cache_info().currsize == 2


def test_set_up_refuses_a_table_it_cannot_fill(monkeypatch):
    package = fake_package(monkeypatch, "@lru_cache\ndef table(N, tol):\n    return N * tol\n")
    with pytest.raises(SystemExit, match="table"):
        bench_worker.cached_tables(package)


def test_tracer_reuses_its_wrappers_when_installed_again():
    tracer = bench_trace.Tracer()
    wrappers = []
    for _ in range(2):
        with tracer:
            wrappers.append(kernel.validate)
    assert wrappers[0] is wrappers[1] is not generator.validate
    assert len(tracer.names) == len(set(tracer.names))
